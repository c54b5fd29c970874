//! A long-running flow daemon over the shared artifact cache.
//!
//! `vpga serve --listen ADDR` starts an HTTP/1.1 daemon that accepts flow
//! jobs — (design, arch, variant, params) plus per-job deadline — runs
//! them on [`vpga_flow::CachedFlow`], and streams per-stage progress back
//! as plain-text lines. The robustness envelope:
//!
//! - **Admission control.** Accepted connections enter a bounded queue; a
//!   full queue answers `503` with `Retry-After` instead of growing
//!   without bound. A fixed worker pool drains the queue. The accept
//!   loop waits in the kernel for the next connection (`poll(2)` on
//!   Linux), so it accepts at once, and wakes at least every 100 ms to
//!   see a stop.
//! - **Per-leg dedup.** Jobs share front-ends and results through one
//!   content-addressed [`vpga_flow::ArtifactCache`] keyed by the
//!   normalized config⊕params fingerprint — including in-flight work.
//! - **Per-job deadlines and isolation.** `deadline_ms=0` fails before
//!   stage 1; worker panics are trapped per job; a poisoned job abandons
//!   its cache claim and never corrupts published artifacts.
//! - **Graceful drain.** `SIGTERM` (or `/shutdown`) stops accepting,
//!   answers queued-but-unstarted connections `503 draining`, cancels
//!   running jobs cooperatively at their next stage boundary (completed
//!   stages are already checkpointed when a disk tier is configured),
//!   then validates every cached artifact before reporting a
//!   [`DrainSummary`].
//!
//! Endpoints (all `GET`, `Connection: close`, close-delimited bodies):
//!
//! | path | effect |
//! |---|---|
//! | `/healthz` | liveness probe |
//! | `/stats` | job counters, pool size, queue wait and service time + cache counters |
//! | `/job?design=alu&arch=granular&variant=a&params=tiny` | run one job, stream progress |
//! | `/matrix?params=tiny` | run the full 16-cell matrix, print its fingerprint |
//! | `/shutdown` | begin graceful drain |
//!
//! `params` on `/job` and `/matrix` names a size preset: `tiny` (the
//! default), `small`, `medium` or `paper`. A request head that ends
//! before its blank line, or runs past 8 KiB without one, is answered
//! `400`.
//!
//! Each answer goes through one buffered writer, so it costs as many
//! `write(2)` calls as it has flush points. `/healthz`, `/stats`,
//! `/shutdown`, `400`, `404` and `503` are one write each. `/job` flushes
//! its status line on admission, each `stage` line as it is written and
//! the rest at the end: a warm hit is two writes. `/matrix` flushes its
//! status line, each `cell` line and its closing lines.
//!
//! `/job` also honours `deadline_ms=N`, and — only when the daemon runs
//! with chaos enabled (`--chaos`) — `poison=STAGE|result` (panic when the
//! named event arrives) and `stall_ms=N` (sleep in the first stage event;
//! lets tests land a drain mid-job).
//!
//! [`DaemonConfig::default`] holds the defaults `vpga serve` uses: one
//! worker per CPU within [`DEFAULT_WORKERS`] (2 to 4), a queue of 64
//! connections and a 64 MiB cache (it listens on a free port; `vpga
//! serve` on `127.0.0.1:8787`). Each worker that has run a job keeps its
//! own allocator arena resident, so a small host runs a small pool. The
//! floor of 2 keeps one cold job from holding up `/healthz`, `/stats`
//! and `/shutdown`, which share the pool; the cap of 4, the fixed pool
//! it replaced, keeps a large host from holding more arenas than before.
//! The price on a small host: a cache hit waits whenever every worker
//! runs a cold job, and a job that waits for another's in-flight
//! front-end holds its worker idle. [`DaemonConfig::workers`] (`vpga
//! serve --workers N`) sets the pool.

#![warn(missing_docs)]

mod bench;
mod client;
mod http;
mod poll;
mod signal;

pub use bench::{run_bench, BenchConfig, BenchReport};
pub use client::get;
pub use signal::{install_sigterm_handler, raise_sigterm_flag, sigterm_seen};

use std::collections::VecDeque;
use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use vpga_designs::{DesignParams, NamedDesign};
use vpga_flow::service::{arch_by_name, pair_outcomes};
use vpga_flow::{
    faultpoint, ArtifactCache, CacheStats, CachedFlow, CancelToken, CheckpointStore, FlowConfig,
    FlowVariant, JobEvent, Matrix, MatrixRun, ServiceJob,
};

use http::{Query, Request};

/// The longest the accept loop waits for a connection before it
/// re-reads the stop flags: an idle daemon begins its drain within this
/// of SIGTERM, `/shutdown` or [`DaemonHandle::shutdown`].
const STOP_POLL: Duration = Duration::from_millis(100);

/// The bounds on the default pool of one worker per CPU. At least 2, so
/// one cold job cannot hold up the control endpoints that share the
/// pool; at most 4, the fixed pool the default used to be, so no host
/// keeps more worker arenas resident than it did then.
pub const DEFAULT_WORKERS: RangeInclusive<usize> = 2..=4;

/// How to run a daemon.
#[derive(Clone, Debug, PartialEq)]
pub struct DaemonConfig {
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// Worker threads handling queued connections (default: one per CPU,
    /// within [`DEFAULT_WORKERS`]).
    pub workers: usize,
    /// Bounded connection-queue depth; beyond it, `503 Retry-After`.
    pub queue_depth: usize,
    /// Artifact-cache byte budget.
    pub cache_budget: usize,
    /// Optional disk checkpoint tier (survives daemon restarts).
    pub checkpoint_dir: Option<PathBuf>,
    /// Honour the `poison` / `stall_ms` chaos parameters.
    pub chaos: bool,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            listen: "127.0.0.1:0".to_owned(),
            workers: default_workers(std::thread::available_parallelism().ok()),
            queue_depth: 64,
            cache_budget: 64 << 20,
            checkpoint_dir: None,
            chaos: false,
        }
    }
}

/// One worker per CPU (one if the count is unknown), within
/// [`DEFAULT_WORKERS`].
fn default_workers(cpus: Option<std::num::NonZeroUsize>) -> usize {
    cpus.map_or(1, usize::from)
        .clamp(*DEFAULT_WORKERS.start(), *DEFAULT_WORKERS.end())
}

/// What the daemon reports after a graceful drain.
#[derive(Clone, Copy, Debug)]
pub struct DrainSummary {
    /// Connections admitted to the queue.
    pub accepted: u64,
    /// Jobs that completed with a result.
    pub completed: u64,
    /// Jobs that ended in an error (deadline, cancellation, panic, …).
    pub failed: u64,
    /// Connections rejected by admission control (`503 Retry-After`).
    pub rejected: u64,
    /// Queued connections refused with `503 draining` at drain time.
    pub refused_draining: u64,
    /// Final cache counters.
    pub cache: CacheStats,
    /// Every cached artifact re-validated against its digest post-drain.
    pub cache_valid: bool,
}

impl std::fmt::Display for DrainSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "drained: accepted={} completed={} failed={} rejected={} refused_draining={} \
             cache_valid={} cache[{}]",
            self.accepted,
            self.completed,
            self.failed,
            self.rejected,
            self.refused_draining,
            self.cache_valid,
            self.cache
        )
    }
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    refused_draining: AtomicU64,
    /// Longest and summed wait of a connection from accept to the worker
    /// that picked it up, µs.
    queue_wait_us_max: AtomicU64,
    queue_wait_us_sum: AtomicU64,
    /// Longest and summed time a `/job` spent inside
    /// [`CachedFlow::run_job`], µs.
    service_us_max: AtomicU64,
    service_us_sum: AtomicU64,
}

/// Microseconds since `start`, saturating.
fn micros_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

struct Shared {
    flow: CachedFlow,
    cache: Arc<ArtifactCache>,
    /// Cloned into every job's `FlowConfig.cancel`: drain cancels all
    /// running jobs cooperatively at their next stage boundary.
    drain: CancelToken,
    /// Set by `/shutdown`, [`DaemonHandle::shutdown`], or SIGTERM.
    stop: AtomicBool,
    /// Set once the accept loop exits; queued connections are refused.
    draining: AtomicBool,
    /// Accepted connections, each with the instant it was accepted.
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    queue_cv: Condvar,
    queue_depth: usize,
    workers: usize,
    counters: Counters,
    chaos: bool,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || sigterm_seen()
    }
}

/// A running daemon: its bound address plus shutdown/join controls.
pub struct DaemonHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: std::thread::JoinHandle<DrainSummary>,
}

impl DaemonHandle {
    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared artifact cache (inspection and validation in tests).
    pub fn cache(&self) -> Arc<ArtifactCache> {
        Arc::clone(&self.shared.cache)
    }

    /// Begins a graceful drain, exactly like SIGTERM.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
    }

    /// Waits for the drain to finish.
    pub fn join(self) -> DrainSummary {
        self.thread.join().unwrap_or(DrainSummary {
            accepted: 0,
            completed: 0,
            failed: 0,
            rejected: 0,
            refused_draining: 0,
            cache: CacheStats::default(),
            cache_valid: false,
        })
    }
}

/// Binds the listen address and starts the daemon (accept loop + worker
/// pool) on background threads.
///
/// # Errors
///
/// An [`io::Error`] if the address cannot be bound or threads cannot
/// spawn.
pub fn spawn(config: DaemonConfig) -> io::Result<DaemonHandle> {
    let listener = TcpListener::bind(&config.listen)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let cache = Arc::new(ArtifactCache::new(config.cache_budget));
    let mut flow = CachedFlow::with_cache(Arc::clone(&cache));
    if let Some(dir) = &config.checkpoint_dir {
        flow = flow.with_checkpoints(CheckpointStore::new(dir, true)?);
    }
    let shared = Arc::new(Shared {
        flow,
        cache,
        drain: CancelToken::new(),
        stop: AtomicBool::new(false),
        draining: AtomicBool::new(false),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        queue_depth: config.queue_depth,
        workers: config.workers.max(1),
        counters: Counters::default(),
        chaos: config.chaos,
    });
    let main = Arc::clone(&shared);
    let thread = std::thread::Builder::new()
        .name("vpga-serve".to_owned())
        .spawn(move || daemon_main(&listener, &main))?;
    Ok(DaemonHandle {
        addr,
        shared,
        thread,
    })
}

/// Accept loop + drain sequence. Runs on the daemon thread.
fn daemon_main(listener: &TcpListener, shared: &Arc<Shared>) -> DrainSummary {
    let pool: Vec<_> = (0..shared.workers)
        .map(|i| {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name(format!("vpga-serve-worker-{i}"))
                .spawn(move || worker_main(&shared))
                .expect("spawn worker")
        })
        .collect();
    while !shared.stopping() {
        match listener.accept() {
            Ok((stream, _)) => {
                let accepted_at = Instant::now();
                // The serve_accept fault point models a transient accept
                // failure: the connection is dropped, nothing is queued.
                if faultpoint::fire("serve_accept", "accept").is_err() {
                    shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                if q.len() >= shared.queue_depth {
                    drop(q);
                    shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
                    let mut stream = stream;
                    // Read the request head first (bounded): closing with
                    // the request still unread would RST the connection
                    // and eat the 503 before the client can see it.
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
                    let _ = http::Request::read(&mut stream);
                    let stream = &mut BufWriter::new(&stream);
                    http::respond_503(stream, "queue full, retry later\n", Some(1));
                } else {
                    q.push_back((stream, accepted_at));
                    drop(q);
                    shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
                    shared.queue_cv.notify_one();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                poll::wait_for_connection(listener, STOP_POLL);
            }
            Err(e) => {
                eprintln!("serve: accept error: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    // Drain: refuse new work, cancel running jobs at their next stage
    // boundary, let workers finish writing responses. An injected
    // serve_drain fault must never prevent the drain itself.
    if let Err(e) = faultpoint::fire("serve_drain", "drain") {
        eprintln!("serve: drain fault injected (continuing drain): {e}");
    }
    shared.draining.store(true, Ordering::SeqCst);
    shared.drain.cancel();
    shared.queue_cv.notify_all();
    for w in pool {
        let _ = w.join();
    }
    let cache_valid = shared.cache.validate_all().is_ok();
    DrainSummary {
        accepted: shared.counters.accepted.load(Ordering::Relaxed),
        completed: shared.counters.completed.load(Ordering::Relaxed),
        failed: shared.counters.failed.load(Ordering::Relaxed),
        rejected: shared.counters.rejected.load(Ordering::Relaxed),
        refused_draining: shared.counters.refused_draining.load(Ordering::Relaxed),
        cache: shared.cache.stats(),
        cache_valid,
    }
}

/// One worker: pops queued connections and serves them until drained.
fn worker_main(shared: &Shared) {
    loop {
        let stream = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(s) = q.pop_front() {
                    break Some(s);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
        };
        let Some((stream, accepted_at)) = stream else {
            return;
        };
        let waited = micros_since(accepted_at);
        let c = &shared.counters;
        c.queue_wait_us_max.fetch_max(waited, Ordering::Relaxed);
        c.queue_wait_us_sum.fetch_add(waited, Ordering::Relaxed);
        if shared.draining.load(Ordering::SeqCst) {
            c.refused_draining.fetch_add(1, Ordering::Relaxed);
            http::respond_503(&mut BufWriter::new(&stream), "draining\n", None);
            continue;
        }
        // Per-connection panic isolation: a panic (chaos poison escaping
        // past the flow's own catch_unwind, or a daemon bug) kills this
        // job only — the connection drops, the worker lives on.
        let outcome = catch_unwind(AssertUnwindSafe(|| handle_conn(shared, &stream)));
        match outcome {
            Ok(Fate::Completed) => {
                c.completed.fetch_add(1, Ordering::Relaxed);
            }
            Ok(Fate::Failed) | Err(_) => {
                c.failed.fetch_add(1, Ordering::Relaxed);
            }
            Ok(Fate::Control) => {}
        }
    }
}

/// How a connection ended, for the daemon's counters.
enum Fate {
    /// A job ran to a result.
    Completed,
    /// A job errored (deadline, cancellation, panic, bad request).
    Failed,
    /// A non-job endpoint (health, stats, shutdown, 404).
    Control,
}

/// Serves one connection. Every answer goes through one buffered
/// writer: a control endpoint's whole response leaves in one write, and
/// `/job` and `/matrix` write at their flush points only (see
/// [`handle_job`]).
fn handle_conn(shared: &Shared, mut stream: &TcpStream) -> Fate {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let req = Request::read(&mut stream);
    let stream = &mut BufWriter::new(stream);
    let req = match req {
        Ok(req) => req,
        Err(e) => {
            http::respond_400(stream, &format!("bad request: {e}\n"));
            return Fate::Failed;
        }
    };
    let fate = match req.path.as_str() {
        "/healthz" => {
            http::respond_200(stream, "ok\n");
            Fate::Control
        }
        "/stats" => {
            let c = &shared.counters;
            let body = format!(
                "accepted={} completed={} failed={} rejected={} refused_draining={} workers={} \
                 queue_wait_us_max={} queue_wait_us_sum={} service_us_max={} \
                 service_us_sum={}\ncache {}\n",
                c.accepted.load(Ordering::Relaxed),
                c.completed.load(Ordering::Relaxed),
                c.failed.load(Ordering::Relaxed),
                c.rejected.load(Ordering::Relaxed),
                c.refused_draining.load(Ordering::Relaxed),
                shared.workers,
                c.queue_wait_us_max.load(Ordering::Relaxed),
                c.queue_wait_us_sum.load(Ordering::Relaxed),
                c.service_us_max.load(Ordering::Relaxed),
                c.service_us_sum.load(Ordering::Relaxed),
                shared.cache.stats(),
            );
            http::respond_200(stream, &body);
            Fate::Control
        }
        "/shutdown" => {
            shared.stop.store(true, Ordering::SeqCst);
            shared.queue_cv.notify_all();
            http::respond_200(stream, "draining\n");
            Fate::Control
        }
        "/job" => handle_job(shared, stream, &req.query),
        "/matrix" => handle_matrix(shared, stream, &req.query),
        other => {
            http::respond_404(stream, &format!("no such endpoint {other}\n"));
            Fate::Control
        }
    };
    // The last write: a job's or a matrix's closing lines. A panic that
    // unwinds past here flushes them as the writer drops.
    let _ = stream.flush();
    fate
}

fn parse_params(q: &Query) -> Result<DesignParams, String> {
    let name = q.get("params").unwrap_or("tiny");
    DesignParams::by_name(name).ok_or_else(|| {
        format!(
            "unknown params {name:?} ({})",
            DesignParams::PRESETS.join("|")
        )
    })
}

fn parse_job(shared: &Shared, q: &Query) -> Result<ServiceJob, String> {
    let design_key = q.get("design").ok_or("missing design")?;
    let design = *NamedDesign::ALL
        .iter()
        .find(|d| d.key() == design_key)
        .ok_or_else(|| format!("unknown design {design_key:?}"))?;
    let arch_name = q.get("arch").ok_or("missing arch")?;
    let arch = arch_by_name(arch_name).ok_or_else(|| format!("unknown arch {arch_name:?}"))?;
    let variant = match q.get("variant").ok_or("missing variant")? {
        "a" => FlowVariant::A,
        "b" => FlowVariant::B,
        other => return Err(format!("unknown variant {other:?} (a|b)")),
    };
    let params = parse_params(q)?;
    let mut config = FlowConfig {
        cancel: shared.drain.clone(),
        ..FlowConfig::default()
    };
    if let Some(ms) = q.get("deadline_ms") {
        let ms: u64 = ms.parse().map_err(|_| format!("bad deadline_ms {ms:?}"))?;
        config.deadline = Some(Duration::from_millis(ms));
    }
    Ok(ServiceJob {
        design,
        arch,
        variant,
        params,
        config,
    })
}

/// Runs one `/job` and streams its progress. The status line is flushed
/// on admission and each `stage` line as it is written, before a chaos
/// stall; the `front`/`result` lines and the closing lines wait for the
/// next flush, so a warm hit answers in two writes: the head, and the
/// rest when [`handle_conn`] flushes.
fn handle_job(shared: &Shared, stream: &mut BufWriter<&TcpStream>, query: &str) -> Fate {
    let q = Query::parse(query);
    let job = match parse_job(shared, &q) {
        Ok(job) => job,
        Err(e) => {
            http::respond_400(stream, &format!("{e}\n"));
            return Fate::Failed;
        }
    };
    let poison = if shared.chaos { q.get("poison") } else { None };
    let stall = if shared.chaos {
        q.get("stall_ms").and_then(|s| s.parse::<u64>().ok())
    } else {
        None
    };
    http::head_200(stream);
    let mut stalled = false;
    let started = Instant::now();
    let outcome = shared.flow.run_job(&job, &mut |e| match e {
        JobEvent::Stage {
            stage,
            wall,
            cells,
            nets,
        } => {
            let _ = writeln!(
                stream,
                "stage {stage} wall_ms={} cells={cells} nets={nets}",
                wall.as_millis()
            );
            let _ = stream.flush();
            if let Some(ms) = stall {
                if !stalled {
                    stalled = true;
                    std::thread::sleep(Duration::from_millis(ms));
                }
            }
            if poison == Some(stage.name()) {
                panic!("chaos poison at {stage}");
            }
        }
        JobEvent::Front { hit } => {
            let _ = writeln!(stream, "front hit={hit}");
        }
        JobEvent::Result { hit } => {
            let _ = writeln!(stream, "result hit={hit}");
            if poison == Some("result") {
                panic!("chaos poison at result");
            }
        }
    });
    let service = micros_since(started);
    let c = &shared.counters;
    c.service_us_max.fetch_max(service, Ordering::Relaxed);
    c.service_us_sum.fetch_add(service, Ordering::Relaxed);
    match outcome {
        Ok(out) => {
            let _ = writeln!(stream, "fingerprint {:#018x}", out.fingerprint());
            let _ = writeln!(
                stream,
                "done design={} arch={} variant={} front_hit={} result_hit={}",
                out.design_key,
                out.arch,
                job.variant.key(),
                out.front_cache_hit,
                out.result_cache_hit
            );
            Fate::Completed
        }
        Err(e) => {
            let _ = writeln!(stream, "error {e}");
            Fate::Failed
        }
    }
}

/// Runs the 16-cell matrix: the status line is flushed on admission and
/// each `cell` line as its cell finishes.
fn handle_matrix(shared: &Shared, stream: &mut BufWriter<&TcpStream>, query: &str) -> Fate {
    let q = Query::parse(query);
    let params = match parse_params(&q) {
        Ok(p) => p,
        Err(e) => {
            http::respond_400(stream, &format!("{e}\n"));
            return Fate::Failed;
        }
    };
    http::head_200(stream);
    let mut outcomes = Vec::new();
    let mut hits = 0usize;
    let jobs = MatrixRun::default().flow_matrix();
    let total = jobs.jobs().len() * 2;
    for job in jobs.jobs() {
        let job = ServiceJob {
            design: job.design,
            arch: job.arch.clone(),
            variant: job.variant,
            params: params.clone(),
            config: FlowConfig {
                cancel: shared.drain.clone(),
                ..FlowConfig::default()
            },
        };
        match shared.flow.run_job(&job, &mut |_| {}) {
            Ok(out) => {
                hits += usize::from(out.front_cache_hit) + usize::from(out.result_cache_hit);
                let _ = writeln!(
                    stream,
                    "cell {}/{}/{} fingerprint={:#018x} front_hit={} result_hit={}",
                    out.design_key,
                    out.arch,
                    job.variant.key(),
                    out.fingerprint(),
                    out.front_cache_hit,
                    out.result_cache_hit
                );
                let _ = stream.flush();
                outcomes.push(out);
            }
            Err(e) => {
                let _ = writeln!(stream, "error {} {e}", job.ctx());
                return Fate::Failed;
            }
        }
    }
    let matrix = Matrix::from_outcomes(pair_outcomes(&outcomes));
    let _ = writeln!(stream, "cache hits={hits}/{total}");
    let _ = writeln!(stream, "matrix fingerprint: {:#018x}", matrix.fingerprint());
    Fate::Completed
}

#[cfg(test)]
mod tests {
    use std::num::NonZeroUsize;

    #[test]
    fn the_default_pool_is_one_worker_per_cpu_within_its_bounds() {
        // An unknown CPU count (`None`, here from 0) counts as one CPU.
        let pool = |cpus| super::default_workers(NonZeroUsize::new(cpus));
        let pools = [0, 1, 2, 3, 4, 5, 64].map(pool);
        assert_eq!(pools, [2, 2, 2, 3, 4, 4, 4]);
    }
}
