//! The serve workload: a warm in-process daemon answering closed-loop
//! clients from its artifact cache.
//!
//! Set-up spawns the daemon and requests each of the 32 `/job` keys once,
//! so the cold computes and cache publishes land in `setup_s`. The timed
//! phase then sends seeded Zipf-distributed requests over those keys from
//! two closed-loop clients (callers of `vpga submit` wait for their
//! reply); every one is a cache hit, so no flow stage runs while timed.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use vpga::core::PlbArchitecture;
use vpga::designs::{DesignParams, NamedDesign};
use vpga::flow::{run_design, CachedFlow, DesignOutcome, FlowConfig, FlowVariant, ServiceJob};
use vpga::serve::{get, spawn, DaemonConfig, DaemonHandle};

use crate::input::Rng;
use crate::layers::{print_shares, stage_metrics};
use crate::report::{median, peak_rss_mb, percentile, ratio, Outcome};
use crate::trace::Tracer;
use crate::Args;

/// Daemon set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Closed-loop clients in the timed phase.
const CLIENTS: usize = 2;
/// Requests each client sends per round; `flow_wall_s` is the median
/// round wall.
const ROUND_REQUESTS: usize = 500;
/// Zipf exponent of the key popularity.
const ZIPF_S: f64 = 1.0;
/// Draws the fixed popularity order of the keys.
const RANK_ORDER_SEED: u64 = 2004;

/// One `/job` key.
struct Key {
    design: NamedDesign,
    arch: fn() -> PlbArchitecture,
    variant: FlowVariant,
    size: &'static str,
    /// `design/arch/variant/size`, for messages and spans.
    label: String,
    /// The request path, built once so the timed phase does not.
    path: String,
}

/// 4 designs × 2 architectures × 2 variants × {tiny, small}.
fn keys() -> Vec<Key> {
    let mut keys = Vec::new();
    for size in ["tiny", "small"] {
        for design in NamedDesign::ALL {
            for arch in [
                PlbArchitecture::granular as fn() -> _,
                PlbArchitecture::lut_based,
            ] {
                for variant in [FlowVariant::A, FlowVariant::B] {
                    let (d, a, v) = (design.key(), arch().name().to_owned(), variant.key());
                    keys.push(Key {
                        design,
                        arch,
                        variant,
                        size,
                        label: format!("{d}/{a}/{v}/{size}"),
                        path: format!("/job?design={d}&arch={a}&variant={v}&params={size}"),
                    });
                }
            }
        }
    }
    keys
}

impl Key {
    fn params(&self) -> DesignParams {
        if self.size == "tiny" {
            DesignParams::tiny()
        } else {
            DesignParams::small()
        }
    }

    fn job(&self) -> ServiceJob {
        ServiceJob {
            design: self.design,
            arch: (self.arch)(),
            variant: self.variant,
            params: self.params(),
            config: FlowConfig::default(),
        }
    }
}

/// What one `/job` response said.
#[derive(Default)]
struct Reply {
    status: u16,
    fingerprint: Option<u64>,
    front_hit: bool,
    result_hit: bool,
    stage_lines: usize,
    error: Option<String>,
}

impl Reply {
    fn ok(&self) -> bool {
        self.status == 200 && self.error.is_none() && self.fingerprint.is_some()
    }
}

fn request(addr: SocketAddr, path: &str) -> Reply {
    let (status, body) = match get(addr, path) {
        Ok(r) => r,
        Err(e) => {
            return Reply {
                error: Some(e.to_string()),
                ..Reply::default()
            }
        }
    };
    let mut reply = Reply {
        status,
        ..Reply::default()
    };
    for line in body.lines() {
        if line.starts_with("stage ") {
            reply.stage_lines += 1;
        } else if let Some(hex) = line.strip_prefix("fingerprint 0x") {
            reply.fingerprint = u64::from_str_radix(hex.trim(), 16).ok();
        } else if let Some(e) = line.strip_prefix("error ") {
            reply.error = Some(e.to_owned());
        }
        reply.front_hit |= line == "front hit=true";
        reply.result_hit |= line == "result hit=true";
    }
    reply
}

/// The daemon's `/stats` counters by name. Unknown keys are kept and
/// ignored; a `used/budget` value reads as its first number.
fn stats(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let (status, body) = get(addr, "/stats").map_err(|e| format!("/stats: {e}"))?;
    if status != 200 {
        return Err(format!("/stats answered {status}"));
    }
    Ok(body
        .split_whitespace()
        .filter_map(|token| {
            let (key, value) = token.split_once('=')?;
            let number = value.split('/').next()?.parse().ok()?;
            Some((key.to_owned(), number))
        })
        .collect())
}

/// Zipf popularity over the keys.
struct Zipf {
    cdf: Vec<f64>,
    key_of_rank: Vec<usize>,
}

impl Zipf {
    /// The rank order is part of the workload, not of the seed: which key
    /// ranks first sets how much service work the hot set costs, and a
    /// seeded order moved the latency tail with the seed.
    fn new(n: usize) -> Zipf {
        let mut key_of_rank: Vec<usize> = (0..n).collect();
        Rng::new(RANK_ORDER_SEED).shuffle(&mut key_of_rank);
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf, key_of_rank }
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c <= u);
        self.key_of_rank[rank.min(self.cdf.len() - 1)]
    }
}

/// Spawns a daemon and requests every key once. Returns the daemon and
/// the fingerprint each key answered.
fn warm_up(
    keys: &[Key],
    tracer: &mut Tracer,
    parent: u64,
) -> Result<(DaemonHandle, Vec<u64>), String> {
    let start = tracer.now();
    let daemon = spawn(DaemonConfig::default()).map_err(|e| format!("spawn: {e}"))?;
    tracer.span(parent, "serve::spawn", "", start, tracer.now(), vec![]);
    let mut fingerprints = Vec::new();
    for key in keys {
        let start = tracer.now();
        let reply = request(daemon.addr(), &key.path);
        let counts = vec![("stage_runs", reply.stage_lines as u64)];
        tracer.span(
            parent,
            "serve::get",
            &key.label,
            start,
            tracer.now(),
            counts,
        );
        match reply.fingerprint.filter(|_| reply.ok()) {
            Some(fp) => fingerprints.push(fp),
            None => {
                daemon.shutdown();
                daemon.join();
                return Err(format!(
                    "warm-up {}: status {} {}",
                    key.label,
                    reply.status,
                    reply.error.unwrap_or_default()
                ));
            }
        }
    }
    Ok((daemon, fingerprints))
}

/// One timed request.
struct Sample {
    key: usize,
    start: f64,
    ms: f64,
    reply: Reply,
}

/// One round: every client sends its requests back to back. Returns the
/// samples in (client, order) order.
fn round(
    addr: SocketAddr,
    keys: &[Key],
    zipf: &Zipf,
    seed: u64,
    index: u64,
    origin: Instant,
) -> Vec<Sample> {
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS as u64)
            .map(|client| {
                scope.spawn(move || {
                    let mut rng = Rng::new(seed ^ (index << 32) ^ (client << 48) ^ 0xc11e_0000);
                    (0..ROUND_REQUESTS)
                        .map(|_| {
                            let key = zipf.draw(&mut rng);
                            let t = Instant::now();
                            let reply = request(addr, &keys[key].path);
                            Sample {
                                key,
                                start: t.duration_since(origin).as_secs_f64(),
                                ms: t.elapsed().as_secs_f64() * 1e3,
                                reply,
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client threads do not panic"))
            .collect()
    })
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(args.trace);
    let root = tracer.open(0, "run", args.workload);
    let keys = keys();
    let Some((daemon, fingerprints, setup_walls)) =
        set_up(&keys, args, &mut out, &mut tracer, root)
    else {
        return out;
    };
    let phase = timed_phase(daemon.addr(), &keys, args, &mut tracer, root);
    out.attempted = phase.samples.len() as u64;
    for s in &phase.samples {
        if !s.reply.ok() {
            out.failed += 1;
            out.problems.push(format!(
                "{}: status {} {}",
                keys[s.key].label,
                s.reply.status,
                s.reply.error.as_deref().unwrap_or("")
            ));
        } else if s.reply.fingerprint != Some(fingerprints[s.key]) {
            out.problems.push(format!(
                "{}: served a different fingerprint than at warm-up",
                keys[s.key].label
            ));
        }
    }
    let show = |walls: &[f64]| -> String {
        let w: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
        w.join(", ")
    };
    println!(
        "set-up walls s=[{}] round walls s=[{}]",
        show(&setup_walls),
        show(&phase.round_walls)
    );
    println!(
        "rounds={} requests={} beyond each round's p99={} timed-phase stage runs={}",
        phase.round_walls.len(),
        phase.samples.len(),
        CLIENTS * ROUND_REQUESTS / 100,
        phase
            .samples
            .iter()
            .map(|s| s.reply.stage_lines)
            .sum::<usize>()
    );

    let flow = CachedFlow::with_cache(daemon.cache());
    if args.trace {
        match stats(daemon.addr()) {
            Ok(st) => {
                let stat = |k: &str| st.get(k).copied().unwrap_or(0.0);
                out.set("cache.bytes", stat("bytes"));
                out.set("cache.misses", stat("misses"));
                out.set("cache.waits", stat("waits"));
                out.set("serve.rejected", stat("rejected"));
            }
            Err(e) => out.problems.push(e),
        }
        traced_metrics(
            &mut out,
            &flow,
            &keys,
            &fingerprints,
            &phase,
            &mut tracer,
            root,
        );
    } else {
        out.set("setup_s", median(&setup_walls));
        out.set("flow_wall_s", median(&phase.round_walls));
        out.set(
            "jobs_per_s",
            phase.samples.len() as f64 / phase.round_walls.iter().sum::<f64>(),
        );
        out.set("job_p50_ms", phase.latency(50.0));
        quality_metrics(&mut out, &flow, &keys, &fingerprints);
    }

    daemon.shutdown();
    let drained = daemon.join();
    out.check(drained.cache_valid, || {
        format!("cache invalid after drain: {drained}")
    });
    out.set("peak_rss_mb", peak_rss_mb());
    if args.trace {
        if let Err(e) = tracer.save(root, &args.trace_path()) {
            out.problems.push(e);
        }
    }
    out
}

/// Sets up a fresh daemon, warmed cold, `SETUP_REPEATS` times (once when
/// traced) and keeps the last one for the timed phase. Returns it with
/// each key's fingerprint and the wall of every set-up, s.
fn set_up(
    keys: &[Key],
    args: &Args,
    out: &mut Outcome,
    tracer: &mut Tracer,
    root: u64,
) -> Option<(DaemonHandle, Vec<u64>, Vec<f64>)> {
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut walls = Vec::new();
    let mut warm: Option<(DaemonHandle, Vec<u64>)> = None;
    for _ in 0..repeats {
        // Stop the previous daemon first, so it idles through no set-up.
        let previous = warm.take().map(|(daemon, fps)| {
            daemon.shutdown();
            daemon.join();
            fps
        });
        let setup = tracer.open(root, "setup", args.workload);
        let start = Instant::now();
        let result = warm_up(keys, tracer, setup);
        walls.push(start.elapsed().as_secs_f64());
        tracer.close(setup);
        match result {
            Ok((daemon, fps)) => {
                out.check(previous.is_none_or(|p| p == fps), || {
                    "warm-up fingerprints differ between daemons".to_owned()
                });
                warm = Some((daemon, fps));
            }
            Err(e) => {
                out.problems.push(e);
                return None;
            }
        }
    }
    warm.map(|(daemon, fps)| (daemon, fps, walls))
}

/// The timed requests, in (round, client, order) order.
struct Phase {
    samples: Vec<Sample>,
    round_walls: Vec<f64>,
}

impl Phase {
    /// A latency percentile, ms, taken per round (ten requests lie beyond
    /// each round's p99) and reported as its median over rounds, so one
    /// round caught in a burst of host load does not set the run's figure.
    fn latency(&self, p: f64) -> f64 {
        let of_rounds: Vec<f64> = self
            .samples
            .chunks(CLIENTS * ROUND_REQUESTS)
            .map(|round| percentile(&round.iter().map(|s| s.ms).collect::<Vec<_>>(), p))
            .collect();
        median(&of_rounds)
    }
}

/// Runs rounds until the run's time is used.
fn timed_phase(
    addr: SocketAddr,
    keys: &[Key],
    args: &Args,
    tracer: &mut Tracer,
    root: u64,
) -> Phase {
    let zipf = Zipf::new(keys.len());
    let budget = Duration::from_secs(args.seconds);
    let began = Instant::now();
    let mut phase = Phase {
        samples: Vec::new(),
        round_walls: Vec::new(),
    };
    for index in 0.. {
        let span = tracer.open(root, "round", args.workload);
        let start = Instant::now();
        let batch = round(addr, keys, &zipf, args.seed, index, tracer.origin());
        phase.round_walls.push(start.elapsed().as_secs_f64());
        tracer.close(span);
        for s in &batch {
            let job = format!("{} {}", keys[s.key].label, s.reply.status);
            let counts = vec![("stage_runs", s.reply.stage_lines as u64)];
            let end = s.start + s.ms / 1e3;
            tracer.span(span, "serve::get", &job, s.start, end, counts);
        }
        phase.samples.extend(batch);
        if began.elapsed() >= budget {
            break;
        }
    }
    phase
}

/// Die area and slack of everything the daemon serves, read in-process
/// from its cache after the timed phase.
fn quality_metrics(out: &mut Outcome, flow: &CachedFlow, keys: &[Key], fingerprints: &[u64]) {
    for (variant, area, slack) in [
        (FlowVariant::A, "die_area_a_mm2", "top10_neg_slack_a_ps"),
        (FlowVariant::B, "die_area_b_mm2", "top10_neg_slack_b_ps"),
    ] {
        let (mut area_sum, mut slack_sum, mut n) = (0.0, 0.0, 0.0);
        for (key, &fp) in keys.iter().zip(fingerprints) {
            if key.variant != variant {
                continue;
            }
            match flow.run_job(&key.job(), &mut |_| {}) {
                Ok(o) => {
                    out.check(o.fingerprint() == fp, || {
                        format!("{}: cached result differs from the served one", key.label)
                    });
                    area_sum += o.result.die_area;
                    slack_sum -= o.result.avg_top10_slack;
                    n += 1.0;
                }
                Err(e) => out.problems.push(format!("{}: {e}", key.label)),
            }
        }
        out.set(area, area_sum / 1e6);
        out.set(slack, ratio(slack_sum, n));
    }
}

/// The traced run's per-layer metrics: cache behaviour, the split of a
/// request between the service and the daemon, and the stage work of the
/// warm-up.
fn traced_metrics(
    out: &mut Outcome,
    flow: &CachedFlow,
    keys: &[Key],
    fingerprints: &[u64],
    phase: &Phase,
    tracer: &mut Tracer,
    root: u64,
) {
    out.set("trace.flow_wall_s", median(&phase.round_walls));
    for name in ["setup.generate_s", "setup.verilog_s", "setup.arch_s"] {
        out.set(name, 0.0);
    }
    let samples = &phase.samples;
    let hits = |f: fn(&Reply) -> bool| {
        ratio(
            samples.iter().filter(|s| f(&s.reply)).count() as f64,
            samples.len() as f64,
        )
    };
    out.set("cache.result_hit_ratio", hits(|r| r.result_hit));
    out.set("cache.front_hit_ratio", hits(|r| r.front_hit));
    out.set("serve.request_ms_p50", phase.latency(50.0));
    out.set("serve.request_ms_p99", phase.latency(99.0));

    // The same request stream in-process, without HTTP: the service's own
    // share of each request.
    let jobs: Vec<ServiceJob> = keys.iter().map(Key::job).collect();
    let mut self_ms = Vec::new();
    let mut service_ms = Vec::new();
    for s in samples {
        let key = &keys[s.key];
        let start = tracer.now();
        let result = flow.run_job(&jobs[s.key], &mut |_| {});
        let end = tracer.now();
        tracer.span(
            root,
            "flow::CachedFlow::run_job",
            &key.label,
            start,
            end,
            vec![],
        );
        service_ms.push((end - start) * 1e3);
        self_ms.push(s.ms - (end - start) * 1e3);
        if !matches!(&result, Ok(o) if o.fingerprint() == fingerprints[s.key]) {
            out.problems.push(format!("{}: replay differs", key.label));
        }
    }
    out.set("service.hit_ms_p50", percentile(&service_ms, 50.0));
    out.set("serve.self_ms_p50", percentile(&self_ms, 50.0));

    let reference = batch_reference(out, keys, fingerprints, tracer, root);
    let cells: Vec<(f64, &DesignOutcome)> = reference.iter().map(|(w, o)| (*w, o)).collect();
    stage_metrics(out, &cells);
    println!("warm-up work, measured on the batch reference:");
    print_shares(out);
}

/// Runs the batch flow on every (design, arch, size) the keys cover and
/// checks each served fingerprint against it. Returns each call's wall
/// and outcome.
fn batch_reference(
    out: &mut Outcome,
    keys: &[Key],
    fingerprints: &[u64],
    tracer: &mut Tracer,
    parent: u64,
) -> Vec<(f64, DesignOutcome)> {
    let mut reference = Vec::new();
    for (pair, key) in keys.iter().enumerate().step_by(2) {
        let design = key.design.generate(&key.params());
        let arch = (key.arch)();
        let job = format!("{}/{}/{}", key.design.key(), arch.name(), key.size);
        let start = tracer.now();
        let result = run_design(&design, &arch, &FlowConfig::default());
        let end = tracer.now();
        let id = tracer.span(parent, "flow::run_design", &job, start, end, vec![]);
        match result {
            Ok(o) => {
                tracer.stages(id, &job, start, &o);
                out.check(
                    o.flow_a.fingerprint() == fingerprints[pair]
                        && o.flow_b.fingerprint() == fingerprints[pair + 1],
                    || format!("{job}: served fingerprints differ from the batch flow"),
                );
                reference.push((end - start, o));
            }
            Err(e) => out.problems.push(format!("{job}: {e}")),
        }
    }
    reference
}
