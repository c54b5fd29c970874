//! The serve load harness (`vpga serve-bench`): hammer an in-process
//! daemon with a mixed stream of cache-hit / cache-miss / zero-deadline /
//! chaos-poisoned jobs over real HTTP connections, and assert that every
//! published fingerprint is bit-identical to the batch-mode reference
//! computed with [`vpga_flow::run_design`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use vpga_core::PlbArchitecture;
use vpga_designs::{DesignParams, NamedDesign};
use vpga_flow::{run_design, FlowConfig, FlowVariant};

use crate::{client, spawn, DaemonConfig, DrainSummary};

/// Load-harness knobs; [`BenchConfig::default`] holds the ones `vpga
/// serve-bench` runs without flags.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchConfig {
    /// Total jobs to submit.
    pub jobs: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Daemon cache byte budget (small budgets force eviction churn).
    pub cache_budget: usize,
    /// How many of the four designs to mix in (1–4); fewer designs keep
    /// the batch reference cheap for debug-mode test runs.
    pub designs: usize,
}

impl Default for BenchConfig {
    fn default() -> BenchConfig {
        BenchConfig {
            jobs: 1000,
            clients: 8,
            cache_budget: 512 << 10,
            designs: 4,
        }
    }
}

/// What the harness observed.
#[derive(Clone, Copy, Debug)]
pub struct BenchReport {
    /// Jobs submitted.
    pub jobs: u64,
    /// Normal jobs that returned a fingerprint.
    pub completed: u64,
    /// Fingerprints that did NOT match the batch reference (must be 0).
    pub mismatched: u64,
    /// Zero-deadline jobs correctly rejected before stage 1.
    pub deadline_failed: u64,
    /// Poisoned jobs that errored or dropped (claim abandoned).
    pub poison_failed: u64,
    /// Poisoned jobs served from cache before the poison could fire
    /// (hits skip stages, so the chaos callback never runs).
    pub poison_survived: u64,
    /// 503 admission rejections that were retried.
    pub retried: u64,
    /// Responses that fit no expected shape (must be 0).
    pub unexpected: u64,
    /// The daemon's drain summary.
    pub drain: DrainSummary,
}

impl BenchReport {
    /// Checks every hard invariant the load test asserts: bit-identical
    /// fingerprints, zero unexplained responses, every zero-deadline job
    /// failed fast, a valid cache after drain, and bounded memory.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant.
    pub fn verify(&self, cache_budget: usize) -> Result<(), String> {
        if self.mismatched != 0 {
            return Err(format!(
                "{} fingerprints diverged from the batch reference",
                self.mismatched
            ));
        }
        if self.unexpected != 0 {
            return Err(format!(
                "{} responses fit no expected shape",
                self.unexpected
            ));
        }
        if !self.drain.cache_valid {
            return Err("cache failed post-drain validation".to_owned());
        }
        let c = self.drain.cache;
        if c.bytes > cache_budget && c.entries > 1 {
            return Err(format!(
                "cache over budget after drain: {} bytes across {} entries (budget {})",
                c.bytes, c.entries, cache_budget
            ));
        }
        let accounted =
            self.completed + self.deadline_failed + self.poison_failed + self.poison_survived;
        if accounted != self.jobs {
            return Err(format!(
                "job accounting leak: {accounted} of {} jobs accounted for",
                self.jobs
            ));
        }
        Ok(())
    }
}

impl std::fmt::Display for BenchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "serve-bench: {} jobs — {} completed, {} deadline-failed, \
             {} poisoned-failed, {} poisoned-survived, {} retried-503, \
             {} mismatched, {} unexpected",
            self.jobs,
            self.completed,
            self.deadline_failed,
            self.poison_failed,
            self.poison_survived,
            self.retried,
            self.mismatched,
            self.unexpected
        )?;
        write!(f, "{}", self.drain)
    }
}

struct Tally {
    completed: AtomicU64,
    mismatched: AtomicU64,
    deadline_failed: AtomicU64,
    poison_failed: AtomicU64,
    poison_survived: AtomicU64,
    retried: AtomicU64,
    unexpected: AtomicU64,
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Normal,
    Deadline,
    Poison,
}

/// Installs (once) a panic hook that silences the *expected* chaos-poison
/// panics the harness injects — the worker-side `catch_unwind` already
/// contains them; this only stops the default hook from spamming a
/// backtrace per poisoned job. Every other panic delegates to the
/// previous hook unchanged.
fn silence_chaos_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| info.payload().downcast_ref::<String>().map(|s| s.as_str()));
            if !msg.is_some_and(|m| m.starts_with("chaos poison")) {
                prev(info);
            }
        }));
    });
}

/// Runs the harness end to end: batch reference, daemon, client fleet,
/// graceful drain.
///
/// # Errors
///
/// An infrastructure failure (bind, thread spawn) — *not* an invariant
/// violation; call [`BenchReport::verify`] for those.
pub fn run_bench(config: &BenchConfig) -> Result<BenchReport, String> {
    silence_chaos_panics();
    let designs: Vec<NamedDesign> = NamedDesign::ALL
        .iter()
        .copied()
        .take(config.designs.clamp(1, NamedDesign::ALL.len()))
        .collect();
    let archs = [PlbArchitecture::granular(), PlbArchitecture::lut_based()];
    // Batch-mode reference fingerprints, computed without any cache.
    let mut reference: HashMap<(&'static str, String, FlowVariant), u64> = HashMap::new();
    for &design in &designs {
        let netlist = design.generate(&DesignParams::tiny());
        for arch in &archs {
            let out = run_design(&netlist, arch, &FlowConfig::default())
                .map_err(|e| format!("batch reference {}/{}: {e}", design.key(), arch.name()))?;
            reference.insert(
                (design.key(), arch.name().to_owned(), FlowVariant::A),
                out.flow_a.fingerprint(),
            );
            reference.insert(
                (design.key(), arch.name().to_owned(), FlowVariant::B),
                out.flow_b.fingerprint(),
            );
        }
    }
    let handle = spawn(DaemonConfig {
        listen: "127.0.0.1:0".to_owned(),
        workers: config.clients.clamp(2, 8),
        queue_depth: 16,
        cache_budget: config.cache_budget,
        checkpoint_dir: None,
        chaos: true,
    })
    .map_err(|e| format!("daemon spawn: {e}"))?;
    let addr = handle.addr();
    let tally = Arc::new(Tally {
        completed: AtomicU64::new(0),
        mismatched: AtomicU64::new(0),
        deadline_failed: AtomicU64::new(0),
        poison_failed: AtomicU64::new(0),
        poison_survived: AtomicU64::new(0),
        retried: AtomicU64::new(0),
        unexpected: AtomicU64::new(0),
    });
    let reference = Arc::new(reference);
    let clients: Vec<_> = (0..config.clients.max(1))
        .map(|tid| {
            let tally = Arc::clone(&tally);
            let reference = Arc::clone(&reference);
            let designs = designs.clone();
            let arch_names: Vec<String> = archs.iter().map(|a| a.name().to_owned()).collect();
            let (jobs, stride) = (config.jobs, config.clients.max(1));
            std::thread::spawn(move || {
                for i in (tid..jobs).step_by(stride) {
                    let design = designs[i % designs.len()];
                    let arch = &arch_names[(i / designs.len()) % 2];
                    let variant = if (i / (designs.len() * 2)).is_multiple_of(2) {
                        FlowVariant::A
                    } else {
                        FlowVariant::B
                    };
                    let mut path = format!(
                        "/job?design={}&arch={arch}&variant={}&params=tiny",
                        design.key(),
                        variant.key()
                    );
                    let kind = if i % 11 == 0 {
                        path.push_str("&deadline_ms=0");
                        Kind::Deadline
                    } else if i % 13 == 5 {
                        path.push_str("&poison=place");
                        Kind::Poison
                    } else if i % 17 == 9 {
                        path.push_str("&poison=result");
                        Kind::Poison
                    } else {
                        Kind::Normal
                    };
                    let response = loop {
                        match client::get(addr, &path) {
                            Ok((503, _)) => {
                                tally.retried.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(Duration::from_millis(10));
                            }
                            other => break other,
                        }
                    };
                    let expected = reference[&(design.key(), arch.clone(), variant)];
                    classify(&tally, kind, expected, &response);
                }
            })
        })
        .collect();
    for c in clients {
        c.join().map_err(|_| "client thread panicked".to_owned())?;
    }
    handle.shutdown();
    let drain = handle.join();
    Ok(BenchReport {
        jobs: config.jobs as u64,
        completed: tally.completed.load(Ordering::Relaxed),
        mismatched: tally.mismatched.load(Ordering::Relaxed),
        deadline_failed: tally.deadline_failed.load(Ordering::Relaxed),
        poison_failed: tally.poison_failed.load(Ordering::Relaxed),
        poison_survived: tally.poison_survived.load(Ordering::Relaxed),
        retried: tally.retried.load(Ordering::Relaxed),
        unexpected: tally.unexpected.load(Ordering::Relaxed),
        drain,
    })
}

/// Files one response under the right counter, checking fingerprints
/// against the batch reference wherever one was published.
fn classify(
    tally: &Tally,
    kind: Kind,
    expected: u64,
    response: &Result<(u16, String), std::io::Error>,
) {
    let fingerprint = |body: &str| {
        body.lines()
            .find_map(|l| l.strip_prefix("fingerprint 0x"))
            .and_then(|hex| u64::from_str_radix(hex.trim(), 16).ok())
    };
    match (kind, response) {
        (Kind::Normal, Ok((200, body))) => match fingerprint(body) {
            Some(fp) if fp == expected => {
                tally.completed.fetch_add(1, Ordering::Relaxed);
            }
            Some(_) => {
                tally.mismatched.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                tally.unexpected.fetch_add(1, Ordering::Relaxed);
            }
        },
        // A zero deadline must fail fast: an error line, no fingerprint,
        // no stage lines.
        (Kind::Deadline, Ok((200, body)))
            if body.contains("error ")
                && fingerprint(body).is_none()
                && !body.contains("stage ") =>
        {
            tally.deadline_failed.fetch_add(1, Ordering::Relaxed);
        }
        (Kind::Deadline, _) => {
            tally.unexpected.fetch_add(1, Ordering::Relaxed);
        }
        (Kind::Poison, Ok((200, body))) => match fingerprint(body) {
            // Served from cache before the chaos callback could fire —
            // the fingerprint must still be bit-identical.
            Some(fp) if fp == expected => {
                tally.poison_survived.fetch_add(1, Ordering::Relaxed);
            }
            Some(_) => {
                tally.mismatched.fetch_add(1, Ordering::Relaxed);
            }
            // Trapped panic (StagePanic error line) or a connection cut
            // mid-stream by the worker's panic isolation.
            None => {
                tally.poison_failed.fetch_add(1, Ordering::Relaxed);
            }
        },
        // A poison=result panic can kill the connection after the head
        // was written; the client then sees an IO error or a short body.
        (Kind::Poison, _) => {
            tally.poison_failed.fetch_add(1, Ordering::Relaxed);
        }
        _ => {
            tally.unexpected.fetch_add(1, Ordering::Relaxed);
        }
    }
}
