//! The typed stage graph the flow runs over.
//!
//! Each of the eight pipeline stages is a [`Stage`] implementation over a
//! typed artifact store (`FrontArtifacts` for the shared front-end,
//! `BackArtifacts` for a variant back-end) whose `run` does the real
//! work and nothing else: it takes its inputs from the store's `Option`
//! slots, panicking with a message that names a missing one, and fills
//! its own. Everything the old monolithic pipeline hand-rolled at every
//! call site — the deadline check, the `--audit` invariant hooks, the
//! fault point, the retry loop with [`crate::derive_seed`] reseeds, and
//! the [`StageStats`] record — lives in exactly one place, the
//! `run_stage` runner.
//!
//! Both callers of the graph — the scheduler of [`crate::exec`] (behind
//! [`crate::run_design`] and the matrix) and the service's
//! [`crate::CachedFlow`] — go through the two leg functions
//! `exec::run_front` and `exec::run_back`, which walk the stage plans
//! (`front_plan` / `back_plan`) through the per-stage dispatchers, so
//! a stage executes identically whether it runs on one thread, in a
//! daemon job, or after a checkpoint resume.

mod artifacts;
mod back;
mod front;

pub(crate) use artifacts::{BackArtifacts, FrontArtifacts};
pub(crate) use back::{back_plan, run_back_stage};
pub(crate) use front::{front_plan, run_front_stage};

use std::time::Instant;

use vpga_core::PlbArchitecture;
use vpga_netlist::Netlist;

use crate::audit::AuditError;
use crate::clock::JobClock;
use crate::config::FlowConfig;
use crate::error::{retryable, FlowError};
use crate::faultpoint;
use crate::stats::{note_stage, StageId, StageStats};

/// The ambient inputs every stage sees: the flow configuration, the
/// target architecture, the job context string (`design/arch` or
/// `design/arch/variant`), and the job's wall-clock budget.
pub struct StageEnv<'a> {
    pub(crate) config: &'a FlowConfig,
    pub(crate) arch: &'a PlbArchitecture,
    pub(crate) job: &'a str,
    pub(crate) clock: &'a JobClock,
}

/// One typed stage of the flow, over artifact store `S`.
///
/// Implementations do the stage's real work in [`Stage::run`] and express
/// their invariants in the audit hooks; the cross-cutting middleware
/// (deadline, fault point, retries, stats, audit gating) is applied
/// uniformly by `run_stage` and must not be re-implemented per stage.
pub trait Stage<S> {
    /// The stage's identity (names the fault point `run_stage` fires
    /// before each attempt, and the stats record).
    fn id(&self) -> StageId;

    /// Whether a recoverable error consumes a retry (with a derived
    /// reseed) instead of failing the job. Only the stochastic stages
    /// (place, pack, route) opt in.
    fn retryable(&self) -> bool {
        false
    }

    /// Performs the stage's work, reading and writing `store`, and
    /// returns the stage's stats record (the runner fills in wall time
    /// and consumed retries). `attempt` is 0 on the first try and counts
    /// up across retries; stochastic stages fold it into their seed via
    /// [`crate::derive_seed`]. On `Err` the store must be left without
    /// the stage's products, so a retry re-runs from the same inputs.
    ///
    /// # Errors
    ///
    /// The stage's typed failure, without job context (`run_stage`
    /// attaches it).
    fn run(
        &self,
        env: &StageEnv<'_>,
        store: &mut S,
        attempt: usize,
    ) -> Result<StageStats, FlowError>;

    /// Audits the stage's *inputs* before the first attempt (`--audit`
    /// only).
    ///
    /// # Errors
    ///
    /// The broken invariant, if one is found.
    fn pre_audit(&self, _env: &StageEnv<'_>, _store: &S) -> Result<(), AuditError> {
        Ok(())
    }

    /// Audits the stage's *outputs* after a successful run (`--audit`
    /// only).
    ///
    /// # Errors
    ///
    /// The broken invariant, if one is found.
    fn audit(&self, _env: &StageEnv<'_>, _store: &S) -> Result<(), AuditError> {
        Ok(())
    }
}

/// The one stage runner: applies the deadline check, the `--audit`
/// invariant hooks, the fault point, the retry loop with reseeds, and the
/// wall-time / retry-count bookkeeping uniformly around [`Stage::run`],
/// then appends the stage's record to `stages`.
pub(crate) fn run_stage<S>(
    stage: &dyn Stage<S>,
    env: &StageEnv<'_>,
    store: &mut S,
    stages: &mut Vec<StageStats>,
) -> Result<(), FlowError> {
    let id = stage.id();
    note_stage(id);
    env.clock.check(id, env.job)?;
    if env.config.audit {
        stage
            .pre_audit(env, store)
            .map_err(|e| FlowError::from(e).in_stage(id, env.job))?;
    }
    let t = Instant::now();
    let mut attempt = 0usize;
    let stats = loop {
        let outcome =
            faultpoint::fire(id.name(), env.job).and_then(|()| stage.run(env, store, attempt));
        match outcome {
            Ok(stats) => break stats,
            Err(e) if stage.retryable() && attempt < env.config.retries && retryable(&e) => {
                attempt += 1;
                env.clock.check(id, env.job)?;
            }
            Err(e) => return Err(e.in_stage(id, env.job)),
        }
    };
    if env.config.audit {
        stage
            .audit(env, store)
            .map_err(|e| FlowError::from(e).in_stage(id, env.job))?;
    }
    debug_assert_eq!(stats.stage, id, "{id}: stats record names the wrong stage");
    stages.push(StageStats {
        wall: t.elapsed(),
        ..stats.with_retries(attempt as u32)
    });
    Ok(())
}

pub(crate) fn lib_cells(netlist: &Netlist) -> usize {
    netlist
        .cells()
        .filter(|(_, c)| c.lib_id().is_some())
        .count()
}

pub(crate) fn nets(netlist: &Netlist) -> usize {
    netlist.nets().count()
}
