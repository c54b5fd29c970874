//! Cache-backed flow execution for the serve daemon.
//!
//! [`CachedFlow`] runs one flow job — a (design, arch, variant, params,
//! config) tuple — against the shared [`ArtifactCache`], deduplicating
//! per front-end and per result:
//!
//! - The **front-end** (synth → compact → place → physsynth) is keyed by
//!   `front/{design}/{arch}/{front_fingerprint}` where the fingerprint
//!   masks every back-end-only config field
//!   (`checkpoint::front_config_fingerprint`). Two jobs that differ only
//!   in back-end parameters — or only in variant — share one front-end
//!   computation, including in-flight: the second requester blocks on the
//!   first's claim instead of recomputing.
//! - The **back-end result** is keyed by
//!   `result/{design}/{arch}/{variant}/{full_fingerprint}` with the full
//!   normalized config⊕params fingerprint.
//!
//! A miss runs the same leg functions as batch mode, `exec::run_front`
//! and `exec::run_back`, with the optional disk checkpoint tier
//! underneath them. Cache payloads reuse the checkpoint codecs
//! byte-for-byte, and a hit goes through the same decoders as a disk
//! resume (`checkpoint::decode_front_payload` and
//! `checkpoint::decode_result_payload`). A restored front-end is exactly
//! the recorded one, so a job served from cache is bit-identical to a
//! cold batch run — the load harness asserts fingerprint equality over
//! thousands of mixed jobs.
//!
//! Robustness: each leg runs under the leg functions' panic guard, so a
//! panic (including one injected through the event callback) surfaces as
//! [`FlowError::StagePanic`], the claim guard drops, waiters recompute,
//! and the cache stays valid. Cancellation and deadlines are checked
//! before the first stage (a zero deadline never runs a free stage) and
//! between stages by the standard stage runner.

use std::sync::Arc;
use std::time::Duration;

use vpga_core::PlbArchitecture;
use vpga_designs::{DesignParams, NamedDesign};
use vpga_netlist::wire::Writer;

use crate::cache::{ArtifactCache, CacheOutcome};
use crate::checkpoint::{
    config_fingerprint, decode_front_payload, decode_result_payload, encode_front, encode_result,
    front_config_fingerprint,
};
use crate::clock::JobClock;
use crate::config::{FlowConfig, FlowVariant};
use crate::error::FlowError;
use crate::exec::{run_back, run_front};
use crate::pipeline::{front_ctx, job_ctx, DesignOutcome, FlowResult, FrontEnd};
use crate::stages::{back_plan, front_plan};
use crate::stats::{StageId, StageStats};
use crate::CheckpointStore;

/// One flow job as submitted to the daemon.
#[derive(Clone, Debug)]
pub struct ServiceJob {
    /// Which benchmark design to run.
    pub design: NamedDesign,
    /// Target architecture.
    pub arch: PlbArchitecture,
    /// Which back-end variant.
    pub variant: FlowVariant,
    /// Design generation parameters.
    pub params: DesignParams,
    /// Flow configuration (deadline and cancel token included).
    pub config: FlowConfig,
}

impl ServiceJob {
    /// The job context string (`design/arch/variant`) used for fault
    /// points, deadlines, and log lines.
    pub fn ctx(&self) -> String {
        job_ctx(self.design.key(), &self.arch, self.variant)
    }
}

/// Resolves an architecture by its wire name (`"granular"` / `"lut"`).
pub fn arch_by_name(name: &str) -> Option<PlbArchitecture> {
    let granular = PlbArchitecture::granular();
    if granular.name() == name {
        return Some(granular);
    }
    let lut = PlbArchitecture::lut_based();
    (lut.name() == name).then_some(lut)
}

/// Per-stage progress streamed to the submitter while a job runs.
#[derive(Clone, Debug)]
pub enum JobEvent {
    /// A stage finished computing (cache misses only — hits skip stages).
    Stage {
        /// Which stage.
        stage: StageId,
        /// Wall-clock time the stage took.
        wall: Duration,
        /// Cells after the stage.
        cells: usize,
        /// Nets after the stage.
        nets: usize,
    },
    /// The shared front-end was resolved.
    Front {
        /// Served from the artifact cache (or disk checkpoint)?
        hit: bool,
    },
    /// The back-end result was resolved.
    Result {
        /// Served from the artifact cache (or disk checkpoint)?
        hit: bool,
    },
}

/// The finished product of one daemon job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Design name (display form, e.g. `"ALU"`).
    pub design: String,
    /// Design key (wire form, e.g. `"alu"`).
    pub design_key: &'static str,
    /// Architecture name.
    pub arch: String,
    /// NAND2-equivalent gate count of the source design.
    pub gates_nand2: f64,
    /// Per-stage records for the shared front-end, cache counters
    /// attached (display only — excluded from fingerprints).
    pub front_stages: Vec<StageStats>,
    /// Compaction summary, if the step ran.
    pub compaction: Option<vpga_compact::CompactionReport>,
    /// The variant result, cache counters attached.
    pub result: FlowResult,
    /// Whether the front-end came from the cache.
    pub front_cache_hit: bool,
    /// Whether the result came from the cache.
    pub result_cache_hit: bool,
}

impl JobOutcome {
    /// The result fingerprint — bit-identical to the batch-mode run of
    /// the same (design, arch, variant, params, config).
    pub fn fingerprint(&self) -> u64 {
        self.result.fingerprint()
    }
}

/// Pairs per-variant job outcomes into [`DesignOutcome`]s exactly as the
/// batch matrix assembles them: one A and one B per (design, arch), the
/// A job's front-end records representing the shared front-end. Pairs
/// missing either variant are skipped; order follows the A outcomes.
pub fn pair_outcomes(outcomes: &[JobOutcome]) -> Vec<DesignOutcome> {
    outcomes
        .iter()
        .filter(|a| a.result.variant == FlowVariant::A)
        .filter_map(|a| {
            let b = outcomes.iter().find(|b| {
                b.result.variant == FlowVariant::B
                    && b.design_key == a.design_key
                    && b.arch == a.arch
            })?;
            Some(DesignOutcome {
                design: a.design.clone(),
                arch: a.arch.clone(),
                gates_nand2: a.gates_nand2,
                compaction: a.compaction.clone(),
                front_stages: a.front_stages.clone(),
                flow_a: a.result.clone(),
                flow_b: b.result.clone(),
            })
        })
        .collect()
}

/// Attaches cache counters to the first record of a stage list (display
/// only; `fold_fingerprint` excludes them).
fn tag_cache(mut stages: Vec<StageStats>, hits: u64, misses: u64, evicted: u64) -> Vec<StageStats> {
    if let Some(first) = stages.first_mut() {
        *first = first.clone().with_cache(hits, misses, evicted);
    }
    stages
}

/// What one cache leg (front or back) reported.
struct LegMeta {
    hit: bool,
    stages_restored: u64,
    stages_computed: u64,
    evicted: u64,
}

/// A flow executor backed by the shared artifact cache, with an optional
/// disk checkpoint tier underneath it.
pub struct CachedFlow {
    cache: Arc<ArtifactCache>,
    disk: Option<CheckpointStore>,
}

impl CachedFlow {
    /// A cache-backed flow with a fresh cache of `budget_bytes`.
    pub fn new(budget_bytes: usize) -> CachedFlow {
        CachedFlow::with_cache(Arc::new(ArtifactCache::new(budget_bytes)))
    }

    /// Wraps an existing (possibly shared) cache.
    pub fn with_cache(cache: Arc<ArtifactCache>) -> CachedFlow {
        CachedFlow { cache, disk: None }
    }

    /// Adds a disk checkpoint tier: misses try the store before
    /// computing, and computed stages are checkpointed as they finish
    /// (so a daemon restart resumes warm).
    #[must_use]
    pub fn with_checkpoints(mut self, store: CheckpointStore) -> CachedFlow {
        self.disk = Some(store);
        self
    }

    /// The shared artifact cache.
    pub fn cache(&self) -> &Arc<ArtifactCache> {
        &self.cache
    }

    /// Runs one job, streaming [`JobEvent`]s as stages and cache legs
    /// resolve.
    ///
    /// # Errors
    ///
    /// Any [`FlowError`] a batch run could produce, plus
    /// [`FlowError::Cancelled`] / [`FlowError::DeadlineExceeded`] checked
    /// before the first stage, and [`FlowError::StagePanic`] for panics
    /// trapped during compute (the cache claim is abandoned, never
    /// poisoned).
    pub fn run_job(
        &self,
        job: &ServiceJob,
        on_event: &mut dyn FnMut(&JobEvent),
    ) -> Result<JobOutcome, FlowError> {
        let ctx = job.ctx();
        let clock = JobClock::new(job.config.deadline, job.config.cancel.clone());
        let fplan = front_plan(&job.config);
        // Fail fast: a zero/expired deadline or a cancelled job must be
        // rejected before stage 1 — and before touching the cache.
        clock.check(fplan[0], &ctx)?;
        let (front, fmeta) = self.front(job, &clock, on_event)?;
        on_event(&JobEvent::Front { hit: fmeta.hit });
        clock.check(back_plan(job.variant)[0], &ctx)?;
        let (result, rmeta) = self.back(job, &front, &clock, on_event)?;
        on_event(&JobEvent::Result { hit: rmeta.hit });
        Ok(JobOutcome {
            design: front.design.clone(),
            design_key: job.design.key(),
            arch: job.arch.name().to_owned(),
            gates_nand2: front.gates_nand2,
            front_stages: tag_cache(
                front.stages.clone(),
                fmeta.stages_restored,
                fmeta.stages_computed,
                fmeta.evicted,
            ),
            compaction: front.compaction.clone(),
            result: FlowResult {
                stages: tag_cache(
                    result.stages.clone(),
                    rmeta.stages_restored,
                    rmeta.stages_computed,
                    rmeta.evicted,
                ),
                ..result
            },
            front_cache_hit: fmeta.hit,
            result_cache_hit: rmeta.hit,
        })
    }

    /// Resolves the shared front-end: a cache hit, or a claim that runs
    /// the front-end leg (disk resume included) and publishes it.
    fn front(
        &self,
        job: &ServiceJob,
        clock: &JobClock,
        on_event: &mut dyn FnMut(&JobEvent),
    ) -> Result<(FrontEnd, LegMeta), FlowError> {
        let dkey = job.design.key();
        let fctx = front_ctx(dkey, &job.arch);
        let plan_len = front_plan(&job.config).len();
        let key = format!(
            "front/{dkey}/{}/{:016x}",
            job.arch.name(),
            front_config_fingerprint(&job.config, &job.params, &job.arch)
        );
        loop {
            match self.cache.acquire(&key, &fctx) {
                CacheOutcome::Hit(bytes) => {
                    match decode_front_payload(&bytes, dkey, plan_len) {
                        Some((store, stages))
                            if store.netlist.is_some() && store.placement.is_some() =>
                        {
                            let meta = LegMeta {
                                hit: true,
                                stages_restored: plan_len as u64,
                                stages_computed: 0,
                                evicted: 0,
                            };
                            return Ok((store.into_front_end(stages), meta));
                        }
                        // Fail closed: an undecodable payload, or one
                        // without a netlist and placement, is evicted and
                        // recomputed, never trusted.
                        _ => {
                            self.cache.evict_key(&key);
                        }
                    }
                }
                CacheOutcome::Miss(claim) => {
                    let source = job.design.generate(&job.params);
                    let disk = self.disk.as_ref().map(|ck| (ck, &job.params));
                    // On error the claim guard drops: waiters recompute.
                    let (store, stages, restored) =
                        run_front(&source, &job.arch, &job.config, clock, disk, &mut |rec| {
                            on_event(&stage_event(rec));
                        })?;
                    let mut w = Writer::new();
                    encode_front(&mut w, &store, &stages);
                    // An injected cache_write fault abandons the publish;
                    // the job still has its in-memory artifacts.
                    let evicted = claim.publish(w.into_bytes(), &fctx).unwrap_or(0);
                    let meta = LegMeta {
                        // A front-end wholly restored from disk ran no
                        // stage: that is a hit, as for the result leg.
                        hit: restored == plan_len,
                        stages_restored: restored as u64,
                        stages_computed: (plan_len - restored) as u64,
                        evicted,
                    };
                    return Ok((store.into_front_end(stages), meta));
                }
            }
        }
    }

    /// Resolves the variant back-end: a cache hit, or a claim that runs
    /// the back-end leg (disk resume included) and publishes it.
    fn back(
        &self,
        job: &ServiceJob,
        front: &FrontEnd,
        clock: &JobClock,
        on_event: &mut dyn FnMut(&JobEvent),
    ) -> Result<(FlowResult, LegMeta), FlowError> {
        let ctx = job.ctx();
        let plan_len = back_plan(job.variant).len() as u64;
        let key = format!(
            "result/{}/{}/{}/{:016x}",
            job.design.key(),
            job.arch.name(),
            job.variant.key(),
            config_fingerprint(&job.config, &job.params, &job.arch)
        );
        loop {
            match self.cache.acquire(&key, &ctx) {
                CacheOutcome::Hit(bytes) => match decode_result_payload(&bytes, job.variant) {
                    Some(result) => {
                        let meta = LegMeta {
                            hit: true,
                            stages_restored: plan_len,
                            stages_computed: 0,
                            evicted: 0,
                        };
                        return Ok((result, meta));
                    }
                    None => {
                        self.cache.evict_key(&key);
                    }
                },
                CacheOutcome::Miss(claim) => {
                    let disk = self.disk.as_ref().map(|ck| (ck, &job.params));
                    let (result, from_disk) = run_back(
                        front,
                        &job.arch,
                        job.variant,
                        &job.config,
                        clock,
                        disk,
                        &mut |rec| {
                            on_event(&stage_event(rec));
                        },
                    )?;
                    let mut w = Writer::new();
                    encode_result(&mut w, &result);
                    let evicted = claim.publish(w.into_bytes(), &ctx).unwrap_or(0);
                    let meta = LegMeta {
                        hit: from_disk,
                        stages_restored: if from_disk { plan_len } else { 0 },
                        stages_computed: if from_disk { 0 } else { plan_len },
                        evicted,
                    };
                    return Ok((result, meta));
                }
            }
        }
    }
}

/// The [`JobEvent::Stage`] streamed for one computed stage record.
fn stage_event(rec: &StageStats) -> JobEvent {
    JobEvent::Stage {
        stage: rec.stage,
        wall: rec.wall,
        cells: rec.cells,
        nets: rec.nets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_design;
    use crate::report::Matrix;

    fn tiny_job(variant: FlowVariant) -> ServiceJob {
        ServiceJob {
            design: NamedDesign::Alu,
            arch: PlbArchitecture::granular(),
            variant,
            params: DesignParams::tiny(),
            config: FlowConfig::default(),
        }
    }

    #[test]
    fn cold_then_warm_matches_batch_bit_for_bit() {
        let flow = CachedFlow::new(64 << 20);
        let mut events = Vec::new();
        let cold = flow
            .run_job(&tiny_job(FlowVariant::A), &mut |e| events.push(e.clone()))
            .unwrap();
        assert!(!cold.front_cache_hit && !cold.result_cache_hit);
        // 4 front stages + 2 back stages + the two leg events.
        assert_eq!(events.len(), 8);
        let warm = flow
            .run_job(&tiny_job(FlowVariant::A), &mut |_| {})
            .unwrap();
        assert!(warm.front_cache_hit && warm.result_cache_hit);
        let batch = run_design(
            &NamedDesign::Alu.generate(&DesignParams::tiny()),
            &PlbArchitecture::granular(),
            &FlowConfig::default(),
        )
        .unwrap();
        assert_eq!(cold.fingerprint(), batch.flow_a.fingerprint());
        assert_eq!(warm.fingerprint(), batch.flow_a.fingerprint());
        flow.cache().validate_all().unwrap();
    }

    #[test]
    fn variants_share_the_front_end() {
        let flow = CachedFlow::new(64 << 20);
        let a = flow
            .run_job(&tiny_job(FlowVariant::A), &mut |_| {})
            .unwrap();
        let b = flow
            .run_job(&tiny_job(FlowVariant::B), &mut |_| {})
            .unwrap();
        assert!(!a.front_cache_hit);
        // B reuses A's front-end from the cache; only its back-end runs.
        assert!(b.front_cache_hit && !b.result_cache_hit);
        let batch = run_design(
            &NamedDesign::Alu.generate(&DesignParams::tiny()),
            &PlbArchitecture::granular(),
            &FlowConfig::default(),
        )
        .unwrap();
        assert_eq!(a.fingerprint(), batch.flow_a.fingerprint());
        assert_eq!(b.fingerprint(), batch.flow_b.fingerprint());
        // And the paired outcome fingerprints match the batch outcome
        // (cache counters are display-only).
        let paired = pair_outcomes(&[a, b]);
        assert_eq!(paired.len(), 1);
        assert_eq!(paired[0].fingerprint(), batch.fingerprint());
        assert_eq!(
            Matrix::from_outcomes(paired).fingerprint(),
            Matrix::from_outcomes(vec![batch]).fingerprint()
        );
    }

    #[test]
    fn zero_deadline_fails_before_any_stage_and_before_the_cache() {
        let flow = CachedFlow::new(1 << 20);
        let mut job = tiny_job(FlowVariant::A);
        job.config.deadline = Some(Duration::ZERO);
        let mut events = 0usize;
        let err = flow.run_job(&job, &mut |_| events += 1).unwrap_err();
        assert!(
            matches!(err, FlowError::DeadlineExceeded { stage, .. } if stage == StageId::Synth),
            "wrong error: {err}"
        );
        assert_eq!(events, 0, "no stage may run under a zero deadline");
        assert_eq!(flow.cache().stats().misses, 0, "cache must not be touched");
    }

    #[test]
    fn cancellation_between_stages_aborts_and_leaves_cache_valid() {
        let flow = CachedFlow::new(64 << 20);
        let job = tiny_job(FlowVariant::A);
        let cancel = job.config.cancel.clone();
        let mut stages_seen = 0usize;
        let err = flow
            .run_job(&job, &mut |e| {
                if let JobEvent::Stage { .. } = e {
                    stages_seen += 1;
                    cancel.cancel();
                }
            })
            .unwrap_err();
        assert!(
            matches!(err, FlowError::Cancelled { .. }),
            "wrong error: {err}"
        );
        assert_eq!(stages_seen, 1, "cancel after stage 1 stops before stage 2");
        // The abandoned claim must not wedge or corrupt the cache.
        let stats = flow.cache().stats();
        assert_eq!(stats.in_flight, 0);
        flow.cache().validate_all().unwrap();
        // A fresh job (new cancel token) completes normally.
        let redo = flow
            .run_job(&tiny_job(FlowVariant::A), &mut |_| {})
            .unwrap();
        assert!(!redo.front_cache_hit);
    }

    #[test]
    fn event_callback_panic_is_trapped_and_claim_abandoned() {
        let flow = CachedFlow::new(64 << 20);
        let err = flow
            .run_job(&tiny_job(FlowVariant::A), &mut |e| {
                if let JobEvent::Stage { stage, .. } = e {
                    assert!(*stage != StageId::Place, "poisoned stage reached");
                }
            })
            .unwrap_err();
        let FlowError::StagePanic { stage, .. } = err else {
            panic!("expected StagePanic, got {err}");
        };
        assert_eq!(stage, Some(StageId::Place));
        assert_eq!(flow.cache().stats().in_flight, 0);
        // The cache holds no front entry (claim abandoned) and the next
        // run recomputes cleanly.
        let redo = flow
            .run_job(&tiny_job(FlowVariant::A), &mut |_| {})
            .unwrap();
        assert!(!redo.front_cache_hit);
        flow.cache().validate_all().unwrap();
    }

    #[test]
    fn disk_tier_resumes_into_the_memory_cache() {
        let dir = std::env::temp_dir().join(format!("vpga-svc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let flow = CachedFlow::new(64 << 20)
                .with_checkpoints(CheckpointStore::new(&dir, true).unwrap());
            flow.run_job(&tiny_job(FlowVariant::A), &mut |_| {})
                .unwrap();
        }
        // A fresh daemon (cold memory cache) restores from disk: no stage
        // recomputes, and both legs report the disk restore as a hit.
        let flow =
            CachedFlow::new(64 << 20).with_checkpoints(CheckpointStore::new(&dir, true).unwrap());
        let mut events = Vec::new();
        let out = flow
            .run_job(&tiny_job(FlowVariant::A), &mut |e| events.push(e.clone()))
            .unwrap();
        assert!(
            matches!(
                events[..],
                [
                    JobEvent::Front { hit: true },
                    JobEvent::Result { hit: true }
                ]
            ),
            "disk tier should supply every stage: {events:?}"
        );
        assert!(out.front_cache_hit, "front-end restored from disk");
        assert!(out.result_cache_hit, "result restored from disk");
        let batch = run_design(
            &NamedDesign::Alu.generate(&DesignParams::tiny()),
            &PlbArchitecture::granular(),
            &FlowConfig::default(),
        )
        .unwrap();
        assert_eq!(out.fingerprint(), batch.flow_a.fingerprint());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn arch_by_name_resolves_both_architectures() {
        assert_eq!(arch_by_name("granular").unwrap().name(), "granular");
        assert_eq!(arch_by_name("lut").unwrap().name(), "lut");
        assert!(arch_by_name("asic").is_none());
    }
}
