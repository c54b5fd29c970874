//! The shared front-end stages: synthesis → compaction → timing-driven
//! placement → physical synthesis.

use std::time::Duration;

use vpga_netlist::library::generic;
use vpga_netlist::Netlist;
use vpga_place::PlaceConfig;
use vpga_timing::IncrementalSta;

use super::artifacts::FrontArtifacts;
use super::{lib_cells, moved_cells, nets, run_stage, ArtifactKind, Stage, StageEnv};
use crate::audit::{self, AuditError};
use crate::clock::derive_seed;
use crate::config::FlowConfig;
use crate::error::FlowError;
use crate::faultpoint;
use crate::stats::{StageId, StageStats};

/// The front-end stage plan for `config` (compaction is optional).
pub(crate) fn front_plan(config: &FlowConfig) -> Vec<StageId> {
    let mut plan = vec![StageId::Synth];
    if config.compaction {
        plan.push(StageId::Compact);
    }
    plan.push(StageId::Place);
    plan.push(StageId::PhysSynth);
    plan
}

/// Runs one front-end stage by id. `source` is the generated design
/// netlist; only synthesis reads it.
pub(crate) fn run_front_stage(
    id: StageId,
    source: &Netlist,
    env: &StageEnv<'_>,
    store: &mut FrontArtifacts,
    stages: &mut Vec<StageStats>,
) -> Result<(), FlowError> {
    match id {
        StageId::Synth => run_stage(&SynthStage { design: source }, env, store, stages),
        StageId::Compact => run_stage(&CompactStage, env, store, stages),
        StageId::Place => run_stage(&PlaceStage, env, store, stages),
        StageId::PhysSynth => run_stage(&PhysSynthStage, env, store, stages),
        other => unreachable!("{other} is not a front-end stage"),
    }
}

/// Synthesis / technology mapping onto the component library.
struct SynthStage<'d> {
    design: &'d Netlist,
}

impl Stage<FrontArtifacts> for SynthStage<'_> {
    fn id(&self) -> StageId {
        StageId::Synth
    }

    fn produces(&self) -> &'static [ArtifactKind] {
        &[ArtifactKind::MappedNetlist]
    }

    fn run(
        &self,
        env: &StageEnv<'_>,
        store: &mut FrontArtifacts,
        _attempt: usize,
    ) -> Result<StageStats, FlowError> {
        let src = generic::library();
        store.gates_nand2 = vpga_netlist::stats::NetlistStats::compute(self.design, &src)
            .nand2_equivalent(generic::NAND2_AREA);
        let netlist = if env.config.cut_based_mapper {
            vpga_synth::map_netlist(self.design, &src, env.arch)
        } else {
            vpga_synth::map_netlist_fast(self.design, &src, env.arch)
        }?;
        let stats = StageStats::new(
            StageId::Synth,
            Duration::ZERO,
            lib_cells(&netlist),
            nets(&netlist),
        );
        store.netlist = Some(netlist);
        Ok(stats)
    }

    fn audit(&self, env: &StageEnv<'_>, store: &FrontArtifacts) -> Result<(), AuditError> {
        let netlist = store.netlist.as_ref().expect("synth mapped a netlist");
        audit::audit_netlist(netlist, env.arch.library())
    }
}

/// Regularity-driven logic compaction.
struct CompactStage;

impl Stage<FrontArtifacts> for CompactStage {
    fn id(&self) -> StageId {
        StageId::Compact
    }

    fn uses(&self) -> &'static [ArtifactKind] {
        &[ArtifactKind::MappedNetlist]
    }

    fn produces(&self) -> &'static [ArtifactKind] {
        &[ArtifactKind::CompactionSummary]
    }

    fn run(
        &self,
        env: &StageEnv<'_>,
        store: &mut FrontArtifacts,
        _attempt: usize,
    ) -> Result<StageStats, FlowError> {
        let netlist = store.netlist.as_mut().expect("synth mapped a netlist");
        let cells_before = lib_cells(netlist) as f64;
        let report = vpga_compact::compact(netlist, env.arch)?;
        let stats = StageStats::new(
            StageId::Compact,
            Duration::ZERO,
            lib_cells(netlist),
            nets(netlist),
        )
        .with_cost(cells_before, lib_cells(netlist) as f64);
        store.compaction = Some(report);
        Ok(stats)
    }

    fn audit(&self, env: &StageEnv<'_>, store: &FrontArtifacts) -> Result<(), AuditError> {
        let netlist = store.netlist.as_ref().expect("synth mapped a netlist");
        audit::audit_netlist(netlist, env.arch.library())
    }
}

/// Timing-driven placement: wirelength-driven start, then one
/// criticality-weighted refinement feeding the incremental timer.
struct PlaceStage;

impl Stage<FrontArtifacts> for PlaceStage {
    fn id(&self) -> StageId {
        StageId::Place
    }

    fn retryable(&self) -> bool {
        true
    }

    fn uses(&self) -> &'static [ArtifactKind] {
        &[ArtifactKind::MappedNetlist]
    }

    fn produces(&self) -> &'static [ArtifactKind] {
        &[ArtifactKind::Placement, ArtifactKind::TimingGraph]
    }

    fn run(
        &self,
        env: &StageEnv<'_>,
        store: &mut FrontArtifacts,
        attempt: usize,
    ) -> Result<StageStats, FlowError> {
        let netlist = store.netlist.as_ref().expect("synth mapped a netlist");
        let lib = env.arch.library();
        let seeded = PlaceConfig {
            seed: derive_seed(env.config.place.seed, attempt),
            ..env.config.place.clone()
        };
        let (mut placement, place_stats) = vpga_place::try_place_with_stats(netlist, lib, &seeded)?;
        // The incremental timer is seeded once here; every later STA
        // consumer (refinements, physical synthesis, the packer, the
        // annealer weights) feeds it deltas instead of re-analyzing from
        // scratch.
        let mut sta = IncrementalSta::new(netlist, lib, &env.config.timing)?;
        sta.full_analyze(netlist, &placement, None);
        let mut crit_buf = Vec::new();
        sta.net_criticalities_into(&mut crit_buf);
        let weights: Vec<f64> = crit_buf.iter().map(|&c| 1.0 + 8.0 * c * c).collect();
        let weighted = PlaceConfig {
            net_weights: Some(weights),
            ..seeded
        };
        let pre_refine = placement.clone();
        let refine_stats =
            vpga_place::try_refine_with_stats(netlist, lib, &mut placement, &weighted, 0.6)?;
        sta.update_moved_cells(
            netlist,
            &placement,
            None,
            &moved_cells(netlist, &pre_refine, &placement),
        );
        let counters = sta.counters();
        // Cost fields cover the wirelength-driven anneal (its own cost
        // function); the criticality-weighted refinement optimizes a
        // different (weighted) cost, so it contributes to the move
        // counters only.
        let stats = StageStats::new(
            StageId::Place,
            Duration::ZERO,
            lib_cells(netlist),
            nets(netlist),
        )
        .with_cost(place_stats.cost_initial, place_stats.cost_final)
        .with_moves(
            place_stats.moves_attempted + refine_stats.moves_attempted,
            place_stats.moves_accepted + refine_stats.moves_accepted,
        )
        .with_bbox_updates(
            place_stats.bbox_incremental + refine_stats.bbox_incremental,
            place_stats.bbox_full + refine_stats.bbox_full,
        )
        .with_sta(counters.full, counters.incremental, counters.nodes_touched);
        store.placement = Some(placement);
        store.weighted = Some(weighted);
        store.sta = Some(sta);
        Ok(stats)
    }

    fn audit(&self, _env: &StageEnv<'_>, store: &FrontArtifacts) -> Result<(), AuditError> {
        let netlist = store.netlist.as_ref().expect("synth mapped a netlist");
        let placement = store
            .placement
            .as_ref()
            .expect("place produced a placement");
        audit::audit_placement(netlist, placement)
    }
}

/// Physical synthesis: buffer insertion, then legalizing refinement, both
/// replayed into the incremental timer.
struct PhysSynthStage;

impl Stage<FrontArtifacts> for PhysSynthStage {
    fn id(&self) -> StageId {
        StageId::PhysSynth
    }

    fn uses(&self) -> &'static [ArtifactKind] {
        &[
            ArtifactKind::MappedNetlist,
            ArtifactKind::Placement,
            ArtifactKind::TimingGraph,
        ]
    }

    fn produces(&self) -> &'static [ArtifactKind] {
        &[ArtifactKind::BufferTrace]
    }

    fn run(
        &self,
        env: &StageEnv<'_>,
        store: &mut FrontArtifacts,
        _attempt: usize,
    ) -> Result<StageStats, FlowError> {
        let FrontArtifacts {
            netlist,
            placement,
            weighted,
            sta,
            buffer_trace,
            ..
        } = store;
        let (Some(netlist), Some(placement), Some(weighted), Some(sta)) = (
            netlist.as_mut(),
            placement.as_mut(),
            weighted.as_ref(),
            sta.as_mut(),
        ) else {
            unreachable!("physical synthesis runs after placement")
        };
        let lib = env.arch.library();
        let baseline = sta.counters();
        let max_len = placement.die().width() * env.config.buffer_max_length_frac;
        let (_, buffer_edits) = vpga_place::insert_buffers_traced(
            netlist,
            lib,
            placement,
            env.config.buffer_max_fanout,
            max_len,
        )?;
        // The timer replays the structural edits instead of rebuilding;
        // this interior fault point covers its event-driven propagation
        // loop.
        faultpoint::fire("sta_incremental", env.job)?;
        sta.apply_buffers(netlist, lib, placement, None, &buffer_edits);
        let pre_legalize = placement.clone();
        let legalize_stats =
            vpga_place::try_refine_with_stats(netlist, lib, placement, weighted, 0.2)?;
        sta.update_moved_cells(
            netlist,
            placement,
            None,
            &moved_cells(netlist, &pre_legalize, placement),
        );
        let delta = sta.counters().since(baseline);
        let stats = StageStats::new(
            StageId::PhysSynth,
            Duration::ZERO,
            lib_cells(netlist),
            nets(netlist),
        )
        .with_cost(legalize_stats.cost_initial, legalize_stats.cost_final)
        .with_moves(
            legalize_stats.moves_attempted,
            legalize_stats.moves_accepted,
        )
        .with_bbox_updates(legalize_stats.bbox_incremental, legalize_stats.bbox_full)
        .with_sta(delta.full, delta.incremental, delta.nodes_touched);
        *buffer_trace = Some(buffer_edits);
        Ok(stats)
    }

    fn audit(&self, env: &StageEnv<'_>, store: &FrontArtifacts) -> Result<(), AuditError> {
        let netlist = store.netlist.as_ref().expect("synth mapped a netlist");
        let placement = store
            .placement
            .as_ref()
            .expect("place produced a placement");
        let sta = store.sta.as_ref().expect("place seeded the timer");
        let lib = env.arch.library();
        audit::audit_netlist(netlist, lib)?;
        audit::audit_placement(netlist, placement)?;
        // Cross-validate the incremental state against the from-scratch
        // oracle at the front-end boundary.
        audit::audit_sta_equivalence(
            netlist,
            lib,
            placement,
            None,
            &env.config.timing,
            &sta.report(netlist),
        )
    }
}
