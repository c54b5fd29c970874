//! The shared front-end stages: synthesis → compaction → timing-driven
//! placement → physical synthesis.

use std::time::Duration;

use vpga_netlist::library::generic;
use vpga_netlist::Netlist;
use vpga_place::PlaceConfig;

use super::artifacts::FrontArtifacts;
use super::{lib_cells, nets, run_stage, Stage, StageEnv};
use crate::audit::{self, AuditError};
use crate::clock::derive_seed;
use crate::config::FlowConfig;
use crate::error::FlowError;
use crate::stats::{StageId, StageStats};

/// Physical synthesis buffers every net with more sinks than this.
const BUFFER_MAX_FANOUT: usize = 12;

/// Physical synthesis buffers every net whose half-perimeter exceeds this
/// fraction of the die width.
const BUFFER_MAX_LENGTH_FRAC: f64 = 0.5;

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

    fn run(
        &self,
        env: &StageEnv<'_>,
        store: &mut FrontArtifacts,
        _attempt: usize,
    ) -> Result<StageStats, FlowError> {
        let src = generic::library();
        store.gates_nand2 = vpga_netlist::stats::NetlistStats::compute(self.design, &src)
            .nand2_equivalent(generic::NAND2_AREA);
        let netlist = vpga_synth::map_netlist_fast(self.design, &src, env.arch)?;
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

/// Timing-driven placement: wirelength-driven start, one full STA pass,
/// then one refinement weighted by that pass's net criticalities.
struct PlaceStage;

impl Stage<FrontArtifacts> for PlaceStage {
    fn id(&self) -> StageId {
        StageId::Place
    }

    fn retryable(&self) -> bool {
        true
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
        let (mut placement, place_stats) = vpga_place::place(netlist, lib, &seeded)?;
        let sta = vpga_timing::analyze(netlist, lib, &placement, None)?;
        let weighted = PlaceConfig {
            net_weights: Some(sta.net_weights()),
            ..seeded
        };
        let refine_stats = vpga_place::refine(netlist, lib, &mut placement, &weighted, 0.6)?;
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
        .with_sta(1);
        store.placement = Some(placement);
        store.weighted = Some(weighted);
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

/// Physical synthesis: buffer insertion, then a legalizing refinement
/// under placement's criticality weights.
struct PhysSynthStage;

impl Stage<FrontArtifacts> for PhysSynthStage {
    fn id(&self) -> StageId {
        StageId::PhysSynth
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
            ..
        } = store;
        let (Some(netlist), Some(placement), Some(weighted)) =
            (netlist.as_mut(), placement.as_mut(), weighted.as_ref())
        else {
            unreachable!("physical synthesis runs after placement")
        };
        let lib = env.arch.library();
        let max_len = placement.die().width() * BUFFER_MAX_LENGTH_FRAC;
        vpga_place::insert_buffers(netlist, lib, placement, BUFFER_MAX_FANOUT, max_len)?;
        let legalize_stats = vpga_place::refine(netlist, lib, placement, weighted, 0.2)?;
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
        .with_bbox_updates(legalize_stats.bbox_incremental, legalize_stats.bbox_full);
        Ok(stats)
    }

    fn audit(&self, env: &StageEnv<'_>, store: &FrontArtifacts) -> Result<(), AuditError> {
        let netlist = store.netlist.as_ref().expect("synth mapped a netlist");
        let placement = store
            .placement
            .as_ref()
            .expect("place produced a placement");
        audit::audit_netlist(netlist, env.arch.library())?;
        audit::audit_placement(netlist, placement)
    }
}
