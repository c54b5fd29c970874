//! The variant back-end stages: (pack → swap for flow b, then) route →
//! post-layout STA, over a shared immutable front-end.

use std::time::Duration;

use vpga_place::PlaceConfig;
use vpga_route::RouteConfig;

use super::artifacts::BackArtifacts;
use super::{nets, run_stage, Stage, StageEnv};
use crate::audit::{self, AuditError};
use crate::clock::derive_seed;
use crate::config::FlowVariant;
use crate::error::FlowError;
use crate::stats::{StageId, StageStats};

/// The back-end stage plan for `variant`.
pub(crate) fn back_plan(variant: FlowVariant) -> &'static [StageId] {
    match variant {
        FlowVariant::A => &[StageId::Route, StageId::Timing],
        FlowVariant::B => &[
            StageId::Pack,
            StageId::Swap,
            StageId::Route,
            StageId::Timing,
        ],
    }
}

/// Runs one back-end stage by id.
pub(crate) fn run_back_stage(
    id: StageId,
    variant: FlowVariant,
    env: &StageEnv<'_>,
    store: &mut BackArtifacts<'_>,
    stages: &mut Vec<StageStats>,
) -> Result<(), FlowError> {
    match id {
        StageId::Pack => run_stage(&PackStage, env, store, stages),
        StageId::Swap => run_stage(&SwapStage, env, store, stages),
        StageId::Route => run_stage(&RouteStage { variant }, env, store, stages),
        StageId::Timing => run_stage(&TimingStage { variant }, env, store, stages),
        other => unreachable!("{other} is not a back-end stage"),
    }
}

/// Packing into the PLB array (criticality-aware, iterated with
/// placement).
struct PackStage;

impl Stage<BackArtifacts<'_>> for PackStage {
    fn id(&self) -> StageId {
        StageId::Pack
    }

    fn retryable(&self) -> bool {
        true
    }

    fn run(
        &self,
        env: &StageEnv<'_>,
        store: &mut BackArtifacts<'_>,
        attempt: usize,
    ) -> Result<StageStats, FlowError> {
        let front = store.front;
        let netlist = &front.netlist;
        let sta = vpga_timing::analyze(netlist, env.arch.library(), &front.placement, None)?;
        let criticality = env
            .config
            .pack_criticality
            .then(|| sta.cell_criticalities(netlist));
        // Packing iterates with the (stochastic) placement refiner, so a
        // retry reseeds the place config and starts over from a fresh copy
        // of the front-end placement.
        let mut b_placement = front.placement.clone();
        let hpwl_before = b_placement.total_hpwl(netlist);
        let seeded = PlaceConfig {
            seed: derive_seed(env.config.place.seed, attempt),
            ..env.config.place.clone()
        };
        let (array, pack_stats) = vpga_pack::pack_iterative(
            netlist,
            env.arch,
            &mut b_placement,
            &seeded,
            &env.config.pack,
            criticality.as_deref(),
        )?;
        let stats = StageStats::new(StageId::Pack, Duration::ZERO, front.cells, nets(netlist))
            .with_cost(hpwl_before, b_placement.total_hpwl(netlist))
            .with_moves(
                pack_stats.relocations + pack_stats.spilled,
                pack_stats.relocations,
            )
            .with_sta(1);
        store.front_sta = Some(sta);
        store.b_placement = Some(b_placement);
        store.array = Some(array);
        Ok(stats)
    }

    fn audit(&self, env: &StageEnv<'_>, store: &BackArtifacts<'_>) -> Result<(), AuditError> {
        let array = store.array.as_ref().expect("pack produced an array");
        audit::audit_pack(&store.front.netlist, env.arch, array)
    }
}

/// PLB-level detailed placement: anneal whole-PLB swaps to recover the
/// wirelength the quantization cost, weighting critical nets.
struct SwapStage;

impl Stage<BackArtifacts<'_>> for SwapStage {
    fn id(&self) -> StageId {
        StageId::Swap
    }

    fn run(
        &self,
        _env: &StageEnv<'_>,
        store: &mut BackArtifacts<'_>,
        _attempt: usize,
    ) -> Result<StageStats, FlowError> {
        let front = store.front;
        let netlist = &front.netlist;
        let sta = store.front_sta.as_ref().expect("pack timed the front-end");
        let swap_cfg = vpga_pack::SwapConfig {
            net_weights: Some(sta.net_weights()),
            ..vpga_pack::SwapConfig::default()
        };
        let BackArtifacts {
            array, b_placement, ..
        } = store;
        let (Some(array), Some(b_placement)) = (array.as_mut(), b_placement.as_mut()) else {
            unreachable!("swap runs after packing")
        };
        let (_, swap_stats) = vpga_pack::swap_optimize(array, netlist, b_placement, &swap_cfg);
        Ok(
            StageStats::new(StageId::Swap, Duration::ZERO, front.cells, nets(netlist))
                .with_cost(swap_stats.cost_initial, swap_stats.cost_final)
                .with_moves(swap_stats.moves_attempted, swap_stats.moves_accepted),
        )
    }

    fn audit(&self, env: &StageEnv<'_>, store: &BackArtifacts<'_>) -> Result<(), AuditError> {
        let array = store.array.as_ref().expect("pack produced an array");
        audit::audit_pack(&store.front.netlist, env.arch, array)
    }
}

/// Routing — over the flat placement (flow a) or the PLB grid (flow b,
/// one tile per PLB). Retries double the negotiation-iteration budget
/// (deterministic — no reseeding; the router is seedless).
struct RouteStage {
    variant: FlowVariant,
}

impl Stage<BackArtifacts<'_>> for RouteStage {
    fn id(&self) -> StageId {
        StageId::Route
    }

    fn retryable(&self) -> bool {
        true
    }

    fn run(
        &self,
        env: &StageEnv<'_>,
        store: &mut BackArtifacts<'_>,
        attempt: usize,
    ) -> Result<StageStats, FlowError> {
        let front = store.front;
        let netlist = &front.netlist;
        // Auditing the router and `.vxdl` emission both need the per-net
        // tile paths retained; the routes themselves never enter a
        // fingerprint, so this cannot perturb determinism checks.
        let base = RouteConfig {
            keep_routes: env.config.route.keep_routes
                || env.config.audit
                || env.config.emit.xdl_dir.is_some(),
            tile_size: match self.variant {
                FlowVariant::A => env.config.route.tile_size,
                FlowVariant::B => Some(store.array.as_ref().expect("flow b packed").plb_pitch()),
            },
            ..env.config.route.clone()
        };
        let cfg = RouteConfig {
            max_iterations: base.max_iterations.saturating_mul(1 << attempt.min(16)),
            ..base
        };
        let placement = store.routing_placement(self.variant);
        let routing = vpga_route::route(netlist, placement, &cfg)?;
        let stats = StageStats::new(StageId::Route, Duration::ZERO, front.cells, nets(netlist))
            .with_reroutes(
                routing.total_reroutes() as u64,
                routing.nets_routed() as u64,
                routing.iterations_used() as u64,
            );
        store.routing = Some(routing);
        Ok(stats)
    }

    fn audit(&self, env: &StageEnv<'_>, store: &BackArtifacts<'_>) -> Result<(), AuditError> {
        let routing = store.routing.as_ref().expect("route produced a result");
        audit::audit_route(
            &store.front.netlist,
            store.routing_placement(self.variant),
            routing,
            env.config.route.channel_capacity,
        )
    }
}

/// Post-route static timing analysis and power estimation: one full pass
/// over the routed wirelengths.
struct TimingStage {
    variant: FlowVariant,
}

impl Stage<BackArtifacts<'_>> for TimingStage {
    fn id(&self) -> StageId {
        StageId::Timing
    }

    fn run(
        &self,
        env: &StageEnv<'_>,
        store: &mut BackArtifacts<'_>,
        _attempt: usize,
    ) -> Result<StageStats, FlowError> {
        let front = store.front;
        let netlist = &front.netlist;
        let lib = env.arch.library();
        let placement = store.routing_placement(self.variant);
        let routing = store.routing.as_ref().expect("route produced a result");
        let sta = vpga_timing::analyze(netlist, lib, placement, Some(routing))?;
        let power = vpga_timing::power::estimate(netlist, lib, placement, Some(routing));
        let stats = StageStats::new(StageId::Timing, Duration::ZERO, front.cells, nets(netlist))
            .with_sta(1);
        if env.config.emit.is_active() {
            crate::emit::emit_back_artifacts(
                &env.config.emit,
                env.job,
                netlist,
                lib,
                placement,
                Some(routing),
            );
        }
        store.power_mw = Some(power.total() * 1e3);
        store.sta_report = Some(sta);
        Ok(stats)
    }

    fn pre_audit(&self, env: &StageEnv<'_>, store: &BackArtifacts<'_>) -> Result<(), AuditError> {
        audit::audit_sta_ready(&store.front.netlist, env.arch.library())
    }
}
