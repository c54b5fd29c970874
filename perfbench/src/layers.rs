//! Per-layer metrics of the flow stages, folded from the `StageStats`
//! records `run_design` returns.

use vpga::flow::{DesignOutcome, StageId, StageStats};

use crate::report::{ratio, Outcome};

/// Sums the stage records of `cells` — each a `run_design` outcome with
/// the wall of its call, s — into the stage and flow metrics.
pub fn stage_metrics(out: &mut Outcome, cells: &[(f64, &DesignOutcome)]) {
    let busy = |id: StageId| -> f64 {
        all_stages(cells)
            .filter(|s| s.stage == id)
            .map(|s| s.wall.as_secs_f64())
            .sum()
    };
    let synth = busy(StageId::Synth);
    let compact = busy(StageId::Compact);
    let place = busy(StageId::Place);
    let physsynth = busy(StageId::PhysSynth);
    let pack = busy(StageId::Pack);
    let swap = busy(StageId::Swap);
    let route = busy(StageId::Route);
    let sta = busy(StageId::Timing);
    let staged = synth + compact + place + physsynth + pack + swap + route + sta;
    let cell_walls: Vec<f64> = cells.iter().map(|&(wall, _)| wall).collect();
    out.set("synth.busy_s", synth);
    out.set("compact.busy_s", compact);
    out.set("place.busy_s", place);
    out.set("physsynth.busy_s", physsynth);
    out.set("pack.busy_s", pack);
    out.set("swap.busy_s", swap);
    out.set("route.busy_s", route);
    out.set("sta.busy_s", sta);
    out.set("flow.self_s", cell_walls.iter().sum::<f64>() - staged);
    out.set(
        "flow.cell_max_s",
        cell_walls.iter().copied().fold(0.0, f64::max),
    );

    let sum = |id: StageId, field: fn(&StageStats) -> Option<u64>| -> f64 {
        all_stages(cells)
            .filter(|s| s.stage == id)
            .filter_map(field)
            .sum::<u64>() as f64
    };
    let place_moves = sum(StageId::Place, |s| s.moves_attempted);
    out.set("place.moves", place_moves);
    out.set(
        "place.accept_ratio",
        ratio(sum(StageId::Place, |s| s.moves_accepted), place_moves),
    );
    let bbox_full = sum(StageId::Place, |s| s.bbox_full);
    out.set(
        "place.bbox_full_ratio",
        ratio(
            bbox_full,
            bbox_full + sum(StageId::Place, |s| s.bbox_incremental),
        ),
    );
    let phys_moves = sum(StageId::PhysSynth, |s| s.moves_attempted);
    out.set("physsynth.moves", phys_moves);
    out.set(
        "physsynth.accept_ratio",
        ratio(sum(StageId::PhysSynth, |s| s.moves_accepted), phys_moves),
    );
    let cells_at = |id: StageId| -> f64 {
        cells
            .iter()
            .flat_map(|(_, o)| &o.front_stages)
            .filter(|s| s.stage == id)
            .map(|s| s.cells as f64)
            .sum()
    };
    out.set(
        "physsynth.cells_added",
        cells_at(StageId::PhysSynth) - cells_at(StageId::Place),
    );
    out.set(
        "compact.cells_removed",
        cells
            .iter()
            .filter_map(|(_, o)| o.compaction.as_ref())
            .map(|c| c.cells_before.saturating_sub(c.cells_after) as f64)
            .sum(),
    );
    out.set("pack.relocations", sum(StageId::Pack, |s| s.moves_accepted));
    let swap_moves = sum(StageId::Swap, |s| s.moves_attempted);
    out.set("swap.moves", swap_moves);
    out.set(
        "swap.accept_ratio",
        ratio(sum(StageId::Swap, |s| s.moves_accepted), swap_moves),
    );
    let nets = sum(StageId::Route, |s| s.nets_total);
    let reroutes = sum(StageId::Route, |s| s.nets_rerouted);
    out.set("route.nets", nets);
    out.set("route.reroutes", reroutes);
    out.set("route.reroute_ratio", ratio(reroutes, nets));
    out.set(
        "route.overflow_edges",
        cells
            .iter()
            .map(|(_, o)| (o.flow_a.route_overflow + o.flow_b.route_overflow) as f64)
            .sum(),
    );
    let every = |field: fn(&StageStats) -> Option<u64>| -> f64 {
        all_stages(cells).filter_map(field).sum::<u64>() as f64
    };
    out.set("sta.full_passes", every(|s| s.sta_full));
    out.set("sta.nodes_touched", every(|s| s.sta_nodes_touched));
}

fn all_stages<'a>(cells: &'a [(f64, &'a DesignOutcome)]) -> impl Iterator<Item = &'a StageStats> {
    cells.iter().flat_map(|(_, o)| {
        o.front_stages
            .iter()
            .chain(&o.flow_a.stages)
            .chain(&o.flow_b.stages)
    })
}

/// One line per stage: its busy time as a share of the summed cell walls.
pub fn print_shares(out: &Outcome) {
    const BUSY: [&str; 9] = [
        "synth.busy_s",
        "compact.busy_s",
        "place.busy_s",
        "physsynth.busy_s",
        "pack.busy_s",
        "swap.busy_s",
        "route.busy_s",
        "sta.busy_s",
        "flow.self_s",
    ];
    let total: f64 = BUSY.iter().map(|&m| out.metrics[m]).sum();
    println!("share of the summed cell walls ({total:.3} s):");
    for m in BUSY {
        let busy = out.metrics[m];
        println!(
            "  {m:<18} {:>5.1} %  {busy:.3} s",
            100.0 * ratio(busy, total)
        );
    }
}
