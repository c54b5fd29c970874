//! PLB-level detailed placement: simulated-annealing swaps of whole PLB
//! contents after packing.
//!
//! Legalization quantizes the ASIC placement to PLB centres, which costs
//! wirelength. Because every PLB of the array has identical capacity,
//! exchanging the *entire contents* of two PLBs is always legal, so a
//! cheap annealer over whole-PLB swaps recovers much of the loss — the
//! array-side half of the §3.1 "minimize perturbation" objective.
//!
//! The annealer works on flat rows built once per call: each tracked
//! net's placed pins as a CSR row of dense cell indices, pin positions by
//! cell, and each PLB's sorted net list. Every attempt moves the swapped
//! cells' pin positions and recomputes each touched net from its row, so
//! an attempt allocates nothing. Accept decisions, RNG consumption, and
//! every cost are bit-identical to the direct recompute-over-the-placement
//! formulation, which lives on as the oracle of the equivalence tests:
//! the rows hold the same placed pins, and the nets they leave out (no
//! driver, a constant driver, fewer than two placed pins, or no movable
//! pin) have a statically zero cost — with the non-negative weights the
//! flow supplies they add exactly `+0.0` to the direct formulation's sums,
//! the additive identity at every partial sum it forms. The array and the
//! placement are written once, after the anneal; instead of a snapshot per
//! improvement, the accepted swaps since the best state are logged and
//! undone at the end.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vpga_netlist::{CellId, CellKind, NetId, Netlist};
use vpga_place::Placement;

use crate::array::PlbArray;

/// Tunables for [`swap_optimize`].
#[derive(Clone, Debug)]
pub struct SwapConfig {
    /// RNG seed.
    pub seed: u64,
    /// Swap attempts per PLB per temperature step.
    pub moves_per_plb: usize,
    /// Per-net weights (timing criticality); `None` = uniform.
    pub net_weights: Option<Vec<f64>>,
}

impl Default for SwapConfig {
    fn default() -> SwapConfig {
        SwapConfig {
            seed: 11,
            moves_per_plb: 6,
            net_weights: None,
        }
    }
}

/// Mover/acceptance counters and cost bookkeeping from one PLB-swap
/// anneal — the per-stage instrumentation the flow executor reports.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SwapStats {
    /// Swap attempts (pairs drawn, excluding p == q draws).
    pub moves_attempted: u64,
    /// Accepted swaps.
    pub moves_accepted: u64,
    /// Temperature rounds run.
    pub rounds: u32,
    /// Weighted-HPWL cost before swapping.
    pub cost_initial: f64,
    /// Weighted-HPWL cost after swapping.
    pub cost_final: f64,
}

/// Anneals whole-PLB content swaps to minimize (criticality-weighted)
/// wirelength; updates both the array's assignments and the placement's
/// positions. Returns the fractional wirelength reduction achieved and the
/// annealer's [`SwapStats`].
///
/// # Panics
///
/// Panics if `placement` has not been updated to the array (run
/// [`crate::apply_to_placement`] first).
pub fn swap_optimize(
    array: &mut PlbArray,
    netlist: &Netlist,
    placement: &mut Placement,
    config: &SwapConfig,
) -> (f64, SwapStats) {
    let mut stats = SwapStats::default();
    let n_plbs = array.len();
    if n_plbs < 2 {
        return (0.0, stats);
    }
    let mut rows = SwapRows::build(array, netlist, placement, config);
    let initial = rows.initial;
    stats.cost_initial = initial;
    stats.cost_final = initial;
    if initial <= 0.0 {
        return (0.0, stats);
    }
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut t = initial / n_plbs as f64; // gentle start
    let moves = config.moves_per_plb * n_plbs;
    let mut current = initial;
    let mut best_cost = initial;
    let mut since_best: Vec<(usize, usize)> = Vec::new();
    let mut affected: Vec<u32> = Vec::new();
    let mut after_cost: Vec<f64> = Vec::new();
    for round in 0..72 {
        let greedy = round >= 60; // zero-temperature tail
        let mut accepted = 0usize;
        for _ in 0..moves {
            let p = rng.gen_range(0..n_plbs);
            let q = rng.gen_range(0..n_plbs);
            if p == q {
                continue;
            }
            stats.moves_attempted += 1;
            merge_into(&rows.plb_nets[p], &rows.plb_nets[q], &mut affected);
            let before: f64 = affected.iter().map(|&n| rows.net_cost[n as usize]).sum();
            rows.seat(p, array.plb_center(q));
            rows.seat(q, array.plb_center(p));
            after_cost.clear();
            after_cost.extend(affected.iter().map(|&n| rows.cost(n)));
            let after: f64 = after_cost.iter().sum();
            let delta = after - before;
            let accept = if greedy {
                delta < 0.0
            } else {
                delta <= 0.0 || rng.gen::<f64>() < (-delta / t.max(1e-9)).exp()
            };
            if accept {
                for (&n, &cost) in affected.iter().zip(&after_cost) {
                    rows.net_cost[n as usize] = cost;
                }
                rows.cells_of.swap(p, q);
                rows.plb_nets.swap(p, q);
                current += delta;
                accepted += 1;
                since_best.push((p, q));
                if current < best_cost {
                    best_cost = current;
                    since_best.clear();
                }
            } else {
                // Revert: each cell list returns to its home PLB.
                rows.seat(p, array.plb_center(p));
                rows.seat(q, array.plb_center(q));
            }
        }
        stats.moves_accepted += accepted as u64;
        stats.rounds += 1;
        t *= 0.85;
        if greedy && accepted == 0 {
            break;
        }
    }
    // Restore the best configuration seen, then write the result back
    // into the array and the placement in one pass.
    if current > best_cost {
        for &(p, q) in since_best.iter().rev() {
            rows.cells_of.swap(p, q);
        }
    }
    for (ix, cells) in rows.cells_of.iter().enumerate() {
        seat_cells(array, placement, cells, ix);
    }
    let final_cost: f64 = best_cost.min(current);
    let real: f64 = (0..netlist.net_capacity())
        .map(|i| rows.weights[i] * placement.net_hpwl(netlist, NetId::from_index(i)))
        .sum();
    debug_assert!(
        (final_cost - real).abs() < 1e-6 * real.max(1.0) + 1e-6,
        "incremental cost drift: tracked {final_cost} vs real {real}"
    );
    stats.cost_final = final_cost;
    (1.0 - final_cost / initial, stats)
}

/// Merges two sorted, deduplicated id lists into `out` (sorted,
/// deduplicated).
fn merge_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// What the annealer builds once per call. A net is *tracked* when it has
/// a non-constant driver, at least two placed pin occurrences, and at
/// least one movable pin; every other net has a statically zero cost.
struct SwapRows {
    /// Cells per PLB.
    cells_of: Vec<Vec<CellId>>,
    weights: Vec<f64>,
    /// Weighted HPWL per net (all nets), from the placement.
    net_cost: Vec<f64>,
    initial: f64,
    /// Pin positions by cell index (movable cells and static port pins).
    pos_x: Vec<f64>,
    pos_y: Vec<f64>,
    /// Net index → tracked id.
    net_tid: Vec<u32>,
    /// Placed pins per tracked net, CSR, deduplicated cells.
    pin_off: Vec<u32>,
    pin_cell: Vec<u32>,
    /// Tracked nets (as net indices) per PLB, sorted and deduplicated.
    plb_nets: Vec<Vec<u32>>,
}

impl SwapRows {
    fn build(
        array: &PlbArray,
        netlist: &Netlist,
        placement: &Placement,
        config: &SwapConfig,
    ) -> SwapRows {
        let n_plbs = array.len();
        let mut cells_of: Vec<Vec<CellId>> = vec![Vec::new(); n_plbs];
        for (id, cell) in netlist.cells() {
            if cell.lib_id().is_none() {
                continue;
            }
            if let Some(ix) = array.plb_of(id) {
                cells_of[ix].push(id);
            }
        }
        let mut weights = vec![1.0f64; netlist.net_capacity()];
        if let Some(w) = &config.net_weights {
            for (i, &v) in w.iter().enumerate().take(weights.len()) {
                weights[i] = v;
            }
        }
        let net_cost: Vec<f64> = (0..netlist.net_capacity())
            .map(|i| weights[i] * placement.net_hpwl(netlist, NetId::from_index(i)))
            .collect();
        let initial: f64 = net_cost.iter().sum();
        let cell_cap = netlist.cell_capacity();
        let mut movable_home = vec![u32::MAX; cell_cap];
        for (ix, cells) in cells_of.iter().enumerate() {
            for &c in cells {
                movable_home[c.index()] = ix as u32;
            }
        }
        let mut net_tid = vec![u32::MAX; netlist.net_capacity()];
        let mut tid_net: Vec<u32> = Vec::new();
        let mut pin_off: Vec<u32> = vec![0];
        let mut pin_cell: Vec<u32> = Vec::new();
        let mut pos_x = vec![0.0f64; cell_cap];
        let mut pos_y = vec![0.0f64; cell_cap];
        let mut occurrences: Vec<u32> = Vec::new();
        for net in netlist.nets() {
            let Some(driver) = netlist.driver(net) else {
                continue;
            };
            if matches!(
                netlist.cell(driver).map(|c| c.kind()),
                Some(CellKind::Constant(_))
            ) {
                continue;
            }
            occurrences.clear();
            if placement.position(driver).is_some() {
                occurrences.push(driver.index() as u32);
            }
            for &(sink, _) in netlist.sinks(net) {
                if placement.position(sink).is_some() {
                    occurrences.push(sink.index() as u32);
                }
            }
            if occurrences.len() < 2 {
                continue;
            }
            if !occurrences
                .iter()
                .any(|&c| movable_home[c as usize] != u32::MAX)
            {
                continue; // static net: its cached cost never changes
            }
            net_tid[net.index()] = tid_net.len() as u32;
            tid_net.push(net.index() as u32);
            occurrences.sort_unstable();
            occurrences.dedup();
            for &c in &occurrences {
                let (x, y) = placement
                    .position(CellId::from_index(c as usize))
                    .expect("checked placed");
                pos_x[c as usize] = x;
                pos_y[c as usize] = y;
                pin_cell.push(c);
            }
            pin_off.push(pin_cell.len() as u32);
        }
        let mut plb_nets: Vec<Vec<u32>> = vec![Vec::new(); n_plbs];
        for (tid, &net) in tid_net.iter().enumerate() {
            for &c in &pin_cell[pin_off[tid] as usize..pin_off[tid + 1] as usize] {
                let home = movable_home[c as usize];
                if home != u32::MAX {
                    plb_nets[home as usize].push(net);
                }
            }
        }
        for list in &mut plb_nets {
            list.sort_unstable();
            list.dedup();
        }
        SwapRows {
            cells_of,
            weights,
            net_cost,
            initial,
            pos_x,
            pos_y,
            net_tid,
            pin_off,
            pin_cell,
            plb_nets,
        }
    }

    /// Weighted HPWL of tracked net `net` from its pin row: the same
    /// min/max over the same placed pins, in the same expression, as
    /// [`Placement::net_hpwl`] times the weight.
    fn cost(&self, net: u32) -> f64 {
        let tid = self.net_tid[net as usize] as usize;
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for &c in &self.pin_cell[self.pin_off[tid] as usize..self.pin_off[tid + 1] as usize] {
            let (x, y) = (self.pos_x[c as usize], self.pos_y[c as usize]);
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
        self.weights[net as usize] * ((max_x - min_x) + (max_y - min_y))
    }

    /// Moves the cells of PLB `ix` to `(x, y)`.
    fn seat(&mut self, ix: usize, (x, y): (f64, f64)) {
        for &c in &self.cells_of[ix] {
            self.pos_x[c.index()] = x;
            self.pos_y[c.index()] = y;
        }
    }
}

/// Seats a list of cells in PLB `ix` (position + assignment). Occupancy
/// stays consistent because whole-PLB contents move wholesale and every PLB
/// has identical capacity; the PlbInstance occupancy tables are only
/// consulted during packing.
fn seat_cells(array: &mut PlbArray, placement: &mut Placement, cells: &[CellId], ix: usize) {
    let (x, y) = array.plb_center(ix);
    for &cell in cells {
        placement.set_position(cell, x, y);
        array.assign(cell, ix);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadrisect::{apply_to_placement, pack, PackConfig};
    use vpga_core::PlbArchitecture;
    use vpga_netlist::library::generic;
    use vpga_place::PlaceConfig;

    #[test]
    fn swapping_reduces_wirelength_after_packing() {
        let arch = PlbArchitecture::granular();
        let src = generic::library();
        let design = vpga_designs::NamedDesign::Alu.generate(&vpga_designs::DesignParams::tiny());
        let mapped = vpga_synth::map_netlist_fast(&design, &src, &arch).unwrap();
        let (mut placement, _) =
            vpga_place::place(&mapped, arch.library(), &PlaceConfig::default()).unwrap();
        let (mut array, _) =
            pack(&mapped, &arch, &placement, &PackConfig::default(), None).unwrap();
        apply_to_placement(&array, &mapped, &mut placement);
        let before = placement.total_hpwl(&mapped);
        let (gain, _) = swap_optimize(&mut array, &mapped, &mut placement, &SwapConfig::default());
        let after = placement.total_hpwl(&mapped);
        assert!(
            after <= before + 1e-6,
            "swap must not worsen: {before} → {after}"
        );
        assert!(gain >= 0.0);
        // Assignments stay consistent with positions.
        for (id, cell) in mapped.cells() {
            if cell.lib_id().is_none() {
                continue;
            }
            let ix = array.plb_of(id).expect("assigned");
            assert_eq!(placement.position(id), Some(array.plb_center(ix)));
        }
    }

    #[test]
    fn single_plb_arrays_are_a_noop() {
        let arch = PlbArchitecture::granular();
        let src = generic::library();
        let mut n = vpga_netlist::Netlist::new("one");
        let a = n.add_input("a");
        let g = n.add_lib_cell("g", &src, "INV", &[a]).unwrap();
        n.add_output("y", g);
        let mapped = vpga_synth::map_netlist_fast(&n, &src, &arch).unwrap();
        let (mut placement, _) =
            vpga_place::place(&mapped, arch.library(), &PlaceConfig::default()).unwrap();
        let (mut array, _) =
            pack(&mapped, &arch, &placement, &PackConfig::default(), None).unwrap();
        apply_to_placement(&array, &mapped, &mut placement);
        let (gain, _) = swap_optimize(&mut array, &mapped, &mut placement, &SwapConfig::default());
        assert_eq!(gain, 0.0);
    }
}
