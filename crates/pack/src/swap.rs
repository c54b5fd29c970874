//! PLB-level detailed placement: simulated-annealing swaps of whole PLB
//! contents after packing.
//!
//! Legalization quantizes the ASIC placement to PLB centres, which costs
//! wirelength. Because every PLB of the array has identical capacity,
//! exchanging the *entire contents* of two PLBs is always legal, so a
//! cheap annealer over whole-PLB swaps recovers much of the loss — the
//! array-side half of the §3.1 "minimize perturbation" objective.
//!
//! Both engines work on flat rows built once per call: each tracked net's
//! placed pins as a CSR row of dense cell indices, pin positions by cell,
//! and each PLB's sorted net list. The recompute engine
//! ([`SwapConfig::delta_cost`]` = false`, the one the flow runs after
//! physical synthesis) recomputes every touched net from its row. The
//! delta engine evaluates each swap against cached per-net bounding boxes
//! with boundary-pin counts (the same structure as the placement
//! annealer's incremental cost): moving a pin extends the box in place,
//! and only when the last pin on a boundary vacates is the net's pin list
//! rescanned; a journal of first-touch snapshots rolls rejected moves
//! back. Accept decisions, RNG consumption, and every cost in between are
//! bit-identical across both engines and the direct
//! recompute-over-the-placement formulation, which lives on as the oracle
//! of the equivalence tests.

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
    /// Evaluate swaps against cached per-net bounding boxes instead of
    /// recomputing each touched net from its pin row. Results are
    /// bit-identical either way.
    pub delta_cost: bool,
    /// Nets with at most this many placed pin occurrences skip the
    /// incremental boundary-count maintenance and go straight to an exact
    /// pin rescan when touched — the same small-net economics as the
    /// placement annealer's rescan cutoff (DESIGN.md §9). On 2–4-pin nets
    /// the vacate/extend bookkeeping costs more than rescanning the pin
    /// list, and post-physical-synthesis workloads are dominated by such
    /// nets. Exact either way, so results stay bit-identical; `0` forces
    /// every net through the incremental path.
    pub small_net_pins: usize,
}

impl Default for SwapConfig {
    fn default() -> SwapConfig {
        SwapConfig {
            seed: 11,
            moves_per_plb: 6,
            net_weights: None,
            delta_cost: true,
            small_net_pins: 4,
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
    /// Net evaluations answered by an incremental bounding-box update
    /// (delta engine only).
    pub delta_evals: u64,
    /// Net evaluations that fell back to a full pin rescan because the
    /// last pin on a box boundary vacated (delta engine only).
    pub bbox_rescans: u64,
}

/// Anneals whole-PLB content swaps to minimize (criticality-weighted)
/// wirelength; updates both the array's assignments and the placement's
/// positions. Returns the fractional wirelength reduction achieved.
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
) -> f64 {
    swap_optimize_with_stats(array, netlist, placement, config).0
}

/// [`swap_optimize`], also returning the annealer's [`SwapStats`].
///
/// # Panics
///
/// Panics if `placement` has not been updated to the array (run
/// [`crate::apply_to_placement`] first).
pub fn swap_optimize_with_stats(
    array: &mut PlbArray,
    netlist: &Netlist,
    placement: &mut Placement,
    config: &SwapConfig,
) -> (f64, SwapStats) {
    if config.delta_cost {
        swap_delta(array, netlist, placement, config)
    } else {
        swap_recompute(array, netlist, placement, config)
    }
}

/// Cached bounding box of one tracked net: extents plus the number of pin
/// occurrences sitting exactly on each boundary. `dirty` marks a vacated
/// boundary; the box is rebuilt from the pin list before it is next read.
#[derive(Clone, Copy)]
struct NetBox {
    min_x: f64,
    max_x: f64,
    min_y: f64,
    max_y: f64,
    n_min_x: u32,
    n_max_x: u32,
    n_min_y: u32,
    n_max_y: u32,
    dirty: bool,
}

/// The delta-cost evaluation state: dense pin positions, per-net cached
/// boxes and costs, the cell → net reference CSR, and the first-touch
/// rollback journal.
struct Engine {
    weights: Vec<f64>,
    /// Cost per net (all nets; only tracked ones are ever rewritten) —
    /// mirrors the legacy engine's `net_cost` cache.
    net_cost: Vec<f64>,
    /// Pin positions by cell index (movable cells and static port pins).
    pos_x: Vec<f64>,
    pos_y: Vec<f64>,
    /// Tracked nets (active HPWL, at least one movable pin): net index →
    /// tracked id and back.
    net_tid: Vec<u32>,
    tid_net: Vec<u32>,
    /// Placed pins per tracked net, CSR, deduplicated cells with
    /// occurrence multiplicity.
    pin_off: Vec<u32>,
    pin_cell: Vec<u32>,
    pin_mult: Vec<u32>,
    /// Tracked nets referenced per movable cell, CSR, with that cell's
    /// pin multiplicity on the net.
    ref_off: Vec<u32>,
    ref_tid: Vec<u32>,
    ref_mult: Vec<u32>,
    boxes: Vec<NetBox>,
    /// Tracked nets at/below [`SwapConfig::small_net_pins`]: touched boxes
    /// are dirtied for rescan instead of updated in place.
    small: Vec<bool>,
    /// Attempt stamp per tracked net, and the journal of (tid, box, cost)
    /// snapshots taken at first touch within an attempt.
    stamp: Vec<u32>,
    journal: Vec<(u32, NetBox, f64)>,
    /// Cost-only journal for small nets: their boxes are rescanned before
    /// the next read anyway, so rollback re-dirties instead of restoring.
    journal_small: Vec<(u32, f64)>,
}

impl Engine {
    /// Rebuilds one net's box from its pin list.
    fn rescan(&mut self, tid: usize) {
        let lo = self.pin_off[tid] as usize;
        let hi = self.pin_off[tid + 1] as usize;
        let mut b = NetBox {
            min_x: f64::INFINITY,
            max_x: f64::NEG_INFINITY,
            min_y: f64::INFINITY,
            max_y: f64::NEG_INFINITY,
            n_min_x: 0,
            n_max_x: 0,
            n_min_y: 0,
            n_max_y: 0,
            dirty: false,
        };
        for i in lo..hi {
            let c = self.pin_cell[i] as usize;
            let m = self.pin_mult[i];
            let (x, y) = (self.pos_x[c], self.pos_y[c]);
            if x < b.min_x {
                b.min_x = x;
                b.n_min_x = m;
            } else if x == b.min_x {
                b.n_min_x += m;
            }
            if x > b.max_x {
                b.max_x = x;
                b.n_max_x = m;
            } else if x == b.max_x {
                b.n_max_x += m;
            }
            if y < b.min_y {
                b.min_y = y;
                b.n_min_y = m;
            } else if y == b.min_y {
                b.n_min_y += m;
            }
            if y > b.max_y {
                b.max_y = y;
                b.n_max_y = m;
            } else if y == b.max_y {
                b.n_max_y += m;
            }
        }
        self.boxes[tid] = b;
    }

    /// Moves one pin cell, updating every referencing net's box in place
    /// (journaling each net's pre-attempt state at first touch).
    fn move_cell(&mut self, c: usize, nx: f64, ny: f64, cur: u32) {
        let (ox, oy) = (self.pos_x[c], self.pos_y[c]);
        let lo = self.ref_off[c] as usize;
        let hi = self.ref_off[c + 1] as usize;
        for r in lo..hi {
            let tid = self.ref_tid[r] as usize;
            let mult = self.ref_mult[r];
            if self.stamp[tid] != cur {
                self.stamp[tid] = cur;
                let cost = self.net_cost[self.tid_net[tid] as usize];
                if self.small[tid] {
                    // Below the cutoff the rescan is cheaper than
                    // maintaining the boundary counts: dirty the box for
                    // an exact rescan (which recomputes the same box, so
                    // costs are unchanged) and journal only the cost.
                    self.journal_small.push((tid as u32, cost));
                    self.boxes[tid].dirty = true;
                    continue;
                }
                self.journal.push((tid as u32, self.boxes[tid], cost));
            }
            let b = &mut self.boxes[tid];
            if b.dirty {
                continue; // rebuilt from the pin list before the next read
            }
            // Vacate the old position from any boundary it sat on.
            if ox == b.min_x {
                b.n_min_x -= mult;
            }
            if ox == b.max_x {
                b.n_max_x -= mult;
            }
            if oy == b.min_y {
                b.n_min_y -= mult;
            }
            if oy == b.max_y {
                b.n_max_y -= mult;
            }
            if b.n_min_x == 0 || b.n_max_x == 0 || b.n_min_y == 0 || b.n_max_y == 0 {
                // Last pin on a boundary left: the new extent is unknown
                // without a rescan.
                b.dirty = true;
                continue;
            }
            // Extend with the new position (exact: min/max over a
            // multiset commutes with insertion).
            if nx < b.min_x {
                b.min_x = nx;
                b.n_min_x = mult;
            } else if nx == b.min_x {
                b.n_min_x += mult;
            }
            if nx > b.max_x {
                b.max_x = nx;
                b.n_max_x = mult;
            } else if nx == b.max_x {
                b.n_max_x += mult;
            }
            if ny < b.min_y {
                b.min_y = ny;
                b.n_min_y = mult;
            } else if ny == b.min_y {
                b.n_min_y += mult;
            }
            if ny > b.max_y {
                b.max_y = ny;
                b.n_max_y = mult;
            } else if ny == b.max_y {
                b.n_max_y += mult;
            }
        }
        self.pos_x[c] = nx;
        self.pos_y[c] = ny;
    }

    /// Restores every journaled net and clears the journal. Small nets
    /// get their cost back and stay dirty — the rescan before the next
    /// read rebuilds the box from the restored positions.
    fn rollback(&mut self) {
        while let Some((tid, b, cost)) = self.journal.pop() {
            self.net_cost[self.tid_net[tid as usize] as usize] = cost;
            self.boxes[tid as usize] = b;
        }
        while let Some((tid, cost)) = self.journal_small.pop() {
            self.net_cost[self.tid_net[tid as usize] as usize] = cost;
            self.boxes[tid as usize].dirty = true;
        }
    }
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

/// What both engines build once per call. A net is *tracked* when it has
/// a non-constant driver, at least two placed pin occurrences, and at
/// least one movable pin; every other net has a statically zero cost.
struct SwapRows {
    /// Cells per PLB.
    cells_of: Vec<Vec<CellId>>,
    weights: Vec<f64>,
    /// Weighted HPWL per net (all nets), from the placement.
    net_cost: Vec<f64>,
    initial: f64,
    /// Home PLB per movable cell index, `u32::MAX` for static cells.
    movable_home: Vec<u32>,
    /// Pin positions by cell index (movable cells and static port pins).
    pos_x: Vec<f64>,
    pos_y: Vec<f64>,
    /// Net index → tracked id and back.
    net_tid: Vec<u32>,
    tid_net: Vec<u32>,
    /// Placed pins per tracked net, CSR, deduplicated cells with
    /// occurrence multiplicity.
    pin_off: Vec<u32>,
    pin_cell: Vec<u32>,
    pin_mult: Vec<u32>,
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
        let mut pin_mult: Vec<u32> = Vec::new();
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
            let mut i = 0;
            while i < occurrences.len() {
                let c = occurrences[i];
                let mut m = 1u32;
                while i + (m as usize) < occurrences.len() && occurrences[i + m as usize] == c {
                    m += 1;
                }
                let (x, y) = placement
                    .position(CellId::from_index(c as usize))
                    .expect("checked placed");
                pos_x[c as usize] = x;
                pos_y[c as usize] = y;
                pin_cell.push(c);
                pin_mult.push(m);
                i += m as usize;
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
            movable_home,
            pos_x,
            pos_y,
            net_tid,
            tid_net,
            pin_off,
            pin_cell,
            pin_mult,
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

/// The delta-cost engine. Nets with a statically zero cost (no driver, a
/// constant driver, fewer than two placed pins, or no movable pin) are
/// excluded from the per-attempt sums, as in the recompute engine; with
/// the non-negative weights the flow supplies they contribute exactly
/// `+0.0` to the direct formulation's sums, which is the additive identity
/// at every partial sum it forms, so the deltas agree bit-for-bit.
fn swap_delta(
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
    let SwapRows {
        mut cells_of,
        weights,
        net_cost,
        initial,
        movable_home,
        pos_x,
        pos_y,
        net_tid,
        tid_net,
        pin_off,
        pin_cell,
        pin_mult,
        mut plb_nets,
    } = SwapRows::build(array, netlist, placement, config);
    stats.cost_initial = initial;
    stats.cost_final = initial;
    if initial <= 0.0 {
        return (0.0, stats);
    }
    // --- Engine construction ---------------------------------------
    let cell_cap = netlist.cell_capacity();
    let n_tracked = tid_net.len();
    // Cell → tracked-net references.
    let mut pairs: Vec<(u32, u32, u32)> = Vec::new(); // (cell, tid, mult)
    for tid in 0..n_tracked {
        for i in pin_off[tid] as usize..pin_off[tid + 1] as usize {
            let c = pin_cell[i];
            if movable_home[c as usize] != u32::MAX {
                pairs.push((c, tid as u32, pin_mult[i]));
            }
        }
    }
    pairs.sort_unstable();
    let mut ref_off = vec![0u32; cell_cap + 1];
    for &(c, _, _) in &pairs {
        ref_off[c as usize + 1] += 1;
    }
    for i in 0..cell_cap {
        ref_off[i + 1] += ref_off[i];
    }
    let ref_tid: Vec<u32> = pairs.iter().map(|&(_, t, _)| t).collect();
    let ref_mult: Vec<u32> = pairs.iter().map(|&(_, _, m)| m).collect();
    let small: Vec<bool> = (0..n_tracked)
        .map(|tid| {
            let occupancy: u32 = pin_mult[pin_off[tid] as usize..pin_off[tid + 1] as usize]
                .iter()
                .sum();
            (occupancy as usize) <= config.small_net_pins
        })
        .collect();
    let mut eng = Engine {
        weights,
        net_cost,
        pos_x,
        pos_y,
        net_tid,
        tid_net,
        pin_off,
        pin_cell,
        pin_mult,
        ref_off,
        ref_tid,
        ref_mult,
        boxes: Vec::new(),
        small,
        stamp: vec![0u32; n_tracked],
        journal: Vec::new(),
        journal_small: Vec::new(),
    };
    eng.boxes = vec![
        NetBox {
            min_x: 0.0,
            max_x: 0.0,
            min_y: 0.0,
            max_y: 0.0,
            n_min_x: 0,
            n_max_x: 0,
            n_min_y: 0,
            n_max_y: 0,
            dirty: false,
        };
        n_tracked
    ];
    for tid in 0..n_tracked {
        eng.rescan(tid);
        let b = &eng.boxes[tid];
        let net = eng.tid_net[tid] as usize;
        debug_assert!(
            eng.weights[net] * ((b.max_x - b.min_x) + (b.max_y - b.min_y)) == eng.net_cost[net],
            "cached box disagrees with the placement at build time"
        );
    }
    // --- Anneal -----------------------------------------------------
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut t = initial / n_plbs as f64; // gentle start
    let moves = config.moves_per_plb * n_plbs;
    let mut current = initial;
    let mut best_cost = initial;
    let mut best_state = cells_of.clone();
    let mut cur_stamp = 0u32;
    let mut affected: Vec<u32> = Vec::new();
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
            cur_stamp += 1;
            eng.journal.clear();
            eng.journal_small.clear();
            merge_into(&plb_nets[p], &plb_nets[q], &mut affected);
            let before: f64 = affected.iter().map(|&id| eng.net_cost[id as usize]).sum();
            let (qx, qy) = array.plb_center(q);
            let (px, py) = array.plb_center(p);
            for &c in &cells_of[p] {
                eng.move_cell(c.index(), qx, qy, cur_stamp);
            }
            for &c in &cells_of[q] {
                eng.move_cell(c.index(), px, py, cur_stamp);
            }
            let mut after = 0.0f64;
            for &id in &affected {
                let tid = eng.net_tid[id as usize] as usize;
                if eng.boxes[tid].dirty {
                    eng.rescan(tid);
                    stats.bbox_rescans += 1;
                } else {
                    stats.delta_evals += 1;
                }
                let b = &eng.boxes[tid];
                let cost = eng.weights[id as usize] * ((b.max_x - b.min_x) + (b.max_y - b.min_y));
                eng.net_cost[id as usize] = cost;
                after += cost;
            }
            let delta = after - before;
            let accept = if greedy {
                delta < 0.0
            } else {
                delta <= 0.0 || rng.gen::<f64>() < (-delta / t.max(1e-9)).exp()
            };
            if accept {
                cells_of.swap(p, q);
                plb_nets.swap(p, q);
                current += delta;
                accepted += 1;
                if current < best_cost {
                    best_cost = current;
                    best_state = cells_of.clone();
                }
            } else {
                eng.rollback();
                for &c in &cells_of[p] {
                    eng.pos_x[c.index()] = px;
                    eng.pos_y[c.index()] = py;
                }
                for &c in &cells_of[q] {
                    eng.pos_x[c.index()] = qx;
                    eng.pos_y[c.index()] = qy;
                }
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
        cells_of = best_state;
    }
    for (ix, cells) in cells_of.iter().enumerate() {
        seat_cells(array, placement, cells, ix);
    }
    let final_cost: f64 = best_cost.min(current);
    let real: f64 = (0..netlist.net_capacity())
        .map(|i| eng.weights[i] * placement.net_hpwl(netlist, NetId::from_index(i)))
        .sum();
    debug_assert!(
        (final_cost - real).abs() < 1e-6 * real.max(1.0) + 1e-6,
        "incremental cost drift: tracked {final_cost} vs real {real}"
    );
    stats.cost_final = final_cost;
    (1.0 - final_cost / initial, stats)
}

/// The recompute engine: every attempt moves the swapped cells' pin
/// positions and recomputes each touched tracked net from its pin row, so
/// an attempt allocates nothing. Accept decisions, RNG consumption, and
/// every cost are bit-identical to the direct formulation over
/// [`Placement::net_hpwl`] (the oracle in
/// `tests/incremental_equivalence.rs`): the rows hold the same placed
/// pins, and the nets they leave out add `+0.0` to its sums (see
/// [`swap_delta`]). The array and the placement are written once, after
/// the anneal; instead of a snapshot per improvement, the accepted swaps
/// since the best state are logged and undone at the end.
fn swap_recompute(
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
        let mut placement = vpga_place::place(&mapped, arch.library(), &PlaceConfig::default());
        let mut array = pack(&mapped, &arch, &placement, &PackConfig::default()).unwrap();
        apply_to_placement(&array, &mapped, &mut placement);
        let before = placement.total_hpwl(&mapped);
        let gain = swap_optimize(&mut array, &mapped, &mut placement, &SwapConfig::default());
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
        let mut placement = vpga_place::place(&mapped, arch.library(), &PlaceConfig::default());
        let mut array = pack(&mapped, &arch, &placement, &PackConfig::default()).unwrap();
        apply_to_placement(&array, &mapped, &mut placement);
        let gain = swap_optimize(&mut array, &mapped, &mut placement, &SwapConfig::default());
        assert_eq!(gain, 0.0);
    }

    #[test]
    fn delta_engine_matches_recompute_engine() {
        // Same netlist, same seed: the delta engine must land on the exact
        // same assignments, positions, and core stats as the recompute
        // engine.
        let arch = PlbArchitecture::granular();
        let src = generic::library();
        let design =
            vpga_designs::NamedDesign::Firewire.generate(&vpga_designs::DesignParams::tiny());
        let mapped = vpga_synth::map_netlist_fast(&design, &src, &arch).unwrap();
        let mut placement = vpga_place::place(&mapped, arch.library(), &PlaceConfig::default());
        let mut array = pack(&mapped, &arch, &placement, &PackConfig::default()).unwrap();
        apply_to_placement(&array, &mapped, &mut placement);
        let mut array_l = array.clone();
        let mut placement_l = placement.clone();
        let mut array_c = array.clone();
        let mut placement_c = placement.clone();
        let (gain_d, stats_d) = swap_optimize_with_stats(
            &mut array,
            &mapped,
            &mut placement,
            &SwapConfig {
                small_net_pins: 0,
                ..SwapConfig::default()
            },
        );
        let (gain_l, stats_l) = swap_optimize_with_stats(
            &mut array_l,
            &mapped,
            &mut placement_l,
            &SwapConfig {
                delta_cost: false,
                ..SwapConfig::default()
            },
        );
        assert_eq!(gain_d.to_bits(), gain_l.to_bits());
        assert_eq!(
            SwapStats {
                delta_evals: 0,
                bbox_rescans: 0,
                ..stats_d
            },
            stats_l
        );
        assert!(stats_d.delta_evals > 0, "delta path never exercised");
        // The default small-net cutoff routes short nets through the exact
        // rescan; everything observable stays bit-identical.
        let (gain_c, stats_c) = swap_optimize_with_stats(
            &mut array_c,
            &mapped,
            &mut placement_c,
            &SwapConfig::default(),
        );
        assert_eq!(gain_c.to_bits(), gain_l.to_bits());
        assert_eq!(
            SwapStats {
                delta_evals: 0,
                bbox_rescans: 0,
                ..stats_c
            },
            stats_l
        );
        assert!(stats_c.bbox_rescans > 0, "cutoff path never exercised");
        for (id, cell) in mapped.cells() {
            if cell.lib_id().is_none() {
                continue;
            }
            assert_eq!(array.plb_of(id), array_l.plb_of(id));
            assert_eq!(array_c.plb_of(id), array_l.plb_of(id));
            assert_eq!(
                placement
                    .position(id)
                    .map(|(x, y)| (x.to_bits(), y.to_bits())),
                placement_l
                    .position(id)
                    .map(|(x, y)| (x.to_bits(), y.to_bits()))
            );
            assert_eq!(
                placement_c
                    .position(id)
                    .map(|(x, y)| (x.to_bits(), y.to_bits())),
                placement_l
                    .position(id)
                    .map(|(x, y)| (x.to_bits(), y.to_bits()))
            );
        }
    }
}
