//! The recursive-quadrisection packing algorithm and the pack↔place loop.
//!
//! The engine is cache-friendly while staying bit-identical to the
//! reference formulation:
//!
//! * Items live in a flat SoA arena ([`crate::arena::ItemArena`]) built
//!   once per call; the recursion works on index lists over it instead of
//!   cloning per-level buckets.
//! * Absent balance relocations, an item's whole quadrant path is
//!   determined by its floor grid cell (every split is at an integer
//!   midpoint and bucketing preserves input order), so the recursion
//!   walks *pristine* subtrees with per-class 2-D prefix sums over leaf
//!   demands — O(1) per node — and only materializes item lists where a
//!   quadrant actually overflows and the §3.1 balancing step must run.
//! * The spill pass pulls candidate PLBs from a lazy distance heap
//!   instead of fully sorting the array per spilled item, and every seat
//!   probe is a masked occupancy check (the `matcher::match_cell`
//!   flexibility decisions are precomputed per `(class, function)`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use vpga_core::PlbArchitecture;
use vpga_netlist::{CellClass, CellId, CellKind, Netlist};
use vpga_place::{PlaceConfig, Placement};

use crate::arena::{ItemArena, NCLASS, NO_PLB};
use crate::array::{PackError, PlbArray};

/// Array-sizing headroom: the array is sized so the binding resource class
/// is at most this full. Lower values give easier packing and a larger
/// die.
pub const TARGET_FILL: f64 = 0.85;

/// Retries with a grown array if packing fails.
pub const GROWTH_RETRIES: usize = 8;

/// Tunables for [`pack`] and [`pack_iterative`].
#[derive(Clone, Debug)]
pub struct PackConfig {
    /// Enable the §3.2 flexibility rule: a cell may take a slot of another
    /// class when its via-programmed function allows it.
    pub flexible: bool,
    /// Iterations of the §3.1 pack ↔ physical-synthesis loop (1 = a single
    /// pack with no replacement).
    pub iterations: usize,
}

impl Default for PackConfig {
    fn default() -> PackConfig {
        PackConfig {
            flexible: true,
            iterations: 2,
        }
    }
}

/// Counters from one quadrisection packing run (accumulated over the
/// grow-and-retry attempts, and over repack passes in [`pack_iterative`])
/// — the per-stage instrumentation the flow executor reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PackStats {
    /// Movable units (cells plus whole compaction groups) packed.
    pub items: usize,
    /// Items relocated between quadrants by the resource-balancing step.
    pub relocations: u64,
    /// Items the recursion could not seat geometrically, handled by the
    /// nearest-fit spill pass.
    pub spilled: u64,
    /// Array growths taken before the design fit.
    pub growths: u32,
    /// Full quadrisection passes run (> 1 only for the §3.1 loop).
    pub passes: u32,
}

/// Packs the placed netlist into a PLB array of `arch` in one
/// quadrisection pass; returns the array and the packer's [`PackStats`].
/// The placement is read-only; apply the result with
/// [`apply_to_placement`].
///
/// `criticality` holds per-cell timing criticality in `[0, 1]`, indexed by
/// [`CellId::index`], and weights the relocation cost; `None` weighs
/// every cell alike.
///
/// # Errors
///
/// * [`PackError::ForeignCell`] if the netlist was mapped against a
///   different library,
/// * [`PackError::GroupTooLarge`] if a compaction group exceeds one PLB,
/// * [`PackError::Unpackable`] if the design cannot be seated even after
///   growing the array [`GROWTH_RETRIES`] times.
pub fn pack(
    netlist: &Netlist,
    arch: &PlbArchitecture,
    placement: &Placement,
    config: &PackConfig,
    criticality: Option<&[f64]>,
) -> Result<(PlbArray, PackStats), PackError> {
    let mut arena = ItemArena::build(netlist, arch, config.flexible, criticality)?;
    arena.refresh_positions(placement);
    let mut stats = PackStats {
        items: arena.items,
        passes: 1,
        ..PackStats::default()
    };
    let array = pack_once(&arena, arch, placement.die(), config, &mut stats)?;
    Ok((array, stats))
}

/// One full pack (sizing bound plus the grow-and-retry loop) over a
/// prepared arena. Accumulates counters into `stats`.
fn pack_once(
    arena: &ItemArena,
    arch: &PlbArchitecture,
    die: vpga_place::Rect,
    config: &PackConfig,
    stats: &mut PackStats,
) -> Result<PlbArray, PackError> {
    // Total demand per class.
    let mut totals = [0u16; NCLASS];
    for d in &arena.demand {
        for (t, &v) in totals.iter_mut().zip(d) {
            *t += v;
        }
    }
    // Minimum PLB count. When flexible placement is on, each cell's
    // function may be hosted by several slot classes (the §3.2 flexibility
    // that gives the granular PLB its packing efficiency). The exact
    // counting bound is: for every subset S of slot classes, the cells
    // whose compatible-class sets lie entirely inside S must fit within
    // S's pooled capacity. With seven classes that is 128 subsets —
    // enumerated exactly.
    let mut n_plbs = arena
        .items
        .max(1)
        .div_ceil(arch.capacity().total() as usize);
    let mut demand_by_mask = [0usize; 128];
    for &m in &arena.sizing_mask {
        demand_by_mask[m as usize] += 1;
    }
    // Per-class hard infeasibility check (class with demand but no slots
    // anywhere and no alternative host).
    for (k, &class) in CellClass::PLB_CLASSES.iter().enumerate() {
        let total = totals[k] as usize;
        if total > 0 && arena.cap[k] == 0 {
            let stuck = demand_by_mask[1usize << k];
            if stuck > 0 {
                return Err(PackError::CapacityExceeded {
                    class,
                    demand: total,
                    available: 0,
                });
            }
        }
    }
    for subset in 1u16..128 {
        let subset = subset as u8;
        let cap: usize = (0..NCLASS)
            .filter(|&i| subset & (1 << i) != 0)
            .map(|i| arena.cap[i] as usize)
            .sum();
        let demand: usize = demand_by_mask
            .iter()
            .enumerate()
            .filter(|&(m, _)| m as u8 & !subset == 0)
            .map(|(_, &n)| n)
            .sum();
        if demand == 0 {
            continue;
        }
        if cap == 0 {
            // Some cell fits only classes this architecture lacks.
            let class = (0..NCLASS)
                .find(|&i| subset & (1 << i) != 0)
                .map(|i| CellClass::PLB_CLASSES[i])
                .expect("non-empty subset");
            return Err(PackError::CapacityExceeded {
                class,
                demand,
                available: 0,
            });
        }
        let need = (demand as f64 / (cap as f64 * TARGET_FILL)).ceil() as usize;
        n_plbs = n_plbs.max(need);
    }
    // Grow-and-retry loop.
    let mut attempt_plbs = n_plbs;
    for retry in 0..=GROWTH_RETRIES {
        let cols = (attempt_plbs as f64).sqrt().ceil() as usize;
        let rows = attempt_plbs.div_ceil(cols);
        let mut attempt = Attempt::new(arena, config, cols, rows, die);
        attempt.walk_pristine(Region {
            c0: 0,
            c1: cols,
            r0: 0,
            r1: rows,
        });
        stats.relocations += attempt.relocations;
        stats.spilled += attempt.spill.len() as u64;
        // Spill pass: hardest items first (groups, then the least flexible
        // single cells), each into the nearest PLB with room.
        let mut spill = std::mem::take(&mut attempt.spill);
        spill.sort_by(|&a, &b| {
            let (la, lb) = (arena.cells_of(a).len(), arena.cells_of(b).len());
            lb.cmp(&la).then_with(|| {
                arena.crit[a as usize]
                    .total_cmp(&arena.crit[b as usize])
                    .reverse()
            })
        });
        let mut leftover = 0usize;
        for it in spill {
            if !attempt.seat_nearest(it) {
                leftover += 1;
                if std::env::var_os("VPGA_PACK_DEBUG").is_some() {
                    eprintln!(
                        "unseated item: {} cells, demand {}",
                        arena.cells_of(it).len(),
                        arena.demand_set(it)
                    );
                }
            }
        }
        if leftover == 0 {
            stats.growths += retry as u32;
            return Ok(attempt.into_array(arch));
        }
        if retry == GROWTH_RETRIES {
            return Err(PackError::Unpackable { leftover });
        }
        // Escalating growth: gentle first (stay near the sizing bound),
        // aggressive later (fragmentation by groups can need real slack).
        let factor = match retry {
            0..=2 => 1.06,
            3..=4 => 1.12,
            5..=6 => 1.25,
            _ => 1.5,
        };
        attempt_plbs = (attempt_plbs as f64 * factor).ceil() as usize + 1;
    }
    unreachable!("loop returns or errors")
}

/// Writes the packed locations back into the placement: every cell moves to
/// its PLB centre, the die becomes the array extent, and the I/O pads are
/// rescaled onto the new periphery.
pub fn apply_to_placement(array: &PlbArray, netlist: &Netlist, placement: &mut Placement) {
    let old = placement.die();
    let pitch = array.plb_pitch();
    let new = vpga_place::Rect {
        x0: 0.0,
        y0: 0.0,
        x1: array.cols() as f64 * pitch,
        y1: array.rows() as f64 * pitch,
    };
    placement.set_die(new);
    for &port in netlist.inputs().iter().chain(netlist.outputs()) {
        if let Some((x, y)) = placement.position(port) {
            let fx = (x - old.x0) / old.width().max(1e-9);
            let fy = (y - old.y0) / old.height().max(1e-9);
            placement.set_position(port, new.x0 + fx * new.width(), new.y0 + fy * new.height());
        }
    }
    for (id, cell) in netlist.cells() {
        if !matches!(cell.kind(), CellKind::Lib(_)) {
            continue;
        }
        if let Some(ix) = array.plb_of(id) {
            let (x, y) = array.plb_center(ix);
            placement.set_position(id, x, y);
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Region {
    c0: usize,
    c1: usize,
    r0: usize,
    r1: usize,
}

impl Region {
    fn plbs(&self) -> usize {
        (self.c1 - self.c0) * (self.r1 - self.r0)
    }

    fn center(&self) -> (f64, f64) {
        (
            (self.c0 + self.c1) as f64 / 2.0,
            (self.r0 + self.r1) as f64 / 2.0,
        )
    }
}

/// Splits a region into up to four quadrants (degenerate strips split in
/// the long direction), in the recursion's canonical order.
fn split(region: &Region) -> ([Region; 4], usize) {
    let cm = if region.c1 - region.c0 > 1 {
        (region.c0 + region.c1) / 2
    } else {
        region.c1
    };
    let rm = if region.r1 - region.r0 > 1 {
        (region.r0 + region.r1) / 2
    } else {
        region.r1
    };
    let mut quads = [*region; 4];
    let mut n = 0;
    for (c0, c1) in [(region.c0, cm), (cm, region.c1)] {
        if c0 >= c1 {
            continue;
        }
        for (r0, r1) in [(region.r0, rm), (rm, region.r1)] {
            if r0 >= r1 {
                continue;
            }
            quads[n] = Region { c0, c1, r0, r1 };
            n += 1;
        }
    }
    (quads, n)
}

/// `f64` keyed for a min-heap via `total_cmp` (never NaN here, but total
/// order keeps the heap honest regardless).
#[derive(Clone, Copy, PartialEq)]
struct Dist(f64);

impl Eq for Dist {}

impl PartialOrd for Dist {
    fn partial_cmp(&self, other: &Dist) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Dist {
    fn cmp(&self, other: &Dist) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One packing attempt over a fixed cols × rows array: normalized item
/// positions, the leaf CSR and demand prefix sums for the pristine walk,
/// per-PLB occupancy, and the resulting cell assignments.
struct Attempt<'a> {
    arena: &'a ItemArena,
    config: &'a PackConfig,
    cols: usize,
    rows: usize,
    /// Normalized grid coordinates (0..cols, 0..rows), mutated by balance
    /// relocations exactly as the reference algorithm does.
    gx: Vec<f64>,
    gy: Vec<f64>,
    /// Items per leaf PLB (floor grid cell), CSR, ascending item index
    /// within each row.
    leaf_off: Vec<u32>,
    leaf_items: Vec<u32>,
    /// 2-D inclusive prefix sums over leaves, (cols+1) × (rows+1): item
    /// counts and per-class demand. Demand sums are u32 and masked to u16
    /// at query time, matching the reference's wrapping `SlotSet`
    /// arithmetic.
    pcount: Vec<u32>,
    pdem: Vec<[u32; NCLASS]>,
    /// Per-PLB occupancy.
    occ: Vec<[u16; NCLASS]>,
    /// Per-arena-cell assignment (PLB index / slot-class index).
    cell_plb: Vec<u32>,
    cell_slot: Vec<u8>,
    spill: Vec<u32>,
    relocations: u64,
    /// Recycled backing store for the spill pass's distance heap.
    heap_scratch: Vec<Reverse<(Dist, usize)>>,
}

impl<'a> Attempt<'a> {
    fn new(
        arena: &'a ItemArena,
        config: &'a PackConfig,
        cols: usize,
        rows: usize,
        die: vpga_place::Rect,
    ) -> Attempt<'a> {
        let n = arena.items;
        let mut gx = Vec::with_capacity(n);
        let mut gy = Vec::with_capacity(n);
        for i in 0..n {
            gx.push(
                ((arena.gx[i] - die.x0) / die.width().max(1e-9) * cols as f64)
                    .clamp(0.0, cols as f64 - 1e-6),
            );
            gy.push(
                ((arena.gy[i] - die.y0) / die.height().max(1e-9) * rows as f64)
                    .clamp(0.0, rows as f64 - 1e-6),
            );
        }
        // Leaf CSR by counting sort (stable: ascending item index per
        // row — the order the reference recursion preserves).
        let leaves = cols * rows;
        let leaf_of = |i: usize| -> usize {
            let c = gx[i] as usize;
            let r = gy[i] as usize;
            r * cols + c
        };
        let mut leaf_off = vec![0u32; leaves + 1];
        for i in 0..n {
            leaf_off[leaf_of(i) + 1] += 1;
        }
        for l in 0..leaves {
            leaf_off[l + 1] += leaf_off[l];
        }
        let mut cursor: Vec<u32> = leaf_off[..leaves].to_vec();
        let mut leaf_items = vec![0u32; n];
        for i in 0..n {
            let l = leaf_of(i);
            leaf_items[cursor[l] as usize] = i as u32;
            cursor[l] += 1;
        }
        // Inclusive 2-D prefix sums over the leaf grid.
        let w = cols + 1;
        let mut pcount = vec![0u32; w * (rows + 1)];
        let mut pdem = vec![[0u32; NCLASS]; w * (rows + 1)];
        for i in 0..n {
            let c = gx[i] as usize;
            let r = gy[i] as usize;
            let at = (r + 1) * w + (c + 1);
            pcount[at] += 1;
            for (p, &v) in pdem[at].iter_mut().zip(&arena.demand[i]) {
                *p += u32::from(v);
            }
        }
        for r in 1..=rows {
            for c in 1..=cols {
                let at = r * w + c;
                pcount[at] = pcount[at] + pcount[at - w] + pcount[at - 1] - pcount[at - w - 1];
                let (up, left, diag) = (pdem[at - w], pdem[at - 1], pdem[at - w - 1]);
                for (k, d) in pdem[at].iter_mut().enumerate() {
                    *d = *d + up[k] + left[k] - diag[k];
                }
            }
        }
        Attempt {
            arena,
            config,
            cols,
            rows,
            gx,
            gy,
            leaf_off,
            leaf_items,
            pcount,
            pdem,
            occ: vec![[0u16; NCLASS]; leaves],
            cell_plb: vec![NO_PLB; arena.n_cells()],
            cell_slot: vec![0u8; arena.n_cells()],
            spill: Vec::new(),
            relocations: 0,
            heap_scratch: Vec::new(),
        }
    }

    fn rect_count(&self, q: &Region) -> u32 {
        let w = self.cols + 1;
        let at = |r: usize, c: usize| self.pcount[r * w + c];
        at(q.r1, q.c1) + at(q.r0, q.c0) - at(q.r0, q.c1) - at(q.r1, q.c0)
    }

    /// Region demand of one class, wrapped to u16 to match the
    /// reference's `SlotSet` accumulation in release builds.
    fn rect_demand(&self, q: &Region, k: usize) -> u16 {
        let w = self.cols + 1;
        let at = |r: usize, c: usize| self.pdem[r * w + c][k];
        (at(q.r1, q.c1)
            .wrapping_add(at(q.r0, q.c0))
            .wrapping_sub(at(q.r0, q.c1))
            .wrapping_sub(at(q.r1, q.c0))) as u16
    }

    fn rect_overflows(&self, q: &Region) -> bool {
        let plbs = q.plbs();
        (0..NCLASS).any(|k| (self.rect_demand(q, k) as usize) > plbs * self.arena.cap[k] as usize)
    }

    /// Recursion over a subtree whose items are untouched by any balance
    /// relocation: membership is implied by the floor grid cell, demand
    /// checks are prefix-sum queries, and no item list is materialized
    /// until a quadrant overflows.
    fn walk_pristine(&mut self, region: Region) {
        if self.rect_count(&region) == 0 {
            return;
        }
        if region.plbs() == 1 {
            let leaf = region.r0 * self.cols + region.c0;
            let row = self.leaf_off[leaf] as usize..self.leaf_off[leaf + 1] as usize;
            let list = self.leaf_items[row].to_vec();
            self.seat_leaf(leaf, list);
            return;
        }
        let (quads, nq) = split(&region);
        let quads = &quads[..nq];
        if !quads.iter().any(|q| self.rect_overflows(q)) {
            for q in quads {
                self.walk_pristine(*q);
            }
            return;
        }
        // A quadrant overflows: materialize the buckets (ascending item
        // index — exactly the order the reference bucketing preserves)
        // and run the §3.1 balancing step.
        let mut buckets: Vec<Vec<u32>> = quads
            .iter()
            .map(|q| {
                let mut b = Vec::with_capacity(self.rect_count(q) as usize);
                for r in q.r0..q.r1 {
                    let lo = self.leaf_off[r * self.cols + q.c0] as usize;
                    let hi = self.leaf_off[r * self.cols + q.c1] as usize;
                    b.extend_from_slice(&self.leaf_items[lo..hi]);
                }
                b.sort_unstable();
                b
            })
            .collect();
        self.relocations += self.balance(quads, &mut buckets);
        for (q, bucket) in quads.iter().zip(buckets) {
            self.walk_materialized(*q, bucket);
        }
    }

    /// Recursion over an explicit item list (a balance relocation touched
    /// an ancestor, so floor-cell membership no longer applies) — the
    /// reference algorithm verbatim, over arena indices.
    fn walk_materialized(&mut self, region: Region, items: Vec<u32>) {
        if items.is_empty() {
            return;
        }
        if region.plbs() == 1 {
            let leaf = region.r0 * self.cols + region.c0;
            self.seat_leaf(leaf, items);
            return;
        }
        let (quads, nq) = split(&region);
        let quads = &quads[..nq];
        // Geometric assignment.
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); nq];
        for it in items {
            let (x, y) = (self.gx[it as usize], self.gy[it as usize]);
            let q = quads
                .iter()
                .position(|q| {
                    x >= q.c0 as f64 && x < q.c1 as f64 && y >= q.r0 as f64 && y < q.r1 as f64
                })
                .unwrap_or(0);
            buckets[q].push(it);
        }
        self.relocations += self.balance(quads, &mut buckets);
        for (q, bucket) in quads.iter().zip(buckets) {
            self.walk_materialized(*q, bucket);
        }
    }

    fn demand_of(&self, bucket: &[u32]) -> [u16; NCLASS] {
        let mut d = [0u16; NCLASS];
        for &it in bucket {
            for (a, &b) in d.iter_mut().zip(&self.arena.demand[it as usize]) {
                *a += b;
            }
        }
        d
    }

    /// First overflowing class of a region, in `PLB_CLASSES` order.
    fn overflows(&self, region: &Region, demand: &[u16; NCLASS]) -> Option<usize> {
        (0..NCLASS).find(|&k| (demand[k] as usize) > region.plbs() * self.arena.cap[k] as usize)
    }

    /// Resource balancing: relocate overflow items to quadrants with room,
    /// cheapest (criticality-weighted displacement) first.
    fn balance(&mut self, quads: &[Region], buckets: &mut [Vec<u32>]) -> u64 {
        let mut relocated = 0u64;
        let mut demands: Vec<[u16; NCLASS]> = buckets.iter().map(|b| self.demand_of(b)).collect();
        // Bounded relocation loop.
        for _ in 0..10_000 {
            let Some((qi, class)) = quads
                .iter()
                .enumerate()
                .find_map(|(i, q)| self.overflows(q, &demands[i]).map(|c| (i, c)))
            else {
                return relocated; // feasible everywhere
            };
            // Candidate items in the overfull quadrant that use the class.
            let mut best: Option<(usize, usize, f64)> = None; // (item ix, target quad, cost)
            for (ix, &it) in buckets[qi].iter().enumerate() {
                let item_demand = &self.arena.demand[it as usize];
                if item_demand[class] == 0 {
                    continue;
                }
                for (ti, tq) in quads.iter().enumerate() {
                    if ti == qi {
                        continue;
                    }
                    // The move must not overflow the target.
                    let mut after = demands[ti];
                    for (a, &b) in after.iter_mut().zip(item_demand) {
                        *a += b;
                    }
                    if self.overflows(tq, &after).is_some() {
                        continue;
                    }
                    let (cx, cy) = tq.center();
                    let dist =
                        (self.gx[it as usize] - cx).abs() + (self.gy[it as usize] - cy).abs();
                    let cost = dist * (1.0 + 4.0 * self.arena.crit[it as usize]);
                    if best.is_none_or(|(_, _, c)| cost < c) {
                        best = Some((ix, ti, cost));
                    }
                }
            }
            let Some((ix, ti, _)) = best else {
                // Nothing movable: leave the overflow for the spill pass.
                return relocated;
            };
            let it = buckets[qi].swap_remove(ix);
            // Re-center the item inside the target quadrant so recursion
            // buckets it correctly.
            let (cx, cy) = quads[ti].center();
            self.gx[it as usize] = cx - 0.25; // nudge off the midline
            self.gy[it as usize] = cy - 0.25;
            demands[qi] = self.demand_of(&buckets[qi]);
            for (a, &b) in demands[ti].iter_mut().zip(&self.arena.demand[it as usize]) {
                *a += b;
            }
            buckets[ti].push(it);
            relocated += 1;
        }
        relocated
    }

    /// Seats a leaf's items, groups first — they need several free slots
    /// at once; whatever does not fit goes to the spill pass.
    fn seat_leaf(&mut self, leaf: usize, mut list: Vec<u32>) {
        list.sort_by_key(|&it| Reverse(self.arena.cells_of(it).len()));
        for it in list {
            if !self.seat(leaf, it) {
                self.spill.push(it);
            }
        }
    }

    /// Seats an item into the given PLB; returns success. Mirrors
    /// `PlbInstance::place`/`place_flexible`/`place_group` (and, for a
    /// flexible group, `place_flexible` per member with rollback) over the
    /// dense occupancy counters and precomputed seat masks.
    fn seat(&mut self, plb: usize, it: u32) -> bool {
        let range = self.arena.cells_of(it);
        if range.len() > 1 {
            if self.config.flexible {
                // Groups are atomic; members retarget flexibly like
                // singles, with snapshot rollback on failure.
                let snapshot = self.occ[plb];
                for c in range.clone() {
                    if !self.place_flex(plb, c) {
                        self.occ[plb] = snapshot;
                        return false;
                    }
                }
            } else {
                let demand = &self.arena.demand[it as usize];
                let occ = &mut self.occ[plb];
                if (0..NCLASS).any(|k| occ[k] + demand[k] > self.arena.cap[k]) {
                    return false;
                }
                for (o, &d) in occ.iter_mut().zip(demand) {
                    *o += d;
                }
                for c in range.clone() {
                    self.cell_slot[c] = self.arena.cell_class[c];
                }
            }
        } else {
            let c = range.start;
            if self.config.flexible {
                if !self.place_flex(plb, c) {
                    return false;
                }
            } else {
                let k = self.arena.cell_class[c] as usize;
                if self.occ[plb][k] >= self.arena.cap[k] {
                    return false;
                }
                self.occ[plb][k] += 1;
                self.cell_slot[c] = k as u8;
            }
        }
        for c in range {
            self.cell_plb[c] = plb as u32;
        }
        true
    }

    /// `place_flexible` over the occupancy counters: the native class
    /// first, then each compatible alternative in `PLB_CLASSES` order.
    fn place_flex(&mut self, plb: usize, c: usize) -> bool {
        let native = self.arena.cell_class[c] as usize;
        let occ = &mut self.occ[plb];
        if occ[native] < self.arena.cap[native] {
            occ[native] += 1;
            self.cell_slot[c] = native as u8;
            return true;
        }
        let mut mask = self.arena.seat_mask[c] & !(1u8 << native);
        while mask != 0 {
            let k = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if occ[k] < self.arena.cap[k] {
                occ[k] += 1;
                self.cell_slot[c] = k as u8;
                return true;
            }
        }
        false
    }

    /// Seats an item into the nearest PLB with room, pulling candidates
    /// from a lazy min-heap — pops happen in exactly the order of the
    /// reference's full distance sort (ties by ascending PLB index), but
    /// only as far as the first success.
    fn seat_nearest(&mut self, it: u32) -> bool {
        let (x, y) = (self.gx[it as usize], self.gy[it as usize]);
        let n = self.cols * self.rows;
        let mut backing = std::mem::take(&mut self.heap_scratch);
        backing.clear();
        backing.extend((0..n).map(|i| {
            let (c, r) = (i % self.cols, i / self.cols);
            let d = (c as f64 + 0.5 - x).abs() + (r as f64 + 0.5 - y).abs();
            Reverse((Dist(d), i))
        }));
        let mut heap = BinaryHeap::from(backing);
        let mut done = false;
        while let Some(Reverse((_, index))) = heap.pop() {
            if self.seat(index, it) {
                done = true;
                break;
            }
        }
        self.heap_scratch = heap.into_vec();
        done
    }

    /// Materializes the seated assignments into a [`PlbArray`] (only
    /// called once every item is seated).
    fn into_array(self, arch: &PlbArchitecture) -> PlbArray {
        let mut array = PlbArray::new(arch, self.cols, self.rows);
        for c in 0..self.arena.n_cells() {
            let plb = self.cell_plb[c];
            debug_assert_ne!(plb, NO_PLB, "unseated cell after successful attempt");
            let class = CellClass::PLB_CLASSES[self.cell_slot[c] as usize];
            let seated = array.plb_mut(plb as usize).place(class);
            debug_assert!(seated, "occupancy mismatch during materialization");
            array.assign(self.arena.cell_id[c], plb as usize);
            array.set_slot_class(self.arena.cell_id[c], class);
        }
        array
    }
}

/// The §3.1 iterative loop: pack, pin well-seated cells, re-run physical
/// synthesis ([`vpga_place::refine`]) for the rest, and pack again.
/// Returns the final array and the [`PackStats`] accumulated over every
/// pack pass, and updates `placement` to the legalized positions.
/// `criticality` weights the relocation cost as in [`pack`].
///
/// # Errors
///
/// Propagates [`pack`] errors, and a failed refinement as
/// [`PackError::Refine`].
pub fn pack_iterative(
    netlist: &Netlist,
    arch: &PlbArchitecture,
    placement: &mut Placement,
    place_config: &PlaceConfig,
    config: &PackConfig,
    criticality: Option<&[f64]>,
) -> Result<(PlbArray, PackStats), PackError> {
    let mut arena = ItemArena::build(netlist, arch, config.flexible, criticality)?;
    arena.refresh_positions(placement);
    let mut stats = PackStats {
        items: arena.items,
        passes: 1,
        ..PackStats::default()
    };
    let mut array = pack_once(&arena, arch, placement.die(), config, &mut stats)?;
    for _ in 1..config.iterations.max(1) {
        // Measure displacement of each cell from its assigned PLB centre.
        let mut moved: Vec<(CellId, f64, (f64, f64))> = Vec::new();
        for (id, cell) in netlist.cells() {
            if !matches!(cell.kind(), CellKind::Lib(_)) {
                continue;
            }
            let Some(ix) = array.plb_of(id) else { continue };
            let target = array.plb_center(ix);
            let Some((x, y)) = placement.position(id) else {
                continue;
            };
            // Normalize: the placement die and the array extent differ in
            // scale; compare in fractional coordinates.
            let die = placement.die();
            let fx = (x - die.x0) / die.width().max(1e-9);
            let fy = (y - die.y0) / die.height().max(1e-9);
            let extent = (
                array.cols() as f64 * array.plb_pitch(),
                array.rows() as f64 * array.plb_pitch(),
            );
            let tx = target.0 / extent.0.max(1e-9);
            let ty = target.1 / extent.1.max(1e-9);
            let d = (fx - tx).abs() + (fy - ty).abs();
            moved.push((id, d, target));
        }
        // Pin the best-seated 60 % at their PLB positions (scaled into the
        // current die), re-anneal the rest.
        moved.sort_by(|a, b| a.1.total_cmp(&b.1));
        let pin_count = moved.len() * 6 / 10;
        let die = placement.die();
        let extent = (
            array.cols() as f64 * array.plb_pitch(),
            array.rows() as f64 * array.plb_pitch(),
        );
        let mut pinned: Vec<CellId> = Vec::new();
        for &(id, _, (tx, ty)) in moved.iter().take(pin_count) {
            let x = die.x0 + die.width() * tx / extent.0.max(1e-9);
            let y = die.y0 + die.height() * ty / extent.1.max(1e-9);
            placement.set_position(id, x, y);
            placement.set_fixed(id, true);
            pinned.push(id);
        }
        vpga_place::refine(netlist, arch.library(), placement, place_config, 0.3)
            .map_err(PackError::Refine)?;
        for id in pinned {
            placement.set_fixed(id, false);
        }
        arena.refresh_positions(placement);
        stats.passes += 1;
        array = pack_once(&arena, arch, placement.die(), config, &mut stats)?;
    }
    apply_to_placement(&array, netlist, placement);
    Ok((array, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpga_netlist::library::generic;
    use vpga_netlist::Netlist;
    use vpga_synth::map_netlist_fast;

    fn mapped_design(design: vpga_designs::NamedDesign, arch: &PlbArchitecture) -> Netlist {
        let params = vpga_designs::DesignParams::tiny();
        let src = generic::library();
        map_netlist_fast(&design.generate(&params), &src, arch).expect("mappable")
    }

    #[test]
    fn packs_all_tiny_designs_on_both_archs() {
        for arch in [PlbArchitecture::granular(), PlbArchitecture::lut_based()] {
            for design in vpga_designs::NamedDesign::ALL {
                let netlist = mapped_design(design, &arch);
                let (placement, _) =
                    vpga_place::place(&netlist, arch.library(), &PlaceConfig::default()).unwrap();
                let (array, _) = pack(&netlist, &arch, &placement, &PackConfig::default(), None)
                    .unwrap_or_else(|e| panic!("{design} on {}: {e}", arch.name()));
                // Every library cell is assigned.
                let lib_cells = netlist
                    .cells()
                    .filter(|(_, c)| c.lib_id().is_some())
                    .count();
                assert_eq!(array.num_assigned(), lib_cells, "{design}");
            }
        }
    }

    #[test]
    fn per_plb_capacity_is_respected() {
        let arch = PlbArchitecture::granular();
        let netlist = mapped_design(vpga_designs::NamedDesign::Alu, &arch);
        let (placement, _) =
            vpga_place::place(&netlist, arch.library(), &PlaceConfig::default()).unwrap();
        let (array, _) = pack(&netlist, &arch, &placement, &PackConfig::default(), None).unwrap();
        for (_, plb) in array.iter() {
            for class in CellClass::PLB_CLASSES {
                assert!(plb.used(class) <= arch.capacity().count(class));
            }
        }
    }

    #[test]
    fn groups_land_in_one_plb() {
        let arch = PlbArchitecture::granular();
        let src = generic::library();
        // Build a majority gate, which compacts into a grouped multi-cell
        // configuration.
        let mut n = Netlist::new("grp");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let m = n.add_lib_cell("m", &src, "MAJ3", &[a, b, c]).unwrap();
        n.add_output("y", m);
        let mut mapped = map_netlist_fast(&n, &src, &arch).unwrap();
        // Give the realization cells a group explicitly if the mapper
        // produced several cells.
        let cells: Vec<CellId> = mapped
            .cells()
            .filter(|(_, c)| c.lib_id().is_some())
            .map(|(id, _)| id)
            .collect();
        if cells.len() > 1 {
            let g = mapped.new_group();
            for &cell in &cells {
                mapped.set_group(cell, Some(g)).unwrap();
            }
        }
        let (placement, _) =
            vpga_place::place(&mapped, arch.library(), &PlaceConfig::default()).unwrap();
        let (array, _) = pack(&mapped, &arch, &placement, &PackConfig::default(), None).unwrap();
        let homes: std::collections::HashSet<usize> = cells
            .iter()
            .map(|&c| array.plb_of(c).expect("assigned"))
            .collect();
        assert_eq!(homes.len(), 1, "group split across PLBs");
    }

    #[test]
    fn oversized_group_is_rejected() {
        let arch = PlbArchitecture::granular();
        let src = generic::library();
        let mut n = Netlist::new("big");
        let a = n.add_input("a");
        // Five inverter-ish cells in one group exceed any slot mix.
        let mut cur = a;
        let mut cells = Vec::new();
        for i in 0..5 {
            cur = n
                .add_lib_cell(format!("g{i}"), &src, "INV", &[cur])
                .unwrap();
            cells.push(n.driver(cur).unwrap());
        }
        n.add_output("y", cur);
        let mapped = {
            let mut m = map_netlist_fast(&n, &src, &arch).unwrap();
            let cells: Vec<CellId> = m
                .cells()
                .filter(|(_, c)| c.lib_id().is_some())
                .map(|(id, _)| id)
                .collect();
            let g = m.new_group();
            for &c in &cells {
                m.set_group(c, Some(g)).unwrap();
            }
            m
        };
        let (placement, _) =
            vpga_place::place(&mapped, arch.library(), &PlaceConfig::default()).unwrap();
        let r = pack(&mapped, &arch, &placement, &PackConfig::default(), None);
        assert!(matches!(r, Err(PackError::GroupTooLarge { .. })), "{r:?}");
    }

    #[test]
    fn missing_class_is_reported() {
        // A granular variant without ND3 slots cannot host an AND3 cell,
        // whose function no MUX-capable slot can express.
        let arch = PlbArchitecture::granular_variant("g-no-nd3", 2, 1, 0, 1);
        let src = generic::library();
        let mut n = Netlist::new("and3");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g = n.add_lib_cell("g", &src, "AND3", &[a, b, c]).unwrap();
        n.add_output("y", g);
        // Map against the *full* granular library, which still contains the
        // ND3 cell; only the variant's capacity lacks slots for it.
        let mapped = map_netlist_fast(&n, &src, &PlbArchitecture::granular()).unwrap();
        let uses_nd3 = mapped.cells().any(|(id, _)| {
            mapped
                .instance_function(id, PlbArchitecture::granular().library())
                .is_some_and(|f| !vpga_logic::cells::mux_set().contains(f))
        });
        assert!(uses_nd3, "AND3 must land on the gate slot");
        let (placement, _) = vpga_place::place(
            &mapped,
            PlbArchitecture::granular().library(),
            &PlaceConfig::default(),
        )
        .unwrap();
        let r = pack(&mapped, &arch, &placement, &PackConfig::default(), None);
        assert!(
            matches!(r, Err(PackError::CapacityExceeded { .. })),
            "{r:?}"
        );
    }

    #[test]
    fn flexible_packing_uses_fewer_or_equal_plbs() {
        let arch = PlbArchitecture::granular();
        let netlist = mapped_design(vpga_designs::NamedDesign::Fpu, &arch);
        let (placement, _) =
            vpga_place::place(&netlist, arch.library(), &PlaceConfig::default()).unwrap();
        let rigid = pack(
            &netlist,
            &arch,
            &placement,
            &PackConfig {
                flexible: false,
                ..PackConfig::default()
            },
            None,
        );
        let flexible = pack(&netlist, &arch, &placement, &PackConfig::default(), None);
        // Rigid packing may fail outright where flexible succeeds; when
        // both succeed, flexible never uses more PLBs.
        if let (Ok((r, _)), Ok((f, _))) = (&rigid, &flexible) {
            assert!(f.len() <= r.len() || f.plbs_used() <= r.plbs_used());
        } else {
            assert!(flexible.is_ok());
        }
    }

    #[test]
    fn iterative_packing_reduces_wirelength_versus_single_shot() {
        let arch = PlbArchitecture::granular();
        let netlist = mapped_design(vpga_designs::NamedDesign::Alu, &arch);
        let pc = PlaceConfig::default();
        let (mut p1, _) = vpga_place::place(&netlist, arch.library(), &pc).unwrap();
        let mut p2 = p1.clone();
        let (one, _) = pack_iterative(
            &netlist,
            &arch,
            &mut p1,
            &pc,
            &PackConfig {
                iterations: 1,
                ..PackConfig::default()
            },
            None,
        )
        .unwrap();
        let (looped, _) = pack_iterative(
            &netlist,
            &arch,
            &mut p2,
            &pc,
            &PackConfig {
                iterations: 3,
                ..PackConfig::default()
            },
            None,
        )
        .unwrap();
        let w1 = p1.total_hpwl(&netlist);
        let w2 = p2.total_hpwl(&netlist);
        // The loop should not make things dramatically worse; typically it
        // helps. Allow 10 % tolerance for annealing noise.
        assert!(w2 <= w1 * 1.10, "loop {w2} vs single {w1}");
        assert_eq!(one.arch_name(), looped.arch_name());
    }

    #[test]
    fn applied_placement_sits_on_plb_centers() {
        let arch = PlbArchitecture::lut_based();
        let netlist = mapped_design(vpga_designs::NamedDesign::Alu, &arch);
        let (mut placement, _) =
            vpga_place::place(&netlist, arch.library(), &PlaceConfig::default()).unwrap();
        let (array, _) = pack(&netlist, &arch, &placement, &PackConfig::default(), None).unwrap();
        apply_to_placement(&array, &netlist, &mut placement);
        for (id, cell) in netlist.cells() {
            if cell.lib_id().is_none() {
                continue;
            }
            let ix = array.plb_of(id).expect("assigned");
            assert_eq!(placement.position(id), Some(array.plb_center(ix)));
        }
    }
}
