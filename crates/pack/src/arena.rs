//! Flat item/cell storage for the quadrisection packer.
//!
//! The packer's movable unit is an *item*: a single component cell or a
//! whole compaction group. The original implementation carried items as
//! `Vec<Item>`-of-`Vec<(CellId, CellClass, Option<Tt3>)>` and cloned the
//! buckets at every recursion level; this module replaces that with one
//! structure-of-arrays arena built once per [`crate::pack_iterative`]
//! call:
//!
//! * cells live in a flat arena addressed by CSR item rows (`off`),
//! * per-item slot demand is a dense `[u16; NCLASS]` counter in
//!   [`CellClass::PLB_CLASSES`] order,
//! * the §3.2 flexible-retarget decision (`matcher::match_cell` per
//!   candidate slot class) is precomputed once per distinct
//!   `(class, function)` pair into a 7-bit *seat mask* per cell, so the
//!   seat hot path is a masked occupancy probe instead of a truth-table
//!   match.
//!
//! Item order is the original order — singleton cells in netlist scan
//!   order, then groups in ascending [`GroupId`] — so an item index is
//! also its deterministic tie-break rank.

use vpga_core::{PlbArchitecture, SlotSet};
use vpga_logic::Tt3;
use vpga_netlist::{CellClass, CellId, CellKind, Netlist};
use vpga_place::Placement;

use crate::array::PackError;

/// Number of PLB slot classes (`CellClass::PLB_CLASSES.len()`).
pub(crate) const NCLASS: usize = 7;

/// Sentinel for "not seated in any PLB".
pub(crate) const NO_PLB: u32 = u32::MAX;

/// Index of a class within [`CellClass::PLB_CLASSES`].
///
/// # Panics
///
/// Panics if the class is not a PLB class (same contract as the packer's
/// original `class_bit`).
pub(crate) fn class_idx(class: CellClass) -> u8 {
    class.plb_index().expect("PLB class") as u8
}

/// Slot classes that can host a cell of `class` computing `function` —
/// the array-sizing view of the §3.2 flexibility rule (capacity-filtered,
/// exactly as the subset-counting bound wants it).
pub(crate) fn compatible_classes(
    arch: &PlbArchitecture,
    class: CellClass,
    function: Option<Tt3>,
) -> Vec<CellClass> {
    let mut out = vec![class];
    let Some(f) = function else { return out };
    for alt in CellClass::PLB_CLASSES {
        if alt == class || alt.is_sequential() || arch.capacity().count(alt) == 0 {
            continue;
        }
        let Some(cell) = arch.slot_cell(alt) else {
            continue;
        };
        if vpga_core::matcher::match_cell(cell, f, 3).is_some() {
            out.push(alt);
        }
    }
    out
}

/// The seat-time view of the same rule: the set of classes
/// [`vpga_core::PlbInstance::place_flexible`] would try for this cell, as
/// a bit mask over [`CellClass::PLB_CLASSES`] (native class included).
/// Unlike the sizing mask it is not capacity-filtered — a zero-capacity
/// class simply never has a free slot — and it honours `place_flexible`'s
/// extra sequential-slot-cell exclusion.
fn seat_mask_of(arch: &PlbArchitecture, class: CellClass, function: Option<Tt3>) -> u8 {
    let native = 1u8 << class_idx(class);
    if class.is_sequential() {
        return native;
    }
    let Some(f) = function else { return native };
    let mut mask = native;
    for (i, &alt) in CellClass::PLB_CLASSES.iter().enumerate() {
        if alt == class || alt.is_sequential() {
            continue;
        }
        let Some(cell) = arch.slot_cell(alt) else {
            continue;
        };
        if cell.is_sequential() {
            continue;
        }
        if vpga_core::matcher::match_cell(cell, f, 3).is_some() {
            mask |= 1 << i;
        }
    }
    mask
}

/// Per-`(class, function)` mask cache. Function index 0..=255 is the
/// truth table's bit pattern; 256 is "no function". Dense, so the build
/// loop never hashes.
struct MaskTables {
    computed: Vec<[bool; 257]>,
    sizing: Vec<[u8; 257]>,
    seat: Vec<[u8; 257]>,
}

impl MaskTables {
    fn new() -> MaskTables {
        MaskTables {
            computed: vec![[false; 257]; NCLASS],
            sizing: vec![[0; 257]; NCLASS],
            seat: vec![[0; 257]; NCLASS],
        }
    }

    /// `(sizing mask, seat mask)` for a cell, honouring the config's
    /// flexibility switch (rigid packing and sequential cells never
    /// retarget).
    fn masks(
        &mut self,
        arch: &PlbArchitecture,
        flexible: bool,
        class: CellClass,
        function: Option<Tt3>,
    ) -> (u8, u8) {
        let k = class_idx(class) as usize;
        if class.is_sequential() || !flexible {
            let native = 1u8 << k;
            return (native, native);
        }
        let f = function.map_or(256, |t| t.bits() as usize);
        if !self.computed[k][f] {
            self.sizing[k][f] = compatible_classes(arch, class, function)
                .into_iter()
                .fold(0u8, |m, c| m | (1 << class_idx(c)));
            self.seat[k][f] = seat_mask_of(arch, class, function);
            self.computed[k][f] = true;
        }
        (self.sizing[k][f], self.seat[k][f])
    }
}

/// The flat item arena: one CSR row of cells per item, dense per-item
/// demand counters, and refreshable raw (die-coordinate) positions.
pub(crate) struct ItemArena {
    /// Number of items.
    pub items: usize,
    /// CSR row offsets into the cell arrays (`items + 1` entries).
    pub off: Vec<u32>,
    /// Cell ids, grouped by item.
    pub cell_id: Vec<CellId>,
    /// Native class of each cell, as a [`CellClass::PLB_CLASSES`] index.
    pub cell_class: Vec<u8>,
    /// Seat-time compatible-class mask of each cell (native bit set).
    pub seat_mask: Vec<u8>,
    /// Array-sizing compatible-class mask of each cell.
    pub sizing_mask: Vec<u8>,
    /// Per-item slot demand in [`CellClass::PLB_CLASSES`] order.
    pub demand: Vec<[u16; NCLASS]>,
    /// Per-item position in raw die coordinates (group centroid), updated
    /// by [`ItemArena::refresh_positions`] between §3.1 repack passes.
    pub gx: Vec<f64>,
    /// See [`ItemArena::gx`].
    pub gy: Vec<f64>,
    /// Per-item timing criticality (max over member cells).
    pub crit: Vec<f64>,
    /// Architecture capacity per class, in [`CellClass::PLB_CLASSES`]
    /// order.
    pub cap: [u16; NCLASS],
}

impl ItemArena {
    /// Collects the netlist's library cells into items: singleton cells
    /// in scan order, then compaction groups in ascending [`GroupId`].
    /// Positions are left at zero; call [`ItemArena::refresh_positions`]
    /// before packing.
    ///
    /// # Errors
    ///
    /// [`PackError::ForeignCell`] for cells outside the architecture's
    /// library, [`PackError::GroupTooLarge`] for groups exceeding one PLB
    /// (checked in `GroupId` order, as the original item collection did).
    pub fn build(
        netlist: &Netlist,
        arch: &PlbArchitecture,
        flexible: bool,
        criticality: Option<&[f64]>,
    ) -> Result<ItemArena, PackError> {
        let lib = arch.library();
        let mut tables = MaskTables::new();
        let crit_of = |cell: CellId| -> f64 {
            criticality
                .and_then(|v| v.get(cell.index()).copied())
                .unwrap_or(0.0)
        };
        let mut arena = ItemArena {
            items: 0,
            off: vec![0],
            cell_id: Vec::new(),
            cell_class: Vec::new(),
            seat_mask: Vec::new(),
            sizing_mask: Vec::new(),
            demand: Vec::new(),
            gx: Vec::new(),
            gy: Vec::new(),
            crit: Vec::new(),
            cap: {
                let mut cap = [0u16; NCLASS];
                for (i, &c) in CellClass::PLB_CLASSES.iter().enumerate() {
                    cap[i] = arch.capacity().count(c);
                }
                cap
            },
        };
        // (cell, class index, seat mask, sizing mask, criticality) per
        // group, keyed densely by group index, members in scan order.
        type Member = (CellId, u8, u8, u8, f64);
        let mut groups: Vec<Vec<Member>> = Vec::new();
        for (id, cell) in netlist.cells() {
            let CellKind::Lib(lib_id) = cell.kind() else {
                continue;
            };
            let lc = lib.cell(lib_id).ok_or_else(|| PackError::ForeignCell {
                cell: netlist.cell_name(id).to_owned(),
            })?;
            let class = lc.class();
            let function = netlist.instance_function(id, lib);
            let (sizing, seat) = tables.masks(arch, flexible, class, function);
            let k = class_idx(class);
            match cell.group() {
                Some(g) => {
                    let gi = g.index();
                    if gi >= groups.len() {
                        groups.resize_with(gi + 1, Vec::new);
                    }
                    groups[gi].push((id, k, seat, sizing, crit_of(id)));
                }
                None => {
                    arena.cell_id.push(id);
                    arena.cell_class.push(k);
                    arena.seat_mask.push(seat);
                    arena.sizing_mask.push(sizing);
                    arena.off.push(arena.cell_id.len() as u32);
                    let mut d = [0u16; NCLASS];
                    d[k as usize] = 1;
                    arena.demand.push(d);
                    arena.crit.push(crit_of(id));
                }
            }
        }
        for members in groups.into_iter().filter(|m| !m.is_empty()) {
            let mut d = [0u16; NCLASS];
            let mut crit = 0.0f64;
            for &(id, k, seat, sizing, c) in &members {
                arena.cell_id.push(id);
                arena.cell_class.push(k);
                arena.seat_mask.push(seat);
                arena.sizing_mask.push(sizing);
                d[k as usize] += 1;
                crit = crit.max(c);
            }
            arena.off.push(arena.cell_id.len() as u32);
            if !(0..NCLASS).all(|k| d[k] <= arena.cap[k]) {
                let mut demand = SlotSet::new();
                for (k, &n) in d.iter().enumerate() {
                    demand.add(CellClass::PLB_CLASSES[k], n);
                }
                return Err(PackError::GroupTooLarge { demand });
            }
            arena.demand.push(d);
            arena.crit.push(crit);
        }
        arena.items = arena.demand.len();
        arena.gx = vec![0.0; arena.items];
        arena.gy = vec![0.0; arena.items];
        Ok(arena)
    }

    /// Number of cells in the arena.
    pub fn n_cells(&self) -> usize {
        self.cell_id.len()
    }

    /// The cell range of an item.
    pub fn cells_of(&self, item: u32) -> std::ops::Range<usize> {
        self.off[item as usize] as usize..self.off[item as usize + 1] as usize
    }

    /// Re-reads item positions from the placement: group centroids are
    /// the mean over member positions, summed in member order (the same
    /// accumulation order as the original scan, for bit-identical
    /// centroids).
    pub fn refresh_positions(&mut self, placement: &Placement) {
        for i in 0..self.items {
            let lo = self.off[i] as usize;
            let hi = self.off[i + 1] as usize;
            let (mut sx, mut sy) = (0.0f64, 0.0f64);
            for &id in &self.cell_id[lo..hi] {
                let (x, y) = placement.position(id).unwrap_or((0.0, 0.0));
                sx += x;
                sy += y;
            }
            let n = (hi - lo) as f64;
            self.gx[i] = sx / n;
            self.gy[i] = sy / n;
        }
    }

    /// Reconstructs an item's demand as a [`SlotSet`] (diagnostics only).
    pub fn demand_set(&self, item: u32) -> SlotSet {
        let mut d = SlotSet::new();
        for (k, &n) in self.demand[item as usize].iter().enumerate() {
            d.add(CellClass::PLB_CLASSES[k], n);
        }
        d
    }
}
