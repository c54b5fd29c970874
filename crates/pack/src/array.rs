//! The legalized PLB array.

use std::error::Error;
use std::fmt;

use vpga_core::{PlbArchitecture, PlbInstance, SlotSet};
use vpga_netlist::{CellClass, CellId};
use vpga_place::PlaceError;

/// Errors raised while sizing or filling a PLB array.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum PackError {
    /// The design demands more slots of a class than any array the packer
    /// is willing to build provides.
    CapacityExceeded {
        /// The resource class that overflowed.
        class: CellClass,
        /// Slots demanded.
        demand: usize,
        /// Slots available in the largest attempted array.
        available: usize,
    },
    /// A compaction group demands more slots than a single PLB offers.
    GroupTooLarge {
        /// The group's demand.
        demand: SlotSet,
    },
    /// Packing failed to seat every item even after growing the array.
    Unpackable {
        /// Items left unseated in the final attempt.
        leftover: usize,
    },
    /// The placement refinement inside the §3.1 pack ↔ physical-synthesis
    /// loop ([`crate::pack_iterative`]) failed.
    Refine(PlaceError),
    /// The netlist references a library cell the architecture's library
    /// does not contain (netlist mapped against a different library).
    ForeignCell {
        /// The offending netlist cell's name.
        cell: String,
    },
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::CapacityExceeded {
                class,
                demand,
                available,
            } => write!(
                f,
                "demand of {demand} {class} slots exceeds the {available} available"
            ),
            PackError::GroupTooLarge { demand } => {
                write!(f, "group demand {demand} does not fit a single PLB")
            }
            PackError::Unpackable { leftover } => {
                write!(f, "{leftover} items could not be seated in the array")
            }
            PackError::Refine(e) => write!(f, "placement refinement failed: {e}"),
            PackError::ForeignCell { cell } => write!(
                f,
                "cell {cell:?} references a library cell outside the architecture's library"
            ),
        }
    }
}

impl Error for PackError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PackError::Refine(e) => Some(e),
            _ => None,
        }
    }
}

/// A cols × rows array of PLBs with cell assignments — the output of the
/// legalization step and the layout substrate of flow b.
#[derive(Clone, Debug)]
pub struct PlbArray {
    arch_name: String,
    plb_area: f64,
    cols: usize,
    rows: usize,
    plbs: Vec<PlbInstance>,
    /// Dense maps keyed by [`CellId::index`], grown on demand.
    /// `u32::MAX` / `0xff` mark unassigned — sentinel Vecs instead of
    /// hash maps keep lookups in the swap hot loop cache-friendly and
    /// iteration order a non-question.
    assignment: Vec<u32>,
    slot_class: Vec<u8>,
    num_assigned: usize,
}

impl PlbArray {
    /// Creates an empty array of the given dimensions.
    pub fn new(arch: &PlbArchitecture, cols: usize, rows: usize) -> PlbArray {
        PlbArray {
            arch_name: arch.name().to_owned(),
            plb_area: arch.area(),
            cols,
            rows,
            plbs: (0..cols * rows).map(|_| PlbInstance::new(arch)).collect(),
            assignment: Vec::new(),
            slot_class: Vec::new(),
            num_assigned: 0,
        }
    }

    /// The architecture's name.
    pub fn arch_name(&self) -> &str {
        &self.arch_name
    }

    /// Array width in PLBs.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Array height in PLBs.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of PLBs.
    pub fn len(&self) -> usize {
        self.plbs.len()
    }

    /// True if the array has no PLBs.
    pub fn is_empty(&self) -> bool {
        self.plbs.is_empty()
    }

    /// Edge length of one (square) PLB tile, µm.
    pub fn plb_pitch(&self) -> f64 {
        self.plb_area.sqrt()
    }

    /// Total die area of the array, µm² — the flow-b area metric.
    pub fn die_area(&self) -> f64 {
        self.plb_area * self.plbs.len() as f64
    }

    /// The PLB at grid position `(col, row)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn plb(&self, col: usize, row: usize) -> &PlbInstance {
        &self.plbs[row * self.cols + col]
    }

    /// Mutable access by linear index.
    pub(crate) fn plb_mut(&mut self, index: usize) -> &mut PlbInstance {
        &mut self.plbs[index]
    }

    /// Linear index of grid position `(col, row)`.
    pub fn index_of(&self, col: usize, row: usize) -> usize {
        row * self.cols + col
    }

    /// Grid position of a linear index.
    pub fn position_of(&self, index: usize) -> (usize, usize) {
        (index % self.cols, index / self.cols)
    }

    /// Centre coordinates of a PLB, µm.
    pub fn plb_center(&self, index: usize) -> (f64, f64) {
        let (c, r) = self.position_of(index);
        let p = self.plb_pitch();
        ((c as f64 + 0.5) * p, (r as f64 + 0.5) * p)
    }

    /// Records that `cell` lives in PLB `index`.
    pub(crate) fn assign(&mut self, cell: CellId, index: usize) {
        let at = cell.index();
        if at >= self.assignment.len() {
            self.assignment.resize(at + 1, u32::MAX);
        }
        if self.assignment[at] == u32::MAX {
            self.num_assigned += 1;
        }
        self.assignment[at] = index as u32;
    }

    /// Records the slot class `cell` occupies (set at seating time; swaps
    /// move whole PLB contents, so the class never changes afterwards).
    pub(crate) fn set_slot_class(&mut self, cell: CellId, class: CellClass) {
        let at = cell.index();
        if at >= self.slot_class.len() {
            self.slot_class.resize(at + 1, u8::MAX);
        }
        self.slot_class[at] = crate::arena::class_idx(class);
    }

    /// The PLB a cell was packed into.
    pub fn plb_of(&self, cell: CellId) -> Option<usize> {
        match self.assignment.get(cell.index()) {
            Some(&ix) if ix != u32::MAX => Some(ix as usize),
            _ => None,
        }
    }

    /// The slot class a cell occupies (may differ from its native class
    /// when the §3.2 flexible retargeting was used).
    pub fn slot_class_of(&self, cell: CellId) -> Option<CellClass> {
        match self.slot_class.get(cell.index()) {
            Some(&k) if k != u8::MAX => Some(CellClass::PLB_CLASSES[k as usize]),
            _ => None,
        }
    }

    /// Number of assigned cells.
    pub fn num_assigned(&self) -> usize {
        self.num_assigned
    }

    /// Number of PLBs with at least one occupied slot.
    pub fn plbs_used(&self) -> usize {
        self.plbs.iter().filter(|p| !p.is_empty()).count()
    }

    /// Mean slot utilization over all PLBs.
    pub fn mean_utilization(&self) -> f64 {
        if self.plbs.is_empty() {
            return 0.0;
        }
        self.plbs.iter().map(|p| p.utilization()).sum::<f64>() / self.plbs.len() as f64
    }

    /// Iterates `(linear index, plb)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &PlbInstance)> {
        self.plbs.iter().enumerate()
    }
}

impl fmt::Display for PlbArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}×{} array of {:?} PLBs: {} cells in {} PLBs ({:.0} % mean fill), die {:.0} µm²",
            self.cols,
            self.rows,
            self.arch_name,
            self.num_assigned(),
            self.plbs_used(),
            100.0 * self.mean_utilization(),
            self.die_area()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_roundtrips() {
        let arch = PlbArchitecture::granular();
        let a = PlbArray::new(&arch, 4, 3);
        assert_eq!(a.len(), 12);
        assert_eq!(a.position_of(a.index_of(2, 1)), (2, 1));
        let (x, y) = a.plb_center(0);
        assert!(x > 0.0 && y > 0.0);
        assert!((a.die_area() - 12.0 * arch.area()).abs() < 1e-9);
    }

    #[test]
    fn assignment_tracking() {
        let arch = PlbArchitecture::lut_based();
        let mut a = PlbArray::new(&arch, 2, 2);
        let cell = CellId::from_index(7);
        assert_eq!(a.plb_of(cell), None);
        a.assign(cell, 3);
        assert_eq!(a.plb_of(cell), Some(3));
        assert_eq!(a.num_assigned(), 1);
        assert_eq!(a.plbs_used(), 0, "assignment alone does not occupy slots");
    }

    #[test]
    fn error_display() {
        let e = PackError::CapacityExceeded {
            class: CellClass::Dff,
            demand: 10,
            available: 4,
        };
        assert!(e.to_string().contains("DFF"));
    }
}
