//! Slot-occupancy accounting for one PLB instance.
//!
//! The packer legalizes an ASIC-style placement by assigning component cells
//! to PLBs; each PLB tracks how many slots of each class are in use. The
//! paper's packing-efficiency flexibility (§3.2: "a 2-input Nand function on
//! a non-critical path can be mapped into a MUX without affecting
//! performance if the ND3WI gate in the PLB is already used up") is exposed
//! through [`PlbInstance::place_flexible`], which retargets a cell's
//! function onto any free slot whose via-configuration set can produce it.

use vpga_logic::Tt3;
use vpga_netlist::CellClass;

use crate::arch::{PlbArchitecture, SlotSet};
use crate::matcher;

/// Occupancy state of one PLB in the array.
///
/// # Example
///
/// ```
/// use vpga_core::{PlbArchitecture, PlbInstance};
/// use vpga_netlist::CellClass;
///
/// let arch = PlbArchitecture::granular();
/// let mut plb = PlbInstance::new(&arch);
/// assert!(plb.place(CellClass::Mux));
/// assert!(plb.place(CellClass::Mux));
/// assert!(!plb.place(CellClass::Mux)); // only two MUX slots
/// assert_eq!(plb.free(CellClass::Xoa), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlbInstance {
    capacity: SlotSet,
    used: SlotSet,
}

impl PlbInstance {
    /// An empty PLB of the given architecture.
    pub fn new(arch: &PlbArchitecture) -> PlbInstance {
        PlbInstance {
            capacity: arch.capacity().clone(),
            used: SlotSet::new(),
        }
    }

    /// Slots of `class` still free.
    pub fn free(&self, class: CellClass) -> u16 {
        self.capacity.count(class) - self.used.count(class)
    }

    /// Slots of `class` in use.
    pub fn used(&self, class: CellClass) -> u16 {
        self.used.count(class)
    }

    /// Total slots in use across classes.
    pub fn total_used(&self) -> u16 {
        self.used.total()
    }

    /// True if no slot is in use.
    pub fn is_empty(&self) -> bool {
        self.used.total() == 0
    }

    /// Occupies one slot of `class` if available; returns success.
    pub fn place(&mut self, class: CellClass) -> bool {
        if self.free(class) == 0 {
            return false;
        }
        self.used.add(class, 1);
        true
    }

    /// Releases one slot of `class`.
    ///
    /// # Panics
    ///
    /// Panics if no slot of `class` is in use.
    pub fn release(&mut self, class: CellClass) {
        assert!(self.used.count(class) > 0, "no {class} slot in use");
        self.used.remove(class, 1);
    }

    /// Occupies a slot for a cell of `class` computing `function`,
    /// preferring the native class but falling back to any free slot whose
    /// component cell can be via-programmed to `function` (the §3.2
    /// packing-flexibility rule). Returns the class of the slot actually
    /// used.
    pub fn place_flexible(
        &mut self,
        arch: &PlbArchitecture,
        class: CellClass,
        function: Option<Tt3>,
    ) -> Option<CellClass> {
        if self.place(class) {
            return Some(class);
        }
        // State-holding cells can never retarget: a DFF's "function" is the
        // identity, which combinational slots could host — incorrectly.
        if class.is_sequential() {
            return None;
        }
        let function = function?;
        for alt in CellClass::PLB_CLASSES {
            if alt == class || self.free(alt) == 0 || alt.is_sequential() {
                continue;
            }
            let Some(cell) = arch.slot_cell(alt) else {
                continue;
            };
            if cell.is_sequential() {
                continue;
            }
            if matcher::match_cell(cell, function, 3).is_some() {
                self.used.add(alt, 1);
                return Some(alt);
            }
        }
        None
    }

    /// True if a whole group with slot demand `demand` fits in the free
    /// space.
    pub fn fits(&self, demand: &SlotSet) -> bool {
        self.used.plus(demand).fits(&self.capacity)
    }

    /// Occupies every slot in `demand`; returns `false` (and leaves the PLB
    /// unchanged) if it does not fit.
    pub fn place_group(&mut self, demand: &SlotSet) -> bool {
        if !self.fits(demand) {
            return false;
        }
        self.used = self.used.plus(demand);
        true
    }

    /// Fraction of this PLB's slots in use.
    pub fn utilization(&self) -> f64 {
        if self.capacity.total() == 0 {
            return 0.0;
        }
        f64::from(self.used.total()) / f64::from(self.capacity.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpga_logic::{Tt3, Var};

    #[test]
    fn place_and_release_respect_capacity() {
        let arch = PlbArchitecture::lut_based();
        let mut plb = PlbInstance::new(&arch);
        assert!(plb.place(CellClass::Lut3));
        assert!(!plb.place(CellClass::Lut3));
        plb.release(CellClass::Lut3);
        assert!(plb.place(CellClass::Lut3));
        assert!(plb.place(CellClass::Nd3));
        assert!(plb.place(CellClass::Nd3));
        assert!(!plb.place(CellClass::Nd3));
        assert_eq!(plb.total_used(), 3);
    }

    #[test]
    #[should_panic(expected = "no")]
    fn releasing_unused_slot_panics() {
        let arch = PlbArchitecture::granular();
        let mut plb = PlbInstance::new(&arch);
        plb.release(CellClass::Mux);
    }

    #[test]
    fn flexible_placement_retargets_nand_onto_mux() {
        // The exact §3.2 example: the ND3WI slot is used up, so a 2-input
        // NAND lands in a MUX slot instead.
        let arch = PlbArchitecture::granular();
        let mut plb = PlbInstance::new(&arch);
        assert!(plb.place(CellClass::Nd3));
        let nand2 = !(Tt3::var(Var::A) & Tt3::var(Var::B));
        let slot = plb.place_flexible(&arch, CellClass::Nd3, Some(nand2));
        assert!(matches!(slot, Some(CellClass::Mux) | Some(CellClass::Xoa)));
    }

    #[test]
    fn flexible_placement_fails_for_unprogrammable_function() {
        // AND3 cannot be produced by a MUX slot, so with the ND3 gone and
        // only MUX/XOA slots left the placement must fail.
        let arch = PlbArchitecture::granular();
        let mut plb = PlbInstance::new(&arch);
        assert!(plb.place(CellClass::Nd3));
        let and3 = Tt3::AND3;
        assert!(!vpga_logic::cells::mux_set().contains(and3));
        assert_eq!(plb.place_flexible(&arch, CellClass::Nd3, Some(and3)), None);
    }

    #[test]
    fn group_placement_is_atomic() {
        let arch = PlbArchitecture::granular();
        let mut plb = PlbInstance::new(&arch);
        let mut demand = SlotSet::new();
        demand.add(CellClass::Mux, 2);
        demand.add(CellClass::Xoa, 1);
        demand.add(CellClass::Nd3, 1);
        assert!(plb.fits(&demand));
        assert!(plb.place_group(&demand));
        // A second full-adder-sized group cannot fit.
        assert!(!plb.place_group(&demand));
        assert_eq!(plb.used(CellClass::Mux), 2);
    }

    #[test]
    fn utilization_tracks_usage() {
        let arch = PlbArchitecture::granular();
        let mut plb = PlbInstance::new(&arch);
        assert_eq!(plb.utilization(), 0.0);
        assert!(plb.is_empty());
        plb.place(CellClass::Dff);
        assert!(plb.utilization() > 0.0);
        assert!(!plb.is_empty());
    }
}
