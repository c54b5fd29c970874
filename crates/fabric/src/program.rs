//! The fabric program: per-PLB via configuration for a packed design.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use vpga_core::matcher::{match_cell, PinSource};
use vpga_core::PlbArchitecture;
use vpga_logic::Tt3;
use vpga_netlist::{CellClass, CellId, CellKind, NetId, Netlist, NetlistError};
use vpga_pack::PlbArray;

use crate::via::{decode, encode, ViaBits};

/// Errors raised while generating or reconstructing a fabric program.
#[derive(Debug)]
#[non_exhaustive]
pub enum FabricError {
    /// A cell in the array lacks a recorded slot class (array not produced
    /// by the packer).
    MissingSlot(CellId),
    /// A cell's function could not be expressed on its slot's physical cell.
    Unexpressible {
        /// The failing instance's name.
        cell: String,
        /// The slot's physical component cell.
        slot_cell: String,
        /// The function required.
        function: Tt3,
    },
    /// Netlist reconstruction failed (internal inconsistency).
    Netlist(NetlistError),
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::MissingSlot(c) => write!(f, "cell {c} has no slot assignment"),
            FabricError::Unexpressible {
                cell,
                slot_cell,
                function,
            } => write!(
                f,
                "cell {cell:?} needs {function} which slot cell {slot_cell} cannot express"
            ),
            FabricError::Netlist(e) => write!(f, "reconstruction failed: {e}"),
        }
    }
}

impl Error for FabricError {}

impl From<NetlistError> for FabricError {
    fn from(e: NetlistError) -> FabricError {
        FabricError::Netlist(e)
    }
}

/// Where a slot's physical pin is strapped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PinStrap {
    /// A routed signal (identified by the source design's net id).
    Net(NetId),
    /// A power/ground rail.
    Rail(bool),
}

/// One configured slot of a PLB.
#[derive(Clone, Debug)]
pub struct SlotAssignment {
    /// The source netlist cell this slot implements.
    pub cell: CellId,
    /// Instance name in the source netlist.
    pub cell_name: String,
    /// The slot's resource class.
    pub slot_class: CellClass,
    /// The slot's physical component cell (e.g. `"MUX"`, `"ND3"`).
    pub slot_cell: String,
    /// Physical pin strapping, one entry per slot-cell pin.
    pub pins: Vec<PinStrap>,
    /// The configuration via bits.
    pub vias: ViaBits,
    /// The output net this slot drives (source-netlist id).
    pub output: Option<NetId>,
    /// True for the sequential (DFF) slot.
    pub sequential: bool,
}

/// One PLB's configuration.
#[derive(Clone, Debug, Default)]
pub struct PlbConfig {
    /// Linear PLB index in the array.
    pub index: usize,
    /// Configured slots.
    pub slots: Vec<SlotAssignment>,
}

/// The complete via program of a packed design: everything the fabric needs
/// below the routing layers.
#[derive(Clone, Debug)]
pub struct FabricProgram {
    arch_name: String,
    cols: usize,
    rows: usize,
    plbs: Vec<PlbConfig>,
    vias_used: usize,
    via_sites_available: usize,
}

impl FabricProgram {
    /// Generates the via program for a packed netlist.
    ///
    /// # Errors
    ///
    /// * [`FabricError::MissingSlot`] if the array lacks slot data for a
    ///   cell,
    /// * [`FabricError::Unexpressible`] if a flexible retarget recorded by
    ///   the packer cannot be re-derived (indicates an arch/packer
    ///   mismatch).
    pub fn generate(
        netlist: &Netlist,
        arch: &PlbArchitecture,
        array: &PlbArray,
    ) -> Result<FabricProgram, FabricError> {
        let lib = arch.library();
        // A pin fed by a tie cell in the source netlist is a rail strap.
        let strap = |net: NetId| -> PinStrap {
            match netlist
                .driver(net)
                .and_then(|d| netlist.cell(d))
                .map(|c| c.kind())
            {
                Some(CellKind::Constant(v)) => PinStrap::Rail(v),
                _ => PinStrap::Net(net),
            }
        };
        let mut plbs: Vec<PlbConfig> = (0..array.len())
            .map(|index| PlbConfig {
                index,
                slots: Vec::new(),
            })
            .collect();
        let mut vias_used = 0usize;
        for (id, cell) in netlist.cells() {
            let Some(lib_id) = cell.lib_id() else {
                continue;
            };
            let lc = lib.cell(lib_id).expect("lib cell");
            let plb = array.plb_of(id).ok_or(FabricError::MissingSlot(id))?;
            let slot_class = array
                .slot_class_of(id)
                .ok_or(FabricError::MissingSlot(id))?;
            let slot_cell = arch
                .slot_cell(slot_class)
                .ok_or(FabricError::MissingSlot(id))?;
            let assignment = if lc.is_sequential() {
                SlotAssignment {
                    cell: id,
                    cell_name: netlist.cell_name(id).to_owned(),
                    slot_class,
                    slot_cell: slot_cell.name().to_owned(),
                    pins: vec![strap(cell.inputs()[0])],
                    vias: ViaBits { bits: 0, width: 0 },
                    output: cell.output(),
                    sequential: true,
                }
            } else {
                // Express the instance function on the slot's physical cell:
                // pin binding over the cell's input nets plus a via config.
                let function = netlist
                    .instance_function(id, lib)
                    .expect("combinational cell");
                let leaves = cell.inputs().len();
                let m = match_cell(slot_cell, function, leaves).ok_or_else(|| {
                    FabricError::Unexpressible {
                        cell: netlist.cell_name(id).to_owned(),
                        slot_cell: slot_cell.name().to_owned(),
                        function,
                    }
                })?;
                let pins: Vec<PinStrap> = m
                    .pins
                    .iter()
                    .map(|p| match *p {
                        PinSource::Leaf(i) => strap(cell.inputs()[i]),
                        PinSource::Const(b) => PinStrap::Rail(b),
                    })
                    .collect();
                let vias = encode(slot_cell.name(), m.config).ok_or_else(|| {
                    FabricError::Unexpressible {
                        cell: netlist.cell_name(id).to_owned(),
                        slot_cell: slot_cell.name().to_owned(),
                        function: m.config,
                    }
                })?;
                vias_used += vias.count_ones() as usize;
                SlotAssignment {
                    cell: id,
                    cell_name: netlist.cell_name(id).to_owned(),
                    slot_class,
                    slot_cell: slot_cell.name().to_owned(),
                    pins,
                    vias,
                    output: cell.output(),
                    sequential: false,
                }
            };
            plbs[plb].slots.push(assignment);
        }
        Ok(FabricProgram {
            arch_name: arch.name().to_owned(),
            cols: array.cols(),
            rows: array.rows(),
            plbs,
            vias_used,
            via_sites_available: array.len() * arch.via_sites() as usize,
        })
    }

    /// The architecture this program targets.
    pub fn arch_name(&self) -> &str {
        &self.arch_name
    }

    /// Array dimensions in PLBs.
    pub fn dimensions(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    /// Per-PLB configurations.
    pub fn plbs(&self) -> &[PlbConfig] {
        &self.plbs
    }

    /// Configuration vias populated across the array.
    pub fn vias_used(&self) -> usize {
        self.vias_used
    }

    /// Potential configuration-via sites across the array.
    pub fn via_sites_available(&self) -> usize {
        self.via_sites_available
    }

    /// Number of configured slots across the array.
    pub fn slots_used(&self) -> usize {
        self.plbs.iter().map(|p| p.slots.len()).sum()
    }

    /// Reconstructs a netlist from nothing but the program (slot cells,
    /// via bits, pin straps): the acid test that the program captures the
    /// design. The result is functionally identical to the packed netlist
    /// it was generated from.
    ///
    /// Primary I/O is taken from `interface` (the source netlist), whose
    /// port names and net ids the program references; no logic is read
    /// from it.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError`] if via bits fail to decode or the rebuilt
    /// netlist is malformed.
    pub fn reconstruct(
        &self,
        interface: &Netlist,
        arch: &PlbArchitecture,
    ) -> Result<Netlist, FabricError> {
        let lib = arch.library();
        let mut out = Netlist::new(format!("{}_reconstructed", interface.name()));
        // Source net id → rebuilt net id.
        let mut net_map: HashMap<NetId, NetId> = HashMap::new();
        for &pi in interface.inputs() {
            let cell = interface.cell(pi).expect("live PI");
            let src_net = cell.output().expect("PI net");
            let net = out.add_input(interface.cell_name(pi).to_owned());
            net_map.insert(src_net, net);
        }
        // Create every slot's cell with a placeholder input, then rewire
        // once all output nets exist (slots reference each other freely).
        let placeholder = out.constant(false);
        let mut pending: Vec<(&SlotAssignment, CellId)> = Vec::new();
        for plb in &self.plbs {
            for slot in &plb.slots {
                let function = decode(&slot.slot_cell, slot.vias).ok_or_else(|| {
                    FabricError::Unexpressible {
                        cell: slot.cell_name.clone(),
                        slot_cell: slot.slot_cell.clone(),
                        function: Tt3::FALSE,
                    }
                })?;
                let slot_lc = lib
                    .cell_by_name(&slot.slot_cell)
                    .expect("slot cell exists in the library");
                let pins = vec![placeholder; slot_lc.arity()];
                let name = out.fresh_name(&format!("plb{}_{}", plb.index, slot.cell_name));
                let net = out.add_lib_cell(name, lib, &slot.slot_cell, &pins)?;
                let new_cell = out.driver(net).expect("cell drives net");
                if !slot.sequential {
                    out.set_config(new_cell, lib, Some(function))?;
                }
                if let Some(src_out) = slot.output {
                    net_map.insert(src_out, net);
                }
                pending.push((slot, new_cell));
            }
        }
        // Rewire pins: resolve every strap, then move them all off the
        // placeholder in one pass over its sink list.
        let mut rewires: Vec<(CellId, usize, NetId)> = Vec::new();
        for (slot, new_cell) in pending {
            for (pin, strap) in slot.pins.iter().enumerate() {
                let net = match *strap {
                    PinStrap::Net(src) => match net_map.get(&src) {
                        Some(&net) => net,
                        None => {
                            // An earlier pin's rewire error comes first.
                            out.rewire_pins(placeholder, &rewires)?;
                            return Err(FabricError::Netlist(NetlistError::UnknownNet(src)));
                        }
                    },
                    PinStrap::Rail(b) => out.constant(b),
                };
                rewires.push((new_cell, pin, net));
            }
        }
        out.rewire_pins(placeholder, &rewires)?;
        // Primary outputs.
        for &po in interface.outputs() {
            let cell = interface.cell(po).expect("live PO");
            let src_net = cell.inputs()[0];
            let net = *net_map
                .get(&src_net)
                .ok_or(FabricError::Netlist(NetlistError::UnknownNet(src_net)))?;
            out.add_output(interface.cell_name(po).to_owned(), net);
        }
        out.validate(lib)?;
        Ok(out)
    }
}

impl fmt::Display for FabricProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fabric program for {:?}: {}×{} PLBs, {} slots configured, {} / {} via sites populated ({:.1} %)",
            self.arch_name,
            self.cols,
            self.rows,
            self.slots_used(),
            self.vias_used,
            self.via_sites_available,
            100.0 * self.vias_used as f64 / self.via_sites_available.max(1) as f64
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use vpga_designs::{DesignParams, NamedDesign};
    use vpga_netlist::library::generic;
    use vpga_pack::PackConfig;
    use vpga_place::PlaceConfig;

    fn packed(design: NamedDesign, arch: &PlbArchitecture) -> (Netlist, PlbArray) {
        let src = generic::library();
        let golden = design.generate(&DesignParams::tiny());
        let mut mapped = vpga_synth::map_netlist_fast(&golden, &src, arch).unwrap();
        vpga_compact::compact(&mut mapped, arch).unwrap();
        let (placement, _) =
            vpga_place::place(&mapped, arch.library(), &PlaceConfig::default()).unwrap();
        let (array, _) =
            vpga_pack::pack(&mapped, arch, &placement, &PackConfig::default(), None).unwrap();
        (mapped, array)
    }

    #[test]
    fn program_generates_for_all_designs_on_both_archs() {
        for arch in [PlbArchitecture::granular(), PlbArchitecture::lut_based()] {
            for design in NamedDesign::ALL {
                let (netlist, array) = packed(design, &arch);
                let program = FabricProgram::generate(&netlist, &arch, &array)
                    .unwrap_or_else(|e| panic!("{design} on {}: {e}", arch.name()));
                let lib_cells = netlist
                    .cells()
                    .filter(|(_, c)| c.lib_id().is_some())
                    .count();
                assert_eq!(program.slots_used(), lib_cells, "{design}");
                assert!(program.vias_used() > 0);
                assert!(program.vias_used() <= program.via_sites_available());
            }
        }
    }

    #[test]
    fn reconstruction_is_functionally_identical() {
        let mut rng = SmallRng::seed_from_u64(42);
        for arch in [PlbArchitecture::granular(), PlbArchitecture::lut_based()] {
            for design in [NamedDesign::Alu, NamedDesign::Firewire] {
                let (netlist, array) = packed(design, &arch);
                let program = FabricProgram::generate(&netlist, &arch, &array).unwrap();
                let rebuilt = program.reconstruct(&netlist, &arch).unwrap();
                let vectors: Vec<Vec<bool>> = (0..48)
                    .map(|_| (0..netlist.inputs().len()).map(|_| rng.gen()).collect())
                    .collect();
                let div = vpga_netlist::sim::first_divergence(
                    &netlist,
                    arch.library(),
                    &rebuilt,
                    arch.library(),
                    &vectors,
                )
                .unwrap();
                assert_eq!(div, None, "{design} on {} reconstructs wrong", arch.name());
            }
        }
    }

    #[test]
    fn flexible_retargets_reencode_on_the_slot_cell() {
        // Force the §3.2 situation: more ND2 functions than ND3 slots in a
        // single PLB. The program must express the overflow gates as MUX/XOA
        // configurations.
        let arch = PlbArchitecture::granular();
        let src = generic::library();
        let mut n = Netlist::new("flex");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_lib_cell("g1", &src, "AND2", &[a, b]).unwrap();
        let g2 = n.add_lib_cell("g2", &src, "OR2", &[a, b]).unwrap();
        let g3 = n.add_lib_cell("g3", &src, "NAND2", &[g1, g2]).unwrap();
        n.add_output("y", g3);
        let mapped = vpga_synth::map_netlist_fast(&n, &src, &arch).unwrap();
        let (placement, _) =
            vpga_place::place(&mapped, arch.library(), &PlaceConfig::default()).unwrap();
        let (array, _) =
            vpga_pack::pack(&mapped, &arch, &placement, &PackConfig::default(), None).unwrap();
        let program = FabricProgram::generate(&mapped, &arch, &array).unwrap();
        // At least one gate landed on a MUX/XOA slot if any PLB holds >1
        // gate; regardless, reconstruction must hold.
        let rebuilt = program.reconstruct(&mapped, &arch).unwrap();
        let vectors: Vec<Vec<bool>> = (0..4u8)
            .map(|i| vec![i & 1 == 1, i >> 1 & 1 == 1])
            .collect();
        let div = vpga_netlist::sim::first_divergence(
            &mapped,
            arch.library(),
            &rebuilt,
            arch.library(),
            &vectors,
        )
        .unwrap();
        assert_eq!(div, None);
    }

    #[test]
    fn display_summarizes_via_budget() {
        let arch = PlbArchitecture::granular();
        let (netlist, array) = packed(NamedDesign::Alu, &arch);
        let program = FabricProgram::generate(&netlist, &arch, &array).unwrap();
        let s = program.to_string();
        assert!(s.contains("via sites"), "{s}");
    }
}
