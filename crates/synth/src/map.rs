//! Per-gate technology mapping onto a PLB component library
//! ([`map_netlist_fast`]) and per-cell instance counts ([`MappingStats`]).

use std::collections::HashMap;

use vpga_core::matcher::match_cell;
use vpga_core::PlbArchitecture;
use vpga_logic::Tt3;
use vpga_netlist::{CellId, Library, NetId, Netlist};

use crate::error::SynthError;

/// Local per-gate technology translation — the fidelity-first model of what
/// a commercial synthesizer does with a *restricted* component library
/// (§3.1): each generic gate is replaced, in place, by the cheapest single
/// component cell that implements it, falling back to the cheapest
/// multi-cell PLB configuration (`vpga_core::LogicConfig::realize`) for
/// functions no single cell covers (e.g. MAJ3 or XOR3 on the granular PLB).
///
/// The mapper never looks across gate boundaries — that cross-gate
/// collapsing is exactly the job of the paper's *regularity-driven logic
/// compaction* step, which is why the paper's flow (and `vpga-flow`) runs
/// this mapper followed by `vpga-compact`.
///
/// # Errors
///
/// * [`SynthError::Netlist`] if the input netlist is malformed,
/// * [`SynthError::Unmappable`] if a gate function is outside every
///   configuration of the architecture (impossible for the two paper
///   architectures, whose deepest configuration covers all 256 functions).
pub fn map_netlist_fast(
    netlist: &Netlist,
    src: &Library,
    arch: &PlbArchitecture,
) -> Result<Netlist, SynthError> {
    use vpga_core::config::NodeSource;

    let order =
        vpga_netlist::graph::combinational_topo_order(netlist, src).map_err(SynthError::Netlist)?;
    let mut out = Netlist::new(netlist.name());
    let mut net_map: HashMap<NetId, NetId> = HashMap::new();
    for &pi in netlist.inputs() {
        let cell = netlist.cell(pi).expect("live PI");
        let src_net = cell.output().expect("PI net");
        let net = out.add_input(netlist.cell_name(pi).to_owned());
        net_map.insert(src_net, net);
    }
    // Constants and flip-flops (placeholder D, rewired afterwards).
    let mut dff_fixups: Vec<(CellId, NetId)> = Vec::new(); // (new cell, src D net)
    for (id, cell) in netlist.cells() {
        match cell.kind() {
            vpga_netlist::CellKind::Constant(v) => {
                let net = out.constant(v);
                net_map.insert(cell.output().expect("tie net"), net);
            }
            vpga_netlist::CellKind::Lib(lib_id)
                if src.cell(lib_id).is_some_and(|c| c.is_sequential()) =>
            {
                let placeholder = out.constant(false);
                let q = out
                    .add_lib_cell(
                        netlist.cell_name(id).to_owned(),
                        arch.library(),
                        "DFF",
                        &[placeholder],
                    )
                    .expect("DFF instantiation");
                let new_cell = out.driver(q).expect("dff drives q");
                dff_fixups.push((new_cell, cell.inputs()[0]));
                net_map.insert(cell.output().expect("Q net"), q);
            }
            _ => {}
        }
    }
    // Per-function realization cache.
    let mut cache: HashMap<Tt3, Vec<vpga_core::RealizedCell>> = HashMap::new();
    let mut counter = 0usize;
    for id in order {
        let cell = netlist.cell(id).expect("live cell");
        let tt = netlist
            .instance_function(id, src)
            .expect("combinational cell");
        let plan = match cache.get(&tt) {
            Some(p) => p.clone(),
            None => {
                let plan = realize_any(tt, arch)?;
                cache.insert(tt, plan.clone());
                plan
            }
        };
        // Instantiate the plan, binding leaves to the gate's input nets.
        let leaves: Vec<NetId> = cell
            .inputs()
            .iter()
            .map(|n| *net_map.get(n).expect("fanin mapped"))
            .collect();
        let mut node_nets: Vec<NetId> = Vec::with_capacity(plan.len());
        for rc in &plan {
            let pins: Vec<NetId> = rc
                .pins
                .iter()
                .map(|p| match *p {
                    // A realization may bind a pin to a leaf the function
                    // does not actually depend on; gates of smaller arity
                    // strap such pins to a rail.
                    NodeSource::Leaf(i) => match leaves.get(i) {
                        Some(&n) => n,
                        None => out.constant(false),
                    },
                    NodeSource::Const(b) => out.constant(b),
                    NodeSource::Node(n) => node_nets[n],
                })
                .collect();
            let name = format!("f{counter}_{}", rc.lib_name.to_lowercase());
            counter += 1;
            let net = out
                .add_lib_cell(name, arch.library(), &rc.lib_name, &pins)
                .expect("realized instantiation");
            let c = out.driver(net).expect("cell drives");
            out.set_config(c, arch.library(), Some(rc.config))
                .expect("realized config is allowed");
            node_nets.push(net);
        }
        let root = *node_nets.last().expect("plan is non-empty");
        net_map.insert(cell.output().expect("comb output"), root);
    }
    for &po in netlist.outputs() {
        let cell = netlist.cell(po).expect("live PO");
        let net = *net_map.get(&cell.inputs()[0]).expect("PO net mapped");
        out.add_output(netlist.cell_name(po).to_owned(), net);
    }
    // Every flip-flop's D still sits on the tie-0 placeholder: rewire them
    // in one pass over its sink list.
    if !dff_fixups.is_empty() {
        let rewires: Vec<(CellId, usize, NetId)> = dff_fixups
            .into_iter()
            .map(|(new_cell, src_d)| (new_cell, 0, *net_map.get(&src_d).expect("D net mapped")))
            .collect();
        let placeholder = out.constant(false);
        out.rewire_pins(placeholder, &rewires)
            .expect("rewire DFF D");
    }
    out.sweep_dead();
    Ok(out)
}

/// The cheapest implementation of `tt`: a single matching cell if one
/// exists, else the cheapest covering multi-cell configuration.
fn realize_any(
    tt: Tt3,
    arch: &PlbArchitecture,
) -> Result<Vec<vpga_core::RealizedCell>, SynthError> {
    use vpga_core::config::NodeSource;
    // Single cells first (including BUF/INV, which configs do not cover).
    // Key: (area, arity, delay) — on area ties prefer the narrower,
    // faster cell (ND2 over ND3), which also keeps via configurations
    // minimal.
    let mut best: Option<((f64, usize, f64), Vec<vpga_core::RealizedCell>)> = None;
    for (_, cell) in arch.library().combinational() {
        if let Some(m) = match_cell(cell, tt, 3) {
            let key = (cell.area(), cell.arity(), cell.intrinsic_delay());
            if best.as_ref().is_none_or(|(k, _)| key < *k) {
                best = Some((
                    key,
                    vec![vpga_core::RealizedCell {
                        lib_name: cell.name().to_owned(),
                        config: m.config,
                        pins: m.pins.into_iter().map(NodeSource::from).collect(),
                    }],
                ));
            }
        }
    }
    for cfg in arch.configs() {
        if !cfg.functions().contains(tt) {
            continue;
        }
        let key = (cfg.area(), 3usize, cfg.delay_ps());
        if best.as_ref().is_some_and(|(k, _)| key >= *k) {
            continue;
        }
        if let Some(r) = cfg.realize(tt, arch.library()) {
            best = Some((key, r.cells));
        }
    }
    best.map(|(_, cells)| cells).ok_or(SynthError::Unmappable {
        function: tt,
        leaves: 3,
    })
}

/// Per-cell-name instance counts of a mapped netlist — the data behind the
/// paper's observation about where 3-input functions land in each
/// architecture.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MappingStats {
    counts: std::collections::BTreeMap<String, usize>,
}

impl MappingStats {
    /// Counts instances per library cell name.
    pub fn compute(netlist: &Netlist, lib: &Library) -> MappingStats {
        let mut counts = std::collections::BTreeMap::new();
        for (_, cell) in netlist.cells() {
            if let Some(lib_id) = cell.lib_id() {
                let name = lib.cell(lib_id).expect("lib cell").name().to_owned();
                *counts.entry(name).or_insert(0) += 1;
            }
        }
        MappingStats { counts }
    }

    /// Instances of cell `name`.
    pub fn count(&self, name: &str) -> usize {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Iterates `(cell name, count)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, usize)> {
        self.counts.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Total library instances.
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }
}

impl std::fmt::Display for MappingStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (name, count) in self.iter() {
            writeln!(f, "  {name:8} {count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use vpga_designs::{DesignParams, NamedDesign};
    use vpga_netlist::library::generic;
    use vpga_netlist::sim::first_divergence;

    fn assert_equivalent(a: &Netlist, lib_a: &Library, b: &Netlist, lib_b: &Library) {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        let vectors: Vec<Vec<bool>> = (0..64)
            .map(|_| (0..a.inputs().len()).map(|_| rng.gen()).collect())
            .collect();
        let div = first_divergence(a, lib_a, b, lib_b, &vectors).expect("simulable");
        assert_eq!(div, None, "netlists diverge");
    }

    #[test]
    fn granular_mapping_uses_no_lut() {
        let params = DesignParams::tiny();
        let src = generic::library();
        let arch = PlbArchitecture::granular();
        let mapped = map_netlist_fast(&NamedDesign::Fpu.generate(&params), &src, &arch).unwrap();
        let stats = MappingStats::compute(&mapped, arch.library());
        assert_eq!(stats.count("LUT3"), 0);
        assert!(stats.count("MUX") > 0, "FPU is mux-rich");
    }

    #[test]
    fn lut_arch_sends_xors_to_luts() {
        let src = generic::library();
        let mut n = Netlist::new("x");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_lib_cell("x", &src, "XOR2", &[a, b]).unwrap();
        n.add_output("y", x);
        let arch = PlbArchitecture::lut_based();
        let mapped = map_netlist_fast(&n, &src, &arch).unwrap();
        let stats = MappingStats::compute(&mapped, arch.library());
        assert!(stats.count("LUT3") >= 1, "XOR needs the LUT: {stats}");
        assert_equivalent(&n, &src, &mapped, arch.library());
    }

    #[test]
    fn granular_sends_xors_to_muxes() {
        let src = generic::library();
        let mut n = Netlist::new("x");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_lib_cell("x", &src, "XOR2", &[a, b]).unwrap();
        n.add_output("y", x);
        let arch = PlbArchitecture::granular();
        let mapped = map_netlist_fast(&n, &src, &arch).unwrap();
        let stats = MappingStats::compute(&mapped, arch.library());
        assert!(
            stats.count("MUX") + stats.count("XOA") >= 1,
            "XOR maps to a mux: {stats}"
        );
        assert_equivalent(&n, &src, &mapped, arch.library());
    }

    #[test]
    fn sequential_designs_keep_their_flops() {
        let params = DesignParams::tiny();
        let src = generic::library();
        let g = NamedDesign::Firewire.generate(&params);
        let src_ffs = g
            .cells()
            .filter(|(_, c)| {
                c.lib_id()
                    .is_some_and(|id| src.cell(id).unwrap().is_sequential())
            })
            .count();
        let arch = PlbArchitecture::granular();
        let mapped = map_netlist_fast(&g, &src, &arch).unwrap();
        let stats = MappingStats::compute(&mapped, arch.library());
        assert_eq!(stats.count("DFF"), src_ffs);
        assert_equivalent(&g, &src, &mapped, arch.library());
    }

    #[test]
    fn fast_mapping_preserves_function_on_all_tiny_designs() {
        let params = DesignParams::tiny();
        let src = generic::library();
        for arch in [PlbArchitecture::granular(), PlbArchitecture::lut_based()] {
            for design in NamedDesign::ALL {
                let g = design.generate(&params);
                let mapped = map_netlist_fast(&g, &src, &arch).expect("mappable");
                mapped
                    .validate(arch.library())
                    .unwrap_or_else(|e| panic!("{design} on {}: {e}", arch.name()));
                assert_equivalent(&g, &src, &mapped, arch.library());
            }
        }
    }

    #[test]
    fn mapping_reduces_or_keeps_gate_granularity() {
        // Mapped instance count should be in the same ballpark as the
        // generic gate count (a gate no single cell covers takes a
        // multi-cell configuration).
        let params = DesignParams::tiny();
        let src = generic::library();
        let g = NamedDesign::Alu.generate(&params);
        let generic_gates = g.cells().filter(|(_, c)| c.lib_id().is_some()).count();
        let arch = PlbArchitecture::granular();
        let mapped = map_netlist_fast(&g, &src, &arch).unwrap();
        let mapped_gates = mapped.cells().filter(|(_, c)| c.lib_id().is_some()).count();
        assert!(
            mapped_gates <= generic_gates * 2,
            "mapped {mapped_gates} vs generic {generic_gates}"
        );
    }
}
