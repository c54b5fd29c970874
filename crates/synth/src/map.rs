//! Cut-based technology mapping onto a PLB component library.
//!
//! Delay-oriented covering with area recovery:
//!
//! 1. every AIG node gets, per cut, the best matching component cell
//!    (minimum delay, then area) via the `vpga-core` Boolean matcher;
//! 2. a forward pass computes delay-optimal arrival times;
//! 3. a backward pass relaxes non-critical nodes onto minimum-area cuts
//!    that still meet the design's required time, then emits the mapped
//!    netlist with each instance via-programmed to its cut function.
//!
//! 2-input cut fallbacks (every AND node's direct-fanin cut is a ND2WI
//! shape) guarantee both PLB libraries can always cover the graph.

use std::collections::{HashMap, HashSet};

use vpga_core::matcher::{match_cell, CellMatch, PinSource};
use vpga_core::PlbArchitecture;
use vpga_logic::Tt3;
use vpga_netlist::{CellId, Library, NetId, Netlist};

use crate::aig::{Aig, AigNode, Lit};
use crate::cuts::CutSet;
use crate::error::SynthError;

/// A matched cell choice for one cut function.
#[derive(Clone, Debug)]
struct Choice {
    cell_name: String,
    cell_match: CellMatch,
    delay: f64,
    area: f64,
}

/// Per-cut-function cell-choice cache.
struct Chooser<'a> {
    lib: &'a Library,
    cache: HashMap<(Tt3, usize), Option<Choice>>,
    cache_area: HashMap<(Tt3, usize), Option<Choice>>,
}

impl<'a> Chooser<'a> {
    fn new(lib: &'a Library) -> Chooser<'a> {
        Chooser {
            lib,
            cache: HashMap::new(),
            cache_area: HashMap::new(),
        }
    }

    fn choose(&mut self, tt: Tt3, leaves: usize) -> Option<Choice> {
        if let Some(c) = self.cache.get(&(tt, leaves)) {
            return c.clone();
        }
        let mut best: Option<Choice> = None;
        for (_, cell) in self.lib.combinational() {
            if let Some(m) = match_cell(cell, tt, leaves) {
                let cand = Choice {
                    cell_name: cell.name().to_owned(),
                    cell_match: m,
                    delay: cell.intrinsic_delay() + vpga_core::params::MAP_STAGE_WIRE_PS,
                    area: cell.area() + vpga_core::params::INSTANCE_WIRING_AREA,
                };
                let better = match &best {
                    None => true,
                    Some(b) => (cand.delay, cand.area) < (b.delay, b.area),
                };
                if better {
                    best = Some(cand);
                }
            }
        }
        self.cache.insert((tt, leaves), best.clone());
        best
    }

    /// Minimum-area choice meeting no delay bound.
    fn choose_min_area(&mut self, tt: Tt3, leaves: usize) -> Option<Choice> {
        if let Some(c) = self.cache_area.get(&(tt, leaves)) {
            return c.clone();
        }
        let mut best: Option<Choice> = None;
        for (_, cell) in self.lib.combinational() {
            if let Some(m) = match_cell(cell, tt, leaves) {
                let cand = Choice {
                    cell_name: cell.name().to_owned(),
                    cell_match: m,
                    delay: cell.intrinsic_delay() + vpga_core::params::MAP_STAGE_WIRE_PS,
                    area: cell.area() + vpga_core::params::INSTANCE_WIRING_AREA,
                };
                let better = match &best {
                    None => true,
                    Some(b) => (cand.area, cand.delay) < (b.area, b.delay),
                };
                if better {
                    best = Some(cand);
                }
            }
        }
        self.cache_area.insert((tt, leaves), best.clone());
        best
    }
}

/// Maps the combinational logic of `netlist` (over source library `src`)
/// onto the component library of `arch`, preserving primary I/O order and
/// flip-flops.
///
/// # Errors
///
/// * [`SynthError::Netlist`] if the input netlist is malformed,
/// * [`SynthError::Unmappable`] if some cut function has no matching cell
///   (cannot happen for the two paper architectures — both cover all
///   2-input functions — but possible for hand-built libraries).
pub fn map_netlist(
    netlist: &Netlist,
    src: &Library,
    arch: &PlbArchitecture,
) -> Result<Netlist, SynthError> {
    let (aig, src_dffs) = Aig::from_netlist(netlist, src)?;
    // Logic optimization: exact-synthesis rewriting shrinks the subject
    // graph before covering (the optimization half of "Synthesis, Mapping").
    let aig = crate::rewrite::rewrite(&aig);
    let cut_set = CutSet::enumerate(&aig);
    let mut chooser = Chooser::new(arch.library());

    // Forward pass: delay-optimal arrival per node.
    let n = aig.len();
    let mut arrival = vec![0.0f64; n];
    let mut selected: Vec<Option<(usize, Choice)>> = vec![None; n]; // (cut index, choice)
    for node in 0..n as u32 {
        if let AigNode::And(_, _) = aig.node(node) {
            let mut best: Option<(f64, usize, Choice)> = None;
            for (ci, cut) in cut_set.cuts(node).iter().enumerate() {
                if cut.leaves == [node] {
                    continue; // trivial self-cut
                }
                let Some(choice) = chooser.choose(cut.tt, cut.leaves.len()) else {
                    continue;
                };
                let leaf_arrival = cut
                    .leaves
                    .iter()
                    .map(|&l| arrival[l as usize])
                    .fold(0.0, f64::max);
                let arr = leaf_arrival + choice.delay;
                let better = match &best {
                    None => true,
                    Some((a, _, c)) => arr < *a || (arr == *a && choice.area < c.area),
                };
                if better {
                    best = Some((arr, ci, choice));
                }
            }
            let (arr, ci, choice) = best.ok_or_else(|| {
                let cut = &cut_set.cuts(node)[0];
                SynthError::Unmappable {
                    function: cut.tt,
                    leaves: cut.leaves.len(),
                }
            })?;
            arrival[node as usize] = arr;
            selected[node as usize] = Some((ci, choice));
        }
    }

    // Backward pass: mark needed nodes, relax to min-area under required
    // times.
    let worst = aig
        .outputs()
        .iter()
        .map(|o| arrival[o.lit.node() as usize])
        .fold(0.0, f64::max);
    let mut required = vec![f64::INFINITY; n];
    let mut needed = vec![false; n];
    for o in aig.outputs() {
        let node = o.lit.node();
        required[node as usize] = worst.min(required[node as usize]);
        if matches!(aig.node(node), AigNode::And(_, _)) {
            needed[node as usize] = true;
        }
    }
    for node in (0..n as u32).rev() {
        if !needed[node as usize] {
            continue;
        }
        let (ci, choice) = selected[node as usize].clone().expect("mapped node");
        // Try to relax to a min-area cut that still meets required time.
        let mut final_cut = ci;
        let mut final_choice = choice.clone();
        let req = required[node as usize];
        if req.is_finite() {
            let mut best_area = area_of(&final_choice);
            for (cj, cand_cut) in cut_set.cuts(node).iter().enumerate() {
                if cand_cut.leaves == [node] {
                    continue;
                }
                let Some(cand) = chooser.choose_min_area(cand_cut.tt, cand_cut.leaves.len()) else {
                    continue;
                };
                let leaf_arrival = cand_cut
                    .leaves
                    .iter()
                    .map(|&l| arrival[l as usize])
                    .fold(0.0, f64::max);
                if leaf_arrival + cand.delay <= req && cand.area < best_area {
                    best_area = cand.area;
                    final_cut = cj;
                    final_choice = cand;
                }
            }
        }
        selected[node as usize] = Some((final_cut, final_choice.clone()));
        let cut = &cut_set.cuts(node)[final_cut];
        for &leaf in &cut.leaves {
            if matches!(aig.node(leaf), AigNode::And(_, _)) {
                needed[leaf as usize] = true;
            }
            let leaf_req = required[node as usize] - final_choice.delay;
            if leaf_req < required[leaf as usize] {
                required[leaf as usize] = leaf_req;
            }
        }
    }

    // Emission.
    let mut out = Netlist::new(netlist.name());
    // Primary inputs in source order.
    let num_design_pis = netlist.inputs().len();
    let mut node_net: HashMap<u32, NetId> = HashMap::new();
    for (i, &pi_node) in aig.pis().iter().enumerate() {
        if i < num_design_pis {
            let net = out.add_input(aig.pi_name(i).to_owned());
            node_net.insert(pi_node, net);
        }
    }
    // Flip-flops (placeholder D, rewired after mapping the cones).
    let mut dff_cells: Vec<CellId> = Vec::with_capacity(src_dffs.len());
    for (i, &src_ff) in src_dffs.iter().enumerate() {
        let name = netlist.cell_name(src_ff).to_owned();
        let placeholder = out.constant(false);
        let q = out
            .add_lib_cell(name, arch.library(), "DFF", &[placeholder])
            .expect("DFF instantiation");
        let ff_cell = out.driver(q).expect("dff drives q");
        dff_cells.push(ff_cell);
        let pi_node = aig.pis()[num_design_pis + i];
        node_net.insert(pi_node, q);
    }
    // Emit covered nodes in ascending order (leaves precede roots).
    let mut counter = 0usize;
    for node in 0..n as u32 {
        if !needed[node as usize] {
            continue;
        }
        let (ci, choice) = selected[node as usize].clone().expect("mapped node");
        let cut = &cut_set.cuts(node)[ci];
        let mut pin_nets: Vec<NetId> = Vec::with_capacity(choice.cell_match.pins.len());
        for pin in &choice.cell_match.pins {
            let net = match *pin {
                PinSource::Leaf(i) => *node_net
                    .get(&cut.leaves[i])
                    .expect("leaf emitted before root"),
                PinSource::Const(b) => out.constant(b),
            };
            pin_nets.push(net);
        }
        let name = format!("m{counter}_{}", choice.cell_name.to_lowercase());
        counter += 1;
        let net = out
            .add_lib_cell(name, arch.library(), &choice.cell_name, &pin_nets)
            .expect("mapped instantiation");
        let cell = out.driver(net).expect("cell drives net");
        out.set_config(cell, arch.library(), Some(choice.cell_match.config))
            .expect("config from matcher is allowed");
        node_net.insert(node, net);
    }
    // Inverters for complemented output literals, shared per node.
    let mut inverted: HashMap<u32, NetId> = HashMap::new();
    let mut pending_d = PendingD::default();
    let mut lit_net =
        |out: &mut Netlist, lit: Lit, counter: &mut usize, pending_d: &mut PendingD| -> NetId {
            let base = match aig.node(lit.node()) {
                AigNode::Const => out.constant(false),
                _ => *node_net.get(&lit.node()).expect("node emitted"),
            };
            if !lit.is_complement() {
                return base;
            }
            if matches!(aig.node(lit.node()), AigNode::Const) {
                return out.constant(true);
            }
            if let Some(&n) = inverted.get(&lit.node()) {
                return n;
            }
            let name = format!("m{counter}_inv");
            *counter += 1;
            pending_d.before_sink_on(out, base);
            let net = out
                .add_lib_cell(name, arch.library(), "INV", &[base])
                .expect("INV instantiation");
            inverted.insert(lit.node(), net);
            net
        };
    let mut dff_ix = 0usize;
    for o in aig.outputs() {
        let net = lit_net(&mut out, o.lit, &mut counter, &mut pending_d);
        if o.is_dff_d {
            pending_d.push(dff_cells[dff_ix], net);
            dff_ix += 1;
        } else {
            pending_d.before_sink_on(&mut out, net);
            out.add_output(o.name.clone(), net);
        }
    }
    pending_d.apply(&mut out);
    out.sweep_dead();
    Ok(out)
}

/// Flip-flop D rewires of [`map_netlist`] waiting to be applied as one
/// batch. Every D still sits on the tie-0 placeholder, so
/// [`Netlist::rewire_pins`] filters that net's sink list once per batch.
/// The batch is applied early when another pin is about to join one of
/// its target nets, so every net's sinks keep the order a pin-by-pin
/// rewire gives them.
#[derive(Default)]
struct PendingD {
    rewires: Vec<(CellId, usize, NetId)>,
    targets: HashSet<NetId>,
}

impl PendingD {
    fn push(&mut self, dff: CellId, net: NetId) {
        self.rewires.push((dff, 0, net));
        self.targets.insert(net);
    }

    /// Applies the batch first if one of its pins goes to `net`.
    fn before_sink_on(&mut self, out: &mut Netlist, net: NetId) {
        if self.targets.contains(&net) {
            self.apply(out);
        }
    }

    fn apply(&mut self, out: &mut Netlist) {
        if self.rewires.is_empty() {
            return;
        }
        let placeholder = out.constant(false);
        out.rewire_pins(placeholder, &self.rewires)
            .expect("rewire DFF D");
        self.rewires.clear();
        self.targets.clear();
    }
}

fn area_of(c: &Choice) -> f64 {
    c.area
}

/// Local per-gate technology translation — the fidelity-first model of what
/// a commercial synthesizer does with a *restricted* component library
/// (§3.1): each generic gate is replaced, in place, by the cheapest single
/// component cell that implements it, falling back to the cheapest
/// multi-cell PLB configuration (`vpga_core::LogicConfig::realize`) for
/// functions no single cell covers (e.g. MAJ3 or XOR3 on the granular PLB).
///
/// Unlike [`map_netlist`], this mapper never looks across gate boundaries —
/// that cross-gate collapsing is exactly the job of the paper's
/// *regularity-driven logic compaction* step, which is why the paper's flow
/// (and `vpga-flow`) runs this mapper followed by `vpga-compact`.
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

    #[test]
    fn dff_rewire_precedes_an_inverter_created_on_its_net() {
        // ff1 reads x and ff2 reads !x: the mapper creates ff2's inverter
        // on x's net after ff1's D was rewired onto it, so ff1 sinks first,
        // as a pin-by-pin rewire leaves it.
        let src = generic::library();
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_lib_cell("x", &src, "AND2", &[a, b]).unwrap();
        let q1 = n.add_lib_cell("ff1", &src, "DFF", &[x]).unwrap();
        let nx = n.add_lib_cell("nx", &src, "INV", &[x]).unwrap();
        let q2 = n.add_lib_cell("ff2", &src, "DFF", &[nx]).unwrap();
        n.add_output("q1", q1);
        n.add_output("q2", q2);
        let mapped = map_netlist(&n, &src, &PlbArchitecture::granular()).unwrap();
        let ff1 = mapped.cell_by_name("ff1").unwrap();
        let d = mapped.cell(ff1).unwrap().inputs()[0];
        let sinks: Vec<&str> = mapped
            .sinks(d)
            .iter()
            .map(|&(c, _)| mapped.cell_name(c))
            .collect();
        assert_eq!(sinks.len(), 2, "{sinks:?}");
        assert_eq!(sinks[0], "ff1");
        assert!(sinks[1].ends_with("_inv"), "{sinks:?}");
    }

    fn assert_equivalent(a: &Netlist, lib_a: &Library, b: &Netlist, lib_b: &Library) {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        let vectors: Vec<Vec<bool>> = (0..64)
            .map(|_| (0..a.inputs().len()).map(|_| rng.gen()).collect())
            .collect();
        let div = first_divergence(a, lib_a, b, lib_b, &vectors).expect("simulable");
        assert_eq!(div, None, "netlists diverge");
    }

    #[test]
    fn maps_all_tiny_designs_to_both_archs_preserving_function() {
        let params = DesignParams::tiny();
        let src = generic::library();
        for arch in [PlbArchitecture::granular(), PlbArchitecture::lut_based()] {
            for design in NamedDesign::ALL {
                let g = design.generate(&params);
                let mapped = map_netlist(&g, &src, &arch).expect("mappable");
                mapped
                    .validate(arch.library())
                    .unwrap_or_else(|e| panic!("{design} on {}: {e}", arch.name()));
                assert_equivalent(&g, &src, &mapped, arch.library());
            }
        }
    }

    #[test]
    fn granular_mapping_uses_no_lut() {
        let params = DesignParams::tiny();
        let src = generic::library();
        let arch = PlbArchitecture::granular();
        let mapped = map_netlist(&NamedDesign::Fpu.generate(&params), &src, &arch).unwrap();
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
        let mapped = map_netlist(&n, &src, &arch).unwrap();
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
        let mapped = map_netlist(&n, &src, &arch).unwrap();
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
        let mapped = map_netlist(&g, &src, &arch).unwrap();
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
    fn fast_and_cut_mapping_land_in_the_same_ballpark() {
        // The per-gate translator keeps the generator's gate boundaries
        // (the generic gates are already 3-input shapes), while the
        // cut-based mapper resynthesizes through an AIG; both must produce
        // comparable netlists.
        let params = DesignParams::tiny();
        let src = generic::library();
        let arch = PlbArchitecture::granular();
        let g = NamedDesign::Alu.generate(&params);
        let fast = map_netlist_fast(&g, &src, &arch).unwrap();
        let good = map_netlist(&g, &src, &arch).unwrap();
        let count = |n: &Netlist| n.cells().filter(|(_, c)| c.lib_id().is_some()).count();
        let (f, c) = (count(&fast), count(&good));
        assert!(f > 0 && c > 0);
        assert!(f * 4 >= c && c * 4 >= f, "fast {f} vs cut-based {c}");
    }

    #[test]
    fn mapping_reduces_or_keeps_gate_granularity() {
        // Mapped instance count should be in the same ballpark as the
        // generic gate count (cut packing can shrink it).
        let params = DesignParams::tiny();
        let src = generic::library();
        let g = NamedDesign::Alu.generate(&params);
        let generic_gates = g.cells().filter(|(_, c)| c.lib_id().is_some()).count();
        let arch = PlbArchitecture::granular();
        let mapped = map_netlist(&g, &src, &arch).unwrap();
        let mapped_gates = mapped.cells().filter(|(_, c)| c.lib_id().is_some()).count();
        assert!(
            mapped_gates <= generic_gates * 2,
            "mapped {mapped_gates} vs generic {generic_gates}"
        );
    }
}
