//! Regularity-driven logic compaction (§3.1 of the paper).
//!
//! "Technology-mapping is followed by a compaction algorithm that reduces
//! the area of the netlist by better utilizing the given PLB architecture.
//! Our algorithm first finds clusters of logic or supernodes corresponding
//! to functions with 3 or less than 3 inputs \[using\] a maxflow-mincut
//! algorithm similar to Flowmap. It then matches these computed supernodes
//! to the appropriate combination of PLB components."
//!
//! The pass:
//!
//! 1. runs the FlowMap labeling of `vpga-flowmap` over the mapped netlist
//!    to obtain, per net, a depth-optimal ≤3-input cut and its enclosed
//!    supernode,
//! 2. computes each supernode's function by local simulation,
//! 3. matches it against the architecture's [`vpga_core::LogicConfig`]s and
//!    keeps candidates whose realization is cheaper (component area) or
//!    denser (fewer cells) than the cluster it replaces,
//! 4. greedily rewrites a maximal non-overlapping set of candidates, wiring
//!    the realization in place and tying its cells together with a
//!    [`vpga_netlist::GroupId`] so the packer later keeps them in one PLB.
//!
//! Function preservation is checked by the test-suite via random
//! co-simulation; the paper's ~15 % average gate-area reduction (§3.1) is
//! the subject of the `compaction` experiment binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap, HashSet};

use vpga_core::config::NodeSource;
use vpga_core::PlbArchitecture;
use vpga_flowmap::{Dag, Labeling, NodeIx};
use vpga_logic::Tt3;
use vpga_netlist::{CellId, NetId, Netlist, NetlistError};

/// Outcome summary of a compaction pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CompactionReport {
    /// Library-cell instances before compaction.
    pub cells_before: usize,
    /// Library-cell instances after compaction.
    pub cells_after: usize,
    /// Component area before, µm².
    pub area_before: f64,
    /// Component area after, µm².
    pub area_after: f64,
    /// Supernodes rewritten, per configuration name.
    pub rewrites_by_config: BTreeMap<String, usize>,
}

impl CompactionReport {
    /// Fractional area reduction (0.15 = 15 %).
    pub fn area_reduction(&self) -> f64 {
        if self.area_before == 0.0 {
            return 0.0;
        }
        1.0 - self.area_after / self.area_before
    }

    /// Total supernodes rewritten.
    pub fn num_rewrites(&self) -> usize {
        self.rewrites_by_config.values().sum()
    }
}

impl std::fmt::Display for CompactionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "compaction: {} -> {} cells, area {:.0} -> {:.0} µm² ({:.1} % reduction)",
            self.cells_before,
            self.cells_after,
            self.area_before,
            self.area_after,
            100.0 * self.area_reduction()
        )?;
        for (cfg, n) in &self.rewrites_by_config {
            writeln!(f, "  {cfg:8} ×{n}")?;
        }
        Ok(())
    }
}

/// One accepted rewrite candidate.
struct Candidate {
    #[allow(dead_code)]
    root: NodeIx,
    cluster_cells: Vec<CellId>,
    leaves: Vec<NetId>,
    tt: Tt3,
    config_name: String,
    savings: f64,
    old_cells: usize,
    new_cells: usize,
}

/// Compacts `netlist` (mapped onto `arch`'s component library) in place,
/// iterating passes until no further supernode collapses (each rewrite can
/// expose new clusters), up to a fixed pass bound.
///
/// # Errors
///
/// Returns a [`NetlistError`] if the netlist is malformed; the netlist is
/// not modified in that case (validation runs first).
pub fn compact(
    netlist: &mut Netlist,
    arch: &PlbArchitecture,
) -> Result<CompactionReport, NetlistError> {
    const MAX_PASSES: usize = 8;
    // Both caches depend only on the architecture, so every pass shares
    // them (filling the realization cache is exact synthesis).
    let mut costs = PackingCosts::new(arch);
    let mut realizer = Realizer::new(arch);
    let mut total: Option<CompactionReport> = None;
    for _ in 0..MAX_PASSES {
        let pass = compact_once(netlist, arch, &mut costs, &mut realizer)?;
        let done = pass.num_rewrites() == 0;
        total = Some(match total.take() {
            None => pass,
            Some(mut acc) => {
                acc.cells_after = pass.cells_after;
                acc.area_after = pass.area_after;
                for (cfg, n) in pass.rewrites_by_config {
                    *acc.rewrites_by_config.entry(cfg).or_insert(0) += n;
                }
                acc
            }
        });
        if done {
            break;
        }
    }
    Ok(total.expect("at least one pass ran"))
}

/// A single compaction pass.
fn compact_once(
    netlist: &mut Netlist,
    arch: &PlbArchitecture,
    costs: &mut PackingCosts<'_>,
    realizer: &mut Realizer<'_>,
) -> Result<CompactionReport, NetlistError> {
    let lib = arch.library();
    netlist.validate(lib)?;
    let stats_before = vpga_netlist::stats::NetlistStats::compute(netlist, lib);
    let (dag, nets) = Dag::from_netlist(netlist, lib);
    let labels = Labeling::compute(&dag, 3, 64);

    let mut candidates: Vec<Candidate> = Vec::new();
    // Primary candidates: the FlowMap depth-optimal supernode per node.
    // Secondary candidates: adjacent (node, fanin) pairs whose merged leaf
    // set stays within 3 — FlowMap keeps only one cut per node, and the
    // pairwise merges catch profitable collapses it skips.
    let mut jobs: Vec<(NodeIx, Vec<NodeIx>, Vec<NodeIx>)> = Vec::new();
    for root in 0..dag.len() {
        if dag.is_source(root) {
            continue;
        }
        jobs.push((root, labels.cut(root).to_vec(), labels.cluster(&dag, root)));
        for &f in dag.fanins(root) {
            if dag.is_source(f) || dag.fanouts(f).len() != 1 {
                continue;
            }
            let mut leaves: Vec<NodeIx> = dag
                .fanins(f)
                .iter()
                .chain(dag.fanins(root).iter().filter(|&&x| x != f))
                .copied()
                .filter(|&x| dag.const_value(x).is_none())
                .collect();
            leaves.sort_unstable();
            leaves.dedup();
            if leaves.len() <= 3 && !leaves.is_empty() {
                jobs.push((root, leaves, vec![root, f]));
            }
        }
    }
    for (root, cut, cluster) in jobs {
        let (cut, cluster) = (&cut[..], &cluster[..]);
        if cluster.is_empty() || cut.is_empty() || cut.len() > 3 {
            continue;
        }
        // Internal nodes (all but the root) must have no fanout escaping
        // the cluster — their signals disappear in the rewrite.
        let cluster_set: HashSet<NodeIx> = cluster.iter().copied().collect();
        let escapes = cluster
            .iter()
            .any(|&n| n != root && dag.fanouts(n).iter().any(|f| !cluster_set.contains(f)));
        if escapes {
            continue;
        }
        // Internal nets must not feed primary outputs either.
        let internal_feeds_po = cluster.iter().any(|&n| {
            n != root
                && netlist.sinks(nets[n]).iter().any(|&(cell, _)| {
                    netlist
                        .cell(cell)
                        .is_some_and(|c| matches!(c.kind(), vpga_netlist::CellKind::Output))
                })
        });
        if internal_feeds_po {
            continue;
        }
        // The supernode's function over the cut leaves.
        let Some(tt) = cluster_function(netlist, lib, &dag, &nets, root, cut, &cluster_set) else {
            continue;
        };
        // Current cost of the cluster.
        let cluster_cells: Vec<CellId> = cluster
            .iter()
            .map(|&n| netlist.driver(nets[n]).expect("net has driver"))
            .collect();
        // Cells grouped by an earlier pass already sit in an optimal PLB
        // configuration; breaking the group would lose its co-packing.
        if cluster_cells
            .iter()
            .any(|&c| netlist.cell(c).is_some_and(|cell| cell.group().is_some()))
        {
            continue;
        }
        // Regularity-driven cost: each cell is charged its slot-amortized
        // share of the PLB's combinational area — functions only one slot
        // class can host (e.g. AND3 on the granular PLB's single ND3WI)
        // are expensive; flexibly hostable functions are cheap. This is
        // what makes the compaction *regularity*-driven rather than purely
        // area-driven: it optimizes how densely supernodes pack into PLBs.
        let old_cost: f64 = cluster_cells
            .iter()
            .map(|&c| costs.cell_cost(netlist, c))
            .sum();
        // Best covering configuration by realized packing cost.
        let mut best: Option<(&vpga_core::LogicConfig, f64, usize)> = None;
        for cfg in arch.configs() {
            if !cfg.functions().contains(tt) {
                continue;
            }
            let Some(r) = realizer.get(cfg, tt) else {
                continue;
            };
            let cost: f64 = r.cells.iter().map(|rc| costs.realized_cost(rc)).sum();
            if best.is_none_or(|(_, c, _)| cost < c) {
                best = Some((cfg, cost, r.cells.len()));
            }
        }
        let Some((cfg, new_cost, new_cells)) = best else {
            continue;
        };
        let savings = old_cost - new_cost;
        let denser = new_cells < cluster.len();
        if savings <= 1e-9 && !(savings.abs() <= 1e-9 && denser) {
            continue;
        }
        candidates.push(Candidate {
            root,
            cluster_cells,
            leaves: cut.iter().map(|&n| nets[n]).collect(),
            tt,
            config_name: cfg.name().to_owned(),
            savings,
            old_cells: cluster.len(),
            new_cells,
        });
    }

    // Greedy non-overlapping selection, best savings first.
    candidates.sort_by(|a, b| {
        let shrink = |c: &Candidate| c.old_cells as isize - c.new_cells as isize;
        b.savings
            .total_cmp(&a.savings)
            .then_with(|| shrink(b).cmp(&shrink(a)))
    });
    let mut consumed: HashSet<CellId> = HashSet::new();
    let mut report = CompactionReport {
        cells_before: stats_before.num_lib_cells(),
        area_before: stats_before.total_area,
        ..CompactionReport::default()
    };
    // Old root net → realization output net, for candidates whose leaves
    // were the roots of earlier rewrites.
    let mut net_alias: HashMap<NetId, NetId> = HashMap::new();
    for mut cand in candidates {
        if cand.cluster_cells.iter().any(|c| consumed.contains(c)) {
            continue;
        }
        for leaf in cand.leaves.iter_mut() {
            while let Some(&alias) = net_alias.get(leaf) {
                *leaf = alias;
            }
        }
        // Leaves must survive the rewrites applied so far.
        if cand.leaves.iter().any(|&l| {
            !netlist.net_exists(l) || netlist.driver(l).is_none_or(|d| consumed.contains(&d))
        }) {
            continue;
        }
        let cfg = arch
            .configs()
            .iter()
            .find(|c| c.name() == cand.config_name)
            .expect("candidate config exists");
        let Some(realization) = realizer.get(cfg, cand.tt).cloned() else {
            continue;
        };
        let (old_root, new_root) = rewrite(netlist, arch, &cand, &realization)?;
        net_alias.insert(old_root, new_root);
        consumed.extend(cand.cluster_cells.iter().copied());
        *report
            .rewrites_by_config
            .entry(cand.config_name.clone())
            .or_insert(0) += 1;
    }
    netlist.sweep_dead();
    let stats_after = vpga_netlist::stats::NetlistStats::compute(netlist, lib);
    report.cells_after = stats_after.num_lib_cells();
    report.area_after = stats_after.total_area;
    Ok(report)
}

/// Realization cache shared across the passes of one [`compact`] call.
struct Realizer<'a> {
    arch: &'a PlbArchitecture,
    cache: HashMap<(String, Tt3), Option<vpga_core::Realization>>,
}

impl<'a> Realizer<'a> {
    fn new(arch: &'a PlbArchitecture) -> Realizer<'a> {
        Realizer {
            arch,
            cache: HashMap::new(),
        }
    }

    fn get(&mut self, cfg: &vpga_core::LogicConfig, tt: Tt3) -> Option<&vpga_core::Realization> {
        self.cache
            .entry((cfg.name().to_owned(), tt))
            .or_insert_with(|| cfg.realize(tt, self.arch.library()))
            .as_ref()
    }
}

/// Slot-amortized packing cost of component cells: the PLB combinational
/// area divided by the number of slots whose via pattern can host the
/// cell's function.
struct PackingCosts<'a> {
    arch: &'a PlbArchitecture,
    cache: HashMap<(vpga_netlist::CellClass, Tt3), f64>,
}

impl<'a> PackingCosts<'a> {
    fn new(arch: &'a PlbArchitecture) -> PackingCosts<'a> {
        PackingCosts {
            arch,
            cache: HashMap::new(),
        }
    }

    fn class_cost(&mut self, class: vpga_netlist::CellClass, function: Tt3) -> f64 {
        if let Some(&c) = self.cache.get(&(class, function)) {
            return c;
        }
        let mut hosting_slots = 0u16;
        for alt in vpga_netlist::CellClass::PLB_CLASSES {
            if alt.is_sequential() || self.arch.capacity().count(alt) == 0 {
                continue;
            }
            let Some(cell) = self.arch.slot_cell(alt) else {
                continue;
            };
            if alt == class || vpga_core::matcher::match_cell(cell, function, 3).is_some() {
                hosting_slots += self.arch.capacity().count(alt);
            }
        }
        let cost = self.arch.comb_area() / f64::from(hosting_slots.max(1));
        self.cache.insert((class, function), cost);
        cost
    }

    fn cell_cost(&mut self, netlist: &Netlist, cell: CellId) -> f64 {
        let Some(c) = netlist.cell(cell) else {
            return 0.0;
        };
        let Some(lib_id) = c.lib_id() else { return 0.0 };
        let Some(lc) = self.arch.library().cell(lib_id) else {
            return 0.0;
        };
        if lc.is_sequential() {
            return self.arch.seq_area();
        }
        // A pin strapped to a rail narrows the instance's effective
        // function — a 3-input OR config with one pin tied low is really a
        // 2-input OR, which many more slot classes can host.
        let mut forced = [None; 3];
        for (pin, net) in c.inputs().iter().enumerate().take(3) {
            if let Some(driver) = netlist.driver(*net) {
                if let Some(vpga_netlist::CellKind::Constant(v)) =
                    netlist.cell(driver).map(|dc| dc.kind())
                {
                    forced[pin] = Some(v);
                }
            }
        }
        let f = effective_function(c.config().unwrap_or_else(|| lc.function()), forced);
        self.class_cost(lc.class(), f)
    }

    fn realized_cost(&mut self, rc: &vpga_core::RealizedCell) -> f64 {
        let Some(lc) = self.arch.library().cell_by_name(&rc.lib_name) else {
            return f64::INFINITY;
        };
        let mut forced = [None; 3];
        for (pin, src) in rc.pins.iter().enumerate().take(3) {
            if let NodeSource::Const(v) = src {
                forced[pin] = Some(*v);
            }
        }
        self.class_cost(lc.class(), effective_function(rc.config, forced))
    }
}

/// Restricts a pin-space configuration by the rail-strapped pins.
fn effective_function(config: Tt3, forced: [Option<bool>; 3]) -> Tt3 {
    let mut bits = 0u8;
    for m in 0..8u8 {
        let arg = |i: usize| forced[i].unwrap_or((m >> i) & 1 == 1);
        if config.eval(arg(0), arg(1), arg(2)) {
            bits |= 1 << m;
        }
    }
    Tt3::new(bits)
}

#[allow(dead_code)]
fn cell_area(netlist: &Netlist, lib: &vpga_netlist::Library, cell: CellId) -> f64 {
    netlist
        .cell(cell)
        .and_then(|c| c.lib_id())
        .and_then(|id| lib.cell(id))
        .map(|c| c.area())
        .unwrap_or(0.0)
}

/// Evaluates the supernode rooted at `root` over its cut leaves by 8-minterm
/// local simulation. Returns `None` if a cluster member is sequential or a
/// constant feeds in unexpectedly.
fn cluster_function(
    netlist: &Netlist,
    lib: &vpga_netlist::Library,
    dag: &Dag,
    nets: &[NetId],
    root: NodeIx,
    cut: &[NodeIx],
    cluster: &HashSet<NodeIx>,
) -> Option<Tt3> {
    // Topological order within the cluster = ascending node index.
    let mut members: Vec<NodeIx> = cluster.iter().copied().collect();
    members.sort_unstable();
    let mut bits = 0u8;
    for m in 0..8u8 {
        let mut value: HashMap<NodeIx, bool> = HashMap::new();
        for (i, &leaf) in cut.iter().enumerate() {
            value.insert(leaf, (m >> i) & 1 == 1);
        }
        for &n in &members {
            let cell_id = netlist.driver(nets[n])?;
            let cell = netlist.cell(cell_id)?;
            let tt = netlist.instance_function(cell_id, lib)?;
            let mut args = [false; 3];
            for (pin, net) in cell.inputs().iter().enumerate() {
                let feeder = dag.fanins(n).get(pin).copied()?;
                debug_assert_eq!(nets[feeder], *net);
                args[pin] = match dag.const_value(feeder) {
                    Some(v) => v,
                    None => *value.get(&feeder)?,
                };
            }
            value.insert(n, tt.eval(args[0], args[1], args[2]));
        }
        if *value.get(&root)? {
            bits |= 1 << m;
        }
    }
    Some(Tt3::new(bits))
}

/// Replaces a cluster by its configuration realization; returns the old and
/// new root nets.
fn rewrite(
    netlist: &mut Netlist,
    arch: &PlbArchitecture,
    cand: &Candidate,
    realization: &vpga_core::Realization,
) -> Result<(NetId, NetId), NetlistError> {
    let lib = arch.library();
    let mut node_nets: Vec<NetId> = Vec::with_capacity(realization.cells.len());
    let mut created: Vec<CellId> = Vec::new();
    for rc in &realization.cells {
        let pins: Vec<NetId> = rc
            .pins
            .iter()
            .map(|p| match *p {
                NodeSource::Leaf(i) => cand.leaves.get(i).copied().unwrap_or_else(|| {
                    // A pin bound to a leaf beyond the cut width is
                    // irrelevant to the function; strap it low.
                    cand.leaves[0]
                }),
                NodeSource::Const(b) => netlist.constant(b),
                NodeSource::Node(n) => node_nets[n],
            })
            .collect();
        let name = netlist.fresh_name(&format!("cpt_{}", rc.lib_name.to_lowercase()));
        let net = netlist.add_lib_cell(name, lib, &rc.lib_name, &pins)?;
        let cell = netlist.driver(net).expect("new cell drives its net");
        netlist.set_config(cell, lib, Some(rc.config))?;
        created.push(cell);
        node_nets.push(net);
    }
    // Tie multi-cell realizations into a packing group.
    if created.len() > 1 {
        let group = netlist.new_group();
        for &c in &created {
            netlist.set_group(c, Some(group))?;
        }
    }
    // Reroute consumers of the old root onto the new root, then delete the
    // cluster (reverse topological: consumers first).
    let new_root = *node_nets.last().expect("realization non-empty");
    let old_root_net = netlist
        .cell(cand.cluster_cells[0])
        .and_then(|c| c.output())
        .expect("root cell drives a net");
    netlist.transfer_sinks(old_root_net, new_root)?;
    // Remove cells; repeat until all removable (fanout-free) are gone.
    let mut remaining: Vec<CellId> = cand.cluster_cells.clone();
    let mut progress = true;
    while progress && !remaining.is_empty() {
        progress = false;
        remaining.retain(|&c| match netlist.remove_cell(c) {
            Ok(()) => {
                progress = true;
                false
            }
            Err(_) => true,
        });
    }
    debug_assert!(
        remaining.is_empty(),
        "cluster removal left {} cells",
        remaining.len()
    );
    Ok((old_root_net, new_root))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use vpga_designs::{DesignParams, NamedDesign};
    use vpga_netlist::library::generic;
    use vpga_netlist::sim::first_divergence;
    use vpga_synth::map_netlist_fast;

    fn assert_equivalent(
        a: &Netlist,
        lib_a: &vpga_netlist::Library,
        b: &Netlist,
        lib_b: &vpga_netlist::Library,
    ) {
        let mut rng = SmallRng::seed_from_u64(0xFEED);
        let vectors: Vec<Vec<bool>> = (0..48)
            .map(|_| (0..a.inputs().len()).map(|_| rng.gen()).collect())
            .collect();
        let div = first_divergence(a, lib_a, b, lib_b, &vectors).expect("simulable");
        assert_eq!(div, None, "netlists diverge");
    }

    #[test]
    fn compaction_preserves_function_on_all_tiny_designs() {
        let params = DesignParams::tiny();
        let src = generic::library();
        for arch in [
            vpga_core::PlbArchitecture::granular(),
            vpga_core::PlbArchitecture::lut_based(),
        ] {
            for design in NamedDesign::ALL {
                let g = design.generate(&params);
                let mut mapped = map_netlist_fast(&g, &src, &arch).expect("mappable");
                let report = compact(&mut mapped, &arch).expect("compactable");
                mapped
                    .validate(arch.library())
                    .unwrap_or_else(|e| panic!("{design} on {}: {e}", arch.name()));
                assert_equivalent(&g, &src, &mapped, arch.library());
                // The objective is slot-amortized packing cost, so raw cell
                // area may grow marginally — but never the cell count.
                assert!(
                    report.cells_after <= report.cells_before,
                    "{design} on {} gained cells: {report}",
                    arch.name()
                );
                assert!(
                    report.area_after <= report.area_before * 1.05,
                    "{design} on {} grew: {report}",
                    arch.name()
                );
            }
        }
    }

    #[test]
    fn or_chain_collapses_into_nd3_on_the_lut_plb() {
        // or2(or2(a, b), c) is a 3-input OR: one ND3WI after compaction on
        // the LUT-based PLB (which has two ND3WI slots, so the OR3 is not a
        // scarce shape there).
        let build = || {
            let src = generic::library();
            let mut n = Netlist::new("orchain");
            let a = n.add_input("a");
            let b = n.add_input("b");
            let c = n.add_input("c");
            let o1 = n.add_lib_cell("o1", &src, "OR2", &[a, b]).unwrap();
            let o2 = n.add_lib_cell("o2", &src, "OR2", &[o1, c]).unwrap();
            n.add_output("y", o2);
            (n, src)
        };
        let (n, src) = build();
        let arch = vpga_core::PlbArchitecture::lut_based();
        let mut mapped = map_netlist_fast(&n, &src, &arch).unwrap();
        let before = mapped.cells().filter(|(_, c)| c.lib_id().is_some()).count();
        assert_eq!(before, 2, "two ND2 cells before compaction");
        let report = compact(&mut mapped, &arch).unwrap();
        let after = mapped.cells().filter(|(_, c)| c.lib_id().is_some()).count();
        assert_eq!(after, 1, "single ND3 after compaction: {report}");
        assert_equivalent(&n, &src, &mapped, arch.library());
        assert!(report.area_reduction() > 0.4);
    }

    #[test]
    fn or_chain_stays_flexible_on_the_granular_plb() {
        // On the granular PLB the single ND3WI slot makes an AND3/OR3 shape
        // scarce: the regularity-driven cost keeps the two ND2 cells, whose
        // functions can also be hosted by the MUX/XOA slots.
        let src = generic::library();
        let mut n = Netlist::new("orchain");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let o1 = n.add_lib_cell("o1", &src, "OR2", &[a, b]).unwrap();
        let o2 = n.add_lib_cell("o2", &src, "OR2", &[o1, c]).unwrap();
        n.add_output("y", o2);
        let arch = vpga_core::PlbArchitecture::granular();
        let mut mapped = map_netlist_fast(&n, &src, &arch).unwrap();
        let report = compact(&mut mapped, &arch).unwrap();
        let after = mapped.cells().filter(|(_, c)| c.lib_id().is_some()).count();
        assert_eq!(after, 2, "flexible pair kept: {report}");
        assert_equivalent(&n, &src, &mapped, arch.library());
    }

    #[test]
    fn lut_arch_collapses_xor_trees_into_one_lut() {
        // xor2(xor2(a,b), c) costs two LUTs before compaction, one after.
        let src = generic::library();
        let mut n = Netlist::new("xortree");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let x1 = n.add_lib_cell("x1", &src, "XOR2", &[a, b]).unwrap();
        let x2 = n.add_lib_cell("x2", &src, "XOR2", &[x1, c]).unwrap();
        n.add_output("y", x2);
        let arch = vpga_core::PlbArchitecture::lut_based();
        let mut mapped = map_netlist_fast(&n, &src, &arch).unwrap();
        let report = compact(&mut mapped, &arch).unwrap();
        let luts = vpga_synth::MappingStats::compute(&mapped, arch.library()).count("LUT3");
        assert_eq!(luts, 1, "{report}");
        assert_equivalent(&n, &src, &mapped, arch.library());
    }

    #[test]
    fn shared_internal_signals_are_not_destroyed() {
        // o1 feeds both o2 and a primary output: the cluster {o1, o2} must
        // be rejected (or the PO kept correct) — equivalence is the judge.
        let src = generic::library();
        let mut n = Netlist::new("shared");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let o1 = n.add_lib_cell("o1", &src, "OR2", &[a, b]).unwrap();
        let o2 = n.add_lib_cell("o2", &src, "OR2", &[o1, c]).unwrap();
        n.add_output("mid", o1);
        n.add_output("y", o2);
        let arch = vpga_core::PlbArchitecture::granular();
        let mut mapped = map_netlist_fast(&n, &src, &arch).unwrap();
        let _ = compact(&mut mapped, &arch).unwrap();
        assert_equivalent(&n, &src, &mapped, arch.library());
    }

    #[test]
    fn groups_mark_multi_cell_realizations() {
        // A 3-input majority on the granular PLB needs a multi-cell config;
        // its cells must share a group after compaction-based mapping.
        let src = generic::library();
        let mut n = Netlist::new("maj");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        // Build majority from 2-input gates so compaction has a cluster.
        let ab = n.add_lib_cell("ab", &src, "AND2", &[a, b]).unwrap();
        let bc = n.add_lib_cell("bc", &src, "AND2", &[b, c]).unwrap();
        let ca = n.add_lib_cell("ca", &src, "AND2", &[c, a]).unwrap();
        let o1 = n.add_lib_cell("o1", &src, "OR2", &[ab, bc]).unwrap();
        let o2 = n.add_lib_cell("o2", &src, "OR2", &[o1, ca]).unwrap();
        n.add_output("y", o2);
        let arch = vpga_core::PlbArchitecture::granular();
        let mut mapped = map_netlist_fast(&n, &src, &arch).unwrap();
        let report = compact(&mut mapped, &arch).unwrap();
        assert_equivalent(&n, &src, &mapped, arch.library());
        if report.num_rewrites() > 0 {
            let grouped = mapped.cells().filter(|(_, c)| c.group().is_some()).count();
            let multi = report
                .rewrites_by_config
                .iter()
                .any(|(name, _)| name != "MX" && name != "ND3" && name != "XOA");
            assert!(!multi || grouped >= 2, "{report}");
        }
    }

    #[test]
    fn compaction_reduces_datapath_area_measurably() {
        // The paper reports ~15 % average; require a solid reduction on the
        // mux/xor-rich FPU at small scale.
        let params = DesignParams::small();
        let src = generic::library();
        let arch = vpga_core::PlbArchitecture::lut_based();
        let g = NamedDesign::Fpu.generate(&params);
        let mut mapped = map_netlist_fast(&g, &src, &arch).unwrap();
        let report = compact(&mut mapped, &arch).unwrap();
        assert!(
            report.area_reduction() > 0.05,
            "expected >5 % reduction, got {:.1} % ({report})",
            100.0 * report.area_reduction()
        );
    }
}
