//! Property-based determinism for the PLB-swap engine: the flat-row
//! recompute annealer must be **bit-identical** to the direct
//! recompute-over-the-placement formulation — final positions, assignment
//! tables, cost bits, and every counter — on random netlists, weights,
//! and seeds.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vpga_core::PlbArchitecture;
use vpga_netlist::library::generic;
use vpga_netlist::{CellId, Library, NetId, Netlist};
use vpga_pack::{PackConfig, PlbArray, SwapConfig, SwapStats};
use vpga_place::{PlaceConfig, Placement};

/// Combinational/sequential cell menu with pin arities.
const MENU: &[(&str, usize)] = &[
    ("INV", 1),
    ("BUF", 1),
    ("NAND2", 2),
    ("XOR2", 2),
    ("AND3", 3),
    ("MAJ3", 3),
    ("DFF", 1),
];

/// Builds a random layered DAG netlist (always acyclic). With `hubs`,
/// half of all input pins read a primary input and every cell output
/// nothing reads becomes a primary output, so no logic is swept away and
/// the input nets stay fat (tens of pins), as they are before buffering.
fn random_netlist(rng: &mut SmallRng, lib: &Library, hubs: bool) -> Netlist {
    let mut n = Netlist::new("rand");
    let n_inputs = rng.gen_range(2usize..6);
    let n_cells = rng.gen_range(20usize..120);
    let n_outputs = rng.gen_range(1usize..5);
    let mut nets: Vec<NetId> = (0..n_inputs)
        .map(|i| n.add_input(format!("i{i}")))
        .collect();
    for c in 0..n_cells {
        let (name, arity) = MENU[rng.gen_range(0usize..MENU.len())];
        let ins: Vec<NetId> = (0..arity)
            .map(|_| {
                if hubs && rng.gen::<bool>() {
                    nets[rng.gen_range(0usize..n_inputs)]
                } else {
                    nets[rng.gen_range(0usize..nets.len())]
                }
            })
            .collect();
        let out = n
            .add_lib_cell(format!("c{c}"), lib, name, &ins)
            .expect("menu cells exist");
        nets.push(out);
    }
    for o in 0..n_outputs {
        let net = nets[rng.gen_range(0usize..nets.len())];
        n.add_output(format!("y{o}"), net);
    }
    if hubs {
        for (i, &net) in nets.iter().enumerate().skip(n_inputs) {
            if n.sinks(net).is_empty() {
                n.add_output(format!("z{i}"), net);
            }
        }
    }
    n
}

/// Maps (and compacts, to exercise grouped items) a random netlist onto
/// the granular architecture. Compaction is best-effort: `vpga_compact`
/// has a pre-existing debug_assert ("cluster removal left N cells") that
/// fires on some random DAGs with shared fanout inside a cluster; those
/// netlists are tested uncompacted — the engine and the oracle always
/// receive the same netlist, which is all the equivalence property needs.
fn mapped(rng: &mut SmallRng, arch: &PlbArchitecture, hubs: bool) -> Netlist {
    let lib = generic::library();
    let netlist = random_netlist(rng, &lib, hubs);
    let m = vpga_synth::map_netlist_fast(&netlist, &lib, arch).expect("mappable");
    let mut c = m.clone();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        vpga_compact::compact(&mut c, arch).map(|_| ())
    })) {
        Ok(Ok(())) => c,
        _ => m,
    }
}

/// The direct formulation of the PLB-swap anneal, the oracle the engine
/// is held to: every attempt collects the nets of the swapped
/// cells, moves the cells in the placement, and recomputes each net's
/// HPWL with `Placement::net_hpwl`. Returns the gain, the stats, and each
/// PLB's final cells.
fn swap_oracle(
    array: &PlbArray,
    netlist: &Netlist,
    placement: &mut Placement,
    config: &SwapConfig,
) -> (f64, SwapStats, Vec<Vec<CellId>>) {
    let mut stats = SwapStats::default();
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
    if n_plbs < 2 {
        return (0.0, stats, cells_of);
    }
    let seat = |placement: &mut Placement, cells: &[CellId], ix: usize| {
        let (x, y) = array.plb_center(ix);
        for &cell in cells {
            placement.set_position(cell, x, y);
        }
    };
    let mut weights = vec![1.0f64; netlist.net_capacity()];
    if let Some(w) = &config.net_weights {
        for (i, &v) in w.iter().enumerate().take(weights.len()) {
            weights[i] = v;
        }
    }
    let mut cell_nets: Vec<Vec<NetId>> = vec![Vec::new(); netlist.cell_capacity()];
    for net in netlist.nets() {
        if let Some(d) = netlist.driver(net) {
            cell_nets[d.index()].push(net);
        }
        for &(sink, _) in netlist.sinks(net) {
            cell_nets[sink.index()].push(net);
        }
    }
    for nets in cell_nets.iter_mut() {
        nets.sort_unstable();
        nets.dedup();
    }
    let cost_of = |placement: &Placement, net: NetId| -> f64 {
        weights[net.index()] * placement.net_hpwl(netlist, net)
    };
    let mut net_cost: Vec<f64> = (0..netlist.net_capacity())
        .map(|i| cost_of(placement, NetId::from_index(i)))
        .collect();
    let initial: f64 = net_cost.iter().sum();
    stats.cost_initial = initial;
    stats.cost_final = initial;
    if initial <= 0.0 {
        return (0.0, stats, cells_of);
    }
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut t = initial / n_plbs as f64;
    let moves = config.moves_per_plb * n_plbs;
    let mut current = initial;
    let mut best_cost = initial;
    let mut best_state = cells_of.clone();
    for round in 0..72 {
        let greedy = round >= 60;
        let mut accepted = 0usize;
        for _ in 0..moves {
            let p = rng.gen_range(0..n_plbs);
            let q = rng.gen_range(0..n_plbs);
            if p == q {
                continue;
            }
            stats.moves_attempted += 1;
            let mut nets: Vec<NetId> = Vec::new();
            for &cell in cells_of[p].iter().chain(&cells_of[q]) {
                nets.extend(cell_nets[cell.index()].iter().copied());
            }
            nets.sort_unstable();
            nets.dedup();
            let before: f64 = nets.iter().map(|n| net_cost[n.index()]).sum();
            seat(placement, &cells_of[p], q);
            seat(placement, &cells_of[q], p);
            let after: f64 = nets.iter().map(|&n| cost_of(placement, n)).sum();
            let delta = after - before;
            let accept = if greedy {
                delta < 0.0
            } else {
                delta <= 0.0 || rng.gen::<f64>() < (-delta / t.max(1e-9)).exp()
            };
            if accept {
                for &n in &nets {
                    net_cost[n.index()] = cost_of(placement, n);
                }
                cells_of.swap(p, q);
                current += delta;
                accepted += 1;
                if current < best_cost {
                    best_cost = current;
                    best_state = cells_of.clone();
                }
            } else {
                seat(placement, &cells_of[p], p);
                seat(placement, &cells_of[q], q);
            }
        }
        stats.moves_accepted += accepted as u64;
        stats.rounds += 1;
        t *= 0.85;
        if greedy && accepted == 0 {
            break;
        }
    }
    if current > best_cost {
        cells_of = best_state;
        for (ix, cells) in cells_of.iter().enumerate() {
            seat(placement, cells, ix);
        }
    }
    let final_cost = best_cost.min(current);
    stats.cost_final = final_cost;
    (1.0 - final_cost / initial, stats, cells_of)
}

/// Packs `netlist`, runs the swap engine and the oracle
/// on copies of the result, and checks they agree bit for bit: gain bits,
/// the core stats, every assignment, and every position.
fn check_swap_against_oracle(netlist: &Netlist, arch: &PlbArchitecture, config: &SwapConfig) {
    let pc = PlaceConfig::default();
    let (mut placement, _) = vpga_place::place(netlist, arch.library(), &pc).expect("placeable");
    let (mut array, _) =
        vpga_pack::pack(netlist, arch, &placement, &PackConfig::default(), None).expect("packable");
    vpga_pack::apply_to_placement(&array, netlist, &mut placement);
    let mut placement_o = placement.clone();
    let (gain_o, s_o, cells_o) = swap_oracle(&array, netlist, &mut placement_o, config);
    let (gain, s) = vpga_pack::swap_optimize(&mut array, netlist, &mut placement, config);
    assert_eq!(gain.to_bits(), gain_o.to_bits());
    assert_eq!(s, s_o);
    for (ix, cells) in cells_o.iter().enumerate() {
        for &id in cells {
            assert_eq!(array.plb_of(id), Some(ix), "cell {}", id);
        }
    }
    for (id, cell) in netlist.cells() {
        if cell.lib_id().is_none() {
            continue;
        }
        assert_eq!(
            placement
                .position(id)
                .map(|(x, y)| (x.to_bits(), y.to_bits())),
            placement_o
                .position(id)
                .map(|(x, y)| (x.to_bits(), y.to_bits()))
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random netlist + random swap seed: the flat-row recompute engine
    /// reproduces the oracle on fat unbuffered hub nets as well as ordinary
    /// ones, with and without criticality weights.
    #[test]
    fn recompute_swap_matches_oracle(
        netlist_seed in 0u64..1_000_000,
        swap_seed in 0u64..1_000_000,
        moves_per_plb in 1usize..8,
        hubs in any::<bool>(),
        weighted in any::<bool>(),
    ) {
        let arch = PlbArchitecture::granular();
        let mut rng = SmallRng::seed_from_u64(netlist_seed);
        let netlist = mapped(&mut rng, &arch, hubs);
        let net_weights = weighted.then(|| {
            (0..netlist.net_capacity())
                .map(|_| {
                    let c = rng.gen::<f64>();
                    1.0 + 8.0 * c * c
                })
                .collect::<Vec<f64>>()
        });
        let cfg = SwapConfig {
            seed: swap_seed,
            moves_per_plb,
            net_weights,
        };
        check_swap_against_oracle(&netlist, &arch, &cfg);
    }
}
