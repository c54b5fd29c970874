//! Property-based determinism: batched parallel PathFinder negotiation
//! must replay the serial router **bit for bit** — per-net routes and
//! length bits, iteration counts, per-iteration reroute profiles, and
//! congestion outcomes — on random netlists under random congestion
//! pressure, for any worker count. The fixed ascending commit order plus
//! frozen-snapshot validation is what makes the merge order (and thus the
//! whole negotiation trajectory) independent of thread scheduling.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vpga_netlist::library::generic;
use vpga_netlist::{Library, NetId, Netlist};
use vpga_place::PlaceConfig;
use vpga_route::RouteConfig;

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

/// Builds a random layered DAG netlist (always acyclic).
fn random_netlist(rng: &mut SmallRng, lib: &Library) -> Netlist {
    let mut n = Netlist::new("rand");
    let n_inputs = rng.gen_range(2usize..6);
    let n_cells = rng.gen_range(10usize..80);
    let n_outputs = rng.gen_range(1usize..5);
    let mut nets: Vec<NetId> = (0..n_inputs)
        .map(|i| n.add_input(format!("i{i}")))
        .collect();
    for c in 0..n_cells {
        let (name, arity) = MENU[rng.gen_range(0usize..MENU.len())];
        let ins: Vec<NetId> = (0..arity)
            .map(|_| nets[rng.gen_range(0usize..nets.len())])
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
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random netlist + random channel pressure: the parallel negotiation
    /// merge order reproduces the serial routing exactly at 2 and 4
    /// threads.
    #[test]
    fn parallel_negotiation_matches_serial(
        netlist_seed in 0u64..1_000_000,
        channel_capacity in 1u32..4,
    ) {
        let lib = generic::library();
        let mut rng = SmallRng::seed_from_u64(netlist_seed);
        let netlist = random_netlist(&mut rng, &lib);
        let placement = vpga_place::place(&netlist, &lib, &PlaceConfig::default());
        let cfg = RouteConfig {
            channel_capacity,
            keep_routes: true,
            ..RouteConfig::default()
        };
        let serial = vpga_route::route(&netlist, &placement, &cfg);
        prop_assert_eq!(serial.parallel_batches(), 0);
        for threads in [2usize, 4] {
            let par_cfg = RouteConfig {
                threads,
                ..cfg.clone()
            };
            let par = vpga_route::route(&netlist, &placement, &par_cfg);
            prop_assert_eq!(
                par.total_length().to_bits(),
                serial.total_length().to_bits(),
                "threads {}",
                threads
            );
            prop_assert_eq!(par.overflow_edges(), serial.overflow_edges());
            prop_assert_eq!(par.max_edge_load(), serial.max_edge_load());
            prop_assert_eq!(par.iterations_used(), serial.iterations_used());
            prop_assert_eq!(
                par.reroutes_per_iteration(),
                serial.reroutes_per_iteration()
            );
            for net in netlist.nets() {
                prop_assert_eq!(
                    par.net_length(net).to_bits(),
                    serial.net_length(net).to_bits()
                );
                prop_assert_eq!(par.net_route(net), serial.net_route(net));
            }
            prop_assert_eq!(
                par.parallel_nets_validated() + par.parallel_nets_replayed(),
                par.total_reroutes()
            );
        }
    }
}
