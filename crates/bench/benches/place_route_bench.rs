//! Criterion benchmarks for the two flow hot paths this repo optimizes
//! incrementally: annealing placement (`try_move` throughput) and
//! PathFinder negotiation (single-iteration cost plus dirty-net vs. full
//! rip-up convergence). All benches run the network switch — the largest
//! Table 1 design — at the `small` scale so numbers line up with the CI
//! goldens and `vpga matrix --stats`.
//!
//! The annealer's move schedule is deterministic at a fixed seed, so a
//! whole `place` run times a fixed number of `try_move` attempts; its wall
//! time is per-move cost times a constant (the attempt count is printed
//! alongside the timings). `BENCH_place_route.json` in the repo root
//! records the baseline these benches are tracked against.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vpga_core::PlbArchitecture;
use vpga_designs::{DesignParams, NamedDesign};
use vpga_netlist::library::generic;
use vpga_netlist::Netlist;
use vpga_synth::map_netlist_fast;

fn network_switch() -> (Netlist, PlbArchitecture) {
    let params = DesignParams::small();
    let src = generic::library();
    let arch = PlbArchitecture::granular();
    let mut mapped = map_netlist_fast(&NamedDesign::NetworkSwitch.generate(&params), &src, &arch)
        .expect("network switch maps");
    vpga_compact::compact(&mut mapped, &arch).expect("compaction succeeds");
    (mapped, arch)
}

fn bench_try_move(c: &mut Criterion) {
    let (mapped, arch) = network_switch();
    let cfg = vpga_place::PlaceConfig::default();
    let (_, stats) = vpga_place::place(&mapped, arch.library(), &cfg).expect("placeable");
    println!(
        "place/anneal: {} try_move attempts per run ({} incremental bbox updates, {} full rescans)",
        stats.moves_attempted, stats.bbox_incremental, stats.bbox_full
    );
    c.bench_function("place/anneal_netswitch", |b| {
        b.iter(|| vpga_place::place(black_box(&mapped), arch.library(), &cfg).unwrap())
    });
}

fn bench_negotiation(c: &mut Criterion) {
    let (mapped, arch) = network_switch();
    let (placement, _) =
        vpga_place::place(&mapped, arch.library(), &vpga_place::PlaceConfig::default())
            .expect("placeable");

    // One full negotiation iteration: every net routed once by A*.
    let one_iter = vpga_route::RouteConfig {
        max_iterations: 1,
        ..vpga_route::RouteConfig::default()
    };
    c.bench_function("route/negotiation_iteration", |b| {
        b.iter(|| vpga_route::route(black_box(&mapped), &placement, &one_iter).unwrap())
    });

    // Congested convergence: a tight channel forces several negotiation
    // iterations, which is where dirty-net rip-up pays off over ripping
    // up every net every iteration.
    let tight = vpga_route::RouteConfig {
        channel_capacity: 2,
        target_tiles: 256,
        ..vpga_route::RouteConfig::default()
    };
    let full = vpga_route::RouteConfig {
        incremental: false,
        ..tight.clone()
    };
    let probe = vpga_route::route(&mapped, &placement, &tight).expect("routable");
    // The JSON payload tracked in BENCH_place_route.json is emitted by the
    // bench itself — including the per-iteration reroute counts — so the
    // recorded work profile can never drift from what the bench measured.
    let per_iter = probe.reroutes_per_iteration();
    let payload = format!(
        "{{\"nets\": {}, \"total_reroutes\": {}, \"iterations\": {}, \"reroutes_per_iteration\": {:?}}}",
        probe.nets_routed(),
        probe.total_reroutes(),
        per_iter.len(),
        per_iter
    );
    println!("route/congested_dirty_net payload: {payload}");
    let payload_path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("route_congested_dirty_net_payload.json");
    if let Err(e) = std::fs::write(&payload_path, &payload) {
        eprintln!("warning: could not write {}: {e}", payload_path.display());
    }
    c.bench_function("route/congested_dirty_net", |b| {
        b.iter(|| vpga_route::route(black_box(&mapped), &placement, &tight).unwrap())
    });
    c.bench_function("route/congested_full_ripup", |b| {
        b.iter(|| vpga_route::route(black_box(&mapped), &placement, &full).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_try_move, bench_negotiation
}
criterion_main!(benches);
