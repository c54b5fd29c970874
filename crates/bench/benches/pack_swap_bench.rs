//! Criterion benchmarks for the back-end hot paths: recursive-quadrisection
//! packing (the §3.1 pack ↔ physical-synthesis loop) and whole-PLB swap
//! annealing, each on the engine the flow runs. Both run the network
//! switch — the largest Table 1 design — at the `small` scale so numbers
//! line up with the CI goldens. The swap bench keeps its historical name
//! `swap/full_rescan_netswitch`: it always timed the flat-row recompute
//! engine, which is now the only one. `BENCH_pack_swap.json` in the repo
//! root records the baseline these benches are tracked against.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vpga_core::PlbArchitecture;
use vpga_designs::{DesignParams, NamedDesign};
use vpga_netlist::library::generic;
use vpga_netlist::Netlist;
use vpga_pack::{PackConfig, SwapConfig};
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

fn bench_pack(c: &mut Criterion) {
    let (mapped, arch) = network_switch();
    let pc = vpga_place::PlaceConfig::default();
    let (placement, _) = vpga_place::place(&mapped, arch.library(), &pc).expect("placeable");
    let cfg = PackConfig::default();
    // The JSON payload tracked in BENCH_pack_swap.json is emitted by the
    // bench itself, so the recorded work profile can never drift from
    // what the bench measured.
    let mut p = placement.clone();
    let (_, stats) =
        vpga_pack::pack_iterative(&mapped, &arch, &mut p, &pc, &cfg, None).expect("packable");
    let payload = format!(
        "{{\"items\": {}, \"relocations\": {}, \"spilled\": {}, \"passes\": {}}}",
        stats.items, stats.relocations, stats.spilled, stats.passes
    );
    println!("pack/iterative payload: {payload}");
    let payload_path =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("pack_iterative_payload.json");
    if let Err(e) = std::fs::write(&payload_path, &payload) {
        eprintln!("warning: could not write {}: {e}", payload_path.display());
    }
    c.bench_function("pack/iterative_netswitch", |b| {
        b.iter(|| {
            let mut p = placement.clone();
            vpga_pack::pack_iterative(black_box(&mapped), &arch, &mut p, &pc, &cfg, None).unwrap()
        })
    });
}

fn bench_swap(c: &mut Criterion) {
    let (mapped, arch) = network_switch();
    let pc = vpga_place::PlaceConfig::default();
    let (mut placement, _) = vpga_place::place(&mapped, arch.library(), &pc).expect("placeable");
    let (array, _) = vpga_pack::pack(&mapped, &arch, &placement, &PackConfig::default(), None)
        .expect("packable");
    vpga_pack::apply_to_placement(&array, &mapped, &mut placement);
    let cfg = SwapConfig::default();
    let mut a = array.clone();
    let mut p = placement.clone();
    let (_, stats) = vpga_pack::swap_optimize(&mut a, &mapped, &mut p, &cfg);
    println!(
        "swap payload: {{\"moves_attempted\": {}, \"moves_accepted\": {}, \"rounds\": {}}}",
        stats.moves_attempted, stats.moves_accepted, stats.rounds
    );
    c.bench_function("swap/full_rescan_netswitch", |b| {
        b.iter(|| {
            let mut a = array.clone();
            let mut p = placement.clone();
            vpga_pack::swap_optimize(&mut a, black_box(&mapped), &mut p, &cfg)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pack, bench_swap
}
criterion_main!(benches);
