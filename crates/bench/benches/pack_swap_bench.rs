//! Criterion benchmarks for the back-end hot paths: recursive-quadrisection
//! packing (the §3.1 pack ↔ physical-synthesis loop) and whole-PLB swap
//! annealing. Both run the network switch — the largest Table 1 design —
//! at the `small` scale so numbers line up with the CI goldens. Packing is
//! benchmarked with its incremental engine against the full-recompute
//! formulation it replaced (which survives behind
//! `PackConfig::incremental` as the test oracle), the swap with its
//! delta-cost engine against the flat-row recompute engine
//! (`SwapConfig::delta_cost = false`). Each pair is bit-identical —
//! asserted here — so the ratio between them is pure overhead.
//! `BENCH_pack_swap.json` in the repo root records the baseline these
//! benches are tracked against.

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
    let placement = vpga_place::place(&mapped, arch.library(), &pc);
    let inc_cfg = PackConfig::default();
    let full_cfg = PackConfig {
        incremental: false,
        ..PackConfig::default()
    };
    // The JSON payload tracked in BENCH_pack_swap.json is emitted by the
    // bench itself — including the dirty-region counters — so the recorded
    // work profile can never drift from what the bench measured.
    let mut p = placement.clone();
    let (_, stats) = vpga_pack::pack_iterative_with_stats(&mapped, &arch, &mut p, &pc, &inc_cfg)
        .expect("packable");
    let mut p_full = placement.clone();
    let (_, full_stats) =
        vpga_pack::pack_iterative_with_stats(&mapped, &arch, &mut p_full, &pc, &full_cfg)
            .expect("packable");
    assert_eq!(
        (stats.relocations, stats.spilled, stats.passes),
        (
            full_stats.relocations,
            full_stats.spilled,
            full_stats.passes
        ),
        "incremental repack must be bit-identical to full quadrisection"
    );
    let payload = format!(
        "{{\"items\": {}, \"relocations\": {}, \"spilled\": {}, \"passes\": {}, \"regions_reused\": {}, \"subtrees_repartitioned\": {}}}",
        stats.items,
        stats.relocations,
        stats.spilled,
        stats.passes,
        stats.regions_reused,
        stats.subtrees_repartitioned
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
            vpga_pack::pack_iterative_with_stats(black_box(&mapped), &arch, &mut p, &pc, &inc_cfg)
        })
    });
    c.bench_function("pack/iterative_netswitch_full_requad", |b| {
        b.iter(|| {
            let mut p = placement.clone();
            vpga_pack::pack_iterative_with_stats(black_box(&mapped), &arch, &mut p, &pc, &full_cfg)
        })
    });
}

fn bench_swap(c: &mut Criterion) {
    let (mapped, arch) = network_switch();
    let pc = vpga_place::PlaceConfig::default();
    let mut placement = vpga_place::place(&mapped, arch.library(), &pc);
    let array =
        vpga_pack::pack(&mapped, &arch, &placement, &PackConfig::default()).expect("packable");
    vpga_pack::apply_to_placement(&array, &mapped, &mut placement);
    let delta_cfg = SwapConfig::default();
    let rescan_cfg = SwapConfig {
        delta_cost: false,
        ..SwapConfig::default()
    };
    let mut a = array.clone();
    let mut p = placement.clone();
    let (gain, stats) = vpga_pack::swap_optimize_with_stats(&mut a, &mapped, &mut p, &delta_cfg);
    let mut a_full = array.clone();
    let mut p_full = placement.clone();
    let (gain_full, full_stats) =
        vpga_pack::swap_optimize_with_stats(&mut a_full, &mapped, &mut p_full, &rescan_cfg);
    assert_eq!(
        gain.to_bits(),
        gain_full.to_bits(),
        "delta-cost swap must be bit-identical to the recompute engine"
    );
    assert_eq!(
        (stats.moves_attempted, stats.moves_accepted),
        (full_stats.moves_attempted, full_stats.moves_accepted)
    );
    println!(
        "swap payload: {{\"moves_attempted\": {}, \"moves_accepted\": {}, \"rounds\": {}, \"delta_evals\": {}, \"bbox_rescans\": {}}}",
        stats.moves_attempted,
        stats.moves_accepted,
        stats.rounds,
        stats.delta_evals,
        stats.bbox_rescans
    );
    c.bench_function("swap/delta_netswitch", |b| {
        b.iter(|| {
            let mut a = array.clone();
            let mut p = placement.clone();
            vpga_pack::swap_optimize_with_stats(&mut a, black_box(&mapped), &mut p, &delta_cfg)
        })
    });
    c.bench_function("swap/full_rescan_netswitch", |b| {
        b.iter(|| {
            let mut a = array.clone();
            let mut p = placement.clone();
            vpga_pack::swap_optimize_with_stats(&mut a, black_box(&mapped), &mut p, &rescan_cfg)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pack, bench_swap
}
criterion_main!(benches);
