//! Criterion benchmarks for the CAD substrates: AIG construction, cut
//! enumeration, technology mapping, FlowMap labeling, compaction,
//! placement, packing, routing, and timing — each on a fixed tiny ALU so
//! numbers are comparable across runs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vpga_core::PlbArchitecture;
use vpga_designs::{DesignParams, NamedDesign};
use vpga_flowmap::{Dag, Labeling};
use vpga_netlist::library::generic;
use vpga_synth::{map_netlist, map_netlist_fast, Aig};

fn bench_synthesis(c: &mut Criterion) {
    let params = DesignParams::tiny();
    let src = generic::library();
    let design = NamedDesign::Alu.generate(&params);
    let arch = PlbArchitecture::granular();
    c.bench_function("synth/aig_from_netlist", |b| {
        b.iter(|| Aig::from_netlist(black_box(&design), &src).unwrap())
    });
    let (aig, _) = Aig::from_netlist(&design, &src).unwrap();
    c.bench_function("synth/cut_enumeration", |b| {
        b.iter(|| vpga_synth::cuts::CutSet::enumerate(black_box(&aig)))
    });
    c.bench_function("synth/map_fast", |b| {
        b.iter(|| map_netlist_fast(black_box(&design), &src, &arch).unwrap())
    });
    c.bench_function("synth/map_cut_based", |b| {
        b.iter(|| map_netlist(black_box(&design), &src, &arch).unwrap())
    });
}

fn bench_flowmap_and_compaction(c: &mut Criterion) {
    let params = DesignParams::tiny();
    let src = generic::library();
    let arch = PlbArchitecture::granular();
    let mapped = map_netlist_fast(&NamedDesign::Alu.generate(&params), &src, &arch).unwrap();
    c.bench_function("flowmap/labeling_k3", |b| {
        b.iter(|| {
            let (dag, _) = Dag::from_netlist(black_box(&mapped), arch.library());
            Labeling::compute(&dag, 3, 64)
        })
    });
    c.bench_function("compact/full_pass", |b| {
        b.iter(|| {
            let mut n = mapped.clone();
            vpga_compact::compact(&mut n, &arch).unwrap()
        })
    });
}

fn bench_physical(c: &mut Criterion) {
    let params = DesignParams::tiny();
    let src = generic::library();
    let arch = PlbArchitecture::granular();
    let mut mapped = map_netlist_fast(&NamedDesign::Alu.generate(&params), &src, &arch).unwrap();
    vpga_compact::compact(&mut mapped, &arch).unwrap();
    let place_cfg = vpga_place::PlaceConfig::default();
    c.bench_function("place/anneal", |b| {
        b.iter(|| vpga_place::place(black_box(&mapped), arch.library(), &place_cfg))
    });
    let placement = vpga_place::place(&mapped, arch.library(), &place_cfg);
    c.bench_function("pack/quadrisection", |b| {
        b.iter(|| {
            vpga_pack::pack(
                black_box(&mapped),
                &arch,
                &placement,
                &vpga_pack::PackConfig::default(),
            )
            .unwrap()
        })
    });
    let array = vpga_pack::pack(
        &mapped,
        &arch,
        &placement,
        &vpga_pack::PackConfig::default(),
    )
    .unwrap();
    let mut packed_placement = placement.clone();
    vpga_pack::apply_to_placement(&array, &mapped, &mut packed_placement);
    let route_cfg = vpga_route::RouteConfig {
        tile_size: Some(array.plb_pitch()),
        ..vpga_route::RouteConfig::default()
    };
    c.bench_function("route/pathfinder", |b| {
        b.iter(|| vpga_route::route(black_box(&mapped), &packed_placement, &route_cfg))
    });
    let routing = vpga_route::route(&mapped, &packed_placement, &route_cfg);
    c.bench_function("timing/sta_post_route", |b| {
        b.iter(|| {
            vpga_timing::analyze(
                black_box(&mapped),
                arch.library(),
                &packed_placement,
                Some(&routing),
                &vpga_timing::TimingConfig::default(),
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_synthesis, bench_flowmap_and_compaction, bench_physical
}
criterion_main!(benches);
