//! Cross-crate integration: the full Figure 6 flow, end to end, with
//! functional-equivalence and structural-legality checks at every hand-off.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vpga::core::PlbArchitecture;
use vpga::designs::{DesignParams, NamedDesign};
use vpga::netlist::library::generic;
use vpga::netlist::sim::first_divergence;
use vpga::netlist::CellClass;
use vpga::pack::PackConfig;
use vpga::place::PlaceConfig;

/// The front-end (mapping + compaction) must preserve every design's
/// function on both architectures — checked by random co-simulation.
#[test]
fn front_end_preserves_function_for_every_design_and_arch() {
    let params = DesignParams::tiny();
    let src = generic::library();
    let mut rng = SmallRng::seed_from_u64(2004);
    for design in NamedDesign::ALL {
        let golden = design.generate(&params);
        let vectors: Vec<Vec<bool>> = (0..40)
            .map(|_| (0..golden.inputs().len()).map(|_| rng.gen()).collect())
            .collect();
        for arch in [PlbArchitecture::granular(), PlbArchitecture::lut_based()] {
            let mut mapped =
                vpga::synth::map_netlist_fast(&golden, &src, &arch).expect("mapping succeeds");
            vpga::compact::compact(&mut mapped, &arch).expect("compaction succeeds");
            mapped.validate(arch.library()).expect("valid netlist");
            let div = first_divergence(&golden, &src, &mapped, arch.library(), &vectors)
                .expect("simulable");
            assert_eq!(div, None, "{design} diverges on {}", arch.name());
        }
    }
}

/// The packed array must be structurally legal: every library cell seated,
/// no PLB over capacity, groups kept whole.
#[test]
fn packed_arrays_are_legal() {
    let params = DesignParams::tiny();
    let src = generic::library();
    for design in [NamedDesign::Alu, NamedDesign::Fpu] {
        for arch in [PlbArchitecture::granular(), PlbArchitecture::lut_based()] {
            let golden = design.generate(&params);
            let mut mapped =
                vpga::synth::map_netlist_fast(&golden, &src, &arch).expect("mapping succeeds");
            vpga::compact::compact(&mut mapped, &arch).expect("compaction succeeds");
            let place_cfg = PlaceConfig::default();
            let mut placement = vpga::place::place(&mapped, arch.library(), &place_cfg);
            let array = vpga::pack::pack_iterative(
                &mapped,
                &arch,
                &mut placement,
                &place_cfg,
                &PackConfig::default(),
            )
            .expect("packing succeeds");
            // Every cell assigned.
            let mut groups: std::collections::HashMap<_, std::collections::HashSet<usize>> =
                std::collections::HashMap::new();
            for (id, cell) in mapped.cells() {
                if cell.lib_id().is_none() {
                    continue;
                }
                let plb = array.plb_of(id).unwrap_or_else(|| {
                    panic!("{design}: unassigned cell {}", mapped.cell_name(id))
                });
                if let Some(g) = cell.group() {
                    groups.entry(g).or_default().insert(plb);
                }
            }
            for (g, homes) in groups {
                assert_eq!(homes.len(), 1, "{design}: group {g} split across PLBs");
            }
            // No PLB over capacity.
            for col in 0..array.cols() {
                for row in 0..array.rows() {
                    let plb = array.plb(col, row);
                    for class in CellClass::PLB_CLASSES {
                        assert!(
                            plb.used(class) <= arch.capacity().count(class),
                            "{design}: PLB ({col},{row}) over capacity on {class}"
                        );
                    }
                }
            }
            // Placement is complete and on PLB centres.
            assert!(placement.is_complete(&mapped));
        }
    }
}

/// Routing after packing must be congestion-legal and the timing report
/// must cover every endpoint.
#[test]
fn routed_arrays_are_congestion_legal() {
    let params = DesignParams::tiny();
    let src = generic::library();
    let arch = PlbArchitecture::granular();
    let golden = NamedDesign::NetworkSwitch.generate(&params);
    let mut mapped = vpga::synth::map_netlist_fast(&golden, &src, &arch).unwrap();
    vpga::compact::compact(&mut mapped, &arch).unwrap();
    let place_cfg = PlaceConfig::default();
    let mut placement = vpga::place::place(&mapped, arch.library(), &place_cfg);
    let array = vpga::pack::pack_iterative(
        &mapped,
        &arch,
        &mut placement,
        &place_cfg,
        &PackConfig::default(),
    )
    .unwrap();
    let route_cfg = vpga::route::RouteConfig {
        tile_size: Some(array.plb_pitch()),
        ..vpga::route::RouteConfig::default()
    };
    let routing = vpga::route::route(&mapped, &placement, &route_cfg);
    assert_eq!(routing.overflow_edges(), 0, "array routing must be legal");
    let sta = vpga::timing::analyze(
        &mapped,
        arch.library(),
        &placement,
        Some(&routing),
        &vpga::timing::TimingConfig::default(),
    );
    let dffs = mapped
        .cells()
        .filter(|(_, c)| {
            c.lib_id()
                .is_some_and(|id| arch.library().cell(id).unwrap().is_sequential())
        })
        .count();
    assert_eq!(
        sta.endpoints().len(),
        mapped.outputs().len() + dffs,
        "every PO and DFF D pin is a timing endpoint"
    );
}

/// The cut-based mapper is a drop-in alternative front end.
#[test]
fn cut_based_front_end_is_equivalent_too() {
    let params = DesignParams::tiny();
    let src = generic::library();
    let golden = NamedDesign::Firewire.generate(&params);
    let arch = PlbArchitecture::lut_based();
    let mut mapped = vpga::synth::map_netlist(&golden, &src, &arch).expect("mapping succeeds");
    vpga::compact::compact(&mut mapped, &arch).expect("compaction succeeds");
    let mut rng = SmallRng::seed_from_u64(7);
    let vectors: Vec<Vec<bool>> = (0..40)
        .map(|_| (0..golden.inputs().len()).map(|_| rng.gen()).collect())
        .collect();
    let div =
        first_divergence(&golden, &src, &mapped, arch.library(), &vectors).expect("simulable");
    assert_eq!(div, None);
}
