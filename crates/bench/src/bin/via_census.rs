//! Experiment E8 (extension): the via-cost accounting behind §2.3's
//! trade-off — "increasing granularity also incurs an area penalty due to
//! an increase in the number of configuration vias". Packs each design,
//! generates the full via program (`vpga-fabric`), and reports populated
//! vs potential configuration-via sites for both PLBs.
//!
//! ```sh
//! cargo run --release -p vpga-bench --bin via_census [tiny|small|medium|paper]
//! ```

use vpga_core::PlbArchitecture;
use vpga_designs::NamedDesign;
use vpga_fabric::FabricProgram;
use vpga_netlist::library::generic;
use vpga_pack::PackConfig;
use vpga_place::PlaceConfig;

fn main() {
    let params = vpga_bench::params_from_args();
    vpga_bench::banner(
        "E8 — configuration-via census (fabric programming)",
        "§2.3: \"the cost of potential vias is significantly less than SRAM programmable switches\"",
    );
    let src = generic::library();
    for arch in [PlbArchitecture::granular(), PlbArchitecture::lut_based()] {
        println!(
            "-- architecture: {} ({} via sites/PLB) --",
            arch.name(),
            arch.via_sites()
        );
        for design in NamedDesign::ALL {
            let golden = design.generate(&params);
            let mut mapped = vpga_synth::map_netlist_fast(&golden, &src, &arch).expect("mappable");
            vpga_compact::compact(&mut mapped, &arch).expect("compactable");
            let (placement, _) =
                vpga_place::place(&mapped, arch.library(), &PlaceConfig::default())
                    .expect("placeable");
            let (array, _) =
                vpga_pack::pack(&mapped, &arch, &placement, &PackConfig::default(), None)
                    .expect("packable");
            let program = FabricProgram::generate(&mapped, &arch, &array).expect("programmable");
            println!(
                "  {:16} {:5} slots, {:6} / {:7} config vias populated ({:4.1} %)",
                design.name(),
                program.slots_used(),
                program.vias_used(),
                program.via_sites_available(),
                100.0 * program.vias_used() as f64 / program.via_sites_available().max(1) as f64
            );
        }
    }
    println!(
        "\nreading: even fully programmed designs populate a small fraction of\n\
         the potential sites — the via mask is sparse, which is the fabric's\n\
         entire economic argument versus SRAM configuration bits."
    );
}
