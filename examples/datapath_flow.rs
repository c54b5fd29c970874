//! Domain-specific walkthrough: take the mux/XOR-rich FPU datapath through
//! each stage of the Figure 6 flow separately, printing what every stage
//! does — mapping, compaction, placement, buffering, packing, routing, and
//! timing — on the granular PLB.
//!
//! ```sh
//! cargo run --release --example datapath_flow
//! ```

use vpga::core::PlbArchitecture;
use vpga::designs::{DesignParams, NamedDesign};
use vpga::netlist::library::generic;
use vpga::netlist::stats::NetlistStats;
use vpga::pack::PackConfig;
use vpga::place::PlaceConfig;
use vpga::route::RouteConfig;
use vpga::synth::MappingStats;
use vpga::timing::TimingConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = DesignParams::tiny();
    let arch = PlbArchitecture::granular();
    let src = generic::library();
    let lib = arch.library();

    // RTL-equivalent: the generated gate-level FPU datapath.
    let design = NamedDesign::Fpu.generate(&params);
    let gates = NetlistStats::compute(&design, &src).nand2_equivalent(generic::NAND2_AREA);
    println!("FPU datapath: {:.0} NAND2-equivalent gates", gates);

    // Synthesis / technology mapping (Design Compiler substitute).
    let mut netlist = vpga::synth::map_netlist_fast(&design, &src, &arch)?;
    println!("\n-- after technology mapping --");
    print!("{}", MappingStats::compute(&netlist, lib));

    // Regularity-driven logic compaction.
    let report = vpga::compact::compact(&mut netlist, &arch)?;
    println!("\n-- after compaction --\n{report}");
    print!("{}", MappingStats::compute(&netlist, lib));

    // Timing-driven placement (Dolphin substitute).
    let place_cfg = PlaceConfig::default();
    let mut placement = vpga::place::place(&netlist, lib, &place_cfg);
    let sta = vpga::timing::analyze(&netlist, lib, &placement, None, &TimingConfig::default());
    println!(
        "\n-- after placement --\nHPWL {:.0} µm, est. critical delay {:.0} ps",
        placement.total_hpwl(&netlist),
        sta.critical_delay()
    );

    // Physical synthesis: buffers on long/high-fanout nets.
    let max_len = placement.die().width() * 0.5;
    let buffered = vpga::place::insert_buffers(&mut netlist, lib, &mut placement, 12, max_len)?;
    vpga::place::refine(&netlist, lib, &mut placement, &place_cfg, 0.2);
    println!(
        "\n-- physical synthesis --\ninserted {} buffers",
        buffered.total()
    );

    // Packing into the regular PLB array (the step flow a skips).
    let array = vpga::pack::pack_iterative(
        &netlist,
        &arch,
        &mut placement,
        &place_cfg,
        &PackConfig::default(),
    )?;
    println!("\n-- after packing --\n{array}");

    // Routing and post-layout timing on the array.
    let route_cfg = RouteConfig {
        tile_size: Some(array.plb_pitch()),
        ..RouteConfig::default()
    };
    let routing = vpga::route::route(&netlist, &placement, &route_cfg);
    let sta = vpga::timing::analyze(
        &netlist,
        lib,
        &placement,
        Some(&routing),
        &TimingConfig::default(),
    );
    println!(
        "\n-- post-layout --\nwirelength {:.0} µm ({} overflows), critical delay {:.0} ps, \
         top-10 slack {:.1} ps at the 500 ps cycle",
        routing.total_length(),
        routing.overflow_edges(),
        sta.critical_delay(),
        sta.avg_top_slack(10)
    );
    Ok(())
}
