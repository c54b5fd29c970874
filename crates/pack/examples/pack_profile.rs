//! Paper-scale pack/swap wall-clock profile: generates the 80k-gate
//! network switch, runs the front of the flow once (map → compact → place),
//! then times `pack_iterative` and `swap_optimize` — the two back-end
//! stages this crate owns. The BENCH_pack_swap.json paper-scale rows come
//! from this harness.
//!
//! This is a library harness, not the product flow: it skips physical
//! synthesis, so the swap runs on unbuffered nets with tens of pins, where
//! the flat recompute engine rescans more pins per attempt than it does
//! after buffering. Its swap rows recorded with the since-removed
//! delta-cost engine are therefore not comparable with later runs.
//!
//! Usage: `cargo run --release -p vpga-pack --example pack_profile [size]`
//! (size = tiny | small | medium | paper; default paper).

use std::time::Instant;

use vpga_core::PlbArchitecture;
use vpga_designs::DesignParams;
use vpga_pack::{PackConfig, SwapConfig};
use vpga_place::PlaceConfig;

fn main() {
    let size = std::env::args().nth(1).unwrap_or_else(|| "paper".into());
    let Some(params) = DesignParams::by_name(&size) else {
        eprintln!(
            "unknown size {size:?} ({})",
            DesignParams::PRESETS.join("|")
        );
        std::process::exit(2);
    };
    let arch = PlbArchitecture::granular();
    let src = vpga_netlist::library::generic::library();
    let t = Instant::now();
    let design = vpga_designs::NamedDesign::NetworkSwitch.generate(&params);
    let mut netlist = vpga_synth::map_netlist_fast(&design, &src, &arch).expect("mappable");
    let _ = vpga_compact::compact(&mut netlist, &arch).expect("compactable");
    eprintln!(
        "front (gen+map+compact): {:.1?}, {} cells",
        t.elapsed(),
        netlist.cells().count()
    );
    let pc = PlaceConfig::default();
    let t = Instant::now();
    let mut placement = vpga_place::place(&netlist, arch.library(), &pc);
    eprintln!("place: {:.1?}", t.elapsed());

    let t = Instant::now();
    let (mut array, stats) = vpga_pack::pack_iterative_with_stats(
        &netlist,
        &arch,
        &mut placement,
        &pc,
        &PackConfig::default(),
    )
    .expect("packable");
    let pack_wall = t.elapsed();
    eprintln!("pack_iterative: {pack_wall:.1?}  {stats:?}");

    let t = Instant::now();
    let (gain, sstats) = vpga_pack::swap_optimize_with_stats(
        &mut array,
        &netlist,
        &mut placement,
        &SwapConfig::default(),
    );
    let swap_wall = t.elapsed();
    eprintln!("swap: {swap_wall:.1?}  gain {gain:.4}  {sstats:?}");
    println!(
        "{{\"size\":\"{size}\",\"pack_ms\":{:.1},\"swap_ms\":{:.1},\"hpwl\":{:.3}}}",
        pack_wall.as_secs_f64() * 1e3,
        swap_wall.as_secs_f64() * 1e3,
        placement.total_hpwl(&netlist)
    );
}
