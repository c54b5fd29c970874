//! Experiment E5: the §3.1 logic-compaction result — "this compaction step
//! resulted in a significant reduction in total gate area of about 15 % on
//! the average" for both PLB architectures.
//!
//! Reports, per design × architecture: cell and raw-area reduction and the
//! configurations used for the rewrites; then the mean raw-area reduction
//! over the datapath designs.
//!
//! ```sh
//! cargo run --release -p vpga-bench --bin compaction [tiny|small|medium|paper]
//! ```

use vpga_core::PlbArchitecture;
use vpga_designs::NamedDesign;
use vpga_netlist::library::generic;

fn main() {
    let params = vpga_bench::params_from_args();
    vpga_bench::banner(
        "E5 / §3.1 — regularity-driven logic compaction",
        "\"~15 % reduction in total gate area on the average\" for both PLB architectures",
    );
    let src = generic::library();
    let mut all_dp = Vec::new();
    for arch in [PlbArchitecture::granular(), PlbArchitecture::lut_based()] {
        println!("-- architecture: {} --", arch.name());
        for design in NamedDesign::ALL {
            let golden = design.generate(&params);
            let mut mapped = vpga_synth::map_netlist_fast(&golden, &src, &arch).expect("mappable");
            let report = vpga_compact::compact(&mut mapped, &arch).expect("compactable");
            let configs: Vec<String> = report
                .rewrites_by_config
                .iter()
                .map(|(k, v)| format!("{k}×{v}"))
                .collect();
            println!(
                "  {:16} cells {:5} → {:5}  area {:8.0} → {:8.0} µm² ({:5.1} %)  [{}]",
                design.name(),
                report.cells_before,
                report.cells_after,
                report.area_before,
                report.area_after,
                100.0 * report.area_reduction(),
                configs.join(" ")
            );
            if design.is_datapath() {
                all_dp.push(report.area_reduction());
            }
        }
    }
    let mean = all_dp.iter().sum::<f64>() / all_dp.len().max(1) as f64;
    println!(
        "\nmean raw-area reduction over datapath designs: {:.1} %  (paper ≈ 15 %)",
        100.0 * mean
    );
    println!(
        "note: the compaction objective is slot-amortized packing cost, so\n\
         raw-area numbers understate the benefit on the granular PLB — the\n\
         packing-efficiency gain shows up in Table 1's flow-b areas."
    );
}
