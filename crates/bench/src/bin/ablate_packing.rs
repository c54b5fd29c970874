//! Ablation A2: the packer's cost function — §3.1 says relocation cost
//! "takes into consideration the criticality of the cells being moved".
//! Compare criticality-aware packing against criticality-blind packing and
//! against disabling the §3.2 flexible slot retargeting.
//!
//! ```sh
//! cargo run --release -p vpga-bench --bin ablate_packing [tiny|small|medium|paper]
//! ```

use vpga_core::PlbArchitecture;
use vpga_designs::NamedDesign;
use vpga_flow::{run_design, FlowConfig};
use vpga_pack::PackConfig;

fn main() {
    let params = vpga_bench::params_from_args();
    vpga_bench::banner(
        "A2 — packing cost-function ablation",
        "§3.1 criticality-weighted relocation; §3.2 flexible slot retargeting",
    );
    let design = NamedDesign::Fpu.generate(&params);
    let arch = PlbArchitecture::granular();
    let runs = [
        ("full (criticality + flexible)", FlowConfig::default()),
        (
            "no flexibility",
            FlowConfig {
                pack: PackConfig {
                    flexible: false,
                    ..PackConfig::default()
                },
                ..FlowConfig::default()
            },
        ),
        (
            "no criticality",
            FlowConfig {
                pack_criticality: false,
                ..FlowConfig::default()
            },
        ),
    ];
    for (label, config) in runs {
        match run_design(&design, &arch, &config) {
            Ok(out) => {
                let (c, r, used) = out.flow_b.array.expect("flow b array");
                println!(
                    "  {label:30} die {:>9.0} µm² ({c}×{r}, {used} used), top-10 slack {:>9.1} ps, \
                     a→b degradation {:>7.1} ps",
                    out.flow_b.die_area,
                    out.flow_b.avg_top10_slack,
                    out.slack_degradation()
                );
            }
            Err(e) => println!("  {label:30} FAILED: {e}"),
        }
    }
    println!(
        "\nreading: flexibility is the load-bearing §3.2 mechanism (without it\n\
         the array inflates or packing fails); criticality weighting trims the\n\
         a→b slack degradation."
    );
}
