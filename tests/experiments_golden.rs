//! Golden regression tests for the direction-level claims recorded in
//! EXPERIMENTS.md (the paper's Tables 1–2 and Figure 2).
//!
//! Absolute numbers depend on design scale and annealer seeds, so these
//! tests lock the *directions* §3.2 argues from — which architecture wins
//! each comparison — at the `small` size CI runs, plus the exact S3
//! coverage counts behind Figure 2, which are scale-free combinatorial
//! facts.

use vpga::designs::NamedDesign;
use vpga::flow::{Matrix, MatrixRun};
use vpga::logic::s3;

/// Runs the full 4×2 matrix once at the `small` size and checks every
/// Table 1/2 direction claim against it.
#[test]
fn table_direction_claims_hold_at_small_scale() {
    let matrix = Matrix::run(&MatrixRun {
        params: vpga::designs::DesignParams::small(),
        ..MatrixRun::default()
    });
    assert!(matrix.failures().is_empty(), "{}", matrix.failures_report());
    let pair = |d: NamedDesign| {
        (
            matrix.get(d, "granular").expect("granular outcome"),
            matrix.get(d, "lut").expect("lut outcome"),
        )
    };

    // Table 1 / §3.2: the granular PLB packs datapath designs into less
    // flow-b die area than the LUT PLB.
    for design in [
        NamedDesign::Alu,
        NamedDesign::Fpu,
        NamedDesign::NetworkSwitch,
    ] {
        let (g, l) = pair(design);
        assert!(
            g.flow_b.die_area < l.flow_b.die_area,
            "{}: granular flow-b area {:.0} should beat LUT {:.0}",
            design.name(),
            g.flow_b.die_area,
            l.flow_b.die_area
        );
    }

    // Table 1 / §3.2: Firewire is the outlier — sequential/control
    // dominated, so the granular PLB *loses* area there.
    let (gw, lw) = pair(NamedDesign::Firewire);
    assert!(
        gw.flow_b.die_area > lw.flow_b.die_area,
        "Firewire should invert: granular {:.0} vs LUT {:.0}",
        gw.flow_b.die_area,
        lw.flow_b.die_area
    );
    let claims = matrix.claims().expect("a healthy full matrix has claims");
    assert!(
        claims.firewire_area_change < 0.0,
        "Firewire area change should be negative: {:.3}",
        claims.firewire_area_change
    );
    assert!(
        claims.datapath_area_reduction > 0.0,
        "datapath area reduction should be positive: {:.3}",
        claims.datapath_area_reduction
    );

    // Table 2 / §3.2: the granular PLB wins flow-b top-10 slack on all
    // four designs (less negative = better).
    for design in NamedDesign::ALL {
        let (g, l) = pair(design);
        assert!(
            g.flow_b.avg_top10_slack > l.flow_b.avg_top10_slack,
            "{}: granular flow-b slack {:.1} should beat LUT {:.1}",
            design.name(),
            g.flow_b.avg_top10_slack,
            l.flow_b.avg_top10_slack
        );
    }
    assert!(
        claims.mean_slack_gain > 0.0,
        "mean slack gain should be positive: {:.3}",
        claims.mean_slack_gain
    );
}

/// Figure 2: the S3 cell covers exactly 196 of the 256 3-input functions
/// with the fixed select pin, 238 when any pin may serve as the select,
/// and the modified cell of Figure 3 covers all 256.
#[test]
fn s3_coverage_counts_are_exact() {
    assert_eq!(s3::s3_set().len(), 196);
    let free_select = (0u16..=255)
        .filter(|&b| s3::s3_feasible_any_select(vpga::logic::Tt3::new(b as u8)))
        .count();
    assert_eq!(free_select, 238);
    assert_eq!(s3::modified_s3_set().len(), 256);
    // The infeasible census accounts for every one of the 256 − 196 = 60
    // missing functions.
    let census = s3::InfeasibleCensus::compute();
    assert_eq!(census.total(), 60);
    assert_eq!(census.unclassified(), 0);
}
