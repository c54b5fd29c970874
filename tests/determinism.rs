//! The parallel flow executor must be invisible in the results: the same
//! matrix run with 1 worker or N workers — or run twice — produces
//! bit-identical `FlowResult`s (pinned through `f64::to_bits`-based
//! fingerprints that cover every metric and stage counter, but not wall
//! times).

use vpga::core::PlbArchitecture;
use vpga::designs::{DesignParams, NamedDesign};
use vpga::flow::{
    run_design, DesignOutcome, Executor, FlowConfig, FlowError, FlowJob, FlowMatrix, FlowVariant,
    JobResult, Matrix, MatrixRun,
};

/// Runs `jobs` at tiny size on `workers`, failing on the first failed cell.
fn run_jobs(jobs: Vec<FlowJob>, workers: usize) -> Result<Vec<JobResult>, FlowError> {
    FlowMatrix::from_jobs(jobs)
        .run_cells(
            &DesignParams::tiny(),
            &FlowConfig::default(),
            &Executor::new(workers),
            None,
        )
        .into_iter()
        .collect()
}

#[test]
fn full_matrix_is_bit_identical_for_any_worker_count() {
    let [serial, parallel] = [1, 4].map(|jobs| {
        Matrix::run(&MatrixRun {
            params: DesignParams::tiny(),
            jobs,
            ..MatrixRun::default()
        })
    });
    assert!(serial.failures().is_empty(), "{}", serial.failures_report());
    assert!(
        parallel.failures().is_empty(),
        "{}",
        parallel.failures_report()
    );
    assert_eq!(
        serial.fingerprint(),
        parallel.fingerprint(),
        "jobs=1 and jobs=4 diverged"
    );
    // Field-level comparison too, so a regression names the culprit.
    assert_eq!(serial.outcomes().len(), parallel.outcomes().len());
    for (s, p) in serial.outcomes().iter().zip(parallel.outcomes()) {
        assert_eq!(s.design, p.design);
        assert_eq!(s.arch, p.arch);
        for (a, b) in [(&s.flow_a, &p.flow_a), (&s.flow_b, &p.flow_b)] {
            let name = format!("{} / {} / {}", s.design, s.arch, a.variant);
            assert_eq!(a.die_area.to_bits(), b.die_area.to_bits(), "{name}: area");
            assert_eq!(
                a.avg_top10_slack.to_bits(),
                b.avg_top10_slack.to_bits(),
                "{name}: slack"
            );
            assert_eq!(
                a.wirelength.to_bits(),
                b.wirelength.to_bits(),
                "{name}: wire"
            );
            assert_eq!(a.power_mw.to_bits(), b.power_mw.to_bits(), "{name}: power");
            assert_eq!(a.cells, b.cells, "{name}: cells");
            assert_eq!(a.array, b.array, "{name}: array");
            assert_eq!(a.route_overflow, b.route_overflow, "{name}: overflow");
        }
    }
    // The rendered tables — what the bench binaries print — match verbatim.
    assert_eq!(serial.table1(), parallel.table1());
    assert_eq!(serial.table2(), parallel.table2());
}

#[test]
fn repeated_runs_are_bit_identical() {
    let jobs = vec![
        FlowJob {
            design: NamedDesign::Alu,
            arch: PlbArchitecture::granular(),
            variant: FlowVariant::A,
        },
        FlowJob {
            design: NamedDesign::Alu,
            arch: PlbArchitecture::granular(),
            variant: FlowVariant::B,
        },
        FlowJob {
            design: NamedDesign::Alu,
            arch: PlbArchitecture::lut_based(),
            variant: FlowVariant::B,
        },
    ];
    let first = run_jobs(jobs.clone(), 2).expect("first run");
    let second = run_jobs(jobs, 2).expect("second run");
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.result.fingerprint(), b.result.fingerprint());
    }
}

#[test]
fn executor_subset_matches_run_design() {
    // Every tiny (design, arch) pair: `run_design`, whose two back-ends
    // overlap on up to two threads, must match the matrix scheduler on
    // one worker bit for bit. The matrix lists flow b first, so its
    // serial order differs from `run_design`'s too.
    let params = DesignParams::tiny();
    let config = FlowConfig::default();
    for design in NamedDesign::ALL {
        for arch in [PlbArchitecture::granular(), PlbArchitecture::lut_based()] {
            let name = format!("{}/{}", design.name(), arch.name());
            let jobs = [FlowVariant::B, FlowVariant::A]
                .map(|variant| FlowJob {
                    design,
                    arch: arch.clone(),
                    variant,
                })
                .to_vec();
            let out = run_jobs(jobs, 1).unwrap_or_else(|e| panic!("{name}: subset run: {e}"));
            let whole = run_design(&design.generate(&params), &arch, &config)
                .unwrap_or_else(|e| panic!("{name}: run_design: {e}"));
            assert_eq!(
                out[0].result.fingerprint(),
                whole.flow_b.fingerprint(),
                "{name}: flow b"
            );
            assert_eq!(
                out[1].result.fingerprint(),
                whole.flow_a.fingerprint(),
                "{name}: flow a"
            );
            // The whole outcome: front-end stage records, gate count and
            // names included.
            let assembled = DesignOutcome {
                design: out[0].design.clone(),
                arch: arch.name().to_owned(),
                gates_nand2: out[0].gates_nand2,
                compaction: out[0].compaction.clone(),
                front_stages: out[0].front_stages.clone(),
                flow_a: out[1].result.clone(),
                flow_b: out[0].result.clone(),
            };
            assert_eq!(assembled.fingerprint(), whole.fingerprint(), "{name}");
        }
    }
}
