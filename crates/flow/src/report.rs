//! Table 1 / Table 2 assembly and the derived §3.2 claims.

use vpga_core::PlbArchitecture;
use vpga_designs::{DesignParams, NamedDesign};

use crate::exec::{Executor, FlowJob, FlowMatrix};
use crate::pipeline::DesignOutcome;
use crate::stats::render_stages;
use crate::{CheckpointStore, FlowConfig, FlowVariant};

/// One failed cell of the evaluation matrix: which job died and why.
/// The error is kept rendered so the matrix stays cheap to clone.
#[derive(Clone, Debug)]
pub struct CellFailure {
    /// Design display name.
    pub design: String,
    /// Architecture name.
    pub arch: String,
    /// Flow variant of the failed cell.
    pub variant: FlowVariant,
    /// The rendered [`crate::FlowError`].
    pub error: String,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} ({}): {}",
            self.design, self.arch, self.variant, self.error
        )
    }
}

/// What [`Matrix::run`] runs: every design × every architecture in
/// `archs` × both flow variants, at `params`, with `config`, on `jobs`
/// workers (`0` = one per available CPU). The default is the paper's
/// matrix: `[granular, lut]` at the default (`small`) sizes, on one
/// worker, without checkpoints or a filter.
#[derive(Debug)]
pub struct MatrixRun {
    /// Generated design sizes.
    pub params: DesignParams,
    /// Flow settings shared by every cell.
    pub config: FlowConfig,
    /// Worker threads; results are bit-identical for any count.
    pub jobs: usize,
    /// Persists every completed stage; a resuming store restores them
    /// instead of recomputing, bit-identically.
    pub checkpoints: Option<CheckpointStore>,
    /// Runs only the pairs whose `design/arch` key (e.g. `alu/granular`)
    /// contains this substring. A filtered matrix fingerprints over its
    /// own outcomes only, so compare like against like.
    pub only: Option<String>,
    /// The architecture columns; `--arch-file` fabrics enter here.
    pub archs: Vec<PlbArchitecture>,
}

impl Default for MatrixRun {
    fn default() -> MatrixRun {
        MatrixRun {
            params: DesignParams::default(),
            config: FlowConfig::default(),
            jobs: 1,
            checkpoints: None,
            only: None,
            archs: vec![PlbArchitecture::granular(), PlbArchitecture::lut_based()],
        }
    }
}

impl MatrixRun {
    /// The jobs this run covers, in Table 1 row order (designs outermost,
    /// then `archs`), each (design, arch) pair's flow a immediately
    /// followed by its flow b.
    pub fn flow_matrix(&self) -> FlowMatrix {
        let mut jobs = Vec::new();
        for design in NamedDesign::ALL {
            for arch in &self.archs {
                // No filter is the empty substring, which every key contains.
                let key = format!("{}/{}", design.key(), arch.name());
                if !key.contains(self.only.as_deref().unwrap_or("")) {
                    continue;
                }
                for variant in [FlowVariant::A, FlowVariant::B] {
                    jobs.push(FlowJob {
                        design,
                        arch: arch.clone(),
                        variant,
                    });
                }
            }
        }
        FlowMatrix::from_jobs(jobs)
    }
}

/// All outcomes of an evaluation matrix, plus any cells that failed: a
/// panicking or erroring cell never stops the others.
#[derive(Clone, Debug)]
pub struct Matrix {
    outcomes: Vec<DesignOutcome>,
    failures: Vec<CellFailure>,
}

impl Matrix {
    /// Runs the matrix `run` describes. A failed cell becomes a
    /// [`CellFailure`] and drops its (design, arch) pair from the tables,
    /// while every healthy cell completes bit-identical to a fully healthy
    /// run, with any worker count; a caller that wants strictness checks
    /// [`Matrix::failures`].
    pub fn run(run: &MatrixRun) -> Matrix {
        let flow_matrix = run.flow_matrix();
        let cells = flow_matrix.run_cells(
            &run.params,
            &run.config,
            &Executor::new(run.jobs),
            run.checkpoints.as_ref(),
        );
        let mut outcomes = Vec::new();
        let mut failures = Vec::new();
        let mut pairs = flow_matrix.jobs().iter().zip(cells);
        while let (Some((ja, ca)), Some((jb, cb))) = (pairs.next(), pairs.next()) {
            debug_assert_eq!(ja.variant, FlowVariant::A);
            debug_assert_eq!(jb.variant, FlowVariant::B);
            match (ca, cb) {
                (Ok(a), Ok(b)) => outcomes.push(DesignOutcome {
                    design: a.design,
                    arch: ja.arch.name().to_owned(),
                    gates_nand2: a.gates_nand2,
                    compaction: a.compaction,
                    front_stages: a.front_stages,
                    flow_a: a.result,
                    flow_b: b.result,
                }),
                (ca, cb) => {
                    for (job, cell) in [(ja, ca), (jb, cb)] {
                        if let Err(e) = cell {
                            failures.push(CellFailure {
                                design: job.design.name().to_owned(),
                                arch: job.arch.name().to_owned(),
                                variant: job.variant,
                                error: e.to_string(),
                            });
                        }
                    }
                }
            }
        }
        Matrix { outcomes, failures }
    }

    /// Wraps externally computed outcomes (e.g. from custom architectures).
    pub fn from_outcomes(outcomes: Vec<DesignOutcome>) -> Matrix {
        Matrix {
            outcomes,
            failures: Vec::new(),
        }
    }

    /// All outcomes.
    pub fn outcomes(&self) -> &[DesignOutcome] {
        &self.outcomes
    }

    /// The cells that failed (empty for a fully healthy run).
    pub fn failures(&self) -> &[CellFailure] {
        &self.failures
    }

    /// Renders the failed cells, one per line; empty string when none.
    pub fn failures_report(&self) -> String {
        use std::fmt::Write as _;
        if self.failures.is_empty() {
            return String::new();
        }
        let mut s = String::from("Failed cells:\n");
        for failure in &self.failures {
            let _ = writeln!(s, "  {failure}");
        }
        s
    }

    /// The outcome for a design/architecture pair.
    pub fn get(&self, design: NamedDesign, arch: &str) -> Option<&DesignOutcome> {
        let name = design.key();
        self.outcomes
            .iter()
            .find(|o| o.design == name && o.arch == arch)
    }

    /// A design's granular and LUT outcomes — the pair Tables 1–2 and the
    /// §3.2 claims compare — if both ran.
    pub fn paper_pair(&self, design: NamedDesign) -> Option<(&DesignOutcome, &DesignOutcome)> {
        Some((self.get(design, "granular")?, self.get(design, "lut")?))
    }

    /// Formats Table 1: die area (µm²) per design × {granular, LUT} ×
    /// {flow a, flow b}.
    pub fn table1(&self) -> String {
        let mut s = String::new();
        s.push_str("Table 1: Area comparison (die area, µm²)\n");
        s.push_str(&format!(
            "{:16} {:>12} {:>12} {:>12} {:>12}\n",
            "Design", "gran flow a", "gran flow b", "lut flow a", "lut flow b"
        ));
        for design in NamedDesign::ALL {
            let Some((g, l)) = self.paper_pair(design) else {
                continue;
            };
            s.push_str(&format!(
                "{:16} {:>12.0} {:>12.0} {:>12.0} {:>12.0}\n",
                design.name(),
                g.flow_a.die_area,
                g.flow_b.die_area,
                l.flow_a.die_area,
                l.flow_b.die_area
            ));
        }
        s
    }

    /// Formats Table 2: average slack over the top-10 critical paths (ps),
    /// with the design gate counts, at the 500 ps cycle.
    pub fn table2(&self) -> String {
        let mut s = String::new();
        s.push_str("Table 2: Timing comparison (avg slack of top-10 paths, ps; 500 ps cycle)\n");
        s.push_str(&format!(
            "{:16} {:>9} {:>12} {:>12} {:>12} {:>12}\n",
            "Design", "gates", "gran flow a", "gran flow b", "lut flow a", "lut flow b"
        ));
        for design in NamedDesign::ALL {
            let Some((g, l)) = self.paper_pair(design) else {
                continue;
            };
            s.push_str(&format!(
                "{:16} {:>9.0} {:>12.1} {:>12.1} {:>12.1} {:>12.1}\n",
                design.name(),
                g.gates_nand2,
                g.flow_a.avg_top10_slack,
                g.flow_b.avg_top10_slack,
                l.flow_a.avg_top10_slack,
                l.flow_b.avg_top10_slack
            ));
        }
        s
    }

    /// Formats one architecture's column of results for every design:
    /// die area and top-10 slack for both flow variants. This is how
    /// results for `--arch-file` fabrics (which have no column in the
    /// paper's two tables) are reported.
    pub fn arch_table(&self, arch: &str) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "Architecture {arch:?}: area (µm²) and avg top-10 slack (ps)\n"
        ));
        s.push_str(&format!(
            "{:16} {:>9} {:>12} {:>12} {:>12} {:>12}\n",
            "Design", "gates", "area flow a", "area flow b", "slack a", "slack b"
        ));
        for design in NamedDesign::ALL {
            let Some(o) = self.get(design, arch) else {
                continue;
            };
            s.push_str(&format!(
                "{:16} {:>9.0} {:>12.0} {:>12.0} {:>12.1} {:>12.1}\n",
                design.name(),
                o.gates_nand2,
                o.flow_a.die_area,
                o.flow_b.die_area,
                o.flow_a.avg_top10_slack,
                o.flow_b.avg_top10_slack
            ));
        }
        s
    }

    /// Renders the per-stage instrumentation for all 16 matrix runs
    /// (8 shared front-ends + each variant's back-end stages): wall time,
    /// netlist sizes, cost before/after, and mover/acceptance counters.
    pub fn stats_report(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        s.push_str("Per-stage statistics\n");
        for o in &self.outcomes {
            let _ = writeln!(s, "{} / {} — front-end", o.design, o.arch);
            s.push_str(&render_stages(&o.front_stages, "  "));
            for result in [&o.flow_a, &o.flow_b] {
                let _ = writeln!(s, "{} / {} — {}", o.design, o.arch, result.variant);
                s.push_str(&render_stages(&result.stages, "  "));
                let _ = writeln!(s, "  {}", result.route_legality());
            }
        }
        s
    }

    /// Deterministic digest over every outcome (see
    /// [`DesignOutcome::fingerprint`]); equal across runs and worker
    /// counts.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for o in &self.outcomes {
            h = (h ^ o.fingerprint()).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The §3.2 derived claims, if every design's granular/LUT pair is
    /// present; `None` when failed cells or a filter left holes.
    pub fn claims(&self) -> Option<Claims> {
        if NamedDesign::ALL
            .iter()
            .any(|&d| self.paper_pair(d).is_none())
        {
            return None;
        }
        let pair = |d: NamedDesign| self.paper_pair(d).expect("checked above");
        let datapath = [
            NamedDesign::Alu,
            NamedDesign::Fpu,
            NamedDesign::NetworkSwitch,
        ];
        let area_reduction =
            |g: &DesignOutcome, l: &DesignOutcome| 1.0 - g.flow_b.die_area / l.flow_b.die_area;
        let datapath_area_reduction = datapath
            .iter()
            .map(|&d| {
                let (g, l) = pair(d);
                area_reduction(g, l)
            })
            .sum::<f64>()
            / datapath.len() as f64;
        let (gf, lf) = pair(NamedDesign::Fpu);
        let fpu_area_reduction = area_reduction(gf, lf);
        let (gw, lw) = pair(NamedDesign::Firewire);
        let firewire_area_change = area_reduction(gw, lw);
        // Flow-a → flow-b overhead comparison (absolute µm² of die-area
        // overhead added by the packing step, as Table 1 is read in §3.2).
        let overhead_gap = |g: &DesignOutcome, l: &DesignOutcome| -> f64 {
            let og = (g.flow_b.die_area - g.flow_a.die_area).max(0.0);
            let ol = (l.flow_b.die_area - l.flow_a.die_area).max(0.0);
            if ol <= 1e-9 {
                0.0
            } else {
                1.0 - og / ol
            }
        };
        let mean_overhead_gap = datapath
            .iter()
            .map(|&d| {
                let (g, l) = pair(d);
                overhead_gap(g, l)
            })
            .sum::<f64>()
            / datapath.len() as f64;
        let (gs, ls) = pair(NamedDesign::NetworkSwitch);
        let switch_overhead_gap = overhead_gap(gs, ls);
        // Slack improvements (relative to the 500 ps cycle for stability).
        let clock = vpga_core::params::CLOCK_PERIOD_PS;
        let slack_gain = |g: &DesignOutcome, l: &DesignOutcome| {
            (g.flow_b.avg_top10_slack - l.flow_b.avg_top10_slack) / clock
        };
        let mean_slack_gain = NamedDesign::ALL
            .iter()
            .map(|&d| {
                let (g, l) = pair(d);
                slack_gain(g, l)
            })
            .sum::<f64>()
            / NamedDesign::ALL.len() as f64;
        let fpu_slack_gain = slack_gain(gf, lf);
        // Performance degradation a→b.
        let mean_degradation_gap = {
            let mut vals = Vec::new();
            for d in NamedDesign::ALL {
                let (g, l) = pair(d);
                let dg = g.slack_degradation().max(0.0);
                let dl = l.slack_degradation().max(0.0);
                if dl > 1e-9 {
                    vals.push(1.0 - dg / dl);
                }
            }
            if vals.is_empty() {
                0.0
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        };
        Some(Claims {
            datapath_area_reduction,
            fpu_area_reduction,
            firewire_area_change,
            mean_overhead_gap,
            switch_overhead_gap,
            mean_slack_gain,
            fpu_slack_gain,
            mean_degradation_gap,
        })
    }
}

/// The derived §3.2 comparison numbers, each with the paper's reference
/// value in its documentation.
#[derive(Clone, Copy, Debug)]
pub struct Claims {
    /// Mean flow-b die-area reduction of the granular PLB over the LUT PLB
    /// on the three datapath designs (paper: ~32 %).
    pub datapath_area_reduction: f64,
    /// Same, for the FPU alone (paper: up to ~40 %).
    pub fpu_area_reduction: f64,
    /// Area change on Firewire (paper: *negative* — the granular PLB loses
    /// on sequential-dominated designs).
    pub firewire_area_change: f64,
    /// Mean reduction of the flow-a→flow-b area overhead with the granular
    /// PLB (paper: ~48 %).
    pub mean_overhead_gap: f64,
    /// Same, for the Network switch (paper: up to ~88 %).
    pub switch_overhead_gap: f64,
    /// Mean top-10 slack improvement of granular over LUT, as a fraction of
    /// the 500 ps cycle (paper: ~18 %).
    pub mean_slack_gain: f64,
    /// Same, for the FPU (paper: up to ~40 %).
    pub fpu_slack_gain: f64,
    /// Mean reduction in a→b slack degradation with the granular PLB
    /// (paper: ~68 %).
    pub mean_degradation_gap: f64,
}

impl std::fmt::Display for Claims {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Derived §3.2 claims (measured vs paper):")?;
        writeln!(
            f,
            "  datapath die-area reduction     {:6.1} %   (paper ≈ 32 %)",
            100.0 * self.datapath_area_reduction
        )?;
        writeln!(
            f,
            "  FPU die-area reduction          {:6.1} %   (paper ≈ 40 %)",
            100.0 * self.fpu_area_reduction
        )?;
        writeln!(
            f,
            "  Firewire area change            {:6.1} %   (paper: negative)",
            100.0 * self.firewire_area_change
        )?;
        writeln!(
            f,
            "  mean a→b overhead reduction     {:6.1} %   (paper ≈ 48 %)",
            100.0 * self.mean_overhead_gap
        )?;
        writeln!(
            f,
            "  switch a→b overhead reduction   {:6.1} %   (paper ≈ 88 %)",
            100.0 * self.switch_overhead_gap
        )?;
        writeln!(
            f,
            "  mean top-10 slack gain          {:6.1} %   (paper ≈ 18 %)",
            100.0 * self.mean_slack_gain
        )?;
        writeln!(
            f,
            "  FPU top-10 slack gain           {:6.1} %   (paper ≈ 40 %)",
            100.0 * self.fpu_slack_gain
        )?;
        writeln!(
            f,
            "  mean a→b degradation reduction  {:6.1} %   (paper ≈ 68 %)",
            100.0 * self.mean_degradation_gap
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite regression for uniform deadline enforcement: an already
    /// expired per-job budget must fail every cell cleanly through the
    /// stage runner (never a panic or a hang), and the resilient matrix
    /// must still report the partial state instead of aborting.
    #[test]
    fn expired_deadline_fails_every_cell_but_still_reports() {
        let config = FlowConfig {
            deadline: Some(std::time::Duration::ZERO),
            ..FlowConfig::default()
        };
        let matrix = Matrix::run(&MatrixRun {
            params: DesignParams::tiny(),
            config,
            jobs: 2,
            ..MatrixRun::default()
        });
        assert!(matrix.outcomes().is_empty());
        assert_eq!(matrix.failures().len(), 16, "{}", matrix.failures_report());
        for failure in matrix.failures() {
            assert!(
                failure.error.contains("deadline"),
                "unexpected failure: {failure}"
            );
        }
        // Partial reporting still works: the failure report names every
        // cell, the tables render (empty), and claims are unavailable
        // rather than wrong.
        let report = matrix.failures_report();
        for design in NamedDesign::ALL {
            assert!(report.contains(design.name()), "{report}");
        }
        let _ = matrix.table1();
        let _ = matrix.table2();
        assert!(matrix.claims().is_none());
    }

    #[test]
    fn default_run_is_the_sixteen_job_paper_matrix() {
        let m = MatrixRun::default().flow_matrix();
        assert_eq!(m.jobs().len(), 16);
        let b_granular = m
            .jobs()
            .iter()
            .filter(|j| j.variant == FlowVariant::B && j.arch.name() == "granular")
            .count();
        assert_eq!(b_granular, 4);
    }

    #[test]
    fn matrix_runs_and_formats_at_tiny_scale() {
        let matrix = Matrix::run(&MatrixRun {
            params: DesignParams::tiny(),
            ..MatrixRun::default()
        });
        assert!(matrix.failures().is_empty());
        assert!(matrix.failures_report().is_empty());
        assert_eq!(matrix.outcomes().len(), 8);
        let t1 = matrix.table1();
        let t2 = matrix.table2();
        for design in NamedDesign::ALL {
            assert!(t1.contains(design.name()), "{t1}");
            assert!(t2.contains(design.name()), "{t2}");
        }
        let claims = matrix.claims().expect("a healthy full matrix has claims");
        let _ = claims.to_string();
        // Direction checks that should hold even at tiny scale: the
        // granular PLB wins area on the mux-rich FPU...
        assert!(
            claims.fpu_area_reduction > -0.15,
            "FPU area reduction collapsed: {:.2}",
            claims.fpu_area_reduction
        );
    }
}
