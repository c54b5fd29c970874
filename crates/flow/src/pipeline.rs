//! The flow's results and its single-design entry point, [`run_design`],
//! which hands one (design, architecture) pair to the stage-DAG scheduler
//! of [`crate::exec`]. All per-stage middleware (deadline, audit,
//! faultpoint, retries, stats) lives in the stage runner, not here.

use vpga_compact::CompactionReport;
use vpga_core::PlbArchitecture;
use vpga_netlist::Netlist;
use vpga_place::Placement;
use vpga_timing::IncrementalSta;

use crate::config::{FlowConfig, FlowVariant};
use crate::error::FlowError;
use crate::exec::{run_stages, Executor};
use crate::stats::StageStats;

/// The metrics of one flow run — one cell of Table 1 plus one of Table 2.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// Which flow produced this.
    pub variant: FlowVariant,
    /// Die area, µm² (flow a: placement die; flow b: PLB array).
    pub die_area: f64,
    /// Average slack over the 10 most critical paths, ps (Table 2).
    pub avg_top10_slack: f64,
    /// Worst endpoint slack, ps.
    pub worst_slack: f64,
    /// Critical-path delay, ps.
    pub critical_delay: f64,
    /// Total routed wirelength, µm.
    pub wirelength: f64,
    /// Estimated dynamic power, mW (extension metric; the paper reports
    /// only area and timing).
    pub power_mw: f64,
    /// Component-cell instances in the final netlist.
    pub cells: usize,
    /// PLB array dimensions and used count (flow b only).
    pub array: Option<(usize, usize, usize)>,
    /// Routing overflow edges (0 = fully legal).
    pub route_overflow: usize,
    /// Per-stage instrumentation for this variant's back-end stages
    /// (pack/swap for flow b, then route and STA for both).
    pub stages: Vec<StageStats>,
}

impl FlowResult {
    /// The route legality line `--stats` prints: `route: legal`, or
    /// `route: overflow=N edges` when routing left over-capacity edges.
    pub fn route_legality(&self) -> String {
        match self.route_overflow {
            0 => "route: legal".to_owned(),
            n => format!("route: overflow={n} edges"),
        }
    }

    /// A 64-bit FNV-1a digest over every deterministic field — metrics to
    /// the bit (`f64::to_bits`) plus the stage counters, excluding wall
    /// times. Two runs of the same job agree on this exactly, regardless
    /// of worker count or machine load.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(match self.variant {
            FlowVariant::A => 0xa,
            FlowVariant::B => 0xb,
        });
        mix(self.die_area.to_bits());
        mix(self.avg_top10_slack.to_bits());
        mix(self.worst_slack.to_bits());
        mix(self.critical_delay.to_bits());
        mix(self.wirelength.to_bits());
        mix(self.power_mw.to_bits());
        mix(self.cells as u64);
        let (c, r, u) = self.array.unwrap_or((0, 0, 0));
        mix(c as u64);
        mix(r as u64);
        mix(u as u64);
        mix(self.route_overflow as u64);
        for s in &self.stages {
            s.fold_fingerprint(&mut h);
        }
        h
    }
}

/// The shared-front-end outcome for one (design, architecture) pair.
#[derive(Clone, Debug)]
pub struct DesignOutcome {
    /// Design name.
    pub design: String,
    /// Architecture name.
    pub arch: String,
    /// NAND2-equivalent gate count of the source design.
    pub gates_nand2: f64,
    /// Compaction summary (if the step ran).
    pub compaction: Option<CompactionReport>,
    /// Per-stage instrumentation for the shared front-end (synthesis,
    /// compaction, placement, physical synthesis).
    pub front_stages: Vec<StageStats>,
    /// The ASIC-style result.
    pub flow_a: FlowResult,
    /// The packed-array result.
    pub flow_b: FlowResult,
}

impl DesignOutcome {
    /// Flow-b area overhead relative to flow a (the packing cost §3.2
    /// compares between architectures).
    pub fn area_overhead(&self) -> f64 {
        if self.flow_a.die_area == 0.0 {
            return 0.0;
        }
        self.flow_b.die_area / self.flow_a.die_area - 1.0
    }

    /// Slack degradation from flow a to flow b, ps.
    pub fn slack_degradation(&self) -> f64 {
        self.flow_a.avg_top10_slack - self.flow_b.avg_top10_slack
    }

    /// Deterministic digest over both variants' fingerprints plus the
    /// front-end stage records (wall times excluded).
    pub fn fingerprint(&self) -> u64 {
        fn mix(h: &mut u64, v: u64) {
            *h = (*h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.design.bytes().chain(self.arch.bytes()) {
            mix(&mut h, u64::from(b));
        }
        mix(&mut h, self.gates_nand2.to_bits());
        for s in &self.front_stages {
            s.fold_fingerprint(&mut h);
        }
        mix(&mut h, self.flow_a.fingerprint());
        mix(&mut h, self.flow_b.fingerprint());
        h
    }
}

/// The shared front-end product for one (design, architecture) pair:
/// the mapped, compacted, placed, buffered netlist both flow variants
/// consume. Immutable once built, so any number of variant jobs can read
/// it concurrently.
#[derive(Clone, Debug)]
pub(crate) struct FrontEnd {
    pub design: String,
    pub gates_nand2: f64,
    pub compaction: Option<CompactionReport>,
    pub netlist: Netlist,
    pub placement: Placement,
    /// The incremental timer, left in the post-physical-synthesis state:
    /// its report equals a fresh STA of `netlist` on `placement` (HPWL
    /// geometry), and its prebuilt graph serves the post-route analyses.
    pub sta: IncrementalSta,
    pub cells: usize,
    pub stages: Vec<StageStats>,
}

/// The job context string for a shared front-end.
pub(crate) fn front_ctx(design: &str, arch: &PlbArchitecture) -> String {
    format!("{design}/{}", arch.name())
}

/// The job context string for a variant back-end.
pub(crate) fn job_ctx(design: &str, arch: &PlbArchitecture, variant: FlowVariant) -> String {
    format!("{design}/{}/{}", arch.name(), variant.key())
}

/// Runs the complete flow (both variants) for one generic design netlist on
/// one architecture.
///
/// The stages run on the [`crate::exec`] stage-DAG scheduler with
/// [`std::thread::available_parallelism`] workers, but one design never
/// has more than two ready stage chains, so it uses at most two threads:
/// the shared front-end and flow a run on the calling thread, and flow
/// b's back-end runs on one scoped helper thread alongside flow a. On a
/// single-CPU host flow b follows flow a on the calling thread. Results
/// are bit-identical either way.
///
/// # Errors
///
/// Returns a [`FlowError`] if mapping, netlist editing, or packing fails;
/// when several stages fail, the front-end's error wins, then flow a's. A
/// panicking stage does not unwind into the caller: it comes back as
/// [`FlowError::StagePanic`] naming the stage and the job context.
pub fn run_design(
    design: &Netlist,
    arch: &PlbArchitecture,
    config: &FlowConfig,
) -> Result<DesignOutcome, FlowError> {
    let cells = [(0, FlowVariant::A), (0, FlowVariant::B)];
    let (fronts, results) = run_stages(&[(design, arch)], &cells, config, &Executor::new(0), None);
    let [flow_a, flow_b]: [_; 2] = results.try_into().expect("one result per cell");
    let (flow_a, flow_b) = (flow_a?, flow_b?);
    let front = fronts.into_iter().flatten().next().expect("front-end done");
    Ok(DesignOutcome {
        design: front.design,
        arch: arch.name().to_owned(),
        gates_nand2: front.gates_nand2,
        compaction: front.compaction,
        front_stages: front.stages,
        flow_a,
        flow_b,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::StageId;
    use vpga_designs::{DesignParams, NamedDesign};

    #[test]
    fn full_flow_runs_on_a_tiny_alu_for_both_archs() {
        let design = NamedDesign::Alu.generate(&DesignParams::tiny());
        for arch in [PlbArchitecture::granular(), PlbArchitecture::lut_based()] {
            let out = run_design(&design, &arch, &FlowConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", arch.name()));
            assert!(out.flow_a.die_area > 0.0);
            assert!(out.flow_b.die_area > 0.0);
            assert!(out.gates_nand2 > 10.0);
            // Flow b pays the regular-array quantization: never smaller
            // than a fully packed ideal but typically larger than flow a.
            assert!(out.flow_b.array.is_some());
            assert!(out.flow_a.array.is_none());
            assert!(out.compaction.is_some());
        }
    }

    #[test]
    fn flow_b_area_exceeds_flow_a() {
        let design = NamedDesign::Alu.generate(&DesignParams::tiny());
        let arch = PlbArchitecture::granular();
        let out = run_design(&design, &arch, &FlowConfig::default()).unwrap();
        assert!(
            out.area_overhead() > -0.05,
            "array quantization should cost area: {:.2}",
            out.area_overhead()
        );
    }

    #[test]
    fn compaction_can_be_disabled() {
        let design = NamedDesign::Alu.generate(&DesignParams::tiny());
        let arch = PlbArchitecture::lut_based();
        let cfg = FlowConfig {
            compaction: false,
            ..FlowConfig::default()
        };
        let out = run_design(&design, &arch, &cfg).unwrap();
        assert!(out.compaction.is_none());
        let with = run_design(&design, &arch, &FlowConfig::default()).unwrap();
        assert!(with.flow_a.cells <= out.flow_a.cells);
    }

    #[test]
    fn cut_based_mapper_is_usable() {
        let design = NamedDesign::Alu.generate(&DesignParams::tiny());
        let arch = PlbArchitecture::granular();
        let cfg = FlowConfig {
            cut_based_mapper: true,
            ..FlowConfig::default()
        };
        let out = run_design(&design, &arch, &cfg).unwrap();
        assert!(out.flow_b.die_area > 0.0);
    }

    #[test]
    fn every_stage_is_instrumented() {
        let design = NamedDesign::Alu.generate(&DesignParams::tiny());
        let arch = PlbArchitecture::granular();
        let out = run_design(&design, &arch, &FlowConfig::default()).unwrap();
        let front: Vec<StageId> = out.front_stages.iter().map(|s| s.stage).collect();
        assert_eq!(
            front,
            [
                StageId::Synth,
                StageId::Compact,
                StageId::Place,
                StageId::PhysSynth
            ]
        );
        let a: Vec<StageId> = out.flow_a.stages.iter().map(|s| s.stage).collect();
        assert_eq!(a, [StageId::Route, StageId::Timing]);
        let b: Vec<StageId> = out.flow_b.stages.iter().map(|s| s.stage).collect();
        assert_eq!(
            b,
            [
                StageId::Pack,
                StageId::Swap,
                StageId::Route,
                StageId::Timing
            ]
        );
        // Annealing stages must not worsen their own cost.
        for s in out.front_stages.iter().chain(&out.flow_b.stages) {
            if let (Some(before), Some(after)) = (s.cost_before, s.cost_after) {
                if matches!(s.stage, StageId::Place | StageId::PhysSynth | StageId::Swap) {
                    assert!(after <= before + 1e-6, "{}: {before} → {after}", s.stage);
                }
            }
            if let (Some(att), Some(acc)) = (s.moves_attempted, s.moves_accepted) {
                assert!(acc <= att, "{}: accepted {acc} > attempted {att}", s.stage);
            }
        }
    }

    #[test]
    fn fingerprints_are_reproducible_and_discriminating() {
        let design = NamedDesign::Alu.generate(&DesignParams::tiny());
        let arch = PlbArchitecture::granular();
        let a = run_design(&design, &arch, &FlowConfig::default()).unwrap();
        let b = run_design(&design, &arch, &FlowConfig::default()).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let lut = run_design(
            &design,
            &PlbArchitecture::lut_based(),
            &FlowConfig::default(),
        )
        .unwrap();
        assert_ne!(a.fingerprint(), lut.fingerprint());
    }
}
