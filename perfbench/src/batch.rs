//! The batch workloads: one `run_design` call per (design, arch) cell, on
//! one thread, over designs that reach the flow through seeded structural
//! Verilog.

use std::path::Path;
use std::time::{Duration, Instant};

use vpga::core::PlbArchitecture;
use vpga::designs::{DesignParams, NamedDesign};
use vpga::flow::{run_design, DesignOutcome, EmitConfig, FlowConfig, FlowError};
use vpga::interchange::vxdl;
use vpga::netlist::library::generic;
use vpga::netlist::{io, sim, Netlist};

use crate::input::{write_seeded, Rng};
use crate::layers::{print_shares, stage_metrics};
use crate::report::{median, peak_rss_mb, percentile, Outcome};
use crate::trace::Tracer;
use crate::Args;

/// Set-ups before the first pass and after each pass; `setup_s` is the
/// median of all of them.
const SETUPS_FIRST: usize = 4;
const SETUPS_PER_PASS: usize = 2;
/// Passes per run at least: a process's first pass runs 5–10 % slower
/// than later ones, so it is never the whole figure.
const MIN_PASSES: usize = 2;
/// Co-simulation vectors per emitted job in the traced run.
const COSIM_VECTORS: usize = 48;

/// A batch workload: every design at `params` on every architecture.
pub struct Spec {
    pub designs: &'static [NamedDesign],
    pub archs: &'static [fn() -> PlbArchitecture],
    pub params: DesignParams,
}

/// The size the paper's Tables 1–2 are regenerated at on a workstation.
fn medium() -> DesignParams {
    DesignParams {
        alu_width: 24,
        fpu_mantissa: 16,
        fpu_exponent: 6,
        fpu_lanes: 3,
        switch_ports: 8,
        switch_width: 16,
        firewire_scale: 3,
    }
}

/// The paper's 4 designs × {granular, lut}: annealer-bound.
pub fn matrix_medium() -> Spec {
    Spec {
        designs: &NamedDesign::ALL,
        archs: &[PlbArchitecture::granular, PlbArchitecture::lut_based],
        params: medium(),
    }
}

/// The network switch at the paper's 64-bit port width and half its
/// ports, granular: router-bound.
pub fn switch_congested() -> Spec {
    Spec {
        designs: &[NamedDesign::NetworkSwitch],
        archs: &[PlbArchitecture::granular],
        params: DesignParams {
            switch_ports: 8,
            switch_width: 64,
            ..medium()
        },
    }
}

/// The flow's inputs, built once per set-up.
struct Inputs {
    /// The generator's netlists: the reference the implementations are
    /// co-simulated against.
    generated: Vec<Netlist>,
    /// The same designs read back from seeded Verilog: what the flow runs.
    designs: Vec<Netlist>,
    archs: Vec<PlbArchitecture>,
}

/// Seconds each set-up step took.
struct SetupTimes {
    generate: f64,
    verilog: f64,
    arch: f64,
}

/// Generates the designs, passes them through seeded Verilog and builds
/// the architectures, with a span around each call.
fn set_up(
    spec: &Spec,
    seed: u64,
    tracer: &mut Tracer,
    parent: u64,
) -> Result<(Inputs, SetupTimes), String> {
    let t0 = tracer.now();
    let mut generated = Vec::new();
    for design in spec.designs {
        let start = tracer.now();
        generated.push(design.generate(&spec.params));
        tracer.span(
            parent,
            "designs::generate",
            design.key(),
            start,
            tracer.now(),
            vec![],
        );
    }
    let t1 = tracer.now();
    let lib = generic::library();
    let mut designs = Vec::new();
    for g in &generated {
        let start = tracer.now();
        let text = write_seeded(g, &lib, seed).map_err(|e| format!("write {}: {e}", g.name()))?;
        let mid = tracer.now();
        let read = io::read_verilog(&text, &lib).map_err(|e| format!("read {}: {e}", g.name()))?;
        let end = tracer.now();
        tracer.span(
            parent,
            "netlist::io::write_verilog",
            g.name(),
            start,
            mid,
            vec![],
        );
        let counts = vec![
            ("cells", read.num_cells() as u64),
            ("nets", read.num_nets() as u64),
        ];
        tracer.span(
            parent,
            "netlist::io::read_verilog",
            g.name(),
            mid,
            end,
            counts,
        );
        designs.push(read);
    }
    let t2 = tracer.now();
    let mut archs = Vec::new();
    for make in spec.archs {
        let start = tracer.now();
        let arch = make();
        tracer.span(
            parent,
            "core::arch",
            arch.name(),
            start,
            tracer.now(),
            vec![],
        );
        archs.push(arch);
    }
    let t3 = tracer.now();
    let times = SetupTimes {
        generate: t1 - t0,
        verilog: t2 - t1,
        arch: t3 - t2,
    };
    let inputs = Inputs {
        generated,
        designs,
        archs,
    };
    Ok((inputs, times))
}

/// Runs `n` timed set-ups, appending their times to `times`, and returns
/// the inputs the last one built.
fn set_up_repeatedly(
    n: usize,
    spec: &Spec,
    args: &Args,
    tracer: &mut Tracer,
    root: u64,
    times: &mut Vec<SetupTimes>,
) -> Result<Inputs, String> {
    let mut inputs = None;
    for _ in 0..n {
        let setup = tracer.open(root, "setup", args.workload);
        let (built, t) =
            set_up(spec, args.seed, tracer, setup).map_err(|e| format!("set-up failed: {e}"))?;
        tracer.close(setup);
        times.push(t);
        inputs = Some(built);
    }
    Ok(inputs.expect("n is at least 1"))
}

/// One `run_design` call.
struct Cell {
    job: String,
    start: f64,
    wall: f64,
    result: Result<DesignOutcome, FlowError>,
}

/// Runs every cell once, in order, on this thread.
fn run_pass(inputs: &Inputs, config: &FlowConfig, tracer: &mut Tracer, parent: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for design in &inputs.designs {
        for arch in &inputs.archs {
            let job = format!("{}/{}", design.name(), arch.name());
            let start = tracer.now();
            let result = run_design(design, arch, config);
            let end = tracer.now();
            let id = tracer.span(parent, "flow::run_design", &job, start, end, vec![]);
            if let Ok(outcome) = &result {
                tracer.stages(id, &job, start, outcome);
            }
            cells.push(Cell {
                job,
                start,
                wall: end - start,
                result,
            });
        }
    }
    cells
}

pub fn run(spec: &Spec, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(args.trace);
    let root = tracer.open(0, "run", args.workload);

    let mut setups = Vec::new();
    let inputs = match set_up_repeatedly(SETUPS_FIRST, spec, args, &mut tracer, root, &mut setups) {
        Ok(inputs) => inputs,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };

    let emit_dir = args
        .out_dir
        .join(format!("vxdl-{}-{}", args.workload, args.seed));
    let config = if args.trace {
        FlowConfig {
            emit: EmitConfig {
                xdl_dir: Some(emit_dir.clone()),
                ..EmitConfig::default()
            },
            ..FlowConfig::default()
        }
    } else {
        FlowConfig::default()
    };

    // Repeat the workload until the run's time is used.
    let budget = Duration::from_secs(args.seconds);
    let began = Instant::now();
    let mut passes: Vec<Vec<Cell>> = Vec::new();
    while passes.len() < MIN_PASSES || began.elapsed() < budget {
        let pass = tracer.open(root, "pass", args.workload);
        passes.push(run_pass(&inputs, &config, &mut tracer, pass));
        tracer.close(pass);
        // More set-ups between passes sample the host at other moments
        // of the run: its speed swings by a quarter within a second.
        let again = set_up_repeatedly(SETUPS_PER_PASS, spec, args, &mut tracer, root, &mut setups);
        if let Err(e) = again {
            out.problems.push(e);
            return out;
        }
    }
    let setup_median =
        |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    out.set("setup_s", setup_median(|t| t.generate + t.verilog + t.arch));

    let first = &passes[0];
    for cells in &passes {
        for (cell, reference) in cells.iter().zip(first) {
            out.attempted += 2;
            match (&cell.result, &reference.result) {
                (Err(e), _) => {
                    out.failed += 2;
                    out.problems.push(format!("{}: {e}", cell.job));
                }
                (Ok(a), Ok(b)) => out.check(a.fingerprint() == b.fingerprint(), || {
                    format!("{}: fingerprint changed between passes", cell.job)
                }),
                (Ok(_), Err(_)) => {}
            }
        }
    }
    // Results repeat exactly; the stage walls of the last, warm pass are
    // the per-layer figures.
    let last = passes.last().expect("at least one pass ran");
    let outcomes: Vec<(f64, &DesignOutcome)> = last
        .iter()
        .filter_map(|c| Some((c.wall, c.result.as_ref().ok()?)))
        .collect();
    if outcomes.len() != last.len() {
        return out;
    }
    for (_, o) in &outcomes {
        for r in [&o.flow_a, &o.flow_b] {
            out.check(r.die_area > 0.0 && r.avg_top10_slack.is_finite(), || {
                format!("{}/{}: implausible result {r:?}", o.design, o.arch)
            });
        }
    }

    // A pass's wall runs from its first call to its last return.
    let pass_walls: Vec<f64> = passes
        .iter()
        .map(|cells| {
            let last = cells.last().expect("a pass runs at least one cell");
            last.start + last.wall - cells[0].start
        })
        .collect();
    let cell_ms: Vec<f64> = passes.iter().flatten().map(|c| c.wall * 1e3).collect();
    let walls: Vec<String> = pass_walls.iter().map(|w| format!("{w:.3}")).collect();
    println!(
        "passes={} pass walls s=[{}] cells/pass={} job samples={}",
        passes.len(),
        walls.join(", "),
        first.len(),
        cell_ms.len()
    );
    let flow_wall = median(&pass_walls);
    if args.trace {
        out.set("trace.flow_wall_s", flow_wall);
        out.set("setup.generate_s", setup_median(|t| t.generate));
        out.set("setup.verilog_s", setup_median(|t| t.verilog));
        out.set("setup.arch_s", setup_median(|t| t.arch));
        stage_metrics(&mut out, &outcomes);
        print_shares(&out);
        for name in SERVE_LAYERS {
            out.set(name, 0.0);
        }
        co_simulate(&mut out, &inputs, &outcomes, &emit_dir, args.seed);
        let _ = std::fs::remove_dir_all(&emit_dir);
        if let Err(e) = tracer.save(root, &args.trace_path()) {
            out.problems.push(e);
        }
        return out;
    }
    let n = outcomes.len() as f64;
    let sum = |f: fn(&DesignOutcome) -> f64| outcomes.iter().map(|(_, o)| f(o)).sum::<f64>();
    out.set("flow_wall_s", flow_wall);
    out.set("jobs_per_s", 2.0 * n / flow_wall);
    out.set("job_p50_ms", percentile(&cell_ms, 50.0));
    out.set("die_area_a_mm2", sum(|o| o.flow_a.die_area) / 1e6);
    out.set("die_area_b_mm2", sum(|o| o.flow_b.die_area) / 1e6);
    out.set(
        "top10_neg_slack_a_ps",
        -sum(|o| o.flow_a.avg_top10_slack) / n,
    );
    out.set(
        "top10_neg_slack_b_ps",
        -sum(|o| o.flow_b.avg_top10_slack) / n,
    );
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// Per-layer metrics of the serve path, which batch workloads never run.
const SERVE_LAYERS: [&str; 10] = [
    "service.hit_ms_p50",
    "cache.result_hit_ratio",
    "cache.front_hit_ratio",
    "cache.bytes",
    "cache.misses",
    "cache.waits",
    "serve.request_ms_p50",
    "serve.request_ms_p99",
    "serve.self_ms_p50",
    "serve.rejected",
];

/// Parses every emitted `.vxdl` and co-simulates its netlist against the
/// generated design, on seeded vectors, so the check covers the Verilog
/// path as well as the flow.
fn co_simulate(
    out: &mut Outcome,
    inputs: &Inputs,
    outcomes: &[(f64, &DesignOutcome)],
    dir: &Path,
    seed: u64,
) {
    let src = generic::library();
    let mut rng = Rng::new(seed ^ 0xc051_5eed);
    let mut checked = 0;
    let cells = inputs
        .generated
        .iter()
        .flat_map(|d| inputs.archs.iter().map(move |a| (d, a)));
    for ((design, arch), (_, outcome)) in cells.zip(outcomes) {
        let vectors: Vec<Vec<bool>> = (0..COSIM_VECTORS)
            .map(|_| {
                (0..design.inputs().len())
                    .map(|_| rng.next_u64() & 1 == 1)
                    .collect()
            })
            .collect();
        for variant in ["a", "b"] {
            let file = dir.join(format!(
                "{}-{}-{variant}.vxdl",
                outcome.design, outcome.arch
            ));
            let doc = match std::fs::read_to_string(&file)
                .map_err(|e| e.to_string())
                .and_then(|text| vxdl::parse(&text).map_err(|e| e.to_string()))
            {
                Ok(doc) => doc,
                Err(e) => {
                    out.problems.push(format!("{}: {e}", file.display()));
                    continue;
                }
            };
            let implemented = &doc.netlist;
            if implemented.inputs().len() != design.inputs().len()
                || implemented.outputs().len() != design.outputs().len()
            {
                out.problems
                    .push(format!("{}: interface width changed", file.display()));
                continue;
            }
            match sim::first_divergence(design, &src, implemented, arch.library(), &vectors) {
                Ok(None) => checked += 1,
                Ok(Some(cycle)) => out.problems.push(format!(
                    "{}: diverges from the source at cycle {cycle}",
                    file.display()
                )),
                Err(e) => out.problems.push(format!("{}: {e}", file.display())),
            }
        }
    }
    println!(
        "co-simulation: {checked} of {} jobs match the source",
        2 * outcomes.len()
    );
}
