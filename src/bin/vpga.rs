//! `vpga` — command-line front end to the VPGA implementation flow.
//!
//! ```text
//! vpga gen <alu|fpu|switch|firewire> [--size tiny|small|medium|paper] [-o design.v]
//! vpga flow <design.v> [--arch granular|lut|homogeneous] [--no-compaction] [--stats]
//!           [--audit] [--retries N] [--deadline SECS]
//! vpga matrix [--size tiny|small|medium|paper] [--jobs N] [--stats]
//!           [--stage-threads N] [--only DESIGN/ARCH]
//!           [--arch-file FILE]...
//!           [--audit] [--retries N] [--deadline SECS]
//!           [--checkpoint-dir DIR] [--resume]
//!           [--emit-sdf DIR] [--emit-xdl DIR]
//! vpga program <design.v> [--arch granular|lut] [-o design.fabric]
//! vpga arch [granular|lut|homogeneous|FILE.varch]
//! vpga export-arch <granular|lut|homogeneous> [-o FILE]
//! vpga verify-interchange <DIR>
//! vpga migrate-checkpoints <DIR> [--size S] [--no-compaction]
//! vpga serve [--listen ADDR] [--workers N] [--queue N] [--cache-mb N]
//!           [--checkpoint-dir DIR] [--chaos]
//! vpga submit <HOST:PORT> <PATH>
//! vpga serve-bench [--jobs N] [--clients N] [--cache-kb N] [--designs N]
//! ```
//!
//! `gen` writes a generated benchmark as structural Verilog over the
//! generic library; `flow` runs the full Figure 6 flow (both variants) on a
//! structural-Verilog design and prints its fingerprint and the Table 1/2
//! metrics; `matrix`
//! runs the paper's full 4 designs × 2 architectures evaluation across a
//! worker pool (`--jobs 0` = all CPUs; results are bit-identical for any
//! worker count) and prints Tables 1–2 plus the §3.2 claims; `program`
//! additionally emits the via program of the packed array; `arch` prints an
//! architecture summary. `--stats` adds the per-stage instrumentation
//! (wall time, netlist sizes, cost movement, mover/acceptance counters)
//! and each flow's route legality.
//!
//! `--emit-sdf` / `--emit-xdl` write one SDF 3.0 timing file and/or one
//! `.vxdl` netlist/placement/routing file per back-end job after its
//! post-route STA; `verify-interchange` re-parses every artifact in a
//! directory and checks the round-trip fixpoints; `migrate-checkpoints`
//! exports each binary front-end checkpoint to its `.vxdl` text twin and
//! verifies the re-parsed snapshot fingerprint matches the binary's.

use std::error::Error;
use std::fs;
use std::process::ExitCode;

use vpga::core::PlbArchitecture;
use vpga::designs::{DesignParams, NamedDesign};
use vpga::flow::report::Matrix;
use vpga::flow::{run_design, FlowConfig};
use vpga::netlist::library::generic;
use vpga::netlist::{io, Netlist};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = arm_faults_from_env() {
        eprintln!("error: {e}");
        return ExitCode::from(1);
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Arms the fault-injection harness from `VPGA_FAULT`
/// (`point[@ctx]=panic|error|timeout[,...]`) when the binary is built with
/// the `fault-inject` feature.
#[cfg(feature = "fault-inject")]
fn arm_faults_from_env() -> Result<(), String> {
    match std::env::var("VPGA_FAULT") {
        Ok(spec) => vpga::flow::faultpoint::arm_from_spec(&spec),
        Err(_) => Ok(()),
    }
}

#[cfg(not(feature = "fault-inject"))]
fn arm_faults_from_env() -> Result<(), String> {
    if std::env::var_os("VPGA_FAULT").is_some() {
        eprintln!("warning: VPGA_FAULT set but this build lacks the fault-inject feature");
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), Box<dyn Error>> {
    let Some(command) = args.first() else {
        print_usage();
        return Ok(());
    };
    let rest = &args[1..];
    match command.as_str() {
        "gen" => cmd_gen(rest),
        "flow" => cmd_flow(rest),
        "matrix" => cmd_matrix(rest),
        "program" => cmd_program(rest),
        "arch" => cmd_arch(rest),
        "export-arch" => cmd_export_arch(rest),
        "verify-interchange" => cmd_verify_interchange(rest),
        "migrate-checkpoints" => cmd_migrate_checkpoints(rest),
        "serve" => cmd_serve(rest),
        "submit" => cmd_submit(rest),
        "serve-bench" => cmd_serve_bench(rest),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `vpga help`").into()),
    }
}

fn print_usage() {
    eprintln!(
        "vpga — Via-Patterned Gate Array implementation flow\n\n\
         usage:\n\
         \x20 vpga gen <alu|fpu|switch|firewire> [--size S] [-o FILE]   generate a benchmark as Verilog\n\
         \x20 vpga flow <design.v> [--arch A] [--no-compaction] [--stats]  run flows a and b, print metrics\n\
         \x20 vpga matrix [--size S] [--jobs N] [--stats] [--checkpoint-dir DIR] [--resume]\n\
         \x20                                                           run the full 4×2 evaluation matrix\n\
         \x20 vpga program <design.v> [--arch A] [-o FILE]              emit the packed via program\n\
         \x20 vpga arch [A | FILE.varch]                                print architecture summaries\n\
         \x20 vpga export-arch <A> [-o FILE]                            write a built-in architecture as .varch\n\n\
         sizes S: tiny | small | medium | paper (default small)\n\
         architectures A: granular | lut | homogeneous (default granular)\n\
         --jobs N: worker threads (0 = one per CPU; default 1) — results are\n\
         \x20         bit-identical for any N\n\
         --stage-threads N: worker threads *inside* the place/route kernels\n\
         \x20         (0 = one per CPU; default 1) — results are bit-identical for any N\n\
         --only F: (matrix) run only the cells whose design/arch contains F\n\
         --arch-file FILE: (matrix, repeatable) load a .varch architecture description\n\
         \x20         and sweep it through the matrix; a description named after a\n\
         \x20         built-in replaces that column, any other name adds one\n\
         --stats : print per-stage wall time, sizes, cost and move counters,\n\
         \x20         and each flow's route legality\n\n\
         robustness (flow and matrix):\n\
         --audit        : run the inter-stage invariant auditors (always on in debug builds)\n\
         --retries N    : retry stochastic stages up to N times with derived reseeds\n\
         --deadline SECS: per-job wall-clock budget; over-budget jobs fail cleanly\n\n\
         checkpointing (matrix only):\n\
         --checkpoint-dir DIR: persist per-stage artifacts to DIR as stages complete\n\
         --resume            : skip stages whose valid checkpoints are already in DIR;\n\
         \x20                    an interrupted-then-resumed matrix is bit-identical\n\n\
         interchange:\n\
         --emit-sdf DIR: write per-job SDF 3.0 timing files after post-route STA (matrix)\n\
         --emit-xdl DIR: write per-job .vxdl netlist/placement/routing files (matrix)\n\
         \x20 vpga verify-interchange <DIR>                     re-parse every .sdf/.vxdl in DIR,\n\
         \x20                                                   check round-trip fixpoints\n\
         \x20 vpga migrate-checkpoints <DIR> [--size S]         export front-end checkpoints to\n\
         \x20                                                   .vxdl and verify fingerprints\n\n\
         service:\n\
         \x20 vpga serve [--listen ADDR] [--workers N] [--queue N] [--cache-mb N]\n\
         \x20            [--checkpoint-dir DIR] [--chaos]        run the flow daemon (SIGTERM or\n\
         \x20                                                   /shutdown drains gracefully)\n\
         \x20 vpga submit <HOST:PORT> <PATH>                    GET a daemon endpoint, print the body\n\
         \x20                                                   (e.g. \"/job?design=alu&arch=granular&variant=a&params=tiny\")\n\
         \x20 vpga serve-bench [--jobs N] [--clients N] [--cache-kb N] [--designs N]\n\
         \x20                                                   load-test an in-process daemon against\n\
         \x20                                                   batch-mode reference fingerprints"
    );
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Applies the shared robustness flags (`--audit`, `--retries N`,
/// `--deadline SECS`) on top of `config`.
fn apply_robustness_flags(
    mut config: FlowConfig,
    args: &[String],
) -> Result<FlowConfig, Box<dyn Error>> {
    if args.iter().any(|a| a == "--audit") {
        config.audit = true;
    }
    if let Some(v) = flag_value(args, "--retries") {
        config.retries = v
            .parse()
            .map_err(|_| format!("bad --retries value {v:?}"))?;
    } else if args.iter().any(|a| a == "--retries") {
        return Err("--retries needs a value".into());
    }
    if let Some(v) = flag_value(args, "--deadline") {
        let secs: f64 = v
            .parse()
            .map_err(|_| format!("bad --deadline value {v:?}"))?;
        // 0 is legal and fails jobs fast before their first stage — the
        // admission-style "reject everything" budget.
        if !secs.is_finite() || secs < 0.0 {
            return Err(format!("--deadline must be non-negative, got {v}").into());
        }
        config.deadline = Some(std::time::Duration::from_secs_f64(secs));
    } else if args.iter().any(|a| a == "--deadline") {
        return Err("--deadline needs a value".into());
    }
    if let Some(v) = flag_value(args, "--stage-threads") {
        let n: usize = v
            .parse()
            .map_err(|_| format!("bad --stage-threads value {v:?}"))?;
        // 0 = one worker per CPU, like --jobs.
        config.stage_threads = if n == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            n
        };
    } else if args.iter().any(|a| a == "--stage-threads") {
        return Err("--stage-threads needs a value".into());
    }
    Ok(config)
}

fn parse_size(args: &[String]) -> Result<DesignParams, Box<dyn Error>> {
    let name = flag_value(args, "--size").unwrap_or("small");
    match name {
        "tiny" => Ok(DesignParams::tiny()),
        "small" => Ok(DesignParams::small()),
        "medium" => Ok(DesignParams {
            alu_width: 24,
            fpu_mantissa: 16,
            fpu_exponent: 6,
            fpu_lanes: 3,
            switch_ports: 8,
            switch_width: 16,
            firewire_scale: 3,
        }),
        "paper" => Ok(DesignParams::paper()),
        other => Err(format!("unknown size {other:?}").into()),
    }
}

fn parse_arch(args: &[String]) -> Result<PlbArchitecture, Box<dyn Error>> {
    match flag_value(args, "--arch").unwrap_or("granular") {
        "granular" => Ok(PlbArchitecture::granular()),
        "lut" => Ok(PlbArchitecture::lut_based()),
        "homogeneous" => Ok(PlbArchitecture::homogeneous_lut()),
        other => Err(format!("unknown architecture {other:?}").into()),
    }
}

/// Loads a `.varch` architecture description from disk, fail-closed: any
/// grammar or validation error surfaces with its line/column position.
fn load_arch_file(path: &str) -> Result<PlbArchitecture, Box<dyn Error>> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read arch file {path}: {e}"))?;
    let desc = vpga::core::ArchDescription::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(PlbArchitecture::from_description(&desc))
}

/// Collects every `--arch-file FILE` into the matrix architecture list.
/// Descriptions named after a built-in replace that column; any other name
/// appends a new column.
fn matrix_archs(args: &[String]) -> Result<Vec<PlbArchitecture>, Box<dyn Error>> {
    let mut archs = vec![PlbArchitecture::granular(), PlbArchitecture::lut_based()];
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if arg != "--arch-file" {
            continue;
        }
        let path = iter.next().ok_or("--arch-file needs a path")?;
        let arch = load_arch_file(path)?;
        match archs.iter().position(|a| a.name() == arch.name()) {
            Some(i) => archs[i] = arch,
            None => archs.push(arch),
        }
    }
    Ok(archs)
}

fn parse_design(name: &str) -> Result<NamedDesign, Box<dyn Error>> {
    match name {
        "alu" => Ok(NamedDesign::Alu),
        "fpu" => Ok(NamedDesign::Fpu),
        "switch" => Ok(NamedDesign::NetworkSwitch),
        "firewire" => Ok(NamedDesign::Firewire),
        other => Err(format!("unknown design {other:?}").into()),
    }
}

fn load_design(path: &str) -> Result<Netlist, Box<dyn Error>> {
    let text = fs::read_to_string(path)?;
    let lib = generic::library();
    Ok(io::read_verilog(&text, &lib)?)
}

fn cmd_gen(args: &[String]) -> Result<(), Box<dyn Error>> {
    let name = args
        .first()
        .ok_or("gen requires a design name (alu|fpu|switch|firewire)")?;
    let design = parse_design(name)?;
    let params = parse_size(args)?;
    let netlist = design.generate(&params);
    let lib = generic::library();
    let text = io::write_verilog(&netlist, &lib)?;
    match flag_value(args, "-o") {
        Some(path) => {
            fs::write(path, &text)?;
            eprintln!(
                "wrote {} ({} cells, {} nets)",
                path,
                netlist.num_cells(),
                netlist.num_nets()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_flow(args: &[String]) -> Result<(), Box<dyn Error>> {
    let path = args.first().ok_or("flow requires a Verilog file")?;
    let design = load_design(path)?;
    let arch = parse_arch(args)?;
    let config = apply_robustness_flags(
        FlowConfig {
            compaction: !args.iter().any(|a| a == "--no-compaction"),
            ..FlowConfig::default()
        },
        args,
    )?;
    eprintln!(
        "running flows a and b on {:?} for {arch} ...",
        design.name()
    );
    let out = run_design(&design, &arch, &config)?;
    println!("design fingerprint: {:#018x}", out.fingerprint());
    println!(
        "design          : {} ({:.0} NAND2-eq gates)",
        out.design, out.gates_nand2
    );
    if let Some(c) = &out.compaction {
        println!(
            "compaction      : {} -> {} cells ({:+.1} % area)",
            c.cells_before,
            c.cells_after,
            -100.0 * c.area_reduction()
        );
    }
    println!(
        "flow a (ASIC)   : die {:>10.0} µm², top-10 slack {:>9.1} ps, wire {:>9.0} µm",
        out.flow_a.die_area, out.flow_a.avg_top10_slack, out.flow_a.wirelength
    );
    let (c, r, used) = out.flow_b.array.expect("flow b packs an array");
    println!(
        "flow b (array)  : die {:>10.0} µm², top-10 slack {:>9.1} ps, wire {:>9.0} µm ({c}×{r} PLBs, {used} used)",
        out.flow_b.die_area, out.flow_b.avg_top10_slack, out.flow_b.wirelength
    );
    println!(
        "power           : {:.3} mW (flow a) / {:.3} mW (flow b)",
        out.flow_a.power_mw, out.flow_b.power_mw
    );
    println!(
        "a→b overhead    : {:+.1} % area, {:.1} ps slack",
        100.0 * out.area_overhead(),
        out.slack_degradation()
    );
    if args.iter().any(|a| a == "--stats") {
        println!("\nPer-stage statistics");
        println!("front-end");
        print!(
            "{}",
            vpga::flow::stats::render_stages(&out.front_stages, "  ")
        );
        for result in [&out.flow_a, &out.flow_b] {
            println!("{}", result.variant);
            print!("{}", vpga::flow::stats::render_stages(&result.stages, "  "));
            println!("  {}", result.route_legality());
        }
    }
    Ok(())
}

fn cmd_matrix(args: &[String]) -> Result<(), Box<dyn Error>> {
    let params = parse_size(args)?;
    let jobs: usize = match flag_value(args, "--jobs") {
        Some(v) => v.parse().map_err(|_| format!("bad --jobs value {v:?}"))?,
        None if args.iter().any(|a| a == "--jobs") => return Err("--jobs needs a value".into()),
        None => 1,
    };
    let mut config = apply_robustness_flags(
        FlowConfig {
            compaction: !args.iter().any(|a| a == "--no-compaction"),
            ..FlowConfig::default()
        },
        args,
    )?;
    for (flag, slot) in [
        ("--emit-sdf", &mut config.emit.sdf_dir),
        ("--emit-xdl", &mut config.emit.xdl_dir),
    ] {
        match flag_value(args, flag) {
            Some(dir) => *slot = Some(dir.into()),
            None if args.iter().any(|a| a == flag) => {
                return Err(format!("{flag} needs a directory").into())
            }
            None => {}
        }
    }
    let only = match flag_value(args, "--only") {
        Some(f) => Some(f),
        None if args.iter().any(|a| a == "--only") => {
            return Err("--only needs a design/arch substring".into())
        }
        None => None,
    };
    let resume = args.iter().any(|a| a == "--resume");
    let checkpoints = match flag_value(args, "--checkpoint-dir") {
        Some(dir) => Some(vpga::flow::CheckpointStore::new(dir, resume)?),
        None if args.iter().any(|a| a == "--checkpoint-dir") => {
            return Err("--checkpoint-dir needs a value".into())
        }
        None if resume => return Err("--resume needs --checkpoint-dir".into()),
        None => None,
    };
    let archs = matrix_archs(args)?;
    eprintln!(
        "running the 4 designs × {} architectures matrix on {} worker(s) ...",
        archs.len(),
        vpga::flow::Executor::new(jobs).workers()
    );
    // Resilient by default: a failed cell is reported (and drops its pair
    // from the tables) while every other cell completes bit-identically.
    let matrix = Matrix::run_resilient_with_archs(
        &params,
        &config,
        jobs,
        checkpoints.as_ref(),
        only,
        &archs,
    );
    println!("matrix fingerprint: {:#018x}", matrix.fingerprint());
    println!();
    print!("{}", matrix.table1());
    println!();
    print!("{}", matrix.table2());
    println!();
    // Architectures beyond the paper's two have no column in Tables 1-2;
    // give each its own block.
    for arch in &archs {
        if arch.name() != "granular" && arch.name() != "lut" {
            print!("{}", matrix.arch_table(arch.name()));
            println!();
        }
    }
    match matrix.try_claims() {
        Some(claims) => print!("{claims}"),
        None => println!("§3.2 claims unavailable: failed cells left holes in the matrix"),
    }
    if !matrix.failures().is_empty() {
        println!();
        print!("{}", matrix.failures_report());
    }
    if args.iter().any(|a| a == "--stats") {
        println!();
        print!("{}", matrix.stats_report());
    }
    if matrix.failures().is_empty() {
        Ok(())
    } else {
        Err(format!("{} matrix cell(s) failed", matrix.failures().len()).into())
    }
}

fn cmd_program(args: &[String]) -> Result<(), Box<dyn Error>> {
    let path = args.first().ok_or("program requires a Verilog file")?;
    let design = load_design(path)?;
    let arch = parse_arch(args)?;
    let src = generic::library();
    let mut mapped = vpga::synth::map_netlist_fast(&design, &src, &arch)?;
    vpga::compact::compact(&mut mapped, &arch)?;
    let place_cfg = vpga::place::PlaceConfig::default();
    let mut placement = vpga::place::place(&mapped, arch.library(), &place_cfg);
    let array = vpga::pack::pack_iterative(
        &mapped,
        &arch,
        &mut placement,
        &place_cfg,
        &vpga::pack::PackConfig::default(),
    )?;
    let program = vpga::fabric::FabricProgram::generate(&mapped, &arch, &array)?;
    // Sanity: the program must reconstruct to an equivalent netlist.
    let _ = program.reconstruct(&mapped, &arch)?;
    let mut text = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(text, "# {program}");
    for plb in program.plbs() {
        if plb.slots.is_empty() {
            continue;
        }
        let _ = writeln!(text, "plb {}", plb.index);
        for slot in &plb.slots {
            let _ = writeln!(
                text,
                "  {}[{}] vias={} cell={}",
                slot.slot_cell, slot.slot_class, slot.vias, slot.cell_name
            );
        }
    }
    match flag_value(args, "-o") {
        Some(out_path) => {
            fs::write(out_path, &text)?;
            eprintln!("wrote {out_path}");
        }
        None => print!("{text}"),
    }
    eprintln!("{program}");
    Ok(())
}

/// Re-parses every `.sdf` / `.vxdl` artifact in a directory and checks
/// the round-trip fixpoints: a re-emitted artifact must be byte-identical
/// to the file on disk, and `.vxdl` parse-backs print their snapshot
/// fingerprints so they can be compared across runs.
fn cmd_verify_interchange(args: &[String]) -> Result<(), Box<dyn Error>> {
    use vpga::interchange::{sdf, snapshot_fingerprint, vxdl};
    let dir = args
        .first()
        .ok_or("verify-interchange requires a directory")?;
    let mut entries: Vec<_> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| matches!(p.extension().and_then(|e| e.to_str()), Some("sdf" | "vxdl")))
        .collect();
    entries.sort();
    if entries.is_empty() {
        return Err(format!("no .sdf or .vxdl artifacts in {dir}").into());
    }
    let mut failures = 0usize;
    for path in &entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
        let text = fs::read_to_string(path)?;
        let outcome: Result<String, String> = match path.extension().and_then(|e| e.to_str()) {
            Some("sdf") => sdf::parse(&text)
                .map_err(|e| e.to_string())
                .and_then(|file| {
                    if file.to_text() == text {
                        Ok(format!("{} cells", file.cells.len()))
                    } else {
                        Err("re-emitted text differs from file".to_owned())
                    }
                }),
            Some("vxdl") => vxdl::parse(&text)
                .map_err(|e| e.to_string())
                .and_then(|doc| {
                    if vxdl::encode(&doc.netlist, &doc.placement, &doc.routes) == text {
                        Ok(format!(
                            "fingerprint {:#018x}",
                            snapshot_fingerprint(&doc.netlist, &doc.placement)
                        ))
                    } else {
                        Err("re-emitted text differs from file".to_owned())
                    }
                }),
            _ => unreachable!("filtered above"),
        };
        match outcome {
            Ok(detail) => println!("ok   {name}: round-trip fixpoint, {detail}"),
            Err(e) => {
                println!("FAIL {name}: {e}");
                failures += 1;
            }
        }
    }
    if failures == 0 {
        eprintln!("{} artifact(s) verified", entries.len());
        Ok(())
    } else {
        Err(format!("{failures} artifact(s) failed verification").into())
    }
}

/// Exports each binary front-end checkpoint in a directory to its `.vxdl`
/// text twin and verifies the text parses back to the same snapshot
/// fingerprint — the migration path from the binary checkpoint format to
/// the interchange text format.
fn cmd_migrate_checkpoints(args: &[String]) -> Result<(), Box<dyn Error>> {
    let dir = args
        .first()
        .ok_or("migrate-checkpoints requires a checkpoint directory")?;
    let params = parse_size(args)?;
    let config = FlowConfig {
        compaction: !args.iter().any(|a| a == "--no-compaction"),
        ..FlowConfig::default()
    };
    let store = vpga::flow::CheckpointStore::new(dir, true)?;
    let mut migrated = 0usize;
    for design in ["alu", "firewire", "fpu", "network_switch"] {
        for arch in [PlbArchitecture::granular(), PlbArchitecture::lut_based()] {
            let arch_name = arch.name();
            if !store
                .dir()
                .join(format!("front-{design}-{arch_name}.ckpt"))
                .exists()
            {
                continue;
            }
            let (path, fp) = store.export_front_text(design, &arch, &config, &params)?;
            let verified = store.verify_front_text(design, &arch, &config, &params)?;
            assert_eq!(fp, verified, "export and verify disagree");
            println!(
                "migrated {design}/{arch_name} -> {} (fingerprint {fp:#018x})",
                path.display()
            );
            migrated += 1;
        }
    }
    if migrated == 0 {
        return Err(format!(
            "no front-end checkpoints in {dir} match --size/--no-compaction (run \
             `vpga matrix --checkpoint-dir {dir}` first)"
        )
        .into());
    }
    eprintln!("{migrated} checkpoint(s) migrated and verified");
    Ok(())
}

/// Parses `--flag N` as a number, with a default when the flag is absent.
fn numeric_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, Box<dyn Error>> {
    match flag_value(args, flag) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad {flag} value {v:?}").into()),
        None if args.iter().any(|a| a == flag) => Err(format!("{flag} needs a value").into()),
        None => Ok(default),
    }
}

/// `vpga serve` — run the flow daemon until SIGTERM or `/shutdown`, then
/// drain gracefully and report.
fn cmd_serve(args: &[String]) -> Result<(), Box<dyn Error>> {
    let config = vpga::serve::DaemonConfig {
        listen: flag_value(args, "--listen")
            .unwrap_or("127.0.0.1:8787")
            .to_owned(),
        workers: numeric_flag(args, "--workers", 4usize)?,
        queue_depth: numeric_flag(args, "--queue", 64usize)?,
        cache_budget: numeric_flag(args, "--cache-mb", 64usize)? << 20,
        checkpoint_dir: flag_value(args, "--checkpoint-dir").map(Into::into),
        chaos: args.iter().any(|a| a == "--chaos"),
    };
    vpga::serve::install_sigterm_handler();
    let handle = vpga::serve::spawn(config.clone())?;
    eprintln!(
        "vpga serve: listening on {} ({} workers, queue depth {}, cache {} MiB{}{})",
        handle.addr(),
        config.workers.max(1),
        config.queue_depth,
        config.cache_budget >> 20,
        match &config.checkpoint_dir {
            Some(dir) => format!(", checkpoints in {}", dir.display()),
            None => String::new(),
        },
        if config.chaos { ", chaos enabled" } else { "" },
    );
    let summary = handle.join();
    println!("{summary}");
    if summary.cache_valid {
        Ok(())
    } else {
        Err("artifact cache failed post-drain validation".into())
    }
}

/// `vpga submit` — one GET against a running daemon, body to stdout.
fn cmd_submit(args: &[String]) -> Result<(), Box<dyn Error>> {
    use std::net::ToSocketAddrs as _;
    let host = args.first().ok_or("submit requires HOST:PORT")?;
    let path = args.get(1).ok_or(
        "submit requires a request path, e.g. \"/job?design=alu&arch=granular&variant=a&params=tiny\"",
    )?;
    let addr = host
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| format!("cannot resolve {host}"))?;
    let (status, body) = vpga::serve::get(addr, path)?;
    print!("{body}");
    if status == 200 {
        Ok(())
    } else {
        Err(format!("daemon answered {status}").into())
    }
}

/// `vpga serve-bench` — the load harness: an in-process daemon hammered
/// with mixed hit/miss/zero-deadline/poisoned jobs, every published
/// fingerprint checked against the batch-mode reference.
fn cmd_serve_bench(args: &[String]) -> Result<(), Box<dyn Error>> {
    let config = vpga::serve::BenchConfig {
        jobs: numeric_flag(args, "--jobs", 1000usize)?,
        clients: numeric_flag(args, "--clients", 8usize)?,
        cache_budget: numeric_flag(args, "--cache-kb", 512usize)? << 10,
        designs: numeric_flag(args, "--designs", 4usize)?,
    };
    eprintln!(
        "serve-bench: {} jobs across {} clients, cache budget {} KiB ...",
        config.jobs,
        config.clients,
        config.cache_budget >> 10
    );
    let report = vpga::serve::run_bench(&config)?;
    println!("{report}");
    report.verify(config.cache_budget)?;
    eprintln!("serve-bench: all invariants held");
    Ok(())
}

fn cmd_arch(args: &[String]) -> Result<(), Box<dyn Error>> {
    let archs: Vec<PlbArchitecture> = if args.is_empty() {
        vec![
            PlbArchitecture::granular(),
            PlbArchitecture::lut_based(),
            PlbArchitecture::homogeneous_lut(),
        ]
    } else if args[0].ends_with(".varch") {
        vec![load_arch_file(&args[0])?]
    } else {
        vec![parse_arch(["--arch".to_owned(), args[0].clone()].as_ref())?]
    };
    for arch in archs {
        println!("{arch}");
        println!(
            "  description fingerprint: {:#018x}",
            arch.desc_fingerprint()
        );
        println!("  fits full adder in one PLB: {}", arch.fits_full_adder());
        for cfg in arch.configs() {
            println!("  config {cfg}");
        }
    }
    Ok(())
}

/// `vpga export-arch` — write a built-in architecture's canonical `.varch`
/// description, the data-migration path out of the embedded definitions.
fn cmd_export_arch(args: &[String]) -> Result<(), Box<dyn Error>> {
    let name = args
        .first()
        .ok_or("export-arch requires an architecture name (granular|lut|homogeneous)")?;
    let arch = parse_arch(["--arch".to_owned(), name.clone()].as_ref())?;
    let text = arch.describe().encode();
    match flag_value(args, "-o") {
        Some(path) => {
            fs::write(path, &text)?;
            eprintln!(
                "wrote {path} (fingerprint {:#018x})",
                arch.desc_fingerprint()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}
