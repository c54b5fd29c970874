//! `vpga` — command-line front end to the VPGA implementation flow.
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
//! `vpga help` prints the usage. Every command parses its arguments
//! strictly against its row of [`COMMANDS`] (see [`Args`]): an unknown,
//! repeated or value-less flag, or a surplus positional argument, is an
//! error naming the argument and its position, and nothing runs.
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
use std::str::FromStr;
use std::time::Duration;

use vpga::core::PlbArchitecture;
use vpga::designs::{DesignParams, NamedDesign};
use vpga::flow::{run_design, CheckpointStore, Executor, FlowConfig, Matrix, MatrixRun};
use vpga::netlist::library::generic;
use vpga::netlist::{io, Netlist};
use vpga::serve::{BenchConfig, DaemonConfig, DEFAULT_WORKERS};

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

/// Every command: its name, its entry point, how many positional
/// arguments it takes, and the flags it accepts — a trailing `=` marks a
/// flag that takes the next argument as its value.
type Command = (&'static str, fn(&Args) -> CmdResult, usize, &'static str);
type CmdResult = Result<(), Box<dyn Error>>;

#[rustfmt::skip]
const COMMANDS: [Command; 11] = [
    ("gen", cmd_gen, 1, "--size= -o="),
    ("flow", cmd_flow, 1, "--no-compaction --stats --audit --arch= --retries= --deadline="),
    ("matrix", cmd_matrix, 0, "--no-compaction --stats --audit --resume --size= --jobs= --only= \
        --arch-file= --retries= --deadline= --checkpoint-dir= --emit-sdf= --emit-xdl="),
    ("program", cmd_program, 1, "--arch= -o="),
    ("arch", cmd_arch, 1, ""),
    ("export-arch", cmd_export_arch, 1, "-o="),
    ("verify-interchange", cmd_verify_interchange, 1, ""),
    ("migrate-checkpoints", cmd_migrate_checkpoints, 1, "--no-compaction --size="),
    ("serve", cmd_serve, 0, "--chaos --listen= --workers= --queue= --cache-mb= --checkpoint-dir="),
    ("submit", cmd_submit, 2, ""),
    ("serve-bench", cmd_serve_bench, 0, "--jobs= --clients= --cache-kb= --designs="),
];

/// The one flag that may be given more than once.
const REPEATABLE: &str = "--arch-file";

fn run(args: &[String]) -> CmdResult {
    let name = args.first().map_or("help", String::as_str);
    if matches!(name, "help" | "--help" | "-h") {
        eprintln!("{}", usage());
        return Ok(());
    }
    let command = COMMANDS
        .iter()
        .find(|c| c.0 == name)
        .ok_or_else(|| format!("unknown command {name:?}; try `vpga help`"))?;
    (command.1)(&Args::parse(command, &args[1..])?)
}

/// One command's arguments, parsed strictly against its [`Command`] row.
/// An argument starting with `-` is a flag; any other is positional,
/// before or after the flags. Unknown and repeated flags (all but
/// [`REPEATABLE`]), a valued flag with no value or followed by another
/// `--` flag, and surplus positional arguments are errors naming the
/// argument and its 1-based position, the command itself being
/// argument 1.
struct Args<'a> {
    positional: Vec<&'a str>,
    /// Each flag given, with its value (`None` for a switch) and position.
    flags: Vec<(&'a str, Option<&'a str>, usize)>,
}

impl<'a> Args<'a> {
    fn parse(
        &(name, _, positional, flags): &Command,
        args: &'a [String],
    ) -> Result<Args<'a>, String> {
        let mut parsed = Args {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut iter = args.iter().map(String::as_str).zip(2..).peekable();
        while let Some((arg, at)) = iter.next() {
            if !arg.starts_with('-') {
                if parsed.positional.len() == positional {
                    return Err(format!(
                        "unexpected argument {arg:?} (argument {at}) for `vpga {name}`"
                    ));
                }
                parsed.positional.push(arg);
                continue;
            }
            let Some(takes_value) = flags
                .split_whitespace()
                .find_map(|f| (f.trim_end_matches('=') == arg).then(|| f.ends_with('=')))
            else {
                return Err(format!(
                    "unknown flag {arg} (argument {at}) for `vpga {name}`; try `vpga help`"
                ));
            };
            if let Some(first) = parsed
                .flags
                .iter()
                .find(|f| f.0 == arg && arg != REPEATABLE)
            {
                return Err(format!(
                    "repeated flag {arg} (argument {at}; first given as argument {})",
                    first.2
                ));
            }
            let value = match iter.next_if(|_| takes_value) {
                Some((v, _)) if !v.starts_with("--") => Some(v),
                None if !takes_value => None,
                _ => return Err(format!("flag {arg} (argument {at}) needs a value")),
            };
            parsed.flags.push((arg, value, at));
        }
        Ok(parsed)
    }

    /// The `i`-th positional argument.
    fn positional(&self, i: usize) -> Option<&'a str> {
        self.positional.get(i).copied()
    }

    /// Whether the switch `flag` was given.
    fn switch(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f.0 == flag)
    }

    /// The value of `flag`, if given.
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.values(flag).next()
    }

    /// Every value of `flag`, in command-line order.
    fn values<'s>(&'s self, flag: &'s str) -> impl Iterator<Item = &'a str> + 's {
        self.flags
            .iter()
            .filter(move |f| f.0 == flag)
            .filter_map(|f| f.1)
    }

    /// The value of `flag` parsed as a `T`, if given.
    fn number<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.flags.iter().find(|f| f.0 == flag) {
            Some(&(_, Some(v), at)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad {flag} value {v:?} (argument {})", at + 1)),
            _ => Ok(None),
        }
    }
}

/// The text `vpga help` prints; the service defaults come from
/// [`DaemonConfig::default`] and [`BenchConfig::default`].
fn usage() -> String {
    let daemon = DaemonConfig::default();
    let bench = BenchConfig::default();
    format!(
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
         --only F: (matrix) run only the cells whose design/arch contains F\n\
         \x20         (e.g. alu/granular); each cell that ran shows in a table\n\
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
         \x20                                                   /shutdown drains gracefully);\n\
         \x20                                                   defaults: --listen {SERVE_LISTEN},\n\
         \x20                                                   --workers one per CPU, {} to {}\n\
         \x20                                                   ({} here), --queue {}, --cache-mb {}\n\
         \x20 vpga submit <HOST:PORT> <PATH>                    GET a daemon endpoint, print the body\n\
         \x20                                                   (e.g. \"/job?design=alu&arch=granular&variant=a&params=tiny\")\n\
         \x20 vpga serve-bench [--jobs N] [--clients N] [--cache-kb N] [--designs N]\n\
         \x20                                                   load-test an in-process daemon against\n\
         \x20                                                   batch-mode reference fingerprints;\n\
         \x20                                                   defaults: --jobs {}, --clients {},\n\
         \x20                                                   --cache-kb {}, --designs {}\n\n\
         every command rejects unknown and repeated flags (only --arch-file repeats),\n\
         flags missing their value and extra arguments, naming the argument's position",
        DEFAULT_WORKERS.start(),
        DEFAULT_WORKERS.end(),
        daemon.workers,
        daemon.queue_depth,
        daemon.cache_budget >> 20,
        bench.jobs,
        bench.clients,
        bench.cache_budget >> 10,
        bench.designs,
    )
}

/// The flow settings `flow` and `matrix` share: `--no-compaction` and the
/// robustness flags `--audit`, `--retries N` and `--deadline SECS`.
fn flow_config(args: &Args) -> Result<FlowConfig, Box<dyn Error>> {
    let mut config = FlowConfig {
        compaction: !args.switch("--no-compaction"),
        ..FlowConfig::default()
    };
    config.audit |= args.switch("--audit");
    config.retries = args.number("--retries")?.unwrap_or(config.retries);
    // 0 is legal and fails jobs fast before their first stage — the
    // admission-style "reject everything" budget.
    config.deadline = args
        .number("--deadline")?
        .map(|secs: f64| {
            Duration::try_from_secs_f64(secs)
                .map_err(|_| format!("--deadline must be non-negative, got {secs}"))
        })
        .transpose()?;
    Ok(config)
}

fn parse_size(args: &Args) -> Result<DesignParams, String> {
    let name = args.value("--size").unwrap_or("small");
    let presets = DesignParams::PRESETS.join("|");
    DesignParams::by_name(name).ok_or_else(|| format!("unknown size {name:?} ({presets})"))
}

fn parse_arch(name: &str) -> Result<PlbArchitecture, String> {
    match name {
        "granular" => Ok(PlbArchitecture::granular()),
        "lut" => Ok(PlbArchitecture::lut_based()),
        "homogeneous" => Ok(PlbArchitecture::homogeneous_lut()),
        other => Err(format!("unknown architecture {other:?}")),
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
fn matrix_archs(args: &Args) -> Result<Vec<PlbArchitecture>, Box<dyn Error>> {
    let mut archs = MatrixRun::default().archs;
    for path in args.values("--arch-file") {
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
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let lib = generic::library();
    Ok(io::read_verilog(&text, &lib)?)
}

fn cmd_gen(args: &Args) -> CmdResult {
    let name = args
        .positional(0)
        .ok_or("gen requires a design name (alu|fpu|switch|firewire)")?;
    let design = parse_design(name)?;
    let params = parse_size(args)?;
    let netlist = design.generate(&params);
    let lib = generic::library();
    let text = io::write_verilog(&netlist, &lib)?;
    match args.value("-o") {
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

fn cmd_flow(args: &Args) -> CmdResult {
    let path = args.positional(0).ok_or("flow requires a Verilog file")?;
    let arch = parse_arch(args.value("--arch").unwrap_or("granular"))?;
    let config = flow_config(args)?;
    let design = load_design(path)?;
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
    if args.switch("--stats") {
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

fn cmd_matrix(args: &Args) -> CmdResult {
    let mut config = flow_config(args)?;
    config.emit.sdf_dir = args.value("--emit-sdf").map(Into::into);
    config.emit.xdl_dir = args.value("--emit-xdl").map(Into::into);
    let resume = args.switch("--resume");
    if resume && args.value("--checkpoint-dir").is_none() {
        return Err("--resume needs --checkpoint-dir".into());
    }
    let run = MatrixRun {
        params: parse_size(args)?,
        config,
        jobs: args.number("--jobs")?.unwrap_or(1),
        only: args.value("--only").map(str::to_owned),
        archs: matrix_archs(args)?,
        checkpoints: args
            .value("--checkpoint-dir")
            .map(|dir| CheckpointStore::new(dir, resume))
            .transpose()?,
    };
    let cells = run.flow_matrix().jobs().len();
    let filter = run
        .only
        .as_ref()
        .map_or(String::new(), |f| format!(" (--only {f})"));
    if cells == 0 {
        return Err(format!(
            "no matrix cell matches{filter}; cells are DESIGN/ARCH, e.g. alu/granular"
        )
        .into());
    }
    eprintln!(
        "running {cells} cells of the 4 designs × {} architectures matrix{filter} on {} worker(s) ...",
        run.archs.len(),
        Executor::new(run.jobs).workers()
    );
    // Resilient: a failed cell is reported (and drops its pair from the
    // tables) while every other cell completes bit-identically.
    let matrix = Matrix::run(&run);
    println!("matrix fingerprint: {:#018x}", matrix.fingerprint());
    println!();
    // Tables 1–2 show each design whose granular and LUT pairs both ran;
    // every other cell that ran shows in its architecture's own table.
    let paired = NamedDesign::ALL
        .iter()
        .filter(|&&d| matrix.paper_pair(d).is_some())
        .count();
    let mut tables = Vec::new();
    if paired > 0 {
        tables.extend([matrix.table1(), matrix.table2()]);
    }
    for arch in run.archs.iter().map(PlbArchitecture::name) {
        let in_tables = if matches!(arch, "granular" | "lut") {
            paired
        } else {
            0
        };
        if matrix.outcomes().iter().filter(|o| o.arch == arch).count() > in_tables {
            tables.push(matrix.arch_table(arch));
        }
    }
    for table in tables {
        println!("{table}");
    }
    match matrix.claims() {
        Some(claims) => print!("{claims}"),
        None if !matrix.failures().is_empty() => {
            println!("§3.2 claims unavailable: failed cells left holes in the matrix")
        }
        None => {
            println!("§3.2 claims unavailable: they need the full 4 × {{granular, lut}} matrix")
        }
    }
    if !matrix.failures().is_empty() {
        println!();
        print!("{}", matrix.failures_report());
    }
    if args.switch("--stats") {
        println!();
        print!("{}", matrix.stats_report());
    }
    if matrix.failures().is_empty() {
        Ok(())
    } else {
        Err(format!("{} matrix cell(s) failed", matrix.failures().len()).into())
    }
}

fn cmd_program(args: &Args) -> CmdResult {
    let path = args
        .positional(0)
        .ok_or("program requires a Verilog file")?;
    let arch = parse_arch(args.value("--arch").unwrap_or("granular"))?;
    let design = load_design(path)?;
    let src = generic::library();
    let mut mapped = vpga::synth::map_netlist_fast(&design, &src, &arch)?;
    vpga::compact::compact(&mut mapped, &arch)?;
    let place_cfg = vpga::place::PlaceConfig::default();
    let (mut placement, _) = vpga::place::place(&mapped, arch.library(), &place_cfg)?;
    let (array, _) = vpga::pack::pack_iterative(
        &mapped,
        &arch,
        &mut placement,
        &place_cfg,
        &vpga::pack::PackConfig::default(),
        None,
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
    match args.value("-o") {
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
fn cmd_verify_interchange(args: &Args) -> CmdResult {
    use vpga::interchange::{sdf, snapshot_fingerprint, vxdl};
    let dir = args
        .positional(0)
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
fn cmd_migrate_checkpoints(args: &Args) -> CmdResult {
    let dir = args
        .positional(0)
        .ok_or("migrate-checkpoints requires a checkpoint directory")?;
    let params = parse_size(args)?;
    let config = FlowConfig {
        compaction: !args.switch("--no-compaction"),
        ..FlowConfig::default()
    };
    let store = CheckpointStore::new(dir, true)?;
    let mut migrated = 0usize;
    for design in NamedDesign::ALL.map(NamedDesign::key) {
        for arch in MatrixRun::default().archs {
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

/// Where `vpga serve` listens unless `--listen` says otherwise.
const SERVE_LISTEN: &str = "127.0.0.1:8787";

/// The daemon settings of `vpga serve`: [`DaemonConfig::default`] on
/// [`SERVE_LISTEN`], with each flag given applied over it.
fn serve_config(args: &Args) -> Result<DaemonConfig, String> {
    let mut config = DaemonConfig {
        listen: args.value("--listen").unwrap_or(SERVE_LISTEN).to_owned(),
        checkpoint_dir: args.value("--checkpoint-dir").map(Into::into),
        chaos: args.switch("--chaos"),
        ..DaemonConfig::default()
    };
    config.workers = args.number("--workers")?.unwrap_or(config.workers);
    config.queue_depth = args.number("--queue")?.unwrap_or(config.queue_depth);
    if let Some(mb) = args.number::<usize>("--cache-mb")? {
        config.cache_budget = mb
            .checked_mul(1 << 20)
            .ok_or_else(|| format!("--cache-mb {mb} overflows the address space"))?;
    }
    Ok(config)
}

/// `vpga serve` — run the flow daemon until SIGTERM or `/shutdown`, then
/// drain gracefully and report.
fn cmd_serve(args: &Args) -> CmdResult {
    let config = serve_config(args)?;
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
fn cmd_submit(args: &Args) -> CmdResult {
    use std::net::ToSocketAddrs as _;
    let host = args.positional(0).ok_or("submit requires HOST:PORT")?;
    let path = args.positional(1).ok_or(
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

/// The harness settings of `vpga serve-bench`: [`BenchConfig::default`]
/// with each flag given applied over it.
fn serve_bench_config(args: &Args) -> Result<BenchConfig, String> {
    let mut config = BenchConfig::default();
    config.jobs = args.number("--jobs")?.unwrap_or(config.jobs);
    config.clients = args.number("--clients")?.unwrap_or(config.clients);
    if let Some(kb) = args.number::<usize>("--cache-kb")? {
        config.cache_budget = kb
            .checked_mul(1 << 10)
            .ok_or_else(|| format!("--cache-kb {kb} overflows the address space"))?;
    }
    config.designs = args.number("--designs")?.unwrap_or(config.designs);
    Ok(config)
}

/// `vpga serve-bench` — the load harness: an in-process daemon hammered
/// with mixed hit/miss/zero-deadline/poisoned jobs, every published
/// fingerprint checked against the batch-mode reference.
fn cmd_serve_bench(args: &Args) -> CmdResult {
    let config = serve_bench_config(args)?;
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

fn cmd_arch(args: &Args) -> CmdResult {
    let archs: Vec<PlbArchitecture> = match args.positional(0) {
        None => vec![
            PlbArchitecture::granular(),
            PlbArchitecture::lut_based(),
            PlbArchitecture::homogeneous_lut(),
        ],
        Some(path) if path.ends_with(".varch") => vec![load_arch_file(path)?],
        Some(name) => vec![parse_arch(name)?],
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
fn cmd_export_arch(args: &Args) -> CmdResult {
    let name = args
        .positional(0)
        .ok_or("export-arch requires an architecture name (granular|lut|homogeneous)")?;
    let arch = parse_arch(name)?;
    let text = arch.describe().encode();
    match args.value("-o") {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `argv`, the command first, against that command's row.
    fn parse<'a>(argv: &'a [String]) -> Result<Args<'a>, String> {
        let command = COMMANDS.iter().find(|c| c.0 == argv[0]).unwrap();
        Args::parse(command, &argv[1..])
    }

    fn argv(line: &str) -> Vec<String> {
        line.split(' ').map(str::to_owned).collect()
    }

    #[test]
    fn errors_name_the_flag_and_its_argument_position() {
        for case in [
            "gen alu --ouput x.v => unknown flag --ouput (argument 3)",
            "arch -x => unknown flag -x (argument 2)",
            "matrix --size tiny --size paper => repeated flag --size (argument 4; first given as argument 2)",
            "matrix --stats --stats => repeated flag --stats (argument 3",
            "matrix --stats --jobs => flag --jobs (argument 3) needs a value",
            "matrix --only --stats => flag --only (argument 2) needs a value",
            "submit 127.0.0.1:1 /healthz extra => \"extra\" (argument 4)",
        ] {
            let (line, expected) = case.split_once(" => ").unwrap();
            let e = parse(&argv(line)).err().expect(line);
            assert!(e.contains(expected), "{line}: {e}");
        }
        let line = argv("serve-bench --jobs ten");
        let e = parse(&line).unwrap().number::<usize>("--jobs").unwrap_err();
        assert!(e.contains("bad --jobs value \"ten\" (argument 3)"), "{e}");
    }

    #[test]
    fn accepts_repeated_arch_files_and_dash_values() {
        let line = argv("matrix --arch-file a.varch --jobs 2 --arch-file b.varch");
        let args = parse(&line).unwrap();
        assert_eq!(
            args.values("--arch-file").collect::<Vec<_>>(),
            ["a.varch", "b.varch"]
        );
        // A single-dash value is a value: `--deadline -1` fails on its
        // sign, not as a missing value.
        let line = argv("flow alu.v --deadline -1");
        assert_eq!(parse(&line).unwrap().value("--deadline"), Some("-1"));
    }

    #[test]
    fn serve_without_flags_runs_the_daemon_defaults() {
        let line = argv("serve");
        let config = serve_config(&parse(&line).unwrap()).unwrap();
        let expected = DaemonConfig {
            listen: SERVE_LISTEN.to_owned(),
            ..DaemonConfig::default()
        };
        assert_eq!(config, expected);
        // Each flag overrides its own field only.
        let line = argv("serve --workers 3 --cache-mb 2 --chaos");
        let config = serve_config(&parse(&line).unwrap()).unwrap();
        let expected = DaemonConfig {
            workers: 3,
            cache_budget: 2 << 20,
            chaos: true,
            ..expected
        };
        assert_eq!(config, expected);
        let line = argv(&format!("serve --cache-mb {}", usize::MAX >> 8));
        let e = serve_config(&parse(&line).unwrap()).unwrap_err();
        assert!(e.contains("--cache-mb"), "{e}");
    }

    #[test]
    fn serve_bench_without_flags_runs_the_harness_defaults() {
        let line = argv("serve-bench");
        let config = serve_bench_config(&parse(&line).unwrap()).unwrap();
        let defaults = BenchConfig::default();
        assert_eq!(config, defaults);
        // `vpga help` prints the same defaults.
        let help = usage();
        for printed in [
            format!("--jobs {}, --clients {},", defaults.jobs, defaults.clients),
            format!(
                "--cache-kb {}, --designs {}",
                defaults.cache_budget >> 10,
                defaults.designs
            ),
        ] {
            assert!(help.contains(&printed), "{printed:?} not in:\n{help}");
        }
        // Each flag overrides its own field only.
        let line = argv("serve-bench --clients 2 --cache-kb 64");
        let config = serve_bench_config(&parse(&line).unwrap()).unwrap();
        let expected = BenchConfig {
            clients: 2,
            cache_budget: 64 << 10,
            ..defaults
        };
        assert_eq!(config, expected);
        let line = argv(&format!("serve-bench --cache-kb {}", usize::MAX >> 8));
        let e = serve_bench_config(&parse(&line).unwrap()).unwrap_err();
        assert!(e.contains("--cache-kb"), "{e}");
    }
}
