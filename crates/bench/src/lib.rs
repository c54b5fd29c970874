//! Shared helpers for the experiment binaries that regenerate every table
//! and figure of the paper (see DESIGN.md §5 for the experiment index and
//! EXPERIMENTS.md for recorded results).
//!
//! Every binary accepts an optional size argument (`tiny`, `small`,
//! `medium`, or `paper`, resolved by [`DesignParams::by_name`]) controlling
//! the generated design sizes; the default is `small`, which runs the full
//! matrix in seconds. `paper` approximates the publication's 24 k/80 k gate
//! counts and takes correspondingly longer. Any other argument is an error.
//!
//! The matrix-running binaries (`table1`, `table2`) additionally accept
//! `--jobs N` (worker threads; `0` = one per CPU, default 1 — output
//! tables are bit-identical for any N, see `vpga_flow::Executor`) and
//! `--stats` (print the per-stage instrumentation for all 16 runs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use vpga_designs::DesignParams;
use vpga_flow::{Executor, Matrix, MatrixRun};

/// Parsed common benchmark-binary arguments.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Generated design sizes (first free argument; default `small`).
    pub params: DesignParams,
    /// Flow-executor worker count (`--jobs N`; `0` = one per CPU).
    pub jobs: usize,
    /// Print per-stage instrumentation (`--stats`).
    pub stats: bool,
}

/// Parses `[size] [--jobs N] [--stats]` from the command line; exits with
/// a usage message on bad input.
pub fn bench_args() -> BenchArgs {
    const FORM: &str = "[tiny|small|medium|paper] [--jobs N] [--stats]";
    let mut parsed = BenchArgs {
        params: DesignParams::default(),
        jobs: 1,
        stats: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stats" => parsed.stats = true,
            "--jobs" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--jobs needs a value", FORM));
                parsed.jobs = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad --jobs value {v:?}"), FORM));
            }
            size => parsed.params = preset(size, FORM),
        }
    }
    parsed
}

/// Parses the optional size argument (default `small`); exits with a
/// usage message on an unknown size or on any argument after it.
pub fn params_from_args() -> DesignParams {
    const FORM: &str = "[tiny|small|medium|paper]";
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => DesignParams::default(),
        [size] => preset(size, FORM),
        [_, extra, ..] => usage(&format!("unexpected argument {extra:?}"), FORM),
    }
}

fn preset(name: &str, form: &str) -> DesignParams {
    DesignParams::by_name(name).unwrap_or_else(|| usage(&format!("unknown size {name:?}"), form))
}

fn usage(msg: &str, form: &str) -> ! {
    eprintln!("{msg}\nusage: {form}");
    std::process::exit(2);
}

/// Runs the paper's 4 designs × {granular, lut} matrix at `args`,
/// reporting the worker count on stderr. On a failed cell it prints the
/// failures and exits non-zero, so a table is never printed with holes.
pub fn paper_matrix(args: &BenchArgs) -> Matrix {
    eprintln!("workers: {}", Executor::new(args.jobs).workers());
    let matrix = Matrix::run(&MatrixRun {
        params: args.params.clone(),
        jobs: args.jobs,
        ..MatrixRun::default()
    });
    if !matrix.failures().is_empty() {
        eprint!("{}", matrix.failures_report());
        std::process::exit(1);
    }
    matrix
}

/// Prints a standard experiment header.
pub fn banner(experiment: &str, paper_ref: &str) {
    println!("================================================================");
    println!("{experiment}");
    println!("paper reference: {paper_ref}");
    println!("================================================================");
}
