//! End-to-end and per-layer benchmark of the VPGA flow and its serve
//! daemon, driven through the `vpga` facade's public functions.
//!
//! ```text
//! vpga-perfbench --workload <matrix_medium|switch_congested|serve_warm>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The seed makes the inputs: batch seed 0 feeds the generator's Verilog
//! as written, any other seed shuffles its instance statements; on
//! `serve_warm` it draws the request stream. An untraced run measures for
//! about `--seconds` and reports the end-to-end metrics. A traced run
//! measures the same way with spans recorded, also checks the batch
//! implementations by co-simulation, writes its spans under `out/`, and
//! reports the per-layer metrics. Every metric is printed by name and
//! unit; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. A failed output check
//! exits with code 1.

mod batch;
mod input;
mod layers;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{calibrate, END_TO_END, PER_LAYER};

const WORKLOADS: [&str; 3] = ["matrix_medium", "switch_congested", "serve_warm"];

/// The command line, checked.
pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where traced runs leave their spans and emitted files.
    pub out_dir: PathBuf,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => {
                let name = WORKLOADS
                    .into_iter()
                    .find(|w| *w == value)
                    .ok_or_else(|| format!("unknown workload {value:?}; one of {WORKLOADS:?}"))?;
                workload.replace(name).is_some()
            }
            "--seed" => seed.replace(number(&flag, &value)?).is_some(),
            "--seconds" => seconds.replace(number(&flag, &value)?.max(1)).is_some(),
            "--trace" => match value.as_str() {
                "0" | "1" => trace.replace(value == "1").is_some(),
                _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
            _ => return Err(format!("unknown flag {flag:?}")),
        };
        if slot {
            return Err(format!("{flag} given twice"));
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(15),
        trace: trace.unwrap_or(false),
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    })
}

impl Args {
    /// Where a traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        self.out_dir
            .join(format!("trace-{}-{}.jsonl", self.workload, self.seed))
    }
}

fn number(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("vpga-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload={} seed={} seconds={} trace={} cores={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let calib_start = calibrate();
    let mut outcome = match args.workload {
        "matrix_medium" => batch::run(&batch::matrix_medium(), &args),
        "switch_congested" => batch::run(&batch::switch_congested(), &args),
        _ => serve::run(&args),
    };
    let calib_end = calibrate();
    println!("host.calib_ms start={calib_start:.3} end={calib_end:.3}");
    let catalogue = if args.trace {
        outcome.set("host.calib_ms", (calib_start + calib_end) / 2.0);
        PER_LAYER
    } else {
        END_TO_END
    };
    if !outcome.problems.is_empty() {
        for p in &outcome.problems {
            eprintln!("check failed: {p}");
        }
        return ExitCode::FAILURE;
    }
    if outcome.print(catalogue) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn flags_are_checked() {
        let a = parse("--workload serve_warm --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("serve_warm", 3, 10, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload serve_warm --bogus 1").is_err());
        assert!(parse("--workload serve_warm --seed").is_err());
        assert!(parse("--workload serve_warm --trace 2").is_err());
        assert!(parse("--workload serve_warm --seed 1 --seed 2").is_err());
        assert!(parse("--seed 1").is_err());
    }
}
