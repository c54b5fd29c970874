//! Experiment E2: regenerate **Table 2** (timing comparison — average
//! slack over the 10 most critical paths at the 0.5 ns cycle), plus the
//! §3.2 slack claims.
//!
//! ```sh
//! cargo run --release -p vpga-bench --bin table2 -- [tiny|small|medium|paper] [--jobs N] [--stats]
//! ```

fn main() {
    let args = vpga_bench::bench_args();
    vpga_bench::banner(
        "E2 / Table 2 — top-10 path-slack comparison at the 500 ps cycle",
        "Table 2; §3.2 timing claims (18 % mean slack gain, 40 % FPU, 68 % less a→b degradation)",
    );
    let t0 = std::time::Instant::now();
    let matrix = vpga_bench::paper_matrix(&args);
    println!("{}", matrix.table2());
    println!("Flow a → flow b slack degradation (ps):");
    for o in matrix.outcomes() {
        println!(
            "  {:16} {:9}  {:8.1} ps   (critical delay {:.0} → {:.0} ps)",
            o.design,
            o.arch,
            o.slack_degradation(),
            o.flow_a.critical_delay,
            o.flow_b.critical_delay
        );
    }
    println!();
    let claims = matrix.claims().expect("a healthy full matrix has claims");
    println!("{claims}");
    println!(
        "note: the generated benchmark circuits are deeper than the paper's\n\
         pipelined originals, so absolute slacks are far more negative than\n\
         the published ±0.x ns values; the architecture *comparisons* are\n\
         the reproduced quantity (see EXPERIMENTS.md)."
    );
    if args.stats {
        println!();
        print!("{}", matrix.stats_report());
    }
    println!("elapsed: {:.1?}", t0.elapsed());
}
