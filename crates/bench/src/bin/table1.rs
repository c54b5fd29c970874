//! Experiment E1: regenerate **Table 1** (die-area comparison) of the
//! paper, plus the §3.2 area claims derived from it.
//!
//! ```sh
//! cargo run --release -p vpga-bench --bin table1 -- [tiny|small|medium|paper] [--jobs N] [--stats]
//! ```

fn main() {
    let args = vpga_bench::bench_args();
    vpga_bench::banner(
        "E1 / Table 1 — die-area comparison (flows a and b, both PLBs)",
        "Table 1; §3.2 area claims (32 % datapath, 40 % FPU, Firewire inversion, 48 %/88 % overhead gaps)",
    );
    let t0 = std::time::Instant::now();
    let matrix = vpga_bench::paper_matrix(&args);
    println!("{}", matrix.table1());
    // Per-design overhead detail (the §3.2 packing-efficiency argument).
    println!("Flow a → flow b die-area overhead:");
    for o in matrix.outcomes() {
        println!(
            "  {:16} {:9}  {:+7.1} %  ({:.0} → {:.0} µm²)",
            o.design,
            o.arch,
            100.0 * o.area_overhead(),
            o.flow_a.die_area,
            o.flow_b.die_area
        );
    }
    println!();
    let claims = matrix.claims().expect("a healthy full matrix has claims");
    println!("{claims}");
    if args.stats {
        println!();
        print!("{}", matrix.stats_report());
    }
    println!("elapsed: {:.1?}", t0.elapsed());
}
