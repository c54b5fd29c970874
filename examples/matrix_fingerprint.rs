//! Prints the deterministic matrix fingerprints at tiny and small sizes —
//! the baseline the checkpoint/resume goldens are pinned against.

use vpga::designs::DesignParams;
use vpga::flow::{Matrix, MatrixRun};

fn main() {
    for (name, params) in [
        ("tiny", DesignParams::tiny()),
        ("small", DesignParams::small()),
    ] {
        let matrix = Matrix::run(&MatrixRun {
            params,
            jobs: 0,
            ..MatrixRun::default()
        });
        assert!(matrix.failures().is_empty(), "{}", matrix.failures_report());
        println!("{name}: {:#018x}", matrix.fingerprint());
        for o in matrix.outcomes() {
            println!(
                "  {}/{}: {:#018x} (a {:#018x}, b {:#018x})",
                o.design,
                o.arch,
                o.fingerprint(),
                o.flow_a.fingerprint(),
                o.flow_b.fingerprint()
            );
        }
    }
}
