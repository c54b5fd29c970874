//! The metric catalogue, the statistics the benchmark reports, and the
//! result line.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::input::Rng;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("flow_wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("die_area_a_mm2", "mm2"),
    ("die_area_b_mm2", "mm2"),
    ("top10_neg_slack_a_ps", "ps"),
    ("top10_neg_slack_b_ps", "ps"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer a workload does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.calib_ms", "ms"),
    ("trace.flow_wall_s", "s"),
    ("setup.generate_s", "s"),
    ("setup.verilog_s", "s"),
    ("setup.arch_s", "s"),
    ("synth.busy_s", "s"),
    ("compact.busy_s", "s"),
    ("compact.cells_removed", "count"),
    ("place.busy_s", "s"),
    ("place.moves", "count"),
    ("place.accept_ratio", "ratio"),
    ("place.bbox_full_ratio", "ratio"),
    ("physsynth.busy_s", "s"),
    ("physsynth.moves", "count"),
    ("physsynth.accept_ratio", "ratio"),
    ("physsynth.cells_added", "count"),
    ("pack.busy_s", "s"),
    ("pack.relocations", "count"),
    ("swap.busy_s", "s"),
    ("swap.moves", "count"),
    ("swap.accept_ratio", "ratio"),
    ("route.busy_s", "s"),
    ("route.nets", "count"),
    ("route.reroutes", "count"),
    ("route.reroute_ratio", "ratio"),
    ("route.overflow_edges", "edges"),
    ("sta.busy_s", "s"),
    ("sta.full_passes", "count"),
    ("sta.nodes_touched", "count"),
    ("flow.self_s", "s"),
    ("flow.cell_max_s", "s"),
    ("service.hit_ms_p50", "ms"),
    ("cache.result_hit_ratio", "ratio"),
    ("cache.front_hit_ratio", "ratio"),
    ("cache.bytes", "bytes"),
    ("cache.misses", "count"),
    ("cache.waits", "count"),
    ("serve.request_ms_p50", "ms"),
    ("serve.request_ms_p99", "ms"),
    ("serve.self_ms_p50", "ms"),
    ("serve.rejected", "count"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: flow jobs (two per `run_design` call) or
    /// timed requests.
    pub attempted: u64,
    /// Operations that errored or were refused.
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Failed output checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Prints every metric of `catalogue` by name and unit, then the
    /// result line. A metric the workload did not set is a benchmark bug.
    pub fn print(mut self, catalogue: &[(&'static str, &'static str)]) -> bool {
        let mut fields = Vec::new();
        for &(name, unit) in catalogue {
            let value = self
                .metrics
                .get(name)
                .copied()
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            if !value.is_finite() {
                self.problems.push(format!("{name} is not finite: {value}"));
                continue;
            }
            println!("{name:<26} {value:>16.6} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        for p in &self.problems {
            eprintln!("check failed: {p}");
        }
        let correct = self.problems.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        );
        correct
    }
}

/// Every digit of `v`: Rust's shortest round-trip form, which is valid
/// JSON for any finite value.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// The median (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Percentile, `p` in `[0, 100]`, interpolated linearly between the two
/// nearest ranks. On a few samples of very different sizes, such as one
/// pass's cell walls, a nearest-rank percentile jumps between neighbouring
/// cells when noise reorders them; the interpolated one moves smoothly.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let h = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    v[lo] + (h - lo as f64) * (v[hi] - v[lo])
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-speed diagnostic: the median of five timings of a fixed
/// benchmark-owned kernel (dependent loads and stores over a 256 KiB
/// table), in ms. It runs no program code, so its drift between runs is
/// the host's, not a change's.
pub fn calibrate() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut rng = Rng::new(0x5eed);
            let mut table: Vec<u64> = (0..1 << 15).map(|_| rng.next_u64()).collect();
            let mask = table.len() - 1;
            let mut x = 0u64;
            for _ in 0..1 << 21 {
                x = x.wrapping_add(table[x as usize & mask]).rotate_left(7);
                table[(x >> 3) as usize & mask] ^= x;
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 99.0), 100.0);
        assert_eq!(percentile(&[10.0, 20.0], 50.0), 15.0);
        assert_eq!(percentile(&[10.0, 20.0], 90.0), 19.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn numbers_are_json() {
        assert_eq!(json_number(751.0), "751.0");
        assert_eq!(json_number(0.125), "0.125");
        assert_eq!(json_number(1e-7), "0.0000001");
    }

    /// The catalogue here and the benchmark manifest at the repository
    /// root must name the same metrics with the same units.
    #[test]
    fn catalogue_matches_the_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        let declared = manifest.matches("\"unit\"").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "manifest lacks {entry}");
        }
    }
}
