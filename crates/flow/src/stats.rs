//! Per-stage instrumentation for the implementation flow.
//!
//! Every pipeline stage (synthesis, compaction, placement, physical
//! synthesis, packing, PLB-swap optimization, routing, STA) records a
//! [`StageStats`]: wall time, netlist size at the end of the stage, the
//! optimizer's cost before/after, and mover/acceptance counters where the
//! stage is an annealer (placement, swap) or a relocator (quadrisection
//! packing). Wall time is the only non-deterministic field; everything
//! else is bit-identical across runs and across worker counts, which the
//! determinism tests pin via [`StageStats::fingerprint`].

use std::cell::Cell;
use std::fmt;
use std::time::Duration;

thread_local! {
    /// The stage the current worker thread is executing, for panic
    /// attribution: the pipeline notes each stage as it starts, and the
    /// leg guard reads the note when `catch_unwind` traps a leg's panic.
    static CURRENT_STAGE: Cell<Option<StageId>> = const { Cell::new(None) };
}

/// Records `stage` as the one the calling thread is executing.
pub(crate) fn note_stage(stage: StageId) {
    CURRENT_STAGE.with(|s| s.set(Some(stage)));
}

/// Clears the calling thread's stage note (job boundary).
pub(crate) fn clear_stage() {
    CURRENT_STAGE.with(|s| s.set(None));
}

/// The stage the calling thread last noted, if any.
pub(crate) fn current_stage() -> Option<StageId> {
    CURRENT_STAGE.with(Cell::get)
}

/// A stage of the Figure 6 flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum StageId {
    /// Technology mapping onto the component-cell library.
    Synth,
    /// Regularity-driven logic compaction.
    Compact,
    /// Timing-driven annealing placement (including the criticality
    /// refinement).
    Place,
    /// Physical synthesis: buffer insertion plus legalizing refinement.
    PhysSynth,
    /// Recursive-quadrisection packing into the PLB array (flow b).
    Pack,
    /// Whole-PLB swap optimization after packing (flow b).
    Swap,
    /// Global routing.
    Route,
    /// Static timing analysis (plus the power estimate).
    Timing,
}

impl StageId {
    /// Every stage, in pipeline order.
    pub const ALL: [StageId; 8] = [
        StageId::Synth,
        StageId::Compact,
        StageId::Place,
        StageId::PhysSynth,
        StageId::Pack,
        StageId::Swap,
        StageId::Route,
        StageId::Timing,
    ];

    /// The stage's display name.
    pub fn name(self) -> &'static str {
        match self {
            StageId::Synth => "synth",
            StageId::Compact => "compact",
            StageId::Place => "place",
            StageId::PhysSynth => "physsynth",
            StageId::Pack => "pack",
            StageId::Swap => "swap",
            StageId::Route => "route",
            StageId::Timing => "sta",
        }
    }
}

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One stage's record: timing, sizes, cost movement, and mover counters.
#[derive(Clone, Debug, PartialEq)]
pub struct StageStats {
    /// Which stage this describes.
    pub stage: StageId,
    /// Wall-clock time spent in the stage (non-deterministic).
    pub wall: Duration,
    /// Library-cell count at the end of the stage.
    pub cells: usize,
    /// Net count at the end of the stage.
    pub nets: usize,
    /// Optimizer cost entering the stage, if the stage optimizes one.
    pub cost_before: Option<f64>,
    /// Optimizer cost leaving the stage.
    pub cost_after: Option<f64>,
    /// Move/relocation attempts, for annealing or relocating stages.
    pub moves_attempted: Option<u64>,
    /// Accepted moves/relocations.
    pub moves_accepted: Option<u64>,
    /// O(1) incremental bounding-box updates (annealing stages).
    pub bbox_incremental: Option<u64>,
    /// Full bounding-box rescans forced by a boundary pin moving inward.
    pub bbox_full: Option<u64>,
    /// Net routings summed over all negotiation iterations (routing
    /// stages); full rip-up pays `nets × iterations`, dirty-net far less.
    pub nets_rerouted: Option<u64>,
    /// Routable nets the stage handled (routing stages).
    pub nets_total: Option<u64>,
    /// Recovery retries the stage consumed before succeeding (stochastic
    /// stages under `--retries`; recorded so reseeded runs fingerprint
    /// differently from first-try runs).
    pub retries: Option<u32>,
    /// Full (from-scratch) STA passes the stage ran.
    pub sta_full: Option<u64>,
    /// Event-driven incremental STA updates/queries the stage ran.
    pub sta_incremental: Option<u64>,
    /// Timing-graph nodes the incremental updates recomputed (full passes
    /// do not count here).
    pub sta_nodes_touched: Option<u64>,
    /// Stage results served from the shared artifact cache instead of
    /// recomputed (daemon mode; unset in batch runs).
    pub cache_hits: Option<u64>,
    /// Stage results the cache had to compute (or recompute after an
    /// eviction).
    pub cache_misses: Option<u64>,
    /// Cache entries evicted under byte pressure while this job
    /// published its artifacts.
    pub cache_evicted: Option<u64>,
}

impl StageStats {
    /// A record with sizes only; costs and counters unset.
    pub fn new(stage: StageId, wall: Duration, cells: usize, nets: usize) -> StageStats {
        StageStats {
            stage,
            wall,
            cells,
            nets,
            cost_before: None,
            cost_after: None,
            moves_attempted: None,
            moves_accepted: None,
            bbox_incremental: None,
            bbox_full: None,
            nets_rerouted: None,
            nets_total: None,
            retries: None,
            sta_full: None,
            sta_incremental: None,
            sta_nodes_touched: None,
            cache_hits: None,
            cache_misses: None,
            cache_evicted: None,
        }
    }

    /// Attaches before/after optimizer cost.
    #[must_use]
    pub fn with_cost(mut self, before: f64, after: f64) -> StageStats {
        self.cost_before = Some(before);
        self.cost_after = Some(after);
        self
    }

    /// Attaches mover counters.
    #[must_use]
    pub fn with_moves(mut self, attempted: u64, accepted: u64) -> StageStats {
        self.moves_attempted = Some(attempted);
        self.moves_accepted = Some(accepted);
        self
    }

    /// Attaches the incremental-vs-full bounding-box update counters of an
    /// annealing stage.
    #[must_use]
    pub fn with_bbox_updates(mut self, incremental: u64, full: u64) -> StageStats {
        self.bbox_incremental = Some(incremental);
        self.bbox_full = Some(full);
        self
    }

    /// Attaches the re-route work counters of a routing stage.
    #[must_use]
    pub fn with_reroutes(mut self, rerouted: u64, total: u64) -> StageStats {
        self.nets_rerouted = Some(rerouted);
        self.nets_total = Some(total);
        self
    }

    /// Attaches the recovery-retry count (only recorded when non-zero, so
    /// untouched runs keep their fingerprints).
    #[must_use]
    pub fn with_retries(mut self, retries: u32) -> StageStats {
        if retries > 0 {
            self.retries = Some(retries);
        }
        self
    }

    /// Attaches the STA work counters of a timing-consuming stage.
    #[must_use]
    pub fn with_sta(mut self, full: u64, incremental: u64, nodes_touched: u64) -> StageStats {
        self.sta_full = Some(full);
        self.sta_incremental = Some(incremental);
        self.sta_nodes_touched = Some(nodes_touched);
        self
    }

    /// Attaches the shared-artifact-cache counters of a daemon-served
    /// stage (only recorded when the cache was actually consulted, so
    /// batch runs keep their records unchanged). Excluded from
    /// [`StageStats::fold_fingerprint`]: a cache hit must fingerprint
    /// identically to the recompute it replaced.
    #[must_use]
    pub fn with_cache(mut self, hits: u64, misses: u64, evicted: u64) -> StageStats {
        if hits + misses + evicted > 0 {
            self.cache_hits = Some(hits);
            self.cache_misses = Some(misses);
            self.cache_evicted = Some(evicted);
        }
        self
    }

    /// Folds every deterministic field (everything but `wall`) into `h`
    /// with an FNV-1a step, so result fingerprints also pin the
    /// instrumentation.
    pub fn fold_fingerprint(&self, h: &mut u64) {
        let mut mix = |v: u64| {
            *h = (*h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(self.stage.name().len() as u64);
        for b in self.stage.name().bytes() {
            mix(u64::from(b));
        }
        mix(self.cells as u64);
        mix(self.nets as u64);
        mix(self.cost_before.map_or(0, f64::to_bits));
        mix(self.cost_after.map_or(0, f64::to_bits));
        mix(self.moves_attempted.unwrap_or(0));
        mix(self.moves_accepted.unwrap_or(0));
        mix(self.bbox_incremental.unwrap_or(0));
        mix(self.bbox_full.unwrap_or(0));
        mix(self.nets_rerouted.unwrap_or(0));
        mix(self.nets_total.unwrap_or(0));
        mix(u64::from(self.retries.unwrap_or(0)));
        // The STA work counters are deliberately NOT folded in: they are
        // implementation metrics of the timer (how the numbers were
        // computed, not which numbers), and every timing result they could
        // influence is already pinned by the cost/slack fields above. This
        // keeps fingerprints stable across timer-strategy changes.
        //
        // The cache counters (cache_hits/cache_misses/cache_evicted) stay
        // out too: a daemon job served from the artifact cache must
        // fingerprint bit-identically to the batch run that computed the
        // entry, whatever mix of hits, misses, and evictions it saw.
    }
}

impl fmt::Display for StageStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:10} {:>9.1?} ms  {:>6} cells {:>6} nets",
            self.stage.name(),
            self.wall.as_secs_f64() * 1e3,
            self.cells,
            self.nets
        )?;
        if let (Some(b), Some(a)) = (self.cost_before, self.cost_after) {
            write!(f, "  cost {b:>12.1} → {a:>12.1}")?;
        }
        if let (Some(att), Some(acc)) = (self.moves_attempted, self.moves_accepted) {
            write!(f, "  moves {acc}/{att}")?;
        }
        if let (Some(incr), Some(full)) = (self.bbox_incremental, self.bbox_full) {
            write!(f, "  bbox {incr}i/{full}f")?;
        }
        if let (Some(rr), Some(total)) = (self.nets_rerouted, self.nets_total) {
            write!(f, "  reroutes {rr}/{total} nets")?;
        }
        if let (Some(full), Some(incr)) = (self.sta_full, self.sta_incremental) {
            write!(f, "  sta {full}full/{incr}incr")?;
            if let Some(n) = self.sta_nodes_touched {
                write!(f, "/{n}n")?;
            }
        }
        if let (Some(h), Some(m), Some(e)) =
            (self.cache_hits, self.cache_misses, self.cache_evicted)
        {
            write!(f, "  cache {h}h/{m}m/{e}e")?;
        }
        if let Some(r) = self.retries {
            write!(f, "  retries {r}")?;
        }
        Ok(())
    }
}

/// Renders a stage list as an indented block.
pub fn render_stages(stages: &[StageStats], indent: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut total = Duration::ZERO;
    for s in stages {
        let _ = writeln!(out, "{indent}{s}");
        total += s.wall;
    }
    let _ = writeln!(
        out,
        "{indent}{:10} {:>9.1} ms",
        "total",
        total.as_secs_f64() * 1e3
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_ignores_wall_time() {
        let a = StageStats::new(StageId::Place, Duration::from_millis(5), 10, 20)
            .with_cost(100.0, 50.0)
            .with_moves(1000, 440);
        let b = StageStats {
            wall: Duration::from_millis(999),
            ..a.clone()
        };
        let (mut ha, mut hb) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
        a.fold_fingerprint(&mut ha);
        b.fold_fingerprint(&mut hb);
        assert_eq!(ha, hb);
    }

    #[test]
    fn fingerprint_sees_counters() {
        let a = StageStats::new(StageId::Pack, Duration::ZERO, 10, 20).with_moves(5, 3);
        let b = StageStats::new(StageId::Pack, Duration::ZERO, 10, 20).with_moves(5, 4);
        let (mut ha, mut hb) = (0u64, 0u64);
        a.fold_fingerprint(&mut ha);
        b.fold_fingerprint(&mut hb);
        assert_ne!(ha, hb);
    }

    #[test]
    fn fingerprint_sees_incremental_counters() {
        let base = StageStats::new(StageId::Place, Duration::ZERO, 10, 20);
        let a = base.clone().with_bbox_updates(100, 5);
        let b = base.clone().with_bbox_updates(100, 6);
        let (mut ha, mut hb) = (0u64, 0u64);
        a.fold_fingerprint(&mut ha);
        b.fold_fingerprint(&mut hb);
        assert_ne!(ha, hb);
        let r = StageStats::new(StageId::Route, Duration::ZERO, 10, 20);
        let c = r.clone().with_reroutes(36, 30);
        let d = r.clone().with_reroutes(42, 30);
        let (mut hc, mut hd) = (0u64, 0u64);
        c.fold_fingerprint(&mut hc);
        d.fold_fingerprint(&mut hd);
        assert_ne!(hc, hd);
        // Display carries the counters for `--stats`.
        assert!(a.to_string().contains("bbox 100i/5f"));
        assert!(c.to_string().contains("reroutes 36/30 nets"));
    }

    #[test]
    fn sta_counters_show_but_do_not_refingerprint() {
        let base = StageStats::new(StageId::PhysSynth, Duration::ZERO, 10, 20).with_cost(9.0, 7.0);
        let with = base.clone().with_sta(1, 2, 345);
        // Visible in `--stats` output ...
        assert!(with.to_string().contains("sta 1full/2incr/345n"));
        // ... but invisible to the fingerprint, so timer-strategy changes
        // keep the PR 3 goldens bit-identical.
        let (mut ha, mut hb) = (0u64, 0u64);
        base.fold_fingerprint(&mut ha);
        with.fold_fingerprint(&mut hb);
        assert_eq!(ha, hb);
    }

    #[test]
    fn cache_counters_show_but_do_not_refingerprint() {
        let base = StageStats::new(StageId::Synth, Duration::ZERO, 10, 20).with_cost(9.0, 7.0);
        let served = base.clone().with_cache(4, 1, 2);
        assert!(served.to_string().contains("cache 4h/1m/2e"));
        // A cache-served job must fingerprint bit-identically to the
        // batch run that computed the entry.
        let (mut ha, mut hb) = (0u64, 0u64);
        base.fold_fingerprint(&mut ha);
        served.fold_fingerprint(&mut hb);
        assert_eq!(ha, hb);
        // Zero-count attachment leaves the record untouched (batch runs).
        assert_eq!(base.clone().with_cache(0, 0, 0), base);
    }

    #[test]
    fn render_includes_every_stage_and_total() {
        let stages = vec![
            StageStats::new(StageId::Synth, Duration::from_millis(1), 5, 6),
            StageStats::new(StageId::Route, Duration::from_millis(2), 5, 6),
        ];
        let s = render_stages(&stages, "  ");
        assert!(s.contains("synth"));
        assert!(s.contains("route"));
        assert!(s.contains("total"));
    }
}
