//! Spans for the traced run: kept in memory, written as JSON lines when
//! the run ends.
//!
//! The benchmark records a span around each public call it makes into the
//! program. Stage spans are not measured here: they are the `StageStats`
//! records `run_design` returns, each the wall of one call into a stage's
//! crate by the flow's stage runner, laid out in plan order inside their
//! cell's span. The program itself is not instrumented.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use vpga::flow::{DesignOutcome, StageStats};

struct Span {
    id: u64,
    parent: u64,
    name: String,
    job: String,
    start: f64,
    end: f64,
    counts: Vec<(&'static str, u64)>,
}

/// An in-memory span recorder; a disabled one records nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Seconds since the run began; span times use this clock.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Records a finished span and returns its id (0 when disabled;
    /// 0 is also the parent id of a root span).
    pub fn span(
        &mut self,
        parent: u64,
        name: &str,
        job: &str,
        start: f64,
        end: f64,
        counts: Vec<(&'static str, u64)>,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_owned(),
            job: job.to_owned(),
            start,
            end,
            counts,
        });
        id
    }

    /// Opens a span that ends at the matching [`Tracer::close`]; use it
    /// for a span whose children are recorded while it runs.
    pub fn open(&mut self, parent: u64, name: &str, job: &str) -> u64 {
        let now = self.now();
        self.span(parent, name, job, now, now, vec![])
    }

    pub fn close(&mut self, id: u64) {
        let now = self.now();
        if let Some(span) = self.spans.iter_mut().find(|s| s.id == id) {
            span.end = now;
        }
    }

    /// Lays the stage records of one `run_design` call out in plan order
    /// from `start`: the shared front-end, then flow a, then flow b.
    pub fn stages(&mut self, parent: u64, job: &str, start: f64, outcome: &DesignOutcome) {
        let mut at = start;
        let plan = [
            ("", &outcome.front_stages),
            ("/a", &outcome.flow_a.stages),
            ("/b", &outcome.flow_b.stages),
        ];
        for (suffix, stages) in plan {
            for s in stages {
                let end = at + s.wall.as_secs_f64();
                self.span(
                    parent,
                    s.stage.name(),
                    &format!("{job}{suffix}"),
                    at,
                    end,
                    stage_counts(s),
                );
                at = end;
            }
        }
    }

    /// Closes the root span and writes the trace to `path`.
    pub fn save(mut self, root: u64, path: &Path) -> Result<(), String> {
        self.close(root);
        self.write(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("trace: {}", path.display());
        Ok(())
    }

    /// Writes every span as one JSON object per line.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"job\": \"{}\", \
                 \"start_s\": {:.9}, \"end_s\": {:.9}, \"counts\": {{{}}}}}",
                s.id,
                s.parent,
                escape(&s.name),
                escape(&s.job),
                s.start,
                s.end,
                counts.join(", ")
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

fn stage_counts(s: &StageStats) -> Vec<(&'static str, u64)> {
    let mut c = vec![("cells", s.cells as u64), ("nets", s.nets as u64)];
    let optional = [
        ("moves", s.moves_attempted),
        ("accepted", s.moves_accepted),
        ("bbox_full", s.bbox_full),
        ("reroutes", s.nets_rerouted),
        ("routed_nets", s.nets_total),
        ("sta_full", s.sta_full),
        ("sta_nodes", s.sta_nodes_touched),
    ];
    c.extend(optional.iter().filter_map(|&(k, v)| Some((k, v?))));
    c
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}
