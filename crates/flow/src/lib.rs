//! The end-to-end VPGA implementation flow of Figure 6, in both variants
//! the paper evaluates:
//!
//! * **Flow a** — "the standard cell ASIC flow using a library which
//!   comprises of cells that make up each PLB": synthesis/mapping, logic
//!   compaction, timing-driven placement, physical synthesis (buffer
//!   insertion), routing and post-layout STA — *without* the packing step.
//! * **Flow b** — the full VPGA flow: everything above plus legalization
//!   into the regular PLB array by recursive quadrisection (iterated with
//!   physical synthesis), with routing and timing re-run on the array.
//!
//! The pipeline is a typed stage graph: each of the eight stages is a
//! [`stages::Stage`] over a typed artifact store, and one generic stage
//! runner applies the deadline, audit, faultpoint, retry, and stats
//! middleware uniformly. [`run_design`] runs one design's graph and
//! returns a [`DesignOutcome`]; [`report`] assembles the paper's Table 1
//! (die area) and Table 2 (top-10 path slack) plus the derived §3.2
//! claims.
//!
//! The [`exec`] module is the one scheduler: it runs a single design
//! (overlapping the flow-a and flow-b back-ends) or many (design,
//! architecture, flow-variant) jobs as a dependency DAG with one task per
//! leg — a pair's shared front-end, or one variant's back-end — on a
//! bounded [`Executor`], deterministically: results are bit-identical to
//! a serial run (pinned by [`FlowResult::fingerprint`]). The serve
//! daemon's [`CachedFlow`] runs the same two leg functions. The [`checkpoint`]
//! module persists completed stages to disk so a killed matrix run can
//! resume bit-identically. The [`stats`] module carries per-stage
//! instrumentation — wall time, netlist sizes, optimizer cost movement,
//! and mover/acceptance counters — through every stage of the pipeline.
//!
//! The flow is fault-tolerant: worker panics are trapped at job
//! boundaries ([`FlowError::StagePanic`]), the [`audit`] module re-checks
//! inter-stage contracts, stochastic stages can retry with
//! deterministically derived reseeds ([`FlowConfig::retries`]), and the
//! [`faultpoint`] harness (behind the `fault-inject` feature) injects
//! deterministic failures to prove all of the above actually fires.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod cache;
pub mod checkpoint;
mod clock;
mod config;
mod emit;
mod error;
pub mod exec;
pub mod faultpoint;
mod pipeline;
pub mod report;
pub mod service;
pub mod stages;
pub mod stats;

pub use audit::AuditError;
pub use cache::{ArtifactCache, CacheOutcome, CacheStats};
pub use checkpoint::CheckpointStore;
pub use clock::{derive_seed, CancelToken};
pub use config::{EmitConfig, FlowConfig, FlowVariant};
pub use error::FlowError;
pub use exec::{Executor, FlowJob, FlowMatrix, JobResult};
pub use faultpoint::FaultKind;
pub use pipeline::{run_design, DesignOutcome, FlowResult};
pub use report::{CellFailure, Claims, Matrix, MatrixRun};
pub use service::{CachedFlow, JobEvent, JobOutcome, ServiceJob};
pub use stats::{StageId, StageStats};
