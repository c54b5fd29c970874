//! Flow-wide configuration.

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use vpga_pack::PackConfig;
use vpga_place::PlaceConfig;
use vpga_route::RouteConfig;

use crate::clock::CancelToken;

/// Which flow of §3.2 to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FlowVariant {
    /// ASIC-style flow with the component-cell library (no packing).
    A,
    /// Full VPGA flow with packing into the regular PLB array.
    B,
}

impl FlowVariant {
    /// The one-letter key used in job context strings and checkpoint file
    /// names (`"a"` / `"b"`).
    pub fn key(self) -> &'static str {
        match self {
            FlowVariant::A => "a",
            FlowVariant::B => "b",
        }
    }
}

impl fmt::Display for FlowVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FlowVariant::A => "flow a",
            FlowVariant::B => "flow b",
        })
    }
}

/// Where (if anywhere) to emit interchange artifacts after the back-end
/// timing stage. Emission is observational: it reads the finished stage
/// artifacts and never perturbs metrics or fingerprints (the
/// checkpoint-compatible fingerprint normalizes this struct away, like
/// `audit`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EmitConfig {
    /// Write one SDF 3.0 timing file per back-end job into this
    /// directory (`<design>-<arch>-<variant>.sdf`).
    pub sdf_dir: Option<PathBuf>,
    /// Write one `.vxdl` netlist/placement/routing file per back-end job
    /// into this directory (`<design>-<arch>-<variant>.vxdl`). Forces
    /// the router to retain per-net routes, as `--audit` does.
    pub xdl_dir: Option<PathBuf>,
}

impl EmitConfig {
    /// True when at least one artifact kind is requested.
    pub fn is_active(&self) -> bool {
        self.sdf_dir.is_some() || self.xdl_dir.is_some()
    }
}

/// Flow-wide settings.
#[derive(Clone, Debug)]
pub struct FlowConfig {
    /// Placement settings.
    pub place: PlaceConfig,
    /// Packing settings (flow b).
    pub pack: PackConfig,
    /// Routing settings.
    pub route: RouteConfig,
    /// Run the regularity-driven logic compaction step.
    pub compaction: bool,
    /// Feed STA cell criticalities into the packer's relocation cost
    /// (§3.1); disable for the A2 ablation.
    pub pack_criticality: bool,
    /// Run the inter-stage auditors of [`crate::audit`] after every stage.
    /// Defaults to on in debug builds and off in release (`--audit`
    /// enables it there). Auditing reads stage outputs only — metrics and
    /// fingerprints are identical with it on or off.
    pub audit: bool,
    /// Retry budget for the stochastic stages (place, pack, route): on a
    /// recoverable stage error, up to this many further attempts run with
    /// deterministically derived reseeds (see [`crate::derive_seed`]).
    /// Consumed retries are recorded in
    /// [`crate::StageStats::retries`], so a recovered run's fingerprint is
    /// reproducible but distinct from a first-try run's.
    pub retries: usize,
    /// Wall-clock budget per pipeline invocation (the shared front-end and
    /// each variant back-end each get the full budget). Checked by the
    /// stage runner before every stage and between retry attempts;
    /// exceeding it fails the job with
    /// [`crate::FlowError::DeadlineExceeded`] instead of running on.
    pub deadline: Option<Duration>,
    /// Interchange artifact emission (SDF / `.vxdl`) after the back-end
    /// timing stage. Observational only; excluded from the checkpoint
    /// config fingerprint.
    pub emit: EmitConfig,
    /// Cooperative cancellation flag, checked by the stage runner at
    /// every stage boundary alongside the deadline. Raising it fails the
    /// job with [`crate::FlowError::Cancelled`] before the next stage
    /// starts; the running stage always finishes (and checkpoints). The
    /// daemon's graceful drain clones one token into every in-flight
    /// job's config. Debug-renders as a constant, so it is invisible to
    /// the checkpoint config fingerprint.
    pub cancel: CancelToken,
}

impl Default for FlowConfig {
    fn default() -> FlowConfig {
        FlowConfig {
            place: PlaceConfig::default(),
            pack: PackConfig::default(),
            route: RouteConfig::default(),
            compaction: true,
            pack_criticality: true,
            audit: cfg!(debug_assertions),
            retries: 0,
            deadline: None,
            emit: EmitConfig::default(),
            cancel: CancelToken::new(),
        }
    }
}
