//! Deterministic fault injection for the flow's recovery paths.
//!
//! Every pipeline stage calls [`fire`] at a named fault point before doing
//! real work. Without the `fault-inject` feature the call compiles to a
//! no-op `Ok(())`; with the feature, tests (or the CLI via the
//! `VPGA_FAULT` environment variable) can `arm` a point to force a
//! panic, a stage-representative typed error, or a deadline timeout —
//! proving the panic-isolation, retry, and report paths actually fire.
//!
//! Point names are the stage names of [`crate::StageId`] (`"synth"`,
//! `"compact"`, `"place"`, `"physsynth"`, `"pack"`, `"swap"`, `"route"`,
//! `"sta"`). An armed fault can carry a context filter — a substring
//! matched against the job context string `"design/arch/variant"` — so a
//! single matrix cell can be poisoned while every other cell runs clean.
//! Faults are one-shot: a point disarms itself when it fires, so a retry
//! (or a rerun) of the same stage succeeds.
//!
//! Beyond the stage points, the robustness surfaces added for the serve
//! daemon carry their own points: `"checkpoint_rename"` in the kill
//! window between a checkpoint's durable temp write and its rename,
//! `"cache_read"` / `"cache_write"` / `"cache_evict"` around the shared
//! artifact cache of [`crate::cache`], and `"serve_accept"` /
//! `"serve_drain"` in the daemon's accept loop and drain path (fired by
//! the serve crate through the public [`fire`]).

#![allow(dead_code)]

use crate::FlowError;

/// What an armed fault point does when reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the stage (exercises `catch_unwind` isolation).
    Panic,
    /// Return the stage's representative typed error (exercises the error
    /// taxonomy and retry paths).
    Error,
    /// Report the job's deadline as exceeded (exercises the budget path).
    Timeout,
}

#[cfg(feature = "fault-inject")]
mod armed {
    use super::FaultKind;
    use std::sync::Mutex;

    #[derive(Clone, Debug)]
    pub(super) struct ArmedFault {
        pub(super) point: String,
        pub(super) ctx_filter: Option<String>,
        pub(super) kind: FaultKind,
    }

    pub(super) static REGISTRY: Mutex<Vec<ArmedFault>> = Mutex::new(Vec::new());
}

/// Arms fault `point` with `kind`. `ctx_filter` restricts the fault to
/// job contexts containing the given substring (e.g. `"alu/granular"`);
/// `None` fires on the first visit to the point from any job. One-shot:
/// the fault disarms itself when it fires.
#[cfg(feature = "fault-inject")]
pub fn arm(point: &str, ctx_filter: Option<&str>, kind: FaultKind) {
    let mut registry = armed::REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    registry.push(armed::ArmedFault {
        point: point.to_owned(),
        ctx_filter: ctx_filter.map(str::to_owned),
        kind,
    });
}

/// Disarms every armed fault (test teardown).
#[cfg(feature = "fault-inject")]
pub fn disarm_all() {
    armed::REGISTRY
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
}

/// True if any fault is currently armed.
#[cfg(feature = "fault-inject")]
pub fn any_armed() -> bool {
    !armed::REGISTRY
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .is_empty()
}

#[cfg(feature = "fault-inject")]
fn take(point: &str, ctx: &str) -> Option<FaultKind> {
    let mut registry = armed::REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let hit = registry.iter().position(|f| {
        f.point == point
            && f.ctx_filter
                .as_deref()
                .is_none_or(|filter| ctx.contains(filter))
    })?;
    Some(registry.swap_remove(hit).kind)
}

/// The representative typed error each stage's `Error` fault produces —
/// the same variant the stage's real failure path uses, so tests exercise
/// exactly the taxonomy the report surfaces.
#[cfg(feature = "fault-inject")]
fn representative_error(point: &str, ctx: &str) -> FlowError {
    use crate::StageId;
    match point {
        "synth" => FlowError::Synth(vpga_synth::SynthError::Unmappable {
            function: vpga_logic::Tt3::MAJ3,
            leaves: 3,
        }),
        "compact" => FlowError::Netlist(vpga_netlist::NetlistError::UnknownLibCell(
            "injected".into(),
        )),
        "place" | "physsynth" => {
            FlowError::Place(vpga_place::PlaceError::GridTooSmall { cells: 1, sites: 0 })
        }
        "pack" | "swap" => FlowError::Pack(vpga_pack::PackError::CapacityExceeded {
            class: vpga_netlist::CellClass::Lut3,
            demand: 1,
            available: 0,
        }),
        "route" => FlowError::Route(vpga_route::RouteError::Unroutable {
            net: vpga_netlist::NetId::from_index(0),
            sink: (0, 0),
        }),
        "sta" => FlowError::Timing(vpga_timing::TimingError::Cyclic(
            vpga_netlist::NetlistError::CombinationalCycle(vpga_netlist::CellId::from_index(0)),
        )),
        // The artifact/service surfaces all fail as unreadable-artifact
        // errors: fail closed, recompute, never trust the bytes.
        "checkpoint_rename" | "cache_read" | "cache_write" | "cache_evict" | "serve_accept"
        | "serve_drain" => FlowError::Checkpoint {
            path: ctx.into(),
            offset: 0,
            detail: format!("injected {point} fault"),
        },
        other => FlowError::StagePanic {
            stage: StageId::ALL.iter().copied().find(|s| s.name() == other),
            design: ctx.to_owned(),
            payload: format!("unknown fault point {other:?}"),
        },
    }
}

/// A fault point. No-op unless the `fault-inject` feature is on and a
/// matching fault is armed; then it panics, returns the point's
/// representative error, or reports a deadline timeout — once. Public so
/// the serve daemon can cover its own surfaces (accept, drain) with the
/// same harness.
///
/// # Errors
///
/// The armed fault's error, when one fires.
#[cfg(feature = "fault-inject")]
pub fn fire(point: &str, ctx: &str) -> Result<(), FlowError> {
    use crate::StageId;
    match take(point, ctx) {
        None => Ok(()),
        Some(FaultKind::Panic) => panic!("injected fault at {point} ({ctx})"),
        Some(FaultKind::Error) => Err(representative_error(point, ctx)),
        Some(FaultKind::Timeout) => Err(FlowError::DeadlineExceeded {
            stage: StageId::ALL
                .iter()
                .copied()
                .find(|s| s.name() == point)
                .unwrap_or(StageId::Synth),
            design: ctx.to_owned(),
            elapsed: std::time::Duration::ZERO,
            budget: std::time::Duration::ZERO,
        }),
    }
}

/// A fault point (no-op build: the `fault-inject` feature is off).
///
/// # Errors
///
/// Never errors in this configuration.
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn fire(_point: &str, _ctx: &str) -> Result<(), FlowError> {
    Ok(())
}

/// Arms faults from a `VPGA_FAULT`-style specification:
/// `point[@ctx]=kind[,point[@ctx]=kind...]` with kinds `panic`, `error`,
/// `timeout`. Unknown kinds are reported, not ignored.
///
/// # Errors
///
/// A human-readable message naming the first malformed entry.
#[cfg(feature = "fault-inject")]
pub fn arm_from_spec(spec: &str) -> Result<(), String> {
    for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
        let entry = entry.trim();
        let (target, kind) = entry
            .split_once('=')
            .ok_or_else(|| format!("fault entry {entry:?} lacks '=kind'"))?;
        let kind = match kind.trim() {
            "panic" => FaultKind::Panic,
            "error" => FaultKind::Error,
            "timeout" => FaultKind::Timeout,
            other => return Err(format!("unknown fault kind {other:?}")),
        };
        let (point, ctx) = match target.split_once('@') {
            Some((p, c)) => (p.trim(), Some(c.trim())),
            None => (target.trim(), None),
        };
        arm(point, ctx, kind);
    }
    Ok(())
}
