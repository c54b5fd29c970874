//! Kill-and-resume golden tests (only built with `--features fault-inject`).
//!
//! Each case interrupts the ALU/granular cell at one of the eight stage
//! points with an injected panic while a [`CheckpointStore`] is
//! persisting completed stages, then reruns the matrix resuming from the
//! same directory. The resumed matrix must be clean and fingerprint
//! byte-identical to the uninterrupted golden run — checkpoint restore
//! may never change a published number.
//!
//! This lives in its own test binary: the fault registry is
//! process-global, and sharing a process with the fault-injection matrix
//! suite would serialize unrelated tests on one lock.

#![cfg(feature = "fault-inject")]

use std::path::PathBuf;
use std::sync::Mutex;

use vpga::designs::DesignParams;
use vpga::flow::faultpoint::{self, FaultKind};
use vpga::flow::{CheckpointStore, Matrix, MatrixRun};

static LOCK: Mutex<()> = Mutex::new(());

/// The tiny-size matrix fingerprint locked down by the regression
/// harness (see `tests/paper_regression.rs`); an interrupted-then-resumed
/// run must land on exactly this value.
const TINY_MATRIX_FINGERPRINT: u64 = 0xd516_b48d_af41_3258;

fn locked() -> std::sync::MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    faultpoint::disarm_all();
    guard
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vpga-resume-{tag}-{}", std::process::id()))
}

/// The tiny matrix on `jobs` workers, checkpointed to `store`.
fn checkpointed(store: CheckpointStore, jobs: usize) -> Matrix {
    Matrix::run(&MatrixRun {
        params: DesignParams::tiny(),
        jobs,
        checkpoints: Some(store),
        ..MatrixRun::default()
    })
}

#[test]
fn interrupt_at_each_stage_then_resume_is_bit_identical() {
    let _guard = locked();
    // One fault point per stage of the flow: the four front-end stages
    // fire in the shared front context; pack/swap only exist in the
    // flow-b back-end, route/sta are exercised in flow a.
    let points = [
        ("synth", "alu/granular"),
        ("compact", "alu/granular"),
        ("place", "alu/granular"),
        ("physsynth", "alu/granular"),
        ("pack", "alu/granular/b"),
        ("swap", "alu/granular/b"),
        ("route", "alu/granular/a"),
        ("sta", "alu/granular/a"),
    ];
    for (point, ctx) in points {
        let dir = scratch_dir(point);
        let _ = std::fs::remove_dir_all(&dir);

        // Interrupted run: the injected panic kills the ALU/granular
        // cell at `point`; every stage that completed before it (and
        // every other cell) is already checkpointed on disk.
        faultpoint::disarm_all();
        faultpoint::arm(point, Some(ctx), FaultKind::Panic);
        let store = CheckpointStore::new(&dir, false).unwrap();
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let interrupted = checkpointed(store, 2);
        std::panic::set_hook(prev_hook);
        // A front-end fault fails both variants of the pair (the second
        // as Skipped); a back-end fault poisons only its own cell.
        let expected_failures = if ctx.ends_with("/a") || ctx.ends_with("/b") {
            1
        } else {
            2
        };
        assert_eq!(
            interrupted.failures().len(),
            expected_failures,
            "{point}: {}",
            interrupted.failures_report()
        );
        assert_eq!(interrupted.outcomes().len(), 7, "{point}");
        assert!(!faultpoint::any_armed(), "{point} fault should be one-shot");

        // Resumed run: completed stages restore from the checkpoints,
        // only the interrupted tail recomputes, and the matrix
        // fingerprint is byte-identical to the uninterrupted golden.
        let store = CheckpointStore::new(&dir, true).unwrap();
        let resumed = checkpointed(store, 2);
        assert!(
            resumed.failures().is_empty(),
            "{point}: {}",
            resumed.failures_report()
        );
        assert_eq!(
            resumed.fingerprint(),
            TINY_MATRIX_FINGERPRINT,
            "resume after {point} diverged from the golden run"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn resume_from_a_complete_checkpoint_recomputes_nothing_and_matches() {
    let _guard = locked();
    let dir = scratch_dir("complete");
    let _ = std::fs::remove_dir_all(&dir);

    // A fully healthy checkpointed run...
    let store = CheckpointStore::new(&dir, false).unwrap();
    let first = checkpointed(store, 2);
    assert!(first.failures().is_empty());
    assert_eq!(first.fingerprint(), TINY_MATRIX_FINGERPRINT);

    // ...resumes entirely from disk: every back-end result loads from
    // its checkpoint, and the fingerprint still matches the golden.
    let store = CheckpointStore::new(&dir, true).unwrap();
    let resumed = checkpointed(store, 1);
    assert!(resumed.failures().is_empty());
    assert_eq!(resumed.fingerprint(), TINY_MATRIX_FINGERPRINT);

    let _ = std::fs::remove_dir_all(&dir);
}
