//! Fault-injection matrix tests (only built with `--features fault-inject`).
//!
//! Each test arms named fault points in the `flow::faultpoint` harness and
//! checks that the flow's recovery machinery does exactly what the design
//! promises: typed errors surface as the right [`FlowError`] variant with
//! stage attribution, injected panics are trapped at the job boundary and
//! poison only their own matrix cell, retries recover with derived
//! reseeds, and a clean rerun is bit-identical to an uninjected golden
//! run.
//!
//! The fault registry is process-global, so every test serializes on
//! [`LOCK`] and starts from a disarmed registry.

#![cfg(feature = "fault-inject")]

use std::sync::Mutex;

use vpga::core::PlbArchitecture;
use vpga::designs::{DesignParams, NamedDesign};
use vpga::flow::faultpoint::{self, FaultKind};
use vpga::flow::{
    run_design, CachedFlow, CheckpointStore, Executor, FlowConfig, FlowError, FlowVariant,
    JobEvent, Matrix, MatrixRun, ServiceJob, StageId,
};
use vpga::serve::{get, spawn, DaemonConfig};

static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    faultpoint::disarm_all();
    guard
}

fn tiny_alu() -> vpga::netlist::Netlist {
    NamedDesign::Alu.generate(&DesignParams::tiny())
}

#[test]
fn every_armed_error_point_surfaces_its_stage_taxonomy() {
    let _guard = locked();
    let design = tiny_alu();
    let arch = PlbArchitecture::granular();
    let config = FlowConfig::default();
    let expectations = [
        ("synth", StageId::Synth),
        ("compact", StageId::Compact),
        ("place", StageId::Place),
        ("physsynth", StageId::PhysSynth),
        ("pack", StageId::Pack),
        ("swap", StageId::Swap),
        ("route", StageId::Route),
        ("sta", StageId::Timing),
    ];
    for (point, stage) in expectations {
        faultpoint::disarm_all();
        faultpoint::arm(point, None, FaultKind::Error);
        let err = run_design(&design, &arch, &config)
            .err()
            .unwrap_or_else(|| panic!("armed {point} fault did not fail the flow"));
        assert_eq!(err.stage(), Some(stage), "{point}: {err}");
        let root = err.root();
        let variant_ok = match stage {
            StageId::Synth => matches!(root, FlowError::Synth(_)),
            StageId::Compact => matches!(root, FlowError::Netlist(_)),
            StageId::Place | StageId::PhysSynth => matches!(root, FlowError::Place(_)),
            StageId::Pack | StageId::Swap => matches!(root, FlowError::Pack(_)),
            StageId::Route => matches!(root, FlowError::Route(_)),
            StageId::Timing => matches!(root, FlowError::Timing(_)),
            _ => false,
        };
        assert!(variant_ok, "{point} produced the wrong variant: {root:?}");
        assert!(!faultpoint::any_armed(), "{point} fault should be one-shot");
    }
}

#[test]
fn timeout_fault_reports_deadline_exceeded() {
    let _guard = locked();
    faultpoint::arm("route", None, FaultKind::Timeout);
    let err = run_design(
        &tiny_alu(),
        &PlbArchitecture::granular(),
        &FlowConfig::default(),
    )
    .expect_err("timeout fault must fail the flow");
    assert!(
        matches!(
            err,
            FlowError::DeadlineExceeded {
                stage: StageId::Route,
                ..
            }
        ),
        "{err:?}"
    );
}

#[test]
fn mid_matrix_deadline_poisons_one_cell_and_reports_partial_results() {
    let _guard = locked();
    // A deadline blown in the middle of the matrix (route of the FPU /
    // granular / flow-a cell) must surface as exactly one
    // DeadlineExceeded cell failure through `Matrix::run`, while the
    // other seven pairs complete and the tables still render.
    faultpoint::arm("route", Some("fpu/granular/a"), FaultKind::Timeout);
    let matrix = Matrix::run(&MatrixRun {
        params: DesignParams::tiny(),
        jobs: 2,
        ..MatrixRun::default()
    });
    assert_eq!(matrix.outcomes().len(), 7, "{}", matrix.failures_report());
    assert_eq!(matrix.failures().len(), 1, "{}", matrix.failures_report());
    let failure = &matrix.failures()[0];
    assert_eq!(failure.design, "FPU");
    assert_eq!(failure.arch, "granular");
    assert_eq!(failure.variant, FlowVariant::A);
    assert!(failure.error.contains("deadline"), "{failure}");
    // Partial results still report: both tables render without the
    // poisoned pair, and the aggregate claims are withheld, not wrong.
    assert!(matrix.table1().contains(NamedDesign::Alu.name()));
    assert!(!matrix.failures_report().is_empty());
    assert!(matrix.claims().is_none());
    assert!(!faultpoint::any_armed(), "timeout fault should be one-shot");
}

#[test]
fn retries_recover_from_one_shot_stage_errors() {
    let _guard = locked();
    let design = tiny_alu();
    let arch = PlbArchitecture::granular();
    let config = FlowConfig {
        retries: 2,
        ..FlowConfig::default()
    };
    // The injected error consumes the first attempt; the reseeded retry
    // succeeds and the consumed retry is recorded in the stage stats.
    for (point, stage) in [("place", StageId::Place), ("pack", StageId::Pack)] {
        faultpoint::disarm_all();
        faultpoint::arm(point, None, FaultKind::Error);
        let out = run_design(&design, &arch, &config)
            .unwrap_or_else(|e| panic!("retry did not recover from {point}: {e}"));
        let stages: Vec<_> = out
            .front_stages
            .iter()
            .chain(&out.flow_a.stages)
            .chain(&out.flow_b.stages)
            .collect();
        let retried = stages
            .iter()
            .find(|s| s.stage == stage && s.retries == Some(1));
        assert!(
            retried.is_some(),
            "{point}: no stage recorded the consumed retry: {stages:?}"
        );
    }
}

#[test]
fn injected_panic_poisons_one_cell_and_leaves_the_rest_bit_identical() {
    let _guard = locked();
    let params = DesignParams::tiny();
    let config = FlowConfig::default();
    let matrix = MatrixRun::default().flow_matrix();
    let executor = Executor::new(4);

    let golden = matrix.run_cells(&params, &config, &executor, None);
    let golden_prints: Vec<u64> = golden
        .iter()
        .map(|c| {
            c.as_ref()
                .expect("clean run has no failures")
                .result
                .fingerprint()
        })
        .collect();

    // Poison exactly the (ALU, granular, flow b) back-end; silence the
    // default panic hook while the injected panic unwinds.
    faultpoint::arm("pack", Some("alu/granular/b"), FaultKind::Panic);
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let injected = matrix.run_cells(&params, &config, &executor, None);
    std::panic::set_hook(prev_hook);

    assert_eq!(injected.len(), golden.len());
    for (i, (job, cell)) in matrix.jobs().iter().zip(&injected).enumerate() {
        let poisoned = job.design == NamedDesign::Alu
            && job.arch.name() == "granular"
            && job.variant == FlowVariant::B;
        match cell {
            Err(e) if poisoned => {
                assert!(
                    matches!(
                        e,
                        FlowError::StagePanic {
                            stage: Some(StageId::Pack),
                            ..
                        }
                    ),
                    "poisoned cell reported {e:?}"
                );
                assert!(e.to_string().contains("injected fault"), "{e}");
            }
            Ok(result) if !poisoned => assert_eq!(
                result.result.fingerprint(),
                golden_prints[i],
                "healthy cell {i} diverged from the golden run"
            ),
            other => panic!("cell {i}: unexpected outcome {other:?}"),
        }
    }

    // With the one-shot fault consumed, a rerun is fully healthy and
    // bit-identical to the golden run.
    assert!(!faultpoint::any_armed());
    let rerun = matrix.run_cells(&params, &config, &executor, None);
    for (i, cell) in rerun.iter().enumerate() {
        assert_eq!(
            cell.as_ref().expect("rerun is clean").result.fingerprint(),
            golden_prints[i]
        );
    }
}

#[test]
fn back_end_panics_on_both_threads_return_a_stage_panic() {
    let _guard = locked();
    let design = tiny_alu();
    let arch = PlbArchitecture::granular();
    let config = FlowConfig::default();
    let golden = run_design(&design, &arch, &config)
        .expect("golden run")
        .fingerprint();

    // `run_design` runs flow a on the calling thread and flow b on a
    // helper: poison one stage of each while the other back-end is in
    // flight.
    faultpoint::arm("pack", Some("alu/granular/b"), FaultKind::Panic);
    faultpoint::arm("route", Some("alu/granular/a"), FaultKind::Panic);
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = run_design(&design, &arch, &config);
    std::panic::set_hook(prev_hook);
    assert!(
        !faultpoint::any_armed(),
        "both back-ends must reach their fault"
    );

    // The panics come back as a typed error, flow a's first.
    match outcome {
        Err(FlowError::StagePanic {
            stage,
            design,
            payload,
        }) => {
            assert_eq!(stage, Some(StageId::Route));
            assert_eq!(design, "alu/granular/a");
            assert!(payload.contains("injected fault at route"), "{payload}");
        }
        other => panic!("expected flow a's StagePanic, got {other:?}"),
    }

    // Nothing is left behind: the next call completes on the golden.
    let rerun = run_design(&design, &arch, &config).expect("clean rerun");
    assert_eq!(rerun.fingerprint(), golden);
}

fn tiny_service_job(variant: FlowVariant) -> ServiceJob {
    ServiceJob {
        design: NamedDesign::Alu,
        arch: PlbArchitecture::granular(),
        variant,
        params: DesignParams::tiny(),
        config: FlowConfig::default(),
    }
}

fn golden_fingerprint(variant: FlowVariant) -> u64 {
    let out = run_design(
        &tiny_alu(),
        &PlbArchitecture::granular(),
        &FlowConfig::default(),
    )
    .expect("golden run");
    match variant {
        FlowVariant::A => out.flow_a.fingerprint(),
        FlowVariant::B => out.flow_b.fingerprint(),
    }
}

#[test]
fn checkpoint_rename_fault_loses_the_update_never_a_torn_artifact() {
    let _guard = locked();
    let dir = std::env::temp_dir().join(format!("vpga-rename-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let golden = golden_fingerprint(FlowVariant::A);

    // Kill the job in the checkpoint_rename window: the synth checkpoint's
    // durable temp write lands, the rename is lost, and the compact fault
    // then ends the job — exactly the disk state a crash leaves behind.
    faultpoint::arm("checkpoint_rename", None, FaultKind::Error);
    faultpoint::arm("compact", None, FaultKind::Error);
    let flow =
        CachedFlow::new(64 << 20).with_checkpoints(CheckpointStore::new(&dir, true).unwrap());
    let err = flow
        .run_job(&tiny_service_job(FlowVariant::A), &mut |_| {})
        .unwrap_err();
    assert_eq!(err.stage(), Some(StageId::Compact), "{err}");
    assert!(!faultpoint::any_armed(), "both faults must have fired");
    drop(flow);

    // The interrupted write left its temp file (the durable half ran)...
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        leftovers.iter().any(|n| n.ends_with(".tmp")),
        "expected an orphaned temp file: {leftovers:?}"
    );
    // ...but never a readable half-artifact: a resuming run finds nothing
    // to restore, recomputes every stage, and matches the golden run.
    let flow =
        CachedFlow::new(64 << 20).with_checkpoints(CheckpointStore::new(&dir, true).unwrap());
    let mut computed = 0usize;
    let out = flow
        .run_job(&tiny_service_job(FlowVariant::A), &mut |e| {
            if matches!(e, JobEvent::Stage { .. }) {
                computed += 1;
            }
        })
        .unwrap();
    assert_eq!(computed, 6, "the lost checkpoint must restore nothing");
    assert_eq!(out.fingerprint(), golden);
    drop(flow);

    // And the orphaned temp file never confuses later durable writes: a
    // third run (fresh memory cache) resumes wholly from the checkpoints
    // the second run wrote.
    let flow =
        CachedFlow::new(64 << 20).with_checkpoints(CheckpointStore::new(&dir, true).unwrap());
    let mut computed = 0usize;
    let out = flow
        .run_job(&tiny_service_job(FlowVariant::A), &mut |e| {
            if matches!(e, JobEvent::Stage { .. }) {
                computed += 1;
            }
        })
        .unwrap();
    assert_eq!(computed, 0, "resume must restore every stage from disk");
    assert_eq!(out.fingerprint(), golden);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_write_fault_abandons_the_publish_but_the_job_completes() {
    let _guard = locked();
    let golden = golden_fingerprint(FlowVariant::A);
    let flow = CachedFlow::new(64 << 20);
    // The one-shot fault eats the front-end publish; the job proceeds on
    // its in-memory artifacts and the result publish succeeds.
    faultpoint::arm("cache_write", None, FaultKind::Error);
    let out = flow
        .run_job(&tiny_service_job(FlowVariant::A), &mut |_| {})
        .unwrap();
    assert_eq!(out.fingerprint(), golden);
    assert!(!out.front_cache_hit && !out.result_cache_hit);
    let stats = flow.cache().stats();
    assert_eq!(stats.entries, 1, "only the result entry landed: {stats}");
    assert_eq!(stats.in_flight, 0, "abandoned claim must be cleared");
    // The next run recomputes the unpublished front-end (and republishes
    // it) but serves the result from cache.
    let warm = flow
        .run_job(&tiny_service_job(FlowVariant::A), &mut |_| {})
        .unwrap();
    assert!(!warm.front_cache_hit && warm.result_cache_hit);
    assert_eq!(warm.fingerprint(), golden);
    assert_eq!(flow.cache().stats().entries, 2);
    flow.cache().validate_all().unwrap();
}

#[test]
fn cache_read_fault_fails_closed_into_a_clean_recompute() {
    let _guard = locked();
    let golden = golden_fingerprint(FlowVariant::A);
    let flow = CachedFlow::new(64 << 20);
    flow.run_job(&tiny_service_job(FlowVariant::A), &mut |_| {})
        .unwrap();
    // An injected read fault is treated as failed validation: the entry
    // is dropped and recomputed, never served.
    faultpoint::arm("cache_read", None, FaultKind::Error);
    let warm = flow
        .run_job(&tiny_service_job(FlowVariant::A), &mut |_| {})
        .unwrap();
    assert!(!warm.front_cache_hit, "suspect front entry must not serve");
    assert!(warm.result_cache_hit, "untainted result entry still serves");
    assert_eq!(warm.fingerprint(), golden);
    let stats = flow.cache().stats();
    assert_eq!(stats.invalid, 1, "{stats}");
    assert_eq!(stats.entries, 2, "recompute republishes: {stats}");
    flow.cache().validate_all().unwrap();
}

#[test]
fn cache_evict_fault_aborts_the_sweep_and_the_next_publish_recovers() {
    let _guard = locked();
    // A zero budget makes every publish sweep everything but itself.
    let flow = CachedFlow::new(0);
    faultpoint::arm("cache_evict", None, FaultKind::Error);
    let a = flow
        .run_job(&tiny_service_job(FlowVariant::A), &mut |_| {})
        .unwrap();
    assert_eq!(a.fingerprint(), golden_fingerprint(FlowVariant::A));
    // The result publish picked the front entry as its victim, the
    // injected fault aborted the sweep, and the cache runs transiently
    // over budget rather than pretend the removal happened.
    assert!(!faultpoint::any_armed(), "evict fault must have fired");
    assert_eq!(flow.cache().stats().entries, 2);
    // The next publish sweeps clean again: B reuses the surviving front
    // entry, then its result publish evicts everything else.
    let b = flow
        .run_job(&tiny_service_job(FlowVariant::B), &mut |_| {})
        .unwrap();
    assert!(b.front_cache_hit, "front shared despite the aborted sweep");
    assert_eq!(b.fingerprint(), golden_fingerprint(FlowVariant::B));
    let stats = flow.cache().stats();
    assert_eq!(stats.entries, 1, "recovered sweep: {stats}");
    flow.cache().validate_all().unwrap();
}

#[test]
fn serve_accept_fault_drops_one_connection_and_the_daemon_recovers() {
    let _guard = locked();
    let daemon = spawn(DaemonConfig {
        listen: "127.0.0.1:0".to_owned(),
        workers: 1,
        queue_depth: 4,
        cache_budget: 1 << 20,
        checkpoint_dir: None,
        chaos: false,
    })
    .unwrap();
    faultpoint::arm("serve_accept", None, FaultKind::Error);
    // The faulted accept drops the connection unqueued: the client sees
    // a close with no response, never a hang or a crash.
    assert!(get(daemon.addr(), "/healthz").is_err());
    assert!(!faultpoint::any_armed(), "accept fault must have fired");
    let (status, body) = get(daemon.addr(), "/healthz").unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    daemon.shutdown();
    let summary = daemon.join();
    assert_eq!(summary.rejected, 1, "{summary}");
    assert!(summary.cache_valid);
}

#[test]
fn serve_drain_fault_never_prevents_a_clean_drain() {
    let _guard = locked();
    let daemon = spawn(DaemonConfig {
        listen: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 4,
        cache_budget: 64 << 20,
        checkpoint_dir: None,
        chaos: false,
    })
    .unwrap();
    let (status, body) = get(
        daemon.addr(),
        "/job?design=alu&arch=granular&variant=a&params=tiny",
    )
    .unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("fingerprint 0x"), "{body}");
    // A fault injected into the drain path is logged and the drain
    // completes anyway: workers join, the cache validates.
    faultpoint::arm("serve_drain", None, FaultKind::Error);
    daemon.shutdown();
    let summary = daemon.join();
    assert!(!faultpoint::any_armed(), "drain fault must have fired");
    assert_eq!(summary.completed, 1, "{summary}");
    assert!(summary.cache_valid, "{summary}");
}

#[test]
fn fault_specs_parse_and_reject_garbage() {
    let _guard = locked();
    faultpoint::arm_from_spec("route=error, sta@alu/granular=timeout").unwrap();
    assert!(faultpoint::any_armed());
    faultpoint::disarm_all();
    assert!(faultpoint::arm_from_spec("route").is_err());
    assert!(faultpoint::arm_from_spec("route=explode").is_err());
    assert!(!faultpoint::any_armed());
}
