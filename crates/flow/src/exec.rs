//! Parallel, deterministic flow execution.
//!
//! [`Executor`] is a bounded worker pool over [`std::thread::scope`] (no
//! external crates). [`Executor::run`] races an index-ordered queue of
//! independent jobs; [`Executor::run_dag`] schedules a dependency DAG of
//! tasks, dispatching ready tasks lowest-index-first, with the calling
//! thread as worker 0 and helpers spawned only while more tasks are ready
//! than workers are free. Every flow job is a
//! pure function of its index — each derives all randomness from the
//! seeds in its own `FlowConfig`, shares nothing mutable, and therefore
//! produces bit-identical results whether run on 1 worker or 16 (the
//! determinism tests pin this via [`crate::FlowResult::fingerprint`]).
//!
//! The flow runs in *legs*: `run_front` is the shared front-end of one
//! (design, arch) pair, `run_back` the back-end of one variant over it.
//! Each leg restores what its checkpoint holds, runs the rest of its
//! stage plan as a strict chain, and checkpoints as it goes. Both the
//! scheduler here and the daemon's [`crate::CachedFlow`] call these two
//! functions, so there is one stage loop.
//!
//! [`FlowMatrix`] names the (design, architecture, flow-variant) jobs of
//! the paper's evaluation matrix and schedules them as a DAG with one
//! task per leg: each pair's front-end fans out to its variant back-ends,
//! which read it by reference. Legs of different pairs and cells
//! interleave freely across the pool; each leg's own chain keeps every
//! result bit-identical to a serial run. The same scheduler runs
//! [`crate::run_design`]: one pair from the caller's netlist, whose two
//! back-ends overlap once the shared front-end is done.
//!
//! Legs are panic-isolated: each runs under one
//! [`std::panic::catch_unwind`] guard, so a poisoned job yields a failed
//! matrix cell ([`FlowError::StagePanic`], attributed to the stage the
//! worker had reached) instead of a dead process, and every other cell
//! still completes — bit-identical to an uninjured run. Back-ends whose
//! shared front-end failed are never run; the first such cell (in job
//! order) carries the front-end error itself and the rest are marked
//! [`FlowError::Skipped`] with the cause.
//!
//! With a [`CheckpointStore`], each completed stage is persisted and a
//! resumed run restores the deepest valid checkpoint per leg, skipping
//! completed work; resumed results are bit-identical to uninterrupted
//! ones.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::Scope;

use vpga_core::PlbArchitecture;
use vpga_designs::{DesignParams, NamedDesign};
use vpga_netlist::Netlist;

use crate::checkpoint::CheckpointStore;
use crate::clock::JobClock;
use crate::pipeline::{front_ctx, job_ctx, FrontEnd};
use crate::stages::{
    back_plan, front_plan, run_back_stage, run_front_stage, BackArtifacts, FrontArtifacts, StageEnv,
};
use crate::stats::{clear_stage, current_stage, StageStats};
use crate::{FlowConfig, FlowError, FlowResult, FlowVariant};

/// Renders a trapped panic payload (almost always a `String` or `&str`
/// from `panic!`/`assert!`) for [`FlowError::StagePanic`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_owned(),
            Err(_) => "non-string panic payload".to_owned(),
        },
    }
}

/// A bounded, order-preserving worker pool.
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    workers: usize,
}

impl Executor {
    /// An executor with `workers` threads; `0` means "one per available
    /// CPU" via [`std::thread::available_parallelism`].
    pub fn new(workers: usize) -> Executor {
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            workers
        };
        Executor { workers }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `job(0) ..= job(n - 1)`, returning results in index order:
    /// a DAG without edges on [`Executor::run_dag`], so one worker (or one
    /// job) runs a plain serial loop on the calling thread. Either way
    /// `out[i]` is exactly `job(i)`.
    ///
    /// # Panics
    ///
    /// If a job panics, the panic propagates to the caller once the
    /// in-flight jobs settle.
    pub fn run<T, F>(&self, n: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        self.run_dag(&vec![Vec::new(); n], vec![0; n], |i| {
            *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(job(i));
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every index ran exactly once")
            })
            .collect()
    }

    /// Executes a task dependency DAG: `dependents[t]` lists the tasks
    /// unlocked by `t`, `indegree[t]` counts the tasks `t` still waits
    /// on. Ready tasks dispatch lowest-index-first, so a single worker
    /// visits tasks in exactly the order a serial nested loop would —
    /// the determinism anchor the flow's one-shot fault points rely on.
    ///
    /// The calling thread is worker 0. A worker that takes a task and
    /// leaves more ready tasks behind than there are idle workers spawns
    /// scoped helpers for the surplus, up to the executor's worker count,
    /// so ready tasks of *different* chains run concurrently and a graph
    /// that never has two ready tasks never leaves the calling thread.
    ///
    /// # Panics
    ///
    /// Propagates the first task panic after the in-flight tasks settle
    /// (tasks left unreachable by the panic are skipped). Panics if the
    /// graph has a cycle (some task never becomes ready).
    pub(crate) fn run_dag<F>(&self, dependents: &[Vec<usize>], indegree: Vec<usize>, task: F)
    where
        F: Fn(usize) + Sync,
    {
        assert_eq!(indegree.len(), dependents.len());
        let dag = Dag {
            dependents,
            task,
            workers: self.workers,
            state: Mutex::new(DagState {
                ready: (0..indegree.len())
                    .filter(|&t| indegree[t] == 0)
                    .map(Reverse)
                    .collect(),
                remaining: indegree.len(),
                indegree,
                threads: 1,
                idle: 0,
                panic: None,
            }),
            wake: Condvar::new(),
        };
        std::thread::scope(|scope| dag.work(scope));
        let state = dag
            .state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(payload) = state.panic {
            resume_unwind(payload);
        }
    }
}

/// One [`Executor::run_dag`] call, shared by its workers.
struct Dag<'a, F> {
    dependents: &'a [Vec<usize>],
    task: F,
    workers: usize,
    state: Mutex<DagState>,
    /// Signalled when a task becomes ready for an idle worker, and when
    /// the run ends.
    wake: Condvar,
}

struct DagState {
    ready: BinaryHeap<Reverse<usize>>,
    indegree: Vec<usize>,
    /// Tasks not yet finished.
    remaining: usize,
    /// Workers running, the calling thread included.
    threads: usize,
    /// Workers waiting for a ready task.
    idle: usize,
    /// The first task panic, re-raised once the scope joins.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl<F: Fn(usize) + Sync> Dag<'_, F> {
    fn lock(&self) -> MutexGuard<'_, DagState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One worker's loop: take the lowest ready task, hand the surplus to
    /// idle workers or new helpers, run the task, release its dependents.
    fn work<'s>(&'s self, scope: &'s Scope<'s, '_>) {
        let mut st = self.lock();
        loop {
            if st.remaining == 0 || st.panic.is_some() {
                return;
            }
            let Some(Reverse(t)) = st.ready.pop() else {
                if st.idle + 1 == st.threads {
                    // No task is running, so none will ever become ready.
                    st.panic = Some(Box::new("task graph has a cycle"));
                    self.wake.notify_all();
                    return;
                }
                st.idle += 1;
                st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
                st.idle -= 1;
                continue;
            };
            let helpers = (st.ready.len().saturating_sub(st.idle))
                .min(self.workers.saturating_sub(st.threads));
            st.threads += helpers;
            if st.idle > 0 && !st.ready.is_empty() {
                self.wake.notify_all();
            }
            drop(st);
            for _ in 0..helpers {
                let spawned = std::thread::Builder::new()
                    .spawn_scoped(scope, move || self.work(scope))
                    .is_ok();
                if !spawned {
                    // Out of threads: the running workers take the surplus.
                    self.lock().threads -= 1;
                }
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| (self.task)(t)));
            st = self.lock();
            match outcome {
                Ok(()) => {
                    st.remaining -= 1;
                    for &d in &self.dependents[t] {
                        st.indegree[d] -= 1;
                        if st.indegree[d] == 0 {
                            st.ready.push(Reverse(d));
                        }
                    }
                }
                Err(payload) => {
                    st.panic.get_or_insert(payload);
                }
            }
            if st.remaining == 0 || st.panic.is_some() {
                self.wake.notify_all();
            }
        }
    }
}

/// One cell of the evaluation matrix.
#[derive(Clone, Debug)]
pub struct FlowJob {
    /// Which of the four paper designs.
    pub design: NamedDesign,
    /// The PLB architecture to map onto.
    pub arch: PlbArchitecture,
    /// Which §3.2 flow variant.
    pub variant: FlowVariant,
}

/// The result of one [`FlowJob`], carrying enough front-end context to
/// reassemble [`crate::DesignOutcome`] pairs.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The job that produced this.
    pub job: FlowJob,
    /// The generated netlist's name (the key [`crate::report::Matrix`]
    /// looks outcomes up by).
    pub design: String,
    /// NAND2-equivalent gate count of the source design.
    pub gates_nand2: f64,
    /// Compaction summary from the shared front-end.
    pub compaction: Option<vpga_compact::CompactionReport>,
    /// Front-end stage instrumentation (shared by both variants of a
    /// (design, arch) pair).
    pub front_stages: Vec<StageStats>,
    /// The variant's metrics and back-end stage instrumentation.
    pub result: FlowResult,
}

/// Runs one leg under the flow's one panic guard: clears the thread's
/// stage note, then turns a panic into [`FlowError::StagePanic`]
/// attributed to the stage the leg had reached, so a poisoned leg fails
/// its own cells (or its own daemon job) and nothing else.
fn guarded<T>(ctx: &str, leg: impl FnOnce() -> Result<T, FlowError>) -> Result<T, FlowError> {
    clear_stage();
    catch_unwind(AssertUnwindSafe(leg)).unwrap_or_else(|payload| {
        Err(FlowError::StagePanic {
            stage: current_stage(),
            design: ctx.to_owned(),
            payload: panic_message(payload),
        })
    })
}

/// The shared front-end leg of one (design, arch) pair, panic-guarded:
/// restores the deepest valid checkpoint, runs the rest of the front
/// plan on `source`, checkpoints after each stage, and hands each new
/// stage record to `on_stage`. Returns the completed store, its stage
/// records, and how many plan steps the checkpoint supplied.
pub(crate) fn run_front(
    source: &Netlist,
    arch: &PlbArchitecture,
    config: &FlowConfig,
    clock: &JobClock,
    checkpoints: Option<(&CheckpointStore, &DesignParams)>,
    on_stage: &mut dyn FnMut(&StageStats),
) -> Result<(FrontArtifacts, Vec<StageStats>, usize), FlowError> {
    let design = source.name();
    let ctx = front_ctx(design, arch);
    guarded(&ctx, || {
        let plan = front_plan(config);
        let (mut store, mut stages, restored) = checkpoints
            .and_then(|(ck, params)| ck.load_front(design, arch, config, params, plan.len()))
            .unwrap_or_else(|| (FrontArtifacts::new(design), Vec::new(), 0));
        let env = StageEnv {
            config,
            arch,
            job: &ctx,
            clock,
        };
        for (done, &id) in plan.iter().enumerate().skip(restored) {
            run_front_stage(id, source, &env, &mut store, &mut stages)?;
            if let Some((ck, params)) = checkpoints {
                ck.save_front(arch, config, params, &store, &stages, done + 1);
            }
            on_stage(stages.last().expect("stage just ran"));
        }
        Ok((store, stages, restored))
    })
}

/// The back-end leg of one variant over a completed front-end,
/// panic-guarded: loads a checkpointed result, or runs the variant plan
/// (handing each stage record to `on_stage`) and checkpoints the result.
/// The flag says whether the result came from the checkpoint.
pub(crate) fn run_back(
    front: &FrontEnd,
    arch: &PlbArchitecture,
    variant: FlowVariant,
    config: &FlowConfig,
    clock: &JobClock,
    checkpoints: Option<(&CheckpointStore, &DesignParams)>,
    on_stage: &mut dyn FnMut(&StageStats),
) -> Result<(FlowResult, bool), FlowError> {
    let ctx = job_ctx(&front.design, arch, variant);
    guarded(&ctx, || {
        if let Some(result) = checkpoints
            .and_then(|(ck, params)| ck.load_result(&front.design, arch, variant, config, params))
        {
            return Ok((result, true));
        }
        let env = StageEnv {
            config,
            arch,
            job: &ctx,
            clock,
        };
        let mut store = BackArtifacts::new(front);
        let mut stages = Vec::new();
        for &id in back_plan(variant) {
            run_back_stage(id, variant, &env, &mut store, &mut stages)?;
            on_stage(stages.last().expect("stage just ran"));
        }
        let result = store.into_result(variant, stages);
        if let Some((ck, params)) = checkpoints {
            ck.save_result(&front.design, arch, config, params, &result);
        }
        Ok((result, false))
    })
}

/// The flow's one scheduler: runs `cells` — (pair index, variant)
/// back-ends over the front-ends of `pairs`, each a (source netlist,
/// architecture) pair — on `executor` as a dependency DAG of legs (see
/// [`FlowMatrix::run_cells`] for the contract), each leg on its own
/// [`JobClock`]. Checkpoints are keyed on the design parameters the
/// sources were generated at. Returns each pair's sealed front-end
/// (`None` where it failed) and one result per cell, in cell order.
pub(crate) fn run_stages(
    pairs: &[(&Netlist, &PlbArchitecture)],
    cells: &[(usize, FlowVariant)],
    config: &FlowConfig,
    executor: &Executor,
    checkpoints: Option<(&CheckpointStore, &DesignParams)>,
) -> (Vec<Option<FrontEnd>>, Vec<Result<FlowResult, FlowError>>) {
    // Task numbering: one front task per pair, then one back task per
    // cell, each back task waiting on its pair's front — so the serial
    // lowest-index-first dispatch runs every front-end, then each cell's
    // back-end, in order.
    let npairs = pairs.len();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); npairs + cells.len()];
    let mut indegree: Vec<usize> = vec![0; npairs + cells.len()];
    for (j, &(p, _)) in cells.iter().enumerate() {
        dependents[p].push(npairs + j);
        indegree[npairs + j] = 1;
    }

    let fronts: Vec<OnceLock<Result<FrontEnd, FlowError>>> =
        (0..npairs).map(|_| OnceLock::new()).collect();
    let backs: Vec<OnceLock<Result<FlowResult, FlowError>>> =
        (0..cells.len()).map(|_| OnceLock::new()).collect();
    let clock = || JobClock::new(config.deadline, config.cancel.clone());
    executor.run_dag(&dependents, indegree, |t| {
        if let Some(&(source, arch)) = pairs.get(t) {
            let front = run_front(source, arch, config, &clock(), checkpoints, &mut |_| {})
                .map(|(store, stages, _)| store.into_front_end(stages));
            let _ = fronts[t].set(front);
        } else {
            let j = t - npairs;
            let (p, variant) = cells[j];
            // A failed front-end leaves its cells to the collection pass.
            if let Some(Ok(front)) = fronts[p].get() {
                let result = run_back(
                    front,
                    pairs[p].1,
                    variant,
                    config,
                    &clock(),
                    checkpoints,
                    &mut |_| {},
                );
                let _ = backs[j].set(result.map(|(result, _)| result));
            }
        }
    });

    // A failed front-end poisons its dependents: the pair's first cell
    // carries the error itself, later cells are marked skipped with the
    // cause so nothing silently vanishes from the result vector.
    let (fronts, mut front_errors): (Vec<_>, Vec<_>) = fronts
        .into_iter()
        .map(|front| front.into_inner().expect("every front task ran"))
        .map(|front| match front {
            Ok(front) => (Some(front), None),
            Err(e) => (None, Some(e)),
        })
        .unzip();
    let causes: Vec<Option<String>> = front_errors
        .iter()
        .map(|e| e.as_ref().map(ToString::to_string))
        .collect();
    let results = cells
        .iter()
        .zip(backs)
        .map(|(&(p, variant), back)| {
            back.into_inner()
                .unwrap_or_else(|| match front_errors[p].take() {
                    Some(e) => Err(e),
                    None => Err(FlowError::Skipped {
                        design: job_ctx(pairs[p].0.name(), pairs[p].1, variant),
                        cause: causes[p].clone().unwrap_or_default(),
                    }),
                })
        })
        .collect();
    (fronts, results)
}

/// A set of (design, architecture, flow-variant) jobs.
#[derive(Clone, Debug, Default)]
pub struct FlowMatrix {
    jobs: Vec<FlowJob>,
}

impl FlowMatrix {
    /// A matrix over an explicit job list (any subset, any order,
    /// duplicates allowed).
    pub fn from_jobs(jobs: Vec<FlowJob>) -> FlowMatrix {
        FlowMatrix { jobs }
    }

    /// The job list, in execution (= result) order.
    pub fn jobs(&self) -> &[FlowJob] {
        &self.jobs
    }

    /// Runs every job on `executor`, one task per leg, returning
    /// per-cell results in job order — one `Result` per job, never
    /// fewer.
    ///
    /// Work is scheduled as a dependency DAG of legs: the front-end of
    /// each distinct (design, arch) pair is one task (`run_front`), and
    /// the back-end of each job is one task (`run_back`) waiting on its
    /// pair's front-end. A front-end shared by both variants of a pair is
    /// computed once and read by reference. Ready tasks dispatch
    /// lowest-index-first, so the result vector — and every bit inside
    /// it — is independent of the worker count.
    ///
    /// Each leg runs under `catch_unwind`: a panic (or error) in one cell
    /// never stops the others. A pair whose front-end failed contributes
    /// the front-end error to its first job (in job order) and
    /// [`FlowError::Skipped`] to the rest.
    ///
    /// With `checkpoints`, every completed stage is persisted; a resuming
    /// store restores the deepest valid checkpoint per leg and skips the
    /// completed stages, bit-identically.
    pub fn run_cells(
        &self,
        params: &DesignParams,
        config: &FlowConfig,
        executor: &Executor,
        checkpoints: Option<&CheckpointStore>,
    ) -> Vec<Result<JobResult, FlowError>> {
        // Distinct (design, arch) front-ends, keyed by first use; their
        // sources are generated up front, in parallel.
        let mut keys: Vec<(NamedDesign, &PlbArchitecture)> = Vec::new();
        let cells: Vec<(usize, FlowVariant)> = self
            .jobs
            .iter()
            .map(|job| {
                let p = keys
                    .iter()
                    .position(|&(d, a)| d == job.design && a.name() == job.arch.name())
                    .unwrap_or_else(|| {
                        keys.push((job.design, &job.arch));
                        keys.len() - 1
                    });
                (p, job.variant)
            })
            .collect();
        let sources = executor.run(keys.len(), |p| keys[p].0.generate(params));
        let pairs: Vec<(&Netlist, &PlbArchitecture)> = sources
            .iter()
            .zip(&keys)
            .map(|(n, &(_, a))| (n, a))
            .collect();
        let checkpoints = checkpoints.map(|ck| (ck, params));
        let (fronts, results) = run_stages(&pairs, &cells, config, executor, checkpoints);
        self.jobs
            .iter()
            .zip(&cells)
            .zip(results)
            .map(|((job, &(p, _)), result)| {
                let result = result?;
                let front = fronts[p]
                    .as_ref()
                    .expect("a back-end result implies its front-end completed");
                Ok(JobResult {
                    job: job.clone(),
                    design: front.design.clone(),
                    gates_nand2: front.gates_nand2,
                    compaction: front.compaction.clone(),
                    front_stages: front.stages.clone(),
                    result,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executor_preserves_order_and_runs_every_job() {
        for workers in [1, 2, 3, 8] {
            let exec = Executor::new(workers);
            let out = exec.run(17, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_workers_resolves_to_available_parallelism() {
        let exec = Executor::new(0);
        assert!(exec.workers() >= 1);
    }

    #[test]
    fn executor_handles_empty_and_single_job_sets() {
        let exec = Executor::new(4);
        assert!(exec.run(0, |_| 0u8).is_empty());
        assert_eq!(exec.run(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn dag_executes_chains_in_dependency_order() {
        // Two chains (0 → 1 → 2, 3 → 4) plus a join task 5 waiting on
        // both chain heads.
        let dependents = vec![vec![1], vec![2], vec![5], vec![4], vec![5], vec![]];
        let indegree = vec![0, 1, 1, 0, 1, 2];
        for workers in [1, 2, 4] {
            let order = Mutex::new(Vec::new());
            Executor::new(workers).run_dag(&dependents, indegree.clone(), |t| {
                order.lock().unwrap().push(t);
            });
            let order = order.into_inner().unwrap();
            assert_eq!(order.len(), 6, "workers={workers}");
            let pos = |t: usize| order.iter().position(|&x| x == t).unwrap();
            assert!(pos(0) < pos(1) && pos(1) < pos(2), "workers={workers}");
            assert!(pos(3) < pos(4), "workers={workers}");
            assert!(pos(2) < pos(5) && pos(4) < pos(5), "workers={workers}");
        }
        // A single worker visits ready tasks lowest-index-first.
        let order = Mutex::new(Vec::new());
        Executor::new(1).run_dag(&dependents, indegree, |t| {
            order.lock().unwrap().push(t);
        });
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn dag_runs_on_the_calling_thread_and_spawns_only_for_surplus() {
        // The `run_design` shape: a front chain 0 → 1 fanning out to the
        // back-end chains 2 → 3 and 4 → 5.
        let dependents = vec![vec![1], vec![2, 4], vec![3], vec![], vec![5], vec![]];
        let indegree = vec![0, 1, 1, 1, 1, 1];
        let ran_on = Mutex::new(vec![None; 6]);
        Executor::new(8).run_dag(&dependents, indegree.clone(), |t| {
            ran_on.lock().unwrap()[t] = Some(std::thread::current().id());
        });
        let ran_on: Vec<_> = ran_on.into_inner().unwrap().into_iter().flatten().collect();
        let caller = std::thread::current().id();
        // The front chain and the first branch never leave the caller;
        // the second branch is the only surplus, so one helper at most.
        assert!(ran_on[..4].iter().all(|&id| id == caller), "{ran_on:?}");
        assert!(ran_on[4..].iter().all(|&id| id == ran_on[4]), "{ran_on:?}");

        // A task panic reaches the caller; so does a cycle, never a hang.
        let panicked = std::panic::catch_unwind(|| {
            Executor::new(2).run_dag(&dependents, indegree, |t| assert_ne!(t, 4));
        });
        assert!(panicked.is_err());
        let cycle = std::panic::catch_unwind(|| {
            Executor::new(2).run_dag(&[vec![1], vec![0]], vec![1, 1], |_| {});
        });
        assert!(cycle.is_err());
    }
}
