//! The simulated multicomputer and its persistent SPMD executor.
//!
//! # Worker-pool model
//!
//! A [`Machine`] owns `p` worker threads created **once** at
//! [`Machine::new`] and reused by every [`run`](Machine::run) /
//! [`try_run`](Machine::try_run) until the machine is dropped. Each worker
//! is pinned to one rank for its whole lifetime (rank affinity: worker `i`
//! always executes processor `i`'s program text). Submitting a program
//! wakes the pool, the workers execute the closure against the machine's
//! persistent [`Fabric`] and stats collector (no per-run thread spawning,
//! no per-run `Arc` or collector allocation), and the submitter blocks
//! until every worker has finished. Runs are serialised by an internal
//! gate, so a `Machine` can be shared freely.
//!
//! # The `try_run` / `run` contract
//!
//! [`try_run`](Machine::try_run) is the fallible entry point: a panic in
//! any simulated processor cancels the fabric (releasing siblings blocked
//! in a collective), resets it, and surfaces
//! [`CgmError::ProcessorPanicked`] — the machine remains usable for
//! subsequent runs. [`run`](Machine::run) delegates to `try_run` and
//! panics with the original processor's message, preserving the
//! historical "simulated processor panicked" behaviour for infallible
//! call sites.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::ctx::Ctx;
use crate::error::CgmError;
use crate::mailbox::{Fabric, FabricCancelled};
use crate::stats::{RunStats, StatsCollector};

/// One submitted SPMD program, type-erased for the worker pool.
///
/// The pointee lives on the submitting thread's stack; `try_run` blocks
/// until every worker has finished with it, which is what makes the
/// lifetime erasure sound.
#[derive(Clone, Copy)]
struct Job {
    task: *const (dyn Fn(usize) + Sync),
}

// SAFETY: the pointer is only dereferenced while the submitting `try_run`
// call keeps the closure alive (it blocks until `active == 0`).
unsafe impl Send for Job {}

struct PoolState {
    /// Monotonic submission counter; a worker runs a job when it observes
    /// an epoch it has not executed yet.
    epoch: u64,
    job: Option<Job>,
    /// Workers still executing the current job.
    active: usize,
    shutdown: bool,
}

struct PoolShared {
    state: StdMutex<PoolState>,
    /// Workers wait here for the next submission.
    job_cv: Condvar,
    /// The submitter waits here for `active` to reach zero.
    done_cv: Condvar,
}

fn lock_pool(shared: &PoolShared) -> std::sync::MutexGuard<'_, PoolState> {
    shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

thread_local! {
    /// True while this thread is executing a simulated processor's
    /// program text. Guards against nested submissions, which the single
    /// worker pool cannot host (they would deadlock silently).
    static IN_SPMD_PROGRAM: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn worker_loop(rank: usize, shared: Arc<PoolShared>) {
    let mut seen_epoch = 0u64;
    loop {
        let task = {
            let mut st = lock_pool(&shared);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    break;
                }
                st = shared.job_cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            seen_epoch = st.epoch;
            st.job.expect("epoch advanced without a job").task
        };
        // SAFETY: see `Job` — the submitter keeps the closure alive until
        // every worker has decremented `active` below. The closure itself
        // never unwinds (it catches panics internally), so the decrement
        // is always reached.
        unsafe { (*task)(rank) };
        let mut st = lock_pool(&shared);
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// A `CGM(s, p)` machine: `p` processors with private memory, executing
/// SPMD programs as alternating local computation and collective
/// communication supersteps.
///
/// The processor count must be a power of two: the hat of the distributed
/// range tree consists of the top `log p` levels of each constituent
/// segment tree, so `log p` must be integral (the paper makes the same
/// assumption implicitly by writing `log n - log p`).
///
/// The machine owns a persistent pool of `p` rank-pinned worker threads
/// and a persistent exchange fabric, both created once and reused by
/// every [`run`](Machine::run): submitting a batch costs a pool wake-up,
/// not `p` thread spawns (the module-level comments above describe the
/// executor model and the `try_run`/`run` contract). Collective
/// statistics accumulate across runs until
/// [`take_stats`](Machine::take_stats) is called.
pub struct Machine {
    p: usize,
    fabric: Fabric,
    collector: StatsCollector,
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    /// Serialises concurrent `run` calls onto the single pool.
    run_gate: StdMutex<()>,
    stats: Mutex<RunStats>,
}

impl Machine {
    /// Create a machine with `p` processors (and its `p` pool workers).
    pub fn new(p: usize) -> Result<Self, CgmError> {
        if p == 0 {
            return Err(CgmError::NoProcessors);
        }
        if !p.is_power_of_two() {
            return Err(CgmError::ProcessorCountNotPowerOfTwo(p));
        }
        let shared = Arc::new(PoolShared {
            state: StdMutex::new(PoolState { epoch: 0, job: None, active: 0, shutdown: false }),
            job_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        // p = 1 runs inline on the submitting thread; no workers needed.
        let workers = if p == 1 {
            Vec::new()
        } else {
            (0..p)
                .map(|rank| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("cgm-worker-{rank}"))
                        .spawn(move || worker_loop(rank, shared))
                        .expect("spawning a pool worker")
                })
                .collect()
        };
        Ok(Machine {
            p,
            fabric: Fabric::new(p),
            collector: StatsCollector::new(),
            shared,
            workers,
            run_gate: StdMutex::new(()),
            stats: Mutex::new(RunStats::default()),
        })
    }

    /// Number of processors.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Execute an SPMD program on all `p` processors and return the
    /// per-processor results in rank order; the fallible counterpart of
    /// [`run`](Machine::run).
    ///
    /// The closure must be *superstep-aligned*: every processor must call
    /// the same sequence of collectives (the usual SPMD contract; violations
    /// are detected as mailbox type mismatches or deadlocks).
    ///
    /// If any simulated processor panics, the fabric is cancelled so that
    /// sibling processors blocked in a collective unwind instead of
    /// deadlocking, the partial statistics of the failed run are
    /// discarded, and [`CgmError::ProcessorPanicked`] is returned carrying
    /// the lowest originating rank and its panic message. The machine
    /// (pool, fabric, accumulated statistics of *previous* runs) remains
    /// fully usable afterwards.
    ///
    /// Submitting from *inside* a running SPMD program (nested `run` on
    /// any `Machine` from a program closure) is not supported: the
    /// single worker pool cannot host a second program while every
    /// worker is pinned to the first. Nested submissions are detected
    /// and panic immediately (so the outer `try_run` reports a
    /// `ProcessorPanicked` with a clear message) instead of deadlocking.
    pub fn try_run<F, R>(&self, program: F) -> Result<Vec<R>, CgmError>
    where
        F: Fn(&mut Ctx<'_>) -> R + Sync,
        R: Send,
    {
        IN_SPMD_PROGRAM.with(|flag| {
            assert!(
                !flag.get(),
                "nested Machine::run: submitting an SPMD program from inside a running \
                 SPMD program is not supported (the worker pool is occupied); restructure \
                 the outer program to return before submitting again"
            );
        });
        let _gate = self.run_gate.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let p = self.p;
        type PanicPayload = Box<dyn std::any::Any + Send + 'static>;
        let slots: Vec<Mutex<Option<Result<R, PanicPayload>>>> =
            (0..p).map(|_| Mutex::new(None)).collect();

        let task = |rank: usize| {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                IN_SPMD_PROGRAM.with(|flag| flag.set(true));
                let mut ctx = Ctx::new(rank, p, &self.fabric, &self.collector);
                program(&mut ctx)
            }));
            IN_SPMD_PROGRAM.with(|flag| flag.set(false));
            if outcome.is_err() {
                // Release siblings blocked in a collective before they can
                // deadlock waiting for this processor.
                self.fabric.cancel();
            }
            *slots[rank].lock() = Some(outcome);
        };

        if p == 1 {
            task(0);
        } else {
            let erased: &(dyn Fn(usize) + Sync) = &task;
            // SAFETY: the pointer is dereferenced only by workers running
            // the epoch submitted below, and this call does not return
            // before every worker has finished (active == 0), so `task`
            // outlives every dereference.
            let erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(erased) };
            {
                let mut st = lock_pool(&self.shared);
                st.job = Some(Job { task: erased as *const _ });
                st.active = p;
                st.epoch = st.epoch.wrapping_add(1);
                self.shared.job_cv.notify_all();
            }
            let mut st = lock_pool(&self.shared);
            while st.active > 0 {
                st =
                    self.shared.done_cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            st.job = None;
        }

        let mut results: Vec<R> = Vec::with_capacity(p);
        let mut origin: Option<(usize, String)> = None;
        for (rank, slot) in slots.iter().enumerate() {
            match slot.lock().take().expect("worker finished without reporting") {
                Ok(r) => results.push(r),
                Err(payload) => {
                    // Cancellation sentinels are secondary casualties of
                    // the originating panic; report only the origin.
                    if payload.downcast_ref::<FabricCancelled>().is_none() && origin.is_none() {
                        origin = Some((rank, panic_message(&*payload)));
                    }
                }
            }
        }

        if let Some((rank, payload)) = origin {
            self.fabric.reset();
            self.collector.clear();
            return Err(CgmError::ProcessorPanicked { rank, payload });
        }
        debug_assert_eq!(results.len(), p, "no origin panic but results are missing");

        {
            let mut stats = self.stats.lock();
            stats.rounds.extend(self.collector.take_rounds());
            stats.timeline.extend(self.collector.take_timeline());
            stats.runs += 1;
        }
        Ok(results)
    }

    /// Execute an SPMD program on all `p` processors and return the
    /// per-processor results in rank order.
    ///
    /// Delegates to [`try_run`](Machine::try_run) and panics with the
    /// original processor's message if the program panicked.
    ///
    /// # Panics
    /// Panics (`"simulated processor panicked: …"`) when any simulated
    /// processor panics; use `try_run` to handle the failure instead.
    pub fn run<F, R>(&self, program: F) -> Vec<R>
    where
        F: Fn(&mut Ctx<'_>) -> R + Sync,
        R: Send,
    {
        match self.try_run(program) {
            Ok(results) => results,
            Err(CgmError::ProcessorPanicked { rank, payload }) => {
                panic!("simulated processor panicked: rank {rank}: {payload}")
            }
            Err(e) => panic!("{e}"),
        }
    }

    /// Snapshot the accumulated statistics without clearing them.
    pub fn stats(&self) -> RunStats {
        self.stats.lock().clone()
    }

    /// Take and reset the accumulated statistics.
    pub fn take_stats(&self) -> RunStats {
        std::mem::take(&mut *self.stats.lock())
    }
}

/// Render a panic payload: the conventional `String` / `&str` payloads
/// verbatim, anything else as a placeholder. Public so the layers that
/// contain panics around machine use (the shard workers) report them
/// with one shared rule.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

impl Drop for Machine {
    fn drop(&mut self) {
        {
            let mut st = lock_pool(&self.shared);
            st.shutdown = true;
            self.shared.job_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine").field("p", &self.p).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_processor_counts() {
        assert!(matches!(Machine::new(0), Err(CgmError::NoProcessors)));
        assert!(matches!(Machine::new(3), Err(CgmError::ProcessorCountNotPowerOfTwo(3))));
        assert!(Machine::new(1).is_ok());
        assert!(Machine::new(16).is_ok());
    }

    #[test]
    fn run_returns_results_in_rank_order() {
        let m = Machine::new(8).unwrap();
        let out = m.run(|ctx| ctx.rank() * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let m = Machine::new(2).unwrap();
        m.run(|ctx| ctx.all_reduce_sum(1));
        let s1 = m.stats();
        assert!(s1.supersteps() >= 1);
        m.run(|ctx| ctx.all_reduce_sum(1));
        let s2 = m.take_stats();
        assert_eq!(s2.supersteps(), 2 * s1.supersteps());
        assert_eq!(m.stats().supersteps(), 0);
    }

    #[test]
    fn timeline_covers_every_rank_when_recording_is_compiled_in() {
        let m = Machine::new(2).unwrap();
        m.run(|ctx| ctx.all_reduce_sum(1u64));
        let stats = m.take_stats();
        if !ddrs_trace::enabled() {
            assert!(stats.timeline.is_empty(), "no recording, no timeline");
            return;
        }
        assert!(!stats.timeline.is_empty());
        for rank in 0..2 {
            let steps: Vec<_> = stats.timeline.iter().filter(|s| s.rank == rank).collect();
            assert_eq!(steps.len(), stats.supersteps(), "one step per rank per superstep");
        }
        // Failed runs contribute no timeline either.
        let _ = m.try_run::<_, ()>(|_ctx| panic!("boom"));
        assert!(m.take_stats().timeline.is_empty());
    }

    #[test]
    fn pool_is_reused_across_many_runs() {
        let m = Machine::new(4).unwrap();
        for i in 0..200u64 {
            let out = m.run(|ctx| ctx.all_reduce_sum(i + ctx.rank() as u64));
            assert!(out.iter().all(|&s| s == 4 * i + 6));
        }
        assert_eq!(m.take_stats().runs, 200);
    }

    #[test]
    fn try_run_surfaces_processor_panic_and_machine_survives() {
        let m = Machine::new(4).unwrap();
        let err = m
            .try_run(|ctx| {
                // Rank 2 dies mid-superstep; everyone else blocks in the
                // collective and must be released by cancellation.
                if ctx.rank() == 2 {
                    panic!("boom at rank 2");
                }
                ctx.all_reduce_sum(1)
            })
            .unwrap_err();
        match err {
            CgmError::ProcessorPanicked { rank, payload } => {
                assert_eq!(rank, 2);
                assert!(payload.contains("boom at rank 2"), "payload: {payload}");
            }
            other => panic!("unexpected error: {other:?}"),
        }
        // Failed runs contribute no statistics…
        assert_eq!(m.stats().supersteps(), 0);
        assert_eq!(m.stats().runs, 0);
        // …and the machine stays fully usable.
        let out = m.run(|ctx| ctx.all_reduce_sum(1));
        assert_eq!(out, vec![4, 4, 4, 4]);
        assert_eq!(m.stats().runs, 1);
    }

    #[test]
    fn try_run_reports_lowest_originating_rank() {
        let m = Machine::new(4).unwrap();
        let err = m.try_run::<_, ()>(|_ctx| panic!("all ranks die")).unwrap_err();
        assert!(matches!(err, CgmError::ProcessorPanicked { rank: 0, .. }), "{err:?}");
    }

    #[test]
    fn try_run_panic_on_single_processor_machine() {
        let m = Machine::new(1).unwrap();
        let err = m.try_run::<_, ()>(|_ctx| panic!("solo")).unwrap_err();
        assert!(matches!(err, CgmError::ProcessorPanicked { rank: 0, .. }), "{err:?}");
        assert_eq!(m.run(|ctx| ctx.rank()), vec![0]);
    }

    #[test]
    fn run_panics_with_the_original_message() {
        let m = Machine::new(2).unwrap();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            m.run::<_, ()>(|ctx| {
                if ctx.rank() == 1 {
                    panic!("custom failure detail");
                }
                ctx.barrier();
            })
        }))
        .unwrap_err();
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("simulated processor panicked"), "msg: {msg}");
        assert!(msg.contains("custom failure detail"), "msg: {msg}");
    }

    #[test]
    fn nested_run_is_detected_not_deadlocked() {
        let m = Machine::new(2).unwrap();
        let err = m
            .try_run(|_ctx| {
                // Submitting from inside a program must fail fast with a
                // clear message, not hang the pool.
                m.run(|ctx| ctx.rank());
            })
            .unwrap_err();
        match err {
            CgmError::ProcessorPanicked { payload, .. } => {
                assert!(payload.contains("nested Machine::run"), "payload: {payload}");
            }
            other => panic!("unexpected error: {other:?}"),
        }
        // And the machine still works.
        assert_eq!(m.run(|ctx| ctx.rank()), vec![0, 1]);
    }

    #[test]
    fn concurrent_runs_are_serialised() {
        let m = Machine::new(2).unwrap();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let m = &m;
                    s.spawn(move || {
                        for _ in 0..25 {
                            let out = m.run(|ctx| ctx.all_reduce_sum(1));
                            assert_eq!(out, vec![2, 2]);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        assert_eq!(m.take_stats().runs, 100);
    }
}
