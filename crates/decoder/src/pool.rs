//! Persistent resources for the serving path (the paper's one datapath
//! shared by all traffic, warm across utterances, Section VI): a
//! fork-join executor and a checkout/restore pool of [`DecodeScratch`]
//! working sets.
//!
//! * [`WorkerPool`] is built around the job, not the task. A submitter
//!   lists its job's header on one short list, and a worker lane claims
//!   the next chunk of the oldest listed job from the header's claim
//!   counter. The submitter runs chunk 0 inline, claims back whatever of
//!   its job is still unclaimed (steal-back, one `fetch_add` a chunk),
//!   withdraws the job and waits out the chunks lanes are running. Its
//!   one tenant, a session's score/search overlap, is a 2-chunk job at
//!   frame rate from one thread, so there is nothing for a lock-free task
//!   ring, per-lane deques or cross-job helping to speed up
//!   (ARCHITECTURE.md, "Why one list of jobs"). Idle lanes park at once;
//!   a joining submitter polls first (ARCHITECTURE.md, "Poll, then park").
//!   A header lives on its submitter's stack: lanes claim from it only
//!   under the list's lock, and the submitter withdraws it under the same
//!   lock, then waits out `pending` (model-checked in `model_check.rs`).
//! * [`ScratchPool`] recycles warmed [`DecodeScratch`] working sets, so a
//!   serving facade allocates nothing in the steady-state frame loop.

use crate::search::DecodeScratch;
use crate::sync::{
    fence, poll_while, AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, MutexGuard, Ordering,
};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// One fork-join job in flight, on its submitter's stack until
/// [`WorkerPool::fork_join`] has withdrawn it and `pending` is zero.
pub(crate) struct JobHeader {
    /// The borrowed closure, erased, and the trampoline recovering it.
    run: unsafe fn(*const (), usize),
    ctx: *const (),
    chunks: usize,
    /// The next chunk to hand out; chunk 0 is the submitter's.
    pub(crate) next: AtomicUsize,
    /// Chunks not yet finished executing.
    pub(crate) pending: AtomicUsize,
    /// Some chunk's closure panicked; re-raised on the submitter.
    panicked: AtomicBool,
}

impl JobHeader {
    /// A job of `chunks` chunks running the borrowed `f`.
    pub(crate) fn new<F: Fn(usize) + Sync>(f: &F, chunks: usize) -> Self {
        /// Recovers the concrete closure type on an executing lane.
        ///
        /// # Safety
        ///
        /// `ctx` must be an `&F` erased by the `JobHeader::new` call that
        /// built this job's header, still borrowed (its `fork_join` has
        /// not passed its completion barrier).
        unsafe fn trampoline<F: Fn(usize) + Sync>(ctx: *const (), chunk: usize) {
            // SAFETY: `ctx` was erased from an `&F` that `fork_join`
            // keeps borrowed until its completion barrier.
            let f = unsafe { &*(ctx.cast::<F>()) };
            f(chunk);
        }
        Self {
            run: trampoline::<F>,
            ctx: (f as *const F).cast(),
            chunks,
            next: AtomicUsize::new(1),
            pending: AtomicUsize::new(chunks),
            panicked: AtomicBool::new(false),
        }
    }

    /// Claims the next unclaimed chunk. `Relaxed`: the counter only
    /// arbitrates, and the header reached the claimer through the lock.
    pub(crate) fn claim(&self) -> Option<usize> {
        let chunk = self.next.fetch_add(1, Ordering::Relaxed);
        (chunk < self.chunks).then_some(chunk)
    }

    /// Every chunk has finished executing.
    pub(crate) fn joined(&self) -> bool {
        self.pending.load(Ordering::Acquire) == 0
    }
}

/// One claimed chunk of one job; on the job list, the job itself (its
/// `chunk` is not read there).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Task {
    pub(crate) header: *const JobHeader,
    pub(crate) chunk: usize,
}

// SAFETY: a task exists only while its job's `fork_join` is blocked on
// the stack that owns the header: listed until the submitter withdraws
// it, claimed until the chunk retires.
unsafe impl Send for Task {}

impl Task {
    fn header(&self) -> &JobHeader {
        // SAFETY: the header outlives every task naming it (`Send`
        // above), and a listed one is read only under the list's lock.
        unsafe { &*self.header }
    }
}

/// Scheduling counters (see [`WorkerPool::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerPoolStats {
    /// Jobs listed for the lanes.
    pub jobs_submitted: u64,
    /// Chunks offered to the lanes (all but each job's chunk 0).
    pub tasks_queued: u64,
    /// Offered chunks a worker lane claimed and ran.
    pub tasks_taken_by_lanes: u64,
    /// Offered chunks their own submitter claimed back before a lane did.
    pub tasks_stolen_back: u64,
    /// Always 0: a submitter runs only its own job's chunks. Kept for the
    /// benchmark's `decoder.pool.helped`, and goes with it.
    pub tasks_helped: u64,
    /// Times an idle lane really slept (≈ 1 per job on `voice_2s_overlap`).
    pub lane_parks: u64,
    /// Times a submitter outlasted its poll window and really slept.
    pub join_parks: u64,
}

/// How long a submitter polls for its join before it sleeps; idle lanes
/// park at once. Sized when the scoring row was ~250 us; today a join
/// waits at most a ~24 us row (ARCHITECTURE.md, "Poll, then park").
const POLL_BOUND: Duration = Duration::from_micros(200);

/// An eventcount: the executor's one blocking primitive, poll-then-park
/// (its lost-wakeup freedom is model-checked in `model_check.rs`).
#[derive(Debug)]
pub(crate) struct EventCount {
    /// Threads registered as parked or about to park.
    sleepers: AtomicUsize,
    /// Times a thread really went to sleep here.
    parks: AtomicU64,
    /// Parking lot only; guards no data, so poison is harmless.
    lock: Mutex<()>,
    cv: Condvar,
    poll_bound: Duration,
}

impl EventCount {
    /// An eventcount whose waiters poll for `poll_bound` before parking.
    pub(crate) fn new(poll_bound: Duration) -> Self {
        Self {
            sleepers: AtomicUsize::new(0),
            parks: AtomicU64::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            poll_bound,
        }
    }

    /// Wake parked threads after publishing work. The `SeqCst` fence
    /// pairs with the fence in [`EventCount::park_if`]: either we observe
    /// the registration (and notify under the lock), or the waiter's
    /// post-registration re-check observes our publication.
    pub(crate) fn notify(&self, all: bool) {
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::Relaxed) == 0 {
            return;
        }
        let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        if all {
            self.cv.notify_all();
        } else {
            self.cv.notify_one();
        }
    }

    /// Wait while `should_sleep()` holds: poll it for the bounded window
    /// and return as soon as it clears; past the window register, fence,
    /// re-check, then sleep — double-checked again under the lock so a
    /// notify between check and wait cannot be lost.
    pub(crate) fn park_if(&self, should_sleep: impl Fn() -> bool) {
        if !poll_while(self.poll_bound, &should_sleep) {
            return;
        }
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if should_sleep() {
            let guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            if should_sleep() {
                self.parks.fetch_add(1, Ordering::Relaxed);
                let _unused = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
            }
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs one claimed chunk and retires it, recording a panic on the job;
/// the last chunk wakes the job's submitter if it is parked on `done`.
pub(crate) fn execute_task(done: &EventCount, task: Task) {
    let header = task.header();
    // SAFETY: `ctx` is the erased `&F` this header's trampoline expects,
    // and it stays borrowed (alive) until the job's pending count — which
    // still includes this chunk — reaches zero.
    let outcome = catch_unwind(AssertUnwindSafe(|| unsafe {
        (header.run)(header.ctx, task.chunk)
    }));
    if outcome.is_err() {
        header.panicked.store(true, Ordering::Relaxed);
    }
    if header.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
        // Last chunk: wake the submitter (a fence and a load unless it
        // sleeps). The header is never touched again.
        done.notify(true);
    }
}

/// Executor state shared by the worker lanes and every submitter.
#[derive(Debug)]
pub(crate) struct ExecShared {
    /// The listed jobs, oldest first; never locked while a chunk runs.
    jobs: Mutex<VecDeque<Task>>,
    jobs_submitted: AtomicU64,
    tasks_queued: AtomicU64,
    tasks_taken_by_lanes: AtomicU64,
    tasks_stolen_back: AtomicU64,
    shutdown: AtomicBool,
    /// Parks idle lanes at once: nothing they wait for is running yet.
    idle: EventCount,
    /// Parks joining submitters after polling for `POLL_BOUND`.
    pub(crate) done: EventCount,
}

impl ExecShared {
    pub(crate) fn new() -> Self {
        Self {
            jobs: Mutex::new(VecDeque::with_capacity(16)), // listing never allocates
            jobs_submitted: AtomicU64::new(0),
            tasks_queued: AtomicU64::new(0),
            tasks_taken_by_lanes: AtomicU64::new(0),
            tasks_stolen_back: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            idle: EventCount::new(Duration::ZERO),
            done: EventCount::new(POLL_BOUND),
        }
    }

    /// Nothing panics under the lock, so poison is recoverable.
    fn jobs(&self) -> MutexGuard<'_, VecDeque<Task>> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Lists `header`'s job and wakes the lanes.
    pub(crate) fn submit(&self, header: &JobHeader) {
        let offered = header.chunks - 1;
        self.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        self.tasks_queued
            .fetch_add(offered as u64, Ordering::Relaxed);
        self.jobs().push_back(Task { header, chunk: 0 });
        self.idle.notify(offered > 1);
    }

    /// A lane's claim: the next chunk of the oldest listed job, made
    /// under the list's lock. A job leaves the list once nothing in it is
    /// left to claim, or when its submitter withdraws it.
    fn claim(&self) -> Option<Task> {
        let mut jobs = self.jobs();
        loop {
            let job = *jobs.front()?;
            let header = job.header();
            let claimed = header.claim();
            if header.next.load(Ordering::Relaxed) >= header.chunks {
                jobs.pop_front();
            }
            if let Some(chunk) = claimed {
                return Some(Task { chunk, ..job });
            }
        }
    }

    /// A lane's turn: claims a chunk and runs it; `false` if none was left.
    pub(crate) fn run_one(&self) -> bool {
        let Some(task) = self.claim() else {
            return false;
        };
        self.tasks_taken_by_lanes.fetch_add(1, Ordering::Relaxed);
        execute_task(&self.done, task);
        true
    }

    /// Takes `header`'s job off the list (if a lane has not) for good.
    pub(crate) fn withdraw(&self, header: &JobHeader) {
        let mut jobs = self.jobs();
        if let Some(at) = jobs.iter().position(|job| std::ptr::eq(job.header, header)) {
            jobs.remove(at);
        }
    }

    /// The submitter's side after its inline chunk 0: steals back the
    /// chunks no lane has claimed, withdraws, waits out the rest.
    pub(crate) fn join(&self, header: &JobHeader) {
        header.pending.fetch_sub(1, Ordering::AcqRel);
        while let Some(chunk) = header.claim() {
            self.tasks_stolen_back.fetch_add(1, Ordering::Relaxed);
            execute_task(&self.done, Task { header, chunk });
        }
        self.withdraw(header);
        while !header.joined() {
            self.done.park_if(|| !header.joined());
        }
    }
}

fn worker_loop(shared: &ExecShared) {
    while !shared.shutdown.load(Ordering::Acquire) {
        if !shared.run_one() {
            // The submitter's fence in `EventCount::notify` guarantees we
            // either see its job here or it sees our registration there.
            shared
                .idle
                .park_if(|| shared.jobs().is_empty() && !shared.shutdown.load(Ordering::Acquire));
        }
    }
}

/// Long-lived fork-join executor, shared across decoders and sessions.
///
/// A pool of `lanes` executes fork-join jobs submitted through
/// [`WorkerPool::fork_join`] from any number of threads (`&self`). A
/// one-lane pool spawns no threads at all and executes every job inline
/// with zero synchronization.
///
/// # Example
///
/// ```
/// use asr_decoder::pool::WorkerPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = WorkerPool::new(4);
/// let hits = AtomicUsize::new(0);
/// pool.fork_join(4, &|chunk| {
///     hits.fetch_add(1 << chunk, Ordering::Relaxed);
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 0b1111);
/// ```
#[derive(Debug)]
pub struct WorkerPool {
    shared: Arc<ExecShared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates a pool of `lanes` execution lanes, spawning `lanes - 1`
    /// worker threads (submitters always participate as the extra lane).
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(lanes: usize) -> Self {
        assert!(lanes > 0, "need at least one lane");
        let shared = Arc::new(ExecShared::new());
        let handles = (1..lanes)
            .map(|lane| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("asr-exec-{}", lane - 1))
                    .spawn(move || worker_loop(&shared))
                    // LINT-ALLOW: panic — pool construction, not a frame path.
                    .expect("spawn executor worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// The number of execution lanes (worker threads plus the caller's).
    pub fn lanes(&self) -> usize {
        self.handles.len() + 1
    }

    /// The machine's available parallelism, `1` when it is unknown.
    pub fn default_lanes() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Scheduling counters since construction, for scheduled jobs only
    /// (single-chunk jobs and every job on a one-lane pool run inline).
    pub fn stats(&self) -> WorkerPoolStats {
        let s = &self.shared;
        WorkerPoolStats {
            jobs_submitted: s.jobs_submitted.load(Ordering::Relaxed),
            tasks_queued: s.tasks_queued.load(Ordering::Relaxed),
            tasks_taken_by_lanes: s.tasks_taken_by_lanes.load(Ordering::Relaxed),
            tasks_stolen_back: s.tasks_stolen_back.load(Ordering::Relaxed),
            tasks_helped: 0,
            lane_parks: s.idle.parks.load(Ordering::Relaxed),
            join_parks: s.done.parks.load(Ordering::Relaxed),
        }
    }

    /// Runs `f(chunk)` once for every `chunk in 0..chunks`, across the
    /// pool's lanes and the calling thread, and returns when all chunks
    /// have finished. The caller runs chunk 0 inline, then every chunk no
    /// lane has claimed yet, so a saturated pool degrades to inline
    /// execution. After warm-up nothing is allocated. Chunks must not
    /// call `fork_join` on the same pool (a lane blocked on a nested join
    /// could wait on work only it would execute).
    ///
    /// # Panics
    ///
    /// Re-raises a panic of `f` on any chunk, after every other chunk has
    /// finished (the closure's borrows stay pinned throughout).
    pub fn fork_join<F: Fn(usize) + Sync>(&self, chunks: usize, f: &F) {
        if self.handles.is_empty() || chunks < 2 {
            // No workers (one-lane pool) or nothing to overlap.
            (0..chunks).for_each(f);
            return;
        }
        let header = JobHeader::new(f, chunks);
        self.shared.submit(&header);
        // A panic in chunk 0 must still wait for the other chunks before
        // unwinding releases the borrows they're using.
        let local = catch_unwind(AssertUnwindSafe(|| f(0)));
        self.shared.join(&header);
        if let Err(payload) = local {
            resume_unwind(payload);
        }
        assert!(
            !header.panicked.load(Ordering::Relaxed),
            "worker pool lane panicked"
        );
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // The eventcount's fence orders the shutdown store against each
        // lane's registration, exactly like a job publication.
        self.shared.idle.notify(true);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Checkout/restore accounting for a [`ScratchPool`] (see
/// [`ScratchPool::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchPoolStats {
    /// Checkouts served by allocating a fresh scratch (pool was empty:
    /// first use, or deeper concurrency than ever before).
    pub cold_checkouts: u64,
    /// Checkouts served by a warm scratch from the pool.
    pub warm_checkouts: u64,
    /// Scratches returned to the pool.
    pub restores: u64,
}

impl ScratchPoolStats {
    /// Total checkouts, cold and warm.
    pub fn checkouts(&self) -> u64 {
        self.cold_checkouts + self.warm_checkouts
    }
}

/// A checkout/restore pool of warmed [`DecodeScratch`] working sets.
///
/// The serving runtime holds one of these per decoding graph: every
/// `recognize` call and every session checks a scratch out, and returns
/// it when done. What is pooled is a decode's own part of the search,
/// sized by the active set and the utterance, not by the graph: its one
/// live-token list (16 bytes a token, 128 KB once grown under a
/// 2000-token cap) and its token trace (8 bytes a word-carrying token
/// that expanded, about 9,400 entries at its peak between two lattice
/// GCs under that cap, in a buffer grown to 128 KB). The graph-sized
/// state index and the list a frame fills are one per thread and never
/// pooled. After the pool's high-water mark is reached,
/// the steady state allocates nothing — checkout is a `Vec::pop`,
/// restore a `Vec::push` within capacity, and the scratch itself keeps
/// its lists and its trace grown, so no utterance regrows them (see
/// `tests/alloc_free.rs` and the facade's `facade_alloc` test). The
/// cold/warm split is observable through [`ScratchPool::stats`], so a
/// serving loop can verify it stopped paying cold checkouts.
///
/// Thread-safe: concurrent sessions each pop their own scratch; the
/// mutex is held only for the pop/push itself, and every operation
/// recovers from a poisoned lock (the free list is always valid — a
/// panic can at worst lose the scratch that was checked out).
#[derive(Debug)]
pub struct ScratchPool {
    num_states: usize,
    idle: Mutex<Vec<DecodeScratch>>,
    cold_checkouts: AtomicU64,
    warm_checkouts: AtomicU64,
    restores: AtomicU64,
}

impl ScratchPool {
    /// Creates an empty pool sizing scratches for `num_states`-state
    /// graphs.
    pub fn new(num_states: usize) -> Self {
        Self {
            num_states,
            idle: Mutex::new(Vec::new()),
            cold_checkouts: AtomicU64::new(0),
            warm_checkouts: AtomicU64::new(0),
            restores: AtomicU64::new(0),
        }
    }

    /// Recovers the free list even if a holder of the lock panicked: the
    /// `Vec` push/pop operations inside never leave it invalid.
    fn idle_list(&self) -> MutexGuard<'_, Vec<DecodeScratch>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The state count scratches are sized for.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of scratches currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.idle_list().len()
    }

    /// Checkout/restore counters since construction. In a warmed serving
    /// loop `cold_checkouts` stops growing: every request rides a
    /// restored scratch.
    pub fn stats(&self) -> ScratchPoolStats {
        ScratchPoolStats {
            cold_checkouts: self.cold_checkouts.load(Ordering::Relaxed),
            warm_checkouts: self.warm_checkouts.load(Ordering::Relaxed),
            restores: self.restores.load(Ordering::Relaxed),
        }
    }

    /// Takes a scratch out of the pool, allocating a fresh one only when
    /// the pool is empty (first use, or more concurrent checkouts than
    /// ever before). The cold/warm split is recorded in
    /// [`ScratchPool::stats`].
    pub fn checkout(&self) -> DecodeScratch {
        let recycled = self.idle_list().pop();
        match recycled {
            Some(scratch) => {
                self.warm_checkouts.fetch_add(1, Ordering::Relaxed);
                scratch
            }
            None => {
                self.cold_checkouts.fetch_add(1, Ordering::Relaxed);
                DecodeScratch::new(self.num_states)
            }
        }
    }

    /// Returns a scratch to the pool for the next checkout to reuse.
    pub fn restore(&self, scratch: DecodeScratch) {
        self.restores.fetch_add(1, Ordering::Relaxed);
        self.idle_list().push(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    /// Blocks until `cond()` holds. The deadline is no measurement: it
    /// only turns a lost wakeup into a failure instead of a hang.
    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A two-chunk job whose chunk 1 is certain to run on the lane:
    /// chunk 0 keeps the submitter (the only other claimer) busy until
    /// chunk 1 has started, then runs `search`; chunk 1 runs `score`.
    fn overlap(pool: &WorkerPool, search: impl Fn() + Sync, score: impl Fn() + Sync) {
        let started = AtomicBool::new(false);
        pool.fork_join(2, &|chunk| {
            if chunk == 0 {
                wait_for("the lane to take chunk 1", || {
                    started.load(Ordering::SeqCst)
                });
                search();
            } else {
                started.store(true, Ordering::SeqCst);
                score();
            }
        });
    }

    #[test]
    fn every_chunk_runs_exactly_once() {
        let pool = WorkerPool::new(4);
        let mask = AtomicUsize::new(0);
        pool.fork_join(4, &|chunk| {
            let prev = mask.fetch_or(1 << chunk, Ordering::SeqCst);
            assert_eq!(prev & (1 << chunk), 0, "chunk {chunk} ran twice");
        });
        assert_eq!(mask.load(Ordering::SeqCst), 0b1111);
    }

    #[test]
    fn fork_join_is_a_barrier_between_jobs() {
        let pool = WorkerPool::new(3);
        let counter = AtomicUsize::new(0);
        for round in 0..50 {
            pool.fork_join(3, &|_| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(counter.load(Ordering::SeqCst), (round + 1) * 3);
        }
    }

    #[test]
    fn more_chunks_than_lanes_all_run() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        pool.fork_join(10, &|_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn single_lane_pool_runs_inline_without_threads() {
        let pool = WorkerPool::new(1);
        let thread_id = std::thread::current().id();
        let ran = AtomicUsize::new(0);
        pool.fork_join(3, &|_| {
            assert_eq!(std::thread::current().id(), thread_id);
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 3);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        WorkerPool::new(0);
    }

    #[test]
    fn chunk_panic_propagates_to_submitter() {
        let outcome = catch_unwind(|| {
            let pool = WorkerPool::new(2);
            pool.fork_join(2, &|chunk| {
                if chunk == 1 {
                    panic!("chunk failure");
                }
            });
        });
        assert!(outcome.is_err());
    }

    #[test]
    fn pool_survives_a_panicked_job() {
        let pool = WorkerPool::new(2);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            pool.fork_join(2, &|chunk| {
                if chunk == 1 {
                    panic!("transient failure");
                }
            });
        }));
        // The pool still works after the failed job.
        let counter = AtomicUsize::new(0);
        pool.fork_join(2, &|_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn concurrent_submitters_share_one_pool() {
        let pool = WorkerPool::new(3);
        let total = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        let local = AtomicUsize::new(0);
                        pool.fork_join(3, &|_| {
                            local.fetch_add(1, Ordering::SeqCst);
                            total.fetch_add(1, Ordering::SeqCst);
                        });
                        // The join is per job even with three other
                        // submitters listing jobs on the same pool.
                        assert_eq!(local.load(Ordering::SeqCst), 3);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 4 * 25 * 3);
    }

    #[test]
    fn helping_submitters_preserve_task_ownership_accounting() {
        const SUBMITTERS: usize = 4;
        const JOBS: usize = 50;
        // (lanes, chunks per job): one worker lane, then a pool wider
        // than two lanes with more chunks than lanes.
        for (lanes, chunks) in [(2usize, 4usize), (3, 7)] {
            let pool = WorkerPool::new(lanes);
            std::thread::scope(|scope| {
                for _ in 0..SUBMITTERS {
                    scope.spawn(|| {
                        for _ in 0..JOBS {
                            let ran: Vec<AtomicUsize> =
                                (0..chunks).map(|_| AtomicUsize::new(0)).collect();
                            pool.fork_join(chunks, &|chunk| {
                                ran[chunk].fetch_add(1, Ordering::SeqCst);
                            });
                            for (chunk, count) in ran.iter().enumerate() {
                                assert_eq!(
                                    count.load(Ordering::SeqCst),
                                    1,
                                    "lanes {lanes}: chunk {chunk} ran a wrong number of times"
                                );
                            }
                        }
                    });
                }
            });
            let stats = pool.stats();
            let queued = (SUBMITTERS * JOBS * (chunks - 1)) as u64;
            assert_eq!(stats.jobs_submitted, (SUBMITTERS * JOBS) as u64);
            assert_eq!(stats.tasks_queued, queued);
            // Every offered chunk ran on exactly one side: a lane, or
            // its own submitter (steal-back). A submitter waiting on its
            // join no longer helps with another submitter's job.
            assert_eq!(
                stats.tasks_taken_by_lanes + stats.tasks_stolen_back,
                queued,
                "lanes {lanes}"
            );
            assert_eq!(stats.tasks_helped, 0, "lanes {lanes}");
        }
    }

    #[test]
    fn counters_track_jobs_and_task_ownership() {
        let pool = WorkerPool::new(2);
        // The idle lane parks as soon as it starts, before or after this
        // thread's first look: wait for the park, then every other
        // counter must still read zero.
        wait_for("the idle lane to park", || pool.stats().lane_parks >= 1);
        let fresh = pool.stats();
        let parked = WorkerPoolStats {
            lane_parks: fresh.lane_parks,
            ..WorkerPoolStats::default()
        };
        assert_eq!(fresh, parked);
        for _ in 0..20 {
            pool.fork_join(4, &|_| {});
        }
        let stats = pool.stats();
        assert_eq!(stats.jobs_submitted, 20);
        assert_eq!(stats.tasks_queued, 20 * 3, "chunk 0 is never queued");
        // Every offered chunk was retired by exactly one side.
        assert_eq!(
            stats.tasks_taken_by_lanes + stats.tasks_stolen_back,
            stats.tasks_queued
        );
        assert_eq!(stats.tasks_helped, 0);
    }

    #[test]
    fn inline_paths_do_not_touch_the_scheduler() {
        // One-lane pool: every job runs inline, nothing is counted.
        let one = WorkerPool::new(1);
        one.fork_join(8, &|_| {});
        assert_eq!(one.stats(), WorkerPoolStats::default());
        // Single-chunk jobs skip the queue even on a multi-lane pool. Its
        // idle lane parks on its own schedule; every other counter is 0.
        let two = WorkerPool::new(2);
        two.fork_join(1, &|_| {});
        wait_for("the idle lane to park", || two.stats().lane_parks >= 1);
        let stats = two.stats();
        let parked = WorkerPoolStats {
            lane_parks: stats.lane_parks,
            ..WorkerPoolStats::default()
        };
        assert_eq!(stats, parked);
    }

    #[test]
    fn scratch_pool_recycles() {
        let pool = ScratchPool::new(256);
        assert_eq!(pool.idle(), 0);
        let a = pool.checkout();
        let b = pool.checkout();
        pool.restore(a);
        pool.restore(b);
        assert_eq!(pool.idle(), 2);
        let _c = pool.checkout();
        assert_eq!(pool.idle(), 1, "checkout reuses an idle scratch");
    }

    #[test]
    fn scratch_pool_stats_split_cold_from_warm() {
        let pool = ScratchPool::new(64);
        let a = pool.checkout();
        let b = pool.checkout();
        assert_eq!(
            pool.stats(),
            ScratchPoolStats {
                cold_checkouts: 2,
                warm_checkouts: 0,
                restores: 0
            }
        );
        pool.restore(a);
        pool.restore(b);
        let c = pool.checkout();
        pool.restore(c);
        let stats = pool.stats();
        assert_eq!(stats.cold_checkouts, 2, "warm pool stops allocating");
        assert_eq!(stats.warm_checkouts, 1);
        assert_eq!(stats.restores, 3);
        assert_eq!(stats.checkouts(), 3);
    }

    #[test]
    fn scratch_pool_recovers_from_a_poisoned_lock() {
        let pool = ScratchPool::new(16);
        pool.restore(DecodeScratch::new(16));
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let _guard = pool.idle.lock().expect("not yet poisoned");
                panic!("poison the scratch pool lock");
            });
            assert!(handle.join().is_err());
        });
        assert!(pool.idle.lock().is_err(), "lock is poisoned");
        // Every operation keeps serving through the recovered guard.
        assert_eq!(pool.idle(), 1);
        let scratch = pool.checkout();
        pool.restore(scratch);
        assert_eq!(pool.idle(), 1);
        assert_eq!(pool.stats().warm_checkouts, 1);
    }

    #[test]
    fn waiters_that_outlast_the_poll_window_park_and_are_woken() {
        let pool = WorkerPool::new(2);
        // Nothing to do: the lane has no window and sleeps at once.
        wait_for("the idle lane to park", || pool.stats().lane_parks >= 1);
        // The submit wakes it (chunk 1 cannot run anywhere else), and
        // chunk 1 holds the join open until the submitter has polled out
        // its window and sleeps; its completion must wake that too.
        let lane_parks = AtomicU64::new(u64::MAX);
        overlap(
            &pool,
            || {},
            || {
                lane_parks.store(pool.stats().lane_parks, Ordering::SeqCst);
                wait_for("the submitter to park", || pool.stats().join_parks >= 1);
            },
        );
        let stats = pool.stats();
        assert_eq!(
            (stats.tasks_taken_by_lanes, stats.tasks_stolen_back),
            (1, 0)
        );
        // After an idle gap the lane is asleep again.
        wait_for("the lane to park again", || {
            pool.stats().lane_parks > lane_parks.load(Ordering::SeqCst)
        });
    }

    #[test]
    fn a_join_that_is_already_complete_never_parks() {
        let pool = WorkerPool::new(2);
        // Chunk 0 outlasts chunk 1 by so much that the lane has retired
        // it *and* gone back to sleep: the submitter finds its join done.
        let lane_parks = AtomicU64::new(u64::MAX);
        overlap(
            &pool,
            || {
                wait_for("the lane to finish chunk 1 and park", || {
                    pool.stats().lane_parks > lane_parks.load(Ordering::SeqCst)
                });
            },
            || lane_parks.store(pool.stats().lane_parks, Ordering::SeqCst),
        );
        assert_eq!(pool.stats().join_parks, 0);
    }

    #[test]
    fn lane_panic_reaches_a_parked_submitter_after_the_barrier() {
        let pool = WorkerPool::new(2);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            overlap(
                &pool,
                || {},
                || {
                    wait_for("the submitter to park", || pool.stats().join_parks >= 1);
                    panic!("chunk failure under a sleeping submitter");
                },
            );
        }));
        assert!(outcome.is_err());
        assert!(pool.stats().join_parks >= 1, "the submitter never slept");
        let ran = AtomicUsize::new(0);
        pool.fork_join(2, &|_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn an_idle_lane_parks_without_polling() {
        const GAPS: u64 = 5;
        let pool = WorkerPool::new(2);
        assert_eq!(pool.shared.idle.poll_bound, Duration::ZERO);
        wait_for("the idle lane to park", || pool.stats().lane_parks >= 1);
        for gap in 1..=GAPS {
            // The lane retires chunk 1 and is asleep again while the
            // submitter is still inside chunk 0: one park per idle gap.
            overlap(
                &pool,
                || {
                    wait_for("the lane to park after chunk 1", || {
                        pool.stats().lane_parks > gap
                    });
                },
                || {},
            );
        }
        let stats = pool.stats();
        assert_eq!(stats.lane_parks, GAPS + 1);
        assert_eq!(stats.tasks_taken_by_lanes, GAPS);
        // Shutdown reaches a lane that is asleep, not polling.
        let dropper = std::thread::spawn(move || drop(pool));
        wait_for("the parked lane to see the shutdown", || {
            dropper.is_finished()
        });
        dropper.join().expect("drop");
    }

    #[test]
    fn a_parked_lane_still_takes_the_short_chunk() {
        const JOBS: u64 = 20;
        // Leaked if the test fails: a lane stranded by a lost wakeup
        // would hang the drop.
        let pool = std::mem::ManuallyDrop::new(WorkerPool::new(2));
        for job in 1..=JOBS {
            // With nothing listed the lane sleeps between jobs.
            wait_for("the lane to park", || pool.stats().lane_parks >= job);
            // The submit must wake it: chunk 0 returns only once the lane
            // has claimed chunk 1, and then checks that the lane had
            // slept since its last chunk.
            let parks = AtomicU64::new(0);
            overlap(
                &pool,
                || assert!(parks.load(Ordering::SeqCst) >= job, "job {job}"),
                || parks.store(pool.stats().lane_parks, Ordering::SeqCst),
            );
        }
        let stats = pool.stats();
        assert_eq!(
            (stats.tasks_taken_by_lanes, stats.tasks_stolen_back),
            (JOBS, 0)
        );
        drop(std::mem::ManuallyDrop::into_inner(pool));
    }

    /// CPU time this process's threads have run, in us: the first field
    /// of every `/proc/self/task/*/schedstat`, the source the benchmark's
    /// `cpu_s_per_audio_s` reads.
    fn process_cpu_us() -> f64 {
        let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task");
        tasks
            .filter_map(|task| {
                let stat = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
                stat.split_whitespace().next()?.parse::<f64>().ok()
            })
            .sum::<f64>()
            / 1e3
    }

    /// CPU time the calling thread has run, in us.
    fn thread_cpu_us() -> f64 {
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat").expect("schedstat");
        stat.split_whitespace()
            .next()
            .and_then(|ns| ns.parse::<f64>().ok())
            .expect("ns")
            / 1e3
    }

    /// `just handoff`: what the executor adds to one overlapped frame on
    /// a `lanes(2)` pool. Two calibrated spin chunks stand in for the
    /// search (chunk 0) and the scoring row (chunk 1) of
    /// `voice_2s_overlap`, either one the longer, with 5 us between
    /// joins; the last shape runs today's frame from two submitter
    /// threads at once, which no workload does (what a second driver
    /// thread would pay). Prints, per join, the wall us beyond the longer
    /// chunk (best of three rounds), the CPU us beyond the work spun (all
    /// three rounds), how often the lane and a submitter slept and how
    /// often a chunk was stolen back.
    #[test]
    #[ignore = "a probe, not a check: run with --ignored --nocapture"]
    fn handoff_cost() {
        const JOINS: u32 = 4000;
        const ROUNDS: u32 = 3;
        const GAP_US: u64 = 5;
        fn spin(us: u64) {
            let start = Instant::now();
            while start.elapsed() < Duration::from_micros(us) {
                std::hint::spin_loop();
            }
        }
        println!(
            "submitters search||score_us wall_us cpu_us lane_parks join_parks stolen_back (per join)"
        );
        for (submitters, search_us, score_us) in [(1u32, 70, 25), (1, 25, 70), (2, 70, 25)] {
            let pool = WorkerPool::new(2);
            let submit = || {
                for _ in 0..JOINS {
                    pool.fork_join(2, &|chunk| {
                        spin(if chunk == 0 { search_us } else { score_us });
                    });
                    spin(GAP_US);
                }
            };
            // This thread is the first submitter; a second one reports
            // its own CPU, which leaves /proc/self/task when it exits.
            let second_cpu = std::cell::Cell::new(0.0);
            let round = || {
                let start = Instant::now();
                std::thread::scope(|scope| {
                    let second = (submitters > 1).then(|| {
                        scope.spawn(|| {
                            let before = thread_cpu_us();
                            submit();
                            thread_cpu_us() - before
                        })
                    });
                    submit();
                    let cpu = second.map_or(0.0, |thread| thread.join().expect("submitter"));
                    second_cpu.set(second_cpu.get() + cpu);
                });
                start.elapsed().as_secs_f64() * 1e6 / f64::from(JOINS)
            };
            let cpu_before = process_cpu_us();
            let best = (0..ROUNDS).map(|_| round()).fold(f64::INFINITY, f64::min);
            let cpu = process_cpu_us() - cpu_before + second_cpu.get();
            let stats = pool.stats();
            let per_join = |count: f64| count / f64::from(ROUNDS * JOINS * submitters);
            println!(
                "{submitters:>10} {search_us:>9}||{score_us:<3} {:>8.1} {:>6.1} {:>10.3} {:>10.3} {:>11.3}",
                best - (GAP_US + search_us.max(score_us)) as f64,
                per_join(cpu) - (GAP_US + search_us + score_us) as f64,
                per_join(stats.lane_parks as f64),
                per_join(stats.join_parks as f64),
                per_join(stats.tasks_stolen_back as f64),
            );
        }
    }
}
