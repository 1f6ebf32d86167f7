//! Persistent resources for the serving path: a lock-free fork-join
//! executor and a checkout/restore pool of [`DecodeScratch`] working
//! sets.
//!
//! The paper's accelerator serves recognition as a *shared* resource: one
//! datapath multiplexed across the whole workload, with everything warm —
//! tables, DMA buffers, the GPU's score batches all persist across
//! utterances (Section VI). This module gives the software decoders the
//! same properties:
//!
//! * [`WorkerPool`] is a long-lived **lock-free fork-join executor** with
//!   exactly one task queue: a bounded MPMC ring, shared by any number of
//!   concurrent submitters through `&self`. A fork-join job's chunk tasks
//!   are pushed to the ring; worker lanes pop them, and the submitting
//!   thread executes chunk 0 inline then *helps*: while its join is
//!   pending it pops the same ring and executes whatever it gets — its
//!   own still-queued chunks (steal-back) or another job's (counted
//!   separately) — so a busy pool degrades gracefully to inline
//!   execution instead of queueing up. No mutex guards the queue, and
//!   nothing blocks except in one primitive used twice: an eventcount
//!   parking idle lanes, another (polling first) for submitters waiting
//!   out a join. [`WorkerPool::stats`] and [`WorkerPool::queue_depth`] are
//!   lock-free reads of relaxed atomics, so observing the executor never
//!   contends with the scheduler it is measuring.
//! * [`ScratchPool`] recycles warmed [`DecodeScratch`] working sets, so a
//!   serving facade that decodes request after request performs zero
//!   steady-state allocations in the frame loop: checkout pops a warm
//!   scratch, restore pushes it back. [`ScratchPool::stats`] exposes the
//!   cold/warm checkout split, and every operation recovers from a
//!   poisoned lock (a panicked decode must not brick the pool).
//!
//! # Why one ring suffices
//!
//! The paper's stages hand work to each other through single hardware
//! FIFOs, and this executor's one tenant has the same shape: a session's
//! score/search overlap is a non-recursive job (a task never forks) of
//! exactly 2 chunks, arriving at frame rate. Per-lane work-stealing
//! deques pay for themselves on fine-grained, recursively spawned
//! tasks; here every queued chunk is already poppable by every lane and
//! every helping submitter, so a per-lane structure would only add a hop
//! between them (measured: ARCHITECTURE.md, "Why one ring").
//!
//! # Poll, then park — only where the work is already running
//!
//! Section VI hands batch *i + 1*'s scores to the search with no
//! operating system in between, but a frame has two waiters and only one
//! of them waits on something that is already under way. The submitter
//! whose search chunk beat the scoring chunk waits on a chunk a lane is
//! running, so it polls before it sleeps: a sleeping submitter costs the
//! frame a futex wake and a reschedule. A lane between two `fork_join`s
//! waits for work nobody has submitted yet, so it parks at once: its
//! wake on the next submit hides behind the submitter's own chunk 0, and
//! a lane that is late only loses its chunk to steal-back. While nobody
//! sleeps a wake is a fence and a load (measured: ARCHITECTURE.md,
//! "Poll, then park").
//!
//! # Memory ordering
//!
//! The queue is a Vyukov bounded MPMC ring: each slot carries a sequence
//! number that producers and consumers claim by CAS on the ring indices
//! and hand over with release/acquire pairs on the sequence itself. A
//! slot's payload is written only between the producer's winning CAS on
//! `tail` and its release store of the sequence, and read only between
//! the consumer's winning CAS on `head` and its release store freeing the
//! slot, so exactly one thread touches a payload at a time and the last
//! queued task goes to exactly one popper (model-checked in
//! `model_check.rs`).

use crate::search::DecodeScratch;
use crate::sync::{
    fence, poll_while, AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, MutexGuard, Ordering,
};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// One fork-join job in flight: the erased closure plus its completion
/// state. Lives on the submitting thread's stack for the duration of
/// [`WorkerPool::fork_join`], which does not return until `pending`
/// reaches zero — the invariant that makes the raw pointers in [`Task`]
/// sound. Every queued task is executed exactly once (the submitter
/// *helps* rather than removing entries), so no queue can still hold a
/// reference to the header once `pending` is zero.
pub(crate) struct JobHeader {
    /// Trampoline recovering the concrete closure type.
    run: unsafe fn(*const (), usize),
    /// The borrowed closure, erased.
    ctx: *const (),
    /// Chunks not yet finished executing.
    pending: AtomicUsize,
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
            pending: AtomicUsize::new(chunks),
            panicked: AtomicBool::new(false),
        }
    }

    /// Every chunk has finished executing.
    pub(crate) fn joined(&self) -> bool {
        self.pending.load(Ordering::Acquire) == 0
    }
}

/// A schedulable unit: one chunk of one job.
#[derive(Clone, Copy)]
pub(crate) struct Task {
    pub(crate) header: *const JobHeader,
    pub(crate) chunk: u32,
}

// SAFETY: the header pointer crosses threads, but a task exists in the
// queue only while its job's `fork_join` call is blocked on the stack
// that owns the header.
unsafe impl Send for Task {}

/// Scheduling counters accumulated with relaxed atomics on the lock-free
/// hot paths — the executor's observable saturation signal (see
/// [`WorkerPool::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerPoolStats {
    /// Fork-join jobs whose chunk tasks entered the shared queue
    /// (single-chunk jobs and every job on a one-lane pool run inline
    /// without touching the scheduler, and are not counted).
    pub jobs_submitted: u64,
    /// Chunk tasks pushed toward the ring (chunk 0 of every job runs
    /// inline on its submitter and is never queued).
    pub tasks_queued: u64,
    /// Tasks a worker lane popped and executed, rather than a submitter.
    pub tasks_taken_by_lanes: u64,
    /// Tasks of a submitter's *own* job the submitter executed itself
    /// (steal-back) because no lane had picked them up — a direct
    /// saturation signal: a busy pool degrades its submitters to inline
    /// execution.
    pub tasks_stolen_back: u64,
    /// Tasks of *other* jobs a blocked submitter executed while waiting
    /// for its own join — submitters are work-conserving helpers, not
    /// idle waiters.
    pub tasks_helped: u64,
    /// Times an idle lane found the ring empty and really slept. Lanes do
    /// not poll for work, so this is about one per job whenever the
    /// submitter's chunk 0 outlasts the lane's chunk (≈ 1 per job on
    /// `voice_2s_overlap`); the next submitter pays a futex wake, and
    /// steals its chunk back (above) if the lane is slow to get up.
    pub lane_parks: u64,
    /// Times a submitter outlasted its poll window waiting for a join
    /// and really slept; the lane finishing the job pays the wake.
    pub join_parks: u64,
    /// Deepest the ring has been, in tasks, sampled at each job
    /// submission.
    pub peak_queue_depth: usize,
}

/// Relaxed atomic counters behind [`WorkerPoolStats`] (the two park
/// counts live in their eventcounts); every update is a single
/// `fetch_add`/`fetch_max` on the path that already owns the event, so
/// observing them never takes a lock.
#[derive(Default)]
struct PoolCounters {
    jobs_submitted: AtomicU64,
    tasks_queued: AtomicU64,
    tasks_taken_by_lanes: AtomicU64,
    tasks_stolen_back: AtomicU64,
    tasks_helped: AtomicU64,
    peak_queue_depth: AtomicUsize,
}

/// Capacity of the task ring (power of two). A full ring degrades the
/// submitter to inline execution of the overflow chunk — the same
/// graceful saturation behavior as steal-back.
const INJECTOR_CAP: usize = 1024;

/// One slot of the Vyukov MPMC ring: a sequence stamp plus the task
/// payload. `seq == index` means free for the producer claiming
/// `tail == index`; `seq == index + 1` means filled for the consumer
/// claiming `head == index`.
struct RingSlot {
    seq: AtomicUsize,
    header: AtomicU64,
    chunk: AtomicU64,
}

/// Bounded lock-free MPMC queue (Vyukov): producers CAS `tail`,
/// consumers CAS `head`, and each slot's sequence number hands the
/// payload across with a release store / acquire load pair.
pub(crate) struct Injector {
    head: AtomicUsize,
    tail: AtomicUsize,
    /// `capacity - 1`; capacity is a power of two.
    mask: usize,
    slots: Box<[RingSlot]>,
}

impl Injector {
    fn new() -> Self {
        Self::with_capacity(INJECTOR_CAP)
    }

    /// A ring with a caller-chosen power-of-two capacity — the model-
    /// check harnesses shrink it to 2 so the full-ring helping path is
    /// reachable within the exploration budget.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        assert!(
            cap.is_power_of_two() && cap >= 2,
            "capacity must be a power of two >= 2"
        );
        Self {
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            mask: cap - 1,
            slots: (0..cap)
                .map(|seq| RingSlot {
                    seq: AtomicUsize::new(seq),
                    header: AtomicU64::new(0),
                    chunk: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Approximate number of queued tasks (exact when quiescent).
    pub(crate) fn len(&self) -> usize {
        let t = self.tail.load(Ordering::Relaxed);
        let h = self.head.load(Ordering::Relaxed);
        t.saturating_sub(h)
    }

    /// Enqueue; returns `false` when the ring is full.
    pub(crate) fn push(&self, task: Task) -> bool {
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                match self.tail.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        slot.header
                            .store(task.header as usize as u64, Ordering::Relaxed);
                        slot.chunk.store(u64::from(task.chunk), Ordering::Relaxed);
                        // Hand the filled slot to the consumer side.
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return true;
                    }
                    Err(found) => pos = found,
                }
            } else if diff < 0 {
                // The slot is still occupied by an unconsumed task from
                // the previous lap: the ring is full.
                return false;
            } else {
                pos = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeue; returns `None` when the ring is empty.
    pub(crate) fn pop(&self) -> Option<Task> {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - (pos.wrapping_add(1)) as isize;
            if diff == 0 {
                match self.head.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let task = Task {
                            header: slot.header.load(Ordering::Relaxed) as usize
                                as *const JobHeader,
                            chunk: slot.chunk.load(Ordering::Relaxed) as u32,
                        };
                        // Free the slot for the producers' next lap.
                        slot.seq
                            .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                        return Some(task);
                    }
                    Err(found) => pos = found,
                }
            } else if diff < 0 {
                return None;
            } else {
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }
}

/// How long a submitter polls for its join before it sleeps. Only the
/// join wait polls: a lane waiting for the next submit parks at once
/// (`lane_parks` ≈ 1 per job on `voice_2s_overlap`). On that workload
/// the scoring row (~24 us) is the short side of a ~70 us search step,
/// so most joins find the lane's chunk retired and never wait; one that
/// does (a short early-utterance search frame, a lane slow to get up)
/// waits at most a row, well inside the window, and a wait that ends
/// costs only the poll it took. The bound was sized when the row was
/// ~250 us, as the smallest within 2 % of the best throughput; nothing
/// on today's frame comes near it (ARCHITECTURE.md, "Poll, then park").
const POLL_BOUND: Duration = Duration::from_micros(200);

/// An eventcount: the executor's one blocking primitive, poll-then-park.
///
/// A waiter first polls its own sleep condition for up to `poll_bound`
/// (which may be zero) without telling anyone. Only if the condition
/// outlasts the window does it register in `sleepers`, fence, re-check,
/// and take the (data-free) parking mutex to wait. Notifiers publish
/// their work first, then call [`EventCount::notify`], whose `SeqCst`
/// fence pairs with the waiter's: either the notifier observes the
/// registration (and signals under the lock), or the waiter's
/// post-registration re-check observes the published work. The
/// lost-wakeup freedom of exactly this protocol is model-checked in
/// `model_check.rs`.
pub(crate) struct EventCount {
    /// Threads registered as parked or about to park.
    sleepers: AtomicUsize,
    /// Times a thread really went to sleep here.
    parks: AtomicU64,
    /// Parking lot only; guards no data.
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

    /// The parking mutex guards no data at all, so recovering from
    /// poison is trivially safe.
    fn lot(&self) -> MutexGuard<'_, ()> {
        self.lock.lock().unwrap_or_else(PoisonError::into_inner)
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
        let _guard = self.lot();
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
            let guard = self.lot();
            if should_sleep() {
                self.parks.fetch_add(1, Ordering::Relaxed);
                let _unused = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
            }
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Executor state shared by the worker lanes and every submitter. The
/// queue and counters are lock-free; the only mutexes are the parking
/// lots inside the two eventcounts, reached only by a waiter about to
/// sleep and the notifier waking it, and never held while a task runs
/// or the queue is touched.
struct ExecShared {
    /// The one task queue: every chunk is pushed here by its submitter
    /// and popped by a lane or a helping submitter.
    injector: Injector,
    counters: PoolCounters,
    shutdown: AtomicBool,
    /// Eventcount parking idle lanes until work or shutdown arrives; no
    /// poll window, since nothing it waits for is running yet.
    idle: EventCount,
    /// Eventcount parking submitters until their join completes, after
    /// polling for `POLL_BOUND`.
    done: EventCount,
}

impl ExecShared {
    fn queue_depth(&self) -> usize {
        self.injector.len()
    }

    fn has_work(&self) -> bool {
        self.queue_depth() > 0
    }

    fn stats(&self) -> WorkerPoolStats {
        let c = &self.counters;
        WorkerPoolStats {
            jobs_submitted: c.jobs_submitted.load(Ordering::Relaxed),
            tasks_queued: c.tasks_queued.load(Ordering::Relaxed),
            tasks_taken_by_lanes: c.tasks_taken_by_lanes.load(Ordering::Relaxed),
            tasks_stolen_back: c.tasks_stolen_back.load(Ordering::Relaxed),
            tasks_helped: c.tasks_helped.load(Ordering::Relaxed),
            lane_parks: self.idle.parks.load(Ordering::Relaxed),
            join_parks: self.done.parks.load(Ordering::Relaxed),
            peak_queue_depth: c.peak_queue_depth.load(Ordering::Relaxed),
        }
    }

    /// Wake parked lanes after publishing work (see [`EventCount`]).
    fn notify_workers(&self, all: bool) {
        self.idle.notify(all);
    }
}

/// Runs one task and retires it: panics are recorded on the job, the
/// pending count drops, and the last task wakes the job's submitter if
/// it is parked on `done`.
pub(crate) fn execute_task(done: &EventCount, task: Task) {
    // SAFETY: the job header (and the closure it points to) outlives the
    // task: `fork_join` keeps both alive until `pending` reaches zero,
    // which cannot happen before this function's `fetch_sub`.
    let header = unsafe { &*task.header };
    // SAFETY: `ctx` is the erased `&F` this header's trampoline expects,
    // and it stays borrowed (alive) until the job's pending count — which
    // still includes this task — reaches zero.
    let outcome = catch_unwind(AssertUnwindSafe(|| unsafe {
        (header.run)(header.ctx, task.chunk as usize)
    }));
    if outcome.is_err() {
        header.panicked.store(true, Ordering::Relaxed);
    }
    if header.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
        // Last task: the zero is published, so wake the submitter (a
        // fence and a load unless it really sleeps). The job header is
        // never touched again: `done` belongs to the pool.
        done.notify(true);
    }
}

fn worker_loop(shared: &ExecShared) {
    while !shared.shutdown.load(Ordering::Acquire) {
        if let Some(task) = shared.injector.pop() {
            shared
                .counters
                .tasks_taken_by_lanes
                .fetch_add(1, Ordering::Relaxed);
            execute_task(&shared.done, task);
            continue;
        }
        // Park: register, fence, re-check, sleep — the producer's fence
        // in `notify_workers` guarantees we either see its push here or
        // it sees our registration there.
        shared
            .idle
            .park_if(|| !shared.has_work() && !shared.shutdown.load(Ordering::Acquire));
    }
}

/// Long-lived lock-free fork-join executor, shared across decoders and
/// sessions.
///
/// A pool of `lanes` executes fork-join jobs submitted through
/// [`WorkerPool::fork_join`] **by any number of threads concurrently**
/// (`&self`): each job's chunk tasks go to one bounded MPMC ring, worker
/// lanes pop them, and the submitting thread runs chunk 0 inline then
/// *helps* until its join completes — popping the same ring and
/// executing its own still-queued chunks (steal-back) or, under
/// contention, other jobs' chunks. Concurrent requests therefore *share*
/// all lanes — the paper's one-datapath-many-users serving shape —
/// instead of each request serializing behind a private pool, and no
/// queue operation ever takes a lock.
///
/// A one-lane pool spawns no threads at all and executes every job
/// inline with zero synchronization.
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
pub struct WorkerPool {
    shared: Arc<ExecShared>,
    handles: Vec<JoinHandle<()>>,
    lanes: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("lanes", &self.lanes)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Creates a pool of `lanes` execution lanes, spawning `lanes - 1`
    /// worker threads (submitters always participate as the extra lane).
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(lanes: usize) -> Self {
        Self::with_lane_window(lanes, Duration::ZERO)
    }

    /// [`WorkerPool::new`] with idle lanes polling for `lane_window`
    /// before they park, for the handoff probe.
    fn with_lane_window(lanes: usize, lane_window: Duration) -> Self {
        assert!(lanes > 0, "need at least one lane");
        let workers = lanes - 1;
        let shared = Arc::new(ExecShared {
            injector: Injector::new(),
            counters: PoolCounters::default(),
            shutdown: AtomicBool::new(false),
            idle: EventCount::new(lane_window),
            done: EventCount::new(POLL_BOUND),
        });
        let handles = (0..workers)
            .map(|lane| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("asr-exec-{lane}"))
                    .spawn(move || worker_loop(&shared))
                    // LINT-ALLOW: panic — pool construction, not a frame path.
                    .expect("spawn executor worker")
            })
            .collect();
        Self {
            shared,
            handles,
            lanes,
        }
    }

    /// The number of execution lanes (worker threads plus the
    /// submitter's inline lane).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The default lane count for this machine: the available hardware
    /// parallelism, `1` when it cannot be determined.
    pub fn default_lanes() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Tasks currently waiting in the ring — the executor's live
    /// saturation gauge, read lock-free so an observer never contends
    /// with the hot path it is measuring. A pool keeping up reads `0` almost always: chunks are
    /// popped as fast as submitters publish them. Sustained depth means
    /// offered load exceeds lane capacity.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue_depth()
    }

    /// Scheduling counters since construction: jobs and tasks through
    /// the ring, who retired each task (a lane, its own submitter, a
    /// helping submitter), how often a lane or a submitter really slept,
    /// and the peak queue depth — a lock-free snapshot of relaxed
    /// atomics. Counters cover scheduled jobs only — single-chunk jobs
    /// and every job on a one-lane pool run inline without touching the
    /// queue.
    pub fn stats(&self) -> WorkerPoolStats {
        self.shared.stats()
    }

    /// Runs `f(chunk)` once for every `chunk in 0..chunks`, across the
    /// pool's lanes and the calling thread, and returns when all chunks
    /// have finished — the barrier under a session's score/search
    /// overlap.
    ///
    /// The call is safe to issue from any number of threads at once:
    /// chunks from concurrent jobs interleave in the one ring and idle
    /// lanes pop whatever is at its head. The caller always executes
    /// chunk 0 inline, then *helps* until its join completes: it pops
    /// the same ring, executing its own still-queued chunks if no lane
    /// picked them up and other jobs' chunks otherwise, so a saturated
    /// pool degrades to inline execution rather than blocking. After
    /// warm-up the steady state performs no heap allocation.
    ///
    /// Tasks must not themselves call `fork_join` on the same pool (the
    /// sessions never do): a worker blocked on a nested join could wait
    /// on work only it would execute.
    ///
    /// # Panics
    ///
    /// Re-raises a panic if `f` panicked on any chunk — after every other
    /// chunk has finished, so data borrowed by the closure stays pinned
    /// throughout.
    pub fn fork_join<F: Fn(usize) + Sync>(&self, chunks: usize, f: &F) {
        if chunks == 0 {
            return;
        }
        if self.handles.is_empty() || chunks == 1 {
            // No workers (one-lane pool) or nothing to overlap: run
            // inline with zero synchronization.
            for chunk in 0..chunks {
                f(chunk);
            }
            return;
        }
        let header = JobHeader::new(f, chunks);
        let counters = &self.shared.counters;
        counters.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        counters
            .tasks_queued
            .fetch_add((chunks - 1) as u64, Ordering::Relaxed);
        for chunk in 1..chunks {
            let task = Task {
                header: &header,
                chunk: chunk as u32,
            };
            if !self.shared.injector.push(task) {
                // Ring full: degrade this chunk to inline execution,
                // accounted as an instant steal-back.
                counters.tasks_stolen_back.fetch_add(1, Ordering::Relaxed);
                execute_task(&self.shared.done, task);
            }
        }
        counters
            .peak_queue_depth
            .fetch_max(self.shared.queue_depth(), Ordering::Relaxed);
        self.shared.notify_workers(chunks > 2);
        // Chunk 0 runs inline; a panic here must still wait for the other
        // chunks before unwinding releases the borrows they're using.
        let local = catch_unwind(AssertUnwindSafe(|| f(0)));
        header.pending.fetch_sub(1, Ordering::AcqRel);
        // Help until the join completes: execute our own still-queued
        // chunks (steal-back), or any other job's chunks under
        // contention — every queued task runs exactly once, which is
        // what keeps `header` unreachable once `pending` hits zero. The
        // wait on `done` also ends when the ring refills, so helping
        // goes on through the poll window.
        while !header.joined() {
            let Some(task) = self.shared.injector.pop() else {
                self.shared
                    .done
                    .park_if(|| !header.joined() && !self.shared.has_work());
                continue;
            };
            if std::ptr::eq(task.header, &header) {
                counters.tasks_stolen_back.fetch_add(1, Ordering::Relaxed);
            } else {
                counters.tasks_helped.fetch_add(1, Ordering::Relaxed);
            }
            execute_task(&self.shared.done, task);
        }
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
        // lane's registration, exactly like a work publication.
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
/// sized by the active set and the utterance, not by the graph: its two
/// live-token lists (16 bytes a token, 128 KB each once grown under a
/// 2000-token cap) and its token trace (8 bytes an expanding token,
/// about 67k entries at its peak between two lattice GCs under that cap,
/// in a buffer grown to 1 MiB). The graph-sized state index is one per
/// thread and never pooled. After the pool's high-water mark is reached,
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

    /// Serializes `injector_mpmc_delivers_each_task_once`, whose four
    /// spinning threads can hold every CPU of a small machine, with
    /// `a_parked_lane_still_takes_the_short_chunk`, which needs a woken
    /// lane to get a CPU within one chunk.
    fn cpus_to_ourselves() -> std::sync::MutexGuard<'static, ()> {
        static SPINNERS: std::sync::Mutex<()> = std::sync::Mutex::new(());
        SPINNERS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A two-chunk job whose chunk 1 is certain to run on the lane:
    /// chunk 0 keeps the submitter (the only other popper) busy until
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
        let pool = Arc::new(WorkerPool::new(3));
        let total = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let pool = Arc::clone(&pool);
            let total = Arc::clone(&total);
            handles.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    let local = AtomicUsize::new(0);
                    pool.fork_join(3, &|_| {
                        local.fetch_add(1, Ordering::SeqCst);
                        total.fetch_add(1, Ordering::SeqCst);
                    });
                    // The join is per-job even with three other
                    // submitters interleaving tasks in the same queue.
                    assert_eq!(local.load(Ordering::SeqCst), 3);
                }
            }));
        }
        for handle in handles {
            handle.join().expect("submitter thread");
        }
        assert_eq!(total.load(Ordering::SeqCst), 4 * 25 * 3);
    }

    #[test]
    fn counters_track_jobs_and_task_ownership() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.stats(), WorkerPoolStats::default());
        assert_eq!(pool.queue_depth(), 0);
        for _ in 0..20 {
            pool.fork_join(4, &|_| {});
        }
        let stats = pool.stats();
        assert_eq!(stats.jobs_submitted, 20);
        assert_eq!(stats.tasks_queued, 20 * 3, "chunk 0 is never queued");
        // Every queued task was retired by exactly one side.
        assert_eq!(
            stats.tasks_taken_by_lanes + stats.tasks_stolen_back,
            stats.tasks_queued
        );
        assert!(stats.peak_queue_depth >= 1);
        assert_eq!(
            pool.queue_depth(),
            0,
            "the ring drains when the pool is idle"
        );
    }

    #[test]
    fn inline_paths_do_not_touch_the_scheduler() {
        // One-lane pool: every job runs inline, nothing is counted.
        let one = WorkerPool::new(1);
        one.fork_join(8, &|_| {});
        assert_eq!(one.stats(), WorkerPoolStats::default());
        // Single-chunk jobs skip the queue even on a multi-lane pool.
        let two = WorkerPool::new(2);
        two.fork_join(1, &|_| {});
        assert_eq!(two.stats(), WorkerPoolStats::default());
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

    /// The Vyukov injector under concurrent producers and consumers:
    /// every pushed value pops exactly once, and a full ring refuses the
    /// push instead of overwriting.
    #[test]
    fn injector_mpmc_delivers_each_task_once() {
        const PER_PRODUCER: usize = 10_000;
        const PRODUCERS: usize = 2;
        const CONSUMERS: usize = 2;
        let _cpus = cpus_to_ourselves();
        let injector = Injector::new();
        let taken: Vec<AtomicUsize> = (0..PER_PRODUCER * PRODUCERS)
            .map(|_| AtomicUsize::new(0))
            .collect();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for consumer in 0..CONSUMERS {
                let _ = consumer;
                scope.spawn(|| loop {
                    match injector.pop() {
                        Some(task) => {
                            taken[task.chunk as usize].fetch_add(1, Ordering::SeqCst);
                        }
                        None => {
                            if stop.load(Ordering::SeqCst) && injector.len() == 0 {
                                return;
                            }
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            let mut handles = Vec::new();
            for producer in 0..PRODUCERS {
                let injector = &injector;
                handles.push(scope.spawn(move || {
                    let dummy = 0x100usize as *const JobHeader;
                    for i in 0..PER_PRODUCER {
                        let value = producer * PER_PRODUCER + i;
                        while !injector.push(Task {
                            header: dummy,
                            chunk: value as u32,
                        }) {
                            // Full ring: back off until consumers drain.
                            std::hint::spin_loop();
                        }
                    }
                }));
            }
            for handle in handles {
                handle.join().expect("producer");
            }
            stop.store(true, Ordering::SeqCst);
        });
        for (value, count) in taken.iter().enumerate() {
            assert_eq!(count.load(Ordering::SeqCst), 1, "value {value} miscounted");
        }
    }

    #[test]
    fn injector_refuses_pushes_at_capacity() {
        let injector = Injector::new();
        let dummy = 0x100usize as *const JobHeader;
        for chunk in 0..INJECTOR_CAP {
            assert!(injector.push(Task {
                header: dummy,
                chunk: chunk as u32,
            }));
        }
        assert!(!injector.push(Task {
            header: dummy,
            chunk: 0,
        }));
        assert_eq!(injector.len(), INJECTOR_CAP);
        let first = injector.pop().expect("non-empty");
        assert_eq!(first.chunk, 0, "ring is FIFO");
        assert!(injector.push(Task {
            header: dummy,
            chunk: 7,
        }));
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
            // Every queued task was retired by exactly one executor: a
            // lane, its own submitter (steal-back), or a helping foreign
            // submitter.
            assert_eq!(
                stats.tasks_taken_by_lanes + stats.tasks_stolen_back + stats.tasks_helped,
                queued,
                "lanes {lanes}"
            );
            assert_eq!(
                pool.queue_depth(),
                0,
                "the ring drains when the pool is idle"
            );
        }
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
        const JOBS: u64 = 50;
        let _cpus = cpus_to_ourselves();
        let pool = WorkerPool::new(2);
        for _ in 0..JOBS {
            // Chunk 0 stands in for a search step far longer than the
            // lane's wake: the parked lane gets up in time to take
            // chunk 1 before the submitter could steal it back.
            pool.fork_join(2, &|chunk| {
                if chunk == 0 {
                    let start = Instant::now();
                    while start.elapsed() < Duration::from_millis(2) {
                        std::hint::spin_loop();
                    }
                }
            });
        }
        let stats = pool.stats();
        assert!(
            stats.tasks_taken_by_lanes * 10 >= JOBS * 9,
            "lanes took {} of {JOBS} chunk 1s",
            stats.tasks_taken_by_lanes
        );
        assert!(
            stats.lane_parks >= JOBS * 9 / 10,
            "{} lane parks over {JOBS} jobs",
            stats.lane_parks
        );
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

    /// `just handoff`: what the executor adds to one overlapped frame,
    /// per lane poll window, with the join window at `POLL_BOUND`. Two
    /// calibrated spin chunks stand in for the search (chunk 0) and the
    /// scoring row (chunk 1) of `voice_2s_overlap`, either one the
    /// longer, with 5 us between joins; prints, per join, the wall us
    /// beyond the longer chunk (best of three rounds), the CPU us beyond
    /// the work spun (all three rounds), how often the lane and the
    /// submitter slept and how often the chunk was stolen back.
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
            "lane_window_us search||score_us wall_us cpu_us lane_parks join_parks stolen_back (per join)"
        );
        for window_us in [0, 25, 200] {
            for (search_us, score_us) in [(70, 25), (25, 70)] {
                let pool = WorkerPool::with_lane_window(2, Duration::from_micros(window_us));
                let round = || {
                    let start = Instant::now();
                    for _ in 0..JOINS {
                        pool.fork_join(2, &|chunk| {
                            spin(if chunk == 0 { search_us } else { score_us });
                        });
                        spin(GAP_US);
                    }
                    start.elapsed().as_secs_f64() * 1e6 / f64::from(JOINS)
                };
                let cpu_before = process_cpu_us();
                let best = (0..ROUNDS).map(|_| round()).fold(f64::INFINITY, f64::min);
                let cpu = process_cpu_us() - cpu_before;
                let stats = pool.stats();
                let per_join = |count: f64| count / f64::from(ROUNDS * JOINS);
                println!(
                    "{window_us:>14} {search_us:>9}||{score_us:<3} {:>8.1} {:>6.1} {:>10.3} {:>10.3} {:>11.3}",
                    best - (GAP_US + search_us.max(score_us)) as f64,
                    per_join(cpu) - (GAP_US + search_us + score_us) as f64,
                    per_join(stats.lane_parks as f64),
                    per_join(stats.join_parks as f64),
                    per_join(stats.tasks_stolen_back as f64),
                );
            }
        }
    }
}
