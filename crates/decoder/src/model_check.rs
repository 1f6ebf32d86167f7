//! Model-check harnesses for the lock-free executor (run with
//! `cargo test -p asr-decoder --features model-check --lib model_check`).
//!
//! Each harness drives the *real* production code — the [`Injector`]
//! ring, the [`EventCount`] poll-then-park protocol and the job
//! completion in [`execute_task`] from `pool.rs`, compiled against the
//! shadow `crate::sync` facade — through `asr-verify`'s
//! exhaustive scheduler. The checker explores every interleaving (and
//! every admissible weak-memory read) up to the preemption bound, so a
//! passing harness is a proof over that space, not a probabilistic
//! stress.
//!
//! Two kinds of harness live here:
//!
//! * **regressions** — the races the executor's correctness rests on
//!   (the ring's last element going to exactly one of a lane and a
//!   stealing-back submitter, its full-ring helping accounting, the
//!   eventcount's lost-wakeup freedom for an idle lane and for a joining
//!   submitter, the batch slot generation protocol) pinned forever;
//! * **seeded bugs** — deliberately broken variants (a ring whose
//!   producer publishes its sequence stamp with `Relaxed` where Release
//!   is required; a job completion that looks for sleepers before it
//!   publishes the zero; slot routing that ignores the generation stamp)
//!   that the checker must *catch*, so the tool itself cannot silently
//!   rot.

use crate::pool::{execute_task, EventCount, Injector, JobHeader, Task};
use crate::sync::{fence, AtomicU64, AtomicUsize, Condvar, Mutex, MutexGuard, Ordering};
use asr_verify::model::{self, Config};
use std::sync::{Arc, PoisonError};
use std::time::Duration;

/// Budget shared by the harnesses: two preemptions is enough to expose
/// every two-thread race in these protocols while keeping exhaustive
/// exploration fast; the caps are backstops, not tuning knobs.
fn cfg() -> Config {
    Config {
        preemption_bound: 2,
        max_executions: 400_000,
        max_steps: 4_000,
        max_threads: 3,
    }
}

/// The two poll budgets a joining submitter can have under the checker,
/// where `sync::poll_while` turns any non-zero window into exactly one
/// poll: straight to registration, and one look at the predicate first.
/// An idle lane has only the first: it never polls.
const POLL_BUDGETS: [Duration; 2] = [Duration::ZERO, Duration::from_micros(1)];

/// A dummy job header address used purely as a tag: harness tasks are
/// never executed, only routed.
fn tag(chunk: u32) -> Task {
    Task {
        header: 0x100usize as *const JobHeader,
        chunk,
    }
}

/// A lane's `pop` racing the submitter's push and steal-back `pop` for
/// the *last* task in the ring — the shape of every two-chunk
/// `fork_join`. The CAS on `head` must hand the task to exactly one side
/// in every interleaving, and the winner must read the payload the
/// producer wrote, not a stale slot (the correct twin of [`BuggyRing`]).
#[test]
fn injector_last_element_goes_to_exactly_one_popper() {
    model::check(cfg(), || {
        let injector = Arc::new(Injector::with_capacity(2));
        let hits = Arc::new(AtomicUsize::new(0));
        let (i2, h2) = (Arc::clone(&injector), Arc::clone(&hits));
        let lane = model::spawn(move || {
            if let Some(task) = i2.pop() {
                assert_eq!(task.chunk, 7, "lane saw a stale slot");
                h2.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(injector.push(tag(7)));
        if let Some(task) = injector.pop() {
            assert_eq!(task.chunk, 7, "submitter saw a stale slot");
            hits.fetch_add(1, Ordering::SeqCst);
        }
        lane.join();
        assert_eq!(
            hits.load(Ordering::SeqCst),
            1,
            "last element delivered zero or two times"
        );
    });
}

/// The seeded known-buggy ring: one Vyukov slot whose producer hands the
/// slot over with a `Relaxed` store of the sequence stamp. The consumer
/// can then observe the new stamp but the *stale* payload — the checker
/// must exhibit that execution. This is the proof the tool would catch
/// the bug class the release/acquire pair on `seq` exists for.
struct BuggyRing {
    seq: AtomicUsize,
    payload: AtomicU64,
}

impl BuggyRing {
    fn new() -> Self {
        Self {
            seq: AtomicUsize::new(0),
            payload: AtomicU64::new(0),
        }
    }

    fn push(&self, value: u64) {
        self.payload.store(value, Ordering::Relaxed);
        // BUG (seeded): `Injector::push` stores the stamp with `Release`;
        // `Relaxed` does not order the payload write before it.
        self.seq.store(1, Ordering::Relaxed);
    }

    fn pop(&self) -> Option<u64> {
        (self.seq.load(Ordering::Acquire) == 1).then(|| self.payload.load(Ordering::Relaxed))
    }
}

#[test]
fn buggy_relaxed_publish_ring_is_caught() {
    let report = model::check_expect_failure(cfg(), || {
        let ring = Arc::new(BuggyRing::new());
        let r2 = Arc::clone(&ring);
        let lane = model::spawn(move || {
            if let Some(value) = r2.pop() {
                assert_eq!(value, 42, "lane popped a stale slot payload");
            }
        });
        ring.push(42);
        lane.join();
    });
    assert!(
        report.contains("stale slot payload"),
        "unexpected report: {report}"
    );
}

/// The injector's full-ring helping invariant on a 2-slot ring: when a
/// submitter's push is refused it executes the chunk inline (helping),
/// and `taken + helped == queued` with every chunk surfacing exactly
/// once — the accounting identity `fork_join` relies on to know the
/// job header is dead.
#[test]
fn injector_full_ring_helping_accounts_every_task() {
    model::check(cfg(), || {
        let injector = Arc::new(Injector::with_capacity(2));
        let done = Arc::new(AtomicUsize::new(0));
        let delivered = Arc::new(AtomicUsize::new(0));
        let (i2, dn2, dl2) = (
            Arc::clone(&injector),
            Arc::clone(&done),
            Arc::clone(&delivered),
        );
        let consumer = model::spawn(move || loop {
            if let Some(task) = i2.pop() {
                let bit = 1usize << task.chunk;
                let prev = dl2.fetch_add(bit, Ordering::SeqCst);
                assert_eq!(prev & bit, 0, "chunk {} delivered twice", task.chunk);
            } else if dn2.load(Ordering::SeqCst) == 1 {
                return;
            } else {
                model::yield_now();
            }
        });
        let mut helped = 0usize;
        for chunk in 0..3u32 {
            if !injector.push(tag(chunk)) {
                // Ring full: help inline, exactly like `fork_join`.
                let bit = 1usize << chunk;
                let prev = delivered.fetch_add(bit, Ordering::SeqCst);
                assert_eq!(prev & bit, 0, "helped chunk {chunk} delivered twice");
                helped += 1;
            }
        }
        // Steal-back: drain whatever no lane consumed.
        while let Some(task) = injector.pop() {
            let bit = 1usize << task.chunk;
            let prev = delivered.fetch_add(bit, Ordering::SeqCst);
            assert_eq!(prev & bit, 0, "chunk {} delivered twice", task.chunk);
        }
        done.store(1, Ordering::SeqCst);
        consumer.join();
        assert!(
            helped <= 1,
            "a 2-slot ring refuses at most one of three pushes here"
        );
        assert_eq!(
            delivered.load(Ordering::SeqCst),
            0b111,
            "queued != taken + stolen_back + helped"
        );
    });
}

/// The eventcount never loses a wakeup: a lane that parks on "no work"
/// is always unparked by a producer that published work, in every
/// interleaving of register/fence/re-check against publish/fence/notify.
/// The lane parks with no poll window, as `ExecShared::idle` does. A
/// lost wakeup would strand the sleeper and the model reports it as a
/// deadlock.
#[test]
fn eventcount_parking_never_loses_the_wakeup() {
    model::check(cfg(), || {
        let ec = Arc::new(EventCount::new(Duration::ZERO));
        let work = Arc::new(AtomicUsize::new(0));
        let (e2, w2) = (Arc::clone(&ec), Arc::clone(&work));
        let lane = model::spawn(move || {
            e2.park_if(|| w2.load(Ordering::Acquire) == 0);
            // Parked at most once; by the eventcount contract the
            // wakeup (or the pre-sleep re-check) has seen the
            // publication.
        });
        work.store(1, Ordering::Release);
        ec.notify(true);
        lane.join();
    });
}

/// A join never strands its submitter: the lane retiring a job's last
/// chunk (`pending.fetch_sub`, then `done.notify` — the real
/// [`execute_task`]) races the submitter's poll → register → fence →
/// re-check → sleep on the pool's `done` eventcount, and in every
/// interleaving the submitter comes back with the job joined. The
/// submitter has already run chunk 0 and found the ring empty, so one
/// chunk is pending.
#[test]
fn join_completion_never_strands_the_submitter() {
    for poll in POLL_BUDGETS {
        model::check(cfg(), move || {
            let done = Arc::new(EventCount::new(poll));
            let chunk_body = |_chunk: usize| {};
            let header = JobHeader::new(&chunk_body, 1);
            let task = Task {
                header: &header,
                chunk: 1,
            };
            let d2 = Arc::clone(&done);
            // `header` outlives the task: this thread joins the lane
            // before it returns.
            let lane = model::spawn(move || execute_task(&d2, task));
            while !header.joined() {
                done.park_if(|| !header.joined());
            }
            lane.join();
        });
    }
}

/// The seeded known-buggy join: a completion that looks for sleepers
/// *before* it publishes `pending == 0`, against a waiter that follows
/// `EventCount::park_if` to the letter. The submitter can register,
/// re-check a still-pending job and go to sleep between the lane's two
/// steps, and nobody is left to wake it — the checker must exhibit that
/// execution as a deadlock.
struct BuggyJoin {
    pending: AtomicUsize,
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl BuggyJoin {
    fn complete(&self) {
        // BUG (seeded): `execute_task` decrements `pending` first and
        // only then lets `EventCount::notify` fence and read `sleepers`.
        fence(Ordering::SeqCst);
        let asleep = self.sleepers.load(Ordering::Relaxed) != 0;
        self.pending.fetch_sub(1, Ordering::AcqRel);
        if asleep {
            let _guard = lock(&self.lock);
            self.cv.notify_all();
        }
    }

    fn pending(&self) -> bool {
        self.pending.load(Ordering::Acquire) != 0
    }

    fn wait(&self) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if self.pending() {
            let guard = lock(&self.lock);
            if self.pending() {
                let _unused = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
            }
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

#[test]
fn buggy_completion_reading_sleepers_first_is_caught() {
    let report = model::check_expect_failure(cfg(), || {
        let join = Arc::new(BuggyJoin {
            pending: AtomicUsize::new(1),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        });
        let j2 = Arc::clone(&join);
        let lane = model::spawn(move || j2.complete());
        while join.pending() {
            join.wait();
        }
        lane.join();
    });
    assert!(
        report.contains("lost wakeup"),
        "unexpected report: {report}"
    );
}

/// The batch scoring service's generation-stamped slot reuse protocol,
/// distilled: session A has a row in flight (already past the
/// unregister compaction point, as in a scatter racing a `Session::Drop`
/// on another thread) while the slot is recycled to session B. Delivery
/// compares the row's owner stamp against the slot's current generation,
/// so B can never receive A's stale row.
#[derive(Default)]
struct SlotModel {
    gen: u64,
    live: bool,
    /// Rows delivered to the slot's current owner.
    ready: usize,
}

#[derive(Default)]
struct BatchModel {
    slot: SlotModel,
    /// At most one in-flight row: `Some(gen)` is a row stamped with its
    /// submitting handle's generation.
    pending: Option<u64>,
}

impl BatchModel {
    /// The scatter routing step: deliver the pending row iff its owner
    /// stamp still matches the slot. `check_gen` is the protocol knob
    /// the seeded-bug variant turns off.
    fn flush(&mut self, check_gen: bool) {
        if let Some(owner_gen) = self.pending.take() {
            if self.slot.live && (!check_gen || self.slot.gen == owner_gen) {
                self.slot.ready += 1;
            }
        }
    }
}

fn lock<T>(state: &Mutex<T>) -> MutexGuard<'_, T> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

fn batch_slot_reuse_harness(check_gen: bool) {
    let state = Arc::new(Mutex::new(BatchModel::default()));
    // Session A: registered at generation 0 before the race window.
    lock(&state).slot.live = true;
    let s2 = Arc::clone(&state);
    let a = model::spawn(move || {
        // A's row lands in the window, stamped with A's generation —
        // concurrent with everything the main thread does below.
        lock(&s2).pending = Some(0);
    });
    // Unregister A: the generation bump is the slot's poison pill for
    // any row still in flight (the real unregister also compacts the
    // window, but a row mid-scatter is already past compaction).
    {
        let mut st = lock(&state);
        if st.slot.live && st.slot.gen == 0 {
            st.slot.live = false;
            st.slot.gen = 1;
        }
    }
    // Session B registers into the recycled slot (generation 1).
    {
        let mut st = lock(&state);
        if !st.slot.live {
            st.slot.live = true;
            st.slot.ready = 0;
        }
    }
    // A flush routes whatever is pending.
    lock(&state).flush(check_gen);
    a.join();
    let st = lock(&state);
    if st.slot.live && st.slot.gen == 1 {
        // B owns the recycled slot: A's stale row must never be here.
        assert_eq!(st.slot.ready, 0, "stale row routed to a recycled slot");
    }
}

#[test]
fn batch_slot_generation_stamp_blocks_stale_rows() {
    model::check(cfg(), || batch_slot_reuse_harness(true));
}

/// The same protocol with the generation compare removed is the seeded
/// bug: some interleaving routes A's in-flight row into B's freshly
/// recycled slot, and the checker must find it.
#[test]
fn batch_slot_without_generation_check_is_caught() {
    let report = model::check_expect_failure(cfg(), || batch_slot_reuse_harness(false));
    assert!(report.contains("stale row"), "unexpected report: {report}");
}
