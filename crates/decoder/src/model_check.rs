//! Model-check harnesses for the executor (run with
//! `cargo test -p asr-decoder --features model-check --lib model_check`).
//!
//! Each harness drives the *real* production code — the job list's
//! claim and withdrawal, the [`EventCount`] poll-then-park protocol and
//! the chunk completion in [`execute_task`] from `pool.rs`, compiled
//! against the shadow `crate::sync` facade — through `asr-verify`'s
//! exhaustive scheduler. The checker explores every interleaving (and
//! every admissible weak-memory read) up to the preemption bound, so a
//! passing harness is a proof over that space, not a probabilistic
//! stress.
//!
//! Two kinds of harness live here:
//!
//! * **regressions** — the races the executor's correctness rests on
//!   (the last unclaimed chunk going to exactly one of a lane and the
//!   stealing-back submitter, with no lane claim after the submitter is
//!   back; the eventcount's lost-wakeup freedom for an idle lane and for
//!   a joining submitter; the batch slot generation protocol) pinned
//!   forever;
//! * **seeded bugs** — deliberately broken variants (a join that skips
//!   the withdrawal when its steal-back took the last chunk; a job
//!   completion that looks for sleepers before it publishes the zero;
//!   slot routing that ignores the generation stamp) that the checker
//!   must *catch*, so the tool itself cannot silently rot.

use crate::pool::{execute_task, EventCount, ExecShared, JobHeader, Task};
use crate::sync::{fence, AtomicUsize, Condvar, Mutex, MutexGuard, Ordering};
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

/// A lane's one real turn (`ExecShared::run_one`: claim the oldest
/// listed job's next chunk under the list's lock, run it) racing a
/// submitter's real `submit`, inline chunk 0 and `join` (steal-back
/// claims from the header, withdrawal under the same lock, the wait on
/// `done`) — the shape of every two-chunk `fork_join`; `join` is the
/// submitter side under test. In every interleaving chunk 1 runs exactly
/// once, on the lane or stolen back; both chunks have run when the join
/// returns; and no lane claims from the header after that, which in
/// production would write into the submitter's dead stack frame.
fn claim_race(join: fn(&ExecShared, &JobHeader)) {
    let shared = Arc::new(ExecShared::new());
    let s2 = Arc::clone(&shared);
    let lane = model::spawn(move || {
        s2.run_one();
    });
    let ran = AtomicUsize::new(0);
    let body = |chunk: usize| {
        let prev = ran.fetch_add(1 << chunk, Ordering::SeqCst);
        assert_eq!(prev & (1 << chunk), 0, "chunk {chunk} ran twice");
    };
    let header = JobHeader::new(&body, 2);
    shared.submit(&header);
    body(0);
    join(&shared, &header);
    assert_eq!(ran.load(Ordering::SeqCst), 0b11, "join returned early");
    // `header` outlives the lane here only so a late claim shows.
    let claims = header.next.load(Ordering::SeqCst);
    lane.join();
    assert_eq!(
        header.next.load(Ordering::SeqCst),
        claims,
        "a lane claimed from a job whose submitter had returned"
    );
}

#[test]
fn last_chunk_goes_to_one_claimer_and_no_claim_outlives_the_join() {
    model::check(cfg(), || claim_race(ExecShared::join));
}

/// The seeded known-buggy join: it skips the withdrawal when its own
/// steal-back claimed the job's last chunk, since no lane can get a chunk
/// out of it any more. But a lane's *failing* claim still writes the
/// header's counter, and the job stays listed after the submitter has
/// returned — the checker must exhibit that claim.
fn join_skipping_the_withdrawal(shared: &ExecShared, header: &JobHeader) {
    header.pending.fetch_sub(1, Ordering::AcqRel);
    let mut took_last = false;
    while let Some(chunk) = header.claim() {
        took_last = chunk == 1;
        execute_task(&shared.done, Task { header, chunk });
    }
    // BUG (seeded): `ExecShared::join` withdraws the job unconditionally.
    if !took_last {
        shared.withdraw(header);
    }
    while !header.joined() {
        shared.done.park_if(|| !header.joined());
    }
}

#[test]
fn buggy_join_skipping_the_withdrawal_is_caught() {
    let report = model::check_expect_failure(cfg(), || claim_race(join_skipping_the_withdrawal));
    assert!(
        report.contains("whose submitter had returned"),
        "unexpected report: {report}"
    );
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
/// submitter has already run chunk 0 and had nothing to claim back, so one
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
