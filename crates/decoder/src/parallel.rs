//! Multi-threaded arc expansion over a sharded token table, driven by a
//! persistent worker pool: the GPU decoder's stand-in, built to serve.
//!
//! The paper's GPU baseline (Chong et al.) parallelizes the per-frame arc
//! expansion across thousands of threads, then reconciles destination
//! tokens with atomic min operations. This module reproduces that
//! execution shape on CPU threads with the token-table engine:
//!
//! 1. **Expansion fan-out**: the sorted frontier is split into per-lane
//!    chunks; each lane expands its tokens' emitting arcs and routes the
//!    candidates into per-`(lane, shard)` buffers, where a shard is a
//!    contiguous range of state ids.
//! 2. **Lock-free sharded relax**: each lane then owns exactly one shard
//!    of the next frame's epoch-tagged
//!    [`crate::token_table::TokenTable`] and relaxes every candidate
//!    destined for it — no locks, no atomics, and candidates are consumed
//!    in `(lane, arc)` order, which for any one destination state is the
//!    same relative order the sequential decoder uses, so tie-breaking is
//!    identical. Prune-on-insert applies per shard against the shard's
//!    running best.
//! 3. **Frame-barrier merge**: shard results are folded (in shard order)
//!    into the sequential engine's resolved table, assigning lattice
//!    entries deterministically; the epsilon closure then runs under the
//!    same frozen `emitting_best + beam` threshold as the sequential
//!    decoder, making the closure byte-identical.
//!
//! # Shared execution: lane leases from the work-stealing executor
//!
//! Earlier revisions spawned two rounds of scoped threads *per frame*,
//! then owned a private fork-join pool per decoder — which made
//! concurrent requests serialize behind per-decoder lanes. The decoder
//! now holds a **lease on a shared [`WorkerPool`]**: construction with
//! [`ParallelDecoder::on_pool`] attaches it to an existing executor
//! (typically the serving runtime's one global pool), a frame phase is
//! one fork-join job whose per-shard chunks land in the executor's
//! injector, and idle lanes — wherever they are — steal them. N
//! concurrent decodes therefore share all lanes instead of each hoarding
//! its own, and their chunks interleave in the same queues. A frame
//! phase still costs two condvar rounds, chunk 0 still runs on the
//! calling thread, and a one-lane lease executes entirely inline with no
//! synchronization at all.
//!
//! Working sets are pooled, not locked: each `decode` call checks a
//! parallel working set out of the decoder's free list (and
//! restores it afterwards, panic or not), so concurrent decodes on *one*
//! decoder proceed concurrently — the pool grows to the peak concurrency
//! and stays there, and a serving loop pays the allocation cost once.
//! [`ParallelDecoder::new`] still builds a private single-tenant pool
//! for standalone use.
//!
//! Results are bit-identical to the sequential
//! [`crate::search::ViterbiDecoder`] in cost and word sequence — for any
//! lane count and machine — used both as a correctness
//! cross-check and by `asr-platform` to reason about parallel efficiency
//! of the search (the paper: a modest 3.7-10x on GPU versus 26x for the
//! DNN).

use crate::lattice::{CompactScratch, Lattice, TraceId};
use crate::pool::WorkerPool;
use crate::search::{
    build_frontier, epsilon_closure, finish, maybe_gc, relax_frame, DecodeOptions, DecodeResult,
    DecodeStats, FrameStats,
};
use crate::token_table::TokenTable;
use asr_acoustic::scores::AcousticTable;
use asr_wfst::{StateId, Wfst, WordId};
use std::cell::UnsafeCell;
use std::sync::{Arc, Mutex, PoisonError};

/// A deferred backpointer: the lattice entry is allocated at the frame
/// barrier, after the owning shard's relax settles the winner.
#[derive(Debug, Clone, Copy)]
struct Pending {
    prev: TraceId,
    word: WordId,
}

const PENDING_NONE: Pending = Pending {
    prev: TraceId::ROOT,
    word: WordId::NONE,
};

/// A candidate token produced by one expansion lane.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    dest: u32,
    cost: f32,
    prev: TraceId,
    word: WordId,
}

/// Interior-mutable slot accessed by exactly one pool lane per phase.
///
/// The parallel phases index these by lane id, so accesses are disjoint by
/// construction; the coordinator touches them only between fork-joins,
/// when it holds `&mut`.
struct LaneCell<T>(UnsafeCell<T>);

// SAFETY: every `&mut` projection is taken by at most one lane at a time
// (callers index by lane id), and shared reads never overlap writes (the
// fork-join barrier separates the phases).
unsafe impl<T: Send> Sync for LaneCell<T> {}

impl<T> LaneCell<T> {
    fn new(value: T) -> Self {
        Self(UnsafeCell::new(value))
    }

    /// Exclusive access from the lane that owns this cell for the current
    /// phase.
    ///
    /// # Safety
    ///
    /// No other reference to the contents may exist for the duration.
    #[allow(clippy::mut_from_ref)]
    unsafe fn lane_mut(&self) -> &mut T {
        // SAFETY: uniqueness is this fn's own contract (see `# Safety`).
        unsafe { &mut *self.0.get() }
    }

    /// Shared access during a phase in which no lane mutates this cell.
    ///
    /// # Safety
    ///
    /// No mutable reference to the contents may exist for the duration.
    unsafe fn lane_ref(&self) -> &T {
        // SAFETY: absence of writers is this fn's own contract.
        unsafe { &*self.0.get() }
    }

    fn get_mut(&mut self) -> &mut T {
        self.0.get_mut()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for LaneCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // SAFETY: `&self` with no phase in flight (Debug runs on the
        // coordinator between decodes).
        unsafe { self.lane_ref() }.fmt(f)
    }
}

/// Per-decoder working set, persistent across `decode` calls.
#[derive(Debug)]
struct ParallelScratch {
    /// State count the buffers are currently sized for (`usize::MAX`
    /// before first use).
    sized_for: usize,
    shard_len: usize,
    /// Resolved double buffer (the sequential engine's table pair).
    cur: TokenTable<TraceId>,
    next: TokenTable<TraceId>,
    /// One pending-token shard per lane.
    shards: Vec<LaneCell<TokenTable<Pending>>>,
    /// Candidate buffers: `candidates[lane][shard]`.
    candidates: Vec<LaneCell<Vec<Vec<Candidate>>>>,
    frontier: Vec<u32>,
    worklist: Vec<u32>,
    gc_roots: Vec<TraceId>,
    gc: CompactScratch,
}

impl ParallelScratch {
    fn new() -> Self {
        Self {
            sized_for: usize::MAX,
            shard_len: 1,
            cur: TokenTable::new(0, TraceId::ROOT),
            next: TokenTable::new(0, TraceId::ROOT),
            shards: Vec::new(),
            candidates: Vec::new(),
            frontier: Vec::new(),
            worklist: Vec::new(),
            gc_roots: Vec::new(),
            gc: CompactScratch::new(),
        }
    }

    /// (Re)builds the tables when the graph size changes; a serving loop
    /// over one graph hits this once.
    fn ensure(&mut self, lanes: usize, num_states: usize) {
        if self.sized_for == num_states && self.shards.len() == lanes {
            return;
        }
        let shard_len = num_states.div_ceil(lanes).max(1);
        self.cur = TokenTable::new(num_states, TraceId::ROOT);
        self.next = TokenTable::new(num_states, TraceId::ROOT);
        self.shards = (0..lanes)
            .map(|s| {
                let base = (s * shard_len).min(num_states);
                let len = num_states.saturating_sub(base).min(shard_len);
                LaneCell::new(TokenTable::new_shard(base as u32, len, PENDING_NONE))
            })
            .collect();
        self.candidates = (0..lanes)
            .map(|_| LaneCell::new(vec![Vec::new(); lanes]))
            .collect();
        self.sized_for = num_states;
        self.shard_len = shard_len;
    }
}

/// Parallel beam-search decoder leasing lanes from a work-stealing
/// [`WorkerPool`].
///
/// The pool may be private ([`ParallelDecoder::new`]) or — the serving
/// shape — shared across any number of decoders and sessions
/// ([`ParallelDecoder::on_pool`]): every [`ParallelDecoder::decode`]
/// call submits its per-shard frame phases to the executor, where idle
/// lanes steal them alongside everyone else's. Working sets are checked
/// out of an internal free list per call, so the decoder is `Sync` and
/// **concurrent decodes proceed concurrently** (they no longer serialize
/// behind a per-decoder lock); results are byte-identical to the
/// sequential decoder for any lane count, pool sharing, and machine.
#[derive(Debug)]
pub struct ParallelDecoder {
    opts: DecodeOptions,
    lanes: usize,
    pool: Arc<WorkerPool>,
    /// Idle working sets; checkout pops, restore pushes (grows to the
    /// peak decode concurrency, like the facade's scratch pool).
    idle: Mutex<Vec<ParallelScratch>>,
}

/// Restores a checked-out [`ParallelScratch`] on drop, panic or not: a
/// panicked decode must not brick the long-lived decoder, and every
/// buffer is epoch-reset/rebuilt by the next `ensure`/`begin_frame`.
struct ScratchLease<'d> {
    decoder: &'d ParallelDecoder,
    scratch: Option<ParallelScratch>,
}

impl Drop for ScratchLease<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            self.decoder
                .idle
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(scratch);
        }
    }
}

impl ParallelDecoder {
    /// Creates a decoder with a private `num_threads`-lane pool (and as
    /// many token-table shards). Chunk 0 of every phase runs on the
    /// calling thread, so `num_threads - 1` worker threads are spawned; a
    /// one-lane decoder runs fully inline.
    ///
    /// For serving, prefer [`ParallelDecoder::on_pool`] with one shared
    /// executor — private pools put concurrent requests on disjoint
    /// thread sets that oversubscribe the machine.
    ///
    /// # Panics
    ///
    /// Panics if `num_threads == 0`.
    pub fn new(opts: DecodeOptions, num_threads: usize) -> Self {
        assert!(num_threads > 0, "need at least one worker");
        Self::on_pool(opts, num_threads, Arc::new(WorkerPool::new(num_threads)))
    }

    /// Creates a decoder leasing `lanes` shards' worth of work per frame
    /// phase from a shared executor — the serving constructor: all
    /// decoders (and pipelined sessions) on one `pool` share its lanes
    /// through work stealing instead of hoarding private threads.
    ///
    /// `lanes` is the shard count of this decoder's decodes; it is
    /// typically `pool.lanes()` but may differ (results are
    /// byte-identical either way).
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn on_pool(opts: DecodeOptions, lanes: usize, pool: Arc<WorkerPool>) -> Self {
        assert!(lanes > 0, "need at least one worker");
        Self {
            opts,
            lanes,
            pool,
            idle: Mutex::new(Vec::new()),
        }
    }

    /// Creates a decoder sized to the machine's available parallelism.
    pub fn with_default_lanes(opts: DecodeOptions) -> Self {
        Self::new(opts, WorkerPool::default_lanes())
    }

    /// Lane count (the shard count of every decode).
    pub fn num_threads(&self) -> usize {
        self.lanes
    }

    /// The executor this decoder leases lanes from.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Runs the search on the leased executor lanes; `words`, `cost`,
    /// `best_state`, and `reached_final` match the sequential decoder
    /// exactly.
    ///
    /// Buffers and threads persist across calls: in a serving loop over
    /// one graph the steady state allocates only the per-decode lattice.
    /// Concurrent calls each check out their own working set and share
    /// the executor's lanes.
    pub fn decode(&self, wfst: &Wfst, scores: &AcousticTable) -> DecodeResult {
        let scratch = self
            .idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_else(ParallelScratch::new);
        let mut lease = ScratchLease {
            decoder: self,
            scratch: Some(scratch),
        };
        let scratch = lease.scratch.as_mut().expect("scratch present");
        scratch.ensure(self.lanes, wfst.num_states());
        run_search(&self.opts, &self.pool, self.lanes, scratch, wfst, scores)
    }
}

/// The sharded frame loop. `lanes` is the lease width — the shard count
/// of this decode — independent of how many lanes `pool` has or how many
/// other jobs are in its queues.
fn run_search(
    opts: &DecodeOptions,
    pool: &WorkerPool,
    lanes: usize,
    scratch: &mut ParallelScratch,
    wfst: &Wfst,
    scores: &AcousticTable,
) -> DecodeResult {
    let shard_len = scratch.shard_len;
    let beam = opts.beam;
    let ParallelScratch {
        cur,
        next,
        shards,
        candidates,
        frontier,
        worklist,
        gc_roots,
        gc,
        ..
    } = scratch;

    let mut lattice = Lattice::new();
    let mut stats = DecodeStats::default();

    cur.begin_frame();
    let start_trace = lattice.push(TraceId::ROOT, WordId::NONE);
    cur.relax(wfst.start().0, 0.0, || start_trace);
    let mut scratch_fs = FrameStats::default();
    epsilon_closure(
        wfst,
        cur,
        &mut lattice,
        &mut scratch_fs,
        f32::INFINITY,
        worklist,
    );

    let num_frames = scores.num_frames();
    for frame in 0..num_frames {
        let mut fs = FrameStats {
            active_tokens: cur.len(),
            ..FrameStats::default()
        };
        build_frontier(cur, frontier, beam, opts.max_active);
        fs.expanded_tokens = frontier.len();
        if opts.record_state_accesses {
            for &state in frontier.iter() {
                *stats.state_accesses.entry(state).or_insert(0) += 1;
            }
        }
        let last_frame = frame + 1 == num_frames;

        if lanes == 1 {
            // Single-lane special case (the common shape on small
            // machines): expansion relaxes straight into the resolved
            // table with inline lattice pushes — the sequential frame
            // body on the decoder's persistent buffers. No candidate
            // staging, no shard, no forks: a one-lane pooled decoder is
            // the sequential decoder plus buffer persistence, which is
            // exactly what lets it win serving wall-clock on one core.
            relax_frame(
                wfst,
                cur,
                next,
                frontier,
                &mut lattice,
                &mut fs,
                beam,
                last_frame,
                scores.frame_row(frame),
            );
        } else {
            run_sharded_phases(
                pool, lanes, shard_len, beam, last_frame, frame, wfst, scores, cur, shards,
                candidates, frontier, &mut fs,
            );

            // Frame barrier: fold shards (in shard order) into the
            // resolved table, allocating one lattice entry per surviving
            // token — deterministic for any lane count.
            next.begin_frame();
            for cell in shards.iter_mut() {
                let shard = cell.get_mut();
                for &state in shard.active() {
                    let (cost, pending) = shard.get(state).expect("active token is live");
                    let inserted =
                        next.relax(state, cost, || lattice.push(pending.prev, pending.word));
                    debug_assert!(inserted, "shards cover disjoint state ranges");
                    fs.tokens_created += 1;
                }
            }
        }

        let closure_threshold = if last_frame {
            f32::INFINITY
        } else {
            next.best() + beam
        };
        epsilon_closure(
            wfst,
            next,
            &mut lattice,
            &mut fs,
            closure_threshold,
            worklist,
        );
        std::mem::swap(cur, next);
        stats.frames.push(fs);
        if cur.is_empty() {
            break;
        }
        if !last_frame {
            maybe_gc(
                opts.lattice_gc_interval,
                frame,
                cur,
                &mut lattice,
                gc_roots,
                frontier,
                gc,
            );
        }
    }

    finish(wfst, cur, frontier, lattice, stats)
}

/// The two forked phases of one frame: expansion fan-out into per-lane
/// candidate rows, then the lock-free sharded relax.
#[allow(clippy::too_many_arguments)]
fn run_sharded_phases(
    pool: &WorkerPool,
    lanes: usize,
    shard_len: usize,
    beam: f32,
    last_frame: bool,
    frame: usize,
    wfst: &Wfst,
    scores: &AcousticTable,
    cur: &TokenTable<TraceId>,
    shards: &mut [LaneCell<TokenTable<Pending>>],
    candidates: &mut [LaneCell<Vec<Vec<Candidate>>>],
    frontier: &[u32],
    fs: &mut FrameStats,
) {
    // Phase 1: fan the frontier out; each lane fills its own candidate
    // row, routed by destination shard. Every lane first clears its row,
    // so stale candidates from a wider previous frame cannot leak in.
    let chunk = frontier.len().div_ceil(lanes).max(1);
    {
        let cells: &[LaneCell<Vec<Vec<Candidate>>>] = candidates;
        pool.fork_join(lanes, &|lane| {
            // SAFETY: each lane writes only its own candidate row.
            let row = unsafe { cells[lane].lane_mut() };
            for bucket in row.iter_mut() {
                bucket.clear();
            }
            let lo = (lane * chunk).min(frontier.len());
            let hi = ((lane + 1) * chunk).min(frontier.len());
            for &state in &frontier[lo..hi] {
                let cost0 = cur.cost(state);
                let trace = cur.payload(state);
                for arc in wfst.emitting_arcs(StateId(state)) {
                    let shard = (arc.dest.0 as usize / shard_len).min(lanes - 1);
                    row[shard].push(Candidate {
                        dest: arc.dest.0,
                        cost: cost0 + arc.weight + scores.cost(frame, arc.ilabel),
                        prev: trace,
                        word: arc.olabel,
                    });
                }
            }
        });
    }
    fs.arcs_traversed += candidates
        .iter_mut()
        .map(|cell| cell.get_mut().iter().map(Vec::len).sum::<usize>())
        .sum::<usize>();

    // Phase 2: lock-free relax — lane `s` exclusively owns shard `s` and
    // drains every lane's bucket for it, in lane order (the sequential
    // relax order restricted to the shard's states).
    {
        let cells: &[LaneCell<Vec<Vec<Candidate>>>] = candidates;
        let shard_cells: &[LaneCell<TokenTable<Pending>>] = shards;
        pool.fork_join(lanes, &|lane| {
            // SAFETY: each lane mutates only its own shard; candidate
            // rows are read-only in this phase (writes ended at the
            // phase-1 barrier).
            let shard = unsafe { shard_cells[lane].lane_mut() };
            shard.begin_frame();
            for cell in cells {
                // SAFETY: candidate cells are read-only in this phase.
                let row = unsafe { cell.lane_ref() };
                for c in &row[lane] {
                    if !last_frame && c.cost > shard.best() + beam {
                        continue;
                    }
                    shard.relax(c.dest, c.cost, || Pending {
                        prev: c.prev,
                        word: c.word,
                    });
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::ViterbiDecoder;
    use asr_wfst::synth::{SynthConfig, SynthWfst};

    fn workload() -> (Wfst, AcousticTable) {
        let w = SynthWfst::generate(&SynthConfig::with_states(3_000)).unwrap();
        let scores = AcousticTable::random(25, w.num_phones() as usize, (0.5, 4.0), 17);
        (w, scores)
    }

    #[test]
    fn matches_sequential_decoder() {
        let (w, scores) = workload();
        let opts = DecodeOptions::with_beam(6.0);
        let seq = ViterbiDecoder::new(opts.clone()).decode(&w, &scores);
        for threads in [1, 2, 4] {
            let par = ParallelDecoder::new(opts.clone(), threads).decode(&w, &scores);
            assert_eq!(par.cost, seq.cost, "{threads} threads");
            assert_eq!(par.words, seq.words, "{threads} threads");
            assert_eq!(par.best_state, seq.best_state);
            assert_eq!(par.reached_final, seq.reached_final);
        }
    }

    #[test]
    fn parallel_runs_are_reproducible() {
        let (w, scores) = workload();
        let d = ParallelDecoder::new(DecodeOptions::with_beam(6.0), 4);
        let a = d.decode(&w, &scores);
        let b = d.decode(&w, &scores);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.words, b.words);
        assert_eq!(a.lattice.len(), b.lattice.len());
    }

    #[test]
    fn persistent_buffers_survive_graph_changes() {
        let opts = DecodeOptions::with_beam(6.0);
        let d = ParallelDecoder::new(opts.clone(), 2);
        for states in [500usize, 3_000, 500] {
            let w = SynthWfst::generate(&SynthConfig::with_states(states)).unwrap();
            let scores = AcousticTable::random(15, w.num_phones() as usize, (0.5, 4.0), 23);
            let seq = ViterbiDecoder::new(opts.clone()).decode(&w, &scores);
            let par = d.decode(&w, &scores);
            assert_eq!(par.cost, seq.cost, "{states} states");
            assert_eq!(par.words, seq.words, "{states} states");
        }
    }

    #[test]
    fn concurrent_decodes_on_one_decoder_run_concurrently_and_match() {
        let (w, scores) = workload();
        let opts = DecodeOptions::with_beam(6.0);
        let seq = ViterbiDecoder::new(opts.clone()).decode(&w, &scores);
        let d = ParallelDecoder::new(opts, 2);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..3 {
                handles.push(scope.spawn(|| d.decode(&w, &scores)));
            }
            for handle in handles {
                let par = handle.join().expect("decode thread");
                assert_eq!(par.cost, seq.cost);
                assert_eq!(par.words, seq.words);
            }
        });
        // Each concurrent decode checked out its own working set; the
        // free list is bounded by the peak concurrency.
        let idle = d.idle.lock().unwrap().len();
        assert!((1..=3).contains(&idle), "{idle} idle working sets");
    }

    #[test]
    fn decoders_sharing_one_executor_stay_byte_identical() {
        let (w, scores) = workload();
        let opts = DecodeOptions::with_beam(6.0);
        let seq = ViterbiDecoder::new(opts.clone()).decode(&w, &scores);
        let pool = Arc::new(WorkerPool::new(3));
        let decoders: Vec<ParallelDecoder> = (0..3)
            .map(|_| ParallelDecoder::on_pool(opts.clone(), 3, Arc::clone(&pool)))
            .collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for d in &decoders {
                let (w, scores) = (&w, &scores);
                handles.push(scope.spawn(move || {
                    let mut last = None;
                    for _ in 0..2 {
                        last = Some(d.decode(w, scores));
                    }
                    last.expect("decoded")
                }));
            }
            for handle in handles {
                let par = handle.join().expect("decode thread");
                assert_eq!(par.cost, seq.cost);
                assert_eq!(par.words, seq.words);
                assert_eq!(par.best_state, seq.best_state);
            }
        });
    }

    #[test]
    fn lease_width_may_differ_from_pool_lanes() {
        let (w, scores) = workload();
        let opts = DecodeOptions::with_beam(6.0);
        let seq = ViterbiDecoder::new(opts.clone()).decode(&w, &scores);
        let pool = Arc::new(WorkerPool::new(2));
        for lanes in [1usize, 3, 5] {
            let d = ParallelDecoder::on_pool(opts.clone(), lanes, Arc::clone(&pool));
            let par = d.decode(&w, &scores);
            assert_eq!(par.cost, seq.cost, "{lanes} lanes");
            assert_eq!(par.words, seq.words, "{lanes} lanes");
        }
    }

    #[test]
    fn decoder_survives_a_panicked_decode() {
        let (w, scores) = workload();
        let opts = DecodeOptions::with_beam(6.0);
        let seq = ViterbiDecoder::new(opts.clone()).decode(&w, &scores);
        for threads in [1, 2] {
            let d = ParallelDecoder::new(opts.clone(), threads);
            // Scores with too few phone columns panic mid-search (out of
            // range) while a working set is checked out...
            let bad = AcousticTable::random(5, 1, (0.5, 4.0), 3);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                d.decode(&w, &bad);
            }));
            assert!(outcome.is_err(), "truncated score table must panic");
            // ...but the long-lived decoder must recover and keep serving.
            let par = d.decode(&w, &scores);
            assert_eq!(par.cost, seq.cost, "{threads} threads");
            assert_eq!(par.words, seq.words, "{threads} threads");
        }
    }

    #[test]
    fn stats_match_sequential() {
        let (w, scores) = workload();
        let opts = DecodeOptions::with_beam(6.0);
        let seq = ViterbiDecoder::new(opts.clone()).decode(&w, &scores);
        let par = ParallelDecoder::new(opts, 3).decode(&w, &scores);
        assert_eq!(seq.stats.frames.len(), par.stats.frames.len());
        for (s, p) in seq.stats.frames.iter().zip(&par.stats.frames) {
            assert_eq!(s.expanded_tokens, p.expanded_tokens);
            assert_eq!(s.arcs_traversed, p.arcs_traversed);
        }
    }

    #[test]
    fn more_threads_than_states_still_works() {
        let (w, scores) = {
            let w = SynthWfst::generate(&SynthConfig::with_states(50)).unwrap();
            let scores = AcousticTable::random(6, w.num_phones() as usize, (0.5, 4.0), 5);
            (w, scores)
        };
        let opts = DecodeOptions::with_beam(8.0);
        let seq = ViterbiDecoder::new(opts.clone()).decode(&w, &scores);
        let par = ParallelDecoder::new(opts, 64).decode(&w, &scores);
        assert_eq!(par.cost, seq.cost);
        assert_eq!(par.words, seq.words);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        ParallelDecoder::new(DecodeOptions::default(), 0);
    }
}
