//! The cycle-accurate accelerator simulator.
//!
//! Execution-driven: the simulator *performs* the Viterbi beam search
//! (producing the same best path as [`asr_decoder::search::ViterbiDecoder`];
//! the differential suite in `tests/sim_token_table_equivalence.rs` pins it
//! byte-identical) while a scoreboard timing model tracks when every
//! hardware structure would have produced each value.
//!
//! # Functional search vs. timing scoreboard
//!
//! The functional side of the search — token insertion with best-ingoing
//! relaxation, the running frame-best that drives prune-on-insert, the
//! epsilon fixpoint, and backpointer recording — runs on the same verified
//! structures as the software decoder: the epoch-tagged
//! [`asr_decoder::token_table::TokenTable`] (double-buffered, its active
//! list standing in for the hardware's insertion-ordered token linked
//! list) and the [`asr_decoder::lattice::Lattice`] backpointer trace. The
//! simulator owns **no search state of its own**: there is exactly one
//! search implementation in the workspace, and the simulator is one more
//! execution shape of it.
//!
//! The timing model rides along as a probe. Every insert attempt into a
//! token table reports its slot-level outcome
//! ([`asr_decoder::token_table::RelaxOutcome`]) to
//! [`asr_decoder::probe::Probe::insert`], a method of the search's one
//! probe; the simulator's `TokenIssue` probe converts each outcome into
//! hash-probe cycles, collision chains, and overflow round trips on the
//! [`crate::hash::HashTable`] timing model — which itself stores no search
//! state, only chain positions keyed off the same per-state slots.
//!
//! # Pipeline model
//!
//! The five stages of Figure 3 are modelled with per-resource time cursors
//! and in-order windows:
//!
//! * **token fetch** — the State Issuer walks the current table's active
//!   list (the hardware's linked token list), one token per cycle, and
//!   prunes against `frame_best + beam`;
//! * **state resolve** — surviving tokens fetch their 64-bit state record
//!   through the State cache (8 in flight, in order). With the Section IV-B
//!   optimization, states in the sorted region skip the fetch entirely: the
//!   comparator/offset unit computes the arc index directly;
//! * **arc fetch** — all outgoing arcs stream through the Arc cache, one
//!   tag check per cycle. The in-order window is 8 deep in the base design
//!   and 64 deep with the Section IV-A prefetcher (Arc FIFO + Request FIFO
//!   + Reorder Buffer), which is what lets misses overlap;
//! * **acoustic + likelihood** — one arc per cycle: the phone's score is
//!   read from the Acoustic Likelihood Buffer and the three-way log-space
//!   sum of Equation 1 is formed;
//! * **token issue** — every evaluated arc probes the next-frame hash
//!   table (collision chains cost extra cycles; overflow spills pay a DRAM
//!   round trip); improved tokens append their backpointer + word record
//!   through the Token cache.
//!
//! Epsilon arcs are evaluated when their token is expanded (no acoustic
//! lookup, destination goes to the *current* frame's table), which is the
//! same fixpoint as the reference decoder's post-frame epsilon closure as
//! long as arc weights are non-negative — guaranteed by construction in
//! this workspace.
//!
//! The only stall sources are cache misses and hash collisions, exactly as
//! the paper states (Section IV).

use crate::config::AcceleratorConfig;
use crate::hash::HashTable;
use crate::mem::{AddressMap, Cache, Dram, TrafficKind};
use crate::prefetch::InOrderWindow;
use crate::stats::SimStats;
use asr_acoustic::scores::AcousticTable;
use asr_decoder::lattice::{Lattice, TraceId};
use asr_decoder::probe::Probe;
use asr_decoder::token_table::{RelaxOutcome, TokenTable};
use asr_wfst::sorted::{DirectIndexUnit, SortedWfst};
use asr_wfst::{ArcId, Result as WfstResult, StateId, Wfst, WordId};

/// A WFST prepared for a particular design point: plain layout for the base
/// design, degree-sorted layout (plus the comparator unit) when the
/// Section IV-B optimization is enabled.
#[derive(Debug, Clone)]
pub enum PreparedWfst {
    /// Original layout; every expanded token fetches its state record.
    Plain(Wfst),
    /// Degree-sorted layout with the direct-index hardware.
    Sorted(SortedWfst),
}

impl PreparedWfst {
    /// Prepares `wfst` as `cfg.design` requires.
    ///
    /// # Errors
    ///
    /// Propagates layout-rebuild validation errors.
    pub fn new(wfst: &Wfst, cfg: &AcceleratorConfig) -> WfstResult<Self> {
        if cfg.design.state_opt() {
            Ok(Self::Sorted(SortedWfst::with_threshold(
                wfst,
                cfg.state_opt_threshold,
            )?))
        } else {
            Ok(Self::Plain(wfst.clone()))
        }
    }

    /// The transducer actually walked by the simulator.
    pub fn wfst(&self) -> &Wfst {
        match self {
            Self::Plain(w) => w,
            Self::Sorted(s) => s.wfst(),
        }
    }

    /// The direct-index unit, when the layout provides one.
    fn direct(&self) -> Option<&DirectIndexUnit> {
        match self {
            Self::Plain(_) => None,
            Self::Sorted(s) => Some(s.unit()),
        }
    }

    /// Maps a state of the prepared layout back to the original numbering.
    pub fn to_original(&self, state: StateId) -> StateId {
        match self {
            Self::Plain(_) => state,
            Self::Sorted(s) => s.unmap_state(state),
        }
    }
}

/// Outcome of one simulated decode.
///
/// The result fields follow the same contract as
/// [`asr_decoder::search::DecodeResult`], state ids translated back to the
/// *original* WFST numbering: when no token survives to the end of the
/// utterance the sentinel is an empty word sequence, `cost` of
/// [`f32::INFINITY`], `reached_final == false`, and `best_state` pinned to
/// the start state; a zero-frame decode reports the best token of the
/// start state's epsilon closure (cost `0.0` at the start state when that
/// closure is trivial). The differential suite asserts the two
/// implementations agree on all of it.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Words on the best path.
    pub words: Vec<WordId>,
    /// Best path cost (with final cost when reached); [`f32::INFINITY`]
    /// when the beam killed every path.
    pub cost: f32,
    /// Whether a final state terminated the path.
    pub reached_final: bool,
    /// Winning state, in the *original* WFST numbering; the start state
    /// when no token survived.
    pub best_state: StateId,
    /// All hardware counters.
    pub stats: SimStats,
}

/// The simulator. One instance per decode (its caches and hash tables carry
/// state across frames of a single utterance).
#[derive(Debug)]
pub struct Simulator {
    cfg: AcceleratorConfig,
}

impl Simulator {
    /// Creates a simulator for the given configuration.
    pub fn new(cfg: AcceleratorConfig) -> Self {
        Self { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.cfg
    }

    /// Convenience entry point: prepares the WFST for this design point and
    /// decodes.
    ///
    /// # Errors
    ///
    /// Propagates layout-preparation errors.
    pub fn decode_wfst(&self, wfst: &Wfst, scores: &AcousticTable) -> WfstResult<SimResult> {
        let prepared = PreparedWfst::new(wfst, &self.cfg)?;
        Ok(self.decode(&prepared, scores))
    }

    /// Simulates the decode of `scores` over `prepared`.
    pub fn decode(&self, prepared: &PreparedWfst, scores: &AcousticTable) -> SimResult {
        Engine::new(&self.cfg, prepared, scores).run()
    }
}

/// The Token Issuer's timing, hung off the token table's insert events:
/// every relax attempt (stored or rejected — a rejected insert still costs
/// a probe in hardware) pays the hash access on the observed table, plus a
/// DRAM round trip when the entry spills to the memory-backed overflow
/// buffer.
struct TokenIssue<'x> {
    hash: &'x mut HashTable,
    dram: &'x mut Dram,
    cursor: &'x mut u64,
}

impl Probe for TokenIssue<'_> {
    fn insert(&mut self, state: u32, outcome: RelaxOutcome) {
        let hacc = self.hash.access(state);
        debug_assert_eq!(
            hacc.existing,
            outcome.existing(),
            "hash timing model out of sync with token table slots at state {state}"
        );
        *self.cursor += hacc.cycles;
        if hacc.overflow {
            *self.cursor = self.dram.request(*self.cursor, TrafficKind::Overflow);
        }
    }
}

/// Writes a token's backpointer + word record through the Token cache.
/// Writes are buffered (32 in-flight tokens) so they do not stall the
/// pipeline; they do generate fills and writebacks.
fn write_token(
    map: &AddressMap,
    token_cache: &mut Cache,
    dram: &mut Dram,
    at_cycle: u64,
    trace: TraceId,
) {
    let addr = map.token_addr(trace.0 as u64);
    match token_cache.access(addr, true) {
        crate::mem::Access::Hit => {}
        crate::mem::Access::Miss { writeback } => {
            dram.request(at_cycle, TrafficKind::Tokens);
            if writeback.is_some() {
                dram.request(at_cycle, TrafficKind::Tokens);
            }
        }
    }
}

/// Conventional-prefetcher reaction to an arc-cache demand miss: guess
/// the next line from the miss stream, spend DRAM bandwidth fetching
/// it, and install it (possibly evicting useful lines). The decoupled
/// architecture of Section IV-A never calls this — its addresses are
/// computed, not predicted.
fn hw_prefetch_arc(
    cfg: &AcceleratorConfig,
    last_arc_miss: &mut Option<u64>,
    arc_cache: &mut Cache,
    dram: &mut Dram,
    miss_line: u64,
    at_cycle: u64,
) {
    use crate::config::HwPrefetcher;
    let predicted = match cfg.hw_prefetcher {
        HwPrefetcher::None => None,
        HwPrefetcher::NextLine => Some(miss_line + 64),
        HwPrefetcher::Stride => last_arc_miss
            .and_then(|prev| miss_line.checked_add(miss_line.wrapping_sub(prev)))
            .filter(|&p| p != miss_line),
    };
    *last_arc_miss = Some(miss_line);
    if let Some(addr) = predicted {
        if arc_cache.prefetch(addr) {
            // The speculative line transfer competes with demand
            // misses for controller slots and burns DRAM energy.
            dram.request(at_cycle, TrafficKind::Arcs);
        }
    }
}

/// Per-decode machinery (borrowed config + workload, owned hardware state).
///
/// `cur`/`next` are the double-buffered token tables — the functional
/// twin of the two on-chip hash tables; `hash_cur`/`hash_next` are their
/// timing shadows, swapped and cleared in lockstep. `expanded` is the
/// State Issuer's per-wave dedup ("already expanded at this or a better
/// cost"), itself an epoch-tagged table so a wave reset is one bump.
struct Engine<'a> {
    cfg: &'a AcceleratorConfig,
    prepared: &'a PreparedWfst,
    scores: &'a AcousticTable,
    map: AddressMap,
    state_cache: Cache,
    arc_cache: Cache,
    token_cache: Cache,
    dram: Dram,
    hash_cur: HashTable,
    hash_next: HashTable,
    cur: TokenTable<TraceId>,
    next: TokenTable<TraceId>,
    expanded: TokenTable<()>,
    /// Wave worklist: seeded from the active list, extended by stored
    /// epsilon relaxes, drained FIFO (the hardware's linked-list walk).
    worklist: Vec<u32>,
    lattice: Lattice,
    stats: SimStats,
    // Last arc-miss line, for the stride prefetcher's delta prediction.
    last_arc_miss: Option<u64>,
}

impl<'a> Engine<'a> {
    fn new(
        cfg: &'a AcceleratorConfig,
        prepared: &'a PreparedWfst,
        scores: &'a AcousticTable,
    ) -> Self {
        let wfst = prepared.wfst();
        let num_states = wfst.num_states();
        // Generous token region: the trace is append-only.
        let map = AddressMap::new(wfst, 1 << 34);
        let mut hash_cur = HashTable::new(cfg.hash_entries, cfg.ideal_hash);
        let mut hash_next = HashTable::new(cfg.hash_entries, cfg.ideal_hash);
        hash_cur.reserve_states(num_states);
        hash_next.reserve_states(num_states);
        Self {
            cfg,
            prepared,
            scores,
            map,
            state_cache: Cache::new(cfg.state_cache, cfg.perfect_state_cache),
            arc_cache: Cache::new(cfg.arc_cache, cfg.perfect_arc_cache),
            token_cache: Cache::new(cfg.token_cache, cfg.perfect_token_cache),
            dram: Dram::new(cfg.mem_latency, cfg.mem_inflight, 64),
            hash_cur,
            hash_next,
            cur: TokenTable::new(num_states),
            next: TokenTable::new(num_states),
            expanded: TokenTable::new(num_states),
            worklist: Vec::new(),
            lattice: Lattice::new(),
            stats: SimStats::default(),
            last_arc_miss: None,
        }
    }

    fn run(mut self) -> SimResult {
        let wfst = self.prepared.wfst();
        let start = wfst.start().0;
        self.cur.begin_frame();
        let mut init_cursor = 0u64;
        self.cur.relax_observed(
            start,
            0.0,
            || self.lattice.push(TraceId::ROOT, WordId::NONE),
            &mut TokenIssue {
                hash: &mut self.hash_cur,
                dram: &mut self.dram,
                cursor: &mut init_cursor,
            },
        );
        write_token(
            &self.map,
            &mut self.token_cache,
            &mut self.dram,
            0,
            self.cur.payload(start),
        );

        // Initial epsilon closure (no frame consumed, unpruned).
        let mut cycle = self.wave(None, 0);

        // Acoustic DMA of the first frame must land before decode starts.
        let link_bytes_per_cycle = 16;
        let dma_cycles = |bytes: usize| (bytes as u64).div_ceil(link_bytes_per_cycle);
        if self.scores.num_frames() > 0 {
            self.dram
                .bulk_transfer(self.scores.frame_bytes() as u64, TrafficKind::Acoustic);
            cycle = cycle.max(dma_cycles(self.scores.frame_bytes()));
        }

        for frame in 0..self.scores.num_frames() {
            // Double buffering: the next frame's scores stream in while this
            // frame decodes.
            let mut next_scores_ready = cycle;
            if frame + 1 < self.scores.num_frames() {
                self.dram
                    .bulk_transfer(self.scores.frame_bytes() as u64, TrafficKind::Acoustic);
                next_scores_ready = cycle + dma_cycles(self.scores.frame_bytes());
            }
            let tokens_before = self.stats.tokens_fetched;
            let arcs_before = self.stats.arcs_processed + self.stats.eps_arcs_processed;
            let end = self.wave(Some(frame), cycle);
            self.stats.per_frame.push(crate::stats::FrameStats {
                cycles: end - cycle,
                tokens: self.stats.tokens_fetched - tokens_before,
                arcs: self.stats.arcs_processed + self.stats.eps_arcs_processed - arcs_before,
            });
            cycle = end.max(next_scores_ready);
            if self.cur.is_empty() {
                break;
            }
        }

        // Final epsilon closure so the last frame's epsilon-reachable
        // tokens participate in final-state selection.
        cycle = self.wave(None, cycle);

        self.stats.frames = self.scores.num_frames();
        self.stats.cycles = cycle;
        self.stats.state_cache = self.state_cache.stats();
        self.stats.arc_cache = self.arc_cache.stats();
        self.stats.token_cache = self.token_cache.stats();
        let mut hash = self.hash_cur.stats();
        let other = self.hash_next.stats();
        hash.requests += other.requests;
        hash.cycles += other.cycles;
        hash.collisions += other.collisions;
        hash.overflow_accesses += other.overflow_accesses;
        hash.peak_occupancy = hash.peak_occupancy.max(other.peak_occupancy);
        self.stats.hash = hash;
        self.stats.traffic = self.dram.traffic();
        self.stats.mem_requests = self.dram.requests();

        self.finish()
    }

    /// Runs one wave through the pipeline.
    ///
    /// `frame = Some(f)`: expand emitting arcs into the next-frame table
    /// (with frame `f`'s acoustic scores) and epsilon arcs into the current
    /// table, with beam pruning. `frame = None`: epsilon-only closure,
    /// unpruned (initialization and finalization).
    ///
    /// Returns the cycle at which the wave has fully drained. On a
    /// `Some(f)` wave, the token tables (and their hash shadows) swap:
    /// `cur` becomes the next frame's tokens.
    fn wave(&mut self, frame: Option<usize>, start: u64) -> u64 {
        let Engine {
            cfg,
            prepared,
            scores,
            map,
            state_cache,
            arc_cache,
            token_cache,
            dram,
            hash_cur,
            hash_next,
            cur,
            next,
            expanded,
            worklist,
            lattice,
            stats,
            last_arc_miss,
        } = self;
        let wfst = prepared.wfst();
        let emitting = frame.is_some();
        let threshold = if emitting {
            // The running frame-best was maintained on insert (the
            // hardware's likelihood max-reduction); no O(active) rescan.
            #[cfg(debug_assertions)]
            {
                let rescan = cur
                    .active()
                    .map(|s| cur.cost(s))
                    .fold(f32::INFINITY, f32::min);
                assert_eq!(
                    rescan,
                    cur.best(),
                    "running frame-best diverged from the active-list rescan"
                );
            }
            cur.best() + cfg.beam
        } else {
            f32::INFINITY
        };

        if emitting {
            next.begin_frame();
        }
        expanded.begin_frame();
        // The wave walks the tokens in insertion order — the hardware's
        // linked-list walk is the table's active list. Stored epsilon
        // relaxes re-enter at the tail.
        worklist.clear();
        worklist.extend(cur.active());
        let mut cursor = 0usize;

        // Timing cursors. The back-end (Acoustic Likelihood Issuer ->
        // Likelihood Evaluation -> Token Issuer hash update) processes one
        // arc at a time (Table I: 1 in-flight arc at the acoustic issuer),
        // so it is a single serial cursor.
        let mut token_cursor = start;
        let mut arc_tag_cursor = start;
        let mut backend_cursor = start;
        let mut state_window = InOrderWindow::new(cfg.state_window());
        let mut arc_window = InOrderWindow::new(cfg.arc_window());
        state_window.reset_at(start);
        arc_window.reset_at(start);

        while cursor < worklist.len() {
            let state_raw = worklist[cursor];
            cursor += 1;
            let Some((cell_cost, cell_trace)) = cur.get(state_raw) else {
                continue;
            };
            // Token fetch: one linked-list read per cycle.
            token_cursor += 1;
            stats.tokens_fetched += 1;
            stats.fp_compares += 1; // pruning comparison
            if cell_cost > threshold {
                stats.tokens_pruned += 1;
                continue;
            }
            if !expanded.relax(state_raw, cell_cost, || ()) {
                continue; // already expanded at this or a better cost
            }

            let state = StateId(state_raw);
            let entry = wfst.state(state);
            // Resolve the state's arc range: direct computation or fetch.
            let (range, state_ready) =
                match prepared.direct().and_then(|u| u.direct_arc_index(state)) {
                    Some((first, degree)) => {
                        stats.state_fetches_avoided += 1;
                        // `SortedWfst` derives its registers from the
                        // layout, and a stored image that disagrees is
                        // refused at load: the two cannot differ here.
                        debug_assert_eq!(first, entry.first_arc, "first arc of {state:?}");
                        debug_assert_eq!(degree as usize, entry.num_arcs(), "degree of {state:?}");
                        (entry.arc_range(), token_cursor)
                    }
                    None => {
                        if entry.num_arcs() == 0 {
                            continue;
                        }
                        stats.state_fetches += 1;
                        let t0 = state_window.admit(token_cursor);
                        let acc = state_cache.access(map.state_addr(state), false);
                        let ready = if acc.is_hit() {
                            t0 + 1
                        } else {
                            dram.request(t0 + 1, TrafficKind::States)
                        };
                        (entry.arc_range(), state_window.push(ready))
                    }
                };

            for arc_idx in range {
                let arc = wfst.arc(ArcId::from_index(arc_idx));
                // Arc fetch: tag check at one per cycle, in-order window.
                // Closure waves evaluate epsilon arcs only, but every
                // record still streams through the cache (the hardware
                // fetches the state's arcs as one contiguous burst).
                let mut t = state_ready.max(arc_tag_cursor + 1);
                t = arc_window.admit(t);
                arc_tag_cursor = t;
                stats.arc_fetches += 1;
                let addr = map.arc_addr(ArcId::from_index(arc_idx));
                let acc = arc_cache.access(addr, false);
                let ready = if acc.is_hit() {
                    t + 1
                } else {
                    let done = dram.request(t + 1, TrafficKind::Arcs);
                    let line = arc_cache.line_addr(addr);
                    hw_prefetch_arc(cfg, last_arc_miss, arc_cache, dram, line, t + 1);
                    done
                };
                let commit = arc_window.push(ready);

                if arc.is_epsilon() {
                    // Evaluate (one addition, no acoustic lookup), then the
                    // Token Issuer's hash update — serial per arc.
                    backend_cursor = backend_cursor.max(commit) + 1;
                    stats.eps_arcs_processed += 1;
                    stats.fp_adds += 1;
                    let cost = cell_cost + arc.weight;
                    stats.fp_compares += 1;
                    let stored = cur.relax_observed(
                        arc.dest.0,
                        cost,
                        || lattice.push(cell_trace, arc.olabel),
                        &mut TokenIssue {
                            hash: hash_cur,
                            dram,
                            cursor: &mut backend_cursor,
                        },
                    );
                    if stored {
                        stats.tokens_created += 1;
                        write_token(
                            map,
                            token_cache,
                            dram,
                            backend_cursor,
                            cur.payload(arc.dest.0),
                        );
                        worklist.push(arc.dest.0);
                    }
                } else if emitting {
                    let f = frame.expect("emitting wave has a frame");
                    // Acoustic buffer read (one in-flight arc), the
                    // three-way log-space sum, then the hash update.
                    backend_cursor = backend_cursor.max(commit) + 2;
                    stats.arcs_processed += 1;
                    stats.fp_adds += 2;
                    let cost = cell_cost + arc.weight + scores.cost(f, arc.ilabel);
                    stats.fp_compares += 1;
                    let stored = next.relax_observed(
                        arc.dest.0,
                        cost,
                        || lattice.push(cell_trace, arc.olabel),
                        &mut TokenIssue {
                            hash: hash_next,
                            dram,
                            cursor: &mut backend_cursor,
                        },
                    );
                    if stored {
                        stats.tokens_created += 1;
                        write_token(
                            map,
                            token_cache,
                            dram,
                            backend_cursor,
                            next.payload(arc.dest.0),
                        );
                    }
                }
                // Non-matching arcs in a closure wave are fetched and
                // dropped (no evaluation slot consumed).
            }
        }

        let end = token_cursor
            .max(arc_tag_cursor)
            .max(backend_cursor)
            .max(state_window.last_commit())
            .max(arc_window.last_commit());

        if emitting {
            // Frame boundary: the next-frame table (and its timing shadow)
            // becomes current.
            std::mem::swap(cur, next);
            std::mem::swap(hash_cur, hash_next);
            hash_next.clear();
        }
        end
    }

    /// End-of-utterance selection, exactly [`ViterbiDecoder`]'s contract:
    /// prefer tokens in final states (cost + final cost), fall back to the
    /// globally cheapest token, and break ties by ascending state id in
    /// the *original* numbering — so a degree-sorted layout cannot flip
    /// the winner on equal costs.
    ///
    /// [`ViterbiDecoder`]: asr_decoder::search::ViterbiDecoder
    fn finish(self) -> SimResult {
        let wfst = self.prepared.wfst();
        let mut states: Vec<u32> = self.cur.active().collect();
        states.sort_unstable_by_key(|&s| self.prepared.to_original(StateId(s)).0);
        let mut best_final: Option<(u32, f32, TraceId)> = None;
        let mut best_any: Option<(u32, f32, TraceId)> = None;
        for &state in &states {
            let (cost, trace) = self
                .cur
                .get(state)
                .expect("active-list states are live by construction");
            if best_any.is_none_or(|(_, c, _)| cost < c) {
                best_any = Some((state, cost, trace));
            }
            let f = wfst.final_cost(StateId(state));
            if f.is_finite() {
                let total = cost + f;
                if best_final.is_none_or(|(_, c, _)| total < c) {
                    best_final = Some((state, total, trace));
                }
            }
        }
        let (reached_final, chosen) = match (best_final, best_any) {
            (Some(f), _) => (true, Some(f)),
            (None, any) => (false, any),
        };
        match chosen {
            Some((state, cost, trace)) => SimResult {
                words: self.lattice.backtrack(trace),
                cost,
                reached_final,
                best_state: self.prepared.to_original(StateId(state)),
                stats: self.stats,
            },
            None => SimResult {
                words: Vec::new(),
                cost: f32::INFINITY,
                reached_final: false,
                best_state: self.prepared.to_original(wfst.start()),
                stats: self.stats,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DesignPoint;
    use asr_decoder::search::{DecodeOptions, ViterbiDecoder};
    use asr_wfst::synth::{SynthConfig, SynthWfst};

    fn workload(states: usize, frames: usize, seed: u64) -> (Wfst, AcousticTable) {
        let w = SynthWfst::generate(&SynthConfig::with_states(states).with_seed(seed)).unwrap();
        let scores =
            AcousticTable::random(frames, w.num_phones() as usize, (0.5, 4.0), seed ^ 0xABCD);
        (w, scores)
    }

    fn reference(
        wfst: &Wfst,
        scores: &AcousticTable,
        beam: f32,
    ) -> asr_decoder::search::DecodeResult {
        ViterbiDecoder::new(DecodeOptions::with_beam(beam)).decode(wfst, scores)
    }

    #[test]
    fn base_design_matches_reference_decoder() {
        let (w, scores) = workload(2_000, 20, 5);
        let cfg = AcceleratorConfig::for_design(DesignPoint::Base).with_beam(6.0);
        let sim = Simulator::new(cfg).decode_wfst(&w, &scores).unwrap();
        let reference = reference(&w, &scores, 6.0);
        assert_eq!(sim.cost, reference.cost);
        assert_eq!(sim.words, reference.words);
        assert_eq!(sim.reached_final, reference.reached_final);
        assert_eq!(sim.best_state, reference.best_state);
    }

    #[test]
    fn all_design_points_are_functionally_identical() {
        let (w, scores) = workload(3_000, 15, 9);
        let reference = reference(&w, &scores, 6.0);
        for design in DesignPoint::ALL {
            let cfg = AcceleratorConfig::for_design(design).with_beam(6.0);
            let sim = Simulator::new(cfg).decode_wfst(&w, &scores).unwrap();
            assert_eq!(sim.cost, reference.cost, "{design:?}");
            assert_eq!(sim.words, reference.words, "{design:?}");
            assert_eq!(sim.best_state, reference.best_state, "{design:?}");
        }
    }

    #[test]
    fn prefetcher_reduces_cycles() {
        let (w, scores) = workload(20_000, 30, 2);
        let base = Simulator::new(AcceleratorConfig::for_design(DesignPoint::Base).with_beam(6.0))
            .decode_wfst(&w, &scores)
            .unwrap();
        let pf =
            Simulator::new(AcceleratorConfig::for_design(DesignPoint::ArcPrefetch).with_beam(6.0))
                .decode_wfst(&w, &scores)
                .unwrap();
        assert!(
            pf.stats.cycles < base.stats.cycles,
            "prefetch {} !< base {}",
            pf.stats.cycles,
            base.stats.cycles
        );
    }

    #[test]
    fn state_opt_cuts_state_traffic() {
        let (w, scores) = workload(20_000, 30, 3);
        let base = Simulator::new(AcceleratorConfig::for_design(DesignPoint::Base).with_beam(6.0))
            .decode_wfst(&w, &scores)
            .unwrap();
        let opt =
            Simulator::new(AcceleratorConfig::for_design(DesignPoint::StateOpt).with_beam(6.0))
                .decode_wfst(&w, &scores)
                .unwrap();
        assert!(opt.stats.traffic.states < base.stats.traffic.states / 2);
        assert!(opt.stats.state_fetches_avoided > 0);
        // Total off-chip traffic shrinks (Figure 13).
        assert!(opt.stats.traffic.search_bytes() < base.stats.traffic.search_bytes());
    }

    #[test]
    fn perfect_caches_beat_real_caches() {
        let (w, scores) = workload(20_000, 20, 4);
        let real = Simulator::new(AcceleratorConfig::for_design(DesignPoint::Base).with_beam(6.0))
            .decode_wfst(&w, &scores)
            .unwrap();
        let perfect = Simulator::new(
            AcceleratorConfig::for_design(DesignPoint::Base)
                .with_beam(6.0)
                .with_perfect_caches(),
        )
        .decode_wfst(&w, &scores)
        .unwrap();
        assert!(perfect.stats.cycles < real.stats.cycles);
        assert_eq!(
            perfect.stats.traffic.arcs, 0,
            "perfect caches fetch nothing"
        );
        assert_eq!(perfect.cost, real.cost, "idealization is timing-only");
    }

    #[test]
    fn prefetch_approaches_perfect_arc_cache() {
        let (w, scores) = workload(30_000, 30, 6);
        let beam = 6.0;
        let pf =
            Simulator::new(AcceleratorConfig::for_design(DesignPoint::ArcPrefetch).with_beam(beam))
                .decode_wfst(&w, &scores)
                .unwrap();
        let mut perfect_cfg = AcceleratorConfig::for_design(DesignPoint::Base).with_beam(beam);
        perfect_cfg.perfect_arc_cache = true;
        let perfect = Simulator::new(perfect_cfg)
            .decode_wfst(&w, &scores)
            .unwrap();
        let ratio = perfect.stats.cycles as f64 / pf.stats.cycles as f64;
        assert!(
            ratio > 0.80,
            "prefetcher reaches only {:.2} of perfect-arc-cache performance",
            ratio
        );
    }

    #[test]
    fn stats_are_internally_consistent() {
        let (w, scores) = workload(5_000, 10, 7);
        let r = Simulator::new(AcceleratorConfig::default().with_beam(6.0))
            .decode_wfst(&w, &scores)
            .unwrap();
        let s = &r.stats;
        assert_eq!(s.frames, 10);
        assert!(s.cycles > 0);
        assert!(s.tokens_fetched >= s.tokens_pruned);
        assert!(s.arc_fetches >= s.arcs_processed + s.eps_arcs_processed);
        assert_eq!(s.arc_cache.accesses(), s.arc_fetches);
        assert_eq!(s.state_cache.accesses(), s.state_fetches);
        assert!(s.traffic.arcs >= s.arc_cache.misses * 64);
        assert!(s.hash.requests > 0);
        assert!(s.fp_adds > 0 && s.fp_compares > 0);
    }

    #[test]
    fn ideal_hash_never_spends_extra_cycles() {
        let (w, scores) = workload(5_000, 10, 8);
        let r = Simulator::new(
            AcceleratorConfig::default()
                .with_beam(6.0)
                .with_ideal_hash(),
        )
        .decode_wfst(&w, &scores)
        .unwrap();
        assert_eq!(r.stats.hash.avg_cycles_per_request(), 1.0);
        assert_eq!(r.stats.traffic.overflow, 0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let (w, scores) = workload(3_000, 10, 10);
        let cfg = AcceleratorConfig::for_design(DesignPoint::StateAndArc).with_beam(6.0);
        let a = Simulator::new(cfg.clone())
            .decode_wfst(&w, &scores)
            .unwrap();
        let b = Simulator::new(cfg).decode_wfst(&w, &scores).unwrap();
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.stats.traffic, b.stats.traffic);
    }

    #[test]
    fn per_frame_stats_cover_every_frame() {
        let (w, scores) = workload(3_000, 12, 21);
        let r = Simulator::new(AcceleratorConfig::default().with_beam(6.0))
            .decode_wfst(&w, &scores)
            .unwrap();
        assert_eq!(r.stats.per_frame.len(), 12);
        let frame_arcs: u64 = r.stats.per_frame.iter().map(|f| f.arcs).sum();
        // All emitting arcs happen inside frames; the init/final epsilon
        // closures may add a few epsilon evaluations outside any frame.
        assert!(frame_arcs >= r.stats.arcs_processed);
        assert!(frame_arcs <= r.stats.arcs_processed + r.stats.eps_arcs_processed);
        let frame_cycles: u64 = r.stats.per_frame.iter().map(|f| f.cycles).sum();
        assert!(frame_cycles <= r.stats.cycles);
        assert!(r.stats.per_frame.iter().all(|f| f.cycles > 0));
    }

    #[test]
    fn empty_utterance_is_handled() {
        let (w, _) = workload(500, 0, 11);
        let scores = AcousticTable::random(0, w.num_phones() as usize, (0.5, 4.0), 1);
        let r = Simulator::new(AcceleratorConfig::default())
            .decode_wfst(&w, &scores)
            .unwrap();
        assert_eq!(r.stats.frames, 0);
        assert!(r.words.is_empty());
    }
}
