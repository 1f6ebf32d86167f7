//! The retained `HashMap` reference decoder — the seed implementation the
//! token-table engine in [`crate::search`] is verified against.
//!
//! Semantics are the original frame-synchronous Viterbi beam search:
//! tokens live in a per-frame `HashMap<u32, Cell>`, every frame collects,
//! filters, and sorts the whole map, and every relax unconditionally
//! pushes a lattice entry. It is deliberately kept allocation-heavy and
//! simple: it is the tests' oracle, not a baseline to report a speedup
//! over — the equivalence suite asserts the optimized decoder produces
//! byte-identical `words`, `cost`, and `best_state`.
//!
//! The only change from the seed is the `max_active` path of the
//! (private) `ReferenceDecoder::prune`: survivors are now rank-selected
//! with one `select_nth_unstable_by` instead of being fully sorted twice.

use crate::lattice::{Lattice, TraceId};
use crate::search::{DecodeOptions, DecodeResult, DecodeStats, FrameStats};
use asr_acoustic::scores::AcousticTable;
use asr_wfst::{StateId, Wfst, WordId};
use std::collections::HashMap;

#[derive(Debug, Clone, Copy)]
struct Cell {
    cost: f32,
    trace: TraceId,
}

/// The seed `HashMap` beam-search decoder.
///
/// Deterministic: tokens are expanded in ascending state order, so equal
/// inputs produce identical lattices and results on every run and
/// platform. It keeps the full token trace, exactly as the seed did
/// (the search compacts its own every 32 frames).
#[derive(Debug, Clone, Default)]
pub struct ReferenceDecoder {
    opts: DecodeOptions,
}

impl ReferenceDecoder {
    /// Creates a decoder with the given options.
    pub fn new(opts: DecodeOptions) -> Self {
        Self { opts }
    }

    /// The configured options.
    pub fn options(&self) -> &DecodeOptions {
        &self.opts
    }

    /// Runs the search over all frames of `scores`.
    ///
    /// # Panics
    ///
    /// Panics if the WFST references phone labels outside the score table.
    pub fn decode(&self, wfst: &Wfst, scores: &AcousticTable) -> DecodeResult {
        let mut lattice = Lattice::new();
        let mut stats = DecodeStats::default();
        let mut cur: HashMap<u32, Cell> = HashMap::new();

        let start_trace = lattice.push(TraceId::ROOT, WordId::NONE);
        cur.insert(
            wfst.start().0,
            Cell {
                cost: 0.0,
                trace: start_trace,
            },
        );
        // Initial epsilon closure, before any frame is consumed.
        let mut scratch = FrameStats::default();
        epsilon_closure(wfst, &mut cur, &mut lattice, &mut scratch);

        for frame in 0..scores.num_frames() {
            let mut fs = FrameStats {
                active_tokens: cur.len(),
                ..FrameStats::default()
            };
            let expanded = self.prune(&cur);
            fs.expanded_tokens = expanded.len();

            let mut next: HashMap<u32, Cell> = HashMap::with_capacity(expanded.len() * 2);
            for &(state_raw, cell) in &expanded {
                let state = StateId(state_raw);
                for arc in wfst.emitting_arcs(state) {
                    fs.arcs_traversed += 1;
                    let cost = cell.cost + arc.weight + scores.cost(frame, arc.ilabel);
                    relax(
                        &mut next,
                        &mut lattice,
                        arc.dest.0,
                        cost,
                        cell.trace,
                        arc.olabel,
                        &mut fs,
                    );
                }
                // Epsilon arcs of the *source* state were already resolved
                // by the closure of the previous frame; closure below
                // handles the new frontier.
            }
            epsilon_closure(wfst, &mut next, &mut lattice, &mut fs);
            cur = next;
            stats.frames.push(fs);
            if cur.is_empty() {
                break; // the beam killed every path; decode fails gracefully
            }
        }

        self.finish(wfst, cur, lattice, stats)
    }

    /// Applies beam (and optional histogram) pruning, returning surviving
    /// tokens in ascending state order.
    fn prune(&self, cur: &HashMap<u32, Cell>) -> Vec<(u32, Cell)> {
        let best = cur.values().map(|c| c.cost).fold(f32::INFINITY, f32::min);
        let threshold = best + self.opts.beam;
        let mut expanded: Vec<(u32, Cell)> = cur
            .iter()
            .filter(|(_, c)| c.cost <= threshold)
            .map(|(&s, &c)| (s, c))
            .collect();
        if let Some(cap) = self.opts.max_active {
            if cap == 0 {
                expanded.clear();
            } else if expanded.len() > cap {
                // One rank-selection instead of the seed's two full sorts:
                // partition the `cap` cheapest (ties by state id) to the
                // front, then order only the survivors by state.
                expanded.select_nth_unstable_by(cap - 1, |a, b| {
                    a.1.cost.total_cmp(&b.1.cost).then(a.0.cmp(&b.0))
                });
                expanded.truncate(cap);
            }
        }
        expanded.sort_unstable_by_key(|&(s, _)| s);
        expanded
    }

    fn finish(
        &self,
        wfst: &Wfst,
        cur: HashMap<u32, Cell>,
        lattice: Lattice,
        stats: DecodeStats,
    ) -> DecodeResult {
        // Prefer tokens in final states (cost + final cost); fall back to
        // the globally cheapest token, as Kaldi does for truncated audio.
        let mut best_final: Option<(u32, f32, TraceId)> = None;
        let mut best_any: Option<(u32, f32, TraceId)> = None;
        let mut states: Vec<(&u32, &Cell)> = cur.iter().collect();
        states.sort_unstable_by_key(|(s, _)| **s);
        for (&state, cell) in states {
            let better_any = best_any.is_none_or(|(_, c, _)| cell.cost < c);
            if better_any {
                best_any = Some((state, cell.cost, cell.trace));
            }
            let f = wfst.final_cost(StateId(state));
            if f.is_finite() {
                let total = cell.cost + f;
                let better = best_final.is_none_or(|(_, c, _)| total < c);
                if better {
                    best_final = Some((state, total, cell.trace));
                }
            }
        }
        let (reached_final, chosen) = match (best_final, best_any) {
            (Some(f), _) => (true, Some(f)),
            (None, any) => (false, any),
        };
        match chosen {
            Some((state, cost, trace)) => {
                let words = lattice.backtrack(trace);
                DecodeResult {
                    words,
                    cost,
                    reached_final,
                    best_state: StateId(state),
                    stats,
                }
            }
            None => DecodeResult {
                words: Vec::new(),
                cost: f32::INFINITY,
                reached_final: false,
                best_state: wfst.start(),
                stats,
            },
        }
    }
}

/// Transitively relaxes epsilon arcs inside one frame's token set.
///
/// Worklist algorithm: whenever a token improves, its epsilon arcs are
/// reconsidered. Non-negative weights guarantee termination (zero-weight
/// cycles yield no strict improvement and stop). Deterministic because the
/// initial worklist is sorted by state id.
fn epsilon_closure(
    wfst: &Wfst,
    tokens: &mut HashMap<u32, Cell>,
    lattice: &mut Lattice,
    fs: &mut FrameStats,
) {
    let mut worklist: Vec<u32> = tokens.keys().copied().collect();
    worklist.sort_unstable();
    let mut idx = 0;
    while idx < worklist.len() {
        let state_raw = worklist[idx];
        idx += 1;
        let Some(&cell) = tokens.get(&state_raw) else {
            continue;
        };
        for arc in wfst.epsilon_arcs(StateId(state_raw)) {
            fs.arcs_traversed += 1;
            let cost = cell.cost + arc.weight;
            let improved = relax(
                tokens, lattice, arc.dest.0, cost, cell.trace, arc.olabel, fs,
            );
            if improved {
                worklist.push(arc.dest.0);
            }
        }
    }
}

/// Keeps only the best ingoing path per destination token, appending a
/// lattice entry when the path improves. Returns whether an improvement
/// happened.
fn relax(
    map: &mut HashMap<u32, Cell>,
    lattice: &mut Lattice,
    dest: u32,
    cost: f32,
    prev: TraceId,
    word: WordId,
    fs: &mut FrameStats,
) -> bool {
    match map.get_mut(&dest) {
        Some(cell) if cell.cost <= cost => false,
        slot => {
            let trace = lattice.push(prev, word);
            let cell = Cell { cost, trace };
            match slot {
                Some(existing) => *existing = cell,
                None => {
                    map.insert(dest, cell);
                }
            }
            fs.tokens_created += 1;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_wfst::builder::WfstBuilder;
    use asr_wfst::synth::{SynthConfig, SynthWfst};
    use asr_wfst::PhoneId;

    #[test]
    fn reference_decode_is_deterministic() {
        let w = SynthWfst::generate(&SynthConfig::with_states(2_000)).unwrap();
        let scores = AcousticTable::random(20, w.num_phones() as usize, (0.5, 4.0), 3);
        let d = ReferenceDecoder::new(DecodeOptions::with_beam(6.0));
        let a = d.decode(&w, &scores);
        let b = d.decode(&w, &scores);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.words, b.words);
        // Every stored token pushed an entry: equal stats, equal traces.
        assert_eq!(a.stats.frames, b.stats.frames);
        assert_eq!(a.best_state, b.best_state);
    }

    #[test]
    fn max_active_selection_keeps_the_cheapest_tokens() {
        // Parallel arcs into many destinations; cap must keep the cheapest.
        let mut b = WfstBuilder::new();
        let s0 = b.add_state();
        let dests: Vec<_> = (0..8).map(|_| b.add_state()).collect();
        b.set_start(s0);
        for (i, &d) in dests.iter().enumerate() {
            b.add_arc(s0, d, PhoneId(1), WordId(i as u32 + 1), i as f32);
            b.add_arc(d, d, PhoneId(1), WordId::NONE, 0.1);
            b.set_final(d, 0.0);
        }
        let w = b.build().unwrap();
        let scores = AcousticTable::from_fn(2, 2, |_, _| 0.5);
        let r = ReferenceDecoder::new(DecodeOptions {
            beam: 100.0,
            max_active: Some(3),
        })
        .decode(&w, &scores);
        // Frame 1 expands at most the cap.
        assert!(r.stats.frames[1].expanded_tokens <= 3);
        // The surviving path is the cheapest branch.
        assert_eq!(r.words, vec![WordId(1)]);
    }
}
