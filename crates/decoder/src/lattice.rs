//! The token trace ("lattice") written to main memory during the search.
//!
//! The paper splits token data in two (Section III): the likelihood and
//! state index live in the frame-local hash tables and die with the frame,
//! while the *backpointer to the best predecessor* and the *word index* are
//! written to main memory — they are what backtracking walks when the
//! utterance ends. This module is that main-memory array.
//!
//! The accelerator writes an entry for every token it stores, and its
//! simulator (`asr-accel`) and the seed [`crate::reference`] decoder do
//! the same. The software search keeps only what backtracking reads: an
//! entry for each token that *carries a word* and *expands*. A live token
//! carries its entry's two fields as a `Pending` backpointer and pushes
//! them the first time it stores a successor, which needs the entry as
//! its `prev`. A token whose arc emitted no word needs no entry at all:
//! its successors point at its predecessor's, which holds the same words.
//! Most tokens a frame makes carry no word, and most of the rest are
//! dropped by the beam, the cap or a better rival before they expand, so
//! the trace shrinks to about a twentieth of the tokens stored
//! (ARCHITECTURE.md, "Memory per session").

use asr_wfst::WordId;

/// Index of a trace entry; `TraceId::ROOT` marks the path origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u32);

impl TraceId {
    /// Sentinel for "no predecessor" (the start-of-utterance token).
    pub const ROOT: TraceId = TraceId(u32::MAX);

    /// Returns `true` for the root sentinel.
    #[inline]
    fn is_root(self) -> bool {
        self == Self::ROOT
    }
}

/// One token's permanent record: best predecessor and emitted word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Backpointer to the predecessor token's entry.
    pub prev: TraceId,
    /// Word emitted by the arc that created this token (often
    /// [`WordId::NONE`]).
    pub word: WordId,
}

/// Append-only trace of every token created during a decode.
///
/// Superseded paths leave dead entries behind, exactly as the accelerator
/// leaves stale tokens in DRAM; backtracking only touches the live chain.
#[derive(Debug, Clone, Default)]
pub struct Lattice {
    entries: Vec<TraceEntry>,
}

impl Lattice {
    /// Creates an empty lattice.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the lattice would exceed `u32::MAX - 1` entries.
    pub fn push(&mut self, prev: TraceId, word: WordId) -> TraceId {
        let id = self.entries.len();
        assert!(id < u32::MAX as usize, "lattice overflow");
        self.entries.push(TraceEntry { prev, word });
        TraceId(id as u32)
    }

    /// Number of entries (including superseded ones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no tokens have been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` is the root sentinel or out of range.
    pub fn entry(&self, id: TraceId) -> TraceEntry {
        assert!(!id.is_root(), "root sentinel has no entry");
        self.entries[id.0 as usize]
    }

    /// Empties the trace, keeping its capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Walks backpointers from `last` to the root, returning the emitted
    /// words in utterance order (the paper's backtracking step, run on the
    /// CPU).
    ///
    /// # Panics
    ///
    /// Panics if `last` is out of range.
    pub fn backtrack(&self, last: TraceId) -> Vec<WordId> {
        self.backtrack_then(last, WordId::NONE)
    }

    /// [`Lattice::backtrack`] with `word` appended unless it is
    /// [`WordId::NONE`]. The chain is walked twice, once to count the
    /// words, so the result is one allocation of exactly their number.
    fn backtrack_then(&self, last: TraceId, word: WordId) -> Vec<WordId> {
        let chain = || {
            let mut cur = last;
            std::iter::from_fn(move || {
                let e = (!cur.is_root()).then(|| self.entry(cur))?;
                cur = e.prev;
                Some(e.word)
            })
            .filter(|word| !word.is_none())
        };
        let mut words = Vec::with_capacity(chain().count() + usize::from(!word.is_none()));
        words.extend(chain());
        words.reverse();
        if !word.is_none() {
            words.push(word);
        }
        words
    }

    /// Mark-compact garbage collection over the backpointer chains
    /// (Kaldi's periodic token GC, `PruneActiveTokens`): every entry
    /// reachable from `roots` survives with its chain intact, everything
    /// else — tokens superseded by a better in-going path, or whose whole
    /// path fell out of the beam — is dropped, and `roots` are rewritten
    /// to the surviving ids.
    ///
    /// Entry order is preserved, so backpointers keep pointing backwards
    /// and a single forward pass compacts in place. With reused `scratch`
    /// the collection performs no heap allocation once its buffers have
    /// grown to the lattice watermark.
    ///
    /// Returns the number of retained entries.
    ///
    /// # Panics
    ///
    /// Panics if any root is out of range.
    pub fn compact(&mut self, roots: &mut [TraceId], scratch: &mut CompactScratch) -> usize {
        let len = self.entries.len();
        scratch.live.clear();
        scratch.live.resize(len, false);
        scratch.remap.clear();
        scratch.remap.resize(len, 0);
        // Mark: walk each chain until the root sentinel or an entry the
        // walk has already claimed.
        for &root in roots.iter() {
            let mut cur = root;
            while !cur.is_root() {
                let idx = cur.0 as usize;
                if scratch.live[idx] {
                    break;
                }
                scratch.live[idx] = true;
                cur = self.entries[idx].prev;
            }
        }
        // Compact: predecessors always precede their successors, so their
        // new ids are known by the time a successor is rewritten.
        let mut kept = 0usize;
        for idx in 0..len {
            if !scratch.live[idx] {
                continue;
            }
            let mut entry = self.entries[idx];
            if !entry.prev.is_root() {
                entry.prev = TraceId(scratch.remap[entry.prev.0 as usize]);
            }
            scratch.remap[idx] = kept as u32;
            self.entries[kept] = entry;
            kept += 1;
        }
        self.entries.truncate(kept);
        for root in roots.iter_mut() {
            if !root.is_root() {
                *root = TraceId(scratch.remap[root.0 as usize]);
            }
        }
        kept
    }
}

/// A live token's backpointer: the `{prev, word}` entry the token will
/// push once it expands, or, once it has (or when it carries no word),
/// the id of the entry that stands for it.
///
/// A token is made by a relax that stores it (the `prev` of its creator
/// and the word of the arc), and it needs an entry of its own only when
/// it carries a word and stores a successor: [`Pending::entry`] pushes it
/// then, once. A token with no word already counts as pushed, its entry
/// being its predecessor's, and a token the beam, the cap or a better
/// rival drops first never reaches the trace. The two forms cost the same
/// 8 bytes, so a token is 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pending {
    /// The predecessor's entry; once pushed, the token's own.
    prev: TraceId,
    /// The word of the arc that made the token; [`WordId::NONE`] once the
    /// entry is in the trace, or when the arc emitted none.
    word: WordId,
}

impl Pending {
    /// A token made by an arc emitting `word` (or [`WordId::NONE`]) out of
    /// the token whose entry is `prev` (or [`TraceId::ROOT`] for the start
    /// token).
    #[inline]
    pub fn new(prev: TraceId, word: WordId) -> Self {
        Self { prev, word }
    }

    /// The token's entry, pushed into `lattice` on the first call if the
    /// token carries a word; a wordless token's entry is its
    /// predecessor's.
    #[inline]
    pub fn entry(&mut self, lattice: &mut Lattice) -> TraceId {
        if !self.word.is_none() {
            *self = Self::new(lattice.push(self.prev, self.word), WordId::NONE);
        }
        self.prev
    }

    /// The entry this backpointer keeps alive: the predecessor's, or the
    /// token's own once pushed. The lattice GC marks from it, and
    /// retargets it through [`Pending::root_mut`].
    #[inline]
    pub fn root(self) -> TraceId {
        self.prev
    }

    /// [`Pending::root`], writable.
    #[inline]
    pub fn root_mut(&mut self) -> &mut TraceId {
        &mut self.prev
    }

    /// The words on the token's path, in utterance order: the backtrack
    /// from [`Pending::root`], then the token's own word if it is still
    /// pending.
    ///
    /// # Panics
    ///
    /// Panics if the root is out of range of `lattice`.
    pub fn backtrack(self, lattice: &Lattice) -> Vec<WordId> {
        lattice.backtrack_then(self.prev, self.word)
    }
}

/// Reusable buffers for [`Lattice::compact`].
#[derive(Debug, Clone, Default)]
pub struct CompactScratch {
    live: Vec<bool>,
    remap: Vec<u32>,
}

impl CompactScratch {
    /// Creates empty scratch; buffers grow to the lattice watermark on
    /// first use and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backtrack_recovers_word_order() {
        let mut l = Lattice::new();
        let a = l.push(TraceId::ROOT, WordId(5));
        let b = l.push(a, WordId::NONE);
        let c = l.push(b, WordId(7));
        assert_eq!(l.backtrack(c), vec![WordId(5), WordId(7)]);
    }

    #[test]
    fn backtrack_from_root_child_with_no_word_is_empty() {
        let mut l = Lattice::new();
        let a = l.push(TraceId::ROOT, WordId::NONE);
        assert!(l.backtrack(a).is_empty());
    }

    #[test]
    fn dead_entries_do_not_affect_live_chain() {
        let mut l = Lattice::new();
        let a = l.push(TraceId::ROOT, WordId(1));
        let _dead = l.push(TraceId::ROOT, WordId(9));
        let b = l.push(a, WordId(2));
        assert_eq!(l.backtrack(b), vec![WordId(1), WordId(2)]);
        assert_eq!(l.len(), 3);
    }

    #[test]
    #[should_panic(expected = "root sentinel")]
    fn entry_of_root_panics() {
        Lattice::new().entry(TraceId::ROOT);
    }

    #[test]
    fn is_empty_reflects_state() {
        let mut l = Lattice::new();
        assert!(l.is_empty());
        l.push(TraceId::ROOT, WordId::NONE);
        assert!(!l.is_empty());
    }

    #[test]
    fn compact_drops_dead_entries_and_preserves_chains() {
        let mut l = Lattice::new();
        let a = l.push(TraceId::ROOT, WordId(1));
        let dead1 = l.push(TraceId::ROOT, WordId(9));
        let b = l.push(a, WordId(2));
        let _dead2 = l.push(dead1, WordId(8));
        let c = l.push(b, WordId(3));
        let mut roots = [c];
        let kept = l.compact(&mut roots, &mut CompactScratch::new());
        assert_eq!(kept, 3);
        assert_eq!(l.len(), 3);
        assert_eq!(l.backtrack(roots[0]), vec![WordId(1), WordId(2), WordId(3)]);
    }

    #[test]
    fn compact_with_shared_prefix_keeps_it_once() {
        let mut l = Lattice::new();
        let a = l.push(TraceId::ROOT, WordId(1));
        let b1 = l.push(a, WordId(2));
        let b2 = l.push(a, WordId(3));
        let mut roots = [b1, b2];
        let kept = l.compact(&mut roots, &mut CompactScratch::new());
        assert_eq!(kept, 3);
        assert_eq!(l.backtrack(roots[0]), vec![WordId(1), WordId(2)]);
        assert_eq!(l.backtrack(roots[1]), vec![WordId(1), WordId(3)]);
    }

    #[test]
    fn compact_of_empty_roots_clears_everything() {
        let mut l = Lattice::new();
        l.push(TraceId::ROOT, WordId(1));
        l.push(TraceId::ROOT, WordId(2));
        let kept = l.compact(&mut [], &mut CompactScratch::new());
        assert_eq!(kept, 0);
        assert!(l.is_empty());
    }

    #[test]
    fn compact_is_idempotent_on_live_data() {
        let mut l = Lattice::new();
        let mut cur = TraceId::ROOT;
        for w in 1..=20u32 {
            cur = l.push(cur, WordId(w));
            if w % 3 == 0 {
                l.push(cur, WordId(100 + w)); // dead branch
            }
        }
        let mut scratch = CompactScratch::new();
        let mut roots = [cur];
        let first = l.compact(&mut roots, &mut scratch);
        let words = l.backtrack(roots[0]);
        let second = l.compact(&mut roots, &mut scratch);
        assert_eq!(first, second, "second pass finds nothing new to drop");
        assert_eq!(l.backtrack(roots[0]), words);
        assert_eq!(words.len(), 20);
    }

    #[test]
    fn a_pending_entry_is_pushed_once_and_backtracks_like_a_pushed_one() {
        let mut l = Lattice::new();
        let a = l.push(TraceId::ROOT, WordId(1));
        // A word token: pushed once, when it expands, and it backtracks the
        // same before and after.
        let mut pending = Pending::new(a, WordId(2));
        assert_eq!(pending.backtrack(&l), vec![WordId(1), WordId(2)]);
        assert_eq!(pending.root(), a);
        assert!(l.len() == 1, "nothing pushed before the token expands");
        let b = pending.entry(&mut l);
        assert_eq!((pending.entry(&mut l), l.len()), (b, 2), "pushed once");
        assert_eq!(
            l.entry(b),
            TraceEntry {
                prev: a,
                word: WordId(2)
            }
        );
        assert_eq!(pending, Pending::new(b, WordId::NONE));
        assert_eq!(pending.root(), b);
        assert_eq!(pending.backtrack(&l), vec![WordId(1), WordId(2)]);
        assert_eq!(l.backtrack(b), vec![WordId(1), WordId(2)]);
        // A wordless token pushes nothing: its entry is its predecessor's,
        // and it backtracks like its predecessor.
        let mut wordless = Pending::new(b, WordId::NONE);
        assert_eq!(wordless.backtrack(&l), l.backtrack(b));
        assert_eq!((wordless.entry(&mut l), l.len()), (b, 2), "nothing pushed");
        assert_eq!(wordless, Pending::new(b, WordId::NONE));
        assert_eq!(wordless.backtrack(&l), l.backtrack(b));
        // The start token: no word, and the root predecessor.
        let mut start = Pending::new(TraceId::ROOT, WordId::NONE);
        assert!(start.backtrack(&l).is_empty());
        assert_eq!((start.entry(&mut l), l.len()), (TraceId::ROOT, 2));
        assert!(Pending::new(TraceId::ROOT, WordId::NONE)
            .backtrack(&l)
            .is_empty());
        assert_eq!(
            Pending::new(TraceId::ROOT, WordId(3)).backtrack(&l),
            vec![WordId(3)]
        );
    }

    #[test]
    fn backtrack_allocates_exactly_the_words() {
        let mut l = Lattice::new();
        let mut cur = TraceId::ROOT;
        for w in [0, 4, 0, 0, 5, 6, 0] {
            cur = l.push(cur, WordId(w));
        }
        let words = l.backtrack(cur);
        assert_eq!(words, vec![WordId(4), WordId(5), WordId(6)]);
        assert_eq!(words.capacity(), 3);
        let words = Pending::new(cur, WordId(7)).backtrack(&l);
        assert_eq!((words.len(), words.capacity()), (4, 4));
    }

    #[test]
    fn root_sentinel_roots_survive_compaction() {
        let mut l = Lattice::new();
        l.push(TraceId::ROOT, WordId(1));
        let mut roots = [TraceId::ROOT];
        let kept = l.compact(&mut roots, &mut CompactScratch::new());
        assert_eq!(kept, 0);
        assert!(roots[0].is_root());
    }
}
