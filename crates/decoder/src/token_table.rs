//! Epoch-tagged sparse-set token store: the software twin of the
//! accelerator's on-chip token hash tables (`asr-accel`'s `hash` module,
//! Section III of the paper).
//!
//! The hardware keeps the current and next frame's active tokens in two
//! 32K-entry hash tables whose entries hold the token likelihood plus a
//! next-pointer chaining all active entries for the State Issuer's walk;
//! swapping and clearing the tables is what ends a frame. Like the
//! accelerator, whose tables belong to the device and not to any one
//! utterance, this module splits what a frame needs from what outlives
//! it, and plays the datapath with the luxury of a *perfect* hash:
//!
//! * a `StateIndex` is the hash: one packed `{epoch, position}` slot
//!   per state (8 bytes), mapping a state to the position of its token in
//!   a token list. It is valid for one frame only, so the search keeps
//!   **one per thread**, grown to the largest graph the thread has
//!   searched and shared by every decode that thread steps;
//! * the **epoch tag** of a slot replaces clearing: a slot is live only if
//!   its tag equals the index's current epoch, so "flushing the hash
//!   table" between frames is one counter bump (`StateIndex::begin_frame`)
//!   instead of an `O(entries)` wipe or a `HashMap` rehash — and since a
//!   stale slot is all-zero bytes, building an index is one zeroed
//!   allocation whose pages the search faults in as it reaches them;
//! * a `LiveTokens` list is what the hash entries hold: `{state, cost,
//!   payload}` tokens stored densely in insertion order (the
//!   hardware's linked-list walk), deduplicated for free by the epoch
//!   check on first touch. It is sized by the active set, not the graph,
//!   so a decode keeps its live tokens between frames for 16 bytes each
//!   (with the search's pending-backpointer payload), and walking them
//!   never touches a graph-sized table.
//!
//! [`TokenTable`] pairs an index with its own list, for callers that keep
//! one table per frame (the accelerator simulator), and
//! [`TokenTable::relax_observed`] reports each attempt's [`RelaxOutcome`]
//! to the search's one [`Probe`], where the simulator's timing model
//! listens.
//!
//! After warm-up neither performs a heap allocation: lookups, inserts,
//! improvements, and per-frame resets all reuse the same storage. The
//! running frame-best cost is tracked on insert so the beam test
//! (`cost <= best + beam`) — the accelerator's prune-on-insert — is one
//! compare away.

use crate::probe::{NoopProbe, Probe};

/// Slot-level outcome of one [`TokenTable::relax`], as reported to a
/// [`Probe`].
///
/// This is exactly the case split the accelerator's Token Issuer sees at
/// the hash table: a probe either allocates a fresh entry (append to the
/// active list), updates an existing entry with a better likelihood, or
/// leaves a better-or-equal entry untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelaxOutcome {
    /// First touch of the state this epoch: a new slot went live and the
    /// state was appended to the active list.
    Appended,
    /// The state was already live and the new cost was strictly better;
    /// the slot was overwritten in place.
    Improved,
    /// The state was already live at an equal or better cost; nothing was
    /// stored and the payload closure was never evaluated.
    Rejected,
}

impl RelaxOutcome {
    /// `true` when the state was already live before the relax (the hash
    /// probe found an existing entry rather than allocating one).
    #[inline]
    pub fn existing(self) -> bool {
        !matches!(self, RelaxOutcome::Appended)
    }
}

/// One live token: its state, path cost and payload, side by side (16
/// bytes with the search's pending backpointer, 12 with a
/// [`crate::lattice::TraceId`]), so a relax touches one entry and an
/// append is one push.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Token<P> {
    /// The token's state.
    pub state: u32,
    /// Cost of the best path into `state`.
    pub cost: f32,
    /// The caller's payload (the backpointer in the decoders).
    pub payload: P,
}

/// One frame's tokens, stored densely in insertion order (the hardware's
/// linked-list walk), plus the running minimum cost.
///
/// `P` is the per-token payload (the backpointer in the decoders and the
/// simulator, `()` where only membership matters). A list is filled only
/// through a [`StateIndex`], which keeps each state at most once.
#[derive(Debug, Clone)]
pub(crate) struct LiveTokens<P> {
    tokens: Vec<Token<P>>,
    /// Cheapest cost stored (`f32::INFINITY` when empty).
    best: f32,
}

impl<P> Default for LiveTokens<P> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<P> LiveTokens<P> {
    /// An empty list with room for `tokens` tokens.
    pub fn with_capacity(tokens: usize) -> Self {
        Self {
            tokens: Vec::with_capacity(tokens),
            best: f32::INFINITY,
        }
    }

    /// Empties the list, keeping its capacity.
    pub fn clear(&mut self) {
        self.tokens.clear();
        self.best = f32::INFINITY;
    }

    /// Number of tokens.
    #[inline]
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// `true` when the list holds no token.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The tokens, in insertion order.
    #[inline]
    pub fn tokens(&self) -> &[Token<P>] {
        &self.tokens
    }

    /// The payloads in insertion order, writable in place (the lattice GC
    /// retargets backpointers through them).
    pub fn payloads_mut(&mut self) -> impl Iterator<Item = &mut P> {
        self.tokens.iter_mut().map(|token| &mut token.payload)
    }

    /// The payload of the token at `position`, writable in place (the
    /// epsilon closure records a pushed trace entry through it).
    #[inline]
    pub fn payload_mut(&mut self, position: usize) -> &mut P {
        &mut self.tokens[position].payload
    }

    /// Cheapest cost stored (`f32::INFINITY` when empty) — the running
    /// frame-best that drives prune-on-insert.
    #[inline]
    pub fn best(&self) -> f32 {
        self.best
    }
}

/// The perfect hash of one frame: state id → position of the state's
/// token in a [`LiveTokens`] list, cleared by epoch bump.
///
/// An index does not own the tokens it points at, so one index can serve
/// any number of lists, one frame at a time: [`StateIndex::begin_frame`]
/// forgets every position, and the relaxes that follow fill whichever
/// list the caller hands them. The search keeps one per thread for every
/// decode the thread steps.
#[derive(Debug, Clone)]
pub(crate) struct StateIndex {
    /// Current epoch, never 0; slots are live iff their tag matches.
    epoch: u32,
    /// One slot per state: the epoch tag in the low 32 bits, the token's
    /// position in the high 32. All-zero is a stale slot, so the slots
    /// are one zeroed allocation.
    slots: Vec<u64>,
}

impl Default for StateIndex {
    fn default() -> Self {
        Self::new(0)
    }
}

impl StateIndex {
    /// Creates an index covering states `0..num_states`.
    pub fn new(num_states: usize) -> Self {
        Self {
            // Tags start at 0, the epoch at 1: every slot is stale by
            // construction, so a fresh index is empty even before the
            // first `begin_frame`.
            epoch: 1,
            slots: vec![0; num_states],
        }
    }

    /// Number of state slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Grows the index to cover `num_states` states; never shrinks. A
    /// grown index has forgotten every position, like
    /// [`StateIndex::begin_frame`].
    pub fn ensure(&mut self, num_states: usize) {
        if self.slots.len() < num_states {
            // A fresh zeroed allocation rather than a resize: the old
            // slots would be copied only to be stale.
            self.slots = vec![0; num_states];
        }
    }

    /// Starts a new frame: one counter bump invalidates every slot (the
    /// hardware's table swap-and-clear).
    pub fn begin_frame(&mut self) {
        if self.epoch == u32::MAX {
            // Epoch wrap: the only O(n) reset, once every 2^32 frames.
            self.slots.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Test hook: jumps the epoch counter (to just below `u32::MAX`, so a
    /// short decode crosses the wrap). Slot tags are left as they are.
    #[cfg(test)]
    pub(crate) fn seed_epoch(&mut self, epoch: u32) {
        assert_ne!(epoch, 0, "epoch 0 would make never-written slots live");
        self.epoch = epoch;
    }

    /// Test hook: the current epoch (small again once a wrap has happened).
    #[cfg(test)]
    pub(crate) fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Position of `state`'s token this frame, if it has one.
    #[inline]
    pub fn position(&self, state: u32) -> Option<usize> {
        let slot = self.slots[state as usize];
        (slot as u32 == self.epoch).then_some((slot >> 32) as usize)
    }

    /// Keeps only the best in-going path per state — the accelerator's
    /// lookup-or-insert with likelihood compare — storing into `tokens`,
    /// which must be the list every relax since the last
    /// [`StateIndex::begin_frame`] stored into. Returns the token's
    /// position if it was inserted or improved; `payload` is evaluated
    /// only then (the search pushes the expanding token's trace entry
    /// inside it, on the token's first stored successor, if the token
    /// carries a word).
    #[inline]
    pub fn relax<P>(
        &mut self,
        tokens: &mut LiveTokens<P>,
        state: u32,
        cost: f32,
        payload: impl FnOnce() -> P,
    ) -> Option<usize> {
        self.relax_observed(tokens, state, cost, payload, &mut NoopProbe)
    }

    /// [`StateIndex::relax`] reporting the [`RelaxOutcome`] of the attempt
    /// (rejections included) to `probe`'s [`Probe::insert`] before the
    /// token is written and before `payload` runs; with [`NoopProbe`] it
    /// compiles down to exactly [`StateIndex::relax`].
    #[inline]
    pub fn relax_observed<P>(
        &mut self,
        tokens: &mut LiveTokens<P>,
        state: u32,
        cost: f32,
        payload: impl FnOnce() -> P,
        probe: &mut impl Probe,
    ) -> Option<usize> {
        let slot = &mut self.slots[state as usize];
        let position = if *slot as u32 == self.epoch {
            let position = (*slot >> 32) as usize;
            let token = &mut tokens.tokens[position];
            if token.cost <= cost {
                probe.insert(state, RelaxOutcome::Rejected);
                return None;
            }
            probe.insert(state, RelaxOutcome::Improved);
            // The payload is taken before anything is written, so a
            // panicking `payload` leaves the token as it was.
            token.payload = payload();
            token.cost = cost;
            position
        } else {
            probe.insert(state, RelaxOutcome::Appended);
            let position = tokens.tokens.len();
            tokens.tokens.push(Token {
                state,
                cost,
                payload: payload(),
            });
            *slot = (position as u64) << 32 | u64::from(self.epoch);
            position
        };
        if cost < tokens.best {
            tokens.best = cost;
        }
        Some(position)
    }
}

/// One frame's tokens, stored flat and cleared by epoch bump: a state
/// index with the one token list it fills.
///
/// `P` is the per-token payload stored next to the path cost; it must be
/// `Copy` (payloads are read out by value).
///
/// # Example
///
/// ```
/// use asr_decoder::token_table::TokenTable;
///
/// let mut table: TokenTable<u32> = TokenTable::new(100, 0);
/// table.begin_frame();
/// assert!(table.relax(7, 1.5, || 41));   // insert
/// assert!(table.relax(7, 1.0, || 42));   // improve
/// assert!(!table.relax(7, 2.0, || 43));  // worse: rejected
/// assert_eq!(table.get(7), Some((1.0, 42)));
/// assert!(table.active().eq([7]));
/// assert_eq!(table.best(), 1.0);
/// table.begin_frame();                   // O(1) clear
/// assert!(table.is_empty());
/// assert_eq!(table.get(7), None);
/// ```
#[derive(Debug, Clone)]
pub struct TokenTable<P: Copy> {
    index: StateIndex,
    tokens: LiveTokens<P>,
}

impl<P: Copy> TokenTable<P> {
    /// Creates a table covering states `0..num_states`.
    ///
    /// `fill` is unused: a payload is stored only by a live write. The
    /// parameter remains so the constructor is the one callers were
    /// written against.
    pub fn new(num_states: usize, fill: P) -> Self {
        let _ = fill;
        Self {
            index: StateIndex::new(num_states),
            tokens: LiveTokens::with_capacity(num_states.min(1 << 16)),
        }
    }

    /// Number of state slots.
    pub fn capacity(&self) -> usize {
        self.index.capacity()
    }

    /// Starts a new frame: one counter bump invalidates every slot (the
    /// hardware's table swap-and-clear).
    pub fn begin_frame(&mut self) {
        self.index.begin_frame();
        self.tokens.clear();
    }

    /// Test hook: jumps the epoch counter (see `StateIndex::seed_epoch`).
    #[cfg(test)]
    pub(crate) fn seed_epoch(&mut self, epoch: u32) {
        self.index.seed_epoch(epoch);
    }

    /// Position of a live token.
    ///
    /// # Panics
    ///
    /// Panics with `what` if the token is not live.
    #[inline]
    fn live(&self, state: u32, what: &str) -> usize {
        match self.index.position(state) {
            Some(position) => position,
            // LINT-ALLOW: panic — a stale read is the caller's bug (the
            // simulator reads only tokens its active list names), and
            // the message says which kind.
            None => panic!("{what}"),
        }
    }

    /// Looks up a live token.
    #[inline]
    pub fn get(&self, state: u32) -> Option<(f32, P)> {
        let token = self.tokens.tokens[self.index.position(state)?];
        Some((token.cost, token.payload))
    }

    /// Cost of a live token.
    ///
    /// # Panics
    ///
    /// Panics if the token is not live; callers iterate
    /// [`TokenTable::active`], whose entries always are.
    #[inline]
    pub fn cost(&self, state: u32) -> f32 {
        self.tokens.tokens[self.live(state, "stale token read")].cost
    }

    /// Payload of a live token.
    ///
    /// # Panics
    ///
    /// Panics if the token is not live; callers iterate
    /// [`TokenTable::active`], whose entries always are.
    #[inline]
    pub fn payload(&self, state: u32) -> P {
        self.tokens.tokens[self.live(state, "stale token read")].payload
    }

    /// Keeps only the best in-going path per state — the accelerator's
    /// lookup-or-insert with likelihood compare. Returns whether the token
    /// was inserted or improved; `payload` is evaluated only then (the
    /// sequential decoder allocates its lattice entry inside it).
    #[inline]
    pub fn relax(&mut self, state: u32, cost: f32, payload: impl FnOnce() -> P) -> bool {
        self.relax_observed(state, cost, payload, &mut NoopProbe)
    }

    /// [`TokenTable::relax`] reporting the [`RelaxOutcome`] of the attempt
    /// (rejections included) to `probe`'s [`Probe::insert`] before the
    /// token is written and before `payload` runs. The accelerator
    /// simulator's scoreboard hangs its hash/token timing off this; with
    /// [`NoopProbe`] it compiles down to exactly [`TokenTable::relax`].
    #[inline]
    pub fn relax_observed(
        &mut self,
        state: u32,
        cost: f32,
        payload: impl FnOnce() -> P,
        probe: &mut impl Probe,
    ) -> bool {
        (self.index)
            .relax_observed(&mut self.tokens, state, cost, payload, probe)
            .is_some()
    }

    /// The states inserted this epoch, in insertion order (the hardware
    /// linked-list walk).
    pub fn active(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.tokens.tokens().iter().map(|token| token.state)
    }

    /// Number of live tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// `true` when no token is live.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Cheapest live cost (`f32::INFINITY` when empty) — the running
    /// frame-best that drives prune-on-insert.
    pub fn best(&self) -> f32 {
        self.tokens.best()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_improve_reject() {
        let mut t: TokenTable<u64> = TokenTable::new(16, 0);
        t.begin_frame();
        assert!(t.relax(3, 2.0, || 1));
        assert!(!t.relax(3, 2.0, || 2), "equal cost keeps the first arrival");
        assert!(t.relax(3, 1.0, || 3));
        assert_eq!(t.get(3), Some((1.0, 3)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn epoch_bump_clears_in_constant_time() {
        let mut t: TokenTable<()> = TokenTable::new(8, ());
        t.begin_frame();
        for s in 0..8 {
            t.relax(s, s as f32, || ());
        }
        assert_eq!(t.len(), 8);
        t.begin_frame();
        assert!(t.is_empty());
        assert_eq!(t.get(0), None);
        assert_eq!(t.best(), f32::INFINITY);
        // Slots are reusable immediately.
        assert!(t.relax(5, 0.25, || ()));
        assert!(t.active().eq([5]));
    }

    #[test]
    fn active_list_dedupes_by_epoch() {
        let mut t: TokenTable<u32> = TokenTable::new(4, 0);
        t.begin_frame();
        t.relax(2, 3.0, || 0);
        t.relax(2, 1.0, || 1);
        t.relax(1, 2.0, || 2);
        t.relax(2, 0.5, || 3);
        assert!(t.active().eq([2, 1]), "insertion order, no duplicates");
        let tokens = [(2, 0.5, 3), (1, 2.0, 2)].map(|(state, cost, payload)| Token {
            state,
            cost,
            payload,
        });
        assert_eq!(t.tokens.tokens(), &tokens, "improved in place");
    }

    #[test]
    fn best_tracks_running_minimum() {
        let mut t: TokenTable<()> = TokenTable::new(4, ());
        t.begin_frame();
        assert_eq!(t.best(), f32::INFINITY);
        t.relax(0, 4.0, || ());
        assert_eq!(t.best(), 4.0);
        t.relax(1, 2.0, || ());
        assert_eq!(t.best(), 2.0);
        t.relax(2, 3.0, || ());
        assert_eq!(t.best(), 2.0);
    }

    #[test]
    fn epoch_wrap_resets_tags() {
        let mut t: TokenTable<()> = TokenTable::new(4, ());
        t.seed_epoch(u32::MAX - 1);
        t.begin_frame(); // epoch == MAX
        t.relax(1, 1.0, || ());
        t.begin_frame(); // wraps: tags rewritten, epoch restarts
        assert!(t.is_empty());
        assert_eq!(t.get(1), None);
        t.relax(2, 2.0, || ());
        assert!(t.active().eq([2]));
    }

    #[test]
    fn fresh_table_is_empty_before_first_frame() {
        let t: TokenTable<u32> = TokenTable::new(8, 0);
        assert!(t.is_empty());
        assert_eq!(t.get(3), None, "no phantom live tokens before begin_frame");
        assert_eq!(t.best(), f32::INFINITY);
    }

    #[test]
    #[should_panic(expected = "stale token read")]
    fn a_stale_payload_read_panics_instead_of_reading_a_zeroed_slot() {
        let t: TokenTable<u32> = TokenTable::new(4, 0);
        t.payload(2);
    }

    #[test]
    fn a_panicking_payload_leaves_the_slot_stale() {
        let mut t: TokenTable<u32> = TokenTable::new(4, 0);
        t.begin_frame();
        let relax = std::panic::AssertUnwindSafe(|| t.relax(1, 1.0, || panic!("no payload")));
        assert!(std::panic::catch_unwind(relax).is_err());
        assert_eq!(t.get(1), None, "no tag without a payload");
        assert!(t.is_empty());
        // Nor does one that improves a live token change it.
        assert!(t.relax(1, 2.0, || 7));
        let relax = std::panic::AssertUnwindSafe(|| t.relax(1, 1.0, || panic!("no payload")));
        assert!(std::panic::catch_unwind(relax).is_err());
        assert_eq!(t.get(1), Some((2.0, 7)));
    }

    #[test]
    fn observer_sees_every_relax_outcome() {
        struct Recorder(Vec<(u32, RelaxOutcome)>);
        impl Probe for Recorder {
            fn insert(&mut self, state: u32, outcome: RelaxOutcome) {
                self.0.push((state, outcome));
            }
        }
        let mut t: TokenTable<u32> = TokenTable::new(8, 0);
        let mut obs = Recorder(Vec::new());
        t.begin_frame();
        assert!(t.relax_observed(3, 2.0, || 1, &mut obs));
        assert!(!t.relax_observed(3, 2.5, || 2, &mut obs));
        assert!(t.relax_observed(3, 1.0, || 3, &mut obs));
        assert!(t.relax_observed(5, 4.0, || 4, &mut obs));
        assert_eq!(
            obs.0,
            vec![
                (3, RelaxOutcome::Appended),
                (3, RelaxOutcome::Rejected),
                (3, RelaxOutcome::Improved),
                (5, RelaxOutcome::Appended),
            ]
        );
        assert_eq!(t.get(3), Some((1.0, 3)), "rejected payload never stored");
    }

    #[test]
    fn relax_outcome_predicates() {
        assert!(!RelaxOutcome::Appended.existing());
        assert!(RelaxOutcome::Improved.existing());
        assert!(RelaxOutcome::Rejected.existing());
    }

    #[test]
    fn payload_updates_in_place() {
        let mut t: TokenTable<u32> = TokenTable::new(4, 0);
        t.begin_frame();
        t.relax(0, 1.0, || 10);
        t.relax(0, 0.5, || 99);
        assert_eq!(t.payload(0), 99);
        assert_eq!(t.cost(0), 0.5);
    }

    #[test]
    fn one_index_serves_many_lists_one_frame_at_a_time() {
        let mut index = StateIndex::new(8);
        let (mut a, mut b) = (LiveTokens::with_capacity(0), LiveTokens::with_capacity(0));
        index.begin_frame();
        assert_eq!(index.relax(&mut a, 6, 1.0, || 'a'), Some(0));
        assert_eq!(index.relax(&mut a, 2, 2.0, || 'b'), Some(1));
        assert_eq!(index.position(2), Some(1));
        // The next frame fills another list: `a` keeps its tokens, and
        // none of its positions leaks into `b`.
        index.begin_frame();
        assert_eq!(index.position(2), None);
        assert_eq!(index.relax(&mut b, 2, 5.0, || 'c'), Some(0));
        assert_eq!(index.relax(&mut b, 2, 6.0, || 'd'), None);
        let tokens = |list: &LiveTokens<char>| -> Vec<(u32, f32, char)> {
            list.tokens()
                .iter()
                .map(|t| (t.state, t.cost, t.payload))
                .collect()
        };
        assert_eq!(tokens(&a), [(6, 1.0, 'a'), (2, 2.0, 'b')]);
        assert_eq!((tokens(&b), b.best()), (vec![(2, 5.0, 'c')], 5.0));
        // Growing keeps the epoch and forgets every position.
        index.ensure(16);
        assert_eq!((index.capacity(), index.position(2)), (16, None));
        index.ensure(4);
        assert_eq!(index.capacity(), 16, "never shrinks");
    }
}
