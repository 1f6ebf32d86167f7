//! Epoch-tagged flat token store: the software twin of the accelerator's
//! on-chip token hash tables (`asr-accel`'s `hash` module, Section III of
//! the paper).
//!
//! The hardware keeps the current and next frame's active tokens in two
//! 32K-entry hash tables whose entries hold the token likelihood plus a
//! next-pointer chaining all active entries for the State Issuer's walk;
//! swapping and clearing the tables is what ends a frame. This module
//! plays that datapath in software with the luxury of a *perfect* hash —
//! a dense array indexed by state id:
//!
//! * **slots** mirror the hash entries: one packed `{epoch, cost,
//!   payload}` record per state (12 bytes with a
//!   [`crate::lattice::TraceId`] payload, so a relax touches one cache
//!   line, not one per field), carrying the path cost and a caller-chosen
//!   payload (the backpointer in the decoders and the simulator, `()`
//!   where only membership matters);
//! * the **epoch tag** of a slot replaces clearing: a slot is live only if
//!   its tag equals the table's current epoch, so "flushing the hash
//!   table" between frames is one counter bump ([`TokenTable::begin_frame`])
//!   instead of an `O(entries)` wipe or a `HashMap` rehash — and since a
//!   stale slot is all-zero bytes, building a table is one zeroed
//!   allocation whose pages the search faults in as it reaches them;
//! * the **active list** mirrors the hardware's insertion-ordered linked
//!   list: an append-only `Vec<u32>` of the states inserted this epoch,
//!   deduplicated for free by the epoch check on first touch.
//!
//! After warm-up the table performs no heap allocation: lookups, inserts,
//! improvements, and per-frame resets all reuse the same storage. The
//! running frame-best cost is tracked on insert so the beam test
//! (`cost <= best + beam`) — the accelerator's prune-on-insert — is one
//! compare away.

use std::mem::MaybeUninit;

/// Slot-level outcome of one [`TokenTable::relax`], as reported to an
/// [`InsertObserver`].
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
    /// `true` when the relax stored cost + payload (insert or improve) —
    /// the boolean [`TokenTable::relax`] returns.
    #[inline]
    pub fn stored(self) -> bool {
        !matches!(self, RelaxOutcome::Rejected)
    }

    /// `true` when the state was already live before the relax (the hash
    /// probe found an existing entry rather than allocating one).
    #[inline]
    pub fn existing(self) -> bool {
        !matches!(self, RelaxOutcome::Appended)
    }
}

/// Hook receiving one event per [`TokenTable::relax_observed`] call,
/// *before* the slot is written (and before the payload closure runs).
///
/// This is how a timing model rides along the functional search without
/// owning any search state: `asr-accel`'s simulator implements it to
/// charge hash-probe cycles, collision chains, and overflow round trips
/// for every insert attempt — including rejected ones, which still cost a
/// probe in hardware. The non-observing entry point
/// ([`TokenTable::relax`]) passes the zero-sized [`NoopObserver`], which
/// monomorphizes to nothing, so the decoder hot path pays no cost for the
/// hook.
pub trait InsertObserver {
    /// Called once per relax attempt with the slot-level outcome.
    fn observe(&mut self, state: u32, outcome: RelaxOutcome);
}

/// The do-nothing observer used by the non-instrumented search paths;
/// calls through it compile away entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl InsertObserver for NoopObserver {
    #[inline(always)]
    fn observe(&mut self, _state: u32, _outcome: RelaxOutcome) {}
}

/// One frame's tokens, stored flat and cleared by epoch bump.
///
/// `P` is the per-token payload stored next to the path cost; it must be
/// `Copy` (slots are recycled wholesale between epochs).
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
/// assert_eq!(table.active(), &[7]);
/// assert_eq!(table.best(), 1.0);
/// table.begin_frame();                   // O(1) clear
/// assert!(table.is_empty());
/// assert_eq!(table.get(7), None);
/// ```
#[derive(Debug, Clone)]
pub struct TokenTable<P: Copy> {
    /// Current epoch; slots are live iff their tag matches.
    epoch: u32,
    /// One slot per state. Invariant: a slot whose tag is non-zero holds
    /// an initialized payload, and `epoch` is never 0 when a slot is read —
    /// tags are written only by `relax_observed`, after the payload, and
    /// payloads are `Copy`, so nothing ever de-initializes one.
    slots: Box<[Slot<P>]>,
    /// States inserted this epoch, in insertion order.
    active: Vec<u32>,
    /// Cheapest cost inserted this epoch (`f32::INFINITY` when empty).
    best: f32,
}

/// One state's token: tag, cost and payload side by side. All-zero bytes
/// are a valid stale slot, so a fresh table is one zeroed allocation.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct Slot<P: Copy> {
    /// Epoch tag; the slot is live iff it equals the table's epoch.
    epoch: u32,
    /// Path cost (meaningful only while live).
    cost: f32,
    /// Payload; initialized whenever the tag is non-zero.
    payload: MaybeUninit<P>,
}

impl<P: Copy> TokenTable<P> {
    /// Creates a table covering states `0..num_states`.
    ///
    /// `fill` is unused: a payload is read only after a live write, and
    /// stale slots stay zeroed rather than being filled. The parameter
    /// remains so the constructor is the one callers were written against.
    pub fn new(num_states: usize, fill: P) -> Self {
        let _ = fill;
        let slots = Box::<[Slot<P>]>::new_zeroed_slice(num_states);
        Self {
            // Tags start at 0, the epoch at 1: every slot is stale by
            // construction, so a fresh table is empty even before the
            // first `begin_frame`.
            epoch: 1,
            // SAFETY: a `Slot` is a `u32`, an `f32` and a `MaybeUninit`;
            // each accepts all-zero bytes.
            slots: unsafe { slots.assume_init() },
            active: Vec::with_capacity(num_states.min(1 << 16)),
            best: f32::INFINITY,
        }
    }

    /// Number of state slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Starts a new frame: one counter bump invalidates every slot (the
    /// hardware's table swap-and-clear).
    pub fn begin_frame(&mut self) {
        if self.epoch == u32::MAX {
            // Epoch wrap: the only O(n) reset, once every 2^32 frames.
            self.slots.iter_mut().for_each(|s| s.epoch = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.active.clear();
        self.best = f32::INFINITY;
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

    /// Looks up a live token.
    #[inline]
    pub fn get(&self, state: u32) -> Option<(f32, P)> {
        let slot = &self.slots[state as usize];
        // SAFETY: the tag equals the non-zero epoch, so by the `slots`
        // invariant the payload was written.
        (slot.epoch == self.epoch).then(|| (slot.cost, unsafe { slot.payload.assume_init() }))
    }

    /// Cost of a live token.
    ///
    /// # Panics
    ///
    /// Panics (debug) or returns stale data (release) if the token is not
    /// live; callers iterate [`TokenTable::active`], whose entries always
    /// are.
    #[inline]
    pub fn cost(&self, state: u32) -> f32 {
        let slot = &self.slots[state as usize];
        debug_assert_eq!(slot.epoch, self.epoch, "stale token read");
        slot.cost
    }

    /// Payload of a live token.
    ///
    /// # Panics
    ///
    /// Panics if the token is not live (a stale slot may never have held a
    /// payload); callers iterate [`TokenTable::active`], whose entries
    /// always are.
    #[inline]
    pub fn payload(&self, state: u32) -> P {
        let slot = &self.slots[state as usize];
        assert_eq!(slot.epoch, self.epoch, "stale token read");
        // SAFETY: as in `get`.
        unsafe { slot.payload.assume_init() }
    }

    /// Overwrites the payload of a live token (used by lattice GC to
    /// retarget backpointers).
    #[inline]
    pub fn set_payload(&mut self, state: u32, payload: P) {
        let slot = &mut self.slots[state as usize];
        assert_eq!(slot.epoch, self.epoch, "stale token write");
        slot.payload = MaybeUninit::new(payload);
    }

    /// Keeps only the best in-going path per state — the accelerator's
    /// lookup-or-insert with likelihood compare. Returns whether the token
    /// was inserted or improved; `payload` is evaluated only then (the
    /// sequential decoder allocates its lattice entry inside it).
    #[inline]
    pub fn relax(&mut self, state: u32, cost: f32, payload: impl FnOnce() -> P) -> bool {
        self.relax_observed(state, cost, payload, &mut NoopObserver)
    }

    /// [`TokenTable::relax`] with a slot-event hook: `observer` sees the
    /// [`RelaxOutcome`] of every attempt (including rejections) before the
    /// slot is written and before `payload` runs. The accelerator
    /// simulator's scoreboard hangs its hash/token timing off this; with
    /// [`NoopObserver`] it compiles down to exactly [`TokenTable::relax`].
    #[inline]
    pub fn relax_observed(
        &mut self,
        state: u32,
        cost: f32,
        payload: impl FnOnce() -> P,
        observer: &mut impl InsertObserver,
    ) -> bool {
        let slot = &mut self.slots[state as usize];
        let appended = slot.epoch != self.epoch;
        if appended {
            observer.observe(state, RelaxOutcome::Appended);
        } else if slot.cost <= cost {
            observer.observe(state, RelaxOutcome::Rejected);
            return false;
        } else {
            observer.observe(state, RelaxOutcome::Improved);
        }
        // The payload lands before the tag, so a panicking `payload`
        // cannot leave a live slot without one.
        slot.payload = MaybeUninit::new(payload());
        slot.cost = cost;
        if appended {
            slot.epoch = self.epoch;
            self.active.push(state);
        }
        if cost < self.best {
            self.best = cost;
        }
        true
    }

    /// The states inserted this epoch, in insertion order (the hardware
    /// linked-list walk).
    pub fn active(&self) -> &[u32] {
        &self.active
    }

    /// Sorts the active list by state id in place (the deterministic
    /// expansion order of the reference decoder).
    pub fn sort_active(&mut self) {
        self.active.sort_unstable();
    }

    /// Number of live tokens.
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// `true` when no token is live.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Cheapest live cost (`f32::INFINITY` when empty) — the running
    /// frame-best that drives prune-on-insert.
    pub fn best(&self) -> f32 {
        self.best
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
        assert_eq!(t.active(), &[5]);
    }

    #[test]
    fn active_list_dedupes_by_epoch() {
        let mut t: TokenTable<u32> = TokenTable::new(4, 0);
        t.begin_frame();
        t.relax(2, 3.0, || 0);
        t.relax(2, 1.0, || 1);
        t.relax(1, 2.0, || 2);
        t.relax(2, 0.5, || 3);
        assert_eq!(t.active(), &[2, 1], "insertion order, no duplicates");
        t.sort_active();
        assert_eq!(t.active(), &[1, 2]);
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
        assert_eq!(t.active(), &[2]);
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
    }

    #[test]
    fn observer_sees_every_relax_outcome() {
        struct Recorder(Vec<(u32, RelaxOutcome)>);
        impl InsertObserver for Recorder {
            fn observe(&mut self, state: u32, outcome: RelaxOutcome) {
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
        assert!(RelaxOutcome::Appended.stored());
        assert!(RelaxOutcome::Improved.stored());
        assert!(!RelaxOutcome::Rejected.stored());
        assert!(!RelaxOutcome::Appended.existing());
        assert!(RelaxOutcome::Improved.existing());
        assert!(RelaxOutcome::Rejected.existing());
    }

    #[test]
    fn payload_updates_in_place() {
        let mut t: TokenTable<u32> = TokenTable::new(4, 0);
        t.begin_frame();
        t.relax(0, 1.0, || 10);
        t.set_payload(0, 99);
        assert_eq!(t.payload(0), 99);
        assert_eq!(t.cost(0), 1.0);
    }
}
