//! Timing model of the accelerator's token hash tables (Section III).
//!
//! Two hash tables track the active tokens of the current and next frame.
//! Each entry stores the token's likelihood, the main-memory address of its
//! backpointer, the state index, and a next-pointer linking all active
//! entries for the next frame's State Issuer walk. Collisions chain into a
//! backup buffer; when the backup buffer fills, entries spill to the
//! Overflow Buffer in main memory — rare at 32K entries (Figure 5), and
//! costly when it happens.
//!
//! Since the simulator's *functional* search moved onto
//! [`asr_decoder::token_table::TokenTable`], this module no longer stores
//! any search state: the token table's slots are the source of truth for
//! which states are live and in what order they were inserted (its active
//! list *is* the hardware's linked-list walk). What remains here is pure
//! timing, keyed off the same per-state slots — an epoch-tagged chain
//! position per state, chain lengths per bucket, and the backup/overflow
//! occupancy — driven by one [`HashTable::access`] per observed insert
//! attempt.
//!
//! Timing model: an access that lands on its home bucket takes one cycle;
//! each chained entry traversed adds a cycle; an access that must touch the
//! overflow buffer pays a main-memory round trip (accounted by the caller
//! through the DRAM model so contention is shared).

/// Result of one hash access (lookup-or-insert).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashAccess {
    /// `true` if the state was already present (the access updates the
    /// stored likelihood rather than allocating).
    pub existing: bool,
    /// On-chip cycles spent (home bucket + chain traversal).
    pub cycles: u64,
    /// `true` if the entry lives in (or had to be placed in) the overflow
    /// buffer in main memory.
    pub overflow: bool,
}

/// Aggregate hash-table counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HashStats {
    /// Total accesses.
    pub requests: u64,
    /// Total on-chip cycles spent serving them.
    pub cycles: u64,
    /// Accesses that had to traverse at least one chained entry.
    pub collisions: u64,
    /// Accesses that touched the main-memory overflow buffer.
    pub overflow_accesses: u64,
    /// Peak occupancy (distinct states) seen in a frame.
    pub peak_occupancy: u64,
}

impl HashStats {
    /// Average cycles per request (Figure 5's y-axis); 1.0 when idle.
    pub fn avg_cycles_per_request(&self) -> f64 {
        if self.requests == 0 {
            1.0
        } else {
            self.cycles as f64 / self.requests as f64
        }
    }
}

/// Timing model of one token hash table.
///
/// # Example
///
/// ```
/// use asr_accel::hash::HashTable;
///
/// let mut table = HashTable::new(32 * 1024, false);
/// let first = table.access(42); // insert
/// assert!(!first.existing);
/// assert_eq!(first.cycles, 1);
/// let again = table.access(42); // likelihood update
/// assert!(again.existing);
/// ```
#[derive(Debug, Clone)]
pub struct HashTable {
    entries: usize,
    backup_capacity: usize,
    ideal: bool,
    /// Chain length per bucket (0 = empty).
    chain_len: Vec<u16>,
    /// Chain position per state slot (0 = home slot), mirroring the token
    /// table's dense state-indexed layout; grown on demand to the highest
    /// state seen.
    pos: Vec<u32>,
    /// Epoch tag per state slot; a position is valid only when its tag
    /// matches [`HashTable::epoch`], so [`HashTable::clear`] is one bump.
    pos_epoch: Vec<u32>,
    epoch: u32,
    /// Distinct states resident this epoch.
    occupancy: usize,
    backup_used: usize,
    overflow_used: usize,
    stats: HashStats,
}

impl HashTable {
    /// Creates a table with `entries` home buckets. The backup buffer holds
    /// `entries / 2` chained entries before spilling to memory. `ideal`
    /// makes every access single-cycle (Section IV analysis).
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0`.
    pub fn new(entries: usize, ideal: bool) -> Self {
        assert!(entries > 0, "hash table needs at least one entry");
        Self {
            entries,
            backup_capacity: entries / 2,
            ideal,
            chain_len: vec![0; entries],
            pos: Vec::new(),
            pos_epoch: Vec::new(),
            epoch: 1,
            occupancy: 0,
            backup_used: 0,
            overflow_used: 0,
            stats: HashStats::default(),
        }
    }

    #[inline]
    fn bucket(&self, state: u32) -> usize {
        // Multiplicative hashing; stable across platforms.
        (state.wrapping_mul(2_654_435_761) as usize) % self.entries
    }

    /// Grows the per-state slot arrays to cover `state`; amortized by
    /// doubling, and a no-op once sized to the graph.
    #[inline]
    fn slot(&mut self, state: u32) -> usize {
        let slot = state as usize;
        if slot >= self.pos.len() {
            let len = (slot + 1).next_power_of_two();
            self.pos.resize(len, 0);
            self.pos_epoch.resize(len, 0);
        }
        slot
    }

    /// Pre-sizes the per-state slot arrays for a graph of `num_states`
    /// states so steady-state accesses never reallocate.
    pub fn reserve_states(&mut self, num_states: usize) {
        if num_states > self.pos.len() {
            self.pos.resize(num_states, 0);
            self.pos_epoch.resize(num_states, 0);
        }
    }

    /// Looks up `state`, inserting it if absent. Returns the timing and
    /// placement outcome.
    pub fn access(&mut self, state: u32) -> HashAccess {
        self.stats.requests += 1;
        let slot = self.slot(state);
        let existing = self.pos_epoch[slot] == self.epoch;
        if self.ideal {
            self.stats.cycles += 1;
            if !existing {
                self.pos_epoch[slot] = self.epoch;
                self.pos[slot] = 0;
                self.occupancy += 1;
            }
            self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.occupancy as u64);
            return HashAccess {
                existing,
                cycles: 1,
                overflow: false,
            };
        }
        if existing {
            // Traverse the chain up to the entry's position.
            let pos = self.pos[slot];
            let cycles = 1 + pos as u64;
            let overflow = self.position_overflows(pos);
            self.stats.cycles += cycles;
            if pos > 0 {
                self.stats.collisions += 1;
            }
            if overflow {
                self.stats.overflow_accesses += 1;
            }
            return HashAccess {
                existing: true,
                cycles,
                overflow,
            };
        }
        // Insert at the tail of the bucket's chain.
        let bucket = self.bucket(state);
        let pos = self.chain_len[bucket] as u32;
        let cycles = 1 + pos as u64;
        let mut overflow = false;
        if pos > 0 {
            self.stats.collisions += 1;
            if self.backup_used < self.backup_capacity {
                self.backup_used += 1;
            } else {
                self.overflow_used += 1;
                overflow = true;
            }
        }
        if self.position_overflows(pos) {
            overflow = true;
        }
        if overflow {
            self.stats.overflow_accesses += 1;
        }
        self.chain_len[bucket] = self.chain_len[bucket].saturating_add(1);
        self.pos_epoch[slot] = self.epoch;
        self.pos[slot] = pos;
        self.occupancy += 1;
        self.stats.cycles += cycles;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.occupancy as u64);
        HashAccess {
            existing: false,
            cycles,
            overflow,
        }
    }

    /// `true` when a chain position would live in the memory-backed
    /// overflow region (backup buffer exhausted).
    fn position_overflows(&self, pos: u32) -> bool {
        pos > 0 && self.backup_used >= self.backup_capacity && self.overflow_used > 0
    }

    /// Clears contents for the next frame (counters are kept). One epoch
    /// bump invalidates every state slot — the same constant-time clear as
    /// the token table it shadows; only the bucket chain lengths are wiped.
    pub fn clear(&mut self) {
        self.chain_len.iter_mut().for_each(|c| *c = 0);
        if self.epoch == u32::MAX {
            // Epoch wrap: the only O(n) tag reset, once every 2^32 frames.
            self.pos_epoch.iter_mut().for_each(|e| *e = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.occupancy = 0;
        self.backup_used = 0;
        self.overflow_used = 0;
    }

    /// Counter snapshot.
    pub fn stats(&self) -> HashStats {
        self.stats
    }

    /// Number of home buckets.
    pub fn entries(&self) -> usize {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_inserts_second_updates() {
        let mut h = HashTable::new(1024, false);
        let a = h.access(42);
        assert!(!a.existing);
        assert_eq!(a.cycles, 1);
        let b = h.access(42);
        assert!(b.existing);
        assert_eq!(b.cycles, 1);
        assert_eq!(h.occupancy, 1);
    }

    #[test]
    fn collisions_cost_extra_cycles() {
        // Force collisions with a single-bucket table.
        let mut h = HashTable::new(1, false);
        assert_eq!(h.access(1).cycles, 1);
        assert_eq!(h.access(2).cycles, 2);
        assert_eq!(h.access(3).cycles, 3);
        // Re-access of a chained entry pays its chain position again.
        assert_eq!(h.access(2).cycles, 2);
        assert!(h.stats().collisions >= 3);
    }

    #[test]
    fn clear_resets_contents_keeps_stats() {
        let mut h = HashTable::new(64, false);
        h.access(1);
        h.access(2);
        h.clear();
        assert_eq!(h.occupancy, 0);
        assert_eq!(h.stats().requests, 2);
        // Post-clear, the same state inserts fresh.
        assert!(!h.access(1).existing);
    }

    #[test]
    fn overflow_kicks_in_when_backup_exhausts() {
        // 2 buckets -> backup capacity 1: the second collision overflows.
        let mut h = HashTable::new(2, false);
        let mut overflowed = false;
        for s in 0..16u32 {
            overflowed |= h.access(s).overflow;
        }
        assert!(overflowed);
        assert!(h.stats().overflow_accesses > 0);
    }

    #[test]
    fn large_table_rarely_collides() {
        let mut h = HashTable::new(32 * 1024, false);
        for s in 0..1000u32 {
            h.access(s * 7919);
        }
        let stats = h.stats();
        assert!(
            stats.avg_cycles_per_request() < 1.1,
            "avg {:.3}",
            stats.avg_cycles_per_request()
        );
        assert_eq!(stats.overflow_accesses, 0);
    }

    #[test]
    fn small_table_collides_often() {
        let mut small = HashTable::new(1024, false);
        for s in 0..4000u32 {
            small.access(s * 7919);
        }
        let mut big = HashTable::new(64 * 1024, false);
        for s in 0..4000u32 {
            big.access(s * 7919);
        }
        assert!(
            small.stats().avg_cycles_per_request() > big.stats().avg_cycles_per_request(),
            "Figure 5 trend: fewer entries, more cycles per request"
        );
    }

    #[test]
    fn ideal_hash_is_single_cycle() {
        let mut h = HashTable::new(1, true);
        for s in 0..100u32 {
            assert_eq!(h.access(s).cycles, 1);
        }
        assert_eq!(h.stats().avg_cycles_per_request(), 1.0);
        assert_eq!(h.stats().collisions, 0);
    }

    #[test]
    fn peak_occupancy_tracks_distinct_states() {
        let mut h = HashTable::new(64, false);
        for s in 0..10u32 {
            h.access(s);
        }
        assert_eq!(h.stats().peak_occupancy, 10);
    }

    #[test]
    fn reserve_states_presizes_slots() {
        let mut h = HashTable::new(64, false);
        h.reserve_states(1000);
        assert!(!h.access(999).existing);
        assert_eq!(h.occupancy, 1);
    }

    #[test]
    fn epoch_clear_is_equivalent_to_fresh_table() {
        let mut cleared = HashTable::new(8, false);
        for s in 0..20u32 {
            cleared.access(s);
        }
        cleared.clear();
        let mut fresh = HashTable::new(8, false);
        for s in (0..20u32).rev() {
            assert_eq!(cleared.access(s), fresh.access(s));
        }
        assert_eq!(cleared.occupancy, fresh.occupancy);
    }
}
