//! Set-associative cache timing model (tags only, true LRU).
//!
//! The accelerator's three caches (State, Arc, Token — Table I) are modelled
//! at tag granularity: the simulator tracks which 64-byte lines are
//! resident, hit/miss counts, and write-back traffic. Data values flow
//! through the functional layer; only addresses matter here.

use crate::config::CacheConfig;

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Line resident; single-cycle access.
    Hit,
    /// Line absent; a fill from memory is required. Carries the evicted
    /// dirty line's address when the victim needs writing back.
    Miss {
        /// Dirty victim to write back, if any.
        writeback: Option<u64>,
    },
}

impl Access {
    /// Returns `true` on a hit.
    pub fn is_hit(self) -> bool {
        matches!(self, Access::Hit)
    }
}

/// Hit/miss/writeback counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (each implies one line fill).
    pub misses: u64,
    /// Dirty lines written back to memory.
    pub writebacks: u64,
    /// Lines installed by a hardware prefetcher (not demand fills).
    pub prefetch_fills: u64,
    /// Demand hits on prefetched lines (useful prefetches).
    pub prefetch_hits: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]` (0 for an untouched cache).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    prefetched: bool, // installed by a prefetcher, not yet demanded
    lru: u64,         // larger = more recently used
}

/// The tag array of one cache.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: usize,
    ways: Vec<Way>, // sets * ways, row-major by set
    stats: CacheStats,
    tick: u64,
    /// Perfect mode: every access hits (Section IV idealization).
    perfect: bool,
}

impl Cache {
    /// Builds an empty cache.
    pub fn new(cfg: CacheConfig, perfect: bool) -> Self {
        let sets = cfg.sets();
        Self {
            cfg,
            sets,
            ways: vec![Way::default(); sets * cfg.ways],
            stats: CacheStats::default(),
            tick: 0,
            perfect,
        }
    }

    /// Line-aligns an address.
    #[inline]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line as u64 - 1)
    }

    /// Accesses `addr`; `write` marks the line dirty. On a miss the line is
    /// allocated immediately (the timing layer decides when its data is
    /// usable).
    pub fn access(&mut self, addr: u64, write: bool) -> Access {
        self.tick += 1;
        if self.perfect {
            self.stats.hits += 1;
            return Access::Hit;
        }
        let line = self.line_addr(addr);
        let set = (line / self.cfg.line as u64) as usize % self.sets;
        let base = set * self.cfg.ways;
        let ways = &mut self.ways[base..base + self.cfg.ways];

        // Hit?
        if let Some(w) = ways.iter_mut().find(|w| w.valid && w.tag == line) {
            w.lru = self.tick;
            w.dirty |= write;
            if w.prefetched {
                w.prefetched = false;
                self.stats.prefetch_hits += 1;
            }
            self.stats.hits += 1;
            return Access::Hit;
        }
        // Miss: pick the invalid or least-recently-used way.
        self.stats.misses += 1;
        let victim = ways
            .iter_mut()
            .min_by_key(|w| if w.valid { w.lru + 1 } else { 0 })
            .expect("cache has at least one way");
        let writeback = if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
            Some(victim.tag)
        } else {
            None
        };
        *victim = Way {
            tag: line,
            valid: true,
            dirty: write,
            prefetched: false,
            lru: self.tick,
        };
        Access::Miss { writeback }
    }

    /// Installs `addr`'s line on behalf of a hardware prefetcher. Returns
    /// `false` (and does nothing) when the line is already resident —
    /// a useless-but-harmless prefetch; `true` when a line was brought in,
    /// potentially evicting useful data (pollution). Prefetch installs do
    /// not count as demand hits/misses.
    pub fn prefetch(&mut self, addr: u64) -> bool {
        if self.perfect {
            return false;
        }
        self.tick += 1;
        let line = self.line_addr(addr);
        let set = (line / self.cfg.line as u64) as usize % self.sets;
        let base = set * self.cfg.ways;
        let ways = &mut self.ways[base..base + self.cfg.ways];
        if ways.iter().any(|w| w.valid && w.tag == line) {
            return false;
        }
        self.stats.prefetch_fills += 1;
        let victim = ways
            .iter_mut()
            .min_by_key(|w| if w.valid { w.lru + 1 } else { 0 })
            .expect("cache has at least one way");
        if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
        }
        *victim = Way {
            tag: line,
            valid: true,
            dirty: false,
            prefetched: true,
            // Inserted at LRU-but-one priority: prefetches should not
            // displace the hottest lines on arrival.
            lru: self.tick.saturating_sub(1),
        };
        true
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Invalidates everything and clears counters.
    pub fn clear(&mut self) {
        for w in &mut self.ways {
            *w = Way::default();
        }
        self.stats = CacheStats::default();
        self.tick = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512 B.
        Cache::new(
            CacheConfig {
                capacity: 512,
                ways: 2,
                line: 64,
            },
            false,
        )
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(0x100, false).is_hit());
        assert!(c.access(0x100, false).is_hit());
        assert!(c.access(0x13F, false).is_hit(), "same line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to set 0: line addresses differ by
        // sets*line = 256 bytes.
        c.access(0x000, false);
        c.access(0x100, false);
        c.access(0x000, false); // refresh line 0
        c.access(0x200, false); // evicts 0x100
        assert!(c.access(0x000, false).is_hit());
        assert!(!c.access(0x100, false).is_hit());
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0x000, true); // dirty
        c.access(0x100, false);
        match c.access(0x200, false) {
            // 0x000 is LRU and dirty.
            Access::Miss { writeback } => assert_eq!(writeback, Some(0x000)),
            Access::Hit => panic!("expected a miss"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x100, false);
        match c.access(0x200, false) {
            Access::Miss { writeback } => assert_eq!(writeback, None),
            Access::Hit => panic!("expected a miss"),
        }
    }

    #[test]
    fn perfect_cache_always_hits() {
        let mut c = Cache::new(
            CacheConfig {
                capacity: 512,
                ways: 2,
                line: 64,
            },
            true,
        );
        for i in 0..100u64 {
            assert!(c.access(i * 4096, false).is_hit());
        }
        assert_eq!(c.stats().miss_ratio(), 0.0);
    }

    #[test]
    fn miss_ratio_computation() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x000, false);
        c.access(0x040, false);
        c.access(0x040, false);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sparse_large_strides_thrash() {
        let mut c = tiny();
        // 64 distinct lines into a 8-line cache: mostly misses on re-walk.
        for round in 0..2 {
            for i in 0..64u64 {
                let hit = c.access(i * 64, false).is_hit();
                if round == 0 {
                    assert!(!hit);
                }
            }
        }
        assert!(c.stats().miss_ratio() > 0.9);
    }

    #[test]
    fn clear_resets_contents_and_stats() {
        let mut c = tiny();
        c.access(0x0, true);
        c.clear();
        assert_eq!(c.stats().accesses(), 0);
        assert!(!c.access(0x0, false).is_hit());
    }
}
