//! Accelerator configuration: Table I of the paper, plus the feature flags
//! distinguishing the evaluated design points (ASIC, ASIC+State, ASIC+Arc,
//! ASIC+State&Arc) and the idealized modes used in the Section IV analysis
//! (perfect caches, ideal hash).

/// Geometry of one of the accelerator's on-chip caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line: usize,
}

impl CacheConfig {
    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero or non-divisible sizes).
    pub fn sets(&self) -> usize {
        assert!(self.line > 0 && self.ways > 0 && self.capacity > 0);
        let lines = self.capacity / self.line;
        assert!(
            lines.is_multiple_of(self.ways),
            "capacity not divisible into ways"
        );
        lines / self.ways
    }
}

/// Conventional hardware prefetchers evaluated (and rejected) by Section
/// IV-A: "we implemented and evaluated different state-of-the-art hardware
/// prefetchers, and our results show that these schemes produce slowdowns
/// and increase energy due to the useless prefetches that they generate."
/// These predict addresses from the miss stream; the paper's decoupled
/// architecture instead *computes* them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HwPrefetcher {
    /// No conventional prefetcher (the paper's configurations).
    #[default]
    None,
    /// Next-line: on a demand miss to line `L`, also fetch `L + 1`.
    NextLine,
    /// Stride: on a miss, fetch `L + (L - previous miss line)`
    /// (reference \[23\] of the paper).
    Stride,
}

/// The design points evaluated in Figures 9-14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignPoint {
    /// Base accelerator (Section III).
    Base,
    /// Base + bandwidth-saving state layout (Section IV-B).
    StateOpt,
    /// Base + decoupled arc prefetcher (Section IV-A).
    ArcPrefetch,
    /// Both techniques (the paper's final configuration).
    StateAndArc,
}

impl DesignPoint {
    /// All four design points in paper order.
    pub const ALL: [DesignPoint; 4] = [
        DesignPoint::Base,
        DesignPoint::StateOpt,
        DesignPoint::ArcPrefetch,
        DesignPoint::StateAndArc,
    ];

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            DesignPoint::Base => "ASIC",
            DesignPoint::StateOpt => "ASIC+State",
            DesignPoint::ArcPrefetch => "ASIC+Arc",
            DesignPoint::StateAndArc => "ASIC+State&Arc",
        }
    }

    /// Whether the state-layout optimization is active.
    pub fn state_opt(self) -> bool {
        matches!(self, DesignPoint::StateOpt | DesignPoint::StateAndArc)
    }

    /// Whether the arc prefetcher is active.
    pub fn arc_prefetch(self) -> bool {
        matches!(self, DesignPoint::ArcPrefetch | DesignPoint::StateAndArc)
    }
}

/// Full accelerator configuration. Defaults reproduce Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorConfig {
    /// Clock frequency in Hz (Table I: 600 MHz).
    pub frequency_hz: u64,
    /// State cache geometry (512 KB, 4-way, 64 B lines).
    pub state_cache: CacheConfig,
    /// Arc cache geometry (1 MB, 4-way, 64 B lines).
    pub arc_cache: CacheConfig,
    /// Token cache geometry (512 KB, 2-way, 64 B lines).
    pub token_cache: CacheConfig,
    /// Acoustic Likelihood Buffer capacity in bytes (64 KB, double
    /// buffered).
    pub acoustic_buffer: usize,
    /// Entries per hash table (32K; 768 KB of storage each).
    pub hash_entries: usize,
    /// Maximum in-flight memory requests at the controller (32).
    pub mem_inflight: usize,
    /// Main memory latency in cycles (50 cycles = 83 ns at 600 MHz).
    pub mem_latency: u64,
    /// In-flight states at the State Issuer (8).
    pub state_inflight: usize,
    /// In-flight arcs at the Arc Issuer (8); the prefetcher widens this to
    /// the FIFO depth.
    pub arc_inflight: usize,
    /// In-flight tokens at the Token Issuer (32).
    pub token_inflight: usize,
    /// Entries in the Arc FIFO / Request FIFO / Reorder Buffer (64).
    pub prefetch_fifo: usize,
    /// Maximum *concurrently outstanding* cache-miss fills in the base
    /// (non-prefetching) in-order pipeline. Table I's in-flight counts
    /// describe pipeline occupancy across all stages; in the base design a
    /// miss stalls the stage, so only the requests already past the tag
    /// check can overlap — the paper's Section IV observation that the
    /// ASIC "has to wait for main memory to serve the data". Two
    /// outstanding fills reproduces the published base operating point
    /// (~8.3 cycles/arc, 0.88x of the GPU); the prefetcher replaces this
    /// limit with the 64-entry FIFO.
    pub base_miss_overlap: usize,
    /// Comparator count `N` of the bandwidth-saving State Issuer (16).
    pub state_opt_threshold: usize,
    /// Which design point to simulate.
    pub design: DesignPoint,
    /// Beam width used by the search.
    pub beam: f32,
    /// Idealization: State cache never misses (Section IV analysis).
    pub perfect_state_cache: bool,
    /// Idealization: Arc cache never misses.
    pub perfect_arc_cache: bool,
    /// Idealization: Token cache never misses.
    pub perfect_token_cache: bool,
    /// Idealization: hash accesses always take one cycle.
    pub ideal_hash: bool,
    /// Conventional hardware prefetcher on the Arc cache (the Section
    /// IV-A baseline the paper rejects). Independent of
    /// [`DesignPoint::ArcPrefetch`], which is the paper's decoupled
    /// computed-address architecture.
    pub hw_prefetcher: HwPrefetcher,
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        Self {
            frequency_hz: 600_000_000,
            state_cache: CacheConfig {
                capacity: 512 * 1024,
                ways: 4,
                line: 64,
            },
            arc_cache: CacheConfig {
                capacity: 1024 * 1024,
                ways: 4,
                line: 64,
            },
            token_cache: CacheConfig {
                capacity: 512 * 1024,
                ways: 2,
                line: 64,
            },
            acoustic_buffer: 64 * 1024,
            hash_entries: 32 * 1024,
            mem_inflight: 32,
            mem_latency: 50,
            state_inflight: 8,
            arc_inflight: 8,
            token_inflight: 32,
            prefetch_fifo: 64,
            base_miss_overlap: 2,
            state_opt_threshold: 16,
            design: DesignPoint::Base,
            beam: 8.0,
            perfect_state_cache: false,
            perfect_arc_cache: false,
            perfect_token_cache: false,
            ideal_hash: false,
            hw_prefetcher: HwPrefetcher::None,
        }
    }
}

impl AcceleratorConfig {
    /// Table I configuration for a given design point.
    pub fn for_design(design: DesignPoint) -> Self {
        Self {
            design,
            ..Self::default()
        }
    }

    /// All caches perfect (the 2.11x analysis of Section IV).
    pub fn with_perfect_caches(mut self) -> Self {
        self.perfect_state_cache = true;
        self.perfect_arc_cache = true;
        self.perfect_token_cache = true;
        self
    }

    /// Ideal single-cycle hash (the +2.8% analysis of Section IV).
    pub fn with_ideal_hash(mut self) -> Self {
        self.ideal_hash = true;
        self
    }

    /// Replaces the beam width.
    pub fn with_beam(mut self, beam: f32) -> Self {
        self.beam = beam;
        self
    }

    /// Effective in-order arc window: the prefetch FIFO depth when the
    /// prefetcher is on, the stall-bounded overlap otherwise.
    pub fn arc_window(&self) -> usize {
        if self.design.arc_prefetch() {
            self.prefetch_fifo
        } else {
            self.base_miss_overlap.min(self.arc_inflight).max(1)
        }
    }

    /// Effective in-order state window. Unlike the Arc Issuer, the State
    /// Issuer is naturally decoupled — it walks the hash table's token
    /// list without waiting on downstream stages — so all of Table I's 8
    /// in-flight states can be outstanding fills.
    pub fn state_window(&self) -> usize {
        self.state_inflight.max(1)
    }

    /// Bytes of storage in one hash table (24-byte entries: likelihood,
    /// backpointer address, state index, next pointer — 768 KB at 32K
    /// entries, matching Table I).
    pub fn hash_bytes(&self) -> usize {
        self.hash_entries * 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table1() {
        let c = AcceleratorConfig::default();
        assert_eq!(c.frequency_hz, 600_000_000);
        assert_eq!(c.state_cache.capacity, 512 * 1024);
        assert_eq!(c.arc_cache.capacity, 1024 * 1024);
        assert_eq!(c.token_cache.capacity, 512 * 1024);
        assert_eq!(c.token_cache.ways, 2);
        assert_eq!(c.hash_entries, 32 * 1024);
        assert_eq!(c.mem_inflight, 32);
        assert_eq!(c.mem_latency, 50);
        assert_eq!(c.state_inflight, 8);
        assert_eq!(c.arc_inflight, 8);
        assert_eq!(c.token_inflight, 32);
        assert_eq!(c.prefetch_fifo, 64);
        assert_eq!(c.state_opt_threshold, 16);
        // 83 ns at 600 MHz, as quoted in Section V.
        let ns = c.mem_latency as f64 / c.frequency_hz as f64 * 1e9;
        assert!((ns - 83.3).abs() < 1.0);
        // 768 KB per hash table.
        assert_eq!(c.hash_bytes(), 768 * 1024);
    }

    #[test]
    fn cache_geometry_is_consistent() {
        let c = AcceleratorConfig::default();
        assert_eq!(c.state_cache.sets(), 2048);
        assert_eq!(c.arc_cache.sets(), 4096);
        assert_eq!(c.token_cache.sets(), 4096);
    }

    #[test]
    fn design_points_toggle_features() {
        assert!(!DesignPoint::Base.state_opt());
        assert!(!DesignPoint::Base.arc_prefetch());
        assert!(DesignPoint::StateOpt.state_opt());
        assert!(DesignPoint::ArcPrefetch.arc_prefetch());
        assert!(DesignPoint::StateAndArc.state_opt());
        assert!(DesignPoint::StateAndArc.arc_prefetch());
        assert_eq!(DesignPoint::ALL.len(), 4);
    }

    #[test]
    fn arc_window_widens_with_prefetch() {
        let base = AcceleratorConfig::for_design(DesignPoint::Base);
        let pf = AcceleratorConfig::for_design(DesignPoint::ArcPrefetch);
        assert_eq!(base.arc_window(), 2, "stall-bounded overlap in the base");
        assert_eq!(pf.arc_window(), 64, "FIFO depth with the prefetcher");
        assert_eq!(base.state_window(), 8, "decoupled State Issuer");
        assert_eq!(pf.state_window(), 8);
    }

    #[test]
    fn idealization_builders_set_flags() {
        let c = AcceleratorConfig::default()
            .with_perfect_caches()
            .with_ideal_hash();
        assert!(c.perfect_state_cache && c.perfect_arc_cache && c.perfect_token_cache);
        assert!(c.ideal_hash);
    }

    #[test]
    fn labels_match_paper_figures() {
        assert_eq!(DesignPoint::Base.label(), "ASIC");
        assert_eq!(DesignPoint::StateAndArc.label(), "ASIC+State&Arc");
    }
}
