//! Physical address map of the accelerator's main memory.
//!
//! Four regions, mirroring Section III: the WFST state array, the WFST arc
//! array, the token trace (backpointer + word per token, appended as the
//! search runs), and the hash overflow buffer.

use asr_wfst::layout::MemoryLayout;
use asr_wfst::{ArcId, StateId, Wfst};

/// Bytes per token trace record (backpointer + word index).
const TOKEN_BYTES: u64 = 8;

/// Main-memory address map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    wfst: MemoryLayout,
    tokens_base: u64,
    overflow_base: u64,
}

impl AddressMap {
    /// Lays out the regions for `wfst`, reserving `token_region` bytes of
    /// token trace before the overflow buffer.
    pub fn new(wfst: &Wfst, token_region: u64) -> Self {
        let layout = MemoryLayout::new(wfst, 0);
        let tokens_base = (layout.end() + 63) & !63;
        let overflow_base = (tokens_base + token_region + 63) & !63;
        Self {
            wfst: layout,
            tokens_base,
            overflow_base,
        }
    }

    /// Address of a state record.
    #[inline]
    pub fn state_addr(&self, state: StateId) -> u64 {
        self.wfst.state_addr(state)
    }

    /// Address of an arc record.
    #[inline]
    pub fn arc_addr(&self, arc: ArcId) -> u64 {
        self.wfst.arc_addr(arc)
    }

    /// Address of the `index`-th token trace record.
    #[inline]
    pub fn token_addr(&self, index: u64) -> u64 {
        self.tokens_base + index * TOKEN_BYTES
    }

    /// The WFST image layout.
    pub fn wfst(&self) -> &MemoryLayout {
        &self.wfst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_wfst::synth::{SynthConfig, SynthWfst};

    #[test]
    fn regions_do_not_overlap() {
        let w = SynthWfst::generate(&SynthConfig::with_states(1_000)).unwrap();
        let map = AddressMap::new(&w, 1 << 20);
        let last_arc = map.arc_addr(ArcId((w.num_arcs() - 1) as u32));
        assert!(last_arc + 16 <= map.token_addr(0));
        assert!(map.token_addr(0) + (1 << 20) <= map.overflow_base);
    }

    #[test]
    fn token_addresses_are_sequential() {
        let w = SynthWfst::generate(&SynthConfig::with_states(100)).unwrap();
        let map = AddressMap::new(&w, 4096);
        assert_eq!(map.token_addr(1) - map.token_addr(0), TOKEN_BYTES);
        // Eight tokens per 64-byte line: good spatial locality, as the
        // paper notes for the Token cache.
        assert_eq!((map.token_addr(8) - map.token_addr(0)), 64);
    }

    #[test]
    fn regions_are_line_aligned() {
        let w = SynthWfst::generate(&SynthConfig::with_states(123)).unwrap();
        let map = AddressMap::new(&w, 1000);
        assert_eq!(map.token_addr(0) % 64, 0);
        assert_eq!(map.overflow_base % 64, 0);
    }
}
