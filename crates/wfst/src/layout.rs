//! Byte-exact main-memory image of a WFST.
//!
//! Section III of the paper fixes the representation the accelerator walks:
//! states and arcs live in two separate flat arrays. Each state record packs
//! three attributes into 64 bits (first-arc index: 32 bits, non-epsilon arc
//! count: 16 bits, epsilon arc count: 16 bits); each arc packs four 32-bit
//! attributes into 128 bits (destination state, weight, input label, output
//! label). [`pack_state`] / [`pack_arc`] are those wire records: the graph
//! store ([`crate::store`]) writes its state and arc sections in them. The
//! cycle-accurate simulator computes cache/DRAM addresses from
//! [`MemoryLayout`], and the Kaldi English WFST (13.2M states, 34.5M arcs)
//! comes out at 618 MB — reproduced by `kaldi_scale_size_matches_paper`
//! below.

use crate::{Arc, ArcId, PhoneId, StateEntry, StateId, Wfst, WordId};

/// Bytes per packed state record (64 bits).
pub const STATE_BYTES: u64 = 8;
/// Bytes per packed arc record (128 bits).
pub const ARC_BYTES: u64 = 16;

/// Address map of the WFST image inside the accelerator's main memory.
///
/// The state array starts at [`MemoryLayout::states_base`] and the arc array
/// immediately follows (64-byte aligned so cache lines never straddle the
/// two regions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryLayout {
    states_base: u64,
    arcs_base: u64,
    num_states: u64,
    num_arcs: u64,
}

impl MemoryLayout {
    /// Builds the address map for a transducer placed at `base`.
    pub fn new(wfst: &Wfst, base: u64) -> Self {
        Self::with_counts(wfst.num_states() as u64, wfst.num_arcs() as u64, base)
    }

    /// Builds an address map from raw element counts. Useful for reasoning
    /// about full-scale models (13.2M states / 34.5M arcs) without
    /// materializing them.
    pub fn with_counts(num_states: u64, num_arcs: u64, base: u64) -> Self {
        let states_base = base;
        let states_bytes = num_states * STATE_BYTES;
        // Align the arc array to a cache line boundary.
        let arcs_base = (states_base + states_bytes + 63) & !63;
        Self {
            states_base,
            arcs_base,
            num_states,
            num_arcs,
        }
    }

    /// Base address of the state array.
    #[inline]
    pub fn states_base(&self) -> u64 {
        self.states_base
    }

    /// Base address of the arc array.
    #[inline]
    pub fn arcs_base(&self) -> u64 {
        self.arcs_base
    }

    /// Main-memory address of the packed record of `state`.
    #[inline]
    pub fn state_addr(&self, state: StateId) -> u64 {
        debug_assert!((state.index() as u64) < self.num_states);
        self.states_base + state.index() as u64 * STATE_BYTES
    }

    /// Main-memory address of the packed record of `arc`.
    #[inline]
    pub fn arc_addr(&self, arc: ArcId) -> u64 {
        debug_assert!((arc.index() as u64) < self.num_arcs);
        self.arcs_base + arc.index() as u64 * ARC_BYTES
    }

    /// First address past the WFST image.
    #[inline]
    pub fn end(&self) -> u64 {
        self.arcs_base + self.num_arcs * ARC_BYTES
    }

    /// Total footprint in bytes (state array + alignment + arc array).
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        self.end() - self.states_base
    }
}

/// Packs one state record into its 64-bit wire format.
#[inline]
pub fn pack_state(entry: StateEntry) -> u64 {
    (entry.first_arc.0 as u64)
        | ((entry.num_emitting as u64) << 32)
        | ((entry.num_epsilon as u64) << 48)
}

/// Unpacks a 64-bit state record.
#[inline]
pub fn unpack_state(word: u64) -> StateEntry {
    StateEntry {
        first_arc: ArcId((word & 0xFFFF_FFFF) as u32),
        num_emitting: ((word >> 32) & 0xFFFF) as u16,
        num_epsilon: ((word >> 48) & 0xFFFF) as u16,
    }
}

/// Packs one arc record into its 128-bit wire format (little-endian fields:
/// destination, weight bits, input label, output label).
#[inline]
pub fn pack_arc(arc: Arc) -> u128 {
    (arc.dest.0 as u128)
        | ((arc.weight.to_bits() as u128) << 32)
        | ((arc.ilabel.0 as u128) << 64)
        | ((arc.olabel.0 as u128) << 96)
}

/// Unpacks a 128-bit arc record.
#[inline]
pub fn unpack_arc(word: u128) -> Arc {
    Arc {
        dest: StateId((word & 0xFFFF_FFFF) as u32),
        weight: f32::from_bits(((word >> 32) & 0xFFFF_FFFF) as u32),
        ilabel: PhoneId(((word >> 64) & 0xFFFF_FFFF) as u32),
        olabel: WordId(((word >> 96) & 0xFFFF_FFFF) as u32),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_pack_roundtrip() {
        let e = StateEntry {
            first_arc: ArcId(0xDEAD_BEEF),
            num_emitting: 770,
            num_epsilon: 3,
        };
        assert_eq!(unpack_state(pack_state(e)), e);
    }

    #[test]
    fn arc_pack_roundtrip_preserves_weight_bits() {
        let a = Arc {
            dest: StateId(13_000_000),
            weight: -3.25e-2,
            ilabel: PhoneId(4321),
            olabel: WordId(124_999),
        };
        let back = unpack_arc(pack_arc(a));
        assert_eq!(back.dest, a.dest);
        assert_eq!(back.weight.to_bits(), a.weight.to_bits());
        assert_eq!(back.ilabel, a.ilabel);
        assert_eq!(back.olabel, a.olabel);
    }

    #[test]
    fn record_sizes_match_paper() {
        assert_eq!(STATE_BYTES, 8, "64-bit state records");
        assert_eq!(ARC_BYTES, 16, "128-bit arc records");
    }

    #[test]
    fn kaldi_scale_size_matches_paper() {
        // 13.2M states and 34.5M arcs -> "total size of the WFST is 618
        // MBytes" (Section III).
        let layout = MemoryLayout::with_counts(13_200_000, 34_500_000, 0);
        let mb = layout.total_bytes() as f64 / (1024.0 * 1024.0);
        assert!((mb - 618.0).abs() < 10.0, "got {mb:.1} MB, expected ~618");
    }

    #[test]
    fn addresses_are_contiguous_and_aligned() {
        let layout = MemoryLayout::with_counts(5, 7, 4096);
        assert_eq!(layout.states_base(), 4096);
        assert_eq!(layout.arcs_base() % 64, 0);
        assert_eq!(
            layout.state_addr(StateId(1)) - layout.state_addr(StateId(0)),
            8
        );
        assert_eq!(layout.arc_addr(ArcId(1)) - layout.arc_addr(ArcId(0)), 16);
        assert!(layout.arcs_base() >= layout.states_base() + 5 * STATE_BYTES);
    }
}
