//! Serialization of transducers to files and byte buffers.
//!
//! Two formats are provided:
//!
//! * the **v1 packed container** (this module): the DRAM image of
//!   [`crate::layout`] prefixed with a small header. It carries the
//!   [`Wfst`] only — **not** the degree-sorted layout's
//!   [`crate::sorted::DirectIndexUnit`] registers or renumbering maps, so
//!   a round-tripped sorted graph must *recompute* them (see
//!   [`sorted_from_bytes`]); deserialization also rebuilds every record
//!   into fresh `Vec`s;
//! * the **v2 zero-copy image** ([`crate::store`]): the full
//!   [`crate::sorted::SortedWfst`] — records, unit registers, maps — in
//!   aligned sections viewed in place after a single validation pass.
//!
//! Serving code loads the v2 image with [`crate::store::GraphImage::load`];
//! [`sorted_from_bytes`] accepts either container version.

use crate::layout;
use crate::sorted::SortedWfst;
use crate::store;
use crate::{Result, StateId, Wfst, WfstError};
use bytes::{Buf, BufMut};

/// Magic number of the packed container: "WFST" followed by a version byte.
const MAGIC: &[u8; 4] = b"WFST";
const VERSION: u8 = 1;

/// Serializes a transducer into the packed container format.
pub fn to_bytes(wfst: &Wfst) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.put_u8(VERSION);
    out.put_u64_le(wfst.num_states() as u64);
    out.put_u64_le(wfst.num_arcs() as u64);
    out.put_u32_le(wfst.start().0);
    // Final states: count then (state, cost) pairs.
    let finals: Vec<(StateId, f32)> = wfst.final_states().collect();
    out.put_u64_le(finals.len() as u64);
    for (s, c) in finals {
        out.put_u32_le(s.0);
        out.put_f32_le(c);
    }
    layout::write_image(wfst, &mut out);
    out
}

/// Deserializes a transducer from the packed container format.
///
/// # Errors
///
/// Returns [`WfstError::Corrupt`] for bad magic/version/truncation, or any
/// validation error of [`Wfst::from_parts`].
pub fn from_bytes(mut bytes: &[u8]) -> Result<Wfst> {
    if bytes.len() < 5 || &bytes[..4] != MAGIC {
        return Err(WfstError::Corrupt("bad magic".into()));
    }
    bytes.advance(4);
    let version = bytes.get_u8();
    if version != VERSION {
        return Err(WfstError::Corrupt(format!("unsupported version {version}")));
    }
    if bytes.remaining() < 8 + 8 + 4 + 8 {
        return Err(WfstError::Corrupt("truncated header".into()));
    }
    let num_states = bytes.get_u64_le() as usize;
    let num_arcs = bytes.get_u64_le() as usize;
    let start = StateId(bytes.get_u32_le());
    let num_finals = bytes.get_u64_le() as usize;
    if bytes.remaining() < num_finals * 8 {
        return Err(WfstError::Corrupt("truncated final-state table".into()));
    }
    let mut final_costs = vec![f32::INFINITY; num_states];
    for _ in 0..num_finals {
        let s = bytes.get_u32_le() as usize;
        let c = bytes.get_f32_le();
        if s >= num_states {
            return Err(WfstError::Corrupt(format!("final state {s} out of range")));
        }
        final_costs[s] = c;
    }
    let (states, arcs) = layout::read_image(bytes, num_states, num_arcs)?;
    Wfst::from_parts(states, arcs, start, final_costs)
}

/// Deserializes a degree-sorted transducer from either container version.
///
/// * **v2** bytes validate into a [`crate::store::GraphImage`] and the
///   returned [`SortedWfst`] views the (re-aligned copy of the) buffer in
///   place, unit registers and renumbering maps included.
/// * **v1** bytes carry no layout registers: the stored [`Wfst`] is
///   rebuilt arc-by-arc and the sorted layout is **recomputed** with
///   [`SortedWfst::new`] (the default threshold `N = 16`). For a graph
///   that was already in sorted order the recomputation reproduces the
///   identical layout and unit, but the original old↔new renumbering maps
///   are lost — the maps come back as the identity permutation.
///
/// # Errors
///
/// Returns a typed [`WfstError`] for corrupt input of either version.
pub fn sorted_from_bytes(bytes: &[u8]) -> Result<SortedWfst> {
    if store::image_version(bytes) == Some(store::STORE_VERSION) {
        return Ok(store::GraphImage::from_bytes(bytes)?.to_sorted());
    }
    SortedWfst::new(&from_bytes(bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{SynthConfig, SynthWfst};

    fn sample() -> Wfst {
        SynthWfst::generate(&SynthConfig::with_states(500)).unwrap()
    }

    fn assert_same(a: &Wfst, b: &Wfst) {
        assert_eq!(a.num_states(), b.num_states());
        assert_eq!(a.num_arcs(), b.num_arcs());
        assert_eq!(a.start(), b.start());
        assert_eq!(a.state_entries(), b.state_entries());
        for (x, y) in a.arc_entries().iter().zip(b.arc_entries()) {
            assert_eq!(x.dest, y.dest);
            assert_eq!(x.ilabel, y.ilabel);
            assert_eq!(x.olabel, y.olabel);
            assert_eq!(x.weight.to_bits(), y.weight.to_bits());
        }
        let fa: Vec<_> = a.final_states().collect();
        let fb: Vec<_> = b.final_states().collect();
        assert_eq!(fa, fb);
    }

    #[test]
    fn bytes_roundtrip() {
        let w = sample();
        let bytes = to_bytes(&w);
        let back = from_bytes(&bytes).unwrap();
        assert_same(&w, &back);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = from_bytes(b"NOPE\x01rest").unwrap_err();
        assert!(matches!(err, WfstError::Corrupt(_)));
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut bytes = to_bytes(&sample());
        bytes[4] = 99;
        let err = from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let bytes = to_bytes(&sample());
        let err = from_bytes(&bytes[..bytes.len() / 2]).unwrap_err();
        assert!(matches!(err, WfstError::Corrupt(_)));
    }

    #[test]
    fn v1_drops_the_unit_and_recompute_restores_it_for_sorted_graphs() {
        // Satellite fix pin: the v1 container stores only the `Wfst`, so the
        // `DirectIndexUnit` registers do not survive a round trip and
        // `sorted_from_bytes` must *recompute* them. Because the serialized
        // graph was already in sorted order, the recomputation (stable, by
        // ascending degree) reproduces the identical layout and unit...
        let sorted = crate::sorted::SortedWfst::new(&sample()).unwrap();
        let v1 = to_bytes(sorted.wfst());
        let back = sorted_from_bytes(&v1).unwrap();
        assert_eq!(back.unit(), sorted.unit());
        assert_eq!(back.wfst().state_entries(), sorted.wfst().state_entries());
        assert_eq!(back.threshold(), sorted.threshold());
        // ...but the original old<->new renumbering maps are lost: the
        // recompute sees an already-sorted graph, so they degrade to the
        // identity permutation.
        for i in 0..back.wfst().num_states() {
            let sid = StateId(i as u32);
            assert_eq!(back.map_state(sid), sid);
            assert_eq!(back.unmap_state(sid), sid);
        }
    }

    #[test]
    fn sorted_from_bytes_reads_both_container_versions() {
        let sorted = crate::sorted::SortedWfst::new(&sample()).unwrap();
        let from_v1 = sorted_from_bytes(&to_bytes(sorted.wfst())).unwrap();
        let from_v2 = sorted_from_bytes(&crate::store::to_bytes(&sorted)).unwrap();
        assert_eq!(
            from_v1.wfst().state_entries(),
            from_v2.wfst().state_entries()
        );
        assert_eq!(from_v1.unit(), from_v2.unit());
        assert_eq!(from_v2.wfst().start(), sorted.wfst().start());
        assert!(from_v2.wfst().is_image_backed());
        assert!(!from_v1.wfst().is_image_backed());
        // Only v2 carries the true maps; v1's recompute degraded to identity
        // (asserted above), while v2 preserves them byte-for-byte.
        for i in 0..sorted.wfst().num_states() {
            let sid = StateId(i as u32);
            assert_eq!(from_v2.unmap_state(sid), sorted.unmap_state(sid));
        }
    }

    #[test]
    fn out_of_range_final_state_is_rejected() {
        let w = {
            let mut b = crate::builder::WfstBuilder::new();
            let s = b.add_state();
            b.set_start(s);
            b.set_final(s, 0.0);
            b.build().unwrap()
        };
        let mut bytes = to_bytes(&w);
        // Corrupt the single final-state id (offset: 4 magic + 1 version +
        // 8 states + 8 arcs + 4 start + 8 count = 33).
        bytes[33..37].copy_from_slice(&100u32.to_le_bytes());
        let err = from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }
}
