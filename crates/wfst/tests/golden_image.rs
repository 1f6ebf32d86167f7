//! Golden-record tests: the packed state and arc records are an
//! on-disk/DRAM contract (the accelerator computes addresses from them and
//! the graph store writes them), so their exact bits must never drift.

use asr_wfst::layout::{pack_arc, pack_state, ARC_BYTES, STATE_BYTES};
use asr_wfst::{Arc, ArcId, PhoneId, StateEntry, StateId, WordId};

#[test]
fn state_record_bit_layout_is_frozen() {
    // first_arc in bits 0..32, num_emitting in 32..48, num_epsilon 48..64.
    let word = pack_state(StateEntry {
        first_arc: ArcId(0x0102_0304),
        num_emitting: 0x0506,
        num_epsilon: 0x0708,
    });
    assert_eq!(word, 0x0708_0506_0102_0304);
    assert_eq!(STATE_BYTES, 8);
}

#[test]
fn arc_record_bit_layout_is_frozen() {
    // dest 0..32, weight bits 32..64, ilabel 64..96, olabel 96..128.
    let arc = Arc {
        dest: StateId(0x0102_0304),
        weight: f32::from_bits(0x0506_0708),
        ilabel: PhoneId(0x090A_0B0C),
        olabel: WordId(0x0D0E_0F10),
    };
    assert_eq!(pack_arc(arc), 0x0D0E_0F10_090A_0B0C_0506_0708_0102_0304);
    assert_eq!(ARC_BYTES, 16);
}
