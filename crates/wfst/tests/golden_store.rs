//! Golden-image tests for the zero-copy graph store: the container is a
//! byte-stable on-disk contract, so the exact bytes — header, section
//! table, record layouts — are pinned against a committed fixture and
//! against first-principles offset arithmetic. Any accidental format
//! change fails loudly here.
//!
//! To regenerate the fixture after an *intentional* format change:
//! `cargo test -p asr-wfst --test golden_store -- --ignored bless`.

use asr_wfst::builder::WfstBuilder;
use asr_wfst::sorted::SortedWfst;
use asr_wfst::store::{self, GraphImage};
use asr_wfst::{PhoneId, StateId, WordId};

const FIXTURE: &[u8] = include_bytes!("fixtures/tiny_v2.wfstimg");

/// The deterministic fixture graph: six states with degrees 2, 1, 3, 1, 5
/// and 0, sorted with threshold N = 4 so both the sorted region (three
/// degree groups, one of them empty) and the unsorted tail (a high-degree
/// state and an arc-less final state) are exercised.
fn fixture_sorted() -> SortedWfst {
    let mut b = WfstBuilder::new();
    let s: Vec<StateId> = (0..6).map(|_| b.add_state()).collect();
    b.set_start(s[0]);
    b.add_arc(s[0], s[1], PhoneId(1), WordId(1), 0.5);
    b.add_epsilon_arc(s[0], s[2], 0.25);
    b.add_arc(s[1], s[2], PhoneId(2), WordId::NONE, 1.5);
    b.add_arc(s[2], s[3], PhoneId(3), WordId(2), 0.75);
    b.add_arc(s[2], s[4], PhoneId(1), WordId::NONE, 1.0);
    b.add_epsilon_arc(s[2], s[5], 2.0);
    b.add_arc(s[3], s[5], PhoneId(2), WordId(3), 0.125);
    for k in 0..5u32 {
        b.add_arc(
            s[4],
            s[5],
            PhoneId(1 + (k % 4)),
            WordId::NONE,
            0.5 * k as f32,
        );
    }
    b.set_final(s[3], 0.625);
    b.set_final(s[5], 0.0);
    SortedWfst::with_threshold(&b.build().unwrap(), 4).unwrap()
}

fn le_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().unwrap())
}

fn le_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().unwrap())
}

#[test]
fn v2_container_bytes_are_frozen() {
    let bytes = store::to_bytes(&fixture_sorted());
    assert_eq!(
        bytes, FIXTURE,
        "v2 image bytes drifted from the committed fixture"
    );
}

#[test]
fn v2_header_fields_are_pinned() {
    let b = store::to_bytes(&fixture_sorted());
    assert_eq!(&b[0..4], b"WFST");
    assert_eq!(b[4], 2, "version byte");
    assert_eq!(&b[5..8], &[0, 0, 0], "reserved header bytes");
    assert_eq!(le_u64(&b, 8), 6, "num_states");
    assert_eq!(le_u64(&b, 16), 12, "num_arcs");
    // Sorted order groups by ascending degree: [s1, s3, s0, s2, s4, s5],
    // so original start s0 renumbers to 2.
    assert_eq!(le_u32(&b, 24), 2, "start (sorted numbering)");
    assert_eq!(le_u32(&b, 28), 4, "threshold");
    assert_eq!(le_u32(&b, 32), 5, "num_phones");
    assert_eq!(le_u32(&b, 36), 4, "num_words");
    assert_eq!(le_u32(&b, 40), 7, "section count");
    assert_eq!(le_u32(&b, 44), 0, "reserved header word");
}

#[test]
fn v2_section_table_is_pinned() {
    let b = store::to_bytes(&fixture_sorted());
    // (kind, offset, bytes) per section, offsets 64-byte aligned, in fixed
    // order: states(6x8), arcs(12x16), finals(6x4), boundaries(4x4),
    // offsets(4x8), old_to_new(6x4), new_to_old(6x4).
    let expected: [(u64, u64, u64); 7] = [
        (1, 256, 48),
        (2, 320, 192),
        (3, 512, 24),
        (4, 576, 16),
        (5, 640, 32),
        (6, 704, 24),
        (7, 768, 24),
    ];
    for (i, (kind, offset, len)) in expected.into_iter().enumerate() {
        let e = 48 + i * 24;
        assert_eq!(le_u64(&b, e), kind, "section {i} kind");
        assert_eq!(le_u64(&b, e + 8), offset, "section {i} offset");
        assert_eq!(le_u64(&b, e + 16), len, "section {i} length");
    }
    assert_eq!(b.len(), 768 + 24, "total image size");
}

#[test]
fn v2_record_layouts_are_pinned() {
    let sorted = fixture_sorted();
    let b = store::to_bytes(&sorted);
    // First state record (sorted state 0 = original s1: one emitting arc
    // starting at arc 0): first_arc=0 in bits 0..32, num_emitting=1 in
    // 32..48, num_epsilon=0 in 48..64.
    assert_eq!(le_u64(&b, 256), 0x0000_0001_0000_0000);
    // Its arc record at the arc section base: s1 -> s2 renumbers to dest 3
    // (s2 is sorted state 3), weight 1.5, ilabel 2, olabel 0 — four
    // little-endian u32 fields in order.
    let mut arc = Vec::new();
    arc.extend_from_slice(&3u32.to_le_bytes());
    arc.extend_from_slice(&1.5f32.to_le_bytes());
    arc.extend_from_slice(&2u32.to_le_bytes());
    arc.extend_from_slice(&0u32.to_le_bytes());
    assert_eq!(&b[320..336], arc.as_slice(), "arc record layout");
    // Unit registers: cumulative boundaries [2, 3, 4, 4] — two degree-1
    // states, one degree-2, one degree-3, no degree-4.
    for (g, expect) in [2u32, 3, 4, 4].into_iter().enumerate() {
        assert_eq!(le_u32(&b, 576 + 4 * g), expect, "boundary register {g}");
    }
    // Renumbering maps: new_to_old = [1, 3, 0, 2, 4, 5].
    for (new, old) in [1u32, 3, 0, 2, 4, 5].into_iter().enumerate() {
        assert_eq!(le_u32(&b, 768 + 4 * new), old, "new_to_old[{new}]");
    }
}

#[test]
fn committed_fixture_loads_and_matches_the_builder_graph() {
    let sorted = fixture_sorted();
    let image = GraphImage::from_bytes(FIXTURE).expect("fixture must stay loadable");
    assert_eq!(image.wfst().state_entries(), sorted.wfst().state_entries());
    assert_eq!(image.sorted().unit(), sorted.unit());
    assert_eq!(image.sorted().threshold(), 4);
    assert_eq!(image.wfst().start(), sorted.wfst().start());
    for (a, b) in image
        .wfst()
        .arc_entries()
        .iter()
        .zip(sorted.wfst().arc_entries())
    {
        assert_eq!(a.dest, b.dest);
        assert_eq!(a.ilabel, b.ilabel);
        assert_eq!(a.olabel, b.olabel);
        assert_eq!(a.weight.to_bits(), b.weight.to_bits());
    }
    for old in 0..6u32 {
        assert_eq!(
            image.sorted().map_state(StateId(old)),
            sorted.map_state(StateId(old))
        );
    }
}

/// Regenerates the committed fixture. Run explicitly after an intentional
/// format change: `cargo test -p asr-wfst --test golden_store -- --ignored bless`.
#[test]
#[ignore]
fn bless() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("tiny_v2.wfstimg");
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, store::to_bytes(&fixture_sorted())).unwrap();
}
