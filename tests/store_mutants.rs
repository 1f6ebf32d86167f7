//! Structure-aware mutation suite for v2 graph images.
//!
//! `store_corrupt` throws random flips and a handful of hand-made attacks
//! at the loader; this suite walks the image's own structure and mutates
//! every field that carries meaning, one at a time, deterministically:
//! each section-table field, the header counts, a truncation either side
//! of every section boundary, state records, arc labels, the
//! direct-index registers, the renumbering maps and the final costs.
//!
//! Every mutant must either fail with a typed [`WfstError`], or load such
//! that an independent state-by-state walk over the loaded arrays accepts
//! it too, the owned rebuild of those arrays validates, and decoding the
//! image-backed graph gives exactly the owned rebuild's result. The
//! loader's fast validation path may only ever say "valid" when the
//! precise one would.

use asr_acoustic::scores::AcousticTable;
use asr_decoder::search::{DecodeOptions, ViterbiDecoder};
use asr_wfst::sorted::SortedWfst;
use asr_wfst::store::{self, GraphImage};
use asr_wfst::synth::{SynthConfig, SynthWfst};
use asr_wfst::{StateId, Wfst, WfstError};

/// Header field offsets of the v2 container (see `store::to_bytes`).
const NUM_STATES: usize = 8;
const NUM_ARCS: usize = 16;
const START: usize = 24;
const THRESHOLD: usize = 28;
const NUM_PHONES: usize = 32;
const NUM_WORDS: usize = 36;
const SECTION_COUNT: usize = 40;
/// The section table: seven `{ kind, offset, bytes }` u64 triples.
const TABLE: usize = 48;
const SECTIONS: usize = 7;

/// Section indices, in file order.
const STATES: usize = 0;
const ARCS: usize = 1;
const FINALS: usize = 2;
const BOUNDARIES: usize = 3;
const OFFSETS: usize = 4;
const OLD_TO_NEW: usize = 5;
const NEW_TO_OLD: usize = 6;

fn base() -> (SortedWfst, Vec<u8>) {
    let config = SynthConfig {
        num_phones: 40,
        vocab_size: 60,
        ..SynthConfig::with_states(600).with_seed(23)
    };
    let sorted = SortedWfst::new(&SynthWfst::generate(&config).unwrap()).unwrap();
    let bytes = store::to_bytes(&sorted);
    (sorted, bytes)
}

fn get_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn get_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

fn put_u32(b: &mut [u8], at: usize, v: u32) {
    b[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn put_u64(b: &mut [u8], at: usize, v: u64) {
    b[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

fn section_offset(b: &[u8], section: usize) -> usize {
    get_u64(b, TABLE + 24 * section + 8) as usize
}

fn section_len(b: &[u8], section: usize) -> usize {
    get_u64(b, TABLE + 24 * section + 16) as usize
}

/// Byte offset of record `index` (of `bytes` bytes each) in `section`.
fn record(b: &[u8], section: usize, index: usize, bytes: usize) -> usize {
    section_offset(b, section) + index * bytes
}

/// One named mutant image.
struct Mutant {
    name: String,
    bytes: Vec<u8>,
}

/// Collects mutants of one base image.
struct Mutants<'a> {
    base: &'a [u8],
    out: Vec<Mutant>,
}

impl Mutants<'_> {
    fn add(&mut self, name: impl Into<String>, edit: impl FnOnce(&mut Vec<u8>)) {
        let mut bytes = self.base.to_vec();
        edit(&mut bytes);
        self.out.push(Mutant {
            name: name.into(),
            bytes,
        });
    }

    /// `field ± delta` on a little-endian u64 at `at`.
    fn nudge_u64(&mut self, name: &str, at: usize, deltas: &[i64]) {
        for &d in deltas {
            self.add(format!("{name} {d:+}"), |b| {
                let v = get_u64(b, at).wrapping_add_signed(d);
                put_u64(b, at, v);
            });
        }
    }

    /// `field ± delta` on a little-endian u32 at `at`.
    fn nudge_u32(&mut self, name: &str, at: usize, deltas: &[i32]) {
        for &d in deltas {
            self.add(format!("{name} {d:+}"), |b| {
                let v = get_u32(b, at).wrapping_add_signed(d);
                put_u32(b, at, v);
            });
        }
    }
}

/// Every mutant of the suite, for `sorted` serialized as `base`.
fn mutants(sorted: &SortedWfst, base: &[u8]) -> Vec<Mutant> {
    let w = sorted.wfst();
    let states = w.state_entries();
    let mut m = Mutants {
        base,
        out: Vec::new(),
    };

    // Every section-table field.
    for s in 0..SECTIONS {
        let entry = TABLE + 24 * s;
        m.nudge_u64(&format!("section {s} kind"), entry, &[-1, 1]);
        m.nudge_u64(&format!("section {s} offset"), entry + 8, &[-64, -1, 1, 64]);
        m.nudge_u64(&format!("section {s} length"), entry + 16, &[-1, 1]);
    }

    // Header counts (and the start state beside them).
    m.nudge_u64("num_states", NUM_STATES, &[-1, 1]);
    m.nudge_u64("num_arcs", NUM_ARCS, &[-1, 1]);
    for (name, at) in [
        ("start", START),
        ("threshold", THRESHOLD),
        ("num_phones", NUM_PHONES),
        ("num_words", NUM_WORDS),
        ("section count", SECTION_COUNT),
    ] {
        m.nudge_u32(name, at, &[-1, 1]);
    }

    // A truncation one byte either side of every section boundary.
    let mut cuts: Vec<usize> = (0..SECTIONS)
        .flat_map(|s| {
            let start = section_offset(base, s);
            [start, start + section_len(base, s)]
        })
        .flat_map(|edge| [edge - 1, edge + 1])
        .filter(|&cut| cut < base.len())
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    for cut in cuts {
        m.add(format!("truncated to {cut} bytes"), |b| b.truncate(cut));
    }

    // State records: the first, a sorted-region one, the first past the
    // sorted region, the last, and the first with epsilon arcs.
    let sorted_end = sorted.unit().sorted_region_end() as usize;
    let with_epsilon = (0..states.len())
        .find(|&s| states[s].num_epsilon > 0)
        .unwrap();
    let picked = [
        0,
        sorted_end / 2,
        sorted_end,
        states.len() - 1,
        with_epsilon,
    ];
    for s in picked {
        let at = record(base, STATES, s, 8);
        m.nudge_u32(&format!("state {s} first_arc"), at, &[-1, 1]);
    }
    let mixed = (0..states.len())
        .filter(|&s| states[s].num_emitting != states[s].num_epsilon)
        .filter(|&s| states[s].num_emitting > 0 && states[s].num_epsilon > 0);
    for s in mixed.take(3) {
        m.add(format!("state {s} counts swapped"), |b| {
            let at = record(b, STATES, s, 8) + 4;
            let (emitting, epsilon) = (b[at..at + 2].to_vec(), b[at + 2..at + 4].to_vec());
            b[at..at + 2].copy_from_slice(&epsilon);
            b[at + 2..at + 4].copy_from_slice(&emitting);
        });
    }

    // Arc labels: an emitting arc relabelled epsilon, and the reverse.
    let emitting = states.iter().find(|st| st.num_emitting > 1).unwrap();
    let epsilon = &states[with_epsilon];
    for (name, arc, label) in [
        (
            "emitting arc relabelled epsilon",
            emitting.first_arc.index(),
            0,
        ),
        (
            "last emitting arc relabelled epsilon",
            emitting.first_arc.index() + emitting.num_emitting as usize - 1,
            0,
        ),
        (
            "epsilon arc relabelled phone 1",
            epsilon.epsilon_range().start,
            1,
        ),
        (
            "epsilon arc relabelled phone 39",
            epsilon.epsilon_range().end - 1,
            39,
        ),
    ] {
        m.add(name, |b| {
            let at = record(b, ARCS, arc, 16) + 8;
            put_u32(b, at, label);
        });
    }

    // An emitting and an epsilon arc of one state trading places: the
    // epsilon count is right, the order is not.
    let both = states
        .iter()
        .find(|st| st.num_emitting > 0 && st.num_epsilon > 0)
        .unwrap();
    let (x, y) = (both.first_arc.index(), both.epsilon_range().start);
    m.add("emitting and epsilon arc swapped", |b| {
        let (rx, ry) = (record(b, ARCS, x, 16), record(b, ARCS, y, 16));
        let arc_x = b[rx..rx + 16].to_vec();
        b.copy_within(ry..ry + 16, rx);
        b[ry..ry + 16].copy_from_slice(&arc_x);
    });

    // The direct-index registers.
    let threshold = sorted.threshold();
    for g in [0, 1, threshold / 2, threshold - 1] {
        let boundary = record(base, BOUNDARIES, g, 4);
        m.nudge_u32(&format!("boundary register {g}"), boundary, &[-1, 1]);
        let offset = record(base, OFFSETS, g, 8);
        m.nudge_u64(&format!("offset register {g}"), offset, &[-1, 1]);
    }

    // The renumbering maps: two entries of one map swapped, and of both
    // (which keeps them inverse: a valid image with other state names).
    let (a, b) = (1, states.len() / 2);
    for (name, maps) in [
        ("old_to_new", &[OLD_TO_NEW][..]),
        ("new_to_old", &[NEW_TO_OLD][..]),
    ] {
        m.add(format!("{name} entries {a} and {b} swapped"), |bytes| {
            for &map in maps {
                swap_u32s(bytes, map, a, b);
            }
        });
    }
    let (new_a, new_b) = (
        sorted.map_state(StateId(a as u32)).index(),
        sorted.map_state(StateId(b as u32)).index(),
    );
    m.add("both maps swapped consistently", |bytes| {
        swap_u32s(bytes, OLD_TO_NEW, a, b);
        swap_u32s(bytes, NEW_TO_OLD, new_a, new_b);
    });

    // Final costs: NaN and -inf, on a final state and a non-final one.
    let final_state = (0..states.len())
        .find(|&s| w.is_final(StateId(s as u32)))
        .unwrap();
    let inner_state = (0..states.len())
        .find(|&s| !w.is_final(StateId(s as u32)))
        .unwrap();
    for (cost_name, cost) in [("NaN", f32::NAN), ("-inf", f32::NEG_INFINITY)] {
        for s in [final_state, inner_state] {
            m.add(format!("state {s} final cost {cost_name}"), |b| {
                let at = record(b, FINALS, s, 4);
                put_u32(b, at, cost.to_bits());
            });
        }
    }
    m.out
}

/// Swaps entries `i` and `j` of a `u32` section.
fn swap_u32s(b: &mut [u8], section: usize, i: usize, j: usize) {
    let (x, y) = (record(b, section, i, 4), record(b, section, j, 4));
    let (vx, vy) = (get_u32(b, x), get_u32(b, y));
    put_u32(b, x, vy);
    put_u32(b, y, vx);
}

/// An independent state-by-state check of everything a loaded image
/// promises, over its views: arc windows in range, weights finite,
/// destinations in range, emitting arcs before epsilon arcs, a final
/// state, label spaces, the epsilon summary, the registers and the maps.
fn walk_accepts(sorted: &SortedWfst) -> Result<(), String> {
    let w = sorted.wfst();
    let (states, arcs) = (w.state_entries(), w.arc_entries());
    let n = states.len();
    if w.start().index() >= n {
        return Err("start out of range".into());
    }
    let (mut phones, mut words) = (0, 0);
    for (s, st) in states.iter().enumerate() {
        let window = arcs
            .get(st.arc_range())
            .ok_or(format!("state {s}: window past the arcs"))?;
        for (k, arc) in window.iter().enumerate() {
            if !arc.weight.is_finite() || arc.dest.index() >= n {
                return Err(format!("state {s} arc {k}: bad weight or destination"));
            }
            if arc.is_epsilon() != (k >= st.num_emitting as usize) {
                return Err(format!("state {s} arc {k}: out of emitting/epsilon order"));
            }
            phones = phones.max(arc.ilabel.0 + 1);
            words = words.max(arc.olabel.0 + 1);
        }
        if w.has_epsilon(StateId(s as u32)) != (st.num_epsilon > 0) {
            return Err(format!("state {s}: epsilon summary disagrees"));
        }
    }
    if (w.num_phones(), w.num_words()) != (phones, words) {
        return Err("label spaces disagree with the arcs".into());
    }
    if !(0..n).any(|s| w.is_final(StateId(s as u32))) {
        return Err("no final state".into());
    }
    let unit = sorted.unit();
    let mut prev = 0;
    for g in 0..unit.threshold() {
        let boundary = unit.group_boundary(g);
        if boundary < prev || boundary as usize > n {
            return Err(format!("boundary register {g} not cumulative"));
        }
        let degree = g as i64 + 1;
        for x in prev..boundary {
            let st = states[x as usize];
            let first = i64::from(x) * degree + unit.group_offset(g);
            if i64::from(st.first_arc.0) != first || st.num_arcs() as i64 != degree {
                return Err(format!("state {x}: registers disagree"));
            }
        }
        prev = boundary;
    }
    for old in 0..n as u32 {
        let new = sorted.map_state(StateId(old));
        if new.index() >= n || sorted.unmap_state(new) != StateId(old) {
            return Err(format!("maps not inverse at {old}"));
        }
    }
    Ok(())
}

fn assert_same_decode(image: &Wfst, owned: &Wfst, name: &str) {
    let columns = image.num_phones().max(2) as usize;
    let decoder = ViterbiDecoder::new(DecodeOptions::with_beam(12.0));
    for seed in [3, 4] {
        let scores = AcousticTable::random(25, columns, (0.5, 4.0), seed);
        let a = decoder.decode(image, &scores);
        let b = decoder.decode(owned, &scores);
        assert_eq!(a.words, b.words, "{name}");
        assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{name}");
        assert_eq!(a.reached_final, b.reached_final, "{name}");
        assert_eq!(a.best_state, b.best_state, "{name}");
    }
}

#[test]
fn every_structural_mutant_is_rejected_typed_or_loads_faithfully() {
    let (sorted, base) = base();
    let mutants = mutants(&sorted, &base);
    let (mut rejected, mut loaded) = (0, 0);
    for Mutant { name, bytes } in &mutants {
        match GraphImage::from_bytes(bytes) {
            Err(err) => {
                assert!(
                    matches!(
                        err,
                        WfstError::Corrupt(_)
                            | WfstError::LayoutMismatch { .. }
                            | WfstError::UnknownState(_)
                            | WfstError::UnknownArc(_)
                            | WfstError::InvalidWeight { .. }
                            | WfstError::NoFinalStates
                    ),
                    "{name}: unexpected error class {err}"
                );
                rejected += 1;
            }
            Ok(image) => {
                if let Err(why) = walk_accepts(image.sorted()) {
                    panic!("{name}: loaded, but the state-by-state walk rejects it: {why}");
                }
                let w = image.wfst();
                let owned = Wfst::from_parts(
                    w.state_entries().to_vec(),
                    w.arc_entries().to_vec(),
                    w.start(),
                    (0..w.num_states())
                        .map(|s| w.final_cost(StateId(s as u32)))
                        .collect(),
                )
                .unwrap_or_else(|e| panic!("{name}: the owned rebuild fails: {e}"));
                assert!(w.is_image_backed() && !owned.is_image_backed());
                assert_eq!(
                    (owned.num_phones(), owned.num_words()),
                    (w.num_phones(), w.num_words()),
                    "{name}"
                );
                assert_same_decode(w, &owned, name);
                loaded += 1;
            }
        }
    }
    // The suite exercises both outcomes: most mutants must be caught, and
    // the benign ones (a swap that keeps the maps inverse, a NaN cost on
    // a non-final state, a start moved to another state) must load.
    assert!(
        rejected > 100,
        "only {rejected} of {} rejected",
        mutants.len()
    );
    assert!(loaded >= 3, "only {loaded} of {} loaded", mutants.len());
}

#[test]
fn the_unmutated_image_passes_the_walk_and_decodes_like_its_source() {
    let (sorted, base) = base();
    let image = GraphImage::from_bytes(&base).unwrap();
    walk_accepts(image.sorted()).unwrap();
    assert_same_decode(image.wfst(), sorted.wfst(), "base");
}
