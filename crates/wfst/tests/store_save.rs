//! `store::save` and `store::to_bytes` are one serializer behind two
//! sinks: a file written by `save` holds exactly the bytes `to_bytes`
//! returns, for every shape of graph — the golden fixture's source graph,
//! a graph without arcs, synthetic graphs of several sizes.

use asr_wfst::builder::WfstBuilder;
use asr_wfst::sorted::SortedWfst;
use asr_wfst::store::{self, GraphImage};
use asr_wfst::synth::{SynthConfig, SynthWfst};
use asr_wfst::{PhoneId, StateId, WordId};
use std::path::PathBuf;

const FIXTURE: &[u8] = include_bytes!("fixtures/tiny_v2.wfstimg");

/// The source graph of the committed golden fixture (as `golden_store`
/// builds it): six states of degrees 2, 1, 3, 1, 5 and 0, threshold 4.
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

/// One final state and no arcs at all: empty arc and register-group
/// sections between non-empty ones.
fn arcless_sorted() -> SortedWfst {
    let mut b = WfstBuilder::new();
    let s = b.add_state();
    b.set_start(s);
    b.set_final(s, 0.0);
    SortedWfst::new(&b.build().unwrap()).unwrap()
}

fn synth_sorted(states: usize, seed: u64) -> SortedWfst {
    let config = SynthConfig::with_states(states).with_seed(seed);
    SortedWfst::new(&SynthWfst::generate(&config).unwrap()).unwrap()
}

/// A scratch directory of this test's own.
fn scratch_dir(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("asr_wfst_store_save_{}_{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn save_writes_exactly_the_bytes_of_to_bytes() {
    let dir = scratch_dir("sinks");
    let graphs = [
        ("fixture", fixture_sorted()),
        ("arc-less", arcless_sorted()),
        ("synth 1", synth_sorted(1, 1)),
        ("synth 333", synth_sorted(333, 2)),
        ("synth 5000", synth_sorted(5_000, 3)),
    ];
    for (name, sorted) in &graphs {
        let path = dir.join("image.wfst2");
        store::save(sorted, &path).unwrap();
        let written = std::fs::read(&path).unwrap();
        assert_eq!(written, store::to_bytes(sorted), "{name}");
        let image = GraphImage::load(&path).unwrap();
        assert_eq!(image.as_bytes(), &written[..], "{name}");
        assert_eq!(image.wfst().num_arcs(), sorted.wfst().num_arcs(), "{name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_fixture_saved_to_a_file_is_the_committed_fixture() {
    let dir = scratch_dir("fixture");
    let path = dir.join("tiny_v2.wfstimg");
    store::save(&fixture_sorted(), &path).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), FIXTURE);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_arcless_image_round_trips() {
    let sorted = arcless_sorted();
    let bytes = store::to_bytes(&sorted);
    let image = GraphImage::from_bytes(&bytes).unwrap();
    assert_eq!(image.wfst().num_arcs(), 0);
    assert_eq!(image.wfst().num_states(), 1);
    assert!(image.wfst().final_cost(StateId(0)).is_finite());
    assert_eq!(image.sorted().unit(), sorted.unit());
}
