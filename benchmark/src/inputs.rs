//! The five workloads and their seeded inputs.
//!
//! Everything a workload feeds the program is a pure function of
//! `--seed`: the phone strings and their rendered audio, and the score
//! tables. The program under test receives only these generated inputs,
//! never the seed.
//!
//! The *models* — decoding graphs, store images, acoustic-model weights —
//! are the deployment under test, not its traffic, and are generated from
//! [`MODEL_SEED`]. A synthetic graph's per-frame search cost is a property
//! of the graph (±3 % between graphs at the same active-set cap, measured
//! over ten graphs), so a per-run graph would put that difference into
//! every comparison of two runs; with the models fixed, runs with
//! different seeds differ only by their traffic.

use asr_acoustic::scores::AcousticTable;
use asr_acoustic::signal::{SignalConfig, Utterance};
use asr_wfst::lexicon::Lexicon;
use asr_wfst::sorted::SortedWfst;
use asr_wfst::synth::{SynthConfig, SynthWfst};
use asr_wfst::{store, PhoneId, Wfst};
use std::path::{Path, PathBuf};

/// Samples per push: one 10 ms hop at 16 kHz.
pub const PACKET: usize = 160;
/// Phone label space of every graph, lexicon and score row.
pub const NUM_PHONES: u32 = 2000;
/// Hidden layers of the acoustic model (~1.3 M MACs per frame with the
/// 2000-phone output layer).
pub const MLP_HIDDEN: [usize; 2] = [512, 512];
/// Beam of every search — the runtime's default, wide enough that it
/// never binds. The active set is sized by [`Spec::max_active`] instead
/// (Kaldi's `--max-active`): under beam pruning alone the active set of
/// a synthetic graph swings 40-fold with the seed (110 to 4800 arcs per
/// frame at beam 8 over eight seeds), while the capped search stays
/// within a few percent, so runs with different seeds are comparable.
pub const BEAM: f32 = 40.0;
/// Share of accepting states in the synthetic graphs. Higher than the
/// generator's Kaldi-like 0.2 %, so that a capped active set always
/// holds a final state and no utterance ends outside one.
const FINAL_FRACTION: f64 = 0.05;
/// Frames rendered per phone of a voice utterance.
const FRAMES_PER_PHONE: usize = 5;
/// Phones per voice utterance: 50–80 frames, 65 on average. The lengths
/// are fixed and only the phone strings are seeded, so every seed offers
/// the same amount of audio.
const UTTERANCE_PHONES: [usize; 8] = [10, 11, 12, 13, 13, 14, 15, 16];
/// Frames per score table of the row-fed workloads.
pub const TABLE_FRAMES: usize = 100;
/// Distinct score tables of the row-fed workloads.
const NUM_TABLES: usize = 8;
/// Rows each of a swap cycle's two sessions pushes.
pub const SWAP_ROWS: usize = 30;
/// The registry name the swap workload replaces.
pub const SWAP_MODEL: &str = "m";

/// What a workload's sessions are fed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// Raw audio in [`PACKET`]-sample pushes: front-end, scoring, search.
    Audio,
    /// Pre-scored rows, one per push: search only.
    Rows,
    /// Rows, with a store-image load and registry swap per operation.
    Swap,
}

/// One workload's fixed definition (the *why* lives in `BENCHMARK.json`
/// and the README).
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub feed: Feed,
    /// States of every decoding graph the workload uses.
    pub states: usize,
    /// `DecodeOptions::max_active`: the cap on tokens expanded per frame
    /// that sizes the search (see [`BEAM`]).
    pub max_active: usize,
    /// Executor lanes of the runtime — the threads the workload uses
    /// (the driver thread is lane 0).
    pub lanes: usize,
    /// Row cap of the batched scoring service, when installed.
    pub batch_rows: Option<usize>,
    /// `SessionOptions::overlap_depth`, when the sessions overlap
    /// scoring with the search.
    pub overlap_depth: Option<usize>,
    /// Sessions driven round-robin, one packet per session per turn.
    pub streams: usize,
    /// Operations per timed round (fixed work: every round repeats the
    /// same operations in the same order).
    pub ops_per_round: usize,
}

pub static WORKLOADS: [Spec; 5] = [
    Spec {
        name: "voice_1s",
        feed: Feed::Audio,
        states: 50_000,
        max_active: 2_000,
        lanes: 1,
        batch_rows: None,
        overlap_depth: None,
        streams: 1,
        ops_per_round: 8,
    },
    Spec {
        name: "voice_16s_batched",
        feed: Feed::Audio,
        states: 50_000,
        max_active: 2_000,
        lanes: 1,
        batch_rows: Some(16),
        overlap_depth: None,
        streams: 16,
        ops_per_round: 16,
    },
    Spec {
        name: "voice_2s_overlap",
        feed: Feed::Audio,
        states: 50_000,
        max_active: 2_000,
        lanes: 2,
        batch_rows: None,
        overlap_depth: Some(2),
        streams: 2,
        ops_per_round: 8,
    },
    Spec {
        name: "scores_wide",
        feed: Feed::Rows,
        states: 200_000,
        max_active: 1_500,
        lanes: 1,
        batch_rows: None,
        overlap_depth: None,
        streams: 1,
        ops_per_round: 8,
    },
    Spec {
        name: "model_swap",
        feed: Feed::Swap,
        states: 200_000,
        max_active: 1_500,
        lanes: 1,
        batch_rows: None,
        overlap_depth: None,
        streams: 1,
        ops_per_round: 16,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// SplitMix64: the benchmark's own generator, so its streams do not
/// depend on which `rand` the workspace vendors.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is below 2⁻⁵² for the small
    /// `n` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Seed of the models (see the module docs): the generator's own default.
const MODEL_SEED: u64 = 0x5EED_CAFE;

/// Independent sub-seed `stream` of a seed.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

const STREAM_GRAPH: u64 = 1;
const STREAM_MLP: u64 = 2;
const STREAM_AUDIO: u64 = 3;
const STREAM_TABLES: u64 = 4;
/// Image graphs take streams `STREAM_IMAGE`, `STREAM_IMAGE + 1`.
const STREAM_IMAGE: u64 = 16;

/// Seed of the acoustic model's weights, shared by the runtime under
/// test and the layer replay.
pub fn mlp_seed() -> u64 {
    sub_seed(MODEL_SEED, STREAM_MLP)
}

/// The lexicon every runtime is built with: [`NUM_PHONES`] one-phone
/// words, so the acoustic model scores the graphs' whole label space and
/// every word label a graph emits has a spelling.
pub fn lexicon() -> Lexicon {
    let mut lexicon = Lexicon::new();
    for i in 1..=NUM_PHONES {
        lexicon.add_word(&format!("w{i}"), &[&format!("p{i}")]);
    }
    lexicon
}

/// A synthetic decoding graph with Kaldi-like statistics.
fn graph(spec: &Spec, stream: u64) -> Wfst {
    let cfg = SynthConfig {
        num_phones: NUM_PHONES,
        vocab_size: NUM_PHONES,
        final_fraction: FINAL_FRACTION,
        ..SynthConfig::with_states(spec.states).with_seed(sub_seed(MODEL_SEED, stream))
    };
    SynthWfst::generate(&cfg).expect("well-formed synthetic graph configuration")
}

/// The runtime's default decoding graph.
pub fn default_graph(spec: &Spec) -> Wfst {
    graph(spec, STREAM_GRAPH)
}

/// The voice workloads' utterances: seeded phone strings rendered to
/// 16 kHz audio.
pub fn utterances(seed: u64) -> Vec<Vec<f32>> {
    let mut rng = SplitMix64::new(sub_seed(seed, STREAM_AUDIO));
    UTTERANCE_PHONES
        .iter()
        .map(|&len| {
            let phones: Vec<PhoneId> = (0..len)
                .map(|_| PhoneId(1 + rng.below(u64::from(NUM_PHONES)) as u32))
                .collect();
            Utterance::render(&phones, FRAMES_PER_PHONE, &SignalConfig::default()).samples
        })
        .collect()
}

/// The row-fed workloads' score tables (the paper's ALB interface:
/// scores in, words out).
pub fn tables(seed: u64) -> Vec<AcousticTable> {
    let mut rng = SplitMix64::new(sub_seed(seed, STREAM_TABLES));
    (0..NUM_TABLES)
        .map(|_| {
            AcousticTable::random(
                TABLE_FRAMES,
                NUM_PHONES as usize + 1,
                (0.5, 4.0),
                rng.next_u64(),
            )
        })
        .collect()
}

/// Generates the swap workload's two graphs and saves them as v2 store
/// images under `dir`.
pub fn save_images(spec: &Spec, dir: &Path) -> Vec<PathBuf> {
    std::fs::create_dir_all(dir).expect("create the image directory");
    (0..2)
        .map(|i| {
            let wfst = graph(spec, STREAM_IMAGE + i);
            let sorted = SortedWfst::new(&wfst).expect("degree-sort a valid graph");
            let path = dir.join(format!("image{i}.wfst2"));
            store::save(&sorted, &path).expect("write the store image");
            // Write the image back now. The runs map these pages from the
            // page cache; left dirty, the kernel's periodic writeback would
            // land in the middle of the timed rounds.
            std::fs::File::open(&path)
                .and_then(|f| f.sync_all())
                .expect("sync the store image");
            path
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(samples: &[f32]) -> Vec<u32> {
        samples.iter().map(|s| s.to_bits()).collect()
    }

    #[test]
    fn equal_seeds_give_identical_audio_and_different_seeds_differ() {
        let a = utterances(11);
        let b = utterances(11);
        let c = utterances(12);
        assert_eq!(a.len(), UTTERANCE_PHONES.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(bits(x), bits(y));
        }
        assert!(a.iter().zip(&c).any(|(x, y)| bits(x) != bits(y)));
        // Lengths do not depend on the seed: same audio seconds offered.
        for (x, y) in a.iter().zip(&c) {
            assert_eq!(x.len(), y.len());
        }
    }

    #[test]
    fn equal_seeds_give_identical_tables_and_different_seeds_differ() {
        assert_eq!(tables(5), tables(5));
        assert_ne!(tables(5), tables(6));
        let t = &tables(5)[0];
        assert_eq!(t.num_frames(), TABLE_FRAMES);
        assert_eq!(t.num_phones(), NUM_PHONES as usize + 1);
    }

    #[test]
    fn models_do_not_depend_on_the_run_seed_and_differ_from_each_other() {
        let spec = Spec {
            states: 2_000,
            ..WORKLOADS[0]
        };
        let image = |stream| store::to_bytes(&SortedWfst::new(&graph(&spec, stream)).unwrap());
        assert_eq!(image(STREAM_GRAPH), image(STREAM_GRAPH));
        assert_ne!(image(STREAM_IMAGE), image(STREAM_IMAGE + 1));
        assert_ne!(image(STREAM_GRAPH), image(STREAM_IMAGE));
    }

    #[test]
    fn every_graph_label_has_a_score_column_and_a_spelling() {
        let spec = Spec {
            states: 2_000,
            ..WORKLOADS[0]
        };
        let g = default_graph(&spec);
        let lexicon = lexicon();
        assert!(g.num_phones() as usize <= lexicon.num_phones() + 1);
        assert!(g.num_words() as usize <= lexicon.num_words() + 1);
    }

    #[test]
    fn sub_streams_are_independent_of_each_other() {
        assert_ne!(sub_seed(1, STREAM_GRAPH), sub_seed(1, STREAM_AUDIO));
        assert_ne!(sub_seed(1, STREAM_IMAGE), sub_seed(1, STREAM_IMAGE + 1));
        assert_ne!(sub_seed(1, STREAM_TABLES), sub_seed(2, STREAM_TABLES));
    }
}
