//! The consumers of the search: every path by which a decode leaves the
//! repo, each turning a fixture's cases into [`Outcome`]s.

use crate::fixtures::{Case, Fixture};
use crate::Outcome;
use asr_accel::config::{AcceleratorConfig, DesignPoint};
use asr_accel::sim::Simulator;
use asr_decoder::search::{DecodeScratch, ViterbiDecoder};
use asr_decoder::stream::StreamingDecode;
use asr_repro::runtime::{AsrRuntime, BatchScoringConfig, RuntimeConfig, Transcript};
use asr_wfst::lexicon::Lexicon;
use asr_wfst::sorted::SortedWfst;
use asr_wfst::store::{self, GraphImage};
use std::cell::RefCell;

/// Microphone-style packets (10 ms at 16 kHz) and an odd size that
/// straddles frame boundaries.
const PACKETS: [usize; 2] = [160, 517];

/// One row of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Consumer {
    /// `ViterbiDecoder::decode`, a fresh scratch per decode.
    Viterbi,
    /// `ViterbiDecoder::decode_with`, one scratch across the fixture's
    /// cases.
    ViterbiReused,
    /// `StreamingDecode`: every row but the last stepped, the last one
    /// finished.
    Streaming,
    /// A runtime `Session` fed the rows one `push_row` at a time.
    SessionRows,
    /// A session fed the waveform on a one-lane runtime (scoring inline).
    AudioOneLane,
    /// A session fed the waveform on `lanes(2)` (scoring overlapped with
    /// the search).
    AudioTwoLanes,
    /// A session fed the waveform on a one-lane runtime scoring through
    /// the shared batch window.
    AudioBatched,
    /// The degree-sorted layout's owned arrays, best state mapped back.
    SortedOwned,
    /// The sorted layout read in place from its store image.
    SortedImage,
    /// The accelerator simulator at a design point, by beam alone.
    Simulator(DesignPoint),
}

impl Consumer {
    /// Decodes every case of `fixture`: one `(case, what, outcome)` per
    /// decode (the audio consumers decode each case once per packet size).
    pub(crate) fn decode(self, fixture: Fixture) -> Vec<(&'static Case, String, Outcome)> {
        let cases = fixture.cases();
        let each = |f: &dyn Fn(&Case) -> Outcome| {
            (cases.iter())
                .map(|case| (case, case.label.clone(), f(case)))
                .collect()
        };
        match self {
            Consumer::Viterbi | Consumer::ViterbiReused => {
                let reused = RefCell::new(DecodeScratch::new(1));
                each(&|case| {
                    let decoder = ViterbiDecoder::new(case.opts.clone());
                    Outcome::from(&match self {
                        Consumer::ViterbiReused => {
                            decoder.decode_with(&mut reused.borrow_mut(), &case.wfst, &case.scores)
                        }
                        _ => decoder.decode(&case.wfst, &case.scores),
                    })
                })
            }
            Consumer::Streaming => each(&|case| {
                let scratch = DecodeScratch::new(case.wfst.num_states());
                let mut decode = StreamingDecode::new(&*case.wfst, case.opts.clone(), scratch);
                let frames = case.scores.num_frames();
                for frame in 0..frames.saturating_sub(1) {
                    decode.step(case.scores.frame_row(frame));
                }
                let last = frames.checked_sub(1).map(|f| case.scores.frame_row(f));
                Outcome::from(&decode.finish(last).0)
            }),
            Consumer::SessionRows => match fixture.runtime_config() {
                Some(config) => {
                    let runtime = AsrRuntime::demo_with(config).unwrap();
                    each(&|case| rows_through(&runtime, case))
                }
                None => each(&|case| {
                    let config = RuntimeConfig::new()
                        .lanes(1)
                        .decode_options(case.opts.clone());
                    let lexicon = naming_lexicon(case.wfst.num_words() as usize);
                    let runtime = AsrRuntime::with_graph((*case.wfst).clone(), lexicon, config);
                    rows_through(&runtime, case)
                }),
            },
            Consumer::AudioOneLane | Consumer::AudioTwoLanes | Consumer::AudioBatched => {
                let config = fixture
                    .runtime_config()
                    .expect("audio consumers decode the demo fixtures only");
                let runtime = AsrRuntime::demo_with(match self {
                    Consumer::AudioTwoLanes => config.lanes(2),
                    Consumer::AudioBatched => config.batch_scoring(BatchScoringConfig::new(8)),
                    _ => config,
                })
                .unwrap();
                (cases.iter())
                    .flat_map(|case| PACKETS.map(|packet| (case, packet)))
                    .map(|(case, packet)| {
                        let samples = &case.audio.as_ref().expect("a spoken case").samples;
                        let mut session = runtime.open_session();
                        for chunk in samples.chunks(packet) {
                            session.push_samples(chunk);
                        }
                        let heard = heard(&session.finalize(), runtime.lexicon());
                        (
                            case,
                            format!("{}, {packet}-sample packets", case.label),
                            heard,
                        )
                    })
                    .collect()
            }
            Consumer::SortedOwned | Consumer::SortedImage => each(&|case| {
                let sorted = SortedWfst::new(&case.wfst).unwrap();
                let image = GraphImage::from_bytes(&store::to_bytes(&sorted)).unwrap();
                let (graph, in_place) = match self {
                    Consumer::SortedImage => (image.wfst(), true),
                    _ => (sorted.wfst(), false),
                };
                assert_eq!(graph.is_image_backed(), in_place);
                let decoder = ViterbiDecoder::new(case.opts.clone());
                let mut outcome = Outcome::from(&decoder.decode(graph, &case.scores));
                outcome.best_state = outcome.best_state.map(|s| sorted.unmap_state(s));
                outcome
            }),
            Consumer::Simulator(design) => each(&|case| {
                let cfg = AcceleratorConfig::for_design(design).with_beam(case.opts.beam);
                let sim = Simulator::new(cfg).decode_wfst(&case.wfst, &case.scores);
                Outcome::from(&sim.unwrap())
            }),
        }
    }
}

/// A session on `runtime` fed `case`'s rows one at a time.
fn rows_through(runtime: &AsrRuntime, case: &Case) -> Outcome {
    let mut session = runtime.open_session();
    for frame in 0..case.scores.num_frames() {
        session.push_row(case.scores.frame_row(frame));
    }
    heard(&session.finalize(), runtime.lexicon())
}

/// A transcript's words looked back up in the lexicon that spelled them.
fn heard(transcript: &Transcript, lexicon: &Lexicon) -> Outcome {
    let words = (transcript.words.iter())
        .map(|w| lexicon.word_id(w).expect("every decoded word is spelled"))
        .collect();
    Outcome {
        words,
        cost: transcript.cost,
        reached_final: transcript.reached_final,
        best_state: None,
    }
}

/// A lexicon spelling word `i` as `w{i}` for every word of a synthetic
/// graph, so a transcript's words map back to their ids one to one.
pub fn naming_lexicon(words: usize) -> Lexicon {
    let mut lexicon = Lexicon::new();
    for i in 1..=words {
        lexicon.add_word(&format!("w{i}"), &[]);
    }
    lexicon
}
