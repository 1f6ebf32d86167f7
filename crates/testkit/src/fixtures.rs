//! The seeded decodes the byte-identity pins run, each at the size, seeds,
//! frames and options of the pin it came from, plus the demo runtime's
//! utterances.
//!
//! A [`Fixture`] is a set of [`Case`]s built once per process and shared
//! by every consumer (and every test) that decodes it; each case caches
//! its own [`oracle`](crate::oracle) result.

use asr_acoustic::scores::AcousticTable;
use asr_acoustic::signal::Utterance;
use asr_decoder::search::{DecodeOptions, DecodeResult};
use asr_repro::runtime::{AsrRuntime, RuntimeConfig};
use asr_wfst::builder::WfstBuilder;
use asr_wfst::lexicon::demo_lexicon;
use asr_wfst::rmeps::remove_epsilons;
use asr_wfst::synth::{SynthConfig, SynthWfst};
use asr_wfst::{PhoneId, StateId, Wfst, WordId};
use std::sync::{Arc, OnceLock};

/// The seeded synthetic graph of `states` states.
pub fn graph(states: usize, seed: u64) -> Wfst {
    SynthWfst::generate(&SynthConfig::with_states(states).with_seed(seed)).unwrap()
}

/// `frames` random cost rows over `wfst`'s phones, drawn from `seed`.
pub fn rows(wfst: &Wfst, frames: usize, seed: u64) -> AcousticTable {
    AcousticTable::random(frames, wfst.num_phones() as usize, (0.5, 4.0), seed)
}

/// The six commands the concurrency and serving pins speak.
pub const COMMANDS: [&[&str]; 6] = [
    &["go"],
    &["stop"],
    &["lights", "on"],
    &["lights", "off"],
    &["play", "music"],
    &["call", "mom"],
];

/// Utterances of deliberately different lengths, so staggered sessions
/// also finish at different times (the batched-scoring pins).
pub const STAGGERED: [&[&str]; 6] = [
    &["go"],
    &["stop"],
    &["lights", "on"],
    &["lights", "off", "stop"],
    &["play", "music"],
    &["call", "mom", "go"],
];

/// One decode: a graph, its rows, the options, and for the demo
/// fixtures the waveform the rows were scored from.
#[derive(Debug)]
pub struct Case {
    /// Names the case in a failure message.
    pub label: String,
    /// The graph, in its original numbering.
    pub wfst: Arc<Wfst>,
    /// The acoustic cost rows.
    pub scores: AcousticTable,
    /// Beam and cap.
    pub opts: DecodeOptions,
    /// The spoken waveform (demo fixtures only).
    pub(crate) audio: Option<Utterance>,
    oracle: OnceLock<DecodeResult>,
}

impl Case {
    fn new(label: String, wfst: Arc<Wfst>, scores: AcousticTable, opts: DecodeOptions) -> Self {
        let (audio, oracle) = (None, OnceLock::new());
        Self {
            label,
            wfst,
            scores,
            opts,
            audio,
            oracle,
        }
    }

    /// The same graph and rows under other options.
    fn with(&self, label: String, opts: DecodeOptions) -> Self {
        Self::new(label, self.wfst.clone(), self.scores.clone(), opts)
    }

    /// The reference decoder's result on this case, computed once.
    pub fn oracle(&self) -> &DecodeResult {
        (self.oracle).get_or_init(|| crate::oracle(&self.wfst, &self.scores, &self.opts))
    }
}

/// Declares [`Fixture`] and its [`Fixture::ALL`] from one list.
macro_rules! fixtures {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Every fixture the pins decode, named after what it exercises.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Fixture {
            $($(#[$doc])* $name,)*
        }

        impl Fixture {
            /// Every fixture, in declaration order.
            pub const ALL: [Fixture; [$(stringify!($name)),*].len()] = [$(Fixture::$name),*];
        }
    };
}

fixtures! {
    /// {2k, 10k, 50k} states × seeds {1, 2, 3}, 20 frames, beam 6.
    GraphSizes,
    /// 8k states, seed 11, 25 frames, beams {0, 2, 4, 8, 16, 64}.
    Beams,
    /// 6k states, seed 23, 20 frames, beam 12, caps {0, 1, 8, 64, 512}.
    HistogramCaps,
    /// 5k states, seed 31, {20, 100} frames (no lattice GC, three), beam 6.
    LatticeGc,
    /// 3k states, seeds {5, 17, 40}, 7 frames, beam 1.5: best paths that
    /// often end outside the final states.
    TightBeam,
    /// 2k, 9k, 3k and 9k states (seeds 1–4) in turn, 15 frames, beam 6.
    MixedSizes,
    /// 20k states, seed 0x570E, 50 frames, beam 8: the store image's graph.
    StoreImage,
    /// 4k states, seeds 1–5, 15 frames, beam 6.
    DesignSeeds,
    /// 5k states, seed 77, 12 frames, beam 6: the idealized simulators'.
    Idealized,
    /// 3k states, seed 13, 10 frames, beams {2, 4, 8, 16}.
    SimBeams,
    /// 3k states, seed 17, 10 frames, beam 6.
    Layout,
    /// 2k states, seeds {1, 7, 23}, 12 frames, beam 8: the graphs the
    /// epsilon-removal pin rewrites.
    EpsilonRemoval,
    /// 1.5k states, seeds 1–5, 12 frames, beams {3, 6, 12}.
    PortSeeds,
    /// 800 states, seed 17, no frames at all.
    ZeroFrames,
    /// A two-arc chain fed five frames: every token dies mid-utterance.
    DeadEnd,
    /// A five-arc chain to the only final state, fed three frames.
    UnreachableFinal,
    /// Final states 1 and 2 tie bit-exactly; state 2 has the lower
    /// out-degree, so the degree-sorted layout puts it first.
    TiedFinals,
    /// (2k states, 20 frames, seed 5) and (20k, 30, seed 2), beam 6: the
    /// simulator's pinned hardware counters.
    Counters,
    /// 600 states, seeds {7, 21}, 8 frames, beam 10⁶: nothing is pruned.
    WideBeam,
    /// The 1.5k- and 20k-state graphs of seeds 1–5 with their epsilon
    /// arcs removed, 30 frames, beams {3, 6, 12}.
    EpsilonFree,
    /// 50k states, seed 3, 50 frames, beam 16.
    UndersizedHash,
    /// 20k states, seed 7, 10 frames, beam 10.
    TinyCaches,
    /// 5k states, seed 9, 8 frames, beam 0: one token survives a frame.
    ZeroBeam,
    /// One final state with a self-loop, four frames, beam 8.
    SingleState,
    /// A one-arc graph fed three frames of prohibitive cost, beam 1.
    AllPruned,
    /// A 50-deep epsilon ladder before the only emitting arc, beam 8.
    DeepEpsilon,
    /// 25k states (the default seed), 40 frames, beam 8; and 2k states,
    /// 24 frames: the synthetic-graph runtimes of the serving tests.
    RuntimeSynth,
    /// 5k states over the demo lexicon's phones, 30 frames, beam 8.
    DemoPhones,
    /// The demo runtime (template scorer, beam 40): eight utterances.
    Demo,
    /// The demo runtime with a seeded MLP scorer (one hidden layer of 48,
    /// seed 11) and beam 10⁹: four utterances.
    DemoMlp,
}

impl Fixture {
    /// The fixture's cases, built on first use.
    pub fn cases(self) -> &'static [Case] {
        static CASES: [OnceLock<Vec<Case>>; Fixture::ALL.len()] =
            [const { OnceLock::new() }; Fixture::ALL.len()];
        CASES[self as usize].get_or_init(|| self.build())
    }

    /// The runtime the demo fixtures were scored on, at one lane.
    pub(crate) fn runtime_config(self) -> Option<RuntimeConfig> {
        let config = RuntimeConfig::new().lanes(1);
        match self {
            Fixture::Demo => Some(config),
            Fixture::DemoMlp => Some(
                (config.decode_options(DecodeOptions::with_beam(1.0e9))).mlp_acoustic(&[48], 11),
            ),
            _ => None,
        }
    }

    fn build(self) -> Vec<Case> {
        use Fixture::*;
        // Each origin pin drew its rows' seed from the graph's its own way.
        let table = |seed: u64| seed.wrapping_mul(0x9E37_79B9);
        let equal = |seed: u64| seed.wrapping_mul(31);
        let port = |seed: u64| seed ^ 0xABCD;
        let flat = |cost| move |_, _| cost;
        match self {
            GraphSizes => grid(&[2_000, 10_000, 50_000], &[1, 2, 3], &[20], table, &[6.0]),
            Beams => grid(
                &[8_000],
                &[11],
                &[25],
                table,
                &[0.0, 2.0, 4.0, 8.0, 16.0, 64.0],
            ),
            HistogramCaps => {
                let graph = &grid(&[6_000], &[23], &[20], table, &[12.0])[0];
                ([0, 1, 8, 64, 512].into_iter())
                    .map(|cap| {
                        let opts = DecodeOptions {
                            max_active: Some(cap),
                            ..graph.opts.clone()
                        };
                        graph.with(format!("{}, cap {cap}", graph.label), opts)
                    })
                    .collect()
            }
            LatticeGc => grid(&[5_000], &[31], &[20, 100], table, &[6.0]),
            TightBeam => grid(&[3_000], &[5, 17, 40], &[7], table, &[1.5]),
            MixedSizes => ([(2_000, 1), (9_000, 2), (3_000, 3), (9_000, 4)].into_iter())
                .flat_map(|(states, seed)| grid(&[states], &[seed], &[15], table, &[6.0]))
                .collect(),
            StoreImage => grid(&[20_000], &[0x570E], &[50], |_| 0xACC0, &[8.0]),
            DesignSeeds => grid(&[4_000], &[1, 2, 3, 4, 5], &[15], equal, &[6.0]),
            Idealized => grid(&[5_000], &[77], &[12], equal, &[6.0]),
            SimBeams => grid(&[3_000], &[13], &[10], equal, &[2.0, 4.0, 8.0, 16.0]),
            Layout => grid(&[3_000], &[17], &[10], equal, &[6.0]),
            EpsilonRemoval => grid(&[2_000], &[1, 7, 23], &[12], equal, &[8.0]),
            PortSeeds => grid(&[1_500], &[1, 2, 3, 4, 5], &[12], port, &[3.0, 6.0, 12.0]),
            ZeroFrames => grid(&[800], &[17], &[0], |_| 17, &[6.0]),
            DeadEnd => {
                let chain = hand_built(3, &[(0, 1, 1, 1, 0.5), (1, 2, 2, 0, 0.5)], &[(2, 0.0)]);
                fed(chain, (5, 3), flat(1.0), 8.0)
            }
            UnreachableFinal => {
                let arcs: Vec<_> = (0..5).map(|i| (i, i + 1, 1 + i % 2, 1 + i, 0.25)).collect();
                fed(hand_built(6, &arcs, &[(5, 0.0)]), (3, 3), flat(0.75), 20.0)
            }
            TiedFinals => {
                let arcs = [(0, 1, 1, 1, 0.5), (0, 2, 1, 2, 0.5), (1, 3, 2, 0, 9.0)];
                let arcs = [&arcs[..], &[(1, 3, 3, 0, 9.0), (2, 3, 2, 0, 9.0)]].concat();
                fed(
                    hand_built(4, &arcs, &[(1, 0.0), (2, 0.0)]),
                    (1, 4),
                    flat(1.0),
                    20.0,
                )
            }
            Counters => {
                let synth =
                    |states, seed, frames| grid(&[states], &[seed], &[frames], port, &[6.0]);
                [synth(2_000, 5, 20), synth(20_000, 2, 30)]
                    .into_iter()
                    .flatten()
                    .collect()
            }
            WideBeam => grid(&[600], &[7, 21], &[8], port, &[1e6]),
            EpsilonFree => ((1..=5).flat_map(|seed| [1_500, 20_000].map(|states| (seed, states))))
                .flat_map(|(seed, states)| {
                    let original = &grid(&[states], &[seed], &[30], port, &[0.0])[0];
                    let free = Arc::new(remove_epsilons(&original.wfst).unwrap());
                    [3.0, 6.0, 12.0].map(|beam| {
                        let label =
                            format!("{states} states epsilon-free, seed {seed}, beam {beam}");
                        let opts = DecodeOptions::with_beam(beam);
                        Case::new(label, free.clone(), original.scores.clone(), opts)
                    })
                })
                .collect(),
            UndersizedHash => grid(&[50_000], &[3], &[50], |_| 4, &[16.0]),
            TinyCaches => grid(&[20_000], &[7], &[10], |_| 6, &[10.0]),
            ZeroBeam => grid(&[5_000], &[9], &[8], |_| 2, &[0.0]),
            SingleState => {
                let lone = hand_built(1, &[(0, 0, 1, 1, 0.5)], &[(0, 0.25)]);
                fed(lone, (4, 2), |_, p| if p == 1 { 0.1 } else { 0.0 }, 8.0)
            }
            AllPruned => fed(
                hand_built(2, &[(0, 1, 1, 1, 1.0)], &[(1, 0.0)]),
                (3, 3),
                flat(5.0),
                1.0,
            ),
            DeepEpsilon => {
                let ladder = (0..50).map(|i| (i, i + 1, 0, 0, 0.01));
                let arcs: Vec<_> = ladder.chain([(50, 51, 1, 7, 0.5)]).collect();
                fed(hand_built(52, &arcs, &[(51, 0.0)]), (1, 2), flat(0.25), 8.0)
            }
            RuntimeSynth => {
                let seed = SynthConfig::default().seed;
                let synth = |states, frames| grid(&[states], &[seed], &[frames], |_| 17, &[8.0]);
                [synth(25_000, 40), synth(2_000, 24)]
                    .into_iter()
                    .flatten()
                    .collect()
            }
            DemoPhones => {
                let config = SynthConfig {
                    num_phones: demo_lexicon().num_phones() as u32,
                    ..SynthConfig::with_states(5_000)
                };
                let wfst = SynthWfst::generate(&config).unwrap();
                let scores = rows(&wfst, 30, 29);
                let label = "5000 states over the demo phones".into();
                vec![Case::new(
                    label,
                    Arc::new(wfst),
                    scores,
                    DecodeOptions::with_beam(8.0),
                )]
            }
            Demo => spoken(
                self,
                &[&COMMANDS[..], &STAGGERED[3..4], &STAGGERED[5..]].concat(),
            ),
            DemoMlp => spoken(self, &STAGGERED[..4]),
        }
    }
}

/// One case per (states, seed, frames, beam), in that nesting: a graph
/// per (states, seed), its rows drawn from `row_seed(seed)`.
fn grid(
    states: &[usize],
    seeds: &[u64],
    frames: &[usize],
    row_seed: impl Fn(u64) -> u64,
    beams: &[f32],
) -> Vec<Case> {
    let mut cases = Vec::new();
    for (&n, &seed) in states
        .iter()
        .flat_map(|n| seeds.iter().map(move |s| (n, s)))
    {
        let wfst = Arc::new(graph(n, seed));
        for &f in frames {
            let scores = rows(&wfst, f, row_seed(seed));
            for &beam in beams {
                let label = format!("{n} states, seed {seed}, {f} frames, beam {beam}");
                let opts = DecodeOptions::with_beam(beam);
                cases.push(Case::new(label, wfst.clone(), scores.clone(), opts));
            }
        }
    }
    cases
}

/// A hand-built graph: `states` states, start state 0, arcs as
/// `(from, to, phone, word, weight)` (phone 0 is epsilon, word 0 none).
fn hand_built(states: usize, arcs: &[(u32, u32, u32, u32, f32)], finals: &[(u32, f32)]) -> Wfst {
    let mut b = WfstBuilder::new();
    b.add_states(states);
    b.set_start(StateId(0));
    for &(from, to, phone, word, weight) in arcs {
        b.add_arc(
            StateId(from),
            StateId(to),
            PhoneId(phone),
            WordId(word),
            weight,
        );
    }
    for &(state, cost) in finals {
        b.set_final(StateId(state), cost);
    }
    b.build().unwrap()
}

/// `wfst` fed `frames` rows of `phones` costs, `cost(frame, phone)` each.
fn fed(
    wfst: Wfst,
    (frames, phones): (usize, usize),
    cost: impl Fn(usize, usize) -> f32,
    beam: f32,
) -> Vec<Case> {
    let scores = AcousticTable::from_fn(frames, phones, cost);
    let label = format!("{} hand-built states, {frames} frames", wfst.num_states());
    vec![Case::new(
        label,
        Arc::new(wfst),
        scores,
        DecodeOptions::with_beam(beam),
    )]
}

/// The demo runtime's rows for each of `scripts`, scored whole.
fn spoken(fixture: Fixture, scripts: &[&[&str]]) -> Vec<Case> {
    let runtime = AsrRuntime::demo_with(fixture.runtime_config().unwrap()).unwrap();
    let wfst = Arc::new(runtime.graph().clone());
    (scripts.iter())
        .map(|words| {
            let audio = runtime.render_words(words).unwrap();
            let scores = runtime.score(&audio);
            let opts = runtime.options().clone();
            let case = Case::new(format!("{fixture:?} {words:?}"), wfst.clone(), scores, opts);
            Case {
                audio: Some(audio),
                ..case
            }
        })
        .collect()
}
