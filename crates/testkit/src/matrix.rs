//! The table: every consumer × fixture pair has a verdict, and a cell's
//! check is the one oracle assertion over its decodes.

use crate::consumers::Consumer;
use crate::fixtures::Fixture;
use crate::{assert_same, Outcome};

/// What a cell asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Words, cost bits, `reached_final` and (where the consumer reports
    /// one) the best state equal the oracle's on every case.
    Oracle,
    /// The consumer departs from the oracle in a documented way; the
    /// cell asserts what the departure leaves equal.
    Departs(Departure),
    /// The consumer cannot take the fixture's input; nothing runs.
    Inapplicable(&'static str),
}

/// A documented way a consumer may differ from the reference decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Departure {
    /// A decode run directly over the degree-sorted graph breaks an exact
    /// cost tie between final states by the lower state id of the sorted
    /// numbering, where the reference (and the simulator, which maps its
    /// layout back) takes the lower original id. Cost bits and finality
    /// stay equal; the words and the best state may be the tied rival's.
    LayoutTieBreak,
}

/// What a fixture feeds a consumer, as far as a verdict depends on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Cost rows under a beam.
    Rows,
    /// Cost rows under a beam and a histogram cap.
    Capped,
    /// Cost rows whose best paths end in final states of bit-identical
    /// cost.
    Tied,
    /// A waveform, with the rows the runtime scores it to.
    Spoken,
}

fn shape(fixture: Fixture) -> Shape {
    use Fixture::*;
    match fixture {
        HistogramCaps => Shape::Capped,
        TiedFinals => Shape::Tied,
        Demo | DemoMlp => Shape::Spoken,
        GraphSizes | Beams | LatticeGc | TightBeam | MixedSizes | StoreImage | DesignSeeds
        | Idealized | SimBeams | Layout | EpsilonRemoval | PortSeeds | ZeroFrames | DeadEnd
        | UnreachableFinal | Counters | WideBeam | EpsilonFree | UndersizedHash | TinyCaches
        | ZeroBeam | SingleState | AllPruned | DeepEpsilon | RuntimeSynth | DemoPhones => {
            Shape::Rows
        }
    }
}

/// The verdict of one cell. It matches every consumer and (through the
/// fixture's shape) every fixture without a wildcard: a new consumer or a
/// new fixture does not compile until every pair has a verdict.
pub fn cell(consumer: Consumer, fixture: Fixture) -> Verdict {
    use Consumer::*;
    use Shape::*;
    match (consumer, shape(fixture)) {
        (Viterbi | ViterbiReused | Streaming | SessionRows, Rows | Capped | Tied | Spoken) => {
            Verdict::Oracle
        }
        (SortedOwned | SortedImage, Rows | Capped | Spoken) => Verdict::Oracle,
        (SortedOwned | SortedImage, Tied) => Verdict::Departs(Departure::LayoutTieBreak),
        (AudioOneLane | AudioTwoLanes | AudioBatched, Spoken) => Verdict::Oracle,
        (AudioOneLane | AudioTwoLanes | AudioBatched, Rows | Capped | Tied) => {
            Verdict::Inapplicable("the fixture is rows, with no waveform to push")
        }
        (Simulator(_), Rows | Tied | Spoken) => Verdict::Oracle,
        (Simulator(_), Capped) => {
            Verdict::Inapplicable("the accelerator prunes by beam alone, with no histogram cap")
        }
    }
}

/// Runs one cell under its verdict and panics at the first decode that
/// breaks it. Returns how many decodes it checked (0 for an inapplicable
/// cell).
#[track_caller]
pub fn assert_cell(consumer: Consumer, fixture: Fixture) -> usize {
    let verdict = cell(consumer, fixture);
    if let Verdict::Inapplicable(_) = verdict {
        return 0;
    }
    let decodes = consumer.decode(fixture);
    for (case, what, got) in &decodes {
        let want = Outcome::from(case.oracle());
        let what = format!("{consumer:?} on {fixture:?}: {what}");
        match verdict {
            Verdict::Oracle => assert_same(got, &want, &what),
            Verdict::Departs(Departure::LayoutTieBreak) => {
                let got = Outcome {
                    words: want.words.clone(),
                    best_state: None,
                    ..got.clone()
                };
                assert_same(&got, &want, &what);
            }
            Verdict::Inapplicable(_) => unreachable!(),
        }
    }
    decodes.len()
}
