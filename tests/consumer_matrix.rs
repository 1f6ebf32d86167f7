//! The consumer matrix: every consumer of the search against the
//! reference decoder on every fixture the byte-identity pins decode.
//!
//! One test per consumer (a row); each runs all of its cells, prints one
//! line per cell (`ok` with the decodes checked, the departure it is
//! exempt from, `n/a` with the reason, or `FAILED` with the first
//! mismatch) and fails if any cell failed. Verdicts come from
//! [`asr_testkit::cell`]; ARCHITECTURE.md, "The consumer matrix", has
//! the table and how to add a row.

use asr_accel::config::DesignPoint::{ArcPrefetch, Base, StateAndArc, StateOpt};
use asr_testkit::Consumer::{self, *};
use asr_testkit::{assert_cell, cell, Fixture, Verdict};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs every cell of `consumer`'s row, then fails with the list of the
/// cells that failed.
fn row(consumer: Consumer) {
    let mut failed = Vec::new();
    for fixture in Fixture::ALL {
        let line = match catch_unwind(AssertUnwindSafe(|| assert_cell(consumer, fixture))) {
            Ok(checked) => match cell(consumer, fixture) {
                Verdict::Oracle => format!("ok ({checked} decodes)"),
                Verdict::Departs(departure) => format!("departs: {departure:?} ({checked})"),
                Verdict::Inapplicable(why) => format!("n/a: {why}"),
            },
            Err(panic) => {
                let message = (panic.downcast_ref::<String>().map(String::as_str))
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("a non-string panic");
                failed.push(format!("{fixture:?}: {message}"));
                format!("FAILED: {message}")
            }
        };
        println!("{consumer:?} x {fixture:?}: {line}");
    }
    assert!(failed.is_empty(), "{consumer:?}: {failed:#?}");
}

/// One `#[test]` per row, and a match that compiles only while every
/// consumer has a row.
macro_rules! rows {
    ($($test:ident: $row:ident $(($design:ident))?,)*) => {
        $(#[test] fn $test() { row($row $(($design))?) })*

        #[allow(dead_code)]
        fn every_consumer_has_a_row(consumer: Consumer) {
            match consumer { $($row $(($design))? => {})* }
        }
    };
}

rows! {
    viterbi: Viterbi,
    viterbi_reused_scratch: ViterbiReused,
    streaming: Streaming,
    session_rows: SessionRows,
    audio_one_lane: AudioOneLane,
    audio_two_lanes: AudioTwoLanes,
    audio_batched: AudioBatched,
    sorted_owned: SortedOwned,
    sorted_image: SortedImage,
    simulator_base: Simulator(Base),
    simulator_state_opt: Simulator(StateOpt),
    simulator_arc_prefetch: Simulator(ArcPrefetch),
    simulator_state_and_arc: Simulator(StateAndArc),
}
