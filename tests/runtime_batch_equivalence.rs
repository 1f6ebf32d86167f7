//! The differential test layer pinning cross-session batched scoring.
//!
//! The claim under test: a [`Session`] whose acoustic scoring runs
//! through the runtime's shared gather window produces transcripts,
//! cost bits, and partial hypotheses **byte-identical** to
//!
//! 1. the same session on a runtime without the service (the
//!    synchronous per-session scorer), and
//! 2. the reference decoder over the batch-scored table (the
//!    `asr-testkit` oracle),
//!
//! regardless of gather-window size, how many sessions share the
//! window, how their lifetimes stagger, and which batches their frames
//! happen to land in. Batch composition must be *numerically
//! invisible*: every cost row is a pure function of its own feature
//! vector, computed with one fold order on every path.
//!
//! A proptest sweep additionally drives random interleavings of
//! open/push/flush/finish/drop against the service and checks that no
//! scored row is ever dropped, duplicated, or routed to the wrong
//! session — any such slip corrupts a transcript the properties compare
//! against its unbatched reference.
//!
//! [`Session`]: asr_repro::runtime::Session

use asr_repro::acoustic::signal::Utterance;
use asr_repro::decoder::search::DecodeOptions;
use asr_repro::runtime::{
    AsrRuntime, BatchScoringConfig, RuntimeConfig, Session, SessionOptions, Transcript,
};
use asr_testkit::fixtures::STAGGERED as SCRIPTS;
use asr_testkit::{assert_same, assert_transcripts, expected, Outcome};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Microphone-style packet size used throughout: 10 ms at 16 kHz.
const PACKET: usize = 160;

/// Drives one session per utterance round-robin on a single thread,
/// session `i` joining `i * stagger` rounds late, each finishing as its
/// own audio runs out. This is the deterministic worst case for the
/// gather window: membership changes constantly, both by arrival and by
/// departure.
fn drive_staggered(
    runtime: &AsrRuntime,
    audios: &[Utterance],
    options: &SessionOptions,
    stagger: usize,
) -> Vec<Transcript> {
    let mut sessions: Vec<Option<Session>> = (0..audios.len()).map(|_| None).collect();
    let mut cursors = vec![0usize; audios.len()];
    let mut done: Vec<Option<Transcript>> = (0..audios.len()).map(|_| None).collect();
    let mut remaining = audios.len();
    let mut round = 0usize;
    while remaining > 0 {
        for i in 0..audios.len() {
            if done[i].is_some() || round < i * stagger {
                continue;
            }
            let session =
                sessions[i].get_or_insert_with(|| runtime.open_session_with(options.clone()));
            let samples = &audios[i].samples;
            let lo = cursors[i];
            if lo >= samples.len() {
                let finished = sessions[i].take().expect("session opened above");
                done[i] = Some(finished.finalize());
                remaining -= 1;
            } else {
                let hi = samples.len().min(lo + PACKET);
                session.push_samples(&samples[lo..hi]);
                cursors[i] = hi;
            }
        }
        round += 1;
    }
    done.into_iter().map(Option::unwrap).collect()
}

#[test]
fn staggered_sessions_are_byte_identical_across_window_sizes() {
    // {1, 2, 8, max}: window 1 degenerates to per-frame flushes, 64 is
    // far past what six sessions ever fill (the self-sizing target
    // flushes at the live-session count, so frames never stall).
    // The audio, its expected outcomes and the unbatched run do not
    // depend on the window: one of each serves all four.
    let unbatched_rt = AsrRuntime::demo_with(RuntimeConfig::new().lanes(1)).unwrap();
    let audios: Vec<Utterance> = SCRIPTS
        .iter()
        .map(|w| unbatched_rt.render_words(w).unwrap())
        .collect();
    let expected: Vec<Outcome<String>> =
        audios.iter().map(|a| expected(&unbatched_rt, a)).collect();
    let unbatched = drive_staggered(&unbatched_rt, &audios, &SessionOptions::new(), 5);
    for window in [1usize, 2, 8, 64] {
        let runtime = AsrRuntime::demo_with(
            RuntimeConfig::new()
                .lanes(1)
                .batch_scoring(BatchScoringConfig::new(window)),
        )
        .unwrap();
        let batched = drive_staggered(&runtime, &audios, &SessionOptions::new(), 5);
        assert_transcripts(&batched, &expected, &format!("window {window} batched"));
        assert_transcripts(&unbatched, &expected, &format!("window {window} unbatched"));

        let stats = runtime.stats().batch.expect("service configured");
        assert_eq!(stats.open_slots, 0, "window {window}: slots all released");
        assert!(
            stats.batches > 0,
            "window {window}: staggered sessions never batched"
        );
        assert!(
            stats.widest_batch <= window,
            "window {window}: batch of {} overflowed the cap",
            stats.widest_batch
        );
    }
}

#[test]
fn sixteen_sessions_share_one_window_byte_identically() {
    let runtime = AsrRuntime::demo_with(
        RuntimeConfig::new()
            .lanes(1)
            .batch_scoring(BatchScoringConfig::new(8)),
    )
    .unwrap();
    // Sixteen sessions over the six scripts: several sessions speak the
    // *same* words, so a row routed to the wrong same-script session is
    // only caught by the cost bits — which the references pin.
    let audios: Vec<Utterance> = (0..16)
        .map(|i| runtime.render_words(SCRIPTS[i % SCRIPTS.len()]).unwrap())
        .collect();
    let expected: Vec<Outcome<String>> = audios.iter().map(|a| expected(&runtime, a)).collect();
    let batched = drive_staggered(&runtime, &audios, &SessionOptions::new(), 2);
    assert_transcripts(&batched, &expected, "16 sessions");
    let stats = runtime.stats().batch.expect("service configured");
    assert!(stats.widest_batch >= 4, "16 live sessions must batch wide");
    assert_eq!(stats.open_slots, 0);
}

#[test]
fn mlp_runtime_batches_byte_identically_across_windows() {
    // The realistic DNN compute shape: same differential, real matrix
    // math, where any cross-row reassociation in the block forward pass
    // would flip low-order bits immediately.
    let config = || {
        RuntimeConfig::new()
            .lanes(1)
            .decode_options(DecodeOptions::with_beam(1.0e9))
            .mlp_acoustic(&[48], 11)
    };
    let unbatched_rt = AsrRuntime::demo_with(config()).unwrap();
    for window in [2usize, 8] {
        let runtime =
            AsrRuntime::demo_with(config().batch_scoring(BatchScoringConfig::new(window))).unwrap();
        let audios: Vec<Utterance> = SCRIPTS[..4]
            .iter()
            .map(|w| runtime.render_words(w).unwrap())
            .collect();
        let expected: Vec<Outcome<String>> = audios.iter().map(|a| expected(&runtime, a)).collect();
        let batched = drive_staggered(&runtime, &audios, &SessionOptions::new(), 3);
        let unbatched = drive_staggered(&unbatched_rt, &audios, &SessionOptions::new(), 3);
        assert_transcripts(&batched, &expected, &format!("mlp window {window}"));
        assert_transcripts(&unbatched, &expected, &format!("mlp unbatched {window}"));
        assert!(runtime.stats().batch.unwrap().batches > 0);
    }
}

#[test]
fn concurrent_batched_sessions_from_threads_are_byte_identical() {
    // Multi-lane runtime, one OS thread per session: batch composition
    // is now racy and different every run — the transcripts must not be.
    let runtime = AsrRuntime::demo_with(
        RuntimeConfig::new()
            .lanes(2)
            .batch_scoring(BatchScoringConfig::new(8)),
    )
    .unwrap();
    let audios: Vec<Utterance> = SCRIPTS
        .iter()
        .map(|w| runtime.render_words(w).unwrap())
        .collect();
    let expected: Vec<Outcome<String>> = audios.iter().map(|a| expected(&runtime, a)).collect();
    for _ in 0..3 {
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (i, audio) in audios.iter().enumerate() {
                let runtime = &runtime;
                let expected = &expected[i];
                handles.push(scope.spawn(move || {
                    let mut session = runtime.open_session();
                    for packet in audio.samples.chunks(PACKET) {
                        session.push_samples(packet);
                    }
                    let t = Outcome::from(&session.finalize());
                    assert_same(&t, expected, &format!("threaded utterance {i}"));
                }));
            }
            for handle in handles {
                handle.join().expect("batched session thread");
            }
        });
    }
    assert_eq!(runtime.stats().batch.unwrap().open_slots, 0);
}

#[test]
fn partials_agree_with_unbatched_at_flush_sync_points() {
    let runtime = AsrRuntime::demo_with(
        RuntimeConfig::new()
            .lanes(1)
            .batch_scoring(BatchScoringConfig::new(8)),
    )
    .unwrap();
    let unbatched_rt = AsrRuntime::demo_with(RuntimeConfig::new().lanes(1)).unwrap();
    let a = runtime.render_words(&["play", "music"]).unwrap();
    let b = runtime.render_words(&["call", "mom"]).unwrap();

    // Two batched sessions sharing the window vs. two unbatched twins on
    // a runtime without the service, compared packet by packet.
    // `flush_scoring` is the sync point for every session: it forces the
    // batched pair to consume the frames their front-ends have completed
    // and the one-lane twins to score the frames they hold for their next
    // block, so all four trail their front-ends by exactly one row and
    // the partials must agree bit for bit.
    let mut ba = runtime.open_session();
    let mut bb = runtime.open_session();
    let mut ua = unbatched_rt.open_session();
    let mut ub = unbatched_rt.open_session();
    let mut ia = a.samples.chunks(PACKET);
    let mut ib = b.samples.chunks(PACKET);
    let mut compared = 0usize;
    loop {
        let pa = ia.next();
        let pb = ib.next();
        if pa.is_none() && pb.is_none() {
            break;
        }
        if let Some(p) = pa {
            ba.push_samples(p);
            ua.push_samples(p);
        }
        if let Some(p) = pb {
            bb.push_samples(p);
            ub.push_samples(p);
        }
        for session in [&mut ba, &mut bb, &mut ua, &mut ub] {
            session.flush_scoring();
        }
        for (batched, unbatched) in [(&ba, &ua), (&bb, &ub)] {
            match (batched.partial(), unbatched.partial()) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.words, y.words, "partial words at a sync point");
                    assert_eq!(x.cost.to_bits(), y.cost.to_bits(), "partial cost bits");
                    assert_eq!(x.frames_decoded, y.frames_decoded, "frames decoded");
                    compared += 1;
                }
                (x, y) => assert_eq!(x.is_none(), y.is_none(), "liveness diverged"),
            }
        }
    }
    assert!(compared > 20, "sync points barely exercised: {compared}");
    let ta = ba.finalize();
    let tb = bb.finalize();
    assert_eq!(ta.cost.to_bits(), ua.finalize().cost.to_bits());
    assert_eq!(tb.cost.to_bits(), ub.finalize().cost.to_bits());
    assert_eq!(ta.words, vec!["play", "music"]);
    assert_eq!(tb.words, vec!["call", "mom"]);
}

/// Shared fixture for the property sweep: one runtime (window 4, so the
/// interleavings constantly fill and flush it) plus per-lane audio and
/// unbatched references. Lane audios are all *distinct* word sequences:
/// a row misrouted between lanes always lands in a different utterance
/// and corrupts its transcript or cost bits.
struct PropFixture {
    runtime: AsrRuntime,
    audios: Vec<Utterance>,
    expected: Vec<Outcome<String>>,
}

fn prop_fixture() -> &'static PropFixture {
    static FIXTURE: OnceLock<PropFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let runtime = AsrRuntime::demo_with(
            RuntimeConfig::new()
                .lanes(1)
                .batch_scoring(BatchScoringConfig::new(4)),
        )
        .unwrap();
        let scripts: [&[&str]; 4] = [
            &["go", "stop"],
            &["lights", "on"],
            &["play", "music"],
            &["call", "mom"],
        ];
        let audios: Vec<Utterance> = scripts
            .iter()
            .map(|w| runtime.render_words(w).unwrap())
            .collect();
        let expected = audios.iter().map(|a| expected(&runtime, a)).collect();
        PropFixture {
            runtime,
            audios,
            expected,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Random interleavings of open/push/flush/finish/drop across four
    // lanes never drop, duplicate, or misroute a scored row, and a
    // mid-batch drop leaves the service healthy for everyone else.
    #[test]
    fn random_interleavings_never_misroute_rows(
        ops in prop::collection::vec((0usize..4, 0u8..10), 1..70),
    ) {
        let fx = prop_fixture();
        let mut sessions: Vec<Option<Session>> = (0..4).map(|_| None).collect();
        let mut cursors = vec![0usize; 4];
        let mut drops = 0u32;
        let mut finishes = 0u32;

        let finish = |lane: usize,
                      sessions: &mut Vec<Option<Session>>,
                      cursors: &mut Vec<usize>|
         -> Transcript {
            let mut session = sessions[lane].take().expect("caller checked");
            let samples = &fx.audios[lane].samples;
            if cursors[lane] < samples.len() {
                session.push_samples(&samples[cursors[lane]..]);
            }
            cursors[lane] = 0;
            session.finalize()
        };

        for (lane, op) in ops {
            match op {
                // Weighted toward pushes: the window only misbehaves
                // while rows are moving through it.
                0..=6 => {
                    let samples = &fx.audios[lane].samples;
                    if sessions[lane].is_none() {
                        cursors[lane] = 0;
                    }
                    let session = sessions[lane]
                        .get_or_insert_with(|| fx.runtime.open_session());
                    let lo = cursors[lane];
                    if lo >= samples.len() {
                        // Out of audio: finish instead.
                        let t = finish(lane, &mut sessions, &mut cursors);
                        assert_same(&Outcome::from(&t), &fx.expected[lane], &format!("lane {lane}"));
                        finishes += 1;
                        continue;
                    }
                    let hi = samples.len().min(lo + PACKET);
                    session.push_samples(&samples[lo..hi]);
                    cursors[lane] = hi;
                }
                7 => {
                    if let Some(session) = sessions[lane].as_mut() {
                        session.flush_scoring();
                    }
                }
                8 => {
                    if sessions[lane].is_some() {
                        let t = finish(lane, &mut sessions, &mut cursors);
                        assert_same(&Outcome::from(&t), &fx.expected[lane], &format!("lane {lane}"));
                        finishes += 1;
                    }
                }
                _ => {
                    // Drop mid-utterance — possibly with rows of this
                    // session still pending in the gather window.
                    if sessions[lane].take().is_some() {
                        drops += 1;
                        cursors[lane] = 0;
                    }
                }
            }
        }
        // Land every survivor: each must still decode its own words.
        for lane in 0..4 {
            if sessions[lane].is_some() {
                let t = finish(lane, &mut sessions, &mut cursors);
                assert_same(&Outcome::from(&t), &fx.expected[lane], &format!("lane {lane}"));
                finishes += 1;
            }
        }
        let _ = (drops, finishes);
        // The service is healthy after the storm: every slot freed, and
        // a fresh session scores correctly through the same window.
        let stats = fx.runtime.stats().batch.expect("service configured");
        prop_assert_eq!(stats.open_slots, 0);
        let mut probe = fx.runtime.open_session();
        probe.push_samples(&fx.audios[0].samples);
        assert_same(&Outcome::from(&probe.finalize()), &fx.expected[0], "after the storm");
    }
}
