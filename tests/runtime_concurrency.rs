//! Shared-runtime concurrency tests: the acceptance surface of the
//! `AsrRuntime` redesign.
//!
//! The claims under test:
//!
//! 1. [`Session`] is owned, `Send + 'static` — it can be spawned into
//!    plain (non-scoped) threads and migrate between threads
//!    mid-utterance.
//! 2. Eight — and sixteen, and thirty-two — concurrent sessions on
//!    **one** runtime — one scratch pool, one lock-free work-stealing
//!    executor — produce transcripts byte-identical to a fresh
//!    sequential [`ViterbiDecoder`] on the same inputs, across
//!    raw-audio, pre-scored, single-row overlapped, and multi-row
//!    overlapped sessions, for any lane count and steal schedule.
//! 3. The shared pools stay bounded: the scratch pool's high-water mark
//!    tracks peak concurrency, and once warm the cold-checkout counter
//!    stops moving.
//!
//! [`Session`]: asr_repro::runtime::Session
//! [`ViterbiDecoder`]: asr_repro::decoder::search::ViterbiDecoder

use asr_repro::decoder::search::ViterbiDecoder;
use asr_repro::runtime::{AsrRuntime, RuntimeConfig, Session, SessionOptions};

fn assert_send_static<T: Send + 'static>() {}

/// The per-utterance ground truth, computed with a fresh sequential
/// decoder (no pool, no scratch reuse, no executor).
fn sequential_reference(runtime: &AsrRuntime, words: &[&str]) -> (Vec<String>, u32) {
    let audio = runtime.render_words(words).unwrap();
    let scores = runtime.score(&audio);
    let result = ViterbiDecoder::new(runtime.options().clone()).decode(runtime.graph(), &scores);
    (
        runtime.lexicon().transcript(&result.words),
        result.cost.to_bits(),
    )
}

#[test]
fn session_is_send_and_static() {
    assert_send_static::<Session>();
    assert_send_static::<AsrRuntime>();
}

#[test]
fn eight_concurrent_sessions_on_one_pool_are_byte_identical() {
    // Three executor lanes so the shared pool is real even on a 1-core
    // machine; eight session threads all share it.
    let runtime = AsrRuntime::demo_with(RuntimeConfig::new().lanes(3)).unwrap();
    let utterances: Vec<Vec<&str>> = vec![
        vec!["go"],
        vec!["stop"],
        vec!["lights", "on"],
        vec!["lights", "off"],
        vec!["play", "music"],
        vec!["call", "mom"],
    ];
    let expected: Vec<(Vec<String>, u32)> = utterances
        .iter()
        .map(|w| sequential_reference(&runtime, w))
        .collect();

    let mut handles = Vec::new();
    for worker in 0..8usize {
        // Plain `thread::spawn`, not scoped: the runtime handle and the
        // sessions it opens are owned and 'static.
        let runtime = runtime.clone();
        let utterances = utterances.clone();
        let expected = expected.clone();
        handles.push(std::thread::spawn(move || {
            for round in 0..utterances.len() {
                let i = (round + worker) % utterances.len();
                let audio = runtime.render_words(&utterances[i]).unwrap();
                let transcript = if worker % 2 == 0 {
                    // Raw-audio session (overlapped scoring on the
                    // shared executor), mic-style packets.
                    let mut session = runtime.open_session();
                    for packet in audio.samples.chunks(160) {
                        session.push_samples(packet);
                    }
                    session.finalize()
                } else {
                    // Pre-scored rows through the same pool.
                    let scores = runtime.score(&audio);
                    let mut session = runtime.open_session();
                    session.push_frames(&scores);
                    session.finalize()
                };
                assert_eq!(transcript.words, expected[i].0, "utterance {i}");
                assert_eq!(transcript.cost.to_bits(), expected[i].1, "utterance {i}");
            }
        }));
    }
    for handle in handles {
        handle.join().expect("session worker");
    }

    // Every checked-out scratch came home; the pool's high-water mark is
    // bounded by the peak concurrency, not the request count.
    let idle = runtime.scratch_pool().idle();
    assert!(
        (1..=8).contains(&idle),
        "pool holds {idle} scratches after 8 workers x 6 requests"
    );
    let stats = runtime.scratch_pool().stats();
    assert_eq!(stats.restores, 8 * 6, "every session restored its scratch");
    assert!(
        stats.cold_checkouts <= 8,
        "cold checkouts ({}) bounded by peak concurrency",
        stats.cold_checkouts
    );
    assert_eq!(stats.checkouts(), 8 * 6);
}

#[test]
fn sixteen_and_thirty_two_concurrent_sessions_are_byte_identical() {
    let runtime = AsrRuntime::demo_with(RuntimeConfig::new().lanes(3)).unwrap();
    let utterances: Vec<Vec<&str>> = vec![
        vec!["go"],
        vec!["stop"],
        vec!["lights", "on"],
        vec!["call", "mom"],
    ];
    let expected: Vec<(Vec<String>, u32)> = utterances
        .iter()
        .map(|w| sequential_reference(&runtime, w))
        .collect();
    let audio: Vec<_> = utterances
        .iter()
        .map(|w| runtime.render_words(w).unwrap())
        .collect();
    let scored: Vec<_> = audio.iter().map(|a| runtime.score(a)).collect();

    let mut total = 0;
    for sessions in [16usize, 32] {
        total += sessions;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for worker in 0..sessions {
                let runtime = &runtime;
                let audio = &audio;
                let scored = &scored;
                let expected = &expected;
                handles.push(scope.spawn(move || {
                    let i = worker % audio.len();
                    let transcript = match worker % 3 {
                        0 => {
                            // Multi-row ALB batches, varied depth and
                            // packet size per worker.
                            let depth = 2 + worker % 3;
                            let mut session = runtime
                                .open_session_with(SessionOptions::new().overlap_depth(depth));
                            for packet in audio[i].samples.chunks(160 + 37 * (worker % 5)) {
                                session.push_samples(packet);
                            }
                            session.finalize()
                        }
                        1 => {
                            // Classic single-row overlap.
                            let mut session = runtime.open_session();
                            session.push_samples(&audio[i].samples);
                            session.finalize()
                        }
                        _ => {
                            // Pre-scored rows through the same pool.
                            let mut session = runtime.open_session();
                            session.push_frames(&scored[i]);
                            session.finalize()
                        }
                    };
                    assert_eq!(transcript.words, expected[i].0, "worker {worker}");
                    assert_eq!(transcript.cost.to_bits(), expected[i].1, "worker {worker}");
                }));
            }
            for handle in handles {
                handle.join().expect("session worker");
            }
        });
    }
    let stats = runtime.scratch_pool().stats();
    assert_eq!(
        stats.checkouts(),
        stats.restores,
        "every scratch came home across {total} sessions"
    );
}

#[test]
fn seeded_lane_depth_matrix_pins_determinism_of_the_lock_free_deques() {
    // A seeded LCG drives a (lanes × overlap_depth × chunking) matrix —
    // proptest-style coverage of arbitrary steal schedules without a new
    // dependency. Any failure reproduces exactly from the fixed seed.
    let mut state = 0x0005_DEEC_E66D_u64;
    let mut next = move |bound: usize| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 33) as usize) % bound
    };
    for lanes in [2usize, 3] {
        let runtime = AsrRuntime::demo_with(RuntimeConfig::new().lanes(lanes)).unwrap();
        let words = ["play", "music"];
        let expected = sequential_reference(&runtime, &words);
        let audio = runtime.render_words(&words).unwrap();
        for _ in 0..4 {
            let depth = 1 + next(6);
            let chunk = 120 + next(600);
            let mut session = runtime.open_session_with(SessionOptions::new().overlap_depth(depth));
            for packet in audio.samples.chunks(chunk) {
                session.push_samples(packet);
            }
            let t = session.finalize();
            assert_eq!(
                t.words, expected.0,
                "lanes {lanes} depth {depth} chunk {chunk}"
            );
            assert_eq!(
                t.cost.to_bits(),
                expected.1,
                "lanes {lanes} depth {depth} chunk {chunk}"
            );
        }
    }
}

#[test]
fn sessions_migrate_between_threads_mid_utterance() {
    let runtime = AsrRuntime::demo_with(RuntimeConfig::new().lanes(2)).unwrap();
    let words = ["play", "music"];
    let expected = sequential_reference(&runtime, &words);
    let audio = runtime.render_words(&words).unwrap();

    // Open and start the session here...
    let mut session = runtime.open_session();
    let (head, tail) = audio.samples.split_at(audio.samples.len() / 2);
    session.push_samples(head);
    let partial_before = session.partial().expect("live mid-utterance");

    // ...then hand the owned session to a fresh thread to finish.
    let tail = tail.to_vec();
    let transcript = std::thread::spawn(move || {
        session.push_samples(&tail);
        session.finalize()
    })
    .join()
    .expect("migrated session thread");

    assert!(partial_before.frames_decoded > 0);
    assert_eq!(transcript.words, expected.0);
    assert_eq!(transcript.cost.to_bits(), expected.1);
}

#[test]
fn overlapped_sessions_match_inline_sessions_under_concurrency() {
    let overlapped = AsrRuntime::demo_with(RuntimeConfig::new().lanes(4)).unwrap();
    let inline = AsrRuntime::demo_with(RuntimeConfig::new().lanes(1)).unwrap();
    let words = ["call", "mom"];
    let expected = sequential_reference(&overlapped, &words);
    let audio = overlapped.render_words(&words).unwrap();

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for runtime in [
            &overlapped,
            &inline,
            &overlapped,
            &inline,
            &overlapped,
            &inline,
        ] {
            let audio = &audio;
            let expected = &expected;
            handles.push(scope.spawn(move || {
                let lanes = runtime.lanes();
                for _ in 0..3 {
                    let mut session = runtime.open_session();
                    for packet in audio.samples.chunks(160) {
                        session.push_samples(packet);
                    }
                    let t = session.finalize();
                    assert_eq!(t.words, expected.0, "lanes={lanes}");
                    assert_eq!(t.cost.to_bits(), expected.1, "lanes={lanes}");
                }
            }));
        }
        for handle in handles {
            handle.join().expect("overlap worker");
        }
    });
}

#[test]
fn an_admission_limit_changes_no_transcript() {
    let plain = AsrRuntime::demo_with(RuntimeConfig::new().lanes(2)).unwrap();
    let limited = AsrRuntime::demo_with(RuntimeConfig::new().lanes(2).max_sessions(8)).unwrap();
    for words in [vec!["go"], vec!["play", "music"], vec!["call", "mom"]] {
        let audio = plain.render_words(&words).unwrap();
        let scores = plain.score(&audio);

        let mut baseline = plain.open_session();
        baseline.push_frames(&scores);
        let baseline = baseline.finalize();

        // Admission decides whether a session runs, never how: the same
        // bytes as an unlimited runtime, over both entry points.
        let mut admitted = limited.open_session();
        admitted.push_frames(&scores);
        let admitted = admitted.finalize();
        assert_eq!(admitted.words, baseline.words);
        assert_eq!(admitted.cost.to_bits(), baseline.cost.to_bits());

        let mut sampled = limited
            .try_open_session_with(SessionOptions::new())
            .expect("below the admission limit");
        for packet in audio.samples.chunks(160) {
            sampled.push_samples(packet);
        }
        let sampled = sampled.finalize();
        assert_eq!(sampled.words, baseline.words);
        assert_eq!(sampled.cost.to_bits(), baseline.cost.to_bits());
    }
}

#[test]
fn warm_runtime_stops_paying_cold_checkouts() {
    let runtime = AsrRuntime::demo().unwrap();
    let audio = runtime.render_words(&["go"]).unwrap();
    for _ in 0..3 {
        runtime.recognize(&audio);
    }
    let warm_point = runtime.scratch_pool().stats();
    for _ in 0..5 {
        runtime.recognize(&audio);
    }
    let after = runtime.scratch_pool().stats();
    assert_eq!(
        after.cold_checkouts, warm_point.cold_checkouts,
        "a warmed serving loop allocates no new scratches"
    );
    assert_eq!(after.warm_checkouts, warm_point.warm_checkouts + 5);
    assert_eq!(after.restores, warm_point.restores + 5);
}
