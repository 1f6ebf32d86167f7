//! Serving-path integration tests: the pooled facade under concurrency.
//!
//! The acceptance claim of the persistent-pool serving pipeline is that
//! pooling never changes results: any number of concurrent sessions and
//! pooled `recognize` calls, from any threads, produce byte-identical
//! `words`/`cost` to a fresh sequential [`ViterbiDecoder`] run on the
//! same inputs.

use asr_repro::decoder::search::ViterbiDecoder;
use asr_repro::runtime::AsrRuntime;

/// The per-utterance ground truth, computed with a fresh sequential
/// decoder (no pool, no scratch reuse).
fn sequential_reference(p: &AsrRuntime, words: &[&str]) -> (Vec<String>, u32) {
    let audio = p.render_words(words).unwrap();
    let scores = p.score(&audio);
    let result = ViterbiDecoder::new(p.options().clone()).decode(p.graph(), &scores);
    (p.lexicon().transcript(&result.words), result.cost.to_bits())
}

#[test]
fn concurrent_sessions_match_sequential_decoder() {
    let runtime = AsrRuntime::demo().unwrap();
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

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for worker in 0..4usize {
            let runtime = &runtime;
            let utterances = &utterances;
            let expected = &expected;
            handles.push(scope.spawn(move || {
                // Each worker streams every utterance, rotated so the
                // workers are decoding different words at the same time.
                for round in 0..utterances.len() {
                    let i = (round + worker) % utterances.len();
                    let audio = runtime.render_words(&utterances[i]).unwrap();
                    let scores = runtime.score(&audio);
                    let mut session = runtime.open_session();
                    session.push_frames(&scores);
                    let transcript = session.finalize();
                    assert_eq!(transcript.words, expected[i].0, "utterance {i}");
                    assert_eq!(transcript.cost.to_bits(), expected[i].1, "utterance {i}");
                }
            }));
        }
        for handle in handles {
            handle.join().expect("serving worker");
        }
    });

    // Every checked-out scratch came home; the pool's high-water mark is
    // bounded by the peak concurrency, not the request count.
    let idle = runtime.scratch_pool().idle();
    assert!(
        (1..=4).contains(&idle),
        "pool holds {idle} scratches after 4 workers x 6 requests"
    );
}

#[test]
fn concurrent_pooled_recognize_matches_sequential_decoder() {
    let runtime = AsrRuntime::demo().unwrap();
    let words = ["play", "music"];
    let (expected_words, expected_cost) = sequential_reference(&runtime, &words);
    let audio = runtime.render_words(&words).unwrap();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..4 {
            let runtime = &runtime;
            let audio = &audio;
            let expected_words = &expected_words;
            handles.push(scope.spawn(move || {
                for _ in 0..5 {
                    let t = runtime.recognize(audio);
                    assert_eq!(t.words, *expected_words);
                    assert_eq!(t.cost.to_bits(), expected_cost);
                }
            }));
        }
        for handle in handles {
            handle.join().expect("recognize worker");
        }
    });
}

#[test]
fn interleaved_sessions_stay_independent() {
    // Two sessions advanced in lock-step on one thread must not bleed
    // state into each other (they hold distinct pooled scratches).
    let runtime = AsrRuntime::demo().unwrap();
    let (words_a, words_b) = (["lights", "on"], ["call", "mom"]);
    let scores_a = runtime.score(&runtime.render_words(&words_a).unwrap());
    let scores_b = runtime.score(&runtime.render_words(&words_b).unwrap());
    let batch_a = runtime.recognize_scores(&scores_a);
    let batch_b = runtime.recognize_scores(&scores_b);

    let mut session_a = runtime.open_session();
    let mut session_b = runtime.open_session();
    let frames = scores_a.num_frames().max(scores_b.num_frames());
    for f in 0..frames {
        if f < scores_a.num_frames() {
            session_a.push_row(scores_a.frame_row(f));
        }
        if f < scores_b.num_frames() {
            session_b.push_row(scores_b.frame_row(f));
        }
    }
    let got_a = session_a.finalize();
    let got_b = session_b.finalize();
    assert_eq!(got_a, batch_a);
    assert_eq!(got_b, batch_b);
    assert_eq!(runtime.scratch_pool().idle(), 2);
}
