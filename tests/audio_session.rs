//! Raw-audio streaming sessions: the facade acceptance contract.
//!
//! A session fed raw 16 kHz samples through
//! [`Session::push_samples`] must produce a transcript
//! byte-identical to the batch path (score the whole waveform, decode the
//! table) for every chunking of the stream — the facade end of the
//! online/batch equivalence pinned per-stage in
//! `crates/acoustic/tests/online_equivalence.rs`.
//!
//! [`Session::push_samples`]: asr_repro::runtime::Session::push_samples

use asr_repro::runtime::AsrRuntime;
use asr_testkit::{assert_same, Outcome};

#[test]
fn push_samples_transcripts_match_batch_recognize() {
    let runtime = AsrRuntime::demo().unwrap();
    for words in [vec!["go"], vec!["lights", "on"], vec!["play", "music"]] {
        let audio = runtime.render_words(&words).unwrap();
        let batch = Outcome::from(&runtime.recognize_scores(&runtime.score(&audio)));
        for chunk in [1usize, 160, 163, audio.samples.len()] {
            let mut session = runtime.open_session();
            for piece in audio.samples.chunks(chunk) {
                session.push_samples(piece);
            }
            let streamed = Outcome::from(&session.finalize());
            assert_same(&streamed, &batch, &format!("{words:?} chunk {chunk}"));
        }
    }
}

#[test]
fn recognize_runs_the_online_front_end() {
    // `recognize` is rebuilt on the online path; it must still match the
    // explicit batch pipeline bit-for-bit, and repeated calls must reuse
    // the pooled front-end rather than growing the pool.
    let runtime = AsrRuntime::demo().unwrap();
    let audio = runtime.render_words(&["call", "mom"]).unwrap();
    let batch = Outcome::from(&runtime.recognize_scores(&runtime.score(&audio)));
    for _ in 0..3 {
        assert_same(&Outcome::from(&runtime.recognize(&audio)), &batch, "online");
    }
    assert_eq!(
        runtime.scratch_pool().idle(),
        1,
        "sequential recognizes share one decode scratch"
    );
}

#[test]
fn audio_session_partials_evolve_and_lag_by_the_lookahead() {
    let runtime = AsrRuntime::demo().unwrap();
    let audio = runtime.render_words(&["play", "music"]).unwrap();
    let total_frames = audio.samples.len() / 160;
    let mut session = runtime.open_session();
    let (mut partials, mut hops) = (0, 0);
    for piece in audio.samples.chunks(160) {
        session.push_samples(piece);
        hops += 1;
        if let Some(p) = session.partial() {
            // One row held back in the session, two frames in the delta
            // lookahead: the search trails the pushed audio by <= 3 hops.
            assert!(p.frames_decoded + 3 >= hops);
            partials += 1;
        }
    }
    assert!(partials > 0, "partials surfaced mid-utterance");
    let last = session.partial().unwrap();
    assert!(
        last.frames_decoded + 3 >= total_frames,
        "front-end delivered all but the lookahead frames, the search all but one row"
    );
    let t = session.finalize();
    assert_eq!(t.words, vec!["play", "music"]);
}

#[test]
fn concurrent_audio_sessions_stay_independent() {
    let runtime = AsrRuntime::demo().unwrap();
    let commands: Vec<Vec<&str>> = vec![
        vec!["go"],
        vec!["stop"],
        vec!["lights", "off"],
        vec!["call", "mom"],
    ];
    let expected: Vec<_> = commands
        .iter()
        .map(|w| {
            let audio = runtime.render_words(w).unwrap();
            Outcome::from(&runtime.recognize_scores(&runtime.score(&audio)))
        })
        .collect();
    std::thread::scope(|scope| {
        for worker in 0..4usize {
            let runtime = &runtime;
            let commands = &commands;
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..commands.len() {
                    let i = (round + worker) % commands.len();
                    let audio = runtime.render_words(&commands[i]).unwrap();
                    let mut session = runtime.open_session();
                    for piece in audio.samples.chunks(331) {
                        session.push_samples(piece);
                    }
                    let t = Outcome::from(&session.finalize());
                    assert_same(&t, &expected[i], &format!("utterance {i}"));
                }
            });
        }
    });
}

#[test]
fn dropped_audio_session_returns_its_frontend() {
    let runtime = AsrRuntime::demo().unwrap();
    let audio = runtime.render_words(&["stop"]).unwrap();
    {
        let mut session = runtime.open_session();
        session.push_samples(&audio.samples[..800]);
        // Dropped mid-utterance: scratch and front-end both come home.
    }
    assert_eq!(runtime.scratch_pool().idle(), 1);
    // The recovered front-end serves the next request correctly (reset
    // clears the abandoned utterance's carried state).
    let t = runtime.recognize(&audio);
    assert_eq!(t.words, vec!["stop"]);
}
