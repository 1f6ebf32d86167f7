//! The serving layer's unit tests, all through the public API (save
//! crate-private looks at whether the acoustic model has been built, at
//! the pooled front-ends and at the session's block height), grouped by
//! the module they exercise. They stay in one flat `runtime::tests`
//! module (rather than a `tests` module inside each file) so their
//! names — which the tier-1 floor lists one by one — do not change
//! with the split.

use super::session::SCORE_BLOCK;
use super::*;
use asr_acoustic::online::OnlineMfcc;
use asr_testkit::{assert_same, Case, Fixture, Outcome};
use asr_wfst::sorted::SortedWfst;
use asr_wfst::store::{self, GraphImage};

// ---- `mod`: the handle, its configuration and pools, the one-shot entry points ----

fn assert_send_static<T: Send + 'static>() {}

#[test]
fn session_and_runtime_are_send_and_static() {
    assert_send_static::<Session>();
    assert_send_static::<AsrRuntime>();
}

#[test]
fn repeated_recognize_reuses_pooled_scratch() {
    let runtime = AsrRuntime::demo().unwrap();
    let audio = runtime.render_words(&["go"]).unwrap();
    assert_eq!(runtime.scratch_pool().idle(), 0);
    let first = runtime.recognize(&audio);
    assert_eq!(
        runtime.scratch_pool().idle(),
        1,
        "scratch returned to the pool"
    );
    for _ in 0..3 {
        assert_eq!(runtime.recognize(&audio), first);
    }
    assert_eq!(
        runtime.scratch_pool().idle(),
        1,
        "sequential decodes share one scratch"
    );
    let stats = runtime.scratch_pool().stats();
    assert_eq!(stats.cold_checkouts, 1, "only the first checkout was cold");
    assert_eq!(stats.warm_checkouts, 3);
}

#[test]
fn unknown_word_is_reported() {
    let runtime = AsrRuntime::demo().unwrap();
    let err = runtime.render_words(&["xylophone"]).unwrap_err();
    assert_eq!(err, PipelineError::UnknownWord("xylophone".into()));
    assert!(err.to_string().contains("xylophone"));
}

#[test]
fn wer_detects_errors() {
    let runtime = AsrRuntime::demo().unwrap();
    let t = Transcript {
        words: vec!["go".into(), "home".into()],
        cost: 0.0,
        reached_final: true,
    };
    assert_eq!(runtime.wer(&["go", "home"], &t), 0.0);
    assert!(runtime.wer(&["stop"], &t) > 0.0);
}

#[test]
fn runtime_clones_share_the_pools() {
    let a = AsrRuntime::demo().unwrap();
    let b = a.clone();
    let audio = a.render_words(&["go"]).unwrap();
    let t = a.recognize(&audio);
    assert_eq!(t.words, vec!["go"]);
    assert_eq!(
        b.scratch_pool().stats().cold_checkouts,
        1,
        "clone observes the same scratch pool"
    );
    let t2 = b.recognize(&audio);
    assert_eq!(t2, t);
    assert_eq!(
        b.scratch_pool().stats().cold_checkouts,
        1,
        "second recognize rode the warmed scratch"
    );
}

#[test]
fn one_lane_runtime_has_no_executor() {
    let runtime = AsrRuntime::demo_with(RuntimeConfig::new().lanes(1)).unwrap();
    assert!(runtime.inner.executor().is_none());
    let audio = runtime.render_words(&["stop"]).unwrap();
    assert_eq!(runtime.recognize(&audio).words, vec!["stop"]);
}

#[test]
fn config_builder_is_applied() {
    let runtime = AsrRuntime::demo_with(
        RuntimeConfig::new()
            .lanes(3)
            .decode_options(DecodeOptions::with_beam(12.0)),
    )
    .unwrap();
    assert_eq!(runtime.lanes(), 3);
    assert_eq!(runtime.options().beam, 12.0);
    let audio = runtime.render_words(&["go"]).unwrap();
    let t = runtime.recognize(&audio);
    assert_eq!(t.words, vec!["go"]);
}

/// A runtime over `case`'s synthetic graph at `case`'s options, with a
/// lexicon that spells every word id apart (`w{id}`).
fn synth_runtime(case: &Case, lanes: usize) -> AsrRuntime {
    let config = RuntimeConfig::new()
        .lanes(lanes)
        .decode_options(case.opts.clone());
    let lexicon = asr_testkit::naming_lexicon(case.wfst.num_words() as usize);
    AsrRuntime::with_graph((*case.wfst).clone(), lexicon, config)
}

/// A transcript in the terms of the oracle's outcome. (`asr_testkit`'s
/// own conversion names its copy of this crate's `Transcript`.)
fn heard(t: &Transcript) -> Outcome<String> {
    Outcome {
        words: t.words.clone(),
        cost: t.cost,
        reached_final: t.reached_final,
        best_state: None,
    }
}

#[test]
fn recognize_scores_is_a_session_at_every_size_and_width() {
    let case = &Fixture::RuntimeSynth.cases()[0];
    for lanes in [1usize, 2] {
        let runtime = synth_runtime(case, lanes);
        let want = Outcome::from(case.oracle()).spelled(runtime.lexicon());
        let got = runtime.recognize_scores(&case.scores);
        assert_same(&heard(&got), &want, &format!("lanes {lanes}"));
        let stats = runtime.stats();
        assert!(
            stats.executor.is_none(),
            "lanes {lanes}: a pre-scored decode has nothing to fork"
        );
        assert_eq!(stats.active_sessions, 0, "lanes {lanes}");
        assert_eq!(stats.peak_sessions, 1, "lanes {lanes}");
    }
}

#[test]
fn only_the_first_audio_push_spawns_the_executor() {
    let runtime = demo_lanes(2);
    let audio = runtime.render_words(&["lights", "on"]).unwrap();
    let scores = runtime.score(&audio);
    let mut rows = runtime.open_session();
    for frame in 0..scores.num_frames() {
        rows.push_row(scores.frame_row(frame));
        assert!(runtime.stats().executor.is_none(), "frame {frame}");
    }
    assert_eq!(rows.finalize().words, vec!["lights", "on"]);
    assert!(
        runtime.stats().executor.is_none(),
        "a row-fed session has nothing to fork"
    );
    let mut session = runtime.open_session();
    assert!(
        runtime.stats().executor.is_none(),
        "opening takes no handle"
    );
    session.push_samples(&audio.samples[..160]);
    assert!(
        runtime.stats().executor.is_some(),
        "the first audio push takes the handle"
    );
    session.push_samples(&audio.samples[160..]);
    assert_eq!(session.finalize().words, vec!["lights", "on"]);
}

#[test]
fn recognize_scores_panics_at_the_call_on_a_narrow_table_and_frees_its_slot() {
    let case = &Fixture::RuntimeSynth.cases()[1];
    let runtime = synth_runtime(case, 2);
    let scores = asr_testkit::rows(&case.wfst, 5, 17);
    let narrow = AcousticTable::from_fn(5, scores.num_phones() - 1, |_, _| 1.0);
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        runtime.recognize_scores(&narrow)
    }))
    .expect_err("a table one column short must be rejected");
    let message = panic
        .downcast_ref::<String>()
        .expect("assert! panics with a formatted message");
    assert!(message.starts_with("push_row:"), "{message}");
    assert_eq!(runtime.stats().active_sessions, 0, "the slot was freed");
    // The runtime still serves.
    assert!(runtime.recognize_scores(&scores).cost.is_finite());
}

/// Whether `runtime`'s acoustic scorer has been built yet.
fn scorer_built(runtime: &AsrRuntime) -> bool {
    runtime.inner.model.scorer.get().is_some()
}

#[test]
fn row_fed_runtime_decodes_like_the_search_and_never_builds_a_scorer() {
    // A phone range the demo lexicon covers, so the registry admits it.
    let case = &Fixture::DemoPhones.cases()[0];
    let lexicon = demo_lexicon();
    let want = Outcome::from(case.oracle()).spelled(&lexicon);
    for config in [
        RuntimeConfig::new(),
        RuntimeConfig::new().mlp_acoustic(&[16], 3),
        RuntimeConfig::new().batch_scoring(BatchScoringConfig::new(4)),
    ] {
        let runtime = AsrRuntime::with_graph(
            (*case.wfst).clone(),
            lexicon.clone(),
            config.decode_options(case.opts.clone()),
        );
        let sorted = SortedWfst::new(&case.wfst).unwrap();
        let image = GraphImage::from_bytes(&store::to_bytes(&sorted)).unwrap();
        runtime.register_model_image("second", image).unwrap();
        let one_shot = runtime.recognize_scores(&case.scores);
        let mut session = runtime.open_session_with(SessionOptions::new().model("second"));
        for frame in 0..case.scores.num_frames() {
            session.push_row(case.scores.frame_row(frame));
        }
        let streamed = session.finalize();
        assert_same(&heard(&one_shot), &want, "recognize_scores");
        assert_same(&heard(&streamed), &want, "row-fed session");
        assert!(
            !scorer_built(&runtime),
            "construction, registration and row-fed sessions build no scorer"
        );
    }
}

#[test]
fn concurrent_first_audio_sessions_share_one_lazily_built_scorer() {
    use asr_acoustic::template::TemplateScorer;
    let runtime = AsrRuntime::demo_with(RuntimeConfig::new().lanes(2)).unwrap();
    assert!(!scorer_built(&runtime));
    let phrases = [
        vec!["call", "mom"],
        vec!["lights", "on"],
        vec!["go"],
        vec!["play", "music"],
    ];
    let audio: Vec<_> = (phrases.iter())
        .map(|words| runtime.render_words(words).unwrap())
        .collect();
    let barrier = std::sync::Barrier::new(audio.len());
    let transcripts: Vec<Transcript> = std::thread::scope(|scope| {
        let handles: Vec<_> = (audio.iter())
            .map(|utterance| {
                let (runtime, barrier) = (runtime.clone(), &barrier);
                scope.spawn(move || {
                    let mut session = runtime.open_session();
                    barrier.wait();
                    for packet in utterance.samples.chunks(160) {
                        session.push_samples(packet);
                    }
                    session.finalize()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(scorer_built(&runtime));
    // The runtime-free oracle: the same template model, built by hand,
    // scoring each whole waveform for the reference decoder.
    let scorer = TemplateScorer::with_default_signal(runtime.lexicon().num_phones() as u32);
    for ((words, utterance), got) in phrases.iter().zip(&audio).zip(&transcripts) {
        let scores = scorer.score_waveform(&utterance.samples);
        let expected = asr_testkit::oracle(runtime.graph(), &scores, runtime.options());
        let want = Outcome::from(&expected).spelled(runtime.lexicon());
        assert_same(&heard(got), &want, &format!("{words:?}"));
        assert_eq!(&got.words, words);
    }
}

// ---- `session`: the frame loop, its row sources and the overlap ----

#[test]
fn session_matches_batch_recognize() {
    let runtime = AsrRuntime::demo().unwrap();
    for words in [vec!["go"], vec!["lights", "on"], vec!["call", "mom"]] {
        let audio = runtime.render_words(&words).unwrap();
        let scores = runtime.score(&audio);
        let batch = runtime.recognize_scores(&scores);
        let mut session = runtime.open_session();
        session.push_frames(&scores);
        let streamed = session.finalize();
        assert_same(&heard(&streamed), &heard(&batch), &format!("{words:?}"));
    }
}

#[test]
fn session_partials_evolve_toward_the_transcript() {
    let runtime = AsrRuntime::demo().unwrap();
    let audio = runtime.render_words(&["play", "music"]).unwrap();
    let scores = runtime.score(&audio);
    let mut session = runtime.open_session();
    let opening = session.partial().expect("start closure is live");
    assert_eq!(opening.frames_decoded, 0);
    assert!(opening.words.is_empty(), "nothing recognized before audio");
    let mut partials = 0;
    for frame in 0..scores.num_frames() {
        session.push_row(scores.frame_row(frame));
        if let Some(h) = session.partial() {
            assert_eq!(h.frames_decoded, frame, "search runs one row behind");
            partials += 1;
        }
    }
    assert!(partials > 0, "partials became available mid-utterance");
    let t = session.finalize();
    assert_eq!(t.words, vec!["play", "music"]);
}

#[test]
fn dropped_session_returns_its_scratch() {
    let runtime = AsrRuntime::demo().unwrap();
    let audio = runtime.render_words(&["stop"]).unwrap();
    let scores = runtime.score(&audio);
    {
        let mut session = runtime.open_session();
        session.push_frames(&scores);
        // Dropped without finalize (caller went away mid-utterance).
    }
    assert_eq!(runtime.scratch_pool().idle(), 1);
    // The recovered scratch serves the next request.
    let t = runtime.recognize(&audio);
    assert_eq!(t.words, vec!["stop"]);
    assert_eq!(runtime.scratch_pool().idle(), 1);
}

#[test]
fn empty_session_finalizes_gracefully() {
    let runtime = AsrRuntime::demo().unwrap();
    let t = runtime.open_session().finalize();
    assert!(t.words.is_empty());
    // Identical to a batch decode of zero frames.
    let empty = AcousticTable::from_fn(0, runtime.lexicon().num_phones() + 1, |_, _| 0.0);
    let batch = runtime.recognize_scores(&empty);
    assert_eq!(t, batch);
}

/// The demo runtime at `lanes`: one lane scores inline, two overlap.
fn demo_lanes(lanes: usize) -> AsrRuntime {
    AsrRuntime::demo_with(RuntimeConfig::new().lanes(lanes)).unwrap()
}

#[test]
fn overlapped_and_inline_scoring_are_byte_identical() {
    let (runtime, one_lane) = (demo_lanes(2), demo_lanes(1));
    assert!(runtime.inner.executor().is_some());
    let audio = runtime.render_words(&["lights", "on"]).unwrap();
    let run = |runtime: &AsrRuntime| {
        let mut session = runtime.open_session();
        for packet in audio.samples.chunks(160) {
            session.push_samples(packet);
        }
        session.finalize()
    };
    let overlapped = run(&runtime);
    let inline = run(&one_lane);
    assert_same(&heard(&overlapped), &heard(&inline), "overlapped vs inline");
    // ... and both match the batch path.
    let batch = runtime.recognize_scores(&runtime.score(&audio));
    assert_same(&heard(&overlapped), &heard(&batch), "overlapped vs batch");
}

#[test]
fn multi_row_overlap_is_byte_identical_to_inline_for_every_packet_size() {
    // Packets that complete several frames per push: the overlap still
    // scores one frame per fork-join, and the rows reach the search in
    // the order one lane's blocks put them there.
    let runtime = demo_lanes(2);
    let audio = runtime.render_words(&["play", "music"]).unwrap();
    let inline = {
        let mut session = demo_lanes(1).open_session();
        for packet in audio.samples.chunks(160) {
            session.push_samples(packet);
        }
        session.finalize()
    };
    for chunk in [517usize, 1_600, audio.samples.len()] {
        let mut session = runtime.open_session();
        for packet in audio.samples.chunks(chunk) {
            session.push_samples(packet);
        }
        let what = format!("packets of {chunk}");
        assert_same(&heard(&session.finalize()), &heard(&inline), &what);
    }
}

#[test]
fn multi_row_session_migrates_a_pushed_row_into_the_queue() {
    // A row pushed before the first audio push sits in the same
    // queue the overlapped audio rows enter behind it, so it must
    // still be searched first, in order, however many frames a push
    // completes.
    let (runtime, one_lane) = (demo_lanes(2), demo_lanes(1));
    let audio = runtime.render_words(&["go"]).unwrap();
    let scores = runtime.score(&audio);
    let run = |runtime: &AsrRuntime, chunk: usize| {
        let mut session = runtime.open_session();
        session.push_row(scores.frame_row(0));
        for packet in audio.samples.chunks(chunk) {
            session.push_samples(packet);
        }
        session.finalize()
    };
    let inline = run(&one_lane, 160);
    for chunk in [517usize, 1_600, audio.samples.len()] {
        let overlapped = run(&runtime, chunk);
        let what = format!("packets of {chunk}");
        assert_same(&heard(&overlapped), &heard(&inline), &what);
    }
}

/// A one-lane runtime with a small MLP and a beam that never prunes:
/// its audio sessions score on their own thread, in blocks of
/// [`SCORE_BLOCK`] frames.
fn one_lane_mlp() -> AsrRuntime {
    AsrRuntime::demo_with(
        RuntimeConfig::new()
            .lanes(1)
            .decode_options(DecodeOptions::with_beam(1.0e9))
            .mlp_acoustic(&[32], 7),
    )
    .unwrap()
}

/// The oracle's transcript of `audio` on `runtime`: the reference
/// decoder over the rows the whole waveform scores to.
fn oracle_heard(runtime: &AsrRuntime, audio: &Utterance) -> Outcome<String> {
    let result = asr_testkit::oracle(runtime.graph(), &runtime.score(audio), runtime.options());
    Outcome::from(&result).spelled(runtime.lexicon())
}

/// Feature frames a session's front-end has completed after `samples`.
fn completed_frames(samples: &[f32]) -> usize {
    let mut mfcc = OnlineMfcc::new(MfccConfig::default());
    mfcc.push_samples(samples);
    mfcc.ready_frames()
}

#[test]
fn a_one_lane_session_searches_a_block_of_frames_at_a_time() {
    assert_eq!(SCORE_BLOCK, 8);
    let runtime = one_lane_mlp();
    let audio = runtime
        .render_words(&["play", "music", "lights", "on"])
        .unwrap();
    let mut session = runtime.open_session();
    // A front-end beside the session's counts the frames it completes.
    let mut shadow = OnlineMfcc::new(MfccConfig::default());
    // Frames completed at the last sync point: the search then trails
    // them by one row, and each block of eight more moves it by eight.
    let (mut synced, mut flushes, mut moves, mut last) = (0, 0, 0, 0);
    for piece in audio.samples.chunks(160) {
        session.push_samples(piece);
        shadow.push_samples(piece);
        let completed = shadow.ready_frames();
        if last > 0 {
            assert_eq!(completed, last + 1, "one hop completes one frame");
        }
        last = completed;
        let decoded = session.partial().unwrap().frames_decoded;
        let blocks = (completed - synced) / SCORE_BLOCK * SCORE_BLOCK;
        let want = (synced + blocks).saturating_sub(1);
        assert_eq!(decoded, want, "{completed} frames completed");
        moves += usize::from(decoded > 0 && (completed - synced).is_multiple_of(SCORE_BLOCK));
        // Mid-block, after two blocks: the sync point scores the five
        // waiting frames as one shorter block.
        if completed - synced == 2 * SCORE_BLOCK + 5 {
            session.flush_scoring();
            let decoded = session.partial().unwrap().frames_decoded;
            assert_eq!(decoded, completed - 1, "a sync point leaves one row");
            (synced, flushes) = (completed, flushes + 1);
        }
    }
    assert!(
        flushes >= 1 && moves >= 4,
        "{flushes} flushes, {moves} block moves"
    );
    let got = heard(&session.finalize());
    assert_same(&got, &oracle_heard(&runtime, &audio), "blocked session");
}

#[test]
fn one_lane_blocks_decode_like_the_oracle_at_every_block_edge() {
    let runtime = one_lane_mlp();
    let audio = runtime
        .render_words(&["call", "mom", "play", "music"])
        .unwrap();
    for frames in [3 * SCORE_BLOCK, 3 * SCORE_BLOCK + 1, 3 * SCORE_BLOCK + 7] {
        let cut = Utterance {
            samples: audio.samples[..frames * 160].to_vec(),
            frame_phones: Vec::new(),
        };
        assert_eq!(runtime.score(&cut).num_frames(), frames);
        let want = oracle_heard(&runtime, &cut);
        for packet in [1, 160, 517, cut.samples.len()] {
            let mut session = runtime.open_session();
            for piece in cut.samples.chunks(packet) {
                session.push_samples(piece);
            }
            let what = format!("{frames} frames in packets of {packet}");
            assert_same(&heard(&session.finalize()), &want, &what);
        }
    }
}

#[test]
fn a_session_dropped_mid_block_leaves_its_pooled_front_end_clean() {
    let runtime = one_lane_mlp();
    let doomed = runtime.render_words(&["lights", "off"]).unwrap();
    let audio = runtime.render_words(&["call", "mom"]).unwrap();
    {
        let mut session = runtime.open_session();
        let held = &doomed.samples[..(SCORE_BLOCK + 5) * 160];
        session.push_samples(held);
        let decoded = session.partial().unwrap().frames_decoded;
        assert!(
            decoded + 1 < completed_frames(held),
            "frames wait for a block"
        );
        // Dropped holding them.
    }
    let pooled = runtime.inner.frontend_pool.lock().unwrap().len();
    assert_eq!(pooled, 1, "the front-end went back to the pool");
    let run = |runtime: &AsrRuntime| {
        let mut session = runtime.open_session();
        for piece in audio.samples.chunks(160) {
            session.push_samples(piece);
        }
        session.finalize()
    };
    let reused = heard(&run(&runtime));
    assert_same(
        &reused,
        &heard(&run(&one_lane_mlp())),
        "reused vs fresh runtime",
    );
    assert_same(&reused, &oracle_heard(&runtime, &audio), "reused vs oracle");
}

#[test]
fn a_one_lane_session_migrates_between_threads_mid_block() {
    let runtime = one_lane_mlp();
    let audio = runtime.render_words(&["play", "music"]).unwrap();
    let split = (2 * SCORE_BLOCK + 5) * 160;
    let mut session = runtime.open_session();
    for piece in audio.samples[..split].chunks(160) {
        session.push_samples(piece);
    }
    assert_ne!(completed_frames(&audio.samples[..split]) % SCORE_BLOCK, 0);
    let rest = audio.samples[split..].to_vec();
    let migrated = std::thread::spawn(move || {
        for piece in rest.chunks(160) {
            session.push_samples(piece);
        }
        session.finalize()
    })
    .join()
    .unwrap();
    assert_same(
        &heard(&migrated),
        &oracle_heard(&runtime, &audio),
        "migrated",
    );
}

#[test]
#[should_panic(expected = "push_row: the row has 3 costs")]
fn push_row_rejects_a_short_row_at_the_call() {
    // The row is held back before it is searched, so without the
    // check the out-of-bounds read would surface one push later.
    let runtime = AsrRuntime::demo_with(RuntimeConfig::new().lanes(1)).unwrap();
    assert!(runtime.graph().num_phones() > 3);
    let mut session = runtime.open_session();
    session.push_row(&[0.0; 3]);
}

#[test]
fn push_row_takes_rows_of_alternating_widths() {
    // Columns past the graph's phone range are never read, and the
    // queue remembers each block's own width, so a caller may change
    // row width mid-utterance.
    let case = &Fixture::RuntimeSynth.cases()[1];
    let (runtime, scores) = (synth_runtime(case, 1), &case.scores);
    let mut session = runtime.open_session();
    let mut wide = vec![f32::NAN; scores.num_phones() + 7];
    for frame in 0..scores.num_frames() {
        let row = scores.frame_row(frame);
        if frame % 2 == 0 {
            session.push_row(row);
        } else {
            wide[..row.len()].copy_from_slice(row);
            session.push_row(&wide);
        }
    }
    let want = Outcome::from(case.oracle()).spelled(runtime.lexicon());
    assert_same(&heard(&session.finalize()), &want, "alternating widths");
}

// ---- `admission`: the session count and the limit ----

#[test]
fn try_open_session_sheds_at_the_limit_and_recovers() {
    let runtime = AsrRuntime::demo_with(RuntimeConfig::new().lanes(1).max_sessions(2)).unwrap();
    let first = runtime.try_open_session().unwrap();
    let second = runtime.try_open_session().unwrap();
    match runtime.try_open_session() {
        Err(PipelineError::Overloaded { active, limit }) => {
            assert_eq!((active, limit), (2, 2));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let stats = runtime.stats();
    assert_eq!(stats.active_sessions, 2);
    assert_eq!(stats.peak_sessions, 2);
    assert_eq!(stats.shed_sessions, 1);
    // Retiring an in-flight session reopens admission.
    drop(first);
    let third = runtime.try_open_session().unwrap();
    drop(third);
    drop(second);
    let after = runtime.stats();
    assert_eq!(after.active_sessions, 0);
    assert_eq!(after.peak_sessions, 2);
    assert_eq!(after.shed_sessions, 1);
}

#[test]
fn open_session_never_sheds_even_at_the_limit() {
    let runtime = AsrRuntime::demo_with(RuntimeConfig::new().lanes(1).max_sessions(1)).unwrap();
    let _admitted = runtime.try_open_session().unwrap();
    // The infallible path keeps working past the limit...
    let audio = runtime.render_words(&["go"]).unwrap();
    assert_eq!(runtime.recognize(&audio).words, vec!["go"]);
    // ...while the fallible path sheds.
    assert!(matches!(
        runtime.try_open_session(),
        Err(PipelineError::Overloaded { .. })
    ));
}

// ---- `batch`: the gather window, the lone-session fallback, mid-window drops ----

#[test]
fn lone_batched_session_scores_synchronously() {
    let runtime = AsrRuntime::demo_with(
        RuntimeConfig::new()
            .lanes(1)
            .batch_scoring(BatchScoringConfig::new(8)),
    )
    .unwrap();
    let audio = runtime.render_words(&["play", "music"]).unwrap();
    let t = runtime.recognize(&audio);
    assert_eq!(t.words, vec!["play", "music"]);
    let stats = runtime.stats().batch.expect("service configured");
    assert_eq!(stats.batches, 0, "a lone session never waits out a window");
    assert!(stats.single_row_fallbacks > 0);
    assert_eq!(stats.open_slots, 0, "finalize released the slot");
}

#[test]
fn interleaved_batched_sessions_match_unbatched_byte_for_byte() {
    let runtime = AsrRuntime::demo_with(
        RuntimeConfig::new()
            .lanes(1)
            .batch_scoring(BatchScoringConfig::new(4)),
    )
    .unwrap();
    let a = runtime.render_words(&["call", "mom"]).unwrap();
    let b = runtime.render_words(&["lights", "off"]).unwrap();
    let run = |runtime: &AsrRuntime| {
        let mut sa = runtime.open_session();
        let mut sb = runtime.open_session();
        let mut ia = a.samples.chunks(160);
        let mut ib = b.samples.chunks(160);
        loop {
            let pa = ia.next();
            let pb = ib.next();
            if pa.is_none() && pb.is_none() {
                break;
            }
            if let Some(p) = pa {
                sa.push_samples(p);
            }
            if let Some(p) = pb {
                sb.push_samples(p);
            }
        }
        (sa.finalize(), sb.finalize())
    };
    let (ba, bb) = run(&runtime);
    let (ua, ub) = run(&demo_lanes(1));
    assert_same(&heard(&ba), &heard(&ua), "first batched session");
    assert_same(&heard(&bb), &heard(&ub), "second batched session");
    assert_eq!(ba.words, vec!["call", "mom"]);
    assert_eq!(bb.words, vec!["lights", "off"]);
    let stats = runtime.stats().batch.expect("service configured");
    assert!(stats.batches > 0, "two interleaved sessions must batch");
    assert!(stats.widest_batch >= 2);
    assert_eq!(stats.open_slots, 0);
}

#[test]
fn batched_sessions_never_spin_up_the_executor() {
    // A batched session's rows come back from the gather window, so it
    // never overlaps and takes no executor handle, even on two lanes.
    let runtime = AsrRuntime::demo_with(
        RuntimeConfig::new()
            .lanes(2)
            .batch_scoring(BatchScoringConfig::new(4)),
    )
    .unwrap();
    let a = runtime.render_words(&["call", "mom"]).unwrap();
    let b = runtime.render_words(&["lights", "off"]).unwrap();
    let mut sa = runtime.open_session();
    let mut sb = runtime.open_session();
    let n = a.samples.len().min(b.samples.len());
    for (pa, pb) in a.samples[..n].chunks(160).zip(b.samples[..n].chunks(160)) {
        sa.push_samples(pa);
        sb.push_samples(pb);
    }
    sa.push_samples(&a.samples[n..]);
    sb.push_samples(&b.samples[n..]);
    assert_eq!(sa.finalize().words, vec!["call", "mom"]);
    assert_eq!(sb.finalize().words, vec!["lights", "off"]);
    assert_eq!(runtime.recognize(&a).words, vec!["call", "mom"]);
    let stats = runtime.stats();
    assert!(stats.batch.expect("service configured").batches > 0);
    assert!(stats.batch.unwrap().single_row_fallbacks > 0);
    assert!(
        stats.executor.is_none(),
        "batched decodes spun the executor up"
    );
}

#[test]
fn mlp_acoustic_runtime_batches_identically() {
    let config = || {
        RuntimeConfig::new()
            .lanes(1)
            .decode_options(DecodeOptions::with_beam(1.0e9))
            .mlp_acoustic(&[32], 7)
    };
    let batched_rt =
        AsrRuntime::demo_with(config().batch_scoring(BatchScoringConfig::new(8))).unwrap();
    let plain_rt = AsrRuntime::demo_with(config()).unwrap();
    let a = batched_rt.render_words(&["go"]).unwrap();
    let b = batched_rt.render_words(&["stop"]).unwrap();
    let drive = |rt: &AsrRuntime| {
        let mut sa = rt.open_session();
        let mut sb = rt.open_session();
        for (pa, pb) in a.samples.chunks(160).zip(b.samples.chunks(160)) {
            sa.push_samples(pa);
            sb.push_samples(pb);
        }
        let ta = sa.finalize();
        let tb = sb.finalize();
        (ta, tb)
    };
    let (ba, bb) = drive(&batched_rt);
    let (ua, ub) = drive(&plain_rt);
    assert_same(&heard(&ba), &heard(&ua), "first MLP session");
    assert_same(&heard(&bb), &heard(&ub), "second MLP session");
    assert!(batched_rt.stats().batch.unwrap().batches > 0);
}

#[test]
fn a_batched_session_moves_every_ready_row_into_its_alb_in_one_drain() {
    let config = || {
        RuntimeConfig::new()
            .lanes(1)
            .decode_options(DecodeOptions::with_beam(1.0e9))
            .mlp_acoustic(&[32], 7)
    };
    let runtime =
        AsrRuntime::demo_with(config().batch_scoring(BatchScoringConfig::new(8))).unwrap();
    let audio = runtime.render_words(&["play", "music"]).unwrap();
    // B registers with one push that completes no frame, then stays
    // idle: the window's target of two live sessions flushes A's frames
    // two at a time, and the push that flushes drains both rows.
    assert_eq!(completed_frames(&audio.samples[..160]), 0);
    let mut b = runtime.open_session();
    b.push_samples(&audio.samples[..160]);
    let mut a = runtime.open_session();
    let mut twin = AsrRuntime::demo_with(config()).unwrap().open_session();
    let returned = |runtime: &AsrRuntime| runtime.stats().batch.unwrap().batched_rows as usize;
    let (mut before, mut pairs) = (0, 0);
    for packet in audio.samples.chunks(160) {
        a.push_samples(packet);
        twin.push_samples(packet);
        // B submits nothing, so every row the service scored is A's.
        let rows = returned(&runtime);
        if rows > 0 {
            let decoded = a.partial().unwrap().frames_decoded;
            assert_eq!(decoded, rows - 1, "{rows} rows returned");
        }
        assert!(rows == before || rows == before + 2, "{before} -> {rows}");
        pairs += usize::from(rows == before + 2);
        before = rows;
    }
    assert!(pairs >= 10, "only {pairs} two-row drains");
    a.flush_scoring();
    twin.flush_scoring();
    let (got, want) = (a.partial().unwrap(), twin.partial().unwrap());
    assert_eq!(got, want, "synced partials");
    assert_eq!(got.cost.to_bits(), want.cost.to_bits());
    let stats = runtime.stats().batch.unwrap();
    assert_eq!(stats.single_row_fallbacks, 0, "A was never alone");
    let got = heard(&a.finalize());
    assert_same(&got, &oracle_heard(&runtime, &audio), "batched session");
    drop(b);
}

#[test]
#[should_panic(expected = "at least one row")]
fn zero_row_batch_window_is_rejected() {
    let _ = BatchScoringConfig::new(0);
}

#[test]
fn dropping_a_batched_session_mid_window_leaves_the_service_healthy() {
    let runtime = AsrRuntime::demo_with(
        RuntimeConfig::new()
            .lanes(1)
            .batch_scoring(BatchScoringConfig::new(16)),
    )
    .unwrap();
    let keep_audio = runtime.render_words(&["call", "mom"]).unwrap();
    let drop_audio = runtime.render_words(&["stop"]).unwrap();
    let mut keep = runtime.open_session();
    let mut doomed = runtime.open_session();
    // Interleave a few packets so both sessions have rows pending in
    // the shared window, then drop one mid-batch.
    for (pk, pd) in keep_audio
        .samples
        .chunks(160)
        .zip(drop_audio.samples.chunks(160))
        .take(20)
    {
        keep.push_samples(pk);
        doomed.push_samples(pd);
    }
    drop(doomed);
    for pk in keep_audio.samples.chunks(160).skip(20) {
        keep.push_samples(pk);
    }
    let survivor = keep.finalize();
    assert_eq!(survivor.words, vec!["call", "mom"]);
    // The reference: the same audio on an unbatched runtime.
    let mut unbatched = demo_lanes(1).open_session();
    unbatched.push_samples(&keep_audio.samples);
    assert_same(&heard(&survivor), &heard(&unbatched.finalize()), "survivor");
    assert_eq!(runtime.stats().batch.unwrap().open_slots, 0);
}

// ---- the block height, measured (`just stages`) ----

/// One composition's best round in [`block_split`]: wall clock over
/// its utterances, the scoring and search time within it, and counts.
#[derive(Default)]
struct Split {
    wall: std::time::Duration,
    score: std::time::Duration,
    search: std::time::Duration,
    calls: usize,
    rows: usize,
    steps: usize,
    heard: Vec<Outcome<String>>,
}

/// Runs every utterance's feature frames (`feats`, packed) through the
/// production handoff on this thread: an [`AlbQueue`] without a pool,
/// whose `fill` is one `score_block_into` over `block` frames (or a copy
/// of a pre-scored row from `rows` when there are any: search alone).
/// With `block == 0` it only scores, one row per call: scoring alone.
fn split_run(
    runtime: &AsrRuntime,
    feats: &[Vec<f32>],
    rows: &[AcousticTable],
    block: usize,
) -> Split {
    use asr_decoder::stream::{AlbQueue, StreamingDecode};
    use std::time::{Duration, Instant};
    let inner = &runtime.inner;
    let model = &inner.model;
    let (dim, row_len) = (model.feat_dim(), model.row_len());
    let mut scratch = vec![0.0; model.block_scratch_len(block.max(1))];
    let mut split = Split::default();
    if block == 0 {
        let mut row = vec![0.0; row_len];
        let clock = Instant::now();
        for frame in feats.iter().flat_map(|f| f.chunks_exact(dim)) {
            model.score_block_into(frame, 1, &mut row, &mut scratch);
            split.calls += 1;
        }
        split.wall = clock.elapsed();
        (split.score, split.rows) = (split.wall, split.calls);
        return split;
    }
    let mut alb = AlbQueue::new();
    for (u, feats) in feats.iter().enumerate() {
        let frames = feats.len() / dim;
        let graph = Arc::clone(&inner.graph);
        let scratch_in = inner.scratch_pool.checkout();
        let mut decode = StreamingDecode::new(graph, inner.options.clone(), scratch_in);
        let clock = Instant::now();
        for start in (0..frames).step_by(block) {
            let fresh = block.min(frames - start);
            let mut scored = Duration::ZERO;
            let advance = Instant::now();
            alb.advance(&mut decode, None, row_len, fresh, &mut |out| {
                let fill = Instant::now();
                match rows.get(u) {
                    Some(table) => out.copy_from_slice(table.frame_row(start)),
                    None => {
                        let block = &feats[start * dim..(start + fresh) * dim];
                        let scratch = &mut scratch[..model.block_scratch_len(fresh)];
                        model.score_block_into(block, fresh, out, scratch);
                    }
                }
                scored = fill.elapsed();
            });
            split.search += advance.elapsed() - scored;
            if rows.is_empty() {
                split.score += scored;
                split.calls += 1;
                split.rows += fresh;
            }
        }
        let (result, scratch_out) = alb.finish(decode);
        split.wall += clock.elapsed();
        split.steps += frames - 1;
        inner.scratch_pool.restore(scratch_out);
        split
            .heard
            .push(Outcome::from(&result).spelled(runtime.lexicon()));
    }
    split
}

/// What scoring in blocks saves a session that scores on its own thread
/// (`just stages`). On the `voice_1s` shape — 50k states, cap 2000, MLP
/// `[39, 512, 512, 2000]`, eight rendered utterances of 50–80 frames —
/// drives each utterance through [`split_run`] interleaved 1:1 (block
/// 1, a one-lane session's composition before [`SCORE_BLOCK`]), in
/// blocks of 4, [`SCORE_BLOCK`] and 16, scoring alone and search alone,
/// and prints, from the round with the least wall time of `ROUNDS`
/// (after a warm-up): µs per frame, scoring µs per row, search µs per
/// step, and `score_block_into` calls per frame. Every composition must
/// decode the bytes a one-lane session decodes from the audio.
#[test]
#[ignore = "a profiler, not a check: run with `just stages`"]
fn block_split() {
    use asr_decoder::search::DecodeOptions;
    use asr_wfst::synth::{SynthConfig, SynthWfst};
    const ROUNDS: usize = 10;
    let mut lexicon = Lexicon::new();
    for i in 1..=2_000 {
        lexicon.add_word(&format!("w{i}"), &[&format!("p{i}")]);
    }
    // The benchmark's graph statistics (`benchmark/src/inputs.rs`).
    let graph = SynthWfst::generate(&SynthConfig {
        num_phones: 2_000,
        vocab_size: 2_000,
        final_fraction: 0.05,
        ..SynthConfig::with_states(50_000).with_seed(1)
    })
    .unwrap();
    let config = RuntimeConfig::new()
        .lanes(1)
        .decode_options(DecodeOptions {
            max_active: Some(2_000),
            ..DecodeOptions::with_beam(40.0)
        })
        .mlp_acoustic(&[512, 512], 1);
    let runtime = AsrRuntime::with_graph(graph, lexicon, config);
    let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
    let utterances: Vec<Utterance> = [10, 11, 12, 13, 13, 14, 15, 16]
        .iter()
        .map(|&phones| {
            let phones: Vec<PhoneId> = (0..phones)
                .map(|_| {
                    // xorshift64
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    PhoneId(1 + (rng % 2_000) as u32)
                })
                .collect();
            Utterance::render(&phones, 5, &SignalConfig::default())
        })
        .collect();
    let feats: Vec<Vec<f32>> = (utterances.iter())
        .map(|u| {
            let mut mfcc = OnlineMfcc::new(MfccConfig::default());
            mfcc.push_samples(&u.samples);
            mfcc.finish();
            let mut packed = vec![0.0; mfcc.ready_frames() * mfcc.dim()];
            for frame in packed.chunks_exact_mut(mfcc.dim()) {
                assert!(mfcc.pop_frame_into(frame));
            }
            packed
        })
        .collect();
    let tables: Vec<AcousticTable> = utterances.iter().map(|u| runtime.score(u)).collect();
    let session: Vec<Outcome<String>> = (utterances.iter())
        .map(|u| {
            let mut session = runtime.open_session();
            for piece in u.samples.chunks(160) {
                session.push_samples(piece);
            }
            heard(&session.finalize())
        })
        .collect();

    let compositions: [(&str, usize, &[AcousticTable]); 6] = [
        ("interleaved 1:1", 1, &[]),
        ("blocks of 4", 4, &[]),
        ("blocks of 8", SCORE_BLOCK, &[]),
        ("blocks of 16", 16, &[]),
        ("scoring alone", 0, &[]),
        ("search alone", 1, &tables),
    ];
    let mut best: Vec<Option<Split>> = compositions.iter().map(|_| None).collect();
    for round in 0..=ROUNDS {
        for ((_, block, rows), best) in compositions.iter().zip(&mut best) {
            let split = split_run(&runtime, &feats, rows, *block);
            for (got, want) in split.heard.iter().zip(&session) {
                assert_same(got, want, &format!("block {block} vs the session"));
            }
            if round > 0 && best.as_ref().is_none_or(|b| split.wall < b.wall) {
                *best = Some(split);
            }
        }
    }
    let frames: usize = tables.iter().map(AcousticTable::num_frames).sum();
    println!(
        "50000 states, max_active 2000, MLP [39, 512, 512, 2000]: {} utterances, \
         {frames} frames, best of {ROUNDS} rounds (the session scores blocks of {SCORE_BLOCK})",
        utterances.len()
    );
    println!("  composition       us/frame  score us/row  search us/step  calls/frame");
    let per = |d: std::time::Duration, n: usize| d.as_secs_f64() * 1e6 / n.max(1) as f64;
    for ((name, ..), split) in compositions.iter().zip(&best) {
        let split = split.as_ref().unwrap();
        let cell = |d, n| match n {
            0 => format!("{:>8}", "-"),
            n => format!("{:8.1}", per(d, n)),
        };
        println!(
            "  {name:<16} {:9.1}      {}        {}     {:8.3}",
            per(split.wall, frames),
            cell(split.score, split.rows),
            cell(split.search, split.steps),
            split.calls as f64 / frames as f64
        );
    }
}
