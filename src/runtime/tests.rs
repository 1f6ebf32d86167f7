//! The serving layer's unit tests, all through the public API (save one
//! crate-private look at whether the acoustic model has been built),
//! grouped by the module they exercise. They stay in one flat `runtime::tests`
//! module (rather than a `tests` module inside each file) so their
//! names — which the tier-1 floor lists one by one — do not change
//! with the split.

use super::*;
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
fn multi_row_overlap_is_byte_identical_to_inline_for_every_depth() {
    let runtime = demo_lanes(2);
    let audio = runtime.render_words(&["play", "music"]).unwrap();
    let inline = {
        let mut session = demo_lanes(1).open_session();
        for packet in audio.samples.chunks(160) {
            session.push_samples(packet);
        }
        session.finalize()
    };
    for depth in [2usize, 3, 5] {
        for chunk in [160usize, 517] {
            let mut session = runtime.open_session_with(SessionOptions::new().overlap_depth(depth));
            for packet in audio.samples.chunks(chunk) {
                session.push_samples(packet);
            }
            let deep = session.finalize();
            let what = format!("depth {depth} chunk {chunk}");
            assert_same(&heard(&deep), &heard(&inline), &what);
        }
    }
}

#[test]
fn multi_row_session_migrates_a_pushed_row_into_the_queue() {
    // A row pushed before the first audio push sits in the same
    // queue the overlapped audio rows enter behind it, so it must
    // still be searched first, in order, at every overlap depth.
    let (runtime, one_lane) = (demo_lanes(2), demo_lanes(1));
    let audio = runtime.render_words(&["go"]).unwrap();
    let scores = runtime.score(&audio);
    let run = |runtime: &AsrRuntime, options: SessionOptions| {
        let mut session = runtime.open_session_with(options);
        session.push_row(scores.frame_row(0));
        for packet in audio.samples.chunks(160) {
            session.push_samples(packet);
        }
        session.finalize()
    };
    let inline = run(&one_lane, SessionOptions::new());
    for depth in [1usize, 3] {
        let deep = run(&runtime, SessionOptions::new().overlap_depth(depth));
        assert_same(&heard(&deep), &heard(&inline), &format!("depth {depth}"));
    }
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
