//! Multi-model registry semantics: hot swap, unregister-in-flight, and
//! the zero-copy image path, all under concurrency.
//!
//! The claims under test:
//!
//! 1. A hot swap is invisible to in-flight work: eight concurrent
//!    sessions opened on a model before [`AsrRuntime::swap_model`]
//!    finish byte-identical to sessions on a single-model runtime that
//!    never swapped, while sessions opened after the swap decode over
//!    the replacement graph.
//! 2. [`AsrRuntime::unregister_model`] lets in-flight sessions finish
//!    on the old graph, and the graph's storage — the store image's
//!    buffer included — frees exactly when the last such session
//!    drops, observed through the buffer's reference count and
//!    [`RuntimeStats::retired_models`].
//! 3. Sessions over an image-backed model are byte-identical to
//!    sessions over the same sorted graph registered as an owned copy,
//!    with and without the scoring/search overlap.
//! 4. Registry misuse is typed: unknown and duplicate names,
//!    phone-space-incompatible graphs, and unknown-model session opens
//!    all surface as [`PipelineError`] variants — and a failed
//!    [`AsrRuntime::try_open_session_with`] never charges admission.
//!
//! [`AsrRuntime::swap_model`]: asr_repro::runtime::AsrRuntime::swap_model
//! [`AsrRuntime::unregister_model`]: asr_repro::runtime::AsrRuntime::unregister_model
//! [`AsrRuntime::try_open_session_with`]: asr_repro::runtime::AsrRuntime::try_open_session_with
//! [`RuntimeStats::retired_models`]: asr_repro::runtime::RuntimeStats::retired_models
//! [`PipelineError`]: asr_repro::runtime::PipelineError

use asr_repro::acoustic::scores::AcousticTable;
use asr_repro::runtime::{AsrRuntime, PipelineError, RuntimeConfig, SessionOptions, Transcript};
use asr_repro::wfst::builder::WfstBuilder;
use asr_repro::wfst::compose::build_decoding_graph;
use asr_repro::wfst::grammar::Grammar;
use asr_repro::wfst::lexicon::demo_lexicon;
use asr_repro::wfst::sorted::SortedWfst;
use asr_repro::wfst::store::{self, GraphImage, ImageBytes};
use asr_repro::wfst::{PhoneId, Wfst, WordId};

/// The demo decoding graph plus a second graph over the same lexicon
/// restricted to a smaller vocabulary — two models one runtime can
/// serve, distinguishable by what they can recognize.
fn two_graphs() -> (Wfst, Wfst) {
    let lexicon = demo_lexicon();
    let all: Vec<WordId> = (1..=lexicon.num_words() as u32).map(WordId).collect();
    let full = build_decoding_graph(&lexicon, &Grammar::uniform(&all)).unwrap();
    let narrow = build_decoding_graph(&lexicon, &Grammar::uniform(&all[..3])).unwrap();
    (full, narrow)
}

fn runtime_with(graph: Wfst) -> AsrRuntime {
    AsrRuntime::with_graph(graph, demo_lexicon(), RuntimeConfig::new().lanes(2))
}

fn assert_bytes_eq(a: &Transcript, b: &Transcript, what: &str) {
    assert_eq!(a.words, b.words, "{what}: words");
    assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{what}: cost bits");
    assert_eq!(a.reached_final, b.reached_final, "{what}: finality");
}

#[test]
fn hot_swap_under_eight_concurrent_sessions_is_byte_identical() {
    let (full, narrow) = two_graphs();
    // The single-model baseline: a runtime whose *default* graph is the
    // pre-swap model, never touched by registry traffic.
    let baseline = runtime_with(full.clone());
    let runtime = runtime_with(narrow.clone());
    runtime.register_model("speech", full).unwrap();

    let utterances = ["call mom", "play music", "lights on", "go"];
    let scores: Vec<AcousticTable> = utterances
        .iter()
        .map(|u| {
            let words: Vec<&str> = u.split(' ').collect();
            runtime.score(&runtime.render_words(&words).unwrap())
        })
        .collect();

    // Eight sessions open on the model and consume half their frames
    // before the swap lands.
    let mut in_flight = Vec::new();
    for i in 0..8 {
        let mut session = runtime
            .try_open_session_with(SessionOptions::new().model("speech"))
            .unwrap();
        let rows = &scores[i % scores.len()];
        for frame in 0..rows.num_frames() / 2 {
            session.push_row(rows.frame_row(frame));
        }
        in_flight.push((session, i % scores.len()));
    }
    assert_eq!(runtime.stats().models[0].active_sessions, 8);

    runtime.swap_model("speech", narrow).unwrap();
    assert_eq!(
        runtime.stats().retired_models,
        1,
        "the swapped-out graph drains behind the in-flight sessions"
    );

    // Finish the eight concurrently, each on its own thread, while the
    // registry already serves the replacement.
    let finished: Vec<(Transcript, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = in_flight
            .into_iter()
            .map(|(mut session, idx)| {
                let rows = &scores[idx];
                scope.spawn(move || {
                    for frame in rows.num_frames() / 2..rows.num_frames() {
                        session.push_row(rows.frame_row(frame));
                    }
                    (session.finalize(), idx)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Byte-identical to the single-model runtime: the swap never
    // touched a session that had already resolved the old graph.
    for (transcript, idx) in &finished {
        let expected = {
            let mut s = baseline.open_session();
            s.push_frames(&scores[*idx]);
            s.finalize()
        };
        assert_bytes_eq(transcript, &expected, "session across hot swap");
    }

    // A post-swap open decodes over the replacement (the narrow graph
    // cannot emit "call mom" — its grammar lacks those words).
    let mut post = runtime
        .try_open_session_with(SessionOptions::new().model("speech"))
        .unwrap();
    post.push_frames(&scores[0]);
    let post = post.finalize();
    let narrow_expected = {
        let mut s = runtime.open_session();
        s.push_frames(&scores[0]);
        s.finalize()
    };
    assert_bytes_eq(&post, &narrow_expected, "post-swap session");

    let stats = runtime.stats();
    assert_eq!(stats.retired_models, 0, "old graph freed after the drain");
    assert_eq!(stats.models[0].active_sessions, 0);
    assert_eq!(
        stats.models[0].opened_sessions, 9,
        "counters follow the name across the swap"
    );
}

#[test]
fn unregister_in_flight_finishes_on_the_old_image_and_frees_on_last_drop() {
    let (full, narrow) = two_graphs();
    let sorted = SortedWfst::new(&full).unwrap();
    let image_bytes = ImageBytes::from_slice(&store::to_bytes(&sorted));
    let image = GraphImage::from_image_bytes(image_bytes.clone()).unwrap();
    let baseline = runtime_with(sorted.wfst().clone());

    let runtime = runtime_with(narrow);
    runtime.register_model_image("big", image).unwrap();
    let handles_registered = image_bytes.ref_count();
    assert!(
        handles_registered > 1,
        "the registry's graph views the image buffer"
    );

    let scores = runtime.score(&runtime.render_words(&["call", "mom"]).unwrap());
    let mut session = runtime
        .try_open_session_with(SessionOptions::new().model("big"))
        .unwrap();
    session.push_row(scores.frame_row(0));

    runtime.unregister_model("big").unwrap();
    assert!(
        runtime.model_names().is_empty(),
        "the name is gone immediately"
    );
    assert!(matches!(
        runtime.try_open_session_with(SessionOptions::new().model("big")),
        Err(PipelineError::UnknownModel(_))
    ));
    assert_eq!(
        runtime.stats().retired_models,
        1,
        "the graph drains behind the in-flight session"
    );
    assert_eq!(
        image_bytes.ref_count(),
        handles_registered,
        "the session's graph handle keeps every image view alive"
    );

    // The in-flight session finishes on the unregistered graph,
    // byte-identical to the owned-sorted baseline.
    for frame in 1..scores.num_frames() {
        session.push_row(scores.frame_row(frame));
    }
    let transcript = session.finalize();
    let expected = {
        let mut s = baseline.open_session();
        s.push_frames(&scores);
        s.finalize()
    };
    assert_bytes_eq(&transcript, &expected, "session across unregister");

    // Last drop frees the storage: only this test's local handle on the
    // buffer remains, and the retired record sweeps away.
    assert_eq!(
        image_bytes.ref_count(),
        1,
        "image buffer released on the last session drop"
    );
    assert_eq!(runtime.stats().retired_models, 0);
    assert_eq!(runtime.stats().resident_model_bytes, 0);
}

#[test]
fn image_backed_and_owned_models_decode_byte_identically() {
    let (full, narrow) = two_graphs();
    let sorted = SortedWfst::new(&full).unwrap();
    let image = GraphImage::from_bytes(&store::to_bytes(&sorted)).unwrap();

    let runtime = runtime_with(narrow);
    runtime
        .register_model("owned", sorted.wfst().clone())
        .unwrap();
    runtime.register_model_image("image", image).unwrap();
    let stats = runtime.stats();
    assert!(!stats.models[0].image_backed);
    assert!(stats.models[1].image_backed);
    assert_eq!(
        stats.resident_model_bytes,
        stats.models[0].resident_bytes + stats.models[1].resident_bytes
    );

    for utterance in [vec!["go"], vec!["lights", "on"], vec!["play", "music"]] {
        let scores = runtime.score(&runtime.render_words(&utterance).unwrap());
        let decode = |model: &str| {
            let mut s = runtime.open_session_with(SessionOptions::new().model(model));
            s.push_frames(&scores);
            s.finalize()
        };
        let owned = decode("owned");
        let image = decode("image");
        assert_bytes_eq(&owned, &image, "image-backed vs owned model");
        assert_eq!(owned.words, utterance);
    }
}

#[test]
fn registry_misuse_is_typed_and_never_charges_admission() {
    let (full, narrow) = two_graphs();
    let runtime = runtime_with(narrow.clone());
    runtime.register_model("a", full.clone()).unwrap();

    // Duplicate names are refused without disturbing the entry.
    assert!(matches!(
        runtime.register_model("a", narrow.clone()),
        Err(PipelineError::DuplicateModel(name)) if name == "a"
    ));
    assert_eq!(runtime.model_names(), vec!["a".to_owned()]);

    // Unknown names: session opens, swaps, and unregisters all report
    // the name, and the failed open charges nothing.
    let before = runtime.stats();
    assert!(matches!(
        runtime.try_open_session_with(SessionOptions::new().model("missing")),
        Err(PipelineError::UnknownModel(name)) if name == "missing"
    ));
    let after = runtime.stats();
    assert_eq!(after.active_sessions, before.active_sessions);
    assert_eq!(after.shed_sessions, before.shed_sessions);
    assert!(matches!(
        runtime.swap_model("missing", full),
        Err(PipelineError::UnknownModel(_))
    ));
    assert!(matches!(
        runtime.unregister_model("missing"),
        Err(PipelineError::UnknownModel(_))
    ));

    // A graph whose phones exceed the acoustic model's rows is refused
    // at registration — sessions can never index past a score row.
    let mut b = WfstBuilder::new();
    let s0 = b.add_state();
    let s1 = b.add_state();
    b.set_start(s0);
    b.add_arc(s0, s1, PhoneId(10_000), WordId(1), 0.5);
    b.set_final(s1, 0.0);
    let alien = b.build().unwrap();
    match runtime.register_model("alien", alien) {
        Err(PipelineError::IncompatibleModel {
            name,
            graph_phones,
            model_phones,
        }) => {
            assert_eq!(name, "alien");
            assert_eq!(graph_phones, 10_001);
            assert!(model_phones < graph_phones);
        }
        other => panic!("expected IncompatibleModel, got {other:?}"),
    }
    assert_eq!(runtime.model_names(), vec!["a".to_owned()]);

    // The registry untouched by all that misuse still serves.
    let scores = runtime.score(&runtime.render_words(&["go"]).unwrap());
    let mut s = runtime
        .try_open_session_with(SessionOptions::new().model("a"))
        .unwrap();
    s.push_frames(&scores);
    assert_eq!(s.finalize().words, vec!["go"]);
}

#[test]
fn sessions_ignore_registry_traffic_on_other_models() {
    // Churning the registry — register, swap, unregister other names —
    // while a default-graph session decodes must not perturb it.
    let (full, narrow) = two_graphs();
    let runtime = runtime_with(full.clone());
    let scores = runtime.score(&runtime.render_words(&["call", "mom"]).unwrap());
    let expected = {
        let mut s = runtime.open_session();
        s.push_frames(&scores);
        s.finalize()
    };

    let mut session = runtime.open_session();
    for frame in 0..scores.num_frames() {
        match frame % 3 {
            0 => {
                let _ = runtime.register_model("churn", narrow.clone());
            }
            1 => {
                let _ = runtime.swap_model("churn", narrow.clone());
            }
            _ => {
                let _ = runtime.unregister_model("churn");
            }
        }
        session.push_row(scores.frame_row(frame));
    }
    let transcript = session.finalize();
    assert_bytes_eq(&transcript, &expected, "session beside registry churn");
    let _ = runtime.unregister_model("churn");
    assert_eq!(runtime.stats().retired_models, 0);
}
