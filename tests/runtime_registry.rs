//! Multi-model registry semantics: hot swap and the zero-copy image
//! path, under concurrency.
//!
//! The claims under test:
//!
//! 1. A hot swap is invisible to in-flight work: eight concurrent
//!    sessions opened on a model before [`AsrRuntime::swap_model_image`]
//!    finish byte-identical to sessions on a single-model runtime that
//!    never swapped, while sessions opened after the swap decode over
//!    the replacement graph; the swapped-out graph drains
//!    ([`RuntimeStats::retired_models`]) with its last session.
//! 2. Sessions over an image-backed model are byte-identical to
//!    sessions over the same sorted graph held as an owned copy.
//! 3. Registry misuse is typed: unknown and duplicate names,
//!    phone-space-incompatible graphs, and unknown-model session opens
//!    all surface as [`PipelineError`] variants — and a failed
//!    [`AsrRuntime::try_open_session_with`] never charges admission.
//!
//! [`AsrRuntime::swap_model_image`]: asr_repro::runtime::AsrRuntime::swap_model_image
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
use asr_repro::wfst::store::{self, GraphImage};
use asr_repro::wfst::{PhoneId, Wfst, WordId};
use asr_testkit::{assert_same, Outcome};

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

/// `graph` in the degree-sorted numbering a store image holds.
fn sorted(graph: &Wfst) -> Wfst {
    SortedWfst::new(graph).unwrap().wfst().clone()
}

/// `graph` as a loaded store image.
fn image(graph: &Wfst) -> GraphImage {
    GraphImage::from_bytes(&store::to_bytes(&SortedWfst::new(graph).unwrap())).unwrap()
}

fn runtime_with(graph: Wfst) -> AsrRuntime {
    AsrRuntime::with_graph(graph, demo_lexicon(), RuntimeConfig::new().lanes(2))
}

#[test]
fn hot_swap_under_eight_concurrent_sessions_is_byte_identical() {
    let (full, narrow) = two_graphs();
    // The single-model baseline: a runtime whose *default* graph is the
    // pre-swap model, never touched by registry traffic.
    let baseline = runtime_with(sorted(&full));
    let runtime = runtime_with(sorted(&narrow));
    runtime
        .register_model_image("speech", image(&full))
        .unwrap();

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

    runtime.swap_model_image("speech", image(&narrow)).unwrap();
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
        assert_same(
            &Outcome::from(transcript),
            &Outcome::from(&expected),
            "session across hot swap",
        );
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
    assert_same(
        &Outcome::from(&post),
        &Outcome::from(&narrow_expected),
        "post-swap session",
    );

    let stats = runtime.stats();
    assert_eq!(stats.retired_models, 0, "old graph freed after the drain");
    assert_eq!(stats.models[0].active_sessions, 0);
    assert_eq!(
        stats.models[0].opened_sessions, 9,
        "counters follow the name across the swap"
    );
}

#[test]
fn image_backed_and_owned_models_decode_byte_identically() {
    let (full, _) = two_graphs();
    // The owned copy is the runtime's default graph.
    let runtime = runtime_with(sorted(&full));
    let image = image(&full);
    let image_bytes = image.resident_bytes();
    runtime.register_model_image("image", image).unwrap();
    let stats = runtime.stats();
    assert_eq!(stats.resident_model_bytes, image_bytes);

    for utterance in [vec!["go"], vec!["lights", "on"], vec!["play", "music"]] {
        let scores = runtime.score(&runtime.render_words(&utterance).unwrap());
        let decode = |options: SessionOptions| {
            let mut s = runtime.open_session_with(options);
            s.push_frames(&scores);
            s.finalize()
        };
        let owned = decode(SessionOptions::new());
        let image = decode(SessionOptions::new().model("image"));
        assert_same(
            &Outcome::from(&owned),
            &Outcome::from(&image),
            "image-backed vs owned model",
        );
        assert_eq!(owned.words, utterance);
    }
}

#[test]
fn registry_misuse_is_typed_and_never_charges_admission() {
    let (full, narrow) = two_graphs();
    let runtime = runtime_with(narrow.clone());
    runtime.register_model_image("a", image(&full)).unwrap();
    let names = || -> Vec<String> { runtime.stats().models.into_iter().map(|m| m.name).collect() };

    // Duplicate names are refused without disturbing the entry.
    assert!(matches!(
        runtime.register_model_image("a", image(&narrow)),
        Err(PipelineError::DuplicateModel(name)) if name == "a"
    ));
    assert_eq!(names(), vec!["a".to_owned()]);

    // Unknown names: session opens and swaps both report the name, and
    // the failed open charges nothing.
    let before = runtime.stats();
    assert!(matches!(
        runtime.try_open_session_with(SessionOptions::new().model("missing")),
        Err(PipelineError::UnknownModel(name)) if name == "missing"
    ));
    let after = runtime.stats();
    assert_eq!(after.active_sessions, before.active_sessions);
    assert_eq!(after.shed_sessions, before.shed_sessions);
    assert!(matches!(
        runtime.swap_model_image("missing", image(&full)),
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
    match runtime.register_model_image("alien", image(&alien)) {
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
    assert_eq!(names(), vec!["a".to_owned()]);

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
    // Churning the registry — register and swap another name —
    // while a default-graph session decodes must not perturb it.
    let (full, narrow) = two_graphs();
    let runtime = runtime_with(full.clone());
    let scores = runtime.score(&runtime.render_words(&["call", "mom"]).unwrap());
    let expected = {
        let mut s = runtime.open_session();
        s.push_frames(&scores);
        s.finalize()
    };

    let narrow = image(&narrow);
    let mut session = runtime.open_session();
    for frame in 0..scores.num_frames() {
        if frame % 2 == 0 {
            let _ = runtime.register_model_image("churn", narrow.clone());
        } else {
            let _ = runtime.swap_model_image("churn", narrow.clone());
        }
        session.push_row(scores.frame_row(frame));
    }
    let transcript = session.finalize();
    assert_same(
        &Outcome::from(&transcript),
        &Outcome::from(&expected),
        "session beside registry churn",
    );
    assert_eq!(runtime.stats().retired_models, 0);
}
