//! Overload and fault-injection robustness: the runtime past its
//! comfort zone.
//!
//! The claims under test:
//!
//! 1. Admission control is typed, atomic, and recoverable:
//!    [`AsrRuntime::try_open_session`] sheds with
//!    [`PipelineError::Overloaded`] — never a panic — the concurrent
//!    session count never exceeds the limit, every admitted
//!    session finishes with a correct transcript, and retiring
//!    in-flight work reopens admission.
//! 2. [`AsrRuntime::stats`] surfaces the whole signal chain: session
//!    counts, shed counts, scratch-pool counters, and the executor's
//!    scheduling counters.
//! 3. Registering a corrupt store image is a typed refusal that leaves
//!    the registry, the admission books, and every live session
//!    untouched — fault injection on the model-loading path; the scratch
//!    pool shows a full restore afterwards, nothing poisoned or leaked.
//!
//! [`AsrRuntime::try_open_session`]: asr_repro::runtime::AsrRuntime::try_open_session
//! [`AsrRuntime::stats`]: asr_repro::runtime::AsrRuntime::stats
//! [`PipelineError::Overloaded`]: asr_repro::runtime::PipelineError::Overloaded

use asr_repro::runtime::{AsrRuntime, PipelineError, RuntimeConfig, SessionOptions};
use asr_repro::wfst::sorted::SortedWfst;
use asr_repro::wfst::store::{self, GraphImage};
use asr_repro::wfst::WfstError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn admission_sheds_typed_at_the_limit_and_in_flight_sessions_finish() {
    let runtime = AsrRuntime::demo_with(RuntimeConfig::new().lanes(2).max_sessions(3)).unwrap();
    let words = [vec!["go"], vec!["lights", "on"], vec!["play", "music"]];
    let audio: Vec<_> = words
        .iter()
        .map(|w| runtime.render_words(w).unwrap())
        .collect();

    // Fill the runtime to its limit with mid-utterance sessions.
    let mut in_flight = Vec::new();
    for a in &audio {
        let mut session = runtime.try_open_session().unwrap();
        session.push_samples(&a.samples[..a.samples.len() / 2]);
        in_flight.push(session);
    }

    // The fourth session sheds with a typed error, not a panic.
    match runtime.try_open_session() {
        Err(PipelineError::Overloaded { active, limit }) => {
            assert_eq!((active, limit), (3, 3));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(runtime.stats().shed_sessions, 1);

    // Every admitted session runs to completion, correctly, while the
    // runtime is saturated.
    for ((session, a), w) in in_flight.into_iter().zip(&audio).zip(&words) {
        let mut session = session;
        session.push_samples(&a.samples[a.samples.len() / 2..]);
        let transcript = session.finalize();
        assert_eq!(&transcript.words, w, "in-flight session under overload");
    }

    // Retired work reopened admission.
    let reopened = runtime.try_open_session();
    assert!(reopened.is_ok(), "admission recovers after drain");
    drop(reopened);
    let stats = runtime.stats();
    assert_eq!(stats.active_sessions, 0);
    assert_eq!(stats.peak_sessions, 3);
    assert_eq!(stats.shed_sessions, 1);
}

#[test]
fn concurrent_admission_never_exceeds_the_limit() {
    const LIMIT: usize = 2;
    const THREADS: usize = 6;
    const ATTEMPTS: usize = 8;
    let runtime = AsrRuntime::demo_with(RuntimeConfig::new().lanes(1).max_sessions(LIMIT)).unwrap();
    let audio = runtime.render_words(&["stop"]).unwrap();
    let scores = runtime.score(&audio);
    let admitted = Arc::new(AtomicUsize::new(0));
    let shed = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let runtime = runtime.clone();
            let scores = &scores;
            let admitted = Arc::clone(&admitted);
            let shed = Arc::clone(&shed);
            scope.spawn(move || {
                for _ in 0..ATTEMPTS {
                    match runtime.try_open_session() {
                        Ok(mut session) => {
                            admitted.fetch_add(1, Ordering::Relaxed);
                            session.push_frames(scores);
                            let t = session.finalize();
                            assert_eq!(t.words, vec!["stop"]);
                        }
                        Err(PipelineError::Overloaded { active, limit }) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                            assert_eq!(limit, LIMIT);
                            assert!(active <= LIMIT);
                        }
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                }
            });
        }
    });

    let stats = runtime.stats();
    assert_eq!(
        admitted.load(Ordering::Relaxed) + shed.load(Ordering::Relaxed),
        THREADS * ATTEMPTS,
        "every attempt either admitted or shed — nothing lost or panicked"
    );
    assert!(
        stats.peak_sessions <= LIMIT,
        "admission is atomic: peak {} never exceeds the limit {LIMIT}",
        stats.peak_sessions
    );
    assert_eq!(stats.shed_sessions as usize, shed.load(Ordering::Relaxed));
    assert_eq!(stats.active_sessions, 0, "everything drained");
    // Every admitted session restored its scratch.
    assert_eq!(stats.scratch.checkouts(), stats.scratch.restores);
}

#[test]
fn corrupt_model_images_are_refused_while_live_sessions_decode() {
    let runtime = AsrRuntime::demo_with(RuntimeConfig::new().lanes(2)).unwrap();
    let audio = runtime.render_words(&["play", "music"]).unwrap();

    // A valid image of the runtime's own graph, then a stable of
    // corruptions of it: truncation, bad magic, an out-of-range arc
    // target.
    let sorted = SortedWfst::new(runtime.graph()).unwrap();
    let good = store::to_bytes(&sorted);
    let wild_arc = {
        // Section table entry 1 (the arc section) holds its offset at
        // byte 48 + 1*24 + 8; the first record's dest field leads it.
        let off = u64::from_le_bytes(good[48 + 24 + 8..48 + 24 + 16].try_into().unwrap()) as usize;
        let mut b = good.clone();
        b[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        b
    };
    let bad_magic = {
        let mut b = good.clone();
        b[0] = b'!';
        b
    };
    let corruptions: Vec<Vec<u8>> = vec![good[..good.len() / 2].to_vec(), bad_magic, wild_arc];

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..3 {
            let runtime = runtime.clone();
            let audio = audio.clone();
            handles.push(scope.spawn(move || {
                for _ in 0..4 {
                    let mut session = runtime.open_session();
                    for packet in audio.samples.chunks(160) {
                        session.push_samples(packet);
                    }
                    let t = session.finalize();
                    assert_eq!(t.words, vec!["play", "music"], "session beside bad images");
                }
            }));
        }

        // Every corrupt image fails image validation with a typed
        // error; the registry never sees a name appear.
        for bytes in &corruptions {
            match GraphImage::from_bytes(bytes) {
                Err(
                    WfstError::Corrupt(_)
                    | WfstError::LayoutMismatch { .. }
                    | WfstError::UnknownState(_),
                ) => {}
                Ok(_) => panic!("corrupt image must not validate"),
                Err(other) => panic!("unexpected error class: {other}"),
            }
            assert!(runtime.stats().models.is_empty());
        }

        for handle in handles {
            handle.join().expect("live session thread");
        }
    });

    // The good image still registers and serves afterwards — and a
    // session on it decodes the same words as the default graph (it is
    // the same transducer, degree-sorted).
    let image = GraphImage::from_bytes(&good).expect("pristine image validates");
    runtime.register_model_image("sorted", image).unwrap();
    let mut session = runtime
        .try_open_session_with(SessionOptions::new().model("sorted"))
        .unwrap();
    session.push_frames(&runtime.score(&audio));
    assert_eq!(session.finalize().words, vec!["play", "music"]);

    let stats = runtime.stats();
    assert_eq!(stats.active_sessions, 0);
    assert_eq!(
        stats.scratch.checkouts(),
        stats.scratch.restores,
        "scratch pool balanced through the fault storm"
    );
    assert_eq!(stats.models.len(), 1);
    assert!(stats.models[0].image_backed);
    assert_eq!(stats.models[0].opened_sessions, 1);
}

#[test]
fn stats_surface_scratch_and_executor_counters() {
    let runtime = AsrRuntime::demo_with(RuntimeConfig::new().lanes(3)).unwrap();

    // Before any decode: executor not spawned, nothing counted.
    let before = runtime.stats();
    assert!(before.executor.is_none(), "stats never spawn the executor");
    assert_eq!(before.scratch.checkouts(), 0);

    // Overlapped raw-audio sessions schedule fork/join jobs on the
    // shared pool.
    let audio = runtime.render_words(&["play", "music"]).unwrap();
    for _ in 0..3 {
        let mut session = runtime.open_session();
        for packet in audio.samples.chunks(160) {
            session.push_samples(packet);
        }
        assert_eq!(session.finalize().words, vec!["play", "music"]);
    }

    let after = runtime.stats();
    let executor = after.executor.expect("overlap spun the executor up");
    assert!(
        executor.jobs_submitted > 0,
        "overlapped frames went through the scheduler"
    );
    // Read at quiescence: every offered chunk ran on a lane or was
    // stolen back by its own submitter, so nothing is left waiting.
    assert_eq!(
        executor.tasks_taken_by_lanes + executor.tasks_stolen_back,
        executor.tasks_queued,
        "every offered chunk was run exactly once"
    );
    assert_eq!(executor.tasks_helped, 0);
    assert_eq!(after.scratch, runtime.scratch_pool().stats());
    assert_eq!(after.scratch.checkouts(), after.scratch.restores);
}
