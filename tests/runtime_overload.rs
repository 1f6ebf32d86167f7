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
//! 2. A corrupted graph layout (direct-index registers shifted out
//!    from under a prepared accelerator decode) surfaces as a typed
//!    [`WfstError::LayoutMismatch`] while live sessions keep decoding,
//!    and afterwards the scratch pool shows a full restore — nothing
//!    poisoned, nothing leaked.
//! 3. [`AsrRuntime::stats`] surfaces the whole signal chain: session
//!    counts, shed counts, scratch-pool counters, and the executor's
//!    scheduling counters.
//! 4. Registering a corrupt store image is a typed refusal that leaves
//!    the registry, the admission books, and every live session
//!    untouched — fault injection on the model-loading path.
//!
//! [`AsrRuntime::try_open_session`]: asr_repro::runtime::AsrRuntime::try_open_session
//! [`AsrRuntime::stats`]: asr_repro::runtime::AsrRuntime::stats
//! [`PipelineError::Overloaded`]: asr_repro::runtime::PipelineError::Overloaded
//! [`WfstError::LayoutMismatch`]: asr_repro::wfst::WfstError::LayoutMismatch

use asr_repro::accel::config::{AcceleratorConfig, DesignPoint};
use asr_repro::accel::sim::PreparedWfst;
use asr_repro::on_accelerator;
use asr_repro::runtime::{AsrRuntime, PipelineError, RuntimeConfig, SessionOptions};
use asr_repro::wfst::sorted::{DirectIndexUnit, SortedWfst};
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

/// Shifts every direct-index offset register by one arc: each direct
/// computation now points past the real range start, which the
/// simulator's layout validation must refuse.
fn corrupt_layout(prepared: PreparedWfst) -> PreparedWfst {
    let PreparedWfst::Sorted(mut sorted) = prepared else {
        panic!("state-optimized designs prepare a sorted layout");
    };
    let unit = sorted.unit();
    let offsets: Vec<i64> = (0..unit.threshold() as u32)
        .map(|g| unit.group_offset(g as usize) + 1)
        .collect();
    let boundaries = (1..=unit.threshold())
        .map(|d| unit.group_boundary(d - 1))
        .collect();
    sorted.replace_unit(DirectIndexUnit::from_registers(boundaries, offsets));
    PreparedWfst::Sorted(sorted)
}

#[test]
fn corrupted_layout_is_a_typed_error_under_live_sessions() {
    let runtime = AsrRuntime::demo_with(RuntimeConfig::new().lanes(2)).unwrap();
    let cfg = AcceleratorConfig::for_design(DesignPoint::StateOpt);
    let audio = runtime.render_words(&["call", "mom"]).unwrap();

    // A healthy prepared layout decodes fine; then corrupt its
    // direct-index registers out from under the runtime.
    let healthy = on_accelerator::prepare(&runtime, &cfg).unwrap();
    let (transcript, _) =
        on_accelerator::recognize_prepared(&runtime, &audio, cfg.clone(), &healthy).unwrap();
    assert_eq!(transcript.words, vec!["call", "mom"]);
    let corrupted = corrupt_layout(healthy);

    std::thread::scope(|scope| {
        // Live sessions keep decoding while the accelerator path fails
        // repeatedly next to them.
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
                    assert_eq!(t.words, vec!["call", "mom"], "session beside faults");
                }
            }));
        }

        for _ in 0..6 {
            match on_accelerator::recognize_prepared(&runtime, &audio, cfg.clone(), &corrupted) {
                Err(PipelineError::Wfst(WfstError::LayoutMismatch { .. })) => {}
                Ok(_) => panic!("corrupted layout must be refused"),
                Err(other) => panic!("expected LayoutMismatch, got {other}"),
            }
        }

        for handle in handles {
            handle.join().expect("live session thread");
        }
    });

    // Nothing poisoned: every scratch came home, the runtime still
    // serves, and a freshly prepared layout decodes again.
    let stats = runtime.stats();
    assert_eq!(
        stats.scratch.checkouts(),
        stats.scratch.restores,
        "scratch pool fully restored after the fault storm"
    );
    assert_eq!(stats.active_sessions, 0);
    assert_eq!(runtime.recognize(&audio).words, vec!["call", "mom"]);
    let reprepared = on_accelerator::prepare(&runtime, &cfg).unwrap();
    let (again, _) =
        on_accelerator::recognize_prepared(&runtime, &audio, cfg, &reprepared).unwrap();
    assert_eq!(again.words, vec!["call", "mom"]);
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
            assert!(runtime.model_names().is_empty());
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
    assert_eq!(before.executor_queue_depth, 0);
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
    assert_eq!(
        executor.tasks_taken_by_lanes + executor.tasks_stolen_back + executor.tasks_helped,
        executor.tasks_queued,
        "every queued task was owned exactly once"
    );
    assert_eq!(
        after.executor_queue_depth, 0,
        "quiesced pool has an empty queue"
    );
    assert_eq!(after.scratch, runtime.scratch_pool().stats());
    assert_eq!(after.scratch.checkouts(), after.scratch.restores);
}
