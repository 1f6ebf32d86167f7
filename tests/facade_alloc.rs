//! Allocation accounting for the pooled facade serving path.
//!
//! The claim under test: once the pipeline's [`ScratchPool`] is warm, a
//! decode through the facade — batch `recognize_scores` or a streaming
//! session — performs **zero steady-state heap allocations per frame**.
//! Two pins:
//!
//! 1. Identical warmed decodes allocate identically (no drift from pool
//!    churn).
//! 2. A 4x-longer utterance costs at most a logarithmic number of extra
//!    allocations (lattice/stat-vector doubling), never a per-frame one.
//!
//! Same methodology as the decoder crate's `tests/alloc_free.rs`, one
//! layer up: here the pool checkout/restore, the session's double-buffered
//! row handoff, and the transcript assembly are all inside the counted
//! region. The facade wraps `AsrRuntime`, so these pins cover owned
//! runtime `Session`s too; the dedicated runtime test additionally pins
//! the *overlapped* (shared-executor) push path.

use asr_repro::acoustic::scores::AcousticTable;
use asr_repro::runtime::{AsrRuntime, BatchScoringConfig, RuntimeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// The counter is process-global, so tests in this binary must not run
/// their allocating phases concurrently; each test body holds this lock.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct CountingAllocator;

// SAFETY: defers to the system allocator; the counter is metadata only.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    f();
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

/// Streams `scores` through a session and returns the word count (so the
/// decode cannot be optimized away).
fn run_session(runtime: &AsrRuntime, scores: &AcousticTable) -> usize {
    let mut session = runtime.open_session();
    session.push_frames(scores);
    session.finalize().words.len()
}

#[test]
fn warmed_facade_decodes_allocate_identically() {
    let _guard = serialized();
    let runtime = AsrRuntime::demo().unwrap();
    let audio = runtime.render_words(&["play", "music"]).unwrap();
    let scores = runtime.score(&audio);

    // Warm the pool and every watermark.
    runtime.recognize_scores(&scores);
    let first = count_allocs(|| {
        runtime.recognize_scores(&scores);
    });
    let second = count_allocs(|| {
        runtime.recognize_scores(&scores);
    });
    assert_eq!(
        first, second,
        "identical decodes through the warmed pool must allocate identically"
    );
}

#[test]
fn facade_frame_loop_is_allocation_free() {
    let _guard = serialized();
    let runtime = AsrRuntime::demo().unwrap();
    // Same two words repeated: the long utterance has ~4x the frames but
    // recognizes a word sequence only 4x longer, so any per-frame
    // allocation dominates the delta.
    let short_words = ["lights", "on"];
    let long_words = [
        "lights", "on", "lights", "on", "lights", "on", "lights", "on",
    ];
    let short_scores = runtime.score(&runtime.render_words(&short_words).unwrap());
    let long_scores = runtime.score(&runtime.render_words(&long_words).unwrap());
    assert!(
        long_scores.num_frames() >= 3 * short_scores.num_frames(),
        "long workload must dwarf the short one"
    );

    // Warm every watermark with the longest workload.
    assert_eq!(run_session(&runtime, &long_scores), long_words.len());

    let mut short_len = 0;
    let short_allocs = count_allocs(|| {
        short_len = run_session(&runtime, &short_scores);
    });
    let mut long_len = 0;
    let long_allocs = count_allocs(|| {
        long_len = run_session(&runtime, &long_scores);
    });
    assert_eq!(short_len, short_words.len());
    assert_eq!(long_len, long_words.len());

    // The long decode emits 6 extra words (6 `String`s + amortized
    // `Vec` growth) and may double the lattice/stat vectors a few more
    // times; a slack of 24 absorbs all of that, while a single
    // per-frame allocation would add ~100+.
    let frame_delta = (long_scores.num_frames() - short_scores.num_frames()) as u64;
    assert!(
        long_allocs <= short_allocs + 24,
        "{frame_delta} extra frames cost {long_allocs} allocations vs {short_allocs}: \
         the pooled facade path is allocating per frame"
    );
}

#[test]
fn audio_session_pushes_are_allocation_free_after_warmup() {
    let _guard = serialized();
    // One lane: the session scores blocks of frames on its own thread,
    // so the counted region crosses block edges and sync points.
    let runtime = AsrRuntime::demo_with(RuntimeConfig::new().lanes(1)).unwrap();
    let words = [
        "play", "music", "play", "music", "play", "music", "play", "music", "play", "music",
    ];
    let audio = runtime.render_words(&words).unwrap();
    // Warm the pools: decode scratch, session row buffers, and the online
    // front-end (ring, FFT scratch, delta windows, ready queue).
    {
        let mut session = runtime.open_session();
        session.push_samples(&audio.samples);
        session.finalize();
    }

    let mut session = runtime.open_session();
    let chunks: Vec<&[f32]> = audio.samples.chunks(160).collect();
    let tail_start = chunks.len() * 2 / 3;
    for piece in &chunks[..tail_start] {
        session.push_samples(piece);
    }
    let steady = count_allocs(|| {
        for (hop, piece) in chunks[tail_start..].iter().enumerate() {
            session.push_samples(piece);
            if hop % 13 == 12 {
                session.flush_scoring();
            }
        }
    });
    let frames = (chunks.len() - tail_start) as u64;
    assert!(
        frames >= 40,
        "workload too small to separate per-frame allocation from noise"
    );
    assert!(
        steady <= 8,
        "{frames} steady-state raw-audio pushes performed {steady} allocations: \
         the online front-end is allocating per frame"
    );
    drop(session);
}

#[test]
fn runtime_session_pushes_are_allocation_free_after_warmup() {
    let _guard = serialized();
    // Two executor lanes, so the session overlaps: the counted region is
    // the *pipelined* push path — fork-join submission, steal-back, and
    // the worker-side scoring all inside the allocation count.
    let runtime = AsrRuntime::demo_with(RuntimeConfig::new().lanes(2)).unwrap();
    let words = [
        "play", "music", "play", "music", "play", "music", "play", "music", "play", "music",
    ];
    let audio = runtime.render_words(&words).unwrap();
    // Warm every pool and queue: decode scratch, session row buffers,
    // the online front-end, the executor's injector/deque capacities,
    // and the worker thread's lazy initialization.
    {
        let mut session = runtime.open_session();
        session.push_samples(&audio.samples);
        session.finalize();
    }

    let mut session = runtime.open_session();
    let chunks: Vec<&[f32]> = audio.samples.chunks(160).collect();
    let tail_start = chunks.len() * 2 / 3;
    for piece in &chunks[..tail_start] {
        session.push_samples(piece);
    }
    let steady = count_allocs(|| {
        for piece in &chunks[tail_start..] {
            session.push_samples(piece);
        }
    });
    let frames = (chunks.len() - tail_start) as u64;
    assert!(
        frames >= 40,
        "workload too small to separate per-frame allocation from noise"
    );
    assert!(
        steady <= 8,
        "{frames} steady-state overlapped pushes performed {steady} allocations: \
         the shared-executor session path is allocating per frame"
    );
    drop(session);
}

#[test]
fn multi_row_session_pushes_are_allocation_free_after_warmup() {
    let _guard = serialized();
    // 517-sample packets on two lanes, so most pushes complete several
    // frames: the counted region covers the frame gather, one two-chunk
    // fork-join per frame, the queue's two swapping buffers and the
    // executor handoff. The steady state must not allocate per frame —
    // or per push.
    let runtime = AsrRuntime::demo_with(RuntimeConfig::new().lanes(2)).unwrap();
    let words = [
        "play", "music", "play", "music", "play", "music", "play", "music", "play", "music",
    ];
    let audio = runtime.render_words(&words).unwrap();
    // Warm the shared pools (front-end, scratch, executor) once.
    {
        let mut session = runtime.open_session();
        session.push_samples(&audio.samples);
        session.finalize();
    }

    let mut session = runtime.open_session();
    let chunks: Vec<&[f32]> = audio.samples.chunks(517).collect();
    // The session-local buffers warm during the first two thirds; the
    // tail must ride them.
    let tail_start = chunks.len() * 2 / 3;
    for piece in &chunks[..tail_start] {
        session.push_samples(piece);
    }
    let steady = count_allocs(|| {
        for piece in &chunks[tail_start..] {
            session.push_samples(piece);
        }
    });
    let samples: usize = chunks[tail_start..].iter().map(|piece| piece.len()).sum();
    let frames = (samples / 160) as u64;
    assert!(
        frames >= 40,
        "workload too small to separate per-frame allocation from noise"
    );
    assert!(
        steady <= 8,
        "{frames} steady-state frames in multi-row pushes performed {steady} allocations: \
         the overlapped path is allocating per frame"
    );
    drop(session);
}

#[test]
fn batched_session_pushes_are_allocation_free_after_warmup() {
    let _guard = serialized();
    // Two sessions sharing the gather window: the counted region is the
    // full batched frame path — submit into the window, the inline
    // block flush (scoring both sessions' rows), scatter into the
    // per-slot ready queues, and the drain back through each session's
    // ALB handoff. The window, its scatter buffers, the ready queues,
    // and the pooled front-ends are all preallocated or warmed, so the
    // steady state must not allocate per frame.
    let runtime = AsrRuntime::demo_with(
        RuntimeConfig::new()
            .lanes(1)
            .batch_scoring(BatchScoringConfig::new(4)),
    )
    .unwrap();
    let words = [
        "play", "music", "play", "music", "play", "music", "play", "music", "play", "music",
    ];
    let audio = runtime.render_words(&words).unwrap();
    let chunks: Vec<&[f32]> = audio.samples.chunks(160).collect();
    // Warm everything once: slots, ready-queue capacities, front-ends,
    // decode scratches, and both sessions' row buffers.
    {
        let mut a = runtime.open_session();
        let mut b = runtime.open_session();
        for piece in &chunks {
            a.push_samples(piece);
            b.push_samples(piece);
        }
        a.finalize();
        b.finalize();
    }

    let mut a = runtime.open_session();
    let mut b = runtime.open_session();
    let tail_start = chunks.len() * 2 / 3;
    for piece in &chunks[..tail_start] {
        a.push_samples(piece);
        b.push_samples(piece);
    }
    let steady = count_allocs(|| {
        for piece in &chunks[tail_start..] {
            a.push_samples(piece);
            b.push_samples(piece);
        }
    });
    let frames = 2 * (chunks.len() - tail_start) as u64;
    assert!(
        frames >= 80,
        "workload too small to separate per-frame allocation from noise"
    );
    assert!(
        steady <= 16,
        "{frames} steady-state batched pushes performed {steady} allocations: \
         the gather/scatter path is allocating per frame"
    );
    assert!(
        runtime.stats().batch.expect("service configured").batches > 0,
        "the counted region must actually ride the batched path"
    );
    drop(a);
    drop(b);
}

#[test]
fn session_pushes_are_allocation_free_after_warmup() {
    let _guard = serialized();
    let runtime = AsrRuntime::demo().unwrap();
    let words = [
        "call", "mom", "call", "mom", "call", "mom", "call", "mom", "call", "mom",
    ];
    let scores = runtime.score(&runtime.render_words(&words).unwrap());
    run_session(&runtime, &scores); // warm the pool

    let mut session = runtime.open_session();
    // The early pushes size the double-buffered row pair and grow the
    // per-session lattice through its doubling schedule; by the last
    // third, storage is warm and pushes ride it.
    let tail_start = scores.num_frames() * 2 / 3;
    for frame in 0..tail_start {
        session.push_row(scores.frame_row(frame));
    }
    let steady = count_allocs(|| {
        for frame in tail_start..scores.num_frames() {
            session.push_row(scores.frame_row(frame));
        }
    });
    let frames = (scores.num_frames() - tail_start) as u64;
    assert!(
        frames >= 40,
        "workload too small to separate per-frame allocation from noise"
    );
    assert!(
        steady <= 8,
        "{frames} steady-state pushes performed {steady} allocations"
    );
    drop(session);
}
