//! Allocation accounting for the token-table hot path.
//!
//! The claim under test: the steady-state frame loop performs **zero heap
//! allocations per frame**. With a warmed [`DecodeScratch`], the only
//! allocations a decode may perform are amortized container growth (the
//! per-frame stats vector) — counts that grow logarithmically, not
//! linearly, in the number of frames — and the result's words. A single
//! allocation per frame would separate a 200-frame decode from a 50-frame
//! decode by 150+ counts; the test allows a slack of 16 for the
//! logarithmic growth. The same holds for streaming decodes stepped
//! round-robin on one thread, sharing its state index. The token trace
//! lives in the scratch, so a warmed scratch repeating an utterance
//! allocates exactly the stats vector's doublings and the words.

use asr_acoustic::scores::AcousticTable;
use asr_decoder::search::{DecodeOptions, DecodeScratch, FrameStats, ViterbiDecoder};
use asr_decoder::stream::StreamingDecode;
use asr_testkit::{graph, rows};
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

/// Allocations a `Vec<T>` makes growing from empty to `len` elements by
/// `push`: its doublings.
fn push_growth<T: Default>(len: usize) -> u64 {
    let mut grown: Vec<T> = Vec::new();
    count_allocs(|| {
        for _ in 0..len {
            grown.push(T::default());
        }
    })
}

#[test]
fn steady_state_frame_loop_is_allocation_free() {
    let _guard = serialized();
    let wfst = graph(5_000, 3);
    let short_scores = rows(&wfst, 50, 7);
    let long_scores = rows(&wfst, 200, 7);
    let decoder = ViterbiDecoder::new(DecodeOptions::with_beam(6.0));
    let mut scratch = DecodeScratch::new(wfst.num_states());

    // Warm every watermark with the longest workload.
    let warm = decoder.decode_with(&mut scratch, &wfst, &long_scores);
    assert!(warm.cost.is_finite());

    let mut short_allocs = 0;
    let short_result = count_allocs(|| {
        let r = decoder.decode_with(&mut scratch, &wfst, &short_scores);
        short_allocs = r.stats.frames.len() as u64; // keep the result alive
    });
    let mut long_allocs = 0;
    let long_result = count_allocs(|| {
        let r = decoder.decode_with(&mut scratch, &wfst, &long_scores);
        long_allocs = r.stats.frames.len() as u64;
    });

    assert!(
        long_result <= short_result + 16,
        "4x the frames cost {long_result} allocations vs {short_result}: \
         the frame loop is allocating per frame"
    );
    // Sanity: both decodes did real work.
    assert!(short_allocs > 0 && long_allocs > 0);
}

/// A warmed scratch repeating a long utterance (three lattice GCs, a
/// binding cap), batch and streamed: the decode allocates the stats
/// vector's doublings and the result's words, and nothing for its trace.
#[test]
fn a_recycled_trace_allocates_nothing() {
    let _guard = serialized();
    let wfst = graph(5_000, 3);
    let scores = rows(&wfst, 120, 11);
    let opts = DecodeOptions {
        max_active: Some(300),
        ..DecodeOptions::with_beam(6.0)
    };
    let decoder = ViterbiDecoder::new(opts.clone());
    let mut scratch = DecodeScratch::new(wfst.num_states());
    let warm = decoder.decode_with(&mut scratch, &wfst, &scores);
    assert!(!warm.words.is_empty(), "the words must allocate");
    let trace = scratch.trace_len();
    let expected = |frames: &[FrameStats], words: usize| {
        push_growth::<FrameStats>(frames.len()) + u64::from(words > 0)
    };
    for _ in 0..3 {
        let mut result = None;
        let allocs =
            count_allocs(|| result = Some(decoder.decode_with(&mut scratch, &wfst, &scores)));
        let result = result.unwrap();
        assert_eq!(result.words, warm.words);
        assert_eq!(scratch.trace_len(), trace);
        let want = expected(&result.stats.frames, result.words.len());
        assert_eq!(allocs, want, "batch: stats doublings and words only");

        let mut out = None;
        let allocs = count_allocs(|| {
            let mut decode = StreamingDecode::new(&wfst, opts.clone(), scratch);
            let frames = scores.num_frames();
            for frame in 0..frames - 1 {
                decode.step(scores.frame_row(frame));
            }
            out = Some(decode.finish(Some(scores.frame_row(frames - 1))));
        });
        let (result, recycled) = out.unwrap();
        scratch = recycled;
        assert_eq!(result.words, warm.words);
        let want = expected(&result.stats.frames, result.words.len());
        assert_eq!(allocs, want, "streamed: stats doublings and words only");
    }
}

#[test]
fn warmed_repeat_decodes_have_identical_allocation_counts() {
    let _guard = serialized();
    let wfst = graph(3_000, 9);
    let scores = rows(&wfst, 80, 13);
    let decoder = ViterbiDecoder::new(DecodeOptions::with_beam(6.0));
    let mut scratch = DecodeScratch::new(wfst.num_states());
    decoder.decode_with(&mut scratch, &wfst, &scores); // warm

    let first = count_allocs(|| {
        decoder.decode_with(&mut scratch, &wfst, &scores);
    });
    let second = count_allocs(|| {
        decoder.decode_with(&mut scratch, &wfst, &scores);
    });
    assert_eq!(
        first, second,
        "identical decodes through warmed scratch must allocate identically"
    );
}

/// Four streaming decodes over `tables`, one row each in turn on this
/// thread (so they share its state index), each through a scratch from
/// `scratches` that is handed back for the next run. Returns a number
/// that keeps the results alive.
fn round_robin(
    wfst: &asr_wfst::Wfst,
    opts: &DecodeOptions,
    tables: &[AcousticTable],
    scratches: &mut Vec<DecodeScratch>,
) -> u64 {
    let mut decodes: Vec<StreamingDecode<&asr_wfst::Wfst>> = tables
        .iter()
        .zip(scratches.drain(..))
        .map(|(_, scratch)| StreamingDecode::new(wfst, opts.clone(), scratch))
        .collect();
    let frames = tables[0].num_frames();
    for frame in 0..frames - 1 {
        for (decode, scores) in decodes.iter_mut().zip(tables) {
            decode.step(scores.frame_row(frame));
        }
    }
    let mut kept = 0;
    for (decode, scores) in decodes.into_iter().zip(tables) {
        let (result, scratch) = decode.finish(Some(scores.frame_row(frames - 1)));
        kept += (result.stats.frames.len() + scratch.trace_len()) as u64;
        scratches.push(scratch);
    }
    kept
}

#[test]
fn interleaved_sessions_step_without_allocating() {
    let _guard = serialized();
    let wfst = graph(5_000, 3);
    let tables = |frames| -> Vec<AcousticTable> {
        (0..4).map(|seed| rows(&wfst, frames, 20 + seed)).collect()
    };
    let (short, long) = (tables(50), tables(200));
    let opts = DecodeOptions {
        max_active: Some(300),
        ..DecodeOptions::with_beam(6.0)
    };
    let mut scratches: Vec<DecodeScratch> = (0..4)
        .map(|_| DecodeScratch::new(wfst.num_states()))
        .collect();

    // Warm the thread's index and every list with the longest workload.
    assert!(round_robin(&wfst, &opts, &long, &mut scratches) > 0);

    let mut kept = 0;
    let short_allocs = count_allocs(|| kept += round_robin(&wfst, &opts, &short, &mut scratches));
    let long_allocs = count_allocs(|| kept += round_robin(&wfst, &opts, &long, &mut scratches));
    let again = count_allocs(|| kept += round_robin(&wfst, &opts, &long, &mut scratches));
    assert!(kept > 0);
    // 4 x 150 more frames: one allocation per frame would add 600.
    assert!(
        long_allocs <= short_allocs + 32,
        "4x the interleaved frames cost {long_allocs} allocations vs {short_allocs}: \
         the frame loop is allocating per frame"
    );
    assert_eq!(
        long_allocs, again,
        "warmed repeats must allocate identically"
    );
}

#[test]
fn the_last_scratch_takes_the_threads_frame_scratch_with_it() {
    let _guard = serialized();
    let wfst = graph(5_000, 3);
    let scores = rows(&wfst, 40, 7);
    let decoder = ViterbiDecoder::new(DecodeOptions::with_beam(6.0));
    let decode_fresh = || {
        let mut scratch = DecodeScratch::new(wfst.num_states());
        count_allocs(|| {
            decoder.decode_with(&mut scratch, &wfst, &scores);
        })
    };

    // While a scratch is alive the thread keeps its state index and frame
    // buffers, so a decode on a fresh scratch allocates only its own.
    let mut held = DecodeScratch::new(wfst.num_states());
    decoder.decode_with(&mut held, &wfst, &scores);
    let kept = decode_fresh();
    // Dropping the last one releases them: the next decode grows them
    // again.
    drop(held);
    let released = decode_fresh();
    assert!(
        released > kept,
        "{released} allocations after the release vs {kept} with the index kept"
    );
}
