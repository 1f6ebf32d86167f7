//! Pins the zero-copy claim of the v2 graph store with a counting
//! allocator: validating a 200k-state image into a [`GraphImage`] must not
//! copy the arc records. The arc section alone is ~10 MB; the
//! load is allowed only the small owned side tables (direct-index
//! registers, renumbering bookkeeping), so the test bounds both the number
//! of allocation calls and the total bytes allocated far below the arc
//! section size, and asserts the typed views point into the image buffer
//! itself.

use asr_wfst::sorted::SortedWfst;
use asr_wfst::store::{self, GraphImage, ImageBytes};
use asr_wfst::synth::{SynthConfig, SynthWfst};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The counters are process-global, so tests in this binary must not run
/// their counted phases concurrently; each test body holds this lock.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct CountingAllocator;

// SAFETY: defers to the system allocator; the counters are metadata only.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns `(alloc_calls, bytes_allocated)` during it.
fn count<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let calls = ALLOC_CALLS.load(Ordering::Relaxed);
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed);
    let out = f();
    (
        out,
        ALLOC_CALLS.load(Ordering::Relaxed) - calls,
        ALLOC_BYTES.load(Ordering::Relaxed) - bytes,
    )
}

/// Everything a load may allocate, itemized: validation's transient
/// epsilon-flag bitmap (one bit per arc), the graph's epsilon summary
/// (one bit per state), and a page of registers and struct boxes — 1/128
/// of the arc section plus 1/64 of the state section, never a record.
fn side_table_budget(sorted: &SortedWfst) -> u64 {
    let w = sorted.wfst();
    (w.num_arcs() / 8 + w.num_states() / 8 + 4096) as u64
}

fn contains<T>(bytes: &[u8], slice: &[T]) -> bool {
    let range = bytes.as_ptr_range();
    let ptr = slice.as_ptr().cast::<u8>();
    ptr >= range.start && ptr.wrapping_add(std::mem::size_of_val(slice)) <= range.end
}

#[test]
fn loading_a_200k_state_image_copies_no_arc_records() {
    let _guard = serialized();
    // Authoring side, outside the counted region: synthesize, degree-sort,
    // serialize, and stage the bytes in the aligned buffer a file read
    // would produce.
    let wfst = SynthWfst::generate(&SynthConfig::with_states(200_000).with_seed(5)).unwrap();
    let sorted = SortedWfst::new(&wfst).unwrap();
    let image_bytes = ImageBytes::from_slice(&store::to_bytes(&sorted));
    let arc_section_bytes = (sorted.wfst().num_arcs() * 16) as u64;
    assert!(
        arc_section_bytes > 5_000_000,
        "fixture too small to make the zero-copy bound meaningful"
    );

    let (image, calls, bytes) = count(|| GraphImage::from_image_bytes(image_bytes).unwrap());

    // The load may allocate only the bit-per-record side tables and a
    // handful of struct boxes — never the arc or state records. Both
    // bounds sit orders of magnitude below the ~10 MB arc section.
    assert!(
        bytes <= side_table_budget(&sorted),
        "loading allocated {bytes} bytes against a {arc_section_bytes}-byte \
         arc section: records are being copied"
    );
    assert!(
        calls < 64,
        "loading performed {calls} allocations; validation should not build \
         per-record containers"
    );

    // The typed views must alias the image buffer, not an owned copy.
    let w = image.wfst();
    assert!(contains(image.as_bytes(), w.arc_entries()));
    assert!(contains(image.as_bytes(), w.state_entries()));
    assert!(w.is_image_backed());
    assert_eq!(w.num_states(), 200_000);
    assert_eq!(image.resident_bytes(), image.as_bytes().len());
}

#[test]
fn reloading_the_image_reuses_the_buffer_without_new_views_allocating() {
    let _guard = serialized();
    let wfst = SynthWfst::generate(&SynthConfig::with_states(20_000).with_seed(6)).unwrap();
    let sorted = SortedWfst::new(&wfst).unwrap();
    let image_bytes = ImageBytes::from_slice(&store::to_bytes(&sorted));

    let first = GraphImage::from_image_bytes(image_bytes.clone()).unwrap();
    // An image holds several handles on the buffer (its own plus one per
    // zero-copy section view); what matters is that a second load adds the
    // same fixed number of handles — and zero new record storage — and
    // that dropping an image returns every one of them.
    let handles_per_image = image_bytes.ref_count() - 1; // minus the local `image_bytes`
    let (second, _, bytes) = count(|| GraphImage::from_image_bytes(image_bytes.clone()).unwrap());

    assert!(bytes <= side_table_budget(&sorted));
    assert_eq!(
        image_bytes.ref_count(),
        1 + 2 * handles_per_image,
        "second load must add exactly one image's worth of buffer handles"
    );
    assert_eq!(
        first.wfst().arc_entries().as_ptr(),
        second.wfst().arc_entries().as_ptr(),
        "both images must view the same arc records"
    );
    drop(first);
    assert_eq!(image_bytes.ref_count(), 1 + handles_per_image);
}

#[test]
fn builder_path_allocates_per_record_where_the_image_path_does_not() {
    let _guard = serialized();
    // A direct head-to-head on the same graph: rebuilding the sorted
    // structure from an owned transducer must allocate at least the full
    // record arrays, while the image path stays under 1% of that.
    let wfst = SynthWfst::generate(&SynthConfig::with_states(50_000).with_seed(7)).unwrap();
    let sorted = SortedWfst::new(&wfst).unwrap();
    let image_bytes = ImageBytes::from_slice(&store::to_bytes(&sorted));

    let (rebuilt, _, builder_bytes) = count(|| SortedWfst::new(&wfst).unwrap());
    let (image, _, image_load_bytes) = count(|| GraphImage::from_image_bytes(image_bytes).unwrap());

    let record_bytes = (rebuilt.wfst().num_arcs() * 16 + rebuilt.wfst().num_states() * 8) as u64;
    assert!(
        builder_bytes >= record_bytes,
        "builder path allocated {builder_bytes} bytes for {record_bytes} bytes \
         of records — expected at least one full materialization"
    );
    assert!(
        image_load_bytes * 100 < builder_bytes,
        "image load ({image_load_bytes} B) is not at least 100x leaner than \
         the builder path ({builder_bytes} B)"
    );
    assert_eq!(image.wfst().state_entries(), rebuilt.wfst().state_entries());
}
