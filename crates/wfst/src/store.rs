//! Zero-copy graph store: the one serialized image of a [`SortedWfst`].
//!
//! Section IV of the paper is a bandwidth argument: the accelerator walks
//! compact arc records straight out of DRAM, with no intermediate
//! reconstruction. This module keeps that property on the software side,
//! end to end:
//!
//! * [`to_bytes`] serializes the *full* [`SortedWfst`] — state table, arc
//!   array (both in the exact wire format of [`crate::layout`]), final
//!   costs, the [`DirectIndexUnit`] registers, and the state renumbering
//!   maps — into sections that are each 64-byte aligned inside the file,
//!   and [`save`] streams the same bytes to disk through the same writer;
//! * [`ImageBytes`] is a reference-counted buffer whose base address is
//!   64-byte aligned, so a file read lands every section at a correctly
//!   aligned address;
//! * [`GraphImage`] validates the header, section table and every
//!   structural invariant **once** (typed [`WfstError`]s, never a panic,
//!   however corrupt the input), then exposes a [`SortedWfst`] whose state,
//!   arc, final-cost and map arrays are typed views *directly over the
//!   buffer* — loading performs zero per-record copies and zero rebuilds.
//!
//! The cast from bytes to `&[Arc]`/`&[StateEntry]` is sound because the
//! records are `#[repr(C)]` with a layout pinned (by const assertions and
//! golden tests) to the little-endian wire format, every bit pattern of
//! every field is a valid value, and the one-time validation establishes
//! the semantic invariants [`Wfst::from_parts`] would have checked. On a
//! big-endian host the same API transparently falls back to an owned
//! decode.

use crate::layout::{self, ARC_BYTES, STATE_BYTES};
use crate::sorted::{DirectIndexUnit, SortedWfst};
use crate::{Arc, ArcId, Result, StateEntry, StateId, Wfst, WfstError};
use std::path::Path;

/// Version byte of the image container. It reads 2 because an earlier
/// container, which carried no layout registers, was version 1; no reader
/// of it remains, and any other version is rejected.
pub const STORE_VERSION: u8 = 2;

/// Magic number that opens every image: `b"WFST"`.
const MAGIC: &[u8; 4] = b"WFST";

/// Alignment of the buffer base and of every section offset: one cache
/// line, matching [`crate::layout::MemoryLayout`]'s arc-array alignment.
const SECTION_ALIGN: usize = 64;

/// Fixed header size in bytes (before the section table).
const HEADER_BYTES: usize = 48;
/// Bytes per section-table entry: kind, offset, length (u64 each).
const TABLE_ENTRY_BYTES: usize = 24;
/// Number of sections in an image, in fixed order.
const NUM_SECTIONS: usize = 7;
/// Offset of the first section: `align64(48 + 7 * 24) = 256`.
const FIRST_SECTION_OFFSET: usize = 256;

/// Section kind tags, in the fixed order they appear in the file.
const KIND_STATES: u64 = 1;
const KIND_ARCS: u64 = 2;
const KIND_FINALS: u64 = 3;
const KIND_BOUNDARIES: u64 = 4;
const KIND_OFFSETS: u64 = 5;
const KIND_OLD_TO_NEW: u64 = 6;
const KIND_NEW_TO_OLD: u64 = 7;

const KINDS: [u64; NUM_SECTIONS] = [
    KIND_STATES,
    KIND_ARCS,
    KIND_FINALS,
    KIND_BOUNDARIES,
    KIND_OFFSETS,
    KIND_OLD_TO_NEW,
    KIND_NEW_TO_OLD,
];

fn kind_name(kind: u64) -> &'static str {
    match kind {
        KIND_STATES => "states",
        KIND_ARCS => "arcs",
        KIND_FINALS => "finals",
        KIND_BOUNDARIES => "boundaries",
        KIND_OFFSETS => "offsets",
        KIND_OLD_TO_NEW => "old_to_new",
        KIND_NEW_TO_OLD => "new_to_old",
        _ => "unknown",
    }
}

fn corrupt(msg: impl Into<String>) -> WfstError {
    WfstError::Corrupt(msg.into())
}

fn align64(x: usize) -> usize {
    (x + (SECTION_ALIGN - 1)) & !(SECTION_ALIGN - 1)
}

// ---------------------------------------------------------------------------
// ImageBytes: a 64-byte-aligned, reference-counted, immutable byte buffer.
// ---------------------------------------------------------------------------

/// One cache line of storage; the `align(64)` is what guarantees that the
/// buffer base — and therefore every 64-byte-aligned section offset — is a
/// validly aligned address for the typed record views.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct Chunk([u8; SECTION_ALIGN]);

// The byte-stable image format depends on this exact layout; a drifted
// `Chunk` would silently misalign every section view.
const _: () = assert!(std::mem::size_of::<Chunk>() == SECTION_ALIGN);
const _: () = assert!(std::mem::align_of::<Chunk>() == SECTION_ALIGN);

/// A read-only, page-cache-shared file mapping. Pages fault in from the
/// kernel's cache instead of being copied into fresh heap pages, which is
/// what makes [`ImageBytes::read_file`] an order of magnitude cheaper than
/// a `read(2)` into a new buffer for a multi-megabyte image.
#[cfg(target_os = "linux")]
struct Mapping {
    base: std::ptr::NonNull<u8>,
    bytes: usize,
}

// SAFETY: the mapping is created `PROT_READ` and never remapped; concurrent
// readers see immutable memory, exactly like a shared `&[u8]`.
#[cfg(target_os = "linux")]
unsafe impl Send for Mapping {}
#[cfg(target_os = "linux")]
unsafe impl Sync for Mapping {}

#[cfg(target_os = "linux")]
impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: `base`/`bytes` describe exactly the region mmap returned,
        // and the last `ImageBytes` clone dropping is the only caller.
        unsafe { sys::munmap(self.base.as_ptr().cast(), self.bytes) };
    }
}

/// Raw bindings for the mapping syscalls; the symbols come from the libc
/// every Rust binary already links, so this adds no dependency.
#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_void};

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    /// Fault the whole range in eagerly: one kernel walk over the page
    /// cache instead of a trap per page during validation.
    pub const MAP_POPULATE: c_int = 0x8000;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
}

/// Storage behind an [`ImageBytes`] buffer.
#[derive(Clone)]
enum Backing {
    /// Heap chunks; `Chunk`'s `align(64)` pins the base alignment.
    Heap(std::sync::Arc<[Chunk]>),
    /// A shared read-only file mapping; page (4096-byte) alignment
    /// subsumes the 64-byte section alignment.
    #[cfg(target_os = "linux")]
    Mapped(std::sync::Arc<Mapping>),
}

/// An immutable, reference-counted byte buffer whose base address is
/// 64-byte aligned.
///
/// This is the unit of sharing of the graph store: every [`GraphImage`] —
/// and every [`SortedWfst`]/[`Wfst`] view derived from one — holds a clone
/// of the same `ImageBytes`, so cloning is an atomic refcount bump and the
/// underlying bytes are freed exactly once, when the last view drops.
#[derive(Clone)]
pub struct ImageBytes {
    backing: Backing,
    len: usize,
}

impl ImageBytes {
    /// Copies `bytes` into a freshly allocated aligned buffer.
    ///
    /// This is the only copy on the load path — one `memcpy` of the whole
    /// container, never per-record work — and is skipped entirely when the
    /// buffer is produced by [`ImageBytes::read_file`] (the file is read
    /// straight into aligned storage).
    pub fn from_slice(bytes: &[u8]) -> Self {
        let n = bytes.len().div_ceil(SECTION_ALIGN);
        let mut chunks = vec![Chunk([0u8; SECTION_ALIGN]); n];
        for (dst, src) in chunks.iter_mut().zip(bytes.chunks(SECTION_ALIGN)) {
            dst.0[..src.len()].copy_from_slice(src);
        }
        Self {
            backing: Backing::Heap(chunks.into()),
            len: bytes.len(),
        }
    }

    /// Makes a file's contents addressable in a new aligned buffer.
    ///
    /// On Linux this maps the file read-only (`MAP_POPULATE`d, shared with
    /// the page cache), so no bytes are copied at all; elsewhere — or if
    /// mapping fails — it falls back to reading into fresh heap storage.
    /// The mapped variant assumes the file is not truncated while any view
    /// of the buffer is alive (the usual contract of file-mapped model
    /// loaders); replace a deployed image by writing a new file and
    /// renaming it into place, never by rewriting it in place.
    ///
    /// # Errors
    ///
    /// Returns [`WfstError::Corrupt`] wrapping the underlying I/O failure.
    pub fn read_file(path: &Path) -> Result<Self> {
        use std::io::Read as _;
        let mut f =
            std::fs::File::open(path).map_err(|e| corrupt(format!("open {path:?}: {e}")))?;
        let len = f
            .metadata()
            .map_err(|e| corrupt(format!("stat {path:?}: {e}")))?
            .len();
        let len = usize::try_from(len).map_err(|_| corrupt("file exceeds address space"))?;
        #[cfg(target_os = "linux")]
        if let Some(mapped) = Self::map_file(&f, len) {
            return Ok(mapped);
        }
        let n = len.div_ceil(SECTION_ALIGN);
        let mut chunks = vec![Chunk([0u8; SECTION_ALIGN]); n];
        // View the chunk storage as plain bytes for the read. SAFETY: the
        // allocation holds `n * 64` initialized bytes and `u8` has no
        // invalid values.
        let storage = unsafe {
            std::slice::from_raw_parts_mut(chunks.as_mut_ptr().cast::<u8>(), n * SECTION_ALIGN)
        };
        f.read_exact(&mut storage[..len])
            .map_err(|e| corrupt(format!("read {path:?}: {e}")))?;
        Ok(Self {
            backing: Backing::Heap(chunks.into()),
            len,
        })
    }

    /// Maps `f` read-only into the address space; `None` falls back to the
    /// heap read (empty files cannot be mapped, and a constrained address
    /// space can refuse the mapping).
    #[cfg(target_os = "linux")]
    fn map_file(f: &std::fs::File, len: usize) -> Option<Self> {
        use std::os::unix::io::AsRawFd as _;
        if len == 0 {
            return None;
        }
        // SAFETY: a fresh anonymous address range of `len` bytes over an
        // fd we own; the result is checked before use.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE | sys::MAP_POPULATE,
                f.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return None;
        }
        let base = std::ptr::NonNull::new(ptr.cast::<u8>())?;
        Some(Self {
            backing: Backing::Mapped(std::sync::Arc::new(Mapping { base, bytes: len })),
            len,
        })
    }

    fn base(&self) -> *const u8 {
        match &self.backing {
            Backing::Heap(chunks) => chunks.as_ptr().cast(),
            #[cfg(target_os = "linux")]
            Backing::Mapped(m) => m.base.as_ptr(),
        }
    }

    /// The buffer contents.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: both backings hold at least `len` initialized, immutable
        // bytes for as long as any clone is alive.
        unsafe { std::slice::from_raw_parts(self.base(), self.len) }
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of views (clones) currently sharing this buffer.
    pub fn ref_count(&self) -> usize {
        match &self.backing {
            Backing::Heap(chunks) => std::sync::Arc::strong_count(chunks),
            #[cfg(target_os = "linux")]
            Backing::Mapped(m) => std::sync::Arc::strong_count(m),
        }
    }
}

impl std::fmt::Debug for ImageBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ImageBytes")
            .field("len", &self.len)
            .field("ref_count", &self.ref_count())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Record: types that have a pinned little-endian wire format.
// ---------------------------------------------------------------------------

/// A fixed-size record whose `#[repr(C)]` in-memory layout equals its
/// little-endian wire format, so an aligned byte run can be viewed as
/// `&[Self]` on little-endian hosts.
pub(crate) trait Record: Copy + 'static {
    /// Wire size in bytes; always `size_of::<Self>()`.
    const BYTES: usize;

    /// Decodes one record from its wire bytes. This is the big-endian
    /// fallback path; on little-endian hosts it is exercised by tests that
    /// cross-check the zero-copy cast against an explicit decode.
    #[cfg_attr(target_endian = "little", allow(dead_code))]
    fn from_le(bytes: &[u8]) -> Self;
}

impl Record for StateEntry {
    const BYTES: usize = STATE_BYTES as usize;
    fn from_le(bytes: &[u8]) -> Self {
        // LINT-ALLOW: panic — callers slice exactly `BYTES` bytes.
        layout::unpack_state(u64::from_le_bytes(bytes.try_into().expect("8-byte record")))
    }
}

impl Record for Arc {
    const BYTES: usize = ARC_BYTES as usize;
    fn from_le(bytes: &[u8]) -> Self {
        layout::unpack_arc(u128::from_le_bytes(
            // LINT-ALLOW: panic — callers slice exactly `BYTES` bytes.
            bytes.try_into().expect("16-byte record"),
        ))
    }
}

impl Record for f32 {
    const BYTES: usize = 4;
    fn from_le(bytes: &[u8]) -> Self {
        // LINT-ALLOW: panic — callers slice exactly `BYTES` bytes.
        f32::from_le_bytes(bytes.try_into().expect("4-byte record"))
    }
}

impl Record for u32 {
    const BYTES: usize = 4;
    fn from_le(bytes: &[u8]) -> Self {
        // LINT-ALLOW: panic — callers slice exactly `BYTES` bytes.
        u32::from_le_bytes(bytes.try_into().expect("4-byte record"))
    }
}

impl Record for i64 {
    const BYTES: usize = 8;
    fn from_le(bytes: &[u8]) -> Self {
        // LINT-ALLOW: panic — callers slice exactly `BYTES` bytes.
        i64::from_le_bytes(bytes.try_into().expect("8-byte record"))
    }
}

// ---------------------------------------------------------------------------
// Section: owned Vec or zero-copy view into an ImageBytes buffer.
// ---------------------------------------------------------------------------

/// Storage behind one typed array of a transducer: a `Vec` owned by the
/// value (the authoring path), or a zero-copy view into a shared, validated
/// [`ImageBytes`] buffer (the image path). Derefs to `[T]`, so every
/// consumer is oblivious to which it holds.
pub(crate) enum Section<T: 'static> {
    /// Heap-allocated storage owned by this section.
    Owned(Vec<T>),
    /// Borrow-free view into `_buf`; `ptr`/`len` stay valid because the
    /// reference-counted buffer is immutable and kept alive by `_buf`.
    View {
        ptr: *const T,
        len: usize,
        _buf: ImageBytes,
    },
}

// SAFETY: a `View` is an immutable window into an `Arc`-shared, never-mutated
// buffer, so sharing or sending it is exactly as safe as `&[T]`/`Arc<[T]>`.
unsafe impl<T: Send + Sync> Send for Section<T> {}
unsafe impl<T: Send + Sync> Sync for Section<T> {}

impl<T> std::ops::Deref for Section<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Section::Owned(v) => v,
            // SAFETY: `ptr`/`len` were validated against the pinned
            // buffer at construction, and `_buf` keeps it alive.
            Section::View { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }
}

impl<T> From<Vec<T>> for Section<T> {
    fn from(v: Vec<T>) -> Self {
        Section::Owned(v)
    }
}

impl<T: Clone> Clone for Section<T> {
    fn clone(&self) -> Self {
        match self {
            Section::Owned(v) => Section::Owned(v.clone()),
            Section::View { ptr, len, _buf } => Section::View {
                ptr: *ptr,
                len: *len,
                _buf: _buf.clone(),
            },
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Section<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T> Section<T> {
    /// Returns `true` for the zero-copy image-backed variant.
    pub(crate) fn is_view(&self) -> bool {
        matches!(self, Section::View { .. })
    }
}

impl<T: Record> Section<T> {
    /// Builds a typed view over `count` records starting at byte `offset`
    /// of `buf`. Zero-copy on little-endian hosts; decoded into an owned
    /// `Vec` on big-endian ones.
    ///
    /// # Errors
    ///
    /// Returns [`WfstError::Corrupt`] when the described range is out of
    /// bounds or misaligned for `T`.
    pub(crate) fn view(buf: &ImageBytes, offset: usize, count: usize) -> Result<Self> {
        const { assert!(Self::SIZE_MATCHES) };
        let byte_len = count
            .checked_mul(T::BYTES)
            .ok_or_else(|| corrupt("section size overflows"))?;
        let end = offset
            .checked_add(byte_len)
            .ok_or_else(|| corrupt("section end overflows"))?;
        if end > buf.len() {
            return Err(corrupt(format!(
                "section [{offset}, {end}) exceeds image of {} bytes",
                buf.len()
            )));
        }
        if !offset.is_multiple_of(std::mem::align_of::<T>()) {
            return Err(corrupt(format!("section offset {offset} is misaligned")));
        }
        #[cfg(target_endian = "little")]
        {
            let ptr = buf.as_bytes()[offset..end].as_ptr().cast::<T>();
            Ok(Section::View {
                ptr,
                len: count,
                _buf: buf.clone(),
            })
        }
        #[cfg(target_endian = "big")]
        {
            let b = &buf.as_bytes()[offset..end];
            Ok(Section::Owned(
                (0..count)
                    .map(|i| T::from_le(&b[i * T::BYTES..(i + 1) * T::BYTES]))
                    .collect(),
            ))
        }
    }

    /// The cast above is only meaningful while the wire size equals the
    /// in-memory size; pinned at compile time.
    const SIZE_MATCHES: bool = T::BYTES == std::mem::size_of::<T>();
}

// ---------------------------------------------------------------------------
// Writer: the authoring side.
// ---------------------------------------------------------------------------

/// Serializes the full degree-sorted transducer into an image.
///
/// Layout (all integers little-endian):
///
/// ```text
/// offset  size  field
///      0     4  magic  "WFST"
///      4     1  version (2)
///      5     3  reserved (zero)
///      8     8  num_states
///     16     8  num_arcs
///     24     4  start state (sorted numbering)
///     28     4  threshold N (comparator count)
///     32     4  num_phones
///     36     4  num_words
///     40     4  section count (7)
///     44     4  reserved (zero)
///     48   168  section table: 7 x { kind u64, offset u64, bytes u64 }
///    256        sections, each 64-byte aligned, zero padding between:
///               states      num_states x 8   (layout::pack_state)
///               arcs        num_arcs   x 16  (layout::pack_arc)
///               finals      num_states x 4   (f32; +inf = not final)
///               boundaries  N x 4            (DirectIndexUnit registers)
///               offsets     N x 8            (DirectIndexUnit registers)
///               old_to_new  num_states x 4
///               new_to_old  num_states x 4
/// ```
///
/// The bytes are exactly what [`save`] writes to a file: both sinks run
/// the one section writer.
pub fn to_bytes(sorted: &SortedWfst) -> Vec<u8> {
    let (offsets, sizes) = section_layout(sorted);
    let mut out = Vec::with_capacity(offsets[NUM_SECTIONS - 1] + sizes[NUM_SECTIONS - 1]);
    // LINT-ALLOW: panic — writing into a `Vec` never fails.
    write_image(sorted, &mut out).expect("in-memory write");
    out
}

/// Writes the image of `sorted` to `path`.
///
/// The image streams to the file section by section through one buffered
/// writer — the serializer of [`to_bytes`] — so it never exists in memory
/// whole: saving a 200k-state graph holds a 64 KiB buffer, not a second
/// 13 MiB copy of the graph.
///
/// # Errors
///
/// Returns [`WfstError::Corrupt`] wrapping the underlying I/O failure.
pub fn save(sorted: &SortedWfst, path: &Path) -> Result<()> {
    use std::io::Write as _;
    let f = std::fs::File::create(path).map_err(|e| corrupt(format!("create {path:?}: {e}")))?;
    let mut out = std::io::BufWriter::with_capacity(1 << 16, f);
    write_image(sorted, &mut out)
        .and_then(|()| out.flush())
        .map_err(|e| corrupt(format!("write {path:?}: {e}")))
}

/// Section offsets and byte lengths of `sorted`'s image, in file order:
/// each section starts at the next 64-byte boundary after the previous
/// one, and the image ends where the last section does.
fn section_layout(sorted: &SortedWfst) -> ([usize; NUM_SECTIONS], [usize; NUM_SECTIONS]) {
    let ns = sorted.wfst().num_states();
    let n = sorted.threshold();
    let sizes = [
        ns * STATE_BYTES as usize,
        sorted.wfst().num_arcs() * ARC_BYTES as usize,
        ns * 4,
        n * 4,
        n * 8,
        ns * 4,
        ns * 4,
    ];
    let mut offsets = [0usize; NUM_SECTIONS];
    let mut cur = FIRST_SECTION_OFFSET;
    for (off, size) in offsets.iter_mut().zip(sizes) {
        *off = cur;
        cur = align64(cur + size);
    }
    (offsets, sizes)
}

/// The one serializer behind [`to_bytes`] and [`save`]: header and
/// section table, then every section in file order with zero padding up
/// to its offset, records packed by [`crate::layout`].
fn write_image(sorted: &SortedWfst, out: &mut impl std::io::Write) -> std::io::Result<()> {
    let w = sorted.wfst();
    let unit = sorted.unit();
    let n = sorted.threshold();
    let (offsets, sizes) = section_layout(sorted);

    let mut head = [0u8; FIRST_SECTION_OFFSET];
    head[0..4].copy_from_slice(MAGIC);
    head[4] = STORE_VERSION;
    head[8..16].copy_from_slice(&(w.num_states() as u64).to_le_bytes());
    head[16..24].copy_from_slice(&(w.num_arcs() as u64).to_le_bytes());
    head[24..28].copy_from_slice(&w.start().0.to_le_bytes());
    head[28..32].copy_from_slice(&(n as u32).to_le_bytes());
    head[32..36].copy_from_slice(&w.num_phones().to_le_bytes());
    head[36..40].copy_from_slice(&w.num_words().to_le_bytes());
    head[40..44].copy_from_slice(&(NUM_SECTIONS as u32).to_le_bytes());
    for (i, (kind, (off, size))) in KINDS.iter().zip(offsets.iter().zip(sizes)).enumerate() {
        let e = HEADER_BYTES + i * TABLE_ENTRY_BYTES;
        head[e..e + 8].copy_from_slice(&kind.to_le_bytes());
        head[e + 8..e + 16].copy_from_slice(&(*off as u64).to_le_bytes());
        head[e + 16..e + 24].copy_from_slice(&(size as u64).to_le_bytes());
    }
    out.write_all(&head)?;

    let mut pos = FIRST_SECTION_OFFSET;
    for (i, (&off, size)) in offsets.iter().zip(sizes).enumerate() {
        out.write_all(&[0u8; SECTION_ALIGN][..off - pos])?;
        // Sections in `KINDS` order.
        match i {
            0 => write_records(
                out,
                w.state_entries()
                    .iter()
                    .map(|s| layout::pack_state(*s).to_le_bytes()),
            ),
            1 => write_records(
                out,
                w.arc_entries()
                    .iter()
                    .map(|a| layout::pack_arc(*a).to_le_bytes()),
            ),
            2 => write_records(out, w.final_costs_raw().iter().map(|c| c.to_le_bytes())),
            3 => write_records(out, (0..n).map(|g| unit.group_boundary(g).to_le_bytes())),
            4 => write_records(out, (0..n).map(|g| unit.group_offset(g).to_le_bytes())),
            5 => write_records(out, sorted.old_to_new_raw().iter().map(|v| v.to_le_bytes())),
            _ => write_records(out, sorted.new_to_old_raw().iter().map(|v| v.to_le_bytes())),
        }?;
        pos = off + size;
    }
    Ok(())
}

/// Writes `B`-byte records back to back (the sinks buffer them).
fn write_records<const B: usize>(
    out: &mut impl std::io::Write,
    records: impl Iterator<Item = [u8; B]>,
) -> std::io::Result<()> {
    for record in records {
        out.write_all(&record)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Reader: GraphImage.
// ---------------------------------------------------------------------------

fn rd_u32(b: &[u8], off: usize) -> Result<u32> {
    let s = b
        .get(off..off + 4)
        .ok_or_else(|| corrupt("truncated header"))?;
    // LINT-ALLOW: panic — the `get` above proves the slice is 4 bytes.
    Ok(u32::from_le_bytes(s.try_into().expect("4-byte slice")))
}

fn rd_u64(b: &[u8], off: usize) -> Result<u64> {
    let s = b
        .get(off..off + 8)
        .ok_or_else(|| corrupt("truncated header"))?;
    // LINT-ALLOW: panic — the `get` above proves the slice is 8 bytes.
    Ok(u64::from_le_bytes(s.try_into().expect("8-byte slice")))
}

fn rd_count(b: &[u8], off: usize, what: &str) -> Result<usize> {
    usize::try_from(rd_u64(b, off)?).map_err(|_| corrupt(format!("{what} exceeds address space")))
}

/// The registers' fast check, for a state table validation found
/// `grouped` (in order, and each group's states of the group's degree):
/// the boundaries count states cumulatively, and each non-empty group's
/// first state starts at `x * d + offset[d - 1]`. Every later state `x` of
/// the group then does too — its window starts `d` arcs after its
/// predecessor's — so this answers for the whole sorted region.
fn group_starts_agree(states: &[StateEntry], boundaries: &[u32], offsets: &[i64]) -> bool {
    let mut prev = 0u32;
    for (g, (&boundary, &offset)) in boundaries.iter().zip(offsets).enumerate() {
        if boundary < prev || boundary as usize > states.len() {
            return false;
        }
        let first = i64::from(prev) * (g as i64 + 1) + offset;
        if boundary > prev && i64::from(states[prev as usize].first_arc.0) != first {
            return false;
        }
        prev = boundary;
    }
    true
}

/// Checks that the [`DirectIndexUnit`] registers describe `states`, state
/// by state: the boundaries count states cumulatively, and every state `x`
/// of degree group `d` has `d` arcs starting at `x * d + offset[d - 1]`.
/// Reports the first violation as a typed error.
fn check_registers(states: &[StateEntry], boundaries: &[u32], offsets: &[i64]) -> Result<()> {
    let mut prev = 0u32;
    for (g, (&boundary, &offset)) in boundaries.iter().zip(offsets).enumerate() {
        if boundary < prev || boundary as usize > states.len() {
            return Err(corrupt(format!(
                "boundary register {g} ({boundary}) is not a cumulative state count"
            )));
        }
        let degree = g + 1;
        for x in prev..boundary {
            let entry = states[x as usize];
            let computed = i64::from(x) * degree as i64 + offset;
            let actual_first = entry.first_arc;
            if computed != i64::from(actual_first.0) || entry.num_arcs() != degree {
                return Err(WfstError::LayoutMismatch {
                    state: StateId(x),
                    computed_first: ArcId(computed.clamp(0, i64::from(u32::MAX)) as u32),
                    computed_degree: degree,
                    actual_first,
                    actual_degree: entry.num_arcs(),
                });
            }
        }
        prev = boundary;
    }
    Ok(())
}

/// Checks that the state renumbering maps are inverse permutations:
/// `new_to_old[old_to_new[old]] == old` for every `old`. Branch-free over
/// the gather; a failure rescans for the first bad state.
fn check_inverse(old_to_new: &[u32], new_to_old: &[u32]) -> Result<()> {
    let round_trip = |(old, &new): (usize, &u32)| {
        new_to_old
            .get(new as usize)
            .is_some_and(|&back| back as usize == old)
    };
    let all = old_to_new
        .iter()
        .enumerate()
        .fold(true, |all, entry| all & round_trip(entry));
    if all {
        return Ok(());
    }
    match old_to_new.iter().enumerate().position(|e| !round_trip(e)) {
        Some(old) => Err(corrupt(format!(
            "state maps are not inverse permutations at old state {old}"
        ))),
        None => Ok(()),
    }
}

/// A validated, immutable, shareable graph image.
///
/// Construction parses and validates the container exactly once — magic,
/// version, section-table bounds/alignment/non-overlap, every structural
/// invariant of [`Wfst::from_parts`], agreement of the [`DirectIndexUnit`]
/// registers with the state table, and that the renumbering maps are
/// inverse permutations. Corrupt input of any shape yields a typed
/// [`WfstError`]; construction never panics.
///
/// Validation reads each array once: one pass over the arcs, one over the
/// state table (window cover, epsilon counts, the epsilon summary and the
/// degree of every direct-index state), then the epsilon windows of the
/// states that have any, each group's first state against its register,
/// and the maps. Anything that pass cannot vouch for is re-checked by the
/// exhaustive walk, which names the first violation.
///
/// After validation, [`GraphImage::sorted`] hands out a [`SortedWfst`]
/// whose arrays are typed views straight over the shared buffer: cloning
/// it (or the [`Wfst`] inside) bumps the buffer refcount instead of
/// copying records, and the bytes are freed when the last view drops.
#[derive(Debug, Clone)]
pub struct GraphImage {
    bytes: ImageBytes,
    sorted: SortedWfst,
}

impl GraphImage {
    /// Validates an aligned buffer as an image. This is the zero-copy
    /// entry point: no bytes are moved, only checked.
    ///
    /// # Errors
    ///
    /// Returns a typed [`WfstError`] describing the first violation found.
    pub fn from_image_bytes(bytes: ImageBytes) -> Result<Self> {
        let b = bytes.as_bytes();
        if b.len() < HEADER_BYTES {
            return Err(corrupt(format!(
                "image of {} bytes is shorter than the {HEADER_BYTES}-byte header",
                b.len()
            )));
        }
        if &b[..4] != MAGIC {
            return Err(corrupt("bad magic"));
        }
        if b[4] != STORE_VERSION {
            return Err(corrupt(format!("unsupported version {}", b[4])));
        }
        let num_states = rd_count(b, 8, "state count")?;
        let num_arcs = rd_count(b, 16, "arc count")?;
        let start = StateId(rd_u32(b, 24)?);
        let threshold = rd_u32(b, 28)? as usize;
        let num_phones = rd_u32(b, 32)?;
        let num_words = rd_u32(b, 36)?;
        let section_count = rd_u32(b, 40)? as usize;
        if section_count != NUM_SECTIONS {
            return Err(corrupt(format!(
                "expected {NUM_SECTIONS} sections, header claims {section_count}"
            )));
        }
        if threshold == 0 || threshold > u16::MAX as usize {
            return Err(corrupt(format!("threshold {threshold} out of range")));
        }

        let expected_sizes = [
            num_states
                .checked_mul(STATE_BYTES as usize)
                .ok_or_else(|| corrupt("state section overflows"))?,
            num_arcs
                .checked_mul(ARC_BYTES as usize)
                .ok_or_else(|| corrupt("arc section overflows"))?,
            num_states * 4,
            threshold * 4,
            threshold * 8,
            num_states * 4,
            num_states * 4,
        ];
        let mut offsets = [0usize; NUM_SECTIONS];
        let mut prev_end = FIRST_SECTION_OFFSET;
        for (i, (kind, size)) in KINDS.iter().zip(expected_sizes).enumerate() {
            let e = HEADER_BYTES + i * TABLE_ENTRY_BYTES;
            let got_kind = rd_u64(b, e)?;
            if got_kind != *kind {
                return Err(corrupt(format!(
                    "section {i}: expected kind {} ({kind}), found {got_kind}",
                    kind_name(*kind)
                )));
            }
            let offset = rd_count(b, e + 8, "section offset")?;
            let len = rd_count(b, e + 16, "section length")?;
            if len != size {
                return Err(corrupt(format!(
                    "section {}: {len} bytes, expected {size}",
                    kind_name(*kind)
                )));
            }
            if !offset.is_multiple_of(SECTION_ALIGN) {
                return Err(corrupt(format!(
                    "section {}: offset {offset} not 64-byte aligned",
                    kind_name(*kind)
                )));
            }
            if offset < prev_end {
                return Err(corrupt(format!(
                    "section {}: offset {offset} overlaps preceding bytes ending at {prev_end}",
                    kind_name(*kind)
                )));
            }
            let end = offset
                .checked_add(len)
                .ok_or_else(|| corrupt("section end overflows"))?;
            if end > b.len() {
                return Err(corrupt(format!(
                    "section {}: [{offset}, {end}) exceeds image of {} bytes",
                    kind_name(*kind),
                    b.len()
                )));
            }
            offsets[i] = offset;
            prev_end = end;
        }

        let states = Section::<StateEntry>::view(&bytes, offsets[0], num_states)?;
        let arcs = Section::<Arc>::view(&bytes, offsets[1], num_arcs)?;
        let finals = Section::<f32>::view(&bytes, offsets[2], num_states)?;
        let boundaries = Section::<u32>::view(&bytes, offsets[3], threshold)?;
        let unit_offsets = Section::<i64>::view(&bytes, offsets[4], threshold)?;
        let old_to_new = Section::<u32>::view(&bytes, offsets[5], num_states)?;
        let new_to_old = Section::<u32>::view(&bytes, offsets[6], num_states)?;

        // Structural invariants — the exact checks of `Wfst::from_parts`,
        // run once over the views.
        let (wfst, grouped) = Wfst::from_sections(states, arcs, start, finals, &boundaries)?;
        if wfst.num_phones() != num_phones || wfst.num_words() != num_words {
            return Err(corrupt(format!(
                "label spaces ({}, {}) disagree with header ({num_phones}, {num_words})",
                wfst.num_phones(),
                wfst.num_words()
            )));
        }

        // The DirectIndexUnit registers must agree with the state table
        // over the whole sorted region, else direct arc indexing would
        // silently read the wrong arcs.
        if !(grouped && group_starts_agree(wfst.state_entries(), &boundaries, &unit_offsets)) {
            check_registers(wfst.state_entries(), &boundaries, &unit_offsets)?;
        }
        // The renumbering maps must be inverse permutations of each other.
        check_inverse(&old_to_new, &new_to_old)?;
        let unit = DirectIndexUnit::from_registers(boundaries.to_vec(), unit_offsets.to_vec());
        let sorted = SortedWfst::from_image_parts(wfst, unit, old_to_new, new_to_old, threshold);
        Ok(Self { bytes, sorted })
    }

    /// Copies `bytes` into an aligned buffer and validates it.
    ///
    /// # Errors
    ///
    /// Returns a typed [`WfstError`] describing the first violation found.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Self::from_image_bytes(ImageBytes::from_slice(bytes))
    }

    /// Maps `path` (see [`ImageBytes::read_file`]) and validates it in
    /// place: no record is copied, the arcs are streamed once and the
    /// state table is walked once.
    ///
    /// # Errors
    ///
    /// Returns a typed [`WfstError`] for I/O failures or corrupt content.
    pub fn load(path: &Path) -> Result<Self> {
        Self::from_image_bytes(ImageBytes::read_file(path)?)
    }

    /// The validated degree-sorted transducer, viewing the image in place.
    #[inline]
    pub fn sorted(&self) -> &SortedWfst {
        &self.sorted
    }

    /// The transducer itself (sorted numbering), viewing the image in place.
    #[inline]
    pub fn wfst(&self) -> &Wfst {
        self.sorted.wfst()
    }

    /// An owned handle on the sorted transducer that shares this image's
    /// buffer: a refcount bump plus the (tiny, `N`-entry) unit registers —
    /// never a copy of the state/arc/final/map arrays.
    pub fn to_sorted(&self) -> SortedWfst {
        self.sorted.clone()
    }

    /// Bytes resident for this image: the whole aligned buffer, shared by
    /// every view cloned out of it.
    #[inline]
    pub fn resident_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The raw container bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        self.bytes.as_bytes()
    }

    /// Number of views currently sharing the underlying buffer (including
    /// this image and the sections inside it).
    pub fn buffer_ref_count(&self) -> usize {
        self.bytes.ref_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::WfstBuilder;
    use crate::synth::{SynthConfig, SynthWfst};
    use crate::{PhoneId, WordId};

    fn sample_sorted(states: usize) -> SortedWfst {
        let w = SynthWfst::generate(&SynthConfig::with_states(states)).unwrap();
        SortedWfst::new(&w).unwrap()
    }

    fn assert_same_graph(a: &Wfst, b: &Wfst) {
        assert_eq!(a.num_states(), b.num_states());
        assert_eq!(a.num_arcs(), b.num_arcs());
        assert_eq!(a.start(), b.start());
        assert_eq!(a.state_entries(), b.state_entries());
        for (x, y) in a.arc_entries().iter().zip(b.arc_entries()) {
            assert_eq!(x.dest, y.dest);
            assert_eq!(x.ilabel, y.ilabel);
            assert_eq!(x.olabel, y.olabel);
            assert_eq!(x.weight.to_bits(), y.weight.to_bits());
        }
        assert_eq!(a.num_phones(), b.num_phones());
        assert_eq!(a.num_words(), b.num_words());
        let fa: Vec<_> = a.final_states().collect();
        let fb: Vec<_> = b.final_states().collect();
        assert_eq!(fa, fb);
    }

    #[test]
    fn image_roundtrips_the_full_sorted_wfst() {
        let sorted = sample_sorted(700);
        let image = GraphImage::from_bytes(&to_bytes(&sorted)).unwrap();
        assert_same_graph(sorted.wfst(), image.wfst());
        assert_eq!(sorted.unit(), image.sorted().unit());
        assert_eq!(sorted.threshold(), image.sorted().threshold());
        assert_eq!(sorted.old_to_new_raw(), image.sorted().old_to_new_raw());
        assert_eq!(sorted.new_to_old_raw(), image.sorted().new_to_old_raw());
    }

    #[test]
    fn loaded_views_point_into_the_buffer() {
        let sorted = sample_sorted(300);
        let image = GraphImage::from_bytes(&to_bytes(&sorted)).unwrap();
        let buf = image.as_bytes().as_ptr_range();
        let arcs = image.wfst().arc_entries();
        let states = image.wfst().state_entries();
        assert!(image.wfst().is_image_backed());
        assert!(buf.contains(&arcs.as_ptr().cast::<u8>()));
        assert!(buf.contains(&states.as_ptr().cast::<u8>()));
    }

    #[test]
    fn views_match_an_explicit_record_decode() {
        // Cross-checks the repr(C) cast against a field-by-field decode of
        // the wire bytes, pinning the layout equivalence the store relies on.
        let sorted = sample_sorted(200);
        let bytes = to_bytes(&sorted);
        let image = GraphImage::from_bytes(&bytes).unwrap();
        let w = image.wfst();
        let arc_off =
            usize::try_from(rd_u64(&bytes, HEADER_BYTES + TABLE_ENTRY_BYTES + 8).unwrap()).unwrap();
        for (i, arc) in w.arc_entries().iter().enumerate() {
            let raw = &bytes[arc_off + i * 16..arc_off + (i + 1) * 16];
            let decoded = <Arc as Record>::from_le(raw);
            assert_eq!(arc.dest, decoded.dest);
            assert_eq!(arc.ilabel, decoded.ilabel);
            assert_eq!(arc.olabel, decoded.olabel);
            assert_eq!(arc.weight.to_bits(), decoded.weight.to_bits());
        }
        let state_off = usize::try_from(rd_u64(&bytes, HEADER_BYTES + 8).unwrap()).unwrap();
        for (i, entry) in w.state_entries().iter().enumerate() {
            let raw = &bytes[state_off + i * 8..state_off + (i + 1) * 8];
            assert_eq!(*entry, <StateEntry as Record>::from_le(raw));
        }
    }

    #[test]
    fn clones_share_one_buffer_and_free_on_last_drop() {
        let sorted = sample_sorted(150);
        let image = GraphImage::from_bytes(&to_bytes(&sorted)).unwrap();
        let before = image.buffer_ref_count();
        let view = image.to_sorted();
        assert!(image.buffer_ref_count() > before);
        drop(view);
        assert_eq!(image.buffer_ref_count(), before);
    }

    #[test]
    fn direct_index_still_agrees_after_load() {
        let sorted = sample_sorted(400);
        let image = GraphImage::from_bytes(&to_bytes(&sorted)).unwrap();
        let s = image.sorted();
        for x in 0..s.unit().sorted_region_end() {
            let (arc, degree) = s.unit().direct_arc_index(StateId(x)).unwrap();
            let entry = s.wfst().state(StateId(x));
            assert_eq!(arc, entry.first_arc);
            assert_eq!(degree as usize, entry.num_arcs());
        }
    }

    #[test]
    fn file_roundtrip_reads_into_aligned_buffer() {
        let sorted = sample_sorted(250);
        let dir = std::env::temp_dir().join("asr_wfst_store_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.wfst2");
        save(&sorted, &path).unwrap();
        let image = GraphImage::load(&path).unwrap();
        assert_same_graph(sorted.wfst(), image.wfst());
        assert_eq!(image.as_bytes().as_ptr() as usize % SECTION_ALIGN, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_version_and_truncation_are_typed_errors() {
        let sorted = sample_sorted(50);
        let bytes = to_bytes(&sorted);
        assert!(matches!(
            GraphImage::from_bytes(b"NOPE").unwrap_err(),
            WfstError::Corrupt(_)
        ));
        let mut v = bytes.clone();
        v[4] = 1;
        let err = GraphImage::from_bytes(&v).unwrap_err();
        assert!(err.to_string().contains("version"));
        let err = GraphImage::from_bytes(&bytes[..bytes.len() - 1]).unwrap_err();
        assert!(matches!(err, WfstError::Corrupt(_)));
    }

    #[test]
    fn mismatched_unit_register_is_a_layout_mismatch() {
        let sorted = sample_sorted(80);
        let mut bytes = to_bytes(&sorted);
        // Nudge the first offset register; the first sorted state's direct
        // index no longer matches its stored first_arc.
        let off_sec =
            usize::try_from(rd_u64(&bytes, HEADER_BYTES + 4 * TABLE_ENTRY_BYTES + 8).unwrap())
                .unwrap();
        let old = i64::from_le_bytes(bytes[off_sec..off_sec + 8].try_into().unwrap());
        bytes[off_sec..off_sec + 8].copy_from_slice(&(old + 1).to_le_bytes());
        let err = GraphImage::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, WfstError::LayoutMismatch { .. }), "{err}");
    }

    #[test]
    fn builder_graphs_survive_the_store_exactly() {
        let mut b = WfstBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        b.set_start(s0);
        b.add_arc(s0, s1, PhoneId(1), WordId(1), 1.0);
        b.add_arc(s1, s2, PhoneId(2), WordId::NONE, 2.0);
        b.add_epsilon_arc(s0, s2, 0.5);
        b.set_final(s2, 0.25);
        let sorted = SortedWfst::new(&b.build().unwrap()).unwrap();
        let image = GraphImage::from_bytes(&to_bytes(&sorted)).unwrap();
        assert_same_graph(sorted.wfst(), image.wfst());
        for old in 0..3u32 {
            assert_eq!(
                sorted.map_state(StateId(old)),
                image.sorted().map_state(StateId(old))
            );
        }
    }
}
