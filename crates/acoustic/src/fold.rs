//! The one dot-product fold every dense layer reduces with.
//!
//! The reduction order is a *contract*, independent of vector width, so
//! that every implementation — and every batch shape — produces the same
//! bits:
//!
//! 1. [`LANES`] (16) virtual lanes start at `+0.0`; lane `j` accumulates
//!    `w[i] * x[i]` for `i ≡ j (mod 16)` over the full 16-element chunks,
//!    in increasing `i`, with a separate multiply and add (never a fused
//!    multiply-add);
//! 2. the lanes reduce by the fixed tree
//!    `(j, j+8) → (j, j+4) → (j, j+2) → (0, 1)`;
//! 3. the `len % 16` tail elements are added to that sum sequentially.
//!
//! (The layer adds its bias last.) [`dot_ref`] spells the contract as a
//! plain scalar loop: it is the kernel on every target without SSE2 and the
//! oracle the tests compare against. On x86_64 [`dot_rows`] runs the same
//! lanes as four SSE2 vectors per input row — SSE2 is part of the x86_64
//! baseline, so there is no runtime detection and no second path to keep
//! in agreement. A NaN stays a NaN through either implementation; its
//! payload bits are the one thing the contract leaves open, as Rust does.

/// Virtual accumulator lanes of the fold.
const LANES: usize = 16;

/// Input rows the block kernel dots against one weight row at a time
/// (they share each weight load). Callers that split a block should split
/// on a multiple of this so no shard ends on a half tile.
pub const ROW_TILE: usize = 2;

/// The fold contract as a portable scalar loop.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[cfg_attr(
    all(target_arch = "x86_64", target_feature = "sse2", not(test)),
    allow(dead_code)
)]
pub(crate) fn dot_ref(w: &[f32], x: &[f32]) -> f32 {
    assert_eq!(w.len(), x.len(), "dot operands differ in length");
    let mut acc = [0.0f32; LANES];
    let mut wc = w.chunks_exact(LANES);
    let mut xc = x.chunks_exact(LANES);
    for (wv, xv) in (&mut wc).zip(&mut xc) {
        for j in 0..LANES {
            acc[j] += wv[j] * xv[j];
        }
    }
    let mut width = LANES / 2;
    while width >= 1 {
        for j in 0..width {
            acc[j] += acc[j + width];
        }
        width /= 2;
    }
    let mut sum = acc[0];
    for (w, x) in wc.remainder().iter().zip(xc.remainder()) {
        sum += w * x;
    }
    sum
}

/// Dots one weight row against `T` input rows under the fold contract.
///
/// # Panics
///
/// Panics if any input row's length differs from the weight row's.
#[inline]
pub(crate) fn dot_rows<const T: usize>(w: &[f32], xs: [&[f32]; T]) -> [f32; T] {
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    {
        // SAFETY: this branch is compiled only when the whole build
        // already assumes SSE2 (`cfg(target_feature = "sse2")`, the
        // x86_64 baseline), so the feature `dot_rows_sse2` enables is
        // present on every CPU this binary may run on.
        unsafe { dot_rows_sse2(w, xs) }
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
    xs.map(|x| dot_ref(w, x))
}

/// [`dot_rows`] on SSE2: each row's 16 lanes live in four vectors, and
/// the `T` rows share every weight load.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[target_feature(enable = "sse2")]
#[inline]
fn dot_rows_sse2<const T: usize>(w: &[f32], xs: [&[f32]; T]) -> [f32; T] {
    use std::arch::x86_64::{
        _mm_add_ps, _mm_add_ss, _mm_cvtss_f32, _mm_loadu_ps, _mm_movehl_ps, _mm_mul_ps,
        _mm_setzero_ps, _mm_shuffle_ps,
    };

    let n = w.len();
    for x in &xs {
        assert_eq!(x.len(), n, "dot operands differ in length");
    }
    let full = n - n % LANES;
    let mut acc = [[_mm_setzero_ps(); LANES / 4]; T];
    let mut i = 0;
    while i < full {
        for (k, off) in (i..i + LANES).step_by(4).enumerate() {
            // SAFETY: `off + 4 <= i + LANES <= full <= w.len()`, so the
            // unaligned 4-float load stays inside `w`.
            let wv = unsafe { _mm_loadu_ps(w.as_ptr().add(off)) };
            for (x, a) in xs.iter().zip(acc.iter_mut()) {
                // SAFETY: `x.len() == w.len()` was asserted above, so
                // the same bound keeps this load inside `x`.
                let xv = unsafe { _mm_loadu_ps(x.as_ptr().add(off)) };
                a[k] = _mm_add_ps(a[k], _mm_mul_ps(wv, xv));
            }
        }
        i += LANES;
    }
    let mut out = [0.0f32; T];
    for ((sum, x), a) in out.iter_mut().zip(xs).zip(acc) {
        // (j, j+8) on both halves, then (j, j+4): lanes 0..4 remain.
        let s = _mm_add_ps(_mm_add_ps(a[0], a[2]), _mm_add_ps(a[1], a[3]));
        // (j, j+2): lanes 0 and 1 remain.
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        // (0, 1).
        *sum = _mm_cvtss_f32(_mm_add_ss(s, _mm_shuffle_ps::<1>(s, s)));
        for (w, x) in w[full..].iter().zip(&x[full..]) {
            *sum += w * x;
        }
    }
    out
}
