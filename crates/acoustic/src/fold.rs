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
//! 3. the `len % 16` tail elements are added to that sum sequentially;
//! 4. weights are bf16 — the upper half of an f32, see [`narrow`] — and are
//!    widened exactly ([`widen`]) before the multiply; the product and
//!    every add are f32.
//!
//! (The layer adds its bias last.) [`dot_ref`] spells the contract as a
//! plain scalar loop: it is the kernel on every target without SSE2 and the
//! oracle the tests compare against. On x86_64 [`dot_rows`] runs the same
//! lanes as four SSE2 vectors per input row, widening eight weights per
//! 128-bit load with two integer unpacks — SSE2 is part of the x86_64
//! baseline, so there is no runtime detection and no second path to keep
//! in agreement. A NaN stays a NaN through either implementation; its
//! payload bits are the one thing the contract leaves open, as Rust does.

/// Virtual accumulator lanes of the fold.
const LANES: usize = 16;

/// Input rows the block kernel dots against one weight row at a time
/// (they share each weight load). Callers that split a block should split
/// on a multiple of this so no shard ends on a half tile.
pub const ROW_TILE: usize = 2;

/// Rounds an f32 to bf16 — its sign, its eight exponent bits and the top
/// seven bits of its mantissa — to nearest, ties to even. Total: a NaN
/// stays a (quiet) NaN instead of carrying into the exponent, ±Inf are
/// exact, a magnitude above bf16's largest finite rounds to ±Inf, and
/// zeros and denormals keep their sign.
pub(crate) fn narrow(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        return (bits >> 16) as u16 | 0x0040;
    }
    // Half of the dropped field, less one when the kept part is already
    // even, so an exact tie stays put. No non-NaN pattern is within
    // 0x8000 of wrapping the u32.
    let round = 0x7FFF + ((bits >> 16) & 1);
    ((bits + round) >> 16) as u16
}

/// The f32 a bf16 pattern stands for (exact: the pattern is the f32's
/// upper half).
#[inline]
pub(crate) fn widen(w: u16) -> f32 {
    f32::from_bits(u32::from(w) << 16)
}

/// The fold contract as a portable scalar loop.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[cfg_attr(
    all(target_arch = "x86_64", target_feature = "sse2", not(test)),
    allow(dead_code)
)]
pub(crate) fn dot_ref(w: &[u16], x: &[f32]) -> f32 {
    assert_eq!(w.len(), x.len(), "dot operands differ in length");
    let mut acc = [0.0f32; LANES];
    let mut wc = w.chunks_exact(LANES);
    let mut xc = x.chunks_exact(LANES);
    for (wv, xv) in (&mut wc).zip(&mut xc) {
        for j in 0..LANES {
            acc[j] += widen(wv[j]) * xv[j];
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
        sum += widen(*w) * x;
    }
    sum
}

/// Dots one weight row against `T` input rows under the fold contract.
///
/// # Panics
///
/// Panics if any input row's length differs from the weight row's.
#[inline]
pub(crate) fn dot_rows<const T: usize>(w: &[u16], xs: [&[f32]; T]) -> [f32; T] {
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

/// Eight bf16 weights widened to two f32 vectors (lanes 0..4, 4..8):
/// interleaving each 16-bit pattern above a zero half is [`widen`]'s
/// shift, eight at a time.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[target_feature(enable = "sse2")]
#[inline]
fn widen8_sse2(w: std::arch::x86_64::__m128i) -> [std::arch::x86_64::__m128; 2] {
    use std::arch::x86_64::{
        _mm_castsi128_ps, _mm_setzero_si128, _mm_unpackhi_epi16, _mm_unpacklo_epi16,
    };
    let zero = _mm_setzero_si128();
    [
        _mm_castsi128_ps(_mm_unpacklo_epi16(zero, w)),
        _mm_castsi128_ps(_mm_unpackhi_epi16(zero, w)),
    ]
}

/// [`dot_rows`] on SSE2: each row's 16 lanes live in four vectors, and
/// the `T` rows share every weight load and its widening.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[target_feature(enable = "sse2")]
#[inline]
fn dot_rows_sse2<const T: usize>(w: &[u16], xs: [&[f32]; T]) -> [f32; T] {
    use std::arch::x86_64::{
        __m128i, _mm_add_ps, _mm_add_ss, _mm_cvtss_f32, _mm_loadu_ps, _mm_loadu_si128,
        _mm_movehl_ps, _mm_mul_ps, _mm_setzero_ps, _mm_shuffle_ps,
    };

    let n = w.len();
    for x in &xs {
        assert_eq!(x.len(), n, "dot operands differ in length");
    }
    let full = n - n % LANES;
    let mut acc = [[_mm_setzero_ps(); LANES / 4]; T];
    let mut i = 0;
    while i < full {
        for (h, off) in (i..i + LANES).step_by(8).enumerate() {
            // SAFETY: `off + 8 <= i + LANES <= full <= w.len()`, so the
            // unaligned load of eight 16-bit weights stays inside `w`.
            let wv = unsafe { _mm_loadu_si128(w.as_ptr().add(off).cast::<__m128i>()) };
            for (q, wq) in widen8_sse2(wv).into_iter().enumerate() {
                let (k, at) = (2 * h + q, off + 4 * q);
                for (x, a) in xs.iter().zip(acc.iter_mut()) {
                    // SAFETY: `at + 4 <= off + 8 <= full <= w.len()` and
                    // `x.len() == w.len()` was asserted above, so the
                    // unaligned 4-float load stays inside `x`.
                    let xv = unsafe { _mm_loadu_ps(x.as_ptr().add(at)) };
                    a[k] = _mm_add_ps(a[k], _mm_mul_ps(wq, xv));
                }
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
            *sum += widen(*w) * x;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn narrow_inverts_widen_on_every_bf16_pattern() {
        for h in 0..=u16::MAX {
            let back = narrow(widen(h));
            if widen(h).is_nan() {
                // Sign and payload survive; only the quiet bit may be set.
                assert_eq!(back, h | 0x0040, "NaN pattern {h:#06x}");
                assert!(widen(back).is_nan());
            } else {
                assert_eq!(back, h, "pattern {h:#06x}");
            }
        }
    }

    #[test]
    fn narrow_is_total_at_the_edges() {
        let n = |bits: u32| narrow(f32::from_bits(bits));
        // The all-ones NaN must not carry into the sign (add-and-shift
        // alone gives 0x8000, i.e. -0.0), nor may a NaN whose payload
        // sits entirely in the dropped half become an infinity.
        assert_eq!(n(0x7FFF_FFFF), 0x7FFF);
        assert_eq!(n(0xFFFF_FFFF), 0xFFFF);
        assert_eq!(n(0x7F80_0001), 0x7FC0);
        assert_eq!(n(0xFF80_0001), 0xFFC0);
        assert_eq!(narrow(f32::INFINITY), 0x7F80);
        assert_eq!(narrow(f32::NEG_INFINITY), 0xFF80);
        // Above bf16's largest finite (0x7F7F): to infinity from the
        // halfway point on, and not before.
        assert_eq!(narrow(f32::MAX), 0x7F80);
        assert_eq!(narrow(f32::MIN), 0xFF80);
        assert_eq!(n(0x7F7F_8000), 0x7F80);
        assert_eq!(n(0x7F7F_7FFF), 0x7F7F);
        // Ties go to the even neighbour, everything else to the nearer.
        assert_eq!(n(0x3F80_8000), 0x3F80);
        assert_eq!(n(0x3F81_8000), 0x3F82);
        assert_eq!(n(0x3F80_8001), 0x3F81);
        assert_eq!(n(0x3F81_7FFF), 0x3F81);
        // Zeros and denormals keep their sign; an f32 denormal below half
        // the smallest bf16 denormal is a signed zero, the largest rounds
        // up into the normals.
        assert_eq!(narrow(0.0), 0x0000);
        assert_eq!(narrow(-0.0), 0x8000);
        assert_eq!(n(0x0000_0001), 0x0000);
        assert_eq!(n(0x8000_0001), 0x8000);
        assert_eq!(n(0x8000_8001), 0x8001);
        assert_eq!(n(0x007F_FFFF), 0x0080);
        assert_eq!(narrow(f32::MIN_POSITIVE), 0x0080);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn narrow_rounds_within_half_a_bf16_ulp(bits in any::<u32>()) {
            let x = f32::from_bits(bits);
            if !x.is_finite() {
                let back = widen(narrow(x));
                prop_assert!(back == x || (back.is_nan() && x.is_nan()));
                return Ok(());
            }
            // The two bf16 neighbours of x: truncation, and one pattern
            // further from zero. Past the largest finite that neighbour is
            // an infinity, which stands where the next binade would start.
            let value = |h: u16| match f64::from(widen(h)) {
                v if v.is_infinite() => 2f64.powi(128).copysign(v),
                v => v,
            };
            let below = (bits >> 16) as u16;
            let (lo, hi, got) = (value(below), value(below + 1), value(narrow(x)));
            prop_assert!(got == lo || got == hi, "{x:e} -> {got:e}");
            prop_assert!((got - f64::from(x)).abs() <= (hi - lo).abs() / 2.0, "{x:e} -> {got:e}");
        }

        #[test]
        fn narrow_is_monotone(bits in any::<u32>(), step in 0u32..0x3_0000) {
            let (a, b) = (f32::from_bits(bits), f32::from_bits(bits.wrapping_add(step)));
            if a.is_nan() || b.is_nan() {
                return Ok(());
            }
            let (small, large) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(
                widen(narrow(small)) <= widen(narrow(large)),
                "{small:e} <= {large:e} but their roundings are not"
            );
        }
    }

    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    #[test]
    fn sse2_unpack_and_scalar_shift_agree_on_every_weight() {
        use std::arch::x86_64::{__m128i, _mm_loadu_si128, _mm_storeu_ps};
        let all: [u16; 65536] = std::array::from_fn(|h| h as u16);
        // The widening itself, eight patterns a load, bit for bit (NaN
        // payloads included: an unpack is not arithmetic).
        for eight in all.chunks_exact(8) {
            let mut wide = [0.0f32; 8];
            // SAFETY: `eight` is exactly eight u16s (one 128-bit unaligned
            // load), `wide` eight f32s (two 128-bit unaligned stores at
            // floats 0 and 4); SSE2 is a compile-time feature here.
            unsafe {
                let [lo, hi] = widen8_sse2(_mm_loadu_si128(eight.as_ptr().cast::<__m128i>()));
                _mm_storeu_ps(wide.as_mut_ptr(), lo);
                _mm_storeu_ps(wide.as_mut_ptr().add(4), hi);
            }
            for (h, f) in eight.iter().zip(wide) {
                assert_eq!(f.to_bits(), widen(*h).to_bits(), "pattern {h:#06x}");
            }
        }
        // And through the kernel against a ones input, lane by lane: the
        // pattern alone in its lane of a 16-weight row dots to itself.
        let ones = [1.0f32; LANES];
        let stride = if cfg!(miri) { 251 } else { 1 };
        for (i, h) in all.iter().enumerate().step_by(stride) {
            let mut row = [0u16; LANES];
            row[i % LANES] = *h;
            let [got] = dot_rows(&row, [&ones]);
            let want = dot_ref(&row, &ones);
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "pattern {h:#06x} in lane {}: kernel {got:e}, oracle {want:e}",
                i % LANES
            );
            if want != 0.0 && !want.is_nan() {
                assert_eq!(want.to_bits(), widen(*h).to_bits());
            }
        }
    }
}
