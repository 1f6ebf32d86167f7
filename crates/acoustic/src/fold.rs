//! The one dense kernel every layer runs: input-stationary over bf16
//! weights, reading only the weight columns of nonzero inputs.
//!
//! A layer's weights are stored **input-major**, `[in][out_pad]`: input
//! `i`'s weights to every output are contiguous (its *column* of `W`),
//! padded to `out_pad`, the output count rounded up to the eight weights
//! of one 128-bit load ([`STEP`]), so every column starts in the same
//! phase of that load. The result is a *contract*, independent of vector
//! width, that every implementation — and every block shape — reproduces
//! bit for bit:
//!
//! ```text
//! y[o] = (Σ over i ascending with x[i] != 0 of widen(w[i][o]) * x[i]) + b[o]
//! ```
//!
//! 1. the sum starts at `+0.0` and takes its terms in increasing `i`, each
//!    a separate multiply and add (never a fused multiply-add); the bias
//!    is added last;
//! 2. weights are bf16 — the upper half of an f32, see [`narrow`] — and are
//!    widened exactly ([`widen`]) before the multiply; the product and
//!    every add are f32;
//! 3. an input that compares equal to zero (`+0.0` or `-0.0`: everything a
//!    ReLU clamped) contributes **no term**, whatever its weights hold. A
//!    NaN, an infinity and a denormal are nonzero and take part like any
//!    other input.
//!
//! Skipping is exact, not approximate. With a finite weight the skipped
//! term would be `±0.0`; the running sum starts at `+0.0` and no
//! round-to-nearest add can make it `-0.0` (`+0.0 + -0.0` is `+0.0`, and
//! nonzero terms that cancel cancel to `+0.0`), so adding `±0.0` would
//! have returned the same bits — the kernel equals the
//! include-every-term sum (pinned by a proptest below). A *non-finite*
//! weight under a zero input is skipped by definition, as in any sparse
//! product, where the dense sum would have made `Inf * 0 = NaN`;
//! `Dense::random` cannot draw one.
//!
//! Why input-major: each output's sum depends on nothing but its own
//! row's inputs, so eight outputs ride one vector with no reduction tree
//! to agree on, and a zero input's column — half of each hidden layer's
//! inputs after ReLU — is never read at all. A weight-row-major dot
//! product has to load every weight to learn it was multiplied by zero.
//!
//! [`affine_ref`] spells the contract as a plain scalar loop: it is the
//! kernel on every target without SSE2 and the oracle the tests compare
//! against. On x86_64 [`affine`] walks the inputs once, collects the
//! nonzero ones four at a time on the stack, and adds those four columns
//! to `y` eight outputs a step — one 128-bit weight load per column
//! widened by two integer unpacks, `y` loaded and stored once per four
//! columns. SSE2 is part of the x86_64 baseline, so there is no runtime
//! detection and no second path to keep in agreement. A NaN stays a NaN
//! through either implementation; its payload bits are the one thing the
//! contract leaves open, as Rust does.

/// bf16 weights per 128-bit load: the vector kernel's output step, and
/// what a column's length is padded to a multiple of.
pub(crate) const STEP: usize = 8;

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

/// Panics unless the operands have the shapes the contract is stated
/// over: `x.len()` columns of `out_pad` weights, one bias and one `y` per
/// output.
fn check_shapes(w: &[u16], out_pad: usize, bias: &[f32], x: &[f32], y: &[f32]) {
    assert_eq!(w.len(), x.len() * out_pad, "weights are not [in][out_pad]");
    assert!(bias.len() <= out_pad, "more outputs than a column holds");
    assert_eq!(y.len(), bias.len(), "output row and bias differ in length");
}

/// The dense contract as a portable scalar loop: writes every `y[o]` from
/// the input-major weights `w` (`[x.len()][out_pad]`).
///
/// # Panics
///
/// Panics if the operand shapes disagree (see the module docs).
#[cfg_attr(
    all(target_arch = "x86_64", target_feature = "sse2", not(test)),
    allow(dead_code)
)]
pub(crate) fn affine_ref(w: &[u16], out_pad: usize, bias: &[f32], x: &[f32], y: &mut [f32]) {
    check_shapes(w, out_pad, bias, x, y);
    for (o, (y, b)) in y.iter_mut().zip(bias).enumerate() {
        let mut sum = 0.0f32;
        for (i, xi) in x.iter().enumerate() {
            if *xi != 0.0 {
                sum += widen(w[i * out_pad + o]) * xi;
            }
        }
        *y = sum + b;
    }
}

/// Writes every `y[o]` under the dense contract — one input row through
/// one layer.
///
/// # Panics
///
/// Panics if the operand shapes disagree (see the module docs).
#[inline]
pub(crate) fn affine(w: &[u16], out_pad: usize, bias: &[f32], x: &[f32], y: &mut [f32]) {
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    {
        // SAFETY: this branch is compiled only when the whole build
        // already assumes SSE2 (`cfg(target_feature = "sse2")`, the
        // x86_64 baseline), so the feature `affine_sse2` enables is
        // present on every CPU this binary may run on.
        unsafe { affine_sse2(w, out_pad, bias, x, y) }
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
    affine_ref(w, out_pad, bias, x, y)
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

/// [`affine`] on SSE2: one pass over the inputs, the nonzero ones
/// gathered four at a time into a stack array (`live` never holds more,
/// so nothing is allocated) and their columns added to `y` in input
/// order.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[target_feature(enable = "sse2")]
#[inline]
fn affine_sse2(w: &[u16], out_pad: usize, bias: &[f32], x: &[f32], y: &mut [f32]) {
    /// `y[o] += widen(w[i][o]) * x[i]` over every `o` for the first `K`
    /// `(i, x[i])` pairs of `live`, in that order for each `o`.
    #[target_feature(enable = "sse2")]
    #[inline]
    fn add_columns<const K: usize>(
        w: &[u16],
        out_pad: usize,
        live: &[(usize, f32)],
        y: &mut [f32],
    ) {
        use std::arch::x86_64::{
            __m128i, _mm_add_ps, _mm_loadu_ps, _mm_loadu_si128, _mm_mul_ps, _mm_set1_ps,
            _mm_storeu_ps,
        };
        let cols: [&[u16]; K] = std::array::from_fn(|k| &w[live[k].0 * out_pad..][..out_pad]);
        let xs: [f32; K] = std::array::from_fn(|k| live[k].1);
        let to = y.len();
        assert!(to <= out_pad, "more outputs than a column holds");
        let xv = xs.map(|x| _mm_set1_ps(x));
        let yp = y.as_mut_ptr();
        let mut o = 0;
        while o + STEP <= to {
            // SAFETY: `o + 8 <= to == y.len()`, so both unaligned 4-float
            // loads stay inside `y`.
            let (mut lo, mut hi) =
                unsafe { (_mm_loadu_ps(yp.add(o)), _mm_loadu_ps(yp.add(o + 4))) };
            for (col, xk) in cols.iter().zip(xv) {
                // SAFETY: `o + 8 <= to <= out_pad == col.len()` (asserted
                // above; each column was sliced to `out_pad` weights), so
                // the unaligned load of eight 16-bit weights stays inside
                // the column.
                let wv = unsafe { _mm_loadu_si128(col.as_ptr().add(o).cast::<__m128i>()) };
                let [wl, wh] = widen8_sse2(wv);
                lo = _mm_add_ps(lo, _mm_mul_ps(wl, xk));
                hi = _mm_add_ps(hi, _mm_mul_ps(wh, xk));
            }
            // SAFETY: the same `o + 8 <= to == y.len()` covers the two
            // unaligned 4-float stores; `yp` came from the exclusive
            // borrow `y`, which nothing else touches until the loop ends.
            unsafe {
                _mm_storeu_ps(yp.add(o), lo);
                _mm_storeu_ps(yp.add(o + 4), hi);
            }
            o += STEP;
        }
        // The ragged last `to % 8` outputs of a layer: scalar, so no
        // store ever reaches past `to`.
        for o in o..to {
            for (col, xk) in cols.iter().zip(xs) {
                y[o] += widen(col[o]) * xk;
            }
        }
    }

    check_shapes(w, out_pad, bias, x, y);
    y.fill(0.0);
    let mut live = [(0usize, 0.0f32); 4];
    let mut n = 0;
    for (i, xi) in x.iter().enumerate() {
        // Branch-free gather: a zero input's entry is overwritten by the
        // next one.
        live[n] = (i, *xi);
        n += usize::from(*xi != 0.0);
        if n == live.len() {
            add_columns::<4>(w, out_pad, &live, y);
            n = 0;
        }
    }
    match n {
        1 => add_columns::<1>(w, out_pad, &live, y),
        2 => add_columns::<2>(w, out_pad, &live, y),
        3 => add_columns::<3>(w, out_pad, &live, y),
        _ => {}
    }
    for (y, b) in y.iter_mut().zip(bias) {
        *y += b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

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
        // And through the kernel against a ones input: the pattern alone
        // in its column (every other weight `+0.0`) sums to itself. Five
        // inputs are one group of four columns and a remainder of one;
        // eleven outputs one 8-output step and a scalar tail of three.
        let (in_dim, out_dim, out_pad) = (5, 11, 16);
        let (ones, bias) = ([1.0f32; 5], [0.0f32; 11]);
        let stride = if cfg!(miri) { 251 } else { 1 };
        for (n, h) in all.iter().enumerate().step_by(stride) {
            let (i, o) = (n % in_dim, n % out_dim);
            let mut w = [0u16; 5 * 16];
            w[i * out_pad + o] = *h;
            let (mut got, mut want) = ([-1.0f32; 11], [-1.0f32; 11]);
            affine(&w, out_pad, &bias, &ones, &mut got);
            affine_ref(&w, out_pad, &bias, &ones, &mut want);
            for (at, (g, w)) in got.iter().zip(want).enumerate() {
                assert!(
                    g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                    "pattern {h:#06x} at input {i} output {o}: kernel {g:e}, oracle {w:e} at {at}"
                );
            }
            if want[o] != 0.0 && !want[o].is_nan() {
                assert_eq!(want[o].to_bits(), widen(*h).to_bits());
            }
        }
    }

    /// The contract with the `x[i] != 0` test taken out: every term of
    /// every column, in the same order.
    fn include_every_term(w: &[u16], out_pad: usize, bias: &[f32], x: &[f32]) -> Vec<f32> {
        (0..bias.len())
            .map(|o| {
                let mut sum = 0.0f32;
                for (i, xi) in x.iter().enumerate() {
                    sum += widen(w[i * out_pad + o]) * xi;
                }
                sum + bias[o]
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 512 }))]

        // The exactness lemma: over finite weights, leaving out the terms
        // of the zero inputs changes no bit of any output.
        #[test]
        fn skipping_zero_inputs_equals_the_dense_sum_for_finite_weights(
            in_dim in 1usize..48,
            out_dim in 1usize..28,
            seed in any::<u64>(),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let out_pad = out_dim.next_multiple_of(STEP);
            // Any sign and mantissa under any finite exponent, zeros and
            // denormals included.
            let w: Vec<u16> = (0..in_dim * out_pad)
                .map(|_| match rng.gen::<u16>() {
                    h if h & 0x7F80 == 0x7F80 => h & 0xBFFF,
                    h => h,
                })
                .collect();
            // Half the inputs are zeros of either sign; the rest span the
            // finite range, so sums cancel, round and overflow.
            let x: Vec<f32> = (0..in_dim)
                .map(|_| match rng.gen_range(0..8) {
                    0..=2 => 0.0,
                    3 => -0.0,
                    4 => f32::from_bits(rng.gen::<u32>() & 0xBFFF_FFFF),
                    _ => rng.gen_range(-2.0..2.0),
                })
                .collect();
            let bias: Vec<f32> = (0..out_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut got = vec![f32::NAN; out_dim];
            affine(&w, out_pad, &bias, &x, &mut got);
            let want = include_every_term(&w, out_pad, &bias, &x);
            for (o, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert!(
                    g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                    "{in_dim}x{out_dim} output {o}: skipping {g:e}, dense {w:e}"
                );
            }
        }
    }

    #[test]
    fn an_all_zero_input_returns_the_bias_exactly() {
        // Whatever the weights hold — every third one here is an
        // infinity or a NaN of either sign — no column is read.
        let (in_dim, out_dim, out_pad) = (9, 13, 16);
        let w: Vec<u16> = (0..in_dim * out_pad)
            .map(|n| (n * 449) as u16 | if n % 3 == 0 { 0x7F80 } else { 0 })
            .collect();
        let bias: Vec<f32> = (0..out_dim).map(|o| o as f32 * 0.37 - 2.0).collect();
        let x: Vec<f32> = (0..in_dim)
            .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
            .collect();
        let mut got = vec![f32::NAN; out_dim];
        affine(&w, out_pad, &bias, &x, &mut got);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&bias));
    }
}
