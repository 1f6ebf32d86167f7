//! The one dense kernel every layer runs: input-stationary over bf16
//! weights, reading only the weight columns of nonzero inputs.
//!
//! A layer's weights are stored **input-major**, `[in][out]`: input `i`'s
//! weights to every output are contiguous (its *column* of `W`). The
//! result is a *contract*, independent of vector width, that every
//! instantiation of the kernel — and every block shape — reproduces bit
//! for bit:
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
//! row's inputs, so a vector of outputs needs no reduction tree to agree
//! on, and a zero input's column — half of each hidden layer's inputs
//! after ReLU — is never read at all. A weight-row-major dot product has
//! to load every weight to learn it was multiplied by zero.
//!
//! **One body, three widths.** [`affine_ref`] spells the contract as a
//! plain scalar loop: the oracle the tests compare against. The kernel is
//! one body in plain safe Rust: it walks the inputs once, collects the
//! nonzero ones four at a time on the stack, and adds those four columns
//! to `y` in one loop over the outputs, `y` loaded and stored once per
//! four columns. The compiler vectorizes that loop once for the target's
//! baseline (SSE2 on x86_64) and once inside each of two
//! `#[target_feature]` wrappers, AVX2 and AVX-512;
//! [`Kernel::supported`] lists the ones this CPU runs and
//! [`Kernel::widest`] is what every layer uses. They are bit-identical by
//! construction, not by tuning: vectorizing across outputs never reorders
//! any one output's sum, and Rust never fuses a multiply and an add into
//! an FMA, so each is [`affine_ref`] in a different register width. A NaN
//! stays a NaN through any of them; its payload bits are the one thing
//! the contract leaves open, as Rust does.
//!
//! The loop is written per output, not as fixed `[f32; 16]` chunks of
//! `y`: the compiler vectorized the chunked form *across* chunks, with a
//! 16-weight stride between lanes, and it ran about 3× (baseline) to 9×
//! (AVX-512) slower on the 512 → 2000 layer.

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
/// over: `x.len()` columns of one weight per output, one bias and one `y`
/// per output.
fn check_shapes(w: &[u16], bias: &[f32], x: &[f32], y: &[f32]) {
    assert_eq!(w.len(), x.len() * y.len(), "weights are not [in][out]");
    assert_eq!(y.len(), bias.len(), "output row and bias differ in length");
}

/// The dense contract as a portable scalar loop: writes every `y[o]` from
/// the input-major weights `w` (`[x.len()][y.len()]`).
///
/// # Panics
///
/// Panics if the operand shapes disagree (see the module docs).
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn affine_ref(w: &[u16], bias: &[f32], x: &[f32], y: &mut [f32]) {
    check_shapes(w, bias, x, y);
    let out = y.len();
    for (o, (y, b)) in y.iter_mut().zip(bias).enumerate() {
        let mut sum = 0.0f32;
        for (i, xi) in x.iter().enumerate() {
            if *xi != 0.0 {
                sum += widen(w[i * out + o]) * xi;
            }
        }
        *y = sum + b;
    }
}

/// One instantiation of the kernel body: the vector width it was compiled
/// for. Only [`Kernel::supported`] makes one, after the CPU has reported
/// that width's features, so holding a `Kernel` is what makes
/// [`Kernel::affine`]'s calls into the feature-gated wrappers sound.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Kernel(Width);

#[derive(Clone, Copy, Debug)]
enum Width {
    Baseline,
    Avx2,
    Avx512,
}

impl Kernel {
    /// Every instantiation this CPU runs, narrowest first: the baseline
    /// on every target, then AVX2 and AVX-512 where detected (never off
    /// x86_64).
    pub(crate) fn supported() -> impl Iterator<Item = Kernel> {
        let detected = |width: &Width| match width {
            Width::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Width::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Width::Avx512 => {
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        };
        [Width::Baseline, Width::Avx2, Width::Avx512]
            .into_iter()
            .filter(detected)
            .map(Kernel)
    }

    /// The widest instantiation this CPU runs: the one every layer uses.
    pub(crate) fn widest() -> Kernel {
        Self::supported().last().unwrap_or(Kernel(Width::Baseline))
    }

    /// The instantiation's name, as `just kernels` prints it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn name(self) -> &'static str {
        match self.0 {
            Width::Baseline => "baseline",
            Width::Avx2 => "avx2",
            Width::Avx512 => "avx512",
        }
    }

    /// Writes every `y[o]` under the dense contract — one input row
    /// through one layer, with weights `[x.len()][y.len()]`.
    ///
    /// # Panics
    ///
    /// Panics if the operand shapes disagree (see the module docs).
    #[inline]
    pub(crate) fn affine(self, w: &[u16], bias: &[f32], x: &[f32], y: &mut [f32]) {
        match self.0 {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `supported` made this `Kernel` only after
            // `is_x86_feature_detected!("avx2")` reported AVX2, the one
            // feature `affine_avx2` enables.
            Width::Avx2 => unsafe { affine_avx2(w, bias, x, y) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `supported` made this `Kernel` only after
            // `is_x86_feature_detected!` reported both `avx512f` and
            // `avx512bw`, the features `affine_avx512` enables.
            Width::Avx512 => unsafe { affine_avx512(w, bias, x, y) },
            _ => affine_body(w, bias, x, y),
        }
    }
}

/// [`affine_body`] compiled for AVX2: eight outputs a 256-bit vector.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn affine_avx2(w: &[u16], bias: &[f32], x: &[f32], y: &mut [f32]) {
    affine_body(w, bias, x, y);
}

/// [`affine_body`] compiled for AVX-512: sixteen outputs a 512-bit
/// vector.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
fn affine_avx512(w: &[u16], bias: &[f32], x: &[f32], y: &mut [f32]) {
    affine_body(w, bias, x, y);
}

/// The kernel: one pass over the inputs, the nonzero ones gathered four
/// at a time into a stack array (`live` never holds more, so nothing is
/// allocated) and their columns added to `y` in input order. Inlined
/// into every instantiation, so each compiles it for its own width.
#[inline(always)]
fn affine_body(w: &[u16], bias: &[f32], x: &[f32], y: &mut [f32]) {
    check_shapes(w, bias, x, y);
    y.fill(0.0);
    let mut live = [(0usize, 0.0f32); 4];
    let mut n = 0;
    for (i, xi) in x.iter().enumerate() {
        // Branch-free gather: a zero input's entry is overwritten by the
        // next one.
        live[n] = (i, *xi);
        n += usize::from(*xi != 0.0);
        if n == live.len() {
            add_columns::<4>(w, &live, y);
            n = 0;
        }
    }
    match n {
        1 => add_columns::<1>(w, &live, y),
        2 => add_columns::<2>(w, &live, y),
        3 => add_columns::<3>(w, &live, y),
        _ => {}
    }
    for (y, b) in y.iter_mut().zip(bias) {
        *y += b;
    }
}

/// `y[o] += widen(w[i][o]) * x[i]` over every `o` for the first `K`
/// `(i, x[i])` pairs of `live`, in that order for each `o`. The loop over
/// `o` is the one the compiler vectorizes: a register of outputs a step
/// (4 at the baseline, 8 under AVX2, 16 under AVX-512) with the last
/// `out %` that many done one at a time.
#[inline(always)]
fn add_columns<const K: usize>(w: &[u16], live: &[(usize, f32); 4], y: &mut [f32]) {
    let out = y.len();
    let cols: [&[u16]; K] = std::array::from_fn(|k| &w[live[k].0 * out..][..out]);
    let xs: [f32; K] = std::array::from_fn(|k| live[k].1);
    // True by construction; stated so the optimizer sees every `col[o]`
    // below in bounds and vectorizes with no check per weight.
    assert!(cols.iter().all(|col| col.len() == out));
    for (o, yo) in y.iter_mut().enumerate() {
        let mut acc = *yo;
        for (col, xk) in cols.iter().zip(xs) {
            acc += widen(col[o]) * xk;
        }
        *yo = acc;
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

    /// Every one of the 65,536 bf16 weight patterns, planted alone in its
    /// column (every other weight `+0.0`) under a ones input, through
    /// every instantiation [`Kernel::supported`] lists, on every target:
    /// the kernel's widening agrees bit for bit with the oracle's scalar
    /// shift, and a pattern alone sums to itself. (The name is older than
    /// the kernel: the sweep first pinned an SSE2 unpack that widened
    /// eight patterns a load.)
    #[test]
    fn sse2_unpack_and_scalar_shift_agree_on_every_weight() {
        // Five inputs are one group of four columns and a remainder of
        // one; the output widths put a vector step and its scalar tail on
        // either side of each edge, up to AVX-512's 16 outputs a step.
        const IN: usize = 5;
        const OUT: [usize; 6] = [11, 15, 16, 17, 31, 33];
        let (ones, bias) = ([1.0f32; IN], [0.0f32; 33]);
        for kernel in Kernel::supported() {
            for h in 0..=u16::MAX {
                let n = usize::from(h);
                let out = OUT[n % OUT.len()];
                let (i, o) = (n % IN, n / OUT.len() % out);
                let mut w = [0u16; IN * 33];
                let w = &mut w[..IN * out];
                w[i * out + o] = h;
                let (mut got, mut want) = ([-1.0f32; 33], [-1.0f32; 33]);
                let (got, want) = (&mut got[..out], &mut want[..out]);
                kernel.affine(w, &bias[..out], &ones, got);
                affine_ref(w, &bias[..out], &ones, want);
                for (at, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                    assert!(
                        g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                        "{}: pattern {h:#06x} at input {i} output {o} of {out}: \
                         kernel {g:e}, oracle {w:e} at {at}",
                        kernel.name()
                    );
                }
                if want[o] != 0.0 && !want[o].is_nan() {
                    assert_eq!(want[o].to_bits(), widen(h).to_bits());
                }
            }
        }
    }

    /// The contract with the `x[i] != 0` test taken out: every term of
    /// every column, in the same order.
    fn include_every_term(w: &[u16], bias: &[f32], x: &[f32]) -> Vec<f32> {
        let out = bias.len();
        (0..out)
            .map(|o| {
                let mut sum = 0.0f32;
                for (i, xi) in x.iter().enumerate() {
                    sum += widen(w[i * out + o]) * xi;
                }
                sum + bias[o]
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // The exactness lemma: over finite weights, leaving out the terms
        // of the zero inputs changes no bit of any output, in any
        // instantiation.
        #[test]
        fn skipping_zero_inputs_equals_the_dense_sum_for_finite_weights(
            in_dim in 1usize..48,
            out_dim in 1usize..40,
            seed in any::<u64>(),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            // Any sign and mantissa under any finite exponent, zeros and
            // denormals included.
            let w: Vec<u16> = (0..in_dim * out_dim)
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
            let want = include_every_term(&w, &bias, &x);
            for kernel in Kernel::supported() {
                let mut got = vec![f32::NAN; out_dim];
                kernel.affine(&w, &bias, &x, &mut got);
                for (o, (g, w)) in got.iter().zip(&want).enumerate() {
                    prop_assert!(
                        g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                        "{}: {in_dim}x{out_dim} output {o}: skipping {g:e}, dense {w:e}",
                        kernel.name()
                    );
                }
            }
        }
    }

    #[test]
    fn an_all_zero_input_returns_the_bias_exactly() {
        // Whatever the weights hold — every third one here is an
        // infinity or a NaN of either sign — no column is read.
        let (in_dim, out_dim) = (9, 19);
        let w: Vec<u16> = (0..in_dim * out_dim)
            .map(|n| (n * 449) as u16 | if n % 3 == 0 { 0x7F80 } else { 0 })
            .collect();
        let bias: Vec<f32> = (0..out_dim).map(|o| o as f32 * 0.37 - 2.0).collect();
        let x: Vec<f32> = (0..in_dim)
            .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
            .collect();
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for kernel in Kernel::supported() {
            let mut got = vec![f32::NAN; out_dim];
            kernel.affine(&w, &bias, &x, &mut got);
            assert_eq!(bits(&got), bits(&bias), "{}", kernel.name());
        }
    }
}
