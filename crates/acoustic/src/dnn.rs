//! From-scratch multi-layer perceptron acoustic model.
//!
//! The paper's hybrid system runs a DNN on the GPU to produce per-phone
//! likelihoods while the accelerator searches. This module implements that
//! DNN: dense layers with ReLU activations and a log-softmax output over
//! the phone set. Weights are deterministic (seeded Xavier-style init);
//! since no training corpus ships with the reproduction, *functional*
//! decoding accuracy comes from [`crate::template`], while this MLP
//! provides the realistic compute/memory workload for the platform models
//! (FLOP counts, batch scoring).
//!
//! Every layer runs the crate's one dense kernel (`fold.rs`): bf16
//! weights stored input-major, and only the weight columns of nonzero
//! inputs read — after ReLU about half of each hidden layer's inputs are
//! exact zeros (`tests/relu_sparsity.rs` in the workspace root pins the
//! share), so a frame streams about half the model and does half the
//! multiply-accumulates, to the same bits as the full sum. The kernel is
//! one body compiled for three vector widths (the baseline, AVX2,
//! AVX-512); every layer runs the widest this CPU has, and all three
//! return the same bits, because none reorders an output's sum or fuses
//! its multiplies and adds.

use crate::fold::{narrow, Kernel};
use crate::scores::AcousticTable;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One dense layer: `y = W x + b`.
///
/// Weights are *stored* as bf16 (an f32's upper 16 bits), rounded to
/// nearest-even once when the layer is made, **input-major** — input
/// `i`'s weights to every output are contiguous, so an input that is
/// exactly zero (about half of what a ReLU hands on) costs no weight
/// read at all — and widened exactly inside the kernel; inputs,
/// products, sums, biases and outputs are all f32. `Dense::flops`
/// counts the layer's dense multiply-accumulates, skipped or not.
#[derive(Debug, Clone)]
pub struct Dense {
    weights: Vec<u16>, // bf16, input-major [in][out]
    bias: Vec<f32>,
    in_dim: usize,
    out_dim: usize,
}

impl Dense {
    /// Creates a layer with Xavier-uniform weights drawn from `rng`
    /// (row-major `[out][in]`, one f32 `gen_range(-limit..limit)` per
    /// weight), each rounded to bf16 here — the only place weights are
    /// made, and the only rounding they ever see — and stored at its
    /// input-major place.
    pub fn random<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "degenerate layer shape");
        let limit = (6.0 / (in_dim + out_dim) as f32).sqrt();
        let mut weights = vec![0; in_dim * out_dim];
        for o in 0..out_dim {
            for i in 0..in_dim {
                weights[i * out_dim + o] = narrow(rng.gen_range(-limit..limit));
            }
        }
        let bias = vec![0.0; out_dim];
        Self {
            weights,
            bias,
            in_dim,
            out_dim,
        }
    }

    /// Plants the stored weight from input `i` to output `o` as a bf16
    /// pattern, so a test can only plant what the stored format can hold.
    #[cfg(test)]
    fn set_weight(&mut self, o: usize, i: usize, bits: u16) {
        self.weights[i * self.out_dim + o] = bits;
    }

    /// Applies the affine map to one input vector — the one-row call of
    /// `Dense::forward_block_into`, allocating its output.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != in_dim`.
    pub fn forward(&self, input: &[f32]) -> Vec<f32> {
        assert_eq!(input.len(), self.in_dim, "layer input dimension mismatch");
        let mut out = vec![0.0; self.out_dim];
        self.forward_block_into(input, self.in_dim, 1, &mut out, self.out_dim);
        out
    }

    /// Floating-point operation count of one forward pass over the dense
    /// topology: two (a multiply and an add) per weight — f32 operations
    /// both, whatever the weights are stored as, and whether or not a
    /// zero input lets the kernel skip them.
    fn flops(&self) -> u64 {
        2 * (self.in_dim as u64) * (self.out_dim as u64)
    }

    /// Applies the affine map to a *block* of `rows` input vectors — the
    /// single dense kernel, a row at a time; [`Dense::forward`] is its
    /// `rows = 1` call. Each row reads the weight columns of its own
    /// nonzero inputs and nothing else, so a block's rows share weights
    /// only through the cache (a different half of the layer each).
    /// Cutting the outputs into tiles that every row finishes before the
    /// next is touched was measured and left out: it shortens each
    /// column's run below what the hardware prefetcher follows and was
    /// slower at every block height (ARCHITECTURE.md, "Batched scoring").
    ///
    /// Every output is the crate's one dense contract (the terms of the
    /// nonzero inputs in increasing input order, from `+0.0`, then the
    /// bias — see `fold.rs`), a function of nothing but its own row. So
    /// every row of the block is **bit-identical** to scoring that row
    /// alone, regardless of which other rows share the block or where a
    /// caller splits it.
    ///
    /// `input` and `out` are caller-owned slices holding one vector per
    /// row at the given strides (`input[r * in_stride ..][.. in_dim]`,
    /// `out[r * out_stride ..][.. out_dim]`); nothing here can grow or
    /// allocate.
    ///
    /// # Panics
    ///
    /// Panics if a stride is narrower than the matching dimension or
    /// either slice is too short for `rows`.
    fn forward_block_into(
        &self,
        input: &[f32],
        in_stride: usize,
        rows: usize,
        out: &mut [f32],
        out_stride: usize,
    ) {
        self.forward_block_with(Kernel::widest(), input, in_stride, rows, out, out_stride);
    }

    /// `Dense::forward_block_into` through a given instantiation of the
    /// kernel, so the tests can hold every one to the contract.
    fn forward_block_with(
        &self,
        kernel: Kernel,
        input: &[f32],
        in_stride: usize,
        rows: usize,
        out: &mut [f32],
        out_stride: usize,
    ) {
        if rows == 0 {
            return;
        }
        assert!(in_stride >= self.in_dim, "input stride below layer width");
        assert!(
            out_stride >= self.out_dim,
            "output stride below layer width"
        );
        assert!(
            input.len() >= (rows - 1) * in_stride + self.in_dim,
            "input block too short for {rows} rows"
        );
        assert!(
            out.len() >= (rows - 1) * out_stride + self.out_dim,
            "output block too short for {rows} rows"
        );
        for r in 0..rows {
            kernel.affine(
                &self.weights,
                &self.bias,
                &input[r * in_stride..][..self.in_dim],
                &mut out[r * out_stride..][..self.out_dim],
            );
        }
    }
}

/// A feed-forward acoustic network: input features → hidden ReLU layers →
/// log-softmax over phones.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes, e.g. `[39, 512, 512, 2001]`
    /// (input dim, hidden dims..., phone count). Deterministic in `seed`:
    /// one `ChaCha8Rng::seed_from_u64(seed)` stream feeds
    /// [`Dense::random`] layer by layer, which rounds each drawn weight
    /// to bf16 on the spot, so the model *is* its bf16 weights (no f32
    /// copy exists to drift from). [`Mlp::flops_per_frame`] and the
    /// benchmark's `macs_per_frame` count the topology: they change
    /// neither with the storage nor with what a zero input lets the
    /// kernel skip.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let layers = dims
            .windows(2)
            .map(|w| Dense::random(w[0], w[1], &mut rng))
            .collect();
        Self { layers }
    }

    /// Input feature dimension.
    fn input_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    /// Number of output classes (phones).
    pub fn output_dim(&self) -> usize {
        self.layers.last().unwrap().out_dim
    }

    /// The widest activation any layer produces or consumes — the row
    /// stride of the block scratch layout.
    fn max_width(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.in_dim.max(l.out_dim))
            .max()
            .unwrap()
    }

    /// Exact scratch length (in `f32`s) [`Mlp::score_block_into`]
    /// requires for a block of `rows` frames: two ping-pong activation
    /// planes of `rows` × the widest layer.
    pub fn block_scratch_len(&self, rows: usize) -> usize {
        2 * rows * self.max_width()
    }

    /// The forward pass over a block of `rows` packed feature vectors,
    /// through a given instantiation of the kernel (the tests hold every
    /// one to the contract). On return the log-posteriors of row `r` sit
    /// at `scratch[r * stride ..][.. output_dim]`, where `stride` is the
    /// returned row stride (`Mlp::max_width`). Each element is computed
    /// under the one dense contract, ReLU and log-softmax of its own row,
    /// and no value ever crosses between rows.
    fn log_posteriors_block_with(
        &self,
        kernel: Kernel,
        features: &[f32],
        rows: usize,
        scratch: &mut [f32],
    ) -> usize {
        let w = self.max_width();
        assert_eq!(
            features.len(),
            rows * self.input_dim(),
            "feature block dimension mismatch"
        );
        assert_eq!(
            scratch.len(),
            self.block_scratch_len(rows),
            "block scratch must be exactly sized: caller-owned slices \
             cannot grow mid-batch"
        );
        if rows == 0 {
            return w;
        }
        let (a, b) = scratch.split_at_mut(rows * w);
        // Ping-pong between the two planes; pick the starting plane by
        // layer-count parity so the final activations always land in `a`
        // (the plane the caller reads) without a fix-up copy.
        let (mut cur, mut next): (&mut [f32], &mut [f32]) = if self.layers.len().is_multiple_of(2) {
            (a, b)
        } else {
            (b, a)
        };
        let in_dim = self.input_dim();
        for r in 0..rows {
            cur[r * w..r * w + in_dim].copy_from_slice(&features[r * in_dim..(r + 1) * in_dim]);
        }
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            debug_assert_eq!(
                cur.len() + next.len(),
                self.block_scratch_len(rows),
                "block scratch planes grew mid-batch"
            );
            layer.forward_block_with(kernel, cur, w, rows, next, w);
            std::mem::swap(&mut cur, &mut next);
            if i != last {
                for r in 0..rows {
                    for v in cur[r * w..r * w + layer.out_dim].iter_mut() {
                        *v = v.max(0.0); // ReLU
                    }
                }
            }
        }
        let out_dim = self.output_dim();
        for r in 0..rows {
            log_softmax(&mut cur[r * w..r * w + out_dim]);
        }
        w
    }

    /// Scores a block of `rows` feature vectors into packed acoustic
    /// *cost rows* — the one forward path: batched scoring runs it once
    /// per gather window, and a lone frame is a block of one.
    ///
    /// `features` holds the block packed row-major (`rows` ×
    /// `Mlp::input_dim`, no padding); `out` is packed row-major
    /// (`rows` × `output_dim + 1`). In each cost row, `row[0]` (the
    /// epsilon column) is `0.0` and `row[1 + p]` is the negative
    /// log-posterior of phone class `p`. A row's bits are a function of
    /// its own features only: they do not depend on which block it is
    /// in, where in the block, or how a caller splits its frames.
    ///
    /// `scratch` is a caller-owned slice of **exactly**
    /// [`Mlp::block_scratch_len`]`(rows)` — a fixed-size borrow, so the
    /// hot loop cannot silently grow or allocate.
    ///
    /// # Panics
    ///
    /// Panics if `features` or `out` does not hold exactly `rows` packed
    /// vectors of the model's widths, or the scratch slice is not
    /// exactly the documented length (the allocation-free contract is
    /// also pinned by a debug assert at every layer step).
    pub fn score_block_into(
        &self,
        features: &[f32],
        rows: usize,
        out: &mut [f32],
        scratch: &mut [f32],
    ) {
        let row_len = self.output_dim() + 1;
        assert_eq!(out.len(), rows * row_len, "output block dimension mismatch");
        let stride = self.log_posteriors_block_with(Kernel::widest(), features, rows, scratch);
        for r in 0..rows {
            let row = &mut out[r * row_len..(r + 1) * row_len];
            row[0] = 0.0;
            for (slot, lp) in row[1..].iter_mut().zip(&scratch[r * stride..]) {
                *slot = -lp;
            }
        }
    }

    /// Scores a whole utterance into an [`AcousticTable`] of costs
    /// (negative log-posteriors), with phone id 0 (epsilon) left at cost
    /// 0. Each frame is scored once, in blocks through
    /// [`Mlp::score_block_into`], so every table row is bit-identical to
    /// scoring that frame as a block of one.
    ///
    /// # Panics
    ///
    /// Panics if a feature vector's length differs from the input
    /// dimension.
    pub fn score_utterance(&self, features: &[Vec<f32>]) -> AcousticTable {
        const BLOCK: usize = 16;
        let row_len = self.output_dim() + 1;
        let mut costs = vec![0.0; features.len() * row_len];
        let mut packed = Vec::with_capacity(BLOCK * self.input_dim());
        let mut scratch = vec![0.0; self.block_scratch_len(BLOCK)];
        for (block, out) in features
            .chunks(BLOCK)
            .zip(costs.chunks_mut(BLOCK * row_len))
        {
            packed.clear();
            for frame in block {
                packed.extend_from_slice(frame);
            }
            let scratch = &mut scratch[..self.block_scratch_len(block.len())];
            self.score_block_into(&packed, block.len(), out, scratch);
        }
        AcousticTable::from_fn(features.len(), row_len, |frame, phone| {
            costs[frame * row_len + phone]
        })
    }

    /// Floating-point operation count of one frame's forward pass (two
    /// per multiply-accumulate) — used by the GPU platform model to
    /// estimate DNN runtime.
    pub fn flops_per_frame(&self) -> u64 {
        self.layers.iter().map(Dense::flops).sum()
    }
}

/// Numerically-stable in-place log-softmax.
fn log_softmax(x: &mut [f32]) {
    let max = x.iter().cloned().fold(f32::MIN, f32::max);
    let log_sum = x.iter().map(|v| (v - max).exp()).sum::<f32>().ln() + max;
    for v in x {
        *v -= log_sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::affine_ref;

    /// One frame's cost row, scored as a block of one.
    fn score_row(mlp: &Mlp, features: &[f32]) -> Vec<f32> {
        let mut row = vec![0.0; mlp.output_dim() + 1];
        let mut scratch = vec![0.0; mlp.block_scratch_len(1)];
        mlp.score_block_into(features, 1, &mut row, &mut scratch);
        row
    }

    #[test]
    fn log_posteriors_normalize() {
        let mlp = Mlp::new(&[4, 8, 5], 1);
        let row = score_row(&mlp, &[0.1, -0.2, 0.3, 0.4]);
        assert_eq!(row[0], 0.0, "epsilon column");
        let total: f32 = row[1..].iter().map(|c| (-c).exp()).sum();
        assert!((total - 1.0).abs() < 1e-4, "posteriors sum to {total}");
        assert!(row.iter().all(|c| *c >= 0.0));
    }

    #[test]
    fn construction_is_deterministic() {
        let a = score_row(&Mlp::new(&[4, 6, 3], 42), &[1.0, 2.0, 3.0, 4.0]);
        let b = score_row(&Mlp::new(&[4, 6, 3], 42), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_weights() {
        let a = score_row(&Mlp::new(&[4, 6, 3], 1), &[1.0; 4]);
        let b = score_row(&Mlp::new(&[4, 6, 3], 2), &[1.0; 4]);
        assert_ne!(a, b);
    }

    #[test]
    fn flops_count_matches_topology() {
        let mlp = Mlp::new(&[39, 512, 2001], 0);
        assert_eq!(mlp.flops_per_frame(), 2 * (39 * 512 + 512 * 2001) as u64);
    }

    #[test]
    fn score_utterance_shapes_table() {
        let mlp = Mlp::new(&[4, 8, 5], 3);
        let feats = vec![vec![0.0; 4]; 6];
        let table = mlp.score_utterance(&feats);
        assert_eq!(table.num_frames(), 6);
        assert_eq!(table.num_phones(), 6); // 5 classes + epsilon slot
                                           // Costs are non-negative (posteriors <= 1).
        for f in 0..6 {
            for p in 1..6u32 {
                assert!(table.cost(f, asr_wfst::PhoneId(p)) >= 0.0);
            }
        }
    }

    #[test]
    fn score_utterance_matches_blocks_of_one_bit_for_bit() {
        // 37 frames: two full 16-frame blocks and a ragged third.
        let mlp = Mlp::new(&[6, 24, 9], 5);
        let flat = feature_block(&mlp, 37, 3);
        let feats: Vec<Vec<f32>> = flat.chunks(6).map(<[f32]>::to_vec).collect();
        let table = mlp.score_utterance(&feats);
        assert_eq!(table.num_frames(), 37);
        for (f, frame) in feats.iter().enumerate() {
            let single = score_row(&mlp, frame);
            let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(table.frame_row(f)), bits(&single), "frame {f}");
        }
    }

    #[test]
    fn score_utterance_runs_one_forward_pass_per_frame() {
        // One pass per (frame, phone) cell would be 100 000 forward
        // passes here, 2000x the cost of scoring the 50 frames.
        let mlp = Mlp::new(&[39, 512, 512, 2000], 0);
        let flat = feature_block(&mlp, 50, 1);
        let feats: Vec<Vec<f32>> = flat.chunks(39).map(<[f32]>::to_vec).collect();
        let start = std::time::Instant::now();
        let table = mlp.score_utterance(&feats);
        let wall = start.elapsed();
        assert_eq!((table.num_frames(), table.num_phones()), (50, 2001));

        let mut row = vec![0.0; 2001];
        let mut scratch = vec![0.0; mlp.block_scratch_len(1)];
        let start = std::time::Instant::now();
        for frame in &feats[..5] {
            mlp.score_block_into(frame, 1, &mut row, &mut scratch);
        }
        let fifty_rows = start.elapsed() * 10;
        assert!(
            wall < fifty_rows * 10,
            "50 frames took {wall:?}; 50 single rows take {fifty_rows:?}"
        );
        // The absolute figure only means something optimized.
        if !cfg!(debug_assertions) {
            assert!(wall.as_secs_f64() < 1.0, "50 frames took {wall:?}");
        }
    }

    #[test]
    fn log_softmax_is_stable_for_large_inputs() {
        let mut x = vec![1000.0, 1000.0, 1000.0];
        log_softmax(&mut x);
        for v in &x {
            assert!((v - (1f32 / 3.0).ln()).abs() < 1e-4);
            assert!(v.is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_input_dim_panics() {
        score_row(&Mlp::new(&[4, 3], 0), &[0.0; 5]);
    }

    /// A deterministic block of pseudo-random feature rows.
    fn feature_block(mlp: &Mlp, rows: usize, seed: u64) -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..rows * mlp.input_dim())
            .map(|_| rng.gen_range(-2.0..2.0))
            .collect()
    }

    #[test]
    fn block_rows_match_blocks_of_one_bit_for_bit() {
        // Odd and even layer counts exercise both ping-pong parities; the
        // last shape walks the weight loads past every boundary (layer
        // widths 39, 17, 16, 15: chunk + tail, chunk + 1, chunk, tail).
        for dims in [
            &[7usize, 16, 5][..],
            &[7, 16, 12, 5][..],
            &[39, 17, 16, 15, 5][..],
        ] {
            let mlp = Mlp::new(dims, 11);
            let (in_dim, row_len) = (dims[0], mlp.output_dim() + 1);
            for rows in [1usize, 2, 3, 8] {
                let feats = feature_block(&mlp, rows, rows as u64);
                let mut out = vec![0.0; rows * row_len];
                let mut scratch = vec![0.0; mlp.block_scratch_len(rows)];
                mlp.score_block_into(&feats, rows, &mut out, &mut scratch);
                for r in 0..rows {
                    let single = score_row(&mlp, &feats[r * in_dim..(r + 1) * in_dim]);
                    let block = &out[r * row_len..(r + 1) * row_len];
                    assert_eq!(block[0], 0.0, "epsilon column");
                    for (b, s) in block.iter().zip(&single) {
                        assert_eq!(
                            b.to_bits(),
                            s.to_bits(),
                            "row {r} of a {rows}-row block diverged ({dims:?})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn block_rows_are_independent_of_batch_composition() {
        for kernel in Kernel::supported() {
            let name = kernel.name();
            // The same feature row must score to the same bytes whether
            // its batch mates are zeros, itself, or noise.
            let mlp = Mlp::new(&[5, 20, 7], 31);
            let probe: Vec<f32> = feature_block(&mlp, 1, 7);
            let stride = mlp.max_width();
            let score_at = |block: &[f32], rows: usize, at: usize| -> Vec<u32> {
                let mut scratch = vec![0.0; mlp.block_scratch_len(rows)];
                mlp.log_posteriors_block_with(kernel, block, rows, &mut scratch);
                scratch[at * stride..at * stride + mlp.output_dim()]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            };
            let alone = score_at(&probe, 1, 0);
            let mut with_zeros = vec![0.0; 5];
            with_zeros.extend_from_slice(&probe);
            assert_eq!(score_at(&with_zeros, 2, 1), alone, "{name}");
            let mut with_noise = feature_block(&mlp, 3, 5);
            with_noise.extend_from_slice(&probe);
            assert_eq!(score_at(&with_noise, 4, 3), alone, "{name}");

            // Rows whose zeros fall on disjoint inputs walk disjoint
            // weight columns, over output layers that end fifteen past,
            // one past and one past a whole number of 16-output vector
            // steps; a row scores the same at any place in such a block.
            for out_dim in [511usize, 513, 1025] {
                let mlp = Mlp::new(&[12, 24, out_dim], 37);
                let dense = feature_block(&mlp, 1, 9);
                let zeroed = |keep: fn(usize) -> bool| -> Vec<f32> {
                    let row = dense.iter().enumerate();
                    row.map(|(i, v)| if keep(i) { *v } else { 0.0 }).collect()
                };
                let rows = [
                    zeroed(|i| i % 2 == 0),
                    zeroed(|i| i % 2 == 1),
                    zeroed(|_| false),
                    dense.clone(),
                ];
                let stride = mlp.max_width();
                let score = |order: &[usize]| -> Vec<Vec<u32>> {
                    let block: Vec<f32> = order.iter().flat_map(|r| rows[*r].clone()).collect();
                    let mut scratch = vec![0.0; mlp.block_scratch_len(order.len())];
                    mlp.log_posteriors_block_with(kernel, &block, order.len(), &mut scratch);
                    let row = |at: usize| &scratch[at * stride..at * stride + out_dim];
                    (0..order.len())
                        .map(|at| row(at).iter().map(|v| v.to_bits()).collect())
                        .collect()
                };
                let alone: Vec<Vec<u32>> = (0..4).map(|r| score(&[r]).remove(0)).collect();
                for order in [[0usize, 1, 2, 3], [3, 2, 1, 0], [1, 1, 0, 0], [2, 0, 3, 1]] {
                    for (at, got) in score(&order).iter().enumerate() {
                        assert_eq!(
                            got, &alone[order[at]],
                            "{name}: out_dim {out_dim} {order:?} at {at}"
                        );
                    }
                }
            }
        }
    }

    /// A layer with pseudo-random weights *and* biases.
    fn random_layer(in_dim: usize, out_dim: usize, seed: u64) -> Dense {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut layer = Dense::random(in_dim, out_dim, &mut rng);
        for b in &mut layer.bias {
            *b = rng.gen_range(-1.0..1.0);
        }
        layer
    }

    /// The layer applied with the scalar statement of the contract — the
    /// oracle the kernel must match.
    fn reference_forward(layer: &Dense, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0; layer.out_dim];
        affine_ref(&layer.weights, &layer.bias, x, &mut y);
        y
    }

    /// Bit equality; a NaN matches any NaN (Rust, like the dense contract,
    /// leaves the payload of a computed NaN unspecified).
    fn same_bits(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Runs the strided `rows` as one block through every instantiation
    /// of the kernel this CPU runs, with both buffers starting `offset`
    /// floats into their allocations, and checks every output against
    /// `want` (the oracle's, row by row) and every gap for stray writes.
    fn assert_kernel_matches_reference(
        layer: &Dense,
        rows: &[Vec<f32>],
        want: &[Vec<f32>],
        offset: usize,
    ) {
        const GAP: f32 = -77.0;
        let (in_stride, out_stride) = (layer.in_dim + 5, layer.out_dim + 3);
        let mut input = vec![0.5; offset + rows.len() * in_stride];
        for (r, row) in rows.iter().enumerate() {
            input[offset + r * in_stride..][..layer.in_dim].copy_from_slice(row);
        }
        for kernel in Kernel::supported() {
            let name = kernel.name();
            let mut out = vec![GAP; offset + rows.len() * out_stride];
            layer.forward_block_with(
                kernel,
                &input[offset..],
                in_stride,
                rows.len(),
                &mut out[offset..],
                out_stride,
            );
            assert!(
                out[..offset].iter().all(|v| *v == GAP),
                "{name}: wrote before row 0"
            );
            for (r, want) in want[..rows.len()].iter().enumerate() {
                let got = &out[offset + r * out_stride..][..out_stride];
                for (o, (g, w)) in got.iter().zip(want).enumerate() {
                    assert!(
                        same_bits(*g, *w),
                        "{name}: {}x{} rows {} offset {offset}: row {r} output {o} is {g:e}, \
                         oracle {w:e}",
                        layer.in_dim,
                        layer.out_dim,
                        rows.len()
                    );
                }
                assert!(
                    got[layer.out_dim..].iter().all(|v| *v == GAP),
                    "{name}: wrote past row {r}"
                );
            }
        }
    }

    #[test]
    fn kernel_matches_the_portable_fold_bit_for_bit() {
        let max_rows = 9;
        // Inputs below, at and past the group of four live columns at
        // every remainder; outputs below, at and past one and two
        // 16-output vector steps (and so every narrower one), and the
        // benchmark's output layer with and without a ragged end.
        for in_dim in [1usize, 3, 7, 8, 9, 15, 16, 17, 24, 39, 511, 512, 513] {
            for out_dim in [1usize, 3, 8, 9, 15, 16, 17, 31, 33, 2000, 2001] {
                let layer = random_layer(in_dim, out_dim, (in_dim * out_dim) as u64);
                let mut rng = ChaCha8Rng::seed_from_u64(99);
                // Every third row is dense; the others are half zeros (of
                // either sign), as a ReLU leaves them.
                let data: Vec<Vec<f32>> = (0..max_rows)
                    .map(|r| {
                        (0..in_dim)
                            .map(|_| match rng.gen_range(0..4) {
                                0 if r % 3 != 0 => 0.0,
                                1 if r % 3 != 0 => -0.0,
                                _ => rng.gen_range(-2.0..2.0),
                            })
                            .collect()
                    })
                    .collect();
                let want: Vec<Vec<f32>> =
                    data.iter().map(|x| reference_forward(&layer, x)).collect();
                // Unoptimized, the half-million-weight layers take two
                // block heights at one alignment each; every height and
                // alignment only in release. The rows are the same.
                let sampled = cfg!(debug_assertions) && in_dim * out_dim > 100_000;
                for rows in 1..=max_rows {
                    for offset in 0..4 {
                        if sampled && !([1, max_rows].contains(&rows) && offset == rows % 4) {
                            continue;
                        }
                        assert_kernel_matches_reference(&layer, &data[..rows], &want, offset);
                    }
                }
                // `forward` is the one-row call of the same kernel.
                for (s, w) in layer.forward(&data[1]).iter().zip(&want[1]) {
                    assert_eq!(s.to_bits(), w.to_bits());
                }
            }
        }
    }

    #[test]
    fn kernel_handles_non_finite_and_denormal_inputs_like_the_oracle() {
        let denormal = f32::from_bits(1);
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            denormal,
            -denormal,
            f32::MIN_POSITIVE / 2.0,
            -0.0,
            0.0,
            f32::MAX,
        ];
        // 39 inputs = nine groups of four live columns and a remainder of
        // three when all are nonzero; 19 outputs = one 16-output vector
        // step and a scalar tail of three.
        let mut layer = random_layer(39, 19, 8);
        // Weights that keep tiny products tiny (the smallest bf16
        // denormal, `MIN_POSITIVE`), one zero weight so `inf * 0` makes a
        // NaN inside the sum, and an output each of +Inf, -Inf and NaN
        // weights, in the vector step and in the tail.
        layer.set_weight(0, 0, 0x0001);
        layer.set_weight(0, 5, 0x0000);
        layer.set_weight(1, 33, 0x0080);
        layer.set_weight(4, 2, 0x7F80);
        layer.set_weight(4, 33, 0x7F80);
        layer.set_weight(5, 14, 0xFF80);
        layer.set_weight(6, 21, 0x7FC0);
        layer.set_weight(6, 36, 0xFF81);
        layer.set_weight(12, 7, 0x7F80);
        layer.set_weight(17, 30, 0xFF80);
        layer.set_weight(18, 11, 0x7FC0);
        let planted = [2usize, 7, 11, 14, 21, 30, 33, 36];
        for (s, special) in specials.iter().enumerate() {
            for at in [0usize, 2, 5, 14, 17, 21, 30, 31, 33, 36, 38] {
                // Row 0 carries one special value, row 1 is all that
                // value, row 2 is ordinary.
                let mut one = vec![0.25; 39];
                one[at] = *special;
                let rows = [one, vec![*special; 39], vec![-1.5; 39]];
                let want: Vec<Vec<f32>> =
                    rows.iter().map(|x| reference_forward(&layer, x)).collect();
                assert_kernel_matches_reference(&layer, &rows, &want, s % 4);
            }
        }
        // The sparse product's definition, stated outright rather than
        // through the oracle: a non-finite weight under a zero input (of
        // either sign) is never read, under a nonzero one it propagates.
        let with_planted = |v: f32| -> Vec<f32> {
            let mut x = vec![0.25; 39];
            planted.iter().for_each(|i| x[*i] = v);
            layer.forward(&x)
        };
        for zero in [0.0, -0.0] {
            assert!(with_planted(zero).iter().all(|y| y.is_finite()));
        }
        let hit = with_planted(0.25);
        assert_eq!((hit[4], hit[12]), (f32::INFINITY, f32::INFINITY));
        assert_eq!((hit[5], hit[17]), (f32::NEG_INFINITY, f32::NEG_INFINITY));
        assert!(hit[6].is_nan() && hit[18].is_nan());
        let finite = |o: &usize| ![4, 5, 6, 12, 17, 18].contains(o);
        assert!((0..19).filter(finite).all(|o| hit[o].is_finite()));
    }

    /// What each instantiation of the kernel costs (`just kernels`):
    /// kernel-only µs per row on the benchmark's three layer shapes, best
    /// of `PASSES` passes over the `ROWS` inputs each layer is handed when
    /// rendered MFCC rows run through the model (random features would
    /// give the wrong zero pattern), then log-softmax over the output
    /// rows. Each instantiation's outputs are checked against the
    /// baseline's first. A width the compiler stops vectorizing shows as
    /// a row no faster than the baseline's.
    #[test]
    #[ignore = "a profiler, not a check: run with `just kernels`"]
    fn kernel_timings() {
        use crate::mfcc::{MfccConfig, MfccPipeline};
        use crate::signal::{SignalConfig, Utterance};
        use asr_wfst::PhoneId;
        use std::hint::black_box;
        use std::time::{Duration, Instant};
        const PASSES: usize = 40;
        const ROWS: usize = 64;
        /// µs per row of the fastest of `PASSES` calls of `pass`, which
        /// handles `ROWS` rows.
        fn best_us(mut pass: impl FnMut()) -> f64 {
            let mut best = Duration::MAX;
            for _ in 0..PASSES {
                let start = Instant::now();
                pass();
                best = best.min(start.elapsed());
            }
            best.as_secs_f64() * 1e6 / ROWS as f64
        }

        // The benchmark's shape (`tests/relu_sparsity.rs` lists its zero
        // shares under this weight seed).
        let mlp = Mlp::new(&[39, 512, 512, 2000], 21);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let phones: Vec<PhoneId> = (0..16).map(|_| PhoneId(rng.gen_range(1..2001))).collect();
        let samples = Utterance::render(&phones, 5, &SignalConfig::default()).samples;
        let features = MfccPipeline::new(MfccConfig::default()).process(&samples);
        assert!(features.len() >= ROWS, "{} frames rendered", features.len());
        // What each layer is handed: the features, then every hidden
        // layer's ReLU output; the last entry is the output layer's logits.
        let mut inputs: Vec<Vec<Vec<f32>>> = vec![features[..ROWS].to_vec()];
        for (l, layer) in mlp.layers.iter().enumerate() {
            let next = inputs[l].iter().map(|x| {
                let mut y = layer.forward(x);
                if l + 1 < mlp.layers.len() {
                    y.iter_mut().for_each(|v| *v = v.max(0.0));
                }
                y
            });
            inputs.push(next.collect());
        }

        let kernels: Vec<Kernel> = Kernel::supported().collect();
        println!(
            "affine runs {}; kernel-only us per row, best of {PASSES} passes x {ROWS} rendered rows",
            Kernel::widest().name()
        );
        print!("{:>12}  zero share", "layer");
        kernels.iter().for_each(|k| print!("  {:>8}", k.name()));
        println!();
        for (layer, rows) in mlp.layers.iter().zip(&inputs) {
            let zeros = rows.iter().flatten().filter(|v| **v == 0.0).count();
            let share = zeros as f64 / (ROWS * layer.in_dim) as f64;
            print!("{:>5} -> {:<4}  {share:10.3}", layer.in_dim, layer.out_dim);
            let (mut y, mut base) = (vec![0.0; layer.out_dim], vec![0.0; layer.out_dim]);
            for kernel in &kernels {
                for x in rows {
                    kernel.affine(&layer.weights, &layer.bias, x, &mut y);
                    kernels[0].affine(&layer.weights, &layer.bias, x, &mut base);
                    assert!(y.iter().zip(&base).all(|(a, b)| same_bits(*a, *b)));
                }
                let us = best_us(|| {
                    for x in rows {
                        kernel.affine(&layer.weights, &layer.bias, black_box(x), &mut y);
                        black_box(&y);
                    }
                });
                print!("  {us:8.2}");
            }
            println!();
        }
        // Log-softmax of a log-softmax row is the same arithmetic again,
        // so the rows are normalized in place pass after pass.
        let mut logits = inputs.pop().unwrap();
        let us = best_us(|| {
            logits
                .iter_mut()
                .for_each(|row| log_softmax(black_box(row)))
        });
        println!("log-softmax over {} outputs: {us:.2}", mlp.output_dim());
    }

    #[test]
    #[should_panic(expected = "exactly sized")]
    fn block_scratch_must_be_exactly_sized() {
        let mlp = Mlp::new(&[4, 8, 3], 0);
        let feats = vec![0.0; 8];
        let mut out = vec![0.0; 2 * 4];
        let mut oversized = vec![0.0; mlp.block_scratch_len(2) + 1];
        mlp.score_block_into(&feats, 2, &mut out, &mut oversized);
    }

    #[test]
    fn empty_block_is_a_no_op() {
        let mlp = Mlp::new(&[4, 8, 3], 0);
        mlp.score_block_into(&[], 0, &mut [], &mut []);
    }
}
