//! Incremental (streaming) acoustic front-end.
//!
//! The paper's accelerator consumes per-frame likelihood rows out of a
//! double-buffered Acoustic Likelihood Buffer that is filled *as audio
//! arrives*; the batch [`crate::mfcc::MfccPipeline`] can only score whole
//! utterances. This module closes that gap with push-samples/pop-frames
//! state machines whose outputs are **bit-identical** to the batch
//! pipeline for the same audio (pinned by
//! `crates/acoustic/tests/online_equivalence.rs`):
//!
//! * [`OnlineMfcc`] — raw samples in, feature vectors out, with a ring
//!   buffer carrying frame overlap and a bounded two-frame lookahead
//!   window for the Δ/ΔΔ recurrence (the streaming analogue of Kaldi's
//!   online feature pipeline, byte-identical to offline);
//! * [`FrameScorer`] + [`MlpScorer`] — one frame's features into one
//!   acoustic *cost row* (what the accelerator's ALB holds) through
//!   [`Mlp::score_block_into`] as a block of one.
//!
//! There is one streaming composition, and it lives in the serving
//! runtime: a session pops [`OnlineMfcc`] frames as they complete and
//! scores them in blocks through the acoustic model's
//! `score_block_into`, one frame or a gathered block at a time. Because a
//! cost row's bits depend on nothing but its own features, every such
//! row is bit-identical to batch scoring the same audio.
//!
//! Every stage runs over caller-owned or internally pooled scratch: after
//! the first few frames, pushing samples and popping frames performs
//! **zero steady-state heap allocations**.

use crate::dnn::Mlp;
use crate::frame::PreEmphasis;
use crate::mfcc::{delta_into, FrameScratch, MfccConfig, MfccPipeline};
use std::collections::VecDeque;

/// Streaming MFCC extractor: push raw samples, pop feature vectors.
///
/// Features are bit-identical to [`MfccPipeline::process`] over the same
/// audio, for every way of chunking the sample stream. Because the Δ/ΔΔ
/// recurrence looks one frame ahead (and ΔΔ one more), a frame's full
/// vector becomes available two frames after its audio does; call
/// [`OnlineMfcc::finish`] at end of utterance to flush the lookahead with
/// the batch pipeline's edge clamping.
///
/// # Example
///
/// ```
/// use asr_acoustic::mfcc::{MfccConfig, MfccPipeline};
/// use asr_acoustic::online::OnlineMfcc;
/// use asr_acoustic::signal::{render_phones, SignalConfig};
/// use asr_wfst::PhoneId;
///
/// let wave = render_phones(&[PhoneId(1)], 5, &SignalConfig::default());
/// let batch = MfccPipeline::new(MfccConfig::default()).process(&wave);
///
/// let mut online = OnlineMfcc::new(MfccConfig::default());
/// for chunk in wave.chunks(7) {
///     online.push_samples(chunk);
/// }
/// online.finish();
/// let (mut streamed, mut frame) = (Vec::new(), vec![0.0; online.dim()]);
/// while online.pop_frame_into(&mut frame) {
///     streamed.push(frame.clone());
/// }
/// assert_eq!(streamed, batch);
/// ```
#[derive(Debug, Clone)]
pub struct OnlineMfcc {
    pipeline: MfccPipeline,
    window: Vec<f32>,
    // Streaming framer state.
    pre_emphasis: PreEmphasis,
    /// Emphasized samples waiting for the next frame start (ring kept
    /// left-aligned with `copy_within`; capacity is one frame).
    pending: Vec<f32>,
    /// Samples still to discard before the next frame start (hop larger
    /// than the frame length).
    skip: usize,
    // Per-frame scratch.
    scratch: FrameScratch,
    frame_buf: Vec<f32>,
    // Bounded lookahead for the delta recurrence: the last three static
    // vectors and the last three delta vectors, as rotating windows.
    base_win: [Vec<f32>; 3],
    delta_win: [Vec<f32>; 3],
    dd_buf: Vec<f32>,
    /// Static frames computed so far.
    bases: usize,
    /// Complete feature vectors emitted so far.
    emitted: usize,
    /// Finished frames awaiting [`OnlineMfcc::pop_frame_into`], flattened.
    ready: VecDeque<f32>,
    finished: bool,
}

impl OnlineMfcc {
    /// Builds the extractor (precomputing window, filterbank, and DCT).
    ///
    /// # Panics
    ///
    /// Panics on the same inconsistent configurations as
    /// [`MfccPipeline::new`], or a degenerate frame config.
    pub fn new(cfg: MfccConfig) -> Self {
        Self::with_pipeline(MfccPipeline::new(cfg))
    }

    /// Builds the extractor around an existing pipeline (sharing its
    /// configuration and precomputed tables).
    fn with_pipeline(pipeline: MfccPipeline) -> Self {
        let cfg = *pipeline.config();
        assert!(
            cfg.frame.frame_len > 0 && cfg.frame.hop > 0,
            "degenerate frame config"
        );
        let num_ceps = cfg.num_ceps;
        let scratch = pipeline.frame_scratch();
        Self {
            window: crate::frame::hamming(cfg.frame.frame_len),
            pre_emphasis: PreEmphasis::new(cfg.frame.pre_emphasis),
            pending: Vec::with_capacity(cfg.frame.frame_len),
            skip: 0,
            scratch,
            frame_buf: vec![0.0; cfg.frame.frame_len],
            base_win: [
                vec![0.0; num_ceps],
                vec![0.0; num_ceps],
                vec![0.0; num_ceps],
            ],
            delta_win: [
                vec![0.0; num_ceps],
                vec![0.0; num_ceps],
                vec![0.0; num_ceps],
            ],
            dd_buf: vec![0.0; num_ceps],
            bases: 0,
            emitted: 0,
            ready: VecDeque::new(),
            finished: false,
            pipeline,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &MfccConfig {
        self.pipeline.config()
    }

    /// Feature dimension of the popped vectors (`num_ceps`, tripled when
    /// deltas are enabled).
    pub fn dim(&self) -> usize {
        self.pipeline.dim()
    }

    /// `true` once [`OnlineMfcc::finish`] has run (push panics until
    /// [`OnlineMfcc::reset`]).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Feeds raw audio samples, in any chunking (single samples, 10 ms
    /// packets, whole utterances). Allocation-free once warm.
    ///
    /// # Panics
    ///
    /// Panics if called after [`OnlineMfcc::finish`] without a
    /// [`OnlineMfcc::reset`].
    pub fn push_samples(&mut self, samples: &[f32]) {
        assert!(!self.finished, "push_samples after finish (reset first)");
        let frame_len = self.pipeline.config().frame.frame_len;
        for &raw in samples {
            let emphasized = self.pre_emphasis.step(raw);
            if self.skip > 0 {
                self.skip -= 1;
                continue;
            }
            self.pending.push(emphasized);
            if self.pending.len() == frame_len {
                self.emit_full_frame();
            }
        }
    }

    /// Ends the utterance: the trailing partial frame (if any) is
    /// zero-padded exactly as the batch framer does, and the delta
    /// lookahead drains with the batch edge clamping. Idempotent.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let frame = self.pipeline.config().frame;
        // The batch framer emits a zero-padded frame for every start
        // position inside the signal; drain the pending ring the same way.
        while !self.pending.is_empty() {
            let len = self.pending.len().min(frame.frame_len);
            crate::frame::window_frame_into(
                &self.pending[..len],
                &self.window,
                &mut self.frame_buf,
            );
            if self.pending.len() > frame.hop {
                self.pending.copy_within(frame.hop.., 0);
                let keep = self.pending.len() - frame.hop;
                self.pending.truncate(keep);
            } else {
                self.pending.clear();
            }
            self.compute_base();
        }
        // Drain the delta lookahead with end-of-utterance clamping.
        let n = self.bases;
        if self.pipeline.config().deltas && n > 0 {
            // The final delta: next clamps to the last static frame.
            let t = n - 1;
            let prev = t.saturating_sub(1) % 3;
            delta_slot(&self.base_win, prev, t % 3, &mut self.delta_win[t % 3]);
            for j in self.emitted..n {
                let next = (j + 1).min(n - 1);
                delta_slot(
                    &self.delta_win,
                    j.saturating_sub(1) % 3,
                    next % 3,
                    &mut self.dd_buf,
                );
                push_frame(
                    &mut self.ready,
                    &self.base_win[j % 3],
                    Some((&self.delta_win[j % 3], &self.dd_buf)),
                );
            }
            self.emitted = n;
        }
    }

    /// Pops the oldest complete feature vector into `out`; `false` when
    /// none is ready yet. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from [`OnlineMfcc::dim`].
    pub fn pop_frame_into(&mut self, out: &mut [f32]) -> bool {
        assert_eq!(out.len(), self.dim(), "feature dimension mismatch");
        let n = out.len();
        if self.ready.len() < n {
            return false;
        }
        for (o, v) in out.iter_mut().zip(self.ready.drain(..n)) {
            *o = v;
        }
        true
    }

    /// Complete feature vectors ready to pop: frames the extractor has
    /// finished and no [`OnlineMfcc::pop_frame_into`] has taken yet.
    pub fn ready_frames(&self) -> usize {
        self.ready.len() / self.dim()
    }

    /// Clears all streaming state for the next utterance, keeping every
    /// buffer (so a pooled extractor is reused allocation-free).
    pub fn reset(&mut self) {
        self.pre_emphasis.reset();
        self.pending.clear();
        self.skip = 0;
        self.bases = 0;
        self.emitted = 0;
        self.ready.clear();
        self.finished = false;
    }

    /// Windows the full pending frame, advances the ring by one hop, and
    /// runs the static feature chain.
    fn emit_full_frame(&mut self) {
        let frame = self.pipeline.config().frame;
        crate::frame::window_frame_into(&self.pending, &self.window, &mut self.frame_buf);
        if frame.hop >= frame.frame_len {
            self.pending.clear();
            self.skip = frame.hop - frame.frame_len;
        } else {
            self.pending.copy_within(frame.hop.., 0);
            let keep = frame.frame_len - frame.hop;
            self.pending.truncate(keep);
        }
        self.compute_base();
    }

    /// Static cepstra for the windowed frame in `frame_buf`, then one step
    /// of the streaming delta recurrence.
    fn compute_base(&mut self) {
        let slot = self.bases % 3;
        self.pipeline.static_features_into(
            &self.frame_buf,
            &mut self.scratch,
            &mut self.base_win[slot],
        );
        self.bases += 1;
        if !self.pipeline.config().deltas {
            push_frame(&mut self.ready, &self.base_win[slot], None);
            self.emitted += 1;
            return;
        }
        let k = self.bases - 1;
        if k >= 1 {
            // base[k] is the lookahead for delta[k-1].
            let t = k - 1;
            delta_slot(
                &self.base_win,
                t.saturating_sub(1) % 3,
                k % 3,
                &mut self.delta_win[t % 3],
            );
            if t >= 1 {
                // delta[t] is the lookahead for delta-delta[t-1]:
                // frame t-1 is now complete.
                let j = t - 1;
                delta_slot(
                    &self.delta_win,
                    j.saturating_sub(1) % 3,
                    t % 3,
                    &mut self.dd_buf,
                );
                push_frame(
                    &mut self.ready,
                    &self.base_win[j % 3],
                    Some((&self.delta_win[j % 3], &self.dd_buf)),
                );
                self.emitted = j + 1;
            }
        }
    }
}

/// `delta_into` between two slots of a rotating window (distinct or, at
/// the clamped edges, the same slot).
fn delta_slot(win: &[Vec<f32>; 3], prev: usize, next: usize, out: &mut [f32]) {
    delta_into(&win[prev], &win[next], out);
}

/// Appends one finished frame (base, optionally Δ and ΔΔ) to the ready
/// queue.
fn push_frame(ready: &mut VecDeque<f32>, base: &[f32], deltas: Option<(&[f32], &[f32])>) {
    ready.extend(base.iter().copied());
    if let Some((d, dd)) = deltas {
        ready.extend(d.iter().copied());
        ready.extend(dd.iter().copied());
    }
}

/// An acoustic model that can score one frame's features into a cost row
/// (`row[0]` the epsilon column, fixed at 0; `row[p]` the cost of phone
/// `p`).
///
/// Implementations take `&mut self` so models that need scratch (the MLP)
/// can score without allocating. The serving runtime does not use it: a
/// session scores through the model's block path directly, and the
/// benchmark's layer replay is this trait's one caller.
pub trait FrameScorer {
    /// Length of a cost row (phone count including the epsilon column 0).
    fn row_len(&self) -> usize;

    /// Scores one frame's feature vector into `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.row_len()` or the feature dimension
    /// does not match the model's.
    fn score_into(&mut self, features: &[f32], row: &mut [f32]);
}

/// Allocation-free [`FrameScorer`] adapter for the [`Mlp`] acoustic model:
/// owns the scratch of a one-row block and scores each frame as a block
/// of one through [`Mlp::score_block_into`], so its rows are the same
/// bits as [`Mlp::score_utterance`]'s (negative log-posteriors, epsilon
/// at 0).
#[derive(Debug)]
pub struct MlpScorer<'m> {
    mlp: &'m Mlp,
    scratch: Vec<f32>,
}

impl<'m> MlpScorer<'m> {
    /// Wraps a network.
    pub fn new(mlp: &'m Mlp) -> Self {
        Self {
            mlp,
            scratch: vec![0.0; mlp.block_scratch_len(1)],
        }
    }
}

impl FrameScorer for MlpScorer<'_> {
    fn row_len(&self) -> usize {
        self.mlp.output_dim() + 1
    }

    fn score_into(&mut self, features: &[f32], row: &mut [f32]) {
        self.mlp
            .score_block_into(features, 1, row, &mut self.scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::{render_phones, SignalConfig};
    use asr_wfst::PhoneId;

    /// Pops one complete feature vector, if any.
    fn pop_frame(online: &mut OnlineMfcc) -> Option<Vec<f32>> {
        let mut out = vec![0.0; online.dim()];
        online.pop_frame_into(&mut out).then_some(out)
    }

    /// Frames the Δ/ΔΔ recurrence holds back.
    fn lookahead_frames(online: &OnlineMfcc) -> usize {
        if online.pipeline.config().deltas {
            2
        } else {
            0
        }
    }

    fn wave(frames: usize) -> Vec<f32> {
        render_phones(&[PhoneId(1), PhoneId(4)], frames, &SignalConfig::default())
    }

    fn drain(online: &mut OnlineMfcc) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        while let Some(f) = pop_frame(online) {
            out.push(f);
        }
        out
    }

    #[test]
    fn lookahead_is_two_frames_with_deltas() {
        let mut online = OnlineMfcc::new(MfccConfig::default());
        assert_eq!(lookahead_frames(&online), 2);
        online.push_samples(&wave(3)); // 6 frames of audio
        assert_eq!(online.ready_frames(), 4, "two frames held back");
        online.finish();
        assert_eq!(online.ready_frames(), 6);
    }

    #[test]
    fn no_deltas_streams_without_lookahead() {
        let cfg = MfccConfig {
            deltas: false,
            ..MfccConfig::default()
        };
        let mut online = OnlineMfcc::new(cfg);
        assert_eq!(lookahead_frames(&online), 0);
        online.push_samples(&wave(2)); // 4 frames
        assert_eq!(online.ready_frames(), 4);
        assert_eq!(online.dim(), 13);
    }

    #[test]
    fn empty_utterance_emits_nothing() {
        let mut online = OnlineMfcc::new(MfccConfig::default());
        online.finish();
        assert_eq!(online.ready_frames(), 0);
        assert!(pop_frame(&mut online).is_none());
    }

    #[test]
    fn reset_reuses_the_extractor() {
        let audio = wave(2);
        let batch = MfccPipeline::new(MfccConfig::default()).process(&audio);
        let mut online = OnlineMfcc::new(MfccConfig::default());
        for _ in 0..3 {
            online.push_samples(&audio);
            online.finish();
            assert_eq!(drain(&mut online), batch);
            online.reset();
        }
    }

    #[test]
    #[should_panic(expected = "after finish")]
    fn push_after_finish_panics() {
        let mut online = OnlineMfcc::new(MfccConfig::default());
        online.finish();
        online.push_samples(&[0.0]);
    }

    #[test]
    fn mlp_rows_match_score_utterance() {
        // 18 frames: one full block of `score_utterance` and a ragged
        // second. The benchmark's shape is the one whose 2000-wide output
        // layer, not its input, sets the block stride.
        let audio = wave(9);
        let feats = MfccPipeline::new(MfccConfig::default()).process(&audio);
        assert_eq!(feats.len(), 18);
        for dims in [&[39usize, 16, 5][..], &[39, 512, 512, 2000][..]] {
            let mlp = Mlp::new(dims, 9);
            let table = mlp.score_utterance(&feats);
            let mut scorer = MlpScorer::new(&mlp);
            let mut online = OnlineMfcc::new(MfccConfig::default());
            let (mut feat, mut row) = (vec![0.0; online.dim()], vec![0.0; scorer.row_len()]);
            let mut frame = 0;
            // Pop eagerly after every push and after the finishing flush.
            for chunk in audio.chunks(101).map(Some).chain([None]) {
                match chunk {
                    Some(chunk) => online.push_samples(chunk),
                    None => online.finish(),
                }
                while online.pop_frame_into(&mut feat) {
                    scorer.score_into(&feat, &mut row);
                    for (p, (a, b)) in row.iter().zip(table.frame_row(frame)).enumerate() {
                        assert_eq!(a.to_bits(), b.to_bits(), "{dims:?} frame {frame} phone {p}");
                    }
                    frame += 1;
                }
            }
            assert_eq!(frame, table.num_frames(), "{dims:?}");
        }
    }
}
