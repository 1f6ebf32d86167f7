//! The streaming front-end's acceptance contract: [`OnlineMfcc`] features,
//! and the cost rows a session scores from them one frame at a time, are
//! **bit-identical** to the batch pipeline ([`MfccPipeline::process`],
//! [`TemplateScorer::score_waveform`]) for the same audio, for every
//! chunking of the sample stream — one sample at a time, 10 ms packets,
//! odd prime strides, or the whole utterance at once — and across framing
//! configurations (overlapping hops, gapped hops, deltas off, trailing
//! partial frames).

use asr_acoustic::frame::FrameConfig;
use asr_acoustic::mfcc::{MfccConfig, MfccPipeline};
use asr_acoustic::online::OnlineMfcc;
use asr_acoustic::signal::{render_phones, SignalConfig};
use asr_acoustic::template::TemplateScorer;
use asr_wfst::PhoneId;

/// Chunk sizes the stream is cut into: single samples, a few odd primes
/// (never aligned with the 160-sample frame), one frame, and effectively
/// the whole utterance.
const CHUNKS: &[usize] = &[1, 7, 97, 160, 163, usize::MAX];

fn speech(frames_per_phone: usize) -> Vec<f32> {
    render_phones(
        &[PhoneId(1), PhoneId(5), PhoneId(2)],
        frames_per_phone,
        &SignalConfig::default(),
    )
}

/// Pops one complete feature vector, if any.
fn pop_frame(online: &mut OnlineMfcc) -> Option<Vec<f32>> {
    let mut out = vec![0.0; online.dim()];
    online.pop_frame_into(&mut out).then_some(out)
}

/// Streams `samples` through a fresh `OnlineMfcc` in `chunk`-sized pieces
/// and returns every popped frame.
fn stream_features(cfg: MfccConfig, samples: &[f32], chunk: usize) -> Vec<Vec<f32>> {
    let mut online = OnlineMfcc::new(cfg);
    let mut out = Vec::new();
    for piece in samples.chunks(chunk.min(samples.len().max(1))) {
        online.push_samples(piece);
        // Pop eagerly, as a live consumer would.
        while let Some(frame) = pop_frame(&mut online) {
            out.push(frame);
        }
    }
    online.finish();
    while let Some(frame) = pop_frame(&mut online) {
        out.push(frame);
    }
    out
}

fn assert_bit_identical(batch: &[Vec<f32>], online: &[Vec<f32>], label: &str) {
    assert_eq!(batch.len(), online.len(), "{label}: frame count");
    for (t, (b, o)) in batch.iter().zip(online).enumerate() {
        assert_eq!(b.len(), o.len(), "{label}: dim at frame {t}");
        for (i, (x, y)) in b.iter().zip(o).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: frame {t} coeff {i}: batch {x} vs online {y}"
            );
        }
    }
}

#[test]
fn default_config_matches_across_chunkings() {
    let cfg = MfccConfig::default();
    let samples = speech(6);
    let batch = MfccPipeline::new(cfg).process(&samples);
    for &chunk in CHUNKS {
        let online = stream_features(cfg, &samples, chunk);
        assert_bit_identical(&batch, &online, &format!("chunk {chunk}"));
    }
}

#[test]
fn trailing_partial_frame_matches() {
    let cfg = MfccConfig::default();
    // 2.5 frames of audio plus 37 stray samples: the batch framer
    // zero-pads the tail, and so must the stream at finish().
    let mut samples = speech(2);
    samples.truncate(2 * 160 + 117);
    let batch = MfccPipeline::new(cfg).process(&samples);
    assert_eq!(batch.len(), 3, "trailing partial frame expected");
    for &chunk in CHUNKS {
        let online = stream_features(cfg, &samples, chunk);
        assert_bit_identical(&batch, &online, &format!("partial tail, chunk {chunk}"));
    }
}

#[test]
fn overlapping_hop_matches() {
    let cfg = MfccConfig {
        frame: FrameConfig {
            hop: 80,
            ..FrameConfig::default()
        },
        ..MfccConfig::default()
    };
    let samples = speech(4);
    let batch = MfccPipeline::new(cfg).process(&samples);
    for &chunk in &[1usize, 97, 163] {
        let online = stream_features(cfg, &samples, chunk);
        assert_bit_identical(&batch, &online, &format!("hop 80, chunk {chunk}"));
    }
}

#[test]
fn gapped_hop_matches() {
    let cfg = MfccConfig {
        frame: FrameConfig {
            hop: 230,
            ..FrameConfig::default()
        },
        ..MfccConfig::default()
    };
    let samples = speech(5);
    let batch = MfccPipeline::new(cfg).process(&samples);
    for &chunk in &[1usize, 97, 160] {
        let online = stream_features(cfg, &samples, chunk);
        assert_bit_identical(&batch, &online, &format!("hop 230, chunk {chunk}"));
    }
}

#[test]
fn no_delta_config_matches() {
    let cfg = MfccConfig {
        deltas: false,
        ..MfccConfig::default()
    };
    let samples = speech(3);
    let batch = MfccPipeline::new(cfg).process(&samples);
    for &chunk in CHUNKS {
        let online = stream_features(cfg, &samples, chunk);
        assert_bit_identical(&batch, &online, &format!("no deltas, chunk {chunk}"));
    }
}

#[test]
fn short_utterances_match() {
    // One and two frames exercise every delta edge clamp at once.
    let cfg = MfccConfig::default();
    let pipeline = MfccPipeline::new(cfg);
    for frames in [1usize, 2, 3] {
        let samples = &speech(6)[..frames * 160];
        let batch = pipeline.process(samples);
        assert_eq!(batch.len(), frames);
        for &chunk in &[1usize, 163] {
            let online = stream_features(cfg, samples, chunk);
            assert_bit_identical(&batch, &online, &format!("{frames} frames, chunk {chunk}"));
        }
    }
}

#[test]
fn empty_utterance_matches() {
    let cfg = MfccConfig::default();
    assert!(MfccPipeline::new(cfg).process(&[]).is_empty());
    let mut online = OnlineMfcc::new(cfg);
    online.finish();
    assert!(pop_frame(&mut online).is_none());
}

#[test]
fn scorer_rows_match_batch_table_across_chunkings() {
    // The serving session's composition: each streamed frame is scored as
    // a block of one, and every row matches the batch table.
    let scorer = TemplateScorer::with_default_signal(8);
    let samples = speech(6);
    let table = scorer.score_waveform(&samples);
    for &chunk in &[1usize, 97, 160, usize::MAX] {
        let rows = stream_features(*scorer.mfcc_config(), &samples, chunk);
        assert_eq!(rows.len(), table.num_frames(), "chunk {chunk}");
        let mut row = vec![0.0f32; table.num_phones()];
        for (frame, feat) in rows.iter().enumerate() {
            scorer.score_block_into(feat, 1, &mut row);
            for (p, (a, b)) in row.iter().zip(table.frame_row(frame)).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "chunk {chunk}, frame {frame}, phone {p}"
                );
            }
        }
    }
}
