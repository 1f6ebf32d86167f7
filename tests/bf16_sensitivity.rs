//! What storing the acoustic model's weights as bf16 costs (ROADMAP item
//! 2(b)'s gate, test-sized). The library keeps no f32 weights and no f32
//! forward path, so this test redraws the f32 weights itself from the
//! documented stream and runs them through a scalar forward pass in the
//! kernel's own order. On the benchmark's shape (39→512→512→2000, 50k-state
//! graph, beam 40, `max_active` 2000) it prints — `cargo test --release
//! --test bf16_sensitivity -- --nocapture`, recorded in ARCHITECTURE.md
//! under "What bf16 costs" — and bounds how far the bf16 model's
//! log-posteriors and decodes sit from the f32 model's, next to what two
//! narrower static searches (beam 7 / `max_active` 2048 and beam 6 /
//! `max_active` 512) do to the same f32 decode.

use asr_acoustic::dnn::Mlp;
use asr_acoustic::mfcc::{MfccConfig, MfccPipeline};
use asr_acoustic::scores::AcousticTable;
use asr_acoustic::signal::{SignalConfig, Utterance};
use asr_decoder::search::{DecodeOptions, DecodeResult, ViterbiDecoder};
use asr_decoder::wer::align;
use asr_wfst::synth::{SynthConfig, SynthWfst};
use asr_wfst::PhoneId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const DIMS: [usize; 4] = [39, 512, 512, 2000];
const MLP_SEED: u64 = 21;
/// Phones per utterance at five frames a phone: 285 rows in all.
const UTTERANCE_PHONES: [usize; 4] = [12, 14, 15, 16];

/// `fold::affine_ref`'s sum over one output's f32 weights: the terms of
/// the nonzero inputs in increasing order, from `+0.0`, a separate
/// multiply and add — so this model differs from the library's by the
/// rounding of the weights and nothing else.
fn dot_f32(w: &[f32], x: &[f32]) -> f32 {
    let live = w.iter().zip(x).filter(|(_, x)| **x != 0.0);
    live.fold(0.0, |sum, (w, x)| sum + w * x)
}

/// The f32 weights `Mlp::new(&DIMS, MLP_SEED)` rounds, layer by layer:
/// one `ChaCha8Rng` stream, row-major `gen_range(-limit..limit)`, zero
/// biases.
fn f32_weights() -> Vec<Vec<f32>> {
    let mut rng = ChaCha8Rng::seed_from_u64(MLP_SEED);
    let layer = |d: &[usize]| {
        let limit = (6.0 / (d[0] + d[1]) as f32).sqrt();
        (0..d[0] * d[1])
            .map(|_| rng.gen_range(-limit..limit))
            .collect()
    };
    DIMS.windows(2).map(layer).collect()
}

/// The MLP's forward pass (`Mlp::score_block_into` before its cost
/// mapping) over the f32 weights: ReLU between layers, the same
/// max-shifted log-softmax at the end.
fn log_posteriors_f32(layers: &[Vec<f32>], features: &[f32]) -> Vec<f32> {
    let mut x = features.to_vec();
    for (i, w) in layers.iter().enumerate() {
        x = w
            .chunks_exact(x.len())
            .map(|row| dot_f32(row, &x))
            .collect();
        if i + 1 != layers.len() {
            x.iter_mut().for_each(|v| *v = v.max(0.0));
        }
    }
    let max = x.iter().cloned().fold(f32::MIN, f32::max);
    let log_sum = x.iter().map(|v| (v - max).exp()).sum::<f32>().ln() + max;
    x.iter().map(|v| v - log_sum).collect()
}

fn argmax(row: &[f32]) -> usize {
    (0..row.len()).fold(0, |best, i| if row[i] > row[best] { i } else { best })
}

/// Word errors of `hyp` against `reference` over all utterances, as a
/// rate of the reference words, and the largest best-cost gap.
fn against(reference: &[DecodeResult], hyp: &[DecodeResult]) -> (f64, f32) {
    let (mut errors, mut words, mut cost_gap) = (0, 0, 0.0f32);
    for (r, h) in reference.iter().zip(hyp) {
        errors += align(&r.words, &h.words).errors();
        words += r.words.len();
        cost_gap = cost_gap.max((h.cost - r.cost).abs());
    }
    (errors as f64 / words.max(1) as f64, cost_gap)
}

#[test]
fn bf16_weights_cost_no_more_wer_than_beam_7_cap_2048() {
    let (bf16, f32_model) = (Mlp::new(&DIMS, MLP_SEED), f32_weights());
    let mfcc = MfccPipeline::new(MfccConfig::default());
    let mut rng = ChaCha8Rng::seed_from_u64(3);

    // Row by row: how far each log-posterior moves, and whether the
    // frame's best phone does.
    let (mut rows, mut max_delta, mut sum_delta, mut argmax_kept) = (0usize, 0.0f32, 0.0f64, 0);
    let (mut spread, mut tables_f32, mut tables_bf16) = (0.0f32, Vec::new(), Vec::new());
    for len in UTTERANCE_PHONES {
        let phones: Vec<PhoneId> = (0..len).map(|_| PhoneId(rng.gen_range(1..2001))).collect();
        let audio = Utterance::render(&phones, 5, &SignalConfig::default()).samples;
        let feats = mfcc.process(&audio);
        let exact: Vec<Vec<f32>> = feats
            .iter()
            .map(|f| log_posteriors_f32(&f32_model, f))
            .collect();
        // A cost row is the negated log-posteriors behind an epsilon
        // column, and negation is exact.
        let scored = bf16.score_utterance(&feats);
        for (frame, want) in exact.iter().enumerate() {
            let got: Vec<f32> = scored.frame_row(frame)[1..].iter().map(|c| -c).collect();
            for (g, w) in got.iter().zip(want) {
                max_delta = max_delta.max((g - w).abs());
                sum_delta += f64::from((g - w).abs());
            }
            let lowest = want.iter().cloned().fold(f32::MAX, f32::min);
            spread = spread.max(want[argmax(want)] - lowest);
            argmax_kept += usize::from(argmax(&got) == argmax(want));
            rows += 1;
        }
        tables_f32.push(AcousticTable::from_fn(feats.len(), 2001, |f, p| {
            p.checked_sub(1).map_or(0.0, |p| -exact[f][p])
        }));
        tables_bf16.push(scored);
    }
    let mean_delta = sum_delta / (rows * DIMS[3]) as f64;

    // Decoded: the benchmark's voice search over each table, and the f32
    // tables again under two narrower static searches (the first is the
    // gate; the second shows what a cap that binds costs).
    let graph = SynthWfst::generate(&SynthConfig {
        num_phones: 2000,
        vocab_size: 2000,
        final_fraction: 0.05,
        ..SynthConfig::with_states(50_000).with_seed(0x5EED_CAFE)
    })
    .unwrap();
    let base = DecodeOptions {
        max_active: Some(2_000),
        ..DecodeOptions::with_beam(40.0)
    };
    let beam7 = DecodeOptions {
        beam: 7.0,
        max_active: Some(2048),
    };
    let beam6 = DecodeOptions {
        beam: 6.0,
        max_active: Some(512),
    };
    let decode = |opts: &DecodeOptions, tables: &[AcousticTable]| -> Vec<DecodeResult> {
        let decoder = ViterbiDecoder::new(opts.clone());
        tables.iter().map(|t| decoder.decode(&graph, t)).collect()
    };
    let reference = decode(&base, &tables_f32);
    let words: usize = reference.iter().map(|r| r.words.len()).sum();
    let (bf16_wer, bf16_cost) = against(&reference, &decode(&base, &tables_bf16));
    let (beam7_wer, beam7_cost) = against(&reference, &decode(&beam7, &tables_f32));
    let (beam6_wer, beam6_cost) = against(&reference, &decode(&beam6, &tables_f32));

    println!("bf16 vs f32 weights, {DIMS:?}, {rows} MFCC rows, {words} reference words");
    println!("log-posteriors: max |delta| {max_delta:.5}, mean |delta| {mean_delta:.6}, widest row spread {spread:.3}, frame argmax kept {argmax_kept}/{rows}");
    println!("| decode vs f32 weights at beam 40, max_active 2000 | WER | max best-cost delta |");
    println!("| bf16 weights, same search | {bf16_wer:.4} | {bf16_cost:.4} |");
    println!("| f32 weights, beam 7, max_active 2048 | {beam7_wer:.4} | {beam7_cost:.4} |");
    println!("| f32 weights, beam 6, max_active 512 | {beam6_wer:.4} | {beam6_cost:.4} |");

    assert!(rows >= 200 && words > 0);
    assert!(max_delta <= 0.01, "a log-posterior moved by {max_delta}");
    assert!(
        bf16_wer <= beam7_wer,
        "bf16 costs {bf16_wer} WER against f32, beam 7 / max_active 2048 {beam7_wer}"
    );
}
