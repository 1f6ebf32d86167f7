//! The input property the dense kernel's speed rests on, as a number a
//! model change would trip: how many of each layer's inputs are exact
//! zeros. `fold::affine` reads only the weight columns of nonzero inputs,
//! so its work on a layer is that layer's nonzero share — all of layer 1
//! (MFCC features are never zero), about half of the two layers that
//! hold 98.5 % of the weights, because a ReLU over symmetric
//! Xavier-uniform weights clamps about half of what it sees.
//!
//! The layers are rebuilt through the public `Dense::random` on the
//! stream `Mlp::new` documents, on the benchmark's shape
//! (39→512→512→2000), and run over the rendered utterances
//! `bf16_sensitivity` uses. `cargo test --release --test relu_sparsity --
//! --nocapture` prints the table recorded in ARCHITECTURE.md next to
//! "What bf16 costs".

use asr_acoustic::dnn::Dense;
use asr_acoustic::mfcc::{MfccConfig, MfccPipeline};
use asr_acoustic::signal::{SignalConfig, Utterance};
use asr_wfst::PhoneId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const DIMS: [usize; 4] = [39, 512, 512, 2000];
const MLP_SEEDS: [u64; 3] = [21, 1, 2];
/// Phones per utterance at five frames a phone: 285 rows in all.
const UTTERANCE_PHONES: [usize; 4] = [12, 14, 15, 16];

/// Zeros among one layer's inputs, over every frame.
#[derive(Default)]
struct ZeroCount {
    inputs: usize,
    zero: usize,
    /// Inputs of frames that have a predecessor in their utterance, and
    /// how many of them are zero in both.
    paired: usize,
    zero_twice: usize,
}

impl ZeroCount {
    fn add(&mut self, x: &[f32], previous: Option<&Vec<f32>>) {
        self.inputs += x.len();
        self.zero += x.iter().filter(|v| **v == 0.0).count();
        if let Some(previous) = previous {
            self.paired += x.len();
            let both = x.iter().zip(previous);
            self.zero_twice += both.filter(|(a, b)| **a == 0.0 && **b == 0.0).count();
        }
    }

    fn share(&self) -> f64 {
        self.zero as f64 / self.inputs as f64
    }
}

#[test]
fn half_of_each_hidden_layers_inputs_are_exact_zeros() {
    let mfcc = MfccPipeline::new(MfccConfig::default());
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let utterances: Vec<Vec<Vec<f32>>> = UTTERANCE_PHONES
        .iter()
        .map(|len| {
            let phones: Vec<PhoneId> = (0..*len).map(|_| PhoneId(rng.gen_range(1..2001))).collect();
            mfcc.process(&Utterance::render(&phones, 5, &SignalConfig::default()).samples)
        })
        .collect();

    println!("| weight seed | layer (inputs) | zero share | zero in two consecutive frames |");
    println!("|---|---|---|---|");
    for seed in MLP_SEEDS {
        let mut stream = ChaCha8Rng::seed_from_u64(seed);
        // The output layer's own outputs feed no layer: the two hidden
        // layers are the stream's first two draws.
        let hidden: Vec<Dense> = DIMS
            .windows(2)
            .take(2)
            .map(|d| Dense::random(d[0], d[1], &mut stream))
            .collect();
        let mut counts: [ZeroCount; 3] = Default::default();
        for frames in &utterances {
            let mut previous: Option<[Vec<f32>; 3]> = None;
            for features in frames {
                // What each layer is handed: the features, then every
                // hidden layer's ReLU output.
                let mut inputs = [features.clone(), Vec::new(), Vec::new()];
                for (l, layer) in hidden.iter().enumerate() {
                    inputs[l + 1] = layer.forward(&inputs[l]);
                    inputs[l + 1].iter_mut().for_each(|v| *v = v.max(0.0));
                }
                for (l, count) in counts.iter_mut().enumerate() {
                    count.add(&inputs[l], previous.as_ref().map(|p| &p[l]));
                }
                previous = Some(inputs);
            }
        }
        for (l, count) in counts.iter().enumerate() {
            println!(
                "| {seed} | {} ({} -> {}) | {:.3} | {:.3} |",
                l + 1,
                DIMS[l],
                DIMS[l + 1],
                count.share(),
                count.zero_twice as f64 / count.paired as f64
            );
        }
        assert!(counts[0].inputs >= 200 * DIMS[0]);
        assert_eq!(counts[0].zero, 0, "an MFCC feature was exactly zero");
        for (l, count) in counts.iter().enumerate().skip(1) {
            assert!(
                (0.35..=0.65).contains(&count.share()),
                "seed {seed}: {:.3} of layer {}'s inputs are zero",
                count.share(),
                l + 1
            );
        }
    }
}
