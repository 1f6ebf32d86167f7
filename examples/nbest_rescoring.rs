//! N-best decoding and language-model rescoring.
//!
//! A common ASR serving pattern: decode with a cheap first-pass grammar,
//! keep the N best hypotheses, then rescore them with a stronger language
//! model. Here the first pass uses a uniform unigram grammar (every word
//! equally likely); the rescoring bigram knows that "lights on" and
//! "call mom" are idiomatic, and reranks accordingly.
//!
//! ```text
//! cargo run --release --example nbest_rescoring
//! ```

use asr_repro::decoder::nbest::NBestDecoder;
use asr_repro::decoder::search::DecodeOptions;
use asr_repro::runtime::AsrRuntime;
use asr_repro::wfst::grammar::Grammar;
use asr_repro::wfst::lexicon::demo_lexicon;
use asr_repro::wfst::WordId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let runtime = AsrRuntime::demo()?;
    let lexicon = demo_lexicon();

    // A strong second-pass bigram: favoured word pairs get cheap
    // transitions, everything else backs off with a penalty.
    let words: Vec<WordId> = (1..=lexicon.num_words() as u32).map(WordId).collect();
    let mut rescorer = Grammar::uniform(&words);
    rescorer.set_backoff_penalty(2.0);
    for (a, b) in [
        ("lights", "on"),
        ("lights", "off"),
        ("call", "mom"),
        ("play", "music"),
    ] {
        rescorer.set_bigram(
            lexicon.word_id(a).unwrap(),
            lexicon.word_id(b).unwrap(),
            0.05,
        );
    }
    let lm_cost = |hyp: &[WordId]| -> f32 {
        let mut cost = 0.0;
        let mut prev: Option<WordId> = None;
        for &w in hyp {
            cost += match prev {
                None => rescorer.start_cost(w),
                Some(p) => rescorer.transition_cost(p, w),
            };
            prev = Some(w);
        }
        cost
    };

    // First pass: decode "lights on" audio, keep the 5 best.
    let audio = runtime.render_words(&["lights", "on"])?;
    let scores = {
        use asr_repro::acoustic::template::TemplateScorer;
        TemplateScorer::with_default_signal(lexicon.num_phones() as u32)
            .score_waveform(&audio.samples)
    };
    let nbest = NBestDecoder::new(DecodeOptions::with_beam(40.0), 4);
    let hyps = nbest.decode(runtime.graph(), &scores, 5);

    println!("first pass (uniform grammar), N-best:");
    for (i, h) in hyps.iter().enumerate() {
        println!(
            "  {}. {:<24} acoustic+graph cost {:.2}",
            i + 1,
            lexicon.transcript(&h.words).join(" "),
            h.cost
        );
    }

    // Second pass: combine first-pass cost with the bigram cost.
    let lm_scale = 5.0;
    let mut rescored: Vec<(f32, String)> = hyps
        .iter()
        .map(|h| {
            let total = h.cost + lm_scale * lm_cost(&h.words);
            (total, lexicon.transcript(&h.words).join(" "))
        })
        .collect();
    rescored.sort_by(|a, b| a.0.total_cmp(&b.0));

    println!("\nafter bigram rescoring (scale {lm_scale}):");
    for (i, (cost, text)) in rescored.iter().enumerate() {
        println!("  {}. {:<24} combined cost {:.2}", i + 1, text, cost);
    }
    println!("\ntop hypothesis: {:?}", rescored[0].1);
    assert_eq!(rescored[0].1, "lights on");
    Ok(())
}
