//! End-to-end ASR: synthetic speech through MFCC, template acoustic
//! scoring and Viterbi search must recover the words that produced the
//! audio — on the software decoder and on every accelerator design point.

use asr_repro::accel::config::{AcceleratorConfig, DesignPoint};
use asr_repro::on_accelerator;
use asr_repro::runtime::AsrRuntime;

#[test]
fn every_vocabulary_word_is_recognized() {
    let p = AsrRuntime::demo().unwrap();
    let vocab = [
        "low", "less", "call", "mom", "play", "music", "stop", "go", "home", "lights", "on", "off",
    ];
    for word in vocab {
        let audio = p.render_words(&[word]).unwrap();
        let t = p.recognize(&audio);
        assert_eq!(t.words, vec![word], "misrecognized {word:?}");
        assert!(t.reached_final, "{word:?} did not reach a final state");
    }
}

#[test]
fn multi_word_commands_have_zero_wer() {
    let p = AsrRuntime::demo().unwrap();
    let commands: Vec<Vec<&str>> = vec![
        vec!["call", "mom"],
        vec!["play", "music"],
        vec!["lights", "on"],
        vec!["go", "home"],
        vec!["stop", "music"],
        vec!["call", "mom", "stop"],
    ];
    for cmd in commands {
        let audio = p.render_words(&cmd).unwrap();
        let t = p.recognize(&audio);
        assert_eq!(
            p.wer(&cmd, &t),
            0.0,
            "WER > 0 on {cmd:?}: got {:?}",
            t.words
        );
    }
}

#[test]
fn accelerator_design_points_agree_end_to_end() {
    let p = AsrRuntime::demo().unwrap();
    let audio = p.render_words(&["lights", "off"]).unwrap();
    let sw = p.recognize(&audio);
    assert_eq!(sw.words, vec!["lights", "off"]);
    for design in DesignPoint::ALL {
        let cfg = AcceleratorConfig::for_design(design);
        let (hw, result) = on_accelerator::recognize(&p, &audio, cfg).unwrap();
        assert_eq!(hw.words, sw.words, "{design:?}");
        assert_eq!(hw.cost, sw.cost, "{design:?}");
        assert!(result.stats.cycles > 0);
        assert!(result.stats.arcs_processed > 0);
    }
}

#[test]
fn longer_utterances_remain_stable() {
    let p = AsrRuntime::demo().unwrap();
    let cmd = vec!["go", "home", "lights", "on", "play", "music", "stop"];
    let audio = p.render_words(&cmd).unwrap();
    let t = p.recognize(&audio);
    assert_eq!(
        p.wer(&cmd, &t),
        0.0,
        "long utterance degraded: {:?}",
        t.words
    );
}

#[test]
fn hardware_stats_reflect_utterance_length() {
    let p = AsrRuntime::demo().unwrap();
    let short = p.render_words(&["go"]).unwrap();
    let long = p.render_words(&["go", "home", "lights", "on"]).unwrap();
    let cfg = AcceleratorConfig::for_design(DesignPoint::StateAndArc);
    let (_, short_r) = on_accelerator::recognize(&p, &short, cfg.clone()).unwrap();
    let (_, long_r) = on_accelerator::recognize(&p, &long, cfg).unwrap();
    assert!(long_r.stats.frames > short_r.stats.frames);
    assert!(long_r.stats.cycles > short_r.stats.cycles);
    assert!(long_r.stats.tokens_created > short_r.stats.tokens_created);
}
