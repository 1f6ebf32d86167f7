//! Language model: the `G` knowledge source (bigram grammar).
//!
//! The paper stresses that the WFST approach compiles all knowledge sources
//! — context dependency, pronunciation, grammar — into one transducer, so
//! the hardware only ever walks a graph. This module provides a uniform bigram
//! grammar over a [`crate::lexicon::Lexicon`]'s words and emits it as a word
//! acceptor ready for composition with the lexicon transducer `L`.

use crate::builder::WfstBuilder;
use crate::{PhoneId, Result, Wfst, WordId};
use std::collections::BTreeMap;

/// A uniform bigram grammar: every word costs the same to start an
/// utterance and to follow any word.
///
/// Costs are negative natural logs of probabilities.
#[derive(Debug, Clone)]
pub struct Grammar {
    words: Vec<WordId>,
    unigram_costs: BTreeMap<u32, f32>,
}

impl Grammar {
    /// Creates a uniform unigram grammar over `words`.
    pub fn uniform(words: &[WordId]) -> Self {
        let cost = (words.len().max(1) as f32).ln();
        Self {
            words: words.to_vec(),
            unigram_costs: words.iter().map(|w| (w.0, cost)).collect(),
        }
    }

    /// Words covered by the grammar.
    pub fn words(&self) -> &[WordId] {
        &self.words
    }

    /// Cost of starting an utterance with `word`, or of `word` following
    /// any word.
    fn start_cost(&self, word: WordId) -> f32 {
        self.unigram_costs.get(&word.0).copied().unwrap_or(f32::MAX)
    }

    /// Emits the grammar as a word acceptor.
    ///
    /// Because the shared [`crate::Arc`] type fixes the input-label space to
    /// phones, the acceptor *embeds word ids in the input-label field*
    /// (`ilabel.0 == olabel.0 == word id`). [`crate::compose::compose`]
    /// interprets the right-hand operand this way, matching the left
    /// operand's output words against these labels.
    ///
    /// # Errors
    ///
    /// Propagates builder validation errors (an empty grammar still builds:
    /// a single final start state accepting the empty utterance).
    pub fn to_acceptor(&self) -> Result<Wfst> {
        let mut b = WfstBuilder::new();
        let start = b.add_state();
        b.set_start(start);
        b.set_final(start, 0.0); // empty utterance accepted
        let mut word_state = BTreeMap::new();
        for &w in &self.words {
            let s = b.add_state();
            word_state.insert(w.0, s);
            b.set_final(s, 0.0);
        }
        for &w in &self.words {
            let dst = word_state[&w.0];
            b.add_arc(start, dst, PhoneId(w.0), w, self.start_cost(w));
        }
        for &prev in &self.words {
            let src = word_state[&prev.0];
            for &next in &self.words {
                let dst = word_state[&next.0];
                b.add_arc(src, dst, PhoneId(next.0), next, self.start_cost(next));
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_words() -> Vec<WordId> {
        vec![WordId(1), WordId(2), WordId(3)]
    }

    #[test]
    fn uniform_grammar_costs_are_log_n() {
        let g = Grammar::uniform(&three_words());
        let expect = 3f32.ln();
        for w in three_words() {
            assert!((g.start_cost(w) - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn acceptor_has_one_state_per_word_plus_start() {
        let g = Grammar::uniform(&three_words());
        let a = g.to_acceptor().unwrap();
        assert_eq!(a.num_states(), 4);
        // start fan-out + full bigram matrix
        assert_eq!(a.num_arcs(), 3 + 9);
        // Word ids are embedded in both label fields.
        for arc in a.arc_entries() {
            assert_eq!(arc.ilabel.0, arc.olabel.0);
            assert!(!arc.is_epsilon());
        }
    }

    #[test]
    fn acceptor_accepts_empty_and_every_word_state() {
        let g = Grammar::uniform(&three_words());
        let a = g.to_acceptor().unwrap();
        assert!(a.final_cost(a.start()).is_finite());
        assert_eq!(a.final_states().count(), 4);
    }

    #[test]
    fn unknown_word_cost_is_prohibitive() {
        let g = Grammar::uniform(&three_words());
        assert_eq!(g.start_cost(WordId(42)), f32::MAX);
    }
}
