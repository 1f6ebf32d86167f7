//! Pronunciation lexicon: the `L` knowledge source.
//!
//! A lexicon maps words to phoneme sequences. Together with a grammar
//! ([`crate::grammar`]) it is compiled into the single decoding WFST the
//! accelerator searches (Section II: "Each knowledge source is represented
//! by an individual WFST, and then they are combined"). This module keeps a
//! symbol-table view (`Lexicon`) and can emit the `L` transducer for use
//! with [`crate::compose::compose`].

use crate::builder::WfstBuilder;
use crate::{PhoneId, Result, Wfst, WordId};
use std::collections::BTreeMap;

/// A word-to-pronunciation dictionary with interned phone and word symbols.
///
/// # Example
///
/// ```
/// use asr_wfst::lexicon::Lexicon;
///
/// let mut lex = Lexicon::new();
/// lex.add_word("low", &["l", "ow"]);
/// lex.add_word("less", &["l", "eh", "s"]);
/// assert_eq!(lex.num_words(), 2);
/// assert_eq!(lex.num_phones(), 4); // l, ow, eh, s
/// let wfst = lex.to_wfst()?;
/// assert!(wfst.num_states() > 0);
/// # Ok::<(), asr_wfst::WfstError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Lexicon {
    phones: BTreeMap<String, PhoneId>,
    phone_names: Vec<String>,
    words: BTreeMap<String, WordId>,
    word_names: Vec<String>,
    pronunciations: Vec<(WordId, Vec<PhoneId>)>,
}

impl Lexicon {
    /// Creates an empty lexicon. Phone id 0 and word id 0 are reserved for
    /// epsilon / no-output.
    pub fn new() -> Self {
        Self {
            phones: BTreeMap::new(),
            phone_names: vec!["<eps>".to_owned()],
            words: BTreeMap::new(),
            word_names: vec!["<none>".to_owned()],
            pronunciations: Vec::new(),
        }
    }

    /// Interns a phone symbol, returning its id.
    fn intern_phone(&mut self, name: &str) -> PhoneId {
        if let Some(&id) = self.phones.get(name) {
            return id;
        }
        let id = PhoneId::from_index(self.phone_names.len());
        self.phones.insert(name.to_owned(), id);
        self.phone_names.push(name.to_owned());
        id
    }

    /// Adds a word with its pronunciation, interning all symbols. Returns
    /// the word id. Adding the same spelling twice creates an alternative
    /// pronunciation under the same id.
    pub fn add_word(&mut self, word: &str, phones: &[&str]) -> WordId {
        let id = if let Some(&id) = self.words.get(word) {
            id
        } else {
            let id = WordId::from_index(self.word_names.len());
            self.words.insert(word.to_owned(), id);
            self.word_names.push(word.to_owned());
            id
        };
        let pron: Vec<PhoneId> = phones.iter().map(|p| self.intern_phone(p)).collect();
        self.pronunciations.push((id, pron));
        id
    }

    /// Number of distinct words (excluding the reserved id 0).
    pub fn num_words(&self) -> usize {
        self.word_names.len() - 1
    }

    /// Number of distinct phones (excluding epsilon).
    pub fn num_phones(&self) -> usize {
        self.phone_names.len() - 1
    }

    /// Id of a previously added word.
    pub fn word_id(&self, word: &str) -> Option<WordId> {
        self.words.get(word).copied()
    }

    /// Spelling of a word id, if in range.
    fn word_name(&self, id: WordId) -> Option<&str> {
        self.word_names.get(id.index()).map(String::as_str)
    }

    /// All pronunciations as `(word, phones)` pairs.
    pub fn pronunciations(&self) -> &[(WordId, Vec<PhoneId>)] {
        &self.pronunciations
    }

    /// Decodes a word-id sequence back to spellings (unknown ids map to
    /// `"<?>"`).
    pub fn transcript(&self, words: &[WordId]) -> Vec<String> {
        words
            .iter()
            .map(|w| self.word_name(*w).unwrap_or("<?>").to_owned())
            .collect()
    }

    /// Emits the lexicon transducer `L`: a star closure of per-word phone
    /// chains sharing a common start/loop state.
    ///
    /// Input labels are phones and the word label is emitted on the
    /// *first* arc of each chain. Because the acoustic front-end produces
    /// one observation per 10 ms frame while a spoken phone spans many
    /// frames, every chain state carries a **self-loop** on its entering
    /// phone (the role of the HMM transducer `H` in Kaldi's HCLG): the
    /// search can absorb repeated frames of the same phone at a small cost
    /// per repetition. Each chain ends with an epsilon arc back to the
    /// root so word sequences concatenate — which also puts epsilon arcs
    /// into every composed decoding graph, exercising the accelerator's
    /// epsilon path.
    ///
    /// # Errors
    ///
    /// Propagates builder validation failures.
    pub fn to_wfst(&self) -> Result<Wfst> {
        /// Cost of staying in the same phone one more frame.
        const SELF_LOOP_COST: f32 = 0.02;
        let mut b = WfstBuilder::new();
        let root = b.add_state();
        b.set_start(root);
        b.set_final(root, 0.0);
        for (word, pron) in &self.pronunciations {
            if pron.is_empty() {
                continue;
            }
            let mut src = root;
            for (i, &ph) in pron.iter().enumerate() {
                let olabel = if i == 0 { *word } else { WordId::NONE };
                let dst = b.add_state();
                b.add_arc(src, dst, ph, olabel, 0.0);
                b.add_arc(dst, dst, ph, WordId::NONE, SELF_LOOP_COST);
                src = dst;
            }
            b.add_epsilon_arc(src, root, 0.0);
        }
        b.build()
    }
}

/// A ready-made toy lexicon used across tests and examples: a handful of
/// command words with distinct phone sequences.
pub fn demo_lexicon() -> Lexicon {
    let mut lex = Lexicon::new();
    lex.add_word("low", &["l", "ow"]);
    lex.add_word("less", &["l", "eh", "s"]);
    lex.add_word("call", &["k", "ao", "l"]);
    lex.add_word("mom", &["m", "aa", "m"]);
    lex.add_word("play", &["p", "l", "ey"]);
    lex.add_word("music", &["m", "y", "uw", "z", "ih", "k"]);
    lex.add_word("stop", &["s", "t", "aa", "p"]);
    lex.add_word("go", &["g", "ow"]);
    lex.add_word("home", &["hh", "ow", "m"]);
    lex.add_word("lights", &["l", "ay", "t", "s"]);
    lex.add_word("on", &["aa", "n"]);
    lex.add_word("off", &["ao", "f"]);
    lex
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut lex = Lexicon::new();
        let a = lex.intern_phone("aa");
        let b = lex.intern_phone("bb");
        assert_eq!(lex.intern_phone("aa"), a);
        assert_ne!(a, b);
        assert_eq!(lex.phone_names[a.index()], "aa");
    }

    #[test]
    fn duplicate_word_reuses_id() {
        let mut lex = Lexicon::new();
        let w1 = lex.add_word("read", &["r", "iy", "d"]);
        let w2 = lex.add_word("read", &["r", "eh", "d"]); // past tense
        assert_eq!(w1, w2);
        assert_eq!(lex.num_words(), 1);
        assert_eq!(lex.pronunciations().len(), 2);
    }

    #[test]
    fn to_wfst_emits_word_on_first_arc() {
        let mut lex = Lexicon::new();
        lex.add_word("go", &["g", "ow"]);
        let w = lex.to_wfst().unwrap();
        let start_arcs = w.arcs(w.start());
        assert_eq!(start_arcs.len(), 1);
        assert_eq!(start_arcs[0].olabel, lex.word_id("go").unwrap());
        // The first chain state self-loops on its phone (duration
        // modelling) and advances without emitting another word.
        let s1 = start_arcs[0].dest;
        let s1_arcs = w.arcs(s1);
        assert_eq!(s1_arcs.len(), 2);
        assert!(s1_arcs.iter().any(|a| a.dest == s1 && a.weight > 0.0));
        let advance = s1_arcs.iter().find(|a| a.dest != s1).unwrap();
        assert_eq!(advance.olabel, WordId::NONE);
        // The last chain state closes back to the (final) root with an
        // epsilon arc so words can concatenate.
        let s2 = advance.dest;
        let closing = w.epsilon_arcs(s2);
        assert_eq!(closing.len(), 1);
        assert_eq!(closing[0].dest, w.start());
        assert!(w.final_cost(w.start()).is_finite());
    }

    #[test]
    fn self_loops_absorb_repeated_frames() {
        // A path g g ow ow must be accepted with exactly one "go".
        let mut lex = Lexicon::new();
        let go = lex.add_word("go", &["g", "ow"]);
        let (g, ow) = (PhoneId(1), PhoneId(2));
        let w = lex.to_wfst().unwrap();
        // Walk: root -g-> s1 -g(self)-> s1 -ow-> s2 -ow(self)-> s2 -eps-> root.
        let mut state = w.start();
        let mut words = Vec::new();
        for ph in [g, g, ow, ow] {
            let arc = w
                .emitting_arcs(state)
                .iter()
                .find(|a| a.ilabel == ph)
                .copied()
                .unwrap_or_else(|| panic!("no {ph:?} arc from {state:?}"));
            if !arc.olabel.is_none() {
                words.push(arc.olabel);
            }
            state = arc.dest;
        }
        let eps = w.epsilon_arcs(state);
        assert_eq!(eps[0].dest, w.start());
        assert_eq!(words, vec![go]);
    }

    #[test]
    fn transcript_maps_ids_to_spellings() {
        let lex = demo_lexicon();
        let ids = vec![lex.word_id("call").unwrap(), lex.word_id("mom").unwrap()];
        assert_eq!(lex.transcript(&ids), vec!["call", "mom"]);
        assert_eq!(lex.transcript(&[WordId(9999)]), vec!["<?>"]);
    }

    #[test]
    fn demo_lexicon_is_consistent() {
        let lex = demo_lexicon();
        assert_eq!(lex.num_words(), 12);
        assert!(lex.num_phones() >= 15);
        let w = lex.to_wfst().unwrap();
        // One chain per pronunciation; all phone chains start at the root.
        assert_eq!(w.arcs(w.start()).len(), lex.pronunciations().len());
    }

    #[test]
    fn empty_lexicon_still_builds_trivial_acceptor() {
        let lex = Lexicon::new();
        let w = lex.to_wfst().unwrap();
        assert_eq!(w.num_states(), 1);
        assert_eq!(w.num_arcs(), 0);
    }
}
