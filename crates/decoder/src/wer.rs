//! Word error rate: the accuracy metric of ASR systems.
//!
//! WER = (substitutions + deletions + insertions) / reference length,
//! computed from the Levenshtein alignment between the reference and the
//! hypothesis word sequences. Functional tests use this to verify that the
//! full pipeline (synthetic speech → MFCC → template scoring → Viterbi)
//! recovers the words that produced the audio.

use asr_wfst::WordId;

/// Alignment counts from comparing a hypothesis against a reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WerBreakdown {
    /// Words correct.
    pub correct: usize,
    /// Substituted words.
    pub substitutions: usize,
    /// Deleted words (in reference, missing from hypothesis).
    pub deletions: usize,
    /// Inserted words (in hypothesis, absent from reference).
    pub insertions: usize,
    /// Reference length.
    pub ref_len: usize,
}

impl WerBreakdown {
    /// Word error rate in `[0, ∞)`; 0 is a perfect transcript. An empty
    /// reference with a non-empty hypothesis reports `insertions / 1`.
    pub fn wer(&self) -> f64 {
        self.errors() as f64 / self.ref_len.max(1) as f64
    }

    /// Total edit distance.
    fn errors(&self) -> usize {
        self.substitutions + self.deletions + self.insertions
    }
}

/// Computes the Levenshtein alignment between `reference` and `hypothesis`.
pub fn align(reference: &[WordId], hypothesis: &[WordId]) -> WerBreakdown {
    let n = reference.len();
    let m = hypothesis.len();
    // dp[i][j] = edit distance between ref[..i] and hyp[..j].
    let mut dp = vec![vec![0usize; m + 1]; n + 1];
    for (i, row) in dp.iter_mut().enumerate() {
        row[0] = i;
    }
    for (j, cell) in dp[0].iter_mut().enumerate() {
        *cell = j;
    }
    for i in 1..=n {
        for j in 1..=m {
            let sub_cost = usize::from(reference[i - 1] != hypothesis[j - 1]);
            dp[i][j] = (dp[i - 1][j - 1] + sub_cost)
                .min(dp[i - 1][j] + 1) // deletion
                .min(dp[i][j - 1] + 1); // insertion
        }
    }
    // Trace back to classify the edits.
    let mut b = WerBreakdown {
        ref_len: n,
        ..WerBreakdown::default()
    };
    let (mut i, mut j) = (n, m);
    while i > 0 || j > 0 {
        if i > 0 && j > 0 && dp[i][j] == dp[i - 1][j - 1] && reference[i - 1] == hypothesis[j - 1] {
            b.correct += 1;
            i -= 1;
            j -= 1;
        } else if i > 0 && j > 0 && dp[i][j] == dp[i - 1][j - 1] + 1 {
            b.substitutions += 1;
            i -= 1;
            j -= 1;
        } else if i > 0 && dp[i][j] == dp[i - 1][j] + 1 {
            b.deletions += 1;
            i -= 1;
        } else {
            b.insertions += 1;
            j -= 1;
        }
    }
    b
}

/// Convenience wrapper returning just the rate.
pub fn wer(reference: &[WordId], hypothesis: &[WordId]) -> f64 {
    align(reference, hypothesis).wer()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<WordId> {
        v.iter().map(|&x| WordId(x)).collect()
    }

    #[test]
    fn identical_sequences_have_zero_wer() {
        let r = ids(&[1, 2, 3]);
        let b = align(&r, &r);
        assert_eq!(b.wer(), 0.0);
        assert_eq!(b.correct, 3);
        assert_eq!(b.errors(), 0);
    }

    #[test]
    fn substitution_detected() {
        let b = align(&ids(&[1, 2, 3]), &ids(&[1, 9, 3]));
        assert_eq!(b.substitutions, 1);
        assert_eq!(b.correct, 2);
        assert!((b.wer() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn deletion_detected() {
        let b = align(&ids(&[1, 2, 3]), &ids(&[1, 3]));
        assert_eq!(b.deletions, 1);
        assert_eq!(b.correct, 2);
    }

    #[test]
    fn insertion_detected() {
        let b = align(&ids(&[1, 3]), &ids(&[1, 2, 3]));
        assert_eq!(b.insertions, 1);
        assert_eq!(b.correct, 2);
        assert!((b.wer() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_reference_counts_insertions() {
        let b = align(&[], &ids(&[1, 2]));
        assert_eq!(b.insertions, 2);
        assert_eq!(b.wer(), 2.0);
    }

    #[test]
    fn empty_hypothesis_counts_deletions() {
        let b = align(&ids(&[1, 2]), &[]);
        assert_eq!(b.deletions, 2);
        assert_eq!(b.wer(), 1.0);
    }

    #[test]
    fn totals_are_consistent() {
        let r = ids(&[1, 2, 3, 4, 5]);
        let h = ids(&[1, 9, 3, 5, 6]);
        let b = align(&r, &h);
        assert_eq!(b.correct + b.substitutions + b.deletions, b.ref_len);
        assert_eq!(b.correct + b.substitutions + b.insertions, h.len());
    }
}
