//! The per-frame acoustic score table consumed by the Viterbi search.
//!
//! This is the software image of what the paper's accelerator keeps in its
//! Acoustic Likelihood Buffer: for each frame of speech, one score per
//! phone. Scores are *costs* (negative log likelihood/posterior), so the
//! Likelihood Evaluation unit adds them (Equation 1 in log space). The
//! buffer in hardware is double-buffered per frame; that behaviour is
//! modelled in `asr-accel`, which reads rows out of this table.

use asr_wfst::PhoneId;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A dense `frames x phones` matrix of acoustic costs.
///
/// Phone id 0 is the epsilon label; its column exists (so `PhoneId` indexes
/// directly) but is never read by a correct search, and is fixed at 0.
#[derive(Debug, Clone, PartialEq)]
pub struct AcousticTable {
    num_frames: usize,
    num_phones: usize,
    data: Vec<f32>,
}

impl AcousticTable {
    /// Builds a table by evaluating `f(frame, phone)` for every cell.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(
        num_frames: usize,
        num_phones: usize,
        mut f: F,
    ) -> Self {
        let mut data = Vec::with_capacity(num_frames * num_phones);
        for frame in 0..num_frames {
            for phone in 0..num_phones {
                data.push(f(frame, phone));
            }
        }
        Self {
            num_frames,
            num_phones,
            data,
        }
    }

    /// Builds a deterministic random table: costs uniform in `[lo, hi)`.
    ///
    /// Random scores exercise the identical accelerator code path as real
    /// DNN outputs (the search only reads one score per arc) and are the
    /// workload used for the large-scale memory-system experiments.
    pub fn random(num_frames: usize, num_phones: usize, range: (f32, f32), seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Self::from_fn(num_frames, num_phones, |_, phone| {
            if phone == 0 {
                0.0
            } else {
                rng.gen_range(range.0..range.1)
            }
        })
    }

    /// Number of frames (rows).
    pub fn num_frames(&self) -> usize {
        self.num_frames
    }

    /// Number of phone columns (including the epsilon column 0).
    pub fn num_phones(&self) -> usize {
        self.num_phones
    }

    /// Cost of `phone` at `frame`.
    ///
    /// # Panics
    ///
    /// Panics if the frame or phone is out of range.
    #[inline]
    pub fn cost(&self, frame: usize, phone: PhoneId) -> f32 {
        assert!(frame < self.num_frames, "frame {frame} out of range");
        let p = phone.index();
        assert!(p < self.num_phones, "phone {p} out of range");
        self.data[frame * self.num_phones + p]
    }

    /// The full score row of one frame — what gets DMA'd into the
    /// accelerator's Acoustic Likelihood Buffer for that frame.
    #[inline]
    pub fn frame_row(&self, frame: usize) -> &[f32] {
        assert!(frame < self.num_frames, "frame {frame} out of range");
        &self.data[frame * self.num_phones..(frame + 1) * self.num_phones]
    }

    /// Bytes one frame row occupies (the per-frame DMA transfer size).
    pub fn frame_bytes(&self) -> usize {
        self.num_phones * std::mem::size_of::<f32>()
    }

    /// Concatenates another table's frames after this one's.
    ///
    /// # Panics
    ///
    /// Panics if the phone dimensions differ.
    pub fn extend(&mut self, other: &AcousticTable) {
        assert_eq!(
            self.num_phones, other.num_phones,
            "phone dimension mismatch"
        );
        self.data.extend_from_slice(&other.data);
        self.num_frames += other.num_frames;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_lays_out_row_major() {
        let t = AcousticTable::from_fn(2, 3, |f, p| (f * 10 + p) as f32);
        assert_eq!(t.cost(0, PhoneId(2)), 2.0);
        assert_eq!(t.cost(1, PhoneId(0)), 10.0);
        assert_eq!(t.frame_row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn random_is_deterministic_and_in_range() {
        let a = AcousticTable::random(4, 8, (0.5, 2.0), 11);
        let b = AcousticTable::random(4, 8, (0.5, 2.0), 11);
        assert_eq!(a, b);
        for f in 0..4 {
            for p in 1..8u32 {
                let c = a.cost(f, PhoneId(p));
                assert!((0.5..2.0).contains(&c));
            }
            assert_eq!(a.cost(f, PhoneId::EPSILON), 0.0);
        }
    }

    #[test]
    fn frame_bytes_matches_row_size() {
        let t = AcousticTable::random(1, 2001, (0.0, 1.0), 0);
        assert_eq!(t.frame_bytes(), 2001 * 4);
        assert_eq!(t.frame_row(0).len(), 2001);
    }

    #[test]
    fn extend_appends_frames() {
        let mut a = AcousticTable::from_fn(2, 3, |_, _| 1.0);
        let b = AcousticTable::from_fn(3, 3, |_, _| 2.0);
        a.extend(&b);
        assert_eq!(a.num_frames(), 5);
        assert_eq!(a.cost(4, PhoneId(1)), 2.0);
        assert_eq!(a.cost(1, PhoneId(1)), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_frame_panics() {
        AcousticTable::from_fn(1, 2, |_, _| 0.0).cost(1, PhoneId(0));
    }

    #[test]
    #[should_panic(expected = "phone dimension mismatch")]
    fn extend_rejects_mismatched_phones() {
        let mut a = AcousticTable::from_fn(1, 3, |_, _| 0.0);
        a.extend(&AcousticTable::from_fn(1, 4, |_, _| 0.0));
    }
}
