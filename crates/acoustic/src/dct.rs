//! DCT-II used to decorrelate log filterbank energies into cepstral
//! coefficients (the "C" of MFCC).

/// Precomputed DCT-II transform taking `input_len` values to `output_len`
/// coefficients (orthonormal scaling).
#[derive(Debug, Clone)]
pub struct Dct {
    // Row-major [output_len][input_len] cosine table.
    table: Vec<f32>,
    input_len: usize,
    output_len: usize,
}

impl Dct {
    /// Builds the transform.
    ///
    /// # Panics
    ///
    /// Panics if either length is zero or `output_len > input_len`.
    pub fn new(input_len: usize, output_len: usize) -> Self {
        assert!(input_len > 0 && output_len > 0, "degenerate DCT size");
        assert!(
            output_len <= input_len,
            "cannot produce more outputs than inputs"
        );
        let mut table = Vec::with_capacity(input_len * output_len);
        let n = input_len as f32;
        for k in 0..output_len {
            let scale = if k == 0 {
                (1.0 / n).sqrt()
            } else {
                (2.0 / n).sqrt()
            };
            for i in 0..input_len {
                let angle = std::f32::consts::PI * k as f32 * (i as f32 + 0.5) / n;
                table.push(scale * angle.cos());
            }
        }
        Self {
            table,
            input_len,
            output_len,
        }
    }

    /// Applies the transform.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the configured length.
    #[cfg(test)]
    fn apply(&self, input: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.output_len];
        self.apply_into(input, &mut out);
        out
    }

    /// Applies the transform into caller-owned storage.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the configured input length or
    /// `out.len()` from the output length.
    pub fn apply_into(&self, input: &[f32], out: &mut [f32]) {
        assert_eq!(input.len(), self.input_len, "DCT input length mismatch");
        assert_eq!(out.len(), self.output_len, "DCT output length mismatch");
        for (k, o) in out.iter_mut().enumerate() {
            let row = &self.table[k * self.input_len..(k + 1) * self.input_len];
            *o = row.iter().zip(input).map(|(c, x)| c * x).sum();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_input_excites_only_dc() {
        let dct = Dct::new(26, 13);
        let out = dct.apply(&[2.0; 26]);
        assert!(out[0] > 0.0);
        for &c in &out[1..] {
            assert!(c.abs() < 1e-4, "leakage {c}");
        }
    }

    #[test]
    fn dc_coefficient_is_scaled_mean() {
        let dct = Dct::new(4, 4);
        let out = dct.apply(&[1.0, 2.0, 3.0, 4.0]);
        // Orthonormal DCT-II: c0 = sum / sqrt(n).
        assert!((out[0] - 10.0 / 2.0).abs() < 1e-5);
    }

    #[test]
    fn orthonormal_rows_preserve_energy_when_square() {
        let dct = Dct::new(8, 8);
        let x = [0.5, -1.0, 0.25, 2.0, -0.75, 0.1, 1.5, -0.3];
        let y = dct.apply(&x);
        let ex: f32 = x.iter().map(|v| v * v).sum();
        let ey: f32 = y.iter().map(|v| v * v).sum();
        assert!((ex - ey).abs() / ex < 1e-4);
    }

    #[test]
    fn alternating_input_excites_high_coefficients() {
        let dct = Dct::new(16, 16);
        let x: Vec<f32> = (0..16)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let y = dct.apply(&x);
        let (peak, _) = y
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .unwrap();
        assert!(
            peak > 8,
            "alternation should excite the top band, got {peak}"
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_input_length_panics() {
        Dct::new(8, 4).apply(&[0.0; 7]);
    }

    #[test]
    #[should_panic(expected = "more outputs")]
    fn output_longer_than_input_rejected() {
        Dct::new(4, 5);
    }
}
