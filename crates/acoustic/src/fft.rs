//! Iterative radix-2 fast Fourier transform.
//!
//! A dependency-free FFT sufficient for the MFCC front-end: real input,
//! power-of-two lengths, producing the magnitude-squared spectrum the mel
//! filterbank integrates.

/// A complex number in rectangular form.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f32,
    /// Imaginary part.
    pub im: f32,
}

impl Complex {
    /// Creates a complex number.
    #[inline]
    pub fn new(re: f32, im: f32) -> Self {
        Self { re, im }
    }

    /// Complex multiplication.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    fn mul(self, other: Self) -> Self {
        Self {
            re: self.re * other.re - self.im * other.im,
            im: self.re * other.im + self.im * other.re,
        }
    }

    /// Complex addition.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Self) -> Self {
        Self {
            re: self.re + other.re,
            im: self.im + other.im,
        }
    }

    /// Complex subtraction.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    fn sub(self, other: Self) -> Self {
        Self {
            re: self.re - other.re,
            im: self.im - other.im,
        }
    }

    /// Squared magnitude.
    #[inline]
    fn norm_sqr(self) -> f32 {
        self.re * self.re + self.im * self.im
    }
}

/// In-place iterative Cooley-Tukey FFT.
///
/// # Panics
///
/// Panics if `buf.len()` is not a power of two.
fn fft_in_place(buf: &mut [Complex]) {
    let n = buf.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if i < j {
            buf.swap(i, j);
        }
    }
    // Butterfly passes.
    let mut len = 2;
    while len <= n {
        let angle = -2.0 * std::f32::consts::PI / len as f32;
        let wlen = Complex::new(angle.cos(), angle.sin());
        for chunk in buf.chunks_mut(len) {
            let mut w = Complex::new(1.0, 0.0);
            let half = len / 2;
            for k in 0..half {
                let u = chunk[k];
                let v = chunk[k + half].mul(w);
                chunk[k] = u.add(v);
                chunk[k + half] = u.sub(v);
                w = w.mul(wlen);
            }
        }
        len <<= 1;
    }
}

/// The one-sided power spectrum of `samples`, over caller-owned scratch:
/// `buf` (length = the FFT length) is cleared, loaded, and transformed in
/// place; the one-sided squared magnitudes land in `out`.
///
/// # Panics
///
/// Panics if `buf.len()` is not a power of two, the input is longer than
/// `buf`, or `out.len() != buf.len() / 2 + 1`.
pub fn power_spectrum_into(samples: &[f32], buf: &mut [Complex], out: &mut [f32]) {
    let fft_len = buf.len();
    assert!(fft_len.is_power_of_two());
    assert!(samples.len() <= fft_len, "input longer than FFT length");
    assert_eq!(out.len(), fft_len / 2 + 1, "spectrum output length");
    buf.fill(Complex::default());
    for (b, &s) in buf.iter_mut().zip(samples) {
        b.re = s;
    }
    fft_in_place(buf);
    for (o, c) in out.iter_mut().zip(buf.iter()) {
        *o = c.norm_sqr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::PI;

    /// The one-sided power spectrum of `samples` zero-padded to `fft_len`.
    fn power_spectrum(samples: &[f32], fft_len: usize) -> Vec<f32> {
        let mut buf = vec![Complex::default(); fft_len];
        let mut out = vec![0.0f32; fft_len / 2 + 1];
        power_spectrum_into(samples, &mut buf, &mut out);
        out
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut buf = vec![Complex::default(); 8];
        buf[0].re = 1.0;
        fft_in_place(&mut buf);
        for c in &buf {
            assert!((c.re - 1.0).abs() < 1e-5);
            assert!(c.im.abs() < 1e-5);
        }
    }

    #[test]
    fn dc_signal_concentrates_in_bin_zero() {
        let spec = power_spectrum(&[1.0; 16], 16);
        assert!((spec[0] - 256.0).abs() < 1e-3); // (sum)^2
        for &p in &spec[1..] {
            assert!(p < 1e-6);
        }
    }

    #[test]
    fn pure_tone_peaks_at_its_bin() {
        let n = 64;
        let k = 5; // cycles per window
        let samples: Vec<f32> = (0..n)
            .map(|i| (2.0 * PI * k as f32 * i as f32 / n as f32).sin())
            .collect();
        let spec = power_spectrum(&samples, n);
        let peak = spec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(peak, k);
    }

    #[test]
    fn parseval_energy_is_conserved() {
        let samples: Vec<f32> = (0..32).map(|i| ((i * 7 % 13) as f32 - 6.0) / 6.0).collect();
        let time_energy: f32 = samples.iter().map(|s| s * s).sum();
        let mut buf: Vec<Complex> = samples.iter().map(|&s| Complex::new(s, 0.0)).collect();
        fft_in_place(&mut buf);
        let freq_energy: f32 = buf.iter().map(|c| c.norm_sqr()).sum::<f32>() / 32.0;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-4);
    }

    #[test]
    fn zero_padding_is_applied() {
        let spec = power_spectrum(&[1.0, 1.0], 8);
        assert_eq!(spec.len(), 5);
        assert!((spec[0] - 4.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut buf = vec![Complex::default(); 6];
        fft_in_place(&mut buf);
    }

    #[test]
    fn linearity_property_holds() {
        // FFT(a + b) == FFT(a) + FFT(b), checked on random-ish data.
        let a: Vec<f32> = (0..16).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..16).map(|i| (i as f32 * 1.17).cos()).collect();
        let mut fa: Vec<Complex> = a.iter().map(|&x| Complex::new(x, 0.0)).collect();
        let mut fb: Vec<Complex> = b.iter().map(|&x| Complex::new(x, 0.0)).collect();
        let mut fab: Vec<Complex> = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| Complex::new(x + y, 0.0))
            .collect();
        fft_in_place(&mut fa);
        fft_in_place(&mut fb);
        fft_in_place(&mut fab);
        for i in 0..16 {
            let s = fa[i].add(fb[i]);
            assert!((s.re - fab[i].re).abs() < 1e-3);
            assert!((s.im - fab[i].im).abs() < 1e-3);
        }
    }
}
