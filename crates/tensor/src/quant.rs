//! Symmetric fixed-point quantization.
//!
//! The paper quantizes the MSDeformAttn modules to **INT12** during
//! inference and reports that INT8 costs an unacceptable 9.7 AP on average
//! (§5.2). [`QuantParams`] captures a symmetric per-tensor scheme:
//! `q = clamp(round(x / scale), -2^(bits-1), 2^(bits-1) - 1)`.

use crate::{Tensor, TensorError};

/// Parameters of a symmetric per-tensor quantizer.
///
/// # Example
///
/// ```
/// use defa_tensor::{QuantParams, Tensor};
///
/// # fn main() -> Result<(), defa_tensor::TensorError> {
/// let t = Tensor::from_vec(vec![-1.0, 0.5, 1.0], [3])?;
/// let params = QuantParams::fit(&t, 12)?;
/// let q = params.quantize(&t);
/// let back = params.dequantize(&q);
/// assert!(back.relative_l2_error(&t)? < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    scale: f32,
    bits: u8,
}

impl QuantParams {
    /// Creates quantizer parameters from an explicit scale.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidQuantParams`] if `scale` is not a
    /// positive finite number or `bits` is outside `2..=16`.
    pub fn new(scale: f32, bits: u8) -> Result<Self, TensorError> {
        if !(scale.is_finite() && scale > 0.0) {
            return Err(TensorError::InvalidQuantParams(format!(
                "scale must be positive and finite, got {scale}"
            )));
        }
        if !(2..=16).contains(&bits) {
            return Err(TensorError::InvalidQuantParams(format!(
                "bit width must be in 2..=16, got {bits}"
            )));
        }
        Ok(QuantParams { scale, bits })
    }

    /// Fits a symmetric scale to a tensor so the largest magnitude maps to
    /// the most positive code.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidQuantParams`] for unsupported bit
    /// widths. An all-zero tensor fits a unit scale.
    pub fn fit(t: &Tensor, bits: u8) -> Result<Self, TensorError> {
        let max = t.max_abs();
        let qmax = ((1i32 << (bits.min(16) - 1)) - 1) as f32;
        let scale = if max > 0.0 { max / qmax } else { 1.0 };
        QuantParams::new(scale, bits)
    }

    /// The quantization step size.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The bit width of the integer codes.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Most negative representable code.
    pub fn qmin(&self) -> i32 {
        -(1i32 << (self.bits - 1))
    }

    /// Most positive representable code.
    pub fn qmax(&self) -> i32 {
        (1i32 << (self.bits - 1)) - 1
    }

    /// Quantizes a single value to its integer code: `x / scale` rounded
    /// half away from zero and clamped to `[qmin, qmax]`. NaN maps to 0 and
    /// ±∞ to the range ends.
    #[inline]
    pub fn quantize_value(&self, x: f32) -> i32 {
        self.code(x) as i32
    }

    /// [`QuantParams::quantize_value`] as an exactly integral `f32`, computed
    /// without a libm `roundf` call or a float-to-int cast, so loops over it
    /// vectorize on baseline x86-64:
    /// - the quotient is clamped first, which is exact because rounding is
    ///   monotone and both bounds are integers;
    /// - adding and subtracting 1.5·2²³ then rounds it to the nearest
    ///   integer, ties to even, exactly (|quotient| ≤ 2¹⁵ after the clamp);
    /// - a tie (remainder exactly ±0.5) is moved away from zero.
    #[inline]
    fn code(&self, x: f32) -> f32 {
        const ROUND: f32 = 12_582_912.0;
        let v = (x / self.scale).clamp(self.qmin() as f32, self.qmax() as f32);
        let nearest_even = (v + ROUND) - ROUND;
        let rem = v - nearest_even;
        let up = f32::from(u8::from(rem == 0.5 && v > 0.0));
        let down = f32::from(u8::from(rem == -0.5 && v < 0.0));
        let code = nearest_even + up - down;
        if code.is_nan() {
            0.0
        } else {
            code
        }
    }

    /// Dequantizes a single code back to `f32`.
    pub fn dequantize_value(&self, q: i32) -> f32 {
        q as f32 * self.scale
    }

    /// Quantizes a whole tensor.
    pub fn quantize(&self, t: &Tensor) -> QTensor {
        let codes = t.as_slice().iter().map(|&x| self.quantize_value(x)).collect();
        QTensor { params: *self, shape: t.shape().clone(), codes }
    }

    /// Dequantizes a [`QTensor`] produced by this (or an equal) quantizer.
    pub fn dequantize(&self, q: &QTensor) -> Tensor {
        let data = q.codes.iter().map(|&c| self.dequantize_value(c)).collect();
        Tensor::from_vec(data, q.shape.clone()).expect("codes length matches shape by construction")
    }

    /// Quantize–dequantize round trip ("fake quantization"), used by the
    /// functional model to emulate INT-N inference in `f32` arithmetic.
    pub fn fake_quantize(&self, t: &Tensor) -> Tensor {
        let data = t.as_slice().iter().map(|&x| self.code(x) * self.scale).collect();
        Tensor::from_vec(data, t.shape().clone()).expect("same shape")
    }
}

/// A tensor of integer quantization codes plus its quantizer.
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    params: QuantParams,
    shape: crate::Shape,
    codes: Vec<i32>,
}

impl QTensor {
    /// The quantizer that produced these codes.
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// Shape of the quantized tensor.
    pub fn shape(&self) -> &crate::Shape {
        &self.shape
    }

    /// The raw integer codes.
    pub fn codes(&self) -> &[i32] {
        &self.codes
    }

    /// Converts back to `f32` using the stored parameters.
    pub fn to_tensor(&self) -> Tensor {
        self.params.dequantize(self)
    }

    /// Storage footprint in bits (codes only, ignoring metadata).
    pub fn storage_bits(&self) -> u64 {
        self.codes.len() as u64 * self.params.bits as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TensorRng;

    #[test]
    fn int12_range_is_symmetric() {
        let p = QuantParams::new(0.01, 12).unwrap();
        assert_eq!(p.qmin(), -2048);
        assert_eq!(p.qmax(), 2047);
    }

    #[test]
    fn fit_maps_extreme_to_qmax() {
        let t = Tensor::from_vec(vec![-3.0, 0.0, 1.5], [3]).unwrap();
        let p = QuantParams::fit(&t, 12).unwrap();
        assert_eq!(p.quantize_value(-3.0), -2047);
    }

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        let mut rng = TensorRng::seed_from(42);
        let t = rng.uniform([64, 8], -2.0, 2.0);
        let p = QuantParams::fit(&t, 12).unwrap();
        let back = p.fake_quantize(&t);
        let step = p.scale();
        for (&a, &b) in t.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= step * 0.5 + 1e-7);
        }
    }

    #[test]
    fn int8_is_much_coarser_than_int12() {
        let mut rng = TensorRng::seed_from(1);
        let t = rng.uniform([128, 4], -1.0, 1.0);
        let e12 =
            QuantParams::fit(&t, 12).unwrap().fake_quantize(&t).relative_l2_error(&t).unwrap();
        let e8 = QuantParams::fit(&t, 8).unwrap().fake_quantize(&t).relative_l2_error(&t).unwrap();
        assert!(e8 > e12 * 8.0, "e8={e8} e12={e12}");
    }

    #[test]
    fn zero_tensor_fits_unit_scale() {
        let t = Tensor::zeros([4]);
        let p = QuantParams::fit(&t, 12).unwrap();
        assert_eq!(p.scale(), 1.0);
        assert_eq!(p.quantize_value(0.0), 0);
    }

    #[test]
    fn clamps_out_of_range_values() {
        let p = QuantParams::new(1.0, 4).unwrap();
        assert_eq!(p.quantize_value(100.0), 7);
        assert_eq!(p.quantize_value(-100.0), -8);
    }

    /// The textbook quantizer, libm rounding then an integer clamp: the
    /// bit-identity reference for `quantize_value` and `fake_quantize`.
    fn reference_code(p: &QuantParams, x: f32) -> i32 {
        let q = (x / p.scale()).round() as i64;
        q.clamp(p.qmin() as i64, p.qmax() as i64) as i32
    }

    /// A sequential `max_abs` fold: the reference for the lane-wise one.
    fn reference_max_abs(xs: &[f32]) -> f32 {
        xs.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Edge inputs for a quantizer: ±(k + 0.5)·scale around 0 and around
    /// ±qmax (with their float neighbors), plus the special values.
    fn edge_inputs(p: &QuantParams) -> Vec<f32> {
        let s = p.scale();
        let qmax = p.qmax() as f32;
        let mut xs = Vec::new();
        for k in (0..8).map(|k| k as f32).chain((-3..=3).map(|d| qmax + d as f32)) {
            for v in [(k + 0.5) * s, k * s, (k + 0.5) / (1.0 / s)] {
                for x in [v, -v] {
                    let raw = x.to_bits();
                    xs.extend([
                        x,
                        f32::from_bits(raw.wrapping_add(1)),
                        f32::from_bits(raw.wrapping_sub(1)),
                    ]);
                }
            }
        }
        let pow23 = 8_388_608.0f32;
        xs.extend([
            pow23,
            -pow23,
            pow23 * s,
            -pow23 * s,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007F_FFFF),
            f32::from_bits(0x807F_FFFF),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
        ]);
        xs
    }

    #[test]
    fn quantizer_is_bit_identical_to_the_rounding_reference() {
        let mut state = 0x5EED_0F12u64;
        let random: Vec<f32> = (0..100_000)
            .map(|_| {
                state = crate::rng::splitmix64(state);
                f32::from_bits(state as u32)
            })
            .collect();
        for bits in [2u8, 8, 12, 16] {
            for scale in [1.0f32, 0.37, 3.0 / 2047.0, 1e-3, 6.1e5, 1e-38] {
                let p = QuantParams::new(scale, bits).unwrap();
                let mut xs = edge_inputs(&p);
                xs.extend_from_slice(&random);
                for &x in &xs {
                    assert_eq!(
                        p.quantize_value(x),
                        reference_code(&p, x),
                        "{bits} bits, scale {scale:e}, x {x:e} ({:#x})",
                        x.to_bits()
                    );
                }
                let t = Tensor::from_vec(xs.clone(), [xs.len()]).unwrap();
                let fake = p.fake_quantize(&t);
                for (&x, &y) in xs.iter().zip(fake.as_slice()) {
                    let expect = p.dequantize_value(reference_code(&p, x));
                    assert_eq!(y.to_bits(), expect.to_bits(), "{bits} bits, x {x:e}");
                }
                let codes: Vec<i32> = xs.iter().map(|&x| reference_code(&p, x)).collect();
                assert_eq!(p.quantize(&t).codes(), codes.as_slice());
            }
        }
        // `max_abs` over every prefix length (lane tails), with NaN and
        // infinities mixed in, and over the random bit patterns.
        let mut xs = edge_inputs(&QuantParams::new(0.37, 12).unwrap());
        xs.extend_from_slice(&random[..1000]);
        for len in (0..40).chain([xs.len() - 1, xs.len()]) {
            let t = Tensor::from_vec(xs[..len].to_vec(), [len]).unwrap();
            assert_eq!(t.max_abs().to_bits(), reference_max_abs(&xs[..len]).to_bits(), "{len}");
        }
        let finite: Vec<f32> = random.iter().copied().filter(|x| x.is_finite()).collect();
        let t = Tensor::from_vec(finite.clone(), [finite.len()]).unwrap();
        assert_eq!(t.max_abs().to_bits(), reference_max_abs(&finite).to_bits());
        let nans = Tensor::from_vec(vec![f32::NAN; 19], [19]).unwrap();
        assert_eq!(nans.max_abs().to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn rejects_bad_params() {
        assert!(QuantParams::new(0.0, 12).is_err());
        assert!(QuantParams::new(f32::NAN, 12).is_err());
        assert!(QuantParams::new(1.0, 1).is_err());
        assert!(QuantParams::new(1.0, 17).is_err());
    }

    #[test]
    fn storage_bits_counts_codes() {
        let t = Tensor::zeros([10]);
        let q = QuantParams::fit(&t, 12).unwrap().quantize(&t);
        assert_eq!(q.storage_bits(), 120);
    }

    #[test]
    fn qtensor_to_tensor_round_trips() {
        let t = Tensor::from_vec(vec![0.5, -0.25], [2]).unwrap();
        let p = QuantParams::fit(&t, 12).unwrap();
        let q = p.quantize(&t);
        assert_eq!(q.shape().dims(), &[2]);
        let back = q.to_tensor();
        assert!(back.relative_l2_error(&t).unwrap() < 1e-3);
    }
}
