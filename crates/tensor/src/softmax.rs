//! Numerically stable softmax over a repo-owned `exp`.
//!
//! Every softmax in the workspace evaluates `exp` with this module's
//! private `exp_in_place`: [`softmax_inplace`] one slice at a time, and
//! the per-head row pass ([`softmax_heads`], [`softmax_heads_thresholded`])
//! eight heads at a time. Both run the same `f32` operations in the same
//! order per element, so a probability has the same bits whichever entry
//! point computed it, on any CPU and for any thread count, and none of them
//! depends on the C library's `expf`.

use crate::{Tensor, TensorError};

/// `2^(i/32)` for `i` in `0..32`, as `f64` bits. Each entry is
/// `(i as f64 / 32.0).exp2()`, correctly rounded; a test checks both.
const EXP2_TABLE: [u64; 32] = [
    0x3FF0_0000_0000_0000,
    0x3FF0_59B0_D315_8574,
    0x3FF0_B558_6CF9_890F,
    0x3FF1_1301_D012_5B51,
    0x3FF1_72B8_3C7D_517B,
    0x3FF1_D487_3168_B9AA,
    0x3FF2_387A_6E75_6238,
    0x3FF2_9E9D_F51F_DEE1,
    0x3FF3_06FE_0A31_B715,
    0x3FF3_71A7_373A_A9CB,
    0x3FF3_DEA6_4C12_3422,
    0x3FF4_4E08_6061_892D,
    0x3FF4_BFDA_D536_2A27,
    0x3FF5_342B_569D_4F82,
    0x3FF5_AB07_DD48_5429,
    0x3FF6_247E_B03A_5585,
    0x3FF6_A09E_667F_3BCD,
    0x3FF7_1F75_E8EC_5F74,
    0x3FF7_A114_73EB_0187,
    0x3FF8_2589_994C_CE13,
    0x3FF8_ACE5_422A_A0DB,
    0x3FF9_3737_B0CD_C5E5,
    0x3FF9_C491_82A3_F090,
    0x3FFA_5503_B23E_255D,
    0x3FFA_E89F_995A_D3AD,
    0x3FFB_7F76_F2FB_5E47,
    0x3FFC_199B_DD85_529C,
    0x3FFC_B720_DCEF_9069,
    0x3FFD_5818_DCFB_A487,
    0x3FFD_FC97_337B_9B5F,
    0x3FFE_A4AF_A2A4_90DA,
    0x3FFF_5076_5B6E_4540,
];

/// Table entries per octave.
const N: f64 = 32.0;

/// `32 / ln 2`.
const INV_LN2_N: f64 = f64::from_bits(0x3FF7_1547_652B_82FE) * N;

/// [`INV_LN2_N`] cut to 29 significant bits: its product with any `f32`
/// (24 bits) is exact in `f64`.
const INV_LN2_N_HI: f64 = f64::from_bits(INV_LN2_N.to_bits() & !0xFF_FFFF);

/// The rest of [`INV_LN2_N`], exactly.
const INV_LN2_N_LO: f64 = INV_LN2_N - INV_LN2_N_HI;

/// `1.5 · 2⁵²`: adding it rounds a double of magnitude below 2⁵¹ to the
/// nearest integer, held in the low mantissa bits.
const SHIFT: f64 = 6_755_399_441_055_744.0;

/// `2^(r/32) ≈ 1 + C2·r + C1·r² + C0·r³` on `|r| ≤ 1/2`.
const C0: f64 = f64::from_bits(0x3FAC_6AF8_4B91_2394) / (N * N * N);
const C1: f64 = f64::from_bits(0x3FCE_BFCE_50FA_C4F3) / (N * N);
const C2: f64 = f64::from_bits(0x3FE6_2E42_FF0C_52D6) / N;

/// `-0x1.9fe368p6 ≈ -103.97208`: `e^x` rounds to `+0` below it.
const UNDERFLOW: f32 = f32::from_bits(0xC2CF_F1B4);

/// `e^x` in place for every `x` of `v`, each `≤ 0` or NaN: the only
/// inputs a softmax passes, `x − max`.
///
/// This is glibc's `expf` algorithm (from Arm's optimized-routines, MIT):
/// `x·32/ln 2 = k + r` with an integer `k` and `|r| ≤ 1/2`, then
/// `e^x = 2^(k/32) · 2^(r/32)`, the first factor from a 32-entry table and
/// an exponent shift, the second from a degree-3 polynomial, all in `f64`
/// and rounded to `f32` once. glibc computes `r` with a fused multiply–add
/// on CPUs that have one; here `r = (hi·x − k) + lo·x` rounds it once
/// without one, `hi·x` and its difference from `k` being exact. The
/// result equals glibc's FMA `expf` for every `f32` in
/// `[-103.97208, -0.0]` (an ignored test checks all 1,120,924,085 of
/// them), is `+0` below that, `+0` for `-∞`, and `x + x` for NaN.
/// Positive inputs are outside the domain.
///
/// Being plain `f32`/`f64` arithmetic and a table load, the bits depend on
/// neither the C library nor the instruction set. The work is split into
/// three loops over chunks of 64 — the arithmetic, the table loads, the
/// scaling — so that the first and last vectorize around the loads.
fn exp_in_place(v: &mut [f32]) {
    const CHUNK: usize = 64;
    let mut poly = [0f64; CHUNK];
    let mut scale = [0u64; CHUNK];
    for c in v.chunks_mut(CHUNK) {
        let (poly, scale) = (&mut poly[..c.len()], &mut scale[..c.len()]);
        for ((&x, y), ki) in c.iter().zip(poly.iter_mut()).zip(scale.iter_mut()) {
            let xd = f64::from(x);
            let kd = INV_LN2_N * xd + SHIFT;
            *ki = kd.to_bits();
            let kd = kd - SHIFT;
            let r = (INV_LN2_N_HI * xd - kd) + INV_LN2_N_LO * xd;
            *y = (C0 * r + C1) * (r * r) + (C2 * r + 1.0);
        }
        // 2^(k/32): the entry for k mod 32, with floor(k/32) added to its
        // exponent field. `ki` holds k in its low bits above a multiple of
        // 32, whose contribution shifts out.
        for ki in scale.iter_mut() {
            *ki = EXP2_TABLE[(*ki % 32) as usize].wrapping_add((*ki & !31) << 47);
        }
        for ((x, &y), &s) in c.iter_mut().zip(poly.iter()).zip(scale.iter()) {
            let e = (y * f64::from_bits(s)) as f32;
            let e = if *x < UNDERFLOW { 0.0 } else { e };
            *x = if x.is_nan() { *x + *x } else { e };
        }
    }
}

/// Softmax over a single slice, in place.
///
/// Uses the max-subtraction trick for numerical stability. A slice whose
/// exponentials sum to zero or NaN is left un-normalized. An empty slice
/// is a no-op.
pub fn softmax_inplace(row: &mut [f32]) {
    let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
    for x in row.iter_mut() {
        *x -= max;
    }
    exp_in_place(row);
    let sum = row.iter().fold(0.0f32, |s, &x| s + x);
    if sum > 0.0 {
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

/// Softmax over one slice, returning a new vector.
pub fn softmax(row: &[f32]) -> Vec<f32> {
    let mut out = row.to_vec();
    softmax_inplace(&mut out);
    out
}

/// Row-wise softmax of a rank-2 tensor.
///
/// Each row is normalized independently, matching the per-query
/// normalization of the `N_l·N_p` attention logits in MSDeformAttn.
///
/// # Errors
///
/// Returns [`TensorError::InvalidAxis`] for tensors that are not rank 2.
pub fn softmax_rows(t: &Tensor) -> Result<Tensor, TensorError> {
    if t.shape().rank() != 2 {
        return Err(TensorError::InvalidAxis { axis: 1, rank: t.shape().rank() });
    }
    let mut out = t.clone();
    let rows = out.shape().dims()[0];
    for r in 0..rows {
        softmax_inplace(out.row_mut(r)?);
    }
    Ok(out)
}

/// What [`softmax_heads_thresholded`] produces besides the probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct Thresholded {
    /// `p >= threshold` for every probability `p`, in the tensor's layout.
    pub keep: Vec<bool>,
    /// Sum of the kept probabilities.
    pub kept_mass: f64,
    /// Sum of all probabilities.
    pub total_mass: f64,
}

/// Heads the row pass normalizes side by side, one per lane.
const HEAD_LANES: usize = 8;

/// Below this many elements the row loop runs sequentially: the scoped
/// helpers spawn threads per call, which only pays with real work behind
/// it. Results are identical either way.
const PAR_MIN_ELEMS: usize = 1 << 12;

/// Rows one parallel task normalizes.
const ROW_BLOCK: usize = 64;

/// Per-head softmax of a `[n, heads · head_len]` tensor, in place: each
/// row's consecutive runs of `head_len` values are normalized as
/// [`softmax_inplace`] would, bit for bit.
///
/// Rows run in parallel; within a row, blocks of 8 heads run side by
/// side, one head per lane, so the max, `exp`, sum and division are 8-lane
/// vertical operations while each head's sum keeps its slot order.
///
/// # Errors
///
/// Returns [`TensorError::InvalidAxis`] for tensors that are not rank 2 and
/// [`TensorError::ShapeMismatch`] unless `head_len` is positive and divides
/// the row length.
pub fn softmax_heads(t: &mut Tensor, head_len: usize) -> Result<(), TensorError> {
    let row_len = check_heads(t, head_len)?;
    let data = t.as_mut_slice();
    let parallel = data.len() >= PAR_MIN_ELEMS;
    defa_parallel::par_chunks_mut_if(parallel, data, ROW_BLOCK * row_len, |_, rows| {
        let mut lanes = vec![[0f32; HEAD_LANES]; head_len];
        for row in rows.chunks_exact_mut(row_len) {
            row_pass::<false>(row, &mut [], head_len, 0.0, &mut lanes);
        }
    });
    Ok(())
}

/// [`softmax_heads`], thresholding each probability in the same pass:
/// DEFA's stage 1, a softmax unit feeding the mask generator (§4.1).
///
/// The probabilities are [`softmax_heads`]'s, `keep` is `p >= threshold`
/// per probability, and the masses sum `p` as `f64` per head in slot order,
/// the heads of a row in order, then the rows in order — the same for any
/// thread count.
///
/// # Errors
///
/// As [`softmax_heads`].
pub fn softmax_heads_thresholded(
    t: &mut Tensor,
    head_len: usize,
    threshold: f32,
) -> Result<Thresholded, TensorError> {
    let row_len = check_heads(t, head_len)?;
    let data = t.as_mut_slice();
    let parallel = data.len() >= PAR_MIN_ELEMS;
    let mut keep = vec![false; data.len()];
    let mut masses = vec![[0f64; 2]; data.len() / row_len];
    let mut blocks: Vec<_> = data
        .chunks_mut(ROW_BLOCK * row_len)
        .zip(keep.chunks_mut(ROW_BLOCK * row_len))
        .zip(masses.chunks_mut(ROW_BLOCK))
        .collect();
    defa_parallel::par_chunks_mut_if(parallel, &mut blocks, 1, |_, block| {
        let mut lanes = vec![[0f32; HEAD_LANES]; head_len];
        for ((rows, keep), masses) in block.iter_mut() {
            let rows = rows.chunks_exact_mut(row_len).zip(keep.chunks_exact_mut(row_len));
            for ((row, keep), mass) in rows.zip(masses.iter_mut()) {
                *mass = row_pass::<true>(row, keep, head_len, threshold, &mut lanes);
            }
        }
    });
    let (kept_mass, total_mass) =
        masses.iter().fold((0.0, 0.0), |(k, t), &[rk, rt]| (k + rk, t + rt));
    Ok(Thresholded { keep, kept_mass, total_mass })
}

/// Validates a per-head softmax's input, returning its row length.
fn check_heads(t: &Tensor, head_len: usize) -> Result<usize, TensorError> {
    let dims = t.shape().dims();
    if dims.len() != 2 {
        return Err(TensorError::InvalidAxis { axis: 1, rank: dims.len() });
    }
    if head_len == 0 || !dims[1].is_multiple_of(head_len) {
        return Err(TensorError::ShapeMismatch {
            op: "softmax_heads",
            lhs: t.shape().to_string(),
            rhs: format!("heads of {head_len}"),
        });
    }
    Ok(dims[1])
}

/// Normalizes one row's heads, 8 at a time in `lanes` (one head per lane,
/// `head_len` slots deep), in [`softmax_inplace`]'s operations and order
/// per head. With `PAP`, also writes `keep` and returns the row's kept and
/// total mass; otherwise `keep` is not touched.
fn row_pass<const PAP: bool>(
    row: &mut [f32],
    keep: &mut [bool],
    head_len: usize,
    threshold: f32,
    lanes: &mut [[f32; HEAD_LANES]],
) -> [f64; 2] {
    let n_heads = row.len() / head_len;
    let mut mass = [0f64; 2];
    for h0 in (0..n_heads).step_by(HEAD_LANES) {
        let hn = HEAD_LANES.min(n_heads - h0);
        let heads = &mut row[h0 * head_len..(h0 + hn) * head_len];
        // A short last block fills its spare lanes with zeros, computed
        // and dropped.
        for (j, head) in heads.chunks_exact(head_len).enumerate() {
            for (l, &x) in lanes.iter_mut().zip(head) {
                l[j] = x;
            }
        }
        if hn < HEAD_LANES {
            for l in lanes.iter_mut() {
                l[hn..].fill(0.0);
            }
        }
        let mut max = [f32::NEG_INFINITY; HEAD_LANES];
        for l in lanes.iter() {
            for j in 0..HEAD_LANES {
                max[j] = max[j].max(l[j]);
            }
        }
        for l in lanes.iter_mut() {
            for j in 0..HEAD_LANES {
                l[j] -= max[j];
            }
        }
        exp_in_place(lanes.as_flattened_mut());
        let mut sum = [0f32; HEAD_LANES];
        for l in lanes.iter() {
            for j in 0..HEAD_LANES {
                sum[j] += l[j];
            }
        }
        // Dividing by 1 is exact, NaN included: a head whose sum is not
        // positive stays un-normalized.
        let div = sum.map(|s| if s > 0.0 { s } else { 1.0 });
        for l in lanes.iter_mut() {
            for j in 0..HEAD_LANES {
                l[j] /= div[j];
            }
        }
        for (j, head) in heads.chunks_exact_mut(head_len).enumerate() {
            for (x, l) in head.iter_mut().zip(lanes.iter()) {
                *x = l[j];
            }
        }
        if PAP {
            // Two plain loops, so each vectorizes (a select on the `f64`
            // sum would compile to a branch per element).
            let mut total = [0f64; HEAD_LANES];
            for l in lanes.iter() {
                for j in 0..HEAD_LANES {
                    total[j] += f64::from(l[j]);
                }
            }
            let mut kept = [0f64; HEAD_LANES];
            for l in lanes.iter() {
                for j in 0..HEAD_LANES {
                    kept[j] += f64::from(if l[j] >= threshold { l[j] } else { 0.0 });
                }
            }
            let keep = &mut keep[h0 * head_len..(h0 + hn) * head_len];
            for (k, &p) in keep.iter_mut().zip(heads.iter()) {
                *k = p >= threshold;
            }
            for j in 0..hn {
                mass[0] += kept[j];
                mass[1] += total[j];
            }
        }
    }
    mass
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expf(x: f32) -> f32 {
        let mut v = [x];
        exp_in_place(&mut v);
        v[0]
    }

    #[test]
    fn rows_sum_to_one() {
        let t = Tensor::from_fn_2d(3, 5, |r, c| (r as f32) - (c as f32) * 0.3);
        let p = softmax_rows(&t).unwrap();
        for r in 0..3 {
            let s: f32 = p.row(r).unwrap().iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn probabilities_are_positive_and_ordered() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!(p.iter().all(|&x| x > 0.0));
        assert!(p[0] < p[1] && p[1] < p[2]);
    }

    #[test]
    fn stable_under_large_logits() {
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-6);
        assert!(p.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn uniform_logits_give_uniform_probs() {
        let p = softmax(&[0.5; 8]);
        for &x in &p {
            assert!((x - 0.125).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_row_is_noop() {
        let mut row: [f32; 0] = [];
        softmax_inplace(&mut row);
    }

    #[test]
    fn rejects_rank_one_tensor() {
        let t = Tensor::zeros([4]);
        assert!(softmax_rows(&t).is_err());
        assert!(softmax_heads(&mut Tensor::zeros([4]), 2).is_err());
    }

    #[test]
    fn heads_must_divide_the_row() {
        let mut t = Tensor::zeros([2, 6]);
        assert!(softmax_heads(&mut t, 4).is_err());
        assert!(softmax_heads(&mut t, 0).is_err());
        assert!(softmax_heads_thresholded(&mut t, 4, 0.1).is_err());
        softmax_heads(&mut t, 3).unwrap();
    }

    #[test]
    fn dominant_logit_takes_almost_all_mass() {
        let p = softmax(&[10.0, 0.0, 0.0]);
        assert!(p[0] > 0.99);
    }

    #[test]
    fn table_is_exp2_of_the_thirty_seconds() {
        for (i, &bits) in EXP2_TABLE.iter().enumerate() {
            assert_eq!(bits, (i as f64 / 32.0).exp2().to_bits(), "entry {i}");
        }
        assert_eq!(UNDERFLOW, -103.97208);
    }

    /// `exp` at frozen bit patterns, so a change of the C library cannot
    /// move them: the domain's ends, the underflow cutoff and its
    /// neighbours, the last normal result and the input whose `r` needs a
    /// single rounding.
    #[test]
    fn expf_is_pinned_at_edge_inputs() {
        let pins: [(u32, u32); 11] = [
            (0x8000_0000, 0x3F80_0000), // -0.0 -> 1
            (0x0000_0000, 0x3F80_0000), // +0.0 -> 1
            (0xFF80_0000, 0x0000_0000), // -inf -> +0
            (0xC2CF_F1B5, 0x0000_0000), // just below the cutoff -> +0
            (0xC2CF_F1B4, 0x0000_0001), // -103.97208 -> smallest subnormal
            (0xC2CF_F1B3, 0x0000_0001),
            (0xC2AE_AC50, 0x007F_FFE6), // -87.33655, just below f32::MIN_POSITIVE
            (0xC27C_65D9, 0x11FA_2993), // -63.09946: r needs one rounding
            (0xBF80_0000, 0x3EBC_5AB2), // -1 -> 1/e
            (0xC0A0_0000, 0x3BDC_C9FF), // -5
            (0xB380_0000, 0x3F7F_FFFF), // -2^-24
        ];
        for (x, want) in pins {
            let x = f32::from_bits(x);
            assert_eq!(expf(x).to_bits(), want, "expf({x:e})");
        }
        assert!(expf(f32::NAN).is_nan());
        assert!(expf(-f32::NAN).is_nan());
    }

    /// `exp_in_place` over the `f32`s with bit patterns in `bits`, against
    /// the C library's `expf`; returns the mismatch count.
    fn mismatches(bits: impl Iterator<Item = u32>) -> u64 {
        let xs: Vec<f32> = bits.map(f32::from_bits).collect();
        let mut got = xs.clone();
        exp_in_place(&mut got);
        xs.iter().zip(&got).map(|(x, e)| u64::from(e.to_bits() != x.exp().to_bits())).sum()
    }

    #[test]
    fn expf_matches_std_on_a_strided_sample() {
        let (lo, hi) = (0x8000_0000u32, UNDERFLOW.to_bits());
        assert_eq!(mismatches((lo..=hi).step_by(4099).chain([hi])), 0);
    }

    /// Every input of the domain that does not underflow, against the C
    /// library's `expf`: about 10 s in a release build.
    #[test]
    #[ignore = "exhaustive; run with --release -- --ignored"]
    fn expf_matches_std_on_every_input() {
        let (lo, hi) = (0x8000_0000u32, UNDERFLOW.to_bits());
        let bad: u64 = (lo..=hi)
            .step_by(1 << 16)
            .map(|start| mismatches(start..=hi.min(start + 0xFFFF)))
            .sum();
        assert_eq!(bad, 0);
    }

    fn reference_heads(t: &Tensor, head_len: usize) -> Tensor {
        let mut want = t.clone();
        for head in want.as_mut_slice().chunks_exact_mut(head_len) {
            softmax_inplace(head);
        }
        want
    }

    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn row_pass_equals_per_head_softmax() {
        // 11 heads: one full 8-lane block and a short one.
        let (rows, heads, lp) = (5, 11, 6);
        let mut t = Tensor::from_fn_2d(rows, heads * lp, |r, c| {
            ((r * 31 + c * 17) % 23) as f32 * 0.7 - 8.0
        });
        let row = t.row_mut(2).unwrap();
        row[0] = f32::NEG_INFINITY;
        row[lp] = f32::INFINITY;
        row[2 * lp + 1] = f32::NAN;
        row[3 * lp..4 * lp].fill(3.0);
        row[4 * lp + 2] = 200.0;
        let want = reference_heads(&t, lp);
        let threshold = 0.05;
        let mut got = t.clone();
        softmax_heads(&mut got, lp).unwrap();
        assert!(same_bits(got.as_slice(), want.as_slice()));
        let mut got = t.clone();
        let pap = softmax_heads_thresholded(&mut got, lp, threshold).unwrap();
        assert!(same_bits(got.as_slice(), want.as_slice()));
        let keep: Vec<bool> = want.as_slice().iter().map(|&p| p >= threshold).collect();
        assert_eq!(pap.keep, keep);
        // The NaN row's mass is NaN, as a sequential sum's would be.
        assert!(pap.total_mass.is_nan());
    }

    #[test]
    fn masses_sum_kept_and_all_probabilities() {
        let t = Tensor::from_fn_2d(70, 24, |r, c| ((r * 7 + c * 5) % 13) as f32 * 0.4);
        let mut p = t.clone();
        let pap = softmax_heads_thresholded(&mut p, 4, 0.3).unwrap();
        let (mut kept, mut total) = (0f64, 0f64);
        for (&x, &k) in p.as_slice().iter().zip(&pap.keep) {
            total += f64::from(x);
            kept += if k { f64::from(x) } else { 0.0 };
        }
        assert!((pap.total_mass - total).abs() <= 1e-12 * total);
        assert!((pap.kept_mass - kept).abs() <= 1e-12 * total);
        assert!((pap.total_mass - 70.0 * 6.0).abs() < 1e-3);
    }
}
