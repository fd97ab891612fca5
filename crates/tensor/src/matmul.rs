//! Matrix multiplication kernels.
//!
//! The functional reference model multiplies large activation matrices
//! (`Q·Wᴬ`, `Q·Wˢ`, `X·Wᵥ`), so a fast kernel matters. Two
//! implementations are provided:
//!
//! * [`matmul`] / [`matmul_row_masked`] — the production kernel: a
//!   register-tiled micro-kernel (`MR` rows × one panel width of
//!   accumulators held in registers, packed-B panels, an unrolled FMA inner loop that
//!   auto-vectorizes) with the row dimension parallelized across threads
//!   via `defa-parallel`. Packing buffers come from a [`Scratch`] arena
//!   (thread-local for the convenience entry points), so steady-state
//!   calls allocate nothing beyond the output tensor — and the `_into`
//!   variants not even that.
//! * [`matmul_naive`] — the golden reference for tests.
//!
//! Results are **bit-identical for any thread count**: every `MR`-row band
//! of the output is produced by the same pure accumulation over `k` in the
//! same order regardless of how bands are distributed over threads.

use crate::scratch::{with_thread_scratch, Scratch};
use crate::{Tensor, TensorError};

/// Rows of A processed at once by the micro-kernel. Six rows give the FMA
/// units 12 independent accumulator registers at every panel width (2
/// vectors per row), enough to hide the FMA latency chain.
const MR: usize = 6;

/// Below this many multiply–accumulates the row-parallel split is not worth
/// a thread spawn; the kernel runs sequentially. Results are identical
/// either way — the threshold only affects wall clock.
const PAR_MIN_MACS: u64 = 1 << 18;

/// Instruction set the micro-kernel was dispatched to at runtime.
///
/// The kernel body is generic over panel width and FMA use; this enum
/// picks the widest instantiation the CPU supports. Detection is done once
/// (std caches the CPUID result), and the choice is a pure function of the
/// host CPU, so results stay deterministic run to run on a given machine —
/// and thread-count invariant always.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    /// AVX-512F: 32-column panels, FMA.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// AVX2 + FMA: 16-column panels, FMA.
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    /// Portable: 8-column panels, mul + add (auto-vectorizes to the
    /// baseline SIMD of the target, e.g. SSE2 on x86-64).
    Portable,
}

fn detect_isa() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Isa::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Isa::Avx2Fma;
        }
    }
    Isa::Portable
}

/// Packed-panel width (columns of B per panel) for the dispatched ISA.
fn panel_width(isa: Isa) -> usize {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => 32,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => 16,
        Isa::Portable => 8,
    }
}

fn check_dims(
    a: &Tensor,
    b: &Tensor,
    op: &'static str,
) -> Result<(usize, usize, usize), TensorError> {
    if a.shape().rank() != 2 || b.shape().rank() != 2 {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: format!("{}", a.shape()),
            rhs: format!("{}", b.shape()),
        });
    }
    let (m, k) = (a.shape().dims()[0], a.shape().dims()[1]);
    let (k2, n) = (b.shape().dims()[0], b.shape().dims()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: format!("{}", a.shape()),
            rhs: format!("{}", b.shape()),
        });
    }
    Ok((m, k, n))
}

/// Naive triple-loop GEMM, kept as the golden reference for tests.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `a` is `[m, k]` and `b` is
/// `[k, n]`.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k, n) = check_dims(a, b, "matmul_naive")?;
    let mut out = Tensor::zeros([m, n]);
    let (av, bv, ov) = (a.as_slice(), b.as_slice(), out.as_mut_slice());
    for i in 0..m {
        for p in 0..k {
            let aip = av[i * k + p];
            if aip == 0.0 {
                continue;
            }
            for j in 0..n {
                ov[i * n + j] += aip * bv[p * n + j];
            }
        }
    }
    Ok(out)
}

/// Packs B (`[k, n]` row-major) into zero-padded `nr`-column panels:
/// panel `pj` holds columns `pj·nr .. pj·nr+nr`, laid out `[p][jr]` so the
/// micro-kernel streams it contiguously. Panels are packed in parallel
/// when the caller's work-size gate says the GEMM is worth threading.
fn pack_b(bv: &[f32], k: usize, n: usize, nr: usize, parallel: bool, packed: &mut [f32]) {
    let panel_len = k * nr;
    defa_parallel::par_chunks_mut_if(parallel, packed, panel_len.max(1), |pj, panel| {
        let j0 = pj * nr;
        let w = nr.min(n - j0);
        for p in 0..k {
            let brow = &bv[p * n + j0..p * n + j0 + w];
            let dst = &mut panel[p * nr..p * nr + w];
            dst.copy_from_slice(brow);
            // Zero-pad ragged panels so the kernel can always run full
            // width (padding columns are simply not written back).
            for x in &mut panel[p * nr + w..p * nr + nr] {
                *x = 0.0;
            }
        }
    });
}

/// The register-tiled `MR`×`W` micro-kernel: six rows of A against one
/// packed B panel, accumulators kept in registers across the whole `k`
/// reduction. The `j`-loops over fixed-size arrays auto-vectorize; with
/// `FMA` the `mul_add` lowers to fused multiply–add vector instructions
/// (the caller only instantiates `FMA = true` under a matching
/// `#[target_feature]` context, where it is a single instruction).
#[inline(always)]
fn kernel_6<const W: usize, const FMA: bool>(
    rows: &[&[f32]; MR],
    panel: &[f32],
    kdim: usize,
) -> [[f32; W]; MR] {
    let a: [&[f32]; MR] = std::array::from_fn(|r| &rows[r][..kdim]);
    let panel = &panel[..kdim * W];
    let mut acc = [[0.0f32; W]; MR];
    for p in 0..kdim {
        let b = &panel[p * W..p * W + W];
        for r in 0..MR {
            let x = a[r][p];
            let c = &mut acc[r];
            if FMA {
                for j in 0..W {
                    c[j] = x.mul_add(b[j], c[j]);
                }
            } else {
                for j in 0..W {
                    c[j] += x * b[j];
                }
            }
        }
    }
    acc
}

/// Ragged-edge micro-kernel: 1–5 rows of A against one packed panel.
#[inline(always)]
fn kernel_small<const W: usize, const FMA: bool>(
    rows: &[&[f32]],
    panel: &[f32],
    kdim: usize,
) -> [[f32; W]; MR] {
    let panel = &panel[..kdim * W];
    let mut acc = [[0.0f32; W]; MR];
    for p in 0..kdim {
        let b = &panel[p * W..p * W + W];
        for (r, row) in rows.iter().enumerate() {
            let x = row[p];
            let c = &mut acc[r];
            if FMA {
                for j in 0..W {
                    c[j] = x.mul_add(b[j], c[j]);
                }
            } else {
                for j in 0..W {
                    c[j] += x * b[j];
                }
            }
        }
    }
    acc
}

/// Computes one `MR`-row band of the output across all packed panels.
///
/// `band_rows` holds the A-row slice of each *kept* row of the band and
/// `band_out` the matching output row index within `out_chunk`; rows of
/// the band not listed are left untouched (the masked path zeroes them
/// beforehand).
#[inline(always)]
fn compute_band_impl<const W: usize, const FMA: bool>(
    band_rows: &[&[f32]],
    band_out: &[usize],
    out_chunk: &mut [f32],
    packed: &[f32],
    k: usize,
    n: usize,
) {
    let n_panels = n.div_ceil(W);
    let panel_len = k * W;
    for pj in 0..n_panels {
        let j0 = pj * W;
        let w = W.min(n - j0);
        let panel = &packed[pj * panel_len..(pj + 1) * panel_len];
        let acc = if let Ok(full) = <&[&[f32]; MR]>::try_from(band_rows) {
            kernel_6::<W, FMA>(full, panel, k)
        } else {
            kernel_small::<W, FMA>(band_rows, panel, k)
        };
        for (r, &or) in band_out.iter().enumerate() {
            out_chunk[or * n + j0..or * n + j0 + w].copy_from_slice(&acc[r][..w]);
        }
    }
}

/// AVX-512 instantiation of the band computation (32-wide panels, FMA).
///
/// # Safety
///
/// Callers must have verified `avx512f` support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn compute_band_avx512(
    band_rows: &[&[f32]],
    band_out: &[usize],
    out_chunk: &mut [f32],
    packed: &[f32],
    k: usize,
    n: usize,
) {
    compute_band_impl::<32, true>(band_rows, band_out, out_chunk, packed, k, n);
}

/// AVX2+FMA instantiation of the band computation (16-wide panels, FMA).
///
/// # Safety
///
/// Callers must have verified `avx2` and `fma` support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn compute_band_avx2(
    band_rows: &[&[f32]],
    band_out: &[usize],
    out_chunk: &mut [f32],
    packed: &[f32],
    k: usize,
    n: usize,
) {
    compute_band_impl::<16, true>(band_rows, band_out, out_chunk, packed, k, n);
}

/// Dispatches one output band to the widest kernel the CPU supports.
fn compute_band(
    isa: Isa,
    band_rows: &[&[f32]],
    band_out: &[usize],
    out_chunk: &mut [f32],
    packed: &[f32],
    k: usize,
    n: usize,
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa` is only Avx512/Avx2Fma when `detect_isa` verified
        // the corresponding CPU features at runtime.
        Isa::Avx512 => unsafe { compute_band_avx512(band_rows, band_out, out_chunk, packed, k, n) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa` is only Avx2Fma when `detect_isa` verified avx2
        // and fma support at runtime.
        Isa::Avx2Fma => unsafe { compute_band_avx2(band_rows, band_out, out_chunk, packed, k, n) },
        Isa::Portable => {
            compute_band_impl::<8, false>(band_rows, band_out, out_chunk, packed, k, n)
        }
    }
}

/// Shared implementation of the dense and row-masked tiled GEMM.
///
/// Dimensions are taken from the already-validated operands: `a` is
/// `[m, k]`, `b` is `[k, n]`, and `out` has `m·n` elements.
fn gemm_tiled(
    a: &Tensor,
    b: &Tensor,
    row_mask: Option<&[bool]>,
    out: &mut [f32],
    scratch: &mut Scratch,
) {
    let (m, k) = (a.shape().dims()[0], a.shape().dims()[1]);
    let n = b.shape().dims()[1];
    let (av, bv) = (a.as_slice(), b.as_slice());
    if m == 0 || n == 0 {
        return;
    }
    let isa = detect_isa();
    let nr = panel_width(isa);
    let n_panels = n.div_ceil(nr);
    let macs = m as u64 * k as u64 * n as u64;
    let parallel = macs >= PAR_MIN_MACS;
    let packed = scratch.packed_b(n_panels * k * nr);
    pack_b(bv, k, n, nr, parallel, packed);
    let packed: &[f32] = packed;

    let band = |g: usize, out_chunk: &mut [f32]| {
        let i0 = g * MR;
        let rows_here = out_chunk.len() / n;
        let mut band_rows: [&[f32]; MR] = [&[]; MR];
        let mut band_out = [0usize; MR];
        let mut kept = 0;
        for r in 0..rows_here {
            let i = i0 + r;
            if row_mask.is_none_or(|mask| mask[i]) {
                band_rows[kept] = &av[i * k..(i + 1) * k];
                band_out[kept] = r;
                kept += 1;
            } else {
                out_chunk[r * n..(r + 1) * n].fill(0.0);
            }
        }
        if kept > 0 {
            compute_band(isa, &band_rows[..kept], &band_out[..kept], out_chunk, packed, k, n);
        }
    };

    defa_parallel::par_chunks_mut_if(parallel, out, MR * n, band);
}

/// Tiled GEMM `C = A · B` with `A: [m, k]`, `B: [k, n]`, writing into a
/// caller-provided output tensor using a caller-provided [`Scratch`] arena
/// — zero allocations in steady state.
///
/// `out` is resized (allocation reused when possible) to `[m, n]`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `a` is `[m, k]` and `b` is
/// `[k, n]`.
pub fn matmul_into(
    a: &Tensor,
    b: &Tensor,
    out: &mut Tensor,
    scratch: &mut Scratch,
) -> Result<(), TensorError> {
    let (m, _, n) = check_dims(a, b, "matmul_into")?;
    out.resize_reuse([m, n]);
    gemm_tiled(a, b, None, out.as_mut_slice(), scratch);
    Ok(())
}

/// Tiled, row-parallel GEMM: `C = A · B` with `A: [m, k]`, `B: [k, n]`.
///
/// Packing buffers come from a thread-local [`Scratch`] arena, so repeated
/// calls allocate only the output tensor. Use [`matmul_into`] to eliminate
/// that allocation too.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `a` is `[m, k]` and `b` is
/// `[k, n]`.
///
/// # Example
///
/// ```
/// use defa_tensor::{Tensor, matmul::matmul};
///
/// # fn main() -> Result<(), defa_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0], [1, 2])?;
/// let b = Tensor::from_vec(vec![3.0, 4.0], [2, 1])?;
/// assert_eq!(matmul(&a, &b)?.as_slice(), &[11.0]);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let mut out = Tensor::zeros([0]);
    with_thread_scratch(|scratch| matmul_into(a, b, &mut out, scratch))?;
    Ok(out)
}

/// Row-masked GEMM: rows of `a` where `row_mask` is `false` are skipped and
/// the corresponding output rows stay zero.
///
/// This models the effect of FWP/PAP masking on the linear projections: the
/// accelerator never reads masked rows, so neither do we. Kept rows run
/// through the same tiled, row-parallel micro-kernel as [`matmul`], so
/// masked projections produce *identical* bits to the dense kernel on the
/// surviving rows.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the mask length differs from
/// the row count of `a`, or on inner-dimension mismatch.
pub fn matmul_row_masked(a: &Tensor, b: &Tensor, row_mask: &[bool]) -> Result<Tensor, TensorError> {
    let mut out = Tensor::zeros([0]);
    with_thread_scratch(|scratch| matmul_row_masked_into(a, b, row_mask, &mut out, scratch))?;
    Ok(out)
}

/// [`matmul_row_masked`] into a caller-provided output tensor with a
/// caller-provided [`Scratch`] arena, as [`matmul_into`]: `out` is resized
/// to `[m, n]` reusing its allocation, and every masked row is written as
/// zeros, whatever `out` held before.
///
/// # Errors
///
/// As [`matmul_row_masked`].
pub fn matmul_row_masked_into(
    a: &Tensor,
    b: &Tensor,
    row_mask: &[bool],
    out: &mut Tensor,
    scratch: &mut Scratch,
) -> Result<(), TensorError> {
    let (m, _, n) = check_dims(a, b, "matmul_row_masked")?;
    if row_mask.len() != m {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_row_masked",
            lhs: format!("[{m} rows]"),
            rhs: format!("[{} mask bits]", row_mask.len()),
        });
    }
    out.resize_reuse([m, n]);
    gemm_tiled(a, b, Some(row_mask), out.as_mut_slice(), scratch);
    Ok(())
}

/// Number of multiply–accumulate operations performed by a dense `[m,k]·[k,n]`
/// product.
pub fn gemm_macs(m: usize, k: usize, n: usize) -> u64 {
    m as u64 * k as u64 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TensorRng;

    #[test]
    fn tiled_matches_naive_on_random_inputs() {
        let mut rng = TensorRng::seed_from(7);
        for &(m, k, n) in
            &[(1, 1, 1), (3, 5, 2), (4, 8, 8), (65, 70, 67), (128, 64, 33), (7, 1, 9), (2, 130, 5)]
        {
            let a = rng.uniform([m, k], -1.0, 1.0);
            let b = rng.uniform([k, n], -1.0, 1.0);
            let fast = matmul(&a, &b).unwrap();
            let gold = matmul_naive(&a, &b).unwrap();
            let err = fast.relative_l2_error(&gold).unwrap();
            assert!(err < 1e-5, "({m},{k},{n}) err={err}");
        }
    }

    #[test]
    fn tiled_is_thread_count_invariant() {
        let mut rng = TensorRng::seed_from(21);
        let a = rng.uniform([131, 67], -1.0, 1.0);
        let b = rng.uniform([67, 59], -1.0, 1.0);
        let multi = defa_parallel::with_num_threads(4, || matmul(&a, &b).unwrap());
        let single = defa_parallel::with_num_threads(1, || matmul(&a, &b).unwrap());
        assert_eq!(multi, single, "parallel GEMM must be bit-identical");
    }

    #[test]
    fn into_variant_reuses_buffers() {
        let mut rng = TensorRng::seed_from(31);
        let a = rng.uniform([16, 24], -1.0, 1.0);
        let b = rng.uniform([24, 10], -1.0, 1.0);
        let mut scratch = Scratch::new();
        let mut out = Tensor::zeros([1]);
        matmul_into(&a, &b, &mut out, &mut scratch).unwrap();
        assert_eq!(out.shape().dims(), &[16, 10]);
        let gold = matmul_naive(&a, &b).unwrap();
        assert!(out.relative_l2_error(&gold).unwrap() < 1e-5);
        // Second call with identical shapes must not grow the arena.
        let cap = scratch.capacity();
        matmul_into(&a, &b, &mut out, &mut scratch).unwrap();
        assert_eq!(scratch.capacity(), cap);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = TensorRng::seed_from(3);
        let a = rng.uniform([4, 4], -2.0, 2.0);
        let c = matmul(&a, &Tensor::eye(4)).unwrap();
        assert!(c.relative_l2_error(&a).unwrap() < 1e-7);
    }

    #[test]
    fn rejects_inner_dim_mismatch() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn rejects_non_matrix_operands() {
        let a = Tensor::zeros([6]);
        let b = Tensor::zeros([6, 1]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn row_masked_skips_rows() {
        let mut rng = TensorRng::seed_from(11);
        let a = rng.uniform([4, 3], -1.0, 1.0);
        let b = rng.uniform([3, 2], -1.0, 1.0);
        let mask = vec![true, false, true, false];
        let masked = matmul_row_masked(&a, &b, &mask).unwrap();
        let full = matmul(&a, &b).unwrap();
        for (r, &keep) in mask.iter().enumerate() {
            if keep {
                assert_eq!(masked.row(r).unwrap(), full.row(r).unwrap());
            } else {
                assert!(masked.row(r).unwrap().iter().all(|&x| x == 0.0));
            }
        }
    }

    #[test]
    fn row_masked_matches_dense_on_kept_rows_at_scale() {
        let mut rng = TensorRng::seed_from(12);
        let a = rng.uniform([93, 41], -1.0, 1.0);
        let b = rng.uniform([41, 57], -1.0, 1.0);
        let mask: Vec<bool> = (0..93).map(|i| i % 3 != 1).collect();
        let masked = matmul_row_masked(&a, &b, &mask).unwrap();
        let full = matmul(&a, &b).unwrap();
        for (r, &keep) in mask.iter().enumerate() {
            if keep {
                assert_eq!(masked.row(r).unwrap(), full.row(r).unwrap(), "row {r}");
            } else {
                assert!(masked.row(r).unwrap().iter().all(|&x| x == 0.0));
            }
        }
    }

    #[test]
    fn row_masked_into_zeroes_stale_rows() {
        let mut rng = TensorRng::seed_from(13);
        let a = rng.uniform([8, 5], -1.0, 1.0);
        let b = rng.uniform([5, 6], -1.0, 1.0);
        let mut out = Tensor::full([8, 6], 7.0);
        let mut scratch = Scratch::new();
        let mask = vec![false; 8];
        matmul_row_masked_into(&a, &b, &mask, &mut out, &mut scratch).unwrap();
        assert_eq!(out.max_abs(), 0.0);
    }

    #[test]
    fn row_masked_validates_mask_length() {
        let a = Tensor::zeros([4, 3]);
        let b = Tensor::zeros([3, 2]);
        assert!(matmul_row_masked(&a, &b, &[true; 3]).is_err());
    }

    #[test]
    fn gemm_macs_counts() {
        assert_eq!(gemm_macs(2, 3, 4), 24);
    }
}
