//! Residual MSDeformAttn encoder stack.
//!
//! The Deformable-DETR-family encoders apply MSDeformAttn as self-attention
//! over the flattened pyramid tokens: the output of block *k* (after a
//! residual connection and normalization) becomes the feature map of block
//! *k+1*. This inter-block data dependence is what lets FWP use block *k*'s
//! sampling frequencies to prune block *k+1*'s pixels.
//!
//! [`run_encoder_observed_from`] is the streaming entry: it hands each
//! block's intermediates to an observer and refills one set of buffers
//! block after block, so serving and every caller that reads only the
//! final features use it.
//! [`run_encoder`] and [`run_encoder_from`] collect every block into an
//! [`EncoderTrace`] for the callers that inspect the blocks.

use crate::reference::{with_layer_buffers, LayerOutput};
use crate::workload::SyntheticWorkload;
use crate::{FmapPyramid, ModelError};
use defa_tensor::Tensor;

/// Applies the residual + RMS-normalization update between encoder blocks.
///
/// Real encoders use LayerNorm; per-token RMS normalization keeps the
/// activation scale stable across blocks (which LayerNorm also does) without
/// learnable parameters, so stacked blocks neither explode nor vanish.
///
/// # Errors
///
/// Returns [`ModelError::Tensor`] if shapes disagree.
pub fn block_update(x: &Tensor, attn_out: &Tensor) -> Result<Tensor, ModelError> {
    let mut next = x.add(attn_out)?;
    let d = next.shape().dims()[1];
    let rows = next.shape().dims()[0];
    for r in 0..rows {
        let row = next.row_mut(r)?;
        let ms: f32 = row.iter().map(|&v| v * v).sum::<f32>() / d as f32;
        let scale = 1.0 / ms.sqrt().max(1e-6);
        for v in row.iter_mut() {
            *v *= scale;
        }
    }
    Ok(next)
}

/// The trace of a full encoder run: every block's intermediates plus the
/// feature pyramid entering each block.
#[derive(Debug, Clone)]
pub struct EncoderTrace {
    /// Per-block layer outputs, in execution order.
    pub blocks: Vec<LayerOutput>,
    /// The final feature tensor after the last residual update.
    pub final_features: Tensor,
}

/// Runs every block of a workload's encoder exactly (no pruning).
///
/// # Errors
///
/// Propagates shape errors from the layer evaluations.
pub fn run_encoder(wl: &SyntheticWorkload) -> Result<EncoderTrace, ModelError> {
    run_encoder_from(wl, wl.initial_fmap())
}

/// [`run_encoder`] over a caller-provided initial feature pyramid,
/// collecting every block's intermediates into an [`EncoderTrace`].
///
/// The workload contributes weights, reference points and the saliency
/// warp; `initial` replaces the workload's own backbone features: one
/// workload (scenario) handles many requests, each with its own input
/// pyramid. Callers that read only the final features use
/// [`run_encoder_observed_from`], which keeps no block alive.
///
/// # Errors
///
/// Propagates shape errors from the layer evaluations (including a
/// pyramid/configuration mismatch).
pub fn run_encoder_from(
    wl: &SyntheticWorkload,
    initial: &FmapPyramid,
) -> Result<EncoderTrace, ModelError> {
    let mut blocks: Vec<LayerOutput> = Vec::with_capacity(wl.config().n_layers);
    // Each block moves its buffers into the trace and the next block
    // allocates its own, so the trace holds each block exactly once.
    let final_features = run_blocks(wl, initial, &mut LayerOutput::empty(), |_, out| {
        blocks.push(std::mem::replace(out, LayerOutput::empty()));
    })?;
    Ok(EncoderTrace { blocks, final_features })
}

/// The streaming exact encoder — the serving entry point. Runs every
/// block over `initial`, invoking `observe(block_index, layer_output)`
/// after each, and returns the final features.
///
/// Every block refills one set of layer buffers ([`with_layer_buffers`])
/// once the residual update has read the block before, so a request holds
/// one block's intermediates at a time; inside a
/// [`recycle_layer_buffers`](crate::reference::recycle_layer_buffers)
/// scope, later requests on the thread refill the same buffers. Block 0
/// reads `initial` in place. The features are bit for bit
/// [`run_encoder_from`]'s.
///
/// # Errors
///
/// As [`run_encoder_from`].
pub fn run_encoder_observed_from<F>(
    wl: &SyntheticWorkload,
    initial: &FmapPyramid,
    mut observe: F,
) -> Result<Tensor, ModelError>
where
    F: FnMut(usize, &LayerOutput),
{
    with_layer_buffers(|out| run_blocks(wl, initial, out, |k, out| observe(k, out)))
}

/// Runs every block into `out`, handing it to `observe` after each
/// block's residual update, and returns the final features.
fn run_blocks(
    wl: &SyntheticWorkload,
    initial: &FmapPyramid,
    out: &mut LayerOutput,
    mut observe: impl FnMut(usize, &mut LayerOutput),
) -> Result<Tensor, ModelError> {
    let cfg = wl.config();
    let mut x: Option<FmapPyramid> = None;
    for k in 0..cfg.n_layers {
        let cur = x.as_ref().unwrap_or(initial);
        wl.layer(k)?.forward_into(cur, Some(wl.warp()), out)?;
        let next = block_update(cur.tensor(), &out.output)?;
        observe(k, out);
        x = Some(FmapPyramid::from_tensor(cfg, next)?);
    }
    Ok(x.map_or_else(|| initial.tensor().clone(), FmapPyramid::into_tensor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Benchmark;
    use crate::MsdaConfig;

    #[test]
    fn trace_has_one_entry_per_block() {
        let cfg = MsdaConfig::tiny();
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 1).unwrap();
        let trace = run_encoder(&wl).unwrap();
        assert_eq!(trace.blocks.len(), cfg.n_layers);
        assert_eq!(trace.final_features.shape().dims(), &[cfg.n_in(), cfg.d_model]);
    }

    #[test]
    fn block_update_normalizes_rows() {
        let x = Tensor::full([3, 4], 2.0);
        let o = Tensor::full([3, 4], 2.0);
        let next = block_update(&x, &o).unwrap();
        for r in 0..3 {
            let ms: f32 = next.row(r).unwrap().iter().map(|&v| v * v).sum::<f32>() / 4.0;
            assert!((ms - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn activations_stay_bounded_across_blocks() {
        let cfg = MsdaConfig::tiny();
        let wl = SyntheticWorkload::generate(Benchmark::Dino, &cfg, 2).unwrap();
        let trace = run_encoder(&wl).unwrap();
        assert!(trace.final_features.max_abs() < 50.0);
        assert!(trace.final_features.max_abs() > 1e-3);
    }

    #[test]
    fn explicit_initial_fmap_matches_and_diverges() {
        let cfg = MsdaConfig::tiny();
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 8).unwrap();
        // The workload's own pyramid reproduces run_encoder exactly.
        let own = run_encoder_from(&wl, wl.initial_fmap()).unwrap();
        let plain = run_encoder(&wl).unwrap();
        assert_eq!(own.final_features, plain.final_features);
        // A different request pyramid produces different features.
        let gen = crate::workload::RequestGenerator::new(
            vec![crate::workload::RequestScenario::from_workload(wl.clone())],
            3,
        )
        .unwrap();
        let req = gen.request(0);
        let other = run_encoder_from(&wl, &req.fmap).unwrap();
        assert!(other.final_features.relative_l2_error(&plain.final_features).unwrap() > 1e-3);
    }

    #[test]
    fn consecutive_blocks_differ() {
        let cfg = MsdaConfig::tiny();
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 4).unwrap();
        let trace = run_encoder(&wl).unwrap();
        let a = &trace.blocks[0].output;
        let b = &trace.blocks[1].output;
        assert!(a.relative_l2_error(b).unwrap() > 1e-3);
    }
}
