//! Probability-aware point pruning (PAP, §3.2).
//!
//! Softmax confines each head's attention probabilities to sum to one and
//! exponentially amplifies their differences; the paper observes that
//! near-zero probabilities constitute over 80 % of all sampling points in
//! Deformable DETR. PAP thresholds the probabilities and masks the points
//! below it, eliminating their offset computation, grid-sampling and
//! aggregation in the *current* block.

use crate::{BitMask, PruneError};
use defa_model::{FmapPyramid, MsdaLayer};
use defa_tensor::Tensor;

/// PAP hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PapConfig {
    /// Probability threshold below which a sampling point is pruned.
    pub threshold: f32,
}

impl PapConfig {
    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::InvalidParameter`] unless
    /// `0 <= threshold < 1`.
    pub fn new(threshold: f32) -> Result<Self, PruneError> {
        if !threshold.is_finite() || !(0.0..1.0).contains(&threshold) {
            return Err(PruneError::InvalidParameter(format!(
                "PAP threshold must be in [0, 1), got {threshold}"
            )));
        }
        Ok(PapConfig { threshold })
    }

    /// The paper's operating point: prunes ~84 % of points on the skewed
    /// benchmark workloads while keeping the dominant probabilities.
    pub fn paper_default() -> Self {
        PapConfig { threshold: 0.02 }
    }
}

impl Default for PapConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Stage 1 of a pruned block in one pass per query row: `layer`'s
/// attention probabilities over `x`, the PAP point mask and the retained
/// probability mass — DEFA's softmax unit feeding the mask generator.
///
/// The probabilities and the mask are bit for bit `attention_probs`
/// followed by [`point_mask`]. The mass is [`retained_mass`]'s ratio with
/// the sums taken per head, per row and then over rows in order, so it can
/// differ from that element-order sum in its last digits; it is the same
/// for any thread count.
///
/// # Errors
///
/// Propagates a pyramid that disagrees with the layer's configuration.
pub fn probs_and_mask(
    layer: &MsdaLayer,
    x: &FmapPyramid,
    cfg: PapConfig,
) -> Result<(Tensor, BitMask, f64), PruneError> {
    let mut probs = Tensor::zeros([0]);
    let (mask, mass) = probs_and_mask_into(layer, x, cfg, &mut probs)?;
    Ok((probs, mask, mass))
}

/// [`probs_and_mask`] with the probabilities written to a caller-provided
/// tensor, resized reusing its allocation and overwritten; returns the
/// mask and the retained mass.
pub(crate) fn probs_and_mask_into(
    layer: &MsdaLayer,
    x: &FmapPyramid,
    cfg: PapConfig,
    probs: &mut Tensor,
) -> Result<(BitMask, f64), PruneError> {
    let pap = layer.attention_probs_thresholded_into(x, cfg.threshold, probs)?;
    let mass = if pap.total_mass == 0.0 { 1.0 } else { pap.kept_mass / pap.total_mass };
    Ok((BitMask::from_bools(pap.keep), mass))
}

/// Builds the point mask from a `[N_in, N_h·N_l·N_p]` probability tensor.
///
/// The mask is linearized as `query · points_per_query + slot`, the
/// `point_mask` layout of [`defa_model::MsdaLayer::sample_and_aggregate`].
///
/// # Errors
///
/// Returns [`PruneError::ShapeMismatch`] for tensors that are not rank 2.
pub fn point_mask(probs: &Tensor, cfg: PapConfig) -> Result<BitMask, PruneError> {
    if probs.shape().rank() != 2 {
        return Err(PruneError::ShapeMismatch(format!(
            "probability tensor must be rank 2, got {}",
            probs.shape()
        )));
    }
    Ok(BitMask::from_threshold(probs.as_slice(), cfg.threshold))
}

/// Share of total attention probability mass retained by a mask.
///
/// This is the quantity that explains why PAP is safe: pruning 84 % of
/// points typically removes only a few percent of the probability mass.
///
/// # Errors
///
/// Returns [`PruneError::ShapeMismatch`] if the mask length differs from
/// the tensor volume.
pub fn retained_mass(probs: &Tensor, mask: &BitMask) -> Result<f64, PruneError> {
    if probs.len() != mask.len() {
        return Err(PruneError::ShapeMismatch(format!(
            "probs volume {} vs mask {}",
            probs.len(),
            mask.len()
        )));
    }
    let mut kept = 0.0f64;
    let mut total = 0.0f64;
    for (&p, &keep) in probs.as_slice().iter().zip(mask.as_bools()) {
        total += p as f64;
        if keep {
            kept += p as f64;
        }
    }
    if total == 0.0 {
        Ok(1.0)
    } else {
        Ok(kept / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defa_model::workload::{Benchmark, SyntheticWorkload};
    use defa_model::MsdaConfig;

    #[test]
    fn figure2_example_prunes_near_zero_probs() {
        // Figure 2 left: probs (0.8, 0.13, 0.07) with a threshold that
        // prunes the two small ones.
        let probs = Tensor::from_vec(vec![0.8, 0.13, 0.07], [1, 3]).unwrap();
        let mask = point_mask(&probs, PapConfig::new(0.2).unwrap()).unwrap();
        assert_eq!(mask.as_bools(), &[true, false, false]);
    }

    #[test]
    fn threshold_zero_keeps_everything() {
        let probs = Tensor::from_vec(vec![0.5, 0.0, 0.5], [1, 3]).unwrap();
        let mask = point_mask(&probs, PapConfig::new(0.0).unwrap()).unwrap();
        assert_eq!(mask.kept(), 3);
    }

    #[test]
    fn paper_workload_prunes_over_80_percent() {
        let cfg = MsdaConfig::small();
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 3).unwrap();
        let (_, probs) = wl.layer(0).unwrap().attention_probs(wl.initial_fmap()).unwrap();
        let mask = point_mask(&probs, PapConfig::paper_default()).unwrap();
        let drop = mask.drop_fraction();
        assert!(drop > 0.75, "drop fraction {drop}");
        // And the retained probability mass stays high.
        let mass = retained_mass(&probs, &mask).unwrap();
        assert!(mass > 0.90, "retained mass {mass}");
    }

    #[test]
    fn retained_mass_of_keep_all_is_one() {
        let probs = Tensor::from_vec(vec![0.25; 4], [1, 4]).unwrap();
        let mask = BitMask::keep_all(4);
        assert!((retained_mass(&probs, &mask).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn retained_mass_validates_lengths() {
        let probs = Tensor::zeros([1, 4]);
        assert!(retained_mass(&probs, &BitMask::keep_all(3)).is_err());
    }

    #[test]
    fn config_rejects_bad_thresholds() {
        assert!(PapConfig::new(-0.1).is_err());
        assert!(PapConfig::new(1.0).is_err());
        assert!(PapConfig::new(f32::INFINITY).is_err());
        assert!(PapConfig::new(0.5).is_ok());
    }

    #[test]
    fn rank_one_tensor_is_rejected() {
        let probs = Tensor::zeros([4]);
        assert!(point_mask(&probs, PapConfig::paper_default()).is_err());
    }
}
