//! Frequency-weighted fmap pruning (FWP, §3.1).
//!
//! During MSGS of block *k*, the fmap mask generator counts how many times
//! each pixel appears as an in-bounds bilinear neighbor. Pixels whose count
//! falls below `T = k_hyper · mean(count)` — the mean taken *per level*, as
//! the paper defines the threshold over one fmap of size `H·W` — are pruned
//! from block *k+1*: their value projection and memory traffic are skipped.

use crate::{BitMask, PruneError};
use defa_model::bilinear::Footprint;
use defa_model::reference::{walk_kept_points, KeptLanes, LaneVisitor, Stage4Visitor};
use defa_model::{MsdaConfig, SamplePoint};
use std::ops::Range;

/// FWP hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FwpConfig {
    /// Threshold multiplier `k` of Eq. 2. The paper tunes it to trade
    /// accuracy against sparsity (§3.1); `k = 1` (the value Figure 2
    /// illustrates) lands at the paper's ~43 % pixel reduction on the
    /// paper-scale synthetic workloads.
    pub k: f32,
}

impl FwpConfig {
    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::InvalidParameter`] for a negative or
    /// non-finite `k`.
    pub fn new(k: f32) -> Result<Self, PruneError> {
        if !k.is_finite() || k < 0.0 {
            return Err(PruneError::InvalidParameter(format!(
                "FWP k must be finite and non-negative, got {k}"
            )));
        }
        Ok(FwpConfig { k })
    }

    /// The paper's operating point (Eq. 2 with `k = 1`; ~43 % pixel
    /// reduction at paper scale).
    pub fn paper_default() -> Self {
        FwpConfig { k: 1.0 }
    }
}

impl Default for FwpConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Per-pixel sampled-frequency counters over the whole pyramid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleFrequency {
    counts: Vec<u32>,
    level_offsets: Vec<usize>,
    level_pixels: Vec<usize>,
}

impl SampleFrequency {
    /// Creates zeroed counters for a configuration.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn new(cfg: &MsdaConfig) -> Result<Self, PruneError> {
        cfg.validate()?;
        let mut level_offsets = Vec::with_capacity(cfg.n_levels());
        let mut level_pixels = Vec::with_capacity(cfg.n_levels());
        for l in 0..cfg.n_levels() {
            level_offsets.push(cfg.level_offset(l)?);
            level_pixels.push(cfg.levels[l].pixels());
        }
        Ok(SampleFrequency { counts: vec![0; cfg.n_in()], level_offsets, level_pixels })
    }

    /// Records one bilinear sample: every in-bounds neighbor of the point is
    /// counted once, exactly as Figure 2 (right) illustrates.
    ///
    /// The per-point reference of [`record_all`](Self::record_all): one
    /// [`Footprint`] per call. A point naming a level `cfg` does not have
    /// is ignored.
    pub fn record(&mut self, cfg: &MsdaConfig, pt: SamplePoint) {
        let level = pt.level as usize;
        if level >= self.level_offsets.len() || level >= cfg.n_levels() {
            return;
        }
        let shape = cfg.levels[level];
        let base = self.level_offsets[level];
        let fp = Footprint::at(pt.x, pt.y);
        for n in fp.in_bounds(shape) {
            let idx = base + n.y as usize * shape.w + n.x as usize;
            self.counts[idx] += 1;
        }
    }

    /// Records every point in a slice (respecting an optional keep mask of
    /// the same length: pruned points never reach MSGS, so they are never
    /// counted), as stage 4's kept-slot walk with this counter as its one
    /// visitor. A kept point naming a level `cfg` does not have is ignored,
    /// as [`record`](Self::record) ignores it.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::ShapeMismatch`] if a mask is provided with a
    /// different length than `points`, or if `cfg` has another token count
    /// than the configuration the counters were made for.
    pub fn record_all(
        &mut self,
        cfg: &MsdaConfig,
        points: &[SamplePoint],
        keep: Option<&[bool]>,
    ) -> Result<(), PruneError> {
        if let Some(mask) = keep {
            if mask.len() != points.len() {
                return Err(PruneError::ShapeMismatch(format!(
                    "point mask length {} vs points {}",
                    mask.len(),
                    points.len()
                )));
            }
        }
        if cfg.n_in() != self.counts.len() {
            return Err(PruneError::ShapeMismatch(format!(
                "counters for {} tokens recording a {}-token configuration",
                self.counts.len(),
                cfg.n_in()
            )));
        }
        walk_kept_points(cfg, points, keep, self)?;
        Ok(())
    }

    /// Raw per-token counters.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Mean sampled frequency of one level.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::ShapeMismatch`] for an invalid level index.
    pub fn level_mean(&self, level: usize) -> Result<f64, PruneError> {
        let (off, px) = self.level_span(level)?;
        let sum: u64 = self.counts[off..off + px].iter().map(|&c| c as u64).sum();
        Ok(sum as f64 / px as f64)
    }

    fn level_span(&self, level: usize) -> Result<(usize, usize), PruneError> {
        if level >= self.level_offsets.len() {
            return Err(PruneError::ShapeMismatch(format!(
                "level {level} out of {}",
                self.level_offsets.len()
            )));
        }
        Ok((self.level_offsets[level], self.level_pixels[level]))
    }

    /// Builds the FWP fmap mask: per level, keep pixels whose count is at
    /// least `k · mean(count)` (Eq. 2).
    ///
    /// The mask covers all `N_in` tokens in pyramid order and is meant to be
    /// applied to the *next* MSDeformAttn block.
    ///
    /// # Errors
    ///
    /// Propagates invalid-parameter errors via [`FwpConfig`]; never fails
    /// for a well-formed `self`.
    pub fn fmap_mask(&self, cfg: FwpConfig) -> Result<BitMask, PruneError> {
        let mut bits = vec![true; self.counts.len()];
        for level in 0..self.level_offsets.len() {
            let (off, px) = self.level_span(level)?;
            let mean = self.level_mean(level)?;
            let threshold = cfg.k as f64 * mean;
            for (bit, &count) in bits[off..off + px].iter_mut().zip(&self.counts[off..off + px]) {
                *bit = count as f64 >= threshold;
            }
        }
        Ok(BitMask::from_bools(bits))
    }
}

/// One query range's FWP counters: one per token, plus one that every
/// neighbour outside its level lands on, so counting needs no branch.
#[derive(Debug)]
pub struct FwpCounts {
    counts: Vec<u32>,
}

impl LaneVisitor for FwpCounts {
    const READS_TOKENS: bool = true;

    #[inline]
    fn visit(&mut self, lanes: &KeptLanes) {
        for k in 0..4 {
            for &t in lanes.tokens(k) {
                self.counts[t as usize] += 1;
            }
        }
    }
}

/// The fmap mask generator's frequency counting as a stage-4 visitor:
/// `counts[token] += 1` for each in-bounds neighbour of each kept slot.
impl Stage4Visitor for SampleFrequency {
    type Part = FwpCounts;

    fn split(&mut self, ranges: &[Range<usize>]) -> Vec<FwpCounts> {
        ranges.iter().map(|_| FwpCounts { counts: vec![0; self.counts.len() + 1] }).collect()
    }

    fn join(&mut self, parts: Vec<FwpCounts>) {
        for part in parts {
            for (c, &p) in self.counts.iter_mut().zip(&part.counts) {
                *c += p;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defa_model::MsdaConfig;

    #[test]
    fn record_counts_all_four_neighbors_inside() {
        let cfg = MsdaConfig::tiny();
        let mut f = SampleFrequency::new(&cfg).unwrap();
        f.record(&cfg, SamplePoint::new(0, 2.5, 1.5));
        // Neighbors: (2,1), (3,1), (2,2), (3,2) on an 8-wide level.
        let expect = [8 + 2, 8 + 3, 2 * 8 + 2, 2 * 8 + 3];
        for idx in expect {
            assert_eq!(f.counts()[idx], 1, "idx {idx}");
        }
        assert_eq!(f.counts().iter().map(|&c| c as u64).sum::<u64>(), 4);
    }

    #[test]
    fn integer_point_counts_its_pixel_once_among_in_bounds() {
        let cfg = MsdaConfig::tiny();
        let mut f = SampleFrequency::new(&cfg).unwrap();
        // An exactly-integer point still enumerates 4 neighbors; 3 have zero
        // weight but the paper counts *accessed* neighbors, i.e. the BI
        // kernel touches them. We count in-bounds neighbors, weights aside.
        f.record(&cfg, SamplePoint::new(0, 3.0, 2.0));
        assert!(f.counts().iter().map(|&c| c as u64).sum::<u64>() >= 1);
    }

    #[test]
    fn out_of_level_points_are_ignored() {
        let cfg = MsdaConfig::tiny();
        let mut f = SampleFrequency::new(&cfg).unwrap();
        f.record(&cfg, SamplePoint::new(0, -10.0, -10.0));
        f.record(&cfg, SamplePoint::new(7, 0.0, 0.0)); // bogus level
        assert!(f.counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn mask_respects_per_level_threshold() {
        let cfg = MsdaConfig::tiny(); // level 0: 48 px, level 1: 12 px
        let mut f = SampleFrequency::new(&cfg).unwrap();
        // Hammer one pixel of level 0 ten times; touch one level-1 pixel once.
        for _ in 0..10 {
            f.record(&cfg, SamplePoint::new(0, 1.0, 1.0));
        }
        f.record(&cfg, SamplePoint::new(1, 1.0, 1.0));
        let mask = f.fmap_mask(FwpConfig::paper_default()).unwrap();
        // Level-0 mean is small; only pixels near (1,1) survive.
        let hot = cfg.levels[0].w + 1;
        assert!(mask.as_bools()[hot]);
        assert!(!mask.as_bools()[0]);
        // Level-1: the touched neighbors survive, untouched pixels do not.
        let l1 = cfg.level_offset(1).unwrap();
        let l1hot = l1 + cfg.levels[1].w + 1;
        assert!(mask.as_bools()[l1hot]);
        assert!(!mask.as_bools()[l1]);
    }

    #[test]
    fn k_zero_keeps_everything() {
        let cfg = MsdaConfig::tiny();
        let f = SampleFrequency::new(&cfg).unwrap();
        let mask = f.fmap_mask(FwpConfig::new(0.0).unwrap()).unwrap();
        assert_eq!(mask.kept(), cfg.n_in());
    }

    #[test]
    fn untouched_level_with_k_positive_keeps_all() {
        // mean = 0 -> threshold = 0 -> every count >= 0 survives. A level
        // nobody samples must not be wiped out.
        let cfg = MsdaConfig::tiny();
        let f = SampleFrequency::new(&cfg).unwrap();
        let mask = f.fmap_mask(FwpConfig::new(1.0).unwrap()).unwrap();
        assert_eq!(mask.kept(), cfg.n_in());
    }

    #[test]
    fn record_all_honors_point_mask() {
        let cfg = MsdaConfig::tiny();
        let mut f = SampleFrequency::new(&cfg).unwrap();
        let pts = vec![SamplePoint::new(0, 1.0, 1.0), SamplePoint::new(0, 4.0, 4.0)];
        f.record_all(&cfg, &pts, Some(&[true, false])).unwrap();
        let idx_kept = cfg.levels[0].w + 1;
        let idx_dropped = 4 * cfg.levels[0].w + 4;
        assert!(f.counts()[idx_kept] > 0);
        assert_eq!(f.counts()[idx_dropped], 0);
    }

    #[test]
    fn record_all_validates_mask_length() {
        let cfg = MsdaConfig::tiny();
        let mut f = SampleFrequency::new(&cfg).unwrap();
        let pts = vec![SamplePoint::new(0, 1.0, 1.0)];
        assert!(f.record_all(&cfg, &pts, Some(&[true, false])).is_err());
    }

    #[test]
    fn config_rejects_bad_k() {
        assert!(FwpConfig::new(-1.0).is_err());
        assert!(FwpConfig::new(f32::NAN).is_err());
        assert!(FwpConfig::new(1.5).is_ok());
    }
}
