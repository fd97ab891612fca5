//! Reduction-ratio accounting (the quantities behind Fig. 6(b)).

use defa_model::flops::BlockFlops;

/// Accumulated pruning statistics over one or more encoder blocks.
///
/// Tracks the three quantities Fig. 6(b) reports — sampling-point
/// reduction, fmap-pixel reduction and FLOP reduction — plus auxiliary
/// counters (range clamps, retained probability mass).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReductionStats {
    /// Total sampling points considered by PAP.
    pub points_total: u64,
    /// Sampling points surviving PAP.
    pub points_kept: u64,
    /// Total fmap pixels considered by FWP (blocks that receive a mask).
    pub pixels_total: u64,
    /// Fmap pixels surviving FWP.
    pub pixels_kept: u64,
    /// Dense FLOPs of the attention modules (no pruning).
    pub flops_dense: u64,
    /// FLOPs actually executed after pruning.
    pub flops_pruned: u64,
    /// Kept sampling points moved by level-wise range narrowing — the
    /// points the datapath samples; pruned points are never clamped.
    pub clamped_points: u64,
    /// Sum of per-block retained probability mass (divide by `blocks`).
    pub retained_mass_sum: f64,
    /// Number of blocks accumulated.
    pub blocks: u32,
}

impl ReductionStats {
    /// Fresh, empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one block's pruning outcome.
    ///
    /// `point_keep`/`pixel_keep` are the per-block keep fractions used for
    /// the FLOP model; `fmap_masked` says whether FWP actually applied a
    /// mask to this block (block 0 never receives one).
    #[allow(clippy::too_many_arguments)]
    pub fn record_block(
        &mut self,
        flops: &BlockFlops,
        points_total: u64,
        points_kept: u64,
        pixels_total: u64,
        pixels_kept: u64,
        fmap_masked: bool,
        clamped: u64,
        retained_mass: f64,
    ) {
        self.points_total += points_total;
        self.points_kept += points_kept;
        if fmap_masked {
            self.pixels_total += pixels_total;
            self.pixels_kept += pixels_kept;
        }
        let point_keep =
            if points_total == 0 { 1.0 } else { points_kept as f64 / points_total as f64 };
        let pixel_keep = if !fmap_masked || pixels_total == 0 {
            1.0
        } else {
            pixels_kept as f64 / pixels_total as f64
        };
        self.flops_dense += flops.attention_only();
        self.flops_pruned += flops.pruned(point_keep, pixel_keep).attention_only();
        self.clamped_points += clamped;
        self.retained_mass_sum += retained_mass;
        self.blocks += 1;
    }

    /// Fraction of sampling points kept.
    pub fn point_keep_fraction(&self) -> f64 {
        if self.points_total == 0 {
            1.0
        } else {
            self.points_kept as f64 / self.points_total as f64
        }
    }

    /// Fraction of sampling points removed (Fig. 6(b): 82–86 %).
    pub fn point_reduction(&self) -> f64 {
        1.0 - self.point_keep_fraction()
    }

    /// Fraction of fmap pixels kept (over blocks that received a mask).
    pub fn pixel_keep_fraction(&self) -> f64 {
        if self.pixels_total == 0 {
            1.0
        } else {
            self.pixels_kept as f64 / self.pixels_total as f64
        }
    }

    /// Fraction of fmap pixels removed (Fig. 6(b): 42–44 %).
    pub fn pixel_reduction(&self) -> f64 {
        1.0 - self.pixel_keep_fraction()
    }

    /// Fraction of attention-module FLOPs removed (Fig. 6(b): 52–53 %).
    pub fn flop_reduction(&self) -> f64 {
        if self.flops_dense == 0 {
            0.0
        } else {
            1.0 - self.flops_pruned as f64 / self.flops_dense as f64
        }
    }

    /// Mean retained probability mass per block.
    pub fn mean_retained_mass(&self) -> f64 {
        if self.blocks == 0 {
            1.0
        } else {
            self.retained_mass_sum / self.blocks as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defa_model::MsdaConfig;

    fn flops() -> BlockFlops {
        BlockFlops::for_config(&MsdaConfig::small())
    }

    #[test]
    fn empty_stats_report_no_reduction() {
        let s = ReductionStats::new();
        assert_eq!(s.point_reduction(), 0.0);
        assert_eq!(s.pixel_reduction(), 0.0);
        assert_eq!(s.flop_reduction(), 0.0);
        assert_eq!(s.mean_retained_mass(), 1.0);
    }

    #[test]
    fn record_accumulates_fractions() {
        let mut s = ReductionStats::new();
        s.record_block(&flops(), 100, 20, 50, 30, true, 5, 0.95);
        s.record_block(&flops(), 100, 10, 50, 25, true, 7, 0.90);
        assert!((s.point_keep_fraction() - 0.15).abs() < 1e-9);
        assert!((s.pixel_keep_fraction() - 0.55).abs() < 1e-9);
        assert_eq!(s.clamped_points, 12);
        assert!((s.mean_retained_mass() - 0.925).abs() < 1e-9);
        assert!(s.flop_reduction() > 0.0);
    }

    #[test]
    fn unmasked_block_does_not_count_pixels() {
        let mut s = ReductionStats::new();
        s.record_block(&flops(), 100, 100, 50, 50, false, 0, 1.0);
        assert_eq!(s.pixels_total, 0);
        assert_eq!(s.pixel_reduction(), 0.0);
    }

    #[test]
    fn paper_operating_point_reduces_flops_by_half() {
        let mut s = ReductionStats::new();
        // 84 % of points and 43 % of pixels pruned, as in Fig. 6(b).
        s.record_block(&flops(), 1000, 160, 1000, 570, true, 0, 0.95);
        let red = s.flop_reduction();
        assert!(red > 0.45 && red < 0.65, "flop reduction {red}");
    }
}
