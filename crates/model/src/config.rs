//! MSDeformAttn shape configuration for the paper's benchmarks.

use crate::ModelError;

/// Most pyramid levels a valid configuration has: the hardware model
/// supports at most 8.
pub(crate) const MAX_LEVELS: usize = 8;

/// Largest level height or width: 2²² pixels keeps every pixel coordinate,
/// its neighbours and a fractional part exact in `f32`.
pub(crate) const MAX_EXTENT: usize = 1 << 22;

/// Height × width of one feature-map pyramid level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LevelShape {
    /// Height in pixels.
    pub h: usize,
    /// Width in pixels.
    pub w: usize,
}

impl LevelShape {
    /// Creates a level shape.
    pub fn new(h: usize, w: usize) -> Self {
        LevelShape { h, w }
    }

    /// Number of pixels in the level.
    pub fn pixels(&self) -> usize {
        self.h * self.w
    }
}

/// Shape parameters of one MSDeformAttn encoder stack.
///
/// The three DAC-24 benchmarks (Deformable DETR, DN-DETR, DINO) share the
/// encoder shapes of the official Deformable DETR implementation: a 4-level
/// pyramid from backbone strides 8/16/32/64, `D = 256`, 8 heads, 4 sampling
/// points per level, 6 encoder layers.
///
/// # Example
///
/// ```
/// use defa_model::MsdaConfig;
///
/// let cfg = MsdaConfig::full();
/// assert_eq!(cfg.levels.len(), 4);
/// assert_eq!(cfg.n_in(), 100 * 134 + 50 * 67 + 25 * 34 + 13 * 17);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsdaConfig {
    /// Pyramid level shapes, finest first.
    pub levels: Vec<LevelShape>,
    /// Hidden dimension of pixel vectors (`D_in` in the paper).
    pub d_model: usize,
    /// Number of attention heads (`N_h`).
    pub n_heads: usize,
    /// Sampling points per level per head (`N_p`).
    pub n_points: usize,
    /// Number of MSDeformAttn encoder layers.
    pub n_layers: usize,
}

impl MsdaConfig {
    /// Full-size encoder configuration used for the paper-scale experiments
    /// (~800×1066 input image, strides 8/16/32/64).
    pub fn full() -> Self {
        MsdaConfig {
            levels: vec![
                LevelShape::new(100, 134),
                LevelShape::new(50, 67),
                LevelShape::new(25, 34),
                LevelShape::new(13, 17),
            ],
            d_model: 256,
            n_heads: 8,
            n_points: 4,
            n_layers: 6,
        }
    }

    /// Reduced configuration for fast benches and integration tests: same
    /// 4-level structure and head/point counts, ~1/40 the tokens.
    pub fn small() -> Self {
        MsdaConfig {
            levels: vec![
                LevelShape::new(24, 32),
                LevelShape::new(12, 16),
                LevelShape::new(6, 8),
                LevelShape::new(3, 4),
            ],
            d_model: 64,
            n_heads: 8,
            n_points: 4,
            n_layers: 3,
        }
    }

    /// Minimal configuration for unit tests.
    pub fn tiny() -> Self {
        MsdaConfig {
            levels: vec![LevelShape::new(6, 8), LevelShape::new(3, 4)],
            d_model: 16,
            n_heads: 2,
            n_points: 2,
            n_layers: 2,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] if any extent is zero, if
    /// `d_model` is not divisible by `n_heads`, if more than 8 pyramid
    /// levels are requested (the hardware model supports at most 8), if a
    /// level is more than 2²² pixels high or wide, or if the levels hold
    /// 2³¹ or more tokens.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.levels.is_empty() || self.levels.len() > MAX_LEVELS {
            return Err(ModelError::InvalidConfig(format!(
                "level count must be 1..=8, got {}",
                self.levels.len()
            )));
        }
        if self.levels.iter().any(|l| l.h == 0 || l.w == 0) {
            return Err(ModelError::InvalidConfig("level with zero extent".into()));
        }
        // The aggregation kernel tests bounds on `f32` pixel coordinates
        // and indexes tokens in 32-bit lanes.
        if self.levels.iter().any(|l| l.h > MAX_EXTENT || l.w > MAX_EXTENT) {
            return Err(ModelError::InvalidConfig(format!("level extent above {MAX_EXTENT}")));
        }
        let tokens = self
            .levels
            .iter()
            .try_fold(0usize, |acc, l| l.h.checked_mul(l.w).and_then(|p| acc.checked_add(p)));
        if tokens.is_none_or(|t| t > i32::MAX as usize) {
            return Err(ModelError::InvalidConfig("2^31 or more tokens".into()));
        }
        if self.d_model == 0 || self.n_heads == 0 || self.n_points == 0 || self.n_layers == 0 {
            return Err(ModelError::InvalidConfig("zero-sized dimension".into()));
        }
        if !self.d_model.is_multiple_of(self.n_heads) {
            return Err(ModelError::InvalidConfig(format!(
                "d_model {} not divisible by n_heads {}",
                self.d_model, self.n_heads
            )));
        }
        Ok(())
    }

    /// Number of pyramid levels (`N_l`).
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Total number of flattened tokens, `N_in = Σ H_l·W_l`.
    pub fn n_in(&self) -> usize {
        self.levels.iter().map(LevelShape::pixels).sum()
    }

    /// Per-head channel count, `D_h = D / N_h`.
    pub fn head_dim(&self) -> usize {
        self.d_model / self.n_heads
    }

    /// Sampling points per query per head, `N_l·N_p`.
    pub fn points_per_head(&self) -> usize {
        self.n_levels() * self.n_points
    }

    /// Sampling points per query across all heads, `N_h·N_l·N_p`.
    pub fn points_per_query(&self) -> usize {
        self.n_heads * self.points_per_head()
    }

    /// Total sampling points in one layer, `N_in·N_h·N_l·N_p`.
    pub fn total_points(&self) -> u64 {
        self.n_in() as u64 * self.points_per_query() as u64
    }

    /// Flat token offset of the first pixel of level `l`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::IndexOutOfRange`] if `l` is not a valid level.
    pub fn level_offset(&self, l: usize) -> Result<usize, ModelError> {
        if l >= self.levels.len() {
            return Err(ModelError::IndexOutOfRange {
                what: "level",
                index: l,
                len: self.levels.len(),
            });
        }
        Ok(self.levels[..l].iter().map(LevelShape::pixels).sum())
    }

    /// Maps a flat token index to `(level, y, x)`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::IndexOutOfRange`] if `token >= n_in()`.
    pub fn token_coords(&self, token: usize) -> Result<(usize, usize, usize), ModelError> {
        let mut base = 0;
        for (l, shape) in self.levels.iter().enumerate() {
            if token < base + shape.pixels() {
                let local = token - base;
                return Ok((l, local / shape.w, local % shape.w));
            }
            base += shape.pixels();
        }
        Err(ModelError::IndexOutOfRange { what: "token", index: token, len: self.n_in() })
    }

    /// Ratio of multi-scale pixels to the finest single-scale level.
    ///
    /// The paper quotes ~21.3× more pixels for multi-scale fmaps than the
    /// single-scale fmaps of DeformConv (which uses the stride-32 level);
    /// this helper reproduces that workload-amplification metric.
    pub fn multiscale_amplification(&self) -> f64 {
        let coarsest = self.levels[self.levels.len() - 1].pixels().max(1);
        self.n_in() as f64 / coarsest as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_config_matches_paper_shapes() {
        let cfg = MsdaConfig::full();
        cfg.validate().unwrap();
        assert_eq!(cfg.n_in(), 13400 + 3350 + 850 + 221);
        assert_eq!(cfg.head_dim(), 32);
        assert_eq!(cfg.points_per_query(), 8 * 4 * 4);
    }

    #[test]
    fn level_offsets_accumulate() {
        let cfg = MsdaConfig::tiny();
        assert_eq!(cfg.level_offset(0).unwrap(), 0);
        assert_eq!(cfg.level_offset(1).unwrap(), 48);
        assert!(cfg.level_offset(2).is_err());
    }

    #[test]
    fn token_coords_round_trip() {
        let cfg = MsdaConfig::tiny();
        // token 0 -> level 0 (0,0); token 47 -> level 0 (5,7); token 48 -> level 1 (0,0)
        assert_eq!(cfg.token_coords(0).unwrap(), (0, 0, 0));
        assert_eq!(cfg.token_coords(47).unwrap(), (0, 5, 7));
        assert_eq!(cfg.token_coords(48).unwrap(), (1, 0, 0));
        assert_eq!(cfg.token_coords(59).unwrap(), (1, 2, 3));
        assert!(cfg.token_coords(60).is_err());
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut cfg = MsdaConfig::tiny();
        cfg.d_model = 15; // not divisible by 2 heads
        assert!(cfg.validate().is_err());

        let mut cfg = MsdaConfig::tiny();
        cfg.levels.clear();
        assert!(cfg.validate().is_err());

        let mut cfg = MsdaConfig::tiny();
        cfg.levels[0] = LevelShape::new(0, 4);
        assert!(cfg.validate().is_err());

        let mut cfg = MsdaConfig::tiny();
        cfg.n_points = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = MsdaConfig::tiny();
        cfg.levels[1] = LevelShape::new(1 << 22, 1 << 22);
        assert!(cfg.validate().is_err());
        cfg.levels[1] = LevelShape::new(2, (1 << 22) + 1);
        assert!(cfg.validate().is_err());
        cfg.levels[1] = LevelShape::new(1 << 22, 4);
        cfg.validate().unwrap();
    }

    #[test]
    fn multiscale_amplification_is_large_for_full() {
        let cfg = MsdaConfig::full();
        let amp = cfg.multiscale_amplification();
        // Paper quotes 21.3x for their pyramid; ours lands in the same range.
        assert!(amp > 15.0 && amp < 100.0, "amp={amp}");
    }

    #[test]
    fn total_points_scale_with_tokens() {
        let cfg = MsdaConfig::tiny();
        assert_eq!(cfg.total_points(), (cfg.n_in() * 2 * 2 * 2) as u64);
    }
}
