//! Level-wise range narrowing (§4.1, Figure 4).
//!
//! Sampling offsets are dynamically generated and unbounded, which would
//! force the accelerator to keep whole fmap levels on chip. DEFA bounds the
//! offsets to a per-level window around the reference point. Because coarse
//! levels tolerate tighter windows without accuracy loss, per-level bounds
//! beat one unified bound by ~25 % of SRAM storage.

use crate::PruneError;
use defa_model::sampling::RefPoint;
use defa_model::{MsdaConfig, SamplePoint};

/// Half-extents of one level's bounded sampling range, in pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoundedRange {
    /// Horizontal half-extent.
    pub half_w: u32,
    /// Vertical half-extent.
    pub half_h: u32,
}

impl BoundedRange {
    /// Creates a bounded range.
    pub fn new(half_w: u32, half_h: u32) -> Self {
        BoundedRange { half_w, half_h }
    }

    /// Pixels covered by the range window, counting the extra row/column of
    /// bilinear neighbors at the window's far edge.
    pub fn window_pixels(&self) -> u64 {
        (2 * self.half_w as u64 + 2) * (2 * self.half_h as u64 + 2)
    }
}

/// Per-level bounded ranges for a pyramid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeConfig {
    ranges: Vec<BoundedRange>,
}

impl RangeConfig {
    /// Creates a configuration from explicit per-level ranges.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::InvalidParameter`] if `ranges` is empty.
    pub fn new(ranges: Vec<BoundedRange>) -> Result<Self, PruneError> {
        if ranges.is_empty() {
            return Err(PruneError::InvalidParameter("no bounded ranges given".into()));
        }
        Ok(RangeConfig { ranges })
    }

    /// The paper-style defaults for a configuration: the finest level gets
    /// the widest window and coarser levels progressively tighter ones
    /// (their content is blurrier, so tight bounds cost no accuracy).
    pub fn paper_defaults(cfg: &MsdaConfig) -> Self {
        let base: [u32; 8] = [8, 5, 3, 2, 2, 2, 2, 2];
        let ranges = (0..cfg.n_levels())
            .map(|l| {
                let r = base[l.min(7)];
                let shape = cfg.levels[l];
                // Never wider than the level itself.
                BoundedRange::new(
                    r.min(shape.w as u32 / 2).max(1),
                    r.min(shape.h as u32 / 2).max(1),
                )
            })
            .collect();
        RangeConfig { ranges }
    }

    /// A unified configuration that applies the *widest* level range
    /// everywhere — the strawman of Figure 4 (left).
    pub fn unified(&self) -> Self {
        let max = self
            .ranges
            .iter()
            .copied()
            .max_by_key(BoundedRange::window_pixels)
            .expect("ranges are non-empty by construction");
        RangeConfig { ranges: vec![max; self.ranges.len()] }
    }

    /// Per-level ranges.
    pub fn ranges(&self) -> &[BoundedRange] {
        &self.ranges
    }

    /// Range of level `l`.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::ShapeMismatch`] for an invalid level.
    pub fn level(&self, l: usize) -> Result<BoundedRange, PruneError> {
        self.ranges.get(l).copied().ok_or_else(|| {
            PruneError::ShapeMismatch(format!("level {l} out of {}", self.ranges.len()))
        })
    }

    /// Each level's window half-extents `[half_w, half_h]` in `cfg`'s level
    /// order — what [`defa_model::reference::generate_kept_locations`]
    /// clamps kept points to.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::ShapeMismatch`] if fewer ranges are configured
    /// than `cfg` has levels.
    pub fn half_extents(&self, cfg: &MsdaConfig) -> Result<Vec<[u32; 2]>, PruneError> {
        (0..cfg.n_levels()).map(|l| self.level(l).map(|r| [r.half_w, r.half_h])).collect()
    }

    /// Clamps one sampling point into its level's bounded range around a
    /// reference point, returning the clamped point and whether clamping
    /// moved it.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::ShapeMismatch`] if the point's level has no
    /// configured range.
    pub fn clamp(
        &self,
        cfg: &MsdaConfig,
        reference: RefPoint,
        pt: SamplePoint,
    ) -> Result<(SamplePoint, bool), PruneError> {
        let range = self.level(pt.level as usize)?;
        let shape = cfg.levels[pt.level as usize];
        let (cx, cy) = reference.to_level(shape);
        let x = pt.x.clamp(cx - range.half_w as f32, cx + range.half_w as f32);
        let y = pt.y.clamp(cy - range.half_h as f32, cy + range.half_h as f32);
        let moved = x != pt.x || y != pt.y;
        Ok((SamplePoint { level: pt.level, x, y }, moved))
    }

    /// On-chip pixel-vector slots needed to hold every level's bounded rows
    /// simultaneously.
    ///
    /// The fmap-reuse scheme (Figure 4 right) slides the reference point in
    /// row-major order, so each level keeps a *row buffer* of
    /// `(2·half_h + 2)` full-width rows resident (`+2` covers the bilinear
    /// neighbor row); horizontal reuse then comes for free.
    pub fn storage_pixels(&self, cfg: &MsdaConfig) -> u64 {
        self.ranges
            .iter()
            .zip(&cfg.levels)
            .map(|(r, shape)| {
                let rows = (2 * r.half_h as u64 + 2).min(shape.h as u64);
                rows * shape.w as u64
            })
            .sum()
    }

    /// Storage overhead of the unified strawman relative to level-wise
    /// ranges, as a fraction (e.g. `0.25` = 25 % extra, the paper's figure).
    pub fn unified_overhead(&self, cfg: &MsdaConfig) -> f64 {
        let unified = self.unified().storage_pixels(cfg);
        let ours = self.storage_pixels(cfg);
        unified as f64 / ours as f64 - 1.0
    }
}

/// Applies range clamping to a whole location table, in place, returning
/// how many points were moved.
///
/// This is the all-slot reference: the pruned pipeline clamps kept points
/// only, inside [`defa_model::reference::generate_kept_locations`], and
/// tests and the staged benchmark replay call this to check and time it.
///
/// `references` must hold one reference point per query and `locations`
/// exactly `n_in · points_per_query` entries in layer order.
///
/// # Errors
///
/// Returns [`PruneError::ShapeMismatch`] on any length disagreement.
pub fn clamp_locations(
    cfg: &MsdaConfig,
    ranges: &RangeConfig,
    references: &[RefPoint],
    locations: &mut [SamplePoint],
) -> Result<u64, PruneError> {
    let ppq = cfg.points_per_query();
    if references.len() != cfg.n_in() {
        return Err(PruneError::ShapeMismatch(format!(
            "{} references for {} queries",
            references.len(),
            cfg.n_in()
        )));
    }
    if locations.len() != cfg.n_in() * ppq {
        return Err(PruneError::ShapeMismatch(format!(
            "{} locations for {} expected",
            locations.len(),
            cfg.n_in() * ppq
        )));
    }
    // Each (query, level) window is computed once, with the same f32
    // expressions as `RangeConfig::clamp`, so every point clamps to the
    // same bits.
    let levels = cfg.n_levels().min(ranges.ranges.len());
    let mut windows = vec![[0f32; 4]; levels];
    let mut moved = 0u64;
    for (reference, qlocs) in references.iter().zip(locations.chunks_mut(ppq)) {
        for ((window, range), &shape) in windows.iter_mut().zip(&ranges.ranges).zip(&cfg.levels) {
            let (cx, cy) = reference.to_level(shape);
            *window = [
                cx - range.half_w as f32,
                cx + range.half_w as f32,
                cy - range.half_h as f32,
                cy + range.half_h as f32,
            ];
        }
        for loc in qlocs {
            let Some(&[x0, x1, y0, y1]) = windows.get(loc.level as usize) else {
                // No configured range (or no such level): the per-point
                // clamp's error.
                ranges.level(loc.level as usize)?;
                return Err(PruneError::ShapeMismatch(format!(
                    "level {} out of {}",
                    loc.level,
                    cfg.n_levels()
                )));
            };
            let x = loc.x.clamp(x0, x1);
            let y = loc.y.clamp(y0, y1);
            moved += u64::from(x != loc.x || y != loc.y);
            loc.x = x;
            loc.y = y;
        }
    }
    Ok(moved)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_pixels_includes_bilinear_margin() {
        // half extents 2 -> window spans 2*2+1 = 5 centers, +1 neighbor = 6.
        assert_eq!(BoundedRange::new(2, 2).window_pixels(), 36);
        assert_eq!(BoundedRange::new(1, 3).window_pixels(), 4 * 8);
    }

    #[test]
    fn paper_defaults_tighten_with_depth() {
        let cfg = MsdaConfig::full();
        let rc = RangeConfig::paper_defaults(&cfg);
        let px: Vec<u64> = rc.ranges().iter().map(BoundedRange::window_pixels).collect();
        for w in px.windows(2) {
            assert!(w[0] >= w[1], "ranges must not grow with depth: {px:?}");
        }
    }

    #[test]
    fn unified_overhead_is_roughly_a_quarter() {
        // §4.1: "Applying unified restriction on all levels ... causes an
        // extra 25% storage requirement."
        let cfg = MsdaConfig::full();
        let rc = RangeConfig::paper_defaults(&cfg);
        let overhead = rc.unified_overhead(&cfg);
        assert!(overhead > 0.15 && overhead < 0.40, "overhead {overhead}");
    }

    #[test]
    fn clamp_moves_outliers_only() {
        let cfg = MsdaConfig::tiny();
        let rc = RangeConfig::new(vec![BoundedRange::new(2, 2), BoundedRange::new(1, 1)]).unwrap();
        let reference = RefPoint { x: 0.5, y: 0.5 }; // level 0 center (3.5, 2.5)
        let inside = SamplePoint::new(0, 4.0, 2.0);
        let (pt, moved) = rc.clamp(&cfg, reference, inside).unwrap();
        assert!(!moved);
        assert_eq!(pt, inside);
        let outside = SamplePoint::new(0, 7.9, 2.0);
        let (pt, moved) = rc.clamp(&cfg, reference, outside).unwrap();
        assert!(moved);
        assert!((pt.x - 5.5).abs() < 1e-6);
    }

    #[test]
    fn clamp_locations_counts_moves() {
        let cfg = MsdaConfig::tiny();
        let rc = RangeConfig::paper_defaults(&cfg);
        let refs = defa_model::sampling::reference_points(&cfg).unwrap();
        let ppq = cfg.points_per_query();
        // All points far outside: every one must be clamped.
        let mut locs = vec![SamplePoint::new(0, 1000.0, 1000.0); cfg.n_in() * ppq];
        let moved = clamp_locations(&cfg, &rc, &refs, &mut locs).unwrap();
        assert_eq!(moved, (cfg.n_in() * ppq) as u64);
    }

    #[test]
    fn clamp_locations_validates_lengths() {
        let cfg = MsdaConfig::tiny();
        let rc = RangeConfig::paper_defaults(&cfg);
        let refs = defa_model::sampling::reference_points(&cfg).unwrap();
        let mut locs = vec![SamplePoint::new(0, 0.0, 0.0); 3];
        assert!(clamp_locations(&cfg, &rc, &refs, &mut locs).is_err());
    }

    #[test]
    fn missing_level_range_is_an_error() {
        let cfg = MsdaConfig::tiny();
        let rc = RangeConfig::new(vec![BoundedRange::new(2, 2)]).unwrap(); // only level 0
        let reference = RefPoint { x: 0.5, y: 0.5 };
        assert!(rc.clamp(&cfg, reference, SamplePoint::new(1, 0.0, 0.0)).is_err());
    }

    #[test]
    fn empty_config_is_rejected() {
        assert!(RangeConfig::new(vec![]).is_err());
    }

    #[test]
    fn ranges_never_exceed_level_extent() {
        let cfg = MsdaConfig::tiny(); // coarsest level is 3x4
        let rc = RangeConfig::paper_defaults(&cfg);
        for (l, r) in rc.ranges().iter().enumerate() {
            assert!(r.half_w as usize <= cfg.levels[l].w);
            assert!(r.half_h as usize <= cfg.levels[l].h);
        }
    }
}
