//! Reference points and sampling-location generation.
//!
//! Each encoder query corresponds to one pixel of the pyramid. Its
//! *reference point* is the normalized center of that pixel, re-projected
//! into every level; the learned offsets `ΔP = Q·Wˢ` (in pixels of the
//! target level) displace it to produce the actual sampling locations.

use crate::{LevelShape, ModelError, MsdaConfig};

/// A continuous sampling location in the pixel space of one pyramid level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplePoint {
    /// Pyramid level index the point samples from.
    pub level: u8,
    /// Column coordinate in that level's pixel space.
    pub x: f32,
    /// Row coordinate in that level's pixel space.
    pub y: f32,
}

impl SamplePoint {
    /// Creates a sample point.
    pub fn new(level: u8, x: f32, y: f32) -> Self {
        SamplePoint { level, x, y }
    }
}

/// Normalized `(x, y)` reference point in `[0, 1]²` of one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefPoint {
    /// Normalized column in `[0, 1]`.
    pub x: f32,
    /// Normalized row in `[0, 1]`.
    pub y: f32,
}

impl RefPoint {
    /// Projects the normalized point into a level's pixel space (continuous
    /// coordinates where pixel centers sit at integer positions).
    pub fn to_level(self, shape: LevelShape) -> (f32, f32) {
        (self.x * shape.w as f32 - 0.5, self.y * shape.h as f32 - 0.5)
    }
}

/// Computes the normalized reference point of every query in token order.
///
/// Query `i` lives at pixel `(y, x)` of level `l`; its reference point is
/// the pixel center `((x + 0.5)/W_l, (y + 0.5)/H_l)`.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] if `cfg` fails validation.
pub fn reference_points(cfg: &MsdaConfig) -> Result<Vec<RefPoint>, ModelError> {
    cfg.validate()?;
    let mut pts = Vec::with_capacity(cfg.n_in());
    for shape in &cfg.levels {
        for y in 0..shape.h {
            for x in 0..shape.w {
                pts.push(RefPoint {
                    x: (x as f32 + 0.5) / shape.w as f32,
                    y: (y as f32 + 0.5) / shape.h as f32,
                });
            }
        }
    }
    Ok(pts)
}

/// Flat index of the `(head, level, point)` slot within one query's
/// sampling-point table.
///
/// All per-point tensors in this workspace (logits, probabilities, offsets,
/// locations, masks) use this `((h·N_l) + l)·N_p + p` ordering.
pub fn point_slot(cfg: &MsdaConfig, head: usize, level: usize, point: usize) -> usize {
    (head * cfg.n_levels() + level) * cfg.n_points + point
}

/// Builds the sampling locations for one query from its offset row,
/// writing its `points_per_query` locations into `out` in [`point_slot`]
/// order.
///
/// `offsets` holds `2·N_h·N_l·N_p` values ordered as
/// `[slot][dx, dy]` with [`point_slot`] slot ordering; offsets are expressed
/// in pixels of the target level, as in the official implementation after
/// multiplying by the offset normalizer. Callers fill one location table
/// per block, one disjoint `out` window per query, so the per-query
/// generation is allocation-free.
pub fn query_sample_points_into(
    cfg: &MsdaConfig,
    reference: RefPoint,
    offsets: &[f32],
    out: &mut [SamplePoint],
) {
    debug_assert_eq!(offsets.len(), 2 * cfg.points_per_query());
    debug_assert_eq!(out.len(), cfg.points_per_query());
    for h in 0..cfg.n_heads {
        for (l, &shape) in cfg.levels.iter().enumerate() {
            let (cx, cy) = reference.to_level(shape);
            for p in 0..cfg.n_points {
                let slot = point_slot(cfg, h, l, p);
                let dx = offsets[2 * slot];
                let dy = offsets[2 * slot + 1];
                out[slot] = SamplePoint::new(l as u8, cx + dx, cy + dy);
            }
        }
    }
}

/// Calls `f(i)` for every `i` with `keep[i]` set, in increasing order.
///
/// The mask is compacted 64 entries at a time into a bit word without
/// branching, and only set bits are visited, so the cost follows the kept
/// count instead of the mask length and no branch depends on the (random)
/// mask pattern.
#[inline]
pub fn for_each_kept(keep: &[bool], mut f: impl FnMut(usize)) {
    for (c, chunk) in keep.chunks(64).enumerate() {
        let mut bits = pack_keep(chunk);
        while bits != 0 {
            f(c * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Packs up to 64 keep flags into a word, flag `i` at bit `i`, without
/// branching.
#[inline]
pub(crate) fn pack_keep(chunk: &[bool]) -> u64 {
    debug_assert!(chunk.len() <= 64);
    // Eight 0/1 bytes gather into one byte: the multiplier's shifted
    // copies move byte `b` to bit `56 + b` with no carries.
    let pack = |bytes: [u8; 8]| u64::from_le_bytes(bytes).wrapping_mul(0x0102_0408_1020_4080) >> 56;
    let octets = chunk.chunks_exact(8);
    let tail = octets.remainder();
    let mut bits = 0u64;
    for (j, oct) in octets.enumerate() {
        bits |= pack(std::array::from_fn(|b| u8::from(oct[b]))) << (8 * j);
    }
    if !tail.is_empty() {
        let mut bytes = [0u8; 8];
        for (byte, &k) in bytes.iter_mut().zip(tail) {
            *byte = u8::from(k);
        }
        bits |= pack(bytes) << (chunk.len() - tail.len());
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query_sample_points(cfg: &MsdaConfig, r: RefPoint, offsets: &[f32]) -> Vec<SamplePoint> {
        let mut out = vec![SamplePoint::new(0, 0.0, 0.0); cfg.points_per_query()];
        query_sample_points_into(cfg, r, offsets, &mut out);
        out
    }

    #[test]
    fn for_each_kept_visits_set_entries_in_order() {
        let keep: Vec<bool> = (0..200).map(|i| i % 3 == 0 || i == 127 || i == 199).collect();
        let mut seen = Vec::new();
        for_each_kept(&keep, |i| seen.push(i));
        let expect: Vec<usize> = (0..200).filter(|&i| keep[i]).collect();
        assert_eq!(seen, expect);
        for_each_kept(&[], |_| unreachable!());
    }

    #[test]
    fn reference_points_are_pixel_centers() {
        let cfg = MsdaConfig::tiny();
        let pts = reference_points(&cfg).unwrap();
        assert_eq!(pts.len(), cfg.n_in());
        // First query: level 0 pixel (0,0) of a 6x8 level.
        assert!((pts[0].x - 0.5 / 8.0).abs() < 1e-6);
        assert!((pts[0].y - 0.5 / 6.0).abs() < 1e-6);
        // Query at level-1 pixel (2,3) of a 3x4 level.
        let idx = cfg.level_offset(1).unwrap() + 2 * 4 + 3;
        assert!((pts[idx].x - 3.5 / 4.0).abs() < 1e-6);
        assert!((pts[idx].y - 2.5 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn to_level_maps_center_to_middle_pixel() {
        let r = RefPoint { x: 0.5, y: 0.5 };
        let (x, y) = r.to_level(LevelShape::new(4, 8));
        assert!((x - 3.5).abs() < 1e-6);
        assert!((y - 1.5).abs() < 1e-6);
    }

    #[test]
    fn point_slot_is_dense_and_ordered() {
        let cfg = MsdaConfig::tiny(); // 2 heads, 2 levels, 2 points
        let mut seen = vec![false; cfg.points_per_query()];
        for h in 0..2 {
            for l in 0..2 {
                for p in 0..2 {
                    let s = point_slot(&cfg, h, l, p);
                    assert!(!seen[s]);
                    seen[s] = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
        assert_eq!(point_slot(&cfg, 0, 0, 0), 0);
        assert_eq!(point_slot(&cfg, 0, 0, 1), 1);
        assert_eq!(point_slot(&cfg, 0, 1, 0), 2);
        assert_eq!(point_slot(&cfg, 1, 0, 0), 4);
    }

    #[test]
    fn zero_offsets_sample_at_reference() {
        let cfg = MsdaConfig::tiny();
        let r = RefPoint { x: 0.5, y: 0.5 };
        let offsets = vec![0.0; 2 * cfg.points_per_query()];
        let pts = query_sample_points(&cfg, r, &offsets);
        assert_eq!(pts.len(), cfg.points_per_query());
        // Level 0 (6x8): center = (3.5, 2.5); level 1 (3x4): center = (1.5, 1.0).
        assert_eq!(pts[0].level, 0);
        assert!((pts[0].x - 3.5).abs() < 1e-6 && (pts[0].y - 2.5).abs() < 1e-6);
        let l1 = point_slot(&cfg, 0, 1, 0);
        assert_eq!(pts[l1].level, 1);
        assert!((pts[l1].x - 1.5).abs() < 1e-6 && (pts[l1].y - 1.0).abs() < 1e-6);
    }

    #[test]
    fn offsets_displace_in_level_pixels() {
        let cfg = MsdaConfig::tiny();
        let r = RefPoint { x: 0.5, y: 0.5 };
        let mut offsets = vec![0.0; 2 * cfg.points_per_query()];
        let slot = point_slot(&cfg, 1, 1, 1);
        offsets[2 * slot] = -1.25; // dx
        offsets[2 * slot + 1] = 2.0; // dy
        let pts = query_sample_points(&cfg, r, &offsets);
        assert!((pts[slot].x - (1.5 - 1.25)).abs() < 1e-6);
        assert!((pts[slot].y - (1.0 + 2.0)).abs() < 1e-6);
    }

    #[test]
    fn points_stay_in_their_reference_level() {
        // §4.2: "sampling points are only located in the same level of
        // multi-scale fmaps as their reference points".
        let cfg = MsdaConfig::tiny();
        let r = RefPoint { x: 0.25, y: 0.75 };
        let offsets = vec![0.5; 2 * cfg.points_per_query()];
        for (i, pt) in query_sample_points(&cfg, r, &offsets).iter().enumerate() {
            let level = (i / cfg.n_points) % cfg.n_levels();
            assert_eq!(pt.level as usize, level);
        }
    }
}
