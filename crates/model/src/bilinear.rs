//! Bilinear interpolation (the BI kernel of MSGS).
//!
//! Sampling locations are continuous pixel coordinates; the value at a
//! fractional point `S = (x, y)` is blended from its four integer neighbors
//! `N0..N3` (Eq. 3 of the paper). Out-of-range neighbors contribute zero,
//! matching `grid_sample(..., padding_mode="zeros")` in the official
//! implementation.
//!
//! [`Footprint`] is the per-point reference. Stage 4's kept-slot walk
//! ([`crate::reference::walk_kept_points`]) computes the same floors,
//! weights, bounds tests and neighbour tokens slot by slot in SoA lanes,
//! with the same [`f32`] expressions, and hands them to the aggregation,
//! FWP's frequency counting and the MSGS engine's bank sets alike. The
//! golden tests check each of those against a loop over `Footprint`.

use crate::LevelShape;

/// One integer neighbor touched by a bilinear sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Column of the neighbor pixel.
    pub x: i64,
    /// Row of the neighbor pixel.
    pub y: i64,
    /// Interpolation weight in `[0, 1]`.
    pub weight: f32,
}

/// The ≤4 integer pixels a sample touches, with their weights.
///
/// Neighbors are reported in the paper's `N0..N3` order: top-left,
/// top-right, bottom-left, bottom-right. Out-of-bounds neighbors are still
/// listed (the hardware address generator computes them before the bounds
/// check) but carry `in_bounds == false`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Footprint {
    /// The four corner neighbors.
    pub neighbors: [Neighbor; 4],
    /// Fractional row offset `t0 = y − y0`.
    pub t0: f32,
    /// Fractional column offset `t1 = x − x0`.
    pub t1: f32,
}

/// `x.floor()`, bit for bit, without branches or integer conversions.
///
/// Without SSE4.1 `f32::floor` lowers to a software routine that branches
/// on the exponent, sign and fraction — data-dependent branches that
/// dominated the cost of a bilinear footprint — and a float-to-int `as`
/// cast stays scalar. Below 2²³ in magnitude, adding and subtracting 2²³
/// (with `x`'s sign) rounds `x` to the nearest integer, and only a result
/// above `x` needs the `- 1`; at or above 2²³ (and for infinities and
/// NaN) `x` is its own floor. `copysign` restores the sign of `-0.0`, the
/// one input whose rounding loses it. Only float adds, compares and
/// selects remain, so it vectorizes across lanes.
#[inline]
pub(crate) fn floor(x: f32) -> f32 {
    let magic = 8_388_608f32.copysign(x);
    let r = (x + magic) - magic;
    let r = if r > x { r - 1.0 } else { r };
    if x.abs() < 8_388_608.0 {
        r.copysign(x)
    } else {
        x
    }
}

impl Footprint {
    /// Computes the footprint of a sample at continuous `(x, y)`.
    pub fn at(x: f32, y: f32) -> Self {
        let x0 = floor(x);
        let y0 = floor(y);
        let t1 = x - x0;
        let t0 = y - y0;
        let (x0, y0) = (x0 as i64, y0 as i64);
        // The cast saturates huge and infinite coordinates to `i64::MAX`;
        // their far neighbors wrap (out of bounds either way).
        let (x1, y1) = (x0.wrapping_add(1), y0.wrapping_add(1));
        let neighbors = [
            Neighbor { x: x0, y: y0, weight: (1.0 - t1) * (1.0 - t0) },
            Neighbor { x: x1, y: y0, weight: t1 * (1.0 - t0) },
            Neighbor { x: x0, y: y1, weight: (1.0 - t1) * t0 },
            Neighbor { x: x1, y: y1, weight: t1 * t0 },
        ];
        Footprint { neighbors, t0, t1 }
    }

    /// Neighbors that fall inside a level of the given shape.
    pub fn in_bounds(&self, shape: LevelShape) -> impl Iterator<Item = Neighbor> + '_ {
        self.neighbors.iter().copied().filter(move |n| {
            n.x >= 0 && n.y >= 0 && (n.x as usize) < shape.w && (n.y as usize) < shape.h
        })
    }

    /// Whether all four neighbors are inside the level.
    pub fn fully_inside(&self, shape: LevelShape) -> bool {
        self.neighbors
            .iter()
            .all(|n| n.x >= 0 && n.y >= 0 && (n.x as usize) < shape.w && (n.y as usize) < shape.h)
    }
}

/// Bilinearly samples a `D`-channel value from a level stored row-major as
/// `rows × cols` pixel vectors, accumulating `weight * sample` into `out`.
///
/// `level_data` must contain `shape.pixels() * d` contiguous values
/// (pixel-major). Out-of-bounds neighbors contribute zero.
///
/// # Panics
///
/// Panics in debug builds if `out.len() != d` or the level slice is too
/// short; callers inside this workspace always pass conforming slices.
pub fn sample_accumulate(
    level_data: &[f32],
    shape: LevelShape,
    d: usize,
    x: f32,
    y: f32,
    weight: f32,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), d);
    debug_assert!(level_data.len() >= shape.pixels() * d);
    let fp = Footprint::at(x, y);
    for n in fp.in_bounds(shape) {
        if n.weight == 0.0 {
            continue;
        }
        let base = (n.y as usize * shape.w + n.x as usize) * d;
        let px = &level_data[base..base + d];
        let w = weight * n.weight;
        for (o, &v) in out.iter_mut().zip(px) {
            *o += w * v;
        }
    }
}

/// Bilinearly samples a value, returning a freshly allocated vector.
pub fn sample(level_data: &[f32], shape: LevelShape, d: usize, x: f32, y: f32) -> Vec<f32> {
    let mut out = vec![0.0; d];
    sample_accumulate(level_data, shape, d, x, y, 1.0, &mut out);
    out
}

/// Evaluates the factored bilinear form of Eq. 4:
/// `S = N0 + (N2 − N0)·t0 + [(N1 − N0) + (N3 − N2 − N1 + N0)·t0]·t1`.
///
/// This is the 3-multiplier/7-adder datapath the BI operator implements in
/// hardware; it must agree exactly (in real arithmetic) with the 4-term
/// form of Eq. 3, which the tests verify.
pub fn factored_form(n: [f32; 4], t0: f32, t1: f32) -> f32 {
    let [n0, n1, n2, n3] = n;
    n0 + (n2 - n0) * t0 + ((n1 - n0) + (n3 - n2 - n1 + n0) * t0) * t1
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: LevelShape = LevelShape { h: 3, w: 4 };

    #[test]
    fn floor_matches_std_bit_for_bit() {
        let edges = [
            0.0f32,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            -1.5,
            2.5,
            -2.5,
            0.499_999_97,
            -0.499_999_97,
            4_194_304.5,
            -4_194_304.5,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            -1e-45,
            8_388_607.5,
            -8_388_607.5,
            8_388_608.0,
            -8_388_608.0,
            -8_388_609.0,
            3e9,
            -3e9,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let random = (0..100_000).map(|_| {
            state = defa_tensor::rng::splitmix64(state);
            f32::from_bits(state as u32)
        });
        for x in edges.into_iter().chain(random) {
            if x.is_nan() {
                assert!(floor(x).is_nan());
            } else {
                assert_eq!(floor(x).to_bits(), x.floor().to_bits(), "floor({x:e})");
            }
        }
        for i in -4000..4000 {
            let x = i as f32 / 64.0;
            assert_eq!(floor(x).to_bits(), x.floor().to_bits(), "floor({x})");
        }
    }

    /// Single-channel level: value = 10*y + x for easy hand computation.
    fn level() -> Vec<f32> {
        let mut v = Vec::new();
        for y in 0..3 {
            for x in 0..4 {
                v.push((10 * y + x) as f32);
            }
        }
        v
    }

    #[test]
    fn integer_points_return_exact_pixels() {
        let data = level();
        assert_eq!(sample(&data, SHAPE, 1, 2.0, 1.0), vec![12.0]);
        assert_eq!(sample(&data, SHAPE, 1, 0.0, 0.0), vec![0.0]);
    }

    #[test]
    fn midpoint_averages_four_neighbors() {
        let data = level();
        // Neighbors of (0.5, 0.5): 0, 1, 10, 11 -> mean 5.5.
        assert_eq!(sample(&data, SHAPE, 1, 0.5, 0.5), vec![5.5]);
    }

    #[test]
    fn linear_field_is_reproduced_exactly() {
        let data = level();
        // The field is linear in x and y, so BI must reproduce it anywhere inside.
        for &(x, y) in &[(1.25, 0.75), (2.9, 1.1), (0.0, 1.9)] {
            let got = sample(&data, SHAPE, 1, x, y)[0];
            assert!((got - (10.0 * y + x)).abs() < 1e-5, "({x},{y}) got {got}");
        }
    }

    #[test]
    fn out_of_bounds_contributes_zero() {
        let data = level();
        // x = -0.5: left neighbors are out of bounds, half the mass is lost.
        let got = sample(&data, SHAPE, 1, -0.5, 0.0)[0];
        assert_eq!(got, 0.0 * 0.5 + 0.0); // only N1 (0,0)=0 contributes with w=0.5
        let far = sample(&data, SHAPE, 1, 100.0, 100.0)[0];
        assert_eq!(far, 0.0);
    }

    #[test]
    fn weights_sum_to_one_inside() {
        let fp = Footprint::at(1.3, 0.6);
        let sum: f32 = fp.neighbors.iter().map(|n| n.weight).sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(fp.fully_inside(SHAPE));
    }

    #[test]
    fn footprint_order_is_n0_to_n3() {
        let fp = Footprint::at(1.25, 2.5);
        assert_eq!((fp.neighbors[0].x, fp.neighbors[0].y), (1, 2));
        assert_eq!((fp.neighbors[1].x, fp.neighbors[1].y), (2, 2));
        assert_eq!((fp.neighbors[2].x, fp.neighbors[2].y), (1, 3));
        assert_eq!((fp.neighbors[3].x, fp.neighbors[3].y), (2, 3));
    }

    #[test]
    fn factored_form_matches_four_term_form() {
        let cases = [
            ([0.0, 1.0, 10.0, 11.0], 0.5, 0.5),
            ([3.0, -2.0, 7.5, 0.25], 0.1, 0.9),
            ([1.0, 1.0, 1.0, 1.0], 0.33, 0.77),
        ];
        for (n, t0, t1) in cases {
            let four_term = n[0] * (1.0 - t1) * (1.0 - t0)
                + n[1] * t1 * (1.0 - t0)
                + n[2] * (1.0 - t1) * t0
                + n[3] * t1 * t0;
            let fact = factored_form(n, t0, t1);
            assert!((four_term - fact).abs() < 1e-5, "{n:?} {t0} {t1}");
        }
    }

    #[test]
    fn multichannel_samples_each_channel() {
        // 2 channels: ch0 = x, ch1 = y over a 2x2 level.
        let shape = LevelShape::new(2, 2);
        let data = vec![
            0.0, 0.0, // (0,0)
            1.0, 0.0, // (0,1)
            0.0, 1.0, // (1,0)
            1.0, 1.0, // (1,1)
        ];
        let s = sample(&data, shape, 2, 0.25, 0.75);
        assert!((s[0] - 0.25).abs() < 1e-6);
        assert!((s[1] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn accumulate_adds_scaled_contribution() {
        let data = level();
        let mut out = vec![100.0];
        sample_accumulate(&data, SHAPE, 1, 2.0, 1.0, 0.5, &mut out);
        assert_eq!(out[0], 100.0 + 6.0);
    }
}
