//! Keep/drop bit masks.
//!
//! Both FWP and PAP record pruning decisions as bit masks (one bit per fmap
//! pixel / sampling point). The hardware ships masks through the
//! compression/decompression units as `mask + surviving payload`; that
//! wire-bit arithmetic lives in `defa_arch::compress::compressed_bits`.

use crate::PruneError;

/// A keep/drop bit mask over a linear index space.
///
/// `true` means *keep*; one entry per fmap pixel or sampling point, which
/// is what the DEFA mask generators emit.
///
/// # Example
///
/// ```
/// use defa_prune::BitMask;
///
/// let mask = BitMask::from_bools(vec![true, false, true, true]);
/// assert_eq!(mask.kept(), 3);
/// assert!((mask.keep_fraction() - 0.75).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMask {
    bits: Vec<bool>,
}

impl BitMask {
    /// An all-keep mask of length `n`.
    pub fn keep_all(n: usize) -> Self {
        BitMask { bits: vec![true; n] }
    }

    /// Wraps an explicit keep vector.
    pub fn from_bools(bits: Vec<bool>) -> Self {
        BitMask { bits }
    }

    /// Builds a mask by thresholding values: `keep = value >= threshold`.
    pub fn from_threshold(values: &[f32], threshold: f32) -> Self {
        BitMask { bits: values.iter().map(|&v| v >= threshold).collect() }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the mask is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Borrowed keep bits (`true` = keep).
    pub fn as_bools(&self) -> &[bool] {
        &self.bits
    }

    /// Number of kept entries.
    pub fn kept(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Number of dropped entries.
    pub fn dropped(&self) -> usize {
        self.len() - self.kept()
    }

    /// Fraction of entries kept (1.0 for an empty mask).
    pub fn keep_fraction(&self) -> f64 {
        if self.bits.is_empty() {
            1.0
        } else {
            self.kept() as f64 / self.len() as f64
        }
    }

    /// Fraction of entries dropped.
    pub fn drop_fraction(&self) -> f64 {
        1.0 - self.keep_fraction()
    }

    /// Whether entry `i` is kept.
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::ShapeMismatch`] if `i` is out of range.
    pub fn is_kept(&self, i: usize) -> Result<bool, PruneError> {
        self.bits.get(i).copied().ok_or_else(|| {
            PruneError::ShapeMismatch(format!("mask index {i} out of {}", self.len()))
        })
    }

    /// Intersection with another mask (`keep = both keep`).
    ///
    /// # Errors
    ///
    /// Returns [`PruneError::ShapeMismatch`] if lengths differ.
    pub fn and(&self, other: &BitMask) -> Result<BitMask, PruneError> {
        if self.len() != other.len() {
            return Err(PruneError::ShapeMismatch(format!(
                "mask lengths differ: {} vs {}",
                self.len(),
                other.len()
            )));
        }
        Ok(BitMask { bits: self.bits.iter().zip(&other.bits).map(|(&a, &b)| a && b).collect() })
    }

    /// Iterator over kept indices.
    pub fn iter_kept(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i)
    }
}

impl FromIterator<bool> for BitMask {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitMask { bits: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_fractions() {
        let m = BitMask::from_bools(vec![true, false, false, true]);
        assert_eq!(m.kept(), 2);
        assert_eq!(m.dropped(), 2);
        assert!((m.keep_fraction() - 0.5).abs() < 1e-9);
        assert!((m.drop_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn threshold_construction_keeps_at_or_above() {
        let m = BitMask::from_threshold(&[0.1, 0.5, 0.5, 0.9], 0.5);
        assert_eq!(m.as_bools(), &[false, true, true, true]);
    }

    #[test]
    fn and_intersects() {
        let a = BitMask::from_bools(vec![true, true, false]);
        let b = BitMask::from_bools(vec![true, false, false]);
        assert_eq!(a.and(&b).unwrap().as_bools(), &[true, false, false]);
        assert!(a.and(&BitMask::keep_all(2)).is_err());
    }

    #[test]
    fn iter_kept_yields_indices() {
        let m = BitMask::from_bools(vec![false, true, false, true]);
        assert_eq!(m.iter_kept().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn empty_mask_keep_fraction_is_one() {
        let m = BitMask::keep_all(0);
        assert_eq!(m.keep_fraction(), 1.0);
        assert!(m.is_empty());
    }

    #[test]
    fn is_kept_bounds_checked() {
        let m = BitMask::keep_all(2);
        assert!(m.is_kept(1).unwrap());
        assert!(m.is_kept(2).is_err());
    }

    #[test]
    fn collects_from_iterator() {
        let m: BitMask = (0..4).map(|i| i % 2 == 0).collect();
        assert_eq!(m.kept(), 2);
    }
}
