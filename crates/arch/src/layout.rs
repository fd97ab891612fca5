//! SRAM bank mappings for MSGS parallel processing (Figure 5).
//!
//! The BA pipeline must read 16 pixels per cycle — the four bilinear
//! neighbors of four sampling points — from 16 single-port banks. Which
//! pixel lives in which bank decides whether that is possible:
//!
//! * **Intra-level** (Fig. 5a): the four points come from *one* level whose
//!   bounded range is interleaved over all 16 banks as a 4×4 tile
//!   (`bank = (y mod 4)·4 + (x mod 4)`). A 2×2 bilinear footprint then
//!   always hits 4 distinct banks, but two *points* whose footprints
//!   overlap modulo 4 collide, serializing the cycle.
//! * **Inter-level** (Fig. 5b): the four points come from *four different
//!   levels*; level `l` owns banks `4l..4l+4` and its range is tiled into
//!   2×2 *Neighbor Windows* (`bank = 4l + (y mod 2)·2 + (x mod 2)`). Any
//!   2×2 footprint covers exactly the four banks of its level, and levels
//!   are disjoint — so bank conflicts are impossible.

use crate::{ArchError, N_BANKS};

/// The two MSGS parallelization schemes of §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BankMapping {
    /// Four points of the same level per cycle; 4×4 word interleaving.
    IntraLevel,
    /// One point from each of four levels per cycle; Neighbor Windows.
    InterLevel,
}

impl BankMapping {
    /// Bank index of pixel `(y, x)` in `level`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::OutOfRange`] in inter-level mode if `level`
    /// exceeds the `N_BANKS / 4` levels a 16-bank array can host.
    #[inline]
    pub fn bank_of(&self, level: usize, y: i64, x: i64) -> Result<usize, ArchError> {
        // Negative coordinates (out-of-bounds bilinear neighbors) still get
        // a well-defined bank: the address generator computes them before
        // the bounds check. Use Euclidean remainders.
        let ym = y.rem_euclid(4) as usize;
        let xm = x.rem_euclid(4) as usize;
        match self {
            BankMapping::IntraLevel => Ok((ym % 4) * 4 + (xm % 4)),
            BankMapping::InterLevel => {
                let groups = N_BANKS / 4;
                if level >= groups {
                    return Err(ArchError::OutOfRange {
                        what: "level group",
                        index: level,
                        len: groups,
                    });
                }
                Ok(4 * level + (ym % 2) * 2 + (xm % 2))
            }
        }
    }

    /// Banks touched by the 2×2 bilinear footprint anchored at `(y0, x0)`.
    ///
    /// The far neighbours wrap at `i64::MAX`, as `Footprint::at`'s do for
    /// a saturated anchor; banks depend on coordinates modulo 4 only, and
    /// wrapping preserves them.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BankMapping::bank_of`].
    #[inline]
    pub fn footprint_banks(&self, level: usize, y0: i64, x0: i64) -> Result<[usize; 4], ArchError> {
        let (y1, x1) = (y0.wrapping_add(1), x0.wrapping_add(1));
        Ok([
            self.bank_of(level, y0, x0)?,
            self.bank_of(level, y0, x1)?,
            self.bank_of(level, y1, x0)?,
            self.bank_of(level, y1, x1)?,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_hits_four_distinct_banks_in_both_modes() {
        for mapping in [BankMapping::IntraLevel, BankMapping::InterLevel] {
            for (y0, x0) in [(0i64, 0i64), (3, 5), (7, 2), (-1, -1)] {
                let level = if mapping == BankMapping::InterLevel { 1 } else { 0 };
                let banks = mapping.footprint_banks(level, y0, x0).unwrap();
                let mut sorted = banks.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), 4, "{mapping:?} ({y0},{x0}) -> {banks:?}");
            }
        }
    }

    #[test]
    fn inter_level_footprint_stays_in_level_group() {
        let m = BankMapping::InterLevel;
        for level in 0..4 {
            let banks = m.footprint_banks(level, 5, 9).unwrap();
            for b in banks {
                assert!(b >= 4 * level && b < 4 * (level + 1), "level {level} bank {b}");
            }
        }
    }

    #[test]
    fn inter_level_rejects_level_beyond_groups() {
        assert!(BankMapping::InterLevel.bank_of(4, 0, 0).is_err());
    }

    #[test]
    fn intra_level_uses_all_sixteen_banks() {
        let m = BankMapping::IntraLevel;
        let mut seen = [false; N_BANKS];
        for y in 0..4 {
            for x in 0..4 {
                seen[m.bank_of(0, y, x).unwrap()] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn different_levels_never_conflict_in_inter_mode() {
        let m = BankMapping::InterLevel;
        let a = m.footprint_banks(0, 3, 3).unwrap();
        let b = m.footprint_banks(1, 3, 3).unwrap();
        assert!(a.iter().all(|x| !b.contains(x)));
    }

    #[test]
    fn negative_coordinates_map_consistently() {
        let m = BankMapping::IntraLevel;
        // (-1) mod 4 == 3: same bank as y = 3.
        assert_eq!(m.bank_of(0, -1, 0).unwrap(), m.bank_of(0, 3, 0).unwrap());
        assert_eq!(m.bank_of(0, 0, -1).unwrap(), m.bank_of(0, 0, 3).unwrap());
    }
}
