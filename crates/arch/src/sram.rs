//! Banked on-chip SRAM with per-cycle conflict serialization.

use crate::{ArchError, EventCounters};

/// A multi-banked, single-port-per-bank SRAM array.
///
/// The array does not store data — the functional results come from the
/// reference model — it accounts *accesses*: each bank serves one word per
/// cycle, so a group of simultaneous requests costs as many cycles as the
/// most-loaded bank receives requests (plus a detection stall when any
/// conflict occurs, §5.3.1: "extra clock cycles are spent on detecting bank
/// conflicts, stopping the pipeline").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankedSram {
    n_banks: usize,
    word_bits: u64,
    reads: u64,
    writes: u64,
    conflicts: u64,
    conflict_stalls: u64,
    /// Per-bank request counts of the group being issued by
    /// [`BankedSram::read_group`]; all zero between calls.
    loads: Vec<u32>,
}

impl BankedSram {
    /// Creates an array of `n_banks` banks with `word_bits`-wide ports.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidParameter`] if either parameter is zero.
    pub fn new(n_banks: usize, word_bits: u64) -> Result<Self, ArchError> {
        if n_banks == 0 || word_bits == 0 {
            return Err(ArchError::InvalidParameter(format!(
                "banks ({n_banks}) and word width ({word_bits}) must be positive"
            )));
        }
        Ok(BankedSram {
            n_banks,
            word_bits,
            reads: 0,
            writes: 0,
            conflicts: 0,
            conflict_stalls: 0,
            loads: vec![0; n_banks],
        })
    }

    /// Number of banks.
    pub fn n_banks(&self) -> usize {
        self.n_banks
    }

    /// Port width in bits.
    pub fn word_bits(&self) -> u64 {
        self.word_bits
    }

    /// Issues one group of simultaneous single-word reads, given the target
    /// bank of each request. Returns the cycles the group takes, by the
    /// rule of [`BankedSram::read_loads`].
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::OutOfRange`] if any bank index is invalid.
    pub fn read_group(&mut self, banks: &[usize]) -> Result<u64, ArchError> {
        if let Some(&b) = banks.iter().find(|&&b| b >= self.n_banks) {
            return Err(ArchError::OutOfRange { what: "bank", index: b, len: self.n_banks });
        }
        let mut loads = std::mem::take(&mut self.loads);
        for &b in banks {
            loads[b] += 1;
        }
        let cycles = self.read_loads(&loads, banks.len() as u64);
        loads.fill(0);
        self.loads = loads;
        Ok(cycles)
    }

    /// Issues one group of `requests` simultaneous single-word reads, given
    /// how many of them target each bank (`loads[b]` for bank `b`). Returns
    /// the cycles the group takes.
    ///
    /// A conflict-free group (each bank addressed at most once) takes one
    /// cycle. Otherwise the group takes `max_load` cycles plus one
    /// detection-stall cycle, and every bank addressed more than once
    /// counts as one conflict.
    #[inline]
    pub fn read_loads(&mut self, loads: &[u32], requests: u64) -> u64 {
        self.reads += requests;
        let max_load = loads.iter().copied().max().unwrap_or(0);
        if max_load <= 1 {
            1
        } else {
            self.conflicts += loads.iter().filter(|&&l| l > 1).count() as u64;
            self.conflict_stalls += 1;
            u64::from(max_load) + 1
        }
    }

    /// Records `words` conflict-free single-word reads (streaming access).
    pub fn read_stream(&mut self, words: u64) {
        self.reads += words;
    }

    /// Records `words` conflict-free single-word writes (streaming access).
    pub fn write_stream(&mut self, words: u64) {
        self.writes += words;
    }

    /// Total read accesses so far.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total write accesses so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Bank conflicts observed so far.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Detection/drain stall cycles charged so far.
    pub fn conflict_stalls(&self) -> u64 {
        self.conflict_stalls
    }

    /// Flushes the access counts into shared counters and resets them.
    pub fn drain_into(&mut self, counters: &mut EventCounters) {
        counters.sram_read_bits += self.reads * self.word_bits;
        counters.sram_write_bits += self.writes * self.word_bits;
        counters.bank_conflicts += self.conflicts;
        counters.conflict_stall_cycles += self.conflict_stalls;
        self.reads = 0;
        self.writes = 0;
        self.conflicts = 0;
        self.conflict_stalls = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_free_group_takes_one_cycle() {
        let mut s = BankedSram::new(16, 12).unwrap();
        let cycles = s.read_group(&[0, 1, 2, 3]).unwrap();
        assert_eq!(cycles, 1);
        assert_eq!(s.conflicts(), 0);
        assert_eq!(s.reads(), 4);
    }

    #[test]
    fn conflicting_group_serializes_with_detection_stall() {
        let mut s = BankedSram::new(16, 12).unwrap();
        // Bank 5 addressed 3 times -> 3 cycles + 1 stall.
        let cycles = s.read_group(&[5, 5, 5, 1]).unwrap();
        assert_eq!(cycles, 4);
        assert_eq!(s.conflicts(), 1);
        assert_eq!(s.conflict_stalls(), 1);
    }

    #[test]
    fn two_conflicting_banks_count_separately() {
        let mut s = BankedSram::new(8, 12).unwrap();
        let cycles = s.read_group(&[0, 0, 1, 1]).unwrap();
        assert_eq!(cycles, 3); // max load 2 + stall
        assert_eq!(s.conflicts(), 2);
    }

    #[test]
    fn invalid_bank_is_rejected() {
        let mut s = BankedSram::new(4, 12).unwrap();
        assert!(s.read_group(&[4]).is_err());
    }

    #[test]
    fn drain_converts_words_to_bits_and_resets() {
        let mut s = BankedSram::new(16, 12).unwrap();
        s.read_stream(10);
        s.write_stream(3);
        let mut c = EventCounters::new();
        s.drain_into(&mut c);
        assert_eq!(c.sram_read_bits, 120);
        assert_eq!(c.sram_write_bits, 36);
        assert_eq!(s.reads(), 0);
        assert_eq!(s.writes(), 0);
    }

    #[test]
    fn zero_parameters_are_rejected() {
        assert!(BankedSram::new(0, 12).is_err());
        assert!(BankedSram::new(16, 0).is_err());
    }

    #[test]
    fn empty_group_costs_one_idle_cycle() {
        let mut s = BankedSram::new(16, 12).unwrap();
        assert_eq!(s.read_group(&[]).unwrap(), 1);
    }

    /// `read_loads` on a group's per-bank counts must cost the same cycles
    /// and leave the same bookkeeping as `read_group` on its bank list.
    fn assert_loads_match_group(banks: &[usize]) {
        let mut by_group = BankedSram::new(16, 12).unwrap();
        let mut by_loads = by_group.clone();
        let mut loads = [0u32; 16];
        for &b in banks {
            loads[b] += 1;
        }
        for _ in 0..2 {
            let want = by_group.read_group(banks).unwrap();
            assert_eq!(by_loads.read_loads(&loads, banks.len() as u64), want, "{banks:?}");
            assert_eq!(by_loads, by_group, "{banks:?}");
        }
    }

    #[test]
    fn read_loads_matches_read_group() {
        assert_loads_match_group(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]);
        assert_loads_match_group(&[5, 5, 5, 1]);
        assert_loads_match_group(&[0, 0, 1, 1, 1, 7]);
        assert_loads_match_group(&[]);
    }
}
