//! Cycle-level hardware model of the DEFA accelerator (§4 of the paper).
//!
//! The accelerator is modeled as a set of interacting units whose activity
//! is captured in [`counters::EventCounters`] and converted into energy and
//! area by documented technology constants:
//!
//! * [`sram`] — 16 single-port SRAM banks with per-cycle conflict
//!   serialization.
//! * [`layout`] — the two bank mappings of Figure 5: intra-level
//!   (word-interleaved within one level, conflict-prone) and inter-level
//!   (levels own bank groups tiled into 2×2 *Neighbor Windows*,
//!   conflict-free).
//! * [`dram`] — a 256 GB/s HBM2 channel at 1.2 pJ/bit.
//! * [`pe`] — the reconfigurable 16×16 PE array: MM mode (vector × tile,
//!   output stationary) and BA mode (bilinear interpolation + aggregation).
//! * [`softmax_unit`], [`maskgen`], [`compress`] — the attention-probability
//!   pipeline and the FWP/PAP mask machinery.
//! * [`energy`] / [`area`] — 40 nm technology constants anchored to the
//!   paper's totals (2.63 mm², 99.8 mW, 418 GOPS @ 400 MHz, INT12).
//!
//! The model is *event-driven, cycle-accounted*: units report how many
//! cycles and how much memory traffic each operation costs; `defa-core`
//! schedules the full MSDeformAttn dataflow on top.

pub mod area;
pub mod bi_datapath;
pub mod compress;
pub mod counters;
pub mod dram;
pub mod energy;
pub mod error;
pub mod layout;
pub mod maskgen;
pub mod pe;
pub mod softmax_unit;
pub mod sram;

pub use area::{AreaBreakdown, AreaModel};
pub use counters::EventCounters;
pub use dram::Dram;
pub use energy::{EnergyBreakdown, EnergyModel};
pub use error::ArchError;
pub use layout::BankMapping;
pub use pe::PeArray;
pub use sram::BankedSram;

/// Clock frequency of the DEFA design (Table 1).
pub const CLOCK_HZ: u64 = 400_000_000;

/// Number of SRAM banks feeding the BA-mode pipeline (§4.2).
pub const N_BANKS: usize = 16;

/// Datapath precision in bits (Table 1: INT12).
pub const PRECISION_BITS: u64 = 12;

/// Sampling points processed in parallel by the BA pipeline (§4.2).
pub const POINTS_PER_GROUP: usize = 4;

/// Channels of one pixel delivered per SRAM word in BA mode.
///
/// Figure 3 shows 16 lanes × 4 BI/AG operator columns = 64 interpolation
/// units, i.e. 4 points × 16 channels per cycle; the banks use 192-bit
/// (16 × INT12) words so one conflict-free beat feeds exactly that.
pub const BA_CHANNELS_PER_BEAT: u64 = 16;
