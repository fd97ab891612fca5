//! Pruning-assisted grid-sampling: the algorithm-level half of DEFA (§3).
//!
//! Three techniques shrink the MSGS working set:
//!
//! * [`fwp`] — **frequency-weighted fmap pruning**: block *k* counts how
//!   often each pixel is touched by bilinear interpolation; pixels below
//!   `k_hyper · mean` are masked out of block *k+1*'s value projection and
//!   memory traffic (paper: ~43 % of pixels pruned).
//! * [`pap`] — **probability-aware point pruning**: sampling points whose
//!   post-softmax attention probability is near zero are dropped before the
//!   offset projection and MSGS (paper: ~84 % of points pruned).
//! * [`range`] — **level-wise range narrowing**: per-level bounded ranges
//!   clamp sampling offsets around the reference point, bounding the
//!   on-chip working set (a unified range would cost ~25 % extra storage).
//!
//! [`pipeline`] ties them together into a pruned encoder run with the
//! block-to-block mask propagation of the DEFA dataflow — the one place
//! the masks take effect — and [`stats`] produces the reduction ratios of
//! Fig. 6(b). [`mask`] holds the keep/drop decisions; their wire cost is
//! accounted in `defa_arch::compress`.
//!
//! # Example
//!
//! ```
//! use defa_model::{MsdaConfig, workload::{Benchmark, SyntheticWorkload}};
//! use defa_prune::pipeline::{PruneSettings, run_pruned_encoder};
//!
//! # fn main() -> Result<(), defa_prune::PruneError> {
//! let cfg = MsdaConfig::tiny();
//! let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 1)?;
//! let run = run_pruned_encoder(&wl, &PruneSettings::paper_defaults())?;
//! assert!(run.stats.point_keep_fraction() < 1.0);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod fwp;
pub mod histogram;
pub mod mask;
pub mod pap;
pub mod pipeline;
pub mod range;
pub mod stats;

pub use error::PruneError;
pub use fwp::{FwpConfig, SampleFrequency};
pub use mask::BitMask;
pub use pap::PapConfig;
pub use range::{BoundedRange, RangeConfig};
pub use stats::ReductionStats;
