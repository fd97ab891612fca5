//! Functional reference model of multi-scale deformable attention
//! (MSDeformAttn) and the benchmark workloads used by the DEFA paper.
//!
//! The crate implements the operator of Eq. 1 of the paper end to end in
//! `f32`:
//!
//! 1. attention logits `Q·Wᴬ` and per-head softmax over the `N_l·N_p`
//!    sampling points ([`mod@reference`]),
//! 2. sampling offsets `ΔP = Q·Wˢ` added to per-level reference points
//!    ([`sampling`]),
//! 3. value projection `V = X·Wᵥ`,
//! 4. multi-scale grid-sampling via bilinear interpolation ([`bilinear`]),
//! 5. probability-weighted aggregation and head concatenation.
//!
//! [`MsdaLayer::forward`] is the one exact evaluation; it is built from
//! the public stages ([`MsdaLayer::attention_probs`],
//! [`reference::generate_locations`], [`MsdaLayer::sample_and_aggregate`])
//! that the pruned pipeline in `defa-prune` drives under its masks. INT-N
//! inference is emulated with fake-quantized weights from
//! [`SyntheticWorkload::quantized_layers`].
//!
//! On top of the single layer, [`encoder`] stacks residual MSDeformAttn
//! blocks the way the Deformable-DETR-family encoders do, which is what
//! makes frequency-weighted pruning across consecutive blocks meaningful.
//! [`workload`] generates synthetic-but-statistically-faithful benchmark
//! instances (De DETR / DN-DETR / DINO shapes, skewed attention
//! probabilities, persistent sampling hotspots), [`detection`] provides the
//! accuracy-proxy metric, and [`flops`] the operation accounting behind the
//! paper's computational-properties analysis (§2.2).
//!
//! # Example
//!
//! ```
//! use defa_model::config::MsdaConfig;
//! use defa_model::workload::{Benchmark, SyntheticWorkload};
//!
//! # fn main() -> Result<(), defa_model::ModelError> {
//! let cfg = MsdaConfig::tiny();
//! let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 42)?;
//! let out = wl.layer(0)?.forward(wl.initial_fmap(), Some(wl.warp()))?;
//! assert_eq!(out.output.shape().dims(), &[cfg.n_in(), cfg.d_model]);
//! # Ok(())
//! # }
//! ```

pub mod bilinear;
pub mod config;
pub mod decoder;
pub mod detection;
pub mod encoder;
pub mod error;
pub mod flops;
pub mod fmap;
pub mod reference;
pub mod sampling;
pub mod workload;

pub use config::{LevelShape, MsdaConfig};
pub use error::ModelError;
pub use fmap::FmapPyramid;
pub use reference::{LayerOutput, MsdaLayer, MsdaWeights};
pub use sampling::SamplePoint;
pub use workload::{
    Benchmark, InferenceRequest, RequestGenerator, RequestScenario, SessionProfile,
    StreamingBudget, SyntheticWorkload,
};
