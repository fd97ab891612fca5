//! Decoder cross-attention (extension beyond the paper's evaluation).
//!
//! The paper evaluates MSDeformAttn in the *encoders* (§5.1.1), but the
//! DETR-family decoders use the same operator as cross-attention: a few
//! hundred object queries — each with a learned normalized reference point
//! — sample the encoder's multi-scale memory. This module generates that
//! variant so downstream users can run full detector stacks. Its layers are
//! [`MsdaLayer`]s whose queries are the object queries
//! ([`MsdaLayer::with_references`]), and it has no forward of its own:
//! [`DecoderWorkload::run`] is the exact reference, and the pruned run is
//! `defa_prune::pipeline::run_pruned_decoder_visited`, the encoder's
//! per-block schedule with `Q ≠ X`. There PAP masks each layer's points
//! from its own probabilities and FWP masks the memory pixels of the next
//! layer, and both reach the features. The decoder applies no saliency
//! warp, no range narrowing and no quantization.

use crate::encoder::block_update;
use crate::reference::{with_layer_buffers, MsdaLayer, MsdaWeights};
use crate::sampling::RefPoint;
use crate::workload::Benchmark;
use crate::{FmapPyramid, ModelError, MsdaConfig};
use defa_tensor::rng::TensorRng;
use defa_tensor::Tensor;

/// Decoder stack shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecoderConfig {
    /// Object queries (including denoising groups where applicable).
    pub n_queries: usize,
    /// Number of decoder layers.
    pub n_layers: usize,
}

impl DecoderConfig {
    /// The paper benchmarks' decoder shapes: Deformable DETR uses 300
    /// object queries; DN-DETR and DINO add denoising query groups.
    pub fn for_benchmark(bench: Benchmark) -> Self {
        match bench {
            Benchmark::DeformableDetr => DecoderConfig { n_queries: 300, n_layers: 6 },
            Benchmark::DnDetr => DecoderConfig { n_queries: 300 + 200, n_layers: 6 },
            Benchmark::Dino => DecoderConfig { n_queries: 900 + 200, n_layers: 6 },
        }
    }

    /// A reduced shape for tests.
    pub fn tiny() -> Self {
        DecoderConfig { n_queries: 12, n_layers: 2 }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] on zero-sized dimensions.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.n_queries == 0 || self.n_layers == 0 {
            return Err(ModelError::InvalidConfig("zero-sized decoder dimension".into()));
        }
        Ok(())
    }
}

/// A complete synthetic decoder stack for one benchmark.
#[derive(Debug, Clone)]
pub struct DecoderWorkload {
    cfg: MsdaConfig,
    layers: Vec<MsdaLayer>,
    initial_queries: Tensor,
}

impl DecoderWorkload {
    /// Generates a decoder whose layers share the memory shape of `cfg`.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn generate(
        bench: Benchmark,
        cfg: &MsdaConfig,
        dec: DecoderConfig,
        seed: u64,
    ) -> Result<Self, ModelError> {
        cfg.validate()?;
        dec.validate()?;
        let mut rng = TensorRng::seed_from(seed ^ 0xDEC0DE);
        let d = cfg.d_model;
        let (logit_std, _, offset_std) = bench.workload_stats();
        let attn_w_std = logit_std / (d as f32 / 3.0).sqrt();
        let offset_w_std = offset_std / (d as f32 / 3.0).sqrt();
        let value_w_std = 1.0 / (d as f32).sqrt();

        let references: Vec<RefPoint> = (0..dec.n_queries)
            .map(|_| RefPoint {
                x: rng.uniform_value(0.05, 0.95),
                y: rng.uniform_value(0.05, 0.95),
            })
            .collect();

        let mut layers = Vec::with_capacity(dec.n_layers);
        for _ in 0..dec.n_layers {
            let weights = MsdaWeights {
                w_attn: rng.normal([d, cfg.points_per_query()], 0.0, attn_w_std),
                w_offset: rng.normal([d, 2 * cfg.points_per_query()], 0.0, offset_w_std),
                w_value: rng.normal([d, d], 0.0, value_w_std),
            };
            layers.push(MsdaLayer::with_references(cfg.clone(), weights, references.clone())?);
        }
        let initial_queries = rng.uniform([dec.n_queries, d], -1.0, 1.0);
        Ok(DecoderWorkload { cfg: cfg.clone(), layers, initial_queries })
    }

    /// The shape of the memory every layer samples.
    pub fn config(&self) -> &MsdaConfig {
        &self.cfg
    }

    /// Number of object queries.
    pub fn n_queries(&self) -> usize {
        self.initial_queries.shape().dims()[0]
    }

    /// Decoder layers in execution order; each layer's references are the
    /// object queries' learned reference points.
    pub fn layers(&self) -> &[MsdaLayer] {
        &self.layers
    }

    /// The learned initial object queries.
    pub fn initial_queries(&self) -> &Tensor {
        &self.initial_queries
    }

    /// Runs the full decoder exactly (no pruning) over a fixed encoder
    /// memory, returning the final query embeddings.
    ///
    /// # Errors
    ///
    /// Propagates layer evaluation failures, such as a memory that does not
    /// have the decoder's configured shape.
    pub fn run(&self, memory: &FmapPyramid) -> Result<Tensor, ModelError> {
        with_layer_buffers(|out| {
            let mut q = self.initial_queries.clone();
            for layer in &self.layers {
                layer.forward_into(&q, memory, None, out)?;
                q = block_update(&q, &out.output)?;
            }
            Ok(q)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::LayerOutput;
    use crate::workload::SyntheticWorkload;

    fn setup() -> (MsdaConfig, DecoderWorkload, FmapPyramid) {
        let cfg = MsdaConfig::tiny();
        let enc = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 1).unwrap();
        let dec =
            DecoderWorkload::generate(Benchmark::DeformableDetr, &cfg, DecoderConfig::tiny(), 1)
                .unwrap();
        let memory = enc.initial_fmap().clone();
        (cfg, dec, memory)
    }

    fn first_layer(dec: &DecoderWorkload, memory: &FmapPyramid) -> LayerOutput {
        let mut out = LayerOutput::empty();
        dec.layers()[0].forward_into(dec.initial_queries(), memory, None, &mut out).unwrap();
        out
    }

    #[test]
    fn decoder_output_has_query_shape() {
        let (cfg, dec, memory) = setup();
        let out = dec.run(&memory).unwrap();
        assert_eq!(out.shape().dims(), &[12, cfg.d_model]);
        assert!(out.max_abs() > 0.0);
    }

    #[test]
    fn cross_layer_probs_normalize_per_head() {
        let (cfg, dec, memory) = setup();
        let out = first_layer(&dec, &memory);
        let lp = cfg.points_per_head();
        for q in 0..dec.n_queries() {
            let row = out.probs.row(q).unwrap();
            for h in 0..cfg.n_heads {
                let s: f32 = row[h * lp..(h + 1) * lp].iter().sum();
                assert!((s - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn locations_count_matches_queries() {
        let (cfg, dec, memory) = setup();
        let out = first_layer(&dec, &memory);
        assert_eq!(out.locations.len(), 12 * cfg.points_per_query());
        assert_eq!(out.value.shape().dims(), &[cfg.n_in(), cfg.d_model]);
    }

    #[test]
    fn benchmark_decoder_shapes() {
        assert_eq!(DecoderConfig::for_benchmark(Benchmark::DeformableDetr).n_queries, 300);
        assert!(DecoderConfig::for_benchmark(Benchmark::Dino).n_queries > 900);
    }

    #[test]
    fn shape_validation_rejects_wrong_queries() {
        let (cfg, dec, memory) = setup();
        let mut out = LayerOutput::empty();
        let bad = Tensor::zeros([5, cfg.d_model]);
        assert!(dec.layers()[0].forward_into(&bad, &memory, None, &mut out).is_err());
        let other = MsdaConfig::small();
        let wrong_memory =
            FmapPyramid::from_tensor(&other, Tensor::zeros([other.n_in(), other.d_model])).unwrap();
        assert!(dec.run(&wrong_memory).is_err());
    }
}
