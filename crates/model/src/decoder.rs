//! Decoder cross-attention (extension beyond the paper's evaluation).
//!
//! The paper evaluates MSDeformAttn in the *encoders* (§5.1.1), but the
//! DETR-family decoders use the same operator as cross-attention: a few
//! hundred object queries — each with a learned normalized reference point
//! — sample the encoder's multi-scale memory. This module implements that
//! variant so downstream users can run full detector stacks; the pruning
//! algorithms apply unchanged (PAP on the query probabilities, FWP on the
//! memory pixels across decoder blocks).

use crate::reference::{MsdaLayer, MsdaWeights};
use crate::sampling::{query_sample_points_into, RefPoint};
use crate::workload::Benchmark;
use crate::{FmapPyramid, ModelError, MsdaConfig, SamplePoint};
use defa_tensor::matmul::{matmul, matmul_row_masked};
use defa_tensor::rng::TensorRng;
use defa_tensor::softmax::softmax_heads;
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

/// One decoder cross-attention layer: object queries sampling the encoder
/// memory.
#[derive(Debug, Clone)]
pub struct CrossMsdaLayer {
    inner: MsdaLayer,
    references: Vec<RefPoint>,
}

impl CrossMsdaLayer {
    /// Creates a cross-attention layer over `cfg`-shaped memory with one
    /// learned reference point per query.
    ///
    /// # Errors
    ///
    /// Propagates configuration and weight validation failures; rejects an
    /// empty reference list.
    pub fn new(
        cfg: MsdaConfig,
        weights: MsdaWeights,
        references: Vec<RefPoint>,
    ) -> Result<Self, ModelError> {
        if references.is_empty() {
            return Err(ModelError::InvalidConfig("no query reference points".into()));
        }
        Ok(CrossMsdaLayer { inner: MsdaLayer::new(cfg, weights)?, references })
    }

    /// Number of object queries.
    pub fn n_queries(&self) -> usize {
        self.references.len()
    }

    /// The learned reference points.
    pub fn references(&self) -> &[RefPoint] {
        &self.references
    }

    /// The shared MSDeformAttn machinery (weights, config).
    pub fn inner(&self) -> &MsdaLayer {
        &self.inner
    }

    /// Cross-attention forward: `queries` is `[N_q, D]`, `memory` the
    /// encoder output pyramid. Optional masks follow the encoder
    /// conventions (`memory_mask` over tokens, `point_mask` over
    /// `N_q · points_per_query` slots).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] on any disagreement.
    pub fn forward(
        &self,
        queries: &Tensor,
        memory: &FmapPyramid,
        memory_mask: Option<&[bool]>,
        point_mask: Option<&[bool]>,
    ) -> Result<CrossLayerOutput, ModelError> {
        let cfg = self.inner.config();
        let nq = self.n_queries();
        let ppq = cfg.points_per_query();
        if queries.shape().dims() != [nq, cfg.d_model] {
            return Err(ModelError::ShapeMismatch(format!(
                "queries {} expected [{nq}, {}]",
                queries.shape(),
                cfg.d_model
            )));
        }
        if memory.n_in() != cfg.n_in() || memory.d() != cfg.d_model {
            return Err(ModelError::ShapeMismatch(format!(
                "memory [{} x {}] does not match config",
                memory.n_in(),
                memory.d()
            )));
        }
        if let Some(pm) = point_mask {
            if pm.len() != nq * ppq {
                return Err(ModelError::ShapeMismatch(format!(
                    "point mask length {} expected {}",
                    pm.len(),
                    nq * ppq
                )));
            }
        }

        let w = self.inner.weights();
        let mut probs = matmul(queries, &w.w_attn)?;
        softmax_heads(&mut probs, cfg.points_per_head())?;

        let offsets = matmul(queries, &w.w_offset)?;
        let mut locations = vec![SamplePoint::new(0, 0.0, 0.0); nq * ppq];
        for ((pts, &reference), offs) in locations
            .chunks_exact_mut(ppq)
            .zip(&self.references)
            .zip(offsets.as_slice().chunks_exact(2 * ppq))
        {
            query_sample_points_into(cfg, reference, offs, pts);
        }

        let value = match memory_mask {
            Some(mm) => matmul_row_masked(memory.tensor(), &w.w_value, mm)?,
            None => matmul(memory.tensor(), &w.w_value)?,
        };

        let output = self.inner.sample_and_aggregate(&probs, &locations, &value, point_mask)?;
        Ok(CrossLayerOutput { probs, locations, output })
    }
}

/// Output of one cross-attention layer.
#[derive(Debug, Clone)]
pub struct CrossLayerOutput {
    /// Per-head attention probabilities, `[N_q, N_h·N_l·N_p]`.
    pub probs: Tensor,
    /// Sampling locations, `N_q · points_per_query` entries.
    pub locations: Vec<SamplePoint>,
    /// Attended output, `[N_q, D]`.
    pub output: Tensor,
}

/// A complete synthetic decoder stack for one benchmark.
#[derive(Debug, Clone)]
pub struct DecoderWorkload {
    layers: Vec<CrossMsdaLayer>,
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
            layers.push(CrossMsdaLayer::new(cfg.clone(), weights, references.clone())?);
        }
        let initial_queries = rng.uniform([dec.n_queries, d], -1.0, 1.0);
        Ok(DecoderWorkload { layers, initial_queries })
    }

    /// Decoder layers in execution order.
    pub fn layers(&self) -> &[CrossMsdaLayer] {
        &self.layers
    }

    /// The learned initial object queries.
    pub fn initial_queries(&self) -> &Tensor {
        &self.initial_queries
    }

    /// Runs the full decoder over a fixed encoder memory, returning the
    /// final query embeddings.
    ///
    /// # Errors
    ///
    /// Propagates layer evaluation failures.
    pub fn run(&self, memory: &FmapPyramid) -> Result<Tensor, ModelError> {
        let mut q = self.initial_queries.clone();
        for layer in &self.layers {
            let out = layer.forward(&q, memory, None, None)?;
            q = crate::encoder::block_update(&q, &out.output)?;
        }
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let out = dec.layers()[0].forward(dec.initial_queries(), &memory, None, None).unwrap();
        let lp = cfg.points_per_head();
        for q in 0..dec.layers()[0].n_queries() {
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
        let out = dec.layers()[0].forward(dec.initial_queries(), &memory, None, None).unwrap();
        assert_eq!(out.locations.len(), 12 * cfg.points_per_query());
    }

    #[test]
    fn masks_apply_to_cross_attention() {
        let (cfg, dec, memory) = setup();
        let layer = &dec.layers()[0];
        let exact = layer.forward(dec.initial_queries(), &memory, None, None).unwrap();
        let all_mem = vec![true; cfg.n_in()];
        let all_pts = vec![true; 12 * cfg.points_per_query()];
        let masked =
            layer.forward(dec.initial_queries(), &memory, Some(&all_mem), Some(&all_pts)).unwrap();
        assert!(masked.output.relative_l2_error(&exact.output).unwrap() < 1e-6);
        let no_pts = vec![false; 12 * cfg.points_per_query()];
        let zero = layer.forward(dec.initial_queries(), &memory, None, Some(&no_pts)).unwrap();
        assert_eq!(zero.output.max_abs(), 0.0);
    }

    #[test]
    fn benchmark_decoder_shapes() {
        assert_eq!(DecoderConfig::for_benchmark(Benchmark::DeformableDetr).n_queries, 300);
        assert!(DecoderConfig::for_benchmark(Benchmark::Dino).n_queries > 900);
    }

    #[test]
    fn shape_validation_rejects_wrong_queries() {
        let (_, dec, memory) = setup();
        let bad = Tensor::zeros([5, 16]);
        assert!(dec.layers()[0].forward(&bad, &memory, None, None).is_err());
    }

    #[test]
    fn wrong_point_mask_length_is_rejected() {
        let (_, dec, memory) = setup();
        let short = vec![true; 3];
        assert!(dec.layers()[0]
            .forward(dec.initial_queries(), &memory, None, Some(&short))
            .is_err());
    }
}
