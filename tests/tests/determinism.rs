//! Thread-count invariance: the parallel compute core must produce
//! bit-identical results for any worker count.
//!
//! The parallel helpers partition work into contiguous index ranges and
//! every per-index computation reduces in a fixed order, so 1 thread vs
//! many must agree exactly — these tests pin that for the tiled GEMM, the
//! functional encoder pipeline and the full accelerator simulation
//! ([`RunReport`] compared byte-for-byte via its `Debug` rendering, which
//! prints every counter and float exactly). Both sides are pinned through
//! `with_num_threads` (serialized, panic-safe) rather than the
//! `RAYON_NUM_THREADS` environment variable, because mutating the
//! environment while other test threads read it is undefined behaviour on
//! POSIX; the env-var path gets its coverage from CI, which re-runs the
//! whole (mostly unpinned) workspace test suite under
//! `RAYON_NUM_THREADS=1` and requires it to stay green.

use defa_parallel::with_num_threads;

use defa_core::runner::DefaAccelerator;
use defa_model::encoder::{run_encoder, run_encoder_observed_from};
use defa_model::reference::{recycle_layer_buffers, LayerOutput};
use defa_model::workload::{Benchmark, RequestGenerator, SyntheticWorkload};
use defa_model::MsdaConfig;
use defa_prune::pipeline::{run_pruned_encoder, run_pruned_encoder_observed_from, PruneSettings};
use defa_prune::PapConfig;
use defa_tensor::matmul::{matmul, matmul_row_masked};
use defa_tensor::rng::TensorRng;
use defa_tensor::Tensor;

/// FNV-1a over 32-bit words.
fn fold(h: u64, words: impl IntoIterator<Item = u32>) -> u64 {
    words.into_iter().fold(h, |h, w| (h ^ u64::from(w)).wrapping_mul(0x0000_0100_0000_01B3))
}

/// A tensor's shape and every bit of its values.
fn tensor_bits(h: u64, t: &Tensor) -> u64 {
    let h = fold(h, t.shape().dims().iter().map(|&d| d as u32));
    fold(h, t.as_slice().iter().map(|v| v.to_bits()))
}

/// Every bit a block hands its observer: probabilities, offsets, every
/// location slot (pruned ones included), values and output.
fn layer_digest(out: &LayerOutput) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325;
    for t in [&out.probs, &out.offsets, &out.value, &out.output] {
        h = tensor_bits(h, t);
    }
    let slots =
        out.locations.iter().flat_map(|p| [u32::from(p.level), p.x.to_bits(), p.y.to_bits()]);
    fold(h, slots)
}

#[test]
fn gemm_is_thread_count_invariant() {
    let mut rng = TensorRng::seed_from(71);
    let a = rng.uniform([193, 77], -1.0, 1.0);
    let b = rng.uniform([77, 121], -1.0, 1.0);
    let mask: Vec<bool> = (0..193).map(|i| i % 5 != 2).collect();
    let (multi, multi_masked) = with_num_threads(4, || {
        (matmul(&a, &b).unwrap(), matmul_row_masked(&a, &b, &mask).unwrap())
    });
    let (single, single_masked) = with_num_threads(1, || {
        (matmul(&a, &b).unwrap(), matmul_row_masked(&a, &b, &mask).unwrap())
    });
    assert_eq!(multi, single);
    assert_eq!(multi_masked, single_masked);
}

#[test]
fn exact_encoder_is_thread_count_invariant() {
    let cfg = MsdaConfig::small();
    let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 1213).unwrap();
    let multi = with_num_threads(4, || run_encoder(&wl).unwrap());
    let single = with_num_threads(1, || run_encoder(&wl).unwrap());
    assert_eq!(multi.final_features, single.final_features);
    // The streaming encoder shows its observer the blocks the collecting
    // one returns and ends in the same bits, at either thread count.
    let want: Vec<u64> = single.blocks.iter().map(layer_digest).collect();
    for threads in [1, 4] {
        let mut seen = Vec::new();
        let features = with_num_threads(threads, || {
            run_encoder_observed_from(&wl, wl.initial_fmap(), |k, out| {
                assert_eq!(k, seen.len());
                seen.push(layer_digest(out));
            })
            .unwrap()
        });
        assert_eq!(seen, want, "{threads} threads");
        assert_eq!(tensor_bits(0, &features), tensor_bits(0, &single.final_features));
    }
}

/// One served request as the recycled-buffer test runs it.
#[derive(Clone, Copy, Debug)]
enum Entry {
    Dense,
    Pruned(f32),
    Accel,
}

/// Runs `entry` on request `id`: digests of every observed block and the
/// final features, plus the accelerator's report.
fn run_entry(gen: &RequestGenerator, entry: Entry, id: u64) -> (Vec<u64>, u64, String) {
    let req = gen.request(id);
    let wl = gen.scenario(req.scenario).unwrap();
    let mut seen = Vec::new();
    let (features, report) = match entry {
        Entry::Dense => {
            let f = run_encoder_observed_from(wl, &req.fmap, |_, out| seen.push(layer_digest(out)));
            (f.unwrap(), String::new())
        }
        Entry::Pruned(threshold) => {
            let settings = PruneSettings {
                pap: Some(PapConfig::new(threshold).unwrap()),
                ..PruneSettings::paper_defaults()
            };
            let run = run_pruned_encoder_observed_from(wl, &settings, &req.fmap, |_, out, _| {
                seen.push(layer_digest(out))
            });
            (run.unwrap().final_features, String::new())
        }
        Entry::Accel => {
            let accel =
                DefaAccelerator { measure_fidelity: false, ..DefaAccelerator::paper_default() };
            let run = accel.run_workload_from(wl, &req.fmap, &PruneSettings::paper_defaults());
            let run = run.unwrap();
            (run.final_features, format!("{:?}", run.report))
        }
    };
    (seen, tensor_bits(0, &features), report)
}

/// Back-to-back requests that share one thread's recycled layer buffers
/// — the largest scenario, the smallest, the largest again, each through
/// the dense, the pruned (at a sparse and a dense PAP mask) and the
/// accelerator entry points — give every observed block, every final
/// feature and every accelerator report bit for bit as a fresh thread
/// does. A buffer that kept a stale output sum, location slot or value
/// row would show here.
#[test]
fn recycled_layer_buffers_match_fresh_threads() {
    let gen = RequestGenerator::standard(&MsdaConfig::small(), 17).unwrap();
    let n_in = |id: u64| gen.scenario(gen.request(id).scenario).unwrap().config().n_in();
    let sizes: Vec<usize> = gen.scenarios().iter().map(|s| s.workload.config().n_in()).collect();
    let (large, small) = (*sizes.iter().max().unwrap(), *sizes.iter().min().unwrap());
    assert!(small < large);
    let pick = |want: usize, skip: usize| (0..).filter(|&id| n_in(id) == want).nth(skip).unwrap();
    let ids = [pick(large, 0), pick(small, 0), pick(large, 1)];
    let entries = [Entry::Dense, Entry::Pruned(0.05), Entry::Pruned(0.005), Entry::Accel];
    let jobs: Vec<(u64, Entry)> =
        ids.iter().flat_map(|&id| entries.iter().map(move |&e| (id, e))).collect();

    let recycled = std::thread::scope(|s| {
        s.spawn(|| {
            recycle_layer_buffers(|| {
                jobs.iter().map(|&(id, e)| run_entry(&gen, e, id)).collect::<Vec<_>>()
            })
        })
        .join()
        .unwrap()
    });
    for (&(id, entry), got) in jobs.iter().zip(&recycled) {
        let fresh = std::thread::scope(|s| s.spawn(|| run_entry(&gen, entry, id)).join().unwrap());
        assert_eq!(got, &fresh, "request {id} on {entry:?}");
    }
}

#[test]
fn pruned_pipeline_is_thread_count_invariant() {
    let cfg = MsdaConfig::small();
    let wl = SyntheticWorkload::generate(Benchmark::Dino, &cfg, 77).unwrap();
    let multi =
        with_num_threads(4, || run_pruned_encoder(&wl, &PruneSettings::paper_defaults()).unwrap());
    let single =
        with_num_threads(1, || run_pruned_encoder(&wl, &PruneSettings::paper_defaults()).unwrap());
    assert_eq!(multi.final_features, single.final_features);
    assert_eq!(multi.blocks.len(), single.blocks.len());
    for (m, s) in multi.blocks.iter().zip(&single.blocks) {
        assert_eq!(m.point_mask, s.point_mask);
        assert_eq!(m.fmap_mask, s.fmap_mask);
        assert_eq!(m.clamped_points, s.clamped_points);
        assert_eq!(m.retained_mass.to_bits(), s.retained_mass.to_bits());
    }
}

/// The full accelerator report — counters, MSGS stats, energy, area,
/// reduction ratios, fidelity — must be byte-identical between a
/// single-threaded and a default-threaded simulation.
#[test]
fn run_workload_report_is_byte_identical_across_thread_counts() {
    let cfg = MsdaConfig::small();
    let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 9).unwrap();
    let accel = DefaAccelerator::paper_default();
    let multi =
        with_num_threads(4, || accel.run_workload(&wl, &PruneSettings::paper_defaults()).unwrap());
    let single =
        with_num_threads(1, || accel.run_workload(&wl, &PruneSettings::paper_defaults()).unwrap());
    assert_eq!(format!("{multi:?}"), format!("{single:?}"));
    assert_eq!(multi.to_string(), single.to_string());
}
