//! The fold-in inference kernel — the serving-path counterpart of
//! Algorithm 2.
//!
//! One thread block = one held-out document (WarpLDA's warp-per-document
//! decomposition applies directly to fold-in). The block Gibbs-samples the
//! document's topic assignments against a *frozen* ϕ: the model matrices
//! are strictly read-only — no atomics, no ϕ-update kernel, no replica
//! sync phase — and the only mutable state is the document's private θ
//! counter vector, which lives with the block.
//!
//! Each token draw reuses the Figure 5 index tree: the dense per-token
//! weight vector `(θ_dk + α)·p*_w(k)` is rebuilt into an allocation-reused
//! tree and sampled in `O(log₃₂ K)` node scans, with the same traffic
//! accounting as the training sampler.
//!
//! Every document draws from its own deterministic RNG stream keyed by
//! `(seed, document stream id)`, so the inferred θ is bit-identical
//! regardless of micro-batch boundaries, worker count, or which simulated
//! GPU the document lands on.

use crate::butterfly::butterfly_p1_cost;
use crate::mode::DrawMode;
use crate::model::PhiModel;
use crate::ptree::{IndexTree, DEFAULT_FANOUT};
use culda_corpus::Xoshiro256;
use culda_gpusim::{BlockCtx, Device, KernelSpec, LaunchPhase, LaunchReport, SimFault};
use std::sync::Mutex;

/// Tuning for one inference launch.
#[derive(Debug, Clone, Copy)]
pub struct InferKernelConfig {
    /// Global RNG seed shared by the whole serving session.
    pub seed: u64,
    /// Gibbs sweeps discarded before θ accumulation starts.
    pub burnin: u32,
    /// Post-burn-in sweeps averaged into the θ estimate (0 = take the
    /// final sweep's counts).
    pub samples: u32,
    /// ϕ loads counted at 2 bytes (u16 precision compression) when true.
    pub compressed: bool,
    /// Cache θ, the weight vector, and the tree in shared memory when
    /// they fit (traffic accounting only; never changes the draw).
    pub use_shared_memory: bool,
    /// How the per-token draw over the dense K-length weight vector is
    /// charged: the tree walk, the butterfly coalesced scan
    /// ([`crate::butterfly`]), or per-document auto (tree while the
    /// vector is on-chip, butterfly once it spills). Traffic accounting
    /// only; never changes the draw.
    pub draw: DrawMode,
}

impl InferKernelConfig {
    /// Default configuration for a serving session with `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            burnin: 8,
            samples: 4,
            compressed: true,
            use_shared_memory: true,
            draw: DrawMode::Tree,
        }
    }

    /// Total Gibbs sweeps per document.
    pub fn sweeps(&self) -> u32 {
        (self.burnin + self.samples).max(1)
    }
}

/// One document of a micro-batch handed to the kernel.
#[derive(Debug, Clone, Copy)]
pub struct InferDoc<'a> {
    /// Global document id — keys the RNG stream, so results are
    /// independent of batching and worker assignment.
    pub stream_id: u64,
    /// Token word ids (each `< V`).
    pub words: &'a [u32],
}

/// Per-document fold-in result.
#[derive(Debug, Clone, PartialEq)]
pub struct DocPosterior {
    /// Accumulated post-burn-in topic counts (sum over `samples` sweeps;
    /// the final sweep's counts when `samples == 0`).
    pub theta_acc: Vec<u64>,
    /// Number of sweeps accumulated into `theta_acc` (≥ 1).
    pub acc_sweeps: u32,
    /// After each sweep `s`, the document's log-predictive under the
    /// running-average θ over sweeps `0..=s` — the burn-in curve.
    pub sweep_log_predictive: Vec<f64>,
}

impl DocPosterior {
    /// Normalized posterior topic mixture `θ̂` (sums to 1).
    pub fn theta(&self, doc_len: usize, alpha: f64, num_topics: usize) -> Vec<f64> {
        let denom = doc_len as f64 + alpha * num_topics as f64;
        self.theta_acc
            .iter()
            .map(|&c| (c as f64 / self.acc_sweeps as f64 + alpha) / denom)
            .collect()
    }
}

/// The shared fold-in math: kernel body and host oracle run this exact
/// code, differing only in whether traffic is charged to a [`BlockCtx`].
fn fold_in_doc(
    phi: &PhiModel,
    inv_denom: &[f32],
    doc: &InferDoc<'_>,
    cfg: &InferKernelConfig,
    mut ctx: Option<&mut BlockCtx>,
) -> DocPosterior {
    let k = phi.num_topics;
    let alpha = phi.priors.alpha as f32;
    let beta = phi.priors.beta as f32;
    let phi_elem_bytes = if cfg.compressed { 2 } else { 4 };
    let sweeps = cfg.sweeps();
    let first_acc = sweeps.saturating_sub(cfg.samples.max(1));

    // θ + weights + tree upper levels in shared memory when they fit.
    let shared_ok = cfg.use_shared_memory
        && ctx
            .as_deref()
            .is_some_and(|c| c.shared.fits::<f32>(2 * k + k / 16 + 64));
    // Serving auto rule mirrors the training kernel's: the tree walk while
    // the dense weight vector lives on-chip, the butterfly coalesced scan
    // once it spills. Charging only — the draw below never branches on it.
    let draw = match cfg.draw {
        DrawMode::Auto if shared_ok => DrawMode::Tree,
        DrawMode::Auto => DrawMode::Butterfly,
        fixed => fixed,
    };

    let mut theta = vec![0u32; k];
    let mut z: Vec<u16> = Vec::with_capacity(doc.words.len());
    let mut rng = Xoshiro256::from_seed_stream(cfg.seed, doc.stream_id);
    for &w in doc.words {
        debug_assert!((w as usize) < phi.vocab_size, "word id out of vocab");
        let t = rng.next_below(k as u32) as u16;
        theta[t as usize] += 1;
        z.push(t);
    }
    if let Some(c) = ctx.as_deref_mut() {
        // Random init: one θ bump + one z write per token.
        if shared_ok {
            c.shared_access(doc.words.len() * 4);
        }
        c.dram_write(doc.words.len() * 2);
    }

    let mut tree = IndexTree::build(&[1.0f32], DEFAULT_FANOUT);
    let mut weights = vec![0.0f32; k];
    let mut phi_row = vec![0u32; k];
    let mut run_acc = vec![0u64; k];
    let mut theta_acc = vec![0u64; k];
    let mut acc_sweeps = 0u32;
    let mut sweep_log_predictive = Vec::with_capacity(sweeps as usize);

    for sweep in 0..sweeps {
        for (i, &w) in doc.words.iter().enumerate() {
            let old = z[i] as usize;
            theta[old] -= 1;
            // Read the frozen ϕ row once through the hybrid layout (dense
            // head rows copy, sparse tail rows scatter their cells). The
            // arithmetic is unchanged, so posteriors are bit-identical to
            // the flat-indexed implementation.
            phi.phi.row_into(w as usize, &mut phi_row);
            for (t, slot) in weights.iter_mut().enumerate() {
                *slot = (theta[t] as f32 + alpha) * (phi_row[t] as f32 + beta) * inv_denom[t];
            }
            tree.rebuild(&weights);
            let u = rng.next_f32();
            let (knew, sh_touch, leaf_touch) = tree.sample_scaled(u * tree.total());
            z[i] = knew as u16;
            theta[knew] += 1;
            if let Some(c) = ctx.as_deref_mut() {
                // ϕ column + inv_denom loads, weight compute, tree
                // rebuild prefix adds, draw traffic, new-z write.
                c.dram_read(k * phi_elem_bytes + k * 4);
                c.flop(3 * k);
                match draw {
                    DrawMode::Butterfly => {
                        // Coalesced interleaved scan + one segment read for
                        // the final search window (the warp's 32 lanes
                        // cooperate on this one distribution, so every scan
                        // step is a full 128-byte segment).
                        let dc = butterfly_p1_cost(k, shared_ok);
                        c.dram_read(dc.dram_read);
                        c.dram_write(dc.dram_write);
                        c.shared_access(dc.shared);
                        c.flop(dc.flops);
                    }
                    _ => {
                        let onchip = k * 4 + (sh_touch + leaf_touch) * 4;
                        if shared_ok {
                            c.shared_access(onchip);
                        } else {
                            c.dram_read(onchip);
                        }
                    }
                }
                c.dram_write(2);
            }
        }
        for (t, slot) in run_acc.iter_mut().enumerate() {
            *slot += theta[t] as u64;
        }
        if sweep >= first_acc {
            for (t, slot) in theta_acc.iter_mut().enumerate() {
                *slot += theta[t] as u64;
            }
            acc_sweeps += 1;
        }
        sweep_log_predictive.push(log_predictive(
            phi,
            inv_denom,
            doc.words,
            &run_acc,
            sweep + 1,
            &mut phi_row,
        ));
        if let Some(c) = ctx.as_deref_mut() {
            // Scoring pass: one smoothed mixture dot product per token.
            c.flop(2 * k * doc.words.len());
        }
    }

    DocPosterior {
        theta_acc,
        acc_sweeps: acc_sweeps.max(1),
        sweep_log_predictive,
    }
}

/// Log-predictive `Σ_w ln Σ_k θ̂_k · p(w|k)` under the running-average θ
/// accumulated over `n` sweeps. All smoothing in f64 for scoring accuracy.
/// `phi_row` is K-length scratch for one ϕ row.
fn log_predictive(
    phi: &PhiModel,
    inv_denom: &[f32],
    words: &[u32],
    acc: &[u64],
    n: u32,
    phi_row: &mut [u32],
) -> f64 {
    if words.is_empty() {
        return 0.0;
    }
    let k = phi.num_topics;
    let alpha = phi.priors.alpha;
    let beta = phi.priors.beta;
    let denom = words.len() as f64 + alpha * k as f64;
    let theta_hat: Vec<f64> = acc
        .iter()
        .map(|&c| (c as f64 / n as f64 + alpha) / denom)
        .collect();
    let mut ll = 0.0;
    for &w in words {
        phi.phi.row_into(w as usize, phi_row);
        let mut p = 0.0f64;
        for (t, &th) in theta_hat.iter().enumerate() {
            p += th * (phi_row[t] as f64 + beta) * inv_denom[t] as f64;
        }
        ll += p.max(f64::MIN_POSITIVE).ln();
    }
    ll
}

/// Launches the fold-in kernel for one micro-batch on `device`: one block
/// per document, ϕ strictly read-only. Returns per-document posteriors in
/// input order plus the launch report.
///
/// Panics on a simulated fault; resilient callers use
/// [`try_run_infer_kernel`].
pub fn run_infer_kernel(
    device: &Device,
    phi: &PhiModel,
    inv_denom: &[f32],
    docs: &[InferDoc<'_>],
    cfg: &InferKernelConfig,
) -> (Vec<DocPosterior>, LaunchReport) {
    try_run_infer_kernel(device, phi, inv_denom, docs, cfg)
        .unwrap_or_else(|f| panic!("unrecoverable simulated fault: {f}"))
}

/// Fallible fold-in launch. ϕ is read-only and posteriors are derived from
/// per-document RNG streams, so a failed micro-batch can be re-run on any
/// device with bit-identical results.
pub fn try_run_infer_kernel(
    device: &Device,
    phi: &PhiModel,
    inv_denom: &[f32],
    docs: &[InferDoc<'_>],
    cfg: &InferKernelConfig,
) -> Result<(Vec<DocPosterior>, LaunchReport), SimFault> {
    assert!(!docs.is_empty(), "empty inference micro-batch");
    assert_eq!(inv_denom.len(), phi.num_topics, "inv_denom size");
    let slots: Vec<Mutex<Option<DocPosterior>>> = docs.iter().map(|_| Mutex::new(None)).collect();
    let spec = KernelSpec::new("lda_infer", docs.len() as u32).with_phase(LaunchPhase::Inference);
    let report = device.try_launch_spec(spec, |ctx: &mut BlockCtx| {
        let b = ctx.block_id as usize;
        let posterior = fold_in_doc(phi, inv_denom, &docs[b], cfg, Some(ctx));
        *slots[b].lock().unwrap() = Some(posterior);
    })?;
    let out = slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("block skipped a document"))
        .collect();
    Ok((out, report))
}

/// Host-side oracle: the exact posteriors the kernel must produce, using
/// the same RNG streams and tree code but no device and no concurrency.
pub fn infer_reference(
    phi: &PhiModel,
    inv_denom: &[f32],
    docs: &[InferDoc<'_>],
    cfg: &InferKernelConfig,
) -> Vec<DocPosterior> {
    docs.iter()
        .map(|d| fold_in_doc(phi, inv_denom, d, cfg, None))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyper::Priors;
    use crate::model::{accumulate_phi_host, ChunkState, PhiModel};
    use culda_corpus::{partition_by_tokens, SortedChunk, SynthSpec};
    use culda_gpusim::GpuSpec;

    fn trained_phi() -> (PhiModel, Vec<Vec<u32>>) {
        let corpus = SynthSpec::tiny().generate();
        let chunks = partition_by_tokens(&corpus, 1);
        let chunk = SortedChunk::build(&corpus, &chunks[0]);
        let state = ChunkState::init_random(&chunk, 12, 5);
        let phi = PhiModel::zeros(12, corpus.vocab_size(), Priors::paper(12));
        accumulate_phi_host(&chunk, &state.z, &phi);
        let docs: Vec<Vec<u32>> = corpus
            .docs
            .iter()
            .take(9)
            .map(|d| d.words.clone())
            .collect();
        (phi, docs)
    }

    fn as_infer_docs(docs: &[Vec<u32>]) -> Vec<InferDoc<'_>> {
        docs.iter()
            .enumerate()
            .map(|(i, d)| InferDoc {
                stream_id: i as u64,
                words: d,
            })
            .collect()
    }

    #[test]
    fn kernel_matches_reference_bit_for_bit() {
        let (phi, docs) = trained_phi();
        let inv = phi.inv_denominators();
        let cfg = InferKernelConfig::new(42);
        let batch = as_infer_docs(&docs);
        let expected = infer_reference(&phi, &inv, &batch, &cfg);
        let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(4);
        let (got, report) = run_infer_kernel(&dev, &phi, &inv, &batch, &cfg);
        assert_eq!(got, expected);
        assert!(report.sim_seconds > 0.0);
    }

    #[test]
    fn draw_modes_change_traffic_but_not_posteriors() {
        let (phi, docs) = trained_phi();
        let inv = phi.inv_denominators();
        let batch = as_infer_docs(&docs);
        let base = InferKernelConfig::new(42);
        let expected = infer_reference(&phi, &inv, &batch, &base);
        let mut traffic = Vec::new();
        for draw in [DrawMode::Tree, DrawMode::Butterfly, DrawMode::Auto] {
            let mut cfg = base;
            cfg.draw = draw;
            let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(2);
            let (got, report) = run_infer_kernel(&dev, &phi, &inv, &batch, &cfg);
            assert_eq!(got, expected, "draw={draw} changed posteriors");
            traffic.push(report.cost.shared_bytes + report.cost.dram_bytes());
        }
        // The butterfly charges a different traffic mix than the walk.
        assert_ne!(traffic[0], traffic[1]);
    }

    #[test]
    fn result_is_independent_of_batch_split_and_workers() {
        let (phi, docs) = trained_phi();
        let inv = phi.inv_denominators();
        let cfg = InferKernelConfig::new(7);
        let batch = as_infer_docs(&docs);
        let dev = Device::new(0, GpuSpec::v100_volta()).with_workers(3);
        let (whole, _) = run_infer_kernel(&dev, &phi, &inv, &batch, &cfg);
        // Same documents split across two launches on a different device:
        // per-document RNG streams make the split invisible.
        let dev2 = Device::new(1, GpuSpec::titan_x_maxwell()).with_workers(1);
        let (mut a, _) = run_infer_kernel(&dev2, &phi, &inv, &batch[..4], &cfg);
        let (b, _) = run_infer_kernel(&dev2, &phi, &inv, &batch[4..], &cfg);
        a.extend(b);
        assert_eq!(whole, a);
    }

    #[test]
    fn theta_is_normalized_and_positive() {
        let (phi, docs) = trained_phi();
        let inv = phi.inv_denominators();
        let cfg = InferKernelConfig::new(3);
        let batch = as_infer_docs(&docs);
        let post = infer_reference(&phi, &inv, &batch, &cfg);
        for (p, d) in post.iter().zip(&docs) {
            let theta = p.theta(d.len(), phi.priors.alpha, phi.num_topics);
            let sum: f64 = theta.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "theta sums to {sum}");
            assert!(theta.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn model_is_untouched_by_inference() {
        let (phi, docs) = trained_phi();
        let inv = phi.inv_denominators();
        let before: Vec<u32> = (0..phi.phi.len()).map(|i| phi.phi.load(i)).collect();
        let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(2);
        let batch = as_infer_docs(&docs);
        run_infer_kernel(&dev, &phi, &inv, &batch, &InferKernelConfig::new(1));
        let after: Vec<u32> = (0..phi.phi.len()).map(|i| phi.phi.load(i)).collect();
        assert_eq!(before, after, "inference must leave ϕ frozen");
    }

    #[test]
    fn empty_document_yields_uniform_theta() {
        let (phi, _) = trained_phi();
        let inv = phi.inv_denominators();
        let empty: Vec<u32> = Vec::new();
        let batch = [InferDoc {
            stream_id: 0,
            words: &empty,
        }];
        let post = infer_reference(&phi, &inv, &batch, &InferKernelConfig::new(9));
        let theta = post[0].theta(0, phi.priors.alpha, phi.num_topics);
        let expect = 1.0 / phi.num_topics as f64;
        assert!(theta.iter().all(|&x| (x - expect).abs() < 1e-12));
        assert!(post[0].sweep_log_predictive.iter().all(|&l| l == 0.0));
    }
}
