//! The LDA sampling kernel — Algorithm 2 and Figure 6.
//!
//! One thread block = 32 warp-samplers, all working on tokens of the *same
//! word* so they share that word's `p*(k)` vector and `p2` index tree in
//! shared memory (one tree serves both, since `p2 = α·p*`). Each sampler
//! draws its token's sparse `p1(k)` through a private index tree (or its
//! lane of the block's butterfly batch).
//!
//! The kernel is *read-only* with respect to the model: θ and ϕ are fixed
//! snapshots from the previous iteration's update kernels, and the only
//! writes are the new topic assignments `z` — this is what makes thousands
//! of concurrent samplers race-free, and it matches the paper's three-
//! kernel structure (sampling → update θ → update ϕ).
//!
//! ## What the host runs and what is modelled
//!
//! The cost model charges the kernel above: per block a ϕ row load, the
//! `p*` fill and the `p2` tree build; per token a θ row load through the
//! L1 model, the `p1` prefix, and a tree walk or butterfly scan. The host
//! computes the same topics with less work, none of which reaches a
//! charge:
//!
//! - The β-baseline `β·inv_denom[k]` and its prefix are launch constants
//!   ([`SmoothedBaseline`]). A block writes `p*` and its inclusive prefix
//!   in one pass ([`CountMatrix::fill_smoothed_prefix`]); a sparse row
//!   copies the baseline prefix up to its first nonzero column.
//! - No index tree is built. A draw is a lower-bound search over the leaf
//!   prefix, and the walk's (shared, leaf) touches the model charges are
//!   computed from the drawn index ([`sample_prefix`]). The `p2` tree's
//!   depth and bytes follow from K.
//! - A sampler's run of tokens from one document (adjacent in the
//!   word-major sort) shares one `p1` prefix pass: θ and `p*` are
//!   read-only for the launch, and every charge is still made per token.
//! - The host buffers (`p*`, its prefix, the `p1` prefix, the butterfly
//!   batch, the L1 model) are made once per executor per launch and
//!   reused by every block it runs ([`run_grid_with`]); the L1 model is
//!   flushed per block.
//!
//! [`sample_chunk_reference`] takes none of these shortcuts: per word it
//! fills `p*` and builds the full tree, and per token it computes the
//! weights, rebuilds the `p1` tree and walks both. It is the oracle every
//! shortcut is tested against.
//!
//! [`CountMatrix::fill_smoothed_prefix`]: crate::count::CountMatrix::fill_smoothed_prefix
//! [`run_grid_with`]: culda_gpusim::kernel::run_grid_with
//!
//! Every token draws from its own deterministic RNG stream keyed by
//! `(seed, iteration, global token index)`, so results are bit-identical
//! regardless of block scheduling, worker-thread count, or how many GPUs
//! the corpus is spread over.

use crate::blockmap::{BlockWork, SAMPLERS_PER_BLOCK};
use crate::butterfly::ButterflyBatch;
use crate::butterfly::{butterfly_p1_cost, p1_scratch_floats, search_steps, tree_p1_cost};
use crate::count::{pstar_block_cost, SmoothedBaseline};
use crate::mode::DrawMode;
use crate::model::{ChunkState, PhiModel};
use crate::ptree::{
    depth_for, prefix_into, sample_prefix, shared_bytes_for, IndexTree, DEFAULT_FANOUT,
};
use crate::spq::p1_weights;
use culda_corpus::{SortedChunk, Xoshiro256};
use culda_gpusim::warp::WARP_SIZE;
use culda_gpusim::{
    CacheConfig, CacheSim, Device, KernelSpec, LaunchPhase, LaunchReport, SimFault,
};

/// Tuning and bookkeeping for one sampling launch.
#[derive(Debug, Clone, Copy)]
pub struct SampleConfig {
    /// Global RNG seed shared by the whole training run.
    pub seed: u64,
    /// Current iteration (independent streams per iteration).
    pub iteration: u32,
    /// Global token offset of this chunk (stream ids span the corpus).
    pub chunk_token_offset: u64,
    /// Model ϕ with the u16 "precision compression" of Section 6.1.3 when
    /// true: ϕ loads and θ column indices are counted at 2 bytes instead
    /// of 4 (the ablation bench toggles this).
    pub compressed: bool,
    /// Whether `p*(k)` and the trees are cached in shared memory
    /// (Section 6.1.2/6.1.3). When false — or when K does not fit — their
    /// traffic is charged to DRAM instead (ablation).
    pub use_shared_memory: bool,
    /// Whether the sparse-matrix *index* loads (the θ CSR rows) go through
    /// the L1 data cache — the selective-caching choice of Section 6.1.2
    /// ("we let the sparse matrix index access instructions to use the L1
    /// cache"). When false they are plain coalesced DRAM loads (ablation).
    pub use_l1_for_indices: bool,
    /// Whether the block-shared `p*(k)` phase uses the sparsity-aware
    /// bucket decomposition: tail rows under the cutover stream only their
    /// CSR cells and patch the iteration-constant β-baseline, so per-block
    /// work scales with `nnz(row)` instead of `K`. Pure cost-model choice —
    /// sampled topics are bit-identical either way (`--sampling-mode`).
    pub sparse: bool,
    /// How samplers turn their per-token `p1` prefix into a topic: the
    /// classic private tree walk, the Steele–Tristan butterfly partial-sum
    /// path ([`crate::butterfly`]), or a per-block choice driven by the
    /// shared-memory spill predicate. Like `sparse`, this is cost-model
    /// only — sampled topics are bit-identical in every mode
    /// (`--draw-mode`).
    pub draw: DrawMode,
}

impl SampleConfig {
    /// Default configuration for a run with `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            iteration: 0,
            chunk_token_offset: 0,
            compressed: true,
            use_shared_memory: true,
            use_l1_for_indices: true,
            sparse: false,
            draw: DrawMode::Tree,
        }
    }

    fn stream_seed(&self) -> u64 {
        self.seed ^ (self.iteration as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Hot-path instrument handles, resolved once per block (never per token)
/// from the device's attached [`culda_metrics::MetricsRegistry`].
struct SamplerInstruments {
    p1_draws: std::sync::Arc<culda_metrics::Counter>,
    p2_draws: std::sync::Arc<culda_metrics::Counter>,
    divergence: std::sync::Arc<culda_metrics::Counter>,
    tree_depth: std::sync::Arc<culda_metrics::Histogram>,
}

/// One block executor's host storage, made once per launch and reused by
/// every block the executor runs. Nothing in it outlives its block's use:
/// the `p*` arrays are overwritten whole, each sampler fills its `p1`
/// prefix before drawing, and the L1 model is flushed per block.
struct BlockScratch {
    /// The block's smoothed `p*(k)`.
    pstar: Vec<f32>,
    /// Its inclusive prefix: the leaves of the block-shared `p2` tree.
    prefix: Vec<f32>,
    /// The tree engine's `p1` prefix, one sampler's at a time.
    p1: Vec<f32>,
    /// The butterfly engine's 32 interleaved lanes.
    batch: ButterflyBatch,
    /// The block's slice of its SM's L1 when index loads go through it.
    l1: Option<CacheSim>,
}

impl BlockScratch {
    fn new(k: usize, use_l1: bool) -> Self {
        Self {
            pstar: vec![0.0; k],
            prefix: vec![0.0; k],
            p1: Vec::new(),
            batch: ButterflyBatch::new(),
            // A block gets a *slice* of its SM's L1 (several blocks share
            // one SM): model 1/8 of the 24 KiB — 6 sets × 4 ways × 128 B.
            l1: use_l1.then(|| {
                CacheSim::new(CacheConfig {
                    line_bytes: 128,
                    sets: 6,
                    ways: 4,
                })
            }),
        }
    }
}

/// The machinery a block's samplers resolve their sparse `p1` draws with,
/// borrowed from the executor's scratch and filled by each sampler in
/// turn. Both engines hold the same serially-accumulated f32 prefix and
/// apply the same lower-bound rule over it, so the drawn topic is
/// bit-identical; they differ only in the modelled memory layout the
/// caller charges for ([`tree_p1_cost`] vs [`butterfly_p1_cost`]).
enum P1Engine<'s> {
    /// The classic private Figure-5 index tree, held as its leaf prefix.
    /// Reports the (shared, leaf) touch counts of the walk a built tree
    /// would make.
    Tree(&'s mut Vec<f32>),
    /// The block's butterfly-interleaved partial-sum batch; each sampler
    /// owns the lane of its warp slot. Touch counts are zero — the search
    /// runs over register-resident partials and the caller charges the
    /// coalesced-segment cost model instead.
    Butterfly(&'s mut ButterflyBatch),
}

impl P1Engine<'_> {
    /// One pass over a document's θ row: writes the inclusive prefix of
    /// `p1(k) = θ_{d,k} · p*(k)` straight into the engine's storage and
    /// returns `S`, its last entry — the same products in the same serial
    /// order as [`p1_weights`], so `S` and every prefix are bit-identical.
    fn fill(&mut self, lane: usize, cols: &[u16], vals: &[u32], pstar: &[f32]) -> f32 {
        let weights = cols
            .iter()
            .zip(vals)
            .map(|(&c, &n)| n as f32 * pstar[c as usize]);
        match self {
            P1Engine::Tree(prefix) => prefix_into(prefix, weights),
            P1Engine::Butterfly(batch) => batch.fill_lane(lane, weights),
        }
    }

    /// Draws from the filled prefix at `x ∈ [0, S)`: the index plus the
    /// walk's (shared, leaf) touches.
    fn select(&self, lane: usize, x: f32) -> (usize, usize, usize) {
        match self {
            P1Engine::Tree(prefix) => sample_prefix(prefix, DEFAULT_FANOUT, x),
            P1Engine::Butterfly(batch) => (batch.select(lane, x), 0, 0),
        }
    }

    /// The instrument-visible depth of a draw over `kd` entries: tree
    /// levels, or the butterfly's shuffle-compare probe count.
    fn depth(&self, kd: usize) -> usize {
        match self {
            P1Engine::Tree(_) => depth_for(kd, DEFAULT_FANOUT),
            P1Engine::Butterfly(_) => search_steps(kd),
        }
    }
}

/// Draws one token's topic the plain way — the weights, then a full tree
/// rebuild over them — for the host oracle. The kernel's fused path must
/// match it bit for bit.
#[allow(clippy::too_many_arguments)] // mirrors the CUDA kernel's register set
fn draw_token_reference(
    theta_cols: &[u16],
    theta_vals: &[u32],
    pstar: &[f32],
    block_tree: &IndexTree,
    alpha: f32,
    rng: &mut Xoshiro256,
    p1_tree: &mut IndexTree,
    weights: &mut Vec<f32>,
) -> u16 {
    let s = p1_weights(theta_cols, theta_vals, pstar, weights);
    let q = alpha * block_tree.total();
    let u_branch = rng.next_f32();
    let u_inner = rng.next_f32();
    if s > 0.0 && u_branch < s / (s + q) {
        p1_tree.rebuild(weights);
        theta_cols[p1_tree.sample_scaled(u_inner * s).0]
    } else {
        block_tree.sample_scaled(u_inner * block_tree.total()).0 as u16
    }
}

/// Launches the sampling kernel for one chunk on `device`. Writes new
/// assignments into `state.z`; model matrices are read-only.
///
/// Panics on a simulated fault; resilient callers use
/// [`try_run_sampling_kernel`].
pub fn run_sampling_kernel(
    device: &Device,
    chunk: &SortedChunk,
    state: &ChunkState,
    phi: &PhiModel,
    inv_denom: &[f32],
    block_map: &[BlockWork],
    cfg: &SampleConfig,
) -> LaunchReport {
    try_run_sampling_kernel(device, chunk, state, phi, inv_denom, block_map, cfg)
        .unwrap_or_else(|f| panic!("unrecoverable simulated fault: {f}"))
}

/// Fallible sampling launch: surfaces injected faults as [`SimFault`].
/// Because the kernel only *writes* `state.z` (θ and ϕ are read-only), a
/// failed launch can simply be re-run — the kernel is idempotent.
pub fn try_run_sampling_kernel(
    device: &Device,
    chunk: &SortedChunk,
    state: &ChunkState,
    phi: &PhiModel,
    inv_denom: &[f32],
    block_map: &[BlockWork],
    cfg: &SampleConfig,
) -> Result<LaunchReport, SimFault> {
    assert_eq!(state.z.len(), chunk.num_tokens(), "z/chunk mismatch");
    assert_eq!(inv_denom.len(), phi.num_topics, "inv_denom size");
    assert!(!block_map.is_empty(), "empty block map");
    let k = phi.num_topics;
    let alpha = phi.priors.alpha as f32;
    let beta = phi.priors.beta as f32;
    let phi_elem_bytes = if cfg.compressed { 2 } else { 4 };
    let theta_col_bytes = if cfg.compressed { 2 } else { 4 };
    let stream_seed = cfg.stream_seed();
    let baseline = SmoothedBaseline::new(beta, inv_denom);
    // The p* tree's shape depends on K alone: the depth and bytes the cost
    // model prices and the depth histogram records.
    let pstar_depth = depth_for(k, DEFAULT_FANOUT);
    let tree_bytes = k * 4 + shared_bytes_for(k, DEFAULT_FANOUT);

    let spec =
        KernelSpec::new("lda_sample", block_map.len() as u32).with_phase(LaunchPhase::Sampling);
    let scratch = || BlockScratch::new(k, cfg.use_l1_for_indices);
    device.try_launch_spec_with(spec, scratch, |ctx, scratch| {
        let BlockScratch {
            pstar,
            prefix,
            p1,
            batch,
            l1,
        } = scratch;
        let work = &block_map[ctx.block_id as usize];
        let word = chunk.word_ids[work.word_idx] as usize;

        // --- Block-shared phase: p*(k) and its index tree -----------------
        // Decide whether p* + prefix + upper levels fit the 48 KiB budget;
        // 2·K f32 plus ~K/31 of upper nodes, plus per-sampler scratch.
        let shared_ok = cfg.use_shared_memory && ctx.shared.fits::<f32>(2 * k + k / 16 + 64);
        // Worst-case θ-row support across the block's tokens: the block-map
        // metadata a real launch would carry (or one warp max-reduce).
        // Drives the p1 spill predicate the executor charges from and
        // `DrawMode::Auto` chooses from — one predicate, so the chooser can
        // never disagree with the charger.
        let max_kd = (0..SAMPLERS_PER_BLOCK)
            .flat_map(|s| work.sampler_tokens(s))
            .map(|t| state.theta.row(chunk.token_doc[t] as usize).0.len())
            .max()
            .unwrap_or(0);
        let p1_on_chip = shared_ok
            && ctx
                .shared
                .fits::<f32>(2 * k + k / 16 + 64 + p1_scratch_floats(max_kd));
        let draw = match cfg.draw {
            DrawMode::Auto if p1_on_chip => DrawMode::Tree,
            DrawMode::Auto => DrawMode::Butterfly,
            fixed => fixed,
        };
        if shared_ok {
            ctx.shared.claim::<f32>(k);
        }
        // ϕ row load + p* compute + tree build. The numbers are identical
        // on both paths (the hybrid layout's smoothed read is bit-exact);
        // only the *modelled* traffic depends on `cfg.sparse`: the dense
        // path streams all K ϕ entries, the sparse path streams only the
        // row's CSR cells and patches the iteration-constant β-baseline.
        // The host writes p* and the tree's leaf prefix in one pass.
        let row_nnz = phi.phi.row_nnz(word);
        let total = phi.phi.fill_smoothed_prefix(word, &baseline, pstar, prefix);
        assert!(
            total > 0.0 && total.is_finite(),
            "distribution must have positive finite mass, got {total}"
        );
        let pstar_cost = pstar_block_cost(
            k,
            row_nnz,
            phi_elem_bytes,
            tree_bytes,
            pstar_depth,
            shared_ok,
            cfg.sparse,
        );
        ctx.dram_read(pstar_cost.dram_read);
        ctx.flop(pstar_cost.flops);

        // Metric handles resolved once per block; `None` costs one branch
        // per token below. Recording never touches traffic counters, so
        // modelled time and sampled topics are unaffected.
        let instruments = ctx.metrics().map(|m| SamplerInstruments {
            p1_draws: m.counter("sampler.p1_draws"),
            p2_draws: m.counter("sampler.p2_draws"),
            divergence: m.counter("sampler.warp_divergence_events"),
            tree_depth: m.histogram("sampler.tree_depth"),
        });
        if let Some(ins) = &instruments {
            ins.tree_depth.record(pstar_depth as f64);
        }
        if shared_ok {
            // Prefix leaves + upper nodes written to shared memory.
            ctx.shared
                .claim::<u8>(tree_bytes.min(ctx.shared.available()));
            ctx.shared_access(pstar_cost.shared);
        } else {
            ctx.dram_write(pstar_cost.dram_write);
        }

        // --- Per-sampler phase --------------------------------------------
        // One cold L1 model per block (an SM's L1 serves the block's
        // warps): the θ CSR rows of a block's tokens often repeat (frequent
        // words co-occur with the same documents), which is what the
        // selective index caching of Section 6.1.2 exploits.
        if let Some(cache) = l1.as_mut() {
            cache.flush();
        }
        let mut engine = match draw {
            DrawMode::Butterfly => P1Engine::Butterfly(batch),
            _ => P1Engine::Tree(p1),
        };
        let q = alpha * total;
        for s in 0..SAMPLERS_PER_BLOCK {
            let lane = s % WARP_SIZE;
            // The document whose p1 prefix (and S) the engine holds for
            // this sampler. The word-major sort makes a document's tokens
            // of this word adjacent, and θ and p* are read-only for the
            // launch, so a run of them reuses one fill exactly.
            let mut held: Option<(usize, f32)> = None;
            let mut prev_branch: Option<bool> = None;
            for t in work.sampler_tokens(s) {
                let d = chunk.token_doc[t] as usize;
                ctx.dram_read(4); // token -> doc index
                let (cols, vals) = state.theta.row(d);
                let kd = cols.len();
                // θ row load (CSR: col idx + value per non-zero), optionally
                // through the L1 model: repeated rows hit, cold rows pay
                // full line fills.
                let row_bytes = kd * (theta_col_bytes + 4);
                if row_bytes > 0 {
                    match l1.as_mut() {
                        Some(cache) => {
                            let (start, _) = state.theta.row_range(d);
                            let addr = (start * (theta_col_bytes + 4)) as u64;
                            let missed = cache.access(addr, row_bytes);
                            ctx.dram_read(missed * cache.config().line_bytes);
                            ctx.shared_access(row_bytes); // L1-served
                        }
                        None => ctx.dram_read(row_bytes),
                    }
                }
                // p1 weights: one mul + one add each, p* served on-chip
                // when cached. Charged per token, whether or not the host
                // reuses the run's prefix.
                ctx.flop(2 * kd);
                if shared_ok {
                    ctx.shared_access(kd * 4);
                } else {
                    ctx.dram_read(kd * 4);
                }
                let s_mass = match held {
                    Some((doc, s_mass)) if doc == d => s_mass,
                    _ => {
                        let s_mass = if kd == 0 {
                            0.0
                        } else {
                            engine.fill(lane, cols, vals, pstar)
                        };
                        held = Some((d, s_mass));
                        s_mass
                    }
                };
                let mut rng =
                    Xoshiro256::from_seed_stream(stream_seed, cfg.chunk_token_offset + t as u64);
                let u_branch = rng.next_f32();
                let u_inner = rng.next_f32();
                let took_p1 = s_mass > 0.0 && u_branch < s_mass / (s_mass + q);
                let (topic, sh_touch, leaf_touch) = if took_p1 {
                    let (idx, sh, lf) = engine.select(lane, u_inner * s_mass);
                    (cols[idx], sh, lf)
                } else {
                    let (k, sh, lf) = sample_prefix(prefix, DEFAULT_FANOUT, u_inner * total);
                    (k as u16, sh, lf)
                };
                if let Some(ins) = &instruments {
                    if took_p1 {
                        ins.p1_draws.inc();
                        ins.tree_depth.record(engine.depth(kd) as f64);
                    } else {
                        ins.p2_draws.inc();
                    }
                    // A branch flip between consecutive tokens of one warp-
                    // sampler is where lockstep execution would serialise.
                    if prev_branch.is_some_and(|p| p != took_p1) {
                        ins.divergence.inc();
                    }
                    prev_branch = Some(took_p1);
                }
                if took_p1 {
                    // `p1` draw traffic by engine: the tree walk served
                    // on-chip (or strided sector-per-touch DRAM when the
                    // per-sampler scratch spills), vs the butterfly's
                    // coalesced interleaved scan.
                    let dc = match draw {
                        DrawMode::Butterfly => butterfly_p1_cost(kd, p1_on_chip),
                        _ => tree_p1_cost(kd, sh_touch, leaf_touch, p1_on_chip),
                    };
                    ctx.dram_read(dc.dram_read);
                    ctx.dram_write(dc.dram_write);
                    ctx.shared_access(dc.shared);
                    ctx.flop(dc.flops);
                } else {
                    // `p2` walk over the block-shared tree: node scans in
                    // shared (or DRAM when the shared path is disabled).
                    let walk_bytes = (sh_touch + leaf_touch) * 4;
                    if shared_ok {
                        ctx.shared_access(walk_bytes);
                    } else {
                        ctx.dram_read(walk_bytes);
                    }
                }
                ctx.flop(kd); // p1 prefix-sum adds (identical in every mode)
                state.z.store(t, topic);
                ctx.dram_write(2);
            }
        }
    })
}

/// Host-side oracle: computes the exact assignments the kernel must
/// produce, using the same per-token RNG streams and tree code but no
/// device, no blocks, no concurrency, and no reuse between tokens: every
/// token computes its weights and rebuilds its tree from scratch. Tests
/// compare `z` buffers.
pub fn sample_chunk_reference(
    chunk: &SortedChunk,
    state: &ChunkState,
    phi: &PhiModel,
    inv_denom: &[f32],
    cfg: &SampleConfig,
) -> Vec<u16> {
    let k = phi.num_topics;
    let alpha = phi.priors.alpha as f32;
    let beta = phi.priors.beta as f32;
    let stream_seed = cfg.stream_seed();
    let mut out = vec![0u16; chunk.num_tokens()];
    let mut pstar = vec![0.0f32; k];
    for (wi, &w) in chunk.word_ids.iter().enumerate() {
        phi.phi
            .fill_smoothed(w as usize, beta, inv_denom, &mut pstar);
        let block_tree = IndexTree::build(&pstar, DEFAULT_FANOUT);
        let mut p1_tree = IndexTree::build(&[1.0f32], DEFAULT_FANOUT);
        let mut weights = Vec::new();
        for t in chunk.word_tokens(wi) {
            let d = chunk.token_doc[t] as usize;
            let (cols, vals) = state.theta.row(d);
            let mut rng =
                Xoshiro256::from_seed_stream(stream_seed, cfg.chunk_token_offset + t as u64);
            out[t] = draw_token_reference(
                cols,
                vals,
                &pstar,
                &block_tree,
                alpha,
                &mut rng,
                &mut p1_tree,
                &mut weights,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockmap::build_block_map;
    use crate::hyper::Priors;
    use crate::model::accumulate_phi_host;
    use culda_corpus::{partition_by_tokens, SynthSpec};
    use culda_gpusim::GpuSpec;

    fn setup() -> (SortedChunk, ChunkState, PhiModel) {
        let corpus = SynthSpec::tiny().generate();
        let chunks = partition_by_tokens(&corpus, 1);
        let chunk = SortedChunk::build(&corpus, &chunks[0]);
        let state = ChunkState::init_random(&chunk, 16, 11);
        let phi = PhiModel::zeros(16, corpus.vocab_size(), Priors::paper(16));
        accumulate_phi_host(&chunk, &state.z, &phi);
        (chunk, state, phi)
    }

    #[test]
    fn kernel_matches_reference_bit_for_bit() {
        let (chunk, state, phi) = setup();
        let inv = phi.inv_denominators();
        let cfg = SampleConfig::new(77);
        let expected = sample_chunk_reference(&chunk, &state, &phi, &inv, &cfg);

        let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(4);
        let map = build_block_map(&chunk, 128);
        run_sampling_kernel(&dev, &chunk, &state, &phi, &inv, &map, &cfg);
        assert_eq!(state.z.snapshot(), expected);
    }

    #[test]
    fn result_is_independent_of_block_size_and_workers() {
        let (chunk, state, phi) = setup();
        let inv = phi.inv_denominators();
        let cfg = SampleConfig::new(3);
        let mut runs = Vec::new();
        for (tpb, workers) in [(32usize, 1usize), (512, 2), (4096, 7)] {
            let fresh = ChunkState {
                z: culda_gpusim::memory::AtomicU16Buf::from_vec(state.z.snapshot()),
                theta: state.theta.clone(),
            };
            let dev = Device::new(0, GpuSpec::v100_volta()).with_workers(workers);
            let map = build_block_map(&chunk, tpb);
            run_sampling_kernel(&dev, &chunk, &fresh, &phi, &inv, &map, &cfg);
            runs.push(fresh.z.snapshot());
        }
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }

    #[test]
    fn different_iterations_resample_differently() {
        let (chunk, state, phi) = setup();
        let inv = phi.inv_denominators();
        let dev = Device::new(0, GpuSpec::titan_x_maxwell());
        let map = build_block_map(&chunk, 256);
        let mut cfg = SampleConfig::new(5);
        run_sampling_kernel(&dev, &chunk, &state, &phi, &inv, &map, &cfg);
        let z1 = state.z.snapshot();
        cfg.iteration = 1;
        run_sampling_kernel(&dev, &chunk, &state, &phi, &inv, &map, &cfg);
        let z2 = state.z.snapshot();
        assert_ne!(z1, z2, "iterations must use fresh randomness");
    }

    #[test]
    fn all_assignments_in_range() {
        let (chunk, state, phi) = setup();
        let inv = phi.inv_denominators();
        let dev = Device::new(0, GpuSpec::titan_xp_pascal());
        let map = build_block_map(&chunk, 100);
        run_sampling_kernel(
            &dev,
            &chunk,
            &state,
            &phi,
            &inv,
            &map,
            &SampleConfig::new(1),
        );
        for z in state.z.snapshot() {
            assert!((z as usize) < 16);
        }
    }

    #[test]
    fn shared_memory_path_is_cheaper_than_dram_path() {
        let (chunk, state, phi) = setup();
        let inv = phi.inv_denominators();
        let map = build_block_map(&chunk, 256);
        let mut cfg = SampleConfig::new(9);

        let dev_a = Device::new(0, GpuSpec::titan_x_maxwell());
        let with_shared = run_sampling_kernel(&dev_a, &chunk, &state, &phi, &inv, &map, &cfg);
        cfg.use_shared_memory = false;
        let dev_b = Device::new(0, GpuSpec::titan_x_maxwell());
        let without = run_sampling_kernel(&dev_b, &chunk, &state, &phi, &inv, &map, &cfg);
        assert!(
            with_shared.cost.dram_bytes() < without.cost.dram_bytes(),
            "shared path must reduce DRAM traffic"
        );
        assert!(with_shared.sim_seconds <= without.sim_seconds);
    }

    #[test]
    fn k_10000_overflows_shared_memory_and_still_samples_correctly() {
        // The paper's K ranges 1k–10k. At K = 10,000 the p* array plus its
        // tree is ~80 KiB — over the 48 KiB budget — so the kernel must
        // fall back to the DRAM path, still matching the reference.
        let corpus = {
            let mut spec = SynthSpec::tiny();
            spec.num_docs = 40;
            spec.vocab_size = 80;
            spec.avg_doc_len = 15.0;
            spec.generate()
        };
        let chunks = partition_by_tokens(&corpus, 1);
        let chunk = SortedChunk::build(&corpus, &chunks[0]);
        let k = 10_000;
        let state = ChunkState::init_random(&chunk, k, 2);
        let phi = PhiModel::zeros(k, corpus.vocab_size(), Priors::paper(k));
        accumulate_phi_host(&chunk, &state.z, &phi);
        let inv = phi.inv_denominators();
        let cfg = SampleConfig::new(8);
        let expected = sample_chunk_reference(&chunk, &state, &phi, &inv, &cfg);
        let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(2);
        let map = build_block_map(&chunk, 64);
        let report = run_sampling_kernel(&dev, &chunk, &state, &phi, &inv, &map, &cfg);
        assert_eq!(state.z.snapshot(), expected);
        // The fallback path must have charged the p* arrays to DRAM.
        assert!(report.cost.dram_bytes() > 0);
    }

    #[test]
    fn l1_routing_changes_traffic_but_not_assignments() {
        let (chunk, state, phi) = setup();
        let inv = phi.inv_denominators();
        let map = build_block_map(&chunk, 512);
        let mut outputs = Vec::new();
        let mut dram = Vec::new();
        for l1 in [true, false] {
            let fresh = ChunkState {
                z: culda_gpusim::memory::AtomicU16Buf::from_vec(state.z.snapshot()),
                theta: state.theta.clone(),
            };
            let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(2);
            let mut cfg = SampleConfig::new(13);
            cfg.use_l1_for_indices = l1;
            let r = run_sampling_kernel(&dev, &chunk, &fresh, &phi, &inv, &map, &cfg);
            outputs.push(fresh.z.snapshot());
            dram.push(r.cost.dram_read_bytes);
        }
        assert_eq!(outputs[0], outputs[1], "L1 must not change results");
        assert_ne!(dram[0], dram[1], "L1 must change the traffic mix");
    }

    #[test]
    fn metrics_recording_does_not_change_assignments() {
        let (chunk, state, phi) = setup();
        let inv = phi.inv_denominators();
        let cfg = SampleConfig::new(21);
        let map = build_block_map(&chunk, 256);
        let expected = sample_chunk_reference(&chunk, &state, &phi, &inv, &cfg);

        let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(4);
        let reg = std::sync::Arc::new(culda_metrics::MetricsRegistry::new());
        dev.attach_metrics(reg.clone());
        run_sampling_kernel(&dev, &chunk, &state, &phi, &inv, &map, &cfg);
        assert_eq!(state.z.snapshot(), expected);

        // Every token took exactly one branch; depth was sampled per block.
        let draws =
            reg.counter("sampler.p1_draws").value() + reg.counter("sampler.p2_draws").value();
        assert_eq!(draws as usize, chunk.num_tokens());
        assert!(reg.histogram("sampler.tree_depth").count() > 0);
    }

    #[test]
    fn sparse_mode_is_bit_identical_and_never_models_more_time() {
        let (chunk, state, phi) = setup();
        let inv = phi.inv_denominators();
        let map = build_block_map(&chunk, 256);
        for (use_shared, use_l1) in [(true, true), (false, true), (true, false)] {
            let mut cfg = SampleConfig::new(77);
            cfg.use_shared_memory = use_shared;
            cfg.use_l1_for_indices = use_l1;
            let dense_z;
            let dense_report;
            {
                let fresh = ChunkState {
                    z: culda_gpusim::memory::AtomicU16Buf::from_vec(state.z.snapshot()),
                    theta: state.theta.clone(),
                };
                let dev = Device::new(0, GpuSpec::titan_x_maxwell());
                dense_report = run_sampling_kernel(&dev, &chunk, &fresh, &phi, &inv, &map, &cfg);
                dense_z = fresh.z.snapshot();
            }
            cfg.sparse = true;
            let fresh = ChunkState {
                z: culda_gpusim::memory::AtomicU16Buf::from_vec(state.z.snapshot()),
                theta: state.theta.clone(),
            };
            let dev = Device::new(0, GpuSpec::titan_x_maxwell());
            let sparse_report = run_sampling_kernel(&dev, &chunk, &fresh, &phi, &inv, &map, &cfg);
            assert_eq!(
                fresh.z.snapshot(),
                dense_z,
                "sparse mode changed assignments (shared={use_shared}, l1={use_l1})"
            );
            assert!(
                sparse_report.sim_seconds <= dense_report.sim_seconds,
                "sparse modelled more time than dense (shared={use_shared}, l1={use_l1})"
            );
            assert!(sparse_report.cost.dram_read_bytes <= dense_report.cost.dram_read_bytes);
        }
    }

    #[test]
    fn sparse_mode_cuts_phi_traffic_on_a_tail_heavy_model() {
        // A converged-looking ϕ: every word concentrated in 2 topics out
        // of 1024. Sparse-mode blocks stream CSR cells instead of K-wide
        // rows, so the modelled ϕ bytes collapse.
        let corpus = {
            let mut spec = SynthSpec::tiny();
            spec.num_docs = 40;
            spec.vocab_size = 80;
            spec.avg_doc_len = 15.0;
            spec.generate()
        };
        let chunks = partition_by_tokens(&corpus, 1);
        let chunk = SortedChunk::build(&corpus, &chunks[0]);
        let k = 1024;
        let state = ChunkState::init_random(&chunk, 2, 11); // topics 0/1 only
        let phi = PhiModel::zeros(k, corpus.vocab_size(), Priors::paper(k));
        accumulate_phi_host(&chunk, &state.z, &phi);
        let inv = phi.inv_denominators();
        let map = build_block_map(&chunk, 256);
        let mut cfg = SampleConfig::new(5);
        let dev_a = Device::new(0, GpuSpec::titan_x_maxwell());
        let dense = run_sampling_kernel(&dev_a, &chunk, &state, &phi, &inv, &map, &cfg);
        cfg.sparse = true;
        let dev_b = Device::new(0, GpuSpec::titan_x_maxwell());
        let sparse = run_sampling_kernel(&dev_b, &chunk, &state, &phi, &inv, &map, &cfg);
        assert!(
            sparse.cost.dram_read_bytes * 2 < dense.cost.dram_read_bytes,
            "sparse {} vs dense {} DRAM bytes — wanted ≥2× cut",
            sparse.cost.dram_read_bytes,
            dense.cost.dram_read_bytes
        );
    }

    /// The spill-regime setup behind the draw-mode tests: K = 4096 keeps
    /// `p*` + tree on-chip (~34 KiB of 48) but the docs are long enough
    /// (avg ~150 distinct topics) that the per-sampler `p1` scratch cannot
    /// also fit — the regime where the tree path pays strided DRAM.
    fn spill_setup() -> (SortedChunk, ChunkState, PhiModel) {
        let corpus = {
            let mut spec = SynthSpec::tiny();
            spec.num_docs = 24;
            spec.vocab_size = 60;
            spec.avg_doc_len = 150.0;
            spec.generate()
        };
        let chunks = partition_by_tokens(&corpus, 1);
        let chunk = SortedChunk::build(&corpus, &chunks[0]);
        let k = 4096;
        let state = ChunkState::init_random(&chunk, k, 3);
        let phi = PhiModel::zeros(k, corpus.vocab_size(), Priors::paper(k));
        accumulate_phi_host(&chunk, &state.z, &phi);
        (chunk, state, phi)
    }

    fn run_with_draw(
        chunk: &SortedChunk,
        state: &ChunkState,
        phi: &PhiModel,
        cfg: &SampleConfig,
    ) -> (Vec<u16>, culda_gpusim::LaunchReport) {
        let inv = phi.inv_denominators();
        let map = build_block_map(chunk, 256);
        let fresh = ChunkState {
            z: culda_gpusim::memory::AtomicU16Buf::from_vec(state.z.snapshot()),
            theta: state.theta.clone(),
        };
        let dev = Device::new(0, GpuSpec::titan_xp_pascal());
        let report = run_sampling_kernel(&dev, chunk, &fresh, phi, &inv, &map, cfg);
        (fresh.z.snapshot(), report)
    }

    #[test]
    fn draw_modes_are_bit_identical_across_memory_configs() {
        let (chunk, state, phi) = setup();
        let inv = phi.inv_denominators();
        let cfg0 = SampleConfig::new(77);
        let expected = sample_chunk_reference(&chunk, &state, &phi, &inv, &cfg0);
        for draw in [DrawMode::Tree, DrawMode::Butterfly, DrawMode::Auto] {
            for (use_shared, use_l1) in [(true, true), (false, true), (true, false)] {
                let mut cfg = cfg0;
                cfg.draw = draw;
                cfg.use_shared_memory = use_shared;
                cfg.use_l1_for_indices = use_l1;
                let (z, _) = run_with_draw(&chunk, &state, &phi, &cfg);
                assert_eq!(
                    z, expected,
                    "draw={draw} changed assignments (shared={use_shared}, l1={use_l1})"
                );
            }
        }
    }

    #[test]
    fn butterfly_cuts_dram_when_scratch_spills_at_k4096() {
        let (chunk, state, phi) = spill_setup();
        let mut cfg = SampleConfig::new(77);
        cfg.draw = DrawMode::Tree;
        let (z_tree, tree) = run_with_draw(&chunk, &state, &phi, &cfg);
        cfg.draw = DrawMode::Butterfly;
        let (z_fly, fly) = run_with_draw(&chunk, &state, &phi, &cfg);
        assert_eq!(z_fly, z_tree, "draw mode changed assignments");
        assert!(
            fly.cost.dram_bytes() < tree.cost.dram_bytes(),
            "butterfly {} vs tree {} DRAM bytes — wanted a cut",
            fly.cost.dram_bytes(),
            tree.cost.dram_bytes()
        );
        assert!(fly.sim_seconds <= tree.sim_seconds);
    }

    #[test]
    fn auto_resolves_to_the_cheaper_engine_per_regime() {
        // Spill regime: every block's scratch overflows, so auto must
        // charge exactly what the fixed butterfly mode charges and never
        // model more time than the tree.
        let (chunk, state, phi) = spill_setup();
        let mut cfg = SampleConfig::new(5);
        cfg.draw = DrawMode::Tree;
        let (z_tree, tree) = run_with_draw(&chunk, &state, &phi, &cfg);
        cfg.draw = DrawMode::Butterfly;
        let (_, fly) = run_with_draw(&chunk, &state, &phi, &cfg);
        cfg.draw = DrawMode::Auto;
        let (z_auto, auto) = run_with_draw(&chunk, &state, &phi, &cfg);
        assert_eq!(z_auto, z_tree);
        assert_eq!(auto.cost.dram_bytes(), fly.cost.dram_bytes());
        assert!(auto.sim_seconds <= tree.sim_seconds);

        // On-chip regime: scratch fits, auto resolves to the tree walk and
        // charges exactly its numbers.
        let (chunk, state, phi) = setup();
        let mut cfg = SampleConfig::new(5);
        cfg.draw = DrawMode::Tree;
        let (_, tree) = run_with_draw(&chunk, &state, &phi, &cfg);
        cfg.draw = DrawMode::Auto;
        let (_, auto) = run_with_draw(&chunk, &state, &phi, &cfg);
        assert_eq!(auto.cost.dram_bytes(), tree.cost.dram_bytes());
        assert_eq!(auto.cost.shared_bytes, tree.cost.shared_bytes);
    }

    #[test]
    fn compression_reduces_dram_traffic() {
        let (chunk, state, phi) = setup();
        let inv = phi.inv_denominators();
        let map = build_block_map(&chunk, 256);
        let mut cfg = SampleConfig::new(9);
        let dev = Device::new(0, GpuSpec::titan_x_maxwell());
        let small = run_sampling_kernel(&dev, &chunk, &state, &phi, &inv, &map, &cfg);
        cfg.compressed = false;
        let big = run_sampling_kernel(&dev, &chunk, &state, &phi, &inv, &map, &cfg);
        assert!(small.cost.dram_read_bytes < big.cost.dram_read_bytes);
    }
}
