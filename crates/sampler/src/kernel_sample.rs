//! The LDA sampling kernel — Algorithm 2 and Figure 6.
//!
//! One thread block = 32 warp-samplers, all working on tokens of the *same
//! word* so they share that word's `p*(k)` vector and `p2` index tree in
//! shared memory (one tree serves both, since `p2 = α·p*`). Each sampler
//! draws its token's sparse `p1(k)` through a private index tree (or its
//! lane of the block's butterfly-interleaved scratch, [`crate::butterfly`]).
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
//! - The β-baseline `β·inv_denom[k]`, its prefix and its f64 mass are
//!   launch constants ([`SmoothedBaseline`]), and each executor's `p*`
//!   scratch holds the baseline between blocks. A block patches its row
//!   over it ([`CountMatrix::patch_smoothed`]): a sparse row writes only
//!   its cells. After the block, [`CountMatrix::restore_baseline`] puts the
//!   baseline back.
//! - The `p*` prefix is chained only in blocks that need it. The patch
//!   sums the row's mass in f64, which bounds the serial f32 total T
//!   ([`PatchedRow::total_bounds`]), and since f32 `·`, `+` and `/` are
//!   monotone, a token with `u_branch < S/(S + α·hi)` takes `p1` exactly as
//!   it would against T ([`takes_p1`]). The first token that fails this
//!   test (a `p2` draw, or a token within the bound's relative width of
//!   the threshold) runs the chain ([`SmoothedBaseline::chain`]), which
//!   writes the `p2` tree's leaves and returns T; later tokens decide
//!   against T, and a `p2` draw reads the prefix through it. Most blocks
//!   draw no `p2` token and never chain. The positive-finite check on T
//!   runs on every block, from the bounds when they show it and on the
//!   chained T otherwise. Debug builds check every decision and the bounds
//!   against the exact total, and poison the prefix until the chain runs.
//! - One `p1` engine in every draw mode: a sampler fills one contiguous
//!   prefix and draws from it. The butterfly interleave is charged, not
//!   built. The fill reads `p*` through a power-of-two mask and converts
//!   θ's counts through i32, which the launch's two checks make exact, so
//!   it runs without a bounds check or a 64-bit conversion, into a buffer
//!   that only grows.
//! - No index tree is built. A draw is a lower-bound search over the leaf
//!   prefix, and the walk's (shared, leaf) touches the model charges are
//!   computed from the drawn index ([`sample_prefix`]). The `p2` tree's
//!   depth and bytes follow from K.
//! - A sampler's run of tokens from one document (adjacent in the
//!   word-major sort) shares one `p1` prefix pass: θ and `p*` are
//!   read-only for the launch, and every charge is still made per token.
//! - The L1 model walks no lines: [`AscendingCache`] computes each θ-row
//!   load's missed lines in closed form from the previous load's line
//!   span, the count a line-by-line LRU walk ([`CacheSim`]) gives. That
//!   needs a block's loads never to move backwards, and they do not: a
//!   block is a contiguous slice of one word's tokens, which the
//!   word-major sort keeps in ascending document order; its samplers take
//!   contiguous sub-slices and run in order; and θ is CSR, so a later
//!   document's row starts at or after the end of an earlier one's. A
//!   repeated document loads exactly the same span again.
//! - The host buffers (`p*`, its prefix, the `p1` prefix, the L1 model)
//!   are made once per executor per launch and reused by every block it
//!   runs ([`run_grid_with`]); the L1 model is flushed per block.
//! - The sampler instruments are tallied in block locals and added to the
//!   registry once per block.
//!
//! [`sample_chunk_reference`] takes none of these shortcuts: per word it
//! fills `p*` and builds the full tree, and per token it computes the
//! weights, rebuilds the `p1` tree and walks both. It is the oracle every
//! shortcut is tested against.
//!
//! [`CountMatrix::patch_smoothed`]: crate::count::CountMatrix::patch_smoothed
//! [`CountMatrix::restore_baseline`]: crate::count::CountMatrix::restore_baseline
//! [`PatchedRow::total_bounds`]: crate::count::PatchedRow::total_bounds
//! [`SmoothedBaseline::chain`]: crate::count::SmoothedBaseline::chain
//! [`run_grid_with`]: culda_gpusim::kernel::run_grid_with
//! [`CacheSim`]: culda_gpusim::CacheSim
//!
//! Every token draws from its own deterministic RNG stream keyed by
//! `(seed, iteration, global token index)`, so results are bit-identical
//! regardless of block scheduling, worker-thread count, or how many GPUs
//! the corpus is spread over.

use crate::blockmap::{BlockWork, SAMPLERS_PER_BLOCK};
use crate::butterfly::{butterfly_p1_cost, p1_scratch_floats, search_steps, tree_p1_cost};
use crate::count::{pstar_block_cost, SmoothedBaseline};
use crate::mode::DrawMode;
use crate::model::{ChunkState, PhiModel};
use crate::ptree::{depth_for, sample_prefix, shared_bytes_for, IndexTree, DEFAULT_FANOUT};
use crate::spq::{p1_weights, takes_p1};
use culda_corpus::{CsrMatrix, SortedChunk, Xoshiro256};
use culda_gpusim::{
    AscendingCache, CacheConfig, Device, KernelSpec, LaunchPhase, LaunchReport, SimFault,
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

/// A block's sampler instruments, counted in locals and added to the
/// device's attached registry once per block. Depths are small integers,
/// so recording each with its count leaves the histogram's buckets, count
/// and sum exactly as one record per draw would.
#[derive(Default)]
struct DrawTally {
    /// p1 draws by recorded depth. Columns are u16, so K_d ≤ 65 536 and
    /// the deepest, `search_steps(65 536)`, is 17.
    p1_depths: [u64; 18],
    p2: u64,
    divergence: u64,
}

impl DrawTally {
    /// Adds the tally, and the block's one p* tree depth, to `metrics`.
    fn add_to(&self, metrics: &culda_metrics::MetricsRegistry, pstar_depth: usize) {
        metrics
            .counter("sampler.p1_draws")
            .add(self.p1_depths.iter().sum());
        metrics.counter("sampler.p2_draws").add(self.p2);
        metrics
            .counter("sampler.warp_divergence_events")
            .add(self.divergence);
        let depth = metrics.histogram("sampler.tree_depth");
        depth.record(pstar_depth as f64);
        for (d, &n) in self.p1_depths.iter().enumerate() {
            depth.record_n(d as f64, n);
        }
    }
}

/// A block gets a *slice* of its SM's L1 (several blocks share one SM):
/// 1/8 of the 24 KiB, 6 sets × 4 ways × 128 B.
const BLOCK_L1: CacheConfig = CacheConfig {
    line_bytes: 128,
    sets: 6,
    ways: 4,
};

/// One block executor's host storage, made once per launch and reused by
/// every block the executor runs. Between blocks `pstar` holds the launch
/// baseline: a block patches its row over it and puts the baseline back
/// ([`CountMatrix::restore_baseline`]). A block that chains overwrites the
/// prefix whole, each sampler fills its `p1` prefix before drawing, and
/// the L1 model is flushed per block.
///
/// [`CountMatrix::restore_baseline`]: crate::count::CountMatrix::restore_baseline
struct BlockScratch {
    /// The block's smoothed `p*(k)`, padded with unread entries to a power
    /// of two so the `p1` fill's masked gather needs no bounds check.
    pstar: Vec<f32>,
    /// Its inclusive prefix: the leaves of the block-shared `p2` tree,
    /// written only by a block that chains.
    prefix: Vec<f32>,
    /// One sampler's `p1` prefix at a time, in `p1[..K_d]`. It grows to
    /// the longest θ row and never shrinks.
    p1: Vec<f32>,
    /// The block's slice of its SM's L1 when index loads go through it.
    l1: Option<AscendingCache>,
}

impl BlockScratch {
    fn new(baseline: &SmoothedBaseline<'_>, use_l1: bool) -> Self {
        let base = baseline.values();
        let mut pstar = vec![0.0; base.len().next_power_of_two()];
        pstar[..base.len()].copy_from_slice(base);
        Self {
            pstar,
            prefix: vec![0.0; base.len()],
            p1: Vec::new(),
            l1: use_l1.then(|| AscendingCache::new(BLOCK_L1)),
        }
    }
}

/// Writes the inclusive prefix of `p1(k) = θ_{d,k}·p*(k)` over one θ row
/// into `p1[..K_d]`, growing `p1` first if it is shorter, and returns S,
/// its last entry (0 for an empty row). These are the products and serial
/// adds of [`p1_weights`] and a tree build's leaf pass, in their order, so
/// S and every prefix are bit-identical.
///
/// `pstar` has `mask + 1` entries, a power of two, so `c & mask` indexes
/// it without a bounds check. The launch has checked that θ has K ≤
/// `mask + 1` columns, so `c & mask == c`, and that every count fits i32,
/// so `(n as i32) as f32` is `n as f32`.
fn fill_p1(p1: &mut Vec<f32>, cols: &[u16], vals: &[u32], pstar: &[f32], mask: usize) -> f32 {
    let pstar = &pstar[..=mask];
    let kd = cols.len();
    if p1.len() < kd {
        p1.resize(kd, 0.0);
    }
    let mut acc = 0.0f32;
    for ((slot, &c), &n) in p1[..kd].iter_mut().zip(cols).zip(vals) {
        acc += (n as i32) as f32 * pstar[c as usize & mask];
        *slot = acc;
    }
    acc
}

/// Byte address and length of document `d`'s θ row as a sampler loads
/// it: CSR rows back to back, `entry_bytes` per non-zero. Within a block
/// these loads never move backwards (see the module doc), as
/// [`AscendingCache`] requires.
fn theta_row_span(theta: &CsrMatrix, d: usize, entry_bytes: usize) -> (u64, usize) {
    let (start, end) = theta.row_range(d);
    ((start * entry_bytes) as u64, (end - start) * entry_bytes)
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
/// assignments into `state.z`; model matrices are read-only. Injected
/// faults surface as [`SimFault`]. Because the kernel only *writes*
/// `state.z` (θ and ϕ are read-only), a failed launch can simply be re-run
/// — the kernel is idempotent.
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
    // The p1 fill gathers p* at θ's columns through a power-of-two mask and
    // converts θ's counts through i32; both are exact under these bounds.
    assert_eq!(state.theta.num_cols(), k, "θ/ϕ topic count mismatch");
    assert!(
        state.theta.max_value() <= i32::MAX as u32,
        "a θ count exceeds i32"
    );
    let mask = k.next_power_of_two() - 1;
    let alpha = phi.priors.alpha as f32;
    let beta = phi.priors.beta as f32;
    let phi_elem_bytes = if cfg.compressed { 2 } else { 4 };
    // A θ CSR entry: column index plus u32 count.
    let theta_entry_bytes = 4 + if cfg.compressed { 2 } else { 4 };
    let stream_seed = cfg.stream_seed();
    let baseline = SmoothedBaseline::new(beta, inv_denom);
    // The p* tree's shape depends on K alone: the depth and bytes the cost
    // model prices and the depth histogram records.
    let pstar_depth = depth_for(k, DEFAULT_FANOUT);
    let tree_bytes = k * 4 + shared_bytes_for(k, DEFAULT_FANOUT);

    let spec =
        KernelSpec::new("lda_sample", block_map.len() as u32).with_phase(LaunchPhase::Sampling);
    let scratch = || BlockScratch::new(&baseline, cfg.use_l1_for_indices);
    device.try_launch_spec_with(spec, scratch, |ctx, scratch| {
        let BlockScratch {
            pstar,
            prefix,
            p1,
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
        let max_kd = chunk.token_doc[work.tokens.clone()]
            .iter()
            .map(|&d| state.theta.row_nnz(d as usize))
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
        // The host patches the row over the baseline the scratch holds and
        // bounds its serial total T from the row's f64 mass; the chain that
        // writes the tree's leaf prefix and T runs only once a token needs
        // them (see the per-sampler phase).
        let row_nnz = phi.phi.row_nnz(word);
        let patch = phi.phi.patch_smoothed(word, &baseline, &mut pstar[..k]);
        let (lo, hi) = patch.total_bounds();
        // Debug builds poison the prefix until the chain writes it, and
        // check every branch and the bounds against the exact total.
        #[cfg(debug_assertions)]
        let exact_total = {
            prefix.fill(f32::NAN);
            let t = pstar[..k].iter().fold(0.0f32, |acc, &p| acc + p);
            assert!(
                lo.is_nan() || (lo <= t && t <= hi),
                "{t} outside [{lo}, {hi}]"
            );
            t
        };
        // An upper bound on T until `chained`, then T itself. Deciding
        // against the bound needs α ≥ 0 as well as bounds that show T
        // positive and finite.
        let mut total = hi;
        let mut chained = false;
        if !(lo > 0.0 && hi.is_finite() && alpha >= 0.0) {
            total = baseline.chain(&patch, &pstar[..k], prefix);
            chained = true;
            assert!(
                total > 0.0 && total.is_finite(),
                "distribution must have positive finite mass, got {total}"
            );
        }
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

        // Without a registry the tally costs one branch per token below;
        // with one, the block's tally is added once at its end. Recording
        // never touches traffic counters, so modelled time and sampled
        // topics are unaffected.
        let observed = ctx.metrics().is_some();
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
        let mut tally = DrawTally::default();
        for s in 0..SAMPLERS_PER_BLOCK {
            // The document whose p1 prefix (and S) `p1` holds for this
            // sampler. The word-major sort makes a document's tokens
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
                let (addr, row_bytes) = theta_row_span(&state.theta, d, theta_entry_bytes);
                if row_bytes > 0 {
                    match l1.as_mut() {
                        Some(cache) => {
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
                        let s_mass = fill_p1(p1, cols, vals, pstar, mask);
                        held = Some((d, s_mass));
                        s_mass
                    }
                };
                let mut rng =
                    Xoshiro256::from_seed_stream(stream_seed, cfg.chunk_token_offset + t as u64);
                let u_branch = rng.next_f32();
                let u_inner = rng.next_f32();
                // Against the bound, a p1 decision is the one T gives
                // (`takes_p1`); any other token chains first.
                let mut took_p1 = takes_p1(s_mass, alpha, total, u_branch);
                if !took_p1 && !chained {
                    total = baseline.chain(&patch, &pstar[..k], prefix);
                    chained = true;
                    took_p1 = takes_p1(s_mass, alpha, total, u_branch);
                }
                #[cfg(debug_assertions)]
                assert_eq!(
                    took_p1,
                    takes_p1(s_mass, alpha, exact_total, u_branch),
                    "branch of token {t} differs from the exact total's"
                );
                let (topic, sh_touch, leaf_touch) = if took_p1 {
                    let (idx, sh, lf) = sample_prefix(&p1[..kd], DEFAULT_FANOUT, u_inner * s_mass);
                    (cols[idx], sh, lf)
                } else {
                    let (k, sh, lf) = sample_prefix(prefix, DEFAULT_FANOUT, u_inner * total);
                    (k as u16, sh, lf)
                };
                if observed {
                    if took_p1 {
                        // Tree levels, or the butterfly's probe count.
                        tally.p1_depths[match draw {
                            DrawMode::Butterfly => search_steps(kd),
                            _ => depth_for(kd, DEFAULT_FANOUT),
                        }] += 1;
                    } else {
                        tally.p2 += 1;
                    }
                    // A branch flip between consecutive tokens of one warp-
                    // sampler is where lockstep execution would serialise.
                    if prev_branch.is_some_and(|p| p != took_p1) {
                        tally.divergence += 1;
                    }
                    prev_branch = Some(took_p1);
                }
                if took_p1 {
                    // `p1` draw traffic by layout: the tree walk served
                    // on-chip (or, when the per-sampler scratch spills, the
                    // warp's coalesced leaf writes and one segment per
                    // level), vs the butterfly's coalesced interleaved scan.
                    // The host searches the same contiguous prefix for both.
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
        if let Some(metrics) = ctx.metrics() {
            tally.add_to(metrics, pstar_depth);
        }
        phi.phi.restore_baseline(word, &baseline, &mut pstar[..k]);
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
    use crate::model::{accumulate_phi_host, build_theta_host};
    use culda_corpus::{partition_by_tokens, SynthSpec};
    use culda_gpusim::{CacheSim, GpuSpec};

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
        try_run_sampling_kernel(&dev, &chunk, &state, &phi, &inv, &map, &cfg).unwrap();
        assert_eq!(state.z.snapshot(), expected);

        // K = 4096, where the p* chain runs only in blocks that need it:
        // blocks that draw no p2 token never chain, blocks whose first p2
        // draw comes after sampler 0 chain after deciding sampler 0's
        // tokens against the bound, and a block with an empty θ row (S = 0)
        // chains for it.
        let (chunk, state, phi) = lazy_chain_setup();
        let inv = phi.inv_denominators();
        let map = build_block_map(&chunk, 64);
        let kinds = block_kinds(&chunk, &state, &phi, &map, &cfg);
        assert!(kinds.iter().all(|&n| n > 0), "block kinds {kinds:?}");
        let expected = sample_chunk_reference(&chunk, &state, &phi, &inv, &cfg);
        try_run_sampling_kernel(&dev, &chunk, &state, &phi, &inv, &map, &cfg).unwrap();
        assert_eq!(state.z.snapshot(), expected, "K = 4096");
    }

    /// A K = 4096 chunk of short documents, with the θ row of the first
    /// token's document emptied, so every token of that document has
    /// S = 0.
    fn lazy_chain_setup() -> (SortedChunk, ChunkState, PhiModel) {
        let corpus = {
            let mut spec = SynthSpec::tiny();
            spec.num_docs = 60;
            spec.vocab_size = 120;
            spec.avg_doc_len = 20.0;
            spec.generate()
        };
        let chunks = partition_by_tokens(&corpus, 1);
        let chunk = SortedChunk::build(&corpus, &chunks[0]);
        let k = 4096;
        let mut state = ChunkState::init_random(&chunk, k, 6);
        let phi = PhiModel::zeros(k, corpus.vocab_size(), Priors::paper(k));
        accumulate_phi_host(&chunk, &state.z, &phi);
        let emptied = chunk.token_doc[0] as usize;
        let rows: Vec<Vec<u32>> = (0..chunk.num_docs)
            .map(|d| {
                let mut row = vec![0u32; k];
                let (cols, vals) = state.theta.row(d);
                if d != emptied {
                    for (&c, &n) in cols.iter().zip(vals) {
                        row[c as usize] = n;
                    }
                }
                row
            })
            .collect();
        state.theta = CsrMatrix::from_dense_rows(&rows, k);
        (chunk, state, phi)
    }

    /// How many blocks of `map` draw no p2 token, draw their first one
    /// after sampler 0, and hold a token whose θ row is empty, from each
    /// token's exact branch.
    fn block_kinds(
        chunk: &SortedChunk,
        state: &ChunkState,
        phi: &PhiModel,
        map: &[BlockWork],
        cfg: &SampleConfig,
    ) -> [usize; 3] {
        let k = phi.num_topics;
        let inv = phi.inv_denominators();
        let (alpha, beta) = (phi.priors.alpha as f32, phi.priors.beta as f32);
        let (mut pstar, mut weights) = (vec![0.0f32; k], Vec::new());
        let mut kinds = [0; 3];
        for work in map {
            let word = chunk.word_ids[work.word_idx] as usize;
            phi.phi.fill_smoothed(word, beta, &inv, &mut pstar);
            let total = pstar.iter().fold(0.0f32, |acc, &p| acc + p);
            let first_p2 = (0..SAMPLERS_PER_BLOCK)
                .flat_map(|s| work.sampler_tokens(s).map(move |t| (s, t)))
                .find(|&(_, t)| {
                    let (cols, vals) = state.theta.row(chunk.token_doc[t] as usize);
                    let s_mass = p1_weights(cols, vals, &pstar, &mut weights);
                    let offset = cfg.chunk_token_offset + t as u64;
                    let u_branch =
                        Xoshiro256::from_seed_stream(cfg.stream_seed(), offset).next_f32();
                    !takes_p1(s_mass, alpha, total, u_branch)
                });
            match first_p2 {
                None => kinds[0] += 1,
                Some((s, _)) if s > 0 => kinds[1] += 1,
                Some(_) => {}
            }
            let docs = &chunk.token_doc[work.tokens.clone()];
            kinds[2] += usize::from(docs.iter().any(|&d| state.theta.row_nnz(d as usize) == 0));
        }
        kinds
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
            try_run_sampling_kernel(&dev, &chunk, &fresh, &phi, &inv, &map, &cfg).unwrap();
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
        try_run_sampling_kernel(&dev, &chunk, &state, &phi, &inv, &map, &cfg).unwrap();
        let z1 = state.z.snapshot();
        cfg.iteration = 1;
        try_run_sampling_kernel(&dev, &chunk, &state, &phi, &inv, &map, &cfg).unwrap();
        let z2 = state.z.snapshot();
        assert_ne!(z1, z2, "iterations must use fresh randomness");
    }

    #[test]
    fn all_assignments_in_range() {
        let (chunk, state, phi) = setup();
        let inv = phi.inv_denominators();
        let dev = Device::new(0, GpuSpec::titan_xp_pascal());
        let map = build_block_map(&chunk, 100);
        try_run_sampling_kernel(
            &dev,
            &chunk,
            &state,
            &phi,
            &inv,
            &map,
            &SampleConfig::new(1),
        )
        .unwrap();
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
        let with_shared =
            try_run_sampling_kernel(&dev_a, &chunk, &state, &phi, &inv, &map, &cfg).unwrap();
        cfg.use_shared_memory = false;
        let dev_b = Device::new(0, GpuSpec::titan_x_maxwell());
        let without =
            try_run_sampling_kernel(&dev_b, &chunk, &state, &phi, &inv, &map, &cfg).unwrap();
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
        let report = try_run_sampling_kernel(&dev, &chunk, &state, &phi, &inv, &map, &cfg).unwrap();
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
            let r = try_run_sampling_kernel(&dev, &chunk, &fresh, &phi, &inv, &map, &cfg).unwrap();
            outputs.push(fresh.z.snapshot());
            dram.push(r.cost.dram_read_bytes);
        }
        assert_eq!(outputs[0], outputs[1], "L1 must not change results");
        assert_ne!(dram[0], dram[1], "L1 must change the traffic mix");
    }

    /// What one launch leaves in a fresh registry: the p1, p2 and
    /// divergence counters, then the depth histogram's buckets, count and
    /// sum.
    type Readings = (u64, u64, u64, Vec<(f64, f64, u64)>, u64, f64);

    fn instrument_readings(
        chunk: &SortedChunk,
        state: &ChunkState,
        phi: &PhiModel,
        cfg: &SampleConfig,
    ) -> Readings {
        let inv = phi.inv_denominators();
        let expected = sample_chunk_reference(chunk, state, phi, &inv, cfg);
        let map = build_block_map(chunk, 256);
        let dev = Device::new(0, GpuSpec::titan_xp_pascal()).with_workers(2);
        let reg = std::sync::Arc::new(culda_metrics::MetricsRegistry::new());
        dev.attach_metrics(reg.clone());
        try_run_sampling_kernel(&dev, chunk, state, phi, &inv, &map, cfg).unwrap();
        assert_eq!(state.z.snapshot(), expected, "recording changed topics");
        let depth = reg.histogram("sampler.tree_depth");
        (
            reg.counter("sampler.p1_draws").value(),
            reg.counter("sampler.p2_draws").value(),
            reg.counter("sampler.warp_divergence_events").value(),
            depth.nonzero_buckets(),
            depth.count(),
            depth.sum(),
        )
    }

    #[test]
    fn sampler_instruments_are_pinned() {
        // Recorded before the instruments were tallied per block: every
        // counter and the depth histogram's buckets, count and sum. The
        // draws add up to the token count, one per token.
        let (chunk, state, phi) = setup();
        let cfg = SampleConfig::new(21);
        let tree = instrument_readings(&chunk, &state, &phi, &cfg);
        assert_eq!(
            tree,
            (3953, 4158, 2480, vec![(1.0, 2.0, 4324)], 4324, 4324.0),
            "K = 16, tree"
        );
        // Spilled at K = 4096: auto charges the butterfly and records its
        // search steps, so depths span both engines' scales.
        let (chunk, state, phi) = spill_setup();
        let mut cfg = SampleConfig::new(5);
        cfg.draw = DrawMode::Auto;
        let auto = instrument_readings(&chunk, &state, &phi, &cfg);
        let buckets = vec![(2.0, 4.0, 68), (4.0, 8.0, 81), (8.0, 16.0, 2879)];
        assert_eq!(
            auto,
            (2960, 708, 639, buckets, 3028, 26123.0),
            "K = 4096, auto"
        );
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
                dense_report =
                    try_run_sampling_kernel(&dev, &chunk, &fresh, &phi, &inv, &map, &cfg).unwrap();
                dense_z = fresh.z.snapshot();
            }
            cfg.sparse = true;
            let fresh = ChunkState {
                z: culda_gpusim::memory::AtomicU16Buf::from_vec(state.z.snapshot()),
                theta: state.theta.clone(),
            };
            let dev = Device::new(0, GpuSpec::titan_x_maxwell());
            let sparse_report =
                try_run_sampling_kernel(&dev, &chunk, &fresh, &phi, &inv, &map, &cfg).unwrap();
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
        // Topics 0/1 only, in a K-column θ.
        let mut state = ChunkState::init_random(&chunk, 2, 11);
        state.theta = build_theta_host(&chunk, &state.z, k);
        let phi = PhiModel::zeros(k, corpus.vocab_size(), Priors::paper(k));
        accumulate_phi_host(&chunk, &state.z, &phi);
        let inv = phi.inv_denominators();
        let map = build_block_map(&chunk, 256);
        let mut cfg = SampleConfig::new(5);
        let dev_a = Device::new(0, GpuSpec::titan_x_maxwell());
        let dense =
            try_run_sampling_kernel(&dev_a, &chunk, &state, &phi, &inv, &map, &cfg).unwrap();
        cfg.sparse = true;
        let dev_b = Device::new(0, GpuSpec::titan_x_maxwell());
        let sparse =
            try_run_sampling_kernel(&dev_b, &chunk, &state, &phi, &inv, &map, &cfg).unwrap();
        assert!(
            sparse.cost.dram_read_bytes * 2 < dense.cost.dram_read_bytes,
            "sparse {} vs dense {} DRAM bytes — wanted ≥2× cut",
            sparse.cost.dram_read_bytes,
            dense.cost.dram_read_bytes
        );
    }

    #[test]
    fn p1_fill_grows_only_and_equals_the_serial_weights_prefix() {
        // Rows longer and shorter than the buffer, empty and full, with
        // counts past 2²⁴ (where u32 → f32 rounds): every fill leaves S
        // and `p1[..K_d]` bit for bit `p1_weights` and a serial prefix
        // over it, through a padded p* scratch, and the buffer only grows.
        let k = 1000usize;
        let mask = k.next_power_of_two() - 1;
        let mut g = Xoshiro256::from_seed_stream(0xF111, 0);
        let mut pstar = vec![0.0f32; mask + 1];
        for p in &mut pstar[..k] {
            *p = g.next_f32() * 0.01;
        }
        let (mut p1, mut weights, mut longest) = (Vec::new(), Vec::new(), 0);
        for kd in [300usize, 31, 0, 1000, 1, 32, 33, 999, 5] {
            let cols: Vec<u16> = (0..kd).map(|i| (i * k / kd) as u16).collect();
            let vals: Vec<u32> = (0..kd).map(|_| 1 + g.next_below(1 << 26)).collect();
            let s = fill_p1(&mut p1, &cols, &vals, &pstar, mask);
            let want = p1_weights(&cols, &vals, &pstar[..k], &mut weights);
            assert_eq!(s.to_bits(), want.to_bits(), "K_d = {kd}: S");
            let mut acc = 0.0f32;
            for (j, &w) in weights.iter().enumerate() {
                acc += w;
                assert_eq!(p1[j].to_bits(), acc.to_bits(), "K_d = {kd}, entry {j}");
            }
            longest = longest.max(kd);
            assert_eq!(p1.len(), longest, "K_d = {kd}: buffer length");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds i32")]
    fn a_theta_count_past_i32_is_refused() {
        // The p1 fill converts θ's counts through i32, so a launch refuses
        // a θ whose largest count does not fit.
        let (chunk, mut state, phi) = setup();
        let mut rows = vec![vec![0u32; 16]; chunk.num_docs];
        rows[0][3] = 1 << 31;
        state.theta = CsrMatrix::from_dense_rows(&rows, 16);
        let inv = phi.inv_denominators();
        let dev = Device::new(0, GpuSpec::titan_x_maxwell());
        let map = build_block_map(&chunk, 256);
        try_run_sampling_kernel(
            &dev,
            &chunk,
            &state,
            &phi,
            &inv,
            &map,
            &SampleConfig::new(1),
        )
        .unwrap();
    }

    /// The spill-regime setup behind the draw-mode tests: K = 4096 keeps
    /// `p*` + tree on-chip (~34 KiB of 48) but the docs are long enough
    /// (avg ~150 distinct topics) that the per-sampler `p1` scratch cannot
    /// also fit — the regime where the tree path pays DRAM.
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
        let report = try_run_sampling_kernel(&dev, chunk, &fresh, phi, &inv, &map, cfg).unwrap();
        (fresh.z.snapshot(), report)
    }

    /// K = 1000, not a power of two, so the kernel's `p*` scratch is
    /// padded to 1024. Document lengths vary (log-normal σ = 0.8), so a
    /// sampler's θ rows shrink from one document to the next and the `p1`
    /// buffer holds a longer, stale prefix past the current row.
    fn shrinking_rows_setup() -> (SortedChunk, ChunkState, PhiModel) {
        let corpus = {
            let mut spec = SynthSpec::tiny();
            spec.num_docs = 60;
            spec.vocab_size = 40;
            spec.avg_doc_len = 60.0;
            spec.doc_len_sigma = 0.8;
            spec.generate()
        };
        let chunks = partition_by_tokens(&corpus, 1);
        let chunk = SortedChunk::build(&corpus, &chunks[0]);
        let k = 1000;
        let state = ChunkState::init_random(&chunk, k, 4);
        let phi = PhiModel::zeros(k, corpus.vocab_size(), Priors::paper(k));
        accumulate_phi_host(&chunk, &state.z, &phi);
        let shrinks = build_block_map(&chunk, 256).iter().any(|work| {
            (0..SAMPLERS_PER_BLOCK).any(|s| {
                let kd: Vec<usize> = work
                    .sampler_tokens(s)
                    .map(|t| state.theta.row_nnz(chunk.token_doc[t] as usize))
                    .collect();
                kd.windows(2).any(|w| w[1] < w[0])
            })
        });
        assert!(shrinks, "no sampler's θ rows shrink");
        (chunk, state, phi)
    }

    #[test]
    fn draw_modes_are_bit_identical_across_memory_configs() {
        // K = 16 under every memory config, and K = 1000 with shared memory
        // on: a padded p* scratch and shrinking p1 rows.
        let all = [(true, true), (false, true), (true, false)];
        for ((chunk, state, phi), configs) in
            [(setup(), &all[..]), (shrinking_rows_setup(), &all[..1])]
        {
            let inv = phi.inv_denominators();
            let cfg0 = SampleConfig::new(77);
            let expected = sample_chunk_reference(&chunk, &state, &phi, &inv, &cfg0);
            let k = phi.num_topics;
            for draw in [DrawMode::Tree, DrawMode::Butterfly, DrawMode::Auto] {
                for &(use_shared, use_l1) in configs {
                    let mut cfg = cfg0;
                    cfg.draw = draw;
                    cfg.use_shared_memory = use_shared;
                    cfg.use_l1_for_indices = use_l1;
                    let (z, _) = run_with_draw(&chunk, &state, &phi, &cfg);
                    assert_eq!(
                        z, expected,
                        "K = {k}: draw={draw} changed assignments (shared={use_shared}, l1={use_l1})"
                    );
                }
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
    fn block_theta_streams_match_the_lru_walk_access_by_access() {
        // K = 1024 and documents long enough for θ rows past K_d = 512,
        // longer than the block's 24-line L1 slice at either entry size.
        let corpus = {
            let mut spec = SynthSpec::tiny();
            spec.num_docs = 24;
            spec.vocab_size = 60;
            spec.avg_doc_len = 900.0;
            spec.generate()
        };
        let chunks = partition_by_tokens(&corpus, 1);
        let chunk = SortedChunk::build(&corpus, &chunks[0]);
        let state = ChunkState::init_random(&chunk, 1024, 7);
        assert!((0..chunk.num_docs).any(|d| state.theta.row_nnz(d) > 512));
        let capacity = BLOCK_L1.capacity();
        let mut sim = CacheSim::new(BLOCK_L1);
        let mut fast = AscendingCache::new(BLOCK_L1);
        let line = BLOCK_L1.line_bytes as u64;
        for entry_bytes in [6, 8] {
            for tokens_per_block in [64, 4096] {
                // Repeats of a row too long to stay resident, and rows that
                // start in the previous row's last line.
                let (mut thrashing_repeats, mut shared_lines) = (0, 0);
                for (b, work) in build_block_map(&chunk, tokens_per_block).iter().enumerate() {
                    sim.flush();
                    fast.flush();
                    let mut prev: Option<(u64, usize)> = None;
                    for t in (0..SAMPLERS_PER_BLOCK).flat_map(|s| work.sampler_tokens(s)) {
                        let d = chunk.token_doc[t] as usize;
                        let (addr, bytes) = theta_row_span(&state.theta, d, entry_bytes);
                        if bytes == 0 {
                            continue;
                        }
                        let missed = sim.access(addr, bytes);
                        assert_eq!(
                            fast.access(addr, bytes),
                            missed,
                            "{entry_bytes}-byte entries, block {b}, token {t}, doc {d}"
                        );
                        match prev {
                            Some(p) if p == (addr, bytes) => {
                                thrashing_repeats += usize::from(missed > 0 && bytes > capacity);
                            }
                            Some((a, n)) => {
                                shared_lines +=
                                    usize::from(addr / line == (a + n as u64 - 1) / line);
                            }
                            None => {}
                        }
                        prev = Some((addr, bytes));
                    }
                }
                assert!(thrashing_repeats > 0 && shared_lines > 0);
            }
        }
    }

    #[test]
    fn compression_reduces_dram_traffic() {
        let (chunk, state, phi) = setup();
        let inv = phi.inv_denominators();
        let map = build_block_map(&chunk, 256);
        let mut cfg = SampleConfig::new(9);
        let dev = Device::new(0, GpuSpec::titan_x_maxwell());
        let small = try_run_sampling_kernel(&dev, &chunk, &state, &phi, &inv, &map, &cfg).unwrap();
        cfg.compressed = false;
        let big = try_run_sampling_kernel(&dev, &chunk, &state, &phi, &inv, &map, &cfg).unwrap();
        assert!(small.cost.dram_read_bytes < big.cost.dram_read_bytes);
    }
}
