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
//! Each token draw is charged as a walk of the Figure 5 index tree over
//! the dense per-token weight vector `(θ_dk + α)·p*_w(k)`: `O(log₃₂ K)`
//! node scans, with the same traffic accounting as the training sampler.
//! A scored launch ([`InferKernelConfig::score`]) also scores, after every
//! sweep, the document's log-predictive under the running-average θ,
//! charged per token as flops, and after the last sweep, uncharged, its
//! log-predictive under the final θ̂. A serving launch skips the scoring
//! and its charge. The scoring moves no byte, so on a memory-bound launch
//! the modelled seconds are the same either way.
//!
//! ## What the host runs and what is modelled
//!
//! The host computes the same topics and scores with less work, none of
//! which reaches a charge:
//!
//! - No index tree is built. A token writes its weights and their
//!   inclusive prefix in one pass ([`prefix_into`]), draws with a
//!   lower-bound search over the prefix, and the walk's (shared, leaf)
//!   touches the model charges are computed from the drawn index
//!   ([`walk_touches`]). The total is still checked positive and finite
//!   per token.
//! - Each scored sweep, and the final θ̂, scores every *distinct* word
//!   once: one `p` and one `ln` per word, summed over the tokens in token
//!   order, so the f64 additions are the per-token ones. The distinct
//!   words' `p` chains run [`SCORE_LANES`] side by side; each keeps its
//!   own topic order (Steele & Tristan's independent partial-sum chains),
//!   so every `p` is bit-identical.
//! - The draws read cached factors. θ + α is kept as f32 and rewritten at
//!   the two topics a token changes. The counts of a document's first
//!   distinct words are read once per document, one row read each, into
//!   two caches of fixed size ([`CACHE_CELLS`]): the smoothed counts
//!   `c + β` in f32 for the draws, and, in a scored launch, in f64 for the
//!   scoring, topic-major in tiles of [`SCORE_LANES`] words. A token's
//!   weight is then two multiplies of the same f32 values, in the same
//!   order. Other words' rows are read once per use with
//!   [`CountMatrix::row_into`].
//!   No host buffer grows with distinct words × K: request documents are
//!   untrusted.
//! - The host buffers are made once per executor per launch and reused by
//!   every block it runs ([`run_grid_with`]).
//!
//! [`infer_reference`] takes none of these shortcuts: per token it reads
//! the ϕ row, rebuilds the tree and walks it, and per scored sweep and
//! for the final θ̂ it scores every token on its own. It is the oracle
//! the kernel's posteriors and charges are tested against.
//!
//! [`CountMatrix::row_into`]: crate::count::CountMatrix::row_into
//! [`run_grid_with`]: culda_gpusim::kernel::run_grid_with
//!
//! Every document draws from its own deterministic RNG stream keyed by
//! `(seed, document stream id)`, so the inferred θ is bit-identical
//! regardless of micro-batch boundaries, worker count, or which simulated
//! GPU the document lands on.

use crate::model::PhiModel;
use crate::ptree::{lower_bound, prefix_into, walk_touches, IndexTree, DEFAULT_FANOUT};
use culda_corpus::Xoshiro256;
use culda_gpusim::{BlockCtx, Device, KernelSpec, LaunchPhase, LaunchReport, SimFault};
use std::sync::Mutex;

/// Distinct words whose scoring chains one pass interleaves.
pub const SCORE_LANES: usize = 8;

/// Cells of each of the executor's two count caches: the f32 smoothed
/// rows of a document's first `CACHE_CELLS / K` distinct words, which its
/// draws read, and the f64 tiles of its first `CACHE_CELLS / (SCORE_LANES·K)`
/// groups of distinct words, which its scoring reads. Fixed, so no request
/// can grow them.
pub const CACHE_CELLS: usize = 16 * 1024;

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
    /// Score every sweep's log-predictive into
    /// [`DocPosterior::sweep_log_predictive`] and charge its flops, and
    /// the final θ̂'s into [`DocPosterior::log_predictive`]. Evaluation
    /// scores and serving does not; scoring never changes a draw.
    pub score: bool,
}

impl InferKernelConfig {
    /// Default configuration for a scored session with `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            burnin: 8,
            samples: 4,
            compressed: true,
            use_shared_memory: true,
            score: true,
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
    /// running-average θ over sweeps `0..=s` — the burn-in curve. Empty
    /// when the launch was not scored.
    pub sweep_log_predictive: Vec<f64>,
    /// The document's log-predictive `Σ_w ln p(w | θ̂, ϕ)` under the final
    /// estimate θ̂ ([`Self::theta`]); `None` when the launch was not
    /// scored. Not charged: it scores the result, not a sweep.
    pub log_predictive: Option<f64>,
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

/// One document's modelled charges, resolved once per block and made per
/// token and per sweep. The kernel and the oracle charge through it, so
/// their reports differ only if their draws do.
struct DocCharges {
    k: usize,
    phi_elem_bytes: usize,
    /// θ, the weights and the tree's upper levels fit shared memory.
    shared_ok: bool,
}

impl DocCharges {
    fn new(k: usize, cfg: &InferKernelConfig, ctx: &BlockCtx) -> Self {
        // θ + weights + tree upper levels in shared memory when they fit.
        let shared_ok = cfg.use_shared_memory && ctx.shared.fits::<f32>(2 * k + k / 16 + 64);
        Self {
            k,
            phi_elem_bytes: if cfg.compressed { 2 } else { 4 },
            shared_ok,
        }
    }

    /// Random init: one θ bump + one z write per token.
    fn init(&self, c: &mut BlockCtx, tokens: usize) {
        if self.shared_ok {
            c.shared_access(tokens * 4);
        }
        c.dram_write(tokens * 2);
    }

    /// One token draw whose tree walk touches `sh_touch` upper entries and
    /// `leaf_touch` leaves: ϕ column + inv_denom loads, weight compute,
    /// tree rebuild prefix adds, the walk's traffic (on-chip when it fits
    /// shared memory), new-z write.
    fn draw(&self, c: &mut BlockCtx, sh_touch: usize, leaf_touch: usize) {
        let k = self.k;
        c.dram_read(k * self.phi_elem_bytes + k * 4);
        c.flop(3 * k);
        let onchip = k * 4 + (sh_touch + leaf_touch) * 4;
        if self.shared_ok {
            c.shared_access(onchip);
        } else {
            c.dram_read(onchip);
        }
        c.dram_write(2);
    }

    /// Scoring pass: one smoothed mixture dot product per token.
    fn score(&self, c: &mut BlockCtx, tokens: usize) {
        c.flop(2 * self.k * tokens);
    }
}

/// Draws the document's random initial topics into `z` and counts them
/// into `theta` (zeroed here).
fn init_topics(
    doc: &InferDoc<'_>,
    vocab_size: usize,
    rng: &mut Xoshiro256,
    theta: &mut [u32],
    z: &mut Vec<u16>,
) {
    theta.fill(0);
    z.clear();
    for &w in doc.words {
        debug_assert!((w as usize) < vocab_size, "word id out of vocab");
        let t = rng.next_below(theta.len() as u32) as u16;
        theta[t as usize] += 1;
        z.push(t);
    }
}

/// `θ̂_k = (acc_k / n + α) / (len + αK)`: the running-average topic mixture
/// over `n` sweeps, in f64 for scoring accuracy.
fn theta_hat_into(acc: &[u64], n: u32, len: usize, alpha: f64, out: &mut [f64]) {
    let denom = len as f64 + alpha * acc.len() as f64;
    for (slot, &c) in out.iter_mut().zip(acc) {
        *slot = (c as f64 / n as f64 + alpha) / denom;
    }
}

/// Writes `c as f32 + β`, the smoothed counts a draw multiplies, into
/// `out`.
fn smooth_into(counts: &[u32], beta: f32, out: &mut [f32]) {
    for (cell, &c) in out.iter_mut().zip(counts) {
        *cell = c as f32 + beta;
    }
}

/// Writes `c as f64 + β`, the smoothed counts the scoring multiplies, into
/// lane `l` of a tile: topic `t` at `t·SCORE_LANES + l`.
fn set_lane(tile: &mut [f64], l: usize, counts: &[u32], beta: f64) {
    for (cell, &c) in tile[l..].iter_mut().step_by(SCORE_LANES).zip(counts) {
        *cell = c as f64 + beta;
    }
}

/// The draws' smoothed counts `c + β` (f32) of a document's first `cached`
/// distinct words, made once per document from one row read each; any
/// other word's row is read into `counts` and smoothed into `row` each
/// time it is used.
#[derive(Debug)]
struct RowCache {
    k: usize,
    cells: Vec<f32>,
    cached: usize,
    /// One ϕ row as read.
    counts: Vec<u32>,
    row: Vec<f32>,
}

impl RowCache {
    fn new(k: usize) -> Self {
        Self {
            k,
            cells: vec![0.0; CACHE_CELLS / k * k],
            cached: 0,
            counts: vec![0; k],
            row: vec![0.0; k],
        }
    }

    /// Caches the smoothed counts of as many of the leading distinct
    /// `words` as fit. `lane(j, counts)` gets each cached word's row as
    /// read, so the caller can build from the same read.
    fn fill(&mut self, phi: &PhiModel, words: &[u32], mut lane: impl FnMut(usize, &[u32])) {
        self.cached = (self.cells.len() / self.k).min(words.len());
        let rows = self.cells.chunks_exact_mut(self.k);
        for (j, (&w, cells)) in words[..self.cached].iter().zip(rows).enumerate() {
            phi.phi.row_into(w as usize, &mut self.counts);
            smooth_into(&self.counts, phi.priors.beta as f32, cells);
            lane(j, &self.counts);
        }
    }

    /// Word `w`'s ϕ row as read, cached or not.
    fn read(&mut self, phi: &PhiModel, w: u32) -> &[u32] {
        phi.phi.row_into(w as usize, &mut self.counts);
        &self.counts
    }

    /// The smoothed counts of distinct word `j`, whose id is `w`.
    fn get(&mut self, phi: &PhiModel, j: usize, w: u32) -> &[f32] {
        let k = self.k;
        if j < self.cached {
            &self.cells[j * k..(j + 1) * k]
        } else {
            phi.phi.row_into(w as usize, &mut self.counts);
            smooth_into(&self.counts, phi.priors.beta as f32, &mut self.row);
            &self.row
        }
    }
}

/// A document's distinct words, with one slot per token, and the smoothed
/// ϕ counts the host keeps of them: f32 rows for the draws, and f64 tiles
/// for a scored launch's scoring, both made from one row read per word.
/// The scoring pass computes one `p` and one `ln` per distinct word and
/// sums them per token through the slots. The index is O(document length);
/// the count caches are fixed, and an unscored launch has no tiles.
#[derive(Debug)]
struct DocWords {
    /// Whether the launch scores; `ln_p`, `tiles` and `spare` stay empty
    /// when it does not.
    score: bool,
    /// Sort scratch: `(word << 32) | token position`.
    keys: Vec<u64>,
    /// Each token's index into `words`.
    slot: Vec<u32>,
    /// The distinct word ids, ascending.
    words: Vec<u32>,
    /// The current sweep's `ln p` of each distinct word.
    ln_p: Vec<f64>,
    rows: RowCache,
    /// The tiles of the first `tiled` groups of [`SCORE_LANES`] distinct
    /// words, one after another: lane `l` of group `g` ([`set_lane`])
    /// holds distinct word `g·SCORE_LANES + l`.
    tiles: Vec<f64>,
    tiled: usize,
    /// The tile of one group past `tiles`, rebuilt each sweep.
    spare: Vec<f64>,
}

impl DocWords {
    fn new(k: usize, score: bool) -> Self {
        let (tiles, spare) = if score {
            let group_cells = SCORE_LANES * k;
            let tiles = vec![0.0; CACHE_CELLS / group_cells * group_cells];
            (tiles, vec![0.0; group_cells])
        } else {
            (Vec::new(), Vec::new())
        };
        Self {
            score,
            keys: Vec::new(),
            slot: Vec::new(),
            words: Vec::new(),
            ln_p: Vec::new(),
            rows: RowCache::new(k),
            tiles,
            tiled: 0,
            spare,
        }
    }

    /// Indexes `doc` and fills the draws' count cache, and in a scored
    /// launch the scoring tiles, reading each cached word's row once. A
    /// sort, not a hash table: word ids come from the request, and no
    /// choice of them can make a sort quadratic.
    fn build(&mut self, phi: &PhiModel, doc: &[u32]) {
        assert!(
            u32::try_from(doc.len()).is_ok(),
            "a document of {} tokens overflows the u32 token slots",
            doc.len()
        );
        self.keys.clear();
        self.keys.extend(
            doc.iter()
                .enumerate()
                .map(|(i, &w)| (w as u64) << 32 | i as u64),
        );
        self.keys.sort_unstable();
        self.slot.resize(doc.len(), 0);
        self.words.clear();
        for &key in &self.keys {
            let w = (key >> 32) as u32;
            if self.words.last() != Some(&w) {
                self.words.push(w);
            }
            self.slot[key as u32 as usize] = (self.words.len() - 1) as u32;
        }
        let group_cells = SCORE_LANES * self.rows.k;
        self.tiled = 0;
        if self.score {
            self.ln_p.resize(self.words.len(), 0.0);
            self.tiled =
                (self.tiles.len() / group_cells).min(self.words.len().div_ceil(SCORE_LANES));
        }
        let tiled_words = (self.tiled * SCORE_LANES).min(self.words.len());
        let tiles = &mut self.tiles;
        self.rows.fill(phi, &self.words, |j, counts| {
            if j < tiled_words {
                let tile = &mut tiles[j / SCORE_LANES * group_cells..];
                set_lane(tile, j % SCORE_LANES, counts, phi.priors.beta);
            }
        });
        // Every tiled word was cached, so its lane is written: both caches
        // hold `CACHE_CELLS` cells, and a tile holds SCORE_LANES rows.
        debug_assert!(tiled_words <= self.rows.cached);
    }

    /// Token `i`'s smoothed counts, `c as f32 + β` per topic.
    fn smoothed(&mut self, phi: &PhiModel, i: usize) -> &[f32] {
        let s = self.slot[i] as usize;
        self.rows.get(phi, s, self.words[s])
    }

    /// [`log_predictive`]'s sum from one `p` and one `ln` per distinct
    /// word: each `p` is the same f64 chain over the topics in ascending
    /// order, and the `ln`s are added per token in token order, so the
    /// result is bit for bit the per-token one. A group's [`SCORE_LANES`]
    /// chains run side by side.
    fn log_predictive(&mut self, phi: &PhiModel, inv_denom: &[f32], theta_hat: &[f64]) -> f64 {
        let group_cells = SCORE_LANES * self.rows.k;
        let groups = self.words.chunks(SCORE_LANES);
        for (g, (group, ln_p)) in groups.zip(self.ln_p.chunks_mut(SCORE_LANES)).enumerate() {
            // A short last group computes its spare lanes over stale
            // counts and discards them. A group past the tiles reads its
            // rows again: the draw cache's f32 values are not `c + β` in
            // f64.
            let tile: &[f64] = if g < self.tiled {
                &self.tiles[g * group_cells..(g + 1) * group_cells]
            } else {
                for (l, &w) in group.iter().enumerate() {
                    set_lane(&mut self.spare, l, self.rows.read(phi, w), phi.priors.beta);
                }
                &self.spare
            };
            let mut p = [0.0f64; SCORE_LANES];
            let topics = theta_hat.iter().zip(inv_denom);
            for ((&th, &inv), smoothed) in topics.zip(tile.as_chunks::<SCORE_LANES>().0) {
                let inv = inv as f64;
                for (acc, &cb) in p.iter_mut().zip(smoothed) {
                    *acc += th * cb * inv;
                }
            }
            for (out, &p) in ln_p.iter_mut().zip(&p) {
                *out = p.max(f64::MIN_POSITIVE).ln();
            }
        }
        let mut ll = 0.0;
        for &s in &self.slot {
            ll += self.ln_p[s as usize];
        }
        ll
    }
}

/// One block executor's host storage, made once per launch and reused by
/// every document it runs. Each document overwrites what it reads before
/// reading it, so nothing reaches the next document's results.
struct InferScratch {
    theta: Vec<u32>,
    /// `θ_k as f32 + α`, the draws' other factor, rewritten at each topic
    /// `theta` changes.
    theta_alpha: Vec<f32>,
    z: Vec<u16>,
    /// The current token's weight prefix.
    prefix: Vec<f32>,
    /// The scoring's running θ sum and θ̂; empty in an unscored launch.
    run_acc: Vec<u64>,
    theta_hat: Vec<f64>,
    words: DocWords,
}

impl InferScratch {
    /// Storage for topic count `k`; the scoring's only when `score`.
    fn new(k: usize, score: bool) -> Self {
        let scored = if score { k } else { 0 };
        Self {
            theta: vec![0; k],
            theta_alpha: vec![0.0; k],
            z: Vec::new(),
            prefix: vec![0.0; k],
            run_acc: vec![0; scored],
            theta_hat: vec![0.0; scored],
            words: DocWords::new(k, score),
        }
    }
}

/// The kernel body: one document folded in against the frozen ϕ, with
/// every charge of [`fold_in_doc_reference`] and bit-identical posteriors.
fn fold_in_doc(
    phi: &PhiModel,
    inv_denom: &[f32],
    doc: &InferDoc<'_>,
    cfg: &InferKernelConfig,
    ctx: &mut BlockCtx,
    scratch: &mut InferScratch,
) -> DocPosterior {
    let InferScratch {
        theta,
        theta_alpha,
        z,
        prefix,
        run_acc,
        theta_hat,
        words,
    } = scratch;
    let k = phi.num_topics;
    let alpha = phi.priors.alpha as f32;
    let sweeps = cfg.sweeps();
    let first_acc = sweeps.saturating_sub(cfg.samples.max(1));
    let charges = DocCharges::new(k, cfg, ctx);

    let mut rng = Xoshiro256::from_seed_stream(cfg.seed, doc.stream_id);
    init_topics(doc, phi.vocab_size, &mut rng, theta, z);
    charges.init(ctx, doc.words.len());
    for (a, &t) in theta_alpha.iter_mut().zip(theta.iter()) {
        *a = t as f32 + alpha;
    }

    words.build(phi, doc.words);
    run_acc.fill(0);
    let mut theta_acc = vec![0u64; k];
    let mut acc_sweeps = 0u32;
    let mut sweep_log_predictive = Vec::with_capacity(if cfg.score { sweeps as usize } else { 0 });

    for sweep in 0..sweeps {
        for (i, zi) in z.iter_mut().enumerate() {
            let old = *zi as usize;
            theta[old] -= 1;
            theta_alpha[old] = theta[old] as f32 + alpha;
            // The tree's leaf pass, without the tree: the oracle's
            // `(θ as f32 + α) * (c as f32 + β) * inv` from its two cached
            // factors, and the serial prefix of `IndexTree::rebuild`.
            let weights = theta_alpha
                .iter()
                .zip(words.smoothed(phi, i))
                .zip(inv_denom)
                .map(|((&a, &cb), &inv)| a * cb * inv);
            let total = prefix_into(prefix, weights);
            assert!(
                total > 0.0 && total.is_finite(),
                "distribution must have positive finite mass, got {total}"
            );
            let u = rng.next_f32();
            let knew = lower_bound(prefix, u * total);
            let (sh_touch, leaf_touch) = walk_touches(k, DEFAULT_FANOUT, knew);
            *zi = knew as u16;
            theta[knew] += 1;
            theta_alpha[knew] = theta[knew] as f32 + alpha;
            charges.draw(ctx, sh_touch, leaf_touch);
        }
        debug_assert!(
            theta_alpha
                .iter()
                .zip(theta.iter())
                .all(|(&a, &t)| a == t as f32 + alpha),
            "θ + α out of step with θ"
        );
        if sweep >= first_acc {
            for (slot, &t) in theta_acc.iter_mut().zip(theta.iter()) {
                *slot += t as u64;
            }
            acc_sweeps += 1;
        }
        if cfg.score {
            for (slot, &t) in run_acc.iter_mut().zip(theta.iter()) {
                *slot += t as u64;
            }
            theta_hat_into(
                run_acc,
                sweep + 1,
                doc.words.len(),
                phi.priors.alpha,
                theta_hat,
            );
            sweep_log_predictive.push(words.log_predictive(phi, inv_denom, theta_hat));
            charges.score(ctx, doc.words.len());
        }
    }

    let acc_sweeps = acc_sweeps.max(1);
    let log_predictive = cfg.score.then(|| {
        let len = doc.words.len();
        theta_hat_into(&theta_acc, acc_sweeps, len, phi.priors.alpha, theta_hat);
        words.log_predictive(phi, inv_denom, theta_hat)
    });
    DocPosterior {
        theta_acc,
        acc_sweeps,
        sweep_log_predictive,
        log_predictive,
    }
}

/// The oracle's body: the naive fold-in, with the kernel's charges.
/// Per token it reads the ϕ row, rebuilds the Figure 5 tree over the
/// weights and walks it; per scored sweep, and for the final θ̂, it
/// scores every token on its own.
fn fold_in_doc_reference(
    phi: &PhiModel,
    inv_denom: &[f32],
    doc: &InferDoc<'_>,
    cfg: &InferKernelConfig,
    ctx: &mut BlockCtx,
) -> DocPosterior {
    let k = phi.num_topics;
    let alpha = phi.priors.alpha as f32;
    let beta = phi.priors.beta as f32;
    let sweeps = cfg.sweeps();
    let first_acc = sweeps.saturating_sub(cfg.samples.max(1));
    let charges = DocCharges::new(k, cfg, ctx);

    let mut theta = vec![0u32; k];
    let mut z: Vec<u16> = Vec::with_capacity(doc.words.len());
    let mut rng = Xoshiro256::from_seed_stream(cfg.seed, doc.stream_id);
    init_topics(doc, phi.vocab_size, &mut rng, &mut theta, &mut z);
    charges.init(ctx, doc.words.len());

    let mut tree = IndexTree::build(&[1.0f32], DEFAULT_FANOUT);
    let mut weights = vec![0.0f32; k];
    let mut phi_row = vec![0u32; k];
    let mut run_acc = vec![0u64; k];
    let mut theta_acc = vec![0u64; k];
    let mut acc_sweeps = 0u32;
    let mut sweep_log_predictive = Vec::new();

    for sweep in 0..sweeps {
        for (i, &w) in doc.words.iter().enumerate() {
            let old = z[i] as usize;
            theta[old] -= 1;
            phi.phi.row_into(w as usize, &mut phi_row);
            for (t, slot) in weights.iter_mut().enumerate() {
                *slot = (theta[t] as f32 + alpha) * (phi_row[t] as f32 + beta) * inv_denom[t];
            }
            tree.rebuild(&weights);
            let u = rng.next_f32();
            let (knew, sh_touch, leaf_touch) = tree.sample_scaled(u * tree.total());
            z[i] = knew as u16;
            theta[knew] += 1;
            charges.draw(ctx, sh_touch, leaf_touch);
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
        if cfg.score {
            sweep_log_predictive.push(log_predictive(
                phi,
                inv_denom,
                doc.words,
                &run_acc,
                sweep + 1,
                &mut phi_row,
            ));
            charges.score(ctx, doc.words.len());
        }
    }

    let acc_sweeps = acc_sweeps.max(1);
    let final_ll = cfg.score.then(|| {
        log_predictive(
            phi,
            inv_denom,
            doc.words,
            &theta_acc,
            acc_sweeps,
            &mut phi_row,
        )
    });
    DocPosterior {
        theta_acc,
        acc_sweeps,
        sweep_log_predictive,
        log_predictive: final_ll,
    }
}

/// Log-predictive `Σ_w ln Σ_k θ̂_k · p(w|k)` under the running-average θ
/// accumulated over `n` sweeps, one token at a time. All smoothing in f64
/// for scoring accuracy. `phi_row` is K-length scratch for one ϕ row.
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
    let beta = phi.priors.beta;
    let mut theta_hat = vec![0.0f64; acc.len()];
    theta_hat_into(acc, n, words.len(), phi.priors.alpha, &mut theta_hat);
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

/// Launches one block per document and collects the posteriors in input
/// order.
fn launch_docs<S>(
    device: &Device,
    docs: &[InferDoc<'_>],
    scratch: impl Fn() -> S + Sync,
    fold: impl Fn(&InferDoc<'_>, &mut BlockCtx, &mut S) -> DocPosterior + Sync,
) -> Result<(Vec<DocPosterior>, LaunchReport), SimFault> {
    assert!(!docs.is_empty(), "empty inference micro-batch");
    let slots: Vec<Mutex<Option<DocPosterior>>> = docs.iter().map(|_| Mutex::new(None)).collect();
    let spec = KernelSpec::new("lda_infer", docs.len() as u32).with_phase(LaunchPhase::Inference);
    let report = device.try_launch_spec_with(spec, scratch, |ctx, scratch| {
        let b = ctx.block_id as usize;
        let posterior = fold(&docs[b], ctx, scratch);
        *slots[b].lock().expect("a block panicked holding its slot") = Some(posterior);
    })?;
    let out = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("a block panicked holding its slot")
                .expect("block skipped a document")
        })
        .collect();
    Ok((out, report))
}

/// Launches the fold-in kernel for one micro-batch on `device`: one block
/// per document, ϕ strictly read-only. Returns per-document posteriors in
/// input order plus the launch report. Posteriors are derived from
/// per-document RNG streams, so a failed micro-batch can be re-run on any
/// device with bit-identical results.
pub fn try_run_infer_kernel(
    device: &Device,
    phi: &PhiModel,
    inv_denom: &[f32],
    docs: &[InferDoc<'_>],
    cfg: &InferKernelConfig,
) -> Result<(Vec<DocPosterior>, LaunchReport), SimFault> {
    assert_eq!(inv_denom.len(), phi.num_topics, "inv_denom size");
    let k = phi.num_topics;
    launch_docs(
        device,
        docs,
        || InferScratch::new(k, cfg.score),
        |doc, ctx, scratch| fold_in_doc(phi, inv_denom, doc, cfg, ctx, scratch),
    )
}

/// Oracle: the naive fold-in launched on `device`, with the same RNG
/// streams and charges as the kernel and none of its host shortcuts. The
/// kernel must reproduce its posteriors and its [`LaunchReport`] bit for
/// bit.
pub fn infer_reference(
    device: &Device,
    phi: &PhiModel,
    inv_denom: &[f32],
    docs: &[InferDoc<'_>],
    cfg: &InferKernelConfig,
) -> (Vec<DocPosterior>, LaunchReport) {
    assert_eq!(inv_denom.len(), phi.num_topics, "inv_denom size");
    launch_docs(
        device,
        docs,
        || (),
        |doc, ctx, _| fold_in_doc_reference(phi, inv_denom, doc, cfg, ctx),
    )
    .unwrap_or_else(|f| panic!("unrecoverable simulated fault: {f}"))
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
        let oracle = Device::new(0, GpuSpec::titan_x_maxwell());
        let (expected, want) = infer_reference(&oracle, &phi, &inv, &batch, &cfg);
        let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(4);
        let (got, report) = try_run_infer_kernel(&dev, &phi, &inv, &batch, &cfg).unwrap();
        assert_eq!(got, expected);
        assert_eq!(report.cost, want.cost);
        assert_eq!(report.sim_seconds.to_bits(), want.sim_seconds.to_bits());
        assert!(report.sim_seconds > 0.0);
    }

    #[test]
    fn result_is_independent_of_batch_split_and_workers() {
        let (phi, docs) = trained_phi();
        let inv = phi.inv_denominators();
        let cfg = InferKernelConfig::new(7);
        let batch = as_infer_docs(&docs);
        let dev = Device::new(0, GpuSpec::v100_volta()).with_workers(3);
        let (whole, _) = try_run_infer_kernel(&dev, &phi, &inv, &batch, &cfg).unwrap();
        // Same documents split across two launches on a different device:
        // per-document RNG streams make the split invisible.
        let dev2 = Device::new(1, GpuSpec::titan_x_maxwell()).with_workers(1);
        let (mut a, _) = try_run_infer_kernel(&dev2, &phi, &inv, &batch[..4], &cfg).unwrap();
        let (b, _) = try_run_infer_kernel(&dev2, &phi, &inv, &batch[4..], &cfg).unwrap();
        a.extend(b);
        assert_eq!(whole, a);
    }

    #[test]
    fn theta_is_normalized_and_positive() {
        let (phi, docs) = trained_phi();
        let inv = phi.inv_denominators();
        let cfg = InferKernelConfig::new(3);
        let batch = as_infer_docs(&docs);
        let dev = Device::new(0, GpuSpec::titan_x_maxwell());
        let (post, _) = try_run_infer_kernel(&dev, &phi, &inv, &batch, &cfg).unwrap();
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
        try_run_infer_kernel(&dev, &phi, &inv, &batch, &InferKernelConfig::new(1)).unwrap();
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
        let dev = Device::new(0, GpuSpec::titan_x_maxwell());
        let (post, _) =
            try_run_infer_kernel(&dev, &phi, &inv, &batch, &InferKernelConfig::new(9)).unwrap();
        let theta = post[0].theta(0, phi.priors.alpha, phi.num_topics);
        let expect = 1.0 / phi.num_topics as f64;
        assert!(theta.iter().all(|&x| (x - expect).abs() < 1e-12));
        assert!(post[0].sweep_log_predictive.iter().all(|&l| l == 0.0));
        assert_eq!(post[0].log_predictive, Some(0.0));
    }
}
