//! Butterfly-patterned partial sums — the Steele–Tristan warp draw.
//!
//! The classic `p1` draw gives every sampler a *private* prefix-sum array:
//! sampler `s` writes `prefix_s[0..kd]` and walks it. Private arrays are
//! poison for a GPU memory system once they spill off-chip: at every step
//! the 32 samplers of a warp touch addresses `max_kd · 4` bytes apart, so
//! each 4-byte access pays a full 32-byte DRAM sector — an 8× bandwidth
//! waste ([`strided_bytes`](culda_gpusim::strided_bytes)).
//!
//! Steele & Tristan's fix (PAPERS.md, "Butterfly-Patterned Partial Sums")
//! is a *layout transpose*: interleave the 32 distributions so element `j`
//! of every sampler sits in one contiguous 128-byte segment
//!
//! ```text
//! data[j * 32 + lane]      // lane = sampler index within the warp
//! ```
//!
//! Now scan step `j` touches exactly one coalesced segment for the whole
//! warp ([`coalesced_bytes`](culda_gpusim::coalesced_bytes); proven per step by
//! [`distinct_segments`](culda_gpusim::distinct_segments) in this module's
//! tests), and the running totals travel between lanes through
//! `__shfl_xor_sync` butterfly exchanges instead of memory. Those
//! exchanges are modelled, not called: [`butterfly_p1_cost`] charges one
//! per scan step. The subsequent lower-bound search runs over the
//! transposed partials held in registers — `⌈log₂ kd⌉ + 1`
//! shuffle-compare steps, no memory traffic — with at most one coalesced
//! segment read to resolve the final 32-wide window when the distribution
//! exceeds one register tile.
//!
//! **Bit-identity.** The butterfly changes *where bytes live*, never what
//! is computed: [`ButterflyBatch::set_lane`] accumulates the f32 prefix in
//! the same serial order as
//! [`IndexTree::rebuild`](crate::ptree::IndexTree::rebuild), and
//! [`ButterflyBatch::select`] is the lower-bound rule — first `j` with
//! `x < prefix[j]` — which is exactly
//! [`linear_search`](crate::ptree::linear_search), which is exactly what
//! the tree walk returns. Same RNG stream, same sums, same topic,
//! different modelled traffic. That is the contract every mode flag in
//! this codebase honors, and the identity grid enforces it.

use crate::blockmap::SAMPLERS_PER_BLOCK;
use crate::ptree::{depth_for, DEFAULT_FANOUT};
use culda_gpusim::warp::WARP_SIZE;
use culda_gpusim::{COALESCE_SEGMENT_BYTES, DRAM_SECTOR_BYTES};

/// Elements of one distribution a lane can keep entirely in registers
/// (one 32-slot register tile per lane; a draw over ≤ 32 outcomes never
/// touches scratch memory at all).
pub const BUTTERFLY_TILE: usize = WARP_SIZE;

/// The 32 samplers' `p1` prefix sums in the butterfly-interleaved layout.
///
/// One instance serves a whole thread block, allocation-reused across
/// tokens exactly like the private `p1` trees it replaces. Element `j` of
/// lane `l` lives at `data[j * 32 + l]`, so the 32 lanes' element-`j`
/// slots span one 128-byte segment.
#[derive(Debug, Clone)]
pub struct ButterflyBatch {
    data: Vec<f32>,
    lens: [usize; WARP_SIZE],
}

impl Default for ButterflyBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl ButterflyBatch {
    /// An empty batch; grows (and then reuses) its scratch on demand.
    pub fn new() -> Self {
        Self {
            data: Vec::new(),
            lens: [0; WARP_SIZE],
        }
    }

    /// Writes lane `lane`'s inclusive prefix sums over `weights` into the
    /// interleaved layout and returns the total. The accumulation order is
    /// serial — identical to [`IndexTree::rebuild`](crate::ptree::IndexTree::rebuild) — so the stored
    /// prefixes (and any draw over them) are bit-identical to the tree
    /// path's.
    pub fn set_lane(&mut self, lane: usize, weights: &[f32]) -> f32 {
        self.fill_lane(lane, weights.iter().copied())
    }

    /// [`ButterflyBatch::set_lane`] over weights produced on the fly, so a
    /// caller computing them (the sampling kernel's `θ·p*` products) makes
    /// one pass instead of materialising a weight vector first.
    pub fn fill_lane<I>(&mut self, lane: usize, weights: I) -> f32
    where
        I: IntoIterator<Item = f32>,
        I::IntoIter: ExactSizeIterator,
    {
        assert!(lane < WARP_SIZE, "lane {lane} out of warp");
        let weights = weights.into_iter();
        let len = weights.len();
        assert!(len > 0, "empty distribution");
        let needed = len * WARP_SIZE;
        if self.data.len() < needed {
            self.data.resize(needed, 0.0);
        }
        let mut acc = 0.0f32;
        // Step j's 32 slots are one chunk; this lane writes its entry.
        for (step, w) in self.data.chunks_exact_mut(WARP_SIZE).zip(weights) {
            debug_assert!(w >= 0.0 && w.is_finite(), "bad weight {w}");
            acc += w;
            step[lane] = acc;
        }
        self.lens[lane] = len;
        acc
    }

    /// Number of prefix entries stored for `lane`.
    pub fn lane_len(&self, lane: usize) -> usize {
        self.lens[lane]
    }

    /// Prefix value `j` of lane `lane` (tests and proofs only).
    pub fn prefix_value(&self, lane: usize, j: usize) -> f32 {
        assert!(j < self.lens[lane], "index past lane length");
        self.data[j * WARP_SIZE + lane]
    }

    /// Lower-bound draw for lane `lane`: the first index `j` with
    /// `x < prefix[j]`, falling back to the last index when rounding pushes
    /// `x` to (or past) the total — exactly
    /// [`linear_search`](crate::ptree::linear_search)'s rule, hence exactly
    /// the tree walk's result.
    pub fn select(&self, lane: usize, x: f32) -> usize {
        let n = self.lens[lane];
        assert!(n > 0, "lane {lane} has no distribution");
        // Binary lower bound over a non-decreasing prefix: the predicate
        // `prefix[j] <= x` is monotone (true then false), so the partition
        // point is the first j with x < prefix[j].
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.data[mid * WARP_SIZE + lane] <= x {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo.min(n - 1)
    }

    /// Byte addresses the 32 lanes touch at scan step `step` (relative to
    /// the batch base). The coalescing proof feeds these to
    /// [`distinct_segments`](culda_gpusim::distinct_segments) and gets 1.
    pub fn step_addresses(&self, step: usize) -> Vec<u64> {
        (0..WARP_SIZE)
            .map(|lane| ((step * WARP_SIZE + lane) * std::mem::size_of::<f32>()) as u64)
            .collect()
    }
}

/// Probe count of the lower-bound binary search over `len` entries
/// (`⌈log₂ len⌉` shuffle-compare steps plus the final window resolve) —
/// the butterfly path's search flops and its instrument-visible "depth".
pub fn search_steps(len: usize) -> usize {
    assert!(len > 0, "no entries");
    if len == 1 {
        return 1;
    }
    (usize::BITS - (len - 1).leading_zeros()) as usize + 1
}

/// Shared-memory floats the classic tree path needs for the per-sampler
/// `p1` scratch: each of the block's 32 samplers keeps a weight array and
/// a prefix/tree array of the block's worst-case document support.
/// Whether this fits — *after* the block-shared `p*` vector and tree claim
/// their budget — is the spill predicate both the executor and
/// `DrawMode::Auto` derive from (one function, so the chooser can never
/// disagree with the charger).
pub fn p1_scratch_floats(max_kd: usize) -> usize {
    SAMPLERS_PER_BLOCK * 2 * max_kd
}

/// Modelled traffic of one `p1` draw — the butterfly analogue of
/// [`PstarCost`](crate::count::PstarCost), compared by `DrawMode::Auto`
/// and charged by the executor from the same numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrawCost {
    /// Bytes read from DRAM.
    pub dram_read: usize,
    /// Bytes written to DRAM.
    pub dram_write: usize,
    /// On-chip (shared memory) bytes touched.
    pub shared: usize,
    /// Floating-point/shuffle operations beyond the common prefix adds
    /// (which every path charges identically).
    pub flops: usize,
}

impl DrawCost {
    /// Total DRAM traffic.
    pub fn dram_bytes(&self) -> usize {
        self.dram_read + self.dram_write
    }
}

/// Cost of one classic tree-walk `p1` draw over `kd` weights whose walk
/// touched `sh_touch` upper nodes and `leaf_touch` leaf entries.
///
/// On-chip (`on_chip`, i.e. the [`p1_scratch_floats`] budget fits after
/// the block-shared structures): the walk is served from shared memory —
/// the charging the kernel has always used. Spilled: the private strided
/// layout pays one 32-byte sector per touched element, writes included —
/// rebuilding the prefix writes `kd` strided elements and the walk reads
/// `sh_touch + leaf_touch` more ([`strided_bytes`](culda_gpusim::strided_bytes)
/// semantics).
pub fn tree_p1_cost(kd: usize, sh_touch: usize, leaf_touch: usize, on_chip: bool) -> DrawCost {
    let walk = (sh_touch + leaf_touch) * 4;
    if on_chip {
        DrawCost {
            shared: walk,
            ..DrawCost::default()
        }
    } else {
        DrawCost {
            dram_write: kd * DRAM_SECTOR_BYTES,
            dram_read: (sh_touch + leaf_touch) * DRAM_SECTOR_BYTES,
            ..DrawCost::default()
        }
    }
}

/// Worst-case [`tree_p1_cost`] for a draw over `kd` weights (every node
/// scan running to its full fanout) — what `DrawMode::Auto` compares
/// before the walk has happened.
pub fn tree_p1_cost_bound(kd: usize, on_chip: bool) -> DrawCost {
    let depth = depth_for(kd, DEFAULT_FANOUT);
    let leaf = kd.min(DEFAULT_FANOUT);
    let upper = (depth - 1) * DEFAULT_FANOUT;
    tree_p1_cost(kd, upper, leaf, on_chip)
}

/// Cost of one butterfly `p1` draw over `kd` weights.
///
/// * `kd ≤ 32`: the whole distribution lives in one register tile; the
///   scan and search are pure shuffles — no traffic at all.
/// * `kd > 32`: the interleaved scan streams the prefix through scratch in
///   coalesced 128-byte segments shared by all 32 samplers, so each
///   sampler's amortized share is exactly `4·kd` bytes written, plus one
///   segment read to resolve the final search window. On-chip when the
///   (identical-size) scratch budget fits, coalesced DRAM otherwise.
///
/// Flops: `kd` butterfly exchanges during the scan (the prefix adds
/// themselves are charged by the common path) plus [`search_steps`]
/// shuffle-compares.
pub fn butterfly_p1_cost(kd: usize, on_chip: bool) -> DrawCost {
    let flops = kd + search_steps(kd);
    if kd <= BUTTERFLY_TILE {
        return DrawCost {
            flops,
            ..DrawCost::default()
        };
    }
    let scan_write = kd * 4; // kd coalesced steps / 32 samplers per segment
    let search_read = COALESCE_SEGMENT_BYTES; // final 32-wide window
    if on_chip {
        DrawCost {
            shared: scan_write + search_read,
            flops,
            ..DrawCost::default()
        }
    } else {
        DrawCost {
            dram_write: scan_write,
            dram_read: search_read,
            flops,
            ..DrawCost::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ptree::{linear_search, IndexTree};
    use culda_gpusim::distinct_segments;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_weights(rng: &mut u64, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| {
                if xorshift(rng).is_multiple_of(4) {
                    0.0
                } else {
                    (xorshift(rng) % 1000 + 1) as f32 / 17.0
                }
            })
            .collect()
    }

    #[test]
    fn set_lane_total_is_bit_identical_to_serial_accumulation() {
        let mut rng = 0xb0b_cafeu64;
        let mut batch = ButterflyBatch::new();
        for n in [1usize, 3, 32, 33, 100, 1000] {
            let w = random_weights(&mut rng, n);
            let total = batch.set_lane(7, &w);
            let mut acc = 0.0f32;
            for &v in &w {
                acc += v;
            }
            assert_eq!(total.to_bits(), acc.to_bits(), "n = {n}");
            // Stored prefixes match the serial order bit-for-bit too.
            let mut acc = 0.0f32;
            for (j, &v) in w.iter().enumerate() {
                acc += v;
                assert_eq!(batch.prefix_value(7, j).to_bits(), acc.to_bits());
            }
        }
    }

    #[test]
    fn select_agrees_with_linear_search_exhaustively() {
        // Including ties and zero-weight entries: the lower-bound binary
        // search and the linear scan are the same rule.
        let mut rng = 0xdead_beefu64;
        let mut batch = ButterflyBatch::new();
        for trial in 0..100 {
            let n = (xorshift(&mut rng) % 200) as usize + 1;
            let lane = (xorshift(&mut rng) % WARP_SIZE as u64) as usize;
            let w = random_weights(&mut rng, n);
            let total = batch.set_lane(lane, &w);
            if total <= 0.0 {
                continue; // all-zero lane: the kernel never draws from it
            }
            let prefix: Vec<f32> = (0..n).map(|j| batch.prefix_value(lane, j)).collect();
            for i in 0..=64 {
                // Sweep through [0, total] inclusive: the endpoint checks
                // the rounding fallback (x == total → last index).
                let x = total * (i as f32 / 64.0);
                assert_eq!(
                    batch.select(lane, x),
                    linear_search(&prefix, x),
                    "trial {trial}, n = {n}, x = {x}"
                );
            }
        }
    }

    #[test]
    fn select_matches_the_index_tree_walk_bit_for_bit() {
        // The full cross-path identity: same weights, same draw position,
        // same answer as IndexTree::sample_scaled — which is the statement
        // that makes DrawMode a pure cost-model flag.
        let mut rng = 0x72ee_5eedu64;
        let mut batch = ButterflyBatch::new();
        let mut tree = IndexTree::build(&[1.0f32], DEFAULT_FANOUT);
        for trial in 0..100 {
            let n = (xorshift(&mut rng) % 500) as usize + 1;
            let w = random_weights(&mut rng, n);
            if w.iter().sum::<f32>() <= 0.0 {
                continue;
            }
            tree.rebuild(&w);
            let lane = (trial % WARP_SIZE as u64) as usize;
            let total = batch.set_lane(lane, &w);
            assert_eq!(total.to_bits(), tree.total().to_bits());
            for i in 0..64 {
                let x = total * (i as f32 / 64.0);
                let (tree_idx, _, _) = tree.sample_scaled(x);
                assert_eq!(batch.select(lane, x), tree_idx, "n = {n}, x = {x}");
            }
        }
    }

    #[test]
    fn every_scan_step_is_one_coalesced_segment() {
        // The layout proof: at each scan step the 32 lanes' slots form
        // exactly one 128-byte segment — while the private layout the tree
        // path uses would scatter the same 32 accesses across 32 sectors.
        let mut batch = ButterflyBatch::new();
        let kd = 100;
        for lane in 0..WARP_SIZE {
            batch.set_lane(lane, &vec![1.0f32; kd]);
        }
        for step in 0..kd {
            let addrs = batch.step_addresses(step);
            assert_eq!(
                distinct_segments(&addrs, COALESCE_SEGMENT_BYTES),
                1,
                "step {step} not coalesced"
            );
        }
        // The private strided layout: lane l's element j at (l*kd + j)*4.
        let private: Vec<u64> = (0..WARP_SIZE).map(|l| (l * kd * 4) as u64).collect();
        assert_eq!(
            distinct_segments(&private, DRAM_SECTOR_BYTES),
            WARP_SIZE,
            "private layout must scatter one sector per lane"
        );
    }

    #[test]
    fn batch_reuses_its_allocation_across_tokens() {
        let mut batch = ButterflyBatch::new();
        batch.set_lane(0, &[1.0f32; 500]);
        let cap = batch.data.capacity();
        // Smaller and equal-size reloads must not reallocate.
        batch.set_lane(0, &[2.0f32; 10]);
        batch.set_lane(31, &[3.0f32; 500]);
        assert_eq!(batch.data.capacity(), cap);
        assert_eq!(batch.lane_len(0), 10);
        assert_eq!(batch.lane_len(31), 500);
    }

    #[test]
    fn spilled_butterfly_moves_fewer_dram_bytes_than_spilled_tree() {
        // The whole point: once the per-sampler scratch no longer fits
        // on-chip, the interleaved layout's coalesced segments beat the
        // private layout's sector-per-touch by ~8×.
        for kd in [33usize, 64, 150, 500, 1000, 4000] {
            let tree = tree_p1_cost_bound(kd, false);
            let bfly = butterfly_p1_cost(kd, false);
            assert!(
                bfly.dram_bytes() < tree.dram_bytes(),
                "kd = {kd}: butterfly {} vs tree {}",
                bfly.dram_bytes(),
                tree.dram_bytes()
            );
            // The win is the sector/segment ratio, up to the walk reads.
            assert!(tree.dram_bytes() >= 4 * bfly.dram_bytes(), "kd = {kd}");
        }
    }

    #[test]
    fn register_tile_draws_are_traffic_free() {
        for kd in 1..=BUTTERFLY_TILE {
            let c = butterfly_p1_cost(kd, false);
            assert_eq!(c.dram_bytes(), 0, "kd = {kd}");
            assert_eq!(c.shared, 0);
            assert!(c.flops > 0);
        }
        assert!(butterfly_p1_cost(BUTTERFLY_TILE + 1, false).dram_bytes() > 0);
    }

    #[test]
    fn on_chip_costs_charge_shared_not_dram() {
        let t = tree_p1_cost(100, 32, 20, true);
        assert_eq!(t.dram_bytes(), 0);
        assert_eq!(t.shared, (32 + 20) * 4);
        let b = butterfly_p1_cost(100, true);
        assert_eq!(b.dram_bytes(), 0);
        assert!(b.shared > 0);
    }

    #[test]
    fn costs_are_monotone_in_kd() {
        for on_chip in [false, true] {
            let mut prev_t = 0usize;
            let mut prev_b = 0usize;
            for kd in [1usize, 8, 32, 33, 64, 256, 1024, 4096] {
                let t = tree_p1_cost_bound(kd, on_chip);
                let b = butterfly_p1_cost(kd, on_chip);
                let tb = t.dram_bytes() + t.shared;
                let bb = b.dram_bytes() + b.shared;
                assert!(tb >= prev_t, "tree kd = {kd}");
                assert!(bb >= prev_b, "butterfly kd = {kd}");
                prev_t = tb;
                prev_b = bb;
            }
        }
    }

    #[test]
    fn scratch_budget_covers_all_samplers() {
        assert_eq!(p1_scratch_floats(0), 0);
        // 32 samplers × (weights + prefix) × max_kd.
        assert_eq!(p1_scratch_floats(100), 32 * 2 * 100);
    }

    #[test]
    fn search_step_counts() {
        assert_eq!(search_steps(1), 1);
        assert_eq!(search_steps(2), 2);
        assert_eq!(search_steps(32), 6);
        assert_eq!(search_steps(33), 7);
        assert_eq!(search_steps(1024), 11);
    }
}
