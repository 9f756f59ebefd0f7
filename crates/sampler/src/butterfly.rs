//! Butterfly-patterned partial sums — the Steele–Tristan warp draw, as a
//! cost model.
//!
//! Steele & Tristan (PAPERS.md, "Butterfly-Patterned Partial Sums") solve
//! the case where each lane of a warp draws from a distribution of its
//! own: with lane-private prefix arrays, the 32 lanes' element `j` sit
//! `kd · 4` bytes apart, so no memory transaction is shared. Their fix
//! is a *layout transpose*: interleave the 32 distributions so element `j`
//! of every sampler sits in one contiguous 128-byte segment
//!
//! ```text
//! data[j * 32 + lane]      // lane = sampler index within the warp
//! ```
//!
//! Now scan step `j` touches exactly one coalesced segment for the whole
//! warp ([`coalesced_bytes`]; proven per step by
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
//! CuLDA's classic `p1` draw is not that case. A sampler is one warp
//! (DESIGN §1): its lanes write the token's `kd` leaf prefixes side by
//! side and scan each level of the fanout-32 tree as one segment
//! ([`tree_p1_cost`]). Once the per-sampler scratch spills, both layouts
//! write the same `4 · kd` bytes; the butterfly reads one segment where
//! the tree reads one per level.
//!
//! **Charged, not built.** The interleave changes *where bytes live*,
//! never what is computed, so the host never builds it. In every draw
//! mode the sampling kernel fills one contiguous serial f32 prefix and
//! draws from it with the lower-bound rule — first `j` with
//! `x < prefix[j]` ([`sample_prefix`](crate::ptree::sample_prefix)),
//! which is what a tree walk and a warp's binary search over the
//! transposed partials both return. Same RNG stream, same sums, same
//! topic; only the charge differs. That is the contract every mode flag
//! in this codebase honors, and the identity grid enforces it.

use crate::blockmap::SAMPLERS_PER_BLOCK;
use crate::ptree::{depth_for, DEFAULT_FANOUT};
use culda_gpusim::warp::WARP_SIZE;
use culda_gpusim::{coalesced_bytes, COALESCE_SEGMENT_BYTES};

/// Elements of one distribution a lane can keep entirely in registers
/// (one 32-slot register tile per lane; a draw over ≤ 32 outcomes never
/// touches scratch memory at all).
pub const BUTTERFLY_TILE: usize = WARP_SIZE;

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
/// the charging the kernel has always used. Spilled: the sampler is one
/// warp, so it writes its `kd` leaves as coalesced 4-byte lanes and scans
/// each tree level as one 128-byte segment ([`coalesced_bytes`] per
/// level), whichever entries of a node the walk touches.
pub fn tree_p1_cost(kd: usize, sh_touch: usize, leaf_touch: usize, on_chip: bool) -> DrawCost {
    if on_chip {
        DrawCost {
            shared: (sh_touch + leaf_touch) * 4,
            ..DrawCost::default()
        }
    } else {
        DrawCost {
            dram_write: kd * 4,
            dram_read: coalesced_bytes(depth_for(kd, DEFAULT_FANOUT)),
            ..DrawCost::default()
        }
    }
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
    use culda_gpusim::distinct_segments;

    #[test]
    fn every_scan_step_is_one_coalesced_segment() {
        // The layout proof: at each scan step the 32 lanes' slots,
        // `(j·32 + lane)·4` bytes into the interleaved scratch, form
        // exactly one 128-byte segment — the unit `butterfly_p1_cost`
        // charges per step.
        for step in 0..100usize {
            let addrs: Vec<u64> = (0..WARP_SIZE)
                .map(|lane| ((step * WARP_SIZE + lane) * 4) as u64)
                .collect();
            assert_eq!(
                distinct_segments(&addrs, COALESCE_SEGMENT_BYTES),
                1,
                "step {step} not coalesced"
            );
        }
    }

    #[test]
    fn spilled_tree_reads_one_segment_per_level_more_than_the_butterfly() {
        // Spilled, a warp writes the same kd coalesced leaves in either
        // layout; the tree scans one segment per level where the butterfly
        // resolves one window. The touch counts do not change the charge.
        for kd in [33usize, 64, 150, 500, 1000, 1025, 4000] {
            let bfly = butterfly_p1_cost(kd, false);
            let extra = (depth_for(kd, DEFAULT_FANOUT) - 1) * COALESCE_SEGMENT_BYTES;
            for (sh, leaf) in [(0, 1), (32, 32), (64, 17)] {
                let tree = tree_p1_cost(kd, sh, leaf, false);
                assert_eq!(tree.dram_write, bfly.dram_write, "kd = {kd}");
                assert_eq!(tree.dram_read, bfly.dram_read + extra, "kd = {kd}");
                assert_eq!(tree.shared, 0);
            }
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
                // The walk of a full-fanout scan at every level.
                let upper = (depth_for(kd, DEFAULT_FANOUT) - 1) * DEFAULT_FANOUT;
                let t = tree_p1_cost(kd, upper, kd.min(DEFAULT_FANOUT), on_chip);
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
