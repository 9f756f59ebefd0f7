//! Tree-based sampling — Figure 5.
//!
//! Drawing from a discrete distribution `p[0..n]` means finding the minimal
//! `k` with `prefixSum[k] > u`. CuLDA builds an N-ary *index tree* over the
//! prefix sums: the upper levels (one entry per group of `fanout` leaves)
//! are small enough to live in shared memory, so a sample touches only
//! `log_F(n)` shared-memory nodes plus at most `fanout` leaf entries in
//! global memory ("only the two elements of p\[8\] are in the memory").
//! CuLDA uses `fanout = 32` so each level's scan is one warp ballot.
//!
//! The same structure serves both distributions of the sparsity-aware
//! sampler: the dense `p2(k)` tree shared by the whole thread block, and
//! each sampler's private tree over the `K_d` non-zeros of `p1(k)`.
//!
//! Every upper entry is the last leaf prefix of its group, so a walk lands
//! on the leaf a plain lower-bound search over the leaves finds, and which
//! entries it scans follows from that leaf's index alone. The sampling
//! kernel's host path therefore keeps only the leaf prefix
//! ([`prefix_into`]), draws with [`lower_bound`], and charges the walk
//! [`walk_touches`] reports; [`depth_for`] and [`shared_bytes_for`] give
//! the shape the cost model prices, all without building a tree.

/// Tree fanout used by CuLDA (one warp scans one node per step).
pub const DEFAULT_FANOUT: usize = 32;

/// An N-ary prefix-sum index tree over `n` weights.
///
/// ```
/// use culda_sampler::IndexTree;
/// let tree = IndexTree::build(&[0.1, 0.0, 0.6, 0.3], 32);
/// assert_eq!(tree.sample_unit(0.05), 0);  // lands in the first 10%
/// assert_eq!(tree.sample_unit(0.5), 2);   // the heavy outcome
/// assert_eq!(tree.sample_unit(0.95), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IndexTree {
    fanout: usize,
    /// Upper levels, coarsest first. `upper[d][j]` is the inclusive prefix
    /// sum at the end of group `j` at that depth. Kept in shared memory on
    /// the device.
    upper: Vec<Vec<f32>>,
    /// Leaf level: inclusive prefix sums of the weights (global memory).
    prefix: Vec<f32>,
}

impl IndexTree {
    /// Builds a tree from non-negative weights.
    ///
    /// # Panics
    /// Panics on an empty weight vector, a negative/NaN weight, or an
    /// all-zero total (an unsamplable distribution is a logic error in the
    /// caller — in LDA `p2` always has mass because `β > 0`).
    pub fn build(weights: &[f32], fanout: usize) -> Self {
        assert!(fanout >= 2, "fanout must be at least 2");
        if let Some(w) = weights.iter().find(|w| !(**w >= 0.0 && w.is_finite())) {
            panic!("bad weight {w}");
        }
        let mut tree = Self {
            fanout,
            upper: Vec::new(),
            prefix: Vec::new(),
        };
        tree.rebuild(weights);
        tree
    }

    /// Rebuilds this tree in place from new weights, reusing all existing
    /// allocations — the per-token `p1` tree in the sampling kernel's hot
    /// loop must not allocate.
    ///
    /// # Panics
    /// Same contract as [`IndexTree::build`].
    pub fn rebuild(&mut self, weights: &[f32]) {
        let total = prefix_into(&mut self.prefix, weights.iter().copied());
        assert!(
            total > 0.0 && total.is_finite(),
            "distribution must have positive finite mass, got {total}"
        );
        // Build upper levels bottom-up — each level keeps every group's
        // last prefix value, until a level fits in one node — reusing the
        // previous levels' allocations.
        let fanout = self.fanout;
        let mut spare: Vec<Vec<f32>> = std::mem::take(&mut self.upper);
        let mut rebuilt: Vec<Vec<f32>> = Vec::with_capacity(spare.len());
        loop {
            let src: &[f32] = rebuilt.last().unwrap_or(&self.prefix);
            if src.len() <= fanout {
                break;
            }
            let mut next = spare.pop().unwrap_or_default();
            next.clear();
            next.extend(src.chunks(fanout).map(|g| *g.last().unwrap()));
            rebuilt.push(next);
        }
        rebuilt.reverse();
        self.upper = rebuilt;
    }

    /// Number of leaves (outcomes).
    pub fn len(&self) -> usize {
        self.prefix.len()
    }

    /// Whether the tree is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.prefix.is_empty()
    }

    /// Total mass of the distribution.
    pub fn total(&self) -> f32 {
        *self.prefix.last().unwrap()
    }

    /// Tree depth (number of levels including the leaf level).
    pub fn depth(&self) -> usize {
        self.upper.len() + 1
    }

    /// The leaf-level inclusive prefix sums. A walk of this tree and a
    /// lower-bound search over this array ([`lower_bound`]) land on the
    /// same leaf, which is why the kernels' tree-free draws agree with it
    /// bit-for-bit.
    pub fn prefix(&self) -> &[f32] {
        &self.prefix
    }

    /// Bytes of the upper levels — what the device keeps in shared memory.
    pub fn shared_bytes(&self) -> usize {
        self.upper
            .iter()
            .map(|l| l.len() * std::mem::size_of::<f32>())
            .sum()
    }

    /// Samples the outcome index for a uniform draw `u01 ∈ [0, 1)`.
    pub fn sample_unit(&self, u01: f32) -> usize {
        assert!((0.0..1.0).contains(&u01), "u01 = {u01} out of [0,1)");
        self.sample_scaled(u01 * self.total()).0
    }

    /// Samples for a draw already scaled to `[0, total)`. Returns the
    /// outcome index and the traffic of the walk:
    /// `(index, shared_nodes_touched, leaf_entries_touched)`.
    pub fn sample_scaled(&self, x: f32) -> (usize, usize, usize) {
        let mut shared_touched = 0usize;
        // Narrow group by descending the shared-memory levels.
        let mut group = 0usize; // group index at current level
        for level in &self.upper {
            let start = group * self.fanout;
            let end = (start + self.fanout).min(level.len());
            // Warp-ballot equivalent: first entry with prefix > x.
            let mut child = end - 1; // fall back to last on rounding
            for (i, &p) in level[start..end].iter().enumerate() {
                shared_touched += 1;
                if x < p {
                    child = start + i;
                    break;
                }
            }
            group = child;
        }
        let start = group * self.fanout;
        let end = (start + self.fanout).min(self.prefix.len());
        let mut idx = end - 1;
        let mut leaf_touched = 0usize;
        for (i, &p) in self.prefix[start..end].iter().enumerate() {
            leaf_touched += 1;
            if x < p {
                idx = start + i;
                break;
            }
        }
        (idx, shared_touched, leaf_touched)
    }
}

/// Reference linear-scan sampler over the same prefix array (what the tree
/// must agree with; also the oracle for the property tests).
pub fn linear_search(prefix: &[f32], x: f32) -> usize {
    prefix
        .iter()
        .position(|&p| x < p)
        .unwrap_or(prefix.len() - 1)
}

/// Writes the inclusive prefix sums of `weights` into `out`, resized to
/// fit, and returns the total: one serial f32 add per entry, so `out` is
/// bit for bit the leaf level of an [`IndexTree`] over the same weights.
///
/// # Panics
/// Panics when `weights` is empty.
pub fn prefix_into<I>(out: &mut Vec<f32>, weights: I) -> f32
where
    I: IntoIterator<Item = f32>,
    I::IntoIter: ExactSizeIterator,
{
    let weights = weights.into_iter();
    assert!(weights.len() > 0, "cannot build a tree over no weights");
    // Sized up front: a `push` per leaf keeps the length in memory and
    // makes every add wait on its store.
    out.resize(weights.len(), 0.0);
    let mut acc = 0.0f32;
    for (slot, w) in out.iter_mut().zip(weights) {
        debug_assert!(w >= 0.0 && w.is_finite(), "bad weight {w}");
        acc += w;
        *slot = acc;
    }
    acc
}

/// The lower-bound draw over a non-decreasing prefix: the first index with
/// `x < prefix[i]`, or the last index when there is none (`x` at or past
/// the total) — [`linear_search`]'s rule by binary search, hence the leaf
/// an [`IndexTree`] walk over the same prefix lands on.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn lower_bound(prefix: &[f32], x: f32) -> usize {
    assert!(!prefix.is_empty(), "no entries");
    // `!(x < p)` rather than `p <= x`, so a NaN `x` falls back to the
    // last entry as the linear scan does.
    prefix.partition_point(|&p| !(x < p)).min(prefix.len() - 1)
}

/// The `(shared, leaf)` entry counts [`IndexTree::sample_scaled`] reports
/// for a walk that lands on leaf `idx` of a tree over `len` leaves,
/// computed from `idx` instead of walked.
///
/// Every upper entry is its group's last leaf prefix, so at each level the
/// walk selects the ancestor of the lower-bound leaf: every earlier entry
/// of the group ends before `idx` and its prefix is `<= x`, and the
/// ancestor's prefix is at least `prefix[idx] > x`. When no prefix exceeds
/// `x`, each scan runs to its group's end, which is again the ancestor of
/// the last leaf. Either way a level scans from its group start to the
/// ancestor: `(ancestor mod fanout) + 1` entries.
pub fn walk_touches(len: usize, fanout: usize, idx: usize) -> (usize, usize) {
    debug_assert!(idx < len, "leaf {idx} past {len}");
    let mut shared = 0;
    let (mut n, mut ancestor) = (len, idx);
    while n > fanout {
        n = n.div_ceil(fanout);
        ancestor /= fanout;
        shared += ancestor % fanout + 1;
    }
    (shared, idx % fanout + 1)
}

/// The `(index, shared_nodes_touched, leaf_entries_touched)` triple
/// [`IndexTree::sample_scaled`] returns for a tree with leaves `prefix`,
/// from the leaves alone: [`lower_bound`] plus [`walk_touches`].
pub fn sample_prefix(prefix: &[f32], fanout: usize, x: f32) -> (usize, usize, usize) {
    let idx = lower_bound(prefix, x);
    let (shared, leaf) = walk_touches(prefix.len(), fanout, idx);
    (idx, shared, leaf)
}

/// Depth an [`IndexTree`] over `len` leaves would have, without building
/// one — the cost model uses this to price a tree walk that spilled to
/// DRAM (one level of node scans per depth step).
pub fn depth_for(len: usize, fanout: usize) -> usize {
    assert!(len > 0, "no leaves");
    assert!(fanout >= 2, "fanout must be at least 2");
    let mut depth = 1;
    let mut n = len;
    while n > fanout {
        n = n.div_ceil(fanout);
        depth += 1;
    }
    depth
}

/// [`IndexTree::shared_bytes`] of a tree over `len` leaves, without
/// building one: each upper level holds one entry per group of `fanout`
/// entries below it.
pub fn shared_bytes_for(len: usize, fanout: usize) -> usize {
    assert!(len > 0, "no leaves");
    assert!(fanout >= 2, "fanout must be at least 2");
    let mut bytes = 0;
    let mut n = len;
    while n > fanout {
        n = n.div_ceil(fanout);
        bytes += n * std::mem::size_of::<f32>();
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_figure5_example() {
        // Figure 5: p[8] = .01 .02 .03 .02 .04 .06 .01 .01, u = 0.15 → the
        // leaf whose prefix 0.18 first exceeds u, index 5.
        let p = [0.01, 0.02, 0.03, 0.02, 0.04, 0.06, 0.01, 0.01];
        let tree = IndexTree::build(&p, 2);
        let (idx, _, _) = tree.sample_scaled(0.15);
        assert_eq!(idx, 5);
    }

    #[test]
    fn agrees_with_linear_search_exhaustively() {
        let weights: Vec<f32> = (0..1000)
            .map(|i| ((i * 2654435761u64 as usize) % 97) as f32 / 97.0)
            .collect();
        for &fanout in &[2usize, 4, 32] {
            let tree = IndexTree::build(&weights, fanout);
            let total = tree.total();
            let mut x = 0.0f32;
            while x < total {
                let (idx, _, _) = tree.sample_scaled(x);
                let want = linear_search(
                    &(0..weights.len())
                        .scan(0.0f32, |acc, i| {
                            *acc += weights[i];
                            Some(*acc)
                        })
                        .collect::<Vec<_>>(),
                    x,
                );
                assert_eq!(idx, want, "x = {x}, fanout = {fanout}");
                x += total / 733.0;
            }
        }
    }

    #[test]
    fn zero_weight_outcomes_are_never_drawn() {
        let weights = [0.0f32, 3.0, 0.0, 0.0, 2.0, 0.0];
        let tree = IndexTree::build(&weights, 2);
        for i in 0..100 {
            let u = i as f32 / 100.0;
            let k = tree.sample_unit(u);
            assert!(k == 1 || k == 4, "drew zero-weight outcome {k}");
        }
    }

    #[test]
    fn single_leaf_tree() {
        let tree = IndexTree::build(&[2.5], 32);
        assert_eq!(tree.depth(), 1);
        assert_eq!(tree.shared_bytes(), 0);
        assert_eq!(tree.sample_unit(0.99), 0);
    }

    #[test]
    fn depth_is_logarithmic() {
        let weights = vec![1.0f32; 1024];
        let tree = IndexTree::build(&weights, 32);
        // 1024 leaves / 32 = 32-entry level → depth 2 (one upper level).
        assert_eq!(tree.depth(), 2);
        let big = IndexTree::build(&vec![1.0f32; 32 * 32 + 1], 32);
        assert_eq!(big.depth(), 3);
    }

    #[test]
    fn shared_footprint_is_small_for_k_1024() {
        // K = 1024 topics, fanout 32: upper levels are 32 floats = 128 B —
        // trivially fits shared memory, as the paper requires.
        let tree = IndexTree::build(&vec![1.0f32; 1024], 32);
        assert_eq!(tree.shared_bytes(), 32 * 4);
    }

    #[test]
    fn traffic_counts_are_bounded_by_fanout_times_depth() {
        let tree = IndexTree::build(&vec![1.0f32; 4096], 32);
        let (_, shared, leaf) = tree.sample_scaled(tree.total() * 0.73);
        assert!(shared <= 32 * (tree.depth() - 1));
        assert!(leaf <= 32);
    }

    #[test]
    fn rounding_at_the_top_falls_back_to_last_leaf() {
        let tree = IndexTree::build(&[1.0f32, 1.0, 1.0], 2);
        // x exactly at (or above, from float error) the total.
        let (idx, _, _) = tree.sample_scaled(tree.total());
        assert_eq!(idx, 2);
    }

    #[test]
    fn rebuild_matches_fresh_build() {
        let mut tree = IndexTree::build(&[1.0f32], 32);
        for n in [1usize, 5, 31, 32, 33, 1000, 1025] {
            let weights: Vec<f32> = (0..n).map(|i| ((i * 7919) % 13) as f32 + 0.5).collect();
            tree.rebuild(&weights);
            let fresh = IndexTree::build(&weights, 32);
            assert_eq!(tree, fresh, "n = {n}");
            // And it still samples correctly.
            let x = tree.total() * 0.37;
            assert_eq!(tree.sample_scaled(x).0, fresh.sample_scaled(x).0);
        }
        // Shrinking after growing also works.
        tree.rebuild(&[2.0, 3.0]);
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.depth(), 1);
        assert_eq!(tree.sample_scaled(2.5).0, 1);
    }

    #[test]
    fn depth_for_matches_built_trees() {
        for n in [1usize, 5, 31, 32, 33, 1000, 1024, 1025, 4096, 32 * 32 + 1] {
            let tree = IndexTree::build(&vec![1.0f32; n], 32);
            assert_eq!(depth_for(n, 32), tree.depth(), "n = {n}");
            assert_eq!(shared_bytes_for(n, 32), tree.shared_bytes(), "n = {n}");
        }
        for n in [1usize, 2, 3, 4, 5, 8, 9, 100] {
            let tree = IndexTree::build(&vec![1.0f32; n], 2);
            assert_eq!(depth_for(n, 2), tree.depth(), "n = {n}, fanout 2");
            assert_eq!(shared_bytes_for(n, 2), tree.shared_bytes(), "n = {n}");
        }
    }

    #[test]
    fn linear_search_never_lands_on_a_zero_weight_entry() {
        // The lower-bound rule — first index with `x < prefix[i]` — must
        // resolve ties from zero-weight entries (repeated prefix values)
        // past them: it may never land on a zero-weight entry.
        let weights = [0.0f32, 1.5, 0.0, 0.0, 2.5, 0.0, 0.0, 1.0];
        let mut prefix = Vec::new();
        let mut acc = 0.0f32;
        for &w in &weights {
            acc += w;
            prefix.push(acc);
        }
        let total = acc;
        for i in 0..200 {
            let x = total * (i as f32 / 200.0);
            let want = linear_search(&prefix, x);
            assert!(weights[want] > 0.0, "x = {x} drew a zero-weight entry");
        }
        // Exact tie point: x equal to a repeated prefix value selects the
        // next positive-weight entry.
        assert_eq!(linear_search(&prefix, 1.5), 4);
    }

    #[test]
    #[should_panic(expected = "positive finite mass")]
    fn all_zero_rejected() {
        IndexTree::build(&[0.0, 0.0], 2);
    }

    #[test]
    #[should_panic(expected = "bad weight")]
    fn negative_weight_rejected() {
        IndexTree::build(&[1.0, -0.5], 2);
    }
}
