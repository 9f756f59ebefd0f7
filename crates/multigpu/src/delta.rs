//! Δϕ payload encoding for sparsity-aware synchronization.
//!
//! Each GPU's write replica is cleared at the top of the iteration and
//! rebuilt from its own chunks, so the replica *is* the iteration's Δϕ
//! against zero, and the rows it can be nonzero in are exactly the rows
//! the per-worker [`PhiDelta`] bitmap marked.
//! [`DeltaPayload::from_replica`] scans only those rows and captures the
//! nonzero `(topic, count)` cells; payloads then merge pairwise up the
//! Figure 4 reduce tree (integer adds, commutative) and the global payload
//! is broadcast and applied to every replica by *stores* that replace each
//! carried row — valid because every replica's nonzero cells are a subset
//! of the global payload's cells, and exact because the stores write the
//! full global sums. Every sync mode sums the replicas this way; the mode
//! only picks the modelled charge (see [`crate::sync`]).
//!
//! ## Wire encoding
//!
//! [`DeltaPayload::encoded_bytes`] models the bytes a real implementation
//! would ship. Each row independently picks the smallest of three
//! encodings (`e` = ϕ element bytes, 2 compressed / 4 not):
//!
//! * **COO** — `(word: u32, topic: u16, count)` triples: `nnz · (6 + e)`.
//! * **CSR row** — `(word: u32, len: u32)` header + `(topic: u16, count)`
//!   pairs: `8 + nnz · (2 + e)`.
//! * **Dense row** — `(word: u32)` header + all `K` counts: `4 + K · e`.
//!
//! COO only wins for single-cell rows; CSR covers the middle band; dense
//! takes over past `nnz ≈ (4 + K·e − 8) / (2 + e)`. Because the ϕ sync is
//! a pure transfer (roofline intensity ≈ 0 — no flops ride along), the
//! encoding that moves the fewest bytes is also the one that costs the
//! least modelled time, so min-bytes *is* the cost rule.

use culda_sampler::{PhiDelta, PhiModel};

// The cutover cost model is shared with the hybrid count storage in
// `culda_sampler::count` (one formula decides both what a row *ships as*
// here and what it is *stored as* there), so the primitives live in the
// sampler crate and are re-exported for this module's historical users.
pub use culda_sampler::{dense_cutover, row_encoding, RowFormat};

/// One GPU's (or a merged subtree's) Δϕ in sparse form, flat: the carried
/// rows' word ids, where each row's cells end, and every row's cells in
/// one buffer. Capture and merge append to these three buffers and never
/// allocate per row.
#[derive(Debug, Clone)]
pub struct DeltaPayload {
    num_topics: usize,
    /// The carried rows' word ids, strictly ascending.
    words: Vec<u32>,
    /// `ends[i]` is one past row `i`'s last cell in `cells`; row `i`
    /// starts where row `i − 1` ends.
    ends: Vec<usize>,
    /// Every carried row's nonzero `(topic, count)` cells, row after row,
    /// ascending by topic within a row — so merges are linear and
    /// application is deterministic.
    cells: Vec<(u16, u32)>,
    /// The dense `K`-length Δ of `phi_sum`; always shipped in full (it is
    /// `K · e` bytes, negligible next to the rows).
    phi_sum: Vec<u32>,
}

impl DeltaPayload {
    /// Captures `replica`'s nonzero cells, scanning only the rows `touched`
    /// marked. Rows the bitmap marked but that net to all-zero (possible
    /// after rebalance re-runs) are dropped.
    pub fn from_replica(replica: &PhiModel, touched: &PhiDelta) -> Self {
        let rows = touched.touched_rows();
        let mut words = Vec::with_capacity(rows.len());
        let mut ends = Vec::with_capacity(rows.len());
        let nnz = rows.iter().map(|&v| replica.phi.row_nnz(v)).sum();
        let mut cells = Vec::with_capacity(nnz);
        for v in rows {
            // The hybrid layout hands back exactly the nonzero cells in
            // ascending topic order — a CSR tail row is already the
            // payload, and a dense head row is filtered on the fly.
            replica.phi.extend_row_nonzeros(v, &mut cells);
            if cells.len() > ends.last().copied().unwrap_or(0) {
                words.push(v as u32);
                ends.push(cells.len());
            }
        }
        Self {
            num_topics: replica.num_topics,
            words,
            ends,
            cells,
            phi_sum: replica.phi_sum.snapshot(),
        }
    }

    /// Row `i`'s cells.
    fn row(&self, i: usize) -> &[(u16, u32)] {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p]);
        &self.cells[start..self.ends[i]]
    }

    /// The carried rows as `(word, cells)`, ascending by word.
    fn rows(&self) -> impl Iterator<Item = (u32, &[(u16, u32)])> {
        self.words
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, self.row(i)))
    }

    /// Number of nonzero ϕ cells carried.
    pub fn nnz(&self) -> u64 {
        self.cells.len() as u64
    }

    /// Number of rows carried.
    pub fn num_rows(&self) -> usize {
        self.words.len()
    }

    /// Adds `other` into `self` cell-wise (the reduce-tree merge): one
    /// linear pass over both sorted row lists into three fresh buffers.
    pub fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.num_topics, other.num_topics, "topic count mismatch");
        let rows = self.words.len() + other.words.len();
        let mut words = Vec::with_capacity(rows);
        let mut ends = Vec::with_capacity(rows);
        let mut cells = Vec::with_capacity(self.cells.len() + other.cells.len());
        let (mut i, mut j) = (0, 0);
        loop {
            let word = match (self.words.get(i), other.words.get(j)) {
                (Some(&va), Some(&vb)) if va == vb => {
                    merge_cells(&mut cells, self.row(i), other.row(j));
                    (i, j) = (i + 1, j + 1);
                    va
                }
                (Some(&va), Some(&vb)) if va < vb => {
                    cells.extend_from_slice(self.row(i));
                    i += 1;
                    va
                }
                (_, Some(&vb)) => {
                    cells.extend_from_slice(other.row(j));
                    j += 1;
                    vb
                }
                (Some(&va), None) => {
                    cells.extend_from_slice(self.row(i));
                    i += 1;
                    va
                }
                (None, None) => break,
            };
            words.push(word);
            ends.push(cells.len());
        }
        (self.words, self.ends, self.cells) = (words, ends, cells);
        for (s, o) in self.phi_sum.iter_mut().zip(&other.phi_sum) {
            *s += o;
        }
    }

    /// The modelled wire size: per-row best of COO/CSR/dense, plus the
    /// dense `phi_sum` tail.
    pub fn encoded_bytes(&self, elem_bytes: u64) -> u64 {
        let rows: u64 = self
            .rows()
            .map(|(_, cells)| row_encoding(cells.len(), self.num_topics, elem_bytes).1)
            .sum();
        rows + self.num_topics as u64 * elem_bytes
    }

    /// Writes the payload's cells into `replica` by *store* (not add), one
    /// [`CountMatrix::store_row`](culda_sampler::CountMatrix::store_row)
    /// per carried row. Correct as a broadcast target because every
    /// cleared-and-rebuilt replica's nonzero cells are a subset of a global
    /// payload's cells.
    pub fn apply_to(&self, replica: &PhiModel) {
        assert_eq!(replica.num_topics, self.num_topics, "topic count mismatch");
        for (v, cells) in self.rows() {
            replica.phi.store_row(v as usize, cells);
        }
        replica.phi_sum.copy_from(&self.phi_sum);
    }
}

/// Appends the cell-wise sum of two rows (each ascending by topic) to
/// `out`. Each step emits one cell and advances the side or sides that
/// held its topic, with no branch on which: the topics of two rows
/// interleave at random, so a branch would mispredict about half the time.
fn merge_cells(out: &mut Vec<(u16, u32)>, a: &[(u16, u32)], b: &[(u16, u32)]) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let ((ta, ca), (tb, cb)) = (a[i], b[j]);
        let (take_a, take_b) = (ta <= tb, tb <= ta);
        out.push((ta.min(tb), ca * u32::from(take_a) + cb * u32::from(take_b)));
        i += usize::from(take_a);
        j += usize::from(take_b);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use culda_sampler::Priors;

    fn replica_with(cells: &[(usize, usize, u32)], k: usize, v: usize) -> (PhiModel, PhiDelta) {
        let phi = PhiModel::zeros(k, v, Priors::paper(k));
        let delta = PhiDelta::new(v);
        for &(word, topic, count) in cells {
            phi.phi.store(word * k + topic, count);
            phi.phi_sum.fetch_add(topic, count);
            delta.mark_row(word);
        }
        (phi, delta)
    }

    #[test]
    fn captures_exactly_the_nonzero_cells() {
        let (phi, delta) = replica_with(&[(3, 1, 7), (3, 4, 2), (90, 0, 1)], 8, 100);
        let p = DeltaPayload::from_replica(&phi, &delta);
        assert_eq!(p.nnz(), 3);
        assert_eq!(p.num_rows(), 2);
        assert_eq!(p.words, [3, 90]);
        assert_eq!(p.ends, [2, 3]);
        assert_eq!(p.cells, [(1, 7), (4, 2), (0, 1)]);
        assert_eq!(p.phi_sum[1], 7);
    }

    #[test]
    fn marked_but_zero_rows_are_dropped() {
        let (phi, delta) = replica_with(&[(5, 2, 3)], 4, 10);
        delta.mark_row(0); // marked, never written
        delta.mark_row(7);
        let p = DeltaPayload::from_replica(&phi, &delta);
        assert_eq!(p.num_rows(), 1);
        assert_eq!(p.words, [5]);
        assert_eq!(p.ends, [1]);
        assert_eq!(p.cells, [(2, 3)]);
    }

    #[test]
    fn merge_matches_dense_addition() {
        let (phi_a, d_a) = replica_with(&[(1, 0, 2), (4, 3, 5)], 8, 20);
        let (phi_b, d_b) = replica_with(&[(1, 0, 1), (1, 2, 9), (6, 7, 4)], 8, 20);
        let mut p = DeltaPayload::from_replica(&phi_a, &d_a);
        p.merge_from(&DeltaPayload::from_replica(&phi_b, &d_b));
        assert_eq!(p.words, [1, 4, 6]);
        assert_eq!(p.ends, [2, 3, 4]);
        assert_eq!(p.cells, [(0, 3), (2, 9), (3, 5), (7, 4)]);

        // Dense oracle: the two replicas' snapshots summed cell by cell.
        let sum = |a: Vec<u32>, b: Vec<u32>| -> Vec<u32> {
            a.iter().zip(&b).map(|(x, y)| x + y).collect()
        };
        let target = PhiModel::zeros(8, 20, Priors::paper(8));
        p.apply_to(&target);
        assert_eq!(
            target.phi.snapshot(),
            sum(phi_a.phi.snapshot(), phi_b.phi.snapshot())
        );
        assert_eq!(
            target.phi_sum.snapshot(),
            sum(phi_a.phi_sum.snapshot(), phi_b.phi_sum.snapshot())
        );
    }

    #[test]
    fn row_encoding_picks_the_cheapest_format() {
        let k = 1024;
        let e = 2;
        // One cell: COO (8 B) beats CSR (12 B) beats dense.
        assert_eq!(row_encoding(1, k, e).0, RowFormat::Coo);
        // A handful of cells: CSR.
        assert_eq!(row_encoding(10, k, e).0, RowFormat::Csr);
        // Nearly full row: dense.
        assert_eq!(row_encoding(k, k, e).0, RowFormat::Dense);
        // The cutover is consistent with the formula.
        let cut = dense_cutover(k, e);
        assert!(matches!(row_encoding(cut, k, e).0, RowFormat::Dense));
        assert!(!matches!(row_encoding(cut - 1, k, e).0, RowFormat::Dense));
    }

    #[test]
    fn encoded_bytes_beat_dense_on_sparse_payloads() {
        let k = 256;
        let v = 1000;
        let (phi, delta) = replica_with(&[(10, 3, 1), (500, 9, 2)], k, v);
        let p = DeltaPayload::from_replica(&phi, &delta);
        let dense_bytes = (k * v + k) as u64 * 2;
        assert!(p.encoded_bytes(2) * 10 < dense_bytes);
    }
}
