//! Compressed Sparse Row storage with 16-bit column indices.
//!
//! The paper stores the document–topic matrix `θ` and the corpus chunks in
//! CSR format and compresses column indices to short integers because
//! `K < 2¹⁶` (Section 6.1.3, "precision compression"). This module is that
//! storage: row pointers, `u16` column indices, `u32` values. The column
//! dimension is validated against [`MAX_COLS`] at construction so the
//! compression can never silently truncate.

/// Largest column count representable by the `u16` index compression.
pub const MAX_COLS: usize = u16::MAX as usize + 1;

/// A CSR matrix with `u16` column indices and `u32` values.
///
/// Rows may be empty; within a row, columns are strictly increasing and
/// values are non-zero (zeros are simply absent).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CsrMatrix {
    num_cols: usize,
    row_ptr: Vec<usize>,
    cols: Vec<u16>,
    vals: Vec<u32>,
}

impl CsrMatrix {
    /// Creates an all-zero matrix with `rows × cols` shape.
    ///
    /// # Panics
    /// Panics if `cols > MAX_COLS` — the u16 compression requires the
    /// column dimension (the topic count `K`) to fit 16 bits.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(
            cols <= MAX_COLS,
            "column dimension {cols} exceeds u16 compression limit {MAX_COLS}"
        );
        Self {
            num_cols: cols,
            row_ptr: vec![0; rows + 1],
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Assembles a CSR matrix from raw parts (validated).
    ///
    /// # Panics
    /// Panics if the parts violate the CSR invariants (see
    /// [`CsrMatrix::check_invariants`]).
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u16>,
        vals: Vec<u32>,
    ) -> Self {
        assert!(
            cols <= MAX_COLS,
            "column dimension {cols} exceeds u16 compression limit {MAX_COLS}"
        );
        assert_eq!(row_ptr.len(), rows + 1, "row_ptr length");
        let m = Self {
            num_cols: cols,
            row_ptr,
            cols: col_idx,
            vals,
        };
        m.check_invariants();
        m
    }

    /// Builds a CSR matrix from dense rows, dropping zeros. The index and
    /// value arrays are sized to the nonzero count, not to the cells.
    pub fn from_dense_rows(rows: &[Vec<u32>], cols: usize) -> Self {
        let mut m = Self::zeros(rows.len(), cols);
        let nnz = rows.iter().flatten().filter(|&&v| v != 0).count();
        m.cols.reserve_exact(nnz);
        m.vals.reserve_exact(nnz);
        for (r, row) in rows.iter().enumerate() {
            assert!(row.len() <= cols, "row {r} wider than the matrix");
            for (c, &v) in row.iter().enumerate() {
                if v != 0 {
                    m.cols.push(c as u16);
                    m.vals.push(v);
                }
            }
            m.row_ptr[r + 1] = m.cols.len();
        }
        m
    }

    /// Replaces row `r` from a dense slice, dropping zeros. Because CSR is
    /// contiguous this is `O(nnz)` when rows are rebuilt in order; the θ
    /// update kernel instead rebuilds whole chunks (see
    /// `culda-sampler::kernel_theta`), so this method is for tests and the
    /// CPU baselines.
    pub fn set_row_from_dense(&mut self, r: usize, dense: &[u32]) {
        assert_eq!(dense.len(), self.num_cols, "dense row has wrong width");
        let start = self.row_ptr[r];
        let end = self.row_ptr[r + 1];
        let mut new_entries: Vec<(u16, u32)> = Vec::new();
        for (c, &v) in dense.iter().enumerate() {
            if v != 0 {
                new_entries.push((c as u16, v));
            }
        }
        let delta = new_entries.len() as isize - (end - start) as isize;
        // Splice the row in place.
        let tail_cols: Vec<u16> = self.cols[end..].to_vec();
        let tail_vals: Vec<u32> = self.vals[end..].to_vec();
        self.cols.truncate(start);
        self.vals.truncate(start);
        for (c, v) in &new_entries {
            self.cols.push(*c);
            self.vals.push(*v);
        }
        self.cols.extend_from_slice(&tail_cols);
        self.vals.extend_from_slice(&tail_vals);
        for p in &mut self.row_ptr[r + 1..] {
            *p = (*p as isize + delta) as usize;
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Total stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Non-zeros of row `r` as parallel `(cols, vals)` slices.
    pub fn row(&self, r: usize) -> (&[u16], &[u32]) {
        let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.cols[s..e], &self.vals[s..e])
    }

    /// Entry-index range `[start, end)` of row `r` in the flat storage —
    /// used by the cache model to derive addresses for row loads.
    pub fn row_range(&self, r: usize) -> (usize, usize) {
        (self.row_ptr[r], self.row_ptr[r + 1])
    }

    /// Number of non-zeros in row `r` (`K_d` for θ).
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Largest stored value, zero for an empty matrix: one pass over the
    /// non-zeros.
    pub fn max_value(&self) -> u32 {
        self.vals.iter().copied().max().unwrap_or(0)
    }

    /// Value at `(r, c)`, zero if absent. Binary search over the row.
    pub fn get(&self, r: usize, c: usize) -> u32 {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&(c as u16)) {
            Ok(i) => vals[i],
            Err(_) => 0,
        }
    }

    /// Expands row `r` into a dense vector.
    pub fn row_to_dense(&self, r: usize) -> Vec<u32> {
        let mut dense = vec![0u32; self.num_cols];
        let (cols, vals) = self.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            dense[c as usize] = v;
        }
        dense
    }

    /// Sum of the values in row `r` (a document's length for θ).
    pub fn row_sum(&self, r: usize) -> u64 {
        let (_, vals) = self.row(r);
        vals.iter().map(|&v| v as u64).sum()
    }

    /// Bytes of storage used by indices and values — the quantity the data
    /// compression of Section 6.1.3 shrinks. Row pointers use
    /// `size_of::<usize>` but are amortized over rows, not entries.
    pub fn storage_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.cols.len() * std::mem::size_of::<u16>()
            + self.vals.len() * std::mem::size_of::<u32>()
    }

    /// Validates the CSR invariants: monotone row pointers, strictly
    /// increasing in-row columns within bounds, non-zero values.
    pub fn check_invariants(&self) {
        assert_eq!(*self.row_ptr.first().unwrap(), 0);
        assert_eq!(*self.row_ptr.last().unwrap(), self.cols.len());
        assert_eq!(self.cols.len(), self.vals.len());
        for r in 0..self.num_rows() {
            assert!(
                self.row_ptr[r] <= self.row_ptr[r + 1],
                "row_ptr not monotone"
            );
            let (cols, vals) = self.row(r);
            for w in cols.windows(2) {
                assert!(w[0] < w[1], "row {r} columns not strictly increasing");
            }
            for &c in cols {
                assert!((c as usize) < self.num_cols, "column out of bounds");
            }
            for &v in vals {
                assert!(v != 0, "stored zero in row {r}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_dense_rows(&[vec![0, 2, 0, 1], vec![0, 0, 0, 0], vec![5, 0, 0, 7]], 4)
    }

    #[test]
    fn dense_rows_reserve_only_their_nonzeros() {
        // 100 × 4096 cells, one nonzero per row: the arrays hold at most the
        // 100 nonzeros, not a slot per cell.
        let rows: Vec<Vec<u32>> = (0..100)
            .map(|r| {
                let mut row = vec![0; 4096];
                row[r * 37 % 4096] = 1;
                row
            })
            .collect();
        let m = CsrMatrix::from_dense_rows(&rows, 4096);
        assert_eq!(m.nnz(), 100);
        assert!(
            m.cols.capacity() <= 100,
            "{} column slots",
            m.cols.capacity()
        );
        assert!(
            m.vals.capacity() <= 100,
            "{} value slots",
            m.vals.capacity()
        );
    }

    #[test]
    fn dense_round_trip() {
        let m = sample();
        m.check_invariants();
        assert_eq!(m.num_rows(), 3);
        assert_eq!(m.num_cols(), 4);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row_to_dense(0), vec![0, 2, 0, 1]);
        assert_eq!(m.row_to_dense(1), vec![0, 0, 0, 0]);
        assert_eq!(m.row_to_dense(2), vec![5, 0, 0, 7]);
    }

    #[test]
    fn point_queries() {
        let m = sample();
        assert_eq!(m.get(0, 1), 2);
        assert_eq!(m.get(0, 0), 0);
        assert_eq!(m.get(2, 3), 7);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.row_sum(2), 12);
        assert_eq!(m.max_value(), 7);
        assert_eq!(CsrMatrix::zeros(2, 4).max_value(), 0);
    }

    #[test]
    fn set_row_grows_and_shrinks() {
        let mut m = sample();
        m.set_row_from_dense(1, &[1, 1, 1, 1]);
        m.check_invariants();
        assert_eq!(m.row_to_dense(1), vec![1, 1, 1, 1]);
        assert_eq!(m.row_to_dense(2), vec![5, 0, 0, 7], "tail row intact");
        m.set_row_from_dense(0, &[0, 0, 0, 0]);
        m.check_invariants();
        assert_eq!(m.row_nnz(0), 0);
        assert_eq!(m.row_to_dense(1), vec![1, 1, 1, 1]);
    }

    #[test]
    fn compression_halves_index_bytes() {
        let m = sample();
        // 4 entries: cols 4*2 bytes + vals 4*4 bytes + ptrs.
        assert_eq!(
            m.storage_bytes(),
            4 * std::mem::size_of::<usize>() + 4 * 2 + 4 * 4
        );
    }

    #[test]
    fn zero_matrix() {
        let m = CsrMatrix::zeros(2, 3);
        m.check_invariants();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.get(1, 2), 0);
    }

    #[test]
    #[should_panic(expected = "compression limit")]
    fn rejects_wide_matrices() {
        CsrMatrix::zeros(1, MAX_COLS + 1);
    }

    #[test]
    fn max_cols_boundary_is_accepted() {
        let m = CsrMatrix::zeros(1, MAX_COLS);
        assert_eq!(m.num_cols(), MAX_COLS);
    }
}
