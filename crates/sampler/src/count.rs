//! Hybrid sparse/dense count storage — the resident layout behind ϕ.
//!
//! The Zipf shape of real vocabularies means a handful of head words own
//! most of the tokens while the long tail's `n_kw` rows are nearly empty
//! once training concentrates each word into few topics (SaberLDA's PDW
//! layout and EZLDA's hybrid counters exploit exactly this). A
//! [`CountMatrix`] therefore keeps two physical layouts side by side:
//!
//! * **dense rows** — a flat `u32` slab for hot rows, `O(1)` indexing;
//! * **sparse rows** — sorted `(topic, count)` cell lists for the tail,
//!   `O(nnz)` storage and `O(log nnz)` lookup.
//!
//! A row is promoted to dense the moment its nonzero count crosses the
//! *storage cutover* and demoted back to an empty sparse row on
//! [`CountMatrix::clear`]; the cutover reuses the Δϕ wire-format argmin
//! (see [`row_encoding`]) capped at `K/2` so a sparse-resident row is
//! cheaper than a dense one in **both** modelled bytes and flops — the cap
//! is what lets the sparse sampling path guarantee it never models more
//! time than the dense path (see [`pstar_block_cost`]).
//!
//! ## Bit-identity of the two layouts
//!
//! Every read path materialises the same logical numbers regardless of the
//! physical layout. The one subtle case is the smoothed sampler read
//! `p*(k) = (ϕ_{k,v} + β) · inv_denom[k]`: for an absent sparse cell the
//! dense layout computes `(0.0f32 + β) · inv` and the sparse layout
//! `β · inv` — identical by IEEE-754 (adding positive `β` to `+0.0` is
//! exact), so [`CountMatrix::fill_smoothed`] produces bit-equal `f32`
//! vectors from either layout. Tests pin this.
//!
//! ## Dirty-row marks
//!
//! The matrix records which rows have been written since the last
//! [`CountMatrix::clear`] in an embedded [`PhiDelta`] bitmap. The sparse
//! Δϕ synchronisation derives its touched-row set from these marks, so the
//! payload capture and the storage that backs it can never disagree — a
//! retried iteration re-runs from the clear, which resets both atomically
//! (they are the same object).

use crate::delta::PhiDelta;
use crate::ptree::prefix_into;
use culda_gpusim::memory::AtomicU32Buf;
use std::sync::Mutex;

/// The wire/storage format chosen for one sparse-capable row.
///
/// Shared by the Δϕ payload encoding (PR 5) and the resident
/// [`CountMatrix`] layout: the same byte-count argmin decides both what a
/// row costs to *ship* and what it costs to *keep and stream* during
/// sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowFormat {
    /// `(word, topic, count)` triples.
    Coo,
    /// Row header + `(topic, count)` pairs.
    Csr,
    /// Row header + all `K` counts.
    Dense,
}

/// Per-row nnz above which a dense row takes fewer bytes than CSR.
pub fn dense_cutover(num_topics: usize, elem_bytes: u64) -> usize {
    // Dense wins when 8 + nnz·(2+e) > 4 + K·e, i.e. strictly past the
    // break-even point (CSR keeps ties — it preserves sparsity info).
    let k = num_topics as u64;
    let dense = 4 + k * elem_bytes;
    (dense.saturating_sub(8) / (2 + elem_bytes) + 1) as usize
}

/// Bytes and format for one row holding `nnz` nonzero cells.
pub fn row_encoding(nnz: usize, num_topics: usize, elem_bytes: u64) -> (RowFormat, u64) {
    let n = nnz as u64;
    let e = elem_bytes;
    let coo = n * (6 + e);
    let csr = 8 + n * (2 + e);
    let dense = 4 + num_topics as u64 * e;
    if coo <= csr && coo <= dense {
        (RowFormat::Coo, coo)
    } else if csr <= dense {
        (RowFormat::Csr, csr)
    } else {
        (RowFormat::Dense, dense)
    }
}

/// Per-row nnz below which the sparse *sampling* path is modelled: the
/// byte argmin of [`dense_cutover`] capped at `K/2` so the sparse path's
/// flops (`k + 2·nnz` fill + `depth·nnz` tree patch) also stay below the
/// dense path's (`2k` fill + `k` tree build).
pub fn sparse_sampling_cutover(num_topics: usize, elem_bytes: u64) -> usize {
    dense_cutover(num_topics, elem_bytes).min(num_topics / 2)
}

/// One row's physical storage. Sparse cells are `(topic, count)` sorted by
/// topic; dense rows are plain `u32` slabs (the row mutex already
/// serialises writers, so no per-cell atomics are needed).
#[derive(Debug)]
enum RowStore {
    Sparse(Vec<(u16, u32)>),
    Dense(Vec<u32>),
}

/// Modelled per-block cost of producing the smoothed `p*(k)` vector and
/// its sampling tree for one word row — the quantity the sampling kernel
/// charges and the `--sampling-mode=auto` predictor compares. Keeping the
/// executor and the predictor on this one function is what makes auto's
/// reported seconds equal the chosen fixed mode's by construction (the
/// same pattern as the ϕ-sync `SyncMode::Auto`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PstarCost {
    /// Bytes read from DRAM (ϕ row + per-topic denominators).
    pub dram_read: usize,
    /// Bytes written to DRAM (tree spill when shared memory is off/full).
    pub dram_write: usize,
    /// On-chip (shared/L1/L2) bytes touched.
    pub shared: usize,
    /// Floating-point operations.
    pub flops: usize,
}

/// Cost of the block-shared `p*` phase for a row with `nnz` nonzeros.
///
/// Dense path (per block): read `K` ϕ entries (`K·e`) plus `K` inverse
/// denominators (`K·4`), `2K` fill flops, `K` tree-build flops, and the
/// `p*` array + tree either staged in shared memory or spilled to DRAM.
///
/// Sparse path (rows under [`sparse_sampling_cutover`]): the β-baseline
/// `β·inv_denom[k]` and its tree are **iteration constants** — identical
/// for every word — so a real implementation computes them once per
/// iteration and serves them from on-chip storage; each block then reads
/// only the CSR row (`8 + nnz·(2+e)` from DRAM), patches `nnz` positions
/// (`2·nnz` flops), and patches the tree along `depth` levels per nonzero
/// (`depth·nnz` flops, `4·depth·nnz` on-chip bytes). Every component is
/// clamped to its dense counterpart, so the sparse path can never model
/// more time than the dense one — the monotonicity `--sampling-mode=auto`
/// relies on. Rows at or past the cutover charge the dense cost even in
/// sparse mode (their CSR form would be larger).
#[allow(clippy::too_many_arguments)]
pub fn pstar_block_cost(
    num_topics: usize,
    nnz: usize,
    elem_bytes: usize,
    tree_bytes: usize,
    tree_depth: usize,
    shared_ok: bool,
    sparse: bool,
) -> PstarCost {
    let k = num_topics;
    let dense = PstarCost {
        dram_read: k * elem_bytes + k * 4,
        dram_write: if shared_ok { 0 } else { k * 4 },
        shared: if shared_ok { k * 4 + tree_bytes } else { 0 },
        flops: 3 * k,
    };
    if !sparse || nnz >= sparse_sampling_cutover(k, elem_bytes as u64) {
        return dense;
    }
    let overlay = 4 * tree_depth * nnz;
    PstarCost {
        dram_read: (8 + nnz * (2 + elem_bytes)).min(dense.dram_read),
        dram_write: if shared_ok {
            0
        } else {
            (8 + overlay).min(dense.dram_write)
        },
        // Baseline p* + tree reads are served on-chip (L2-resident
        // iteration constants) plus the per-row overlay writes.
        shared: if shared_ok {
            (k * 4 + overlay).min(dense.shared)
        } else {
            0
        },
        flops: (k + 2 * nnz + tree_depth * nnz).min(dense.flops),
    }
}

/// The launch constants of the smoothed read: the β-baseline
/// `b[k] = β·inv_denom[k]` — the `p*` value of every absent cell — its
/// serial f32 inclusive prefix and its f64 mass, computed once per sampling
/// launch (`pstar_block_cost` already prices them as iteration constants).
#[derive(Debug, Clone)]
pub struct SmoothedBaseline<'a> {
    beta: f32,
    inv_denom: &'a [f32],
    base: Vec<f32>,
    prefix: Vec<f32>,
    /// `Σ b[k]` in f64, or NaN when some `p*` value could be negative
    /// (`β < 0` or a denominator not `≥ 0`), where the bound of
    /// [`PatchedRow::total_bounds`] does not apply.
    mass: f64,
}

impl<'a> SmoothedBaseline<'a> {
    /// The baseline for one launch's `β` and per-topic denominators.
    pub fn new(beta: f32, inv_denom: &'a [f32]) -> Self {
        let base: Vec<f32> = inv_denom.iter().map(|&inv| beta * inv).collect();
        let mut prefix = Vec::new();
        prefix_into(&mut prefix, base.iter().copied());
        // `(c + β)·inv ≥ β·inv ≥ 0` for every count when β and every
        // denominator are non-negative: f32 `+` and `·` are monotone.
        let nonnegative = beta >= 0.0 && inv_denom.iter().all(|&inv| inv >= 0.0);
        let mass = if nonnegative {
            base.iter().map(|&b| b as f64).sum()
        } else {
            f64::NAN
        };
        Self {
            beta,
            inv_denom,
            base,
            prefix,
            mass,
        }
    }

    /// The baseline `b[k]`: what a `p*` scratch holds between
    /// [`CountMatrix::patch_smoothed`] and [`CountMatrix::restore_baseline`]
    /// pairs.
    pub fn values(&self) -> &[f32] {
        &self.base
    }

    /// Writes the serial f32 inclusive prefix of a `p*` scratch that
    /// [`CountMatrix::patch_smoothed`] patched with `row`, and returns its
    /// total T, the last entry. Below the row's first patched column the
    /// scratch equals the baseline, so the baseline prefix is copied that
    /// far and the chain continues from it, one add and one store per
    /// entry. These are the f32 additions of an [`IndexTree`] build's leaf
    /// pass over `fill_smoothed`, in their order, so every prefix entry
    /// and T are bit-identical to it.
    ///
    /// [`IndexTree`]: crate::ptree::IndexTree
    pub fn chain(&self, row: &PatchedRow, pstar: &[f32], prefix: &mut [f32]) -> f32 {
        assert_eq!(pstar.len(), self.base.len(), "p* buffer size");
        assert_eq!(prefix.len(), self.base.len(), "prefix buffer size");
        let first = row.first;
        prefix[..first].copy_from_slice(&self.prefix[..first]);
        let mut acc = first.checked_sub(1).map_or(0.0, |t| self.prefix[t]);
        for (&p, q) in pstar[first..].iter().zip(&mut prefix[first..]) {
            acc += p;
            *q = acc;
        }
        acc
    }
}

/// What [`CountMatrix::patch_smoothed`] learnt about the row it wrote into
/// a `p*` scratch: where [`SmoothedBaseline::chain`] must start, and the
/// row's mass, from which [`PatchedRow::total_bounds`] bounds the chain's
/// total without running it.
#[derive(Debug, Clone, Copy)]
pub struct PatchedRow {
    /// The first column the patch may have changed: a sparse row's first
    /// cell (K when it has none), 0 for a dense row.
    first: usize,
    /// `Σ p*(k)` in f64: the baseline's mass plus each sparse cell's
    /// difference from the baseline, or a dense row's values summed as
    /// they were written. NaN when the baseline's is.
    mass: f64,
    /// K, the number of terms the chain adds.
    len: usize,
}

impl PatchedRow {
    /// `(lo, hi)` with `lo ≤ T ≤ hi` for the serial f32 total T that
    /// [`SmoothedBaseline::chain`] would return; NaN when the values are
    /// not known to be non-negative.
    ///
    /// Higham (*Accuracy and Stability of Numerical Algorithms*, §4.2)
    /// bounds recursive summation of n values by `|T − Σx| ≤ γ_{n−1}·Σ|x|`,
    /// `γ_m = m·u/(1 − m·u)` with `u = 2⁻²⁴`, and for non-negative values
    /// `Σ|x| = Σx`. So `hi` is `mass·(1 + γ_{K−1} + slack)` rounded up to
    /// f32 and `lo` is `mass·(1 − γ_{K−1} − slack)` rounded down. The
    /// addition model holds through underflow (a subnormal sum is exact),
    /// and a finite `hi` keeps every partial sum below f32's overflow
    /// threshold.
    pub fn total_bounds(&self) -> (f32, f32) {
        // K ≤ 65 536 (u16 columns), so (K − 1)·u < 1.
        let nu = self.len.saturating_sub(1) as f64 * F32_UNIT_ROUNDOFF;
        let width = nu / (1.0 - nu) + F64_MASS_SLACK;
        (
            f32_at_or_below(self.mass * (1.0 - width)),
            f32_at_or_above(self.mass * (1.0 + width)),
        )
    }
}

/// The unit roundoff of f32, `u = 2⁻²⁴`.
const F32_UNIT_ROUNDOFF: f64 = 1.0 / (1u64 << 24) as f64;

/// Relative slack for the error of an f64 mass and of the bound's own
/// arithmetic. Over non-negative terms each f64 add, each cell's
/// difference and each of the bound's two products rounds once, by at
/// most `2⁻⁵³` relative: under `(2K + 3)·2⁻⁵³ < 2⁻³⁵` for K ≤ 65 536.
/// The slack is eight times that.
const F64_MASS_SLACK: f64 = 1.0 / (1u64 << 32) as f64;

/// The largest f32 at or below `x` (NaN for NaN).
fn f32_at_or_below(x: f64) -> f32 {
    let y = x as f32;
    if y as f64 > x {
        y.next_down()
    } else {
        y
    }
}

/// The smallest f32 at or above `x` (NaN for NaN).
fn f32_at_or_above(x: f64) -> f32 {
    let y = x as f32;
    if (y as f64) < x {
        y.next_up()
    } else {
        y
    }
}

/// Whether the sparse sampling path would model strictly fewer ϕ-row bytes
/// than the dense path over the whole matrix — the `--sampling-mode=auto`
/// per-iteration decision. Because [`pstar_block_cost`] clamps every
/// sparse component at its dense counterpart, "fewer bytes" implies "no
/// more modelled seconds", so auto is never slower than the best fixed
/// mode; ties (e.g. the burn-in iterations where every row is hot) keep
/// the dense path.
pub fn choose_sparse_sampling(phi: &CountMatrix, elem_bytes: usize) -> bool {
    let k = phi.num_cols();
    let cut = sparse_sampling_cutover(k, elem_bytes as u64);
    let mut sparse_bytes = 0u64;
    let dense_row = (k * elem_bytes + k * 4) as u64;
    for v in 0..phi.num_rows() {
        let nnz = phi.row_nnz(v);
        sparse_bytes += if nnz < cut {
            (8 + nnz * (2 + elem_bytes)) as u64
        } else {
            dense_row
        };
    }
    sparse_bytes < dense_row * phi.num_rows() as u64
}

/// A `rows × cols` matrix of `u32` counters with per-row hybrid storage,
/// embedded nnz accounting, and dirty-row marks. The backing store of the
/// ϕ model: rows are words, columns are topics.
#[derive(Debug)]
pub struct CountMatrix {
    rows: usize,
    cols: usize,
    /// nnz at which a row is promoted to dense storage.
    storage_cutover: usize,
    slots: Vec<Mutex<RowStore>>,
    /// Exact per-row nonzero counts, maintained on every write.
    nnz: AtomicU32Buf,
    /// Rows written since the last [`Self::clear`].
    dirty: PhiDelta,
}

impl CountMatrix {
    /// An all-zero matrix; every row starts sparse (and empty).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "empty count matrix");
        assert!(cols <= u16::MAX as usize + 1, "cols exceed u16 cell index");
        Self {
            rows,
            cols,
            storage_cutover: sparse_sampling_cutover(cols, 4).max(1),
            slots: (0..rows)
                .map(|_| Mutex::new(RowStore::Sparse(Vec::new())))
                .collect(),
            nnz: AtomicU32Buf::zeros(rows),
            dirty: PhiDelta::new(rows),
        }
    }

    /// Number of rows (words).
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (topics).
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// Logical cell count (`rows × cols`), matching the dense layout this
    /// type replaced so flat-index consumers keep working.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether the matrix has zero logical cells (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The nnz threshold at which rows are promoted to dense storage.
    pub fn storage_cutover(&self) -> usize {
        self.storage_cutover
    }

    /// The count at `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> u32 {
        debug_assert!(row < self.rows && col < self.cols);
        match &*self.slots[row].lock().unwrap() {
            RowStore::Dense(cells) => cells[col],
            RowStore::Sparse(cells) => cells
                .binary_search_by_key(&(col as u16), |&(t, _)| t)
                .map(|i| cells[i].1)
                .unwrap_or(0),
        }
    }

    /// Copies all of `row` into `out` (`cols` counts) under one lock — the
    /// read for callers that need a whole row, instead of `cols` calls to
    /// [`CountMatrix::get`] that each lock and, on a sparse row, search.
    pub fn row_into(&self, row: usize, out: &mut [u32]) {
        assert_eq!(out.len(), self.cols, "row buffer size");
        match &*self.slots[row].lock().unwrap() {
            RowStore::Dense(cells) => out.copy_from_slice(cells),
            RowStore::Sparse(cells) => {
                out.fill(0);
                for &(t, c) in cells {
                    out[t as usize] = c;
                }
            }
        }
    }

    /// Adds `delta` to `(row, col)`, promoting the row to dense storage
    /// when its nnz crosses the cutover. Safe under concurrent callers
    /// (the row mutex serialises writers); integer adds commute, so totals
    /// are exact regardless of interleaving.
    pub fn add(&self, row: usize, col: usize, delta: u32) {
        debug_assert!(row < self.rows && col < self.cols);
        if delta == 0 {
            return;
        }
        self.dirty.mark_row(row);
        let mut slot = self.slots[row].lock().unwrap();
        match &mut *slot {
            RowStore::Dense(cells) => {
                if cells[col] == 0 {
                    self.nnz.fetch_add(row, 1);
                }
                cells[col] += delta;
            }
            RowStore::Sparse(cells) => {
                match cells.binary_search_by_key(&(col as u16), |&(t, _)| t) {
                    Ok(i) => cells[i].1 += delta,
                    Err(i) => {
                        cells.insert(i, (col as u16, delta));
                        self.nnz.fetch_add(row, 1);
                    }
                }
                if cells.len() >= self.storage_cutover {
                    *slot = densify(cells, self.cols);
                }
            }
        }
    }

    /// Sets `(row, col)` to `value` (store semantics — used by broadcast
    /// application and checkpoint loading), keeping nnz exact.
    pub fn set(&self, row: usize, col: usize, value: u32) {
        debug_assert!(row < self.rows && col < self.cols);
        self.dirty.mark_row(row);
        let mut slot = self.slots[row].lock().unwrap();
        match &mut *slot {
            RowStore::Dense(cells) => {
                let old = cells[col];
                if old == 0 && value != 0 {
                    self.nnz.fetch_add(row, 1);
                } else if old != 0 && value == 0 {
                    self.nnz.fetch_sub(row, 1);
                }
                cells[col] = value;
            }
            RowStore::Sparse(cells) => {
                match cells.binary_search_by_key(&(col as u16), |&(t, _)| t) {
                    Ok(i) if value == 0 => {
                        cells.remove(i);
                        self.nnz.fetch_sub(row, 1);
                    }
                    Ok(i) => cells[i].1 = value,
                    Err(_) if value == 0 => {}
                    Err(i) => {
                        cells.insert(i, (col as u16, value));
                        self.nnz.fetch_add(row, 1);
                    }
                }
                if cells.len() >= self.storage_cutover {
                    *slot = densify(cells, self.cols);
                }
            }
        }
    }

    /// Adds every `(col, delta)` of `cells` to `row` under one row lock,
    /// with one dirty mark and one nnz update — the batched form of calling
    /// [`Self::add`] per cell. `cells` must be sorted by strictly ascending
    /// column.
    ///
    /// An add cannot shrink a row, so counts, nnz, the dirty mark and the
    /// physical layout all end as the per-cell calls would leave them: the
    /// row ends dense exactly when it was dense or its final nnz reaches
    /// the cutover.
    pub fn add_row(&self, row: usize, cells: &[(u16, u32)]) {
        if cells.iter().all(|&(_, d)| d == 0) {
            return;
        }
        // The sparse merge keeps a row sorted only if its input is.
        self.assert_row_cells(cells);
        self.dirty.mark_row(row);
        let mut slot = self.slots[row]
            .lock()
            .expect("a writer panicked holding this row");
        match &mut *slot {
            RowStore::Dense(dense) => {
                let mut nnz = self.nnz.load(row);
                for &(t, d) in cells {
                    let cell = &mut dense[t as usize];
                    nnz += u32::from(*cell == 0 && d != 0);
                    *cell += d;
                }
                self.nnz.store(row, nnz);
            }
            RowStore::Sparse(sparse) => {
                merge_into(sparse, cells);
                self.nnz.store(row, sparse.len() as u32);
                if sparse.len() >= self.storage_cutover {
                    *slot = densify(sparse, self.cols);
                }
            }
        }
    }

    /// Stores `cells` as the whole of `row` under one row lock, with one
    /// dirty mark and one nnz update: a sparse row copies them, a dense
    /// row has them written over it. `cells` must be sorted by strictly
    /// ascending column, hold no zero value, and name every column the row
    /// already holds (debug builds assert it) — the ϕ sync's stores, where
    /// a replica's nonzero cells are a subset of the global payload's.
    /// Under that contract this is the batched form of calling
    /// [`Self::set`] per cell: the row ends dense exactly when it was dense
    /// or `cells` reach the cutover.
    pub fn store_row(&self, row: usize, cells: &[(u16, u32)]) {
        assert!(cells.iter().all(|&(_, v)| v != 0), "stored a zero count");
        if cells.is_empty() {
            return;
        }
        self.assert_row_cells(cells);
        self.dirty.mark_row(row);
        let mut slot = self.slots[row]
            .lock()
            .expect("a writer panicked holding this row");
        debug_assert_eq!(
            held_among(&slot, cells),
            self.nnz.load(row) as usize,
            "a row store left out a column the row holds"
        );
        match &mut *slot {
            RowStore::Dense(dense) => {
                for &(t, v) in cells {
                    dense[t as usize] = v;
                }
            }
            RowStore::Sparse(_) if cells.len() >= self.storage_cutover => {
                *slot = densify(cells, self.cols);
            }
            RowStore::Sparse(sparse) => {
                sparse.clear();
                sparse.extend_from_slice(cells);
            }
        }
        self.nnz.store(row, cells.len() as u32);
    }

    /// Asserts that `cells` is sorted by strictly ascending column, every
    /// column in range.
    fn assert_row_cells(&self, cells: &[(u16, u32)]) {
        assert!(
            cells.windows(2).all(|w| w[0].0 < w[1].0),
            "cells must be sorted by strictly ascending column"
        );
        assert!(
            cells.last().is_none_or(|&(t, _)| (t as usize) < self.cols),
            "column out of range"
        );
    }

    /// Exact nonzero count of `row` — `O(1)`, maintained on every write.
    pub fn row_nnz(&self, row: usize) -> usize {
        self.nnz.load(row) as usize
    }

    /// Whether `row` is currently held in the dense physical layout.
    pub fn row_is_dense(&self, row: usize) -> bool {
        matches!(&*self.slots[row].lock().unwrap(), RowStore::Dense(_))
    }

    /// The nonzero cells of `row` as `(col, count)`, ascending by column —
    /// the CSR view the checkpoint writer streams.
    pub fn row_nonzeros(&self, row: usize) -> Vec<(u16, u32)> {
        let mut out = Vec::with_capacity(self.row_nnz(row));
        self.extend_row_nonzeros(row, &mut out);
        out
    }

    /// Appends the nonzero cells of `row` to `out` as `(col, count)`,
    /// ascending by column, under the row's lock — how the Δϕ capture
    /// gathers every dirty row into one buffer.
    pub fn extend_row_nonzeros(&self, row: usize, out: &mut Vec<(u16, u32)>) {
        match &*self.slots[row]
            .lock()
            .expect("a writer panicked holding this row")
        {
            RowStore::Sparse(cells) => out.extend_from_slice(cells),
            RowStore::Dense(cells) => out.extend(
                cells
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c != 0)
                    .map(|(t, &c)| (t as u16, c)),
            ),
        }
    }

    /// Fills `out[k] = (count(row, k) as f32 + beta) * inv_denom[k]` — the
    /// smoothed `p*(k)` read of Eq. 8.
    ///
    /// Both layouts produce bit-identical `f32`s: the sparse arm seeds
    /// every slot with `beta * inv_denom[k]`, which equals the dense arm's
    /// `(0.0f32 + beta) * inv_denom[k]` exactly (IEEE-754 addition of a
    /// positive constant to `+0.0` is exact), then patches the nonzero
    /// cells with the identical full expression.
    pub fn fill_smoothed(&self, row: usize, beta: f32, inv_denom: &[f32], out: &mut [f32]) {
        debug_assert_eq!(inv_denom.len(), self.cols);
        debug_assert_eq!(out.len(), self.cols);
        match &*self.slots[row].lock().unwrap() {
            RowStore::Dense(cells) => {
                for (t, slot) in out.iter_mut().enumerate() {
                    *slot = (cells[t] as f32 + beta) * inv_denom[t];
                }
            }
            RowStore::Sparse(cells) => {
                for (t, slot) in out.iter_mut().enumerate() {
                    *slot = beta * inv_denom[t];
                }
                for &(t, c) in cells {
                    out[t as usize] = (c as f32 + beta) * inv_denom[t as usize];
                }
            }
        }
    }

    /// [`Self::fill_smoothed`] over a scratch that holds the baseline: on
    /// entry `pstar` must equal `baseline.values()`; on return it is bit
    /// for bit `fill_smoothed`'s output. A sparse row writes only its cells;
    /// a dense row writes all K. The row's f64 mass is summed on the way
    /// (the baseline's plus each sparse cell's difference from it, or a
    /// dense row's values as they are written), so the returned
    /// [`PatchedRow`] bounds the serial total without running the chain.
    /// [`SmoothedBaseline::chain`] writes the prefix, and
    /// [`Self::restore_baseline`] puts the baseline back.
    pub fn patch_smoothed(
        &self,
        row: usize,
        baseline: &SmoothedBaseline<'_>,
        pstar: &mut [f32],
    ) -> PatchedRow {
        let (beta, inv_denom) = (baseline.beta, baseline.inv_denom);
        assert_eq!(inv_denom.len(), self.cols, "baseline size");
        assert_eq!(pstar.len(), self.cols, "p* buffer size");
        debug_assert!(
            pstar
                .iter()
                .zip(&baseline.base)
                .all(|(p, b)| p.to_bits() == b.to_bits()),
            "p* scratch does not hold the baseline"
        );
        let slot = self.slots[row]
            .lock()
            .expect("a writer panicked holding this row");
        let (first, mass) = match &*slot {
            RowStore::Dense(cells) => {
                // Four partial sums, so no add waits on the one before; the
                // bound holds for any order of the f64 adds.
                let mut sums = [0.0f64; 4];
                let lanes = cells.chunks(4).zip(inv_denom.chunks(4));
                for ((counts, invs), out) in lanes.zip(pstar.chunks_mut(4)) {
                    for (((&c, &inv), p), sum) in counts.iter().zip(invs).zip(out).zip(&mut sums) {
                        *p = (c as f32 + beta) * inv;
                        *sum += *p as f64;
                    }
                }
                (0, sums.iter().sum())
            }
            RowStore::Sparse(cells) => {
                let mut mass = baseline.mass;
                for &(c, n) in cells {
                    let c = c as usize;
                    let value = (n as f32 + beta) * inv_denom[c];
                    pstar[c] = value;
                    mass += value as f64 - baseline.base[c] as f64;
                }
                (cells.first().map_or(self.cols, |&(t, _)| t as usize), mass)
            }
        };
        PatchedRow {
            first,
            mass: if baseline.mass.is_nan() {
                f64::NAN
            } else {
                mass
            },
            len: self.cols,
        }
    }

    /// Puts the baseline back into the `pstar` entries
    /// [`Self::patch_smoothed`] wrote for `row`: a sparse row's cells, or
    /// all of a dense row.
    pub fn restore_baseline(&self, row: usize, baseline: &SmoothedBaseline<'_>, pstar: &mut [f32]) {
        assert_eq!(pstar.len(), self.cols, "p* buffer size");
        let slot = self.slots[row]
            .lock()
            .expect("a writer panicked holding this row");
        match &*slot {
            RowStore::Dense(_) => pstar.copy_from_slice(&baseline.base),
            RowStore::Sparse(cells) => {
                for &(c, _) in cells {
                    pstar[c as usize] = baseline.base[c as usize];
                }
            }
        }
    }

    /// Zeroes every cell, demotes every row to the sparse layout, and
    /// resets the dirty marks — one operation, so the Δϕ row set and the
    /// storage can never fall out of step across a retried iteration.
    pub fn clear(&self) {
        for row in 0..self.rows {
            *self.slots[row].lock().unwrap() = RowStore::Sparse(Vec::new());
            self.nnz.store(row, 0);
        }
        self.dirty.clear();
    }

    /// The rows written since the last [`Self::clear`] — the touched-row
    /// bitmap the sparse Δϕ synchronisation encodes from.
    pub fn dirty(&self) -> &PhiDelta {
        &self.dirty
    }

    /// Overwrites this matrix with `other`'s contents.
    /// Row formats are rebuilt from the source nnz, so two replicas with
    /// equal counts always hold equal physical layouts afterwards.
    pub fn copy_from(&self, other: &CountMatrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "replica shape mismatch"
        );
        for row in 0..self.rows {
            let cells = other.row_nonzeros(row);
            self.nnz.store(row, cells.len() as u32);
            *self.slots[row].lock().unwrap() = if cells.len() >= self.storage_cutover {
                densify(&cells, self.cols)
            } else {
                RowStore::Sparse(cells)
            };
        }
    }

    /// Converts `row` to the dense physical layout regardless of its nnz.
    /// Counts are unchanged — layout conversions are value-preserving by
    /// construction (property-tested).
    pub fn force_dense_row(&self, row: usize) {
        let mut slot = self.slots[row].lock().unwrap();
        if let RowStore::Sparse(cells) = &*slot {
            *slot = densify(cells, self.cols);
        }
    }

    /// Converts `row` to the sparse physical layout regardless of its nnz.
    pub fn force_sparse_row(&self, row: usize) {
        let mut slot = self.slots[row].lock().unwrap();
        if let RowStore::Dense(cells) = &*slot {
            *slot = RowStore::Sparse(
                cells
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c != 0)
                    .map(|(t, &c)| (t as u16, c))
                    .collect(),
            );
        }
    }

    /// `(dense rows, sparse rows, total nnz)` — the occupancy census shown
    /// in `culda profile` and exported as metrics gauges.
    pub fn format_census(&self) -> (usize, usize, u64) {
        let mut dense = 0usize;
        let mut nnz = 0u64;
        for row in 0..self.rows {
            if self.row_is_dense(row) {
                dense += 1;
            }
            nnz += self.nnz.load(row) as u64;
        }
        (dense, self.rows - dense, nnz)
    }

    /// Total nonzero cells across the matrix.
    pub fn total_nnz(&self) -> u64 {
        (0..self.rows).map(|v| self.nnz.load(v) as u64).sum()
    }

    // --- Flat-index compatibility surface -------------------------------
    // The dense layout this type replaced was addressed as `phi[v*K + k]`;
    // oracles, tests, and scoring loops still speak that dialect.

    /// The count at flat index `row·cols + col`.
    pub fn load(&self, flat: usize) -> u32 {
        self.get(flat / self.cols, flat % self.cols)
    }

    /// Stores `value` at flat index `row·cols + col`.
    pub fn store(&self, flat: usize, value: u32) {
        self.set(flat / self.cols, flat % self.cols, value);
    }

    /// Adds `delta` at flat index `row·cols + col`.
    pub fn fetch_add(&self, flat: usize, delta: u32) {
        self.add(flat / self.cols, flat % self.cols, delta);
    }

    /// The full logical contents as a dense row-major `Vec` — the equality
    /// witness the bit-identity suites compare.
    pub fn snapshot(&self) -> Vec<u32> {
        let mut out = vec![0u32; self.len()];
        for row in 0..self.rows {
            let base = row * self.cols;
            match &*self.slots[row].lock().unwrap() {
                RowStore::Dense(cells) => out[base..base + self.cols].copy_from_slice(cells),
                RowStore::Sparse(cells) => {
                    for &(t, c) in cells {
                        out[base + t as usize] = c;
                    }
                }
            }
        }
        out
    }
}

/// Adds `upd` (strictly ascending columns) into the sorted cell list
/// `cells` in place; an absent cell is inserted only if its delta is
/// nonzero.
fn merge_into(cells: &mut Vec<(u16, u32)>, upd: &[(u16, u32)]) {
    // Forward pass: count the cells to insert.
    let mut fresh = 0;
    let mut i = 0;
    for &(t, d) in upd {
        while i < cells.len() && cells[i].0 < t {
            i += 1;
        }
        if cells.get(i).is_none_or(|c| c.0 != t) && d != 0 {
            fresh += 1;
        }
    }
    // Backward pass: write the merged list from the top end, so every old
    // cell moves at most once and is read before its slot is overwritten.
    let old_len = cells.len();
    cells.resize(old_len + fresh, (0, 0));
    let (mut i, mut w) = (old_len, old_len + fresh);
    for &(t, d) in upd.iter().rev() {
        while i > 0 && cells[i - 1].0 > t {
            i -= 1;
            w -= 1;
            cells[w] = cells[i];
        }
        let old = if i > 0 && cells[i - 1].0 == t {
            i -= 1;
            cells[i].1
        } else {
            0
        };
        if old + d != 0 {
            w -= 1;
            cells[w] = (t, old + d);
        }
    }
    debug_assert_eq!(i, w, "the merge lost a present cell");
}

/// How many of the row's nonzero columns `cells` (strictly ascending
/// columns) names; a store that names them all leaves no stale cell.
fn held_among(row: &RowStore, cells: &[(u16, u32)]) -> usize {
    match row {
        RowStore::Dense(dense) => cells
            .iter()
            .filter(|&&(t, _)| dense[t as usize] != 0)
            .count(),
        RowStore::Sparse(held) => held
            .iter()
            .filter(|&&(t, _)| cells.binary_search_by_key(&t, |&(c, _)| c).is_ok())
            .count(),
    }
}

fn densify(cells: &[(u16, u32)], cols: usize) -> RowStore {
    let mut dense = vec![0u32; cols];
    for &(t, c) in cells {
        dense[t as usize] = c;
    }
    RowStore::Dense(dense)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_and_nnz_track_exactly() {
        let m = CountMatrix::zeros(4, 8);
        m.add(1, 3, 2);
        m.add(1, 3, 5);
        m.add(1, 0, 1);
        assert_eq!(m.get(1, 3), 7);
        assert_eq!(m.get(1, 0), 1);
        assert_eq!(m.get(0, 0), 0);
        assert_eq!(m.row_nnz(1), 2);
        assert_eq!(m.row_nnz(0), 0);
        assert_eq!(m.row_nonzeros(1), vec![(0, 1), (3, 7)]);
    }

    #[test]
    fn rows_promote_at_the_cutover_and_demote_on_clear() {
        let k = 64;
        let m = CountMatrix::zeros(2, k);
        let cut = m.storage_cutover();
        assert_eq!(cut, sparse_sampling_cutover(k, 4));
        for t in 0..cut - 1 {
            m.add(0, t, 1);
        }
        assert!(!m.row_is_dense(0), "below cutover stays sparse");
        m.add(0, cut - 1, 1);
        assert!(m.row_is_dense(0), "cutover promotes to dense");
        assert_eq!(m.row_nnz(0), cut);
        m.clear();
        assert!(!m.row_is_dense(0), "clear demotes to sparse");
        assert_eq!(m.total_nnz(), 0);
        assert_eq!(m.snapshot(), vec![0; 2 * k]);
    }

    #[test]
    fn conversions_round_trip_and_preserve_totals() {
        let m = CountMatrix::zeros(3, 16);
        for (v, t, c) in [(0, 1, 5u32), (0, 9, 2), (2, 15, 7), (2, 0, 1)] {
            m.add(v, t, c);
        }
        let before = m.snapshot();
        let total: u64 = before.iter().map(|&c| c as u64).sum();
        for v in 0..3 {
            m.force_dense_row(v);
        }
        assert_eq!(m.snapshot(), before, "sparse→dense changed values");
        for v in 0..3 {
            m.force_sparse_row(v);
        }
        assert_eq!(m.snapshot(), before, "dense→sparse changed values");
        assert_eq!(m.total_nnz(), 4);
        let after: u64 = m.snapshot().iter().map(|&c| c as u64).sum();
        assert_eq!(after, total, "conversion changed the total count");
    }

    #[test]
    fn fill_smoothed_is_bit_identical_across_layouts() {
        let k = 32;
        let m = CountMatrix::zeros(1, k);
        m.add(0, 3, 11);
        m.add(0, 17, 4);
        let beta = 0.01f32;
        let inv: Vec<f32> = (0..k).map(|t| 1.0 / (t as f32 + 1.5)).collect();
        let mut sparse = vec![0.0f32; k];
        m.fill_smoothed(0, beta, &inv, &mut sparse);
        m.force_dense_row(0);
        let mut dense = vec![0.0f32; k];
        m.fill_smoothed(0, beta, &inv, &mut dense);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&sparse), bits(&dense));
        // And both match the definitional expression.
        for t in 0..k {
            let c = m.get(0, t);
            assert_eq!(sparse[t].to_bits(), ((c as f32 + beta) * inv[t]).to_bits());
        }
    }

    #[test]
    fn row_into_matches_get_in_both_layouts() {
        let m = CountMatrix::zeros(2, 16);
        m.add(0, 3, 11);
        m.add(0, 15, 2);
        m.add(1, 0, 5);
        m.force_dense_row(1);
        let mut row = vec![7u32; 16];
        for r in 0..2 {
            m.row_into(r, &mut row);
            let want: Vec<u32> = (0..16).map(|t| m.get(r, t)).collect();
            assert_eq!(row, want, "row {r}");
        }
    }

    #[test]
    fn row_writes_merge_in_place_and_keep_nnz_exact() {
        let m = CountMatrix::zeros(2, 16);
        m.add_row(0, &[(2, 1), (9, 4)]);
        m.add_row(0, &[(0, 3), (2, 5), (7, 0), (15, 1)]);
        assert_eq!(m.row_nonzeros(0), vec![(0, 3), (2, 6), (9, 4), (15, 1)]);
        assert_eq!(m.row_nnz(0), 4);
        let stored = [(0, 2), (1, 8), (2, 1), (9, 2), (15, 1)];
        m.store_row(0, &stored);
        assert_eq!(m.row_nonzeros(0), stored);
        assert_eq!(m.row_nnz(0), 5);
        m.force_dense_row(0);
        let stored = [(0, 1), (1, 1), (2, 7), (5, 3), (9, 9), (15, 4)];
        m.store_row(0, &stored);
        assert_eq!(m.row_nonzeros(0), stored);
        assert_eq!(m.row_nnz(0), 6);
        m.add_row(1, &[(3, 0)]);
        assert!(!m.dirty().is_marked(1), "an all-zero add writes nothing");
        assert_eq!(m.row_nnz(1), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "left out a column the row holds")]
    fn store_row_rejects_a_store_that_leaves_out_a_held_column() {
        let m = CountMatrix::zeros(1, 8);
        m.add_row(0, &[(2, 1), (5, 1)]);
        m.store_row(0, &[(2, 3), (6, 1)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "left out a column the row holds")]
    fn store_row_rejects_a_dense_store_that_leaves_out_a_held_column() {
        let m = CountMatrix::zeros(1, 8);
        m.add_row(0, &[(2, 1), (5, 1)]);
        m.force_dense_row(0);
        m.store_row(0, &[(2, 3), (4, 1), (6, 1)]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn row_writes_reject_unsorted_cells() {
        CountMatrix::zeros(1, 8).add_row(0, &[(3, 1), (2, 1)]);
    }

    #[test]
    #[should_panic(expected = "zero count")]
    fn store_row_rejects_zero_values() {
        CountMatrix::zeros(1, 8).store_row(0, &[(2, 0)]);
    }

    #[test]
    fn set_keeps_nnz_exact_in_both_layouts() {
        let m = CountMatrix::zeros(2, 8);
        m.set(0, 2, 9);
        assert_eq!(m.row_nnz(0), 1);
        m.set(0, 2, 0);
        assert_eq!(m.row_nnz(0), 0);
        m.force_dense_row(1);
        m.set(1, 5, 3);
        m.set(1, 6, 4);
        assert_eq!(m.row_nnz(1), 2);
        m.set(1, 5, 0);
        assert_eq!(m.row_nnz(1), 1);
        assert_eq!(m.get(1, 5), 0);
    }

    #[test]
    fn dirty_marks_follow_writes_and_reset_with_clear() {
        let m = CountMatrix::zeros(10, 4);
        assert_eq!(m.dirty().count(), 0);
        m.add(3, 0, 1);
        m.set(7, 2, 5);
        assert!(m.dirty().is_marked(3) && m.dirty().is_marked(7));
        assert!(!m.dirty().is_marked(0));
        m.clear();
        assert_eq!(m.dirty().count(), 0);
    }

    #[test]
    fn concurrent_adds_are_exact() {
        let m = CountMatrix::zeros(4, 256);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..1000usize {
                        m.add(i % 4, i % 256, 1);
                    }
                });
            }
        });
        let total: u64 = m.snapshot().iter().map(|&c| c as u64).sum();
        assert_eq!(total, 8_000);
        assert_eq!(
            m.total_nnz(),
            m.snapshot().iter().filter(|&&c| c != 0).count() as u64
        );
    }

    #[test]
    fn copy_from_matches_its_source() {
        let a = CountMatrix::zeros(3, 8);
        a.add(0, 1, 5);
        a.add(1, 4, 1);
        a.add(2, 7, 5);
        let c = CountMatrix::zeros(3, 8);
        c.copy_from(&a);
        assert_eq!(c.snapshot(), a.snapshot());
        assert_eq!(c.total_nnz(), a.total_nnz());
    }

    #[test]
    fn flat_shims_agree_with_row_addressing() {
        let m = CountMatrix::zeros(5, 6);
        m.store(4 * 6 + 3, 9);
        assert_eq!(m.get(4, 3), 9);
        m.fetch_add(4 * 6 + 3, 1);
        assert_eq!(m.load(4 * 6 + 3), 10);
        assert_eq!(m.len(), 30);
        assert!(!m.is_empty());
    }

    #[test]
    fn a_nan_mass_gives_nan_bounds() {
        // A baseline that could hold a negative p* has a NaN mass; its
        // bounds must show nothing, so the kernel chains before any token.
        for len in [1, 2, 4096] {
            let row = PatchedRow {
                first: 0,
                mass: f64::NAN,
                len,
            };
            let (lo, hi) = row.total_bounds();
            assert!(lo.is_nan() && hi.is_nan(), "K = {len}: [{lo}, {hi}]");
        }
        // Built by hand: `new` debug-asserts a non-negative prefix.
        let inv = [0.5f32, -0.25];
        let baseline = SmoothedBaseline {
            beta: 0.1,
            inv_denom: &inv,
            base: vec![0.05, -0.025],
            prefix: vec![0.05, 0.025],
            mass: f64::NAN,
        };
        let m = CountMatrix::zeros(1, 2);
        m.add(0, 1, 3);
        m.force_dense_row(0);
        let mut pstar = baseline.base.clone();
        let (lo, hi) = m.patch_smoothed(0, &baseline, &mut pstar).total_bounds();
        assert!(lo.is_nan() && hi.is_nan(), "dense row: [{lo}, {hi}]");
    }

    #[test]
    fn sparse_cost_never_exceeds_dense_cost() {
        for k in [16usize, 256, 1024, 10_000] {
            for e in [2usize, 4] {
                for shared_ok in [true, false] {
                    let dense = pstar_block_cost(k, k, e, k * 4, 3, shared_ok, false);
                    for nnz in [0usize, 1, k / 8, k / 2, k] {
                        let s = pstar_block_cost(k, nnz, e, k * 4, 3, shared_ok, true);
                        assert!(s.dram_read <= dense.dram_read, "k={k} nnz={nnz}");
                        assert!(s.dram_write <= dense.dram_write, "k={k} nnz={nnz}");
                        assert!(s.shared <= dense.shared, "k={k} nnz={nnz}");
                        assert!(s.flops <= dense.flops, "k={k} nnz={nnz}");
                    }
                }
            }
        }
    }

    #[test]
    fn auto_decision_flips_with_density() {
        let k = 256;
        let hot = CountMatrix::zeros(4, k);
        for v in 0..4 {
            for t in 0..k {
                hot.add(v, t, 1);
            }
        }
        assert!(
            !choose_sparse_sampling(&hot, 2),
            "fully dense rows: stay dense"
        );
        let cold = CountMatrix::zeros(4, k);
        for v in 0..4 {
            cold.add(v, v, 1);
        }
        assert!(
            choose_sparse_sampling(&cold, 2),
            "near-empty rows: go sparse"
        );
    }

    #[test]
    fn row_encoding_picks_the_cheapest_format() {
        let k = 1024;
        let e = 2;
        assert_eq!(row_encoding(1, k, e).0, RowFormat::Coo);
        assert_eq!(row_encoding(10, k, e).0, RowFormat::Csr);
        assert_eq!(row_encoding(k, k, e).0, RowFormat::Dense);
        let cut = dense_cutover(k, e);
        assert!(matches!(row_encoding(cut, k, e).0, RowFormat::Dense));
        assert!(!matches!(row_encoding(cut - 1, k, e).0, RowFormat::Dense));
    }
}
