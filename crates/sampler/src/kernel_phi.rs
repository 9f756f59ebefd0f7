//! The ϕ update kernel — Section 6.2.
//!
//! "Model ϕ is a dense matrix, the update algorithm is intuitive. We use
//! the intrinsic atomic add instructions to update all elements of ϕ. The
//! corpus chunk is sorted in a word-first order, therefore, the update is
//! word by word… atomic functions that have good data locality shows good
//! performance."
//!
//! The kernel reuses the sampling block map (one block per word slice):
//! all atomics from one block land in one ϕ column, which is the locality
//! the paper relies on. A separate clear kernel zeroes the replica first —
//! each GPU's replica counts only its own chunks' tokens; replicas are
//! summed by the Figure 4 reduce afterwards.

use crate::blockmap::BlockWork;
use crate::model::{ChunkState, PhiModel};
use crate::topic_counter::TopicCounter;
use culda_corpus::SortedChunk;
use culda_gpusim::memory::AtomicU16Buf;
use culda_gpusim::{BlockCtx, Device, KernelSpec, LaunchPhase, LaunchReport, SimFault};

/// Zeroes a ϕ replica: the memset kernel that precedes accumulation.
/// Idempotent (a memset), so retry is a re-run.
///
/// Block 0 performs the whole logical clear through [`PhiModel::clear`] —
/// one operation that zeroes the counts, demotes every hybrid row back to
/// its sparse layout, *and* resets the dirty-row marks, so the Δϕ
/// touched-row set can never survive a retried iteration.
///
/// The modelled traffic follows the layout the clear actually touches.
/// Dense mode (`sparse = false`, the paper's `cudaMemset`) writes all
/// `V·K + K` cells. Sparse mode clears the hybrid layout in place: dense
/// head rows are memset (`K` cells each), a CSR tail row only resets its
/// length word (its cell arrays are dropped, not rewritten), and the `K`
/// column sums are always memset. The sparse charge is clamped to never
/// exceed the dense one, so under the roofline the sparse clear never
/// models more time — the result of the clear is identical either way.
pub fn try_run_phi_clear_kernel(
    device: &Device,
    phi: &PhiModel,
    sparse: bool,
) -> Result<LaunchReport, SimFault> {
    let cells = phi.phi.len() + phi.phi_sum.len();
    let dense_bytes = cells as u64 * 4;
    let bytes = if sparse {
        let (dense_rows, sparse_rows, _) = phi.phi.format_census();
        let hybrid = (dense_rows as u64 * phi.num_topics as u64
            + sparse_rows as u64
            + phi.phi_sum.len() as u64)
            * 4;
        hybrid.min(dense_bytes)
    } else {
        dense_bytes
    };
    // 256 threads × 4 cells per thread per block is a typical memset grid;
    // the traffic is what matters: one u32 store per (touched) cell.
    let blocks = (cells as u32).div_ceil(1024).max(1) as u64;
    let spec = KernelSpec::new("phi_clear", blocks as u32).with_phase(LaunchPhase::PhiUpdate);
    device.try_launch_spec(spec, |ctx: &mut BlockCtx| {
        if ctx.block_id == 0 {
            phi.clear();
        }
        // Each block charges its share of the write traffic; the shares
        // telescope so the launch total is exactly `bytes`.
        let b = ctx.block_id as u64;
        ctx.dram_write((bytes * (b + 1) / blocks - bytes * b / blocks) as usize);
    })
}

/// Accumulates one chunk's assignments into the ϕ replica with atomic
/// adds. *Not* idempotent on its own (atomic adds double-count on a blind
/// re-run) — recovery re-runs the whole iteration body starting from the
/// clear.
///
/// Each block marks the single ϕ row it writes in the [`CountMatrix`]
/// dirty bitmap (one extra `atomicOr` per block — negligible next to the
/// per-token atomics). The sparse Δϕ synchronization encodes its payload
/// from those marks, and because the bitmap lives *inside* the count
/// storage and resets with it, the two can never disagree after a retried
/// iteration.
///
/// The model charges two atomics per token, as the paper's kernel issues
/// them. The host batches them instead, in [`add_block_to_phi`].
///
/// [`CountMatrix`]: crate::count::CountMatrix
pub fn try_run_phi_update_kernel(
    device: &Device,
    chunk: &SortedChunk,
    state: &ChunkState,
    phi: &PhiModel,
    block_map: &[BlockWork],
) -> Result<LaunchReport, SimFault> {
    assert_eq!(state.z.len(), chunk.num_tokens(), "z/chunk mismatch");
    let spec =
        KernelSpec::new("phi_update", block_map.len() as u32).with_phase(LaunchPhase::PhiUpdate);
    let scratch = || (TopicCounter::new(phi.num_topics), Vec::new());
    device.try_launch_spec_with(spec, scratch, |ctx, (counter, cells)| {
        let work = &block_map[ctx.block_id as usize];
        add_block_to_phi(chunk, &state.z, work, phi, counter, cells);
        // Per token: read z (2 B), two atomic read-modify-writes.
        let n = work.tokens.len();
        ctx.dram_read(n * 2);
        ctx.atomic(2 * n);
        ctx.dram_write(n * 8); // atomics dirty one ϕ and one sum cell each
        ctx.atomic(1); // one atomicOr into the row bitmap per block
    })
}

/// The ϕ-update kernel's block body on the host: adds one block's tokens,
/// which all share one word, to `phi`. `counter` tallies their topics, and
/// its ascending `(topic, count)` cells are written to the word's row once
/// (one row lock, one dirty mark) and added to `phi_sum` with one atomic
/// each. Integer adds commute and no row write can shrink a row, so the
/// counts, the row layouts and the dirty marks are exactly those of
/// per-token adds ([`accumulate_phi_host`]). `cells` is scratch; both
/// scratch values may be reused across blocks.
///
/// The trainer's build writes its initial ϕ through this body too, without
/// a launch or a charge.
///
/// [`accumulate_phi_host`]: crate::model::accumulate_phi_host
pub fn add_block_to_phi(
    chunk: &SortedChunk,
    z: &AtomicU16Buf,
    work: &BlockWork,
    phi: &PhiModel,
    counter: &mut TopicCounter,
    cells: &mut Vec<(u16, u32)>,
) {
    let word = chunk.word_ids[work.word_idx] as usize;
    for t in work.tokens.clone() {
        counter.add(z.load(t));
    }
    cells.clear();
    counter.drain(|topic, count| {
        cells.push((topic, count));
        phi.phi_sum.fetch_add(topic as usize, count);
    });
    phi.phi.add_row(word, cells);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockmap::build_block_map;
    use crate::hyper::Priors;
    use crate::model::accumulate_phi_host;
    use culda_corpus::{partition_by_tokens, SynthSpec};
    use culda_gpusim::GpuSpec;

    fn setup() -> (SortedChunk, ChunkState) {
        let corpus = SynthSpec::tiny().generate();
        let chunks = partition_by_tokens(&corpus, 1);
        let chunk = SortedChunk::build(&corpus, &chunks[0]);
        let state = ChunkState::init_random(&chunk, 8, 5);
        (chunk, state)
    }

    #[test]
    fn kernel_matches_host_oracle() {
        let (chunk, state) = setup();
        let kernel_phi = PhiModel::zeros(8, 500, Priors::paper(8));
        let oracle_phi = PhiModel::zeros(8, 500, Priors::paper(8));
        accumulate_phi_host(&chunk, &state.z, &oracle_phi);

        let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(4);
        let map = build_block_map(&chunk, 64);
        try_run_phi_clear_kernel(&dev, &kernel_phi, false).unwrap();
        try_run_phi_update_kernel(&dev, &chunk, &state, &kernel_phi, &map).unwrap();

        assert_eq!(kernel_phi.phi.snapshot(), oracle_phi.phi.snapshot());
        assert_eq!(kernel_phi.phi_sum.snapshot(), oracle_phi.phi_sum.snapshot());
        assert_eq!(kernel_phi.check_sums(), chunk.num_tokens() as u64);
    }

    #[test]
    fn dirty_marks_exactly_the_touched_rows_and_reset_with_the_clear() {
        let (chunk, state) = setup();
        let phi = PhiModel::zeros(8, 500, Priors::paper(8));
        let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(4);
        let map = build_block_map(&chunk, 64);
        try_run_phi_clear_kernel(&dev, &phi, false).unwrap();
        try_run_phi_update_kernel(&dev, &chunk, &state, &phi, &map).unwrap();

        // Every nonzero ϕ row is marked, and every marked row is nonzero
        // (word-sorted chunks touch exactly the rows of their words).
        for v in 0..500 {
            let row_nonzero = phi.phi.row_nnz(v) > 0;
            assert_eq!(phi.phi.dirty().is_marked(v), row_nonzero, "row {v}");
        }
        assert!(phi.phi.dirty().count() > 0);

        // A retried iteration re-runs from the clear: counts and marks
        // reset together because they are one object.
        try_run_phi_clear_kernel(&dev, &phi, false).unwrap();
        assert_eq!(phi.phi.dirty().count(), 0);
        assert_eq!(phi.phi.total_nnz(), 0);
    }

    #[test]
    fn clear_kernel_really_clears() {
        let phi = PhiModel::zeros(4, 10, Priors::paper(4));
        phi.phi.store(13, 99);
        phi.phi_sum.store(2, 7);
        let dev = Device::new(0, GpuSpec::v100_volta());
        try_run_phi_clear_kernel(&dev, &phi, false).unwrap();
        assert!(phi.phi.snapshot().iter().all(|&v| v == 0));
        assert!(phi.phi_sum.snapshot().iter().all(|&v| v == 0));
    }

    #[test]
    fn sparse_clear_charges_less_on_a_tail_heavy_replica() {
        // 500 rows × 1024 topics, every row holding a handful of CSR
        // cells: the hybrid clear resets row lengths instead of memsetting
        // K cells per row, so its modelled writes collapse.
        let k = 1024;
        let phi = PhiModel::zeros(k, 500, Priors::paper(k));
        for v in 0..500 {
            phi.phi.add(v, v % k, 3);
            phi.phi_sum.fetch_add(v % k, 3);
        }
        let dev_a = Device::new(0, GpuSpec::titan_x_maxwell());
        let dense = try_run_phi_clear_kernel(&dev_a, &phi, false).unwrap();
        for v in 0..500 {
            phi.phi.add(v, v % k, 3);
        }
        let dev_b = Device::new(0, GpuSpec::titan_x_maxwell());
        let sparse = try_run_phi_clear_kernel(&dev_b, &phi, true).unwrap();
        assert!(phi.phi.snapshot().iter().all(|&c| c == 0), "must clear");
        assert_eq!(phi.phi.dirty().count(), 0, "marks must reset");
        assert!(
            sparse.cost.dram_write_bytes * 10 < dense.cost.dram_write_bytes,
            "sparse clear wrote {} bytes, dense {}",
            sparse.cost.dram_write_bytes,
            dense.cost.dram_write_bytes
        );
        assert!(sparse.sim_seconds <= dense.sim_seconds);
    }

    #[test]
    fn update_is_atomic_under_concurrency() {
        // Run the same accumulation with different worker counts and block
        // sizes; totals must agree exactly.
        let (chunk, state) = setup();
        let mut totals = Vec::new();
        for (tpb, workers) in [(16usize, 1usize), (200, 8)] {
            let phi = PhiModel::zeros(8, 500, Priors::paper(8));
            let dev = Device::new(0, GpuSpec::titan_xp_pascal()).with_workers(workers);
            let map = build_block_map(&chunk, tpb);
            try_run_phi_update_kernel(&dev, &chunk, &state, &phi, &map).unwrap();
            totals.push(phi.phi.snapshot());
        }
        assert_eq!(totals[0], totals[1]);
    }

    #[test]
    fn cost_scales_with_tokens() {
        let (chunk, state) = setup();
        let phi = PhiModel::zeros(8, 500, Priors::paper(8));
        let dev = Device::new(0, GpuSpec::titan_x_maxwell());
        let map = build_block_map(&chunk, 64);
        let r = try_run_phi_update_kernel(&dev, &chunk, &state, &phi, &map).unwrap();
        // Two atomics per token plus one row-bitmap atomicOr per block.
        assert_eq!(
            r.cost.atomics,
            2 * chunk.num_tokens() as u64 + map.len() as u64
        );
    }
}
