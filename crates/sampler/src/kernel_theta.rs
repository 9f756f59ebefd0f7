//! The θ update kernel — Section 6.2.
//!
//! θ is sparse (CSR), so it cannot be updated with bare atomics. The paper's
//! two-step algorithm, "document by document":
//!
//! 1. each document gets a **dense scratch array** of `K` counters, filled
//!    with atomic adds over the document's tokens — found through the
//!    **document–word map** built at preprocessing time (the chunk is
//!    word-sorted, so a document's tokens are scattered);
//! 2. the dense array is compacted to a CSR row with a **prefix sum** over
//!    the non-zero flags (the standard parallel stream-compaction).
//!
//! One thread block handles one document. Because each document is owned by
//! exactly one block, its scratch needs no cross-block atomics (the paper
//! still uses atomics within the block; our warp lanes are sequential
//! within a block, so plain adds are the faithful equivalent). The rebuilt
//! rows are deposited in per-document slots and assembled into the CSR on
//! the host side of the launch, mirroring a device-wide compaction.
//!
//! The model charges both steps as the paper runs them: K cells zeroed,
//! one atomic per token, a K-cell compaction scan. The host tallies a
//! document's topics in its executor's [`TopicCounter`], whose bitmap
//! yields the nonzero cells in ascending order without scanning K, so its
//! work grows with the document, not with K. The row is the one the scan
//! gives.

use crate::model::ChunkState;
use crate::topic_counter::TopicCounter;
use culda_corpus::{CsrMatrix, SortedChunk};
use culda_gpusim::{Device, KernelSpec, LaunchPhase, LaunchReport, SimFault};
use std::sync::OnceLock;

/// Rebuilds a chunk's θ replica from the current assignments. Returns the
/// launch report; the new CSR replaces `state.theta`. On failure
/// `state.theta` is left untouched (the rebuilt rows are only committed
/// after a clean launch), so the rebuild is idempotent: a retry recounts
/// from the same `z`.
pub fn try_run_theta_update_kernel(
    device: &Device,
    chunk: &SortedChunk,
    state: &mut ChunkState,
    num_topics: usize,
) -> Result<LaunchReport, SimFault> {
    assert_eq!(state.z.len(), chunk.num_tokens(), "z/chunk mismatch");
    assert!(chunk.num_docs > 0, "chunk has no documents");
    let z = &state.z;
    // One slot per document, written once by its owning block.
    let rows: Vec<OnceLock<(Vec<u16>, Vec<u32>)>> =
        (0..chunk.num_docs).map(|_| OnceLock::new()).collect();

    let spec =
        KernelSpec::new("theta_update", chunk.num_docs as u32).with_phase(LaunchPhase::ThetaUpdate);
    let scratch = || TopicCounter::new(num_topics);
    let report = device.try_launch_spec_with(spec, scratch, |ctx, counter| {
        let d = ctx.block_id as usize;
        let positions = chunk.doc_tokens(d);
        // Step 1: dense scratch per document. The paper fills it with
        // global-memory atomic adds ("we use the atomic functions in this
        // step"), so its traffic is charged to DRAM: zero K cells, one
        // atomic per token, then a full K-read for the compaction scan.
        for &pos in positions {
            counter.add(z.load(pos as usize));
        }
        // Doc-map reads (4 B index + 2 B z each).
        ctx.dram_read(positions.len() * (4 + 2));
        // Dense array: zeroing writes + atomic updates + compaction read.
        ctx.dram_write(num_topics * 4);
        ctx.atomic(positions.len());
        ctx.dram_read(num_topics * 4);
        // Step 2: dense → CSR via prefix-sum compaction; the host walks
        // only the counter's set bitmap words.
        let nnz = counter.distinct();
        let mut cols = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        counter.drain(|k, c| {
            cols.push(k);
            vals.push(c);
        });
        ctx.flop(num_topics); // the compaction scan
        ctx.dram_write(nnz * (2 + 4)); // CSR row out (compressed indices)
        rows[d]
            .set((cols, vals))
            .expect("document rebuilt by two blocks");
    })?;

    // Device-side rows → one CSR matrix (row pointers by prefix sum).
    let mut row_ptr = Vec::with_capacity(chunk.num_docs + 1);
    row_ptr.push(0usize);
    let mut all_cols = Vec::new();
    let mut all_vals = Vec::new();
    for slot in &rows {
        let (cols, vals) = slot.get().expect("document not rebuilt");
        all_cols.extend_from_slice(cols);
        all_vals.extend_from_slice(vals);
        row_ptr.push(all_cols.len());
    }
    state.theta = CsrMatrix::from_parts(chunk.num_docs, num_topics, row_ptr, all_cols, all_vals);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{build_theta_host, ChunkState};
    use culda_corpus::{partition_by_tokens, SynthSpec};
    use culda_gpusim::GpuSpec;

    fn setup() -> (SortedChunk, ChunkState) {
        let corpus = SynthSpec::tiny().generate();
        let chunks = partition_by_tokens(&corpus, 1);
        let chunk = SortedChunk::build(&corpus, &chunks[0]);
        let state = ChunkState::init_random(&chunk, 12, 21);
        (chunk, state)
    }

    #[test]
    fn kernel_matches_host_oracle() {
        // K = 65 and K = 1000 end their counter's bitmap in a partial word.
        let (chunk, mut state) = setup();
        for k in [12usize, 65, 1000] {
            // Perturb z so theta must genuinely change; the stride reaches
            // topics 0 and K − 1.
            for t in 0..chunk.num_tokens() {
                state.z.store(t, ((t * 7) % k) as u16);
            }
            let expected = build_theta_host(&chunk, &state.z, k);
            let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(4);
            try_run_theta_update_kernel(&dev, &chunk, &mut state, k).unwrap();
            state.theta.check_invariants();
            assert_eq!(state.theta, expected, "K = {k}");
        }
    }

    #[test]
    fn rebuilt_theta_conserves_doc_lengths() {
        let (chunk, mut state) = setup();
        let dev = Device::new(0, GpuSpec::v100_volta()).with_workers(8);
        try_run_theta_update_kernel(&dev, &chunk, &mut state, 12).unwrap();
        for d in 0..chunk.num_docs {
            assert_eq!(state.theta.row_sum(d) as usize, chunk.doc_len(d));
        }
    }

    #[test]
    fn worker_count_does_not_change_result() {
        let (chunk, state) = setup();
        let mut results = Vec::new();
        for workers in [1usize, 8] {
            let mut st = ChunkState {
                z: culda_gpusim::memory::AtomicU16Buf::from_vec(state.z.snapshot()),
                theta: state.theta.clone(),
            };
            let dev = Device::new(0, GpuSpec::titan_xp_pascal()).with_workers(workers);
            try_run_theta_update_kernel(&dev, &chunk, &mut st, 12).unwrap();
            results.push(st.theta);
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn huge_k_falls_back_to_dram_scratch() {
        // K = 16384 → 64 KiB dense scratch, over the 48 KiB shared budget;
        // the kernel must still produce a correct θ.
        let (chunk, mut state) = setup();
        let k = 16_384usize;
        for t in 0..chunk.num_tokens() {
            state.z.store(t, ((t * 31) % k) as u16);
        }
        let expected = build_theta_host(&chunk, &state.z, k);
        let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(2);
        try_run_theta_update_kernel(&dev, &chunk, &mut state, k).unwrap();
        assert_eq!(state.theta, expected);
    }
}
