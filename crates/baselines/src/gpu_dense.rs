//! The naive GPU port: dense O(K) CGS with one *thread* per token and no
//! memory-hierarchy optimization — the strawman behind the paper's claim
//! that "simply porting existing CPU-based … LDA solutions to GPUs can not
//! deliver good performance" (Section 1) and the BIDMach-class prior
//! work \[8\] it groups under earlier GPU LDA attempts.
//!
//! Differences from the CuLDA kernel, each an optimization this baseline
//! deliberately lacks:
//!
//! * dense `p(k)` evaluation — `O(K)` loads per token instead of `O(K_d)`;
//! * no shared-memory reuse — every `p*(k)` term is recomputed and fetched
//!   from DRAM for every token, even for tokens of the same word;
//! * no index tree — the inverse-CDF search streams the prefix array;
//! * no u16 compression — 32-bit indices everywhere;
//! * token-major (not word-major) order — ϕ column loads are uncoalesced,
//!   modelled with a DRAM-efficiency penalty.
//!
//! Like every solver here, statistics are exact; only time is modelled.

use culda_corpus::{SortedChunk, Xoshiro256};
use culda_gpusim::{BlockCtx, Device, LaunchReport};
use culda_sampler::{ChunkState, PhiModel};

/// Tokens handled by one naive block (256 threads, one token each).
const TOKENS_PER_BLOCK: usize = 256;

/// Uncoalesced-access penalty: a 4-byte load that misses coalescing costs
/// a 32-byte DRAM sector on NVIDIA hardware.
const SECTOR_BYTES: usize = 32;

/// Runs one naive dense sampling pass over a chunk on `device`, writing
/// new assignments into `state.z` (same read-only-model semantics as the
/// CuLDA kernel, so the two are directly comparable).
pub fn run_naive_dense_kernel(
    device: &mut Device,
    chunk: &SortedChunk,
    state: &ChunkState,
    phi: &PhiModel,
    inv_denom: &[f32],
    seed: u64,
    iteration: u32,
) -> LaunchReport {
    assert_eq!(state.z.len(), chunk.num_tokens(), "z/chunk mismatch");
    let k = phi.num_topics;
    let alpha = phi.priors.alpha as f32;
    let beta = phi.priors.beta as f32;
    let stream_seed = seed ^ (iteration as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let num_tokens = chunk.num_tokens();
    let blocks = num_tokens.div_ceil(TOKENS_PER_BLOCK).max(1) as u32;

    // Token → word lookup table (the naive layout keeps tokens in corpus
    // order; we reuse the sorted layout's arrays but pay uncoalesced cost).
    let mut token_word = vec![0u32; num_tokens];
    for (wi, &w) in chunk.word_ids.iter().enumerate() {
        for t in chunk.word_tokens(wi) {
            token_word[t] = w;
        }
    }

    device.launch("naive_dense_sample", blocks, |ctx: &mut BlockCtx| {
        let start = ctx.block_id as usize * TOKENS_PER_BLOCK;
        let end = (start + TOKENS_PER_BLOCK).min(num_tokens);
        let mut p = vec![0.0f32; k];
        // `t` is the global token index: it keys the RNG stream and the
        // `z` store, not just the `token_word` lookup.
        #[allow(clippy::needless_range_loop)]
        for t in start..end {
            let w = token_word[t] as usize;
            let d = chunk.token_doc[t] as usize;
            ctx.dram_read(8);
            let theta_dense = state.theta.row_to_dense(d);
            // Dense conditional: K terms, each loading θ (4 B) and ϕ (4 B)
            // uncoalesced (one sector each) plus the sum lookup.
            let mut acc = 0.0f32;
            let base = w * k;
            for (kk, slot) in p.iter_mut().enumerate() {
                let pw = (phi.phi.load(base + kk) as f32 + beta) * inv_denom[kk];
                acc += (theta_dense[kk] as f32 + alpha) * pw;
                *slot = acc;
            }
            ctx.dram_read(k * 2 * SECTOR_BYTES);
            ctx.flop(4 * k);
            // Inverse-CDF by linear scan over the prefix array in DRAM.
            let mut rng = Xoshiro256::from_seed_stream(stream_seed, t as u64);
            let x = rng.next_f32() * acc;
            let mut pick = (k - 1) as u16;
            for (kk, &c) in p.iter().enumerate() {
                if x < c {
                    pick = kk as u16;
                    break;
                }
            }
            ctx.dram_read(k * 4 / 2); // expected half-scan
            state.z.store(t, pick);
            ctx.dram_write(2);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use culda_corpus::{partition_by_tokens, SynthSpec};
    use culda_gpusim::GpuSpec;
    use culda_sampler::{
        accumulate_phi_host, build_block_map, run_sampling_kernel, Priors, SampleConfig,
    };

    fn setup(k: usize) -> (SortedChunk, ChunkState, PhiModel) {
        let mut spec = SynthSpec::tiny();
        spec.num_docs = 120;
        spec.vocab_size = 200;
        spec.avg_doc_len = 30.0;
        let corpus = spec.generate();
        let chunks = partition_by_tokens(&corpus, 1);
        let chunk = SortedChunk::build(&corpus, &chunks[0]);
        let state = ChunkState::init_random(&chunk, k, 3);
        let phi = PhiModel::zeros(k, corpus.vocab_size(), Priors::paper(k));
        accumulate_phi_host(&chunk, &state.z, &phi);
        (chunk, state, phi)
    }

    #[test]
    fn assignments_are_valid_and_deterministic() {
        let (chunk, state, phi) = setup(16);
        let inv = phi.inv_denominators();
        let mut dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(4);
        run_naive_dense_kernel(&mut dev, &chunk, &state, &phi, &inv, 7, 0);
        let z1 = state.z.snapshot();
        assert!(z1.iter().all(|&z| (z as usize) < 16));
        run_naive_dense_kernel(&mut dev, &chunk, &state, &phi, &inv, 7, 0);
        assert_eq!(state.z.snapshot(), z1, "same seed/iteration reproduces");
        run_naive_dense_kernel(&mut dev, &chunk, &state, &phi, &inv, 7, 1);
        assert_ne!(state.z.snapshot(), z1, "next iteration resamples");
    }

    #[test]
    fn naive_port_is_much_slower_than_culda_kernel() {
        // The headline claim: at realistic K the optimized kernel beats the
        // naive port by a large factor in simulated time.
        let k = 1024;
        let (chunk, state, phi) = setup(k);
        let inv = phi.inv_denominators();

        let mut dev_naive = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(4);
        let naive = run_naive_dense_kernel(&mut dev_naive, &chunk, &state, &phi, &inv, 7, 0);

        let dev_culda = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(4);
        let map = build_block_map(&chunk, 512);
        let culda = run_sampling_kernel(
            &dev_culda,
            &chunk,
            &state,
            &phi,
            &inv,
            &map,
            &SampleConfig::new(7),
        );
        let speedup = naive.sim_seconds / culda.sim_seconds;
        assert!(
            speedup > 5.0,
            "expected a large optimized-vs-naive gap, got {speedup:.2}x"
        );
    }
}
