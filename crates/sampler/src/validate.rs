//! Cross-kernel invariant checks.
//!
//! Every training iteration must conserve tokens: after sampling and both
//! update kernels, the assignments `z`, the θ replica, and the ϕ replica
//! are three views of the same multiset of (doc, word, topic) triples.
//! These checks are the guardrail run by the integration tests and (in
//! debug builds) by the trainer between iterations.

use crate::model::{ChunkState, PhiModel};
use culda_corpus::SortedChunk;

/// Asserts full consistency between a chunk's `z`, its θ replica, and the
/// ϕ contributions of that chunk accumulated in `phi_replica` (which must
/// contain only this chunk's counts). Returns the token count.
///
/// # Panics
/// Panics with a descriptive message on the first violated invariant.
pub fn check_chunk_consistency(
    chunk: &SortedChunk,
    state: &ChunkState,
    phi_replica: Option<&PhiModel>,
) -> u64 {
    let t = chunk.num_tokens();
    assert_eq!(state.z.len(), t, "z length != chunk tokens");

    // θ row sums equal document lengths, and θ equals a recount of z.
    let k = state.theta.num_cols();
    let mut theta_total = 0u64;
    for d in 0..chunk.num_docs {
        let row_sum = state.theta.row_sum(d);
        assert_eq!(
            row_sum as usize,
            chunk.doc_len(d),
            "theta row {d} sum != doc length"
        );
        theta_total += row_sum;
        let mut recount = vec![0u32; k];
        for &pos in chunk.doc_tokens(d) {
            let z = state.z.load(pos as usize) as usize;
            assert!(z < k, "z[{pos}] = {z} out of range K = {k}");
            recount[z] += 1;
        }
        assert_eq!(
            state.theta.row_to_dense(d),
            recount,
            "theta row {d} != recount of z"
        );
    }
    assert_eq!(theta_total, t as u64, "theta total != tokens");

    // ϕ replica equals a recount of z by (word, topic).
    if let Some(phi) = phi_replica {
        let mut recount = vec![0u32; phi.num_topics * phi.vocab_size];
        let mut sums = vec![0u32; phi.num_topics];
        for (wi, &w) in chunk.word_ids.iter().enumerate() {
            for pos in chunk.word_tokens(wi) {
                let z = state.z.load(pos) as usize;
                recount[w as usize * phi.num_topics + z] += 1;
                sums[z] += 1;
            }
        }
        for (i, &want) in recount.iter().enumerate() {
            let got = phi.phi.load(i);
            assert_eq!(got, want, "phi[{i}] = {got}, recount says {want}");
        }
        for (topic, &want) in sums.iter().enumerate() {
            assert_eq!(phi.phi_sum.load(topic), want, "phi_sum[{topic}]");
        }
    }
    t as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyper::Priors;
    use crate::model::accumulate_phi_host;
    use culda_corpus::{partition_by_tokens, SynthSpec};

    #[test]
    fn consistent_state_passes() {
        let corpus = SynthSpec::tiny().generate();
        let chunks = partition_by_tokens(&corpus, 2);
        for ch in &chunks {
            let chunk = SortedChunk::build(&corpus, ch);
            let state = crate::model::ChunkState::init_random(&chunk, 8, 3);
            let phi = PhiModel::zeros(8, corpus.vocab_size(), Priors::paper(8));
            accumulate_phi_host(&chunk, &state.z, &phi);
            let t = check_chunk_consistency(&chunk, &state, Some(&phi));
            assert_eq!(t, ch.tokens);
        }
    }

    #[test]
    #[should_panic(expected = "theta row")]
    fn corrupted_theta_is_caught() {
        let corpus = SynthSpec::tiny().generate();
        let chunks = partition_by_tokens(&corpus, 1);
        let chunk = SortedChunk::build(&corpus, &chunks[0]);
        let mut state = crate::model::ChunkState::init_random(&chunk, 8, 3);
        // Flip one assignment without rebuilding theta.
        let z0 = state.z.load(0);
        state.z.store(0, (z0 + 1) % 8);
        let _ = &mut state;
        check_chunk_consistency(&chunk, &state, None);
    }
}
