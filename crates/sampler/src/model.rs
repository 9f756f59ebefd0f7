//! LDA model state: the topic–word matrix ϕ, its column sums, and the
//! per-chunk document–topic matrix θ plus topic assignments `z`.
//!
//! Layout decisions follow the paper, with one upgrade from the
//! sparsity-aware lineage (SaberLDA, EZLDA):
//!
//! * **ϕ is a hybrid sparse/dense [`CountMatrix`]**, word-major: hot
//!   Zipf-head rows live in dense `u32` slabs (the paper's Section 6.2
//!   layout), near-empty tail rows in sorted CSR cell lists. Every access
//!   pattern is "all topics of one word", so a row is the unit of storage,
//!   of dirty tracking, and of the sparse-sampling cost model.
//! * **θ is CSR with u16 column indices** (Sections 3, 6.1.3): a chunk's θ
//!   replica is rebuilt from scratch by the update kernel each iteration.
//! * **`z` is u16 per token** (precision compression, `K < 2¹⁶`), stored in
//!   the word-sorted chunk order.

use crate::count::CountMatrix;
use crate::hyper::Priors;
use culda_corpus::{CsrMatrix, SortedChunk, Xoshiro256};
use culda_gpusim::memory::{AtomicU16Buf, AtomicU32Buf};

/// Upper bound on topics imposed by the u16 compression.
pub const MAX_TOPICS: usize = u16::MAX as usize + 1;

/// A frozen, read-only view of a trained LDA model — the single surface
/// every model consumer (serving, perplexity scoring, topic dumps,
/// checkpoint writers) programs against, whether the counts live in a
/// trainer's live replica or in a serving snapshot.
///
/// The contract is *counts only*: implementors expose the raw word–topic
/// counters and topic totals; smoothing (`+β`, `÷(n_k + βV)`) is applied
/// by the provided combinators so every consumer smooths identically.
pub trait LdaModel {
    /// Topic count `K`.
    fn num_topics(&self) -> usize;
    /// Vocabulary size `V`.
    fn vocab_size(&self) -> usize;
    /// Hyper-parameters the model was trained with.
    fn priors(&self) -> Priors;
    /// Raw count `ϕ_{k,v}` for `(word, topic)`.
    fn phi_count(&self, word: usize, topic: usize) -> u32;
    /// Raw topic total `n_k = Σ_v ϕ_{k,v}`.
    fn topic_total(&self, topic: usize) -> u32;

    /// Total tokens the model was estimated from.
    fn total_tokens(&self) -> u64 {
        (0..self.num_topics())
            .map(|k| self.topic_total(k) as u64)
            .sum()
    }

    /// `1 / (n_k + βV)` per topic — the shared Eq. 8 denominator.
    fn inv_denominators(&self) -> Vec<f32> {
        let beta_v = self.priors().beta_v(self.vocab_size()) as f32;
        (0..self.num_topics())
            .map(|k| 1.0 / (self.topic_total(k) as f32 + beta_v))
            .collect()
    }
}

impl LdaModel for PhiModel {
    fn num_topics(&self) -> usize {
        self.num_topics
    }

    fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    fn priors(&self) -> Priors {
        self.priors
    }

    fn phi_count(&self, word: usize, topic: usize) -> u32 {
        self.phi.get(word, topic)
    }

    fn topic_total(&self, topic: usize) -> u32 {
        self.phi_sum.load(topic)
    }
}

/// Global (per-GPU replica) model state: ϕ and its sums.
#[derive(Debug)]
pub struct PhiModel {
    /// Topic count `K`.
    pub num_topics: usize,
    /// Vocabulary size `V`.
    pub vocab_size: usize,
    /// Hyper-parameters.
    pub priors: Priors,
    /// Word-major hybrid counts: row `v` holds `ϕ_{·,v}`; flat index
    /// `v*K + k` addresses `ϕ_{k,v}` through the compatibility shims.
    pub phi: CountMatrix,
    /// `phi_sum[k] = n_k = Σ_v ϕ_{k,v}`.
    pub phi_sum: AtomicU32Buf,
}

impl PhiModel {
    /// Allocates a zeroed model.
    ///
    /// # Panics
    /// Panics if `K` exceeds the u16 compression limit or either dimension
    /// is zero.
    pub fn zeros(num_topics: usize, vocab_size: usize, priors: Priors) -> Self {
        assert!(num_topics > 0 && vocab_size > 0, "empty model");
        assert!(
            num_topics <= MAX_TOPICS,
            "K = {num_topics} exceeds the u16 topic compression limit {MAX_TOPICS}"
        );
        Self {
            num_topics,
            vocab_size,
            priors,
            phi: CountMatrix::zeros(vocab_size, num_topics),
            phi_sum: AtomicU32Buf::zeros(num_topics),
        }
    }

    /// Flat index of `ϕ_{k,v}` in the word-major layout.
    #[inline]
    pub fn phi_index(&self, v: usize, k: usize) -> usize {
        v * self.num_topics + k
    }

    /// Zeroes ϕ and its sums (start of a rebuild). Also resets the
    /// dirty-row marks — the touched-row set and the counts always reset
    /// together, so a retried iteration cannot desynchronize them.
    pub fn clear(&self) {
        self.phi.clear();
        for k in 0..self.phi_sum.len() {
            self.phi_sum.store(k, 0);
        }
    }

    /// Precomputes `1 / (n_k + βV)` for every topic — the shared
    /// sub-expression denominator of Eq. 8, refreshed once per iteration.
    pub fn inv_denominators(&self) -> Vec<f32> {
        let beta_v = self.priors.beta_v(self.vocab_size) as f32;
        (0..self.num_topics)
            .map(|k| 1.0 / (self.phi_sum.load(k) as f32 + beta_v))
            .collect()
    }

    /// Copies another replica's contents into this one.
    pub fn copy_from(&self, other: &PhiModel) {
        assert_eq!(self.phi.len(), other.phi.len(), "replica shape mismatch");
        self.phi.copy_from(&other.phi);
        for k in 0..self.phi_sum.len() {
            self.phi_sum.store(k, other.phi_sum.load(k));
        }
    }

    /// Verifies `phi_sum[k] == Σ_v phi[v,k]` and returns total tokens.
    pub fn check_sums(&self) -> u64 {
        let k = self.num_topics;
        let mut totals = vec![0u64; k];
        for v in 0..self.vocab_size {
            for (t, c) in self.phi.row_nonzeros(v) {
                totals[t as usize] += c as u64;
            }
        }
        for (t, &sum) in totals.iter().enumerate() {
            assert_eq!(
                sum,
                self.phi_sum.load(t) as u64,
                "phi_sum[{t}] inconsistent"
            );
        }
        totals.iter().sum()
    }

    /// Top `n` words of topic `k` by count (for the example binaries).
    pub fn top_words(&self, k: usize, n: usize) -> Vec<(u32, u32)> {
        let mut counts: Vec<(u32, u32)> = (0..self.vocab_size)
            .map(|v| (v as u32, self.phi.get(v, k)))
            .filter(|&(_, c)| c > 0)
            .collect();
        counts.sort_by_key(|&(v, c)| (std::cmp::Reverse(c), v));
        counts.truncate(n);
        counts
    }
}

/// Per-chunk state: assignments and the θ replica.
#[derive(Debug)]
pub struct ChunkState {
    /// Topic of each token, in the chunk's word-sorted order.
    pub z: AtomicU16Buf,
    /// Document–topic counts for the chunk's documents (CSR, u16 columns).
    pub theta: CsrMatrix,
}

impl ChunkState {
    /// Randomly initializes assignments ("Initially, each token is randomly
    /// assigned with a topic", Section 2.1) and builds the matching θ.
    pub fn init_random(chunk: &SortedChunk, num_topics: usize, seed: u64) -> Self {
        assert!(num_topics > 0 && num_topics <= MAX_TOPICS);
        let mut rng = Xoshiro256::from_seed_stream(seed, 0xD0C5);
        let z = (0..chunk.num_tokens())
            .map(|_| rng.next_below(num_topics as u32) as u16)
            .collect();
        Self::from_assignments(chunk, z, num_topics)
    }

    /// Takes `z` as the chunk's assignments, in its word-sorted order, and
    /// builds the matching θ.
    ///
    /// # Panics
    /// Panics if `z` does not cover the chunk or holds a topic `≥ K`.
    pub fn from_assignments(chunk: &SortedChunk, z: Vec<u16>, num_topics: usize) -> Self {
        let z = AtomicU16Buf::from_vec(z);
        let theta = build_theta_host(chunk, &z, num_topics);
        Self { z, theta }
    }
}

/// Host-side reference θ builder: counts `z` per (document, topic) using
/// the chunk's document–word map. The GPU θ-update kernel must agree with
/// this exactly (oracle for its tests).
///
/// Each document is counted in one K-cell row, whose nonzero cells a scan
/// reads back in topic order and zeroes for the next document. The CSR
/// arrays are reserved for `min(length, K)` cells per document, the most
/// its row can hold, and shrunk to the nonzeros at the end.
pub fn build_theta_host(chunk: &SortedChunk, z: &AtomicU16Buf, num_topics: usize) -> CsrMatrix {
    assert_eq!(z.len(), chunk.num_tokens(), "z length mismatch");
    let most = (0..chunk.num_docs)
        .map(|d| chunk.doc_len(d).min(num_topics))
        .sum();
    let (mut cols, mut vals) = (Vec::with_capacity(most), Vec::with_capacity(most));
    let mut row_ptr = Vec::with_capacity(chunk.num_docs + 1);
    row_ptr.push(0);
    let mut row = vec![0u32; num_topics];
    for d in 0..chunk.num_docs {
        for &pos in chunk.doc_tokens(d) {
            let k = z.load(pos as usize) as usize;
            assert!(k < num_topics, "assignment {k} out of range");
            row[k] += 1;
        }
        for (k, count) in row.iter_mut().enumerate().filter(|(_, c)| **c > 0) {
            cols.push(k as u16);
            vals.push(std::mem::take(count));
        }
        row_ptr.push(cols.len());
    }
    cols.shrink_to_fit();
    vals.shrink_to_fit();
    CsrMatrix::from_parts(chunk.num_docs, num_topics, row_ptr, cols, vals)
}

/// Host-side reference ϕ accumulator: adds this chunk's counts into a
/// replica. Oracle for the ϕ-update kernel.
pub fn accumulate_phi_host(chunk: &SortedChunk, z: &AtomicU16Buf, phi: &PhiModel) {
    for (i, &w) in chunk.word_ids.iter().enumerate() {
        for t in chunk.word_tokens(i) {
            let k = z.load(t) as usize;
            phi.phi.add(w as usize, k, 1);
            phi.phi_sum.fetch_add(k, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culda_corpus::{partition_by_tokens, SynthSpec};

    fn chunk_and_state() -> (SortedChunk, ChunkState) {
        let corpus = SynthSpec::tiny().generate();
        let chunks = partition_by_tokens(&corpus, 1);
        let sc = SortedChunk::build(&corpus, &chunks[0]);
        let st = ChunkState::init_random(&sc, 8, 42);
        (sc, st)
    }

    #[test]
    fn theta_conserves_tokens() {
        let (sc, st) = chunk_and_state();
        let total: u64 = (0..sc.num_docs).map(|d| st.theta.row_sum(d)).sum();
        assert_eq!(total, sc.num_tokens() as u64);
        for d in 0..sc.num_docs {
            assert_eq!(st.theta.row_sum(d) as usize, sc.doc_len(d));
        }
    }

    #[test]
    fn phi_accumulation_conserves_tokens() {
        let (sc, st) = chunk_and_state();
        let phi = PhiModel::zeros(8, 500, Priors::paper(8));
        accumulate_phi_host(&sc, &st.z, &phi);
        assert_eq!(phi.check_sums(), sc.num_tokens() as u64);
        assert_eq!(phi.phi_sum.sum(), sc.num_tokens() as u64);
    }

    #[test]
    fn inv_denominators_match_definition() {
        let phi = PhiModel::zeros(4, 10, Priors::new(0.5, 0.01));
        phi.phi_sum.store(2, 100);
        let inv = phi.inv_denominators();
        let beta_v = 0.01f32 * 10.0;
        assert!((inv[2] - 1.0 / (100.0 + beta_v)).abs() < 1e-9);
        assert!((inv[0] - 1.0 / beta_v).abs() < 1e-3);
    }

    #[test]
    fn replica_broadcast_copies_counts_and_sums() {
        let a = PhiModel::zeros(2, 3, Priors::paper(2));
        a.phi.store(a.phi_index(1, 0), 7);
        a.phi.store(a.phi_index(2, 1), 7);
        a.phi_sum.store(0, 7);
        a.phi_sum.store(1, 7);
        let c = PhiModel::zeros(2, 3, Priors::paper(2));
        c.copy_from(&a);
        assert_eq!(c.phi.load(c.phi_index(1, 0)), 7);
        assert_eq!(c.phi.load(c.phi_index(2, 1)), 7);
        assert_eq!(c.phi_sum.load(1), 7);
        assert_eq!(c.check_sums(), 14);
    }

    #[test]
    fn top_words_sorted_desc() {
        let phi = PhiModel::zeros(2, 4, Priors::paper(2));
        phi.phi.store(phi.phi_index(0, 1), 3);
        phi.phi.store(phi.phi_index(2, 1), 9);
        phi.phi.store(phi.phi_index(3, 1), 1);
        let top = phi.top_words(1, 2);
        assert_eq!(top, vec![(2, 9), (0, 3)]);
    }

    #[test]
    fn init_is_deterministic() {
        let (sc, _) = chunk_and_state();
        let a = ChunkState::init_random(&sc, 8, 7);
        let b = ChunkState::init_random(&sc, 8, 7);
        assert_eq!(a.z.snapshot(), b.z.snapshot());
        let c = ChunkState::init_random(&sc, 8, 8);
        assert_ne!(a.z.snapshot(), c.z.snapshot());
    }

    #[test]
    #[should_panic(expected = "compression limit")]
    fn rejects_k_over_u16() {
        PhiModel::zeros(MAX_TOPICS + 1, 10, Priors::paper(2));
    }
}
