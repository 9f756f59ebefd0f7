//! A distributed parameter-server LDA — the LDA* \[34\] proxy.
//!
//! LDA* trains on a CPU cluster (the paper cites its 20-node PubMed
//! configuration) with workers synchronizing the topic–word model through
//! a parameter server over **10 Gb/s ethernet** — the bandwidth the paper
//! singles out as the distributed bottleneck ("the machines used by LDA*
//! are connected by 10Gb/s ethernet. Such a bandwidth is much slower than
//! the PCIe bandwidth").
//!
//! The proxy: each worker node runs the same sparsity-aware CGS against
//! the previous iteration's global ϕ snapshot on its document shard (the
//! standard stale-synchronous scheme), then ships its ϕ delta to the
//! parameter server and pulls the merged model. Statistics are real;
//! per-iteration time is modelled as
//! `max(worker compute) + 2 × (model bytes / ethernet)`, with worker
//! compute charged to the same host roofline as the other CPU baselines.

use culda_corpus::{partition_by_tokens, Corpus, SortedChunk, Xoshiro256};
use culda_gpusim::Link;
use culda_metrics::LdaLoglik;
use culda_sampler::{accumulate_phi_host, build_theta_host, ChunkState, PhiModel, Priors};

/// Cache-line cost of one random DRAM access in the worker model.
const CACHE_LINE: u64 = 64;

/// The simulated cluster trainer.
#[derive(Debug)]
pub struct DistributedLda {
    /// Topic count `K`.
    pub num_topics: usize,
    /// Vocabulary size `V`.
    pub vocab_size: usize,
    /// Hyper-parameters.
    pub priors: Priors,
    /// Worker node count (LDA* used 20 for PubMed).
    pub num_workers: usize,
    /// The inter-node link (10 Gb/s ethernet by default).
    pub network: Link,
    /// Per-node host bandwidth for the compute model, GB/s.
    pub host_bandwidth_gbps: f64,
    chunks: Vec<SortedChunk>,
    token_offsets: Vec<u64>,
    states: Vec<ChunkState>,
    global_phi: PhiModel,
    iteration: u32,
    seed: u64,
    num_tokens: u64,
}

impl DistributedLda {
    /// Shards `corpus` over `num_workers` nodes.
    pub fn new(
        corpus: &Corpus,
        num_topics: usize,
        priors: Priors,
        num_workers: usize,
        seed: u64,
    ) -> Self {
        assert!(num_workers >= 1, "need at least one worker");
        let specs = partition_by_tokens(corpus, num_workers);
        let chunks: Vec<SortedChunk> = specs
            .iter()
            .map(|s| SortedChunk::build(corpus, s))
            .collect();
        let mut token_offsets = Vec::with_capacity(num_workers);
        let mut acc = 0u64;
        for ch in &chunks {
            token_offsets.push(acc);
            acc += ch.num_tokens() as u64;
        }
        let states: Vec<ChunkState> = chunks
            .iter()
            .enumerate()
            .map(|(i, ch)| ChunkState::init_random(ch, num_topics, seed ^ (i as u64) << 32))
            .collect();
        let global_phi = PhiModel::zeros(num_topics, corpus.vocab_size(), priors);
        for (ch, st) in chunks.iter().zip(&states) {
            accumulate_phi_host(ch, &st.z, &global_phi);
        }
        Self {
            num_topics,
            vocab_size: corpus.vocab_size(),
            priors,
            num_workers,
            network: Link::ethernet_10gbit(),
            host_bandwidth_gbps: 51.2,
            chunks,
            token_offsets,
            states,
            global_phi,
            iteration: 0,
            seed,
            num_tokens: corpus.num_tokens(),
        }
    }

    /// One stale-synchronous iteration. Returns `(tokens, modelled_seconds)`.
    pub fn iterate(&mut self) -> (u64, f64) {
        let k = self.num_topics;
        let alpha = self.priors.alpha as f32;
        let beta = self.priors.beta as f32;
        let inv_denom: Vec<f32> = self.global_phi.inv_denominators();
        let stream_seed = self.seed ^ (self.iteration as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);

        let mut worker_seconds: f64 = 0.0;
        let mut tokens_done = 0u64;
        let mut pstar = vec![0.0f32; k];

        for (wi, chunk) in self.chunks.iter().enumerate() {
            let state = &mut self.states[wi];
            let mut bytes = 0u64;
            let mut weights: Vec<f32> = Vec::with_capacity(k);
            for (word_i, &w) in chunk.word_ids.iter().enumerate() {
                let base = w as usize * k;
                for (t, slot) in pstar.iter_mut().enumerate() {
                    *slot = (self.global_phi.phi.load(base + t) as f32 + beta) * inv_denom[t];
                }
                bytes += (k as u64) * 8;
                let pstar_total: f32 = pstar.iter().sum();
                for pos in chunk.word_tokens(word_i) {
                    let d = chunk.token_doc[pos] as usize;
                    let (cols, vals) = state.theta.row(d);
                    let mut s = 0.0f32;
                    weights.clear();
                    for (&c, &n) in cols.iter().zip(vals) {
                        let w1 = n as f32 * pstar[c as usize];
                        weights.push(w1);
                        s += w1;
                    }
                    bytes += cols.len() as u64 * 6 + CACHE_LINE;
                    let mut rng = Xoshiro256::from_seed_stream(
                        stream_seed,
                        self.token_offsets[wi] + pos as u64,
                    );
                    let u_branch = rng.next_f32();
                    let u_inner = rng.next_f32();
                    let q = alpha * pstar_total;
                    let new = if s > 0.0 && u_branch < s / (s + q) {
                        let mut x = u_inner * s;
                        let mut pick = cols[cols.len() - 1];
                        for (i, &w1) in weights.iter().enumerate() {
                            if x < w1 {
                                pick = cols[i];
                                break;
                            }
                            x -= w1;
                        }
                        pick
                    } else {
                        let mut x = u_inner * pstar_total;
                        let mut pick = (k - 1) as u16;
                        for (t, &p) in pstar.iter().enumerate() {
                            if x < p {
                                pick = t as u16;
                                break;
                            }
                            x -= p;
                        }
                        pick
                    };
                    state.z.store(pos, new);
                    bytes += 2;
                    tokens_done += 1;
                }
            }
            state.theta = build_theta_host(chunk, &state.z, k);
            bytes += state.theta.nnz() as u64 * 6;
            // Workers run in parallel: the iteration waits for the slowest.
            let secs = bytes as f64 / (self.host_bandwidth_gbps * 1e9 * 0.85);
            worker_seconds = worker_seconds.max(secs);
        }

        // Parameter-server sync: every worker pushes its delta and pulls
        // the merged model — two full-model transfers on the critical path.
        self.global_phi.clear();
        for (ch, st) in self.chunks.iter().zip(&self.states) {
            accumulate_phi_host(ch, &st.z, &self.global_phi);
        }
        let model_bytes = (self.global_phi.phi.len() + self.global_phi.phi_sum.len()) as u64 * 4;
        let net_seconds = 2.0 * self.network.transfer_seconds(model_bytes);

        self.iteration += 1;
        (tokens_done, worker_seconds + net_seconds)
    }

    /// Joint log-likelihood (shared statistic).
    pub fn loglik(&self) -> f64 {
        let eval = LdaLoglik::new(
            self.priors.alpha,
            self.priors.beta,
            self.num_topics,
            self.vocab_size,
        );
        let mut acc = 0.0;
        for t in 0..self.num_topics {
            let col =
                (0..self.vocab_size).map(|v| self.global_phi.phi.load(v * self.num_topics + t));
            acc += eval.topic_term(col, self.global_phi.phi_sum.load(t) as u64);
        }
        for (chunk, st) in self.chunks.iter().zip(&self.states) {
            for d in 0..chunk.num_docs {
                let (_, vals) = st.theta.row(d);
                acc += eval.doc_term(vals.iter().copied(), chunk.doc_len(d) as u64);
            }
        }
        acc
    }

    /// Tokens in the corpus.
    pub fn num_tokens(&self) -> u64 {
        self.num_tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culda_corpus::SynthSpec;

    fn corpus() -> Corpus {
        let mut spec = SynthSpec::tiny();
        spec.num_docs = 120;
        spec.vocab_size = 200;
        spec.avg_doc_len = 25.0;
        spec.generate()
    }

    #[test]
    fn trains_and_improves() {
        let c = corpus();
        let mut d = DistributedLda::new(&c, 8, Priors::paper(8), 4, 1);
        let before = d.loglik();
        for _ in 0..10 {
            let (n, secs) = d.iterate();
            assert_eq!(n, c.num_tokens());
            assert!(secs > 0.0);
        }
        assert!(d.loglik() > before + 1.0);
    }

    #[test]
    fn network_dominates_at_scale() {
        // With a real-size model the 10 Gb/s sync swamps worker compute —
        // the paper's core argument against distributed LDA.
        let c = corpus();
        let mut d = DistributedLda::new(&c, 256, Priors::paper(256), 20, 2);
        let (_, secs) = d.iterate();
        let model_bytes = (c.vocab_size() * 256 + 256) as u64 * 4;
        let net = 2.0 * Link::ethernet_10gbit().transfer_seconds(model_bytes);
        assert!(
            net / secs > 0.5,
            "network share should dominate: {net} of {secs}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let c = corpus();
        let mut a = DistributedLda::new(&c, 8, Priors::paper(8), 4, 7);
        let mut b = DistributedLda::new(&c, 8, Priors::paper(8), 4, 7);
        a.iterate();
        b.iterate();
        assert_eq!(a.global_phi.phi.snapshot(), b.global_phi.phi.snapshot());
        let mut d = DistributedLda::new(&c, 8, Priors::paper(8), 4, 8);
        d.iterate();
        assert_ne!(a.global_phi.phi.snapshot(), d.global_phi.phi.snapshot());
    }

    #[test]
    fn more_workers_cut_compute_but_not_network() {
        let c = corpus();
        let mut w2 = DistributedLda::new(&c, 8, Priors::paper(8), 2, 3);
        let mut w8 = DistributedLda::new(&c, 8, Priors::paper(8), 8, 3);
        let (_, t2) = w2.iterate();
        let (_, t8) = w8.iterate();
        // The network term is identical, so scaling is sub-linear.
        let model_bytes = (c.vocab_size() * 8 + 8) as u64 * 4;
        let net = 2.0 * Link::ethernet_10gbit().transfer_seconds(model_bytes);
        assert!(t8 < t2, "more workers must not be slower: {t2} vs {t8}");
        assert!(t8 >= net, "network floor must persist");
    }
}
