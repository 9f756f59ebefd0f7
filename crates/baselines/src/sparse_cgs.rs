//! Sparsity-aware CPU CGS (Yao et al. \[32\] style) — the algorithm CuLDA's
//! GPU sampler is derived from, running on the host.
//!
//! Uses the same S/Q decomposition as the GPU kernel (Eqs. 6–8) but with
//! immediate count updates and a single thread, representing the
//! SparseLDA-class solvers the paper groups under "CPU-based LDA
//! optimization techniques". Time is modelled with the same cache-line
//! roofline as the WarpLDA baseline.

use culda_corpus::{Corpus, CsrMatrix, Xoshiro256};
use culda_metrics::LdaLoglik;
use culda_sampler::Priors;

/// Cache-line cost of one random DRAM access.
const CACHE_LINE: u64 = 64;

/// Sparse S/Q CGS over a corpus, θ kept sparse.
#[derive(Debug)]
pub struct SparseCgs {
    /// Topic count `K`.
    pub num_topics: usize,
    /// Vocabulary size `V`.
    pub vocab_size: usize,
    /// Hyper-parameters.
    pub priors: Priors,
    /// Host memory bandwidth for the time model, GB/s.
    pub host_bandwidth_gbps: f64,
    /// Attainable fraction of that bandwidth.
    pub host_efficiency: f64,
    z: Vec<u16>,
    tokens: Vec<u32>,
    doc_offsets: Vec<usize>,
    theta: CsrMatrix,
    phi: Vec<u32>, // V×K word-major
    nk: Vec<u32>,
    rng: Xoshiro256,
    bytes_this_pass: u64,
}

impl SparseCgs {
    /// Initializes with random assignments.
    pub fn new(corpus: &Corpus, num_topics: usize, priors: Priors, seed: u64) -> Self {
        assert!(num_topics > 0 && num_topics <= u16::MAX as usize + 1);
        let d = corpus.num_docs();
        let v = corpus.vocab_size();
        let mut rng = Xoshiro256::from_seed_stream(seed, 0x5BA6);
        let mut theta_dense = vec![vec![0u32; num_topics]; d];
        let mut phi = vec![0u32; v * num_topics];
        let mut nk = vec![0u32; num_topics];
        let mut z = Vec::with_capacity(corpus.num_tokens() as usize);
        let mut tokens = Vec::with_capacity(corpus.num_tokens() as usize);
        let mut doc_offsets = Vec::with_capacity(d + 1);
        doc_offsets.push(0);
        for (di, doc) in corpus.docs.iter().enumerate() {
            for &w in &doc.words {
                let k = rng.next_below(num_topics as u32) as usize;
                z.push(k as u16);
                tokens.push(w);
                theta_dense[di][k] += 1;
                phi[w as usize * num_topics + k] += 1;
                nk[k] += 1;
            }
            doc_offsets.push(z.len());
        }
        Self {
            num_topics,
            vocab_size: v,
            priors,
            host_bandwidth_gbps: 51.2,
            host_efficiency: 0.85,
            z,
            tokens,
            doc_offsets,
            theta: CsrMatrix::from_dense_rows(&theta_dense, num_topics),
            phi,
            nk,
            rng,
            bytes_this_pass: 0,
        }
    }

    /// One full sweep. Returns `(tokens, modelled_seconds)`.
    pub fn iterate(&mut self) -> (u64, f64) {
        self.bytes_this_pass = 0;
        let k_n = self.num_topics;
        let alpha = self.priors.alpha;
        let beta = self.priors.beta;
        let beta_v = self.priors.beta_v(self.vocab_size);
        let mut dense_row = vec![0u32; k_n];
        let mut p1 = Vec::with_capacity(k_n);
        let mut tokens_done = 0u64;

        let num_docs = self.doc_offsets.len() - 1;
        for di in 0..num_docs {
            let (start, end) = (self.doc_offsets[di], self.doc_offsets[di + 1]);
            if start == end {
                continue;
            }
            // Materialize the document's θ row once per document (the
            // SparseLDA trick: the row is reused across the doc's tokens).
            dense_row.fill(0);
            let (cols, vals) = self.theta.row(di);
            for (&c, &v) in cols.iter().zip(vals) {
                dense_row[c as usize] = v;
            }
            self.bytes_this_pass += (cols.len() as u64) * 6;

            for ti in start..end {
                let w = self.tokens[ti] as usize;
                let cur = self.z[ti] as usize;
                self.bytes_this_pass += 8; // sequential token + z
                                           // Remove the token.
                dense_row[cur] -= 1;
                self.phi[w * k_n + cur] -= 1;
                self.nk[cur] -= 1;
                self.bytes_this_pass += 2 * CACHE_LINE;

                // S over non-zeros of θ row; Q over all topics.
                let mut s = 0.0f64;
                p1.clear();
                let mut q = 0.0f64;
                for (t, &c) in dense_row.iter().enumerate().take(k_n) {
                    let pstar =
                        (self.phi[w * k_n + t] as f64 + beta) / (self.nk[t] as f64 + beta_v);
                    q += alpha * pstar;
                    if c > 0 {
                        let w1 = c as f64 * pstar;
                        s += w1;
                        p1.push((t, w1));
                    }
                }
                // ϕ column streamed (K·4 sequential) + nk in cache.
                self.bytes_this_pass += (k_n as u64) * 4;

                let u = self.rng.next_f64() * (s + q);
                let new = if u < s {
                    let mut x = u;
                    let mut pick = p1[p1.len() - 1].0;
                    for &(t, w1) in &p1 {
                        if x < w1 {
                            pick = t;
                            break;
                        }
                        x -= w1;
                    }
                    pick
                } else {
                    // Dense component ∝ p*(k): linear scan.
                    let mut x = (u - s) / alpha;
                    let mut pick = k_n - 1;
                    for t in 0..k_n {
                        let pstar =
                            (self.phi[w * k_n + t] as f64 + beta) / (self.nk[t] as f64 + beta_v);
                        if x < pstar {
                            pick = t;
                            break;
                        }
                        x -= pstar;
                    }
                    self.bytes_this_pass += (k_n as u64) * 2; // second scan, partially cached
                    pick
                };

                dense_row[new] += 1;
                self.phi[w * k_n + new] += 1;
                self.nk[new] += 1;
                self.z[ti] = new as u16;
                self.bytes_this_pass += 2 * CACHE_LINE + 2;
                tokens_done += 1;
            }
            self.theta.set_row_from_dense(di, &dense_row);
            self.bytes_this_pass += (self.theta.row_nnz(di) as u64) * 6;
        }
        let seconds =
            self.bytes_this_pass as f64 / (self.host_bandwidth_gbps * 1e9 * self.host_efficiency);
        (tokens_done, seconds)
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
            let col = (0..self.vocab_size).map(|v| self.phi[v * self.num_topics + t]);
            acc += eval.topic_term(col, self.nk[t] as u64);
        }
        for di in 0..self.doc_offsets.len() - 1 {
            let (_, vals) = self.theta.row(di);
            let len = (self.doc_offsets[di + 1] - self.doc_offsets[di]) as u64;
            acc += eval.doc_term(vals.iter().copied(), len);
        }
        acc
    }

    /// Tokens in the corpus.
    pub fn num_tokens(&self) -> u64 {
        self.z.len() as u64
    }

    /// Count-conservation audit.
    pub fn check_invariants(&self) {
        let total: u64 = self.nk.iter().map(|&x| x as u64).sum();
        assert_eq!(total, self.z.len() as u64);
        let phi_total: u64 = self.phi.iter().map(|&x| x as u64).sum();
        assert_eq!(phi_total, self.z.len() as u64);
        let mut theta_total = 0u64;
        for di in 0..self.doc_offsets.len() - 1 {
            let row = self.theta.row_sum(di);
            assert_eq!(
                row as usize,
                self.doc_offsets[di + 1] - self.doc_offsets[di],
                "doc {di}"
            );
            theta_total += row;
        }
        assert_eq!(theta_total, self.z.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culda_corpus::SynthSpec;

    fn corpus() -> Corpus {
        let mut spec = SynthSpec::tiny();
        spec.num_docs = 100;
        spec.vocab_size = 150;
        spec.avg_doc_len = 30.0;
        spec.generate()
    }

    #[test]
    fn counts_conserved() {
        let c = corpus();
        let mut s = SparseCgs::new(&c, 8, Priors::paper(8), 1);
        s.check_invariants();
        for _ in 0..3 {
            let (n, secs) = s.iterate();
            assert_eq!(n, c.num_tokens());
            assert!(secs > 0.0);
            s.check_invariants();
        }
    }

    #[test]
    fn loglik_improves() {
        let c = corpus();
        let mut s = SparseCgs::new(&c, 8, Priors::paper(8), 2);
        let before = s.loglik();
        for _ in 0..15 {
            s.iterate();
        }
        assert!(s.loglik() > before + 1.0);
    }

    #[test]
    fn slower_than_warplda_model() {
        // The O(K) dense fallback makes SparseLDA-class slower than the
        // O(1) MH of WarpLDA at equal K — the ordering the paper's related
        // work assumes.
        let c = corpus();
        let mut sparse = SparseCgs::new(&c, 64, Priors::paper(64), 3);
        let mut warp = crate::warplda::WarpLda::new(&c, 64, Priors::paper(64), 3);
        let (n1, t1) = sparse.iterate();
        let (n2, t2) = warp.iterate();
        let tps_sparse = n1 as f64 / t1;
        let tps_warp = n2 as f64 / t2;
        assert!(
            tps_warp > tps_sparse,
            "WarpLDA {tps_warp:.3e} should beat SparseCGS {tps_sparse:.3e}"
        );
    }
}
