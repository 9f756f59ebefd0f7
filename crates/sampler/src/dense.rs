//! The textbook dense Collapsed Gibbs Sampler — the correctness oracle.
//!
//! This is the unoptimized `O(K)`-per-token CGS of Eq. 1 with *immediate*
//! count updates (decrement the token's old topic, sample, increment the
//! new one). It is the statistical ground truth the optimized samplers are
//! validated against, and it doubles as the naive baseline in the solver
//! comparison example.

use crate::hyper::Priors;
use culda_corpus::{Corpus, Xoshiro256};

/// Dense single-threaded CGS state over a whole corpus.
#[derive(Debug, Clone)]
pub struct DenseCgs {
    /// Topic count `K`.
    pub num_topics: usize,
    /// Vocabulary size `V`.
    pub vocab_size: usize,
    /// Hyper-parameters.
    pub priors: Priors,
    theta: Vec<u32>, // D×K row-major
    phi: Vec<u32>,   // V×K word-major
    nk: Vec<u32>,    // per-topic totals
    z: Vec<u16>,     // corpus order (doc-major)
    doc_offsets: Vec<usize>,
    rng: Xoshiro256,
    scratch: Vec<f64>,
}

impl DenseCgs {
    /// Initializes with uniformly random topic assignments.
    pub fn new(corpus: &Corpus, num_topics: usize, priors: Priors, seed: u64) -> Self {
        assert!(num_topics > 0 && num_topics <= u16::MAX as usize + 1);
        let d = corpus.num_docs();
        let v = corpus.vocab_size();
        let mut rng = Xoshiro256::from_seed_stream(seed, 0xDE25E);
        let mut theta = vec![0u32; d * num_topics];
        let mut phi = vec![0u32; v * num_topics];
        let mut nk = vec![0u32; num_topics];
        let mut z = Vec::with_capacity(corpus.num_tokens() as usize);
        let mut doc_offsets = Vec::with_capacity(d + 1);
        doc_offsets.push(0);
        for (di, doc) in corpus.docs.iter().enumerate() {
            for &w in &doc.words {
                let k = rng.next_below(num_topics as u32) as usize;
                z.push(k as u16);
                theta[di * num_topics + k] += 1;
                phi[w as usize * num_topics + k] += 1;
                nk[k] += 1;
            }
            doc_offsets.push(z.len());
        }
        Self {
            num_topics,
            vocab_size: v,
            priors,
            theta,
            phi,
            nk,
            z,
            doc_offsets,
            rng,
            scratch: vec![0.0; num_topics],
        }
    }

    /// One full Gibbs sweep over the corpus. Returns tokens sampled.
    pub fn iterate(&mut self, corpus: &Corpus) -> u64 {
        let k_n = self.num_topics;
        let alpha = self.priors.alpha;
        let beta = self.priors.beta;
        let beta_v = self.priors.beta_v(self.vocab_size);
        let mut tokens = 0u64;
        for (di, doc) in corpus.docs.iter().enumerate() {
            let base = self.doc_offsets[di];
            for (ti, &w) in doc.words.iter().enumerate() {
                let zi = base + ti;
                let old = self.z[zi] as usize;
                // Remove the token from the counts.
                self.theta[di * k_n + old] -= 1;
                self.phi[w as usize * k_n + old] -= 1;
                self.nk[old] -= 1;
                // Dense conditional, Eq. 1.
                let mut acc = 0.0f64;
                for t in 0..k_n {
                    let p = (self.theta[di * k_n + t] as f64 + alpha)
                        * (self.phi[w as usize * k_n + t] as f64 + beta)
                        / (self.nk[t] as f64 + beta_v);
                    acc += p;
                    self.scratch[t] = acc;
                }
                let u = self.rng.next_f64() * acc;
                let new = self.scratch.partition_point(|&c| c <= u).min(k_n - 1);
                // Add it back under the new topic.
                self.z[zi] = new as u16;
                self.theta[di * k_n + new] += 1;
                self.phi[w as usize * k_n + new] += 1;
                self.nk[new] += 1;
                tokens += 1;
            }
        }
        tokens
    }

    /// Joint log-likelihood of the current state (Figure 8's statistic).
    pub fn loglik(&self) -> f64 {
        let eval = culda_metrics::LdaLoglik::new(
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
        let d = self.doc_offsets.len() - 1;
        for di in 0..d {
            let row = &self.theta[di * self.num_topics..(di + 1) * self.num_topics];
            let len = (self.doc_offsets[di + 1] - self.doc_offsets[di]) as u64;
            acc += eval.doc_term(row.iter().copied(), len);
        }
        acc
    }

    /// Total tokens tracked.
    pub fn num_tokens(&self) -> u64 {
        self.z.len() as u64
    }

    /// Verifies count conservation against the corpus.
    pub fn check_invariants(&self, corpus: &Corpus) {
        let nk_total: u64 = self.nk.iter().map(|&x| x as u64).sum();
        assert_eq!(nk_total, corpus.num_tokens());
        let phi_total: u64 = self.phi.iter().map(|&x| x as u64).sum();
        assert_eq!(phi_total, corpus.num_tokens());
        let theta_total: u64 = self.theta.iter().map(|&x| x as u64).sum();
        assert_eq!(theta_total, corpus.num_tokens());
        for (di, doc) in corpus.docs.iter().enumerate() {
            let row_sum: u64 = self.theta[di * self.num_topics..(di + 1) * self.num_topics]
                .iter()
                .map(|&x| x as u64)
                .sum();
            assert_eq!(row_sum, doc.len() as u64, "doc {di} row sum");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culda_corpus::SynthSpec;

    fn corpus() -> Corpus {
        let mut spec = SynthSpec::tiny();
        spec.num_docs = 80;
        spec.vocab_size = 120;
        spec.avg_doc_len = 25.0;
        spec.generate()
    }

    #[test]
    fn counts_conserved_across_iterations() {
        let c = corpus();
        let mut s = DenseCgs::new(&c, 8, Priors::paper(8), 1);
        s.check_invariants(&c);
        for _ in 0..3 {
            let n = s.iterate(&c);
            assert_eq!(n, c.num_tokens());
            s.check_invariants(&c);
        }
    }

    #[test]
    fn loglik_improves_with_training() {
        let c = corpus();
        let mut s = DenseCgs::new(&c, 8, Priors::paper(8), 2);
        let before = s.loglik();
        for _ in 0..15 {
            s.iterate(&c);
        }
        let after = s.loglik();
        assert!(
            after > before + 1.0,
            "loglik did not improve: {before} → {after}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let c = corpus();
        let mut a = DenseCgs::new(&c, 4, Priors::paper(4), 9);
        let mut b = DenseCgs::new(&c, 4, Priors::paper(4), 9);
        a.iterate(&c);
        b.iterate(&c);
        assert_eq!(a.z, b.z);
        assert!((a.loglik() - b.loglik()).abs() < 1e-12);
    }

    #[test]
    fn different_seeds_diverge() {
        let c = corpus();
        let mut a = DenseCgs::new(&c, 4, Priors::paper(4), 9);
        let mut b = DenseCgs::new(&c, 4, Priors::paper(4), 10);
        a.iterate(&c);
        b.iterate(&c);
        assert_ne!(a.z, b.z);
    }
}
