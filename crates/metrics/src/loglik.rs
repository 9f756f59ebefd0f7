//! Joint log-likelihood of an LDA state, reported per token.
//!
//! This is the convergence metric of the paper's Figure 8
//! ("log-likelyhood per token w.r.t. time"). For a Collapsed Gibbs Sampling
//! state with document–topic counts `θ` and topic–word counts `ϕ` the joint
//! likelihood of tokens `w` and assignments `z` factors as
//!
//! ```text
//! log p(w, z | α, β) =
//!   Σ_k [ ln Γ(Vβ) − ln Γ(n_k + Vβ) + Σ_v ( ln Γ(ϕ_{k,v} + β) − ln Γ(β) ) ]
//! + Σ_d [ ln Γ(Kα) − ln Γ(L_d + Kα) + Σ_k ( ln Γ(θ_{d,k} + α) − ln Γ(α) ) ]
//! ```
//!
//! where `n_k = Σ_v ϕ_{k,v}` and `L_d` is the length of document `d`. Zero
//! counts contribute exactly nothing (`ln Γ(x) − ln Γ(x) = 0`), so both sums
//! are evaluated over *non-zero* counts only — the same sparsity the
//! samplers exploit.
//!
//! The module is deliberately independent of any model type: callers feed
//! non-zero counts through [`LdaLoglik::topic_term`] and
//! [`LdaLoglik::doc_term`], so every solver in the workspace (CuLDA, the
//! dense oracle, WarpLDA, the distributed baseline) scores itself with the
//! identical statistic.

use crate::lgamma::{ln_gamma, ln_gamma_ratio};

/// Evaluator for the LDA joint log-likelihood with fixed hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LdaLoglik {
    /// Document–topic smoothing `α` (the paper uses `50/K`).
    pub alpha: f64,
    /// Topic–word smoothing `β` (the paper uses `0.01`).
    pub beta: f64,
    /// Number of topics `K`.
    pub num_topics: usize,
    /// Vocabulary size `V`.
    pub vocab_size: usize,
}

impl LdaLoglik {
    /// Creates an evaluator, validating the hyper-parameters.
    ///
    /// # Panics
    /// Panics if `alpha` or `beta` is not strictly positive, or if `K` or
    /// `V` is zero — a zero-dimensional model has no likelihood.
    pub fn new(alpha: f64, beta: f64, num_topics: usize, vocab_size: usize) -> Self {
        assert!(alpha > 0.0 && beta > 0.0, "hyper-parameters must be > 0");
        assert!(num_topics > 0 && vocab_size > 0, "K and V must be > 0");
        Self {
            alpha,
            beta,
            num_topics,
            vocab_size,
        }
    }

    /// Contribution of one topic `k`: feed the non-zero entries of row
    /// `ϕ_{k,·}` and their sum `n_k`.
    ///
    /// `nonzero_counts` may arrive in any order; entries equal to zero are
    /// permitted (they contribute nothing) so callers can stream dense rows.
    pub fn topic_term<I: IntoIterator<Item = u32>>(
        &self,
        nonzero_counts: I,
        topic_total: u64,
    ) -> f64 {
        let v_beta = self.beta * self.vocab_size as f64;
        let mut acc = ln_gamma(v_beta) - ln_gamma(topic_total as f64 + v_beta);
        let mut seen: u64 = 0;
        for c in nonzero_counts {
            if c > 0 {
                acc += ln_gamma_ratio(self.beta, c);
                seen += c as u64;
            }
        }
        debug_assert_eq!(
            seen, topic_total,
            "topic_total must equal the sum of the supplied counts"
        );
        acc
    }

    /// Contribution of one document `d`: feed the non-zero entries of row
    /// `θ_{d,·}` and the document length `L_d`.
    pub fn doc_term<I: IntoIterator<Item = u32>>(&self, nonzero_counts: I, doc_len: u64) -> f64 {
        let k_alpha = self.alpha * self.num_topics as f64;
        let mut acc = ln_gamma(k_alpha) - ln_gamma(doc_len as f64 + k_alpha);
        let mut seen: u64 = 0;
        for c in nonzero_counts {
            if c > 0 {
                acc += ln_gamma_ratio(self.alpha, c);
                seen += c as u64;
            }
        }
        debug_assert_eq!(
            seen, doc_len,
            "doc_len must equal the sum of the supplied counts"
        );
        acc
    }

    /// Normalizes a joint log-likelihood by token count, the y-axis of Fig 8.
    pub fn per_token(&self, total_loglik: f64, num_tokens: u64) -> f64 {
        assert!(num_tokens > 0, "cannot normalize by zero tokens");
        total_loglik / num_tokens as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval() -> LdaLoglik {
        LdaLoglik::new(50.0 / 4.0, 0.01, 4, 6)
    }

    #[test]
    fn zero_counts_contribute_nothing() {
        let e = eval();
        let with_zeros = e.topic_term([0, 3, 0, 2, 0, 0], 5);
        let without = e.topic_term([3, 2], 5);
        assert!((with_zeros - without).abs() < 1e-12);
    }

    #[test]
    fn empty_topic_is_the_constant_term() {
        let e = eval();
        // n_k = 0 → only ln Γ(Vβ) − ln Γ(Vβ) = 0.
        assert!(e.topic_term([], 0).abs() < 1e-12);
        assert!(e.doc_term([], 0).abs() < 1e-12);
    }

    #[test]
    fn more_concentrated_topics_score_higher() {
        // With small β, a peaked ϕ row should beat a uniform one at equal mass.
        let e = LdaLoglik::new(0.1, 0.01, 2, 4);
        let peaked = e.topic_term([8, 0, 0, 0], 8);
        let uniform = e.topic_term([2, 2, 2, 2], 8);
        assert!(
            peaked > uniform,
            "peaked {peaked} should exceed uniform {uniform}"
        );
    }

    #[test]
    fn per_token_normalization() {
        let e = eval();
        assert!((e.per_token(-500.0, 100) + 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "hyper-parameters")]
    fn rejects_bad_alpha() {
        LdaLoglik::new(0.0, 0.01, 4, 6);
    }
}
