//! LDA hyper-parameters.
//!
//! Section 2.1: "we set α as 50/K and β as 0.01", the same values as
//! WarpLDA \[10\] and SaberLDA \[20\]. (The paper's text writes the α
//! convention both as `K/50` and `50/k`; 50/K is the standard Griffiths &
//! Steyvers prior that every cited system uses, and is what we use.)

/// Dirichlet priors `α` (document–topic) and `β` (topic–word).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Priors {
    /// Per-topic pseudo-count added to each θ row.
    pub alpha: f64,
    /// Per-word pseudo-count added to each ϕ row.
    pub beta: f64,
}

impl Priors {
    /// The paper's setting for `k` topics: `α = 50/K`, `β = 0.01`.
    pub fn paper(num_topics: usize) -> Self {
        assert!(num_topics > 0, "need at least one topic");
        Self {
            alpha: 50.0 / num_topics as f64,
            beta: 0.01,
        }
    }

    /// Custom priors (validated).
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(
            alpha > 0.0 && beta > 0.0 && alpha.is_finite() && beta.is_finite(),
            "priors must be positive and finite"
        );
        Self { alpha, beta }
    }

    /// `βV`, the denominator smoothing mass of Eq. 1.
    pub fn beta_v(&self, vocab_size: usize) -> f64 {
        self.beta * vocab_size as f64
    }

    /// `Kα`, the θ smoothing mass.
    pub fn alpha_k(&self, num_topics: usize) -> f64 {
        self.alpha * num_topics as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values() {
        let p = Priors::paper(1000);
        assert!((p.alpha - 0.05).abs() < 1e-12);
        assert!((p.beta - 0.01).abs() < 1e-12);
        let p = Priors::paper(50);
        assert!((p.alpha - 1.0).abs() < 1e-12);
    }

    #[test]
    fn masses() {
        let p = Priors::new(0.1, 0.01);
        assert!((p.beta_v(100_000) - 1000.0).abs() < 1e-9);
        assert!((p.alpha_k(1024) - 102.4).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_beta() {
        Priors::new(0.1, 0.0);
    }
}
