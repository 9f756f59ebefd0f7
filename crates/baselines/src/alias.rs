//! Walker alias tables: O(1) draws from a fixed discrete distribution.
//!
//! The WarpLDA/LightLDA family (\[10\], \[35\]) replaces the O(K) CGS
//! conditional with Metropolis–Hastings proposals drawn from alias tables
//! that are rebuilt once per pass — amortized O(1) per token. This module
//! is the substrate for our WarpLDA-class CPU baseline.

use culda_corpus::Xoshiro256;

/// A Walker alias table over `n` outcomes.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
    total: f64,
}

impl AliasTable {
    /// Builds the table in O(n) from non-negative weights.
    ///
    /// # Panics
    /// Panics on empty input, negative/non-finite weights, or zero total.
    pub fn build(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table over no outcomes");
        let n = weights.len();
        let total: f64 = weights
            .iter()
            .inspect(|&&w| assert!(w >= 0.0 && w.is_finite(), "bad weight {w}"))
            .sum();
        assert!(total > 0.0, "alias table needs positive total mass");
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias = vec![0u32; n];
        // Partition into under- and over-full cells.
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s as usize] = l;
            // Large cell donates its overflow to the small one.
            prob[l as usize] -= 1.0 - prob[s as usize];
            if prob[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Whatever remains is numerically 1.0.
        for i in small.into_iter().chain(large) {
            prob[i as usize] = 1.0;
            alias[i as usize] = i;
        }
        Self { prob, alias, total }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether there are no outcomes (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Total mass the table was built from.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Draws an outcome: one uniform for the cell, one for the coin.
    #[inline]
    pub fn sample(&self, rng: &mut Xoshiro256) -> usize {
        let cell = rng.next_below(self.prob.len() as u32) as usize;
        if rng.next_f64() < self.prob[cell] {
            cell
        } else {
            self.alias[cell] as usize
        }
    }

    /// Exact probability of outcome `i` implied by the table (tests).
    pub fn probability(&self, i: usize) -> f64 {
        let n = self.prob.len() as f64;
        let mut p = self.prob[i] / n;
        for (j, &a) in self.alias.iter().enumerate() {
            if a as usize == i && self.alias[j] as usize != j {
                p += (1.0 - self.prob[j]) / n;
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_encodes_exact_probabilities() {
        let weights = [1.0, 0.0, 3.0, 6.0];
        let t = AliasTable::build(&weights);
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let got = t.probability(i);
            let want = w / total;
            assert!((got - want).abs() < 1e-12, "outcome {i}: {got} vs {want}");
        }
    }

    #[test]
    fn sampling_matches_weights() {
        let weights = [2.0, 5.0, 1.0, 2.0];
        let t = AliasTable::build(&weights);
        let mut rng = Xoshiro256::from_seed_stream(4, 0);
        let n = 200_000;
        let mut hist = [0u32; 4];
        for _ in 0..n {
            hist[t.sample(&mut rng)] += 1;
        }
        for i in 0..4 {
            let got = hist[i] as f64 / n as f64;
            let want = weights[i] / 10.0;
            assert!((got - want).abs() < 0.01, "outcome {i}: {got} vs {want}");
        }
    }

    #[test]
    fn zero_weight_is_never_drawn() {
        let t = AliasTable::build(&[1.0, 0.0, 1.0]);
        let mut rng = Xoshiro256::from_seed_stream(1, 0);
        for _ in 0..10_000 {
            assert_ne!(t.sample(&mut rng), 1);
        }
    }

    #[test]
    fn uniform_and_singleton() {
        let t = AliasTable::build(&[1.0; 7]);
        for i in 0..7 {
            assert!((t.probability(i) - 1.0 / 7.0).abs() < 1e-12);
        }
        let s = AliasTable::build(&[42.0]);
        let mut rng = Xoshiro256::from_seed_stream(0, 0);
        assert_eq!(s.sample(&mut rng), 0);
    }

    #[test]
    fn extreme_skew_is_handled() {
        let t = AliasTable::build(&[1e-12, 1.0]);
        let mut rng = Xoshiro256::from_seed_stream(2, 0);
        let ones = (0..10_000).filter(|_| t.sample(&mut rng) == 1).count();
        assert!(ones > 9_990);
    }

    #[test]
    #[should_panic(expected = "positive total")]
    fn zero_total_rejected() {
        AliasTable::build(&[0.0, 0.0]);
    }
}
