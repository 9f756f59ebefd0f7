//! Throughput accounting: the paper's `#Tokens/sec` metric (Eq. 2).
//!
//! Every trainer in the workspace records one [`IterationStat`] per full
//! pass over the corpus. Because the GPU substrate is a simulator, each
//! iteration carries *two* clocks: the simulated device time (what the
//! figures use) and the host wall time (for sanity checks and the CPU
//! baselines, whose time is real).

/// Timing record for one training iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationStat {
    /// Iteration index, starting at 0.
    pub iteration: u32,
    /// Tokens sampled this iteration (normally the full corpus).
    pub tokens: u64,
    /// Simulated seconds this iteration took on the modelled platform.
    pub sim_seconds: f64,
    /// Real wall-clock seconds spent by the host process.
    pub wall_seconds: f64,
    /// Joint log-likelihood per token after this iteration, if scored.
    pub loglik_per_token: Option<f64>,
    /// Nonzero density of the Δϕ payload this iteration's sync shipped
    /// (`nnz / (V·K)`). `None` when the sync ran dense (nothing sparse
    /// shipped) or the trainer has no ϕ sync at all.
    pub delta_density: Option<f64>,
    /// Whether the sampling kernel modelled the sparse `p*` fill this
    /// iteration (`Some(false)` = dense). `None` for trainers without the
    /// hybrid sampling path.
    pub sampling_sparse: Option<bool>,
}

impl IterationStat {
    /// `#Tokens/sec` on the simulated clock.
    pub fn tokens_per_sec(&self) -> f64 {
        assert!(self.sim_seconds > 0.0, "iteration with zero simulated time");
        self.tokens as f64 / self.sim_seconds
    }
}

/// History of a full training run.
#[derive(Debug, Clone, Default)]
pub struct RunHistory {
    stats: Vec<IterationStat>,
}

impl RunHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one iteration. Iterations must arrive in order.
    pub fn push(&mut self, stat: IterationStat) {
        if let Some(last) = self.stats.last() {
            assert!(
                stat.iteration > last.iteration,
                "iterations must be recorded in increasing order"
            );
        }
        self.stats.push(stat);
    }

    /// All recorded iterations.
    pub fn iterations(&self) -> &[IterationStat] {
        &self.stats
    }

    /// Number of recorded iterations.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Average `#Tokens/sec` over the first `n` iterations — the statistic
    /// of Table 4 ("average #Tokens/sec of the first 100 iterations"),
    /// computed as total tokens over total time, not a mean of rates.
    pub fn avg_tokens_per_sec(&self, n: usize) -> f64 {
        let slice = &self.stats[..n.min(self.stats.len())];
        assert!(!slice.is_empty(), "no iterations recorded");
        let tokens: u64 = slice.iter().map(|s| s.tokens).sum();
        let secs: f64 = slice.iter().map(|s| s.sim_seconds).sum();
        tokens as f64 / secs
    }

    /// Cumulative simulated time at the *end* of each iteration — the x-axis
    /// of Figure 8.
    pub fn cumulative_sim_time(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.stats
            .iter()
            .map(|s| {
                acc += s.sim_seconds;
                acc
            })
            .collect()
    }

    /// Per-iteration throughput series — the y-axis of Figure 7.
    pub fn throughput_series(&self) -> Vec<(f64, f64)> {
        self.stats
            .iter()
            .map(|s| (s.iteration as f64, s.tokens_per_sec()))
            .collect()
    }

    /// (time, log-likelihood/token) series for iterations that were scored —
    /// Figure 8's curves.
    pub fn loglik_series(&self) -> Vec<(f64, f64)> {
        let times = self.cumulative_sim_time();
        self.stats
            .iter()
            .zip(times)
            .filter_map(|(s, t)| s.loglik_per_token.map(|ll| (t, ll)))
            .collect()
    }

    /// Total simulated seconds across all iterations.
    pub fn total_sim_seconds(&self) -> f64 {
        self.stats.iter().map(|s| s.sim_seconds).sum()
    }
}

/// Formats a raw tokens/sec value the way the paper's tables do ("173.6M").
pub fn format_tokens_per_sec(tps: f64) -> String {
    if tps >= 1e9 {
        format!("{:.2}B", tps / 1e9)
    } else if tps >= 1e6 {
        format!("{:.1}M", tps / 1e6)
    } else if tps >= 1e3 {
        format!("{:.1}K", tps / 1e3)
    } else {
        format!("{tps:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(i: u32, tokens: u64, sim: f64) -> IterationStat {
        IterationStat {
            iteration: i,
            tokens,
            sim_seconds: sim,
            wall_seconds: sim * 2.0,
            loglik_per_token: None,
            delta_density: None,
            sampling_sparse: None,
        }
    }

    #[test]
    fn tokens_per_sec_is_ratio() {
        assert!((stat(0, 1000, 0.5).tokens_per_sec() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn avg_is_token_weighted() {
        let mut h = RunHistory::new();
        h.push(stat(0, 100, 1.0)); // 100 t/s
        h.push(stat(1, 300, 1.0)); // 300 t/s
                                   // total 400 tokens / 2 s = 200, not mean(100,300)=200 here; use an
                                   // asymmetric case to distinguish:
        h.push(stat(2, 1000, 0.5));
        // totals: 1400 tokens / 2.5 s = 560
        assert!((h.avg_tokens_per_sec(3) - 560.0).abs() < 1e-9);
        // first 2 only
        assert!((h.avg_tokens_per_sec(2) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn avg_clamps_to_recorded_length() {
        let mut h = RunHistory::new();
        h.push(stat(0, 100, 1.0));
        assert!((h.avg_tokens_per_sec(100) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn cumulative_time_monotone() {
        let mut h = RunHistory::new();
        h.push(stat(0, 1, 0.25));
        h.push(stat(1, 1, 0.5));
        assert_eq!(h.cumulative_sim_time(), vec![0.25, 0.75]);
    }

    #[test]
    fn loglik_series_skips_unscored() {
        let mut h = RunHistory::new();
        h.push(IterationStat {
            loglik_per_token: Some(-9.0),
            ..stat(0, 1, 1.0)
        });
        h.push(stat(1, 1, 1.0));
        h.push(IterationStat {
            loglik_per_token: Some(-8.0),
            ..stat(2, 1, 1.0)
        });
        assert_eq!(h.loglik_series(), vec![(1.0, -9.0), (3.0, -8.0)]);
    }

    #[test]
    #[should_panic(expected = "increasing order")]
    fn rejects_out_of_order() {
        let mut h = RunHistory::new();
        h.push(stat(1, 1, 1.0));
        h.push(stat(0, 1, 1.0));
    }

    #[test]
    fn formatting_matches_paper_style() {
        assert_eq!(format_tokens_per_sec(173.6e6), "173.6M");
        assert_eq!(format_tokens_per_sec(1.2e9), "1.20B");
        assert_eq!(format_tokens_per_sec(950.0), "950.0");
        assert_eq!(format_tokens_per_sec(12_500.0), "12.5K");
    }
}
