//! Per-phase execution time accounting — the paper's Table 5.
//!
//! Table 5 decomposes each CuLDA iteration into the three GPU kernels
//! (sampling, update θ, update ϕ); our trainer additionally tracks the
//! multi-GPU synchronization and PCIe transfer phases so the out-of-core
//! (`M > 1`) and multi-GPU configurations can be audited too.

/// A phase of one CuLDA training iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The LDA sampling kernel (Algorithm 2 / Figure 6).
    Sampling,
    /// The θ update kernel (dense scratch + dense→CSR compaction).
    UpdateTheta,
    /// The ϕ update kernel (word-local atomic adds).
    UpdatePhi,
    /// Inter-GPU ϕ reduce/broadcast (Figure 4).
    SyncPhi,
    /// Host↔device chunk and model transfers (WorkSchedule2 path).
    Transfer,
    /// Frozen-model fold-in inference (serving path; φ read-only).
    Inference,
    /// Fault recovery: retry backoff, wasted partial attempts, and chunk
    /// migration after a permanent worker loss.
    Recovery,
}

impl Phase {
    /// All phases, in reporting order.
    pub const ALL: [Phase; 7] = [
        Phase::Sampling,
        Phase::UpdateTheta,
        Phase::UpdatePhi,
        Phase::SyncPhi,
        Phase::Transfer,
        Phase::Inference,
        Phase::Recovery,
    ];

    /// Display name as used in Table 5.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Sampling => "Sampling",
            Phase::UpdateTheta => "Update theta",
            Phase::UpdatePhi => "Update phi",
            Phase::SyncPhi => "Sync phi",
            Phase::Transfer => "Transfer",
            Phase::Inference => "Inference",
            Phase::Recovery => "Recovery",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Sampling => 0,
            Phase::UpdateTheta => 1,
            Phase::UpdatePhi => 2,
            Phase::SyncPhi => 3,
            Phase::Transfer => 4,
            Phase::Inference => 5,
            Phase::Recovery => 6,
        }
    }
}

/// Accumulated simulated seconds per phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    seconds: [f64; 7],
}

impl Breakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `seconds` of simulated time to `phase`.
    pub fn add(&mut self, phase: Phase, seconds: f64) {
        assert!(
            seconds >= 0.0 && seconds.is_finite(),
            "bad duration {seconds}"
        );
        self.seconds[phase.index()] += seconds;
    }

    /// Merges another breakdown into this one (used to combine per-GPU
    /// accounts into a system view).
    pub fn merge(&mut self, other: &Breakdown) {
        for i in 0..self.seconds.len() {
            self.seconds[i] += other.seconds[i];
        }
    }

    /// Accumulated seconds for one phase.
    pub fn seconds(&self, phase: Phase) -> f64 {
        self.seconds[phase.index()]
    }

    /// Total seconds across all phases.
    pub fn total(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Fraction of total time spent in `phase`, in `[0, 1]`.
    pub fn fraction(&self, phase: Phase) -> f64 {
        let total = self.total();
        assert!(total > 0.0, "empty breakdown has no fractions");
        self.seconds(phase) / total
    }

    /// Percentage rows in Table 5 order, only for phases that occurred.
    pub fn percent_rows(&self) -> Vec<(Phase, f64)> {
        Phase::ALL
            .iter()
            .filter(|p| self.seconds(**p) > 0.0)
            .map(|&p| (p, 100.0 * self.fraction(p)))
            .collect()
    }
}

/// Per-GPU phase accounts, attributing each phase's time to the device
/// that spent it (the multi-GPU extension of Table 5: one column per GPU
/// plus the merged system view).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GpuBreakdowns {
    per_gpu: Vec<Breakdown>,
}

impl GpuBreakdowns {
    /// Wraps one breakdown per GPU, in device-id order.
    pub fn new(per_gpu: Vec<Breakdown>) -> Self {
        Self { per_gpu }
    }

    /// Number of GPUs accounted.
    pub fn num_gpus(&self) -> usize {
        self.per_gpu.len()
    }

    /// One GPU's account.
    pub fn gpu(&self, id: usize) -> &Breakdown {
        &self.per_gpu[id]
    }

    /// All accounts in device-id order.
    pub fn iter(&self) -> impl Iterator<Item = &Breakdown> {
        self.per_gpu.iter()
    }

    /// The merged system view (element-wise sum over GPUs).
    pub fn merged(&self) -> Breakdown {
        let mut total = Breakdown::new();
        for b in &self.per_gpu {
            total.merge(b);
        }
        total
    }

    /// Renders a table: one row per GPU, one column per phase that
    /// occurred anywhere, plus a total row.
    pub fn render(&self) -> String {
        let merged = self.merged();
        let phases: Vec<Phase> = Phase::ALL
            .iter()
            .copied()
            .filter(|&p| merged.seconds(p) > 0.0)
            .collect();
        let mut out = String::from("gpu  ");
        for p in &phases {
            out.push_str(&format!("{:>14}", p.name()));
        }
        out.push('\n');
        for (i, b) in self.per_gpu.iter().enumerate() {
            out.push_str(&format!("{i:<5}"));
            for &p in &phases {
                out.push_str(&format!("{:>13.6}s", b.seconds(p)));
            }
            out.push('\n');
        }
        out.push_str("all  ");
        for &p in &phases {
            out.push_str(&format!("{:>13.6}s", merged.seconds(p)));
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one() {
        let mut b = Breakdown::new();
        b.add(Phase::Sampling, 8.77);
        b.add(Phase::UpdateTheta, 0.80);
        b.add(Phase::UpdatePhi, 0.43);
        let sum: f64 = Phase::ALL.iter().map(|&p| b.fraction(p)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accumulates_across_iterations() {
        let mut b = Breakdown::new();
        for _ in 0..10 {
            b.add(Phase::Sampling, 0.5);
        }
        assert!((b.seconds(Phase::Sampling) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_elementwise() {
        let mut a = Breakdown::new();
        a.add(Phase::Sampling, 1.0);
        let mut b = Breakdown::new();
        b.add(Phase::Sampling, 2.0);
        b.add(Phase::SyncPhi, 0.5);
        a.merge(&b);
        assert!((a.seconds(Phase::Sampling) - 3.0).abs() < 1e-12);
        assert!((a.seconds(Phase::SyncPhi) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn percent_rows_skip_empty_phases() {
        let mut b = Breakdown::new();
        b.add(Phase::Sampling, 3.0);
        b.add(Phase::UpdatePhi, 1.0);
        let rows = b.percent_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, Phase::Sampling);
        assert!((rows[0].1 - 75.0).abs() < 1e-12);
        assert_eq!(rows[1].0, Phase::UpdatePhi);
        assert!((rows[1].1 - 25.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bad duration")]
    fn rejects_negative_time() {
        Breakdown::new().add(Phase::Sampling, -1.0);
    }

    #[test]
    fn per_gpu_accounts_merge_and_render() {
        let mut g0 = Breakdown::new();
        g0.add(Phase::Sampling, 2.0);
        g0.add(Phase::UpdatePhi, 0.5);
        let mut g1 = Breakdown::new();
        g1.add(Phase::Sampling, 3.0);
        let per = GpuBreakdowns::new(vec![g0, g1]);
        assert_eq!(per.num_gpus(), 2);
        assert!((per.merged().seconds(Phase::Sampling) - 5.0).abs() < 1e-12);
        assert!((per.gpu(1).seconds(Phase::UpdatePhi)).abs() < 1e-12);
        let table = per.render();
        assert!(table.contains("Sampling"));
        assert!(table.lines().count() == 4, "{table}");
        // Phases no GPU ran are not rendered.
        assert!(!table.contains("Transfer"));
    }
}
