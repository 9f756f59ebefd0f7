//! Kernel launch descriptions.
//!
//! Every kernel launch in the system is a [`KernelSpec`] — name, grid
//! size, phase tag — executed by
//! [`Device::try_launch_spec_with`](crate::Device::try_launch_spec_with)
//! or [`Device::try_launch_spec`](crate::Device::try_launch_spec), which
//! wraps it, so no call site can bypass the clock and profile
//! bookkeeping. The phase tag labels each launch in the per-device
//! [`ProfileLog`](crate::ProfileLog) and in the kernel's trace span
//! category. Table 5's breakdown does not read it: the trainer charges
//! each phase's seconds to its own `Breakdown` as it launches.

/// Which algorithmic phase a launch belongs to (Algorithm 1's structure).
///
/// This is the simulator-local tag; `culda-multigpu` maps it onto its own
/// wall-clock breakdown phases. `Other` covers setup/diagnostic kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LaunchPhase {
    /// Collapsed Gibbs sampling over token assignments.
    Sampling,
    /// θ (document–topic) recount.
    ThetaUpdate,
    /// ϕ (word–topic) clear + recount.
    PhiUpdate,
    /// Fold-in inference on a frozen ϕ (serving path; read-only model).
    Inference,
    /// Anything else (setup, diagnostics, tests).
    #[default]
    Other,
}

impl LaunchPhase {
    /// Short lower-case label for profiler tables.
    pub fn label(self) -> &'static str {
        match self {
            LaunchPhase::Sampling => "sampling",
            LaunchPhase::ThetaUpdate => "theta",
            LaunchPhase::PhiUpdate => "phi",
            LaunchPhase::Inference => "inference",
            LaunchPhase::Other => "other",
        }
    }
}

/// A fully described kernel launch: what to run, how wide, in which phase.
#[derive(Debug, Clone)]
pub struct KernelSpec {
    /// Kernel name (profiler key).
    pub name: String,
    /// Grid size in thread blocks.
    pub grid: u32,
    /// Algorithmic phase this launch belongs to.
    pub phase: LaunchPhase,
}

impl KernelSpec {
    /// A launch of `name` over `grid` blocks, phase `Other`.
    pub fn new(name: impl Into<String>, grid: u32) -> Self {
        Self {
            name: name.into(),
            grid,
            phase: LaunchPhase::default(),
        }
    }

    /// Tags the launch with an algorithmic phase.
    pub fn with_phase(mut self, phase: LaunchPhase) -> Self {
        self.phase = phase;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::platform::GpuSpec;

    #[test]
    fn spec_builder_sets_all_fields() {
        let s = KernelSpec::new("k", 64).with_phase(LaunchPhase::Sampling);
        assert_eq!(s.name, "k");
        assert_eq!(s.grid, 64);
        assert_eq!(s.phase, LaunchPhase::Sampling);
    }

    #[test]
    fn launch_spec_records_a_tagged_launch() {
        let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(2);
        let r = dev
            .try_launch_spec(
                KernelSpec::new("tagged", 4).with_phase(LaunchPhase::PhiUpdate),
                |ctx| ctx.dram_read(1024),
            )
            .unwrap();
        assert!(r.sim_seconds > 0.0);
        let log = dev.profile();
        assert_eq!(log.len(), 1);
        assert_eq!(log.records()[0].name, "tagged");
        assert_eq!(log.records()[0].phase, LaunchPhase::PhiUpdate);
        assert!((dev.now() - r.sim_seconds).abs() < 1e-15);
    }

    #[test]
    fn phase_labels_are_distinct() {
        use std::collections::HashSet;
        let labels: HashSet<_> = [
            LaunchPhase::Sampling,
            LaunchPhase::ThetaUpdate,
            LaunchPhase::PhiUpdate,
            LaunchPhase::Inference,
            LaunchPhase::Other,
        ]
        .iter()
        .map(|p| p.label())
        .collect();
        assert_eq!(labels.len(), 5);
    }
}
