//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a seedable, fully deterministic schedule of faults to
//! inject at chosen (device, epoch, kernel) coordinates. Attach one to a
//! [`Device`](crate::Device) with
//! [`attach_faults`](crate::Device::attach_faults); the fallible launch and
//! transfer paths consult it and surface hits as
//! [`SimFault`] values. Devices without a plan attached
//! pay nothing: the fault check is a `None` branch on an already-held lock.
//!
//! Faults come in three kinds, mirroring what real fleets lose:
//!
//! * **`launch`** — a kernel launch fails *before* the grid runs; no state
//!   is mutated and the device clock does not advance. Clean retry.
//! * **`corrupt`** — the kernel runs (clock advances) but its output must
//!   be considered garbage; recovery has to roll back.
//! * **`drop`** — a link transfer into the device is lost.
//!
//! A *transient* fault fires exactly once and disarms; a *permanent* fault
//! keeps firing for every epoch at or after its coordinate, which is how a
//! dead device is modelled (every retry fails until the scheduler gives the
//! work to a survivor).

use crate::error::SimFault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The kind of fault a [`FaultSpec`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Fail a kernel launch before the grid runs.
    KernelLaunch,
    /// Corrupt the output of a kernel that did run.
    MemoryCorruption,
    /// Drop a link transfer into the device.
    LinkDrop,
}

impl FaultKind {
    /// Short lower-case label (the `--fault-plan` clause keyword).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::KernelLaunch => "launch",
            FaultKind::MemoryCorruption => "corrupt",
            FaultKind::LinkDrop => "drop",
        }
    }
}

/// One scheduled fault at a (device, epoch, kernel) coordinate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// What to inject.
    pub kind: FaultKind,
    /// Device ordinal the fault targets.
    pub device: usize,
    /// Epoch the fault arms at. For training this is the iteration number;
    /// for serving it is the batch ordinal.
    pub epoch: u32,
    /// Restrict the fault to launches of this kernel name. `None` matches
    /// the first eligible launch of the epoch. Ignored for `LinkDrop`.
    pub kernel: Option<String>,
    /// Transient faults fire once and disarm; permanent faults keep firing
    /// for every epoch ≥ `epoch` on the device (a dead GPU).
    pub permanent: bool,
}

impl FaultSpec {
    /// A transient fault of `kind` at (`device`, `epoch`), any kernel.
    pub fn new(kind: FaultKind, device: usize, epoch: u32) -> Self {
        Self {
            kind,
            device,
            epoch,
            kernel: None,
            permanent: false,
        }
    }

    /// Makes the fault permanent (fires on every epoch ≥ its coordinate).
    pub fn permanent(mut self) -> Self {
        self.permanent = true;
        self
    }

    fn matches(&self, kind: FaultKind, device: usize, epoch: u32, kernel: Option<&str>) -> bool {
        if self.kind != kind || self.device != device {
            return false;
        }
        let epoch_hit = if self.permanent {
            epoch >= self.epoch
        } else {
            epoch == self.epoch
        };
        if !epoch_hit {
            return false;
        }
        match (&self.kernel, kernel) {
            (None, _) => true,
            (Some(want), Some(got)) => want == got,
            (Some(_), None) => false,
        }
    }

    /// Converts a fired spec into the fault value the launch path returns.
    fn to_fault(&self, epoch: u32, kernel: Option<&str>) -> SimFault {
        let kernel = kernel
            .map(str::to_owned)
            .or_else(|| self.kernel.clone())
            .unwrap_or_else(|| "<any>".into());
        match self.kind {
            FaultKind::KernelLaunch => SimFault::LaunchFailed {
                device: self.device,
                epoch,
                kernel,
            },
            FaultKind::MemoryCorruption => SimFault::MemoryCorrupted {
                device: self.device,
                epoch,
                kernel,
            },
            FaultKind::LinkDrop => SimFault::LinkDropped {
                device: self.device,
                epoch,
            },
        }
    }
}

/// A deterministic schedule of faults shared by every device in a run.
///
/// Thread-safe: devices consult the plan concurrently from their worker
/// threads. Transient specs are consumed atomically — a fault armed for one
/// coordinate fires exactly once even if two launches race for it.
#[derive(Debug, Default)]
pub struct FaultPlan {
    armed: Mutex<Vec<FaultSpec>>,
    injected: AtomicU64,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a plan from a list of specs.
    pub fn from_specs(specs: Vec<FaultSpec>) -> Self {
        Self {
            armed: Mutex::new(specs),
            injected: AtomicU64::new(0),
        }
    }

    /// Arms one more fault.
    pub fn push(&self, spec: FaultSpec) {
        lock_ok(&self.armed).push(spec);
    }

    /// Parses the CLI `--fault-plan` grammar: one or more clauses separated
    /// by `;` or `,`, each `kind:device:epoch[:kernel][:permanent]` with
    /// `kind` ∈ {`launch`, `corrupt`, `drop`}.
    ///
    /// ```
    /// use culda_gpusim::{FaultKind, FaultPlan};
    /// let plan = FaultPlan::parse("launch:0:2;corrupt:1:3:phi_update:permanent").unwrap();
    /// assert_eq!(plan.armed_len(), 2);
    /// ```
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut specs = Vec::new();
        for clause in text.split([';', ',']).filter(|c| !c.trim().is_empty()) {
            specs.push(Self::parse_clause(clause.trim())?);
        }
        if specs.is_empty() {
            return Err("fault plan is empty".into());
        }
        Ok(Self::from_specs(specs))
    }

    fn parse_clause(clause: &str) -> Result<FaultSpec, String> {
        let parts: Vec<&str> = clause.split(':').collect();
        if parts.len() < 3 {
            return Err(format!(
                "bad fault clause `{clause}`: want kind:device:epoch[:kernel][:permanent]"
            ));
        }
        let kind = match parts[0] {
            "launch" => FaultKind::KernelLaunch,
            "corrupt" => FaultKind::MemoryCorruption,
            "drop" => FaultKind::LinkDrop,
            other => return Err(format!("unknown fault kind `{other}`")),
        };
        let device: usize = parts[1]
            .parse()
            .map_err(|_| format!("bad device ordinal `{}` in `{clause}`", parts[1]))?;
        let epoch: u32 = parts[2]
            .parse()
            .map_err(|_| format!("bad epoch `{}` in `{clause}`", parts[2]))?;
        let mut spec = FaultSpec::new(kind, device, epoch);
        for &extra in &parts[3..] {
            if extra == "permanent" {
                spec.permanent = true;
            } else if spec.kernel.is_none() {
                spec.kernel = Some(extra.to_string());
            } else {
                return Err(format!("unexpected field `{extra}` in `{clause}`"));
            }
        }
        Ok(spec)
    }

    /// A plan with one transient launch fault at a pseudo-random
    /// (device, epoch) coordinate drawn deterministically from `seed`.
    /// Useful for randomized-but-reproducible resilience tests.
    pub fn random_transient(seed: u64, devices: usize, epochs: u32) -> Self {
        let devices = devices.max(1);
        let epochs = epochs.max(1);
        let a = splitmix64(seed);
        let b = splitmix64(a);
        let spec = FaultSpec::new(
            FaultKind::KernelLaunch,
            (a % devices as u64) as usize,
            (b % epochs as u64) as u32,
        );
        Self::from_specs(vec![spec])
    }

    /// Consumes the first armed fault matching the coordinate, if any.
    /// Transient specs disarm on the hit; permanent specs stay armed.
    pub fn take(
        &self,
        kind: FaultKind,
        device: usize,
        epoch: u32,
        kernel: Option<&str>,
    ) -> Option<SimFault> {
        let mut armed = lock_ok(&self.armed);
        let idx = armed
            .iter()
            .position(|s| s.matches(kind, device, epoch, kernel))?;
        let fault = armed[idx].to_fault(epoch, kernel);
        if !armed[idx].permanent {
            armed.remove(idx);
        }
        drop(armed);
        self.injected.fetch_add(1, Ordering::Relaxed);
        Some(fault)
    }

    /// Total faults fired so far (permanent faults count every firing).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Faults still armed (permanent specs never disarm).
    pub fn armed_len(&self) -> usize {
        lock_ok(&self.armed).len()
    }
}

/// Poison-safe lock: a panicked kernel thread must not cascade into every
/// later fault check.
fn lock_ok<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// SplitMix64 step — the standard seeding PRNG; deterministic and
/// dependency-free.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_fault_fires_once() {
        let plan = FaultPlan::from_specs(vec![FaultSpec::new(FaultKind::KernelLaunch, 0, 2)]);
        assert!(plan
            .take(FaultKind::KernelLaunch, 0, 1, Some("k"))
            .is_none());
        assert!(plan
            .take(FaultKind::KernelLaunch, 1, 2, Some("k"))
            .is_none(),);
        let hit = plan.take(FaultKind::KernelLaunch, 0, 2, Some("k")).unwrap();
        assert_eq!(
            hit,
            SimFault::LaunchFailed {
                device: 0,
                epoch: 2,
                kernel: "k".into()
            }
        );
        // Disarmed: the retry succeeds.
        assert!(plan
            .take(FaultKind::KernelLaunch, 0, 2, Some("k"))
            .is_none());
        assert_eq!(plan.injected(), 1);
        assert_eq!(plan.armed_len(), 0);
    }

    #[test]
    fn permanent_fault_keeps_firing_from_its_epoch() {
        let plan = FaultPlan::from_specs(vec![
            FaultSpec::new(FaultKind::KernelLaunch, 1, 3).permanent()
        ]);
        assert!(plan.take(FaultKind::KernelLaunch, 1, 2, None).is_none());
        for epoch in 3..6 {
            assert!(plan.take(FaultKind::KernelLaunch, 1, epoch, None).is_some());
        }
        assert_eq!(plan.injected(), 3);
        assert_eq!(plan.armed_len(), 1);
    }

    #[test]
    fn kernel_filter_is_respected() {
        let plan = FaultPlan::parse("launch:0:0:phi_update").unwrap();
        assert!(plan
            .take(FaultKind::KernelLaunch, 0, 0, Some("lda_sample"))
            .is_none());
        assert!(plan
            .take(FaultKind::KernelLaunch, 0, 0, Some("phi_update"))
            .is_some());
    }

    #[test]
    fn kinds_do_not_cross_match() {
        let plan = FaultPlan::from_specs(vec![FaultSpec::new(FaultKind::LinkDrop, 0, 0)]);
        assert!(plan
            .take(FaultKind::KernelLaunch, 0, 0, Some("k"))
            .is_none());
        let hit = plan.take(FaultKind::LinkDrop, 0, 0, None).unwrap();
        assert!(matches!(
            hit,
            SimFault::LinkDropped {
                device: 0,
                epoch: 0
            }
        ));
    }

    #[test]
    fn parse_round_trips_the_cli_grammar() {
        let plan = FaultPlan::parse("launch:0:2").unwrap();
        assert_eq!(plan.armed_len(), 1);
        let plan =
            FaultPlan::parse("launch:0:1:lda_sample;corrupt:1:2:permanent,drop:2:3").unwrap();
        assert_eq!(plan.armed_len(), 3);
        assert!(plan
            .take(FaultKind::KernelLaunch, 0, 1, Some("lda_sample"))
            .is_some());
        assert!(plan.take(FaultKind::MemoryCorruption, 1, 5, None).is_some());
        assert!(plan.take(FaultKind::LinkDrop, 2, 3, None).is_some());
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("explode:0:1").is_err());
        assert!(FaultPlan::parse("launch:zero:1").is_err());
        assert!(FaultPlan::parse("launch:0").is_err());
        assert!(FaultPlan::parse("launch:0:1:k:permanent:extra").is_err());
    }

    #[test]
    fn random_transient_is_deterministic_and_in_range() {
        for seed in 0..32u64 {
            let a = FaultPlan::random_transient(seed, 4, 10);
            let b = FaultPlan::random_transient(seed, 4, 10);
            let sa = lock_ok(&a.armed)[0].clone();
            let sb = lock_ok(&b.armed)[0].clone();
            assert_eq!(sa, sb);
            assert!(sa.device < 4);
            assert!(sa.epoch < 10);
            assert!(!sa.permanent);
        }
    }
}
