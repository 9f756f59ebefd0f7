//! A simulated GPU device: kernel launches, transfers, clock, profile.
//!
//! All time-keeping state sits behind interior mutability so a device can
//! be driven through a shared reference. That is what lets one host thread
//! per GPU run its iteration body concurrently with its peers (the per-GPU
//! worker model) while the borrow checker still prevents two threads from
//! driving the *same* device without synchronisation semantics: the clock
//! and profile log are mutex-protected, and each launch's block execution
//! already runs on its own internal thread pool.

use crate::clock::SimClock;
use crate::error::SimFault;
use crate::fault::{FaultKind, FaultPlan};
use crate::kernel::{default_workers, run_grid_with, BlockCtx, LaunchReport};
use crate::launcher::KernelSpec;
use crate::link::Link;
use crate::platform::GpuSpec;
use crate::profile::ProfileLog;
use culda_metrics::{Counter, Histogram, Json, MetricsRegistry, TraceSink};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Poison-safe lock. A panicking kernel body poisons the device mutexes;
/// recovery code (the whole point of fault injection) must still be able to
/// read the clock and profile afterwards, so poisoning is not propagated.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Kernel-launch counter handles, resolved once when a registry is attached
/// so the per-launch path records through cached `Arc`s instead of paying a
/// name lookup (and a `String` key allocation) per launch.
#[derive(Debug, Clone)]
struct KernelInstruments {
    launches: Arc<Counter>,
    dram_bytes: Arc<Counter>,
    atomic_adds: Arc<Counter>,
}

impl KernelInstruments {
    fn resolve(reg: &MetricsRegistry) -> Self {
        Self {
            launches: reg.counter("kernel.launches"),
            dram_bytes: reg.counter("kernel.dram_bytes"),
            atomic_adds: reg.counter("kernel.atomic_adds"),
        }
    }
}

/// Observability sinks attached to a device (both optional).
#[derive(Debug, Clone, Default)]
struct Observability {
    trace: Option<Arc<TraceSink>>,
    metrics: Option<Arc<MetricsRegistry>>,
    instruments: Option<KernelInstruments>,
}

/// One GPU in the system.
#[derive(Debug)]
pub struct Device {
    /// Device ordinal (`GPU 0 … GPU G-1` in Figure 2).
    pub id: usize,
    /// Hardware parameters.
    pub spec: GpuSpec,
    clock: Mutex<SimClock>,
    profile: Mutex<ProfileLog>,
    workers: usize,
    obs: Mutex<Observability>,
    /// Per-kernel-name bandwidth histogram handles: resolving
    /// `kernel.gbps.<name>` through the registry would build the dotted key
    /// string on every launch, so each device memoizes the handles here.
    gbps_cache: Mutex<BTreeMap<String, Arc<Histogram>>>,
    /// Current epoch (training iteration / serving batch): the coordinate
    /// an attached [`FaultPlan`] resolves against.
    epoch: AtomicU32,
    faults: Mutex<Option<Arc<FaultPlan>>>,
}

impl Device {
    /// Creates device `id` with the given spec.
    pub fn new(id: usize, spec: GpuSpec) -> Self {
        Self {
            id,
            spec,
            clock: Mutex::new(SimClock::new()),
            profile: Mutex::new(ProfileLog::new()),
            workers: default_workers(),
            obs: Mutex::new(Observability::default()),
            gbps_cache: Mutex::new(BTreeMap::new()),
            epoch: AtomicU32::new(0),
            faults: Mutex::new(None),
        }
    }

    /// Sets the epoch an attached [`FaultPlan`] resolves against. Trainers
    /// set this to the iteration number before each fan-out; the serving
    /// engine sets it to the batch ordinal.
    pub fn set_epoch(&self, epoch: u32) {
        self.epoch.store(epoch, Ordering::Relaxed);
    }

    /// The current fault-plan epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Attaches a fault plan. Every launch
    /// ([`try_launch_spec`](Device::try_launch_spec)) and every transfer
    /// ([`try_transfer`](Device::try_transfer)) consults it.
    pub fn attach_faults(&self, plan: Arc<FaultPlan>) {
        *locked(&self.faults) = Some(plan);
    }

    /// Consults the attached fault plan at the current epoch. A hit is
    /// recorded in the attached observability sinks (`fault.injected`
    /// counter and instant) before being returned.
    pub fn poll_fault(&self, kind: FaultKind, kernel: Option<&str>) -> Option<SimFault> {
        let plan = locked(&self.faults).clone()?;
        let fault = plan.take(kind, self.id, self.epoch(), kernel)?;
        let obs = locked(&self.obs).clone();
        if let Some(sink) = &obs.trace {
            sink.instant_sim(self.id as u32, "fault.injected", kind.label(), self.now());
        }
        if let Some(reg) = &obs.metrics {
            reg.counter("fault.injected").inc();
        }
        Some(fault)
    }

    /// Attaches a trace sink: every subsequent launch emits a span on this
    /// device's track (`pid` [`culda_metrics::SIM_PID`], `tid` = device id).
    pub fn attach_trace(&self, sink: Arc<TraceSink>) {
        locked(&self.obs).trace = Some(sink);
    }

    /// Attaches a metrics registry: launches record kernel counters and
    /// bandwidth histograms, and kernel bodies can record through
    /// [`BlockCtx::metrics`].
    pub fn attach_metrics(&self, registry: Arc<MetricsRegistry>) {
        let mut obs = locked(&self.obs);
        obs.instruments = Some(KernelInstruments::resolve(&registry));
        obs.metrics = Some(registry);
        drop(obs);
        locked(&self.gbps_cache).clear();
    }

    /// Overrides the host thread count used to execute blocks.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Host threads used to execute this device's blocks.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes a fully specified launch, the body that
    /// [`try_launch_spec_with`](Device::try_launch_spec_with) wraps in its
    /// fault checks. The grid really runs on host threads with
    /// per-executor host scratch (see [`run_grid_with`]), the clock
    /// advances by the modelled time, and the launch is appended to this
    /// device's profile log with its phase tag.
    fn launch_spec_with<S, I, F>(&self, spec: KernelSpec, scratch: I, body: F) -> LaunchReport
    where
        I: Fn() -> S + Sync,
        F: Fn(&mut BlockCtx, &mut S) + Sync,
    {
        let obs = locked(&self.obs).clone();
        let report = run_grid_with(
            &self.spec,
            &spec.name,
            spec.grid,
            self.workers,
            obs.metrics.as_ref(),
            scratch,
            body,
        );
        // Read start and end under one lock so consecutive spans tile the
        // clock exactly: computing `end - sim_seconds` after the advance
        // can round below the previous span's end and break per-track
        // timestamp monotonicity in the trace.
        let (start, end) = {
            let mut clock = locked(&self.clock);
            let start = clock.now();
            clock.advance(report.sim_seconds);
            (start, clock.now())
        };
        locked(&self.profile).push_tagged(&report, spec.phase);
        if let Some(sink) = &obs.trace {
            sink.span_sim(
                self.id as u32,
                &spec.name,
                spec.phase.label(),
                start,
                end,
                vec![
                    ("grid".into(), Json::from(spec.grid)),
                    ("phase".into(), Json::from(spec.phase.label())),
                    (
                        "dram_mb".into(),
                        Json::Num(report.cost.dram_bytes() as f64 / 1e6),
                    ),
                    ("flops".into(), Json::from(report.cost.flops)),
                    ("atomics".into(), Json::from(report.cost.atomics)),
                    ("wall_ms".into(), Json::Num(report.wall_seconds * 1e3)),
                ],
            );
        }
        if let Some(reg) = &obs.metrics {
            // Cached at attach time: the steady-state launch path does zero
            // name lookups and zero allocations.
            if let Some(inst) = &obs.instruments {
                inst.launches.inc();
                inst.dram_bytes.add(report.cost.dram_bytes());
                inst.atomic_adds.add(report.cost.atomics);
            }
            if report.sim_seconds > 0.0 {
                self.gbps_histogram(reg, &spec.name)
                    .record(report.cost.dram_bytes() as f64 / report.sim_seconds / 1e9);
            }
        }
        report
    }

    /// The `kernel.gbps.<name>` histogram handle, memoized per device so
    /// only the first launch of each kernel builds the dotted key string.
    fn gbps_histogram(&self, reg: &MetricsRegistry, name: &str) -> Arc<Histogram> {
        let mut cache = locked(&self.gbps_cache);
        if let Some(h) = cache.get(name) {
            return Arc::clone(h);
        }
        let h = reg.histogram(&format!("kernel.gbps.{name}"));
        cache.insert(name.to_string(), Arc::clone(&h));
        h
    }

    /// Launches `body` once per block and advances this device's clock by
    /// the modelled kernel time. Every kernel in the system funnels through
    /// here or [`try_launch_spec_with`](Device::try_launch_spec_with), and
    /// injected faults and user-shaped mistakes surface as [`SimFault`]
    /// values instead of panics.
    ///
    /// Ordering matters for recovery semantics:
    ///
    /// 1. an empty grid is rejected before anything runs;
    /// 2. an armed `launch` fault fires *before* the grid runs — no state
    ///    is mutated and the clock does not advance, so a retry is clean;
    /// 3. an armed `corrupt` fault fires *after* the grid ran — the clock
    ///    advanced and device state did change, so recovery must roll back.
    pub fn try_launch_spec<F>(&self, spec: KernelSpec, body: F) -> Result<LaunchReport, SimFault>
    where
        F: Fn(&mut BlockCtx) + Sync,
    {
        self.try_launch_spec_with(spec, || (), |ctx, _| body(ctx))
    }

    /// [`try_launch_spec`](Device::try_launch_spec) with per-executor host
    /// scratch (see [`run_grid_with`]); the same firing-order contract.
    pub fn try_launch_spec_with<S, I, F>(
        &self,
        spec: KernelSpec,
        scratch: I,
        body: F,
    ) -> Result<LaunchReport, SimFault>
    where
        I: Fn() -> S + Sync,
        F: Fn(&mut BlockCtx, &mut S) + Sync,
    {
        if spec.grid == 0 {
            return Err(SimFault::EmptyGrid { kernel: spec.name });
        }
        if let Some(fault) = self.poll_fault(FaultKind::KernelLaunch, Some(&spec.name)) {
            return Err(fault);
        }
        let name = spec.name.clone();
        let report = self.launch_spec_with(spec, scratch, body);
        if let Some(fault) = self.poll_fault(FaultKind::MemoryCorruption, Some(&name)) {
            return Err(fault);
        }
        Ok(report)
    }

    /// Models moving `bytes` to this device over `link`, advancing the
    /// clock, and returns the transfer seconds. An armed `drop` fault loses
    /// the transfer before any time is charged.
    pub fn try_transfer(&self, bytes: u64, link: &Link) -> Result<f64, SimFault> {
        if let Some(fault) = self.poll_fault(FaultKind::LinkDrop, None) {
            return Err(fault);
        }
        let t = link.transfer_seconds(bytes);
        locked(&self.clock).advance(t);
        Ok(t)
    }

    /// Current simulated time on this device.
    pub fn now(&self) -> f64 {
        locked(&self.clock).now()
    }

    /// Advances this device's clock by `dt` seconds (e.g. waiting on a peer).
    pub fn advance(&self, dt: f64) {
        locked(&self.clock).advance(dt);
    }

    /// Moves this device's clock to `t` if later (barrier join).
    pub fn advance_to(&self, t: f64) {
        locked(&self.clock).advance_to(t);
    }

    /// A snapshot of this device's launch history.
    pub fn profile(&self) -> ProfileLog {
        locked(&self.profile).clone()
    }

    /// Drains this device's launch history, leaving it empty. Workers use
    /// this at iteration boundaries to hand their records to the trainer's
    /// merged log without double counting.
    pub fn take_profile(&self) -> ProfileLog {
        std::mem::take(&mut *locked(&self.profile))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::AtomicU32Buf;

    #[test]
    fn launch_advances_clock() {
        let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(2);
        assert_eq!(dev.now(), 0.0);
        let r = dev
            .try_launch_spec(KernelSpec::new("k", 8), |ctx| ctx.dram_read(1_000_000))
            .unwrap();
        assert!(r.sim_seconds > 0.0);
        assert!((dev.now() - r.sim_seconds).abs() < 1e-15);
        dev.try_launch_spec(KernelSpec::new("k2", 8), |ctx| ctx.dram_read(1_000_000))
            .unwrap();
        assert!((dev.now() - 2.0 * r.sim_seconds).abs() < 1e-9);
    }

    #[test]
    fn transfer_advances_clock() {
        let dev = Device::new(0, GpuSpec::v100_volta());
        let t = dev.try_transfer(16_000_000_000, &Link::pcie3()).unwrap();
        assert!((t - 1.0).abs() < 1e-3);
        assert_eq!(dev.now(), t);
    }

    #[test]
    fn kernels_really_mutate_shared_state() {
        let dev = Device::new(0, GpuSpec::titan_xp_pascal()).with_workers(4);
        let buf = AtomicU32Buf::zeros(16);
        dev.try_launch_spec(KernelSpec::new("fill", 16), |ctx| {
            buf.fetch_add(ctx.block_id as usize, ctx.block_id + 1);
        })
        .unwrap();
        let snap = buf.snapshot();
        for (i, &v) in snap.iter().enumerate() {
            assert_eq!(v, i as u32 + 1);
        }
    }

    #[test]
    fn launches_work_through_a_shared_reference() {
        // The whole point of the interior-mutability rework: a device
        // behind `&` can launch, advance and profile.
        let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(2);
        let shared: &Device = &dev;
        shared
            .try_launch_spec(KernelSpec::new("a", 4), |ctx| ctx.dram_read(100))
            .unwrap();
        shared
            .try_launch_spec(KernelSpec::new("b", 4), |ctx| ctx.dram_read(100))
            .unwrap();
        assert!(shared.now() > 0.0);
        assert_eq!(shared.profile().len(), 2);
    }

    #[test]
    fn devices_launch_concurrently_through_shared_refs() {
        let devices: Vec<Device> = (0..4)
            .map(|i| Device::new(i, GpuSpec::titan_xp_pascal()))
            .collect();
        let buf = AtomicU32Buf::zeros(4);
        std::thread::scope(|scope| {
            for (i, dev) in devices.iter().enumerate() {
                let buf = &buf;
                scope.spawn(move || {
                    dev.try_launch_spec(KernelSpec::new("per_gpu", 8), |ctx| {
                        ctx.dram_read(1_000);
                        if ctx.block_id == 0 {
                            buf.fetch_add(i, 1);
                        }
                    })
                    .unwrap();
                });
            }
        });
        assert_eq!(buf.snapshot(), vec![1, 1, 1, 1]);
        for d in &devices {
            assert!(d.now() > 0.0);
            assert_eq!(d.profile().len(), 1);
        }
    }

    #[test]
    fn profile_log_is_per_device_and_drainable() {
        let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(1);
        dev.try_launch_spec(KernelSpec::new("x", 2), |ctx| ctx.dram_read(64))
            .unwrap();
        assert_eq!(dev.profile().len(), 1);
        let drained = dev.take_profile();
        assert_eq!(drained.len(), 1);
        assert!(dev.profile().is_empty());
    }

    #[test]
    fn attached_trace_gets_a_span_per_launch() {
        use culda_metrics::EventKind;
        let dev = Device::new(2, GpuSpec::titan_xp_pascal()).with_workers(2);
        let sink = Arc::new(TraceSink::new());
        dev.attach_trace(sink.clone());
        dev.try_launch_spec(
            KernelSpec::new("k", 4).with_phase(crate::launcher::LaunchPhase::Sampling),
            |ctx| ctx.dram_read(1000),
        )
        .unwrap();
        dev.try_launch_spec(KernelSpec::new("k2", 4), |ctx| ctx.dram_read(1000))
            .unwrap();
        let evs = sink.events();
        let begins: Vec<_> = evs.iter().filter(|e| e.kind == EventKind::Begin).collect();
        assert_eq!(begins.len(), 2);
        assert!(begins.iter().all(|e| e.tid == 2));
        assert_eq!(begins[0].cat, "sampling");
        assert!(begins[0].args.iter().any(|(k, _)| k == "grid"));
        // Span [start, end] matches the clock advance.
        let ends: Vec<_> = evs.iter().filter(|e| e.kind == EventKind::End).collect();
        assert!((ends[1].ts_us / 1e6 - dev.now()).abs() < 1e-12);
    }

    #[test]
    fn attached_metrics_record_launch_counters() {
        let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(1);
        let reg = Arc::new(MetricsRegistry::new());
        dev.attach_metrics(reg.clone());
        dev.try_launch_spec(KernelSpec::new("k", 4), |ctx| {
            ctx.dram_read(1000);
            ctx.atomic(3);
        })
        .unwrap();
        assert_eq!(reg.counter("kernel.launches").value(), 1);
        assert_eq!(reg.counter("kernel.atomic_adds").value(), 12);
        assert_eq!(reg.histogram("kernel.gbps.k").count(), 1);
    }

    #[test]
    fn observability_does_not_change_report_or_clock() {
        let plain = Device::new(0, GpuSpec::v100_volta()).with_workers(2);
        let observed = Device::new(0, GpuSpec::v100_volta()).with_workers(2);
        observed.attach_trace(Arc::new(TraceSink::new()));
        observed.attach_metrics(Arc::new(MetricsRegistry::new()));
        let a = plain
            .try_launch_spec(KernelSpec::new("k", 8), |ctx| ctx.dram_read(4096))
            .unwrap();
        let b = observed
            .try_launch_spec(KernelSpec::new("k", 8), |ctx| ctx.dram_read(4096))
            .unwrap();
        assert_eq!(a.sim_seconds.to_bits(), b.sim_seconds.to_bits());
        assert_eq!(plain.now().to_bits(), observed.now().to_bits());
    }

    #[test]
    fn try_launch_rejects_empty_grid_without_panicking() {
        let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(1);
        let err = dev
            .try_launch_spec(KernelSpec::new("k", 0), |_| {})
            .unwrap_err();
        assert!(matches!(err, SimFault::EmptyGrid { .. }));
        assert_eq!(dev.now(), 0.0);
    }

    #[test]
    fn launch_fault_fires_before_the_grid_runs() {
        use crate::fault::{FaultKind, FaultPlan, FaultSpec};
        let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(1);
        let plan = Arc::new(FaultPlan::from_specs(vec![FaultSpec::new(
            FaultKind::KernelLaunch,
            0,
            1,
        )]));
        dev.attach_faults(plan.clone());
        // Wrong epoch: no fault, launch succeeds.
        dev.set_epoch(0);
        let buf = AtomicU32Buf::zeros(1);
        dev.try_launch_spec(KernelSpec::new("k", 2), |_| {
            buf.fetch_add(0, 1);
        })
        .unwrap();
        let t = dev.now();
        assert_eq!(buf.sum(), 2);
        // Armed epoch: the launch fails, nothing runs, the clock is frozen.
        dev.set_epoch(1);
        let err = dev
            .try_launch_spec(KernelSpec::new("k", 2), |_| {
                buf.fetch_add(0, 1);
            })
            .unwrap_err();
        assert!(matches!(err, SimFault::LaunchFailed { epoch: 1, .. }));
        assert_eq!(buf.sum(), 2);
        assert_eq!(dev.now().to_bits(), t.to_bits());
        // Transient: the retry succeeds.
        dev.try_launch_spec(KernelSpec::new("k", 2), |_| {
            buf.fetch_add(0, 1);
        })
        .unwrap();
        assert_eq!(buf.sum(), 4);
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn corruption_fault_fires_after_the_grid_ran() {
        use crate::fault::{FaultKind, FaultPlan, FaultSpec};
        let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(1);
        dev.attach_faults(Arc::new(FaultPlan::from_specs(vec![FaultSpec::new(
            FaultKind::MemoryCorruption,
            0,
            0,
        )])));
        let buf = AtomicU32Buf::zeros(1);
        let err = dev
            .try_launch_spec(KernelSpec::new("k", 2), |ctx| {
                buf.fetch_add(0, 1);
                ctx.dram_read(1024);
            })
            .unwrap_err();
        assert!(matches!(err, SimFault::MemoryCorrupted { .. }));
        // The grid ran and the clock advanced: recovery must roll back.
        assert_eq!(buf.sum(), 2);
        assert!(dev.now() > 0.0);
    }

    #[test]
    fn dropped_transfer_charges_no_time() {
        use crate::fault::{FaultKind, FaultPlan, FaultSpec};
        let dev = Device::new(0, GpuSpec::v100_volta());
        dev.attach_faults(Arc::new(FaultPlan::from_specs(vec![FaultSpec::new(
            FaultKind::LinkDrop,
            0,
            0,
        )])));
        let err = dev.try_transfer(1_000_000, &Link::pcie3()).unwrap_err();
        assert!(matches!(err, SimFault::LinkDropped { .. }));
        assert_eq!(dev.now(), 0.0);
        // Transient: the retry goes through and charges time.
        let t = dev.try_transfer(1_000_000, &Link::pcie3()).unwrap();
        assert!(t > 0.0);
    }

    #[test]
    fn fault_hit_is_observable() {
        use crate::fault::{FaultKind, FaultPlan, FaultSpec};
        use culda_metrics::EventKind;
        let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(1);
        let sink = Arc::new(TraceSink::new());
        let reg = Arc::new(MetricsRegistry::new());
        dev.attach_trace(sink.clone());
        dev.attach_metrics(reg.clone());
        dev.attach_faults(Arc::new(FaultPlan::from_specs(vec![FaultSpec::new(
            FaultKind::KernelLaunch,
            0,
            0,
        )])));
        assert!(dev
            .try_launch_spec(KernelSpec::new("k", 2), |_| {})
            .is_err());
        assert_eq!(reg.counter("fault.injected").value(), 1);
        assert!(sink
            .events()
            .iter()
            .any(|e| e.kind == EventKind::Instant && e.name == "fault.injected"));
    }

    #[test]
    fn fault_free_launch_reports_the_bare_grid() {
        let dev = Device::new(0, GpuSpec::v100_volta()).with_workers(2);
        let body = |ctx: &mut BlockCtx| ctx.dram_read(4096);
        let grid = crate::kernel::run_grid(&dev.spec, "k", 8, 2, None, body);
        let r = dev.try_launch_spec(KernelSpec::new("k", 8), body).unwrap();
        assert_eq!(r.cost, grid.cost);
        assert_eq!(r.sim_seconds.to_bits(), grid.sim_seconds.to_bits());
        assert_eq!(dev.now().to_bits(), grid.sim_seconds.to_bits());
    }

    #[test]
    fn workers_getter_reflects_override() {
        let dev = Device::new(0, GpuSpec::v100_volta()).with_workers(3);
        assert_eq!(dev.workers(), 3);
        let floor = Device::new(0, GpuSpec::v100_volta()).with_workers(0);
        assert_eq!(floor.workers(), 1);
    }
}
