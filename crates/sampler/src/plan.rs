//! The iteration plan: one GPU's kernel pipeline, submitted as a unit.
//!
//! Algorithm 1's per-GPU iteration body is a fixed kernel sequence —
//! sample every chunk, clear + rebuild the ϕ replica, rebuild θ — with one
//! scheduling wrinkle: ϕ runs *before* θ so the inter-GPU ϕ sync can start
//! while θ is still updating (Section 6.2), and under `M > 1` the whole
//! body streams through the H2D → compute → D2H engines (WorkSchedule2).
//!
//! Instead of having every trainer hand-sequence the four kernel calls and
//! re-derive that wrinkle, callers build a [`KernelSet`] (the kernels bound
//! to one device) and submit an [`IterationPlan`] over their
//! [`ChunkTask`]s. The plan executes the sequence, keeps the ϕ-done
//! timestamp the sync needs, and returns per-phase totals for breakdown
//! attribution. Both work schedules are plans; which one a caller gets is a
//! constructor choice, not a fork in its iteration loop.

use crate::blockmap::BlockWork;
use crate::kernel_phi::{try_run_phi_clear_kernel, try_run_phi_update_kernel};
use crate::kernel_sample::{try_run_sampling_kernel, SampleConfig};
use crate::kernel_theta::try_run_theta_update_kernel;
use crate::model::{ChunkState, PhiModel};
use culda_corpus::SortedChunk;
use culda_gpusim::{Device, EnginePipeline, LaunchReport, SimFault, Stage, StageIntervals};

/// The paper's three kernels bound to one device — the only launch surface
/// trainers use.
#[derive(Debug, Clone, Copy)]
pub struct KernelSet<'d> {
    device: &'d Device,
}

impl<'d> KernelSet<'d> {
    /// Binds the kernel set to `device`.
    pub fn new(device: &'d Device) -> Self {
        Self { device }
    }

    /// The device the kernels launch on.
    pub fn device(&self) -> &'d Device {
        self.device
    }

    /// Fallible sampling launch (see [`try_run_sampling_kernel`]).
    pub fn try_sample(
        &self,
        chunk: &SortedChunk,
        state: &ChunkState,
        phi: &PhiModel,
        inv_denom: &[f32],
        block_map: &[BlockWork],
        cfg: &SampleConfig,
    ) -> Result<LaunchReport, SimFault> {
        try_run_sampling_kernel(self.device, chunk, state, phi, inv_denom, block_map, cfg)
    }

    /// Fallible ϕ clear launch (see [`try_run_phi_clear_kernel`]).
    pub fn try_clear_phi(&self, phi: &PhiModel, sparse: bool) -> Result<LaunchReport, SimFault> {
        try_run_phi_clear_kernel(self.device, phi, sparse)
    }

    /// Fallible ϕ accumulation launch (see [`try_run_phi_update_kernel`]).
    pub fn try_update_phi(
        &self,
        chunk: &SortedChunk,
        state: &ChunkState,
        phi: &PhiModel,
        block_map: &[BlockWork],
    ) -> Result<LaunchReport, SimFault> {
        try_run_phi_update_kernel(self.device, chunk, state, phi, block_map)
    }

    /// Fallible θ rebuild launch (see [`try_run_theta_update_kernel`]).
    pub fn try_update_theta(
        &self,
        chunk: &SortedChunk,
        state: &mut ChunkState,
        num_topics: usize,
    ) -> Result<LaunchReport, SimFault> {
        try_run_theta_update_kernel(self.device, chunk, state, num_topics)
    }
}

/// One chunk's inputs to an iteration: the sorted tokens, the mutable
/// assignment state, the block map, the per-chunk sampling config, and —
/// under the out-of-core schedule — the modelled transfer costs of
/// streaming the chunk in and its θ replica out.
#[derive(Debug)]
pub struct ChunkTask<'a> {
    /// Word-sorted chunk tokens.
    pub chunk: &'a SortedChunk,
    /// Assignments + θ for the chunk (θ is rebuilt in place).
    pub state: &'a mut ChunkState,
    /// Sampling/ϕ block map (empty for a zero-token chunk: all kernels are
    /// skipped, matching the trainer's empty-document handling).
    pub block_map: &'a [BlockWork],
    /// Seed/iteration/offset config for the sampling kernel.
    pub sample_cfg: SampleConfig,
    /// H2D seconds to stream the chunk in (0 when resident).
    pub h2d_seconds: f64,
    /// D2H seconds to stream the θ replica out (0 when resident).
    pub d2h_seconds: f64,
}

/// Per-phase totals and bookkeeping from one executed plan.
#[derive(Debug, Clone, Default)]
pub struct PlanReport {
    /// Simulated seconds in the sampling kernel.
    pub sampling_seconds: f64,
    /// Simulated seconds in ϕ clear + accumulate.
    pub phi_seconds: f64,
    /// Simulated seconds in the θ rebuild.
    pub theta_seconds: f64,
    /// Transfer seconds the pipeline could not hide (out-of-core only).
    pub exposed_transfer_seconds: f64,
    /// Total copy-engine seconds, hidden or not (out-of-core only).
    pub transfer_seconds_total: f64,
    /// Fraction of transfer time hidden under compute, in `[0, 1]`
    /// (0 for resident plans and serial staging).
    pub overlap_fraction: f64,
    /// Device clock when the streaming pipeline started (out-of-core
    /// only); add it to a [`StageIntervals`] offset for absolute times.
    pub pipeline_start: f64,
    /// Per-chunk stage intervals relative to `pipeline_start`, in the
    /// order non-empty tasks were submitted (out-of-core only).
    pub stage_intervals: Vec<StageIntervals>,
    /// Device clock when the ϕ replica was complete — the earliest moment
    /// the inter-GPU sync may start (θ still runs past this point).
    pub phi_done_at: f64,
}

/// Which work schedule the plan executes (Section 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkSchedule {
    /// WorkSchedule1: everything resident, kernels back-to-back.
    Resident,
    /// WorkSchedule2: chunks streamed through the three-engine pipeline;
    /// iteration time is the makespan.
    OutOfCore,
}

/// A single GPU's iteration body, ready to submit.
#[derive(Debug, Clone, Copy)]
pub struct IterationPlan {
    num_topics: usize,
    schedule: WorkSchedule,
    sparse: bool,
    prefetch: bool,
}

impl IterationPlan {
    /// The resident (WorkSchedule1) plan.
    pub fn resident(num_topics: usize) -> Self {
        Self {
            num_topics,
            schedule: WorkSchedule::Resident,
            sparse: false,
            prefetch: true,
        }
    }

    /// The out-of-core (WorkSchedule2) plan; tasks carry transfer costs.
    pub fn out_of_core(num_topics: usize) -> Self {
        Self {
            num_topics,
            schedule: WorkSchedule::OutOfCore,
            sparse: false,
            prefetch: true,
        }
    }

    /// Selects the sparsity-aware traffic model for the replica clear
    /// (callers pair this with [`SampleConfig::sparse`] so one
    /// per-iteration decision drives both kernels). Cost-model only: the
    /// cleared replica and the sampled topics are identical either way.
    pub fn with_sparse(mut self, sparse: bool) -> Self {
        self.sparse = sparse;
        self
    }

    /// Selects the out-of-core staging discipline: `true` (default)
    /// double-buffers H2D so chunk `i+1` streams in while chunk `i`
    /// computes; `false` stages each chunk serially with no overlap.
    /// Cost-model only — sampled topics are identical either way.
    pub fn with_prefetch(mut self, prefetch: bool) -> Self {
        self.prefetch = prefetch;
        self
    }

    /// Whether this is the out-of-core schedule.
    pub fn is_out_of_core(&self) -> bool {
        self.schedule == WorkSchedule::OutOfCore
    }

    /// Executes the iteration on `kernels`' device: samples every task
    /// against the `read_phi` snapshot, rebuilds `write_phi` (clear +
    /// accumulate), then rebuilds every task's θ. Advances the device
    /// clock and returns the per-phase totals.
    ///
    /// Panics on a simulated fault; resilient callers use
    /// [`try_execute`](IterationPlan::try_execute).
    /// The write replica's dirty-row bitmap resets with the replica clear
    /// and is marked by every ϕ-update launch, so after the plan it
    /// records exactly the rows this iteration's counts landed in.
    pub fn execute(
        &self,
        kernels: &KernelSet<'_>,
        read_phi: &PhiModel,
        write_phi: &PhiModel,
        tasks: &mut [ChunkTask<'_>],
    ) -> PlanReport {
        self.try_execute(kernels, read_phi, write_phi, tasks)
            .unwrap_or_else(|f| panic!("unrecoverable simulated fault: {f}"))
    }

    /// Fallible execution: stops at the first injected fault and surfaces
    /// it. The iteration body is idempotent — sampling reads only the
    /// previous θ and the read ϕ snapshot, the write replica starts from a
    /// clear, and θ is a full recount from `z` — so recovery re-runs the
    /// whole plan after restoring the pre-iteration (z, θ) snapshot.
    pub fn try_execute(
        &self,
        kernels: &KernelSet<'_>,
        read_phi: &PhiModel,
        write_phi: &PhiModel,
        tasks: &mut [ChunkTask<'_>],
    ) -> Result<PlanReport, SimFault> {
        match self.schedule {
            WorkSchedule::Resident => self.execute_resident(kernels, read_phi, write_phi, tasks),
            WorkSchedule::OutOfCore => {
                self.execute_out_of_core(kernels, read_phi, write_phi, tasks)
            }
        }
    }

    fn execute_resident(
        &self,
        kernels: &KernelSet<'_>,
        read_phi: &PhiModel,
        write_phi: &PhiModel,
        tasks: &mut [ChunkTask<'_>],
    ) -> Result<PlanReport, SimFault> {
        let inv_denom = read_phi.inv_denominators();
        let mut out = PlanReport::default();
        // Sample every chunk against the read snapshot.
        for task in tasks.iter() {
            if task.block_map.is_empty() {
                continue; // zero-token chunk
            }
            let r = kernels.try_sample(
                task.chunk,
                task.state,
                read_phi,
                &inv_denom,
                task.block_map,
                &task.sample_cfg,
            )?;
            out.sampling_seconds += r.sim_seconds;
        }
        // Rebuild the write replica: clear once, accumulate each chunk.
        // The dirty-row bitmap resets inside the clear, which also makes a
        // retried body safe: the re-run can never double-mark stale rows.
        let rc = kernels.try_clear_phi(write_phi, self.sparse)?;
        out.phi_seconds += rc.sim_seconds;
        for task in tasks.iter() {
            if task.block_map.is_empty() {
                continue;
            }
            let r = kernels.try_update_phi(task.chunk, task.state, write_phi, task.block_map)?;
            out.phi_seconds += r.sim_seconds;
        }
        out.phi_done_at = kernels.device().now();
        // θ update runs after ϕ so it overlaps the sync.
        for task in tasks.iter_mut() {
            let r = kernels.try_update_theta(task.chunk, task.state, self.num_topics)?;
            out.theta_seconds += r.sim_seconds;
        }
        Ok(out)
    }

    fn execute_out_of_core(
        &self,
        kernels: &KernelSet<'_>,
        read_phi: &PhiModel,
        write_phi: &PhiModel,
        tasks: &mut [ChunkTask<'_>],
    ) -> Result<PlanReport, SimFault> {
        let inv_denom = read_phi.inv_denominators();
        let device = kernels.device();
        let start = device.now();
        let mut pipeline = EnginePipeline::new();
        let mut compute_total = 0.0;
        let mut out = PlanReport::default();

        // Double-buffered prefetch vs serial single-buffer staging: the
        // same stages, a different H2D start rule.
        let submit = |p: &mut EnginePipeline, s: Stage| {
            if self.prefetch {
                p.submit_prefetched(s)
            } else {
                p.submit_serial(s)
            }
        };

        // The replica clear is not chunk-bound; run it up front. The
        // dirty-row bitmap resets with it (see `execute_resident`).
        let rc = kernels.try_clear_phi(write_phi, self.sparse)?;
        out.phi_seconds += rc.sim_seconds;
        compute_total += rc.sim_seconds;
        submit(
            &mut pipeline,
            Stage {
                h2d_seconds: 0.0,
                compute_seconds: rc.sim_seconds,
                d2h_seconds: 0.0,
            },
        );

        for task in tasks.iter_mut() {
            if task.block_map.is_empty() {
                continue; // zero-token chunk: nothing to stream or run
            }
            let before = device.now();
            let r = kernels.try_sample(
                task.chunk,
                task.state,
                read_phi,
                &inv_denom,
                task.block_map,
                &task.sample_cfg,
            )?;
            out.sampling_seconds += r.sim_seconds;
            let r = kernels.try_update_phi(task.chunk, task.state, write_phi, task.block_map)?;
            out.phi_seconds += r.sim_seconds;
            let r = kernels.try_update_theta(task.chunk, task.state, self.num_topics)?;
            out.theta_seconds += r.sim_seconds;
            let compute = device.now() - before;
            compute_total += compute;
            submit(
                &mut pipeline,
                Stage {
                    h2d_seconds: task.h2d_seconds,
                    compute_seconds: compute,
                    d2h_seconds: task.d2h_seconds,
                },
            );
        }
        let makespan = pipeline.makespan();
        // Exposed (non-overlapped) transfer time is what the pipeline
        // could not hide.
        out.exposed_transfer_seconds = (makespan - compute_total).max(0.0);
        out.transfer_seconds_total = pipeline.transfer_seconds_total();
        out.overlap_fraction = pipeline.overlap_fraction();
        out.pipeline_start = start;
        // Stage 0 is the clear; the rest line up with the non-empty tasks
        // in submission order.
        out.stage_intervals = pipeline.spans[1..].to_vec();
        device.advance_to(start + makespan);
        // ϕ of the *last* chunk completes with the compute engine; the
        // sync can start then (θ of the last chunk still overlaps).
        out.phi_done_at = device.now();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockmap::build_block_map;
    use crate::hyper::Priors;
    use crate::kernel_phi::{run_phi_clear_kernel, run_phi_update_kernel};
    use crate::kernel_sample::run_sampling_kernel;
    use crate::kernel_theta::run_theta_update_kernel;
    use crate::model::accumulate_phi_host;
    use culda_corpus::{partition_by_tokens, SynthSpec};
    use culda_gpusim::{GpuSpec, LaunchPhase};

    const K: usize = 12;

    fn setup() -> (SortedChunk, ChunkState, PhiModel, PhiModel) {
        let corpus = SynthSpec::tiny().generate();
        let chunks = partition_by_tokens(&corpus, 1);
        let chunk = SortedChunk::build(&corpus, &chunks[0]);
        let state = ChunkState::init_random(&chunk, K, 3);
        let read = PhiModel::zeros(K, corpus.vocab_size(), Priors::paper(K));
        accumulate_phi_host(&chunk, &state.z, &read);
        let write = PhiModel::zeros(K, corpus.vocab_size(), Priors::paper(K));
        (chunk, state, read, write)
    }

    #[test]
    fn plan_matches_hand_sequenced_kernels() {
        let (chunk, state, read, write) = setup();
        let map = build_block_map(&chunk, 128);
        let cfg = SampleConfig::new(17);

        // Hand-sequenced reference on its own device.
        let by_hand = {
            let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(2);
            let mut st = ChunkState {
                z: culda_gpusim::memory::AtomicU16Buf::from_vec(state.z.snapshot()),
                theta: state.theta.clone(),
            };
            let w = PhiModel::zeros(K, read.phi.len() / K, Priors::paper(K));
            let inv = read.inv_denominators();
            run_sampling_kernel(&dev, &chunk, &st, &read, &inv, &map, &cfg);
            run_phi_clear_kernel(&dev, &w, false);
            run_phi_update_kernel(&dev, &chunk, &st, &w, &map);
            run_theta_update_kernel(&dev, &chunk, &mut st, K);
            (st.z.snapshot(), w.phi.snapshot(), dev.now())
        };

        let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(2);
        let kernels = KernelSet::new(&dev);
        let mut st = ChunkState {
            z: culda_gpusim::memory::AtomicU16Buf::from_vec(state.z.snapshot()),
            theta: state.theta.clone(),
        };
        let mut tasks = [ChunkTask {
            chunk: &chunk,
            state: &mut st,
            block_map: &map,
            sample_cfg: cfg,
            h2d_seconds: 0.0,
            d2h_seconds: 0.0,
        }];
        let report = IterationPlan::resident(K).execute(&kernels, &read, &write, &mut tasks);

        assert_eq!(st.z.snapshot(), by_hand.0, "plan changed assignments");
        assert_eq!(write.phi.snapshot(), by_hand.1, "plan changed phi");
        assert!((dev.now() - by_hand.2).abs() < 1e-15, "plan changed time");
        assert!(report.sampling_seconds > 0.0);
        assert!(report.phi_seconds > 0.0);
        assert!(report.theta_seconds > 0.0);
        assert_eq!(report.exposed_transfer_seconds, 0.0);
    }

    #[test]
    fn phi_done_precedes_theta_completion() {
        let (chunk, mut state, read, write) = setup();
        let map = build_block_map(&chunk, 128);
        let dev = Device::new(0, GpuSpec::v100_volta()).with_workers(2);
        let kernels = KernelSet::new(&dev);
        let mut tasks = [ChunkTask {
            chunk: &chunk,
            state: &mut state,
            block_map: &map,
            sample_cfg: SampleConfig::new(5),
            h2d_seconds: 0.0,
            d2h_seconds: 0.0,
        }];
        let report = IterationPlan::resident(K).execute(&kernels, &read, &write, &mut tasks);
        assert!(report.phi_done_at > 0.0);
        assert!(
            report.phi_done_at < dev.now(),
            "theta must run after the phi-done point"
        );
        assert!((dev.now() - report.phi_done_at - report.theta_seconds).abs() < 1e-12);
    }

    #[test]
    fn out_of_core_plan_matches_resident_results_and_pays_transfers() {
        let (chunk, state, read, write_a) = setup();
        let map = build_block_map(&chunk, 128);
        let cfg = SampleConfig::new(21);
        let dev_a = Device::new(0, GpuSpec::titan_x_maxwell());
        let mut st_a = ChunkState {
            z: culda_gpusim::memory::AtomicU16Buf::from_vec(state.z.snapshot()),
            theta: state.theta.clone(),
        };
        let mut tasks = [ChunkTask {
            chunk: &chunk,
            state: &mut st_a,
            block_map: &map,
            sample_cfg: cfg,
            h2d_seconds: 0.0,
            d2h_seconds: 0.0,
        }];
        IterationPlan::resident(K).execute(&KernelSet::new(&dev_a), &read, &write_a, &mut tasks);

        let dev_b = Device::new(0, GpuSpec::titan_x_maxwell());
        let write_b = PhiModel::zeros(K, read.phi.len() / K, Priors::paper(K));
        let mut st_b = ChunkState {
            z: culda_gpusim::memory::AtomicU16Buf::from_vec(state.z.snapshot()),
            theta: state.theta.clone(),
        };
        // Transfers far larger than compute: the pipeline cannot hide them.
        let mut tasks = [ChunkTask {
            chunk: &chunk,
            state: &mut st_b,
            block_map: &map,
            sample_cfg: cfg,
            h2d_seconds: 5.0,
            d2h_seconds: 5.0,
        }];
        let oc = IterationPlan::out_of_core(K).execute(
            &KernelSet::new(&dev_b),
            &read,
            &write_b,
            &mut tasks,
        );

        assert_eq!(st_a.z.snapshot(), st_b.z.snapshot());
        assert_eq!(write_a.phi.snapshot(), write_b.phi.snapshot());
        assert!(oc.exposed_transfer_seconds > 0.0);
        assert!(dev_b.now() > dev_a.now(), "streaming must cost time");
    }

    #[test]
    fn prefetch_toggle_changes_time_but_not_results() {
        let (chunk, state, read, _) = setup();
        let map = build_block_map(&chunk, 128);
        let cfg = SampleConfig::new(9);
        let run = |prefetch: bool| {
            let dev = Device::new(0, GpuSpec::titan_x_maxwell());
            let write = PhiModel::zeros(K, read.phi.len() / K, Priors::paper(K));
            let mut st = ChunkState {
                z: culda_gpusim::memory::AtomicU16Buf::from_vec(state.z.snapshot()),
                theta: state.theta.clone(),
            };
            let mut tasks = [ChunkTask {
                chunk: &chunk,
                state: &mut st,
                block_map: &map,
                sample_cfg: cfg,
                h2d_seconds: 0.01,
                d2h_seconds: 0.01,
            }];
            let r = IterationPlan::out_of_core(K)
                .with_prefetch(prefetch)
                .execute(&KernelSet::new(&dev), &read, &write, &mut tasks);
            (st.z.snapshot(), write.phi.snapshot(), dev.now(), r)
        };
        let (z_on, phi_on, t_on, r_on) = run(true);
        let (z_off, phi_off, t_off, r_off) = run(false);
        assert_eq!(z_on, z_off, "prefetch changed sampled topics");
        assert_eq!(phi_on, phi_off, "prefetch changed phi counts");
        assert!(t_off >= t_on, "serial staging must not be faster");
        assert_eq!(r_off.overlap_fraction, 0.0);
        assert!((r_on.transfer_seconds_total - 0.02).abs() < 1e-12);
        assert_eq!(r_on.stage_intervals.len(), 1);
    }

    #[test]
    fn kernel_set_launches_carry_phase_tags() {
        let (chunk, mut state, read, write) = setup();
        let map = build_block_map(&chunk, 128);
        let dev = Device::new(0, GpuSpec::titan_x_maxwell());
        let kernels = KernelSet::new(&dev);
        let mut tasks = [ChunkTask {
            chunk: &chunk,
            state: &mut state,
            block_map: &map,
            sample_cfg: SampleConfig::new(2),
            h2d_seconds: 0.0,
            d2h_seconds: 0.0,
        }];
        IterationPlan::resident(K).execute(&kernels, &read, &write, &mut tasks);
        let log = dev.profile();
        assert_eq!(log.len(), 4); // sample, clear, phi, theta
        let phases: Vec<LaunchPhase> = log.records().iter().map(|r| r.phase).collect();
        assert_eq!(
            phases,
            [
                LaunchPhase::Sampling,
                LaunchPhase::PhiUpdate,
                LaunchPhase::PhiUpdate,
                LaunchPhase::ThetaUpdate
            ]
        );
        assert!(
            (log.phase_seconds(LaunchPhase::Sampling) - dev.profile().records()[0].sim_seconds)
                .abs()
                < 1e-15
        );
    }

    #[test]
    fn empty_block_map_skips_all_chunk_kernels() {
        use culda_corpus::{Corpus, Document, Vocab};
        let docs = vec![Document::new(vec![]); 3];
        let c = Corpus::new(docs, Vocab::synthetic(4));
        let chunks = partition_by_tokens(&c, 1);
        let chunk = SortedChunk::build(&c, &chunks[0]);
        let mut state = ChunkState::init_random(&chunk, 4, 1);
        let read = PhiModel::zeros(4, 4, Priors::paper(4));
        let write = PhiModel::zeros(4, 4, Priors::paper(4));
        let dev = Device::new(0, GpuSpec::titan_x_maxwell());
        let mut tasks = [ChunkTask {
            chunk: &chunk,
            state: &mut state,
            block_map: &[],
            sample_cfg: SampleConfig::new(1),
            h2d_seconds: 0.0,
            d2h_seconds: 0.0,
        }];
        let r =
            IterationPlan::resident(4).execute(&KernelSet::new(&dev), &read, &write, &mut tasks);
        assert_eq!(r.sampling_seconds, 0.0);
        // Only the clear runs (not chunk-bound) — and θ, which handles
        // empty documents itself.
        assert_eq!(dev.profile().records()[0].name, "phi_clear");
    }
}
