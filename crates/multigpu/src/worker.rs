//! The per-GPU worker: one simulated device plus everything it owns.
//!
//! Algorithm 1 is "every GPU runs its iteration body independently; the
//! host joins them at the ϕ synchronization". A [`GpuWorker`] is that
//! per-GPU half: the device, the chunks assigned to it (round-robin, see
//! [`crate::schedule::chunk_owner`]), their assignment states and block
//! maps, and the double-buffered ϕ replicas. [`GpuWorker::try_run_iteration`]
//! is the iteration body. It launches the paper's kernels itself, in one
//! fixed order: sample every chunk, clear and rebuild the ϕ replica, then
//! rebuild θ. ϕ runs before θ so the inter-GPU ϕ sync can start while θ is
//! still updating (Section 6.2), and under `M > 1` the body streams each
//! chunk through the H2D → compute → D2H engines (WorkSchedule2). Every
//! launch of a training step takes one path:
//! [`CuldaTrainer::try_step`](crate::CuldaTrainer::try_step) →
//! [`GpuWorker::try_run_iteration`] → `culda_sampler::try_run_*_kernel` →
//! [`Device::try_launch_spec_with`]. [`run_workers`] fans the bodies out
//! over real host threads with a deterministic device-order join.
//!
//! A fault is retried in one loop, [`GpuWorker::retrying`]: the trainer
//! wraps each worker's iteration body in it, and the serving engine each
//! `lda_infer` launch.
//!
//! Results are bit-identical whether the bodies run sequentially or
//! concurrently: the sampler RNG streams are keyed by global token index,
//! every kernel reads only the previous iteration's ϕ snapshot, and each
//! worker mutates only state it owns.

use crate::config::TrainerConfig;
use crate::partition::PartitionedCorpus;
use crate::schedule::chunk_state_bytes;
use culda_corpus::CsrMatrix;
use culda_gpusim::{Device, EnginePipeline, FaultKind, Link, SimFault, Stage, StageIntervals};
use culda_metrics::{
    Breakdown, Json, MetricsRegistry, Phase, TraceSink, H2D_TID_BASE, SIM_PID, STAGE_TID_BASE,
};
use culda_sampler::{
    try_run_phi_clear_kernel, try_run_phi_update_kernel, try_run_sampling_kernel,
    try_run_theta_update_kernel, BlockWork, ChunkState, PhiModel, SampleConfig,
};

/// Tries per worker and failure domain (a trainer worker's iteration
/// body, a serving launch): the first attempt plus two retries. A worker
/// that fails this many times is declared lost.
pub const MAX_ATTEMPTS: u32 = 3;

/// Simulated seconds of backoff before the first retry; doubles on every
/// further retry.
pub const BACKOFF_BASE_SECONDS: f64 = 1e-3;

/// Backoff before retry number `attempt` (1-based: the wait before the
/// first retry is `attempt == 1`): `BACKOFF_BASE_SECONDS · 2^(attempt-1)`.
pub fn backoff_seconds(attempt: u32) -> f64 {
    BACKOFF_BASE_SECONDS * f64::from(1u32 << (attempt - 1).min(31))
}

/// A pre-iteration copy of one chunk's mutable state (`z` + θ), taken only
/// when fault recovery is armed so a failed iteration body can be rolled
/// back and re-run. Fault-free runs never allocate these.
pub type StateSnapshot = (Vec<u16>, CsrMatrix);

/// Per-phase totals and bookkeeping from one iteration body.
#[derive(Debug, Clone, Default)]
pub struct IterationReport {
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
    /// (0 for resident bodies and serial staging).
    pub overlap_fraction: f64,
    /// Device clock when the streaming pipeline started (out-of-core
    /// only); add it to a [`StageIntervals`] offset for absolute times.
    pub pipeline_start: f64,
    /// Per-chunk stage intervals relative to `pipeline_start`, in the
    /// order the non-empty chunks were submitted (out-of-core only).
    pub stage_intervals: Vec<StageIntervals>,
    /// Device clock when the ϕ replica was complete — the earliest moment
    /// the inter-GPU sync may start (θ still runs past this point).
    pub phi_done_at: f64,
}

/// One GPU's share of a training run: the device and all state resident
/// on it.
#[derive(Debug)]
pub struct GpuWorker {
    /// The simulated device this worker drives.
    pub device: Device,
    /// Global chunk ids owned, ascending (`id, id + G, id + 2G, …`).
    pub chunk_ids: Vec<usize>,
    /// Assignment state per owned chunk, parallel to `chunk_ids`.
    pub states: Vec<ChunkState>,
    /// Sampling/ϕ block map per owned chunk, parallel to `chunk_ids`.
    pub block_maps: Vec<Vec<BlockWork>>,
    /// The ϕ read replica (previous iteration's global snapshot). `None`
    /// on a replica-less worker (see [`Self::without_replicas`]).
    pub read_phi: Option<PhiModel>,
    /// The ϕ write replica (this iteration's local counts). `None` when
    /// `read_phi` is.
    pub write_phi: Option<PhiModel>,
    /// This GPU's own phase account (per-GPU Table 5 attribution).
    pub breakdown: Breakdown,
    /// False once the worker exhausted its retry budget on a permanent
    /// fault: its chunks have been migrated and it takes no further part
    /// in the run (no iteration body, no sync, no replica swap).
    pub alive: bool,
}

impl GpuWorker {
    /// A worker with its ϕ replica pair and no chunks yet.
    pub fn new(device: Device, read_phi: PhiModel, write_phi: PhiModel) -> Self {
        Self {
            device,
            chunk_ids: Vec::new(),
            states: Vec::new(),
            block_maps: Vec::new(),
            read_phi: Some(read_phi),
            write_phi: Some(write_phi),
            breakdown: Breakdown::new(),
            alive: true,
        }
    }

    /// A worker that only lends its device: no ϕ replica pair and no
    /// chunks. The serving engine drives its inference devices this way;
    /// every trainer worker has replicas, under either partition policy.
    pub fn without_replicas(device: Device) -> Self {
        Self {
            device,
            chunk_ids: Vec::new(),
            states: Vec::new(),
            block_maps: Vec::new(),
            read_phi: None,
            write_phi: None,
            breakdown: Breakdown::new(),
            alive: true,
        }
    }

    /// The ϕ read replica.
    ///
    /// # Panics
    /// Panics on a replica-less worker (see [`Self::without_replicas`]).
    pub fn read_replica(&self) -> &PhiModel {
        self.read_phi.as_ref().expect("worker has no ϕ replicas")
    }

    /// The ϕ write replica.
    ///
    /// # Panics
    /// Panics on a replica-less worker (see [`Self::without_replicas`]).
    pub fn write_replica(&self) -> &PhiModel {
        self.write_phi.as_ref().expect("worker has no ϕ replicas")
    }

    /// Assigns a chunk (by global id) to this worker.
    pub fn push_chunk(&mut self, global_id: usize, state: ChunkState, block_map: Vec<BlockWork>) {
        self.chunk_ids.push(global_id);
        self.states.push(state);
        self.block_maps.push(block_map);
    }

    /// Number of chunks owned.
    pub fn num_chunks(&self) -> usize {
        self.chunk_ids.len()
    }

    /// Removes and returns every owned chunk `(global_id, state,
    /// block_map)`, ascending by global id. Used when this worker is
    /// declared lost and its chunks migrate to the survivors.
    pub fn drain_chunks(&mut self) -> Vec<(usize, ChunkState, Vec<BlockWork>)> {
        let ids = std::mem::take(&mut self.chunk_ids);
        let states = std::mem::take(&mut self.states);
        let maps = std::mem::take(&mut self.block_maps);
        let mut out: Vec<_> = ids.into_iter().zip(states.into_iter().zip(maps)).collect();
        out.sort_by_key(|&(gi, _)| gi);
        out.into_iter()
            .map(|(gi, (state, map))| (gi, state, map))
            .collect()
    }

    /// Copies every owned chunk's mutable state (`z` + θ), in local chunk
    /// order. Taken before a fallible iteration body so a mid-body fault —
    /// which may have already committed some chunks' θ rebuilds — can be
    /// rolled back to a consistent pre-iteration point before the retry.
    pub fn snapshot_states(&self) -> Vec<StateSnapshot> {
        self.states
            .iter()
            .map(|s| (s.z.snapshot(), s.theta.clone()))
            .collect()
    }

    /// Restores the state copied by [`Self::snapshot_states`].
    pub fn restore_states(&mut self, snap: &[StateSnapshot]) {
        assert_eq!(snap.len(), self.states.len(), "snapshot shape mismatch");
        for (state, (z, theta)) in self.states.iter_mut().zip(snap) {
            for (t, &v) in z.iter().enumerate() {
                state.z.store(t, v);
            }
            state.theta = theta.clone();
        }
    }

    /// Swaps the ϕ replica pair: the freshly-summed write replica becomes
    /// the next iteration's read snapshot.
    pub fn swap_replicas(&mut self) {
        std::mem::swap(&mut self.read_phi, &mut self.write_phi);
    }

    /// Runs `run` until it succeeds or [`MAX_ATTEMPTS`] tries are spent:
    /// the one retry loop, around a trainer worker's iteration body and
    /// around each serving launch. Each attempt is timed on the device
    /// clock. A fault with budget left advances the clock by
    /// [`backoff_seconds`], charges the attempt's time plus
    /// the backoff to this worker's [`Phase::Recovery`], emits a
    /// `worker.retry` span (on the device's track) and counter, and tries
    /// again. Success returns the value, the retries it took and the
    /// recovery seconds they cost. Once the budget is spent the last
    /// attempt's time is charged and the number of attempts made comes
    /// back as the error. Undoing what a failed attempt left behind is
    /// `run`'s job.
    pub fn retrying<T>(
        &mut self,
        trace: Option<&TraceSink>,
        metrics: Option<&MetricsRegistry>,
        mut run: impl FnMut(&mut GpuWorker) -> Result<T, SimFault>,
    ) -> Result<(T, u32, f64), u32> {
        let mut attempt = 1u32;
        let mut recovery_seconds = 0.0;
        loop {
            let before = self.device.now();
            let fault = match run(self) {
                Ok(value) => return Ok((value, attempt - 1, recovery_seconds)),
                Err(fault) => fault,
            };
            // Time burned by the failed attempt (zero for a pre-body launch
            // fault, partial for corruption).
            let wasted = self.device.now() - before;
            if attempt >= MAX_ATTEMPTS {
                self.breakdown.add(Phase::Recovery, wasted);
                return Err(attempt);
            }
            let backoff = backoff_seconds(attempt);
            let retry_at = self.device.now();
            self.device.advance(backoff);
            self.breakdown.add(Phase::Recovery, wasted + backoff);
            recovery_seconds += wasted + backoff;
            if let Some(sink) = trace {
                sink.span_sim(
                    self.device.id as u32,
                    "worker.retry",
                    "recovery",
                    retry_at,
                    self.device.now(),
                    vec![
                        ("attempt".into(), Json::from(attempt as usize)),
                        ("fault".into(), Json::Str(fault.to_string())),
                    ],
                );
            }
            if let Some(reg) = metrics {
                reg.counter("worker.retry").inc();
            }
            attempt += 1;
        }
    }

    /// Runs one iteration body on this worker's device against the read
    /// replica: resident (WorkSchedule1) when `out_of_core` is false,
    /// otherwise streamed through the three-engine pipeline
    /// (WorkSchedule2), double-buffered unless `cfg.prefetch` is off.
    /// `sparse` is the iteration's p* fill decision; it also selects the
    /// replica clear's traffic model. Updates the per-GPU breakdown and
    /// returns the report (the trainer needs `phi_done_at` to start the
    /// sync).
    ///
    /// The write replica's dirty-row bitmap resets with the replica clear
    /// and is marked by every ϕ-update launch, so after the body it
    /// records exactly the rows this iteration's counts landed in.
    ///
    /// On a fault the error is surfaced and the breakdown is left
    /// untouched; chunk state may be mid-iteration (some θ rebuilds already
    /// committed), so a retrying caller must restore a
    /// [`Self::snapshot_states`] copy first. The body is otherwise
    /// idempotent: sampling reads only the previous θ and the read ϕ
    /// snapshot, the write replica starts from a clear, and θ is a full
    /// recount from `z`.
    pub fn try_run_iteration(
        &mut self,
        part: &PartitionedCorpus,
        cfg: &TrainerConfig,
        out_of_core: bool,
        iteration: u32,
        host_link: &Link,
        sparse: bool,
    ) -> Result<IterationReport, SimFault> {
        // Out-of-core iterations stage chunk state over the host link; an
        // armed `drop` fault loses that staging transfer before any time
        // is charged, and the caller's retry re-stages it.
        if out_of_core {
            if let Some(fault) = self.device.poll_fault(FaultKind::LinkDrop, None) {
                return Err(fault);
            }
        }
        let (body, states) = self.split(part, cfg, iteration, sparse);
        let report = if out_of_core {
            body.try_streamed(states, host_link)?
        } else {
            body.try_resident(states)?
        };
        self.breakdown.add(Phase::Sampling, report.sampling_seconds);
        self.breakdown.add(Phase::UpdatePhi, report.phi_seconds);
        self.breakdown.add(Phase::UpdateTheta, report.theta_seconds);
        if out_of_core {
            self.breakdown
                .add(Phase::Transfer, report.exposed_transfer_seconds);
        }
        Ok(report)
    }

    /// Runs the sample → ϕ-accumulate → θ step for a subset of owned
    /// chunks (by *local* index) **without clearing the write replica** —
    /// the rebalance path: chunks migrated from a lost worker are folded
    /// into a survivor whose own iteration body (including the clear)
    /// already ran. The ϕ adds are commutative atomics, so the summed
    /// global ϕ — and with it the next iteration — is bit-identical to
    /// the fault-free run. Kernel time is charged to the device clock;
    /// the caller attributes it (the trainer books it as recovery).
    pub fn try_run_chunks(
        &mut self,
        locals: &[usize],
        part: &PartitionedCorpus,
        cfg: &TrainerConfig,
        iteration: u32,
        sparse: bool,
    ) -> Result<IterationReport, SimFault> {
        let (body, states) = self.split(part, cfg, iteration, sparse);
        let mut out = IterationReport::default();
        for &li in locals {
            body.try_run_chunk(li, &mut states[li], &mut out)?;
        }
        out.phi_done_at = body.device.now();
        Ok(out)
    }

    /// Splits the worker into the launch inputs of one iteration body and
    /// the chunk states that body rewrites.
    fn split<'a>(
        &'a mut self,
        part: &'a PartitionedCorpus,
        cfg: &'a TrainerConfig,
        iteration: u32,
        sparse: bool,
    ) -> (Body<'a>, &'a mut [ChunkState]) {
        let read_phi = self.read_phi.as_ref().expect("worker has no ϕ replicas");
        let body = Body {
            device: &self.device,
            read_phi,
            write_phi: self.write_phi.as_ref().expect("worker has no ϕ replicas"),
            inv_denom: read_phi.inv_denominators(),
            chunk_ids: &self.chunk_ids,
            block_maps: &self.block_maps,
            part,
            cfg,
            iteration,
            sparse,
        };
        (body, &mut self.states)
    }

    /// Global ids of the chunks this worker actually streams (non-empty
    /// block maps), in the order the out-of-core pipeline submits them —
    /// index-aligned with [`IterationReport::stage_intervals`].
    pub fn staged_chunk_ids(&self) -> Vec<usize> {
        self.chunk_ids
            .iter()
            .zip(&self.block_maps)
            .filter(|(_, bm)| !bm.is_empty())
            .map(|(&gi, _)| gi)
            .collect()
    }
}

/// The launch inputs of one iteration body: the device, the ϕ replica
/// pair, the read replica's inverse denominators (computed once per body)
/// and what each owned chunk's launches are built from. The chunk states
/// are passed beside it, because the body rewrites them.
struct Body<'a> {
    device: &'a Device,
    read_phi: &'a PhiModel,
    write_phi: &'a PhiModel,
    inv_denom: Vec<f32>,
    chunk_ids: &'a [usize],
    block_maps: &'a [Vec<BlockWork>],
    part: &'a PartitionedCorpus,
    cfg: &'a TrainerConfig,
    iteration: u32,
    sparse: bool,
}

impl Body<'_> {
    /// WorkSchedule1: every chunk resident, kernels back to back.
    fn try_resident(&self, states: &mut [ChunkState]) -> Result<IterationReport, SimFault> {
        let mut out = IterationReport::default();
        // Sample every chunk against the read snapshot. A zero-token chunk
        // (empty block map) runs no sampling or ϕ launch.
        for (li, state) in states.iter().enumerate() {
            if !self.block_maps[li].is_empty() {
                out.sampling_seconds += self.try_sample(li, state)?;
            }
        }
        // Rebuild the write replica: clear once, accumulate each chunk.
        // The dirty-row bitmap resets inside the clear, which also makes a
        // retried body safe: the re-run can never double-mark stale rows.
        out.phi_seconds +=
            try_run_phi_clear_kernel(self.device, self.write_phi, self.sparse)?.sim_seconds;
        for (li, state) in states.iter().enumerate() {
            if !self.block_maps[li].is_empty() {
                out.phi_seconds += self.try_update_phi(li, state)?;
            }
        }
        out.phi_done_at = self.device.now();
        // θ update runs after ϕ so it overlaps the sync; every chunk's θ
        // is rebuilt, a zero-token chunk's included.
        for (li, state) in states.iter_mut().enumerate() {
            out.theta_seconds += self.try_update_theta(li, state)?;
        }
        Ok(out)
    }

    /// WorkSchedule2: each non-empty chunk streams in over `host_link`,
    /// runs its step and streams its θ back out, through the three-engine
    /// pipeline; the body takes the pipeline's makespan. Zero-token chunks
    /// are skipped entirely: no stage and no θ rebuild.
    fn try_streamed(
        &self,
        states: &mut [ChunkState],
        host_link: &Link,
    ) -> Result<IterationReport, SimFault> {
        let start = self.device.now();
        let mut pipeline = EnginePipeline::new();
        let mut compute_total = 0.0;
        let mut out = IterationReport::default();

        // Double-buffered prefetch vs serial single-buffer staging: the
        // same stages, a different H2D start rule.
        let submit = |p: &mut EnginePipeline, s: Stage| {
            if self.cfg.prefetch {
                p.submit_prefetched(s)
            } else {
                p.submit_serial(s)
            }
        };

        // The replica clear is not chunk-bound; run it up front. The
        // dirty-row bitmap resets with it (see `try_resident`).
        let clear = try_run_phi_clear_kernel(self.device, self.write_phi, self.sparse)?.sim_seconds;
        out.phi_seconds += clear;
        compute_total += clear;
        submit(
            &mut pipeline,
            Stage {
                h2d_seconds: 0.0,
                compute_seconds: clear,
                d2h_seconds: 0.0,
            },
        );

        for (li, state) in states.iter_mut().enumerate() {
            if self.block_maps[li].is_empty() {
                continue; // zero-token chunk: nothing to stream or run
            }
            let gi = self.chunk_ids[li];
            let h2d_seconds =
                host_link.transfer_seconds(chunk_state_bytes(self.part, gi, self.cfg.num_topics));
            // θ streams out at its size as staged, read before the step
            // rebuilds it.
            let d2h_seconds = host_link.transfer_seconds(state.theta.storage_bytes() as u64);
            let before = self.device.now();
            self.try_run_chunk(li, state, &mut out)?;
            let compute = self.device.now() - before;
            compute_total += compute;
            submit(
                &mut pipeline,
                Stage {
                    h2d_seconds,
                    compute_seconds: compute,
                    d2h_seconds,
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
        // Stage 0 is the clear; the rest line up with the non-empty chunks
        // in submission order.
        out.stage_intervals = pipeline.spans[1..].to_vec();
        self.device.advance_to(start + makespan);
        // ϕ of the *last* chunk completes with the compute engine; the
        // sync can start then (θ of the last chunk still overlaps).
        out.phi_done_at = self.device.now();
        Ok(out)
    }

    /// One chunk's step — sample, accumulate its counts onto the write
    /// replica, rebuild its θ — shared by the streamed body and the
    /// rebalance path. It never clears the replica: the streamed body
    /// cleared it up front, and a rebalance folds migrated chunks onto the
    /// survivor's own counts (dirty rows OR-accumulate the same way). A
    /// zero-token chunk only rebuilds θ.
    fn try_run_chunk(
        &self,
        li: usize,
        state: &mut ChunkState,
        out: &mut IterationReport,
    ) -> Result<(), SimFault> {
        if !self.block_maps[li].is_empty() {
            out.sampling_seconds += self.try_sample(li, state)?;
            out.phi_seconds += self.try_update_phi(li, state)?;
        }
        out.theta_seconds += self.try_update_theta(li, state)?;
        Ok(())
    }

    /// Samples chunk `li` against the read snapshot; returns the launch's
    /// simulated seconds, as the next two do for theirs.
    fn try_sample(&self, li: usize, state: &ChunkState) -> Result<f64, SimFault> {
        let gi = self.chunk_ids[li];
        let cfg = SampleConfig {
            seed: self.cfg.seed,
            iteration: self.iteration,
            chunk_token_offset: self.part.token_offsets[gi],
            compressed: self.cfg.compressed,
            use_shared_memory: self.cfg.use_shared_memory,
            // Section 6.1.2's selective caching of θ index loads.
            use_l1_for_indices: true,
            sparse: self.sparse,
            draw: self.cfg.draw_mode,
        };
        let chunk = &self.part.chunks[gi];
        let map = &self.block_maps[li];
        let r = try_run_sampling_kernel(
            self.device,
            chunk,
            state,
            self.read_phi,
            &self.inv_denom,
            map,
            &cfg,
        )?;
        Ok(r.sim_seconds)
    }

    /// Adds chunk `li`'s counts to the write replica.
    fn try_update_phi(&self, li: usize, state: &ChunkState) -> Result<f64, SimFault> {
        let chunk = &self.part.chunks[self.chunk_ids[li]];
        let map = &self.block_maps[li];
        Ok(try_run_phi_update_kernel(self.device, chunk, state, self.write_phi, map)?.sim_seconds)
    }

    /// Rebuilds chunk `li`'s θ from its `z`.
    fn try_update_theta(&self, li: usize, state: &mut ChunkState) -> Result<f64, SimFault> {
        let chunk = &self.part.chunks[self.chunk_ids[li]];
        Ok(
            try_run_theta_update_kernel(self.device, chunk, state, self.cfg.num_topics)?
                .sim_seconds,
        )
    }
}

/// Draws one worker's out-of-core staging pipeline into the trace: per
/// chunk, an H2D copy span on the device's `gpu{d}-h2d` track, the
/// pipelined kernel span on `gpu{d}-stage`, and a flow arrow from the
/// copy's completion into the kernel — the arrow that makes prefetch
/// overlap (chunk `i+1` copying while chunk `i` computes) visible in
/// `culda trace`. `chunk_ids` must be the worker's
/// [`GpuWorker::staged_chunk_ids`], index-aligned with
/// `report.stage_intervals`.
pub fn trace_staging(
    sink: &TraceSink,
    device_id: u32,
    iteration: u32,
    chunk_ids: &[usize],
    report: &IterationReport,
) {
    let t0 = report.pipeline_start;
    for (si, &gi) in report.stage_intervals.iter().zip(chunk_ids) {
        if si.h2d.1 > si.h2d.0 {
            sink.span_sim(
                H2D_TID_BASE + device_id,
                &format!("h2d chunk {gi}"),
                "transfer",
                t0 + si.h2d.0,
                t0 + si.h2d.1,
                vec![("iteration".into(), Json::from(iteration as usize))],
            );
        }
        sink.span_sim(
            STAGE_TID_BASE + device_id,
            &format!("chunk {gi}"),
            "staging",
            t0 + si.compute.0,
            t0 + si.compute.1,
            vec![
                ("iteration".into(), Json::from(iteration as usize)),
                ("d2h_s".into(), Json::Num(si.d2h.1 - si.d2h.0)),
            ],
        );
        if si.h2d.1 > si.h2d.0 {
            let id = sink.new_flow_id();
            sink.flow_start(
                SIM_PID,
                H2D_TID_BASE + device_id,
                "chunk_staged",
                t0 + si.h2d.1,
                id,
            );
            sink.flow_finish(
                SIM_PID,
                STAGE_TID_BASE + device_id,
                "chunk_staged",
                t0 + si.compute.0,
                id,
            );
        }
    }
}

/// Runs `f(index, item)` for every item, each on its own host thread,
/// returning results **in item order** regardless of finish order. A
/// panic in any body propagates after all threads join. With a single
/// item the closure runs inline (1-GPU runs pay no threading overhead).
///
/// The items are any disjoint `&mut` borrows: the trainers fan out their
/// [`GpuWorker`]s, and the serving router fans out the engine pools that
/// have work in one dispatch.
pub fn run_workers<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    if items.len() == 1 {
        return vec![f(0, &mut items[0])];
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| scope.spawn(move || f(i, item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// [`run_workers`] with host-side tracing: when `trace` is attached, each
/// worker's body is wrapped in a wall-clock span named `"{label} · gpu {i}"`
/// on that worker's host track ([`culda_metrics::HOST_PID`], tid = worker
/// index), carrying the device's simulated clock at completion. With no
/// sink this is exactly `run_workers`.
pub fn run_workers_traced<R, F>(
    workers: &mut [GpuWorker],
    trace: Option<&culda_metrics::TraceSink>,
    label: &str,
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &mut GpuWorker) -> R + Sync,
{
    match trace {
        None => run_workers(workers, f),
        Some(sink) => run_workers(workers, |i, w| {
            let start = sink.host_now_us();
            let out = f(i, w);
            sink.span_host(
                i as u32,
                &format!("{label} · gpu {i}"),
                "iteration",
                start,
                sink.host_now_us(),
                culda_metrics::trace::sim_us(w.device.now()),
                Vec::new(),
            );
            out
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culda_gpusim::{GpuSpec, Platform};

    fn bare_workers(g: usize) -> Vec<GpuWorker> {
        (0..g)
            .map(|i| GpuWorker::without_replicas(Device::new(i, GpuSpec::titan_x_maxwell())))
            .collect()
    }

    #[test]
    fn run_workers_joins_in_worker_order() {
        let mut workers = bare_workers(4);
        let ids = run_workers(&mut workers, |i, w| {
            std::thread::sleep(std::time::Duration::from_millis((4 - i) as u64 * 5));
            w.device.advance(i as f64);
            i
        });
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(workers[3].device.now(), 3.0);
    }

    #[test]
    fn run_workers_runs_bodies_concurrently() {
        let mut workers = bare_workers(4);
        let gate = std::sync::Barrier::new(4);
        let hits = run_workers(&mut workers, |i, _| {
            gate.wait();
            i
        });
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn traced_run_emits_one_host_span_per_worker() {
        use culda_metrics::{EventKind, TraceSink, HOST_PID};
        let mut workers = bare_workers(3);
        let sink = TraceSink::new();
        let out = run_workers_traced(&mut workers, Some(&sink), "iter 0", |i, w| {
            w.device.advance(1.0 + i as f64);
            i
        });
        assert_eq!(out, vec![0, 1, 2]);
        let begins: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| e.kind == EventKind::Begin)
            .collect();
        assert_eq!(begins.len(), 3);
        let mut tids: Vec<u32> = begins.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        assert_eq!(tids, vec![0, 1, 2]);
        assert!(begins.iter().all(|e| e.pid == HOST_PID));
        assert!(begins[0].name.contains("iter 0"));
        // Without a sink, behaviour is plain run_workers.
        let out = run_workers_traced(&mut workers, None, "iter 1", |i, _| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    /// A fault that [`GpuWorker::retrying`] retries.
    fn launch_fault() -> SimFault {
        SimFault::LaunchFailed {
            device: 0,
            epoch: 0,
            kernel: "k".into(),
        }
    }

    #[test]
    fn backoff_doubles_and_stays_bounded() {
        assert_eq!(backoff_seconds(1), 1e-3);
        assert_eq!(backoff_seconds(2), 2e-3);
        assert_eq!(backoff_seconds(3), 4e-3);
        // The shift saturates instead of overflowing for absurd attempts.
        assert!(backoff_seconds(64).is_finite());
        // Total wait for MAX_ATTEMPTS retries is bounded by base·2^n.
        let total: f64 = (1..=MAX_ATTEMPTS).map(backoff_seconds).sum();
        assert!(total < BACKOFF_BASE_SECONDS * f64::from(1u32 << MAX_ATTEMPTS));
    }

    #[test]
    fn retrying_charges_each_failure_and_backoff_to_recovery() {
        use culda_metrics::EventKind;
        assert_eq!(MAX_ATTEMPTS, 3);
        let (sink, reg) = (TraceSink::new(), MetricsRegistry::new());
        let mut w = bare_workers(1).pop().unwrap();
        // Each attempt spends 0.25 s; the first two fail.
        let mut calls = 0;
        let (value, retries, recovery) = w
            .retrying(Some(&sink), Some(&reg), |w| {
                w.device.advance(0.25);
                calls += 1;
                if calls <= 2 {
                    Err(launch_fault())
                } else {
                    Ok(calls)
                }
            })
            .unwrap();
        assert_eq!((value, retries), (3, 2));
        let want = 0.25 + 1e-3 + 0.25 + 2e-3;
        assert!((recovery - want).abs() < 1e-15, "{recovery} vs {want}");
        assert!((w.breakdown.seconds(Phase::Recovery) - want).abs() < 1e-15);
        assert!((w.device.now() - (want + 0.25)).abs() < 1e-15);
        let spans: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| e.kind == EventKind::Begin && e.name == "worker.retry")
            .collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(reg.counter("worker.retry").value(), 2);
    }

    #[test]
    fn retrying_gives_up_after_the_last_attempt_without_a_span() {
        use culda_metrics::EventKind;
        let (sink, reg) = (TraceSink::new(), MetricsRegistry::new());
        let mut w = bare_workers(1).pop().unwrap();
        let mut recovery_before_last = 0.0;
        let attempts = w
            .retrying(Some(&sink), Some(&reg), |w| {
                recovery_before_last = w.breakdown.seconds(Phase::Recovery);
                w.device.advance(0.25);
                Err::<(), _>(launch_fault())
            })
            .unwrap_err();
        assert_eq!(attempts, MAX_ATTEMPTS);
        // The last attempt's time is charged, and no backoff follows it.
        let recovery = w.breakdown.seconds(Phase::Recovery);
        assert!((recovery - recovery_before_last - 0.25).abs() < 1e-15);
        assert!((recovery - (3.0 * 0.25 + 1e-3 + 2e-3)).abs() < 1e-15);
        assert!((w.device.now() - recovery).abs() < 1e-15);
        let ends: Vec<f64> = sink
            .events()
            .into_iter()
            .filter(|e| e.kind == EventKind::End && e.name == "worker.retry")
            .map(|e| e.ts_us / 1e6)
            .collect();
        assert_eq!(ends.len(), 2);
        assert!(ends.iter().all(|&end| end <= w.device.now() - 0.25 + 1e-12));
        assert_eq!(reg.counter("worker.retry").value(), 2);
    }

    #[test]
    fn single_worker_runs_inline() {
        let mut workers = bare_workers(1);
        let main_thread = std::thread::current().id();
        let same = run_workers(&mut workers, |_, _| {
            std::thread::current().id() == main_thread
        });
        assert_eq!(same, vec![true]);
    }

    /// A worker on one Maxwell device owning every chunk of `part`, its
    /// read replica holding the counts of the chunks' initial `z`.
    fn worker_over(part: &PartitionedCorpus, k: usize) -> GpuWorker {
        use culda_sampler::{accumulate_phi_host, build_block_map, Priors};
        let priors = Priors::paper(k);
        let mut w = GpuWorker::new(
            Device::new(0, GpuSpec::titan_x_maxwell()),
            PhiModel::zeros(k, part.vocab_size, priors),
            PhiModel::zeros(k, part.vocab_size, priors),
        );
        for (gi, chunk) in part.chunks.iter().enumerate() {
            let state = ChunkState::init_random(chunk, k, 7 + gi as u64);
            accumulate_phi_host(chunk, &state.z, w.read_replica());
            // A zero-token chunk gets an empty block map, as in the trainer.
            let map = match chunk.num_tokens() {
                0 => Vec::new(),
                _ => build_block_map(chunk, 128),
            };
            w.push_chunk(gi, state, map);
        }
        w
    }

    fn tiny_part(cfg: &TrainerConfig) -> PartitionedCorpus {
        let corpus = culda_corpus::SynthSpec::tiny().generate();
        crate::schedule::plan_partition(&corpus, cfg, crate::PartitionPolicy::Document)
            .unwrap()
            .0
    }

    #[test]
    fn resident_body_matches_hand_sequenced_kernels() {
        use culda_gpusim::LaunchPhase;
        use culda_sampler::{
            try_run_phi_clear_kernel, try_run_phi_update_kernel, try_run_sampling_kernel,
            try_run_theta_update_kernel,
        };
        let cfg = TrainerConfig::builder(8, Platform::maxwell())
            .seed(11)
            .build()
            .unwrap();
        let part = tiny_part(&cfg);
        assert_eq!(part.num_chunks(), 1);
        let mut w = worker_over(&part, cfg.num_topics);

        // Hand-sequenced reference on its own device and replica.
        let ref_dev = Device::new(0, GpuSpec::titan_x_maxwell());
        let ref_write = PhiModel::zeros(cfg.num_topics, part.vocab_size, w.read_replica().priors);
        let mut ref_state = ChunkState {
            z: culda_gpusim::AtomicU16Buf::from_vec(w.states[0].z.snapshot()),
            theta: w.states[0].theta.clone(),
        };
        let sample_cfg = SampleConfig {
            seed: cfg.seed,
            iteration: 0,
            chunk_token_offset: part.token_offsets[0],
            compressed: cfg.compressed,
            use_shared_memory: cfg.use_shared_memory,
            use_l1_for_indices: true,
            sparse: false,
            draw: cfg.draw_mode,
        };
        let (chunk, map, read) = (&part.chunks[0], &w.block_maps[0], w.read_replica());
        let inv = read.inv_denominators();
        try_run_sampling_kernel(&ref_dev, chunk, &ref_state, read, &inv, map, &sample_cfg).unwrap();
        try_run_phi_clear_kernel(&ref_dev, &ref_write, false).unwrap();
        try_run_phi_update_kernel(&ref_dev, chunk, &ref_state, &ref_write, map).unwrap();
        let ref_phi_done = ref_dev.now();
        try_run_theta_update_kernel(&ref_dev, chunk, &mut ref_state, cfg.num_topics).unwrap();

        let report = w
            .try_run_iteration(&part, &cfg, false, 0, &Link::pcie3(), false)
            .unwrap();
        assert_eq!(w.states[0].z.snapshot(), ref_state.z.snapshot());
        assert_eq!(w.states[0].theta, ref_state.theta);
        assert_eq!(w.write_replica().phi.snapshot(), ref_write.phi.snapshot());
        assert!((w.device.now() - ref_dev.now()).abs() < 1e-15);
        // The sync may start once ϕ is rebuilt; θ runs past that point.
        assert!((report.phi_done_at - ref_phi_done).abs() < 1e-15);
        assert!(
            (report.phi_done_at
                - w.breakdown.seconds(Phase::Sampling)
                - w.breakdown.seconds(Phase::UpdatePhi))
            .abs()
                < 1e-12
        );
        assert!(report.theta_seconds > 0.0);
        assert!((w.device.now() - report.phi_done_at - report.theta_seconds).abs() < 1e-12);
        assert_eq!(report.exposed_transfer_seconds, 0.0);
        assert_eq!(w.breakdown.seconds(Phase::Transfer), 0.0);
        let phases: Vec<LaunchPhase> = w
            .device
            .profile()
            .records()
            .iter()
            .map(|r| r.phase)
            .collect();
        assert_eq!(
            phases,
            [
                LaunchPhase::Sampling,
                LaunchPhase::PhiUpdate,
                LaunchPhase::PhiUpdate,
                LaunchPhase::ThetaUpdate
            ]
        );
    }

    #[test]
    fn streamed_body_matches_resident_and_pays_its_transfers() {
        let cfg = TrainerConfig::builder(8, Platform::maxwell())
            .seed(5)
            .chunks_per_gpu(Some(2))
            .build()
            .unwrap();
        let part = tiny_part(&cfg);
        assert_eq!(part.num_chunks(), 2);
        let link = Link::pcie3();

        let mut resident = worker_over(&part, cfg.num_topics);
        resident
            .try_run_iteration(&part, &cfg, false, 0, &link, false)
            .unwrap();

        let run = |prefetch: bool| {
            let cfg = TrainerConfig {
                prefetch,
                ..cfg.clone()
            };
            let mut w = worker_over(&part, cfg.num_topics);
            // Each chunk streams in its state and streams out its θ at the
            // size it had before this iteration rebuilt it.
            let staged: f64 = w
                .states
                .iter()
                .enumerate()
                .map(|(gi, s)| {
                    link.transfer_seconds(chunk_state_bytes(&part, gi, cfg.num_topics))
                        + link.transfer_seconds(s.theta.storage_bytes() as u64)
                })
                .sum();
            let r = w
                .try_run_iteration(&part, &cfg, true, 0, &link, false)
                .unwrap();
            assert!(
                (r.transfer_seconds_total - staged).abs() < 1e-12,
                "transfers {} vs staged {staged}",
                r.transfer_seconds_total
            );
            assert_eq!(r.stage_intervals.len(), 2);
            assert_eq!(
                w.breakdown.seconds(Phase::Transfer),
                r.exposed_transfer_seconds
            );
            for (a, b) in w.states.iter().zip(&resident.states) {
                assert_eq!(a.z.snapshot(), b.z.snapshot(), "streaming changed topics");
                assert_eq!(a.theta, b.theta);
            }
            assert_eq!(
                w.write_replica().phi.snapshot(),
                resident.write_replica().phi.snapshot(),
                "streaming changed phi counts"
            );
            (w.device.now(), r)
        };
        let (t_on, r_on) = run(true);
        let (t_off, r_off) = run(false);
        assert!(t_on > resident.device.now(), "streaming must cost time");
        assert!(t_off >= t_on, "serial staging must not be faster");
        assert!(r_on.exposed_transfer_seconds > 0.0);
        assert_eq!(r_off.overlap_fraction, 0.0);
    }

    #[test]
    fn zero_token_chunk_launches_only_the_clear_and_theta() {
        use culda_corpus::{Corpus, Document, Vocab};
        let corpus = Corpus::new(vec![Document::new(vec![]); 3], Vocab::synthetic(4));
        let part = PartitionedCorpus::prepare(&corpus, 1, crate::PartitionPolicy::Document);
        let cfg = TrainerConfig::builder(4, Platform::maxwell())
            .build()
            .unwrap();
        let launches = |out_of_core: bool| {
            let mut w = worker_over(&part, 4);
            assert!(w.block_maps[0].is_empty());
            let r = w
                .try_run_iteration(&part, &cfg, out_of_core, 0, &Link::pcie3(), false)
                .unwrap();
            assert_eq!(r.sampling_seconds, 0.0);
            let log = w.device.profile();
            log.records()
                .iter()
                .map(|r| r.name.clone())
                .collect::<Vec<_>>()
        };
        // Resident: θ is rebuilt for every chunk, empty ones included.
        assert_eq!(launches(false), ["phi_clear", "theta_update"]);
        // Streamed: the empty chunk is skipped, no stage and no θ.
        assert_eq!(launches(true), ["phi_clear"]);
    }
}
