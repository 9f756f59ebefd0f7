//! The per-GPU worker: one simulated device plus everything it owns.
//!
//! Algorithm 1 is "every GPU runs its iteration body independently; the
//! host joins them at the ϕ synchronization". A [`GpuWorker`] is that
//! per-GPU half: the device, the chunks assigned to it (round-robin, see
//! [`crate::schedule::chunk_owner`]), their assignment states and block
//! maps, and the double-buffered ϕ replicas. [`GpuWorker::run_iteration`]
//! is the iteration body — it builds the [`ChunkTask`]s and submits an
//! [`IterationPlan`] through the device's [`KernelSet`] — and
//! [`run_workers`] fans the bodies out over real host threads with a
//! deterministic device-order join.
//!
//! Results are bit-identical whether the bodies run sequentially or
//! concurrently: the sampler RNG streams are keyed by global token index,
//! every kernel reads only the previous iteration's ϕ snapshot, and each
//! worker mutates only state it owns.

use crate::config::TrainerConfig;
use crate::partition::PartitionedCorpus;
use crate::schedule::chunk_state_bytes;
use culda_corpus::CsrMatrix;
use culda_gpusim::{Device, FaultKind, Link, SimFault};
use culda_metrics::{Breakdown, Json, Phase, TraceSink, H2D_TID_BASE, SIM_PID, STAGE_TID_BASE};
use culda_sampler::{
    BlockWork, ChunkState, ChunkTask, IterationPlan, KernelSet, PhiDelta, PhiModel, PlanReport,
    SampleConfig,
};

/// A pre-iteration copy of one chunk's mutable state (`z` + θ), taken only
/// when fault recovery is armed so a failed iteration body can be rolled
/// back and re-run. Fault-free runs never allocate these.
pub type StateSnapshot = (Vec<u16>, CsrMatrix);

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

    /// The rows this iteration's ϕ updates touched — the write replica's
    /// own dirty bitmap (feeds the sparse Δϕ sync). Because it lives
    /// *inside* the replica's count storage and resets with the replica
    /// clear at the top of every plan, it can never disagree with the
    /// counts after a retried iteration.
    ///
    /// # Panics
    /// Panics on a replica-less worker (see [`Self::without_replicas`]).
    pub fn delta(&self) -> &PhiDelta {
        self.write_replica().phi.dirty()
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

    /// Runs one iteration body on this worker's device: builds a
    /// [`ChunkTask`] per owned chunk (with transfer costs when `plan` is
    /// out-of-core) and executes `plan` through the device's kernel set.
    /// Updates the per-GPU breakdown and returns the plan report (the
    /// trainer needs `phi_done_at` to start the sync).
    ///
    /// Panics on a simulated fault; resilient callers use
    /// [`Self::try_run_iteration`].
    pub fn run_iteration(
        &mut self,
        part: &PartitionedCorpus,
        cfg: &TrainerConfig,
        plan: IterationPlan,
        iteration: u32,
        host_link: &Link,
        sparse: bool,
    ) -> PlanReport {
        self.try_run_iteration(part, cfg, plan, iteration, host_link, sparse)
            .unwrap_or_else(|f| panic!("unrecoverable simulated fault: {f}"))
    }

    /// Fallible iteration body. On a fault the error is surfaced and the
    /// breakdown is left untouched; chunk state may be mid-iteration (some
    /// θ rebuilds already committed), so a retrying caller must restore a
    /// [`Self::snapshot_states`] copy first.
    pub fn try_run_iteration(
        &mut self,
        part: &PartitionedCorpus,
        cfg: &TrainerConfig,
        plan: IterationPlan,
        iteration: u32,
        host_link: &Link,
        sparse: bool,
    ) -> Result<PlanReport, SimFault> {
        let out_of_core = plan.is_out_of_core();
        // Out-of-core iterations stage chunk state over the host link; an
        // armed `drop` fault loses that staging transfer before any time
        // is charged, and the caller's retry re-stages it.
        if out_of_core {
            if let Some(fault) = self.device.poll_fault(FaultKind::LinkDrop, None) {
                return Err(fault);
            }
        }
        let read_phi = self.read_phi.as_ref().expect("worker has no ϕ replicas");
        let write_phi = self.write_phi.as_ref().expect("worker has no ϕ replicas");
        let kernels = KernelSet::new(&self.device);
        // One per-iteration sparsity decision drives both the sampling
        // kernel's p* fill and the replica clear's traffic model.
        let plan = plan.with_sparse(sparse);
        let mut tasks: Vec<ChunkTask<'_>> = self
            .states
            .iter_mut()
            .zip(&self.chunk_ids)
            .zip(&self.block_maps)
            .map(|((state, &gi), block_map)| {
                let (h2d_seconds, d2h_seconds) = if out_of_core && !block_map.is_empty() {
                    let chunk_bytes = chunk_state_bytes(part, gi, cfg.num_topics);
                    let theta_bytes = state.theta.storage_bytes() as u64;
                    (
                        host_link.transfer_seconds(chunk_bytes),
                        host_link.transfer_seconds(theta_bytes),
                    )
                } else {
                    (0.0, 0.0)
                };
                ChunkTask {
                    chunk: &part.chunks[gi],
                    state,
                    block_map,
                    sample_cfg: SampleConfig {
                        seed: cfg.seed,
                        iteration,
                        chunk_token_offset: part.token_offsets[gi],
                        compressed: cfg.compressed,
                        use_shared_memory: cfg.use_shared_memory,
                        use_l1_for_indices: cfg.use_l1_for_indices,
                        sparse,
                        draw: cfg.draw_mode,
                    },
                    h2d_seconds,
                    d2h_seconds,
                }
            })
            .collect();
        let report = plan.try_execute(&kernels, read_phi, write_phi, &mut tasks)?;
        self.breakdown.add(Phase::Sampling, report.sampling_seconds);
        self.breakdown.add(Phase::UpdatePhi, report.phi_seconds);
        self.breakdown.add(Phase::UpdateTheta, report.theta_seconds);
        if out_of_core {
            self.breakdown
                .add(Phase::Transfer, report.exposed_transfer_seconds);
        }
        Ok(report)
    }

    /// Runs the sample → ϕ-accumulate → θ sequence for a subset of owned
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
    ) -> Result<PlanReport, SimFault> {
        let read_phi = self.read_phi.as_ref().expect("worker has no ϕ replicas");
        let write_phi = self.write_phi.as_ref().expect("worker has no ϕ replicas");
        let kernels = KernelSet::new(&self.device);
        let inv_denom = read_phi.inv_denominators();
        let mut out = PlanReport::default();
        for &li in locals {
            let gi = self.chunk_ids[li];
            let state = &mut self.states[li];
            let block_map = &self.block_maps[li];
            if !block_map.is_empty() {
                let sample_cfg = SampleConfig {
                    seed: cfg.seed,
                    iteration,
                    chunk_token_offset: part.token_offsets[gi],
                    compressed: cfg.compressed,
                    use_shared_memory: cfg.use_shared_memory,
                    use_l1_for_indices: cfg.use_l1_for_indices,
                    sparse,
                    draw: cfg.draw_mode,
                };
                let r = kernels.try_sample(
                    &part.chunks[gi],
                    state,
                    read_phi,
                    &inv_denom,
                    block_map,
                    &sample_cfg,
                )?;
                out.sampling_seconds += r.sim_seconds;
                // Rebalanced chunks fold on top of the survivor's own
                // counts — no clear; dirty rows OR-accumulate the same way.
                let r = kernels.try_update_phi(&part.chunks[gi], state, write_phi, block_map)?;
                out.phi_seconds += r.sim_seconds;
            }
            let r = kernels.try_update_theta(&part.chunks[gi], state, cfg.num_topics)?;
            out.theta_seconds += r.sim_seconds;
        }
        out.phi_done_at = self.device.now();
        Ok(out)
    }

    /// Global ids of the chunks this worker actually streams (non-empty
    /// block maps), in the order the out-of-core pipeline submits them —
    /// index-aligned with
    /// [`PlanReport::stage_intervals`](culda_sampler::PlanReport).
    pub fn staged_chunk_ids(&self) -> Vec<usize> {
        self.chunk_ids
            .iter()
            .zip(&self.block_maps)
            .filter(|(_, bm)| !bm.is_empty())
            .map(|(&gi, _)| gi)
            .collect()
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
    report: &PlanReport,
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
/// The `&mut` counterpart of [`culda_gpusim::GpuCluster::par_each_gpu`].
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

    #[test]
    fn single_worker_runs_inline() {
        let mut workers = bare_workers(1);
        let main_thread = std::thread::current().id();
        let same = run_workers(&mut workers, |_, _| {
            std::thread::current().id() == main_thread
        });
        assert_eq!(same, vec![true]);
    }

    #[test]
    fn worker_iteration_matches_hand_sequenced_plan() {
        use culda_corpus::SynthSpec;
        use culda_sampler::{accumulate_phi_host, build_block_map, Priors};

        let corpus = SynthSpec::tiny().generate();
        let cfg = TrainerConfig::builder(8, Platform::maxwell())
            .seed(11)
            .build()
            .unwrap();
        let (part, _plan) =
            crate::schedule::plan_partition(&corpus, &cfg, crate::PartitionPolicy::Document)
                .unwrap();
        let priors = Priors::paper(cfg.num_topics);
        let chunk = &part.chunks[0];
        let state = ChunkState::init_random(chunk, cfg.num_topics, 7);
        let map = build_block_map(chunk, 128);
        let read = PhiModel::zeros(cfg.num_topics, part.vocab_size, priors);
        accumulate_phi_host(chunk, &state.z, &read);

        // Hand-sequenced reference through the plan directly.
        let ref_dev = Device::new(0, GpuSpec::titan_x_maxwell());
        let ref_write = PhiModel::zeros(cfg.num_topics, part.vocab_size, priors);
        let mut ref_state = ChunkState {
            z: culda_gpusim::memory::AtomicU16Buf::from_vec(state.z.snapshot()),
            theta: state.theta.clone(),
        };
        let mut tasks = [ChunkTask {
            chunk,
            state: &mut ref_state,
            block_map: &map,
            sample_cfg: SampleConfig {
                seed: cfg.seed,
                iteration: 0,
                chunk_token_offset: part.token_offsets[0],
                compressed: cfg.compressed,
                use_shared_memory: cfg.use_shared_memory,
                use_l1_for_indices: cfg.use_l1_for_indices,
                sparse: false,
                draw: cfg.draw_mode,
            },
            h2d_seconds: 0.0,
            d2h_seconds: 0.0,
        }];
        IterationPlan::resident(cfg.num_topics).execute(
            &KernelSet::new(&ref_dev),
            &read,
            &ref_write,
            &mut tasks,
        );

        // The same iteration through a worker.
        let mut w = GpuWorker::new(
            Device::new(0, GpuSpec::titan_x_maxwell()),
            PhiModel::zeros(cfg.num_topics, part.vocab_size, priors),
            PhiModel::zeros(cfg.num_topics, part.vocab_size, priors),
        );
        w.read_replica().copy_from(&read);
        w.push_chunk(0, state, map.clone());
        let report = w.run_iteration(
            &part,
            &cfg,
            IterationPlan::resident(cfg.num_topics),
            0,
            &Link::pcie3(),
            false,
        );
        assert_eq!(w.states[0].z.snapshot(), ref_state.z.snapshot());
        assert_eq!(w.write_replica().phi.snapshot(), ref_write.phi.snapshot());
        assert!((w.device.now() - ref_dev.now()).abs() < 1e-15);
        assert!(
            (report.phi_done_at
                - w.breakdown.seconds(Phase::Sampling)
                - w.breakdown.seconds(Phase::UpdatePhi))
            .abs()
                < 1e-12
        );
        assert!(w.breakdown.seconds(Phase::UpdateTheta) > 0.0);
        assert_eq!(w.breakdown.seconds(Phase::Transfer), 0.0);
    }
}
