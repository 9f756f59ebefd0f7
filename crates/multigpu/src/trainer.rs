//! The end-to-end CuLDA_CGS trainer (Figure 3b + Algorithm 1), on one
//! node or many.
//!
//! The trainer owns one [`GpuWorker`] per GPU; each worker owns its
//! device, its chunks' assignment states and block maps, and its
//! double-buffered ϕ replica pair. Per iteration the trainer fans the
//! per-GPU iteration bodies out over real host threads
//! ([`crate::worker::run_workers`]), joins them at the ϕ synchronization
//! (the Figure 4 reduce/broadcast), and merges the per-worker phase
//! accounts into the system [`Breakdown`].
//!
//! Following Section 6.2, ϕ is updated *before* θ so the inter-GPU
//! synchronization overlaps the θ update — the simulated clocks model
//! exactly that overlap: `iteration_end = max(θ_done, sync_start +
//! sync_time)`.
//!
//! Each GPU holds **two** ϕ buffers: a read replica (the global model
//! snapshot produced by the previous sync) and a write replica (this
//! iteration's local counts). They swap after the sync. This is what
//! double-buffered multi-GPU implementations do, and it gives a strong
//! testable property: for a fixed chunk count `C`, training is
//! bit-identical whether those chunks run on 1, 2, or 4 GPUs — and whether
//! the per-GPU bodies run sequentially or concurrently — because the
//! sampler RNG streams are keyed by global token index and every kernel
//! reads only the previous iteration's snapshot.
//!
//! With `M > 1` (out-of-core), each GPU pipelines its `M` chunks through
//! the H2D → compute → D2H engines (WorkSchedule2), and the iteration time
//! is the pipeline makespan instead of the kernel sum.
//!
//! With `cfg.nodes = N > 1` the trainer drives `N × G` workers, node `n`
//! being workers `n·G..(n+1)·G`. Every worker of every node runs in the
//! same fan-out; each node then merges its replicas' Δϕ payloads up its
//! own tree, charged in the configured mode, the node payloads meet at the
//! [`ParameterServer`] over the inter-node link (see [`crate::cluster`]),
//! and the global sum is stored once into every replica. One node is the
//! `N = 1` case: no parameter-server step runs.
//!
//! Partition-by-word (Section 4's alternative) is the same trainer over a
//! second chunk layout: `C = M × G` word ranges over every document
//! instead of document ranges over every word. The worker bodies and
//! kernels are unchanged. The policy shows at four points only: the
//! layout; the θ install at the top of a step, where the chunks' θ are
//! summed and every chunk samples against the whole-document rows; the
//! sync, which sums the replicas' private ϕ rows as data and charges the θ
//! (+ `n_k`) reduce/broadcast; and the document term of the score.

use crate::api::PartitionPolicy;
use crate::cluster::ParameterServer;
use crate::config::{SamplingMode, SyncMode, TrainerConfig};
use crate::error::{CuldaError, RecoveryStats};
use crate::partition::PartitionedCorpus;
use crate::schedule::{chunk_owner, chunk_state_bytes, plan_partition, MemoryPlan};
use crate::sync::{
    capture_each, merge_node, reduce_payloads, store_each, theta_sync_report, SyncReport,
    SyncTotals,
};
use crate::worker::{run_workers, run_workers_traced, trace_staging, GpuWorker, IterationReport};
use culda_corpus::{Corpus, CsrMatrix};
use culda_gpusim::{Device, FaultPlan, Link, ProfileLog};
use culda_metrics::{
    Breakdown, GpuBreakdowns, IterationStat, Json, LdaLoglik, MetricsRegistry, Phase, RunHistory,
    TraceSink, NODE_TID_BASE, SIM_PID, SYNC_TID,
};
use culda_sampler::{
    add_block_to_phi, auto_tokens_per_block, build_block_map, choose_sparse_sampling, BlockWork,
    ChunkState, PhiModel, Priors, TopicCounter,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// One sum of the write replicas, as [`CuldaTrainer::sum_write_replicas`]
/// returns it: each alive node's index with the report the configured mode
/// charges for it, and the parameter server's report.
type NodeSums = (Vec<(usize, SyncReport)>, Option<SyncReport>);

/// Result of a completed training run.
#[derive(Debug)]
pub struct TrainOutcome {
    /// Per-iteration timing and scoring.
    pub history: RunHistory,
    /// Accumulated per-phase simulated time (Table 5's input).
    pub breakdown: Breakdown,
    /// Final joint log-likelihood per token (always scored at the end).
    pub final_loglik_per_token: f64,
    /// What fault recovery did (all-zero for fault-free runs).
    pub recovery: RecoveryStats,
}

/// The CuLDA trainer: a corpus partitioned by document (or, for the
/// Section 4 comparison, by word) over per-GPU workers on one node or
/// more.
pub struct CuldaTrainer {
    /// Run configuration (`cfg.platform` is one node's box; `cfg.nodes`
    /// is the cluster width).
    pub cfg: TrainerConfig,
    part: PartitionedCorpus,
    plan: MemoryPlan,
    priors: Priors,
    /// Every node's workers, node-major: node `n` owns `n·G..(n+1)·G`.
    workers: Vec<GpuWorker>,
    gpus_per_node: usize,
    ps: ParameterServer,
    peer_link: Link,
    host_link: Link,
    history: RunHistory,
    breakdown: Breakdown,
    profile: ProfileLog,
    iteration: u32,
    trace: Option<Arc<TraceSink>>,
    metrics: Option<Arc<MetricsRegistry>>,
    faults: Option<Arc<FaultPlan>>,
    recovery: RecoveryStats,
    sync_totals: SyncTotals,
}

impl CuldaTrainer {
    /// Prepares a training run: plans `M`, partitions and sorts the corpus,
    /// initializes random assignments, builds the initial model, and deals
    /// the chunks round-robin over the `nodes × G` workers (Algorithm 1,
    /// lines 7–9, untimed). A degenerate configuration comes back as
    /// [`CuldaError::Config`], and a corpus whose model and chunks fit
    /// device memory at no `M` as [`CuldaError::Invalid`]: the plan is the
    /// one place device capacity is checked.
    pub fn try_new(corpus: &Corpus, cfg: TrainerConfig) -> Result<Self, CuldaError> {
        Self::try_with_policy(corpus, cfg, PartitionPolicy::Document)
    }

    /// [`Self::try_new`] in `policy`'s chunk layout (what
    /// [`crate::build_trainer`] calls).
    pub(crate) fn try_with_policy(
        corpus: &Corpus,
        cfg: TrainerConfig,
        policy: PartitionPolicy,
    ) -> Result<Self, CuldaError> {
        let (part, plan) = Self::plan_layout(corpus, &cfg, policy)?;
        // Random init per chunk; chunk id in the seed keeps streams apart.
        let states = part
            .chunks
            .iter()
            .enumerate()
            .map(|(i, ch)| ChunkState::init_random(ch, cfg.num_topics, cfg.seed ^ (i as u64) << 32))
            .collect();
        // Setup is not timed (the paper's metric is per iteration), so the
        // build's sum is not booked.
        Ok(Self::build(cfg, part, plan, states).0)
    }

    /// Validates `cfg` and plans `policy`'s chunk layout of `corpus`: the
    /// half of a build that needs no assignments. Partition-by-word runs on
    /// one node: `cfg.nodes > 1` is [`CuldaError::Invalid`], and so is a
    /// layout that needs more word ranges than the vocabulary has words.
    pub(crate) fn plan_layout(
        corpus: &Corpus,
        cfg: &TrainerConfig,
        policy: PartitionPolicy,
    ) -> Result<(PartitionedCorpus, MemoryPlan), CuldaError> {
        cfg.validate()?;
        if policy == PartitionPolicy::Word && cfg.nodes > 1 {
            return Err(CuldaError::Invalid(format!(
                "multi-node training requires --policy doc (got {} nodes with --policy word)",
                cfg.nodes
            )));
        }
        // The chunk plan comes from the *per-node* platform: C = M × G for
        // any node count, which keeps an N-node run bit-identical to one.
        plan_partition(corpus, cfg, policy)
    }

    /// Builds from a checkpointed state, the back end of [`crate::resume`]:
    /// `states` holds each chunk's checkpointed assignments, in global
    /// chunk order, and `iteration` the iterations they had run. Timing
    /// state (clocks, history, breakdown) starts from zero; the *chain*
    /// continues bit-identically because the RNG streams are keyed by
    /// `(seed, iteration, token)`.
    pub(crate) fn resume(
        cfg: TrainerConfig,
        part: PartitionedCorpus,
        plan: MemoryPlan,
        states: Vec<ChunkState>,
        iteration: u32,
    ) -> Self {
        let (mut trainer, (nodes, inter)) = Self::build(cfg, part, plan, states);
        // Unlike a fresh build's untimed setup, the resume's sum replaces
        // an iteration-time sync the original run performed — book it as
        // the step would, so resumed runs profile identically to fresh
        // ones. Under partition-by-word that sync is the θ one.
        match trainer.part.policy {
            PartitionPolicy::Document => trainer.book_phi_sync(&nodes, inter.as_ref()),
            PartitionPolicy::Word => {
                let theta = trainer.theta_sync_report(trainer.num_alive());
                trainer.breakdown.add(Phase::SyncPhi, theta.total_seconds());
                trainer.sync_totals.absorb(&theta);
            }
        }
        trainer.iteration = iteration;
        trainer
    }

    /// The one build body, from `states` (one per chunk of `part`, in
    /// global chunk order) whichever their source. Creates the `nodes × G`
    /// devices and their links, deals the chunks round-robin over them,
    /// and derives ϕ from z as a step leaves it: each chunk into its
    /// owner's write replica, the step's sum over the nodes
    /// ([`Self::sum_write_replicas`]), and each write replica copied into
    /// its read replica. Returns the sum's reports, unbooked. What fits
    /// was decided by the plan; the initial transfers are not charged,
    /// because setup is not timed and Table 5 is iteration-only.
    fn build(
        cfg: TrainerConfig,
        part: PartitionedCorpus,
        plan: MemoryPlan,
        states: Vec<ChunkState>,
    ) -> (Self, NodeSums) {
        let gpus_per_node = cfg.platform.num_gpus;
        // N boxes of the same platform: one flat list of devices with
        // globally unique ids 0..N·G, all on the platform's PCIe links.
        let g = gpus_per_node * cfg.nodes;
        let devices: Vec<Device> = (0..g)
            .map(|i| {
                let device = Device::new(i, cfg.platform.gpu.clone());
                match cfg.host_workers {
                    Some(n) => device.with_workers(n),
                    None => device,
                }
            })
            .collect();
        let host_link = Link {
            bandwidth_gbps: cfg.platform.pcie_gbps,
            latency_us: cfg.platform.pcie_latency_us,
        };
        let peer_link = cfg.peer_link.unwrap_or(host_link);
        let priors = Priors::paper(cfg.num_topics);

        // Block maps sized to saturate the device (≥ 2 blocks per SM).
        let min_blocks = 2 * cfg.platform.gpu.sm_count as usize;
        let block_maps: Vec<Vec<BlockWork>> = part
            .chunks
            .iter()
            .map(|ch| {
                if ch.num_tokens() == 0 {
                    // A chunk of only-empty documents has nothing to sample
                    // (possible when a corpus ends in empty docs).
                    return Vec::new();
                }
                let tpb = cfg
                    .tokens_per_block
                    .unwrap_or_else(|| auto_tokens_per_block(ch.num_tokens(), min_blocks));
                build_block_map(ch, tpb)
            })
            .collect();

        // Hand each device its worker and its two ϕ buffers (read snapshot
        // + write accumulator), and distribute the chunks round-robin
        // (worker `w` of the N·G owns global chunks `w, w+N·G, …`, so at
        // M = 1 the nodes past the first own none).
        let mk_phi = || PhiModel::zeros(cfg.num_topics, part.vocab_size, priors);
        let mut workers: Vec<GpuWorker> = devices
            .into_iter()
            .map(|device| GpuWorker::new(device, mk_phi(), mk_phi()))
            .collect();
        for (i, (state, map)) in states.into_iter().zip(block_maps).enumerate() {
            workers[chunk_owner(i, g)].push_chunk(i, state, map);
        }
        // Each worker writes its chunks' blocks into its own write replica
        // through the ϕ-update kernel's block body, one host thread each.
        run_workers(&mut workers, |_, w| {
            let mut counter = TopicCounter::new(cfg.num_topics);
            let mut cells = Vec::new();
            let chunks = w.chunk_ids.iter().zip(&w.states).zip(&w.block_maps);
            for ((&gi, state), map) in chunks {
                for work in map {
                    let (chunk, phi) = (&part.chunks[gi], w.write_replica());
                    add_block_to_phi(chunk, &state.z, work, phi, &mut counter, &mut cells);
                }
            }
        });
        let ps = ParameterServer::new(Link::node_100gbit());

        let mut trainer = Self {
            cfg,
            part,
            plan,
            priors,
            workers,
            gpus_per_node,
            ps,
            peer_link,
            host_link,
            history: RunHistory::new(),
            breakdown: Breakdown::new(),
            profile: ProfileLog::new(),
            iteration: 0,
            trace: None,
            metrics: None,
            faults: None,
            recovery: RecoveryStats::default(),
            sync_totals: SyncTotals::default(),
        };
        let sums = trainer.sum_write_replicas();
        for w in &trainer.workers {
            w.read_replica().copy_from(w.write_replica());
        }
        (trainer, sums)
    }

    /// Arms fault injection: every worker device consults `plan` on its
    /// fallible launch/transfer paths, and [`Self::try_step`] recovers
    /// from whatever fires (retry with backoff; chunk migration on a
    /// permanent loss). Without a plan attached, stepping never snapshots
    /// state and is byte-for-byte the fault-free trainer.
    pub fn attach_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        for w in &self.workers {
            w.device.attach_faults(plan.clone());
        }
        self.faults = Some(plan);
    }

    /// Run-level intra-node sync traffic and timing totals, summed over
    /// every node (bytes moved at their encoded size, dense-baseline
    /// bytes, payload nonzeros, seconds): the ϕ sync under
    /// partition-by-document, the θ sync under partition-by-word.
    pub fn sync_totals(&self) -> SyncTotals {
        self.sync_totals
    }

    /// [`Self::sync_totals`] under the name the multi-node callers use.
    pub fn intra_sync_totals(&self) -> SyncTotals {
        self.sync_totals
    }

    /// The parameter server (inter-node link and traffic totals; all zero
    /// while at most one node is alive).
    pub fn parameter_server(&self) -> &ParameterServer {
        &self.ps
    }

    /// What fault recovery has done so far in this run.
    pub fn recovery(&self) -> RecoveryStats {
        let mut r = self.recovery;
        if let Some(p) = &self.faults {
            r.faults_injected = p.injected();
        }
        r
    }

    /// Number of workers still alive (== GPU count until a permanent
    /// fault exhausts some worker's retry budget).
    pub fn num_alive(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }

    /// Number of nodes (`cfg.nodes`).
    fn num_nodes(&self) -> usize {
        self.workers.len() / self.gpus_per_node
    }

    /// Nodes still taking part in supersteps: a node is alive while any of
    /// its workers is.
    pub fn num_alive_nodes(&self) -> usize {
        self.workers
            .chunks(self.gpus_per_node)
            .filter(|node| node.iter().any(|w| w.alive))
            .count()
    }

    /// Attaches observability sinks to the trainer and all worker devices:
    /// every kernel launch then emits a trace span and records metrics,
    /// iteration bodies get host-side spans, and the ϕ sync is drawn on its
    /// own track with flow events from/to the participating devices. Pass
    /// `None` to leave a domain unobserved. Tracing never perturbs RNG
    /// streams, execution order, or the simulated clocks.
    pub fn attach_observability(
        &mut self,
        trace: Option<Arc<TraceSink>>,
        metrics: Option<Arc<MetricsRegistry>>,
    ) {
        for w in &self.workers {
            if let Some(t) = &trace {
                w.device.attach_trace(t.clone());
            }
            if let Some(m) = &metrics {
                w.device.attach_metrics(m.clone());
            }
        }
        self.trace = trace;
        self.metrics = metrics;
    }

    /// The chosen memory plan (`M`, `C`, byte budgets — per node).
    pub fn plan(&self) -> &MemoryPlan {
        &self.plan
    }

    /// The Section 4 partition policy whose chunk layout this run uses.
    pub fn policy(&self) -> PartitionPolicy {
        self.part.policy
    }

    /// Number of GPU workers, over every node.
    pub fn num_gpus(&self) -> usize {
        self.workers.len()
    }

    /// The per-GPU workers, node-major (read access for tests and
    /// examples).
    pub fn workers(&self) -> &[GpuWorker] {
        &self.workers
    }

    /// Per-chunk assignment state in **global chunk order**, reassembled
    /// from the owning workers.
    pub fn states(&self) -> Vec<&ChunkState> {
        let mut out: Vec<Option<&ChunkState>> = vec![None; self.part.num_chunks()];
        for w in &self.workers {
            for (local, &gi) in w.chunk_ids.iter().enumerate() {
                out[gi] = Some(&w.states[local]);
            }
        }
        out.into_iter()
            .map(|s| s.expect("every chunk has an owner"))
            .collect()
    }

    /// The current global ϕ snapshot. Every *alive* read replica holds it:
    /// dead workers drop out of the sync, and a multi-node step applies the
    /// merged payload to every alive replica.
    pub fn global_phi(&self) -> &PhiModel {
        self.workers
            .iter()
            .find(|w| w.alive)
            .expect("at least one worker is alive")
            .read_replica()
    }

    /// Timing/scoring history so far.
    pub fn history(&self) -> &RunHistory {
        &self.history
    }

    /// Accumulated phase breakdown so far (system view: all GPUs summed).
    pub fn breakdown(&self) -> &Breakdown {
        &self.breakdown
    }

    /// Per-GPU phase attribution: each worker's own kernel and transfer
    /// time. The ϕ sync is a shared phase and appears only in the system
    /// [`Self::breakdown`].
    pub fn per_gpu_breakdowns(&self) -> GpuBreakdowns {
        GpuBreakdowns::new(self.workers.iter().map(|w| w.breakdown.clone()).collect())
    }

    /// Per-kernel launch log (an `nvprof`-style profile of the run),
    /// merged from the per-device logs in device order each iteration.
    pub fn profile(&self) -> &ProfileLog {
        &self.profile
    }

    /// Iterations completed so far.
    pub fn iterations_done(&self) -> u32 {
        self.iteration
    }

    /// Latest clock among the *alive* workers' devices (current system
    /// time; a dead device's clock is frozen at its point of loss).
    fn system_time(&self) -> f64 {
        self.workers
            .iter()
            .filter(|w| w.alive)
            .map(|w| w.device.now())
            .fold(0.0f64, f64::max)
    }

    /// Barrier: every alive device's clock advances to the latest (the
    /// per-iteration join of Algorithm 1).
    fn barrier(&self) -> f64 {
        let t = self.system_time();
        for w in self.workers.iter().filter(|w| w.alive) {
            w.device.advance_to(t);
        }
        t
    }

    /// Runs one full iteration over the corpus, with fault recovery, and
    /// returns its stats.
    ///
    /// Execution shape (Figure 3b): every worker runs its iteration body
    /// on its own host thread; the host joins them, starts the ϕ sync at
    /// `max(ϕ_done)` (it overlaps the already-executed θ updates), and
    /// swaps each worker's replica pair.
    ///
    /// Each worker is its own failure domain, on any node. A worker whose
    /// iteration body hits an injected fault restores its pre-iteration
    /// (z, θ) snapshot and retries after exponential backoff, up to
    /// [`MAX_ATTEMPTS`](crate::worker::MAX_ATTEMPTS) tries
    /// ([`GpuWorker::retrying`]); the body is idempotent against the read
    /// ϕ snapshot, so a successful retry is bit-identical to a fault-free
    /// run. A worker that exhausts its budget is declared lost: its chunks
    /// migrate round-robin to the survivors, which re-run the migrated
    /// bodies against the same snapshot (commutative ϕ adds keep the
    /// summed model bit-identical), and the sync continues over the
    /// survivors. Errors surface only when
    /// recovery is impossible: [`CuldaError::AllWorkersLost`], a fault
    /// during the rebalance itself, or a worker panic (a bug, not a fault).
    pub fn try_step(&mut self) -> Result<IterationStat, CuldaError> {
        self.try_step_impl(true)
    }

    /// [`Self::try_step`] with every worker's iteration body run on the
    /// calling thread, one after another — the pre-worker-layer execution
    /// shape. Simulated time and results are identical to `try_step`'s;
    /// only host wall-clock differs. Exists for the sequential-vs-concurrent
    /// benchmark and regression tests, and panics on an unrecoverable
    /// fault.
    pub fn step_sequential(&mut self) -> IterationStat {
        self.try_step_impl(false)
            .unwrap_or_else(|e| panic!("unrecoverable training fault: {e}"))
    }

    fn try_step_impl(&mut self, concurrent: bool) -> Result<IterationStat, CuldaError> {
        let wall_start = std::time::Instant::now();
        let t0 = self.system_time();
        let out_of_core = self.plan.m > 1;
        let iteration = self.iteration;
        // Fault coordinates are (device, epoch); the trainer's epoch is
        // the iteration number.
        for w in &self.workers {
            w.device.set_epoch(iteration);
        }
        // Partition-by-word: a chunk's θ counts only its word range, so every
        // chunk samples against a copy of the summed, whole-document θ. The
        // θ update then leaves each chunk its own recount again.
        if self.part.policy == PartitionPolicy::Word {
            let theta = self.global_theta();
            for w in self.workers.iter_mut().filter(|w| w.alive) {
                for state in &mut w.states {
                    state.theta = theta.clone();
                }
            }
        }
        // Resolve this iteration's p* fill path before the fan-out: every
        // worker must model the same choice, and auto reads the previous
        // iteration's global snapshot (any alive read replica — they are
        // identical), so the decision is deterministic across GPU counts,
        // node counts and chunk layouts. Either path computes
        // bit-identical samples.
        let sparse = match self.cfg.sampling_mode {
            SamplingMode::Dense => false,
            SamplingMode::Sparse => true,
            SamplingMode::Auto => {
                choose_sparse_sampling(&self.global_phi().phi, self.cfg.phi_elem_bytes() as usize)
            }
        };
        let part = &self.part;
        let cfg = &self.cfg;
        let host_link = self.host_link;
        let faulty = self.faults.is_some();
        let trace = self.trace.as_deref();
        let metrics = self.metrics.as_deref();

        // One worker's failure domain: the iteration body plus its retry
        // loop, run on the worker's own host thread. Returns the body's
        // report, retries performed, and simulated recovery seconds.
        let run = |w: &mut GpuWorker| {
            w.try_run_iteration(part, cfg, out_of_core, iteration, &host_link, sparse)
        };
        let body =
            |i: usize, w: &mut GpuWorker| -> Result<(IterationReport, u32, f64), CuldaError> {
                if !w.alive {
                    return Ok((IterationReport::default(), 0, 0.0));
                }
                if !faulty {
                    // Fault-free fast path: no snapshot, no recovery state.
                    return Ok((run(w)?, 0, 0.0));
                }
                let snap = w.snapshot_states();
                w.retrying(trace, metrics, |w| {
                    run(w).inspect_err(|_| w.restore_states(&snap))
                })
                .map_err(|attempts| CuldaError::WorkerLost {
                    device: i,
                    attempts,
                })
            };
        // A panicking body (a bug, not an injected fault) is caught at the
        // fan-out boundary so the other workers' results survive.
        let guarded = |i: usize, w: &mut GpuWorker| {
            catch_unwind(AssertUnwindSafe(|| body(i, w)))
                .unwrap_or(Err(CuldaError::WorkerPanicked { device: i }))
        };

        // One fan-out over every worker of every node — each runs its full
        // iteration body concurrently.
        let results = if concurrent {
            run_workers_traced(
                &mut self.workers,
                self.trace.as_deref(),
                &format!("iter {iteration}"),
                guarded,
            )
        } else {
            self.workers
                .iter_mut()
                .enumerate()
                .map(|(i, w)| guarded(i, w))
                .collect()
        };

        // Sort the joined results into reports and lost workers. Anything
        // other than a retry-exhausted loss is fatal.
        let mut reports: Vec<IterationReport> = Vec::with_capacity(results.len());
        let mut lost: Vec<usize> = Vec::new();
        for (i, res) in results.into_iter().enumerate() {
            match res {
                Ok((r, retries, rec_s)) => {
                    self.recovery.retries += u64::from(retries);
                    self.breakdown.add(Phase::Recovery, rec_s);
                    reports.push(r);
                }
                Err(CuldaError::WorkerLost { attempts, .. }) => {
                    self.recovery.retries += u64::from(attempts - 1);
                    self.recovery.workers_lost += 1;
                    self.workers[i].alive = false;
                    lost.push(i);
                    reports.push(IterationReport::default());
                }
                Err(e) => return Err(e),
            }
        }

        // Merge per-worker accounts in device order (deterministic).
        for (w, r) in self.workers.iter_mut().zip(&reports) {
            self.breakdown.add(Phase::Sampling, r.sampling_seconds);
            self.breakdown.add(Phase::UpdatePhi, r.phi_seconds);
            self.breakdown.add(Phase::UpdateTheta, r.theta_seconds);
            if out_of_core {
                self.breakdown
                    .add(Phase::Transfer, r.exposed_transfer_seconds);
            }
            self.profile.merge(&w.device.take_profile());
        }

        // Surface the staging pipeline: per-chunk copy/kernel spans with
        // flow arrows (the visible prefetch overlap) and the fraction of
        // copy time this iteration's pipelines hid under compute.
        if out_of_core {
            if let Some(sink) = &self.trace {
                for (w, r) in self.workers.iter().zip(&reports).filter(|(w, _)| w.alive) {
                    trace_staging(
                        sink,
                        w.device.id as u32,
                        iteration,
                        &w.staged_chunk_ids(),
                        r,
                    );
                }
            }
            if let Some(reg) = &self.metrics {
                let total: f64 = reports.iter().map(|r| r.transfer_seconds_total).sum();
                let hidden: f64 = reports
                    .iter()
                    .map(|r| r.transfer_seconds_total * r.overlap_fraction)
                    .sum();
                reg.gauge("oocore.overlap_fraction").set(if total > 0.0 {
                    hidden / total
                } else {
                    0.0
                });
            }
        }

        // Permanent losses: migrate the dead workers' chunks to the
        // survivors and re-run their bodies before the sync.
        if !lost.is_empty() {
            self.rebalance(&lost, iteration, sparse)?;
            // Rebalance kernels left launch records behind.
            for w in self.workers.iter_mut().filter(|w| w.alive) {
                self.profile.merge(&w.device.take_profile());
            }
        }

        let delta_density = match self.part.policy {
            PartitionPolicy::Document => {
                self.sync_phi_nodes(&reports, !lost.is_empty(), t0, iteration)
            }
            PartitionPolicy::Word => {
                self.sync_theta(t0, iteration);
                None
            }
        };
        if let Some(reg) = &self.metrics {
            // Sampling-path gauges: which p* fill ran, and the ϕ occupancy
            // that drives the auto decision (census of the freshly-summed
            // global model held by the write replicas at this point).
            reg.gauge("sampling.sparse")
                .set(if sparse { 1.0 } else { 0.0 });
            let global = self
                .workers
                .iter()
                .find(|w| w.alive)
                .expect("at least one worker is alive")
                .write_replica();
            let (dense_rows, sparse_rows, nnz) = global.phi.format_census();
            reg.gauge("phi.rows.dense").set(dense_rows as f64);
            reg.gauge("phi.rows.sparse").set(sparse_rows as f64);
            reg.gauge("phi.nnz_per_row")
                .set(nnz as f64 / self.part.vocab_size as f64);
        }
        let t_end = self.barrier();

        // The freshly-summed write replicas become next iteration's read
        // snapshots.
        for w in self.workers.iter_mut().filter(|w| w.alive) {
            w.swap_replicas();
        }

        self.iteration += 1;
        let scored =
            self.cfg.score_every > 0 && self.iteration.is_multiple_of(self.cfg.score_every);
        let stat = IterationStat {
            iteration: self.iteration - 1,
            tokens: self.part.num_tokens,
            sim_seconds: t_end - t0,
            wall_seconds: wall_start.elapsed().as_secs_f64(),
            loglik_per_token: scored.then(|| self.loglik_per_token()),
            delta_density,
            sampling_sparse: Some(sparse),
        };
        self.history.push(stat);
        Ok(stat)
    }

    /// Sums the alive write replicas into every one of them, the host half
    /// of every sync whatever its mode charges: the step's ϕ sync, the
    /// build's and partition-by-word's data-only sum. Every alive
    /// write replica is captured, one host thread each, unless it is the
    /// only one alive. Each alive node's payloads merge up its own tree
    /// ([`merge_node`]); with more than one node alive, the node payloads
    /// merge up the parameter server's tree. The global payload is then
    /// stored into every alive write replica, one host thread each, and
    /// not at all when only one is alive. Returns each alive node's index
    /// with the report the configured mode charges for it, and the
    /// parameter server's report.
    fn sum_write_replicas(&mut self) -> NodeSums {
        let reduce_nodes = self.num_alive_nodes() > 1;
        let gpu = &self.cfg.platform.gpu;
        let alive: Vec<&PhiModel> = self
            .workers
            .iter()
            .filter(|w| w.alive)
            .map(|w| w.write_replica())
            .collect();
        let mut captured = if alive.len() > 1 {
            capture_each(&alive)
        } else {
            Vec::new()
        }
        .into_iter();
        let mut nodes = Vec::new();
        let mut payloads = Vec::new();
        for (node, workers) in self.workers.chunks(self.gpus_per_node).enumerate() {
            let replicas: Vec<&PhiModel> = workers
                .iter()
                .filter(|w| w.alive)
                .map(|w| w.write_replica())
                .collect();
            if replicas.is_empty() {
                continue;
            }
            let (payload, sync) = merge_node(
                self.cfg.sync_mode,
                &replicas,
                captured.by_ref().take(replicas.len()).collect(),
                gpu,
                &self.peer_link,
                &self.cfg,
            );
            nodes.push((node, sync));
            payloads.extend(payload);
        }
        let (global, inter) = if reduce_nodes {
            let (global, inter) = reduce_payloads(
                payloads,
                self.cfg.num_topics,
                self.part.vocab_size,
                gpu,
                &self.ps.link(),
                self.cfg.phi_elem_bytes(),
            );
            (Some(global), Some(inter))
        } else {
            (payloads.pop(), None)
        };
        if let Some(global) = global {
            store_each(&global, &alive);
        }
        (nodes, inter)
    }

    /// Books one ϕ sync: each node's report, then the parameter server's,
    /// into the phase breakdown, the node reports into the sync totals and
    /// the parameter server's into its own.
    fn book_phi_sync(&mut self, nodes: &[(usize, SyncReport)], inter: Option<&SyncReport>) {
        for (_, sync) in nodes {
            self.breakdown.add(Phase::SyncPhi, sync.total_seconds());
            self.sync_totals.absorb(sync);
        }
        if let Some(inter) = inter {
            self.breakdown.add(Phase::SyncPhi, inter.total_seconds());
            self.ps.absorb(inter);
        }
    }

    /// Partition-by-document's sync ([`Self::sum_write_replicas`]), booked
    /// and drawn on the modelled clock. `rebalanced` says migrated chunks
    /// ran this iteration. Returns the Δϕ density of the shipped payload,
    /// if any.
    fn sync_phi_nodes(
        &mut self,
        reports: &[IterationReport],
        rebalanced: bool,
        t0: f64,
        iteration: u32,
    ) -> Option<f64> {
        let (nodes, inter) = self.sum_write_replicas();
        self.book_phi_sync(&nodes, inter.as_ref());
        // A node's sync starts once all its GPUs finished their ϕ updates
        // and overlaps the (already-executed) θ updates. After a rebalance
        // the migrated ϕ lands last, so the sync waits for everything on
        // the node.
        let g = self.gpus_per_node;
        let multi_node = self.num_nodes() > 1;
        let phi_cells = (self.part.vocab_size * self.cfg.num_topics) as f64;
        let mut node_ends: Vec<(usize, f64)> = Vec::new();
        let mut delta_density = None;
        for &(node, sync) in &nodes {
            let node_workers = &self.workers[node * g..(node + 1) * g];
            let node_reports = &reports[node * g..(node + 1) * g];
            let alive: Vec<&GpuWorker> = node_workers.iter().filter(|w| w.alive).collect();
            let sync_start = if !rebalanced {
                node_reports
                    .iter()
                    .map(|r| r.phi_done_at)
                    .fold(t0, f64::max)
            } else {
                alive.iter().map(|w| w.device.now()).fold(0.0f64, f64::max)
            };
            // Δϕ nonzero density of the shipped payload — only meaningful
            // when a sparse payload actually shipped.
            delta_density = (sync.mode == SyncMode::Delta && alive.len() > 1)
                .then(|| sync.nnz as f64 / phi_cells);
            let sync_end = sync_start + sync.total_seconds();

            // Draw the sync on its own track. It overlaps the θ-update
            // kernels (sync_start = max(ϕ_done) can precede a device's last
            // θ span), so it cannot sit on a device track without breaking
            // B/E nesting. Each node of a cluster gets a track of its own.
            if let Some(sink) = &self.trace {
                if multi_node {
                    sink.span_sim(
                        NODE_TID_BASE + node as u32,
                        &format!("node_sync iter {iteration}"),
                        "sync",
                        sync_start,
                        sync_end,
                        vec![
                            ("node".into(), Json::from(node)),
                            ("mode".into(), Json::Str(sync.mode.to_string())),
                            ("bytes".into(), Json::from(sync.bytes_moved)),
                        ],
                    );
                } else if alive.len() > 1 {
                    // Each device's ϕ is ready when its ϕ update ends.
                    let ready: Vec<(u32, f64)> = node_workers
                        .iter()
                        .zip(node_reports)
                        .filter(|(w, _)| w.alive)
                        .map(|(w, r)| (w.device.id as u32, r.phi_done_at))
                        .collect();
                    trace_sync(sink, "phi", iteration, &ready, &sync, sync_start);
                }
            }
            if let Some(reg) = &self.metrics {
                record_sync(reg, &sync);
                if let Some(d) = delta_density {
                    reg.gauge("sync.density").set(d);
                }
            }
            for w in &alive {
                w.device.advance_to(sync_end);
            }
            node_ends.push((node, sync_end));
        }

        // Inter-node superstep: the node sums met at the parameter server
        // over the node link, and the merged global payload went back to
        // every replica.
        if let Some(inter) = inter {
            let inter_start = node_ends.iter().map(|&(_, t)| t).fold(t0, f64::max);
            delta_density = Some(inter.nnz as f64 / phi_cells);
            let inter_end = inter_start + inter.total_seconds();
            if let Some(sink) = &self.trace {
                for &(node, ready) in &node_ends {
                    let id = sink.new_flow_id();
                    let track = NODE_TID_BASE + node as u32;
                    sink.flow_start(SIM_PID, track, "node_reduce", ready, id);
                    sink.flow_finish(SIM_PID, SYNC_TID, "node_reduce", inter_start, id);
                }
                sink.span_sim(
                    SYNC_TID,
                    &format!("cluster_sync iter {iteration}"),
                    "sync",
                    inter_start,
                    inter_end,
                    vec![
                        ("nodes".into(), Json::from(node_ends.len())),
                        ("bytes".into(), Json::from(inter.bytes_moved)),
                        ("nnz".into(), Json::from(inter.nnz)),
                        ("rounds".into(), Json::from(inter.rounds)),
                    ],
                );
                for &(node, _) in &node_ends {
                    let id = sink.new_flow_id();
                    let track = NODE_TID_BASE + node as u32;
                    sink.flow_start(SIM_PID, SYNC_TID, "node_broadcast", inter_end, id);
                    sink.flow_finish(SIM_PID, track, "node_broadcast", inter_end, id);
                }
            }
            if let Some(reg) = &self.metrics {
                reg.counter("cluster.sync.bytes").add(inter.bytes_moved);
                reg.counter("cluster.sync.nnz").add(inter.nnz);
                reg.gauge("cluster.sync.compression_ratio")
                    .set(inter.compression_ratio());
                reg.histogram("cluster.sync.seconds")
                    .record(inter.total_seconds());
                reg.gauge("cluster.nodes_alive").set(node_ends.len() as f64);
            }
            for w in self.workers.iter().filter(|w| w.alive) {
                w.device.advance_to(inter_end);
            }
        }
        delta_density
    }

    /// Partition-by-word's sync. Every write replica holds its chunks'
    /// private ϕ rows plus a partial `n_k`; summing them into every replica
    /// ([`Self::sum_write_replicas`]) is data only and leaves each the
    /// whole model. What the step pays is the θ (+ `n_k`) reduce/broadcast
    /// ([`Self::theta_sync_report`]), which starts once the last θ update
    /// has ended.
    fn sync_theta(&mut self, t0: f64, iteration: u32) {
        let _ = self.sum_write_replicas();
        let alive: Vec<&GpuWorker> = self.workers.iter().filter(|w| w.alive).collect();
        let sync = self.theta_sync_report(alive.len());
        // Each device's θ is ready when its θ update ends.
        let ready: Vec<(u32, f64)> = alive
            .iter()
            .map(|w| (w.device.id as u32, w.device.now()))
            .collect();
        let sync_start = ready.iter().map(|&(_, at)| at).fold(t0, f64::max);
        let sync_end = sync_start + sync.total_seconds();
        if let Some(sink) = &self.trace {
            if alive.len() > 1 {
                trace_sync(sink, "theta", iteration, &ready, &sync, sync_start);
            }
        }
        if let Some(reg) = &self.metrics {
            record_sync(reg, &sync);
        }
        for w in &alive {
            w.device.advance_to(sync_end);
        }
        self.breakdown.add(Phase::SyncPhi, sync.total_seconds());
        self.sync_totals.absorb(&sync);
    }

    /// What partition-by-word's sync over `g` GPUs moves and costs: one θ
    /// replica (6 B per nonzero plus row pointers) and the `n_k` vector,
    /// up and down the Figure 4 tree.
    fn theta_sync_report(&self, g: usize) -> SyncReport {
        let k = self.cfg.num_topics as u64;
        let bytes =
            self.global_theta().nnz() as u64 * 6 + (self.part.num_docs as u64 + 1) * 8 + k * 4;
        theta_sync_report(g, bytes, &self.cfg.platform.gpu, &self.peer_link)
    }

    /// Partition-by-word's whole-document θ: each document's rows summed
    /// over the chunks, every one of which holds only its word range's
    /// counts.
    fn global_theta(&self) -> CsrMatrix {
        let (docs, k) = (self.part.num_docs, self.cfg.num_topics);
        let states = self.states();
        let mut dense = vec![0u32; k];
        let (mut row_ptr, mut cols, mut vals) = (vec![0], Vec::new(), Vec::new());
        for d in 0..docs {
            for state in &states {
                let (c, v) = state.theta.row(d);
                for (&topic, &count) in c.iter().zip(v) {
                    dense[topic as usize] += count;
                }
            }
            for (topic, count) in dense.iter_mut().enumerate().filter(|(_, c)| **c > 0) {
                cols.push(topic as u16);
                vals.push(std::mem::take(count));
            }
            row_ptr.push(cols.len());
        }
        CsrMatrix::from_parts(docs, k, row_ptr, cols, vals)
    }

    /// Drains every chunk of the `lost` workers and deals them round-robin
    /// (ascending global chunk id — deterministic) to the alive workers,
    /// charging each migration as one chunk-state transfer over the host
    /// link to the receiving device, whichever node it leaves. Returns,
    /// per worker, the local slots it received. Migration is not
    /// fault-tolerant: a drop fault armed on the receiving device loses the
    /// chunk and aborts training.
    fn migrate_chunks(&mut self, lost: &[usize]) -> Result<Vec<Vec<usize>>, CuldaError> {
        let survivors: Vec<usize> = (0..self.workers.len())
            .filter(|&i| self.workers[i].alive)
            .collect();
        if survivors.is_empty() {
            return Err(CuldaError::AllWorkersLost);
        }
        let mut migrated: Vec<(usize, ChunkState, Vec<BlockWork>)> = Vec::new();
        for &li in lost {
            migrated.extend(self.workers[li].drain_chunks());
        }
        migrated.sort_by_key(|&(gi, ..)| gi);

        let mut added: Vec<Vec<usize>> = vec![Vec::new(); self.workers.len()];
        for (n, (gi, state, map)) in migrated.into_iter().enumerate() {
            let target = survivors[n % survivors.len()];
            let bytes = chunk_state_bytes(&self.part, gi, self.cfg.num_topics);
            let w = &mut self.workers[target];
            let secs = w.device.try_transfer(bytes, &self.host_link)?;
            w.breakdown.add(Phase::Recovery, secs);
            self.breakdown.add(Phase::Recovery, secs);
            added[target].push(w.num_chunks());
            w.push_chunk(gi, state, map);
            self.recovery.chunks_migrated += 1;
        }
        Ok(added)
    }

    /// Migrates every chunk of the just-lost workers to the survivors over
    /// the host link and re-runs the migrated iteration bodies there
    /// against the same read ϕ snapshot. The write replicas were already
    /// cleared and partially filled by the survivors' own bodies; the
    /// migrated ϕ contributions are commutative atomic adds on top, so the
    /// post-sync global ϕ is bit-identical to the fault-free run. Recovery
    /// itself is not fault-tolerant: a fault firing during the re-run is
    /// fatal.
    fn rebalance(
        &mut self,
        lost: &[usize],
        iteration: u32,
        sparse: bool,
    ) -> Result<(), CuldaError> {
        let added = self.migrate_chunks(lost)?;
        for (wi, locals) in added.iter().enumerate() {
            if locals.is_empty() {
                continue;
            }
            let start = self.workers[wi].device.now();
            let r = self.workers[wi]
                .try_run_chunks(locals, &self.part, &self.cfg, iteration, sparse)?;
            let spent = r.sampling_seconds + r.phi_seconds + r.theta_seconds;
            self.workers[wi].breakdown.add(Phase::Recovery, spent);
            self.breakdown.add(Phase::Recovery, spent);
            if let Some(sink) = &self.trace {
                sink.span_sim(
                    self.workers[wi].device.id as u32,
                    "rebalance",
                    "recovery",
                    start,
                    self.workers[wi].device.now(),
                    vec![
                        ("chunks".into(), Json::from(locals.len())),
                        ("iteration".into(), Json::from(iteration as usize)),
                    ],
                );
            }
            if let Some(reg) = &self.metrics {
                reg.counter("rebalance").inc();
            }
        }
        Ok(())
    }

    /// Trains for the configured number of iterations through
    /// [`Self::try_step`]: recovered faults show up in the outcome's
    /// [`RecoveryStats`]; unrecoverable ones surface as [`CuldaError`].
    pub fn try_train(mut self) -> Result<TrainOutcome, CuldaError> {
        for _ in 0..self.cfg.iterations {
            self.try_step()?;
        }
        let final_ll = self.loglik_per_token();
        let recovery = self.recovery();
        Ok(TrainOutcome {
            history: self.history,
            breakdown: self.breakdown,
            final_loglik_per_token: final_ll,
            recovery,
        })
    }

    /// Joint log-likelihood per token of the current state. Accumulates
    /// in global chunk order so the value is independent of how chunks
    /// are distributed over GPUs and nodes.
    pub fn loglik_per_token(&self) -> f64 {
        let phi = self.global_phi();
        let eval = LdaLoglik::new(
            self.priors.alpha,
            self.priors.beta,
            self.cfg.num_topics,
            self.part.vocab_size,
        );
        let k = self.cfg.num_topics;
        let mut acc = 0.0;
        for t in 0..k {
            let col = (0..self.part.vocab_size).map(|v| phi.phi.load(v * k + t));
            acc += eval.topic_term(col, phi.phi_sum.load(t) as u64);
        }
        // A document's term reads its whole θ row once: one chunk's row
        // under partition-by-document, the sum over chunks under
        // partition-by-word.
        match self.part.policy {
            PartitionPolicy::Document => {
                for (ci, state) in self.states().iter().enumerate() {
                    let chunk = &self.part.chunks[ci];
                    for d in 0..chunk.num_docs {
                        let (_, vals) = state.theta.row(d);
                        acc += eval.doc_term(vals.iter().copied(), chunk.doc_len(d) as u64);
                    }
                }
            }
            PartitionPolicy::Word => {
                let theta = self.global_theta();
                for d in 0..self.part.num_docs {
                    let (_, vals) = theta.row(d);
                    acc += eval.doc_term(vals.iter().copied(), theta.row_sum(d));
                }
            }
        }
        eval.per_token(acc, self.part.num_tokens)
    }

    /// Full consistency audit (tests): every chunk's `z`/θ agree, and the
    /// global ϕ equals the sum over chunks.
    pub fn check_invariants(&self) {
        let fresh = PhiModel::zeros(self.cfg.num_topics, self.part.vocab_size, self.priors);
        for (ci, state) in self.states().iter().enumerate() {
            culda_sampler::validate::check_chunk_consistency(&self.part.chunks[ci], state, None);
            culda_sampler::accumulate_phi_host(&self.part.chunks[ci], &state.z, &fresh);
        }
        let global = self.global_phi();
        for i in 0..global.phi.len() {
            assert_eq!(global.phi.load(i), fresh.phi.load(i), "phi[{i}] mismatch");
        }
        for t in 0..self.cfg.num_topics {
            assert_eq!(
                global.phi_sum.load(t),
                fresh.phi_sum.load(t),
                "phi_sum[{t}]"
            );
        }
    }
}

/// Draws a single-node sync on its own track: each device's contribution
/// flows in from the time in `ready`, the `{what}_sync iter N` span runs
/// from `start`, and the result flows back out to every device. The ϕ
/// sync overlaps the θ-update kernels, so it cannot sit on a device track
/// without breaking B/E nesting; the θ sync, which starts once the last θ
/// update has ended, shares the track so both policies draw alike.
fn trace_sync(
    sink: &TraceSink,
    what: &str,
    iteration: u32,
    ready: &[(u32, f64)],
    sync: &SyncReport,
    start: f64,
) {
    let end = start + sync.total_seconds();
    let (reduce, broadcast) = (format!("{what}_reduce"), format!("{what}_broadcast"));
    for &(track, at) in ready {
        let id = sink.new_flow_id();
        sink.flow_start(SIM_PID, track, &reduce, at, id);
        sink.flow_finish(SIM_PID, SYNC_TID, &reduce, start, id);
    }
    sink.span_sim(
        SYNC_TID,
        &format!("{what}_sync iter {iteration}"),
        "sync",
        start,
        end,
        vec![
            ("reduce_s".into(), Json::Num(sync.reduce_seconds)),
            ("broadcast_s".into(), Json::Num(sync.broadcast_seconds)),
            ("rounds".into(), Json::from(sync.rounds)),
            ("gpus".into(), Json::from(ready.len())),
            ("mode".into(), Json::Str(sync.mode.to_string())),
            ("bytes".into(), Json::from(sync.bytes_moved)),
            ("nnz".into(), Json::from(sync.nnz)),
        ],
    );
    for &(track, _) in ready {
        let id = sink.new_flow_id();
        sink.flow_start(SIM_PID, SYNC_TID, &broadcast, end, id);
        sink.flow_finish(SIM_PID, track, &broadcast, end, id);
        sink.instant_sim(track, &format!("{what}_ready"), "sync", end);
    }
}

/// Records one intra-node sync in the `sync.*` metrics.
fn record_sync(reg: &MetricsRegistry, sync: &SyncReport) {
    reg.counter("sync.rounds").add(sync.rounds as u64);
    reg.counter("sync.bytes").add(sync.bytes_moved);
    reg.counter("sync.nnz").add(sync.nnz);
    reg.gauge("sync.compression_ratio")
        .set(sync.compression_ratio());
    reg.histogram("sync.seconds").record(sync.total_seconds());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainerConfigBuilder;
    use crate::worker::run_workers;
    use culda_corpus::SynthSpec;
    use culda_gpusim::{GpuSpec, Platform};

    fn corpus() -> Corpus {
        let mut spec = SynthSpec::tiny();
        spec.num_docs = 120;
        spec.vocab_size = 300;
        spec.avg_doc_len = 30.0;
        spec.generate()
    }

    /// A corpus big enough that bandwidth, not launch overhead or PCIe
    /// latency, dominates the simulated time — needed by the tests that
    /// assert performance *shape* (the paper's corpora are ~1000× larger
    /// still, with an even higher compute-to-sync ratio).
    fn perf_corpus() -> Corpus {
        let mut spec = SynthSpec::tiny();
        spec.num_docs = 2000;
        spec.vocab_size = 2000;
        spec.avg_doc_len = 150.0;
        spec.topic_support = 300;
        spec.generate()
    }

    fn cfg(platform: Platform) -> TrainerConfigBuilder {
        TrainerConfig::builder(16, platform)
            .iterations(3)
            .score_every(1)
            .seed(42)
    }

    #[test]
    fn sequential_and_concurrent_steps_are_bit_identical() {
        // `step_sequential` is the pre-worker-layer execution shape; the
        // fan-out must change host wall-clock only — z, ϕ, loglik, and the
        // per-device simulated clocks stay bitwise equal, in either
        // partition policy's layout.
        let c = corpus();
        let run = |policy: PartitionPolicy, concurrent: bool| {
            let mut config = cfg(Platform::pascal().with_gpus(4))
                .score_every(0)
                .build()
                .unwrap();
            config.chunks_per_gpu = Some(1);
            let mut t = CuldaTrainer::try_with_policy(&c, config, policy).unwrap();
            for _ in 0..2 {
                if concurrent {
                    t.try_step().unwrap();
                } else {
                    t.step_sequential();
                }
            }
            let z: Vec<Vec<u16>> = t.states().iter().map(|s| s.z.snapshot()).collect();
            let clocks: Vec<u64> = t
                .workers()
                .iter()
                .map(|w| w.device.now().to_bits())
                .collect();
            let phi = t.global_phi().phi.snapshot();
            (z, phi, clocks, t.loglik_per_token().to_bits())
        };
        for policy in [PartitionPolicy::Document, PartitionPolicy::Word] {
            assert_eq!(run(policy, false), run(policy, true), "{policy}");
        }
    }

    #[test]
    fn single_gpu_trains_and_conserves_counts() {
        let c = corpus();
        let mut t = CuldaTrainer::try_new(&c, cfg(Platform::maxwell()).build().unwrap()).unwrap();
        assert_eq!(t.plan().m, 1);
        for _ in 0..3 {
            let stat = t.try_step().unwrap();
            assert_eq!(stat.tokens, c.num_tokens());
            assert!(stat.sim_seconds > 0.0);
            t.check_invariants();
        }
    }

    #[test]
    fn loglik_improves_over_training() {
        let c = corpus();
        let mut t = CuldaTrainer::try_new(
            &c,
            cfg(Platform::maxwell())
                .iterations(12)
                .score_every(0)
                .build()
                .unwrap(),
        )
        .unwrap();
        let before = t.loglik_per_token();
        for _ in 0..12 {
            t.try_step().unwrap();
        }
        let after = t.loglik_per_token();
        assert!(after > before + 0.01, "no convergence: {before} → {after}");
    }

    #[test]
    fn bit_identical_across_gpu_counts_for_fixed_chunks() {
        let c = corpus();
        let run = |gpus: usize, m: usize| {
            let mut config = cfg(Platform::pascal().with_gpus(gpus))
                .score_every(0)
                .build()
                .unwrap();
            config.chunks_per_gpu = Some(m);
            let mut t = CuldaTrainer::try_new(&c, config).unwrap();
            for _ in 0..2 {
                t.try_step().unwrap();
            }
            let z: Vec<Vec<u16>> = t.states().iter().map(|s| s.z.snapshot()).collect();
            (z, t.loglik_per_token())
        };
        let (z1, ll1) = run(1, 4); // 1 GPU × 4 chunks
        let (z2, ll2) = run(2, 2); // 2 GPUs × 2 chunks
        let (z4, ll4) = run(4, 1); // 4 GPUs × 1 chunk
        assert_eq!(z1, z2);
        assert_eq!(z2, z4);
        assert!((ll1 - ll2).abs() < 1e-12 && (ll2 - ll4).abs() < 1e-12);
    }

    #[test]
    fn iteration_bodies_really_run_on_concurrent_threads() {
        // Each worker records which host thread ran its iteration body; on
        // a 4-GPU platform the bodies must be on 4 distinct spawned
        // threads (and not the caller's).
        use std::collections::HashSet;
        use std::sync::Mutex;
        let c = corpus();
        let mut config = cfg(Platform::pascal().with_gpus(4))
            .score_every(0)
            .build()
            .unwrap();
        config.chunks_per_gpu = Some(1);
        let mut t = CuldaTrainer::try_new(&c, config).unwrap();
        let seen: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());
        let part = &t.part;
        let cfgr = &t.cfg;
        let host_link = t.host_link;
        let reports = run_workers(&mut t.workers, |_, w| {
            seen.lock().unwrap().push(std::thread::current().id());
            w.try_run_iteration(part, cfgr, false, 0, &host_link, false)
                .unwrap()
        });
        assert_eq!(reports.len(), 4);
        let ids = seen.into_inner().unwrap();
        let distinct: HashSet<_> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), 4, "bodies shared a thread");
        assert!(!distinct.contains(&std::thread::current().id()));
    }

    #[test]
    fn per_gpu_breakdowns_attribute_work_to_owners() {
        let c = corpus();
        let mut config = cfg(Platform::pascal().with_gpus(4))
            .score_every(0)
            .build()
            .unwrap();
        config.chunks_per_gpu = Some(1);
        let mut t = CuldaTrainer::try_new(&c, config).unwrap();
        for _ in 0..2 {
            t.try_step().unwrap();
        }
        let per = t.per_gpu_breakdowns();
        assert_eq!(per.num_gpus(), 4);
        for i in 0..4 {
            assert!(per.gpu(i).seconds(Phase::Sampling) > 0.0, "gpu {i} idle");
            // The sync is a shared phase, not attributed per GPU.
            assert_eq!(per.gpu(i).seconds(Phase::SyncPhi), 0.0);
        }
        let merged = per.merged();
        let sys = t.breakdown();
        for p in [Phase::Sampling, Phase::UpdatePhi, Phase::UpdateTheta] {
            assert!(
                (merged.seconds(p) - sys.seconds(p)).abs() < 1e-9,
                "{p:?}: per-GPU sum diverged from the system view"
            );
        }
        assert!(sys.seconds(Phase::SyncPhi) > 0.0);
    }

    #[test]
    fn multi_gpu_is_faster_in_simulated_time() {
        // Needs ~1M tokens for per-iteration compute to dominate the fixed
        // sync cost (the paper's corpora have a 100× higher ratio still).
        let mut spec = SynthSpec::tiny();
        spec.num_docs = 4000;
        spec.vocab_size = 2000;
        spec.avg_doc_len = 250.0;
        spec.topic_support = 300;
        let c = spec.generate();
        let run = |gpus: usize| {
            let config = TrainerConfig::builder(32, Platform::pascal().with_gpus(gpus))
                .iterations(2)
                .score_every(0)
                .seed(42)
                .build()
                .unwrap();
            let t = CuldaTrainer::try_new(&c, config).unwrap();
            let out = t.try_train().unwrap();
            out.history.avg_tokens_per_sec(2)
        };
        let tps1 = run(1);
        let tps4 = run(4);
        assert!(
            tps4 > 1.5 * tps1,
            "4 GPUs should beat 1 by well over 1.5×: {tps1} vs {tps4}"
        );
        assert!(
            tps4 < 4.0 * tps1,
            "scaling must be sub-linear (sync cost): {tps1} vs {tps4}"
        );
    }

    #[test]
    fn out_of_core_path_matches_resident_results() {
        // M = 4 on one GPU (WorkSchedule2 pipeline) vs the same C = 4
        // chunks resident (M = 1 semantics on 4 GPUs is covered by the
        // bit-identical test): the pipeline changes *time*, never results.
        let c = corpus();
        let mut forced = cfg(Platform::maxwell()).score_every(0).build().unwrap();
        forced.chunks_per_gpu = Some(4);
        let mut out_of_core = CuldaTrainer::try_new(&c, forced).unwrap();
        assert_eq!(out_of_core.plan().m, 4, "forced M must hold");
        let mut resident_cfg = cfg(Platform::pascal().with_gpus(4))
            .score_every(0)
            .build()
            .unwrap();
        resident_cfg.chunks_per_gpu = Some(1);
        let mut resident = CuldaTrainer::try_new(&c, resident_cfg).unwrap();
        for _ in 0..2 {
            out_of_core.try_step().unwrap();
            resident.try_step().unwrap();
        }
        out_of_core.check_invariants();
        let za: Vec<Vec<u16>> = out_of_core
            .states()
            .iter()
            .map(|s| s.z.snapshot())
            .collect();
        let zb: Vec<Vec<u16>> = resident.states().iter().map(|s| s.z.snapshot()).collect();
        assert_eq!(za, zb, "out-of-core must compute identical assignments");
        // And the pipeline must actually pay transfer time each iteration.
        assert!(out_of_core.breakdown().seconds(Phase::Transfer) > 0.0);
    }

    #[test]
    fn scarce_memory_auto_plans_out_of_core_and_trains() {
        let c = corpus();
        let mut small_mem = Platform::maxwell();
        small_mem.gpu = GpuSpec {
            // Two ϕ buffers plus about half the corpus state: forces M > 1.
            memory_bytes: {
                let probe = TrainerConfig::builder(16, Platform::maxwell())
                    .build()
                    .unwrap();
                2 * probe.phi_device_bytes(c.vocab_size()) + c.num_tokens() * 10 / 2
            },
            ..small_mem.gpu
        };
        let mut t =
            CuldaTrainer::try_new(&c, cfg(small_mem).score_every(0).build().unwrap()).unwrap();
        assert!(
            t.plan().m > 1,
            "expected out-of-core plan, got {}",
            t.plan().m
        );
        t.try_step().unwrap();
        t.check_invariants();
    }

    #[test]
    fn breakdown_is_dominated_by_sampling() {
        let c = perf_corpus();
        let config = TrainerConfig::builder(32, Platform::maxwell())
            .iterations(2)
            .score_every(0)
            .build()
            .unwrap();
        let t = CuldaTrainer::try_new(&c, config).unwrap();
        let out = t.try_train().unwrap();
        let frac = out.breakdown.fraction(Phase::Sampling);
        assert!(
            frac > 0.5,
            "sampling should dominate (Table 5 says ~80–88%), got {frac}"
        );
        assert!(out.breakdown.seconds(Phase::UpdateTheta) > 0.0);
        assert!(out.breakdown.seconds(Phase::UpdatePhi) > 0.0);
    }

    #[test]
    fn trailing_empty_documents_do_not_break_training() {
        // Regression: a corpus ending in empty documents can partition into
        // a zero-token chunk; the trainer must skip its kernels, not panic.
        use culda_corpus::{Document, Vocab};
        let mut docs: Vec<Document> = (0..20)
            .map(|i| Document::new(vec![(i % 5) as u32; 8]))
            .collect();
        docs.extend((0..6).map(|_| Document::new(vec![])));
        let c = Corpus::new(docs, Vocab::synthetic(5));
        let mut config = cfg(Platform::pascal().with_gpus(2))
            .score_every(0)
            .build()
            .unwrap();
        config.chunks_per_gpu = Some(1);
        let mut t = CuldaTrainer::try_new(&c, config).unwrap();
        for _ in 0..2 {
            let stat = t.try_step().unwrap();
            assert_eq!(stat.tokens, c.num_tokens());
        }
        t.check_invariants();
    }

    #[test]
    fn profile_log_records_every_kernel() {
        let c = corpus();
        let mut t =
            CuldaTrainer::try_new(&c, cfg(Platform::maxwell()).score_every(0).build().unwrap())
                .unwrap();
        for _ in 0..2 {
            t.try_step().unwrap();
        }
        let names: Vec<String> = t
            .profile()
            .summaries()
            .into_iter()
            .map(|s| s.name)
            .collect();
        for expected in ["lda_sample", "phi_clear", "phi_update", "theta_update"] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
        // 2 iterations × (1 sample + 1 clear + 1 update ϕ + 1 update θ).
        assert_eq!(t.profile().len(), 8);
        let table = t.profile().render();
        assert!(table.contains("lda_sample"));
    }

    #[test]
    fn observability_attached_is_bit_identical_to_unobserved() {
        let c = corpus();
        let run = |observe: bool| {
            let mut config = cfg(Platform::pascal().with_gpus(4))
                .score_every(0)
                .build()
                .unwrap();
            config.chunks_per_gpu = Some(1);
            let mut t = CuldaTrainer::try_new(&c, config).unwrap();
            if observe {
                t.attach_observability(
                    Some(Arc::new(TraceSink::new())),
                    Some(Arc::new(MetricsRegistry::new())),
                );
            }
            for _ in 0..2 {
                t.try_step().unwrap();
            }
            let z: Vec<Vec<u16>> = t.states().iter().map(|s| s.z.snapshot()).collect();
            let clocks: Vec<u64> = t
                .workers()
                .iter()
                .map(|w| w.device.now().to_bits())
                .collect();
            (z, clocks, t.loglik_per_token().to_bits())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn trace_covers_devices_workers_and_sync() {
        use culda_metrics::{EventKind, HOST_PID};
        let c = corpus();
        let mut config = cfg(Platform::pascal().with_gpus(4))
            .score_every(0)
            .build()
            .unwrap();
        config.chunks_per_gpu = Some(1);
        let mut t = CuldaTrainer::try_new(&c, config).unwrap();
        let sink = Arc::new(TraceSink::new());
        let reg = Arc::new(MetricsRegistry::new());
        t.attach_observability(Some(sink.clone()), Some(reg.clone()));
        for _ in 0..2 {
            t.try_step().unwrap();
        }
        let evs = sink.events();
        // One kernel-span track per device, one host track per worker.
        for tid in 0..4u32 {
            assert!(
                evs.iter()
                    .any(|e| e.pid == SIM_PID && e.tid == tid && e.kind == EventKind::Begin),
                "no kernel span on device {tid}"
            );
            assert!(
                evs.iter().any(|e| e.pid == HOST_PID && e.tid == tid),
                "no host span for worker {tid}"
            );
        }
        // The ϕ sync sits on its own track, with flows touching the devices.
        assert!(evs
            .iter()
            .any(|e| e.tid == SYNC_TID && e.kind == EventKind::Begin));
        let flow_device_tids: std::collections::HashSet<u32> = evs
            .iter()
            .filter(|e| {
                matches!(e.kind, EventKind::FlowStart | EventKind::FlowFinish)
                    && e.pid == SIM_PID
                    && e.tid != SYNC_TID
            })
            .map(|e| e.tid)
            .collect();
        assert_eq!(flow_device_tids.len(), 4, "flows must reach every device");
        // Metrics saw the launches and the sync.
        assert!(reg.counter("kernel.launches").value() >= 8);
        assert!(reg.histogram("sync.seconds").count() == 2);
    }

    #[test]
    fn ring_sync_changes_time_not_results() {
        let c = corpus();
        let run = |mode: SyncMode| {
            let config = cfg(Platform::pascal())
                .score_every(0)
                .iterations(3)
                .sync_mode(mode)
                .build()
                .unwrap();
            let mut t = CuldaTrainer::try_new(&c, config).unwrap();
            for _ in 0..3 {
                t.try_step().unwrap();
            }
            (t.loglik_per_token(), t.history().total_sim_seconds())
        };
        let (ll_tree, t_tree) = run(SyncMode::DenseTree);
        let (ll_ring, t_ring) = run(SyncMode::DenseRing);
        assert!(
            (ll_tree - ll_ring).abs() < 1e-12,
            "sync algorithm changed results"
        );
        assert!(t_tree != t_ring, "the two syncs should cost differently");
    }

    #[test]
    fn history_records_every_iteration() {
        let c = corpus();
        let t = CuldaTrainer::try_new(&c, cfg(Platform::volta()).iterations(4).build().unwrap())
            .unwrap();
        let out = t.try_train().unwrap();
        assert_eq!(out.history.len(), 4);
        assert!(out.final_loglik_per_token.is_finite());
        // score_every = 1 → every iteration scored.
        assert_eq!(out.history.loglik_series().len(), 4);
    }

    /// Two GPUs per node, `nodes` nodes.
    fn cluster_cfg(nodes: usize) -> TrainerConfig {
        TrainerConfig::builder(8, Platform::pascal().with_gpus(2))
            .iterations(3)
            .score_every(0)
            .seed(11)
            .nodes(nodes)
            .build()
            .unwrap()
    }

    fn assignments(t: &CuldaTrainer) -> Vec<Vec<u16>> {
        t.states().iter().map(|s| s.z.snapshot()).collect()
    }

    #[test]
    fn cluster_matches_single_node_bit_for_bit() {
        let c = corpus();
        let mut single = CuldaTrainer::try_new(&c, cluster_cfg(1)).unwrap();
        let mut cluster = CuldaTrainer::try_new(&c, cluster_cfg(3)).unwrap();
        assert_eq!((cluster.num_nodes(), cluster.num_gpus()), (3, 6));
        for _ in 0..3 {
            single.try_step().unwrap();
            cluster.try_step().unwrap();
        }
        cluster.check_invariants();
        assert_eq!(assignments(&single), assignments(&cluster));
        assert_eq!(
            single.global_phi().phi.snapshot(),
            cluster.global_phi().phi.snapshot()
        );
        assert!((single.loglik_per_token() - cluster.loglik_per_token()).abs() < 1e-12);
        // Only the cluster ships node payloads.
        assert_eq!(single.parameter_server().totals(), SyncTotals::default());
        assert!(cluster.parameter_server().totals().bytes_moved > 0);
    }

    #[test]
    fn every_node_honours_host_workers() {
        let c = corpus();
        let mut cfg = cluster_cfg(2);
        cfg.host_workers = Some(1);
        let t = CuldaTrainer::try_new(&c, cfg).unwrap();
        assert_eq!(t.num_gpus(), 4);
        assert!(t.workers().iter().all(|w| w.device.workers() == 1));
    }

    #[test]
    fn every_device_holds_no_more_than_the_plan_let_through() {
        // The plan checks one node's G devices; the build deals the
        // C = M·G chunks over all N·G. Whatever N, each device's resident
        // set as the plan models it must fit: both ϕ replicas, plus every
        // chunk it owns at M = 1 or its two largest (the staging slots)
        // at M > 1.
        let c = corpus();
        // The resident device holds exactly the one-node M = 1 plan's set.
        let fit = CuldaTrainer::try_new(&c, cluster_cfg(1))
            .unwrap()
            .plan()
            .resident_bytes;
        for nodes in [1, 2, 3] {
            let mut resident = cluster_cfg(nodes);
            resident.platform.gpu.memory_bytes = fit;
            let mut out_of_core = cluster_cfg(nodes);
            out_of_core.platform.gpu.memory_bytes =
                2 * out_of_core.phi_device_bytes(c.vocab_size()) + c.num_tokens() * 10 / 3;
            for (cfg, m_is_one) in [(resident, true), (out_of_core, false)] {
                let t = CuldaTrainer::try_new(&c, cfg).unwrap();
                assert_eq!(t.plan().m == 1, m_is_one, "{nodes} node(s)");
                assert_eq!(t.workers().len(), nodes * 2);
                let capacity = t.cfg.platform.gpu.memory_bytes;
                let phi = 2 * t.cfg.phi_device_bytes(t.part.vocab_size);
                for w in t.workers() {
                    let mut held: Vec<u64> = w
                        .chunk_ids
                        .iter()
                        .map(|&i| chunk_state_bytes(&t.part, i, t.cfg.num_topics))
                        .collect();
                    held.sort_unstable_by(|a, b| b.cmp(a));
                    let slots = if m_is_one { held.len() } else { 2 };
                    let bytes = phi + held.iter().take(slots).sum::<u64>();
                    assert!(
                        bytes <= capacity,
                        "{nodes} node(s), M = {}: GPU {} holds {bytes} of {capacity} bytes",
                        t.plan().m,
                        w.device.id
                    );
                }
            }
        }
    }

    #[test]
    fn a_lost_worker_is_neither_captured_nor_stored_into() {
        use culda_gpusim::{FaultKind, FaultSpec};
        let c = corpus();
        let config = cfg(Platform::pascal().with_gpus(4))
            .score_every(0)
            .build()
            .unwrap();
        let mut t = CuldaTrainer::try_new(&c, config).unwrap();
        t.attach_fault_plan(Arc::new(FaultPlan::from_specs(vec![FaultSpec::new(
            FaultKind::KernelLaunch,
            1,
            1,
        )
        .permanent()])));
        t.try_step().unwrap();
        t.try_step().unwrap();
        assert_eq!(t.num_alive(), 3, "GPU 1 is lost in iteration 1");
        let want = (
            t.global_phi().phi.snapshot(),
            t.global_phi().phi_sum.snapshot(),
        );

        // The write replicas as a fan-out leaves them: each survivor's holds
        // its own chunks' counts, the migrated ones included, and the lost
        // worker's holds stale counts on rows marked dirty.
        for w in t.workers.iter().filter(|w| w.alive) {
            w.write_replica().clear();
            for (&gi, state) in w.chunk_ids.iter().zip(&w.states) {
                culda_sampler::accumulate_phi_host(&t.part.chunks[gi], &state.z, w.write_replica());
            }
        }
        let lost = t.workers[1].write_replica();
        for v in 0..t.part.vocab_size {
            lost.phi.add(v, v % t.cfg.num_topics, 1);
            lost.phi_sum.fetch_add(v % t.cfg.num_topics, 1);
        }
        let stale = (lost.phi.snapshot(), lost.phi_sum.snapshot());

        let (nodes, inter) = t.sum_write_replicas();
        assert_eq!((nodes.len(), inter), (1, None));
        let lost = t.workers[1].write_replica();
        assert!(
            (lost.phi.snapshot(), lost.phi_sum.snapshot()) == stale,
            "the lost worker's replica was stored into"
        );
        for w in t.workers.iter().filter(|w| w.alive) {
            let r = w.write_replica();
            let got = (r.phi.snapshot(), r.phi_sum.snapshot());
            assert!(got == want, "GPU {}: not the survivors' sum", w.device.id);
        }
    }
}
