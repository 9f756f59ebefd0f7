//! The partition-by-word trainer — the Section 4 road not taken,
//! implemented for real so the policy comparison is measurable end-to-end.
//!
//! "For the partition-by-word policy … we only need to synchronize the
//! replicas of θ_{D×K}." Each GPU owns a contiguous *word range*
//! (token-balanced): its ϕ columns are private (never synchronized), but
//! every GPU touches every document, so the document–topic matrix θ and
//! the topic totals `n_k` must be reduced and broadcast each iteration.
//!
//! Semantics mirror [`crate::trainer::CuldaTrainer`] exactly — deferred
//! updates against the previous iteration's snapshot, per-token RNG
//! streams keyed by global token index — so for the same corpus and seed
//! the two policies produce *identically distributed* chains and the only
//! difference the figures show is the synchronization cost. (They are not
//! bit-identical: token stream ids follow each policy's own layout.)

use crate::config::{SamplingMode, TrainerConfig};
use crate::error::{CuldaError, RecoveryStats};
use crate::sync::SyncReport;
use crate::worker::{run_workers_traced, GpuWorker};
use culda_corpus::{Corpus, CsrMatrix, Xoshiro256};
use culda_gpusim::memory::AtomicU16Buf;
use culda_gpusim::{
    BlockCtx, FaultPlan, GpuCluster, KernelCost, KernelSpec, LaunchPhase, Link, ProfileLog,
};
use culda_metrics::{
    GpuBreakdowns, IterationStat, Json, LdaLoglik, MetricsRegistry, Phase, RunHistory, TraceSink,
    SIM_PID, SYNC_TID,
};
use culda_sampler::ptree::{IndexTree, DEFAULT_FANOUT};
use culda_sampler::spq::p1_weights;
use culda_sampler::{choose_sparse_sampling, pstar_block_cost, PhiModel, Priors};
use std::sync::Arc;

/// One GPU's word shard: the tokens of its word range, word-major.
#[derive(Debug)]
struct WordShard {
    /// Global word ids owned, ascending.
    word_ids: Vec<u32>,
    /// Token ranges per owned word.
    word_ptr: Vec<usize>,
    /// Global document id per token.
    token_doc: Vec<u32>,
    /// Global token index per token (RNG stream keys).
    token_stream: Vec<u64>,
    /// Current assignments.
    z: AtomicU16Buf,
}

impl WordShard {
    fn num_tokens(&self) -> usize {
        self.token_doc.len()
    }

    /// Adds this shard's assignments to ϕ, one row write per owned word,
    /// and to the dense θ counts.
    fn accumulate(&self, phi: &PhiModel, theta_dense: &mut [Vec<u32>]) {
        let mut cells = Vec::new();
        for (wi, &w) in self.word_ids.iter().enumerate() {
            cells.clear();
            for t in self.word_ptr[wi]..self.word_ptr[wi + 1] {
                let k = self.z.load(t);
                cells.push((k, 1));
                theta_dense[self.token_doc[t] as usize][k as usize] += 1;
            }
            phi.add_word_topics(w as usize, &mut cells);
        }
    }
}

/// The alternative trainer. Reuses the same per-GPU [`GpuWorker`] type as
/// [`crate::trainer::CuldaTrainer`] (with empty ϕ replicas — this policy's
/// ϕ columns are private and never synchronized), so its sampling bodies
/// also run concurrently, one host thread per device, with phase-tagged
/// launches.
pub struct WordPartitionedTrainer {
    cfg: TrainerConfig,
    workers: Vec<GpuWorker>,
    peer_link: Link,
    priors: Priors,
    num_docs: usize,
    vocab_size: usize,
    num_tokens: u64,
    doc_lens: Vec<u32>,
    shards: Vec<WordShard>,
    /// Global ϕ: columns are owned per-shard, never synced (the policy's
    /// advantage); stored whole for simplicity of scoring.
    phi: PhiModel,
    /// Global θ snapshot read by all shards.
    theta: CsrMatrix,
    history: RunHistory,
    iteration: u32,
    trace: Option<Arc<TraceSink>>,
    metrics: Option<Arc<MetricsRegistry>>,
    faults: Option<Arc<FaultPlan>>,
    recovery: RecoveryStats,
    /// Accumulated θ sync time (for the policy comparison).
    pub theta_sync_seconds: f64,
}

impl WordPartitionedTrainer {
    /// Shards `corpus` by word over the platform's GPUs.
    ///
    /// Panics on an invalid configuration; fallible callers use
    /// [`Self::try_new`].
    pub fn new(corpus: &Corpus, cfg: TrainerConfig) -> Self {
        Self::try_new(corpus, cfg).unwrap_or_else(|e| panic!("invalid TrainerConfig: {e}"))
    }

    /// Fallible counterpart of [`Self::new`]. This policy runs on one
    /// node: `cfg.nodes > 1` is [`CuldaError::Invalid`].
    pub fn try_new(corpus: &Corpus, cfg: TrainerConfig) -> Result<Self, CuldaError> {
        cfg.validate()?;
        if cfg.nodes > 1 {
            return Err(CuldaError::Invalid(format!(
                "multi-node training requires --policy doc (got {} nodes with --policy word)",
                cfg.nodes
            )));
        }
        let g = cfg.platform.num_gpus;
        let v = corpus.vocab_size();
        if g > v {
            return Err(CuldaError::Invalid(format!(
                "more GPUs ({g}) than vocabulary words ({v})"
            )));
        }
        let mut cluster = GpuCluster::from_platform(&cfg.platform);
        if let Some(link) = cfg.peer_link {
            cluster.peer_link = link;
        }
        if let Some(n) = cfg.host_workers {
            cluster = cluster.with_workers(n);
        }
        let priors = Priors::paper(cfg.num_topics);

        // Token counts per word, then contiguous word ranges balanced by
        // token count (the same greedy quantile split as the doc policy).
        let mut word_tokens = vec![0u64; v];
        for (_, w) in corpus.tokens() {
            word_tokens[w as usize] += 1;
        }
        let total = corpus.num_tokens();
        let mut ranges = Vec::with_capacity(g);
        let mut w0 = 0usize;
        let mut consumed = 0u64;
        for i in 0..g {
            let boundary = total * (i as u64 + 1) / g as u64;
            let start = w0;
            while w0 < v {
                let must_take = w0 == start;
                let must_stop = v - w0 < g - i;
                if !must_take && (must_stop || consumed >= boundary) {
                    break;
                }
                consumed += word_tokens[w0];
                w0 += 1;
                if must_take && v - w0 < g - i {
                    break;
                }
            }
            ranges.push(start..w0);
        }
        if w0 < v {
            ranges.last_mut().unwrap().end = v;
        }

        // Build shards: word-major token lists with global doc ids and
        // global token stream keys (assigned in (word, occurrence) order).
        let mut shards: Vec<WordShard> = ranges
            .iter()
            .map(|_| WordShard {
                word_ids: Vec::new(),
                word_ptr: vec![0],
                token_doc: Vec::new(),
                token_stream: Vec::new(),
                z: AtomicU16Buf::zeros(0),
            })
            .collect();
        // Gather (doc) occurrences per word.
        let mut occurrences: Vec<Vec<u32>> = vec![Vec::new(); v];
        for (d, w) in corpus.tokens() {
            occurrences[w as usize].push(d);
        }
        let mut stream_key = 0u64;
        for (si, range) in ranges.iter().enumerate() {
            let shard = &mut shards[si];
            for w in range.clone() {
                if occurrences[w].is_empty() {
                    continue;
                }
                shard.word_ids.push(w as u32);
                for &d in &occurrences[w] {
                    shard.token_doc.push(d);
                    shard.token_stream.push(stream_key);
                    stream_key += 1;
                }
                shard.word_ptr.push(shard.token_doc.len());
            }
        }

        // Random init, then build ϕ and θ from the assignments.
        let phi = PhiModel::zeros(cfg.num_topics, v, priors);
        let mut rng = Xoshiro256::from_seed_stream(cfg.seed, 0x30BD);
        let mut theta_dense = vec![vec![0u32; cfg.num_topics]; corpus.num_docs()];
        for shard in &mut shards {
            let z: Vec<u16> = (0..shard.num_tokens())
                .map(|_| rng.next_below(cfg.num_topics as u32) as u16)
                .collect();
            shard.z = AtomicU16Buf::from_vec(z);
            shard.accumulate(&phi, &mut theta_dense);
        }
        let theta = CsrMatrix::from_dense_rows(&theta_dense, cfg.num_topics);
        let doc_lens = corpus.docs.iter().map(|d| d.len() as u32).collect();

        let peer_link = cluster.peer_link;
        let workers: Vec<GpuWorker> = cluster
            .devices
            .into_iter()
            .map(GpuWorker::without_replicas)
            .collect();

        Ok(Self {
            cfg,
            workers,
            peer_link,
            priors,
            num_docs: corpus.num_docs(),
            vocab_size: v,
            num_tokens: corpus.num_tokens(),
            doc_lens,
            shards,
            phi,
            theta,
            history: RunHistory::new(),
            iteration: 0,
            trace: None,
            metrics: None,
            faults: None,
            recovery: RecoveryStats::default(),
            theta_sync_seconds: 0.0,
        })
    }

    /// Arms fault injection on every shard device. This policy's sampling
    /// kernel is idempotent (ϕ and θ are rebuilt host-side from `z` after
    /// the fan-out), so recovery is retry-only: a transient fault re-runs
    /// the shard's kernel bit-identically, and a worker that exhausts its
    /// budget is fatal — ϕ columns are private to their shard, so there is
    /// no replica to rebalance from.
    pub fn attach_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        for w in &self.workers {
            w.device.attach_faults(plan.clone());
        }
        self.faults = Some(plan);
    }

    /// What fault recovery has done so far in this run.
    pub fn recovery(&self) -> RecoveryStats {
        let mut r = self.recovery;
        if let Some(p) = &self.faults {
            r.faults_injected = p.injected();
        }
        r
    }

    /// Attaches observability sinks to this trainer and all shard devices
    /// (same contract as `CuldaTrainer::attach_observability`: spans per
    /// launch, host iteration spans, the θ sync on its own track).
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

    /// θ replica bytes (what this policy must synchronize).
    fn theta_sync_bytes(&self) -> u64 {
        (self.theta.nnz() as u64) * 6
            + (self.num_docs as u64 + 1) * 8
            + (self.cfg.num_topics as u64) * 4 // n_k vector
    }

    /// One iteration: sample every shard, rebuild ϕ locally, reduce and
    /// broadcast θ (+ `n_k`). Returns the stats.
    ///
    /// Panics on an unrecoverable fault; resilient callers use
    /// [`Self::try_step`].
    pub fn step(&mut self) -> IterationStat {
        self.try_step()
            .unwrap_or_else(|e| panic!("unrecoverable training fault: {e}"))
    }

    /// Fallible [`step`](Self::step). A shard whose sampling kernel hits
    /// an injected fault retries after exponential backoff (the kernel is
    /// idempotent — it rewrites every `z` of the shard from the previous
    /// snapshot); exhausting `cfg.retry.max_attempts` is fatal for this
    /// policy (private ϕ columns cannot be rebalanced).
    pub fn try_step(&mut self) -> Result<IterationStat, CuldaError> {
        let wall = std::time::Instant::now();
        let t0 = self.system_time();
        let k = self.cfg.num_topics;
        let alpha = self.priors.alpha as f32;
        let beta = self.priors.beta as f32;
        let inv_denom = self.phi.inv_denominators();
        let stream_seed =
            self.cfg.seed ^ (self.iteration as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let compressed = self.cfg.compressed;
        // Same per-iteration p* fill choice as the doc-partitioned trainer:
        // resolved once against the previous snapshot, bit-identical either
        // way, only the modelled ϕ row traffic changes.
        let elem = if compressed { 2usize } else { 4 };
        let sparse = match self.cfg.sampling_mode {
            SamplingMode::Dense => false,
            SamplingMode::Sparse => true,
            SamplingMode::Auto => choose_sparse_sampling(&self.phi.phi, elem),
        };
        let theta = &self.theta;
        let phi = &self.phi;
        for w in &self.workers {
            w.device.set_epoch(self.iteration);
        }
        let retry = self.cfg.retry;
        let trace = self.trace.clone();
        let metrics = self.metrics.clone();

        // --- Sampling, one worker thread per shard -----------------------
        let shards = &self.shards;
        let iter_label = format!("word iter {}", self.iteration);
        let results = run_workers_traced(
            &mut self.workers,
            self.trace.as_deref(),
            &iter_label,
            |si, worker| -> Result<u32, CuldaError> {
                let shard = &shards[si];
                let blocks = shard.word_ids.len().max(1) as u32;
                let word_ptr = &shard.word_ptr;
                let word_ids = &shard.word_ids;
                let token_doc = &shard.token_doc;
                let token_stream = &shard.token_stream;
                let z = &shard.z;
                let spec =
                    KernelSpec::new("word_lda_sample", blocks).with_phase(LaunchPhase::Sampling);
                let body = |ctx: &mut BlockCtx| {
                    let wi = ctx.block_id as usize;
                    if wi >= word_ids.len() {
                        return;
                    }
                    let w = word_ids[wi] as usize;
                    let mut pstar = if ctx.shared.fits::<f32>(2 * k + 64) {
                        ctx.shared.alloc::<f32>(k)
                    } else {
                        vec![0.0f32; k]
                    };
                    // Hybrid-layout fill: dense mode charges exactly the
                    // old k·e + k·4 read; sparse mode clamps the row read
                    // to its nnz encoding (never above dense).
                    let fill = pstar_block_cost(k, phi.phi.row_nnz(w), elem, 0, 0, true, sparse);
                    ctx.dram_read(fill.dram_read);
                    ctx.flop(2 * k);
                    phi.phi.fill_smoothed(w, beta, &inv_denom, &mut pstar);
                    let block_tree = IndexTree::build(&pstar, DEFAULT_FANOUT);
                    ctx.shared_access(2 * k * 4);
                    let mut p1_tree = IndexTree::build(&[1.0f32], DEFAULT_FANOUT);
                    let mut weights = Vec::new();
                    for t in word_ptr[wi]..word_ptr[wi + 1] {
                        let d = token_doc[t] as usize;
                        let (cols, vals) = theta.row(d);
                        ctx.dram_read(4 + cols.len() * (if compressed { 2 } else { 4 } + 4));
                        ctx.flop(3 * cols.len());
                        let s = p1_weights(cols, vals, &pstar, &mut weights);
                        let q = alpha * block_tree.total();
                        let mut rng = Xoshiro256::from_seed_stream(stream_seed, token_stream[t]);
                        let ub = rng.next_f32();
                        let ui = rng.next_f32();
                        let topic = if s > 0.0 && ub < s / (s + q) {
                            p1_tree.rebuild(&weights);
                            cols[p1_tree.sample_scaled(ui * s).0]
                        } else {
                            block_tree.sample_scaled(ui * block_tree.total()).0 as u16
                        };
                        z.store(t, topic);
                        ctx.dram_write(2);
                    }
                };
                let mut attempt = 1u32;
                loop {
                    match worker.device.try_launch_spec(spec.clone(), body) {
                        Ok(r) => {
                            worker.breakdown.add(Phase::Sampling, r.sim_seconds);
                            return Ok(attempt - 1);
                        }
                        Err(_) if attempt >= retry.max_attempts => {
                            return Err(CuldaError::WorkerLost {
                                device: si,
                                attempts: attempt,
                            });
                        }
                        Err(fault) => {
                            let backoff = retry.backoff_seconds(attempt);
                            let retry_at = worker.device.now();
                            worker.device.advance(backoff);
                            worker.breakdown.add(Phase::Recovery, backoff);
                            if let Some(sink) = &trace {
                                sink.span_sim(
                                    worker.device.id as u32,
                                    "worker.retry",
                                    "recovery",
                                    retry_at,
                                    worker.device.now(),
                                    vec![
                                        ("attempt".into(), Json::from(attempt as usize)),
                                        ("fault".into(), Json::Str(fault.to_string())),
                                    ],
                                );
                            }
                            if let Some(reg) = &metrics {
                                reg.counter("worker.retry").inc();
                            }
                            attempt += 1;
                        }
                    }
                }
            },
        );
        for res in results {
            self.recovery.retries += u64::from(res?);
        }

        // --- Rebuild ϕ (local, never synced) and θ (to be synced) --------
        // ϕ columns are private per shard; rebuild is a local kernel-cost
        // pass. θ is recounted host-side; its *sync* is the modelled cost.
        self.phi.clear();
        let mut theta_dense = vec![vec![0u32; k]; self.num_docs];
        for (si, shard) in self.shards.iter().enumerate() {
            let tokens_here = shard.num_tokens();
            shard.accumulate(&self.phi, &mut theta_dense);
            // Local ϕ update cost (atomics, like the doc-policy kernel).
            let cost = KernelCost {
                dram_read_bytes: tokens_here as u64 * 2,
                dram_write_bytes: tokens_here as u64 * 8,
                atomics: 2 * tokens_here as u64,
                blocks: shard.word_ids.len().max(1) as u64,
                ..Default::default()
            };
            let secs = cost.sim_seconds(&self.cfg.platform.gpu);
            self.workers[si].device.advance(secs);
            self.workers[si].breakdown.add(Phase::UpdatePhi, secs);
        }
        self.theta = CsrMatrix::from_dense_rows(&theta_dense, k);

        // --- θ (+ n_k) reduce/broadcast -----------------------------------
        let sync = self.theta_sync_report();
        self.theta_sync_seconds += sync.total_seconds();
        let sync_start = self
            .workers
            .iter()
            .map(|w| w.device.now())
            .fold(t0, f64::max);
        let sync_end = sync_start + sync.total_seconds();
        if let Some(sink) = &self.trace {
            if self.workers.len() > 1 {
                for w in &self.workers {
                    let id = sink.new_flow_id();
                    sink.flow_start(
                        SIM_PID,
                        w.device.id as u32,
                        "theta_reduce",
                        w.device.now(),
                        id,
                    );
                    sink.flow_finish(SIM_PID, SYNC_TID, "theta_reduce", sync_start, id);
                }
                sink.span_sim(
                    SYNC_TID,
                    &format!("theta_sync iter {}", self.iteration),
                    "sync",
                    sync_start,
                    sync_end,
                    vec![
                        ("reduce_s".into(), Json::Num(sync.reduce_seconds)),
                        ("broadcast_s".into(), Json::Num(sync.broadcast_seconds)),
                        ("rounds".into(), Json::from(sync.rounds)),
                    ],
                );
                for w in &self.workers {
                    let id = sink.new_flow_id();
                    sink.flow_start(SIM_PID, SYNC_TID, "theta_broadcast", sync_end, id);
                    sink.flow_finish(SIM_PID, w.device.id as u32, "theta_broadcast", sync_end, id);
                    sink.instant_sim(w.device.id as u32, "theta_ready", "sync", sync_end);
                }
            }
        }
        if let Some(reg) = &self.metrics {
            reg.counter("sync.rounds").add(sync.rounds as u64);
            reg.histogram("sync.seconds").record(sync.total_seconds());
        }
        for w in &self.workers {
            w.device.advance_to(sync_end);
        }
        let t_end = self.barrier();

        self.iteration += 1;
        let stat = IterationStat {
            iteration: self.iteration - 1,
            tokens: self.num_tokens,
            sim_seconds: t_end - t0,
            wall_seconds: wall.elapsed().as_secs_f64(),
            loglik_per_token: None,
            delta_density: None,
            sampling_sparse: Some(sparse),
        };
        self.history.push(stat);
        Ok(stat)
    }

    /// Latest clock among the workers' devices.
    fn system_time(&self) -> f64 {
        self.workers
            .iter()
            .map(|w| w.device.now())
            .fold(0.0f64, f64::max)
    }

    /// Barrier: every device's clock advances to the latest.
    fn barrier(&self) -> f64 {
        let t = self.system_time();
        for w in &self.workers {
            w.device.advance_to(t);
        }
        t
    }

    /// The Figure 4 tree applied to θ replicas: `⌈log₂G⌉` rounds each way,
    /// each moving the full θ bytes plus an add pass.
    fn theta_sync_report(&self) -> SyncReport {
        let g = self.workers.len();
        if g <= 1 {
            return SyncReport::default();
        }
        let bytes = self.theta_sync_bytes();
        let rounds = (g as f64).log2().ceil() as u32;
        let link = &self.peer_link;
        let add = KernelCost {
            dram_read_bytes: 2 * bytes,
            dram_write_bytes: bytes,
            flops: bytes / 4,
            blocks: (bytes / 4096).max(1),
            ..Default::default()
        }
        .sim_seconds(&self.cfg.platform.gpu);
        // θ travels dense both ways: 2(G−1) full-θ transfers in total.
        let moved = 2 * (g as u64 - 1) * bytes;
        SyncReport {
            reduce_seconds: rounds as f64 * (link.transfer_seconds(bytes) + add),
            broadcast_seconds: rounds as f64 * link.transfer_seconds(bytes),
            rounds,
            bytes_moved: moved,
            dense_bytes: moved,
            nnz: bytes / 4,
            ..SyncReport::default()
        }
    }

    /// Joint log-likelihood per token (same statistic as every solver).
    pub fn loglik_per_token(&self) -> f64 {
        let eval = LdaLoglik::new(
            self.priors.alpha,
            self.priors.beta,
            self.cfg.num_topics,
            self.vocab_size,
        );
        let k = self.cfg.num_topics;
        let mut acc = 0.0;
        for t in 0..k {
            let col = (0..self.vocab_size).map(|v| self.phi.phi.load(v * k + t));
            acc += eval.topic_term(col, self.phi.phi_sum.load(t) as u64);
        }
        for d in 0..self.num_docs {
            let (_, vals) = self.theta.row(d);
            acc += eval.doc_term(vals.iter().copied(), self.doc_lens[d] as u64);
        }
        eval.per_token(acc, self.num_tokens)
    }

    /// Run history.
    pub fn history(&self) -> &RunHistory {
        &self.history
    }

    /// The run configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.cfg
    }

    /// Number of GPU workers (one per word shard).
    pub fn num_gpus(&self) -> usize {
        self.workers.len()
    }

    /// Iterations completed so far.
    pub fn iterations_done(&self) -> u32 {
        self.iteration
    }

    /// The current global ϕ (columns owned per shard, assembled whole).
    pub fn phi(&self) -> &PhiModel {
        &self.phi
    }

    /// Per-kernel launch log merged from the shard devices in device
    /// order (this policy keeps the logs on the devices).
    pub fn profile(&self) -> ProfileLog {
        let mut log = ProfileLog::new();
        for w in &self.workers {
            log.merge(&w.device.profile());
        }
        log
    }

    /// Snapshot of every token's assignment, one vector per shard in
    /// device order (the checkpoint payload).
    pub fn assignments(&self) -> Vec<Vec<u16>> {
        self.shards.iter().map(|s| s.z.snapshot()).collect()
    }

    /// Restores a checkpointed state: overwrites every shard's
    /// assignments, rebuilds ϕ and θ from them, and sets the iteration
    /// counter. Timing state restarts from zero; the *chain* continues
    /// bit-identically because the RNG streams are keyed by
    /// `(seed, iteration, global token index)`.
    pub fn restore_assignments(
        &mut self,
        iteration: u32,
        z_per_shard: &[Vec<u16>],
    ) -> Result<(), String> {
        if z_per_shard.len() != self.shards.len() {
            return Err(format!(
                "{} shards supplied, trainer has {}",
                z_per_shard.len(),
                self.shards.len()
            ));
        }
        for (si, z) in z_per_shard.iter().enumerate() {
            if z.len() != self.shards[si].num_tokens() {
                return Err(format!("shard {si} token-count mismatch"));
            }
            if let Some(&bad) = z.iter().find(|&&v| v as usize >= self.cfg.num_topics) {
                return Err(format!("assignment {bad} out of range"));
            }
        }
        let k = self.cfg.num_topics;
        self.phi.clear();
        let mut theta_dense = vec![vec![0u32; k]; self.num_docs];
        for (si, z) in z_per_shard.iter().enumerate() {
            let shard = &self.shards[si];
            for (t, &v) in z.iter().enumerate() {
                shard.z.store(t, v);
            }
            shard.accumulate(&self.phi, &mut theta_dense);
        }
        self.theta = CsrMatrix::from_dense_rows(&theta_dense, k);
        self.iteration = iteration;
        self.history = RunHistory::new();
        self.theta_sync_seconds = 0.0;
        for w in &mut self.workers {
            w.breakdown = culda_metrics::Breakdown::new();
            w.device.reset_clock();
            w.device.clear_profile();
        }
        Ok(())
    }

    /// Per-GPU phase attribution (sampling + local ϕ rebuild; the θ sync
    /// is a shared phase tracked in [`Self::theta_sync_seconds`]).
    pub fn per_gpu_breakdowns(&self) -> GpuBreakdowns {
        GpuBreakdowns::new(self.workers.iter().map(|w| w.breakdown.clone()).collect())
    }

    /// Count-conservation audit.
    pub fn check_invariants(&self) {
        assert_eq!(self.phi.check_sums(), self.num_tokens);
        let theta_total: u64 = (0..self.num_docs).map(|d| self.theta.row_sum(d)).sum();
        assert_eq!(theta_total, self.num_tokens);
        for d in 0..self.num_docs {
            assert_eq!(self.theta.row_sum(d), self.doc_lens[d] as u64, "doc {d}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culda_corpus::SynthSpec;
    use culda_gpusim::Platform;

    fn corpus() -> Corpus {
        let mut spec = SynthSpec::tiny();
        spec.num_docs = 150;
        spec.vocab_size = 250;
        spec.avg_doc_len = 30.0;
        spec.generate()
    }

    fn cfg(gpus: usize) -> TrainerConfig {
        TrainerConfig::builder(16, Platform::pascal().with_gpus(gpus))
            .iterations(5)
            .score_every(0)
            .seed(77)
            .build()
            .unwrap()
    }

    #[test]
    fn trains_and_conserves_counts() {
        let c = corpus();
        let mut t = WordPartitionedTrainer::new(&c, cfg(4));
        t.check_invariants();
        let before = t.loglik_per_token();
        for _ in 0..8 {
            let stat = t.step();
            assert_eq!(stat.tokens, c.num_tokens());
            t.check_invariants();
        }
        assert!(
            t.loglik_per_token() > before + 0.01,
            "no convergence: {before} → {}",
            t.loglik_per_token()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let c = corpus();
        let mut a = WordPartitionedTrainer::new(&c, cfg(2));
        let mut b = WordPartitionedTrainer::new(&c, cfg(2));
        a.step();
        b.step();
        assert!((a.loglik_per_token() - b.loglik_per_token()).abs() < 1e-12);
    }

    #[test]
    fn pays_theta_sync_where_doc_policy_pays_phi() {
        // On this D < V corpus the θ sync is *cheaper* (the flip the
        // reduced scale causes); the paper-size shapes are validated in
        // `policy::tests`. Here: both trainers converge comparably, and
        // the word trainer's sync time matches its own policy model.
        let c = corpus();
        let mut word = WordPartitionedTrainer::new(&c, cfg(4));
        for _ in 0..3 {
            word.step();
        }
        assert!(word.theta_sync_seconds > 0.0);
        let mut doc_cfg = crate::TrainerConfig::builder(16, Platform::pascal().with_gpus(4))
            .iterations(3)
            .score_every(0)
            .seed(77)
            .build()
            .unwrap();
        doc_cfg.chunks_per_gpu = Some(1);
        let mut doc = crate::CuldaTrainer::new(&c, doc_cfg);
        for _ in 0..3 {
            doc.step();
        }
        let gap = (word.loglik_per_token() - doc.loglik_per_token()).abs();
        assert!(gap < 0.5, "policies should converge similarly, gap {gap}");
    }

    #[test]
    fn observability_traces_word_kernels_and_theta_sync() {
        use culda_metrics::EventKind;
        let c = corpus();
        let mut t = WordPartitionedTrainer::new(&c, cfg(2));
        let sink = Arc::new(TraceSink::new());
        let reg = Arc::new(MetricsRegistry::new());
        t.attach_observability(Some(sink.clone()), Some(reg.clone()));
        t.step();
        let evs = sink.events();
        assert!(evs
            .iter()
            .any(|e| e.kind == EventKind::Begin && e.name == "word_lda_sample"));
        assert!(evs
            .iter()
            .any(|e| e.tid == SYNC_TID && e.name.starts_with("theta_sync")));
        assert!(evs.iter().any(|e| e.name == "theta_broadcast"));
        assert!(reg.counter("kernel.launches").value() >= 2);
    }

    #[test]
    fn single_gpu_has_no_sync_cost() {
        let c = corpus();
        let mut t = WordPartitionedTrainer::new(&c, cfg(1));
        t.step();
        assert_eq!(t.theta_sync_seconds, 0.0);
    }
}
