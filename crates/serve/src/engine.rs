//! The inference engine: micro-batched fold-in over the GPU worker fleet.
//!
//! Serving reuses the training stack's worker layer wholesale: each
//! simulated GPU is a [`GpuWorker`] without ϕ replicas (the frozen model
//! is shared read-only — no atomics, no sync phase), micro-batches are
//! dealt round-robin across workers, and every launch goes through the
//! same traced `run_workers_traced` fan-out the trainers use, so
//! inference batches appear in `culda trace` output as host spans
//! wrapping `lda_infer` kernel spans with roofline attribution.
//!
//! Results are bit-deterministic per `(model, seed)`: each document draws
//! from an RNG stream keyed by its global arrival index, so θ and
//! perplexity are identical regardless of `--batch-size`, `--workers`, or
//! which simulated GPU a document lands on.
//!
//! Two entry points share the fleet. [`InferenceEngine::infer_batch`]
//! serves θ̂ and timing only: its launches skip the per-sweep scoring, and
//! nothing is scored afterwards. [`InferenceEngine::evaluate_batch`]
//! draws the same θ̂ and also scores it: the per-document log-predictive,
//! the perplexity, and the burn-in curve. Scoring never changes a draw,
//! and the fold-in is memory-bound, so both calls model the same seconds.
//!
//! Construction goes through [`ServeConfig::builder`] — the one validated
//! entry point — and the engine's mutable fleet state lives behind a
//! mutex so [`InferenceEngine::infer_batch`] takes `&self`: that is what
//! makes the engine usable as a [`crate::Infer`] trait object inside the
//! registry/router control plane.

use crate::api::{Infer, ModelVersion};
use crate::error::ServeError;
use crate::frozen::FrozenModel;
use culda_corpus::Corpus;
use culda_gpusim::{Device, FaultPlan, GpuSpec, ProfileLog};
use culda_metrics::{Breakdown, Histogram, MetricsRegistry, Phase, TraceSink};
use culda_multigpu::{run_workers_traced, GpuWorker, RecoveryStats};
use culda_sampler::{try_run_infer_kernel, DocPosterior, InferDoc, InferKernelConfig, LdaModel};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};

/// Configuration for an [`InferenceEngine`].
///
/// Assemble one with [`ServeConfig::builder`], which validates exactly
/// once at [`build`](ServeConfigBuilder::build). [`ServeConfig::new`]
/// gives the (always valid) serving defaults; the public fields exist so
/// the control plane can introspect a pool's shape, not as a construction
/// path.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// RNG seed for the serving session (per-document streams derive
    /// from it plus each document's global index).
    pub seed: u64,
    /// Simulated GPUs to fan micro-batches across.
    pub workers: usize,
    /// Documents per kernel launch (one block per document).
    pub batch_size: usize,
    /// Gibbs sweeps discarded before θ accumulation.
    pub burnin: u32,
    /// Post-burn-in sweeps averaged into θ̂.
    pub samples: u32,
    /// Host threads driving each simulated device's blocks.
    pub host_workers: usize,
    /// The GPU model every worker simulates.
    pub gpu: GpuSpec,
}

impl ServeConfig {
    /// Serving defaults: 2 workers, 64-document micro-batches, 8 burn-in
    /// + 4 sample sweeps, on the Pascal part the paper serves from.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            workers: 2,
            batch_size: 64,
            burnin: 8,
            samples: 4,
            host_workers: 1,
            gpu: GpuSpec::titan_xp_pascal(),
        }
    }

    /// Starts builder-style construction from `seed`'s serving defaults.
    /// This is the documented entry point for non-default configurations.
    pub fn builder(seed: u64) -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: ServeConfig::new(seed),
        }
    }

    /// Rejects configurations that cannot serve anything.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.workers == 0 {
            return Err(ServeError::Config(
                "serving needs at least one worker".into(),
            ));
        }
        if self.batch_size == 0 {
            return Err(ServeError::Config(
                "batch size must be at least one document".into(),
            ));
        }
        if self.host_workers == 0 {
            return Err(ServeError::Config(
                "each device needs at least one host worker".into(),
            ));
        }
        if self.burnin.checked_add(self.samples).is_none() {
            return Err(ServeError::Config(format!(
                "burnin {} + samples {} overflows the sweep count",
                self.burnin, self.samples
            )));
        }
        Ok(())
    }

    /// The launch configuration: the paper's u16 compression and
    /// shared-memory staging, as [`InferKernelConfig::new`] sets them.
    fn kernel_config(&self, score: bool) -> InferKernelConfig {
        InferKernelConfig {
            burnin: self.burnin,
            samples: self.samples,
            score,
            ..InferKernelConfig::new(self.seed)
        }
    }
}

/// Builder for [`ServeConfig`]: set what differs from the defaults,
/// then [`build`](Self::build) validates exactly once.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    /// Sets the simulated GPU count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Sets the micro-batch size (documents per launch).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.cfg.batch_size = batch_size;
        self
    }

    /// Sets the burn-in sweep count.
    pub fn burnin(mut self, burnin: u32) -> Self {
        self.cfg.burnin = burnin;
        self
    }

    /// Sets the post-burn-in sample sweep count.
    pub fn samples(mut self, samples: u32) -> Self {
        self.cfg.samples = samples;
        self
    }

    /// Sets the host threads per simulated device.
    pub fn host_workers(mut self, host_workers: usize) -> Self {
        self.cfg.host_workers = host_workers;
        self
    }

    /// Sets the simulated GPU model.
    pub fn gpu(mut self, gpu: GpuSpec) -> Self {
        self.cfg.gpu = gpu;
        self
    }

    /// Validates the assembled configuration — the single validation
    /// point of the builder path — and returns it.
    pub fn build(self) -> Result<ServeConfig, ServeError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// What one [`InferenceEngine::infer_batch`] call serves: θ̂ and timing.
#[derive(Debug, Clone)]
pub struct InferenceOutcome {
    /// Per-document normalized posterior topic mixture θ̂ (each row sums
    /// to 1), in input order.
    pub theta: Vec<Vec<f64>>,
    /// Documents inferred.
    pub docs: usize,
    /// Tokens inferred.
    pub tokens: u64,
    /// Kernel launches issued (micro-batches).
    pub micro_batches: usize,
    /// Critical-path simulated seconds (slowest worker this call). A
    /// retried launch counts its failed attempts and backoff.
    pub sim_seconds: f64,
    /// Total simulated device seconds summed over workers, retries
    /// included.
    pub device_seconds: f64,
}

/// What one [`InferenceEngine::evaluate_batch`] call returns: the θ̂ that
/// [`InferenceEngine::infer_batch`] serves, scored.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// θ̂ and timing, bit for bit what the serving call returns.
    pub outcome: InferenceOutcome,
    /// Per-document log-predictive `Σ_w ln p(w | θ̂, ϕ)` under the final
    /// θ̂ estimate, in input order (0 for empty documents).
    pub doc_log_predictive: Vec<f64>,
    /// Held-out perplexity `exp(−Σ_d ll_d / Σ_d |d|)` under the final θ̂.
    pub perplexity: f64,
    /// Perplexity after each Gibbs sweep, scored with the running-average
    /// θ over the sweeps so far — the burn-in convergence curve.
    pub perplexity_by_sweep: Vec<f64>,
}

/// The engine's mutable half: the worker fleet and the counters that
/// advance as batches are served. Lives behind a mutex so the engine's
/// serving entry point is `&self` (see [`Infer`]).
#[derive(Debug)]
struct EngineState {
    workers: Vec<GpuWorker>,
    recovery: RecoveryStats,
    batches_served: u64,
    docs_served: u64,
    tokens_served: u64,
}

/// One document's scores from a fold-in: its log-predictive under the
/// final θ̂ and its per-sweep burn-in curve (see [`DocPosterior`]).
type DocScores = (Option<f64>, Vec<f64>);

/// Micro-batched fold-in inference over a [`FrozenModel`].
#[derive(Debug)]
pub struct InferenceEngine {
    model: Arc<FrozenModel>,
    inv_denom: Vec<f32>,
    cfg: ServeConfig,
    version: ModelVersion,
    faults: Option<Arc<FaultPlan>>,
    trace: Option<Arc<TraceSink>>,
    metrics: Option<Arc<MetricsRegistry>>,
    /// Per-micro-batch simulated latency (seconds), log₂-bucketed across
    /// every batch served. Feeds the p50/p95/p99 figures `culda infer`
    /// reports. Atomic internally, so it lives outside the state mutex.
    latency: Histogram,
    state: Mutex<EngineState>,
}

impl InferenceEngine {
    /// Builds an engine: `cfg.workers` replica-less [`GpuWorker`]s sharing
    /// the frozen ϕ read-only.
    ///
    /// Thin wrapper by design: `cfg` is trusted to have come through
    /// [`ServeConfig::builder`] (or [`ServeConfig::new`]'s defaults), so
    /// nothing is re-validated here. The model may arrive owned or as an
    /// [`Arc`] — the registry shares one snapshot across a whole pool.
    pub fn new(model: impl Into<Arc<FrozenModel>>, cfg: ServeConfig) -> Self {
        let model = model.into();
        let workers: Vec<GpuWorker> = (0..cfg.workers)
            .map(|i| {
                GpuWorker::without_replicas(
                    Device::new(i, cfg.gpu.clone()).with_workers(cfg.host_workers),
                )
            })
            .collect();
        let inv_denom = model.inv_denominators();
        Self {
            model,
            inv_denom,
            cfg,
            version: ModelVersion::unversioned(),
            faults: None,
            trace: None,
            metrics: None,
            latency: Histogram::default(),
            state: Mutex::new(EngineState {
                workers,
                recovery: RecoveryStats::default(),
                batches_served: 0,
                docs_served: 0,
                tokens_served: 0,
            }),
        }
    }

    /// Tags the engine with the registry identity it serves (shown in
    /// routing stats, swap spans, and [`Infer::model_version`]).
    pub fn with_version(mut self, version: ModelVersion) -> Self {
        self.version = version;
        self
    }

    fn state(&self) -> MutexGuard<'_, EngineState> {
        // A worker panic mid-batch poisons the lock; the fleet state is
        // still consistent (every mutation happens under the guard), so
        // keep serving rather than propagating the panic forever.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Arms a deterministic fault-injection plan on every worker device.
    /// Subsequent [`infer_batch`](InferenceEngine::infer_batch) calls
    /// consult it at each kernel launch.
    pub fn attach_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        for w in &self.state().workers {
            w.device.attach_faults(Arc::clone(&plan));
        }
        self.faults = Some(plan);
    }

    /// Fault-recovery statistics accumulated across all batches served:
    /// injected faults, launch retries, lost workers, re-enqueued
    /// micro-batches (counted as migrated chunks).
    pub fn recovery(&self) -> RecoveryStats {
        let mut r = self.state().recovery;
        if let Some(plan) = &self.faults {
            r.faults_injected = plan.injected();
        }
        r
    }

    /// Workers still serving (not lost to permanent faults).
    pub fn num_alive(&self) -> usize {
        self.state().workers.iter().filter(|w| w.alive).count()
    }

    /// The frozen model being served.
    pub fn model(&self) -> &FrozenModel {
        &self.model
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Simulated GPUs in the fleet.
    pub fn num_workers(&self) -> usize {
        self.cfg.workers
    }

    /// Documents served so far (also the next document's RNG stream id).
    pub fn docs_served(&self) -> u64 {
        self.state().docs_served
    }

    /// Tokens inferred so far.
    pub fn tokens_served(&self) -> u64 {
        self.state().tokens_served
    }

    /// Attaches PR-2 observability: every worker device reports kernel
    /// spans/counters, and batch fan-outs emit host spans per GPU.
    pub fn attach_observability(
        &mut self,
        trace: Option<Arc<TraceSink>>,
        metrics: Option<Arc<MetricsRegistry>>,
    ) {
        for w in &self.state().workers {
            if let Some(t) = &trace {
                w.device.attach_trace(Arc::clone(t));
            }
            if let Some(m) = &metrics {
                w.device.attach_metrics(Arc::clone(m));
            }
        }
        self.trace = trace;
        self.metrics = metrics;
    }

    /// Per-GPU phase breakdowns accumulated across all batches served.
    pub fn per_gpu_breakdowns(&self) -> Vec<Breakdown> {
        self.state()
            .workers
            .iter()
            .map(|w| w.breakdown.clone())
            .collect()
    }

    /// Merged kernel profiles from every worker device.
    pub fn profile(&self) -> ProfileLog {
        let mut log = ProfileLog::new();
        for w in &self.state().workers {
            log.merge(&w.device.profile());
        }
        log
    }

    /// Infers θ̂ for a batch of documents (token word-id lists), without
    /// scoring it: the serving call. Documents are packed into
    /// `batch_size` micro-batches dealt round-robin across the live
    /// workers; results come back in input order and are independent of
    /// that packing.
    ///
    /// Serialized internally: concurrent callers queue on the fleet lock,
    /// which is what lets the control plane treat the engine as a shared
    /// [`Infer`] backend.
    ///
    /// Fault recovery: each worker retries a faulted launch with
    /// exponential backoff up to the fixed budget, in the retry loop the
    /// trainer's workers run ([`GpuWorker::retrying`]). A worker that
    /// exhausts it is removed from the fleet and its stranded
    /// micro-batches are re-enqueued (ascending id, round-robin) on the
    /// survivors — per-document RNG streams are keyed by arrival index,
    /// so the re-served results are bit-identical to a fault-free run.
    pub fn infer_batch(&self, docs: &[Vec<u32>]) -> Result<InferenceOutcome, ServeError> {
        self.fold_in(docs, false).map(|(outcome, _)| outcome)
    }

    /// Infers θ̂ for a batch as [`Self::infer_batch`] does, and scores it:
    /// each document's log-predictive under its final θ̂, the batch's
    /// perplexity, and its perplexity after every sweep. The evaluation
    /// call; θ̂, the timing and every fault path are the serving call's.
    pub fn evaluate_batch(&self, docs: &[Vec<u32>]) -> Result<Evaluation, ServeError> {
        let (outcome, scores) = self.fold_in(docs, true)?;
        let mut doc_log_predictive = Vec::with_capacity(scores.len());
        let mut sweep_ll = vec![0.0f64; self.cfg.kernel_config(true).sweeps() as usize];
        for (ll, curve) in scores {
            doc_log_predictive.push(ll.expect("a scored launch scores every document"));
            for (s, ll) in curve.iter().enumerate() {
                sweep_ll[s] += ll;
            }
        }
        let tokens = outcome.tokens;
        Ok(Evaluation {
            perplexity: perplexity_from(doc_log_predictive.iter().sum(), tokens),
            perplexity_by_sweep: sweep_ll
                .into_iter()
                .map(|ll| perplexity_from(ll, tokens))
                .collect(),
            doc_log_predictive,
            outcome,
        })
    }

    /// The fold-in both entry points run, scored or not. Returns the
    /// outcome and each document's scores, in input order: its
    /// log-predictive under the final θ̂ and after every sweep (`None` and
    /// empty when not scored).
    fn fold_in(
        &self,
        docs: &[Vec<u32>],
        score: bool,
    ) -> Result<(InferenceOutcome, Vec<DocScores>), ServeError> {
        check_docs(docs, self.model.vocab_size())?;
        // Hand-assembled configs bypass the builder's validation; a zero
        // batch size would otherwise never finish packing.
        let batch_size = self.cfg.batch_size.max(1);

        let st = &mut *self.state();
        let num_workers = st.workers.len();
        let alive_ids: Vec<usize> = (0..num_workers).filter(|&i| st.workers[i].alive).collect();
        if alive_ids.is_empty() {
            return Err(ServeError::AllWorkersLost);
        }

        // Fault coordinates address (device, batch ordinal).
        for w in &st.workers {
            w.device.set_epoch(st.batches_served as u32);
        }

        // Deal micro-batches round-robin over the LIVE fleet: micro-batch
        // b → survivor b mod |alive|.
        let mut ranges: Vec<Range<usize>> = Vec::new();
        let mut start = 0usize;
        while start < docs.len() {
            let end = (start + batch_size).min(docs.len());
            ranges.push(start..end);
            start = end;
        }
        let micro_batches = ranges.len();
        let mut owned: Vec<Vec<(usize, Range<usize>)>> = vec![Vec::new(); num_workers];
        for (mb, range) in ranges.iter().enumerate() {
            owned[alive_ids[mb % alive_ids.len()]].push((mb, range.clone()));
        }

        let kcfg = self.cfg.kernel_config(score);
        let base_stream = st.docs_served;
        let phi = self.model.phi();
        let inv_denom = &self.inv_denom;
        let label = format!("infer batch {}", st.batches_served);
        let shards = run_shards(
            &mut st.workers,
            self.trace.as_deref(),
            self.metrics.as_deref(),
            &label,
            &owned,
            docs,
            base_stream,
            phi,
            inv_denom,
            &kcfg,
        );

        // Harvest: completed micro-batches, lost workers, stranded ids.
        let mut done: Vec<(usize, Vec<DocPosterior>, f64)> = Vec::new();
        let mut per_worker_seconds = vec![0.0f64; num_workers];
        let mut stranded: Vec<usize> = Vec::new();
        for (wi, shard) in shards.into_iter().enumerate() {
            st.recovery.retries += shard.retries;
            if shard.lost {
                st.workers[wi].alive = false;
                st.recovery.workers_lost += 1;
            }
            per_worker_seconds[wi] += shard.done.iter().map(|(_, _, s)| s).sum::<f64>();
            for &(_, _, s) in &shard.done {
                self.latency.record(s);
            }
            stranded.extend(shard.unfinished);
            done.extend(shard.done);
        }

        if !stranded.is_empty() {
            stranded.sort_unstable();
            let survivors: Vec<usize> = (0..num_workers).filter(|&i| st.workers[i].alive).collect();
            if survivors.is_empty() {
                return Err(ServeError::AllWorkersLost);
            }
            let failed: Vec<(usize, Range<usize>)> = stranded
                .iter()
                .map(|&mb| (mb, ranges[mb].clone()))
                .collect();
            let reassigned = redistribute_batches(&failed, &survivors, num_workers);
            st.recovery.chunks_migrated += failed.len() as u64;
            if let Some(reg) = self.metrics.as_deref() {
                reg.counter("rebalance").inc();
            }
            let label = format!("infer batch {} · re-enqueue", st.batches_served);
            let shards = run_shards(
                &mut st.workers,
                self.trace.as_deref(),
                self.metrics.as_deref(),
                &label,
                &reassigned,
                docs,
                base_stream,
                phi,
                inv_denom,
                &kcfg,
            );
            for (wi, shard) in shards.into_iter().enumerate() {
                st.recovery.retries += shard.retries;
                if shard.lost {
                    // Recovery is not itself fault-tolerant: losing a
                    // survivor while re-serving stranded batches is fatal.
                    st.workers[wi].alive = false;
                    st.recovery.workers_lost += 1;
                    return Err(ServeError::WorkerLost {
                        device: wi,
                        attempts: shard.attempts,
                    });
                }
                per_worker_seconds[wi] += shard.done.iter().map(|(_, _, s)| s).sum::<f64>();
                for &(_, _, s) in &shard.done {
                    self.latency.record(s);
                }
                done.extend(shard.done);
            }
        }

        // Scatter posteriors back to input order.
        let mut slots: Vec<Option<DocPosterior>> = vec![None; docs.len()];
        let device_seconds: f64 = per_worker_seconds.iter().sum();
        let sim_seconds = per_worker_seconds.iter().fold(0.0f64, |a, &b| a.max(b));
        for (start, posteriors, _) in done {
            for (j, p) in posteriors.into_iter().enumerate() {
                slots[start + j] = Some(p);
            }
        }

        let k = self.model.num_topics();
        let alpha = self.model.priors().alpha;
        let tokens: u64 = docs.iter().map(|d| d.len() as u64).sum();
        let mut theta = Vec::with_capacity(docs.len());
        let mut scores = Vec::with_capacity(docs.len());
        for (doc, slot) in docs.iter().zip(slots) {
            let posterior = match slot {
                Some(p) => p,
                None => {
                    return Err(ServeError::Invalid(
                        "internal error: a document was never inferred".into(),
                    ))
                }
            };
            theta.push(posterior.theta(doc.len(), alpha, k));
            scores.push((posterior.log_predictive, posterior.sweep_log_predictive));
        }

        st.batches_served += 1;
        st.docs_served += docs.len() as u64;
        st.tokens_served += tokens;
        let outcome = InferenceOutcome {
            theta,
            docs: docs.len(),
            tokens,
            micro_batches,
            sim_seconds,
            device_seconds,
        };
        Ok((outcome, scores))
    }

    /// `(p50, p95, p99)` micro-batch latency in seconds, or `None` before
    /// the first micro-batch completes.
    pub fn latency_quantiles(&self) -> Option<(f64, f64, f64)> {
        Some((
            self.latency.quantile(0.5)?,
            self.latency.quantile(0.95)?,
            self.latency.quantile(0.99)?,
        ))
    }

    /// Convenience: evaluates every document of a held-out corpus.
    pub fn evaluate_corpus(&self, corpus: &Corpus) -> Result<Evaluation, ServeError> {
        let docs: Vec<Vec<u32>> = corpus.docs.iter().map(|d| d.words.clone()).collect();
        self.evaluate_batch(&docs)
    }
}

impl Infer for InferenceEngine {
    fn infer_batch(&self, docs: &[Vec<u32>]) -> Result<InferenceOutcome, ServeError> {
        InferenceEngine::infer_batch(self, docs)
    }

    fn latency_quantiles(&self) -> Option<(f64, f64, f64)> {
        InferenceEngine::latency_quantiles(self)
    }

    fn recovery(&self) -> RecoveryStats {
        InferenceEngine::recovery(self)
    }

    fn model_version(&self) -> ModelVersion {
        self.version.clone()
    }
}

/// One worker's share of a fan-out: completed micro-batches, plus the
/// ids it left stranded if it exhausted its retry budget and died.
#[derive(Debug, Default)]
struct WorkerShard {
    /// `(range.start, posteriors, seconds)` per completed micro-batch: its
    /// launch's `sim_seconds` plus the recovery seconds of its retries.
    done: Vec<(usize, Vec<DocPosterior>, f64)>,
    /// Micro-batch ids this worker could not finish.
    unfinished: Vec<usize>,
    retries: u64,
    lost: bool,
    /// Launch attempts made on the batch that killed the worker.
    attempts: u32,
}

/// One traced fan-out of `assigned` micro-batches over the fleet, each
/// launch retried through [`GpuWorker::retrying`]. A worker that exhausts
/// its budget stops and reports the rest of its share as unfinished.
#[allow(clippy::too_many_arguments)]
fn run_shards(
    workers: &mut [GpuWorker],
    trace: Option<&TraceSink>,
    metrics: Option<&MetricsRegistry>,
    label: &str,
    assigned: &[Vec<(usize, Range<usize>)>],
    docs: &[Vec<u32>],
    base_stream: u64,
    phi: &culda_sampler::PhiModel,
    inv_denom: &[f32],
    kcfg: &InferKernelConfig,
) -> Vec<WorkerShard> {
    run_workers_traced(workers, trace, label, |wi, worker| {
        let mut shard = WorkerShard::default();
        for (mb, range) in &assigned[wi] {
            if shard.lost {
                shard.unfinished.push(*mb);
                continue;
            }
            let batch: Vec<InferDoc<'_>> = docs[range.clone()]
                .iter()
                .enumerate()
                .map(|(j, d)| InferDoc {
                    stream_id: base_stream + (range.start + j) as u64,
                    words: d,
                })
                .collect();
            let launch =
                |w: &mut GpuWorker| try_run_infer_kernel(&w.device, phi, inv_denom, &batch, kcfg);
            match worker.retrying(trace, metrics, launch) {
                Ok(((posteriors, report), retries, recovery_seconds)) => {
                    worker.breakdown.add(Phase::Inference, report.sim_seconds);
                    shard.retries += u64::from(retries);
                    // Failed attempts and their backoff are part of the
                    // micro-batch's time.
                    shard.done.push((
                        range.start,
                        posteriors,
                        report.sim_seconds + recovery_seconds,
                    ));
                }
                Err(attempts) => {
                    shard.retries += u64::from(attempts - 1);
                    shard.lost = true;
                    shard.attempts = attempts;
                    shard.unfinished.push(*mb);
                }
            }
        }
        shard
    })
}

/// Deals stranded micro-batches across the survivors: ascending
/// micro-batch id, round-robin over `survivors`. Pure, so the re-enqueue
/// ordering is unit-testable without building a fleet.
fn redistribute_batches(
    failed: &[(usize, Range<usize>)],
    survivors: &[usize],
    num_workers: usize,
) -> Vec<Vec<(usize, Range<usize>)>> {
    let mut assigned: Vec<Vec<(usize, Range<usize>)>> = vec![Vec::new(); num_workers];
    let mut order: Vec<&(usize, Range<usize>)> = failed.iter().collect();
    order.sort_by_key(|(mb, _)| *mb);
    for (n, (mb, range)) in order.into_iter().enumerate() {
        assigned[survivors[n % survivors.len()]].push((*mb, range.clone()));
    }
    assigned
}

/// Refuses a batch the engine cannot infer: no documents, or a word id at
/// or past `vocab`. The serving plane applies the same check per request
/// at submit, so one bad request never fails the batch it is admitted
/// with.
pub(crate) fn check_docs(docs: &[Vec<u32>], vocab: usize) -> Result<(), ServeError> {
    if docs.is_empty() {
        return Err(ServeError::Invalid("no documents to infer".into()));
    }
    for (d, doc) in docs.iter().enumerate() {
        if let Some(&w) = doc.iter().find(|&&w| w as usize >= vocab) {
            return Err(ServeError::Invalid(format!(
                "document {d} has word id {w}, outside the model vocabulary of {vocab}"
            )));
        }
    }
    Ok(())
}

/// `exp(−ll / tokens)`, with the empty-batch convention of 1.
fn perplexity_from(ll: f64, tokens: u64) -> f64 {
    if tokens == 0 {
        1.0
    } else {
        (-ll / tokens as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culda_corpus::{partition_by_tokens, SortedChunk, SynthSpec};
    use culda_gpusim::{FaultKind, FaultSpec};
    use culda_metrics::EventKind;
    use culda_sampler::{accumulate_phi_host, ChunkState, PhiModel, Priors};

    fn model_and_docs() -> (FrozenModel, Vec<Vec<u32>>) {
        let corpus = SynthSpec::tiny().generate();
        let chunks = partition_by_tokens(&corpus, 1);
        let chunk = SortedChunk::build(&corpus, &chunks[0]);
        let state = ChunkState::init_random(&chunk, 12, 5);
        let phi = PhiModel::zeros(12, corpus.vocab_size(), Priors::paper(12));
        accumulate_phi_host(&chunk, &state.z, &phi);
        let docs: Vec<Vec<u32>> = corpus
            .docs
            .iter()
            .take(17)
            .map(|d| d.words.clone())
            .collect();
        (FrozenModel::from_phi(phi), docs)
    }

    fn engine(cfg: ServeConfig) -> (InferenceEngine, Vec<Vec<u32>>) {
        let (model, docs) = model_and_docs();
        (InferenceEngine::new(model, cfg), docs)
    }

    fn cfg(seed: u64) -> ServeConfigBuilder {
        ServeConfig::builder(seed)
    }

    #[test]
    fn outcome_is_independent_of_workers_and_batch_size() {
        let (a, docs) = engine(cfg(11).workers(1).batch_size(64).build().unwrap());
        let (b, _) = engine(cfg(11).workers(3).batch_size(4).build().unwrap());
        let eval_a = a.evaluate_batch(&docs).unwrap();
        let eval_b = b.evaluate_batch(&docs).unwrap();
        let (out_a, out_b) = (&eval_a.outcome, &eval_b.outcome);
        assert_eq!(out_a.theta, out_b.theta);
        assert_eq!(eval_a.perplexity, eval_b.perplexity);
        assert_eq!(eval_a.perplexity_by_sweep, eval_b.perplexity_by_sweep);
        assert_eq!(out_a.micro_batches, 1);
        assert_eq!(out_b.micro_batches, 5);
        // A different seed must change the draw.
        let (c, _) = engine(ServeConfig::new(12));
        assert_ne!(c.infer_batch(&docs).unwrap().theta, out_a.theta);
    }

    #[test]
    fn theta_rows_are_normalized() {
        let (eng, docs) = engine(cfg(3).batch_size(5).build().unwrap());
        let eval = eng.evaluate_batch(&docs).unwrap();
        let out = &eval.outcome;
        assert_eq!(out.theta.len(), docs.len());
        for row in &out.theta {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "theta row sums to {sum}");
            assert!(row.iter().all(|&x| x > 0.0));
        }
        assert!(eval.perplexity.is_finite() && eval.perplexity > 0.0);
        assert_eq!(eval.perplexity_by_sweep.len(), 12);
        assert_eq!(eval.doc_log_predictive.len(), docs.len());
    }

    #[test]
    fn serving_and_evaluation_serve_the_same_theta_and_time() {
        // ci.sh's `infer_shapes`: 1 worker × 64 documents and 2 × 16. Each
        // call gets a fresh engine, since a call advances the RNG streams.
        for (workers, batch) in [(1, 64), (2, 16)] {
            let config = cfg(0xF01D)
                .workers(workers)
                .batch_size(batch)
                .burnin(3)
                .samples(2)
                .build()
                .unwrap();
            let (served, docs) = engine(config.clone());
            let (evaluated, _) = engine(config);
            let got = served.infer_batch(&docs).unwrap();
            let want = evaluated.evaluate_batch(&docs).unwrap().outcome;
            let bits = |o: &InferenceOutcome| -> Vec<u64> {
                o.theta.iter().flatten().map(|x| x.to_bits()).collect()
            };
            let shape = format!("{workers} worker(s) × {batch}");
            assert_eq!(bits(&got), bits(&want), "{shape}");
            assert_eq!(
                got.sim_seconds.to_bits(),
                want.sim_seconds.to_bits(),
                "{shape}"
            );
            assert_eq!(
                got.device_seconds.to_bits(),
                want.device_seconds.to_bits(),
                "{shape}"
            );
            assert_eq!(
                (got.docs, got.tokens, got.micro_batches),
                (want.docs, want.tokens, want.micro_batches),
                "{shape}"
            );
            assert_eq!(
                served.latency_quantiles(),
                evaluated.latency_quantiles(),
                "{shape}"
            );
        }
    }

    #[test]
    fn micro_batches_fan_out_across_workers() {
        let (eng, docs) = engine(cfg(9).workers(2).batch_size(3).build().unwrap());
        let out = eng.infer_batch(&docs).unwrap();
        assert!(out.micro_batches >= 2);
        let breakdowns = eng.per_gpu_breakdowns();
        assert_eq!(breakdowns.len(), 2);
        for (g, b) in breakdowns.iter().enumerate() {
            assert!(
                b.seconds(Phase::Inference) > 0.0,
                "worker {g} sampled nothing"
            );
        }
        assert!(out.device_seconds >= out.sim_seconds);
        assert!(out.sim_seconds > 0.0);
        // The profile records only inference launches — ϕ stays frozen.
        let profile = eng.profile();
        assert!(profile.records().iter().all(|l| l.name == "lda_infer"));
    }

    #[test]
    fn serving_counters_accumulate_across_batches() {
        let (eng, docs) = engine(cfg(2).batch_size(4).build().unwrap());
        eng.infer_batch(&docs[..5]).unwrap();
        eng.infer_batch(&docs[5..]).unwrap();
        assert_eq!(eng.docs_served(), docs.len() as u64);
        let tokens: u64 = docs.iter().map(|d| d.len() as u64).sum();
        assert_eq!(eng.tokens_served(), tokens);
    }

    #[test]
    fn traced_batches_emit_host_and_kernel_spans() {
        let (mut eng, docs) = engine(cfg(4).workers(2).batch_size(3).build().unwrap());
        let trace = Arc::new(TraceSink::new());
        eng.attach_observability(Some(Arc::clone(&trace)), None);
        eng.infer_batch(&docs).unwrap();
        let events = trace.events();
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::Begin && e.name == "infer batch 0 · gpu 0"));
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::Begin && e.name == "infer batch 0 · gpu 1"));
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::Begin && e.name == "lda_infer" && e.cat == "inference"));
    }

    #[test]
    fn builder_validates_once_and_rejects_bad_configs() {
        assert!(cfg(1).workers(0).build().is_err());
        assert!(cfg(1).batch_size(0).build().is_err());
        assert!(cfg(1).host_workers(0).build().is_err());
        let err = cfg(1).burnin(u32::MAX).samples(1).build().unwrap_err();
        assert!(
            err.to_string().contains("overflows the sweep count"),
            "{err}"
        );
        assert!(cfg(1).burnin(u32::MAX).samples(0).build().is_ok());
        // The defaults are valid by construction.
        assert!(ServeConfig::new(1).validate().is_ok());
        let (eng, _) = engine(ServeConfig::new(1));
        assert!(eng.infer_batch(&[]).is_err());
        let vocab = eng.model().vocab_size() as u32;
        let err = eng.infer_batch(&[vec![0, vocab]]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("outside the model vocabulary"), "{msg}");
    }

    #[test]
    fn builder_config_matches_defaults_path() {
        let (model, docs) = model_and_docs();
        let built = InferenceEngine::new(model, cfg(11).workers(2).batch_size(4).build().unwrap());
        let (plain, _) = engine(cfg(11).workers(2).batch_size(4).build().unwrap());
        assert_eq!(
            built.infer_batch(&docs).unwrap().theta,
            plain.infer_batch(&docs).unwrap().theta
        );
    }

    #[test]
    fn engine_serves_through_the_infer_trait_object() {
        let (model, docs) = model_and_docs();
        let boxed: Box<dyn Infer> = Box::new(
            InferenceEngine::new(model, cfg(11).workers(2).batch_size(4).build().unwrap())
                .with_version(ModelVersion::new("news", 7)),
        );
        let (plain, _) = engine(cfg(11).workers(2).batch_size(4).build().unwrap());
        assert_eq!(boxed.model_version().to_string(), "news@v7");
        assert!(boxed.latency_quantiles().is_none(), "nothing served yet");
        let out = boxed.infer_batch(&docs).unwrap();
        assert_eq!(out.theta, plain.infer_batch(&docs).unwrap().theta);
        assert!(boxed.latency_quantiles().is_some());
        assert!(boxed.recovery().is_clean());
    }

    #[test]
    fn re_enqueue_deals_ascending_ids_round_robin_over_survivors() {
        let failed: Vec<(usize, Range<usize>)> =
            vec![(7, 21..24), (1, 3..6), (5, 15..18), (3, 9..12)];
        let assigned = redistribute_batches(&failed, &[0, 2], 4);
        let ids = |wi: usize| -> Vec<usize> { assigned[wi].iter().map(|(mb, _)| *mb).collect() };
        // Ascending ids 1, 3, 5, 7 dealt alternately to survivors 0 and 2.
        assert_eq!(ids(0), vec![1, 5]);
        assert_eq!(ids(2), vec![3, 7]);
        assert!(assigned[1].is_empty() && assigned[3].is_empty());
        assert_eq!(assigned[0][1].1, 15..18);
    }

    #[test]
    fn transient_fault_retries_and_stays_bit_identical() {
        let config = cfg(11).workers(2).batch_size(3).build().unwrap();
        let (clean, docs) = engine(config.clone());
        let want = clean.infer_batch(&docs).unwrap();

        let plan = Arc::new(FaultPlan::from_specs(vec![FaultSpec::new(
            FaultKind::KernelLaunch,
            1,
            0,
        )]));
        let (mut faulty, _) = engine(config);
        faulty.attach_fault_plan(Arc::clone(&plan));
        let got = faulty.infer_batch(&docs).unwrap();
        assert_eq!(got.theta, want.theta);
        let rec = faulty.recovery();
        assert_eq!(rec.faults_injected, 1);
        assert_eq!(rec.retries, 1);
        assert_eq!(rec.workers_lost, 0);
        assert_eq!(faulty.num_alive(), 2);
    }

    #[test]
    fn a_retried_launch_counts_in_its_batch_time() {
        // One worker and one micro-batch, so the batch time is the launch.
        let config = cfg(11).workers(1).batch_size(64).build().unwrap();
        let (clean, docs) = engine(config.clone());
        let want = clean.infer_batch(&docs).unwrap();

        let plan = Arc::new(FaultPlan::from_specs(vec![FaultSpec::new(
            FaultKind::KernelLaunch,
            0,
            0,
        )]));
        let (mut faulty, _) = engine(config);
        faulty.attach_fault_plan(plan);
        let got = faulty.infer_batch(&docs).unwrap();
        assert_eq!(got.theta, want.theta);
        assert_eq!(faulty.recovery().retries, 1);
        // The failed launch models no time; the backoff before the retry
        // is the first, 1 ms.
        let backoff = culda_multigpu::worker::backoff_seconds(1);
        assert_eq!(backoff, 1e-3);
        assert_eq!(got.sim_seconds, want.sim_seconds + backoff);
        assert_eq!(got.device_seconds, want.device_seconds + backoff);
        let (_, _, clean_p99) = clean.latency_quantiles().unwrap();
        let (faulty_p50, _, _) = faulty.latency_quantiles().unwrap();
        assert!(clean_p99 < 0.5e-3, "clean p99 {clean_p99}");
        assert!(faulty_p50 > 0.5e-3, "faulty p50 {faulty_p50}");
    }

    #[test]
    fn dead_worker_batches_are_re_enqueued_on_survivors() {
        let config = cfg(11).workers(2).batch_size(3).build().unwrap();
        let (clean, docs) = engine(config.clone());
        let want = clean.evaluate_batch(&docs).unwrap();

        // Device 1 never launches again: its share must migrate to 0.
        let plan = Arc::new(FaultPlan::from_specs(vec![FaultSpec::new(
            FaultKind::KernelLaunch,
            1,
            0,
        )
        .permanent()]));
        let (mut faulty, _) = engine(config);
        faulty.attach_fault_plan(Arc::clone(&plan));
        let got = faulty.evaluate_batch(&docs).unwrap();
        assert_eq!(
            got.outcome.theta, want.outcome.theta,
            "re-served batches diverged"
        );
        assert_eq!(got.perplexity, want.perplexity);
        let rec = faulty.recovery();
        assert_eq!(rec.workers_lost, 1);
        assert!(rec.chunks_migrated >= 1, "{rec}");
        assert_eq!(faulty.num_alive(), 1);

        // The next batch routes around the dead worker entirely.
        let again = faulty.infer_batch(&docs).unwrap();
        assert_eq!(again.theta.len(), docs.len());
        assert_eq!(faulty.recovery().workers_lost, 1);
    }

    #[test]
    fn losing_every_worker_is_an_error_not_a_panic() {
        let config = cfg(11).workers(1).batch_size(4).build().unwrap();
        let plan = Arc::new(FaultPlan::from_specs(vec![FaultSpec::new(
            FaultKind::KernelLaunch,
            0,
            0,
        )
        .permanent()]));
        let (mut eng, docs) = engine(config);
        eng.attach_fault_plan(plan);
        match eng.infer_batch(&docs) {
            Err(ServeError::AllWorkersLost) => {}
            other => panic!("expected AllWorkersLost, got {other:?}"),
        }
        assert_eq!(eng.num_alive(), 0);
        assert!(matches!(
            eng.infer_batch(&docs),
            Err(ServeError::AllWorkersLost)
        ));
    }

    #[test]
    fn evaluate_corpus_scores_every_document() {
        let mut spec = SynthSpec::tiny();
        spec.num_docs = 24;
        let held = spec.generate();
        let (model, _) = model_and_docs();
        // Same synthetic vocabulary size, so ids line up.
        assert_eq!(model.vocab_size(), held.vocab_size());
        let eng = InferenceEngine::new(model, ServeConfig::new(6));
        let eval = eng.evaluate_corpus(&held).unwrap();
        assert_eq!(eval.outcome.docs, held.num_docs());
        assert_eq!(eval.outcome.tokens, held.num_tokens());
        assert_eq!(eval.doc_log_predictive.len(), held.num_docs());
    }
}
