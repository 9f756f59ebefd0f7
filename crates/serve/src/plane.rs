//! The serving plane: registry → admission → router → engine pools,
//! plus the blue/green hot-swap protocol.
//!
//! A [`ServingPlane`] is the whole tier for one served model name:
//! requests enter through [`submit`](ServingPlane::submit), pool in the
//! [`AdmissionQueue`], and each [`pump`](ServingPlane::pump) releases
//! SLO-due batches into the [`ShardRouter`]'s engine pools. All pools
//! serve the registry's *latest* version of the name at plane (or swap)
//! time.
//!
//! ## The swap protocol
//!
//! [`hot_swap`](ServingPlane::hot_swap) walks a three-state machine,
//! atomically from the caller's view (the plane is locked for the call):
//!
//! 1. **Drain** — the admission queue is flushed through the *blue*
//!    engines; every in-flight request completes on the model version it
//!    was admitted under. Nothing is cancelled, so a swap drops zero
//!    requests by construction.
//! 2. **Swap** — fresh *green* engines are built from the registry's
//!    now-latest snapshot and installed via
//!    [`ShardRouter::replace_engines`], which also revives dead pools.
//!    Green engines start with zero documents served, so their
//!    per-document RNG streams — and therefore θ — are bit-identical to
//!    a cold-started engine on the new model.
//! 3. **Re-route** — subsequent admissions dispatch to the green pools;
//!    the blue ϕ is dropped once its last engine goes.
//!
//! The swap emits a `serve.swap` trace instant and bumps the
//! `serve.swaps` counter, so it is visible in `culda trace` output.

use crate::admission::{AdmissionConfig, AdmissionQueue};
use crate::api::{Infer, ModelVersion};
use crate::engine::{check_docs, InferenceEngine, ServeConfig};
use crate::error::ServeError;
use crate::registry::ModelRegistry;
use crate::router::{CompletedRequest, ShardRouter, ROUTER_TRACE_TID};
use culda_metrics::{MetricsRegistry, TraceSink};
use culda_sampler::LdaModel;
use std::sync::Arc;

/// Shape of a serving plane.
#[derive(Debug, Clone)]
pub struct PlaneConfig {
    /// Registry name this plane serves (always the latest version).
    pub model: String,
    /// Engine pools behind the router.
    pub pools: usize,
    /// Documents per engine call (the router's capacity limit).
    pub capacity: usize,
    /// Configuration for every pool's engine.
    pub engine: ServeConfig,
    /// Admission policy.
    pub admission: AdmissionConfig,
}

impl PlaneConfig {
    /// A plane serving `model` with the serving defaults: 2 pools of
    /// default engines, capacity matching the admission batch cap.
    pub fn new(model: impl Into<String>, seed: u64) -> Self {
        let admission = AdmissionConfig::default();
        Self {
            model: model.into(),
            pools: 2,
            capacity: admission.max_batch_docs,
            engine: ServeConfig::new(seed),
            admission,
        }
    }

    /// Rejects shapes that cannot serve.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.pools == 0 {
            return Err(ServeError::Config("plane needs at least one pool".into()));
        }
        if self.capacity == 0 {
            return Err(ServeError::Config(
                "pool capacity must be at least one document".into(),
            ));
        }
        self.engine.validate()?;
        self.admission.validate()
    }
}

/// What one [`ServingPlane::hot_swap`] did.
#[derive(Debug, Clone)]
pub struct SwapReport {
    /// Version the blue pools were serving.
    pub from: ModelVersion,
    /// Version the green pools now serve.
    pub to: ModelVersion,
    /// Requests completed during the drain step.
    pub drained_requests: usize,
    /// Documents completed during the drain step.
    pub drained_docs: usize,
    /// Simulated time of the swap.
    pub swapped_at: f64,
}

/// The composed serving tier for one model name.
pub struct ServingPlane {
    registry: Arc<ModelRegistry>,
    cfg: PlaneConfig,
    serving: ModelVersion,
    /// Vocabulary size of the serving version, for checking requests at
    /// submit.
    vocab: usize,
    queue: AdmissionQueue,
    router: ShardRouter,
    swaps: u64,
    trace: Option<Arc<TraceSink>>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl std::fmt::Debug for ServingPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingPlane")
            .field("model", &self.cfg.model)
            .field("serving", &self.serving)
            .field("pools", &self.router.num_pools())
            .field("swaps", &self.swaps)
            .finish()
    }
}

impl ServingPlane {
    /// Builds the plane: pools of [`InferenceEngine`]s over the
    /// registry's latest version of `cfg.model`, behind the router and
    /// admission queue. Errs if the name was never published.
    pub fn new(registry: Arc<ModelRegistry>, cfg: PlaneConfig) -> Result<Self, ServeError> {
        cfg.validate()?;
        let (serving, vocab, engines) = build_pools(&registry, &cfg)?;
        let router = ShardRouter::new(engines, cfg.capacity, cfg.engine.seed)?;
        let queue = AdmissionQueue::new(cfg.admission.clone())?;
        Ok(Self {
            registry,
            cfg,
            serving,
            vocab,
            queue,
            router,
            swaps: 0,
            trace: None,
            metrics: None,
        })
    }

    /// Attaches trace/metrics sinks to the router (and future swaps).
    pub fn attach_observability(
        &mut self,
        trace: Option<Arc<TraceSink>>,
        metrics: Option<Arc<MetricsRegistry>>,
    ) {
        self.router
            .attach_observability(trace.clone(), metrics.clone());
        self.trace = trace;
        self.metrics = metrics;
        self.export_gauges();
    }

    /// The version the pools currently serve.
    pub fn serving(&self) -> ModelVersion {
        self.serving.clone()
    }

    /// The router, for stats inspection.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The admission queue, for stats inspection.
    pub fn queue(&self) -> &AdmissionQueue {
        &self.queue
    }

    /// Hot-swaps performed.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Submits one tenant request at simulated time `now`. A request the
    /// engines would refuse — no documents, or a word id outside the
    /// serving version's vocabulary — is rejected here with
    /// [`ServeError::Invalid`], before it is queued: it takes no id, and
    /// the requests it would have been admitted with still complete.
    pub fn submit(
        &mut self,
        tenant: impl Into<String>,
        docs: Vec<Vec<u32>>,
        now: f64,
    ) -> Result<u64, ServeError> {
        check_docs(&docs, self.vocab)?;
        let id = self.queue.submit(tenant, docs, now);
        self.export_gauges();
        id
    }

    /// Releases and serves every batch the admission policy considers due
    /// at `now`. Returns the completed requests (possibly empty).
    pub fn pump(&mut self, now: f64) -> Result<Vec<CompletedRequest>, ServeError> {
        let mut completed = Vec::new();
        while let Some(batch) = self.queue.admit(now) {
            completed.extend(self.router.dispatch(batch)?);
        }
        self.export_gauges();
        Ok(completed)
    }

    /// Flushes the queue entirely (ignoring the SLO timer) and serves it.
    pub fn drain(&mut self, now: f64) -> Result<Vec<CompletedRequest>, ServeError> {
        let mut completed = Vec::new();
        for batch in self.queue.drain(now) {
            completed.extend(self.router.dispatch(batch)?);
        }
        self.export_gauges();
        Ok(completed)
    }

    /// Blue/green hot-swap to the registry's (new) latest version of the
    /// served name: drain in-flight work on the blue engines, build green
    /// engines, re-route. See the module docs for the state machine.
    /// Returns the swap report and the requests completed by the drain.
    pub fn hot_swap(
        &mut self,
        now: f64,
    ) -> Result<(SwapReport, Vec<CompletedRequest>), ServeError> {
        // Drain: everything queued completes on the blue version.
        let drained = self.drain(now)?;
        // Swap: green engines from the registry's latest snapshot.
        let (to, vocab, engines) = build_pools(&self.registry, &self.cfg)?;
        self.router.replace_engines(engines)?;
        self.vocab = vocab;
        let from = std::mem::replace(&mut self.serving, to.clone());
        self.swaps += 1;
        if let Some(t) = &self.trace {
            t.instant_sim(
                ROUTER_TRACE_TID,
                &format!("serve.swap {from} -> {to}"),
                "serve",
                now,
            );
        }
        if let Some(m) = &self.metrics {
            m.counter("serve.swaps").inc();
        }
        self.export_gauges();
        Ok((
            SwapReport {
                from,
                to,
                drained_requests: drained.len(),
                drained_docs: drained.iter().map(|c| c.docs).sum(),
                swapped_at: now,
            },
            drained,
        ))
    }

    fn export_gauges(&self) {
        if let Some(m) = &self.metrics {
            m.gauge("serve.queue.depth").set(self.queue.depth() as f64);
            m.gauge("serve.queue.docs")
                .set(self.queue.queued_docs() as f64);
            m.gauge("serve.version").set(self.serving.version as f64);
        }
    }
}

/// Builds one engine per pool over the registry's latest snapshot of the
/// plane's model name; also returns the snapshot's version and vocabulary
/// size.
#[allow(clippy::type_complexity)]
fn build_pools(
    registry: &ModelRegistry,
    cfg: &PlaneConfig,
) -> Result<(ModelVersion, usize, Vec<Box<dyn Infer>>), ServeError> {
    let (version, model) = registry
        .latest(&cfg.model)
        .ok_or_else(|| ServeError::UnknownModel(cfg.model.clone()))?;
    let engines: Vec<Box<dyn Infer>> = (0..cfg.pools)
        .map(|_| {
            Box::new(
                InferenceEngine::new(Arc::clone(&model), cfg.engine.clone())
                    .with_version(version.clone()),
            ) as Box<dyn Infer>
        })
        .collect();
    Ok((version, model.vocab_size(), engines))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::FrozenModel;
    use culda_corpus::{partition_by_tokens, SortedChunk, SynthSpec};
    use culda_sampler::{accumulate_phi_host, ChunkState, PhiModel, Priors};

    fn frozen(seed: u64) -> (FrozenModel, Vec<Vec<u32>>) {
        let corpus = SynthSpec::tiny().generate();
        let chunk = SortedChunk::build(&corpus, &partition_by_tokens(&corpus, 1)[0]);
        let state = ChunkState::init_random(&chunk, 8, seed);
        let phi = PhiModel::zeros(8, corpus.vocab_size(), Priors::paper(8));
        accumulate_phi_host(&chunk, &state.z, &phi);
        let docs: Vec<Vec<u32>> = corpus
            .docs
            .iter()
            .take(12)
            .map(|d| d.words.clone())
            .collect();
        (FrozenModel::from_phi(phi), docs)
    }

    fn small_cfg(model: &str) -> PlaneConfig {
        PlaneConfig {
            model: model.into(),
            pools: 2,
            capacity: 8,
            engine: ServeConfig::builder(5)
                .workers(1)
                .batch_size(4)
                .burnin(2)
                .samples(1)
                .build()
                .unwrap(),
            admission: AdmissionConfig {
                max_batch_docs: 8,
                max_queue_docs: 64,
                slo_wait_seconds: 0.01,
            },
        }
    }

    #[test]
    fn unknown_model_is_rejected_up_front() {
        let reg = Arc::new(ModelRegistry::new());
        match ServingPlane::new(reg, small_cfg("ghost")) {
            Err(ServeError::UnknownModel(name)) => assert_eq!(name, "ghost"),
            other => panic!("expected UnknownModel, got {other:?}"),
        }
    }

    #[test]
    fn submit_pump_serves_through_the_pools() {
        let reg = Arc::new(ModelRegistry::new());
        let (model, docs) = frozen(3);
        reg.publish("news", model);
        let mut plane = ServingPlane::new(Arc::clone(&reg), small_cfg("news")).unwrap();
        assert_eq!(plane.serving().to_string(), "news@v1");
        for (i, d) in docs.iter().take(4).enumerate() {
            plane
                .submit(format!("tenant-{i}"), vec![d.clone()], 0.0)
                .unwrap();
        }
        // Under fill and under SLO: nothing due yet.
        assert!(plane.pump(0.0).unwrap().is_empty());
        let done = plane.pump(0.02).unwrap();
        assert_eq!(done.len(), 4);
        for c in &done {
            assert_eq!(c.version.to_string(), "news@v1");
            assert!(c.latency() >= 0.0);
        }
        assert_eq!(plane.queue().depth(), 0);
    }

    #[test]
    fn invalid_requests_are_refused_at_submit_and_spare_their_batch() {
        let reg = Arc::new(ModelRegistry::new());
        let (model, docs) = frozen(3);
        let vocab = model.vocab_size() as u32;
        reg.publish("news", model);
        let mut plane = ServingPlane::new(Arc::clone(&reg), small_cfg("news")).unwrap();
        let first = plane.submit("tenant-a", vec![docs[0].clone()], 0.0);
        assert_eq!(first.unwrap(), 0);
        match plane.submit("tenant-b", vec![vec![vocab + 5]], 0.0) {
            Err(ServeError::Invalid(msg)) => assert_eq!(
                msg,
                format!(
                    "document 0 has word id {}, outside the model vocabulary of {vocab}",
                    vocab + 5
                )
            ),
            other => panic!("expected Invalid, got {other:?}"),
        }
        match plane.submit("tenant-c", Vec::new(), 0.0) {
            Err(ServeError::Invalid(msg)) => assert_eq!(msg, "no documents to infer"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        assert_eq!(plane.queue().submitted(), 1, "nothing rejected is queued");
        let done = plane.pump(1.0).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tenant, "tenant-a");
        let next = plane.submit("tenant-b", vec![docs[1].clone()], 1.0);
        assert_eq!(next.unwrap(), 1, "the rejected requests took no id");
    }

    #[test]
    fn hot_swap_drains_then_serves_the_new_version() {
        let reg = Arc::new(ModelRegistry::new());
        let (blue, docs) = frozen(3);
        reg.publish("news", blue);
        let mut plane = ServingPlane::new(Arc::clone(&reg), small_cfg("news")).unwrap();
        plane.submit("a", vec![docs[0].clone()], 0.0).unwrap();
        plane.submit("b", vec![docs[1].clone()], 0.0).unwrap();

        let (green, _) = frozen(9);
        reg.publish("news", green);
        let (report, drained) = plane.hot_swap(0.5).unwrap();
        assert_eq!(report.from.to_string(), "news@v1");
        assert_eq!(report.to.to_string(), "news@v2");
        assert_eq!(report.drained_requests, 2);
        assert_eq!(drained.len(), 2);
        for c in &drained {
            assert_eq!(c.version.version, 1, "drained on the blue version");
        }
        assert_eq!(plane.serving().version, 2);
        assert_eq!(plane.swaps(), 1);

        // Post-swap requests serve v2 with cold-start θ: bit-identical to
        // a fresh engine on the new model.
        plane.submit("c", vec![docs[2].clone()], 0.6).unwrap();
        let done = plane.drain(0.7).unwrap();
        assert_eq!(done[0].version.version, 2);
        let (_, v2) = reg.latest("news").unwrap();
        let cold = InferenceEngine::new(v2, small_cfg("news").engine);
        let want = cold.infer_batch(&[docs[2].clone()]).unwrap();
        assert_eq!(done[0].theta, want.theta);
    }
}
