//! The serving workload: a held-out slice of a PubMed-like corpus served
//! under open-loop Poisson load by a blue/green pair of trained models,
//! with a hot-swap mid-run.

use crate::ledger::{nearest_rank, repeat_setup, tail, Calibration, Report, Spans};
use crate::train::{self, Inputs, TrainSpec};
use crate::Opts;
use culda_corpus::{split_held_out, Xoshiro256};
use culda_gpusim::ProfileLog;
use culda_multigpu::RecoveryStats;
use culda_sampler::LdaModel;
use culda_serve::{
    AdmissionConfig, AdmissionQueue, CompletedRequest, FrozenModel, Infer, InferenceEngine,
    InferenceOutcome, ModelRegistry, ModelVersion, PlaneConfig, ServeConfig, ServeError,
    ServingPlane, ShardRouter,
};
use std::sync::Arc;
use std::time::Instant;

/// Registry name both model versions are published under.
const MODEL: &str = "default";

/// The serving workload's shape.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Training run that produces the served models (untimed prep).
    pub train: TrainSpec,
    /// Share of documents held out of training and used as requests.
    pub held_out_fraction: f64,
    /// Iteration after which the blue model is snapshotted; green is the
    /// model after all `train.iterations`.
    pub blue_after: u32,
    /// Offered load, requests per simulated second.
    pub rate_rps: f64,
    /// Arrival window, simulated seconds.
    pub duration_s: f64,
    /// Documents per request.
    pub docs_per_request: usize,
    /// Distinct tenant keys.
    pub tenants: usize,
    /// Simulated time of the blue → green hot-swap.
    pub swap_at_s: f64,
    /// Engine pools behind the router.
    pub pools: usize,
    /// Documents per engine call.
    pub capacity: usize,
    /// Documents per kernel launch inside an engine.
    pub batch_size: usize,
    /// Admission SLO wait, simulated seconds.
    pub slo_wait_s: f64,
}

impl ServeSpec {
    fn plane_config(&self, seed: u64) -> Result<PlaneConfig, String> {
        let engine = ServeConfig::builder(seed)
            .workers(1)
            .batch_size(self.batch_size)
            .host_workers(1)
            .build()
            .map_err(|e| format!("serve config: {e}"))?;
        Ok(PlaneConfig {
            model: MODEL.into(),
            pools: self.pools,
            capacity: self.capacity,
            engine,
            admission: AdmissionConfig {
                max_batch_docs: self.capacity,
                max_queue_docs: self.capacity * 256,
                slo_wait_seconds: self.slo_wait_s,
            },
        })
    }
}

/// One scheduled request.
struct Arrival {
    at: f64,
    tenant: String,
    docs: Vec<Vec<u32>>,
}

/// The open-loop schedule, generated before any serving starts.
struct Schedule {
    arrivals: Vec<Arrival>,
    /// The first generated arrival time past the window (where the
    /// generator stopped).
    end: f64,
    /// Whether every request document is distinct.
    unique_docs: bool,
}

impl Schedule {
    /// Poisson arrivals at `rate_rps` over `duration_s`, tenants drawn
    /// uniformly, documents taken in order from `pool`.
    fn generate(spec: &ServeSpec, seed: u64, pool: &[Vec<u32>]) -> Self {
        let mut rng = Xoshiro256::from_seed_stream(seed, 0x10ad);
        let mut arrivals = Vec::new();
        let mut cursor = 0usize;
        let mut now = 0.0f64;
        loop {
            now += -(1.0 - rng.next_f64()).ln() / spec.rate_rps;
            if now >= spec.duration_s {
                break;
            }
            let tenant = format!("tenant-{}", rng.next_u64() % spec.tenants as u64);
            let docs = (0..spec.docs_per_request)
                .map(|_| {
                    cursor += 1;
                    pool[(cursor - 1) % pool.len()].clone()
                })
                .collect();
            arrivals.push(Arrival {
                at: now,
                tenant,
                docs,
            });
        }
        Self {
            arrivals,
            end: now,
            unique_docs: cursor <= pool.len(),
        }
    }
}

/// A serving tier the load loop can drive.
trait Tier {
    fn submit(&mut self, tenant: &str, docs: Vec<Vec<u32>>, at: f64) -> Result<u64, ServeError>;
    fn pump(&mut self, now: f64) -> Result<Vec<CompletedRequest>, ServeError>;
    fn drain(&mut self, now: f64) -> Result<Vec<CompletedRequest>, ServeError>;
    fn hot_swap(&mut self, now: f64) -> Result<Vec<CompletedRequest>, ServeError>;
}

impl Tier for ServingPlane {
    fn submit(&mut self, tenant: &str, docs: Vec<Vec<u32>>, at: f64) -> Result<u64, ServeError> {
        ServingPlane::submit(self, tenant, docs, at)
    }

    fn pump(&mut self, now: f64) -> Result<Vec<CompletedRequest>, ServeError> {
        ServingPlane::pump(self, now)
    }

    fn drain(&mut self, now: f64) -> Result<Vec<CompletedRequest>, ServeError> {
        ServingPlane::drain(self, now)
    }

    fn hot_swap(&mut self, now: f64) -> Result<Vec<CompletedRequest>, ServeError> {
        ServingPlane::hot_swap(self, now).map(|(_, drained)| drained)
    }
}

/// What one load run produced.
struct Load {
    completed: Vec<CompletedRequest>,
    /// Schedule index of each admitted request, by request id.
    arrival_of_id: Vec<usize>,
    offered: u64,
    rejected: u64,
    host_s: f64,
}

impl Load {
    fn tokens(&self) -> u64 {
        self.completed.iter().map(|c| c.tokens).sum()
    }

    /// `(id, latency bits)` sorted by id: the exact per-request outcome.
    fn latencies(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .completed
            .iter()
            .map(|c| (c.id, c.latency().to_bits()))
            .collect();
        v.sort_unstable();
        v
    }
}

/// Arrivals between two calibration samples during an untraced load run.
const CALIBRATE_EVERY: usize = 25;

/// Drives `tier` through the schedule exactly as `LoadGenerator::run`
/// does, keeping every completed request. With `cal`, samples it every
/// [`CALIBRATE_EVERY`] arrivals and leaves that time out of `host_s`.
fn drive(
    tier: &mut dyn Tier,
    schedule: &Schedule,
    spec: &ServeSpec,
    mut cal: Option<&mut Calibration>,
) -> Result<Load, String> {
    let start = Instant::now();
    let mut calibrating = 0.0;
    let mut completed = Vec::new();
    let mut arrival_of_id = Vec::new();
    let mut swapped = false;
    let mut rejected = 0u64;
    for (i, a) in schedule.arrivals.iter().enumerate() {
        if let Some(cal) = cal.as_deref_mut().filter(|_| i % CALIBRATE_EVERY == 0) {
            calibrating += cal.sample();
        }
        if !swapped && a.at >= spec.swap_at_s {
            completed.extend(
                tier.hot_swap(spec.swap_at_s)
                    .map_err(|e| format!("hot swap: {e}"))?,
            );
            swapped = true;
        }
        completed.extend(tier.pump(a.at).map_err(|e| format!("pump: {e}"))?);
        match tier.submit(&a.tenant, a.docs.clone(), a.at) {
            Ok(id) => {
                debug_assert_eq!(id as usize, arrival_of_id.len(), "ids are dense");
                arrival_of_id.push(i);
            }
            Err(ServeError::Overloaded { .. }) => rejected += 1,
            Err(e) => return Err(format!("submit: {e}")),
        }
    }
    if !swapped {
        let at = spec.swap_at_s.max(schedule.end);
        completed.extend(tier.hot_swap(at).map_err(|e| format!("hot swap: {e}"))?);
    }
    completed.extend(
        tier.drain(spec.duration_s)
            .map_err(|e| format!("drain: {e}"))?,
    );
    Ok(Load {
        completed,
        arrival_of_id,
        offered: schedule.arrivals.len() as u64,
        rejected,
        host_s: start.elapsed().as_secs_f64() - calibrating,
    })
}

/// An engine wrapped in a host-time span.
struct TimedEngine {
    inner: Arc<InferenceEngine>,
    spans: Arc<Spans>,
}

impl Infer for TimedEngine {
    fn infer_batch(&self, docs: &[Vec<u32>]) -> Result<InferenceOutcome, ServeError> {
        self.spans
            .time("serve.engine", || self.inner.infer_batch(docs))
    }

    fn latency_quantiles(&self) -> Option<(f64, f64, f64)> {
        self.inner.latency_quantiles()
    }

    fn recovery(&self) -> RecoveryStats {
        self.inner.recovery()
    }

    fn model_version(&self) -> ModelVersion {
        Infer::model_version(&*self.inner)
    }
}

/// The serving tier rebuilt from its public parts, with a span around
/// every call into each part.
struct TracedTier {
    registry: Arc<ModelRegistry>,
    cfg: PlaneConfig,
    queue: AdmissionQueue,
    router: ShardRouter,
    spans: Arc<Spans>,
    /// Every engine built, for the kernel profile.
    engines: Vec<Arc<InferenceEngine>>,
}

impl TracedTier {
    fn new(
        registry: Arc<ModelRegistry>,
        cfg: PlaneConfig,
        spans: Arc<Spans>,
    ) -> Result<Self, String> {
        let mut engines = Vec::new();
        let pools = build_engines(&registry, &cfg, &spans, &mut engines)?;
        let router =
            ShardRouter::new(pools, cfg.capacity, cfg.engine.seed).map_err(|e| e.to_string())?;
        let queue = AdmissionQueue::new(cfg.admission.clone()).map_err(|e| e.to_string())?;
        Ok(Self {
            registry,
            cfg,
            queue,
            router,
            spans,
            engines,
        })
    }

    fn dispatch_all(&mut self, now: f64, drain: bool) -> Result<Vec<CompletedRequest>, ServeError> {
        let mut done = Vec::new();
        loop {
            let batches = self.spans.time("serve.queue", || {
                if drain {
                    self.queue.drain(now)
                } else {
                    self.queue.admit(now).into_iter().collect()
                }
            });
            if batches.is_empty() {
                return Ok(done);
            }
            for b in batches {
                done.extend(self.spans.time("serve.route", || self.router.dispatch(b))?);
            }
            if drain {
                return Ok(done);
            }
        }
    }

    /// Every kernel launch of every engine built so far.
    fn profile(&self) -> ProfileLog {
        let mut log = ProfileLog::new();
        for e in &self.engines {
            log.merge(&e.profile());
        }
        log
    }
}

impl Tier for TracedTier {
    fn submit(&mut self, tenant: &str, docs: Vec<Vec<u32>>, at: f64) -> Result<u64, ServeError> {
        let queue = &mut self.queue;
        self.spans
            .time("serve.submit", || queue.submit(tenant, docs, at))
    }

    fn pump(&mut self, now: f64) -> Result<Vec<CompletedRequest>, ServeError> {
        self.dispatch_all(now, false)
    }

    fn drain(&mut self, now: f64) -> Result<Vec<CompletedRequest>, ServeError> {
        self.dispatch_all(now, true)
    }

    fn hot_swap(&mut self, now: f64) -> Result<Vec<CompletedRequest>, ServeError> {
        let drained = self.dispatch_all(now, true)?;
        let spans = Arc::clone(&self.spans);
        spans.time("serve.swap", || -> Result<(), ServeError> {
            let pools = build_engines(&self.registry, &self.cfg, &self.spans, &mut self.engines)
                .map_err(ServeError::Invalid)?;
            self.router.replace_engines(pools)
        })?;
        Ok(drained)
    }
}

/// One timed engine per pool over the registry's latest version.
fn build_engines(
    registry: &ModelRegistry,
    cfg: &PlaneConfig,
    spans: &Arc<Spans>,
    all: &mut Vec<Arc<InferenceEngine>>,
) -> Result<Vec<Box<dyn Infer>>, String> {
    let (version, model) = registry
        .latest(&cfg.model)
        .ok_or_else(|| format!("model {} was never published", cfg.model))?;
    Ok((0..cfg.pools)
        .map(|_| {
            let engine = Arc::new(
                InferenceEngine::new(Arc::clone(&model), cfg.engine.clone())
                    .with_version(version.clone()),
            );
            all.push(Arc::clone(&engine));
            Box::new(TimedEngine {
                inner: engine,
                spans: Arc::clone(spans),
            }) as Box<dyn Infer>
        })
        .collect())
}

/// The generated inputs: the training split as UCI files, and the
/// held-out documents requests are drawn from.
fn generate(spec: &ServeSpec, seed: u64) -> Result<(Inputs, Vec<Vec<u32>>), String> {
    let corpus = train::synth(spec.train.preset, spec.train.scale, seed);
    let (train, held) = split_held_out(&corpus, spec.held_out_fraction, seed);
    let docs = held.docs.into_iter().map(|d| d.words).collect();
    Ok((Inputs::from_corpus(&train)?, docs))
}

/// The trained blue/green snapshots.
struct Prep {
    blue: Vec<u8>,
    green: Vec<u8>,
    z_hash: u64,
}

impl Prep {
    fn from_round(round: train::Round) -> Result<Self, String> {
        let mut snaps = round.snapshots.into_iter();
        let (Some(blue), Some(green)) = (snaps.next(), snaps.next()) else {
            return Err("training produced no model snapshots".into());
        };
        Ok(Self {
            blue,
            green,
            z_hash: round.z_hash,
        })
    }
}

/// Loads the blue model into a fresh registry, builds the tier on it with
/// `make`, then publishes green as the hot-swap target — the set-up a
/// user of `culda serve --model --model-b` pays.
fn set_up<T>(
    prep: &Prep,
    make: impl FnOnce(Arc<ModelRegistry>) -> Result<T, String>,
) -> Result<T, String> {
    let registry = Arc::new(ModelRegistry::new());
    let blue = FrozenModel::load(&prep.blue[..]).map_err(|e| format!("load blue: {e}"))?;
    registry.publish(MODEL, blue);
    let tier = make(Arc::clone(&registry))?;
    let green = FrozenModel::load(&prep.green[..]).map_err(|e| format!("load green: {e}"))?;
    registry.publish(MODEL, green);
    Ok(tier)
}

fn set_up_plane(spec: &ServeSpec, prep: &Prep, seed: u64) -> Result<ServingPlane, String> {
    let cfg = spec.plane_config(seed)?;
    set_up(prep, |registry| {
        ServingPlane::new(registry, cfg).map_err(|e| format!("serving plane: {e}"))
    })
}

/// `(ϕ_wt + β)/(n_t + Vβ)` for every cell, row-major by word.
fn word_topic_probs(model: &FrozenModel) -> Vec<f64> {
    let (k, v) = (model.num_topics(), model.vocab_size());
    let beta = model.priors().beta;
    let denom: Vec<f64> = (0..k)
        .map(|t| f64::from(model.topic_total(t)) + v as f64 * beta)
        .collect();
    let mut out = Vec::with_capacity(v * k);
    for w in 0..v {
        for (t, d) in denom.iter().enumerate() {
            out.push((f64::from(model.phi_count(w, t)) + beta) / d);
        }
    }
    out
}

/// Held-out negative log predictive per token of the served θ̂, each
/// request scored against the model version that served it.
fn held_out_nll(load: &Load, schedule: &Schedule, prep: &Prep) -> Result<f64, String> {
    let mut tables = Vec::new();
    for bytes in [&prep.blue, &prep.green] {
        let m = FrozenModel::load(&bytes[..]).map_err(|e| format!("load model: {e}"))?;
        tables.push((m.num_topics(), word_topic_probs(&m)));
    }
    let (mut ll, mut tokens) = (0.0f64, 0u64);
    for c in &load.completed {
        let (k, table) = &tables[(c.version.version as usize).clamp(1, 2) - 1];
        let docs = &schedule.arrivals[load.arrival_of_id[c.id as usize]].docs;
        for (doc, theta) in docs.iter().zip(&c.theta) {
            for &w in doc {
                let row = &table[w as usize * k..(w as usize + 1) * k];
                let p: f64 = row.iter().zip(theta).map(|(a, b)| a * b).sum();
                ll += p.max(f64::MIN_POSITIVE).ln();
            }
            tokens += doc.len() as u64;
        }
    }
    Ok(-ll / tokens as f64)
}

/// The checks every load run must pass.
fn check_load(load: &Load, report: &mut Report) {
    let completed = load.completed.len() as u64;
    let dropped = load.offered.saturating_sub(completed + load.rejected);
    report.ops(load.offered, load.offered - completed);
    report.check(
        &format!("dropped == 0 (dropped {dropped})"),
        dropped == 0 && completed + load.rejected == load.offered,
    );
    let rows_ok = load.completed.iter().flat_map(|c| &c.theta).all(|row| {
        let sum: f64 = row.iter().sum();
        (sum - 1.0).abs() <= 1e-9
    });
    report.check("every θ row sums to 1 ± 1e-9", rows_ok);
    let versions: Vec<u32> = load.completed.iter().map(|c| c.version.version).collect();
    report.check(
        "requests were served by both model versions",
        versions.contains(&1) && versions.contains(&2),
    );
}

/// Emits the end-to-end metrics of a load run.
fn emit_load_metrics(
    report: &mut Report,
    load: &Load,
    schedule: &Schedule,
    prep: &Prep,
) -> Result<(), String> {
    let latencies_ms: Vec<f64> = load.completed.iter().map(|c| c.latency() * 1e3).collect();
    let makespan = load
        .completed
        .iter()
        .map(|c| c.completed_at)
        .fold(0.0f64, f64::max);
    report.note(format!(
        "{} requests offered, {} completed, {} rejected",
        load.offered,
        load.completed.len(),
        load.rejected,
    ));
    report.metric(
        "tokens_per_s.modelled",
        load.tokens() as f64 / makespan,
        "tokens/s",
    );
    report.latencies("requests", &latencies_ms);
    report.metric(
        "nll_per_token",
        held_out_nll(load, schedule, prep)?,
        "nats/token",
    );
    Ok(())
}

fn check_prep(
    spec: &ServeSpec,
    opts: &Opts,
    prep: &Prep,
    schedule: &Schedule,
    report: &mut Report,
) {
    report.check("every request document is distinct", schedule.unique_docs);
    train::check_default_seed_hash(&spec.train, opts, prep.z_hash, report);
}

/// Runs the serving workload with tracing off: prep, set-up repetitions,
/// then load rounds until `opts.seconds` have been measured.
pub fn run(spec: &ServeSpec, opts: &Opts, cal: &mut Calibration) -> Result<Report, String> {
    let mut report = Report::default();
    let (inputs, held_out) = generate(spec, opts.seed)?;
    let snapshot_after = [spec.blue_after, spec.train.iterations];
    let round = train::untraced_round(
        &spec.train,
        &inputs,
        opts.seed,
        &snapshot_after,
        &mut report,
    )?;
    let prep = Prep::from_round(round)?;
    let schedule = Schedule::generate(spec, opts.seed, &held_out);
    check_prep(spec, opts, &prep, &schedule, &mut report);

    let (mut plane, setup) = repeat_setup(cal, || set_up_plane(spec, &prep, opts.seed))?;
    let setup_scale = cal.take_scale();

    let measuring = Instant::now();
    let mut loads = Vec::new();
    let mut host = Vec::new();
    loop {
        let load = drive(&mut plane, &schedule, spec, Some(cal))?;
        check_load(&load, &mut report);
        host.push((load.tokens() as f64 / load.host_s, cal.take_scale()));
        loads.push(load);
        if measuring.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        plane = set_up_plane(spec, &prep, opts.seed)?;
    }
    let first = &loads[0];
    report.check(
        "every round serves identical per-request latencies",
        loads.iter().all(|l| l.latencies() == first.latencies()),
    );
    report.setup(&setup, setup_scale);
    report.host_throughput(&host);
    emit_load_metrics(&mut report, first, &schedule, &prep)?;
    Ok(report)
}

/// Emits every serving-layer metric from the traced tier's spans; with
/// `None` (a workload that does not serve) every serving layer reads 0.
/// `docs` is the number of documents the tier served.
pub fn emit_serve_layers(report: &mut Report, traced: Option<(&Spans, u64)>) {
    let total = |name| traced.map_or(0.0, |(s, _)| s.total(name));
    let calls = traced.map_or_else(Vec::new, |(s, _)| s.durations("serve.engine"));
    let engine = total("serve.engine");
    let docs = traced.map_or(0, |(_, d)| d);
    report.metric("serve.engine.host_s", engine, "s");
    report.metric("serve.engine.calls", calls.len() as f64, "count");
    let p50 = nearest_rank(&calls, 0.5).unwrap_or(0.0);
    report.metric("serve.engine.host_p50_ms", p50 * 1e3, "ms");
    let tail = tail(&calls).map_or(0.0, |(_, s)| s);
    report.metric("serve.engine.host_tail_ms", tail * 1e3, "ms");
    report.metric(
        "serve.engine.docs_per_call",
        docs as f64 / calls.len().max(1) as f64,
        "docs",
    );
    report.metric("serve.queue.host_s", total("serve.queue"), "s");
    report.metric("serve.route.host_s", total("serve.route") - engine, "s");
    report.metric("serve.submit.host_s", total("serve.submit"), "s");
    report.metric("serve.swap.host_s", total("serve.swap"), "s");
}

/// θ̂ of every completed request, by request id.
fn thetas(load: &Load) -> Vec<(u64, &Vec<Vec<f64>>)> {
    let mut v: Vec<_> = load.completed.iter().map(|c| (c.id, &c.theta)).collect();
    v.sort_by_key(|(id, _)| *id);
    v
}

/// Runs the serving workload traced: the untraced plane run first, then
/// the traced prep and tier over the same schedule.
pub fn run_traced(spec: &ServeSpec, opts: &Opts, spans: &Arc<Spans>) -> Result<Report, String> {
    let mut report = Report::default();
    let (inputs, held_out) = spans.time("inputs", || generate(spec, opts.seed))?;
    let schedule = spans.time("inputs", || Schedule::generate(spec, opts.seed, &held_out));
    let snapshot_after = [spec.blue_after, spec.train.iterations];
    let (plane_load, plane_prep) = spans.time("untraced", || -> Result<_, String> {
        let round = train::untraced_round(
            &spec.train,
            &inputs,
            opts.seed,
            &snapshot_after,
            &mut report,
        )?;
        let prep = Prep::from_round(round)?;
        let load = drive(
            &mut set_up_plane(spec, &prep, opts.seed)?,
            &schedule,
            spec,
            None,
        )?;
        Ok((load, prep))
    })?;

    let (round, mut profile) = train::traced_pass(
        &spec.train,
        &inputs,
        opts.seed,
        &snapshot_after,
        spans,
        &mut report,
    )?;
    let prep = Prep::from_round(round)?;
    check_prep(spec, opts, &prep, &schedule, &mut report);
    report.check(
        "traced and untraced runs sample the same chain",
        prep.z_hash == plane_prep.z_hash,
    );
    let cfg = spec.plane_config(opts.seed)?;
    let mut tier = spans.time("serve.setup", || {
        set_up(&prep, |registry| {
            TracedTier::new(registry, cfg, Arc::clone(spans))
        })
    })?;
    let load = spans.time("serve.load", || drive(&mut tier, &schedule, spec, None))?;
    spans.time("checks", || {
        check_load(&load, &mut report);
        report.check(
            "the traced tier serves the same per-request latencies as ServingPlane",
            load.latencies() == plane_load.latencies(),
        );
        report.check(
            "the traced tier serves the same θ as ServingPlane",
            thetas(&load) == thetas(&plane_load),
        );
    });
    profile.merge(&tier.profile());
    crate::emit_kernel_layers(&mut report, &profile);
    let docs = load.completed.iter().map(|c| c.docs as u64).sum();
    emit_serve_layers(&mut report, Some((spans, docs)));
    report.metric("trace.wall_ratio", load.host_s / plane_load.host_s, "ratio");
    spans.time("teardown", move || drop((tier, load, plane_load)));
    Ok(report)
}
