//! The shard router: tenants → capacity-limited engine pools.
//!
//! Placement is a seeded FNV-1a hash of the tenant key over the *live*
//! pool list — deterministic for a fixed `(seed, alive-set)`, and
//! automatically re-spreading tenants across survivors when a pool dies.
//! Each pool is a [`Box<dyn Infer>`] (the router never sees the concrete
//! engine) with a document capacity per kernel dispatch: an admitted
//! batch is split per pool into capacity-sized engine calls, so one
//! giant tenant cannot starve a pool's other requests of latency.
//!
//! Failure domains mirror PR 4's training-side machinery one level up:
//! the engine already retries transient faults and re-enqueues a dead
//! worker's micro-batches on surviving workers; when an *entire pool*
//! exhausts that recovery ([`ServeError::AllWorkersLost`] and friends),
//! the router marks it dead and re-routes its unserved requests to the
//! surviving pools — same drain-to-survivors discipline, pool-granular.
//! Only when no pool survives does the error escape.
//!
//! Completion times use the simulated clock: within one dispatch a
//! pool serves its calls back-to-back from the batch's admission time,
//! and distinct pools run in parallel — the same critical-path model the
//! training fan-out reports.
//!
//! The host runs them in parallel too: every pool with work in a
//! dispatch is served on its own host thread (through the trainers'
//! [`run_workers`] fan-out), and the outcomes are applied in ascending
//! pool order afterwards. Each pool owns its engine, its RNG streams and
//! its clock, and the frozen ϕ they share is read-only, so θ̂,
//! completion times and the order of completed requests are the same as
//! serving the pools one after another.

use crate::admission::{AdmittedBatch, ServeRequest};
use crate::api::{Infer, ModelVersion};
use crate::error::ServeError;
use culda_metrics::{MetricsRegistry, TraceSink};
use culda_multigpu::run_workers;
use std::sync::Arc;

/// Trace `tid` for router control-plane events (pool deaths, swaps) —
/// past any plausible simulated-GPU ordinal.
pub const ROUTER_TRACE_TID: u32 = 900;

/// One serving result, per request, in dispatch order.
#[derive(Debug, Clone)]
pub struct CompletedRequest {
    /// The request's admission id.
    pub id: u64,
    /// Tenant the request belonged to.
    pub tenant: String,
    /// Pool index that served it (after any re-routing).
    pub pool: usize,
    /// Model version that served it: one handle per pool and dispatch,
    /// shared by every request that pool served in it.
    pub version: Arc<ModelVersion>,
    /// Documents in the request.
    pub docs: usize,
    /// Tokens scored.
    pub tokens: u64,
    /// Per-document θ̂, in the request's document order.
    pub theta: Vec<Vec<f64>>,
    /// Simulated arrival time (seconds).
    pub arrival: f64,
    /// Simulated completion time (seconds).
    pub completed_at: f64,
}

impl CompletedRequest {
    /// End-to-end simulated latency: queue wait + service.
    pub fn latency(&self) -> f64 {
        self.completed_at - self.arrival
    }
}

/// A pool's public counters, for `culda serve` output and tests.
#[derive(Debug, Clone)]
pub struct PoolStats {
    /// Pool index.
    pub pool: usize,
    /// Model version the pool's engine serves.
    pub version: ModelVersion,
    /// Whether the pool is still routable.
    pub alive: bool,
    /// Requests served.
    pub requests: u64,
    /// Documents served.
    pub docs: u64,
}

struct Pool {
    engine: Box<dyn Infer>,
    alive: bool,
    requests: u64,
    docs: u64,
}

/// The tenant-to-pool router.
pub struct ShardRouter {
    pools: Vec<Pool>,
    /// Max documents per engine call; an oversized single request is
    /// still served (alone) rather than wedged.
    capacity: usize,
    seed: u64,
    rerouted: u64,
    trace: Option<Arc<TraceSink>>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("pools", &self.pools.len())
            .field("capacity", &self.capacity)
            .field("seed", &self.seed)
            .field("rerouted", &self.rerouted)
            .finish()
    }
}

/// Seeded FNV-1a over the tenant key — the routing hash.
fn tenant_hash(seed: u64, tenant: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64 ^ seed;
    for b in tenant.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl ShardRouter {
    /// A router over `engines`, `capacity` documents per engine call.
    pub fn new(
        engines: Vec<Box<dyn Infer>>,
        capacity: usize,
        seed: u64,
    ) -> Result<Self, ServeError> {
        if engines.is_empty() {
            return Err(ServeError::Config("router needs at least one pool".into()));
        }
        if capacity == 0 {
            return Err(ServeError::Config(
                "pool capacity must be at least one document".into(),
            ));
        }
        Ok(Self {
            pools: engines
                .into_iter()
                .map(|engine| Pool {
                    engine,
                    alive: true,
                    requests: 0,
                    docs: 0,
                })
                .collect(),
            capacity,
            seed,
            rerouted: 0,
            trace: None,
            metrics: None,
        })
    }

    /// Attaches the PR-2 trace/metrics sinks: pool deaths and swaps become
    /// trace instants, routing totals become `serve.*` gauges/counters.
    pub fn attach_observability(
        &mut self,
        trace: Option<Arc<TraceSink>>,
        metrics: Option<Arc<MetricsRegistry>>,
    ) {
        self.trace = trace;
        self.metrics = metrics;
        self.export_gauges();
    }

    /// Total pools (live or dead).
    pub fn num_pools(&self) -> usize {
        self.pools.len()
    }

    /// Live pool indices, ascending.
    pub fn alive_pools(&self) -> Vec<usize> {
        (0..self.pools.len())
            .filter(|&i| self.pools[i].alive)
            .collect()
    }

    /// Requests re-routed off dead pools so far.
    pub fn rerouted(&self) -> u64 {
        self.rerouted
    }

    /// Per-pool counters.
    pub fn pool_stats(&self) -> Vec<PoolStats> {
        self.pools
            .iter()
            .enumerate()
            .map(|(i, p)| PoolStats {
                pool: i,
                version: p.engine.model_version(),
                alive: p.alive,
                requests: p.requests,
                docs: p.docs,
            })
            .collect()
    }

    /// The pool `tenant` routes to right now, or `None` if every pool is
    /// dead. Deterministic for a fixed `(seed, alive-set)`.
    pub fn route(&self, tenant: &str) -> Option<usize> {
        let alive = self.alive_pools();
        if alive.is_empty() {
            return None;
        }
        Some(alive[(tenant_hash(self.seed, tenant) % alive.len() as u64) as usize])
    }

    /// Serves one admitted batch: route each request, split per pool into
    /// capacity-limited engine calls, and re-route off any pool that dies
    /// mid-dispatch. Errs only when no live pool remains to absorb the
    /// work (or on a caller bug like out-of-vocabulary input).
    ///
    /// Every pool with work is served at the same time, one host thread
    /// per pool (a lone pool runs inline). Their outcomes are then applied
    /// in ascending pool order: completed requests are appended pool by
    /// pool, a pool-fatal error kills its pool and re-routes that pool's
    /// unserved requests in the next pass, and a non-fatal error returns
    /// the first such error in pool order. Unlike serving the pools one
    /// after another, the pools after a failing one have then also served
    /// their calls, so their counters and engines have advanced.
    pub fn dispatch(&mut self, batch: AdmittedBatch) -> Result<Vec<CompletedRequest>, ServeError> {
        let admitted_at = batch.admitted_at;
        let capacity = self.capacity;
        let mut pending = batch.requests;
        let mut completed = Vec::with_capacity(pending.len());
        while !pending.is_empty() {
            // Group FIFO-ordered requests by their routed pool.
            let mut by_pool: Vec<Vec<ServeRequest>> = vec![Vec::new(); self.pools.len()];
            for req in pending.drain(..) {
                let Some(pool) = self.route(&req.tenant) else {
                    return Err(ServeError::AllWorkersLost);
                };
                by_pool[pool].push(req);
            }
            let mut work: Vec<(usize, &mut Pool, Vec<ServeRequest>)> = self
                .pools
                .iter_mut()
                .zip(by_pool)
                .enumerate()
                .filter(|(_, (_, requests))| !requests.is_empty())
                .map(|(pool_id, (pool, requests))| (pool_id, pool, requests))
                .collect();
            let outcomes = run_workers(&mut work, |_, (pool_id, pool, requests)| {
                let requests = std::mem::take(requests);
                (
                    *pool_id,
                    Self::serve_on_pool(pool, *pool_id, capacity, requests, admitted_at),
                )
            });
            for (pool_id, outcome) in outcomes {
                match outcome {
                    Ok(done) => completed.extend(done),
                    Err((unserved, err)) => {
                        // Engine-level recovery is exhausted: the pool is a
                        // failure domain now, drain it to the survivors.
                        if !is_pool_fatal(&err) {
                            return Err(err);
                        }
                        self.kill_pool(pool_id, &err);
                        self.rerouted += unserved.len() as u64;
                        if let Some(m) = &self.metrics {
                            m.counter("serve.rerouted").add(unserved.len() as u64);
                        }
                        pending.extend(unserved);
                    }
                }
            }
        }
        if let Some(m) = &self.metrics {
            m.counter("serve.requests").add(completed.len() as u64);
            m.counter("serve.docs")
                .add(completed.iter().map(|c| c.docs as u64).sum());
            let latency = m.histogram("serve.request_latency");
            for c in &completed {
                latency.record(c.latency());
            }
        }
        self.export_gauges();
        Ok(completed)
    }

    /// Swaps in a fresh engine set (the green side of a blue/green swap):
    /// every pool gets a new backend and is revived. The pool count must
    /// be unchanged — routing determinism depends on it.
    pub fn replace_engines(&mut self, engines: Vec<Box<dyn Infer>>) -> Result<(), ServeError> {
        if engines.len() != self.pools.len() {
            return Err(ServeError::Config(format!(
                "swap must keep the pool count: have {}, got {}",
                self.pools.len(),
                engines.len()
            )));
        }
        for (pool, engine) in self.pools.iter_mut().zip(engines) {
            pool.engine = engine;
            pool.alive = true;
        }
        self.export_gauges();
        Ok(())
    }

    /// Serves `requests` on one pool: calls of at most `capacity` documents
    /// back-to-back on the pool's simulated clock. It borrows only its own
    /// pool, so the router can serve several pools at once. On a fatal
    /// engine error, returns every not-yet-completed request so the caller
    /// can re-route.
    #[allow(clippy::type_complexity)]
    fn serve_on_pool(
        pool: &mut Pool,
        pool_id: usize,
        capacity: usize,
        requests: Vec<ServeRequest>,
        admitted_at: f64,
    ) -> Result<Vec<CompletedRequest>, (Vec<ServeRequest>, ServeError)> {
        // Split into calls of ≤ capacity documents, never splitting a
        // request (an oversized one goes alone).
        let mut calls: Vec<Vec<ServeRequest>> = Vec::new();
        let mut docs = 0usize;
        for req in requests {
            if calls.is_empty() || docs + req.num_docs() > capacity {
                calls.push(Vec::new());
                docs = 0;
            }
            docs += req.num_docs();
            calls.last_mut().expect("just pushed").push(req);
        }

        let version = Arc::new(pool.engine.model_version());
        let mut clock = admitted_at;
        let mut completed = Vec::new();
        let mut calls = calls.into_iter();
        while let Some(call) = calls.next() {
            let flat: Vec<Vec<u32>> = call.iter().flat_map(|r| r.docs.iter().cloned()).collect();
            match pool.engine.infer_batch(&flat) {
                Ok(outcome) => {
                    clock += outcome.sim_seconds;
                    let mut theta = outcome.theta.into_iter();
                    for req in call {
                        let n = req.num_docs();
                        let req_theta: Vec<Vec<f64>> = theta.by_ref().take(n).collect();
                        let tokens: u64 = req.docs.iter().map(|d| d.len() as u64).sum();
                        pool.requests += 1;
                        pool.docs += n as u64;
                        completed.push(CompletedRequest {
                            id: req.id,
                            tenant: req.tenant,
                            pool: pool_id,
                            version: Arc::clone(&version),
                            docs: n,
                            tokens,
                            theta: req_theta,
                            arrival: req.arrival,
                            completed_at: clock,
                        });
                    }
                }
                Err(err) => {
                    let mut unserved = call;
                    unserved.extend(calls.flatten());
                    return Err((unserved, err));
                }
            }
        }
        Ok(completed)
    }

    fn kill_pool(&mut self, pool_id: usize, err: &ServeError) {
        self.pools[pool_id].alive = false;
        if let Some(t) = &self.trace {
            t.instant_sim(
                ROUTER_TRACE_TID,
                &format!("pool {pool_id} lost: {err}"),
                "serve",
                0.0,
            );
        }
        if let Some(m) = &self.metrics {
            m.counter("serve.pools.lost").inc();
        }
    }

    fn export_gauges(&self) {
        if let Some(m) = &self.metrics {
            m.gauge("serve.pools.alive")
                .set(self.alive_pools().len() as f64);
            m.gauge("serve.pools.total").set(self.pools.len() as f64);
        }
    }
}

/// Errors that kill a pool (vs. caller bugs that should propagate).
fn is_pool_fatal(err: &ServeError) -> bool {
    matches!(
        err,
        ServeError::WorkerLost { .. }
            | ServeError::AllWorkersLost
            | ServeError::WorkerPanicked { .. }
            | ServeError::Sim(_)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::InferenceOutcome;
    use culda_multigpu::RecoveryStats;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    /// A scripted backend: serves a fixed seconds-per-doc rate, dying
    /// permanently after an optional call budget.
    struct FakeEngine {
        version: ModelVersion,
        seconds_per_doc: f64,
        calls_before_death: Option<u64>,
        calls: Mutex<u64>,
    }

    impl FakeEngine {
        fn healthy(name: &str) -> Box<dyn Infer> {
            Box::new(FakeEngine {
                version: ModelVersion::new(name, 1),
                seconds_per_doc: 0.001,
                calls_before_death: None,
                calls: Mutex::new(0),
            })
        }

        fn dying_after(name: &str, calls: u64) -> Box<dyn Infer> {
            Box::new(FakeEngine {
                version: ModelVersion::new(name, 1),
                seconds_per_doc: 0.001,
                calls_before_death: Some(calls),
                calls: Mutex::new(0),
            })
        }
    }

    impl Infer for FakeEngine {
        fn infer_batch(&self, docs: &[Vec<u32>]) -> Result<InferenceOutcome, ServeError> {
            let mut calls = self.calls.lock().unwrap();
            if let Some(budget) = self.calls_before_death {
                if *calls >= budget {
                    return Err(ServeError::AllWorkersLost);
                }
            }
            *calls += 1;
            let tokens: u64 = docs.iter().map(|d| d.len() as u64).sum();
            let k = 2;
            Ok(InferenceOutcome {
                theta: vec![vec![1.0 / k as f64; k]; docs.len()],
                docs: docs.len(),
                tokens,
                micro_batches: 1,
                sim_seconds: self.seconds_per_doc * docs.len() as f64,
                device_seconds: self.seconds_per_doc * docs.len() as f64,
            })
        }

        fn latency_quantiles(&self) -> Option<(f64, f64, f64)> {
            None
        }

        fn recovery(&self) -> RecoveryStats {
            RecoveryStats::default()
        }

        fn model_version(&self) -> ModelVersion {
            self.version.clone()
        }
    }

    fn batch(tenants: &[&str], docs_each: usize, at: f64) -> AdmittedBatch {
        AdmittedBatch {
            requests: tenants
                .iter()
                .enumerate()
                .map(|(i, t)| ServeRequest {
                    id: i as u64,
                    tenant: (*t).to_string(),
                    docs: vec![vec![0, 1, 2]; docs_each],
                    arrival: at,
                })
                .collect(),
            admitted_at: at,
        }
    }

    fn router(pools: usize, capacity: usize, seed: u64) -> ShardRouter {
        ShardRouter::new(
            (0..pools).map(|_| FakeEngine::healthy("m")).collect(),
            capacity,
            seed,
        )
        .unwrap()
    }

    #[test]
    fn routing_is_deterministic_and_seed_sensitive() {
        let a = router(4, 64, 7);
        let b = router(4, 64, 7);
        let c = router(4, 64, 8);
        let tenants: Vec<String> = (0..40).map(|i| format!("tenant-{i}")).collect();
        let route_a: Vec<_> = tenants.iter().map(|t| a.route(t).unwrap()).collect();
        let route_b: Vec<_> = tenants.iter().map(|t| b.route(t).unwrap()).collect();
        let route_c: Vec<_> = tenants.iter().map(|t| c.route(t).unwrap()).collect();
        assert_eq!(route_a, route_b, "same seed, same placement");
        assert_ne!(route_a, route_c, "seed changes the spread");
        // Every pool gets some tenant (40 tenants over 4 pools).
        for p in 0..4 {
            assert!(route_a.contains(&p), "pool {p} unused");
        }
    }

    #[test]
    fn dispatch_respects_capacity_and_models_parallel_pools() {
        let mut r = router(2, 6, 7);
        let b = batch(&["a", "b", "c", "d", "e", "f"], 4, 1.0);
        let done = r.dispatch(b).unwrap();
        assert_eq!(done.len(), 6);
        // Requests are 4 docs; capacity 6 ⇒ one request per call, served
        // back-to-back per pool: completion times step by 0.004 within a
        // pool but pools overlap.
        for c in &done {
            assert!(c.latency() > 0.0);
            assert_eq!(c.docs, 4);
            assert_eq!(c.theta.len(), 4);
        }
        let stats = r.pool_stats();
        assert_eq!(stats.iter().map(|s| s.requests).sum::<u64>(), 6);
        let max_per_pool = stats.iter().map(|s| s.requests).max().unwrap();
        let per_pool_serial: Vec<_> = done
            .iter()
            .filter(|c| c.pool == done[0].pool)
            .map(|c| c.completed_at)
            .collect();
        assert!(per_pool_serial.windows(2).all(|w| w[1] > w[0]));
        let latest = done.iter().map(|c| c.completed_at).fold(0.0f64, f64::max);
        assert!(
            (latest - (1.0 + 0.004 * max_per_pool as f64)).abs() < 1e-12,
            "critical path is the busiest pool, got {latest}"
        );
    }

    #[test]
    fn dead_pool_drains_to_survivors() {
        let tenants = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let probe = router(2, 64, 7);
        let doomed = tenants
            .iter()
            .find(|t| probe.route(t).unwrap() == 0)
            .expect("some tenant routes to pool 0");
        let mut r = ShardRouter::new(
            vec![FakeEngine::dying_after("m", 0), FakeEngine::healthy("m")],
            64,
            7,
        )
        .unwrap();
        let done = r.dispatch(batch(&tenants, 1, 0.0)).unwrap();
        assert_eq!(done.len(), tenants.len(), "nothing dropped");
        assert_eq!(r.alive_pools(), vec![1]);
        assert!(r.rerouted() > 0);
        let served_doomed = done.iter().find(|c| c.tenant == *doomed).unwrap();
        assert_eq!(served_doomed.pool, 1, "re-routed to the survivor");
        // With every pool dead, dispatch errs instead of spinning.
        let mut dead = ShardRouter::new(vec![FakeEngine::dying_after("m", 0)], 64, 7).unwrap();
        assert!(matches!(
            dead.dispatch(batch(&["a"], 1, 0.0)),
            Err(ServeError::AllWorkersLost)
        ));
    }

    #[test]
    fn replace_engines_revives_pools_and_keeps_count() {
        let mut r = ShardRouter::new(
            vec![
                FakeEngine::dying_after("old", 0),
                FakeEngine::healthy("old"),
            ],
            64,
            7,
        )
        .unwrap();
        r.dispatch(batch(&["a", "b", "c", "d"], 1, 0.0)).unwrap();
        assert_eq!(r.alive_pools().len(), 1);
        assert!(r.replace_engines(vec![FakeEngine::healthy("new")]).is_err());
        r.replace_engines(vec![FakeEngine::healthy("new"), FakeEngine::healthy("new")])
            .unwrap();
        assert_eq!(r.alive_pools().len(), 2);
        for s in r.pool_stats() {
            assert_eq!(s.version.name, "new");
        }
    }

    /// Where two pools' engines meet: each call marks its pool entered,
    /// then waits until both have.
    #[derive(Default)]
    struct Rendezvous {
        entered: Mutex<[bool; 2]>,
        both_in: Condvar,
    }

    /// A healthy backend that serves only once the other pool's engine is
    /// inside a call too — or fails after a bounded wait.
    struct MeetingEngine {
        pool: usize,
        meet: Arc<Rendezvous>,
        inner: Box<dyn Infer>,
    }

    impl Infer for MeetingEngine {
        fn infer_batch(&self, docs: &[Vec<u32>]) -> Result<InferenceOutcome, ServeError> {
            let mut entered = self.meet.entered.lock().unwrap();
            entered[self.pool] = true;
            self.meet.both_in.notify_all();
            let (_entered, wait) = self
                .meet
                .both_in
                .wait_timeout_while(entered, Duration::from_secs(10), |e| !e[0] || !e[1])
                .unwrap();
            if wait.timed_out() {
                return Err(ServeError::Invalid(format!(
                    "pool {} ran alone for 10 s",
                    self.pool
                )));
            }
            self.inner.infer_batch(docs)
        }

        fn latency_quantiles(&self) -> Option<(f64, f64, f64)> {
            None
        }

        fn recovery(&self) -> RecoveryStats {
            RecoveryStats::default()
        }

        fn model_version(&self) -> ModelVersion {
            self.inner.model_version()
        }
    }

    #[test]
    fn pools_with_work_overlap_in_host_time() {
        let meet = Arc::new(Rendezvous::default());
        let engines: Vec<Box<dyn Infer>> = (0..2)
            .map(|pool| {
                Box::new(MeetingEngine {
                    pool,
                    meet: Arc::clone(&meet),
                    inner: FakeEngine::healthy("m"),
                }) as Box<dyn Infer>
            })
            .collect();
        let mut r = ShardRouter::new(engines, 64, 7).unwrap();
        let tenants = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let first = |pool| {
            *tenants
                .iter()
                .find(|t| r.route(t) == Some(pool))
                .expect("eight tenants reach both pools")
        };
        let (t0, t1) = (first(0), first(1));
        let done = r.dispatch(batch(&[t0, t1], 1, 0.0)).unwrap();
        let pools: Vec<usize> = done.iter().map(|c| c.pool).collect();
        assert_eq!(pools, vec![0, 1], "outcomes applied in pool order");
    }

    #[test]
    fn oversized_request_is_served_alone() {
        let mut r = router(1, 2, 7);
        let b = AdmittedBatch {
            requests: vec![ServeRequest {
                id: 0,
                tenant: "big".into(),
                docs: vec![vec![0]; 9],
                arrival: 0.0,
            }],
            admitted_at: 0.0,
        };
        let done = r.dispatch(b).unwrap();
        assert_eq!(done[0].docs, 9);
    }
}
