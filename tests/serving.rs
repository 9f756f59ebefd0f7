//! Control-plane property tests: routing determinism, capacity limits,
//! admission conservation, and the zero-downtime hot-swap contract.
//!
//! These drive the serving tier through its public surface — registry,
//! plane, router, admission queue, load generator — with randomized
//! workloads from a seeded [`Xoshiro256`], so every property failure is
//! replayable from the printed seed.

use culda::corpus::{Corpus, SynthSpec, Xoshiro256};
use culda::gpusim::{FaultKind, FaultPlan, FaultSpec, Platform};
use culda::multigpu::{build_trainer, PartitionPolicy, RecoveryStats, TrainerConfig};
use culda::serve::{
    AdmissionConfig, AdmissionQueue, FrozenModel, Infer, InferenceEngine, InferenceOutcome,
    LoadGenerator, LoadSpec, ModelRegistry, ModelVersion, PlaneConfig, ServeConfig, ServeError,
    ServingPlane, ShardRouter,
};
use std::sync::{Arc, Mutex, OnceLock};

/// Trains two checkpoint versions of the same corpus (blue at 4 sweeps,
/// green at 8) once per process, plus a shared document pool.
type Checkpoints = (Arc<FrozenModel>, Arc<FrozenModel>, Vec<Vec<u32>>);

fn checkpoints() -> &'static Checkpoints {
    static CELL: OnceLock<Checkpoints> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut spec = SynthSpec::tiny();
        spec.num_docs = 120;
        spec.vocab_size = 200;
        spec.seed = 31;
        let corpus: Corpus = spec.generate();
        let mut frozen = Vec::new();
        for sweeps in [4usize, 8] {
            let cfg = TrainerConfig::builder(8, Platform::pascal())
                .iterations(sweeps as u32)
                .score_every(0)
                .seed(9)
                .build()
                .unwrap();
            let mut t = build_trainer(PartitionPolicy::Document, &corpus, cfg).unwrap();
            for _ in 0..sweeps {
                t.try_step().unwrap();
            }
            frozen.push(Arc::new(FrozenModel::freeze(t.phi())));
        }
        let green = frozen.pop().unwrap();
        let blue = frozen.pop().unwrap();
        let docs = corpus
            .docs
            .iter()
            .take(24)
            .map(|d| d.words.clone())
            .collect();
        (blue, green, docs)
    })
}

fn plane_cfg(model: &str, pools: usize, capacity: usize, seed: u64) -> PlaneConfig {
    PlaneConfig {
        model: model.into(),
        pools,
        capacity,
        engine: ServeConfig::builder(seed)
            .workers(1)
            .batch_size(8)
            .burnin(2)
            .samples(1)
            .build()
            .unwrap(),
        admission: AdmissionConfig {
            max_batch_docs: capacity,
            max_queue_docs: capacity * 64,
            slo_wait_seconds: 0.01,
        },
    }
}

/// A recording backend: counts documents per engine call so capacity
/// properties are observable from outside the router.
struct RecordingEngine {
    calls: Arc<Mutex<Vec<usize>>>,
}

impl Infer for RecordingEngine {
    fn infer_batch(&self, docs: &[Vec<u32>]) -> Result<InferenceOutcome, ServeError> {
        self.calls.lock().unwrap().push(docs.len());
        let tokens: u64 = docs.iter().map(|d| d.len() as u64).sum();
        Ok(InferenceOutcome {
            theta: vec![vec![0.5, 0.5]; docs.len()],
            docs: docs.len(),
            tokens,
            micro_batches: 1,
            sim_seconds: 1e-3 * docs.len() as f64,
            device_seconds: 1e-3 * docs.len() as f64,
        })
    }

    fn latency_quantiles(&self) -> Option<(f64, f64, f64)> {
        None
    }

    fn recovery(&self) -> RecoveryStats {
        RecoveryStats::default()
    }

    fn model_version(&self) -> ModelVersion {
        ModelVersion::new("rec", 1)
    }
}

#[test]
fn routing_is_deterministic_across_plane_instances() {
    let (blue, _, _) = checkpoints();
    let reg = Arc::new(ModelRegistry::new());
    reg.publish("news", Arc::clone(blue));
    for seed in [3u64, 17, 0xBEEF] {
        let a = ServingPlane::new(Arc::clone(&reg), plane_cfg("news", 4, 16, seed)).unwrap();
        let b = ServingPlane::new(Arc::clone(&reg), plane_cfg("news", 4, 16, seed)).unwrap();
        for i in 0..64 {
            let tenant = format!("tenant-{i}");
            assert_eq!(
                a.router().route(&tenant),
                b.router().route(&tenant),
                "seed {seed}: placement must be a pure function of (seed, tenant)"
            );
        }
    }
    // Placement spreads: with 64 tenants over 4 pools every pool is hit.
    let plane = ServingPlane::new(Arc::clone(&reg), plane_cfg("news", 4, 16, 3)).unwrap();
    let mut hit = [false; 4];
    for i in 0..64 {
        hit[plane.router().route(&format!("tenant-{i}")).unwrap()] = true;
    }
    assert!(hit.iter().all(|&h| h), "some pool never routed: {hit:?}");
}

#[test]
fn capacity_is_never_exceeded_for_splittable_batches() {
    let mut rng = Xoshiro256::from_seed_stream(77, 0xCAFE);
    for trial in 0..8 {
        let capacity = 3 + (rng.next_u64() % 6) as usize; // 3..=8
        let calls = Arc::new(Mutex::new(Vec::new()));
        let engines: Vec<Box<dyn Infer>> = (0..2)
            .map(|_| {
                Box::new(RecordingEngine {
                    calls: Arc::clone(&calls),
                }) as Box<dyn Infer>
            })
            .collect();
        let mut router = ShardRouter::new(engines, capacity, 7).unwrap();
        let mut queue = AdmissionQueue::new(AdmissionConfig {
            max_batch_docs: capacity,
            max_queue_docs: 1024,
            slo_wait_seconds: 0.0,
        })
        .unwrap();
        let mut offered_docs = 0usize;
        for i in 0..40 {
            // Request sizes never exceed capacity, so no call may either.
            let n = 1 + (rng.next_u64() % capacity as u64) as usize;
            offered_docs += n;
            queue
                .submit(format!("t{}", i % 11), vec![vec![0u32, 1]; n], i as f64)
                .unwrap();
        }
        let mut served_docs = 0usize;
        for batch in queue.drain(100.0) {
            assert!(
                batch.num_docs() <= capacity,
                "trial {trial}: admitted batch of {} docs over cap {capacity}",
                batch.num_docs()
            );
            served_docs += batch.num_docs();
            router.dispatch(batch).unwrap();
        }
        assert_eq!(served_docs, offered_docs, "trial {trial}: docs conserved");
        for &docs in calls.lock().unwrap().iter() {
            assert!(
                docs <= capacity,
                "trial {trial}: engine call saw {docs} docs, capacity {capacity}"
            );
        }
    }
}

#[test]
fn admission_is_fifo_and_conserves_requests() {
    let mut rng = Xoshiro256::from_seed_stream(5, 0xF1F0);
    let mut queue = AdmissionQueue::new(AdmissionConfig {
        max_batch_docs: 8,
        max_queue_docs: 4096,
        slo_wait_seconds: 0.1,
    })
    .unwrap();
    let mut submitted = Vec::new();
    for i in 0..100 {
        let n = 1 + (rng.next_u64() % 5) as usize;
        let id = queue
            .submit(format!("t{}", i % 7), vec![vec![0u32]; n], i as f64 * 1e-3)
            .unwrap();
        submitted.push(id);
    }
    let mut released = Vec::new();
    for batch in queue.drain(1.0) {
        released.extend(batch.requests.iter().map(|r| r.id));
    }
    assert_eq!(released, submitted, "FIFO order across batch boundaries");
    assert_eq!(queue.depth(), 0);
    assert_eq!(queue.queued_docs(), 0);
}

#[test]
fn hot_swap_under_load_drops_nothing_and_matches_cold_start() {
    let (blue, green, docs) = checkpoints();
    let reg = Arc::new(ModelRegistry::new());
    reg.publish("news", Arc::clone(blue));
    let mut plane = ServingPlane::new(Arc::clone(&reg), plane_cfg("news", 2, 16, 11)).unwrap();
    reg.publish("news", Arc::clone(green));

    let spec = LoadSpec {
        seed: 23,
        rate_rps: 400.0,
        duration: 0.25,
        tenants: 10,
        docs_per_request: 2,
        swap_at: Some(0.12),
    };
    let gen = LoadGenerator::new(spec, docs.clone()).unwrap();
    let report = gen.run(&mut plane).unwrap();

    assert!(report.offered > 20, "0.25 s at 400 rps offers ~100");
    assert_eq!(report.dropped, 0, "a correct swap loses zero requests");
    assert_eq!(report.rejected, 0, "queue is sized for the workload");
    assert_eq!(report.completed, report.offered);
    let swap = report.swap.as_ref().expect("swap fired");
    assert_eq!(swap.from.to_string(), "news@v1");
    assert_eq!(swap.to.to_string(), "news@v2");
    assert_eq!(plane.serving().version, 2);

    // Bit-identity: swap once more with nothing in flight, so the probe
    // is the green pools' very first work — the swapped-in engines start
    // with virgin RNG streams and must match a cold-started engine.
    reg.publish("news", Arc::clone(green));
    plane.hot_swap(0.9).unwrap();
    assert_eq!(plane.serving().version, 3);
    let probe = vec![docs[0].clone(), docs[1].clone()];
    plane.submit("probe", probe.clone(), 1.0).unwrap();
    let done = plane.drain(1.1).unwrap();
    assert_eq!(done.len(), 1);
    let cold = InferenceEngine::new(Arc::clone(green), plane_cfg("news", 2, 16, 11).engine);
    let want = cold.infer_batch(&probe).unwrap();
    assert_eq!(
        done[0].theta, want.theta,
        "post-swap θ must be bit-identical to a cold-started engine"
    );
}

#[test]
fn swap_to_the_same_version_set_is_idempotent_for_routing() {
    let (blue, _, docs) = checkpoints();
    let reg = Arc::new(ModelRegistry::new());
    reg.publish("news", Arc::clone(blue));
    let mut plane = ServingPlane::new(Arc::clone(&reg), plane_cfg("news", 3, 16, 5)).unwrap();
    let before: Vec<_> = (0..32)
        .map(|i| plane.router().route(&format!("tenant-{i}")))
        .collect();
    reg.publish("news", Arc::clone(blue));
    plane.submit("a", vec![docs[0].clone()], 0.0).unwrap();
    let (swap, drained) = plane.hot_swap(0.5).unwrap();
    assert_eq!(swap.drained_requests, 1);
    assert_eq!(drained.len(), 1);
    let after: Vec<_> = (0..32)
        .map(|i| plane.router().route(&format!("tenant-{i}")))
        .collect();
    assert_eq!(before, after, "swap must not move tenants between pools");
}

/// An engine whose calls take one lock shared by every pool, so pools
/// that the router serves concurrently run one call at a time.
struct Serialised {
    inner: InferenceEngine,
    lock: Arc<Mutex<()>>,
}

impl Infer for Serialised {
    fn infer_batch(&self, docs: &[Vec<u32>]) -> Result<InferenceOutcome, ServeError> {
        let _one_at_a_time = self.lock.lock().unwrap();
        self.inner.infer_batch(docs)
    }

    fn latency_quantiles(&self) -> Option<(f64, f64, f64)> {
        self.inner.latency_quantiles()
    }

    fn recovery(&self) -> RecoveryStats {
        self.inner.recovery()
    }

    fn model_version(&self) -> ModelVersion {
        Infer::model_version(&self.inner)
    }
}

/// Everything a served request carries, with the floats as bits.
type Served = (
    u64,
    String,
    usize,
    ModelVersion,
    usize,
    u64,
    Vec<Vec<u64>>,
    u64,
);

/// One pool's `PoolStats`: pool, version, alive, requests, documents.
type PoolCounters = (usize, ModelVersion, bool, u64, u64);

/// Serves one seeded schedule through 3 pools of real engines, capacity 4
/// under 12-document batches, so each pool makes several calls per
/// dispatch. `dying` arms a permanent launch fault on that pool's only
/// device from its fourth engine call on; `serialise` makes every engine
/// call take one shared lock. Returns every completed request and every
/// pool's counters.
fn serve_schedule(serialise: bool, dying: Option<usize>) -> (Vec<Served>, Vec<PoolCounters>) {
    let (blue, _, docs) = checkpoints();
    let lock = Arc::new(Mutex::new(()));
    let cfg = plane_cfg("news", 3, 4, 13).engine;
    let engines: Vec<Box<dyn Infer>> = (0..3)
        .map(|pool| {
            let mut engine = InferenceEngine::new(Arc::clone(blue), cfg.clone())
                .with_version(ModelVersion::new("news", 1));
            if dying == Some(pool) {
                let fault = FaultSpec::new(FaultKind::KernelLaunch, 0, 3).permanent();
                engine.attach_fault_plan(Arc::new(FaultPlan::from_specs(vec![fault])));
            }
            if serialise {
                Box::new(Serialised {
                    inner: engine,
                    lock: Arc::clone(&lock),
                }) as Box<dyn Infer>
            } else {
                Box::new(engine) as Box<dyn Infer>
            }
        })
        .collect();
    let mut router = ShardRouter::new(engines, 4, 13).unwrap();
    let mut queue = AdmissionQueue::new(AdmissionConfig {
        max_batch_docs: 12,
        max_queue_docs: 1024,
        slo_wait_seconds: 0.005,
    })
    .unwrap();
    let mut rng = Xoshiro256::from_seed_stream(41, 0x5E71);
    let mut completed = Vec::new();
    let mut now = 0.0f64;
    let mut cursor = 0usize;
    for _ in 0..80 {
        now += -(1.0 - rng.next_f64()).ln() / 600.0;
        while let Some(batch) = queue.admit(now) {
            completed.extend(router.dispatch(batch).unwrap());
        }
        let n = 1 + (rng.next_u64() % 3) as usize;
        let request: Vec<Vec<u32>> = (cursor..cursor + n)
            .map(|i| docs[i % docs.len()].clone())
            .collect();
        cursor += n;
        let tenant = format!("tenant-{}", rng.next_u64() % 9);
        queue.submit(tenant, request, now).unwrap();
    }
    for batch in queue.drain(now) {
        completed.extend(router.dispatch(batch).unwrap());
    }
    let served = completed
        .into_iter()
        .map(|c| {
            let theta = c
                .theta
                .iter()
                .map(|row| row.iter().map(|x| x.to_bits()).collect())
                .collect();
            (
                c.id,
                c.tenant,
                c.pool,
                ModelVersion::clone(&c.version),
                c.docs,
                c.tokens,
                theta,
                c.completed_at.to_bits(),
            )
        })
        .collect();
    let stats = router
        .pool_stats()
        .into_iter()
        .map(|s| (s.pool, s.version, s.alive, s.requests, s.docs))
        .collect();
    (served, stats)
}

#[test]
fn concurrent_dispatch_equals_serialised_dispatch_bit_for_bit() {
    for dying in [None, Some(1)] {
        let (concurrent, concurrent_stats) = serve_schedule(false, dying);
        let (serialised, serialised_stats) = serve_schedule(true, dying);
        assert_eq!(concurrent.len(), 80, "every request completes");
        assert!(
            concurrent == serialised,
            "pool death {dying:?}: completed requests differ"
        );
        assert_eq!(concurrent_stats, serialised_stats, "pool death {dying:?}");
        // The doomed pool dies mid-run: it served before its fault fired.
        for (pool, _, alive, requests, _) in &concurrent_stats {
            assert_eq!(*alive, dying != Some(*pool), "pool {pool}");
            assert!(*requests > 0, "pool {pool} served nothing");
        }
    }
}
