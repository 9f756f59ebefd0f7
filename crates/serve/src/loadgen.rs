//! Deterministic open-loop load generation against a [`ServingPlane`].
//!
//! Open-loop means arrivals follow their own schedule — a Poisson process
//! with exponential inter-arrival times — regardless of how fast the tier
//! serves, so queueing and overload actually show up instead of the
//! closed-loop trap where a slow server politely throttles its own
//! offered load. Arrival times, tenant choices, and document picks all
//! come from one [`Xoshiro256`] stream keyed by the spec seed: the same
//! spec replays the same workload, request for request, which is what
//! lets the serving line of `BENCH_modes.jsonl` be a regression artifact
//! rather than a dice roll.
//!
//! The generator can fire one mid-run [`hot_swap`](ServingPlane::hot_swap)
//! (`swap_at`), making it the harness for the zero-downtime claim: the
//! report counts every request as completed, rejected, or dropped, and a
//! correct swap leaves `dropped == 0`.

use crate::error::ServeError;
use crate::plane::{ServingPlane, SwapReport};
use crate::router::CompletedRequest;
use culda_corpus::Xoshiro256;
use culda_metrics::{nearest_rank, Json};

/// Workload shape for one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// RNG seed for arrivals, tenants, and document picks.
    pub seed: u64,
    /// Offered load (requests per simulated second).
    pub rate_rps: f64,
    /// Arrival window (simulated seconds); the tier drains afterwards.
    pub duration: f64,
    /// Distinct tenant keys requests are drawn over.
    pub tenants: usize,
    /// Documents per request.
    pub docs_per_request: usize,
    /// Fire a hot-swap at this simulated time, if set.
    pub swap_at: Option<f64>,
}

impl Default for LoadSpec {
    fn default() -> Self {
        Self {
            seed: 42,
            rate_rps: 200.0,
            duration: 1.0,
            tenants: 16,
            docs_per_request: 2,
            swap_at: None,
        }
    }
}

impl LoadSpec {
    /// Rejects degenerate workloads.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.rate_rps.is_nan() || self.rate_rps <= 0.0 {
            return Err(ServeError::Config("load rate must be > 0 rps".into()));
        }
        if self.duration.is_nan() || self.duration <= 0.0 {
            return Err(ServeError::Config("load duration must be > 0 s".into()));
        }
        if self.tenants == 0 || self.docs_per_request == 0 {
            return Err(ServeError::Config(
                "load needs >= 1 tenant and >= 1 doc per request".into(),
            ));
        }
        Ok(())
    }
}

/// What a load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests the generator offered.
    pub offered: u64,
    /// Requests that completed with results.
    pub completed: u64,
    /// Requests the admission queue rejected (backpressure).
    pub rejected: u64,
    /// Requests neither completed nor rejected — must be 0 for a
    /// correct tier; a hot-swap that loses work shows up here.
    pub dropped: u64,
    /// Documents completed.
    pub docs: u64,
    /// Tokens scored.
    pub tokens: u64,
    /// Offered rate from the spec (req/s).
    pub offered_rps: f64,
    /// Completed requests over the simulated makespan (req/s).
    pub sustained_rps: f64,
    /// Simulated time of the last completion.
    pub makespan: f64,
    /// `(p50, p95, p99)` end-to-end request latency, seconds: exact
    /// nearest-rank values over every completed request.
    pub latency: Option<(f64, f64, f64)>,
    /// Mean end-to-end request latency, seconds.
    pub latency_mean: Option<f64>,
    /// The mid-run swap, if one fired.
    pub swap: Option<SwapReport>,
}

impl LoadReport {
    /// Renders the report as one JSON document: the `culda serve --out`
    /// file and the serving line of `BENCH_modes.jsonl`.
    pub fn to_json(&self, spec: &LoadSpec, pools: usize) -> Json {
        let latency = match (self.latency, self.latency_mean) {
            (Some((p50, p95, p99)), Some(mean)) => Json::obj()
                .with("p50_s", p50)
                .with("p95_s", p95)
                .with("p99_s", p99)
                .with("mean_s", mean),
            _ => Json::Null,
        };
        let swap = match &self.swap {
            Some(s) => Json::obj()
                .with("from", s.from.to_string())
                .with("to", s.to.to_string())
                .with("at_s", s.swapped_at)
                .with("drained_requests", s.drained_requests)
                .with("drained_docs", s.drained_docs),
            None => Json::Null,
        };
        Json::obj()
            .with("bench", "serving")
            .with("seed", spec.seed)
            .with("pools", pools)
            .with("tenants", spec.tenants)
            .with("docs_per_request", spec.docs_per_request)
            .with("duration_s", spec.duration)
            .with("offered_rps", self.offered_rps)
            .with("sustained_rps", self.sustained_rps)
            .with("offered", self.offered)
            .with("completed", self.completed)
            .with("rejected", self.rejected)
            .with("dropped", self.dropped)
            .with("docs", self.docs)
            .with("tokens", self.tokens)
            .with("makespan_s", self.makespan)
            .with("latency", latency)
            .with("swap", swap)
    }
}

/// The open-loop generator: a spec plus the document pool requests draw
/// from (cycled deterministically).
#[derive(Debug)]
pub struct LoadGenerator {
    spec: LoadSpec,
    pool: Vec<Vec<u32>>,
}

impl LoadGenerator {
    /// A generator drawing request documents from `pool` (cycled).
    pub fn new(spec: LoadSpec, pool: Vec<Vec<u32>>) -> Result<Self, ServeError> {
        spec.validate()?;
        if pool.is_empty() {
            return Err(ServeError::Invalid(
                "load generator needs a non-empty document pool".into(),
            ));
        }
        Ok(Self { spec, pool })
    }

    /// The workload spec.
    pub fn spec(&self) -> &LoadSpec {
        &self.spec
    }

    /// Drives `plane` through one open-loop run: Poisson arrivals over
    /// `[0, duration)`, an optional hot-swap, then a final drain. Errors
    /// only on tier-level failure (every pool dead, invalid input);
    /// admission rejections are counted, not fatal.
    pub fn run(&self, plane: &mut ServingPlane) -> Result<LoadReport, ServeError> {
        let spec = &self.spec;
        let mut rng = Xoshiro256::from_seed_stream(spec.seed, 0x10ad);
        let mut offered = 0u64;
        let mut rejected = 0u64;
        let mut completed: Vec<CompletedRequest> = Vec::new();
        let mut swap: Option<SwapReport> = None;
        let mut doc_cursor = 0usize;
        let mut now = 0.0f64;

        loop {
            // Exponential inter-arrival: Poisson process at `rate_rps`.
            let u = rng.next_f64();
            now += -(1.0 - u).ln() / spec.rate_rps;
            if now >= spec.duration {
                break;
            }
            if let Some(at) = spec.swap_at {
                if swap.is_none() && now >= at {
                    let (report, drained) = plane.hot_swap(at)?;
                    completed.extend(drained);
                    swap = Some(report);
                }
            }
            // Serve whatever became due before this arrival.
            completed.extend(plane.pump(now)?);
            let tenant = format!("tenant-{}", rng.next_u64() % spec.tenants as u64);
            let docs: Vec<Vec<u32>> = (0..spec.docs_per_request)
                .map(|_| {
                    let d = self.pool[doc_cursor % self.pool.len()].clone();
                    doc_cursor += 1;
                    d
                })
                .collect();
            offered += 1;
            match plane.submit(tenant, docs, now) {
                Ok(_) => {}
                Err(ServeError::Overloaded { .. }) => rejected += 1,
                Err(e) => return Err(e),
            }
        }
        // A swap scheduled after the last arrival still fires.
        if let Some(at) = spec.swap_at {
            if swap.is_none() {
                let (report, drained) = plane.hot_swap(at.max(now))?;
                completed.extend(drained);
                swap = Some(report);
            }
        }
        completed.extend(plane.drain(spec.duration)?);

        let mut makespan = 0.0f64;
        let mut docs = 0u64;
        let mut tokens = 0u64;
        let mut latency_sum = 0.0f64;
        let mut latencies = Vec::with_capacity(completed.len());
        for c in &completed {
            latencies.push(c.latency());
            latency_sum += c.latency();
            makespan = makespan.max(c.completed_at);
            docs += c.docs as u64;
            tokens += c.tokens;
        }
        let n = completed.len() as u64;
        latencies.sort_by(f64::total_cmp);
        let quantiles = (|| {
            Some((
                nearest_rank(&latencies, 0.5)?,
                nearest_rank(&latencies, 0.95)?,
                nearest_rank(&latencies, 0.99)?,
            ))
        })();
        Ok(LoadReport {
            offered,
            completed: n,
            rejected,
            dropped: offered - n - rejected,
            docs,
            tokens,
            offered_rps: spec.rate_rps,
            sustained_rps: if makespan > 0.0 {
                n as f64 / makespan
            } else {
                0.0
            },
            makespan,
            latency: quantiles,
            latency_mean: if n > 0 {
                Some(latency_sum / n as f64)
            } else {
                None
            },
            swap,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::engine::ServeConfig;
    use crate::frozen::FrozenModel;
    use crate::plane::PlaneConfig;
    use crate::registry::ModelRegistry;
    use culda_corpus::{partition_by_tokens, SortedChunk, SynthSpec};
    use culda_sampler::{accumulate_phi_host, ChunkState, PhiModel, Priors};
    use std::sync::Arc;

    fn setup(swap_at: Option<f64>) -> (Arc<ModelRegistry>, ServingPlane, LoadGenerator) {
        let corpus = SynthSpec::tiny().generate();
        let chunk = SortedChunk::build(&corpus, &partition_by_tokens(&corpus, 1)[0]);
        let phi = PhiModel::zeros(8, corpus.vocab_size(), Priors::paper(8));
        accumulate_phi_host(&chunk, &ChunkState::init_random(&chunk, 8, 5).z, &phi);
        let reg = Arc::new(ModelRegistry::new());
        reg.publish("default", FrozenModel::from_phi(phi));
        let cfg = PlaneConfig {
            model: "default".into(),
            pools: 2,
            capacity: 16,
            engine: ServeConfig::builder(7)
                .workers(1)
                .batch_size(8)
                .burnin(2)
                .samples(1)
                .build()
                .unwrap(),
            admission: AdmissionConfig {
                max_batch_docs: 16,
                max_queue_docs: 256,
                slo_wait_seconds: 0.02,
            },
        };
        let plane = ServingPlane::new(Arc::clone(&reg), cfg).unwrap();
        let pool: Vec<Vec<u32>> = corpus
            .docs
            .iter()
            .take(20)
            .map(|d| d.words.clone())
            .collect();
        let spec = LoadSpec {
            seed: 11,
            rate_rps: 300.0,
            duration: 0.3,
            tenants: 8,
            docs_per_request: 2,
            swap_at,
        };
        let gen = LoadGenerator::new(spec, pool).unwrap();
        (reg, plane, gen)
    }

    #[test]
    fn open_loop_run_is_deterministic_and_drops_nothing() {
        let (_, mut plane_a, gen) = setup(None);
        let a = gen.run(&mut plane_a).unwrap();
        assert!(a.offered > 10, "0.3 s at 300 rps should offer ~90");
        assert_eq!(a.dropped, 0);
        assert_eq!(a.completed + a.rejected, a.offered);
        assert!(a.sustained_rps > 0.0);
        assert!(a.latency.is_some());

        let (_, mut plane_b, _) = setup(None);
        let b = gen.run(&mut plane_b).unwrap();
        assert_eq!(a.offered, b.offered, "same seed, same arrivals");
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.latency, b.latency);
    }

    #[test]
    fn report_renders_the_bench_document() {
        let (_, mut plane, gen) = setup(Some(0.15));
        let report = gen.run(&mut plane).unwrap();
        assert!(report.swap.is_some(), "swap_at inside the window fires");
        assert_eq!(report.dropped, 0, "hot-swap drops nothing");
        let json = report.to_json(gen.spec(), 2).render();
        assert!(json.contains("\"sustained_rps\""));
        assert!(json.contains("\"p99_s\""));
        assert!(json.contains("\"swap\""));
        let parsed = Json::parse(&json).unwrap();
        match parsed {
            Json::Obj(_) => {}
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        assert!(LoadSpec {
            rate_rps: 0.0,
            ..LoadSpec::default()
        }
        .validate()
        .is_err());
        assert!(LoadSpec {
            tenants: 0,
            ..LoadSpec::default()
        }
        .validate()
        .is_err());
        assert!(LoadGenerator::new(LoadSpec::default(), vec![]).is_err());
    }
}
