//! `culda serve` — run the serving control plane under an open-loop
//! synthetic load and report sustained throughput and tail latency.
//!
//! The command stands up the whole tier in-process: the checkpoint(s)
//! are published into a [`ModelRegistry`], a [`ServingPlane`] builds
//! engine pools over the latest version, and a deterministic
//! [`LoadGenerator`] offers Poisson traffic against it — optionally
//! firing a blue/green hot-swap mid-run (`--swap-at`, serving
//! `--model-b` or a republished copy of the same checkpoint). The JSON
//! report has the same shape as the serving line that `bench_modes`
//! commits in `BENCH_modes.jsonl`.

use crate::args::Args;
use crate::commands::{load_corpus, platform_or, CmdResult};
use culda_metrics::MetricsRegistry;
use culda_serve::{
    AdmissionConfig, FrozenModel, LoadGenerator, LoadSpec, ModelRegistry, PlaneConfig, ServeConfig,
    ServingPlane,
};
use std::fs::File;
use std::io::BufReader;
use std::sync::Arc;

/// `culda serve` — load-test the sharded serving control plane.
pub fn serve(args: &Args) -> CmdResult {
    let corpus = load_corpus(args)?;
    let model = FrozenModel::load(BufReader::new(File::open(args.require("model")?)?))?;

    let pools: usize = args.num_or("pools", 2)?;
    let pool_workers: usize = args.num_or("pool-workers", 2)?;
    let capacity: usize = args.num_or("capacity", 64)?;
    let batch_size: usize = args.num_or("batch-size", 16)?;
    let seed: u64 = args.num_or("seed", 0x5E47)?;
    let rate: f64 = args.num_or("rate", 500.0)?;
    let duration: f64 = args.num_or("duration", 1.0)?;
    let tenants: usize = args.num_or("tenants", 16)?;
    let docs_per_request: usize = args.num_or("docs-per-request", 2)?;
    let slo_ms: f64 = args.num_or("slo-ms", 20.0)?;
    let swap_at: Option<f64> =
        match args.require("swap-at") {
            Ok(s) => Some(s.parse().map_err(|_| {
                crate::commands::arg_err(format!("--swap-at {s:?} is not a number"))
            })?),
            Err(_) => None,
        };
    let platform = platform_or(args, "pascal")?;

    let registry = Arc::new(ModelRegistry::new());
    let v1 = registry.publish("default", model);
    println!(
        "published {v1} ({} topics)",
        registry
            .latest("default")
            .expect("just published")
            .1
            .phi()
            .num_topics
    );

    let plane_cfg = PlaneConfig {
        model: "default".into(),
        pools,
        capacity,
        engine: ServeConfig::builder(seed)
            .workers(pool_workers)
            .batch_size(batch_size)
            .gpu(platform.gpu.clone())
            .build()?,
        admission: AdmissionConfig {
            max_batch_docs: capacity,
            max_queue_docs: capacity.saturating_mul(64).max(capacity),
            slo_wait_seconds: slo_ms / 1e3,
        },
    };
    let mut plane = ServingPlane::new(Arc::clone(&registry), plane_cfg)?;
    let metrics = Arc::new(MetricsRegistry::new());
    plane.attach_observability(None, Some(Arc::clone(&metrics)));

    // The swap target publishes *after* the plane is up, so the run
    // starts blue on v1 and the mid-run swap flips to the new latest.
    if let Ok(path) = args.require("model-b") {
        let green = FrozenModel::load(BufReader::new(File::open(path)?))?;
        let v = registry.publish("default", green);
        println!("published {v} (hot-swap target) from {path}");
    } else if swap_at.is_some() {
        // A swap needs a second version; republish the same ϕ so the
        // blue/green machinery still exercises end to end.
        let (_, same) = registry.latest("default").expect("just published");
        let v = registry.publish("default", FrozenModel::freeze(same.as_ref()));
        println!("published {v} (republished checkpoint for the swap)");
    }

    let pool_docs: Vec<Vec<u32>> = corpus.docs.iter().map(|d| d.words.clone()).collect();
    let spec = LoadSpec {
        seed,
        rate_rps: rate,
        duration,
        tenants,
        docs_per_request,
        swap_at,
    };
    let gen = LoadGenerator::new(spec, pool_docs)?;
    println!(
        "serving {} on {pools} pool(s) × {pool_workers} worker(s) ({}); \
         offering {rate} req/s for {duration} s over {tenants} tenant(s)",
        plane.serving(),
        platform.gpu.name
    );

    let report = gen.run(&mut plane)?;
    println!(
        "offered {} req — completed {}, rejected {}, dropped {}",
        report.offered, report.completed, report.rejected, report.dropped
    );
    println!(
        "sustained {:.1} req/s over {:.3} simulated s ({} docs, {} tokens)",
        report.sustained_rps, report.makespan, report.docs, report.tokens
    );
    if let Some((p50, p95, p99)) = report.latency {
        println!(
            "request latency (simulated): p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms",
            p50 * 1e3,
            p95 * 1e3,
            p99 * 1e3
        );
    }
    if let Some(swap) = &report.swap {
        println!(
            "hot-swap {} -> {} at {:.3} s drained {} request(s); zero downtime",
            swap.from, swap.to, swap.swapped_at, swap.drained_requests
        );
    }
    for s in plane.router().pool_stats() {
        println!(
            "pool {}: {} — {} request(s), {} doc(s){}",
            s.pool,
            s.version,
            s.requests,
            s.docs,
            if s.alive { "" } else { " [dead]" }
        );
    }

    let json = report.to_json(gen.spec(), pools).render();
    match args.require("out") {
        Ok(path) => {
            std::fs::write(path, &json)?;
            println!("serving bench written to {path}");
        }
        Err(_) => println!("{json}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::{generate, train};

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("culda-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn serve_load_tests_and_hot_swaps_between_checkpoints() {
        let docword = tmp("sv.docword");
        let vocab = tmp("sv.vocab");
        let blue = tmp("sv.blue.phi");
        let green = tmp("sv.green.phi");
        let out = tmp("sv.bench.json");
        generate(&args(&format!(
            "generate --preset tiny --seed 15 --docword {} --vocab {}",
            docword.display(),
            vocab.display()
        )))
        .unwrap();
        for (model, iters) in [(&blue, 2), (&green, 4)] {
            train(&args(&format!(
                "train --docword {} --vocab {} --model {} --topics 8 --iters {iters} \
                 --score-every 0 --platform maxwell",
                docword.display(),
                vocab.display(),
                model.display()
            )))
            .unwrap();
        }
        serve(&args(&format!(
            "serve --docword {} --vocab {} --model {} --model-b {} \
             --pools 2 --pool-workers 1 --capacity 16 --batch-size 8 \
             --rate 300 --duration 0.2 --tenants 6 --swap-at 0.1 --out {}",
            docword.display(),
            vocab.display(),
            blue.display(),
            green.display(),
            out.display()
        )))
        .unwrap();
        let doc = culda_metrics::Json::parse(&std::fs::read_to_string(&out).unwrap())
            .expect("serving bench must be valid JSON");
        assert_eq!(doc.get("dropped").and_then(|d| d.as_f64()), Some(0.0));
        let offered = doc.get("offered").and_then(|d| d.as_f64()).unwrap();
        assert!(offered > 10.0, "0.2 s at 300 rps offers ~60, got {offered}");
        assert!(doc.get("sustained_rps").and_then(|d| d.as_f64()).unwrap() > 0.0);
        let swap = doc.get("swap").expect("swap section");
        assert_eq!(
            swap.get("from").and_then(|v| v.as_str()),
            Some("default@v1")
        );
        assert_eq!(swap.get("to").and_then(|v| v.as_str()), Some("default@v2"));
        assert!(
            doc.get("latency")
                .and_then(|l| l.get("p99_s"))
                .and_then(|v| v.as_f64())
                .is_some(),
            "p99 latency missing"
        );
    }

    #[test]
    fn serve_without_swap_needs_no_second_model() {
        let docword = tmp("sv1.docword");
        let vocab = tmp("sv1.vocab");
        let model = tmp("sv1.phi");
        generate(&args(&format!(
            "generate --preset tiny --seed 16 --docword {} --vocab {}",
            docword.display(),
            vocab.display()
        )))
        .unwrap();
        train(&args(&format!(
            "train --docword {} --vocab {} --model {} --topics 8 --iters 2 \
             --score-every 0 --platform maxwell",
            docword.display(),
            vocab.display(),
            model.display()
        )))
        .unwrap();
        let out = tmp("sv1.bench.json");
        serve(&args(&format!(
            "serve --docword {} --vocab {} --model {} --pools 1 --pool-workers 1 \
             --rate 200 --duration 0.1 --out {}",
            docword.display(),
            vocab.display(),
            model.display(),
            out.display()
        )))
        .unwrap();
        let doc = culda_metrics::Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(doc.get("swap"), Some(&culda_metrics::Json::Null));
        assert_eq!(doc.get("dropped").and_then(|d| d.as_f64()), Some(0.0));
    }
}
