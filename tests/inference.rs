//! End-to-end serving tests: train through the unified `LdaTrainer`
//! surface, freeze ϕ into a `CULDAPHI` checkpoint, and drive the
//! inference engine — checking determinism, θ normalization, burn-in
//! perplexity behaviour, and the CTEF discipline of inference traces.

use culda::corpus::{split_held_out, Corpus, SynthSpec};
use culda::gpusim::Platform;
use culda::metrics::{Json, TraceSink, HOST_PID, SIM_PID};
use culda::multigpu::{build_trainer, PartitionPolicy, TrainerConfig};
use culda::serve::{FrozenModel, InferenceEngine, ServeConfig};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Trains once per process: returns the frozen model as checkpoint bytes
/// (so each test exercises the load path) plus the held-out split.
fn trained() -> &'static (Vec<u8>, Corpus) {
    static CELL: OnceLock<(Vec<u8>, Corpus)> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut spec = SynthSpec::tiny();
        spec.num_docs = 200;
        spec.vocab_size = 300;
        spec.avg_doc_len = 30.0;
        spec.seed = 13;
        let corpus = spec.generate();
        let (train, held) = split_held_out(&corpus, 0.15, 13);
        let cfg = TrainerConfig::builder(12, Platform::pascal().with_gpus(2))
            .iterations(12)
            .score_every(0)
            .seed(5)
            .build()
            .unwrap();
        let mut trainer = build_trainer(PartitionPolicy::Document, &train, cfg).unwrap();
        for _ in 0..12 {
            trainer.try_step().unwrap();
        }
        let mut bytes = Vec::new();
        FrozenModel::freeze(trainer.phi()).save(&mut bytes).unwrap();
        (bytes, held)
    })
}

fn engine(cfg: ServeConfig) -> InferenceEngine {
    let (bytes, _) = trained();
    InferenceEngine::new(FrozenModel::load(&bytes[..]).unwrap(), cfg)
}

#[test]
fn serving_is_deterministic_across_workers_and_batching() {
    let (_, held) = trained();
    let wide = engine(
        ServeConfig::builder(21)
            .workers(1)
            .batch_size(256)
            .build()
            .unwrap(),
    )
    .evaluate_corpus(held)
    .unwrap();
    let narrow = engine(
        ServeConfig::builder(21)
            .workers(3)
            .batch_size(5)
            .build()
            .unwrap(),
    )
    .evaluate_corpus(held)
    .unwrap();
    assert_eq!(
        wide.outcome.theta, narrow.outcome.theta,
        "batching must be invisible"
    );
    assert_eq!(wide.perplexity, narrow.perplexity);
    assert_eq!(wide.perplexity_by_sweep, narrow.perplexity_by_sweep);
    assert!(narrow.outcome.micro_batches > wide.outcome.micro_batches);
    // Seeds matter: a different chain gives a different θ.
    let other = engine(
        ServeConfig::builder(22)
            .workers(1)
            .batch_size(256)
            .build()
            .unwrap(),
    )
    .evaluate_corpus(held)
    .unwrap();
    assert_ne!(wide.outcome.theta, other.outcome.theta);
}

/// `Σ_w ln Σ_k θ̂_k (ϕ_{w,k} + β)·inv_k` for one document, reading ϕ one
/// cell at a time.
fn per_cell_log_predictive(model: &FrozenModel, words: &[u32], theta: &[f64]) -> f64 {
    let phi = model.phi();
    let beta = model.priors().beta;
    let inv = phi.inv_denominators();
    let mut ll = 0.0;
    for &w in words {
        let mut p = 0.0f64;
        for (t, &th) in theta.iter().enumerate() {
            p += th * (phi.phi.get(w as usize, t) as f64 + beta) * inv[t] as f64;
        }
        ll += p.max(f64::MIN_POSITIVE).ln();
    }
    ll
}

#[test]
fn engine_scores_equal_a_per_cell_reference() {
    let (bytes, held) = trained();
    let model = FrozenModel::load(&bytes[..]).unwrap();
    let m = &model.phi().phi;
    let dense = (0..m.num_rows()).filter(|&v| m.row_is_dense(v)).count();
    assert!(
        dense > 0 && dense < m.num_rows(),
        "{dense} of {} rows dense",
        m.num_rows()
    );
    let out = engine(
        ServeConfig::builder(31)
            .workers(2)
            .batch_size(7)
            .build()
            .unwrap(),
    )
    .evaluate_corpus(held)
    .unwrap();
    let want: Vec<f64> = held
        .docs
        .iter()
        .zip(&out.outcome.theta)
        .map(|(doc, theta)| per_cell_log_predictive(&model, &doc.words, theta))
        .collect();
    let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
    assert_eq!(bits(&out.doc_log_predictive), bits(&want));
    let perplexity = (-want.iter().sum::<f64>() / out.outcome.tokens as f64).exp();
    assert_eq!(out.perplexity.to_bits(), perplexity.to_bits());
}

#[test]
fn theta_rows_are_normalized_probability_vectors() {
    let (_, held) = trained();
    let out = engine(ServeConfig::builder(4).batch_size(17).build().unwrap())
        .evaluate_corpus(held)
        .unwrap()
        .outcome;
    assert_eq!(out.theta.len(), held.num_docs());
    assert_eq!(out.tokens, held.num_tokens());
    for row in &out.theta {
        let sum: f64 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "theta row sums to {sum}");
        assert!(row.iter().all(|&x| x > 0.0 && x < 1.0));
    }
}

#[test]
fn held_out_perplexity_is_nonincreasing_across_burnin() {
    let (_, held) = trained();
    let out = engine(
        ServeConfig::builder(33)
            .burnin(6)
            .samples(2)
            .build()
            .unwrap(),
    )
    .evaluate_corpus(held)
    .unwrap();
    let curve = &out.perplexity_by_sweep;
    assert_eq!(curve.len(), 8);
    for (s, pair) in curve.windows(2).enumerate() {
        assert!(
            pair[1] <= pair[0],
            "perplexity rose from {} to {} at sweep {s}",
            pair[0],
            pair[1]
        );
    }
    assert!(
        curve[curve.len() - 1] < 0.995 * curve[0],
        "burn-in barely moved: {} -> {}",
        curve[0],
        curve[curve.len() - 1]
    );
    assert!(out.perplexity.is_finite() && out.perplexity > 1.0);
}

#[test]
fn inference_trace_obeys_ctef_discipline() {
    let (_, held) = trained();
    let mut eng = engine(
        ServeConfig::builder(8)
            .workers(2)
            .batch_size(6)
            .build()
            .unwrap(),
    );
    let sink = Arc::new(TraceSink::new());
    eng.attach_observability(Some(sink.clone()), None);
    let out = eng.evaluate_corpus(held).unwrap().outcome;
    assert!(out.micro_batches >= 2, "need a real fan-out to trace");

    let doc = Json::parse(&sink.export_chrome_json()).expect("trace must parse");
    let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
    let s = |e: &Json, k: &str| -> String {
        e.get(k)
            .and_then(|v| v.as_str())
            .unwrap_or_default()
            .to_string()
    };
    let f = |e: &Json, k: &str| -> f64 { e.get(k).and_then(|v| v.as_f64()).unwrap() };

    let mut stacks: HashMap<(u32, u32), Vec<String>> = HashMap::new();
    let mut last_ts: HashMap<(u32, u32), f64> = HashMap::new();
    let mut kernel_spans = 0usize;
    let mut host_gpus = Vec::new();
    for e in events {
        let ph = s(e, "ph");
        if ph == "M" {
            continue;
        }
        let name = s(e, "name");
        let track = (f(e, "pid") as u32, f(e, "tid") as u32);
        let ts = f(e, "ts");
        let prev = last_ts.entry(track).or_insert(f64::NEG_INFINITY);
        assert!(ts >= *prev, "ts regressed on {track:?} at {name}");
        *prev = ts;
        match ph.as_str() {
            "B" => {
                stacks.entry(track).or_default().push(name.clone());
                if track.0 == SIM_PID {
                    assert_eq!(name, "lda_infer", "serving launches only lda_infer");
                    assert_eq!(s(e, "cat"), "inference", "kernel span phase cat");
                    assert!(
                        e.get("args").and_then(|a| a.get("grid")).is_some(),
                        "kernel span without grid arg"
                    );
                    kernel_spans += 1;
                } else if track.0 == HOST_PID && name.starts_with("infer batch") {
                    host_gpus.push(track.1);
                }
            }
            "E" => {
                let open = stacks
                    .entry(track)
                    .or_default()
                    .pop()
                    .unwrap_or_else(|| panic!("E without open B on {track:?}"));
                assert_eq!(open, name, "mismatched B/E pair on {track:?}");
            }
            _ => {}
        }
    }
    for (track, stack) in &stacks {
        assert!(stack.is_empty(), "unclosed spans {stack:?} on {track:?}");
    }
    assert_eq!(
        kernel_spans, out.micro_batches,
        "one kernel span per launch"
    );
    host_gpus.sort_unstable();
    host_gpus.dedup();
    assert_eq!(host_gpus, vec![0, 1], "both workers emit batch host spans");
}
