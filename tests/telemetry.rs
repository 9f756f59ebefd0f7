//! Run-health telemetry acceptance tests.
//!
//! The contract: periodic held-out evaluation is read-only (ϕ is
//! bit-identical with evaluation on or off), held-out perplexity descends
//! across burn-in, the health detectors fire under injected faults and
//! their events survive the JSONL round trip and land in the trace, and
//! the OpenMetrics exposition of a real training registry parses back
//! cleanly.

use culda::corpus::{split_held_out, Corpus, SynthSpec};
use culda::gpusim::{FaultPlan, Platform};
use culda::metrics::{
    lint_openmetrics, parse_snapshots, render_openmetrics, HealthKind, HealthMonitor, HealthSample,
    MetricsRegistry, MetricsSnapshot, SnapshotRecord, SnapshotWriter, TraceSink,
};
use culda::multigpu::{build_trainer, PartitionPolicy, TrainerConfig};
use culda::sampler::PhiModel;
use culda::serve::{HeldOutEvaluator, ServeConfig};
use std::sync::Arc;

const K: usize = 8;

fn corpus() -> Corpus {
    SynthSpec::tiny().generate()
}

fn cfg(iters: u32, platform: Platform) -> TrainerConfig {
    TrainerConfig::builder(K, platform)
        .iterations(iters)
        .score_every(1)
        .seed(3)
        .build()
        .expect("valid config")
}

fn eval_cfg() -> ServeConfig {
    ServeConfig::builder(99)
        .workers(1)
        .burnin(4)
        .samples(2)
        .build()
        .unwrap()
}

fn phi_counts(phi: &PhiModel) -> Vec<u32> {
    (0..phi.phi.len()).map(|i| phi.phi.load(i)).collect()
}

#[test]
fn held_out_perplexity_descends_across_burn_in() {
    let corpus = corpus();
    let (_, held_out) = split_held_out(&corpus, 0.15, 7);
    let mut trainer = build_trainer(
        PartitionPolicy::Document,
        &corpus,
        cfg(12, Platform::maxwell()),
    )
    .expect("trainer builds");
    let mut eval = HeldOutEvaluator::new(&held_out, eval_cfg()).expect("evaluator builds");
    let mut ppl = Vec::new();
    for i in 0..12u32 {
        trainer.try_step().expect("clean run");
        if (i + 1) % 3 == 0 {
            ppl.push(eval.evaluate(trainer.phi()).expect("eval runs").perplexity);
        }
    }
    assert_eq!(ppl.len(), 4);
    assert!(ppl.iter().all(|p| p.is_finite() && *p > 1.0));
    assert!(
        ppl.last().unwrap() < ppl.first().unwrap(),
        "held-out perplexity did not descend across burn-in: {ppl:?}"
    );
}

#[test]
fn evaluation_never_perturbs_training() {
    let corpus = corpus();
    let (_, held_out) = split_held_out(&corpus, 0.2, 11);

    let mut plain = build_trainer(
        PartitionPolicy::Document,
        &corpus,
        cfg(6, Platform::pascal()),
    )
    .expect("trainer builds");
    for _ in 0..6 {
        plain.try_step().expect("clean run");
    }

    let mut observed = build_trainer(
        PartitionPolicy::Document,
        &corpus,
        cfg(6, Platform::pascal()),
    )
    .expect("trainer builds");
    let mut eval = HeldOutEvaluator::new(&held_out, eval_cfg()).expect("evaluator builds");
    for _ in 0..6 {
        observed.try_step().expect("clean run");
        eval.evaluate(observed.phi()).expect("eval runs");
    }
    assert_eq!(eval.evals_run(), 6);
    assert_eq!(
        phi_counts(plain.phi()),
        phi_counts(observed.phi()),
        "per-iteration evaluation changed the trained model"
    );
}

#[test]
fn injected_fault_trips_a_health_event_that_round_trips() {
    let corpus = corpus();
    let platform = Platform::pascal().with_gpus(2);
    let mut trainer =
        build_trainer(PartitionPolicy::Document, &corpus, cfg(8, platform)).expect("builds");
    // A transient launch fault: the retry backoff dwarfs a tiny corpus's
    // simulated iteration time, so tokens/sec collapses at iteration 4.
    trainer.attach_fault_plan(Arc::new(
        FaultPlan::parse("launch:0:4").expect("plan parses"),
    ));

    let sink = TraceSink::new();
    let mut monitor = HealthMonitor::new();
    let mut jsonl = Vec::new();
    let mut writer = SnapshotWriter::new(&mut jsonl);
    let mut cumulative = 0.0;
    for _ in 0..8 {
        let stat = trainer.try_step().expect("recoverable run");
        cumulative += stat.sim_seconds;
        for ev in monitor.observe(&HealthSample {
            stat,
            compression_ratio: None,
        }) {
            sink.instant_sim(0, &ev.kind.to_string(), "health", cumulative);
            writer.write_health(&ev).expect("health line writes");
        }
        writer
            .write_snapshot(&MetricsSnapshot {
                stat,
                cumulative_sim_seconds: cumulative,
                sync_mode: Some("dense-tree".into()),
                compression_ratio: None,
                eval: None,
            })
            .expect("snapshot line writes");
    }
    let events = monitor.events();
    assert!(
        events
            .iter()
            .any(|e| e.kind == HealthKind::ThroughputCollapse),
        "no throughput collapse detected under an injected fault: {events:?}"
    );
    assert!(!monitor.has_fatal(), "a retried fault is not fatal");

    // The event survives the JSONL round trip alongside the iterations…
    let records = parse_snapshots(&String::from_utf8(jsonl).unwrap()).expect("stream parses");
    let healths: Vec<_> = records
        .iter()
        .filter(|r| matches!(r, SnapshotRecord::Health(_)))
        .collect();
    assert!(!healths.is_empty());
    assert_eq!(
        records
            .iter()
            .filter(|r| matches!(r, SnapshotRecord::Iteration(_)))
            .count(),
        8
    );
    // …and lands on the trace as an instant event.
    assert!(sink.export_chrome_json().contains("throughput-collapse"));
}

#[test]
fn training_registry_exposition_parses_back() {
    let corpus = corpus();
    let platform = Platform::pascal().with_gpus(2);
    let mut trainer =
        build_trainer(PartitionPolicy::Document, &corpus, cfg(3, platform)).expect("builds");
    let registry = Arc::new(MetricsRegistry::new());
    trainer.attach_observability(None, Some(registry.clone()));
    for _ in 0..3 {
        trainer.try_step().expect("clean run");
    }
    let text = render_openmetrics(&registry);
    let families = lint_openmetrics(&text).expect("exposition lints");
    assert!(families > 3, "a training run exports several families");
    assert!(text.contains("culda_kernel_launches_total"));
    assert!(text.ends_with("# EOF\n"));
}
