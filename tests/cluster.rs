//! Property suite for the multi-node cluster layer.
//!
//! Three families of invariants:
//!
//! 1. **N-node bit-identity** — for any node count and any sync mode, the
//!    trained assignments, ϕ checkpoint, and log-likelihood series are
//!    bit-identical to a single-node run of the same configuration. The
//!    cluster changes only the modelled time and traffic.
//! 2. **Node loss** — a fault plan that kills every GPU of a node mid-run
//!    conserves every token (the lost workers' chunks migrate to the
//!    survivors) and the surviving cluster still reproduces the healthy
//!    run bit-for-bit.
//! 3. **Prefetch neutrality** — double-buffered chunk staging hides H2D
//!    time (`overlap_fraction > 0`) without changing a single sampled
//!    topic; serial staging reports zero overlap.

use culda::corpus::{Corpus, SynthSpec};
use culda::gpusim::{FaultPlan, Platform};
use culda::metrics::MetricsRegistry;
use culda::multigpu::{
    build_trainer, CuldaError, CuldaTrainer, LdaTrainer, PartitionPolicy, SyncMode, TrainerConfig,
};
use std::sync::Arc;

fn corpus() -> Corpus {
    let mut spec = SynthSpec::tiny();
    spec.num_docs = 200;
    spec.vocab_size = 260;
    spec.avg_doc_len = 22.0;
    spec.seed = 17;
    spec.generate()
}

fn cfg(nodes: usize, sync: SyncMode) -> TrainerConfig {
    TrainerConfig::builder(8, Platform::pascal().with_gpus(2))
        .iterations(4)
        .score_every(2)
        .seed(23)
        .sync_mode(sync)
        .nodes(nodes)
        .build()
        .unwrap()
}

/// Shrinks device memory so the plan goes out-of-core (`M > 1`): the ϕ
/// replicas fit, but the chunks must stream through what's left.
fn force_out_of_core(cfg: &mut TrainerConfig, c: &Corpus) {
    cfg.platform.gpu.memory_bytes =
        2 * cfg.phi_device_bytes(c.vocab_size()) + c.num_tokens() * 10 / 3;
}

/// Everything observable about a finished run: assignments in global
/// chunk order, the ϕ array, and the scored log-likelihood series.
fn fingerprint(t: &dyn LdaTrainer) -> (Vec<Vec<u16>>, Vec<u32>, Vec<f64>) {
    let phi = t.phi();
    (
        t.assignments(),
        (0..phi.phi.len()).map(|i| phi.phi.load(i)).collect(),
        t.history()
            .loglik_series()
            .into_iter()
            .map(|(_, v)| v)
            .collect(),
    )
}

fn run(c: &Corpus, cfg: TrainerConfig) -> (Vec<Vec<u16>>, Vec<u32>, Vec<f64>) {
    let mut t = build_trainer(PartitionPolicy::Document, c, cfg).unwrap();
    for _ in 0..4 {
        t.try_step().unwrap();
    }
    t.check_invariants();
    fingerprint(t.as_ref())
}

#[test]
fn any_node_count_and_sync_mode_is_bit_identical_to_single_node() {
    let c = corpus();
    let baseline = run(&c, cfg(1, SyncMode::DenseTree));
    for nodes in [2, 3, 4] {
        for sync in [
            SyncMode::DenseTree,
            SyncMode::DenseRing,
            SyncMode::Delta,
            SyncMode::Auto,
        ] {
            let got = run(&c, cfg(nodes, sync));
            assert_eq!(
                baseline, got,
                "{nodes}-node {sync} run diverged from the single-node baseline"
            );
        }
    }
}

#[test]
fn out_of_core_cluster_is_bit_identical_too() {
    let c = corpus();
    let mut base = cfg(1, SyncMode::DenseTree);
    force_out_of_core(&mut base, &c);
    let baseline = run(&c, base);
    let mut oo = cfg(3, SyncMode::Delta);
    force_out_of_core(&mut oo, &c);
    assert_eq!(
        baseline,
        run(&c, oo),
        "out-of-core 3-node run diverged from the out-of-core single-node baseline"
    );
}

#[test]
fn node_failure_conserves_tokens_and_stays_bit_identical() {
    // Node 2 of 3 is GPUs 4 and 5: a permanent launch fault on both from
    // iteration 2 exhausts their retries, and their chunks migrate.
    let c = corpus();
    let mut oo = cfg(3, SyncMode::Delta);
    force_out_of_core(&mut oo, &c);
    let mut healthy = CuldaTrainer::try_new(&c, oo.clone()).unwrap();
    let mut wounded = CuldaTrainer::try_new(&c, oo.clone()).unwrap();
    let node_2 = FaultPlan::parse("launch:4:2:permanent,launch:5:2:permanent").unwrap();
    wounded.attach_fault_plan(Arc::new(node_2));
    for _ in 0..4 {
        healthy.try_step().unwrap();
        wounded.try_step().unwrap();
    }
    assert_eq!(wounded.num_alive_nodes(), 2);
    let tokens: usize = wounded.states().iter().map(|s| s.z.len()).sum();
    assert_eq!(tokens, c.num_tokens() as usize, "the drain lost tokens");
    assert!(LdaTrainer::recovery(&wounded).chunks_migrated > 0);
    wounded.check_invariants();
    assert_eq!(
        fingerprint(&healthy),
        fingerprint(&wounded),
        "losing a node changed the trained model"
    );
    // Losing every node is terminal.
    let mut doomed = CuldaTrainer::try_new(&c, oo).unwrap();
    let every_gpu: Vec<String> = (0..6).map(|d| format!("launch:{d}:1:permanent")).collect();
    doomed.attach_fault_plan(Arc::new(FaultPlan::parse(&every_gpu.join(",")).unwrap()));
    doomed.try_step().unwrap();
    assert!(matches!(doomed.try_step(), Err(CuldaError::AllWorkersLost)));
}

#[test]
fn prefetch_hides_transfers_without_changing_the_model() {
    let c = corpus();
    let overlap = |prefetch: bool| {
        let mut cfg = TrainerConfig::builder(8, Platform::pascal().with_gpus(2))
            .iterations(3)
            .score_every(0)
            .seed(23)
            .prefetch(prefetch)
            .build()
            .unwrap();
        force_out_of_core(&mut cfg, &c);
        let mut t = build_trainer(PartitionPolicy::Document, &c, cfg).unwrap();
        let reg = Arc::new(MetricsRegistry::new());
        t.attach_observability(None, Some(reg.clone()));
        let mut sim_seconds = 0.0;
        for _ in 0..3 {
            sim_seconds += t.try_step().unwrap().sim_seconds;
        }
        (
            fingerprint(t.as_ref()),
            reg.gauge("oocore.overlap_fraction").value(),
            sim_seconds,
        )
    };
    let (model_on, overlap_on, secs_on) = overlap(true);
    let (model_off, overlap_off, secs_off) = overlap(false);
    assert_eq!(model_on, model_off, "prefetch changed the trained model");
    assert!(
        overlap_on > 0.0,
        "double-buffered staging should hide some H2D time, got {overlap_on}"
    );
    assert_eq!(overlap_off, 0.0, "serial staging cannot overlap");
    assert!(
        secs_on <= secs_off,
        "prefetch slowed the run: {secs_on} vs {secs_off}"
    );
}
