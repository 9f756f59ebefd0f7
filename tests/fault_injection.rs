//! End-to-end fault injection and recovery across the training and
//! serving stacks.
//!
//! The golden property: recovery never changes the model. RNG streams
//! are keyed by `(seed, iteration, global token index)` and ϕ counts
//! are commutative sums over assignments, so a retried iteration — or a
//! chunk re-run on a surviving GPU after its owner died — produces the
//! same bits as a fault-free run. These tests sweep single transient
//! faults over every (kind, device, iteration) coordinate and pin
//! bit-identity of the final ϕ, then exercise the permanent-loss
//! rebalance path with the trace/metrics sinks attached.

use culda::corpus::{Corpus, SynthSpec};
use culda::gpusim::{FaultKind, FaultPlan, FaultSpec, Platform};
use culda::metrics::{MetricsRegistry, TraceSink};
use culda::multigpu::{
    build_trainer, CuldaError, CuldaTrainer, PartitionPolicy, SyncMode, TrainerConfig,
};
use culda::sampler::PhiModel;
use std::sync::Arc;

const K: usize = 8;
const ITERS: u32 = 3;

fn corpus() -> Corpus {
    let mut spec = SynthSpec::tiny();
    spec.num_docs = 120;
    spec.vocab_size = 200;
    spec.avg_doc_len = 20.0;
    spec.generate()
}

/// Two simulated GPUs, out-of-core (M = 2) so every iteration stages
/// chunk state over the host link — which lets `drop` faults fire too.
fn cfg() -> TrainerConfig {
    TrainerConfig::builder(K, Platform::pascal().with_gpus(2))
        .iterations(ITERS)
        .score_every(0)
        .seed(17)
        .chunks_per_gpu(Some(2))
        .build()
        .expect("valid config")
}

fn phi_counts(phi: &PhiModel) -> Vec<u32> {
    (0..phi.phi.len()).map(|i| phi.phi.load(i)).collect()
}

fn train_with(c: &Corpus, plan: Option<Arc<FaultPlan>>) -> CuldaTrainer {
    let mut t = CuldaTrainer::try_new(c, cfg()).expect("trainer builds");
    if let Some(p) = plan {
        t.attach_fault_plan(p);
    }
    for _ in 0..ITERS {
        t.try_step().expect("recoverable run");
    }
    t
}

#[test]
fn any_single_transient_fault_is_bit_identical_to_fault_free() {
    let c = corpus();
    let reference = train_with(&c, None);
    let want_phi = phi_counts(reference.global_phi());
    let want_ll = reference.loglik_per_token();

    for kind in [
        FaultKind::KernelLaunch,
        FaultKind::MemoryCorruption,
        FaultKind::LinkDrop,
    ] {
        for device in 0..2 {
            for iteration in 0..ITERS {
                let plan = Arc::new(FaultPlan::from_specs(vec![FaultSpec::new(
                    kind, device, iteration,
                )]));
                let t = train_with(&c, Some(Arc::clone(&plan)));
                let rec = t.recovery();
                assert_eq!(
                    plan.injected(),
                    1,
                    "{kind:?} at ({device}, {iteration}) never fired"
                );
                assert_eq!(rec.retries, 1, "{kind:?} at ({device}, {iteration})");
                assert_eq!(rec.workers_lost, 0);
                assert_eq!(
                    phi_counts(t.global_phi()),
                    want_phi,
                    "{kind:?} at ({device}, {iteration}) changed ϕ"
                );
                assert!((t.loglik_per_token() - want_ll).abs() < 1e-12);
            }
        }
    }
}

#[test]
fn transient_faults_under_delta_sync_never_double_apply() {
    // The delta payload is rebuilt from the cleared write replica every
    // iteration — including the retried one — so a fault that fires after
    // some ϕ updates already landed must not leave stale rows behind to
    // be shipped twice. Sweep every transient coordinate under
    // `SyncMode::Delta`, on one node and on two (devices `0..2·nodes`),
    // and pin bit-identity against the *dense-tree* single-node
    // fault-free reference (cross-mode, cross-node and cross-fault at
    // once).
    let c = corpus();
    let reference = train_with(&c, None);
    let want_phi = phi_counts(reference.global_phi());

    let delta_cfg = |nodes: usize| {
        let mut cfg = cfg();
        cfg.sync_mode = SyncMode::Delta;
        cfg.nodes = nodes;
        cfg
    };
    for nodes in [1, 2] {
        for kind in [
            FaultKind::KernelLaunch,
            FaultKind::MemoryCorruption,
            FaultKind::LinkDrop,
        ] {
            for device in 0..2 * nodes {
                for iteration in 0..ITERS {
                    let plan = Arc::new(FaultPlan::from_specs(vec![FaultSpec::new(
                        kind, device, iteration,
                    )]));
                    let mut t = CuldaTrainer::try_new(&c, delta_cfg(nodes)).unwrap();
                    t.attach_fault_plan(Arc::clone(&plan));
                    for _ in 0..ITERS {
                        t.try_step().expect("recoverable run");
                    }
                    assert_eq!(plan.injected(), 1);
                    assert_eq!(t.recovery().retries, 1);
                    assert_eq!(
                        phi_counts(t.global_phi()),
                        want_phi,
                        "{nodes}-node delta sync with {kind:?} at ({device}, {iteration}) \
                         double-applied or lost counts"
                    );
                }
            }
        }
    }
}

#[test]
fn permanent_loss_rebalances_chunks_and_keeps_phi_bit_identical() {
    let c = corpus();
    let reference = train_with(&c, None);
    let want_phi = phi_counts(reference.global_phi());

    let plan = Arc::new(FaultPlan::from_specs(vec![FaultSpec::new(
        FaultKind::KernelLaunch,
        1,
        1,
    )
    .permanent()]));
    let trace = Arc::new(TraceSink::new());
    let registry = Arc::new(MetricsRegistry::new());
    let mut t = CuldaTrainer::try_new(&c, cfg()).unwrap();
    t.attach_observability(Some(Arc::clone(&trace)), Some(Arc::clone(&registry)));
    t.attach_fault_plan(Arc::clone(&plan));
    for _ in 0..ITERS {
        t.try_step()
            .expect("survivor absorbs the dead GPU's chunks");
    }

    let rec = t.recovery();
    assert_eq!(rec.workers_lost, 1, "{rec}");
    assert_eq!(rec.chunks_migrated, 2, "both chunks of GPU 1 migrate");
    assert!(rec.retries >= 2, "retry budget was spent first: {rec}");
    assert!(rec.faults_injected >= 3, "{rec}");
    assert_eq!(t.num_alive(), 1);
    assert_eq!(
        phi_counts(t.global_phi()),
        want_phi,
        "rebalanced training diverged from the fault-free model"
    );

    // The recovery timeline is observable: retry and rebalance spans in
    // the trace, matching counters in the registry.
    let events = trace.events();
    assert!(
        events.iter().any(|e| e.name == "worker.retry"),
        "no worker.retry span"
    );
    assert!(
        events.iter().any(|e| e.name == "rebalance"),
        "no rebalance span"
    );
    assert!(
        events.iter().any(|e| e.name == "fault.injected"),
        "no fault.injected instant"
    );
    assert!(registry.counter("worker.retry").value() >= 2);
    assert!(registry.counter("rebalance").value() >= 1);
    assert!(registry.counter("fault.injected").value() >= 3);
}

#[test]
fn exhausted_retries_surface_as_worker_lost_not_panic() {
    let c = corpus();
    // Single GPU: a permanently failing device leaves no survivors.
    let cfg1 = TrainerConfig::builder(K, Platform::maxwell())
        .iterations(ITERS)
        .score_every(0)
        .seed(17)
        .build()
        .unwrap();
    let mut t = CuldaTrainer::try_new(&c, cfg1).unwrap();
    t.attach_fault_plan(Arc::new(FaultPlan::from_specs(vec![FaultSpec::new(
        FaultKind::KernelLaunch,
        0,
        0,
    )
    .permanent()])));
    match t.try_step() {
        Err(CuldaError::AllWorkersLost) => {}
        other => panic!("expected AllWorkersLost, got {other:?}"),
    }
}

#[test]
fn word_policy_retries_transients_and_migrates_chunks_on_permanent_loss() {
    let c = corpus();
    let cfg2 = TrainerConfig::builder(K, Platform::pascal().with_gpus(2))
        .iterations(ITERS)
        .score_every(0)
        .seed(17)
        .build()
        .unwrap();
    let word = PartitionPolicy::Word;
    let mut reference = build_trainer(word, &c, cfg2.clone()).unwrap();
    for _ in 0..ITERS {
        reference.try_step().unwrap();
    }

    let mut faulty = build_trainer(word, &c, cfg2.clone()).unwrap();
    faulty.attach_fault_plan(Arc::new(FaultPlan::from_specs(vec![FaultSpec::new(
        FaultKind::KernelLaunch,
        1,
        1,
    )])));
    for _ in 0..ITERS {
        faulty.try_step().unwrap();
    }
    assert_eq!(faulty.recovery().retries, 1);
    assert_eq!(reference.assignments(), faulty.assignments());
    assert!((reference.loglik_per_token() - faulty.loglik_per_token()).abs() < 1e-12);

    // Word chunks carry their own state, so a permanently lost GPU's
    // chunks migrate to the survivor like document chunks, and the run
    // ends on the fault-free model.
    let mut lossy = build_trainer(word, &c, cfg2).unwrap();
    lossy.attach_fault_plan(Arc::new(FaultPlan::from_specs(vec![FaultSpec::new(
        FaultKind::KernelLaunch,
        0,
        0,
    )
    .permanent()])));
    for _ in 0..ITERS {
        lossy
            .try_step()
            .expect("the survivor absorbs the lost GPU's word range");
    }
    let rec = lossy.recovery();
    assert_eq!(rec.workers_lost, 1, "{rec}");
    assert_eq!(rec.chunks_migrated, 1, "{rec}");
    lossy.check_invariants();
    assert_eq!(reference.assignments(), lossy.assignments());
    assert_eq!(phi_counts(reference.phi()), phi_counts(lossy.phi()));
}

#[test]
fn fault_plan_works_through_the_unified_trainer_surface() {
    let c = corpus();
    for policy in [PartitionPolicy::Document, PartitionPolicy::Word] {
        let mut reference = build_trainer(policy, &c, cfg()).unwrap();
        for _ in 0..ITERS {
            reference.try_step().unwrap();
        }
        let mut faulty = build_trainer(policy, &c, cfg()).unwrap();
        faulty.attach_fault_plan(Arc::new(FaultPlan::random_transient(99, 2, ITERS)));
        for _ in 0..ITERS {
            faulty.try_step().unwrap();
        }
        assert_eq!(faulty.recovery().retries, 1, "{policy}");
        assert_eq!(
            phi_counts(reference.phi()),
            phi_counts(faulty.phi()),
            "{policy} diverged under a random transient fault"
        );
    }
}
