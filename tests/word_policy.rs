//! Partition-by-word, the Section 4 alternative, as a chunk layout of the
//! one trainer: word ranges over every document, θ summed and installed
//! before sampling, and a θ (+ `n_k`) sync in place of the ϕ sync. Every
//! trainer here comes from `build_trainer(PartitionPolicy::Word, …)`, so
//! the layout gets the trainer's whole feature set: scoring, the draw and
//! sampling modes, and bit-identity across GPU counts.

use culda::corpus::{Corpus, SynthSpec};
use culda::gpusim::Platform;
use culda::metrics::{EventKind, MetricsRegistry, Phase, TraceSink, SYNC_TID};
use culda::multigpu::{
    build_trainer, plan_partition, resume_any, save_assignments, DrawMode, LdaTrainer,
    PartitionPolicy, TrainerConfig,
};
use std::sync::Arc;

fn corpus() -> Corpus {
    let mut spec = SynthSpec::tiny();
    spec.num_docs = 150;
    spec.vocab_size = 250;
    spec.avg_doc_len = 30.0;
    spec.generate()
}

/// K = 16 on `gpus` Pascal GPUs with `m` chunks each (`None`: planned).
fn cfg(gpus: usize, m: Option<usize>) -> TrainerConfig {
    let mut cfg = TrainerConfig::builder(16, Platform::pascal().with_gpus(gpus))
        .iterations(8)
        .score_every(0)
        .seed(77)
        .build()
        .unwrap();
    cfg.chunks_per_gpu = m;
    cfg
}

fn word(c: &Corpus, cfg: TrainerConfig) -> Box<dyn LdaTrainer> {
    build_trainer(PartitionPolicy::Word, c, cfg).unwrap()
}

#[test]
fn word_policy_conserves_counts_and_converges() {
    let c = corpus();
    let mut t = word(&c, cfg(4, None));
    assert_eq!(t.policy(), PartitionPolicy::Word);
    t.check_invariants();
    let before = t.loglik_per_token();
    for _ in 0..8 {
        assert_eq!(t.try_step().unwrap().tokens, c.num_tokens());
        t.check_invariants();
    }
    let after = t.loglik_per_token();
    assert!(after > before + 0.01, "no convergence: {before} -> {after}");
}

#[test]
fn word_policy_is_deterministic_per_seed() {
    let c = corpus();
    let run = || {
        let mut t = word(&c, cfg(2, None));
        t.try_step().unwrap();
        (t.assignments(), t.loglik_per_token().to_bits())
    };
    assert_eq!(run(), run());
}

#[test]
fn word_policy_is_bit_identical_across_gpu_counts_for_fixed_chunks() {
    // C = 4 word ranges in every run; only their placement changes.
    let c = corpus();
    let run = |gpus: usize, m: usize| {
        let mut t = word(&c, cfg(gpus, Some(m)));
        for _ in 0..3 {
            t.try_step().unwrap();
        }
        t.check_invariants();
        let phi = t.phi().phi.snapshot();
        (t.assignments(), phi, t.loglik_per_token().to_bits())
    };
    let one = run(1, 4);
    assert_eq!(one.0.len(), 4);
    assert_eq!(one, run(2, 2));
    assert_eq!(one, run(4, 1));
}

#[test]
fn word_ranges_step_like_one_document_chunk_from_the_same_state() {
    // Word ranges in order are the one-chunk document layout's token
    // order, so from the same z both layouts step bit-identically, but
    // only if every range samples against the θ summed over all ranges.
    // The word trainer resumes from a checkpoint of the document
    // trainer's z, split at the word ranges.
    let c = corpus();
    let mut doc = build_trainer(PartitionPolicy::Document, &c, cfg(1, Some(1))).unwrap();
    let z = doc.assignments().concat();
    let word_cfg = cfg(2, Some(2));
    let (ranges, _) = plan_partition(&c, &word_cfg, PartitionPolicy::Word).unwrap();
    let mut at = 0;
    let split: Vec<Vec<u16>> = ranges
        .chunks
        .iter()
        .map(|chunk| {
            at += chunk.num_tokens();
            z[at - chunk.num_tokens()..at].to_vec()
        })
        .collect();
    let mut ckpt = Vec::new();
    save_assignments(PartitionPolicy::Word, &word_cfg, 0, &split, &mut ckpt).unwrap();
    let mut w = resume_any(&c, word_cfg, ckpt.as_slice()).unwrap();
    for _ in 0..3 {
        doc.try_step().unwrap();
        w.try_step().unwrap();
    }
    assert_eq!(w.assignments().concat(), doc.assignments().concat());
    assert_eq!(w.phi().phi.snapshot(), doc.phi().phi.snapshot());
    assert_eq!(
        w.loglik_per_token().to_bits(),
        doc.loglik_per_token().to_bits()
    );
}

#[test]
fn word_policy_pays_the_theta_sync_where_the_doc_policy_pays_phi() {
    let c = corpus();
    let mut w = word(&c, cfg(4, Some(1)));
    let mut d = build_trainer(PartitionPolicy::Document, &c, cfg(4, Some(1))).unwrap();
    for _ in 0..3 {
        w.try_step().unwrap();
        d.try_step().unwrap();
    }
    assert!(w.breakdown().seconds(Phase::SyncPhi) > 0.0);
    let gap = (w.loglik_per_token() - d.loglik_per_token()).abs();
    assert!(gap < 0.5, "policies should converge similarly, gap {gap}");

    let mut single = word(&c, cfg(1, None));
    single.try_step().unwrap();
    assert_eq!(single.breakdown().seconds(Phase::SyncPhi), 0.0);
}

#[test]
fn word_policy_traces_the_paper_kernels_and_the_theta_sync() {
    let c = corpus();
    let mut t = word(&c, cfg(2, None));
    let sink = Arc::new(TraceSink::new());
    let reg = Arc::new(MetricsRegistry::new());
    t.attach_observability(Some(sink.clone()), Some(reg.clone()));
    t.try_step().unwrap();
    let evs = sink.events();
    let begins = |name: &str| {
        evs.iter()
            .any(|e| e.kind == EventKind::Begin && e.name.starts_with(name))
    };
    assert!(begins("lda_sample"));
    assert!(evs
        .iter()
        .any(|e| e.tid == SYNC_TID && e.name.starts_with("theta_sync")));
    assert!(evs.iter().any(|e| e.name == "theta_broadcast"));
    assert!(!begins("phi_sync"));
    assert!(reg.counter("kernel.launches").value() >= 8);
    assert_eq!(reg.histogram("sync.seconds").count(), 1);
    let names: Vec<String> = t
        .profile()
        .summaries()
        .into_iter()
        .map(|s| s.name)
        .collect();
    for kernel in ["lda_sample", "phi_clear", "phi_update", "theta_update"] {
        assert!(names.iter().any(|n| n == kernel), "missing {kernel}");
    }
}

#[test]
fn word_policy_scores_every_iteration_when_asked() {
    let c = corpus();
    let mut config = cfg(2, None);
    config.score_every = 1;
    let mut t = word(&c, config);
    for _ in 0..3 {
        let stat = t.try_step().unwrap();
        assert!(
            stat.loglik_per_token.is_some(),
            "iteration {} unscored",
            stat.iteration
        );
    }
}

#[test]
fn word_policy_butterfly_draw_changes_dram_bytes_not_topics() {
    // Long documents at K = 1024: a block's per-sampler p1 scratch spills
    // shared memory, so the two draw engines charge different traffic for
    // the same draws.
    let mut spec = SynthSpec::tiny();
    spec.num_docs = 24;
    spec.vocab_size = 600;
    spec.avg_doc_len = 400.0;
    let c = spec.generate();
    let run = |draw: DrawMode| {
        let config = TrainerConfig::builder(1024, Platform::pascal().with_gpus(2))
            .seed(5)
            .draw_mode(draw)
            .build()
            .unwrap();
        let mut t = word(&c, config);
        t.try_step().unwrap();
        t.try_step().unwrap();
        let summaries = t.profile().summaries();
        let sample = summaries.iter().find(|s| s.name == "lda_sample").unwrap();
        (t.assignments(), sample.dram_bytes)
    };
    let (tree_z, tree_bytes) = run(DrawMode::Tree);
    let (butterfly_z, butterfly_bytes) = run(DrawMode::Butterfly);
    assert_eq!(tree_z, butterfly_z);
    assert_ne!(tree_bytes, butterfly_bytes);
}
