//! Bench-scale stress tests — slow; run explicitly with
//! `cargo test --release -- --ignored`.

use culda::corpus::SynthSpec;
use culda::gpusim::Platform;
use culda::multigpu::{CuldaTrainer, TrainerConfig};

/// Full NYTimes-bench-scale training run (~1M tokens, K = 1024): verifies
/// the whole pipeline holds its invariants at the scale the experiment
/// harnesses run at, not just at unit-test scale.
#[test]
#[ignore = "bench-scale; minutes in release mode"]
fn nytimes_scale_end_to_end() {
    let corpus = SynthSpec::nytimes_like(0.01).generate();
    assert!(corpus.num_tokens() > 500_000);
    let cfg = TrainerConfig::builder(1024, Platform::volta())
        .iterations(10)
        .score_every(5)
        .build()
        .unwrap();
    let mut trainer = CuldaTrainer::try_new(&corpus, cfg).unwrap();
    let initial = trainer.loglik_per_token();
    for _ in 0..10 {
        trainer.try_step().unwrap();
    }
    trainer.check_invariants();
    assert!(trainer.loglik_per_token() > initial);
    // Throughput should be in the hundreds of millions of tokens/s on the
    // simulated V100 (Table 4's regime).
    let tps = trainer.history().avg_tokens_per_sec(10);
    assert!(
        tps > 1e8,
        "simulated Volta throughput {tps:.3e} below the Table 4 regime"
    );
}

/// 4-GPU bench-scale run with invariants and scaling sanity.
#[test]
#[ignore = "bench-scale; minutes in release mode"]
fn multi_gpu_scale_end_to_end() {
    let corpus = SynthSpec::pubmed_like(0.003).generate();
    let run = |gpus: usize| {
        let cfg = TrainerConfig::builder(128, Platform::pascal().with_gpus(gpus))
            .iterations(5)
            .score_every(0)
            .build()
            .unwrap();
        let mut t = CuldaTrainer::try_new(&corpus, cfg).unwrap();
        for _ in 0..5 {
            t.try_step().unwrap();
        }
        t.check_invariants();
        t.history().avg_tokens_per_sec(5)
    };
    let t1 = run(1);
    let t4 = run(4);
    assert!(t4 > 1.8 * t1, "4-GPU speedup only {:.2}x", t4 / t1);
}
