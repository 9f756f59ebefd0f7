//! Solver shoot-out: CuLDA_CGS (simulated Volta) vs every baseline in the
//! workspace, racing to the same model quality — a miniature Figure 8.
//!
//! ```sh
//! cargo run --release --example compare_solvers
//! ```

use culda::baselines::{DistributedLda, SparseCgs, TimedDenseCgs, WarpLda};
use culda::corpus::SynthSpec;
use culda::gpusim::Platform;
use culda::multigpu::{CuldaTrainer, TrainerConfig};
use culda::sampler::Priors;

fn main() {
    let mut spec = SynthSpec::tiny();
    spec.num_docs = 1500;
    spec.vocab_size = 1500;
    spec.avg_doc_len = 80.0;
    let corpus = spec.generate();
    let k = 64;
    let iters = 15;
    println!(
        "corpus: {} tokens, V = {}, K = {k}, {iters} iterations each\n",
        corpus.num_tokens(),
        corpus.vocab_size()
    );
    println!(
        "{:<28} {:>16} {:>16} {:>14}",
        "Solver", "final loglik/tok", "sim time (s)", "tokens/sec"
    );

    // CuLDA on a single simulated V100.
    let cfg = TrainerConfig::builder(k, Platform::volta().with_gpus(1))
        .iterations(iters)
        .score_every(0)
        .build()
        .unwrap();
    let out = CuldaTrainer::try_new(&corpus, cfg)
        .unwrap()
        .try_train()
        .unwrap();
    let t = out.history.total_sim_seconds();
    println!(
        "{:<28} {:>16.4} {:>16.6} {:>14.3e}",
        "CuLDA_CGS (V100 sim)",
        out.final_loglik_per_token,
        t,
        corpus.num_tokens() as f64 * iters as f64 / t
    );

    // CPU baselines (modelled on the Table 2 Xeons).
    let tokens = corpus.num_tokens() as f64;
    let mut warp = WarpLda::new(&corpus, k, Priors::paper(k), 1);
    let mut sparse = SparseCgs::new(&corpus, k, Priors::paper(k), 1);
    let mut dense = TimedDenseCgs::new(&corpus, k, Priors::paper(k), 1);
    let mut dist = DistributedLda::new(&corpus, k, Priors::paper(k), 20, 1);

    let report = |name: &str, ll: f64, secs: f64| {
        println!(
            "{name:<28} {:>16.4} {:>16.6} {:>14.3e}",
            ll,
            secs,
            tokens * iters as f64 / secs
        );
    };
    let mut s = 0.0;
    for _ in 0..iters {
        s += warp.iterate().1;
    }
    report("WarpLDA (MH, CPU)", warp.loglik() / tokens, s);
    let mut s = 0.0;
    for _ in 0..iters {
        s += sparse.iterate().1;
    }
    report("SparseCGS (CPU)", sparse.loglik() / tokens, s);
    let mut s = 0.0;
    for _ in 0..iters {
        s += dense.iterate(&corpus).1;
    }
    report("DenseCGS (CPU)", dense.loglik() / tokens, s);
    let mut s = 0.0;
    for _ in 0..iters {
        s += dist.iterate().1;
    }
    report("LDA* proxy (20 nodes)", dist.loglik() / tokens, s);

    println!(
        "\nAll solvers converge to a similar likelihood; what differs is the\n\
         time axis — the GPU pipeline reaches it one to two orders of\n\
         magnitude sooner (the paper's Figure 8 argument)."
    );
}
