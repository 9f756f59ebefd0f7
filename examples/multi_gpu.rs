//! Multi-GPU scaling (the paper's Section 7.3 at reduced scale): the same
//! PubMed-like training on 1, 2 and 4 Pascal GPUs, with the Figure 4
//! reduce/broadcast synchronizing ϕ each iteration.
//!
//! ```sh
//! cargo run --release --example multi_gpu
//! ```

use culda::corpus::SynthSpec;
use culda::gpusim::Platform;
use culda::metrics::{format_tokens_per_sec, Phase};
use culda::multigpu::{CuldaTrainer, TrainerConfig};

fn main() {
    // Model scaled with the corpus so the compute-to-sync ratio stays in
    // the paper's regime (see crates/bench/src/bin/fig9.rs for why).
    let corpus = SynthSpec::pubmed_like(0.005).generate();
    let k = 128;
    let iters = 10u32;
    println!(
        "PubMed-like corpus: {} tokens, V = {}, K = {k}\n",
        corpus.num_tokens(),
        corpus.vocab_size()
    );
    println!(
        "{:<8} {:>14} {:>10} {:>12} {:>12}",
        "#GPUs", "tokens/sec", "speedup", "sync share", "paper"
    );
    let paper = [1.0, 1.93, 2.99];
    let mut base = None;
    for (i, gpus) in [1usize, 2, 4].into_iter().enumerate() {
        let cfg = TrainerConfig::builder(k, Platform::pascal().with_gpus(gpus))
            .iterations(iters)
            .score_every(0)
            .build()
            .unwrap();
        let out = CuldaTrainer::try_new(&corpus, cfg)
            .unwrap()
            .try_train()
            .unwrap();
        let tps = out.history.avg_tokens_per_sec(iters as usize);
        let b = *base.get_or_insert(tps);
        let sync_share = if out.breakdown.total() > 0.0 {
            100.0 * out.breakdown.fraction(Phase::SyncPhi)
        } else {
            0.0
        };
        println!(
            "{gpus:<8} {:>14} {:>9.2}x {:>11.1}% {:>11.2}x",
            format_tokens_per_sec(tps),
            tps / b,
            sync_share,
            paper[i]
        );
    }
    println!(
        "\nScaling is sub-linear because every iteration ends with a\n\
         log2(G)-deep phi reduce/broadcast over PCIe (Figure 4)."
    );
}
