//! Quickstart: train an LDA model on a small synthetic corpus with
//! CuLDA_CGS and print the discovered topics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use culda::corpus::SynthSpec;
use culda::gpusim::Platform;
use culda::metrics::format_tokens_per_sec;
use culda::multigpu::{CuldaTrainer, TrainerConfig};

fn main() {
    // 1. A corpus. Real deployments build `Corpus` from their own token
    //    streams; here we draw one from a ground-truth LDA model so there
    //    are genuine topics to find.
    let corpus = SynthSpec::tiny().generate();
    println!(
        "corpus: {} documents, {} tokens, vocabulary {}",
        corpus.num_docs(),
        corpus.num_tokens(),
        corpus.vocab_size()
    );

    // 2. A trainer: K topics on a (simulated) single-GPU Maxwell platform.
    let k = 8;
    let cfg = TrainerConfig::builder(k, Platform::maxwell())
        .iterations(40)
        .score_every(10)
        .seed(2024)
        .build()
        .unwrap();
    let mut trainer = CuldaTrainer::try_new(&corpus, cfg).unwrap();
    println!(
        "plan: M = {} chunk(s) per GPU, C = {} chunk(s) total\n",
        trainer.plan().m,
        trainer.plan().c
    );

    // 3. Train, reporting progress.
    for i in 0..40 {
        let stat = trainer.try_step().unwrap();
        if let Some(ll) = stat.loglik_per_token {
            println!(
                "iter {:>3}  {:>10}/s  loglik/token {:.4}",
                i,
                format_tokens_per_sec(stat.tokens_per_sec()),
                ll
            );
        }
    }

    // 4. Inspect the model: top words per topic.
    println!("\ntop words per topic:");
    let phi = trainer.global_phi();
    for t in 0..k {
        let top: Vec<String> = phi
            .top_words(t, 8)
            .into_iter()
            .map(|(w, c)| format!("{}({c})", corpus.vocab.word(w)))
            .collect();
        println!("  topic {t}: {}", top.join(" "));
    }
    println!("\nfinal loglik/token: {:.4}", trainer.loglik_per_token());
}
