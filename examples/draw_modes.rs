//! The p1 draw engines side by side: tree vs butterfly vs auto at a K
//! where the per-block prefix scratch spills shared memory.
//!
//! All three draw the bit-identical topics (the example asserts the
//! final log-likelihoods are bit-equal); what changes is how the 32
//! samplers of a block lay out their prefix sums, and therefore how
//! many DRAM bytes the `lda_sample` kernel moves. Both layouts write a
//! token's leaves coalesced; the tree walk then reads one 128-byte
//! segment per level, the butterfly one segment for the final window.
//!
//! ```sh
//! cargo run --release --example draw_modes
//! ```

use culda::corpus::SynthSpec;
use culda::gpusim::Platform;
use culda::metrics::format_tokens_per_sec;
use culda::multigpu::{CuldaTrainer, DrawMode, TrainerConfig};

fn main() {
    let corpus = SynthSpec::nytimes_like(0.001).generate();
    let k = 4096;
    let iters = 5u32;
    println!(
        "NYTimes-like corpus: {} docs, {} tokens, V = {}, K = {k}\n",
        corpus.num_docs(),
        corpus.num_tokens(),
        corpus.vocab_size(),
    );
    println!(
        "{:<10} {:>14} {:>18} {:>16}",
        "draw", "tokens/sec", "lda_sample DRAM", "final loglik"
    );
    let mut reference = None;
    for mode in [DrawMode::Tree, DrawMode::Butterfly, DrawMode::Auto] {
        let cfg = TrainerConfig::builder(k, Platform::pascal().with_gpus(2))
            .iterations(iters)
            .score_every(iters)
            .draw_mode(mode)
            .build()
            .unwrap();
        let mut trainer = CuldaTrainer::new(&corpus, cfg);
        for _ in 0..iters {
            trainer.step();
        }
        let sample = trainer
            .profile()
            .summaries()
            .into_iter()
            .find(|s| s.name == "lda_sample")
            .expect("lda_sample in profile");
        let tps = trainer.history().avg_tokens_per_sec(iters as usize);
        let loglik = trainer.loglik_per_token();
        println!(
            "{:<10} {:>14} {:>15.1} MB {:>16.6}",
            mode.to_string(),
            format_tokens_per_sec(tps),
            sample.dram_bytes as f64 / 1e6,
            loglik,
        );
        let bits = loglik.to_bits();
        assert_eq!(
            *reference.get_or_insert(bits),
            bits,
            "draw mode {mode} changed the trained model"
        );
    }
    println!(
        "\nevery mode trains the bit-identical model; only the modelled\n\
         memory traffic differs. `auto` resolves per block from the same\n\
         occupancy predicate the cost model charges from."
    );
}
