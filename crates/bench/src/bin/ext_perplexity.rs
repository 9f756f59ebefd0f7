//! Extension experiment: held-out perplexity vs training iterations.
//!
//! The paper evaluates with the joint log-likelihood of the *training*
//! data (Figure 8). The complementary — and for deployment, decisive —
//! view is generalization: perplexity of documents the model never saw,
//! via fold-in inference. This harness trains CuLDA on a 90% split and
//! scores the held-out 10% at a fixed cadence, alongside the WarpLDA
//! baseline trained on the same split. Both are scored by
//! [`HeldOutEvaluator`], the `lda_infer` path `culda train --eval-every`
//! uses.

use culda_baselines::WarpLda;
use culda_bench::{banner, user_iters, user_scale, write_result};
use culda_corpus::{Corpus, SynthSpec, Vocab};
use culda_gpusim::Platform;
use culda_metrics::{Figure, Series};
use culda_multigpu::{CuldaTrainer, TrainerConfig};
use culda_sampler::{LdaModel, Priors};
use culda_serve::{HeldOutEvaluator, ServeConfig};

const K: usize = 256;

fn split_corpus() -> (Corpus, Corpus) {
    let full = SynthSpec::nytimes_like(0.003 * user_scale()).generate();
    let cut = full.num_docs() * 9 / 10;
    let vocab = || Vocab::synthetic(full.vocab_size());
    let train = Corpus::new(full.docs[..cut].to_vec(), vocab());
    let held = Corpus::new(full.docs[cut..].to_vec(), vocab());
    (train, held)
}

/// Held-out perplexity of `model` under the serving defaults (8 burn-in
/// and 4 sample sweeps per document), on its own evaluation seed.
fn perplexity(held: &Corpus, model: &dyn LdaModel) -> f64 {
    let mut eval =
        HeldOutEvaluator::new(held, ServeConfig::new(7)).expect("held-out split has tokens");
    eval.evaluate(model).expect("evaluation runs").perplexity
}

fn main() {
    let iters = user_iters(30);
    let cadence = 5u32;
    banner(
        "Extension — held-out perplexity vs training iterations",
        &format!("K = {K}, {iters} iterations, scored every {cadence}"),
    );
    let (train, held) = split_corpus();
    println!(
        "train: {} docs / {} tokens; held out: {} docs\n",
        train.num_docs(),
        train.num_tokens(),
        held.num_docs()
    );

    // CuLDA (Volta sim): snapshot perplexity during training.
    let cfg = TrainerConfig::builder(K, Platform::volta().with_gpus(1))
        .iterations(iters)
        .score_every(0)
        .build()
        .unwrap();
    let mut trainer = CuldaTrainer::try_new(&train, cfg).unwrap();
    let mut culda_points = Vec::new();
    for i in 0..iters {
        trainer.try_step().unwrap();
        if (i + 1) % cadence == 0 {
            let ppl = perplexity(&held, trainer.global_phi());
            culda_points.push(((i + 1) as f64, ppl));
        }
    }

    // WarpLDA on the same split, exporting its ϕ for the same scorer.
    let mut warp = WarpLda::new(&train, K, Priors::paper(K), 7);
    let mut warp_points = Vec::new();
    for i in 0..iters {
        warp.iterate();
        if (i + 1) % cadence == 0 {
            let ppl = perplexity(&held, &warp.export_phi());
            warp_points.push(((i + 1) as f64, ppl));
        }
    }

    let mut fig = Figure::new("Extension — perplexity", "iteration", "held_out_perplexity");
    fig.push(Series::new("CuLDA (Volta)", culda_points.clone()));
    fig.push(Series::new("WarpLDA", warp_points));
    print!("{}", fig.to_ascii(40));

    let first = culda_points.first().map(|p| p.1).unwrap_or(f64::NAN);
    let last = culda_points.last().map(|p| p.1).unwrap_or(f64::NAN);
    println!(
        "\nperplexity {first:.1} -> {last:.1} over training (uniform would be {})",
        train.vocab_size()
    );
    assert!(
        last < first,
        "held-out perplexity should improve with training"
    );
    write_result("ext_perplexity.csv", &fig.to_csv());
}
