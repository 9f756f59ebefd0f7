//! Regenerates **Figure 8**: log-likelihood per token vs (simulated) time
//! for CuLDA_CGS on the three platforms, WarpLDA, the SaberLDA
//! approximation, and — on PubMed — the LDA* distributed proxy.
//!
//! The shape to reproduce: every solver converges to a similar final
//! likelihood; CuLDA's curves rise fastest (more likelihood per second),
//! Volta fastest of all; WarpLDA and LDA* are stretched out along the time
//! axis by an order of magnitude.

use culda_baselines::{DistributedLda, WarpLda};
use culda_bench::{banner, nytimes_corpus, pubmed_corpus, user_iters, write_result, BENCH_TOPICS};
use culda_corpus::Corpus;
use culda_gpusim::Platform;
use culda_metrics::{Figure, Series};
use culda_multigpu::{CuldaTrainer, TrainerConfig};
use culda_sampler::Priors;

fn culda_series(corpus: &Corpus, platform: Platform, iters: u32) -> Vec<(f64, f64)> {
    let cfg = TrainerConfig::builder(BENCH_TOPICS, platform.with_gpus(1))
        .iterations(iters)
        .score_every(1)
        .build()
        .unwrap();
    CuldaTrainer::try_new(corpus, cfg)
        .unwrap()
        .try_train()
        .unwrap()
        .history
        .loglik_series()
}

fn warplda_series(corpus: &Corpus, iters: u32) -> Vec<(f64, f64)> {
    let mut w = WarpLda::new(corpus, BENCH_TOPICS, Priors::paper(BENCH_TOPICS), 7);
    let mut t = 0.0;
    (0..iters)
        .map(|_| {
            let (n, s) = w.iterate();
            t += s;
            (t, w.loglik() / n as f64)
        })
        .collect()
}

fn ldastar_series(corpus: &Corpus, iters: u32) -> Vec<(f64, f64)> {
    // LDA* used 20 nodes for PubMed.
    let mut d = DistributedLda::new(corpus, BENCH_TOPICS, Priors::paper(BENCH_TOPICS), 20, 7);
    let mut t = 0.0;
    (0..iters)
        .map(|_| {
            let (n, s) = d.iterate();
            t += s;
            (t, d.loglik() / n as f64)
        })
        .collect()
}

fn saber_series(corpus: &Corpus, iters: u32) -> Vec<(f64, f64)> {
    culda_baselines::saber_like_trainer(corpus, BENCH_TOPICS, iters)
        .expect("the Saber-like trainer fits its corpus")
        .try_train()
        .unwrap()
        .history
        .loglik_series()
}

fn main() {
    let iters = user_iters(20);
    banner(
        "Figure 8 — log-likelihood per token vs time",
        &format!("K = {BENCH_TOPICS}, {iters} iterations, loglik scored every iteration"),
    );
    for (name, corpus) in [("NYTimes", nytimes_corpus()), ("PubMed", pubmed_corpus())] {
        let mut fig = Figure::new(
            format!("Fig 8 — {name}"),
            "time_seconds",
            "loglik_per_token",
        );
        fig.push(Series::new(
            "Titan",
            culda_series(&corpus, Platform::maxwell(), iters),
        ));
        fig.push(Series::new(
            "Pascal",
            culda_series(&corpus, Platform::pascal(), iters),
        ));
        fig.push(Series::new(
            "Volta",
            culda_series(&corpus, Platform::volta(), iters),
        ));
        fig.push(Series::new("WarpLDA", warplda_series(&corpus, iters)));
        fig.push(Series::new("SaberLDA~", saber_series(&corpus, iters)));
        if name == "PubMed" {
            fig.push(Series::new("LDA*", ldastar_series(&corpus, iters)));
        }
        print!("{}", fig.to_ascii(48));
        // Time-to-quality comparison: seconds to reach the Titan curve's
        // final likelihood.
        let target = fig.series[0].points.last().map(|p| p.1).unwrap_or(0.0);
        for s in &fig.series {
            let reach = s
                .points
                .iter()
                .find(|p| p.1 >= target)
                .map(|p| format!("{:.3}s", p.0))
                .unwrap_or_else(|| "not reached".into());
            println!(
                "  {:<10} reaches Titan-final loglik ({target:.3}) at {reach}",
                s.name
            );
        }
        println!();
        write_result(&format!("fig8_{}.csv", name.to_lowercase()), &fig.to_csv());
    }
}
