//! Regenerates **Figure 7**: achieved sampling speed (`#Tokens/sec`) per
//! iteration of CuLDA_CGS on Titan / Pascal / Volta plus WarpLDA, for both
//! data sets.
//!
//! The paper's observations this must reproduce:
//! * throughput ramps up over the first iterations as θ sparsifies, then
//!   goes steady;
//! * the ramp is more pronounced on NYTimes than PubMed (longer documents
//!   → denser initial θ);
//! * ordering Volta > Pascal > Titan > WarpLDA at every iteration.

use culda_bench::{banner, nytimes_corpus, pubmed_corpus, user_iters, write_result, BENCH_TOPICS};
use culda_corpus::Corpus;
use culda_gpusim::Platform;
use culda_metrics::{Figure, Series};
use culda_multigpu::{CuldaTrainer, TrainerConfig};
use culda_sampler::Priors;

fn culda_series(corpus: &Corpus, platform: Platform, iters: u32) -> Vec<(f64, f64)> {
    let cfg = TrainerConfig::builder(BENCH_TOPICS, platform.with_gpus(1))
        .iterations(iters)
        .score_every(0)
        .build()
        .unwrap();
    CuldaTrainer::try_new(corpus, cfg)
        .unwrap()
        .try_train()
        .unwrap()
        .history
        .throughput_series()
}

fn warplda_series(corpus: &Corpus, iters: u32) -> Vec<(f64, f64)> {
    let mut w = culda_baselines::WarpLda::new(corpus, BENCH_TOPICS, Priors::paper(BENCH_TOPICS), 7);
    (0..iters)
        .map(|i| {
            let (n, s) = w.iterate();
            (i as f64, n as f64 / s)
        })
        .collect()
}

fn main() {
    let iters = user_iters(30);
    banner(
        "Figure 7 — #Tokens/sec per iteration (Titan, Pascal, Volta, WarpLDA)",
        &format!("K = {BENCH_TOPICS}, {iters} iterations"),
    );
    for (name, corpus) in [("NYTimes", nytimes_corpus()), ("PubMed", pubmed_corpus())] {
        let mut fig = Figure::new(format!("Fig 7 — {name}"), "iteration", "tokens_per_sec");
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
        print!("{}", fig.to_ascii(48));

        // Ramp-up check: steady-state vs first-iteration throughput.
        for s in &fig.series {
            if s.name == "WarpLDA" || s.points.len() < 4 {
                continue;
            }
            let first = s.points[0].1;
            let last = s.points[s.points.len() - 1].1;
            println!(
                "  {:<8} ramp-up: iter0 {:.1}M -> steady {:.1}M ({:+.1}%)",
                s.name,
                first / 1e6,
                last / 1e6,
                100.0 * (last - first) / first
            );
        }
        println!();
        write_result(&format!("fig7_{}.csv", name.to_lowercase()), &fig.to_csv());
    }
}
