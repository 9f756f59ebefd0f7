//! Regenerates **Table 4**: average `#Tokens/sec` of CuLDA_CGS on the
//! three platforms and of WarpLDA, over the first 100 iterations.
//!
//! Paper values — NYTimes: Titan 173.6M, Pascal 208.0M, Volta 633.0M,
//! WarpLDA 108.0M; PubMed: 155.6M, 213.0M, 686.2M, 93.5M. Absolute numbers
//! depend on the full-size corpora; the *shape* (Volta ≫ Pascal > Titan ≫
//! WarpLDA, with a super-bandwidth Volta gain) is what this harness
//! checks. Table 2's platform parameters are printed as a header.

use culda_bench::{banner, nytimes_corpus, pubmed_corpus, user_iters, write_result, BENCH_TOPICS};
use culda_corpus::Corpus;
use culda_gpusim::Platform;
use culda_metrics::format_tokens_per_sec;
use culda_multigpu::{CuldaTrainer, TrainerConfig};
use culda_sampler::Priors;

fn culda_tps(corpus: &Corpus, platform: Platform, iters: u32) -> f64 {
    let cfg = TrainerConfig::builder(BENCH_TOPICS, platform.with_gpus(1))
        .iterations(iters)
        .score_every(0)
        .build()
        .unwrap();
    let out = CuldaTrainer::new(corpus, cfg).train();
    out.history.avg_tokens_per_sec(iters as usize)
}

fn warplda_tps(corpus: &Corpus, iters: u32) -> f64 {
    let mut w = culda_baselines::WarpLda::new(corpus, BENCH_TOPICS, Priors::paper(BENCH_TOPICS), 7);
    let mut tokens = 0u64;
    let mut secs = 0.0;
    for _ in 0..iters {
        let (n, s) = w.iterate();
        tokens += n;
        secs += s;
    }
    tokens as f64 / secs
}

fn main() {
    let iters = user_iters(30);
    banner(
        "Table 4 — Average #Tokens/sec of CuLDA_CGS and WarpLDA",
        &format!("K = {BENCH_TOPICS}, first {iters} iterations, single GPU per platform"),
    );
    println!("Table 2 platforms:");
    for p in Platform::all() {
        println!(
            "  {:<18} {:<20} {:>4} SMs {:>6.0} GB/s  {:>2} GPU(s)",
            p.name, p.gpu.name, p.gpu.sm_count, p.gpu.mem_bandwidth_gbps, p.num_gpus
        );
    }
    println!();

    let paper = [
        ("NYTimes", [173.6e6, 208.0e6, 633.0e6, 108.0e6]),
        ("PubMed", [155.6e6, 213.0e6, 686.2e6, 93.5e6]),
    ];
    let mut csv = String::from("dataset,system,paper_tps,measured_tps,modelled_over_paper\n");
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>14}",
        "Dataset", "Titan", "Pascal", "Volta", "WarpLDA"
    );
    for (name, paper_row) in paper {
        let corpus = if name == "NYTimes" {
            nytimes_corpus()
        } else {
            pubmed_corpus()
        };
        let titan = culda_tps(&corpus, Platform::maxwell(), iters);
        let pascal = culda_tps(&corpus, Platform::pascal(), iters);
        let volta = culda_tps(&corpus, Platform::volta(), iters);
        let warp = warplda_tps(&corpus, iters);
        println!(
            "{:<10} {:>14} {:>14} {:>14} {:>14}   (measured)",
            name,
            format_tokens_per_sec(titan),
            format_tokens_per_sec(pascal),
            format_tokens_per_sec(volta),
            format_tokens_per_sec(warp),
        );
        println!(
            "{:<10} {:>14} {:>14} {:>14} {:>14}   (paper)",
            "",
            format_tokens_per_sec(paper_row[0]),
            format_tokens_per_sec(paper_row[1]),
            format_tokens_per_sec(paper_row[2]),
            format_tokens_per_sec(paper_row[3]),
        );
        for (sys, paper_v, ours) in [
            ("Titan", paper_row[0], titan),
            ("Pascal", paper_row[1], pascal),
            ("Volta", paper_row[2], volta),
            ("WarpLDA", paper_row[3], warp),
        ] {
            csv.push_str(&format!(
                "{name},{sys},{paper_v},{ours},{:.3}\n",
                ours / paper_v
            ));
        }
        // Shape checks the paper's narrative depends on.
        let shape_ok = volta > pascal && pascal > titan && titan > 1.6 * warp;
        println!(
            "{:<10} shape: Volta > Pascal > Titan > 1.6×WarpLDA — {}",
            "",
            if shape_ok { "HOLDS" } else { "VIOLATED" }
        );
        println!(
            "{:<10} Volta/Titan = {:.2}x (paper 3.65–4.41x, bandwidth alone 2.68x)\n",
            "",
            volta / titan
        );
    }
    write_result("table4.csv", &csv);
}
