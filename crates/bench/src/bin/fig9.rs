//! Regenerates **Figure 9**: multi-GPU scalability of CuLDA_CGS on the
//! Pascal platform with the PubMed data set.
//!
//! Paper values: 1.93× on two GPUs, 2.99× on four — sub-linear because of
//! the per-iteration ϕ reduce/broadcast.
//!
//! **Scaling note.** Multi-GPU efficiency is governed by the ratio of
//! per-iteration compute (∝ tokens `T`) to sync cost (∝ model size `V·K`).
//! The real PubMed has `T/(V·K) ≈ 5.1`; scaling the corpus down 650×
//! while keeping `K = 1024` would shrink that ratio 25× and make sync
//! swamp compute — an artifact of the down-scaling, not of the system.
//! This harness therefore scales the model with the corpus
//! (`K = 128` at a slightly larger PubMed scale), recovering the paper's
//! compute-to-sync ratio. `CULDA_SCALE` still applies on top.

use culda_bench::{banner, user_iters, user_scale, write_result};
use culda_corpus::SynthSpec;
use culda_gpusim::Platform;
use culda_metrics::{format_tokens_per_sec, Figure, Series};
use culda_multigpu::{CuldaTrainer, TrainerConfig};

/// Topic count scaled with the corpus (see module docs).
const BENCH_TOPICS: usize = 128;

fn main() {
    let iters = user_iters(20);
    banner(
        "Figure 9 — multi-GPU scaling, PubMed on the Pascal platform",
        &format!("K = {BENCH_TOPICS}, {iters} iterations; paper: 1.93x @2 GPUs, 2.99x @4 GPUs"),
    );
    let corpus = SynthSpec::pubmed_like(0.005 * user_scale()).generate();
    println!(
        "corpus: {} tokens, V = {}, T/(V*K) = {:.1} (paper: 5.1)\n",
        corpus.num_tokens(),
        corpus.vocab_size(),
        corpus.num_tokens() as f64 / (corpus.vocab_size() * BENCH_TOPICS) as f64
    );
    let mut per_iter_fig = Figure::new("Fig 9a — PubMed", "iteration", "tokens_per_sec");
    let mut scaling = Vec::new();
    for gpus in [1usize, 2, 4] {
        let cfg = TrainerConfig::builder(BENCH_TOPICS, Platform::pascal().with_gpus(gpus))
            .iterations(iters)
            .score_every(0)
            .build()
            .unwrap();
        let out = CuldaTrainer::new(&corpus, cfg).train();
        let tps = out.history.avg_tokens_per_sec(iters as usize);
        per_iter_fig.push(Series::new(
            format!("GPU*{gpus}"),
            out.history.throughput_series(),
        ));
        scaling.push((gpus, tps));
    }
    print!("{}", per_iter_fig.to_ascii(48));

    let base = scaling[0].1;
    let paper = [1.0, 1.93, 2.99];
    println!(
        "\n{:<8} {:>14} {:>10} {:>10} {:>10}",
        "#GPUs", "tokens/sec", "speedup", "paper", "linear"
    );
    let mut csv = String::from("gpus,tokens_per_sec,speedup,paper_speedup,modelled_over_paper\n");
    let mut speedup_fig = Figure::new("Fig 9b — Scalability", "gpus", "speedup");
    let mut pts = Vec::new();
    for (i, (gpus, tps)) in scaling.iter().enumerate() {
        let s = tps / base;
        println!(
            "{gpus:<8} {:>14} {s:>9.2}x {:>9.2}x {:>9.2}x",
            format_tokens_per_sec(*tps),
            paper[i],
            *gpus as f64
        );
        csv.push_str(&format!(
            "{gpus},{tps},{s},{},{:.3}\n",
            paper[i],
            s / paper[i]
        ));
        pts.push((*gpus as f64, s));
    }
    speedup_fig.push(Series::new("CuLDA_CGS", pts.clone()));
    speedup_fig.push(Series::new(
        "Linear",
        scaling
            .iter()
            .map(|(g, _)| (*g as f64, *g as f64))
            .collect(),
    ));

    let s2 = pts[1].1;
    let s4 = pts[2].1;
    let shape_ok = s2 > 1.5 && s2 < 2.0 && s4 > 2.2 && s4 < 4.0 && s4 > s2;
    println!(
        "\nShape check: 1.5 < s2 < 2.0 and 2.2 < s4 < 4.0 (sub-linear) — {}",
        if shape_ok { "HOLDS" } else { "VIOLATED" }
    );
    write_result("fig9.csv", &csv);
}
