//! Regenerates **Table 5**: execution-time breakdown of CuLDA_CGS on the
//! NYTimes data set, per platform.
//!
//! Paper values: Sampling 87.7% / 87.9% / 79.4%, Update θ 8.0% / 9.3% /
//! 10.8%, Update ϕ 4.3% / 1.7% / 9.8% on Titan / Pascal / Volta.

use culda_bench::{banner, nytimes_corpus, user_iters, write_result, BENCH_TOPICS};
use culda_gpusim::Platform;
use culda_metrics::Phase;
use culda_multigpu::{CuldaTrainer, TrainerConfig};

fn main() {
    let iters = user_iters(10);
    banner(
        "Table 5 — Execution time breakdown on NYTimes",
        &format!("K = {BENCH_TOPICS}, {iters} iterations, single GPU per platform"),
    );
    let corpus = nytimes_corpus();
    let paper: [(&str, [f64; 3]); 3] = [
        ("Sampling", [87.7, 87.9, 79.4]),
        ("Update theta", [8.0, 9.3, 10.8]),
        ("Update phi", [4.3, 1.7, 9.8]),
    ];

    let mut measured = Vec::new();
    for platform in Platform::all() {
        let cfg = TrainerConfig::builder(BENCH_TOPICS, platform.with_gpus(1))
            .iterations(iters)
            .score_every(0)
            .build()
            .unwrap();
        let out = CuldaTrainer::try_new(&corpus, cfg)
            .unwrap()
            .try_train()
            .unwrap();
        measured.push(out.breakdown);
    }

    println!(
        "{:<16} {:>8} {:>8} {:>8}    {:>8} {:>8} {:>8}",
        "Function", "Titan", "Pascal", "Volta", "(paper)", "", ""
    );
    let mut csv = String::from("function,platform,paper_pct,measured_pct,modelled_over_paper\n");
    let phases = [Phase::Sampling, Phase::UpdateTheta, Phase::UpdatePhi];
    for ((name, paper_row), phase) in paper.into_iter().zip(phases) {
        print!("{name:<16}");
        for b in &measured {
            print!(" {:>7.1}%", 100.0 * b.fraction(phase));
        }
        print!("   ");
        for p in paper_row {
            print!(" {p:>7.1}%");
        }
        println!();
        for (i, plat) in ["Titan", "Pascal", "Volta"].iter().enumerate() {
            let pct = 100.0 * measured[i].fraction(phase);
            csv.push_str(&format!(
                "{name},{plat},{},{pct:.2},{:.3}\n",
                paper_row[i],
                pct / paper_row[i]
            ));
        }
    }
    println!(
        "\nShape check: sampling dominates on every platform — {}",
        if measured.iter().all(|b| b.fraction(Phase::Sampling) > 0.5) {
            "HOLDS (paper: 79.4%–87.9%)"
        } else {
            "VIOLATED"
        }
    );
    write_result("table5.csv", &csv);
}
