//! # culda-bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! paper's evaluation (Section 7), the design ablations and extensions,
//! and the mode-grid benchmark that CI gates.
//!
//! Binaries (see DESIGN.md §4 for the full index):
//!
//! | binary           | regenerates |
//! |------------------|-------------|
//! | `table1`         | Flops/Byte of the sampling steps |
//! | `table3`         | dataset statistics |
//! | `table4`         | avg tokens/s, CuLDA × 3 platforms vs WarpLDA |
//! | `table5`         | execution-time breakdown |
//! | `fig7`           | tokens/s vs iteration |
//! | `fig8`           | log-likelihood/token vs time |
//! | `fig9`           | multi-GPU scaling |
//! | `ablation`       | Section 4–6 design ablations |
//! | `ext_perplexity` | held-out perplexity vs iterations |
//! | `bench_modes`    | the mode grid: sync, sampling and draw modes, node counts, serving hot-swap (`BENCH_modes.jsonl`) |
//!
//! The paper harnesses print the paper's reported values next to the
//! measured ones and write CSV into `results/`. Their workload scale and
//! iteration count are tuned for a laptop-class box and can be overridden
//! with the `CULDA_SCALE` (relative, default 1.0) and `CULDA_ITERS` env
//! vars. `bench_modes` takes neither: its stdout is compared byte for byte
//! with the committed `BENCH_modes.jsonl`.

use culda_corpus::{Corpus, SynthSpec};
use std::io::Write as _;
use std::path::PathBuf;

/// Default number of topics for the headline experiments (the paper sweeps
/// 1k–10k; 1024 keeps every shared-memory structure comfortably in budget).
pub const BENCH_TOPICS: usize = 1024;

/// Base scale of the NYTimes-like corpus relative to the real dataset.
pub const NYTIMES_BASE_SCALE: f64 = 0.01;

/// Base scale of the PubMed-like corpus relative to the real dataset.
pub const PUBMED_BASE_SCALE: f64 = 0.0015;

/// User scale multiplier from `CULDA_SCALE`.
pub fn user_scale() -> f64 {
    std::env::var("CULDA_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Iteration count from `CULDA_ITERS` (default `default`).
pub fn user_iters(default: u32) -> u32 {
    std::env::var("CULDA_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The scaled-down NYTimes-like benchmark corpus.
pub fn nytimes_corpus() -> Corpus {
    SynthSpec::nytimes_like(NYTIMES_BASE_SCALE * user_scale()).generate()
}

/// The scaled-down PubMed-like benchmark corpus.
pub fn pubmed_corpus() -> Corpus {
    SynthSpec::pubmed_like(PUBMED_BASE_SCALE * user_scale()).generate()
}

/// `results/` directory at the workspace root (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes `content` to `results/<name>` and reports the path.
pub fn write_result(name: &str, content: &str) {
    let path = results_dir().join(name);
    let mut f = std::fs::File::create(&path).expect("create result file");
    f.write_all(content.as_bytes()).expect("write result file");
    println!("\nwrote {}", path.display());
}

/// Standard experiment banner.
pub fn banner(title: &str, note: &str) {
    println!("================================================================");
    println!("{title}");
    println!("{note}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpora_build_at_bench_scale() {
        let ny = nytimes_corpus();
        let pm = pubmed_corpus();
        assert!(ny.num_tokens() > 100_000);
        assert!(pm.num_tokens() > 100_000);
        // The defining statistic: NYTimes docs are much longer.
        assert!(ny.avg_doc_len() > 2.5 * pm.avg_doc_len());
    }

    #[test]
    fn env_overrides_parse() {
        assert!(user_iters(42) >= 1);
        assert!(user_scale() > 0.0);
    }
}
