//! Cross-platform throughput on a NYTimes-scale workload (the paper's
//! Section 7.1 experiment at reduced scale): the same training run on the
//! Table 2 Maxwell, Pascal and Volta machines.
//!
//! ```sh
//! cargo run --release --example nytimes_like
//! ```

use culda::corpus::SynthSpec;
use culda::gpusim::Platform;
use culda::metrics::format_tokens_per_sec;
use culda::multigpu::{CuldaTrainer, TrainerConfig};

fn main() {
    let corpus = SynthSpec::nytimes_like(0.005).generate();
    println!(
        "NYTimes-like corpus at 1/200 scale: {} docs, {} tokens, V = {}, avg len {:.0}\n",
        corpus.num_docs(),
        corpus.num_tokens(),
        corpus.vocab_size(),
        corpus.avg_doc_len()
    );
    let k = 1024;
    let iters = 10;
    println!(
        "{:<20} {:>12} {:>12} {:>14} {:>12}",
        "Platform", "GPU", "BW (GB/s)", "tokens/sec", "vs Titan"
    );
    let mut titan_tps = None;
    for platform in Platform::all() {
        let name = platform.name;
        let gpu_bw = platform.gpu.mem_bandwidth_gbps;
        let cfg = TrainerConfig::builder(k, platform.with_gpus(1))
            .iterations(iters)
            .score_every(0)
            .build()
            .unwrap();
        let out = CuldaTrainer::try_new(&corpus, cfg)
            .unwrap()
            .try_train()
            .unwrap();
        let tps = out.history.avg_tokens_per_sec(iters as usize);
        let base = *titan_tps.get_or_insert(tps);
        println!(
            "{:<20} {:>12} {:>12.0} {:>14} {:>11.2}x",
            name,
            "1x",
            gpu_bw,
            format_tokens_per_sec(tps),
            tps / base
        );
    }
    println!(
        "\npaper (full-size corpus): Titan 173.6M, Pascal 208.0M, Volta 633.0M tokens/s\n\
         expected shape: Volta > Pascal > Titan, with Volta/Titan above the\n\
         raw bandwidth ratio (2.68x) thanks to its 80 SMs of shared memory."
    );
}
