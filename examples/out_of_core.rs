//! Out-of-core training (WorkSchedule2): a corpus that does NOT fit the
//! device forces `M > 1`, and the chunk pipeline overlaps PCIe transfers
//! with compute (Algorithm 1, Section 5.1).
//!
//! ```sh
//! cargo run --release --example out_of_core
//! ```

use culda::corpus::SynthSpec;
use culda::gpusim::{GpuSpec, Platform};
use culda::metrics::{format_tokens_per_sec, Phase};
use culda::multigpu::{CuldaTrainer, TrainerConfig};

fn main() {
    let mut spec = SynthSpec::tiny();
    spec.num_docs = 3000;
    spec.vocab_size = 1500;
    spec.avg_doc_len = 100.0;
    let corpus = spec.generate();
    let k = 64;

    // A Titan X whose memory has been shrunk until only a fraction of the
    // corpus state fits alongside the model.
    let probe = TrainerConfig::builder(k, Platform::maxwell())
        .build()
        .unwrap();
    let model_bytes = 2 * probe.phi_device_bytes(corpus.vocab_size());
    let mut tiny = Platform::maxwell();
    tiny.gpu = GpuSpec {
        memory_bytes: model_bytes + corpus.num_tokens() * 10 / 3,
        ..tiny.gpu
    };
    println!(
        "corpus: {} tokens; device memory clamped to {} MiB\n",
        corpus.num_tokens(),
        tiny.gpu.memory_bytes >> 20
    );

    let iters = 8u32;
    for (label, platform) in [
        ("clamped (out-of-core)", tiny),
        ("full 12 GiB (resident)", Platform::maxwell()),
    ] {
        let cfg = TrainerConfig::builder(k, platform)
            .iterations(iters)
            .score_every(0)
            .build()
            .unwrap();
        let trainer = CuldaTrainer::try_new(&corpus, cfg).unwrap();
        let m = trainer.plan().m;
        let c = trainer.plan().c;
        let out = trainer.try_train().unwrap();
        let tps = out.history.avg_tokens_per_sec(iters as usize);
        let exposed = out.breakdown.seconds(Phase::Transfer);
        println!("{label}:");
        println!("  plan: M = {m}, C = {c}");
        println!("  throughput: {}/s", format_tokens_per_sec(tps));
        println!(
            "  exposed transfer time: {:.3} ms/iter (hidden by the H2D/compute/D2H pipeline)",
            1e3 * exposed / iters as f64
        );
        println!("  final loglik/token: {:.4}\n", out.final_loglik_per_token);
    }
    println!(
        "Same statistics either way — the out-of-core path changes where the\n\
         data lives and what the iteration costs, never what it computes."
    );
}
