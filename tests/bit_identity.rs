//! Bit-identity regression suite for the per-GPU worker layer.
//!
//! The CuLDA reproduction guarantees that training results depend only on
//! the seed — not on how work is distributed. The RNG is keyed by global
//! token index and every kernel reads only the previous iteration's
//! snapshot, so the sampled topic assignments `z` and the log-likelihood
//! series must be byte-identical across:
//!
//! * any simulated GPU count (1, 2, 4) for a fixed total chunk count, and
//! * any number of host threads per device (`--workers`), which changes
//!   only how the simulator executes thread blocks, never what they compute.

use culda::corpus::SynthSpec;
use culda::gpusim::Platform;
use culda::multigpu::{CuldaTrainer, TrainerConfig};

fn small_corpus() -> culda::corpus::Corpus {
    let mut spec = SynthSpec::tiny();
    spec.num_docs = 120;
    spec.vocab_size = 200;
    spec.avg_doc_len = 25.0;
    spec.seed = 7;
    spec.generate()
}

/// Runs a few iterations and returns every bit of observable sampling
/// state: per-chunk topic assignments (global chunk order) plus the
/// scored log-likelihood series.
fn run(cfg: TrainerConfig, iters: u32) -> (Vec<Vec<u16>>, Vec<f64>) {
    let corpus = small_corpus();
    let mut t = CuldaTrainer::try_new(&corpus, cfg).unwrap();
    for _ in 0..iters {
        t.try_step().unwrap();
    }
    let z: Vec<Vec<u16>> = t.states().iter().map(|s| s.z.snapshot()).collect();
    let ll: Vec<f64> = t
        .history()
        .loglik_series()
        .into_iter()
        .map(|(_, v)| v)
        .collect();
    (z, ll)
}

fn cfg(gpus: usize, chunks_per_gpu: usize) -> TrainerConfig {
    let mut c = TrainerConfig::builder(8, Platform::pascal().with_gpus(gpus))
        .seed(4242)
        .score_every(1)
        .build()
        .unwrap();
    c.chunks_per_gpu = Some(chunks_per_gpu);
    c
}

#[test]
fn z_and_loglik_series_identical_on_1_2_4_gpus() {
    // Same 4 global chunks spread over 1, 2, and 4 devices.
    let (z1, ll1) = run(cfg(1, 4), 3);
    let (z2, ll2) = run(cfg(2, 2), 3);
    let (z4, ll4) = run(cfg(4, 1), 3);
    assert_eq!(ll1.len(), 3, "score_every(1) over 3 iters");
    assert_eq!(z1, z2, "1-GPU vs 2-GPU topic assignments differ");
    assert_eq!(z2, z4, "2-GPU vs 4-GPU topic assignments differ");
    // f64 bit patterns, not approximate equality: the reduction order is
    // pinned to global chunk order so the series is exactly reproducible.
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(
        bits(&ll1),
        bits(&ll2),
        "1-GPU vs 2-GPU loglik series differ"
    );
    assert_eq!(
        bits(&ll2),
        bits(&ll4),
        "2-GPU vs 4-GPU loglik series differ"
    );
}

#[test]
fn z_and_loglik_series_identical_for_1_and_4_host_workers() {
    // Host-thread count is a pure wall-clock knob on the simulator.
    let with_workers = |n: usize| {
        let mut c = cfg(4, 1);
        c.host_workers = Some(n);
        c
    };
    let (zs, lls) = run(with_workers(1), 3);
    let (zp, llp) = run(with_workers(4), 3);
    assert_eq!(zs, zp, "1 vs 4 host workers changed topic assignments");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&lls), bits(&llp), "1 vs 4 host workers changed loglik");
}

#[test]
fn simulated_seconds_per_device_unchanged_by_host_workers() {
    // The simulated clock models the GPU, not the host: executing blocks
    // on more host threads must not move any device's `sim_seconds`.
    let corpus = small_corpus();
    let clock = |workers: usize| {
        let mut c = cfg(4, 1);
        c.host_workers = Some(workers);
        let mut t = CuldaTrainer::try_new(&corpus, c).unwrap();
        for _ in 0..2 {
            t.try_step().unwrap();
        }
        t.workers()
            .iter()
            .map(|w| w.device.now().to_bits())
            .collect::<Vec<u64>>()
    };
    assert_eq!(clock(1), clock(4));
}

#[test]
fn z_and_loglik_series_identical_with_observability_attached() {
    // Tracing and metrics are pure observers: attaching both sinks must
    // not move a single bit of sampled state or scored likelihood.
    let (z_plain, ll_plain) = run(cfg(4, 1), 3);
    let corpus = small_corpus();
    let mut t = CuldaTrainer::try_new(&corpus, cfg(4, 1)).unwrap();
    let sink = std::sync::Arc::new(culda::metrics::TraceSink::new());
    let registry = std::sync::Arc::new(culda::metrics::MetricsRegistry::new());
    t.attach_observability(Some(sink.clone()), Some(registry.clone()));
    for _ in 0..3 {
        t.try_step().unwrap();
    }
    let z_traced: Vec<Vec<u16>> = t.states().iter().map(|s| s.z.snapshot()).collect();
    let ll_traced: Vec<f64> = t
        .history()
        .loglik_series()
        .into_iter()
        .map(|(_, v)| v)
        .collect();
    assert_eq!(z_plain, z_traced, "tracing changed topic assignments");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&ll_plain), bits(&ll_traced), "tracing changed loglik");
    // And the observers did observe something.
    assert!(!sink.is_empty(), "trace sink captured no events");
    assert!(registry.counter("kernel.launches").value() > 0);
}
