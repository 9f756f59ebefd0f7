//! Oracle equivalence: the optimized GPU kernels must produce exactly the
//! results of their plain host-side reference implementations, across
//! corpus shapes, topic counts, and execution configurations.

use culda::corpus::{partition_by_tokens, SortedChunk, SynthSpec};
use culda::gpusim::{Device, GpuSpec};
use culda::sampler::{
    accumulate_phi_host, build_block_map, build_theta_host, sample_chunk_reference,
    try_run_phi_clear_kernel, try_run_phi_update_kernel, try_run_sampling_kernel,
    try_run_theta_update_kernel, ChunkState, PhiModel, Priors, SampleConfig,
};

fn setup(k: usize, seed: u64) -> (SortedChunk, ChunkState, PhiModel) {
    let mut spec = SynthSpec::tiny();
    spec.num_docs = 90;
    spec.vocab_size = 180;
    spec.avg_doc_len = 25.0;
    spec.seed = seed;
    let corpus = spec.generate();
    let chunks = partition_by_tokens(&corpus, 1);
    let chunk = SortedChunk::build(&corpus, &chunks[0]);
    let state = ChunkState::init_random(&chunk, k, seed);
    let phi = PhiModel::zeros(k, corpus.vocab_size(), Priors::paper(k));
    accumulate_phi_host(&chunk, &state.z, &phi);
    (chunk, state, phi)
}

#[test]
fn sampling_kernel_equals_reference_across_configs() {
    for (k, seed) in [(4usize, 1u64), (16, 2), (100, 3), (1024, 4)] {
        let (chunk, state, phi) = setup(k, seed);
        let inv = phi.inv_denominators();
        let cfg = SampleConfig::new(seed * 31);
        let expected = sample_chunk_reference(&chunk, &state, &phi, &inv, &cfg);
        for (gpu, tpb, workers) in [
            (GpuSpec::titan_x_maxwell(), 64usize, 1usize),
            (GpuSpec::v100_volta(), 1000, 6),
        ] {
            let fresh = ChunkState {
                z: culda::gpusim::memory::AtomicU16Buf::from_vec(state.z.snapshot()),
                theta: state.theta.clone(),
            };
            let dev = Device::new(0, gpu.clone()).with_workers(workers);
            let map = build_block_map(&chunk, tpb);
            try_run_sampling_kernel(&dev, &chunk, &fresh, &phi, &inv, &map, &cfg).unwrap();
            assert_eq!(
                fresh.z.snapshot(),
                expected,
                "K = {k}, gpu = {}, tpb = {tpb}",
                gpu.name
            );
        }
    }
}

#[test]
fn update_kernels_equal_host_oracles_after_sampling() {
    // Full iteration pipeline: sample → θ kernel → ϕ kernel, each checked
    // against the host recount of the freshly sampled z.
    let (chunk, mut state, phi) = setup(32, 9);
    let inv = phi.inv_denominators();
    let cfg = SampleConfig::new(123);
    let dev = Device::new(0, GpuSpec::titan_xp_pascal()).with_workers(4);
    let map = build_block_map(&chunk, 200);
    try_run_sampling_kernel(&dev, &chunk, &state, &phi, &inv, &map, &cfg).unwrap();

    // θ kernel vs oracle.
    let theta_want = build_theta_host(&chunk, &state.z, 32);
    try_run_theta_update_kernel(&dev, &chunk, &mut state, 32).unwrap();
    assert_eq!(state.theta, theta_want);

    // ϕ kernel vs oracle.
    let phi_kernel = PhiModel::zeros(32, 180, Priors::paper(32));
    let phi_oracle = PhiModel::zeros(32, 180, Priors::paper(32));
    try_run_phi_clear_kernel(&dev, &phi_kernel, false).unwrap();
    try_run_phi_update_kernel(&dev, &chunk, &state, &phi_kernel, &map).unwrap();
    accumulate_phi_host(&chunk, &state.z, &phi_oracle);
    assert_eq!(phi_kernel.phi.snapshot(), phi_oracle.phi.snapshot());
    assert_eq!(phi_kernel.phi_sum.snapshot(), phi_oracle.phi_sum.snapshot());

    // And the whole state is self-consistent.
    culda::sampler::validate::check_chunk_consistency(&chunk, &state, Some(&phi_kernel));
}

#[test]
fn shared_memory_and_compression_flags_do_not_change_assignments() {
    let (chunk, state, phi) = setup(64, 5);
    let inv = phi.inv_denominators();
    let map = build_block_map(&chunk, 128);
    let mut outputs = Vec::new();
    for (shared, compressed) in [(true, true), (false, true), (true, false), (false, false)] {
        let fresh = ChunkState {
            z: culda::gpusim::memory::AtomicU16Buf::from_vec(state.z.snapshot()),
            theta: state.theta.clone(),
        };
        let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(3);
        let mut cfg = SampleConfig::new(55);
        cfg.use_shared_memory = shared;
        cfg.compressed = compressed;
        try_run_sampling_kernel(&dev, &chunk, &fresh, &phi, &inv, &map, &cfg).unwrap();
        outputs.push(fresh.z.snapshot());
    }
    for w in outputs.windows(2) {
        assert_eq!(w[0], w[1]);
    }
}

#[test]
fn dense_cgs_oracle_and_gpu_pipeline_reach_similar_quality() {
    // Statistical cross-check: starting from scratch, the deferred-update
    // GPU pipeline and the immediate-update dense CGS should land within a
    // reasonable band of each other after the same number of sweeps.
    use culda::gpusim::Platform;
    use culda::multigpu::{CuldaTrainer, TrainerConfig};
    let mut spec = SynthSpec::tiny();
    spec.num_docs = 150;
    spec.vocab_size = 250;
    spec.avg_doc_len = 30.0;
    let corpus = spec.generate();
    let iters = 40;

    let cfg = TrainerConfig::builder(8, Platform::maxwell())
        .iterations(iters)
        .score_every(0)
        .build()
        .unwrap();
    let gpu_ll = CuldaTrainer::try_new(&corpus, cfg)
        .unwrap()
        .try_train()
        .unwrap()
        .final_loglik_per_token;

    let mut dense = culda::sampler::DenseCgs::new(&corpus, 8, Priors::paper(8), 77);
    for _ in 0..iters {
        dense.iterate(&corpus);
    }
    let dense_ll = dense.loglik() / corpus.num_tokens() as f64;

    let gap = (gpu_ll - dense_ll).abs();
    assert!(
        gap < 0.6,
        "quality gap too large: GPU {gpu_ll:.4} vs dense {dense_ll:.4}"
    );
}
