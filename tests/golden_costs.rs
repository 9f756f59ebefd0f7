//! Golden cost pins: the exact modelled charges of the `lda_sample`,
//! `lda_infer`, `phi_clear` and `phi_update` kernels, and the ϕ layouts the
//! update kernel and every sync mode leave behind.
//!
//! The kernels' host code may be restructured for speed (shared prefix
//! passes, cached L1 lookups, reused scratch), but every modelled charge —
//! each `KernelCost` field and the roofline seconds derived from it — must
//! come out exactly as before, and so must the sampled topics and the
//! inferred posteriors. These pins were recorded from the straightforward
//! per-token implementation; a mismatch means a host-side change leaked
//! into the model.
//!
//! The fixtures cover the cases a run-sharing fast path could get wrong:
//! repeated (document, word) runs within one sampler, θ rows wider than the
//! 24-line L1 model (K_d > 512), and a token whose document has an empty θ
//! row (S = 0, so the p1 branch can never be taken). Two more pin
//! `lda_sample` where the p* tree has two upper levels: K = 4096, with
//! sparse ϕ rows whose first nonzero column is past 0, and K = 10 000,
//! where p* and the tree spill shared memory.
//!
//! The ϕ writers (the update kernel and the sync's Δϕ store, which every
//! sync mode runs) may batch their writes per row, but they must leave the
//! same counts, the same dense/sparse row layouts and the same dirty-row
//! marks: the sparse `phi_clear` charge is priced from the layout census,
//! so a row promoted at a different moment would move the modelled clock.
//! Every replica must end a sync as the same model.
//!
//! Re-pin deliberately with `CULDA_PRINT_GOLDEN=1 cargo test --test
//! golden_costs -- --nocapture` and say why in the commit message.

use culda::corpus::{partition_by_tokens, CsrMatrix, SortedChunk, SynthSpec};
use culda::gpusim::memory::AtomicU16Buf;
use culda::gpusim::{Device, GpuSpec, LaunchReport, Link, Platform};
use culda::multigpu::{sync_phi, SyncMode, SyncReport, TrainerConfig};
use culda::sampler::{
    accumulate_phi_host, build_block_map, try_run_infer_kernel, try_run_phi_clear_kernel,
    try_run_phi_update_kernel, try_run_sampling_kernel, ChunkState, DrawMode, InferDoc,
    InferKernelConfig, PhiModel, Priors, SampleConfig,
};
use culda::sampler::{depth_for, DEFAULT_FANOUT};

/// FNV-1a over a byte stream.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// One pinned line: every `KernelCost` field plus the bits of `sim_seconds`.
fn cost_line(label: &str, r: &LaunchReport) -> String {
    let c = &r.cost;
    format!(
        "{label} {} {} {} {} {} {} {:#x}",
        c.dram_read_bytes,
        c.dram_write_bytes,
        c.shared_bytes,
        c.flops,
        c.atomics,
        c.blocks,
        r.sim_seconds.to_bits()
    )
}

fn check(name: &str, got: &[String], pinned: &[&str]) {
    if std::env::var("CULDA_PRINT_GOLDEN").is_ok() {
        println!("const {name}: &[&str] = &[");
        for line in got {
            println!("    {line:?},");
        }
        println!("];");
    }
    assert_eq!(got.len(), pinned.len(), "{name}: launch count changed");
    for (g, p) in got.iter().zip(pinned) {
        assert_eq!(g, p, "{name}: modelled charge changed");
    }
}

struct Fixture {
    name: &'static str,
    chunk: SortedChunk,
    state: ChunkState,
    phi: PhiModel,
    tokens_per_block: usize,
}

fn corpus_fixture(
    name: &'static str,
    k: usize,
    docs: usize,
    vocab: usize,
    len: f64,
    tpb: usize,
) -> Fixture {
    let mut spec = SynthSpec::tiny();
    spec.num_docs = docs;
    spec.vocab_size = vocab;
    spec.avg_doc_len = len;
    spec.topic_support = vocab.min(spec.topic_support);
    spec.seed = 0x60_1D_C0 ^ k as u64;
    let corpus = spec.generate();
    let chunks = partition_by_tokens(&corpus, 1);
    let chunk = SortedChunk::build(&corpus, &chunks[0]);
    let state = ChunkState::init_random(&chunk, k, 7);
    let phi = PhiModel::zeros(k, corpus.vocab_size(), Priors::paper(k));
    accumulate_phi_host(&chunk, &state.z, &phi);
    Fixture {
        name,
        chunk,
        state,
        phi,
        tokens_per_block: tpb,
    }
}

/// Three fixtures: short docs over a small vocabulary (many repeated
/// (doc, word) runs, K = 64), long docs at K = 1024 (θ rows past 512
/// non-zeros), and the first with one document's θ row emptied (S = 0).
fn fixtures() -> Vec<Fixture> {
    let repeats = corpus_fixture("repeats", 64, 60, 40, 50.0, 256);
    let long = corpus_fixture("long_rows", 1024, 6, 300, 1500.0, 512);

    let base = corpus_fixture("empty_s", 64, 60, 40, 50.0, 96);
    let rows = base.state.theta.num_rows();
    let dense: Vec<Vec<u32>> = (0..rows)
        .map(|d| {
            let mut row = vec![0u32; 64];
            if d != 0 {
                let (cols, vals) = base.state.theta.row(d);
                for (&c, &v) in cols.iter().zip(vals) {
                    row[c as usize] = v;
                }
            }
            row
        })
        .collect();
    let empty = Fixture {
        state: ChunkState {
            z: AtomicU16Buf::from_vec(base.state.z.snapshot()),
            theta: CsrMatrix::from_dense_rows(&dense, 64),
        },
        ..base
    };
    vec![repeats, long, empty]
}

/// The sampling fixtures: [`fixtures`] plus two wide-K ones whose p* trees
/// have two upper levels. K = 4096 keeps p* and its tree in shared memory,
/// and its sparse ϕ rows start past column 0. At K = 10 000 p* and the
/// tree spill shared memory.
fn sample_fixtures() -> Vec<Fixture> {
    let mut fx = fixtures();
    fx.push(corpus_fixture("k4096", 4096, 30, 60, 40.0, 128));
    fx.push(corpus_fixture("k10000", 10_000, 24, 50, 30.0, 64));
    fx
}

fn fresh(state: &ChunkState) -> ChunkState {
    ChunkState {
        z: AtomicU16Buf::from_vec(state.z.snapshot()),
        theta: state.theta.clone(),
    }
}

#[test]
fn fixtures_cover_runs_wide_rows_and_empty_s() {
    let fx = fixtures();
    let runs = |f: &Fixture| {
        let c = &f.chunk;
        (0..c.word_ids.len())
            .flat_map(|wi| {
                c.word_tokens(wi)
                    .collect::<Vec<_>>()
                    .windows(2)
                    .map(|w| (w[0], w[1]))
                    .collect::<Vec<_>>()
            })
            .filter(|&(a, b)| c.token_doc[a] == c.token_doc[b])
            .count()
    };
    assert!(runs(&fx[0]) > 100, "repeats fixture has too few runs");
    let max_kd = (0..fx[1].state.theta.num_rows())
        .map(|d| fx[1].state.theta.row(d).0.len())
        .max()
        .unwrap();
    assert!(max_kd > 512, "long_rows fixture tops out at K_d = {max_kd}");
    assert!(fx[2].state.theta.row(0).0.is_empty());
    assert!(fx[2].chunk.token_doc.contains(&0), "doc 0 has no tokens");

    let fx = sample_fixtures();
    let budget = GpuSpec::titan_xp_pascal().shared_mem_per_block;
    // The kernel's p* + tree shared-memory predicate.
    let pstar_fits = |k: usize| (2 * k + k / 16 + 64) * 4 <= budget;
    let (wide, spill) = (&fx[3], &fx[4]);
    assert_eq!(depth_for(wide.phi.num_topics, DEFAULT_FANOUT), 3);
    assert!(
        pstar_fits(wide.phi.num_topics),
        "k4096 p* must stay on-chip"
    );
    let m = &wide.phi.phi;
    let late_sparse = (0..m.num_rows())
        .filter(|&v| !m.row_is_dense(v))
        .filter_map(|v| m.row_nonzeros(v).first().map(|&(t, _)| t))
        .filter(|&t| t > 0)
        .count();
    assert!(
        late_sparse > 10,
        "k4096 has {late_sparse} sparse rows starting past column 0"
    );
    assert_eq!(depth_for(spill.phi.num_topics, DEFAULT_FANOUT), 3);
    assert!(!pstar_fits(spill.phi.num_topics), "k10000 p* must spill");
}

#[test]
fn lda_sample_charges_are_pinned() {
    let mut lines = Vec::new();
    for f in sample_fixtures() {
        let inv = f.phi.inv_denominators();
        let map = build_block_map(&f.chunk, f.tokens_per_block);
        let mut z_hash = None;
        for draw in [DrawMode::Tree, DrawMode::Butterfly, DrawMode::Auto] {
            for shared in [true, false] {
                for l1 in [true, false] {
                    for sparse in [false, true] {
                        let mut cfg = SampleConfig::new(0x5EED);
                        cfg.iteration = 3;
                        cfg.draw = draw;
                        cfg.use_shared_memory = shared;
                        cfg.use_l1_for_indices = l1;
                        cfg.sparse = sparse;
                        let state = fresh(&f.state);
                        let dev = Device::new(0, GpuSpec::titan_xp_pascal()).with_workers(2);
                        let r = try_run_sampling_kernel(
                            &dev, &f.chunk, &state, &f.phi, &inv, &map, &cfg,
                        )
                        .unwrap();
                        let label = format!(
                            "{}/{draw}/shared={}/l1={}/sparse={}",
                            f.name, shared as u8, l1 as u8, sparse as u8
                        );
                        lines.push(cost_line(&label, &r));
                        let h = fnv(state.z.snapshot().into_iter().flat_map(u16::to_le_bytes));
                        assert_eq!(*z_hash.get_or_insert(h), h, "{label}: topics changed");
                    }
                }
            }
        }
        lines.push(format!("{}/z {:#x}", f.name, z_hash.unwrap()));
    }
    check("SAMPLE_PINS", &lines, SAMPLE_PINS);
}

#[test]
fn lda_infer_charges_are_pinned() {
    let mut lines = Vec::new();
    for (name, k) in [("k64", 64usize), ("k8192", 8192)] {
        let f = corpus_fixture("infer", k, 40, 120, 30.0, 256);
        let inv = f.phi.inv_denominators();
        let held: Vec<Vec<u32>> = {
            let mut spec = SynthSpec::tiny();
            spec.num_docs = 5;
            spec.vocab_size = 120;
            spec.avg_doc_len = if k > 1024 { 12.0 } else { 40.0 };
            spec.seed = 0x1_F01D;
            let mut docs: Vec<Vec<u32>> = spec
                .generate()
                .docs
                .iter()
                .map(|d| d.words.clone())
                .collect();
            docs.push(Vec::new()); // an empty request document
            docs
        };
        let batch: Vec<InferDoc<'_>> = held
            .iter()
            .enumerate()
            .map(|(i, w)| InferDoc {
                stream_id: 100 + i as u64,
                words: w,
            })
            .collect();
        let mut post_hash = None;
        for shared in [true, false] {
            for compressed in [true, false] {
                let mut cfg = InferKernelConfig::new(0x1F);
                cfg.burnin = 2;
                cfg.samples = 2;
                cfg.use_shared_memory = shared;
                cfg.compressed = compressed;
                let dev = Device::new(0, GpuSpec::titan_xp_pascal()).with_workers(2);
                let (post, r) = try_run_infer_kernel(&dev, &f.phi, &inv, &batch, &cfg).unwrap();
                // The fold-in charges the tree walk; "tree" keeps the labels
                // the pins were recorded under.
                let label = format!(
                    "{name}/tree/shared={}/compressed={}",
                    shared as u8, compressed as u8
                );
                lines.push(cost_line(&label, &r));
                let h = fnv(post.iter().flat_map(|p| {
                    let acc = p.theta_acc.iter().flat_map(|c| c.to_le_bytes());
                    let ll = p
                        .sweep_log_predictive
                        .iter()
                        .flat_map(|l| l.to_bits().to_le_bytes());
                    acc.chain(p.acc_sweeps.to_le_bytes())
                        .chain(ll)
                        .collect::<Vec<_>>()
                }));
                assert_eq!(*post_hash.get_or_insert(h), h, "{label}: posterior changed");
            }
        }
        lines.push(format!("{name}/posterior {:#x}", post_hash.unwrap()));
    }
    check("INFER_PINS", &lines, INFER_PINS);
}

/// Hash of everything a ϕ writer leaves behind: counts, column sums, and
/// per row its nnz, physical layout and dirty mark.
fn layout_hash(phi: &PhiModel) -> u64 {
    let m = &phi.phi;
    let mut bytes = Vec::new();
    for v in 0..m.num_rows() {
        bytes.push(m.row_is_dense(v) as u8);
        bytes.push(m.dirty().is_marked(v) as u8);
        bytes.extend((m.row_nnz(v) as u32).to_le_bytes());
    }
    bytes.extend(m.snapshot().into_iter().flat_map(u32::to_le_bytes));
    bytes.extend(
        phi.phi_sum
            .snapshot()
            .into_iter()
            .flat_map(u32::to_le_bytes),
    );
    fnv(bytes)
}

#[test]
fn phi_update_charges_and_layouts_are_pinned() {
    let mut lines = Vec::new();
    for f in fixtures() {
        // The fixture's own block size, and a tiny one that splits every
        // word into many blocks (many writers per row).
        for tpb in [f.tokens_per_block, 5] {
            let map = build_block_map(&f.chunk, tpb);
            let phi = PhiModel::zeros(f.phi.num_topics, f.phi.vocab_size, f.phi.priors);
            let dev = Device::new(0, GpuSpec::titan_xp_pascal()).with_workers(2);
            // Two iterations: the second clear is priced from the layout
            // the first update left (sparse clear), then the update rebuilds.
            for sparse in [false, true] {
                let clear = try_run_phi_clear_kernel(&dev, &phi, sparse).unwrap();
                let update =
                    try_run_phi_update_kernel(&dev, &f.chunk, &f.state, &phi, &map).unwrap();
                let label = format!("{}/tpb={tpb}/sparse={}", f.name, sparse as u8);
                lines.push(cost_line(&format!("{label}/clear"), &clear));
                lines.push(cost_line(&format!("{label}/update"), &update));
            }
            lines.push(format!(
                "{}/tpb={tpb}/layout {:#x}",
                f.name,
                layout_hash(&phi)
            ));
            let clear = try_run_phi_clear_kernel(&dev, &phi, true).unwrap();
            lines.push(cost_line(
                &format!("{}/tpb={tpb}/final_clear", f.name),
                &clear,
            ));
        }
    }
    check("PHI_UPDATE_PINS", &lines, PHI_UPDATE_PINS);
}

fn sync_line(label: &str, r: &SyncReport) -> String {
    format!(
        "{label} {:#x} {:#x} {} {} {} {} {}",
        r.reduce_seconds.to_bits(),
        r.broadcast_seconds.to_bits(),
        r.rounds,
        r.bytes_moved,
        r.dense_bytes,
        r.nnz,
        r.mode
    )
}

#[test]
fn sync_apply_layouts_are_pinned() {
    let mut lines = Vec::new();
    // K = 64 over a small vocabulary (summed rows cross the storage
    // cutover) and K = 1024 with long documents.
    for (name, k, docs, vocab, len) in [
        ("k64", 64usize, 90usize, 40usize, 50.0f64),
        ("k1024", 1024, 9, 300, 1500.0),
    ] {
        let mut spec = SynthSpec::tiny();
        spec.num_docs = docs;
        spec.vocab_size = vocab;
        spec.avg_doc_len = len;
        spec.topic_support = vocab.min(spec.topic_support);
        spec.seed = 0x5_1AC ^ k as u64;
        let corpus = spec.generate();
        let g = 3;
        let parts: Vec<(SortedChunk, ChunkState)> = partition_by_tokens(&corpus, g)
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let chunk = SortedChunk::build(&corpus, c);
                let state = ChunkState::init_random(&chunk, k, 11 + i as u64);
                (chunk, state)
            })
            .collect();
        let cfg = TrainerConfig::builder(k, Platform::pascal().with_gpus(g))
            .build()
            .unwrap();
        let gpu = GpuSpec::titan_xp_pascal();
        let link = Link::pcie3();
        for mode in [
            SyncMode::DenseTree,
            SyncMode::DenseRing,
            SyncMode::Delta,
            SyncMode::Auto,
        ] {
            let replicas: Vec<PhiModel> = parts
                .iter()
                .map(|(chunk, state)| {
                    let phi = PhiModel::zeros(k, corpus.vocab_size(), Priors::paper(k));
                    let dev = Device::new(0, gpu.clone()).with_workers(2);
                    try_run_phi_update_kernel(&dev, chunk, state, &phi, &build_block_map(chunk, 7))
                        .unwrap();
                    phi
                })
                .collect();
            let refs: Vec<&PhiModel> = replicas.iter().collect();
            let r = sync_phi(mode, &refs, &gpu, &link, &cfg);
            lines.push(sync_line(&format!("{name}/{mode}"), &r));
            for (i, phi) in replicas.iter().enumerate() {
                lines.push(format!("{name}/{mode}/replica{i} {:#x}", layout_hash(phi)));
            }
            let hashes: Vec<u64> = replicas.iter().map(layout_hash).collect();
            assert!(
                hashes.iter().all(|&h| h == hashes[0]),
                "{name}/{mode}: the replicas ended the sync as different models"
            );
            let clear =
                try_run_phi_clear_kernel(&Device::new(0, gpu.clone()), &replicas[0], true).unwrap();
            lines.push(cost_line(&format!("{name}/{mode}/clear"), &clear));
        }
    }
    check("SYNC_PINS", &lines, SYNC_PINS);
}

const PHI_UPDATE_PINS: &[&str] = &[
    "repeats/tpb=256/sparse=0/clear 0 10496 0 0 0 3 0x3edf9fbbbba7a28b",
    "repeats/tpb=256/sparse=0/update 5808 23232 0 0 5855 47 0x3ede20a76a67a7da",
    "repeats/tpb=256/sparse=1/clear 0 1172 0 0 0 3 0x3edd9ce7ba47fb2d",
    "repeats/tpb=256/sparse=1/update 5808 23232 0 0 5855 47 0x3ede20a76a67a7da",
    "repeats/tpb=256/layout 0x69d32998673c8a91",
    "repeats/tpb=256/final_clear 0 1172 0 0 0 3 0x3edd9ce7ba47fb2d",
    "repeats/tpb=5/sparse=0/clear 0 10496 0 0 0 3 0x3edf9fbbbba7a28b",
    "repeats/tpb=5/sparse=0/update 5808 23232 0 0 6406 598 0x3ede33247837fda6",
    "repeats/tpb=5/sparse=1/clear 0 1172 0 0 0 3 0x3edd9ce7ba47fb2d",
    "repeats/tpb=5/sparse=1/update 5808 23232 0 0 6406 598 0x3ede33247837fda6",
    "repeats/tpb=5/layout 0x69d32998673c8a91",
    "repeats/tpb=5/final_clear 0 1172 0 0 0 3 0x3edd9ce7ba47fb2d",
    "long_rows/tpb=512/sparse=0/clear 0 1232896 0 0 0 301 0x3ee5cd8765610220",
    "long_rows/tpb=512/sparse=0/update 17502 70008 0 0 17765 263 0x3edfb0498960e74b",
    "long_rows/tpb=512/sparse=1/clear 0 17572 0 0 0 301 0x3edd902b8f40455a",
    "long_rows/tpb=512/sparse=1/update 17502 70008 0 0 17765 263 0x3edfb0498960e74b",
    "long_rows/tpb=512/layout 0x27b5cf444d5d83f8",
    "long_rows/tpb=512/final_clear 0 17572 0 0 0 301 0x3edd902b8f40455a",
    "long_rows/tpb=5/sparse=0/clear 0 1232896 0 0 0 301 0x3ee5cd8765610220",
    "long_rows/tpb=5/sparse=0/update 17502 70008 0 0 19366 1864 0x3edfe602059c54bd",
    "long_rows/tpb=5/sparse=1/clear 0 17572 0 0 0 301 0x3edd902b8f40455a",
    "long_rows/tpb=5/sparse=1/update 17502 70008 0 0 19366 1864 0x3edfe602059c54bd",
    "long_rows/tpb=5/layout 0x27b5cf444d5d83f8",
    "long_rows/tpb=5/final_clear 0 17572 0 0 0 301 0x3edd902b8f40455a",
    "empty_s/tpb=96/sparse=0/clear 0 10496 0 0 0 3 0x3edf9fbbbba7a28b",
    "empty_s/tpb=96/sparse=0/update 5808 23232 0 0 5869 61 0x3ede211facbb00ea",
    "empty_s/tpb=96/sparse=1/clear 0 1172 0 0 0 3 0x3edd9ce7ba47fb2d",
    "empty_s/tpb=96/sparse=1/update 5808 23232 0 0 5869 61 0x3ede211facbb00ea",
    "empty_s/tpb=96/layout 0x69d32998673c8a91",
    "empty_s/tpb=96/final_clear 0 1172 0 0 0 3 0x3edd9ce7ba47fb2d",
    "empty_s/tpb=5/sparse=0/clear 0 10496 0 0 0 3 0x3edf9fbbbba7a28b",
    "empty_s/tpb=5/sparse=0/update 5808 23232 0 0 6406 598 0x3ede33247837fda6",
    "empty_s/tpb=5/sparse=1/clear 0 1172 0 0 0 3 0x3edd9ce7ba47fb2d",
    "empty_s/tpb=5/sparse=1/update 5808 23232 0 0 6406 598 0x3ede33247837fda6",
    "empty_s/tpb=5/layout 0x69d32998673c8a91",
    "empty_s/tpb=5/final_clear 0 1172 0 0 0 3 0x3edd9ce7ba47fb2d",
];

const SYNC_PINS: &[&str] = &[
    "k64/dense-tree 0x3f03144cfabf1526 0x3ef5a8cd82eef707 2 20992 20992 2624 dense-tree",
    "k64/dense-tree/replica0 0xba1e0c9c3c61a253",
    "k64/dense-tree/replica1 0xba1e0c9c3c61a253",
    "k64/dense-tree/replica2 0xba1e0c9c3c61a253",
    "k64/dense-tree/clear 0 3692 0 0 0 3 0x3ede280c4507e339",
    "k64/dense-ring 0x3efd25a604fc740b 0x3ef53365548ff19c 4 20992 20992 2624 dense-ring",
    "k64/dense-ring/replica0 0xba1e0c9c3c61a253",
    "k64/dense-ring/replica1 0xba1e0c9c3c61a253",
    "k64/dense-ring/replica2 0xba1e0c9c3c61a253",
    "k64/dense-ring/clear 0 3692 0 0 0 3 0x3ede280c4507e339",
    "k64/delta 0x3f025615c6b0cceb 0x3ef58a7835e91275 2 13212 20992 1111 delta",
    "k64/delta/replica0 0xba1e0c9c3c61a253",
    "k64/delta/replica1 0xba1e0c9c3c61a253",
    "k64/delta/replica2 0xba1e0c9c3c61a253",
    "k64/delta/clear 0 3692 0 0 0 3 0x3ede280c4507e339",
    "k64/auto 0x3efd25a604fc740b 0x3ef53365548ff19c 4 20992 20992 2624 dense-ring",
    "k64/auto/replica0 0xba1e0c9c3c61a253",
    "k64/auto/replica1 0xba1e0c9c3c61a253",
    "k64/auto/replica2 0xba1e0c9c3c61a253",
    "k64/auto/clear 0 3692 0 0 0 3 0x3ede280c4507e339",
    "k1024/dense-tree 0x3f1fc8a1129eff5a 0x3f197151622e8489 2 2465792 2465792 308224 dense-tree",
    "k1024/dense-tree/replica0 0xf4888e1a50dba3ab",
    "k1024/dense-tree/replica1 0xf4888e1a50dba3ab",
    "k1024/dense-tree/replica2 0xf4888e1a50dba3ab",
    "k1024/dense-tree/clear 0 38032 0 0 0 301 0x3eddccb0ad8f2b42",
    "k1024/dense-ring 0x3f0d6726b52931e9 0x3f07f3c53cbe29fa 4 2465792 2465792 308224 dense-ring",
    "k1024/dense-ring/replica0 0xf4888e1a50dba3ab",
    "k1024/dense-ring/replica1 0xf4888e1a50dba3ab",
    "k1024/dense-ring/replica2 0xf4888e1a50dba3ab",
    "k1024/dense-ring/clear 0 38032 0 0 0 301 0x3eddccb0ad8f2b42",
    "k1024/delta 0x3f04142551b359b9 0x3efa7fa1e58747a1 2 122040 2465792 10635 delta",
    "k1024/delta/replica0 0xf4888e1a50dba3ab",
    "k1024/delta/replica1 0xf4888e1a50dba3ab",
    "k1024/delta/replica2 0xf4888e1a50dba3ab",
    "k1024/delta/clear 0 38032 0 0 0 301 0x3eddccb0ad8f2b42",
    "k1024/auto 0x3f04142551b359b9 0x3efa7fa1e58747a1 2 122040 2465792 10635 delta",
    "k1024/auto/replica0 0xf4888e1a50dba3ab",
    "k1024/auto/replica1 0xf4888e1a50dba3ab",
    "k1024/auto/replica2 0xf4888e1a50dba3ab",
    "k1024/auto/clear 0 38032 0 0 0 301 0x3eddccb0ad8f2b42",
];

const SAMPLE_PINS: &[&str] = &[
    "repeats/tree/shared=1/l1=1/sparse=0 245856 5808 1262388 322812 0 47 0x3ee06993ada86bad",
    "repeats/tree/shared=1/l1=1/sparse=1 234516 5808 1257764 320648 0 47 0x3ee05597f653ab08",
    "repeats/tree/shared=1/l1=0/sparse=0 657240 5808 634812 322812 0 47 0x3ee33e83c8e9962a",
    "repeats/tree/shared=1/l1=0/sparse=1 645900 5808 630188 320648 0 47 0x3ee32a881194d585",
    "repeats/tree/shared=0/l1=1/sparse=0 1087132 242660 627576 322812 0 47 0x3ee7d5723d665d65",
    "repeats/tree/shared=0/l1=1/sparse=1 1075792 238628 627576 320648 0 47 0x3ee7ba5b9a37bea8",
    "repeats/tree/shared=0/l1=0/sparse=0 1498516 242660 0 322812 0 47 0x3eeaaa6258a787e2",
    "repeats/tree/shared=0/l1=0/sparse=1 1487176 238628 0 320648 0 47 0x3eea8f4bb578e924",
    "repeats/butterfly/shared=1/l1=1/sparse=0 245856 5808 1471296 388999 0 47 0x3ee06993ada86bad",
    "repeats/butterfly/shared=1/l1=1/sparse=1 234516 5808 1466672 386835 0 47 0x3ee05597f653ab08",
    "repeats/butterfly/shared=1/l1=0/sparse=0 657240 5808 843720 388999 0 47 0x3ee33e83c8e9962a",
    "repeats/butterfly/shared=1/l1=0/sparse=1 645900 5808 839096 386835 0 47 0x3ee32a881194d585",
    "repeats/butterfly/shared=0/l1=1/sparse=0 895516 187460 627576 388999 0 47 0x3ee6228245a92fab",
    "repeats/butterfly/shared=0/l1=1/sparse=1 884176 183428 627576 386835 0 47 0x3ee6076ba27a90ed",
    "repeats/butterfly/shared=0/l1=0/sparse=0 1306900 187460 0 388999 0 47 0x3ee8f77260ea5a28",
    "repeats/butterfly/shared=0/l1=0/sparse=1 1295560 183428 0 386835 0 47 0x3ee8dc5bbdbbbb6a",
    "repeats/auto/shared=1/l1=1/sparse=0 245856 5808 1262388 322812 0 47 0x3ee06993ada86bad",
    "repeats/auto/shared=1/l1=1/sparse=1 234516 5808 1257764 320648 0 47 0x3ee05597f653ab08",
    "repeats/auto/shared=1/l1=0/sparse=0 657240 5808 634812 322812 0 47 0x3ee33e83c8e9962a",
    "repeats/auto/shared=1/l1=0/sparse=1 645900 5808 630188 320648 0 47 0x3ee32a881194d585",
    "repeats/auto/shared=0/l1=1/sparse=0 895516 187460 627576 388999 0 47 0x3ee6228245a92fab",
    "repeats/auto/shared=0/l1=1/sparse=1 884176 183428 627576 386835 0 47 0x3ee6076ba27a90ed",
    "repeats/auto/shared=0/l1=0/sparse=0 1306900 187460 0 388999 0 47 0x3ee8f77260ea5a28",
    "repeats/auto/shared=0/l1=0/sparse=1 1295560 183428 0 386835 0 47 0x3ee8dc5bbdbbbb6a",
    "repeats/z 0x68e2bae03077b4da",
    "long_rows/tree/shared=1/l1=1/sparse=0 45013052 27095770 71789500 21678444 0 263 0x3f2af45d5b2d0193",
    "long_rows/tree/shared=1/l1=1/sparse=1 43468912 27095770 70761508 21180832 0 263 0x3f2a65a13dd66234",
    "long_rows/tree/shared=1/l1=0/sparse=0 45567124 27095770 30048484 21678444 0 263 0x3f2b2794c46ca758",
    "long_rows/tree/shared=1/l1=0/sparse=1 44022984 27095770 29020492 21180832 0 263 0x3f2a98d8a71607f8",
    "long_rows/tree/shared=0/l1=1/sparse=0 72873376 28173018 41741016 21678444 0 263 0x3f32b3a025bc4eab",
    "long_rows/tree/shared=0/l1=1/sparse=1 71329236 27179842 41741016 21180832 0 263 0x3f323e5af7056910",
    "long_rows/tree/shared=0/l1=0/sparse=0 73427448 28173018 0 21678444 0 263 0x3f32cd3bda5c218d",
    "long_rows/tree/shared=0/l1=0/sparse=1 71883308 27179842 0 21180832 0 263 0x3f3257f6aba53bf2",
    "long_rows/butterfly/shared=1/l1=1/sparse=0 43925436 27095770 71789500 28541478 0 263 0x3f2a8fd44d905dc5",
    "long_rows/butterfly/shared=1/l1=1/sparse=1 42381296 27095770 70761508 28043866 0 263 0x3f2a01183039be65",
    "long_rows/butterfly/shared=1/l1=0/sparse=0 44479508 27095770 30048484 28541478 0 263 0x3f2ac30bb6d00389",
    "long_rows/butterfly/shared=1/l1=0/sparse=1 42935368 27095770 29020492 28043866 0 263 0x3f2a344f9979642a",
    "long_rows/butterfly/shared=0/l1=1/sparse=0 71785760 28173018 41741016 28541478 0 263 0x3f32815b9eedfcc4",
    "long_rows/butterfly/shared=0/l1=1/sparse=1 70241620 27179842 41741016 28043866 0 263 0x3f320c1670371728",
    "long_rows/butterfly/shared=0/l1=0/sparse=0 72339832 28173018 0 28541478 0 263 0x3f329af7538dcfa6",
    "long_rows/butterfly/shared=0/l1=0/sparse=1 70795692 27179842 0 28043866 0 263 0x3f3225b224d6ea0a",
    "long_rows/auto/shared=1/l1=1/sparse=0 43925436 27095770 71789500 28541478 0 263 0x3f2a8fd44d905dc5",
    "long_rows/auto/shared=1/l1=1/sparse=1 42381296 27095770 70761508 28043866 0 263 0x3f2a01183039be65",
    "long_rows/auto/shared=1/l1=0/sparse=0 44479508 27095770 30048484 28541478 0 263 0x3f2ac30bb6d00389",
    "long_rows/auto/shared=1/l1=0/sparse=1 42935368 27095770 29020492 28043866 0 263 0x3f2a344f9979642a",
    "long_rows/auto/shared=0/l1=1/sparse=0 71785760 28173018 41741016 28541478 0 263 0x3f32815b9eedfcc4",
    "long_rows/auto/shared=0/l1=1/sparse=1 70241620 27179842 41741016 28043866 0 263 0x3f320c1670371728",
    "long_rows/auto/shared=0/l1=0/sparse=0 72339832 28173018 0 28541478 0 263 0x3f329af7538dcfa6",
    "long_rows/auto/shared=0/l1=0/sparse=1 70795692 27179842 0 28043866 0 263 0x3f3225b224d6ea0a",
    "long_rows/z 0xb36dcf2faabf6d23",
    "empty_s/tree/shared=1/l1=1/sparse=0 251616 5808 1260164 322584 0 61 0x3ee02ad279406679",
    "empty_s/tree/shared=1/l1=1/sparse=1 240276 5808 1255540 320420 0 61 0x3ee01a0ced1944ca",
    "empty_s/tree/shared=1/l1=0/sparse=0 656784 5808 638420 322584 0 61 0x3ee2820f1019f4dc",
    "empty_s/tree/shared=1/l1=0/sparse=1 645444 5808 633796 320420 0 61 0x3ee2714983f2d32d",
    "empty_s/tree/shared=0/l1=1/sparse=0 1088340 244732 621744 322584 0 61 0x3ee661b000f4a9ec",
    "empty_s/tree/shared=0/l1=1/sparse=1 1077000 240700 621744 320420 0 61 0x3ee64af3dc921b8d",
    "empty_s/tree/shared=0/l1=0/sparse=0 1493508 244732 0 322584 0 61 0x3ee8b8ec97ce384e",
    "empty_s/tree/shared=0/l1=0/sparse=1 1482168 240700 0 320420 0 61 0x3ee8a230736ba9f0",
    "empty_s/butterfly/shared=1/l1=1/sparse=0 251616 5808 1469984 388309 0 61 0x3ee02ad279406679",
    "empty_s/butterfly/shared=1/l1=1/sparse=1 240276 5808 1465360 386145 0 61 0x3ee01a0ced1944ca",
    "empty_s/butterfly/shared=1/l1=0/sparse=0 656784 5808 848240 388309 0 61 0x3ee2820f1019f4dc",
    "empty_s/butterfly/shared=1/l1=0/sparse=1 645444 5808 843616 386145 0 61 0x3ee2714983f2d32d",
    "empty_s/butterfly/shared=0/l1=1/sparse=0 898516 191044 621744 388309 0 61 0x3ee4f9898fcf3809",
    "empty_s/butterfly/shared=0/l1=1/sparse=1 887176 187012 621744 386145 0 61 0x3ee4e2cd6b6ca9aa",
    "empty_s/butterfly/shared=0/l1=0/sparse=0 1303684 191044 0 388309 0 61 0x3ee750c626a8c66c",
    "empty_s/butterfly/shared=0/l1=0/sparse=1 1292344 187012 0 386145 0 61 0x3ee73a0a0246380c",
    "empty_s/auto/shared=1/l1=1/sparse=0 251616 5808 1260164 322584 0 61 0x3ee02ad279406679",
    "empty_s/auto/shared=1/l1=1/sparse=1 240276 5808 1255540 320420 0 61 0x3ee01a0ced1944ca",
    "empty_s/auto/shared=1/l1=0/sparse=0 656784 5808 638420 322584 0 61 0x3ee2820f1019f4dc",
    "empty_s/auto/shared=1/l1=0/sparse=1 645444 5808 633796 320420 0 61 0x3ee2714983f2d32d",
    "empty_s/auto/shared=0/l1=1/sparse=0 898516 191044 621744 388309 0 61 0x3ee4f9898fcf3809",
    "empty_s/auto/shared=0/l1=1/sparse=1 887176 187012 621744 386145 0 61 0x3ee4e2cd6b6ca9aa",
    "empty_s/auto/shared=0/l1=0/sparse=0 1303684 191044 0 388309 0 61 0x3ee750c626a8c66c",
    "empty_s/auto/shared=0/l1=0/sparse=1 1292344 187012 0 386145 0 61 0x3ee73a0a0246380c",
    "empty_s/z 0xee02cda9b9d670b7",
    "k4096/tree/shared=1/l1=1/sparse=0 1832432 165620 2726526 943317 0 62 0x3eea392e894363de",
    "k4096/tree/shared=1/l1=1/sparse=1 321236 165620 1714042 450438 0 62 0x3ee17e25f33cef1a",
    "k4096/tree/shared=1/l1=0/sparse=0 2071834 165620 2363604 943317 0 62 0x3eeb9b40d9e62a64",
    "k4096/tree/shared=1/l1=0/sparse=1 560638 165620 1351120 450438 0 62 0x3ee2e03843dfb5a1",
    "k4096/tree/shared=0/l1=1/sparse=0 2148024 1197124 362922 943317 0 62 0x3ef100c1d06eb2d7",
    "k4096/tree/shared=0/l1=1/sparse=1 636828 217872 362922 450438 0 62 0x3ee39e2eeffe9f60",
    "k4096/tree/shared=0/l1=0/sparse=0 2387426 1197124 0 943317 0 62 0x3ef1b1caf8c0161a",
    "k4096/tree/shared=0/l1=0/sparse=1 876230 217872 0 450438 0 62 0x3ee5004140a165e6",
    "k4096/butterfly/shared=1/l1=1/sparse=0 1733232 150472 2741122 994258 0 62 0x3ee9901021467bc2",
    "k4096/butterfly/shared=1/l1=1/sparse=1 222036 150472 1728638 501379 0 62 0x3ee0d5078b4006fe",
    "k4096/butterfly/shared=1/l1=0/sparse=0 1972634 150472 2378200 994258 0 62 0x3eeaf22271e94248",
    "k4096/butterfly/shared=1/l1=0/sparse=1 461438 150472 1365716 501379 0 62 0x3ee23719dbe2cd85",
    "k4096/butterfly/shared=0/l1=1/sparse=0 2035256 1178104 362922 994258 0 62 0x3ef09f4d0c185cdf",
    "k4096/butterfly/shared=0/l1=1/sparse=1 524060 198852 362922 501379 0 62 0x3ee2db456751f36f",
    "k4096/butterfly/shared=0/l1=0/sparse=0 2274658 1178104 0 994258 0 62 0x3ef150563469c022",
    "k4096/butterfly/shared=0/l1=0/sparse=1 763462 198852 0 501379 0 62 0x3ee43d57b7f4b9f5",
    "k4096/auto/shared=1/l1=1/sparse=0 1733232 150472 2726526 989630 0 62 0x3ee9901021467bc2",
    "k4096/auto/shared=1/l1=1/sparse=1 222036 150472 1714042 496751 0 62 0x3ee0d5078b4006fe",
    "k4096/auto/shared=1/l1=0/sparse=0 1972634 150472 2363604 989630 0 62 0x3eeaf22271e94248",
    "k4096/auto/shared=1/l1=0/sparse=1 461438 150472 1351120 496751 0 62 0x3ee23719dbe2cd85",
    "k4096/auto/shared=0/l1=1/sparse=0 2035256 1178104 362922 994258 0 62 0x3ef09f4d0c185cdf",
    "k4096/auto/shared=0/l1=1/sparse=1 524060 198852 362922 501379 0 62 0x3ee2db456751f36f",
    "k4096/auto/shared=0/l1=0/sparse=0 2274658 1178104 0 994258 0 62 0x3ef150563469c022",
    "k4096/auto/shared=0/l1=0/sparse=1 763462 198852 0 501379 0 62 0x3ee43d57b7f4b9f5",
    "k4096/z 0x37823b69a7891b84",
    "k10000/tree/shared=1/l1=1/sparse=0 3499040 2226080 129936 1684968 0 54 0x3ef87d87818b8319",
    "k10000/tree/shared=1/l1=1/sparse=1 268272 92912 129936 615968 0 54 0x3ee0d810eb99f5f6",
    "k10000/tree/shared=1/l1=0/sparse=0 3574320 2226080 0 1684968 0 54 0x3ef8b742936174a5",
    "k10000/tree/shared=1/l1=0/sparse=1 343552 92912 0 615968 0 54 0x3ee14b870f45d90d",
    "k10000/tree/shared=0/l1=1/sparse=0 3499040 2226080 129936 1684968 0 54 0x3ef87d87818b8319",
    "k10000/tree/shared=0/l1=1/sparse=1 268272 92912 129936 615968 0 54 0x3ee0d810eb99f5f6",
    "k10000/tree/shared=0/l1=0/sparse=0 3574320 2226080 0 1684968 0 54 0x3ef8b742936174a5",
    "k10000/tree/shared=0/l1=0/sparse=1 343552 92912 0 615968 0 54 0x3ee14b870f45d90d",
    "k10000/butterfly/shared=1/l1=1/sparse=0 3437856 2200272 129936 1704211 0 54 0x3ef83ad11ef6edda",
    "k10000/butterfly/shared=1/l1=1/sparse=1 207088 67104 129936 635211 0 54 0x3ee052a42670cb76",
    "k10000/butterfly/shared=1/l1=0/sparse=0 3513136 2200272 0 1704211 0 54 0x3ef8748c30ccdf65",
    "k10000/butterfly/shared=1/l1=0/sparse=1 282368 67104 0 635211 0 54 0x3ee0c61a4a1cae8e",
    "k10000/butterfly/shared=0/l1=1/sparse=0 3437856 2200272 129936 1704211 0 54 0x3ef83ad11ef6edda",
    "k10000/butterfly/shared=0/l1=1/sparse=1 207088 67104 129936 635211 0 54 0x3ee052a42670cb76",
    "k10000/butterfly/shared=0/l1=0/sparse=0 3513136 2200272 0 1704211 0 54 0x3ef8748c30ccdf65",
    "k10000/butterfly/shared=0/l1=0/sparse=1 282368 67104 0 635211 0 54 0x3ee0c61a4a1cae8e",
    "k10000/auto/shared=1/l1=1/sparse=0 3437856 2200272 129936 1704211 0 54 0x3ef83ad11ef6edda",
    "k10000/auto/shared=1/l1=1/sparse=1 207088 67104 129936 635211 0 54 0x3ee052a42670cb76",
    "k10000/auto/shared=1/l1=0/sparse=0 3513136 2200272 0 1704211 0 54 0x3ef8748c30ccdf65",
    "k10000/auto/shared=1/l1=0/sparse=1 282368 67104 0 635211 0 54 0x3ee0c61a4a1cae8e",
    "k10000/auto/shared=0/l1=1/sparse=0 3437856 2200272 129936 1704211 0 54 0x3ef83ad11ef6edda",
    "k10000/auto/shared=0/l1=1/sparse=1 207088 67104 129936 635211 0 54 0x3ee052a42670cb76",
    "k10000/auto/shared=0/l1=0/sparse=0 3513136 2200272 0 1704211 0 54 0x3ef8748c30ccdf65",
    "k10000/auto/shared=0/l1=0/sparse=1 282368 67104 0 635211 0 54 0x3ee0c61a4a1cae8e",
    "k10000/z 0xe92d0480c4d1d49e",
];

const INFER_PINS: &[&str] = &[
    "k64/tree/shared=1/compressed=1 347136 2260 295276 289280 0 6 0x3ef0c28d525de882",
    "k64/tree/shared=1/compressed=0 462848 2260 295276 289280 0 6 0x3ef3e12fecb6c49a",
    "k64/tree/shared=0/compressed=1 641508 2260 0 289280 0 6 0x3ef8b248d7c9af4b",
    "k64/tree/shared=0/compressed=0 757220 2260 0 289280 0 6 0x3efbd0eb72228b63",
    "k64/posterior 0xb57c160dd5f0a01e",
    "k8192/tree/shared=1/compressed=1 27248712 830 0 13598720 0 6 0x3f47300a08eb5f81",
    "k8192/tree/shared=1/compressed=0 32688200 830 0 13598720 0 6 0x3f4bc54165fee6ca",
    "k8192/tree/shared=0/compressed=1 27248712 830 0 13598720 0 6 0x3f47300a08eb5f81",
    "k8192/tree/shared=0/compressed=0 32688200 830 0 13598720 0 6 0x3f4bc54165fee6ca",
    "k8192/posterior 0x7b394dec67f41e6f",
];
