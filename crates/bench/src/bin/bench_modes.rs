//! Mode-grid benchmark: every mode the reproduction adds around the
//! paper's kernels, proved by one loop. Each section trains a fixed,
//! seeded workload once per mode, requires the same model (the same z
//! hash), and records modelled seconds and bytes:
//!
//! | section    | workload                                                   | cells |
//! |------------|------------------------------------------------------------|-------|
//! | `sync`     | NYTimes-like ×0.0005, K = 128, Pascal ×4, 10 iterations    | every `SyncMode` |
//! | `sampling` | the same corpus, K = 4096, 10 iterations, auto sync + draw | every `SamplingMode` |
//! | `draw`     | the same corpus, K ∈ {1024, 4096}, 6 iterations, auto sync | every `DrawMode` per K |
//! | `cluster`  | PubMed-like ×0.0004 out-of-core, K = 64, Pascal ×2 per node | 1, 2, 4 nodes; 1 node with serial staging |
//! | `serving`  | 400-doc corpus, K = 32, 2 pools, 800 req/s for 1 s          | one run, hot-swap at 0.5 s |
//!
//! Mode lists come from each enum's `NAMES`, so a new mode joins the grid
//! and the gate without an edit here.
//!
//! Prints one compact JSON object per line: per section, a head line with
//! the workload, the derived values and every check's verdict, then one
//! line per cell. Every field is on the modelled clock, so the output is
//! deterministic; `scripts/ci.sh` diffs it byte for byte against the
//! committed `BENCH_modes.jsonl`. The process exits non-zero when a check
//! fails. After a deliberate change to a modelled number, re-record with
//!
//! ```text
//! cargo run --release -q -p culda-bench --bin bench_modes > BENCH_modes.jsonl
//! ```

use culda_corpus::{Corpus, SynthSpec};
use culda_gpusim::{KernelSummary, Platform};
use culda_metrics::{IterationStat, Json, MetricsRegistry};
use culda_multigpu::{
    CuldaTrainer, DrawMode, SamplingMode, SyncMode, SyncTotals, TrainerConfig, TrainerConfigBuilder,
};
use culda_serve::{
    AdmissionConfig, FrozenModel, LoadGenerator, LoadSpec, ModelRegistry, PlaneConfig, ServeConfig,
    ServingPlane,
};
use std::fmt::{Debug, Display};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

/// Scale of the NYTimes-like corpus the sync, sampling and draw sections
/// share. Its `V·K` ϕ dwarfs one iteration's tokens, the regime Δϕ sync
/// and the sparse p* fill target.
const NY_SCALE: f64 = 0.0005;
/// GPUs of the NYTimes-like sections.
const GPUS: usize = 4;
/// Iterations excluded from the "after burn-in" figures: random initial
/// assignments touch nearly every ϕ row, so the first passes understate
/// the steady state.
const BURN_IN: u32 = 2;

/// One trained grid cell.
struct Run {
    stats: Vec<IterationStat>,
    sync_at_burn_in: SyncTotals,
    sync: SyncTotals,
    sample: KernelSummary,
    z_hash: u64,
    overlap_fraction: f64,
    inter_node_bytes: u64,
    inter_node_nnz: u64,
}

impl Run {
    /// Modelled tokens/s over the iterations in `range`.
    fn tokens_per_sec(&self, range: std::ops::Range<usize>) -> f64 {
        let stats = &self.stats[range];
        let tokens: u64 = stats.iter().map(|s| s.tokens).sum();
        tokens as f64 / stats.iter().map(|s| s.sim_seconds).sum::<f64>()
    }

    fn overall_tps(&self) -> f64 {
        self.tokens_per_sec(0..self.stats.len())
    }

    fn post_burn_in_tps(&self) -> f64 {
        self.tokens_per_sec(BURN_IN as usize..self.stats.len())
    }

    fn modelled_seconds(&self) -> f64 {
        self.stats.iter().map(|s| s.sim_seconds).sum()
    }

    /// Sync totals after the burn-in iterations.
    fn sync_after_burn_in(&self) -> SyncTotals {
        let (a, b) = (&self.sync, &self.sync_at_burn_in);
        SyncTotals {
            bytes_moved: a.bytes_moved - b.bytes_moved,
            dense_bytes: a.dense_bytes - b.dense_bytes,
            nnz: a.nnz - b.nnz,
            seconds: a.seconds - b.seconds,
        }
    }

    /// Hex: `Json::Num` is an f64 and would round a 64-bit hash.
    fn z_hash(&self) -> String {
        format!("{:016x}", self.z_hash)
    }
}

/// Trains `corpus` for `cfg.iterations` and reads everything a section
/// reports. The trainer comes back too, for the serving section's models.
fn run(corpus: &Corpus, cfg: TrainerConfig) -> (Run, CuldaTrainer) {
    let iters = cfg.iterations;
    let mut t = CuldaTrainer::try_new(corpus, cfg).expect("grid config trains");
    let reg = Arc::new(MetricsRegistry::new());
    t.attach_observability(None, Some(reg.clone()));
    let mut sync_at_burn_in = SyncTotals::default();
    for i in 0..iters {
        t.step();
        if i + 1 == BURN_IN {
            sync_at_burn_in = t.sync_totals();
        }
    }
    let sample = t
        .profile()
        .summaries()
        .into_iter()
        .find(|s| s.name == "lda_sample")
        .expect("profile has an lda_sample kernel");
    // FNV-1a over the final assignments: the cross-cell equality witness.
    let mut z_hash = 0xcbf2_9ce4_8422_2325u64;
    for s in t.states() {
        for z in s.z.snapshot() {
            z_hash = (z_hash ^ z as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    let run = Run {
        stats: t.history().iterations().to_vec(),
        sync_at_burn_in,
        sync: t.sync_totals(),
        sample,
        z_hash,
        overlap_fraction: reg.gauge("oocore.overlap_fraction").value(),
        inter_node_bytes: reg.counter("cluster.sync.bytes").value(),
        inter_node_nnz: reg.counter("cluster.sync.nnz").value(),
    };
    (run, t)
}

/// Trains one cell per mode in `names`, an enum's `NAMES`, each
/// configured by `cfg`.
fn grid<M: FromStr>(
    corpus: &Corpus,
    names: &[&str],
    cfg: impl Fn(&M) -> TrainerConfigBuilder,
) -> Vec<(M, Run)>
where
    M::Err: Debug,
{
    names
        .iter()
        .map(|name| {
            let mode = name.parse().unwrap();
            let run = run(corpus, cfg(&mode).build().unwrap()).0;
            (mode, run)
        })
        .collect()
}

/// The runs of every fixed mode: all but `auto`.
fn fixed<M: Display>(cells: &[(M, Run)]) -> impl Iterator<Item = &Run> {
    cells
        .iter()
        .filter(|(m, _)| m.to_string() != "auto")
        .map(|(_, r)| r)
}

/// The run of `key` in `cells`.
fn cell<K: PartialEq>(cells: &[(K, Run)], key: K) -> &Run {
    &cells.iter().find(|(k, _)| *k == key).unwrap().1
}

/// Whether every cell trained the model of the first.
fn same_model<K>(cells: &[(K, Run)]) -> bool {
    cells.iter().all(|(_, r)| r.z_hash == cells[0].1.z_hash)
}

/// Config of the NYTimes-like sections: Pascal ×4, no scoring.
fn ny_config(topics: usize, iters: u32) -> TrainerConfigBuilder {
    TrainerConfig::builder(topics, Platform::pascal().with_gpus(GPUS))
        .iterations(iters)
        .score_every(0)
}

/// The workload descriptors of the NYTimes-like sections.
fn ny_workload(ny: &Corpus, iters: u32) -> Json {
    Json::obj()
        .with("preset", "nytimes_like")
        .with("scale", NY_SCALE)
        .with("num_docs", ny.num_docs())
        .with("num_tokens", ny.num_tokens())
        .with("vocab_size", ny.vocab_size())
        .with("iterations", iters)
        .with("platform", "pascal")
        .with("gpus", GPUS)
}

/// One section's output: a head line with the workload, derived values
/// and check verdicts, then one line per cell.
struct Section {
    bench: &'static str,
    head: Json,
    cells: Vec<Json>,
    failed: Vec<String>,
}

impl Section {
    fn new(bench: &'static str, benchmark: &str, workload: Json) -> Self {
        let head = Json::obj()
            .with("bench", bench)
            .with("benchmark", benchmark)
            .with("workload", workload);
        Self {
            bench,
            head,
            cells: Vec::new(),
            failed: Vec::new(),
        }
    }

    /// Appends a derived value to the head line.
    fn value(&mut self, key: &str, value: impl Into<Json>) {
        self.head = std::mem::replace(&mut self.head, Json::Null).with(key, value);
    }

    /// Appends a check's verdict to the head line; a failed check fails
    /// the run.
    fn check(&mut self, key: &str, ok: bool) {
        if !ok {
            self.failed.push(format!("{}: {key}", self.bench));
        }
        self.value(key, ok);
    }

    /// A new cell line, already naming the section.
    fn line(&self) -> Json {
        Json::obj().with("bench", self.bench)
    }
}

/// Δϕ sync: bytes moved and modelled sync seconds per `SyncMode`.
fn sync(ny: &Corpus) -> Section {
    const TOPICS: usize = 128;
    const ITERS: u32 = 10;
    let cells = grid(ny, SyncMode::NAMES, |&m| {
        ny_config(TOPICS, ITERS).sync_mode(m)
    });
    let mut s = Section::new(
        "sync",
        "phi synchronization strategies: bytes moved and modelled sync seconds per --sync-mode",
        ny_workload(ny, ITERS)
            .with("topics", TOPICS)
            .with("burn_in_iterations", BURN_IN),
    );
    let delta = cell(&cells, SyncMode::Delta).sync_after_burn_in();
    s.value("delta_compression_after_burn_in", delta.compression_ratio());
    let best_fixed = fixed(&cells)
        .map(|r| r.sync.seconds)
        .fold(f64::INFINITY, f64::min);
    s.check(
        "auto_never_slower_than_best_fixed",
        cell(&cells, SyncMode::Auto).sync.seconds <= best_fixed + 1e-12,
    );
    s.check("results_bit_identical_across_modes", same_model(&cells));
    for (m, r) in &cells {
        let after = r.sync_after_burn_in();
        s.cells.push(
            s.line()
                .with("mode", m.name())
                .with("bytes_moved", r.sync.bytes_moved)
                .with("bytes_moved_after_burn_in", after.bytes_moved)
                .with("payload_nnz", r.sync.nnz)
                .with("modelled_sync_seconds", r.sync.seconds)
                .with("compression_ratio_after_burn_in", after.compression_ratio())
                .with("z_hash", r.z_hash()),
        );
    }
    s
}

/// Sparse p* fill: modelled tokens/s per `SamplingMode`, with sync and
/// draw on `auto` so their bytes do not drown the sampling signal.
fn sampling(ny: &Corpus) -> Section {
    const TOPICS: usize = 4096;
    const ITERS: u32 = 10;
    let cells = grid(ny, SamplingMode::NAMES, |&m| {
        ny_config(TOPICS, ITERS)
            .sync_mode(SyncMode::Auto)
            .draw_mode(DrawMode::Auto)
            .sampling_mode(m)
    });
    let mut s = Section::new(
        "sampling",
        "sampling p* fill paths: modelled tokens/sec per --sampling-mode",
        ny_workload(ny, ITERS)
            .with("topics", TOPICS)
            .with("burn_in_iterations", BURN_IN),
    );
    let auto = cell(&cells, SamplingMode::Auto);
    let speedup = auto.post_burn_in_tps() / cell(&cells, SamplingMode::Dense).post_burn_in_tps();
    s.value("auto_post_burn_in_speedup_over_dense", speedup);
    s.check("auto_post_burn_in_speedup_at_least_2x", speedup >= 2.0);
    let best_fixed = fixed(&cells).map(Run::overall_tps).fold(0.0, f64::max);
    s.check(
        "auto_never_slower_than_best_fixed",
        auto.overall_tps() >= best_fixed - 1e-9 * best_fixed,
    );
    s.check("results_bit_identical_across_modes", same_model(&cells));
    for (m, r) in &cells {
        let sparse = r.stats.iter().filter(|i| i.sampling_sparse == Some(true));
        s.cells.push(
            s.line()
                .with("mode", m.name())
                .with("tokens_per_sec", r.overall_tps())
                .with(
                    "tokens_per_sec_pre_burn_in",
                    r.tokens_per_sec(0..BURN_IN as usize),
                )
                .with("tokens_per_sec_post_burn_in", r.post_burn_in_tps())
                .with("sparse_iterations", sparse.count())
                .with("total_iterations", r.stats.len())
                .with("z_hash", r.z_hash()),
        );
    }
    s
}

/// p1 draw engines: modelled tokens/s and `lda_sample` DRAM bytes per
/// `DrawMode`. At both K a block's p1 scratch spills once one of its
/// documents holds enough topics (more than 158 at K = 1024), which is
/// where the two layouts' charges differ.
fn draw(ny: &Corpus) -> Section {
    const TOPIC_GRID: [usize; 2] = [1024, 4096];
    const ITERS: u32 = 6;
    // Tree and butterfly charge slightly different shared-memory traffic
    // on chip, so auto may trail the best fixed mode by this much.
    const AUTO_SLACK: f64 = 0.02;
    let mut s = Section::new(
        "draw",
        "p1 draw engines: modelled tokens/sec and lda_sample DRAM per --draw-mode",
        ny_workload(ny, ITERS),
    );
    let mut per_k = Vec::new();
    let (mut auto_ok, mut identical, mut butterfly_wins) = (true, true, true);
    for topics in TOPIC_GRID {
        let cells = grid(ny, DrawMode::NAMES, |&m| {
            ny_config(topics, ITERS)
                .sync_mode(SyncMode::Auto)
                .draw_mode(m)
        });
        let (tree, fly) = (
            cell(&cells, DrawMode::Tree),
            cell(&cells, DrawMode::Butterfly),
        );
        let best_fixed = fixed(&cells).map(Run::overall_tps).fold(0.0, f64::max);
        auto_ok &= cell(&cells, DrawMode::Auto).overall_tps() >= best_fixed * (1.0 - AUTO_SLACK);
        identical &= same_model(&cells);
        if topics >= 4096 {
            butterfly_wins &= fly.sample.dram_bytes < tree.sample.dram_bytes
                && fly.overall_tps() > tree.overall_tps();
        }
        let dram_cut = 1.0 - fly.sample.dram_bytes as f64 / tree.sample.dram_bytes.max(1) as f64;
        per_k.push(
            Json::obj()
                .with("topics", topics)
                .with("butterfly_dram_cut_vs_tree", dram_cut)
                .with(
                    "butterfly_speedup_vs_tree",
                    fly.overall_tps() / tree.overall_tps(),
                ),
        );
        for (m, r) in &cells {
            s.cells.push(
                s.line()
                    .with("topics", topics)
                    .with("mode", m.name())
                    .with("tokens_per_sec", r.overall_tps())
                    .with("lda_sample_dram_bytes", r.sample.dram_bytes)
                    .with("lda_sample_seconds", r.sample.total_seconds)
                    .with("z_hash", r.z_hash()),
            );
        }
    }
    s.value("grid", Json::Arr(per_k));
    s.check("butterfly_cuts_dram_at_k4096", butterfly_wins);
    s.check("auto_never_slower_than_best_fixed", auto_ok);
    s.check("results_bit_identical_across_modes", identical);
    s
}

/// Multi-node cluster: modelled seconds, inter-node Δϕ traffic and H2D
/// staging overlap per node count on a PubMed-like corpus kept
/// out-of-core, plus one single-node run with serial staging.
fn cluster() -> Section {
    const SCALE: f64 = 0.0004;
    const TOPICS: usize = 64;
    const GPUS_PER_NODE: usize = 2;
    const ITERS: u32 = 5;
    /// `(nodes, prefetch)`; the first cell is the speedup baseline.
    const CELLS: [(usize, bool); 4] = [(1, true), (2, true), (4, true), (1, false)];
    let corpus = SynthSpec::pubmed_like(SCALE).generate();
    let cells: Vec<((usize, bool), Run)> = CELLS
        .into_iter()
        .map(|(nodes, prefetch)| {
            let mut cfg =
                TrainerConfig::builder(TOPICS, Platform::pascal().with_gpus(GPUS_PER_NODE))
                    .iterations(ITERS)
                    .score_every(0)
                    .seed(41)
                    .sync_mode(SyncMode::Delta)
                    .nodes(nodes)
                    .prefetch(prefetch)
                    .build()
                    .unwrap();
            // Keep the run out-of-core at any scale: the ϕ replicas fit,
            // the chunk stream does not.
            cfg.platform.gpu.memory_bytes =
                2 * cfg.phi_device_bytes(corpus.vocab_size()) + corpus.num_tokens() * 10 / 3;
            ((nodes, prefetch), run(&corpus, cfg).0)
        })
        .collect();
    let mut s = Section::new(
        "cluster",
        "multi-node AD-LDA cluster: modelled seconds, delta-phi traffic, and H2D/compute overlap per --nodes",
        Json::obj()
            .with("preset", "pubmed_like")
            .with("scale", SCALE)
            .with("num_docs", corpus.num_docs())
            .with("num_tokens", corpus.num_tokens())
            .with("vocab_size", corpus.vocab_size())
            .with("topics", TOPICS)
            .with("iterations", ITERS)
            .with("platform", "pascal")
            .with("gpus_per_node", GPUS_PER_NODE)
            .with("out_of_core", true)
            .with("node_link", "100gbit"),
    );
    let single = cells[0].1.modelled_seconds();
    let speedup_4 = single / cell(&cells, (4, true)).modelled_seconds();
    s.value("speedup_4_nodes", speedup_4);
    s.check("four_nodes_faster_than_one", speedup_4 > 1.0);
    s.check(
        "prefetch_overlap_above_zero",
        cells
            .iter()
            .all(|((_, p), r)| !p || r.overlap_fraction > 0.0),
    );
    s.check(
        "serial_overlap_zero",
        cells
            .iter()
            .all(|((_, p), r)| *p || r.overlap_fraction == 0.0),
    );
    s.check(
        "results_bit_identical_across_node_counts",
        same_model(&cells),
    );
    for ((nodes, prefetch), r) in &cells {
        s.cells.push(
            s.line()
                .with("nodes", *nodes)
                .with("prefetch", *prefetch)
                .with("modelled_seconds", r.modelled_seconds())
                .with("speedup_vs_single_node", single / r.modelled_seconds())
                .with("overlap_fraction", r.overlap_fraction)
                .with("inter_node_bytes", r.inter_node_bytes)
                .with("inter_node_payload_nnz", r.inter_node_nnz)
                .with("z_hash", r.z_hash()),
        );
    }
    s
}

/// Serving control plane: sustained req/s and exact tail latency of two
/// pools under open-loop Poisson load, with a blue/green hot-swap to a
/// longer-trained model at the midpoint. The one cell line is
/// `LoadReport::to_json`, the document `culda serve --out` writes.
fn serving() -> Section {
    const TOPICS: usize = 32;
    const POOLS: usize = 2;
    const CAPACITY: usize = 32;
    const SWEEPS: u32 = 6;
    let mut spec = SynthSpec::tiny();
    spec.num_docs = 400;
    spec.vocab_size = 500;
    spec.avg_doc_len = 40.0;
    spec.seed = 7;
    let corpus = spec.generate();
    let train = |sweeps: u32| {
        let cfg = TrainerConfig::builder(TOPICS, Platform::pascal())
            .iterations(sweeps)
            .score_every(0)
            .seed(3)
            .build()
            .unwrap();
        FrozenModel::freeze(run(&corpus, cfg).1.global_phi())
    };

    let registry = Arc::new(ModelRegistry::new());
    registry.publish("default", train(SWEEPS.div_ceil(2)));
    let cfg = PlaneConfig {
        model: "default".into(),
        pools: POOLS,
        capacity: CAPACITY,
        engine: ServeConfig::builder(0x5E47)
            .workers(2)
            .batch_size(16)
            .build()
            .unwrap(),
        admission: AdmissionConfig {
            max_batch_docs: CAPACITY,
            max_queue_docs: CAPACITY * 256,
            slo_wait_seconds: 0.02,
        },
    };
    let mut plane = ServingPlane::new(Arc::clone(&registry), cfg).expect("plane builds");
    // Publish green after the plane is up, so the run starts on v1.
    registry.publish("default", train(SWEEPS));

    let load = LoadSpec {
        seed: 42,
        rate_rps: 800.0,
        duration: 1.0,
        tenants: 24,
        docs_per_request: 2,
        swap_at: Some(0.5),
    };
    let pool = corpus.docs.iter().take(64).map(|d| d.words.clone());
    let gen = LoadGenerator::new(load, pool.collect()).expect("valid load spec");
    let report = gen.run(&mut plane).expect("load run serves");
    let mut s = Section::new(
        "serving",
        "serving control plane: sustained req/s and exact nearest-rank latency under open-loop load with a mid-run hot-swap",
        Json::obj()
            .with("preset", "tiny")
            .with("corpus_seed", spec.seed)
            .with("num_docs", corpus.num_docs())
            .with("num_tokens", corpus.num_tokens())
            .with("vocab_size", corpus.vocab_size())
            .with("topics", TOPICS)
            .with("iterations_v1", SWEEPS.div_ceil(2))
            .with("iterations_v2", SWEEPS)
            .with("platform", "pascal")
            .with("capacity", CAPACITY),
    );
    s.check("swap_fired", report.swap.is_some());
    s.check("nothing_dropped", report.dropped == 0);
    s.check("sustained_rps_above_zero", report.sustained_rps > 0.0);
    s.check("p99_reported", report.latency.is_some());
    s.cells.push(report.to_json(gen.spec(), POOLS));
    s
}

fn main() -> ExitCode {
    let ny = SynthSpec::nytimes_like(NY_SCALE).generate();
    let sections = [sync(&ny), sampling(&ny), draw(&ny), cluster(), serving()];
    for s in &sections {
        println!("{}", s.head.render());
        for line in &s.cells {
            println!("{}", line.render());
        }
    }
    let failed: Vec<&String> = sections.iter().flat_map(|s| &s.failed).collect();
    for f in &failed {
        eprintln!("bench_modes: check failed: {f}");
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
