//! Training workloads: a synthetic corpus through `write_uci` →
//! `read_uci`, a trainer built the way a user builds one, and a fixed
//! number of iterations per round on both clocks.

use crate::ledger::{repeat_setup, span, z_hash, Calibration, Report, Spans};
use crate::Opts;
use culda_corpus::{read_uci, write_uci, Corpus, Document, SynthSpec, Vocab};
use culda_gpusim::{Platform, ProfileLog};
use culda_metrics::{IterationStat, MetricsRegistry, Phase};
use culda_multigpu::{
    build_trainer, resume_any, save_training, ClusterTrainer, CuldaTrainer, DrawMode, LdaTrainer,
    PartitionPolicy, SamplingMode, SyncMode, TrainerConfig,
};
use culda_sampler::{load_phi, save_phi};
use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Which paper dataset the synthetic corpus imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Long documents (mean length 332).
    NyTimes,
    /// Short documents (mean length 92).
    PubMed,
}

/// A paper number printed beside the modelled one (never gated).
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Where the number comes from.
    pub source: &'static str,
    /// The paper's tokens/sec on the full-size dataset.
    pub tokens_per_s: f64,
}

/// One training workload.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    /// Synthetic corpus shape.
    pub preset: Preset,
    /// Corpus size relative to the real dataset.
    pub scale: f64,
    /// Topics `K`.
    pub topics: usize,
    /// Simulated Pascal GPUs per node.
    pub gpus: usize,
    /// Cluster nodes.
    pub nodes: usize,
    /// ϕ sync mode.
    pub sync: SyncMode,
    /// `p*` fill path.
    pub sampling: SamplingMode,
    /// `p1` draw path.
    pub draw: DrawMode,
    /// Iterations per round.
    pub iterations: u32,
    /// Shrink device memory to `2·ϕ + ⅓` of the chunk bytes so chunks
    /// stream through the device (out-of-core).
    pub out_of_core: bool,
    /// Paper value shown beside the modelled tokens/sec.
    pub reference: Option<Reference>,
    /// FNV hash of the final assignments at the default seed, where the
    /// workload is run at its registered size.
    pub default_seed_z_hash: Option<u64>,
}

/// The generated inputs a user would hand the program: UCI files, held
/// in memory.
pub struct Inputs {
    /// UCI `docword` bytes.
    pub docword: Vec<u8>,
    /// UCI `vocab` bytes.
    pub vocab: Vec<u8>,
}

/// The synthetic corpus of `preset` at `scale`, generated from `seed`,
/// cut to exactly the preset's nominal token count (documents × mean
/// length). Document lengths are log-normal, so without the cut the seed
/// would move the corpus size — and every size-driven metric — by a few
/// percent.
pub fn synth(preset: Preset, scale: f64, seed: u64) -> Corpus {
    let mut spec = match preset {
        Preset::NyTimes => SynthSpec::nytimes_like(scale),
        Preset::PubMed => SynthSpec::pubmed_like(scale),
    };
    spec.seed = seed;
    let mut left = (spec.num_docs as f64 * spec.avg_doc_len).round() as usize;
    // Documents are generated one after another from one stream, so the
    // extra ones only extend the sequence the preset would produce.
    spec.num_docs += spec.num_docs / 4 + 16;
    let mut docs = Vec::new();
    for doc in spec.generate().docs {
        if left == 0 {
            break;
        }
        let take = doc.len().min(left);
        left -= take;
        docs.push(Document::new(doc.words[..take].to_vec()));
    }
    Corpus::new(docs, Vocab::synthetic(spec.vocab_size))
}

impl Inputs {
    /// Writes `corpus` in UCI format.
    pub fn from_corpus(corpus: &Corpus) -> Result<Self, String> {
        let (mut docword, mut vocab) = (Vec::new(), Vec::new());
        write_uci(corpus, &mut docword, &mut vocab).map_err(|e| format!("write_uci: {e}"))?;
        Ok(Self { docword, vocab })
    }

    /// Parses the inputs back, as `culda train --docword --vocab` does.
    pub fn read(&self) -> Result<Corpus, String> {
        read_uci(Cursor::new(&self.docword), Cursor::new(&self.vocab))
            .map_err(|e| format!("read_uci: {e}"))
    }
}

impl TrainSpec {
    /// The validated trainer configuration for `corpus`.
    pub fn config(&self, corpus: &Corpus, seed: u64) -> Result<TrainerConfig, String> {
        let mut cfg = TrainerConfig::builder(self.topics, Platform::pascal().with_gpus(self.gpus))
            .iterations(self.iterations)
            .score_every(0)
            .seed(seed)
            .sync_mode(self.sync)
            .sampling_mode(self.sampling)
            .draw_mode(self.draw)
            .nodes(self.nodes)
            .host_workers(1)
            .build()
            .map_err(|e| format!("trainer config: {e}"))?;
        if self.out_of_core {
            cfg.platform.gpu.memory_bytes =
                2 * cfg.phi_device_bytes(corpus.vocab_size()) + corpus.num_tokens() * 10 / 3;
        }
        Ok(cfg)
    }
}

/// One round's results.
pub struct Round {
    /// Per-iteration statistics.
    pub stats: Vec<IterationStat>,
    /// Host seconds spent inside the step calls.
    pub host_s: f64,
    /// FNV hash of the final assignments.
    pub z_hash: u64,
    /// `save_phi` bytes taken after each iteration listed in
    /// `snapshot_after`.
    pub snapshots: Vec<Vec<u8>>,
}

impl Round {
    /// Tokens sampled over the round.
    pub fn tokens(&self) -> u64 {
        self.stats.iter().map(|s| s.tokens).sum()
    }

    /// Σ tokens / Σ modelled seconds — Table 4's statistic.
    pub fn modelled_tokens_per_s(&self) -> f64 {
        self.tokens() as f64 / self.stats.iter().map(|s| s.sim_seconds).sum::<f64>()
    }

    /// Σ tokens / Σ host seconds of the step calls.
    pub fn host_tokens_per_s(&self) -> f64 {
        self.tokens() as f64 / self.host_s
    }
}

/// The trainer a user gets from `build_trainer`.
fn build(corpus: &Corpus, cfg: TrainerConfig) -> Result<Box<dyn LdaTrainer>, String> {
    build_trainer(PartitionPolicy::Document, corpus, cfg).map_err(|e| format!("build_trainer: {e}"))
}

/// Reads `inputs`, builds the trainer, and runs one untraced round,
/// taking `save_phi` snapshots after the iterations in `snapshot_after`.
pub fn untraced_round(
    spec: &TrainSpec,
    inputs: &Inputs,
    seed: u64,
    snapshot_after: &[u32],
    report: &mut Report,
) -> Result<Round, String> {
    let corpus = inputs.read()?;
    let mut trainer = build(&corpus, spec.config(&corpus, seed)?)?;
    run_round(
        &mut trainer,
        spec.iterations,
        snapshot_after,
        None,
        None,
        report,
    )
}

/// A trainer that can run one iteration.
trait Step {
    fn step_once(&mut self) -> Result<IterationStat, String>;
    fn lda(&self) -> &dyn LdaTrainer;
}

impl Step for Box<dyn LdaTrainer> {
    fn step_once(&mut self) -> Result<IterationStat, String> {
        self.try_step().map_err(|e| format!("training step: {e}"))
    }

    fn lda(&self) -> &dyn LdaTrainer {
        &**self
    }
}

/// The concrete trainer of a traced pass. Single-node runs step with
/// [`CuldaTrainer::step_sequential`] (bit-identical to `try_step`), so
/// the kernels' host times add up to each step's wall time.
enum Concrete {
    Node(Box<CuldaTrainer>),
    Cluster(Box<ClusterTrainer>),
}

impl Concrete {
    /// Builds the trainer `build_trainer` would build for `cfg`.
    fn new(corpus: &Corpus, cfg: TrainerConfig) -> Result<Self, String> {
        let t = if cfg.nodes > 1 {
            ClusterTrainer::try_new(corpus, cfg).map(|t| Concrete::Cluster(Box::new(t)))
        } else {
            CuldaTrainer::try_new(corpus, cfg).map(|t| Concrete::Node(Box::new(t)))
        };
        t.map_err(|e| format!("build trainer: {e}"))
    }

    fn lda_mut(&mut self) -> &mut dyn LdaTrainer {
        match self {
            Concrete::Node(t) => &mut **t,
            Concrete::Cluster(t) => &mut **t,
        }
    }

    /// Intra-node ϕ-sync bytes and their dense-equivalent ratio.
    fn peer_sync(&self) -> (u64, f64) {
        let totals = match self {
            Concrete::Node(t) => t.sync_totals(),
            Concrete::Cluster(t) => t.intra_sync_totals(),
        };
        (totals.bytes_moved, totals.compression_ratio())
    }

    /// Inter-node (parameter-server) bytes.
    fn node_sync_bytes(&self) -> u64 {
        match self {
            Concrete::Node(_) => 0,
            Concrete::Cluster(t) => t.parameter_server().totals().bytes_moved,
        }
    }
}

impl Step for Concrete {
    fn step_once(&mut self) -> Result<IterationStat, String> {
        match self {
            Concrete::Node(t) => catch_unwind(AssertUnwindSafe(|| t.step_sequential()))
                .map_err(|_| "sequential training step panicked".to_string()),
            Concrete::Cluster(t) => t.try_step().map_err(|e| format!("training step: {e}")),
        }
    }

    fn lda(&self) -> &dyn LdaTrainer {
        match self {
            Concrete::Node(t) => &**t,
            Concrete::Cluster(t) => &**t,
        }
    }
}

/// Runs `iterations` steps, sampling `cal` before each; each step counts
/// as one operation.
fn run_round(
    trainer: &mut dyn Step,
    iterations: u32,
    snapshot_after: &[u32],
    spans: Option<&Spans>,
    mut cal: Option<&mut Calibration>,
    report: &mut Report,
) -> Result<Round, String> {
    let mut stats = Vec::with_capacity(iterations as usize);
    let mut snapshots = Vec::new();
    let mut host_s = 0.0;
    for i in 1..=iterations {
        if let Some(cal) = cal.as_deref_mut() {
            cal.sample();
        }
        let start = Instant::now();
        let stat = span(spans, "step", || trainer.step_once());
        host_s += start.elapsed().as_secs_f64();
        report.ops(1, u64::from(stat.is_err()));
        stats.push(stat?);
        if snapshot_after.contains(&i) {
            let mut bytes = Vec::new();
            save_phi(trainer.lda().phi(), &mut bytes).map_err(|e| format!("save_phi: {e}"))?;
            snapshots.push(bytes);
        }
    }
    Ok(Round {
        stats,
        host_s,
        z_hash: z_hash(&trainer.lda().assignments()),
        snapshots,
    })
}

/// The untimed checks every trained model goes through: count
/// conservation, checkpoint round trip, ϕ snapshot round trip.
fn check_model(
    trainer: &dyn LdaTrainer,
    corpus: &Corpus,
    cfg: &TrainerConfig,
    spans: Option<&Spans>,
    report: &mut Report,
) -> Result<(), String> {
    let conserved = catch_unwind(AssertUnwindSafe(|| trainer.check_invariants())).is_ok();
    report.check("check_invariants passes", conserved);

    let mut ckpt = Vec::new();
    span(spans, "ckpt.save", || save_training(trainer, &mut ckpt))
        .map_err(|e| format!("save_training: {e}"))?;
    let resumed = span(spans, "ckpt.resume", || {
        resume_any(corpus, cfg.clone(), &ckpt[..])
    })
    .map_err(|e| format!("resume_any: {e}"))?;
    let same_z = resumed.assignments() == trainer.assignments();
    report.check("resume_any(save_training(·)) reproduces z", same_z);
    drop(resumed);

    let mut phi_bytes = Vec::new();
    span(spans, "phi.save", || {
        save_phi(trainer.phi(), &mut phi_bytes)
    })
    .map_err(|e| format!("save_phi: {e}"))?;
    let loaded = span(spans, "phi.load", || load_phi(&phi_bytes[..]))
        .map_err(|e| format!("load_phi: {e}"))?;
    let mut again = Vec::new();
    save_phi(&loaded, &mut again).map_err(|e| format!("save_phi: {e}"))?;
    report.check(
        "load_phi(save_phi(ϕ)) is byte-identical",
        again == phi_bytes,
    );
    if spans.is_some() {
        report.metric("ckpt.bytes", ckpt.len() as f64, "bytes");
        report.metric("phi.bytes", phi_bytes.len() as f64, "bytes");
    }
    Ok(())
}

/// Runs a training workload with tracing off: set-up repetitions, then
/// rounds until `opts.seconds` have been measured, then the checks.
pub fn run(spec: &TrainSpec, opts: &Opts, cal: &mut Calibration) -> Result<Report, String> {
    let mut report = Report::default();
    let inputs = Inputs::from_corpus(&synth(spec.preset, spec.scale, opts.seed))?;

    let ((corpus, cfg, mut trainer), setup) = repeat_setup(cal, || {
        let corpus = inputs.read()?;
        let cfg = spec.config(&corpus, opts.seed)?;
        let trainer = build(&corpus, cfg.clone())?;
        Ok((corpus, cfg, trainer))
    })?;
    let setup_scale = cal.take_scale();

    let measuring = Instant::now();
    let mut rounds = Vec::new();
    let mut host = Vec::new();
    loop {
        let round = run_round(
            &mut trainer,
            spec.iterations,
            &[],
            None,
            Some(cal),
            &mut report,
        )?;
        host.push((round.host_tokens_per_s(), cal.take_scale()));
        rounds.push(round);
        if measuring.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        drop(trainer);
        trainer = build(&corpus, cfg.clone())?;
    }
    let first = &rounds[0];
    report.check(
        "every round samples the same chain",
        rounds.iter().all(|r| r.z_hash == first.z_hash),
    );
    check_default_seed_hash(spec, opts, first.z_hash, &mut report);
    let nll = -trainer.loglik_per_token();
    check_model(&*trainer, &corpus, &cfg, None, &mut report)?;

    let iter_ms: Vec<f64> = first.stats.iter().map(|s| s.sim_seconds * 1e3).collect();
    report.note(format!(
        "rounds of {} iterations over {} tokens; z hash {:#018x}",
        spec.iterations,
        corpus.num_tokens(),
        first.z_hash
    ));
    let modelled = first.modelled_tokens_per_s();
    if let Some(r) = spec.reference {
        report.note(reference_line(r, spec.scale, modelled));
    }
    report.setup(&setup, setup_scale);
    report.host_throughput(&host);
    report.metric("tokens_per_s.modelled", modelled, "tokens/s");
    report.latencies("iterations", &iter_ms);
    report.metric("nll_per_token", nll, "nats/token");
    Ok(report)
}

/// The reference line: paper value, modelled value, and their ratio.
fn reference_line(r: Reference, scale: f64, modelled: f64) -> String {
    format!(
        "reference (not gated): {} = {:.1}M tokens/s on the full dataset; \
         modelled {:.1}M tokens/s at scale {scale}; modelled/paper = {:.3}",
        r.source,
        r.tokens_per_s / 1e6,
        modelled / 1e6,
        modelled / r.tokens_per_s
    )
}

/// At the default seed, checks `hash` against the committed one.
pub fn check_default_seed_hash(spec: &TrainSpec, opts: &Opts, hash: u64, report: &mut Report) {
    if let (true, Some(want)) = (opts.seed == crate::DEFAULT_SEED, spec.default_seed_z_hash) {
        report.check(
            &format!("z hash {hash:#018x} equals the committed {want:#018x}"),
            hash == want,
        );
    }
}

/// One traced training pass: parse, build, step, score, checkpoint, with
/// a span around each call. Emits the training-layer metrics and returns
/// the round with the trainer's kernel launch log.
pub fn traced_pass(
    spec: &TrainSpec,
    inputs: &Inputs,
    seed: u64,
    snapshot_after: &[u32],
    spans: &Spans,
    report: &mut Report,
) -> Result<(Round, ProfileLog), String> {
    let corpus = spans.time("corpus.read_uci", || inputs.read())?;
    let cfg = spec.config(&corpus, seed)?;
    let mut trainer = spans.time("trainer.build", || Concrete::new(&corpus, cfg.clone()))?;
    let registry = Arc::new(MetricsRegistry::new());
    trainer
        .lda_mut()
        .attach_observability(Some(Arc::clone(spans.sink())), Some(Arc::clone(&registry)));
    let round = run_round(
        &mut trainer,
        spec.iterations,
        snapshot_after,
        Some(spans),
        None,
        report,
    )?;
    let ll = spans.time("loglik", || trainer.lda().loglik_per_token());
    report.check("log-likelihood is finite", ll.is_finite());
    spans.time("checks", || {
        check_model(trainer.lda(), &corpus, &cfg, Some(spans), report)
    })?;

    let lda = trainer.lda();
    let breakdown = lda.breakdown();
    let (peer_bytes, ratio) = trainer.peer_sync();
    report.metric("corpus.read_uci_s", spans.total("corpus.read_uci"), "s");
    report.metric("corpus.docword_bytes", inputs.docword.len() as f64, "bytes");
    report.metric("trainer.build_s", spans.total("trainer.build"), "s");
    report.metric("sync.modelled_s", breakdown.seconds(Phase::SyncPhi), "s");
    report.metric("sync.bytes", peer_bytes as f64, "bytes");
    report.metric("sync.compression_ratio", ratio, "ratio");
    report.metric(
        "cluster.sync.bytes",
        trainer.node_sync_bytes() as f64,
        "bytes",
    );
    report.metric(
        "transfer.modelled_s",
        breakdown.seconds(Phase::Transfer),
        "s",
    );
    report.metric(
        "oocore.overlap_fraction",
        registry.gauge("oocore.overlap_fraction").value(),
        "fraction",
    );
    let sparse = round
        .stats
        .iter()
        .filter(|s| s.sampling_sparse == Some(true))
        .count();
    report.metric("sampling.sparse_iters", sparse as f64, "count");
    report.metric("recovery.retries", lda.recovery().retries as f64, "count");
    report.metric("loglik.host_s", spans.total("loglik"), "s");
    for (metric, name) in [
        ("ckpt.save_s", "ckpt.save"),
        ("ckpt.resume_s", "ckpt.resume"),
        ("phi.save_s", "phi.save"),
        ("phi.load_s", "phi.load"),
    ] {
        report.metric(metric, spans.total(name), "s");
    }
    let profile = lda.profile();
    let kernel_host: f64 = profile.records().iter().map(|r| r.wall_seconds).sum();
    let step_host = spans.total("step");
    report.metric("step.host_s", step_host, "s");
    report.metric("step.other_host_s", step_host - kernel_host, "s");
    spans.time("teardown", move || drop((trainer, corpus)));
    Ok((round, profile))
}

/// Runs a training workload traced: one untraced round for the hash and
/// wall-time comparison, then the traced pass.
pub fn run_traced(spec: &TrainSpec, opts: &Opts, spans: &Spans) -> Result<Report, String> {
    let mut report = Report::default();
    let inputs = spans.time("inputs", || {
        Inputs::from_corpus(&synth(spec.preset, spec.scale, opts.seed))
    })?;
    let untraced = spans.time("untraced", || {
        untraced_round(spec, &inputs, opts.seed, &[], &mut report)
    })?;
    let (round, profile) = traced_pass(spec, &inputs, opts.seed, &[], spans, &mut report)?;
    report.check(
        "traced and untraced runs sample the same chain",
        round.z_hash == untraced.z_hash,
    );
    check_default_seed_hash(spec, opts, round.z_hash, &mut report);
    crate::emit_kernel_layers(&mut report, &profile);
    crate::serve::emit_serve_layers(&mut report, None);
    report.metric("trace.wall_ratio", round.host_s / untraced.host_s, "ratio");
    Ok(report)
}
