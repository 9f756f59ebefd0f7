//! # culda-bench-e2e
//!
//! One end-to-end benchmark over the whole stack — corpus I/O, the
//! multi-GPU and multi-node trainers, the simulated kernels, checkpoints,
//! and the serving plane — reporting every number on the clock it was
//! measured on: *modelled* (the roofline simulator's GPU seconds) or
//! *host* (real process time).
//!
//! Each workload runs in its own process. With tracing off it prints the
//! end-to-end metrics; with tracing on it runs once untraced and once
//! traced, timing every call into a layer from this crate's own code, and
//! prints the per-layer ledger. Both runs check that the outputs are
//! correct. See `README.md` for the workloads and metrics.

pub mod ledger;
pub mod serve;
pub mod train;

use culda_gpusim::ProfileLog;
use culda_metrics::TraceSink;
use culda_multigpu::{DrawMode, SamplingMode, SyncMode};
use ledger::{peak_heap_mb, peak_rss_mb, Calibration, Report, Spans};
use serve::ServeSpec;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use train::{Preset, Reference, TrainSpec};

/// The seed whose assignment hashes are committed in the workload table.
pub const DEFAULT_SEED: u64 = 1;

/// Kernels the per-layer ledger reports, in launch order.
const KERNELS: [&str; 5] = [
    "lda_sample",
    "theta_update",
    "phi_update",
    "phi_clear",
    "lda_infer",
];

/// Run options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seed for the corpus, the trainer, and the load.
    pub seed: u64,
    /// Minimum seconds of measurement; whole rounds repeat until reached.
    pub seconds: f64,
    /// Run untraced then traced and report the per-layer ledger.
    pub trace: bool,
    /// Where the traced run writes its Chrome trace, if anywhere.
    pub trace_out: Option<PathBuf>,
    /// When the process started (the traced run's wall-time base).
    pub started: Instant,
}

/// A named workload.
#[derive(Debug, Clone)]
pub enum Workload {
    /// A training run.
    Train(TrainSpec),
    /// A serving run.
    Serve(ServeSpec),
}

/// Workload names, in the order the runner runs them.
pub const WORKLOADS: [&str; 4] = [
    "ny-paper-k1024",
    "ny-auto-k4096-2gpu",
    "pubmed-2node-oocore",
    "serve-heldout-1200rps",
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Workload> {
    let base = TrainSpec {
        preset: Preset::NyTimes,
        scale: 0.003,
        topics: 1024,
        gpus: 1,
        nodes: 1,
        sync: SyncMode::DenseTree,
        sampling: SamplingMode::Dense,
        draw: DrawMode::Tree,
        iterations: 30,
        out_of_core: false,
        reference: None,
        default_seed_z_hash: None,
    };
    Some(match name {
        // Table 4's own setting: one Pascal, K = 1024, the paper's
        // kernels, no sync.
        "ny-paper-k1024" => Workload::Train(TrainSpec {
            reference: Some(Reference {
                source: "Table 4, NYTimes on Pascal",
                tokens_per_s: 208.0e6,
            }),
            default_seed_z_hash: Some(0xeb46_1a6a_cd57_3a36),
            ..base
        }),
        // Large ϕ with every auto rule live: sparse sampling, butterfly
        // draw, and Δϕ sync between two GPUs.
        "ny-auto-k4096-2gpu" => Workload::Train(TrainSpec {
            topics: 4096,
            gpus: 2,
            sync: SyncMode::Auto,
            sampling: SamplingMode::Auto,
            draw: DrawMode::Auto,
            default_seed_z_hash: Some(0xc5e1_1134_9288_89ab),
            ..base
        }),
        // Short documents streamed out-of-core across two nodes: many
        // small launches, H2D staging, and the node reduce.
        "pubmed-2node-oocore" => Workload::Train(TrainSpec {
            preset: Preset::PubMed,
            scale: 0.001,
            topics: 64,
            nodes: 2,
            sync: SyncMode::Delta,
            out_of_core: true,
            default_seed_z_hash: Some(0xee70_b0ec_8eff_a10f),
            ..base
        }),
        // A frozen ϕ served under open-loop load; every document unique.
        "serve-heldout-1200rps" => Workload::Serve(ServeSpec {
            train: TrainSpec {
                preset: Preset::PubMed,
                scale: 0.001,
                topics: 128,
                iterations: 8,
                default_seed_z_hash: Some(0xb538_a52e_f253_a461),
                ..base
            },
            held_out_fraction: 0.35,
            blue_after: 5,
            rate_rps: 1200.0,
            duration_s: 1.0,
            docs_per_request: 2,
            tenants: 24,
            swap_at_s: 0.5,
            pools: 2,
            capacity: 32,
            batch_size: 16,
            slo_wait_s: 0.02,
        }),
        _ => return None,
    })
}

impl Workload {
    /// The same workload shrunk to run in about a second: a small corpus,
    /// fewer topics and iterations, a short load. No committed hash.
    pub fn smoke(&self) -> Workload {
        let shrink = |t: &TrainSpec| TrainSpec {
            scale: match t.preset {
                Preset::NyTimes => 0.0002,
                Preset::PubMed => 0.0001,
            },
            topics: t.topics.min(128),
            iterations: 3,
            default_seed_z_hash: None,
            ..t.clone()
        };
        match self {
            Workload::Train(t) => Workload::Train(shrink(t)),
            Workload::Serve(s) => Workload::Serve(ServeSpec {
                train: shrink(&s.train),
                blue_after: 2,
                rate_rps: 200.0,
                duration_s: 0.3,
                swap_at_s: 0.15,
                ..s.clone()
            }),
        }
    }
}

/// Runs `workload` and returns its report: the end-to-end metrics, or the
/// per-layer ledger when `opts.trace` is set.
pub fn run(workload: &Workload, opts: &Opts) -> Result<Report, String> {
    if !opts.trace {
        let mut cal = Calibration::new();
        let mut report = match workload {
            Workload::Train(spec) => train::run(spec, opts, &mut cal),
            Workload::Serve(spec) => serve::run(spec, opts, &mut cal),
        }?;
        if let Some(rss) = peak_rss_mb() {
            report.note(format!("peak resident set (VmHWM) {rss:.1} MB"));
        }
        report.metric("peak_heap_mb", peak_heap_mb(cal.heap_bytes()), "MB");
        return Ok(report);
    }
    let sink = Arc::new(TraceSink::new());
    let spans = Arc::new(Spans::new(Arc::clone(&sink)));
    let mut report = match workload {
        Workload::Train(spec) => train::run_traced(spec, opts, &spans),
        Workload::Serve(spec) => serve::run_traced(spec, opts, &spans),
    }?;
    let wall = opts.started.elapsed().as_secs_f64();
    let other = wall - spans.top_level_total();
    report.metric("trace.other_host_s", other, "s");
    report.note(format!(
        "process wall {wall:.3} s, unattributed {other:.3} s ({:.2}%)",
        100.0 * other / wall
    ));
    report.check(
        "unattributed host time is at most 5% of process wall",
        other <= 0.05 * wall,
    );
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, sink.export_chrome_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        report.note(format!("wrote {}", path.display()));
    }
    Ok(report)
}

/// Emits `kernel.<k>.{host_s, modelled_s, dram_bytes, launches}` for every
/// kernel in `KERNELS`; 0 for a kernel the workload never launches.
/// `host_s` sums each launch's host wall time: thread-seconds when
/// devices run concurrently, wall-clock in the sequential traced pass.
pub(crate) fn emit_kernel_layers(report: &mut Report, profile: &ProfileLog) {
    let summaries = profile.summaries();
    for k in KERNELS {
        let s = summaries.iter().find(|s| s.name == k);
        let get = |f: fn(&culda_gpusim::KernelSummary) -> f64| s.map_or(0.0, f);
        report.metric(&format!("kernel.{k}.host_s"), get(|s| s.wall_seconds), "s");
        report.metric(
            &format!("kernel.{k}.modelled_s"),
            get(|s| s.total_seconds),
            "s",
        );
        report.metric(
            &format!("kernel.{k}.dram_bytes"),
            get(|s| s.dram_bytes as f64),
            "bytes",
        );
        report.metric(
            &format!("kernel.{k}.launches"),
            get(|s| f64::from(s.launches)),
            "count",
        );
    }
}
