//! # culda-metrics
//!
//! Measurement substrate for the CuLDA_CGS reproduction: the statistics the
//! paper reports. Nothing here depends on the rest of the workspace, so
//! every solver (CuLDA, the dense oracle, the CPU and distributed baselines)
//! scores itself with identical code.
//!
//! * [`lgamma`] — `ln Γ` implemented from scratch.
//! * [`loglik`] — joint log-likelihood per token (Figure 8's y-axis).
//! * [`throughput`] — `#Tokens/sec` accounting (Eq. 2, Table 4, Figure 7).
//! * [`breakdown`] — per-kernel time decomposition (Table 5).
//! * [`roofline`] — Flops/Byte analysis (Table 1, Section 3.1).
//! * [`coherence`] — UMass topic coherence (quality extension).
//! * [`series`] — named curves + CSV/ASCII emitters for the figure harnesses.
//! * [`json`] — a dependency-free JSON value (build / render / parse).
//! * [`registry`] — hot-path counters, gauges, log-bucketed histograms,
//!   exact nearest-rank quantiles.
//! * [`trace`] — Chrome Trace Event Format timelines (Perfetto-loadable).
//! * [`health`] — longitudinal anomaly detectors over the iteration stream.
//! * [`snapshot`] — append-only JSONL per-iteration telemetry records.
//! * [`openmetrics`] — OpenMetrics text exposition of the registry.

#![warn(missing_docs)]

pub mod breakdown;
pub mod coherence;
pub mod health;
pub mod json;
pub mod lgamma;
pub mod loglik;
pub mod openmetrics;
pub mod registry;
pub mod roofline;
pub mod series;
pub mod snapshot;
pub mod throughput;
pub mod trace;

pub use breakdown::{Breakdown, GpuBreakdowns, Phase};
pub use coherence::CoOccurrence;
pub use health::{HealthEvent, HealthKind, HealthMonitor, HealthSample, Severity};
pub use json::Json;
pub use lgamma::{ln_gamma, ln_gamma_ratio};
pub use loglik::LdaLoglik;
pub use openmetrics::{lint_openmetrics, parse_openmetrics, render_openmetrics};
pub use registry::{nearest_rank, Counter, Gauge, Histogram, MetricsRegistry};
pub use roofline::{Roofline, SamplingStep};
pub use series::{sparkline, Ewma, Figure, Series};
pub use snapshot::{parse_snapshots, EvalRecord, MetricsSnapshot, SnapshotRecord, SnapshotWriter};
pub use throughput::{format_tokens_per_sec, IterationStat, RunHistory};
pub use trace::{
    EventKind, TraceEvent, TraceSink, H2D_TID_BASE, HOST_PID, NODE_TID_BASE, SIM_PID,
    STAGE_TID_BASE, SYNC_TID,
};
