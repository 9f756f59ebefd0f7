//! Run-health anomaly detection over the per-iteration telemetry stream.
//!
//! A [`HealthMonitor`] is a pure longitudinal observer: the training driver
//! feeds it one [`HealthSample`] per iteration and gets back zero or more
//! structured [`HealthEvent`]s. It never touches the trainer, the RNG, or ϕ,
//! so attaching it cannot perturb a run — the same bit-identity contract the
//! trace and metrics sinks already honour.
//!
//! Four detectors cover the failure modes a long LDA job actually exhibits:
//!
//! * **Non-finite log-likelihood** — a NaN/Inf score means the model state is
//!   corrupt; always fatal.
//! * **Throughput collapse** — tokens/sec falling far below its own EWMA,
//!   the signature of a device stuck in retry/backoff loops (PR 4's fault
//!   plans reproduce this deterministically).
//! * **Convergence stall** — the scored log-likelihood flatlining over a
//!   window, reported once per flat stretch.
//! * **Sync-compression regression** — the Δϕ compression ratio dropping far
//!   below its EWMA, meaning the payload densified and `auto` sync should be
//!   revisited.

use crate::json::Json;
use crate::series::Ewma;
use crate::throughput::IterationStat;
use std::fmt;

/// How bad a [`HealthEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The run can continue but deserves attention.
    Warning,
    /// The run is no longer producing a trustworthy model.
    Fatal,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Fatal => "fatal",
        })
    }
}

/// What a detector fired on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthKind {
    /// The scored log-likelihood per token was NaN or infinite.
    NonFiniteLoglik,
    /// Tokens/sec fell below `threshold × EWMA(tokens/sec)`.
    ThroughputCollapse,
    /// The scored log-likelihood moved less than `tol` over a window.
    ConvergenceStall,
    /// The sync compression ratio fell below `threshold × EWMA(ratio)`.
    SyncRegression,
}

impl fmt::Display for HealthKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HealthKind::NonFiniteLoglik => "non-finite-loglik",
            HealthKind::ThroughputCollapse => "throughput-collapse",
            HealthKind::ConvergenceStall => "convergence-stall",
            HealthKind::SyncRegression => "sync-regression",
        })
    }
}

/// One detected anomaly.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthEvent {
    /// Iteration the anomaly was observed at.
    pub iteration: u32,
    /// Which detector fired.
    pub kind: HealthKind,
    /// Severity classification.
    pub severity: Severity,
    /// The observed value that tripped the detector.
    pub value: f64,
    /// The threshold it was compared against.
    pub threshold: f64,
    /// Human-readable one-liner.
    pub message: String,
}

impl HealthEvent {
    /// Serializes the event for the JSONL snapshot stream and the trace.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("type", "health")
            .with("iteration", self.iteration)
            .with("kind", self.kind.to_string())
            .with("severity", self.severity.to_string())
            .with("value", self.value)
            .with("threshold", self.threshold)
            .with("message", self.message.as_str())
    }
}

impl fmt::Display for HealthEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] iter {} {}: {}",
            self.severity, self.iteration, self.kind, self.message
        )
    }
}

// Detector thresholds. They are deliberately loose: telemetry that cries
// wolf gets disabled, so every detector needs a sustained, large signal
// before it fires.

/// EWMA window (iterations) for the throughput baseline.
const THROUGHPUT_WINDOW: usize = 8;
/// Fire when tokens/sec drops below this fraction of its EWMA.
const THROUGHPUT_DROP: f64 = 0.5;
/// Iterations of warm-up before the throughput detector arms.
const THROUGHPUT_WARMUP: u32 = 2;
/// Scored-iteration window for the stall detector.
const STALL_WINDOW: usize = 5;
/// Fire when |Δ log-likelihood per token| over the window is below this.
const STALL_TOL: f64 = 1e-6;
/// EWMA window (syncs) for the compression-ratio baseline.
const COMPRESSION_WINDOW: usize = 8;
/// Fire when the ratio drops below this fraction of its EWMA.
const COMPRESSION_DROP: f64 = 0.5;

/// Stateful anomaly detector over the iteration stream.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    tps_ewma: Ewma,
    tps_seen: u32,
    ratio_ewma: Ewma,
    scored: Vec<f64>,
    stalled: bool,
    events: Vec<HealthEvent>,
}

impl HealthMonitor {
    /// Creates a monitor with no history.
    pub fn new() -> Self {
        Self {
            tps_ewma: Ewma::new(THROUGHPUT_WINDOW),
            tps_seen: 0,
            ratio_ewma: Ewma::new(COMPRESSION_WINDOW),
            scored: Vec::new(),
            stalled: false,
            events: Vec::new(),
        }
    }

    /// Feeds one iteration's telemetry; returns the events it triggered
    /// (also retained in [`Self::events`]).
    pub fn observe(&mut self, sample: &HealthSample) -> Vec<HealthEvent> {
        let mut fired = Vec::new();
        let stat = &sample.stat;
        let iter = stat.iteration;

        if let Some(ll) = stat.loglik_per_token {
            if !ll.is_finite() {
                fired.push(HealthEvent {
                    iteration: iter,
                    kind: HealthKind::NonFiniteLoglik,
                    severity: Severity::Fatal,
                    value: ll,
                    threshold: f64::NAN,
                    message: format!("log-likelihood per token is {ll}"),
                });
            } else {
                self.scored.push(ll);
                self.check_stall(iter, &mut fired);
            }
        }

        let tps = stat.tokens_per_sec();
        if self.tps_seen >= THROUGHPUT_WARMUP {
            if let Some(baseline) = self.tps_ewma.value() {
                let floor = THROUGHPUT_DROP * baseline;
                if tps < floor {
                    fired.push(HealthEvent {
                        iteration: iter,
                        kind: HealthKind::ThroughputCollapse,
                        severity: Severity::Warning,
                        value: tps,
                        threshold: floor,
                        message: format!(
                            "tokens/sec {tps:.1} below {:.0}% of EWMA {baseline:.1}",
                            THROUGHPUT_DROP * 100.0
                        ),
                    });
                }
            }
        }
        self.tps_ewma.update(tps);
        self.tps_seen += 1;

        if let Some(ratio) = sample.compression_ratio {
            if let Some(baseline) = self.ratio_ewma.value() {
                let floor = COMPRESSION_DROP * baseline;
                if ratio < floor {
                    fired.push(HealthEvent {
                        iteration: iter,
                        kind: HealthKind::SyncRegression,
                        severity: Severity::Warning,
                        value: ratio,
                        threshold: floor,
                        message: format!(
                            "sync compression {ratio:.2}x below {:.0}% of EWMA {baseline:.2}x",
                            COMPRESSION_DROP * 100.0
                        ),
                    });
                }
            }
            self.ratio_ewma.update(ratio);
        }

        self.events.extend(fired.iter().cloned());
        fired
    }

    fn check_stall(&mut self, iteration: u32, fired: &mut Vec<HealthEvent>) {
        let w = STALL_WINDOW;
        if self.scored.len() < w + 1 {
            return;
        }
        let last = self.scored[self.scored.len() - 1];
        let reference = self.scored[self.scored.len() - 1 - w];
        let moved = (last - reference).abs();
        if moved < STALL_TOL {
            // Latch: one event per flat stretch, not one per iteration.
            if !self.stalled {
                self.stalled = true;
                fired.push(HealthEvent {
                    iteration,
                    kind: HealthKind::ConvergenceStall,
                    severity: Severity::Warning,
                    value: moved,
                    threshold: STALL_TOL,
                    message: format!(
                        "log-likelihood moved {moved:.3e} over last {w} scores (tol {STALL_TOL:.1e})"
                    ),
                });
            }
        } else {
            self.stalled = false;
        }
    }

    /// Every event observed so far, in order.
    pub fn events(&self) -> &[HealthEvent] {
        &self.events
    }

    /// Whether any fatal event has fired.
    pub fn has_fatal(&self) -> bool {
        self.events.iter().any(|e| e.severity == Severity::Fatal)
    }
}

impl Default for HealthMonitor {
    fn default() -> Self {
        Self::new()
    }
}

/// One iteration's worth of health-relevant telemetry.
#[derive(Debug, Clone, Copy)]
pub struct HealthSample {
    /// The iteration's timing/score record.
    pub stat: IterationStat,
    /// This iteration's sync compression ratio, when a sparse-capable sync
    /// ran (`None` for single-GPU and dense-only runs).
    pub compression_ratio: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(i: u32, tokens: u64, sim: f64, ll: Option<f64>) -> IterationStat {
        IterationStat {
            iteration: i,
            tokens,
            sim_seconds: sim,
            wall_seconds: sim,
            loglik_per_token: ll,
            delta_density: None,
            sampling_sparse: None,
        }
    }

    fn feed(m: &mut HealthMonitor, s: IterationStat, ratio: Option<f64>) -> Vec<HealthEvent> {
        m.observe(&HealthSample {
            stat: s,
            compression_ratio: ratio,
        })
    }

    #[test]
    fn nan_loglik_is_fatal() {
        let mut m = HealthMonitor::new();
        let fired = feed(&mut m, stat(0, 100, 1.0, Some(f64::NAN)), None);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, HealthKind::NonFiniteLoglik);
        assert_eq!(fired[0].severity, Severity::Fatal);
        assert!(m.has_fatal());
    }

    #[test]
    fn throughput_collapse_after_warmup() {
        let mut m = HealthMonitor::new();
        for i in 0..4 {
            assert!(feed(&mut m, stat(i, 1000, 1.0, None), None).is_empty());
        }
        // 10x slowdown: 1000 t/s baseline, now 100 t/s.
        let fired = feed(&mut m, stat(4, 1000, 10.0, None), None);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, HealthKind::ThroughputCollapse);
        assert_eq!(fired[0].severity, Severity::Warning);
        assert!(!m.has_fatal());
    }

    #[test]
    fn throughput_detector_stays_quiet_during_warmup() {
        let mut m = HealthMonitor::new();
        assert!(feed(&mut m, stat(0, 1000, 1.0, None), None).is_empty());
        // Even a huge swing on iteration 1 is inside the warm-up window.
        assert!(feed(&mut m, stat(1, 1000, 50.0, None), None).is_empty());
    }

    #[test]
    fn stall_fires_once_per_flat_stretch() {
        let mut m = HealthMonitor::new();
        // Two flat stretches, each one score longer than the window: the
        // first fires on its last score, the second after its re-arm and
        // then stays latched for one more flat score.
        let mut lls = vec![-9.0, -8.0];
        lls.extend([-7.5; STALL_WINDOW + 1]);
        lls.extend([-6.0; STALL_WINDOW + 2]);
        let mut stalls = 0;
        for (i, &ll) in lls.iter().enumerate() {
            let fired = feed(&mut m, stat(i as u32, 100, 1.0, Some(ll)), None);
            stalls += fired
                .iter()
                .filter(|e| e.kind == HealthKind::ConvergenceStall)
                .count();
        }
        assert_eq!(stalls, 2, "one per flat stretch, re-armed after movement");
    }

    #[test]
    fn compression_regression_detected() {
        let mut m = HealthMonitor::new();
        for i in 0..3 {
            assert!(feed(&mut m, stat(i, 100, 1.0, None), Some(20.0)).is_empty());
        }
        let fired = feed(&mut m, stat(3, 100, 1.0, None), Some(2.0));
        assert!(fired
            .iter()
            .any(|e| e.kind == HealthKind::SyncRegression && e.severity == Severity::Warning));
    }

    #[test]
    fn event_json_round_trips() {
        let ev = HealthEvent {
            iteration: 7,
            kind: HealthKind::ThroughputCollapse,
            severity: Severity::Warning,
            value: 10.0,
            threshold: 50.0,
            message: "slow".into(),
        };
        let doc = Json::parse(&ev.to_json().render()).unwrap();
        assert_eq!(doc.get("type").unwrap().as_str(), Some("health"));
        assert_eq!(
            doc.get("kind").unwrap().as_str(),
            Some("throughput-collapse")
        );
        assert_eq!(doc.get("iteration").unwrap().as_f64(), Some(7.0));
    }
}
