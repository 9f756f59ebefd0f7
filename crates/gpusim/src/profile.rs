//! Kernel launch profiling: an `nvprof`-style log of every launch.
//!
//! The paper's Table 5 comes from profiling kernel times; the simulator
//! can do one better and keep the full launch history — name, traffic,
//! modelled time — for any device. The log aggregates by kernel name into
//! the summary rows a profiler would print.

use crate::cost::KernelCost;
use crate::kernel::LaunchReport;
use crate::launcher::LaunchPhase;
use std::collections::HashMap;

/// One profiled launch (a thin record of [`LaunchReport`]).
#[derive(Debug, Clone)]
pub struct LaunchRecord {
    /// Kernel name.
    pub name: String,
    /// Resource usage.
    pub cost: KernelCost,
    /// Modelled seconds.
    pub sim_seconds: f64,
    /// Host wall-clock seconds the simulated launch took to execute.
    pub wall_seconds: f64,
    /// Algorithmic phase tag from the launch spec.
    pub phase: LaunchPhase,
}

/// Aggregated statistics for one kernel name.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSummary {
    /// Kernel name.
    pub name: String,
    /// Number of launches.
    pub launches: u32,
    /// Total modelled seconds.
    pub total_seconds: f64,
    /// Total host wall-clock seconds spent executing on the simulator.
    pub wall_seconds: f64,
    /// Total DRAM bytes.
    pub dram_bytes: u64,
    /// Total flops.
    pub flops: u64,
    /// Effective DRAM bandwidth achieved, GB/s.
    pub effective_gbps: f64,
}

/// A launch log.
#[derive(Debug, Clone, Default)]
pub struct ProfileLog {
    records: Vec<LaunchRecord>,
}

impl ProfileLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an untagged launch (phase `Other`).
    pub fn push(&mut self, report: &LaunchReport) {
        self.push_tagged(report, LaunchPhase::default());
    }

    /// Records a launch with its phase tag.
    pub fn push_tagged(&mut self, report: &LaunchReport, phase: LaunchPhase) {
        self.records.push(LaunchRecord {
            name: report.name.clone(),
            cost: report.cost,
            sim_seconds: report.sim_seconds,
            wall_seconds: report.wall_seconds,
            phase,
        });
    }

    /// Appends every record of `other`, in `other`'s launch order. The
    /// trainer merges per-device logs in device-id order so the combined
    /// history is deterministic regardless of worker scheduling.
    pub fn merge(&mut self, other: &ProfileLog) {
        self.records.extend(other.records.iter().cloned());
    }

    /// All records, in launch order.
    pub fn records(&self) -> &[LaunchRecord] {
        &self.records
    }

    /// Number of launches recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Aggregates by kernel name, ordered by descending total time. Name
    /// lookup goes through a `HashMap`, so building the summary is linear in
    /// the number of records; ties keep first-launch order (stable sort).
    pub fn summaries(&self) -> Vec<KernelSummary> {
        let mut by_name: Vec<KernelSummary> = Vec::new();
        let mut index: HashMap<&str, usize> = HashMap::new();
        for r in &self.records {
            match index.get(r.name.as_str()) {
                Some(&i) => {
                    let s = &mut by_name[i];
                    s.launches += 1;
                    s.total_seconds += r.sim_seconds;
                    s.wall_seconds += r.wall_seconds;
                    s.dram_bytes += r.cost.dram_bytes();
                    s.flops += r.cost.flops;
                }
                None => {
                    index.insert(r.name.as_str(), by_name.len());
                    by_name.push(KernelSummary {
                        name: r.name.clone(),
                        launches: 1,
                        total_seconds: r.sim_seconds,
                        wall_seconds: r.wall_seconds,
                        dram_bytes: r.cost.dram_bytes(),
                        flops: r.cost.flops,
                        effective_gbps: 0.0,
                    });
                }
            }
        }
        for s in &mut by_name {
            s.effective_gbps = if s.total_seconds > 0.0 {
                s.dram_bytes as f64 / s.total_seconds / 1e9
            } else {
                0.0
            };
        }
        by_name.sort_by(|a, b| b.total_seconds.partial_cmp(&a.total_seconds).unwrap());
        by_name
    }

    /// A profiler-style text table.
    pub fn render(&self) -> String {
        self.render_impl(None)
    }

    /// Like [`ProfileLog::render`], with an extra `roof%` column giving each
    /// kernel's effective bandwidth as a percentage of `peak_gbps` — the
    /// selected platform's memory-bandwidth roofline.
    pub fn render_with_roof(&self, peak_gbps: f64) -> String {
        self.render_impl(Some(peak_gbps))
    }

    fn render_impl(&self, roof_gbps: Option<f64>) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let total: f64 = self.records.iter().map(|r| r.sim_seconds).sum();
        let _ = write!(
            out,
            "{:<22} {:>9} {:>12} {:>10} {:>12} {:>10} {:>7}",
            "kernel", "launches", "time (ms)", "wall (ms)", "DRAM (MB)", "GB/s", "share"
        );
        if roof_gbps.is_some() {
            let _ = write!(out, " {:>7}", "roof%");
        }
        out.push('\n');
        for s in self.summaries() {
            let _ = write!(
                out,
                "{:<22} {:>9} {:>12.3} {:>10.3} {:>12.2} {:>10.1} {:>6.1}%",
                s.name,
                s.launches,
                s.total_seconds * 1e3,
                s.wall_seconds * 1e3,
                s.dram_bytes as f64 / 1e6,
                s.effective_gbps,
                100.0 * s.total_seconds / total.max(f64::MIN_POSITIVE),
            );
            if let Some(roof) = roof_gbps {
                let _ = write!(
                    out,
                    " {:>6.1}%",
                    100.0 * s.effective_gbps / roof.max(f64::MIN_POSITIVE)
                );
            }
            out.push('\n');
        }
        out
    }

    /// Clears the log.
    pub fn clear(&mut self) {
        self.records.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(name: &str, secs: f64, bytes: u64) -> LaunchReport {
        LaunchReport {
            name: name.into(),
            cost: KernelCost {
                dram_read_bytes: bytes,
                flops: 10,
                blocks: 1,
                ..Default::default()
            },
            sim_seconds: secs,
            wall_seconds: 0.0,
        }
    }

    #[test]
    fn aggregates_by_name_sorted_by_time() {
        let mut log = ProfileLog::new();
        log.push(&report("sample", 0.5, 100));
        log.push(&report("update", 0.1, 10));
        log.push(&report("sample", 0.7, 200));
        let sums = log.summaries();
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0].name, "sample");
        assert_eq!(sums[0].launches, 2);
        assert!((sums[0].total_seconds - 1.2).abs() < 1e-12);
        assert_eq!(sums[0].dram_bytes, 300);
        assert_eq!(sums[1].name, "update");
    }

    #[test]
    fn effective_bandwidth_is_bytes_over_time() {
        let mut log = ProfileLog::new();
        log.push(&report("k", 1.0, 5_000_000_000));
        let s = &log.summaries()[0];
        assert!((s.effective_gbps - 5.0).abs() < 1e-9);
    }

    #[test]
    fn render_contains_all_kernels_and_shares() {
        let mut log = ProfileLog::new();
        log.push(&report("a", 0.75, 1));
        log.push(&report("b", 0.25, 1));
        let table = log.render();
        assert!(table.contains("a"));
        assert!(table.contains("75.0%"));
        assert!(table.contains("25.0%"));
    }

    #[test]
    fn wall_seconds_is_carried_through_to_summaries() {
        let mut log = ProfileLog::new();
        let mut r = report("k", 0.5, 100);
        r.wall_seconds = 0.002;
        log.push(&r);
        r.wall_seconds = 0.003;
        log.push(&r);
        let s = &log.summaries()[0];
        assert!((s.wall_seconds - 0.005).abs() < 1e-12);
        assert!((log.records()[0].wall_seconds - 0.002).abs() < 1e-12);
        assert!(log.render().contains("wall (ms)"));
    }

    #[test]
    fn render_with_roof_reports_attainment() {
        let mut log = ProfileLog::new();
        // 100 GB in 1 s = 100 GB/s; against a 200 GB/s roof → 50.0%.
        log.push(&report("k", 1.0, 100_000_000_000));
        let table = log.render_with_roof(200.0);
        assert!(table.contains("roof%"));
        assert!(table.contains("50.0%"));
        assert!(!log.render().contains("roof%"));
    }

    #[test]
    fn summaries_tie_break_keeps_first_launch_order() {
        let mut log = ProfileLog::new();
        log.push(&report("b_first", 0.5, 1));
        log.push(&report("a_second", 0.5, 1));
        let names: Vec<_> = log.summaries().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["b_first", "a_second"]);
    }

    #[test]
    fn clear_empties() {
        let mut log = ProfileLog::new();
        log.push(&report("a", 0.1, 1));
        assert_eq!(log.len(), 1);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn merge_preserves_order_and_counts() {
        let mut a = ProfileLog::new();
        a.push(&report("x", 0.1, 1));
        let mut b = ProfileLog::new();
        b.push(&report("y", 0.2, 1));
        b.push(&report("z", 0.3, 1));
        a.merge(&b);
        assert_eq!(a.len(), 3);
        let names: Vec<_> = a.records().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["x", "y", "z"]);
    }
}
