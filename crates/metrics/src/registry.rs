//! Hot-path metrics registry: counters, gauges, and log-bucketed histograms.
//!
//! Recording sites sit on hot paths (per kernel launch, per sampled token),
//! so the instruments are lock-free once resolved: a [`Counter`] increment is
//! one relaxed `fetch_add`, a [`Histogram`] record is two relaxed adds plus a
//! CAS loop for the running sum. Name resolution (`registry.counter("…")`)
//! takes a mutex and should be done once per block/launch, not per event —
//! callers cache the returned `Arc` handle. When no registry is attached the
//! instrumented code branches on `Option::None` and records nothing, so the
//! unobserved cost is a single predictable branch.
//!
//! Snapshots are deterministic: instruments iterate in name order (BTreeMap)
//! and render either to [`Json`] (for `metrics.json`) or to a fixed-width
//! text dashboard.

use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing integer counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Smallest power-of-two exponent with its own bucket: values below
/// 2^[`MIN_EXP`] land in the underflow bucket.
pub const MIN_EXP: i32 = -20;
/// One past the largest bucketed exponent: values at or above 2^[`MAX_EXP`]
/// land in the overflow bucket.
pub const MAX_EXP: i32 = 20;
const NUM_BUCKETS: usize = (MAX_EXP - MIN_EXP) as usize;

/// A log-bucketed histogram over positive values.
///
/// Bucket `i` covers the half-open range `[2^(MIN_EXP+i), 2^(MIN_EXP+i+1))`,
/// spanning roughly `1e-6 ..= 1e6` — wide enough for GB/s figures, tree
/// depths, and microsecond latencies alike. Non-positive and too-small values
/// count as underflow, too-large as overflow; both still contribute to
/// `count` and `sum` so the mean stays honest.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    underflow: AtomicU64,
    overflow: AtomicU64,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            underflow: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Histogram {
    /// Bucket index for `v`, or `None` when it falls in underflow/overflow.
    pub fn bucket_index(v: f64) -> Option<usize> {
        if !(v.is_finite() && v > 0.0) {
            return None;
        }
        let exp = v.log2().floor() as i32;
        if (MIN_EXP..MAX_EXP).contains(&exp) {
            Some((exp - MIN_EXP) as usize)
        } else {
            None
        }
    }

    /// The half-open value range `[lo, hi)` covered by bucket `i`.
    pub fn bucket_bounds(i: usize) -> (f64, f64) {
        let lo = (MIN_EXP + i as i32) as f64;
        (lo.exp2(), (lo + 1.0).exp2())
    }

    /// Records one observation. Lock-free; safe from any thread.
    pub fn record(&self, v: f64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of `v` with one add per field — what `n`
    /// calls to [`Histogram::record`] leave, exactly so when `v · n` and
    /// the running sum are exact in f64 (integer observations, such as
    /// tree depths).
    pub fn record_n(&self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        match Self::bucket_index(v) {
            Some(i) => self.buckets[i].fetch_add(n, Ordering::Relaxed),
            // +inf counts as overflow; NaN and non-positive as underflow.
            None if v >= (MIN_EXP as f64).exp2() => self.overflow.fetch_add(n, Ordering::Relaxed),
            None => self.underflow.fetch_add(n, Ordering::Relaxed),
        };
        self.count.fetch_add(n, Ordering::Relaxed);
        if v.is_finite() {
            // `v · 1` is `v`: `record` adds what it always added.
            let v = v * n as f64;
            let mut cur = self.sum_bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + v).to_bits();
                match self.sum_bits.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all finite observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean of observations, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum() / n as f64)
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`): walks the cumulative bucket
    /// counts and returns the geometric midpoint of the bucket holding the
    /// target rank. Underflow reports the bottom bucket edge, overflow the
    /// top. `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank in 1..=n of the observation the quantile falls on.
        let rank = ((q * (n - 1) as f64).floor() as u64 + 1).min(n);
        let mut seen = self.underflow.load(Ordering::Relaxed);
        if rank <= seen {
            return Some(Self::bucket_bounds(0).0);
        }
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if rank <= seen {
                let (lo, hi) = Self::bucket_bounds(i);
                return Some((lo * hi).sqrt());
            }
        }
        Some(Self::bucket_bounds(NUM_BUCKETS - 1).1)
    }

    /// Non-empty buckets as `(lo, hi, count)` triples, ascending by value.
    pub fn nonzero_buckets(&self) -> Vec<(f64, f64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| {
                    let (lo, hi) = Self::bucket_bounds(i);
                    (lo, hi, n)
                })
            })
            .collect()
    }

    /// Count of observations below the bucketed range (or non-positive).
    pub fn underflow(&self) -> u64 {
        self.underflow.load(Ordering::Relaxed)
    }

    /// Count of observations at or above the bucketed range.
    pub fn overflow(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }

    fn to_json(&self) -> Json {
        let buckets = self
            .nonzero_buckets()
            .into_iter()
            .map(|(lo, hi, n)| Json::obj().with("lo", lo).with("hi", hi).with("count", n))
            .collect();
        Json::obj()
            .with("count", self.count())
            .with("sum", self.sum())
            .with("mean", self.mean().map(Json::Num).unwrap_or(Json::Null))
            .with(
                "p50",
                self.quantile(0.5).map(Json::Num).unwrap_or(Json::Null),
            )
            .with(
                "p90",
                self.quantile(0.9).map(Json::Num).unwrap_or(Json::Null),
            )
            .with(
                "p99",
                self.quantile(0.99).map(Json::Num).unwrap_or(Json::Null),
            )
            .with("underflow", self.underflow())
            .with("overflow", self.overflow())
            .with("buckets", Json::Arr(buckets))
    }
}

/// Exact nearest-rank `q`-quantile (`q` in `(0, 1]`) of `sorted`, which
/// must be in ascending order: the `⌈q·n⌉`-th smallest value, clamped to
/// the first. Unlike [`Histogram::quantile`] there is no bucketing, so any
/// change in a sample can move it. `None` when `sorted` is empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A process-wide bag of named instruments.
///
/// Handles are `Arc`s: resolve once, record many times. The registry itself
/// is cheap to share (`Arc<MetricsRegistry>`) across devices and workers.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the counter named `name`.
    ///
    /// Lookups of an existing name borrow `name` directly (no `String`
    /// allocation); only the first resolution of a name interns it.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap();
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        map.entry(name.to_string()).or_default().clone()
    }

    /// Gets or creates the gauge named `name`. Allocation-free on hit, like
    /// [`MetricsRegistry::counter`].
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap();
        if let Some(g) = map.get(name) {
            return Arc::clone(g);
        }
        map.entry(name.to_string()).or_default().clone()
    }

    /// Gets or creates the histogram named `name`. Allocation-free on hit,
    /// like [`MetricsRegistry::counter`].
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap();
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        map.entry(name.to_string()).or_default().clone()
    }

    /// Counter `(name, value)` pairs in name order.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, c)| (k.clone(), c.value()))
            .collect()
    }

    /// Gauge `(name, value)` pairs in name order.
    pub fn gauge_values(&self) -> Vec<(String, f64)> {
        self.gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(k, g)| (k.clone(), g.value()))
            .collect()
    }

    /// Histogram `(name, handle)` pairs in name order.
    pub fn histogram_handles(&self) -> Vec<(String, Arc<Histogram>)> {
        self.histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, h)| (k.clone(), Arc::clone(h)))
            .collect()
    }

    /// Snapshots every instrument into a JSON document
    /// (`{"counters": {...}, "gauges": {...}, "histograms": {...}}`).
    pub fn snapshot_json(&self) -> Json {
        let counters = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, c)| (k.clone(), Json::from(c.value())))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(k, g)| (k.clone(), Json::from(g.value())))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, h)| (k.clone(), h.to_json()))
            .collect();
        Json::obj()
            .with("counters", Json::Obj(counters))
            .with("gauges", Json::Obj(gauges))
            .with("histograms", Json::Obj(histograms))
    }

    /// Renders a plain-text dashboard: counters and gauges as aligned rows,
    /// histograms with count/mean/quantiles and a bar per non-empty bucket.
    pub fn render_dashboard(&self) -> String {
        let mut out = String::new();
        let counters = self.counters.lock().unwrap();
        if !counters.is_empty() {
            out.push_str("== counters ==\n");
            for (name, c) in counters.iter() {
                let _ = writeln!(out, "{:<44} {:>14}", name, c.value());
            }
        }
        drop(counters);
        let gauges = self.gauges.lock().unwrap();
        if !gauges.is_empty() {
            out.push_str("== gauges ==\n");
            for (name, g) in gauges.iter() {
                let _ = writeln!(out, "{:<44} {:>14.4}", name, g.value());
            }
        }
        drop(gauges);
        let histograms = self.histograms.lock().unwrap();
        if !histograms.is_empty() {
            out.push_str("== histograms ==\n");
            for (name, h) in histograms.iter() {
                let _ = writeln!(
                    out,
                    "{}  n={}  mean={}  p50={}  p90={}  p99={}",
                    name,
                    h.count(),
                    fmt_opt(h.mean()),
                    fmt_opt(h.quantile(0.5)),
                    fmt_opt(h.quantile(0.9)),
                    fmt_opt(h.quantile(0.99)),
                );
                let rows = h.nonzero_buckets();
                let peak = rows.iter().map(|&(_, _, n)| n).max().unwrap_or(1);
                for (lo, hi, n) in rows {
                    let bar = "#".repeat(((n * 40).div_ceil(peak)) as usize);
                    let _ = writeln!(out, "  [{lo:>12.5}, {hi:>12.5})  {n:>10}  {bar}");
                }
                if h.underflow() > 0 {
                    let _ = writeln!(out, "  underflow {:>10}", h.underflow());
                }
                if h.overflow() > 0 {
                    let _ = writeln!(out, "  overflow  {:>10}", h.overflow());
                }
            }
        }
        out
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map(|v| format!("{v:.4}")).unwrap_or_else(|| "-".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&v, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&[3.0], 0.99), Some(3.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn counter_and_gauge_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("kernel.launches");
        c.inc();
        c.add(3);
        assert_eq!(reg.counter("kernel.launches").value(), 4);
        reg.gauge("roofline.peak_gbps").set(549.0);
        assert_eq!(reg.gauge("roofline.peak_gbps").value(), 549.0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for v in [0.5, 1.0, 2.0, 2.5, 4.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert!((h.sum() - 110.0).abs() < 1e-9);
        let q0 = h.quantile(0.0).unwrap();
        let q1 = h.quantile(1.0).unwrap();
        assert!(q0 <= q1);
        // 2.0 and 2.5 share the [2,4) bucket.
        let rows = h.nonzero_buckets();
        assert!(rows
            .iter()
            .any(|&(lo, hi, n)| lo == 2.0 && hi == 4.0 && n == 2));
    }

    #[test]
    fn histogram_edges_go_to_under_and_overflow() {
        let h = Histogram::default();
        h.record(0.0);
        h.record(-5.0);
        h.record(1e30);
        assert_eq!(h.underflow(), 2);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn record_n_equals_n_records() {
        // Integer observations, as the sampler's depth tallies are, plus
        // the under- and overflow edges and a zero count.
        let once = Histogram::default();
        let each = Histogram::default();
        for (v, n) in [
            (3.0, 5u64),
            (1.0, 1),
            (17.0, 1000),
            (0.0, 4),
            (1e30, 2),
            (9.0, 0),
        ] {
            once.record_n(v, n);
            for _ in 0..n {
                each.record(v);
            }
        }
        assert_eq!(once.nonzero_buckets(), each.nonzero_buckets());
        assert_eq!(
            (once.underflow(), once.overflow(), once.count()),
            (each.underflow(), each.overflow(), each.count())
        );
        assert_eq!(once.sum().to_bits(), each.sum().to_bits());
    }

    #[test]
    fn snapshot_json_parses_back() {
        let reg = MetricsRegistry::new();
        reg.counter("a").inc();
        reg.histogram("h").record(3.0);
        let text = reg.snapshot_json().render();
        let doc = crate::json::Json::parse(&text).unwrap();
        assert_eq!(
            doc.get("counters").unwrap().get("a").unwrap().as_f64(),
            Some(1.0)
        );
        assert!(doc.get("histograms").unwrap().get("h").is_some());
    }

    #[test]
    fn dashboard_renders_all_sections() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(7);
        reg.gauge("g").set(1.5);
        reg.histogram("h").record(2.0);
        let text = reg.render_dashboard();
        assert!(text.contains("== counters =="));
        assert!(text.contains("== gauges =="));
        assert!(text.contains("== histograms =="));
        assert!(text.contains('#'));
    }
}
