//! The run's ledger: named metrics with units, the operation/failure
//! count, host spans recorded around calls into each layer, and the
//! one-line JSON result.

use culda_metrics::{Json, TraceSink};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Trace thread id of the benchmark's own host spans (past any
/// simulated-GPU or host-worker track the library emits on).
const BENCH_TID: u32 = 500;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in emission order.
    pub metrics: Vec<Metric>,
    /// Operations attempted: iterations or requests, plus every check.
    pub attempted: u64,
    /// Operations that failed, including rejected or dropped requests.
    pub failed: u64,
    /// Human-readable lines printed ahead of the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric. A non-finite value is reported as 0 and counted
    /// as a failed check, since the result line must carry a number.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let finite = self.check(&format!("{name} is finite"), value.is_finite());
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if finite { value } else { 0.0 },
            unit,
        });
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Counts one correctness check; returns `ok`.
    pub fn check(&mut self, what: &str, ok: bool) -> bool {
        self.ops(1, u64::from(!ok));
        if !ok {
            self.notes.push(format!("CHECK FAILED: {what}"));
        }
        ok
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Emits `setup_s`: the median of the set-up repetitions' seconds,
    /// normalised by `scale` (see [`Calibration::take_scale`]).
    pub fn setup(&mut self, secs: &[f64], scale: f64) {
        self.note(format!(
            "set-up: median of {} repetitions totalling {:.2} s, raw {:.6} s, host scale {scale:.4}",
            secs.len(),
            secs.iter().sum::<f64>(),
            median(secs)
        ));
        self.metric("setup_s", median(secs) * scale, "s");
    }

    /// Emits `tokens_per_s.host`: the median over rounds of raw host
    /// tokens/s, each divided by its round's calibration scale.
    pub fn host_throughput(&mut self, rounds: &[(f64, f64)]) {
        let raw: Vec<f64> = rounds.iter().map(|(tps, _)| tps.round()).collect();
        let scales: Vec<String> = rounds.iter().map(|(_, s)| format!("{s:.4}")).collect();
        self.note(format!(
            "{} round(s); raw host tokens/s {raw:?}, host scale {scales:?}",
            rounds.len()
        ));
        let normalised: Vec<f64> = rounds.iter().map(|(tps, s)| tps / s).collect();
        self.metric("tokens_per_s.host", median(&normalised), "tokens/s");
    }

    /// Emits `p50_ms.modelled` and `tail_ms.modelled` over modelled
    /// latencies of `what` (iterations or requests), stating the sample
    /// count and which percentile the tail is.
    pub fn latencies(&mut self, what: &str, ms: &[f64]) {
        let (q, tail_ms) = tail(ms).unwrap_or((0.0, f64::NAN));
        self.note(format!(
            "modelled latency over {} {what}: tail = p{:.1}, {TAIL_BEYOND} samples beyond it",
            ms.len(),
            100.0 * q
        ));
        self.metric(
            "p50_ms.modelled",
            nearest_rank(ms, 0.5).unwrap_or(f64::NAN),
            "ms",
        );
        self.metric("tail_ms.modelled", tail_ms, "ms");
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json_line(&self) -> String {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            metrics = metrics.with(
                &m.name,
                Json::obj().with("value", m.value).with("unit", m.unit),
            );
        }
        Json::obj()
            .with("correct", self.failed == 0)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .render()
    }
}

/// One finished host span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Nesting depth; 0 = a top-level step of the run.
    pub depth: u32,
    /// Host seconds.
    pub seconds: f64,
}

/// Host spans of a traced run, kept in memory and mirrored into a
/// [`TraceSink`] for the Chrome trace written at exit. Thread-safe so an
/// engine wrapper living inside the router can record into it.
#[derive(Debug)]
pub struct Spans {
    sink: Arc<TraceSink>,
    depth: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    /// An empty recorder writing into `sink`.
    pub fn new(sink: Arc<TraceSink>) -> Self {
        Self {
            sink,
            depth: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The trace sink the spans are mirrored into.
    pub fn sink(&self) -> &Arc<TraceSink> {
        &self.sink
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let depth = self.depth.fetch_add(1, Ordering::SeqCst);
        let start = self.sink.host_now_us();
        let out = f();
        let end = self.sink.host_now_us();
        self.depth.fetch_sub(1, Ordering::SeqCst);
        self.sink
            .span_host(BENCH_TID, name, "bench", start, end, 0.0, Vec::new());
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking span")
            .push(Span {
                name,
                depth,
                seconds: (end - start) * 1e-6,
            });
        out
    }

    /// All finished spans, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking span")
            .clone()
    }

    /// Total host seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.seconds)
            .sum()
    }

    /// Host seconds of every span named `name`, in completion order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.seconds)
            .collect()
    }

    /// Host seconds covered by top-level spans.
    pub fn top_level_total(&self) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| s.seconds)
            .sum()
    }
}

/// Runs `f` inside a span when tracing, bare otherwise.
pub fn span<T>(spans: Option<&Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.time(name, f),
        None => f(),
    }
}

/// Samples a tail percentile must leave beyond it to mean anything.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank quantile of `values` (`q` in `(0, 1]`); `None` when empty.
/// Exact: no bucketing, so any change in a sample can move it.
pub fn nearest_rank(values: &[f64], q: f64) -> Option<f64> {
    let rank = (q * values.len() as f64).ceil() as usize;
    at_rank(values, rank)
}

/// The tail: the highest nearest-rank percentile that leaves
/// [`TAIL_BEYOND`] samples beyond it, or the median when there are too
/// few samples. Returns `(percentile, value)`.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    let rank = n.saturating_sub(TAIL_BEYOND).max(n.div_ceil(2));
    Some((rank as f64 / n as f64, at_rank(values, rank)?))
}

/// The `rank`-th smallest of `values` (1-based, clamped to the range).
fn at_rank(values: &[f64], rank: usize) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// FNV-1a over every assignment, chunk by chunk: a cross-run equality
/// witness for the sampled chain.
pub fn z_hash(z: &[Vec<u16>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in z.iter().flatten() {
        h = (h ^ u64::from(*v)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The system allocator, counting live bytes in large blocks and their
/// high-water mark.
///
/// Peak *resident* memory is not repeatable here: the simulator spawns a
/// thread per kernel launch, and whether malloc hands a new thread a fresh
/// arena depends on timing, which moves `VmHWM` by ±10% at a fixed seed.
/// Peak live heap is what the program asked for, and repeats. Only blocks
/// of at least [`COUNTED_MIN_BYTES`] are counted: the corpus, models and
/// buffers live there, while the many small blocks kernel threads churn
/// through would make two threads fight over the counters and slow the
/// program being measured by a third.
struct CountingAlloc;

/// Smallest block the heap counters see.
const COUNTED_MIN_BYTES: usize = 4096;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    if bytes >= COUNTED_MIN_BYTES {
        let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if live > PEAK_BYTES.load(Ordering::Relaxed) {
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        }
    }
}

fn shrank(bytes: usize) {
    if bytes >= COUNTED_MIN_BYTES {
        LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// statistics and never influence what is allocated.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Peak live heap of this process so far, in MB (blocks of at least
/// [`COUNTED_MIN_BYTES`]), less `excluded` bytes held throughout by the
/// benchmark itself.
pub fn peak_heap_mb(excluded: usize) -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(excluded) as f64 / 1e6
}

/// Peak resident set of this process in MB (`VmHWM`), if the platform
/// exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// Seconds `f` takes, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// A fixed unit of host work — multiply-adds over 4,000 pseudo-random
/// 4 KiB rows of a 16 MB table — timed between measured steps.
///
/// This host's speed drifts by 25–40% over tens of minutes (other
/// tenants; no steal time shows from inside), which would swamp any bound
/// on a host metric. Scaling a phase's host times by this unit's median
/// duration over the same phase removes most of that drift: over nine
/// minutes in which the unit's speed moved by 26–32%, it cut the
/// run-to-run variation of host tokens/s from 8–10% to 2–4%.
///
/// The unit runs between steps, in the cache state the steps leave, so it
/// sees the memory system the workload sees. Run back to back around a
/// whole round instead, its table stays in the last-level cache, it reads
/// 1.3–1.9× faster, and it no longer follows the workload's speed. Running
/// it between steps costs the steps nothing measurable: the table and the
/// workload's heap fit in the last-level cache together, and refilling the
/// private caches takes microseconds against steps of 100 ms or more.
#[derive(Debug)]
pub struct Calibration {
    table: Vec<f32>,
    weights: Vec<f32>,
    acc: Vec<f32>,
    state: u64,
    samples: Vec<f64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibration {
    const ROWS: usize = 4096;
    const WIDTH: usize = 1024;
    const PASSES: usize = 4000;

    /// The unit's duration on the reference host — the 2-core Xeon VM the
    /// committed baseline was recorded on, at its usual speed. Normalised
    /// host metrics read as if measured there.
    pub const REFERENCE_S: f64 = 2.2e-3;

    /// Allocates and fills the table.
    pub fn new() -> Self {
        Self {
            table: (0..Self::ROWS * Self::WIDTH)
                .map(|i| (i.wrapping_mul(2_654_435_761) % 1000) as f32 + 1.0)
                .collect(),
            weights: (0..Self::WIDTH).map(|i| 1.0 / (i as f32 + 3.0)).collect(),
            acc: vec![0.0; Self::WIDTH],
            state: 0x9E37_79B9_7F4A_7C15,
            samples: Vec::new(),
        }
    }

    /// Heap bytes the unit holds, left out of `peak_heap_mb`.
    pub fn heap_bytes(&self) -> usize {
        4 * (self.table.len() + self.weights.len() + self.acc.len())
    }

    /// Runs the unit once, records its duration, and returns it.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..Self::PASSES {
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            let r = (self.state % Self::ROWS as u64) as usize;
            let row = &self.table[r * Self::WIDTH..(r + 1) * Self::WIDTH];
            for ((a, &v), &w) in self.acc.iter_mut().zip(row).zip(&self.weights) {
                *a = (*a + v * w) * 0.999 + 0.01;
            }
        }
        std::hint::black_box(&self.acc);
        let secs = start.elapsed().as_secs_f64();
        self.samples.push(secs);
        secs
    }

    /// The factor taking host seconds measured since the last call to
    /// reference-host seconds; starts the next phase.
    pub fn take_scale(&mut self) -> f64 {
        let scale = Self::REFERENCE_S / median(&self.samples);
        self.samples.clear();
        scale
    }
}

/// Minimum set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;

/// Minimum host seconds the set-up repetitions span. Set-up takes
/// milliseconds, and this host's speed steps between plateaus a few
/// hundred milliseconds long; a median over one plateau would report that
/// plateau, not the set-up.
pub const SETUP_WINDOW_S: f64 = 1.0;

/// Runs `set_up` at least [`SETUP_REPS`] times and for at least
/// [`SETUP_WINDOW_S`], dropping each result before the next repetition and
/// sampling `cal` before each. Returns the last result and every
/// repetition's seconds.
pub fn repeat_setup<T>(
    cal: &mut Calibration,
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let start = Instant::now();
    let mut secs = Vec::new();
    let mut last = None;
    while secs.len() < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_WINDOW_S {
        drop(last.take());
        cal.sample();
        let (made, s) = timed(&mut set_up);
        secs.push(s);
        last = Some(made?);
    }
    Ok((last.expect("at least one set-up repetition"), secs))
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
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1200).map(f64::from).collect();
        assert_eq!(tail(&v), Some((1190.0 / 1200.0, 1190.0)));
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&v), Some((20.0 / 30.0, 20.0)));
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&v), Some((0.5, 6.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn non_finite_metric_fails_the_run() {
        let mut r = Report::default();
        r.metric("ok", 1.5, "s");
        assert_eq!(r.failed, 0);
        r.metric("bad", f64::NAN, "s");
        assert_eq!(r.failed, 1);
        assert_eq!(r.metrics[1].value, 0.0);
        let line = Json::parse(&r.json_line()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    fn spans_nest_and_sum() {
        let s = Spans::new(Arc::new(TraceSink::new()));
        s.time("outer", || s.time("inner", || ()));
        let spans = s.spans();
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[1].depth, 0);
        assert!(s.top_level_total() >= s.total("inner"));
    }
}
