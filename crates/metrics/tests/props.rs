//! Property-style tests for the measurement substrate, swept over
//! deterministic pseudo-random cases (a local splitmix stream stands in
//! for a property-testing framework; metrics has no dependencies).

use culda_metrics::{lgamma, Breakdown, LdaLoglik, Phase};

/// Tiny deterministic case generator (SplitMix64).
struct Cases {
    state: u64,
}

impl Cases {
    fn new(test_id: u64) -> Self {
        Self {
            state: 0x5EED_CAFE ^ test_id.wrapping_mul(0xA076_1D64_78BD_642F),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in `[lo, hi)`.
    fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * (hi - lo)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

#[test]
fn lngamma_satisfies_recurrence() {
    let mut g = Cases::new(1);
    for _ in 0..256 {
        // ln Γ(x+1) = ln Γ(x) + ln x
        let x = g.f64_range(0.01, 1e6);
        let lhs = lgamma::ln_gamma(x + 1.0);
        let rhs = lgamma::ln_gamma(x) + x.ln();
        assert!((lhs - rhs).abs() <= 1e-10 * rhs.abs().max(1.0), "x = {x}");
    }
}

#[test]
fn lngamma_is_convex_on_sampled_triples() {
    let mut g = Cases::new(2);
    for _ in 0..256 {
        // Midpoint convexity: f((a+b)/2) ≤ (f(a)+f(b))/2.
        let x = g.f64_range(0.1, 1e4);
        let h = g.f64_range(0.01, 10.0);
        let a = x;
        let b = x + 2.0 * h;
        let mid = lgamma::ln_gamma(x + h);
        let avg = 0.5 * (lgamma::ln_gamma(a) + lgamma::ln_gamma(b));
        assert!(mid <= avg + 1e-9, "x = {x}, h = {h}");
    }
}

#[test]
fn ratio_matches_difference() {
    let mut g = Cases::new(3);
    for _ in 0..256 {
        let x = g.f64_range(0.01, 1e4);
        let n = g.range(0, 5000) as u32;
        let direct = lgamma::ln_gamma(x + n as f64) - lgamma::ln_gamma(x);
        let ratio = lgamma::ln_gamma_ratio(x, n);
        assert!(
            (direct - ratio).abs() <= 1e-7 * direct.abs().max(1.0),
            "x = {x}, n = {n}"
        );
    }
}

#[test]
fn topic_term_is_permutation_invariant() {
    let mut g = Cases::new(5);
    let eval = LdaLoglik::new(0.5, 0.01, 4, 64);
    for _ in 0..256 {
        let n = g.range(1, 40) as usize;
        let mut counts: Vec<u32> = (0..n).map(|_| g.range(0, 500) as u32).collect();
        let total: u64 = counts.iter().map(|&c| c as u64).sum();
        let a = eval.topic_term(counts.iter().copied(), total);
        counts.reverse();
        let b = eval.topic_term(counts.iter().copied(), total);
        assert!((a - b).abs() < 1e-9);
    }
}

#[test]
fn splitting_mass_across_topics_never_helps_beyond_bound() {
    // With β < 1, concentrating a topic's mass on one word scores at least
    // as high as splitting it across two words.
    let eval = LdaLoglik::new(0.5, 0.01, 2, 8);
    for c in 1u32..1000 {
        let concentrated = eval.topic_term([c], c as u64);
        let split = eval.topic_term([c / 2, c - c / 2], c as u64);
        assert!(concentrated >= split - 1e-9, "c = {c}");
    }
}

#[test]
fn breakdown_fractions_partition_unity() {
    let mut g = Cases::new(6);
    for _ in 0..256 {
        let mut b = Breakdown::new();
        for phase in Phase::ALL {
            b.add(phase, g.f64_range(0.001, 100.0));
        }
        let sum: f64 = Phase::ALL.iter().map(|&p| b.fraction(p)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        let rows = b.percent_rows();
        let pct: f64 = rows.iter().map(|(_, p)| p).sum();
        assert!((pct - 100.0).abs() < 1e-6);
    }
}

// ---------------------------------------------------------------------------
// Log-bucketed histogram properties (observability layer).
// ---------------------------------------------------------------------------

use culda_metrics::registry::{MAX_EXP, MIN_EXP};
use culda_metrics::Histogram;

#[test]
fn histogram_bucket_bounds_bracket_every_in_range_value() {
    let mut g = Cases::new(7);
    for _ in 0..512 {
        // exp2 of a uniform exponent covers the whole bucketable range.
        let v = g.f64_range(MIN_EXP as f64, MAX_EXP as f64).exp2();
        let i = Histogram::bucket_index(v).expect("in-range value must land in a bucket");
        let (lo, hi) = Histogram::bucket_bounds(i);
        assert!(lo <= v && v < hi, "v = {v} outside [{lo}, {hi})");
        // Power-of-two buckets: the upper bound is exactly twice the lower.
        assert_eq!(hi, lo * 2.0);
    }
}

#[test]
fn histogram_bucket_boundaries_are_contiguous_and_exclusive_at_the_top() {
    let buckets = (MAX_EXP - MIN_EXP) as usize;
    for i in 0..buckets {
        let (lo, hi) = Histogram::bucket_bounds(i);
        // A bucket's lower bound belongs to it; its upper bound belongs to
        // the next bucket (or overflows past the last one).
        assert_eq!(Histogram::bucket_index(lo), Some(i));
        if i + 1 < buckets {
            assert_eq!(Histogram::bucket_bounds(i + 1).0, hi);
            assert_eq!(Histogram::bucket_index(hi), Some(i + 1));
        } else {
            assert_eq!(Histogram::bucket_index(hi), None, "2^MAX_EXP overflows");
        }
    }
    assert_eq!(Histogram::bucket_index((MIN_EXP as f64 - 0.5).exp2()), None);
    assert_eq!(Histogram::bucket_index(0.0), None);
    assert_eq!(Histogram::bucket_index(-1.0), None);
}

#[test]
fn histogram_quantiles_are_monotone_and_bracket_recorded_values() {
    let mut g = Cases::new(8);
    for _ in 0..64 {
        let h = Histogram::default();
        let n = 1 + g.range(1, 400) as usize;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for _ in 0..n {
            let v = g.f64_range(-10.0, 10.0).exp2();
            lo = lo.min(v);
            hi = hi.max(v);
            h.record(v);
        }
        assert_eq!(h.count(), n as u64);
        let mut prev = 0.0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let x = h.quantile(q).expect("non-empty histogram has quantiles");
            assert!(x >= prev, "quantile must be monotone in q");
            prev = x;
            // Bucketed answers can be off by at most one bucket (2x) at
            // either extreme of the recorded range.
            assert!(
                x >= lo / 2.0 && x <= hi * 2.0,
                "q = {q}: {x} vs [{lo}, {hi}]"
            );
        }
    }
}

#[test]
fn histogram_single_value_quantiles_land_in_its_bucket() {
    let mut g = Cases::new(9);
    for _ in 0..128 {
        let v = g.f64_range(-15.0, 15.0).exp2();
        let h = Histogram::default();
        h.record(v);
        let (lo, hi) = Histogram::bucket_bounds(Histogram::bucket_index(v).unwrap());
        for q in [0.0, 0.5, 1.0] {
            let x = h.quantile(q).unwrap();
            assert!(
                x >= lo && x <= hi,
                "quantile {x} outside bucket [{lo}, {hi}]"
            );
        }
    }
}

#[test]
fn histogram_quantile_rank_is_at_least_q_of_count() {
    // The returned bucket's upper bound must sit at or above the value of
    // rank ⌈q·(n-1)⌉+1: at least that many observations fall at or below it.
    let mut g = Cases::new(10);
    for _ in 0..64 {
        let h = Histogram::default();
        let n = 1 + g.range(1, 200) as usize;
        let mut values: Vec<f64> = (0..n).map(|_| g.f64_range(-8.0, 8.0).exp2()).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_by(f64::total_cmp);
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            let x = h.quantile(q).unwrap();
            let rank = (q * (n - 1) as f64).floor() as usize;
            let exact = values[rank];
            // Bucketed estimate is within one power-of-two of the exact
            // order statistic.
            assert!(
                x >= exact / 2.0 && x <= exact * 2.0,
                "q = {q}: estimate {x} vs exact {exact}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Windowed EWMA properties (run-health layer).
// ---------------------------------------------------------------------------

use culda_metrics::Ewma;

#[test]
fn ewma_is_bounded_by_input_envelope() {
    let mut g = Cases::new(11);
    for _ in 0..128 {
        let window = 1 + g.range(0, 20) as usize;
        let mut e = Ewma::new(window);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for _ in 0..g.range(1, 100) {
            let x = g.f64_range(-1e6, 1e6);
            lo = lo.min(x);
            hi = hi.max(x);
            let v = e.update(x);
            assert!(
                v >= lo - 1e-9 && v <= hi + 1e-9,
                "EWMA {v} escaped envelope [{lo}, {hi}] (window {window})"
            );
            assert_eq!(e.value(), Some(v));
        }
    }
}

#[test]
fn ewma_converges_to_a_constant_input() {
    let mut g = Cases::new(12);
    for _ in 0..64 {
        let window = 1 + g.range(0, 10) as usize;
        let target = g.f64_range(-100.0, 100.0);
        let mut e = Ewma::new(window);
        e.update(g.f64_range(-100.0, 100.0));
        let mut last_gap = f64::INFINITY;
        for _ in 0..200 {
            let gap = (e.update(target) - target).abs();
            assert!(gap <= last_gap + 1e-12, "gap must shrink monotonically");
            last_gap = gap;
        }
        assert!(last_gap < 1e-6, "window {window} failed to converge");
    }
}

#[test]
fn histogram_out_of_range_values_are_counted_not_lost() {
    let h = Histogram::default();
    h.record(0.0);
    h.record(-3.5);
    h.record((MIN_EXP as f64 - 1.0).exp2());
    h.record((MAX_EXP as f64).exp2());
    h.record(f64::INFINITY);
    assert_eq!(h.underflow(), 3);
    assert_eq!(h.overflow(), 2);
    assert_eq!(h.count(), 5);
}
