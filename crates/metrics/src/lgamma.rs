//! Natural log-gamma implemented from scratch (no external math crates).
//!
//! The LDA joint log-likelihood (see [`crate::loglik`]) is a large sum of
//! `ln Γ(·)` terms over counts, so we need a fast, accurate `ln Γ` for
//! positive real arguments. We use the classic Lanczos approximation with
//! g = 7 and a 9-term coefficient set, which yields ~15 significant digits
//! over the positive reals — far more than the statistic needs.

/// Lanczos coefficients for g = 7, n = 9 (Godfrey's tableau).
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEF: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

const LN_SQRT_TWO_PI: f64 = 0.918_938_533_204_672_7;

/// Natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// ```
/// use culda_metrics::ln_gamma;
/// // Γ(5) = 4! = 24
/// assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
/// ```
///
/// For `x < 0.5` the reflection formula
/// `Γ(x) Γ(1-x) = π / sin(πx)` is applied so that small arguments (which
/// arise from hyper-parameters like `β = 0.01`) stay accurate.
///
/// # Panics
/// Panics if `x` is not finite or `x <= 0` (counts and hyper-parameters in
/// LDA are strictly positive, so a non-positive argument is a logic error).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(
        x.is_finite() && x > 0.0,
        "ln_gamma requires finite x > 0, got {x}"
    );
    if x < 0.5 {
        // Reflection: ln Γ(x) = ln(π / sin(πx)) − ln Γ(1 − x)
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS_COEF[0];
    for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    LN_SQRT_TWO_PI + (x + 0.5) * t.ln() - t + acc.ln()
}

/// `ln Γ(x + n) − ln Γ(x)` computed stably.
///
/// This "rising ln-gamma" shows up when differencing likelihoods between
/// iterations; for small integer `n` it is cheaper and more accurate to use
/// the product form `ln ∏ (x + i)` than two big `ln Γ` calls.
pub fn ln_gamma_ratio(x: f64, n: u32) -> f64 {
    if n <= 8 {
        let mut acc = 0.0;
        for i in 0..n {
            acc += (x + i as f64).ln();
        }
        acc
    } else {
        ln_gamma(x + n as f64) - ln_gamma(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol * b.abs().max(1.0), "{a} vs {b}");
    }

    #[test]
    fn integer_values_match_factorials() {
        // Γ(n) = (n-1)!
        let mut fact = 1.0f64;
        for n in 1..20u32 {
            assert_close(ln_gamma(n as f64), fact.ln(), 1e-12);
            fact *= n as f64;
        }
    }

    #[test]
    fn half_integer_values() {
        // Γ(1/2) = √π, Γ(3/2) = √π/2, Γ(5/2) = 3√π/4
        let sqrt_pi = std::f64::consts::PI.sqrt();
        assert_close(ln_gamma(0.5), sqrt_pi.ln(), 1e-12);
        assert_close(ln_gamma(1.5), (sqrt_pi / 2.0).ln(), 1e-12);
        assert_close(ln_gamma(2.5), (3.0 * sqrt_pi / 4.0).ln(), 1e-12);
    }

    #[test]
    fn small_arguments_via_reflection() {
        // Γ(0.01) ≈ 99.4325851191506; β=0.01 is the paper's hyper-parameter.
        assert_close(ln_gamma(0.01), 99.432_585_119_150_6_f64.ln(), 1e-10);
        // Γ(0.1) ≈ 9.513507698668732
        assert_close(ln_gamma(0.1), 9.513_507_698_668_732_f64.ln(), 1e-10);
    }

    #[test]
    fn large_arguments_match_stirling() {
        // Stirling with first correction term, relative accuracy for x=1e6.
        let x = 1.0e6f64;
        let stirling = (x - 0.5) * x.ln() - x + LN_SQRT_TWO_PI + 1.0 / (12.0 * x);
        assert_close(ln_gamma(x), stirling, 1e-12);
    }

    #[test]
    fn recurrence_holds() {
        // ln Γ(x+1) = ln Γ(x) + ln x across magnitudes.
        for &x in &[0.3, 0.9, 1.7, 13.5, 400.25, 9.9e5] {
            assert_close(ln_gamma(x + 1.0), ln_gamma(x) + f64::ln(x), 1e-12);
        }
    }

    #[test]
    fn ratio_matches_difference() {
        for &x in &[0.01, 0.5, 3.0, 1234.5] {
            for &n in &[0u32, 1, 5, 8, 9, 40, 1000] {
                let direct = ln_gamma(x + n as f64) - ln_gamma(x);
                assert_close(ln_gamma_ratio(x, n), direct, 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "ln_gamma requires")]
    fn rejects_non_positive() {
        ln_gamma(0.0);
    }
}
