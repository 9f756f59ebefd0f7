//! Roofline analysis of the LDA sampling steps — the paper's Table 1 and the
//! memory-bound argument of Section 3.1.
//!
//! The roofline model classifies a computation by its arithmetic intensity
//! `Flops/Byte = #floating-point ops / #bytes moved`. If that ratio is below
//! the machine's `peak FLOPS / peak bandwidth`, the computation is bound by
//! memory bandwidth. The paper evaluates the four steps of one
//! sparsity-aware CGS sampling (compute `S`, compute `Q`, sample from
//! `p1(k)`, sample from `p2(k)`) and finds an average intensity of 0.27 —
//! far below the 9.2 of its reference CPU — concluding LDA is memory bound.

/// Bytes per 32-bit integer, as in the paper's Table 1.
pub const INT_BYTES: f64 = 4.0;
/// Bytes per 32-bit float, as in the paper's Table 1.
pub const FLOAT_BYTES: f64 = 4.0;

/// One row of Table 1: a named sampling step with its operation counts as
/// functions of `K` (topics) or `K_d` (non-zeros in the document's θ row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingStep {
    /// `S = Σ p1(k)` over the `K_d` non-zero θ entries.
    ComputeS,
    /// `Q = Σ p2(k)` over all `K` topics.
    ComputeQ,
    /// Drawing from the sparse component `p1(k)`.
    SampleP1,
    /// Drawing from the dense component `p2(k)`.
    SampleP2,
}

impl SamplingStep {
    /// All four steps in Table 1 order.
    pub const ALL: [SamplingStep; 4] = [
        SamplingStep::ComputeS,
        SamplingStep::ComputeQ,
        SamplingStep::SampleP1,
        SamplingStep::SampleP2,
    ];

    /// The paper's formula string for this row, for table rendering.
    pub fn formula(self) -> &'static str {
        match self {
            SamplingStep::ComputeS => "4*Kd / (3*Int*Kd)",
            SamplingStep::ComputeQ => "2*K / (2*Int*K)",
            SamplingStep::SampleP1 => "6*Kd / ((3*Int + 2*Float)*Kd)",
            SamplingStep::SampleP2 => "3*K / ((2*Int + 2*Float)*K)",
        }
    }

    /// Display name matching Table 1.
    pub fn name(self) -> &'static str {
        match self {
            SamplingStep::ComputeS => "Compute S",
            SamplingStep::ComputeQ => "Compute Q",
            SamplingStep::SampleP1 => "Sampling from p1(k)",
            SamplingStep::SampleP2 => "Sampling from p2(k)",
        }
    }

    /// Floating-point operations for this step, given `K` and `K_d`.
    pub fn flops(self, k: f64, kd: f64) -> f64 {
        match self {
            SamplingStep::ComputeS => 4.0 * kd,
            SamplingStep::ComputeQ => 2.0 * k,
            SamplingStep::SampleP1 => 6.0 * kd,
            SamplingStep::SampleP2 => 3.0 * k,
        }
    }

    /// Bytes moved for this step, given `K` and `K_d`.
    pub fn bytes(self, k: f64, kd: f64) -> f64 {
        match self {
            SamplingStep::ComputeS => 3.0 * INT_BYTES * kd,
            SamplingStep::ComputeQ => 2.0 * INT_BYTES * k,
            SamplingStep::SampleP1 => (3.0 * INT_BYTES + 2.0 * FLOAT_BYTES) * kd,
            SamplingStep::SampleP2 => (2.0 * INT_BYTES + 2.0 * FLOAT_BYTES) * k,
        }
    }

    /// Arithmetic intensity of this step. `K` and `K_d` cancel, so the
    /// value is size-independent — exactly why Table 1 lists constants.
    pub fn flops_per_byte(self) -> f64 {
        // Any positive K / K_d gives the same ratio; use 1.
        self.flops(1.0, 1.0) / self.bytes(1.0, 1.0)
    }
}

/// Mean arithmetic intensity across the four steps (Table 1's "on average,
/// the Flops/Byte of LDA is 0.27").
pub fn average_intensity() -> f64 {
    let sum: f64 = SamplingStep::ALL.iter().map(|s| s.flops_per_byte()).sum();
    sum / SamplingStep::ALL.len() as f64
}

/// A machine roofline: peak compute vs peak memory bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Peak single-precision throughput in GFLOP/s.
    pub peak_gflops: f64,
    /// Peak memory bandwidth in GB/s.
    pub peak_gbps: f64,
}

impl Roofline {
    /// The paper's reference CPU: 470 GFLOPS, 51.2 GB/s (ratio 9.2).
    pub const REFERENCE_CPU: Roofline = Roofline {
        peak_gflops: 470.0,
        peak_gbps: 51.2,
    };

    /// The machine balance point: intensities below this are memory bound.
    pub fn balance(&self) -> f64 {
        self.peak_gflops / self.peak_gbps
    }

    /// Whether a computation with the given intensity is memory bound here.
    pub fn is_memory_bound(&self, flops_per_byte: f64) -> bool {
        flops_per_byte < self.balance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_match_paper() {
        // Table 1 reports 0.33, 0.25, 0.30, 0.19 (rounded to 2 decimals).
        let expect = [
            (SamplingStep::ComputeS, 0.33),
            (SamplingStep::ComputeQ, 0.25),
            (SamplingStep::SampleP1, 0.30),
            (SamplingStep::SampleP2, 0.19),
        ];
        for (step, want) in expect {
            let got = (step.flops_per_byte() * 100.0).round() / 100.0;
            assert!(
                (got - want).abs() < 1e-9,
                "{}: got {got}, paper says {want}",
                step.name()
            );
        }
    }

    #[test]
    fn average_matches_paper_027() {
        let avg = (average_intensity() * 100.0).round() / 100.0;
        assert!((avg - 0.27).abs() < 1e-9, "average {avg} != 0.27");
    }

    #[test]
    fn intensity_is_size_independent() {
        for step in SamplingStep::ALL {
            let a = step.flops(1024.0, 37.0) / step.bytes(1024.0, 37.0);
            let b = step.flops_per_byte();
            assert!((a - b).abs() < 1e-12, "{}", step.name());
        }
    }

    #[test]
    fn lda_is_memory_bound_on_reference_cpu() {
        let cpu = Roofline::REFERENCE_CPU;
        assert!((cpu.balance() - 9.179_687_5).abs() < 1e-6);
        for step in SamplingStep::ALL {
            assert!(cpu.is_memory_bound(step.flops_per_byte()));
        }
        assert!(cpu.is_memory_bound(average_intensity()));
    }
}
