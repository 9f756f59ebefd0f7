//! Deterministic, splittable pseudo-random number generators.
//!
//! The GPU kernels need one independent, reproducible random stream *per
//! sampler* (per warp), exactly like CUDA's `curand` gives each thread its
//! own sequence from a seed + subsequence id. We implement SplitMix64 (for
//! seeding) and xoshiro256** (for the streams) from scratch so that:
//!
//! * every sampler's stream is a pure function of `(seed, stream_id)` —
//!   simulated runs are bit-reproducible regardless of how thread blocks are
//!   scheduled onto host threads, and a multi-GPU run can reproduce a
//!   single-GPU run by construction;
//! * the generator is a handful of ALU ops, matching the paper's
//!   "extreme light-weight" requirement for GPU-side sampling.

/// SplitMix64: a tiny, high-quality 64-bit mixer, used to expand a seed into
/// xoshiro state and to derive per-stream seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256**: the per-sampler stream generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a stream from a global seed and a stream id. Different
    /// `stream_id`s give statistically independent sequences (the ids are
    /// mixed through SplitMix64 before becoming state).
    ///
    /// The sampling kernels seed one stream per token, so this is marked
    /// `#[inline]`: its all-zero guard loop otherwise keeps it out of line
    /// in other crates.
    #[inline]
    pub fn from_seed_stream(seed: u64, stream_id: u64) -> Self {
        let mut mix = SplitMix64::new(seed ^ stream_id.wrapping_mul(0xA076_1D64_78BD_642F));
        // Guard against the all-zero state, which is a fixed point.
        let mut s = [0u64; 4];
        loop {
            for slot in &mut s {
                *slot = mix.next_u64();
            }
            if s.iter().any(|&w| w != 0) {
                break;
            }
        }
        Self { s }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`, using the top 53 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`, using the top 24 bits — what the GPU
    /// kernels draw, matching the paper's 32-bit float arithmetic.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Unbiased uniform integer in `[0, bound)` via Lemire's method.
    #[inline]
    pub fn next_below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "bound must be positive");
        let mut x = self.next_u64() as u32 as u64;
        let mut m = x.wrapping_mul(bound as u64);
        let mut lo = m as u32;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64() as u32 as u64;
                m = x.wrapping_mul(bound as u64);
                lo = m as u32;
            }
        }
        (m >> 32) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain C code.
        let mut g = SplitMix64::new(0);
        // First output for seed 0 is the mix of 0x9E3779B97F4A7C15.
        let first = g.next_u64();
        assert_eq!(first, 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let mut a1 = Xoshiro256::from_seed_stream(42, 7);
        let mut a2 = Xoshiro256::from_seed_stream(42, 7);
        let mut b = Xoshiro256::from_seed_stream(42, 8);
        let s1: Vec<u64> = (0..16).map(|_| a1.next_u64()).collect();
        let s2: Vec<u64> = (0..16).map(|_| a2.next_u64()).collect();
        let s3: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(s1, s2, "same (seed, stream) must reproduce");
        assert_ne!(s1, s3, "different streams must differ");
    }

    #[test]
    fn f64_in_unit_interval_with_plausible_mean() {
        let mut g = Xoshiro256::from_seed_stream(1, 0);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = g.next_f64();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn f32_in_unit_interval() {
        let mut g = Xoshiro256::from_seed_stream(9, 3);
        for _ in 0..10_000 {
            let u = g.next_f32();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn next_below_is_in_range_and_roughly_uniform() {
        let mut g = Xoshiro256::from_seed_stream(5, 5);
        let bound = 10u32;
        let mut hist = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            let v = g.next_below(bound);
            assert!(v < bound);
            hist[v as usize] += 1;
        }
        let expect = n as f64 / bound as f64;
        for (i, &c) in hist.iter().enumerate() {
            let rel = (c as f64 - expect).abs() / expect;
            assert!(rel < 0.05, "bucket {i} off by {rel}");
        }
    }

    #[test]
    fn next_below_bound_one_is_zero() {
        let mut g = Xoshiro256::from_seed_stream(0, 0);
        for _ in 0..100 {
            assert_eq!(g.next_below(1), 0);
        }
    }
}
