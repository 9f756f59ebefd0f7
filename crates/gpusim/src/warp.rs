//! Warp-level collectives.
//!
//! CuLDA's unit of work is the warp: "CuLDA_CGS uses one warp to process
//! one LDA sampling at a time. We refer a warp as a sampler" (Section
//! 6.1.1), and warp lanes cooperate through register shuffles ("faster than
//! shared memory"). These functions are the lane-exact equivalents of the
//! CUDA warp primitives the kernels would use: butterfly reductions,
//! Hillis–Steele inclusive scans, ballots and broadcasts over a 32-lane
//! vector.
//!
//! They operate on plain slices of lane values; semantics (including the
//! f32 reduction *order*, which matters for bit-reproducibility) follow the
//! `__shfl_xor`-based butterfly exactly, so a future port to real CUDA
//! produces identical results.

/// Lanes per warp on NVIDIA hardware (the paper notes AMD uses 64).
pub const WARP_SIZE: usize = 32;

fn assert_warp_width(n: usize) {
    assert!(
        n > 0 && n <= WARP_SIZE,
        "warp collectives take 1..={WARP_SIZE} lanes, got {n}"
    );
}

/// Butterfly (`__shfl_xor`) sum reduction; every lane of real hardware ends
/// with the total. Returns that total.
///
/// The summation order replicates the xor-butterfly: offsets 16, 8, 4, 2, 1
/// over a 32-slot vector (missing lanes contribute the additive identity).
pub fn reduce_sum_f32(lanes: &[f32]) -> f32 {
    assert_warp_width(lanes.len());
    let mut v = [0.0f32; WARP_SIZE];
    v[..lanes.len()].copy_from_slice(lanes);
    let mut offset = WARP_SIZE / 2;
    while offset > 0 {
        // In the real butterfly every lane reads its xor-partner
        // simultaneously; emulate with a snapshot per step.
        let snapshot = v;
        for (i, slot) in v.iter_mut().enumerate() {
            *slot = snapshot[i] + snapshot[i ^ offset];
        }
        offset /= 2;
    }
    v[0]
}

/// Butterfly sum over `u32` lanes (token counting, histogram merges).
pub fn reduce_sum_u32(lanes: &[u32]) -> u32 {
    assert_warp_width(lanes.len());
    let mut v = [0u32; WARP_SIZE];
    v[..lanes.len()].copy_from_slice(lanes);
    let mut offset = WARP_SIZE / 2;
    while offset > 0 {
        let snapshot = v;
        for (i, slot) in v.iter_mut().enumerate() {
            *slot = snapshot[i].wrapping_add(snapshot[i ^ offset]);
        }
        offset /= 2;
    }
    v[0]
}

/// Butterfly max reduction.
pub fn reduce_max_f32(lanes: &[f32]) -> f32 {
    assert_warp_width(lanes.len());
    lanes.iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

/// Hillis–Steele inclusive prefix scan (`__shfl_up` based) in place;
/// returns the total (the last lane's value).
///
/// This is the scan the tree-sampling kernel uses to turn a tile of 32
/// probabilities into prefix sums (Figure 5) and the θ-update kernel uses
/// for dense→CSR compaction.
pub fn inclusive_scan_f32(lanes: &mut [f32]) -> f32 {
    assert_warp_width(lanes.len());
    let n = lanes.len();
    let mut offset = 1;
    while offset < n {
        // Lane i adds the value `offset` lanes below, simultaneously.
        let snapshot: Vec<f32> = lanes.to_vec();
        for i in offset..n {
            lanes[i] = snapshot[i] + snapshot[i - offset];
        }
        offset *= 2;
    }
    lanes[n - 1]
}

/// Inclusive prefix scan over `u32` lanes; returns the total.
pub fn inclusive_scan_u32(lanes: &mut [u32]) -> u32 {
    assert_warp_width(lanes.len());
    let n = lanes.len();
    let mut offset = 1;
    while offset < n {
        let snapshot: Vec<u32> = lanes.to_vec();
        for i in offset..n {
            lanes[i] = snapshot[i].wrapping_add(snapshot[i - offset]);
        }
        offset *= 2;
    }
    lanes[n - 1]
}

/// `__ballot_sync`: one bit per lane.
pub fn ballot(lanes: &[bool]) -> u32 {
    assert_warp_width(lanes.len());
    lanes
        .iter()
        .enumerate()
        .fold(0u32, |acc, (i, &b)| acc | ((b as u32) << i))
}

/// Index of the first set lane in a ballot mask (`__ffs − 1`), or `None`.
pub fn first_set_lane(mask: u32) -> Option<usize> {
    if mask == 0 {
        None
    } else {
        Some(mask.trailing_zeros() as usize)
    }
}

/// `__shfl_sync(…, src_lane)`: broadcast one lane's value to all.
pub fn broadcast<T: Copy>(lanes: &[T], src_lane: usize) -> T {
    assert_warp_width(lanes.len());
    lanes[src_lane]
}

/// `__shfl_xor_sync(0xffffffff, v, mask)`: the butterfly exchange. Every
/// lane `i` receives lane `i ^ mask`'s value, all simultaneously (emulated
/// with a snapshot). This is the primitive Steele & Tristan's
/// butterfly-patterned partial sums are built from: `log₂ 32` xor steps
/// route each of 32 interleaved distributions through every lane.
///
/// A lane whose xor-partner is beyond the active width keeps its own value
/// (matching `__shfl_xor_sync` with an undersized active mask, where
/// out-of-range sources return the caller's own register).
pub fn shfl_xor<T: Copy>(lanes: &mut [T], mask: usize) {
    assert_warp_width(lanes.len());
    assert!(mask < WARP_SIZE, "xor mask must be below {WARP_SIZE}");
    let n = lanes.len();
    let snapshot: Vec<T> = lanes.to_vec();
    for (i, slot) in lanes.iter_mut().enumerate() {
        let partner = i ^ mask;
        if partner < n {
            *slot = snapshot[partner];
        }
    }
}

/// The "find minimal k with prefix\[k\] > u" search step of the tree-based
/// sampler, done warp-cooperatively: each lane tests one child of a 32-ary
/// node and a ballot picks the first hit. Returns the child index.
///
/// `prefix` holds inclusive prefix sums of the node's children; `u` must be
/// strictly less than the last prefix (the node total).
pub fn warp_select_child(prefix: &[f32], u: f32) -> usize {
    assert_warp_width(prefix.len());
    let hits: Vec<bool> = prefix.iter().map(|&p| u < p).collect();
    let mask = ballot(&hits);
    first_set_lane(mask).unwrap_or_else(|| {
        panic!(
            "u = {u} not under node total {}",
            prefix.last().copied().unwrap_or(0.0)
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_sum_matches_serial() {
        let lanes: Vec<f32> = (0..32).map(|i| i as f32).collect();
        assert_eq!(reduce_sum_f32(&lanes), 496.0);
        let partial: Vec<f32> = (0..7).map(|i| i as f32 + 1.0).collect();
        assert_eq!(reduce_sum_f32(&partial), 28.0);
        assert_eq!(reduce_sum_u32(&[5, 6, 7]), 18);
    }

    #[test]
    fn reduce_is_butterfly_deterministic() {
        // The butterfly order is fixed; repeated runs bit-match.
        let lanes: Vec<f32> = (0..32).map(|i| 1.0 / (i as f32 + 1.0)).collect();
        let a = reduce_sum_f32(&lanes);
        let b = reduce_sum_f32(&lanes);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn scan_matches_serial_prefix() {
        let mut lanes: Vec<f32> = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let total = inclusive_scan_f32(&mut lanes);
        assert_eq!(lanes, vec![1.0, 3.0, 6.0, 10.0, 15.0]);
        assert_eq!(total, 15.0);

        let mut u: Vec<u32> = (1..=32).collect();
        let t = inclusive_scan_u32(&mut u);
        assert_eq!(t, 528);
        assert_eq!(u[0], 1);
        assert_eq!(u[31], 528);
        for w in u.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn scan_single_lane() {
        let mut lanes = vec![7.0f32];
        assert_eq!(inclusive_scan_f32(&mut lanes), 7.0);
    }

    #[test]
    fn ballot_and_ffs() {
        let mut lanes = [false; 32];
        lanes[3] = true;
        lanes[17] = true;
        let mask = ballot(&lanes);
        assert_eq!(mask, (1 << 3) | (1 << 17));
        assert_eq!(first_set_lane(mask), Some(3));
        assert_eq!(first_set_lane(0), None);
    }

    #[test]
    fn broadcast_picks_lane() {
        let lanes: Vec<u32> = (0..32).map(|i| i * 10).collect();
        assert_eq!(broadcast(&lanes, 5), 50);
    }

    #[test]
    fn select_child_finds_first_exceeding_prefix() {
        let prefix: Vec<f32> = (1..=32).map(|i| i as f32 * 0.5).collect();
        assert_eq!(warp_select_child(&prefix, 0.0), 0);
        assert_eq!(warp_select_child(&prefix, 0.49), 0);
        assert_eq!(warp_select_child(&prefix, 0.5), 1);
        assert_eq!(warp_select_child(&prefix, 15.99), 31);
    }

    #[test]
    fn reduce_max() {
        assert_eq!(reduce_max_f32(&[1.0, -2.0, 7.5, 3.0]), 7.5);
    }

    #[test]
    #[should_panic(expected = "warp collectives")]
    fn oversized_warp_rejected() {
        let lanes = vec![0.0f32; 33];
        reduce_sum_f32(&lanes);
    }

    #[test]
    fn shfl_xor_routes_partners_and_round_trips() {
        let mut lanes: Vec<u32> = (0..32).collect();
        shfl_xor(&mut lanes, 5);
        for (i, &v) in lanes.iter().enumerate() {
            assert_eq!(v as usize, i ^ 5);
        }
        // An xor exchange is an involution: applying it twice restores.
        shfl_xor(&mut lanes, 5);
        assert_eq!(lanes, (0..32).collect::<Vec<u32>>());
    }

    #[test]
    fn shfl_xor_out_of_range_partner_keeps_own_value() {
        // 3 active lanes, mask 2: lane 2's partner (lane 0) exists, but
        // lane 1's partner is lane 3 — beyond the active width, so lane 1
        // keeps its own register, like real __shfl_xor_sync.
        let mut lanes = vec![10u32, 11, 12];
        shfl_xor(&mut lanes, 2);
        assert_eq!(lanes, vec![12, 11, 10]);
    }

    #[test]
    #[should_panic(expected = "xor mask")]
    fn shfl_xor_rejects_oversized_mask() {
        let mut lanes = vec![0u32; 32];
        shfl_xor(&mut lanes, 32);
    }

    /// Tiny deterministic xorshift for property tests (no external RNG in
    /// this crate).
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn scan_matches_serial_reference_across_randomized_widths() {
        // Integer-valued f32 lanes: the Hillis–Steele order reassociates
        // the additions, which is exact for integers well under 2^24, so
        // the parity against the serial prefix sum is bit-for-bit.
        let mut rng = 0x1234_5678_9abc_def0u64;
        for trial in 0..200 {
            let n = (xorshift(&mut rng) % WARP_SIZE as u64) as usize + 1;
            let vals: Vec<f32> = (0..n).map(|_| (xorshift(&mut rng) % 1000) as f32).collect();
            let mut lanes = vals.clone();
            let total = inclusive_scan_f32(&mut lanes);
            let mut acc = 0.0f32;
            for (i, &v) in vals.iter().enumerate() {
                acc += v;
                assert_eq!(
                    lanes[i].to_bits(),
                    acc.to_bits(),
                    "trial {trial}: scan lane {i} of {n} diverged from serial"
                );
            }
            assert_eq!(total.to_bits(), acc.to_bits());

            let u_vals: Vec<u32> = (0..n).map(|_| xorshift(&mut rng) as u32).collect();
            let mut u_lanes = u_vals.clone();
            let u_total = inclusive_scan_u32(&mut u_lanes);
            let mut u_acc = 0u32;
            for (i, &v) in u_vals.iter().enumerate() {
                u_acc = u_acc.wrapping_add(v);
                assert_eq!(u_lanes[i], u_acc, "trial {trial}: u32 scan lane {i}");
            }
            assert_eq!(u_total, u_acc);
        }
    }

    #[test]
    fn reduce_matches_serial_reference_across_randomized_widths() {
        let mut rng = 0xfeed_face_cafe_beefu64;
        for trial in 0..200 {
            let n = (xorshift(&mut rng) % WARP_SIZE as u64) as usize + 1;
            let vals: Vec<f32> = (0..n).map(|_| (xorshift(&mut rng) % 1000) as f32).collect();
            // Integer-valued f32: the xor-butterfly reassociation is exact.
            let serial: f32 = vals.iter().sum();
            assert_eq!(
                reduce_sum_f32(&vals).to_bits(),
                serial.to_bits(),
                "trial {trial}: reduce over {n} lanes diverged from serial"
            );
            let u_vals: Vec<u32> = (0..n).map(|_| xorshift(&mut rng) as u32).collect();
            let u_serial = u_vals.iter().fold(0u32, |a, &v| a.wrapping_add(v));
            assert_eq!(reduce_sum_u32(&u_vals), u_serial);
        }
    }

    #[test]
    fn reduce_random_floats_stay_within_reassociation_tolerance() {
        // Non-integer lanes reassociate differently than the serial sum;
        // the result must still agree to within a few ulps of slack.
        let mut rng = 0x0dd_ba11u64;
        for _ in 0..100 {
            let n = (xorshift(&mut rng) % WARP_SIZE as u64) as usize + 1;
            let vals: Vec<f32> = (0..n)
                .map(|_| (xorshift(&mut rng) % 1_000_000) as f32 / 997.0)
                .collect();
            let serial: f32 = vals.iter().sum();
            let butterfly = reduce_sum_f32(&vals);
            assert!(
                (butterfly - serial).abs() <= serial.abs() * 1e-5,
                "butterfly {butterfly} vs serial {serial}"
            );
        }
    }

    #[test]
    fn select_child_matches_linear_search_on_ties_and_zero_weights() {
        // Regression pin: `warp_select_child` must implement exactly the
        // `ptree::linear_search` rule — first index with `u < prefix[i]` —
        // including on ties (zero-weight children repeat the previous
        // prefix value and can never be selected). The sampler crate pins
        // the cross-crate agreement against `linear_search` itself; this
        // test pins the semantics locally with the same reference rule.
        let weights = [0.0f32, 2.0, 0.0, 0.0, 3.0, 0.0, 1.0];
        let mut prefix = [0.0f32; 7];
        let mut acc = 0.0f32;
        for (p, &w) in prefix.iter_mut().zip(&weights) {
            acc += w;
            *p = acc;
        }
        let linear = |u: f32| prefix.iter().position(|&p| u < p).unwrap();
        for &u in &[0.0, 1.0, 1.999, 2.0, 4.5, 5.0, 5.999] {
            let got = warp_select_child(&prefix, u);
            assert_eq!(got, linear(u), "u = {u}");
            assert!(weights[got] > 0.0, "u = {u} landed on a zero weight");
        }
        // Randomized cross-check over many tie patterns.
        let mut rng = 0x5eed_5eedu64;
        for _ in 0..100 {
            let n = (xorshift(&mut rng) % WARP_SIZE as u64) as usize + 1;
            let w: Vec<f32> = (0..n)
                .map(|_| {
                    if xorshift(&mut rng).is_multiple_of(3) {
                        0.0
                    } else {
                        (xorshift(&mut rng) % 100 + 1) as f32
                    }
                })
                .collect();
            let mut pre = Vec::with_capacity(n);
            let mut acc = 0.0f32;
            for &v in &w {
                acc += v;
                pre.push(acc);
            }
            if acc == 0.0 {
                continue; // all-zero node: nothing to draw
            }
            let u = (xorshift(&mut rng) % 1000) as f32 / 1000.0 * acc * 0.999;
            let expect = pre.iter().position(|&p| u < p).unwrap();
            assert_eq!(warp_select_child(&pre, u), expect);
        }
    }
}
