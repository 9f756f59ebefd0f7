//! Roofline cost model: turning counted traffic into simulated time.
//!
//! Section 3 of the paper establishes that LDA is bound by memory
//! bandwidth, which is exactly what a roofline model captures. Each kernel
//! execution accumulates a [`KernelCost`] (bytes moved at each level of the
//! hierarchy, flops, atomics), and [`KernelCost::sim_seconds`] converts it
//! into time on a given GPU: the maximum of the DRAM-, shared-memory-,
//! compute- and atomic-limited times, plus launch overhead, inflated when
//! too few blocks are in flight to saturate the device.

use crate::platform::GpuSpec;

/// Bytes one fully-coalesced warp access moves: 32 lanes × 4 bytes, the
/// 128-byte cache-line segment a single memory transaction serves when all
/// lanes of a warp touch consecutive addresses.
pub const COALESCE_SEGMENT_BYTES: usize = 128;

/// DRAM bytes for `steps` fully-coalesced warp-wide accesses: each step is
/// one [`COALESCE_SEGMENT_BYTES`] transaction regardless of how many of the
/// 32 lanes participate.
pub fn coalesced_bytes(steps: usize) -> usize {
    steps * COALESCE_SEGMENT_BYTES
}

/// Accumulated resource usage of one kernel execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCost {
    /// Bytes read from device DRAM.
    pub dram_read_bytes: u64,
    /// Bytes written to device DRAM.
    pub dram_write_bytes: u64,
    /// Bytes served by shared memory / L1 (on-chip).
    pub shared_bytes: u64,
    /// Floating-point operations.
    pub flops: u64,
    /// Device-memory atomic operations.
    pub atomics: u64,
    /// Thread blocks executed.
    pub blocks: u64,
}

impl KernelCost {
    /// Elementwise sum of two costs.
    pub fn merge(&mut self, other: &KernelCost) {
        self.dram_read_bytes += other.dram_read_bytes;
        self.dram_write_bytes += other.dram_write_bytes;
        self.shared_bytes += other.shared_bytes;
        self.flops += other.flops;
        self.atomics += other.atomics;
        self.blocks += other.blocks;
    }

    /// Total DRAM traffic.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// Arithmetic intensity seen by the DRAM roofline.
    pub fn flops_per_byte(&self) -> f64 {
        if self.dram_bytes() == 0 {
            f64::INFINITY
        } else {
            self.flops as f64 / self.dram_bytes() as f64
        }
    }

    /// Simulated execution time of this kernel on `gpu`.
    ///
    /// The model:
    /// * DRAM time = bytes / (peak BW × efficiency × occupancy), where
    ///   occupancy = min(1, blocks / (2 × SMs)) — a device needs roughly two
    ///   blocks per SM in flight to cover DRAM latency;
    /// * shared-memory time = shared bytes / (per-SM shared BW × SMs) —
    ///   on-chip bandwidth scales with SM count, which is how Volta's 80 SMs
    ///   beat the raw 336→900 GB/s DRAM ratio in the paper (4.03× vs 2.7×);
    /// * compute time = flops / peak GFLOPS;
    /// * atomic time = atomics / device atomic throughput;
    /// * total = launch overhead + max of the four (they overlap on a GPU).
    pub fn sim_seconds(&self, gpu: &GpuSpec) -> f64 {
        let occupancy = if self.blocks == 0 {
            1.0
        } else {
            (self.blocks as f64 / (2.0 * gpu.sm_count as f64)).min(1.0)
        };
        let dram_bw = gpu.mem_bandwidth_gbps * 1e9 * gpu.dram_efficiency * occupancy.max(0.05);
        let dram_t = self.dram_bytes() as f64 / dram_bw;
        let shared_bw = gpu.shared_bw_per_sm_gbps * 1e9 * gpu.sm_count as f64;
        let shared_t = self.shared_bytes as f64 / shared_bw;
        let flop_t = self.flops as f64 / (gpu.peak_gflops * 1e9);
        let atomic_t = self.atomics as f64 / (gpu.atomic_gops * 1e9);
        gpu.kernel_launch_us * 1e-6 + dram_t.max(shared_t).max(flop_t).max(atomic_t)
    }
}

/// Per-block traffic counters, folded into a [`KernelCost`] when the block
/// retires. Kernels increment these through `BlockCtx` helpers.
#[derive(Debug, Default, Clone, Copy)]
pub struct TrafficCounter {
    /// Bytes read from DRAM by this block.
    pub dram_read: u64,
    /// Bytes written to DRAM by this block.
    pub dram_write: u64,
    /// On-chip (shared/L1) bytes touched by this block.
    pub shared: u64,
    /// Floating point operations executed by this block.
    pub flops: u64,
    /// Device atomics issued by this block.
    pub atomics: u64,
}

impl TrafficCounter {
    /// Converts to a one-block [`KernelCost`].
    pub fn into_cost(self) -> KernelCost {
        KernelCost {
            dram_read_bytes: self.dram_read,
            dram_write_bytes: self.dram_write,
            shared_bytes: self.shared,
            flops: self.flops,
            atomics: self.atomics,
            blocks: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::GpuSpec;

    fn gpu() -> GpuSpec {
        GpuSpec {
            dram_efficiency: 1.0,
            kernel_launch_us: 0.0,
            ..GpuSpec::titan_x_maxwell()
        }
    }

    #[test]
    fn memory_bound_kernel_times_by_bandwidth() {
        let g = gpu();
        let cost = KernelCost {
            dram_read_bytes: 336_000_000_000, // exactly 1 s at 336 GB/s
            blocks: 10_000,                   // fully occupied
            ..Default::default()
        };
        let t = cost.sim_seconds(&g);
        assert!((t - 1.0).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn compute_bound_kernel_times_by_flops() {
        let g = gpu();
        let cost = KernelCost {
            flops: (g.peak_gflops * 1e9) as u64, // 1 s of flops
            dram_read_bytes: 1,
            blocks: 10_000,
            ..Default::default()
        };
        assert!((cost.sim_seconds(&g) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn low_occupancy_inflates_time() {
        let g = gpu();
        let mk = |blocks| KernelCost {
            dram_read_bytes: 336_000_000,
            blocks,
            ..Default::default()
        };
        let t_full = mk(48).sim_seconds(&g); // 2×24 SMs = saturated
        let t_half = mk(24).sim_seconds(&g);
        assert!((t_half / t_full - 2.0).abs() < 0.01, "{t_half} vs {t_full}");
    }

    #[test]
    fn launch_overhead_is_floor() {
        let g = GpuSpec::titan_x_maxwell();
        let t = KernelCost::default().sim_seconds(&g);
        assert!((t - 8e-6).abs() < 1e-12);
    }

    #[test]
    fn volta_beats_titan_superlinearly_on_shared_heavy_kernels() {
        // A kernel with significant shared-memory traffic should speed up by
        // more than the DRAM bandwidth ratio when moving Titan → Volta,
        // reproducing the paper's 4.03× (> 900/336 = 2.68×) observation.
        let titan = GpuSpec::titan_x_maxwell();
        let volta = GpuSpec::v100_volta();
        let cost = KernelCost {
            dram_read_bytes: 100_000_000_000,
            shared_bytes: 400_000_000_000,
            blocks: 100_000,
            ..Default::default()
        };
        let speedup = cost.sim_seconds(&titan) / cost.sim_seconds(&volta);
        let bw_ratio = volta.mem_bandwidth_gbps / titan.mem_bandwidth_gbps;
        assert!(
            speedup > bw_ratio,
            "speedup {speedup} should exceed bandwidth ratio {bw_ratio}"
        );
    }

    #[test]
    fn merge_accumulates() {
        let mut a = KernelCost {
            dram_read_bytes: 1,
            flops: 2,
            blocks: 1,
            ..Default::default()
        };
        a.merge(&KernelCost {
            dram_read_bytes: 10,
            atomics: 5,
            blocks: 3,
            ..Default::default()
        });
        assert_eq!(a.dram_read_bytes, 11);
        assert_eq!(a.atomics, 5);
        assert_eq!(a.blocks, 4);
        assert_eq!(a.flops, 2);
    }

    #[test]
    fn intensity_of_empty_kernel_is_infinite() {
        assert!(KernelCost::default().flops_per_byte().is_infinite());
    }

    #[test]
    fn coalesced_accounting() {
        // A full warp reading 32 consecutive f32s: one 128-byte segment.
        assert_eq!(coalesced_bytes(1), 128);
        assert_eq!(coalesced_bytes(4), 512);
    }
}
