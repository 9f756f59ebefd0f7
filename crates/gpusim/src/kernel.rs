//! Kernel launch and thread-block execution.
//!
//! A kernel is a closure run once per thread block (the paper's kernels are
//! written block-centrically: 32 warp-samplers per block sharing one word's
//! trees). Blocks execute concurrently on a host thread pool (or inline on
//! the calling thread when only one executor is in play), pulling block
//! ids from an atomic counter in ascending order — preserving the hardware
//! property the paper exploits for its long-tail mitigation: "Thread blocks
//! with smaller IDs are issued first."
//!
//! Each block gets a [`BlockCtx`] carrying its shared-memory arena and
//! traffic counters; retired blocks fold their counters into the kernel's
//! [`KernelCost`], which the roofline model converts to simulated time.

use crate::cost::{KernelCost, TrafficCounter};
use crate::platform::GpuSpec;
use crate::shared::SharedMem;
use culda_metrics::MetricsRegistry;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// Execution context handed to a kernel closure, one per thread block.
#[derive(Debug)]
pub struct BlockCtx {
    /// This block's id within the grid (`blockIdx.x`).
    pub block_id: u32,
    /// Total blocks in the grid (`gridDim.x`).
    pub grid_blocks: u32,
    /// The block's shared-memory arena (budget = the GPU's per-block limit).
    pub shared: SharedMem,
    traffic: TrafficCounter,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl BlockCtx {
    /// The metrics registry attached to the launching device, if any.
    ///
    /// Kernels that record hot-path metrics should resolve instrument
    /// handles from this *once per block*, before their token loop, and
    /// branch on `None` otherwise — the unobserved cost is a single branch.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_deref()
    }

    /// Counts `bytes` read from device DRAM.
    #[inline]
    pub fn dram_read(&mut self, bytes: usize) {
        self.traffic.dram_read += bytes as u64;
    }

    /// Counts `bytes` written to device DRAM.
    #[inline]
    pub fn dram_write(&mut self, bytes: usize) {
        self.traffic.dram_write += bytes as u64;
    }

    /// Counts `bytes` of on-chip (shared memory / L1) traffic.
    #[inline]
    pub fn shared_access(&mut self, bytes: usize) {
        self.traffic.shared += bytes as u64;
    }

    /// Counts `n` floating-point operations.
    #[inline]
    pub fn flop(&mut self, n: usize) {
        self.traffic.flops += n as u64;
    }

    /// Counts `n` device-memory atomic operations.
    #[inline]
    pub fn atomic(&mut self, n: usize) {
        self.traffic.atomics += n as u64;
    }

    /// This block's accumulated traffic so far (inspection/tests).
    pub fn traffic(&self) -> &TrafficCounter {
        &self.traffic
    }
}

/// Outcome of one kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    /// Kernel name (diagnostics, breakdown attribution).
    pub name: String,
    /// Aggregated resource usage across all blocks.
    pub cost: KernelCost,
    /// Modelled execution time on the launching device, seconds.
    pub sim_seconds: f64,
    /// Real host time spent simulating, seconds.
    pub wall_seconds: f64,
}

/// Number of host worker threads used to run blocks concurrently.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Executes `body` once per block on `workers` host threads and returns the
/// aggregate cost plus modelled time on `gpu`.
///
/// Blocks are dispatched in ascending id order. The closure must be `Sync`:
/// cross-block mutation goes through the atomic buffers in
/// [`crate::memory`], exactly as CUDA kernels mutate global memory.
///
/// `metrics`, when present, is handed to each block via
/// [`BlockCtx::metrics`] so kernels can record hot-path instruments;
/// recording never affects traffic counting or modelled time.
pub fn run_grid<F>(
    gpu: &GpuSpec,
    name: &str,
    num_blocks: u32,
    workers: usize,
    metrics: Option<&Arc<MetricsRegistry>>,
    body: F,
) -> LaunchReport
where
    F: Fn(&mut BlockCtx) + Sync,
{
    run_grid_with(
        gpu,
        name,
        num_blocks,
        workers,
        metrics,
        || (),
        |ctx, _| body(ctx),
    )
}

/// [`run_grid`] with host scratch: each executor calls `scratch` once per
/// launch and hands the value to every block it runs, so a kernel reuses
/// its host buffers across blocks instead of allocating them per block.
/// The scratch is host storage only: a block still claims its modelled
/// shared memory from [`BlockCtx::shared`], and must not let anything it
/// leaves in the scratch reach the next block's results or charges.
pub fn run_grid_with<S, I, F>(
    gpu: &GpuSpec,
    name: &str,
    num_blocks: u32,
    workers: usize,
    metrics: Option<&Arc<MetricsRegistry>>,
    scratch: I,
    body: F,
) -> LaunchReport
where
    I: Fn() -> S + Sync,
    F: Fn(&mut BlockCtx, &mut S) + Sync,
{
    assert!(num_blocks > 0, "launching an empty grid is a logic error");
    let started = std::time::Instant::now();
    let next = AtomicU32::new(0);
    let total = Mutex::new(KernelCost::default());
    let workers = workers.max(1).min(num_blocks as usize);
    let run_blocks = || {
        let mut local = KernelCost::default();
        let mut scratch = scratch();
        loop {
            let id = next.fetch_add(1, Ordering::Relaxed);
            if id >= num_blocks {
                break;
            }
            let mut ctx = BlockCtx {
                block_id: id,
                grid_blocks: num_blocks,
                shared: SharedMem::new(gpu.shared_mem_per_block),
                traffic: TrafficCounter::default(),
                metrics: metrics.cloned(),
            };
            body(&mut ctx, &mut scratch);
            local.merge(&ctx.traffic.into_cost());
        }
        total.lock().unwrap().merge(&local);
    };

    // The calling thread is one of the executors, so a single-worker grid
    // spawns nothing and runs every block inline in ascending order. The
    // scope re-raises a panic from any executor, the caller included.
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(run_blocks);
        }
        run_blocks();
    });

    let cost = *total.lock().unwrap();
    let sim_seconds = cost.sim_seconds(gpu);
    LaunchReport {
        name: name.to_string(),
        cost,
        sim_seconds,
        wall_seconds: started.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::AtomicU32Buf;
    use crate::platform::GpuSpec;

    fn gpu() -> GpuSpec {
        GpuSpec::titan_x_maxwell()
    }

    #[test]
    fn every_block_runs_exactly_once() {
        let hits = AtomicU32Buf::zeros(100);
        let report = run_grid(&gpu(), "touch", 100, 4, None, |ctx| {
            hits.fetch_add(ctx.block_id as usize, 1);
            ctx.dram_write(4);
        });
        assert!(hits.snapshot().iter().all(|&h| h == 1));
        assert_eq!(report.cost.blocks, 100);
        assert_eq!(report.cost.dram_write_bytes, 400);
    }

    #[test]
    fn traffic_aggregates_across_blocks() {
        let report = run_grid(&gpu(), "traffic", 10, 3, None, |ctx| {
            ctx.dram_read(100);
            ctx.shared_access(50);
            ctx.flop(7);
            ctx.atomic(2);
        });
        assert_eq!(report.cost.dram_read_bytes, 1000);
        assert_eq!(report.cost.shared_bytes, 500);
        assert_eq!(report.cost.flops, 70);
        assert_eq!(report.cost.atomics, 20);
        assert!(report.sim_seconds > 0.0);
        assert_eq!(report.name, "traffic");
    }

    #[test]
    fn shared_memory_budget_is_per_block() {
        // Each block may use the full 48 KiB; ten blocks do not conflict.
        run_grid(&gpu(), "shared", 10, 4, None, |ctx| {
            let buf: Vec<f32> = ctx.shared.alloc(12 * 1024 - 1); // ~48 KiB
            assert_eq!(buf.len(), 12 * 1024 - 1);
        });
    }

    #[test]
    fn concurrent_blocks_share_device_memory_atomically() {
        let counter = AtomicU32Buf::zeros(1);
        run_grid(&gpu(), "atomics", 64, 8, None, |ctx| {
            for _ in 0..100 {
                counter.fetch_add(0, 1);
            }
            ctx.atomic(100);
        });
        assert_eq!(counter.load(0), 6400);
    }

    #[test]
    fn block_ids_cover_grid() {
        let seen = AtomicU32Buf::zeros(33);
        run_grid(&gpu(), "ids", 33, 5, None, |ctx| {
            assert!(ctx.block_id < ctx.grid_blocks);
            assert_eq!(ctx.grid_blocks, 33);
            seen.fetch_add(ctx.block_id as usize, 1);
        });
        assert_eq!(seen.sum(), 33);
    }

    #[test]
    fn single_worker_runs_blocks_inline_in_ascending_order() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let report = run_grid(&gpu(), "inline", 7, 1, None, |ctx| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(ctx.block_id);
            ctx.dram_read(10);
        });
        assert_eq!(order.into_inner().unwrap(), (0..7).collect::<Vec<_>>());
        assert_eq!(report.cost.blocks, 7);
        assert_eq!(report.cost.dram_read_bytes, 70);
        // A one-block grid runs inline whatever the worker count.
        run_grid(&gpu(), "one", 1, 8, None, |_| {
            assert_eq!(std::thread::current().id(), caller);
        });
    }

    #[test]
    fn scratch_is_made_once_per_executor_and_reused_by_its_blocks() {
        let made = AtomicU32::new(0);
        let seen = AtomicU32Buf::zeros(40);
        for workers in [1usize, 3] {
            made.store(0, Ordering::Relaxed);
            let report = run_grid_with(
                &gpu(),
                "scratch",
                40,
                workers,
                None,
                || {
                    made.fetch_add(1, Ordering::Relaxed);
                    Vec::<u32>::new()
                },
                |ctx, blocks: &mut Vec<u32>| {
                    // Every block this executor ran before is still here.
                    assert!(blocks.iter().all(|&b| b < ctx.block_id));
                    blocks.push(ctx.block_id);
                    seen.fetch_add(ctx.block_id as usize, 1);
                    ctx.flop(1);
                },
            );
            assert_eq!(made.load(Ordering::Relaxed) as usize, workers);
            assert_eq!(report.cost.flops, 40);
        }
        assert!(seen.snapshot().iter().all(|&n| n == 2));
    }

    #[test]
    #[should_panic(expected = "block 3 failed")]
    fn inline_block_panic_reaches_the_caller() {
        run_grid(&gpu(), "boom", 5, 1, None, |ctx| {
            if ctx.block_id == 3 {
                panic!("block 3 failed");
            }
        });
    }

    #[test]
    #[should_panic]
    fn threaded_block_panic_reaches_the_caller() {
        run_grid(&gpu(), "boom", 5, 2, None, |ctx| {
            if ctx.block_id == 3 {
                panic!("block 3 failed");
            }
        });
    }

    #[test]
    #[should_panic(expected = "empty grid")]
    fn empty_grid_rejected() {
        run_grid(&gpu(), "none", 0, 1, None, |_| {});
    }
}
