//! # culda-gpusim
//!
//! A software SIMT GPU substrate for the CuLDA_CGS reproduction.
//!
//! There is no CUDA in this environment, so the paper's execution platform
//! is substituted (see DESIGN.md §1) by a simulator that preserves what the
//! algorithms depend on:
//!
//! * **the programming model** — grids of thread blocks ([`kernel`]),
//!   the 32-lane warp width ([`warp`]), launch descriptions ([`launcher`]),
//!   per-block shared memory with a hard 48 KiB budget ([`shared`]),
//!   device-memory atomics ([`memory`]), streams that overlap transfers and
//!   compute ([`stream`]);
//!   an L1 data-cache model with selective routing ([`cache`]);
//! * **the performance model** — a roofline over counted traffic
//!   ([`cost`]), per-device simulated clocks ([`clock`], [`device`]) and
//!   interconnect costs ([`link`]);
//! * **the platforms** — Table 2's Maxwell/Pascal/Volta machines
//!   ([`platform`]). A GPU's memory capacity is a number in its
//!   [`GpuSpec`] that the trainer's planner sizes chunks against; the
//!   simulator keeps no allocation ledger.
//!
//! Thread blocks really execute concurrently on host threads and really
//! share memory through atomics, so the concurrency behaviour of the
//! kernels is genuine; only *time* is modelled.
//!
//! ```
//! use culda_gpusim::{AtomicU32Buf, Device, GpuSpec, KernelSpec};
//!
//! // A simulated V100 running a histogram kernel over 64 blocks.
//! let dev = Device::new(0, GpuSpec::v100_volta());
//! let hist = AtomicU32Buf::zeros(16);
//! let report = dev
//!     .try_launch_spec(KernelSpec::new("histogram", 64), |ctx| {
//!         hist.fetch_add(ctx.block_id as usize % 16, 1);
//!         ctx.dram_read(4096);
//!         ctx.atomic(1);
//!     })
//!     .expect("no fault plan is attached");
//! assert_eq!(hist.sum(), 64);
//! assert!(report.sim_seconds > 0.0);       // modelled time
//! assert_eq!(dev.now(), report.sim_seconds); // the device clock advanced
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod clock;
pub mod cost;
pub mod device;
pub mod error;
pub mod fault;
pub mod kernel;
pub mod launcher;
pub mod link;
pub mod memory;
pub mod platform;
pub mod profile;
pub mod shared;
pub mod stream;
pub mod warp;

pub use cache::{AscendingCache, CacheConfig, CacheSim};
pub use clock::SimClock;
pub use cost::{coalesced_bytes, KernelCost, COALESCE_SEGMENT_BYTES};
pub use device::Device;
pub use error::SimFault;
pub use fault::{FaultKind, FaultPlan, FaultSpec};
pub use kernel::{BlockCtx, LaunchReport};
pub use launcher::{KernelSpec, LaunchPhase};
pub use link::Link;
pub use memory::{distinct_segments, AtomicU16Buf, AtomicU32Buf};
pub use platform::{GpuSpec, Platform};
pub use profile::{KernelSummary, LaunchRecord, ProfileLog};
pub use shared::SharedMem;
pub use stream::{pipelined_seconds, serial_seconds, EnginePipeline, Stage, StageIntervals};

// Observability sinks devices accept (re-exported from culda-metrics so
// substrate users need not name that crate).
pub use culda_metrics::{MetricsRegistry, TraceSink};
