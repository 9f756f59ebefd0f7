//! The multi-GPU system: devices sharing a host and an interconnect.
//!
//! Matches Figure 2's master–slave organization: the CPU orchestrates `G`
//! GPUs over PCIe. The cluster tracks per-device clocks and models host
//! copies (which occupy only the device — the host is never the bottleneck
//! for a single transfer at a time, per the paper's pipelining discussion).
//!
//! Devices use interior mutability for their clocks, so the whole cluster
//! can be driven through shared references from one host thread per device
//! — the execution shape of Algorithm 1, where every GPU runs its
//! iteration body independently and the host joins them at the ϕ
//! synchronisation point.

use crate::device::Device;
use crate::link::Link;
use crate::platform::Platform;

/// A host plus `G` identical GPUs.
#[derive(Debug)]
pub struct GpuCluster {
    /// The devices, `GPU 0 … GPU G-1`.
    pub devices: Vec<Device>,
    /// Device↔device link (PCIe peer-to-peer on the Table 2 machines).
    pub peer_link: Link,
    /// Host↔device link.
    pub host_link: Link,
}

impl GpuCluster {
    /// Builds the cluster described by a [`Platform`].
    pub fn from_platform(platform: &Platform) -> Self {
        let devices = (0..platform.num_gpus)
            .map(|i| Device::new(i, platform.gpu.clone()))
            .collect();
        let link = Link {
            bandwidth_gbps: platform.pcie_gbps,
            latency_us: platform.pcie_latency_us,
        };
        Self {
            devices,
            peer_link: link,
            host_link: link,
        }
    }

    /// Overrides the per-device host thread count used to execute blocks
    /// (the `--workers` knob).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.devices = self
            .devices
            .into_iter()
            .map(|d| d.with_workers(workers))
            .collect();
        self
    }

    /// Number of GPUs.
    pub fn num_gpus(&self) -> usize {
        self.devices.len()
    }

    /// Barrier: every device's clock advances to the latest. Returns the
    /// barrier time. This is the per-iteration join of Algorithm 1 ("after
    /// all GPUs finish their execution").
    pub fn barrier(&self) -> f64 {
        let t = self.system_time();
        for d in &self.devices {
            d.advance_to(t);
        }
        t
    }

    /// Host→device copy of `bytes`: occupies only the device.
    pub fn host_to_device(&self, dst: usize, bytes: u64) -> f64 {
        self.devices[dst].transfer(bytes, &self.host_link)
    }

    /// Latest clock among devices (current system time).
    pub fn system_time(&self) -> f64 {
        self.devices.iter().map(Device::now).fold(0.0f64, f64::max)
    }

    /// Resets all device clocks.
    pub fn reset_clocks(&self) {
        for d in &self.devices {
            d.reset_clock();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_platform_gpu_count() {
        let c = GpuCluster::from_platform(&Platform::pascal());
        assert_eq!(c.num_gpus(), 4);
        let c1 = GpuCluster::from_platform(&Platform::pascal().with_gpus(1));
        assert_eq!(c1.num_gpus(), 1);
    }

    #[test]
    fn barrier_aligns_clocks() {
        let c = GpuCluster::from_platform(&Platform::pascal());
        c.devices[2].advance(5.0);
        let t = c.barrier();
        assert_eq!(t, 5.0);
        for d in &c.devices {
            assert_eq!(d.now(), 5.0);
        }
    }

    #[test]
    fn host_copies_only_touch_their_device() {
        let c = GpuCluster::from_platform(&Platform::volta());
        let t = c.host_to_device(1, 1_600_000_000);
        assert!((t - 0.1).abs() < 1e-3);
        assert_eq!(c.devices[0].now(), 0.0);
        assert!((c.system_time() - t).abs() < 1e-12);
    }

    #[test]
    fn with_workers_applies_to_every_device() {
        let c = GpuCluster::from_platform(&Platform::pascal()).with_workers(3);
        for d in &c.devices {
            assert_eq!(d.workers(), 3);
        }
    }

    #[test]
    fn devices_launch_concurrently_through_shared_refs() {
        use crate::launcher::KernelSpec;
        use crate::memory::AtomicU32Buf;
        let c = GpuCluster::from_platform(&Platform::pascal());
        let buf = AtomicU32Buf::zeros(4);
        std::thread::scope(|scope| {
            for (i, dev) in c.devices.iter().enumerate() {
                let buf = &buf;
                scope.spawn(move || {
                    dev.try_launch_spec(KernelSpec::new("per_gpu", 8), |ctx| {
                        ctx.dram_read(1_000);
                        if ctx.block_id == 0 {
                            buf.fetch_add(i, 1);
                        }
                    })
                    .unwrap();
                });
            }
        });
        assert_eq!(buf.snapshot(), vec![1, 1, 1, 1]);
        for d in &c.devices {
            assert!(d.now() > 0.0);
            assert_eq!(d.profile().len(), 1);
        }
    }
}
