//! Interconnect cost model: PCIe (and the 10 Gb/s ethernet the distributed
//! baseline is limited by).
//!
//! Section 3.2 contrasts interconnects by bandwidth: PCIe 3.0 gives
//! 16 GB/s, NVLink up to 300 GB/s, while the LDA* cluster's ethernet is
//! only 10 Gb/s — the paper's core argument for a single multi-GPU box.
//! A transfer costs `latency + bytes / bandwidth`.

/// A point-to-point link with fixed latency and bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Sustained bandwidth in GB/s (bytes, not bits).
    pub bandwidth_gbps: f64,
    /// Per-transfer latency in microseconds.
    pub latency_us: f64,
}

impl Link {
    /// PCIe 3.0 x16: "up to 16GB/s" (Section 3.2).
    pub fn pcie3() -> Self {
        Self {
            bandwidth_gbps: 16.0,
            latency_us: 10.0,
        }
    }

    /// NVLink: "up to 300GB/s" (Section 3.2). Used by the interconnect
    /// ablation bench.
    pub fn nvlink() -> Self {
        Self {
            bandwidth_gbps: 300.0,
            latency_us: 5.0,
        }
    }

    /// The 10 Gb/s ethernet of the LDA* cluster \[34\] = 1.25 GB/s.
    pub fn ethernet_10gbit() -> Self {
        Self {
            bandwidth_gbps: 1.25,
            latency_us: 50.0,
        }
    }

    /// Datacenter node-class interconnect (100 Gb/s class RDMA fabric,
    /// ~12.5 GB/s): the inter-node link the cluster layer's Δϕ supersteps
    /// ride on. Slower than PCIe within a box, 10× the LDA* ethernet —
    /// the regime the sparse Δϕ wire format was built for.
    pub fn node_100gbit() -> Self {
        Self {
            bandwidth_gbps: 12.5,
            latency_us: 25.0,
        }
    }

    /// Seconds to move `bytes` across the link.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        assert!(self.bandwidth_gbps > 0.0, "link has no bandwidth");
        self.latency_us * 1e-6 + bytes as f64 / (self.bandwidth_gbps * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcie_moves_16gb_per_second() {
        let l = Link::pcie3();
        let t = l.transfer_seconds(16_000_000_000);
        assert!((t - 1.0).abs() < 1e-4, "t = {t}");
    }

    #[test]
    fn latency_dominates_small_transfers() {
        let l = Link::pcie3();
        let t = l.transfer_seconds(64);
        assert!(t > 9e-6 && t < 12e-6, "t = {t}");
    }

    #[test]
    fn ethernet_is_an_order_of_magnitude_slower_than_pcie() {
        let bytes = 1_000_000_000;
        let pcie = Link::pcie3().transfer_seconds(bytes);
        let eth = Link::ethernet_10gbit().transfer_seconds(bytes);
        assert!(eth / pcie > 10.0, "eth {eth} vs pcie {pcie}");
    }

    #[test]
    fn node_link_sits_between_ethernet_and_pcie() {
        let bytes = 1_000_000_000;
        let eth = Link::ethernet_10gbit().transfer_seconds(bytes);
        let node = Link::node_100gbit().transfer_seconds(bytes);
        let pcie = Link::pcie3().transfer_seconds(bytes);
        assert!(node < eth, "node {node} vs eth {eth}");
        assert!(node > pcie, "node {node} vs pcie {pcie}");
    }

    #[test]
    fn nvlink_beats_pcie() {
        let bytes = 1_000_000_000;
        assert!(
            Link::nvlink().transfer_seconds(bytes) < Link::pcie3().transfer_seconds(bytes) / 10.0
        );
    }
}
