//! The multi-node AD-LDA layer's inter-node half: N nodes, each a full
//! multi-GPU box, synchronized per superstep through a parameter server.
//!
//! The paper argues (Section 3.2) that a single multi-GPU box beats the
//! LDA* CPU cluster because its 10 Gb/s ethernet starves the workers. This
//! layer asks the follow-up question: what does the CuLDA design look like
//! *one level up*, when the corpus outgrows one box (the PubMed-scale
//! regime)? The answer mirrors the intra-box architecture exactly:
//!
//! * chunks : GPUs = shards : nodes — [`CuldaTrainer`] holds `N × G`
//!   workers, node `n` being workers `n·G..(n+1)·G`, and deals the chunks
//!   round-robin over all of them; a single node is the `N = 1` case;
//! * ϕ replicas : PCIe reduce tree = node sums : [`ParameterServer`] —
//!   each node's payload is its replicas' merged sparse
//!   [`DeltaPayload`](crate::DeltaPayload) (the same COO/CSR/dense wire
//!   format the Δϕ sync uses on PCIe); the node payloads merge up a
//!   reduce tree over the modelled inter-node link
//!   ([`Link::node_100gbit`] by default), and the merged global payload
//!   is broadcast back and stored once into every alive replica.
//!
//! **Bit-identity.** The chunk layout is planned *once* from the per-node
//! platform (`C = M × G`, independent of the node count), the sampler RNG
//! streams are keyed by global token index, every kernel reads only the
//! previous superstep's global snapshot, and ϕ merges are commutative
//! integer adds — so the trained model, and with it the final checkpoint,
//! is bit-identical to a single-node run of the same configuration, for
//! any node count, any sync mode, and prefetch on or off. Only the
//! modelled time differs.

use crate::sync::{SyncReport, SyncTotals};
use crate::trainer::CuldaTrainer;
use culda_gpusim::Link;

/// The multi-node trainer is the document-partition trainer: one node is
/// its `N = 1` case. The name stays for callers that spell it.
pub type ClusterTrainer = CuldaTrainer;

/// The cluster-level merge point: the inter-node link the per-node Δϕ
/// payloads merge up a tree over, and the run's inter-node traffic totals.
/// It holds no ϕ of its own — once the merged payload is applied, every
/// alive replica is the global model.
#[derive(Debug)]
pub struct ParameterServer {
    link: Link,
    totals: SyncTotals,
}

impl ParameterServer {
    pub(crate) fn new(link: Link) -> Self {
        Self {
            link,
            totals: SyncTotals::default(),
        }
    }

    /// The modelled inter-node link.
    pub fn link(&self) -> Link {
        self.link
    }

    /// Run-level inter-node traffic totals (encoded bytes, dense baseline,
    /// payload nonzeros, modelled seconds).
    pub fn totals(&self) -> SyncTotals {
        self.totals
    }

    /// Adds one superstep's inter-node report to the totals. The trainer
    /// books it with the sync it belongs to, so a sum that is not booked
    /// leaves no totals behind.
    pub(crate) fn absorb(&mut self, report: &SyncReport) {
        self.totals.absorb(report);
    }
}
