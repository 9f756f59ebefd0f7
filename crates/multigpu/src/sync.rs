//! The ϕ model synchronization — Section 5.2 and Figure 4.
//!
//! After every iteration each GPU holds a replica of ϕ containing only its
//! own chunks' counts; the global model is their sum (Eq. 4). The paper
//! rejects summation on the CPU ("the CPU is slower than GPUs in terms of
//! matrix adding") and instead runs a **pairwise reduce tree** followed by
//! a **broadcast**: with 4 GPUs, round 1 moves ϕ¹→GPU0 and ϕ³→GPU2 (in
//! parallel) and adds; round 2 moves ϕ²→GPU0 and adds; then ϕ⁰ is
//! broadcast back. Depth is ⌈log₂ G⌉ in both directions.
//!
//! The sum is executed for real, one way in every mode: each replica's
//! dirty rows are captured once as a [`DeltaPayload`], the payloads merge
//! pairwise up the Figure 4 tree (`reduce_payloads`), and the merged
//! global payload is stored once into every replica. That is bit-identical
//! to a dense sum because the adds are commutative integers and a cleared
//! replica's nonzero cells are a subset of the global payload's. Every
//! replica participates at once, as every GPU does in the paper: the
//! captures run one host thread per replica, and so do the stores; the
//! tree merge runs on the calling thread, in the tree's order.
//!
//! [`SyncMode`] only picks the modelled charge:
//!
//! * `dense-tree` — the paper's tree over whole replicas: per reduce round
//!   one peer transfer plus one element-wise add kernel, per broadcast
//!   round one peer transfer; rounds within a level run in parallel across
//!   disjoint pairs (`dense_tree_report`).
//! * `dense-ring` — a dense ring all-reduce (extension,
//!   `dense_ring_report`).
//! * `delta` — sparse Δϕ: the merge's own report, every transfer priced at
//!   its encoded size (see [`crate::delta`]).
//! * `auto` — the cheapest of the three for this iteration, the dense
//!   modes from closed formulas and delta from the actual payload sizes.
//!   Every mode is priced by the same functions, so its seconds equal the
//!   best fixed mode's exactly.
//!
//! [`sync_phi`] synchronizes one node's replicas. The trainer runs the same
//! capture and merge per node, merges the node payloads up the parameter
//! server's tree, and then stores once.

use crate::config::{SyncMode, TrainerConfig};
use crate::delta::DeltaPayload;
use crate::worker::run_workers;
use culda_gpusim::{GpuSpec, KernelCost, Link};
use culda_sampler::PhiModel;

/// Timing and traffic summary of one synchronization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncReport {
    /// Reduce-phase seconds (transfers + add kernels, critical path).
    pub reduce_seconds: f64,
    /// Broadcast-phase seconds (critical path).
    pub broadcast_seconds: f64,
    /// Reduce rounds executed (⌈log₂ G⌉).
    pub rounds: u32,
    /// Encoded bytes actually moved over the peer links, summed across
    /// every transfer of the reduce and broadcast phases.
    pub bytes_moved: u64,
    /// Bytes the dense tree would have moved for the same sync — the
    /// baseline for [`Self::compression_ratio`].
    pub dense_bytes: u64,
    /// Nonzero ϕ cells in the shipped payload. For the dense modes this is
    /// every cell (the whole replica travels, zeros included).
    pub nnz: u64,
    /// The strategy charged (for `Auto`, the mode it chose).
    pub mode: SyncMode,
}

impl Default for SyncReport {
    fn default() -> Self {
        Self {
            reduce_seconds: 0.0,
            broadcast_seconds: 0.0,
            rounds: 0,
            bytes_moved: 0,
            dense_bytes: 0,
            nnz: 0,
            mode: SyncMode::DenseTree,
        }
    }
}

impl SyncReport {
    /// Total synchronization seconds.
    pub fn total_seconds(&self) -> f64 {
        self.reduce_seconds + self.broadcast_seconds
    }

    /// How many× fewer bytes moved than the dense tree would have
    /// (`1.0` for the dense modes themselves; `≥ 1` is a win).
    pub fn compression_ratio(&self) -> f64 {
        if self.bytes_moved == 0 {
            1.0
        } else {
            self.dense_bytes as f64 / self.bytes_moved as f64
        }
    }
}

/// Running totals over a whole run's synchronizations (what `culda
/// profile` and `bench_modes` report).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SyncTotals {
    /// Encoded bytes moved, summed over every sync.
    pub bytes_moved: u64,
    /// Bytes the dense tree would have moved over the same syncs.
    pub dense_bytes: u64,
    /// Payload nonzeros, summed over every sync.
    pub nnz: u64,
    /// Modelled sync seconds, summed.
    pub seconds: f64,
}

impl SyncTotals {
    /// Folds one sync's report into the totals.
    pub fn absorb(&mut self, r: &SyncReport) {
        self.bytes_moved += r.bytes_moved;
        self.dense_bytes += r.dense_bytes;
        self.nnz += r.nnz;
        self.seconds += r.total_seconds();
    }

    /// Run-level dense-vs-actual byte ratio (`≥ 1` is a win).
    pub fn compression_ratio(&self) -> f64 {
        if self.bytes_moved == 0 {
            1.0
        } else {
            self.dense_bytes as f64 / self.bytes_moved as f64
        }
    }
}

/// Simulated seconds of the element-wise ϕ-add kernel on one GPU. Shared
/// with the cluster layer's inter-node payload merges.
pub(crate) fn add_kernel_seconds(gpu: &GpuSpec, elements: u64, elem_bytes: u64) -> f64 {
    let cost = KernelCost {
        dram_read_bytes: 2 * elements * elem_bytes,
        dram_write_bytes: elements * elem_bytes,
        flops: elements,
        blocks: (elements / 1024).max(1),
        ..Default::default()
    };
    cost.sim_seconds(gpu)
}

/// ϕ cells (including the `phi_sum` tail) in one replica.
fn replica_elements(r: &PhiModel) -> u64 {
    r.phi.len() as u64 + r.phi_sum.len() as u64
}

/// Tree depth: reduce rounds (= broadcast rounds) for `g` participants
/// (GPUs here; nodes in the cluster layer).
pub(crate) fn tree_rounds(g: usize) -> u32 {
    if g < 2 {
        0
    } else {
        (g as f64).log2().ceil() as u32
    }
}

/// Modelled cost of the dense Figure 4 tree over `g` replicas of
/// `elements` cells each.
fn dense_tree_report(g: usize, elements: u64, gpu: &GpuSpec, link: &Link, e: u64) -> SyncReport {
    let bytes = elements * e;
    let rounds = tree_rounds(g);
    let mut reduce_seconds = 0.0;
    let mut broadcast_seconds = 0.0;
    for _ in 0..rounds {
        reduce_seconds += link.transfer_seconds(bytes) + add_kernel_seconds(gpu, elements, e);
        broadcast_seconds += link.transfer_seconds(bytes);
    }
    // Every replica 1..G is shipped in once and the result shipped back
    // out once: 2(G−1) full-replica transfers in total.
    let transfers = 2 * (g as u64).saturating_sub(1);
    SyncReport {
        reduce_seconds,
        broadcast_seconds,
        rounds,
        bytes_moved: transfers * bytes,
        dense_bytes: transfers * bytes,
        nnz: if g > 1 { elements } else { 0 },
        mode: SyncMode::DenseTree,
    }
}

/// Modelled cost of the dense ring all-reduce over `g` replicas.
///
/// The tree moves the *whole* replica `⌈log₂G⌉` times through single
/// links; a ring all-reduce (reduce-scatter + all-gather) moves
/// `2(G−1)/G` of the replica per GPU but uses **all** links concurrently,
/// so its critical path is `2(G−1)/G × bytes / link_bw` — better than the
/// tree once `G > 2` on a fully-connected fabric (NVLink-class machines;
/// on shared PCIe the tree's assumptions match the paper's hardware).
fn dense_ring_report(g: usize, elements: u64, gpu: &GpuSpec, link: &Link, e: u64) -> SyncReport {
    let bytes = elements * e;
    if g < 2 {
        return SyncReport {
            mode: SyncMode::DenseRing,
            ..SyncReport::default()
        };
    }
    // 2(G−1) steps, each moving bytes/G per link, all links busy; the
    // reduce-scatter half also pays the element-wise adds (on 1/G of the
    // data per step, G−1 times = (G−1)/G of one full add).
    let step_bytes = bytes / g as u64;
    let per_step = link.transfer_seconds(step_bytes);
    let adds = add_kernel_seconds(gpu, elements * (g as u64 - 1) / g as u64, e);
    // Aggregate traffic across all links matches the tree: 2(G−1) replica
    // volumes (each of the 2(G−1) steps moves bytes/G on each of G links).
    let transfers = 2 * (g as u64 - 1);
    SyncReport {
        reduce_seconds: (g as f64 - 1.0) * per_step + adds,
        broadcast_seconds: (g as f64 - 1.0) * per_step,
        rounds: 2 * (g as u32 - 1),
        bytes_moved: transfers * bytes,
        dense_bytes: 2 * (g as u64).saturating_sub(1) * bytes,
        nnz: elements,
        mode: SyncMode::DenseRing,
    }
}

/// Merges `payloads` (one per participant: GPUs here, nodes in the cluster
/// layer) pairwise up the Figure 4 tree, then broadcasts the merged global
/// payload back down, pricing every transfer over `link` at its *encoded*
/// size. Pairs within a level run in parallel, so a level costs its
/// slowest pair: the sender's transfer plus the merge-add kernel on the
/// merged nnz and the dense `phi_sum` tail. The broadcast costs
/// `⌈log₂ n⌉` transfers of the global payload. The merge itself is
/// host-side bookkeeping and free in simulated time. Returns the global
/// payload, for the caller to apply, and the report.
///
/// # Panics
/// Panics if `payloads` is empty.
pub(crate) fn reduce_payloads(
    payloads: Vec<DeltaPayload>,
    num_topics: usize,
    vocab_size: usize,
    gpu: &GpuSpec,
    link: &Link,
    e: u64,
) -> (DeltaPayload, SyncReport) {
    let n = payloads.len();
    assert!(n > 0, "no payloads to reduce");
    let k = num_topics as u64;
    let elements = (vocab_size as u64 + 1) * k;
    let dense_bytes = 2 * (n as u64 - 1) * elements * e;

    let mut payloads: Vec<Option<DeltaPayload>> = payloads.into_iter().map(Some).collect();
    let mut reduce_seconds = 0.0;
    let mut bytes_moved = 0u64;
    let mut rounds = 0u32;
    let mut stride = 1usize;
    while stride < n {
        let mut level_seconds: f64 = 0.0;
        let mut i = 0;
        while i + stride < n {
            let sender = payloads[i + stride].take().expect("payload consumed twice");
            let sent_bytes = sender.encoded_bytes(e);
            let recv = payloads[i].as_mut().expect("receiver payload missing");
            recv.merge_from(&sender);
            let pair_seconds =
                link.transfer_seconds(sent_bytes) + add_kernel_seconds(gpu, recv.nnz() + k, e);
            level_seconds = level_seconds.max(pair_seconds);
            bytes_moved += sent_bytes;
            i += 2 * stride;
        }
        if level_seconds > 0.0 {
            reduce_seconds += level_seconds;
            rounds += 1;
        }
        stride *= 2;
    }
    let global = payloads[0].take().expect("root payload missing");

    let global_bytes = global.encoded_bytes(e);
    let broadcast_seconds = f64::from(tree_rounds(n)) * link.transfer_seconds(global_bytes);
    bytes_moved += (n as u64 - 1) * global_bytes;

    let report = SyncReport {
        reduce_seconds,
        broadcast_seconds,
        rounds,
        bytes_moved,
        dense_bytes,
        nnz: global.nnz(),
        mode: SyncMode::Delta,
    };
    (global, report)
}

/// Captures `replica`'s Δϕ: the nonzero cells of the rows it marked dirty.
fn capture(replica: &PhiModel) -> DeltaPayload {
    debug_assert!(
        (0..replica.vocab_size)
            .all(|v| replica.phi.row_nnz(v) == 0 || replica.phi.dirty().is_marked(v)),
        "a nonzero ϕ row is not marked dirty, so the sync would drop it"
    );
    DeltaPayload::from_replica(replica, replica.phi.dirty())
}

/// Captures every one of `replicas`, one host thread per replica; the
/// payloads come back in replica order.
pub(crate) fn capture_each(replicas: &[&PhiModel]) -> Vec<DeltaPayload> {
    run_workers(&mut replicas.to_vec(), |_, r| capture(r))
}

/// Stores `global` into every one of `replicas`, one host thread per
/// replica.
pub(crate) fn store_each(global: &DeltaPayload, replicas: &[&PhiModel]) {
    run_workers(&mut replicas.to_vec(), |_, r| global.apply_to(r));
}

/// One node's half of a sync: its replicas' captured payloads merged up
/// the Figure 4 tree ([`reduce_payloads`]), and the report `mode` charges
/// for it. `payloads` holds each of `replicas`' capture, in order, or
/// nothing for a lone replica no other node needs. Stores nothing. The
/// payload returned is the node's sum, or `None` for a lone replica left
/// uncaptured, which holds that sum already.
///
/// # Panics
/// Panics if `replicas` is empty, `payloads` does not match them, or shapes
/// disagree.
pub(crate) fn merge_node(
    mode: SyncMode,
    replicas: &[&PhiModel],
    mut payloads: Vec<DeltaPayload>,
    gpu: &GpuSpec,
    link: &Link,
    cfg: &TrainerConfig,
) -> (Option<DeltaPayload>, SyncReport) {
    assert!(!replicas.is_empty(), "no replicas to synchronize");
    let (g, r, e) = (replicas.len(), replicas[0], cfg.phi_elem_bytes());
    assert!(
        payloads.len() == g || (g == 1 && payloads.is_empty()),
        "{} payloads for {g} replicas",
        payloads.len()
    );
    let (node, delta) = if g == 1 {
        let delta = SyncReport {
            mode: SyncMode::Delta,
            ..SyncReport::default()
        };
        (payloads.pop(), delta)
    } else {
        let (node, delta) = reduce_payloads(payloads, r.num_topics, r.vocab_size, gpu, link, e);
        (Some(node), delta)
    };
    let tree = dense_tree_report(g, replica_elements(r), gpu, link, e);
    let ring = dense_ring_report(g, replica_elements(r), gpu, link, e);
    let report = match mode {
        SyncMode::DenseTree => tree,
        SyncMode::DenseRing => ring,
        SyncMode::Delta => delta,
        // `min_by` keeps the first of equal minima: ties go to delta, then
        // to the ring.
        SyncMode::Auto => [delta, ring, tree]
            .into_iter()
            .min_by(|a, b| a.total_seconds().total_cmp(&b.total_seconds()))
            .expect("three candidates"),
    };
    (node, report)
}

/// Synchronizes one node's `replicas` in place: afterwards every replica
/// holds their sum, stored once from the merged Δϕ payload, whatever
/// `mode` is. Returns the report `mode` charges. Takes a slice of
/// references because each replica lives inside its owning `GpuWorker`.
///
/// # Panics
/// Panics if `replicas` is empty or shapes disagree.
pub fn sync_phi(
    mode: SyncMode,
    replicas: &[&PhiModel],
    gpu: &GpuSpec,
    link: &Link,
    cfg: &TrainerConfig,
) -> SyncReport {
    // A lone replica already holds the sum: nothing to capture or store.
    let payloads = if replicas.len() > 1 {
        capture_each(replicas)
    } else {
        Vec::new()
    };
    let (node, report) = merge_node(mode, replicas, payloads, gpu, link, cfg);
    if let Some(global) = node {
        store_each(&global, replicas);
    }
    report
}

/// Modelled cost of the partition-by-word sync ("we only need to
/// synchronize the replicas of θ", Section 4): the Figure 4 tree applied
/// to θ replicas of `theta_bytes` each (θ plus the `n_k` vector),
/// `⌈log₂G⌉` rounds each way, each moving the full θ bytes, plus an add
/// pass per reduce round. θ travels dense both ways: `2(G−1)` full-θ
/// transfers in total.
pub(crate) fn theta_sync_report(
    g: usize,
    theta_bytes: u64,
    gpu: &GpuSpec,
    link: &Link,
) -> SyncReport {
    if g <= 1 {
        return SyncReport::default();
    }
    let rounds = tree_rounds(g);
    let add = KernelCost {
        dram_read_bytes: 2 * theta_bytes,
        dram_write_bytes: theta_bytes,
        flops: theta_bytes / 4,
        blocks: (theta_bytes / 4096).max(1),
        ..Default::default()
    }
    .sim_seconds(gpu);
    let moved = 2 * (g as u64 - 1) * theta_bytes;
    SyncReport {
        reduce_seconds: rounds as f64 * (link.transfer_seconds(theta_bytes) + add),
        broadcast_seconds: rounds as f64 * link.transfer_seconds(theta_bytes),
        rounds,
        bytes_moved: moved,
        dense_bytes: moved,
        nnz: theta_bytes / 4,
        ..SyncReport::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culda_gpusim::Platform;
    use culda_sampler::Priors;

    const MODES: [SyncMode; 4] = [
        SyncMode::DenseTree,
        SyncMode::DenseRing,
        SyncMode::Delta,
        SyncMode::Auto,
    ];

    fn replicas(g: usize) -> Vec<PhiModel> {
        replicas_sized(g, 4, 6)
    }

    fn replicas_sized(g: usize, topics: usize, vocab: usize) -> Vec<PhiModel> {
        (0..g)
            .map(|i| {
                let m = PhiModel::zeros(topics, vocab, Priors::paper(topics));
                // Distinct pattern per replica.
                for v in 0..vocab {
                    for k in 0..topics {
                        let c = ((i + 1) * (v * topics + k + 1) % 5) as u32;
                        if c > 0 {
                            m.phi.store(m.phi_index(v, k), c);
                            m.phi_sum.fetch_add(k, c);
                        }
                    }
                }
                m
            })
            .collect()
    }

    /// Sparse replicas: each GPU touched a few distinct rows.
    fn sparse_replicas(g: usize, topics: usize, vocab: usize) -> Vec<PhiModel> {
        (0..g)
            .map(|i| {
                let m = PhiModel::zeros(topics, vocab, Priors::paper(topics));
                for j in 0..4usize {
                    let v = (i * 7 + j * 13) % vocab;
                    let k = (i + j) % topics;
                    m.phi.store(m.phi_index(v, k), (i + j + 1) as u32);
                    m.phi_sum.fetch_add(k, (i + j + 1) as u32);
                }
                m
            })
            .collect()
    }

    /// The cell-wise serial sum of `reps`: ϕ, then `phi_sum`.
    fn serial_sum(reps: &[PhiModel]) -> (Vec<u32>, Vec<u32>) {
        let mut phi = vec![0u32; reps[0].phi.len()];
        let mut sums = vec![0u32; reps[0].num_topics];
        for r in reps {
            phi.iter_mut()
                .zip(r.phi.snapshot())
                .for_each(|(w, c)| *w += c);
            sums.iter_mut()
                .zip(r.phi_sum.snapshot())
                .for_each(|(w, c)| *w += c);
        }
        (phi, sums)
    }

    fn assert_hold(reps: &[PhiModel], want: &(Vec<u32>, Vec<u32>), what: &str) {
        for r in reps {
            assert_eq!(r.phi.snapshot(), want.0, "{what}");
            assert_eq!(r.phi_sum.snapshot(), want.1, "{what}");
            r.check_sums();
        }
    }

    fn cfg() -> TrainerConfig {
        TrainerConfig::builder(4, Platform::pascal())
            .build()
            .unwrap()
    }

    fn refs(reps: &[PhiModel]) -> Vec<&PhiModel> {
        reps.iter().collect()
    }

    #[test]
    fn every_mode_leaves_every_replica_the_serial_sum() {
        for mode in MODES {
            for g in [1usize, 2, 3, 4, 7, 8] {
                let reps = replicas(g);
                let want = serial_sum(&reps);
                let report = sync_phi(
                    mode,
                    &refs(&reps),
                    &Platform::pascal().gpu,
                    &Link::pcie3(),
                    &cfg(),
                );
                assert_hold(&reps, &want, &format!("{mode} g={g}"));
                if mode != SyncMode::Auto {
                    assert_eq!(report.mode, mode);
                }
                if mode == SyncMode::DenseTree && g > 1 {
                    assert_eq!(report.rounds, (g as f64).log2().ceil() as u32, "g={g}");
                }
            }
        }
    }

    #[test]
    fn single_gpu_sync_is_free() {
        for mode in MODES {
            let reps = replicas(1);
            let r = sync_phi(
                mode,
                &refs(&reps),
                &Platform::volta().gpu,
                &Link::pcie3(),
                &cfg(),
            );
            assert_eq!(r.total_seconds(), 0.0);
            assert_eq!(r.rounds, 0);
            assert_eq!(r.bytes_moved, 0);
        }
    }

    #[test]
    fn sync_cost_grows_logarithmically() {
        let gpu = Platform::pascal().gpu;
        let link = Link::pcie3();
        let tree = |g| {
            sync_phi(
                SyncMode::DenseTree,
                &refs(&replicas(g)),
                &gpu,
                &link,
                &cfg(),
            )
            .total_seconds()
        };
        let (t2, t4, t8) = (tree(2), tree(4), tree(8));
        assert!(t4 > t2 && t8 > t4);
        // log-depth: doubling GPUs adds one round, so cost is ~linear in
        // log G, not in G.
        assert!(
            (t4 - t2) < 1.6 * (t2 / 1.0),
            "t2={t2} t4={t4}: growth should be one extra round"
        );
        assert!((t8 - t4) - (t4 - t2) < 0.5 * (t4 - t2) + 1e-9);
    }

    #[test]
    fn delta_moves_an_order_of_magnitude_fewer_bytes_when_sparse() {
        let g = 4;
        let (topics, vocab) = (256, 2000);
        let c = TrainerConfig::builder(topics, Platform::pascal())
            .build()
            .unwrap();
        let gpu = Platform::pascal().gpu;
        let link = Link::pcie3();

        let dense_reps = sparse_replicas(g, topics, vocab);
        let tree = sync_phi(SyncMode::DenseTree, &refs(&dense_reps), &gpu, &link, &c);

        let delta_reps = sparse_replicas(g, topics, vocab);
        let delta = sync_phi(SyncMode::Delta, &refs(&delta_reps), &gpu, &link, &c);

        assert!(
            delta.bytes_moved * 10 <= tree.bytes_moved,
            "delta {} vs dense {}",
            delta.bytes_moved,
            tree.bytes_moved
        );
        assert!(delta.compression_ratio() >= 10.0);
        assert_eq!(delta.dense_bytes, tree.bytes_moved);
        assert!(delta.nnz > 0 && delta.nnz < tree.nnz);
    }

    #[test]
    fn auto_matches_the_best_fixed_mode_exactly() {
        let gpu = Platform::pascal().gpu;
        let link = Link::pcie3();
        // Sparse model → delta should win; dense-ish model at G=8 → ring.
        type Maker = fn(usize, usize, usize) -> Vec<PhiModel>;
        let cases: [(usize, usize, usize, Maker); 2] = [
            (4, 256, 2000, sparse_replicas),
            (8, 64, 500, replicas_sized),
        ];
        for (g, topics, vocab, make) in cases {
            let c = TrainerConfig::builder(topics, Platform::pascal())
                .build()
                .unwrap();
            let best = [SyncMode::DenseTree, SyncMode::DenseRing, SyncMode::Delta]
                .map(|mode| {
                    let reps = make(g, topics, vocab);
                    sync_phi(mode, &refs(&reps), &gpu, &link, &c).total_seconds()
                })
                .into_iter()
                .fold(f64::INFINITY, f64::min);

            let reps = make(g, topics, vocab);
            let want = serial_sum(&reps);
            let auto = sync_phi(SyncMode::Auto, &refs(&reps), &gpu, &link, &c);
            assert!(
                auto.total_seconds() <= best,
                "auto {} > best fixed {best} (g={g})",
                auto.total_seconds()
            );

            // And the result is still the global sum.
            assert_hold(&reps, &want, &format!("auto g={g}"));
        }
    }
}
