//! Trainer configuration.

use culda_gpusim::{Link, Platform};
use culda_sampler::MAX_TOPICS;
use std::fmt;

/// Why a [`TrainerConfig`] was rejected. Every constructor path surfaces
/// these instead of letting a degenerate configuration (zero topics, zero
/// GPUs, zero iterations, zero workers) silently produce an empty plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `num_topics == 0` or beyond the u16 compression limit.
    BadTopicCount(usize),
    /// The platform has no GPUs to schedule onto.
    NoGpus,
    /// `iterations == 0` — the run would do nothing.
    NoIterations,
    /// `host_workers == Some(0)` — no threads to execute blocks.
    NoHostWorkers,
    /// `chunks_per_gpu == Some(0)` — no chunks to schedule.
    NoChunks,
    /// `nodes == 0` — a cluster run needs at least one node.
    NoNodes,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadTopicCount(k) => {
                write!(f, "num_topics must be in 1..={MAX_TOPICS}, got {k}")
            }
            ConfigError::NoGpus => write!(f, "platform must have at least one GPU"),
            ConfigError::NoIterations => write!(f, "iterations must be >= 1"),
            ConfigError::NoHostWorkers => write!(f, "host_workers must be >= 1"),
            ConfigError::NoChunks => write!(f, "chunks_per_gpu must be >= 1"),
            ConfigError::NoNodes => write!(f, "nodes must be >= 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

// The canonical mode-flag machinery (shared error type + spelling-table
// lookup) lives in the sampler crate next to `DrawMode`, the lowest mode
// enum in the stack; this crate's enums ([`SyncMode`], [`SamplingMode`],
// `PartitionPolicy`) reuse it via these re-exports, so the old
// `culda_multigpu::ModeParseError` path keeps working.
pub use culda_sampler::mode::{parse_mode, DrawMode, ModeParseError};

/// How the per-GPU ϕ write replicas are combined each iteration.
///
/// Every mode computes the exact same global sums (integer adds are
/// commutative), so checkpoints are byte-identical across modes; only the
/// modelled transfer time and bytes moved differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Pick the cheapest of the fixed modes every iteration from modelled
    /// cost, using the iteration's actual Δϕ nonzero count.
    Auto,
    /// The paper's Figure 4 pairwise reduce tree + broadcast over the
    /// full dense replica (the default; matches CuLDA).
    DenseTree,
    /// Ring all-reduce over the full dense replica (bandwidth-optimal at
    /// high GPU counts).
    DenseRing,
    /// Sparse Δϕ sync: ship only the touched rows, encoded per row as
    /// COO / CSR / dense — whichever moves the fewest bytes.
    Delta,
}

impl SyncMode {
    /// Canonical flag names, in CLI order — the single source the usage
    /// text, the `FromStr` impl, and the parse error all derive from.
    pub const NAMES: &'static [&'static str] = &["auto", "dense-tree", "dense-ring", "delta"];

    const SPELLINGS: &'static [(&'static str, SyncMode)] = &[
        ("auto", SyncMode::Auto),
        ("dense-tree", SyncMode::DenseTree),
        ("dense-ring", SyncMode::DenseRing),
        ("delta", SyncMode::Delta),
    ];

    /// The canonical flag name of this mode.
    pub fn name(self) -> &'static str {
        match self {
            SyncMode::Auto => "auto",
            SyncMode::DenseTree => "dense-tree",
            SyncMode::DenseRing => "dense-ring",
            SyncMode::Delta => "delta",
        }
    }

    /// `"auto|dense-tree|dense-ring|delta"` — for usage text.
    pub fn usage() -> String {
        Self::NAMES.join("|")
    }
}

impl fmt::Display for SyncMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SyncMode {
    type Err = ModeParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_mode("sync mode", Self::SPELLINGS, Self::NAMES, s)
    }
}

/// Which `p*(k)` fill path the sampling kernel models each iteration.
///
/// Every mode computes bit-identical assignments: the sparse fill seeds
/// the row with the `β/(n_k+βV)` baseline and patches the nonzero cells,
/// which reproduces the dense values exactly in IEEE f32 (`(0+β)·x ==
/// β·x`). Only the *modelled* traffic differs, so checkpoints are
/// byte-identical across modes and only tokens/sec moves — the same
/// contract as [`SyncMode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingMode {
    /// Per iteration, pick dense or sparse from the modelled per-row ϕ
    /// traffic of the previous iteration's snapshot
    /// ([`culda_sampler::choose_sparse_sampling`]).
    Auto,
    /// Always model the dense `K`-length fill (the default; matches the
    /// paper's kernel and its timing exactly).
    Dense,
    /// Always model the sparse bucket fill (per-row work ∝ `nnz`, clamped
    /// so it never exceeds the dense cost).
    Sparse,
}

impl SamplingMode {
    /// Canonical flag names, in CLI order (see [`SyncMode::NAMES`]).
    pub const NAMES: &'static [&'static str] = &["auto", "dense", "sparse"];

    const SPELLINGS: &'static [(&'static str, SamplingMode)] = &[
        ("auto", SamplingMode::Auto),
        ("dense", SamplingMode::Dense),
        ("sparse", SamplingMode::Sparse),
    ];

    /// The canonical flag name of this mode.
    pub fn name(self) -> &'static str {
        match self {
            SamplingMode::Auto => "auto",
            SamplingMode::Dense => "dense",
            SamplingMode::Sparse => "sparse",
        }
    }

    /// `"auto|dense|sparse"` — for usage text.
    pub fn usage() -> String {
        Self::NAMES.join("|")
    }
}

impl fmt::Display for SamplingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SamplingMode {
    type Err = ModeParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_mode("sampling mode", Self::SPELLINGS, Self::NAMES, s)
    }
}

/// Everything that parameterizes a CuLDA training run.
///
/// The only way to obtain one is [`TrainerConfig::builder`] — the builder
/// collects overrides and validates once in
/// [`build`](TrainerConfigBuilder::build), so a degenerate combination
/// never exists as a `TrainerConfig` value. The fields stay public for
/// reading (and for tests that deliberately corrupt a config to exercise
/// [`validate`](Self::validate), which the trainers re-run on entry).
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Number of topics `K` (must fit the u16 compression, `K ≤ 65536`).
    pub num_topics: usize,
    /// Full corpus passes to run.
    pub iterations: u32,
    /// RNG seed; runs are bit-reproducible per seed across any GPU count.
    pub seed: u64,
    /// The simulated machine (Table 2 preset or custom).
    pub platform: Platform,
    /// Chunks per GPU `M`. `None` = choose the smallest M whose working set
    /// fits device memory (Section 5.1's rule).
    pub chunks_per_gpu: Option<usize>,
    /// Score the joint log-likelihood every this many iterations
    /// (0 = never). Scoring is host-side and free in simulated time.
    pub score_every: u32,
    /// Section 6.1.3 precision compression (u16 indices) on/off (ablation).
    pub compressed: bool,
    /// Shared-memory caching of `p*(k)` and the trees on/off (ablation).
    pub use_shared_memory: bool,
    /// Tokens per sampling block; `None` = auto-size for device saturation.
    pub tokens_per_block: Option<usize>,
    /// Override for the device↔device link (e.g. [`Link::nvlink`] for the
    /// interconnect ablation); `None` = the platform's PCIe.
    pub peer_link: Option<Link>,
    /// Replica combination strategy (see [`SyncMode`]). The default,
    /// [`SyncMode::DenseTree`], reproduces the paper's timing exactly.
    /// Partition-by-word syncs θ over the tree instead, whatever the mode.
    pub sync_mode: SyncMode,
    /// `p*` fill strategy in the sampling kernel (see [`SamplingMode`]).
    /// The default, [`SamplingMode::Dense`], reproduces the paper's
    /// timing exactly.
    pub sampling_mode: SamplingMode,
    /// `p1` draw path in the sampling kernel (see [`DrawMode`]): the
    /// classic private tree walk, the Steele–Tristan butterfly coalesced
    /// scan, or a per-block auto choice. The default, [`DrawMode::Tree`],
    /// reproduces the paper's timing exactly; every mode samples
    /// bit-identical topics — the same contract as [`SyncMode`].
    pub draw_mode: DrawMode,
    /// Double-buffered H2D prefetch under the out-of-core (`M > 1`)
    /// schedule: chunk `i+1`'s host→device staging overlaps chunk `i`'s
    /// kernels (WorkSchedule2, Section 5.1). `false` stages every chunk
    /// serially — transfer, compute, transfer back. Cost-model only: the
    /// trained model is bit-identical either way.
    pub prefetch: bool,
    /// Number of cluster nodes, each running `platform` as its own
    /// multi-GPU box (the `--nodes` knob). `1` = the paper's single-node
    /// machine; `> 1` engages the AD-LDA cluster layer: per-node document
    /// shards, per-superstep Δϕ synchronization over
    /// [`Link::node_100gbit`].
    /// Training is bit-identical for any node count because the chunk
    /// layout is planned once from `platform` and the sampler RNG streams
    /// are keyed by global token index.
    pub nodes: usize,
    /// Host threads each simulated device uses to execute its thread
    /// blocks (the `--workers` knob). `None` = the simulator default.
    /// Results are bit-identical for any value; only wall-clock changes.
    pub host_workers: Option<usize>,
}

impl TrainerConfig {
    /// Start a [`TrainerConfigBuilder`] with the paper defaults: `K`
    /// topics on `platform`, 100 iterations (the Table 4 horizon), full
    /// optimizations, scoring every 10. Nothing is validated until
    /// [`build`](TrainerConfigBuilder::build).
    pub fn builder(num_topics: usize, platform: Platform) -> TrainerConfigBuilder {
        TrainerConfigBuilder::new(num_topics, platform)
    }

    /// Full validity check; [`TrainerConfigBuilder::build`] calls this, and
    /// the trainers re-check on entry so configs mutated by hand (the
    /// fields are public) cannot smuggle in a degenerate run.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_topics == 0 || self.num_topics > MAX_TOPICS {
            return Err(ConfigError::BadTopicCount(self.num_topics));
        }
        if self.platform.num_gpus == 0 {
            return Err(ConfigError::NoGpus);
        }
        if self.iterations == 0 {
            return Err(ConfigError::NoIterations);
        }
        if self.host_workers == Some(0) {
            return Err(ConfigError::NoHostWorkers);
        }
        if self.chunks_per_gpu == Some(0) {
            return Err(ConfigError::NoChunks);
        }
        if self.nodes == 0 {
            return Err(ConfigError::NoNodes);
        }
        Ok(())
    }

    /// Bytes of one ϕ element under the current compression setting.
    pub fn phi_elem_bytes(&self) -> u64 {
        if self.compressed {
            2
        } else {
            4
        }
    }

    /// Device bytes of one ϕ replica (ϕ + column sums).
    pub fn phi_device_bytes(&self, vocab_size: usize) -> u64 {
        (vocab_size as u64 * self.num_topics as u64 + self.num_topics as u64)
            * self.phi_elem_bytes()
    }
}

/// Deferred-validation builder for [`TrainerConfig`] — the single
/// construction path. Overrides accumulate freely; [`build`](Self::build)
/// validates the whole assembly once and is the only way a
/// `TrainerConfig` value comes into existence.
#[derive(Debug, Clone)]
pub struct TrainerConfigBuilder {
    cfg: TrainerConfig,
}

impl TrainerConfigBuilder {
    /// Start from the paper defaults for `num_topics` on `platform`.
    /// Nothing is validated until [`build`](Self::build).
    pub fn new(num_topics: usize, platform: Platform) -> Self {
        Self {
            cfg: TrainerConfig {
                num_topics,
                iterations: 100,
                seed: 0xC0_1DA,
                platform,
                chunks_per_gpu: None,
                score_every: 10,
                compressed: true,
                use_shared_memory: true,
                tokens_per_block: None,
                peer_link: None,
                sync_mode: SyncMode::DenseTree,
                sampling_mode: SamplingMode::Dense,
                draw_mode: DrawMode::Tree,
                prefetch: true,
                nodes: 1,
                host_workers: None,
            },
        }
    }

    /// Set the iteration count.
    pub fn iterations(mut self, n: u32) -> Self {
        self.cfg.iterations = n;
        self
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Set the scoring cadence (0 = never score).
    pub fn score_every(mut self, n: u32) -> Self {
        self.cfg.score_every = n;
        self
    }

    /// Set the chunks-per-GPU override (`None` = auto-size).
    pub fn chunks_per_gpu(mut self, m: Option<usize>) -> Self {
        self.cfg.chunks_per_gpu = m;
        self
    }

    /// Replica combination strategy (see [`SyncMode`]).
    pub fn sync_mode(mut self, mode: SyncMode) -> Self {
        self.cfg.sync_mode = mode;
        self
    }

    /// Sampling `p*` fill strategy (see [`SamplingMode`]).
    pub fn sampling_mode(mut self, mode: SamplingMode) -> Self {
        self.cfg.sampling_mode = mode;
        self
    }

    /// Sampling `p1` draw path (see [`DrawMode`]).
    pub fn draw_mode(mut self, mode: DrawMode) -> Self {
        self.cfg.draw_mode = mode;
        self
    }

    /// Toggle double-buffered H2D prefetch in the out-of-core schedule
    /// (see [`TrainerConfig::prefetch`]).
    pub fn prefetch(mut self, on: bool) -> Self {
        self.cfg.prefetch = on;
        self
    }

    /// Set the cluster node count (see [`TrainerConfig::nodes`]).
    pub fn nodes(mut self, n: usize) -> Self {
        self.cfg.nodes = n;
        self
    }

    /// Set the per-device host thread count.
    pub fn host_workers(mut self, n: usize) -> Self {
        self.cfg.host_workers = Some(n);
        self
    }

    /// Validate the assembled configuration and hand it out.
    pub fn build(self) -> Result<TrainerConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = TrainerConfig::builder(1024, Platform::volta())
            .build()
            .unwrap();
        assert_eq!(cfg.iterations, 100);
        assert!(cfg.compressed);
        assert!(cfg.use_shared_memory);
        assert!(cfg.prefetch, "WorkSchedule2 overlap is the paper default");
        assert!(cfg.chunks_per_gpu.is_none());
    }

    #[test]
    fn phi_bytes_respect_compression() {
        let mut cfg = TrainerConfig::builder(1000, Platform::maxwell())
            .build()
            .unwrap();
        assert_eq!(cfg.phi_device_bytes(100), (100_000 + 1000) * 2);
        cfg.compressed = false;
        assert_eq!(cfg.phi_device_bytes(100), (100_000 + 1000) * 4);
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert_eq!(
            TrainerConfig::builder(0, Platform::maxwell())
                .build()
                .unwrap_err(),
            ConfigError::BadTopicCount(0)
        );
        assert_eq!(
            TrainerConfig::builder(MAX_TOPICS + 1, Platform::maxwell())
                .build()
                .unwrap_err(),
            ConfigError::BadTopicCount(MAX_TOPICS + 1)
        );
        let mut headless = Platform::maxwell();
        headless.num_gpus = 0;
        assert_eq!(
            TrainerConfig::builder(8, headless).build().unwrap_err(),
            ConfigError::NoGpus
        );
    }

    #[test]
    fn validate_catches_field_degeneracy() {
        let ok = TrainerConfig::builder(8, Platform::maxwell())
            .build()
            .unwrap();
        assert!(ok.validate().is_ok());
        let mut broken = ok.clone();
        broken.iterations = 0;
        assert_eq!(broken.validate().unwrap_err(), ConfigError::NoIterations);
        let mut broken = ok.clone();
        broken.host_workers = Some(0);
        assert_eq!(broken.validate().unwrap_err(), ConfigError::NoHostWorkers);
        let mut broken = ok.clone();
        broken.chunks_per_gpu = Some(0);
        assert_eq!(broken.validate().unwrap_err(), ConfigError::NoChunks);
    }

    #[test]
    fn builder_validates_once_at_build() {
        let cfg = TrainerConfig::builder(16, Platform::maxwell())
            .iterations(7)
            .seed(3)
            .score_every(2)
            .host_workers(2)
            .prefetch(false)
            .build()
            .unwrap();
        assert_eq!(cfg.iterations, 7);
        assert!(!cfg.prefetch);
        // Degenerate values survive until build(), then fail with the
        // right error.
        assert_eq!(
            TrainerConfig::builder(0, Platform::maxwell())
                .build()
                .unwrap_err(),
            ConfigError::BadTopicCount(0)
        );
    }

    #[test]
    fn errors_render_actionable_messages() {
        let msg = TrainerConfig::builder(0, Platform::maxwell())
            .build()
            .unwrap_err()
            .to_string();
        assert!(msg.contains("num_topics"), "{msg}");
    }

    #[test]
    fn sync_mode_round_trips_through_strings() {
        for mode in [
            SyncMode::Auto,
            SyncMode::DenseTree,
            SyncMode::DenseRing,
            SyncMode::Delta,
        ] {
            assert_eq!(mode.to_string().parse::<SyncMode>().unwrap(), mode);
        }
        let e = "nvlink".parse::<SyncMode>().unwrap_err();
        assert_eq!(e.kind, "sync mode");
        assert_eq!(e.expected, SyncMode::NAMES);
        assert!(e.to_string().contains("dense-tree"), "{e}");
    }

    #[test]
    fn sampling_mode_round_trips_through_strings() {
        for mode in [
            SamplingMode::Auto,
            SamplingMode::Dense,
            SamplingMode::Sparse,
        ] {
            assert_eq!(mode.to_string().parse::<SamplingMode>().unwrap(), mode);
        }
        let e = "csr".parse::<SamplingMode>().unwrap_err();
        assert!(e.to_string().contains("sampling mode"), "{e}");
        // Paper-exact default, overridable through the builder.
        let cfg = TrainerConfig::builder(8, Platform::maxwell())
            .build()
            .unwrap();
        assert_eq!(cfg.sampling_mode, SamplingMode::Dense);
        let built = TrainerConfig::builder(8, Platform::maxwell())
            .sampling_mode(SamplingMode::Sparse)
            .build()
            .unwrap();
        assert_eq!(built.sampling_mode, SamplingMode::Sparse);
    }

    #[test]
    fn canonical_name_tables_agree_with_display() {
        // Every canonical name parses back to a mode whose Display is
        // that name — the property the CLI usage text relies on.
        for &name in SyncMode::NAMES {
            assert_eq!(name.parse::<SyncMode>().unwrap().to_string(), name);
        }
        for &name in SamplingMode::NAMES {
            assert_eq!(name.parse::<SamplingMode>().unwrap().to_string(), name);
        }
        for &name in DrawMode::NAMES {
            assert_eq!(name.parse::<DrawMode>().unwrap().to_string(), name);
        }
        assert_eq!(SyncMode::usage(), "auto|dense-tree|dense-ring|delta");
        assert_eq!(SamplingMode::usage(), "auto|dense|sparse");
        assert_eq!(DrawMode::usage(), "auto|tree|butterfly");
    }

    #[test]
    fn draw_mode_defaults_to_tree_and_round_trips_through_builder() {
        let cfg = TrainerConfig::builder(8, Platform::maxwell())
            .build()
            .unwrap();
        assert_eq!(cfg.draw_mode, DrawMode::Tree);
        let built = TrainerConfig::builder(8, Platform::maxwell())
            .draw_mode(DrawMode::Butterfly)
            .build()
            .unwrap();
        assert_eq!(built.draw_mode, DrawMode::Butterfly);
        let e = "warp".parse::<DrawMode>().unwrap_err();
        assert_eq!(e.kind, "draw mode");
        assert_eq!(e.expected, DrawMode::NAMES);
    }
}
