//! The unified trainer surface.
//!
//! [`CuldaTrainer`] (partition-by-document, the
//! paper's choice) and
//! [`WordPartitionedTrainer`] (the
//! Section 4 alternative) grew near-duplicate accessor surfaces that every
//! consumer — CLI, benches, checkpointing, and now serving — had to
//! special-case. [`LdaTrainer`] is the one object-safe contract they both
//! implement: stepping, scoring, phase accounting, observability
//! attachment, and the assignment snapshot/restore pair that checkpoints
//! are built from. Consumers hold a `Box<dyn LdaTrainer>` and stop caring
//! which partition policy is underneath.

use crate::config::{parse_mode, ModeParseError, TrainerConfig};
use crate::error::{CuldaError, RecoveryStats};
use crate::trainer::CuldaTrainer;
use crate::word_trainer::WordPartitionedTrainer;
use culda_gpusim::{FaultPlan, ProfileLog};
use culda_metrics::{
    Breakdown, GpuBreakdowns, IterationStat, MetricsRegistry, Phase, RunHistory, TraceSink,
};
use culda_sampler::PhiModel;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Which Section 4 partition policy a trainer implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionPolicy {
    /// Partition-by-document (the paper's choice; ϕ replicas synced).
    Document,
    /// Partition-by-word (θ replicas synced, ϕ columns private).
    Word,
}

impl PartitionPolicy {
    /// Canonical flag names, in CLI order — the single source the usage
    /// text, the `FromStr` impl, and the parse error all derive from
    /// (same contract as [`crate::SyncMode::NAMES`]).
    pub const NAMES: &'static [&'static str] = &["doc", "word"];

    const SPELLINGS: &'static [(&'static str, PartitionPolicy)] = &[
        ("doc", PartitionPolicy::Document),
        ("document", PartitionPolicy::Document),
        ("word", PartitionPolicy::Word),
    ];

    /// Short lower-case label (CLI flag value, checkpoint tag).
    pub fn label(self) -> &'static str {
        match self {
            PartitionPolicy::Document => "doc",
            PartitionPolicy::Word => "word",
        }
    }

    /// `"doc|word"` — for usage text.
    pub fn usage() -> String {
        Self::NAMES.join("|")
    }
}

impl fmt::Display for PartitionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for PartitionPolicy {
    type Err = ModeParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_mode("partition policy", Self::SPELLINGS, Self::NAMES, s)
    }
}

/// The trainer contract both partition policies implement.
///
/// Object-safe on purpose: the CLI and benches drive a
/// `Box<dyn LdaTrainer>` chosen at runtime by `--policy`. The assignment
/// snapshot methods make checkpointing policy-agnostic — a trainer's full
/// resumable state is `(iteration, assignments())`, because the RNG
/// streams are keyed by `(seed, iteration, token)` and θ/ϕ are pure
/// functions of the assignments.
pub trait LdaTrainer {
    /// The partition policy underneath.
    fn policy(&self) -> PartitionPolicy;

    /// The run configuration.
    fn config(&self) -> &TrainerConfig;

    /// Number of simulated GPUs driving the run.
    fn num_gpus(&self) -> usize;

    /// Runs one full iteration over the corpus; returns its stats.
    ///
    /// Panics on an unrecoverable simulated fault; fault-tolerant
    /// consumers should drive [`try_step`](LdaTrainer::try_step) instead.
    fn step(&mut self) -> IterationStat;

    /// Fallible variant of [`step`](LdaTrainer::step): an unrecoverable
    /// fault (retry budget exhausted, every worker lost) surfaces as a
    /// [`CuldaError`] instead of a panic.
    fn try_step(&mut self) -> Result<IterationStat, CuldaError>;

    /// Arms a deterministic fault-injection plan on every device this
    /// trainer drives. Subsequent iterations consult the plan at each
    /// kernel launch and transfer.
    fn attach_fault_plan(&mut self, plan: Arc<FaultPlan>);

    /// Fault-recovery statistics accumulated so far: injected faults,
    /// retries, permanently lost workers, migrated chunks.
    fn recovery(&self) -> RecoveryStats;

    /// Timing/scoring history so far.
    fn history(&self) -> &RunHistory;

    /// Accumulated phase breakdown (system view: all GPUs plus shared
    /// sync phases).
    fn breakdown(&self) -> Breakdown;

    /// Per-GPU phase attribution.
    fn per_gpu_breakdowns(&self) -> GpuBreakdowns;

    /// Merged per-kernel launch log (`nvprof`-style).
    fn profile(&self) -> ProfileLog;

    /// Attaches trace/metrics sinks to the trainer and every device it
    /// drives. Never perturbs RNG streams or simulated clocks.
    fn attach_observability(
        &mut self,
        trace: Option<Arc<TraceSink>>,
        metrics: Option<Arc<MetricsRegistry>>,
    );

    /// Joint log-likelihood per token of the current state.
    fn loglik_per_token(&self) -> f64;

    /// Count-conservation audit; panics on violation.
    fn check_invariants(&self);

    /// The current global ϕ — the frozen read view serving snapshots from.
    fn phi(&self) -> &PhiModel;

    /// Iterations completed so far.
    fn iterations_done(&self) -> u32;

    /// Snapshot of every token's topic assignment, one vector per
    /// chunk/shard in the policy's canonical order (the checkpoint
    /// payload).
    fn assignments(&self) -> Vec<Vec<u16>>;

    /// Restores a checkpointed `(iteration, assignments)` state; rebuilds
    /// θ/ϕ and resets timing so the chain continues bit-identically.
    fn restore_assignments(&mut self, iteration: u32, z: &[Vec<u16>]) -> Result<(), String>;
}

impl LdaTrainer for CuldaTrainer {
    fn policy(&self) -> PartitionPolicy {
        PartitionPolicy::Document
    }

    fn config(&self) -> &TrainerConfig {
        &self.cfg
    }

    fn num_gpus(&self) -> usize {
        CuldaTrainer::num_gpus(self)
    }

    fn step(&mut self) -> IterationStat {
        CuldaTrainer::step(self)
    }

    fn try_step(&mut self) -> Result<IterationStat, CuldaError> {
        CuldaTrainer::try_step(self)
    }

    fn attach_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        CuldaTrainer::attach_fault_plan(self, plan)
    }

    fn recovery(&self) -> RecoveryStats {
        CuldaTrainer::recovery(self)
    }

    fn history(&self) -> &RunHistory {
        CuldaTrainer::history(self)
    }

    fn breakdown(&self) -> Breakdown {
        CuldaTrainer::breakdown(self).clone()
    }

    fn per_gpu_breakdowns(&self) -> GpuBreakdowns {
        CuldaTrainer::per_gpu_breakdowns(self)
    }

    fn profile(&self) -> ProfileLog {
        CuldaTrainer::profile(self).clone()
    }

    fn attach_observability(
        &mut self,
        trace: Option<Arc<TraceSink>>,
        metrics: Option<Arc<MetricsRegistry>>,
    ) {
        CuldaTrainer::attach_observability(self, trace, metrics)
    }

    fn loglik_per_token(&self) -> f64 {
        CuldaTrainer::loglik_per_token(self)
    }

    fn check_invariants(&self) {
        CuldaTrainer::check_invariants(self)
    }

    fn phi(&self) -> &PhiModel {
        self.global_phi()
    }

    fn iterations_done(&self) -> u32 {
        CuldaTrainer::iterations_done(self)
    }

    fn assignments(&self) -> Vec<Vec<u16>> {
        self.states().iter().map(|s| s.z.snapshot()).collect()
    }

    fn restore_assignments(&mut self, iteration: u32, z: &[Vec<u16>]) -> Result<(), String> {
        CuldaTrainer::restore_assignments(self, iteration, z)
    }
}

impl LdaTrainer for WordPartitionedTrainer {
    fn policy(&self) -> PartitionPolicy {
        PartitionPolicy::Word
    }

    fn config(&self) -> &TrainerConfig {
        WordPartitionedTrainer::config(self)
    }

    fn num_gpus(&self) -> usize {
        WordPartitionedTrainer::num_gpus(self)
    }

    fn step(&mut self) -> IterationStat {
        WordPartitionedTrainer::step(self)
    }

    fn try_step(&mut self) -> Result<IterationStat, CuldaError> {
        WordPartitionedTrainer::try_step(self)
    }

    fn attach_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        WordPartitionedTrainer::attach_fault_plan(self, plan)
    }

    fn recovery(&self) -> RecoveryStats {
        WordPartitionedTrainer::recovery(self)
    }

    fn history(&self) -> &RunHistory {
        WordPartitionedTrainer::history(self)
    }

    fn breakdown(&self) -> Breakdown {
        // System view: per-GPU sampling/ϕ-rebuild time plus the shared θ
        // sync phase (this policy's analogue of the ϕ sync).
        let mut b = self.per_gpu_breakdowns().merged();
        if self.theta_sync_seconds > 0.0 {
            b.add(Phase::SyncPhi, self.theta_sync_seconds);
        }
        b
    }

    fn per_gpu_breakdowns(&self) -> GpuBreakdowns {
        WordPartitionedTrainer::per_gpu_breakdowns(self)
    }

    fn profile(&self) -> ProfileLog {
        WordPartitionedTrainer::profile(self)
    }

    fn attach_observability(
        &mut self,
        trace: Option<Arc<TraceSink>>,
        metrics: Option<Arc<MetricsRegistry>>,
    ) {
        WordPartitionedTrainer::attach_observability(self, trace, metrics)
    }

    fn loglik_per_token(&self) -> f64 {
        WordPartitionedTrainer::loglik_per_token(self)
    }

    fn check_invariants(&self) {
        WordPartitionedTrainer::check_invariants(self)
    }

    fn phi(&self) -> &PhiModel {
        WordPartitionedTrainer::phi(self)
    }

    fn iterations_done(&self) -> u32 {
        WordPartitionedTrainer::iterations_done(self)
    }

    fn assignments(&self) -> Vec<Vec<u16>> {
        WordPartitionedTrainer::assignments(self)
    }

    fn restore_assignments(&mut self, iteration: u32, z: &[Vec<u16>]) -> Result<(), String> {
        WordPartitionedTrainer::restore_assignments(self, iteration, z)
    }
}

/// Constructs the chosen policy's trainer behind the unified surface —
/// the single entry point every consumer (CLI, benches, serving, tests)
/// uses. The node count is the trainer's own business: the document
/// trainer runs on any number of nodes, the word trainer refuses more
/// than one. Configuration and corpus-shape problems surface as
/// [`CuldaError`]; callers that validated up front just `.unwrap()`.
pub fn build_trainer(
    policy: PartitionPolicy,
    corpus: &culda_corpus::Corpus,
    cfg: TrainerConfig,
) -> Result<Box<dyn LdaTrainer>, CuldaError> {
    Ok(match policy {
        PartitionPolicy::Document => Box::new(CuldaTrainer::try_new(corpus, cfg)?),
        PartitionPolicy::Word => Box::new(WordPartitionedTrainer::try_new(corpus, cfg)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use culda_corpus::SynthSpec;
    use culda_gpusim::Platform;
    use culda_metrics::Phase;

    fn corpus() -> culda_corpus::Corpus {
        let mut spec = SynthSpec::tiny();
        spec.num_docs = 120;
        spec.vocab_size = 200;
        spec.avg_doc_len = 20.0;
        spec.generate()
    }

    fn cfg() -> TrainerConfig {
        TrainerConfig::builder(8, Platform::pascal().with_gpus(2))
            .iterations(2)
            .score_every(0)
            .seed(5)
            .build()
            .unwrap()
    }

    #[test]
    fn policy_labels_round_trip() {
        for p in [PartitionPolicy::Document, PartitionPolicy::Word] {
            assert_eq!(p.label().parse::<PartitionPolicy>().unwrap(), p);
        }
        let e = "gpu".parse::<PartitionPolicy>().unwrap_err();
        assert_eq!(e.kind, "partition policy");
        assert_eq!(e.expected, PartitionPolicy::NAMES);
        // The long-form alias still parses but is not advertised.
        assert_eq!(
            "document".parse::<PartitionPolicy>().unwrap(),
            PartitionPolicy::Document
        );
        assert_eq!(PartitionPolicy::usage(), "doc|word");
    }

    #[test]
    fn both_policies_drive_through_the_trait() {
        let c = corpus();
        for policy in [PartitionPolicy::Document, PartitionPolicy::Word] {
            let mut t = build_trainer(policy, &c, cfg()).unwrap();
            assert_eq!(t.policy(), policy);
            assert_eq!(t.num_gpus(), 2);
            assert_eq!(t.iterations_done(), 0);
            let before = t.loglik_per_token();
            for _ in 0..2 {
                t.step();
            }
            t.check_invariants();
            assert_eq!(t.iterations_done(), 2);
            assert_eq!(t.history().len(), 2);
            assert!(t.loglik_per_token() > before, "{policy} did not improve");
            assert!(t.breakdown().seconds(Phase::Sampling) > 0.0);
            assert_eq!(t.per_gpu_breakdowns().num_gpus(), 2);
            assert!(!t.profile().is_empty());
            assert_eq!(t.phi().num_topics, 8);
            assert_eq!(t.config().num_topics, 8);
        }
    }

    #[test]
    fn snapshot_restore_continues_bit_identically_for_both_policies() {
        let c = corpus();
        for policy in [PartitionPolicy::Document, PartitionPolicy::Word] {
            let mut reference = build_trainer(policy, &c, cfg()).unwrap();
            let mut resumed = build_trainer(policy, &c, cfg()).unwrap();
            reference.step();
            reference.step();
            let snap = reference.assignments();
            let iter = reference.iterations_done();
            resumed
                .restore_assignments(iter, &snap)
                .expect("restore must succeed");
            reference.step();
            resumed.step();
            assert_eq!(
                reference.assignments(),
                resumed.assignments(),
                "{policy} diverged after restore"
            );
            assert!(
                (reference.loglik_per_token() - resumed.loglik_per_token()).abs() < 1e-12,
                "{policy} loglik diverged"
            );
        }
    }

    #[test]
    fn word_policy_refuses_multiple_nodes() {
        let c = corpus();
        let mut two_nodes = cfg();
        two_nodes.nodes = 2;
        let err = match build_trainer(PartitionPolicy::Word, &c, two_nodes) {
            Err(e) => e,
            Ok(_) => panic!("word policy with 2 nodes must be rejected"),
        };
        assert!(matches!(err, CuldaError::Invalid(_)), "{err}");
    }

    #[test]
    fn restore_rejects_shape_mismatch() {
        let c = corpus();
        let mut t = build_trainer(PartitionPolicy::Word, &c, cfg()).unwrap();
        let mut snap = t.assignments();
        snap.pop();
        assert!(t.restore_assignments(1, &snap).is_err());
        let mut t2 = build_trainer(PartitionPolicy::Document, &c, cfg()).unwrap();
        let mut snap2 = t2.assignments();
        snap2[0].pop();
        assert!(t2.restore_assignments(1, &snap2).is_err());
    }
}
