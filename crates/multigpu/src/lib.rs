//! # culda-multigpu
//!
//! Multi-GPU orchestration for CuLDA_CGS (Sections 4–5): token-balanced
//! partition-by-document, or partition-by-word for the Section 4
//! comparison ([`partition`]), the `M` memory-planning rule and
//! round-robin schedule of Algorithm 1 ([`schedule`]), the Figure 4
//! reduce/broadcast ϕ synchronization ([`sync`], summed through the Δϕ
//! payloads of [`delta`] and charged dense or sparse), the per-GPU worker that
//! owns a device plus its chunks and ϕ replicas and runs the iteration
//! body on its own host thread ([`worker`]), and the end-to-end trainer
//! with WorkSchedule1/WorkSchedule2 and sync/θ-update overlap
//! ([`trainer`]) — on one node or, through the parameter server of
//! [`cluster`], on many. Both partition policies run through that one
//! trainer; [`build_trainer`] picks the chunk layout.

//! ```
//! use culda_corpus::SynthSpec;
//! use culda_gpusim::Platform;
//! use culda_multigpu::{CuldaTrainer, TrainerConfig};
//!
//! let corpus = SynthSpec::tiny().generate();
//! let cfg = TrainerConfig::builder(8, Platform::volta())
//!     .iterations(3)
//!     .score_every(0)
//!     .build()
//!     .unwrap();
//! let trainer = CuldaTrainer::try_new(&corpus, cfg).unwrap();
//! let outcome = trainer.try_train().unwrap();
//! assert_eq!(outcome.history.len(), 3);
//! assert!(outcome.final_loglik_per_token.is_finite());
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod cluster;
pub mod config;
pub mod delta;
pub mod error;
pub mod partition;
pub mod policy;
pub mod resume;
pub mod schedule;
pub mod sync;
pub mod trainer;
pub mod worker;

pub use api::{build_trainer, LdaTrainer, PartitionPolicy};
pub use cluster::{ClusterTrainer, ParameterServer};
pub use config::{
    ConfigError, DrawMode, ModeParseError, SamplingMode, SyncMode, TrainerConfig,
    TrainerConfigBuilder,
};
pub use delta::{dense_cutover, row_encoding, DeltaPayload, RowFormat};
pub use error::{CuldaError, RecoveryStats};
pub use partition::PartitionedCorpus;
pub use policy::{compare_policies, compare_policies_analytic, PolicyComparison};
pub use resume::{resume_any, save_assignments, save_training};
pub use schedule::{chunk_owner, plan_partition, MemoryPlan};
pub use sync::{sync_phi, SyncReport, SyncTotals};
pub use trainer::{CuldaTrainer, TrainOutcome};
pub use worker::{run_workers, run_workers_traced, GpuWorker};
