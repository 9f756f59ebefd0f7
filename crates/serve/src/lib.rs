//! # culda-serve
//!
//! The serving subsystem: frozen-model inference on the simulated GPU
//! fleet. A [`FrozenModel`] is a read-only ϕ snapshot (loadable from the
//! `CULDAPHI` checkpoint a training run writes); an [`InferenceEngine`]
//! packs held-out documents into micro-batches and fans them across
//! replica-less `GpuWorker`s as warp-per-document fold-in kernels — ϕ is
//! never written, so there are no atomics and no sync phase. Serving
//! returns per-document θ̂ and skips all scoring; evaluation returns the
//! same θ̂ scored: held-out perplexity and its burn-in curve.
//!
//! Above the engine sits the serving control plane: a versioned
//! [`ModelRegistry`] of named snapshots, a [`ShardRouter`] assigning
//! tenants to engine pools (capacity-limited, with dead pools draining
//! to survivors), an [`AdmissionQueue`] doing SLO-aware micro-batch
//! admission, and a [`ServingPlane`] composing all three with
//! zero-downtime blue/green hot-swap. Every backend is a
//! [`Box<dyn Infer>`], so the plane never depends on the concrete
//! engine.

//! ```
//! use culda_sampler::{accumulate_phi_host, ChunkState, PhiModel, Priors};
//! use culda_corpus::{partition_by_tokens, SortedChunk, SynthSpec};
//! use culda_serve::{FrozenModel, InferenceEngine, ServeConfig};
//! use std::sync::Arc;
//!
//! // A (toy) trained ϕ, frozen into a serving snapshot.
//! let corpus = SynthSpec::tiny().generate();
//! let chunk = SortedChunk::build(&corpus, &partition_by_tokens(&corpus, 1)[0]);
//! let state = ChunkState::init_random(&chunk, 8, 5);
//! let phi = PhiModel::zeros(8, corpus.vocab_size(), Priors::paper(8));
//! accumulate_phi_host(&chunk, &state.z, &phi);
//! let model = Arc::new(FrozenModel::from_phi(phi));
//!
//! let cfg = ServeConfig::builder(42).workers(2).batch_size(4).build().unwrap();
//! let docs: Vec<Vec<u32>> = corpus.docs.iter().take(8).map(|d| d.words.clone()).collect();
//! // Serving: θ̂ only, nothing scored.
//! let served = InferenceEngine::new(Arc::clone(&model), cfg.clone())
//!     .infer_batch(&docs)
//!     .unwrap();
//! assert_eq!(served.theta.len(), 8);
//!
//! // Evaluation: a fresh engine replays the same RNG streams, so it draws
//! // the same θ̂, and scores it.
//! let eval = InferenceEngine::new(model, cfg).evaluate_batch(&docs).unwrap();
//! assert_eq!(eval.outcome.theta, served.theta);
//! assert!(eval.perplexity.is_finite());
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod api;
pub mod engine;
pub mod error;
pub mod eval;
pub mod frozen;
pub mod loadgen;
pub mod plane;
pub mod registry;
pub mod router;

pub use admission::{AdmissionConfig, AdmissionQueue, AdmittedBatch, ServeRequest};
pub use api::{Infer, ModelVersion};
pub use engine::{Evaluation, InferenceEngine, InferenceOutcome, ServeConfig, ServeConfigBuilder};
pub use error::ServeError;
pub use eval::{HeldOutEvaluator, EVAL_TOP_WORDS};
pub use frozen::FrozenModel;
pub use loadgen::{LoadGenerator, LoadReport, LoadSpec};
pub use plane::{PlaneConfig, ServingPlane, SwapReport};
pub use registry::ModelRegistry;
pub use router::{CompletedRequest, PoolStats, ShardRouter};
