//! The unified serving surface.
//!
//! The control plane composes many inference backends — registry entries,
//! engine pools behind the shard router, blue/green engines mid-swap —
//! and none of that composition should care that the backend is the
//! concrete [`InferenceEngine`](crate::InferenceEngine). [`Infer`] is the
//! one object-safe contract they share, mirroring how `culda-multigpu`
//! exposes training behind `LdaTrainer`: a `&self` entry point (interior
//! mutability inside the engine), latency quantiles, recovery statistics,
//! and the model version being served. [`ModelRegistry`](crate::ModelRegistry)
//! and [`ShardRouter`](crate::ShardRouter) hold `Box<dyn Infer>` and stop
//! caring what is underneath.

use crate::engine::InferenceOutcome;
use crate::error::ServeError;
use culda_multigpu::RecoveryStats;
use std::fmt;

/// A named, numbered model snapshot — the identity a registry entry,
/// an engine pool, and a hot-swap all agree on.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelVersion {
    /// Registry name the snapshot was published under.
    pub name: String,
    /// Monotonic version within the name (first publish is 1).
    pub version: u32,
}

impl ModelVersion {
    /// A version handle for `name` at `version`.
    pub fn new(name: impl Into<String>, version: u32) -> Self {
        Self {
            name: name.into(),
            version,
        }
    }

    /// The placeholder identity of an engine built outside any registry
    /// (version 0 is never assigned by [`crate::ModelRegistry`]).
    pub fn unversioned() -> Self {
        Self::new("model", 0)
    }
}

impl fmt::Display for ModelVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@v{}", self.name, self.version)
    }
}

/// The object-safe inference contract every serving backend implements.
///
/// `infer_batch` takes `&self` on purpose: the engine serializes its fleet
/// internally, so registry entries and router pools can share backends
/// without threading `&mut` through the whole control plane. `Send + Sync`
/// bounds let the router serve its pools from one host thread each, and
/// let load generators and evaluation drive them from worker threads.
pub trait Infer: Send + Sync {
    /// Infers θ̂ for a batch of documents (token word-id lists), in input
    /// order. The serving call: nothing is scored (see
    /// [`InferenceEngine::evaluate_batch`](crate::InferenceEngine::evaluate_batch)).
    fn infer_batch(&self, docs: &[Vec<u32>]) -> Result<InferenceOutcome, ServeError>;

    /// `(p50, p95, p99)` micro-batch latency in seconds, or `None` before
    /// the first micro-batch completes.
    fn latency_quantiles(&self) -> Option<(f64, f64, f64)>;

    /// Fault-recovery statistics accumulated across everything served.
    fn recovery(&self) -> RecoveryStats;

    /// The model version this backend serves.
    fn model_version(&self) -> ModelVersion;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_version_displays_name_and_number() {
        let v = ModelVersion::new("news", 3);
        assert_eq!(v.to_string(), "news@v3");
        assert_eq!(ModelVersion::unversioned().version, 0);
        assert!(ModelVersion::new("news", 2) < v);
    }
}
