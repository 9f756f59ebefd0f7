//! Typed serving errors.
//!
//! Serving has the same failure surface as training — bad configuration,
//! bad input, and simulated device faults — but its own recovery policy:
//! micro-batches are stateless (ϕ is frozen, posteriors are pure return
//! values), so a lost worker's in-flight batches are simply re-enqueued
//! on the survivors. [`ServeError`] is what escapes when that recovery is
//! exhausted.

use culda_gpusim::SimFault;
use std::error::Error;
use std::fmt;

/// Everything [`InferenceEngine`](crate::InferenceEngine) can fail with.
#[derive(Debug)]
pub enum ServeError {
    /// The [`ServeConfig`](crate::ServeConfig) cannot serve anything
    /// (zero workers, zero batch size, zero retry budget, ...).
    Config(String),
    /// The input batch is unusable: empty, or a document references a
    /// word id outside the model vocabulary.
    Invalid(String),
    /// A worker exhausted its retry budget and was removed from the
    /// fleet while no survivor could absorb its micro-batches.
    WorkerLost {
        /// Simulated GPU ordinal of the lost worker.
        device: usize,
        /// Launch attempts made before giving up.
        attempts: u32,
    },
    /// Every worker in the fleet is dead; nothing can be re-enqueued.
    AllWorkersLost,
    /// A worker thread panicked — a bug, not an injected fault.
    WorkerPanicked {
        /// Simulated GPU ordinal of the panicked worker.
        device: usize,
    },
    /// The admission queue is full; the request was rejected at submit.
    Overloaded {
        /// Documents already queued when the request arrived.
        queued_docs: usize,
        /// The queue's configured document limit.
        limit: usize,
    },
    /// A registry lookup named a model that was never published.
    UnknownModel(String),
    /// A simulated device fault that recovery does not cover.
    Sim(SimFault),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "invalid serving configuration: {msg}"),
            ServeError::Invalid(msg) => write!(f, "invalid input: {msg}"),
            ServeError::WorkerLost { device, attempts } => {
                write!(f, "worker on gpu {device} lost after {attempts} attempt(s)")
            }
            ServeError::AllWorkersLost => write!(f, "all workers lost; cannot serve"),
            ServeError::WorkerPanicked { device } => {
                write!(f, "worker on gpu {device} panicked")
            }
            ServeError::Overloaded { queued_docs, limit } => {
                write!(
                    f,
                    "admission queue overloaded: {queued_docs} docs queued, limit {limit}"
                )
            }
            ServeError::UnknownModel(name) => {
                write!(f, "model '{name}' is not in the registry")
            }
            ServeError::Sim(e) => write!(f, "device fault: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimFault> for ServeError {
    fn from(e: SimFault) -> Self {
        ServeError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ServeError::Invalid(
            "document 3 has word id 9, outside the model vocabulary of 5".into(),
        );
        assert!(e.to_string().contains("outside the model vocabulary"));
        assert!(ServeError::WorkerLost {
            device: 1,
            attempts: 3
        }
        .to_string()
        .contains("gpu 1"));
        assert!(ServeError::AllWorkersLost
            .to_string()
            .contains("all workers"));
    }
}
