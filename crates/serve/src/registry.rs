//! The versioned model registry: named, numbered [`FrozenModel`]s.
//!
//! Publishing is the only way a model enters the serving tier. Each name
//! owns a monotonically numbered history (first publish is v1); the
//! control plane always serves a name's *latest* version, and a blue/green
//! hot-swap is just "publish, then re-pool from latest". Snapshots are
//! handed out as [`Arc`]s, so a whole engine pool shares one ϕ.
//!
//! Iteration order everywhere is the [`BTreeMap`]'s name order — the
//! registry's listing, like everything else in the repo, is deterministic.

use crate::api::ModelVersion;
use crate::frozen::FrozenModel;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// A thread-safe map of model name → version history: version `v` of a
/// name is its history's entry `v - 1`.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    inner: Mutex<BTreeMap<String, Vec<Arc<FrozenModel>>>>,
}

/// Version number of a history's entry `i`.
fn version_of(i: usize) -> u32 {
    u32::try_from(i + 1).expect("a name has fewer than 2^32 versions")
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Vec<Arc<FrozenModel>>>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publishes `model` under `name`, assigning the next version number
    /// (1 for a new name). Accepts an owned model or an already-shared
    /// [`Arc`].
    pub fn publish(
        &self,
        name: impl Into<String>,
        model: impl Into<Arc<FrozenModel>>,
    ) -> ModelVersion {
        let name = name.into();
        let mut inner = self.lock();
        let history = inner.entry(name.clone()).or_default();
        let version = version_of(history.len());
        history.push(model.into());
        ModelVersion::new(name, version)
    }

    /// The newest version of `name`, if any.
    pub fn latest(&self, name: &str) -> Option<(ModelVersion, Arc<FrozenModel>)> {
        let inner = self.lock();
        let history = inner.get(name)?;
        let m = history.last()?;
        Some((
            ModelVersion::new(name, version_of(history.len() - 1)),
            Arc::clone(m),
        ))
    }

    /// A specific published version of `name`, if any.
    pub fn get(&self, name: &str, version: u32) -> Option<Arc<FrozenModel>> {
        let i = (version as usize).checked_sub(1)?;
        self.lock().get(name)?.get(i).cloned()
    }

    /// Version numbers of `name`, ascending.
    pub fn versions(&self, name: &str) -> Vec<u32> {
        let len = self.lock().get(name).map_or(0, Vec::len);
        (0..len).map(version_of).collect()
    }

    /// All published names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.lock().keys().cloned().collect()
    }

    /// Total published `(name, version)` snapshots.
    pub fn len(&self) -> usize {
        self.lock().values().map(Vec::len).sum()
    }

    /// Whether nothing is published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culda_sampler::{PhiModel, Priors};

    fn model() -> FrozenModel {
        FrozenModel::from_phi(PhiModel::zeros(4, 6, Priors::paper(4)))
    }

    #[test]
    fn publish_numbers_versions_monotonically() {
        let reg = ModelRegistry::new();
        assert!(reg.is_empty());
        assert_eq!(reg.publish("news", model()), ModelVersion::new("news", 1));
        assert_eq!(reg.publish("news", model()), ModelVersion::new("news", 2));
        assert_eq!(reg.publish("mail", model()), ModelVersion::new("mail", 1));
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.names(), vec!["mail".to_string(), "news".to_string()]);
        assert_eq!(reg.versions("news"), vec![1, 2]);
        let (latest, _) = reg.latest("news").unwrap();
        assert_eq!(latest.version, 2);
        assert!(reg.get("news", 1).is_some());
        assert!(reg.get("news", 3).is_none());
        assert!(reg.latest("ghost").is_none());
    }
}
