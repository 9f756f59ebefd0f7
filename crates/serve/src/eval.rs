//! Periodic held-out evaluation during training (`culda train
//! --eval-every N`).
//!
//! Every evaluation deep-copies the live trainer's ϕ into a [`FrozenModel`]
//! and folds the held-out split through a *fresh* [`InferenceEngine`] — its
//! own simulated devices and its own per-document RNG streams, completely
//! disjoint from the training RNG. Training state is only ever read, so a
//! run with evaluation enabled trains the bit-identical model to one
//! without: the invariant every other subsystem (sync modes, sampling
//! modes, fault recovery) already upholds.
//!
//! Besides held-out perplexity / log-predictive, each evaluation records
//! topic-quality gauges: mean UMass coherence of the topics' top words over
//! the held-out documents, the mean nonzero topic count per ϕ row, and
//! topic drift (the fraction of top words replaced since the previous
//! evaluation) — the signal that distinguishes "converged" from "stuck".

use crate::engine::{InferenceEngine, ServeConfig};
use crate::error::ServeError;
use crate::frozen::FrozenModel;
use culda_corpus::Corpus;
use culda_metrics::{CoOccurrence, EvalRecord, MetricsRegistry};
use culda_sampler::LdaModel;
use std::collections::HashSet;

/// Top words per topic used for coherence and drift (UMass convention).
pub const EVAL_TOP_WORDS: usize = 10;

/// Held-out split plus the state needed to score drift between evaluations.
#[derive(Debug)]
pub struct HeldOutEvaluator {
    docs: Vec<Vec<u32>>,
    tokens: u64,
    cfg: ServeConfig,
    prev_top: Option<Vec<Vec<u32>>>,
    evals_run: u32,
}

impl HeldOutEvaluator {
    /// Builds an evaluator over `held_out` (typically the second half of
    /// [`culda_corpus::split_held_out`]). `cfg` shapes the inference fleet;
    /// its seed is the *evaluation* seed, unrelated to the training seed.
    pub fn new(held_out: &Corpus, cfg: ServeConfig) -> Result<Self, ServeError> {
        cfg.validate()?;
        let docs: Vec<Vec<u32>> = held_out.docs.iter().map(|d| d.words.clone()).collect();
        if docs.iter().all(|d| d.is_empty()) {
            return Err(ServeError::Invalid(
                "held-out split has no tokens to score".into(),
            ));
        }
        let tokens = docs.iter().map(|d| d.len() as u64).sum();
        Ok(Self {
            docs,
            tokens,
            cfg,
            prev_top: None,
            evals_run: 0,
        })
    }

    /// Held-out tokens that each evaluation scores.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Evaluations run so far.
    pub fn evals_run(&self) -> u32 {
        self.evals_run
    }

    /// Scores the model's current ϕ against the held-out split. Read-only
    /// with respect to `model`; each call spins up (and drops) its own
    /// inference fleet.
    pub fn evaluate(&mut self, model: &dyn LdaModel) -> Result<EvalRecord, ServeError> {
        let frozen = FrozenModel::freeze(model);
        let k = frozen.phi().num_topics;
        let vocab = frozen.phi().vocab_size;

        let engine = InferenceEngine::new(frozen, self.cfg.clone());
        let evaluation = engine.evaluate_batch(&self.docs)?;
        let log_predictive = -evaluation.perplexity.ln();

        // Topic-quality gauges read the engine's frozen copy, not the live
        // trainer, so the trainer can keep running while we score.
        let phi = engine.model().phi();
        let top: Vec<Vec<u32>> = (0..k)
            .map(|t| {
                phi.top_words(t, EVAL_TOP_WORDS)
                    .into_iter()
                    .map(|(w, _)| w)
                    .collect()
            })
            .collect();
        let track: HashSet<u32> = top.iter().flatten().copied().collect();
        let co = CoOccurrence::build(self.docs.iter().map(Vec::as_slice), &track);
        let scored: Vec<f64> = top
            .iter()
            .filter(|words| words.len() >= 2)
            .map(|words| co.umass_coherence(words, 1.0))
            .collect();
        let coherence = if scored.is_empty() {
            0.0
        } else {
            scored.iter().sum::<f64>() / scored.len() as f64
        };

        let phi_nnz_per_row = phi.phi.total_nnz() as f64 / vocab.max(1) as f64;
        let topic_drift = self.prev_top.as_ref().map(|prev| drift(prev, &top));
        self.prev_top = Some(top);
        self.evals_run += 1;

        Ok(EvalRecord {
            perplexity: evaluation.perplexity,
            log_predictive,
            coherence,
            phi_nnz_per_row,
            topic_drift,
        })
    }

    /// [`Self::evaluate`] plus gauge export: writes each figure into `reg`
    /// under `eval.*` so dashboards and the OpenMetrics exposition see the
    /// latest evaluation.
    pub fn evaluate_into(
        &mut self,
        model: &dyn LdaModel,
        reg: &MetricsRegistry,
    ) -> Result<EvalRecord, ServeError> {
        let record = self.evaluate(model)?;
        reg.gauge("eval.perplexity").set(record.perplexity);
        reg.gauge("eval.log_predictive").set(record.log_predictive);
        reg.gauge("eval.coherence").set(record.coherence);
        reg.gauge("eval.phi_nnz_per_row")
            .set(record.phi_nnz_per_row);
        if let Some(d) = record.topic_drift {
            reg.gauge("eval.topic_drift").set(d);
        }
        reg.counter("eval.runs").inc();
        Ok(record)
    }
}

/// Mean over topics of the fraction of top words replaced since `prev`.
fn drift(prev: &[Vec<u32>], cur: &[Vec<u32>]) -> f64 {
    if cur.is_empty() {
        return 0.0;
    }
    let per_topic: f64 = prev
        .iter()
        .zip(cur)
        .map(|(p, c)| {
            if c.is_empty() {
                return 0.0;
            }
            let prev_set: HashSet<u32> = p.iter().copied().collect();
            let kept = c.iter().filter(|w| prev_set.contains(w)).count();
            1.0 - kept as f64 / c.len() as f64
        })
        .sum();
    per_topic / cur.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use culda_corpus::SynthSpec;
    use culda_sampler::{PhiModel, Priors};

    fn topical_phi(k: usize, vocab: usize) -> PhiModel {
        let phi = PhiModel::zeros(k, vocab, Priors::paper(k));
        // Block-diagonal topics: topic t owns words [t*vocab/k, (t+1)*vocab/k).
        let span = vocab / k;
        for t in 0..k {
            for w in t * span..(t + 1) * span {
                phi.phi.set(w, t, 50);
                phi.phi_sum.fetch_add(t, 50);
            }
        }
        phi
    }

    fn held_out() -> Corpus {
        SynthSpec {
            seed: 11,
            ..SynthSpec::tiny()
        }
        .generate()
    }

    fn eval_cfg() -> ServeConfig {
        ServeConfig::builder(99)
            .workers(1)
            .burnin(3)
            .samples(2)
            .build()
            .unwrap()
    }

    #[test]
    fn evaluation_produces_finite_scores_and_tracks_drift() {
        let corpus = held_out();
        let vocab = corpus.vocab.len();
        let mut eval = HeldOutEvaluator::new(&corpus, eval_cfg()).unwrap();
        let phi = topical_phi(8, vocab);
        let r1 = eval.evaluate(&phi).unwrap();
        assert!(r1.perplexity.is_finite() && r1.perplexity > 1.0);
        assert!((r1.log_predictive + r1.perplexity.ln()).abs() < 1e-12);
        assert!(r1.phi_nnz_per_row > 0.0);
        assert_eq!(r1.topic_drift, None, "first evaluation has no baseline");
        // Unchanged ϕ ⇒ zero drift.
        let r2 = eval.evaluate(&phi).unwrap();
        assert_eq!(r2.topic_drift, Some(0.0));
        assert_eq!(r2.perplexity, r1.perplexity, "same ϕ, same eval seed");
        // A reshuffled ϕ ⇒ positive drift.
        let shifted = topical_phi(8, vocab);
        for t in 0..8 {
            // Move topic t's mass to different words.
            let span = vocab / 8;
            for w in 0..span {
                shifted.phi.set((t * span + w) % vocab, t, 0);
                shifted
                    .phi
                    .set((t * span + w + span / 2 + 1) % vocab, t, 50);
            }
        }
        let r3 = eval.evaluate(&shifted).unwrap();
        assert!(r3.topic_drift.unwrap() > 0.0);
        assert_eq!(eval.evals_run(), 3);
    }

    #[test]
    fn gauges_land_in_registry() {
        let corpus = held_out();
        let vocab = corpus.vocab.len();
        let mut eval = HeldOutEvaluator::new(&corpus, eval_cfg()).unwrap();
        let reg = MetricsRegistry::new();
        let phi = topical_phi(4, vocab);
        let r = eval.evaluate_into(&phi, &reg).unwrap();
        assert_eq!(reg.gauge("eval.perplexity").value(), r.perplexity);
        assert_eq!(reg.counter("eval.runs").value(), 1);
    }

    #[test]
    fn empty_held_out_is_rejected() {
        let corpus = Corpus::new(vec![], held_out().vocab);
        assert!(HeldOutEvaluator::new(&corpus, eval_cfg()).is_err());
    }
}
