//! The full production loop: preprocess → train → checkpoint → reload →
//! fold in held-out documents → report perplexity and topic coherence.
//!
//! ```sh
//! cargo run --release --example held_out
//! ```

use culda::corpus::{prune_vocab, Corpus, Document, PruneSpec, SynthSpec};
use culda::gpusim::Platform;
use culda::metrics::CoOccurrence;
use culda::multigpu::{CuldaTrainer, TrainerConfig};
use culda::sampler::{load_phi, save_phi};
use culda::serve::{HeldOutEvaluator, ServeConfig};
use std::collections::HashSet;

fn main() {
    // 1. Generate and split a corpus: 90% train, 10% held out.
    let mut spec = SynthSpec::tiny();
    spec.num_docs = 600;
    spec.vocab_size = 800;
    spec.avg_doc_len = 50.0;
    let full = spec.generate();
    let split = full.num_docs() * 9 / 10;
    let train_corpus = Corpus::new(
        full.docs[..split].to_vec(),
        culda::corpus::Vocab::synthetic(full.vocab_size()),
    );
    let held_out: Vec<Document> = full.docs[split..].to_vec();

    // 2. Preprocess: prune rare words and stopwords.
    let pruned = prune_vocab(
        &train_corpus,
        &PruneSpec {
            min_doc_freq: 2,
            max_doc_fraction: 0.4,
            max_vocab: None,
        },
    );
    println!(
        "vocabulary: {} -> {} after pruning; {} train docs, {} held out",
        train_corpus.vocab_size(),
        pruned.corpus.vocab_size(),
        pruned.corpus.num_docs(),
        held_out.len()
    );

    // 3. Train and checkpoint.
    let k = 16;
    let cfg = TrainerConfig::builder(k, Platform::volta())
        .iterations(40)
        .score_every(0)
        .build()
        .unwrap();
    let trainer_corpus = pruned.corpus;
    let mut trainer = CuldaTrainer::try_new(&trainer_corpus, cfg).unwrap();
    for _ in 0..40 {
        trainer.try_step().unwrap();
    }
    let mut checkpoint = Vec::new();
    save_phi(trainer.global_phi(), &mut checkpoint).expect("serialize model");
    println!(
        "trained: loglik/token {:.4}; checkpoint = {} KiB",
        trainer.loglik_per_token(),
        checkpoint.len() / 1024
    );

    // 4. Reload (as a serving process would) and fold in the held-out set
    //    through the serving path's `lda_infer` kernel.
    let model = load_phi(checkpoint.as_slice()).expect("reload model");
    let remapped: Vec<Document> = held_out
        .iter()
        .map(|d| {
            Document::new(
                d.words
                    .iter()
                    .filter_map(|&w| pruned.old_to_new[w as usize])
                    .collect(),
            )
        })
        .collect();
    let held_corpus = Corpus::new(remapped, culda::corpus::Vocab::synthetic(model.vocab_size));
    let perplexity = HeldOutEvaluator::new(&held_corpus, ServeConfig::new(99))
        .and_then(|mut eval| eval.evaluate(&model))
        .expect("fold in the held-out set")
        .perplexity;
    println!(
        "held-out perplexity: {perplexity:.1} (uniform would be {})",
        model.vocab_size
    );

    // 5. Topic coherence of the learned topics on the training documents.
    let top_n = 8;
    let tops: Vec<Vec<u32>> = (0..k)
        .map(|t| {
            model
                .top_words(t, top_n)
                .into_iter()
                .map(|(w, _)| w)
                .collect()
        })
        .collect();
    let track: HashSet<u32> = tops.iter().flatten().copied().collect();
    let index = CoOccurrence::build(
        trainer_corpus.docs.iter().map(|d| d.words.as_slice()),
        &track,
    );
    let mut scores: Vec<f64> = tops.iter().map(|t| index.umass_coherence(t, 1.0)).collect();
    scores.sort_by(|a, b| b.partial_cmp(a).unwrap());
    println!(
        "UMass coherence over {} topics: best {:.1}, median {:.1}, worst {:.1}",
        k,
        scores[0],
        scores[k / 2],
        scores[k - 1]
    );
    assert!(perplexity < model.vocab_size as f64, "must beat uniform");
}
