//! Topic modeling over raw text: tokenize real prose, train, and print
//! human-readable topics.
//!
//! ```sh
//! cargo run --release --example text_topics
//! ```

use culda::corpus::TextPipeline;
use culda::gpusim::Platform;
use culda::multigpu::{CuldaTrainer, TrainerConfig};

/// A tiny hand-written corpus with three obvious themes (computing,
/// cooking, astronomy), repeated with variations so the sampler has
/// signal to work with.
fn documents() -> Vec<String> {
    let themes = [
        vec![
            "the processor executes kernels across many parallel threads",
            "memory bandwidth limits the kernel throughput on the processor",
            "threads share memory banks while the scheduler issues warps",
            "parallel kernels saturate bandwidth when threads coalesce loads",
            "the scheduler keeps the processor busy with pending warps",
        ],
        vec![
            "simmer the onions in butter until golden and fragrant",
            "season the sauce with garlic pepper and fresh basil",
            "knead the dough then let it rest before baking the bread",
            "roast the garlic and fold it into the butter sauce",
            "bake the bread until the crust turns golden and crisp",
        ],
        vec![
            "the telescope resolved a distant galaxy behind the nebula",
            "astronomers measured the orbit of the planet around its star",
            "the nebula glows where young stars ionize the surrounding gas",
            "a survey telescope catalogued thousands of variable stars",
            "the planet transits its star dimming the light we measure",
        ],
    ];
    // 20 documents per theme: sample sentences with repetition.
    let mut docs = Vec::new();
    for (t, sentences) in themes.iter().enumerate() {
        for i in 0..20 {
            let a = sentences[i % sentences.len()];
            let b = sentences[(i * 2 + t) % sentences.len()];
            let c = sentences[(i * 3 + 1) % sentences.len()];
            docs.push(format!("{a}. {b}. {c}."));
        }
    }
    docs
}

fn main() {
    let docs = documents();
    let pipeline = TextPipeline::default();
    let corpus = pipeline.build_corpus(docs.iter().map(String::as_str));
    println!(
        "tokenized {} documents into {} tokens over {} words\n",
        corpus.num_docs(),
        corpus.num_tokens(),
        corpus.vocab_size()
    );

    let k = 3;
    let cfg = TrainerConfig::builder(k, Platform::maxwell())
        .iterations(80)
        .score_every(0)
        .seed(11)
        .build()
        .unwrap();
    let mut trainer = CuldaTrainer::try_new(&corpus, cfg).unwrap();
    for _ in 0..80 {
        trainer.try_step().unwrap();
    }

    println!("discovered topics (top words):");
    let phi = trainer.global_phi();
    for t in 0..k {
        let words: Vec<String> = phi
            .top_words(t, 6)
            .into_iter()
            .map(|(w, _)| corpus.vocab.word(w).to_string())
            .collect();
        println!("  topic {t}: {}", words.join(" "));
    }
    println!("\n(expect one computing, one cooking, one astronomy topic)");
}
