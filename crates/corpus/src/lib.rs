//! # culda-corpus
//!
//! Corpus substrate for the CuLDA_CGS reproduction: document/token storage,
//! the CSR format with the paper's u16 index compression, token-balanced
//! chunking (Figure 3a), the word-first sorted layout plus document–word
//! map the GPU kernels consume (Sections 6.1.2 and 6.2), synthetic corpus
//! generation with NYTimes-/PubMed-matched statistics (Table 3), and the
//! deterministic splittable RNG that gives each GPU sampler its own stream.

//! ```
//! use culda_corpus::{partition_by_tokens, SortedChunk, SynthSpec};
//!
//! // Generate a corpus with genuine topics, split it for 2 GPUs, and lay
//! // each chunk out word-major for the sampling kernels.
//! let corpus = SynthSpec::tiny().generate();
//! let chunks = partition_by_tokens(&corpus, 2);
//! let sorted: Vec<SortedChunk> =
//!     chunks.iter().map(|c| SortedChunk::build(&corpus, c)).collect();
//! let tokens: usize = sorted.iter().map(|s| s.num_tokens()).sum();
//! assert_eq!(tokens as u64, corpus.num_tokens());
//! ```

#![warn(missing_docs)]

pub mod chunk;
pub mod csr;
pub mod document;
pub mod io;
pub mod prune;
pub mod rng;
pub mod sorted;
pub mod split;
pub mod stats;
pub mod synth;
pub mod text;
pub mod vocab;

pub use chunk::{imbalance, partition_by_docs, partition_by_tokens, split_by_weight, ChunkSpec};
pub use csr::{CsrMatrix, MAX_COLS};
pub use document::{Corpus, Document};
pub use io::{read_uci, write_uci};
pub use prune::{prune_vocab, PruneSpec, Pruned};
pub use rng::{SplitMix64, Xoshiro256};
pub use sorted::SortedChunk;
pub use split::split_held_out;
pub use stats::DatasetStats;
pub use synth::{sample_dirichlet, sample_gamma, zipf_weights, Discrete, SynthSpec};
pub use text::{default_stopwords, TextPipeline};
pub use vocab::Vocab;
