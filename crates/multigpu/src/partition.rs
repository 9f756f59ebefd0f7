//! Corpus preparation for multi-GPU training (Figure 3a).
//!
//! Produces the `C = M × G` token-balanced chunks in their word-sorted
//! device layout, plus the global token offset of each chunk (the sampler
//! RNG streams are keyed by global token index, which is what makes a
//! 4-GPU run bit-identical to a 1-GPU run). The chunks follow one of the
//! two Section 4 layouts: document ranges over every word (the paper's
//! partition-by-document) or word ranges over every document
//! (partition-by-word).

use crate::api::PartitionPolicy;
use culda_corpus::{partition_by_tokens, split_by_weight, ChunkSpec, Corpus, SortedChunk};
use std::ops::Range;

/// A corpus split into device-ready chunks.
#[derive(Debug)]
pub struct PartitionedCorpus {
    /// Which Section 4 layout the chunks follow.
    pub policy: PartitionPolicy,
    /// Word-sorted chunk layouts, in chunk-id order.
    pub chunks: Vec<SortedChunk>,
    /// Global token offset of each chunk (prefix sums of token counts).
    pub token_offsets: Vec<u64>,
    /// Total tokens across chunks.
    pub num_tokens: u64,
    /// Vocabulary size of the source corpus.
    pub vocab_size: usize,
    /// Document count of the source corpus.
    pub num_docs: usize,
}

impl PartitionedCorpus {
    /// Partitions `corpus` into `c` chunks of `policy`'s layout and builds
    /// their device layouts.
    pub fn prepare(corpus: &Corpus, c: usize, policy: PartitionPolicy) -> Self {
        let chunks: Vec<SortedChunk> = match policy {
            PartitionPolicy::Document => partition_by_tokens(corpus, c)
                .iter()
                .map(|s| SortedChunk::build(corpus, s))
                .collect(),
            PartitionPolicy::Word => {
                let whole = ChunkSpec {
                    id: 0,
                    docs: 0..corpus.num_docs() as u32,
                    tokens: corpus.num_tokens(),
                };
                SortedChunk::build(corpus, &whole).split_words(&word_ranges(corpus, c))
            }
        };
        let mut token_offsets = Vec::with_capacity(c);
        let mut acc = 0u64;
        for ch in &chunks {
            token_offsets.push(acc);
            acc += ch.num_tokens() as u64;
        }
        assert_eq!(acc, corpus.num_tokens(), "chunks must cover the corpus");
        Self {
            policy,
            chunks,
            token_offsets,
            num_tokens: acc,
            vocab_size: corpus.vocab_size(),
            num_docs: corpus.num_docs(),
        }
    }

    /// Number of chunks `C`.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Approximate device bytes of chunk `i`'s corpus arrays (token→doc
    /// map, document–word map, word table) plus its `z`; θ is separate.
    pub fn chunk_device_bytes(&self, i: usize) -> u64 {
        let ch = &self.chunks[i];
        let t = ch.num_tokens() as u64;
        // token_doc (4) + doc_token_idx (4) + z (2) per token, plus word and
        // doc pointer tables.
        t * (4 + 4 + 2) + (ch.word_ids.len() as u64) * (4 + 8) + (ch.num_docs as u64 + 1) * 8
    }

    /// Tokens behind the θ rows chunk `i` holds: its own under
    /// partition-by-document, and the whole corpus's under
    /// partition-by-word, whose chunks sample against the replicated θ.
    pub fn theta_tokens(&self, i: usize) -> u64 {
        match self.policy {
            PartitionPolicy::Document => self.chunks[i].num_tokens() as u64,
            PartitionPolicy::Word => self.num_tokens,
        }
    }
}

/// Splits the vocabulary into `c` contiguous word ranges balanced by token
/// count, with the document layout's split ([`split_by_weight`]). Every
/// range holds at least one word.
///
/// # Panics
/// Panics if `c` is zero or exceeds the vocabulary size.
fn word_ranges(corpus: &Corpus, c: usize) -> Vec<Range<u32>> {
    let v = corpus.vocab_size();
    assert!(c > 0 && c <= v, "cannot split {v} words into {c} ranges");
    let mut word_tokens = vec![0u64; v];
    for (_, w) in corpus.tokens() {
        word_tokens[w as usize] += 1;
    }
    split_by_weight(v, c, |w| word_tokens[w])
        .into_iter()
        .map(|r| r.start as u32..r.end as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use culda_corpus::SynthSpec;

    #[test]
    fn offsets_are_prefix_sums() {
        let corpus = SynthSpec::tiny().generate();
        for policy in [PartitionPolicy::Document, PartitionPolicy::Word] {
            let p = PartitionedCorpus::prepare(&corpus, 4, policy);
            assert_eq!(p.num_chunks(), 4);
            assert_eq!(p.token_offsets[0], 0);
            for i in 1..4 {
                assert_eq!(
                    p.token_offsets[i],
                    p.token_offsets[i - 1] + p.chunks[i - 1].num_tokens() as u64
                );
            }
            assert_eq!(p.num_tokens, corpus.num_tokens());
        }
    }

    #[test]
    fn chunk_bytes_are_positive_and_token_dominated() {
        let corpus = SynthSpec::tiny().generate();
        let p = PartitionedCorpus::prepare(&corpus, 2, PartitionPolicy::Document);
        for i in 0..2 {
            let b = p.chunk_device_bytes(i);
            assert!(b >= p.chunks[i].num_tokens() as u64 * 10);
            assert_eq!(p.theta_tokens(i), p.chunks[i].num_tokens() as u64);
        }
    }

    #[test]
    fn word_layout_is_contiguous_balanced_word_ranges_over_every_document() {
        let corpus = SynthSpec::tiny().generate();
        let p = PartitionedCorpus::prepare(&corpus, 4, PartitionPolicy::Word);
        let mut next_word = 0u32;
        for (i, ch) in p.chunks.iter().enumerate() {
            assert_eq!((ch.doc_start, ch.num_docs), (0, corpus.num_docs()));
            assert!(ch.word_ids.iter().all(|&w| w >= next_word));
            next_word = ch.word_ids.last().map_or(next_word, |&w| w + 1);
            let share = ch.num_tokens() as f64 / (corpus.num_tokens() as f64 / 4.0);
            assert!(
                (0.7..1.3).contains(&share),
                "chunk {i} holds {share:.2} of its share"
            );
            assert_eq!(p.theta_tokens(i), corpus.num_tokens());
        }
    }

    #[test]
    fn every_word_range_gets_a_word_even_with_more_ranges_than_busy_words() {
        use culda_corpus::{Document, Vocab};
        // One word holds every token: the other ranges are single, empty
        // words, and the split still yields `c` non-empty ranges.
        let corpus = Corpus::new(vec![Document::new(vec![0; 9])], Vocab::synthetic(4));
        let ranges = word_ranges(&corpus, 4);
        assert_eq!(ranges, vec![0..1, 1..2, 2..3, 3..4]);
    }
}
