//! Token-balanced corpus partitioning (Section 4, Figure 3a).
//!
//! CuLDA partitions the corpus into `C = M × G` chunks by *document* (so ϕ
//! is the only matrix that needs cross-chunk synchronization) but balances
//! chunks by *token count*, because "different documents have different
//! number of tokens" and per-chunk work is proportional to tokens.

use crate::document::Corpus;
use std::ops::Range;

/// One chunk: a contiguous run of documents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkSpec {
    /// Chunk id (`0..C`), also its scheduling priority.
    pub id: usize,
    /// Global document ids covered, `[start, end)`.
    pub docs: Range<u32>,
    /// Total tokens in those documents.
    pub tokens: u64,
}

impl ChunkSpec {
    /// Number of documents in the chunk.
    pub fn num_docs(&self) -> usize {
        (self.docs.end - self.docs.start) as usize
    }
}

/// Partitions `corpus` into `c` chunks of consecutive documents with
/// near-equal token counts (greedy prefix splitting at token quantiles,
/// see [`split_by_weight`]).
///
/// # Panics
/// Panics if `c == 0` or `c` exceeds the number of documents (chunks may
/// not be empty: every GPU must receive work).
pub fn partition_by_tokens(corpus: &Corpus, c: usize) -> Vec<ChunkSpec> {
    let d = corpus.num_docs();
    assert!(c > 0, "cannot partition into zero chunks");
    assert!(
        c <= d,
        "cannot split {d} documents into {c} non-empty chunks"
    );
    let len = |doc: usize| corpus.docs[doc].len() as u64;
    split_by_weight(d, c, len)
        .into_iter()
        .enumerate()
        .map(|(id, docs)| ChunkSpec {
            id,
            tokens: docs.clone().map(len).sum(),
            docs: docs.start as u32..docs.end as u32,
        })
        .collect()
}

/// Splits items `0..n` into `c` contiguous, non-empty ranges of near-equal
/// total `weight`: greedy prefix splitting at weight quantiles. Items left
/// once every range has closed (possible when trailing weights are zero)
/// go to the last range. Both Section 4 layouts split this way: documents
/// weighted by length ([`partition_by_tokens`]) and words weighted by
/// token count.
///
/// # Panics
/// Panics if `c == 0` or `c > n`.
pub fn split_by_weight(n: usize, c: usize, weight: impl Fn(usize) -> u64) -> Vec<Range<usize>> {
    assert!(c > 0 && c <= n, "cannot split {n} items into {c} ranges");
    let total: u64 = (0..n).map(&weight).sum();
    let mut ranges = Vec::with_capacity(c);
    let mut next = 0usize;
    let mut consumed = 0u64;
    for i in 0..c {
        let start = next;
        // Weight boundary for the end of range i.
        let boundary = total * (i as u64 + 1) / c as u64;
        // Always take at least one item, and leave enough items for the
        // remaining ranges.
        while next < n {
            let must_take = next == start;
            let must_stop = n - next < c - i;
            if !must_take && (must_stop || consumed >= boundary) {
                break;
            }
            consumed += weight(next);
            next += 1;
            if must_take && n - next < c - i {
                break;
            }
        }
        ranges.push(start..next);
    }
    if next < n {
        ranges.last_mut().unwrap().end = n;
    }
    ranges
}

/// The naive alternative partition — equal *document* counts — kept for
/// the load-balance ablation: the paper picks token balancing because
/// "different documents have different number of tokens".
///
/// # Panics
/// Same contract as [`partition_by_tokens`].
pub fn partition_by_docs(corpus: &Corpus, c: usize) -> Vec<ChunkSpec> {
    let d = corpus.num_docs();
    assert!(c > 0, "cannot partition into zero chunks");
    assert!(
        c <= d,
        "cannot split {d} documents into {c} non-empty chunks"
    );
    (0..c)
        .map(|i| {
            let start = d * i / c;
            let end = d * (i + 1) / c;
            let tokens: u64 = corpus.docs[start..end].iter().map(|x| x.len() as u64).sum();
            ChunkSpec {
                id: i,
                docs: start as u32..end as u32,
                tokens,
            }
        })
        .collect()
}

/// Largest chunk's token count divided by the ideal (`total / c`); 1.0 means
/// perfect balance. Used by tests and the partition ablation bench.
pub fn imbalance(chunks: &[ChunkSpec]) -> f64 {
    let total: u64 = chunks.iter().map(|c| c.tokens).sum();
    let ideal = total as f64 / chunks.len() as f64;
    let max = chunks.iter().map(|c| c.tokens).max().unwrap_or(0) as f64;
    if ideal == 0.0 {
        1.0
    } else {
        max / ideal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Document;
    use crate::synth::SynthSpec;
    use crate::vocab::Vocab;

    fn corpus_with_lengths(lens: &[usize]) -> Corpus {
        let docs = lens.iter().map(|&l| Document::new(vec![0u32; l])).collect();
        Corpus::new(docs, Vocab::synthetic(1))
    }

    fn check_cover(corpus: &Corpus, chunks: &[ChunkSpec]) {
        // Chunks are contiguous, ordered, non-empty, and cover all docs.
        assert_eq!(chunks[0].docs.start, 0);
        for w in chunks.windows(2) {
            assert_eq!(w[0].docs.end, w[1].docs.start);
        }
        assert_eq!(chunks.last().unwrap().docs.end as usize, corpus.num_docs());
        let tokens: u64 = chunks.iter().map(|c| c.tokens).sum();
        assert_eq!(tokens, corpus.num_tokens());
        for c in chunks {
            assert!(c.num_docs() > 0, "empty chunk {}", c.id);
        }
    }

    #[test]
    fn single_chunk_is_whole_corpus() {
        let c = corpus_with_lengths(&[3, 1, 4]);
        let chunks = partition_by_tokens(&c, 1);
        assert_eq!(chunks.len(), 1);
        check_cover(&c, &chunks);
    }

    #[test]
    fn balances_by_tokens_not_documents() {
        // One huge doc then many small: doc-count split would be terrible.
        let mut lens = vec![1000usize];
        lens.extend(std::iter::repeat_n(10, 100));
        let c = corpus_with_lengths(&lens);
        let chunks = partition_by_tokens(&c, 2);
        check_cover(&c, &chunks);
        // Chunk 0 should be just the huge doc; chunk 1 the rest.
        assert_eq!(chunks[0].num_docs(), 1);
        assert!(imbalance(&chunks) < 1.01);
    }

    #[test]
    fn every_chunk_gets_a_document_even_when_skewed() {
        let c = corpus_with_lengths(&[100, 1, 1, 1]);
        let chunks = partition_by_tokens(&c, 4);
        check_cover(&c, &chunks);
        for ch in &chunks {
            assert_eq!(ch.num_docs(), 1);
        }
    }

    #[test]
    fn synthetic_corpus_is_well_balanced() {
        let corpus = SynthSpec::tiny().generate();
        for &c in &[2usize, 4, 8] {
            let chunks = partition_by_tokens(&corpus, c);
            check_cover(&corpus, &chunks);
            assert!(
                imbalance(&chunks) < 1.15,
                "imbalance {} for C={c}",
                imbalance(&chunks)
            );
        }
    }

    #[test]
    fn trailing_empty_docs_are_covered() {
        let c = corpus_with_lengths(&[5, 5, 0, 0]);
        let chunks = partition_by_tokens(&c, 2);
        check_cover(&c, &chunks);
    }

    #[test]
    fn doc_partition_is_worse_balanced_on_skewed_corpora() {
        // Long documents clustered at the front (like a corpus sorted by
        // source): doc-count splitting hands the first chunk most tokens.
        let mut lens = vec![200usize; 10];
        lens.extend(std::iter::repeat_n(10, 90));
        let c = corpus_with_lengths(&lens);
        let by_tokens = partition_by_tokens(&c, 4);
        let by_docs = partition_by_docs(&c, 4);
        check_cover(&c, &by_docs);
        assert!(imbalance(&by_docs) > 1.5 * imbalance(&by_tokens));
    }

    #[test]
    #[should_panic(expected = "non-empty chunks")]
    fn rejects_more_chunks_than_docs() {
        let c = corpus_with_lengths(&[1, 1]);
        partition_by_tokens(&c, 3);
    }
}
