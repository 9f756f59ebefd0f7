//! Word-first sorted chunk layout and the document–word map.
//!
//! Section 6.1.2: "for the given corpus chunk, we sort the tokens in a
//! word-first order" so all samplers in a thread block process tokens of the
//! same word and can share that word's `p2(k)`/`p*(k)` index tree in shared
//! memory. Section 6.2: because the chunk is word-ordered, updating θ needs
//! "a document-word map to index all tokens in the same document", generated
//! on the CPU at preprocessing time. This module builds both, for either
//! Section 4 partition: a document range over every word
//! ([`SortedChunk::build`]) or word ranges over every document (the
//! whole-corpus chunk cut by [`SortedChunk::split_words`]).

use crate::chunk::ChunkSpec;
use crate::document::Corpus;
use std::ops::Range;

/// A corpus chunk re-laid-out for the GPU kernels.
///
/// Tokens are stored in word-major order: `word_ids[i]` is the `i`-th
/// distinct word present in the chunk (ascending), and its tokens occupy
/// `token_doc[word_ptr[i] .. word_ptr[i+1]]`, each entry giving the token's
/// *chunk-local* document index. The document–word map is the inverse: for
/// chunk-local document `d`, `doc_token_idx[doc_ptr[d] .. doc_ptr[d+1]]`
/// lists positions in the token arrays belonging to `d`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedChunk {
    /// First global document id in the chunk.
    pub doc_start: u32,
    /// Number of documents in the chunk.
    pub num_docs: usize,
    /// Distinct word ids present, ascending.
    pub word_ids: Vec<u32>,
    /// Token ranges per distinct word; `len = word_ids.len() + 1`.
    pub word_ptr: Vec<usize>,
    /// Chunk-local document index of each token, word-major order.
    pub token_doc: Vec<u32>,
    /// Document–word map pointers; `len = num_docs + 1`.
    pub doc_ptr: Vec<usize>,
    /// Document–word map payload: positions into `token_doc`.
    pub doc_token_idx: Vec<u32>,
}

impl SortedChunk {
    /// Builds the sorted layout for `chunk` of `corpus` using counting sort
    /// over word ids (O(T + V), matching the preprocessing cost the paper
    /// assigns to the CPU).
    pub fn build(corpus: &Corpus, chunk: &ChunkSpec) -> Self {
        let v = corpus.vocab_size();
        let doc_start = chunk.docs.start;
        let num_docs = chunk.num_docs();

        // Count tokens per word within the chunk.
        let mut word_count = vec![0usize; v];
        let mut num_tokens = 0usize;
        for d in chunk.docs.clone() {
            for &w in &corpus.docs[d as usize].words {
                word_count[w as usize] += 1;
                num_tokens += 1;
            }
        }

        // Distinct words and their token ranges. `word_count` becomes the
        // slot array: word id -> next free token position.
        let mut word_ids = Vec::new();
        let mut word_ptr = vec![0usize];
        let mut next = 0usize;
        for (w, slot) in word_count.iter_mut().enumerate() {
            if *slot > 0 {
                let count = std::mem::replace(slot, next);
                next += count;
                word_ids.push(w as u32);
                word_ptr.push(next);
            }
        }

        // Scatter tokens into word-major order. The documents are visited
        // in order, so the doc map is written in place: each document's
        // positions in corpus order (the order `split_words` keeps).
        let mut token_doc = vec![0u32; num_tokens];
        let mut doc_ptr = Vec::with_capacity(num_docs + 1);
        doc_ptr.push(0usize);
        let mut doc_token_idx = Vec::with_capacity(num_tokens);
        for d in chunk.docs.clone() {
            let local = d - doc_start;
            for &w in &corpus.docs[d as usize].words {
                let pos = word_count[w as usize];
                word_count[w as usize] += 1;
                token_doc[pos] = local;
                doc_token_idx.push(pos as u32);
            }
            doc_ptr.push(doc_token_idx.len());
        }

        let out = Self {
            doc_start,
            num_docs,
            word_ids,
            word_ptr,
            token_doc,
            doc_ptr,
            doc_token_idx,
        };
        debug_assert!(out.check_invariants(corpus, chunk));
        out
    }

    /// Cuts the chunk at word boundaries, one part per range of `ranges`
    /// (contiguous and ascending from word 0). The sort is stable, so a
    /// range's tokens are a contiguous run of this chunk's and each part is
    /// what the counting sort would build from only that range's tokens:
    /// every document is kept, and a document's tokens stay in corpus
    /// order. Cutting the whole-corpus chunk this way builds the
    /// partition-by-word layout in one pass over the tokens.
    pub fn split_words(&self, ranges: &[Range<u32>]) -> Vec<Self> {
        debug_assert!(ranges.first().is_some_and(|r| r.start == 0));
        debug_assert!(ranges.windows(2).all(|p| p[0].end == p[1].start));
        // Each part's first distinct word and first token, then the ends.
        let firsts: Vec<usize> = ranges
            .iter()
            .map(|r| self.word_ids.partition_point(|&w| w < r.start))
            .chain([self.word_ids.len()])
            .collect();
        let cuts: Vec<usize> = firsts.iter().map(|&i| self.word_ptr[i]).collect();
        let mut parts: Vec<Self> = (0..ranges.len())
            .map(|r| Self {
                doc_start: self.doc_start,
                num_docs: self.num_docs,
                word_ids: self.word_ids[firsts[r]..firsts[r + 1]].to_vec(),
                word_ptr: self.word_ptr[firsts[r]..=firsts[r + 1]]
                    .iter()
                    .map(|&p| p - cuts[r])
                    .collect(),
                token_doc: self.token_doc[cuts[r]..cuts[r + 1]].to_vec(),
                doc_ptr: Vec::with_capacity(self.num_docs + 1),
                doc_token_idx: Vec::with_capacity(cuts[r + 1] - cuts[r]),
            })
            .collect();
        for d in 0..self.num_docs {
            for part in &mut parts {
                part.doc_ptr.push(part.doc_token_idx.len());
            }
            for &p in self.doc_tokens(d) {
                let r = cuts.partition_point(|&c| c <= p as usize) - 1;
                parts[r].doc_token_idx.push(p - cuts[r] as u32);
            }
        }
        for part in &mut parts {
            part.doc_ptr.push(part.doc_token_idx.len());
        }
        parts
    }

    /// Total tokens in the chunk.
    pub fn num_tokens(&self) -> usize {
        self.token_doc.len()
    }

    /// Number of distinct words present.
    pub fn num_words(&self) -> usize {
        self.word_ids.len()
    }

    /// Token index range of the `i`-th distinct word.
    pub fn word_tokens(&self, i: usize) -> std::ops::Range<usize> {
        self.word_ptr[i]..self.word_ptr[i + 1]
    }

    /// Token positions belonging to chunk-local document `d`.
    pub fn doc_tokens(&self, d: usize) -> &[u32] {
        &self.doc_token_idx[self.doc_ptr[d]..self.doc_ptr[d + 1]]
    }

    /// Token count of chunk-local document `d`.
    pub fn doc_len(&self, d: usize) -> usize {
        self.doc_ptr[d + 1] - self.doc_ptr[d]
    }

    /// Verifies the layout against the source corpus (debug builds / tests).
    pub fn check_invariants(&self, corpus: &Corpus, chunk: &ChunkSpec) -> bool {
        // Word ids ascending, ranges partition the token array.
        assert!(self.word_ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(self.word_ptr.len(), self.word_ids.len() + 1);
        assert_eq!(*self.word_ptr.last().unwrap_or(&0), self.token_doc.len());
        // Doc map is a permutation of all token positions.
        let mut seen = vec![false; self.num_tokens()];
        for &p in &self.doc_token_idx {
            assert!(!seen[p as usize], "token mapped twice");
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Doc lengths match the corpus.
        for d in chunk.docs.clone() {
            let local = (d - self.doc_start) as usize;
            assert_eq!(self.doc_len(local), corpus.docs[d as usize].len());
        }
        // Every mapped token really belongs to its document and word bucket.
        for (i, _) in self.word_ids.iter().enumerate() {
            for t in self.word_tokens(i) {
                let local = self.token_doc[t] as usize;
                let global = self.doc_start as usize + local;
                assert!(chunk.docs.contains(&(global as u32)));
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::partition_by_tokens;
    use crate::document::Document;
    use crate::synth::SynthSpec;
    use crate::vocab::Vocab;

    fn corpus() -> Corpus {
        // Doc0: w2 w0 w2 | Doc1: w1 | Doc2: w0 w0
        Corpus::new(
            vec![
                Document::new(vec![2, 0, 2]),
                Document::new(vec![1]),
                Document::new(vec![0, 0]),
            ],
            Vocab::synthetic(4),
        )
    }

    #[test]
    fn word_major_layout() {
        let c = corpus();
        let chunks = partition_by_tokens(&c, 1);
        let s = SortedChunk::build(&c, &chunks[0]);
        assert_eq!(s.num_tokens(), 6);
        assert_eq!(s.word_ids, vec![0, 1, 2]); // w3 absent
        assert_eq!(s.word_ptr, vec![0, 3, 4, 6]);
        // Word 0 tokens: one from doc0, two from doc2 (document order).
        assert_eq!(&s.token_doc[0..3], &[0, 2, 2]);
        // Word 1: doc1. Word 2: doc0 twice.
        assert_eq!(&s.token_doc[3..4], &[1]);
        assert_eq!(&s.token_doc[4..6], &[0, 0]);
    }

    #[test]
    fn doc_map_inverts_the_sort() {
        let c = corpus();
        let chunks = partition_by_tokens(&c, 1);
        let s = SortedChunk::build(&c, &chunks[0]);
        for d in 0..3 {
            assert_eq!(s.doc_len(d), c.docs[d].len());
            for &pos in s.doc_tokens(d) {
                assert_eq!(s.token_doc[pos as usize] as usize, d);
            }
        }
    }

    #[test]
    fn chunked_build_respects_local_doc_ids() {
        let c = corpus();
        let chunks = partition_by_tokens(&c, 2);
        for ch in &chunks {
            let s = SortedChunk::build(&c, ch);
            assert_eq!(s.num_docs, ch.num_docs());
            assert_eq!(s.num_tokens() as u64, ch.tokens);
            // token_doc entries are chunk-local.
            for &d in &s.token_doc {
                assert!((d as usize) < s.num_docs);
            }
        }
    }

    #[test]
    fn word_split_keeps_every_document_and_only_its_words() {
        let c = corpus();
        let whole = SortedChunk::build(&c, &partition_by_tokens(&c, 1)[0]);
        let parts = whole.split_words(&[0..2, 2..4]);
        let (low, high) = (&parts[0], &parts[1]);
        assert_eq!((low.doc_start, low.num_docs), (0, 3));
        assert_eq!(low.word_ids, vec![0, 1]);
        assert_eq!(low.word_ptr, vec![0, 3, 4]);
        assert_eq!(low.token_doc, vec![0, 2, 2, 1]);
        assert_eq!((low.doc_len(0), low.doc_len(1), low.doc_len(2)), (1, 1, 2));
        assert_eq!(high.word_ids, vec![2]);
        assert_eq!(
            (high.doc_len(0), high.doc_len(1), high.doc_len(2)),
            (2, 0, 0)
        );
        for part in &parts {
            for d in 0..3 {
                for &pos in part.doc_tokens(d) {
                    assert_eq!(part.token_doc[pos as usize] as usize, d);
                }
            }
        }
        // A range with no tokens gets an empty part; one range is no cut.
        let parts = whole.split_words(&[0..1, 1..2, 2..3, 3..4]);
        assert_eq!(parts[3].num_tokens(), 0);
        assert_eq!(parts[3].doc_ptr, vec![0; 4]);
        let every_word = 0..4;
        assert_eq!(
            whole.split_words(std::slice::from_ref(&every_word)),
            vec![whole.clone()]
        );
    }

    #[test]
    fn synthetic_round_trip() {
        let c = SynthSpec::tiny().generate();
        let chunks = partition_by_tokens(&c, 4);
        let mut tokens = 0usize;
        for ch in &chunks {
            let s = SortedChunk::build(&c, ch);
            assert!(s.check_invariants(&c, ch));
            tokens += s.num_tokens();
        }
        assert_eq!(tokens as u64, c.num_tokens());
    }
}
