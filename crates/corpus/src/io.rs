//! UCI "bag of words" corpus I/O.
//!
//! NYTimes and PubMed — the paper's datasets — are distributed in the UCI
//! bag-of-words format: a `docword` file
//!
//! ```text
//! D                ← number of documents
//! W                ← vocabulary size
//! NNZ              ← number of (doc, word) pairs
//! docID wordID count     ← 1-based ids, one triple per line
//! …
//! ```
//!
//! plus a `vocab` file with one word per line (line `i` = word id `i−1`).
//! This module reads and writes that format so the harnesses run on the
//! real corpora when they are available (they are not redistributable in
//! this repository; the synthetic generators stand in — see DESIGN.md §1).
//!
//! LDA treats documents as exchangeable bags, so the token order produced
//! by reading (each pair expanded to `count` adjacent tokens) is a valid
//! ordering of the original corpus.

use crate::document::{Corpus, Document};
use crate::vocab::Vocab;
use std::io::{self, BufRead, Write};

/// Parse error with line context.
fn bad(line_no: usize, msg: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("docword line {line_no}: {msg}"),
    )
}

/// Reads a corpus from UCI `docword` and `vocab` streams.
///
/// Document and word ids are 1-based in the file; missing trailing
/// documents (ids never mentioned) become empty documents so that the
/// declared `D` is honoured.
pub fn read_uci<R1: BufRead, R2: BufRead>(docword: R1, vocab_lines: R2) -> io::Result<Corpus> {
    let mut lines = docword.lines();
    let mut next_header = |name: &str, n: usize| -> io::Result<usize> {
        let line = lines
            .next()
            .ok_or_else(|| bad(n, &format!("missing {name} header")))??;
        line.trim()
            .parse::<usize>()
            .map_err(|_| bad(n, &format!("{name} header is not a number: {line:?}")))
    };
    let d = next_header("D", 1)?;
    let w = next_header("W", 2)?;
    let nnz = next_header("NNZ", 3)?;

    let mut docs: Vec<Document> = (0..d).map(|_| Document::default()).collect();
    let mut seen = 0usize;
    for (i, line) in lines.enumerate() {
        let line_no = i + 4;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let mut field = |name: &str| -> io::Result<usize> {
            it.next()
                .ok_or_else(|| bad(line_no, &format!("missing {name}")))?
                .parse::<usize>()
                .map_err(|_| bad(line_no, &format!("{name} is not a number")))
        };
        let doc_id = field("docID")?;
        let word_id = field("wordID")?;
        let count = field("count")?;
        if doc_id == 0 || doc_id > d {
            return Err(bad(line_no, &format!("docID {doc_id} out of 1..={d}")));
        }
        if word_id == 0 || word_id > w {
            return Err(bad(line_no, &format!("wordID {word_id} out of 1..={w}")));
        }
        if count == 0 {
            return Err(bad(line_no, "zero count"));
        }
        let words = &mut docs[doc_id - 1].words;
        words.extend(std::iter::repeat_n((word_id - 1) as u32, count));
        seen += 1;
    }
    if seen != nnz {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("docword declared {nnz} entries but contained {seen}"),
        ));
    }

    // Vocabulary: line `i` names word id `i − 1`, and a short file is
    // padded with synthetic names. `intern` returns the existing id of a
    // name it has seen, so a repeated name would shift every later id.
    let duplicate = |word: &str, first: u32, other: String| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("vocab line {} and {other} both name {word:?}", first + 1),
        )
    };
    let mut vocab = Vocab::new();
    for (i, line) in vocab_lines.lines().enumerate() {
        let word = line?;
        let word = word.trim();
        let id = vocab.intern(word);
        if id as usize != i {
            return Err(duplicate(word, id, format!("line {}", i + 1)));
        }
    }
    while vocab.len() < w {
        let id = vocab.len();
        let name = format!("w{id:06}");
        let first = vocab.intern(&name);
        if first as usize != id {
            return Err(duplicate(
                &name,
                first,
                format!("the padding of word id {id}"),
            ));
        }
    }
    if vocab.len() > w {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "vocab has {} words but docword declared W = {w}",
                vocab.len()
            ),
        ));
    }
    Ok(Corpus::new(docs, vocab))
}

/// Writes a corpus in UCI bag-of-words format (1-based ids, counts merged
/// per (doc, word) pair).
pub fn write_uci<W1: Write, W2: Write>(
    corpus: &Corpus,
    mut docword: W1,
    mut vocab_out: W2,
) -> io::Result<()> {
    // Merge each document into (word → count) with deterministic order.
    let mut triples: Vec<(usize, usize, usize)> = Vec::new();
    for (d, doc) in corpus.docs.iter().enumerate() {
        let mut counts: std::collections::BTreeMap<u32, usize> = std::collections::BTreeMap::new();
        for &w in &doc.words {
            *counts.entry(w).or_insert(0) += 1;
        }
        for (w, c) in counts {
            triples.push((d + 1, w as usize + 1, c));
        }
    }
    writeln!(docword, "{}", corpus.num_docs())?;
    writeln!(docword, "{}", corpus.vocab_size())?;
    writeln!(docword, "{}", triples.len())?;
    for (d, w, c) in triples {
        writeln!(docword, "{d} {w} {c}")?;
    }
    for id in 0..corpus.vocab_size() as u32 {
        writeln!(vocab_out, "{}", corpus.vocab.word(id))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthSpec;
    use std::io::BufReader;

    fn read_strs(docword: &str, vocab: &str) -> io::Result<Corpus> {
        read_uci(
            BufReader::new(docword.as_bytes()),
            BufReader::new(vocab.as_bytes()),
        )
    }

    #[test]
    fn reads_a_well_formed_file() {
        let docword = "3\n4\n4\n1 1 2\n1 3 1\n2 4 1\n3 2 3\n";
        let vocab = "alpha\nbeta\ngamma\ndelta\n";
        let c = read_strs(docword, vocab).unwrap();
        assert_eq!(c.num_docs(), 3);
        assert_eq!(c.vocab_size(), 4);
        assert_eq!(c.num_tokens(), 7);
        assert_eq!(c.docs[0].words, vec![0, 0, 2]);
        assert_eq!(c.docs[2].words, vec![1, 1, 1]);
        assert_eq!(c.vocab.word(3), "delta");
        assert_eq!(c.vocab.count(1), 3);
    }

    #[test]
    fn tolerates_missing_vocab_tail_and_gap_docs() {
        // Doc 2 never mentioned → empty; vocab file shorter than W.
        let docword = "3\n3\n2\n1 1 1\n3 3 1\n";
        let vocab = "only\n";
        let c = read_strs(docword, vocab).unwrap();
        assert_eq!(c.docs[1].words.len(), 0);
        assert_eq!(c.vocab.word(0), "only");
        assert_eq!(c.vocab.word(2), "w000002");
    }

    #[test]
    fn rejects_out_of_range_and_miscounted_input() {
        assert!(read_strs("1\n1\n1\n2 1 1\n", "a\n").is_err()); // bad doc id
        assert!(read_strs("1\n1\n1\n1 2 1\n", "a\n").is_err()); // bad word id
        assert!(read_strs("1\n1\n1\n1 1 0\n", "a\n").is_err()); // zero count
        assert!(read_strs("1\n1\n2\n1 1 1\n", "a\n").is_err()); // NNZ mismatch
        assert!(read_strs("1\nx\n1\n1 1 1\n", "a\n").is_err()); // bad header
        assert!(read_strs("1\n1\n1\n1 1 1\n", "a\nb\n").is_err()); // long vocab
    }

    #[test]
    fn rejects_a_repeated_vocab_word() {
        // File word 3 is `cherry`; a repeated `apple` must not shift it to
        // id 1 and hand id 2 a synthetic name.
        let e = read_strs("1\n3\n1\n1 3 2\n", "apple\napple\ncherry\n").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(
            e.to_string()
                .contains("vocab line 1 and line 2 both name \"apple\""),
            "{e}"
        );
        // A file longer than W is rejected for the duplicate, not read.
        let e = read_strs("1\n2\n1\n1 1 1\n", "a\na\nb\n").unwrap_err();
        assert!(e.to_string().contains("vocab line 1 and line 2"), "{e}");
        // Names equal after trimming are the same word.
        assert!(read_strs("1\n2\n1\n1 1 1\n", "a\n a \n").is_err());
    }

    #[test]
    fn rejects_a_vocab_word_that_a_padding_name_repeats() {
        // W = 3 with one line that reads like the padding name of id 1.
        let e = read_strs("1\n3\n1\n1 1 1\n", "w000001\n").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(
            e.to_string()
                .contains("vocab line 1 and the padding of word id 1 both name \"w000001\""),
            "{e}"
        );
    }

    #[test]
    fn round_trip_preserves_bag_of_words() {
        let mut spec = SynthSpec::tiny();
        spec.num_docs = 40;
        spec.vocab_size = 60;
        spec.avg_doc_len = 15.0;
        let original = spec.generate();

        let mut docword = Vec::new();
        let mut vocab = Vec::new();
        write_uci(&original, &mut docword, &mut vocab).unwrap();
        let restored = read_uci(
            BufReader::new(docword.as_slice()),
            BufReader::new(vocab.as_slice()),
        )
        .unwrap();

        assert_eq!(restored.num_docs(), original.num_docs());
        assert_eq!(restored.vocab_size(), original.vocab_size());
        assert_eq!(restored.num_tokens(), original.num_tokens());
        // Bags match per document (order within a doc is not preserved).
        for (a, b) in original.docs.iter().zip(&restored.docs) {
            let mut wa = a.words.clone();
            let mut wb = b.words.clone();
            wa.sort_unstable();
            wb.sort_unstable();
            assert_eq!(wa, wb);
        }
        // Vocabulary strings preserved.
        for id in 0..original.vocab_size() as u32 {
            assert_eq!(original.vocab.word(id), restored.vocab.word(id));
        }
    }
}
