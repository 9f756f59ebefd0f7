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
//!
//! # What the docword reader accepts
//!
//! The three header lines are read as text: each, trimmed, must be a
//! decimal number. D and W must be at most `u32::MAX`, since later
//! stages store word ids and document ranges as `u32`; both are checked
//! before anything is sized from them. A header that is not a number is
//! echoed in its error only up to its first 32 characters. The body is
//! parsed as ASCII bytes where the reader's buffer holds them; only a line
//! split across two reads is copied.
//!
//! - Fields are separated by the ASCII bytes that `char::is_whitespace`
//!   accepts: tab, vertical tab, form feed, carriage return and space.
//!   `\n` ends a line, so `\r\n` endings work.
//! - A byte of 0x80 or more is never a separator. UCI docwords are ASCII,
//!   so a field holding such a byte is not a number.
//! - A field is an optional `+` followed by decimal digits, as
//!   `usize::from_str` accepts; leading zeros are fine, and a value past
//!   `usize::MAX` is not a number. Fields after the third are not read.
//! - Blank and whitespace-only lines are skipped but counted in line
//!   numbers. A last line with no `\n` is still a line.
//! - A line longer than 64 KiB, not counting its `\n`, is an error
//!   however the reads split it, so the buffer that carries a line from
//!   one read to the next stays small whatever the file holds. The same
//!   bound holds for the header lines and the vocab file's lines.
//! - The counts may add up to at most `u32::MAX` tokens, the most a
//!   chunk's `u32` token positions can index. A count past that is an
//!   error naming its line, found before its tokens are allocated; an
//!   allocation the allocator refuses is an error too, not an abort.
//!
//! Malformed input is an [`io::ErrorKind::InvalidData`] error; a fault in
//! one line names that line.

use crate::document::{Corpus, Document};
use crate::vocab::Vocab;
use std::io::{self, BufRead, Write};

/// The longest docword or vocab line the reader accepts, in bytes before
/// its `\n`.
const MAX_LINE: usize = 64 * 1024;

/// The most tokens a corpus may hold: the most that a chunk's `u32` token
/// positions (`SortedChunk::doc_token_idx`) can index.
const MAX_TOKENS: usize = u32::MAX as usize;

/// The most characters of a bad header that its error echoes.
const ECHO_CHARS: usize = 32;

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
/// declared `D` is honoured. Each document's tokens are in file order.
pub fn read_uci<R1: BufRead, R2: BufRead>(
    mut docword: R1,
    mut vocab_lines: R2,
) -> io::Result<Corpus> {
    let mut text = String::new();
    let d = id_space(header(&mut docword, &mut text, "D", 1)?, "D", 1)?;
    let w = id_space(header(&mut docword, &mut text, "W", 2)?, "W", 2)?;
    let nnz = header(&mut docword, &mut text, "NNZ", 3)?;

    let mut docs = Vec::new();
    docs.try_reserve_exact(d)
        .map_err(|e| bad(1, &format!("cannot allocate {d} documents: {e}")))?;
    docs.resize_with(d, Document::default);
    let mut body = Body {
        docs,
        w,
        line_no: 3,
        doc: 0,
        run: Vec::new(),
        tokens: 0,
        seen: 0,
    };
    // Complete lines are parsed where the chunk holds them. The unfinished
    // last line of a chunk goes to `carry`, which the next chunk completes.
    let mut carry: Vec<u8> = Vec::new();
    loop {
        let chunk = match docword.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            break;
        }
        let read = chunk.len();
        let mut rest = chunk;
        if !carry.is_empty() {
            let newline = rest.iter().position(|&b| b == b'\n');
            check_len(
                body.line_no + 1,
                carry.len() + newline.unwrap_or(rest.len()),
            )?;
            let take = newline.map_or(rest.len(), |i| i + 1);
            carry.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if newline.is_some() {
                body.lines(&carry)?;
                carry.clear();
            }
        }
        let whole = rest.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        body.lines(&rest[..whole])?;
        check_len(body.line_no + 1, rest.len() - whole)?;
        carry.extend_from_slice(&rest[whole..]);
        docword.consume(read);
    }
    if !carry.is_empty() {
        carry.push(b'\n');
        body.lines(&carry)?;
    }
    body.flush()?;
    if body.seen != nnz {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("docword declared {nnz} entries but contained {}", body.seen),
        ));
    }
    let docs = body.docs;

    // Vocabulary: line `i` names word id `i − 1`, and a short file is
    // padded with synthetic names. `intern` returns the existing id of a
    // name it has seen, so a repeated name would shift every later id.
    let duplicate = |word: &str, first: u32, other: String| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "vocab line {} and {other} both name {}",
                first + 1,
                echo(word)
            ),
        )
    };
    let mut vocab = Vocab::new();
    for i in 0.. {
        let too_long = || {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("vocab line {}: longer than {MAX_LINE} bytes", i + 1),
            )
        };
        let Some(word) = next_line(&mut vocab_lines, &mut text, too_long)? else {
            break;
        };
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

/// Reads header line `n`, which holds `name`, as `lines()` and
/// `str::parse` read it.
fn header<R: BufRead>(
    docword: &mut R,
    text: &mut String,
    name: &str,
    n: usize,
) -> io::Result<usize> {
    let too_long = || bad(n, &format!("longer than {MAX_LINE} bytes"));
    let Some(line) = next_line(docword, text, too_long)? else {
        return Err(bad(n, &format!("missing {name} header")));
    };
    line.trim()
        .parse()
        .map_err(|_| bad(n, &format!("{name} header is not a number: {}", echo(line))))
}

/// Reads the next line into `text` and returns it as `lines()` does,
/// reading at most [`MAX_LINE`] bytes and the `\n` after them: a longer
/// line is `too_long()`. `None` at the end of the stream.
fn next_line<'t, R: BufRead>(
    reader: &mut R,
    text: &'t mut String,
    too_long: impl FnOnce() -> io::Error,
) -> io::Result<Option<&'t str>> {
    text.clear();
    if io::Read::take(reader, MAX_LINE as u64 + 1).read_line(text)? == 0 {
        return Ok(None);
    }
    // `lines()` strips a `\n`, and then a `\r` before it.
    let line = text.strip_suffix('\n').unwrap_or(text);
    if line.len() > MAX_LINE {
        return Err(too_long());
    }
    Ok(Some(line.strip_suffix('\r').unwrap_or(line)))
}

/// `text` as `{:?}` prints it, cut after its first [`ECHO_CHARS`]
/// characters.
fn echo(text: &str) -> String {
    match text.char_indices().nth(ECHO_CHARS) {
        None => format!("{text:?}"),
        Some((cut, _)) => format!("{:?}… ({} bytes)", &text[..cut], text.len()),
    }
}

/// Checks that header line `n`'s D or W fits the `u32` ids that word ids
/// and document ranges are stored in downstream.
fn id_space(value: usize, name: &str, n: usize) -> io::Result<usize> {
    if value > u32::MAX as usize {
        return Err(bad(
            n,
            &format!("{name} header {value} exceeds {}", u32::MAX),
        ));
    }
    Ok(value)
}

/// Errors when line `n`, at least `len` bytes long, is over [`MAX_LINE`].
#[inline(always)]
fn check_len(n: usize, len: usize) -> io::Result<()> {
    if len > MAX_LINE {
        return Err(bad(n, &format!("longer than {MAX_LINE} bytes")));
    }
    Ok(())
}

/// Whether `b` separates fields: an ASCII byte that `char::is_whitespace`
/// accepts, other than the `\n` that ends a line.
fn is_space(b: u8) -> bool {
    matches!(b, b'\t' | 0x0B | 0x0C | b'\r' | b' ')
}

/// The docword body read so far.
struct Body {
    /// One entry per declared document.
    docs: Vec<Document>,
    /// The declared vocabulary size.
    w: usize,
    /// The number of the last line read.
    line_no: usize,
    /// The document whose consecutive lines `run` collects.
    doc: usize,
    /// Tokens of the current run of lines that name `doc`, appended to it
    /// when a line names another document, or at the end.
    run: Vec<u32>,
    /// Tokens read so far, at most [`MAX_TOKENS`].
    tokens: usize,
    /// Lines holding an entry.
    seen: usize,
}

impl Body {
    /// Reads the lines of `buf`, which ends with `\n`.
    fn lines(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut start = 0;
        while start < buf.len() {
            start = self.line(buf, start)?;
        }
        Ok(())
    }

    /// Reads the line that starts at `start` and returns where the next
    /// one starts. A line too long is reported before any other fault.
    fn line(&mut self, buf: &[u8], start: usize) -> io::Result<usize> {
        self.line_no += 1;
        let mut pos = start;
        let fields = fields(buf, &mut pos);
        let end = pos
            + buf[pos..]
                .iter()
                .position(|&b| b == b'\n')
                .expect("every line in `buf` ends with `\\n`");
        check_len(self.line_no, end - start)?;
        if let Some([doc_id, word_id, count]) =
            fields.map_err(|f| bad(self.line_no, &f.message()))?
        {
            self.push(doc_id, word_id, count)?;
        }
        Ok(end + 1)
    }

    /// Adds `count` tokens of `word_id` to `doc_id`, both 1-based.
    fn push(&mut self, doc_id: usize, word_id: usize, count: usize) -> io::Result<()> {
        let (d, w) = (self.docs.len(), self.w);
        if doc_id == 0 || doc_id > d {
            return Err(bad(self.line_no, &format!("docID {doc_id} out of 1..={d}")));
        }
        if word_id == 0 || word_id > w {
            return Err(bad(
                self.line_no,
                &format!("wordID {word_id} out of 1..={w}"),
            ));
        }
        if count == 0 {
            return Err(bad(self.line_no, "zero count"));
        }
        // `self.tokens <= MAX_TOKENS`, so this cannot wrap.
        if count > MAX_TOKENS - self.tokens {
            return Err(bad(
                self.line_no,
                &format!("count {count} takes the corpus past {MAX_TOKENS} tokens"),
            ));
        }
        if doc_id - 1 != self.doc {
            self.flush()?;
            self.doc = doc_id - 1;
        }
        self.run.try_reserve(count).map_err(|e| {
            bad(
                self.line_no,
                &format!("cannot allocate {count} tokens: {e}"),
            )
        })?;
        // `word_id <= w <= u32::MAX`, checked at the header.
        self.run
            .extend(std::iter::repeat_n((word_id - 1) as u32, count));
        self.tokens += count;
        self.seen += 1;
        Ok(())
    }

    /// Appends the current run to its document: in one allocation of the
    /// exact size when the run is the document's first.
    fn flush(&mut self) -> io::Result<()> {
        if self.run.is_empty() {
            return Ok(());
        }
        let words = &mut self.docs[self.doc].words;
        let grow = if words.is_empty() {
            words.try_reserve_exact(self.run.len())
        } else {
            words.try_reserve(self.run.len())
        };
        grow.map_err(|e| {
            let n = self.run.len();
            bad(self.line_no, &format!("cannot allocate {n} tokens: {e}"))
        })?;
        words.extend_from_slice(&self.run);
        self.run.clear();
        Ok(())
    }
}

/// A body field that is missing or not a number, by the field's name.
enum Fault {
    Missing(&'static str),
    NotANumber(&'static str),
}

impl Fault {
    fn message(&self) -> String {
        match self {
            Fault::Missing(name) => format!("missing {name}"),
            Fault::NotANumber(name) => format!("{name} is not a number"),
        }
    }
}

/// The three fields of the line at `*pos`, or `None` when it is blank.
/// Leaves `*pos` after the last field read.
///
/// This, [`field`] and [`check_len`] run once or more per line, and are
/// forced inline: left as calls, the reader measured 20% slower.
#[inline(always)]
fn fields(line: &[u8], pos: &mut usize) -> Result<Option<[usize; 3]>, Fault> {
    while is_space(line[*pos]) {
        *pos += 1;
    }
    if line[*pos] == b'\n' {
        return Ok(None);
    }
    Ok(Some([
        field(line, pos, "docID")?,
        field(line, pos, "wordID")?,
        field(line, pos, "count")?,
    ]))
}

/// Parses the field at or after `*pos` as `split_whitespace` and
/// `usize::from_str` would: an optional `+` and decimal digits, ended by
/// a separator or the line's `\n`. Leaves `*pos` after it.
#[inline(always)]
fn field(line: &[u8], pos: &mut usize, name: &'static str) -> Result<usize, Fault> {
    let mut p = *pos;
    while is_space(line[p]) {
        p += 1;
    }
    if line[p] == b'\n' {
        return Err(Fault::Missing(name));
    }
    if line[p] == b'+' {
        p += 1;
    }
    let digits = p;
    let mut value = 0usize;
    while line[p].is_ascii_digit() {
        value = value
            .checked_mul(10)
            .and_then(|v| v.checked_add(usize::from(line[p] - b'0')))
            .ok_or(Fault::NotANumber(name))?;
        p += 1;
    }
    if p == digits || !(is_space(line[p]) || line[p] == b'\n') {
        return Err(Fault::NotANumber(name));
    }
    *pos = p;
    Ok(value)
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
    fn rejects_d_or_w_past_u32_before_sizing_anything() {
        // At D = 2^32 the document table alone would take 96 GiB, and at
        // W = 2^32 the vocabulary would be padded to 4.3G names.
        let past = u64::from(u32::MAX) + 1;
        for (docword, line, name) in [
            (format!("{past}\n3\n1\n1 1 1\n"), 1, "D"),
            (format!("1\n{past}\n1\n1 1 1\n"), 2, "W"),
        ] {
            let e = read_strs(&docword, "a\n").unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert_eq!(
                e.to_string(),
                format!("docword line {line}: {name} header {past} exceeds 4294967295")
            );
        }
    }

    #[test]
    fn rejects_counts_past_u32_tokens_before_allocating_them() {
        // One count past the bound, one far past it, and one that a line
        // before it takes past: each is refused before its tokens are
        // allocated, with the line that holds it.
        for (docword, line, count) in [
            ("1\n1\n1\n1 1 4294967296\n", 4, "4294967296"),
            ("1\n1\n1\n1 1 100000000000\n", 4, "100000000000"),
            (
                "1\n1\n1\n1 1 18446744073709551615\n",
                4,
                "18446744073709551615",
            ),
            ("2\n1\n2\n1 1 1\n2 1 4294967295\n", 5, "4294967295"),
        ] {
            let e = read_strs(docword, "a\n").unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert_eq!(
                e.to_string(),
                format!(
                    "docword line {line}: count {count} takes the corpus past 4294967295 tokens"
                )
            );
        }
    }

    #[test]
    fn header_and_vocab_lines_are_bounded_and_echoed_short() {
        let read_small = |docword: &[u8], vocab: &[u8]| {
            let got = read_uci(docword, vocab);
            let small = read_uci(
                BufReader::with_capacity(7, docword),
                BufReader::with_capacity(7, vocab),
            );
            assert_eq!(
                got.as_ref().map_err(ToString::to_string).err(),
                small.as_ref().map_err(ToString::to_string).err()
            );
            got
        };
        // A header of 64 KiB before its `\n` is read; one byte more is an
        // error, and a short one.
        let mut long = "0".repeat(MAX_LINE - 1);
        long.push('1');
        let docword = format!("{long}\n1\n1\n1 1 1\n");
        assert_eq!(
            read_small(docword.as_bytes(), b"a\n").unwrap().num_docs(),
            1
        );
        for n in [1, 2, 3] {
            let mut lines = ["1"; 3];
            let huge = "x".repeat(200_000);
            lines[n - 1] = &huge;
            let docword = format!("{}\n1 1 1\n", lines.join("\n"));
            let e = read_small(docword.as_bytes(), b"a\n").unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert_eq!(
                e.to_string(),
                format!("docword line {n}: longer than 65536 bytes")
            );
        }
        // A bad header is echoed in full while short, cut when long.
        let e = read_strs("x\n1\n1\n1 1 1\n", "a\n").unwrap_err();
        assert_eq!(
            e.to_string(),
            "docword line 1: D header is not a number: \"x\""
        );
        let e = read_strs(&format!("1\n{}\n1\n1 1 1\n", "y".repeat(1000)), "a\n").unwrap_err();
        assert_eq!(
            e.to_string(),
            format!(
                "docword line 2: W header is not a number: {:?}… (1000 bytes)",
                "y".repeat(32)
            )
        );
        // A vocab line of 64 KiB names a word; one byte more is an error.
        let word = "v".repeat(MAX_LINE);
        let c = read_small(b"1\n1\n1\n1 1 1\n", format!("{word}\n").as_bytes()).unwrap();
        assert_eq!(c.vocab.word(0), word);
        let e = read_small(b"1\n2\n1\n1 1 1\n", format!("a\n{word}v\n").as_bytes()).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert_eq!(e.to_string(), "vocab line 2: longer than 65536 bytes");
        // A repeated long word is echoed cut.
        let e = read_strs("1\n2\n1\n1 1 1\n", &format!("{word}\n{word}\n")).unwrap_err();
        assert!(
            e.to_string()
                .ends_with(&format!("both name {:?}… (65536 bytes)", "v".repeat(32))),
            "{e}"
        );
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
