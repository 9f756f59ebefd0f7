//! The byte-level UCI docword reader against the line-based reader it
//! replaced, kept here as the oracle.
//!
//! On ASCII input both must return the same corpus (each document's words
//! in order, the vocabulary and its counts) or an error of the same kind
//! with the same message. The new reader is run over a slice and over
//! `BufReader`s of capacity 1, 7 and 8192, so lines straddle every chunk
//! boundary. The cases are drawn from the in-crate xoshiro generator, so
//! every run covers the same inputs.

use culda_corpus::{read_uci, Corpus, Document, Vocab, Xoshiro256};
use std::io::{self, BufRead, BufReader};

/// Parse error with line context, as the line reader built it.
fn bad(line_no: usize, msg: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("docword line {line_no}: {msg}"),
    )
}

/// The line-based reader: every docword line becomes a `String`, is
/// checked as UTF-8, and is trimmed, split and parsed as text.
fn read_uci_lines<R1: BufRead, R2: BufRead>(docword: R1, vocab_lines: R2) -> io::Result<Corpus> {
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

/// The vocab file every case reads: shorter than any W, so the rest is
/// padded.
const VOCAB: &[u8] = b"apple\n";

/// `read_uci` over a slice and over `BufReader`s of capacity 1, 7 and
/// 8192, in that order.
fn read_every_way(docword: &[u8]) -> Vec<io::Result<Corpus>> {
    let mut out = vec![read_uci(docword, VOCAB)];
    for capacity in [1, 7, 8192] {
        out.push(read_uci(
            BufReader::with_capacity(capacity, docword),
            BufReader::with_capacity(capacity, VOCAB),
        ));
    }
    out
}

/// Fails unless `got` equals `want`: the same documents and vocabulary
/// with the same counts, or an error of the same kind and message.
fn assert_same(want: &io::Result<Corpus>, got: &io::Result<Corpus>, docword: &[u8]) {
    let input = String::from_utf8_lossy(docword);
    match (want, got) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.docs, b.docs, "documents differ on {input:?}");
            assert_eq!(a.num_tokens(), b.num_tokens(), "{input:?}");
            assert_eq!(a.vocab_size(), b.vocab_size(), "{input:?}");
            for id in 0..a.vocab_size() as u32 {
                assert_eq!(a.vocab.word(id), b.vocab.word(id), "{input:?}");
                assert_eq!(a.vocab.count(id), b.vocab.count(id), "{input:?}");
            }
        }
        (Err(a), Err(b)) => {
            assert_eq!(a.kind(), b.kind(), "error kinds differ on {input:?}");
            assert_eq!(a.to_string(), b.to_string(), "messages differ on {input:?}");
        }
        _ => panic!("on {input:?} the line reader gave {want:?} and the byte reader {got:?}"),
    }
}

/// Reads `docword` every way and checks each result against the oracle's.
fn agree(docword: &[u8]) -> io::Result<Corpus> {
    let want = read_uci_lines(docword, VOCAB);
    for got in read_every_way(docword) {
        assert_same(&want, &got, docword);
    }
    want
}

/// Reads `docword` every way and checks that each is the error `msg`.
fn assert_error(docword: &[u8], msg: &str) {
    for got in read_every_way(docword) {
        match got {
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{msg}");
                assert_eq!(e.to_string(), msg);
            }
            Ok(_) => panic!(
                "{:?} was read, expected {msg:?}",
                String::from_utf8_lossy(docword)
            ),
        }
    }
}

/// Picks one of `options`.
fn pick<'a>(g: &mut Xoshiro256, options: &[&'a str]) -> &'a str {
    options[g.next_below(options.len() as u32) as usize]
}

/// One to three field separators: every ASCII byte `char::is_whitespace`
/// accepts, less `\n`.
fn separator(g: &mut Xoshiro256) -> String {
    (0..=g.next_below(3))
        .map(|_| pick(g, &[" ", " ", "\t", "\x0b", "\x0c", "\r"]))
        .collect()
}

/// `value` as a field: sometimes signed with `+`, sometimes with leading
/// zeros.
fn number(g: &mut Xoshiro256, value: u32) -> String {
    let sign = pick(g, &["", "", "+"]);
    let zeros = pick(g, &["", "", "", "0", "000"]);
    format!("{sign}{zeros}{value}")
}

/// A docword in every form the line reader accepts: blank and
/// whitespace-only lines, `\r\n` endings, every separator, `+` signs,
/// leading zeros, extra fields, documents whose lines are not contiguous,
/// repeated (doc, word) lines, counts above 1, trailing empty documents
/// and, sometimes, no final newline or a wrong NNZ.
fn messy_docword(g: &mut Xoshiro256) -> Vec<u8> {
    let used_docs = 1 + g.next_below(6);
    let d = used_docs + g.next_below(3);
    let w = 1 + g.next_below(9);
    let mut body: Vec<String> = Vec::new();
    let mut entries = 0;
    let mut doc = 1;
    for _ in 0..g.next_below(40) {
        match g.next_below(12) {
            0 => body.push(String::new()),
            1 => body.push(separator(g)),
            2 if !body.is_empty() => {
                let last = body[body.len() - 1].clone();
                entries += usize::from(!last.trim().is_empty());
                body.push(last);
            }
            _ => {
                // Mostly the document of the line before, as UCI files
                // and `write_uci` order them; sometimes any other.
                if g.next_below(4) == 0 {
                    doc = 1 + g.next_below(used_docs);
                }
                let word = 1 + g.next_below(w);
                let count = if g.next_below(4) == 0 {
                    2 + g.next_below(30)
                } else {
                    1
                };
                let lead = if g.next_below(4) == 0 {
                    separator(g)
                } else {
                    String::new()
                };
                let mut line = format!(
                    "{lead}{}{}{}{}{}",
                    number(g, doc),
                    separator(g),
                    number(g, word),
                    separator(g),
                    number(g, count)
                );
                if g.next_below(5) == 0 {
                    line += &separator(g);
                    line += pick(g, &["7", "x", "+", "-1", "99999999999999999999999"]);
                }
                if g.next_below(5) == 0 {
                    line += &separator(g);
                }
                body.push(line);
                entries += 1;
            }
        }
    }
    let nnz = if g.next_below(10) == 0 {
        entries + 1
    } else {
        entries
    };
    let mut text = String::new();
    let lines = [d.to_string(), w.to_string(), nnz.to_string()];
    for line in lines.iter().chain(&body) {
        text += line;
        text += pick(g, &["\n", "\n", "\r\n"]);
    }
    if g.next_below(4) == 0 {
        // No final newline: the last line ends at the end of the file.
        text.truncate(text.trim_end_matches(['\r', '\n']).len());
    }
    text.into_bytes()
}

#[test]
fn byte_reader_equals_line_reader_on_generated_docwords() {
    let mut read = 0;
    for case in 0..400 {
        let mut g = Xoshiro256::from_seed_stream(0x0C1_D0C5, case);
        let docword = messy_docword(&mut g);
        read += usize::from(agree(&docword).is_ok());
    }
    // Most cases must read, or the comparison tests only error paths.
    assert!(read > 200, "only {read} of 400 generated docwords read");
}

#[test]
fn every_error_message_is_unchanged() {
    let past_usize = "18446744073709551616";
    let cases = [
        ("".to_string(), "docword line 1: missing D header"),
        ("3\n".into(), "docword line 2: missing W header"),
        ("3\n4".into(), "docword line 3: missing NNZ header"),
        (
            "x3 \r\n4\n1\n".into(),
            "docword line 1: D header is not a number: \"x3 \"",
        ),
        (
            "1\n-4\n1\n".into(),
            "docword line 2: W header is not a number: \"-4\"",
        ),
        (
            format!("1\n1\n{past_usize}\n"),
            "docword line 3: NNZ header is not a number: \"18446744073709551616\"",
        ),
        // A line that is not blank always has a first field, so
        // "missing docID" cannot occur.
        ("1\n1\n1\n1\n".into(), "docword line 4: missing wordID"),
        (
            "1\n1\n1\n\t1 \x0b1\r\n".into(),
            "docword line 4: missing count",
        ),
        (
            "1\n1\n1\nx 1 1\n".into(),
            "docword line 4: docID is not a number",
        ),
        (
            "1\n1\n1\n1 1x 1\n".into(),
            "docword line 4: wordID is not a number",
        ),
        (
            "1\n1\n1\n1 1 0x1\n".into(),
            "docword line 4: count is not a number",
        ),
        (
            "1\n1\n1\n-1 1 1\n".into(),
            "docword line 4: docID is not a number",
        ),
        (
            "1\n1\n1\n+ 1 1\n".into(),
            "docword line 4: docID is not a number",
        ),
        (
            "1\n1\n1\n++1 1 1\n".into(),
            "docword line 4: docID is not a number",
        ),
        (
            "1\n1\n1\n1+ 1 1\n".into(),
            "docword line 4: docID is not a number",
        ),
        (
            "1\n1\n1\n1 1 1.0\n".into(),
            "docword line 4: count is not a number",
        ),
        (
            format!("1\n1\n1\n{past_usize} 1 1\n"),
            "docword line 4: docID is not a number",
        ),
        (
            format!("1\n1\n1\n1 +000{past_usize} 1\n"),
            "docword line 4: wordID is not a number",
        ),
        (
            format!("1\n1\n1\n1 1 {past_usize}"),
            "docword line 4: count is not a number",
        ),
        (
            "3\n1\n1\n4 1 1\n".into(),
            "docword line 4: docID 4 out of 1..=3",
        ),
        (
            "3\n1\n1\n0 1 1\n".into(),
            "docword line 4: docID 0 out of 1..=3",
        ),
        (
            "0\n1\n1\n1 1 1\n".into(),
            "docword line 4: docID 1 out of 1..=0",
        ),
        (
            "1\n2\n1\n1 3 1\n".into(),
            "docword line 4: wordID 3 out of 1..=2",
        ),
        (
            "1\n2\n1\n1 0 1\n".into(),
            "docword line 4: wordID 0 out of 1..=2",
        ),
        ("1\n1\n1\n1 1 0\n".into(), "docword line 4: zero count"),
        ("1\n1\n1\n1 1 000\n".into(), "docword line 4: zero count"),
        (
            "1\n1\n2\n1 1 1\n".into(),
            "docword declared 2 entries but contained 1",
        ),
        (
            "1\n1\n0\n\n \t\r\n1 1 1".into(),
            "docword declared 0 entries but contained 1",
        ),
        (
            "2\n1\n2\n1 1 1\r\n\r\n \n2 1 x\n".into(),
            "docword line 7: count is not a number",
        ),
        (
            "1\n0\n0\n".into(),
            "vocab has 1 words but docword declared W = 0",
        ),
    ];
    for (docword, msg) in cases {
        match agree(docword.as_bytes()) {
            Err(e) => assert_eq!(e.to_string(), msg),
            Ok(_) => panic!("{docword:?} was read, expected {msg:?}"),
        }
    }
}

#[test]
fn every_truncation_and_ascii_byte_replacement_of_a_small_docword_agrees() {
    // Doc 1's lines are not contiguous, doc 2's line has an extra field,
    // doc 4 is empty, and the last line has a wordID of 24 digits, most of
    // them leading zeros, and no newline. (A count that a replacement
    // makes huge would ask both readers for that many tokens.)
    let small: &[u8] =
        b"4\n5\n5\n1 1 2\n1\t4 +1\r\n\n2 3 01 x\n \x0b\n1 1 1\n3 000000000000000000000005 2";
    for len in 0..=small.len() {
        let _ = agree(&small[..len]);
    }
    let mut mutant = small.to_vec();
    for at in 0..small.len() {
        for byte in 0..0x80u8 {
            mutant[at] = byte;
            let _ = agree(&mutant);
        }
        mutant[at] = small[at];
    }
}

#[test]
fn a_byte_past_ascii_is_never_a_separator() {
    // U+00A0, a no-break space, is whitespace to `split_whitespace`: the
    // line reader read these lines. Its UTF-8 bytes are not ASCII, so the
    // byte reader rejects the field that holds them.
    let nbsp = "1\n1\n1\n1\u{a0}1 1\n";
    assert!(read_uci_lines(nbsp.as_bytes(), VOCAB).is_ok());
    assert_error(nbsp.as_bytes(), "docword line 4: docID is not a number");
    assert_error(
        "1\n1\n1\n1 1\u{a0}1\n".as_bytes(),
        "docword line 4: wordID is not a number",
    );
    // A line of U+00A0 alone was blank to the line reader.
    assert_error(
        "1\n1\n1\n\u{a0}\n1 1 1\n".as_bytes(),
        "docword line 4: docID is not a number",
    );
    // Bytes that are not UTF-8 at all are not separators either.
    assert_error(
        b"1\n1\n1\n1 1 1\n1\xff 1 1\n",
        "docword line 5: docID is not a number",
    );
}

#[test]
fn a_line_past_64_kib_is_an_error_however_it_is_read() {
    let max = 64 * 1024;
    let header = b"1\n1\n1\n".as_slice();
    let padded = |first: &[u8], len: usize| {
        let mut line = first.to_vec();
        line.resize(len, b' ');
        line
    };
    // A line of exactly 64 KiB before its `\n` is read, with or without
    // the `\n`.
    let line = padded(b"1 1 1", max);
    for end in [&b"\n"[..], b""] {
        let docword = [header, &line, end].concat();
        for got in read_every_way(&docword) {
            assert_eq!(got.expect("a 64 KiB line is read").docs[0].words, vec![0]);
        }
    }
    // One byte more is an error that names the line, whatever the line
    // holds and however the reads split it.
    let msg = "docword line 4: longer than 65536 bytes";
    for first in [&b"1 1 1"[..], b"", b"1 x 1"] {
        let line = padded(first, max + 1);
        for end in [&b"\n1 1 1\n"[..], b"\n", b""] {
            assert_error(&[header, &line, end].concat(), msg);
        }
    }
}
