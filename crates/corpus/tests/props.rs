//! Property-style tests for the corpus substrate's random machinery and
//! I/O, exercised over deterministic seeded case sweeps (the offline build
//! has no property-testing framework; the cases are drawn from the
//! in-crate xoshiro generator so every run covers the same inputs).

use culda_corpus::{
    partition_by_tokens, read_uci, write_uci, zipf_weights, Corpus, Discrete, Document,
    SortedChunk, SplitMix64, Vocab, Xoshiro256,
};

/// Derives a case-generation stream for one test.
fn gen(test_id: u64, case: u64) -> Xoshiro256 {
    Xoshiro256::from_seed_stream(0x50_C0FFEE ^ test_id, case)
}

#[test]
fn uci_round_trip_any_corpus() {
    for case in 0..64 {
        let mut g = gen(1, case);
        let num_docs = 1 + g.next_below(29) as usize;
        let docs: Vec<Document> = (0..num_docs)
            .map(|_| {
                let len = g.next_below(40) as usize;
                Document::new((0..len).map(|_| g.next_below(25)).collect())
            })
            .collect();
        let original = Corpus::new(docs, Vocab::synthetic(25));
        let mut dw = Vec::new();
        let mut vo = Vec::new();
        write_uci(&original, &mut dw, &mut vo).unwrap();
        let restored = read_uci(
            std::io::BufReader::new(dw.as_slice()),
            std::io::BufReader::new(vo.as_slice()),
        )
        .unwrap();
        assert_eq!(restored.num_docs(), original.num_docs());
        assert_eq!(restored.num_tokens(), original.num_tokens());
        for (a, b) in original.docs.iter().zip(&restored.docs) {
            let mut wa = a.words.clone();
            let mut wb = b.words.clone();
            wa.sort_unstable();
            wb.sort_unstable();
            assert_eq!(wa, wb);
        }
    }
}

#[test]
fn uci_reader_never_panics_on_garbage() {
    for case in 0..64 {
        let mut g = gen(2, case);
        let len = g.next_below(300) as usize;
        let garbage: Vec<u8> = (0..len).map(|_| g.next_u64() as u8).collect();
        // Arbitrary bytes must yield Ok or Err, never a panic.
        let _ = read_uci(
            std::io::BufReader::new(garbage.as_slice()),
            std::io::BufReader::new(&b"a\nb\n"[..]),
        );
        // Also try mostly-ASCII garbage, which gets further into parsing.
        let ascii: Vec<u8> = garbage.iter().map(|&b| b % 0x60 + 0x20).collect();
        let _ = read_uci(
            std::io::BufReader::new(ascii.as_slice()),
            std::io::BufReader::new(&b"a\nb\n"[..]),
        );
    }
}

#[test]
fn next_below_is_always_in_range() {
    for case in 0..256 {
        let mut meta = gen(3, case);
        let seed = meta.next_u64();
        let bound = 1 + meta.next_below(1_000_000 - 1);
        let mut g = Xoshiro256::from_seed_stream(seed, 0);
        for _ in 0..32 {
            assert!(g.next_below(bound) < bound);
        }
    }
}

#[test]
fn unit_floats_stay_in_unit_interval() {
    for case in 0..256 {
        let mut meta = gen(4, case);
        let mut g = Xoshiro256::from_seed_stream(meta.next_u64(), meta.next_u64());
        for _ in 0..32 {
            let f64v = g.next_f64();
            let f32v = g.next_f32();
            assert!((0.0..1.0).contains(&f64v));
            assert!((0.0..1.0).contains(&f32v));
        }
    }
}

#[test]
fn streams_reproduce_exactly() {
    for case in 0..256 {
        let mut meta = gen(5, case);
        let (seed, stream) = (meta.next_u64(), meta.next_u64());
        let mut a = Xoshiro256::from_seed_stream(seed, stream);
        let mut b = Xoshiro256::from_seed_stream(seed, stream);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}

#[test]
fn splitmix_never_stalls() {
    for case in 0..256 {
        let mut meta = gen(6, case);
        // The mixer must not map consecutive states to equal outputs.
        let mut g = SplitMix64::new(meta.next_u64());
        let a = g.next_u64();
        let b = g.next_u64();
        assert_ne!(a, b);
    }
}

#[test]
fn discrete_never_draws_zero_weight() {
    for case in 0..256 {
        let mut meta = gen(7, case);
        let n = 2 + meta.next_below(38) as usize;
        let mut weights: Vec<f64> = (0..n).map(|_| meta.next_f64() * 10.0).collect();
        let zero_at = meta.next_below(n as u32) as usize;
        weights[zero_at] = 0.0;
        if weights.iter().sum::<f64>() <= 1e-9 {
            continue;
        }
        let d = Discrete::new(&weights);
        let mut rng = Xoshiro256::from_seed_stream(meta.next_u64(), 0);
        for _ in 0..64 {
            let pick = d.sample(&mut rng);
            assert!(pick < weights.len());
            assert_ne!(pick, zero_at, "drew a zero-weight outcome");
        }
    }
}

#[test]
fn zipf_is_strictly_decreasing_and_positive() {
    for case in 0..256 {
        let mut meta = gen(8, case);
        let n = 2 + meta.next_below(498) as usize;
        let s = 0.1 + meta.next_f64() * 2.9;
        let w = zipf_weights(n, s);
        assert_eq!(w.len(), n);
        for pair in w.windows(2) {
            assert!(pair[0] > pair[1]);
            assert!(pair[1] > 0.0);
        }
    }
}

/// The word ids of chunk-local document `d`'s tokens, read through the
/// document map: each position's word is the distinct word whose token
/// range holds it.
fn doc_words(s: &SortedChunk, d: usize) -> Vec<u32> {
    s.doc_tokens(d)
        .iter()
        .map(|&p| s.word_ids[s.word_ptr.partition_point(|&q| q <= p as usize) - 1])
        .collect()
}

#[test]
fn doc_map_reads_each_document_in_corpus_order() {
    for case in 0..64 {
        let mut g = gen(9, case);
        let vocab = 1 + g.next_below(30);
        let num_docs = 1 + g.next_below(20) as usize;
        // Short documents over a small vocabulary repeat words, and some
        // documents are empty.
        let docs: Vec<Document> = (0..num_docs)
            .map(|_| {
                let len = g.next_below(12) as usize;
                Document::new((0..len).map(|_| g.next_below(vocab)).collect())
            })
            .collect();
        let corpus = Corpus::new(docs, Vocab::synthetic(vocab as usize));
        let c = 1 + g.next_below(num_docs.min(4) as u32) as usize;
        for spec in partition_by_tokens(&corpus, c) {
            let chunk = SortedChunk::build(&corpus, &spec);
            let words = |d: usize| &corpus.docs[spec.docs.start as usize + d].words;
            for d in 0..chunk.num_docs {
                assert_eq!(doc_words(&chunk, d), *words(d), "case {case}, doc {d}");
            }
            // Contiguous word ranges from word 0, cut at random words.
            let mut cuts: Vec<u32> = (0..g.next_below(4)).map(|_| g.next_below(vocab)).collect();
            cuts.extend([0, vocab]);
            cuts.sort_unstable();
            cuts.dedup();
            let ranges: Vec<_> = cuts.windows(2).map(|w| w[0]..w[1]).collect();
            for (part, range) in chunk.split_words(&ranges).iter().zip(&ranges) {
                for d in 0..part.num_docs {
                    let want: Vec<u32> = words(d)
                        .iter()
                        .copied()
                        .filter(|w| range.contains(w))
                        .collect();
                    assert_eq!(doc_words(part, d), want, "case {case}, {range:?}, doc {d}");
                }
            }
        }
    }
}
