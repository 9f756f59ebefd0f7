//! Property-style tests over the core data structures and invariants,
//! exercised through the public API of the workspace crates on seeded
//! pseudo-random case sweeps (deterministic; the offline build has no
//! property-testing framework).

use culda::baselines::AliasTable;
use culda::corpus::{
    partition_by_tokens, Corpus, CsrMatrix, Document, SortedChunk, Vocab, Xoshiro256,
};
use culda::gpusim::{Device, GpuSpec, KernelCost};
use culda::sampler::kernel_infer::{CACHE_CELLS, SCORE_LANES};
use culda::sampler::ptree::{
    depth_for, linear_search, lower_bound, prefix_into, sample_prefix, shared_bytes_for,
    walk_touches,
};
use culda::sampler::{
    infer_reference, takes_p1, try_run_infer_kernel, CountMatrix, DocPosterior, IndexTree,
    InferDoc, InferKernelConfig, PhiModel, Priors, SmoothedBaseline, TopicCounter,
};

fn cases(test_id: u64) -> Xoshiro256 {
    Xoshiro256::from_seed_stream(0x100F_CA5E ^ test_id, 0)
}

/// Non-degenerate weight vector for the samplers: up to 300 entries in
/// `[0, 100)` with positive total mass.
fn draw_weights(g: &mut Xoshiro256) -> Vec<f32> {
    loop {
        let n = 1 + g.next_below(299) as usize;
        let w: Vec<f32> = (0..n).map(|_| g.next_f32() * 100.0).collect();
        if w.iter().sum::<f32>() > 1e-3 {
            return w;
        }
    }
}

#[test]
fn index_tree_agrees_with_linear_search() {
    let mut g = cases(1);
    for _ in 0..128 {
        let w = draw_weights(&mut g);
        let fanout = 2 + g.next_below(38) as usize;
        let frac = g.next_f64();
        let tree = IndexTree::build(&w, fanout);
        let prefix: Vec<f32> = w
            .iter()
            .scan(0.0, |a, &x| {
                *a += x;
                Some(*a)
            })
            .collect();
        let x = (frac as f32) * tree.total();
        let x = x.min(tree.total() * 0.999_999);
        let (got, _, _) = tree.sample_scaled(x);
        let want = culda::sampler::ptree::linear_search(&prefix, x);
        assert_eq!(got, want);
    }
}

#[test]
fn index_tree_rebuild_equals_fresh_build() {
    let mut g = cases(2);
    for _ in 0..128 {
        let w1 = draw_weights(&mut g);
        let w2 = draw_weights(&mut g);
        let mut tree = IndexTree::build(&w1, 32);
        tree.rebuild(&w2);
        assert_eq!(tree, IndexTree::build(&w2, 32));
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Inclusive prefix sums accumulated one f32 add at a time.
fn serial_prefix(w: &[f32]) -> Vec<f32> {
    let mut acc = 0.0f32;
    w.iter()
        .map(|&x| {
            acc += x;
            acc
        })
        .collect()
}

/// Weights of exactly `n` entries in `[0, 100)`, about a quarter of them
/// zero, with positive total mass.
fn weights_of_len(g: &mut Xoshiro256, n: usize) -> Vec<f32> {
    loop {
        let w: Vec<f32> = (0..n)
            .map(|_| {
                if g.next_below(4) == 0 {
                    0.0
                } else {
                    g.next_f32() * 100.0
                }
            })
            .collect();
        if w.iter().sum::<f32>() > 1e-3 {
            return w;
        }
    }
}

#[test]
fn one_pass_prefix_fill_equals_a_fresh_build() {
    // The sampling kernel fills a reused p1 prefix in one pass, sometimes
    // over the leftovers of a longer or shorter fill that was never drawn
    // from, and draws from it without building a tree. Every draw must
    // see exactly what a fresh tree build gives.
    let mut g = cases(14);
    let mut prefix = Vec::new();
    for round in 0..40 {
        for kd in [1usize, 31, 32, 33, 1025] {
            let w = weights_of_len(&mut g, kd);
            if g.next_below(3) == 0 {
                let n = 1 + g.next_below(1100) as usize;
                let other = weights_of_len(&mut g, n);
                prefix_into(&mut prefix, other.iter().copied());
            }
            let total = prefix_into(&mut prefix, w.iter().copied());
            let fresh = IndexTree::build(&w, 32);
            assert_eq!(total.to_bits(), fresh.total().to_bits(), "kd = {kd}");
            assert_eq!(bits(&prefix), bits(fresh.prefix()), "kd = {kd}");
            // Both match the definition, computed here independently.
            let serial = serial_prefix(&w);
            assert_eq!(bits(&prefix), bits(&serial), "kd = {kd}");
            assert_eq!(depth_for(kd, 32), fresh.depth(), "kd = {kd}");
            assert_eq!(shared_bytes_for(kd, 32), fresh.shared_bytes(), "kd = {kd}");
            for i in 0..=16 {
                let x = total * (i as f32 / 16.0);
                let (idx, sh, lf) = sample_prefix(&prefix, 32, x);
                let want = fresh.sample_scaled(x);
                assert_eq!((idx, sh, lf), want, "kd = {kd}, x = {x}, round {round}");
                assert_eq!(idx, linear_search(&serial, x));
            }
        }
    }
}

/// Weights of exactly `n` entries with zero-weight runs of up to 40
/// entries (tied prefixes), with positive total mass.
fn weights_with_zero_runs(g: &mut Xoshiro256, n: usize) -> Vec<f32> {
    loop {
        let mut w = Vec::with_capacity(n);
        while w.len() < n {
            let run = (1 + g.next_below(40) as usize).min(n - w.len());
            if g.next_below(3) == 0 {
                w.extend(std::iter::repeat_n(0.0f32, run));
            } else {
                w.extend((0..run).map(|_| g.next_f32() * 10.0));
            }
        }
        if w.iter().sum::<f32>() > 1e-3 {
            return w;
        }
    }
}

#[test]
fn lower_bound_draws_and_computed_touches_equal_the_tree_walk() {
    // The sampling kernel draws by binary search and computes the walk's
    // touch counts from the drawn index; the cost model charges those
    // counts, so they must equal the walk's own — on a dense grid of x
    // up to and past the total, and on every tie a zero-weight run makes.
    let mut g = cases(16);
    for n in [1usize, 31, 32, 33, 1024, 1025, 4096, 32 * 32 * 32 + 1] {
        for fanout in [2usize, 32] {
            let w = weights_with_zero_runs(&mut g, n);
            let tree = IndexTree::build(&w, fanout);
            let prefix = tree.prefix();
            let total = tree.total();
            let above = [
                total,
                f32::from_bits(total.to_bits() + 1),
                total * 2.0,
                f32::INFINITY,
                f32::NAN,
            ];
            let grid = (0..=512).map(|i| total * (i as f32 / 512.0));
            for x in grid.chain(prefix.iter().copied()).chain(above) {
                let idx = lower_bound(prefix, x);
                let (sh, lf) = walk_touches(n, fanout, idx);
                let want = tree.sample_scaled(x);
                assert_eq!((idx, sh, lf), want, "n = {n}, fanout = {fanout}, x = {x}");
                if x < total {
                    assert!(w[idx] > 0.0, "n = {n}: drew a zero-weight entry");
                }
            }
            if n <= 1025 {
                for i in 0..=64 {
                    let x = total * (i as f32 / 64.0);
                    assert_eq!(lower_bound(prefix, x), linear_search(prefix, x));
                }
            }
        }
    }
}

#[test]
fn fused_pstar_fill_equals_fill_smoothed_and_a_serial_prefix() {
    // The sampling kernel patches each block's row over a p* scratch that
    // holds the launch's β-baseline, chains the prefix when a token needs
    // it, and puts the baseline back after the block. Over a sequence of
    // rows, every patch must be bit for bit `fill_smoothed` and every chain
    // a serial prefix over it, whatever the row's layout and first column,
    // and every restore must leave exactly the baseline.
    let mut g = cases(17);
    for k in [1usize, 64, 300, 4096] {
        let m = CountMatrix::zeros(12, k);
        let cut = m.storage_cutover();
        let count = |g: &mut Xoshiro256| 1 + g.next_below(50);
        // Sparse rows: first nonzero at column 0, mid-row, at the last
        // column, and absent (row 0 stays empty).
        m.add(1, 0, count(&mut g));
        m.add(2, k / 2, count(&mut g));
        m.add(3, k - 1, count(&mut g));
        for row in 4..6 {
            for _ in 0..(cut - 1).min(8) {
                m.add(row, g.next_below(k as u32) as usize, count(&mut g));
            }
        }
        // One cell short of the storage cutover, and at it.
        for (row, nnz) in [(6, cut - 1), (7, cut)] {
            let start = g.next_below((k - nnz + 1) as u32) as usize;
            for t in start..start + nnz {
                m.add(row, t, count(&mut g));
            }
        }
        assert!(!m.row_is_dense(6) || cut == 1, "k = {k}: row 6 promoted");
        assert!(m.row_is_dense(7), "k = {k}: row 7 not promoted");
        // Dense rows: forced with few cells, full, and forced with none;
        // and a full row forced sparse, which patches every column.
        m.add(8, k / 3, count(&mut g));
        m.force_dense_row(8);
        for t in 0..k {
            m.add(9, t, count(&mut g));
            m.add(11, t, count(&mut g));
        }
        m.force_dense_row(10);
        m.force_sparse_row(11);

        let priors = Priors::paper(k);
        let beta = priors.beta as f32;
        let inv: Vec<f32> = (0..k).map(|_| 1.0 / (1.0 + g.next_f32() * 500.0)).collect();
        let baseline = SmoothedBaseline::new(beta, &inv);
        let base: Vec<f32> = inv.iter().map(|&i| beta * i).collect();
        assert_eq!(bits(baseline.values()), bits(&base), "k = {k}: baseline");
        let (mut pstar, mut prefix) = (base.clone(), vec![0.0f32; k]);
        let mut want = vec![0.0f32; k];
        // Every row once, then rows in random order, so each layout
        // follows each other one.
        let order = (0..12).chain((0..36).map(|_| g.next_below(12) as usize));
        for row in order {
            // Stale prefix values from the previous row must all be
            // overwritten.
            prefix.fill(f32::NAN);
            let patch = m.patch_smoothed(row, &baseline, &mut pstar);
            m.fill_smoothed(row, beta, &inv, &mut want);
            assert_eq!(bits(&pstar), bits(&want), "k = {k}, row {row}: p*");
            let total = baseline.chain(&patch, &pstar, &mut prefix);
            let serial = serial_prefix(&want);
            assert_eq!(bits(&prefix), bits(&serial), "k = {k}, row {row}: prefix");
            assert_eq!(
                total.to_bits(),
                serial[k - 1].to_bits(),
                "k = {k}, row {row}"
            );
            m.restore_baseline(row, &baseline, &mut pstar);
            assert_eq!(bits(&pstar), bits(&base), "k = {k}, row {row}: restore");
        }
    }
}

#[test]
fn pstar_total_bounds_hold_and_the_lazy_branch_is_exact() {
    // The sampling kernel decides a token's branch against an upper bound
    // on the serial p* total T until some token needs T itself. Over rows
    // empty, sparse, dense and full, with counts past 2²⁴ and a tiny and a
    // huge β, the f64 mass must bound T from both sides, and for u_branch
    // on either threshold and 1–3 ulps either side of it, "p1 against the
    // bound, else against T" must be the decision against T.
    let mut g = cases(23);
    for k in [1usize, 2, 33, 64, 1000, 4096, 10_000] {
        let m = CountMatrix::zeros(6, k);
        let wide = |g: &mut Xoshiro256| (1 << 24) + 1 + g.next_below(1 << 26);
        // Row 0 stays empty; row 1 holds a few wide cells; row 2 one cell
        // short of the storage cutover; row 3 is forced dense with one
        // cell; rows 4 and 5 are full, 5 held sparse.
        for _ in 0..3.min(k) {
            m.add(1, g.next_below(k as u32) as usize, wide(&mut g));
        }
        for t in 0..m.storage_cutover().saturating_sub(1) {
            m.add(2, t, 1 + g.next_below(50));
        }
        m.add(3, k - 1, wide(&mut g));
        m.force_dense_row(3);
        for t in 0..k {
            m.add(4, t, wide(&mut g));
            m.add(5, t, 1 + g.next_below(1000));
        }
        m.force_sparse_row(5);
        let inv: Vec<f32> = (0..k).map(|_| 1.0 / (1.0 + g.next_f32() * 1e6)).collect();
        for beta in [1e-30f32, 0.01, 1e20] {
            let baseline = SmoothedBaseline::new(beta, &inv);
            let mut pstar = baseline.values().to_vec();
            let mut want = vec![0.0f32; k];
            for row in 0..6 {
                let patch = m.patch_smoothed(row, &baseline, &mut pstar);
                let (lo, hi) = patch.total_bounds();
                m.fill_smoothed(row, beta, &inv, &mut want);
                let t = want.iter().fold(0.0f32, |acc, &x| acc + x);
                let case = format!("k = {k}, β = {beta:e}, row {row}");
                assert!(lo <= t && t <= hi, "{case}: T = {t} outside [{lo}, {hi}]");
                assert!(lo > 0.0 && hi.is_finite(), "{case}: bounds [{lo}, {hi}]");
                for alpha in [50.0 / k as f32, 1e-3, 1e3] {
                    for s in [0.0f32, t * 1e-6, t * 0.01, t, t * 1e4] {
                        for threshold in [s / (s + alpha * t), s / (s + alpha * hi)] {
                            let below =
                                std::iter::successors(Some(threshold), |u| Some(u.next_down()));
                            let above =
                                std::iter::successors(Some(threshold), |u| Some(u.next_up()));
                            for u in below.take(4).chain(above.skip(1).take(3)) {
                                let exact = takes_p1(s, alpha, t, u);
                                let lazy = takes_p1(s, alpha, hi, u) || exact;
                                assert_eq!(lazy, exact, "{case}: α = {alpha}, S = {s}, u = {u}");
                            }
                        }
                    }
                }
                m.restore_baseline(row, &baseline, &mut pstar);
            }
        }
    }
}

#[test]
fn topic_counter_emits_the_cells_a_sort_and_merge_gives() {
    // The update kernels tally a block's or a document's topics and write
    // the ascending (topic, count) cells: the counter must emit exactly
    // what sorting the topics and merging equal neighbours gives, at K
    // whose bitmap ends in a full or a partial word, and must be empty
    // again after each drain, over blocks past the old 256-token slice.
    let mut g = cases(29);
    for k in [1usize, 63, 64, 65, 1000, 4096, 65_536] {
        let mut counter = TopicCounter::new(k);
        for n in [1usize, 257, 8192] {
            for narrow in [false, true] {
                // Uniform topics, or few topics repeated many times; the
                // first and last token take topics K − 1 and 0.
                let span = if narrow { 5.min(k) } else { k } as u32;
                let offset = g.next_below((k - span as usize + 1) as u32);
                let mut topics: Vec<u16> = (0..n)
                    .map(|_| (offset + g.next_below(span)) as u16)
                    .collect();
                topics[0] = (k - 1) as u16;
                if n > 1 {
                    topics[n - 1] = 0;
                }
                for &t in &topics {
                    counter.add(t);
                }
                let mut sorted = topics.clone();
                sorted.sort_unstable();
                let mut want: Vec<(u16, u32)> = Vec::new();
                for t in sorted {
                    match want.last_mut() {
                        Some((last, c)) if *last == t => *c += 1,
                        _ => want.push((t, 1)),
                    }
                }
                let case = format!("k = {k}, n = {n}, narrow = {narrow}");
                assert_eq!(counter.distinct(), want.len(), "{case}: distinct");
                let mut got = Vec::new();
                counter.drain(|t, c| got.push((t, c)));
                assert_eq!(got, want, "{case}");
                assert_eq!(counter.distinct(), 0, "{case}: not reset");
            }
        }
        let mut got = Vec::new();
        counter.drain(|t, c| got.push((t, c)));
        assert!(got.is_empty(), "k = {k}: a drained counter emitted {got:?}");
    }
}

/// Adds one word's `(topic, count)` cells, in strictly ascending topic
/// order, to ϕ and `phi_sum`.
fn add_word_cells(phi: &PhiModel, word: usize, cells: &[(u16, u32)]) {
    phi.phi.add_row(word, cells);
    for &(topic, count) in cells {
        phi.phi_sum.fetch_add(topic as usize, count);
    }
}

/// A ϕ over `v` words with rows on both sides of the storage cutover: an
/// empty row, sparse rows, one cell short of the cutover, at it and one
/// past it, a full row and rows forced dense with few cells.
fn fold_in_phi(g: &mut Xoshiro256, k: usize, v: usize) -> PhiModel {
    let phi = PhiModel::zeros(k, v, Priors::paper(k));
    let cut = phi.phi.storage_cutover();
    let run = |g: &mut Xoshiro256, word: usize, nnz: usize| {
        let nnz = nnz.min(k);
        let start = g.next_below((k - nnz + 1) as u32) as usize;
        let cells: Vec<(u16, u32)> = (start..start + nnz)
            .map(|t| (t as u16, 1 + g.next_below(50)))
            .collect();
        add_word_cells(&phi, word, &cells);
    };
    for (word, nnz) in [(1, 1), (2, 3), (3, cut - 1), (4, cut), (5, cut + 1), (6, k)] {
        run(g, word, nnz);
    }
    for word in 7..v {
        let nnz = 1 + g.next_below(8) as usize;
        run(g, word, nnz);
        if word % 5 == 0 {
            phi.phi.force_dense_row(word);
        }
    }
    assert!(!phi.phi.row_is_dense(0) && phi.phi.row_nnz(0) == 0);
    assert!(
        !phi.phi.row_is_dense(3) || cut == 1,
        "k = {k}: row 3 promoted"
    );
    assert!(phi.phi.row_is_dense(4), "k = {k}: row 4 not promoted");
    phi
}

/// A ϕ over `v` words whose rows 1 and `v - 1` hold a count from 2²⁴ + 1
/// up on every topic, none of which f32 holds exactly; every other word
/// but 0 has one small count. `phi_sum` stays far below `u32::MAX`.
fn wide_count_phi(k: usize, v: usize) -> PhiModel {
    let phi = PhiModel::zeros(k, v, Priors::paper(k));
    for word in [1, v - 1] {
        let cells: Vec<(u16, u32)> = (0..k)
            .map(|t| (t as u16, (1 << (24 + t % 4)) + 1 + 2 * t as u32))
            .collect();
        add_word_cells(&phi, word, &cells);
    }
    for word in 2..v - 1 {
        add_word_cells(&phi, word, &[((word * 7 % k) as u16, 1 + word as u32 % 5)]);
    }
    for word in [1, v - 1] {
        for (_, c) in phi.phi.row_nonzeros(word) {
            assert!(
                c > 1 << 24 && c as f32 as u32 != c,
                "k = {k}: {c} is exact in f32"
            );
        }
    }
    phi
}

#[test]
fn tree_free_fold_in_equals_the_naive_oracle() {
    // `lda_infer` draws from a one-pass prefix with computed walk touches,
    // keeps a fixed number of ϕ rows and scoring tiles, and scores each
    // distinct word once with its chains interleaved; the oracle rebuilds
    // and walks a tree per token and scores per token. Posteriors, every
    // sweep's score bits, the final θ̂'s score bits and the launch's
    // charges must agree, whichever
    // words the caches hold and wherever a scoring group ends. A second ϕ
    // per K has counts past 2²⁴, which f32 rounds: a cache that smooths
    // them in another precision or order moves a score bit. Both hold for
    // a scored launch and for a serving launch, which scores nothing, and
    // the two must draw the same topics.
    let mut g = cases(18);
    let v = 160;
    let many: Vec<u32> = (0..130).map(|i| (i * 37 % v) as u32).collect();
    let docs: Vec<Vec<u32>> = vec![
        (0..48)
            .map(|_| [2, 5, 9][g.next_below(3) as usize])
            .collect(),
        (0..21).map(|w| (w * 7 % v) as u32).collect(),
        vec![4],
        Vec::new(),
        (0..30)
            .map(|i| [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11][i % 11])
            .collect(),
        many,
    ];
    for (doc, distinct) in docs.iter().zip([3usize, 21, 1, 0, 11, 130]) {
        let mut words = doc.clone();
        words.sort_unstable();
        words.dedup();
        assert_eq!(words.len(), distinct);
    }
    assert!([21, 11, 130, 3].iter().all(|d| d % SCORE_LANES != 0));
    // The 130-word document overflows both count caches from K = 128 on;
    // at K = 1025 the rows cover 15 words and the tiles 8.
    const { assert!(CACHE_CELLS / 128 < 130) };
    // Both wide words in a short document, and in one that names every
    // word, where word `v - 1` is past the row cache and the tiles from
    // K = 128 on.
    let wide_docs: Vec<Vec<u32>> = vec![
        vec![1, v as u32 - 1, 1, 3, 1, v as u32 - 1, 2],
        (0..v as u32).chain([1, v as u32 - 1, 1]).collect(),
    ];
    for k in [2usize, 31, 32, 33, 128, 1025, 4096] {
        let fold_in = fold_in_phi(&mut g, k, v);
        let wide = wide_count_phi(k, v);
        for (phi, docs, first) in [(&fold_in, &docs, 0), (&wide, &wide_docs, docs.len())] {
            let inv = phi.inv_denominators();
            let batch: Vec<InferDoc<'_>> = docs
                .iter()
                .enumerate()
                .map(|(i, words)| InferDoc {
                    stream_id: 7 * k as u64 + (first + i) as u64,
                    words,
                })
                .collect();
            let tokens: usize = docs.iter().map(Vec::len).sum();
            for shared in [true, false] {
                for compressed in [true, false] {
                    let mut cfg = InferKernelConfig::new(0xF01D ^ k as u64);
                    cfg.burnin = 2;
                    cfg.samples = (k % 3) as u32;
                    cfg.use_shared_memory = shared;
                    cfg.compressed = compressed;
                    // Each mode's kernel against its oracle.
                    let mut launches = Vec::new();
                    for score in [true, false] {
                        cfg.score = score;
                        let label = format!(
                            "k = {k}, shared={shared}, compressed={compressed}, score={score}"
                        );
                        let oracle = Device::new(0, GpuSpec::titan_xp_pascal());
                        let (want, want_r) = infer_reference(&oracle, phi, &inv, &batch, &cfg);
                        let dev = Device::new(0, GpuSpec::titan_xp_pascal()).with_workers(2);
                        let (got, got_r) =
                            try_run_infer_kernel(&dev, phi, &inv, &batch, &cfg).unwrap();
                        for (d, (got, want)) in got.iter().zip(&want).enumerate() {
                            assert_eq!(got.theta_acc, want.theta_acc, "{label}, doc {d}");
                            assert_eq!(got.acc_sweeps, want.acc_sweeps, "{label}, doc {d}");
                            assert_eq!(ll_bits(got), ll_bits(want), "{label}, doc {d}");
                            assert_eq!(
                                got.log_predictive.map(f64::to_bits),
                                want.log_predictive.map(f64::to_bits),
                                "{label}, doc {d}"
                            );
                        }
                        assert_eq!(got.len(), want.len());
                        assert_eq!(got_r.cost, want_r.cost, "{label}");
                        assert_eq!(
                            got_r.sim_seconds.to_bits(),
                            want_r.sim_seconds.to_bits(),
                            "{label}"
                        );
                        launches.push((got, got_r));
                    }
                    // An unscored launch draws the scored one's topics, and
                    // drops only the scoring's 2·K flops per token and sweep.
                    let label = format!("k = {k}, shared={shared}, compressed={compressed}");
                    let [(scored, scored_r), (unscored, unscored_r)] =
                        <[_; 2]>::try_from(launches).unwrap();
                    for (d, (u, s)) in unscored.iter().zip(&scored).enumerate() {
                        assert_eq!(u.theta_acc, s.theta_acc, "{label}, doc {d}");
                        assert_eq!(u.acc_sweeps, s.acc_sweeps, "{label}, doc {d}");
                        assert!(u.sweep_log_predictive.is_empty(), "{label}, doc {d}");
                        assert!(u.log_predictive.is_none(), "{label}, doc {d}");
                        assert!(s.log_predictive.is_some(), "{label}, doc {d}");
                        assert_eq!(
                            s.sweep_log_predictive.len(),
                            cfg.sweeps() as usize,
                            "{label}, doc {d}"
                        );
                    }
                    let score_flops = 2 * k as u64 * tokens as u64 * u64::from(cfg.sweeps());
                    let want_cost = KernelCost {
                        flops: scored_r.cost.flops - score_flops,
                        ..scored_r.cost
                    };
                    assert_eq!(unscored_r.name, scored_r.name, "{label}");
                    assert_eq!(unscored_r.cost, want_cost, "{label}");
                    // Every fixture is memory-bound, as the roofline prices
                    // the fold-in: the scored launch's time does not see its
                    // flops, so the unscored one's is the same.
                    let flop_free = KernelCost {
                        flops: 0,
                        ..scored_r.cost
                    };
                    let gpu = GpuSpec::titan_xp_pascal();
                    assert_eq!(
                        flop_free.sim_seconds(&gpu).to_bits(),
                        scored_r.sim_seconds.to_bits(),
                        "{label}: compute-bound"
                    );
                    assert_eq!(
                        unscored_r.sim_seconds.to_bits(),
                        scored_r.sim_seconds.to_bits(),
                        "{label}"
                    );
                }
            }
        }
    }
}

/// A posterior's per-sweep scores as bits.
fn ll_bits(p: &DocPosterior) -> Vec<u64> {
    p.sweep_log_predictive.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn index_tree_never_draws_zero_weight() {
    let mut g = cases(3);
    for _ in 0..128 {
        let mut w = draw_weights(&mut g);
        let idx = g.next_below(w.len() as u32) as usize;
        let frac = g.next_f64();
        w[idx] = 0.0;
        if w.iter().sum::<f32>() <= 1e-3 {
            continue;
        }
        let tree = IndexTree::build(&w, 32);
        let x = (frac as f32 * tree.total()).min(tree.total() * 0.999_999);
        let (got, _, _) = tree.sample_scaled(x);
        assert_ne!(got, idx, "drew zero-weight index");
    }
}

#[test]
fn alias_table_probabilities_match_weights() {
    let mut g = cases(4);
    for _ in 0..128 {
        let n = 1 + g.next_below(63) as usize;
        let w: Vec<f64> = (0..n).map(|_| g.next_f64() * 50.0).collect();
        let total: f64 = w.iter().sum();
        if total <= 1e-6 {
            continue;
        }
        let t = AliasTable::build(&w);
        for (i, &wi) in w.iter().enumerate() {
            let p = t.probability(i);
            assert!(
                (p - wi / total).abs() < 1e-9,
                "outcome {}: {} vs {}",
                i,
                p,
                wi / total
            );
        }
    }
}

#[test]
fn partition_conserves_tokens_for_any_shape() {
    let mut g = cases(5);
    for _ in 0..128 {
        let n = 1 + g.next_below(119) as usize;
        let lens: Vec<usize> = (0..n).map(|_| g.next_below(60) as usize).collect();
        let c = 1 + g.next_below(11) as usize;
        if c > lens.len() {
            continue;
        }
        let docs: Vec<Document> = lens.iter().map(|&l| Document::new(vec![0u32; l])).collect();
        let corpus = Corpus::new(docs, Vocab::synthetic(1));
        let chunks = partition_by_tokens(&corpus, c);
        assert_eq!(chunks.len(), c);
        let total: u64 = chunks.iter().map(|ch| ch.tokens).sum();
        assert_eq!(total, corpus.num_tokens());
        // Contiguous cover, no empty chunk.
        assert_eq!(chunks[0].docs.start, 0);
        for w in chunks.windows(2) {
            assert_eq!(w[0].docs.end, w[1].docs.start);
        }
        assert_eq!(chunks.last().unwrap().docs.end as usize, corpus.num_docs());
        for ch in &chunks {
            assert!(ch.num_docs() > 0);
        }
    }
}

#[test]
fn sorted_chunk_layout_is_a_permutation() {
    let mut g = cases(6);
    for _ in 0..128 {
        let d = 1 + g.next_below(39) as usize;
        let docs: Vec<Document> = (0..d)
            .map(|_| {
                let len = 1 + g.next_below(29) as usize;
                Document::new((0..len).map(|_| g.next_below(20)).collect())
            })
            .collect();
        let c = 1 + g.next_below(4) as usize;
        if c > docs.len() {
            continue;
        }
        let corpus = Corpus::new(docs, Vocab::synthetic(20));
        let chunks = partition_by_tokens(&corpus, c);
        let mut tokens = 0usize;
        for ch in &chunks {
            let sorted = SortedChunk::build(&corpus, ch);
            assert!(sorted.check_invariants(&corpus, ch));
            tokens += sorted.num_tokens();
        }
        assert_eq!(tokens as u64, corpus.num_tokens());
    }
}

#[test]
fn csr_dense_round_trip() {
    let mut g = cases(7);
    for _ in 0..128 {
        let n = g.next_below(20) as usize;
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|_| (0..8).map(|_| g.next_below(9)).collect())
            .collect();
        let m = CsrMatrix::from_dense_rows(&rows, 8);
        m.check_invariants();
        for (r, want) in rows.iter().enumerate() {
            assert_eq!(&m.row_to_dense(r), want);
        }
    }
}

#[test]
fn priors_masses_are_linear() {
    let mut g = cases(10);
    for _ in 0..128 {
        let k = 1 + g.next_below(4999) as usize;
        let v = 1 + g.next_below(199_999) as usize;
        let p = Priors::paper(k);
        assert!((p.alpha * k as f64 - 50.0).abs() < 1e-9);
        assert!((p.beta_v(v) - 0.01 * v as f64).abs() < 1e-6);
    }
}

#[test]
fn phi_sync_equals_serial_sum() {
    use culda::gpusim::{Link, Platform};
    use culda::multigpu::{sync_phi, SyncMode, TrainerConfig};
    use culda::sampler::PhiModel;
    // Everything a sync leaves in a replica: counts, column sums, and each
    // row's nnz and physical layout.
    let model = |m: &PhiModel| {
        let rows: Vec<(usize, bool)> = (0..m.vocab_size)
            .map(|v| (m.phi.row_nnz(v), m.phi.row_is_dense(v)))
            .collect();
        (m.phi.snapshot(), m.phi_sum.snapshot(), rows)
    };
    let mut rng = cases(11);
    for case in 0..96 {
        let mode = [
            SyncMode::DenseTree,
            SyncMode::DenseRing,
            SyncMode::Delta,
            SyncMode::Auto,
        ][case % 4];
        let g = 1 + rng.next_below(6) as usize;
        // Word 1 is zero on every replica and some replicas are entirely
        // zero. At K = 8 a row turns dense at 4 nonzeros, so some summed
        // rows cross the storage cutover that no replica's own row reached.
        let (k, v) = (8, 5);
        let replica_fills: Vec<Vec<u32>> = (0..g)
            .map(|_| {
                let empty = rng.next_below(3) == 0;
                (0..k * v)
                    .map(|slot| {
                        let c = rng.next_below(9).saturating_sub(6);
                        if empty || slot / k == 1 {
                            0
                        } else {
                            c
                        }
                    })
                    .collect()
            })
            .collect();
        let replicas: Vec<PhiModel> = replica_fills
            .iter()
            .map(|cells| {
                let m = PhiModel::zeros(k, v, Priors::paper(k));
                for (i, &c) in cells.iter().enumerate() {
                    if c > 0 {
                        m.phi.store(i, c);
                        m.phi_sum.fetch_add(i % k, c);
                    }
                }
                m
            })
            .collect();
        let mut want = [0u64; 40];
        for cells in &replica_fills {
            for (slot, w) in want.iter_mut().enumerate() {
                *w += cells[slot] as u64;
            }
        }
        let cfg = TrainerConfig::builder(k, Platform::pascal())
            .build()
            .unwrap();
        let refs: Vec<&_> = replicas.iter().collect();
        sync_phi(mode, &refs, &Platform::pascal().gpu, &Link::pcie3(), &cfg);
        for r in &replicas {
            for (slot, &w) in want.iter().enumerate() {
                assert_eq!(r.phi.load(slot) as u64, w, "{mode}, g = {g}");
            }
            r.check_sums();
            assert_eq!(model(r), model(&replicas[0]), "{mode}, g = {g}");
        }
    }
}

#[test]
fn tree_merged_payload_equals_the_summed_snapshot() {
    use culda::multigpu::{row_encoding, DeltaPayload};
    let mut rng = cases(31);
    let (mut dense_rows, mut empty_replicas) = (0, 0);
    for case in 0..64 {
        // At K = 8 a row turns dense at 4 nonzeros; at K = 4096 every row
        // here stays sparse.
        let k = if case % 2 == 0 { 8 } else { 4096 };
        let g = 1 + rng.next_below(8) as usize;
        let v = 1 + rng.next_below(12) as usize;
        // Which rows each replica writes: every replica the same rows, rows
        // dealt out disjointly, or each row on a coin flip.
        let pattern = case / 2 % 3;
        let replicas: Vec<PhiModel> = (0..g)
            .map(|r| {
                let m = PhiModel::zeros(k, v, Priors::paper(k));
                let empty = rng.next_below(4) == 0;
                empty_replicas += usize::from(empty);
                for word in 0..v {
                    let writes = match pattern {
                        0 => word % 2 == 0,
                        1 => word % g == r,
                        _ => rng.next_below(2) == 0,
                    };
                    if empty || !writes {
                        continue;
                    }
                    for _ in 0..1 + rng.next_below(if k == 8 { 6 } else { 40 }) {
                        let topic = rng.next_below(k as u32) as usize;
                        let c = 1 + rng.next_below(5);
                        m.phi.add(word, topic, c);
                        m.phi_sum.fetch_add(topic, c);
                    }
                }
                m
            })
            .collect();
        // The naive oracle: the replicas' dense snapshots summed cell by cell.
        let mut want = vec![0u32; k * v];
        let mut want_sums = vec![0u32; k];
        for r in &replicas {
            want.iter_mut()
                .zip(r.phi.snapshot())
                .for_each(|(w, c)| *w += c);
            want_sums
                .iter_mut()
                .zip(r.phi_sum.snapshot())
                .for_each(|(w, c)| *w += c);
        }
        let row_nnz: Vec<usize> = want
            .chunks(k)
            .map(|row| row.iter().filter(|&&c| c != 0).count())
            .collect();

        // Capture every replica and merge pairwise up the Figure 4 tree.
        let mut tree: Vec<Option<DeltaPayload>> = replicas
            .iter()
            .map(|r| Some(DeltaPayload::from_replica(r, r.phi.dirty())))
            .collect();
        let mut stride = 1;
        while stride < g {
            for i in (0..g - stride).step_by(2 * stride) {
                let sender = tree[i + stride].take().expect("sent once");
                tree[i].as_mut().expect("receiver").merge_from(&sender);
            }
            stride *= 2;
        }
        let global = tree[0].take().expect("root");

        let what = format!("case {case}: k = {k}, g = {g}, v = {v}, pattern {pattern}");
        assert_eq!(global.nnz(), row_nnz.iter().sum::<usize>() as u64, "{what}");
        assert_eq!(
            global.num_rows(),
            row_nnz.iter().filter(|&&n| n > 0).count(),
            "{what}"
        );
        for e in [2, 4] {
            let rows: u64 = row_nnz
                .iter()
                .filter(|&&n| n > 0)
                .map(|&n| row_encoding(n, k, e).1)
                .sum();
            assert_eq!(
                global.encoded_bytes(e),
                rows + k as u64 * e,
                "{what}, e = {e}"
            );
        }
        for r in &replicas {
            global.apply_to(r);
            assert_eq!(r.phi.snapshot(), want, "{what}");
            assert_eq!(r.phi_sum.snapshot(), want_sums, "{what}");
            for (word, &n) in row_nnz.iter().enumerate() {
                assert_eq!(r.phi.row_nnz(word), n, "{what}, word {word}");
                assert!(k == 8 || !r.phi.row_is_dense(word), "{what}, word {word}");
                dense_rows += usize::from(r.phi.row_is_dense(word));
            }
            r.check_sums();
        }
    }
    assert!(dense_rows > 0 && empty_replicas > 0);
}

#[test]
fn count_matrix_dense_sparse_round_trip_preserves_totals() {
    use culda::sampler::CountMatrix;
    let mut g = cases(13);
    for _ in 0..64 {
        let k = 2 + g.next_below(62) as usize;
        let v = 1 + g.next_below(39) as usize;
        let m = CountMatrix::zeros(v, k);
        let mut dense = vec![0u32; k * v];
        let writes = g.next_below(400) as usize;
        for _ in 0..writes {
            let row = g.next_below(v as u32) as usize;
            let col = g.next_below(k as u32) as usize;
            let c = 1 + g.next_below(50);
            m.add(row, col, c);
            dense[row * k + col] += c;
        }
        let nnz_want = dense.iter().filter(|&&c| c != 0).count() as u64;
        // Force every row through both layouts and back; counts, per-row
        // nnz, and the global total must survive each conversion.
        for row in 0..v {
            m.force_dense_row(row);
            assert_eq!(m.total_nnz(), nnz_want, "densify lost cells");
            m.force_sparse_row(row);
            assert_eq!(m.total_nnz(), nnz_want, "sparsify lost cells");
            let row_want: Vec<(u16, u32)> = (0..k)
                .filter(|&t| dense[row * k + t] != 0)
                .map(|t| (t as u16, dense[row * k + t]))
                .collect();
            assert_eq!(m.row_nonzeros(row), row_want);
            assert_eq!(m.row_nnz(row), row_want.len());
        }
        assert_eq!(m.snapshot(), dense, "flat view diverged from the oracle");
    }
}

/// Everything a row write can change: counts, per-row nnz, physical
/// layout and dirty mark.
fn count_matrix_state(m: &culda::sampler::CountMatrix) -> (Vec<u32>, Vec<(usize, bool, bool)>) {
    let rows = (0..m.num_rows())
        .map(|r| (m.row_nnz(r), m.row_is_dense(r), m.dirty().is_marked(r)))
        .collect();
    (m.snapshot(), rows)
}

#[test]
fn batched_row_writes_equal_per_cell_writes() {
    use culda::sampler::CountMatrix;
    let mut g = cases(16);
    for case in 0..400 {
        let k = 2 + g.next_below(90) as usize;
        let v = 1 + g.next_below(4) as usize;
        let batched = CountMatrix::zeros(v, k);
        let per_cell = CountMatrix::zeros(v, k);
        // Identical random starting states, each row filled to somewhere
        // around the storage cutover (where a batch can promote it), some
        // rows forced dense.
        let cut = batched.storage_cutover();
        for row in 0..v {
            for _ in 0..g.next_below(cut as u32 + 3) {
                let col = g.next_below(k as u32) as usize;
                let c = 1 + g.next_below(9);
                batched.add(row, col, c);
                per_cell.add(row, col, c);
            }
            if g.next_below(5) == 0 {
                batched.force_dense_row(row);
                per_cell.force_dense_row(row);
            }
        }
        // A few batches per case: sorted distinct columns; adds may carry
        // zero deltas (no-ops), stores carry only nonzero counts and name
        // every column the row holds, as the ϕ sync's stores do (a
        // replica's nonzero cells are a subset of the global payload's).
        for _ in 0..3 {
            let row = g.next_below(v as u32) as usize;
            let add = g.next_below(2) == 0;
            let density = 1 + g.next_below(100);
            let zeros = if add { g.next_below(100) } else { 0 };
            let mut cells: Vec<(u16, u32)> = Vec::new();
            for t in 0..k {
                let held = !add && batched.get(row, t) != 0;
                if held || g.next_below(100) < density {
                    let c = if g.next_below(100) < zeros {
                        0
                    } else {
                        1 + g.next_below(4)
                    };
                    cells.push((t as u16, c));
                }
            }
            if add {
                batched.add_row(row, &cells);
                for &(t, c) in &cells {
                    per_cell.add(row, t as usize, c);
                }
            } else {
                batched.store_row(row, &cells);
                for &(t, c) in &cells {
                    per_cell.set(row, t as usize, c);
                }
            }
            assert_eq!(
                count_matrix_state(&batched),
                count_matrix_state(&per_cell),
                "case {case}: k = {k}, row {row}, {} cells",
                cells.len()
            );
        }
    }
}

#[test]
fn block_map_partitions_any_chunk() {
    use culda::sampler::build_block_map;
    let mut g = cases(12);
    for _ in 0..24 {
        let d = 2 + g.next_below(28) as usize;
        let docs: Vec<Document> = (0..d)
            .map(|_| {
                let len = 1 + g.next_below(39) as usize;
                Document::new((0..len).map(|_| g.next_below(15)).collect())
            })
            .collect();
        let tpb = 1 + g.next_below(199) as usize;
        let corpus = Corpus::new(docs, Vocab::synthetic(15));
        let chunks = partition_by_tokens(&corpus, 1);
        let chunk = SortedChunk::build(&corpus, &chunks[0]);
        let map = build_block_map(&chunk, tpb);
        let mut seen = vec![false; chunk.num_tokens()];
        for b in &map {
            assert!(b.len() <= tpb);
            for t in b.tokens.clone() {
                assert!(!seen[t]);
                seen[t] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}

/// Asserts that `got` holds `want`'s model: every row's cells and physical
/// layout, and the column sums.
fn assert_same_model(got: &PhiModel, want: &PhiModel, what: &str) {
    for v in 0..want.vocab_size {
        assert_eq!(
            got.phi.row_nonzeros(v),
            want.phi.row_nonzeros(v),
            "{what}: row {v}"
        );
        let dense = want.phi.row_is_dense(v);
        assert_eq!(got.phi.row_is_dense(v), dense, "{what}: row {v} layout");
    }
    assert_eq!(
        got.phi_sum.snapshot(),
        want.phi_sum.snapshot(),
        "{what}: sums"
    );
}

#[test]
fn every_replica_of_a_built_or_resumed_trainer_equals_the_naive_oracle() {
    // Straight after a build, from random z or from a 2-step checkpoint,
    // every alive read and write replica holds what the per-token oracle
    // accumulates from every chunk, and the resumed read replicas hold what
    // the run that stepped straight through holds. At K = 8 summed rows
    // turn dense; at K = 4096 every row stays sparse.
    use culda::gpusim::Platform;
    use culda::multigpu::{
        build_trainer, plan_partition, resume_any, save_training, CuldaTrainer, LdaTrainer,
        PartitionPolicy, TrainerConfig,
    };
    use culda::sampler::accumulate_phi_host;
    use std::any::Any;
    fn concrete(t: &dyn LdaTrainer) -> &CuldaTrainer {
        (t as &dyn Any)
            .downcast_ref()
            .expect("the LdaTrainer is a CuldaTrainer")
    }
    let mut spec = culda::corpus::SynthSpec::tiny();
    spec.num_docs = 60;
    spec.vocab_size = 90;
    spec.avg_doc_len = 12.0;
    let c = spec.generate();
    let mut shapes = Vec::new();
    for k in [8, 4096] {
        for gpus in [1, 2, 4] {
            shapes.push((PartitionPolicy::Word, k, gpus, 1));
            for nodes in [1, 2] {
                shapes.push((PartitionPolicy::Document, k, gpus, nodes));
            }
        }
    }
    for (policy, k, gpus, nodes) in shapes {
        let shape = format!("{policy} K = {k} on {nodes} × {gpus} GPUs");
        let cfg = || {
            TrainerConfig::builder(k, Platform::pascal().with_gpus(gpus))
                .score_every(0)
                .seed(13)
                .nodes(nodes)
                .build()
                .unwrap()
        };
        let (part, _) = plan_partition(&c, &cfg(), policy).unwrap();
        let check_built = |t: &CuldaTrainer, when: &str| {
            let oracle = PhiModel::zeros(k, c.vocab_size(), Priors::paper(k));
            for (chunk, state) in part.chunks.iter().zip(t.states()) {
                accumulate_phi_host(chunk, &state.z, &oracle);
            }
            for w in t.workers().iter().filter(|w| w.alive) {
                let what = format!("{shape}, {when}, GPU {}", w.device.id);
                assert_same_model(w.read_replica(), &oracle, &format!("{what}, read"));
                assert_same_model(w.write_replica(), &oracle, &format!("{what}, write"));
            }
        };
        let mut straight = build_trainer(policy, &c, cfg()).unwrap();
        check_built(concrete(straight.as_ref()), "built");
        straight.try_step().unwrap();
        straight.try_step().unwrap();
        let mut ckpt = Vec::new();
        save_training(straight.as_ref(), &mut ckpt).unwrap();
        let resumed = resume_any(&c, cfg(), ckpt.as_slice()).unwrap();
        let resumed = concrete(resumed.as_ref());
        check_built(resumed, "resumed");
        let pairs = concrete(straight.as_ref())
            .workers()
            .iter()
            .zip(resumed.workers());
        for (a, b) in pairs.filter(|(a, _)| a.alive) {
            let what = format!("{shape}, GPU {}: resumed vs straight", a.device.id);
            assert_same_model(b.read_replica(), a.read_replica(), &what);
        }
    }
}
