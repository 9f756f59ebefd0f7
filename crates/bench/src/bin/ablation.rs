//! Ablations of the design choices behind CuLDA_CGS's Section 6
//! optimizations and the Section 4/5 system design — the experiments
//! DESIGN.md commits to beyond the paper's own tables:
//!
//! 1. shared-memory caching of `p*(k)` and the trees (Section 6.1.2/6.1.3);
//! 2. u16 precision compression (Section 6.1.3);
//! 3. tokens-per-block (the word-splitting/long-tail trade-off, Fig 6);
//! 4. token-balanced vs document-count chunk partitioning (Section 4);
//! 5. PCIe vs NVLink for the multi-GPU ϕ sync (Section 3.2's comparison).
//!
//! Every ablation changes *simulated time only* — the harness asserts that
//! the statistics are bit-identical where the run configuration permits.

use culda_bench::{banner, user_iters, user_scale, write_result};
use culda_corpus::{imbalance, partition_by_docs, partition_by_tokens, SynthSpec};
use culda_gpusim::{Link, Platform};
use culda_metrics::format_tokens_per_sec;
use culda_multigpu::{build_trainer, CuldaTrainer, PartitionPolicy, TrainerConfig};

fn main() {
    let iters = user_iters(8);
    banner(
        "Ablations — Section 6 optimizations and system design choices",
        &format!("{iters} iterations each; NYTimes-like corpus"),
    );
    let corpus = SynthSpec::nytimes_like(0.005 * user_scale()).generate();
    let k = 1024;
    let mut csv = String::from("ablation,variant,tokens_per_sec,loglik\n");

    let run = |mutate: &dyn Fn(&mut TrainerConfig)| {
        let mut cfg = TrainerConfig::builder(k, Platform::maxwell())
            .iterations(iters)
            .score_every(0)
            .build()
            .unwrap();
        mutate(&mut cfg);
        let out = CuldaTrainer::try_new(&corpus, cfg)
            .unwrap()
            .try_train()
            .unwrap();
        (
            out.history.avg_tokens_per_sec(iters as usize),
            out.final_loglik_per_token,
        )
    };

    // --- 1 & 2: the Section 6 memory optimizations ----------------------
    println!("\n[1,2] memory optimizations (Titan, K = {k}):");
    let (base_tps, base_ll) = run(&|_| {});
    for (label, f) in [
        (
            "full optimizations",
            Box::new(|_: &mut TrainerConfig| {}) as Box<dyn Fn(&mut TrainerConfig)>,
        ),
        (
            "no shared-memory reuse",
            Box::new(|c: &mut TrainerConfig| c.use_shared_memory = false),
        ),
        (
            "no u16 compression",
            Box::new(|c: &mut TrainerConfig| c.compressed = false),
        ),
        (
            "neither",
            Box::new(|c: &mut TrainerConfig| {
                c.use_shared_memory = false;
                c.compressed = false;
            }),
        ),
    ] {
        let (tps, ll) = run(&*f);
        assert!(
            (ll - base_ll).abs() < 1e-12,
            "{label}: optimizations must not change statistics"
        );
        println!(
            "  {label:<26} {:>12}/s   ({:+.1}% vs full)",
            format_tokens_per_sec(tps),
            100.0 * (tps - base_tps) / base_tps
        );
        csv.push_str(&format!("memory_opt,{label},{tps},{ll}\n"));
    }

    // --- 3: tokens per block --------------------------------------------
    println!("\n[3] tokens per sampling block (long-tail vs tree-reuse trade-off):");
    for tpb in [64usize, 512, 4096, 32768] {
        let (tps, ll) = run(&|c: &mut TrainerConfig| c.tokens_per_block = Some(tpb));
        println!(
            "  tokens_per_block = {tpb:<6} {:>12}/s",
            format_tokens_per_sec(tps)
        );
        csv.push_str(&format!("tokens_per_block,{tpb},{tps},{ll}\n"));
    }

    // --- 4: partition policy --------------------------------------------
    println!("\n[4] chunk partition policy (C = 8 chunks):");
    let by_tokens = partition_by_tokens(&corpus, 8);
    let by_docs = partition_by_docs(&corpus, 8);
    println!(
        "  token-balanced: imbalance {:.3}   doc-count: imbalance {:.3}",
        imbalance(&by_tokens),
        imbalance(&by_docs)
    );
    println!("  (iteration time is max over GPUs, so imbalance is a direct slowdown bound)");
    csv.push_str(&format!(
        "partition,token_balanced,{},0\npartition,doc_count,{},0\n",
        imbalance(&by_tokens),
        imbalance(&by_docs)
    ));

    // --- 4b: partition policy sync footprint (Section 4's argument) -----
    println!("\n[4b] partition-by-document vs partition-by-word sync footprint:");
    let probe = TrainerConfig::builder(k, Platform::pascal())
        .build()
        .unwrap();
    let cmp = culda_multigpu::compare_policies(&corpus, &probe);
    println!(
        "  sync phi (by-document): {:>12} B   sync theta (by-word): {:>12} B   ratio {:.1}x",
        cmp.phi_bytes, cmp.theta_bytes, cmp.theta_to_phi_ratio
    );
    let (phi_t, theta_t) = cmp.sync_seconds(&Link::pcie3(), 4);
    println!(
        "  4-GPU sync estimate: phi {:.3} ms vs theta {:.3} ms -> {}",
        phi_t * 1e3,
        theta_t * 1e3,
        if cmp.document_partition_wins() {
            "partition-by-document wins (the paper's choice)"
        } else {
            "partition-by-word would win on this corpus"
        }
    );
    csv.push_str(&format!(
        "policy,phi_bytes,{},0\npolicy,theta_bytes,{},0\n",
        cmp.phi_bytes, cmp.theta_bytes
    ));
    // Executable comparison: one trainer per policy, from one config. The
    // chunk layout and what the sync reduces are all that differ.
    let mut policy_cfg = TrainerConfig::builder(k, Platform::pascal())
        .iterations(iters)
        .score_every(0)
        .build()
        .unwrap();
    policy_cfg.chunks_per_gpu = Some(1);
    let measure = |policy| {
        let mut t = build_trainer(policy, &corpus, policy_cfg.clone()).unwrap();
        for _ in 0..iters {
            t.try_step().unwrap();
        }
        t.history().avg_tokens_per_sec(iters as usize)
    };
    let doc_tps = measure(PartitionPolicy::Document);
    let word_tps = measure(PartitionPolicy::Word);
    println!(
        "  measured 4-GPU: by-document {:>10}/s vs by-word {:>10}/s",
        format_tokens_per_sec(doc_tps),
        format_tokens_per_sec(word_tps)
    );
    csv.push_str(&format!(
        "policy_measured,by_document,{doc_tps},0\npolicy_measured,by_word,{word_tps},0\n"
    ));

    // At reduced scale D shrinks linearly but V only by √scale, so D/V is
    // ~20× below the real datasets' and the decision can flip — evaluate
    // the paper's actual corpora analytically:
    for (name, d, t, v) in [
        ("NYTimes (full size)", 299_752u64, 99_542_125u64, 101_636u64),
        ("PubMed (full size)", 8_200_000, 737_869_083, 141_043),
    ] {
        let full = culda_multigpu::compare_policies_analytic(d, t, v, k as u64, 2);
        println!(
            "  {name}: theta/phi sync ratio {:.1}x -> {}",
            full.theta_to_phi_ratio,
            if full.document_partition_wins() {
                "partition-by-document wins (paper's conclusion)"
            } else {
                "partition-by-word wins"
            }
        );
    }

    // --- 5: interconnect for the 4-GPU sync ------------------------------
    println!("\n[5] interconnect for the 4-GPU phi sync (Pascal, K = 128):");
    let sync_corpus = SynthSpec::pubmed_like(0.003 * user_scale()).generate();
    for (label, link) in [
        ("PCIe 3.0 (16 GB/s)", None),
        ("NVLink (300 GB/s)", Some(Link::nvlink())),
    ] {
        let mut cfg = TrainerConfig::builder(128, Platform::pascal())
            .iterations(iters)
            .score_every(0)
            .build()
            .unwrap();
        cfg.peer_link = link;
        let out = CuldaTrainer::try_new(&sync_corpus, cfg)
            .unwrap()
            .try_train()
            .unwrap();
        let tps = out.history.avg_tokens_per_sec(iters as usize);
        println!("  {label:<22} {:>12}/s", format_tokens_per_sec(tps));
        csv.push_str(&format!("interconnect,{label},{tps},0\n"));
    }

    write_result("ablation.csv", &csv);
}
