//! Workload scheduling — Algorithm 1 and the `M` planning rule of
//! Section 5.1.
//!
//! `C = M × G` chunks are scheduled round-robin: chunk `i` to GPU `i % G`,
//! smaller ids first. The ideal is `M = 1` (data resident all run long;
//! transfers only at the ends). `M` grows only when the device memory
//! cannot hold the working set; for `M > 1` a GPU must fit **two** chunks
//! (double-buffering for the Section 5.1 transfer/compute overlap) plus
//! the ϕ replica.

use crate::api::PartitionPolicy;
use crate::config::TrainerConfig;
use crate::error::CuldaError;
use crate::partition::PartitionedCorpus;
use culda_corpus::Corpus;

/// The memory-feasibility plan behind a chosen `M`.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryPlan {
    /// Chunks per GPU.
    pub m: usize,
    /// Total chunks `C = M × G`.
    pub c: usize,
    /// ϕ replica bytes per GPU.
    pub phi_bytes: u64,
    /// Largest per-GPU resident working set under this plan.
    pub resident_bytes: u64,
    /// Device capacity the plan was validated against.
    pub capacity_bytes: u64,
}

/// Rough device bytes of one chunk's full state (corpus arrays + z + θ).
/// θ is bounded by `min(tokens, docs·K)` non-zeros at 6 B each plus row
/// pointers, where the tokens are those behind the chunk's θ rows
/// ([`PartitionedCorpus::theta_tokens`]).
pub fn chunk_state_bytes(part: &PartitionedCorpus, i: usize, num_topics: usize) -> u64 {
    let ch = &part.chunks[i];
    let theta_nnz = part
        .theta_tokens(i)
        .min(ch.num_docs as u64 * num_topics as u64);
    part.chunk_device_bytes(i) + theta_nnz * 6 + (ch.num_docs as u64 + 1) * 8
}

/// Chooses the smallest feasible `M` (or validates a forced one) and
/// returns the partition in `policy`'s layout alongside the plan.
///
/// Fails with [`CuldaError::Invalid`] when even the largest sensible `M`
/// cannot fit (a single chunk plus the model exceeds device memory, as
/// when a corpus header declares a huge vocabulary), when a forced `M`
/// does not fit, or when the word layout would need more word ranges than
/// the vocabulary has words.
pub fn plan_partition(
    corpus: &Corpus,
    cfg: &TrainerConfig,
    policy: PartitionPolicy,
) -> Result<(PartitionedCorpus, MemoryPlan), CuldaError> {
    let g = cfg.platform.num_gpus;
    let capacity = cfg.platform.gpu.memory_bytes;
    // A document chunk needs a document and a word chunk a word.
    let max_chunks = match policy {
        PartitionPolicy::Document => corpus.num_docs(),
        PartitionPolicy::Word => corpus.vocab_size(),
    };
    let first_c = g * cfg.chunks_per_gpu.unwrap_or(1);
    if policy == PartitionPolicy::Word && first_c > max_chunks {
        return Err(CuldaError::Invalid(format!(
            "more chunks ({first_c}) than vocabulary words ({max_chunks})"
        )));
    }
    // Two ϕ buffers per GPU: the read snapshot and the write accumulator
    // (see `trainer`), so the model budget is doubled.
    let phi_bytes = 2 * cfg.phi_device_bytes(corpus.vocab_size());
    let no_fit = || {
        CuldaError::Invalid(format!(
            "corpus cannot fit device memory at any M (phi alone is {phi_bytes} of {capacity} bytes)"
        ))
    };
    // Every plan holds ϕ: when it alone overflows, no M can fit, and
    // partitioning (sized by the corpus's declared vocabulary) is skipped.
    if phi_bytes > capacity {
        return Err(no_fit());
    }

    let candidates: Vec<usize> = match cfg.chunks_per_gpu {
        Some(m) => vec![m],
        // Doubling search keeps the partition rebuilds cheap.
        None => (0..12).map(|e| 1usize << e).collect(),
    };
    let tokens = corpus.num_tokens();
    for &m in &candidates {
        let c = m * g;
        if c > max_chunks {
            break; // cannot split further
        }
        // `chunk_state_bytes` charges a chunk at least 10 B per token, so a
        // searched M whose average chunk overflows the device cannot fit:
        // skip it without building its partition.
        let least = match m {
            1 => phi_bytes + 10 * tokens / g as u64,
            _ => phi_bytes + 2 * (10 * tokens / c as u64),
        };
        if least > capacity && cfg.chunks_per_gpu.is_none() {
            continue;
        }
        let part = PartitionedCorpus::prepare(corpus, c, policy);
        // Resident set: M = 1 keeps all assigned chunks on the GPU; M > 1
        // keeps two chunk slots (double buffering).
        let resident = if m == 1 {
            let per_gpu_max = (0..g)
                .map(|gpu| {
                    (gpu..c)
                        .step_by(g)
                        .map(|i| chunk_state_bytes(&part, i, cfg.num_topics))
                        .sum::<u64>()
                })
                .max()
                .unwrap_or(0);
            phi_bytes + per_gpu_max
        } else {
            let max_chunk = (0..c)
                .map(|i| chunk_state_bytes(&part, i, cfg.num_topics))
                .max()
                .unwrap_or(0);
            phi_bytes + 2 * max_chunk
        };
        if resident <= capacity {
            return Ok((
                part,
                MemoryPlan {
                    m,
                    c,
                    phi_bytes,
                    resident_bytes: resident,
                    capacity_bytes: capacity,
                },
            ));
        }
        if cfg.chunks_per_gpu.is_some() {
            return Err(CuldaError::Invalid(format!(
                "forced M = {m} does not fit: needs {resident} of {capacity} bytes"
            )));
        }
    }
    Err(no_fit())
}

/// Round-robin owner of chunk `i` ("Chunk i is scheduled to GPU i%G").
pub fn chunk_owner(chunk_id: usize, num_gpus: usize) -> usize {
    chunk_id % num_gpus
}

#[cfg(test)]
mod tests {
    use super::*;
    use culda_corpus::SynthSpec;
    use culda_gpusim::{GpuSpec, Platform};

    fn tiny_corpus() -> Corpus {
        SynthSpec::tiny().generate()
    }

    #[test]
    fn plentiful_memory_gives_m_equals_1() {
        let corpus = tiny_corpus();
        let cfg = TrainerConfig::builder(16, Platform::pascal())
            .build()
            .unwrap();
        let (part, plan) = plan_partition(&corpus, &cfg, PartitionPolicy::Document).unwrap();
        assert_eq!(plan.m, 1);
        assert_eq!(plan.c, 4);
        assert_eq!(part.num_chunks(), 4);
        assert!(plan.resident_bytes <= plan.capacity_bytes);
    }

    #[test]
    fn scarce_memory_forces_out_of_core() {
        let corpus = tiny_corpus();
        let mut platform = Platform::maxwell();
        // Device barely larger than ϕ: chunks must shrink until two fit.
        let cfg_probe = TrainerConfig::builder(16, platform.clone())
            .build()
            .unwrap();
        let phi = 2 * cfg_probe.phi_device_bytes(corpus.vocab_size());
        let all_tokens = corpus.num_tokens();
        platform.gpu = GpuSpec {
            memory_bytes: phi + all_tokens * 10 / 2, // ~half of the corpus state
            ..platform.gpu
        };
        let cfg = TrainerConfig::builder(16, platform).build().unwrap();
        let (part, plan) = plan_partition(&corpus, &cfg, PartitionPolicy::Document).unwrap();
        assert!(plan.m > 1, "expected out-of-core plan, got M = {}", plan.m);
        assert_eq!(part.num_chunks(), plan.c);
        assert!(plan.resident_bytes <= plan.capacity_bytes);
    }

    #[test]
    fn the_search_picks_the_smallest_m_that_fits() {
        // The search skips the M whose average chunk overflows without
        // building them. Forcing each smaller M must still fail, and
        // forcing the chosen one must give the same plan.
        let corpus = tiny_corpus();
        let base = TrainerConfig::builder(16, Platform::maxwell())
            .build()
            .unwrap();
        let phi = 2 * base.phi_device_bytes(corpus.vocab_size());
        for policy in [PartitionPolicy::Document, PartitionPolicy::Word] {
            for sixteenths in [4, 6, 9, 14, 23, 40, 80, 200] {
                let mut cfg = base.clone();
                cfg.platform.gpu.memory_bytes = phi + corpus.num_tokens() * sixteenths / 16;
                let forced = |m| {
                    let mut cfg = cfg.clone();
                    cfg.chunks_per_gpu = Some(m);
                    plan_partition(&corpus, &cfg, policy).map(|(_, plan)| plan)
                };
                let what = format!("{policy}, {sixteenths}/16 B per token");
                let plan = match plan_partition(&corpus, &cfg, policy) {
                    Ok((_, plan)) => plan,
                    Err(_) => {
                        assert!(forced(1).is_err(), "{what}: M = 1 fits");
                        continue;
                    }
                };
                for m in (0..).map(|e| 1usize << e).take_while(|&m| m < plan.m) {
                    assert!(forced(m).is_err(), "{what}: M = {m} fits, chose {}", plan.m);
                }
                assert_eq!(forced(plan.m).unwrap(), plan, "{what}");
            }
        }
    }

    #[test]
    fn forced_m_is_respected() {
        let corpus = tiny_corpus();
        let mut cfg = TrainerConfig::builder(16, Platform::volta())
            .build()
            .unwrap();
        cfg.chunks_per_gpu = Some(4);
        let (part, plan) = plan_partition(&corpus, &cfg, PartitionPolicy::Document).unwrap();
        assert_eq!(plan.m, 4);
        assert_eq!(part.num_chunks(), 8);
    }

    #[test]
    fn impossible_corpus_is_a_typed_error() {
        let corpus = tiny_corpus();
        let mut platform = Platform::maxwell();
        platform.gpu = GpuSpec {
            memory_bytes: 1024, // smaller than ϕ itself
            ..platform.gpu
        };
        let cfg = TrainerConfig::builder(16, platform.clone())
            .build()
            .unwrap();
        let e = plan_partition(&corpus, &cfg, PartitionPolicy::Document).unwrap_err();
        assert!(matches!(&e, CuldaError::Invalid(m) if m.contains("cannot fit device memory")));
        // A forced M = 1 where only a larger M fits (the out-of-core
        // device above) is the same typed error.
        let phi = 2 * cfg.phi_device_bytes(corpus.vocab_size());
        platform.gpu.memory_bytes = phi + corpus.num_tokens() * 10 / 2;
        let mut cfg = TrainerConfig::builder(16, platform).build().unwrap();
        cfg.chunks_per_gpu = Some(1);
        let e = plan_partition(&corpus, &cfg, PartitionPolicy::Document).unwrap_err();
        assert!(matches!(&e, CuldaError::Invalid(m) if m.contains("forced M = 1")));
    }

    #[test]
    fn word_layout_plans_m_and_refuses_more_chunks_than_words() {
        let corpus = tiny_corpus();
        let mut cfg = TrainerConfig::builder(16, Platform::volta())
            .build()
            .unwrap();
        cfg.chunks_per_gpu = Some(4);
        let (part, plan) = plan_partition(&corpus, &cfg, PartitionPolicy::Word).unwrap();
        assert_eq!((plan.m, part.num_chunks()), (4, 8));
        assert_eq!(part.policy, PartitionPolicy::Word);
        cfg.chunks_per_gpu = Some(corpus.vocab_size());
        let e = plan_partition(&corpus, &cfg, PartitionPolicy::Word).unwrap_err();
        assert!(matches!(&e, CuldaError::Invalid(m) if m.contains("vocabulary words")));
    }

    #[test]
    fn round_robin_ownership() {
        assert_eq!(chunk_owner(0, 4), 0);
        assert_eq!(chunk_owner(5, 4), 1);
        assert_eq!(chunk_owner(7, 2), 1);
    }
}
