//! Training checkpoints: suspend and resume a training run.
//!
//! The paper's runs are hundreds of iterations over hours; production
//! training must survive restarts. The ϕ checkpoint of
//! `culda_sampler::checkpoint` is enough for *inference*, but resuming
//! *training* needs the exact sampler state: every token's assignment,
//! the iteration counter, and the configuration identity. This module
//! serializes that (hand-rolled little-endian, consistent with the
//! workspace's no-serde policy) for **either** partition policy through
//! the [`LdaTrainer`] surface, and rebuilds a trainer that continues
//! **bit-identically** — the golden property the tests pin: train 2+3
//! iterations with a save/load in between ≡ train 5 straight.
//!
//! [`resume_any`] is the one resume. It reads the checkpoint's header,
//! plans the corpus's chunk layout in the policy the header names, reads
//! the shards against that plan, and then builds the trainer once from the
//! checkpoint's assignments: the build a fresh run makes from random ones
//! (Algorithm 1, lines 7–9), so θ and ϕ are derived from z in one place.
//!
//! Format: `"CULDARUN"`, version (u32), policy tag (u32, v2+), seed
//! (u64), K (u64), iteration (u32), chunk count (u64), then per chunk a
//! token count (u64) and the u16 assignments. Version-1 checkpoints had
//! no policy tag and are read as partition-by-document. A
//! partition-by-word checkpoint holds one chunk per word range; one whose
//! chunk count or per-chunk token counts do not match the corpus's plan
//! is refused as [`CuldaError::Checkpoint`].

use crate::api::{LdaTrainer, PartitionPolicy};
use crate::config::TrainerConfig;
use crate::error::CuldaError;
use crate::partition::PartitionedCorpus;
use crate::trainer::CuldaTrainer;
use culda_corpus::Corpus;
use culda_sampler::ChunkState;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"CULDARUN";
const VERSION: u32 = 2;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn w32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn w64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn r32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn r64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn policy_tag(policy: PartitionPolicy) -> u32 {
    match policy {
        PartitionPolicy::Document => 0,
        PartitionPolicy::Word => 1,
    }
}

/// Serializes the resumable state of either policy's trainer: policy tag,
/// config identity (seed, K, shard count), the iteration counter, and
/// each chunk/shard's assignments.
pub fn save_training<W: Write>(trainer: &dyn LdaTrainer, out: W) -> Result<(), CuldaError> {
    let (iteration, shards) = (trainer.iterations_done(), trainer.assignments());
    save_assignments(trainer.policy(), trainer.config(), iteration, &shards, out)
}

/// Writes a checkpoint from its parts: `shards` holds each chunk's
/// assignments in `policy`'s layout after `iteration` iterations of the
/// run `cfg` configures (its seed and K). [`save_training`] writes a
/// trainer's state through it; a test that needs a given state resumes
/// from what this writes.
pub fn save_assignments<W: Write>(
    policy: PartitionPolicy,
    cfg: &TrainerConfig,
    iteration: u32,
    shards: &[Vec<u16>],
    mut out: W,
) -> Result<(), CuldaError> {
    out.write_all(MAGIC)?;
    w32(&mut out, VERSION)?;
    w32(&mut out, policy_tag(policy))?;
    w64(&mut out, cfg.seed)?;
    w64(&mut out, cfg.num_topics as u64)?;
    w32(&mut out, iteration)?;
    w64(&mut out, shards.len() as u64)?;
    for z in shards {
        w64(&mut out, z.len() as u64)?;
        for v in z {
            out.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Parsed checkpoint header (everything before the assignment payload).
struct Header {
    policy: PartitionPolicy,
    seed: u64,
    num_topics: u64,
    iteration: u32,
    num_shards: u64,
}

/// Reads the header: the magic, the version, (v2+) the policy tag, the
/// seed, K, the iteration counter and the shard count.
fn read_header<R: Read>(input: &mut R) -> io::Result<Header> {
    let mut magic = [0u8; 8];
    input.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("not a CuLDA training checkpoint"));
    }
    let policy = match r32(input)? {
        // v1 predates the policy tag; it was partition-by-document only.
        1 => PartitionPolicy::Document,
        2 => match r32(input)? {
            0 => PartitionPolicy::Document,
            1 => PartitionPolicy::Word,
            tag => return Err(invalid(format!("unknown policy tag {tag}"))),
        },
        v => return Err(invalid(format!("unsupported checkpoint version {v}"))),
    };
    Ok(Header {
        policy,
        seed: r64(input)?,
        num_topics: r64(input)?,
        iteration: r32(input)?,
        num_shards: r64(input)?,
    })
}

/// Reads the shards that follow `header` against `part`, the plan of the
/// corpus being resumed in the header's policy, and `cfg`: the seed, K,
/// shard count, every shard's token count and every assignment below K. A
/// shard is allocated only once its token count matches the plan. Returns
/// each chunk's state, in global chunk order.
fn read_states<R: Read>(
    header: &Header,
    part: &PartitionedCorpus,
    cfg: &TrainerConfig,
    mut input: R,
) -> io::Result<Vec<ChunkState>> {
    if header.seed != cfg.seed {
        return Err(invalid(format!(
            "checkpoint seed {:#x} != config seed {:#x}",
            header.seed, cfg.seed
        )));
    }
    let k = cfg.num_topics;
    if header.num_topics != k as u64 {
        return Err(invalid(format!(
            "checkpoint K = {} != config K = {k}",
            header.num_topics
        )));
    }
    if header.num_shards != part.num_chunks() as u64 {
        return Err(invalid(format!(
            "checkpoint has {} shards, corpus partitions into {}",
            header.num_shards,
            part.num_chunks()
        )));
    }
    let mut states = Vec::with_capacity(part.num_chunks());
    let mut buf = [0u8; 4096];
    for (ci, chunk) in part.chunks.iter().enumerate() {
        let (n, expect) = (r64(&mut input)?, chunk.num_tokens());
        if n != expect as u64 {
            return Err(invalid(format!(
                "shard {ci} has {n} tokens in the checkpoint but {expect} in the corpus"
            )));
        }
        let mut z = Vec::with_capacity(expect);
        while z.len() < expect {
            let take = (2 * (expect - z.len())).min(buf.len());
            input.read_exact(&mut buf[..take])?;
            for pair in buf[..take].chunks_exact(2) {
                let v = u16::from_le_bytes([pair[0], pair[1]]);
                if v as usize >= k {
                    return Err(invalid(format!("assignment {v} out of range K = {k}")));
                }
                z.push(v);
            }
        }
        states.push(ChunkState::from_assignments(chunk, z, k));
    }
    Ok(states)
}

/// Rebuilds a trainer from `corpus` + `cfg` and a checkpoint produced by
/// [`save_training`], in the partition policy the checkpoint's tag names
/// and on as many nodes as `cfg.nodes` asks for, behind the
/// [`LdaTrainer`] surface. The corpus and configuration must be the ones
/// the checkpoint was taken with (validated where possible: seed, K,
/// chunk count, per-chunk token counts). Malformed or mismatched
/// checkpoints surface as [`CuldaError::Checkpoint`]; underlying read
/// failures as [`CuldaError::Io`].
pub fn resume_any<R: Read>(
    corpus: &Corpus,
    cfg: TrainerConfig,
    mut input: R,
) -> Result<Box<dyn LdaTrainer>, CuldaError> {
    let header = read_header(&mut input)?;
    let (part, plan) = CuldaTrainer::plan_layout(corpus, &cfg, header.policy)?;
    let states = read_states(&header, &part, &cfg, input)?;
    let trainer = CuldaTrainer::resume(cfg, part, plan, states, header.iteration);
    Ok(Box::new(trainer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use culda_corpus::SynthSpec;
    use culda_gpusim::Platform;

    fn corpus() -> Corpus {
        let mut spec = SynthSpec::tiny();
        spec.num_docs = 120;
        spec.vocab_size = 200;
        spec.avg_doc_len = 25.0;
        spec.generate()
    }

    fn cfg() -> TrainerConfig {
        TrainerConfig::builder(8, Platform::maxwell())
            .iterations(10)
            .score_every(0)
            .seed(31)
            .build()
            .unwrap()
    }

    fn multi_gpu_cfg() -> TrainerConfig {
        TrainerConfig::builder(8, Platform::pascal().with_gpus(2))
            .iterations(10)
            .score_every(0)
            .seed(31)
            .build()
            .unwrap()
    }

    #[test]
    fn resume_is_bit_identical_to_straight_training() {
        let c = corpus();
        // Straight: 5 iterations.
        let mut straight = CuldaTrainer::try_new(&c, cfg()).unwrap();
        for _ in 0..5 {
            straight.try_step().unwrap();
        }
        // Split: 2 iterations, checkpoint, resume, 3 more.
        let mut first = CuldaTrainer::try_new(&c, cfg()).unwrap();
        first.try_step().unwrap();
        first.try_step().unwrap();
        let mut buf = Vec::new();
        save_training(&first, &mut buf).unwrap();
        let mut resumed = resume_any(&c, cfg(), buf.as_slice()).unwrap();
        for _ in 0..3 {
            resumed.try_step().unwrap();
        }
        assert_eq!(
            straight.assignments(),
            resumed.assignments(),
            "resume broke the chain"
        );
        assert!((straight.loglik_per_token() - resumed.loglik_per_token()).abs() < 1e-12);
    }

    #[test]
    fn word_trainer_resume_is_bit_identical_to_straight_training() {
        let c = corpus();
        let word = PartitionPolicy::Word;
        let mut straight = crate::api::build_trainer(word, &c, multi_gpu_cfg()).unwrap();
        for _ in 0..5 {
            straight.try_step().unwrap();
        }
        let mut first = crate::api::build_trainer(word, &c, multi_gpu_cfg()).unwrap();
        let sync = |t: &dyn LdaTrainer| t.breakdown().seconds(culda_metrics::Phase::SyncPhi);
        first.try_step().unwrap();
        let after_one = sync(first.as_ref());
        first.try_step().unwrap();
        let second_sync = sync(first.as_ref()) - after_one;
        let mut buf = Vec::new();
        save_training(first.as_ref(), &mut buf).unwrap();
        let mut resumed = resume_any(&c, multi_gpu_cfg(), buf.as_slice()).unwrap();
        assert_eq!(resumed.policy(), word);
        // The resume books the θ sync the original run paid for the
        // iteration it replaces.
        assert!(second_sync > 0.0);
        assert!((sync(resumed.as_ref()) - second_sync).abs() < 1e-12);
        for _ in 0..3 {
            resumed.try_step().unwrap();
        }
        assert_eq!(
            straight.assignments(),
            resumed.assignments(),
            "word-policy resume broke the chain"
        );
        assert_eq!(straight.phi().phi.snapshot(), resumed.phi().phi.snapshot());
        assert!((straight.loglik_per_token() - resumed.loglik_per_token()).abs() < 1e-12);
    }

    #[test]
    fn doc_trainer_resume_books_the_sync_it_replaces() {
        // The resume rebuilds ϕ through the step's node sum, so it books
        // the sync of the iteration it replaces in the configured mode and
        // over the configured nodes: the phase breakdown, the intra-node
        // sync totals and the parameter server's totals.
        use crate::config::SyncMode;
        use culda_metrics::Phase;
        use std::any::Any;
        let mut spec = SynthSpec::tiny();
        spec.seed = 5;
        let c = spec.generate();
        let cases = [
            (SyncMode::DenseTree, 1, 2),
            (SyncMode::DenseRing, 1, 2),
            (SyncMode::Delta, 1, 2),
            (SyncMode::Auto, 1, 2),
            (SyncMode::DenseTree, 2, 1),
            (SyncMode::Delta, 2, 2),
        ];
        for (mode, nodes, gpus) in cases {
            let what = format!("{mode} on {nodes} node(s) of {gpus} GPU(s)");
            let cfg = || {
                TrainerConfig::builder(8, Platform::pascal().with_gpus(gpus))
                    .score_every(0)
                    .seed(31)
                    .sync_mode(mode)
                    .nodes(nodes)
                    .build()
                    .unwrap()
            };
            let books = |t: &CuldaTrainer| {
                let s = t.breakdown().seconds(Phase::SyncPhi);
                (s, t.sync_totals(), t.parameter_server().totals())
            };
            let mut first = CuldaTrainer::try_new(&c, cfg()).unwrap();
            first.try_step().unwrap();
            let (s1, intra1, inter1) = books(&first);
            first.try_step().unwrap();
            let (s2, intra2, inter2) = books(&first);
            let mut buf = Vec::new();
            save_training(&first, &mut buf).unwrap();
            let resumed = resume_any(&c, cfg(), buf.as_slice()).unwrap();
            let resumed = (resumed.as_ref() as &dyn Any).downcast_ref().unwrap();
            let (s, intra, inter) = books(resumed);
            assert!(s2 - s1 > 0.0, "{what}: the second step booked no sync");
            assert!(
                (s - (s2 - s1)).abs() < 1e-15,
                "{what}: the resume booked {s} s, the step it replaces {} s",
                s2 - s1
            );
            for (got, before, after) in [(intra, intra1, intra2), (inter, inter1, inter2)] {
                let step = (
                    after.bytes_moved - before.bytes_moved,
                    after.dense_bytes - before.dense_bytes,
                    after.nnz - before.nnz,
                );
                assert_eq!((got.bytes_moved, got.dense_bytes, got.nnz), step, "{what}");
                let step_s = after.seconds - before.seconds;
                assert!((got.seconds - step_s).abs() < 1e-15, "{what}");
            }
        }
    }

    #[test]
    fn word_checkpoint_in_the_one_shard_per_gpu_layout_resumes_or_is_refused() {
        // Earlier word checkpoints held one shard per GPU, each the tokens
        // of a token-balanced word range in (word, document) order: what
        // one chunk per GPU holds now. Such a checkpoint resumes; under a
        // plan with more chunks it is a typed refusal, never a panic.
        let c = corpus();
        let word = PartitionPolicy::Word;
        let shards: Vec<Vec<u16>> = crate::api::build_trainer(word, &c, multi_gpu_cfg())
            .unwrap()
            .assignments()
            .iter()
            .map(|z| (0..z.len()).map(|t| (t % 8) as u16).collect())
            .collect();
        assert_eq!(shards.len(), 2);
        let mut buf = Vec::new();
        save_assignments(word, &multi_gpu_cfg(), 4, &shards, &mut buf).unwrap();
        let mut resumed = resume_any(&c, multi_gpu_cfg(), buf.as_slice()).unwrap();
        assert_eq!(resumed.iterations_done(), 4);
        resumed.check_invariants();
        resumed.try_step().unwrap();
        let mut four_chunks = multi_gpu_cfg();
        four_chunks.chunks_per_gpu = Some(2);
        match resume_any(&c, four_chunks, buf.as_slice()) {
            Err(CuldaError::Checkpoint(msg)) => assert!(msg.contains("shards"), "{msg}"),
            Err(e) => panic!("expected a checkpoint error, got {e}"),
            Ok(_) => panic!("a 2-shard checkpoint resumed into 4 chunks"),
        }
    }

    #[test]
    fn a_written_snapshot_resumes_bit_identically_for_both_policies() {
        // A checkpoint written from a trainer's assignments resumes into a
        // trainer that steps exactly as the original does.
        let c = corpus();
        for policy in [PartitionPolicy::Document, PartitionPolicy::Word] {
            let mut reference = crate::api::build_trainer(policy, &c, multi_gpu_cfg()).unwrap();
            reference.try_step().unwrap();
            reference.try_step().unwrap();
            let (iter, snap) = (reference.iterations_done(), reference.assignments());
            let mut buf = Vec::new();
            save_assignments(policy, &multi_gpu_cfg(), iter, &snap, &mut buf).unwrap();
            let mut resumed = resume_any(&c, multi_gpu_cfg(), buf.as_slice()).unwrap();
            assert_eq!(resumed.iterations_done(), iter);
            reference.try_step().unwrap();
            resumed.try_step().unwrap();
            assert_eq!(
                reference.assignments(),
                resumed.assignments(),
                "{policy} diverged after the resume"
            );
            assert!(
                (reference.loglik_per_token() - resumed.loglik_per_token()).abs() < 1e-12,
                "{policy} loglik diverged"
            );
        }
    }

    #[test]
    fn a_shard_one_token_short_or_one_shard_too_few_is_a_checkpoint_error() {
        let c = corpus();
        for policy in [PartitionPolicy::Document, PartitionPolicy::Word] {
            let snap = crate::api::build_trainer(policy, &c, multi_gpu_cfg())
                .unwrap()
                .assignments();
            let mut short = snap.clone();
            short[1].pop();
            let mut too_few = snap;
            too_few.pop();
            for (shards, want) in [(short, "shard 1 has"), (too_few, "1 shards")] {
                let mut buf = Vec::new();
                save_assignments(policy, &multi_gpu_cfg(), 1, &shards, &mut buf).unwrap();
                match resume_any(&c, multi_gpu_cfg(), buf.as_slice()) {
                    Err(CuldaError::Checkpoint(msg)) => assert!(msg.contains(want), "{msg}"),
                    Err(e) => panic!("{policy}: expected a checkpoint error, got {e}"),
                    Ok(_) => panic!("{policy}: a mis-shaped checkpoint resumed"),
                }
            }
        }
    }

    #[test]
    fn every_truncation_and_header_byte_flip_resumes_or_is_a_typed_error() {
        // A checkpoint small enough to resume from every one of its
        // prefixes. A truncation must be refused; a flipped header byte may
        // resume (the iteration counter is free) but must never panic.
        let mut spec = SynthSpec::tiny();
        spec.num_docs = 12;
        spec.vocab_size = 30;
        spec.avg_doc_len = 5.0;
        let c = spec.generate();
        for policy in [PartitionPolicy::Document, PartitionPolicy::Word] {
            let mut t = crate::api::build_trainer(policy, &c, multi_gpu_cfg()).unwrap();
            t.try_step().unwrap();
            let mut buf = Vec::new();
            save_training(t.as_ref(), &mut buf).unwrap();
            assert!(resume_any(&c, multi_gpu_cfg(), buf.as_slice()).is_ok());
            for cut in 0..buf.len() {
                match resume_any(&c, multi_gpu_cfg(), &buf[..cut]) {
                    Err(CuldaError::Checkpoint(_) | CuldaError::Io(_)) => {}
                    Err(e) => panic!("{policy}: cut at {cut}: unexpected error {e}"),
                    Ok(_) => panic!("{policy}: a checkpoint cut at {cut} resumed"),
                }
            }
            for at in 0..44 {
                for flip in [0x01u8, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xff] {
                    let mut bad = buf.clone();
                    bad[at] ^= flip;
                    let resumed = resume_any(&c, multi_gpu_cfg(), bad.as_slice());
                    // Bytes 32..36 are the iteration counter.
                    if (32..36).contains(&at) {
                        assert!(resumed.is_ok(), "{policy}: byte {at} ^ {flip:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn resume_any_dispatches_on_the_policy_tag() {
        let c = corpus();
        for policy in [PartitionPolicy::Document, PartitionPolicy::Word] {
            let mut t = crate::api::build_trainer(policy, &c, multi_gpu_cfg()).unwrap();
            t.try_step().unwrap();
            let mut buf = Vec::new();
            save_training(t.as_ref(), &mut buf).unwrap();
            let resumed = resume_any(&c, multi_gpu_cfg(), buf.as_slice()).unwrap();
            assert_eq!(resumed.policy(), policy);
            assert_eq!(resumed.iterations_done(), 1);
            assert_eq!(resumed.assignments(), t.assignments());
        }
    }

    #[test]
    fn multi_node_resume_rebuilds_every_node_and_continues_bit_identically() {
        let c = corpus();
        // Two nodes of two GPUs, two chunks per GPU: every worker owns one.
        let two_nodes = || {
            let mut cfg = multi_gpu_cfg();
            cfg.nodes = 2;
            cfg.chunks_per_gpu = Some(2);
            cfg
        };
        let doc = PartitionPolicy::Document;
        let mut straight = crate::api::build_trainer(doc, &c, two_nodes()).unwrap();
        for _ in 0..5 {
            straight.try_step().unwrap();
        }
        let mut first = crate::api::build_trainer(doc, &c, two_nodes()).unwrap();
        first.try_step().unwrap();
        first.try_step().unwrap();
        let mut buf = Vec::new();
        save_training(first.as_ref(), &mut buf).unwrap();
        let mut resumed = resume_any(&c, two_nodes(), buf.as_slice()).unwrap();
        assert_eq!(resumed.num_gpus(), 4, "resume dropped a node");
        for _ in 0..3 {
            resumed.try_step().unwrap();
        }
        resumed.check_invariants();
        assert_eq!(straight.assignments(), resumed.assignments());
        assert_eq!(straight.phi().phi.snapshot(), resumed.phi().phi.snapshot());
        assert!((straight.loglik_per_token() - resumed.loglik_per_token()).abs() < 1e-12);
    }

    #[test]
    fn mismatched_config_is_rejected() {
        let c = corpus();
        let mut t = CuldaTrainer::try_new(&c, cfg()).unwrap();
        t.try_step().unwrap();
        let mut buf = Vec::new();
        save_training(&t, &mut buf).unwrap();
        // Wrong seed.
        let mut bad = cfg();
        bad.seed = 32;
        assert!(resume_any(&c, bad, buf.as_slice()).is_err());
        // Wrong K.
        let bad = TrainerConfig::builder(16, Platform::maxwell())
            .seed(31)
            .build()
            .unwrap();
        assert!(resume_any(&c, bad, buf.as_slice()).is_err());
        // Wrong corpus (different shape).
        let mut spec = SynthSpec::tiny();
        spec.num_docs = 60;
        let other = spec.generate();
        assert!(resume_any(&other, cfg(), buf.as_slice()).is_err());
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        let c = corpus();
        assert!(resume_any(&c, cfg(), &b"nonsense"[..]).is_err());
        let mut t = CuldaTrainer::try_new(&c, cfg()).unwrap();
        t.try_step().unwrap();
        let mut buf = Vec::new();
        save_training(&t, &mut buf).unwrap();
        for cut in [3usize, 12, buf.len() / 2] {
            assert!(resume_any(&c, cfg(), &buf[..cut]).is_err());
        }
    }
}
