//! # culda-sampler
//!
//! The paper's core contribution: the CuLDA_CGS sampling and model-update
//! kernels (Sections 5–6), running on the `culda-gpusim` substrate.
//!
//! * [`hyper`] — priors (`α = 50/K`, `β = 0.01`).
//! * [`count`] — [`CountMatrix`], the hybrid dense/CSR count storage with
//!   the per-row format argmin and the sparse-sampling cost model.
//! * [`model`] — ϕ (hybrid sparse/dense, word-major) and per-chunk θ (CSR,
//!   u16) + assignments `z` (u16), with host-side oracles for both update
//!   kernels.
//! * [`ptree`] — the Figure 5 N-ary prefix-sum index tree (fanout 32).
//! * [`butterfly`] — the cost model of the Steele–Tristan
//!   butterfly-patterned partial-sum draw (coalesced interleaved prefixes
//!   and a register-resident lower-bound search), charged over the same
//!   contiguous prefix the tree draw uses.
//! * [`mode`] — [`DrawMode`] and the shared canonical mode-flag machinery
//!   (`ModeParseError`/`parse_mode`) every mode enum derives from.
//! * [`spq`] — the Eq. 6–8 sparsity-aware S/Q decomposition with `p*(k)`
//!   sub-expression reuse, plus scalar reference samplers.
//! * [`topic_counter`] — [`TopicCounter`], the update kernels' per-block
//!   topic tally, drained in ascending order by its bitmap.
//! * [`blockmap`] — Figure 6 word-first block assignment with heavy-word
//!   splitting and smallest-ID-first scheduling.
//! * [`kernel_sample`] — the warp-per-sampler sampling kernel (Algorithm 2).
//! * [`kernel_infer`] — the warp-per-document fold-in kernel (serving path,
//!   ϕ strictly read-only).
//! * [`kernel_theta`] / [`kernel_phi`] — the Section 6.2 update kernels.
//! * [`delta`] — [`PhiDelta`], the touched-row tracker feeding sparse Δϕ
//!   synchronization (the ϕ kernel marks one row per block).
//! * [`dense`] — the textbook O(K) CGS used as correctness oracle/baseline.
//! * [`validate`] — cross-kernel count-conservation checks.
//!
//! Each kernel's `try_run_*_kernel` entry point launches through
//! `Device::try_launch_spec_with`. The trainer's per-GPU iteration body,
//! `culda_multigpu::GpuWorker::try_run_iteration`, calls them directly in
//! Algorithm 1's order: sample, clear and rebuild ϕ, then rebuild θ,
//! resident or streamed.

#![warn(missing_docs)]

pub mod blockmap;
pub mod butterfly;
pub mod checkpoint;
pub mod count;
pub mod delta;
pub mod dense;
pub mod hyper;
pub mod kernel_infer;
pub mod kernel_phi;
pub mod kernel_sample;
pub mod kernel_theta;
pub mod mode;
pub mod model;
pub mod ptree;
pub mod spq;
pub mod topic_counter;
pub mod validate;

pub use blockmap::{auto_tokens_per_block, build_block_map, BlockWork, SAMPLERS_PER_BLOCK};
pub use butterfly::{
    butterfly_p1_cost, p1_scratch_floats, search_steps, tree_p1_cost, DrawCost, BUTTERFLY_TILE,
};
pub use checkpoint::{load_phi, save_phi};
pub use count::{
    choose_sparse_sampling, dense_cutover, pstar_block_cost, row_encoding, sparse_sampling_cutover,
    CountMatrix, PstarCost, RowFormat, SmoothedBaseline,
};
pub use delta::PhiDelta;
pub use dense::DenseCgs;
pub use hyper::Priors;
pub use kernel_infer::{
    infer_reference, try_run_infer_kernel, DocPosterior, InferDoc, InferKernelConfig,
};
pub use kernel_phi::{add_block_to_phi, try_run_phi_clear_kernel, try_run_phi_update_kernel};
pub use kernel_sample::{sample_chunk_reference, try_run_sampling_kernel, SampleConfig};
pub use kernel_theta::try_run_theta_update_kernel;
pub use mode::{parse_mode, DrawMode, ModeParseError};
pub use model::{
    accumulate_phi_host, build_theta_host, ChunkState, LdaModel, PhiModel, MAX_TOPICS,
};
pub use ptree::{depth_for, linear_search, IndexTree, DEFAULT_FANOUT};
pub use spq::takes_p1;
pub use topic_counter::TopicCounter;
