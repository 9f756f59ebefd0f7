//! # culda-baselines
//!
//! Every system the paper's evaluation compares CuLDA_CGS against,
//! implemented from scratch (or, where the original is closed source and
//! the paper itself only cites reported numbers, reproduced as a reference
//! constant plus a runnable approximation — see DESIGN.md §1):
//!
//! * [`dense_cgs`] — the textbook O(K) CGS with a host time model.
//! * [`sparse_cgs`] — SparseLDA-class S/Q CGS on the CPU (Yao et al. \[32\]).
//! * [`warplda`] — the WarpLDA-class MH + alias-table sampler \[10\], the
//!   paper's main CPU comparison (Table 4, Figures 7–8).
//! * [`alias`] — Walker alias tables (substrate for the MH samplers).
//! * [`gpu_dense`] — the naive one-thread-per-token dense GPU port
//!   (BIDMach-class \[8\]), the Section 1 strawman.
//! * [`distributed`] — a parameter-server LDA over simulated 10 Gb/s
//!   ethernet, the LDA* \[34\] proxy (Figure 8, PubMed).
//! * [`saber`] — SaberLDA \[20\] reported numbers + a runnable
//!   approximation on a GTX 1080 spec (Figure 8).
//!
//! All baselines score themselves with the same `culda-metrics` joint
//! log-likelihood and, like the GPU side, run their statistics for real
//! while charging time to an explicit roofline model.

#![warn(missing_docs)]

pub mod alias;
pub mod dense_cgs;
pub mod distributed;
pub mod gpu_dense;
pub mod saber;
pub mod sparse_cgs;
pub mod warplda;

pub use alias::AliasTable;
pub use dense_cgs::TimedDenseCgs;
pub use distributed::DistributedLda;
pub use gpu_dense::run_naive_dense_kernel;
pub use saber::{
    saber_like_trainer, saber_platform, CULDA_REPORTED_TITAN_NYTIMES_TPS,
    SABER_REPORTED_NYTIMES_TPS,
};
pub use sparse_cgs::SparseCgs;
pub use warplda::WarpLda;
