//! The warp width.
//!
//! CuLDA's unit of work is the warp: "CuLDA_CGS uses one warp to process
//! one LDA sampling at a time. We refer a warp as a sampler" (Section
//! 6.1.1). The kernels lay out and price their work per warp; they run
//! each lane's arithmetic on the host and do not emulate the CUDA warp
//! collectives (shuffles, scans, ballots), whose traffic the cost model
//! charges instead.

/// Lanes per warp on NVIDIA hardware (the paper notes AMD uses 64).
pub const WARP_SIZE: usize = 32;
