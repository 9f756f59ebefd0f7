//! Atomically-shared device buffers.
//!
//! The sampling and update kernels run thread blocks concurrently on host
//! threads and mutate the model with device atomics.
//! [`AtomicU32Buf`]/[`AtomicU16Buf`] are the safe equivalents:
//! relaxed-ordering atomic cells (counts need no ordering, only
//! atomicity — each iteration ends with a real synchronization point, the
//! thread join, which publishes everything). Device capacity is not
//! tracked here: the trainer's plan (`culda_multigpu::schedule`) checks
//! the model and chunks against `GpuSpec::memory_bytes` before anything
//! is built.

use std::sync::atomic::{AtomicU32, Ordering};

/// Number of distinct aligned memory segments a set of byte addresses
/// touches — the transaction count a warp-wide access issues. A perfectly
/// coalesced warp access (32 consecutive 4-byte elements on a 128-byte
/// boundary) touches exactly one segment; a strided walk touches one per
/// lane. The butterfly draw path's tests use this to *prove* each scan
/// step of the interleaved layout is a single
/// [`COALESCE_SEGMENT_BYTES`](crate::cost::COALESCE_SEGMENT_BYTES) segment.
pub fn distinct_segments(addrs: &[u64], segment_bytes: usize) -> usize {
    assert!(segment_bytes > 0, "segment size must be positive");
    let mut segs: Vec<u64> = addrs.iter().map(|&a| a / segment_bytes as u64).collect();
    segs.sort_unstable();
    segs.dedup();
    segs.len()
}

/// A device buffer of `u32` counters mutated by concurrent blocks with
/// `atomicAdd` semantics (the ϕ update kernel of Section 6.2).
#[derive(Debug)]
pub struct AtomicU32Buf {
    cells: Vec<AtomicU32>,
}

impl AtomicU32Buf {
    /// Zero-initialized buffer of `n` cells.
    pub fn zeros(n: usize) -> Self {
        let mut cells = Vec::with_capacity(n);
        cells.resize_with(n, || AtomicU32::new(0));
        Self { cells }
    }

    /// Builds from existing values.
    pub fn from_vec(v: Vec<u32>) -> Self {
        Self {
            cells: v.into_iter().map(AtomicU32::new).collect(),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Relaxed load of cell `i`.
    #[inline]
    pub fn load(&self, i: usize) -> u32 {
        self.cells[i].load(Ordering::Relaxed)
    }

    /// Relaxed store to cell `i` (single-writer phases only).
    #[inline]
    pub fn store(&self, i: usize, v: u32) {
        self.cells[i].store(v, Ordering::Relaxed);
    }

    /// `atomicAdd(&buf[i], d)`; returns the previous value.
    #[inline]
    pub fn fetch_add(&self, i: usize, d: u32) -> u32 {
        self.cells[i].fetch_add(d, Ordering::Relaxed)
    }

    /// `atomicSub`; panics in debug builds on underflow (a count going
    /// negative means a broken sampler).
    #[inline]
    pub fn fetch_sub(&self, i: usize, d: u32) -> u32 {
        let prev = self.cells[i].fetch_sub(d, Ordering::Relaxed);
        debug_assert!(prev >= d, "counter underflow at {i}: {prev} - {d}");
        prev
    }

    /// `atomicOr(&buf[i], d)`; returns the previous value. Used for
    /// touched-set bitmaps (e.g. the Δϕ row tracker), where many blocks
    /// set bits in the same word concurrently.
    #[inline]
    pub fn fetch_or(&self, i: usize, d: u32) -> u32 {
        self.cells[i].fetch_or(d, Ordering::Relaxed)
    }

    /// Snapshot into a plain vector (between kernels; no concurrent writers).
    pub fn snapshot(&self) -> Vec<u32> {
        self.cells
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Overwrites all cells from a slice (between kernels).
    pub fn copy_from(&self, src: &[u32]) {
        assert_eq!(src.len(), self.len(), "size mismatch");
        for (c, &v) in self.cells.iter().zip(src) {
            c.store(v, Ordering::Relaxed);
        }
    }

    /// Sum of all cells.
    pub fn sum(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.load(Ordering::Relaxed) as u64)
            .sum()
    }
}

/// A device buffer of `u16` cells — the compressed topic assignments of
/// Section 6.1.3 (`K < 2¹⁶`). Each token's assignment is written by exactly
/// one sampler, but samplers live on different host threads, so the cells
/// are atomic; ordering is relaxed for the same reason as [`AtomicU32Buf`].
#[derive(Debug)]
pub struct AtomicU16Buf {
    cells: Vec<std::sync::atomic::AtomicU16>,
}

impl AtomicU16Buf {
    /// Zero-initialized buffer of `n` cells.
    pub fn zeros(n: usize) -> Self {
        let mut cells = Vec::with_capacity(n);
        cells.resize_with(n, || std::sync::atomic::AtomicU16::new(0));
        Self { cells }
    }

    /// Builds from existing values.
    pub fn from_vec(v: Vec<u16>) -> Self {
        Self {
            cells: v
                .into_iter()
                .map(std::sync::atomic::AtomicU16::new)
                .collect(),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Relaxed load.
    #[inline]
    pub fn load(&self, i: usize) -> u16 {
        self.cells[i].load(Ordering::Relaxed)
    }

    /// Relaxed store.
    #[inline]
    pub fn store(&self, i: usize, v: u16) {
        self.cells[i].store(v, Ordering::Relaxed);
    }

    /// Snapshot into a plain vector (between kernels).
    pub fn snapshot(&self) -> Vec<u16> {
        self.cells
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_segments_counts_transactions() {
        // 32 consecutive f32 addresses on a 128-byte boundary: coalesced,
        // one transaction.
        let coalesced: Vec<u64> = (0..32).map(|i| 4096 + i * 4).collect();
        assert_eq!(distinct_segments(&coalesced, 128), 1);
        // The same 32 elements strided by 128 bytes: one per lane.
        let strided: Vec<u64> = (0..32).map(|i| 4096 + i * 128).collect();
        assert_eq!(distinct_segments(&strided, 128), 32);
        // Misaligned consecutive run straddles a boundary: two segments.
        let straddle: Vec<u64> = (0..32).map(|i| 4096 + 64 + i * 4).collect();
        assert_eq!(distinct_segments(&straddle, 128), 2);
        // Duplicates collapse.
        assert_eq!(distinct_segments(&[0, 0, 4, 120], 128), 1);
        assert_eq!(distinct_segments(&[], 128), 0);
    }

    #[test]
    fn atomic_u32_concurrent_adds() {
        let buf = AtomicU32Buf::zeros(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1000 {
                        buf.fetch_add(i % 4, 1);
                    }
                });
            }
        });
        assert_eq!(buf.sum(), 4000);
        assert_eq!(buf.load(0), 1000);
    }

    #[test]
    fn atomic_u32_snapshot_round_trip() {
        let buf = AtomicU32Buf::from_vec(vec![1, 2, 3]);
        let snap = buf.snapshot();
        assert_eq!(snap, vec![1, 2, 3]);
        buf.copy_from(&[7, 8, 9]);
        assert_eq!(buf.snapshot(), vec![7, 8, 9]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "counter underflow")]
    fn underflow_is_caught_in_debug() {
        let buf = AtomicU32Buf::zeros(1);
        buf.fetch_sub(0, 1);
    }
}
