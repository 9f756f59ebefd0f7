//! Device memory: capacity accounting and atomically-shared buffers.
//!
//! Two concerns live here:
//!
//! 1. **Capacity.** The paper stresses that "a typical GPU has only
//!    12GB–16GB memory", which forces the out-of-core `M > 1` schedule.
//!    [`MemoryLedger`] models that: every device-resident buffer reserves
//!    bytes against the device's capacity, and exhaustion is a normal,
//!    recoverable condition ([`OomError`]) the scheduler reacts to.
//! 2. **Shared mutation.** The sampling and update kernels run thread
//!    blocks concurrently on host threads and mutate the model with device
//!    atomics. [`AtomicU32Buf`]/[`AtomicU16Buf`] are the safe equivalents:
//!    relaxed-ordering atomic cells (counts need no ordering, only
//!    atomicity — each iteration ends with a real synchronization point,
//!    the thread join, which publishes everything).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Device memory exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OomError {
    /// Bytes that were requested.
    pub requested: u64,
    /// Bytes that were still free.
    pub available: u64,
    /// Device capacity in bytes.
    pub capacity: u64,
}

impl std::fmt::Display for OomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device OOM: requested {} bytes, {} free of {}",
            self.requested, self.available, self.capacity
        )
    }
}

impl std::error::Error for OomError {}

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

/// Tracks allocated bytes against a device's capacity.
#[derive(Debug)]
pub struct MemoryLedger {
    capacity: u64,
    allocated: AtomicU64,
}

impl MemoryLedger {
    /// A ledger for a device with `capacity` bytes.
    pub fn new(capacity: u64) -> Arc<Self> {
        Arc::new(Self {
            capacity,
            allocated: AtomicU64::new(0),
        })
    }

    /// Reserves `bytes`, returning an RAII guard that releases on drop.
    pub fn reserve(self: &Arc<Self>, bytes: u64) -> Result<Reservation, OomError> {
        // CAS loop so concurrent reservations never oversubscribe.
        let mut cur = self.allocated.load(Ordering::Relaxed);
        loop {
            let available = self.capacity - cur;
            if bytes > available {
                return Err(OomError {
                    requested: bytes,
                    available,
                    capacity: self.capacity,
                });
            }
            match self.allocated.compare_exchange_weak(
                cur,
                cur + bytes,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Ok(Reservation {
                        ledger: Arc::clone(self),
                        bytes,
                    })
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Bytes currently reserved.
    pub fn allocated(&self) -> u64 {
        self.allocated.load(Ordering::Relaxed)
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes still free.
    pub fn available(&self) -> u64 {
        self.capacity - self.allocated()
    }
}

/// RAII reservation of device memory.
#[derive(Debug)]
pub struct Reservation {
    ledger: Arc<MemoryLedger>,
    bytes: u64,
}

impl Reservation {
    /// Size of this reservation.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.ledger
            .allocated
            .fetch_sub(self.bytes, Ordering::Relaxed);
    }
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
    fn ledger_reserve_and_release() {
        let ledger = MemoryLedger::new(1000);
        let a = ledger.reserve(600).unwrap();
        assert_eq!(ledger.allocated(), 600);
        let err = ledger.reserve(500).unwrap_err();
        assert_eq!(err.available, 400);
        drop(a);
        assert_eq!(ledger.allocated(), 0);
        let _b = ledger.reserve(1000).unwrap();
        assert_eq!(ledger.available(), 0);
    }

    #[test]
    fn oom_error_is_displayable() {
        let ledger = MemoryLedger::new(10);
        let e = ledger.reserve(20).unwrap_err();
        assert!(e.to_string().contains("requested 20"));
    }

    #[test]
    fn concurrent_reservations_never_oversubscribe() {
        let ledger = MemoryLedger::new(100);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let l = Arc::clone(&ledger);
                    s.spawn(move || {
                        let mut held = Vec::new();
                        while let Ok(r) = l.reserve(10) {
                            held.push(r);
                        }
                        held
                    })
                })
                .collect();
            // Join all threads BEFORE dropping any reservation, so releases
            // cannot refill the ledger mid-count.
            let all: Vec<_> = handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            let total: u64 = all.iter().map(|r| r.bytes()).sum();
            assert_eq!(total, 100, "exactly the capacity must be handed out");
        });
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
