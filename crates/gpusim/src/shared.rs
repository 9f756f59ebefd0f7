//! Shared memory: the per-block software-managed cache.
//!
//! The paper's sampler design (Section 6.1) hinges on what fits in shared
//! memory: the `p*(k)` vector and the `p1`/`p2` index trees are placed
//! there, and "the shared memory is not large enough to accommodate the
//! entire [probability] array" is the constraint that motivates the
//! tree-based sampling. [`SharedMem`] enforces that budget for real: every
//! allocation inside a block draws from the 48 KiB (configurable) arena and
//! overflow panics with the kernel's name — making "does it fit?" a tested
//! property instead of a hope.

/// Per-block shared memory arena.
///
/// Backing storage is host memory; what is simulated is the *budget* and
/// the traffic (callers count on-chip traffic via `BlockCtx`).
#[derive(Debug)]
pub struct SharedMem {
    budget: usize,
    used: usize,
}

impl SharedMem {
    /// Arena with `budget` bytes (48 KiB on every Table 2 GPU).
    pub fn new(budget: usize) -> Self {
        Self { budget, used: 0 }
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Bytes still free.
    pub fn available(&self) -> usize {
        self.budget - self.used
    }

    /// Total budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Whether `n` elements of `T` would fit right now.
    pub fn fits<T>(&self, n: usize) -> bool {
        n.checked_mul(std::mem::size_of::<T>())
            .is_some_and(|bytes| bytes <= self.available())
    }

    /// Allocates a zeroed array of `n` elements of `T` from the arena.
    ///
    /// # Panics
    /// Panics if the block's shared-memory budget is exceeded — the
    /// simulated equivalent of a CUDA launch failure from oversized
    /// `__shared__` declarations.
    pub fn alloc<T: Default + Clone>(&mut self, n: usize) -> Vec<T> {
        self.claim::<T>(n);
        vec![T::default(); n]
    }

    /// Claims `n` elements of `T` from the arena without allocating host
    /// memory: for a block whose array lives in host storage it reuses
    /// (the executor scratch of [`crate::kernel::run_grid_with`]).
    ///
    /// # Panics
    /// Panics like [`SharedMem::alloc`] when the budget is exceeded.
    pub fn claim<T>(&mut self, n: usize) {
        let bytes = n
            .checked_mul(std::mem::size_of::<T>())
            .expect("shared allocation size overflow");
        assert!(
            bytes <= self.available(),
            "shared memory overflow: requested {bytes} B, {} B free of {} B",
            self.available(),
            self.budget
        );
        self.used += bytes;
    }

    /// Releases `n` elements of `T` (blocks reuse the arena across phases,
    /// e.g. dropping the scratch `p*(k)` before building the doc tree).
    pub fn release<T>(&mut self, n: usize) {
        let bytes = n * std::mem::size_of::<T>();
        assert!(bytes <= self.used, "releasing more than allocated");
        self.used -= bytes;
    }

    /// Resets the arena (block retired).
    pub fn reset(&mut self) {
        self.used = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_accounts_bytes() {
        let mut sm = SharedMem::new(1024);
        let a: Vec<f32> = sm.alloc(100);
        assert_eq!(a.len(), 100);
        assert_eq!(sm.used(), 400);
        assert_eq!(sm.available(), 624);
        let _b: Vec<u16> = sm.alloc(312);
        assert_eq!(sm.available(), 0);
    }

    #[test]
    #[should_panic(expected = "shared memory overflow")]
    fn overflow_panics() {
        let mut sm = SharedMem::new(48 * 1024);
        // A dense f32 probability array for K = 16384 topics is 64 KiB —
        // exactly the case the paper says does NOT fit.
        let _p: Vec<f32> = sm.alloc(16_384);
    }

    #[test]
    fn release_and_reuse() {
        let mut sm = SharedMem::new(256);
        let _a: Vec<u32> = sm.alloc(64);
        sm.release::<u32>(64);
        assert_eq!(sm.used(), 0);
        let _b: Vec<u64> = sm.alloc(32);
        assert_eq!(sm.used(), 256);
    }

    #[test]
    fn fits_predicate() {
        let sm = SharedMem::new(16);
        assert!(sm.fits::<f32>(4));
        assert!(!sm.fits::<f32>(5));
        assert!(!sm.fits::<u8>(usize::MAX));
    }

    #[test]
    fn reset_clears() {
        let mut sm = SharedMem::new(8);
        let _: Vec<u8> = sm.alloc(8);
        sm.reset();
        assert_eq!(sm.available(), 8);
    }
}
