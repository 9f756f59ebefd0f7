//! A set-associative L1 data-cache model.
//!
//! Section 6.1.2: "NVIDIA GPUs are equipped with L1 data cache and
//! developers can decide which memory access instructions can access the
//! cache. To further improve the performance, following the performance
//! models shown in [28], we let the sparse matrix index access
//! instructions use the L1 cache." This module gives kernels that choice:
//! a per-SM (here: per-block, matching how one block's accesses behave
//! within its SM) set-associative LRU cache that classifies each address
//! as hit or miss, so the cost model can charge hits to on-chip traffic
//! and misses to DRAM.
//!
//! The model is deliberately the textbook one — `sets × ways` lines of
//! `line_size` bytes with true-LRU replacement — because what the paper's
//! optimization exploits is simple: CSR row reads are *sequential*, so
//! routing them through L1 turns `nnz` accesses into `nnz/16` line fills.

/// Configuration of an L1 cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Cache line size in bytes (128 on NVIDIA L1).
    pub line_bytes: usize,
    /// Number of sets.
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// A Maxwell/Pascal-class 24 KiB L1: 128-byte lines, 48 sets, 4 ways.
    pub fn l1_default() -> Self {
        Self {
            line_bytes: 128,
            sets: 48,
            ways: 4,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.line_bytes * self.sets * self.ways
    }
}

/// Tag of an unused way. Line tags are addresses divided by the line
/// size, so a real line never carries it.
const EMPTY: u64 = u64::MAX;

/// A set-associative LRU cache simulator tracking hits and misses.
#[derive(Debug, Clone)]
pub struct CacheSim {
    cfg: CacheConfig,
    /// `sets × ways` line tags, one fixed run of `ways` per set, least
    /// recent first; a set that is not yet full has its [`EMPTY`] ways at
    /// the least-recent end, so a miss always evicts way 0.
    tags: Vec<u64>,
    /// Line span `(first, last)` of the previous access when replaying it
    /// is provably all hits with no change to the LRU state.
    replayable: Option<(u64, u64)>,
    hits: u64,
    misses: u64,
}

impl CacheSim {
    /// An empty (cold) cache.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be 2^n");
        assert!(cfg.sets > 0 && cfg.ways > 0, "degenerate cache shape");
        Self {
            cfg,
            tags: vec![EMPTY; cfg.sets * cfg.ways],
            replayable: None,
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses `bytes` bytes at `addr`; returns the number of *missed
    /// lines* (each costing one DRAM line fill). Accesses may straddle
    /// lines.
    ///
    /// An immediate repeat of an access spanning at most `sets × ways`
    /// lines is answered without walking them: its consecutive lines put
    /// at most `ways` lines in any one set, so after the first access they
    /// are all resident as each set's most recent entries, in access order.
    /// Touching them again in that order hits every one and moves each to
    /// the most-recent slot in turn, which restores exactly the same order.
    pub fn access(&mut self, addr: u64, bytes: usize) -> usize {
        assert!(bytes > 0, "zero-byte access");
        let line = self.cfg.line_bytes as u64;
        let first = addr / line;
        let last = (addr + bytes as u64 - 1) / line;
        assert!(last != EMPTY, "address past the modelled range");
        let span = last - first + 1;
        if self.replayable == Some((first, last)) {
            self.hits += span;
            return 0;
        }
        let missed = self.walk(first, last);
        self.hits += span - missed as u64;
        self.misses += missed as u64;
        self.replayable = (span <= (self.cfg.sets * self.cfg.ways) as u64).then_some((first, last));
        missed
    }

    /// Touches lines `first..=last` in order; returns how many missed.
    fn walk(&mut self, first: u64, last: u64) -> usize {
        let (sets, ways) = (self.cfg.sets, self.cfg.ways);
        // Consecutive lines map to consecutive sets: one division, then
        // a wrapping increment.
        let mut set = (first % sets as u64) as usize;
        let mut missed = 0;
        for line in first..=last {
            let tags = &mut self.tags[set * ways..(set + 1) * ways];
            match tags.iter().position(|&t| t == line) {
                // Hit: becomes the most recent.
                Some(pos) => tags[pos..].rotate_left(1),
                // Miss: evict the least recent (or an empty) way.
                None => {
                    tags.copy_within(1.., 0);
                    tags[ways - 1] = line;
                    missed += 1;
                }
            }
            set = if set + 1 == sets { 0 } else { set + 1 };
        }
        missed
    }

    /// Line hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Line misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]` (0 for an untouched cache).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Bytes of DRAM traffic caused so far (misses × line size).
    pub fn dram_bytes(&self) -> u64 {
        self.misses * self.cfg.line_bytes as u64
    }

    /// The configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Invalidates everything (new kernel, new block).
    pub fn flush(&mut self) {
        self.tags.fill(EMPTY);
        self.replayable = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheSim {
        // 2 sets × 2 ways × 64 B lines = 256 B.
        CacheSim::new(CacheConfig {
            line_bytes: 64,
            sets: 2,
            ways: 2,
        })
    }

    #[test]
    fn sequential_streaming_hits_within_lines() {
        let mut c = tiny();
        // 16 sequential 4-byte reads = one 64-byte line: 1 miss, 15 hits.
        let mut missed = 0;
        for i in 0..16u64 {
            missed += c.access(i * 4, 4);
        }
        assert_eq!(missed, 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 15);
        assert!((c.hit_rate() - 15.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_oldest_way() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even line tags); 2 ways.
        assert_eq!(c.access(0, 1), 1); // line 0 miss
        assert_eq!(c.access(2 * 64, 1), 1); // line 2 miss
        assert_eq!(c.access(0, 1), 0); // line 0 hit (now MRU)
        assert_eq!(c.access(4 * 64, 1), 1); // line 4 miss, evicts line 2
        assert_eq!(c.access(0, 1), 0); // line 0 still resident
        assert_eq!(c.access(2 * 64, 1), 1); // line 2 was evicted
    }

    #[test]
    fn straddling_access_touches_both_lines() {
        let mut c = tiny();
        let missed = c.access(60, 8); // crosses the 64-byte boundary
        assert_eq!(missed, 2);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = tiny(); // 256 B capacity
                            // Stream 4 KiB twice: second pass still misses everything.
        for pass in 0..2 {
            let mut missed = 0;
            for i in 0..64u64 {
                missed += c.access(i * 64, 4);
            }
            assert_eq!(missed, 64, "pass {pass} should thrash");
        }
    }

    #[test]
    fn small_working_set_is_fully_resident_on_repass() {
        let mut c = tiny();
        // 4 lines: fits 2 sets × 2 ways exactly (tags 0,1,2,3 → sets 0,1).
        for i in 0..4u64 {
            c.access(i * 64, 4);
        }
        let mut missed = 0;
        for i in 0..4u64 {
            missed += c.access(i * 64, 4);
        }
        assert_eq!(missed, 0);
    }

    #[test]
    fn flush_cools_the_cache() {
        let mut c = tiny();
        c.access(0, 4);
        c.flush();
        assert_eq!(c.access(0, 4), 1, "flushed line must miss");
    }

    #[test]
    fn dram_bytes_counts_line_fills() {
        let mut c = tiny();
        c.access(0, 4);
        c.access(64, 4);
        c.access(0, 4); // hit
        assert_eq!(c.dram_bytes(), 128);
    }

    /// The textbook model the simulator must match access for access:
    /// per-set tag lists, most recent last, walked line by line.
    fn reference_access(
        sets: &mut [Vec<u64>],
        ways: usize,
        line: u64,
        addr: u64,
        bytes: u64,
    ) -> usize {
        let mut missed = 0;
        for l in addr / line..=(addr + bytes - 1) / line {
            let set = &mut sets[(l % sets.len() as u64) as usize];
            if let Some(pos) = set.iter().position(|&t| t == l) {
                set.remove(pos);
            } else {
                if set.len() == ways {
                    set.remove(0);
                }
                missed += 1;
            }
            set.push(l);
        }
        missed
    }

    #[test]
    fn replayed_and_walked_accesses_match_the_textbook_lru() {
        // Rows of 1–40 lines (some past sets × ways) at addresses that
        // often repeat back to back, as consecutive tokens of one document
        // do in the sampling kernel.
        for ways in [1usize, 2, 3, 4, 6, 8, 16] {
            let cfg = CacheConfig {
                line_bytes: 128,
                sets: 6,
                ways,
            };
            let mut c = CacheSim::new(cfg);
            let mut reference = vec![Vec::new(); cfg.sets];
            let mut state = 0x2545_f491_4f6c_dd1du64 ^ ways as u64;
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let (mut addr, mut bytes) = (0u64, 1u64);
            let mut total_lines = 0u64;
            for _ in 0..10_000 {
                if next() % 3 != 0 {
                    addr = next() % 64 * 300;
                    bytes = 1 + next() % (40 * 128);
                }
                let want = reference_access(&mut reference, ways, 128, addr, bytes);
                let got = c.access(addr, bytes as usize);
                assert_eq!(got, want, "{ways} ways: addr {addr}, {bytes} B");
                total_lines += (addr + bytes - 1) / 128 - addr / 128 + 1;
            }
            assert_eq!(c.hits() + c.misses(), total_lines);
            // A flush forgets the replay shortcut along with the lines.
            c.flush();
            assert!(c.access(addr, bytes as usize) > 0);
        }
    }

    #[test]
    fn default_l1_capacity() {
        assert_eq!(CacheConfig::l1_default().capacity(), 24 * 1024);
    }
}
