//! Set-associative L1 data-cache models.
//!
//! Section 6.1.2: "NVIDIA GPUs are equipped with L1 data cache and
//! developers can decide which memory access instructions can access the
//! cache. To further improve the performance, following the performance
//! models shown in \[28\], we let the sparse matrix index access
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
//!
//! Two types model it:
//!
//! - [`CacheSim`] is the general model: it walks every line of every
//!   access through per-set LRU tags. It accepts any access order and is
//!   the reference the other model is tested against.
//! - [`AscendingCache`] is the same model for an access stream that never
//!   moves backwards, in closed form: it keeps only the previous access's
//!   line span and returns the same missed-line count for every access.
//!   The sampling kernel's θ-row loads form such a stream within a block,
//!   so this is the model it uses.

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
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses `bytes` bytes at `addr`; returns the number of *missed
    /// lines* (each costing one DRAM line fill). Accesses may straddle
    /// lines.
    pub fn access(&mut self, addr: u64, bytes: usize) -> usize {
        assert!(bytes > 0, "zero-byte access");
        let line = self.cfg.line_bytes as u64;
        let first = addr / line;
        let last = (addr + bytes as u64 - 1) / line;
        assert!(last != EMPTY, "address past the modelled range");
        let missed = self.walk(first, last);
        self.hits += last - first + 1 - missed as u64;
        self.misses += missed as u64;
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
    }
}

/// [`CacheSim`]'s model, in closed form, for a stream whose accesses
/// never move backwards.
///
/// Each access must start at or after the last line of the previous one
/// since the last flush, or repeat that access's span exactly. Then no
/// state beyond the previous access's line span `[a, b]` matters; for an
/// access over lines `[c, e]`, `L = e − c + 1` lines:
///
/// - the first access after a flush misses all `L` lines;
/// - a repeat, `(c, e) == (a, b)`: consecutive lines map to consecutive
///   sets, so each set holds `q = L / sets` or `q + 1` of the span's lines
///   (`r = L % sets` sets hold `q + 1`), and after the first pass each set
///   keeps the last `ways` of them, most recent last. A set holding at most
///   `ways` of them hits all of them again in the same order; a set
///   holding more evicts each one before its reuse (LRU over a cyclic
///   sweep) and misses all of them. This is 0 whenever `L ≤ sets × ways`;
/// - `c ≥ b`: no line past `b` has been touched since the flush, so every
///   line misses except line `b` itself when `c == b`, which is resident:
///   it was the last line touched.
///
/// [`access`](Self::access) panics on any other access. Tests check every
/// access's count against [`CacheSim`] on random ascending streams and on
/// the sampling kernel's own θ-row streams.
#[derive(Debug, Clone)]
pub struct AscendingCache {
    cfg: CacheConfig,
    /// Line span `(first, last)` of the previous access since the flush.
    prev: Option<(u64, u64)>,
}

impl AscendingCache {
    /// An empty (cold) cache.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be 2^n");
        assert!(cfg.sets > 0 && cfg.ways > 0, "degenerate cache shape");
        Self { cfg, prev: None }
    }

    /// Accesses `bytes` bytes at `addr`; returns the number of missed
    /// lines, as [`CacheSim::access`] would.
    ///
    /// # Panics
    /// Panics on a zero-byte access, and on an access that starts before
    /// the last line of the previous one without repeating it exactly.
    #[inline]
    pub fn access(&mut self, addr: u64, bytes: usize) -> usize {
        assert!(bytes > 0, "zero-byte access");
        let line = self.cfg.line_bytes as u64;
        let (first, last) = (addr / line, (addr + bytes as u64 - 1) / line);
        let span = last - first + 1;
        let missed = match self.prev {
            None => span,
            Some(prev) if prev == (first, last) => {
                let (sets, ways) = (self.cfg.sets as u64, self.cfg.ways as u64);
                let (q, r) = (span / sets, span % sets);
                let thrashed = |n: u64| if n > ways { n } else { 0 };
                r * thrashed(q + 1) + (sets - r) * thrashed(q)
            }
            Some((_, b)) => {
                assert!(
                    first >= b,
                    "ascending stream moved backwards: lines {first}..={last} start before \
                     line {b}, the last of the previous access"
                );
                span - u64::from(first == b)
            }
        };
        self.prev = Some((first, last));
        missed as usize
    }

    /// The configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Invalidates everything (new kernel, new block).
    pub fn flush(&mut self) {
        self.prev = None;
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
            // A flush forgets every line.
            c.flush();
            assert!(c.access(addr, bytes as usize) > 0);
        }
    }

    #[test]
    fn ascending_cache_matches_the_lru_walk_access_by_access() {
        // Ascending streams over many geometries: rows shorter than, equal
        // to and longer than `sets × ways` lines, exact repeats, rows that
        // start inside the previous row's last line (as adjacent CSR rows
        // do when a row ends mid-line), gaps, and flushes mid-stream.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut thrashing_repeats, mut shared_lines) = (0, 0);
        for line in [32u64, 64, 128, 256] {
            for sets in 1..=8usize {
                for ways in [1usize, 2, 3, 4, 5, 8, 16] {
                    let cfg = CacheConfig {
                        line_bytes: line as usize,
                        sets,
                        ways,
                    };
                    let mut sim = CacheSim::new(cfg);
                    let mut fast = AscendingCache::new(cfg);
                    let capacity = (sets * ways) as u64;
                    let (mut addr, mut bytes) = (0u64, 0u64);
                    for i in 0..600 {
                        if next() % 40 == 0 {
                            sim.flush();
                            fast.flush();
                        }
                        let repeat = bytes > 0 && next() % 3 == 0;
                        if !repeat {
                            let end = addr + bytes;
                            let prev_last = end.saturating_sub(1) / line;
                            addr = match next() % 3 {
                                0 => end,
                                1 => prev_last * line + next() % line,
                                _ => end + next() % (2 * capacity * line),
                            };
                            if bytes > 0 && addr / line == prev_last {
                                shared_lines += 1;
                            }
                            let span = match next() % 4 {
                                0 => capacity,
                                1 => capacity + 1 + next() % (2 * capacity),
                                _ => 1 + next() % capacity,
                            };
                            // Exactly `span` lines from `addr`, ending
                            // anywhere in the last one.
                            let room = span * line - addr % line;
                            bytes = room - next() % room.min(line);
                        }
                        let want = sim.access(addr, bytes as usize);
                        let got = fast.access(addr, bytes as usize);
                        assert_eq!(
                            got, want,
                            "{sets} sets × {ways} ways × {line} B, access {i}: \
                             addr {addr}, {bytes} B, repeat {repeat}"
                        );
                        if repeat && want > 0 {
                            thrashing_repeats += 1;
                        }
                    }
                }
            }
        }
        assert!(thrashing_repeats > 0 && shared_lines > 0);
    }

    #[test]
    #[should_panic(expected = "ascending stream moved backwards")]
    fn ascending_cache_rejects_a_backward_access() {
        let mut c = AscendingCache::new(CacheConfig {
            line_bytes: 128,
            sets: 48,
            ways: 4,
        });
        c.access(1024, 256);
        c.access(512, 8);
    }
}
