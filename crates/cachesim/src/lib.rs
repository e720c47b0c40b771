//! A deterministic CPU cache hierarchy simulator.
//!
//! The ICPP 2018 group-hashing paper measures CPU cache efficiency with
//! hardware L3-miss counters (via PAPI). This crate replaces those counters
//! with a deterministic model: a configurable multi-level, set-associative,
//! LRU cache hierarchy with 64-byte lines and `clflush`-style invalidation.
//!
//! The model captures exactly the two effects the paper reasons about:
//!
//! 1. **Spatial locality** — probing contiguous cells touches few lines, so
//!    schemes whose collision-resolution cells are contiguous (linear
//!    probing, PFHT buckets, group hashing) take fewer misses than schemes
//!    whose probe sequences are scattered (path hashing).
//! 2. **Flush-induced invalidation** — `clflush` evicts the line, so the
//!    next access to the same address misses. Logging doubles the flushed
//!    footprint and therefore roughly doubles misses.
//!
//! The simulator is intentionally simple (no coherence, one core, inclusive
//! levels probed outer-to-inner on miss) but fully deterministic, so the
//! harness reproduces identical miss counts run-to-run.
//!
//! # Example
//!
//! ```
//! use nvm_cachesim::{CacheHierarchy, CacheConfig, AccessKind, HitLevel};
//!
//! let mut h = CacheHierarchy::new(CacheConfig::xeon_e5_2620());
//! assert_eq!(h.access(0x1000, AccessKind::Read), HitLevel::Memory);
//! assert_eq!(h.access(0x1008, AccessKind::Read), HitLevel::L1); // same line
//! h.invalidate(0x1000); // clflush
//! assert_eq!(h.access(0x1000, AccessKind::Read), HitLevel::Memory);
//! ```

mod config;
mod level;
mod stats;

pub use config::{CacheConfig, LevelConfig, Prefetcher};
pub use level::CacheLevel;
pub use stats::{CacheStats, LevelStats};

/// The width of a cache line in bytes. Fixed at 64, matching every x86
/// microarchitecture the paper considers.
pub const LINE_BYTES: usize = 64;

/// Log2 of [`LINE_BYTES`].
pub const LINE_SHIFT: u32 = 6;

/// Whether a simulated access reads or writes the line.
///
/// The distinction only affects statistics (and dirty-line accounting in
/// higher layers); the replacement policy treats both identically, like a
/// write-allocate cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    Read,
    Write,
}

/// The innermost level that satisfied an access.
///
/// `Memory` means the access missed every simulated level and went to
/// DRAM/NVM. Ordering is by distance from the core: `L1 < L2 < L3 < Memory`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HitLevel {
    L1,
    L2,
    L3,
    Memory,
}

impl HitLevel {
    /// Index of this level (L1 = 0), or `None` for `Memory`.
    pub fn level_index(self) -> Option<usize> {
        match self {
            HitLevel::L1 => Some(0),
            HitLevel::L2 => Some(1),
            HitLevel::L3 => Some(2),
            HitLevel::Memory => None,
        }
    }

    fn from_index(i: usize) -> HitLevel {
        match i {
            0 => HitLevel::L1,
            1 => HitLevel::L2,
            2 => HitLevel::L3,
            _ => HitLevel::Memory,
        }
    }
}

/// A multi-level cache hierarchy.
///
/// Levels are probed from L1 outwards; on a miss at every level the line is
/// filled into all levels (mostly-inclusive behaviour). On a hit at level
/// *i*, the line is filled into levels closer than *i*.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    levels: Vec<CacheLevel>,
    stats: CacheStats,
    prefetch: Prefetcher,
    /// Stream-detector state: last line touched and current ascending-run
    /// length.
    last_line: usize,
    run: u32,
}

impl CacheHierarchy {
    /// Builds a hierarchy from `config`. Panics if the configuration is
    /// invalid (see [`CacheConfig::validate`]).
    pub fn new(config: CacheConfig) -> Self {
        config.validate().expect("invalid cache configuration");
        let levels = config
            .levels
            .iter()
            .map(CacheLevel::new)
            .collect::<Vec<_>>();
        let n = levels.len();
        CacheHierarchy {
            levels,
            stats: CacheStats::new(n),
            prefetch: config.prefetch,
            last_line: usize::MAX,
            run: 0,
        }
    }

    /// Fills `line` into every level without counting an access (hardware
    /// prefetch is asynchronous and off the critical path).
    fn prefetch_line(&mut self, line: usize) {
        for level in &mut self.levels {
            level.insert(line);
        }
        self.stats.record_prefetch();
    }

    /// Simulates one access to byte address `addr` and returns the innermost
    /// level that hit. The full line containing `addr` is brought into every
    /// level closer than the hit level.
    pub fn access(&mut self, addr: usize, kind: AccessKind) -> HitLevel {
        let line = addr >> LINE_SHIFT;
        self.stats.record_access(kind);
        let mut hit = HitLevel::Memory;
        for (i, level) in self.levels.iter_mut().enumerate() {
            if level.touch(line) {
                hit = HitLevel::from_index(i);
                self.stats.record_hit(i);
                break;
            }
            self.stats.record_miss(i);
        }
        // Fill the line into every level that missed (those closer than the
        // hit level).
        let fill_upto = hit.level_index().unwrap_or(self.levels.len());
        for level in &mut self.levels[..fill_upto] {
            level.insert(line);
        }
        // Hardware prefetcher.
        match self.prefetch {
            Prefetcher::None => {}
            Prefetcher::NextLine => {
                if hit == HitLevel::Memory {
                    self.prefetch_line(line + 1);
                }
            }
            Prefetcher::Stream { depth } => {
                // Track ascending-line runs; repeats within a line do not
                // break the stream.
                if line == self.last_line.wrapping_add(1) {
                    self.run += 1;
                } else if line != self.last_line {
                    self.run = 0;
                }
                if self.run >= 1 {
                    // Stream confirmed: pull the lines ahead.
                    for d in 1..=depth {
                        self.prefetch_line(line + d);
                    }
                }
            }
        }
        self.last_line = line;
        hit
    }

    /// Invalidates the line containing `addr` from every level, modelling
    /// `clflush` (which flushes *and* invalidates the line).
    pub fn invalidate(&mut self, addr: usize) {
        let line = addr >> LINE_SHIFT;
        for level in &mut self.levels {
            level.evict_line(line);
        }
        self.stats.record_invalidation();
    }

    /// Returns `true` if the line containing `addr` is resident at `level`
    /// (0 = L1). Intended for tests and debugging.
    pub fn is_resident(&self, addr: usize, level: usize) -> bool {
        self.levels[level].contains(addr >> LINE_SHIFT)
    }

    /// Number of simulated levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics but keeps cache contents (useful for excluding a
    /// warm-up phase from measurements).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Empties every level and resets statistics.
    pub fn clear(&mut self) {
        for level in &mut self.levels {
            level.clear();
        }
        self.stats.reset();
    }

    /// Misses at the outermost (last-level) cache since the last reset —
    /// the quantity the paper reports as "L3 cache misses".
    pub fn llc_misses(&self) -> u64 {
        let last = self.levels.len() - 1;
        self.stats.level(last).misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheHierarchy {
        // One level: 4 sets x 2 ways = 8 lines.
        CacheHierarchy::new(CacheConfig {
            levels: vec![LevelConfig {
                size_bytes: 8 * LINE_BYTES,
                ways: 2,
            }],
            prefetch: Prefetcher::None,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut h = tiny();
        assert_eq!(h.access(0, AccessKind::Read), HitLevel::Memory);
        assert_eq!(h.access(0, AccessKind::Read), HitLevel::L1);
        assert_eq!(h.access(63, AccessKind::Read), HitLevel::L1); // same line
        assert_eq!(h.access(64, AccessKind::Read), HitLevel::Memory); // next line
    }

    #[test]
    fn lru_evicts_oldest_within_set() {
        let mut h = tiny();
        // 4 sets => lines 0, 4, 8 map to set 0. 2 ways.
        let a = 0;
        let b = 4 * LINE_BYTES;
        let c = 8 * LINE_BYTES;
        h.access(a, AccessKind::Read);
        h.access(b, AccessKind::Read);
        h.access(a, AccessKind::Read); // a is now MRU
        h.access(c, AccessKind::Read); // evicts b
        assert_eq!(h.access(a, AccessKind::Read), HitLevel::L1);
        assert_eq!(h.access(b, AccessKind::Read), HitLevel::Memory);
    }

    #[test]
    fn invalidate_forces_miss() {
        let mut h = tiny();
        h.access(128, AccessKind::Write);
        assert_eq!(h.access(128, AccessKind::Read), HitLevel::L1);
        h.invalidate(130); // same line as 128
        assert_eq!(h.access(128, AccessKind::Read), HitLevel::Memory);
        assert_eq!(h.stats().invalidations, 1);
    }

    #[test]
    fn hierarchy_fill_and_l2_hit() {
        // L1: 2 lines direct-mapped-ish, L2: 16 lines.
        let mut h = CacheHierarchy::new(CacheConfig {
            levels: vec![
                LevelConfig {
                    size_bytes: 2 * LINE_BYTES,
                    ways: 1,
                },
                LevelConfig {
                    size_bytes: 16 * LINE_BYTES,
                    ways: 4,
                },
            ],
            prefetch: Prefetcher::None,
        });
        let a = 0;
        let b = 2 * LINE_BYTES; // conflicts with a in L1 (2 sets, way 1)
        assert_eq!(h.access(a, AccessKind::Read), HitLevel::Memory);
        assert_eq!(h.access(b, AccessKind::Read), HitLevel::Memory); // evicts a from L1
        assert_eq!(h.access(a, AccessKind::Read), HitLevel::L2); // still in L2
        assert_eq!(h.access(a, AccessKind::Read), HitLevel::L1); // refilled
    }

    #[test]
    fn stats_accumulate() {
        let mut h = tiny();
        h.access(0, AccessKind::Read);
        h.access(0, AccessKind::Write);
        h.access(64, AccessKind::Read);
        let s = h.stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.level(0).hits, 1);
        assert_eq!(s.level(0).misses, 2);
        assert_eq!(h.llc_misses(), 2);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut h = tiny();
        h.access(0, AccessKind::Read);
        h.reset_stats();
        assert_eq!(h.stats().reads, 0);
        assert_eq!(h.access(0, AccessKind::Read), HitLevel::L1);
    }

    #[test]
    fn clear_empties_contents() {
        let mut h = tiny();
        h.access(0, AccessKind::Read);
        h.clear();
        assert_eq!(h.access(0, AccessKind::Read), HitLevel::Memory);
    }

    #[test]
    fn default_config_residency() {
        let mut h = CacheHierarchy::new(CacheConfig::xeon_e5_2620());
        h.access(0x4_0000, AccessKind::Read);
        assert!(h.is_resident(0x4_0000, 0));
        assert!(h.is_resident(0x4_0000, 1));
        assert!(h.is_resident(0x4_0000, 2));
    }

    #[test]
    fn next_line_prefetcher_pulls_next_line() {
        let mut h = CacheHierarchy::new(CacheConfig {
            levels: vec![LevelConfig {
                size_bytes: 16 * LINE_BYTES,
                ways: 4,
            }],
            prefetch: Prefetcher::NextLine,
        });
        assert_eq!(h.access(0, AccessKind::Read), HitLevel::Memory);
        // Line 1 was prefetched.
        assert_eq!(h.access(LINE_BYTES, AccessKind::Read), HitLevel::L1);
        assert_eq!(h.stats().prefetches, 1);
        // With next-line-only prefetch, a cold sequential scan misses
        // every other line.
        let mut misses = 0;
        for addr in (1024..1024 + 8 * LINE_BYTES).step_by(LINE_BYTES) {
            if h.access(addr, AccessKind::Read) == HitLevel::Memory {
                misses += 1;
            }
        }
        assert_eq!(misses, 4);
    }

    #[test]
    fn stream_prefetcher_hides_sequential_scans() {
        let mut h = CacheHierarchy::new(CacheConfig {
            levels: vec![LevelConfig {
                size_bytes: 64 * LINE_BYTES,
                ways: 4,
            }],
            prefetch: Prefetcher::Stream { depth: 4 },
        });
        // Cold sequential scan of 32 lines: the stream locks on after the
        // second line; only the first couple of lines miss.
        let mut misses = 0;
        for addr in (0..32 * LINE_BYTES).step_by(LINE_BYTES) {
            if h.access(addr, AccessKind::Read) == HitLevel::Memory {
                misses += 1;
            }
        }
        assert!(misses <= 3, "sequential scan missed {misses} lines");
        assert!(h.stats().prefetches > 0);

        // Random (non-ascending) accesses never trigger the streamer.
        let before = h.stats().prefetches;
        h.access(100 * LINE_BYTES, AccessKind::Read);
        h.access(50 * LINE_BYTES, AccessKind::Read);
        h.access(200 * LINE_BYTES, AccessKind::Read);
        assert_eq!(h.stats().prefetches, before);
    }

    #[test]
    fn stream_survives_intra_line_repeats() {
        let mut h = CacheHierarchy::new(CacheConfig {
            levels: vec![LevelConfig {
                size_bytes: 64 * LINE_BYTES,
                ways: 4,
            }],
            prefetch: Prefetcher::Stream { depth: 2 },
        });
        // Access pattern like a cell scan: several reads per line, then
        // the next line.
        let mut misses = 0;
        for line in 0..16usize {
            for word in 0..8 {
                if h.access(line * LINE_BYTES + word * 8, AccessKind::Read) == HitLevel::Memory {
                    misses += 1;
                }
            }
        }
        assert!(misses <= 2, "repeat-heavy scan missed {misses} lines");
    }

    #[test]
    fn sequential_scan_hits_within_line() {
        let mut h = tiny();
        let mut misses = 0;
        for addr in (0..256).step_by(8) {
            if h.access(addr, AccessKind::Read) == HitLevel::Memory {
                misses += 1;
            }
        }
        // 256 bytes = 4 lines => exactly 4 cold misses.
        assert_eq!(misses, 4);
    }
}
