//! Cache hierarchy configuration.

use crate::LINE_BYTES;

/// Geometry of a single cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelConfig {
    /// Total capacity in bytes. Must be a multiple of `ways * 64` and yield
    /// a power-of-two number of sets.
    pub size_bytes: usize,
    /// Associativity (number of ways per set).
    pub ways: usize,
}

impl LevelConfig {
    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        self.size_bytes / (self.ways * LINE_BYTES)
    }

    /// Total number of lines this level can hold.
    pub fn num_lines(&self) -> usize {
        self.size_bytes / LINE_BYTES
    }
}

/// Hardware prefetcher model.
///
/// The paper's locality argument leans on the sequential prefetcher:
/// "a single memory access can prefetch multiple cells belonging to the
/// same cacheline" and, on real Xeons, the L2 streamer pulls *subsequent*
/// lines of an ascending access stream, which is what makes scanning a
/// contiguous group cheap while scattered probes (path hashing) pay full
/// misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prefetcher {
    /// No prefetching: every new line costs a full miss.
    None,
    /// Fill line+1 on every memory access (simple adjacent-line prefetch).
    NextLine,
    /// Stream detection: after two consecutive ascending-line accesses,
    /// fill the next `depth` lines. Models the Xeon L2 streamer.
    Stream { depth: usize },
}

/// Full hierarchy configuration: levels ordered from L1 (index 0) outwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    pub levels: Vec<LevelConfig>,
    /// Hardware prefetcher model.
    pub prefetch: Prefetcher,
}

impl CacheConfig {
    /// The paper's testbed (Table 2): Intel Xeon E5-2620. Per-core 32 KB L1D
    /// and 256 KB L2, shared 15 MB L3 (the paper's workloads are
    /// single-threaded, so one core's view is the right model).
    pub fn xeon_e5_2620() -> Self {
        CacheConfig {
            levels: vec![
                LevelConfig {
                    size_bytes: 32 * 1024,
                    ways: 8,
                },
                LevelConfig {
                    size_bytes: 256 * 1024,
                    ways: 8,
                },
                LevelConfig {
                    size_bytes: 15 * 1024 * 1024 / 64 * 64, // 15 MB, line-rounded
                    ways: 20,
                },
            ],
            // The testbed's L2 streamer: the paper's contiguity argument
            // assumes it (see Prefetcher docs).
            prefetch: Prefetcher::Stream { depth: 4 },
        }
    }

    /// The Xeon hierarchy with prefetching disabled (ablation: how much of
    /// group sharing's advantage comes from the streamer).
    pub fn xeon_e5_2620_no_prefetch() -> Self {
        CacheConfig {
            prefetch: Prefetcher::None,
            ..Self::xeon_e5_2620()
        }
    }

    /// A small hierarchy for fast unit tests: 1 KB / 8 KB / 64 KB.
    pub fn tiny_for_tests() -> Self {
        CacheConfig {
            levels: vec![
                LevelConfig {
                    size_bytes: 1024,
                    ways: 2,
                },
                LevelConfig {
                    size_bytes: 8 * 1024,
                    ways: 4,
                },
                LevelConfig {
                    size_bytes: 64 * 1024,
                    ways: 8,
                },
            ],
            prefetch: Prefetcher::None,
        }
    }

    /// Checks that every level has a non-zero set count and associativity,
    /// and that levels grow monotonically outward. Set counts need not be
    /// powers of two (real sliced LLCs are not); indexing uses modulo.
    pub fn validate(&self) -> Result<(), String> {
        if self.levels.is_empty() {
            return Err("cache hierarchy needs at least one level".into());
        }
        let mut prev = 0usize;
        for (i, l) in self.levels.iter().enumerate() {
            if l.ways == 0 {
                return Err(format!("level {i}: zero ways"));
            }
            if l.size_bytes == 0 || l.size_bytes % (l.ways * LINE_BYTES) != 0 {
                return Err(format!(
                    "level {i}: size {} is not a multiple of ways*64",
                    l.size_bytes
                ));
            }
            if l.size_bytes < prev {
                return Err(format!("level {i} is smaller than level {}", i - 1));
            }
            prev = l.size_bytes;
        }
        Ok(())
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::xeon_e5_2620()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        CacheConfig::default().validate().unwrap();
        CacheConfig::tiny_for_tests().validate().unwrap();
    }

    #[test]
    fn xeon_geometry() {
        let c = CacheConfig::xeon_e5_2620();
        assert_eq!(c.levels[0].num_sets(), 64);
        assert_eq!(c.levels[1].num_sets(), 512);
        assert_eq!(c.levels[2].num_sets(), 12288); // 15 MB / (20 ways * 64 B)
        assert_eq!(c.levels[2].num_lines() * LINE_BYTES, c.levels[2].size_bytes);
    }

    #[test]
    fn rejects_zero_ways() {
        let c = CacheConfig {
            levels: vec![LevelConfig {
                size_bytes: 64,
                ways: 0,
            }],
            prefetch: Prefetcher::None,
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_shrinking_levels() {
        let c = CacheConfig {
            levels: vec![
                LevelConfig {
                    size_bytes: 1024,
                    ways: 2,
                },
                LevelConfig {
                    size_bytes: 512,
                    ways: 2,
                },
            ],
            prefetch: Prefetcher::None,
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_empty() {
        assert!(CacheConfig {
            levels: vec![],
            prefetch: Prefetcher::None
        }
        .validate()
        .is_err());
    }
}
