//! Property-based tests for the cache simulator.

use nvm_cachesim::{
    AccessKind, CacheConfig, CacheHierarchy, HitLevel, LevelConfig, Prefetcher, LINE_BYTES,
};
use proptest::prelude::*;
use std::collections::HashSet;

fn small_config() -> CacheConfig {
    CacheConfig {
        levels: vec![
            LevelConfig {
                size_bytes: 4 * 2 * LINE_BYTES,
                ways: 2,
            },
            LevelConfig {
                size_bytes: 8 * 4 * LINE_BYTES,
                ways: 4,
            },
        ],
        prefetch: Prefetcher::None,
    }
}

proptest! {
    /// An access immediately followed by an access to the same line always
    /// hits L1 (nothing can evict it in between).
    #[test]
    fn immediate_reaccess_hits_l1(addrs in prop::collection::vec(0usize..1 << 20, 1..200)) {
        let mut h = CacheHierarchy::new(small_config());
        for a in addrs {
            h.access(a, AccessKind::Read);
            prop_assert_eq!(h.access(a, AccessKind::Read), HitLevel::L1);
        }
    }

    /// The working set that fits in L1 never misses after a single warm-up
    /// pass, regardless of access order.
    #[test]
    fn resident_working_set_never_misses(order in prop::collection::vec(0usize..4, 64)) {
        // 4 lines spread across distinct sets of the 4-set L1.
        let lines = [0usize, 1, 2, 3];
        let mut h = CacheHierarchy::new(small_config());
        for &l in &lines {
            h.access(l * LINE_BYTES, AccessKind::Read);
        }
        for &i in &order {
            prop_assert_eq!(h.access(lines[i] * LINE_BYTES, AccessKind::Read), HitLevel::L1);
        }
    }

    /// Miss counts at the LLC never exceed the number of distinct lines
    /// touched when the distinct-line working set fits in the LLC.
    #[test]
    fn llc_misses_bounded_by_distinct_lines(addrs in prop::collection::vec(0usize..32 * LINE_BYTES, 1..500)) {
        // 32 distinct lines fit in the 32-line L2 (LLC here).
        let mut h = CacheHierarchy::new(small_config());
        let mut distinct = HashSet::new();
        for &a in &addrs {
            h.access(a, AccessKind::Read);
            distinct.insert(a / LINE_BYTES);
        }
        prop_assert!(h.llc_misses() <= distinct.len() as u64);
    }

    /// Invalidation (clflush) guarantees the next access to that line is a
    /// full memory access.
    #[test]
    fn invalidate_then_access_is_memory(addr in 0usize..1 << 20, noise in prop::collection::vec(0usize..1 << 20, 0..50)) {
        let mut h = CacheHierarchy::new(small_config());
        for n in noise {
            h.access(n, AccessKind::Write);
        }
        h.access(addr, AccessKind::Write);
        h.invalidate(addr);
        prop_assert_eq!(h.access(addr, AccessKind::Read), HitLevel::Memory);
    }

    /// Stats bookkeeping: per-level hits+misses partition correctly (every
    /// access hits some level or memory; levels beyond a hit are untouched).
    #[test]
    fn stats_partition(addrs in prop::collection::vec(0usize..1 << 16, 1..300)) {
        let mut h = CacheHierarchy::new(small_config());
        for a in addrs.iter() {
            h.access(*a, AccessKind::Read);
        }
        let s = h.stats();
        prop_assert_eq!(s.accesses(), addrs.len() as u64);
        // L1 sees every access.
        prop_assert_eq!(s.level(0).hits + s.level(0).misses, addrs.len() as u64);
        // L2 sees exactly the L1 misses.
        prop_assert_eq!(s.level(1).hits + s.level(1).misses, s.level(0).misses);
    }
}
