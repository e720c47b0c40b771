//! [`MigrationSource`] for [`GroupHash`]: the scheme's side of
//! incremental online expansion.
//!
//! The raw cell index space the drainer's persisted cursor walks is
//! level 1 (`0..n`) followed by level 2 (`n..2n`) — the same stable order
//! [`GroupHash::for_each_entry`] uses, derived purely from the persisted
//! geometry so it survives re-opens. Each eviction is a one-element
//! retract batch: the paper's failure-atomic bit-clear-then-scrub with
//! the count maintained, identical to a `remove` that skips the probe.

use super::{GroupHash, Level};
use nvm_hashfn::{HashKey, Pod};
use nvm_pmem::Pmem;
use nvm_table::{BatchSession, MigrationSource};

impl<P: Pmem, K: HashKey, V: Pod> GroupHash<P, K, V> {
    /// Splits a raw migration index into (level, cell index).
    fn split_migration_index(&self, i: u64) -> (Level, u64) {
        let n = self.view.config.cells_per_level;
        if i < n {
            (Level::One, i)
        } else {
            (Level::Two, i - n)
        }
    }
}

impl<P: Pmem, K: HashKey, V: Pod> MigrationSource<P, K, V> for GroupHash<P, K, V> {
    fn migration_cells(&self) -> u64 {
        2 * self.view.config.cells_per_level
    }

    fn entry_at(&self, pm: &P, i: u64) -> Option<(K, V)> {
        let (level, idx) = self.split_migration_index(i);
        let store = self.level_store(level);
        store
            .is_occupied(pm, idx)
            .then(|| (store.read_key(pm, idx), store.read_value(pm, idx)))
    }

    fn evict_cell(&mut self, pm: &mut P, i: u64) -> bool {
        let (level, idx) = self.split_migration_index(i);
        if !self.level_store(level).is_occupied(pm, idx) {
            return false;
        }
        let mut sess = BatchSession::new();
        self.stage_delete(pm, &mut sess, level, idx);
        self.commit_batch(pm, &mut sess, -1);
        true
    }

    fn migration_cursor(&self, pm: &P) -> u64 {
        self.header.migration_cursor(pm)
    }

    fn set_migration_cursor(&mut self, pm: &mut P, cursor: u64) {
        self.header.set_migration_cursor(pm, cursor);
    }

    fn migration_active(&self, pm: &P) -> bool {
        self.header.migration_active(pm)
    }

    fn set_migration_active(&mut self, pm: &mut P, active: bool) {
        self.header.set_migration_active(pm, active);
    }
}

#[cfg(test)]
mod tests {
    use crate::config::GroupHashConfig;
    use crate::table::GroupHash;
    use nvm_pmem::{Region, SimConfig, SimPmem};
    use nvm_table::{migrate_step, migrate_step_same_pool, HashScheme, MigrationSource};

    type T = GroupHash<SimPmem, u64, u64>;

    #[test]
    fn bounded_steps_drain_everything_between_two_pools() {
        let cfg = GroupHashConfig::new(256, 16);
        let big = GroupHashConfig::new(512, 16).with_seed(cfg.seed);
        let a = T::required_size(&cfg);
        let b = T::required_size(&big);
        let mut src_pm = SimPmem::new(a, SimConfig::fast_test());
        let mut dst_pm = SimPmem::new(b, SimConfig::fast_test());
        let mut src = T::create(&mut src_pm, Region::new(0, a), cfg).unwrap();
        let mut dst = T::create(&mut dst_pm, Region::new(0, b), big).unwrap();
        for k in 0..200u64 {
            src.insert(&mut src_pm, k, k * 7).unwrap();
        }
        let mut steps = 0;
        while !migrate_step(&mut src_pm, &mut dst_pm, &mut src, &mut dst, 16) {
            steps += 1;
            assert!(steps < 10_000, "drain does not terminate");
            // Lookups stay answerable from one side or the other mid-drain.
            let probe = (steps * 13) % 200;
            assert!(
                dst.get(&dst_pm, &probe).or(src.get(&src_pm, &probe)) == Some(probe * 7),
                "key {probe} unreachable mid-migration"
            );
        }
        assert!(steps > 1, "bounded steps must take several calls");
        assert_eq!(src.len(&src_pm), 0);
        assert_eq!(dst.len(&dst_pm), 200);
        assert!(!src.migration_active(&src_pm));
        for k in 0..200u64 {
            assert_eq!(dst.get(&dst_pm, &k), Some(k * 7));
        }
        src.check_consistency(&src_pm).unwrap();
        dst.check_consistency(&dst_pm).unwrap();
    }

    #[test]
    fn same_pool_drain_with_fingerprints() {
        use crate::config::FpMode;
        let cfg = GroupHashConfig::new(256, 16).with_fp_mode(FpMode::On);
        let big = GroupHashConfig::new(512, 16)
            .with_seed(cfg.seed)
            .with_fp_mode(FpMode::On);
        let a = T::required_size(&cfg);
        let b = T::required_size(&big);
        let mut pm = SimPmem::new(a + b + 128, SimConfig::fast_test());
        let mut src = T::create(&mut pm, Region::new(0, a), cfg).unwrap();
        let mut dst = T::create(&mut pm, Region::new(a, b + 128), big).unwrap();
        for k in 0..150u64 {
            src.insert(&mut pm, k, k).unwrap();
        }
        while !migrate_step_same_pool(&mut pm, &mut src, &mut dst, 32) {}
        assert_eq!(dst.len(&pm), 150);
        dst.verify_fp_cache(&pm).unwrap();
        src.verify_fp_cache(&pm).unwrap();
        dst.check_consistency(&pm).unwrap();
    }

    #[test]
    fn cursor_survives_reopen_and_resumes() {
        let cfg = GroupHashConfig::new(256, 16);
        let big = GroupHashConfig::new(512, 16).with_seed(cfg.seed);
        let a = T::required_size(&cfg);
        let b = T::required_size(&big);
        let mut pm = SimPmem::new(a + b + 128, SimConfig::fast_test());
        let mut src = T::create(&mut pm, Region::new(0, a), cfg).unwrap();
        let mut dst = T::create(&mut pm, Region::new(a, b + 128), big).unwrap();
        for k in 0..100u64 {
            src.insert(&mut pm, k, k + 1).unwrap();
        }
        // Partially drain, then simulate a clean restart (re-open).
        migrate_step_same_pool(&mut pm, &mut src, &mut dst, 10);
        let cursor = src.migration_cursor(&pm);
        assert!(cursor > 0 && src.migration_active(&pm));
        let mut src = T::open(&mut pm, Region::new(0, a)).unwrap();
        let mut dst = T::open(&mut pm, Region::new(a, b + 128)).unwrap();
        assert_eq!(
            MigrationSource::<_, u64, u64>::migration_cursor(&src, &pm),
            cursor
        );
        while !migrate_step_same_pool(&mut pm, &mut src, &mut dst, 10) {}
        assert_eq!(dst.len(&pm), 100);
        assert_eq!(src.len(&pm), 0);
        for k in 0..100u64 {
            assert_eq!(dst.get(&pm, &k), Some(k + 1));
        }
    }
}
