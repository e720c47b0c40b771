//! Shared constructors for the crate's tests.

use crate::config::GroupHashConfig;
use crate::table::GroupHash;
use nvm_pmem::{Region, SimConfig, SimPmem};

/// A `u64 -> u64` table with `n` cells per level and groups of `g`, on a
/// fresh fast-test pool.
pub(crate) fn make(n: u64, g: u64) -> (SimPmem, GroupHash<SimPmem, u64, u64>, Region) {
    make_cfg(GroupHashConfig::new(n, g))
}

/// Same, from an explicit configuration.
pub(crate) fn make_cfg(cfg: GroupHashConfig) -> (SimPmem, GroupHash<SimPmem, u64, u64>, Region) {
    let size = GroupHash::<SimPmem, u64, u64>::required_size(&cfg);
    let mut pm = SimPmem::new(size, SimConfig::fast_test());
    let region = Region::new(0, size);
    let t = GroupHash::create(&mut pm, region, cfg).unwrap();
    (pm, t, region)
}
