//! Pure probe planning for the group table — no pool I/O.
//!
//! Everything here is arithmetic over the configuration and a key's hash
//! streams: candidate level-1 slots, the matched group, the fingerprint
//! tag, and the level-2 geometry as a [`GroupPlan`]. The pmem-facing
//! scans that consume these plans live in `ops.rs`; keeping this module
//! free of any pmem dependency is enforced by the `ci.sh` layering lint.

use crate::config::{ChoiceMode, GroupHashConfig};
use nvm_hashfn::{HashKey, HashPair};
use nvm_table::probe::GroupPlan;

/// The level-2 group geometry implied by `config`.
#[inline]
pub(super) fn plan(config: &GroupHashConfig) -> GroupPlan {
    GroupPlan::new(config.group_size, config.n_groups())
}

/// Level-1 slot for `key` (the paper's `k = h(key)`).
#[inline]
pub(super) fn slot_of<K: HashKey>(hash: &HashPair, config: &GroupHashConfig, key: &K) -> u64 {
    hash.h1(key) & (config.cells_per_level - 1)
}

/// Second candidate slot under [`ChoiceMode::TwoChoice`]; `None` in the
/// paper's single-hash design or when both hashes coincide.
#[inline]
pub(super) fn slot2_of<K: HashKey>(
    hash: &HashPair,
    config: &GroupHashConfig,
    key: &K,
) -> Option<u64> {
    match config.choice {
        ChoiceMode::Single => None,
        ChoiceMode::TwoChoice => {
            let s2 = hash.h2(key) & (config.cells_per_level - 1);
            (s2 != slot_of(hash, config, key)).then_some(s2)
        }
    }
}

/// The volatile fingerprint tag for `key`: the low byte of the third
/// hash stream, so tags are uncorrelated with the slot/group the
/// placement hashes choose (a tag that re-encoded `h1` bits would
/// carry no information within a group, where those bits are equal).
#[inline]
pub(super) fn fp_tag<K: HashKey>(hash: &HashPair, key: &K) -> u8 {
    hash.h3(key) as u8
}

/// Candidate level-1 slots for `key`, primary first.
#[inline]
pub(super) fn candidate_slots<K: HashKey>(
    hash: &HashPair,
    config: &GroupHashConfig,
    key: &K,
) -> (u64, Option<u64>) {
    (slot_of(hash, config, key), slot2_of(hash, config, key))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_mirrors_config_geometry() {
        let cfg = GroupHashConfig::new(256, 16);
        let p = plan(&cfg);
        assert_eq!(p.cells_per_level(), 256);
        assert_eq!(p.n_groups(), 16);
        assert_eq!(p.group_of_cell(17), 1);
        assert_eq!(p.cell(1, 0), 16);
    }

    #[test]
    fn slots_are_masked_and_distinct_under_two_choice() {
        let cfg = GroupHashConfig::new(256, 16);
        let hash = HashPair::from_seed(cfg.seed);
        for k in 0..500u64 {
            assert!(slot_of(&hash, &cfg, &k) < 256);
            assert_eq!(
                slot2_of(&hash, &cfg, &k),
                None,
                "single-choice has no slot 2"
            );
        }
        let cfg2 = cfg.with_choice(ChoiceMode::TwoChoice);
        for k in 0..500u64 {
            if let Some(s2) = slot2_of(&hash, &cfg2, &k) {
                assert!(s2 < 256);
                assert_ne!(s2, slot_of(&hash, &cfg2, &k));
            }
        }
    }
}
