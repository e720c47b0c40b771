//! Structural introspection: consistency checking, occupancy analysis.

use crate::table::GroupHash;
use nvm_hashfn::{HashKey, Pod};
use nvm_pmem::Pmem;
use nvm_table::TableError;
use std::collections::HashMap;

/// Occupancy of one group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupFill {
    /// Occupied level-1 cells in the group's slot range.
    pub level1: u64,
    /// Occupied level-2 (collision-resolution) cells owned by the group.
    pub level2: u64,
}

impl GroupFill {
    /// Total occupied cells of the group.
    pub fn total(&self) -> u64 {
        self.level1 + self.level2
    }
}

/// A full occupancy snapshot of a table.
#[derive(Debug, Clone)]
pub struct TableAnalysis {
    /// Per-group occupancy, indexed by group number.
    pub groups: Vec<GroupFill>,
    /// Total occupied level-1 cells.
    pub level1_used: u64,
    /// Total occupied level-2 cells.
    pub level2_used: u64,
    /// Cells per group.
    pub group_size: u64,
}

impl TableAnalysis {
    /// Builds an occupancy snapshot (O(capacity)).
    pub fn capture<P: Pmem, K: HashKey, V: Pod>(table: &GroupHash<P, K, V>, pm: &P) -> Self {
        let (config, bitmap1, bitmap2, _c1, _c2) = table.parts();
        let gs = config.group_size;
        let mut groups = vec![GroupFill::default(); config.n_groups() as usize];
        for i in 0..config.cells_per_level {
            if bitmap1.get(pm, i) {
                groups[(i / gs) as usize].level1 += 1;
            }
            if bitmap2.get(pm, i) {
                groups[table.group_of_l2_cell(i) as usize].level2 += 1;
            }
        }
        let level1_used = groups.iter().map(|g| g.level1).sum();
        let level2_used = groups.iter().map(|g| g.level2).sum();
        TableAnalysis {
            groups,
            level1_used,
            level2_used,
            group_size: gs,
        }
    }

    /// Occupied cells in the fullest group.
    pub fn max_group_fill(&self) -> u64 {
        self.groups.iter().map(GroupFill::total).max().unwrap_or(0)
    }

    /// Fraction of level-2 cells in use, per group, averaged.
    pub fn mean_overflow_ratio(&self) -> f64 {
        if self.groups.is_empty() {
            return 0.0;
        }
        let total: f64 = self
            .groups
            .iter()
            .map(|g| g.level2 as f64 / self.group_size as f64)
            .sum();
        total / self.groups.len() as f64
    }

    /// Histogram of group total fills (bucket i = number of groups with
    /// exactly i occupied cells); length `2 * group_size + 1`.
    pub fn fill_histogram(&self) -> Vec<u64> {
        let mut h = vec![0u64; (2 * self.group_size + 1) as usize];
        for g in &self.groups {
            h[g.total() as usize] += 1;
        }
        h
    }
}

/// Verifies every structural invariant of a group hash table:
///
/// 1. `count` equals the number of set occupancy bits;
/// 2. every cell whose bit is clear is fully zeroed (holds outside of
///    in-flight operations; recovery restores it after a crash);
/// 3. every occupied level-1 cell holds a key that hashes to that slot;
/// 4. every occupied level-2 cell holds a key whose group matches the
///    cell's owning group;
/// 5. no key appears twice;
/// 6. under [`FpMode::On`](crate::FpMode), the volatile fingerprint cache
///    agrees with the pool for every occupied cell.
///
/// The first violation comes back as [`TableError::Corrupt`].
pub fn check_consistency<P: Pmem, K: HashKey, V: Pod>(
    table: &GroupHash<P, K, V>,
    pm: &P,
) -> Result<(), TableError> {
    let (config, bitmap1, bitmap2, cells1, cells2) = table.parts();
    let n = config.cells_per_level;
    let gs = config.group_size;
    let mut occupied = 0u64;
    // Keys are Eq but not std::hash::Hash; index by their serialized bytes.
    let mut seen: HashMap<Vec<u8>, u64> = HashMap::new();
    let key_bytes = |key: &K| {
        let mut b = vec![0u8; K::SIZE];
        key.write_to(&mut b);
        b
    };

    for i in 0..n {
        if bitmap1.get(pm, i) {
            occupied += 1;
            let key = cells1.read_key(pm, i);
            let want1 = table.slot_of(&key);
            let want2 = table.slot2_of(&key);
            if want1 != i && want2 != Some(i) {
                return Err(TableError::Corrupt(format!(
                    "level-1 cell {i} holds a key that hashes to slot {want1} ({want2:?})"
                )));
            }
            if let Some(prev) = seen.insert(key_bytes(&key), i) {
                return Err(TableError::Corrupt(format!(
                    "duplicate key in cells {prev} and {i} (level 1)"
                )));
            }
        } else if !cells1.is_zeroed(pm, i) {
            return Err(TableError::Corrupt(format!(
                "empty level-1 cell {i} is not zeroed"
            )));
        }

        if bitmap2.get(pm, i) {
            occupied += 1;
            let key = cells2.read_key(pm, i);
            let g1 = table.slot_of(&key) / gs;
            let g2 = table.slot2_of(&key).map(|s| s / gs);
            let cell_group = table.group_of_l2_cell(i);
            if g1 != cell_group && g2 != Some(cell_group) {
                return Err(TableError::Corrupt(format!(
                    "level-2 cell {i} (group {cell_group}) holds a key of group {g1} ({g2:?})"
                )));
            }
            if let Some(prev) = seen.insert(key_bytes(&key), n + i) {
                return Err(TableError::Corrupt(format!(
                    "duplicate key in cells {prev} and {} (level 2)",
                    n + i
                )));
            }
        } else if !cells2.is_zeroed(pm, i) {
            return Err(TableError::Corrupt(format!(
                "empty level-2 cell {i} is not zeroed"
            )));
        }
    }

    let count = table.len(pm);
    if count != occupied {
        return Err(TableError::Corrupt(format!(
            "count field says {count}, bitmaps say {occupied}"
        )));
    }
    table.verify_fp_cache(pm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::make;
    use nvm_table::HashScheme;

    #[test]
    fn analysis_counts_match_len() {
        let (mut pm, mut t, _) = make(256, 16);
        for k in 0..150u64 {
            t.insert(&mut pm, k, k).unwrap();
        }
        let a = TableAnalysis::capture(&t, &pm);
        assert_eq!(a.level1_used + a.level2_used, 150);
        assert_eq!(a.groups.len(), 16);
        assert_eq!(
            a.fill_histogram()
                .iter()
                .enumerate()
                .map(|(i, &c)| i as u64 * c)
                .sum::<u64>(),
            150
        );
        assert!(a.max_group_fill() <= 2 * 16);
    }

    #[test]
    fn empty_table_analysis() {
        let (pm, t, _) = make(256, 16);
        let a = TableAnalysis::capture(&t, &pm);
        assert_eq!(a.level1_used, 0);
        assert_eq!(a.level2_used, 0);
        assert_eq!(a.max_group_fill(), 0);
        assert_eq!(a.mean_overflow_ratio(), 0.0);
        t.check_consistency(&pm).unwrap();
    }

    #[test]
    fn consistency_detects_bad_count() {
        let (mut pm, mut t, _) = make(256, 16);
        t.insert(&mut pm, 3, 30).unwrap();
        // Corrupt the persistent count directly.
        let (config, ..) = t.parts();
        assert_eq!(config.cells_per_level, 256);
        // count lives at header offset +16; header starts at region offset 0.
        nvm_pmem::Pmem::atomic_write_u64(&mut pm, 16, 5);
        let err = t.check_consistency(&pm).unwrap_err();
        assert!(err.to_string().contains("count"), "{err}");
    }

    #[test]
    fn consistency_detects_unzeroed_ghost() {
        let (mut pm, mut t, _) = make(256, 16);
        t.insert(&mut pm, 3, 30).unwrap();
        let slot = {
            let (_, b1, ..) = t.parts();
            // find the occupied level-1 slot
            (0..256).find(|&i| b1.get(&pm, i)).unwrap()
        };
        // Clear the bit without erasing the cell: a mid-delete crash state.
        let (_, b1, ..) = t.parts();
        b1.set_and_persist(&mut pm, slot, false);
        assert!(t.check_consistency(&pm).is_err());
        // Recovery repairs it.
        t.recover(&mut pm);
        t.check_consistency(&pm).unwrap();
    }
}
