//! Construction parameters and knobs for [`GroupHash`].
//!
//! Every group table runs the paper's one layout (a group's level-2
//! cells are contiguous) and its one persistent `count`; the knobs here
//! select the commit strategy, the two-choice extension and the
//! fingerprint cache.
//!
//! [`GroupHash`]: crate::GroupHash

use nvm_table::TableError;

/// How updates are committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommitStrategy {
    /// The paper's design: persist the cell, then atomically flip its
    /// occupancy bit (8-byte failure-atomic write). No duplicate copies.
    #[default]
    AtomicBitmap,
    /// Ablation: force every update through an undo-log transaction, like
    /// the `-L` baselines. Quantifies exactly what the bitmap commit saves.
    UndoLog,
}

/// How many hash functions address level 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChoiceMode {
    /// The paper's design: one hash function; collisions go to the single
    /// matched group. Best locality, ~82 % utilization.
    #[default]
    Single,
    /// The extension the paper sketches in §4.4: a second hash function
    /// gives each key two candidate slots and two candidate groups,
    /// raising utilization at the cost of probing two scattered regions
    /// ("the continuity of the collision resolution cells is damaged").
    TwoChoice,
}

/// Whether the table keeps a DRAM-resident fingerprint cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FpMode {
    /// The paper-faithful path: every probe reads key bytes from the pool.
    #[default]
    Off,
    /// Accelerator: one volatile tag byte per cell (from a third hash of
    /// the key) filters probes so key bytes are only read when the tag
    /// matches. Adds zero persisted state and zero flushes; the cache is
    /// rebuilt from the bitmaps + cells on `open`/`recover`.
    On,
}

/// Parameters for creating a group hash table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupHashConfig {
    /// Cells per level. The table's total capacity is `2 * cells_per_level`.
    /// Must be a power of two.
    pub cells_per_level: u64,
    /// Cells per group (the paper's default is 256). Must be a power of
    /// two dividing `cells_per_level`.
    pub group_size: u64,
    /// Hash seed (persisted; derives the hash function).
    pub seed: u64,
    /// How an insert's commit point is persisted (bitmap word vs cell).
    pub commit: CommitStrategy,
    /// How many level-1 candidate slots a key gets (one vs two hashes).
    pub choice: ChoiceMode,
    /// Whether the volatile fingerprint (tag) cache filters probes.
    pub fp: FpMode,
}

impl GroupHashConfig {
    /// Paper-default knobs with the given geometry.
    pub fn new(cells_per_level: u64, group_size: u64) -> Self {
        GroupHashConfig {
            cells_per_level,
            group_size,
            seed: 0x6772_6F75_7068_6173, // "grouphas"
            commit: CommitStrategy::default(),
            choice: ChoiceMode::default(),
            fp: FpMode::default(),
        }
    }

    /// The paper's default group size.
    pub const DEFAULT_GROUP_SIZE: u64 = 256;

    /// Paper defaults sized for `total_cells` cells across both levels,
    /// routed through [`GroupHashConfig::build`] like every other
    /// constructor path (it used to `assert!` its precondition and skip
    /// validation entirely).
    pub fn for_total_cells(total_cells: u64) -> Result<Self, TableError> {
        if total_cells < 2 {
            return Err(TableError::Config(format!(
                "need at least two cells, got {total_cells}"
            )));
        }
        let per_level = (total_cells / 2).next_power_of_two();
        let per_level = if per_level > total_cells / 2 {
            per_level / 2
        } else {
            per_level
        };
        let group = Self::DEFAULT_GROUP_SIZE.min(per_level);
        GroupHashConfig::new(per_level.max(1), group.max(1)).build()
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the commit strategy (ablation).
    pub fn with_commit(mut self, commit: CommitStrategy) -> Self {
        self.commit = commit;
        self
    }

    /// Overrides the choice mode (the paper's two-hash extension, §4.4).
    pub fn with_choice(mut self, choice: ChoiceMode) -> Self {
        self.choice = choice;
        self
    }

    /// Enables/disables the volatile fingerprint cache (extension).
    pub fn with_fp_mode(mut self, fp: FpMode) -> Self {
        self.fp = fp;
        self
    }

    /// Terminal step for builder chains: validates the geometry and hands
    /// the config back. This is the single validated build point — every
    /// constructor path funnels through it (`for_total_cells` internally;
    /// `GroupHash::create`/`open` re-validate), so an invalid `new` +
    /// `with_*` chain is caught before any pool bytes move.
    pub fn build(self) -> Result<Self, TableError> {
        self.validate()?;
        Ok(self)
    }

    /// Validates the geometry.
    pub fn validate(&self) -> Result<(), TableError> {
        if !self.cells_per_level.is_power_of_two() {
            return Err(TableError::Config(format!(
                "cells_per_level {} is not a power of two",
                self.cells_per_level
            )));
        }
        if !self.group_size.is_power_of_two() {
            return Err(TableError::Config(format!(
                "group_size {} is not a power of two",
                self.group_size
            )));
        }
        if self.group_size > self.cells_per_level {
            return Err(TableError::Config(format!(
                "group_size {} exceeds cells_per_level {}",
                self.group_size, self.cells_per_level
            )));
        }
        Ok(())
    }

    /// Number of groups per level.
    pub fn n_groups(&self) -> u64 {
        self.cells_per_level / self.group_size
    }

    /// Packs the knobs into a persisted flags word. The bit numbers are
    /// part of the pool format: bits 2 and 4 belonged to two removed
    /// knobs and stay unassigned.
    pub(crate) fn flags(&self) -> u64 {
        let mut f = 0u64;
        if self.commit == CommitStrategy::UndoLog {
            f |= FLAG_UNDO_LOG;
        }
        if self.choice == ChoiceMode::TwoChoice {
            f |= FLAG_TWO_CHOICE;
        }
        if self.fp == FpMode::On {
            f |= FLAG_FP;
        }
        f
    }

    /// Inverse of [`GroupHashConfig::flags`]. A flags word with any bit
    /// outside the three knobs is refused as corrupt rather than opened
    /// as some other configuration.
    pub(crate) fn from_persisted(
        cells_per_level: u64,
        group_size: u64,
        seed: u64,
        flags: u64,
    ) -> Result<Self, TableError> {
        let unknown = flags & !(FLAG_UNDO_LOG | FLAG_TWO_CHOICE | FLAG_FP);
        if unknown != 0 {
            return Err(TableError::Corrupt(format!(
                "group table flags {flags:#x} carry unknown bits {unknown:#x} \
                 (bits 2 and 4 were the removed strided-layout and volatile-count knobs)"
            )));
        }
        Ok(GroupHashConfig {
            cells_per_level,
            group_size,
            seed,
            commit: if flags & FLAG_UNDO_LOG != 0 {
                CommitStrategy::UndoLog
            } else {
                CommitStrategy::AtomicBitmap
            },
            choice: if flags & FLAG_TWO_CHOICE != 0 {
                ChoiceMode::TwoChoice
            } else {
                ChoiceMode::Single
            },
            fp: if flags & FLAG_FP != 0 {
                FpMode::On
            } else {
                FpMode::Off
            },
        })
    }
}

/// Persisted flag bit of [`CommitStrategy::UndoLog`].
const FLAG_UNDO_LOG: u64 = 1;
/// Persisted flag bit of [`ChoiceMode::TwoChoice`].
const FLAG_TWO_CHOICE: u64 = 8;
/// Persisted flag bit of [`FpMode::On`].
const FLAG_FP: u64 = 16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(GroupHashConfig::new(1024, 256).validate().is_ok());
        assert!(GroupHashConfig::new(1000, 256).validate().is_err());
        assert!(GroupHashConfig::new(1024, 100).validate().is_err());
        assert!(GroupHashConfig::new(64, 128).validate().is_err());
        assert!(GroupHashConfig::new(64, 64).validate().is_ok());
    }

    #[test]
    fn for_total_cells_halves() {
        let c = GroupHashConfig::for_total_cells(1 << 20).unwrap();
        assert_eq!(c.cells_per_level, 1 << 19);
        assert_eq!(c.group_size, 256);
        c.validate().unwrap();
        // Tiny tables clamp the group size.
        let tiny = GroupHashConfig::for_total_cells(64).unwrap();
        assert_eq!(tiny.cells_per_level, 32);
        assert_eq!(tiny.group_size, 32);
        tiny.validate().unwrap();
    }

    /// Regression: every constructor path reports invalid geometry as
    /// `TableError::Config` instead of panicking or deferring to `create`.
    #[test]
    fn constructor_paths_are_validated() {
        // for_total_cells used to assert!(total_cells >= 2).
        assert!(matches!(
            GroupHashConfig::for_total_cells(1),
            Err(TableError::Config(_))
        ));
        GroupHashConfig::for_total_cells(2)
            .unwrap()
            .validate()
            .unwrap();
        // A with_* chain ending in build() catches bad geometry early.
        let err = GroupHashConfig::new(1024, 100).with_seed(7).build();
        assert!(matches!(err, Err(TableError::Config(_))));
        let ok = GroupHashConfig::new(1024, 256)
            .with_seed(7)
            .build()
            .unwrap();
        assert_eq!(ok.seed, 7);
    }

    #[test]
    fn flags_roundtrip() {
        for commit in [CommitStrategy::AtomicBitmap, CommitStrategy::UndoLog] {
            for ch in [ChoiceMode::Single, ChoiceMode::TwoChoice] {
                for fp in [FpMode::Off, FpMode::On] {
                    let c = GroupHashConfig::new(256, 16)
                        .with_commit(commit)
                        .with_choice(ch)
                        .with_fp_mode(fp)
                        .with_seed(99);
                    let r = GroupHashConfig::from_persisted(256, 16, 99, c.flags()).unwrap();
                    assert_eq!(c, r);
                }
            }
        }
    }

    #[test]
    fn n_groups() {
        assert_eq!(GroupHashConfig::new(1024, 256).n_groups(), 4);
        assert_eq!(GroupHashConfig::new(1024, 1024).n_groups(), 1);
    }
}
