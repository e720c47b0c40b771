//! The persistent table header — the paper's *Global info* block.
//!
//! Two cachelines. The first holds, in order: a magic word (scheme
//! identity + format version), the hash seed, the occupied-cell `count`,
//! and up to five scheme-specific geometry words (e.g. `table_size`,
//! `group_size`). The second holds the online-expansion state: the
//! persisted *migration cursor* (next source cell the drainer will visit)
//! and a migration-active flag — on its own cacheline so cursor persists
//! during a migration never contend with the count word's.
//!
//! `count` follows the paper's discipline exactly: it is modified with an
//! 8-byte atomic store and persisted immediately (`AtomicInc(count);
//! Persist(count)` in Algorithms 1 and 3). After a crash it may lag the
//! bitmap by at most one operation, which recovery repairs by recounting.

use crate::TableError;
use nvm_pmem::{Pmem, PmemRead, Region, CACHELINE};

const OFF_MAGIC: usize = 0;
const OFF_SEED: usize = 8;
const OFF_COUNT: usize = 16;
const OFF_GEO: usize = 24;
const OFF_CURSOR: usize = CACHELINE;
const OFF_MIG_ACTIVE: usize = CACHELINE + 8;

/// Number of scheme-specific geometry slots.
pub const GEO_SLOTS: usize = 5;

/// Header region size (two cachelines: globals + migration state).
const HEADER_LEN: usize = 2 * CACHELINE;

/// A table header at a fixed pool region.
#[derive(Debug, Clone, Copy)]
pub struct TableHeader {
    region: Region,
}

impl TableHeader {
    /// Bytes a header occupies.
    pub const SIZE: usize = HEADER_LEN;

    /// Initializes a header: magic + seed + geometry, `count = 0`, all
    /// persisted.
    pub fn create<P: Pmem>(
        pm: &mut P,
        region: Region,
        magic: u64,
        seed: u64,
        geometry: &[u64],
    ) -> Self {
        assert!(region.len >= HEADER_LEN, "header region too small");
        assert_eq!(region.off % 8, 0, "header must be 8-byte aligned");
        assert!(geometry.len() <= GEO_SLOTS, "too many geometry words");
        let h = TableHeader { region };
        pm.write_u64(region.off + OFF_SEED, seed);
        pm.write_u64(region.off + OFF_COUNT, 0);
        for (i, &g) in geometry.iter().enumerate() {
            pm.write_u64(region.off + OFF_GEO + i * 8, g);
        }
        pm.write_u64(region.off + OFF_CURSOR, 0);
        pm.write_u64(region.off + OFF_MIG_ACTIVE, 0);
        pm.persist(region.off, HEADER_LEN);
        // Magic goes last: a header is valid only once fully initialized.
        pm.atomic_write_u64(region.off + OFF_MAGIC, magic);
        pm.persist(region.off + OFF_MAGIC, 8);
        h
    }

    /// Attaches to an existing header, validating the magic word.
    pub fn open<P: Pmem>(
        pm: &mut P,
        region: Region,
        expected_magic: u64,
    ) -> Result<Self, TableError> {
        let magic = pm.read_u64(region.off + OFF_MAGIC);
        if magic != expected_magic {
            return Err(TableError::MagicMismatch { found: magic, expected: expected_magic });
        }
        Ok(TableHeader { region })
    }

    /// The persisted hash seed.
    pub fn seed<R: PmemRead>(&self, pm: &R) -> u64 {
        pm.read_u64(self.region.off + OFF_SEED)
    }

    /// Geometry word `i`.
    pub fn geometry<R: PmemRead>(&self, pm: &R, i: usize) -> u64 {
        assert!(i < GEO_SLOTS);
        pm.read_u64(self.region.off + OFF_GEO + i * 8)
    }

    /// Current occupied-cell count.
    pub fn count<R: PmemRead>(&self, pm: &R) -> u64 {
        pm.read_u64(self.region.off + OFF_COUNT)
    }

    /// The paper's `AtomicInc(count); Persist(count)`.
    pub fn inc_count<P: Pmem>(&self, pm: &mut P) {
        let c = self.count(pm);
        pm.atomic_write_u64(self.region.off + OFF_COUNT, c + 1);
        pm.persist(self.region.off + OFF_COUNT, 8);
    }

    /// The paper's `AtomicDec(count); Persist(count)`.
    pub fn dec_count<P: Pmem>(&self, pm: &mut P) {
        let c = self.count(pm);
        assert!(c > 0, "count underflow");
        pm.atomic_write_u64(self.region.off + OFF_COUNT, c - 1);
        pm.persist(self.region.off + OFF_COUNT, 8);
    }

    /// Overwrites the count (recovery only).
    pub fn set_count<P: Pmem>(&self, pm: &mut P, count: u64) {
        pm.atomic_write_u64(self.region.off + OFF_COUNT, count);
        pm.persist(self.region.off + OFF_COUNT, 8);
    }

    /// Pool offset of the `count` word (for undo logging).
    pub fn count_off(&self) -> usize {
        self.region.off + OFF_COUNT
    }

    /// The persisted migration cursor: cells `< cursor` of this table
    /// have been drained into the expansion target.
    pub fn migration_cursor<R: PmemRead>(&self, pm: &R) -> u64 {
        pm.read_u64(self.region.off + OFF_CURSOR)
    }

    /// Advances (or resets) the migration cursor, atomically + persisted:
    /// the cursor is the recovery watermark, so it must never run ahead
    /// of the moves it describes — callers persist each move first.
    pub fn set_migration_cursor<P: Pmem>(&self, pm: &mut P, cursor: u64) {
        pm.atomic_write_u64(self.region.off + OFF_CURSOR, cursor);
        pm.persist(self.region.off + OFF_CURSOR, 8);
    }

    /// True while an online expansion is draining this table.
    pub fn migration_active<R: PmemRead>(&self, pm: &R) -> bool {
        pm.read_u64(self.region.off + OFF_MIG_ACTIVE) != 0
    }

    /// Sets/clears the migration-active flag (atomic + persisted). Set
    /// *before* the first move, cleared *after* the last: a crash inside
    /// the window is then self-announcing to recovery.
    pub fn set_migration_active<P: Pmem>(&self, pm: &mut P, active: bool) {
        pm.atomic_write_u64(self.region.off + OFF_MIG_ACTIVE, active as u64);
        pm.persist(self.region.off + OFF_MIG_ACTIVE, 8);
    }

    /// The header's region.
    pub fn region(&self) -> Region {
        self.region
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_pmem::{CrashResolution, SimConfig, SimPmem};

    const MAGIC: u64 = 0x6772_6F75_7048_6173; // "groupHas"

    fn pool() -> SimPmem {
        SimPmem::new(4096, SimConfig::fast_test())
    }

    #[test]
    fn create_open_roundtrip() {
        let mut pm = pool();
        let r = Region::new(0, 128);
        TableHeader::create(&mut pm, r, MAGIC, 77, &[100, 256]);
        let h = TableHeader::open(&mut pm, r, MAGIC).unwrap();
        assert_eq!(h.seed(&pm), 77);
        assert_eq!(h.geometry(&pm, 0), 100);
        assert_eq!(h.geometry(&pm, 1), 256);
        assert_eq!(h.count(&pm), 0);
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut pm = pool();
        let r = Region::new(0, 128);
        TableHeader::create(&mut pm, r, MAGIC, 1, &[]);
        assert!(TableHeader::open(&mut pm, r, MAGIC + 1).is_err());
    }

    #[test]
    fn count_inc_dec() {
        let mut pm = pool();
        let h = TableHeader::create(&mut pm, Region::new(0, 128), MAGIC, 0, &[]);
        h.inc_count(&mut pm);
        h.inc_count(&mut pm);
        assert_eq!(h.count(&pm), 2);
        h.dec_count(&mut pm);
        assert_eq!(h.count(&pm), 1);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn dec_below_zero_panics() {
        let mut pm = pool();
        let h = TableHeader::create(&mut pm, Region::new(0, 128), MAGIC, 0, &[]);
        h.dec_count(&mut pm);
    }

    #[test]
    fn header_survives_crash_after_create() {
        let mut pm = pool();
        let r = Region::new(0, 128);
        TableHeader::create(&mut pm, r, MAGIC, 9, &[5]);
        pm.crash(CrashResolution::DropUnflushed);
        let h = TableHeader::open(&mut pm, r, MAGIC).unwrap();
        assert_eq!(h.seed(&pm), 9);
        assert_eq!(h.geometry(&pm, 0), 5);
    }

    #[test]
    fn migration_cursor_and_flag_roundtrip_and_survive_crash() {
        let mut pm = pool();
        let r = Region::new(0, 128);
        let h = TableHeader::create(&mut pm, r, MAGIC, 0, &[4]);
        assert_eq!(h.migration_cursor(&pm), 0);
        assert!(!h.migration_active(&pm));
        h.set_migration_active(&mut pm, true);
        h.set_migration_cursor(&mut pm, 37);
        pm.crash(CrashResolution::DropUnflushed);
        let h = TableHeader::open(&mut pm, r, MAGIC).unwrap();
        assert_eq!(h.migration_cursor(&pm), 37);
        assert!(h.migration_active(&pm));
        h.set_migration_active(&mut pm, false);
        h.set_migration_cursor(&mut pm, 0);
        assert!(!h.migration_active(&pm));
    }

    #[test]
    fn count_update_is_durable() {
        let mut pm = pool();
        let r = Region::new(0, 128);
        let h = TableHeader::create(&mut pm, r, MAGIC, 0, &[]);
        h.inc_count(&mut pm);
        pm.crash(CrashResolution::DropUnflushed);
        let h = TableHeader::open(&mut pm, r, MAGIC).unwrap();
        assert_eq!(h.count(&pm), 1);
    }
}
