//! Undo logging — the duplicate-copy consistency technique the paper
//! measures against.
//!
//! The paper's `*-L` baselines (Linear-L, PFHT-L, Path-L) wrap each insert
//! or delete in an undo-log transaction: before a cell (or header word) is
//! modified in place, its old bytes are appended to a persistent log and
//! flushed; after all in-place writes are done and persisted, the log is
//! committed (truncated) with an atomic status write. Recovery rolls back
//! any uncommitted transaction by replaying the old images, restoring the
//! pre-transaction state.
//!
//! This is deliberately a *typical, reasonable* undo-log — records are
//! appended volatile and made durable by one batched [`UndoLog::seal`]
//! (flush of the record lines + one fence) before the in-place writes
//! begin, plus one flush for the commit — so the consistency-cost numbers
//! it produces (≈2× flushes and writes per update) match the paper's
//! motivation measurements rather than a strawman.
//!
//! # Log layout (all offsets relative to the log's region)
//!
//! ```text
//! +0   u64  header      bit 63 = ACTIVE, bits 0..62 = record count
//! +64  records...       each: u64 target_off, u64 len, len bytes payload,
//!                       padded to 8 bytes
//! ```
//!
//! The single header word is the linchpin: `seal` publishes
//! `(ACTIVE | n)` with one failure-atomic 8-byte store *after* the record
//! bodies are flushed and fenced, and `commit` atomically returns it to
//! 0. Because activity flag and record count travel in one atomic word,
//! no crash can ever pair an ACTIVE flag with a stale count (the classic
//! torn-metadata hazard of two-word log headers), and stale bodies from
//! earlier transactions are unreachable by construction.

use nvm_pmem::{Pmem, Region};

/// Header bit 63: a transaction is in flight.
const ACTIVE_BIT: u64 = 1 << 63;

const OFF_HEADER: usize = 0;
const OFF_RECORDS: usize = 64;

/// Maximum bytes a single record may cover (sanity bound; cells are tiny).
const MAX_RECORD_LEN: usize = 4096;

/// An undo log over a fixed region of a pmem pool.
///
/// One transaction may be open at a time (the paper's workloads are
/// single-threaded; concurrent schemes shard into one log per shard).
#[derive(Debug, Clone)]
pub struct UndoLog {
    region: Region,
    /// Write cursor within the region (volatile; rebuilt per transaction).
    cursor: usize,
    /// Cursor up to which records are sealed (durable).
    sealed: usize,
    /// Records appended in the open transaction (volatile mirror).
    n_records: u64,
    active: bool,
}

impl UndoLog {
    /// Minimum region size for `n` records of `len`-byte targets.
    pub fn region_size(n_records: usize, record_len: usize) -> usize {
        OFF_RECORDS + n_records * (16 + record_len.div_ceil(8) * 8)
    }

    /// Creates a fresh (idle) log in `region`, initializing its header.
    pub fn create<P: Pmem>(pm: &mut P, region: Region) -> Self {
        assert!(region.len >= OFF_RECORDS + 32, "log region too small");
        assert_eq!(region.off % 8, 0, "log region must be 8-byte aligned");
        pm.atomic_write_u64(region.off + OFF_HEADER, 0);
        pm.persist(region.off + OFF_HEADER, 8);
        UndoLog {
            region,
            cursor: OFF_RECORDS,
            sealed: OFF_RECORDS,
            n_records: 0,
            active: false,
        }
    }

    /// Attaches to an existing log region (e.g. after reopening a pool).
    /// Does not modify persistent state; call [`UndoLog::recover`] next.
    pub fn open(region: Region) -> Self {
        UndoLog {
            region,
            cursor: OFF_RECORDS,
            sealed: OFF_RECORDS,
            n_records: 0,
            active: false,
        }
    }

    /// True if a transaction is open.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Opens a transaction. Purely volatile: the persistent header only
    /// changes when [`UndoLog::seal`] publishes the first record batch
    /// (nothing needs undoing before then anyway).
    pub fn begin<P: Pmem>(&mut self, _pm: &mut P) {
        assert!(!self.active, "nested undo transaction");
        self.cursor = OFF_RECORDS;
        self.sealed = OFF_RECORDS;
        self.n_records = 0;
        self.active = true;
    }

    /// Logs the current content of `[target_off, target_off + len)` so a
    /// crashed transaction can be rolled back. The record is *volatile*
    /// until [`UndoLog::seal`] runs; seal before the first in-place write
    /// it protects.
    pub fn record<P: Pmem>(&mut self, pm: &mut P, target_off: usize, len: usize) {
        assert!(self.active, "record outside transaction");
        assert!(len > 0 && len <= MAX_RECORD_LEN, "bad record length {len}");
        let padded = len.div_ceil(8) * 8;
        let rec_off = self.region.off + self.cursor;
        assert!(
            self.cursor + 16 + padded <= self.region.len,
            "undo log region overflow"
        );

        // Old image.
        let mut old = vec![0u8; len];
        pm.read(target_off, &mut old);

        pm.write_u64(rec_off, target_off as u64);
        pm.write_u64(rec_off + 8, len as u64);
        pm.write(rec_off + 16, &old);
        self.cursor += 16 + padded;
        self.n_records += 1;
        // The persistent record count is NOT touched here: an unfenced
        // count update could become durable while the bodies are still
        // volatile, publishing garbage. seal() writes it after the bodies
        // are fenced.
    }

    /// Makes every appended record durable. Two ordered steps: (1) flush
    /// the unsealed record lines and fence — bodies first; (2) flush the
    /// updated record count and fence — the count *publishes* the records,
    /// so it must never become durable before them. Must run before the
    /// in-place writes the records protect. No-op if nothing is unsealed.
    pub fn seal<P: Pmem>(&mut self, pm: &mut P) {
        assert!(self.active, "seal outside transaction");
        if self.sealed == self.cursor {
            return;
        }
        pm.flush(self.region.off + self.sealed, self.cursor - self.sealed);
        pm.fence();
        // One atomic store publishes flag + count together; the bodies
        // are already durable (fence above).
        pm.atomic_write_u64(self.region.off + OFF_HEADER, ACTIVE_BIT | self.n_records);
        pm.persist(self.region.off + OFF_HEADER, 8);
        self.sealed = self.cursor;
    }

    /// Records and immediately seals (convenience for incremental
    /// multi-step updates like backward-shift deletion).
    pub fn record_sealed<P: Pmem>(&mut self, pm: &mut P, target_off: usize, len: usize) {
        self.record(pm, target_off, len);
        self.seal(pm);
    }

    /// Commits: callers must have already persisted their in-place writes.
    /// Atomically returns the log to IDLE.
    pub fn commit<P: Pmem>(&mut self, pm: &mut P) {
        assert!(self.active, "commit outside transaction");
        assert_eq!(
            self.sealed, self.cursor,
            "unsealed records at commit: seal() must precede in-place writes"
        );
        if self.sealed != OFF_RECORDS {
            // Something was published: atomically retire it.
            pm.atomic_write_u64(self.region.off + OFF_HEADER, 0);
            pm.persist(self.region.off + OFF_HEADER, 8);
        }
        self.active = false;
    }

    /// Rolls back an uncommitted transaction if one is present in the
    /// persistent state. Returns `true` if a rollback happened. Safe to
    /// call unconditionally on startup; idempotent.
    pub fn recover<P: Pmem>(&mut self, pm: &mut P) -> bool {
        let header = pm.read_u64(self.region.off + OFF_HEADER);
        self.active = false;
        self.cursor = OFF_RECORDS;
        self.sealed = OFF_RECORDS;
        self.n_records = 0;
        if header & ACTIVE_BIT == 0 {
            return false;
        }
        let n = header & !ACTIVE_BIT;
        let mut cursor = OFF_RECORDS;
        // Replay old images in reverse order (later records may cover the
        // same range; the oldest image must win, i.e. be applied last).
        let mut records = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let target = pm.read_u64(self.region.off + cursor) as usize;
            let len = pm.read_u64(self.region.off + cursor + 8) as usize;
            assert!(len > 0 && len <= MAX_RECORD_LEN, "corrupt undo record");
            records.push((target, len, self.region.off + cursor + 16));
            cursor += 16 + len.div_ceil(8) * 8;
        }
        for &(target, len, payload_off) in records.iter().rev() {
            let mut old = vec![0u8; len];
            pm.read(payload_off, &mut old);
            pm.write(target, &old);
            pm.persist(target, len);
        }
        pm.atomic_write_u64(self.region.off + OFF_HEADER, 0);
        pm.persist(self.region.off + OFF_HEADER, 8);
        true
    }

    /// The log's pmem region.
    pub fn region(&self) -> Region {
        self.region
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_pmem::{CrashResolution, PmemRead, SimConfig, SimPmem};

    const DATA: usize = 0; // data area: first 1 KiB
    const LOG: usize = 1024;

    fn setup() -> (SimPmem, UndoLog) {
        let mut pm = SimPmem::new(8192, SimConfig::fast_test());
        let log = UndoLog::create(&mut pm, Region::new(LOG, 4096));
        (pm, log)
    }

    /// A guarded in-place update: log old values, seal, write, persist.
    fn tx_update(pm: &mut SimPmem, log: &mut UndoLog, writes: &[(usize, u64)]) {
        log.begin(pm);
        for &(off, _) in writes {
            log.record(pm, off, 8);
        }
        log.seal(pm);
        for &(off, v) in writes {
            pm.write_u64(off, v);
            pm.persist(off, 8);
        }
        log.commit(pm);
    }

    #[test]
    fn committed_tx_survives() {
        let (mut pm, mut log) = setup();
        tx_update(&mut pm, &mut log, &[(DATA, 10), (DATA + 8, 20)]);
        pm.crash(CrashResolution::DropUnflushed);
        let mut log2 = UndoLog::open(log.region());
        assert!(!log2.recover(&mut pm)); // nothing to roll back
        assert_eq!(pm.read_u64(DATA), 10);
        assert_eq!(pm.read_u64(DATA + 8), 20);
    }

    #[test]
    fn uncommitted_tx_rolls_back_fully() {
        let (mut pm, mut log) = setup();
        tx_update(&mut pm, &mut log, &[(DATA, 1), (DATA + 8, 2)]);

        // Second transaction crashes mid-flight (after in-place writes,
        // before commit).
        log.begin(&mut pm);
        log.record(&mut pm, DATA, 8);
        log.record(&mut pm, DATA + 8, 8);
        log.seal(&mut pm);
        pm.write_u64(DATA, 100);
        pm.persist(DATA, 8);
        pm.write_u64(DATA + 8, 200);
        // crash before persist of second write and before commit
        pm.crash(CrashResolution::PersistAll);

        let mut log2 = UndoLog::open(log.region());
        assert!(log2.recover(&mut pm));
        assert_eq!(pm.read_u64(DATA), 1);
        assert_eq!(pm.read_u64(DATA + 8), 2);
    }

    #[test]
    fn recover_is_idempotent() {
        let (mut pm, mut log) = setup();
        log.begin(&mut pm);
        log.record(&mut pm, DATA, 8);
        log.seal(&mut pm);
        pm.write_u64(DATA, 7);
        pm.crash(CrashResolution::PersistAll);
        let mut log2 = UndoLog::open(log.region());
        assert!(log2.recover(&mut pm));
        assert!(!log2.recover(&mut pm));
        assert_eq!(pm.read_u64(DATA), 0);
    }

    #[test]
    fn overlapping_records_restore_oldest() {
        let (mut pm, mut log) = setup();
        pm.write_u64(DATA, 42);
        pm.persist(DATA, 8);

        log.begin(&mut pm);
        log.record_sealed(&mut pm, DATA, 8); // old = 42
        pm.write_u64(DATA, 43);
        pm.persist(DATA, 8);
        log.record_sealed(&mut pm, DATA, 8); // old = 43
        pm.write_u64(DATA, 44);
        pm.persist(DATA, 8);
        pm.crash(CrashResolution::PersistAll);

        let mut log2 = UndoLog::open(log.region());
        assert!(log2.recover(&mut pm));
        assert_eq!(pm.read_u64(DATA), 42);
    }

    #[test]
    fn multibyte_record_roundtrip() {
        let (mut pm, mut log) = setup();
        pm.write(DATA, &[0xAB; 24]);
        pm.persist(DATA, 24);
        log.begin(&mut pm);
        log.record(&mut pm, DATA, 24);
        log.seal(&mut pm);
        pm.write(DATA, &[0xCD; 24]);
        pm.persist(DATA, 24);
        pm.crash(CrashResolution::PersistAll);
        let mut log2 = UndoLog::open(log.region());
        log2.recover(&mut pm);
        let mut buf = [0u8; 24];
        pm.read(DATA, &mut buf);
        assert_eq!(buf, [0xAB; 24]);
    }

    #[test]
    #[should_panic(expected = "nested")]
    fn nested_begin_panics() {
        let (mut pm, mut log) = setup();
        log.begin(&mut pm);
        log.begin(&mut pm);
    }

    #[test]
    fn logging_roughly_doubles_flushes() {
        // The quantitative heart of the paper's Figure 2: an undo-logged
        // 8-byte update costs ~2-3x the flushes of a raw persisted update.
        let (mut pm, mut log) = setup();
        pm.reset_stats();
        pm.write_u64(DATA, 5);
        pm.persist(DATA, 8);
        let raw = pm.stats().flushes;

        pm.reset_stats();
        tx_update(&mut pm, &mut log, &[(DATA, 6)]);
        let logged = pm.stats().flushes;
        assert!(logged >= 2 * raw, "logged {logged} flushes vs raw {raw}");
    }
}
