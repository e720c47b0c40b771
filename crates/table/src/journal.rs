//! Optional undo-log journal shared by every scheme.
//!
//! This is the single place [`ConsistencyMode`] is applied: the group table
//! and all three baselines funnel their pre-images through `Journal`, so
//! switching modes changes *only* the consistency cost, never a scheme's
//! logic. In [`ConsistencyMode::None`] every call is a no-op that compiles
//! down to a branch on an empty `Option`.

use crate::ConsistencyMode;
use nvm_pmem::{Pmem, Region};
use nvm_wal::UndoLog;

/// A consistency journal: either a no-op (bare scheme) or an undo log
/// (the paper's `-L` variants).
#[derive(Debug, Clone)]
pub struct Journal {
    log: Option<UndoLog>,
}

impl Journal {
    /// Creates the journal, initializing the log region when `mode`
    /// requires one.
    pub fn create<P: Pmem>(pm: &mut P, mode: ConsistencyMode, region: Region) -> Self {
        Journal {
            log: match mode {
                ConsistencyMode::None => None,
                ConsistencyMode::UndoLog => Some(UndoLog::create(pm, region)),
            },
        }
    }

    /// Attaches to an existing journal region.
    pub fn open(mode: ConsistencyMode, region: Region) -> Self {
        Journal {
            log: match mode {
                ConsistencyMode::None => None,
                ConsistencyMode::UndoLog => Some(UndoLog::open(region)),
            },
        }
    }

    /// The mode this journal runs in.
    pub fn mode(&self) -> ConsistencyMode {
        if self.log.is_some() {
            ConsistencyMode::UndoLog
        } else {
            ConsistencyMode::None
        }
    }

    /// Opens a transaction (no-op without a log).
    pub fn begin<P: Pmem>(&mut self, pm: &mut P) {
        if let Some(log) = self.log.as_mut() {
            log.begin(pm);
        }
    }

    /// Records a pre-image (no-op without a log). Volatile until
    /// [`Journal::seal`].
    pub fn record<P: Pmem>(&mut self, pm: &mut P, off: usize, len: usize) {
        if let Some(log) = self.log.as_mut() {
            log.record(pm, off, len);
        }
    }

    /// Makes recorded pre-images durable (one batched flush + fence).
    /// Must precede the in-place writes they protect.
    pub fn seal<P: Pmem>(&mut self, pm: &mut P) {
        if let Some(log) = self.log.as_mut() {
            log.seal(pm);
        }
    }

    /// Record + seal in one step (incremental multi-write updates).
    pub fn record_sealed<P: Pmem>(&mut self, pm: &mut P, off: usize, len: usize) {
        if let Some(log) = self.log.as_mut() {
            log.record_sealed(pm, off, len);
        }
    }

    /// Commits (no-op without a log).
    pub fn commit<P: Pmem>(&mut self, pm: &mut P) {
        if let Some(log) = self.log.as_mut() {
            log.commit(pm);
        }
    }

    /// Rolls back an in-flight transaction after a crash. Returns whether
    /// a rollback happened.
    pub fn recover<P: Pmem>(&mut self, pm: &mut P) -> bool {
        match self.log.as_mut() {
            Some(log) => log.recover(pm),
            None => false,
        }
    }

    /// Log bytes one recorded span of `len` bytes costs: a 16-byte record
    /// header plus the payload padded to 8.
    pub fn record_cost(len: usize) -> usize {
        16 + len.div_ceil(8) * 8
    }

    /// How many batch ops fit in one transaction, when each op records
    /// spans of `op_record_lens` bytes and the transaction additionally
    /// records each of `fixed_record_lens` once (e.g. the count word).
    /// Unbounded (`usize::MAX`) without a log; at least 1 with one, so
    /// batch loops always make progress (a single op is known to fit —
    /// it is exactly what the non-batched path records).
    pub fn ops_per_txn(&self, op_record_lens: &[usize], fixed_record_lens: &[usize]) -> usize {
        let Some(log) = self.log.as_ref() else {
            return usize::MAX;
        };
        let budget = log.region().len.saturating_sub(64);
        let fixed: usize = fixed_record_lens
            .iter()
            .map(|&l| Self::record_cost(l))
            .sum();
        let per_op: usize = op_record_lens.iter().map(|&l| Self::record_cost(l)).sum();
        (budget.saturating_sub(fixed) / per_op.max(1)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_pmem::{Pmem, PmemRead, SimConfig, SimPmem};

    #[test]
    fn none_mode_is_free() {
        let mut pm = SimPmem::new(8192, SimConfig::fast_test());
        let mut j = Journal::create(&mut pm, ConsistencyMode::None, Region::new(0, 1024));
        pm.reset_stats();
        j.begin(&mut pm);
        j.record(&mut pm, 2048, 16);
        j.commit(&mut pm);
        assert_eq!(pm.stats().writes, 0);
        assert_eq!(pm.stats().flushes, 0);
        assert!(!j.recover(&mut pm));
        assert_eq!(j.mode(), ConsistencyMode::None);
    }

    #[test]
    fn ops_per_txn_chunks_by_log_capacity() {
        let mut pm = SimPmem::new(8192, SimConfig::fast_test());
        // 1024-byte log → 960 bytes of records. A u64/u64 publish records
        // a 16-byte cell (32 bytes logged) + an 8-byte word (24), the
        // count is 24 once: (960 - 24) / 56 = 16.
        let j = Journal::create(&mut pm, ConsistencyMode::UndoLog, Region::new(0, 1024));
        assert_eq!(j.ops_per_txn(&[16, 8], &[8]), 16);
        // No log → no chunking needed.
        let j_none = Journal::create(&mut pm, ConsistencyMode::None, Region::new(0, 1024));
        assert_eq!(j_none.ops_per_txn(&[16, 8], &[8]), usize::MAX);
        // Never returns 0, even for absurdly small logs.
        let j_tiny = Journal::create(&mut pm, ConsistencyMode::UndoLog, Region::new(4096, 128));
        assert_eq!(j_tiny.ops_per_txn(&[16, 8], &[8]), 1);
    }

    #[test]
    fn undo_mode_logs_and_recovers() {
        let mut pm = SimPmem::new(8192, SimConfig::fast_test());
        pm.write_u64(2048, 77);
        pm.persist(2048, 8);
        let mut j = Journal::create(&mut pm, ConsistencyMode::UndoLog, Region::new(0, 1024));
        assert_eq!(j.mode(), ConsistencyMode::UndoLog);
        j.begin(&mut pm);
        j.record(&mut pm, 2048, 8);
        j.seal(&mut pm);
        pm.write_u64(2048, 88);
        pm.persist(2048, 8);
        // No commit: simulate crash, reopen, roll back.
        pm.crash(nvm_pmem::CrashResolution::PersistAll);
        let mut j2 = Journal::open(ConsistencyMode::UndoLog, Region::new(0, 1024));
        assert!(j2.recover(&mut pm));
        assert_eq!(pm.read_u64(2048), 77);
    }
}
