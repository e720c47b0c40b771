//! Persistence choreography: how the group table commits.
//!
//! Every mutation — single ops included, as one-element batches — runs
//! through a [`BatchSession`](nvm_table::BatchSession) over the shared
//! [`CellStore`] primitives, with the [`Journal`](nvm_table::Journal)
//! staging pre-images first under the forced-logging ablation (and
//! compiling to nothing under the paper's atomic-bitmap commit):
//!
//! * insert (Algorithm 1 lines 4–9 / 16–21): publish = cell bytes,
//!   persist, atomic bit set — then the count bump;
//! * delete (Algorithm 3 lines 4–9 / 16–21): retract = atomic bit clear
//!   *first*, then cell scrub — a crash mid-erase leaves an unreferenced
//!   (bit = 0) cell that recovery wipes.
//!
//! The DRAM fingerprint cache is maintained here too: tags change exactly
//! when a commit changes a cell, and never cost a pool write.

use super::{probe, GroupHash, Level};
use nvm_hashfn::{HashKey, Pod};
use nvm_pmem::Pmem;
use nvm_table::{BatchSession, TableError};

impl<P: Pmem, K: HashKey, V: Pod> GroupHash<P, K, V> {
    /// Sets the count to an absolute value with the usual atomic+persist
    /// commit (bulk operations).
    pub(crate) fn set_count_committed(&mut self, pm: &mut P, count: u64) {
        self.header.set_count(pm, count)
    }

    /// Stages an insert at `(level, idx)` into `sess`: opens the journal
    /// transaction on the session's first op (ablation; no-op under the
    /// paper's atomic-bitmap commit), writes + flushes the cell bytes,
    /// and updates the DRAM fingerprint tag (no pool write).
    pub(super) fn stage_insert(
        &mut self,
        pm: &mut P,
        sess: &mut BatchSession<K, V>,
        level: Level,
        idx: u64,
        key: &K,
        value: &V,
    ) {
        if sess.is_empty() {
            self.journal.begin(pm);
        }
        let store = self.level_store(level);
        sess.stage_publish(pm, &mut self.journal, store, idx, key, value);
        if let Some(fp) = &mut self.fp {
            fp.set(level.idx(), idx, probe::fp_tag(&self.view.hash, key));
        }
    }

    /// Stages a delete at `(level, idx)` into `sess` and drops the cell's
    /// fingerprint tag. Nothing in the pool changes until
    /// [`GroupHash::commit_batch`] — the bit clear is the delete's commit
    /// point and stays in batch order.
    pub(super) fn stage_delete(
        &mut self,
        pm: &mut P,
        sess: &mut BatchSession<K, V>,
        level: Level,
        idx: u64,
    ) {
        if sess.is_empty() {
            self.journal.begin(pm);
        }
        let store = self.level_store(level);
        sess.stage_retract(pm, &mut self.journal, store, idx);
        if let Some(fp) = &mut self.fp {
            fp.clear(level.idx(), idx);
        }
    }

    /// Group-commits a staged session and moves the persistent count by
    /// `delta` (publishes minus retracts); the count rides the session's
    /// commit (pre-imaged under the ablation). A one-op session reproduces
    /// the paper's single-op trace — Algorithm 1/3 lines 4–9 / 16–21 —
    /// event for event.
    pub(super) fn commit_batch(&mut self, pm: &mut P, sess: &mut BatchSession<K, V>, delta: i64) {
        debug_assert!(!sess.is_empty(), "empty sessions must skip commit");
        let count = self
            .header
            .count(pm)
            .checked_add_signed(delta)
            .expect("count out of range");
        sess.commit(
            pm,
            &mut self.journal,
            Some((self.header.count_off(), count)),
        );
    }

    /// Rebuilds the fingerprint cache from the bitmaps + cells (the only
    /// authoritative state). No-op under `FpMode::Off`. O(capacity),
    /// reading one key per occupied cell.
    pub(super) fn rebuild_fp_cache(&mut self, pm: &P) {
        let Some(fp) = &mut self.fp else { return };
        fp.reset();
        let n = self.view.config.cells_per_level;
        for level in [Level::One, Level::Two] {
            let store = self.view.store(level);
            let mut base = 0u64;
            while base < n {
                let mut word = store.bitmap.word_containing(pm, base);
                while word != 0 {
                    let idx = base + word.trailing_zeros() as u64;
                    let tag = probe::fp_tag(&self.view.hash, &store.cells.read_key(pm, idx));
                    fp.set(level.idx(), idx, tag);
                    word &= word - 1;
                }
                base += 64;
            }
        }
    }

    /// Checks that the fingerprint cache agrees with the pool: every
    /// occupied cell's cached tag must equal the tag of the key stored
    /// there (free cells are ignored — their tags are never consulted).
    /// `Ok` under `FpMode::Off`.
    pub fn verify_fp_cache(&self, pm: &P) -> Result<(), TableError> {
        let Some(fp) = &self.fp else { return Ok(()) };
        for level in [Level::One, Level::Two] {
            let store = self.level_store(level);
            for i in 0..self.view.config.cells_per_level {
                if !store.is_occupied(pm, i) {
                    continue;
                }
                let want = self.fp_tag(&store.read_key(pm, i));
                let got = fp.get(level.idx(), i);
                if got != want {
                    return Err(TableError::Corrupt(format!(
                        "fingerprint cache stale at level {}/cell {i}: \
                         cached {got:#04x}, key tag {want:#04x}",
                        level.idx() + 1
                    )));
                }
            }
        }
        Ok(())
    }
}
