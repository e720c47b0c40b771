//! Algorithms 1, 3 and 4 — the group table's insert/delete/recover
//! policy — written as probe-plan + cell-store compositions, plus the
//! table's entry points into Algorithm 2.
//!
//! The scans here decide *which* cells to examine (via the pure plans in
//! [`super::probe`]) and read occupancy words/keys through the shared
//! [`CellStore`](nvm_table::CellStore) accessors; every mutation funnels
//! through the commit choreography in `store.rs`. The lookup itself is
//! the one in `readview.rs`, shared with [`GroupReadView`]: the table
//! runs it with its tag cache and recorder.
//!
//! [`GroupReadView`]: super::GroupReadView

use super::{GroupHash, Level};
use nvm_hashfn::{HashKey, Pod};
use nvm_pmem::Pmem;
use nvm_table::{BatchError, BatchSession, InsertError};

impl<P: Pmem, K: HashKey, V: Pod> GroupHash<P, K, V> {
    /// Finds an empty level-2 cell in group `g`; cells claimed by a
    /// staged publish in `sess` count as occupied. Also returns how many
    /// cells were examined: the offset of the free cell plus one, or the
    /// whole group on a miss (every cell examined before the free one is
    /// occupied, which is what the occupancy histogram records).
    fn find_free_in_group(&self, pm: &P, sess: &BatchSession<K, V>, g: u64) -> (Option<u64>, u64) {
        let start = g * self.view.config.group_size;
        let end = start + self.view.config.group_size;
        let mut cur = start;
        while cur < end {
            match self
                .view
                .store2
                .bitmap
                .find_zero_in_range(pm, cur, end - cur)
            {
                Some(idx) if sess.is_claimed(&self.view.store2, idx) => cur = idx + 1,
                Some(idx) => return (Some(idx), idx - start + 1),
                None => break,
            }
        }
        (None, self.view.config.group_size)
    }

    /// Candidate level-1 slots for `key`, primary first.
    #[inline]
    fn candidate_slots(&self, key: &K) -> (u64, Option<u64>) {
        super::probe::candidate_slots(&self.view.hash, &self.view.config, key)
    }

    /// Algorithm 1's placement decision (with the §4.4 two-choice
    /// extension when configured: try the second slot and the second
    /// matched group before giving up), planned against the committed bits
    /// *plus* `sess`'s staged claims so a batch never places two keys in
    /// one cell. Pure reads — records the insert's probe/occupancy sample
    /// but writes nothing.
    fn plan_insert(
        &self,
        pm: &P,
        sess: &BatchSession<K, V>,
        key: &K,
    ) -> Result<(Level, u64), InsertError> {
        let (k1, k2) = self.candidate_slots(key);
        let mut probes = 1u64; // the k1 slot check
        if self.view.store1.is_free_for(pm, sess, k1) {
            self.note_insert(probes, 0);
            return Ok((Level::One, k1));
        }
        if let Some(k2) = k2 {
            probes += 1;
            if self.view.store1.is_free_for(pm, sess, k2) {
                self.note_insert(probes, 1);
                return Ok((Level::One, k2));
            }
        }
        // Occupied cells stepped over so far: every checked level-1 slot.
        let mut occupied = probes;
        let g1 = self.group_of(k1);
        let (free, examined) = self.find_free_in_group(pm, sess, g1);
        probes += examined;
        if let Some(idx) = free {
            occupied += examined - 1;
            self.note_insert(probes, occupied);
            return Ok((Level::Two, idx));
        }
        occupied += examined;
        if let Some(k2) = k2 {
            let g2 = self.group_of(k2);
            if g2 != g1 {
                let (free, examined) = self.find_free_in_group(pm, sess, g2);
                probes += examined;
                if let Some(idx) = free {
                    occupied += examined - 1;
                    self.note_insert(probes, occupied);
                    return Ok((Level::Two, idx));
                }
                occupied += examined;
            }
        }
        // "If there are no empty cells in the matched group, the
        // capacity of the hash table needs to be expanded."
        self.note_insert(probes, occupied);
        Err(InsertError::TableFull)
    }

    /// Algorithm 1: a one-element batch, reproducing the paper's 3-flush /
    /// 3-fence / 2-atomic single-op trace event for event.
    pub fn insert(&mut self, pm: &mut P, key: K, value: V) -> Result<(), InsertError> {
        self.insert_batch(pm, &[(key, value)]).map_err(|e| e.error)
    }

    /// Batched Algorithm 1 with fence coalescing: each op is planned
    /// against the committed bits plus the batch's staged claims, its cell
    /// write is staged, and the commits are grouped so `K` inserts cost
    /// `K + 2` fences instead of `3K` — while keeping each op's 8-byte
    /// bitmap flip individually failure-atomic (prefix durability; see
    /// [`BatchSession`]). Under the forced-logging ablation the batch is
    /// split into log-capacity chunks, each an all-or-nothing transaction.
    ///
    /// On `TableFull` the already-staged prefix is committed before
    /// returning; [`BatchError::committed`] reports its length.
    pub fn insert_batch(&mut self, pm: &mut P, items: &[(K, V)]) -> Result<(), BatchError> {
        if items.is_empty() {
            return Ok(());
        }
        let base = pm.stats();
        let per_op = [self.view.store1.cells.entry_len(), 8];
        let chunk_cap = self.journal.ops_per_txn(&per_op, &[8]);
        let mut sess = BatchSession::new();
        let mut committed = 0usize;
        let mut failure = None;
        for (key, value) in items {
            match self.plan_insert(pm, &sess, key) {
                Ok((level, idx)) => {
                    self.stage_insert(pm, &mut sess, level, idx, key, value);
                    if sess.staged() >= chunk_cap {
                        let n = sess.staged();
                        self.commit_batch(pm, &mut sess, n as i64);
                        committed += n;
                    }
                }
                Err(error) => {
                    failure = Some(error);
                    break;
                }
            }
        }
        if !sess.is_empty() {
            let n = sess.staged();
            self.commit_batch(pm, &mut sess, n as i64);
            committed += n;
        }
        let spent = pm.stats().delta_since(&base);
        self.note_batch(committed as u64, spent.fences, spent.flushes);
        match failure {
            Some(error) => Err(BatchError { committed, error }),
            None => Ok(()),
        }
    }

    /// Algorithm 2 (the shared lookup in `readview.rs`, run with this
    /// table's tag cache and recorder).
    pub fn get(&self, pm: &P, key: &K) -> Option<V> {
        self.locate(pm, key)
            .map(|(level, idx)| self.level_store(level).read_value(pm, idx))
    }

    /// Vectorized Algorithm 2: one lookup per key, same results (and same
    /// probe/fingerprint instrumentation totals) as calling
    /// [`GroupHash::get`] per element, but pipelined so NVM read latencies
    /// overlap instead of serializing: hash every key, prefetch every
    /// level-1 line, resolve level 1, prefetch the survivors' groups
    /// (under `FpMode::On`, exactly the cells the DRAM tag cache
    /// selects), then scan them.
    ///
    /// Like `get`, this is a pure read: zero flushes, zero fences, zero
    /// (atomic) writes.
    pub fn get_batch(&self, pm: &P, keys: &[K]) -> Vec<Option<V>> {
        let mut out: Vec<Option<V>> = vec![None; keys.len()];
        self.view
            .locate_batch(pm, keys, self.aids(), |i, level, idx| {
                out[i] = Some(self.level_store(level).read_value(pm, idx));
            });
        out
    }

    /// Finds the `(level, cell)` holding `key`, probing the candidate
    /// slot(s) then the matched group(s). Records one probe-length sample
    /// (cells examined) per call.
    fn locate(&self, pm: &P, key: &K) -> Option<(Level, u64)> {
        self.view.locate(pm, key, self.aids())
    }

    /// Updates the value of an existing `key` in place, returning whether
    /// the key was found.
    ///
    /// The value bytes are overwritten and persisted where they are. For
    /// values of 8 bytes or less this is **failure-atomic** (the write is
    /// a single aligned store — cells are 8-byte aligned and the key
    /// prefix is a multiple of 8 for all provided key types): a crash
    /// leaves either the old or the new value. For larger values a crash
    /// mid-update can tear at 8-byte granularity; use remove+insert (or
    /// an indirection pointer as `nvm-kv` does) when multi-word values
    /// must switch atomically.
    pub fn update_in_place(&mut self, pm: &mut P, key: &K, value: V) -> bool {
        match self.locate(pm, key) {
            Some((level, idx)) => {
                let store = self.level_store(level);
                let mut buf = [0u8; 64];
                debug_assert!(V::SIZE <= 64);
                value.write_to(&mut buf[..V::SIZE]);
                let off = store.cells.cell_off(idx) + K::SIZE;
                pm.write(off, &buf[..V::SIZE]);
                pm.persist(off, V::SIZE);
                true
            }
            None => false,
        }
    }

    /// Algorithm 3: a one-element batch, reproducing the single-op trace.
    pub fn remove(&mut self, pm: &mut P, key: &K) -> bool {
        self.remove_batch(pm, std::slice::from_ref(key)) == 1
    }

    /// Batched Algorithm 3, same fence coalescing and prefix durability as
    /// [`GroupHash::insert_batch`]. Returns how many keys were present
    /// (and are now gone); when one key appears several times in `keys`,
    /// at most one removal takes effect (there is only one cell to
    /// retract — its bit stays set until the chunk commits).
    pub fn remove_batch(&mut self, pm: &mut P, keys: &[K]) -> usize {
        if keys.is_empty() {
            return 0;
        }
        let base = pm.stats();
        let per_op = [8, self.view.store1.cells.entry_len()];
        let chunk_cap = self.journal.ops_per_txn(&per_op, &[8]);
        let mut sess = BatchSession::new();
        let mut removed = 0usize;
        for key in keys {
            let Some((level, idx)) = self.locate(pm, key) else {
                continue;
            };
            if sess.is_retracted(&self.level_store(level), idx) {
                continue; // duplicate key within the batch
            }
            self.stage_delete(pm, &mut sess, level, idx);
            if sess.staged() >= chunk_cap {
                let n = sess.staged();
                self.commit_batch(pm, &mut sess, -(n as i64));
                removed += n;
            }
        }
        if !sess.is_empty() {
            let n = sess.staged();
            self.commit_batch(pm, &mut sess, -(n as i64));
            removed += n;
        }
        let spent = pm.stats().delta_since(&base);
        self.note_batch(removed as u64, spent.fences, spent.flushes);
        removed
    }

    /// Algorithm 4: post-crash recovery. Scans the whole table, erases any
    /// cell whose occupancy bit is clear (wiping partial inserts/deletes),
    /// and recounts `count`. Idempotent; O(capacity).
    pub fn recover(&mut self, pm: &mut P) {
        // Forced-logging ablation: roll back an in-flight transaction
        // before trusting the cells.
        self.journal.recover(pm);
        let count = self.view.store1.recover_cells(pm) + self.view.store2.recover_cells(pm);
        self.set_count_committed(pm, count);
        // The volatile tags may describe pre-crash state; rebuild them
        // from the (now repaired) bitmaps + cells.
        self.rebuild_fp_cache(pm);
    }
}
