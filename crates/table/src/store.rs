//! The cell store: pmem-facing occupancy bitmap + cell codec + the
//! failure-atomic publish/retract choreography every scheme commits
//! through.
//!
//! A [`CellStore`] bundles one [`PmemBitmap`] with one [`CellArray`] over
//! the same cell index space and owns the *order* of persistent writes:
//!
//! * **publish** (paper Algorithm 1, last three lines): write the cell,
//!   persist it, then atomically flip its bitmap bit — the 8-byte bit flip
//!   is the commit point, so a crash before it leaves an unreferenced cell
//!   that recovery wipes.
//! * **retract** (Algorithm 3, inverted order): atomically clear the bit
//!   first, then scrub and persist the cell — a crash after the flip
//!   leaves stale bytes in a cell the bitmap already disowns.
//!
//! For undo-logged variants the matching `stage_*` helpers record the
//! pre-images into an open [`Journal`] transaction in the canonical span
//! order (publish: cell, bitmap word, count; retract: bitmap word, cell,
//! count) and seal them, so `ConsistencyMode::UndoLog` is applied in
//! exactly one place. Pure candidate-cell arithmetic lives one layer up in
//! [`crate::probe`]; scheme policy (which cell to try next) one layer above
//! that.

use crate::{CellArray, ConsistencyMode, Journal, PmemBitmap};
use nvm_hashfn::Pod;
use nvm_pmem::{Pmem, PmemRead, Region};
use std::collections::HashSet;

/// One level (or the whole array) of a scheme's cells: bitmap + codec +
/// commit choreography.
#[derive(Debug)]
pub struct CellStore<K: Pod, V: Pod> {
    /// Per-cell occupancy bits; flipping one word is the commit point.
    pub bitmap: PmemBitmap,
    /// The cell payload array the bitmap guards.
    pub cells: CellArray<K, V>,
}

// Manual impls: `CellArray` is `Copy` regardless of K/V bounds, and
// `derive` would wrongly require `K: Clone + Copy, V: Clone + Copy`.
impl<K: Pod, V: Pod> Clone for CellStore<K, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K: Pod, V: Pod> Copy for CellStore<K, V> {}

impl<K: Pod, V: Pod> CellStore<K, V> {
    /// Creates a store over `n` cells: zeroes + persists the bitmap,
    /// attaches the cell array (cells are assumed zeroed, as in a fresh
    /// pool).
    pub fn create<P: Pmem>(pm: &mut P, bitmap_region: Region, cells_region: Region, n: u64) -> Self {
        CellStore {
            bitmap: PmemBitmap::create(pm, bitmap_region, n),
            cells: CellArray::attach(cells_region, n),
        }
    }

    /// Attaches to an existing store without touching pmem.
    pub fn attach(bitmap_region: Region, cells_region: Region, n: u64) -> Self {
        CellStore {
            bitmap: PmemBitmap::attach(bitmap_region, n),
            cells: CellArray::attach(cells_region, n),
        }
    }

    /// Cells in the store.
    pub fn len(&self) -> u64 {
        self.cells.len()
    }

    /// True when the store holds zero cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Is cell `idx` committed (bitmap bit set)?
    pub fn is_occupied<R: PmemRead>(&self, pm: &R, idx: u64) -> bool {
        self.bitmap.get(pm, idx)
    }

    /// Reads the key of cell `idx`.
    pub fn read_key<R: PmemRead>(&self, pm: &R, idx: u64) -> K {
        self.cells.read_key(pm, idx)
    }

    /// Reads the value of cell `idx`.
    pub fn read_value<R: PmemRead>(&self, pm: &R, idx: u64) -> V {
        self.cells.read_value(pm, idx)
    }

    /// Committed cells (bitmap popcount).
    pub fn occupied<R: PmemRead>(&self, pm: &R) -> u64 {
        self.bitmap.count_ones(pm)
    }

    /// Failure-atomic publish: cell bytes, persist, then the one-word
    /// bitmap flip that commits. 2 flushes, 2 fences, 1 atomic write.
    pub fn publish<P: Pmem>(&self, pm: &mut P, idx: u64, key: &K, value: &V) {
        self.cells.write_entry(pm, idx, key, value);
        self.cells.persist_entry(pm, idx);
        self.bitmap.set_and_persist(pm, idx, true);
    }

    /// Failure-atomic retract, in the *inverted* order: clear the bit
    /// first (the commit), then scrub and persist the cell so recovery
    /// never resurrects it.
    pub fn retract<P: Pmem>(&self, pm: &mut P, idx: u64) {
        self.bitmap.set_and_persist(pm, idx, false);
        self.cells.clear_entry(pm, idx);
        self.cells.persist_entry(pm, idx);
    }

    /// Records the pre-images a [`CellStore::publish`] of `idx` will
    /// overwrite — cell span, bitmap word, then the count word if the
    /// scheme persists one — into an open journal transaction, and seals
    /// them. No-op in `ConsistencyMode::None`.
    pub fn stage_publish<P: Pmem>(
        &self,
        pm: &mut P,
        journal: &mut Journal,
        idx: u64,
        count_off: Option<usize>,
    ) {
        journal.record(pm, self.cells.cell_off(idx), self.cells.entry_len());
        journal.record(pm, self.bitmap.word_off_of(idx), 8);
        if let Some(off) = count_off {
            journal.record(pm, off, 8);
        }
        journal.seal(pm);
    }

    /// Records the pre-images a [`CellStore::retract`] of `idx` will
    /// overwrite — bitmap word first, mirroring the inverted write order,
    /// then cell span and optional count word — and seals them.
    pub fn stage_retract<P: Pmem>(
        &self,
        pm: &mut P,
        journal: &mut Journal,
        idx: u64,
        count_off: Option<usize>,
    ) {
        journal.record(pm, self.bitmap.word_off_of(idx), 8);
        journal.record(pm, self.cells.cell_off(idx), self.cells.entry_len());
        if let Some(off) = count_off {
            journal.record(pm, off, 8);
        }
        journal.seal(pm);
    }

    /// True when cell `idx` is free *for batch planning*: its committed
    /// bit is clear and no staged publish in `sess` has claimed it. Staged
    /// retracts do **not** free a cell for re-use within the same batch —
    /// the bit only clears at commit.
    pub fn is_free_for<R: PmemRead>(&self, pm: &R, sess: &BatchSession<K, V>, idx: u64) -> bool {
        !self.is_occupied(pm, idx) && !sess.is_claimed(self, idx)
    }

    /// The per-store half of recovery (paper Algorithm 4): counts
    /// committed cells and scrubs any uncommitted cell a crashed publish
    /// left bytes in. Returns the committed count.
    pub fn recover_cells<P: Pmem>(&self, pm: &mut P) -> u64 {
        let mut count = 0;
        for i in 0..self.len() {
            if self.bitmap.get(pm, i) {
                count += 1;
            } else if !self.cells.is_zeroed(pm, i) {
                self.cells.clear_entry(pm, i);
                self.cells.persist_entry(pm, i);
            }
        }
        count
    }
}

/// What a staged batch operation will do at commit time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BatchOpKind {
    Publish,
    Retract,
}

/// A group-commit session over one or more [`CellStore`]s: stage many
/// publishes/retracts, then flip all their bitmap bits in **staging
/// order** with the fences coalesced.
///
/// The fence arithmetic (K ops, `ConsistencyMode::None`):
///
/// * **stage**: each publish writes + flushes its cell — no fence;
/// * **commit**: one *drain* fence retires every staged cell line, then
///   each op's 8-byte bit flip is flushed and fenced individually (the
///   per-op fence is what makes the durable set a strict *prefix* — at
///   most the in-flight op is ever ambiguous, even when ops share a
///   bitmap word), then retracted cells are scrubbed under one more
///   drain fence, and finally the count commits.
///
/// Totals: `K + 2` fences and `2K + 1` flushes for K inserts — versus
/// `3K`/`3K` for K single ops — while each op keeps the paper's 8-byte
/// failure-atomic commit point. A `K = 1` session reproduces the
/// single-op trace (3 flushes / 3 fences / 2 atomics) event for event.
///
/// Under [`ConsistencyMode::UndoLog`] the caller wraps the session in one
/// journal transaction (`begin` before staging, the session seals and
/// commits): the whole chunk becomes all-or-nothing, so the per-op fences
/// drop out too (~5 fences per chunk). Chunk size must respect the log
/// capacity — see [`Journal::ops_per_txn`].
///
/// Crash safety, mode `None`: staged cells are durable (drain fence)
/// *before* any bit flips, so an "early" bit never publishes a torn cell;
/// stale counts and un-scrubbed cells are repaired by recovery's recount +
/// wipe (Algorithm 4). Mode `UndoLog`: every touched span (cells, bitmap
/// words, count) is pre-imaged before its first in-place write, so
/// rollback restores the pre-batch state exactly.
///
/// ```
/// use nvm_table::{BatchSession, CellStore, ConsistencyMode, Journal};
/// use nvm_pmem::{Pmem, Region, SimConfig, SimPmem};
///
/// let mut pm = SimPmem::new(4096, SimConfig::fast_test());
/// let store =
///     CellStore::<u64, u64>::create(&mut pm, Region::new(0, 64), Region::new(64, 1024), 64);
/// let mut journal = Journal::create(&mut pm, ConsistencyMode::None, Region::new(0, 0));
///
/// // Stage three publishes, then commit them as one group: the staged
/// // cell lines drain under a single fence, then each op's 8-byte bit
/// // flip commits it in staging order.
/// let mut sess = BatchSession::new();
/// for idx in 0..3u64 {
///     assert!(store.is_free_for(&pm, &sess, idx));
///     sess.stage_publish(&mut pm, &mut journal, store, idx, &idx, &!idx);
/// }
/// assert_eq!(sess.staged(), 3);
/// sess.commit(&mut pm, &mut journal, None);
/// assert!(store.is_occupied(&pm, 1));
/// assert_eq!(store.read_value(&pm, 1), !1);
/// ```
#[derive(Debug)]
pub struct BatchSession<K: Pod, V: Pod> {
    /// Staged ops in commit order.
    ops: Vec<(CellStore<K, V>, BatchOpKind, u64)>,
    /// Cells claimed by staged publishes, keyed by (bitmap offset, idx) —
    /// the bitmap's pool offset identifies the store.
    claimed: HashSet<(usize, u64)>,
    /// Cells claimed by staged retracts (same keying).
    retracted: HashSet<(usize, u64)>,
}

impl<K: Pod, V: Pod> Default for BatchSession<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Pod, V: Pod> BatchSession<K, V> {
    /// An empty session.
    pub fn new() -> Self {
        BatchSession {
            ops: Vec::new(),
            claimed: HashSet::new(),
            retracted: HashSet::new(),
        }
    }

    /// Staged ops not yet committed.
    pub fn staged(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    #[inline]
    fn cell_key(store: &CellStore<K, V>, idx: u64) -> (usize, u64) {
        (store.bitmap.region().off, idx)
    }

    /// Has a staged publish already claimed `idx` in `store`? Batch
    /// planners must treat claimed cells as occupied.
    pub fn is_claimed(&self, store: &CellStore<K, V>, idx: u64) -> bool {
        self.claimed.contains(&Self::cell_key(store, idx))
    }

    /// Has a staged retract already covered `idx` in `store`? Guards
    /// against double-retracting one cell (e.g. duplicate keys in a
    /// remove batch), which would double-count the decrement.
    pub fn is_retracted(&self, store: &CellStore<K, V>, idx: u64) -> bool {
        self.retracted.contains(&Self::cell_key(store, idx))
    }

    /// Stages a publish of `(key, value)` into `store[idx]`: records the
    /// cell + bitmap-word pre-images into the open journal transaction
    /// (no-op in mode `None`), writes the cell bytes and flushes them —
    /// **no fence**; [`BatchSession::commit`] drains all staged lines
    /// with one.
    pub fn stage_publish<P: Pmem>(
        &mut self,
        pm: &mut P,
        journal: &mut Journal,
        store: CellStore<K, V>,
        idx: u64,
        key: &K,
        value: &V,
    ) {
        debug_assert!(!self.is_claimed(&store, idx), "cell {idx} claimed twice");
        journal.record(pm, store.cells.cell_off(idx), store.cells.entry_len());
        journal.record(pm, store.bitmap.word_off_of(idx), 8);
        store.cells.write_entry(pm, idx, key, value);
        pm.flush(store.cells.cell_off(idx), store.cells.entry_len());
        self.claimed.insert(Self::cell_key(&store, idx));
        self.ops.push((store, BatchOpKind::Publish, idx));
    }

    /// Stages a retract of `store[idx]`: records the bitmap-word + cell
    /// pre-images (inverted span order, mirroring
    /// [`CellStore::stage_retract`]). No pool bytes change until commit —
    /// the bit clear *is* the retract's commit point and must stay in
    /// batch order.
    pub fn stage_retract<P: Pmem>(
        &mut self,
        pm: &mut P,
        journal: &mut Journal,
        store: CellStore<K, V>,
        idx: u64,
    ) {
        debug_assert!(!self.is_retracted(&store, idx), "cell {idx} retracted twice");
        journal.record(pm, store.bitmap.word_off_of(idx), 8);
        journal.record(pm, store.cells.cell_off(idx), store.cells.entry_len());
        self.retracted.insert(Self::cell_key(&store, idx));
        self.ops.push((store, BatchOpKind::Retract, idx));
    }

    /// Commits every staged op in staging order, then the optional count
    /// word (`(pool offset, new absolute value)`), then the journal
    /// transaction.
    ///
    /// Mode `None`: drain staged cell flushes with one fence, flip each
    /// bit with its own flush + fence (the strict-prefix guarantee), scrub
    /// retracted cells, drain, commit the count. Mode `UndoLog`: the
    /// caller's open transaction is sealed here (count pre-image
    /// included), the per-op fences drop out, and `journal.commit` ends
    /// the chunk. Callers must have called [`Journal::begin`] before
    /// staging when the journal is logged, and should skip the whole
    /// begin/stage/commit dance for empty chunks.
    pub fn commit<P: Pmem>(
        &mut self,
        pm: &mut P,
        journal: &mut Journal,
        count: Option<(usize, u64)>,
    ) {
        let logged = journal.mode() == ConsistencyMode::UndoLog;
        let has_publish = self.ops.iter().any(|(_, k, _)| *k == BatchOpKind::Publish);
        let has_retract = self.ops.iter().any(|(_, k, _)| *k == BatchOpKind::Retract);
        if logged {
            if let Some((off, _)) = count {
                journal.record(pm, off, 8);
            }
            // Seal's fence also drains the staged cell flushes.
            journal.seal(pm);
        } else if has_publish {
            pm.fence(); // drain: every staged cell is durable before any bit flips
        }
        for &(store, kind, idx) in &self.ops {
            store.bitmap.set_volatile(pm, idx, kind == BatchOpKind::Publish);
            pm.flush(store.bitmap.word_off_of(idx), 8);
            if !logged {
                // The prefix point: ops before this fence are durable, at
                // most this op is in flight. Required even for ops sharing
                // a bitmap word — a coalesced trailing fence would let a
                // later op's word write outrun an earlier op's.
                pm.fence();
            }
        }
        for &(store, kind, idx) in &self.ops {
            if kind == BatchOpKind::Retract {
                store.cells.clear_entry(pm, idx);
                pm.flush(store.cells.cell_off(idx), store.cells.entry_len());
            }
        }
        if (logged && !self.ops.is_empty()) || has_retract {
            pm.fence(); // drain bit-flip / scrub flushes before the count commits
        }
        if let Some((off, v)) = count {
            pm.atomic_write_u64(off, v);
            pm.persist(off, 8);
        }
        journal.commit(pm);
        self.ops.clear();
        self.claimed.clear();
        self.retracted.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_pmem::{CrashResolution, Pmem, SimConfig, SimPmem};

    fn store(pm_bytes: usize, n: u64) -> (SimPmem, CellStore<u64, u64>) {
        let mut pm = SimPmem::new(pm_bytes, SimConfig::fast_test());
        let bm = Region::new(0, PmemBitmap::region_size(n).max(8));
        let cells = Region::new(1024, CellArray::<u64, u64>::region_size(n));
        let s = CellStore::create(&mut pm, bm, cells, n);
        (pm, s)
    }

    #[test]
    fn publish_then_retract_roundtrip() {
        let (mut pm, s) = store(1 << 16, 64);
        assert!(!s.is_occupied(&pm, 7));
        s.publish(&mut pm, 7, &0xAB, &0xCD);
        assert!(s.is_occupied(&pm, 7));
        assert_eq!(s.read_key(&pm, 7), 0xAB);
        assert_eq!(s.read_value(&pm, 7), 0xCD);
        assert_eq!(s.occupied(&pm), 1);
        s.retract(&mut pm, 7);
        assert!(!s.is_occupied(&pm, 7));
        assert!(s.cells.is_zeroed(&pm, 7));
        assert_eq!(s.occupied(&pm), 0);
    }

    #[test]
    fn publish_costs_two_flushes_one_atomic() {
        let (mut pm, s) = store(1 << 16, 64);
        pm.reset_stats();
        s.publish(&mut pm, 3, &1, &2);
        let st = pm.stats();
        assert_eq!(st.flushes, 2);
        assert_eq!(st.fences, 2);
        assert_eq!(st.atomic_writes, 1);
    }

    #[test]
    fn recover_wipes_uncommitted_cells_only() {
        let (mut pm, s) = store(1 << 16, 64);
        s.publish(&mut pm, 1, &10, &11);
        // A torn publish: cell written + persisted, bit never flipped.
        s.cells.write_entry(&mut pm, 2, &20, &21);
        s.cells.persist_entry(&mut pm, 2);
        assert_eq!(s.recover_cells(&mut pm), 1);
        assert!(s.cells.is_zeroed(&pm, 2));
        assert_eq!(s.read_key(&pm, 1), 10);
    }

    #[test]
    fn staged_publish_rolls_back_after_crash() {
        let (mut pm, s) = store(1 << 16, 64);
        let log_region = Region::new(1 << 15, 1024);
        let mut j = Journal::create(&mut pm, ConsistencyMode::UndoLog, log_region);
        j.begin(&mut pm);
        s.stage_publish(&mut pm, &mut j, 5, None);
        s.publish(&mut pm, 5, &50, &51);
        // Crash before commit: the undo log restores the pre-images.
        pm.crash(CrashResolution::PersistAll);
        let mut j2 = Journal::open(ConsistencyMode::UndoLog, log_region);
        assert!(j2.recover(&mut pm));
        assert!(!s.is_occupied(&pm, 5));
        assert!(s.cells.is_zeroed(&pm, 5));
    }

    #[test]
    fn staged_retract_rolls_back_after_crash() {
        let (mut pm, s) = store(1 << 16, 64);
        let log_region = Region::new(1 << 15, 1024);
        s.publish(&mut pm, 9, &90, &91);
        let mut j = Journal::create(&mut pm, ConsistencyMode::UndoLog, log_region);
        j.begin(&mut pm);
        s.stage_retract(&mut pm, &mut j, 9, None);
        s.retract(&mut pm, 9);
        pm.crash(CrashResolution::PersistAll);
        let mut j2 = Journal::open(ConsistencyMode::UndoLog, log_region);
        assert!(j2.recover(&mut pm));
        assert!(s.is_occupied(&pm, 9));
        assert_eq!(s.read_key(&pm, 9), 90);
        assert_eq!(s.read_value(&pm, 9), 91);
    }

    /// A one-publish batch (plus count) must cost exactly what the
    /// single-op path costs: 3 flushes, 3 fences, 2 atomic writes.
    #[test]
    fn batch_of_one_publish_matches_single_op_budget() {
        let (mut pm, s) = store(1 << 16, 64);
        let mut j = Journal::open(ConsistencyMode::None, Region::new(1 << 15, 1024));
        let count_off = 1 << 14;
        pm.reset_stats();
        let mut sess = BatchSession::new();
        sess.stage_publish(&mut pm, &mut j, s, 3, &1, &2);
        sess.commit(&mut pm, &mut j, Some((count_off, 1)));
        let st = pm.stats();
        assert_eq!(st.flushes, 3);
        assert_eq!(st.fences, 3);
        assert_eq!(st.atomic_writes, 2);
        assert!(s.is_occupied(&pm, 3));
        assert_eq!(pm.read_u64(count_off), 1);
    }

    /// A one-retract batch (plus count) likewise matches the single-op
    /// retract + count-decrement budget, bytes included.
    #[test]
    fn batch_of_one_retract_matches_single_op_budget() {
        let (mut pm, s) = store(1 << 16, 64);
        s.publish(&mut pm, 5, &50, &51);
        let mut j = Journal::open(ConsistencyMode::None, Region::new(1 << 15, 1024));
        let count_off = 1 << 14;
        pm.reset_stats();
        let mut sess = BatchSession::new();
        sess.stage_retract(&mut pm, &mut j, s, 5);
        sess.commit(&mut pm, &mut j, Some((count_off, 0)));
        let st = pm.stats();
        assert_eq!(st.flushes, 3);
        assert_eq!(st.fences, 3);
        assert_eq!(st.atomic_writes, 2);
        assert_eq!(st.bytes_written, 32); // word + 16-byte cell + count
        assert!(!s.is_occupied(&pm, 5));
        assert!(s.cells.is_zeroed(&pm, 5));
    }

    /// K publishes coalesce to K + 2 fences (drain, K prefix points,
    /// count) and 2K + 1 flushes.
    #[test]
    fn batch_publish_fences_are_k_plus_two() {
        let k = 8u64;
        let (mut pm, s) = store(1 << 16, 64);
        let mut j = Journal::open(ConsistencyMode::None, Region::new(1 << 15, 1024));
        pm.reset_stats();
        let mut sess = BatchSession::new();
        for i in 0..k {
            sess.stage_publish(&mut pm, &mut j, s, i, &i, &(i * 10));
        }
        sess.commit(&mut pm, &mut j, Some((1 << 14, k)));
        let st = pm.stats();
        assert_eq!(st.fences, k + 2);
        assert_eq!(st.flushes, 2 * k + 1);
        assert_eq!(st.atomic_writes, k + 1);
        for i in 0..k {
            assert!(s.is_occupied(&pm, i));
            assert_eq!(s.read_value(&pm, i), i * 10);
        }
    }

    /// The claimed-cell overlay: planners must see staged cells as taken
    /// even though their bits have not flipped yet.
    #[test]
    fn overlay_tracks_staged_cells() {
        let (mut pm, s) = store(1 << 16, 64);
        s.publish(&mut pm, 2, &1, &1);
        let mut j = Journal::open(ConsistencyMode::None, Region::new(1 << 15, 1024));
        let mut sess = BatchSession::new();
        assert!(s.is_free_for(&pm, &sess, 1));
        sess.stage_publish(&mut pm, &mut j, s, 1, &10, &11);
        assert!(!s.is_free_for(&pm, &sess, 1)); // claimed
        assert!(!s.is_free_for(&pm, &sess, 2)); // committed
        assert!(s.is_free_for(&pm, &sess, 3));
        sess.stage_retract(&mut pm, &mut j, s, 2);
        assert!(sess.is_retracted(&s, 2));
        // Retracted cells stay unavailable until commit.
        assert!(!s.is_free_for(&pm, &sess, 2));
        sess.commit(&mut pm, &mut j, None);
        assert!(s.is_occupied(&pm, 1));
        assert!(s.is_free_for(&pm, &sess, 2));
    }

    /// A logged batch chunk is all-or-nothing: crash before the journal
    /// commit rolls every staged op back.
    #[test]
    fn logged_batch_rolls_back_after_crash() {
        let (mut pm, s) = store(1 << 16, 64);
        s.publish(&mut pm, 0, &100, &101);
        let log_region = Region::new(1 << 15, 1024);
        let mut j = Journal::create(&mut pm, ConsistencyMode::UndoLog, log_region);
        j.begin(&mut pm);
        let mut sess = BatchSession::new();
        sess.stage_publish(&mut pm, &mut j, s, 1, &10, &11);
        sess.stage_publish(&mut pm, &mut j, s, 2, &20, &21);
        sess.stage_retract(&mut pm, &mut j, s, 0);
        // Run the commit by hand up to (but not including) journal.commit:
        // seal + flips + scrub are all pre-imaged.
        j.seal(&mut pm);
        s.bitmap.set_volatile(&mut pm, 1, true);
        s.bitmap.set_volatile(&mut pm, 2, true);
        s.bitmap.set_volatile(&mut pm, 0, false);
        s.cells.clear_entry(&mut pm, 0);
        pm.crash(CrashResolution::PersistAll);
        let mut j2 = Journal::open(ConsistencyMode::UndoLog, log_region);
        assert!(j2.recover(&mut pm));
        assert!(s.is_occupied(&pm, 0));
        assert_eq!(s.read_key(&pm, 0), 100);
        assert!(!s.is_occupied(&pm, 1));
        assert!(s.cells.is_zeroed(&pm, 1));
        assert!(!s.is_occupied(&pm, 2));
    }
}
