//! A read-only, `Copy`-able view of a [`GroupHash`](super::GroupHash).
//!
//! [`GroupReadView`] snapshots the table's *volatile* description — the
//! config, the hash streams, and the two cell-store handles (regions +
//! geometry, no pool bytes) — and answers lookups through any
//! [`PmemRead`] implementor. It deliberately carries **no** write-capable
//! pool surface, no fingerprint cache, and no instrumentation: it is the
//! minimal probe machine that concurrent readers clone and run lock-free
//! (the seqlock in `crate::concurrent` validates each optimistic read).
//!
//! The view stays correct across any number of inserts/removes on the
//! owning table because everything it holds is layout, not contents: the
//! paper's 8-byte atomic bitmap publish means the pool itself is always
//! in a consistent committed state between (not during) bit flips.
//!
//! Layering: this module may name only the read-side pool surface — the
//! `ci.sh` lint rejects any use of the write-capable trait here.
//!
//! # Hit revalidation
//!
//! After reading a matched cell's value the view re-checks the
//! occupancy bit and the key, and treats the cell as non-matching if
//! either changed. Under the sharded wrapper every write runs at odd
//! sequence, so the seqlock already rejects any read that overlapped a
//! retract; the recheck is a second, local line of defence that keeps a
//! view used without a seqlock from returning a value the scrub is
//! already overwriting.

use super::probe;
use crate::config::GroupHashConfig;
use nvm_hashfn::{HashKey, HashPair, Pod};
use nvm_pmem::PmemRead;
use nvm_table::probe::{GroupPlan, Selection};
use nvm_table::CellStore;

/// A read-only snapshot of a group-hash table's geometry: enough to run
/// Algorithm 2 (`get`) against any read handle, nothing more.
///
/// `Copy` by construction — cloning a view is moving ~100 bytes of plain
/// data, so every reader thread can own one.
#[derive(Debug)]
pub struct GroupReadView<K: HashKey, V: Pod> {
    config: GroupHashConfig,
    hash: HashPair,
    store1: CellStore<K, V>,
    store2: CellStore<K, V>,
}

// Manual impls for the same reason as `CellStore`: a derive would
// wrongly require `K: Copy, V: Copy`.
impl<K: HashKey, V: Pod> Clone for GroupReadView<K, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K: HashKey, V: Pod> Copy for GroupReadView<K, V> {}

impl<K: HashKey, V: Pod> GroupReadView<K, V> {
    pub(super) fn new(
        config: GroupHashConfig,
        hash: HashPair,
        store1: CellStore<K, V>,
        store2: CellStore<K, V>,
    ) -> Self {
        GroupReadView {
            config,
            hash,
            store1,
            store2,
        }
    }

    /// The configuration the view was captured from.
    pub fn config(&self) -> &GroupHashConfig {
        &self.config
    }

    /// Algorithm 2 against a bare read handle: candidate level-1 slot(s),
    /// then the matched level-2 group(s). Key-first (no fingerprint
    /// filter — the DRAM tag cache belongs to the owning table, whose
    /// mutators keep it coherent; a detached view could not see updates).
    pub fn get<R: PmemRead>(&self, pm: &R, key: &K) -> Option<V> {
        let (k1, k2) = probe::candidate_slots(&self.hash, &self.config, key);
        if self.level1_holds(pm, k1, key) {
            if let Some(v) = self.read_hit(&self.store1, pm, k1, key) {
                return Some(v);
            }
        }
        if let Some(k2) = k2 {
            if self.level1_holds(pm, k2, key) {
                if let Some(v) = self.read_hit(&self.store1, pm, k2, key) {
                    return Some(v);
                }
            }
        }
        let plan = probe::plan(&self.config);
        let g1 = plan.group_of_slot(k1);
        if let Some(v) = self.find_in_group(pm, &plan, g1, key) {
            return Some(v);
        }
        if let Some(k2) = k2 {
            let g2 = plan.group_of_slot(k2);
            if g2 != g1 {
                if let Some(v) = self.find_in_group(pm, &plan, g2, key) {
                    return Some(v);
                }
            }
        }
        None
    }

    /// Batched Algorithm 2: one lookup per key, answers in input order,
    /// same results as calling [`GroupReadView::get`] per element. The
    /// batch is pipelined — hash everything, software-prefetch every
    /// candidate line, then resolve the probes against warm cache — so
    /// the per-key NVM latency overlaps instead of serializing.
    ///
    /// ```
    /// use group_hash::{GroupHash, GroupHashConfig};
    /// use nvm_pmem::{Pmem, PmemRead, Region, SimConfig, SimPmem};
    ///
    /// let cfg = GroupHashConfig::new(1 << 10, 64);
    /// let size = GroupHash::<SimPmem, u64, u64>::required_size(&cfg);
    /// let mut pm = SimPmem::new(size, SimConfig::fast_test());
    /// let mut t = GroupHash::create(&mut pm, Region::new(0, size), cfg).unwrap();
    /// for k in 0..64u64 {
    ///     t.insert(&mut pm, k, !k).unwrap();
    /// }
    ///
    /// // A view + read handle answer batches without the owning table.
    /// let view = t.read_view();
    /// let reader = pm.read_handle();
    /// let hits = view.get_batch(&reader, &[1u64, 63, 9999]);
    /// assert_eq!(hits, vec![Some(!1), Some(!63), None]);
    /// ```
    pub fn get_batch<R: PmemRead>(&self, pm: &R, keys: &[K]) -> Vec<Option<V>> {
        let mut out = Vec::new();
        self.get_batch_into(pm, keys, &mut out);
        out
    }

    /// Scratch-reusing form of [`GroupReadView::get_batch`]: clears `out`
    /// and fills it with one answer per key. The sharded concurrent path
    /// calls this once per seqlock attempt, reusing the same buffer across
    /// shards and retries so validation failures cost no allocation.
    pub fn get_batch_into<R: PmemRead>(&self, pm: &R, keys: &[K], out: &mut Vec<Option<V>>) {
        out.clear();
        out.resize(keys.len(), None);
        if keys.is_empty() {
            return;
        }
        // Hash the whole vector up front...
        let mut slots: Vec<(u64, Option<u64>)> = Vec::with_capacity(keys.len());
        for key in keys {
            slots.push(probe::candidate_slots(&self.hash, &self.config, key));
        }
        // ...issue every level-1 prefetch before resolving any probe...
        for &(k1, k2) in &slots {
            self.prefetch_level1(pm, k1);
            if let Some(k2) = k2 {
                self.prefetch_level1(pm, k2);
            }
        }
        // ...then resolve level 1 against warm lines. Misses survive into
        // the selection vector for the group phase.
        let plan = probe::plan(&self.config);
        let mut sel = Selection::new();
        for (i, key) in keys.iter().enumerate() {
            let (k1, k2) = slots[i];
            if self.level1_holds(pm, k1, key) {
                if let Some(v) = self.read_hit(&self.store1, pm, k1, key) {
                    out[i] = Some(v);
                    continue;
                }
            }
            if let Some(k2) = k2 {
                if self.level1_holds(pm, k2, key) {
                    if let Some(v) = self.read_hit(&self.store1, pm, k2, key) {
                        out[i] = Some(v);
                        continue;
                    }
                }
            }
            sel.push(i as u32);
        }
        // Warm the survivors' groups.
        for &i in sel.indices() {
            let (k1, k2) = slots[i as usize];
            let g1 = plan.group_of_slot(k1);
            self.prefetch_group(pm, g1);
            if let Some(k2) = k2 {
                let g2 = plan.group_of_slot(k2);
                if g2 != g1 {
                    self.prefetch_group(pm, g2);
                }
            }
        }
        for &i in sel.indices() {
            let i = i as usize;
            let key = &keys[i];
            let (k1, k2) = slots[i];
            let g1 = plan.group_of_slot(k1);
            if let Some(v) = self.find_in_group(pm, &plan, g1, key) {
                out[i] = Some(v);
                continue;
            }
            if let Some(k2) = k2 {
                let g2 = plan.group_of_slot(k2);
                if g2 != g1 {
                    if let Some(v) = self.find_in_group(pm, &plan, g2, key) {
                        out[i] = Some(v);
                    }
                }
            }
        }
    }

    /// Whether `key` is present.
    pub fn contains<R: PmemRead>(&self, pm: &R, key: &K) -> bool {
        self.get(pm, key).is_some()
    }

    /// Prefetches the lines a level-1 probe of slot `k` touches: its
    /// occupancy word and its cell's key/value bytes.
    #[inline]
    fn prefetch_level1<R: PmemRead>(&self, pm: &R, k: u64) {
        pm.prefetch(self.store1.bitmap.word_off_of(k), 8);
        pm.prefetch(self.store1.cells.cell_off(k), self.store1.cells.entry_len());
    }

    /// Prefetches a contiguous group scan's cold start: the group's
    /// occupancy words (a random access no streamer predicts) plus the
    /// head of its cell range. Key-first views walk the cells in
    /// ascending line order — the pattern the hardware stream prefetcher
    /// locks onto after the first touches — so warming the head is
    /// enough; a software prefetch per line would pay the issue cost for
    /// lines the streamer covers free.
    fn prefetch_group<R: PmemRead>(&self, pm: &R, g: u64) {
        let start = g * self.config.group_size;
        let end = start + self.config.group_size;
        let bits_lo = self.store2.bitmap.word_off_of(start);
        let bits_hi = self.store2.bitmap.word_off_of(end - 1) + 8;
        pm.prefetch(bits_lo, bits_hi - bits_lo);
        let lo = self.store2.cells.cell_off(start);
        let span = self.store2.cells.cell_off(end - 1) + self.store2.cells.entry_len() - lo;
        pm.prefetch(lo, span.min(2 * 64));
    }

    #[inline]
    fn level1_holds<R: PmemRead>(&self, pm: &R, k: u64, key: &K) -> bool {
        self.store1.is_occupied(pm, k) && self.store1.read_key(pm, k) == *key
    }

    /// Reads a matched cell's value, then revalidates the match (bit
    /// still set, key still ours). `None` means a concurrent retract beat
    /// the read — the caller treats the cell as non-matching, which
    /// linearizes the lookup after the remove's commit.
    #[inline]
    fn read_hit<R: PmemRead>(
        &self,
        store: &CellStore<K, V>,
        pm: &R,
        idx: u64,
        key: &K,
    ) -> Option<V> {
        let v = store.read_value(pm, idx);
        (store.is_occupied(pm, idx) && store.read_key(pm, idx) == *key).then_some(v)
    }

    /// Scans group `g`'s level-2 cells for `key` and returns the
    /// revalidated value on a hit. A cell that matches but fails
    /// revalidation is skipped — the remover won; the rest of the group
    /// still gets scanned.
    fn find_in_group<R: PmemRead>(
        &self,
        pm: &R,
        plan: &GroupPlan,
        g: u64,
        key: &K,
    ) -> Option<V> {
        for i in 0..self.config.group_size {
            let idx = plan.cell(g, i);
            if self.store2.is_occupied(pm, idx) && self.store2.read_key(pm, idx) == *key {
                if let Some(v) = self.read_hit(&self.store2, pm, idx, key) {
                    return Some(v);
                }
            }
        }
        None
    }
}
