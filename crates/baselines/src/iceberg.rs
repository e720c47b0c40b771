//! Iceberg hashing — an IcebergHT-style stable, low-associativity scheme
//! (Pandey et al., PLDI 2023 lineage; see PAPERS.md).
//!
//! Three levels, all built from 8-cell buckets so each bucket owns exactly
//! one 8-lane DRAM fingerprint word ([`MetaWords`]):
//!
//! * **level 1** — wide primary buckets holding half the cells; one hash
//!   picks the bucket, the metadata word filters its 8 lanes with the SWAR
//!   matcher before any key bytes are read;
//! * **level 2** — a small array of *paired* backup buckets: two hashes
//!   name two candidates and an insert takes a lane in whichever is
//!   emptier (power-of-two-choices);
//! * **backyard** — the overflow chain: buckets probed linearly from a
//!   hashed home, wrapping.
//!
//! The defining property is **stability**: an entry never moves after its
//! insert. There is no displacement, no cascading eviction, no
//! backward-shift — so deletes are pure retracts (crash-safe bare, unlike
//! the displacement baselines), migration eviction has no special cases,
//! and the volatile tag words can never go stale in the way a moved entry
//! would make them.
//!
//! Crash consistency is inherited unchanged from the shared layers: every
//! committed write goes through [`CellStore`]'s publish/retract (or their
//! batch-staged forms), so the 8-byte occupancy-word flip remains the only
//! failure-atomic publish point and the pinned 3/3/2 single-op budget
//! holds. The metadata words are volatile and rebuilt from the bitmap +
//! keys on open/recover — they add zero persisted bytes.
//!
//! Ops-layer only: the level geometry is a pure
//! [`IcebergPlan`](nvm_table::probe::IcebergPlan) and the pmem-facing
//! choreography is the shared [`CellStore`] + [`Journal`] pair.

use nvm_hashfn::{HashKey, HashPair, Pod};
use nvm_metrics::SchemeInstrumentation;
use nvm_pmem::{Pmem, Region, RegionAllocator, CACHELINE};
use nvm_table::meta::MetaWords;
use nvm_table::probe::{match_bits, IcebergPlan, ICEBERG_LANES};
use nvm_table::{
    BatchError, BatchSession, CellArray, CellStore, ConsistencyMode, HashScheme, InsertError,
    Journal, MigrationSource, PmemBitmap, TableError, TableHeader,
};
use std::collections::HashMap;
use std::marker::PhantomData;

/// Magic word ("ICEBERG1").
const MAGIC: u64 = 0x4943_4542_4552_4731;

/// Undo-log capacity: an op touches one cell, one bitmap word, the count.
const LOG_RECORDS: usize = 16;

/// Whether probes consult the volatile per-bucket fingerprint words or
/// scan occupancy directly (the ablation axis, mirroring the group
/// scheme's fp-cache on/off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetaMode {
    /// Scan all 8 lanes of each candidate bucket via the occupancy bitmap.
    Off,
    /// SWAR-match the bucket's tag word first; read keys only on tag hit.
    #[default]
    On,
}

/// The iceberg table: level-1 + level-2 + backyard cells in one flat
/// store, with a volatile tag word per bucket.
#[derive(Debug)]
pub struct Iceberg<P: Pmem, K: HashKey, V: Pod> {
    plan: IcebergPlan,
    seed: u64,
    hash: HashPair,
    meta_mode: MetaMode,
    /// One 8-lane fingerprint word per bucket, all levels; rebuilt on
    /// open/recover, never persisted.
    meta: MetaWords,
    header: TableHeader,
    store: CellStore<K, V>,
    journal: Journal,
    /// Probe/occupancy/displacement recording (same schema as the other
    /// schemes; displacement is identically zero — stability).
    instr: SchemeInstrumentation,
    region: Region,
    _marker: PhantomData<fn(&mut P)>,
}

impl<P: Pmem, K: HashKey, V: Pod> Iceberg<P, K, V> {
    /// Splits a cell budget into `(l1, l2, backyard)` bucket counts with
    /// the level ratio 2:1:1 (half the cells in the wide level-1, a
    /// quarter in each of level-2 and the backyard). The budget is rounded
    /// down to a power of two so each level's bucket count is one as well.
    pub fn geometry_for(total_cells: u64) -> (u64, u64, u64) {
        assert!(total_cells >= 4 * ICEBERG_LANES, "table too small for iceberg");
        let t = if total_cells.is_power_of_two() {
            total_cells
        } else {
            total_cells.next_power_of_two() / 2
        };
        (t / (2 * ICEBERG_LANES), t / (4 * ICEBERG_LANES), t / (4 * ICEBERG_LANES))
    }

    fn total_cells(l1: u64, l2: u64, backyard: u64) -> u64 {
        (l1 + l2 + backyard) * ICEBERG_LANES
    }

    fn log_bytes() -> usize {
        nvm_wal::UndoLog::region_size(LOG_RECORDS, CellArray::<K, V>::CELL_SIZE.max(8))
    }

    fn layout(region: Region, total: u64) -> (Region, Region, Region, Region) {
        let mut alloc = RegionAllocator::new(region.off, region.end());
        let header = alloc.alloc_lines(TableHeader::SIZE);
        let bitmap = alloc.alloc_lines(PmemBitmap::region_size(total).max(8));
        let cells = alloc.alloc_lines(CellArray::<K, V>::region_size(total));
        let log = alloc.alloc_lines(Self::log_bytes());
        (header, bitmap, cells, log)
    }

    /// Pool bytes needed for the given geometry.
    pub fn required_size(l1: u64, l2: u64, backyard: u64) -> usize {
        let total = Self::total_cells(l1, l2, backyard);
        TableHeader::SIZE
            + PmemBitmap::region_size(total).max(8)
            + CellArray::<K, V>::region_size(total)
            + Self::log_bytes()
            + 4 * CACHELINE
    }

    fn assemble(
        region: Region,
        geo: (u64, u64, u64),
        seed: u64,
        meta_mode: MetaMode,
        journal: Journal,
        header: TableHeader,
    ) -> Self {
        let (l1, l2, backyard) = geo;
        let total = Self::total_cells(l1, l2, backyard);
        let (_, b, c, _) = Self::layout(region, total);
        Iceberg {
            plan: IcebergPlan::new(l1, l2, backyard),
            seed,
            hash: HashPair::from_seed(seed),
            meta_mode,
            meta: MetaWords::new(total),
            header,
            store: CellStore::attach(b, c, total),
            journal,
            instr: SchemeInstrumentation::new(3 * ICEBERG_LANES as usize),
            region,
            _marker: PhantomData,
        }
    }

    /// Creates a fresh iceberg table. `geo` is `(l1, l2, backyard)` bucket
    /// counts; each must be a non-zero power of two.
    pub fn create(
        pm: &mut P,
        region: Region,
        geo: (u64, u64, u64),
        seed: u64,
        mode: ConsistencyMode,
        meta_mode: MetaMode,
    ) -> Result<Self, TableError> {
        let (l1, l2, backyard) = geo;
        if !l1.is_power_of_two() || !l2.is_power_of_two() || !backyard.is_power_of_two() {
            return Err(TableError::Config(format!(
                "iceberg bucket counts {l1}/{l2}/{backyard} must all be powers of two"
            )));
        }
        if region.len < Self::required_size(l1, l2, backyard) {
            return Err(TableError::RegionTooSmall {
                have: region.len,
                need: Self::required_size(l1, l2, backyard),
            });
        }
        let total = Self::total_cells(l1, l2, backyard);
        let (h_r, b, c, log_r) = Self::layout(region, total);
        CellStore::<K, V>::create(pm, b, c, total);
        let journal = Journal::create(pm, mode, log_r);
        let mode_flag = matches!(mode, ConsistencyMode::UndoLog) as u64;
        let meta_flag = matches!(meta_mode, MetaMode::On) as u64;
        let header = TableHeader::create(
            pm,
            h_r,
            MAGIC,
            seed,
            &[l1, l2, backyard, mode_flag, meta_flag],
        );
        Ok(Self::assemble(region, geo, seed, meta_mode, journal, header))
    }

    /// Header location; see `LinearProbing::header_region` for why this
    /// bypasses `layout`.
    fn header_region(region: Region) -> Region {
        Region::new(nvm_pmem::align_up(region.off, CACHELINE), TableHeader::SIZE)
    }

    /// Re-opens an existing iceberg table and rebuilds the volatile tag
    /// words from the committed cells.
    pub fn open(pm: &mut P, region: Region) -> Result<Self, TableError> {
        let h_r = Self::header_region(region);
        if !region.contains(h_r.off, h_r.len) {
            return Err(TableError::Corrupt(
                "region too small for a table header".into(),
            ));
        }
        let header = TableHeader::open(pm, h_r, MAGIC)?;
        let l1 = header.geometry(pm, 0);
        let l2 = header.geometry(pm, 1);
        let backyard = header.geometry(pm, 2);
        if !l1.is_power_of_two()
            || !l2.is_power_of_two()
            || !backyard.is_power_of_two()
            || region.len < Self::required_size(l1, l2, backyard)
        {
            return Err(TableError::Corrupt(
                "persisted geometry does not fit the region".into(),
            ));
        }
        let mode = if header.geometry(pm, 3) == 1 {
            ConsistencyMode::UndoLog
        } else {
            ConsistencyMode::None
        };
        let meta_mode = if header.geometry(pm, 4) == 1 { MetaMode::On } else { MetaMode::Off };
        let seed = header.seed(pm);
        let total = Self::total_cells(l1, l2, backyard);
        let (_, _, _, log_r) = Self::layout(region, total);
        let journal = Journal::open(mode, log_r);
        let mut t =
            Self::assemble(region, (l1, l2, backyard), seed, meta_mode, journal, header);
        t.rebuild_meta(pm);
        Ok(t)
    }

    /// The persisted hash seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The pool region this table occupies.
    pub fn region(&self) -> Region {
        self.region
    }

    /// The metadata ablation knob this table was created with.
    pub fn meta_mode(&self) -> MetaMode {
        self.meta_mode
    }

    /// The fingerprint tag of a key (the high byte of the third hash
    /// stream — independent of the bits any level masks for addressing).
    #[inline]
    fn tag_of(&self, key: &K) -> u8 {
        (self.hash.h3(key) >> 56) as u8
    }

    /// Rescans the committed cells and rewrites every tag word (open and
    /// recovery epilogue). DRAM-only.
    fn rebuild_meta(&mut self, pm: &P) {
        self.meta.reset();
        for idx in 0..self.store.len() {
            if self.store.is_occupied(pm, idx) {
                let key = self.store.read_key(pm, idx);
                self.meta.set(idx, self.tag_of(&key));
            }
        }
    }

    /// Records a completed lookup probe walk.
    #[inline]
    fn note_probe(&self, cells: u64) {
        self.instr.record_probe(cells);
    }

    /// Records one insert: cells examined, occupied cells stepped over,
    /// and the displacement count — identically zero, which *is* the
    /// stability claim in the histograms.
    #[inline]
    fn note_insert(&self, probes: u64, occupied: u64) {
        self.instr.record_probe(probes);
        self.instr.record_occupancy(occupied);
        self.instr.record_displacement(0);
    }

    /// Scans one bucket for `key`, counting each cell whose key bytes are
    /// actually compared into `probes`. With [`MetaMode::On`] the bucket's
    /// tag word is SWAR-filtered first, so misses usually cost zero key
    /// reads.
    fn scan_bucket(&self, pm: &P, bucket: u64, tag: u8, key: &K, probes: &mut u64) -> Option<u64> {
        match self.meta_mode {
            MetaMode::On => {
                let mut mask = match_bits(self.meta.word(bucket), tag);
                while mask != 0 {
                    let lane = mask.trailing_zeros() as u64;
                    mask &= mask - 1;
                    let idx = self.plan.cell(bucket, lane);
                    *probes += 1;
                    if self.store.is_occupied(pm, idx) && self.store.read_key(pm, idx) == *key {
                        return Some(idx);
                    }
                }
                None
            }
            MetaMode::Off => {
                for idx in self.plan.bucket_cells(bucket) {
                    *probes += 1;
                    if self.store.is_occupied(pm, idx) && self.store.read_key(pm, idx) == *key {
                        return Some(idx);
                    }
                }
                None
            }
        }
    }

    /// Locates `key`: level-1 bucket, both level-2 candidates, then the
    /// backyard chain.
    fn find(&self, pm: &P, key: &K) -> Option<u64> {
        let (h1, h2, h3) = (self.hash.h1(key), self.hash.h2(key), self.hash.h3(key));
        let tag = self.tag_of(key);
        let mut probes = 0u64;
        let (a, b) = self.plan.l2_pair(h2, h3);
        for bucket in [self.plan.l1_bucket(h1), a, b] {
            if let Some(idx) = self.scan_bucket(pm, bucket, tag, key, &mut probes) {
                self.note_probe(probes);
                return Some(idx);
            }
        }
        for bucket in self.plan.backyard_sequence(h1) {
            if let Some(idx) = self.scan_bucket(pm, bucket, tag, key, &mut probes) {
                self.note_probe(probes);
                return Some(idx);
            }
        }
        self.note_probe(probes.max(1));
        None
    }

    /// First free lane of `bucket`, treating cells claimed by the
    /// in-flight batch session as occupied.
    fn free_lane_for(&self, pm: &P, sess: &BatchSession<K, V>, bucket: u64) -> Option<u64> {
        self.plan
            .bucket_cells(bucket)
            .find(|&idx| self.store.is_free_for(pm, sess, idx))
    }

    /// Free lanes of `bucket` under the same overlay (the
    /// power-of-two-choices load signal).
    fn free_lanes_in(&self, pm: &P, sess: &BatchSession<K, V>, bucket: u64) -> u64 {
        self.plan
            .bucket_cells(bucket)
            .filter(|&idx| self.store.is_free_for(pm, sess, idx))
            .count() as u64
    }

    /// Picks the resting cell for `key`: level-1 lane, else the emptier
    /// of the paired level-2 candidates, else the first backyard bucket
    /// with room. Returns `(idx, cells_examined, occupied_stepped_over)`;
    /// `None` means the table is full for this key. The choice never
    /// displaces a resident — stability.
    fn plan_slot(&self, pm: &P, sess: &BatchSession<K, V>, key: &K) -> Option<(u64, u64, u64)> {
        let (h1, h2, h3) = (self.hash.h1(key), self.hash.h2(key), self.hash.h3(key));
        let l1 = self.plan.l1_bucket(h1);
        if let Some(idx) = self.free_lane_for(pm, sess, l1) {
            let off = self.plan.lane_of_cell(idx);
            return Some((idx, off + 1, off));
        }
        let mut probes = ICEBERG_LANES;
        let mut occupied = ICEBERG_LANES;
        let (a, b) = self.plan.l2_pair(h2, h3);
        let (fa, fb) = (self.free_lanes_in(pm, sess, a), self.free_lanes_in(pm, sess, b));
        let pick = if fb > fa { b } else { a };
        probes += 2 * ICEBERG_LANES;
        occupied += 2 * ICEBERG_LANES - fa - fb;
        if let Some(idx) = self.free_lane_for(pm, sess, pick) {
            return Some((idx, probes, occupied));
        }
        for bucket in self.plan.backyard_sequence(h1) {
            if let Some(idx) = self.free_lane_for(pm, sess, bucket) {
                let off = self.plan.lane_of_cell(idx);
                return Some((idx, probes + off + 1, occupied + off));
            }
            probes += ICEBERG_LANES;
            occupied += ICEBERG_LANES;
        }
        None
    }

    /// Stages a publish of `(key, value)` into cell `idx` and splices the
    /// key's tag into its lane right away, as `GroupHash` does with its
    /// fingerprint cache. Safe because every iceberg write runs under
    /// `&mut self` (no reader can see the lane before the commit), slot
    /// planning reads only the bitmap and the session, and open/recover
    /// rebuild the lanes from the committed cells.
    fn stage_insert(
        &mut self,
        pm: &mut P,
        sess: &mut BatchSession<K, V>,
        idx: u64,
        key: &K,
        value: &V,
    ) {
        if sess.is_empty() {
            self.journal.begin(pm);
        }
        sess.stage_publish(pm, &mut self.journal, self.store, idx, key, value);
        self.meta.set(idx, self.tag_of(key));
    }

    /// Stages a retract of cell `idx` and clears its tag lane (same
    /// argument as [`Iceberg::stage_insert`]).
    fn stage_remove(&mut self, pm: &mut P, sess: &mut BatchSession<K, V>, idx: u64) {
        if sess.is_empty() {
            self.journal.begin(pm);
        }
        sess.stage_retract(pm, &mut self.journal, self.store, idx);
        self.meta.clear(idx);
    }

    /// Group-commits a chunk of staged publishes, bumping the count by the
    /// chunk size in the same commit.
    fn commit_insert_chunk(&mut self, pm: &mut P, sess: &mut BatchSession<K, V>) -> usize {
        let n = sess.staged();
        let count = self.header.count(pm) + n as u64;
        sess.commit(pm, &mut self.journal, Some((self.header.count_off(), count)));
        n
    }

    /// Group-commits a chunk of staged retracts, dropping the count by the
    /// chunk size in the same commit.
    fn commit_remove_chunk(&mut self, pm: &mut P, sess: &mut BatchSession<K, V>) -> usize {
        let n = sess.staged();
        let count = self.header.count(pm) - n as u64;
        sess.commit(pm, &mut self.journal, Some((self.header.count_off(), count)));
        n
    }
}

impl<P: Pmem, K: HashKey, V: Pod> HashScheme<P, K, V> for Iceberg<P, K, V> {
    fn name(&self) -> &'static str {
        match self.journal.mode() {
            ConsistencyMode::None => "iceberg",
            ConsistencyMode::UndoLog => "iceberg-L",
        }
    }

    fn instrumentation(&self) -> Option<&SchemeInstrumentation> {
        Some(&self.instr)
    }

    fn insert(&mut self, pm: &mut P, key: K, value: V) -> Result<(), InsertError> {
        // A one-element batch reproduces the single-op 3/3/2 trace; with
        // no displacement arm there is no other path to fall back to.
        self.insert_batch(pm, &[(key, value)]).map_err(|e| e.error)
    }

    /// Fence-coalesced batch insert. Because placement never displaces a
    /// resident, *every* key stages — there is no single-op fallback, so
    /// a full chunk always commits with K + 2 fences.
    fn insert_batch(&mut self, pm: &mut P, items: &[(K, V)]) -> Result<(), BatchError> {
        if items.is_empty() {
            return Ok(());
        }
        let per_op = [self.store.cells.entry_len(), 8];
        let chunk_cap = self.journal.ops_per_txn(&per_op, &[8]);
        let mut sess = BatchSession::new();
        let mut committed = 0usize;
        let mut failure = None;
        for (key, value) in items {
            let Some((idx, probes, occupied)) = self.plan_slot(pm, &sess, key) else {
                failure = Some(InsertError::TableFull);
                break;
            };
            self.note_insert(probes, occupied);
            self.stage_insert(pm, &mut sess, idx, key, value);
            if sess.staged() >= chunk_cap {
                committed += self.commit_insert_chunk(pm, &mut sess);
            }
        }
        if !sess.is_empty() {
            committed += self.commit_insert_chunk(pm, &mut sess);
        }
        match failure {
            Some(error) => Err(BatchError { committed, error }),
            None => Ok(()),
        }
    }

    fn get(&self, pm: &P, key: &K) -> Option<V> {
        self.find(pm, key).map(|idx| self.store.read_value(pm, idx))
    }

    fn remove(&mut self, pm: &mut P, key: &K) -> bool {
        self.remove_batch(pm, std::slice::from_ref(key)) == 1
    }

    /// Fence-coalesced batch remove: pure retracts (stability means no
    /// backward-shift or re-home), staged in batch order.
    fn remove_batch(&mut self, pm: &mut P, keys: &[K]) -> usize {
        if keys.is_empty() {
            return 0;
        }
        let per_op = [8, self.store.cells.entry_len()];
        let chunk_cap = self.journal.ops_per_txn(&per_op, &[8]);
        let mut sess = BatchSession::new();
        let mut removed = 0usize;
        for key in keys {
            let Some(idx) = self.find(pm, key) else {
                continue;
            };
            if sess.is_retracted(&self.store, idx) {
                continue; // duplicate key in the batch
            }
            self.stage_remove(pm, &mut sess, idx);
            if sess.staged() >= chunk_cap {
                removed += self.commit_remove_chunk(pm, &mut sess);
            }
        }
        if !sess.is_empty() {
            removed += self.commit_remove_chunk(pm, &mut sess);
        }
        removed
    }

    fn len(&self, pm: &P) -> u64 {
        self.header.count(pm)
    }

    fn capacity(&self) -> u64 {
        self.plan.total_cells()
    }

    fn recover(&mut self, pm: &mut P) {
        self.journal.recover(pm);
        let count = self.store.recover_cells(pm);
        self.header.set_count(pm, count);
        self.rebuild_meta(pm);
    }

    fn check_consistency(&self, pm: &P) -> Result<(), TableError> {
        let mut occupied = 0u64;
        let mut seen: HashMap<Vec<u8>, u64> = HashMap::new();
        for i in 0..self.capacity() {
            if !self.store.is_occupied(pm, i) {
                if !self.store.cells.is_zeroed(pm, i) {
                    return Err(TableError::Corrupt(format!("empty cell {i} not zeroed")));
                }
                continue;
            }
            occupied += 1;
            let key = self.store.read_key(pm, i);
            // Level membership: the key must be able to *reach* the cell
            // it rests in (stability means it was placed there directly).
            let (h1, h2, h3) = (self.hash.h1(&key), self.hash.h2(&key), self.hash.h3(&key));
            if !self.plan.cell_reachable(i, h1, h2, h3) {
                return Err(TableError::Corrupt(format!(
                    "cell {i} (level {}) unreachable for its key",
                    self.plan.level_of_cell(i)
                )));
            }
            // Tag coherence: the volatile lane must carry the key's tag
            // (false positives are allowed, false negatives are not).
            if self.meta.tag(i) != self.tag_of(&key) {
                return Err(TableError::Corrupt(format!(
                    "cell {i}: tag lane {:#x} != key tag {:#x}",
                    self.meta.tag(i),
                    self.tag_of(&key)
                )));
            }
            let mut kb = vec![0u8; K::SIZE];
            key.write_to(&mut kb);
            if let Some(prev) = seen.insert(kb, i) {
                return Err(TableError::Corrupt(format!(
                    "duplicate key in cells {prev} and {i}"
                )));
            }
        }
        let count = self.len(pm);
        if count != occupied {
            return Err(TableError::Corrupt(format!(
                "count {count} != occupied {occupied}"
            )));
        }
        Ok(())
    }
}

/// The drainer's view: stability makes this trivial — occupancy is
/// position-independent across all three levels and eviction is the
/// scheme's ordinary retract, so there are no displacement special cases.
impl<P: Pmem, K: HashKey, V: Pod> MigrationSource<P, K, V> for Iceberg<P, K, V> {
    fn migration_cells(&self) -> u64 {
        self.plan.total_cells()
    }

    fn entry_at(&self, pm: &P, i: u64) -> Option<(K, V)> {
        self.store
            .is_occupied(pm, i)
            .then(|| (self.store.read_key(pm, i), self.store.read_value(pm, i)))
    }

    fn evict_cell(&mut self, pm: &mut P, i: u64) -> bool {
        if !self.store.is_occupied(pm, i) {
            return false;
        }
        let mut sess = BatchSession::new();
        self.stage_remove(pm, &mut sess, i);
        self.commit_remove_chunk(pm, &mut sess);
        true
    }

    fn migration_cursor(&self, pm: &P) -> u64 {
        self.header.migration_cursor(pm)
    }

    fn set_migration_cursor(&mut self, pm: &mut P, cursor: u64) {
        self.header.set_migration_cursor(pm, cursor);
    }

    fn migration_active(&self, pm: &P) -> bool {
        self.header.migration_active(pm)
    }

    fn set_migration_active(&mut self, pm: &mut P, active: bool) {
        self.header.set_migration_active(pm, active);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_pmem::{SimConfig, SimPmem};

    fn make(
        total_cells: u64,
        mode: ConsistencyMode,
        meta: MetaMode,
    ) -> (SimPmem, Iceberg<SimPmem, u64, u64>) {
        let geo = Iceberg::<SimPmem, u64, u64>::geometry_for(total_cells);
        let size = Iceberg::<SimPmem, u64, u64>::required_size(geo.0, geo.1, geo.2);
        let mut pm = SimPmem::new(size, SimConfig::fast_test());
        let t = Iceberg::create(&mut pm, Region::new(0, size), geo, 3, mode, meta).unwrap();
        (pm, t)
    }

    #[test]
    fn roundtrip_all_mode_combinations() {
        for mode in [ConsistencyMode::None, ConsistencyMode::UndoLog] {
            for meta in [MetaMode::Off, MetaMode::On] {
                let (mut pm, mut t) = make(256, mode, meta);
                for k in 0..180u64 {
                    t.insert(&mut pm, k, k + 1).unwrap();
                }
                for k in 0..180u64 {
                    assert_eq!(t.get(&pm, &k), Some(k + 1), "{mode:?}/{meta:?}");
                }
                for k in 0..90u64 {
                    assert!(t.remove(&mut pm, &k));
                }
                assert_eq!(t.len(&pm), 90);
                t.check_consistency(&pm).unwrap();
            }
        }
    }

    #[test]
    fn geometry_for_splits_two_one_one() {
        let (l1, l2, by) = Iceberg::<SimPmem, u64, u64>::geometry_for(1 << 12);
        assert_eq!((l1, l2, by), (256, 128, 128));
        assert_eq!(Iceberg::<SimPmem, u64, u64>::total_cells(l1, l2, by), 1 << 12);
        // Non-power-of-two budgets round down to a power of two.
        let (l1, l2, by) = Iceberg::<SimPmem, u64, u64>::geometry_for(5000);
        assert_eq!(Iceberg::<SimPmem, u64, u64>::total_cells(l1, l2, by), 4096);
    }

    /// The pinned persistence budget: single insert/remove = 3 flushes /
    /// 3 fences / 2 atomic writes, query = 0/0/0 — identical to every
    /// other scheme, tag words being DRAM-only.
    #[test]
    fn pinned_single_op_budgets() {
        let (mut pm, mut t) = make(256, ConsistencyMode::None, MetaMode::On);
        t.insert(&mut pm, 1, 10).unwrap();
        pm.reset_stats();
        t.insert(&mut pm, 2, 20).unwrap();
        let st = pm.stats();
        assert_eq!((st.flushes, st.fences, st.atomic_writes), (3, 3, 2));
        pm.reset_stats();
        assert_eq!(t.get(&pm, &2), Some(20));
        assert_eq!(t.get(&pm, &99), None);
        let st = pm.stats();
        assert_eq!((st.flushes, st.fences, st.atomic_writes), (0, 0, 0));
        pm.reset_stats();
        assert!(t.remove(&mut pm, &2));
        let st = pm.stats();
        assert_eq!((st.flushes, st.fences, st.atomic_writes), (3, 3, 2));
    }

    /// Stability: once inserted, an entry's cell never changes — across
    /// further inserts to saturation and interleaved removes.
    #[test]
    fn entries_never_move_after_insert() {
        let (mut pm, mut t) = make(256, ConsistencyMode::None, MetaMode::On);
        let mut homes: Vec<(u64, u64)> = Vec::new();
        let mut k = 0u64;
        while t.insert(&mut pm, k, k * 3).is_ok() {
            homes.push((k, t.find(&pm, &k).unwrap()));
            k += 1;
        }
        // Every previously recorded home is still the entry's cell.
        for &(key, idx) in &homes {
            assert_eq!(t.find(&pm, &key), Some(idx), "key {key} moved");
        }
        // Removes punch holes; survivors still must not move.
        for key in (0..k).step_by(3) {
            assert!(t.remove(&mut pm, &key));
        }
        for &(key, idx) in homes.iter().filter(|(key, _)| key % 3 != 0) {
            assert_eq!(t.find(&pm, &key), Some(idx), "key {key} moved after removes");
        }
        t.check_consistency(&pm).unwrap();
    }

    #[test]
    fn fills_through_all_three_levels() {
        let (mut pm, mut t) = make(128, ConsistencyMode::None, MetaMode::On);
        let mut k = 0u64;
        let mut stored = vec![];
        while t.insert(&mut pm, k, k).is_ok() {
            stored.push(k);
            k += 1;
        }
        // Full means the key's backyard chain was exhausted — by then the
        // whole backyard level is occupied and the fill is deep.
        assert!(stored.len() as u64 >= t.capacity() / 2, "{} stored", stored.len());
        let mut level_seen = [false; 3];
        for &key in &stored {
            let idx = t.find(&pm, &key).unwrap();
            level_seen[t.plan.level_of_cell(idx) as usize] = true;
            assert_eq!(t.get(&pm, &key), Some(key));
        }
        assert_eq!(level_seen, [true; 3], "all three levels in use");
        t.check_consistency(&pm).unwrap();
    }

    #[test]
    fn reopen_rebuilds_meta_words() {
        let (mut pm, mut t) = make(256, ConsistencyMode::None, MetaMode::On);
        for k in 0..60u64 {
            t.insert(&mut pm, k, k + 5).unwrap();
        }
        let geo = Iceberg::<SimPmem, u64, u64>::geometry_for(256);
        let size = Iceberg::<SimPmem, u64, u64>::required_size(geo.0, geo.1, geo.2);
        let t2 = Iceberg::<SimPmem, u64, u64>::open(&mut pm, Region::new(0, size)).unwrap();
        assert_eq!(t2.len(&pm), 60);
        assert_eq!(t2.name(), "iceberg");
        assert_eq!(t2.meta_mode(), MetaMode::On);
        for k in 0..60u64 {
            assert_eq!(t2.get(&pm, &k), Some(k + 5));
        }
        t2.check_consistency(&pm).unwrap();
    }

    #[test]
    fn batch_insert_coalesces_fences() {
        let (mut pm, mut t) = make(256, ConsistencyMode::None, MetaMode::On);
        let items: Vec<(u64, u64)> = (0..8u64).map(|k| (k, k * 2)).collect();
        pm.reset_stats();
        t.insert_batch(&mut pm, &items).unwrap();
        let st = pm.stats();
        // One chunk: K + 2 fences (no single-op fallback exists).
        assert_eq!(st.fences, 8 + 2);
        assert_eq!(st.flushes, 2 * 8 + 1);
        for (k, v) in items {
            assert_eq!(t.get(&pm, &k), Some(v));
        }
    }

    /// Tags splice at stage time, so an insert batch cut short by a full
    /// table and a remove batch that names keys twice must both leave
    /// every tag lane coherent with its committed cell (which
    /// `check_consistency` verifies), at the pinned K + 2 fences.
    #[test]
    fn staged_tags_stay_coherent_across_partial_and_duplicate_batches() {
        for meta in [MetaMode::Off, MetaMode::On] {
            let (mut pm, mut t) = make(128, ConsistencyMode::None, meta);
            let items: Vec<(u64, u64)> = (0..1000u64).map(|k| (k, k + 7)).collect();
            pm.reset_stats();
            let err = t.insert_batch(&mut pm, &items).unwrap_err();
            assert_eq!(err.error, InsertError::TableFull, "{meta:?}");
            let k = err.committed as u64;
            assert!(k > 0 && k < 1000, "{meta:?}: {k} committed");
            let st = pm.stats();
            assert_eq!((st.flushes, st.fences, st.atomic_writes), (2 * k + 1, k + 2, k + 1));
            assert_eq!(t.len(&pm), k);
            t.check_consistency(&pm).unwrap();
            assert_eq!(t.get(&pm, &(k - 1)), Some(k + 6));
            assert_eq!(t.get(&pm, &k), None, "{meta:?}: the refused key is absent");

            pm.reset_stats();
            let removed = t.remove_batch(&mut pm, &[0, 1, 0, 2, 5000, 1]);
            assert_eq!(removed, 3, "{meta:?}");
            let st = pm.stats();
            assert_eq!((st.flushes, st.fences, st.atomic_writes), (7, 5, 4));
            t.check_consistency(&pm).unwrap();
            for key in 0..3u64 {
                assert_eq!(t.get(&pm, &key), None, "{meta:?}: key {key}");
            }
            assert_eq!(t.get(&pm, &3), Some(10));

            // The freed lanes take single ops at the pinned 3/3/2.
            pm.reset_stats();
            t.insert(&mut pm, 0, 99).unwrap();
            let st = pm.stats();
            assert_eq!((st.flushes, st.fences, st.atomic_writes), (3, 3, 2));
            pm.reset_stats();
            assert!(t.remove(&mut pm, &3));
            let st = pm.stats();
            assert_eq!((st.flushes, st.fences, st.atomic_writes), (3, 3, 2));
            t.check_consistency(&pm).unwrap();
        }
    }
}
