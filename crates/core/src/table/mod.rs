//! The group hash table, split along the workspace's three layers:
//!
//! * [`probe`] — pure candidate-slot/group planning (no pool I/O);
//! * [`store`] — the persistence choreography: how Algorithms 1 and 3
//!   commit through the shared [`CellStore`] + [`Journal`];
//! * [`ops`] — Algorithms 1–4 themselves, composing the two.
//!
//! This file owns the persistent layout (header/bitmaps/cells/log
//! carving), construction (`create`/`open`), and the read-side accessors;
//! the algorithmic policy lives in the submodules.

mod migration;
mod ops;
mod probe;
mod readview;
mod store;
#[cfg(test)]
mod tests;

pub use readview::GroupReadView;

use crate::config::{CommitStrategy, FpMode, GroupHashConfig};
use crate::fpcache::FpCache;
use nvm_hashfn::{HashKey, HashPair, Pod};
use nvm_metrics::SchemeInstrumentation;
use nvm_pmem::{Pmem, Region, RegionAllocator, CACHELINE};
use nvm_table::probe::GroupPlan;
use nvm_table::{
    BatchError, CellArray, CellStore, ConsistencyMode, HashScheme, InsertError, Journal,
    PmemBitmap, TableError, TableHeader,
};
use std::marker::PhantomData;

/// Magic word identifying a group-hash header ("GRPHASH1").
const MAGIC: u64 = 0x4752_5048_4153_4831;

/// Reserved undo-log footprint (used only by the forced-logging ablation,
/// but always carved so the layout is config-independent).
const LOG_BYTES: usize = 1024;

/// Which level a cell index refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    One,
    Two,
}

impl Level {
    /// The [`FpCache`] array index for this level.
    #[inline]
    fn idx(self) -> usize {
        match self {
            Level::One => 0,
            Level::Two => 1,
        }
    }
}

/// The journal mode implied by the commit-strategy ablation knob.
fn consistency_of(commit: CommitStrategy) -> ConsistencyMode {
    match commit {
        CommitStrategy::AtomicBitmap => ConsistencyMode::None,
        CommitStrategy::UndoLog => ConsistencyMode::UndoLog,
    }
}

/// The paper's hash table. See the crate docs for the design; all
/// persistent state lives in the pool region handed to
/// [`GroupHash::create`], and [`GroupHash::open`] reconstructs the table
/// from that region alone.
#[derive(Debug)]
pub struct GroupHash<P: Pmem, K: HashKey, V: Pod> {
    config: GroupHashConfig,
    hash: HashPair,
    header: TableHeader,
    /// Level-1 cells (the direct-mapped slots).
    store1: CellStore<K, V>,
    /// Level-2 cells (the shared groups).
    store2: CellStore<K, V>,
    /// The one place [`ConsistencyMode`] applies: a no-op under the
    /// paper's atomic-bitmap commit, an undo log under the ablation.
    journal: Journal,
    /// DRAM-resident fingerprint tags for [`FpMode::On`]; never persisted,
    /// rebuilt from bitmaps + cells on `open`/`recover`.
    fp: Option<FpCache>,
    /// Probe/occupancy/displacement recording. Derived purely from
    /// arithmetic the operations already do — recording never touches the
    /// pool, so recording leaves `PmemStats` unchanged.
    instr: SchemeInstrumentation,
    region: Region,
    _marker: PhantomData<fn(&mut P)>,
}

impl<P: Pmem, K: HashKey, V: Pod> GroupHash<P, K, V> {
    /// Carves `region` into the table's sub-regions. Deterministic, so
    /// `open` can redo it from persisted geometry.
    fn layout(
        region: Region,
        n: u64,
    ) -> (Region, Region, Region, Region, Region, Region) {
        let mut alloc = RegionAllocator::new(region.off, region.end());
        let header = alloc.alloc_lines(TableHeader::SIZE);
        let bitmap1 = alloc.alloc_lines(PmemBitmap::region_size(n).max(8));
        let bitmap2 = alloc.alloc_lines(PmemBitmap::region_size(n).max(8));
        let cells1 = alloc.alloc_lines(CellArray::<K, V>::region_size(n));
        let cells2 = alloc.alloc_lines(CellArray::<K, V>::region_size(n));
        let log = alloc.alloc_lines(LOG_BYTES);
        (header, bitmap1, bitmap2, cells1, cells2, log)
    }

    /// Pool bytes needed for a table with this configuration.
    pub fn required_size(config: &GroupHashConfig) -> usize {
        let n = config.cells_per_level;
        TableHeader::SIZE
            + 2 * (PmemBitmap::region_size(n).max(8) + CACHELINE)
            + 2 * (CellArray::<K, V>::region_size(n) + CACHELINE)
            + LOG_BYTES
            + 2 * CACHELINE
    }

    fn assemble(region: Region, config: GroupHashConfig, header: TableHeader) -> Self {
        let n = config.cells_per_level;
        let (_, b1, b2, c1, c2, log_r) = Self::layout(region, n);
        GroupHash {
            config,
            hash: HashPair::from_seed(config.seed),
            header,
            store1: CellStore::attach(b1, c1, n),
            store2: CellStore::attach(b2, c2, n),
            journal: Journal::open(consistency_of(config.commit), log_r),
            fp: (config.fp == FpMode::On).then(|| FpCache::new(n)),
            instr: SchemeInstrumentation::new(config.group_size as usize),
            region,
            _marker: PhantomData,
        }
    }

    /// Records a completed lookup-style probe sequence.
    #[inline]
    fn note_probe(&self, cells: u64) {
        self.instr.record_probe(cells);
    }

    /// Records one insert attempt: cells examined, occupied cells stepped
    /// over before placement, and the scheme's displacement count (always
    /// 0 — group hashing never relocates entries).
    #[inline]
    fn note_insert(&self, probes: u64, occupied: u64) {
        self.instr.record_probe(probes);
        self.instr.record_occupancy(occupied);
        self.instr.record_displacement(0);
    }

    /// Records one completed batch entry point: ops committed and the
    /// pmem fences/flushes its body spent. Single ops route through a
    /// one-element batch and count here too.
    #[inline]
    fn note_batch(&self, ops: u64, fences: u64, flushes: u64) {
        self.instr.batch.record(ops, fences, flushes);
    }

    /// Records key loads issued from the pool by a lookup-style probe
    /// (recorded in both fingerprint modes, so filtered and unfiltered
    /// runs report the probe path's NVM traffic in the same counter).
    #[inline]
    fn note_key_reads(&self, n: u64) {
        self.instr.fingerprint.key_reads.add(n);
    }

    /// Records fingerprint-filter outcomes: occupied cells skipped on a
    /// tag mismatch, tag matches whose key compared unequal, and tag
    /// matches confirmed by the key bytes.
    #[inline]
    fn note_fp(&self, skips: u64, false_positives: u64, hits: u64) {
        self.instr.fingerprint.skips.add(skips);
        self.instr.fingerprint.false_positives.add(false_positives);
        self.instr.fingerprint.hits.add(hits);
    }

    /// Creates and initializes a fresh table in `region`.
    pub fn create(
        pm: &mut P,
        region: Region,
        config: GroupHashConfig,
    ) -> Result<Self, TableError> {
        config.validate()?;
        let need = Self::required_size(&config);
        if region.len < need {
            return Err(TableError::RegionTooSmall { have: region.len, need });
        }
        let n = config.cells_per_level;
        let (h_r, b1, b2, c1, c2, log_r) = Self::layout(region, n);
        // Cells are left as-is: the bitmap decides occupancy, and recovery
        // only trusts cells whose bit is set.
        CellStore::<K, V>::create(pm, b1, c1, n);
        CellStore::<K, V>::create(pm, b2, c2, n);
        Journal::create(pm, consistency_of(config.commit), log_r);
        let header = TableHeader::create(
            pm,
            h_r,
            MAGIC,
            config.seed,
            &[n, config.group_size, K::SIZE as u64, V::SIZE as u64, config.flags()],
        );
        Ok(Self::assemble(region, config, header))
    }

    /// Header location (first allocation of `layout`), computable without
    /// the geometry — `open` must validate the header before running the
    /// full layout, or a bogus region would panic instead of erroring.
    fn header_region(region: Region) -> Region {
        Region::new(
            nvm_pmem::align_up(region.off, CACHELINE),
            TableHeader::SIZE,
        )
    }

    /// Re-opens a table previously created in `region` (e.g. after a
    /// crash). Call [`GroupHash::recover`] before using it.
    pub fn open(pm: &mut P, region: Region) -> Result<Self, TableError> {
        let h_r = Self::header_region(region);
        if !region.contains(h_r.off, h_r.len) {
            return Err(TableError::Corrupt(
                "region too small for a table header".into(),
            ));
        }
        let header = TableHeader::open(pm, h_r, MAGIC)?;
        let n = header.geometry(pm, 0);
        let group_size = header.geometry(pm, 1);
        let key_size = header.geometry(pm, 2);
        let value_size = header.geometry(pm, 3);
        let flags = header.geometry(pm, 4);
        if key_size != K::SIZE as u64 || value_size != V::SIZE as u64 {
            return Err(TableError::TypeMismatch {
                persisted_key: key_size,
                persisted_value: value_size,
                requested_key: K::SIZE,
                requested_value: V::SIZE,
            });
        }
        let seed = header.seed(pm);
        let config = GroupHashConfig::from_persisted(n, group_size, seed, flags)?;
        config.validate()?;
        if region.len < Self::required_size(&config) {
            return Err(TableError::Corrupt(
                "region smaller than persisted geometry requires".into(),
            ));
        }
        let mut t = Self::assemble(region, config, header);
        t.rebuild_fp_cache(pm);
        Ok(t)
    }

    /// The configuration (as persisted).
    pub fn config(&self) -> &GroupHashConfig {
        &self.config
    }

    /// The pool region this table occupies.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Level-1 slot for `key` (the paper's `k = h(key)`).
    #[inline]
    pub fn slot_of(&self, key: &K) -> u64 {
        probe::slot_of(&self.hash, &self.config, key)
    }

    /// Second candidate slot under [`ChoiceMode::TwoChoice`]; `None` in the
    /// paper's single-hash design or when both hashes coincide.
    ///
    /// [`ChoiceMode::TwoChoice`]: crate::config::ChoiceMode::TwoChoice
    #[inline]
    pub fn slot2_of(&self, key: &K) -> Option<u64> {
        probe::slot2_of(&self.hash, &self.config, key)
    }

    /// The volatile fingerprint tag for `key`: the low byte of the third
    /// hash stream, independent of the placement hashes.
    #[inline]
    pub fn fp_tag(&self, key: &K) -> u8 {
        probe::fp_tag(&self.hash, key)
    }

    /// The level-2 geometry as a pure probe plan.
    #[inline]
    pub(crate) fn plan(&self) -> GroupPlan {
        probe::plan(&self.config)
    }

    /// Group number of level-1 slot `k`.
    #[inline]
    fn group_of(&self, k: u64) -> u64 {
        self.plan().group_of_slot(k)
    }

    /// Group that owns level-2 cell `idx`.
    #[inline]
    fn group_of_l2(&self, idx: u64) -> u64 {
        self.plan().group_of_cell(idx)
    }

    /// The cell store of a level.
    fn level_store(&self, level: Level) -> CellStore<K, V> {
        match level {
            Level::One => self.store1,
            Level::Two => self.store2,
        }
    }

    /// Occupied cells.
    pub fn len(&self, pm: &P) -> u64 {
        self.header.count(pm)
    }

    /// True when no cell is occupied.
    pub fn is_empty(&self, pm: &P) -> bool {
        self.len(pm) == 0
    }

    /// Total cells across both levels.
    pub fn capacity(&self) -> u64 {
        2 * self.config.cells_per_level
    }

    /// Captures a [`GroupReadView`]: a `Copy`-able, read-only probe
    /// machine over this table's cells that answers `get` through any
    /// [`PmemRead`](nvm_pmem::PmemRead) handle. The view holds layout
    /// only (no pool bytes), so it stays valid across mutations of the
    /// owning table; concurrent readers must pair it with a validation
    /// protocol (see `ShardedGroupHash`).
    pub fn read_view(&self) -> GroupReadView<K, V> {
        GroupReadView::new(self.config, self.hash, self.store1, self.store2)
    }

    /// Visits every stored `(key, value)` pair. Level 1 first, then level
    /// 2, each in index order.
    pub fn for_each_entry(&self, pm: &P, mut f: impl FnMut(K, V)) {
        let n = self.config.cells_per_level;
        for level in [Level::One, Level::Two] {
            let store = self.level_store(level);
            for i in 0..n {
                if store.is_occupied(pm, i) {
                    f(store.read_key(pm, i), store.read_value(pm, i));
                }
            }
        }
    }

    // ---- crate-internal accessors for analysis/expansion ----

    pub(crate) fn parts(
        &self,
    ) -> (
        &GroupHashConfig,
        PmemBitmap,
        PmemBitmap,
        CellArray<K, V>,
        CellArray<K, V>,
    ) {
        (
            &self.config,
            self.store1.bitmap,
            self.store2.bitmap,
            self.store1.cells,
            self.store2.cells,
        )
    }

    pub(crate) fn group_of_l2_cell(&self, idx: u64) -> u64 {
        self.group_of_l2(idx)
    }

    /// Detaches the fingerprint cache so bulk operations can update tags
    /// while iterating with `&self` accessors (NLL-friendly); pair with
    /// [`GroupHash::put_fp`].
    pub(crate) fn take_fp(&mut self) -> Option<FpCache> {
        self.fp.take()
    }

    pub(crate) fn put_fp(&mut self, fp: Option<FpCache>) {
        self.fp = fp;
    }
}

impl<P: Pmem, K: HashKey, V: Pod> HashScheme<P, K, V> for GroupHash<P, K, V> {
    fn name(&self) -> &'static str {
        "group"
    }

    fn insert(&mut self, pm: &mut P, key: K, value: V) -> Result<(), InsertError> {
        GroupHash::insert(self, pm, key, value)
    }

    fn get(&self, pm: &P, key: &K) -> Option<V> {
        GroupHash::get(self, pm, key)
    }

    fn get_batch(&self, pm: &P, keys: &[K]) -> Vec<Option<V>> {
        GroupHash::get_batch(self, pm, keys)
    }

    fn remove(&mut self, pm: &mut P, key: &K) -> bool {
        GroupHash::remove(self, pm, key)
    }

    fn insert_batch(&mut self, pm: &mut P, items: &[(K, V)]) -> Result<(), BatchError> {
        GroupHash::insert_batch(self, pm, items)
    }

    fn remove_batch(&mut self, pm: &mut P, keys: &[K]) -> usize {
        GroupHash::remove_batch(self, pm, keys)
    }

    fn len(&self, pm: &P) -> u64 {
        GroupHash::len(self, pm)
    }

    fn capacity(&self) -> u64 {
        GroupHash::capacity(self)
    }

    fn recover(&mut self, pm: &mut P) {
        GroupHash::recover(self, pm)
    }

    fn check_consistency(&self, pm: &P) -> Result<(), TableError> {
        crate::analysis::check_consistency(self, pm)
    }

    fn instrumentation(&self) -> Option<&SchemeInstrumentation> {
        Some(&self.instr)
    }
}
