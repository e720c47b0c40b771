//! Path hashing (Zuo & Hua, MSST 2017).
//!
//! Storage cells form an *inverted complete binary tree*: the leaf level
//! has `2^n` cells and each deeper level halves (level *i* has `2^(n-i)`
//! cells). Two hash functions map a key to two leaf positions; the key may
//! be stored in any cell on the two root-ward paths (leaf `k` passes
//! through node `k >> i` at level *i*). *Position sharing* means those
//! path cells are shared among many keys, so no extra writes are needed on
//! collisions. *Path shortening* keeps only the top `reserved_levels`
//! levels (the paper uses 20).
//!
//! The locality profile is the foil for group hashing: consecutive path
//! cells live in different level arrays, megabytes apart, so every probe
//! step is a fresh cacheline — more L3 misses, higher latency.
//!
//! Ops-layer only: the tree geometry is a pure
//! [`PathPlan`](nvm_table::probe::PathPlan) and every committed write goes
//! through the shared [`CellStore`] + [`Journal`] primitives.

use nvm_hashfn::{HashKey, HashPair, Pod};
use nvm_metrics::SchemeInstrumentation;
use nvm_pmem::{Pmem, Region, RegionAllocator, CACHELINE};
use nvm_table::probe::PathPlan;
use nvm_table::{
    BatchError, BatchSession, CellArray, CellStore, ConsistencyMode, HashScheme, InsertError,
    Journal, MigrationSource, PmemBitmap, TableError, TableHeader,
};
use std::collections::HashMap;
use std::marker::PhantomData;

/// Magic word ("PATHHSH1").
const MAGIC: u64 = 0x5041_5448_4853_4831;

/// The paper's reserved-level default.
pub const DEFAULT_RESERVED_LEVELS: u32 = 20;

/// Undo-log capacity (single-cell updates + bitmap + count).
const LOG_RECORDS: usize = 8;

/// A path hash table over a pmem pool.
#[derive(Debug)]
pub struct PathHash<P: Pmem, K: HashKey, V: Pod> {
    /// Inverted-tree geometry (level bases, paths, on-path checks).
    plan: PathPlan,
    seed: u64,
    hash: HashPair,
    header: TableHeader,
    /// Occupancy + cells over the concatenated level arrays (level 0 —
    /// the leaves — first).
    store: CellStore<K, V>,
    journal: Journal,
    /// Probe/occupancy/displacement recording (same schema as group
    /// hashing). Pure DRAM arithmetic; never touches the pool.
    instr: SchemeInstrumentation,
    region: Region,
    _marker: PhantomData<fn(&mut P)>,
}

impl<P: Pmem, K: HashKey, V: Pod> PathHash<P, K, V> {
    /// Cells in a table with `leaf_bits` and `levels`.
    pub fn cell_count(leaf_bits: u32, levels: u32) -> u64 {
        PathPlan::cell_count(leaf_bits as u64, levels as u64)
    }

    /// Picks `(leaf_bits, levels)` whose cell count best fits (≤) a total
    /// budget, with the paper's reserved-level default.
    pub fn geometry_for(total_cells: u64) -> (u32, u32) {
        assert!(total_cells >= 3, "table too small for path hashing");
        let mut leaf_bits = 1;
        while Self::cell_count(leaf_bits + 1, DEFAULT_RESERVED_LEVELS) <= total_cells {
            leaf_bits += 1;
        }
        (leaf_bits, DEFAULT_RESERVED_LEVELS.min(leaf_bits + 1))
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
    pub fn required_size(leaf_bits: u32, levels: u32) -> usize {
        let total = Self::cell_count(leaf_bits, levels);
        TableHeader::SIZE
            + PmemBitmap::region_size(total).max(8)
            + CellArray::<K, V>::region_size(total)
            + Self::log_bytes()
            + 4 * CACHELINE
    }

    fn assemble(
        region: Region,
        leaf_bits: u32,
        levels: u32,
        seed: u64,
        journal: Journal,
        header: TableHeader,
    ) -> Self {
        let plan = PathPlan::new(leaf_bits as u64, levels as u64);
        let total = plan.total_cells();
        let (_, b, c, _) = Self::layout(region, total);
        PathHash {
            plan,
            seed,
            hash: HashPair::from_seed(seed),
            header,
            store: CellStore::attach(b, c, total),
            journal,
            instr: SchemeInstrumentation::new(16),
            region,
            _marker: PhantomData,
        }
    }

    /// Creates a fresh path hash table.
    pub fn create(
        pm: &mut P,
        region: Region,
        leaf_bits: u32,
        levels: u32,
        seed: u64,
        mode: ConsistencyMode,
    ) -> Result<Self, TableError> {
        if leaf_bits == 0 || leaf_bits > 40 {
            return Err(TableError::Config(format!("bad leaf_bits {leaf_bits}")));
        }
        if levels == 0 {
            return Err(TableError::Config("need at least one level".into()));
        }
        if region.len < Self::required_size(leaf_bits, levels.min(leaf_bits + 1)) {
            return Err(TableError::RegionTooSmall {
                have: region.len,
                need: Self::required_size(leaf_bits, levels.min(leaf_bits + 1)),
            });
        }
        let levels = levels.min(leaf_bits + 1);
        let total = Self::cell_count(leaf_bits, levels);
        let (h_r, b, c, log_r) = Self::layout(region, total);
        CellStore::<K, V>::create(pm, b, c, total);
        let journal = Journal::create(pm, mode, log_r);
        let mode_flag = matches!(mode, ConsistencyMode::UndoLog) as u64;
        let header = TableHeader::create(
            pm,
            h_r,
            MAGIC,
            seed,
            &[leaf_bits as u64, levels as u64, mode_flag],
        );
        Ok(Self::assemble(region, leaf_bits, levels, seed, journal, header))
    }

    /// Header location; see `LinearProbing::header_region` for why this
    /// bypasses `layout`.
    fn header_region(region: Region) -> Region {
        Region::new(nvm_pmem::align_up(region.off, CACHELINE), TableHeader::SIZE)
    }

    /// Re-opens an existing table.
    pub fn open(pm: &mut P, region: Region) -> Result<Self, TableError> {
        let h_r = Self::header_region(region);
        if !region.contains(h_r.off, h_r.len) {
            return Err(TableError::Corrupt(
                "region too small for a table header".into(),
            ));
        }
        let header = TableHeader::open(pm, h_r, MAGIC)?;
        let leaf_bits = header.geometry(pm, 0) as u32;
        let levels = header.geometry(pm, 1) as u32;
        if leaf_bits == 0
            || leaf_bits > 40
            || levels == 0
            || region.len < Self::required_size(leaf_bits, levels.min(leaf_bits + 1))
        {
            return Err(TableError::Corrupt(
                "persisted geometry does not fit the region".into(),
            ));
        }
        let mode = if header.geometry(pm, 2) == 1 {
            ConsistencyMode::UndoLog
        } else {
            ConsistencyMode::None
        };
        let seed = header.seed(pm);
        let total = Self::cell_count(leaf_bits, levels);
        let (_, _, _, log_r) = Self::layout(region, total);
        let journal = Journal::open(mode, log_r);
        Ok(Self::assemble(region, leaf_bits, levels, seed, journal, header))
    }

    /// The persisted hash seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The pool region this table occupies.
    pub fn region(&self) -> Region {
        self.region
    }

    /// The two leaf positions of `key`.
    #[inline]
    fn leaves_of(&self, key: &K) -> (u64, u64) {
        self.plan.leaves(self.hash.h1(key), self.hash.h2(key))
    }

    /// Visits the candidate cells of `key` level by level (leaf pair,
    /// then their parents, ...). Returns the first cell where `f` says
    /// stop.
    fn scan_paths(&self, pm: &P, key: &K, mut f: impl FnMut(&P, u64) -> bool) -> Option<u64> {
        let (l1, l2) = self.leaves_of(key);
        self.plan.path_cells(l1, l2).find(|&idx| f(pm, idx))
    }

    /// Records a completed lookup probe walk.
    #[inline]
    fn note_probe(&self, cells: u64) {
        self.instr.record_probe(cells);
    }

    /// Records one insert attempt: path cells examined and occupied path
    /// cells stepped over (position sharing means path hashing never
    /// relocates, so displacement is always 0).
    #[inline]
    fn note_insert(&self, probes: u64, occupied: u64) {
        self.instr.record_probe(probes);
        self.instr.record_occupancy(occupied);
        self.instr.record_displacement(0);
    }

    /// Locates `key`.
    fn find(&self, pm: &P, key: &K) -> Option<u64> {
        let store = self.store;
        let mut probes = 0u64;
        let found = self.scan_paths(pm, key, |pm, idx| {
            probes += 1;
            store.is_occupied(pm, idx) && store.read_key(pm, idx) == *key
        });
        self.note_probe(probes);
        found
    }

    /// Group-commits a chunk of staged publishes, bumping the count by the
    /// chunk size in the same commit. Returns the ops committed.
    fn commit_insert_chunk(&mut self, pm: &mut P, sess: &mut BatchSession<K, V>) -> usize {
        let n = sess.staged();
        let count = self.header.count(pm) + n as u64;
        sess.commit(pm, &mut self.journal, Some((self.header.count_off(), count)));
        n
    }

    /// Group-commits a chunk of staged retracts, dropping the count by the
    /// chunk size in the same commit. Returns the ops committed.
    fn commit_remove_chunk(&mut self, pm: &mut P, sess: &mut BatchSession<K, V>) -> usize {
        let n = sess.staged();
        let count = self.header.count(pm) - n as u64;
        sess.commit(pm, &mut self.journal, Some((self.header.count_off(), count)));
        n
    }

    /// Items stored per level (diagnostic).
    pub fn level_occupancy(&self, pm: &P) -> Vec<u64> {
        (0..self.plan.levels())
            .map(|i| {
                self.store.bitmap.count_ones_in_range(
                    pm,
                    self.plan.level_base(i),
                    self.plan.level_size(i),
                )
            })
            .collect()
    }
}

impl<P: Pmem, K: HashKey, V: Pod> HashScheme<P, K, V> for PathHash<P, K, V> {
    fn name(&self) -> &'static str {
        match self.journal.mode() {
            ConsistencyMode::None => "path",
            ConsistencyMode::UndoLog => "path-L",
        }
    }

    fn instrumentation(&self) -> Option<&SchemeInstrumentation> {
        Some(&self.instr)
    }

    fn insert(&mut self, pm: &mut P, key: K, value: V) -> Result<(), InsertError> {
        // A one-element batch: same path walk, same single-op trace.
        self.insert_batch(pm, &[(key, value)]).map_err(|e| e.error)
    }

    /// Fence-coalesced batch insert: each key takes the first cell on its
    /// two root-ward paths that is neither occupied nor claimed earlier in
    /// the batch; the cell writes stage and the bit flips group-commit
    /// (prefix durability; see [`BatchSession`]).
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
            let store = self.store;
            let mut probes = 0u64;
            let mut occupied = 0u64;
            let target = {
                let overlay = &sess;
                self.scan_paths(pm, key, |pm, idx| {
                    probes += 1;
                    let free = store.is_free_for(pm, overlay, idx);
                    if !free {
                        occupied += 1;
                    }
                    free
                })
            };
            self.note_insert(probes, occupied);
            let Some(idx) = target else {
                failure = Some(InsertError::TableFull);
                break;
            };
            if sess.is_empty() {
                self.journal.begin(pm);
            }
            sess.stage_publish(pm, &mut self.journal, self.store, idx, key, value);
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

    /// Fence-coalesced batch remove: retracts stage (bit clears stay in
    /// batch order at commit) and the count moves once per chunk.
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
            if sess.is_empty() {
                self.journal.begin(pm);
            }
            sess.stage_retract(pm, &mut self.journal, self.store, idx);
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
            // The cell must lie on one of the key's two paths.
            let (l1, l2) = self.leaves_of(&key);
            if !self.plan.on_path(l1, i) && !self.plan.on_path(l2, i) {
                let level = self.plan.level_of_cell(i);
                return Err(TableError::Corrupt(format!(
                    "cell {i} (level {level}) not on its key's paths"
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


/// The drainer's view: the raw index space is the whole cell array
/// (buckets, stash, or tree levels alike — occupancy is
/// position-independent, so eviction never breaks a probe invariant).
/// Eviction reuses the scheme's retract choreography, count maintained.
impl<P: Pmem, K: HashKey, V: Pod> MigrationSource<P, K, V> for PathHash<P, K, V> {
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
        self.journal.begin(pm);
        sess.stage_retract(pm, &mut self.journal, self.store, i);
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
        leaf_bits: u32,
        levels: u32,
        mode: ConsistencyMode,
    ) -> (SimPmem, PathHash<SimPmem, u64, u64>) {
        let size = PathHash::<SimPmem, u64, u64>::required_size(leaf_bits, levels);
        let mut pm = SimPmem::new(size, SimConfig::fast_test());
        let t =
            PathHash::create(&mut pm, Region::new(0, size), leaf_bits, levels, 11, mode).unwrap();
        (pm, t)
    }

    #[test]
    fn cell_count_is_geometric_sum() {
        assert_eq!(PathHash::<SimPmem, u64, u64>::cell_count(3, 4), 8 + 4 + 2 + 1);
        assert_eq!(PathHash::<SimPmem, u64, u64>::cell_count(3, 20), 15); // clamped
        assert_eq!(PathHash::<SimPmem, u64, u64>::cell_count(10, 1), 1024);
    }

    #[test]
    fn geometry_for_fits_budget() {
        for total in [100u64, 1 << 12, 1 << 20] {
            let (lb, lv) = PathHash::<SimPmem, u64, u64>::geometry_for(total);
            assert!(PathHash::<SimPmem, u64, u64>::cell_count(lb, lv) <= total);
            // And it is not wastefully small: doubling the leaves must bust
            // the budget.
            assert!(
                PathHash::<SimPmem, u64, u64>::cell_count(lb + 1, DEFAULT_RESERVED_LEVELS)
                    > total
            );
        }
    }

    #[test]
    fn roundtrip_both_modes() {
        for mode in [ConsistencyMode::None, ConsistencyMode::UndoLog] {
            let (mut pm, mut t) = make(8, 6, mode);
            for k in 0..300u64 {
                t.insert(&mut pm, k, k * 2).unwrap();
            }
            for k in 0..300u64 {
                assert_eq!(t.get(&pm, &k), Some(k * 2));
            }
            for k in 0..100u64 {
                assert!(t.remove(&mut pm, &k));
            }
            assert_eq!(t.len(&pm), 200);
            t.check_consistency(&pm).unwrap();
        }
    }

    #[test]
    fn collisions_climb_levels() {
        let (mut pm, mut t) = make(6, 5, ConsistencyMode::None);
        // Fill well past the leaf level.
        let mut inserted = 0;
        for k in 0..200u64 {
            if t.insert(&mut pm, k, k).is_ok() {
                inserted += 1;
            }
        }
        let occ = t.level_occupancy(&pm);
        assert!(occ[0] > 0);
        assert!(occ[1..].iter().any(|&n| n > 0), "no overflow into levels: {occ:?}");
        assert_eq!(occ.iter().sum::<u64>(), inserted);
        t.check_consistency(&pm).unwrap();
    }

    #[test]
    fn high_space_utilization() {
        // Path hashing's selling point: >90 % utilization before failure.
        let (mut pm, mut t) = make(8, 8, ConsistencyMode::None);
        let mut k = 0u64;
        loop {
            if t.insert(&mut pm, k, k).is_err() {
                break;
            }
            k += 1;
        }
        let util = t.len(&pm) as f64 / t.capacity() as f64;
        assert!(util > 0.75, "utilization {util:.3} too low");
        t.check_consistency(&pm).unwrap();
    }

    #[test]
    fn reopen_preserves_state() {
        let (mut pm, mut t) = make(7, 5, ConsistencyMode::UndoLog);
        for k in 0..80u64 {
            t.insert(&mut pm, k, k + 3).unwrap();
        }
        let size = PathHash::<SimPmem, u64, u64>::required_size(7, 5);
        let t2 = PathHash::<SimPmem, u64, u64>::open(&mut pm, Region::new(0, size)).unwrap();
        assert_eq!(t2.name(), "path-L");
        assert_eq!(t2.len(&pm), 80);
        for k in 0..80u64 {
            assert_eq!(t2.get(&pm, &k), Some(k + 3));
        }
        t2.check_consistency(&pm).unwrap();
    }

    #[test]
    fn shared_root_cells_dedup_in_scan() {
        // With one leaf bit and two levels (3 cells), every key's two
        // paths share the root; scanning must not double-visit it
        // (the c2 != c1 check) and the table must saturate at ≤ 3 items.
        let (mut pm, mut t) = make(1, 2, ConsistencyMode::None);
        let mut stored = 0u64;
        for k in 0..64u64 {
            if t.insert(&mut pm, k, k).is_ok() {
                stored += 1;
            }
        }
        assert!((2..=3).contains(&stored), "stored {stored}");
        assert_eq!(t.len(&pm), stored);
        t.check_consistency(&pm).unwrap();
    }
}
