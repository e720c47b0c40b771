//! PFHT — the PCM-friendly hash table (Debnath et al., INFLOW/OSR 2015/16).
//!
//! A cuckoo-hashing variant tuned for NVM's expensive writes:
//!
//! * buckets of 4 cells (one or two cachelines), two hash functions;
//! * an insert tries both candidate buckets, then performs **at most one
//!   displacement** (moving one resident item to its alternate bucket) —
//!   never the long cascading eviction chains of classic cuckoo hashing;
//! * items that still do not fit go to a **stash** sized at 3 % of the
//!   table, searched linearly.
//!
//! The paper compares group hashing against PFHT bare and with undo
//! logging (PFHT-L).
//!
//! Ops-layer only: bucket/stash geometry is a pure
//! [`PfhtPlan`](nvm_table::probe::PfhtPlan) and every committed write goes
//! through the shared [`CellStore`] + [`Journal`] primitives.

use nvm_hashfn::{HashKey, HashPair, Pod};
use nvm_metrics::SchemeInstrumentation;
use nvm_pmem::{Pmem, Region, RegionAllocator, CACHELINE};
use nvm_table::probe::PfhtPlan;
use nvm_table::{
    BatchError, BatchSession, CellArray, CellStore, ConsistencyMode, HashScheme, InsertError,
    Journal, MigrationSource, PmemBitmap, TableError, TableHeader,
};
use std::collections::HashMap;
use std::marker::PhantomData;

/// Magic word ("PFHT0001").
const MAGIC: u64 = 0x5046_4854_3030_3031;

/// Cells per bucket (the published design).
pub const BUCKET_CELLS: u64 = 4;

/// Stash fraction: 3 % of the main table.
pub const STASH_PERCENT: u64 = 3;

/// Undo-log capacity: an insert touches at most two cells (+bitmap words,
/// count); deletes one.
const LOG_RECORDS: usize = 16;

/// The PFHT table: `n_buckets * 4` main cells plus a stash.
#[derive(Debug)]
pub struct Pfht<P: Pmem, K: HashKey, V: Pod> {
    plan: PfhtPlan,
    seed: u64,
    hash: HashPair,
    header: TableHeader,
    /// Occupancy + cells for main cells followed by stash cells.
    store: CellStore<K, V>,
    journal: Journal,
    /// Probe/occupancy/displacement recording (same schema as group
    /// hashing). Pure DRAM arithmetic; never touches the pool.
    instr: SchemeInstrumentation,
    region: Region,
    _marker: PhantomData<fn(&mut P)>,
}

impl<P: Pmem, K: HashKey, V: Pod> Pfht<P, K, V> {
    /// Splits a total cell budget into (buckets, stash cells): the main
    /// table takes the largest power-of-two bucket count fitting the
    /// budget, and the stash is the published "extra stash with 3 % size
    /// of the hash table" — *on top*, exactly as the paper configures
    /// PFHT (so PFHT's total footprint runs ≤3 % over the nominal budget,
    /// the same allowance the paper grants it).
    pub fn geometry_for(total_cells: u64) -> (u64, u64) {
        assert!(total_cells >= 2 * BUCKET_CELLS, "table too small for PFHT");
        let n_buckets = {
            let b = total_cells / BUCKET_CELLS;
            if b.is_power_of_two() {
                b
            } else {
                b.next_power_of_two() / 2
            }
        }
        .max(1);
        let stash = (n_buckets * BUCKET_CELLS * STASH_PERCENT / 100).max(1);
        (n_buckets, stash)
    }

    fn total_cells(n_buckets: u64, stash_cells: u64) -> u64 {
        n_buckets * BUCKET_CELLS + stash_cells
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
    pub fn required_size(n_buckets: u64, stash_cells: u64) -> usize {
        let total = Self::total_cells(n_buckets, stash_cells);
        TableHeader::SIZE
            + PmemBitmap::region_size(total).max(8)
            + CellArray::<K, V>::region_size(total)
            + Self::log_bytes()
            + 4 * CACHELINE
    }

    fn assemble(
        region: Region,
        n_buckets: u64,
        stash_cells: u64,
        seed: u64,
        journal: Journal,
        header: TableHeader,
    ) -> Self {
        let total = Self::total_cells(n_buckets, stash_cells);
        let (_, b, c, _) = Self::layout(region, total);
        Pfht {
            plan: PfhtPlan::new(n_buckets, BUCKET_CELLS, stash_cells),
            seed,
            hash: HashPair::from_seed(seed),
            header,
            store: CellStore::attach(b, c, total),
            journal,
            instr: SchemeInstrumentation::new(2 * BUCKET_CELLS as usize),
            region,
            _marker: PhantomData,
        }
    }

    /// Creates a fresh PFHT (`n_buckets` a power of two).
    pub fn create(
        pm: &mut P,
        region: Region,
        n_buckets: u64,
        stash_cells: u64,
        seed: u64,
        mode: ConsistencyMode,
    ) -> Result<Self, TableError> {
        if !n_buckets.is_power_of_two() {
            return Err(TableError::Config(format!(
                "bucket count {n_buckets} is not a power of two"
            )));
        }
        if stash_cells == 0 {
            return Err(TableError::Config(
                "stash must have at least one cell".into(),
            ));
        }
        if region.len < Self::required_size(n_buckets, stash_cells) {
            return Err(TableError::RegionTooSmall {
                have: region.len,
                need: Self::required_size(n_buckets, stash_cells),
            });
        }
        let total = Self::total_cells(n_buckets, stash_cells);
        let (h_r, b, c, log_r) = Self::layout(region, total);
        CellStore::<K, V>::create(pm, b, c, total);
        let journal = Journal::create(pm, mode, log_r);
        let mode_flag = matches!(mode, ConsistencyMode::UndoLog) as u64;
        let header =
            TableHeader::create(pm, h_r, MAGIC, seed, &[n_buckets, stash_cells, mode_flag]);
        Ok(Self::assemble(region, n_buckets, stash_cells, seed, journal, header))
    }

    /// Header location; see `LinearProbing::header_region` for why this
    /// bypasses `layout`.
    fn header_region(region: Region) -> Region {
        Region::new(nvm_pmem::align_up(region.off, CACHELINE), TableHeader::SIZE)
    }

    /// Re-opens an existing PFHT.
    pub fn open(pm: &mut P, region: Region) -> Result<Self, TableError> {
        let h_r = Self::header_region(region);
        if !region.contains(h_r.off, h_r.len) {
            return Err(TableError::Corrupt(
                "region too small for a table header".into(),
            ));
        }
        let header = TableHeader::open(pm, h_r, MAGIC)?;
        let n_buckets = header.geometry(pm, 0);
        let stash_cells = header.geometry(pm, 1);
        if !n_buckets.is_power_of_two()
            || stash_cells == 0
            || region.len < Self::required_size(n_buckets, stash_cells)
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
        let total = Self::total_cells(n_buckets, stash_cells);
        let (_, _, _, log_r) = Self::layout(region, total);
        let journal = Journal::open(mode, log_r);
        Ok(Self::assemble(region, n_buckets, stash_cells, seed, journal, header))
    }

    /// The persisted hash seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The pool region this table occupies.
    pub fn region(&self) -> Region {
        self.region
    }

    /// The two candidate buckets of `key`.
    #[inline]
    fn buckets_of(&self, key: &K) -> (u64, u64) {
        self.plan.buckets(self.hash.h1(key), self.hash.h2(key))
    }

    /// Records a completed lookup probe walk.
    #[inline]
    fn note_probe(&self, cells: u64) {
        self.instr.record_probe(cells);
    }

    /// Records one insert attempt: cells examined, occupied cells stepped
    /// over, and how many residents were displaced (0 or 1 — PFHT's "at
    /// most one displacement" rule).
    #[inline]
    fn note_insert(&self, probes: u64, occupied: u64, displaced: u64) {
        self.instr.record_probe(probes);
        self.instr.record_occupancy(occupied);
        self.instr.record_displacement(displaced);
    }

    /// Finds a free slot in bucket `b`.
    fn free_slot_in(&self, pm: &P, b: u64) -> Option<u64> {
        self.store
            .bitmap
            .find_zero_in_range(pm, self.plan.cell(b, 0), BUCKET_CELLS)
    }

    /// Overlay-aware variant of [`Pfht::free_slot_in`]: cells claimed by
    /// an in-flight batch session count as occupied.
    fn free_slot_for(&self, pm: &P, sess: &BatchSession<K, V>, b: u64) -> Option<u64> {
        (0..BUCKET_CELLS)
            .map(|s| self.plan.cell(b, s))
            .find(|&idx| self.store.is_free_for(pm, sess, idx))
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

    /// The full single-op insert: free slot in either bucket, else at most
    /// one displacement, else the stash. [`HashScheme::insert`] and the
    /// displacement fallback of [`HashScheme::insert_batch`] both land
    /// here; the displacement and stash arms rewrite live cells and so can
    /// never be staged into a batch session.
    fn insert_one(&mut self, pm: &mut P, key: &K, value: &V) -> Result<(), InsertError> {
        let (b1, b2) = self.buckets_of(key);
        let mut probes = 0u64;
        let mut occupied = 0u64;

        // 1. A free slot in either candidate bucket.
        for b in [b1, b2] {
            if let Some(idx) = self.free_slot_in(pm, b) {
                // Cells before the first free slot are occupied.
                let off = idx - self.plan.cell(b, 0);
                self.journal.begin(pm);
                self.place(pm, idx, key, value);
                self.journal.commit(pm);
                self.note_insert(probes + off + 1, occupied + off, 0);
                return Ok(());
            }
            probes += BUCKET_CELLS;
            occupied += BUCKET_CELLS;
        }

        // 2. At most one displacement: move some resident of b1 or b2 to
        //    its alternate bucket if that has room.
        for b in [b1, b2] {
            for s in 0..BUCKET_CELLS {
                let idx = self.plan.cell(b, s);
                let resident = self.store.read_key(pm, idx);
                probes += 1;
                let (r1, r2) = self.buckets_of(&resident);
                let alt = if r1 == b { r2 } else { r1 };
                if alt == b {
                    continue; // both hashes map here; cannot move
                }
                if let Some(alt_idx) = self.free_slot_in(pm, alt) {
                    let alt_off = alt_idx - self.plan.cell(alt, 0);
                    probes += alt_off + 1;
                    occupied += alt_off;
                    self.journal.begin(pm);
                    // Move resident to its alternate bucket (write first,
                    // then flip bits — the new copy is durable before the
                    // old disappears).
                    let rv = self.store.read_value(pm, idx);
                    self.store
                        .stage_publish(pm, &mut self.journal, alt_idx, None);
                    self.store.publish(pm, alt_idx, &resident, &rv);
                    self.journal
                        .record_sealed(pm, self.store.bitmap.word_off_of(idx), 8);
                    self.store.bitmap.set_and_persist(pm, idx, false);
                    // Place the new item in the freed slot.
                    self.place(pm, idx, key, value);
                    self.journal.commit(pm);
                    self.note_insert(probes, occupied, 1);
                    return Ok(());
                }
                probes += BUCKET_CELLS;
                occupied += BUCKET_CELLS;
            }
        }

        // 3. Stash.
        let base = self.plan.stash_base();
        if let Some(idx) =
            self.store
                .bitmap
                .find_zero_in_range(pm, base, self.plan.stash_cells())
        {
            let off = idx - base;
            self.journal.begin(pm);
            self.place(pm, idx, key, value);
            self.journal.commit(pm);
            self.note_insert(probes + off + 1, occupied + off, 0);
            return Ok(());
        }
        let stash_cells = self.plan.stash_cells();
        self.note_insert(probes + stash_cells, occupied + stash_cells, 0);
        Err(InsertError::TableFull)
    }

    /// Writes `(key, value)` into `idx` with the usual commit sequence
    /// (inside the caller's open journal transaction).
    fn place(&mut self, pm: &mut P, idx: u64, key: &K, value: &V) {
        self.store
            .stage_publish(pm, &mut self.journal, idx, Some(self.header.count_off()));
        self.store.publish(pm, idx, key, value);
        self.header.inc_count(pm);
    }

    /// Locates `key` anywhere (buckets, then stash).
    fn find(&self, pm: &P, key: &K) -> Option<u64> {
        let (b1, b2) = self.buckets_of(key);
        let mut probes = 0u64;
        for b in [b1, b2] {
            for s in 0..BUCKET_CELLS {
                let idx = self.plan.cell(b, s);
                probes += 1;
                if self.store.is_occupied(pm, idx) && self.store.read_key(pm, idx) == *key {
                    self.note_probe(probes);
                    return Some(idx);
                }
            }
        }
        // Linear stash search — the cost PFHT pays at high load factors.
        let base = self.plan.stash_base();
        for i in 0..self.plan.stash_cells() {
            let idx = base + i;
            probes += 1;
            if self.store.is_occupied(pm, idx) && self.store.read_key(pm, idx) == *key {
                self.note_probe(probes);
                return Some(idx);
            }
        }
        self.note_probe(probes);
        None
    }

    /// Number of items currently in the stash (diagnostic).
    pub fn stash_used(&self, pm: &P) -> u64 {
        self.store.bitmap.count_ones_in_range(
            pm,
            self.plan.stash_base(),
            self.plan.stash_cells(),
        )
    }
}

impl<P: Pmem, K: HashKey, V: Pod> HashScheme<P, K, V> for Pfht<P, K, V> {
    fn name(&self) -> &'static str {
        match self.journal.mode() {
            ConsistencyMode::None => "PFHT",
            ConsistencyMode::UndoLog => "PFHT-L",
        }
    }

    fn instrumentation(&self) -> Option<&SchemeInstrumentation> {
        Some(&self.instr)
    }

    fn insert(&mut self, pm: &mut P, key: K, value: V) -> Result<(), InsertError> {
        // A one-element batch reproduces the old single-op trace: a free
        // bucket slot stages + commits with the count in one session, and
        // the displacement/stash arms fall through to `insert_one`.
        self.insert_batch(pm, &[(key, value)]).map_err(|e| e.error)
    }

    /// Fence-coalesced batch insert. Keys whose candidate buckets have a
    /// free slot (treating cells claimed earlier in the batch as occupied)
    /// are staged and group-committed; a key needing a displacement or the
    /// stash first commits the staged prefix, then runs the single-op path
    /// — prefix durability holds either way.
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
            let (b1, b2) = self.buckets_of(key);
            let mut slot = None;
            let mut skipped = 0u64;
            for b in [b1, b2] {
                if let Some(idx) = self.free_slot_for(pm, &sess, b) {
                    slot = Some((idx, skipped + (idx - self.plan.cell(b, 0))));
                    break;
                }
                skipped += BUCKET_CELLS;
            }
            if let Some((idx, off)) = slot {
                self.note_insert(off + 1, off, 0);
                if sess.is_empty() {
                    self.journal.begin(pm);
                }
                sess.stage_publish(pm, &mut self.journal, self.store, idx, key, value);
                if sess.staged() >= chunk_cap {
                    committed += self.commit_insert_chunk(pm, &mut sess);
                }
                continue;
            }
            // Both buckets full: the displacement/stash path rewrites live
            // cells and cannot be staged. Commit the batch prefix so its
            // claims become real occupancy, then run the single-op insert.
            if !sess.is_empty() {
                committed += self.commit_insert_chunk(pm, &mut sess);
            }
            match self.insert_one(pm, key, value) {
                Ok(()) => committed += 1,
                Err(error) => {
                    failure = Some(error);
                    break;
                }
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
        let total = self.capacity();
        let stash_base = self.plan.stash_base();
        for i in 0..total {
            if !self.store.is_occupied(pm, i) {
                if !self.store.cells.is_zeroed(pm, i) {
                    return Err(TableError::Corrupt(format!("empty cell {i} not zeroed")));
                }
                continue;
            }
            occupied += 1;
            let key = self.store.read_key(pm, i);
            if i < stash_base {
                let b = i / BUCKET_CELLS;
                let (b1, b2) = self.buckets_of(&key);
                if b != b1 && b != b2 {
                    return Err(TableError::Corrupt(format!(
                        "cell {i}: key belongs to buckets {b1}/{b2}, found in {b}"
                    )));
                }
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
impl<P: Pmem, K: HashKey, V: Pod> MigrationSource<P, K, V> for Pfht<P, K, V> {
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

    fn make(n_buckets: u64, mode: ConsistencyMode) -> (SimPmem, Pfht<SimPmem, u64, u64>) {
        let stash = (n_buckets * BUCKET_CELLS * 3 / 100).max(4);
        let size = Pfht::<SimPmem, u64, u64>::required_size(n_buckets, stash);
        let mut pm = SimPmem::new(size, SimConfig::fast_test());
        let t = Pfht::create(&mut pm, Region::new(0, size), n_buckets, stash, 3, mode).unwrap();
        (pm, t)
    }

    #[test]
    fn roundtrip_both_modes() {
        for mode in [ConsistencyMode::None, ConsistencyMode::UndoLog] {
            let (mut pm, mut t) = make(64, mode);
            for k in 0..180u64 {
                t.insert(&mut pm, k, k + 1).unwrap();
            }
            for k in 0..180u64 {
                assert_eq!(t.get(&pm, &k), Some(k + 1));
            }
            for k in 0..90u64 {
                assert!(t.remove(&mut pm, &k));
            }
            assert_eq!(t.len(&pm), 90);
            t.check_consistency(&pm).unwrap();
        }
    }

    #[test]
    fn geometry_for_respects_budget() {
        for total in [256u64, 1 << 12, 1 << 16, 100_000] {
            let (b, s) = Pfht::<SimPmem, u64, u64>::geometry_for(total);
            assert!(b.is_power_of_two());
            // Main table within budget; stash is the paper's 3% extra.
            assert!(b * BUCKET_CELLS <= total, "total {total}: {b} buckets");
            assert!(
                b * BUCKET_CELLS + s <= total + total * 3 / 100 + 1,
                "total {total}: {b} buckets + {s} stash"
            );
            assert!(s >= 1);
        }
    }

    #[test]
    fn fills_past_both_buckets_into_stash() {
        // Drive to saturation: the table is only "full" once the stash is,
        // so at the first failed insert every stash cell is occupied.
        let (mut pm, mut t) = make(16, ConsistencyMode::None); // 64 main cells
        let mut k = 0u64;
        let mut stored = vec![];
        loop {
            if t.insert(&mut pm, k, k).is_ok() {
                stored.push(k);
            } else {
                break;
            }
            k += 1;
        }
        let stash = t.stash_used(&pm);
        assert!(stash > 0, "stash unused at saturation");
        assert_eq!(
            stash,
            t.capacity() - 16 * BUCKET_CELLS,
            "table full implies stash full"
        );
        t.check_consistency(&pm).unwrap();
        for &key in &stored {
            assert_eq!(t.get(&pm, &key), Some(key));
        }
    }

    #[test]
    fn displacement_happens_and_preserves_items() {
        // Dense fill forces case-2 inserts (single displacement).
        let (mut pm, mut t) = make(8, ConsistencyMode::None); // 32 main cells
        let mut keys = vec![];
        for k in 0..30u64 {
            if t.insert(&mut pm, k, k * 7).is_ok() {
                keys.push(k);
            }
        }
        for &k in &keys {
            assert_eq!(t.get(&pm, &k), Some(k * 7));
        }
        t.check_consistency(&pm).unwrap();
    }

    #[test]
    fn table_full_when_stash_exhausted() {
        let (mut pm, mut t) = make(4, ConsistencyMode::None); // 16 main + 4 stash
        let mut k = 0u64;
        let mut full = false;
        while k < 1000 {
            if t.insert(&mut pm, k, k).is_err() {
                full = true;
                break;
            }
            k += 1;
        }
        assert!(full, "tiny PFHT never filled");
        assert!(t.len(&pm) <= t.capacity());
        t.check_consistency(&pm).unwrap();
    }

    #[test]
    fn reopen_preserves_state() {
        let (mut pm, mut t) = make(32, ConsistencyMode::None);
        for k in 0..50u64 {
            t.insert(&mut pm, k, k).unwrap();
        }
        let stash = (32 * BUCKET_CELLS * 3 / 100).max(4);
        let size = Pfht::<SimPmem, u64, u64>::required_size(32, stash);
        let t2 = Pfht::<SimPmem, u64, u64>::open(&mut pm, Region::new(0, size)).unwrap();
        assert_eq!(t2.len(&pm), 50);
        assert_eq!(t2.name(), "PFHT");
        for k in 0..50u64 {
            assert_eq!(t2.get(&pm, &k), Some(k));
        }
    }
}
