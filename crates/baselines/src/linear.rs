//! Linear probing with backward-shift deletion.
//!
//! The traditional DRAM scheme ([24] in the paper): key `x` starts at slot
//! `h(x)` and probes successive slots until a free cell. Deletion uses
//! Knuth's backward-shift algorithm (no tombstones): the hole left by the
//! deleted item is repeatedly filled with the next cluster member that is
//! allowed to move back, which keeps the probe invariant but costs many
//! extra NVM writes — the paper's "complicated delete process".
//!
//! Ops-layer only: the probe sequence is a pure
//! [`LinearPlan`](nvm_table::probe::LinearPlan) and every committed write
//! goes through the shared [`CellStore`] + [`Journal`] primitives.

use nvm_hashfn::{HashKey, HashPair, Pod};
use nvm_metrics::SchemeInstrumentation;
use nvm_pmem::{Pmem, Region, RegionAllocator, CACHELINE};
use nvm_table::probe::LinearPlan;
use nvm_table::{
    BatchError, BatchSession, CellArray, CellStore, ConsistencyMode, HashScheme, InsertError,
    Journal, MigrationSource, PmemBitmap, TableError, TableHeader,
};
use std::collections::HashMap;
use std::marker::PhantomData;

/// Magic word ("LINPROB1").
const MAGIC: u64 = 0x4C49_4E50_524F_4231;

/// Undo-log capacity: backward shift can move a whole cluster; size for
/// deep clusters at high load factors.
const LOG_RECORDS: usize = 4096;

/// A linear-probing hash table over a pmem pool.
#[derive(Debug)]
pub struct LinearProbing<P: Pmem, K: HashKey, V: Pod> {
    plan: LinearPlan,
    seed: u64,
    hash: HashPair,
    header: TableHeader,
    store: CellStore<K, V>,
    journal: Journal,
    /// DRAM mirror of the header's migration-active flag. While an online
    /// drain evicts cells, clusters contain holes, so lookups must not
    /// early-stop on an empty slot (see [`LinearProbing::find`]).
    migrating: bool,
    /// Probe/occupancy/displacement recording (same schema as group
    /// hashing). Pure DRAM arithmetic; never touches the pool.
    instr: SchemeInstrumentation,
    region: Region,
    _marker: PhantomData<fn(&mut P)>,
}

impl<P: Pmem, K: HashKey, V: Pod> LinearProbing<P, K, V> {
    fn log_bytes() -> usize {
        nvm_wal::UndoLog::region_size(LOG_RECORDS, CellArray::<K, V>::CELL_SIZE.max(8))
    }

    fn layout(region: Region, n: u64) -> (Region, Region, Region, Region) {
        let mut alloc = RegionAllocator::new(region.off, region.end());
        let header = alloc.alloc_lines(TableHeader::SIZE);
        let bitmap = alloc.alloc_lines(PmemBitmap::region_size(n).max(8));
        let cells = alloc.alloc_lines(CellArray::<K, V>::region_size(n));
        let log = alloc.alloc_lines(Self::log_bytes());
        (header, bitmap, cells, log)
    }

    /// Pool bytes needed for `n` cells.
    pub fn required_size(n: u64) -> usize {
        TableHeader::SIZE
            + PmemBitmap::region_size(n).max(8)
            + CellArray::<K, V>::region_size(n)
            + Self::log_bytes()
            + 4 * CACHELINE
    }

    fn assemble(region: Region, n: u64, seed: u64, journal: Journal, header: TableHeader) -> Self {
        let (_, b, c, _) = Self::layout(region, n);
        LinearProbing {
            plan: LinearPlan::new(n),
            seed,
            hash: HashPair::from_seed(seed),
            header,
            store: CellStore::attach(b, c, n),
            journal,
            migrating: false,
            instr: SchemeInstrumentation::new(16),
            region,
            _marker: PhantomData,
        }
    }

    /// Creates a fresh table with `n` cells (power of two).
    pub fn create(
        pm: &mut P,
        region: Region,
        n: u64,
        seed: u64,
        mode: ConsistencyMode,
    ) -> Result<Self, TableError> {
        if !n.is_power_of_two() {
            return Err(TableError::Config(format!(
                "cell count {n} is not a power of two"
            )));
        }
        if region.len < Self::required_size(n) {
            return Err(TableError::RegionTooSmall {
                have: region.len,
                need: Self::required_size(n),
            });
        }
        let (h_r, b, c, log_r) = Self::layout(region, n);
        CellStore::<K, V>::create(pm, b, c, n);
        let journal = Journal::create(pm, mode, log_r);
        let mode_flag = match mode {
            ConsistencyMode::None => 0,
            ConsistencyMode::UndoLog => 1,
        };
        let header = TableHeader::create(pm, h_r, MAGIC, seed, &[n, mode_flag]);
        Ok(Self::assemble(region, n, seed, journal, header))
    }

    /// Header location (first allocation of `layout`), computable without
    /// knowing the geometry — `open` must not run the full layout before
    /// validating the header, or a bogus region would panic instead of
    /// erroring.
    fn header_region(region: Region) -> Region {
        Region::new(nvm_pmem::align_up(region.off, CACHELINE), TableHeader::SIZE)
    }

    /// Re-opens a table from its region.
    pub fn open(pm: &mut P, region: Region) -> Result<Self, TableError> {
        let h_r = Self::header_region(region);
        if !region.contains(h_r.off, h_r.len) {
            return Err(TableError::Corrupt(
                "region too small for a table header".into(),
            ));
        }
        let header = TableHeader::open(pm, h_r, MAGIC)?;
        let n = header.geometry(pm, 0);
        if !n.is_power_of_two() || region.len < Self::required_size(n) {
            return Err(TableError::Corrupt(format!(
                "persisted geometry ({n} cells) does not fit the region"
            )));
        }
        let mode = if header.geometry(pm, 1) == 1 {
            ConsistencyMode::UndoLog
        } else {
            ConsistencyMode::None
        };
        let seed = header.seed(pm);
        let (_, _, _, log_r) = Self::layout(region, n);
        let journal = Journal::open(mode, log_r);
        let mut t = Self::assemble(region, n, seed, journal, header);
        t.migrating = t.header.migration_active(pm);
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

    /// Home slot of `key`.
    #[inline]
    fn home(&self, key: &K) -> u64 {
        self.plan.home(self.hash.h1(key))
    }

    /// Records a completed lookup probe walk.
    #[inline]
    fn note_probe(&self, cells: u64) {
        self.instr.record_probe(cells);
    }

    /// Records one insert attempt: cells examined and occupied cells
    /// stepped over (linear probing never relocates, so displacement is
    /// always 0).
    #[inline]
    fn note_insert(&self, probes: u64, occupied: u64) {
        self.instr.record_probe(probes);
        self.instr.record_occupancy(occupied);
        self.instr.record_displacement(0);
    }

    /// Group-commits a staged insert chunk; the count rides the session
    /// commit (see [`BatchSession::commit`]).
    fn commit_insert_chunk(&mut self, pm: &mut P, sess: &mut BatchSession<K, V>) -> usize {
        let n = sess.staged();
        let count = self.header.count(pm) + n as u64;
        sess.commit(
            pm,
            &mut self.journal,
            Some((self.header.count_off(), count)),
        );
        n
    }

    /// Finds the cell holding `key`, walking the probe sequence.
    ///
    /// While an online migration is draining this table, evictions punch
    /// holes into clusters, so the early-stop-at-empty probe invariant no
    /// longer holds; the walk skips holes and scans the full sequence
    /// instead. Normal operation keeps the cheap early stop.
    fn find(&self, pm: &P, key: &K) -> Option<u64> {
        for (step, i) in self.plan.sequence(self.home(key)).enumerate() {
            if !self.store.is_occupied(pm, i) {
                if self.migrating {
                    continue;
                }
                self.note_probe(step as u64 + 1);
                return None; // probe invariant: cluster ended
            }
            if self.store.read_key(pm, i) == *key {
                self.note_probe(step as u64 + 1);
                return Some(i);
            }
        }
        self.note_probe(self.plan.n());
        None
    }
}

impl<P: Pmem, K: HashKey, V: Pod> HashScheme<P, K, V> for LinearProbing<P, K, V> {
    fn name(&self) -> &'static str {
        match self.journal.mode() {
            ConsistencyMode::None => "linear",
            ConsistencyMode::UndoLog => "linear-L",
        }
    }

    fn instrumentation(&self) -> Option<&SchemeInstrumentation> {
        Some(&self.instr)
    }

    fn insert(&mut self, pm: &mut P, key: K, value: V) -> Result<(), InsertError> {
        // A one-element batch: same probe walk, same 3-flush / 3-fence /
        // 2-atomic trace as the pre-batch single-op path.
        self.insert_batch(pm, &[(key, value)]).map_err(|e| e.error)
    }

    /// Fence-coalesced batch insert: each key's probe walk treats cells
    /// claimed earlier in the batch as occupied, the cell writes are
    /// staged, and the bit flips group-commit (prefix durability; see
    /// [`BatchSession`]). Deletes keep the per-op path — backward shift
    /// moves whole clusters and cannot be staged.
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
            let mut found = None;
            for (step, i) in self.plan.sequence(self.home(key)).enumerate() {
                if self.store.is_free_for(pm, &sess, i) {
                    found = Some((step as u64, i));
                    break;
                }
            }
            let Some((step, i)) = found else {
                self.note_insert(self.plan.n(), self.plan.n());
                failure = Some(InsertError::TableFull);
                break;
            };
            self.note_insert(step + 1, step);
            if sess.is_empty() {
                self.journal.begin(pm);
            }
            sess.stage_publish(pm, &mut self.journal, self.store, i, key, value);
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
        self.find(pm, key).map(|i| self.store.read_value(pm, i))
    }

    fn remove(&mut self, pm: &mut P, key: &K) -> bool {
        let Some(found) = self.find(pm, key) else {
            return false;
        };
        // Backward-shift deletion (Knuth 6.4 Algorithm R): fill the hole
        // with later cluster members whose home allows the move; every
        // move is an extra NVM write — the cost the paper highlights.
        self.journal.begin(pm);
        let mut hole = found;
        let mut i = found;
        loop {
            i = self.plan.step(i);
            if !self.store.is_occupied(pm, i) {
                break; // cluster ends: hole stays here
            }
            let home = self.home(&self.store.read_key(pm, i));
            if LinearPlan::must_stay(hole, home, i) {
                continue; // item already reachable; leave it
            }
            // Move cell i into the hole.
            self.store.stage_publish(pm, &mut self.journal, hole, None);
            let (k, v) = (self.store.read_key(pm, i), self.store.read_value(pm, i));
            self.store.publish(pm, hole, &k, &v);
            hole = i;
        }
        // Clear the final hole.
        self.store
            .stage_retract(pm, &mut self.journal, hole, Some(self.header.count_off()));
        self.store.retract(pm, hole);
        self.header.dec_count(pm);
        self.journal.commit(pm);
        true
    }

    fn len(&self, pm: &P) -> u64 {
        self.header.count(pm)
    }

    fn capacity(&self) -> u64 {
        self.plan.n()
    }

    fn recover(&mut self, pm: &mut P) {
        self.journal.recover(pm);
        let count = self.store.recover_cells(pm);
        self.header.set_count(pm, count);
    }

    fn check_consistency(&self, pm: &P) -> Result<(), TableError> {
        let mut occupied = 0u64;
        let mut seen: HashMap<Vec<u8>, u64> = HashMap::new();
        for i in 0..self.plan.n() {
            if !self.store.is_occupied(pm, i) {
                if !self.store.cells.is_zeroed(pm, i) {
                    return Err(TableError::Corrupt(format!("empty cell {i} not zeroed")));
                }
                continue;
            }
            occupied += 1;
            let key = self.store.read_key(pm, i);
            // Probe invariant: every slot from home(key) to i is occupied.
            // Suspended mid-migration, when evictions legitimately punch
            // holes into clusters (lookups full-scan instead).
            if !self.migrating {
                let mut reachable = false;
                for j in self.plan.sequence(self.home(&key)) {
                    if j == i {
                        reachable = true;
                        break;
                    }
                    if !self.store.is_occupied(pm, j) {
                        break;
                    }
                }
                if !reachable {
                    return Err(TableError::Corrupt(format!(
                        "cell {i}: key unreachable from home {} (probe invariant broken)",
                        self.home(&key)
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

/// The drainer's view of a linear table: the raw index space is simply
/// the slot array. Eviction is a plain failure-atomic retract — no
/// backward shift, because shifting would move not-yet-drained entries
/// behind the persisted cursor and lose them. The holes this leaves are
/// what the `migrating` flag's full-scan lookups tolerate.
impl<P: Pmem, K: HashKey, V: Pod> MigrationSource<P, K, V> for LinearProbing<P, K, V> {
    fn migration_cells(&self) -> u64 {
        self.plan.n()
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
        self.journal.begin(pm);
        self.store
            .stage_retract(pm, &mut self.journal, i, Some(self.header.count_off()));
        self.store.retract(pm, i);
        self.header.dec_count(pm);
        self.journal.commit(pm);
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
        self.migrating = active;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_pmem::{SimConfig, SimPmem};

    fn make(n: u64, mode: ConsistencyMode) -> (SimPmem, LinearProbing<SimPmem, u64, u64>) {
        let size = LinearProbing::<SimPmem, u64, u64>::required_size(n);
        let mut pm = SimPmem::new(size, SimConfig::fast_test());
        let t = LinearProbing::create(&mut pm, Region::new(0, size), n, 7, mode).unwrap();
        (pm, t)
    }

    #[test]
    fn roundtrip_both_modes() {
        for mode in [ConsistencyMode::None, ConsistencyMode::UndoLog] {
            let (mut pm, mut t) = make(256, mode);
            for k in 0..150u64 {
                t.insert(&mut pm, k, k * 2).unwrap();
            }
            for k in 0..150u64 {
                assert_eq!(t.get(&pm, &k), Some(k * 2));
            }
            assert_eq!(t.len(&pm), 150);
            t.check_consistency(&pm).unwrap();
        }
    }

    #[test]
    fn backward_shift_preserves_probe_invariant() {
        let (mut pm, mut t) = make(64, ConsistencyMode::None);
        // Fill densely so clusters form, then delete from cluster middles.
        for k in 0..48u64 {
            t.insert(&mut pm, k, k).unwrap();
        }
        for k in (0..48u64).step_by(3) {
            assert!(t.remove(&mut pm, &k), "remove {k}");
            t.check_consistency(&pm).unwrap();
        }
        for k in 0..48u64 {
            let want = if k % 3 == 0 { None } else { Some(k) };
            assert_eq!(t.get(&pm, &k), want, "key {k}");
        }
    }

    #[test]
    fn table_fills_to_one() {
        // Linear probing has no fixed utilization bound: it fills to 1.0.
        let (mut pm, mut t) = make(64, ConsistencyMode::None);
        let mut inserted = 0;
        let mut k = 0u64;
        while inserted < 64 {
            if t.insert(&mut pm, k, k).is_ok() {
                inserted += 1;
            }
            k += 1;
        }
        assert_eq!(t.len(&pm), 64);
        assert_eq!(t.insert(&mut pm, k, k), Err(InsertError::TableFull));
        t.check_consistency(&pm).unwrap();
    }

    #[test]
    fn reopen_preserves_state() {
        let (mut pm, mut t) = make(128, ConsistencyMode::UndoLog);
        for k in 0..60u64 {
            t.insert(&mut pm, k, k + 9).unwrap();
        }
        let size = LinearProbing::<SimPmem, u64, u64>::required_size(128);
        let t2 = LinearProbing::<SimPmem, u64, u64>::open(&mut pm, Region::new(0, size)).unwrap();
        assert_eq!(t2.name(), "linear-L");
        for k in 0..60u64 {
            assert_eq!(t2.get(&pm, &k), Some(k + 9));
        }
    }

    #[test]
    fn delete_costs_more_writes_than_insert() {
        // The paper's observation: linear deletion is write-heavy.
        let (mut pm, mut t) = make(256, ConsistencyMode::None);
        for k in 0..190u64 {
            t.insert(&mut pm, k, k).unwrap();
        }
        pm.reset_stats();
        for k in 0..50u64 {
            t.insert(&mut pm, k + 1000, k).unwrap();
        }
        let insert_writes = pm.stats().bytes_written;
        pm.reset_stats();
        for k in 0..50u64 {
            t.remove(&mut pm, &k);
        }
        let delete_writes = pm.stats().bytes_written;
        assert!(
            delete_writes > insert_writes,
            "delete {delete_writes} <= insert {insert_writes}"
        );
    }

    #[test]
    fn logged_mode_rolls_back_torn_delete() {
        use nvm_pmem::{run_with_crash, CrashPlan, CrashResolution};
        let (mut pm, mut t) = make(64, ConsistencyMode::UndoLog);
        for k in 0..40u64 {
            t.insert(&mut pm, k, k).unwrap();
        }
        let before: Vec<Option<u64>> = (0..40).map(|k| t.get(&pm, &k)).collect();
        // Crash at each event inside a delete; after recovery the table
        // must be exactly the pre-delete state or the post-delete state.
        for at in 0.. {
            let mut pm2 = pm.clone();
            let size = LinearProbing::<SimPmem, u64, u64>::required_size(64);
            let mut t2 =
                LinearProbing::<SimPmem, u64, u64>::open(&mut pm2, Region::new(0, size)).unwrap();
            let base = pm2.events();
            pm2.set_crash_plan(Some(CrashPlan {
                at_event: base + at,
            }));
            let done = run_with_crash(|| t2.remove(&mut pm2, &17)).is_ok();
            if done {
                break;
            }
            pm2.crash(CrashResolution::Random(at));
            let mut t3 =
                LinearProbing::<SimPmem, u64, u64>::open(&mut pm2, Region::new(0, size)).unwrap();
            t3.recover(&mut pm2);
            t3.check_consistency(&pm2)
                .unwrap_or_else(|e| panic!("crash at +{at}: {e}"));
            // All-or-nothing: either 17 is still fully there or fully gone;
            // every other key untouched.
            for k in 0..40u64 {
                if k == 17 {
                    let got = t3.get(&pm2, &k);
                    assert!(got == before[k as usize] || got.is_none());
                } else {
                    assert_eq!(t3.get(&pm2, &k), before[k as usize], "key {k} at +{at}");
                }
            }
        }
    }
}
