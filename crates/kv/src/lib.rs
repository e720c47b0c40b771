//! A small crash-consistent key-value engine on group hashing.
//!
//! The paper's table stores fixed-size cells; real stores (the
//! memcached-class systems its introduction cites) hold string keys and
//! variable-size values. [`Store`] composes the workspace's pieces into
//! that system. Each of its shards is one engine inside one persistent
//! pool:
//!
//! * a [`GroupHash`] **index** mapping 16-byte key fingerprints
//!   (MurmurHash3 x64-128) to 8-byte persistent pointers;
//! * a [`PmemHeap`] **value heap** holding `[key_len | key | value]`
//!   blobs in wear-rotated slab classes, so fingerprint collisions are
//!   detected by comparing the stored key. The store talks only to the
//!   heap's policy layer — never to slab-store internals (enforced by a
//!   `ci.sh` layering lint).
//!
//! # Crash consistency, without a log
//!
//! Every mutation is a sequence of individually-committed steps ordered
//! so that a crash anywhere leaves the store *consistent*, at worst
//! *leaking* heap slots that [`Store::gc`] reclaims:
//!
//! * **insert**: commit blob → commit index entry. Crash between: an
//!   unreferenced blob (leak).
//! * **update**: commit new blob → atomically swap the 8-byte pointer in
//!   the index (old value or new value, never torn) → free old blob.
//!   Crash windows leak either the new or the old blob.
//! * **delete**: remove index entry (atomic bitmap clear) → free blob.
//!   Crash between: a leak.
//!
//! The index itself is exactly the paper's structure, so its own
//! crash-recovery story (Algorithm 4) carries over; [`Store::recover`]
//! runs it and then the heap's bounded, crash-resumable GC drainer,
//! driven with the index as [`GcOwner`], until every unreachable blob is
//! reclaimed. The same drainer runs incrementally online via
//! [`Store::gc_step`].

use group_hash::{CommitStrategy, FpMode, GroupHash, GroupHashConfig, GroupReadView};
use nvm_alloc::{AllocError, FragStats, GcOwner, HeapConfig, HeapReadView, PmemHeap, PmemPtr};
use nvm_hashfn::murmur3_x64_128;
use nvm_pmem::{align_up, Pmem, PmemRead, Region, RegionAllocator, CACHELINE};
use nvm_table::{ConsistencyMode, HashScheme, InsertError, TableError};
use std::collections::{HashMap, HashSet};

mod store;

pub mod prelude;

pub use store::{
    Store, StoreBuilder, StoreCounters, StoreError, StoreReadView, WriteTicket,
};

/// Magic word identifying a KV header ("NVKVSTR2": records open with a
/// u16 key length; "NVKVSTR1" pools used a u32 and are refused).
const MAGIC: u64 = 0x4E56_4B56_5354_5232;

/// Bytes of the little-endian key-length field that opens every record.
const KEY_LEN_PREFIX: usize = 2;

/// Errors from the KV engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// The index has no free cell for this key.
    IndexFull,
    /// The heap cannot store this value.
    Heap(AllocError),
    /// Creating/opening the index table failed.
    Table(TableError),
    /// Region split / KV header problems.
    Layout(String),
    /// A consistency check found the store's invariants violated.
    Corrupt(String),
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::IndexFull => write!(f, "index full"),
            KvError::Heap(e) => write!(f, "heap: {e}"),
            KvError::Table(e) => write!(f, "index: {e}"),
            KvError::Layout(e) => write!(f, "layout: {e}"),
            KvError::Corrupt(e) => write!(f, "corrupt: {e}"),
        }
    }
}

impl std::error::Error for KvError {}

impl From<AllocError> for KvError {
    fn from(e: AllocError) -> Self {
        KvError::Heap(e)
    }
}

impl From<TableError> for KvError {
    fn from(e: TableError) -> Self {
        KvError::Table(e)
    }
}

/// Engine geometry.
#[derive(Debug, Clone)]
pub struct KvConfig {
    /// Index cells per level (power of two); capacity ≈ 2× this.
    pub index_cells_per_level: u64,
    /// Group size for the index.
    pub group_size: u64,
    /// Heap slot-storage budget in bytes.
    pub heap_bytes: u64,
    /// Hash seed.
    pub seed: u64,
    /// Index fingerprint-tag mode (create-time; reopened stores restore
    /// it from the index's own persisted header).
    pub fp: FpMode,
    /// Index consistency mode (create-time; `UndoLog` wraps index
    /// commits in the undo journal, `None` uses the paper's atomic
    /// bitmap commit).
    pub consistency: ConsistencyMode,
}

impl KvConfig {
    /// A store sized for roughly `items` entries of ≤`avg_value` bytes.
    pub fn for_capacity(items: u64, avg_value: u64) -> Self {
        let cells = (items * 2).next_power_of_two().max(128);
        KvConfig {
            index_cells_per_level: cells / 2,
            group_size: 64.min(cells / 2),
            // 4x headroom: the balanced memcached-style class split
            // cannot match every value-size distribution exactly, and
            // small blobs all round up to the 80-byte base class.
            heap_bytes: (items * (avg_value + 64) * 4).max(8192),
            seed: 0x4B56_5354,
            fp: FpMode::default(),
            consistency: ConsistencyMode::default(),
        }
    }

    /// Overrides the index geometry (cells per level; power of two).
    pub fn with_index_cells_per_level(mut self, cells: u64) -> Self {
        self.index_cells_per_level = cells;
        self
    }

    /// Overrides the index group size.
    pub fn with_group_size(mut self, group_size: u64) -> Self {
        self.group_size = group_size;
        self
    }

    /// Overrides the heap budget.
    pub fn with_heap_bytes(mut self, heap_bytes: u64) -> Self {
        self.heap_bytes = heap_bytes;
        self
    }

    /// Overrides the hash seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the index fingerprint-tag mode.
    pub fn with_fp_mode(mut self, fp: FpMode) -> Self {
        self.fp = fp;
        self
    }

    /// Overrides the index consistency mode.
    pub fn with_consistency(mut self, consistency: ConsistencyMode) -> Self {
        self.consistency = consistency;
        self
    }
}

/// 16-byte fingerprint of `key` (MurmurHash3 x64-128).
fn fingerprint(key: &[u8]) -> [u8; 16] {
    let (lo, hi) = murmur3_x64_128(key, 0x4B56);
    let mut f = [0u8; 16];
    f[..8].copy_from_slice(&lo.to_le_bytes());
    f[8..].copy_from_slice(&hi.to_le_bytes());
    f
}

/// `[key_len u16-LE | key | value]`. A key too long for the u16 field
/// is refused with the same [`AllocError::TooLarge`] an oversize record
/// gets — no heap class holds a record that large anyway.
fn encode_blob(key: &[u8], value: &[u8]) -> Result<Vec<u8>, KvError> {
    let len = KEY_LEN_PREFIX + key.len() + value.len();
    let klen = u16::try_from(key.len()).map_err(|_| AllocError::TooLarge(len))?;
    let mut blob = Vec::with_capacity(len);
    blob.extend_from_slice(&klen.to_le_bytes());
    blob.extend_from_slice(key);
    blob.extend_from_slice(value);
    Ok(blob)
}

fn decode_blob(blob: &[u8]) -> (&[u8], &[u8]) {
    try_decode_blob(blob).expect("malformed KV record")
}

/// [`decode_blob`] for blobs that may not be well-formed KV records:
/// the GC sweep can encounter torn or foreign allocations, and the
/// lock-free [`KvReadView`] paths can observe a slot mid-rewrite (new
/// length prefix, stale bytes) before seqlock validation discards the
/// result — neither may panic.
fn try_decode_blob(blob: &[u8]) -> Option<(&[u8], &[u8])> {
    let (klen, rest) = blob.split_first_chunk::<KEY_LEN_PREFIX>()?;
    let klen = u16::from_le_bytes(*klen) as usize;
    rest.get(..klen).map(|key| (key, &rest[klen..]))
}

/// One shard's engine behind [`Store`]. All persistent state lives in
/// its pool region.
pub(crate) struct PmemKv<P: Pmem> {
    index: GroupHash<P, [u8; 16], u64>,
    heap: PmemHeap,
}

/// The index as the heap's [`GcOwner`]: a blob is live iff its stored
/// key's fingerprint maps to exactly that blob's pointer, and a repoint
/// is the same atomic in-place pointer swap updates use.
struct IndexOwner<'a, P: Pmem> {
    index: &'a mut GroupHash<P, [u8; 16], u64>,
}

impl<P: Pmem> GcOwner<P> for IndexOwner<'_, P> {
    fn is_live(&mut self, pm: &P, ptr: PmemPtr, blob: &[u8]) -> bool {
        // A blob that doesn't parse as a KV record can't be referenced by
        // the index — it's garbage from a crashed writer.
        let Some((key, _)) = try_decode_blob(blob) else {
            return false;
        };
        self.index.get(pm, &fingerprint(key)) == Some(ptr.0)
    }

    fn repoint(&mut self, pm: &mut P, old: PmemPtr, new: PmemPtr, blob: &[u8]) -> bool {
        let Some((key, _)) = try_decode_blob(blob) else {
            return false;
        };
        let fp = fingerprint(key);
        // Re-check under the same borrow: decline if the entry moved on.
        if self.index.get(pm, &fp) != Some(old.0) {
            return false;
        }
        self.index.update_in_place(pm, &fp, new.0)
    }
}

impl<P: Pmem> PmemKv<P> {
    /// Header: magic + the four config words (self-describing pools).
    const HEADER_LEN: usize = 40;

    fn split(region: Region, config: &KvConfig) -> Result<(Region, Region, Region), KvError> {
        let index_cfg = Self::index_config(config);
        let index_size = GroupHash::<P, [u8; 16], u64>::required_size(&index_cfg);
        let heap_cfg = HeapConfig::balanced(config.heap_bytes);
        let heap_size = PmemHeap::required_size(&heap_cfg);
        let mut alloc = RegionAllocator::new(region.off, region.end());
        if region.len < Self::HEADER_LEN + index_size + heap_size + 320 {
            return Err(KvError::Layout(format!(
                "region too small: {} < {}",
                region.len,
                Self::HEADER_LEN + index_size + heap_size + 320
            )));
        }
        let header_r = alloc.alloc_lines(Self::HEADER_LEN);
        let index_r = alloc.alloc_lines(index_size);
        let heap_r = alloc.alloc_lines(heap_size);
        Ok((header_r, index_r, heap_r))
    }

    fn index_config(config: &KvConfig) -> GroupHashConfig {
        GroupHashConfig::new(config.index_cells_per_level, config.group_size)
            .with_seed(config.seed)
            .with_fp_mode(config.fp)
            .with_commit(match config.consistency {
                ConsistencyMode::None => CommitStrategy::AtomicBitmap,
                ConsistencyMode::UndoLog => CommitStrategy::UndoLog,
            })
    }

    /// Pool bytes needed for `config`.
    pub fn required_size(config: &KvConfig) -> usize {
        let index_cfg = Self::index_config(config);
        Self::HEADER_LEN
            + GroupHash::<P, [u8; 16], u64>::required_size(&index_cfg)
            + PmemHeap::required_size(&HeapConfig::balanced(config.heap_bytes))
            + 576
    }

    /// Creates a fresh store in `region`.
    pub fn create(pm: &mut P, region: Region, config: &KvConfig) -> Result<Self, KvError> {
        let (header_r, index_r, heap_r) = Self::split(region, config)?;
        let index = GroupHash::create(pm, index_r, Self::index_config(config))
            .map_err(KvError::Table)?;
        let heap = PmemHeap::create(pm, heap_r, &HeapConfig::balanced(config.heap_bytes))
            .map_err(KvError::Heap)?;
        // Self-describing header: config words first, magic last.
        pm.write_u64(header_r.off + 8, config.index_cells_per_level);
        pm.write_u64(header_r.off + 16, config.group_size);
        pm.write_u64(header_r.off + 24, config.heap_bytes);
        pm.write_u64(header_r.off + 32, config.seed);
        pm.persist(header_r.off, Self::HEADER_LEN);
        pm.atomic_write_u64(header_r.off, MAGIC);
        pm.persist(header_r.off, 8);
        Ok(PmemKv { index, heap })
    }

    /// Reads the persisted configuration of a store in `region`.
    fn read_config(pm: &P, region: Region) -> Result<KvConfig, KvError> {
        let off = align_up(region.off, CACHELINE);
        if !region.contains(off, Self::HEADER_LEN) {
            return Err(KvError::Layout("region too small for a KV header".into()));
        }
        if pm.read_u64(off) != MAGIC {
            return Err(KvError::Layout("KV magic mismatch".into()));
        }
        Ok(KvConfig {
            index_cells_per_level: pm.read_u64(off + 8),
            group_size: pm.read_u64(off + 16),
            heap_bytes: pm.read_u64(off + 24),
            seed: pm.read_u64(off + 32),
            // Index modes live in the index's *own* persisted header
            // (flag word), which `GroupHash::open` restores; the layout
            // is mode-independent, so reopening never needs them.
            fp: FpMode::default(),
            consistency: ConsistencyMode::default(),
        })
    }

    /// Re-opens a store from its persisted header — no configuration
    /// needed.
    pub fn open(pm: &mut P, region: Region) -> Result<Self, KvError> {
        let config = Self::read_config(pm, region)?;
        let (_, index_r, heap_r) = Self::split(region, &config)?;
        let index = GroupHash::open(pm, index_r).map_err(KvError::Table)?;
        let heap = PmemHeap::open(pm, heap_r).map_err(KvError::Heap)?;
        Ok(PmemKv { index, heap })
    }

    /// Reads the blob behind an index entry and checks the stored key.
    fn load_checked(&self, pm: &P, ptr: u64, key: &[u8]) -> Option<Vec<u8>> {
        let blob = self.heap.read(pm, PmemPtr(ptr)).ok()?;
        let (stored_key, value) = decode_blob(&blob);
        (stored_key == key).then(|| value.to_vec())
    }

    /// Stores many pairs with fence-coalesced heap *and* index commits.
    ///
    /// All K blobs commit through one [`PmemHeap::alloc_batch`] (2
    /// fences for the whole batch instead of 2 per blob); then updates
    /// swap their 8-byte pointer in place and free the old blob, and
    /// fresh keys group-commit through the index's batch insert (~K+2
    /// fences instead of 3K). A batch of K fresh inserts therefore costs
    /// ~K+4 fences end to end — the engine-level realization of the
    /// paper's group-commit arithmetic. Crash
    /// ordering is unchanged: blobs commit before index entries, and a
    /// crash mid-batch durably keeps some prefix of the new entries
    /// (the rest leak and [`PmemKv::gc`] reclaims them). A batch of one
    /// is the single-key write.
    ///
    /// Duplicate keys within the batch collapse in DRAM (last write
    /// wins) before anything touches the pool. If the heap cannot place
    /// every blob, *nothing* is stored; on `IndexFull` the
    /// already-committed prefix stays stored and the unindexed blobs
    /// are rolled back.
    pub fn set_batch(&mut self, pm: &mut P, items: &[(&[u8], &[u8])]) -> Result<(), KvError> {
        if items.is_empty() {
            return Ok(());
        }
        // Pass one (DRAM only): collapse duplicate keys, last write wins.
        let mut ops: Vec<([u8; 16], &[u8], &[u8])> = Vec::with_capacity(items.len());
        let mut at: HashMap<[u8; 16], usize> = HashMap::new();
        for &(key, value) in items {
            let fp = fingerprint(key);
            match at.get(&fp) {
                Some(&i) => ops[i] = (fp, key, value),
                None => {
                    at.insert(fp, ops.len());
                    ops.push((fp, key, value));
                }
            }
        }
        // Pass two: commit every blob with one fence-coalesced heap
        // batch. On failure the heap committed nothing, so neither did
        // the store.
        let blobs = ops
            .iter()
            .map(|(_, k, v)| encode_blob(k, v))
            .collect::<Result<Vec<_>, _>>()?;
        let blob_refs: Vec<&[u8]> = blobs.iter().map(|b| b.as_slice()).collect();
        let ptrs = self.heap.alloc_batch(pm, &blob_refs)?;
        // Pass three: updates apply immediately (the pointer swap is
        // already a single atomic); fresh keys defer into one index
        // batch.
        let mut pending: Vec<([u8; 16], u64)> = Vec::new();
        for ((fp, _, _), ptr) in ops.iter().zip(&ptrs) {
            match self.index.get(pm, fp) {
                Some(old_ptr) => {
                    let swapped = self.index.update_in_place(pm, fp, ptr.0);
                    debug_assert!(swapped);
                    let _ = self.heap.free(pm, PmemPtr(old_ptr));
                }
                None => pending.push((*fp, ptr.0)),
            }
        }
        if pending.is_empty() {
            return Ok(());
        }
        match self.index.insert_batch(pm, &pending) {
            Ok(()) => Ok(()),
            Err(e) => {
                for (_, ptr) in &pending[e.committed..] {
                    let _ = self.heap.free(pm, PmemPtr(*ptr));
                }
                match e.error {
                    InsertError::TableFull => Err(KvError::IndexFull),
                    err => unreachable!("insert_batch: {err}"),
                }
            }
        }
    }

    /// Deletes many keys with one fence-coalesced index commit per chunk;
    /// returns how many were present and removed. Index entries retract
    /// first, then the blobs free — a crash between the two leaks, which
    /// [`PmemKv::gc`] reclaims.
    pub fn delete_batch(&mut self, pm: &mut P, keys: &[&[u8]]) -> usize {
        let mut fps: Vec<[u8; 16]> = Vec::new();
        let mut ptrs: Vec<u64> = Vec::new();
        let mut seen: HashSet<[u8; 16]> = HashSet::new();
        for key in keys {
            let fp = fingerprint(key);
            if seen.contains(&fp) {
                continue; // duplicate key in the batch
            }
            let Some(ptr) = self.index.get(pm, &fp) else {
                continue;
            };
            // Verify before destroying (fingerprint collision paranoia).
            if self.load_checked(pm, ptr, key).is_none() {
                continue;
            }
            seen.insert(fp);
            fps.push(fp);
            ptrs.push(ptr);
        }
        let removed = self.index.remove_batch(pm, &fps);
        debug_assert_eq!(removed, fps.len());
        for ptr in ptrs {
            let _ = self.heap.free(pm, PmemPtr(ptr));
        }
        removed
    }

    /// Number of entries.
    pub fn len(&self, pm: &P) -> u64 {
        self.index.len(pm)
    }

    /// Post-crash recovery: repairs the index (Algorithm 4), then runs
    /// the heap drainer until every unreachable blob — leaked by a crash
    /// mid-`set_batch`/`delete_batch` or orphaned by an interrupted GC
    /// move — is reclaimed, so afterwards *every* heap slot is referenced
    /// by the index (`usage()` entries == slots). Returns the number of
    /// leaks reclaimed.
    pub fn recover(&mut self, pm: &mut P) -> u64 {
        self.index.recover(pm);
        self.gc(pm)
    }

    /// Reclaims unreachable heap blobs by running the heap's GC drainer
    /// to completion (resuming an interrupted pass first). Returns the
    /// number reclaimed.
    pub fn gc(&mut self, pm: &mut P) -> u64 {
        let mut owner = IndexOwner {
            index: &mut self.index,
        };
        self.heap
            .gc_full(pm, &mut owner)
            .expect("heap GC over its own pointers cannot fail")
    }

    /// Runs one bounded GC increment over up to `max_slots` heap slots —
    /// the online counterpart of [`PmemKv::recover`]'s sweep: a persisted
    /// cursor makes the drain resumable across crashes, dead blobs are
    /// freed, and live blobs in sparse slabs are compacted with at most
    /// one transient duplicate. Returns `Ok(true)` while the pass is
    /// incomplete.
    pub fn gc_step(&mut self, pm: &mut P, max_slots: u64) -> Result<bool, KvError> {
        let mut owner = IndexOwner {
            index: &mut self.index,
        };
        self.heap
            .gc_step(pm, max_slots, &mut owner)
            .map_err(KvError::Heap)
    }

    /// Structural validation: index invariants, every index pointer
    /// resolves to an allocated blob whose stored key fingerprints back
    /// to its index cell, and no two entries share a blob.
    pub fn check_consistency(&self, pm: &P) -> Result<(), KvError> {
        self.index.check_consistency(pm)?;
        let mut entries = Vec::new();
        self.index.for_each_entry(pm, |fp, ptr| {
            entries.push((fp, ptr));
        });
        let mut seen = HashSet::new();
        for (fp, ptr) in entries {
            if !seen.insert(ptr) {
                return Err(KvError::Corrupt(format!("blob {ptr:#x} referenced twice")));
            }
            let blob = self
                .heap
                .read(pm, PmemPtr(ptr))
                .map_err(|e| KvError::Corrupt(format!("index points at bad blob: {e}")))?;
            let (key, _) = decode_blob(&blob);
            if fingerprint(key) != fp {
                return Err(KvError::Corrupt(format!(
                    "blob {ptr:#x} key does not match its fingerprint"
                )));
            }
        }
        Ok(())
    }

    /// Visits every `(key, value)` pair (order unspecified).
    pub fn for_each(&self, pm: &P, mut f: impl FnMut(&[u8], &[u8])) {
        let mut ptrs = Vec::new();
        self.index.for_each_entry(pm, |_, ptr| ptrs.push(ptr));
        for ptr in ptrs {
            if let Ok(blob) = self.heap.read(pm, PmemPtr(ptr)) {
                let (k, v) = decode_blob(&blob);
                f(k, v);
            }
        }
    }

    /// (index entries, heap slots allocated) — equal when there are no
    /// leaks.
    pub fn usage(&self, pm: &P) -> (u64, u64) {
        (self.index.len(pm), self.heap.allocated(pm))
    }

    /// The heap's fragmentation snapshot (live blob bytes vs allocated
    /// and total slot bytes) — the byte-level counterpart of
    /// [`PmemKv::usage`].
    pub fn frag_stats(&self, pm: &P) -> FragStats {
        self.heap.frag_stats(pm)
    }

    /// Captures a [`KvReadView`]: a read-only lookup facade over the
    /// index's [`GroupReadView`] and the heap geometry, usable through
    /// any [`PmemRead`] handle (e.g. [`Pmem::read_handle`] clones handed
    /// to reader threads). The view holds no pool bytes, so it stays
    /// valid across mutations; concurrent use needs an external
    /// validation protocol, exactly as for `GroupReadView`.
    pub fn read_view(&self) -> KvReadView {
        KvReadView {
            index: self.index.read_view(),
            heap: self.heap.read_view(),
        }
    }
}

/// A read-only facade over one shard: fingerprint the key, probe the
/// index through a [`GroupReadView`], then read + verify the heap blob —
/// all through a bare [`PmemRead`] handle, no `&mut` pool access.
#[derive(Debug, Clone)]
pub struct KvReadView {
    index: GroupReadView<[u8; 16], u64>,
    heap: HeapReadView,
}

impl KvReadView {
    /// Fetches `key`'s value. Dangling index pointers and torn blobs
    /// (possible only when racing a writer without a validation
    /// protocol — the caller's seqlock retry then yields the correct
    /// answer) read as `None`.
    pub fn get<R: PmemRead>(&self, pm: &R, key: &[u8]) -> Option<Vec<u8>> {
        let ptr = self.index.get(pm, &fingerprint(key))?;
        let blob = self.heap.read(pm, PmemPtr(ptr)).ok()?;
        let (stored_key, value) = try_decode_blob(&blob)?;
        (stored_key == key).then(|| value.to_vec())
    }

    /// Fetches many keys at once through a bare read handle, one answer
    /// per key in input order — the same results as [`KvReadView::get`]
    /// per key, pipelined for NVM latency: fingerprint everything, probe
    /// the index via the vectorized [`GroupReadView::get_batch`]
    /// (which prefetches every candidate line before comparing any),
    /// software-prefetch every hit's blob line, then decode + key-verify.
    /// A pure read: zero flushes, zero fences, zero writes.
    pub fn get_batch<R: PmemRead>(&self, pm: &R, keys: &[&[u8]]) -> Vec<Option<Vec<u8>>> {
        let fps: Vec<[u8; 16]> = keys.iter().map(|k| fingerprint(k)).collect();
        let ptrs = self.index.get_batch(pm, &fps);
        for ptr in ptrs.iter().flatten() {
            pm.prefetch(*ptr as usize, 8);
        }
        keys.iter()
            .zip(ptrs)
            .map(|(key, ptr)| {
                let blob = self.heap.read(pm, PmemPtr(ptr?)).ok()?;
                let (stored_key, value) = try_decode_blob(&blob)?;
                (stored_key == *key).then(|| value.to_vec())
            })
            .collect()
    }

    /// Whether `key` is stored.
    pub fn contains<R: PmemRead>(&self, pm: &R, key: &[u8]) -> bool {
        self.get(pm, key).is_some()
    }
}

#[cfg(test)]
mod tests {
    // The engine tests exercise `PmemKv` directly, below the `Store`
    // facade: writes through one-item batches, reads through the view.

    use super::*;
    use nvm_alloc::LEN_PREFIX;
    use nvm_pmem::{CrashResolution, SimConfig, SimPmem};

    fn setup(items: u64) -> (SimPmem, PmemKv<SimPmem>, Region, KvConfig) {
        setup_avg(items, 64)
    }

    fn setup_avg(items: u64, avg_value: u64) -> (SimPmem, PmemKv<SimPmem>, Region, KvConfig) {
        let cfg = KvConfig::for_capacity(items, avg_value);
        let size = PmemKv::<SimPmem>::required_size(&cfg);
        let mut pm = SimPmem::new(size, SimConfig::fast_test());
        let region = Region::new(0, size);
        let kv = PmemKv::create(&mut pm, region, &cfg).unwrap();
        (pm, kv, region, cfg)
    }

    fn set(
        kv: &mut PmemKv<SimPmem>,
        pm: &mut SimPmem,
        key: &[u8],
        value: &[u8],
    ) -> Result<(), KvError> {
        kv.set_batch(pm, &[(key, value)])
    }

    fn delete(kv: &mut PmemKv<SimPmem>, pm: &mut SimPmem, key: &[u8]) -> bool {
        kv.delete_batch(pm, &[key]) == 1
    }

    fn get(kv: &PmemKv<SimPmem>, pm: &SimPmem, key: &[u8]) -> Option<Vec<u8>> {
        kv.read_view().get(pm, key)
    }

    #[test]
    fn set_get_delete_roundtrip() {
        let (mut pm, mut kv, _, _) = setup(100);
        set(&mut kv, &mut pm, b"user:1", b"ada").unwrap();
        set(&mut kv, &mut pm, b"user:2", b"grace").unwrap();
        assert_eq!(get(&kv, &pm, b"user:1").as_deref(), Some(&b"ada"[..]));
        assert_eq!(get(&kv, &pm, b"user:2").as_deref(), Some(&b"grace"[..]));
        assert_eq!(get(&kv, &pm, b"user:3"), None);
        assert!(delete(&mut kv, &mut pm, b"user:1"));
        assert_eq!(get(&kv, &pm, b"user:1"), None);
        assert!(!delete(&mut kv, &mut pm, b"user:1"));
        assert_eq!(kv.len(&pm), 1);
        kv.check_consistency(&pm).unwrap();
        assert_eq!(kv.usage(&pm), (1, 1));
    }

    #[test]
    fn batch_set_get_delete_roundtrip() {
        let (mut pm, mut kv, _, _) = setup(300);
        set(&mut kv, &mut pm, b"pre", b"existing").unwrap();
        let items: Vec<(Vec<u8>, Vec<u8>)> = (0..100u32)
            .map(|i| (format!("bk-{i}").into_bytes(), vec![i as u8; 16]))
            .collect();
        let refs: Vec<(&[u8], &[u8])> = items
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        kv.set_batch(&mut pm, &refs).unwrap();
        for (k, v) in &items {
            assert_eq!(get(&kv, &pm, k).as_deref(), Some(v.as_slice()));
        }
        assert_eq!(kv.len(&pm), 101);
        // Updates and duplicate keys inside one batch: last write wins.
        kv.set_batch(
            &mut pm,
            &[
                (b"pre".as_slice(), b"updated".as_slice()),
                (b"dup".as_slice(), b"first".as_slice()),
                (b"dup".as_slice(), b"second".as_slice()),
            ],
        )
        .unwrap();
        assert_eq!(get(&kv, &pm, b"pre").as_deref(), Some(&b"updated"[..]));
        assert_eq!(get(&kv, &pm, b"dup").as_deref(), Some(&b"second"[..]));
        kv.check_consistency(&pm).unwrap();
        // Batch delete with a duplicate and a missing key mixed in.
        let kill: Vec<&[u8]> = vec![
            b"bk-0".as_slice(),
            b"bk-1".as_slice(),
            b"bk-1".as_slice(),
            b"missing".as_slice(),
            b"dup".as_slice(),
        ];
        assert_eq!(kv.delete_batch(&mut pm, &kill), 3);
        assert_eq!(get(&kv, &pm, b"bk-0"), None);
        assert_eq!(get(&kv, &pm, b"dup"), None);
        kv.check_consistency(&pm).unwrap();
        let (entries, slots) = kv.usage(&pm);
        assert_eq!(entries, slots, "batch ops leaked heap slots");
    }

    #[test]
    fn read_view_treats_torn_blobs_as_misses_without_panicking() {
        // A lock-free reader racing a writer can observe a slot whose
        // length fields are newer than its payload bytes. The view must
        // degrade to a miss (the caller's seqlock retry corrects it),
        // never slice out of bounds or panic.
        let (mut pm, mut kv, _, _) = setup(64);
        set(&mut kv, &mut pm, b"k", b"value").unwrap();
        let view = kv.read_view();
        assert_eq!(view.get(&pm, b"k").as_deref(), Some(&b"value"[..]));
        let mut ptr = 0;
        kv.index.for_each_entry(&pm, |_, p| ptr = p);

        // Torn key-length field: klen runs past the blob's end.
        pm.write(ptr as usize + LEN_PREFIX, &[0xFF; KEY_LEN_PREFIX]);
        assert_eq!(view.get(&pm, b"k"), None);
        assert_eq!(view.get_batch(&pm, &[b"k".as_slice()]), vec![None]);

        // Torn slot-length prefix: blob length exceeds the slot capacity.
        pm.write(ptr as usize, &[0xFF; LEN_PREFIX]);
        assert_eq!(view.get(&pm, b"k"), None);
        assert_eq!(view.get_batch(&pm, &[b"k".as_slice()]), vec![None]);
    }

    #[test]
    fn config_builders_override_fields() {
        let cfg = KvConfig::for_capacity(100, 64)
            .with_index_cells_per_level(256)
            .with_group_size(32)
            .with_heap_bytes(1 << 16)
            .with_seed(9);
        assert_eq!(cfg.index_cells_per_level, 256);
        assert_eq!(cfg.group_size, 32);
        assert_eq!(cfg.heap_bytes, 1 << 16);
        assert_eq!(cfg.seed, 9);
        let size = PmemKv::<SimPmem>::required_size(&cfg);
        let mut pm = SimPmem::new(size, SimConfig::fast_test());
        let mut kv = PmemKv::create(&mut pm, Region::new(0, size), &cfg).unwrap();
        set(&mut kv, &mut pm, b"a", b"b").unwrap();
        assert_eq!(get(&kv, &pm, b"a").as_deref(), Some(&b"b"[..]));
    }

    #[test]
    fn update_replaces_and_reclaims() {
        let (mut pm, mut kv, _, _) = setup(100);
        set(&mut kv, &mut pm, b"k", b"small").unwrap();
        set(&mut kv, &mut pm, b"k", b"a much longer value that needs a bigger class")
            .unwrap();
        assert_eq!(
            get(&kv, &pm, b"k").as_deref(),
            Some(&b"a much longer value that needs a bigger class"[..])
        );
        // No leak: old blob was freed.
        assert_eq!(kv.usage(&pm), (1, 1));
        kv.check_consistency(&pm).unwrap();
    }

    #[test]
    fn variable_sizes_and_many_keys() {
        let (mut pm, mut kv, _, _) = setup_avg(500, 256);
        for i in 0..300u32 {
            let key = format!("key-{i}");
            let value = vec![i as u8; (i % 200) as usize];
            set(&mut kv, &mut pm, key.as_bytes(), &value).unwrap();
        }
        for i in 0..300u32 {
            let key = format!("key-{i}");
            assert_eq!(
                get(&kv, &pm, key.as_bytes()),
                Some(vec![i as u8; (i % 200) as usize]),
                "{key}"
            );
        }
        assert_eq!(kv.len(&pm), 300);
        kv.check_consistency(&pm).unwrap();
    }

    #[test]
    fn reopen_preserves_store() {
        let (mut pm, mut kv, region, _cfg) = setup(100);
        set(&mut kv, &mut pm, b"alpha", b"1").unwrap();
        set(&mut kv, &mut pm, b"beta", b"2").unwrap();
        drop(kv);
        let kv2 = PmemKv::open(&mut pm, region).unwrap();
        assert_eq!(get(&kv2, &pm, b"alpha").as_deref(), Some(&b"1"[..]));
        assert_eq!(kv2.len(&pm), 2);
        kv2.check_consistency(&pm).unwrap();
    }

    #[test]
    fn pools_stamped_with_the_old_record_format_are_refused() {
        // Pools whose slots carry 8-byte length prefixes and u32 key
        // lengths wear the previous magics; reading them with the
        // current layout would misparse every record.
        const OLD_KV_MAGIC: u64 = 0x4E56_4B56_5354_5231; // "NVKVSTR1"
        const OLD_HEAP_MAGIC: u64 = 0x4E56_4845_4150_3031; // "NVHEAP01"
        let (mut pm, mut kv, region, _) = setup(100);
        set(&mut kv, &mut pm, b"alpha", b"1").unwrap();
        let kv_magic = align_up(region.off, CACHELINE);
        let heap_magic = align_up(kv.heap.region().off, CACHELINE);
        drop(kv);
        pm.atomic_write_u64(kv_magic, OLD_KV_MAGIC);
        pm.atomic_write_u64(heap_magic, OLD_HEAP_MAGIC);
        assert!(matches!(
            PmemKv::open(&mut pm, region),
            Err(KvError::Layout(_))
        ));
        // Even behind a current KV header, an old heap is refused.
        pm.atomic_write_u64(kv_magic, MAGIC);
        assert!(matches!(
            PmemKv::open(&mut pm, region),
            Err(KvError::Heap(AllocError::BadHeader(_)))
        ));
    }

    /// A ycsb record — 16 B key, 104 B stored value — is 126 B with its
    /// 2 B key length and 4 B slot length, so it fits the line-aligned
    /// 128 B class and persists exactly two heap data lines. The whole
    /// one-item insert's budget is pinned beside it.
    #[test]
    fn ycsb_record_persists_two_heap_data_lines() {
        let (mut pm, mut kv, _, _) = setup(100);
        let (key, value) = (b"key:000000000042", [0x5A; 104]);
        assert_eq!(LEN_PREFIX + KEY_LEN_PREFIX + key.len() + value.len(), 126);
        pm.reset_stats();
        pm.reset_wear();
        set(&mut kv, &mut pm, key, &value).unwrap();
        let st = pm.stats();
        let data_lines: u64 = kv
            .heap
            .slab_regions()
            .iter()
            .map(|r| pm.wear_range_summary(r.off, r.len).0)
            .sum();
        assert_eq!(data_lines, 2, "the record must fill exactly two lines");
        // Heap: 2 data lines + 1 bitmap line under 2 fences; index: the
        // one-item group commit's 3 flushes under K+2 = 3 fences.
        assert_eq!((st.flushes, st.fences), (6, 5));
        assert_eq!(get(&kv, &pm, key).as_deref(), Some(&value[..]));
    }

    #[test]
    fn gc_reclaims_orphans() {
        let (mut pm, mut kv, _, _) = setup(100);
        set(&mut kv, &mut pm, b"live", b"v").unwrap();
        // Fabricate a leak: allocate directly in the heap, bypassing the
        // index (exactly the state a crash between blob and index commit
        // leaves behind).
        kv.heap.alloc(&mut pm, b"orphan").unwrap();
        assert_eq!(kv.usage(&pm), (1, 2));
        assert_eq!(kv.gc(&mut pm), 1);
        assert_eq!(kv.usage(&pm), (1, 1));
        assert_eq!(get(&kv, &pm, b"live").as_deref(), Some(&b"v"[..]));
        kv.check_consistency(&pm).unwrap();
    }

    #[test]
    fn crash_anywhere_in_set_update_delete_is_safe() {
        use nvm_pmem::{run_with_crash, CrashPlan};
        let (mut pm0, mut kv0, region, _cfg) = setup(64);
        set(&mut kv0, &mut pm0, b"stable", b"rock").unwrap();
        set(&mut kv0, &mut pm0, b"victim", b"old-value").unwrap();

        // Three in-flight ops to crash: fresh set, update, delete.
        type OpFn = fn(&mut PmemKv<SimPmem>, &mut SimPmem);
        let ops: [(&str, OpFn); 3] = [
            ("set-new", |kv, pm| set(kv, pm, b"fresh", b"new").unwrap()),
            ("update", |kv, pm| {
                set(kv, pm, b"victim", b"new-value").unwrap()
            }),
            ("delete", |kv, pm| {
                assert!(delete(kv, pm, b"victim"));
            }),
        ];
        for (name, op) in ops {
            let mut at = 0u64;
            loop {
                let mut pm = pm0.clone();
                let mut kv = PmemKv::open(&mut pm, region).unwrap();
                let base = pm.events();
                pm.set_crash_plan(Some(CrashPlan {
                    at_event: base + at,
                }));
                let done = run_with_crash(|| op(&mut kv, &mut pm)).is_ok();
                pm.crash(CrashResolution::Random(at));

                let mut kv = PmemKv::open(&mut pm, region).unwrap();
                let leaks = kv.recover(&mut pm);
                kv.check_consistency(&pm)
                    .unwrap_or_else(|e| panic!("{name} crash at +{at}: {e}"));
                // Stable entry always intact.
                assert_eq!(
                    get(&kv, &pm, b"stable").as_deref(),
                    Some(&b"rock"[..]),
                    "{name} at +{at}"
                );
                // The targeted key is in a sane pre- or post-state.
                match name {
                    "set-new" => {
                        let got = get(&kv, &pm, b"fresh");
                        assert!(
                            got.is_none() || got.as_deref() == Some(b"new"),
                            "{name} at +{at}: {got:?}"
                        );
                    }
                    "update" => {
                        let got = get(&kv, &pm, b"victim");
                        assert!(
                            got.as_deref() == Some(b"old-value")
                                || got.as_deref() == Some(b"new-value"),
                            "{name} at +{at}: {got:?}"
                        );
                    }
                    "delete" => {
                        let got = get(&kv, &pm, b"victim");
                        assert!(
                            got.is_none() || got.as_deref() == Some(b"old-value"),
                            "{name} at +{at}: {got:?}"
                        );
                    }
                    _ => unreachable!(),
                }
                // After recovery there are never leaks left behind.
                let (entries, slots) = kv.usage(&pm);
                assert_eq!(entries, slots, "{name} at +{at}: leak survived gc ({leaks})");
                if done {
                    break;
                }
                at += 1;
                assert!(at < 300, "{name}: op never completed");
            }
        }
    }

    #[test]
    fn crash_anywhere_during_set_batch_recovers_leaks() {
        use nvm_pmem::{run_with_crash, CrashPlan};
        let (mut pm0, mut kv0, region, _cfg) = setup(128);
        set(&mut kv0, &mut pm0, b"stable", b"rock").unwrap();
        set(&mut kv0, &mut pm0, b"upd-a", b"old-a").unwrap();
        set(&mut kv0, &mut pm0, b"upd-b", b"old-b").unwrap();
        drop(kv0);

        // Fresh inserts, two updates, and an in-batch duplicate: every
        // branch of the two-stage (blobs first, grouped index commit
        // second) choreography gets a crash window.
        let fresh: Vec<(Vec<u8>, Vec<u8>)> = (0..6u32)
            .map(|i| (format!("bf-{i}").into_bytes(), vec![0x40 + i as u8; 24]))
            .collect();
        let mut items: Vec<(&[u8], &[u8])> = fresh
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        items.push((b"upd-a", b"new-a"));
        items.push((b"upd-b", b"new-b"));
        items.push((b"dupk", b"first"));
        items.push((b"dupk", b"second"));

        let mut at = 0u64;
        loop {
            let mut pm = pm0.clone();
            let mut kv = PmemKv::open(&mut pm, region).unwrap();
            let base = pm.events();
            pm.set_crash_plan(Some(CrashPlan {
                at_event: base + at,
            }));
            let done = run_with_crash(|| kv.set_batch(&mut pm, &items).unwrap()).is_ok();
            pm.crash(CrashResolution::Random(at));

            let mut kv = PmemKv::open(&mut pm, region).unwrap();
            let leaks = kv.recover(&mut pm);
            kv.check_consistency(&pm)
                .unwrap_or_else(|e| panic!("crash at +{at}: {e}"));
            assert_eq!(
                get(&kv, &pm, b"stable").as_deref(),
                Some(&b"rock"[..]),
                "at +{at}"
            );
            // Every batch key is in a sane pre- or post-state; torn
            // values never surface.
            for (i, (k, _)) in fresh.iter().enumerate() {
                let got = get(&kv, &pm, k);
                assert!(
                    got.is_none() || got.as_deref() == Some(&[0x40 + i as u8; 24][..]),
                    "bf-{i} at +{at}: {got:?}"
                );
            }
            for (k, old, new) in [
                (&b"upd-a"[..], &b"old-a"[..], &b"new-a"[..]),
                (&b"upd-b"[..], &b"old-b"[..], &b"new-b"[..]),
            ] {
                let got = get(&kv, &pm, k);
                assert!(
                    got.as_deref() == Some(old) || got.as_deref() == Some(new),
                    "update at +{at}: {got:?}"
                );
            }
            // In-batch last-write-wins resolves in DRAM before the index
            // commit, so the first duplicate's value is never visible.
            let got = get(&kv, &pm, b"dupk");
            assert!(
                got.is_none() || got.as_deref() == Some(b"second"),
                "dupk at +{at}: {got:?}"
            );
            // The recovery sweep reclaimed every blob the index can't
            // reach: committed blobs awaiting their index entry, new
            // update blobs never swapped in, old update blobs never
            // freed.
            let (entries, slots) = kv.usage(&pm);
            assert_eq!(
                entries, slots,
                "at +{at}: leak survived recovery (reclaimed {leaks})"
            );

            // Re-running the batch converges on the post state.
            kv.set_batch(&mut pm, &items).unwrap();
            for (i, (k, _)) in fresh.iter().enumerate() {
                assert_eq!(get(&kv, &pm, k), Some(vec![0x40 + i as u8; 24]), "at +{at}");
            }
            assert_eq!(get(&kv, &pm, b"upd-a").as_deref(), Some(&b"new-a"[..]));
            assert_eq!(get(&kv, &pm, b"dupk").as_deref(), Some(&b"second"[..]));
            kv.check_consistency(&pm).unwrap();
            let (entries, slots) = kv.usage(&pm);
            assert_eq!(entries, slots, "at +{at}: leak after replay");

            if done {
                break;
            }
            at += 1;
            assert!(at < 5000, "set_batch never completed");
        }
    }

    #[test]
    fn crash_anywhere_during_gc_step_is_safe() {
        use nvm_pmem::{run_with_crash, CrashPlan};
        let (mut pm0, mut kv0, region, _cfg) = setup(96);
        // Live entries, then churn: delete most of them so slabs go
        // sparse and the drainer's compactor has real work to do.
        let n = 24u32;
        for i in 0..n {
            set(&mut kv0, &mut pm0, format!("gk-{i}").as_bytes(), &[i as u8; 20])
                .unwrap();
        }
        let survivors: Vec<u32> = (0..n).filter(|i| i % 6 == 0).collect();
        for i in 0..n {
            if !survivors.contains(&i) {
                assert!(delete(&mut kv0, &mut pm0, format!("gk-{i}").as_bytes()));
            }
        }
        // Fabricate leaked blobs — both well-formed KV records whose keys
        // the index never saw, and raw garbage that doesn't even decode —
        // exactly what crashed writers leave behind.
        for i in 0..4u32 {
            kv0.heap
                .alloc(
                    &mut pm0,
                    &encode_blob(format!("ghost-{i}").as_bytes(), &[0xEE; 12]).unwrap(),
                )
                .unwrap();
        }
        kv0.heap.alloc(&mut pm0, b"not a kv record").unwrap();
        let (entries0, slots0) = kv0.usage(&pm0);
        assert_eq!(entries0, survivors.len() as u64);
        assert_eq!(slots0, entries0 + 5, "fixture must start leaky");
        drop(kv0);

        let mut at = 0u64;
        loop {
            let mut pm = pm0.clone();
            let mut kv = PmemKv::open(&mut pm, region).unwrap();
            let base = pm.events();
            pm.set_crash_plan(Some(CrashPlan {
                at_event: base + at,
            }));
            let done = run_with_crash(|| {
                while kv.gc_step(&mut pm, 4).unwrap() {}
            })
            .is_ok();
            pm.crash(CrashResolution::Random(at));

            // A crash mid-compaction may leave the moved blob's old or
            // new copy unreferenced; recovery resumes the persisted
            // cursor, finishes the pass, and sweeps again.
            let mut kv = PmemKv::open(&mut pm, region).unwrap();
            kv.recover(&mut pm);
            assert!(!kv.heap.gc_pending(&pm), "pass still pending at +{at}");
            kv.check_consistency(&pm)
                .unwrap_or_else(|e| panic!("crash at +{at}: {e}"));
            for &i in &survivors {
                assert_eq!(
                    get(&kv, &pm, format!("gk-{i}").as_bytes()),
                    Some(vec![i as u8; 20]),
                    "gk-{i} lost at +{at}"
                );
            }
            assert_eq!(kv.len(&pm), survivors.len() as u64, "at +{at}");
            let (entries, slots) = kv.usage(&pm);
            assert_eq!(entries, slots, "at +{at}: GC crash left a permanent leak");

            if done {
                break;
            }
            at += 1;
            assert!(at < 5000, "gc pass never completed");
        }
    }

    #[test]
    fn read_view_reads_through_a_bare_handle() {
        let (mut pm, mut kv, _, _) = setup(200);
        for i in 0..100u32 {
            set(&mut kv, &mut pm, format!("rv-{i}").as_bytes(), &[i as u8; 12]).unwrap();
        }
        let view = kv.read_view();
        let reader = pm.read_handle();
        for i in 0..100u32 {
            let key = format!("rv-{i}");
            assert_eq!(view.get(&reader, key.as_bytes()), Some(vec![i as u8; 12]), "{key}");
            assert!(view.contains(&reader, key.as_bytes()));
        }
        assert_eq!(view.get(&reader, b"absent"), None);
        // The view tracks later mutations (it holds layout, not bytes).
        assert!(delete(&mut kv, &mut pm, b"rv-0"));
        assert_eq!(view.get(&reader, b"rv-0"), None);
    }

    #[test]
    fn get_batch_matches_sequential_gets() {
        let (mut pm, mut kv, _, _) = setup_avg(300, 64);
        for i in 0..200u32 {
            let value = vec![i as u8; (i % 90) as usize];
            set(&mut kv, &mut pm, format!("mb-{i}").as_bytes(), &value).unwrap();
        }
        let owned: Vec<Vec<u8>> = (0..260u32) // 200.. miss
            .map(|i| format!("mb-{i}").into_bytes())
            .chain([b"mb-7".to_vec()]) // duplicate
            .collect();
        let keys: Vec<&[u8]> = owned.iter().map(|k| k.as_slice()).collect();
        let view = kv.read_view();
        let reader = pm.read_handle();
        let batch = view.get_batch(&reader, &keys);
        assert_eq!(batch.len(), keys.len());
        for (key, got) in keys.iter().zip(&batch) {
            assert_eq!(*got, view.get(&reader, key));
        }
        assert_eq!(batch[7].as_deref(), Some(&[7u8; 7][..]));
        assert_eq!(batch[230], None);
        assert!(view.get_batch(&reader, &[]).is_empty());
        // A pure read: the batch added no persistence events.
        pm.reset_stats();
        let _ = view.get_batch(&pm, &keys);
        let s = pm.stats();
        assert_eq!(
            (s.flushes, s.fences, s.atomic_writes, s.writes),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn empty_keys_and_values() {
        let (mut pm, mut kv, _, _) = setup(32);
        set(&mut kv, &mut pm, b"", b"empty-key").unwrap();
        set(&mut kv, &mut pm, b"empty-value", b"").unwrap();
        assert_eq!(get(&kv, &pm, b"").as_deref(), Some(&b"empty-key"[..]));
        assert_eq!(get(&kv, &pm, b"empty-value").as_deref(), Some(&b""[..]));
        kv.check_consistency(&pm).unwrap();
    }

    #[test]
    fn index_full_is_clean() {
        let cfg = KvConfig {
            index_cells_per_level: 16,
            group_size: 16,
            heap_bytes: 64 * 1024,
            seed: 1,
            fp: FpMode::default(),
            consistency: ConsistencyMode::default(),
        };
        let size = PmemKv::<SimPmem>::required_size(&cfg);
        let mut pm = SimPmem::new(size, SimConfig::fast_test());
        let mut kv = PmemKv::create(&mut pm, Region::new(0, size), &cfg).unwrap();
        let mut stored = 0;
        let mut full = false;
        for i in 0..200u32 {
            match set(&mut kv, &mut pm, format!("k{i}").as_bytes(), b"v") {
                Ok(()) => stored += 1,
                Err(KvError::IndexFull) => {
                    full = true;
                    break;
                }
                Err(e) => panic!("{e}"),
            }
        }
        assert!(full, "tiny index never filled ({stored} stored)");
        // The failed insert must not leak its blob.
        let (entries, slots) = kv.usage(&pm);
        assert_eq!(entries, slots);
        kv.check_consistency(&pm).unwrap();
    }
}
