//! The heap policy layer: wear-aware placement and crash-resumable GC.
//!
//! [`PmemHeap`] owns a [`SlabStore`] plus a persisted header and decides
//! *where* allocations land:
//!
//! * **Wear-aware rotation** ([`RotationPolicy::WearAware`], the
//!   default): each size class owns several slabs, and allocation steers
//!   to the least-written eligible slab using per-slab write counters.
//!   Hot small-value churn therefore spreads across a class's slabs
//!   instead of grinding one region of the media — the same wear axis
//!   `results/wear.csv` instruments for the index.
//!   [`RotationPolicy::FirstFit`] is the no-rotation baseline the `heap`
//!   experiment compares against.
//! * **GC/compaction drainer** ([`PmemHeap::gc_step`]): a bounded,
//!   crash-resumable sweep modeled on the table's `migrate_step`. A
//!   persisted cursor walks the flat slot space; each allocated slot is
//!   checked against the *owner* (the structure holding pointers into
//!   the heap, e.g. the KV engine's index) via [`GcOwner::is_live`]. Dead
//!   slots — leaked by a crash mid-batch or orphaned by an overwrite —
//!   are freed; live slots in sparse slabs are compacted by
//!   copy-then-[`GcOwner::repoint`]-then-free, so at any crash point at
//!   most **one** duplicate blob exists and the owner's pointer always
//!   names an allocated slot. Re-running a partially-persisted cursor
//!   range is harmless: `is_live`/`repoint` are idempotent checks.
//!
//! The write counters are volatile hints (reset on re-open); all
//! *correctness* state — occupancy bitmaps, GC cursor, GC active flag —
//! is persistent and committed with single 8-byte atomic stores, per the
//! paper's consistency discipline.

use crate::classes::{ClassSpec, ClassTable, HeapConfig, MAX_CLASSES, MAX_SLABS_PER_CLASS};
use crate::slab::{read_len, SlabStore};
use crate::{AllocError, PmemPtr};
use nvm_pmem::{align_up, Pmem, PmemRead, Region, RegionAllocator, CACHELINE};

/// Magic word identifying a heap header ("NVHEAP02": slots carry a
/// 4-byte length prefix; "NVHEAP01" pools used 8 bytes and are refused).
const MAGIC: u64 = 0x4E56_4845_4150_3032;

/// Header offsets relative to the header region: magic, class count,
/// slabs per class, GC cursor, GC active flag, then per-class
/// (slot_size, slots_per_slab) pairs.
const H_MAGIC: usize = 0;
const H_NCLASSES: usize = 8;
const H_SLABS: usize = 16;
const H_GC_CURSOR: usize = 24;
const H_GC_ACTIVE: usize = 32;
const H_CLASSES: usize = 40;

/// How the heap picks a slab within a size class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RotationPolicy {
    /// Steer to the least-written eligible slab (wear leveling).
    #[default]
    WearAware,
    /// Always try slabs in index order — the no-rotation baseline.
    FirstFit,
}

/// Volatile heap counters (see `HeapCounters` in nvm-metrics for the
/// instrumented mirror).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Completed allocations.
    pub allocs: u64,
    /// Completed frees (including GC-initiated ones).
    pub frees: u64,
    /// Blobs relocated by the GC compactor.
    pub gc_moves: u64,
    /// Dead/leaked blobs reclaimed by the GC sweep.
    pub leaked_reclaimed: u64,
}

/// Fragmentation accounting from [`PmemHeap::frag_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FragStats {
    /// Bytes of live blob payload (length prefixes excluded).
    pub live_blob_bytes: u64,
    /// Bytes of slots currently allocated (slot widths, not payloads).
    pub allocated_slot_bytes: u64,
    /// Total slot bytes the heap owns.
    pub total_slot_bytes: u64,
}

/// The heap's view of the structure that owns pointers into it, consulted
/// by the GC drainer. Both calls must be idempotent — the drainer may
/// revisit a slot after a crash rolled its cursor back.
pub trait GcOwner<P: Pmem> {
    /// Whether the owner still references the blob at `ptr` (whose bytes
    /// are `blob`). Unreferenced blobs are reclaimed.
    fn is_live(&mut self, pm: &P, ptr: PmemPtr, blob: &[u8]) -> bool;

    /// Atomically retarget the owner's reference from `old` to `new`
    /// (both allocated, same bytes). Return `false` to decline — e.g. the
    /// reference changed since [`GcOwner::is_live`] — in which case the
    /// drainer frees `new` and leaves `old` in place.
    fn repoint(&mut self, pm: &mut P, old: PmemPtr, new: PmemPtr, blob: &[u8]) -> bool;
}

/// The value heap: slab store + placement policy + GC, behind one
/// persisted header.
#[derive(Debug, Clone)]
pub struct PmemHeap {
    store: SlabStore,
    table: ClassTable,
    region: Region,
    header: Region,
    rotation: RotationPolicy,
    /// Per-slab rotating allocation cursors (volatile hints).
    cursors: Vec<u64>,
    /// Per-slab write counters: slot writes from allocs + GC copy-ins
    /// (volatile hints driving wear-aware rotation).
    writes: Vec<u64>,
    stats: HeapStats,
}

impl PmemHeap {
    fn header_len(n_classes: usize) -> usize {
        H_CLASSES + n_classes * 16
    }

    /// Pool bytes needed for `config`.
    pub fn required_size(config: &HeapConfig) -> usize {
        align_up(Self::header_len(config.classes.len()), 8)
            + CACHELINE
            + SlabStore::required_size(config)
    }

    fn layout(region: Region, config: &HeapConfig) -> (Region, RegionAllocator) {
        let mut ra = RegionAllocator::new(region.off, region.end());
        let header = ra.alloc_lines(align_up(Self::header_len(config.classes.len()), 8));
        (header, ra)
    }

    fn assemble(region: Region, config: &HeapConfig, store: SlabStore, header: Region) -> Self {
        let table = config.class_table().expect("validated config");
        let n = store.n_slabs();
        PmemHeap {
            store,
            table,
            region,
            header,
            rotation: RotationPolicy::default(),
            cursors: vec![0; n],
            writes: vec![0; n],
            stats: HeapStats::default(),
        }
    }

    /// Creates a fresh heap in `region`.
    pub fn create<P: Pmem>(
        pm: &mut P,
        region: Region,
        config: &HeapConfig,
    ) -> Result<Self, AllocError> {
        config.validate()?;
        let need = Self::required_size(config);
        if region.len < need {
            return Err(AllocError::RegionTooSmall {
                have: region.len,
                need,
            });
        }
        let (header, mut ra) = Self::layout(region, config);
        let store = SlabStore::create(pm, &mut ra, config);
        // Header: geometry and GC state first, magic last (a header is
        // valid only once fully initialized).
        pm.write_u64(header.off + H_NCLASSES, config.classes.len() as u64);
        pm.write_u64(header.off + H_SLABS, config.slabs_per_class);
        pm.write_u64(header.off + H_GC_CURSOR, 0);
        pm.write_u64(header.off + H_GC_ACTIVE, 0);
        for (i, c) in config.classes.iter().enumerate() {
            pm.write_u64(header.off + H_CLASSES + i * 16, c.slot_size);
            pm.write_u64(header.off + H_CLASSES + i * 16 + 8, c.slots_per_slab);
        }
        pm.persist(header.off, Self::header_len(config.classes.len()));
        pm.atomic_write_u64(header.off + H_MAGIC, MAGIC);
        pm.persist(header.off + H_MAGIC, 8);
        Ok(Self::assemble(region, config, store, header))
    }

    /// Re-opens a heap previously created in `region`, reading its
    /// geometry back from the persisted header. Read-only: any
    /// [`PmemRead`] handle suffices. An interrupted GC pass is *not*
    /// resumed here — check [`PmemHeap::gc_pending`] and drive
    /// [`PmemHeap::gc_step`] to finish it.
    pub fn open<R: PmemRead>(pm: &R, region: Region) -> Result<Self, AllocError> {
        let header_off = align_up(region.off, CACHELINE);
        if !region.contains(header_off, H_CLASSES) {
            return Err(AllocError::BadHeader("region too small for a heap header"));
        }
        if pm.read_u64(header_off + H_MAGIC) != MAGIC {
            return Err(AllocError::BadHeader("heap magic mismatch"));
        }
        let n = pm.read_u64(header_off + H_NCLASSES);
        if n == 0 || n > MAX_CLASSES as u64 {
            return Err(AllocError::CorruptClassCount(n));
        }
        let slabs_per_class = pm.read_u64(header_off + H_SLABS);
        if slabs_per_class == 0 || slabs_per_class > MAX_SLABS_PER_CLASS {
            return Err(AllocError::BadSlabCount(slabs_per_class));
        }
        let classes = (0..n as usize)
            .map(|i| ClassSpec {
                slot_size: pm.read_u64(header_off + H_CLASSES + i * 16),
                slots_per_slab: pm.read_u64(header_off + H_CLASSES + i * 16 + 8),
            })
            .collect::<Vec<_>>();
        let config = HeapConfig {
            classes,
            slabs_per_class,
        };
        config.validate()?;
        let need = Self::required_size(&config);
        if region.len < need {
            return Err(AllocError::RegionTooSmall {
                have: region.len,
                need,
            });
        }
        let (header, mut ra) = Self::layout(region, &config);
        let store = SlabStore::attach(&mut ra, &config);
        Ok(Self::assemble(region, &config, store, header))
    }

    /// Switches the slab-selection policy (volatile; takes effect on the
    /// next allocation).
    pub fn set_rotation(&mut self, policy: RotationPolicy) {
        self.rotation = policy;
    }

    /// Allocates and stores `blob`, returning its persistent pointer.
    /// The blob is durable and committed when this returns; placement
    /// follows the configured [`RotationPolicy`].
    pub fn alloc<P: Pmem>(&mut self, pm: &mut P, blob: &[u8]) -> Result<PmemPtr, AllocError> {
        let ci = self.table.class_for(blob.len())?;
        let range = self.store.class_slabs(ci);
        let mut order: Vec<usize> = range.collect();
        if self.rotation == RotationPolicy::WearAware {
            order.sort_by_key(|&s| self.writes[s]);
        }
        for s in order {
            match self.store.alloc_in(pm, s, blob, self.cursors[s]) {
                Ok((ptr, slot)) => {
                    self.cursors[s] = slot + 1;
                    self.writes[s] += 1;
                    self.stats.allocs += 1;
                    return Ok(ptr);
                }
                Err(AllocError::OutOfMemory) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(AllocError::OutOfMemory)
    }

    /// Allocates and stores every blob in `blobs` with **fence-coalesced
    /// commits**: all blob bytes are written and flushed first (no
    /// fences), one fence orders them, every occupancy bit is set
    /// atomically with its word flushed, and one closing fence commits —
    /// K allocations for 2 fences instead of the 2K that K
    /// [`PmemHeap::alloc`] calls would spend. Placement follows the same
    /// [`RotationPolicy`] as single allocations, with slots already
    /// staged by this batch vetoed in DRAM (their bits are still clear).
    ///
    /// Returns one pointer per blob, in input order. On error (a blob too
    /// large for every class, or the heap out of space) **nothing is
    /// committed**: no bit was set, so every staged byte is unreachable
    /// and the heap is unchanged.
    ///
    /// Crash ordering matches the single-alloc path: a crash anywhere
    /// leaves an arbitrary subset of the batch allocated, each committed
    /// slot intact, each uncommitted slot free.
    pub fn alloc_batch<P: Pmem>(
        &mut self,
        pm: &mut P,
        blobs: &[&[u8]],
    ) -> Result<Vec<PmemPtr>, AllocError> {
        if blobs.is_empty() {
            return Ok(Vec::new());
        }
        let mut staged: Vec<(usize, u64)> = Vec::with_capacity(blobs.len());
        let mut staged_set: std::collections::HashSet<(usize, u64)> =
            std::collections::HashSet::with_capacity(blobs.len());
        let mut ptrs = Vec::with_capacity(blobs.len());
        // Remember the cursor/wear hints so a failed batch rolls the
        // volatile policy state back along with it.
        let saved_cursors = self.cursors.clone();
        let saved_writes = self.writes.clone();
        for blob in blobs {
            let ci = match self.table.class_for(blob.len()) {
                Ok(ci) => ci,
                Err(e) => {
                    self.cursors = saved_cursors;
                    self.writes = saved_writes;
                    return Err(e);
                }
            };
            let range = self.store.class_slabs(ci);
            let mut order: Vec<usize> = range.collect();
            if self.rotation == RotationPolicy::WearAware {
                order.sort_by_key(|&s| self.writes[s]);
            }
            let mut placed = false;
            for s in order {
                let slot = self.store.find_free_skipping(pm, s, self.cursors[s], |slot| {
                    staged_set.contains(&(s, slot))
                });
                if let Some(slot) = slot {
                    ptrs.push(self.store.stage_write(pm, s, slot, blob));
                    staged_set.insert((s, slot));
                    staged.push((s, slot));
                    self.cursors[s] = slot + 1;
                    self.writes[s] += 1;
                    placed = true;
                    break;
                }
            }
            if !placed {
                // No bit committed yet — the staged bytes are unreachable
                // and the heap is observably unchanged.
                self.cursors = saved_cursors;
                self.writes = saved_writes;
                return Err(AllocError::OutOfMemory);
            }
        }
        self.store.publish_staged(pm, &staged);
        self.stats.allocs += blobs.len() as u64;
        Ok(ptrs)
    }

    /// Frees the blob at `ptr` (atomic bitmap clear — the commit point).
    pub fn free<P: Pmem>(&mut self, pm: &mut P, ptr: PmemPtr) -> Result<(), AllocError> {
        let (s, slot) = self.store.free(pm, ptr)?;
        self.cursors[s] = slot; // freed slot becomes the next candidate
        self.stats.frees += 1;
        Ok(())
    }

    /// Reads the blob at `ptr`.
    pub fn read<R: PmemRead>(&self, pm: &R, ptr: PmemPtr) -> Result<Vec<u8>, AllocError> {
        self.store.read(pm, ptr)
    }

    /// True if `ptr` names a currently-allocated slot.
    pub fn is_allocated<R: PmemRead>(&self, pm: &R, ptr: PmemPtr) -> bool {
        self.store.is_allocated(pm, ptr)
    }

    /// Visits every allocated slot (for mark-and-sweep by owners).
    pub fn for_each_allocated<R: PmemRead>(&self, pm: &R, f: impl FnMut(PmemPtr)) {
        self.store.for_each_allocated(pm, f)
    }

    /// (allocated slots, total slots) per class.
    pub fn class_usage<R: PmemRead>(&self, pm: &R) -> Vec<(u64, u64)> {
        (0..self.table.len())
            .map(|ci| {
                let mut live = 0;
                let mut total = 0;
                for s in self.store.class_slabs(ci) {
                    live += self.store.live_slots(pm, s);
                    total += self.store.slab(s).geom.slots;
                }
                (live, total)
            })
            .collect()
    }

    /// Total allocated slots.
    pub fn allocated<R: PmemRead>(&self, pm: &R) -> u64 {
        self.class_usage(pm).iter().map(|&(a, _)| a).sum()
    }

    /// Live-payload vs slot-byte accounting for fragmentation reporting.
    pub fn frag_stats<R: PmemRead>(&self, pm: &R) -> FragStats {
        let mut f = FragStats::default();
        for s in 0..self.store.n_slabs() {
            let slab = self.store.slab(s);
            f.total_slot_bytes += slab.geom.slot_size * slab.geom.slots;
            let live = self.store.live_slots(pm, s);
            f.allocated_slot_bytes += live * slab.geom.slot_size;
        }
        self.store.for_each_allocated(pm, |p| {
            f.live_blob_bytes += read_len(pm, p.0 as usize) as u64;
        });
        f
    }

    /// The heap's volatile counters.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Per-slab write counters (slot writes from allocs + GC copy-ins;
    /// volatile, reset on re-open).
    pub fn slab_writes(&self) -> &[u64] {
        &self.writes
    }

    /// The slab store's slot regions, per slab (for per-range media wear
    /// reporting against a simulator).
    pub fn slab_regions(&self) -> Vec<Region> {
        (0..self.store.n_slabs())
            .map(|s| self.store.slab(s).slots_region())
            .collect()
    }

    /// The heap's pool region.
    pub fn region(&self) -> Region {
        self.region
    }

    /// A read-only view over the heap's slots, safe to clone into reader
    /// threads (pure geometry — occupancy is always read from pmem).
    pub fn read_view(&self) -> HeapReadView {
        HeapReadView {
            store: self.store.clone(),
        }
    }

    // ---- GC/compaction drainer ------------------------------------------

    /// Whether a GC pass is in flight (persisted; survives crashes).
    pub fn gc_pending<R: PmemRead>(&self, pm: &R) -> bool {
        pm.read_u64(self.header.off + H_GC_ACTIVE) != 0
    }

    /// Runs one bounded GC increment: scans up to `max_slots` slots from
    /// the persisted cursor, reclaiming blobs the `owner` no longer
    /// references and compacting sparse slabs (copy → `repoint` → free,
    /// at most one duplicate at any crash point). Returns `true` while
    /// the pass is incomplete — keep calling; `false` ends the pass.
    ///
    /// The cursor is persisted once per call, *after* the batch: a crash
    /// mid-batch re-scans those slots on resume, which is safe because
    /// [`GcOwner`] calls are idempotent.
    pub fn gc_step<P: Pmem>(
        &mut self,
        pm: &mut P,
        max_slots: u64,
        owner: &mut impl GcOwner<P>,
    ) -> Result<bool, AllocError> {
        let cursor_off = self.header.off + H_GC_CURSOR;
        let active_off = self.header.off + H_GC_ACTIVE;
        if !self.gc_pending(pm) {
            // Start a pass: cursor first, then the active flag — if we
            // crash in between, the flag stays clear and the next start
            // rewinds the cursor again.
            pm.atomic_write_u64(cursor_off, 0);
            pm.persist(cursor_off, 8);
            pm.atomic_write_u64(active_off, 1);
            pm.persist(active_off, 8);
        }
        let total = self.store.total_slots();
        let mut cur = pm.read_u64(cursor_off);
        let end = cur.saturating_add(max_slots.max(1)).min(total);
        while cur < end {
            if let Some((s, slot)) = self.store.locate_flat(cur) {
                if self.store.slot_allocated(pm, s, slot) {
                    let ptr = PmemPtr(self.store.slab(s).slot_off(slot));
                    let blob = self.store.read(pm, ptr)?;
                    if !owner.is_live(pm, ptr, &blob) {
                        // Leaked by a crash or orphaned by an overwrite.
                        self.store.free(pm, ptr)?;
                        self.stats.frees += 1;
                        self.stats.leaked_reclaimed += 1;
                    } else if self.slab_is_sparse(pm, s) {
                        self.compact_one(pm, s, ptr, &blob, owner)?;
                    }
                }
            }
            cur += 1;
        }
        pm.atomic_write_u64(cursor_off, cur);
        pm.persist(cursor_off, 8);
        if cur >= total {
            pm.atomic_write_u64(active_off, 0);
            pm.persist(active_off, 8);
            return Ok(false);
        }
        Ok(true)
    }

    /// A slab is compaction-worthy when ≤ ¼ full (and big enough for the
    /// ratio to mean anything).
    fn slab_is_sparse<R: PmemRead>(&self, pm: &R, s: usize) -> bool {
        let slots = self.store.slab(s).geom.slots;
        slots >= 4 && self.store.live_slots(pm, s) * 4 <= slots
    }

    /// Moves one live blob out of sparse slab `s`: copy into the densest
    /// non-full sibling slab, retarget the owner, free the original.
    /// Skips (without error) when no sibling has room or the owner
    /// declines the repoint.
    fn compact_one<P: Pmem>(
        &mut self,
        pm: &mut P,
        s: usize,
        old: PmemPtr,
        blob: &[u8],
        owner: &mut impl GcOwner<P>,
    ) -> Result<(), AllocError> {
        let ci = self.store.slab(s).class_idx;
        let dest = self
            .store
            .class_slabs(ci)
            .filter(|&t| t != s)
            .map(|t| (t, self.store.live_slots(pm, t)))
            .filter(|&(t, live)| live < self.store.slab(t).geom.slots)
            .max_by_key(|&(_, live)| live);
        let Some((dest, dest_live)) = dest else {
            return Ok(()); // every sibling is full
        };
        if dest_live <= self.store.live_slots(pm, s) {
            return Ok(()); // we're already the densest option
        }
        let (new, slot) = match self.store.alloc_in(pm, dest, blob, self.cursors[dest]) {
            Ok(ok) => ok,
            Err(AllocError::OutOfMemory) => return Ok(()),
            Err(e) => return Err(e),
        };
        self.cursors[dest] = slot + 1;
        self.writes[dest] += 1;
        // Crash window: both copies allocated, owner still at `old` — the
        // next pass sees `new` as dead and reclaims it. ≤ 1 duplicate.
        if owner.repoint(pm, old, new, blob) {
            self.store.free(pm, old)?;
            self.stats.frees += 1;
            self.stats.gc_moves += 1;
        } else {
            self.store.free(pm, new)?;
        }
        Ok(())
    }

    /// Runs GC passes to completion: finishes any interrupted pass, then
    /// one full fresh pass. Returns the number of blobs reclaimed as
    /// leaked/dead.
    pub fn gc_full<P: Pmem>(
        &mut self,
        pm: &mut P,
        owner: &mut impl GcOwner<P>,
    ) -> Result<u64, AllocError> {
        let before = self.stats.leaked_reclaimed;
        if self.gc_pending(pm) {
            while self.gc_step(pm, 1024, owner)? {}
        }
        while self.gc_step(pm, 1024, owner)? {}
        Ok(self.stats.leaked_reclaimed - before)
    }
}

/// A read-only heap view for reader threads: resolves and reads blobs
/// through any [`PmemRead`] handle, never writes.
#[derive(Debug, Clone)]
pub struct HeapReadView {
    store: SlabStore,
}

impl HeapReadView {
    /// Reads the blob at `ptr`.
    pub fn read<R: PmemRead>(&self, pm: &R, ptr: PmemPtr) -> Result<Vec<u8>, AllocError> {
        self.store.read(pm, ptr)
    }

    /// True if `ptr` names a currently-allocated slot.
    pub fn is_allocated<R: PmemRead>(&self, pm: &R, ptr: PmemPtr) -> bool {
        self.store.is_allocated(pm, ptr)
    }
}
