//! The pmem-facing slab store.
//!
//! One layer above the pure geometry in [`crate::classes`]: this module
//! anchors slabs in a pool region and performs the actual failure-atomic
//! allocate/free publishes. Every slab is a contiguous array of
//! fixed-width slots plus a persistent occupancy bitmap (the same
//! [`PmemBitmap`] the hash tables use), and every state change commits
//! through a single 8-byte bitmap word:
//!
//! * **allocate** writes the blob (length prefix + bytes) into a free
//!   slot, persists it, and only then atomically sets the slot's bit — a
//!   crash before the commit leaves the slot free and the torn blob
//!   unreachable;
//! * **free** atomically clears the bit; the stale bytes are
//!   unreachable the instant the 8-byte store lands.
//!
//! Every mutation takes the store by `&mut` pool: callers serialize
//! writers, exactly as the hash tables' exclusive publish path does.
//!
//! Placement *policy* — which slab of a class to allocate from — lives
//! one layer up in [`crate::heap`]; this layer only answers "allocate in
//! slab `s`".

use crate::classes::{HeapConfig, SlabGeometry, LEN_PREFIX};
use crate::{AllocError, PmemPtr};
use nvm_pmem::{Pmem, PmemRead, Region, RegionAllocator, CACHELINE};
use nvm_table::PmemBitmap;

/// The `[len u32-LE]` prefix stored ahead of a `len`-byte blob. Callers
/// bound `len` by a slot's capacity, far below `u32::MAX`.
fn len_prefix(len: usize) -> [u8; LEN_PREFIX] {
    (len as u32).to_le_bytes()
}

/// Reads the blob length prefix of the slot at pool offset `off`.
pub(crate) fn read_len<R: PmemRead>(pm: &R, off: usize) -> usize {
    let mut b = [0u8; LEN_PREFIX];
    pm.read(off, &mut b);
    u32::from_le_bytes(b) as usize
}

/// One slab: a bitmap plus a slot array, anchored in the pool.
#[derive(Debug, Clone, Copy)]
pub struct Slab {
    /// Index of the slab's size class in the heap's class table.
    pub class_idx: usize,
    /// The slab's freelist geometry (slot width and count).
    pub geom: SlabGeometry,
    bitmap: PmemBitmap,
    slots_region: Region,
    /// First flat slot index of this slab (slabs number their slots into
    /// one contiguous space for GC cursors).
    flat_base: u64,
}

impl Slab {
    /// Pool offset of slot `i`.
    pub fn slot_off(&self, i: u64) -> u64 {
        self.slots_region.off as u64 + self.geom.slot_off(i)
    }

    /// Slot index of pool offset `off`, if it names a slot start here.
    fn slot_of(&self, off: u64) -> Option<u64> {
        let base = self.slots_region.off as u64;
        off.checked_sub(base).and_then(|rel| self.geom.slot_of(rel))
    }

    /// The slab's slot storage region (for per-range media wear stats).
    pub fn slots_region(&self) -> Region {
        self.slots_region
    }

    /// First flat slot index of this slab.
    pub fn flat_base(&self) -> u64 {
        self.flat_base
    }
}

/// The slab store: every slab of every class, anchored in one pool
/// region. Purely mechanical — placement policy lives in
/// [`crate::heap::PmemHeap`].
#[derive(Debug, Clone)]
pub struct SlabStore {
    slabs: Vec<Slab>,
    /// Slabs per class (slab `class * per_class + k` is class `class`'s
    /// `k`-th slab).
    per_class: u64,
    total_slots: u64,
}

impl SlabStore {
    /// Pool bytes the store needs for `config`, excluding any caller
    /// header (each slab costs a cacheline-rounded bitmap plus a
    /// cacheline-rounded slot array).
    pub fn required_size(config: &HeapConfig) -> usize {
        use nvm_pmem::CACHELINE;
        let mut total = 0;
        for i in 0..config.classes.len() {
            let g = config.slab_geometry(i);
            total +=
                (PmemBitmap::region_size(g.slots).max(8) + CACHELINE + g.slots_bytes() + CACHELINE)
                    * config.slabs_per_class as usize;
        }
        total
    }

    /// Lays the store out from `ra` (class-major, deterministic — create
    /// and open must call with identical geometry to agree on offsets).
    fn assemble(ra: &mut RegionAllocator, config: &HeapConfig) -> Vec<(Region, Slab)> {
        let mut slabs = Vec::new();
        let mut flat = 0u64;
        for ci in 0..config.classes.len() {
            let g = config.slab_geometry(ci);
            for _ in 0..config.slabs_per_class {
                let bm = ra.alloc_lines(PmemBitmap::region_size(g.slots).max(8));
                let slots = ra.alloc_lines(g.slots_bytes());
                slabs.push((
                    bm,
                    Slab {
                        class_idx: ci,
                        geom: g,
                        bitmap: PmemBitmap::attach(bm, g.slots),
                        slots_region: slots,
                        flat_base: flat,
                    },
                ));
                flat += g.slots;
            }
        }
        slabs
    }

    /// Creates a fresh store, zeroing every slab bitmap.
    pub fn create<P: Pmem>(pm: &mut P, ra: &mut RegionAllocator, config: &HeapConfig) -> SlabStore {
        let parts = Self::assemble(ra, config);
        for (bm_region, slab) in &parts {
            PmemBitmap::create(pm, *bm_region, slab.geom.slots);
        }
        Self::finish(parts, config)
    }

    /// Attaches to an existing store without touching pmem.
    pub fn attach(ra: &mut RegionAllocator, config: &HeapConfig) -> SlabStore {
        let parts = Self::assemble(ra, config);
        Self::finish(parts, config)
    }

    fn finish(parts: Vec<(Region, Slab)>, config: &HeapConfig) -> SlabStore {
        let slabs: Vec<Slab> = parts.into_iter().map(|(_, s)| s).collect();
        let total_slots = slabs.iter().map(|s| s.geom.slots).sum();
        SlabStore {
            slabs,
            per_class: config.slabs_per_class,
            total_slots,
        }
    }

    /// Number of slabs.
    pub fn n_slabs(&self) -> usize {
        self.slabs.len()
    }

    /// Total slots across all slabs (the flat claim/cursor space).
    pub fn total_slots(&self) -> u64 {
        self.total_slots
    }

    /// The slab at index `s`.
    pub fn slab(&self, s: usize) -> &Slab {
        &self.slabs[s]
    }

    /// Slab indices belonging to class `ci`.
    pub fn class_slabs(&self, ci: usize) -> std::ops::Range<usize> {
        let per = self.per_class as usize;
        ci * per..(ci + 1) * per
    }

    /// The slab and slot owning flat slot index `flat`, if in range.
    pub fn locate_flat(&self, flat: u64) -> Option<(usize, u64)> {
        // Slabs are ordered by flat_base; partition_point finds the owner.
        let s = self.slabs.partition_point(|sl| sl.flat_base <= flat);
        let slab = &self.slabs[s.checked_sub(1)?];
        let rel = flat - slab.flat_base;
        (rel < slab.geom.slots).then_some((s - 1, rel))
    }

    /// Exclusive-writer allocation in slab `s`: stores `blob` in the
    /// first free slot at or after `cursor` (wrapping), publishing with
    /// one failure-atomic bitmap-word commit. Data is persisted *before*
    /// the bit — a crash in between leaves the slot free.
    pub fn alloc_in<P: Pmem>(
        &self,
        pm: &mut P,
        s: usize,
        blob: &[u8],
        cursor: u64,
    ) -> Result<(PmemPtr, u64), AllocError> {
        let slab = &self.slabs[s];
        debug_assert!(blob.len() <= slab.geom.slot_size as usize - LEN_PREFIX);
        let n = slab.geom.slots;
        let start = cursor % n;
        let slot = slab
            .bitmap
            .find_zero_in_range(pm, start, n - start)
            .or_else(|| slab.bitmap.find_zero_in_range(pm, 0, start))
            .ok_or(AllocError::OutOfMemory)?;
        let off = slab.slot_off(slot) as usize;
        // Data first...
        pm.write(off, &len_prefix(blob.len()));
        if !blob.is_empty() {
            pm.write(off + LEN_PREFIX, blob);
        }
        pm.persist(off, LEN_PREFIX + blob.len());
        // ...then the atomic commit.
        slab.bitmap.set_and_persist(pm, slot, true);
        Ok((PmemPtr(off as u64), slot))
    }

    /// First free slot of slab `s` at or after `cursor` (wrapping), with
    /// candidates for which `staged` returns `true` skipped — the scan
    /// half of [`SlabStore::alloc_in`] split out so a fence-coalesced
    /// batch can place several blobs in one slab *before* any of their
    /// occupancy bits commit (the bitmap still reads those slots as
    /// free, so the batch itself must veto them).
    pub fn find_free_skipping<R: PmemRead>(
        &self,
        pm: &R,
        s: usize,
        cursor: u64,
        staged: impl Fn(u64) -> bool,
    ) -> Option<u64> {
        let slab = &self.slabs[s];
        let n = slab.geom.slots;
        let start = cursor % n;
        // Two linear segments, exactly like alloc_in's wrap: [start, n)
        // then [0, start). Each skip advances the probe, so both loops
        // terminate.
        for (mut probe, end) in [(start, n), (0, start)] {
            while probe < end {
                let Some(slot) = slab.bitmap.find_zero_in_range(pm, probe, end - probe) else {
                    break;
                };
                if !staged(slot) {
                    return Some(slot);
                }
                probe = slot + 1;
            }
        }
        None
    }

    /// Stage half of a fence-coalesced batched allocation: writes `blob`
    /// (length prefix + bytes) into free slot `slot` of slab `s` and
    /// flushes the lines, but issues **no fence and no bitmap commit** —
    /// the slot still reads as free and the bytes are unreachable. The
    /// batch completes with one [`SlabStore::publish_staged`] call.
    pub fn stage_write<P: Pmem>(&self, pm: &mut P, s: usize, slot: u64, blob: &[u8]) -> PmemPtr {
        let slab = &self.slabs[s];
        debug_assert!(blob.len() <= slab.geom.slot_size as usize - LEN_PREFIX);
        debug_assert!(!slab.bitmap.get(pm, slot), "staging into an allocated slot");
        let off = slab.slot_off(slot) as usize;
        pm.write(off, &len_prefix(blob.len()));
        if !blob.is_empty() {
            pm.write(off + LEN_PREFIX, blob);
        }
        pm.flush(off, LEN_PREFIX + blob.len());
        PmemPtr(off as u64)
    }

    /// Commit half of a fence-coalesced batched allocation: one fence
    /// orders every staged blob's flushed data, then each staged slot's
    /// bit is set atomically, then every dirty bitmap cacheline is
    /// flushed once (bits sharing a line share its flush), then one
    /// closing fence commits the batch — K allocations for 2 fences
    /// instead of 2K.
    ///
    /// Crash ordering matches [`SlabStore::alloc_in`] exactly: data is
    /// durable before any bit commits, and each bit set is an individual
    /// failure-atomic 8-byte store, so a crash mid-publish leaves an
    /// arbitrary *subset* of the batch allocated — every committed slot
    /// holds intact bytes, every uncommitted slot still reads as free.
    pub fn publish_staged<P: Pmem>(&self, pm: &mut P, staged: &[(usize, u64)]) {
        if staged.is_empty() {
            return;
        }
        pm.fence();
        let mut lines: Vec<usize> = Vec::with_capacity(staged.len());
        for &(s, slot) in staged {
            let slab = &self.slabs[s];
            slab.bitmap.set_volatile(pm, slot, true);
            lines.push(slab.bitmap.word_off_of(slot) / CACHELINE);
        }
        lines.sort_unstable();
        lines.dedup();
        for line in lines {
            pm.flush(line * CACHELINE, CACHELINE);
        }
        pm.fence();
    }

    /// Resolves `ptr` to its slab and slot, requiring the slot to be
    /// allocated.
    pub fn resolve<R: PmemRead>(&self, pm: &R, ptr: PmemPtr) -> Result<(usize, u64), AllocError> {
        for (s, slab) in self.slabs.iter().enumerate() {
            if let Some(slot) = slab.slot_of(ptr.0) {
                if slab.bitmap.get(pm, slot) {
                    return Ok((s, slot));
                }
                return Err(AllocError::BadPointer(ptr));
            }
        }
        Err(AllocError::BadPointer(ptr))
    }

    /// Frees the slot at `ptr` (atomic bitmap clear — the commit point).
    /// Returns the slab the slot belonged to.
    pub fn free<P: Pmem>(&self, pm: &mut P, ptr: PmemPtr) -> Result<(usize, u64), AllocError> {
        let (s, slot) = self.resolve(pm, ptr)?;
        self.slabs[s].bitmap.set_and_persist(pm, slot, false);
        Ok((s, slot))
    }

    /// Reads the blob at `ptr`. A length prefix exceeding the slot's
    /// capacity — a torn slot observed by a lock-free reader racing a
    /// writer, or media corruption — is an error, never a read past the
    /// slot's bounds.
    pub fn read<R: PmemRead>(&self, pm: &R, ptr: PmemPtr) -> Result<Vec<u8>, AllocError> {
        let (s, _) = self.resolve(pm, ptr)?;
        let len = read_len(pm, ptr.0 as usize);
        if len > self.slabs[s].geom.slot_size as usize - LEN_PREFIX {
            return Err(AllocError::BadPointer(ptr));
        }
        let mut buf = vec![0u8; len];
        if len > 0 {
            pm.read(ptr.0 as usize + LEN_PREFIX, &mut buf);
        }
        Ok(buf)
    }

    /// True if `ptr` names a currently-allocated slot.
    pub fn is_allocated<R: PmemRead>(&self, pm: &R, ptr: PmemPtr) -> bool {
        self.resolve(pm, ptr).is_ok()
    }

    /// Whether slot `slot` of slab `s` is allocated.
    pub fn slot_allocated<R: PmemRead>(&self, pm: &R, s: usize, slot: u64) -> bool {
        self.slabs[s].bitmap.get(pm, slot)
    }

    /// Visits every allocated slot (for mark-and-sweep by owners).
    pub fn for_each_allocated<R: PmemRead>(&self, pm: &R, mut f: impl FnMut(PmemPtr)) {
        for slab in &self.slabs {
            for slot in 0..slab.geom.slots {
                if slab.bitmap.get(pm, slot) {
                    f(PmemPtr(slab.slot_off(slot)));
                }
            }
        }
    }

    /// Allocated slots in slab `s`.
    pub fn live_slots<R: PmemRead>(&self, pm: &R, s: usize) -> u64 {
        self.slabs[s].bitmap.count_ones(pm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_pmem::{SimConfig, SimPmem};

    fn setup() -> (SimPmem, SlabStore) {
        let cfg = HeapConfig {
            classes: vec![
                crate::ClassSpec {
                    slot_size: 64,
                    slots_per_slab: 16,
                },
                crate::ClassSpec {
                    slot_size: 128,
                    slots_per_slab: 8,
                },
            ],
            slabs_per_class: 2,
        };
        let size = SlabStore::required_size(&cfg);
        let mut pm = SimPmem::new(size, SimConfig::fast_test());
        let mut ra = RegionAllocator::new(0, size);
        let store = SlabStore::create(&mut pm, &mut ra, &cfg);
        (pm, store)
    }

    #[test]
    fn alloc_free_roundtrip_per_slab() {
        let (mut pm, store) = setup();
        let (p, slot) = store
            .alloc_in(&mut pm, 1, b"second slab of class 0", 0)
            .unwrap();
        assert_eq!(slot, 0);
        assert_eq!(store.read(&pm, p).unwrap(), b"second slab of class 0");
        assert_eq!(store.live_slots(&pm, 1), 1);
        assert_eq!(store.live_slots(&pm, 0), 0);
        assert_eq!(store.free(&mut pm, p).unwrap(), (1, 0));
        assert!(!store.is_allocated(&pm, p));
    }

    #[test]
    fn flat_slot_space_round_trips() {
        let (_, store) = setup();
        assert_eq!(store.total_slots(), 16 * 2 + 8 * 2);
        let mut flat = 0;
        for s in 0..store.n_slabs() {
            assert_eq!(store.slab(s).flat_base(), flat);
            for slot in 0..store.slab(s).geom.slots {
                assert_eq!(store.locate_flat(flat + slot), Some((s, slot)));
            }
            flat += store.slab(s).geom.slots;
        }
        assert_eq!(store.locate_flat(flat), None);
    }

    #[test]
    fn exhaustion_is_per_slab() {
        let (mut pm, store) = setup();
        for _ in 0..16 {
            store.alloc_in(&mut pm, 0, &[7; 40], 0).unwrap();
        }
        assert_eq!(
            store.alloc_in(&mut pm, 0, &[7; 40], 0),
            Err(AllocError::OutOfMemory)
        );
        // The sibling slab still has room.
        assert!(store.alloc_in(&mut pm, 1, &[7; 40], 0).is_ok());
    }

    #[test]
    fn publish_flushes_each_dirty_bitmap_line_once() {
        // 64 staged slots over two 1024-slot slabs touch about 32 bitmap
        // words but only the 4 lines those words share.
        let cfg = HeapConfig {
            classes: vec![crate::ClassSpec {
                slot_size: 64,
                slots_per_slab: 1024,
            }],
            slabs_per_class: 2,
        };
        let size = SlabStore::required_size(&cfg);
        let mut pm = SimPmem::new(size, SimConfig::fast_test());
        let mut ra = RegionAllocator::new(0, size);
        let store = SlabStore::create(&mut pm, &mut ra, &cfg);
        let staged: Vec<(usize, u64)> = (0..64u64)
            .map(|i| ((i % 2) as usize, i * 37 % 1024))
            .collect();
        for &(s, slot) in &staged {
            store.stage_write(&mut pm, s, slot, &[slot as u8; 16]);
        }
        let word_of = |&(s, slot): &(usize, u64)| store.slab(s).bitmap.word_off_of(slot);
        let mut words: Vec<usize> = staged.iter().map(word_of).collect();
        words.sort_unstable();
        words.dedup();
        let mut lines: Vec<usize> = words.iter().map(|w| w / CACHELINE).collect();
        lines.dedup();
        assert!(lines.len() < words.len(), "the batch must share lines");

        pm.reset_stats();
        store.publish_staged(&mut pm, &staged);
        let st = pm.stats();
        assert_eq!((st.flushes, st.fences), (lines.len() as u64, 2));
        assert!(staged
            .iter()
            .all(|&(s, slot)| store.slot_allocated(&pm, s, slot)));
    }
}
