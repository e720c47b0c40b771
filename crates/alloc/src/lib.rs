//! A layered, crash-consistent slab heap for persistent memory.
//!
//! Group hashing stores fixed-size cells; real key-value systems also
//! need somewhere to put *variable-size* values. This crate extends the
//! paper's consistency idiom — *data first, then one failure-atomic
//! 8-byte bitmap commit* — from hash cells to allocation, and splits the
//! allocator into three explicit layers (the same shape as the table
//! crate's geometry/store/policy split):
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ heap      PmemHeap — placement policy + GC                 │
//! │           wear-aware slab rotation, crash-resumable        │
//! │           gc_step drainer (persisted cursor, ≤1 duplicate) │
//! ├────────────────────────────────────────────────────────────┤
//! │ slab      SlabStore — pmem-facing slot arrays              │
//! │           failure-atomic alloc/free publish on a per-slab  │
//! │           bitmap word                                      │
//! ├────────────────────────────────────────────────────────────┤
//! │ classes   pure geometry — no pmem                          │
//! │           memcached-style size classes (80 B × 1.25),      │
//! │           rounding, per-slab freelist geometry             │
//! └────────────────────────────────────────────────────────────┘
//! ```
//!
//! The bottom layer never names `nvm_pmem` (enforced by a `ci.sh`
//! layering lint) and is proptested: class rounding is minimal, monotone
//! and within the growth bound, freelist geometry round-trips. The slab
//! store owns every persistent byte; the heap owns every decision.
//!
//! There is no log. The bitmaps plus a tiny header (GC cursor + active
//! flag) are the only metadata and they are always consistent. After a
//! crash the worst case is a *leak* — a slot whose bit committed but
//! whose owner (e.g. a hash-table entry pointing at it) did not — and
//! leaks are bounded-work reclaimable: [`PmemHeap::gc_step`] sweeps the
//! slot space against the owner ([`GcOwner`]) in resumable increments.
//!
//! # Example
//!
//! ```
//! use nvm_alloc::{HeapConfig, PmemHeap};
//! use nvm_pmem::{Pmem, Region, SimConfig, SimPmem};
//!
//! let cfg = HeapConfig::balanced(64 * 1024);
//! let size = PmemHeap::required_size(&cfg);
//! let mut pm = SimPmem::new(size, SimConfig::fast_test());
//! let mut heap = PmemHeap::create(&mut pm, Region::new(0, size), &cfg).unwrap();
//!
//! let p = heap.alloc(&mut pm, b"hello nvm").unwrap();
//! assert_eq!(heap.read(&pm, p).unwrap(), b"hello nvm");
//! heap.free(&mut pm, p).unwrap();
//! ```

#![warn(missing_docs)]

pub mod classes;
mod error;
pub mod heap;
pub mod slab;

pub use classes::{
    ClassSpec, ClassTable, HeapConfig, SizeClass, SlabGeometry, DEFAULT_BASE, DEFAULT_GROWTH,
    LEN_PREFIX, MAX_CLASSES, MAX_SLABS_PER_CLASS,
};
pub use error::AllocError;
pub use heap::{FragStats, GcOwner, HeapReadView, HeapStats, PmemHeap, RotationPolicy};
pub use slab::{Slab, SlabStore};

/// A persistent pointer: the pool offset of an allocated slot. Stable
/// across re-opens (store it in other persistent structures).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PmemPtr(pub u64);

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_pmem::{CrashResolution, Pmem, Region, SimConfig, SimPmem};

    fn setup(budget: u64) -> (SimPmem, PmemHeap, Region) {
        let cfg = HeapConfig::balanced(budget);
        let size = PmemHeap::required_size(&cfg);
        let mut pm = SimPmem::new(size, SimConfig::fast_test());
        let region = Region::new(0, size);
        let h = PmemHeap::create(&mut pm, region, &cfg).unwrap();
        (pm, h, region)
    }

    /// An owner over a DRAM pointer set — the simplest GcOwner.
    struct SetOwner {
        live: std::collections::HashMap<u64, Vec<u8>>,
    }

    impl SetOwner {
        fn new() -> Self {
            SetOwner {
                live: Default::default(),
            }
        }
    }

    impl<P: Pmem> GcOwner<P> for SetOwner {
        fn is_live(&mut self, _pm: &P, ptr: PmemPtr, blob: &[u8]) -> bool {
            self.live.get(&ptr.0).is_some_and(|b| b == blob)
        }
        fn repoint(&mut self, _pm: &mut P, old: PmemPtr, new: PmemPtr, _blob: &[u8]) -> bool {
            let Some(b) = self.live.remove(&old.0) else {
                return false;
            };
            self.live.insert(new.0, b);
            true
        }
    }

    #[test]
    fn roundtrip_various_sizes() {
        let (mut pm, mut h, _) = setup(64 * 1024);
        let blobs: Vec<Vec<u8>> = [0usize, 1, 7, 24, 72, 120, 248, 1000, 4000]
            .iter()
            .map(|&n| (0..n).map(|i| (i * 7) as u8).collect())
            .collect();
        let ptrs: Vec<PmemPtr> = blobs.iter().map(|b| h.alloc(&mut pm, b).unwrap()).collect();
        for (b, &p) in blobs.iter().zip(&ptrs) {
            assert_eq!(&h.read(&pm, p).unwrap(), b);
        }
        assert_eq!(h.allocated(&pm), blobs.len() as u64);
        assert_eq!(h.stats().allocs, blobs.len() as u64);
    }

    #[test]
    fn free_enables_reuse() {
        let (mut pm, mut h, _) = setup(16 * 1024);
        h.set_rotation(RotationPolicy::FirstFit);
        let p1 = h.alloc(&mut pm, &[1u8; 20]).unwrap();
        h.free(&mut pm, p1).unwrap();
        assert!(!h.is_allocated(&pm, p1));
        let p2 = h.alloc(&mut pm, &[2u8; 20]).unwrap();
        assert_eq!(p1, p2, "freed slot should be reused first under first-fit");
        assert_eq!(h.read(&pm, p2).unwrap(), vec![2u8; 20]);
    }

    #[test]
    fn exhaustion_and_oversize_are_reported() {
        let cfg = HeapConfig {
            classes: vec![ClassSpec {
                slot_size: 32,
                slots_per_slab: 2,
            }],
            slabs_per_class: 2,
        };
        let size = PmemHeap::required_size(&cfg);
        let mut pm = SimPmem::new(size, SimConfig::fast_test());
        let mut h = PmemHeap::create(&mut pm, Region::new(0, size), &cfg).unwrap();
        for i in 0..4 {
            h.alloc(&mut pm, &[i as u8; 10]).unwrap();
        }
        assert_eq!(h.alloc(&mut pm, &[9; 10]), Err(AllocError::OutOfMemory));
        assert_eq!(h.alloc(&mut pm, &[9; 100]), Err(AllocError::TooLarge(100)));
    }

    #[test]
    fn bad_pointers_rejected() {
        let (mut pm, mut h, _) = setup(16 * 1024);
        let p = h.alloc(&mut pm, b"x").unwrap();
        assert!(h.read(&pm, PmemPtr(p.0 + 1)).is_err()); // misaligned
        assert!(h.read(&pm, PmemPtr(3)).is_err()); // header area
        h.free(&mut pm, p).unwrap();
        assert!(h.read(&pm, p).is_err()); // freed
        assert_eq!(h.free(&mut pm, p), Err(AllocError::BadPointer(p)));
    }

    #[test]
    fn reopen_preserves_heap() {
        let (mut pm, mut h, region) = setup(32 * 1024);
        let p = h.alloc(&mut pm, b"persistent blob").unwrap();
        drop(h);
        let h2 = PmemHeap::open(&pm, region).unwrap();
        assert_eq!(h2.read(&pm, p).unwrap(), b"persistent blob");
        assert_eq!(h2.allocated(&pm), 1);
        assert!(!h2.gc_pending(&pm));
    }

    #[test]
    fn open_rejects_garbage() {
        let pm = SimPmem::new(4096, SimConfig::fast_test());
        assert!(PmemHeap::open(&pm, Region::new(0, 4096)).is_err());
    }

    #[test]
    fn uncommitted_alloc_vanishes_on_crash() {
        use nvm_pmem::{run_with_crash, CrashPlan};
        let (pm0, h0, region) = setup(16 * 1024);
        // Crash at every event of an alloc; afterwards the heap is either
        // empty (commit didn't land) or holds exactly the intact blob.
        for at in 0..60 {
            let mut pm = pm0.clone();
            let mut h = h0.clone();
            let base = pm.events();
            pm.set_crash_plan(Some(CrashPlan {
                at_event: base + at,
            }));
            let done = run_with_crash(|| h.alloc(&mut pm, &[0xAB; 40]).unwrap()).is_ok();
            pm.crash(CrashResolution::Random(at));
            let h = PmemHeap::open(&pm, region).unwrap();
            let mut live = vec![];
            h.for_each_allocated(&pm, |p| live.push(p));
            match live.len() {
                0 => {}
                1 => {
                    assert_eq!(h.read(&pm, live[0]).unwrap(), vec![0xAB; 40]);
                }
                n => panic!("{n} blobs after one alloc (crash at +{at})"),
            }
            if done {
                break;
            }
        }
    }

    #[test]
    fn alloc_batch_roundtrips_and_coalesces_fences() {
        let (mut pm, mut h, _) = setup(64 * 1024);
        let blobs: Vec<Vec<u8>> = (0..24usize)
            .map(|i| vec![i as u8; 8 + (i * 37) % 300])
            .collect();
        let refs: Vec<&[u8]> = blobs.iter().map(|b| b.as_slice()).collect();
        pm.reset_stats();
        let ptrs = h.alloc_batch(&mut pm, &refs).unwrap();
        // The whole point: K allocations, exactly 2 fences (K singles
        // would spend 2K).
        assert_eq!(pm.stats().fences, 2);
        assert_eq!(ptrs.len(), blobs.len());
        let mut uniq = ptrs.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), ptrs.len(), "batch reused a slot");
        for (b, &p) in blobs.iter().zip(&ptrs) {
            assert_eq!(&h.read(&pm, p).unwrap(), b);
        }
        assert_eq!(h.allocated(&pm), blobs.len() as u64);
        assert_eq!(h.stats().allocs, blobs.len() as u64);
        assert!(h.alloc_batch(&mut pm, &[]).unwrap().is_empty());
    }

    #[test]
    fn alloc_batch_failure_commits_nothing() {
        let cfg = HeapConfig {
            classes: vec![ClassSpec {
                slot_size: 32,
                slots_per_slab: 2,
            }],
            slabs_per_class: 2,
        };
        let size = PmemHeap::required_size(&cfg);
        let mut pm = SimPmem::new(size, SimConfig::fast_test());
        let mut h = PmemHeap::create(&mut pm, Region::new(0, size), &cfg).unwrap();
        let writes_before = h.slab_writes().to_vec();
        // Five blobs into four slots: the batch must fail whole.
        let blobs: Vec<&[u8]> = vec![&[1; 10]; 5];
        assert_eq!(h.alloc_batch(&mut pm, &blobs), Err(AllocError::OutOfMemory));
        assert_eq!(h.allocated(&pm), 0, "failed batch leaked slots");
        assert_eq!(h.stats().allocs, 0);
        assert_eq!(h.slab_writes(), &writes_before[..], "wear hints not rolled back");
        // An oversize blob anywhere in the batch fails the same way.
        assert_eq!(
            h.alloc_batch(&mut pm, &[&[2; 10], &[2; 100]]),
            Err(AllocError::TooLarge(100))
        );
        assert_eq!(h.allocated(&pm), 0);
        // The heap still works after the failures.
        let ptrs = h.alloc_batch(&mut pm, &[&[3; 10], &[4; 10]]).unwrap();
        assert_eq!(h.read(&pm, ptrs[0]).unwrap(), vec![3; 10]);
        assert_eq!(h.read(&pm, ptrs[1]).unwrap(), vec![4; 10]);
    }

    #[test]
    fn crash_anywhere_in_alloc_batch_leaves_intact_subset() {
        use nvm_pmem::{run_with_crash, CrashPlan};
        let (pm0, h0, region) = setup(32 * 1024);
        let blobs: Vec<Vec<u8>> = (0..6usize).map(|i| vec![0x50 + i as u8; 40]).collect();
        let refs: Vec<&[u8]> = blobs.iter().map(|b| b.as_slice()).collect();
        let mut at = 0u64;
        loop {
            let mut pm = pm0.clone();
            let mut h = h0.clone();
            let base = pm.events();
            pm.set_crash_plan(Some(CrashPlan {
                at_event: base + at,
            }));
            let done = run_with_crash(|| h.alloc_batch(&mut pm, &refs).unwrap()).is_ok();
            pm.crash(CrashResolution::Random(at));
            // Whatever subset of bits landed, each committed slot holds an
            // intact blob from the batch.
            let h = PmemHeap::open(&pm, region).unwrap();
            let mut live = vec![];
            h.for_each_allocated(&pm, |p| live.push(p));
            assert!(live.len() <= blobs.len(), "crash at +{at}");
            for p in live {
                let got = h.read(&pm, p).unwrap();
                assert!(
                    blobs.contains(&got),
                    "torn blob surfaced at +{at}: {got:?}"
                );
            }
            if done {
                break;
            }
            at += 1;
            assert!(at < 500, "alloc_batch never completed");
        }
    }

    #[test]
    fn wear_rotation_spreads_across_slabs() {
        let cfg = HeapConfig {
            classes: vec![ClassSpec {
                slot_size: 64,
                slots_per_slab: 32,
            }],
            slabs_per_class: 4,
        };
        let size = PmemHeap::required_size(&cfg);
        let mut pm = SimPmem::new(size, SimConfig::fast_test());
        let region = Region::new(0, size);

        // Wear-aware: alloc/free churn on one live blob at a time rotates
        // over all four slabs.
        let mut h = PmemHeap::create(&mut pm, region, &cfg).unwrap();
        for i in 0..64 {
            let p = h.alloc(&mut pm, &[i as u8; 32]).unwrap();
            h.free(&mut pm, p).unwrap();
        }
        let writes = h.slab_writes().to_vec();
        assert_eq!(writes.iter().sum::<u64>(), 64);
        assert!(
            writes.iter().all(|&w| w == 16),
            "wear-aware rotation should even out writes, got {writes:?}"
        );

        // First-fit baseline: the same churn hammers slab 0 only.
        let mut h = PmemHeap::create(&mut pm, region, &cfg).unwrap();
        h.set_rotation(RotationPolicy::FirstFit);
        for i in 0..64 {
            let p = h.alloc(&mut pm, &[i as u8; 32]).unwrap();
            h.free(&mut pm, p).unwrap();
        }
        let writes = h.slab_writes();
        assert_eq!(writes[0], 64);
        assert!(writes[1..].iter().all(|&w| w == 0));
    }

    #[test]
    fn gc_reclaims_unreferenced_blobs() {
        let (mut pm, mut h, _) = setup(32 * 1024);
        let mut owner = SetOwner::new();
        let mut leaked = 0;
        for i in 0..20u8 {
            let blob = vec![i; 24];
            let p = h.alloc(&mut pm, &blob).unwrap();
            if i % 4 == 0 {
                leaked += 1; // owner never learns about these
            } else {
                owner.live.insert(p.0, blob);
            }
        }
        let reclaimed = h.gc_full(&mut pm, &mut owner).unwrap();
        assert_eq!(reclaimed, leaked);
        assert_eq!(h.allocated(&pm), 20 - leaked);
        // Everything the owner references is still intact.
        for (&off, blob) in &owner.live {
            assert_eq!(&h.read(&pm, PmemPtr(off)).unwrap(), blob);
        }
        // A second pass finds nothing.
        assert_eq!(h.gc_full(&mut pm, &mut owner).unwrap(), 0);
    }

    #[test]
    fn gc_compacts_sparse_slabs() {
        let cfg = HeapConfig {
            classes: vec![ClassSpec {
                slot_size: 64,
                slots_per_slab: 16,
            }],
            slabs_per_class: 2,
        };
        let size = PmemHeap::required_size(&cfg);
        let mut pm = SimPmem::new(size, SimConfig::fast_test());
        let mut h = PmemHeap::create(&mut pm, Region::new(0, size), &cfg).unwrap();
        h.set_rotation(RotationPolicy::FirstFit);
        let mut owner = SetOwner::new();
        // Fill slab 0, spill a few into slab 1, then free most of slab 0
        // so it becomes sparse (≤ 4 live of 16).
        let mut ptrs = vec![];
        for i in 0..20u8 {
            let blob = vec![i; 32];
            let p = h.alloc(&mut pm, &blob).unwrap();
            owner.live.insert(p.0, blob);
            ptrs.push(p);
        }
        for &p in &ptrs[2..16] {
            owner.live.remove(&p.0);
            h.free(&mut pm, p).unwrap();
        }
        h.gc_full(&mut pm, &mut owner).unwrap();
        // Slab 0's two survivors moved into slab 1 (the denser slab).
        assert!(h.stats().gc_moves >= 2, "stats: {:?}", h.stats());
        let usage = h.class_usage(&pm);
        assert_eq!(usage[0].0, 6); // 2 moved + 4 spilled
        for (&off, blob) in &owner.live {
            assert_eq!(&h.read(&pm, PmemPtr(off)).unwrap(), blob);
        }
    }

    #[test]
    fn gc_step_is_bounded_and_resumable() {
        let (mut pm, mut h, region) = setup(32 * 1024);
        let mut owner = SetOwner::new();
        for i in 0..10u8 {
            h.alloc(&mut pm, &[i; 24]).unwrap(); // all leaked
        }
        assert!(!h.gc_pending(&pm));
        assert!(h.gc_step(&mut pm, 1, &mut owner).unwrap());
        assert!(h.gc_pending(&pm), "pass in flight is persisted");
        // The in-flight pass survives a re-open and resumes where it was.
        let mut h2 = PmemHeap::open(&pm, region).unwrap();
        assert!(h2.gc_pending(&pm));
        while h2.gc_step(&mut pm, 64, &mut owner).unwrap() {}
        assert!(!h2.gc_pending(&pm));
        assert_eq!(h2.allocated(&pm), 0, "every leaked blob reclaimed");
    }

    /// The heap's publish budgets, pinned: alloc = data persist + bitmap
    /// commit (2 flushes / 2 fences / 1 atomic), free = bitmap commit
    /// alone (1 / 1 / 1). Slots are 64 B here so the data persist is one
    /// line.
    #[test]
    fn alloc_and_free_budgets_are_pinned() {
        let cfg = HeapConfig {
            classes: vec![ClassSpec {
                slot_size: 64,
                slots_per_slab: 8,
            }],
            slabs_per_class: 1,
        };
        let size = PmemHeap::required_size(&cfg);
        let mut pm = SimPmem::new(size, SimConfig::fast_test());
        let mut h = PmemHeap::create(&mut pm, Region::new(0, size), &cfg).unwrap();
        pm.reset_stats();
        let p = h.alloc(&mut pm, &[7; 40]).unwrap();
        let st = pm.stats();
        assert_eq!((st.flushes, st.fences, st.atomic_writes), (2, 2, 1));
        pm.reset_stats();
        h.free(&mut pm, p).unwrap();
        let st = pm.stats();
        assert_eq!((st.flushes, st.fences, st.atomic_writes), (1, 1, 1));
    }

    #[test]
    fn heaps_stamped_with_the_old_prefix_width_are_refused() {
        // "NVHEAP01" heaps stored 8-byte slot length prefixes; opening
        // one with 4-byte prefixes would misread every blob length.
        const OLD_MAGIC: u64 = 0x4E56_4845_4150_3031;
        let (mut pm, mut h, region) = setup(16 * 1024);
        h.alloc(&mut pm, b"old format").unwrap();
        pm.atomic_write_u64(
            nvm_pmem::align_up(region.off, nvm_pmem::CACHELINE),
            OLD_MAGIC,
        );
        assert!(matches!(
            PmemHeap::open(&pm, region),
            Err(AllocError::BadHeader(_))
        ));
    }

    #[test]
    fn read_view_reads_concurrently() {
        let (mut pm, mut h, _) = setup(32 * 1024);
        let p = h.alloc(&mut pm, b"shared read").unwrap();
        let view = h.read_view();
        let r = pm.read_handle();
        let got = std::thread::scope(|s| s.spawn(|| view.read(&r, p).unwrap()).join().unwrap());
        assert_eq!(got, b"shared read");
        assert!(view.is_allocated(&r, p));
    }
}
