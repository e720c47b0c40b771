//! Wall-clock persistent-memory emulation with real intrinsics.
//!
//! Mirrors the paper's testbed methodology (§4.1): a DRAM region is treated
//! as NVM; writes are made durable with real `clflush` + `mfence`, and an
//! extra configurable delay (300 ns by default) is spun after each flushed
//! cacheline to emulate NVM's slower writes, exactly as PMFS-style
//! emulators do. Reads run at DRAM speed, as in the paper ("NVM has similar
//! read latency to DRAM").
//!
//! On x86_64 the flush/fence primitives are the genuine
//! `core::arch::x86_64` intrinsics; elsewhere they degrade to compiler
//! fences plus the emulation delay, preserving timing behaviour (but not
//! actual durability, which no DRAM-backed emulation provides anyway).
//!
//! The pool and its counters live in an [`Arc`]-shared allocation so
//! [`RealPmemReader`] handles can read from other threads while the unique
//! owning `RealPmem` writes (readers must validate against tearing, e.g.
//! with a seqlock).

use crate::stats::AtomicPmemStats;
use crate::{Pmem, PmemRead, PmemStats, PmemWrite};
use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::sync::Arc;
use std::time::Instant;

use crate::region::CACHELINE;

/// The shared allocation: pool bytes + counters.
#[derive(Debug)]
struct RealShared {
    ptr: *mut u8,
    len: usize,
    layout: Layout,
    stats: AtomicPmemStats,
}

// SAFETY: bytes are only mutated through the unique owning `RealPmem`
// (`&mut self`); reader handles do raw-pointer copies whose races are the
// caller's validation problem. Counters are atomic.
unsafe impl Send for RealShared {}
unsafe impl Sync for RealShared {}

impl Drop for RealShared {
    fn drop(&mut self) {
        // SAFETY: allocated with this exact layout in the constructor.
        unsafe { dealloc(self.ptr, self.layout) }
    }
}

impl RealShared {
    #[inline]
    fn check_bounds(&self, off: usize, len: usize) {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.len),
            "pmem access out of bounds: off={off} len={len} pool={}",
            self.len
        );
    }

    #[inline]
    fn read_into(&self, off: usize, buf: &mut [u8]) {
        self.check_bounds(off, buf.len());
        // SAFETY: bounds checked; regions cannot overlap (buf is a distinct
        // allocation). Raw copy, no reference formed over the pool.
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr.add(off), buf.as_mut_ptr(), buf.len());
        }
        self.stats.note_read(buf.len() as u64);
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn prefetch_lines(&self, off: usize, len: usize) {
        self.check_bounds(off, len.max(1));
        let first = off / CACHELINE;
        let last = (off + len.max(1) - 1) / CACHELINE;
        for line in first..=last {
            // SAFETY: in-bounds (checked above); prefetch is a pure hint
            // with no alignment or aliasing requirements.
            unsafe {
                core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                    self.ptr.add(line * CACHELINE) as *const i8,
                );
            }
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[inline]
    fn prefetch_lines(&self, off: usize, len: usize) {
        self.check_bounds(off, len.max(1));
    }

    // ---- shared mutation core (owner + write handles) -----------------
    //
    // Plain writes require caller-guaranteed disjointness (a latch keeps
    // concurrent writers on different bytes); the CAS is the one supported
    // same-word contention point.

    #[inline]
    fn write_bytes(&self, off: usize, data: &[u8]) {
        self.check_bounds(off, data.len());
        // SAFETY: bounds checked; source is a distinct allocation. Raw
        // copy, no reference formed over the pool, so concurrent readers
        // merely risk tearing (their validation problem, not UB).
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), self.ptr.add(off), data.len());
        }
        self.stats.note_write(data.len() as u64);
    }

    #[inline]
    fn atomic_store_u64(&self, off: usize, v: u64) {
        assert_eq!(off % 8, 0, "atomic_write_u64 requires 8-byte alignment");
        self.check_bounds(off, 8);
        // SAFETY: aligned (asserted), in-bounds, and the pool outlives the
        // reference. A relaxed atomic store compiles to a plain MOV on
        // x86_64 — the hardware guarantees 8-byte aligned stores are not
        // torn, which is the paper's failure-atomicity assumption.
        unsafe {
            let p = self.ptr.add(off) as *mut std::sync::atomic::AtomicU64;
            (*p).store(v, std::sync::atomic::Ordering::Relaxed);
        }
        self.stats.note_write(8);
        self.stats.note_atomic_write();
    }

    #[inline]
    fn cas_u64(&self, off: usize, current: u64, new: u64) -> Result<u64, u64> {
        assert_eq!(off % 8, 0, "compare_exchange_u64 requires 8-byte alignment");
        self.check_bounds(off, 8);
        self.stats.note_atomic_write();
        // SAFETY: aligned (asserted), in-bounds (checked), and the pool is
        // cacheline-aligned so every 8-aligned offset is a valid AtomicU64
        // location; the pool outlives the reference. AcqRel orders the
        // caller's earlier stores before a winning swap.
        let r = unsafe {
            let p = self.ptr.add(off) as *mut std::sync::atomic::AtomicU64;
            (*p).compare_exchange(
                current,
                new,
                std::sync::atomic::Ordering::AcqRel,
                std::sync::atomic::Ordering::Acquire,
            )
        };
        if r.is_ok() {
            self.stats.note_write(8);
        }
        r
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn clflush_line(&self, off: usize) {
        // SAFETY: `off` is bounds-checked by callers; the pointer is valid
        // for the pool's lifetime. clflush has no alignment requirement.
        unsafe {
            core::arch::x86_64::_mm_clflush(self.ptr.add(off));
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[inline]
    fn clflush_line(&self, _off: usize) {
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
    }

    fn flush_lines(&self, off: usize, len: usize, extra_write_ns: u64) {
        self.check_bounds(off, len.max(1));
        let first = off / CACHELINE;
        let last = (off + len.max(1) - 1) / CACHELINE;
        for line in first..=last {
            self.clflush_line(line * CACHELINE);
            self.stats.note_flush_lines(1);
            // Emulate the slow NVM write path, as the paper does after
            // each clflush.
            spin_ns(extra_write_ns);
        }
    }

    fn fence_once(&self) {
        mfence();
        self.stats.note_fence();
    }
}

/// Busy-waits for approximately `ns` nanoseconds. `Instant`-based so it is
/// robust to frequency scaling; the granularity (~tens of ns) is the same
/// technique used by the NVM-emulation literature.
#[inline]
fn spin_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let start = Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn mfence() {
    // SAFETY: mfence has no preconditions.
    unsafe {
        core::arch::x86_64::_mm_mfence();
    }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn mfence() {
    std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
}

/// DRAM-backed pmem emulation with real `clflush`/`mfence` and a spin-wait
/// emulating NVM write latency.
#[derive(Debug)]
pub struct RealPmem {
    shared: Arc<RealShared>,
    /// Extra latency charged per flushed cacheline, emulating the NVM
    /// write path (0 disables the spin).
    extra_write_ns: u64,
}

/// Cloneable shared-read handle over a [`RealPmem`] pool
/// ([`Pmem::read_handle`]). Reads run at DRAM speed and may race the
/// owner's writes (pair with a validation protocol).
#[derive(Debug, Clone)]
pub struct RealPmemReader {
    shared: Arc<RealShared>,
}

/// Cloneable shared-write handle over a [`RealPmem`] pool
/// ([`Pmem::write_handle`]).
///
/// Mutations go straight to the shared bytes with no internal
/// serialization: concurrent writers must keep plain `write`s on disjoint
/// bytes (e.g. behind a latch), and contend only through
/// [`PmemWrite::compare_exchange_u64`] — a genuine hardware `lock cmpxchg`
/// on the pool word.
#[derive(Debug, Clone)]
pub struct RealPmemWriter {
    shared: Arc<RealShared>,
    extra_write_ns: u64,
}

impl RealPmem {
    /// Default emulated extra NVM write latency (the paper's 300 ns).
    pub const DEFAULT_EXTRA_WRITE_NS: u64 = 300;

    /// Allocates a zeroed, cacheline-aligned pool of `len` bytes with the
    /// paper's 300 ns emulated write latency.
    pub fn new(len: usize) -> Self {
        Self::with_write_latency(len, Self::DEFAULT_EXTRA_WRITE_NS)
    }

    /// Allocates with a custom per-flush extra latency (0 = raw DRAM).
    pub fn with_write_latency(len: usize, extra_write_ns: u64) -> Self {
        assert!(len > 0, "empty pool");
        let layout = Layout::from_size_align(len, CACHELINE).expect("bad layout");
        // SAFETY: layout has non-zero size; allocation checked below.
        let ptr = unsafe { alloc_zeroed(layout) };
        assert!(!ptr.is_null(), "pmem pool allocation failed ({len} bytes)");
        RealPmem {
            shared: Arc::new(RealShared {
                ptr,
                len,
                layout,
                stats: AtomicPmemStats::default(),
            }),
            extra_write_ns,
        }
    }

    /// Raw read-only view (tests/oracles; bypasses statistics). The borrow
    /// of `self` keeps the unique writer out for its duration.
    pub fn raw(&self) -> &[u8] {
        // SAFETY: ptr/len describe our live allocation; mutation requires
        // `&mut RealPmem`, which this shared borrow excludes.
        unsafe { std::slice::from_raw_parts(self.shared.ptr, self.shared.len) }
    }
}

impl PmemRead for RealPmem {
    #[inline]
    fn read(&self, off: usize, buf: &mut [u8]) {
        self.shared.read_into(off, buf);
    }

    fn len(&self) -> usize {
        self.shared.len
    }

    #[inline]
    fn prefetch(&self, off: usize, len: usize) {
        self.shared.prefetch_lines(off, len);
    }
}

impl PmemRead for RealPmemReader {
    #[inline]
    fn read(&self, off: usize, buf: &mut [u8]) {
        self.shared.read_into(off, buf);
    }

    fn len(&self) -> usize {
        self.shared.len
    }

    #[inline]
    fn prefetch(&self, off: usize, len: usize) {
        self.shared.prefetch_lines(off, len);
    }
}

impl PmemRead for RealPmemWriter {
    #[inline]
    fn read(&self, off: usize, buf: &mut [u8]) {
        self.shared.read_into(off, buf);
    }

    fn len(&self) -> usize {
        self.shared.len
    }

    #[inline]
    fn prefetch(&self, off: usize, len: usize) {
        self.shared.prefetch_lines(off, len);
    }
}

impl PmemWrite for RealPmemWriter {
    #[inline]
    fn write(&self, off: usize, data: &[u8]) {
        self.shared.write_bytes(off, data);
    }

    #[inline]
    fn atomic_write_u64(&self, off: usize, v: u64) {
        self.shared.atomic_store_u64(off, v);
    }

    #[inline]
    fn compare_exchange_u64(&self, off: usize, current: u64, new: u64) -> Result<u64, u64> {
        self.shared.cas_u64(off, current, new)
    }

    fn flush(&self, off: usize, len: usize) {
        self.shared.flush_lines(off, len, self.extra_write_ns);
    }

    fn fence(&self) {
        self.shared.fence_once();
    }
}

impl Pmem for RealPmem {
    type ReadHandle = RealPmemReader;
    type WriteHandle = RealPmemWriter;

    fn read_handle(&self) -> RealPmemReader {
        RealPmemReader {
            shared: Arc::clone(&self.shared),
        }
    }

    fn write_handle(&mut self) -> RealPmemWriter {
        RealPmemWriter {
            shared: Arc::clone(&self.shared),
            extra_write_ns: self.extra_write_ns,
        }
    }

    #[inline]
    fn write(&mut self, off: usize, data: &[u8]) {
        self.shared.write_bytes(off, data);
    }

    #[inline]
    fn atomic_write_u64(&mut self, off: usize, v: u64) {
        self.shared.atomic_store_u64(off, v);
    }

    fn flush(&mut self, off: usize, len: usize) {
        self.shared.flush_lines(off, len, self.extra_write_ns);
    }

    fn fence(&mut self) {
        self.shared.fence_once();
    }

    fn stats(&self) -> PmemStats {
        self.shared.stats.snapshot()
    }

    fn reset_stats(&mut self) {
        self.shared.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut p = RealPmem::with_write_latency(4096, 0);
        p.write(10, b"persist me");
        let mut buf = [0u8; 10];
        p.read(10, &mut buf);
        assert_eq!(&buf, b"persist me");
    }

    #[test]
    fn zero_initialized() {
        let p = RealPmem::with_write_latency(1 << 16, 0);
        let mut buf = [1u8; 64];
        p.read(1 << 15, &mut buf);
        assert_eq!(buf, [0u8; 64]);
    }

    #[test]
    fn atomic_write_visible() {
        let mut p = RealPmem::with_write_latency(4096, 0);
        p.atomic_write_u64(64, 0xABCD);
        assert_eq!(p.read_u64(64), 0xABCD);
    }

    #[test]
    fn flush_and_fence_count() {
        let mut p = RealPmem::with_write_latency(4096, 0);
        p.write(0, &[9u8; 100]);
        p.persist(0, 100); // 100 bytes = 2 lines
        assert_eq!(p.stats().flushes, 2);
        assert_eq!(p.stats().fences, 1);
    }

    #[test]
    fn spin_adds_latency() {
        let mut p = RealPmem::with_write_latency(4096, 20_000);
        p.write_u64(0, 1);
        let t = Instant::now();
        p.persist(0, 8);
        assert!(t.elapsed().as_nanos() >= 20_000);
    }

    #[test]
    fn alignment_is_cacheline() {
        let p = RealPmem::with_write_latency(128, 0);
        assert_eq!(p.raw().as_ptr() as usize % CACHELINE, 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_read_panics() {
        let p = RealPmem::with_write_latency(64, 0);
        let mut b = [0u8; 8];
        p.read(60, &mut b);
    }

    #[test]
    fn prefetch_is_a_pure_hint() {
        let mut p = RealPmem::with_write_latency(4096, 0);
        p.write_u64(256, 0x5E1F);
        let before = p.stats();
        p.prefetch(256, 128);
        let h = p.read_handle();
        h.prefetch(256, 64);
        let after = p.stats();
        assert_eq!(before, after, "prefetch must not touch counters");
        assert_eq!(p.read_u64(256), 0x5E1F, "contents untouched");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_prefetch_panics() {
        let p = RealPmem::with_write_latency(64, 0);
        p.prefetch(64, 8);
    }

    #[test]
    fn reader_handle_shares_pool_across_threads() {
        let mut p = RealPmem::with_write_latency(4096, 0);
        p.write_u64(128, 4242);
        let h = p.read_handle();
        let t = std::thread::spawn(move || h.read_u64(128));
        assert_eq!(t.join().unwrap(), 4242);
    }

    #[test]
    fn write_handle_roundtrip_and_counts() {
        let mut p = RealPmem::with_write_latency(4096, 0);
        let w = p.write_handle();
        w.write_u64(64, 0xC0FFEE);
        w.persist(64, 8);
        assert_eq!(p.read_u64(64), 0xC0FFEE);
        let s = p.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.fences, 1);
    }

    #[test]
    fn cas_matches_and_mismatches() {
        let mut p = RealPmem::with_write_latency(4096, 0);
        p.write_u64(0, 3);
        p.reset_stats();
        let w = p.write_handle();
        assert_eq!(w.compare_exchange_u64(0, 3, 4), Ok(3));
        assert_eq!(w.compare_exchange_u64(0, 3, 5), Err(4));
        assert_eq!(p.read_u64(0), 4);
        assert_eq!(p.stats().atomic_writes, 2, "every attempt counts");
    }

    #[test]
    fn cas_resolves_races_between_handles() {
        let mut p = RealPmem::with_write_latency(4096, 0);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let w = p.write_handle();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        loop {
                            let cur = w.read_u64(0);
                            if w.compare_exchange_u64(0, cur, cur + 1).is_ok() {
                                break;
                            }
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(p.read_u64(0), 4000, "no lost increments");
    }
}
