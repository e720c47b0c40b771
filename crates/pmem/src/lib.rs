//! Non-volatile memory substrate.
//!
//! The group-hashing paper runs on DRAM-emulated NVM: stores go through the
//! CPU cache, `clflush` + `mfence` make them durable, and an extra write
//! latency (300 ns by default) is charged after each cacheline flush. This
//! crate provides that substrate twice, behind one trait:
//!
//! * [`SimPmem`] — a deterministic simulator. It models the volatile-cache /
//!   persistent-media boundary explicitly: stores are volatile until the
//!   line is flushed **and** a fence retires the flush; naturally-aligned
//!   8-byte stores are failure-atomic (the paper's atomicity unit); larger
//!   writes can tear at 8-byte boundaries on a crash. It is coupled to the
//!   [`nvm_cachesim`] hierarchy for L3-miss accounting and to a simulated
//!   clock for latency accounting, and it supports *crash injection* at any
//!   memory event for consistency testing.
//! * [`RealPmem`] — a 64-byte-aligned DRAM region driven by real
//!   `clflush`/`sfence`/`mfence` intrinsics (`core::arch::x86_64`) plus a
//!   calibrated spin to emulate NVM's slower writes, exactly the PMFS-style
//!   methodology of the paper's testbed. Used for wall-clock benchmarks.
//!
//! Data structures built on top are generic over [`Pmem`], so the same table
//! code runs under the simulator (deterministic experiments, crash tests)
//! and on real intrinsics (criterion benches).
//!
//! # Read/write capability split
//!
//! The query path of a hash table is read-only, and on a concurrent wrapper
//! it must not serialize behind writers. The trait surface is therefore
//! split in two:
//!
//! * [`PmemRead`] — shared-capability reads: `read`/`read_u64` take `&self`,
//!   so any number of threads holding `&P` (or a cloned
//!   [`Pmem::ReadHandle`]) can probe concurrently. Read-side accounting is
//!   kept in atomics internally.
//! * [`Pmem`] — the exclusive half: every mutation (`write`,
//!   `atomic_write_u64`, `flush`, `fence`) still requires `&mut self`, which
//!   statically guarantees a single writer.
//!
//! [`Pmem::read_handle`] yields an owning, cloneable [`PmemRead`] view
//! (`Send + Sync`) that shares the backing pool, for reader threads that
//! cannot borrow the writer's `&self`. Torn reads racing a concurrent
//! writer are possible by design; callers layer a validation protocol (e.g.
//! the seqlock in `group_hash::ShardedGroupHash`) on top.
//!
//! # Consistency contract
//!
//! A store is **durable** only after (1) `flush` of its line and (2) a
//! subsequent `fence`. On a simulated crash:
//!
//! * durable bytes survive verbatim;
//! * every *non-durable* dirty 8-byte word independently either reaches the
//!   media or not (seeded, reproducible) — lines can also be evicted by the
//!   cache on their own, which is why unflushed data may still persist;
//! * an aligned 8-byte word is never torn.

mod clock;
mod crash;
mod image;
mod real;
mod region;
mod sim;
mod stats;

pub use clock::{LatencyModel, SimClock};
pub use crash::{run_with_crash, CrashPlan, CrashResolution, CrashSignal};
pub use real::{RealPmem, RealPmemReader, RealPmemWriter};
pub use region::{align_up, Region, RegionAllocator, CACHELINE};
pub use sim::{SimConfig, SimPmem, SimPmemReader, SimPmemWriter};
pub use stats::PmemStats;

use nvm_cachesim::CacheStats;

/// Shared-capability reads over byte-addressable persistent memory.
///
/// Everything here takes `&self`: multiple threads may probe the same pool
/// concurrently. Implementations keep their read-side accounting in atomics
/// (or skip contended accounting) so the hot path stays lock-free.
///
/// A read that races an in-flight [`Pmem::write`] to the same bytes may
/// observe a torn mixture; callers that share a pool with a live writer
/// must validate reads (generation/seqlock) before trusting them.
pub trait PmemRead {
    /// Reads `buf.len()` bytes at `off`.
    fn read(&self, off: usize, buf: &mut [u8]);

    /// Reads a little-endian u64 at `off` (any alignment).
    fn read_u64(&self, off: usize) -> u64 {
        let mut b = [0u8; 8];
        self.read(off, &mut b);
        u64::from_le_bytes(b)
    }

    /// Pool capacity in bytes.
    fn len(&self) -> usize;

    /// True if the pool has zero capacity.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hints that the cachelines overlapping `[off, off + len)` are about
    /// to be read, so the hardware can start the fill while the caller
    /// does other work. Purely advisory: no ordering, no durability, no
    /// effect on contents. Backends that model the cache hierarchy install
    /// the lines and charge only the issue cost; [`RealPmem`] maps it to
    /// `prefetcht0`; the default is a no-op.
    ///
    /// This is the primitive under the vectorized `get_batch` read path:
    /// hash a whole key vector, prefetch every candidate line, then
    /// resolve the probes against warm lines.
    fn prefetch(&self, off: usize, len: usize) {
        let _ = (off, len);
    }
}

/// Shared-capability mutation over persistent memory.
///
/// Everything here takes `&self`: many writer threads may mutate the same
/// pool concurrently through cloned [`Pmem::WriteHandle`]s. The safety
/// contract is the caller's: concurrent writers must target disjoint bytes
/// (a latch or a lock keeps them apart), with one exception —
/// [`PmemWrite::compare_exchange_u64`] on the *same* aligned word is the
/// supported contention point. The workspace's tables all write through
/// the exclusive [`Pmem`] surface; this one is kept for pool wrappers that
/// forward it.
///
/// The persistence contract is unchanged from [`Pmem`]: a store is durable
/// only after its line is flushed and a fence retires the flush.
pub trait PmemWrite: PmemRead {
    /// Writes `data` at `off`. Volatile until flushed and fenced. Callers
    /// must guarantee no concurrent writer touches the same bytes.
    fn write(&self, off: usize, data: &[u8]);

    /// Writes a little-endian u64 at `off` (any alignment; not atomic
    /// unless 8-byte aligned).
    fn write_u64(&self, off: usize, v: u64) {
        self.write(off, &v.to_le_bytes());
    }

    /// Failure-atomic 8-byte store. `off` must be 8-byte aligned; panics
    /// otherwise.
    fn atomic_write_u64(&self, off: usize, v: u64);

    /// Atomic compare-and-swap of the aligned 8-byte word at `off`:
    /// if the word equals `current`, stores `new` and returns `Ok(current)`;
    /// otherwise returns `Err(actual)` with the observed value. `off` must
    /// be 8-byte aligned; panics otherwise.
    ///
    /// Every attempt counts as one atomic write in [`PmemStats`] (the
    /// paper's cost model charges the store-buffer/XADD traffic whether or
    /// not the CAS wins); like every store, the result is volatile until
    /// flushed and fenced.
    fn compare_exchange_u64(&self, off: usize, current: u64, new: u64) -> Result<u64, u64>;

    /// Initiates write-back-and-invalidate (`clflush`) of every cacheline
    /// overlapping `[off, off + len)`. Durability requires a later `fence`.
    fn flush(&self, off: usize, len: usize);

    /// Orders and retires outstanding flushes (`mfence`).
    fn fence(&self);

    /// `flush` + `fence` — the paper's `Persist`.
    fn persist(&self, off: usize, len: usize) {
        self.flush(off, len);
        self.fence();
    }
}

/// Byte-addressable persistent memory with explicit persistence control.
///
/// Offsets are pool-relative byte addresses. All mutation is volatile until
/// [`Pmem::flush`] + [`Pmem::fence`]; [`Pmem::persist`] is the common
/// `clflush; mfence` pairing the paper calls *Persist*.
///
/// Reads live on the [`PmemRead`] supertrait (`&self`); mutation, flushes
/// and fences stay here on `&mut self`, so the borrow checker enforces the
/// single-writer/many-readers discipline. Concurrent writers opt out of
/// that static guarantee explicitly via [`Pmem::write_handle`], whose
/// [`PmemWrite`] surface shifts the disjointness obligation onto a runtime
/// protocol.
pub trait Pmem: PmemRead {
    /// Owning shared-read view of the same pool, for reader threads.
    type ReadHandle: PmemRead + Clone + Send + Sync + 'static;

    /// Owning shared-write view of the same pool, for concurrent writer
    /// threads that keep their stores apart by their own protocol.
    type WriteHandle: PmemWrite + Clone + Send + Sync + 'static;

    /// Returns a cloneable [`PmemRead`] handle sharing this pool's backing
    /// storage. Reads through the handle observe the writer's stores (with
    /// no ordering guarantee beyond what the caller's own protocol adds).
    fn read_handle(&self) -> Self::ReadHandle;

    /// Returns a cloneable [`PmemWrite`] handle sharing this pool's backing
    /// storage and counters. Takes `&mut self`: minting the first shared
    /// writer is itself a write-capability operation, so a `&P` reader can
    /// never conjure mutation rights out of a shared borrow.
    fn write_handle(&mut self) -> Self::WriteHandle;

    /// Writes `data` at `off`. Volatile until flushed and fenced.
    fn write(&mut self, off: usize, data: &[u8]);

    /// Writes a little-endian u64 at `off` (any alignment; not atomic
    /// unless 8-byte aligned).
    fn write_u64(&mut self, off: usize, v: u64) {
        self.write(off, &v.to_le_bytes());
    }

    /// Failure-atomic 8-byte store. `off` must be 8-byte aligned; panics
    /// otherwise. This is the paper's commit primitive: on a crash the word
    /// holds either the old or the new value, never a mixture.
    fn atomic_write_u64(&mut self, off: usize, v: u64);

    /// Initiates write-back-and-invalidate (`clflush`) of every cacheline
    /// overlapping `[off, off + len)`. Durability requires a later `fence`.
    fn flush(&mut self, off: usize, len: usize);

    /// Orders and retires outstanding flushes (`mfence`).
    fn fence(&mut self);

    /// `flush` + `fence` — the paper's `Persist`.
    fn persist(&mut self, off: usize, len: usize) {
        self.flush(off, len);
        self.fence();
    }

    /// Snapshot of the operation counters.
    ///
    /// By value: counters live in atomics (shared with read handles), so
    /// there is no stable `&PmemStats` to hand out.
    fn stats(&self) -> PmemStats;

    /// Resets operation counters (and, where applicable, cache statistics
    /// and the simulated clock) without touching contents.
    fn reset_stats(&mut self);

    /// Simulated elapsed nanoseconds, if this backend models time.
    fn sim_time_ns(&self) -> Option<u64> {
        None
    }

    /// Snapshot of cache-hierarchy statistics, if this backend models the
    /// CPU cache.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn default_u64_roundtrip_on_sim() {
        let mut p = SimPmem::new(4096, SimConfig::fast_test());
        p.write_u64(16, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(p.read_u64(16), 0xDEAD_BEEF_CAFE_F00D);
        assert!(!p.is_empty());
    }

    #[test]
    fn read_handle_sees_writes_and_is_send_sync() {
        fn assert_handle<H: PmemRead + Clone + Send + Sync + 'static>(_: &H) {}
        let mut p = SimPmem::new(4096, SimConfig::fast_test());
        let h = p.read_handle();
        assert_handle(&h);
        p.write_u64(64, 77);
        assert_eq!(h.read_u64(64), 77);
        assert_eq!(h.len(), 4096);
        let h2 = h.clone();
        assert_eq!(h2.read_u64(64), 77);
    }
}
