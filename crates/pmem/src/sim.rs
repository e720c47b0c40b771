//! The deterministic NVM simulator.
//!
//! `SimPmem` keeps two views of every byte:
//!
//! * the **CPU view** (the shared buffer) — what loads observe, i.e. the
//!   newest store;
//! * the **media view** — what would survive a power failure right now.
//!
//! The media view is stored as a delta: for every cacheline holding at
//! least one non-durable word, a [`LineState`] records the line's durable
//! content (`base`) plus which 8-byte words have diverged. A `flush`
//! snapshots the line (clflush is asynchronous); only a subsequent `fence`
//! makes the snapshot durable. On [`SimPmem::crash`], non-durable words
//! resolve per [`CrashResolution`], the CPU caches are dropped, and the
//! pool's contents become exactly the resolved media — the only bytes a
//! recovery procedure may rely on.
//!
//! # Sharing model
//!
//! The byte buffer, operation counters, the cache/clock model, *and* the
//! persistence model (dirty-line delta, pending flushes, crash plan, wear)
//! live in an [`Arc`]-shared block so that [`SimPmemReader`] handles (from
//! [`Pmem::read_handle`]) and [`SimPmemWriter`] handles (from
//! [`Pmem::write_handle`]) can operate concurrently with the owning
//! `SimPmem`:
//!
//! * counters are `Relaxed` atomics;
//! * the persistence model sits behind its own mutex, taken by every
//!   mutation (owner or write handle). This serializes the *accounting* of
//!   concurrent writers — acceptable for a simulator, and exactly what
//!   makes `compare_exchange_u64` atomic here — while the pool bytes
//!   themselves are still copied through raw pointers;
//! * the cache hierarchy + simulated clock sit behind a second mutex,
//!   always acquired *after* the persistence mutex (lock order). Owners
//!   and write handles take it unconditionally (deterministic accounting);
//!   reader handles only `try_lock` and skip the model under contention
//!   (counted), because a shared cache model is not meaningful mid-race;
//! * buffer bytes are copied through raw pointers, never via references
//!   that could alias a concurrent writer. A read racing a write may be
//!   torn — callers validate (seqlock / occupancy-bit recheck) before
//!   trusting racy reads.
//!
//! Exactly one `SimPmem` owns each shared block (`clone` deep-copies);
//! write handles opt into shared mutation explicitly and shift the
//! disjointness obligation onto the caller's own protocol.

use crate::clock::{LatencyModel, SimClock};
use crate::crash::{CrashPlan, CrashResolution, CrashSignal};
use crate::stats::AtomicPmemStats;
use crate::{Pmem, PmemRead, PmemStats, PmemWrite};
use nvm_cachesim::{AccessKind, CacheConfig, CacheHierarchy, CacheStats, LINE_BYTES};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Words per cacheline (64 B / 8 B).
const WORDS_PER_LINE: usize = LINE_BYTES / 8;

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub cache: CacheConfig,
    pub latency: LatencyModel,
    /// Track per-line media write-back counts (NVM wear, §2.1 of the
    /// paper). One u32 per cacheline of pool.
    pub track_wear: bool,
}

impl SimConfig {
    /// The paper's testbed: Xeon E5-2620 cache hierarchy, 300 ns NVM write
    /// latency.
    pub fn paper_default() -> Self {
        SimConfig {
            cache: CacheConfig::xeon_e5_2620(),
            latency: LatencyModel::paper_default(),
            track_wear: true,
        }
    }

    /// Tiny caches for fast unit tests.
    pub fn fast_test() -> Self {
        SimConfig {
            cache: CacheConfig::tiny_for_tests(),
            latency: LatencyModel::paper_default(),
            track_wear: true,
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Per-line non-durability record.
#[derive(Debug, Clone)]
struct LineState {
    /// Durable content of the line.
    base: Box<[u8; LINE_BYTES]>,
    /// Bit *w* set ⇒ word *w* of the CPU view may differ from `base` and is
    /// not yet durable.
    dirty_mask: u64,
    /// Content captured by a `flush` that no fence has retired yet.
    flushed: Option<Box<[u8; LINE_BYTES]>>,
}

/// Cache hierarchy + simulated clock: the accounting model that both the
/// owner and (opportunistically) reader handles charge accesses to.
#[derive(Clone)]
struct Model {
    cache: CacheHierarchy,
    clock: SimClock,
}

/// The persistence model: everything a mutation consults or updates.
/// Shared (behind a mutex) so write handles and the owner interleave with
/// one coherent view of what is durable.
#[derive(Clone)]
struct PersistState {
    lines: BTreeMap<u64, LineState>,
    /// Lines with a pending (un-fenced) flush; drained by `fence`.
    pending: Vec<u64>,
    /// Mutation-event counter for crash injection.
    events: u64,
    plan: Option<CrashPlan>,
    /// Per-line media write-back counts (empty when wear tracking is off).
    wear: Vec<u32>,
}

impl PersistState {
    /// Fires the crash plan if armed for this event, then counts it.
    #[inline]
    fn mutation_event(&mut self) {
        if let Some(plan) = self.plan {
            if self.events == plan.at_event {
                std::panic::panic_any(CrashSignal {
                    at_event: self.events,
                });
            }
        }
        self.events += 1;
    }

    /// Marks the words of `line` covering `[off, off+len)` dirty,
    /// snapshotting the durable base first if needed. Call *before*
    /// mutating the buffer.
    fn mark_dirty(&mut self, shared: &Shared, line: u64, off: usize, len: usize) {
        let entry = self.lines.entry(line).or_insert_with(|| LineState {
            base: snapshot_line(shared, line),
            dirty_mask: 0,
            flushed: None,
        });
        let line_start = line as usize * LINE_BYTES;
        let lo = off.max(line_start);
        let hi = (off + len).min(line_start + LINE_BYTES);
        let first_word = (lo - line_start) / 8;
        let last_word = (hi - line_start).div_ceil(8); // exclusive, rounded up
        for w in first_word..last_word.min(WORDS_PER_LINE) {
            entry.dirty_mask |= 1 << w;
        }
    }
}

/// State shared between the owning [`SimPmem`], its [`SimPmemReader`]s and
/// its [`SimPmemWriter`]s.
struct Shared {
    /// Heap buffer of `len` bytes; accessed only through raw-pointer
    /// copies so handles can run concurrently with mutators.
    ptr: *mut u8,
    len: usize,
    stats: AtomicPmemStats,
    /// Persistence model. Lock order: `persist` before `model`, always.
    persist: Mutex<PersistState>,
    model: Mutex<Model>,
    /// Reader-handle reads that skipped cache/clock accounting because the
    /// model mutex was held.
    contended_reads: AtomicU64,
}

// SAFETY: the buffer is only mutated under the persistence mutex (owner and
// write handles both route every store through it); reader handles perform
// raw-pointer copies that tolerate (and are validated against) torn data.
// All other shared state is atomic or mutex-protected.
unsafe impl Send for Shared {}
unsafe impl Sync for Shared {}

impl Drop for Shared {
    fn drop(&mut self) {
        // SAFETY: `ptr` came from `Box::into_raw` of a `len`-byte slice in
        // `Shared::new` and is dropped exactly once.
        unsafe {
            drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                self.ptr, self.len,
            )));
        }
    }
}

#[inline]
fn line_range(off: usize, len: usize) -> std::ops::RangeInclusive<u64> {
    let first = (off / LINE_BYTES) as u64;
    let last = ((off + len.max(1) - 1) / LINE_BYTES) as u64;
    first..=last
}

fn snapshot_line(shared: &Shared, line: u64) -> Box<[u8; LINE_BYTES]> {
    let start = line as usize * LINE_BYTES;
    let mut b = Box::new([0u8; LINE_BYTES]);
    shared.copy_out(start, &mut b[..]);
    b
}

impl Shared {
    fn new(bytes: Box<[u8]>, model: Model, persist: PersistState) -> Arc<Self> {
        let len = bytes.len();
        let ptr = Box::into_raw(bytes) as *mut u8;
        Arc::new(Shared {
            ptr,
            len,
            stats: AtomicPmemStats::default(),
            persist: Mutex::new(persist),
            model: Mutex::new(model),
            contended_reads: AtomicU64::new(0),
        })
    }

    fn model(&self) -> MutexGuard<'_, Model> {
        // Poisoning carries no meaning here (the model holds statistics,
        // not invariants), so recover from a panicked holder.
        self.model.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn persist_state(&self) -> MutexGuard<'_, PersistState> {
        // Crash injection panics *while holding* this mutex by design (the
        // "power failure" interrupts the mutation mid-flight); recovery
        // code then reacquires it, so poison must not propagate.
        self.persist.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[inline]
    fn check_bounds(&self, off: usize, len: usize) {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.len),
            "pmem access out of bounds: off={off} len={len} pool={}",
            self.len
        );
    }

    /// Raw copy out of the buffer. Bounds must be pre-checked.
    #[inline]
    fn copy_out(&self, off: usize, buf: &mut [u8]) {
        // SAFETY: in-bounds (caller checked); raw copy never forms a
        // reference to the buffer, so it may race a writer (torn data is
        // the caller's protocol problem, not UB-by-aliasing).
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr.add(off), buf.as_mut_ptr(), buf.len());
        }
    }

    /// Raw copy into the buffer. Mutator-only: reached with the
    /// persistence mutex held (owner path and write handles alike), so
    /// there is exactly one mutator at a time.
    #[inline]
    fn copy_in(&self, off: usize, data: &[u8]) {
        // SAFETY: in-bounds (caller checked); serialized by the
        // persistence mutex.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), self.ptr.add(off), data.len());
        }
    }

    #[inline]
    fn read_word(&self, off: usize) -> [u8; 8] {
        let mut w = [0u8; 8];
        self.copy_out(off, &mut w);
        w
    }

    /// Charges cacheline accesses for `[off, off+len)` to the model.
    /// `blocking` distinguishes the deterministic owner/writer path from
    /// the opportunistic reader-handle path.
    fn charge_access(
        &self,
        off: usize,
        len: usize,
        kind: AccessKind,
        latency: &LatencyModel,
        blocking: bool,
    ) {
        let mut guard = if blocking {
            self.model()
        } else {
            match self.model.try_lock() {
                Ok(g) => g,
                Err(_) => {
                    self.contended_reads.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        };
        let m = &mut *guard;
        for line in line_range(off, len) {
            let hit = m.cache.access(line as usize * LINE_BYTES, kind);
            m.clock.advance(latency.access_cost(hit));
        }
    }

    /// Installs the lines of `[off, off+len)` into the cache model but
    /// charges only the prefetch *issue* cost per line — the fill latency
    /// is assumed to overlap with the caller's other work, which is the
    /// whole value proposition of software prefetch. Same
    /// blocking/opportunistic split as [`Shared::charge_access`].
    fn charge_prefetch(&self, off: usize, len: usize, latency: &LatencyModel, blocking: bool) {
        let mut guard = if blocking {
            self.model()
        } else {
            match self.model.try_lock() {
                Ok(g) => g,
                Err(_) => {
                    self.contended_reads.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        };
        let m = &mut *guard;
        for line in line_range(off, len) {
            m.cache.access(line as usize * LINE_BYTES, AccessKind::Read);
            m.clock.advance(latency.prefetch_issue_ns);
        }
    }

    // ---- shared mutation core (owner + write handles) -----------------

    /// Plain store: mutation event, cache charge, dirty marking, copy-in.
    fn do_write(&self, off: usize, data: &[u8], latency: &LatencyModel) {
        self.check_bounds(off, data.len());
        let mut st = self.persist_state();
        st.mutation_event();
        self.charge_access(off, data.len(), AccessKind::Write, latency, true);
        for line in line_range(off, data.len()) {
            st.mark_dirty(self, line, off, data.len());
        }
        self.copy_in(off, data);
        self.stats.note_write(data.len() as u64);
    }

    fn do_atomic_write(&self, off: usize, v: u64, latency: &LatencyModel) {
        assert_eq!(off % 8, 0, "atomic_write_u64 requires 8-byte alignment");
        self.do_write(off, &v.to_le_bytes(), latency);
        self.stats.note_atomic_write();
    }

    /// Compare-and-swap of an aligned word. Atomic across every owner and
    /// write-handle mutation because all of them serialize on the
    /// persistence mutex. Every attempt is one mutation event and one
    /// atomic write in the stats; only a winning attempt dirties the word.
    fn do_cas(
        &self,
        off: usize,
        current: u64,
        new: u64,
        latency: &LatencyModel,
    ) -> Result<u64, u64> {
        assert_eq!(off % 8, 0, "compare_exchange_u64 requires 8-byte alignment");
        self.check_bounds(off, 8);
        let mut st = self.persist_state();
        st.mutation_event();
        self.charge_access(off, 8, AccessKind::Write, latency, true);
        self.stats.note_atomic_write();
        let observed = u64::from_le_bytes(self.read_word(off));
        if observed != current {
            return Err(observed);
        }
        for line in line_range(off, 8) {
            st.mark_dirty(self, line, off, 8);
        }
        self.copy_in(off, &new.to_le_bytes());
        self.stats.note_write(8);
        Ok(observed)
    }

    fn do_flush(&self, off: usize, len: usize, latency: &LatencyModel) {
        self.check_bounds(off, len.max(1));
        for line in line_range(off, len) {
            let mut st = self.persist_state();
            st.mutation_event();
            self.stats.note_flush_lines(1);
            let dirty = st.lines.contains_key(&line);
            if dirty {
                let snap = snapshot_line(self, line);
                let state = st.lines.get_mut(&line).expect("checked above");
                state.flushed = Some(snap);
                st.pending.push(line);
                if let Some(w) = st.wear.get_mut(line as usize) {
                    *w = w.saturating_add(1);
                }
            }
            let mut m = self.model();
            m.cache.invalidate(line as usize * LINE_BYTES);
            // Dirty write-back travels to the NVM media; a clean flush is
            // cheaper.
            m.clock.advance(if dirty {
                latency.nvm_writeback_ns
            } else {
                latency.clean_flush_ns
            });
        }
    }

    fn do_fence(&self, latency: &LatencyModel) {
        let mut st = self.persist_state();
        st.mutation_event();
        self.stats.note_fence();
        self.model().clock.advance(latency.fence_ns);
        for line in std::mem::take(&mut st.pending) {
            let Some(state) = st.lines.get_mut(&line) else {
                continue;
            };
            let Some(snapshot) = state.flushed.take() else {
                continue; // already retired by an earlier fence
            };
            // The snapshot becomes the durable base; words written after
            // the flush stay dirty relative to it.
            state.base = snapshot;
            let start = line as usize * LINE_BYTES;
            let mut mask = 0u64;
            for w in 0..WORDS_PER_LINE {
                if self.read_word(start + w * 8) != state.base[w * 8..w * 8 + 8] {
                    mask |= 1 << w;
                }
            }
            state.dirty_mask = mask;
            if mask == 0 {
                st.lines.remove(&line);
            }
        }
    }
}

/// Deterministic simulated persistent memory. See the module docs.
pub struct SimPmem {
    shared: Arc<Shared>,
    latency: LatencyModel,
}

/// Cloneable shared-read handle over a [`SimPmem`] pool
/// ([`Pmem::read_handle`]).
///
/// Reads observe the owner's latest stores (possibly torn mid-write — pair
/// with a validation protocol). Cache/clock accounting is best-effort: a
/// handle read that would block on the model mutex skips accounting and
/// bumps an internal contention counter instead.
pub struct SimPmemReader {
    shared: Arc<Shared>,
    latency: LatencyModel,
}

impl Clone for SimPmemReader {
    fn clone(&self) -> Self {
        SimPmemReader {
            shared: Arc::clone(&self.shared),
            latency: self.latency,
        }
    }
}

impl std::fmt::Debug for SimPmemReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimPmemReader")
            .field("len", &self.shared.len)
            .finish_non_exhaustive()
    }
}

/// Cloneable shared-write handle over a [`SimPmem`] pool
/// ([`Pmem::write_handle`]).
///
/// Every mutation serializes on the pool's persistence mutex, which is
/// what makes [`PmemWrite::compare_exchange_u64`] genuinely atomic against
/// every other mutator (owner included) and keeps the durability model
/// coherent under concurrent writers. Callers must still keep plain
/// `write`s disjoint — the simulator serializes the bookkeeping, not the
/// caller's protocol.
pub struct SimPmemWriter {
    shared: Arc<Shared>,
    latency: LatencyModel,
}

impl Clone for SimPmemWriter {
    fn clone(&self) -> Self {
        SimPmemWriter {
            shared: Arc::clone(&self.shared),
            latency: self.latency,
        }
    }
}

impl std::fmt::Debug for SimPmemWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimPmemWriter")
            .field("len", &self.shared.len)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for SimPmem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimPmem")
            .field("len", &self.shared.len)
            .field("events", &self.events())
            .finish_non_exhaustive()
    }
}

impl Clone for SimPmem {
    /// Deep copy: the clone gets its own buffer, counters, cache model,
    /// clock and persistence model, fully independent of the original (and
    /// of the original's read/write handles).
    fn clone(&self) -> Self {
        let mut bytes = vec![0u8; self.shared.len].into_boxed_slice();
        self.shared.copy_out(0, &mut bytes);
        let model = self.shared.model().clone();
        let persist = self.shared.persist_state().clone();
        let shared = Shared::new(bytes, model, persist);
        shared.stats.set(self.shared.stats.snapshot());
        shared.contended_reads.store(
            self.shared.contended_reads.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        SimPmem {
            shared,
            latency: self.latency,
        }
    }
}

impl SimPmem {
    /// Creates a zeroed pool of `len` bytes.
    pub fn new(len: usize, config: SimConfig) -> Self {
        let wear = if config.track_wear {
            vec![0u32; len.div_ceil(LINE_BYTES)]
        } else {
            Vec::new()
        };
        let model = Model {
            cache: CacheHierarchy::new(config.cache),
            clock: SimClock::new(),
        };
        let persist = PersistState {
            lines: BTreeMap::new(),
            pending: Vec::new(),
            events: 0,
            plan: None,
            wear,
        };
        SimPmem {
            shared: Shared::new(vec![0u8; len].into_boxed_slice(), model, persist),
            latency: config.latency,
        }
    }

    /// Pool with the paper-default configuration.
    pub fn paper(len: usize) -> Self {
        Self::new(len, SimConfig::paper_default())
    }

    /// Arms (or disarms) crash injection.
    pub fn set_crash_plan(&mut self, plan: Option<CrashPlan>) {
        self.shared.persist_state().plan = plan;
    }

    /// Mutation events executed so far (owner and write handles alike).
    pub fn events(&self) -> u64 {
        self.shared.persist_state().events
    }

    /// Number of 8-byte words that are currently *not* durable.
    pub fn non_durable_words(&self) -> usize {
        self.shared
            .persist_state()
            .lines
            .values()
            .map(|l| l.dirty_mask.count_ones() as usize)
            .sum()
    }

    /// Reader-handle reads that skipped cache/clock accounting because the
    /// model was busy. Zero in single-threaded runs.
    pub fn contended_model_reads(&self) -> u64 {
        self.shared.contended_reads.load(Ordering::Relaxed)
    }

    /// Simulates a power failure: resolves every non-durable word per
    /// `how`, discards CPU caches, and replaces the pool contents with the
    /// surviving media image. The crash plan is disarmed.
    pub fn crash(&mut self, how: CrashResolution) {
        // First retire nothing: pending flushes are NOT durable. Resolve
        // word-by-word in deterministic (BTreeMap) order.
        let mut rng_state = match how {
            CrashResolution::Random(seed) => seed ^ 0x9E3779B97F4A7C15,
            _ => 0,
        };
        let mut alternate_next = match how {
            CrashResolution::Alternate { persist_first } => persist_first,
            _ => false,
        };
        let mut next_bit = move || -> bool {
            // xorshift64* — tiny, deterministic, and local to crash
            // resolution (pulling in a full RNG crate here would be a
            // dependency cycle with the dev-only rand).
            rng_state ^= rng_state >> 12;
            rng_state ^= rng_state << 25;
            rng_state ^= rng_state >> 27;
            (rng_state.wrapping_mul(0x2545F4914F6CDD1D) >> 63) & 1 == 1
        };

        let mut st = self.shared.persist_state();
        let lines = std::mem::take(&mut st.lines);
        for (line, state) in lines {
            let start = line as usize * LINE_BYTES;
            for w in 0..WORDS_PER_LINE {
                if state.dirty_mask & (1 << w) == 0 {
                    continue; // durable word: CPU view == media view
                }
                let keep_new = match how {
                    CrashResolution::Random(_) => next_bit(),
                    CrashResolution::DropUnflushed => false,
                    CrashResolution::PersistAll => true,
                    CrashResolution::Alternate { .. } => {
                        alternate_next = !alternate_next;
                        !alternate_next
                    }
                };
                if !keep_new {
                    self.shared
                        .copy_in(start + w * 8, &state.base[w * 8..w * 8 + 8]);
                }
            }
        }
        st.pending.clear();
        st.plan = None;
        drop(st);
        self.shared.model().cache.clear();
    }

    /// Evicts every line from the modeled CPU caches (and zeroes the
    /// cache hit/miss counters) without touching pool contents,
    /// persistence state, or the operation statistics. Experiments call
    /// this between timed phases so each arm is measured from a cold
    /// cache instead of inheriting whatever the previous arm left warm.
    /// (Flush/crash semantics are unaffected: the dirty-word delta in
    /// `lines` is what crash resolution consults, not cache residency.)
    pub fn cool_caches(&mut self) {
        self.shared.model().cache.clear();
    }

    /// Read-only view of the CPU-visible contents, bypassing the cache
    /// model and statistics. For tests and oracles only: the borrow of
    /// `self` keeps the (unique) owner out for its duration, but reads
    /// through live [`SimPmemReader`]/[`SimPmemWriter`] handles on other
    /// threads are not synchronized with it.
    pub fn raw(&self) -> &[u8] {
        // SAFETY: mutation through the owner requires `&mut SimPmem`,
        // which this shared borrow excludes; callers keep handle writers
        // quiescent by protocol.
        unsafe { std::slice::from_raw_parts(self.shared.ptr, self.shared.len) }
    }

    /// Installs `bytes` as the pool's fully-durable contents ("power-on"
    /// image load, not program activity — no cache/clock/stat effects).
    /// Panics if `bytes` exceeds the pool.
    pub(crate) fn install_image(&mut self, bytes: &[u8]) {
        assert!(bytes.len() <= self.shared.len, "image larger than pool");
        let mut st = self.shared.persist_state();
        self.shared.copy_in(0, bytes);
        st.lines.clear();
        st.pending.clear();
        drop(st);
        self.shared.model().cache.clear();
    }

    /// Per-cacheline media write-back counts (NVM wear). Empty when wear
    /// tracking is disabled. Index = line number (offset / 64). An owned
    /// snapshot: the live counters sit inside the shared persistence model.
    pub fn wear(&self) -> Vec<u32> {
        self.shared.persist_state().wear.clone()
    }

    /// Zeroes the wear counters (e.g. to exclude a build phase).
    pub fn reset_wear(&mut self) {
        self.shared.persist_state().wear.fill(0);
    }

    /// Summary of the wear distribution: `(total, max, mean-over-worn)`.
    /// Endurance is governed by the *hottest* line (without wear
    /// leveling), so `max / mean` measures how much a data structure
    /// concentrates its write-backs.
    pub fn wear_summary(&self) -> (u64, u32, f64) {
        let st = self.shared.persist_state();
        let total: u64 = st.wear.iter().map(|&w| w as u64).sum();
        let max = st.wear.iter().copied().max().unwrap_or(0);
        let worn = st.wear.iter().filter(|&&w| w > 0).count();
        let mean = if worn == 0 {
            0.0
        } else {
            total as f64 / worn as f64
        };
        (total, max, mean)
    }

    /// [`SimPmem::wear_summary`] restricted to the byte range
    /// `[off, off + len)` — per-range media wear, for attributing
    /// write-backs to one structure (a heap slab, a table level) inside a
    /// shared pool. Lines straddling the range boundary count in full.
    pub fn wear_range_summary(&self, off: usize, len: usize) -> (u64, u32, f64) {
        let st = self.shared.persist_state();
        let first = off / 64;
        let last = (off + len).div_ceil(64).min(st.wear.len());
        let range = &st.wear[first.min(st.wear.len())..last];
        let total: u64 = range.iter().map(|&w| w as u64).sum();
        let max = range.iter().copied().max().unwrap_or(0);
        let worn = range.iter().filter(|&&w| w > 0).count();
        let mean = if worn == 0 {
            0.0
        } else {
            total as f64 / worn as f64
        };
        (total, max, mean)
    }

    /// Latency model in effect.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }
}

impl PmemRead for SimPmem {
    fn read(&self, off: usize, buf: &mut [u8]) {
        self.shared.check_bounds(off, buf.len());
        // The owner blocks on the model mutex: single-threaded accounting
        // (cache hits, simulated time) stays exactly deterministic.
        self.shared
            .charge_access(off, buf.len(), AccessKind::Read, &self.latency, true);
        self.shared.copy_out(off, buf);
        self.shared.stats.note_read(buf.len() as u64);
    }

    fn len(&self) -> usize {
        self.shared.len
    }

    fn prefetch(&self, off: usize, len: usize) {
        self.shared.check_bounds(off, len.max(1));
        self.shared.charge_prefetch(off, len, &self.latency, true);
    }
}

impl PmemRead for SimPmemReader {
    fn read(&self, off: usize, buf: &mut [u8]) {
        self.shared.check_bounds(off, buf.len());
        // try_lock: never stall the lock-free read path on accounting.
        self.shared
            .charge_access(off, buf.len(), AccessKind::Read, &self.latency, false);
        self.shared.copy_out(off, buf);
        self.shared.stats.note_read(buf.len() as u64);
    }

    fn len(&self) -> usize {
        self.shared.len
    }

    fn prefetch(&self, off: usize, len: usize) {
        self.shared.check_bounds(off, len.max(1));
        // try_lock, like reads: never stall the lock-free path on a hint.
        self.shared.charge_prefetch(off, len, &self.latency, false);
    }
}

impl PmemRead for SimPmemWriter {
    fn read(&self, off: usize, buf: &mut [u8]) {
        self.shared.check_bounds(off, buf.len());
        // Writers block like the owner: their accounting stays
        // deterministic in single-writer runs (budget pinning).
        self.shared
            .charge_access(off, buf.len(), AccessKind::Read, &self.latency, true);
        self.shared.copy_out(off, buf);
        self.shared.stats.note_read(buf.len() as u64);
    }

    fn len(&self) -> usize {
        self.shared.len
    }

    fn prefetch(&self, off: usize, len: usize) {
        self.shared.check_bounds(off, len.max(1));
        self.shared.charge_prefetch(off, len, &self.latency, true);
    }
}

impl PmemWrite for SimPmemWriter {
    fn write(&self, off: usize, data: &[u8]) {
        self.shared.do_write(off, data, &self.latency);
    }

    fn atomic_write_u64(&self, off: usize, v: u64) {
        self.shared.do_atomic_write(off, v, &self.latency);
    }

    fn compare_exchange_u64(&self, off: usize, current: u64, new: u64) -> Result<u64, u64> {
        self.shared.do_cas(off, current, new, &self.latency)
    }

    fn flush(&self, off: usize, len: usize) {
        self.shared.do_flush(off, len, &self.latency);
    }

    fn fence(&self) {
        self.shared.do_fence(&self.latency);
    }
}

impl Pmem for SimPmem {
    type ReadHandle = SimPmemReader;
    type WriteHandle = SimPmemWriter;

    fn read_handle(&self) -> SimPmemReader {
        SimPmemReader {
            shared: Arc::clone(&self.shared),
            latency: self.latency,
        }
    }

    fn write_handle(&mut self) -> SimPmemWriter {
        SimPmemWriter {
            shared: Arc::clone(&self.shared),
            latency: self.latency,
        }
    }

    fn write(&mut self, off: usize, data: &[u8]) {
        self.shared.do_write(off, data, &self.latency);
    }

    fn atomic_write_u64(&mut self, off: usize, v: u64) {
        self.shared.do_atomic_write(off, v, &self.latency);
    }

    fn flush(&mut self, off: usize, len: usize) {
        self.shared.do_flush(off, len, &self.latency);
    }

    fn fence(&mut self) {
        self.shared.do_fence(&self.latency);
    }

    fn stats(&self) -> PmemStats {
        self.shared.stats.snapshot()
    }

    fn reset_stats(&mut self) {
        self.shared.stats.reset();
        let mut m = self.shared.model();
        m.clock.reset();
        m.cache.reset_stats();
    }

    fn sim_time_ns(&self) -> Option<u64> {
        Some(self.shared.model().clock.now_ns())
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.shared.model().cache.stats().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::run_with_crash;

    fn pool() -> SimPmem {
        SimPmem::new(4096, SimConfig::fast_test())
    }

    #[test]
    fn write_read_roundtrip() {
        let mut p = pool();
        p.write(100, b"hello nvm");
        let mut buf = [0u8; 9];
        p.read(100, &mut buf);
        assert_eq!(&buf, b"hello nvm");
    }

    #[test]
    fn unflushed_write_may_be_lost() {
        let mut p = pool();
        p.write_u64(0, 0x1111);
        p.crash(CrashResolution::DropUnflushed);
        assert_eq!(p.read_u64(0), 0);
    }

    #[test]
    fn flushed_and_fenced_write_survives_any_resolution() {
        for how in [
            CrashResolution::DropUnflushed,
            CrashResolution::PersistAll,
            CrashResolution::Random(7),
        ] {
            let mut p = pool();
            p.write_u64(0, 0x2222);
            p.persist(0, 8);
            p.crash(how);
            assert_eq!(p.read_u64(0), 0x2222, "resolution {how:?}");
        }
    }

    #[test]
    fn flush_without_fence_is_not_durable() {
        let mut p = pool();
        p.write_u64(0, 0x3333);
        p.flush(0, 8);
        // no fence
        p.crash(CrashResolution::DropUnflushed);
        assert_eq!(p.read_u64(0), 0);
    }

    #[test]
    fn aligned_word_never_tears() {
        // Write a 16-byte value; words may persist independently, but each
        // 8-byte half must be entirely old or entirely new.
        for seed in 0..32 {
            let mut p = pool();
            p.write(0, &[0xAAu8; 16]);
            p.persist(0, 16);
            p.write(0, &[0xBBu8; 16]);
            p.crash(CrashResolution::Random(seed));
            let mut buf = [0u8; 16];
            p.read(0, &mut buf);
            for half in buf.chunks(8) {
                assert!(
                    half.iter().all(|&b| b == 0xAA) || half.iter().all(|&b| b == 0xBB),
                    "torn word: {half:?} (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn random_resolution_hits_both_outcomes() {
        let mut lost = 0;
        let mut kept = 0;
        for seed in 0..64 {
            let mut p = pool();
            p.write_u64(0, 0x4444);
            p.crash(CrashResolution::Random(seed));
            if p.read_u64(0) == 0x4444 {
                kept += 1;
            } else {
                lost += 1;
            }
        }
        assert!(lost > 5 && kept > 5, "lost={lost} kept={kept}");
    }

    #[test]
    fn persist_all_keeps_unflushed() {
        let mut p = pool();
        p.write_u64(8, 0x5555);
        p.crash(CrashResolution::PersistAll);
        assert_eq!(p.read_u64(8), 0x5555);
    }

    #[test]
    fn write_after_flush_before_fence_stays_dirty() {
        let mut p = pool();
        p.write_u64(0, 1);
        p.flush(0, 8);
        p.write_u64(0, 2); // after flush, before fence
        p.fence(); // retires the flush: durable value is 1
        p.crash(CrashResolution::DropUnflushed);
        assert_eq!(p.read_u64(0), 1);
    }

    #[test]
    fn crash_plan_fires_at_event() {
        let mut p = pool();
        p.write_u64(0, 1); // event 0
        p.set_crash_plan(Some(CrashPlan { at_event: 2 }));
        let r = run_with_crash(|| {
            p.write_u64(8, 2); // event 1
            p.write_u64(16, 3); // event 2 -> crash before applying
            unreachable!()
        });
        assert_eq!(r.unwrap_err().at_event, 2);
        assert_eq!(p.read_u64(8), 2); // event 1 applied (volatile view)
        assert_eq!(p.read_u64(16), 0); // event 2 never applied
    }

    #[test]
    fn stats_count_ops() {
        let mut p = pool();
        p.write(0, &[1; 16]);
        p.persist(0, 16);
        p.atomic_write_u64(64, 9);
        let mut b = [0u8; 4];
        p.read(0, &mut b);
        let s = p.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.atomic_writes, 1);
        assert_eq!(s.flushes, 1); // 16 bytes in one line
        assert_eq!(s.fences, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes_written, 24);
    }

    #[test]
    fn flush_spanning_lines_counts_each() {
        let mut p = pool();
        p.write(60, &[7u8; 10]); // straddles lines 0 and 1
        p.persist(60, 10);
        assert_eq!(p.stats().flushes, 2);
    }

    #[test]
    fn sim_time_advances_monotonically() {
        let mut p = pool();
        let t0 = p.sim_time_ns().unwrap();
        p.write_u64(0, 1);
        let t1 = p.sim_time_ns().unwrap();
        p.persist(0, 8);
        let t2 = p.sim_time_ns().unwrap();
        assert!(t1 >= t0); // write cost may truncate to same ns
        assert!(t2 > t1, "persist must cost time");
    }

    #[test]
    fn dirty_flush_costs_more_than_clean() {
        let mut a = pool();
        a.write_u64(0, 1);
        a.reset_stats();
        a.flush(0, 8); // dirty line
        let dirty_cost = a.sim_time_ns().unwrap();

        let mut b = pool();
        b.reset_stats();
        b.flush(0, 8); // clean line
        let clean_cost = b.sim_time_ns().unwrap();
        assert!(dirty_cost > clean_cost);
    }

    #[test]
    fn cache_stats_exposed() {
        let mut p = pool();
        p.write_u64(0, 1);
        let mut b = [0u8; 8];
        p.read(0, &mut b);
        let cs = p.cache_stats().unwrap();
        assert_eq!(cs.reads, 1);
        assert_eq!(cs.writes, 1);
    }

    #[test]
    fn non_durable_words_tracks_state() {
        let mut p = pool();
        assert_eq!(p.non_durable_words(), 0);
        p.write(0, &[1u8; 32]);
        assert_eq!(p.non_durable_words(), 4);
        p.persist(0, 32);
        assert_eq!(p.non_durable_words(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_write_panics() {
        let mut p = pool();
        p.write_u64(4095, 1);
    }

    #[test]
    #[should_panic(expected = "8-byte alignment")]
    fn misaligned_atomic_panics() {
        let mut p = pool();
        p.atomic_write_u64(4, 1);
    }

    #[test]
    fn wear_counts_dirty_writebacks() {
        let mut p = pool();
        assert_eq!(p.wear_summary(), (0, 0, 0.0));
        p.write_u64(0, 1);
        p.persist(0, 8); // 1 write-back of line 0
        p.write_u64(8, 2);
        p.persist(8, 8); // another write-back of line 0
        p.write_u64(128, 3);
        p.persist(128, 8); // line 2
        assert_eq!(p.wear()[0], 2);
        assert_eq!(p.wear()[1], 0);
        assert_eq!(p.wear()[2], 1);
        let (total, max, mean) = p.wear_summary();
        assert_eq!(total, 3);
        assert_eq!(max, 2);
        assert!((mean - 1.5).abs() < 1e-9);
        // Clean flushes don't wear.
        p.flush(0, 8);
        p.fence();
        assert_eq!(p.wear()[0], 2);
        p.reset_wear();
        assert_eq!(p.wear_summary().0, 0);
    }

    #[test]
    fn prefetch_makes_next_read_a_cache_hit() {
        // Cold read vs prefetch-then-read of the same never-touched line:
        // the prefetched pool pays issue cost + L1 hit, the cold pool pays
        // a full memory miss — so the prefetched total must be cheaper.
        let mut cold = pool();
        cold.reset_stats();
        let mut b = [0u8; 8];
        cold.read(512, &mut b);
        let cold_ns = cold.sim_time_ns().unwrap();

        let mut warm = pool();
        warm.reset_stats();
        warm.prefetch(512, 8);
        warm.read(512, &mut b);
        let warm_ns = warm.sim_time_ns().unwrap();
        assert!(
            warm_ns < cold_ns,
            "prefetch+read ({warm_ns} ns) must beat cold read ({cold_ns} ns)"
        );
    }

    #[test]
    fn prefetch_costs_no_persistence_events_and_no_reads() {
        let mut p = pool();
        p.reset_stats();
        p.prefetch(0, 256);
        let s = p.stats();
        assert_eq!(
            (s.reads, s.writes, s.flushes, s.fences, s.atomic_writes),
            (0, 0, 0, 0, 0)
        );
        // It does cost (a little) simulated time, and does touch the cache.
        assert!(p.sim_time_ns().unwrap() > 0);
        assert!(p.cache_stats().unwrap().reads >= 4, "4 lines installed");
        // And it is not a mutation event: crash plans never fire on it.
        assert_eq!(p.events(), 0);
    }

    #[test]
    fn reader_handle_prefetch_is_usable_and_free_of_stats() {
        let mut p = pool();
        let h = p.read_handle();
        h.prefetch(64, 64);
        p.write_u64(64, 42);
        assert_eq!(h.read_u64(64), 42);
        assert_eq!(p.stats().reads, 1, "prefetch itself is not a read");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_prefetch_panics() {
        let p = pool();
        p.prefetch(4096, 8);
    }

    #[test]
    fn clone_is_independent() {
        let mut p = pool();
        p.write_u64(0, 1);
        let mut q = p.clone();
        q.write_u64(0, 2);
        assert_eq!(p.read_u64(0), 1);
        assert_eq!(q.read_u64(0), 2);
    }

    #[test]
    fn reader_handle_tracks_writer_and_counts_reads() {
        let mut p = pool();
        let h = p.read_handle();
        p.write_u64(32, 0xFEED);
        assert_eq!(h.read_u64(32), 0xFEED);
        p.write_u64(32, 0xF00D);
        assert_eq!(h.read_u64(32), 0xF00D);
        let s = p.stats();
        assert_eq!(s.reads, 2, "handle reads land in the shared counters");
    }

    #[test]
    fn reader_handles_are_concurrent() {
        let mut p = SimPmem::new(1 << 16, SimConfig::fast_test());
        for i in 0..64u64 {
            p.write_u64((i * 8) as usize, i);
        }
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = p.read_handle();
                std::thread::spawn(move || {
                    for round in 0..100 {
                        for i in 0..64u64 {
                            assert_eq!(h.read_u64((i * 8) as usize), i, "round {round}");
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(p.stats().reads, 4 * 100 * 64);
    }

    // ---- write-handle semantics ---------------------------------------

    #[test]
    fn write_handle_mutations_share_durability_model_with_owner() {
        let mut p = pool();
        let w = p.write_handle();
        w.write_u64(0, 0xAAAA);
        // Not yet flushed: the owner's crash drops it.
        p.crash(CrashResolution::DropUnflushed);
        assert_eq!(p.read_u64(0), 0);

        let w = p.write_handle();
        w.write_u64(0, 0xBBBB);
        w.persist(0, 8);
        p.crash(CrashResolution::DropUnflushed);
        assert_eq!(p.read_u64(0), 0xBBBB, "handle persist is durable");
    }

    #[test]
    fn cas_swaps_only_on_match_and_counts_attempts() {
        let mut p = pool();
        p.write_u64(64, 5);
        p.reset_stats();
        let w = p.write_handle();
        assert_eq!(w.compare_exchange_u64(64, 5, 9), Ok(5));
        assert_eq!(p.read_u64(64), 9);
        assert_eq!(w.compare_exchange_u64(64, 5, 11), Err(9));
        assert_eq!(p.read_u64(64), 9, "failed CAS must not store");
        let s = p.stats();
        assert_eq!(s.atomic_writes, 2, "every CAS attempt counts");
        assert_eq!(s.bytes_written, 8, "only the winning CAS stores");
    }

    #[test]
    #[should_panic(expected = "8-byte alignment")]
    fn misaligned_cas_panics() {
        let mut p = pool();
        let w = p.write_handle();
        let _ = w.compare_exchange_u64(4, 0, 1);
    }

    #[test]
    fn cas_is_atomic_across_concurrent_handles() {
        let mut p = SimPmem::new(4096, SimConfig::fast_test());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let w = p.write_handle();
                std::thread::spawn(move || {
                    // Lock-free counter: each thread adds 1000 via CAS loops.
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

    #[test]
    fn crash_plan_fires_on_write_handle_events_too() {
        let mut p = pool();
        p.set_crash_plan(Some(CrashPlan { at_event: 1 }));
        let w = p.write_handle();
        let r = run_with_crash(|| {
            w.write_u64(0, 1); // event 0
            w.write_u64(8, 2); // event 1 -> crash before applying
            unreachable!()
        });
        assert_eq!(r.unwrap_err().at_event, 1);
        assert_eq!(p.read_u64(0), 1);
        assert_eq!(p.read_u64(8), 0);
    }
}
