//! The unified `Store` facade: the one public front door over the KV
//! engine.
//!
//! The crate-private engine threads a `&mut P` pool through every call,
//! and leaves regions and recovery to its caller. Network servers and
//! applications get a *store* instead: a cloneable, thread-safe handle
//! with `set`/`get`/`delete` (+ `*_batch`), built by a [`StoreBuilder`],
//! failing with one typed [`StoreError`].
//!
//! # Sharding and concurrency
//!
//! A store is `1..n` independent engine pools ("shards"); keys route
//! by hash. Each shard pairs a writer lock with a seqlock-validated
//! lock-free read path (the [`ShardedGroupHash`] protocol, lifted to
//! whole-store reads): readers probe a [`KvReadView`] through a shared
//! [`PmemRead`] handle and retry iff the shard's sequence number moved —
//! so `get`/`get_batch` never block behind writers.
//!
//! # Cross-caller group commit
//!
//! Writes can be *staged*: [`Store::stage_set`]/[`Store::stage_delete`]
//! enqueue the op and return a [`WriteTicket`] immediately; any caller
//! (typically a server worker between socket sweeps) then drives
//! [`Store::pump`], which elects one leader per shard to drain the whole
//! staged queue as a single group commit.
//! K concurrent writers' sets thus share one fence-coalesced heap commit
//! (2 fences) plus one index batch (~K+2 fences) — the paper's batching
//! win amortized *across callers*, not just within one caller's batch.
//! The plain [`Store::set`]/[`Store::delete`] wrappers stage, pump, and
//! wait, so single-threaded callers keep sequential semantics.
//!
//! # Commit-boundary observability
//!
//! All externally visible counters ([`Store::counters`], the batch-size
//! histogram, entry counts) update *once per committed batch*, after the
//! fence that makes the batch durable — a sampler can never observe
//! staged-but-uncommitted ops, and successive snapshots differ by whole
//! batches.
//!
//! [`ShardedGroupHash`]: group_hash::ShardedGroupHash

use crate::{KvConfig, KvError, KvReadView, PmemKv};
use group_hash::FpMode;
use nvm_alloc::{AllocError, FragStats};
use nvm_hashfn::murmur3_x64_128;
use nvm_metrics::{HeapCounters, Histogram, MetricsRegistry, SchemeInstrumentation};
use nvm_pmem::{Pmem, PmemStats, Region, SimConfig, SimPmem};
use nvm_table::{ConsistencyMode, TableError};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex as StdMutex};

/// Errors from the store facade — one type wrapping every layer's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The engine refused the operation.
    Kv(KvError),
    /// The index table layer failed.
    Table(TableError),
    /// The value heap failed.
    Alloc(AllocError),
    /// Builder/pool geometry problems.
    Layout(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Kv(e) => write!(f, "store: {e}"),
            StoreError::Table(e) => write!(f, "store index: {e}"),
            StoreError::Alloc(e) => write!(f, "store heap: {e}"),
            StoreError::Layout(e) => write!(f, "store layout: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<KvError> for StoreError {
    fn from(e: KvError) -> Self {
        // Keep the most specific layer's error as the variant.
        match e {
            KvError::Heap(a) => StoreError::Alloc(a),
            KvError::Table(t) => StoreError::Table(t),
            other => StoreError::Kv(other),
        }
    }
}

impl From<TableError> for StoreError {
    fn from(e: TableError) -> Self {
        StoreError::Table(e)
    }
}

impl From<AllocError> for StoreError {
    fn from(e: AllocError) -> Self {
        StoreError::Alloc(e)
    }
}

/// The seed the facade routes keys to shards with (distinct from the
/// index's cell-placement seed, so shard routing and in-shard placement
/// stay independent).
const ROUTE_SEED: u32 = 0x5348_4152;

/// A staged write's completion handle. `set` resolves to `Ok(true)`
/// (stored); `delete` to `Ok(present)`. Dropped tickets are harmless —
/// the op still commits.
#[derive(Clone)]
pub struct WriteTicket {
    inner: Arc<TicketInner>,
}

struct TicketInner {
    state: StdMutex<Option<Result<bool, StoreError>>>,
    cv: Condvar,
}

impl WriteTicket {
    fn new() -> WriteTicket {
        WriteTicket {
            inner: Arc::new(TicketInner {
                state: StdMutex::new(None),
                cv: Condvar::new(),
            }),
        }
    }

    fn fulfill(&self, r: Result<bool, StoreError>) {
        let mut s = self
            .inner
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *s = Some(r);
        self.inner.cv.notify_all();
    }

    /// The result, if the op has committed.
    pub fn try_result(&self) -> Option<Result<bool, StoreError>> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Blocks until the op commits (someone must be pumping).
    pub fn wait(&self) -> Result<bool, StoreError> {
        let mut s = self
            .inner
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(r) = s.clone() {
                return r;
            }
            s = self
                .inner
                .cv
                .wait(s)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

enum Op {
    Set(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    /// Test-only injection: makes the group commit panic mid-batch, to
    /// exercise the leader/seqlock panic guards.
    #[cfg(test)]
    InjectPanic,
}

struct StagedOp {
    op: Op,
    ticket: WriteTicket,
}

#[derive(Default)]
struct StagedQueue {
    ops: Vec<StagedOp>,
    /// True while a leader is draining this shard; stagers that lose the
    /// election return immediately — the leader re-checks the queue
    /// under this lock before stepping down, so no op strands.
    leader_active: bool,
}

struct ShardInner<P: Pmem> {
    pm: P,
    kv: PmemKv<P>,
}

struct StoreShard<P: Pmem> {
    /// Seqlock word: odd while a writer mutates, even when quiescent.
    seq: AtomicU64,
    inner: Mutex<ShardInner<P>>,
    staged: Mutex<StagedQueue>,
    /// Read-only lookup facade (valid across mutations; validated by
    /// `seq`).
    view: KvReadView,
    reader: P::ReadHandle,
}

/// Retry backoff for optimistic readers (spin briefly, then yield so a
/// descheduled writer can finish on few-core machines).
#[inline]
fn backoff(spins: &mut u32) {
    if *spins < 64 {
        *spins += 1;
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

impl<P: Pmem> StoreShard<P> {
    /// Runs `f` under the writer lock with the seqlock marked odd, so
    /// concurrent readers retry instead of observing a half-applied
    /// mutation. The closing parity bump rides a drop guard: if `f`
    /// panics the word still comes back even, so readers resume instead
    /// of spinning forever (torn state they then observe degrades to
    /// misses via the view's torn-blob tolerance).
    fn with_write<T>(&self, f: impl FnOnce(&mut ShardInner<P>) -> T) -> T {
        struct SeqGuard<'a>(&'a AtomicU64);
        impl Drop for SeqGuard<'_> {
            fn drop(&mut self) {
                fence(Ordering::SeqCst);
                self.0.fetch_add(1, Ordering::Release);
            }
        }
        let mut inner = self.inner.lock();
        self.seq.fetch_add(1, Ordering::AcqRel);
        fence(Ordering::SeqCst);
        let _guard = SeqGuard(&self.seq);
        f(&mut inner)
    }

    /// Seqlock-validated lock-free read.
    fn read<T>(&self, f: impl Fn(&KvReadView, &P::ReadHandle) -> T) -> T {
        let mut spins = 0u32;
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 0 {
                let out = f(&self.view, &self.reader);
                fence(Ordering::Acquire);
                if self.seq.load(Ordering::Relaxed) == s1 {
                    return out;
                }
            }
            backoff(&mut spins);
        }
    }
}

/// Commit-boundary counters (see [`Store::counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Committed `set` ops.
    pub sets: u64,
    /// Committed `delete` ops that removed an entry.
    pub deletes: u64,
    /// `get`/`get_batch` lookups answered.
    pub gets: u64,
    /// Lookups that found a value.
    pub get_hits: u64,
    /// Group commits driven by [`Store::pump`] (including the ones the
    /// sync wrappers trigger).
    pub batches: u64,
}

struct StoreCore<P: Pmem> {
    shards: Vec<StoreShard<P>>,
    sets: AtomicU64,
    deletes: AtomicU64,
    gets: AtomicU64,
    get_hits: AtomicU64,
    batches: AtomicU64,
    /// Committed group-commit sizes (ops per batch).
    batch_sizes: Histogram,
}

/// The facade handle. Cheap to clone; all clones share the same shards,
/// so any thread can read, stage writes, or pump commits.
pub struct Store<P: Pmem> {
    core: Arc<StoreCore<P>>,
}

impl<P: Pmem> Clone for Store<P> {
    fn clone(&self) -> Self {
        Store {
            core: Arc::clone(&self.core),
        }
    }
}

impl<P: Pmem> Store<P> {
    fn from_shards(shards: Vec<(P, PmemKv<P>)>) -> Store<P> {
        let shards = shards
            .into_iter()
            .map(|(pm, kv)| StoreShard {
                seq: AtomicU64::new(0),
                view: kv.read_view(),
                reader: pm.read_handle(),
                inner: Mutex::new(ShardInner { pm, kv }),
                staged: Mutex::new(StagedQueue::default()),
            })
            .collect();
        Store {
            core: Arc::new(StoreCore {
                shards,
                sets: AtomicU64::new(0),
                deletes: AtomicU64::new(0),
                gets: AtomicU64::new(0),
                get_hits: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                batch_sizes: Histogram::exponential(1, 2, 14),
            }),
        }
    }

    fn shard_of(&self, key: &[u8]) -> &StoreShard<P> {
        let n = self.core.shards.len();
        let i = if n == 1 {
            0
        } else {
            (murmur3_x64_128(key, ROUTE_SEED).0 % n as u64) as usize
        };
        &self.core.shards[i]
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.core.shards.len()
    }

    // ---- reads (lock-free) ----

    /// Fetches `key`'s value without blocking behind writers.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let out = self.shard_of(key).read(|view, pm| view.get(pm, key));
        self.core.gets.fetch_add(1, Ordering::Relaxed);
        if out.is_some() {
            self.core.get_hits.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// Fetches many keys, one answer per key in input order, resolving
    /// each shard's subset through the vectorized prefetch-pipelined
    /// [`KvReadView::get_batch`].
    pub fn get_batch(&self, keys: &[&[u8]]) -> Vec<Option<Vec<u8>>> {
        let n = self.core.shards.len();
        let mut out: Vec<Option<Vec<u8>>> = vec![None; keys.len()];
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, key) in keys.iter().enumerate() {
            let s = if n == 1 {
                0
            } else {
                (murmur3_x64_128(key, ROUTE_SEED).0 % n as u64) as usize
            };
            by_shard[s].push(i);
        }
        for (s, idxs) in by_shard.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let subset: Vec<&[u8]> = idxs.iter().map(|&i| keys[i]).collect();
            let answers =
                self.core.shards[s].read(|view, pm| view.get_batch(pm, &subset));
            for (&i, a) in idxs.iter().zip(answers) {
                out[i] = a;
            }
        }
        self.core.gets.fetch_add(keys.len() as u64, Ordering::Relaxed);
        let hits = out.iter().filter(|a| a.is_some()).count() as u64;
        self.core.get_hits.fetch_add(hits, Ordering::Relaxed);
        out
    }

    /// Whether `key` is stored.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// A cloneable read-only handle (for reader threads that should not
    /// be able to write).
    pub fn read_view(&self) -> StoreReadView<P> {
        StoreReadView {
            core: Arc::clone(&self.core),
        }
    }

    // ---- staged writes + group commit ----

    fn stage(&self, key: &[u8], op: Op) -> WriteTicket {
        let ticket = WriteTicket::new();
        let shard = self.shard_of(key);
        shard.staged.lock().ops.push(StagedOp {
            op,
            ticket: ticket.clone(),
        });
        ticket
    }

    /// Stages a `set` without committing it; resolve via the ticket
    /// after a [`Store::pump`].
    pub fn stage_set(&self, key: &[u8], value: &[u8]) -> WriteTicket {
        self.stage(key, Op::Set(key.to_vec(), value.to_vec()))
    }

    /// Stages a `delete` without committing it.
    pub fn stage_delete(&self, key: &[u8]) -> WriteTicket {
        self.stage(key, Op::Delete(key.to_vec()))
    }

    /// Drains every shard's staged queue as group commits. One caller
    /// per shard becomes the leader and commits *all* staged ops —
    /// including ones other callers staged after the election — so
    /// concurrent writers' fences coalesce. Returns the number of ops
    /// committed by *this* caller.
    pub fn pump(&self) -> usize {
        let mut committed = 0;
        for shard in &self.core.shards {
            committed += self.pump_shard(shard);
        }
        committed
    }

    fn pump_shard(&self, shard: &StoreShard<P>) -> usize {
        let mut committed = 0;
        loop {
            let batch = {
                let mut q = shard.staged.lock();
                if q.ops.is_empty() || q.leader_active {
                    return committed;
                }
                q.leader_active = true;
                std::mem::take(&mut q.ops)
            };
            // If the commit panics, leadership must still be released
            // (or later stagers never elect a leader) and every drained
            // ticket must still resolve (or its waiters block forever).
            struct LeaderGuard<'a, P: Pmem> {
                shard: &'a StoreShard<P>,
                batch: &'a [StagedOp],
                armed: bool,
            }
            impl<P: Pmem> Drop for LeaderGuard<'_, P> {
                fn drop(&mut self) {
                    if !self.armed {
                        return;
                    }
                    for staged in self.batch {
                        staged.ticket.fulfill(Err(StoreError::Kv(KvError::Corrupt(
                            "group commit panicked".into(),
                        ))));
                    }
                    self.shard.staged.lock().leader_active = false;
                }
            }
            let mut guard = LeaderGuard {
                shard,
                batch: &batch,
                armed: true,
            };
            let results = shard.with_write(|inner| apply_batch(inner, &shard.view, &batch));
            guard.armed = false;
            drop(guard);
            // Commit boundary: the batch is durable; publish counters
            // once, then wake the waiters.
            let mut sets = 0u64;
            let mut dels = 0u64;
            for (staged, r) in batch.iter().zip(&results) {
                match (&staged.op, r) {
                    (Op::Set(..), Ok(true)) => sets += 1,
                    (Op::Delete(_), Ok(true)) => dels += 1,
                    _ => {}
                }
            }
            self.core.sets.fetch_add(sets, Ordering::Relaxed);
            self.core.deletes.fetch_add(dels, Ordering::Relaxed);
            self.core.batches.fetch_add(1, Ordering::Relaxed);
            self.core.batch_sizes.record(batch.len() as u64);
            committed += batch.len();
            for (staged, r) in batch.iter().zip(results) {
                staged.ticket.fulfill(r);
            }
            let mut q = shard.staged.lock();
            q.leader_active = false;
            if q.ops.is_empty() {
                return committed;
            }
            // Ops arrived while we were committing; drain them too
            // rather than strand them behind our stale election.
        }
    }

    /// Stores `key → value`. Stages, pumps, and waits — so concurrent
    /// callers' sets still share one group commit.
    pub fn set(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let t = self.stage_set(key, value);
        self.pump();
        t.wait().map(|_| ())
    }

    /// Stores many pairs through one staged group commit.
    pub fn set_batch(&self, items: &[(&[u8], &[u8])]) -> Result<(), StoreError> {
        let tickets: Vec<WriteTicket> = items
            .iter()
            .map(|(k, v)| self.stage_set(k, v))
            .collect();
        self.pump();
        for t in tickets {
            t.wait()?;
        }
        Ok(())
    }

    /// Deletes `key`, returning whether it was present.
    pub fn delete(&self, key: &[u8]) -> Result<bool, StoreError> {
        let t = self.stage_delete(key);
        self.pump();
        t.wait()
    }

    /// Deletes many keys through one staged group commit; returns how
    /// many were present and removed.
    pub fn delete_batch(&self, keys: &[&[u8]]) -> Result<usize, StoreError> {
        let tickets: Vec<WriteTicket> =
            keys.iter().map(|k| self.stage_delete(k)).collect();
        self.pump();
        let mut removed = 0;
        for t in tickets {
            if t.wait()? {
                removed += 1;
            }
        }
        Ok(removed)
    }

    // ---- maintenance (writer lock per shard) ----

    /// Post-crash recovery across all shards (index repair + leak
    /// reclamation); returns total leaks reclaimed.
    pub fn recover(&self) -> u64 {
        self.core
            .shards
            .iter()
            .map(|s| s.with_write(|i| i.kv.recover(&mut i.pm)))
            .sum()
    }

    /// Runs the heap GC drainer to completion on every shard; returns
    /// blobs reclaimed.
    pub fn gc(&self) -> u64 {
        self.core
            .shards
            .iter()
            .map(|s| s.with_write(|i| i.kv.gc(&mut i.pm)))
            .sum()
    }

    /// One bounded GC increment per shard; `Ok(true)` while any shard's
    /// pass is incomplete.
    pub fn gc_step(&self, max_slots: u64) -> Result<bool, StoreError> {
        let mut pending = false;
        for s in &self.core.shards {
            pending |= s.with_write(|i| i.kv.gc_step(&mut i.pm, max_slots))?;
        }
        Ok(pending)
    }

    /// Structural validation across all shards.
    pub fn check_consistency(&self) -> Result<(), StoreError> {
        for s in &self.core.shards {
            let inner = s.inner.lock();
            inner.kv.check_consistency(&inner.pm)?;
        }
        Ok(())
    }

    /// Visits every `(key, value)` pair (order unspecified).
    pub fn for_each(&self, mut f: impl FnMut(&[u8], &[u8])) {
        for s in &self.core.shards {
            let inner = s.inner.lock();
            inner.kv.for_each(&inner.pm, &mut f);
        }
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.core
            .shards
            .iter()
            .map(|s| {
                let inner = s.inner.lock();
                inner.kv.len(&inner.pm)
            })
            .sum()
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// (index entries, heap slots allocated), summed over shards.
    pub fn usage(&self) -> (u64, u64) {
        let mut entries = 0;
        let mut slots = 0;
        for s in &self.core.shards {
            let inner = s.inner.lock();
            let (e, h) = inner.kv.usage(&inner.pm);
            entries += e;
            slots += h;
        }
        (entries, slots)
    }

    /// Heap fragmentation, summed over shards.
    pub fn frag_stats(&self) -> FragStats {
        let mut total = FragStats::default();
        for s in &self.core.shards {
            let inner = s.inner.lock();
            let f = inner.kv.frag_stats(&inner.pm);
            total.live_blob_bytes += f.live_blob_bytes;
            total.allocated_slot_bytes += f.allocated_slot_bytes;
            total.total_slot_bytes += f.total_slot_bytes;
        }
        total
    }

    // ---- observability (commit-boundary consistent) ----

    /// Op counters. Updated only at group-commit boundaries, so a
    /// sampler never observes staged-but-uncommitted ops.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            sets: self.core.sets.load(Ordering::Relaxed),
            deletes: self.core.deletes.load(Ordering::Relaxed),
            gets: self.core.gets.load(Ordering::Relaxed),
            get_hits: self.core.get_hits.load(Ordering::Relaxed),
            batches: self.core.batches.load(Ordering::Relaxed),
        }
    }

    /// Distribution of committed group-commit sizes (ops per batch).
    pub fn batch_size_histogram(&self) -> &Histogram {
        &self.core.batch_sizes
    }

    /// Cumulative pmem counters summed over all shard pools.
    pub fn pmem_stats(&self) -> PmemStats {
        let mut total = PmemStats::default();
        for s in &self.core.shards {
            let inner = s.inner.lock();
            let st = inner.pm.stats();
            total.reads += st.reads;
            total.bytes_read += st.bytes_read;
            total.writes += st.writes;
            total.bytes_written += st.bytes_written;
            total.atomic_writes += st.atomic_writes;
            total.flushes += st.flushes;
            total.fences += st.fences;
        }
        total
    }

    /// Zeroes every shard pool's pmem counters (experiment warm-up).
    pub fn reset_pmem_stats(&self) {
        for s in &self.core.shards {
            s.inner.lock().pm.reset_stats();
        }
    }

    /// Observability registry: pmem counters summed over shards, heap
    /// counters and index histograms merged over shards.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.set_pmem("pmem", &self.pmem_stats());
        let mut allocs = 0;
        let mut frees = 0;
        let mut gc_moves = 0;
        let mut leaked = 0;
        let mut slab_writes: Vec<u64> = Vec::new();
        let mut index: Option<SchemeInstrumentation> = None;
        for s in &self.core.shards {
            let inner = s.inner.lock();
            if let Some(i) =
                nvm_table::HashScheme::<P, [u8; 16], u64>::instrumentation(&inner.kv.index)
            {
                match &index {
                    Some(agg) => agg.merge(i),
                    None => index = Some(i.clone()),
                }
            }
            let hs = inner.kv.heap.stats();
            allocs += hs.allocs;
            frees += hs.frees;
            gc_moves += hs.gc_moves;
            leaked += hs.leaked_reclaimed;
            let sw = inner.kv.heap.slab_writes();
            if slab_writes.len() < sw.len() {
                slab_writes.resize(sw.len(), 0);
            }
            for (a, b) in slab_writes.iter_mut().zip(sw) {
                *a += b;
            }
        }
        reg.set_heap(
            "heap",
            &HeapCounters::from_heap(allocs, frees, gc_moves, leaked, &slab_writes),
        );
        if let Some(i) = &index {
            reg.set_instrumentation("index", i);
        }
        reg
    }

    /// Tears the facade down and returns the shard pools (image
    /// save/restore, crash harnesses). Fails with `self` unchanged if
    /// other clones are still alive.
    pub fn into_pools(self) -> Result<Vec<P>, Store<P>> {
        match Arc::try_unwrap(self.core) {
            Ok(core) => Ok(core
                .shards
                .into_iter()
                .map(|s| s.inner.into_inner().pm)
                .collect()),
            Err(core) => Err(Store { core }),
        }
    }
}

/// Applies one drained batch inside the shard's write section. Ops run
/// in staged order, with consecutive same-kind runs fused into the
/// engine's fence-coalesced batch calls. `view` is the shard's read
/// view; under the write lock it sees every committed op.
fn apply_batch<P: Pmem>(
    inner: &mut ShardInner<P>,
    view: &KvReadView,
    batch: &[StagedOp],
) -> Vec<Result<bool, StoreError>> {
    let ShardInner { pm, kv } = inner;
    #[cfg(test)]
    if batch.iter().any(|s| matches!(s.op, Op::InjectPanic)) {
        panic!("injected group-commit panic");
    }
    let mut results: Vec<Result<bool, StoreError>> = Vec::with_capacity(batch.len());
    results.resize(batch.len(), Ok(false));
    let mut i = 0;
    while i < batch.len() {
        let is_set = matches!(batch[i].op, Op::Set(..));
        let mut j = i;
        while j < batch.len() && matches!(batch[j].op, Op::Set(..)) == is_set {
            j += 1;
        }
        if is_set {
            let pairs: Vec<(&[u8], &[u8])> = batch[i..j]
                .iter()
                .map(|s| match &s.op {
                    Op::Set(k, v) => (k.as_slice(), v.as_slice()),
                    _ => unreachable!(),
                })
                .collect();
            match kv.set_batch(pm, &pairs) {
                Ok(()) => {
                    for r in &mut results[i..j] {
                        *r = Ok(true);
                    }
                }
                Err(_) => {
                    // The coalesced commit refused (index/heap full);
                    // retry as batches of one so each ticket gets its
                    // own verdict.
                    for (r, pair) in results[i..j].iter_mut().zip(&pairs) {
                        *r = kv
                            .set_batch(pm, std::slice::from_ref(pair))
                            .map(|()| true)
                            .map_err(StoreError::from);
                    }
                }
            }
        } else {
            // Deletes: answer "was present" in staged order (a key
            // deleted earlier in this run is already gone), then retract
            // the survivors with one fence-coalesced batch.
            let mut gone: HashSet<&[u8]> = HashSet::new();
            let mut doomed: Vec<&[u8]> = Vec::new();
            for (r, s) in results[i..j].iter_mut().zip(&batch[i..j]) {
                let Op::Delete(k) = &s.op else { unreachable!() };
                let present = !gone.contains(k.as_slice()) && view.contains(pm, k);
                if present {
                    gone.insert(k.as_slice());
                    doomed.push(k.as_slice());
                }
                *r = Ok(present);
            }
            let removed = kv.delete_batch(pm, &doomed);
            debug_assert_eq!(removed, doomed.len());
        }
        i = j;
    }
    results
}

/// A cloneable read-only handle over a [`Store`] (see
/// [`Store::read_view`]).
pub struct StoreReadView<P: Pmem> {
    core: Arc<StoreCore<P>>,
}

impl<P: Pmem> Clone for StoreReadView<P> {
    fn clone(&self) -> Self {
        StoreReadView {
            core: Arc::clone(&self.core),
        }
    }
}

impl<P: Pmem> StoreReadView<P> {
    fn as_store(&self) -> Store<P> {
        Store {
            core: Arc::clone(&self.core),
        }
    }

    /// Fetches `key`'s value without blocking behind writers.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.as_store().get(key)
    }

    /// Fetches many keys, one answer per key in input order.
    pub fn get_batch(&self, keys: &[&[u8]]) -> Vec<Option<Vec<u8>>> {
        self.as_store().get_batch(keys)
    }

    /// Whether `key` is stored.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }
}

/// Builds a [`Store`]: capacity, shard count, index modes, then one of
/// the terminal `create*`/`open`/`recover` calls.
///
/// ```
/// use nvm_kv::prelude::*;
/// use nvm_pmem::SimConfig;
///
/// let store = StoreBuilder::new()
///     .capacity(1_000, 64)
///     .create_sim(SimConfig::fast_test())
///     .unwrap();
/// store.set(b"k", b"v").unwrap();
/// assert_eq!(store.get(b"k").as_deref(), Some(&b"v"[..]));
/// ```
#[derive(Debug, Clone)]
pub struct StoreBuilder {
    items: u64,
    avg_value: u64,
    shards: usize,
    fp: FpMode,
    consistency: ConsistencyMode,
    seed: Option<u64>,
}

impl Default for StoreBuilder {
    fn default() -> Self {
        StoreBuilder::new()
    }
}

impl StoreBuilder {
    pub fn new() -> StoreBuilder {
        StoreBuilder {
            items: 4096,
            avg_value: 64,
            shards: 1,
            fp: FpMode::default(),
            consistency: ConsistencyMode::default(),
            seed: None,
        }
    }

    /// Sizes the store for roughly `items` entries of ≤ `avg_value`
    /// bytes (split across shards).
    pub fn capacity(mut self, items: u64, avg_value: u64) -> Self {
        self.items = items;
        self.avg_value = avg_value;
        self
    }

    /// Number of independent shard pools (≥ 1); keys route by hash.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Index fingerprint-tag mode (create-time).
    pub fn fp_mode(mut self, fp: FpMode) -> Self {
        self.fp = fp;
        self
    }

    /// Index consistency mode (create-time).
    pub fn consistency(mut self, consistency: ConsistencyMode) -> Self {
        self.consistency = consistency;
        self
    }

    /// Overrides the hash seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    fn shard_config(&self) -> KvConfig {
        let per_shard = (self.items / self.shards as u64).max(16);
        let mut cfg = KvConfig::for_capacity(per_shard, self.avg_value)
            .with_fp_mode(self.fp)
            .with_consistency(self.consistency);
        if let Some(seed) = self.seed {
            cfg = cfg.with_seed(seed);
        }
        cfg
    }

    /// Pool bytes each shard needs under this configuration.
    pub fn shard_size<P: Pmem>(&self) -> usize {
        PmemKv::<P>::required_size(&self.shard_config())
    }

    /// Creates a fresh store, calling `make_pool(shard, bytes)` once per
    /// shard for its backing pool (which must be at least `bytes` long).
    pub fn create_with<P: Pmem>(
        &self,
        mut make_pool: impl FnMut(usize, usize) -> P,
    ) -> Result<Store<P>, StoreError> {
        let cfg = self.shard_config();
        let size = PmemKv::<P>::required_size(&cfg);
        let mut shards = Vec::with_capacity(self.shards);
        for i in 0..self.shards {
            let mut pm = make_pool(i, size);
            if pm.len() < size {
                return Err(StoreError::Layout(format!(
                    "shard {i} pool too small: {} < {size}",
                    pm.len()
                )));
            }
            let region = Region::new(0, size);
            let kv = PmemKv::create(&mut pm, region, &cfg)?;
            shards.push((pm, kv));
        }
        Ok(Store::from_shards(shards))
    }

    /// Creates a fresh store over simulator pools.
    pub fn create_sim(&self, sim: SimConfig) -> Result<Store<SimPmem>, StoreError> {
        self.create_with(|_, bytes| SimPmem::new(bytes, sim.clone()))
    }

    /// Reopens a store from its shard pools (one per shard, in the order
    /// they were created). Capacity/mode settings on the builder are
    /// ignored — pools are self-describing.
    pub fn open<P: Pmem>(&self, pools: Vec<P>) -> Result<Store<P>, StoreError> {
        if pools.is_empty() {
            return Err(StoreError::Layout("open needs at least one pool".into()));
        }
        let mut shards = Vec::with_capacity(pools.len());
        for mut pm in pools {
            let region = Region::new(0, pm.len());
            let kv = PmemKv::open(&mut pm, region)?;
            shards.push((pm, kv));
        }
        Ok(Store::from_shards(shards))
    }

    /// [`StoreBuilder::open`] followed by [`Store::recover`] — the
    /// post-crash path.
    pub fn recover<P: Pmem>(&self, pools: Vec<P>) -> Result<Store<P>, StoreError> {
        let store = self.open(pools)?;
        store.recover();
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_pmem::{CrashPlan, CrashResolution, SimConfig, SimPmem};

    fn fresh(items: u64) -> Store<SimPmem> {
        StoreBuilder::new()
            .capacity(items, 64)
            .create_sim(SimConfig::fast_test())
            .unwrap()
    }

    #[test]
    fn set_get_delete_roundtrip() {
        let store = fresh(256);
        assert!(store.is_empty());
        store.set(b"alpha", b"1").unwrap();
        store.set(b"beta", b"2").unwrap();
        assert_eq!(store.get(b"alpha").as_deref(), Some(&b"1"[..]));
        assert_eq!(store.get(b"beta").as_deref(), Some(&b"2"[..]));
        assert_eq!(store.get(b"gamma"), None);
        assert_eq!(store.len(), 2);
        assert!(store.delete(b"alpha").unwrap());
        assert!(!store.delete(b"alpha").unwrap());
        assert_eq!(store.get(b"alpha"), None);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn batch_ops_match_singles_across_shards() {
        for shards in [1usize, 3] {
            let store = StoreBuilder::new()
                .capacity(512, 32)
                .shards(shards)
                .create_sim(SimConfig::fast_test())
                .unwrap();
            let keys: Vec<Vec<u8>> =
                (0..100u32).map(|i| format!("k{i}").into_bytes()).collect();
            let vals: Vec<Vec<u8>> = (0..100u32)
                .map(|i| vec![i as u8; (i % 50) as usize])
                .collect();
            let items: Vec<(&[u8], &[u8])> = keys
                .iter()
                .zip(&vals)
                .map(|(k, v)| (k.as_slice(), v.as_slice()))
                .collect();
            store.set_batch(&items).unwrap();
            let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
            let got = store.get_batch(&refs);
            for (g, v) in got.iter().zip(&vals) {
                assert_eq!(g.as_deref(), Some(v.as_slice()));
            }
            assert_eq!(store.len(), 100);
            let doomed: Vec<&[u8]> = refs[..40].to_vec();
            assert_eq!(store.delete_batch(&doomed).unwrap(), 40);
            assert_eq!(store.delete_batch(&doomed).unwrap(), 0);
            assert_eq!(store.len(), 60);
            store.check_consistency().unwrap();
        }
    }

    #[test]
    fn staged_order_set_then_delete_same_key() {
        let store = fresh(128);
        let t1 = store.stage_set(b"k", b"v");
        let t2 = store.stage_delete(b"k");
        let t3 = store.stage_delete(b"k");
        let t4 = store.stage_set(b"k", b"w");
        store.pump();
        assert_eq!(t1.wait(), Ok(true));
        assert_eq!(t2.wait(), Ok(true));
        assert_eq!(t3.wait(), Ok(false));
        assert_eq!(t4.wait(), Ok(true));
        assert_eq!(store.get(b"k").as_deref(), Some(&b"w"[..]));
    }

    #[test]
    fn counters_move_only_at_commit_boundaries() {
        let store = fresh(256);
        let mut tickets = Vec::new();
        for i in 0..10u32 {
            let k = format!("c{i}");
            tickets.push(store.stage_set(k.as_bytes(), b"v"));
        }
        // Staged but uncommitted: nothing visible anywhere.
        let c = store.counters();
        assert_eq!((c.sets, c.batches), (0, 0));
        assert_eq!(store.len(), 0);
        assert!(tickets.iter().all(|t| t.try_result().is_none()));
        store.pump();
        // One commit boundary: everything visible at once.
        let c = store.counters();
        assert_eq!(c.sets, 10);
        assert_eq!(c.batches, 1);
        assert_eq!(store.len(), 10);
        assert_eq!(store.batch_size_histogram().count(), 1);
        assert_eq!(store.batch_size_histogram().max(), Some(10));
        for t in tickets {
            assert_eq!(t.wait(), Ok(true));
        }
    }

    #[test]
    fn staged_batch_coalesces_fences_below_per_op_floor() {
        let store = fresh(512);
        store.reset_pmem_stats();
        let tickets: Vec<WriteTicket> = (0..32u32)
            .map(|i| {
                let k = format!("f{i:03}");
                store.stage_set(k.as_bytes(), &[i as u8; 24])
            })
            .collect();
        store.pump();
        for t in tickets {
            t.wait().unwrap();
        }
        let fences = store.pmem_stats().fences;
        // 32 fresh sets in one group commit: ~2 (heap) + K+2 (index)
        // fences, so just over 1 per op — far under the ~3/op
        // uncoalesced floor the paper argues against.
        assert!(
            (fences as f64) < 1.5 * 32.0,
            "expected coalesced commit, saw {fences} fences for 32 sets"
        );
    }

    #[test]
    fn concurrent_writers_share_commits_and_readers_never_block() {
        let store = StoreBuilder::new()
            .capacity(4096, 32)
            .create_sim(SimConfig::fast_test())
            .unwrap();
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let s = store.clone();
                std::thread::spawn(move || {
                    for i in 0..200u32 {
                        let k = format!("w{w}-{i}");
                        s.set(k.as_bytes(), &[w as u8; 16]).unwrap();
                    }
                })
            })
            .collect();
        let view = store.read_view();
        let reader = std::thread::spawn(move || {
            let mut hits = 0u32;
            for _ in 0..2000 {
                if view.contains(b"w0-0") {
                    hits += 1;
                }
            }
            hits
        });
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(store.len(), 800);
        let c = store.counters();
        assert_eq!(c.sets, 800);
        // Group commit must have fused at least some concurrent sets
        // (strictly fewer batches than ops is the win; equality would
        // mean zero cross-caller coalescing even under 4 writers).
        assert!(c.batches <= c.sets);
        store.check_consistency().unwrap();
    }

    #[test]
    fn writer_panic_restores_seqlock_parity_for_readers() {
        let store = fresh(128);
        store.set(b"k", b"v").unwrap();
        let shard = &store.core.shards[0];
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shard.with_write(|_| panic!("boom"));
        }));
        assert!(r.is_err());
        // Parity restored: readers must not spin forever.
        assert_eq!(shard.seq.load(Ordering::Relaxed) & 1, 0);
        assert_eq!(store.get(b"k").as_deref(), Some(&b"v"[..]));
        store.set(b"k2", b"w").unwrap();
        assert_eq!(store.get(b"k2").as_deref(), Some(&b"w"[..]));
    }

    #[test]
    fn panicked_commit_releases_leadership_and_unblocks_waiters() {
        let store = fresh(128);
        let shard = &store.core.shards[0];
        let ticket = WriteTicket::new();
        shard.staged.lock().ops.push(StagedOp {
            op: Op::InjectPanic,
            ticket: ticket.clone(),
        });
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.pump()));
        assert!(r.is_err());
        // The drained ticket resolves (with an error) instead of
        // stranding its waiter, and leadership is released so later
        // stagers can elect a new leader.
        assert!(matches!(ticket.wait(), Err(StoreError::Kv(KvError::Corrupt(_)))));
        assert!(!shard.staged.lock().leader_active);
        assert_eq!(shard.seq.load(Ordering::Relaxed) & 1, 0);
        // The store keeps serving.
        store.set(b"after", b"ok").unwrap();
        assert_eq!(store.get(b"after").as_deref(), Some(&b"ok"[..]));
    }

    /// Rebuilds the deterministic pre-crash state: 20 base keys stored
    /// and committed, store torn down to its bare pool.
    fn crash_base() -> SimPmem {
        let store = fresh(256);
        for i in 0..20u32 {
            let k = format!("base{i}");
            store.set(k.as_bytes(), &[1u8; 16]).unwrap();
        }
        store.into_pools().ok().unwrap().into_iter().next().unwrap()
    }

    #[test]
    fn survives_crash_mid_pump_and_recovers() {
        // The simulator is deterministic, so reopening the same base
        // state always consumes the same number of mutation events;
        // measure that once, then crash at every sampled event of the
        // staged group commit that follows.
        let open_events = {
            let pm = crash_base();
            let before = pm.events();
            let store = StoreBuilder::new().open(vec![pm]).unwrap();
            let pools = store.into_pools().ok().unwrap();
            pools[0].events() - before
        };
        for at in (0..400u64).step_by(7) {
            let mut pm = crash_base();
            let arm = pm.events() + open_events + at;
            pm.set_crash_plan(Some(CrashPlan { at_event: arm }));
            let store = StoreBuilder::new().open(vec![pm]).unwrap();
            let outcome = nvm_pmem::run_with_crash(|| {
                for i in 0..10u32 {
                    let k = format!("new{i}");
                    store.stage_set(k.as_bytes(), &[2u8; 16]);
                }
                store.stage_delete(b"base0");
                store.pump();
            });
            let mut pm = store.into_pools().ok().unwrap().into_iter().next().unwrap();
            if outcome.is_err() {
                pm.crash(CrashResolution::Random(at));
            } else {
                pm.set_crash_plan(None);
            }
            let store = StoreBuilder::new().recover(vec![pm]).unwrap();
            store.check_consistency().unwrap();
            // Pre-crash data survives (except the one staged delete,
            // which may or may not have committed).
            for i in 1..20u32 {
                let k = format!("base{i}");
                assert_eq!(store.get(k.as_bytes()).as_deref(), Some(&[1u8; 16][..]));
            }
            let (entries, slots) = store.usage();
            assert_eq!(entries, slots, "recovery must reclaim every leak");
        }
    }

    #[test]
    fn reopen_from_pools_preserves_data() {
        let store = StoreBuilder::new()
            .capacity(512, 32)
            .shards(2)
            .create_sim(SimConfig::fast_test())
            .unwrap();
        for i in 0..60u32 {
            let k = format!("p{i}");
            store.set(k.as_bytes(), k.as_bytes()).unwrap();
        }
        let pools = store.into_pools().ok().unwrap();
        let store = StoreBuilder::new().open(pools).unwrap();
        assert_eq!(store.len(), 60);
        for i in 0..60u32 {
            let k = format!("p{i}");
            assert_eq!(store.get(k.as_bytes()).as_deref(), Some(k.as_bytes()));
        }
    }

    #[test]
    fn metrics_snapshot_has_pmem_counters() {
        let store = fresh(100);
        store.set(b"k", b"v").unwrap();
        let json = store.metrics().to_string_pretty();
        assert!(json.contains("\"pmem\""), "{json}");
        assert!(json.contains("\"flushes\""), "{json}");
        assert!(json.contains("\"heap\""), "{json}");
        assert!(json.contains("\"index\""), "{json}");
        assert!(json.contains("\"probe\""), "{json}");
    }

    #[test]
    fn metrics_index_section_merges_every_shard() {
        let store = StoreBuilder::new()
            .capacity(512, 32)
            .shards(3)
            .create_sim(SimConfig::fast_test())
            .unwrap();
        let n = 90u64;
        for i in 0..n {
            let k = format!("m{i}");
            store.set(k.as_bytes(), b"v").unwrap();
        }
        let reg = store.metrics().to_json();
        let ops = reg.get("index").and_then(|j| j.get("batch")).and_then(|j| j.get("ops"));
        assert_eq!(ops.and_then(|j| j.as_u64()), Some(n), "{}", reg.to_string_pretty());
    }

    #[test]
    fn typed_error_wraps_layers() {
        // Tiny store: filling it surfaces the engine's IndexFull as a
        // typed facade error rather than a panic.
        let store = StoreBuilder::new()
            .capacity(16, 16)
            .create_sim(SimConfig::fast_test())
            .unwrap();
        let mut hit_full = false;
        for i in 0..10_000u32 {
            let k = format!("fill{i}");
            match store.set(k.as_bytes(), &[0u8; 8]) {
                Ok(()) => {}
                Err(StoreError::Kv(KvError::IndexFull)) | Err(StoreError::Alloc(_)) => {
                    hit_full = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(hit_full, "tiny store never filled");
        store.check_consistency().unwrap();
    }

    #[test]
    fn over_long_keys_fail_typed_through_batches_and_staging() {
        // A key past the record's u16 key length is refused like any
        // oversize record, per ticket: its batch neighbours still commit.
        let store = fresh(256);
        let long = vec![b'k'; u16::MAX as usize + 1];
        let too_large = |r: Result<(), StoreError>| {
            matches!(r, Err(StoreError::Alloc(AllocError::TooLarge(_))))
        };
        assert!(too_large(store.set_batch(&[
            (b"before".as_slice(), b"1".as_slice()),
            (long.as_slice(), b"v".as_slice()),
        ])));
        assert_eq!(store.get(b"before").as_deref(), Some(&b"1"[..]));

        let bad = store.stage_set(&long, b"v");
        let good = store.stage_set(b"after", b"2");
        store.pump();
        assert!(too_large(bad.wait().map(|_| ())));
        assert_eq!(good.wait(), Ok(true));
        assert_eq!(store.get(b"after").as_deref(), Some(&b"2"[..]));
        assert_eq!(store.usage(), (2, 2), "a refused record must not touch the pool");
        store.check_consistency().unwrap();
    }
}
