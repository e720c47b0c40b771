//! Shared counters for concurrent read/write paths.
//!
//! Like [`Counter`](crate::Counter), these are plain relaxed atomics so
//! that many reader and writer threads can bump them through a shared
//! reference; unlike the general-purpose counters they come pre-grouped
//! as one struct per concurrent structure. They instrument the
//! interesting events of a seqlock-style table:
//!
//! * a **seqlock retry**: a reader observed an odd sequence number (or a
//!   sequence change across its read) and had to re-run its lookup;
//! * a **lock wait**: a writer found the shard's lock contended and had
//!   to block instead of acquiring it on the fast path;
//! * a **migration step**: one entry moved from the draining table to the
//!   active table during incremental online expansion.
//!
//! All are *events*, not time — cheap enough to leave on permanently.

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic event counters shared by the readers and writers of one
/// concurrent structure.
#[derive(Debug, Default)]
pub struct ConcurrencyCounters {
    seqlock_retries: AtomicU64,
    lock_waits: AtomicU64,
    migration_steps: AtomicU64,
}

/// A plain-value snapshot of [`ConcurrencyCounters`], for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConcurrencySnapshot {
    /// Optimistic reads that observed a concurrent write and re-ran.
    pub seqlock_retries: u64,
    /// Writer lock acquisitions that found the lock already held.
    pub lock_waits: u64,
    /// Entries rehashed from the draining to the active table by the
    /// incremental expansion drainer.
    pub migration_steps: u64,
}

impl ConcurrencyCounters {
    /// A zeroed counter set.
    pub fn new() -> ConcurrencyCounters {
        ConcurrencyCounters::default()
    }

    /// Records one reader retry caused by a concurrent writer.
    #[inline]
    pub fn note_seqlock_retry(&self) {
        self.seqlock_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one writer that had to wait for a contended shard lock.
    #[inline]
    pub fn note_lock_wait(&self) {
        self.lock_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` entries moved by the expansion drainer.
    #[inline]
    pub fn note_migration_steps(&self, n: u64) {
        if n != 0 {
            self.migration_steps.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Reads the current values. Relaxed: values may lag concurrent
    /// increments, which is fine for reporting.
    pub fn snapshot(&self) -> ConcurrencySnapshot {
        ConcurrencySnapshot {
            seqlock_retries: self.seqlock_retries.load(Ordering::Relaxed),
            lock_waits: self.lock_waits.load(Ordering::Relaxed),
            migration_steps: self.migration_steps.load(Ordering::Relaxed),
        }
    }
}

impl ConcurrencySnapshot {
    /// Serializes as `{seqlock_retries, lock_waits, migration_steps}`.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.insert("seqlock_retries", self.seqlock_retries);
        j.insert("lock_waits", self.lock_waits);
        j.insert("migration_steps", self.migration_steps);
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_through_shared_reference() {
        let c = ConcurrencyCounters::new();
        c.note_seqlock_retry();
        c.note_seqlock_retry();
        c.note_lock_wait();
        let s = c.snapshot();
        assert_eq!(s.seqlock_retries, 2);
        assert_eq!(s.lock_waits, 1);
    }

    #[test]
    fn counts_from_many_threads() {
        let c = std::sync::Arc::new(ConcurrencyCounters::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.note_seqlock_retry();
                        c.note_lock_wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = c.snapshot();
        assert_eq!(s.seqlock_retries, 4000);
        assert_eq!(s.lock_waits, 4000);
    }

    #[test]
    fn json_shape() {
        let c = ConcurrencyCounters::new();
        c.note_lock_wait();
        c.note_migration_steps(7);
        let j = c.snapshot().to_json();
        assert_eq!(j.get("seqlock_retries").and_then(Json::as_u64), Some(0));
        assert_eq!(j.get("lock_waits").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("migration_steps").and_then(Json::as_u64), Some(7));
    }

    #[test]
    fn bulk_notes_accumulate_and_zero_is_free() {
        let c = ConcurrencyCounters::new();
        c.note_migration_steps(0);
        assert_eq!(c.snapshot(), ConcurrencySnapshot::default());
        c.note_migration_steps(3);
        c.note_migration_steps(4);
        let s = c.snapshot();
        assert_eq!(s.migration_steps, 7);
    }
}
