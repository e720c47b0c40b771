//! The common interface every hashing scheme implements.

use crate::TableError;
use nvm_hashfn::{HashKey, Pod};
use nvm_metrics::SchemeInstrumentation;
use nvm_pmem::Pmem;

/// Why an insertion failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertError {
    /// No free cell reachable by the scheme's collision policy. For the
    /// space-utilization experiment (Figure 7) this is the event that
    /// defines a scheme's utilization ratio.
    TableFull,
    /// The key is already present (only returned by `insert_unique`-style
    /// entry points; the paper's Algorithm 1 never probes for duplicates).
    DuplicateKey,
}

impl std::fmt::Display for InsertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InsertError::TableFull => write!(f, "no free cell reachable for this key"),
            InsertError::DuplicateKey => write!(f, "key already present"),
        }
    }
}

impl std::error::Error for InsertError {}

/// Why (and where) a batched insert stopped.
///
/// Batches commit in order with **prefix durability**: when op `i` fails,
/// ops `0..i` are durably applied and ops `i..` are not — never a torn
/// middle. `committed` is that prefix length, so callers can retry
/// `items[committed..]` after making room.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchError {
    /// Ops durably applied before the failure — always a prefix of the
    /// batch.
    pub committed: usize,
    /// Why the op at index `committed` failed.
    pub error: InsertError,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch stopped after {} ops: {}", self.committed, self.error)
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Consistency discipline for the baseline schemes.
///
/// Group hashing never needs a log (its 8-byte bitmap commit is the whole
/// point); the baselines are measured both bare (`None`, the original
/// published schemes) and logged (`UndoLog`, the paper's `-L` variants that
/// actually guarantee recoverability).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConsistencyMode {
    /// Writes are persisted but updates are not atomic across fields — a
    /// crash mid-update can corrupt the structure.
    #[default]
    None,
    /// Every update runs in an undo-log transaction.
    UndoLog,
}

/// Request types measured by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Insert a fresh key (the paper's Algorithm 1).
    Insert,
    /// Look up a key (Algorithm 2's probe path).
    Query,
    /// Remove a key (Algorithm 3).
    Delete,
}

impl OpKind {
    /// Every request type, in the paper's figure order.
    pub const ALL: [OpKind; 3] = [OpKind::Insert, OpKind::Query, OpKind::Delete];

    /// The label used in figures and CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Insert => "insert",
            OpKind::Query => "query",
            OpKind::Delete => "delete",
        }
    }
}

/// A persistent hash table over a pmem pool.
///
/// All persistent state lives in the pool; `self` holds only geometry
/// derived from the persisted header, so a table can be re-opened from the
/// raw pool bytes after a crash.
pub trait HashScheme<P: Pmem, K: HashKey, V: Pod> {
    /// Scheme name as used in the paper's figures ("linear", "PFHT", ...).
    fn name(&self) -> &'static str;

    /// Inserts `(key, value)`. Assumes `key` is not present (the paper's
    /// Algorithm 1); inserting a duplicate shadows rather than updates.
    fn insert(&mut self, pm: &mut P, key: K, value: V) -> Result<(), InsertError>;

    /// Looks up `key`. Shared-capability (`&P`): the query path never
    /// mutates, so concurrent wrappers can run it without the writer lock.
    fn get(&self, pm: &P, key: &K) -> Option<V>;

    /// Looks up every key of a batch, returning one `Option<V>` per key in
    /// input order. Semantically identical to calling [`HashScheme::get`]
    /// per element — same results, same shared-capability `&P`, still zero
    /// persistence events — but schemes override it with a vectorized
    /// pipeline: hash the whole vector up front, software-prefetch every
    /// candidate line, then resolve probes interleaved across keys so the
    /// NVM read latencies overlap instead of serializing.
    ///
    /// The default implementation is the per-key loop.
    ///
    /// ```
    /// use group_hash::{GroupHash, GroupHashConfig};
    /// use nvm_pmem::{Pmem, Region, SimConfig, SimPmem};
    /// use nvm_table::HashScheme;
    ///
    /// let cfg = GroupHashConfig::new(1 << 10, 64);
    /// let size = GroupHash::<SimPmem, u64, u64>::required_size(&cfg);
    /// let mut pm = SimPmem::new(size, SimConfig::fast_test());
    /// let mut t = GroupHash::create(&mut pm, Region::new(0, size), cfg).unwrap();
    /// for k in 0..100u64 {
    ///     t.insert(&mut pm, k, k * 2).unwrap();
    /// }
    ///
    /// let keys = [3u64, 77, 500, 42]; // 500 is absent
    /// let hits = t.get_batch(&pm, &keys);
    /// assert_eq!(hits, vec![Some(6), Some(154), None, Some(84)]);
    /// ```
    fn get_batch(&self, pm: &P, keys: &[K]) -> Vec<Option<V>> {
        keys.iter().map(|key| self.get(pm, key)).collect()
    }

    /// Removes `key`, returning whether it was present.
    fn remove(&mut self, pm: &mut P, key: &K) -> bool;

    /// Occupied cells, read from the persistent header.
    fn len(&self, pm: &P) -> u64;

    /// Total cells (both levels / all buckets / stash included).
    fn capacity(&self) -> u64;

    /// `len / capacity`.
    fn load_factor(&self, pm: &P) -> f64 {
        self.len(pm) as f64 / self.capacity() as f64
    }

    /// True when no cell is occupied.
    fn is_empty(&self, pm: &P) -> bool {
        self.len(pm) == 0
    }

    /// Post-crash recovery: restores all structural invariants using only
    /// persistent state. Idempotent.
    fn recover(&mut self, pm: &mut P);

    /// Verifies structural invariants (count matches occupancy, every key
    /// reachable from its hash position, no duplicates). The first
    /// violation comes back as [`TableError::Corrupt`]. Test/debug aid —
    /// O(capacity).
    fn check_consistency(&self, pm: &P) -> Result<(), TableError>;

    /// Inserts every `(key, value)` in order, amortizing persistence
    /// fences across the batch where the scheme supports it (group
    /// hashing and the baselines coalesce to ~`K + 2` fences for `K` ops
    /// instead of `3K`). Semantics match calling [`HashScheme::insert`]
    /// per element: duplicates shadow, and on failure the already-applied
    /// ops stay — [`BatchError::committed`] reports that durable prefix.
    ///
    /// The default implementation is the per-op loop; schemes override it
    /// with a fence-coalescing fast path. A crash mid-batch recovers to
    /// some prefix of the batch (never a torn op) in both consistency
    /// modes.
    fn insert_batch(&mut self, pm: &mut P, items: &[(K, V)]) -> Result<(), BatchError> {
        for (i, (key, value)) in items.iter().enumerate() {
            if let Err(error) = self.insert(pm, *key, *value) {
                return Err(BatchError {
                    committed: i,
                    error,
                });
            }
        }
        Ok(())
    }

    /// Removes every key in order, returning how many were present (and
    /// are now gone). Same amortization and prefix-durability story as
    /// [`HashScheme::insert_batch`]. When one key appears several times
    /// in `keys`, at most one removal takes effect per batch (there is
    /// only one cell to retract).
    fn remove_batch(&mut self, pm: &mut P, keys: &[K]) -> usize {
        keys.iter().filter(|key| self.remove(pm, key)).count()
    }

    /// Insert that first checks for presence, returning
    /// [`InsertError::DuplicateKey`] instead of shadowing. Convenience for
    /// library users; the paper's workloads use distinct keys.
    fn insert_unique(&mut self, pm: &mut P, key: K, value: V) -> Result<(), InsertError> {
        if self.get(pm, &key).is_some() {
            return Err(InsertError::DuplicateKey);
        }
        self.insert(pm, key, value)
    }

    /// True if `key` is present.
    fn contains(&self, pm: &P, key: &K) -> bool {
        self.get(pm, key).is_some()
    }

    /// The scheme's probe/occupancy/displacement histograms. Every real
    /// scheme records them and returns `Some`; the default `None` is for
    /// implementations (test doubles) that record nothing.
    fn instrumentation(&self) -> Option<&SchemeInstrumentation> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_error_display() {
        assert!(InsertError::TableFull.to_string().contains("free cell"));
        assert!(InsertError::DuplicateKey.to_string().contains("present"));
    }

    #[test]
    fn batch_error_reports_prefix_and_cause() {
        let e = BatchError {
            committed: 7,
            error: InsertError::TableFull,
        };
        assert!(e.to_string().contains("after 7 ops"));
        assert!(e.to_string().contains("free cell"));
        use std::error::Error;
        assert!(e.source().is_some());
    }

    #[test]
    fn op_kind_labels() {
        assert_eq!(OpKind::ALL.len(), 3);
        assert_eq!(OpKind::Insert.label(), "insert");
        assert_eq!(OpKind::Query.label(), "query");
        assert_eq!(OpKind::Delete.label(), "delete");
    }

    #[test]
    fn consistency_default_is_none() {
        assert_eq!(ConsistencyMode::default(), ConsistencyMode::None);
    }
}
