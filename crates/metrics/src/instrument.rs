//! The shared per-scheme instrumentation schema.
//!
//! Every hash scheme in the workspace — group hashing and the three
//! baselines — records the *same* three distributions so runs compare
//! directly:
//!
//! * **probe** — cells/buckets examined by one operation (paper Fig. 7's
//!   search-cost axis);
//! * **occupancy** — entries already present in the destination
//!   group/bucket when an insert lands (how full the structure runs);
//! * **displacement** — relocations performed to make room for one insert
//!   (0 for most inserts; path hashing and cuckoo-style moves raise it).
//!
//! The struct lives here, not in each scheme, so the bucket layouts are
//! identical by construction.

use crate::counter::Counter;
use crate::histogram::Histogram;
use crate::json::Json;

/// Counters for a volatile fingerprint-filter layer on the probe path.
///
/// Schemes without such a layer leave all four at zero; `key_reads` is
/// also recorded when the filter is disabled so filtered and unfiltered
/// runs report the probe path's NVM key reads in the same place.
#[derive(Debug, Default, Clone)]
pub struct FingerprintCounters {
    /// Tag matched and the key bytes matched too.
    pub hits: Counter,
    /// Occupied cells whose key read was skipped (tag mismatch).
    pub skips: Counter,
    /// Tag matched but the key bytes did not.
    pub false_positives: Counter,
    /// Key loads issued from the pool by lookup-style probes.
    pub key_reads: Counter,
}

impl FingerprintCounters {
    /// Folds another instance in (shard aggregation).
    pub fn merge(&self, other: &FingerprintCounters) {
        self.hits.merge(&other.hits);
        self.skips.merge(&other.skips);
        self.false_positives.merge(&other.false_positives);
        self.key_reads.merge(&other.key_reads);
    }

    /// Clears all counters.
    pub fn reset(&self) {
        self.hits.reset();
        self.skips.reset();
        self.false_positives.reset();
        self.key_reads.reset();
    }

    /// Serializes as a flat `{hits, skips, false_positives, key_reads}`
    /// object.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.insert("hits", Json::from(self.hits.get()));
        j.insert("skips", Json::from(self.skips.get()));
        j.insert("false_positives", Json::from(self.false_positives.get()));
        j.insert("key_reads", Json::from(self.key_reads.get()));
        j
    }
}

/// Counters for the group-commit batch path, proving fence amortization:
/// how many pmem fences/flushes the batch bodies actually spent per
/// committed op (the paper-motivated win is ~`1 + 2/K` fences/op for
/// batches of `K` versus 3 for single ops).
///
/// Schemes without a native batch path leave all four at zero; single ops
/// routed through a one-element batch count as a session of one.
#[derive(Debug, Default, Clone)]
pub struct BatchCounters {
    /// Batch commit sessions run.
    pub batches: Counter,
    /// Ops durably committed across all sessions.
    pub ops: Counter,
    /// Pmem fences issued inside batch bodies.
    pub fences: Counter,
    /// Pmem flushes issued inside batch bodies.
    pub flushes: Counter,
}

impl BatchCounters {
    /// Records one completed batch session.
    #[inline]
    pub fn record(&self, ops: u64, fences: u64, flushes: u64) {
        self.batches.inc();
        self.ops.add(ops);
        self.fences.add(fences);
        self.flushes.add(flushes);
    }

    /// Mean fences per committed op, `None` before any op commits.
    pub fn fences_per_op(&self) -> Option<f64> {
        let ops = self.ops.get();
        (ops > 0).then(|| self.fences.get() as f64 / ops as f64)
    }

    /// Folds another instance in (shard aggregation).
    pub fn merge(&self, other: &BatchCounters) {
        self.batches.merge(&other.batches);
        self.ops.merge(&other.ops);
        self.fences.merge(&other.fences);
        self.flushes.merge(&other.flushes);
    }

    /// Clears all counters.
    pub fn reset(&self) {
        self.batches.reset();
        self.ops.reset();
        self.fences.reset();
        self.flushes.reset();
    }

    /// Serializes as a flat `{batches, ops, fences, flushes}` object.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.insert("batches", Json::from(self.batches.get()));
        j.insert("ops", Json::from(self.ops.get()));
        j.insert("fences", Json::from(self.fences.get()));
        j.insert("flushes", Json::from(self.flushes.get()));
        j
    }
}

/// Counters for the value heap: allocation traffic, GC reclamation, and
/// per-slab write spread (the wear axis).
///
/// `slab_write_hist` buckets the *per-slab* write counts, so a heap that
/// rotates well shows a tight distribution (max ≈ mean) while a
/// no-rotation heap shows one hot slab and many cold ones.
#[derive(Debug, Clone)]
pub struct HeapCounters {
    /// Completed allocations.
    pub allocs: Counter,
    /// Completed frees (including GC-initiated ones).
    pub frees: Counter,
    /// Blobs relocated by the GC compactor.
    pub gc_moves: Counter,
    /// Dead/leaked blobs reclaimed by the GC sweep.
    pub leaked_reclaimed: Counter,
    /// Total slot writes across all slabs (allocs + GC copy-ins).
    pub slab_writes: Counter,
    /// Distribution of per-slab write counts.
    pub slab_write_hist: Histogram,
}

impl Default for HeapCounters {
    fn default() -> Self {
        HeapCounters {
            allocs: Counter::default(),
            frees: Counter::default(),
            gc_moves: Counter::default(),
            leaked_reclaimed: Counter::default(),
            slab_writes: Counter::default(),
            slab_write_hist: Histogram::exponential(1, 2, 20),
        }
    }
}

impl HeapCounters {
    /// Builds a snapshot from a heap's cumulative stats plus its
    /// per-slab write counters.
    pub fn from_heap(
        allocs: u64,
        frees: u64,
        gc_moves: u64,
        leaked_reclaimed: u64,
        per_slab_writes: &[u64],
    ) -> HeapCounters {
        let h = HeapCounters::default();
        h.allocs.add(allocs);
        h.frees.add(frees);
        h.gc_moves.add(gc_moves);
        h.leaked_reclaimed.add(leaked_reclaimed);
        for &w in per_slab_writes {
            h.slab_writes.add(w);
            h.slab_write_hist.record(w);
        }
        h
    }

    /// Folds another instance in (shard aggregation).
    pub fn merge(&self, other: &HeapCounters) {
        self.allocs.merge(&other.allocs);
        self.frees.merge(&other.frees);
        self.gc_moves.merge(&other.gc_moves);
        self.leaked_reclaimed.merge(&other.leaked_reclaimed);
        self.slab_writes.merge(&other.slab_writes);
        self.slab_write_hist.merge(&other.slab_write_hist);
    }

    /// Clears all counters and samples.
    pub fn reset(&self) {
        self.allocs.reset();
        self.frees.reset();
        self.gc_moves.reset();
        self.leaked_reclaimed.reset();
        self.slab_writes.reset();
        self.slab_write_hist.reset();
    }

    /// Serializes as flat counters plus the `slab_writes` histogram
    /// object (with its max/mean summarizing slab skew).
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.insert("allocs", Json::from(self.allocs.get()));
        j.insert("frees", Json::from(self.frees.get()));
        j.insert("gc_moves", Json::from(self.gc_moves.get()));
        j.insert("leaked_reclaimed", Json::from(self.leaked_reclaimed.get()));
        j.insert("slab_writes", Json::from(self.slab_writes.get()));
        j.insert("slab_write_hist", self.slab_write_hist.to_json());
        j
    }
}

/// Probe/occupancy/displacement histograms recorded by one scheme
/// instance (or one shard of a concurrent scheme).
///
/// All methods take `&self` ([`Histogram`] uses interior mutability), so
/// read paths like `get` can record without `&mut`.
#[derive(Debug, Clone)]
pub struct SchemeInstrumentation {
    /// Cells/buckets examined per operation.
    pub probe: Histogram,
    /// Destination group/bucket occupancy at insert time.
    pub occupancy: Histogram,
    /// Relocations per insert.
    pub displacement: Histogram,
    /// Fingerprint-filter effectiveness (zero for unfiltered schemes).
    pub fingerprint: FingerprintCounters,
    /// Group-commit batch amortization (zero when only single ops ran
    /// outside the batch path).
    pub batch: BatchCounters,
}

impl SchemeInstrumentation {
    /// Instrumentation sized for groups/buckets of `group_size` slots.
    pub fn new(group_size: usize) -> SchemeInstrumentation {
        SchemeInstrumentation {
            probe: Histogram::probe_lengths(),
            occupancy: Histogram::occupancy(group_size.max(1)),
            displacement: Histogram::probe_lengths(),
            fingerprint: FingerprintCounters::default(),
            batch: BatchCounters::default(),
        }
    }

    /// Records that an operation examined `cells` cells.
    #[inline]
    pub fn record_probe(&self, cells: u64) {
        self.probe.record(cells);
    }

    /// Records the destination occupancy seen by an insert.
    #[inline]
    pub fn record_occupancy(&self, entries: u64) {
        self.occupancy.record(entries);
    }

    /// Records how many entries an insert displaced.
    #[inline]
    pub fn record_displacement(&self, moves: u64) {
        self.displacement.record(moves);
    }

    /// Folds another instance in (shard aggregation).
    pub fn merge(&self, other: &SchemeInstrumentation) {
        self.probe.merge(&other.probe);
        self.occupancy.merge(&other.occupancy);
        self.displacement.merge(&other.displacement);
        self.fingerprint.merge(&other.fingerprint);
        self.batch.merge(&other.batch);
    }

    /// Clears all samples.
    pub fn reset(&self) {
        self.probe.reset();
        self.occupancy.reset();
        self.displacement.reset();
        self.fingerprint.reset();
        self.batch.reset();
    }

    /// Serializes as `{probe, occupancy, displacement}` histogram
    /// objects — the schema every scheme emits — plus a `fingerprint`
    /// counter object.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.insert("probe", self.probe.to_json());
        j.insert("occupancy", self.occupancy.to_json());
        j.insert("displacement", self.displacement.to_json());
        j.insert("fingerprint", self.fingerprint.to_json());
        j.insert("batch", self.batch.to_json());
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_merges_across_shards() {
        let a = SchemeInstrumentation::new(8);
        let b = SchemeInstrumentation::new(8);
        a.record_probe(2);
        a.record_occupancy(3);
        b.record_probe(5);
        b.record_displacement(1);
        a.merge(&b);
        assert_eq!(a.probe.count(), 2);
        assert_eq!(a.occupancy.count(), 1);
        assert_eq!(a.displacement.count(), 1);
        assert_eq!(a.probe.max(), Some(5));
    }

    #[test]
    fn json_schema_is_three_histograms() {
        let i = SchemeInstrumentation::new(4);
        i.record_probe(1);
        let j = i.to_json();
        for key in ["probe", "occupancy", "displacement"] {
            assert!(j.get(key).and_then(|h| h.get("count")).is_some());
        }
        for key in ["hits", "skips", "false_positives", "key_reads"] {
            assert!(j.get("fingerprint").and_then(|f| f.get(key)).is_some());
        }
    }

    #[test]
    fn batch_counters_record_merge_and_reset() {
        let a = SchemeInstrumentation::new(4);
        let b = SchemeInstrumentation::new(4);
        assert_eq!(a.batch.fences_per_op(), None);
        a.batch.record(64, 66, 129); // K publishes: K+2 fences, 2K+1 flushes
        b.batch.record(1, 3, 3);
        a.merge(&b);
        assert_eq!(a.batch.batches.get(), 2);
        assert_eq!(a.batch.ops.get(), 65);
        assert_eq!(a.batch.fences.get(), 69);
        assert_eq!(a.batch.flushes.get(), 132);
        let per_op = a.batch.fences_per_op().unwrap();
        assert!(per_op < 3.0, "batching must beat 3 fences/op, got {per_op}");
        assert!(a
            .to_json()
            .get("batch")
            .and_then(|x| x.get("ops"))
            .is_some());
        a.reset();
        assert_eq!(a.batch.batches.get(), 0);
    }

    #[test]
    fn fingerprint_counters_merge_and_reset() {
        let a = SchemeInstrumentation::new(4);
        let b = SchemeInstrumentation::new(4);
        a.fingerprint.hits.inc();
        a.fingerprint.key_reads.add(3);
        b.fingerprint.skips.add(5);
        b.fingerprint.false_positives.inc();
        a.merge(&b);
        assert_eq!(a.fingerprint.hits.get(), 1);
        assert_eq!(a.fingerprint.skips.get(), 5);
        assert_eq!(a.fingerprint.false_positives.get(), 1);
        assert_eq!(a.fingerprint.key_reads.get(), 3);
        a.reset();
        assert_eq!(a.fingerprint.skips.get(), 0);
    }
}
