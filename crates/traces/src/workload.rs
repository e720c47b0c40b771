//! The paper's measurement protocol (§4.2).
//!
//! "We first insert items into the hash table until the load factor
//! reaches the predefined value. After that, we insert 1000 items into the
//! hash table, then query and delete 1000 items from the hash table. At
//! last, we calculate the average latency of requesting an item."
//!
//! [`Workload::run`] executes exactly that against any
//! [`HashScheme`]/[`Trace`] pair, reporting per-operation latency
//! (simulated nanoseconds under [`SimPmem`](nvm_pmem::SimPmem), wall-clock
//! under [`RealPmem`](nvm_pmem::RealPmem)), L3 misses (when the backend
//! models a cache), and persistence-operation counts.

use crate::{Trace, Zipf};
use nvm_cachesim::CacheStats;
use nvm_hashfn::{HashKey, Pod};
use nvm_metrics::{Histogram, Json, MetricsRegistry, OpDelta, OpTrace, SchemeInstrumentation};
use nvm_pmem::{Pmem, PmemStats};
use nvm_table::{HashScheme, InsertError, OpKind};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Per-phase measurements.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpMetrics {
    /// Operations executed.
    pub ops: u64,
    /// Total latency across the phase, nanoseconds (simulated when the
    /// backend provides a clock, wall-clock otherwise).
    pub total_ns: u64,
    /// L3 misses across the phase (0 if the backend has no cache model).
    pub llc_misses: u64,
    /// Persistence-operation deltas across the phase.
    pub pmem: PmemStats,
}

impl OpMetrics {
    /// Average latency per operation, nanoseconds.
    pub fn avg_ns(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.ops as f64
        }
    }

    /// Average L3 misses per operation.
    pub fn avg_llc_misses(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.llc_misses as f64 / self.ops as f64
        }
    }

    /// Average flushed cachelines per operation.
    pub fn avg_flushes(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.pmem.flushes as f64 / self.ops as f64
        }
    }
}

/// Distribution-level metrics gathered alongside the phase averages:
/// per-op latency histograms (one [`OpTrace`] window per measured op),
/// cumulative persistence/cache counters for the whole run (fill phase
/// included), and the scheme's own probe/occupancy/displacement
/// histograms when it records them.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Per-op latency distribution of the measured insert phase
    /// (simulated ns when the backend has a clock, wall-clock otherwise).
    pub insert_latency: Histogram,
    /// Per-op latency distribution of the measured query phase.
    pub query_latency: Histogram,
    /// Per-op latency distribution of the measured delete phase.
    pub delete_latency: Histogram,
    /// Persistence-operation totals across the whole run, fill included.
    pub pmem_total: PmemStats,
    /// Cache-hierarchy totals across the whole run, when the backend
    /// models a cache.
    pub cache_total: Option<CacheStats>,
    /// The scheme's probe/occupancy/displacement histograms — `None`
    /// only for schemes that record nothing.
    pub scheme: Option<SchemeInstrumentation>,
}

impl RunMetrics {
    /// Packs the metrics into a [`MetricsRegistry`] with the stable
    /// section names every experiment shares: `latency` (per-phase
    /// histograms), `pmem`, and optionally `cache` and `scheme`.
    pub fn to_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let mut lat = Json::obj();
        lat.insert("insert", self.insert_latency.to_json());
        lat.insert("query", self.query_latency.to_json());
        lat.insert("delete", self.delete_latency.to_json());
        reg.set("latency", lat);
        reg.set_pmem("pmem", &self.pmem_total);
        if let Some(c) = &self.cache_total {
            reg.set_cache("cache", c);
        }
        if let Some(s) = &self.scheme {
            reg.set_instrumentation("scheme", s);
        }
        reg
    }

    /// The registry serialized as one JSON object (the `metrics` block
    /// the harness embeds in its results files).
    pub fn to_json(&self) -> Json {
        self.to_registry().to_json()
    }
}

/// Results of one full workload run.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Scheme name (e.g. "group", "linear-L").
    pub scheme: String,
    /// Trace name.
    pub trace: String,
    /// Load factor actually reached by the fill phase.
    pub load_factor: f64,
    /// Items resident after the fill phase.
    pub fill_count: u64,
    pub insert: OpMetrics,
    pub query: OpMetrics,
    pub delete: OpMetrics,
    /// Latency distributions and cumulative counters for the run.
    pub metrics: RunMetrics,
}

impl WorkloadReport {
    /// Metrics for one op kind.
    pub fn of(&self, kind: OpKind) -> &OpMetrics {
        match kind {
            OpKind::Insert => &self.insert,
            OpKind::Query => &self.query,
            OpKind::Delete => &self.delete,
        }
    }
}

/// The fill-then-measure workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Target `len / capacity` before measuring.
    pub load_factor: f64,
    /// Operations per measured phase (the paper uses 1000).
    pub ops: usize,
}

impl Workload {
    /// The paper's protocol at the given load factor.
    pub fn paper(load_factor: f64) -> Self {
        Workload {
            load_factor,
            ops: 1000,
        }
    }

    /// Fills `table` from `trace` until `load_factor`. Returns the fill
    /// keys. Stops early (returning fewer) if the scheme rejects an
    /// insert first.
    pub fn fill<P, K, V, S, T>(
        &self,
        pm: &mut P,
        table: &mut S,
        trace: &mut T,
        mut value_of: impl FnMut(&K) -> V,
    ) -> Vec<K>
    where
        P: Pmem,
        K: HashKey,
        V: Pod,
        S: HashScheme<P, K, V>,
        T: Trace<Key = K>,
    {
        let target = (self.load_factor * table.capacity() as f64) as u64;
        let mut keys = Vec::with_capacity(target as usize);
        while table.len(pm) < target {
            let k = trace.next_key();
            let v = value_of(&k);
            match table.insert(pm, k, v) {
                Ok(()) => keys.push(k),
                Err(InsertError::TableFull) => break,
                Err(e) => panic!("fill insert failed: {e}"),
            }
        }
        keys
    }

    /// Runs the full protocol. `value_of` maps keys to stored values.
    pub fn run<P, K, V, S, T>(
        &self,
        pm: &mut P,
        table: &mut S,
        trace: &mut T,
        mut value_of: impl FnMut(&K) -> V,
    ) -> WorkloadReport
    where
        P: Pmem,
        K: HashKey,
        V: Pod,
        S: HashScheme<P, K, V>,
        T: Trace<Key = K>,
    {
        let run_stats_before = pm.stats();
        let run_cache_before = pm.cache_stats();

        let fill_keys = self.fill(pm, table, trace, &mut value_of);
        let fill_count = table.len(pm);
        let load_factor = table.load_factor(pm);

        // Fresh keys for the measured inserts (also the delete victims,
        // keeping the load factor steady across phases).
        let insert_keys = trace.take_keys(self.ops);
        // Query victims: resident fill keys, sampled evenly.
        let step = (fill_keys.len() / self.ops.max(1)).max(1);
        let query_keys: Vec<K> = fill_keys.iter().step_by(step).take(self.ops).copied().collect();

        // Per-op latency distributions: one OpTrace window per measured
        // op. The trace only snapshots DRAM-side counters, so it never
        // perturbs the simulated clock or cache state it observes.
        let insert_latency = Histogram::latency_ns();
        let query_latency = Histogram::latency_ns();
        let delete_latency = Histogram::latency_ns();

        let insert = Self::measure(pm, |pm| {
            let mut done = 0;
            for k in &insert_keys {
                let tr = OpTrace::begin(pm);
                let ok = table.insert(pm, *k, value_of(k)).is_ok();
                insert_latency.record(tr.end(pm).latency_ns());
                if ok {
                    done += 1;
                }
            }
            done
        });

        let query = Self::measure(pm, |pm| {
            let mut found = 0;
            for k in &query_keys {
                let tr = OpTrace::begin(pm);
                let hit = table.get(pm, k).is_some();
                query_latency.record(tr.end(pm).latency_ns());
                if hit {
                    found += 1;
                }
            }
            assert_eq!(found, query_keys.len() as u64, "resident key not found");
            found
        });

        let delete = Self::measure(pm, |pm| {
            let mut done = 0;
            for k in &insert_keys {
                let tr = OpTrace::begin(pm);
                let hit = table.remove(pm, k);
                delete_latency.record(tr.end(pm).latency_ns());
                if hit {
                    done += 1;
                }
            }
            done
        });

        let metrics = RunMetrics {
            insert_latency,
            query_latency,
            delete_latency,
            pmem_total: pm.stats().delta_since(&run_stats_before),
            cache_total: match (run_cache_before, pm.cache_stats()) {
                (Some(a), Some(b)) => Some(b.delta_since(&a)),
                _ => None,
            },
            scheme: table.instrumentation().cloned(),
        };

        WorkloadReport {
            scheme: table.name().to_string(),
            trace: trace.name().to_string(),
            load_factor,
            fill_count,
            insert,
            query,
            delete,
            metrics,
        }
    }

    /// Runs `phase`, measuring elapsed time (simulated when available),
    /// LLC misses, and pmem-op deltas. `phase` returns the op count.
    fn measure<P: Pmem>(pm: &mut P, phase: impl FnOnce(&mut P) -> u64) -> OpMetrics {
        let stats_before = pm.stats();
        let cache_before = pm.cache_stats();
        let sim_before = pm.sim_time_ns();
        let wall = Instant::now();

        let ops = phase(pm);

        let total_ns = match (sim_before, pm.sim_time_ns()) {
            (Some(a), Some(b)) => b - a,
            _ => wall.elapsed().as_nanos() as u64,
        };
        let llc_misses = match (cache_before, pm.cache_stats()) {
            (Some(a), Some(b)) => b.delta_since(&a).llc_misses(),
            _ => 0,
        };
        OpMetrics {
            ops,
            total_ns,
            llc_misses,
            pmem: pm.stats().delta_since(&stats_before),
        }
    }
}

/// The YCSB core mixes the harness sweeps. An "update" is modelled as
/// delete + reinsert of a resident key — the closest analogue for tables
/// whose cells are immutable once published (in-place value overwrite
/// would bypass the failure-atomic commit the schemes are built around).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum YcsbMix {
    /// Workload A — update heavy: 50 % reads, 50 % updates.
    A,
    /// Workload B — read heavy: 95 % reads, 5 % updates.
    B,
    /// Workload C — read only.
    C,
}

impl YcsbMix {
    /// All three mixes, sweep order.
    pub const ALL: [YcsbMix; 3] = [YcsbMix::A, YcsbMix::B, YcsbMix::C];

    /// Mix name as used in the YCSB paper ("A"/"B"/"C").
    pub fn label(self) -> &'static str {
        match self {
            YcsbMix::A => "A",
            YcsbMix::B => "B",
            YcsbMix::C => "C",
        }
    }

    /// Fraction of requests that are reads.
    pub fn read_fraction(self) -> f64 {
        match self {
            YcsbMix::A => 0.5,
            YcsbMix::B => 0.95,
            YcsbMix::C => 1.0,
        }
    }
}

/// How a YCSB run picks which resident key each request touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyDist {
    /// Every resident key equally likely.
    Uniform,
    /// YCSB's default skew: Zipf with exponent 0.99 over the resident
    /// keys ([`Zipf::ycsb`]).
    Zipfian,
}

impl KeyDist {
    /// Both distributions, sweep order.
    pub const ALL: [KeyDist; 2] = [KeyDist::Uniform, KeyDist::Zipfian];

    /// Distribution name for tables/CSVs.
    pub fn label(self) -> &'static str {
        match self {
            KeyDist::Uniform => "uniform",
            KeyDist::Zipfian => "zipfian",
        }
    }
}

/// Results of one YCSB run: per-kind phase metrics, latency
/// distributions, and whole-run counters.
#[derive(Debug, Clone)]
pub struct YcsbReport {
    /// Scheme name (e.g. "iceberg").
    pub scheme: String,
    /// The request mix that ran.
    pub mix: YcsbMix,
    /// The key-choice distribution that ran.
    pub dist: KeyDist,
    /// Load factor actually reached by the fill phase.
    pub load_factor: f64,
    /// Items resident during the measured phase.
    pub fill_count: u64,
    /// Aggregate read metrics.
    pub read: OpMetrics,
    /// Aggregate update (delete + reinsert) metrics.
    pub update: OpMetrics,
    /// Per-read latency distribution.
    pub read_latency: Histogram,
    /// Per-update latency distribution.
    pub update_latency: Histogram,
    /// Persistence totals across the whole run, fill included.
    pub pmem_total: PmemStats,
    /// The scheme's probe/occupancy/displacement histograms (fill phase
    /// included); `None` only for schemes that record nothing.
    pub scheme_metrics: Option<SchemeInstrumentation>,
}

impl YcsbReport {
    /// The shared-schema `metrics` block (`latency` + `pmem` + `scheme`
    /// sections, like `RunMetrics::to_json`).
    pub fn to_json(&self) -> Json {
        let mut reg = MetricsRegistry::new();
        let mut lat = Json::obj();
        lat.insert("read", self.read_latency.to_json());
        lat.insert("update", self.update_latency.to_json());
        reg.set("latency", lat);
        reg.set_pmem("pmem", &self.pmem_total);
        if let Some(s) = &self.scheme_metrics {
            reg.set_instrumentation("scheme", s);
        }
        reg.to_json()
    }
}

/// A YCSB-style run: fill to a load factor, then fire `ops` requests at
/// resident keys under the chosen mix and key distribution. Updates
/// reinsert the key they delete, so the load factor holds steady.
#[derive(Debug, Clone, Copy)]
pub struct YcsbWorkload {
    /// Target `len / capacity` before the measured phase.
    pub load_factor: f64,
    /// Requests in the measured phase.
    pub ops: usize,
    /// Read/update mix.
    pub mix: YcsbMix,
    /// Key-choice distribution.
    pub dist: KeyDist,
    /// Seed for the request stream (op kinds + key picks).
    pub seed: u64,
}

impl YcsbWorkload {
    /// Runs the workload. `value_of` maps keys to stored values (updates
    /// rewrite the same mapping; the write path cost is what's measured).
    pub fn run<P, K, V, S, T>(
        &self,
        pm: &mut P,
        table: &mut S,
        trace: &mut T,
        mut value_of: impl FnMut(&K) -> V,
    ) -> YcsbReport
    where
        P: Pmem,
        K: HashKey,
        V: Pod,
        S: HashScheme<P, K, V>,
        T: Trace<Key = K>,
    {
        let run_stats_before = pm.stats();
        let keys = Workload {
            load_factor: self.load_factor,
            ops: 0,
        }
        .fill(pm, table, trace, &mut value_of);
        assert!(!keys.is_empty(), "fill left no resident keys to request");
        let fill_count = table.len(pm);
        let load_factor = table.load_factor(pm);

        let zipf = match self.dist {
            KeyDist::Zipfian => Some(Zipf::ycsb(keys.len())),
            KeyDist::Uniform => None,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x59C5_B0CC);

        let read_latency = Histogram::latency_ns();
        let update_latency = Histogram::latency_ns();
        let mut read = OpMetrics::default();
        let mut update = OpMetrics::default();

        for _ in 0..self.ops {
            // Zipf ranks map straight onto fill order; the fill keys are
            // already in random order, so rank 0 is an arbitrary hot key.
            let i = match &zipf {
                Some(z) => z.sample(&mut rng),
                None => rng.gen_range(0..keys.len()),
            };
            let k = keys[i];
            let is_read = rng.gen::<f64>() < self.mix.read_fraction();
            let tr = OpTrace::begin(pm);
            if is_read {
                let hit = table.get(pm, &k).is_some();
                let d = tr.end(pm);
                assert!(hit, "resident key missing under YCSB read");
                read_latency.record(d.latency_ns());
                accumulate(&mut read, &d);
            } else {
                let removed = table.remove(pm, &k);
                let v = value_of(&k);
                table.insert(pm, k, v).expect("YCSB update reinsert");
                let d = tr.end(pm);
                assert!(removed, "resident key missing under YCSB update");
                update_latency.record(d.latency_ns());
                accumulate(&mut update, &d);
            }
        }

        YcsbReport {
            scheme: table.name().to_string(),
            mix: self.mix,
            dist: self.dist,
            load_factor,
            fill_count,
            read,
            update,
            read_latency,
            update_latency,
            pmem_total: pm.stats().delta_since(&run_stats_before),
            scheme_metrics: table.instrumentation().cloned(),
        }
    }
}

/// Folds one op's deltas into a phase accumulator.
fn accumulate(m: &mut OpMetrics, d: &OpDelta) {
    m.ops += 1;
    m.total_ns += d.latency_ns();
    m.llc_misses += d.llc_misses();
    m.pmem.reads += d.pmem.reads;
    m.pmem.bytes_read += d.pmem.bytes_read;
    m.pmem.writes += d.pmem.writes;
    m.pmem.bytes_written += d.pmem.bytes_written;
    m.pmem.atomic_writes += d.pmem.atomic_writes;
    m.pmem.flushes += d.pmem.flushes;
    m.pmem.fences += d.pmem.fences;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandomNum;
    use nvm_pmem::{Region, SimConfig, SimPmem};
    use nvm_table::ConsistencyMode;

    // The workload driver is scheme-agnostic; exercise it with a baseline
    // (the baselines crate depends on traces only in dev, so use a tiny
    // in-crate dummy instead).
    struct Dummy {
        map: std::collections::HashMap<u64, u64>,
        cap: u64,
    }

    impl<P: Pmem> HashScheme<P, u64, u64> for Dummy {
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn insert(&mut self, pm: &mut P, key: u64, value: u64) -> Result<(), InsertError> {
            // Touch pmem so metrics are non-trivial.
            pm.write_u64((key % 64) as usize * 8, value);
            pm.persist((key % 64) as usize * 8, 8);
            self.map.insert(key, value);
            Ok(())
        }
        fn get(&self, pm: &P, key: &u64) -> Option<u64> {
            pm.read_u64((key % 64) as usize * 8);
            self.map.get(key).copied()
        }
        fn remove(&mut self, pm: &mut P, key: &u64) -> bool {
            pm.write_u64((key % 64) as usize * 8, 0);
            pm.persist((key % 64) as usize * 8, 8);
            self.map.remove(key).is_some()
        }
        fn len(&self, _pm: &P) -> u64 {
            self.map.len() as u64
        }
        fn capacity(&self) -> u64 {
            self.cap
        }
        fn recover(&mut self, _pm: &mut P) {}
        fn check_consistency(&self, _pm: &P) -> Result<(), nvm_table::TableError> {
            Ok(())
        }
    }

    #[test]
    fn protocol_reaches_load_factor_and_measures() {
        let mut pm = SimPmem::new(4096, SimConfig::fast_test());
        let mut t = Dummy {
            map: Default::default(),
            cap: 4096,
        };
        let mut trace = RandomNum::new(1);
        let w = Workload { load_factor: 0.5, ops: 100 };
        let r = w.run(&mut pm, &mut t, &mut trace, |&k| k + 1);
        assert_eq!(r.scheme, "dummy");
        assert_eq!(r.trace, "RandomNum");
        assert!(r.load_factor >= 0.5 && r.load_factor < 0.55, "{}", r.load_factor);
        assert_eq!(r.insert.ops, 100);
        assert_eq!(r.query.ops, 100);
        assert_eq!(r.delete.ops, 100);
        assert!(r.insert.total_ns > 0);
        assert!(r.insert.pmem.flushes >= 100);
        // Load factor unchanged by the measured phases (insert == delete).
        assert_eq!(t.map.len() as u64, r.fill_count);
        // The metrics block saw every measured op and the whole run's
        // persistence traffic (fill included, so ≥ the insert phase's).
        assert_eq!(r.metrics.insert_latency.count(), 100);
        assert_eq!(r.metrics.query_latency.count(), 100);
        assert_eq!(r.metrics.delete_latency.count(), 100);
        assert!(r.metrics.insert_latency.p50() > 0.0);
        assert!(r.metrics.pmem_total.flushes > r.insert.pmem.flushes);
        assert!(r.metrics.cache_total.is_some());
        // Dummy never records scheme instrumentation.
        assert!(r.metrics.scheme.is_none());
        let json = r.metrics.to_json().to_string_pretty();
        assert!(json.contains("\"flushes\""), "{json}");
        assert!(json.contains("\"latency\""), "{json}");
    }

    #[test]
    fn ycsb_mix_splits_reads_and_updates() {
        let mut pm = SimPmem::new(4096, SimConfig::fast_test());
        let mut t = Dummy {
            map: Default::default(),
            cap: 4096,
        };
        let mut trace = RandomNum::new(3);
        let w = YcsbWorkload {
            load_factor: 0.25,
            ops: 400,
            mix: YcsbMix::A,
            dist: KeyDist::Uniform,
            seed: 9,
        };
        let r = w.run(&mut pm, &mut t, &mut trace, |&k| k + 1);
        assert_eq!(r.scheme, "dummy");
        assert_eq!(r.read.ops + r.update.ops, 400);
        // Mix A: 50/50 within binomial slack.
        assert!((120..=280).contains(&(r.update.ops as usize)), "{}", r.update.ops);
        assert_eq!(r.read_latency.count(), r.read.ops);
        assert_eq!(r.update_latency.count(), r.update.ops);
        // An update is a remove + insert: it must flush, a read must not.
        assert!(r.update.pmem.flushes >= 2 * r.update.ops);
        assert_eq!(r.read.pmem.flushes, 0);
        // Load factor steady: every deleted key was reinserted.
        assert_eq!(t.map.len() as u64, r.fill_count);
        let json = r.to_json().to_string_pretty();
        assert!(json.contains("\"latency\""), "{json}");
        assert!(json.contains("\"update\""), "{json}");
    }

    #[test]
    fn ycsb_c_is_read_only_under_both_dists() {
        for dist in KeyDist::ALL {
            let mut pm = SimPmem::new(4096, SimConfig::fast_test());
            let mut t = Dummy {
                map: Default::default(),
                cap: 4096,
            };
            let mut trace = RandomNum::new(4);
            let r = YcsbWorkload {
                load_factor: 0.25,
                ops: 200,
                mix: YcsbMix::C,
                dist,
                seed: 11,
            }
            .run(&mut pm, &mut t, &mut trace, |&k| k ^ 5);
            assert_eq!(r.read.ops, 200, "{dist:?}");
            assert_eq!(r.update.ops, 0, "{dist:?}");
        }
    }

    #[test]
    fn fill_stops_at_table_full() {
        struct Tiny;
        impl<P: Pmem> HashScheme<P, u64, u64> for Tiny {
            fn name(&self) -> &'static str {
                "tiny"
            }
            fn insert(&mut self, _pm: &mut P, _k: u64, _v: u64) -> Result<(), InsertError> {
                Err(InsertError::TableFull)
            }
            fn get(&self, _pm: &P, _k: &u64) -> Option<u64> {
                None
            }
            fn remove(&mut self, _pm: &mut P, _k: &u64) -> bool {
                false
            }
            fn len(&self, _pm: &P) -> u64 {
                0
            }
            fn capacity(&self) -> u64 {
                100
            }
            fn recover(&mut self, _pm: &mut P) {}
            fn check_consistency(&self, _pm: &P) -> Result<(), nvm_table::TableError> {
                Ok(())
            }
        }
        let mut pm = SimPmem::new(4096, SimConfig::fast_test());
        let mut trace = RandomNum::new(2);
        let keys = Workload::paper(0.9).fill(&mut pm, &mut Tiny, &mut trace, |&k| k);
        assert!(keys.is_empty());
    }

    #[test]
    fn avg_metrics_divide() {
        let m = OpMetrics {
            ops: 4,
            total_ns: 400,
            llc_misses: 8,
            pmem: PmemStats {
                flushes: 12,
                ..Default::default()
            },
        };
        assert_eq!(m.avg_ns(), 100.0);
        assert_eq!(m.avg_llc_misses(), 2.0);
        assert_eq!(m.avg_flushes(), 3.0);
        assert_eq!(OpMetrics::default().avg_ns(), 0.0);
    }

    // Keep the unused imports meaningful for the integration-style test
    // below (ConsistencyMode/Region re-exported use is exercised in the
    // harness crate's tests).
    #[allow(dead_code)]
    fn _type_uses(_: ConsistencyMode, _: Region) {}
}
