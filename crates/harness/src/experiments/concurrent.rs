//! Concurrent throughput — lock-free reads and latched per-shard writes.
//!
//! Two sweeps over a [`ShardedGroupHash`]:
//!
//! * **Readers** (`concurrent.csv`): pre-populate, then sweep
//!   reader-thread counts with and without a background writer. `get`
//!   takes no lock — an optimistic probe through a
//!   [`GroupReadView`](group_hash::GroupReadView) validated by the
//!   shard's seqlock sequence.
//! * **Writers** (`concurrent_writers.csv`): sweep writer-thread counts
//!   W ∈ {1, 2, 4, 8} of plain inserts over disjoint key ranges — each
//!   committed under its shard's latch — plus one arm that starts with
//!   deliberately tiny shards so **online expansion** runs mid-stream.
//!   Per-op latency is recorded (p50/p95/p99) alongside the lock-wait
//!   and migration-step counters.
//!
//! Invariants checked on every run (and surfaced as counters so the
//! acceptance tests can pin them to zero):
//!
//! * no **phantom miss** — every pre-populated key must stay visible even
//!   mid-update, because updates never clear the commit bit;
//! * no **torn value** — values encode `(key << 20) | round`, so a reader
//!   observing a value whose key bits mismatch caught a half-written
//!   in-place update that the seqlock should have rejected;
//! * no **lost update** — after the writer sweep every inserted key must
//!   hold exactly the value its writer committed, expansions included;
//! * single-writer arms must finish with **zero lock waits** (nobody to
//!   contend a shard latch with).

use crate::experiments::runner::experiment_json;
use crate::tablefmt::{count, emit_json, Table};
use crate::{Args, TraceKind};
use group_hash::{GroupHashConfig, ShardedGroupHash};
use nvm_metrics::{Histogram, Json};
use nvm_pmem::{SimConfig, SimPmem};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Reader thread counts swept.
pub const READERS: [usize; 4] = [1, 2, 4, 8];
/// Writer thread counts swept (0 isolates the uncontended read path).
pub const WRITERS: [usize; 2] = [0, 1];
/// Writer thread counts swept in the write-scaling arms.
pub const WRITER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Shards in the table under test.
pub const SHARDS: usize = 8;

/// Value encoding: the key in the high bits, the writer's round in the
/// low [`ROUND_BITS`], so readers can detect torn values.
const ROUND_BITS: u32 = 20;

fn encode(key: u64, round: u64) -> u64 {
    (key << ROUND_BITS) | (round & ((1 << ROUND_BITS) - 1))
}

/// One (readers, writers) arm: wall-clock read throughput and the
/// concurrency event counters accumulated during the arm.
#[derive(Debug, Clone, Copy)]
pub struct RunData {
    pub readers: usize,
    pub writers: usize,
    /// Total lookups completed across all reader threads.
    pub reads: u64,
    /// Lookups that returned a missing key (must stay 0).
    pub phantom_misses: u64,
    /// Lookups that returned a value with mismatched key bits (must stay 0).
    pub torn_values: u64,
    /// In-place updates completed by the writer threads.
    pub writes: u64,
    /// Wall-clock duration of the read phase.
    pub wall_ns: u64,
    pub seqlock_retries: u64,
    pub lock_waits: u64,
    pub migration_steps: u64,
}

impl RunData {
    /// Aggregate lookups per second across all reader threads.
    pub fn reads_per_sec(&self) -> f64 {
        self.reads as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// Per-thread lookup rate — flat across the sweep iff reads scale.
    pub fn reads_per_thread_per_sec(&self) -> f64 {
        self.reads_per_sec() / self.readers.max(1) as f64
    }
}

/// Builds the table, pre-populates `n_keys`, then runs `readers` lookup
/// threads (each doing `reads_per_thread` gets over the key space) while
/// `writers` threads cycle in-place updates until the readers finish.
fn run_one(
    readers: usize,
    writers: usize,
    per_level: u64,
    group_size: u64,
    seed: u64,
    reads_per_thread: usize,
) -> RunData {
    let cfg = GroupHashConfig::new(per_level, group_size).with_seed(seed);
    let t: ShardedGroupHash<SimPmem, u64, u64> =
        ShardedGroupHash::create(SHARDS, cfg, |_, size| {
            SimPmem::new(size, SimConfig::fast_test())
        })
        .unwrap();

    // Fill to ~25% of total capacity so probes stay representative
    // without insert fallback noise.
    let n_keys = (per_level * SHARDS as u64 * 2 / 4).min(1u64 << (64 - ROUND_BITS));
    for k in 0..n_keys {
        t.insert(k, encode(k, 0)).unwrap();
    }

    let stop = AtomicBool::new(false);
    let writes = AtomicU64::new(0);
    let phantom = AtomicU64::new(0);
    let torn = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..writers {
            s.spawn(|| {
                let mut round = 1u64;
                let mut done = 0u64;
                'outer: loop {
                    for k in 0..n_keys {
                        if stop.load(Ordering::Relaxed) {
                            break 'outer;
                        }
                        assert!(t.update_in_place(&k, encode(k, round)));
                        done += 1;
                    }
                    round += 1;
                }
                writes.fetch_add(done, Ordering::Relaxed);
            });
        }
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                let (phantom, torn) = (&phantom, &torn);
                let t = &t;
                s.spawn(move || {
                    // Each reader walks the key space at its own odd
                    // stride, so threads do not probe in lockstep.
                    let stride = 2 * r as u64 + 1;
                    let mut k = r as u64 % n_keys.max(1);
                    for _ in 0..reads_per_thread {
                        match t.get(&k) {
                            None => {
                                phantom.fetch_add(1, Ordering::Relaxed);
                            }
                            Some(v) if v >> ROUND_BITS != k => {
                                torn.fetch_add(1, Ordering::Relaxed);
                            }
                            Some(_) => {}
                        }
                        k = (k + stride) % n_keys.max(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    let wall_ns = start.elapsed().as_nanos() as u64;

    let c = t.concurrency();
    t.check_consistency().unwrap();
    RunData {
        readers,
        writers,
        reads: (readers * reads_per_thread) as u64,
        phantom_misses: phantom.load(Ordering::Relaxed),
        torn_values: torn.load(Ordering::Relaxed),
        writes: writes.load(Ordering::Relaxed),
        wall_ns,
        seqlock_retries: c.seqlock_retries,
        lock_waits: c.lock_waits,
        migration_steps: c.migration_steps,
    }
}

/// One writer-scaling arm: wall-clock insert throughput, per-op latency
/// quantiles, and the concurrency event counters for the arm.
#[derive(Debug, Clone, Copy)]
pub struct WriterRunData {
    pub writers: usize,
    /// Whether this arm started under-provisioned so that online
    /// expansion had to run mid-stream.
    pub expansion: bool,
    /// Total inserts committed across all writer threads.
    pub inserts: u64,
    /// Keys whose post-run value differs from what their writer committed
    /// (must stay 0 — a lost or torn update).
    pub lost_updates: u64,
    /// Wall-clock duration of the insert phase.
    pub wall_ns: u64,
    /// Per-insert latency quantiles (nanoseconds), merged across threads.
    pub p50_ns: f64,
    pub p95_ns: f64,
    pub p99_ns: f64,
    pub migration_steps: u64,
    pub seqlock_retries: u64,
    pub lock_waits: u64,
}

impl WriterRunData {
    /// Aggregate inserts per second across all writer threads.
    pub fn inserts_per_sec(&self) -> f64 {
        self.inserts as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }
}

/// Runs `writers` threads inserting disjoint key ranges (`total` inserts
/// split evenly), each committed under its shard's latch. Values encode
/// `(key, writer)` so the post-run sweep detects any lost or torn update
/// exactly. `per_level` sizes the shards: pass a value too small for
/// `total` and the arm exercises online expansion mid-stream.
fn run_writers_one(
    writers: usize,
    per_level: u64,
    group_size: u64,
    seed: u64,
    total: u64,
    expansion: bool,
) -> WriterRunData {
    let cfg = GroupHashConfig::new(per_level, group_size).with_seed(seed);
    let t: ShardedGroupHash<SimPmem, u64, u64> =
        ShardedGroupHash::create(SHARDS, cfg, |_, size| {
            SimPmem::new(size, SimConfig::fast_test())
        })
        .unwrap();

    let per_thread = total / writers as u64;
    let start = Instant::now();
    // `Histogram` is Cell-based (not Sync), so each thread records into
    // its own and the quantiles are merged after the join.
    let hists: Vec<Histogram> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..writers as u64)
            .map(|w| {
                let t = &t;
                s.spawn(move || {
                    let h = Histogram::latency_ns();
                    let base = w * per_thread;
                    for k in base..base + per_thread {
                        let t0 = Instant::now();
                        t.insert(k, encode(k, w)).unwrap();
                        h.record(t0.elapsed().as_nanos() as u64);
                    }
                    h
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_ns = start.elapsed().as_nanos() as u64;

    // Finish any drain still pending so the verification sweep also covers
    // the fully-migrated end state.
    for shard in 0..t.shard_count() {
        while t.expand_step(shard, 1024) {}
    }

    let mut lost = 0u64;
    for w in 0..writers as u64 {
        let base = w * per_thread;
        for k in base..base + per_thread {
            if t.get(&k) != Some(encode(k, w)) {
                lost += 1;
            }
        }
    }
    t.check_consistency().unwrap();

    let merged = Histogram::latency_ns();
    for h in &hists {
        merged.merge(h);
    }
    let c = t.concurrency();
    WriterRunData {
        writers,
        expansion,
        inserts: per_thread * writers as u64,
        lost_updates: lost,
        wall_ns,
        p50_ns: merged.p50(),
        p95_ns: merged.p95(),
        p99_ns: merged.p99(),
        migration_steps: c.migration_steps,
        seqlock_retries: c.seqlock_retries,
        lock_waits: c.lock_waits,
    }
}

/// All writer-scaling arms: W ∈ [`WRITER_COUNTS`] sized to fit without
/// growth, plus one under-provisioned arm that must expand mid-stream.
pub fn collect_writers(args: &Args) -> Vec<WriterRunData> {
    let cells = args.cells_for(TraceKind::RandomNum);
    let per_level = (cells / (2 * SHARDS as u64)).max(args.group_size);
    let group_size = args.group_size.min(per_level);
    // Same total work per arm (half the two-level capacity → ~50% fill),
    // so arm wall-clocks compare directly.
    let total = per_level * SHARDS as u64;
    let mut out = Vec::new();
    for &writers in &WRITER_COUNTS {
        out.push(run_writers_one(
            writers, per_level, group_size, args.seed, total, false,
        ));
    }
    // Expansion arm: shards provisioned at 1/8 of the keys they will
    // receive, so every shard doubles online (several times) while the
    // writers are still streaming inserts.
    let small = (per_level / 8).max(group_size);
    out.push(run_writers_one(4, small, group_size, args.seed, total, true));
    out
}

/// The writer sweep's JSON metrics document, including the W=4 over W=1
/// throughput ratio. (Recorded, not asserted: it depends on the host's
/// core count and scheduler.)
pub fn writer_metrics_json(data: &[WriterRunData]) -> Json {
    let runs = data
        .iter()
        .map(|r| {
            let mut j = Json::obj();
            j.insert("writers", r.writers as u64);
            j.insert("expansion", r.expansion as u64);
            j.insert("inserts", r.inserts);
            j.insert("lost_updates", r.lost_updates);
            j.insert("wall_ns", r.wall_ns);
            j.insert("inserts_per_sec", r.inserts_per_sec());
            j.insert("p50_ns", r.p50_ns);
            j.insert("p95_ns", r.p95_ns);
            j.insert("p99_ns", r.p99_ns);
            j.insert("migration_steps", r.migration_steps);
            j.insert("seqlock_retries", r.seqlock_retries);
            j.insert("lock_waits", r.lock_waits);
            j
        })
        .collect();
    let mut doc = experiment_json("concurrent_writers", runs);
    let rate = |w: usize| {
        data.iter()
            .find(|r| r.writers == w && !r.expansion)
            .map(WriterRunData::inserts_per_sec)
    };
    if let (Some(w1), Some(w4)) = (rate(1), rate(4)) {
        doc.insert("speedup_w4_over_w1", w4 / w1.max(1e-9));
    }
    doc
}

/// All (readers, writers) arms.
pub fn collect(args: &Args) -> Vec<RunData> {
    let cells = args.cells_for(TraceKind::RandomNum);
    // Split the total budget over both levels of all shards.
    let per_level = (cells / (2 * SHARDS as u64)).max(args.group_size);
    let group_size = args.group_size.min(per_level);
    // `--ops` scales the per-thread read count; the default (1000) gives
    // 64k lookups per reader — enough for a stable wall-clock rate
    // without making the sweep slow.
    let reads_per_thread = args.ops.saturating_mul(64);
    let mut out = Vec::new();
    for &writers in &WRITERS {
        for &readers in &READERS {
            out.push(run_one(
                readers,
                writers,
                per_level,
                group_size,
                args.seed,
                reads_per_thread,
            ));
        }
    }
    out
}

/// The experiment's JSON metrics document: one run per arm.
pub fn metrics_json(data: &[RunData]) -> Json {
    let runs = data
        .iter()
        .map(|r| {
            let mut j = Json::obj();
            j.insert("readers", r.readers as u64);
            j.insert("writers", r.writers as u64);
            j.insert("reads", r.reads);
            j.insert("phantom_misses", r.phantom_misses);
            j.insert("torn_values", r.torn_values);
            j.insert("writes", r.writes);
            j.insert("wall_ns", r.wall_ns);
            j.insert("reads_per_sec", r.reads_per_sec());
            j.insert("reads_per_thread_per_sec", r.reads_per_thread_per_sec());
            j.insert("seqlock_retries", r.seqlock_retries);
            j.insert("lock_waits", r.lock_waits);
            j.insert("migration_steps", r.migration_steps);
            j
        })
        .collect();
    experiment_json("concurrent", runs)
}

/// Builds the report tables (and writes CSV/JSON when `out_dir` is set).
///
/// The writer sweep's table is emitted here under its own name
/// (`concurrent_writers.csv`) rather than returned, because the binaries
/// emit every returned table under the experiment's single name.
pub fn run(args: &Args) -> Vec<Table> {
    let data = collect(args);
    emit_json(args.out_dir.as_deref(), "concurrent", &metrics_json(&data));

    let wdata = collect_writers(args);
    emit_json(
        args.out_dir.as_deref(),
        "concurrent_writers",
        &writer_metrics_json(&wdata),
    );
    let mut wtable = Table::new(
        "Concurrent writes: latched insert scaling and online expansion",
        &[
            "writers",
            "expansion",
            "inserts",
            "inserts/s",
            "p50 ns",
            "p95 ns",
            "p99 ns",
            "lock waits",
            "migration steps",
            "lost updates",
        ],
    );
    for r in &wdata {
        wtable.row(vec![
            r.writers.to_string(),
            if r.expansion { "yes" } else { "no" }.to_string(),
            count(r.inserts as f64),
            count(r.inserts_per_sec()),
            count(r.p50_ns),
            count(r.p95_ns),
            count(r.p99_ns),
            count(r.lock_waits as f64),
            count(r.migration_steps as f64),
            count(r.lost_updates as f64),
        ]);
    }
    wtable.emit(args.out_dir.as_deref(), "concurrent_writers");

    let mut detail = Table::new(
        "Concurrent reads: lock-free get throughput vs reader/writer mix",
        &[
            "readers",
            "writers",
            "reads",
            "reads/s",
            "reads/s/thread",
            "writes",
            "seqlock retries",
            "lock waits",
        ],
    );
    for r in &data {
        detail.row(vec![
            r.readers.to_string(),
            r.writers.to_string(),
            count(r.reads as f64),
            count(r.reads_per_sec()),
            count(r.reads_per_thread_per_sec()),
            count(r.writes as f64),
            count(r.seqlock_retries as f64),
            count(r.lock_waits as f64),
        ]);
    }
    vec![detail]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar: every arm completes with zero phantom misses
    /// and zero torn values, and the writer-free arms never retry (no
    /// writer ever makes a sequence odd).
    #[test]
    fn reads_are_never_phantom_or_torn() {
        let args = Args {
            cells_log2: Some(13),
            ops: 50,
            ..Args::default()
        };
        let data = collect(&args);
        assert_eq!(data.len(), READERS.len() * WRITERS.len());
        for r in &data {
            assert_eq!(r.phantom_misses, 0, "{}r/{}w lost a key", r.readers, r.writers);
            assert_eq!(r.torn_values, 0, "{}r/{}w saw a torn value", r.readers, r.writers);
            assert_eq!(r.reads, (r.readers * 50 * 64) as u64);
            if r.writers == 0 {
                assert_eq!(r.seqlock_retries, 0, "retry without any writer");
            } else {
                assert!(r.writes > 0, "writer made no progress");
            }
        }
    }

    /// The writer sweep's acceptance bar: no arm loses an update, the
    /// single-writer arm never waits on a shard latch, and the
    /// under-provisioned arm really migrated online.
    #[test]
    fn writers_never_lose_updates_and_single_writer_never_contends() {
        let args = Args {
            cells_log2: Some(13),
            ops: 50,
            ..Args::default()
        };
        let data = collect_writers(&args);
        assert_eq!(data.len(), WRITER_COUNTS.len() + 1);
        for r in &data {
            assert_eq!(
                r.lost_updates, 0,
                "{}w{} lost an update",
                r.writers,
                if r.expansion { " (expansion)" } else { "" },
            );
            assert!(r.inserts > 0);
        }
        let w1 = &data[0];
        assert_eq!(w1.writers, 1);
        assert_eq!(w1.lock_waits, 0, "single writer waited on a latch");
        assert_eq!(w1.migration_steps, 0, "sized arm should not migrate");
        let exp = data.last().unwrap();
        assert!(exp.expansion);
        assert!(exp.migration_steps > 0, "expansion arm never migrated");
    }
}
