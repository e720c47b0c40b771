//! Concurrency stress for the sharded table and the thread-safety
//! boundary of the whole stack.

use group_hashing::core::{GroupHash, GroupHashConfig, HashScheme, ShardedGroupHash};
use group_hashing::pmem::{Pmem, RealPmem, SimConfig, SimPmem};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// Iteration scale factor for the writer stress tests. CI runs the
/// release binary with `NVM_STRESS_ITERS` elevated (see `ci.sh`); the
/// default keeps debug-mode `cargo test` fast.
fn stress_iters(default: u64) -> u64 {
    std::env::var("NVM_STRESS_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Heavy mixed workload from many threads against the sharded table on
/// the real-intrinsics backend; afterwards every shard must be
/// structurally consistent and hold exactly the surviving keys.
#[test]
fn sharded_mixed_stress_real_backend() {
    let cfg = GroupHashConfig::new(1 << 12, 128);
    let table = Arc::new(
        ShardedGroupHash::<RealPmem, u64, u64>::create(8, cfg, |_, size| {
            RealPmem::with_write_latency(size, 0)
        })
        .unwrap(),
    );

    let threads = 8u64;
    let per_thread = 4000u64;
    let barrier = Arc::new(Barrier::new(threads as usize));
    let survivors = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..threads)
        .map(|tid| {
            let table = Arc::clone(&table);
            let barrier = Arc::clone(&barrier);
            let survivors = Arc::clone(&survivors);
            std::thread::spawn(move || {
                barrier.wait();
                let mut kept = 0u64;
                for i in 0..per_thread {
                    // Disjoint key ranges per thread: deterministic final
                    // state without cross-thread coordination.
                    let k = tid * 1_000_000 + i;
                    table.insert(k, k ^ 0xABCD).unwrap();
                    if i % 3 == 0 {
                        assert_eq!(table.get(&k), Some(k ^ 0xABCD));
                    }
                    if i % 5 == 0 {
                        assert!(table.remove(&k));
                    } else {
                        kept += 1;
                    }
                }
                survivors.fetch_add(kept, Ordering::Relaxed);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(table.len(), survivors.load(Ordering::Relaxed));
    table.check_consistency().unwrap();
    // Spot-check final contents.
    for tid in 0..threads {
        for i in [1u64, 2, 3, 4, 6, 7] {
            let k = tid * 1_000_000 + i;
            assert_eq!(table.get(&k), Some(k ^ 0xABCD), "key {k}");
        }
        assert_eq!(table.get(&(tid * 1_000_000)), None); // i % 5 == 0 removed
    }
}

/// The simulator backend is also Send: a whole (pool, table) pair can
/// move to another thread and continue (ownership transfer, the pattern
/// a thread-per-shard service uses).
#[test]
fn sim_pool_moves_across_threads() {
    let cfg = GroupHashConfig::new(256, 32);
    let size = GroupHash::<SimPmem, u64, u64>::required_size(&cfg);
    let mut pm = SimPmem::new(size, SimConfig::fast_test());
    let region = group_hashing::pmem::Region::new(0, size);
    let mut t = GroupHash::<SimPmem, u64, u64>::create(&mut pm, region, cfg).unwrap();
    for k in 0..100u64 {
        t.insert(&mut pm, k, k).unwrap();
    }

    let handle = std::thread::spawn(move || {
        for k in 100..200u64 {
            t.insert(&mut pm, k, k).unwrap();
        }
        (pm, t)
    });
    let (pm, t) = handle.join().unwrap();
    assert_eq!(t.len(&pm), 200);
    t.check_consistency(&pm).unwrap();
}

/// The seqlock guarantee, stressed: writers churn an *overlapping* key
/// range with multi-word in-place updates (the one mutation whose
/// visibility is not already guarded by the 8-byte bitmap commit) and
/// insert/remove over disjoint private ranges, while readers spin on
/// lock-free `get`. Readers must never observe a torn value (key bits
/// mismatching the key), a phantom miss of an always-present key, or a
/// ghost value in a private range that decodes to the wrong owner.
#[test]
fn seqlock_readers_see_no_torn_or_phantom_state() {
    const SHARED: u64 = 512; // keys 0..SHARED stay present forever
    const ROUNDS: u64 = 150;
    let encode = |k: u64, round: u64| (k << 20) | (round & ((1 << 20) - 1));

    let cfg = GroupHashConfig::new(1 << 11, 64);
    let table = Arc::new(
        ShardedGroupHash::<RealPmem, u64, u64>::create(4, cfg, |_, size| {
            RealPmem::with_write_latency(size, 0)
        })
        .unwrap(),
    );
    for k in 0..SHARED {
        table.insert(k, encode(k, 0)).unwrap();
    }

    let stop = Arc::new(AtomicU64::new(0));
    let writers: Vec<_> = (0..2u64)
        .map(|tid| {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                let private = (tid + 1) * 1_000_000;
                for round in 1..=ROUNDS {
                    // Overlapping range: both writers update every shared
                    // key in place (two 8-byte words: racing readers
                    // would see torn values without the seqlock).
                    for k in 0..SHARED {
                        assert!(table.update_in_place(&k, encode(k, round)));
                    }
                    // Disjoint range: insert-then-remove churn, so
                    // readers race bitmap publishes and retractions.
                    for i in 0..64u64 {
                        let k = private + i;
                        table.insert(k, encode(k, round)).unwrap();
                    }
                    for i in 0..64u64 {
                        assert!(table.remove(&(private + i)));
                    }
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..2u64)
        .map(|rid| {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut reads = 0u64;
                while stop.load(Ordering::Relaxed) == 0 {
                    let k = reads * (2 * rid + 1) % SHARED;
                    let v = table.get(&k).expect("phantom miss of a shared key");
                    assert_eq!(v >> 20, k, "torn value for key {k}: {v:#x}");
                    // Private ranges may or may not hold the key right
                    // now, but a hit must decode to that key.
                    let p = 1_000_000 + (reads % 64);
                    if let Some(v) = table.get(&p) {
                        assert_eq!(v >> 20, p, "ghost value for key {p}: {v:#x}");
                    }
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    stop.store(1, Ordering::Relaxed);
    let total_reads: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total_reads > 0);

    table.check_consistency().unwrap();
    for k in 0..SHARED {
        let v = table.get(&k).expect("shared key lost after the stress");
        assert_eq!(v >> 20, k);
    }
    // The counters are reporting-only; just prove they are wired up.
    let c = table.concurrency();
    assert!(c.seqlock_retries < u64::MAX && c.lock_waits < u64::MAX);
}

/// The seqlock guarantee for the vectorized read path: same churn as
/// `seqlock_readers_see_no_torn_or_phantom_state`, but readers issue
/// whole `get_batch` calls mixing always-present shared keys, volatile
/// private keys, and never-present keys. One sequence validation covers
/// each per-shard sub-batch, so every answer must still decode to its
/// own key (no torn values), every shared key must hit (no phantom
/// misses), and never-present keys must miss (no ghosts).
#[test]
fn seqlock_get_batch_readers_see_no_torn_or_phantom_state() {
    const SHARED: u64 = 512; // keys 0..SHARED stay present forever
    const ROUNDS: u64 = 120;
    let encode = |k: u64, round: u64| (k << 20) | (round & ((1 << 20) - 1));

    let cfg = GroupHashConfig::new(1 << 11, 64);
    let table = Arc::new(
        ShardedGroupHash::<RealPmem, u64, u64>::create(4, cfg, |_, size| {
            RealPmem::with_write_latency(size, 0)
        })
        .unwrap(),
    );
    for k in 0..SHARED {
        table.insert(k, encode(k, 0)).unwrap();
    }

    let stop = Arc::new(AtomicU64::new(0));
    let writers: Vec<_> = (0..2u64)
        .map(|tid| {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                let private = (tid + 1) * 1_000_000;
                for round in 1..=ROUNDS {
                    for k in 0..SHARED {
                        assert!(table.update_in_place(&k, encode(k, round)));
                    }
                    for i in 0..64u64 {
                        let k = private + i;
                        table.insert(k, encode(k, round)).unwrap();
                    }
                    for i in 0..64u64 {
                        assert!(table.remove(&(private + i)));
                    }
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..2u64)
        .map(|rid| {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut batches = 0u64;
                while stop.load(Ordering::Relaxed) == 0 {
                    // 64 shared + 16 churned-private + 4 never-present.
                    let keys: Vec<u64> = (0..64u64)
                        .map(|i| (batches * (2 * rid + 1) + i * 7) % SHARED)
                        .chain((0..16u64).map(|i| 1_000_000 + (batches + i) % 64))
                        .chain((0..4u64).map(|i| 5_000_000 + i))
                        .collect();
                    for (k, got) in keys.iter().zip(table.get_batch(&keys)) {
                        if *k < SHARED {
                            let v = got.expect("phantom miss of a shared key");
                            assert_eq!(v >> 20, *k, "torn value for key {k}: {v:#x}");
                        } else if *k >= 5_000_000 {
                            assert_eq!(got, None, "ghost hit for never-present key {k}");
                        } else if let Some(v) = got {
                            assert_eq!(v >> 20, *k, "ghost value for key {k}: {v:#x}");
                        }
                    }
                    batches += 1;
                }
                batches
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    stop.store(1, Ordering::Relaxed);
    let total_batches: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total_batches > 0);

    table.check_consistency().unwrap();
    for k in 0..SHARED {
        let v = table.get(&k).expect("shared key lost after the stress");
        assert_eq!(v >> 20, k);
    }
}

/// The `&self` read refactor must leave single-op persistence budgets
/// byte-identical to the paper's: 3 flushes / 3 fences / 2 atomic
/// writes per insert and per remove, and a `get` that costs no
/// persistence events at all.
#[test]
fn single_op_budgets_unchanged_by_shared_read_refactor() {
    let cfg = GroupHashConfig::new(256, 32);
    let size = GroupHash::<SimPmem, u64, u64>::required_size(&cfg);
    let mut pm = SimPmem::new(size, SimConfig::fast_test());
    let region = group_hashing::pmem::Region::new(0, size);
    let mut t = GroupHash::<SimPmem, u64, u64>::create(&mut pm, region, cfg).unwrap();

    pm.reset_stats();
    t.insert(&mut pm, 7, 700).unwrap();
    let s = pm.stats();
    assert_eq!(
        (s.flushes, s.fences, s.atomic_writes),
        (3, 3, 2),
        "insert budget"
    );

    pm.reset_stats();
    assert_eq!(t.get(&pm, &7), Some(700));
    let s = pm.stats();
    assert_eq!(
        (s.flushes, s.fences, s.atomic_writes),
        (0, 0, 0),
        "get budget"
    );
    assert_eq!(s.writes, 0, "get must not write");

    pm.reset_stats();
    assert!(t.remove(&mut pm, &7));
    let s = pm.stats();
    assert_eq!(
        (s.flushes, s.fences, s.atomic_writes),
        (3, 3, 2),
        "remove budget"
    );
}

/// The vectorized read path inherits the paper's query budget: whatever
/// prefetching and interleaving `get_batch` does, it must cost **zero**
/// flushes, zero fences, zero atomic writes, and zero plain writes —
/// prefetch is a pure hint, not a persistence event.
#[test]
fn get_batch_costs_zero_persistence_events() {
    let cfg = GroupHashConfig::new(256, 32);
    let size = GroupHash::<SimPmem, u64, u64>::required_size(&cfg);
    let mut pm = SimPmem::new(size, SimConfig::fast_test());
    let region = group_hashing::pmem::Region::new(0, size);
    let mut t = GroupHash::<SimPmem, u64, u64>::create(&mut pm, region, cfg).unwrap();
    for k in 0..200u64 {
        t.insert(&mut pm, k, k * 11).unwrap();
    }

    // Positive, negative, and mixed batches all stay event-free.
    let hits: Vec<u64> = (0..128u64).collect();
    let misses: Vec<u64> = (10_000..10_128u64).collect();
    let mixed: Vec<u64> = hits.iter().chain(misses.iter()).copied().collect();
    for keys in [&hits, &misses, &mixed] {
        pm.reset_stats();
        let out = t.get_batch(&pm, keys);
        assert_eq!(out.len(), keys.len());
        let s = pm.stats();
        assert_eq!(
            (s.flushes, s.fences, s.atomic_writes, s.writes),
            (0, 0, 0, 0),
            "get_batch budget"
        );
    }
}

/// The write path under maximum contention: one shard, so every writer
/// queues on the same shard latch and commits into the same
/// occupancy-bitmap words. All inserts and removes must land exactly
/// once (disjoint key ranges make the final state deterministic).
#[test]
fn single_shard_cas_contention_loses_no_writes() {
    let per_thread = stress_iters(2000);
    let cfg = GroupHashConfig::new(1 << 12, 128);
    let table = Arc::new(
        ShardedGroupHash::<RealPmem, u64, u64>::create(1, cfg, |_, size| {
            RealPmem::with_write_latency(size, 0)
        })
        .unwrap(),
    );

    let threads = 4u64;
    let barrier = Arc::new(Barrier::new(threads as usize));
    let handles: Vec<_> = (0..threads)
        .map(|tid| {
            let table = Arc::clone(&table);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..per_thread {
                    let k = tid * 10_000_000 + i;
                    table.insert(k, k ^ 0xF00D).unwrap();
                    if i % 2 == 0 {
                        assert!(table.remove(&k));
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(table.len(), threads * per_thread.div_ceil(2));
    table.check_consistency().unwrap();
    for tid in 0..threads {
        for i in [1u64, 3, 5] {
            let k = tid * 10_000_000 + i;
            assert_eq!(table.get(&k), Some(k ^ 0xF00D), "key {k}");
        }
        assert_eq!(table.get(&(tid * 10_000_000)), None);
    }
}

/// A single writer must never wait on a shard latch: with no other
/// thread, every latch acquisition takes the uncontended fast path. This
/// pins the claim structurally — a refactor that introduces
/// self-contention (e.g. a helper thread that takes the same latch)
/// fails here.
#[test]
fn single_writer_never_contends() {
    let cfg = GroupHashConfig::new(1 << 10, 64);
    let table = ShardedGroupHash::<RealPmem, u64, u64>::create(4, cfg, |_, size| {
        RealPmem::with_write_latency(size, 0)
    })
    .unwrap();
    for k in 0..2000u64 {
        table.insert(k, k).unwrap();
        if k % 3 == 0 {
            assert!(table.remove(&k));
        }
        if k % 7 == 0 {
            table.update_in_place(&(k / 2), k);
        }
    }
    assert_eq!(
        table.concurrency().lock_waits,
        0,
        "single writer waited on a latch"
    );
    table.check_consistency().unwrap();
}

/// Incremental online expansion under live write traffic: a small table
/// overflows mid-stream (triggering growth), a dedicated drainer thread
/// migrates a few entries at a time while the writers keep inserting,
/// and at the end every key must be present exactly once with its exact
/// value — migration never drops, duplicates, or misroutes an entry
/// racing a concurrent insert.
#[test]
fn expansion_mid_stream_keeps_every_write() {
    let per_thread = stress_iters(3000);
    // Deliberately undersized: the writers overflow every shard several
    // times, so inserts race both grow_shard and the drainer.
    let cfg = GroupHashConfig::new(256, 32);
    let table = Arc::new(
        ShardedGroupHash::<RealPmem, u64, u64>::create(2, cfg, |_, size| {
            RealPmem::with_write_latency(size, 0)
        })
        .unwrap(),
    );

    let threads = 2u64;
    let stop = Arc::new(AtomicU64::new(0));
    let drainer = {
        let table = Arc::clone(&table);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut steps = 0u64;
            while stop.load(Ordering::Relaxed) == 0 {
                for shard in 0..table.shard_count() {
                    if table.expand_step(shard, 8) {
                        steps += 1;
                    }
                }
                std::thread::yield_now();
            }
            steps
        })
    };
    let writers: Vec<_> = (0..threads)
        .map(|tid| {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    let k = tid * 10_000_000 + i;
                    table.insert(k, k ^ 0xBEEF).unwrap();
                    if i % 16 == 0 {
                        // Reads mid-expansion route active-then-draining.
                        assert_eq!(table.get(&k), Some(k ^ 0xBEEF));
                    }
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    stop.store(1, Ordering::Relaxed);
    drainer.join().unwrap();

    // Finish any drain still pending, then audit everything.
    for shard in 0..table.shard_count() {
        while table.expand_step(shard, 1024) {}
        assert!(!table.migration_pending(shard));
    }
    assert_eq!(table.len(), threads * per_thread);
    assert!(
        table.concurrency().migration_steps > 0,
        "the stress never exercised migration"
    );
    table.check_consistency().unwrap();
    for tid in 0..threads {
        for i in 0..per_thread {
            let k = tid * 10_000_000 + i;
            assert_eq!(table.get(&k), Some(k ^ 0xBEEF), "key {k}");
        }
    }
}

/// Concurrent read-heavy workload: many reader threads over disjoint
/// shards never block each other into inconsistency.
#[test]
fn concurrent_readers_after_bulk_population() {
    let cfg = GroupHashConfig::new(1 << 10, 64);
    let table = Arc::new(
        ShardedGroupHash::<RealPmem, u64, u64>::create(4, cfg, |_, size| {
            RealPmem::with_write_latency(size, 0)
        })
        .unwrap(),
    );
    for k in 0..3000u64 {
        table.insert(k, k * 2).unwrap();
    }

    let handles: Vec<_> = (0..6)
        .map(|r| {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                for pass in 0..5u64 {
                    for k in (r..3000u64).step_by(6) {
                        assert_eq!(table.get(&k), Some(k * 2), "reader {r} pass {pass}");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(table.len(), 3000);
}
