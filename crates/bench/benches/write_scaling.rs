//! Write scaling: concurrent inserts across threads.
//!
//! Each shard of `ShardedGroupHash` has one writer at a time: an insert
//! takes its shard's latch, runs the paper's single-writer commit (one
//! 8-byte bitmap-word write), and moves the shard's seqlock odd → even.
//! Writers to different shards proceed in parallel; writers to the same
//! shard queue on its latch. This bench measures aggregate insert
//! throughput at 1, 2, 4, and 8 threads over a `RealPmem`-backed
//! `ShardedGroupHash`, for a pure insert workload and a 50/50 insert/get
//! mix.
//!
//! Interpreting the numbers: with 8 shards the insert-heavy curve can
//! scale only as far as the host has cores and the shard routing spreads
//! the threads; once threads outnumber cores they time-slice, the curve
//! flattens, and the bench measures latch hand-off and seqlock cost
//! rather than parallel speedup.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use group_hash::{GroupHashConfig, ShardedGroupHash};
use nvm_pmem::RealPmem;

const SHARDS: usize = 8;
const CELLS_PER_LEVEL: u64 = 1 << 12;
const OPS_PER_THREAD: u64 = 2048;

type Table = ShardedGroupHash<RealPmem, u64, u64>;

fn fresh_table() -> Table {
    let cfg = GroupHashConfig::new(CELLS_PER_LEVEL, 16);
    // Zero emulated write latency: the bench isolates the coordination
    // cost (shard latches, seqlock bumps), not the 300 ns NVM stall.
    ShardedGroupHash::create(SHARDS, cfg, |_, size| RealPmem::with_write_latency(size, 0))
        .expect("create shards")
}

/// Disjoint per-thread key ranges: thread `ti` owns
/// `[ti * OPS_PER_THREAD, (ti + 1) * OPS_PER_THREAD)`.
fn thread_key(ti: usize, i: u64) -> u64 {
    ti as u64 * OPS_PER_THREAD + i
}

fn bench_write_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("write_scaling");
    g.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        g.throughput(Throughput::Elements(threads as u64 * OPS_PER_THREAD));
        g.bench_with_input(BenchmarkId::new("insert", threads), &threads, |b, &nt| {
            b.iter_batched(
                fresh_table,
                |t| {
                    std::thread::scope(|s| {
                        for ti in 0..nt {
                            let t = &t;
                            s.spawn(move || {
                                for i in 0..OPS_PER_THREAD {
                                    let k = thread_key(ti, i);
                                    t.insert(k, k ^ 0xFF).unwrap();
                                }
                            });
                        }
                    });
                    t
                },
                BatchSize::LargeInput,
            )
        });
        g.bench_with_input(
            BenchmarkId::new("mixed_50_50", threads),
            &threads,
            |b, &nt| {
                b.iter_batched(
                    fresh_table,
                    |t| {
                        std::thread::scope(|s| {
                            for ti in 0..nt {
                                let t = &t;
                                s.spawn(move || {
                                    let mut inserted = 0u64;
                                    for i in 0..OPS_PER_THREAD {
                                        if i % 2 == 0 {
                                            let k = thread_key(ti, inserted);
                                            t.insert(k, k ^ 0xFF).unwrap();
                                            inserted += 1;
                                        } else {
                                            // Read back a key this thread
                                            // already wrote: always a hit.
                                            let k = thread_key(ti, i % inserted);
                                            assert!(t.get(&k).is_some());
                                        }
                                    }
                                });
                            }
                        });
                        t
                    },
                    BatchSize::LargeInput,
                )
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_write_scaling);
criterion_main!(benches);
