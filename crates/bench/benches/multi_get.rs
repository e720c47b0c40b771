//! Vectorized multi-get vs a sequential `get` loop (tentpole read path).
//!
//! `get_batch` hashes the whole key vector up front, issues a hardware
//! prefetch (`_mm_prefetch` on x86) for every candidate line, and only
//! then resolves the probes, so the per-key memory latencies overlap
//! instead of serializing. The win grows with batch size (a batch of 1
//! degenerates to `get` plus prefetch-issue cost) and with memory
//! latency: on a DRAM-resident fixture that fits in the LLC — like this
//! one on most hosts — sequential gets are already cache-fed and the
//! pipeline's fixed costs can make it a wash or a small loss. That is
//! the expected reading here; the batch-size *trend* (128 beating 1) is
//! the property this bench guards. The simulated-NVM counterpart
//! (`cargo run -p gh-harness --bin multi_get`) runs the same sweep with
//! modeled NVM latencies and a cold cache per arm, where the overlap
//! shows up as the multi-x per-key speedup reported in
//! `results/multi_get.csv`.
//!
//! Positive and negative phases are measured separately because they
//! stress different lines: hits usually stop at the level-1 cell,
//! misses scan whole level-2 groups.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use group_hash::{GroupHash, GroupHashConfig};
use nvm_pmem::{RealPmem, Region};

const CELLS_PER_LEVEL: u64 = 1 << 15;
const GROUP_SIZE: u64 = 64;
const OPS: usize = 4096;
const BATCH_SIZES: [usize; 4] = [1, 8, 32, 128];

struct Fixture {
    pm: RealPmem,
    t: GroupHash<RealPmem, u64, u64>,
    positive: Vec<u64>,
    negative: Vec<u64>,
}

/// Builds a half-full table plus hit/miss key vectors. Keys are spread
/// with a multiplicative stride so consecutive queries land in
/// unrelated groups — the cache-hostile pattern the prefetch pipeline
/// is for.
fn fixture() -> Fixture {
    let cfg = GroupHashConfig::new(CELLS_PER_LEVEL, GROUP_SIZE);
    let size = GroupHash::<RealPmem, u64, u64>::required_size(&cfg);
    let mut pm = RealPmem::new(size);
    let mut t = GroupHash::<_, u64, u64>::create(&mut pm, Region::new(0, size), cfg).unwrap();
    let mut present = Vec::new();
    let mut k = 0u64;
    while present.len() < (CELLS_PER_LEVEL / 2) as usize {
        k = k.wrapping_add(0x9E37_79B9_7F4A_7C15);
        if t.insert(&mut pm, k, !k).is_ok() {
            present.push(k);
        }
    }
    let positive: Vec<u64> = (0..OPS)
        .map(|i| present[(i * 131) % present.len()])
        .collect();
    // Odd keys from a different stride stream; the fill stream above
    // never produces them (different generator), so they all miss.
    let negative: Vec<u64> = (0..OPS as u64)
        .map(|i| (i.wrapping_mul(0xD134_2543_DE82_EF95)) | 1)
        .filter(|k| t.get(&pm, k).is_none())
        .collect();
    Fixture {
        pm,
        t,
        positive,
        negative,
    }
}

fn bench_multi_get(c: &mut Criterion) {
    let fx = fixture();
    for (phase, keys) in [("positive", &fx.positive), ("negative", &fx.negative)] {
        let mut g = c.benchmark_group(format!("multi_get/{phase}"));
        g.throughput(Throughput::Elements(keys.len() as u64));
        g.bench_function("sequential_get", |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for k in keys {
                    hits += fx.t.get(&fx.pm, k).is_some() as usize;
                }
                hits
            })
        });
        for batch in BATCH_SIZES {
            g.bench_with_input(BenchmarkId::new("get_batch", batch), &batch, |b, &batch| {
                b.iter(|| {
                    let mut hits = 0usize;
                    for chunk in keys.chunks(batch) {
                        for v in fx.t.get_batch(&fx.pm, chunk) {
                            hits += v.is_some() as usize;
                        }
                    }
                    hits
                })
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench_multi_get);
criterion_main!(benches);
