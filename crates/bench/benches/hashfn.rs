//! Micro-benchmarks of the hashing/digest substrate.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nvm_hashfn::{md5, murmur3_x64_128, splitmix64, xxhash64, HashKey};

fn bench_hashes(c: &mut Criterion) {
    let data_1k: Vec<u8> = (0..1024u32).map(|i| i as u8).collect();

    let mut g = c.benchmark_group("hashfn/1KiB");
    g.throughput(Throughput::Bytes(1024));
    g.bench_function("xxhash64", |b| b.iter(|| xxhash64(&data_1k, 7)));
    g.bench_function("murmur3_x64_128", |b| {
        b.iter(|| murmur3_x64_128(&data_1k, 7))
    });
    g.bench_function("md5", |b| b.iter(|| md5(&data_1k)));
    g.finish();

    let mut g = c.benchmark_group("hashfn/key");
    let mut k = 0u64;
    g.bench_function("u64_hash64", |b| {
        b.iter(|| {
            k = k.wrapping_add(1);
            k.hash64(3)
        })
    });
    let digest = [7u8; 16];
    g.bench_function("md5key_hash64", |b| b.iter(|| digest.hash64(3)));
    let mut s = 0u64;
    g.bench_function("splitmix64", |b| {
        b.iter(|| {
            s = s.wrapping_add(1);
            splitmix64(s)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_hashes);
criterion_main!(benches);
