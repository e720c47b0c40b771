//! Value-heap allocate/free/overwrite wall-clock cost.
//!
//! Each heap allocation is one slot write plus a single failure-atomic
//! bitmap-word publish (2 flushes / 2 fences / 1 atomic pinned budget);
//! a free is one bitmap publish (1/1/1). This bench measures what those
//! budgets cost in wall-clock on an NVM-latency pmem across value-size
//! distributions, and whether wear-aware slab rotation adds measurable
//! overhead versus first-fit placement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gh_bench::BENCH_NVM_NS;
use nvm_alloc::{
    ClassSpec, ClassTable, HeapConfig, PmemHeap, PmemPtr, RotationPolicy, DEFAULT_BASE,
    DEFAULT_GROWTH, LEN_PREFIX,
};
use nvm_pmem::{RealPmem, Region};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const OPS: usize = 2048;

/// Sizes each class to hold the whole blob list at once (the fresh
/// burst keeps everything live) with 1.5x slack, so no distribution
/// exhausts a class mid-measurement.
fn config_for(blobs: &[Vec<u8>]) -> HeapConfig {
    let table = ClassTable::geometric(DEFAULT_BASE, DEFAULT_GROWTH, 4096 - LEN_PREFIX as u64)
        .expect("default geometric table is valid");
    let mut need = vec![0u64; table.len()];
    for b in blobs {
        need[table.class_for(b.len()).unwrap()] += 1;
    }
    let slabs_per_class = 4u64;
    let classes = table
        .iter()
        .enumerate()
        .map(|(i, c)| ClassSpec {
            slot_size: c.slot_size,
            slots_per_slab: (need[i] * 3 / 2).div_ceil(slabs_per_class).max(4),
        })
        .collect();
    HeapConfig {
        classes,
        slabs_per_class,
    }
}

fn build_heap(config: &HeapConfig, policy: RotationPolicy) -> (RealPmem, PmemHeap) {
    let size = PmemHeap::required_size(config);
    let mut pm = RealPmem::with_write_latency(size, BENCH_NVM_NS);
    let mut heap = PmemHeap::create(&mut pm, Region::new(0, size), config).unwrap();
    heap.set_rotation(policy);
    (pm, heap)
}

/// A named value-size sampler for one benchmark arm.
type SizeDist = (&'static str, Box<dyn FnMut(&mut SmallRng) -> usize>);

/// (name, sampler) pairs for the value-size distributions swept.
fn dists() -> Vec<SizeDist> {
    vec![
        (
            "uniform-16-64",
            Box::new(|r: &mut SmallRng| r.gen_range(16..=64)),
        ),
        (
            "hot-24-cold-512",
            Box::new(|r: &mut SmallRng| if r.gen_range(0..10usize) < 9 { 24 } else { 512 }),
        ),
        (
            "mixed-16-1024",
            Box::new(|r: &mut SmallRng| r.gen_range(16..=1024)),
        ),
    ]
}

fn bench_alloc_free(c: &mut Criterion) {
    let mut g = c.benchmark_group("heap_alloc");
    g.sample_size(10);
    g.throughput(Throughput::Elements(OPS as u64));

    for (name, mut sample) in dists() {
        // Pre-draw the blob sizes so the RNG stays out of the timing.
        let mut rng = SmallRng::seed_from_u64(0x4845_4150);
        let sizes: Vec<usize> = (0..OPS).map(|_| sample(&mut rng)).collect();
        let blobs: Vec<Vec<u8>> = sizes.iter().map(|&n| vec![0xAB; n]).collect();
        let config = config_for(&blobs);

        // Fresh-allocation burst: OPS allocs into an empty heap.
        g.bench_with_input(BenchmarkId::new("alloc", name), &blobs, |b, blobs| {
            b.iter(|| {
                let (mut pm, mut heap) = build_heap(&config, RotationPolicy::WearAware);
                for blob in blobs {
                    heap.alloc(&mut pm, blob).unwrap();
                }
                heap
            })
        });

        // Alloc+free round trip: the slot churn steady state.
        g.bench_with_input(BenchmarkId::new("alloc+free", name), &blobs, |b, blobs| {
            b.iter(|| {
                let (mut pm, mut heap) = build_heap(&config, RotationPolicy::WearAware);
                for blob in blobs {
                    let ptr = heap.alloc(&mut pm, blob).unwrap();
                    heap.free(&mut pm, ptr).unwrap();
                }
                heap
            })
        });

        // Overwrite mix against a resident working set, once per
        // rotation policy: alloc-new + free-old, the KV update path.
        for (label, policy) in [
            ("overwrite/wear-aware", RotationPolicy::WearAware),
            ("overwrite/first-fit", RotationPolicy::FirstFit),
        ] {
            g.bench_with_input(BenchmarkId::new(label, name), &blobs, |b, blobs| {
                b.iter(|| {
                    let (mut pm, mut heap) = build_heap(&config, policy);
                    let resident = 256.min(blobs.len());
                    let mut ptrs: Vec<PmemPtr> = blobs[..resident]
                        .iter()
                        .map(|blob| heap.alloc(&mut pm, blob).unwrap())
                        .collect();
                    for (i, blob) in blobs.iter().enumerate() {
                        let new = heap.alloc(&mut pm, blob).unwrap();
                        let old = std::mem::replace(&mut ptrs[i % resident], new);
                        heap.free(&mut pm, old).unwrap();
                    }
                    heap
                })
            });
        }
    }

    g.finish();
}

criterion_group!(benches, bench_alloc_free);
criterion_main!(benches);
