//! A small persistent key-value store in the style the paper motivates
//! (memcached/MemC3-like: dominated by small items), built on the
//! unified [`Store`] facade and driven from multiple threads.
//!
//! The facade handles everything the old hand-rolled version did by
//! hand: string keys fingerprint into the group-hash index, values land
//! in the crash-consistent slab heap (no fixed-width limit), upserts are
//! a single atomic pointer swap, and concurrent writers' commits
//! coalesce into shared fence-amortized batches.
//!
//! ```text
//! cargo run --release --example kv_store
//! ```

use group_hashing::kv::prelude::*;
use group_hashing::pmem::RealPmem;
use std::time::Instant;

fn main() {
    let store = StoreBuilder::new()
        .capacity(200_000, 32)
        .shards(8)
        // Raw DRAM latency here; `RealPmem::new(size)` gives the
        // paper's 300 ns emulated NVM write latency instead.
        .create_with(|_, size| RealPmem::with_write_latency(size, 0))
        .expect("create shards");

    // Basic usage.
    store.set(b"user:1001:name", b"ada lovelace").unwrap();
    store.set(b"user:1001:role", b"engine programmer").unwrap();
    assert_eq!(
        store.get(b"user:1001:name").as_deref(),
        Some(&b"ada lovelace"[..])
    );
    store.set(b"user:1001:name", b"ada king").unwrap(); // upsert
    assert_eq!(
        store.get(b"user:1001:name").as_deref(),
        Some(&b"ada king"[..])
    );
    assert!(store.delete(b"user:1001:role").unwrap());
    assert_eq!(store.get(b"user:1001:role"), None);
    println!("basic set/get/upsert/delete: ok");

    // Multi-threaded mixed workload: every clone shares the shards, and
    // sets issued while another thread holds a shard's commit lease ride
    // that thread's group commit.
    let threads = 4;
    let per_thread = 20_000u64;
    let t0 = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|tid| {
            let store = store.clone();
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    let key = format!("t{tid}:item:{i}");
                    store.set(key.as_bytes(), b"payload-0123456789").unwrap();
                    if i % 4 == 0 {
                        assert!(store.get(key.as_bytes()).is_some());
                    }
                    if i % 16 == 0 {
                        store.delete(key.as_bytes()).unwrap();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = t0.elapsed();
    let total_ops = threads as u64 * per_thread * 2; // rough: set + some reads/deletes
    let c = store.counters();
    println!(
        "{} threads x {} items: {:.2}s ({:.0} ops/s), {} resident entries",
        threads,
        per_thread,
        elapsed.as_secs_f64(),
        total_ops as f64 / elapsed.as_secs_f64(),
        store.len()
    );
    println!(
        "group commit: {} sets in {} batches ({:.1} ops/commit)",
        c.sets,
        c.batches,
        c.sets as f64 / c.batches.max(1) as f64
    );

    store.check_consistency().expect("consistent");
    println!("post-workload consistency check passed");
}
