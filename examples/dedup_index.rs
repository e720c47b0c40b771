//! A deduplication fingerprint index — the paper's Fingerprint-trace
//! scenario made concrete: an MD5-keyed table mapping content digests to
//! storage locations, as a backup/snapshot system keeps on NVM.
//!
//! Runs on the deterministic simulator so it also reports the paper's
//! metrics (flushed lines, L3 misses) for the dedup workload.
//!
//! ```text
//! cargo run --release --example dedup_index
//! ```

use group_hashing::core::{GroupHash, GroupHashConfig, HashScheme};
use group_hashing::pmem::{Pmem, Region, SimConfig, SimPmem};
use group_hashing::traces::{Fingerprint, Trace};

/// Where a chunk lives: (container id, offset) packed in 16 bytes.
type Location = [u8; 16];

fn location(container: u64, offset: u64) -> Location {
    let mut l = [0u8; 16];
    l[..8].copy_from_slice(&container.to_le_bytes());
    l[8..].copy_from_slice(&offset.to_le_bytes());
    l
}

fn main() {
    let cfg = GroupHashConfig::new(1 << 16, 256);
    let size = GroupHash::<SimPmem, [u8; 16], Location>::required_size(&cfg);
    let mut pm = SimPmem::new(size, SimConfig::paper_default());
    let mut index = GroupHash::<_, [u8; 16], Location>::create(&mut pm, Region::new(0, size), cfg)
        .expect("create");

    // Ingest a synthetic snapshot stream: each incoming chunk digest is
    // looked up first (dedup hit?) and only new content is stored.
    let mut trace = Fingerprint::new(42);
    let mut stored = 0u64;
    let mut dup_hits = 0u64;
    let mut container = 0u64;
    let mut offset = 0u64;

    // First snapshot batch: all-new content.
    let batch1 = trace.take_keys(40_000);
    for d in &batch1 {
        assert!(index.get(&pm, d).is_none());
        index
            .insert(&mut pm, *d, location(container, offset))
            .expect("index insert");
        stored += 1;
        offset += 4096;
        if offset == 4096 * 1024 {
            container += 1;
            offset = 0;
        }
    }

    // Re-ingest the same logical files (a second backup of the same data):
    // every digest is a dedup hit, no writes at all.
    pm.reset_stats();
    for d in &batch1 {
        if index.get(&pm, d).is_some() {
            dup_hits += 1;
        }
    }
    assert_eq!(pm.stats().flushes, 0, "dedup hits must not write NVM");
    let miss_per_lookup = pm.cache_stats().unwrap().llc_misses() as f64 / batch1.len() as f64;

    println!("stored {stored} unique chunks, {dup_hits} dedup hits on re-backup");
    println!(
        "lookup cost: {:.2} L3 misses/op, 0 NVM writes (read-only dedup path)",
        miss_per_lookup
    );

    // Garbage collection: a retention policy drops a container; delete its
    // digests from the index.
    let victims: Vec<[u8; 16]> = batch1
        .iter()
        .filter(|d| {
            index
                .get(&pm, d)
                .map(|l| u64::from_le_bytes(l[..8].try_into().unwrap()) == 0)
                .unwrap_or(false)
        })
        .copied()
        .collect();
    for d in &victims {
        assert!(index.remove(&mut pm, d));
    }
    println!(
        "garbage-collected container 0: {} digests removed, {} remain",
        victims.len(),
        index.len(&pm)
    );

    index.check_consistency(&pm).expect("consistent");
    println!("index consistent after GC");
}
