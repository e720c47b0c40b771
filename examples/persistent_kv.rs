//! A durable key-value store with variable-size values: the unified
//! [`Store`] facade (group-hash index + slab heap) plus disk-image
//! persistence, surviving a simulated power failure *and* process
//! restarts.
//!
//! ```text
//! cargo run --release --example persistent_kv
//! ```

use group_hashing::kv::prelude::*;
use group_hashing::pmem::{CrashResolution, SimConfig, SimPmem};

fn main() {
    let builder = StoreBuilder::new().capacity(10_000, 128);
    let path = std::env::temp_dir().join("group-hashing-kv.pool");

    // ---- Session 1: build a small document store. ----
    {
        let store = builder
            .create_with(|_, size| SimPmem::new(size, SimConfig::paper_default()))
            .expect("create");

        store
            .set(
                b"doc:readme",
                b"Group hashing: a write-efficient, consistent hash table for NVM.",
            )
            .unwrap();
        store.set(b"doc:license", b"MIT OR Apache-2.0").unwrap();
        for i in 0..5000u32 {
            let key = format!("event:{i:05}");
            let value = format!(
                "{{\"seq\":{i},\"payload\":\"{}\"}}",
                "x".repeat((i % 80) as usize)
            );
            store.set(key.as_bytes(), value.as_bytes()).unwrap();
        }
        // Values are variable-size: updates move them between size classes.
        store.set(b"doc:readme", b"Now a much longer README body: the store keeps variable-size values in a crash-consistent slab heap addressed by persistent pointers from the hash index.").unwrap();

        let (entries, slots) = store.usage();
        println!("session 1: {entries} entries in {slots} heap slots");

        // Power failure in the middle of nowhere particular: tear the
        // facade down to its bare pool, lose every unfenced word, and
        // come back up through the recovery path.
        let mut pools = store.into_pools().ok().expect("sole handle");
        pools[0].crash(CrashResolution::Random(42));
        let store = builder.recover(pools).expect("reopen");
        store.check_consistency().expect("consistent after crash");
        println!("survived a power failure (recovery ran clean)");

        let pools = store.into_pools().ok().expect("sole handle");
        pools[0].save_image(&path).expect("save pool image");
    }

    // ---- Session 2: a new process loads the pool and reads on. ----
    {
        let pm = SimPmem::load_image(&path, SimConfig::paper_default()).expect("load");
        let store = builder.recover(vec![pm]).expect("open");

        let readme = store.get(b"doc:readme").expect("readme survived");
        assert!(readme.starts_with(b"Now a much longer README"));
        assert_eq!(
            store.get(b"event:04999").as_deref().map(|v| v.len()),
            Some(format!("{{\"seq\":4999,\"payload\":\"{}\"}}", "x".repeat(4999 % 80)).len())
        );
        println!(
            "session 2: reloaded {} entries; updated README intact ({} bytes)",
            store.len(),
            readme.len()
        );

        // Retention: delete old events in fence-coalesced batches, then
        // verify nothing leaked.
        let doomed: Vec<Vec<u8>> = (0..2500u32)
            .map(|i| format!("event:{i:05}").into_bytes())
            .collect();
        let doomed_refs: Vec<&[u8]> = doomed.iter().map(|k| k.as_slice()).collect();
        let deleted = store.delete_batch(&doomed_refs).expect("delete batch");
        let (entries, slots) = store.usage();
        println!("deleted {deleted} old events: {entries} entries, {slots} slots (no leaks)");
        assert_eq!(entries, slots);
        store.check_consistency().expect("consistent");
    }

    let _ = std::fs::remove_file(&path);
    println!("done");
}
