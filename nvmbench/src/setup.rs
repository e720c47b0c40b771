//! The fixed set-up every run shares: store sizing, the emulated-NVM
//! pool, and the preload.

use nvm_kv::prelude::*;
use nvm_pmem::{Pmem, RealPmem};

use crate::workload::{key, write_value, Workload};

/// The paper's emulated NVM write: `clflush` + `mfence`, then a 300 ns
/// spin per flushed cacheline.
const WRITE_LATENCY_NS: u64 = 300;
/// Keys per preload `set_batch`.
pub const PRELOAD_CHUNK: u64 = 1024;
/// `capacity()`'s average-value argument. Inflated well past the real
/// values because the balanced heap split gives each size class only a
/// fraction of the budget: churn's 456–512 B values need this much.
const AVG_VALUE: u64 = 600;

/// Items `capacity()` is asked for: the preload plus a quarter.
fn capacity_items(keys: u64) -> u64 {
    keys * 5 / 4
}

pub fn builder(keys: u64) -> StoreBuilder {
    StoreBuilder::new()
        .capacity(capacity_items(keys), AVG_VALUE)
        .shards(1)
}

/// The engine geometry `builder` gives its single shard, for the rungs
/// that drive the index or the heap directly.
pub fn kv_config(keys: u64) -> KvConfig {
    KvConfig::for_capacity(capacity_items(keys), AVG_VALUE)
}

pub fn pool(bytes: usize) -> RealPmem {
    RealPmem::with_write_latency(bytes, WRITE_LATENCY_NS)
}

/// What the server stores for a `set` with flags 0: the 4-byte
/// little-endian flags, then the value.
pub fn stored_value(id: u64, ver: u32, len: u32) -> Vec<u8> {
    let mut blob = Vec::with_capacity(4 + len as usize);
    blob.extend_from_slice(&0u32.to_le_bytes());
    write_value(&mut blob, id, ver, len);
    blob
}

/// Creates a store over `make_pool` pools and loads keys `0..keys` at
/// version 0. Returns the store and the key + value bytes loaded.
pub fn create_and_preload<P: Pmem>(
    workload: Workload,
    keys: u64,
    seed: u64,
    make_pool: impl FnMut(usize, usize) -> P,
) -> Result<(Store<P>, u64), StoreError> {
    let store = builder(keys).create_with(make_pool)?;
    let mut loaded = 0;
    let mut start = 0;
    while start < keys {
        let ids = start..(start + PRELOAD_CHUNK).min(keys);
        let items: Vec<([u8; 16], Vec<u8>)> = ids
            .map(|id| {
                let len = workload.preload_len(seed, id);
                loaded += 16 + u64::from(len);
                (key(id), stored_value(id, 0, len))
            })
            .collect();
        let pairs: Vec<(&[u8], &[u8])> = items
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        store.set_batch(&pairs)?;
        start += PRELOAD_CHUNK;
    }
    Ok((store, loaded))
}
