//! Quickstart: create a group hash table on simulated NVM, do the basic
//! operations, and inspect what they cost.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use group_hashing::core::{GroupHash, GroupHashConfig, HashScheme, TableAnalysis};
use group_hashing::pmem::{Pmem, Region, SimConfig, SimPmem};

fn main() {
    // 2^16 cells per level (128 Ki cells total), the paper's default
    // group size of 256.
    let cfg = GroupHashConfig::new(1 << 16, 256);
    let size = GroupHash::<SimPmem, u64, u64>::required_size(&cfg);
    let mut pm = SimPmem::new(size, SimConfig::paper_default());
    let region = Region::new(0, size);
    let mut table = GroupHash::<_, u64, u64>::create(&mut pm, region, cfg).expect("create");

    println!(
        "pool: {:.1} MiB, capacity: {} cells",
        size as f64 / (1 << 20) as f64,
        table.capacity()
    );

    // Insert some items.
    for k in 0..50_000u64 {
        table.insert(&mut pm, k, k * 10).expect("insert");
    }
    println!(
        "inserted {} items, load factor {:.2}",
        table.len(&pm),
        table.load_factor(&pm)
    );

    // Point lookups.
    assert_eq!(table.get(&pm, &123), Some(1230));
    assert_eq!(table.get(&pm, &999_999), None);

    // Delete.
    assert!(table.remove(&mut pm, &123));
    assert_eq!(table.get(&pm, &123), None);

    // What did a single insert cost? (The paper's point: exactly three
    // persisted cachelines — cell, bitmap word, count — no log writes.)
    pm.reset_stats();
    table.insert(&mut pm, 999_999, 1).unwrap();
    let s = pm.stats();
    println!(
        "one insert: {} writes, {} flushed lines, {} fences, {} ns simulated",
        s.writes,
        s.flushes,
        s.fences,
        pm.sim_time_ns().unwrap()
    );

    // Where do items live?
    let a = TableAnalysis::capture(&table, &pm);
    println!(
        "occupancy: {} in level 1 (hash-addressed), {} in level 2 (collision groups)",
        a.level1_used, a.level2_used
    );
    println!(
        "fullest group holds {} of {} possible cells",
        a.max_group_fill(),
        2 * cfg.group_size
    );

    // Integrity check (O(capacity); great in tests, optional in prod).
    table.check_consistency(&pm).expect("consistent");
    println!("consistency check passed");
}
