//! Crash recovery demo: power-fail a table mid-insert at every possible
//! instant, recover with Algorithm 4, and show the table is intact every
//! time.
//!
//! ```text
//! cargo run --release --example crash_recovery
//! ```

use group_hashing::core::{GroupHash, GroupHashConfig, HashScheme};
use group_hashing::pmem::{
    run_with_crash, CrashPlan, CrashResolution, Pmem, Region, SimConfig, SimPmem,
};

type Table = GroupHash<SimPmem, u64, u64>;

fn main() {
    let cfg = GroupHashConfig::new(1 << 10, 64);
    let size = Table::required_size(&cfg);
    let region = Region::new(0, size);

    // Build a populated table once.
    let mut pm0 = SimPmem::new(size, SimConfig::paper_default());
    let mut t0 = Table::create(&mut pm0, region, cfg).expect("create");
    for k in 0..900u64 {
        t0.insert(&mut pm0, k, k + 1).unwrap();
    }
    println!("base table: {} items", t0.len(&pm0));

    // Now crash an insert of key 5000 at every mutation event it performs.
    let mut crash_points = 0;
    let mut survived_with_key = 0;
    let mut survived_without_key = 0;
    for at in 0..200 {
        let mut pm = pm0.clone();
        let mut t = Table::open(&mut pm, region).expect("open");
        let base = pm.events();
        pm.set_crash_plan(Some(CrashPlan {
            at_event: base + at,
        }));
        let completed = run_with_crash(|| t.insert(&mut pm, 5000, 42).unwrap()).is_ok();
        if completed {
            // The insert used `at` events in total; we've crashed at every
            // interior point.
            println!("insert performs {at} mutation events; crash injected at each");
            break;
        }
        crash_points += 1;

        // Power failure: unflushed cachelines resolve arbitrarily.
        pm.crash(CrashResolution::Random(at));

        // Reboot: reopen from the surviving bytes and run Algorithm 4.
        let mut t = Table::open(&mut pm, region).expect("reopen");
        t.recover(&mut pm);
        t.check_consistency(&pm)
            .expect("recovered state consistent");

        // All 900 committed items are intact...
        for k in 0..900u64 {
            assert_eq!(t.get(&pm, &k), Some(k + 1), "lost key {k}");
        }
        // ...and the in-flight insert is atomic: fully there or fully gone.
        match t.get(&pm, &5000) {
            Some(v) => {
                assert_eq!(v, 42);
                survived_with_key += 1;
            }
            None => survived_without_key += 1,
        }
    }

    println!(
        "{crash_points} crash points tested: {survived_with_key} recovered WITH the in-flight key, \
         {survived_without_key} WITHOUT — never a torn state, never a lost committed item"
    );

    // The recovery cost: one sequential scan (paper Table 3: <1% of build).
    let mut pm = pm0.clone();
    let mut t = Table::open(&mut pm, region).expect("open");
    let t0_ns = pm.sim_time_ns().unwrap();
    t.recover(&mut pm);
    println!(
        "recovery of a {}-cell table: {} µs simulated",
        t.capacity(),
        (pm.sim_time_ns().unwrap() - t0_ns) / 1000
    );
}
