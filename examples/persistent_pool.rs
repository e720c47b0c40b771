//! End-to-end durability across process runs: build a table, persist the
//! pool image to disk, "restart" (drop everything), reload, and carry on —
//! the emulated equivalent of remapping a real NVM region after reboot.
//!
//! ```text
//! cargo run --release --example persistent_pool
//! ```

use group_hashing::core::{GroupHash, GroupHashConfig, HashScheme};
use group_hashing::pmem::{PmemRead, Region, SimConfig, SimPmem};

fn main() {
    let path = std::env::temp_dir().join("group-hashing-demo.pool");
    let cfg = GroupHashConfig::new(1 << 12, 64);
    let size = GroupHash::<SimPmem, u64, u64>::required_size(&cfg);
    let region = Region::new(0, size);

    // ---- "First process run": create, populate, persist, save. ----
    {
        let mut pm = SimPmem::new(size, SimConfig::paper_default());
        let mut table = GroupHash::<_, u64, u64>::create(&mut pm, region, cfg).expect("create");
        for k in 0..3000u64 {
            table.insert(&mut pm, k, k * k).expect("insert");
        }
        // The table persists every update as it goes; the pool is already
        // quiescent, so the image saves directly.
        pm.save_image(&path).expect("save image");
        println!(
            "run 1: inserted {} items, saved {}-byte pool to {}",
            table.len(&pm),
            pm.len(),
            path.display()
        );
    } // everything dropped — "process exit"

    // ---- "Second process run": reload and continue. ----
    {
        let mut pm = SimPmem::load_image(&path, SimConfig::paper_default()).expect("load image");
        let mut table = GroupHash::<SimPmem, u64, u64>::open(&mut pm, region).expect("open");
        // A clean shutdown needs no recovery, but running Algorithm 4 is
        // always safe (idempotent) — do it, as a real application would
        // when it cannot distinguish clean from crashed shutdown.
        table.recover(&mut pm);
        table.check_consistency(&pm).expect("consistent");

        assert_eq!(table.len(&pm), 3000);
        assert_eq!(table.get(&pm, &1234), Some(1234 * 1234));
        table.insert(&mut pm, 999_999, 1).expect("insert more");
        println!(
            "run 2: reloaded {} items, all values intact, appended one more",
            table.len(&pm) - 1
        );
        pm.save_image(&path).expect("re-save");
    }

    // ---- "Third run": verify the append survived too. ----
    {
        let mut pm = SimPmem::load_image(&path, SimConfig::paper_default()).expect("load image");
        let table = GroupHash::<SimPmem, u64, u64>::open(&mut pm, region).expect("open");
        assert_eq!(table.get(&pm, &999_999), Some(1));
        println!(
            "run 3: {} items — durability across three runs",
            table.len(&pm)
        );
    }

    let _ = std::fs::remove_file(&path);
}
