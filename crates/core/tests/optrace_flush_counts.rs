//! Pins the paper's write-efficiency claim at the persistence-op level.
//!
//! Table 2 credits group hashing with one failure-atomic 8-byte commit
//! per structural change instead of a log transaction. These tests wrap
//! single operations in an [`OpTrace`] window and assert the *exact*
//! flush/fence counts, so any regression that adds a write-back to the
//! hot path fails loudly rather than showing up as a few percent in a
//! benchmark:
//!
//! * insert = 3 flushes / 3 fences (cell write-back, bitmap commit,
//!   count update);
//! * remove = 3 flushes / 3 fences (bitmap commit — the logical delete —
//!   then the cell scrub and count update);
//! * query  = 0 flushes / 0 fences;
//! * the bitmap commit itself is exactly one flush of one atomic 8-byte
//!   store.

use group_hash::{FpMode, GroupHash, GroupHashConfig};
use nvm_metrics::{OpDelta, OpTrace};
use nvm_pmem::{Pmem, Region, SimConfig, SimPmem};

fn build() -> (SimPmem, GroupHash<SimPmem, u64, u64>) {
    build_with_fp(FpMode::Off)
}

fn build_with_fp(fp: FpMode) -> (SimPmem, GroupHash<SimPmem, u64, u64>) {
    let cfg = GroupHashConfig::new(1 << 10, 64)
        .with_seed(9)
        .with_fp_mode(fp);
    let size = GroupHash::<SimPmem, u64, u64>::required_size(&cfg);
    let mut pm = SimPmem::new(size, SimConfig::paper_default());
    let table = GroupHash::create(&mut pm, Region::new(0, size), cfg).unwrap();
    (pm, table)
}

fn traced(pm: &mut SimPmem, op: impl FnOnce(&mut SimPmem)) -> OpDelta {
    let tr = OpTrace::begin(pm);
    op(pm);
    tr.end(pm)
}

#[test]
fn insert_costs_three_flushes_three_fences() {
    let (mut pm, mut table) = build();
    for k in 0..200u64 {
        let d = traced(&mut pm, |pm| {
            table.insert(pm, k, k + 1).unwrap();
        });
        assert_eq!(
            (d.pmem.flushes, d.pmem.fences),
            (3, 3),
            "insert of key {k}: {:?}",
            d.pmem
        );
        // Exactly one of the three is the atomic bitmap commit... plus
        // the atomic count update: two 8-byte atomics, one data line.
        assert_eq!(d.pmem.atomic_writes, 2, "key {k}: {:?}", d.pmem);
    }
}

#[test]
fn remove_costs_three_flushes_three_fences() {
    let (mut pm, mut table) = build();
    for k in 0..100u64 {
        table.insert(&mut pm, k, k).unwrap();
    }
    for k in 0..100u64 {
        let d = traced(&mut pm, |pm| {
            assert!(table.remove(pm, &k));
        });
        assert_eq!(
            (d.pmem.flushes, d.pmem.fences),
            (3, 3),
            "remove of key {k}: {:?}",
            d.pmem
        );
        // Bitmap clear + count update are the two 8-byte atomics; the
        // third write scrubs the 16-byte cell (so recovery never sees a
        // cleared bit over live-looking bytes). 8 + 16 + 8 = 32 bytes —
        // still no log entry anywhere.
        assert_eq!(d.pmem.atomic_writes, 2, "key {k}: {:?}", d.pmem);
        assert_eq!(d.pmem.bytes_written, 32, "key {k}: {:?}", d.pmem);
    }
}

#[test]
fn query_never_persists() {
    let (mut pm, mut table) = build();
    for k in 0..100u64 {
        table.insert(&mut pm, k, k * 7).unwrap();
    }
    for k in 0..100u64 {
        let mut got = None;
        let d = traced(&mut pm, |pm| {
            got = table.get(pm, &k);
        });
        assert_eq!(got, Some(k * 7));
        assert_eq!((d.pmem.flushes, d.pmem.fences), (0, 0), "{:?}", d.pmem);
        assert_eq!(d.pmem.writes + d.pmem.atomic_writes, 0, "{:?}", d.pmem);
    }
}

#[test]
fn commit_bit_is_one_flush_of_one_atomic_store() {
    // The primitive underneath Algorithm 1's step 3: an 8-byte atomic
    // store plus one line flush and one fence.
    let mut pm = SimPmem::new(4096, SimConfig::paper_default());
    let tr = OpTrace::begin(&pm);
    pm.atomic_write_u64(128, 0xFFFF_0000_FFFF_0000);
    pm.flush(128, 8);
    pm.fence();
    let d = tr.end(&pm);
    assert_eq!(d.pmem.atomic_writes, 1);
    assert_eq!(d.pmem.flushes, 1);
    assert_eq!(d.pmem.fences, 1);
    // The atomic store is the only write (atomics count as writes too).
    assert_eq!(d.pmem.writes, 1);
    assert_eq!(d.pmem.bytes_written, 8);
}

#[test]
fn fingerprint_cache_never_changes_persistence_costs() {
    // The DRAM fingerprint cache is a pure accelerator: with FpMode::On
    // every operation must issue *exactly* the same persistence traffic
    // as the paper-faithful path. Pin the budgets side by side.
    let (mut pm_off, mut off) = build_with_fp(FpMode::Off);
    let (mut pm_on, mut on) = build_with_fp(FpMode::On);
    for k in 0..200u64 {
        let d_off = traced(&mut pm_off, |pm| off.insert(pm, k, k + 1).unwrap());
        let d_on = traced(&mut pm_on, |pm| on.insert(pm, k, k + 1).unwrap());
        assert_eq!((d_on.pmem.flushes, d_on.pmem.fences), (3, 3), "key {k}");
        assert_eq!(d_on.pmem.atomic_writes, 2, "key {k}");
        assert_eq!(
            (
                d_off.pmem.flushes,
                d_off.pmem.fences,
                d_off.pmem.writes,
                d_off.pmem.bytes_written
            ),
            (
                d_on.pmem.flushes,
                d_on.pmem.fences,
                d_on.pmem.writes,
                d_on.pmem.bytes_written
            ),
            "insert of key {k} diverged"
        );
    }
    for k in 0..100u64 {
        let d_off = traced(&mut pm_off, |pm| assert!(off.remove(pm, &k)));
        let d_on = traced(&mut pm_on, |pm| assert!(on.remove(pm, &k)));
        assert_eq!((d_on.pmem.flushes, d_on.pmem.fences), (3, 3), "key {k}");
        assert_eq!(d_on.pmem.atomic_writes, 2, "key {k}");
        assert_eq!(d_on.pmem.bytes_written, 32, "key {k}");
        assert_eq!(
            (
                d_off.pmem.flushes,
                d_off.pmem.fences,
                d_off.pmem.writes,
                d_off.pmem.bytes_written
            ),
            (
                d_on.pmem.flushes,
                d_on.pmem.fences,
                d_on.pmem.writes,
                d_on.pmem.bytes_written
            ),
            "remove of key {k} diverged"
        );
    }
    for k in 100..200u64 {
        let d = traced(&mut pm_on, |pm| {
            assert_eq!(on.get(pm, &k), Some(k + 1));
        });
        assert_eq!((d.pmem.flushes, d.pmem.fences), (0, 0), "{:?}", d.pmem);
        assert_eq!(d.pmem.writes + d.pmem.atomic_writes, 0, "{:?}", d.pmem);
    }
}

#[test]
fn sim_latency_is_attributed_to_the_window() {
    let (mut pm, mut table) = build();
    table.insert(&mut pm, 1, 1).unwrap();
    let idle = traced(&mut pm, |_| {});
    assert_eq!(idle.sim_ns, Some(0), "empty window must cost nothing");
    let d = traced(&mut pm, |pm| {
        table.insert(pm, 2, 2).unwrap();
    });
    assert!(d.sim_ns.unwrap() > 0, "insert must advance the sim clock");
    assert!(d.latency_ns() >= d.sim_ns.unwrap());
}
