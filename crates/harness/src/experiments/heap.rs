//! Extension experiment — value-heap fragmentation, wear, and crash
//! recovery.
//!
//! The paper's write-efficiency argument is made for the *index*; this
//! experiment extends it to the value heap that a KV store hangs off
//! the index. Two phases:
//!
//! 1. **Churn** — an alloc/free/overwrite mix over several value-size
//!    distributions, once per slab-rotation policy. Reported per arm:
//!    internal fragmentation (allocated slot bytes vs live blob bytes)
//!    and wear (per-slab logical write counts plus the simulator's
//!    media write-backs over the heap region). Wear-aware rotation
//!    should spread writes nearly evenly across each class's slabs
//!    where first-fit grinds slab 0.
//! 2. **Recovery** — crash a `set_batch` mid-flight at several points,
//!    measure the blob bytes the torn image leaks (committed blobs the
//!    index never adopted), then run recovery and show the leak drops
//!    to zero — the GC drainer's whole job.

use crate::experiments::runner::experiment_json;
use crate::tablefmt::{count, emit_json, ratio, Table};
use crate::Args;
use nvm_alloc::{GcOwner, HeapConfig, PmemHeap, PmemPtr, RotationPolicy};
use nvm_kv::prelude::*;
use nvm_metrics::Json;
use nvm_pmem::{run_with_crash, CrashPlan, CrashResolution, Pmem, Region, SimConfig, SimPmem};
use std::collections::HashMap;

/// SplitMix64 — the harness carries no RNG dependency.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A named value-size sampler driven by a splitmix state word.
pub type SizeDist = (&'static str, fn(&mut u64) -> usize);

/// The value-size distributions swept (name, sampler).
pub const DISTS: [SizeDist; 3] = [
    // Small values, uniform: everything lands in the first classes.
    ("uniform-16-64", |s| 16 + (splitmix(s) % 49) as usize),
    // memcached-style hot/cold split: 90% tiny, 10% half-KiB.
    ("hot-24-cold-512", |s| {
        if splitmix(s) % 10 < 9 {
            24
        } else {
            512
        }
    }),
    // Wide mix across most of the class table.
    ("mixed-16-1024", |s| 16 + (splitmix(s) % 1009) as usize),
];

/// The rotation policies compared.
pub const POLICIES: [(&str, RotationPolicy); 2] = [
    ("wear-aware", RotationPolicy::WearAware),
    ("first-fit", RotationPolicy::FirstFit),
];

/// One churn arm's measurements.
#[derive(Debug, Clone)]
pub struct HeapRow {
    pub dist: String,
    pub rotation: String,
    pub allocs: u64,
    pub frees: u64,
    pub gc_moves: u64,
    /// Bytes of live blob payload at the end of the churn.
    pub live_bytes: u64,
    /// Bytes of slots holding those blobs (>= live: internal frag).
    pub slot_bytes: u64,
    /// Allocated slot bytes / live blob bytes.
    pub frag: f64,
    /// Hottest slab's logical write count.
    pub max_slab_writes: u64,
    /// Mean logical writes per slab.
    pub mean_slab_writes: f64,
    /// max/mean — 1.0 is perfectly level.
    pub write_skew: f64,
    /// Media write-backs absorbed by the hottest line in the heap region.
    pub hottest_line: u32,
}

/// The volatile churn oracle as the heap's [`GcOwner`]: a blob is live
/// iff the oracle still maps its pointer to those bytes.
struct MapOwner<'a> {
    live: &'a mut HashMap<u64, Vec<u8>>,
}

impl<P: Pmem> GcOwner<P> for MapOwner<'_> {
    fn is_live(&mut self, _pm: &P, ptr: PmemPtr, blob: &[u8]) -> bool {
        self.live.get(&ptr.0).is_some_and(|b| b == blob)
    }

    fn repoint(&mut self, _pm: &mut P, old: PmemPtr, new: PmemPtr, blob: &[u8]) -> bool {
        if self.live.remove(&old.0).is_none() {
            return false;
        }
        self.live.insert(new.0, blob.to_vec());
        true
    }
}

/// Runs one (distribution, rotation) churn arm.
fn run_churn(
    dist: (&str, fn(&mut u64) -> usize),
    policy: (&str, RotationPolicy),
    churn_ops: usize,
    seed: u64,
) -> HeapRow {
    let config = HeapConfig::balanced(1 << 18);
    let size = PmemHeap::required_size(&config);
    let mut pm = SimPmem::new(size, SimConfig::fast_test());
    let region = Region::new(0, size);
    let mut heap = PmemHeap::create(&mut pm, region, &config).unwrap();
    heap.set_rotation(policy.1);
    let table = config.class_table().unwrap();

    let mut rng = seed ^ 0x4845_4150;
    let mut live: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut ptrs: Vec<u64> = Vec::new();
    let blob = |rng: &mut u64| {
        let len = dist.1(rng);
        vec![(splitmix(rng) & 0xFF) as u8; len]
    };

    // Fill to ~10% of the slot budget (by slot bytes, tracked off the
    // class table so the fill loop stays O(1) per alloc). The live set
    // must stay well under capacity: with a near-full heap the only
    // free slot is the one the last free opened, and *any* policy is
    // forced level — spare room is what gives rotation a choice.
    let total_slot_bytes: u64 = heap.frag_stats(&pm).total_slot_bytes;
    let mut filled = 0u64;
    while filled * 10 < total_slot_bytes {
        let b = blob(&mut rng);
        let Ok(ptr) = heap.alloc(&mut pm, &b) else {
            break; // one class exhausted before the global target: fine
        };
        filled += table.get(table.class_for(b.len()).unwrap()).slot_size;
        live.insert(ptr.0, b);
        ptrs.push(ptr.0);
    }

    // Churn: free a random live blob, allocate a fresh one — the
    // steady-state overwrite mix. Wear only counts from here.
    pm.reset_wear();
    for _ in 0..churn_ops {
        let victim = (splitmix(&mut rng) as usize) % ptrs.len();
        let old = ptrs.swap_remove(victim);
        live.remove(&old);
        heap.free(&mut pm, PmemPtr(old)).unwrap();
        let b = blob(&mut rng);
        if let Ok(ptr) = heap.alloc(&mut pm, &b) {
            live.insert(ptr.0, b);
            ptrs.push(ptr.0);
        }
    }

    // One full GC pass compacts whatever the churn left sparse.
    let mut owner = MapOwner { live: &mut live };
    heap.gc_full(&mut pm, &mut owner).unwrap();

    let fs = heap.frag_stats(&pm);
    let writes = heap.slab_writes();
    let max = writes.iter().copied().max().unwrap_or(0);
    let mean = writes.iter().sum::<u64>() as f64 / writes.len().max(1) as f64;
    let (_, hottest, _) = pm.wear_range_summary(region.off, region.len);
    let s = heap.stats();
    HeapRow {
        dist: dist.0.to_string(),
        rotation: policy.0.to_string(),
        allocs: s.allocs,
        frees: s.frees,
        gc_moves: s.gc_moves,
        live_bytes: fs.live_blob_bytes,
        slot_bytes: fs.allocated_slot_bytes,
        frag: if fs.live_blob_bytes > 0 {
            fs.allocated_slot_bytes as f64 / fs.live_blob_bytes as f64
        } else {
            0.0
        },
        max_slab_writes: max,
        mean_slab_writes: mean,
        write_skew: if mean > 0.0 { max as f64 / mean } else { 0.0 },
        hottest_line: hottest,
    }
}

/// All churn arms.
pub fn collect(args: &Args) -> Vec<HeapRow> {
    let churn = args.ops * 10;
    let mut out = Vec::new();
    for dist in DISTS {
        for policy in POLICIES {
            out.push(run_churn(dist, policy, churn, args.seed));
        }
    }
    out
}

/// One crash point in the recovery phase.
#[derive(Debug, Clone, Copy)]
pub struct LeakRow {
    /// Fraction of the batch's event span where the crash was injected.
    pub crash_frac: f64,
    /// Heap slots the torn image held beyond the entries that survived
    /// recovery (index repair can only *recover* committed entries, so
    /// the post-repair count is the honest baseline).
    pub leaked_slots: u64,
    /// Slot bytes recovery reclaimed (the leak, in bytes).
    pub leaked_bytes: u64,
    /// Unreachable blobs the recovery sweep freed.
    pub reclaimed: u64,
    /// Leaked slots after recovery — the acceptance bar is zero.
    pub leaked_after: u64,
}

/// Crashes a 64-item `set_batch` at several points and measures the
/// leak before and after recovery.
pub fn collect_leaks(args: &Args) -> Vec<LeakRow> {
    let builder = StoreBuilder::new().capacity(256, 64);
    let store0 = builder.create_sim(SimConfig::fast_test()).unwrap();
    let mut rng = args.seed ^ 0x4C45_414B;
    for i in 0..32u32 {
        store0
            .set(format!("warm-{i}").as_bytes(), &[i as u8; 24])
            .unwrap();
    }
    let pm0 = store0.into_pools().ok().expect("sole handle").remove(0);

    let items: Vec<(Vec<u8>, Vec<u8>)> = (0..64u32)
        .map(|i| {
            let len = 16 + (splitmix(&mut rng) % 120) as usize;
            (format!("batch-{i}").into_bytes(), vec![i as u8; len])
        })
        .collect();
    let refs: Vec<(&[u8], &[u8])> = items
        .iter()
        .map(|(k, v)| (k.as_slice(), v.as_slice()))
        .collect();

    // Dry runs on clones (the simulator is deterministic): learn how
    // many mutation events reopening costs, then the batch's own span.
    let open_span = {
        let pm = pm0.clone();
        let before = pm.events();
        let store = builder.open(vec![pm]).unwrap();
        let pools = store.into_pools().ok().expect("sole handle");
        pools[0].events() - before
    };
    let span = {
        let pm = pm0.clone();
        let base = pm.events() + open_span;
        let store = builder.open(vec![pm]).unwrap();
        store.set_batch(&refs).unwrap();
        let pools = store.into_pools().ok().expect("sole handle");
        pools[0].events() - base
    };

    [0.25, 0.5, 0.9]
        .into_iter()
        .map(|frac| {
            let mut pm = pm0.clone();
            let at = pm.events() + open_span + (span as f64 * frac) as u64;
            pm.set_crash_plan(Some(CrashPlan { at_event: at }));
            let store = builder.open(vec![pm]).unwrap();
            let _ = run_with_crash(|| store.set_batch(&refs).unwrap());
            let mut pm = store.into_pools().ok().expect("sole handle").remove(0);
            pm.crash(CrashResolution::Random(args.seed ^ at));

            let store = builder.open(vec![pm]).unwrap();
            let (_, slots_before) = store.usage();
            let before = store.frag_stats();
            let reclaimed = store.recover();
            let (entries_after, slots_after) = store.usage();
            let after = store.frag_stats();
            LeakRow {
                crash_frac: frac,
                leaked_slots: slots_before.saturating_sub(entries_after),
                leaked_bytes: before
                    .allocated_slot_bytes
                    .saturating_sub(after.allocated_slot_bytes),
                reclaimed,
                leaked_after: slots_after.saturating_sub(entries_after),
            }
        })
        .collect()
}

/// The experiment's JSON metrics document: churn arms + recovery rows.
pub fn metrics_json(rows: &[HeapRow], leaks: &[LeakRow]) -> Json {
    let mut runs: Vec<Json> = rows
        .iter()
        .map(|r| {
            let mut j = Json::obj();
            j.insert("phase", "churn");
            j.insert("dist", r.dist.as_str());
            j.insert("rotation", r.rotation.as_str());
            let mut m = Json::obj();
            m.insert("allocs", r.allocs);
            m.insert("frees", r.frees);
            m.insert("gc_moves", r.gc_moves);
            m.insert("live_blob_bytes", r.live_bytes);
            m.insert("allocated_slot_bytes", r.slot_bytes);
            m.insert("frag_ratio", r.frag);
            m.insert("max_slab_writes", r.max_slab_writes);
            m.insert("mean_slab_writes", r.mean_slab_writes);
            m.insert("write_skew", r.write_skew);
            m.insert("hottest_line_writebacks", u64::from(r.hottest_line));
            j.insert("metrics", m);
            j
        })
        .collect();
    for l in leaks {
        let mut j = Json::obj();
        j.insert("phase", "recovery");
        j.insert("crash_frac", l.crash_frac);
        let mut m = Json::obj();
        m.insert("leaked_slots", l.leaked_slots);
        m.insert("leaked_bytes", l.leaked_bytes);
        m.insert("reclaimed", l.reclaimed);
        m.insert("leaked_slots_after_recovery", l.leaked_after);
        j.insert("metrics", m);
        runs.push(j);
    }
    experiment_json("heap", runs)
}

/// Builds the report tables (and writes CSV/JSON when `out_dir` is set).
pub fn run(args: &Args) -> Vec<Table> {
    let rows = collect(args);
    let leaks = collect_leaks(args);
    emit_json(
        args.out_dir.as_deref(),
        "heap",
        &metrics_json(&rows, &leaks),
    );

    let mut churn = Table::new(
        format!(
            "Extension: value-heap churn ({} overwrite ops), fragmentation and wear per rotation policy",
            args.ops * 10
        ),
        &[
            "distribution",
            "rotation",
            "allocs",
            "frees",
            "gc moves",
            "live B",
            "slot B",
            "frag",
            "max slab writes",
            "write skew",
            "hottest line",
        ],
    );
    for r in &rows {
        churn.row(vec![
            r.dist.clone(),
            r.rotation.clone(),
            r.allocs.to_string(),
            r.frees.to_string(),
            r.gc_moves.to_string(),
            r.live_bytes.to_string(),
            r.slot_bytes.to_string(),
            ratio(r.frag),
            r.max_slab_writes.to_string(),
            count(r.write_skew),
            r.hottest_line.to_string(),
        ]);
    }

    let mut rec = Table::new(
        "Extension: leaked heap bytes from a crashed set_batch, before and after recovery",
        &[
            "crash at",
            "leaked slots",
            "leaked bytes",
            "reclaimed",
            "leaked after recovery",
        ],
    );
    for l in &leaks {
        rec.row(vec![
            format!("{:.0}%", l.crash_frac * 100.0),
            l.leaked_slots.to_string(),
            l.leaked_bytes.to_string(),
            l.reclaimed.to_string(),
            l.leaked_after.to_string(),
        ]);
    }
    vec![churn, rec]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<HeapRow> {
        collect(&Args {
            ops: 60,
            ..Args::default()
        })
    }

    /// Wear-aware rotation levels per-slab writes: for every
    /// distribution its hottest slab is no hotter than first-fit's, and
    /// the skew stays bounded.
    #[test]
    fn wear_aware_rotation_bounds_slab_skew() {
        let rows = rows();
        for dist in DISTS {
            let get = |rot: &str| {
                rows.iter()
                    .find(|r| r.dist == dist.0 && r.rotation == rot)
                    .unwrap_or_else(|| panic!("{}/{rot} missing", dist.0))
            };
            let wa = get("wear-aware");
            let ff = get("first-fit");
            assert!(
                wa.max_slab_writes <= ff.max_slab_writes,
                "{}: wear-aware hottest slab {} > first-fit {}",
                dist.0,
                wa.max_slab_writes,
                ff.max_slab_writes
            );
            assert!(
                wa.write_skew <= ff.write_skew + 1e-9,
                "{}: wear-aware skew {} > first-fit {}",
                dist.0,
                wa.write_skew,
                ff.write_skew
            );
        }
    }

    /// Fragmentation is internal only (slot rounding): the ratio stays
    /// under the 1.25 class growth factor plus slack for the 80 B floor
    /// on tiny values.
    #[test]
    fn churn_tracks_live_bytes() {
        for r in rows() {
            assert!(r.allocs > 0 && r.frees > 0, "{}: no churn ran", r.dist);
            assert!(
                r.slot_bytes >= r.live_bytes,
                "{}: slots smaller than payload",
                r.dist
            );
        }
    }

    /// The recovery phase's acceptance bar: a crashed batch leaks, and
    /// recovery reclaims every leaked byte.
    #[test]
    fn recovery_reclaims_all_leaked_bytes() {
        let leaks = collect_leaks(&Args::default());
        assert!(
            leaks.iter().any(|l| l.leaked_slots > 0),
            "no crash point produced a leak; the phase measures nothing"
        );
        for l in &leaks {
            assert_eq!(
                l.leaked_after,
                0,
                "crash at {:.0}%: leak survived recovery",
                l.crash_frac * 100.0
            );
            assert!(
                l.reclaimed >= l.leaked_slots,
                "crash at {:.0}%: reclaimed {} < leaked {}",
                l.crash_frac * 100.0,
                l.reclaimed,
                l.leaked_slots
            );
        }
    }
}
