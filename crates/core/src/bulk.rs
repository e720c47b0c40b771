//! Crash-safe bulk loading.
//!
//! Inserting n entries one by one costs ~3 persisted cachelines each
//! (cell, bitmap word, count). An initial load can do far better without
//! giving up crash safety, by exploiting the same ordering discipline as
//! Algorithm 1 at region granularity:
//!
//! 1. **Place** every entry and write its cell — *cells only*, tracked
//!    against a DRAM occupancy overlay so no persistent bitmap word is
//!    touched yet;
//! 2. **persist all written cells**, then fence;
//! 3. **publish**: write the updated bitmap words and persist them;
//! 4. commit the new `count`.
//!
//! If power fails during 1–2, every occupancy bit is still durable-zero,
//! so recovery wipes the partial cells: the load never happened. If it
//! fails during 3–4, any bit that became durable points at a cell made
//! durable in step 2 — a consistent prefix of the load survives. This is
//! the per-entry insert proof, applied once to the whole batch.

use crate::table::GroupHash;
use nvm_hashfn::{HashKey, Pod};
use nvm_pmem::Pmem;
use nvm_table::InsertError;

/// Outcome of a bulk load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BulkLoadReport {
    /// Entries stored.
    pub loaded: usize,
    /// Entries rejected because their group was full.
    pub rejected: usize,
}

/// A DRAM mirror of the two occupancy bitmaps, used to make placement
/// decisions without touching persistent words.
struct Overlay {
    level1: Vec<u64>,
    level2: Vec<u64>,
    /// Word indices dirtied per level (for selective write-back).
    dirty1: Vec<bool>,
    dirty2: Vec<bool>,
}

impl Overlay {
    fn get(words: &[u64], idx: u64) -> bool {
        words[(idx / 64) as usize] >> (idx % 64) & 1 == 1
    }

    fn set(words: &mut [u64], dirty: &mut [bool], idx: u64) {
        words[(idx / 64) as usize] |= 1 << (idx % 64);
        dirty[(idx / 64) as usize] = true;
    }
}

impl<P: Pmem, K: HashKey, V: Pod> GroupHash<P, K, V> {
    /// Loads `entries` with amortized persistence (see the module docs).
    /// Entries whose matched group is full are skipped and counted in
    /// [`BulkLoadReport::rejected`]. Keys are assumed distinct from each
    /// other and from the table's contents (as in Algorithm 1).
    pub fn bulk_load(
        &mut self,
        pm: &mut P,
        entries: impl IntoIterator<Item = (K, V)>,
    ) -> BulkLoadReport {
        let (config, bitmap1, bitmap2, cells1, cells2) = self.parts();
        let n = config.cells_per_level;
        let gs = config.group_size;
        let plan = self.plan();
        let words = n.div_ceil(64) as usize;
        // Detached so placements can record tags while `self.slot_of`
        // borrows the table; restored right after the placement loop.
        let mut fp = self.take_fp();

        // Snapshot the current occupancy into DRAM.
        let mut ov = Overlay {
            level1: (0..words)
                .map(|w| bitmap1.word_containing(pm, (w * 64) as u64))
                .collect(),
            level2: (0..words)
                .map(|w| bitmap2.word_containing(pm, (w * 64) as u64))
                .collect(),
            dirty1: vec![false; words],
            dirty2: vec![false; words],
        };

        // Phase 1: place + write cells (volatile), tracking the span of
        // touched cells for a batched persist.
        let mut loaded = 0usize;
        let mut rejected = 0usize;
        for (key, value) in entries {
            let k = self.slot_of(&key);
            if !Overlay::get(&ov.level1, k) {
                cells1.write_entry(pm, k, &key, &value);
                Overlay::set(&mut ov.level1, &mut ov.dirty1, k);
                if let Some(fp) = &mut fp {
                    fp.set(0, k, self.fp_tag(&key));
                }
                loaded += 1;
                continue;
            }
            let g = k / gs;
            let mut placed = false;
            for idx in plan.group_cells(g) {
                if !Overlay::get(&ov.level2, idx) {
                    cells2.write_entry(pm, idx, &key, &value);
                    Overlay::set(&mut ov.level2, &mut ov.dirty2, idx);
                    if let Some(fp) = &mut fp {
                        fp.set(1, idx, self.fp_tag(&key));
                    }
                    loaded += 1;
                    placed = true;
                    break;
                }
            }
            if !placed {
                rejected += 1;
            }
        }
        self.put_fp(fp);

        // Phase 2: make every written cell durable. Persist the cell span
        // covered by each dirty bitmap word (64 cells per word).
        for (w, &d) in ov.dirty1.iter().enumerate() {
            if d {
                let first = (w * 64) as u64;
                let count = 64.min(n - first);
                pm.flush(cells1.cell_off(first), count as usize * cells1.entry_len());
            }
        }
        for (w, &d) in ov.dirty2.iter().enumerate() {
            if d {
                let first = (w * 64) as u64;
                let count = 64.min(n - first);
                pm.flush(cells2.cell_off(first), count as usize * cells2.entry_len());
            }
        }
        pm.fence();

        // Phase 3: publish occupancy — write back dirty bitmap words and
        // persist them.
        for (w, &d) in ov.dirty1.iter().enumerate() {
            if d {
                pm.atomic_write_u64(bitmap1.word_off_of((w * 64) as u64), ov.level1[w]);
                pm.flush(bitmap1.word_off_of((w * 64) as u64), 8);
            }
        }
        for (w, &d) in ov.dirty2.iter().enumerate() {
            if d {
                pm.atomic_write_u64(bitmap2.word_off_of((w * 64) as u64), ov.level2[w]);
                pm.flush(bitmap2.word_off_of((w * 64) as u64), 8);
            }
        }
        pm.fence();

        // Phase 4: commit the count.
        let new_count = self.len(pm) + loaded as u64;
        self.set_count_committed(pm, new_count);

        BulkLoadReport { loaded, rejected }
    }

    /// Like [`GroupHash::bulk_load`] but fails fast if anything is
    /// rejected (all-or-error convenience for known-fitting batches —
    /// note entries already placed stay placed; "error" reports, not
    /// rolls back).
    pub fn bulk_load_all(
        &mut self,
        pm: &mut P,
        entries: impl IntoIterator<Item = (K, V)>,
    ) -> Result<usize, InsertError> {
        let r = self.bulk_load(pm, entries);
        if r.rejected > 0 {
            Err(InsertError::TableFull)
        } else {
            Ok(r.loaded)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GroupHashConfig;
    use crate::testutil::make;
    use nvm_pmem::{CrashResolution, Pmem, Region, SimConfig, SimPmem};
    use nvm_table::HashScheme;

    #[test]
    fn bulk_load_equals_incremental() {
        let (mut pm_a, mut a, _) = make(256, 16);
        let (mut pm_b, mut b, _) = make(256, 16);
        let entries: Vec<(u64, u64)> = (0..300u64).map(|k| (k, k * 3)).collect();

        let mut inc_loaded = 0;
        for &(k, v) in &entries {
            if a.insert(&mut pm_a, k, v).is_ok() {
                inc_loaded += 1;
            }
        }
        let r = b.bulk_load(&mut pm_b, entries.iter().copied());
        assert_eq!(r.loaded as u64 + r.rejected as u64, 300);
        assert_eq!(r.loaded, inc_loaded);
        assert_eq!(a.len(&pm_a), b.len(&pm_b));
        for &(k, v) in &entries {
            assert_eq!(a.get(&pm_a, &k), b.get(&pm_b, &k), "key {k}");
            if a.get(&pm_a, &k).is_some() {
                assert_eq!(b.get(&pm_b, &k), Some(v));
            }
        }
        b.check_consistency(&pm_b).unwrap();
    }

    #[test]
    fn bulk_load_is_much_cheaper() {
        let (mut pm_a, mut a, _) = make(1 << 12, 256);
        let (mut pm_b, mut b, _) = make(1 << 12, 256);
        let entries: Vec<(u64, u64)> = (0..3000u64).map(|k| (k, k)).collect();

        pm_a.reset_stats();
        for &(k, v) in &entries {
            a.insert(&mut pm_a, k, v).unwrap();
        }
        let inc_flushes = pm_a.stats().flushes;

        pm_b.reset_stats();
        b.bulk_load_all(&mut pm_b, entries.iter().copied()).unwrap();
        let bulk_flushes = pm_b.stats().flushes;

        assert!(
            bulk_flushes * 4 < inc_flushes,
            "bulk {bulk_flushes} vs incremental {inc_flushes} flushes"
        );
    }

    #[test]
    fn bulk_load_into_populated_table() {
        let (mut pm, mut t, _) = make(256, 16);
        for k in 0..50u64 {
            t.insert(&mut pm, k, k).unwrap();
        }
        let r = t.bulk_load(&mut pm, (100..200u64).map(|k| (k, k + 1)));
        assert_eq!(r.loaded + r.rejected, 100);
        assert_eq!(t.len(&pm), 50 + r.loaded as u64);
        for k in 0..50u64 {
            assert_eq!(t.get(&pm, &k), Some(k), "pre-existing key {k}");
        }
        t.check_consistency(&pm).unwrap();
    }

    #[test]
    fn crash_during_bulk_load_is_consistent() {
        use nvm_pmem::{run_with_crash, CrashPlan};
        type Table = GroupHash<SimPmem, u64, u64>;
        let cfg = GroupHashConfig::new(128, 16);
        let size = Table::required_size(&cfg);
        let region = Region::new(0, size);
        let entries: Vec<(u64, u64)> = (0..120u64).map(|k| (k, k + 7)).collect();

        for at in (0..400).step_by(7) {
            let mut pm = SimPmem::new(size, SimConfig::fast_test());
            let mut t = Table::create(&mut pm, region, cfg).unwrap();
            // Pre-commit a little base data.
            for k in 1000..1010u64 {
                t.insert(&mut pm, k, k).unwrap();
            }
            let base = pm.events();
            pm.set_crash_plan(Some(CrashPlan {
                at_event: base + at,
            }));
            let done = run_with_crash(|| {
                t.bulk_load(&mut pm, entries.iter().copied());
            })
            .is_ok();
            pm.crash(CrashResolution::Random(at));
            let mut t = Table::open(&mut pm, region).unwrap();
            t.recover(&mut pm);
            t.check_consistency(&pm)
                .unwrap_or_else(|e| panic!("crash at +{at}: {e}"));
            // Base data intact.
            for k in 1000..1010u64 {
                assert_eq!(t.get(&pm, &k), Some(k), "base key {k} at +{at}");
            }
            // Any surviving bulk entry must carry its correct value.
            for &(k, v) in &entries {
                if let Some(got) = t.get(&pm, &k) {
                    assert_eq!(got, v, "torn bulk entry {k} at +{at}");
                }
            }
            if done {
                break;
            }
        }
    }
}
