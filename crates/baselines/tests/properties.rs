//! Property-based tests for the baseline schemes.

use nvm_baselines::{LinearProbing, PathHash, Pfht};
use nvm_pmem::{Region, SimConfig, SimPmem};
use nvm_table::{ConsistencyMode, HashScheme};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u16, u64),
    Remove(u16),
    Get(u16),
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            ((0u16..200), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (0u16..200).prop_map(Op::Remove),
            (0u16..200).prop_map(Op::Get),
        ],
        1..250,
    )
}

/// Drives any scheme against a HashMap oracle, then checks consistency.
fn drive<S: HashScheme<SimPmem, u64, u64>>(
    pm: &mut SimPmem,
    table: &mut S,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let mut oracle: HashMap<u64, u64> = HashMap::new();
    for op in ops {
        match *op {
            Op::Insert(k, v) => {
                let k = k as u64;
                if oracle.contains_key(&k) {
                    continue;
                }
                if table.insert(pm, k, v).is_ok() {
                    oracle.insert(k, v);
                }
            }
            Op::Remove(k) => {
                let k = k as u64;
                prop_assert_eq!(table.remove(pm, &k), oracle.remove(&k).is_some());
            }
            Op::Get(k) => {
                let k = k as u64;
                prop_assert_eq!(table.get(pm, &k), oracle.get(&k).copied());
            }
        }
    }
    prop_assert_eq!(table.len(pm), oracle.len() as u64);
    table
        .check_consistency(pm)
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn linear_probing_oracle(ops in ops_strategy()) {
        for mode in [ConsistencyMode::None, ConsistencyMode::UndoLog] {
            let size = LinearProbing::<SimPmem, u64, u64>::required_size(512);
            let mut pm = SimPmem::new(size, SimConfig::fast_test());
            let mut t =
                LinearProbing::create(&mut pm, Region::new(0, size), 512, 3, mode).unwrap();
            drive(&mut pm, &mut t, &ops)?;
        }
    }

    #[test]
    fn pfht_oracle(ops in ops_strategy()) {
        for mode in [ConsistencyMode::None, ConsistencyMode::UndoLog] {
            let size = Pfht::<SimPmem, u64, u64>::required_size(128, 16);
            let mut pm = SimPmem::new(size, SimConfig::fast_test());
            let mut t =
                Pfht::create(&mut pm, Region::new(0, size), 128, 16, 3, mode).unwrap();
            drive(&mut pm, &mut t, &ops)?;
        }
    }

    #[test]
    fn path_hash_oracle(ops in ops_strategy()) {
        for mode in [ConsistencyMode::None, ConsistencyMode::UndoLog] {
            let size = PathHash::<SimPmem, u64, u64>::required_size(9, 6);
            let mut pm = SimPmem::new(size, SimConfig::fast_test());
            let mut t =
                PathHash::create(&mut pm, Region::new(0, size), 9, 6, 3, mode).unwrap();
            drive(&mut pm, &mut t, &ops)?;
        }
    }

    /// Linear probing's probe invariant survives arbitrary interleaved
    /// deletes (the backward shift is the subtle part).
    #[test]
    fn linear_delete_storm(keys in prop::collection::hash_set(0u64..300, 30..120), drop_every in 2usize..5) {
        let size = LinearProbing::<SimPmem, u64, u64>::required_size(512);
        let mut pm = SimPmem::new(size, SimConfig::fast_test());
        let mut t = LinearProbing::create(
            &mut pm,
            Region::new(0, size),
            512,
            3,
            ConsistencyMode::None,
        )
        .unwrap();
        let keys: Vec<u64> = keys.into_iter().collect();
        for &k in &keys {
            t.insert(&mut pm, k, k).unwrap();
        }
        for (i, &k) in keys.iter().enumerate() {
            if i % drop_every == 0 {
                prop_assert!(t.remove(&mut pm, &k));
                t.check_consistency(&pm).map_err(|e| TestCaseError::fail(e.to_string()))?;
            }
        }
        for (i, &k) in keys.iter().enumerate() {
            let expect = if i % drop_every == 0 { None } else { Some(k) };
            prop_assert_eq!(t.get(&pm, &k), expect);
        }
    }

    /// PFHT displacement never loses or duplicates items even under heavy
    /// pressure near capacity.
    #[test]
    fn pfht_displacement_pressure(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let size = Pfht::<SimPmem, u64, u64>::required_size(32, 8); // 136 cells
        let mut pm = SimPmem::new(size, SimConfig::fast_test());
        let mut t = Pfht::create(
            &mut pm,
            Region::new(0, size),
            32,
            8,
            seed,
            ConsistencyMode::None,
        )
        .unwrap();
        let mut present: HashMap<u64, u64> = HashMap::new();
        for _ in 0..600 {
            let k: u64 = rng.gen_range(0..250);
            if present.remove(&k).is_some() {
                prop_assert!(t.remove(&mut pm, &k));
            } else if t.insert(&mut pm, k, k + 7).is_ok() {
                present.insert(k, k + 7);
            }
        }
        for (&k, &v) in &present {
            prop_assert_eq!(t.get(&pm, &k), Some(v));
        }
        t.check_consistency(&pm).map_err(|e| TestCaseError::fail(e.to_string()))?;
    }
}
