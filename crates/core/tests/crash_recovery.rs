//! Exhaustive crash-point testing of group hashing (paper §3.3–3.5).
//!
//! The paper argues informally that a crash at *any* instant of an insert
//! or delete leaves the table recoverable. These tests check that claim
//! mechanically: for every operation in a workload, for **every mutation
//! event** inside that operation, inject a crash, resolve the non-durable
//! words adversarially (all dropped / all persisted / randomized), re-open
//! the table from the raw pool bytes, run Algorithm 4, and verify
//!
//! 1. every structural invariant holds ([`check_consistency`]);
//! 2. all previously committed entries are intact;
//! 3. the in-flight operation is atomic: its key is either fully present
//!    (with the new value) or fully absent — never mangled.

use group_hash::{GroupHash, GroupHashConfig, HashScheme};
use nvm_pmem::{run_with_crash, CrashPlan, CrashResolution, Region, SimConfig, SimPmem};
use std::collections::BTreeMap;

type Table = GroupHash<SimPmem, u64, u64>;

fn fresh(cfg: GroupHashConfig) -> (SimPmem, Table, Region) {
    let size = Table::required_size(&cfg);
    let mut pm = SimPmem::new(size, SimConfig::fast_test());
    let region = Region::new(0, size);
    let t = Table::create(&mut pm, region, cfg).unwrap();
    (pm, t, region)
}

/// One workload step.
#[derive(Debug, Clone, Copy)]
enum Step {
    Insert(u64, u64),
    Remove(u64),
}

/// Runs `steps[..i]` fully, then `steps[i]` with a crash injected at
/// `event`, resolves, recovers, and checks all three properties above.
/// Returns `false` if the operation actually completed before the crash
/// point (event index beyond the op), which tells the caller to stop
/// scanning events for this step.
fn crash_at(
    cfg: GroupHashConfig,
    steps: &[Step],
    i: usize,
    event_offset: u64,
    how: CrashResolution,
) -> bool {
    let (mut pm, mut t, region) = fresh(cfg);
    // Oracle of committed state before the in-flight op.
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    for s in &steps[..i] {
        match *s {
            Step::Insert(k, v) => {
                t.insert(&mut pm, k, v).unwrap();
                oracle.insert(k, v);
            }
            Step::Remove(k) => {
                assert!(t.remove(&mut pm, &k));
                oracle.remove(&k);
            }
        }
    }

    let base_events = pm.events();
    pm.set_crash_plan(Some(CrashPlan {
        at_event: base_events + event_offset,
    }));
    let step = steps[i];
    let outcome = run_with_crash(|| match step {
        Step::Insert(k, v) => {
            t.insert(&mut pm, k, v).unwrap();
        }
        Step::Remove(k) => {
            assert!(t.remove(&mut pm, &k));
        }
    });
    if outcome.is_ok() {
        // The op used fewer events than event_offset: nothing to crash.
        pm.set_crash_plan(None);
        return false;
    }

    pm.crash(how);

    // Re-open purely from pool bytes and recover.
    let mut t = Table::open(&mut pm, region).unwrap();
    t.recover(&mut pm);
    t.check_consistency(&pm)
        .unwrap_or_else(|e| panic!("inconsistent after crash at +{event_offset} ({how:?}): {e}"));

    // Committed entries must be intact...
    let in_flight_key = match step {
        Step::Insert(k, _) => k,
        Step::Remove(k) => k,
    };
    for (&k, &v) in &oracle {
        if k == in_flight_key {
            continue; // the op targeting this key may have completed
        }
        assert_eq!(
            t.get(&pm, &k),
            Some(v),
            "committed key {k} lost (crash at +{event_offset}, {how:?})"
        );
    }
    // ...and the in-flight op must be atomic.
    match step {
        Step::Insert(k, v) => match t.get(&pm, &k) {
            None => {}
            Some(got) => assert_eq!(got, v, "torn insert of key {k}"),
        },
        Step::Remove(k) => match t.get(&pm, &k) {
            None => {}
            Some(got) => {
                assert_eq!(got, oracle[&k], "torn delete of key {k}");
            }
        },
    }
    true
}

/// Scans every crash event of step `i` under every resolution.
fn scan_step(cfg: GroupHashConfig, steps: &[Step], i: usize) {
    for how in [
        CrashResolution::DropUnflushed,
        CrashResolution::PersistAll,
        CrashResolution::Alternate { persist_first: true },
        CrashResolution::Alternate { persist_first: false },
        CrashResolution::Random(0xC0FFEE),
        CrashResolution::Random(42),
    ] {
        let mut event = 0u64;
        while crash_at(cfg, steps, i, event, how) {
            event += 1;
            assert!(event < 200, "operation used implausibly many events");
        }
    }
}

fn small_cfg() -> GroupHashConfig {
    GroupHashConfig::new(64, 16)
}

#[test]
fn insert_into_empty_slot_is_crash_atomic() {
    let steps = [Step::Insert(1, 100)];
    scan_step(small_cfg(), &steps, 0);
}

#[test]
fn insert_into_group_is_crash_atomic() {
    // Force level-2 placement: seed keys until one collides.
    let cfg = small_cfg();
    let (pm, t, _) = fresh(cfg);
    // Find two keys with the same level-1 slot.
    let base_slot = t.slot_of(&1000);
    let collider = (1001..)
        .find(|k| t.slot_of(k) == base_slot)
        .unwrap();
    let _ = (t, pm);
    let steps = [Step::Insert(1000, 1), Step::Insert(collider, 2)];
    scan_step(cfg, &steps, 1);
}

#[test]
fn delete_from_level1_is_crash_atomic() {
    let steps = [
        Step::Insert(5, 50),
        Step::Insert(6, 60),
        Step::Remove(5),
    ];
    scan_step(small_cfg(), &steps, 2);
}

#[test]
fn delete_from_group_is_crash_atomic() {
    let cfg = small_cfg();
    let (pm, t, _) = fresh(cfg);
    let base_slot = t.slot_of(&2000);
    let collider = (2001..).find(|k| t.slot_of(k) == base_slot).unwrap();
    let _ = (t, pm);
    let steps = [
        Step::Insert(2000, 1),
        Step::Insert(collider, 2),
        Step::Remove(collider), // lives in level 2
    ];
    scan_step(cfg, &steps, 2);
}

#[test]
fn crash_during_longer_history() {
    // A denser table: crashes land amid populated bitmap words.
    let mut steps: Vec<Step> = (0..40u64).map(|k| Step::Insert(k, k * 7)).collect();
    steps.push(Step::Remove(11));
    steps.push(Step::Insert(100, 1));
    let last = steps.len() - 1;
    scan_step(small_cfg(), &steps, last);
    scan_step(small_cfg(), &steps, last - 1);
}

#[test]
fn recovery_is_idempotent_after_crash() {
    let cfg = small_cfg();
    let steps = [Step::Insert(3, 33)];
    // Crash mid-insert, recover twice: second recovery must be a no-op.
    let (mut pm, mut t, region) = fresh(cfg);
    pm.set_crash_plan(Some(CrashPlan { at_event: 2 }));
    let _ = run_with_crash(|| t.insert(&mut pm, steps[0].key(), 33));
    pm.crash(CrashResolution::Random(9));
    let mut t = Table::open(&mut pm, region).unwrap();
    t.recover(&mut pm);
    let image1 = pm.raw().to_vec();
    t.recover(&mut pm);
    t.check_consistency(&pm).unwrap();
    assert_eq!(pm.raw(), &image1[..], "second recovery changed state");
}

impl Step {
    fn key(&self) -> u64 {
        match *self {
            Step::Insert(k, _) => k,
            Step::Remove(k) => k,
        }
    }
}

#[test]
fn logged_ablation_is_also_crash_safe() {
    use group_hash::CommitStrategy;
    let cfg = small_cfg().with_commit(CommitStrategy::UndoLog);
    let steps = [Step::Insert(9, 90), Step::Remove(9)];
    scan_step(cfg, &steps, 0);
    scan_step(cfg, &steps, 1);
}

#[test]
fn two_choice_extension_is_also_crash_safe() {
    use group_hash::ChoiceMode;
    let cfg = small_cfg().with_choice(ChoiceMode::TwoChoice);
    let steps = [Step::Insert(7, 70), Step::Insert(8, 80), Step::Remove(7)];
    scan_step(cfg, &steps, 1);
    scan_step(cfg, &steps, 2);
}
