//! In-module tests for the group table, including the pinned
//! persistence-cost budgets the refactors must not disturb.

use super::*;
use crate::config::ChoiceMode;
use crate::testutil::{make, make_cfg};
use nvm_pmem::{PmemRead, SimConfig, SimPmem};

#[test]
fn insert_get_remove_roundtrip() {
    let (mut pm, mut t, _) = make(256, 16);
    assert_eq!(t.get(&pm, &5), None);
    t.insert(&mut pm, 5, 50).unwrap();
    assert_eq!(t.get(&pm, &5), Some(50));
    assert_eq!(t.len(&pm), 1);
    assert!(t.remove(&mut pm, &5));
    assert_eq!(t.get(&pm, &5), None);
    assert_eq!(t.len(&pm), 0);
    assert!(!t.remove(&mut pm, &5));
}

#[test]
fn collisions_go_to_matched_group() {
    let (mut pm, mut t, _) = make(256, 16);
    // Insert enough keys to force level-2 placements.
    for k in 0..200u64 {
        t.insert(&mut pm, k, k * 10).unwrap();
    }
    for k in 0..200u64 {
        assert_eq!(t.get(&pm, &k), Some(k * 10), "key {k}");
    }
    t.check_consistency(&pm).unwrap();
    assert_eq!(t.len(&pm), 200);
}

#[test]
fn fill_to_capacity_overflows_gracefully() {
    let (mut pm, mut t, _) = make(64, 64); // single group: capacity 128
    let mut inserted = 0u64;
    let mut k = 0u64;
    while inserted < 128 {
        match t.insert(&mut pm, k, k) {
            Ok(()) => inserted += 1,
            Err(InsertError::TableFull) => break,
            Err(e) => panic!("unexpected error: {e}"),
        }
        k += 1;
    }
    // A single-group table fills its level-2 group completely; level 1
    // keeps only direct hits, so TableFull must appear at or before
    // 128 and after 64 (all level-2 cells usable).
    assert!(t.len(&pm) >= 64, "len {}", t.len(&pm));
    assert!(t.len(&pm) <= 128);
    t.check_consistency(&pm).unwrap();
    // Everything inserted is still retrievable.
    for key in 0..k {
        if t.get(&pm, &key).is_some() {
            assert_eq!(t.get(&pm, &key), Some(key));
        }
    }
}

#[test]
fn duplicate_insert_shadows_until_removed() {
    // Paper semantics: insert doesn't probe for duplicates.
    let (mut pm, mut t, _) = make(256, 16);
    t.insert(&mut pm, 7, 1).unwrap();
    t.insert(&mut pm, 7, 2).unwrap();
    // One of the copies is visible; removing twice drains both.
    assert!(t.get(&pm, &7).is_some());
    assert!(t.remove(&mut pm, &7));
    assert!(t.get(&pm, &7).is_some());
    assert!(t.remove(&mut pm, &7));
    assert_eq!(t.get(&pm, &7), None);
}

#[test]
fn insert_unique_rejects_duplicates() {
    let (mut pm, mut t, _) = make(256, 16);
    t.insert_unique(&mut pm, 7, 1).unwrap();
    assert_eq!(
        t.insert_unique(&mut pm, 7, 2),
        Err(InsertError::DuplicateKey)
    );
    assert_eq!(t.get(&pm, &7), Some(1));
}

#[test]
fn update_in_place_swaps_value() {
    let (mut pm, mut t, _) = make(256, 16);
    for k in 0..120u64 {
        t.insert(&mut pm, k, k).unwrap();
    }
    assert!(t.update_in_place(&mut pm, &7, 700));
    assert_eq!(t.get(&pm, &7), Some(700));
    assert!(!t.update_in_place(&mut pm, &9999, 1));
    assert_eq!(t.len(&pm), 120);
    t.check_consistency(&pm).unwrap();
}

#[test]
fn update_in_place_is_atomic_under_crash() {
    use nvm_pmem::{run_with_crash, CrashPlan, CrashResolution};
    let (pm0, t0, region) = make(64, 16);
    let mut pm0 = pm0;
    let mut t0 = t0;
    t0.insert(&mut pm0, 5, 111).unwrap();
    for at in 0..20 {
        let mut pm = pm0.clone();
        let mut t = GroupHash::<SimPmem, u64, u64>::open(&mut pm, region).unwrap();
        let base = pm.events();
        pm.set_crash_plan(Some(CrashPlan { at_event: base + at }));
        let done = run_with_crash(|| t.update_in_place(&mut pm, &5, 222)).is_ok();
        pm.crash(CrashResolution::Random(at));
        let mut t = GroupHash::<SimPmem, u64, u64>::open(&mut pm, region).unwrap();
        t.recover(&mut pm);
        let got = t.get(&pm, &5);
        assert!(
            got == Some(111) || got == Some(222),
            "torn update at +{at}: {got:?}"
        );
        if done {
            break;
        }
    }
}

#[test]
fn open_matches_created_table() {
    let (mut pm, mut t, region) = make(256, 16);
    for k in 0..100u64 {
        t.insert(&mut pm, k, k + 1000).unwrap();
    }
    let t2 = GroupHash::<SimPmem, u64, u64>::open(&mut pm, region).unwrap();
    assert_eq!(t2.len(&pm), 100);
    for k in 0..100u64 {
        assert_eq!(t2.get(&pm, &k), Some(k + 1000));
    }
    t2.check_consistency(&pm).unwrap();
}

#[test]
fn open_rejects_wrong_types() {
    let (mut pm, _t, region) = make(256, 16);
    assert!(GroupHash::<SimPmem, u64, u128>::open(&mut pm, region).is_err());
    assert!(GroupHash::<SimPmem, [u8; 16], u64>::open(&mut pm, region).is_err());
}

#[test]
fn for_each_entry_visits_all() {
    let (mut pm, mut t, _) = make(256, 16);
    for k in 0..50u64 {
        t.insert(&mut pm, k, k * 2).unwrap();
    }
    let mut seen = std::collections::HashMap::new();
    t.for_each_entry(&pm, |k, v| {
        seen.insert(k, v);
    });
    assert_eq!(seen.len(), 50);
    for k in 0..50u64 {
        assert_eq!(seen[&k], k * 2);
    }
}

#[test]
fn wide_key_value_types() {
    let cfg = GroupHashConfig::new(128, 16);
    let size = GroupHash::<SimPmem, [u8; 16], [u8; 16]>::required_size(&cfg);
    let mut pm = SimPmem::new(size, SimConfig::fast_test());
    let mut t =
        GroupHash::<SimPmem, [u8; 16], [u8; 16]>::create(&mut pm, Region::new(0, size), cfg)
            .unwrap();
    let k = [0xAB; 16];
    let v = [0xCD; 16];
    t.insert(&mut pm, k, v).unwrap();
    assert_eq!(t.get(&pm, &k), Some(v));
    t.check_consistency(&pm).unwrap();
}

#[test]
fn two_choice_behaves_identically() {
    let cfg = GroupHashConfig::new(256, 16).with_choice(ChoiceMode::TwoChoice);
    let (mut pm, mut t, region) = make_cfg(cfg);
    for k in 0..200u64 {
        t.insert(&mut pm, k, k + 9).unwrap();
    }
    for k in 0..200u64 {
        assert_eq!(t.get(&pm, &k), Some(k + 9));
    }
    t.check_consistency(&pm).unwrap();
    for k in 0..100u64 {
        assert!(t.remove(&mut pm, &k));
    }
    assert_eq!(t.len(&pm), 100);
    t.check_consistency(&pm).unwrap();
    // Reopen keeps the mode.
    let t2 = GroupHash::<SimPmem, u64, u64>::open(&mut pm, region).unwrap();
    assert_eq!(t2.config().choice, ChoiceMode::TwoChoice);
    assert_eq!(t2.len(&pm), 100);
}

/// The persisted flags word holds exactly three knob bits (1 = undo log,
/// 8 = two-choice, 16 = fingerprint cache). Any other bit, including the
/// two removed knobs' bits 2 and 4, makes `open` refuse the pool instead
/// of opening it as some other configuration.
#[test]
fn open_refuses_unknown_flag_bits() {
    // The flags word is geometry slot 4 of the header (offset 56).
    const FLAGS_OFF: usize = 56;
    let knobs = GroupHashConfig::new(256, 16)
        .with_choice(ChoiceMode::TwoChoice)
        .with_fp_mode(FpMode::On)
        .with_commit(CommitStrategy::UndoLog);
    for cfg in [GroupHashConfig::new(256, 16), knobs] {
        let (mut pm, mut t, region) = make_cfg(cfg);
        for k in 0..100u64 {
            t.insert(&mut pm, k, k + 1).unwrap();
        }
        assert_eq!(pm.read_u64(region.off + FLAGS_OFF), cfg.flags());
        let t2 = GroupHash::<SimPmem, u64, u64>::open(&mut pm, region).unwrap();
        assert_eq!(*t2.config(), cfg);
        assert_eq!(t2.len(&pm), 100);
        t2.check_consistency(&pm).unwrap();
    }
    for bad in [2u64, 4, 1 << 40] {
        let (mut pm, _, region) = make(256, 16);
        pm.write_u64(region.off + FLAGS_OFF, bad);
        match GroupHash::<SimPmem, u64, u64>::open(&mut pm, region) {
            Err(TableError::Corrupt(msg)) => assert!(msg.contains("removed"), "{msg}"),
            other => panic!("flags {bad:#x}: {:?}", other.map(|t| *t.config())),
        }
    }
}

#[test]
fn two_choice_improves_utilization() {
    // The paper's §4.4 claim: a second hash function raises the
    // space-utilization ratio (at a locality cost).
    let fill_until_full = |cfg: GroupHashConfig| {
        let (mut pm, mut t, _) = make_cfg(cfg);
        let mut k = 0u64;
        loop {
            match t.insert(&mut pm, k.wrapping_mul(0x9E3779B97F4A7C15), k) {
                Ok(()) => k += 1,
                Err(InsertError::TableFull) => break,
                Err(e) => panic!("{e}"),
            }
        }
        t.len(&pm) as f64 / t.capacity() as f64
    };
    let single = fill_until_full(GroupHashConfig::new(512, 64));
    let double = fill_until_full(
        GroupHashConfig::new(512, 64).with_choice(ChoiceMode::TwoChoice),
    );
    assert!(
        double > single + 0.03,
        "two-choice {double:.3} should beat single {single:.3}"
    );
}

#[test]
fn logged_commit_behaves_identically() {
    let cfg = GroupHashConfig::new(256, 16).with_commit(CommitStrategy::UndoLog);
    let (mut pm, mut t, _) = make_cfg(cfg);
    for k in 0..100u64 {
        t.insert(&mut pm, k, k + 5).unwrap();
    }
    for k in 0..50u64 {
        assert!(t.remove(&mut pm, &k));
    }
    for k in 50..100u64 {
        assert_eq!(t.get(&pm, &k), Some(k + 5));
    }
    t.check_consistency(&pm).unwrap();
}

#[test]
fn fingerprint_mode_behaves_identically() {
    let cfg = GroupHashConfig::new(256, 16).with_fp_mode(FpMode::On);
    let (mut pm, mut t, region) = make_cfg(cfg);
    for k in 0..200u64 {
        t.insert(&mut pm, k, k * 7).unwrap();
    }
    for k in 0..200u64 {
        assert_eq!(t.get(&pm, &k), Some(k * 7));
    }
    for k in 200..400u64 {
        assert_eq!(t.get(&pm, &k), None, "negative lookup {k}");
    }
    t.check_consistency(&pm).unwrap(); // includes verify_fp_cache
    for k in 0..100u64 {
        assert!(t.remove(&mut pm, &k));
        assert_eq!(t.get(&pm, &k), None);
    }
    assert!(t.update_in_place(&mut pm, &150, 1));
    assert_eq!(t.get(&pm, &150), Some(1));
    t.check_consistency(&pm).unwrap();
    // Reopen keeps the mode and rebuilds an agreeing cache.
    let t2 = GroupHash::<SimPmem, u64, u64>::open(&mut pm, region).unwrap();
    assert_eq!(t2.config().fp, FpMode::On);
    t2.verify_fp_cache(&pm).unwrap();
    for k in 100..200u64 {
        assert_eq!(t2.get(&pm, &k), Some(if k == 150 { 1 } else { k * 7 }));
    }
}

#[test]
fn fingerprint_matches_off_mode_state() {
    // Same ops, fp on vs off: the NVM image must be bit-identical
    // (the cache is a pure accelerator).
    let (mut pm_off, mut t_off, _) = make(256, 16);
    let cfg = GroupHashConfig::new(256, 16).with_fp_mode(FpMode::On);
    let (mut pm_on, mut t_on, _) = make_cfg(cfg);
    for k in 0..150u64 {
        t_off.insert(&mut pm_off, k, k).unwrap();
        t_on.insert(&mut pm_on, k, k).unwrap();
    }
    for k in 0..50u64 {
        assert_eq!(t_off.remove(&mut pm_off, &k), t_on.remove(&mut pm_on, &k));
    }
    // Compare the whole pool except the header's flags slot (the
    // persisted FpMode bit is the single intended difference).
    let len = pm_off.len();
    let mut a = vec![0u8; len];
    let mut b = vec![0u8; len];
    pm_off.read(0, &mut a);
    pm_on.read(0, &mut b);
    // The flags geometry slot (header offset 56) is the single
    // intended difference: the persisted FpMode bit.
    let diff: Vec<usize> = (0..len).filter(|&i| a[i] != b[i]).collect();
    assert!(
        !diff.is_empty() && diff.iter().all(|&i| (56..64).contains(&i)),
        "unexpected NVM divergence at offsets {:?}",
        &diff[..diff.len().min(8)]
    );
}

#[test]
fn fingerprint_two_choice_roundtrip() {
    let cfg = GroupHashConfig::new(256, 16)
        .with_choice(ChoiceMode::TwoChoice)
        .with_fp_mode(FpMode::On);
    let (mut pm, mut t, _) = make_cfg(cfg);
    for k in 0..220u64 {
        t.insert(&mut pm, k, k + 3).unwrap();
    }
    for k in 0..220u64 {
        assert_eq!(t.get(&pm, &k), Some(k + 3));
    }
    for k in 1000..1200u64 {
        assert_eq!(t.get(&pm, &k), None);
    }
    t.check_consistency(&pm).unwrap();
}

#[test]
fn fingerprint_insert_flush_budget_unchanged() {
    // The cache must be free on the write path: exactly the paper's
    // 3 flushes / 3 fences per insert, and identical remove costs.
    let (mut pm_off, mut t_off, _) = make(256, 16);
    let cfg = GroupHashConfig::new(256, 16).with_fp_mode(FpMode::On);
    let (mut pm_on, mut t_on, _) = make_cfg(cfg);
    pm_off.reset_stats();
    pm_on.reset_stats();
    t_off.insert(&mut pm_off, 1, 1).unwrap();
    t_on.insert(&mut pm_on, 1, 1).unwrap();
    assert_eq!(pm_on.stats().flushes, 3);
    assert_eq!(pm_on.stats().fences, 3);
    assert_eq!(pm_on.stats().flushes, pm_off.stats().flushes);
    assert_eq!(pm_on.stats().fences, pm_off.stats().fences);
    assert_eq!(pm_on.stats().writes, pm_off.stats().writes);
    assert_eq!(pm_on.stats().atomic_writes, pm_off.stats().atomic_writes);
    pm_off.reset_stats();
    pm_on.reset_stats();
    assert!(t_off.remove(&mut pm_off, &1));
    assert!(t_on.remove(&mut pm_on, &1));
    assert_eq!(pm_on.stats().flushes, pm_off.stats().flushes);
    assert_eq!(pm_on.stats().fences, pm_off.stats().fences);
    assert_eq!(pm_on.stats().bytes_written, pm_off.stats().bytes_written);
}

#[test]
fn fingerprint_cuts_key_reads_on_negative_lookups() {
    // The accelerator's whole point: far fewer pool reads when the
    // probed keys are absent. (bytes_read compares the full probe
    // path; the harness experiment quantifies the cell-key reads.)
    let run = |fp: FpMode| {
        let cfg = GroupHashConfig::new(1 << 12, 64).with_fp_mode(fp);
        let (mut pm, mut t, _) = make_cfg(cfg);
        for k in 0..4000u64 {
            t.insert(&mut pm, k, k).unwrap();
        }
        pm.reset_stats();
        for k in 100_000..101_000u64 {
            assert_eq!(t.get(&pm, &k), None);
        }
        pm.stats().bytes_read
    };
    let off = run(FpMode::Off);
    let on = run(FpMode::On);
    assert!(
        on * 2 < off,
        "fp cache should halve negative-probe NVM reads: {on} vs {off}"
    );
}

#[test]
fn fingerprint_counters_and_probe_parity() {
    // Probe histograms are defined to be mode-independent, and the
    // fingerprint counters must account for every occupied cell the
    // scan passed: key_reads = hits + false_positives.
    let run = |fp: FpMode| {
        let cfg = GroupHashConfig::new(512, 32).with_fp_mode(fp);
        let (mut pm, mut t, _) = make_cfg(cfg);
        for k in 0..700u64 {
            let _ = t.insert(&mut pm, k, k);
        }
        for k in 0..700u64 {
            let _ = t.get(&pm, &k);
        }
        for k in 5000..5500u64 {
            assert_eq!(t.get(&pm, &k), None);
        }
        t
    };
    let t_off = run(FpMode::Off);
    let t_on = run(FpMode::On);
    let (i_off, i_on) = (&t_off.instr, &t_on.instr);
    assert_eq!(i_off.probe.count(), i_on.probe.count());
    assert_eq!(i_off.probe.to_json().to_string(), i_on.probe.to_json().to_string());
    let f = &i_on.fingerprint;
    assert_eq!(f.key_reads.get(), f.hits.get() + f.false_positives.get());
    assert!(f.skips.get() > 0, "tag filter never skipped a cell");
    assert!(f.key_reads.get() < i_off.fingerprint.key_reads.get());
    // Off mode: no filter outcomes, only raw key reads.
    assert_eq!(i_off.fingerprint.hits.get(), 0);
    assert_eq!(i_off.fingerprint.skips.get(), 0);
}

#[test]
fn paper_insert_flush_budget() {
    // The paper's insert: persist cell + persist bitmap + persist count
    // = 3 flushed lines, 3 fences. No more (that is the whole point).
    let (mut pm, mut t, _) = make(256, 16);
    pm.reset_stats();
    t.insert(&mut pm, 1, 1).unwrap();
    assert_eq!(pm.stats().flushes, 3);
    assert_eq!(pm.stats().fences, 3);
    // And the logged ablation costs strictly more.
    let cfg = GroupHashConfig::new(256, 16).with_commit(CommitStrategy::UndoLog);
    let (mut pm_l, mut tl, _) = make_cfg(cfg);
    pm_l.reset_stats();
    tl.insert(&mut pm_l, 1, 1).unwrap();
    assert!(pm_l.stats().flushes >= 2 * pm.stats().flushes);
}
