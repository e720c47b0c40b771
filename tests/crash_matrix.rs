//! Cross-scheme crash-consistency matrix.
//!
//! The paper's claim, stated adversarially:
//!
//! * group hashing and the logged (`-L`) baselines recover to a consistent
//!   state from a crash at **any** mutation event;
//! * the bare baselines do **not** always (that is why the paper adds
//!   logging to them for a fair comparison) — we demonstrate at least one
//!   corrupting crash for bare linear probing's backward-shift delete.

use gh_harness::{build_any, AnyScheme, SchemeKind};
use group_hashing::pmem::{
    run_with_crash, CrashPlan, CrashResolution, PmemRead, SimConfig, SimPmem,
};
use group_hashing::table::HashScheme;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Builds a populated table, then crashes one extra operation at every
/// event offset under several resolutions; recovery must restore full
/// consistency and all committed items each time.
fn crash_everywhere(kind: SchemeKind) {
    let seed = 11;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let keys: Vec<u64> = (0..160u64).collect();

    for op_is_delete in [false, true] {
        for how in [
            CrashResolution::DropUnflushed,
            CrashResolution::PersistAll,
            CrashResolution::Alternate {
                persist_first: true,
            },
            CrashResolution::Alternate {
                persist_first: false,
            },
            CrashResolution::Random(7),
        ] {
            let mut event = 0u64;
            loop {
                let (mut pm, mut table) =
                    build_any::<u64, u64>(kind, 1 << 9, seed, SimConfig::fast_test(), 32);
                for &k in &keys {
                    table.insert(&mut pm, k, k + 1).unwrap();
                }
                let victim = keys[rng.gen_range(0..keys.len())];
                let fresh = 10_000 + event;

                let base = pm.events();
                pm.set_crash_plan(Some(CrashPlan {
                    at_event: base + event,
                }));
                let completed = run_with_crash(|| {
                    if op_is_delete {
                        assert!(table.remove(&mut pm, &victim));
                    } else {
                        table.insert(&mut pm, fresh, 1).unwrap();
                    }
                })
                .is_ok();
                if completed {
                    break; // scanned every event of this op
                }
                pm.crash(how);

                // Re-open from raw bytes.
                let mut table = reopen(kind, &mut pm);
                table.recover(&mut pm);
                table.check_consistency(&pm).unwrap_or_else(|e| {
                    panic!("{kind:?} delete={op_is_delete} event={event} {how:?}: {e}")
                });
                // Committed keys (other than an in-flight delete victim)
                // must be present with their values.
                for &k in &keys {
                    if op_is_delete && k == victim {
                        let got = table.get(&pm, &k);
                        assert!(
                            got == Some(k + 1) || got.is_none(),
                            "{kind:?}: torn delete of {k}"
                        );
                    } else {
                        assert_eq!(
                            table.get(&pm, &k),
                            Some(k + 1),
                            "{kind:?} delete={op_is_delete} event={event} {how:?}: lost key {k}"
                        );
                    }
                }
                event += 1;
                assert!(event < 500, "{kind:?}: operation never completed");
            }
        }
    }
}

/// Reopens a scheme from pool bytes (sizes must match `crash_everywhere`).
fn reopen(kind: SchemeKind, pm: &mut SimPmem) -> AnyScheme<SimPmem, u64, u64> {
    use group_hashing::baselines::{Iceberg, LinearProbing, PathHash, Pfht};
    use group_hashing::core::GroupHash;
    use group_hashing::pmem::Region;
    let region = Region::new(0, pm.len());
    match kind {
        SchemeKind::Linear | SchemeKind::LinearL => {
            AnyScheme::Linear(LinearProbing::open(pm, region).unwrap())
        }
        SchemeKind::Pfht | SchemeKind::PfhtL => AnyScheme::Pfht(Pfht::open(pm, region).unwrap()),
        SchemeKind::Path | SchemeKind::PathL => {
            AnyScheme::Path(PathHash::open(pm, region).unwrap())
        }
        SchemeKind::Iceberg | SchemeKind::IcebergL => {
            AnyScheme::Iceberg(Iceberg::open(pm, region).unwrap())
        }
        SchemeKind::Group | SchemeKind::Group2C => {
            AnyScheme::Group(GroupHash::open(pm, region).unwrap())
        }
    }
}

#[test]
fn group_hash_crash_safe_everywhere() {
    crash_everywhere(SchemeKind::Group);
}

#[test]
fn linear_logged_crash_safe_everywhere() {
    crash_everywhere(SchemeKind::LinearL);
}

#[test]
fn pfht_logged_crash_safe_everywhere() {
    crash_everywhere(SchemeKind::PfhtL);
}

#[test]
fn path_logged_crash_safe_everywhere() {
    crash_everywhere(SchemeKind::PathL);
}

/// Unlike the other bare baselines, *bare* iceberg is crash-safe at every
/// event: entries never move after insert, so its delete is a pure
/// bitmap retract — there is no multi-cell shift or displacement for a
/// crash to tear (the volatile fingerprint words are rebuilt on open).
#[test]
fn bare_iceberg_crash_safe_everywhere() {
    crash_everywhere(SchemeKind::Iceberg);
}

#[test]
fn iceberg_logged_crash_safe_everywhere() {
    crash_everywhere(SchemeKind::IcebergL);
}

/// Bare linear probing's backward-shift delete is NOT crash-safe: find a
/// crash point after which a committed key is unreachable or duplicated.
/// This is the paper's §2.2 motivation made executable.
#[test]
fn bare_linear_delete_can_corrupt() {
    let seed = 13;
    let mut corrupted = false;
    'outer: for victim_idx in 0..40usize {
        let mut event = 0u64;
        loop {
            let (mut pm, mut table) =
                build_any::<u64, u64>(SchemeKind::Linear, 1 << 8, seed, SimConfig::fast_test(), 32);
            // Dense fill to force long clusters (and thus multi-cell
            // backward shifts).
            let keys: Vec<u64> = (0..200u64).collect();
            for &k in &keys {
                table.insert(&mut pm, k, k + 1).unwrap();
            }
            let victim = keys[victim_idx * 5];

            let base = pm.events();
            pm.set_crash_plan(Some(CrashPlan {
                at_event: base + event,
            }));
            let completed = run_with_crash(|| {
                assert!(table.remove(&mut pm, &victim));
            })
            .is_ok();
            if completed {
                break;
            }
            // Most adversarial: everything unflushed persists (ordering
            // violations become visible).
            pm.crash(CrashResolution::PersistAll);
            let mut table = reopen(SchemeKind::Linear, &mut pm);
            table.recover(&mut pm);

            let structurally_broken = table.check_consistency(&pm).is_err();
            let lost_committed = keys
                .iter()
                .any(|&k| k != victim && table.get(&pm, &k) != Some(k + 1));
            if structurally_broken || lost_committed {
                corrupted = true;
                break 'outer;
            }
            event += 1;
            assert!(event < 2000);
        }
    }
    assert!(
        corrupted,
        "expected at least one corrupting crash point in bare linear delete \
         (otherwise the paper's motivation would not hold)"
    );
}
