//! A reusable exhaustive crash-point checker.
//!
//! Several test suites in this workspace follow the same pattern: build a
//! state, run one operation with a crash injected at every mutation
//! event, resolve the crash under several adversarial policies, recover,
//! and check invariants. This module packages that pattern so downstream
//! users can crash-test *their own* structures built on [`SimPmem`] the
//! same way the workspace tests group hashing.
//!
//! # Example
//!
//! ```
//! use nvm_pmem::{Pmem, PmemRead, SimConfig, SimPmem};
//! use nvm_table::crashtest::{exhaust_crash_points, CrashCheck};
//! use nvm_table::TableError;
//!
//! // A toy "structure": one committed counter at offset 0.
//! let report = exhaust_crash_points(CrashCheck {
//!     setup: &|| {
//!         let mut pm = SimPmem::new(4096, SimConfig::fast_test());
//!         pm.write_u64(0, 41);
//!         pm.persist(0, 8);
//!         pm
//!     },
//!     op: &|pm| {
//!         pm.atomic_write_u64(0, 42);
//!         pm.persist(0, 8);
//!     },
//!     recover_and_check: &|pm| {
//!         let v = pm.read_u64(0);
//!         (v == 41 || v == 42)
//!             .then_some(())
//!             .ok_or_else(|| TableError::Corrupt(format!("torn counter: {v}")))
//!     },
//!     max_events: 100,
//! })
//! .unwrap();
//! assert!(report.crash_points >= 2);
//! ```

use crate::TableError;
use nvm_pmem::{run_with_crash, CrashPlan, CrashResolution, SimPmem};

/// One exhaustive crash-scan specification.
pub struct CrashCheck<'a> {
    /// Builds the pre-op state (fresh pool each crash point).
    pub setup: &'a dyn Fn() -> SimPmem,
    /// The operation under test.
    pub op: &'a dyn Fn(&mut SimPmem),
    /// Runs recovery and validates every invariant on the crashed pool.
    /// Return `Err` describing the violation.
    pub recover_and_check: &'a dyn Fn(&mut SimPmem) -> Result<(), TableError>,
    /// Safety bound on the op's mutation events (fails if exceeded).
    pub max_events: u64,
}

/// What a completed scan covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashReport {
    /// Distinct crash points exercised (the op's mutation-event count).
    pub crash_points: u64,
    /// Total (crash point × resolution) cases checked.
    pub cases: u64,
}

/// The adversarial resolutions every point is checked under. The
/// `Alternate` pair guarantees mixed persist/drop outcomes across dirty
/// words (both phases), which random seeds can miss on small footprints.
const RESOLUTIONS: [CrashResolution; 6] = [
    CrashResolution::DropUnflushed,
    CrashResolution::PersistAll,
    CrashResolution::Alternate {
        persist_first: true,
    },
    CrashResolution::Alternate {
        persist_first: false,
    },
    CrashResolution::Random(0x5EED),
    CrashResolution::Random(0xDEAD_BEEF),
];

/// Runs `spec.op` with a crash injected before every mutation event, under
/// every resolution in turn; each crashed state must pass
/// `recover_and_check`. Returns the coverage report, or the first
/// violation (annotated with its crash point and resolution).
pub fn exhaust_crash_points(spec: CrashCheck<'_>) -> Result<CrashReport, TableError> {
    let mut crash_points = 0u64;
    let mut cases = 0u64;
    for how in RESOLUTIONS {
        let mut event = 0u64;
        loop {
            let mut pm = (spec.setup)();
            let base = pm.events();
            pm.set_crash_plan(Some(CrashPlan {
                at_event: base + event,
            }));
            let completed = run_with_crash(|| (spec.op)(&mut pm)).is_ok();
            if completed {
                break; // every interior event of the op has been scanned
            }
            pm.crash(how);
            (spec.recover_and_check)(&mut pm).map_err(|e| {
                TableError::Corrupt(format!("crash at +{event} under {how:?}: {e}"))
            })?;
            cases += 1;
            event += 1;
            if event > spec.max_events {
                return Err(TableError::Config(format!(
                    "operation exceeded max_events = {}",
                    spec.max_events
                )));
            }
        }
        crash_points = crash_points.max(event);
    }
    Ok(CrashReport {
        crash_points,
        cases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_pmem::{Pmem, PmemRead, SimConfig, SimPmem};

    fn pool() -> SimPmem {
        SimPmem::new(4096, SimConfig::fast_test())
    }

    #[test]
    fn atomic_commit_pattern_passes() {
        // data-then-atomic-flag: the paper's idiom, which is crash safe.
        let report = exhaust_crash_points(CrashCheck {
            setup: &pool,
            op: &|pm| {
                pm.write(64, &[7u8; 16]);
                pm.persist(64, 16);
                pm.atomic_write_u64(0, 1); // flag commits the record
                pm.persist(0, 8);
            },
            recover_and_check: &|pm| {
                if pm.read_u64(0) == 1 {
                    let mut b = [0u8; 16];
                    pm.read(64, &mut b);
                    if b != [7u8; 16] {
                        return Err(TableError::Corrupt("flag set but record torn".into()));
                    }
                }
                Ok(())
            },
            max_events: 50,
        })
        .unwrap();
        assert!(report.crash_points >= 4);
        assert!(report.cases >= report.crash_points);
    }

    #[test]
    fn flag_before_data_is_caught() {
        // The broken ordering: flag first, data second. The checker must
        // find the crash point that exposes it.
        let err = exhaust_crash_points(CrashCheck {
            setup: &pool,
            op: &|pm| {
                pm.atomic_write_u64(0, 1);
                pm.persist(0, 8);
                pm.write(64, &[7u8; 16]);
                pm.persist(64, 16);
            },
            recover_and_check: &|pm| {
                if pm.read_u64(0) == 1 {
                    let mut b = [0u8; 16];
                    pm.read(64, &mut b);
                    if b != [7u8; 16] {
                        return Err(TableError::Corrupt("flag set but record missing".into()));
                    }
                }
                Ok(())
            },
            max_events: 50,
        })
        .unwrap_err();
        assert!(
            err.to_string().contains("flag set but record missing"),
            "{err}"
        );
    }

    #[test]
    fn shared_fence_ordering_bug_is_caught() {
        // A classic subtle bug: record and commit flag each flushed, but
        // only ONE trailing fence for both — the flushes are unordered
        // relative to each other until that fence, so a crash between the
        // flushes' issue and the fence can persist the flag without the
        // record.
        let err = exhaust_crash_points(CrashCheck {
            setup: &pool,
            op: &|pm| {
                pm.write(64, &[9u8; 8]);
                pm.flush(64, 8);
                pm.atomic_write_u64(0, 1);
                pm.flush(0, 8);
                pm.fence(); // one fence "for both" — not enough
            },
            recover_and_check: &|pm| {
                if pm.read_u64(0) == 1 && pm.read_u64(64) != u64::from_le_bytes([9; 8]) {
                    return Err(TableError::Corrupt(
                        "record not durable despite flag".into(),
                    ));
                }
                Ok(())
            },
            max_events: 50,
        })
        .unwrap_err();
        assert!(err.to_string().contains("not durable"), "{err}");
    }

    #[test]
    fn runaway_op_is_bounded() {
        let err = exhaust_crash_points(CrashCheck {
            setup: &pool,
            op: &|pm| {
                for i in 0..1000 {
                    pm.write_u64(i * 8 % 4096, 1);
                }
            },
            recover_and_check: &|_| Ok(()),
            max_events: 10,
        })
        .unwrap_err();
        assert!(err.to_string().contains("max_events"));
    }
}
