//! Exhaustive crash-point testing of the undo log itself.
//!
//! For a transaction updating several disjoint words, inject a crash at
//! every mutation event under every resolution; after recovery the data
//! must be *exactly* the pre-transaction state (uncommitted) or exactly
//! the post-transaction state (committed) — never a mixture.

use nvm_pmem::{
    run_with_crash, CrashPlan, CrashResolution, Pmem, PmemRead, Region, SimConfig, SimPmem,
};
use nvm_wal::UndoLog;

const DATA: usize = 0;
const LOG: usize = 2048;
const WORDS: usize = 5;

fn setup(initial: u64) -> (SimPmem, UndoLog) {
    let mut pm = SimPmem::new(16384, SimConfig::fast_test());
    for w in 0..WORDS {
        pm.write_u64(DATA + w * 8, initial + w as u64);
        pm.persist(DATA + w * 8, 8);
    }
    let log = UndoLog::create(&mut pm, Region::new(LOG, 8192));
    (pm, log)
}

/// The guarded transaction under test: log everything, then update
/// everything in place, then commit.
fn transaction(pm: &mut SimPmem, log: &mut UndoLog, new: u64) {
    log.begin(pm);
    for w in 0..WORDS {
        log.record(pm, DATA + w * 8, 8);
    }
    log.seal(pm);
    for w in 0..WORDS {
        pm.write_u64(DATA + w * 8, new + w as u64);
        pm.persist(DATA + w * 8, 8);
    }
    log.commit(pm);
}

#[test]
fn every_crash_point_is_all_or_nothing() {
    const OLD: u64 = 1000;
    const NEW: u64 = 2000;
    for how in [
        CrashResolution::DropUnflushed,
        CrashResolution::PersistAll,
        CrashResolution::Alternate {
            persist_first: true,
        },
        CrashResolution::Alternate {
            persist_first: false,
        },
        CrashResolution::Random(1),
        CrashResolution::Random(99),
    ] {
        let mut event = 0u64;
        loop {
            let (mut pm, mut log) = setup(OLD);
            let base = pm.events();
            pm.set_crash_plan(Some(CrashPlan {
                at_event: base + event,
            }));
            let done = run_with_crash(|| transaction(&mut pm, &mut log, NEW)).is_ok();
            if done {
                assert!(event > 10, "transaction suspiciously cheap");
                break;
            }
            pm.crash(how);

            let mut log2 = UndoLog::open(log.region());
            log2.recover(&mut pm);

            let words: Vec<u64> = (0..WORDS).map(|w| pm.read_u64(DATA + w * 8)).collect();
            let all_old = words.iter().enumerate().all(|(w, &v)| v == OLD + w as u64);
            let all_new = words.iter().enumerate().all(|(w, &v)| v == NEW + w as u64);
            assert!(
                all_old || all_new,
                "torn transaction at event {event} under {how:?}: {words:?}"
            );
            event += 1;
            assert!(event < 400, "transaction never completed");
        }
    }
}

#[test]
fn back_to_back_transactions_respect_boundaries() {
    // Crash during the SECOND transaction must roll back to the first
    // transaction's state, not to the initial state.
    const OLD: u64 = 10;
    const MID: u64 = 500;
    const NEW: u64 = 900;
    for event in 0..200u64 {
        let (mut pm, mut log) = setup(OLD);
        transaction(&mut pm, &mut log, MID);

        let base = pm.events();
        pm.set_crash_plan(Some(CrashPlan {
            at_event: base + event,
        }));
        let done = run_with_crash(|| transaction(&mut pm, &mut log, NEW)).is_ok();
        if done {
            break;
        }
        pm.crash(CrashResolution::Random(event));
        let mut log2 = UndoLog::open(log.region());
        log2.recover(&mut pm);

        let words: Vec<u64> = (0..WORDS).map(|w| pm.read_u64(DATA + w * 8)).collect();
        let all_mid = words.iter().enumerate().all(|(w, &v)| v == MID + w as u64);
        let all_new = words.iter().enumerate().all(|(w, &v)| v == NEW + w as u64);
        assert!(
            all_mid || all_new,
            "crash in tx2 (event {event}) exposed wrong state: {words:?}"
        );
        assert!(
            !words.iter().enumerate().any(|(w, &v)| v == OLD + w as u64),
            "rolled back too far: {words:?}"
        );
    }
}
