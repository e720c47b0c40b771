//! Crash injection for consistency testing.
//!
//! [`SimPmem`](crate::SimPmem) counts *mutation events* (writes, per-line
//! flushes, fences). A [`CrashPlan`] arms the simulator to panic with a
//! [`CrashSignal`] immediately **before** applying event number `at_event`,
//! so a plan with `at_event = k` leaves exactly the first `k` events
//! applied. A test harness enumerates `k` over an operation's whole event
//! range and, for each prefix, resolves the crash state and checks that
//! recovery restores every invariant.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// Arms the simulator to crash at a specific mutation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Zero-based event index at which to crash. `0` crashes before the
    /// first mutation.
    pub at_event: u64,
}

/// Panic payload used for simulated crashes. Carried by unwinding so that
/// table code needs no `Result` plumbing on every store — exactly like a
/// real power failure, it can strike between any two instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSignal {
    /// The event index at which the crash fired.
    pub at_event: u64,
}

/// How unfenced dirty words resolve at crash time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashResolution {
    /// Each non-durable dirty 8-byte word independently persists or not,
    /// decided by a seeded PRNG. Models arbitrary cache eviction order.
    Random(u64),
    /// No non-durable word persists. The adversary for missing flushes.
    DropUnflushed,
    /// Every dirty word persists (as if all lines were evicted just in
    /// time). The adversary for wrong *ordering* rather than missing
    /// persistence.
    PersistAll,
    /// Deterministically alternates drop/persist across the dirty words
    /// (in address order), starting with `persist_first`. Guarantees
    /// *mixed* outcomes — e.g. a commit flag persisting while its record
    /// does not — that random seeds may happen to miss.
    Alternate { persist_first: bool },
}

static HOOK_INIT: Once = Once::new();

fn install_quiet_hook() {
    HOOK_INIT.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // Simulated crashes are expected control flow — stay silent.
            if info.payload().downcast_ref::<CrashSignal>().is_some() {
                return;
            }
            prev(info);
        }));
    });
}

/// Runs `f`, catching a simulated crash.
///
/// Returns `Ok(r)` if `f` completed, `Err(signal)` if a [`CrashSignal`]
/// unwound out of it. Any other panic is propagated unchanged.
pub fn run_with_crash<R>(f: impl FnOnce() -> R) -> Result<R, CrashSignal> {
    install_quiet_hook();
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => Ok(r),
        Err(payload) => match payload.downcast::<CrashSignal>() {
            Ok(sig) => Err(*sig),
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completed_run_returns_ok() {
        assert_eq!(run_with_crash(|| 7), Ok(7));
    }

    #[test]
    fn crash_signal_is_caught() {
        let r: Result<(), _> = run_with_crash(|| {
            std::panic::panic_any(CrashSignal { at_event: 3 });
        });
        assert_eq!(r, Err(CrashSignal { at_event: 3 }));
    }

    #[test]
    fn other_panics_propagate() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _: Result<(), _> = run_with_crash(|| panic!("real bug"));
        }));
        assert!(r.is_err());
    }
}
