//! Incremental online migration between two tables of the same scheme.
//!
//! Stop-the-world rehashing is the latency cliff the ROADMAP's north star
//! cannot eat: doubling a table that holds millions of entries stalls
//! every writer for the whole rebuild. This module replaces it with a
//! *drainer* that moves a bounded number of entries per call, so normal
//! operations interleave with the migration:
//!
//! * the **source** table keeps a persisted *migration cursor* in its
//!   header ([`crate::TableHeader::migration_cursor`]) — all source cells
//!   `< cursor` are guaranteed drained;
//! * each step is two failure-atomic commits in strict order: publish the
//!   entry into the **destination**, then retract it from the source.
//!   A crash between the two leaves the entry in *both* tables, which is
//!   benign for lookups (either copy answers) and is deduplicated by
//!   [`migrate_recover`];
//! * the cursor only advances *after* both commits are durable, so it
//!   never claims a move that did not happen;
//! * the source's migration-active flag brackets the whole drain: set
//!   before the first move, cleared after the cursor passes the end, so
//!   a crash mid-migration is self-announcing to recovery.
//!
//! Routing during a migration is the caller's job (the concurrent wrapper
//! probes source-then-destination); this module owns only the persistent
//! choreography and its recovery rule.

use crate::HashScheme;
use nvm_hashfn::{HashKey, Pod};
use nvm_pmem::Pmem;

/// A scheme that can be drained cell-by-cell into another instance of
/// itself — the source side of incremental online expansion.
///
/// Implementations expose their raw cell index space (`0..migration_cells`)
/// so the drainer can walk it with a persisted cursor. The index order is
/// the implementation's choice but must be stable across re-opens of the
/// same pool (recovery resumes from the persisted cursor).
pub trait MigrationSource<P: Pmem, K: HashKey, V: Pod>: HashScheme<P, K, V> {
    /// Size of the raw cell index space the cursor walks.
    fn migration_cells(&self) -> u64;

    /// The committed entry at raw cell `i`, if any.
    fn entry_at(&self, pm: &P, i: u64) -> Option<(K, V)>;

    /// Retracts raw cell `i` (failure-atomic, count maintained). Returns
    /// `false` if the cell was already empty. Used by the drainer after
    /// the entry is durably republished elsewhere, and by recovery's
    /// dedup pass.
    fn evict_cell(&mut self, pm: &mut P, i: u64) -> bool;

    /// Reads the persisted migration cursor from this table's header.
    fn migration_cursor(&self, pm: &P) -> u64;

    /// Persists a new migration cursor (atomic 8-byte store + persist).
    fn set_migration_cursor(&mut self, pm: &mut P, cursor: u64);

    /// Reads the persisted migration-active flag.
    fn migration_active(&self, pm: &P) -> bool;

    /// Persists the migration-active flag.
    fn set_migration_active(&mut self, pm: &mut P, active: bool);
}

/// One bounded drain step where source and destination live in *different*
/// pools. Moves at most `max_moves` committed entries from `src` (starting
/// at its persisted cursor) into `dst`, advancing and persisting the
/// cursor as it goes. Returns `true` when the source is fully drained (the
/// active flag is then cleared).
///
/// Ordering per moved entry: `dst` publish commits, then `src` retract
/// commits, then the cursor advances — each step durable before the next.
/// A crash leaves at most one entry duplicated across the tables, never
/// lost; [`migrate_recover`] removes the duplicate.
///
/// Panics if `dst` cannot take an entry (`TableFull`): expansion targets
/// are sized ≥ 2× the source, so a full destination is a sizing bug, not
/// a runtime condition.
pub fn migrate_step<P, K, V, S>(
    src_pm: &mut P,
    dst_pm: &mut P,
    src: &mut S,
    dst: &mut S,
    max_moves: u64,
) -> bool
where
    P: Pmem,
    K: HashKey,
    V: Pod,
    S: MigrationSource<P, K, V>,
{
    let total = src.migration_cells();
    let mut cursor = src.migration_cursor(src_pm);
    if cursor >= total {
        finish(src_pm, src, total);
        return true;
    }
    if !src.migration_active(src_pm) {
        src.set_migration_active(src_pm, true);
    }
    let mut moved = 0;
    while cursor < total && moved < max_moves {
        if let Some((key, value)) = src.entry_at(src_pm, cursor) {
            dst.insert(dst_pm, key, value)
                .expect("expansion destination full: target must be sized >= source");
            src.evict_cell(src_pm, cursor);
            moved += 1;
        }
        cursor += 1;
        src.set_migration_cursor(src_pm, cursor);
    }
    if cursor >= total {
        finish(src_pm, src, total);
        return true;
    }
    false
}

/// [`migrate_step`] for source and destination regions inside the *same*
/// pool (the sharded wrapper's in-place expansion layout). Identical
/// choreography; the single `&mut P` serves both tables.
pub fn migrate_step_same_pool<P, K, V, S>(
    pm: &mut P,
    src: &mut S,
    dst: &mut S,
    max_moves: u64,
) -> bool
where
    P: Pmem,
    K: HashKey,
    V: Pod,
    S: MigrationSource<P, K, V>,
{
    let total = src.migration_cells();
    let mut cursor = src.migration_cursor(pm);
    if cursor >= total {
        finish(pm, src, total);
        return true;
    }
    if !src.migration_active(pm) {
        src.set_migration_active(pm, true);
    }
    let mut moved = 0;
    while cursor < total && moved < max_moves {
        if let Some((key, value)) = src.entry_at(pm, cursor) {
            dst.insert(pm, key, value)
                .expect("expansion destination full: target must be sized >= source");
            src.evict_cell(pm, cursor);
            moved += 1;
        }
        cursor += 1;
        src.set_migration_cursor(pm, cursor);
    }
    if cursor >= total {
        finish(pm, src, total);
        return true;
    }
    false
}

fn finish<P, K, V, S>(src_pm: &mut P, src: &mut S, total: u64)
where
    P: Pmem,
    K: HashKey,
    V: Pod,
    S: MigrationSource<P, K, V>,
{
    if src.migration_cursor(src_pm) != total {
        src.set_migration_cursor(src_pm, total);
    }
    if src.migration_active(src_pm) {
        src.set_migration_active(src_pm, false);
    }
}

/// Post-crash repair for an interrupted migration (same pool). Call
/// *after* both tables' own `recover` has restored their per-table
/// invariants.
///
/// If the source's migration-active flag is clear, nothing happened (or
/// it finished) — no-op. If set, the only possible inconsistency is an
/// entry present in **both** tables (publish committed, retract did not):
/// every committed source entry whose key answers in the destination is
/// evicted from the source. The scan covers *all* source cells, not just
/// `[cursor, total)` — the cursor trails the moves by design, so the
/// duplicate may sit exactly at the cursor. Idempotent; crashing inside
/// recovery and re-running converges to the same state.
pub fn migrate_recover<P, K, V, S>(pm: &mut P, src: &mut S, dst: &S) -> u64
where
    P: Pmem,
    K: HashKey,
    V: Pod,
    S: MigrationSource<P, K, V>,
{
    if !src.migration_active(pm) {
        return 0;
    }
    let mut deduped = 0;
    for i in 0..src.migration_cells() {
        if let Some((key, _)) = src.entry_at(pm, i) {
            if dst.get(pm, &key).is_some() {
                src.evict_cell(pm, i);
                deduped += 1;
            }
        }
    }
    deduped
}

/// [`migrate_recover`] for source and destination in *different* pools
/// (the [`migrate_step`] layout): same dedup rule, the destination is
/// probed through its own pool. Returns the number of duplicates evicted
/// from the source.
pub fn migrate_recover_split<P, K, V, S>(src_pm: &mut P, dst_pm: &P, src: &mut S, dst: &S) -> u64
where
    P: Pmem,
    K: HashKey,
    V: Pod,
    S: MigrationSource<P, K, V>,
{
    if !src.migration_active(src_pm) {
        return 0;
    }
    let mut deduped = 0;
    for i in 0..src.migration_cells() {
        if let Some((key, _)) = src.entry_at(src_pm, i) {
            if dst.get(dst_pm, &key).is_some() {
                src.evict_cell(src_pm, i);
                deduped += 1;
            }
        }
    }
    deduped
}
