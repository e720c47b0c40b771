//! Shared toolkit for persistent hash tables.
//!
//! Every scheme in the workspace (group hashing and the three baselines) is
//! built from the same persistent primitives, so that performance and
//! consistency comparisons measure the *scheme*, not incidental plumbing:
//!
//! * [`TableHeader`] — a cacheline of global metadata (the paper's *Global
//!   info*: `count`, `group_size`, `table_size`, plus magic/seed), with the
//!   paper's atomic-increment-then-persist counter discipline;
//! * [`PmemBitmap`] — the per-cell occupancy bitmap. One bit per cell,
//!   packed 64 to a word; setting or clearing a bit is a naturally-aligned
//!   8-byte store — the paper's failure-atomic commit primitive;
//! * [`CellArray`] — a contiguous array of fixed-size key/value cells;
//! * [`HashScheme`] — the trait the workload driver and experiment harness
//!   program against;
//! * [`ConsistencyMode`] — whether a baseline wraps updates in the undo log
//!   (the paper's `-L` variants) or runs bare.
//!
//! On top of those primitives the crate defines the three-layer split every
//! scheme is built as (see DESIGN.md § "Layered architecture"):
//!
//! 1. **probe plans** ([`probe`]) — pure, I/O-free candidate-cell
//!    geometry (group/linear/PFHT/path sequences, SWAR fingerprint match);
//! 2. **cell store** ([`CellStore`] + [`Journal`] + [`BatchSession`]) —
//!    the pmem-facing bitmap/codec pair with the failure-atomic
//!    publish/retract choreography (single-op and fence-coalesced group
//!    commit) and the one place `ConsistencyMode::UndoLog` applies;
//! 3. **ops** — each scheme's insert/get/delete policy, written as a
//!    composition of the two layers (in `group-hash` and `nvm-baselines`).
//!
//! Construction and attach errors are the typed [`TableError`].

#![warn(missing_docs)]

mod bitmap;
mod cells;
pub mod crashtest;
mod error;
mod header;
mod journal;
pub mod meta;
mod migrate;
pub mod probe;
mod scheme;
mod store;

pub use bitmap::PmemBitmap;
pub use cells::CellArray;
pub use error::TableError;
pub use header::TableHeader;
pub use journal::Journal;
pub use meta::MetaWords;
pub use migrate::{
    migrate_recover, migrate_recover_split, migrate_step, migrate_step_same_pool, MigrationSource,
};
pub use scheme::{BatchError, ConsistencyMode, HashScheme, InsertError, OpKind};
pub use store::{BatchSession, CellStore};
