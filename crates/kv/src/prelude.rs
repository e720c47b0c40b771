//! Everything a `Store` consumer needs, in one import.
//!
//! ```
//! use nvm_kv::prelude::*;
//! ```
//!
//! Re-exports the facade types plus the two index-mode enums from the
//! lower layers, so facade users (the `nvm-server` crate, examples,
//! harness bins) never import `nvm_table`/`group_hash` directly — a
//! boundary `ci.sh` lints.

pub use crate::{
    KvConfig, KvError, KvReadView, Store, StoreBuilder, StoreCounters, StoreError, StoreReadView,
    WriteTicket,
};
pub use group_hash::FpMode;
pub use nvm_table::ConsistencyMode;
