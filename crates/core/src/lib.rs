//! # Group hashing
//!
//! A write-efficient, crash-consistent hash table for non-volatile memory,
//! reproducing *"A Write-efficient and Consistent Hashing Scheme for
//! Non-Volatile Memory"* (Zhang, Feng, Hua, Chen, Fu — ICPP 2018).
//!
//! ## Design (paper §3)
//!
//! Storage cells are split into two equal **levels**:
//!
//! * **Level 1** is hash-addressable: key `x` maps to cell `h(x) mod N`.
//! * **Level 2** is not addressable; it only resolves collisions.
//!
//! Both levels are divided into **groups** of `group_size` contiguous
//! cells, and group *i* of level 1 shares group *i* of level 2. An insert
//! whose level-1 cell is taken scans the *matched* level-2 group — a
//! contiguous memory range, so the scan walks consecutive cachelines and a
//! single miss prefetches the following cells.
//!
//! Consistency needs **no logging**: a per-cell occupancy bit, packed into
//! 8-byte bitmap words, is the commit point. Inserts persist the cell
//! *then* atomically set the bit; deletes atomically clear the bit *then*
//! erase the cell (Algorithms 1 and 3 — note the inverted order, §3.4).
//! A crash at any instant leaves the table recoverable by Algorithm 4:
//! erase cells whose bit is clear, recount `count`.
//!
//! ## Quick start
//!
//! ```
//! use group_hash::{GroupHash, GroupHashConfig};
//! use nvm_pmem::{Pmem, PmemRead, Region, SimPmem, SimConfig};
//!
//! let cfg = GroupHashConfig::new(1 << 10, 64); // 1024 cells/level, groups of 64
//! let mut pm = SimPmem::new(
//!     GroupHash::<SimPmem, u64, u64>::required_size(&cfg),
//!     SimConfig::fast_test(),
//! );
//! let region = Region::new(0, pm.len());
//! let mut table = GroupHash::<_, u64, u64>::create(&mut pm, region, cfg).unwrap();
//!
//! table.insert(&mut pm, 42, 4200).unwrap();
//! assert_eq!(table.get(&pm, &42), Some(4200));
//! assert!(table.remove(&mut pm, &42));
//! assert_eq!(table.get(&pm, &42), None);
//! ```
//!
//! ## Crash recovery
//!
//! ```
//! use group_hash::{GroupHash, GroupHashConfig};
//! use nvm_pmem::{CrashResolution, Pmem, Region, SimPmem, SimConfig};
//!
//! let cfg = GroupHashConfig::new(256, 16);
//! let size = GroupHash::<SimPmem, u64, u64>::required_size(&cfg);
//! let mut pm = SimPmem::new(size, SimConfig::fast_test());
//! let region = Region::new(0, size);
//! let mut t = GroupHash::<_, u64, u64>::create(&mut pm, region, cfg).unwrap();
//! t.insert(&mut pm, 1, 100).unwrap();
//!
//! pm.crash(CrashResolution::DropUnflushed);          // power failure
//! let mut t = GroupHash::<_, u64, u64>::open(&mut pm, region).unwrap();
//! t.recover(&mut pm);                                 // Algorithm 4
//! assert_eq!(t.get(&pm, &1), Some(100));          // committed data survives
//! ```

#![warn(missing_docs)]

mod analysis;
mod bulk;
mod concurrent;
mod config;
mod fpcache;
mod table;

#[cfg(test)]
pub(crate) mod testutil;

pub use analysis::{GroupFill, TableAnalysis};
pub use bulk::BulkLoadReport;
pub use concurrent::ShardedGroupHash;
pub use config::{ChoiceMode, CommitStrategy, FpMode, GroupHashConfig};
pub use table::{GroupHash, GroupReadView};

// Re-exported so downstream users need only this crate for the common case.
pub use nvm_table::{
    migrate_recover, migrate_recover_split, migrate_step, migrate_step_same_pool, HashScheme,
    InsertError, MigrationSource,
};
