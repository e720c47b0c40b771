//! Unified metrics and per-op tracing for the group-hashing workspace.
//!
//! The paper's claims are quantitative — flushes per insert (Table 2),
//! NVM writes under different schemes (Fig. 5), search cost versus load
//! factor (Fig. 7) — so every layer of this reproduction reports the same
//! small vocabulary of measurements, defined here:
//!
//! * [`Counter`] — cheap monotonic event counters;
//! * [`Histogram`] — fixed-bucket distributions with interpolated
//!   p50/p95/p99, used for probe lengths, group occupancy, and per-op
//!   simulated-time latency;
//! * [`OpTrace`]/[`OpDelta`] — a scoped begin/end pair that isolates the
//!   [`nvm_pmem::PmemStats`] and cache deltas of a *single* insert,
//!   lookup, or remove;
//! * [`SchemeInstrumentation`] — the probe/occupancy/displacement block
//!   every scheme (group hashing and all baselines) records identically;
//! * [`MetricsRegistry`] — named sections serialized as deterministic,
//!   sorted-key JSON ([`Json`]), the `metrics` block in every harness
//!   result file.
//!
//! Recording paths take `&self` (interior mutability) so immutable lookup
//! code can record, and everything is plain counters — no locks, no
//! allocation after construction. Every scheme records unconditionally;
//! recording is DRAM arithmetic and never touches the pool.
//!
//! # Example
//!
//! ```
//! use nvm_metrics::{Histogram, MetricsRegistry, OpTrace};
//! use nvm_pmem::{Pmem, SimConfig, SimPmem};
//!
//! let mut pm = SimPmem::new(4096, SimConfig::fast_test());
//! let latency = Histogram::latency_ns();
//!
//! let t = OpTrace::begin(&pm);
//! pm.write(0, &[7u8; 8]);
//! pm.persist(0, 8);
//! let d = t.end(&pm);
//! assert_eq!(d.pmem.flushes, 1);
//! latency.record(d.latency_ns());
//!
//! let mut reg = MetricsRegistry::new();
//! reg.set_pmem("pmem", &pm.stats());
//! reg.set_histogram("latency_ns", &latency);
//! let json = reg.to_string_pretty();
//! assert!(json.contains("\"flushes\": 1"));
//! ```

mod concurrency;
mod counter;
mod histogram;
mod instrument;
mod json;
mod optrace;
mod registry;

pub use concurrency::{ConcurrencyCounters, ConcurrencySnapshot};
pub use counter::Counter;
pub use histogram::Histogram;
pub use instrument::{BatchCounters, FingerprintCounters, HeapCounters, SchemeInstrumentation};
pub use json::Json;
pub use optrace::{OpDelta, OpTrace};
pub use registry::{cache_stats_json, pmem_stats_json, MetricsRegistry};
