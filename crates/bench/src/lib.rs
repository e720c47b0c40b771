//! Shared helpers for the wall-clock (criterion) benchmarks.
//!
//! The harness binaries measure *simulated* time on [`SimPmem`]; these
//! benches measure *wall-clock* time on [`RealPmem`] — a DRAM pool driven
//! by real `clflush`/`mfence` intrinsics plus the paper's 300 ns emulated
//! NVM write delay. Absolute numbers are machine-specific; the benches
//! exist to confirm that the paper's *relative* shapes survive on real
//! hardware timing, and to catch performance regressions.
//!
//! [`SimPmem`]: nvm_pmem::SimPmem
//! [`RealPmem`]: nvm_pmem::RealPmem

use group_hash::{GroupHash, GroupHashConfig};
use nvm_baselines::{Iceberg, LinearProbing, MetaMode, PathHash, Pfht};
use nvm_pmem::{RealPmem, Region};
use nvm_table::{ConsistencyMode, HashScheme, InsertError};
use nvm_traces::{RandomNum, Trace};

/// Emulated extra NVM write latency for benches. Shorter than the paper's
/// 300 ns so criterion converges quickly while keeping flushes dominant.
pub const BENCH_NVM_NS: u64 = 100;

/// A boxed-scheme constructor so benches can sweep schemes uniformly.
pub enum BenchScheme {
    Linear(LinearProbing<RealPmem, u64, u64>),
    Pfht(Pfht<RealPmem, u64, u64>),
    Path(PathHash<RealPmem, u64, u64>),
    Iceberg(Iceberg<RealPmem, u64, u64>),
    Group(GroupHash<RealPmem, u64, u64>),
}

impl BenchScheme {
    pub fn insert(&mut self, pm: &mut RealPmem, k: u64, v: u64) -> Result<(), InsertError> {
        match self {
            BenchScheme::Linear(t) => t.insert(pm, k, v),
            BenchScheme::Pfht(t) => t.insert(pm, k, v),
            BenchScheme::Path(t) => t.insert(pm, k, v),
            BenchScheme::Iceberg(t) => t.insert(pm, k, v),
            BenchScheme::Group(t) => t.insert(pm, k, v),
        }
    }
    pub fn get(&self, pm: &mut RealPmem, k: &u64) -> Option<u64> {
        match self {
            BenchScheme::Linear(t) => t.get(pm, k),
            BenchScheme::Pfht(t) => t.get(pm, k),
            BenchScheme::Path(t) => t.get(pm, k),
            BenchScheme::Iceberg(t) => t.get(pm, k),
            BenchScheme::Group(t) => t.get(pm, k),
        }
    }
    pub fn remove(&mut self, pm: &mut RealPmem, k: &u64) -> bool {
        match self {
            BenchScheme::Linear(t) => t.remove(pm, k),
            BenchScheme::Pfht(t) => t.remove(pm, k),
            BenchScheme::Path(t) => t.remove(pm, k),
            BenchScheme::Iceberg(t) => t.remove(pm, k),
            BenchScheme::Group(t) => t.remove(pm, k),
        }
    }
    pub fn capacity(&self) -> u64 {
        match self {
            BenchScheme::Linear(t) => HashScheme::<RealPmem, u64, u64>::capacity(t),
            BenchScheme::Pfht(t) => HashScheme::<RealPmem, u64, u64>::capacity(t),
            BenchScheme::Path(t) => HashScheme::<RealPmem, u64, u64>::capacity(t),
            BenchScheme::Iceberg(t) => HashScheme::<RealPmem, u64, u64>::capacity(t),
            BenchScheme::Group(t) => HashScheme::<RealPmem, u64, u64>::capacity(t),
        }
    }

    /// The scheme's probe/occupancy/displacement histograms. Always
    /// `Some`: every scheme records them.
    pub fn instrumentation(&self) -> Option<&nvm_metrics::SchemeInstrumentation> {
        match self {
            BenchScheme::Linear(t) => HashScheme::<RealPmem, u64, u64>::instrumentation(t),
            BenchScheme::Pfht(t) => HashScheme::<RealPmem, u64, u64>::instrumentation(t),
            BenchScheme::Path(t) => HashScheme::<RealPmem, u64, u64>::instrumentation(t),
            BenchScheme::Iceberg(t) => HashScheme::<RealPmem, u64, u64>::instrumentation(t),
            BenchScheme::Group(t) => HashScheme::<RealPmem, u64, u64>::instrumentation(t),
        }
    }
}

/// One-line probe-distribution context for a bench's setup phase, e.g.
/// `probe p50 1.0 p95 2.0 max 7` — printed so wall-clock numbers can be
/// read against the search effort behind them.
pub fn probe_summary(table: &BenchScheme) -> Option<String> {
    let i = table.instrumentation()?;
    Some(format!(
        "probe p50 {:.1} p95 {:.1} max {}",
        i.probe.p50(),
        i.probe.p95(),
        i.probe.max().unwrap_or(0)
    ))
}

/// Builds a scheme on a real pool sized for `total_cells`.
pub fn build_real(name: &str, total_cells: u64, mode: ConsistencyMode) -> (RealPmem, BenchScheme) {
    type K = u64;
    type V = u64;
    let seed = 77;
    match name {
        "linear" => {
            let size = LinearProbing::<RealPmem, K, V>::required_size(total_cells);
            let mut pm = RealPmem::with_write_latency(size, BENCH_NVM_NS);
            let t = LinearProbing::create(&mut pm, Region::new(0, size), total_cells, seed, mode)
                .unwrap();
            (pm, BenchScheme::Linear(t))
        }
        "pfht" => {
            let (b, s) = Pfht::<RealPmem, K, V>::geometry_for(total_cells);
            let size = Pfht::<RealPmem, K, V>::required_size(b, s);
            let mut pm = RealPmem::with_write_latency(size, BENCH_NVM_NS);
            let t = Pfht::create(&mut pm, Region::new(0, size), b, s, seed, mode).unwrap();
            (pm, BenchScheme::Pfht(t))
        }
        "path" => {
            let (lb, lv) = PathHash::<RealPmem, K, V>::geometry_for(total_cells);
            let size = PathHash::<RealPmem, K, V>::required_size(lb, lv);
            let mut pm = RealPmem::with_write_latency(size, BENCH_NVM_NS);
            let t = PathHash::create(&mut pm, Region::new(0, size), lb, lv, seed, mode).unwrap();
            (pm, BenchScheme::Path(t))
        }
        "iceberg" => {
            let geo = Iceberg::<RealPmem, K, V>::geometry_for(total_cells);
            let (l1, l2, yard) = geo;
            let size = Iceberg::<RealPmem, K, V>::required_size(l1, l2, yard);
            let mut pm = RealPmem::with_write_latency(size, BENCH_NVM_NS);
            let t = Iceberg::create(&mut pm, Region::new(0, size), geo, seed, mode, MetaMode::On)
                .unwrap();
            (pm, BenchScheme::Iceberg(t))
        }
        "group" => {
            let cfg =
                GroupHashConfig::new(total_cells / 2, 256.min(total_cells / 2)).with_seed(seed);
            let size = GroupHash::<RealPmem, K, V>::required_size(&cfg);
            let mut pm = RealPmem::with_write_latency(size, BENCH_NVM_NS);
            let t = GroupHash::create(&mut pm, Region::new(0, size), cfg).unwrap();
            (pm, BenchScheme::Group(t))
        }
        other => panic!("unknown scheme {other}"),
    }
}

/// Fills `table` to `load_factor`, returning the resident keys.
pub fn fill_real(
    pm: &mut RealPmem,
    table: &mut BenchScheme,
    load_factor: f64,
    seed: u64,
) -> Vec<u64> {
    let target = (table.capacity() as f64 * load_factor) as usize;
    let mut trace = RandomNum::new(seed);
    let mut keys = Vec::with_capacity(target);
    while keys.len() < target {
        let k = trace.next_key();
        match table.insert(pm, k, k ^ 0xFFFF) {
            Ok(()) => keys.push(k),
            Err(InsertError::TableFull) => break,
            Err(e) => panic!("{e}"),
        }
    }
    keys
}

/// Fresh keys disjoint from a fill produced by `fill_real(seed)` — drawn
/// from the same generator continued past the fill.
pub fn fresh_keys(seed: u64, skip: usize, n: usize) -> Vec<u64> {
    let mut trace = RandomNum::new(seed);
    let _ = trace.take_keys(skip);
    trace.take_keys(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_summary_available_after_fill() {
        for name in ["linear", "pfht", "path", "iceberg", "group"] {
            let (mut pm, mut t) = build_real(name, 1 << 10, ConsistencyMode::None);
            let keys = fill_real(&mut pm, &mut t, 0.3, 3);
            assert!(!keys.is_empty());
            let s = probe_summary(&t).expect("every scheme records");
            assert!(s.contains("p50"), "{name}: {s}");
        }
    }
}
