//! Shared experiment plumbing: build a scheme, run the paper's workload
//! protocol, or measure space utilization.

use crate::schemes::{build_any, SchemeKind};
use crate::TraceKind;
use nvm_hashfn::{HashKey, Pod};
use nvm_metrics::Json;
use nvm_pmem::SimConfig;
use nvm_table::{HashScheme, InsertError};
use nvm_traces::{BagOfWords, Fingerprint, RandomNum, Trace, Workload, WorkloadReport};

/// One run's entry in a `<name>_metrics.json` document: identifying
/// labels, any experiment-specific `extra` fields, and the shared-schema
/// `metrics` block (latency histograms + pmem/cache counters + scheme
/// probe histograms — see DESIGN.md § Observability).
pub fn run_json(report: &WorkloadReport, extra: &[(&str, Json)]) -> Json {
    let mut j = Json::obj();
    j.insert("scheme", report.scheme.as_str());
    j.insert("trace", report.trace.as_str());
    j.insert("load_factor", report.load_factor);
    j.insert("fill_count", report.fill_count);
    for (k, v) in extra {
        j.insert(k, v.clone());
    }
    j.insert("metrics", report.metrics.to_json());
    j
}

/// Wraps per-run entries into the standard experiment document.
pub fn experiment_json(experiment: &str, runs: Vec<Json>) -> Json {
    let mut j = Json::obj();
    j.insert("experiment", experiment);
    j.insert("runs", runs);
    j
}

/// Runs the §4.2 protocol for one (scheme, trace) pair.
pub fn run_workload(
    scheme: SchemeKind,
    trace: TraceKind,
    total_cells: u64,
    load_factor: f64,
    ops: usize,
    seed: u64,
    group_size: u64,
) -> WorkloadReport {
    match trace {
        TraceKind::RandomNum => run_generic::<u64, u64, _>(
            RandomNum::new(seed),
            scheme,
            total_cells,
            load_factor,
            ops,
            seed,
            group_size,
            |&k| k.wrapping_mul(0x9E37_79B9) | 1,
        ),
        TraceKind::BagOfWords => run_generic::<u64, u64, _>(
            BagOfWords::new(seed),
            scheme,
            total_cells,
            load_factor,
            ops,
            seed,
            group_size,
            |&k| k.rotate_left(17) | 1,
        ),
        TraceKind::Fingerprint => run_generic::<[u8; 16], [u8; 16], _>(
            Fingerprint::new(seed),
            scheme,
            total_cells,
            load_factor,
            ops,
            seed,
            group_size,
            |k| *k,
        ),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_generic<K: HashKey, V: Pod, T: Trace<Key = K>>(
    mut trace: T,
    scheme: SchemeKind,
    total_cells: u64,
    load_factor: f64,
    ops: usize,
    seed: u64,
    group_size: u64,
    value_of: impl FnMut(&K) -> V,
) -> WorkloadReport {
    let (mut pm, mut table) = build_any::<K, V>(
        scheme,
        total_cells,
        seed,
        SimConfig::paper_default(),
        group_size,
    );
    Workload { load_factor, ops }.run(&mut pm, &mut table, &mut trace, value_of)
}

/// Space utilization (Figure 7's metric): the load factor at the first
/// failed insert.
pub fn utilization(
    scheme: SchemeKind,
    trace: TraceKind,
    total_cells: u64,
    seed: u64,
    group_size: u64,
) -> f64 {
    match trace {
        TraceKind::RandomNum => utilization_generic::<u64, u64, _>(
            RandomNum::new(seed),
            scheme,
            total_cells,
            seed,
            group_size,
        ),
        TraceKind::BagOfWords => utilization_generic::<u64, u64, _>(
            BagOfWords::new(seed),
            scheme,
            total_cells,
            seed,
            group_size,
        ),
        TraceKind::Fingerprint => utilization_generic::<[u8; 16], [u8; 16], _>(
            Fingerprint::new(seed),
            scheme,
            total_cells,
            seed,
            group_size,
        ),
    }
}

fn utilization_generic<K: HashKey, V: Pod, T: Trace<Key = K>>(
    mut trace: T,
    scheme: SchemeKind,
    total_cells: u64,
    seed: u64,
    group_size: u64,
) -> f64 {
    let (mut pm, mut table) = build_any::<K, V>(
        scheme,
        total_cells,
        seed,
        SimConfig::paper_default(),
        group_size,
    );
    loop {
        let k = trace.next_key();
        let v = V::zeroed();
        match table.insert(&mut pm, k, v) {
            Ok(()) => {}
            Err(InsertError::TableFull) => {
                return table.len(&pm) as f64 / table.capacity() as f64;
            }
            Err(e) => panic!("utilization insert failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_runs_on_every_trace() {
        for trace in TraceKind::ALL {
            let r = run_workload(SchemeKind::Group, trace, 1 << 10, 0.5, 50, 3, 64);
            assert_eq!(r.trace, trace.label());
            assert!(r.load_factor >= 0.5);
            assert_eq!(r.insert.ops, 50);
            assert!(r.insert.total_ns > 0);
        }
    }

    #[test]
    fn utilization_is_sane() {
        let u = utilization(SchemeKind::Group, TraceKind::RandomNum, 1 << 12, 5, 256);
        assert!((0.5..1.0).contains(&u), "group utilization {u}");
        let p = utilization(SchemeKind::Path, TraceKind::RandomNum, 1 << 12, 5, 256);
        assert!(p > u, "path {p} should beat group {u}");
    }
}
