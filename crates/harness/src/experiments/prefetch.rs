//! Extension experiment — how much of group sharing's advantage is the
//! hardware prefetcher?
//!
//! The paper's observation 2 credits contiguity: "a single memory access
//! can prefetch multiple cells belonging to the same cacheline". Within a
//! cacheline that is plain spatial locality; *across* lines it is the L2
//! stream prefetcher. This experiment reruns the Figure 5 measurement
//! with the streamer on (the paper's testbed) and off, for group hashing
//! and path hashing — the contiguous and the scattered design. The
//! streamer should help group hashing's group scans substantially and
//! path hashing barely at all, because only ascending-line access
//! patterns trigger it.

use crate::experiments::runner::{experiment_json, run_json};
use crate::schemes::{build_any, SchemeKind};
use crate::tablefmt::{emit_json, ns, ratio, Table};
use crate::{Args, TraceKind};
use nvm_cachesim::CacheConfig;
use nvm_metrics::Json;
use nvm_pmem::SimConfig;
use nvm_traces::{RandomNum, Workload, WorkloadReport};

/// Runs the LF-0.5 RandomNum workload under a given cache configuration.
fn run_with_cache(
    kind: SchemeKind,
    cells: u64,
    ops: usize,
    seed: u64,
    group_size: u64,
    cache: CacheConfig,
) -> WorkloadReport {
    let sim = SimConfig {
        cache,
        ..SimConfig::paper_default()
    };
    let (mut pm, mut table) = build_any::<u64, u64>(kind, cells, seed, sim, group_size);
    let mut trace = RandomNum::new(seed);
    Workload {
        load_factor: 0.5,
        ops,
    }
    .run(&mut pm, &mut table, &mut trace, |&k| k | 1)
}

/// (scheme, with-prefetch report, without-prefetch report).
pub fn collect(args: &Args) -> Vec<(SchemeKind, WorkloadReport, WorkloadReport)> {
    let cells = args.cells_for(TraceKind::RandomNum);
    [SchemeKind::Group, SchemeKind::PathL, SchemeKind::LinearL]
        .iter()
        .map(|&kind| {
            let with = run_with_cache(
                kind,
                cells,
                args.ops,
                args.seed,
                args.group_size,
                CacheConfig::xeon_e5_2620(),
            );
            let without = run_with_cache(
                kind,
                cells,
                args.ops,
                args.seed,
                args.group_size,
                CacheConfig::xeon_e5_2620_no_prefetch(),
            );
            (kind, with, without)
        })
        .collect()
}

/// The experiment's JSON metrics document: two entries per scheme, the
/// `stream_prefetcher` flag distinguishing the ablation arms.
pub fn metrics_json(data: &[(SchemeKind, WorkloadReport, WorkloadReport)]) -> Json {
    let mut runs = Vec::new();
    for (_, with, without) in data {
        runs.push(run_json(with, &[("stream_prefetcher", Json::from(true))]));
        runs.push(run_json(
            without,
            &[("stream_prefetcher", Json::from(false))],
        ));
    }
    experiment_json("prefetch", runs)
}

/// Builds the ablation table.
pub fn run(args: &Args) -> Vec<Table> {
    let data = collect(args);
    emit_json(args.out_dir.as_deref(), "prefetch", &metrics_json(&data));
    let mut t = Table::new(
        "Extension: stream-prefetcher ablation (query latency, RandomNum @ LF 0.5)",
        &[
            "scheme",
            "query w/ streamer",
            "query w/o streamer",
            "slowdown",
        ],
    );
    for (kind, with, without) in &data {
        t.row(vec![
            kind.label().into(),
            ns(with.query.avg_ns()),
            ns(without.query.avg_ns()),
            ratio(without.query.avg_ns() / with.query.avg_ns()),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Disabling the streamer must hurt group hashing's queries far more
    /// than path hashing's (whose probes never form ascending streams).
    #[test]
    fn streamer_matters_most_for_contiguous_scans() {
        let args = Args {
            cells_log2: Some(14),
            ops: 200,
            ..Args::default()
        };
        let data = collect(&args);
        let slowdown = |kind: SchemeKind| {
            let (_, with, without) = data.iter().find(|(k, ..)| *k == kind).unwrap();
            without.query.avg_ns() / with.query.avg_ns()
        };
        let group = slowdown(SchemeKind::Group);
        let path = slowdown(SchemeKind::PathL);
        assert!(
            group > path,
            "group slowdown {group:.2} should exceed path {path:.2}"
        );
        assert!(group > 1.1, "streamer had no effect on group: {group:.2}");
    }
}
