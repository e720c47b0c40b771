//! Figure 8 — the effect of group size.
//!
//! RandomNum, load factor 0.5, group sizes 64…1024. Larger groups search
//! more cells on collision (latency grows) but smooth out occupancy
//! imbalance (utilization grows); the paper picks 256 as the sweet spot.

use crate::experiments::runner::{experiment_json, run_json, run_workload, utilization};
use crate::tablefmt::{emit_json, ns, percent, Table};
use crate::{Args, SchemeKind, TraceKind};
use nvm_metrics::Json;
use nvm_traces::WorkloadReport;

/// Group sizes swept by the paper.
pub const GROUP_SIZES: [u64; 5] = [64, 128, 256, 512, 1024];

/// (group size, workload report, utilization) per sweep point.
pub fn collect(args: &Args) -> Vec<(u64, WorkloadReport, f64)> {
    let cells = args.cells_for(TraceKind::RandomNum);
    GROUP_SIZES
        .iter()
        .map(|&gs| {
            let r = run_workload(
                SchemeKind::Group,
                TraceKind::RandomNum,
                cells,
                0.5,
                args.ops,
                args.seed,
                gs,
            );
            let u = utilization(
                SchemeKind::Group,
                TraceKind::RandomNum,
                cells,
                args.seed,
                gs,
            );
            (gs, r, u)
        })
        .collect()
}

/// The experiment's JSON metrics document: one entry per group size,
/// the shared-schema `metrics` block plus the utilization scalar.
pub fn metrics_json(data: &[(u64, WorkloadReport, f64)]) -> Json {
    let runs = data
        .iter()
        .map(|(gs, r, u)| {
            run_json(
                r,
                &[
                    ("group_size", Json::from(*gs)),
                    ("utilization", Json::from(*u)),
                ],
            )
        })
        .collect();
    experiment_json("fig8", runs)
}

/// Builds the Figure 8(a) latency sweep and 8(b) utilization sweep.
pub fn run(args: &Args) -> Vec<Table> {
    let data = collect(args);
    emit_json(args.out_dir.as_deref(), "fig8", &metrics_json(&data));
    let mut t = Table::new(
        "Figure 8: group size vs latency (RandomNum @ LF 0.5) and space utilization",
        &["group size", "insert", "query", "delete", "utilization"],
    );
    for (gs, r, u) in &data {
        t.row(vec![
            gs.to_string(),
            ns(r.insert.avg_ns()),
            ns(r.query.avg_ns()),
            ns(r.delete.avg_ns()),
            percent(*u),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Utilization must increase with group size; latency must not shrink.
    #[test]
    fn monotone_trends() {
        let cells = 1 << 12;
        let sizes = [16u64, 64, 256];
        let mut utils = Vec::new();
        let mut queries = Vec::new();
        for &gs in &sizes {
            utils.push(utilization(
                SchemeKind::Group,
                TraceKind::RandomNum,
                cells,
                3,
                gs,
            ));
            let r = run_workload(
                SchemeKind::Group,
                TraceKind::RandomNum,
                cells,
                0.5,
                100,
                3,
                gs,
            );
            queries.push(r.query.avg_ns());
        }
        assert!(
            utils.windows(2).all(|w| w[1] >= w[0] - 0.02),
            "utilization not increasing: {utils:?}"
        );
        // Latency trends upward with group size (allow small noise).
        assert!(
            queries[2] >= queries[0] * 0.9,
            "query latency collapsed: {queries:?}"
        );
    }

    #[test]
    fn table_shape() {
        let tables = run(&Args {
            cells_log2: Some(12),
            ops: 40,
            ..Args::default()
        });
        assert_eq!(tables[0].len(), GROUP_SIZES.len());
    }
}
