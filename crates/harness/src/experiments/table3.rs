//! Table 3 — failure recovery time.
//!
//! The paper builds group-hash tables of 128 MB–1 GB, fills them to load
//! factor 0.5, and compares Algorithm 4's recovery time with the build
//! time: recovery is ≈0.93 % of the build, independent of size. We sweep
//! scaled-down sizes by default (`--full` restores the paper's), and add
//! an iceberg row: its recovery additionally rebuilds the volatile
//! fingerprint words, so it bounds what "volatile metadata is free to
//! lose" costs on restart.

use crate::experiments::runner::experiment_json;
use crate::schemes::{build_any, SchemeKind};
use crate::tablefmt::{emit_json, percent, Table};
use crate::Args;
use nvm_metrics::Json;
use nvm_pmem::{Pmem, SimConfig};
use nvm_table::HashScheme;
use nvm_traces::{RandomNum, Workload};

/// The schemes whose recovery the table reports: the paper's (group) and
/// the one with volatile state to rebuild (iceberg).
pub const CAST: [SchemeKind; 2] = [SchemeKind::Group, SchemeKind::Iceberg];

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryPoint {
    pub scheme: SchemeKind,
    pub table_mb: u64,
    pub build_ns: u64,
    pub recovery_ns: u64,
}

impl RecoveryPoint {
    pub fn percentage(&self) -> f64 {
        self.recovery_ns as f64 / self.build_ns as f64
    }
}

/// Table sizes in MB for the sweep.
pub fn sizes_mb(args: &Args) -> Vec<u64> {
    if args.full {
        vec![128, 256, 512, 1024]
    } else {
        vec![4, 8, 16, 32]
    }
}

/// Measures one sweep point: `table_mb` MB of 16-byte cells.
pub fn measure(kind: SchemeKind, table_mb: u64, ops_seed: u64, group_size: u64) -> RecoveryPoint {
    // The paper sizes tables by cell bytes: 16-byte items.
    measure_cells(kind, (table_mb << 20) / 16, table_mb, ops_seed, group_size)
}

/// Measures a sweep point with an explicit cell budget (tests use small
/// budgets; the binary uses MB-scale ones).
pub fn measure_cells(
    kind: SchemeKind,
    total_cells: u64,
    table_mb: u64,
    ops_seed: u64,
    group_size: u64,
) -> RecoveryPoint {
    assert!(total_cells.is_power_of_two());
    let (mut pm, mut table) = build_any::<u64, u64>(
        kind,
        total_cells,
        ops_seed,
        SimConfig::paper_default(),
        group_size,
    );

    let mut trace = RandomNum::with_bound(ops_seed, (total_cells * 8).max(1 << 26));
    pm.reset_stats();
    let t0 = pm.sim_time_ns().unwrap();
    Workload {
        load_factor: 0.5,
        ops: 0,
    }
    .fill(&mut pm, &mut table, &mut trace, |&k| k ^ 0x5A5A);
    let build_ns = pm.sim_time_ns().unwrap() - t0;

    let t1 = pm.sim_time_ns().unwrap();
    table.recover(&mut pm);
    let recovery_ns = pm.sim_time_ns().unwrap() - t1;

    RecoveryPoint {
        scheme: kind,
        table_mb,
        build_ns,
        recovery_ns,
    }
}

/// The experiment's JSON metrics document: build/recovery simulated
/// times per sweep point.
pub fn metrics_json(points: &[RecoveryPoint]) -> Json {
    let runs = points
        .iter()
        .map(|p| {
            let mut j = Json::obj();
            j.insert("scheme", p.scheme.label());
            j.insert("table_mb", p.table_mb);
            let mut m = Json::obj();
            m.insert("build_ns", p.build_ns);
            m.insert("recovery_ns", p.recovery_ns);
            m.insert("recovery_fraction", p.percentage());
            j.insert("metrics", m);
            j
        })
        .collect();
    experiment_json("table3", runs)
}

/// Builds the Table 3 equivalent.
pub fn run(args: &Args) -> Vec<Table> {
    let points: Vec<RecoveryPoint> = CAST
        .iter()
        .flat_map(|&kind| sizes_mb(args).into_iter().map(move |mb| (kind, mb)))
        .map(|(kind, mb)| measure(kind, mb, args.seed, args.group_size))
        .collect();
    emit_json(args.out_dir.as_deref(), "table3", &metrics_json(&points));
    let mut t = Table::new(
        "Table 3: recovery time vs execution (build to LF 0.5) time, RandomNum",
        &[
            "scheme",
            "table size",
            "recovery (ms)",
            "execution (ms)",
            "percentage",
        ],
    );
    for p in &points {
        t.row(vec![
            p.scheme.label().into(),
            format!("{}MB", p.table_mb),
            format!("{:.1}", p.recovery_ns as f64 / 1e6),
            format!("{:.1}", p.build_ns as f64 / 1e6),
            percent(p.percentage()),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_is_small_fraction_of_build() {
        for kind in CAST {
            let p = measure_cells(kind, 1 << 12, 0, 3, 256);
            assert!(p.build_ns > 0 && p.recovery_ns > 0, "{kind:?}");
            let pct = p.percentage();
            // Paper: ~0.93 % for group. Allow an order of magnitude of
            // model slack (and the iceberg meta rebuild's cell reads) but
            // insist recovery is far cheaper than the build.
            assert!(pct < 0.15, "{kind:?} recovery/build = {pct:.4}");
        }
    }

    #[test]
    fn recovery_scales_roughly_linearly() {
        let a = measure_cells(SchemeKind::Group, 1 << 12, 0, 3, 256);
        let b = measure_cells(SchemeKind::Group, 1 << 14, 0, 3, 256);
        let ratio = b.recovery_ns as f64 / a.recovery_ns as f64;
        assert!(
            (2.0..8.0).contains(&ratio),
            "4x table => recovery ratio {ratio:.2}"
        );
        // The percentage stays roughly constant (paper: 0.92-0.93 % at
        // every size).
        let rel = b.percentage() / a.percentage();
        assert!((0.5..2.0).contains(&rel), "percentage drifted: {rel:.2}");
    }
}
