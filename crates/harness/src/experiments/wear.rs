//! Extension experiment — NVM wear distribution.
//!
//! The paper motivates write reduction with NVM's limited endurance
//! (§2.1, Table 1) but never measures *where* the writes land. This
//! experiment does: each scheme runs an insert/delete churn at load factor
//! 0.5 while the simulator counts media write-backs per cacheline. Two
//! effects appear:
//!
//! 1. logged variants write back ~2× the lines of their bare versions
//!    (duplicate copies), and
//! 2. the undo log's header line is rewritten by *every* transaction — a
//!    single line absorbs thousands of write-backs, exactly the hotspot a
//!    wear-leveling layer would have to rotate away. Group hashing's
//!    hottest line (the `count` word) is the same order, but its total
//!    write volume is the lowest.

use crate::experiments::runner::experiment_json;
use crate::schemes::{build_any, SchemeKind};
use crate::tablefmt::{count, emit_json, Table};
use crate::{Args, TraceKind};
use nvm_metrics::Json;
use nvm_pmem::SimConfig;
use nvm_table::HashScheme;
use nvm_traces::{RandomNum, Trace, Workload};

/// Wear measurements for one scheme.
#[derive(Debug, Clone)]
pub struct WearRow {
    pub scheme: String,
    /// Total media write-backs during the churn phase.
    pub total_writebacks: u64,
    /// Write-backs absorbed by the single hottest line.
    pub max_line: u32,
    /// Hottest line / mean worn line.
    pub skew: f64,
}

/// Runs the churn and captures wear for every scheme.
pub fn collect(args: &Args) -> Vec<WearRow> {
    let cells = args.cells_for(TraceKind::RandomNum);
    let churn = args.ops * 10;
    SchemeKind::ALL
        .iter()
        .map(|&kind| {
            let (mut pm, mut table) = build_any::<u64, u64>(
                kind,
                cells,
                args.seed,
                SimConfig::paper_default(),
                args.group_size,
            );
            let mut trace = RandomNum::new(args.seed);
            let w = Workload {
                load_factor: 0.5,
                ops: 0,
            };
            w.fill(&mut pm, &mut table, &mut trace, |&k| k);
            pm.reset_wear();
            // Churn: insert a fresh key, delete it, repeat — the paper's
            // write-heavy steady state.
            let fresh = trace.take_keys(churn);
            for k in &fresh {
                table.insert(&mut pm, *k, *k).unwrap();
                assert!(table.remove(&mut pm, k));
            }
            let (total, max, mean) = pm.wear_summary();
            WearRow {
                scheme: kind.label().to_string(),
                total_writebacks: total,
                max_line: max,
                skew: if mean > 0.0 { max as f64 / mean } else { 0.0 },
            }
        })
        .collect()
}

/// The experiment's JSON metrics document: write-back totals and the
/// hottest-line skew per scheme.
pub fn metrics_json(rows: &[WearRow]) -> Json {
    let runs = rows
        .iter()
        .map(|r| {
            let mut j = Json::obj();
            j.insert("scheme", r.scheme.as_str());
            let mut m = Json::obj();
            m.insert("total_writebacks", r.total_writebacks);
            m.insert("hottest_line_writebacks", u64::from(r.max_line));
            m.insert("max_over_mean_skew", r.skew);
            j.insert("metrics", m);
            j
        })
        .collect();
    experiment_json("wear", runs)
}

/// Builds the wear table.
pub fn run(args: &Args) -> Vec<Table> {
    let rows = collect(args);
    emit_json(args.out_dir.as_deref(), "wear", &metrics_json(&rows));
    let mut t = Table::new(
        format!(
            "Extension: NVM wear during {} insert+delete churn ops, RandomNum @ LF 0.5",
            args.ops * 10 * 2
        ),
        &[
            "scheme",
            "total write-backs",
            "hottest line",
            "max/mean skew",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.scheme.clone(),
            r.total_writebacks.to_string(),
            r.max_line.to_string(),
            count(r.skew),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<WearRow> {
        collect(&Args {
            cells_log2: Some(10),
            ops: 30,
            ..Args::default()
        })
    }

    /// Logging roughly doubles total write-backs (the paper's
    /// write-efficiency argument, restated in endurance terms).
    #[test]
    fn logged_variants_wear_more() {
        let rows = rows();
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.scheme == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .total_writebacks
        };
        for (bare, logged) in [
            ("linear", "linear-L"),
            ("PFHT", "PFHT-L"),
            ("path", "path-L"),
        ] {
            assert!(
                get(logged) as f64 > 1.5 * get(bare) as f64,
                "{logged} {} vs {bare} {}",
                get(logged),
                get(bare)
            );
        }
        // Group hashing's write volume is at the bare (unlogged) level,
        // not the logged level.
        assert!(get("group") < get("linear-L"));
    }

    /// The undo-log status line is a wear hotspot: logged variants have a
    /// much hotter hottest-line than group hashing's total volume would
    /// suggest.
    #[test]
    fn log_header_is_a_hotspot() {
        let rows = rows();
        let get = |name: &str| rows.iter().find(|r| r.scheme == name).unwrap();
        // Every logged tx rewrites the status/count lines: the hottest
        // line absorbs at least one write-back per churn op.
        assert!(get("linear-L").max_line as u64 >= 2 * 30 * 10 / 2);
    }
}
