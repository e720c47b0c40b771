//! Extension experiment — sensitivity to the NVM technology (Table 1).
//!
//! The paper's Table 1 lists PCM (slow writes), ReRAM, and STT-MRAM
//! (near-DRAM writes). This sweep runs the LF-0.5 RandomNum insert
//! workload under each technology's latency preset. The measured result
//! is that group hashing's advantage over a logged baseline is
//! essentially the *flush-count ratio* (~7 persisted lines vs ~3), so it
//! is stable (~2.4×) across the whole technology range — write
//! efficiency helps on every NVM, not only the slow ones — while
//! absolute latencies scale with the write-back cost.

use crate::experiments::runner::{experiment_json, run_json};
use crate::schemes::{build_any, SchemeKind};
use crate::tablefmt::{emit_json, ns, ratio, Table};
use crate::{Args, TraceKind};
use nvm_metrics::Json;
use nvm_pmem::{LatencyModel, SimConfig};
use nvm_traces::{RandomNum, Workload, WorkloadReport};

/// The swept technologies: (label, latency preset).
pub fn technologies() -> Vec<(&'static str, LatencyModel)> {
    vec![
        ("STT-MRAM (~30ns wb)", LatencyModel::stt_mram()),
        (
            "emulated NVM (300ns wb, paper)",
            LatencyModel::paper_default(),
        ),
        ("PCM (~500ns wb)", LatencyModel::pcm()),
    ]
}

fn run_with_latency(
    kind: SchemeKind,
    cells: u64,
    ops: usize,
    seed: u64,
    group_size: u64,
    latency: LatencyModel,
) -> WorkloadReport {
    let sim = SimConfig {
        latency,
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

/// (technology label, group report, linear-L report) per technology.
pub fn collect(args: &Args) -> Vec<(&'static str, WorkloadReport, WorkloadReport)> {
    let cells = args.cells_for(TraceKind::RandomNum);
    technologies()
        .into_iter()
        .map(|(label, latency)| {
            let group = run_with_latency(
                SchemeKind::Group,
                cells,
                args.ops,
                args.seed,
                args.group_size,
                latency,
            );
            let linear_l = run_with_latency(
                SchemeKind::LinearL,
                cells,
                args.ops,
                args.seed,
                args.group_size,
                latency,
            );
            (label, group, linear_l)
        })
        .collect()
}

/// The experiment's JSON metrics document: group and linear-L entries
/// per technology, tagged with the technology label.
pub fn metrics_json(data: &[(&'static str, WorkloadReport, WorkloadReport)]) -> Json {
    let mut runs = Vec::new();
    for (label, group, linear_l) in data {
        for r in [group, linear_l] {
            runs.push(run_json(r, &[("technology", Json::from(*label))]));
        }
    }
    experiment_json("nvm_sweep", runs)
}

/// Builds the sweep table.
pub fn run(args: &Args) -> Vec<Table> {
    let data = collect(args);
    emit_json(args.out_dir.as_deref(), "nvm_sweep", &metrics_json(&data));
    let mut t = Table::new(
        "Extension: NVM technology sweep (insert latency, RandomNum @ LF 0.5)",
        &["technology", "group", "linear-L", "group advantage"],
    );
    for (label, group, linear_l) in &data {
        t.row(vec![
            (*label).into(),
            ns(group.insert.avg_ns()),
            ns(linear_l.insert.avg_ns()),
            ratio(linear_l.insert.avg_ns() / group.insert.avg_ns()),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Group hashing's advantage is the flush-count ratio: large (>1.8x)
    /// and stable across the whole technology range, while absolute
    /// latency grows monotonically with write-back cost.
    #[test]
    fn advantage_is_stable_and_latency_scales() {
        let args = Args {
            cells_log2: Some(12),
            ops: 120,
            ..Args::default()
        };
        let data = collect(&args);
        let advantages: Vec<f64> = data
            .iter()
            .map(|(_, g, l)| l.insert.avg_ns() / g.insert.avg_ns())
            .collect();
        for a in &advantages {
            assert!(*a > 1.8, "advantage collapsed: {advantages:?}");
        }
        let spread = advantages.iter().cloned().fold(f64::MIN, f64::max)
            / advantages.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            spread < 1.3,
            "advantage unstable across technologies: {advantages:?}"
        );
        // technologies() is ordered by increasing write-back latency:
        // absolute group insert latency must rise with it.
        let lats: Vec<f64> = data.iter().map(|(_, g, _)| g.insert.avg_ns()).collect();
        assert!(
            lats.windows(2).all(|w| w[1] > w[0]),
            "insert latency not increasing with write-back cost: {lats:?}"
        );
    }
}
