//! YCSB core mixes over the five-scheme cast.
//!
//! The paper's traces (RandomNum/BoW/Fingerprint) shape the *key space*
//! but always run the same fill/insert/query/delete protocol; YCSB's A/B/C
//! mixes instead shape the *request stream* — skewed (Zipf 0.99) or
//! uniform choices over resident keys, with updates modelled as
//! delete + reinsert. This is the workload frontier the stable iceberg
//! scheme was added for: under read-heavy skew, lookups dominated by wide
//! buckets + fingerprint words should probe no more than group hashing.

use crate::experiments::runner::experiment_json;
use crate::schemes::{build_any, SchemeKind};
use crate::tablefmt::{count, emit_json, ns, Table};
use crate::{Args, TraceKind};
use nvm_metrics::Json;
use nvm_pmem::SimConfig;
use nvm_traces::{KeyDist, RandomNum, YcsbMix, YcsbReport, YcsbWorkload};

/// The default cast: the five unlogged schemes (the `-L` variants change
/// only the journal arm, which Figure 5 already isolates).
pub const CAST: [SchemeKind; 5] = [
    SchemeKind::Linear,
    SchemeKind::Pfht,
    SchemeKind::Path,
    SchemeKind::Iceberg,
    SchemeKind::Group,
];

/// The load factor every run measures at (mid-fill, like Figure 2's
/// middle column).
pub const LOAD_FACTOR: f64 = 0.5;

/// One (scheme, mix, dist) arm.
pub fn run_one(
    kind: SchemeKind,
    cells: u64,
    mix: YcsbMix,
    dist: KeyDist,
    args: &Args,
) -> YcsbReport {
    let (mut pm, mut table) = build_any::<u64, u64>(
        kind,
        cells,
        args.seed,
        SimConfig::paper_default(),
        args.group_size,
    );
    let mut trace = RandomNum::new(args.seed ^ 0x9C5B);
    YcsbWorkload {
        load_factor: LOAD_FACTOR,
        ops: args.ops,
        mix,
        dist,
        seed: args.seed,
    }
    .run(&mut pm, &mut table, &mut trace, |&k| k.wrapping_mul(31) | 1)
}

/// All arms: cast × mixes × key distributions.
pub fn collect(args: &Args) -> Vec<YcsbReport> {
    let cells = args.cells_for(TraceKind::RandomNum);
    let mut out = Vec::new();
    for kind in args.cast(&CAST) {
        for mix in YcsbMix::ALL {
            for dist in KeyDist::ALL {
                out.push(run_one(kind, cells, mix, dist, args));
            }
        }
    }
    out
}

/// Probe-length p99 over the whole run (fill included), from the
/// scheme's instrumentation, which every scheme records.
fn probe_p99(r: &YcsbReport) -> f64 {
    r.scheme_metrics
        .as_ref()
        .map(|s| s.probe.p99())
        .unwrap_or(f64::NAN)
}

/// The experiment's JSON metrics document: one run per arm with the
/// unified `metrics` schema.
pub fn metrics_json(data: &[YcsbReport]) -> Json {
    let runs = data
        .iter()
        .map(|r| {
            let mut j = Json::obj();
            j.insert("scheme", r.scheme.as_str());
            j.insert("mix", r.mix.label());
            j.insert("dist", r.dist.label());
            j.insert("load_factor", r.load_factor);
            j.insert("fill_count", r.fill_count);
            j.insert("reads", r.read.ops);
            j.insert("updates", r.update.ops);
            j.insert("metrics", r.to_json());
            j
        })
        .collect();
    experiment_json("ycsb", runs)
}

/// Builds the YCSB table (and writes CSV/JSON when `out_dir` is set).
pub fn run(args: &Args) -> Vec<Table> {
    let data = collect(args);
    emit_json(args.out_dir.as_deref(), "ycsb", &metrics_json(&data));
    let mut t = Table::new(
        "YCSB mixes (A 50/50, B 95/5, C read-only) at LF 0.5, RandomNum keys",
        &[
            "scheme",
            "mix",
            "dist",
            "read avg (ns)",
            "read p99 (ns)",
            "update avg (ns)",
            "probe p99",
        ],
    );
    for r in &data {
        t.row(vec![
            r.scheme.clone(),
            r.mix.label().into(),
            r.dist.label().into(),
            ns(r.read.avg_ns()),
            ns(r.read_latency.p99()),
            ns(r.update.avg_ns()),
            count(probe_p99(r)),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance pin: on the read-heavy mix, the stable scheme's
    /// probe-length p99 must not exceed group hashing's — wide buckets +
    /// fingerprint filtering keep lookups short even under Zipf skew.
    #[test]
    fn iceberg_probe_p99_at_most_group_on_read_heavy() {
        let args = Args {
            cells_log2: Some(12),
            ops: 400,
            ..Args::default()
        };
        for dist in KeyDist::ALL {
            let ice = run_one(SchemeKind::Iceberg, 1 << 12, YcsbMix::B, dist, &args);
            let grp = run_one(SchemeKind::Group, 1 << 12, YcsbMix::B, dist, &args);
            let (pi, pg) = (probe_p99(&ice), probe_p99(&grp));
            assert!(pi <= pg, "{dist:?}: iceberg p99 {pi} > group p99 {pg}");
        }
    }

    #[test]
    fn sweep_covers_all_arms_and_schemes() {
        let args = Args {
            cells_log2: Some(10),
            ops: 60,
            ..Args::default()
        };
        let data = collect(&args);
        assert_eq!(data.len(), CAST.len() * 3 * 2);
        for kind in CAST {
            assert!(
                data.iter().any(|r| r.scheme == kind.label()
                    || (kind == SchemeKind::Group2C && r.scheme == "group")),
                "{kind:?} missing from sweep"
            );
        }
        for r in &data {
            assert_eq!(
                r.read.ops + r.update.ops,
                60,
                "{} {}",
                r.scheme,
                r.mix.label()
            );
            if r.mix == YcsbMix::C {
                assert_eq!(r.update.ops, 0, "{}", r.scheme);
            }
        }
    }

    #[test]
    fn schemes_flag_narrows_the_cast() {
        let args = Args {
            cells_log2: Some(10),
            ops: 40,
            schemes: Some(vec![SchemeKind::Iceberg]),
            ..Args::default()
        };
        let data = collect(&args);
        assert_eq!(data.len(), 6); // 1 scheme x 3 mixes x 2 dists
        assert!(data.iter().all(|r| r.scheme == "iceberg"));
    }
}
