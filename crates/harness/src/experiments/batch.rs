//! Tentpole experiment — fence coalescing from the batched write path.
//!
//! A single consistent insert costs 3 fences: drain the cell write,
//! publish the bitmap bit, commit the count. `insert_batch` stages K
//! cell writes behind one shared drain fence and one count commit, so a
//! K-op batch pays K + 2 fences — per op that is 1 + 2/K, approaching
//! one fence per op as K grows. Undo-logged schemes coalesce up to
//! their journal's chunk capacity (`ops_per_txn`), so their curve
//! flattens at 1 + c/min(K, chunk) instead.
//!
//! This experiment inserts `ops` distinct keys through `insert_batch`
//! at several batch sizes across the full scheme cast, reporting
//! fences, flushes, and atomic writes per op plus simulated latency.

use crate::experiments::runner::experiment_json;
use crate::schemes::{build_any, SchemeKind};
use crate::tablefmt::{count, emit_json, ns, ratio, Table};
use crate::{Args, TraceKind};
use nvm_metrics::Json;
use nvm_pmem::{Pmem, SimConfig};
use nvm_table::HashScheme;
use nvm_traces::{RandomNum, Trace};
use std::collections::HashSet;

/// The batch sizes swept (1 reproduces the single-op write path).
pub const BATCH_SIZES: [usize; 5] = [1, 4, 16, 64, 256];

/// The schemes swept: the bare cast plus the undo-logged variants,
/// whose journal chunking caps effective coalescing.
pub const CAST: [SchemeKind; 9] = [
    SchemeKind::Linear,
    SchemeKind::LinearL,
    SchemeKind::Pfht,
    SchemeKind::PfhtL,
    SchemeKind::Path,
    SchemeKind::PathL,
    SchemeKind::Iceberg,
    SchemeKind::IcebergL,
    SchemeKind::Group,
];

/// One (scheme, batch size) arm: whole-phase pmem counter deltas.
#[derive(Debug, Clone, Copy)]
pub struct RunData {
    pub scheme: SchemeKind,
    pub batch: usize,
    /// Keys actually inserted (all batches succeed at this load factor).
    pub ops: u64,
    pub fences: u64,
    pub flushes: u64,
    pub atomics: u64,
    /// Mean simulated insert latency.
    pub avg_ns: f64,
}

impl RunData {
    pub fn fences_per_op(&self) -> f64 {
        self.fences as f64 / self.ops.max(1) as f64
    }
    pub fn flushes_per_op(&self) -> f64 {
        self.flushes as f64 / self.ops.max(1) as f64
    }
    pub fn atomics_per_op(&self) -> f64 {
        self.atomics as f64 / self.ops.max(1) as f64
    }
}

/// Builds one arm and inserts `ops` distinct keys in `batch`-sized
/// chunks, measuring the whole insert phase.
fn run_one(kind: SchemeKind, total_cells: u64, batch: usize, seed: u64, ops: usize) -> RunData {
    let (mut pm, mut t) =
        build_any::<u64, u64>(kind, total_cells, seed, SimConfig::paper_default(), 64);

    let mut trace = RandomNum::new(seed ^ 0xBA7C);
    let mut seen = HashSet::new();
    let mut items = Vec::with_capacity(ops);
    while items.len() < ops {
        let k = trace.next_key();
        if seen.insert(k) {
            items.push((k, k ^ 0xFF));
        }
    }

    pm.reset_stats();
    for chunk in items.chunks(batch) {
        t.insert_batch(&mut pm, chunk)
            .unwrap_or_else(|e| panic!("{kind:?} K={batch}: {e}"));
    }
    let s = pm.stats();
    RunData {
        scheme: kind,
        batch,
        ops: ops as u64,
        fences: s.fences,
        flushes: s.flushes,
        atomics: s.atomic_writes,
        avg_ns: pm.sim_time_ns().unwrap_or(0) as f64 / ops.max(1) as f64,
    }
}

/// All (scheme, batch size) arms.
pub fn collect(args: &Args) -> Vec<RunData> {
    let cells = args.cells_for(TraceKind::RandomNum);
    // Stay well under capacity so every batch lands without fallback.
    let ops = args.ops.min((cells / 4) as usize);
    let mut out = Vec::new();
    for kind in CAST {
        for &batch in &BATCH_SIZES {
            out.push(run_one(kind, cells, batch, args.seed, ops));
        }
    }
    out
}

/// The experiment's JSON metrics document: one run per arm.
pub fn metrics_json(data: &[RunData]) -> Json {
    let runs = data
        .iter()
        .map(|r| {
            let mut j = Json::obj();
            j.insert("scheme", r.scheme.label());
            j.insert("batch", r.batch as u64);
            j.insert("ops", r.ops);
            j.insert("fences", r.fences);
            j.insert("flushes", r.flushes);
            j.insert("atomic_writes", r.atomics);
            j.insert("fences_per_op", r.fences_per_op());
            j.insert("flushes_per_op", r.flushes_per_op());
            j.insert("avg_insert_ns", r.avg_ns);
            j
        })
        .collect();
    experiment_json("batch", runs)
}

/// Builds the report tables (and writes CSV/JSON when `out_dir` is set).
pub fn run(args: &Args) -> Vec<Table> {
    let data = collect(args);
    emit_json(args.out_dir.as_deref(), "batch", &metrics_json(&data));

    let mut detail = Table::new(
        "Batched commit: write-path cost vs batch size (RandomNum inserts)",
        &[
            "scheme",
            "K",
            "fences/op",
            "flushes/op",
            "atomics/op",
            "avg insert",
        ],
    );
    for r in &data {
        detail.row(vec![
            r.scheme.label().into(),
            r.batch.to_string(),
            ratio(r.fences_per_op()),
            ratio(r.flushes_per_op()),
            ratio(r.atomics_per_op()),
            ns(r.avg_ns),
        ]);
    }

    let kmax = *BATCH_SIZES.last().unwrap();
    let mut summary = Table::new(
        format!("Fence coalescing: K=1 vs K={kmax} (expect 3 -> 1+2/K unlogged)"),
        &[
            "scheme",
            "fences/op K=1",
            &format!("fences/op K={kmax}"),
            "reduction",
            "fences saved",
        ],
    );
    for kind in CAST {
        let pick = |k: usize| {
            data.iter()
                .find(|r| r.scheme == kind && r.batch == k)
                .unwrap()
        };
        let (one, big) = (pick(1), pick(kmax));
        summary.row(vec![
            kind.label().into(),
            ratio(one.fences_per_op()),
            ratio(big.fences_per_op()),
            ratio(one.fences_per_op() / big.fences_per_op().max(f64::MIN_POSITIVE)),
            count((one.fences - big.fences) as f64),
        ]);
    }
    vec![detail, summary]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar: the unlogged schemes must hit 3 fences/op at
    /// K=1 (the pinned single-op budget) and come within rounding of
    /// 1 + 2/K at K=64, and the curve must be monotone in K.
    #[test]
    fn fences_per_op_follow_one_plus_two_over_k() {
        let args = Args {
            cells_log2: Some(12),
            ops: 320,
            ..Args::default()
        };
        let data = collect(&args);
        let pick = |kind: SchemeKind, k: usize| {
            *data
                .iter()
                .find(|r| r.scheme == kind && r.batch == k)
                .unwrap()
        };
        for kind in [
            SchemeKind::Linear,
            SchemeKind::Pfht,
            SchemeKind::Path,
            SchemeKind::Iceberg,
            SchemeKind::Group,
        ] {
            let one = pick(kind, 1);
            assert!(
                (one.fences_per_op() - 3.0).abs() < 0.05,
                "{kind:?} K=1: {} fences/op, expected 3",
                one.fences_per_op()
            );
            let big = pick(kind, 64);
            assert!(
                big.fences_per_op() < 1.2,
                "{kind:?} K=64: {} fences/op, expected ~1+2/64",
                big.fences_per_op()
            );
            let mut prev = f64::INFINITY;
            for &k in &BATCH_SIZES {
                let f = pick(kind, k).fences_per_op();
                assert!(f <= prev + 1e-9, "{kind:?}: fences/op rose at K={k}");
                prev = f;
            }
        }
        // Undo-logged path hashing journals at most 4 ops per chunk, so
        // its curve flattens instead of approaching 1.
        let capped = pick(SchemeKind::PathL, 64);
        assert!(
            capped.fences_per_op() > pick(SchemeKind::Path, 64).fences_per_op(),
            "chunk-capped PathL should pay more fences than bare path"
        );
    }
}
