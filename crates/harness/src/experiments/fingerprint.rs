//! Extension experiment — what does the DRAM fingerprint cache buy?
//!
//! Group hashing's query path scans a group's cells and compares keys
//! read from NVM. The volatile tag cache (`FpMode::On`) filters those
//! key reads through a one-byte-per-cell DRAM sieve: an occupied cell's
//! key bytes are only fetched when its cached tag matches the probe
//! key's tag. With 8-bit tags ~255/256 of mismatching cells are skipped,
//! so the savings grow with group size and are largest for *negative*
//! lookups (which otherwise examine every occupied cell of the group).
//!
//! This experiment fills a table to LF 0.5 and measures a positive and a
//! negative lookup phase for group sizes 16/32/64, cache off and on,
//! reporting cell-key reads, tag skips, NVM bytes read, last-level cache
//! misses, and simulated latency per query.

use crate::experiments::runner::experiment_json;
use crate::tablefmt::{count, emit_json, ns, ratio, Table};
use crate::{Args, TraceKind};
use group_hash::{FpMode, GroupHash, GroupHashConfig};
use nvm_metrics::Json;
use nvm_pmem::{Pmem, Region, SimConfig, SimPmem};
use nvm_table::HashScheme;
use nvm_traces::{RandomNum, Trace};
use std::collections::HashSet;

/// Per-phase counter deltas (whole phase, not per-op, except `avg_ns`).
#[derive(Debug, Clone, Copy)]
pub struct PhaseStats {
    /// Cell-key loads issued from the pool by the probes.
    pub key_reads: u64,
    /// Occupied cells skipped on a tag mismatch (0 with the cache off).
    pub fp_skips: u64,
    /// Tag matches whose key compare also matched.
    pub fp_hits: u64,
    /// Tag matches whose key compare failed (~1/256 of mismatches).
    pub fp_false_positives: u64,
    /// Pool bytes read over the phase.
    pub bytes_read: u64,
    /// Last-level cache misses over the phase.
    pub llc_misses: u64,
    /// Mean simulated query latency.
    pub avg_ns: f64,
}

/// One (group size, fp mode) arm: its positive- and negative-phase stats.
#[derive(Debug, Clone, Copy)]
pub struct RunData {
    pub group_size: u64,
    pub fp: FpMode,
    pub positive: PhaseStats,
    pub negative: PhaseStats,
}

/// The group sizes swept (the paper's Figure 8 range where scan cost
/// starts to dominate).
pub const GROUP_SIZES: [u64; 3] = [16, 32, 64];

fn fp_counters(t: &GroupHash<SimPmem, u64, u64>) -> (u64, u64, u64, u64) {
    let f = &HashScheme::instrumentation(t)
        .expect("group hashing always records")
        .fingerprint;
    (
        f.key_reads.get(),
        f.skips.get(),
        f.hits.get(),
        f.false_positives.get(),
    )
}

/// Runs `ops` gets and returns the phase's counter deltas.
fn phase(
    pm: &mut SimPmem,
    t: &mut GroupHash<SimPmem, u64, u64>,
    keys: &[u64],
    expect_hit: bool,
) -> PhaseStats {
    let (kr0, sk0, hi0, fp0) = fp_counters(t);
    pm.reset_stats();
    for &k in keys {
        let got = t.get(pm, &k);
        assert_eq!(got.is_some(), expect_hit, "key {k}");
    }
    let (kr1, sk1, hi1, fp1) = fp_counters(t);
    PhaseStats {
        key_reads: kr1 - kr0,
        fp_skips: sk1 - sk0,
        fp_hits: hi1 - hi0,
        fp_false_positives: fp1 - fp0,
        bytes_read: pm.stats().bytes_read,
        llc_misses: pm.cache_stats().map(|c| c.llc_misses()).unwrap_or(0),
        avg_ns: pm.sim_time_ns().unwrap_or(0) as f64 / keys.len().max(1) as f64,
    }
}

/// Builds one arm, fills to LF 0.5, and measures both lookup phases.
fn run_one(total_cells: u64, group_size: u64, fp: FpMode, seed: u64, ops: usize) -> RunData {
    let cells_per_level = total_cells / 2;
    let cfg = GroupHashConfig::new(cells_per_level, group_size.min(cells_per_level))
        .with_seed(seed)
        .with_fp_mode(fp);
    let size = GroupHash::<SimPmem, u64, u64>::required_size(&cfg);
    let mut pm = SimPmem::new(size, SimConfig::paper_default());
    let mut t = GroupHash::create(&mut pm, Region::new(0, size), cfg).unwrap();

    // Fill to LF 0.5 of total capacity, remembering what actually landed.
    let mut trace = RandomNum::new(seed);
    let mut present = Vec::new();
    let mut present_set = HashSet::new();
    while t.len(&pm) < total_cells / 2 {
        let k = trace.next_key();
        if present_set.contains(&k) {
            continue;
        }
        if t.insert(&mut pm, k, k | 1).is_ok() {
            present.push(k);
            present_set.insert(k);
        }
    }

    // Positive phase: re-probe keys known present, cycling if ops exceeds
    // the fill count. Negative phase: keys drawn from an independent
    // stream, pre-filtered against the fill set before measurement.
    let positive_keys: Vec<u64> = (0..ops).map(|i| present[i % present.len()]).collect();
    let mut neg_trace = RandomNum::new(seed ^ 0xDEAD_BEEF);
    let mut negative_keys = Vec::with_capacity(ops);
    while negative_keys.len() < ops {
        let k = neg_trace.next_key();
        if !present_set.contains(&k) {
            negative_keys.push(k);
        }
    }

    let positive = phase(&mut pm, &mut t, &positive_keys, true);
    let negative = phase(&mut pm, &mut t, &negative_keys, false);
    RunData {
        group_size,
        fp,
        positive,
        negative,
    }
}

/// All (group size, mode) arms.
pub fn collect(args: &Args) -> Vec<RunData> {
    let cells = args.cells_for(TraceKind::RandomNum);
    let mut out = Vec::new();
    for &gs in &GROUP_SIZES {
        for fp in [FpMode::Off, FpMode::On] {
            out.push(run_one(cells, gs, fp, args.seed, args.ops));
        }
    }
    out
}

fn mode_label(fp: FpMode) -> &'static str {
    match fp {
        FpMode::Off => "off",
        FpMode::On => "on",
    }
}

fn phase_json(p: &PhaseStats) -> Json {
    let mut j = Json::obj();
    j.insert("key_reads", p.key_reads);
    j.insert("fp_skips", p.fp_skips);
    j.insert("fp_hits", p.fp_hits);
    j.insert("fp_false_positives", p.fp_false_positives);
    j.insert("bytes_read", p.bytes_read);
    j.insert("llc_misses", p.llc_misses);
    j.insert("avg_query_ns", p.avg_ns);
    j
}

/// The experiment's JSON metrics document: one run per (group size, fp
/// mode) arm with a block per lookup phase.
pub fn metrics_json(data: &[RunData]) -> Json {
    let runs = data
        .iter()
        .map(|r| {
            let mut j = Json::obj();
            j.insert("scheme", "group");
            j.insert("group_size", r.group_size);
            j.insert("fp_cache", mode_label(r.fp));
            j.insert("positive", phase_json(&r.positive));
            j.insert("negative", phase_json(&r.negative));
            j
        })
        .collect();
    experiment_json("fingerprint", runs)
}

/// Builds the report tables (and writes CSV/JSON when `out_dir` is set).
pub fn run(args: &Args) -> Vec<Table> {
    let data = collect(args);
    emit_json(args.out_dir.as_deref(), "fingerprint", &metrics_json(&data));

    let mut detail = Table::new(
        "Extension: DRAM fingerprint cache (RandomNum @ LF 0.5)",
        &[
            "group size",
            "fp cache",
            "phase",
            "key reads",
            "tag skips",
            "NVM bytes read",
            "LLC misses",
            "avg query",
        ],
    );
    for r in &data {
        for (label, p) in [("positive", &r.positive), ("negative", &r.negative)] {
            detail.row(vec![
                r.group_size.to_string(),
                mode_label(r.fp).into(),
                label.into(),
                count(p.key_reads as f64),
                count(p.fp_skips as f64),
                count(p.bytes_read as f64),
                count(p.llc_misses as f64),
                ns(p.avg_ns),
            ]);
        }
    }

    let mut summary = Table::new(
        "Negative-lookup key-read reduction (off / on)",
        &["group size", "key reads off", "key reads on", "reduction"],
    );
    for &gs in &GROUP_SIZES {
        let pick = |fp: FpMode| {
            data.iter()
                .find(|r| r.group_size == gs && r.fp == fp)
                .unwrap()
        };
        let (off, on) = (pick(FpMode::Off), pick(FpMode::On));
        summary.row(vec![
            gs.to_string(),
            count(off.negative.key_reads as f64),
            count(on.negative.key_reads as f64),
            ratio(off.negative.key_reads as f64 / on.negative.key_reads.max(1) as f64),
        ]);
    }
    vec![detail, summary]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar: at group size 64 the cache must cut negative-
    /// lookup cell-key reads by at least 2x (in practice it is closer to
    /// the 256x tag selectivity), and positive lookups must not read more
    /// keys than the unfiltered scan.
    #[test]
    fn cache_halves_negative_key_reads_at_gs64() {
        let args = Args {
            cells_log2: Some(12),
            ops: 300,
            ..Args::default()
        };
        let data = collect(&args);
        let pick = |gs: u64, fp: FpMode| {
            *data
                .iter()
                .find(|r| r.group_size == gs && r.fp == fp)
                .unwrap()
        };
        let (off, on) = (pick(64, FpMode::Off), pick(64, FpMode::On));
        assert!(
            on.negative.key_reads * 2 <= off.negative.key_reads,
            "negative key reads: on {} vs off {}",
            on.negative.key_reads,
            off.negative.key_reads
        );
        assert!(
            on.positive.key_reads <= off.positive.key_reads,
            "positive key reads: on {} vs off {}",
            on.positive.key_reads,
            off.positive.key_reads
        );
        // The tag sieve's accounting must close: every key read it allows
        // is either a hit or a false positive.
        assert_eq!(
            on.negative.key_reads,
            on.negative.fp_hits + on.negative.fp_false_positives
        );
        assert!(on.negative.fp_skips > 0);
        // Off mode never classifies: raw key reads only.
        assert_eq!(off.negative.fp_skips, 0);
        assert_eq!(off.negative.fp_hits, 0);
    }
}
