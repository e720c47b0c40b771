//! `nvmbench`: the end-to-end and per-layer benchmark of `nvm-server`.
//!
//! It boots the real server in process on TCP loopback, over a store on
//! emulated NVM (`RealPmem`: `clflush` + `mfence` and a 300 ns spin per
//! flushed line), drives it from one generator thread over two
//! connections, checks every reply, and prints one JSON object as the
//! last line of its output. With `--trace 1` it also replays the same op
//! stream against each layer in process and reports per-layer numbers
//! instead. README.md describes the workloads and every metric.
//!
//! ```text
//! nvmbench --workload <ycsb_b|ycsb_a|multiget_32|churn> [--seed N] [--seconds S] [--trace 0|1]
//! ```

mod affinity;
mod client;
mod ladder;
mod reply;
mod setup;
mod workload;

use std::error::Error;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use nvm_pmem::{PmemStats, RealPmem, CACHELINE};
use nvm_server::{serve, ServerConfig};

use client::{Generator, Tally};
use ladder::Ladder;
use workload::{OpKind, OpStream, Workload};

type Result<T> = std::result::Result<T, Box<dyn Error>>;

const USAGE: &str = "usage: nvmbench --workload <ycsb_b|ycsb_a|multiget_32|churn> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> std::result::Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Sizes of one run.
struct Config {
    /// Keys preloaded before every phase and every ladder rung.
    keys: u64,
    /// Store set-ups per run, the last one served; `setup_s` is their
    /// median.
    setups: usize,
    warmup: Duration,
    /// Open-loop phase whose latencies are reported.
    latency: Duration,
    /// Closed-loop phase (end-to-end runs only).
    throughput: Duration,
    /// Key operations each ladder rung replays (traced runs only).
    ladder_key_ops: u64,
}

impl Config {
    /// `seconds` of measurement: the latency and throughput phases of an
    /// end-to-end run, or the latency phase plus the ladder of a traced one.
    fn new(seconds: u64, trace: bool) -> Config {
        let s = Duration::from_secs(seconds);
        Config {
            keys: 150_000,
            setups: if trace { 1 } else { 3 },
            warmup: Duration::from_secs(1),
            latency: s / 2,
            throughput: if trace { Duration::ZERO } else { s / 2 },
            ladder_key_ops: 100_000,
        }
    }

    #[cfg(test)]
    fn quick() -> Config {
        Config {
            keys: 20_000,
            setups: 2,
            warmup: Duration::from_millis(100),
            latency: Duration::from_millis(500),
            throughput: Duration::from_millis(300),
            ladder_key_ops: 5_000,
        }
    }
}

/// Closed-loop burst length. Because the server sleeps whenever a sweep
/// finds no input, a closed loop locks into a rhythm of sleeps, and one
/// rhythm can hold for seconds at up to 20% from another; restarting the
/// loop every burst samples many of them.
const BURST: Duration = Duration::from_millis(500);

/// What one served run measured.
struct Served {
    tally: Tally,
    setup_s: Vec<f64>,
    /// Key operations answered per second over the closed-loop bursts.
    throughput: f64,
    /// Pmem counters, key operations, writes and group commits of the
    /// latency phase.
    phase_pmem: PmemStats,
    phase_key_ops: u64,
    phase_writes: u64,
    ops_per_batch: f64,
    /// Since the store was created, up to the end of the latency phase
    /// (a fixed number of ops): lines flushed, key + value bytes written
    /// by the preload and every `set`, and key + value bytes live.
    flushes: u64,
    user_bytes: u64,
    live_bytes: u64,
    pool_bytes: u64,
    /// Failed end-of-run checks of the store itself.
    problems: Vec<String>,
}

impl Served {
    /// Sorted latencies of one op kind, or of all.
    fn latencies(&self, kind: Option<OpKind>) -> Vec<u64> {
        sorted(
            self.tally
                .samples
                .iter()
                .filter(|s| kind.is_none_or(|k| s.kind == k))
                .map(|s| s.latency_ns)
                .collect(),
        )
    }
}

/// Sets the store up (`cfg.setups` times, keeping the last), serves it, and
/// runs the warm-up, the open-loop latency phase and, when `cfg` has
/// one, the closed-loop throughput phase.
fn serve_workload(workload: Workload, seed: u64, cfg: &Config) -> Result<Served> {
    let mut setup_s = Vec::with_capacity(cfg.setups);
    let mut built = None;
    for _ in 0..cfg.setups {
        drop(built.take());
        let t = Instant::now();
        built = Some(setup::create_and_preload(
            workload,
            cfg.keys,
            seed,
            |_, b| setup::pool(b),
        )?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (store, loaded_bytes) = built.ok_or("no set-up ran")?;
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        coalesce: true,
    };
    // One core serves and the rest generate; the server's threads inherit
    // the mask in force when `serve` spawns them.
    let cpus = affinity::allowed();
    let pinned = cpus.len() >= 2 && affinity::restrict(&cpus[1..]);
    let handle = serve(store.clone(), &config)?;
    if pinned {
        affinity::restrict(&cpus[..1]);
    }
    let mut load = Generator::connect(handle.addr(), OpStream::new(workload, cfg.keys, seed))?;

    load.open_loop(cfg.warmup, workload.rate(), false)?;
    let (pm0, c0, k0) = (store.pmem_stats(), store.counters(), load.tally.key_ops);
    load.open_loop(cfg.latency, workload.rate(), true)?;
    let (pm1, c1, k1) = (store.pmem_stats(), store.counters(), load.tally.key_ops);
    let user_bytes = loaded_bytes + load.tally.set_bytes;
    let live_bytes = load.stream().live_bytes();
    let throughput = if cfg.throughput.is_zero() {
        0.0
    } else {
        let bursts = (cfg.throughput.as_nanos() / BURST.as_nanos()).max(1) as u32;
        let mut answered = 0;
        for _ in 0..bursts {
            answered += load.closed_loop(cfg.throughput / bursts)?;
        }
        answered as f64 / cfg.throughput.as_secs_f64()
    };
    let live_keys = load.stream().live_keys();
    let tally = load.into_tally();
    handle.shutdown();
    if pinned {
        affinity::restrict(&cpus);
    }

    let mut problems = Vec::new();
    if let Err(e) = store.check_consistency() {
        problems.push(format!("check_consistency: {e}"));
    }
    if store.len() != live_keys {
        problems.push(format!(
            "store holds {} keys, expected {live_keys}",
            store.len()
        ));
    }
    let batches = c1.batches - c0.batches;
    let committed = (c1.sets - c0.sets) + (c1.deletes - c0.deletes);
    let phase_writes = tally
        .samples
        .iter()
        .filter(|s| matches!(s.kind, OpKind::Set | OpKind::Delete))
        .count() as u64;
    Ok(Served {
        setup_s,
        throughput,
        phase_pmem: pm1.delta_since(&pm0),
        phase_key_ops: k1 - k0,
        phase_writes,
        ops_per_batch: ratio(committed as f64, batches),
        flushes: pm1.flushes,
        user_bytes,
        live_bytes,
        pool_bytes: setup::builder(cfg.keys).shard_size::<RealPmem>() as u64,
        problems,
        tally,
    })
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn end_to_end(s: &Served) -> Vec<Metric> {
    let all = s.latencies(None);
    vec![
        metric("p50_us", percentile(&all, 0.50) / 1e3, "us"),
        metric("p95_us", percentile(&all, 0.95) / 1e3, "us"),
        metric("throughput_kops", s.throughput / 1e3, "kops/s"),
        metric("setup_s", median(&s.setup_s), "s"),
        metric(
            "write_amp",
            ratio((s.flushes * CACHELINE as u64) as f64, s.user_bytes),
            "ratio",
        ),
        metric(
            "space_amp",
            ratio(s.pool_bytes as f64, s.live_bytes),
            "ratio",
        ),
    ]
}

fn per_layer(s: &Served, l: &Ladder) -> Vec<Metric> {
    let p50_ns = percentile(&s.latencies(None), 0.50);
    let lag = sorted(s.tally.lag_ns.clone());
    let pm = &s.phase_pmem;
    vec![
        metric("client.lag_p99_us", percentile(&lag, 0.99) / 1e3, "us"),
        metric("server.wait_us", (p50_ns - l.server_ns) / 1e3, "us"),
        metric("server.self_ns", l.server_ns - l.kv_ns, "ns"),
        metric("parse.ns", l.parse_ns, "ns"),
        metric("kv.self_ns", l.kv_ns - l.core_ns - l.alloc_ns, "ns"),
        metric("core.ns", l.core_ns, "ns"),
        metric("alloc.ns", l.alloc_ns, "ns"),
        metric("kv.ops_per_batch", s.ops_per_batch, "count"),
        metric(
            "pmem.flushes_per_write",
            ratio(pm.flushes as f64, s.phase_writes),
            "count",
        ),
        metric(
            "pmem.fences_per_write",
            ratio(pm.fences as f64, s.phase_writes),
            "count",
        ),
        metric(
            "pmem.reads_per_op",
            ratio(pm.reads as f64, s.phase_key_ops),
            "count",
        ),
        metric(
            "core.flushes_per_write",
            ratio(l.core_pmem.flushes as f64, l.writes),
            "count",
        ),
        metric(
            "core.fences_per_write",
            ratio(l.core_pmem.fences as f64, l.writes),
            "count",
        ),
        metric(
            "alloc.flushes_per_write",
            ratio(l.alloc_pmem.flushes as f64, l.writes),
            "count",
        ),
        metric(
            "alloc.fences_per_write",
            ratio(l.alloc_pmem.fences as f64, l.writes),
            "count",
        ),
        metric("pmem.persist_share", l.persist_share, "ratio"),
        metric(
            "trace_overhead",
            l.server_ns / l.server_untraced_ns,
            "ratio",
        ),
    ]
}

/// A run's verdict and numbers.
struct Report {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn print_latencies(s: &Served) {
    for kind in OpKind::ALL {
        let lat = s.latencies(Some(kind));
        if !lat.is_empty() {
            println!(
                "  {:<6} n={:<7} p50 {:>8.1} us  p95 {:>8.1} us  p99 {:>8.1} us",
                kind.name(),
                lat.len(),
                percentile(&lat, 0.50) / 1e3,
                percentile(&lat, 0.95) / 1e3,
                percentile(&lat, 0.99) / 1e3
            );
        }
    }
}

fn print_ladder(s: &Served, l: &Ladder) {
    let p50_us = percentile(&s.latencies(None), 0.50) / 1e3;
    println!(
        "  ladder over {} commands ({} key ops, {} writes), mean ns per command:",
        l.commands, l.key_ops, l.writes
    );
    println!(
        "  e2e p50 {p50_us:.1} us = server.wait {:.1} us + server.self {:.0} + kv.self {:.0} + core {:.0} + alloc {:.0} ns",
        p50_us - l.server_ns / 1e3,
        l.server_ns - l.kv_ns,
        l.kv_ns - l.core_ns - l.alloc_ns,
        l.core_ns,
        l.alloc_ns
    );
    println!(
        "  server rung {:.0} ns traced, {:.0} ns untraced; parse {:.0} ns",
        l.server_ns, l.server_untraced_ns, l.parse_ns
    );
    for (name, acc) in &l.spans.0 {
        println!("    {name:<16} {:>9.1} ns/op  x {}", acc.per(), acc.n);
    }
}

fn measure(workload: Workload, seed: u64, cfg: &Config, trace: bool) -> Result<Report> {
    let served = serve_workload(workload, seed, cfg)?;
    let t = &served.tally;
    println!(
        "nvmbench {} seed {seed}: {} keys, set-up {:.3} s (median of {}), {} commands sent",
        workload.name(),
        cfg.keys,
        median(&served.setup_s),
        served.setup_s.len(),
        t.attempted
    );
    print_latencies(&served);
    let mut problems = served.problems.clone();
    if let Some(first) = &t.first_wrong {
        problems.push(format!("{} wrong replies, first: {first}", t.wrong));
    }
    let mut report = Report {
        problems,
        attempted: t.attempted,
        failed: t.failed(),
        metrics: Vec::new(),
    };
    if trace {
        let l = ladder::run(workload, cfg.keys, seed, cfg.ladder_key_ops)?;
        print_ladder(&served, &l);
        if let Some(first) = &l.check.first {
            report.problems.push(format!(
                "{} wrong ladder results, first: {first}",
                l.check.wrong
            ));
        }
        report.attempted += l.commands;
        report.failed += l.check.wrong;
        report.metrics = per_layer(&served, &l);
    } else {
        println!("  closed loop {:.1} kops/s", served.throughput / 1e3);
        report.metrics = end_to_end(&served);
    }
    for m in &report.metrics {
        if !m.value.is_finite() {
            report.problems.push(format!("{} is not a number", m.name));
        }
    }
    for p in &report.problems {
        println!("  INCORRECT: {p}");
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("nvmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = Config::new(args.seconds, args.trace);
    match measure(args.workload, args.seed, &cfg, args.trace) {
        Ok(report) => {
            println!("{}", report.json());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("nvmbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> std::result::Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_documented_flags() {
        let a = args("--workload churn --seed 9 --seconds 3 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::Churn);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3, true));
        assert!(args("--seed 9").is_err(), "workload is required");
        assert!(args("--workload nope").is_err());
        assert!(args("--workload churn --trace 2").is_err());
        assert!(args("--workload churn --seconds 0").is_err());
    }

    /// Every workload end to end and traced, on a small store with short
    /// phases: all replies right, every metric a number.
    #[test]
    fn quick_smoke_runs_every_workload_and_trace() {
        let started = Instant::now();
        let cfg = Config::quick();
        for w in Workload::ALL {
            for trace in [false, true] {
                let r = measure(w, 5, &cfg, trace).expect("run completes");
                assert!(r.correct(), "{} trace={trace}: {:?}", w.name(), r.problems);
                assert_eq!(r.failed, 0, "{} trace={trace}", w.name());
                assert!(r.attempted > 0);
                assert_eq!(r.metrics.len(), if trace { 17 } else { 6 });
            }
        }
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_secs(20), "smoke took {elapsed:?}");
    }
}
