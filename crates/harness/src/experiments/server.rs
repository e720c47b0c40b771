//! Extension experiment — what does cross-connection group commit buy
//! the network front door?
//!
//! `nvm-server` never commits a client's `set` by itself: each worker
//! sweep stages every connection's writes into the store's shared
//! batch and pumps once, so the per-batch fence budget (2 for the heap
//! stage + K+2 for the index commit) is amortized over all K writes
//! that arrived during the sweep, across connections. The uncoalesced
//! baseline commits each op as it parses — the classic
//! one-commit-per-request server — and pays the full ~5 fences per
//! `set` (2 heap + 3 index).
//!
//! This experiment runs the real server (TCP loopback, worker sweeps
//! and all) under a closed-loop multi-connection load generator: each
//! connection pipelines bursts of 16 `set`s and waits for all acks
//! before the next burst, then runs a multi-`get` read phase. Swept
//! arms: 1/2/4/8 connections coalesced, plus 8 connections uncoalesced.
//! Acceptance: fences per set < 1.5 at ≥ 8 connections, vs ≥ 3 for the
//! uncoalesced arm.
//!
//! Output: `results/server.csv` (one row per arm) and
//! `results/server_metrics.json` (latency histograms, batch-size
//! distribution).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Instant;

use nvm_kv::prelude::*;
use nvm_metrics::Json;
use nvm_pmem::RealPmem;
use nvm_server::{serve, ServerConfig};

use crate::experiments::runner::experiment_json;
use crate::tablefmt::{count, emit_json, ratio, Table};
use crate::Args;

/// Pipelined writes in flight per connection per burst.
const BURST: usize = 16;
/// Bursts of sets per connection.
const SET_ROUNDS: usize = 48;
/// Multi-get commands per connection in the read phase.
const GET_ROUNDS: usize = 32;
/// Keys per multi-get.
const GET_FAN: usize = 8;
/// Distinct keys per connection (smaller than the write count, so the
/// workload mixes fresh inserts with in-place updates).
const KEYSPACE: u64 = 512;
/// Value payload bytes.
const VALUE_LEN: usize = 64;

/// One measured server arm.
#[derive(Debug, Clone)]
pub struct ArmResult {
    pub conns: usize,
    pub coalesced: bool,
    pub sets: u64,
    pub batches: u64,
    pub ops_per_batch: f64,
    pub fences_per_set: f64,
    pub set_p50_us: f64,
    pub set_p95_us: f64,
    pub set_p99_us: f64,
    pub get_p50_us: f64,
    pub get_p95_us: f64,
    pub get_p99_us: f64,
    pub sets_per_sec: f64,
    pub batch_size_json: Json,
    pub set_ns_json: Json,
    pub get_ns_json: Json,
}

pub fn run(args: &Args) -> Vec<Table> {
    let arms = [(1usize, true), (2, true), (4, true), (8, true), (8, false)];
    let mut results = Vec::new();
    for (conns, coalesced) in arms {
        results.push(run_arm(conns, coalesced));
    }

    let mut table = Table::new(
        "nvm-server: cross-connection group commit (closed-loop loopback clients)",
        &[
            "conns",
            "commit",
            "sets",
            "batches",
            "ops/batch",
            "fences/set",
            "set p50 us",
            "set p95 us",
            "set p99 us",
            "get p50 us",
            "kops/s",
        ],
    );
    for r in &results {
        table.row(vec![
            r.conns.to_string(),
            if r.coalesced { "grouped" } else { "per-op" }.to_string(),
            count(r.sets as f64),
            count(r.batches as f64),
            ratio(r.ops_per_batch),
            format!("{:.3}", r.fences_per_set),
            format!("{:.1}", r.set_p50_us),
            format!("{:.1}", r.set_p95_us),
            format!("{:.1}", r.set_p99_us),
            format!("{:.1}", r.get_p50_us),
            count(r.sets_per_sec / 1000.0),
        ]);
    }
    println!("{}", table.render());

    emit_json(args.out_dir.as_deref(), "server", &metrics_json(&results));
    vec![table]
}

pub fn metrics_json(results: &[ArmResult]) -> Json {
    let runs = results
        .iter()
        .map(|r| {
            let mut j = Json::obj();
            j.insert("conns", r.conns as u64)
                .insert("coalesced", r.coalesced)
                .insert("sets", r.sets)
                .insert("batches", r.batches)
                .insert("ops_per_batch", r.ops_per_batch)
                .insert("fences_per_set", r.fences_per_set)
                .insert("set_p50_us", r.set_p50_us)
                .insert("set_p95_us", r.set_p95_us)
                .insert("set_p99_us", r.set_p99_us)
                .insert("get_p50_us", r.get_p50_us)
                .insert("get_p95_us", r.get_p95_us)
                .insert("get_p99_us", r.get_p99_us)
                .insert("sets_per_sec", r.sets_per_sec)
                .insert("batch_size_hist", r.batch_size_json.clone())
                .insert("set_ns_hist", r.set_ns_json.clone())
                .insert("get_ns_hist", r.get_ns_json.clone());
            j
        })
        .collect();
    experiment_json("server", runs)
}

fn run_arm(conns: usize, coalesced: bool) -> ArmResult {
    // Zero extra write latency: the figure of merit is fences and
    // batching, not simulated NVM stalls, and wall-clock percentiles
    // should reflect the server's own path.
    let store = StoreBuilder::new()
        .capacity(64 * KEYSPACE, VALUE_LEN as u64)
        .shards(1)
        .create_with(|_, size| RealPmem::with_write_latency(size, 0))
        .expect("create server store");
    let probe = store.clone();
    let handle = serve(
        store,
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            coalesce: coalesced,
        },
    )
    .expect("serve");

    // Count only workload fences: drop creation/warm-up costs.
    probe.reset_pmem_stats();
    let started = Instant::now();
    let addr = handle.addr();
    let clients: Vec<_> = (0..conns)
        .map(|c| thread::spawn(move || client(addr, c)))
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    let wall = started.elapsed().as_secs_f64();

    let counters = probe.counters();
    let pm = probe.pmem_stats();
    let bs = probe.batch_size_histogram();
    let stats = handle.stats();
    let result = ArmResult {
        conns,
        coalesced,
        sets: counters.sets,
        batches: counters.batches,
        ops_per_batch: counters.sets as f64 / counters.batches.max(1) as f64,
        fences_per_set: pm.fences as f64 / counters.sets.max(1) as f64,
        set_p50_us: stats.set_ns.p50() / 1000.0,
        set_p95_us: stats.set_ns.p95() / 1000.0,
        set_p99_us: stats.set_ns.p99() / 1000.0,
        get_p50_us: stats.get_ns.p50() / 1000.0,
        get_p95_us: stats.get_ns.p95() / 1000.0,
        get_p99_us: stats.get_ns.p99() / 1000.0,
        sets_per_sec: counters.sets as f64 / wall.max(1e-9),
        batch_size_json: bs.to_json(),
        set_ns_json: stats.set_ns.to_json(),
        get_ns_json: stats.get_ns.to_json(),
    };
    handle.shutdown();
    result
}

/// One closed-loop connection: pipelined set bursts, then multi-gets.
fn client(addr: SocketAddr, conn_id: usize) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_nodelay(true).expect("nodelay");
    let value = vec![b'v'; VALUE_LEN];
    let mut wire = Vec::new();
    let mut reply = vec![0u8; 64 * 1024];
    let mut k = 0u64;

    for _ in 0..SET_ROUNDS {
        wire.clear();
        for _ in 0..BURST {
            wire.extend_from_slice(
                format!("set c{conn_id}:{} 0 0 {VALUE_LEN}\r\n", k % KEYSPACE).as_bytes(),
            );
            k += 1;
            wire.extend_from_slice(&value);
            wire.extend_from_slice(b"\r\n");
        }
        s.write_all(&wire).expect("burst write");
        // Every reply is one line ("STORED"): count newlines back.
        let mut acks = 0usize;
        while acks < BURST {
            let n = s.read(&mut reply).expect("burst read");
            assert!(n > 0, "server closed mid-burst");
            acks += reply[..n].iter().filter(|&&b| b == b'\n').count();
        }
    }

    let mut got = Vec::new();
    for round in 0..GET_ROUNDS {
        wire.clear();
        wire.extend_from_slice(b"get");
        for i in 0..GET_FAN {
            wire.extend_from_slice(
                format!(" c{conn_id}:{}", (round * GET_FAN + i) as u64 % KEYSPACE).as_bytes(),
            );
        }
        wire.extend_from_slice(b"\r\n");
        s.write_all(&wire).expect("get write");
        got.clear();
        while !got.ends_with(b"END\r\n") {
            let n = s.read(&mut reply).expect("get read");
            assert!(n > 0, "server closed mid-get");
            got.extend_from_slice(&reply[..n]);
        }
        assert!(got.windows(6).filter(|w| w == b"VALUE ").count() == GET_FAN);
    }

    s.write_all(b"quit\r\n").expect("quit");
    let _ = s.read(&mut reply);
}
