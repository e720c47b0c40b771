//! The `nvm-server` binary: builds a [`Store`] over simulated NVM and
//! serves it over TCP until killed.
//!
//! ```text
//! nvm-server [--addr HOST:PORT] [--capacity N] [--avg-value BYTES]
//!            [--shards N] [--workers N] [--latency-ns NS]
//!            [--no-coalesce]
//! ```

use std::thread;
use std::time::Duration;

use nvm_kv::prelude::*;
use nvm_pmem::RealPmem;
use nvm_server::{serve, ServerConfig};

fn main() {
    let mut config = ServerConfig {
        addr: "127.0.0.1:11211".to_string(),
        ..ServerConfig::default()
    };
    let mut capacity: u64 = 1_000_000;
    let mut avg_value: u64 = 64;
    let mut shards: usize = config.workers;
    let mut latency_ns: u64 = 300;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--capacity" => capacity = parse(&value("--capacity")),
            "--avg-value" => avg_value = parse(&value("--avg-value")),
            "--shards" => shards = parse(&value("--shards")),
            "--workers" => config.workers = parse(&value("--workers")),
            "--latency-ns" => latency_ns = parse(&value("--latency-ns")),
            "--no-coalesce" => config.coalesce = false,
            "--help" | "-h" => {
                println!(
                    "nvm-server [--addr HOST:PORT] [--capacity N] [--avg-value BYTES]\n\
                     \x20          [--shards N] [--workers N] [--latency-ns NS] [--no-coalesce]"
                );
                return;
            }
            other => die(&format!("unknown flag {other}")),
        }
    }

    let store = StoreBuilder::new()
        .capacity(capacity, avg_value)
        .shards(shards.max(1))
        .create_with(|_, size| RealPmem::with_write_latency(size, latency_ns))
        .unwrap_or_else(|e| die(&format!("store create failed: {e}")));

    let handle =
        serve(store, &config).unwrap_or_else(|e| die(&format!("bind {} failed: {e}", config.addr)));
    println!(
        "nvm-server listening on {} ({} workers, {} shards, group commit {})",
        handle.addr(),
        config.workers,
        shards.max(1),
        if config.coalesce { "on" } else { "off" },
    );
    loop {
        thread::sleep(Duration::from_secs(3600));
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("bad numeric value {s:?}")))
}

fn die(msg: &str) -> ! {
    eprintln!("nvm-server: {msg}");
    std::process::exit(2);
}
