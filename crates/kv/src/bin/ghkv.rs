//! `ghkv` — a small CLI for group-hashing KV pool files.
//!
//! Pools are disk images of the simulated NVM (see `nvm_pmem::SimPmem::
//! save_image`); every command loads the image into a [`Store`], applies
//! the operation, and writes the image back — the moral equivalent of
//! mapping a real NVM region per process run.
//!
//! ```text
//! ghkv <pool-file> create [--items N] [--avg-value N]
//! ghkv <pool-file> set <key> <value>
//! ghkv <pool-file> get <key>
//! ghkv <pool-file> del <key>
//! ghkv <pool-file> list [--limit N]
//! ghkv <pool-file> stats
//! ghkv <pool-file> metrics
//! ghkv <pool-file> gc
//! ```

use nvm_kv::prelude::*;
use nvm_pmem::{PmemRead, SimConfig, SimPmem};
use std::path::Path;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: ghkv <pool-file> <command>\n\
         commands:\n  \
         create [--items N] [--avg-value N]   make a new pool\n  \
         set <key> <value>                    store an entry\n  \
         get <key>                            print an entry's value\n  \
         del <key>                            delete an entry\n  \
         list [--limit N]                     print entries\n  \
         stats                                entry/slot/pool statistics\n  \
         metrics                              observability snapshot (JSON)\n  \
         gc                                   sweep leaked heap slots"
    );
    exit(2)
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("ghkv: {msg}");
    exit(1)
}

fn sim_config() -> SimConfig {
    // CLI runs don't need the cache/latency model's fidelity; the tiny
    // hierarchy keeps load/save snappy on big pools.
    SimConfig::fast_test()
}

fn load(path: &Path) -> Store<SimPmem> {
    let pm = SimPmem::load_image(path, sim_config())
        .unwrap_or_else(|e| fail(format!("opening {}: {e}", path.display())));
    // Always run recovery: the previous writer may have been killed.
    StoreBuilder::new()
        .recover(vec![pm])
        .unwrap_or_else(|e| fail(e))
}

/// Tears the store down and writes its pool image back to `path`.
fn save(path: &Path, store: Store<SimPmem>) {
    let pools = store
        .into_pools()
        .unwrap_or_else(|_| fail("store still has live handles"));
    pools[0]
        .save_image(path)
        .unwrap_or_else(|e| fail(format!("saving {}: {e}", path.display())));
}

/// Extracts `--flag N` from args, returning the remainder.
fn take_flag(args: &mut Vec<String>, flag: &str, default: u64) -> u64 {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            fail(format!("missing value for {flag}"));
        }
        let v = args[pos + 1]
            .parse()
            .unwrap_or_else(|e| fail(format!("{flag}: {e}")));
        args.drain(pos..=pos + 1);
        v
    } else {
        default
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        usage();
    }
    let pool = std::path::PathBuf::from(args.remove(0));
    let cmd = args.remove(0);

    match cmd.as_str() {
        "create" => {
            let items = take_flag(&mut args, "--items", 100_000);
            let avg_value = take_flag(&mut args, "--avg-value", 128);
            if !args.is_empty() {
                usage();
            }
            let builder = StoreBuilder::new().capacity(items, avg_value);
            let size = builder.shard_size::<SimPmem>();
            let store = builder.create_sim(sim_config()).unwrap_or_else(|e| fail(e));
            save(&pool, store);
            println!(
                "created {} ({:.1} MiB, ~{items} entries x {avg_value}B values)",
                pool.display(),
                size as f64 / (1 << 20) as f64
            );
        }
        "set" => {
            if args.len() != 2 {
                usage();
            }
            let store = load(&pool);
            store
                .set(args[0].as_bytes(), args[1].as_bytes())
                .unwrap_or_else(|e| fail(e));
            save(&pool, store);
        }
        "get" => {
            if args.len() != 1 {
                usage();
            }
            let store = load(&pool);
            match store.get(args[0].as_bytes()) {
                Some(v) => println!("{}", String::from_utf8_lossy(&v)),
                None => {
                    eprintln!("ghkv: key not found");
                    exit(1);
                }
            }
        }
        "del" => {
            if args.len() != 1 {
                usage();
            }
            let store = load(&pool);
            let was_there = store.delete(args[0].as_bytes()).unwrap_or_else(|e| fail(e));
            save(&pool, store);
            if !was_there {
                eprintln!("ghkv: key not found");
                exit(1);
            }
        }
        "list" => {
            let limit = take_flag(&mut args, "--limit", u64::MAX);
            if !args.is_empty() {
                usage();
            }
            let store = load(&pool);
            let mut shown = 0u64;
            store.for_each(|k, v| {
                if shown < limit {
                    println!(
                        "{}\t{}",
                        String::from_utf8_lossy(k),
                        String::from_utf8_lossy(v)
                    );
                }
                shown += 1;
            });
            if shown > limit {
                eprintln!("... ({} more)", shown - limit);
            }
        }
        "stats" => {
            if !args.is_empty() {
                usage();
            }
            let store = load(&pool);
            let (entries, slots) = store.usage();
            println!("entries: {entries}");
            println!("slots:   {slots} ({} leaked)", slots - entries);
            store
                .check_consistency()
                .map(|_| println!("status:  consistent"))
                .unwrap_or_else(|e| fail(format!("INCONSISTENT: {e}")));
            let pools = store
                .into_pools()
                .unwrap_or_else(|_| fail("store still has live handles"));
            println!("pool:    {} ({} bytes)", pool.display(), pools[0].len());
        }
        "metrics" => {
            if !args.is_empty() {
                usage();
            }
            let store = load(&pool);
            // Counters cover this process's session (load + recovery);
            // an image reload starts them from zero.
            print!("{}", store.metrics().to_string_pretty());
        }
        "gc" => {
            if !args.is_empty() {
                usage();
            }
            let store = load(&pool);
            let n = store.gc();
            save(&pool, store);
            println!("reclaimed {n} leaked slots");
        }
        _ => usage(),
    }
}
