//! The TCP front door: a nonblocking accept loop plus thread-per-core
//! workers, each sweeping its connections with no locks of its own.
//!
//! ## Cross-connection group commit
//!
//! The interesting part is what a worker does *not* do: it never
//! commits a write by itself. Each sweep it reads every connection,
//! lets the sessions stage their `set`/`delete`s into the store's
//! shared per-shard batch, and only then calls [`Store::pump`] once.
//! All writes that arrived anywhere during the sweep — across
//! connections and across workers — share one group commit, so the
//! per-batch fence cost (2 for the heap stage, K+2 for the index) is
//! amortized over every concurrent client. With `coalesce` off each
//! staged op is pumped individually: the classic one-commit-per-request
//! baseline the harness experiment compares against.
//!
//! Workers own their connections outright (handed over by the accept
//! thread through a channel), so the only shared mutable state is the
//! store itself — contention happens exactly where the batching wants
//! it to, on the staged queues.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use nvm_kv::prelude::*;
use nvm_pmem::Pmem;

use crate::session::Session;
use crate::stats::ServerStats;

/// How the server binds and schedules.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`] for the result).
    pub addr: String,
    /// Worker threads. Defaults to the machine's parallelism.
    pub workers: usize,
    /// Cross-connection group commit (one pump per sweep). Off = one
    /// commit per write op, the uncoalesced baseline.
    pub coalesce: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            coalesce: true,
        }
    }
}

/// A running server: its bound address, shared stats, and the handle
/// to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    threads: Vec<thread::JoinHandle<()>>,
    stats: Arc<ServerStats>,
}

impl ServerHandle {
    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.stats
    }

    /// Stops accepting, drains the workers, and joins every thread.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Starts serving `store` per `config`; returns once the listener is
/// bound and the workers are up.
pub fn serve<P>(store: Store<P>, config: &ServerConfig) -> io::Result<ServerHandle>
where
    P: Pmem + Send + 'static,
{
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(ServerStats::new());
    let workers = config.workers.max(1);
    let coalesce = config.coalesce;

    let mut threads = Vec::with_capacity(workers + 1);
    let mut txs = Vec::with_capacity(workers);
    for i in 0..workers {
        let (tx, rx) = mpsc::channel::<TcpStream>();
        txs.push(tx);
        let store = store.clone();
        let stats = Arc::clone(&stats);
        let shutdown = Arc::clone(&shutdown);
        threads.push(
            thread::Builder::new()
                .name(format!("nvm-server-worker-{i}"))
                .spawn(move || worker_loop(store, stats, rx, shutdown, coalesce))?,
        );
    }

    {
        let stats = Arc::clone(&stats);
        let shutdown = Arc::clone(&shutdown);
        threads.push(
            thread::Builder::new()
                .name("nvm-server-accept".to_string())
                .spawn(move || accept_loop(listener, txs, stats, shutdown))?,
        );
    }

    Ok(ServerHandle {
        addr,
        shutdown,
        threads,
        stats,
    })
}

fn accept_loop(
    listener: TcpListener,
    txs: Vec<mpsc::Sender<TcpStream>>,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
) {
    let mut next = 0usize;
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                stats.bump_accepted();
                // Round-robin handoff; a worker that exited drops its
                // receiver and the send just discards the connection.
                let _ = txs[next % txs.len()].send(stream);
                next = next.wrapping_add(1);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(1));
            }
            Err(_) => thread::sleep(Duration::from_millis(1)),
        }
    }
}

struct Conn {
    stream: TcpStream,
    session: Session,
    dead: bool,
}

fn worker_loop<P: Pmem>(
    store: Store<P>,
    stats: Arc<ServerStats>,
    rx: mpsc::Receiver<TcpStream>,
    shutdown: Arc<AtomicBool>,
    coalesce: bool,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    while !shutdown.load(Ordering::Relaxed) {
        while let Ok(stream) = rx.try_recv() {
            conns.push(Conn {
                stream,
                session: Session::new(),
                dead: false,
            });
        }

        // Pass 1: ingest bytes and stage writes from every connection.
        let mut activity = false;
        let mut staged = 0usize;
        for conn in conns.iter_mut() {
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.session.feed(&buf[..n]);
                        activity = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            staged += conn.session.step(&store, &stats, !coalesce);
        }

        // One group commit for everything staged during the sweep —
        // this is where cross-connection fence coalescing happens.
        if coalesce && staged > 0 {
            store.pump();
            activity = true;
        }

        // Pass 2: emit replies for completed commits (and any reads
        // that were queued behind them), then flush to the wire. A
        // command sequence like `set a; get a; set b` stages `b` only
        // here — count it so it gets its own pump below rather than
        // stranding until more traffic arrives.
        let mut late_staged = 0usize;
        for conn in conns.iter_mut() {
            if !conn.dead {
                late_staged += conn.session.step(&store, &stats, !coalesce);
            }
            while !conn.session.output().is_empty() {
                match conn.stream.write(conn.session.output()) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.session.consume_output(n);
                        activity = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            if conn.session.wants_close() {
                conn.dead = true;
            }
        }
        if coalesce && late_staged > 0 {
            store.pump();
            activity = true; // replies drain on the next sweep
        }

        conns.retain(|c| {
            if c.dead {
                stats.bump_closed();
            }
            !c.dead
        });

        if !activity {
            // Idle: anything in flight will be re-checked next sweep.
            thread::sleep(Duration::from_micros(200));
        }
    }
}
