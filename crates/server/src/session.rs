//! Per-connection protocol session.
//!
//! A [`Session`] owns a connection's input buffer, output buffer, and
//! the FIFO of in-flight write tickets. It is transport-agnostic — the
//! TCP layer feeds it raw bytes and drains its output — which is what
//! lets the conformance tests drive it directly against a [`Store`]
//! with no sockets involved.
//!
//! ## Ordering rules
//!
//! memcached clients rely on replies arriving in request order, and on
//! read-your-writes within one connection. Both fall out of two rules:
//!
//! 1. Writes (`set`/`delete`) are *staged* into the store's shared
//!    group-commit batch and their replies are queued as tickets in a
//!    FIFO; a ticket's reply is emitted only when it reaches the front
//!    of the FIFO *and* its commit has completed.
//! 2. Every other command (`get`, `stats`, errors, `quit`) produces its
//!    reply immediately, so it is only parsed once the ticket FIFO is
//!    empty. A `get` behind a pending `set` therefore waits for that
//!    set's commit — read-your-writes — and its reply cannot overtake
//!    the `STORED`.
//!
//! The session never blocks: if the front ticket is still in flight,
//! [`Session::step`] returns and the server sweeps back later.

use std::collections::VecDeque;
use std::time::Instant;

use nvm_kv::prelude::*;
use nvm_pmem::Pmem;

use crate::protocol::{self, Command, Parsed};
use crate::stats::ServerStats;

/// Compact the input buffer once the consumed prefix crosses this many
/// bytes (and is the majority of the buffer).
const COMPACT_THRESHOLD: usize = 8192;

/// What to say once a staged write's ticket completes.
#[derive(Debug, Clone, Copy)]
enum ReplyKind {
    Set { noreply: bool },
    Delete { noreply: bool },
}

struct Pending {
    ticket: WriteTicket,
    kind: ReplyKind,
    start: Instant,
}

/// One connection's protocol state.
pub struct Session {
    input: Vec<u8>,
    read_pos: usize,
    out: Vec<u8>,
    pending: VecDeque<Pending>,
    quit: bool,
    fatal: bool,
}

impl Session {
    pub fn new() -> Session {
        Session {
            input: Vec::new(),
            read_pos: 0,
            out: Vec::new(),
            pending: VecDeque::new(),
            quit: false,
            fatal: false,
        }
    }

    /// Appends freshly received bytes to the input buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.input.extend_from_slice(bytes);
    }

    /// Bytes queued for the wire. The transport writes some prefix of
    /// this and reports how much via [`Session::consume_output`].
    pub fn output(&self) -> &[u8] {
        &self.out
    }

    pub fn consume_output(&mut self, n: usize) {
        self.out.drain(..n);
    }

    /// Write tickets still awaiting their commit.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// True once the connection should be torn down *and* every queued
    /// reply has been emitted and flushed.
    pub fn wants_close(&self) -> bool {
        (self.quit || self.fatal) && self.pending.is_empty() && self.out.is_empty()
    }

    /// Runs the session forward: emits replies for completed tickets,
    /// then parses and executes as many complete commands as ordering
    /// allows. Returns the number of writes staged this call.
    ///
    /// With `pump_each` the store is pumped after every staged write —
    /// the uncoalesced baseline, one commit per op. Without it the
    /// caller pumps once per sweep, so writes from *all* connections
    /// share one group commit.
    pub fn step<P: Pmem>(
        &mut self,
        store: &Store<P>,
        stats: &ServerStats,
        pump_each: bool,
    ) -> usize {
        self.drain_tickets(stats);
        let mut staged = 0;
        while !self.quit && !self.fatal {
            match protocol::parse(&self.input[self.read_pos..]) {
                Parsed::Incomplete => break,
                Parsed::Error {
                    reply,
                    consumed,
                    fatal,
                } => {
                    if !self.pending.is_empty() {
                        break; // reply order: let the tickets drain first
                    }
                    if !reply.is_empty() {
                        stats.bump_protocol_error();
                        self.out.extend_from_slice(reply);
                    }
                    self.read_pos += consumed;
                    self.fatal |= fatal;
                }
                Parsed::Cmd { cmd, consumed } => match cmd {
                    Command::Set {
                        key,
                        flags,
                        data,
                        noreply,
                    } => {
                        let start = Instant::now();
                        let mut blob = Vec::with_capacity(4 + data.len());
                        blob.extend_from_slice(&flags.to_le_bytes());
                        blob.extend_from_slice(data);
                        let ticket = store.stage_set(key, &blob);
                        self.pending.push_back(Pending {
                            ticket,
                            kind: ReplyKind::Set { noreply },
                            start,
                        });
                        self.read_pos += consumed;
                        staged += 1;
                        if pump_each {
                            store.pump();
                            self.drain_tickets(stats);
                        }
                    }
                    Command::Delete { key, noreply } => {
                        let start = Instant::now();
                        let ticket = store.stage_delete(key);
                        self.pending.push_back(Pending {
                            ticket,
                            kind: ReplyKind::Delete { noreply },
                            start,
                        });
                        self.read_pos += consumed;
                        staged += 1;
                        if pump_each {
                            store.pump();
                            self.drain_tickets(stats);
                        }
                    }
                    Command::Get { keys, with_cas } => {
                        if !self.pending.is_empty() {
                            break; // read-your-writes: wait for commits
                        }
                        let start = Instant::now();
                        // `gets` cas is the store's commit epoch: it
                        // changes whenever any batch commits, which is
                        // a superset of "this key changed" — good
                        // enough for optimistic readers, cheap to keep.
                        let cas = with_cas.then(|| store.counters().batches);
                        let values = store.get_batch(&keys);
                        for (key, value) in keys.iter().zip(&values) {
                            if let Some(blob) = value {
                                write_value_line(&mut self.out, key, blob, cas);
                            }
                        }
                        self.out.extend_from_slice(b"END\r\n");
                        stats.get_ns.record(start.elapsed().as_nanos() as u64);
                        self.read_pos += consumed;
                    }
                    Command::Stats => {
                        if !self.pending.is_empty() {
                            break;
                        }
                        self.read_pos += consumed;
                        self.write_stats(store, stats);
                    }
                    Command::Version => {
                        if !self.pending.is_empty() {
                            break;
                        }
                        self.out.extend_from_slice(
                            concat!("VERSION nvm-server ", env!("CARGO_PKG_VERSION"), "\r\n")
                                .as_bytes(),
                        );
                        self.read_pos += consumed;
                    }
                    Command::Quit => {
                        if !self.pending.is_empty() {
                            break;
                        }
                        self.read_pos += consumed;
                        self.quit = true;
                    }
                },
            }
        }
        self.compact();
        staged
    }

    /// Emits replies for completed tickets at the front of the FIFO.
    fn drain_tickets(&mut self, stats: &ServerStats) {
        while let Some(front) = self.pending.front() {
            let Some(result) = front.ticket.try_result() else {
                break;
            };
            let p = self.pending.pop_front().expect("front exists");
            let elapsed = p.start.elapsed().as_nanos() as u64;
            match p.kind {
                ReplyKind::Set { noreply } => {
                    stats.set_ns.record(elapsed);
                    let reply: &[u8] = match result {
                        Ok(_) => b"STORED\r\n",
                        Err(_) => b"SERVER_ERROR out of memory storing object\r\n",
                    };
                    if !noreply {
                        self.out.extend_from_slice(reply);
                    }
                }
                ReplyKind::Delete { noreply } => {
                    stats.delete_ns.record(elapsed);
                    let reply: &[u8] = match result {
                        Ok(true) => b"DELETED\r\n",
                        Ok(false) => b"NOT_FOUND\r\n",
                        Err(_) => b"SERVER_ERROR delete failed\r\n",
                    };
                    if !noreply {
                        self.out.extend_from_slice(reply);
                    }
                }
            }
        }
    }

    fn write_stats<P: Pmem>(&mut self, store: &Store<P>, stats: &ServerStats) {
        let c = store.counters();
        let pm = store.pmem_stats();
        let mut s = String::new();
        let mut stat = |name: &str, v: String| {
            s.push_str("STAT ");
            s.push_str(name);
            s.push(' ');
            s.push_str(&v);
            s.push_str("\r\n");
        };
        stat("cmd_get", c.gets.to_string());
        stat("cmd_set", c.sets.to_string());
        stat("get_hits", c.get_hits.to_string());
        stat("get_misses", (c.gets - c.get_hits).to_string());
        stat("delete_hits", c.deletes.to_string());
        stat("curr_items", store.len().to_string());
        stat("batches", c.batches.to_string());
        stat("fences", pm.fences.to_string());
        stat(
            "fences_per_set",
            format!("{:.3}", pm.fences as f64 / c.sets.max(1) as f64),
        );
        stat(
            "ops_per_batch",
            format!(
                "{:.2}",
                (c.sets + c.deletes) as f64 / c.batches.max(1) as f64
            ),
        );
        for (name, h) in [
            ("get", &stats.get_ns),
            ("set", &stats.set_ns),
            ("delete", &stats.delete_ns),
        ] {
            stat(
                &format!("{name}_p50_us"),
                format!("{:.1}", h.p50() / 1000.0),
            );
            stat(
                &format!("{name}_p95_us"),
                format!("{:.1}", h.p95() / 1000.0),
            );
            stat(
                &format!("{name}_p99_us"),
                format!("{:.1}", h.p99() / 1000.0),
            );
        }
        s.push_str("END\r\n");
        self.out.extend_from_slice(s.as_bytes());
    }

    /// Reclaims consumed input once it dominates the buffer.
    fn compact(&mut self) {
        if self.read_pos > COMPACT_THRESHOLD && self.read_pos * 2 > self.input.len() {
            self.input.drain(..self.read_pos);
            self.read_pos = 0;
        }
    }
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

/// `VALUE <key> <flags> <bytes>[ <cas>]\r\n<data>\r\n`. The 4-byte LE
/// flags prefix the server put on the stored blob is split back off.
fn write_value_line(out: &mut Vec<u8>, key: &[u8], blob: &[u8], cas: Option<u64>) {
    let (flags, data) = if blob.len() >= 4 {
        let f = u32::from_le_bytes([blob[0], blob[1], blob[2], blob[3]]);
        (f, &blob[4..])
    } else {
        // Not server-written (e.g. a pre-existing store); serve as-is.
        (0, blob)
    };
    out.extend_from_slice(b"VALUE ");
    out.extend_from_slice(key);
    match cas {
        Some(cas) => out.extend_from_slice(format!(" {flags} {} {cas}\r\n", data.len()).as_bytes()),
        None => out.extend_from_slice(format!(" {flags} {}\r\n", data.len()).as_bytes()),
    }
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}
