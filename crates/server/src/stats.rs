//! Server-side observability: per-operation latency histograms and
//! connection counters, shared across worker threads.
//!
//! Latency is measured from the moment a command is parsed off the
//! wire to the moment its reply is queued — for writes that spans the
//! whole group-commit round trip (stage → shared batch → ticket
//! fulfilment), which is exactly the latency a client observes.

use std::sync::atomic::{AtomicU64, Ordering};

use nvm_metrics::{Histogram, Json};

/// Shared, interior-mutable server statistics.
#[derive(Debug)]
pub struct ServerStats {
    /// `get`/`gets` service latency (ns).
    pub get_ns: Histogram,
    /// `set` latency (ns), staging through commit acknowledgement.
    pub set_ns: Histogram,
    /// `delete` latency (ns), same span as `set_ns`.
    pub delete_ns: Histogram,
    /// Connections accepted since start.
    pub conns_accepted: AtomicU64,
    /// Connections closed (either side) since start.
    pub conns_closed: AtomicU64,
    /// Protocol errors answered with `ERROR`/`CLIENT_ERROR`.
    pub protocol_errors: AtomicU64,
}

impl ServerStats {
    pub fn new() -> ServerStats {
        ServerStats {
            get_ns: Histogram::latency_ns(),
            set_ns: Histogram::latency_ns(),
            delete_ns: Histogram::latency_ns(),
            conns_accepted: AtomicU64::new(0),
            conns_closed: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
        }
    }

    pub fn bump_accepted(&self) {
        self.conns_accepted.fetch_add(1, Ordering::Relaxed);
    }

    pub fn bump_closed(&self) {
        self.conns_closed.fetch_add(1, Ordering::Relaxed);
    }

    pub fn bump_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// JSON snapshot (latencies in nanoseconds).
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.insert("get_ns", self.get_ns.to_json())
            .insert("set_ns", self.set_ns.to_json())
            .insert("delete_ns", self.delete_ns.to_json())
            .insert(
                "conns_accepted",
                self.conns_accepted.load(Ordering::Relaxed),
            )
            .insert("conns_closed", self.conns_closed.load(Ordering::Relaxed))
            .insert(
                "protocol_errors",
                self.protocol_errors.load(Ordering::Relaxed),
            );
        j
    }
}

impl Default for ServerStats {
    fn default() -> ServerStats {
        ServerStats::new()
    }
}
