//! The load generator: one thread driving two nonblocking loopback
//! connections, checking every reply against the op that caused it.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::reply;
use crate::workload::{encode, Op, OpKind, OpStream, Outcome};

/// Connections; one generator thread serves them all.
const CONNS: usize = 2;
/// Requests in flight per connection in the closed-loop phase.
const DEPTH: usize = 16;
/// How long outstanding replies may take before they count as unanswered.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

struct Pending {
    op: Op,
    /// When the request was due (open loop) or sent (closed loop).
    due: Instant,
    timed: bool,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    input: Vec<u8>,
    pending: VecDeque<Pending>,
}

impl Conn {
    fn flush(&mut self) -> io::Result<()> {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads whatever has arrived; true if anything did.
    fn fill(&mut self, buf: &mut [u8]) -> io::Result<bool> {
        let mut got = false;
        loop {
            match self.stream.read(buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.input.extend_from_slice(&buf[..n]);
                    got = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(got),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// One timed request: from when it was due to when its reply arrived.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: OpKind,
    pub latency_ns: u64,
}

/// What the generator sent and what came back.
#[derive(Debug, Default)]
pub struct Tally {
    /// Commands sent.
    pub attempted: u64,
    /// Key operations sent (a multi-get counts each key).
    pub key_ops: u64,
    /// Key + value bytes of the `set`s sent.
    pub set_bytes: u64,
    pub refused: u64,
    pub unanswered: u64,
    pub wrong: u64,
    pub first_wrong: Option<String>,
    pub samples: Vec<Sample>,
    /// How late each timed request was sent.
    pub lag_ns: Vec<u64>,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.refused + self.unanswered + self.wrong
    }
}

pub struct Generator {
    conns: Vec<Conn>,
    stream: OpStream,
    buf: Vec<u8>,
    /// Alternates connections for ops that may use either.
    next_conn: usize,
    /// Key operations answered before `window_end` (closed loop).
    answered: u64,
    window_end: Option<Instant>,
    pub tally: Tally,
}

impl Generator {
    pub fn connect(addr: SocketAddr, stream: OpStream) -> io::Result<Generator> {
        let mut conns = Vec::with_capacity(CONNS);
        for _ in 0..CONNS {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
            conns.push(Conn {
                stream: s,
                out: Vec::new(),
                input: Vec::new(),
                pending: VecDeque::new(),
            });
        }
        Ok(Generator {
            conns,
            stream,
            buf: vec![0; 64 * 1024],
            next_conn: 0,
            answered: 0,
            window_end: None,
            tally: Tally::default(),
        })
    }

    pub fn stream(&self) -> &OpStream {
        &self.stream
    }

    /// Closes the connections.
    pub fn into_tally(self) -> Tally {
        self.tally
    }

    fn conn_for(&mut self, op: &Op) -> usize {
        op.conn().unwrap_or_else(|| {
            self.next_conn = (self.next_conn + 1) % CONNS;
            self.next_conn
        })
    }

    fn queue(&mut self, op: Op, conn: usize, due: Instant, timed: bool) {
        let t = &mut self.tally;
        t.attempted += 1;
        t.key_ops += op.key_ops();
        if let Op::Set { len, .. } = op {
            t.set_bytes += 16 + u64::from(len);
        }
        let c = &mut self.conns[conn];
        encode(&op, &mut c.out);
        c.pending.push_back(Pending { op, due, timed });
    }

    /// Sends what is queued, then checks and records every complete reply.
    fn poll(&mut self) -> io::Result<()> {
        let Generator {
            conns,
            buf,
            tally,
            answered,
            window_end,
            ..
        } = self;
        for conn in conns.iter_mut() {
            conn.flush()?;
            if !conn.fill(buf)? {
                continue;
            }
            let now = Instant::now();
            let mut pos = 0;
            while let Some((reply, used)) = reply::parse(&conn.input[pos..])
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            {
                pos += used;
                let Some(p) = conn.pending.pop_front() else {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "reply without a request",
                    ));
                };
                match p.op.check(&reply) {
                    Outcome::Ok => {}
                    Outcome::Refused => tally.refused += 1,
                    Outcome::Wrong(msg) => {
                        tally.wrong += 1;
                        tally.first_wrong.get_or_insert(msg);
                    }
                }
                if p.timed {
                    tally.samples.push(Sample {
                        kind: p.op.kind(),
                        latency_ns: (now - p.due).as_nanos() as u64,
                    });
                }
                if window_end.is_some_and(|end| now < end) {
                    *answered += p.op.key_ops();
                }
            }
            conn.input.drain(..pos);
        }
        Ok(())
    }

    /// Waits for every outstanding reply; what never comes is unanswered.
    fn drain(&mut self) -> io::Result<()> {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.conns.iter().any(|c| !c.pending.is_empty()) {
            if Instant::now() > deadline {
                for c in &mut self.conns {
                    self.tally.unanswered += c.pending.len() as u64;
                    c.pending.clear();
                }
                break;
            }
            self.poll()?;
        }
        Ok(())
    }

    /// Sends `rate` commands per second on a fixed schedule for
    /// `duration`, whatever the replies do. With `timed`, each latency
    /// counts from when its request was due.
    pub fn open_loop(&mut self, duration: Duration, rate: f64, timed: bool) -> io::Result<()> {
        let total = (duration.as_secs_f64() * rate).round() as u64;
        let interval_ns = 1e9 / rate;
        let start = Instant::now();
        let mut sent = 0u64;
        while sent < total {
            let now = Instant::now();
            let elapsed_ns = (now - start).as_nanos() as f64;
            while sent < total && sent as f64 * interval_ns <= elapsed_ns {
                let due = start + Duration::from_nanos((sent as f64 * interval_ns) as u64);
                if timed {
                    self.tally.lag_ns.push((now - due).as_nanos() as u64);
                }
                let op = self.stream.next_op();
                let conn = self.conn_for(&op);
                self.queue(op, conn, due, timed);
                sent += 1;
            }
            self.poll()?;
        }
        self.drain()
    }

    /// Keeps `DEPTH` requests in flight per connection for `duration`,
    /// starting from an empty pipeline; returns the key operations
    /// answered within it.
    pub fn closed_loop(&mut self, duration: Duration) -> io::Result<u64> {
        let end = Instant::now() + duration;
        self.answered = 0;
        self.window_end = Some(end);
        let mut held: Option<Op> = None;
        while Instant::now() < end {
            loop {
                let op = held.take().unwrap_or_else(|| self.stream.next_op());
                let conn = self.conn_for(&op);
                if self.conns[conn].pending.len() >= DEPTH {
                    held = Some(op);
                    break;
                }
                self.queue(op, conn, Instant::now(), false);
            }
            self.poll()?;
        }
        self.window_end = None;
        if let Some(op) = held {
            // Already drawn from the stream: send it so the store and the
            // stream's model of it stay in step.
            let conn = self.conn_for(&op);
            self.queue(op, conn, Instant::now(), false);
        }
        self.drain()?;
        Ok(self.answered)
    }
}
