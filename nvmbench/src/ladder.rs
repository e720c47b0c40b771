//! The traced run: the first ops of the workload's seeded stream
//! replayed in process and single-threaded against each layer's public
//! API, one rung per layer, each on its own freshly preloaded pool.
//!
//! ```text
//! parse   protocol::parse over the request bytes
//! server  Session::feed, then Session::step and Store::pump until the
//!         sweep is answered (worker_loop's order)
//! kv      Store::{get, get_batch, stage_set, stage_delete, pump}
//! core    the GroupHash calls PmemKv makes for the same ops
//! alloc   the PmemHeap calls PmemKv makes for the same ops
//! ```
//!
//! A rung's time includes the rungs it calls into, so the differences
//! are self times: the server rung minus the kv rung is the session's own
//! work, and the kv rung minus the core and alloc rungs is the store's.
//! The core and alloc rungs follow the calls `Store::pump` and `PmemKv`
//! make today (the blob-then-index commit, the lookups before an update
//! or delete); a change to that choreography has to be mirrored here for
//! the subtraction to stay meaningful.

use std::collections::BTreeMap;
use std::error::Error;
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

use group_hash::{CommitStrategy, GroupHash, GroupHashConfig};
use nvm_alloc::{AllocError, HeapConfig, PmemHeap, PmemPtr};
use nvm_hashfn::murmur3_x64_128;
use nvm_kv::prelude::*;
use nvm_pmem::{Pmem, PmemRead, PmemStats, RealPmem, Region};
use nvm_server::protocol::{self, Parsed};
use nvm_server::{ServerStats, Session};

use crate::reply::{self, Reply, Value};
use crate::setup::{self, PRELOAD_CHUNK};
use crate::workload::{encode, key, was_preloaded, Op, OpStream, Outcome, Workload};

/// Commands per sweep: what a busy worker finds on one connection with
/// the closed-loop generator's pipeline depth.
const SWEEP: usize = 16;

/// A pool that times every `flush` and `fence` and forwards every call
/// unchanged (the wrapped pool keeps counting them).
pub struct TracedPmem<P> {
    inner: P,
    persist_ns: u64,
}

impl<P> TracedPmem<P> {
    pub fn new(inner: P) -> TracedPmem<P> {
        TracedPmem {
            inner,
            persist_ns: 0,
        }
    }
}

impl<P: PmemRead> PmemRead for TracedPmem<P> {
    fn read(&self, off: usize, buf: &mut [u8]) {
        self.inner.read(off, buf);
    }

    fn read_u64(&self, off: usize) -> u64 {
        self.inner.read_u64(off)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn prefetch(&self, off: usize, len: usize) {
        self.inner.prefetch(off, len);
    }
}

impl<P: Pmem> Pmem for TracedPmem<P> {
    type ReadHandle = P::ReadHandle;
    type WriteHandle = P::WriteHandle;

    fn read_handle(&self) -> P::ReadHandle {
        self.inner.read_handle()
    }

    fn write_handle(&mut self) -> P::WriteHandle {
        self.inner.write_handle()
    }

    fn write(&mut self, off: usize, data: &[u8]) {
        self.inner.write(off, data);
    }

    fn write_u64(&mut self, off: usize, v: u64) {
        self.inner.write_u64(off, v);
    }

    fn atomic_write_u64(&mut self, off: usize, v: u64) {
        self.inner.atomic_write_u64(off, v);
    }

    fn flush(&mut self, off: usize, len: usize) {
        let t = Instant::now();
        self.inner.flush(off, len);
        self.persist_ns += t.elapsed().as_nanos() as u64;
    }

    fn fence(&mut self) {
        let t = Instant::now();
        self.inner.fence();
        self.persist_ns += t.elapsed().as_nanos() as u64;
    }

    fn stats(&self) -> PmemStats {
        self.inner.stats()
    }

    /// Also zeroes the flush + fence time.
    fn reset_stats(&mut self) {
        self.inner.reset_stats();
        self.persist_ns = 0;
    }
}

fn traced_pool(bytes: usize) -> TracedPmem<RealPmem> {
    TracedPmem::new(setup::pool(bytes))
}

/// Time and call count per span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acc {
    pub ns: u64,
    pub n: u64,
}

impl Acc {
    pub fn per(&self) -> f64 {
        self.ns as f64 / self.n.max(1) as f64
    }
}

#[derive(Debug, Default)]
pub struct Spans(pub BTreeMap<&'static str, Acc>);

impl Spans {
    /// Runs `f`, charging its time to `name` as `n` operations.
    fn time<T>(&mut self, name: &'static str, n: usize, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let acc = self.0.entry(name).or_default();
        acc.ns += t.elapsed().as_nanos() as u64;
        acc.n += n as u64;
        out
    }

    fn total_ns(&self) -> u64 {
        self.0.values().map(|a| a.ns).sum()
    }
}

/// Wrong replies found while replaying.
#[derive(Debug, Default)]
pub struct Check {
    pub wrong: u64,
    pub first: Option<String>,
}

impl Check {
    fn fail(&mut self, msg: String) {
        self.wrong += 1;
        self.first.get_or_insert(msg);
    }

    fn outcome(&mut self, outcome: Outcome) {
        if outcome != Outcome::Ok {
            self.fail(format!("{outcome:?}"));
        }
    }

    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }
}

/// What one sweep does, in the order the session does it: reads run
/// once the writes staged before them have committed.
enum Step {
    Read(usize),
    Commit(Range<usize>),
}

struct Sweep {
    ops: Range<usize>,
    steps: Vec<Step>,
    wire: Vec<u8>,
}

struct Replay {
    ops: Vec<Op>,
    sweeps: Vec<Sweep>,
    workload: Workload,
    keys: u64,
    seed: u64,
}

impl Replay {
    fn new(workload: Workload, keys: u64, seed: u64, key_ops: u64) -> Replay {
        let mut stream = OpStream::new(workload, keys, seed);
        let mut ops = Vec::new();
        let mut n = 0;
        while n < key_ops {
            let op = stream.next_op();
            n += op.key_ops();
            ops.push(op);
        }
        let mut sweeps = Vec::new();
        for start in (0..ops.len()).step_by(SWEEP) {
            let end = (start + SWEEP).min(ops.len());
            let mut steps = Vec::new();
            let mut staged: Option<usize> = None;
            let mut wire = Vec::new();
            for (i, op) in ops.iter().enumerate().take(end).skip(start) {
                encode(op, &mut wire);
                match op {
                    Op::Set { .. } | Op::Delete { .. } => {
                        staged.get_or_insert(i);
                    }
                    Op::Get { .. } | Op::MultiGet { .. } => {
                        if let Some(s) = staged.take() {
                            steps.push(Step::Commit(s..i));
                        }
                        steps.push(Step::Read(i));
                    }
                }
            }
            if let Some(s) = staged {
                steps.push(Step::Commit(s..end));
            }
            sweeps.push(Sweep {
                ops: start..end,
                steps,
                wire,
            });
        }
        Replay {
            ops,
            sweeps,
            workload,
            keys,
            seed,
        }
    }

    fn writes(&self) -> u64 {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::Set { .. } | Op::Delete { .. }))
            .count() as u64
    }

    /// Consecutive same-kind runs of a commit, as `Store::pump` applies
    /// them (one `set_batch` or one `delete_batch` per run).
    fn runs(&self, commit: &Range<usize>) -> Vec<Range<usize>> {
        let is_set = |i: usize| matches!(self.ops[i], Op::Set { .. });
        let mut runs = Vec::new();
        let mut start = commit.start;
        for i in commit.clone().skip(1) {
            if is_set(i) != is_set(start) {
                runs.push(start..i);
                start = i;
            }
        }
        runs.push(start..commit.end);
        runs
    }

    /// The ids a set run stores, duplicates collapsed (last write wins)
    /// in first-appearance order, as `PmemKv::set_batch` does.
    fn set_ids(&self, run: &Range<usize>) -> Vec<(u64, usize)> {
        let mut out: Vec<(u64, usize)> = Vec::new();
        for i in run.clone() {
            let Op::Set { id, .. } = self.ops[i] else {
                unreachable!("set run holds sets")
            };
            match out.iter_mut().find(|(seen, _)| *seen == id) {
                Some(slot) => slot.1 = i,
                None => out.push((id, i)),
            }
        }
        out
    }
}

fn fingerprint(id: u64) -> [u8; 16] {
    let (lo, hi) = murmur3_x64_128(&key(id), 0x4B56);
    let mut f = [0u8; 16];
    f[..8].copy_from_slice(&lo.to_le_bytes());
    f[8..].copy_from_slice(&hi.to_le_bytes());
    f
}

/// The heap blob `PmemKv` stores: `[key_len u32-LE | key | stored value]`.
fn kv_blob(id: u64, ver: u32, len: u32) -> Vec<u8> {
    let mut blob = Vec::with_capacity(20 + 4 + len as usize);
    blob.extend_from_slice(&16u32.to_le_bytes());
    blob.extend_from_slice(&key(id));
    blob.extend_from_slice(&setup::stored_value(id, ver, len));
    blob
}

fn parse_rung(replay: &Replay) -> u64 {
    let t = Instant::now();
    for sweep in &replay.sweeps {
        let mut pos = 0;
        while let Parsed::Cmd { cmd, consumed } = protocol::parse(&sweep.wire[pos..]) {
            black_box(cmd);
            pos += consumed;
        }
        assert_eq!(
            pos,
            sweep.wire.len(),
            "replay bytes parse as whole commands"
        );
    }
    t.elapsed().as_nanos() as u64
}

fn server_rung<P: Pmem>(replay: &Replay, store: &Store<P>, check: &mut Check) -> u64 {
    let stats = ServerStats::new();
    let mut session = Session::new();
    let mut ns = 0;
    for sweep in &replay.sweeps {
        let t = Instant::now();
        session.feed(&sweep.wire);
        while session.step(store, &stats, false) > 0 {
            store.pump();
        }
        ns += t.elapsed().as_nanos() as u64;
        let out = session.output();
        let mut pos = 0;
        for op in &replay.ops[sweep.ops.clone()] {
            match reply::parse(&out[pos..]) {
                Ok(Some((r, used))) => {
                    check.outcome(op.check(&r));
                    pos += used;
                }
                other => check.fail(format!("{op:?}: no reply ({other:?})")),
            }
        }
        check.expect(pos == out.len(), || {
            "replies beyond the sweep's commands".into()
        });
        let n = out.len();
        session.consume_output(n);
    }
    ns
}

/// A stored blob as the `get` reply the server would build from it.
fn as_value<'a>(key: &'a [u8], blob: &'a [u8]) -> Value<'a> {
    let flags = blob
        .get(..4)
        .map_or(u32::MAX, |f| u32::from_le_bytes([f[0], f[1], f[2], f[3]]));
    Value {
        key,
        flags,
        data: blob.get(4..).unwrap_or_default(),
    }
}

fn kv_rung<P: Pmem>(replay: &Replay, store: &Store<P>, spans: &mut Spans, check: &mut Check) {
    for sweep in &replay.sweeps {
        for step in &sweep.steps {
            match step {
                Step::Read(i) => match &replay.ops[*i] {
                    op @ Op::Get { id, .. } => {
                        let k = key(*id);
                        let got = spans.time("kv.get", 1, || store.get(&k));
                        let values = got.iter().map(|b| as_value(&k, b)).collect();
                        check.outcome(op.check(&Reply::Values(values)));
                    }
                    op @ Op::MultiGet { ids } => {
                        let keys: Vec<[u8; 16]> = ids.iter().map(|&id| key(id)).collect();
                        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
                        let got = spans.time("kv.get_batch", refs.len(), || store.get_batch(&refs));
                        let values = refs
                            .iter()
                            .zip(&got)
                            .filter_map(|(k, b)| b.as_ref().map(|b| as_value(k, b)))
                            .collect();
                        check.outcome(op.check(&Reply::Values(values)));
                    }
                    _ => unreachable!("reads are gets"),
                },
                Step::Commit(range) => {
                    let ops = &replay.ops[range.clone()];
                    let tickets: Vec<WriteTicket> = ops
                        .iter()
                        .map(|op| match op {
                            Op::Set { id, ver, len } => {
                                let (k, v) = (key(*id), setup::stored_value(*id, *ver, *len));
                                spans.time("kv.stage_set", 1, || store.stage_set(&k, &v))
                            }
                            Op::Delete { id } => {
                                let k = key(*id);
                                spans.time("kv.stage_delete", 1, || store.stage_delete(&k))
                            }
                            _ => unreachable!("commits hold writes"),
                        })
                        .collect();
                    spans.time("kv.pump", ops.len(), || store.pump());
                    for (op, ticket) in ops.iter().zip(tickets) {
                        let reply = match (op, ticket.try_result()) {
                            (Op::Set { .. }, Some(Ok(true))) => Reply::Stored,
                            (Op::Delete { .. }, Some(Ok(true))) => Reply::Deleted,
                            (Op::Delete { .. }, Some(Ok(false))) => Reply::NotFound,
                            (_, other) => {
                                check.fail(format!("{op:?}: ticket {other:?}"));
                                continue;
                            }
                        };
                        check.outcome(op.check(&reply));
                    }
                }
            }
        }
    }
}

type Index = GroupHash<TracedPmem<RealPmem>, [u8; 16], u64>;

/// The index geometry `PmemKv` builds for the store's single shard.
fn index_config(keys: u64) -> GroupHashConfig {
    let cfg = setup::kv_config(keys);
    GroupHashConfig::new(cfg.index_cells_per_level, cfg.group_size)
        .with_seed(cfg.seed)
        .with_fp_mode(cfg.fp)
        .with_commit(match cfg.consistency {
            ConsistencyMode::None => CommitStrategy::AtomicBitmap,
            ConsistencyMode::UndoLog => CommitStrategy::UndoLog,
        })
}

/// The index rung. Reads go through the read view, as the store's
/// lock-free read path does; the write path's lookups use the table.
/// Returns the replay's pmem counts.
fn core_rung(
    replay: &Replay,
    spans: &mut Spans,
    check: &mut Check,
) -> Result<PmemStats, Box<dyn Error>> {
    let cfg = index_config(replay.keys);
    let size = Index::required_size(&cfg);
    let mut pm = traced_pool(size);
    let mut index = Index::create(&mut pm, Region::new(0, size), cfg)?;
    let fps: Vec<[u8; 16]> = (0..replay.keys).map(fingerprint).collect();
    for chunk in fps.chunks(PRELOAD_CHUNK as usize) {
        let items: Vec<([u8; 16], u64)> = chunk.iter().map(|fp| (*fp, 1)).collect();
        index
            .insert_batch(&mut pm, &items)
            .map_err(|e| format!("index preload: {e:?}"))?;
    }
    let view = index.read_view();
    let base = pm.stats();
    let mut next_ptr = 1u64;
    for step in replay.sweeps.iter().flat_map(|s| &s.steps) {
        match step {
            Step::Read(i) => match &replay.ops[*i] {
                Op::Get { id, .. } => {
                    let fp = fingerprint(*id);
                    let got = spans.time("core.get", 1, || view.get(&pm, &fp));
                    check.expect(got.is_some(), || format!("core.get {id}: miss"));
                }
                Op::MultiGet { ids } => {
                    let fps: Vec<[u8; 16]> = ids.iter().map(|&id| fingerprint(id)).collect();
                    let got = spans.time("core.get_batch", fps.len(), || view.get_batch(&pm, &fps));
                    for (&id, g) in ids.iter().zip(got) {
                        check.expect(g.is_some() == was_preloaded(id), || {
                            format!("core.get_batch {id}")
                        });
                    }
                }
                _ => unreachable!("reads are gets"),
            },
            Step::Commit(commit) => {
                for run in replay.runs(commit) {
                    if matches!(replay.ops[run.start], Op::Set { .. }) {
                        let fps: Vec<[u8; 16]> = replay
                            .set_ids(&run)
                            .iter()
                            .map(|&(id, _)| fingerprint(id))
                            .collect();
                        let result = spans.time("core.set", run.len(), || {
                            let mut fresh = Vec::new();
                            for fp in &fps {
                                next_ptr += 1;
                                if index.get(&pm, fp).is_some() {
                                    index.update_in_place(&mut pm, fp, next_ptr);
                                } else {
                                    fresh.push((*fp, next_ptr));
                                }
                            }
                            index.insert_batch(&mut pm, &fresh)
                        });
                        check.expect(result.is_ok(), || format!("core.set: {result:?}"));
                    } else {
                        let fps: Vec<[u8; 16]> = replay.ops[run.clone()]
                            .iter()
                            .map(|op| match op {
                                Op::Delete { id } => fingerprint(*id),
                                _ => unreachable!("delete run holds deletes"),
                            })
                            .collect();
                        let removed = spans.time("core.delete", run.len(), || {
                            // The store's presence check, then delete_batch's own lookup.
                            for _ in 0..2 {
                                for fp in &fps {
                                    black_box(index.get(&pm, fp));
                                }
                            }
                            index.remove_batch(&mut pm, &fps)
                        });
                        check.expect(removed == fps.len(), || {
                            format!("core.delete removed {removed}")
                        });
                    }
                }
            }
        }
    }
    Ok(pm.stats().delta_since(&base))
}

/// The heap rung, on the heap geometry `PmemKv` builds. Returns the
/// replay's pmem counts.
fn alloc_rung(
    replay: &Replay,
    spans: &mut Spans,
    check: &mut Check,
) -> Result<PmemStats, Box<dyn Error>> {
    let cfg = HeapConfig::balanced(setup::kv_config(replay.keys).heap_bytes);
    let size = PmemHeap::required_size(&cfg);
    let mut pm = traced_pool(size);
    let mut heap = PmemHeap::create(&mut pm, Region::new(0, size), &cfg)?;
    let mut ptrs: Vec<PmemPtr> = Vec::with_capacity(replay.keys as usize);
    for start in (0..replay.keys).step_by(PRELOAD_CHUNK as usize) {
        let blobs: Vec<Vec<u8>> = (start..(start + PRELOAD_CHUNK).min(replay.keys))
            .map(|id| kv_blob(id, 0, replay.workload.preload_len(replay.seed, id)))
            .collect();
        let refs: Vec<&[u8]> = blobs.iter().map(|b| b.as_slice()).collect();
        ptrs.extend(heap.alloc_batch(&mut pm, &refs)?);
    }
    let view = heap.read_view();
    let base = pm.stats();
    for step in replay.sweeps.iter().flat_map(|s| &s.steps) {
        match step {
            Step::Read(i) => {
                let hits: Vec<PmemPtr> = match &replay.ops[*i] {
                    Op::Get { id, .. } => vec![ptrs[*id as usize]],
                    Op::MultiGet { ids } => ids
                        .iter()
                        .filter(|&&id| was_preloaded(id))
                        .map(|&id| ptrs[id as usize])
                        .collect(),
                    _ => unreachable!("reads are gets"),
                };
                let ok = spans.time("alloc.read", hits.len(), || {
                    // get_batch prefetches every hit's blob head first.
                    if hits.len() > 1 {
                        for p in &hits {
                            pm.prefetch(p.0 as usize, 8);
                        }
                    }
                    hits.iter().all(|&p| black_box(view.read(&pm, p)).is_ok())
                });
                check.expect(ok, || "alloc.read failed".into());
            }
            Step::Commit(commit) => {
                for run in replay.runs(commit) {
                    if matches!(replay.ops[run.start], Op::Set { .. }) {
                        let ids = replay.set_ids(&run);
                        let blobs: Vec<Vec<u8>> = ids
                            .iter()
                            .map(|&(_, i)| match replay.ops[i] {
                                Op::Set { id, ver, len } => kv_blob(id, ver, len),
                                _ => unreachable!("set run holds sets"),
                            })
                            .collect();
                        let refs: Vec<&[u8]> = blobs.iter().map(|b| b.as_slice()).collect();
                        let result = spans.time("alloc.set", run.len(), || {
                            let new = heap.alloc_batch(&mut pm, &refs)?;
                            for (&(id, _), ptr) in ids.iter().zip(new) {
                                match ptrs.get_mut(id as usize) {
                                    Some(old) => {
                                        heap.free(&mut pm, *old)?;
                                        *old = ptr;
                                    }
                                    None => ptrs.push(ptr),
                                }
                            }
                            Ok::<(), AllocError>(())
                        });
                        check.expect(result.is_ok(), || format!("alloc.set: {result:?}"));
                    } else {
                        let doomed: Vec<PmemPtr> = replay.ops[run.clone()]
                            .iter()
                            .map(|op| match op {
                                Op::Delete { id } => ptrs[*id as usize],
                                _ => unreachable!("delete run holds deletes"),
                            })
                            .collect();
                        let result = spans.time("alloc.delete", run.len(), || {
                            // The store's presence check reads each blob, then
                            // delete_batch reads it again before freeing.
                            for _ in 0..2 {
                                for &p in &doomed {
                                    black_box(heap.read(&pm, p)?);
                                }
                            }
                            doomed.iter().try_for_each(|&p| heap.free(&mut pm, p))
                        });
                        check.expect(result.is_ok(), || format!("alloc.delete: {result:?}"));
                    }
                }
            }
        }
    }
    Ok(pm.stats().delta_since(&base))
}

/// The per-command cost of each rung, and what the traced pools counted.
#[derive(Debug, Default)]
pub struct Ladder {
    pub commands: u64,
    pub key_ops: u64,
    pub writes: u64,
    /// Mean ns per command, per rung.
    pub parse_ns: f64,
    pub server_ns: f64,
    pub server_untraced_ns: f64,
    pub kv_ns: f64,
    pub core_ns: f64,
    pub alloc_ns: f64,
    /// Share of the kv rung's time spent inside `flush` and `fence`.
    pub persist_share: f64,
    pub core_pmem: PmemStats,
    pub alloc_pmem: PmemStats,
    /// Per-call spans of the kv, core and alloc rungs.
    pub spans: Spans,
    pub check: Check,
}

impl Ladder {
    /// Mean ns per command of the spans named `<layer>.*`.
    fn layer_ns(&self, layer: &str) -> f64 {
        let ns: u64 = self
            .spans
            .0
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, acc)| acc.ns)
            .sum();
        ns as f64 / self.commands as f64
    }
}

/// Replays the first `key_ops` key operations of the workload's stream
/// on every rung.
pub fn run(
    workload: Workload,
    keys: u64,
    seed: u64,
    key_ops: u64,
) -> Result<Ladder, Box<dyn Error>> {
    let replay = Replay::new(workload, keys, seed, key_ops);
    let commands = replay.ops.len() as u64;
    let per_cmd = |ns: u64| ns as f64 / commands as f64;
    let mut out = Ladder {
        commands,
        key_ops: replay.ops.iter().map(Op::key_ops).sum(),
        writes: replay.writes(),
        parse_ns: per_cmd(parse_rung(&replay)),
        ..Ladder::default()
    };
    let mut check = Check::default();

    let (store, _) = setup::create_and_preload(workload, keys, seed, |_, b| setup::pool(b))?;
    out.server_untraced_ns = per_cmd(server_rung(&replay, &store, &mut check));
    drop(store);

    let (store, _) = setup::create_and_preload(workload, keys, seed, |_, b| traced_pool(b))?;
    out.server_ns = per_cmd(server_rung(&replay, &store, &mut check));
    drop(store);

    let (store, _) = setup::create_and_preload(workload, keys, seed, |_, b| traced_pool(b))?;
    store.reset_pmem_stats();
    kv_rung(&replay, &store, &mut out.spans, &mut check);
    let kv_total = out.spans.total_ns();
    out.kv_ns = per_cmd(kv_total);
    let pools = store
        .into_pools()
        .map_err(|_| "kv rung store still shared")?;
    let persist_ns: u64 = pools.iter().map(|p| p.persist_ns).sum();
    out.persist_share = persist_ns as f64 / kv_total.max(1) as f64;
    drop(pools);

    out.core_pmem = core_rung(&replay, &mut out.spans, &mut check)?;
    out.core_ns = out.layer_ns("core");
    out.alloc_pmem = alloc_rung(&replay, &mut out.spans, &mut check)?;
    out.alloc_ns = out.layer_ns("alloc");
    out.check = check;
    Ok(out)
}
