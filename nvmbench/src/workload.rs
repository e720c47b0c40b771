//! Seeded workloads: the op stream, its wire encoding, and the value
//! format the correctness oracle checks.
//!
//! Every op carries what its reply must be. Single-key ops on key `id`
//! always travel on connection `id % 2`, so the server's per-connection
//! ordering (read-your-writes, replies in request order) makes the
//! expected version of every `get` exact, not a range.

use nvm_hashfn::{splitmix64, SplitMix64};

use crate::reply::{Reply, Value};

/// Keys per multi-get command.
pub const MGET_KEYS: usize = 32;
/// Ids at or above this were never inserted (multi-get misses).
const MISS_BASE: u64 = 100_000_000_000;
/// Value bytes of the YCSB and multi-get workloads.
const YCSB_VALUE: u32 = 100;
/// Churn value sizes, uniform and inclusive.
const CHURN_MIN: u32 = 16;
const CHURN_MAX: u32 = 512;
/// Smallest value: an 8-byte id/version tag plus an 8-byte checksum.
const VALUE_HEADER: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    YcsbB,
    YcsbA,
    Multiget32,
    Churn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::YcsbB,
        Workload::YcsbA,
        Workload::Multiget32,
        Workload::Churn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::YcsbB => "ycsb_b",
            Workload::YcsbA => "ycsb_a",
            Workload::Multiget32 => "multiget_32",
            Workload::Churn => "churn",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Commands per second in the open-loop phases: at most a quarter of
    /// the closed-loop throughput, so the latency phase measures service,
    /// not queueing, even if a change makes the server slower.
    pub fn rate(self) -> f64 {
        match self {
            Workload::YcsbB => 25_000.0,
            Workload::YcsbA => 20_000.0,
            Workload::Multiget32 => 6_000.0,
            Workload::Churn => 20_000.0,
        }
    }

    /// Value length of preloaded key `id`; the seed only varies churn's.
    pub fn preload_len(self, seed: u64, id: u64) -> u32 {
        match self {
            Workload::Churn => churn_len(splitmix64(seed ^ id.wrapping_mul(0xA076_1D64_78BD_642F))),
            _ => YCSB_VALUE,
        }
    }
}

fn churn_len(r: u64) -> u32 {
    CHURN_MIN + (r % u64::from(CHURN_MAX - CHURN_MIN + 1)) as u32
}

/// One client command and the reply it must get.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Must return version `ver` of key `id`.
    Get { id: u64, ver: u32 },
    /// Writes version `ver` (`len` bytes); must return `STORED`.
    Set { id: u64, ver: u32, len: u32 },
    /// Deletes a live key; must return `DELETED`.
    Delete { id: u64 },
    /// Ids below `MISS_BASE` must hit at version 0, the rest must miss.
    MultiGet { ids: Box<[u64; MGET_KEYS]> },
}

impl Op {
    /// Key operations this command performs (a multi-get counts each key).
    pub fn key_ops(&self) -> u64 {
        match self {
            Op::MultiGet { .. } => MGET_KEYS as u64,
            _ => 1,
        }
    }

    /// The connection (of two) this op must use, or `None` for any.
    pub fn conn(&self) -> Option<usize> {
        match self {
            Op::Get { id, .. } | Op::Set { id, .. } | Op::Delete { id } => Some((id % 2) as usize),
            Op::MultiGet { .. } => None,
        }
    }

    pub fn kind(&self) -> OpKind {
        match self {
            Op::Get { .. } => OpKind::Get,
            Op::Set { .. } => OpKind::Set,
            Op::Delete { .. } => OpKind::Delete,
            Op::MultiGet { .. } => OpKind::MultiGet,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Get,
    Set,
    Delete,
    MultiGet,
}

impl OpKind {
    pub const ALL: [OpKind; 4] = [OpKind::Get, OpKind::Set, OpKind::Delete, OpKind::MultiGet];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Set => "set",
            OpKind::Delete => "delete",
            OpKind::MultiGet => "mget",
        }
    }
}

/// `key:%012d`, 16 bytes.
pub fn key(id: u64) -> [u8; 16] {
    let mut k = *b"key:000000000000";
    let mut v = id;
    for b in k[4..].iter_mut().rev() {
        *b = b'0' + (v % 10) as u8;
        v /= 10;
    }
    debug_assert_eq!(v, 0, "id {id} does not fit 12 digits");
    k
}

fn value_checksum(tag: u64, len: u32) -> u64 {
    splitmix64(tag ^ (u64::from(len) << 40) ^ 0x6E76_6D62_656E_6368)
}

/// Appends the `len`-byte value of version `ver` of key `id`: an 8-byte
/// `id << 24 | ver` tag, an 8-byte checksum over tag and length, and a
/// filler pattern derived from the checksum.
pub fn write_value(out: &mut Vec<u8>, id: u64, ver: u32, len: u32) {
    let tag = (id << 24) | u64::from(ver);
    let sum = value_checksum(tag, len);
    let fill = splitmix64(sum).to_le_bytes();
    let start = out.len();
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&sum.to_le_bytes());
    for i in VALUE_HEADER..len as usize {
        out.push(fill[i % 8]);
    }
    debug_assert_eq!(out.len() - start, len as usize);
}

/// The version a well-formed value of key `id` holds, or `None` when any
/// byte is wrong.
pub fn check_value(data: &[u8], id: u64) -> Option<u32> {
    if data.len() < VALUE_HEADER {
        return None;
    }
    let tag = u64::from_le_bytes(data[..8].try_into().ok()?);
    let sum = u64::from_le_bytes(data[8..16].try_into().ok()?);
    if tag >> 24 != id || sum != value_checksum(tag, data.len() as u32) {
        return None;
    }
    let fill = splitmix64(sum).to_le_bytes();
    let filler_ok = data[VALUE_HEADER..]
        .iter()
        .enumerate()
        .all(|(i, &b)| b == fill[(i + VALUE_HEADER) % 8]);
    filler_ok.then_some((tag & 0xFF_FFFF) as u32)
}

/// Appends the memcached request for `op` (flags 0, no expiry).
pub fn encode(op: &Op, out: &mut Vec<u8>) {
    match op {
        Op::Get { id, .. } => {
            out.extend_from_slice(b"get ");
            out.extend_from_slice(&key(*id));
        }
        Op::Set { id, ver, len } => {
            out.extend_from_slice(b"set ");
            out.extend_from_slice(&key(*id));
            out.extend_from_slice(format!(" 0 0 {len}\r\n").as_bytes());
            write_value(out, *id, *ver, *len);
        }
        Op::Delete { id } => {
            out.extend_from_slice(b"delete ");
            out.extend_from_slice(&key(*id));
        }
        Op::MultiGet { ids } => {
            out.extend_from_slice(b"get");
            for id in ids.iter() {
                out.push(b' ');
                out.extend_from_slice(&key(*id));
            }
        }
    }
    out.extend_from_slice(b"\r\n");
}

/// Whether a multi-get id was preloaded (and so must hit).
pub fn was_preloaded(id: u64) -> bool {
    id < MISS_BASE
}

/// How a reply compares with what its op must get.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// `SERVER_ERROR`: counted as failed, not as wrong.
    Refused,
    Wrong(String),
}

impl Op {
    pub fn check(&self, reply: &Reply<'_>) -> Outcome {
        let value_ok = |v: &Value<'_>, id: u64, ver: u32| {
            v.key == key(id) && v.flags == 0 && check_value(v.data, id) == Some(ver)
        };
        let ok = match (self, reply) {
            (_, Reply::Refused(_)) => return Outcome::Refused,
            (Op::Set { .. }, Reply::Stored) | (Op::Delete { .. }, Reply::Deleted) => true,
            (Op::Get { id, ver }, Reply::Values(values)) => {
                values.len() == 1 && value_ok(&values[0], *id, *ver)
            }
            (Op::MultiGet { ids }, Reply::Values(values)) => {
                let mut hits = values.iter();
                ids.iter()
                    .filter(|&&id| was_preloaded(id))
                    .all(|&id| hits.next().is_some_and(|v| value_ok(v, id, 0)))
                    && hits.next().is_none()
            }
            _ => false,
        };
        if ok {
            Outcome::Ok
        } else {
            Outcome::Wrong(format!("{self:?} got {reply:?}"))
        }
    }
}

/// YCSB's Zipfian generator (Gray et al., "Quickly generating
/// billion-record synthetic databases"), θ = 0.99, over ranks `0..n`.
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

/// `sum_{i=1..n} 1 / i^theta`.
pub fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

impl Zipf {
    pub const THETA: f64 = 0.99;

    pub fn new(n: u64) -> Zipf {
        let theta = Self::THETA;
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// The rank drawn by a uniform `u` in `[0, 1)`.
    pub fn rank(&self, u: f64) -> u64 {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha);
        (r as u64).min(self.n - 1)
    }
}

fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next() >> 11) as f64 / (1u64 << 53) as f64
}

/// The seeded op stream of one workload over `keys` preloaded keys, and
/// the store contents it implies once every op so far has committed.
pub struct OpStream {
    workload: Workload,
    keys: u64,
    seed: u64,
    rng: SplitMix64,
    zipf: Option<Zipf>,
    /// Latest version written per key (YCSB).
    versions: Vec<u32>,
    /// Churn's live keys are exactly `oldest..next_fresh`.
    oldest: u64,
    next_fresh: u64,
    /// Value lengths of churn's fresh keys, indexed by `id - keys`.
    fresh_lens: Vec<u32>,
    /// Key + value bytes of the live keys.
    live_bytes: u64,
}

impl OpStream {
    pub fn new(workload: Workload, keys: u64, seed: u64) -> OpStream {
        let ycsb = matches!(workload, Workload::YcsbA | Workload::YcsbB);
        let live_bytes = (0..keys)
            .map(|id| 16 + u64::from(workload.preload_len(seed, id)))
            .sum();
        OpStream {
            workload,
            keys,
            seed,
            rng: SplitMix64::new(seed ^ splitmix64(workload as u64 + 1)),
            zipf: ycsb.then(|| Zipf::new(keys)),
            versions: if ycsb {
                vec![0; keys as usize]
            } else {
                Vec::new()
            },
            oldest: 0,
            next_fresh: keys,
            fresh_lens: Vec::new(),
            live_bytes,
        }
    }

    /// Scrambled Zipfian key: the hottest ranks land on ids spread over
    /// the key space rather than on its first ids.
    fn zipf_id(&mut self) -> u64 {
        let u = unit(&mut self.rng);
        let rank = self
            .zipf
            .as_ref()
            .expect("YCSB stream has a Zipfian")
            .rank(u);
        splitmix64(rank ^ 0x5CA7_7E6D) % self.keys
    }

    pub fn live_keys(&self) -> u64 {
        self.next_fresh - self.oldest
    }

    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    fn value_len(&self, id: u64) -> u32 {
        if id < self.keys {
            self.workload.preload_len(self.seed, id)
        } else {
            self.fresh_lens[(id - self.keys) as usize]
        }
    }

    pub fn next_op(&mut self) -> Op {
        match self.workload {
            Workload::YcsbB | Workload::YcsbA => {
                let write_share = if self.workload == Workload::YcsbA {
                    0.5
                } else {
                    0.05
                };
                let write = unit(&mut self.rng) < write_share;
                let id = self.zipf_id();
                let ver = &mut self.versions[id as usize];
                if write {
                    *ver += 1;
                    Op::Set {
                        id,
                        ver: *ver,
                        len: YCSB_VALUE,
                    }
                } else {
                    Op::Get { id, ver: *ver }
                }
            }
            Workload::Multiget32 => {
                let mut ids = Box::new([0u64; MGET_KEYS]);
                for slot in ids.iter_mut() {
                    let id = self.rng.next() % self.keys;
                    let miss = self.rng.next().is_multiple_of(10);
                    *slot = if miss { MISS_BASE + id } else { id };
                }
                Op::MultiGet { ids }
            }
            Workload::Churn => {
                // Random walk around the preload size, kept within a
                // factor of two so the heap's size classes never fill.
                let live = self.live_keys();
                let set = if live <= self.keys / 2 {
                    true
                } else if live >= self.keys * 3 / 2 {
                    false
                } else {
                    self.rng.next() & 1 == 0
                };
                if set {
                    let id = self.next_fresh;
                    let len = churn_len(self.rng.next());
                    self.next_fresh += 1;
                    self.fresh_lens.push(len);
                    self.live_bytes += 16 + u64::from(len);
                    Op::Set { id, ver: 0, len }
                } else {
                    let id = self.oldest;
                    self.oldest += 1;
                    self.live_bytes -= 16 + u64::from(self.value_len(id));
                    Op::Delete { id }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(workload: Workload, seed: u64, ops: usize) -> Vec<u8> {
        let mut s = OpStream::new(workload, 10_000, seed);
        let mut out = Vec::new();
        for _ in 0..ops {
            encode(&s.next_op(), &mut out);
        }
        out
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in Workload::ALL {
            let a = stream_bytes(w, 7, 2_000);
            assert_eq!(a, stream_bytes(w, 7, 2_000), "{}", w.name());
            assert_ne!(a, stream_bytes(w, 8, 2_000), "{}", w.name());
        }
    }

    #[test]
    fn zipf_top_percent_share_matches_analytic() {
        let n = 100_000;
        let zipf = Zipf::new(n);
        let analytic = zeta(n / 100, Zipf::THETA) / zeta(n, Zipf::THETA);
        let mut rng = SplitMix64::new(3);
        let draws = 400_000;
        let top = (0..draws)
            .filter(|_| zipf.rank(unit(&mut rng)) < n / 100)
            .count();
        let share = top as f64 / draws as f64;
        assert!(
            (share - analytic).abs() < 0.02,
            "top 1% share {share} vs analytic {analytic}"
        );
    }

    #[test]
    fn values_check_and_every_wrong_byte_is_caught() {
        let mut v = Vec::new();
        write_value(&mut v, 4242, 17, 100);
        assert_eq!(check_value(&v, 4242), Some(17));
        assert_eq!(check_value(&v, 4243), None, "another key's value");
        for i in 0..v.len() {
            let mut bad = v.clone();
            bad[i] ^= 0x40;
            assert_eq!(check_value(&bad, 4242), None, "flipped byte {i}");
        }
        assert_eq!(check_value(&v[..99], 4242), None, "truncated");
    }

    #[test]
    fn keys_are_sixteen_bytes() {
        assert_eq!(&key(123), b"key:000000000123");
        assert_eq!(&key(MISS_BASE + 5), b"key:100000000005");
    }

    #[test]
    fn churn_tracks_live_keys_and_bytes() {
        let keys = 1_000;
        let mut s = OpStream::new(Workload::Churn, keys, 9);
        let mut live: std::collections::BTreeMap<u64, u32> = (0..keys)
            .map(|id| (id, Workload::Churn.preload_len(9, id)))
            .collect();
        for _ in 0..5_000 {
            match s.next_op() {
                Op::Set { id, len, .. } => assert!(live.insert(id, len).is_none(), "fresh key"),
                Op::Delete { id } => {
                    assert_eq!(live.keys().next(), Some(&id), "oldest live key");
                    live.remove(&id);
                }
                other => panic!("churn emitted {other:?}"),
            }
        }
        assert_eq!(s.live_keys(), live.len() as u64);
        let bytes: u64 = live.values().map(|&l| 16 + u64::from(l)).sum();
        assert_eq!(s.live_bytes(), bytes);
    }
}
