//! Conformance: a [`Session`]-driven store behaves exactly like the
//! same operation sequence issued directly against the [`Store`]
//! facade — same replies, same final contents — and a store the server
//! is actively writing recovers cleanly from a crash at any point,
//! with every acknowledged write intact.
//!
//! The session is driven with no sockets: bytes in, bytes out. That
//! keeps the equivalence argument about the protocol/session layer
//! itself, not about TCP.

use std::collections::HashMap;

use nvm_kv::prelude::*;
use nvm_pmem::{run_with_crash, CrashPlan, CrashResolution, Pmem, SimConfig, SimPmem};
use nvm_server::{ServerStats, Session};

/// One scripted client operation.
#[derive(Debug, Clone)]
enum Op {
    Set {
        key: Vec<u8>,
        flags: u32,
        data: Vec<u8>,
    },
    Get {
        keys: Vec<Vec<u8>>,
    },
    Delete {
        key: Vec<u8>,
    },
}

/// Tiny deterministic generator — no clock, no global RNG.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn script(seed: u64, n: usize, key_space: u64) -> Vec<Op> {
    let mut rng = XorShift(seed | 1);
    (0..n)
        .map(|_| {
            let key = |rng: &mut XorShift| format!("key:{:03}", rng.below(key_space)).into_bytes();
            match rng.below(10) {
                0..=4 => {
                    let len = rng.below(120) as usize;
                    let mut data = vec![0u8; len];
                    for b in &mut data {
                        *b = rng.next() as u8; // arbitrary bytes, incl. \r\n
                    }
                    Op::Set {
                        key: key(&mut rng),
                        flags: rng.next() as u32,
                        data,
                    }
                }
                5..=7 => {
                    let k = 1 + rng.below(4) as usize;
                    Op::Get {
                        keys: (0..k).map(|_| key(&mut rng)).collect(),
                    }
                }
                _ => Op::Delete { key: key(&mut rng) },
            }
        })
        .collect()
}

fn render(ops: &[Op]) -> Vec<u8> {
    let mut wire = Vec::new();
    for op in ops {
        match op {
            Op::Set { key, flags, data } => {
                wire.extend_from_slice(
                    format!(
                        "set {} {flags} 0 {}\r\n",
                        String::from_utf8_lossy(key),
                        data.len()
                    )
                    .as_bytes(),
                );
                wire.extend_from_slice(data);
                wire.extend_from_slice(b"\r\n");
            }
            Op::Get { keys } => {
                wire.extend_from_slice(b"get");
                for k in keys {
                    wire.push(b' ');
                    wire.extend_from_slice(k);
                }
                wire.extend_from_slice(b"\r\n");
            }
            Op::Delete { key } => {
                wire.extend_from_slice(b"delete ");
                wire.extend_from_slice(key);
                wire.extend_from_slice(b"\r\n");
            }
        }
    }
    wire
}

/// The replies a correct memcached server gives for `ops`, computed
/// from a plain in-memory model.
fn expected_replies(ops: &[Op]) -> Vec<u8> {
    let mut model: HashMap<Vec<u8>, (u32, Vec<u8>)> = HashMap::new();
    let mut out = Vec::new();
    for op in ops {
        match op {
            Op::Set { key, flags, data } => {
                model.insert(key.clone(), (*flags, data.clone()));
                out.extend_from_slice(b"STORED\r\n");
            }
            Op::Get { keys } => {
                for k in keys {
                    if let Some((flags, data)) = model.get(k) {
                        out.extend_from_slice(
                            format!(
                                "VALUE {} {flags} {}\r\n",
                                String::from_utf8_lossy(k),
                                data.len()
                            )
                            .as_bytes(),
                        );
                        out.extend_from_slice(data);
                        out.extend_from_slice(b"\r\n");
                    }
                }
                out.extend_from_slice(b"END\r\n");
            }
            Op::Delete { key } => {
                out.extend_from_slice(if model.remove(key).is_some() {
                    b"DELETED\r\n".as_slice()
                } else {
                    b"NOT_FOUND\r\n".as_slice()
                });
            }
        }
    }
    out
}

/// Drives the session until every byte is parsed and every ticket has
/// its reply, pumping the store whenever work is staged.
fn run_to_quiescence<P: Pmem>(session: &mut Session, store: &Store<P>, stats: &ServerStats) {
    loop {
        let staged = session.step(store, stats, false);
        if session.in_flight() > 0 {
            store.pump();
            continue;
        }
        if staged == 0 {
            break;
        }
    }
}

#[test]
fn session_replies_and_contents_match_direct_store_calls() {
    let ops = script(0xC0FFEE, 400, 60);
    let builder = StoreBuilder::new().capacity(4096, 160).shards(2);

    // Arm A: through the protocol session.
    let served = builder
        .create_sim(SimConfig::paper_default())
        .expect("create served store");
    let stats = ServerStats::new();
    let mut session = Session::new();
    session.feed(&render(&ops));
    run_to_quiescence(&mut session, &served, &stats);
    assert_eq!(session.in_flight(), 0);

    // Byte-exact reply conformance against the model.
    let expect = expected_replies(&ops);
    assert_eq!(
        session.output(),
        expect.as_slice(),
        "session reply stream must match the memcached model"
    );

    // Arm B: the same sequence as direct facade calls (values carry
    // the same 4-byte flags prefix the server stores).
    let direct = builder
        .create_sim(SimConfig::paper_default())
        .expect("create direct store");
    for op in &ops {
        match op {
            Op::Set { key, flags, data } => {
                let mut blob = flags.to_le_bytes().to_vec();
                blob.extend_from_slice(data);
                direct.set(key, &blob).expect("direct set");
            }
            Op::Get { keys } => {
                let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
                direct.get_batch(&refs);
            }
            Op::Delete { key } => {
                direct.delete(key).expect("direct delete");
            }
        }
    }

    // Final contents must be identical.
    let dump = |s: &Store<SimPmem>| {
        let mut m: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        s.for_each(|k, v| {
            m.insert(k.to_vec(), v.to_vec());
        });
        m
    };
    assert_eq!(dump(&served), dump(&direct));
    served.check_consistency().expect("served store consistent");
}

#[test]
fn oversize_set_payload_is_never_executed_as_commands() {
    let store = StoreBuilder::new()
        .capacity(256, 64)
        .create_sim(SimConfig::fast_test())
        .expect("create");
    let stats = ServerStats::new();
    let mut session = Session::new();
    // An over-MAX_VALUE payload crafted to look like commands: if the
    // refusal failed to consume the data block, the connection would
    // desync and store `sneaky`.
    let payload = b"set sneaky 0 0 2\r\nhi\r\n".repeat(nvm_server::protocol::MAX_VALUE / 22 + 1);
    let mut wire = format!("set big 0 0 {}\r\n", payload.len()).into_bytes();
    wire.extend_from_slice(&payload);
    wire.extend_from_slice(b"\r\nget sneaky big\r\n");
    session.feed(&wire);
    run_to_quiescence(&mut session, &store, &stats);
    assert_eq!(
        session.output(),
        b"SERVER_ERROR object too large for cache\r\nEND\r\n"
    );
    assert_eq!(store.len(), 0, "no part of the refused frame may be stored");
}

#[test]
fn crash_while_serving_recovers_with_acked_writes_intact() {
    let builder = StoreBuilder::new().capacity(2048, 96).seed(7);
    let sim = SimConfig::paper_default();

    // Base load, fully acknowledged before any crash window opens.
    let base_ops: Vec<Op> = (0..24)
        .map(|i| Op::Set {
            key: format!("base:{i:02}").into_bytes(),
            flags: i,
            data: format!("base-value-{i}").into_bytes(),
        })
        .collect();
    let store = builder.create_sim(sim).expect("create");
    {
        let stats = ServerStats::new();
        let mut s = Session::new();
        s.feed(&render(&base_ops));
        run_to_quiescence(&mut s, &store, &stats);
        assert_eq!(s.output(), "STORED\r\n".repeat(24).as_bytes());
    }
    let pools = store.into_pools().ok().expect("sole handle");
    let pm_base = pools.into_iter().next().expect("one shard");

    // The second wave the crash interrupts: new keys plus overwrites.
    let wave: Vec<Op> = (0..12)
        .map(|i| Op::Set {
            key: format!("wave:{i:02}").into_bytes(),
            flags: 100 + i,
            data: format!("wave-value-{i}").into_bytes(),
        })
        .chain((0..6).map(|i| Op::Set {
            key: format!("base:{i:02}").into_bytes(),
            flags: 200 + i,
            data: format!("overwritten-{i}").into_bytes(),
        }))
        .collect();
    let wave_wire = render(&wave);

    // Measure how many pmem events opening takes, then how many the
    // wave takes, on throwaway clones — the simulator is deterministic.
    let (open_span, wave_span) = {
        let pm = pm_base.clone();
        let before_open = pm.events();
        let store = builder.open(vec![pm]).expect("open");
        let after_open = {
            let pools = store.into_pools().ok().expect("sole");
            let pm = pools.into_iter().next().unwrap();
            let e = pm.events();
            let store = builder.open(vec![pm]).expect("reopen");
            let stats = ServerStats::new();
            let mut s = Session::new();
            s.feed(&wave_wire);
            run_to_quiescence(&mut s, &store, &stats);
            let pools = store.into_pools().ok().expect("sole");
            (e, pools.into_iter().next().unwrap().events())
        };
        (after_open.0 - before_open, after_open.1)
    };
    let wave_events = wave_span - (pm_base.events() + 2 * open_span);

    // Crash at a spread of points inside the wave's event window.
    for at in (0..wave_events).step_by((wave_events / 40).max(1) as usize) {
        let mut pm = pm_base.clone();
        pm.set_crash_plan(Some(CrashPlan {
            at_event: pm.events() + open_span + at,
        }));
        let store = builder.open(vec![pm]).expect("open armed");
        let stats = ServerStats::new();
        let mut session = Session::new();
        session.feed(&wave_wire);
        let outcome = run_with_crash(|| {
            run_to_quiescence(&mut session, &store, &stats);
        });

        let mut pools = store.into_pools().ok().expect("sole handle");
        if outcome.is_err() {
            pools[0].crash(CrashResolution::Random(at));
        }
        let store = builder.recover(pools).expect("recover");
        store.check_consistency().expect("consistent after crash");

        for i in 0..24u32 {
            let key = format!("base:{i:02}").into_bytes();
            let got = store.get(&key).unwrap_or_else(|| {
                panic!(
                    "acked key {} lost (crash at {at})",
                    String::from_utf8_lossy(&key)
                )
            });
            let (flags, data) = (
                u32::from_le_bytes([got[0], got[1], got[2], got[3]]),
                &got[4..],
            );
            if i < 6 {
                // Overwritten mid-crash: old or new, never torn.
                assert!(
                    (flags == i && data == format!("base-value-{i}").as_bytes())
                        || (flags == 200 + i && data == format!("overwritten-{i}").as_bytes()),
                    "torn value for base:{i:02} at crash {at}: flags={flags}"
                );
            } else {
                assert_eq!(flags, i);
                assert_eq!(data, format!("base-value-{i}").as_bytes());
            }
        }
        for i in 0..12u32 {
            if let Some(got) = store.get(format!("wave:{i:02}").as_bytes()) {
                assert_eq!(&got[4..], format!("wave-value-{i}").as_bytes());
            }
        }
    }
}
