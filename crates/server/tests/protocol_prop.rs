//! Property tests for the memcached-text parser.
//!
//! Two invariants carry the whole transport layer:
//!
//! 1. `parse` never panics and always makes progress on arbitrary
//!    bytes — a malicious or corrupted stream cannot wedge or crash a
//!    worker.
//! 2. Framing is split-invariant: chopping a valid command stream at
//!    *any* byte boundaries and re-feeding the pieces yields exactly
//!    the same command sequence as parsing it whole. This is the
//!    property that makes the session's append-and-reparse loop
//!    correct under short TCP reads.

use nvm_server::protocol::{parse, Command, Parsed};
use proptest::prelude::*;

/// Owned mirror of [`Command`] so sequences can be compared after the
/// input buffers are gone.
#[derive(Debug, Clone, PartialEq, Eq)]
enum OwnedCmd {
    Get(Vec<Vec<u8>>, bool),
    Set(Vec<u8>, u32, Vec<u8>, bool),
    Delete(Vec<u8>, bool),
    Stats,
    Version,
    Quit,
    Error(Vec<u8>),
}

fn to_owned_cmd(cmd: &Command<'_>) -> OwnedCmd {
    match cmd {
        Command::Get { keys, with_cas } => {
            OwnedCmd::Get(keys.iter().map(|k| k.to_vec()).collect(), *with_cas)
        }
        Command::Set {
            key,
            flags,
            data,
            noreply,
        } => OwnedCmd::Set(key.to_vec(), *flags, data.to_vec(), *noreply),
        Command::Delete { key, noreply } => OwnedCmd::Delete(key.to_vec(), *noreply),
        Command::Stats => OwnedCmd::Stats,
        Command::Version => OwnedCmd::Version,
        Command::Quit => OwnedCmd::Quit,
    }
}

/// Feeds `chunks` through the same buffer-append / parse / consume loop
/// the session runs, collecting every completed command.
fn collect_chunked(chunks: &[&[u8]]) -> Vec<OwnedCmd> {
    let mut buf: Vec<u8> = Vec::new();
    let mut pos = 0usize;
    let mut cmds = Vec::new();
    for chunk in chunks {
        buf.extend_from_slice(chunk);
        loop {
            match parse(&buf[pos..]) {
                Parsed::Incomplete => break,
                Parsed::Cmd { cmd, consumed } => {
                    cmds.push(to_owned_cmd(&cmd));
                    pos += consumed;
                }
                Parsed::Error {
                    reply,
                    consumed,
                    fatal,
                } => {
                    cmds.push(OwnedCmd::Error(reply.to_vec()));
                    pos += consumed;
                    if fatal {
                        return cmds;
                    }
                }
            }
        }
    }
    cmds
}

/// Renders one generated op as wire bytes.
fn render(op: &GenOp, out: &mut Vec<u8>) {
    match op {
        GenOp::Set { key, flags, data } => {
            out.extend_from_slice(
                format!(
                    "set {} {flags} 0 {}\r\n",
                    String::from_utf8_lossy(key),
                    data.len()
                )
                .as_bytes(),
            );
            out.extend_from_slice(data);
            out.extend_from_slice(b"\r\n");
        }
        GenOp::Get { keys, with_cas } => {
            out.extend_from_slice(if *with_cas { b"gets" } else { b"get" });
            for k in keys {
                out.push(b' ');
                out.extend_from_slice(k);
            }
            out.extend_from_slice(b"\r\n");
        }
        GenOp::Delete { key } => {
            out.extend_from_slice(b"delete ");
            out.extend_from_slice(key);
            out.extend_from_slice(b"\r\n");
        }
        GenOp::Stats => out.extend_from_slice(b"stats\r\n"),
    }
}

#[derive(Debug, Clone)]
enum GenOp {
    Set {
        key: Vec<u8>,
        flags: u32,
        data: Vec<u8>,
    },
    Get {
        keys: Vec<Vec<u8>>,
        with_cas: bool,
    },
    Delete {
        key: Vec<u8>,
    },
    Stats,
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(97u8..123, 1..24)
}

fn op_strategy() -> impl Strategy<Value = GenOp> {
    let set = (
        key_strategy(),
        any::<u32>(),
        prop::collection::vec(any::<u8>(), 0..80),
    )
        .prop_map(|(key, flags, data)| GenOp::Set { key, flags, data });
    let get = (prop::collection::vec(key_strategy(), 1..5), any::<bool>())
        .prop_map(|(keys, with_cas)| GenOp::Get { keys, with_cas });
    let del = key_strategy().prop_map(|key| GenOp::Delete { key });
    let stats = Just(GenOp::Stats);
    prop_oneof![set, get, del, stats]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic the parser, and every non-Incomplete
    /// result consumes at least one byte (the session's parse loop can
    /// never spin in place).
    #[test]
    fn arbitrary_bytes_never_panic_and_always_progress(
        bytes in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        let mut pos = 0usize;
        loop {
            match parse(&bytes[pos..]) {
                Parsed::Incomplete => break,
                Parsed::Cmd { consumed, .. } | Parsed::Error { consumed, .. } => {
                    prop_assert!(consumed > 0, "zero-byte consume at pos {pos}");
                    pos += consumed;
                    prop_assert!(pos <= bytes.len());
                }
            }
        }
    }

    /// A valid command stream parses to the same sequence no matter
    /// where the read boundaries fall. Set payloads are arbitrary
    /// bytes, so data blocks containing `\r\n` and split mid-payload
    /// are both exercised.
    #[test]
    fn split_frames_reassemble_identically(
        ops in prop::collection::vec(op_strategy(), 1..12),
        cuts in prop::collection::vec(any::<u16>(), 0..8),
    ) {
        let mut wire = Vec::new();
        for op in &ops {
            render(op, &mut wire);
        }

        let whole = collect_chunked(&[&wire]);
        prop_assert_eq!(whole.len(), ops.len(), "every rendered op must parse");

        // Cut the stream at arbitrary (sorted, deduped) positions.
        let mut points: Vec<usize> = cuts.iter().map(|&c| c as usize % (wire.len() + 1)).collect();
        points.sort_unstable();
        points.dedup();
        let mut chunks: Vec<&[u8]> = Vec::new();
        let mut prev = 0;
        for &p in &points {
            chunks.push(&wire[prev..p]);
            prev = p;
        }
        chunks.push(&wire[prev..]);

        let pieces = collect_chunked(&chunks);
        prop_assert_eq!(pieces, whole);
    }
}
