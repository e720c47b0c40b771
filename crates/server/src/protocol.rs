//! Incremental memcached-text-protocol parser.
//!
//! The parser is a pure function over a byte buffer: given everything a
//! connection has received so far, it returns either one complete
//! command (plus how many bytes it consumed), `Incomplete` (read more),
//! or an error reply for a malformed line. It never panics on arbitrary
//! bytes and never consumes a partial frame — both properties are
//! proptested — which is what makes split-across-read-boundary frames
//! reassemble correctly: the session just keeps appending and re-parsing.
//!
//! Supported commands (the subset the front door serves):
//!
//! ```text
//! get <key>+\r\n
//! gets <key>+\r\n
//! set <key> <flags> <exptime> <bytes> [noreply]\r\n<data>\r\n
//! delete <key> [noreply]\r\n
//! stats\r\n
//! version\r\n
//! quit\r\n
//! ```
//!
//! Lines are `\r\n`-terminated; a bare `\n` is tolerated (convenient
//! for `nc` sessions). `exptime` is parsed and ignored — the store has
//! no expiry. `<flags>` round-trip: they are stored as a 4-byte prefix
//! on the value blob.
//!
//! A well-formed `set` the server refuses (payload over [`MAX_VALUE`])
//! still consumes its data block before the error reply, so the
//! connection stays framed — the payload is never parsed as commands.
//! `cas` is recognized the same way (fields validated, data block
//! consumed) but always refused: `gets` reports a store-wide commit
//! epoch, not a per-key token, so optimistic `cas` cannot be enforced.

/// Longest accepted key, per the memcached protocol.
pub const MAX_KEY: usize = 250;
/// Largest accepted value payload.
pub const MAX_VALUE: usize = 1 << 20;
/// Largest declared data block the parser will still buffer and discard
/// when refusing a `set`/`cas` (so the refusal consumes the client's
/// payload and the connection stays in sync, as memcached does).
/// Declaring more than this tears the connection down instead of
/// buffering unboundedly.
pub const MAX_SWALLOW: usize = 4 * MAX_VALUE;
/// Longest accepted command line (a full multi-get of long keys).
pub const MAX_LINE: usize = 8192;

/// One parsed command. Key/data slices borrow from the input buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Command<'a> {
    /// `get`/`gets` — `with_cas` selects the `gets` reply shape.
    Get {
        keys: Vec<&'a [u8]>,
        with_cas: bool,
    },
    Set {
        key: &'a [u8],
        flags: u32,
        data: &'a [u8],
        noreply: bool,
    },
    Delete {
        key: &'a [u8],
        noreply: bool,
    },
    Stats,
    Version,
    Quit,
}

/// One step of parsing.
#[derive(Debug, PartialEq, Eq)]
pub enum Parsed<'a> {
    /// A complete command occupying the first `consumed` input bytes.
    Cmd { cmd: Command<'a>, consumed: usize },
    /// The buffer holds no complete frame yet.
    Incomplete,
    /// A malformed frame: send `reply`, drop `consumed` bytes, and tear
    /// the connection down if `fatal` (resynchronization is hopeless —
    /// e.g. an over-long line or a data block without its terminator).
    Error {
        reply: &'static [u8],
        consumed: usize,
        fatal: bool,
    },
}

/// Parses the first complete command out of `buf`.
pub fn parse(buf: &[u8]) -> Parsed<'_> {
    let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
        return if buf.len() > MAX_LINE {
            Parsed::Error {
                reply: b"CLIENT_ERROR line too long\r\n",
                consumed: buf.len(),
                fatal: true,
            }
        } else {
            Parsed::Incomplete
        };
    };
    let line_consumed = nl + 1;
    if line_consumed > MAX_LINE {
        return Parsed::Error {
            reply: b"CLIENT_ERROR line too long\r\n",
            consumed: line_consumed,
            fatal: true,
        };
    }
    let mut line = &buf[..nl];
    if line.last() == Some(&b'\r') {
        line = &line[..line.len() - 1];
    }
    let mut tokens = line.split(|&b| b == b' ').filter(|t| !t.is_empty());
    let Some(verb) = tokens.next() else {
        // Empty line: consume it quietly (nc users hitting return).
        return Parsed::Error {
            reply: b"",
            consumed: line_consumed,
            fatal: false,
        };
    };
    match verb {
        b"get" | b"gets" => {
            let keys: Vec<&[u8]> = tokens.collect();
            if keys.is_empty() || keys.iter().any(|k| k.len() > MAX_KEY) {
                return client_error(line_consumed);
            }
            Parsed::Cmd {
                cmd: Command::Get {
                    keys,
                    with_cas: verb == b"gets",
                },
                consumed: line_consumed,
            }
        }
        b"set" | b"cas" => {
            let is_cas = verb == b"cas";
            let (Some(key), Some(flags), Some(_exptime), Some(bytes)) =
                (tokens.next(), tokens.next(), tokens.next(), tokens.next())
            else {
                return client_error(line_consumed);
            };
            if is_cas {
                // `cas <key> <flags> <exptime> <bytes> <cas unique>`.
                let Some(id) = tokens.next() else {
                    return client_error(line_consumed);
                };
                if parse_u64(id).is_none() {
                    return client_error(line_consumed);
                }
            }
            let noreply = match tokens.next() {
                None => false,
                Some(b"noreply") => true,
                Some(_) => return client_error(line_consumed),
            };
            if tokens.next().is_some() || key.len() > MAX_KEY {
                return client_error(line_consumed);
            }
            let Some(flags) = parse_u64(flags).and_then(|f| u32::try_from(f).ok()) else {
                return client_error(line_consumed);
            };
            let Some(bytes) = parse_u64(bytes).map(|b| b as usize) else {
                return client_error(line_consumed);
            };
            if bytes > MAX_SWALLOW {
                // Too large to even buffer-and-discard; resync is
                // hopeless without unbounded memory, so tear down.
                return Parsed::Error {
                    reply: b"SERVER_ERROR object too large for cache\r\n",
                    consumed: line_consumed,
                    fatal: true,
                };
            }
            // The data block: `bytes` payload + its own \r\n terminator.
            // Waited for (and consumed) even when the command is about
            // to be refused — otherwise the payload that follows would
            // be parsed as commands, desyncing the connection.
            let total = line_consumed + bytes + 2;
            if buf.len() < total {
                return Parsed::Incomplete;
            }
            if &buf[line_consumed + bytes..total] != b"\r\n" {
                return Parsed::Error {
                    reply: b"CLIENT_ERROR bad data chunk\r\n",
                    consumed: total,
                    fatal: true,
                };
            }
            if is_cas {
                // `gets` hands out a store-wide commit epoch, not a
                // per-key token, so optimistic `cas` cannot be
                // enforced; refuse it clearly (data block consumed).
                return Parsed::Error {
                    reply: b"SERVER_ERROR cas not supported\r\n",
                    consumed: total,
                    fatal: false,
                };
            }
            if bytes > MAX_VALUE {
                return Parsed::Error {
                    reply: b"SERVER_ERROR object too large for cache\r\n",
                    consumed: total,
                    fatal: false,
                };
            }
            let data = &buf[line_consumed..line_consumed + bytes];
            Parsed::Cmd {
                cmd: Command::Set {
                    key,
                    flags,
                    data,
                    noreply,
                },
                consumed: total,
            }
        }
        b"delete" => {
            let Some(key) = tokens.next() else {
                return client_error(line_consumed);
            };
            let noreply = match tokens.next() {
                None => false,
                Some(b"noreply") => true,
                Some(_) => return client_error(line_consumed),
            };
            if tokens.next().is_some() || key.len() > MAX_KEY {
                return client_error(line_consumed);
            }
            Parsed::Cmd {
                cmd: Command::Delete { key, noreply },
                consumed: line_consumed,
            }
        }
        b"stats" => Parsed::Cmd {
            cmd: Command::Stats,
            consumed: line_consumed,
        },
        b"version" => Parsed::Cmd {
            cmd: Command::Version,
            consumed: line_consumed,
        },
        b"quit" => Parsed::Cmd {
            cmd: Command::Quit,
            consumed: line_consumed,
        },
        _ => Parsed::Error {
            reply: b"ERROR\r\n",
            consumed: line_consumed,
            fatal: false,
        },
    }
}

fn client_error(consumed: usize) -> Parsed<'static> {
    Parsed::Error {
        reply: b"CLIENT_ERROR bad command line format\r\n",
        consumed,
        fatal: false,
    }
}

/// Strict decimal parse (no sign, no empty, fits u64).
fn parse_u64(t: &[u8]) -> Option<u64> {
    if t.is_empty() || t.len() > 19 || t.iter().any(|b| !b.is_ascii_digit()) {
        return None;
    }
    let mut v = 0u64;
    for &b in t {
        v = v * 10 + (b - b'0') as u64;
    }
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_set_with_data_block() {
        let buf = b"set k 7 0 5\r\nhello\r\nget k\r\n";
        match parse(buf) {
            Parsed::Cmd { cmd, consumed } => {
                assert_eq!(consumed, 20);
                assert_eq!(
                    cmd,
                    Command::Set {
                        key: b"k",
                        flags: 7,
                        data: b"hello",
                        noreply: false
                    }
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn set_waits_for_its_data_block() {
        assert_eq!(parse(b"set k 0 0 5\r\nhel"), Parsed::Incomplete);
        assert_eq!(parse(b"set k 0 0 5\r\nhello\r"), Parsed::Incomplete);
    }

    #[test]
    fn multi_get_and_gets() {
        match parse(b"gets a bb ccc\r\n") {
            Parsed::Cmd {
                cmd: Command::Get { keys, with_cas },
                ..
            } => {
                assert!(with_cas);
                assert_eq!(keys, vec![&b"a"[..], b"bb", b"ccc"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_verb_is_nonfatal_error() {
        match parse(b"increment x\r\nget k\r\n") {
            Parsed::Error {
                reply,
                consumed,
                fatal,
            } => {
                assert_eq!(reply, b"ERROR\r\n");
                assert_eq!(consumed, 13);
                assert!(!fatal);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_data_terminator_is_fatal() {
        match parse(b"set k 0 0 2\r\nab!!") {
            Parsed::Error { fatal, .. } => assert!(fatal),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversize_set_swallows_its_data_block() {
        let line = format!("set k 0 0 {}\r\n", MAX_VALUE + 1);
        let mut buf = line.clone().into_bytes();
        buf.extend_from_slice(&vec![b'x'; MAX_VALUE + 1]);
        buf.extend_from_slice(b"\r\nget k\r\n");
        // The payload must not become visible until it has fully
        // arrived, and the error must consume it whole.
        assert_eq!(parse(&buf[..buf.len() / 2]), Parsed::Incomplete);
        let consumed = match parse(&buf) {
            Parsed::Error {
                reply,
                consumed,
                fatal,
            } => {
                assert_eq!(reply, b"SERVER_ERROR object too large for cache\r\n");
                assert_eq!(consumed, line.len() + MAX_VALUE + 1 + 2);
                assert!(!fatal);
                consumed
            }
            other => panic!("{other:?}"),
        };
        // The connection is still framed: the next command parses.
        match parse(&buf[consumed..]) {
            Parsed::Cmd {
                cmd: Command::Get { keys, .. },
                ..
            } => assert_eq!(keys, vec![&b"k"[..]]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn absurdly_large_set_is_fatal() {
        match parse(format!("set k 0 0 {}\r\n", MAX_SWALLOW + 1).as_bytes()) {
            Parsed::Error { fatal, .. } => assert!(fatal),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cas_is_refused_after_consuming_its_data_block() {
        let buf = b"cas k 0 0 5 42\r\nhello\r\nget k\r\n";
        let consumed = match parse(buf) {
            Parsed::Error {
                reply,
                consumed,
                fatal,
            } => {
                assert_eq!(reply, b"SERVER_ERROR cas not supported\r\n");
                assert_eq!(consumed, 23);
                assert!(!fatal);
                consumed
            }
            other => panic!("{other:?}"),
        };
        match parse(&buf[consumed..]) {
            Parsed::Cmd {
                cmd: Command::Get { keys, .. },
                ..
            } => assert_eq!(keys, vec![&b"k"[..]]),
            other => panic!("{other:?}"),
        }
        // Malformed cas lines (no cas id) are plain line errors.
        assert_eq!(parse(b"cas k 0 0 5\r\n"), client_error(13));
    }
}
