//! Loopback smoke test: a real TCP client session against a served
//! store on an ephemeral port — set / get / multi-get / gets / delete /
//! stats / quit — then a clean shutdown. This is the test ci.sh runs
//! as its server gate.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use nvm_kv::prelude::*;
use nvm_pmem::RealPmem;
use nvm_server::{serve, ServerConfig};

/// Writes `send`, then reads until the reply ends with `terminator`.
fn roundtrip(stream: &mut TcpStream, send: &[u8], terminator: &[u8]) -> Vec<u8> {
    stream.write_all(send).expect("write");
    let mut reply = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                reply.extend_from_slice(&buf[..n]);
                if reply.ends_with(terminator) {
                    break;
                }
            }
            Err(e) => panic!(
                "read failed: {e} (got {:?})",
                String::from_utf8_lossy(&reply)
            ),
        }
    }
    reply
}

#[test]
fn loopback_session_and_clean_shutdown() {
    let store = StoreBuilder::new()
        .capacity(10_000, 64)
        .shards(2)
        .create_with(|_, size| RealPmem::with_write_latency(size, 0))
        .expect("create store");
    let handle = serve(
        store,
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            coalesce: true,
        },
    )
    .expect("serve");

    let mut c = TcpStream::connect(handle.addr()).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // Store two values (one with binary-ish payload), read them back.
    assert_eq!(
        roundtrip(&mut c, b"set alpha 7 0 5\r\nhello\r\n", b"STORED\r\n"),
        b"STORED\r\n"
    );
    assert_eq!(
        roundtrip(&mut c, b"set beta 0 0 4\r\na\r\nb\r\n", b"STORED\r\n"),
        b"STORED\r\n"
    );
    assert_eq!(
        roundtrip(&mut c, b"get alpha\r\n", b"END\r\n"),
        b"VALUE alpha 7 5\r\nhello\r\nEND\r\n"
    );

    // Multi-get preserves key order and skips misses.
    assert_eq!(
        roundtrip(&mut c, b"get alpha missing beta\r\n", b"END\r\n"),
        b"VALUE alpha 7 5\r\nhello\r\nVALUE beta 0 4\r\na\r\nb\r\nEND\r\n"
    );

    // gets carries a cas column (the commit epoch).
    let reply = roundtrip(&mut c, b"gets alpha\r\n", b"END\r\n");
    let text = String::from_utf8_lossy(&reply);
    assert!(
        text.starts_with("VALUE alpha 7 5 "),
        "gets must add a cas column: {text:?}"
    );

    // Pipelined writes in one segment: both acks, in order.
    assert_eq!(
        roundtrip(
            &mut c,
            b"set p1 0 0 1\r\nx\r\nset p2 0 0 1\r\ny\r\n",
            b"STORED\r\nSTORED\r\n"
        ),
        b"STORED\r\nSTORED\r\n"
    );

    // Delete: hit then miss.
    assert_eq!(
        roundtrip(&mut c, b"delete beta\r\n", b"DELETED\r\n"),
        b"DELETED\r\n"
    );
    assert_eq!(
        roundtrip(&mut c, b"delete beta\r\n", b"NOT_FOUND\r\n"),
        b"NOT_FOUND\r\n"
    );

    // Unknown command answers ERROR without killing the connection.
    assert_eq!(
        roundtrip(&mut c, b"flush_all\r\n", b"ERROR\r\n"),
        b"ERROR\r\n"
    );

    // stats reports the counters this session produced.
    let reply = roundtrip(&mut c, b"stats\r\n", b"END\r\n");
    let text = String::from_utf8_lossy(&reply);
    assert!(text.contains("STAT cmd_set 4\r\n"), "{text:?}");
    assert!(text.contains("STAT curr_items 3\r\n"), "{text:?}");
    assert!(text.contains("STAT fences "), "{text:?}");

    // quit closes the connection from the server side.
    c.write_all(b"quit\r\n").expect("write quit");
    let mut rest = Vec::new();
    c.read_to_end(&mut rest).expect("peer close");
    assert!(rest.is_empty(), "no reply after quit: {rest:?}");

    // A second connection still works after the first closed.
    let mut c2 = TcpStream::connect(handle.addr()).expect("reconnect");
    c2.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    assert_eq!(
        roundtrip(&mut c2, b"get alpha\r\n", b"END\r\n"),
        b"VALUE alpha 7 5\r\nhello\r\nEND\r\n"
    );
    drop(c2);

    // Clean shutdown: every thread joins.
    handle.shutdown();
}
