//! Incremental parser for memcached text-protocol replies.

/// One `VALUE` block of a `get` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Value<'a> {
    pub key: &'a [u8],
    pub flags: u32,
    pub data: &'a [u8],
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply<'a> {
    /// A `get` reply: the hits in request order, then `END`.
    Values(Vec<Value<'a>>),
    Stored,
    Deleted,
    NotFound,
    /// `SERVER_ERROR ...`: the server refused the command.
    Refused(&'a [u8]),
}

/// The first complete reply in `buf` and the bytes it spans, `Ok(None)`
/// when more bytes are needed, or an error for bytes no reply starts with.
pub fn parse(buf: &[u8]) -> Result<Option<(Reply<'_>, usize)>, String> {
    let Some((line, mut pos)) = line_at(buf, 0) else {
        return Ok(None);
    };
    let reply = match line {
        b"STORED" => Reply::Stored,
        b"DELETED" => Reply::Deleted,
        b"NOT_FOUND" => Reply::NotFound,
        _ if line.starts_with(b"SERVER_ERROR") => Reply::Refused(line),
        _ => {
            let mut values = Vec::new();
            let mut line = line;
            while line != b"END" {
                let Some((value, next)) = value_block(buf, line, pos)? else {
                    return Ok(None);
                };
                values.push(value);
                let Some((l, p)) = line_at(buf, next) else {
                    return Ok(None);
                };
                line = l;
                pos = p;
            }
            Reply::Values(values)
        }
    };
    Ok(Some((reply, pos)))
}

/// The `\r\n`-terminated line starting at `start`, and the offset after it.
fn line_at(buf: &[u8], start: usize) -> Option<(&[u8], usize)> {
    let rest = &buf[start..];
    let nl = rest.windows(2).position(|w| w == b"\r\n")?;
    Some((&rest[..nl], start + nl + 2))
}

/// Parses `VALUE <key> <flags> <bytes>` (already split off as `line`) and
/// its data block at `pos`; `Ok(None)` while the block is incomplete.
fn value_block<'a>(
    buf: &'a [u8],
    line: &'a [u8],
    pos: usize,
) -> Result<Option<(Value<'a>, usize)>, String> {
    let bad = || format!("unexpected reply line {:?}", String::from_utf8_lossy(line));
    let mut fields = line.split(|&b| b == b' ');
    if fields.next() != Some(b"VALUE") {
        return Err(bad());
    }
    let (Some(key), Some(flags), Some(len), None) =
        (fields.next(), fields.next(), fields.next(), fields.next())
    else {
        return Err(bad());
    };
    let number = |t: &[u8]| -> Option<u64> { std::str::from_utf8(t).ok()?.parse().ok() };
    let (Some(flags), Some(len)) = (number(flags), number(len)) else {
        return Err(bad());
    };
    let flags = u32::try_from(flags).map_err(|_| bad())?;
    let end = usize::try_from(len)
        .ok()
        .and_then(|l| pos.checked_add(l))
        .ok_or_else(bad)?;
    if buf.len() < end + 2 {
        return Ok(None);
    }
    if &buf[end..end + 2] != b"\r\n" {
        return Err(bad());
    }
    Ok(Some((
        Value {
            key,
            flags,
            data: &buf[pos..end],
        },
        end + 2,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Owned form of a reply, to compare across buffers.
    fn owned(r: &Reply<'_>) -> String {
        format!("{r:?}")
    }

    fn parse_all(buf: &[u8]) -> (Vec<String>, usize) {
        let mut out = Vec::new();
        let mut pos = 0;
        while let Some((r, n)) = parse(&buf[pos..]).expect("well-formed") {
            out.push(owned(&r));
            pos += n;
        }
        (out, pos)
    }

    #[test]
    fn split_at_every_byte_parses_the_same() {
        let stream: &[u8] = b"VALUE key:000000000001 0 5\r\nab\r\nc\r\nVALUE k2 7 0\r\n\r\nEND\r\n\
            STORED\r\nEND\r\nDELETED\r\nNOT_FOUND\r\nSERVER_ERROR out of memory storing object\r\n";
        let (whole, consumed) = parse_all(stream);
        assert_eq!(consumed, stream.len());
        assert_eq!(whole.len(), 6);
        assert!(
            whole[0].contains("data: [97, 98, 13, 10, 99]"),
            "{}",
            whole[0]
        );
        for split in 0..=stream.len() {
            // Feed a prefix, take every complete reply, then the rest.
            let mut buf = stream[..split].to_vec();
            let (mut got, used) = parse_all(&buf);
            buf.drain(..used);
            buf.extend_from_slice(&stream[split..]);
            let (rest, used) = parse_all(&buf);
            assert_eq!(used, buf.len(), "split {split}");
            got.extend(rest);
            assert_eq!(got, whole, "split {split}");
        }
    }

    #[test]
    fn garbage_is_an_error() {
        assert!(parse(b"HELLO\r\n").is_err());
        assert!(parse(b"VALUE k x 3\r\nabc\r\nEND\r\n").is_err());
        assert!(parse(b"VALUE k 0 3\r\nabcd\r\nEND\r\n").is_err());
    }
}
