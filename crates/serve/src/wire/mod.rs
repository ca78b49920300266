//! Version-negotiating transport: one reader/writer pair that speaks both
//! wire protocols.
//!
//! * **v1** — newline-delimited JSON (see [`v1`]). What `netcat` and every
//!   pre-existing client speaks.
//! * **v2** — length-prefixed checksummed binary frames (see [`v2`] and
//!   [`taf_wire::frame`]). Dense `f64` payloads (`y` vectors, snapshot
//!   matrices) cross the wire as raw little-endian bytes instead of decimal
//!   text.
//!
//! Negotiation is per *message*, not per connection: every read starts by
//! sniffing one byte. `{` (or any other non-`0xB2` byte) routes to the v1
//! line reader; [`taf_wire::frame::V2_SNIFF`] routes to the v2 frame reader.
//! `0xB2` is not valid lead byte of UTF-8 text, so the two protocols cannot
//! be confused. The server replies in whichever version the request arrived
//! in, so a v1 client and a v2 client can share one server — even one
//! connection, handed from one to the other.

use crate::protocol::{Request, Response, MAX_LINE_BYTES};
use crate::{Result, ServeError};
use std::io::{BufRead, Write};
use taf_wire::frame::{self, Sniff};

pub mod v1;
pub mod v2;

/// Which protocol a message (or a client) speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireVersion {
    /// Newline-delimited JSON — the compatibility default.
    #[default]
    V1Json,
    /// Length-prefixed checksummed binary frames.
    V2Binary,
}

/// Serializes one request in `version` framing and sends it (see `send`).
pub fn write_request<W: Write>(w: &mut W, req: &Request, version: WireVersion) -> Result<()> {
    let mut buf = Vec::with_capacity(128);
    match version {
        WireVersion::V1Json => {
            v1::encode_request(req, &mut buf);
            buf.push(b'\n');
        }
        WireVersion::V2Binary => {
            let mut payload = Vec::with_capacity(128);
            v2::encode_request(req, &mut payload);
            frame::write_frame(&mut buf, &payload).map_err(ServeError::from)?;
        }
    }
    send(w, &buf)
}

/// Serializes one response in `version` framing and sends it (see `send`).
pub fn write_response<W: Write>(w: &mut W, resp: &Response, version: WireVersion) -> Result<()> {
    let mut buf = Vec::with_capacity(128);
    match version {
        WireVersion::V1Json => {
            v1::encode_response(resp, &mut buf);
            buf.push(b'\n');
        }
        WireVersion::V2Binary => {
            let mut payload = Vec::with_capacity(128);
            v2::encode_response(resp, &mut payload);
            frame::write_frame(&mut buf, &payload).map_err(ServeError::from)?;
        }
    }
    send(w, &buf)
}

/// Writes one whole encoded message with a single `write_all`, then flushes.
///
/// Both ends write to unbuffered `TCP_NODELAY` sockets, where every `write`
/// leaves as its own segment. Written piece by piece (header, payload,
/// checksum), a v2 frame would leave as three segments, each able to wake
/// the peer before the message is complete: up to three wake-ups and context
/// switches per message instead of one, with how many depending on
/// scheduling, so round-trip latency would swing from one second to the next.
fn send<W: Write>(w: &mut W, message: &[u8]) -> Result<()> {
    w.write_all(message)?;
    w.flush()?;
    Ok(())
}

/// Reads one request, sniffing its protocol version first. `version` is
/// updated to the sniffed protocol *before* any decoding, so the caller can
/// answer an undecodable message in the framing its sender understands.
/// `Ok(None)` is a clean end of stream.
pub fn read_request<R: BufRead>(r: &mut R, version: &mut WireVersion) -> Result<Option<Request>> {
    read_message(r, version, v1::decode_request, v2::decode_request)
}

/// Reads one response, sniffing its protocol version first (see
/// [`read_request`]).
pub fn read_response<R: BufRead>(r: &mut R, version: &mut WireVersion) -> Result<Option<Response>> {
    read_message(r, version, v1::decode_response, v2::decode_response)
}

fn read_message<R: BufRead, T>(
    r: &mut R,
    version: &mut WireVersion,
    decode_v1: fn(&str) -> Result<T>,
    decode_v2: fn(&[u8]) -> Result<T>,
) -> Result<Option<T>> {
    let mut line = Vec::new();
    loop {
        match frame::sniff(r)? {
            Sniff::Eof => return Ok(None),
            Sniff::V2 => {
                *version = WireVersion::V2Binary;
                line.clear();
                frame::read_frame(r, &mut line, frame::MAX_FRAME_BYTES)
                    .map_err(ServeError::from)?;
                return decode_v2(&line).map(Some);
            }
            Sniff::V1 => {
                *version = WireVersion::V1Json;
                let n = read_bounded_line(r, &mut line, MAX_LINE_BYTES)?;
                if n == 0 {
                    return Ok(None);
                }
                let text = std::str::from_utf8(&line)
                    .map_err(|_| ServeError::Wire(taf_wire::WireError::BadUtf8))?;
                let trimmed = text.trim();
                if trimmed.is_empty() {
                    continue; // blank keep-alive line; sniff the next message
                }
                return decode_v1(trimmed).map(Some);
            }
        }
    }
}

/// Reads one line of at most `limit` bytes (newline included) into `buf`.
///
/// Unlike `BufRead::read_line`, the cap is enforced *while reading*: an
/// attacker streaming an endless unterminated line is cut off at the cap
/// instead of growing the buffer without bound. On overflow the reader
/// drains (without buffering) through the terminating newline so the
/// connection stays framed, then reports [`ServeError::OversizedLine`] with
/// the true line size. Returns the bytes consumed; `0` means clean EOF.
pub fn read_bounded_line<R: BufRead>(r: &mut R, buf: &mut Vec<u8>, limit: usize) -> Result<usize> {
    buf.clear();
    let mut total = 0usize;
    let mut overflowed = false;
    loop {
        let available = r.fill_buf()?;
        if available.is_empty() {
            // EOF. A partial unterminated line is handed to the caller;
            // oversize still errors below.
            break;
        }
        let (chunk, done) = match available.iter().position(|&b| b == b'\n') {
            Some(i) => (&available[..=i], true),
            None => (available, false),
        };
        let used = chunk.len();
        total += used;
        if !overflowed {
            if buf.len() + used > limit {
                overflowed = true;
                buf.clear();
            } else {
                buf.extend_from_slice(chunk);
            }
        }
        r.consume(used);
        if done {
            break;
        }
    }
    if overflowed {
        return Err(ServeError::OversizedLine { got: total, limit });
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn bounded_reader_enforces_the_cap_and_stays_framed() {
        // A 100-byte line against a 16-byte cap, followed by a small line:
        // the oversized line errors with its true size, and the next read
        // lands cleanly on the following line.
        let mut wire = vec![b'x'; 100];
        wire.push(b'\n');
        wire.extend_from_slice(b"ok\n");
        // Tiny BufReader capacity so the line spans many fill_buf chunks.
        let mut reader = BufReader::with_capacity(8, &wire[..]);
        let mut buf = Vec::new();
        let err = read_bounded_line(&mut reader, &mut buf, 16).unwrap_err();
        match err {
            ServeError::OversizedLine { got, limit } => {
                assert_eq!(got, 101, "true size, newline included");
                assert_eq!(limit, 16);
            }
            other => panic!("expected OversizedLine, got {other}"),
        }
        assert_eq!(read_bounded_line(&mut reader, &mut buf, 16).unwrap(), 3);
        assert_eq!(buf, b"ok\n");
    }

    #[test]
    fn bounded_reader_handles_eof_and_exact_fit() {
        // Unterminated final line under the cap: delivered as-is.
        let mut reader = BufReader::with_capacity(4, "tail".as_bytes());
        let mut buf = Vec::new();
        assert_eq!(read_bounded_line(&mut reader, &mut buf, 16).unwrap(), 4);
        assert_eq!(buf, b"tail");
        assert_eq!(read_bounded_line(&mut reader, &mut buf, 16).unwrap(), 0, "clean EOF");
        // A line of exactly `limit` bytes fits; one more does not.
        let mut reader = BufReader::new("abc\nabcd\n".as_bytes());
        assert_eq!(read_bounded_line(&mut reader, &mut buf, 4).unwrap(), 4);
        assert!(matches!(
            read_bounded_line(&mut reader, &mut buf, 4),
            Err(ServeError::OversizedLine { got: 5, limit: 4 })
        ));
        // Oversized unterminated line at EOF still errors.
        let mut reader = BufReader::new("xxxxxxxxxx".as_bytes());
        assert!(matches!(
            read_bounded_line(&mut reader, &mut buf, 4),
            Err(ServeError::OversizedLine { got: 10, limit: 4 })
        ));
    }

    #[test]
    fn requests_round_trip_in_both_versions_over_one_stream() {
        let reqs = [
            Request::Ping,
            Request::Locate { site: "lab".into(), y: vec![-50.0, -41.5] },
            Request::Refresh { site: "lab".into() },
            Request::Shutdown,
        ];
        let mut buf = Vec::new();
        // Interleave versions on the same stream: the reader renegotiates
        // per message.
        for (i, r) in reqs.iter().enumerate() {
            let v = if i % 2 == 0 { WireVersion::V1Json } else { WireVersion::V2Binary };
            write_request(&mut buf, r, v).unwrap();
        }
        let mut reader = BufReader::new(&buf[..]);
        let mut ver = WireVersion::V1Json;
        for (i, want) in reqs.iter().enumerate() {
            let got = read_request(&mut reader, &mut ver).unwrap().unwrap();
            let expect = if i % 2 == 0 { WireVersion::V1Json } else { WireVersion::V2Binary };
            assert_eq!(ver, expect, "sniffed version for message {i}");
            let mut a = Vec::new();
            let mut b = Vec::new();
            v1::encode_request(&got, &mut a);
            v1::encode_request(want, &mut b);
            assert_eq!(a, b, "message {i} survived the round trip");
        }
        assert!(read_request(&mut reader, &mut ver).unwrap().is_none());
    }

    #[test]
    fn blank_lines_are_skipped_and_garbage_rejected() {
        let mut reader = BufReader::new("\n\n{\"cmd\":\"ping\"}\nnot json\n".as_bytes());
        let mut ver = WireVersion::V1Json;
        let got = read_request(&mut reader, &mut ver).unwrap().unwrap();
        assert!(matches!(got, Request::Ping));
        assert!(matches!(
            read_request(&mut reader, &mut ver),
            Err(ServeError::Wire(taf_wire::WireError::Malformed(_)))
        ));
    }

    #[test]
    fn v2_checksum_and_frame_errors_surface_as_wire_errors() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Ping, WireVersion::V2Binary).unwrap();
        let n = buf.len();
        buf[n - 5] ^= 0x10; // flip a payload bit, invalidating the checksum
        let mut reader = BufReader::new(&buf[..]);
        let mut ver = WireVersion::V1Json;
        match read_request(&mut reader, &mut ver) {
            Err(ServeError::Wire(e)) => {
                assert!(matches!(e, taf_wire::WireError::ChecksumMismatch { .. }), "got {e:?}");
                assert!(e.is_recoverable());
            }
            other => panic!("expected a checksum error, got {other:?}"),
        }
        assert_eq!(ver, WireVersion::V2Binary, "version sniffed before the failure");
    }

    /// Records each `write` call apart, as a `TCP_NODELAY` socket sends each
    /// as its own segment.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            self.0.push(bytes.to_vec());
            Ok(bytes.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_message_goes_out_in_one_write() {
        let req = Request::Locate { site: "lab".into(), y: vec![-50.0, -41.5] };
        let resp = Response::Error { message: "no such site".into() };
        for v in [WireVersion::V1Json, WireVersion::V2Binary] {
            let mut sock = Writes::default();
            write_request(&mut sock, &req, v).unwrap();
            write_response(&mut sock, &resp, v).unwrap();
            assert_eq!(sock.0.len(), 2, "{v:?}: one write per message");
            let mut ver = v;
            let mut reader = BufReader::new(&sock.0[0][..]);
            assert!(matches!(
                read_request(&mut reader, &mut ver),
                Ok(Some(Request::Locate { .. }))
            ));
            let mut reader = BufReader::new(&sock.0[1][..]);
            assert!(matches!(
                read_response(&mut reader, &mut ver),
                Ok(Some(Response::Error { .. }))
            ));
        }
    }
}
