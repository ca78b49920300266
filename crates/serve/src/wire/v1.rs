//! v1 message codec: newline-delimited JSON, byte-compatible with the
//! `serde_json` encoding of the [`crate::protocol`] derives.
//!
//! Byte compatibility is a hard contract, not an aspiration — the protocol
//! tests re-encode through `serde_json` and assert equality. Concretely:
//! tagged unions put the `cmd`/`reply` tag first, fields follow in
//! declaration order, every field is emitted (`None` as `null`), numbers
//! render the way the workspace `serde_json` renders them, and decoding
//! honors the same `#[serde(default)]` semantics the derives declare. The
//! layout itself is the message schema in `wire/schema.rs`.

use crate::protocol::{Request, Response};
use crate::Result;
use taf_wire::{Codec, JsonWriter};

/// Encodes one request as a single compact JSON object (no trailing newline).
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    req.write_json(&mut JsonWriter::new(out));
}

/// Decodes one request from its JSON text.
pub fn decode_request(text: &str) -> Result<Request> {
    Ok(taf_wire::from_json(text)?)
}

/// Encodes one response as a single compact JSON object (no newline).
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    resp.write_json(&mut JsonWriter::new(out));
}

/// Decodes one response from its JSON text.
pub fn decode_response(text: &str) -> Result<Response> {
    Ok(taf_wire::from_json(text)?)
}
