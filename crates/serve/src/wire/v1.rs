//! v1 message codec: newline-delimited JSON.
//!
//! Byte stability is a hard contract: existing clients parse these lines,
//! and the committed corpus (`tests/corpus/*.v1.ndjson`) pins every variant.
//! Tagged unions put the `cmd`/`reply` tag first, fields follow in
//! declaration order, every field is emitted (`None` as `null`), numbers
//! follow [`taf_wire::JsonWriter`]'s rules, and decoding fills in absent
//! fields from the fallbacks the schema declares. The layout itself is
//! declared with the message types in [`crate::protocol`].

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
