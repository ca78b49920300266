//! v2 message codec: a one-byte message tag followed by the fields in
//! declaration order, in the binary form the snapshot store shares. The
//! layout itself, tags included, is declared with the message types in
//! [`crate::protocol`]. The payload produced here travels inside a
//! checksummed [`taf_wire::frame`]; this module never sees framing.

use crate::protocol::{Request, Response};
use crate::Result;
use taf_wire::{Codec, Enc};

/// Encodes one request as a v2 frame payload (tag byte + body), replacing
/// the contents of `out`.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    let mut e = Enc::reusing(std::mem::take(out));
    req.encode(&mut e);
    *out = e.into_inner();
}

/// Decodes one request from a v2 frame payload.
pub fn decode_request(data: &[u8]) -> Result<Request> {
    Ok(taf_wire::from_bytes(data)?)
}

/// Encodes one response as a v2 frame payload (tag byte + body), replacing
/// the contents of `out`.
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    let mut e = Enc::reusing(std::mem::take(out));
    resp.encode(&mut e);
    *out = e.into_inner();
}

/// Decodes one response from a v2 frame payload.
pub fn decode_response(data: &[u8]) -> Result<Response> {
    Ok(taf_wire::from_bytes(data)?)
}
