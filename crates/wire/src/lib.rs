//! # taf-wire
//!
//! The wire format of the TafLoc serving plane, owned end to end with no
//! `serde_json` dependency — so encoding works (and is measurable) under the
//! offline stub build.
//!
//! Two protocols share one crate:
//!
//! * **v1 — NDJSON compat mode.** A zero-alloc streaming JSON writer
//!   ([`json::JsonWriter`]) plus a hand-rolled reader ([`json::parse`])
//!   that reproduce, byte for byte, the frames the serde derives used to
//!   emit: compact JSON, fields in declaration order, `None` as `null`,
//!   non-finite floats as `null`, one message per `\n`-terminated line.
//! * **v2 — length-prefixed binary.** `[0xB2][0x02][uvarint len][payload]
//!   [crc32]` frames ([`frame`]) over the same little-endian codec the
//!   snapshot store persists with ([`codec::Enc`] / [`codec::Dec`]), with
//!   matrix-aware encoding for fingerprint databases and `y` vectors.
//!
//! A server tells them apart per message by sniffing the first byte
//! ([`frame::sniff`]): `0xB2` opens a v2 frame (the byte is not valid UTF-8,
//! so no JSON line can start with it); anything else is handed to the v1
//! line reader.
//!
//! Every type that crosses the wire or the disk implements one trait,
//! [`Codec`], with four directions: v1 JSON write and read, binary encode and
//! decode. The [`schema!`] macro ([`mod@schema`]) generates it from one list of a
//! type's fields; [`types`] declares the domain types (snapshots,
//! fingerprint databases, configs, ingest reports, planner and solver state),
//! and `tafloc-serve` declares its messages the same way.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod error;
pub mod frame;
pub mod json;
pub mod schema;
pub mod types;

pub use codec::{crc32, Dec, Enc};
pub use error::{Result, WireError};
pub use json::{JsonValue, JsonWriter};
pub use schema::{from_bytes, from_json, Codec};
