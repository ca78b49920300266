//! # taf-wire
//!
//! The wire and file formats of TafLoc, owned end to end: the serving
//! plane's two protocols, its snapshot store and journal, and the CLI's JSON
//! files all encode through this crate, and it depends on no JSON library.
//!
//! Two protocols share one crate:
//!
//! * **v1 — NDJSON.** A zero-alloc streaming JSON writer
//!   ([`json::JsonWriter`]) plus a strict pull reader ([`json::JsonReader`])
//!   that decodes each value straight into its field: compact JSON, fields
//!   in declaration order, `None` as `null`, non-finite floats as `null`,
//!   one message per `\n`-terminated line.
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
//! Every type that crosses the wire, the disk or a CLI file implements one
//! trait, [`Codec`], with four directions: v1 JSON write and read, binary
//! encode and decode. The [`schema!`] macro ([`mod@schema`]) generates it
//! from one list of a type's fields, and each crate declares its own types
//! through it, type and impl at once, where they live: the daemon's
//! messages and records, the CLI's files, and the domain types (snapshots,
//! world and system configs, ingest reports, planner state). A type with
//! private fields or a validating constructor writes a short [`Codec`] impl
//! next to its declaration instead. This crate depends only on
//! `taf-linalg`, whose matrix it encodes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod error;
pub mod frame;
pub mod json;
pub mod schema;

pub use codec::{crc32, Dec, Enc};
pub use error::{Result, WireError};
pub use json::{JsonReader, JsonValue, JsonWriter};
pub use schema::{from_bytes, from_json, to_json, Codec};
