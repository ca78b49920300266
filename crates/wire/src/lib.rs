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
//! from one list of a type's fields. `tafloc-serve` and the CLI declare
//! their messages, files and records through it, type and impl at once;
//! [`types`] lists the fields of the domain types (snapshots, fingerprint
//! databases, world and system configs, ingest reports, planner and solver
//! state), which live in crates that do not depend on this one.

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
pub use json::{JsonReader, JsonValue, JsonWriter};
pub use schema::{from_bytes, from_json, to_json, Codec};
