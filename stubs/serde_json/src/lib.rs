//! Intentionally empty: no crate uses serde_json, but `loopbench/Cargo.toml` patches `serde_json` to this path and cargo refuses a patch whose path does not exist.
