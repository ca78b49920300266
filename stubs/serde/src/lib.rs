//! Intentionally empty: no crate uses serde, but `loopbench/Cargo.toml` patches `serde` to this path and cargo refuses a patch whose path does not exist.
