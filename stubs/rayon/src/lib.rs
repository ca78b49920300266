//! Intentionally empty: no crate uses rayon, but `loopbench/Cargo.toml` patches `rayon` to this path and cargo refuses a patch whose path does not exist.
