//! Tracked-baseline plumbing for the `*_bench` binaries.
//!
//! Every performance-sensitive bench writes its headline numbers to a
//! `BENCH_<name>.json` file at the repository root, in the same canonical
//! JSON form the golden accuracy baselines use ([`taf_testkit::json`]): field
//! order is emission order and floats print in shortest round-trip form, so
//! an unchanged measurement produces an unchanged file. CI re-runs the
//! benches in `--quick` mode and `scripts/bench_gate.sh` compares the fresh
//! solver numbers against the committed file, failing the build on a large
//! regression.

use std::path::{Path, PathBuf};
use taf_testkit::json::{GoldenJson, Json};

/// The workspace root, resolved at compile time relative to this crate.
/// Benches may be invoked from any working directory (CI runs them from the
/// checkout root, developers from wherever), so paths must not depend on cwd.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

/// Peak resident set size of this process in kB (`VmHWM` from
/// `/proc/self/status`). `None` off Linux or if the field is missing; benches
/// report it as JSON `null` rather than guessing.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `peak_rss_kb` as a JSON value (`null` when unavailable).
pub fn peak_rss_json() -> Json {
    match peak_rss_kb() {
        Some(kb) => Json::Num(kb as f64),
        None => Json::Null,
    }
}

/// Writes `value` to `BENCH_<name>.json` at the repository root and returns
/// the path. Panics on I/O failure — a bench that cannot record its result
/// has failed.
pub fn write_bench_json(name: &str, value: &Json) -> PathBuf {
    let path = repo_root().join(format!("BENCH_{name}.json"));
    std::fs::write(&path, value.to_pretty())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    path
}

/// Milliseconds with microsecond resolution — coarse enough to keep the JSON
/// short, fine enough for millisecond-scale solves.
pub fn round_ms(ms: f64) -> f64 {
    (ms * 1000.0).round() / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repo_root_is_a_workspace() {
        assert!(repo_root().join("Cargo.toml").exists());
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        if let Some(kb) = peak_rss_kb() {
            assert!(kb > 100, "a running test binary uses more than 100 kB, got {kb}");
        }
    }

    #[test]
    fn round_ms_keeps_microseconds() {
        assert_eq!(round_ms(1.2345678), 1.235);
        assert_eq!(round_ms(0.0), 0.0);
    }
}
