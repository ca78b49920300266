//! Tracked-baseline plumbing for the `*_bench` binaries: the one writer and
//! the one reader of the `BENCH_<name>.json` files.
//!
//! Every performance-sensitive bench writes its headline numbers to a
//! `BENCH_<name>.json` file at the repository root, in the same canonical
//! JSON form the golden accuracy baselines use ([`taf_testkit::json`]): field
//! order is emission order and floats print in shortest round-trip form, so
//! an unchanged measurement produces an unchanged file. Before [`record`]
//! replaces the committed file, it reads that file by field name and
//! [`gate`]s the fresh document against it under the bench's rules: one
//! printed line per verdict, and exit status 1, after writing, on a hard one.

use std::path::{Path, PathBuf};
use taf_testkit::json::{self, GoldenJson, Json};

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

/// Milliseconds with microsecond resolution — coarse enough to keep the JSON
/// short, fine enough for millisecond-scale solves.
pub fn round_ms(ms: f64) -> f64 {
    (ms * 1000.0).round() / 1000.0
}

/// How far a fresh number may fall behind its committed value before the
/// gate speaks: a wall time may grow to this multiple, and a throughput may
/// shrink to its reciprocal. The committed numbers come from one run on the
/// measuring host, and that host's minute-to-minute spread is as wide as
/// any threshold derived from a single file's repeats, so the factor is
/// fixed rather than derived.
pub const SLOWDOWN: f64 = 1.25;

/// One check of a fresh bench document against the committed file it
/// replaces. A field is named by a dotted path, looked up by name: a segment
/// that meets an array picks the element whose `mode` is that segment.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// Hard when there is no committed file.
    Baseline,
    /// Hard when the fresh value exceeds the committed one times [`SLOWDOWN`].
    NoSlower(&'static str),
    /// Warns when the fresh value times [`SLOWDOWN`] is below the committed one.
    NoDrop(&'static str),
    /// Hard when the committed value reads `converged` and the fresh one
    /// `max_iters`.
    StillConverges(&'static str),
    /// Hard when the fresh value of the first field is not below the fresh
    /// value of the second.
    Below(&'static str, &'static str),
}

/// The rules the bench `bench` is held to (see [`gate`]).
fn rules(bench: &str) -> &'static [Rule] {
    match bench {
        "solver" => &[
            Rule::Baseline,
            Rule::StillConverges("results.cold.stop_reason"),
            Rule::StillConverges("results.warm.stop_reason"),
            Rule::StillConverges("results.masked.stop_reason"),
            Rule::NoSlower("results.cold.wall_ms"),
            Rule::Below("warm_iterations", "cold_iterations"),
        ],
        "serve" => &[Rule::NoDrop("v1_batch_fixes_per_s"), Rule::NoDrop("v2_batch_fixes_per_s")],
        _ => &[],
    }
}

/// A gate finding: a hard one makes the bench exit 1 after writing its file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Fails the run.
    Hard(String),
    /// Printed; the run still passes.
    Warn(String),
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Hard(msg) => write!(f, "gate: HARD {msg}"),
            Verdict::Warn(msg) => write!(f, "gate: WARN {msg}"),
        }
    }
}

/// The value at a dotted `path` (see [`Rule`]).
fn lookup<'a>(doc: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(doc, |node, key| match node {
        Json::Arr(rows) => {
            rows.iter().find(|row| row.get("mode").and_then(Json::as_str) == Some(key))
        }
        _ => node.get(key),
    })
}

/// Field reads that record a verdict for every field they cannot find.
struct Reader<'a> {
    committed: &'a Json,
    fresh: &'a Json,
    verdicts: Vec<Verdict>,
}

impl<'a> Reader<'a> {
    /// A field of the fresh document. The bench wrote that document itself,
    /// so a gap is a bug: hard.
    fn fresh<T>(&mut self, path: &str, read: fn(&'a Json) -> Option<T>) -> Option<T> {
        let value = lookup(self.fresh, path).and_then(read);
        if value.is_none() {
            self.verdicts.push(Verdict::Hard(format!(
                "{path} is missing from the fresh document or has the wrong type"
            )));
        }
        value
    }

    /// A field of the committed file. A gap there leaves the field
    /// uncompared: a warning that names it.
    fn committed<T>(&mut self, path: &str, read: fn(&'a Json) -> Option<T>) -> Option<T> {
        let value = lookup(self.committed, path).and_then(read);
        if value.is_none() {
            self.verdicts.push(Verdict::Warn(format!(
                "{path} is missing from the committed file or has the wrong type; not compared"
            )));
        }
        value
    }
}

/// Holds the fresh document of bench `bench` to its rules against the
/// `committed` file (`None` when there is none) and returns every verdict,
/// in rule order. The solver must have a committed file; it must still
/// converge in every mode that converged there, its cold solve may be at
/// most [`SLOWDOWN`] times slower, and its warm refresh must take fewer
/// iterations than the cold solve. The serve bench warns per protocol when
/// its batch throughput falls below the committed one over [`SLOWDOWN`].
/// Other benches are recorded, not gated.
pub fn gate(bench: &str, committed: Option<&Json>, fresh: &Json) -> Vec<Verdict> {
    let none = Json::Obj(Vec::new());
    let mut r = Reader { committed: committed.unwrap_or(&none), fresh, verdicts: Vec::new() };
    for &rule in rules(bench) {
        let verdict = match rule {
            Rule::Baseline => committed
                .is_none()
                .then(|| Verdict::Hard(format!("no committed BENCH_{bench}.json to compare with"))),
            Rule::NoSlower(path) => {
                match (r.fresh(path, Json::as_num), r.committed(path, Json::as_num)) {
                    (Some(new), Some(old)) if new > old * SLOWDOWN => Some(Verdict::Hard(format!(
                        "{path} {new} exceeds the committed {old} x {SLOWDOWN}"
                    ))),
                    _ => None,
                }
            }
            Rule::NoDrop(path) => {
                match (r.fresh(path, Json::as_num), r.committed(path, Json::as_num)) {
                    (Some(new), Some(old)) if new * SLOWDOWN < old => Some(Verdict::Warn(format!(
                        "{path} {new} is below the committed {old} / {SLOWDOWN}"
                    ))),
                    _ => None,
                }
            }
            Rule::StillConverges(path) => {
                match (r.fresh(path, Json::as_str), r.committed(path, Json::as_str)) {
                    (Some("max_iters"), Some("converged")) => Some(Verdict::Hard(format!(
                        "{path} is max_iters where the committed file converged"
                    ))),
                    _ => None,
                }
            }
            Rule::Below(lower, upper) => {
                match (r.fresh(lower, Json::as_num), r.fresh(upper, Json::as_num)) {
                    (Some(a), Some(b)) if !(a < b) => {
                        Some(Verdict::Hard(format!("{lower} {a} is not below {upper} {b}")))
                    }
                    _ => None,
                }
            }
        };
        r.verdicts.extend(verdict);
    }
    r.verdicts
}

/// Gates `fresh` against the committed `BENCH_<name>.json`, prints one line
/// per verdict, writes `fresh` over the file, and exits 1 when a verdict is
/// hard. The file is written either way, so a deliberate re-baseline is one
/// run followed by a commit of the file. Panics on I/O failure — a bench
/// that cannot record its result has failed.
pub fn record(name: &str, fresh: &Json) {
    let path = repo_root().join(format!("BENCH_{name}.json"));
    let mut verdicts = Vec::new();
    let committed = std::fs::read_to_string(&path).ok().and_then(|text| {
        json::parse(&text)
            .map_err(|e| verdicts.push(Verdict::Hard(format!("committed BENCH_{name}.json: {e}"))))
            .ok()
    });
    verdicts.extend(gate(name, committed.as_ref(), fresh));
    for v in &verdicts {
        eprintln!("{v}");
    }
    std::fs::write(&path, fresh.to_pretty())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    let hard = verdicts.iter().filter(|v| matches!(v, Verdict::Hard(_))).count();
    println!(
        "wrote {} ({hard} hard and {} warning verdicts against the file it replaced)",
        path.display(),
        verdicts.len() - hard
    );
    if hard > 0 {
        std::process::exit(1);
    }
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

    #[test]
    fn lookup_matches_rows_by_mode_not_position() {
        let doc =
            json::parse(r#"{"results": [{"mode": "warm", "x": 2}, {"mode": "cold", "x": 1}]}"#)
                .unwrap();
        assert_eq!(lookup(&doc, "results.cold.x").and_then(Json::as_num), Some(1.0));
        assert_eq!(lookup(&doc, "results.warm.x").and_then(Json::as_num), Some(2.0));
        assert_eq!(lookup(&doc, "results.masked.x"), None);
        assert_eq!(lookup(&doc, "results.cold.y"), None);
    }
}
