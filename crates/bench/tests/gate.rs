//! The BENCH gate on small fixture documents: one test per verdict, the
//! missing-field rules, and the committed files gated against themselves,
//! which pins the field names the gate reads to the files in the repo.

use taf_bench::perf::{gate, repo_root, Verdict, SLOWDOWN};
use taf_testkit::json::{parse, Json};

/// A solver document: the cold row's wall time, each mode's stop reason
/// (cold, warm, masked) and the two iteration counts. Rows are written in
/// `order` (indices into cold, warm, masked).
fn solver(
    cold_ms: f64,
    stops: [&str; 3],
    cold_iters: u32,
    warm_iters: u32,
    order: [usize; 3],
) -> Json {
    let rows = [("cold", cold_ms), ("warm", 23.9), ("masked", 148.2)];
    let rows: Vec<String> = order
        .iter()
        .map(|&i| {
            let (mode, ms) = rows[i];
            format!(r#"{{"mode": "{mode}", "wall_ms": {ms}, "stop_reason": "{}"}}"#, stops[i])
        })
        .collect();
    parse(&format!(
        r#"{{"bench": "solver", "cold_iterations": {cold_iters}, "warm_iterations": {warm_iters},
            "results": [{}]}}"#,
        rows.join(", ")
    ))
    .unwrap()
}

const CONVERGED: [&str; 3] = ["converged"; 3];
const IN_ORDER: [usize; 3] = [0, 1, 2];

fn committed_solver() -> Json {
    solver(88.516, CONVERGED, 44, 8, IN_ORDER)
}

fn serve(fields: &[(&str, f64)]) -> Json {
    Json::Obj(fields.iter().map(|&(k, v)| (k.to_string(), Json::Num(v))).collect())
}

fn hard(msgs: &[&str]) -> Vec<Verdict> {
    msgs.iter().map(|m| Verdict::Hard(m.to_string())).collect()
}

#[test]
fn a_mode_that_converged_and_now_stops_on_max_iters_is_hard() {
    // The committed rows come in another order: modes match by name.
    let old = solver(88.516, CONVERGED, 44, 8, [2, 0, 1]);
    let new = solver(80.0, ["max_iters", "converged", "max_iters"], 44, 8, IN_ORDER);
    assert_eq!(
        gate("solver", Some(&old), &new),
        hard(&[
            "results.cold.stop_reason is max_iters where the committed file converged",
            "results.masked.stop_reason is max_iters where the committed file converged",
        ])
    );
    // A mode that never converged in the committed file is not held to it.
    let old = solver(88.516, ["converged", "converged", "max_iters"], 44, 8, IN_ORDER);
    let new = solver(80.0, ["converged", "converged", "max_iters"], 44, 8, IN_ORDER);
    assert_eq!(gate("solver", Some(&old), &new), []);
}

#[test]
fn a_cold_solve_slower_than_the_factor_allows_is_hard() {
    let old = committed_solver();
    let at_limit = solver(88.516 * SLOWDOWN, CONVERGED, 44, 8, IN_ORDER);
    assert_eq!(gate("solver", Some(&old), &at_limit), []);
    let over = solver(110.7, CONVERGED, 44, 8, IN_ORDER);
    assert_eq!(
        gate("solver", Some(&old), &over),
        hard(&["results.cold.wall_ms 110.7 exceeds the committed 88.516 x 1.25"])
    );
}

#[test]
fn a_warm_refresh_no_faster_than_cold_is_hard() {
    let old = committed_solver();
    for warm in [44, 45] {
        let new = solver(88.0, CONVERGED, 44, warm, IN_ORDER);
        assert_eq!(
            gate("solver", Some(&old), &new),
            hard(&[&format!("warm_iterations {warm} is not below cold_iterations 44")])
        );
    }
    assert_eq!(gate("solver", Some(&old), &solver(88.0, CONVERGED, 44, 43, IN_ORDER)), []);
}

#[test]
fn a_missing_solver_baseline_is_hard() {
    let verdicts = gate("solver", None, &committed_solver());
    assert_eq!(verdicts[0], Verdict::Hard("no committed BENCH_solver.json to compare with".into()));
    assert!(verdicts[1..].iter().all(|v| matches!(v, Verdict::Warn(_))), "{verdicts:?}");
}

#[test]
fn a_batch_throughput_drop_warns_once_per_protocol() {
    let old = serve(&[("v1_batch_fixes_per_s", 100_000.0), ("v2_batch_fixes_per_s", 200_000.0)]);
    let v1_down = serve(&[("v1_batch_fixes_per_s", 79_000.0), ("v2_batch_fixes_per_s", 170_000.0)]);
    assert_eq!(
        gate("serve", Some(&old), &v1_down),
        [Verdict::Warn("v1_batch_fixes_per_s 79000 is below the committed 100000 / 1.25".into())]
    );
    let v2_down = serve(&[("v1_batch_fixes_per_s", 81_000.0), ("v2_batch_fixes_per_s", 150_000.0)]);
    assert_eq!(
        gate("serve", Some(&old), &v2_down),
        [Verdict::Warn("v2_batch_fixes_per_s 150000 is below the committed 200000 / 1.25".into())]
    );
}

#[test]
fn a_field_missing_from_the_committed_file_warns_and_names_it() {
    let old = serve(&[("v1_batch_fixes_per_s", 100_000.0)]);
    let new = serve(&[("v1_batch_fixes_per_s", 10.0), ("v2_batch_fixes_per_s", 10.0)]);
    let verdicts = gate("serve", Some(&old), &new);
    assert_eq!(verdicts.len(), 2, "{verdicts:?}");
    assert!(matches!(&verdicts[0], Verdict::Warn(m) if m.starts_with("v1_batch_fixes_per_s 10 ")));
    assert_eq!(
        verdicts[1],
        Verdict::Warn(
            "v2_batch_fixes_per_s is missing from the committed file or has the wrong type; \
             not compared"
                .into()
        )
    );
    // With no committed serve file at all, every field it reads is missing.
    assert_eq!(gate("serve", None, &new).len(), 2);
    assert!(gate("serve", None, &new).iter().all(|v| matches!(v, Verdict::Warn(_))));
}

#[test]
fn a_field_missing_from_the_fresh_document_is_hard() {
    let old = serve(&[("v1_batch_fixes_per_s", 100_000.0), ("v2_batch_fixes_per_s", 200_000.0)]);
    let new = serve(&[("v2_batch_fixes_per_s", 200_000.0)]);
    assert_eq!(
        gate("serve", Some(&old), &new),
        hard(&["v1_batch_fixes_per_s is missing from the fresh document or has the wrong type"])
    );
    let mut new = committed_solver();
    if let Json::Obj(fields) = &mut new {
        fields.retain(|(k, _)| k != "warm_iterations");
    }
    assert_eq!(
        gate("solver", Some(&committed_solver()), &new),
        hard(&["warm_iterations is missing from the fresh document or has the wrong type"])
    );
}

#[test]
fn verdicts_print_one_line_each() {
    assert_eq!(Verdict::Hard("x".into()).to_string(), "gate: HARD x");
    assert_eq!(Verdict::Warn("y".into()).to_string(), "gate: WARN y");
}

#[test]
fn each_committed_bench_file_gates_clean_against_itself() {
    for bench in ["solver", "serve"] {
        let path = repo_root().join(format!("BENCH_{bench}.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = parse(&text).unwrap();
        assert_eq!(gate(bench, Some(&doc), &doc), [], "{}", path.display());
    }
}
