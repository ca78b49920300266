//! Short runs of every workload: twice with one seed, once with another.
//! The metrics that do not depend on timing must repeat exactly, and follow
//! the seed wherever the seed enters them.

use crate::Workload;

/// Nominal seconds of a short run (a few ops per segment).
const SHORT_SECONDS: f64 = 0.25;

/// The metrics of a traced pass that must not depend on timing.
#[derive(Debug, Clone, PartialEq)]
struct Exact {
    loc_error_m: f64,
    survey_frac: f64,
    solve_iters: u64,
    journal_records: f64,
    req_bytes: f64,
    resp_bytes: f64,
}

fn short_run(workload: &str, seed: u64) -> Exact {
    let pass = Workload::generate(workload, seed, SHORT_SECONDS).pass(true, false);
    assert_eq!(pass.tally.failed, 0, "{workload}: {:?}", pass.tally.notes);
    assert!(pass.tally.attempted >= pass.ops && pass.ops > 0);
    Exact {
        loc_error_m: pass.loc_error_m,
        survey_frac: pass.survey_frac,
        solve_iters: pass.counts.solve_iters,
        journal_records: pass.counts.journal_records as f64 / pass.ops as f64,
        req_bytes: pass.layer["wire.req_bytes"],
        resp_bytes: pass.layer["wire.resp_bytes"],
    }
}

#[test]
fn exact_metrics_repeat_and_follow_the_seed() {
    for workload in ["locate", "capture", "refresh"] {
        let a = short_run(workload, 1);
        assert_eq!(a, short_run(workload, 1), "{workload}: same seed, same exact metrics");
        let b = short_run(workload, 2);
        assert_ne!(a.loc_error_m, b.loc_error_m, "{workload}: the evaluation set follows the seed");
        // Fixed by the workload's shape, whatever the seed: one journal
        // record per batch, whole-cell plans at a fixed budget.
        assert_eq!(a.journal_records, b.journal_records, "{workload}");
        assert_eq!(a.survey_frac, b.survey_frac, "{workload}");
        match workload {
            "locate" => {
                // v1 frames carry the query's readings as decimal text.
                assert_ne!(a.req_bytes, b.req_bytes);
                assert_eq!((a.journal_records, a.survey_frac, a.solve_iters), (0.0, 1.0, 0));
            }
            "capture" => {
                assert_ne!(a.req_bytes, b.req_bytes);
                assert_eq!((a.journal_records, a.survey_frac, a.solve_iters), (1.0, 1.0, 0));
            }
            _ => {
                // The solve follows the seeded capture streams; v2 frames
                // are fixed-size, so the bytes do not.
                assert_ne!(a.solve_iters, b.solve_iters);
                assert!(a.solve_iters > 0 && a.survey_frac < 1.0 && a.journal_records > 1.0);
                assert_eq!((a.req_bytes, a.resp_bytes), (b.req_bytes, b.resp_bytes));
            }
        }
    }
    crate::rig::remove_scratch();
}
