//! Property-based tests of the planner invariants the serving plane and
//! testkit rely on:
//!
//! * a plan never spends more than its budget,
//! * when the budget affords at least one whole cell, every live link is
//!   measured at least once,
//! * planning is a pure function — the serialized plan is byte-identical
//!   across repeated evaluation and across thread counts for the same seed.

use std::thread;

use proptest::prelude::*;
use taf_plan::{MeasurementPlan, PlanInputs, PlanPolicy, Planner, PlannerConfig};
use tafloc_ingest::LinkStatus;

/// Strategy: a link-health census with a mix of live/stale/dead links.
fn census() -> impl Strategy<Value = Vec<LinkStatus>> {
    proptest::collection::vec(0usize..3, 1..12).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| match c {
                0 => LinkStatus::Live,
                1 => LinkStatus::Stale,
                _ => LinkStatus::Dead,
            })
            .collect()
    })
}

/// Strategy: full planner inputs plus a config, sized so that every branch
/// (zero budget, partial cells, over-budget, both policies) is exercised.
/// Confidence/staleness vectors are drawn at the maximum slot count and
/// truncated to `n_refs`.
#[allow(clippy::type_complexity)]
fn scenario() -> impl Strategy<Value = (Vec<LinkStatus>, Vec<f64>, Vec<u64>, u64, usize, usize)> {
    (
        census(),
        (1usize..9, 0usize..80, 0u64..20, 0usize..2),
        (proptest::collection::vec(0.0..1.0f64, 8..9), proptest::collection::vec(0u64..10, 8..9)),
    )
        .prop_map(|(health, (n_refs, budget, epoch, policy), (mut conf, mut last))| {
            conf.truncate(n_refs);
            last.truncate(n_refs);
            (health, conf, last, epoch, budget, policy)
        })
}

fn planner_for(budget: usize, policy_code: usize) -> Planner {
    let policy =
        if policy_code == 0 { PlanPolicy::UncertaintyGreedy } else { PlanPolicy::FixedSchedule };
    Planner::new(PlannerConfig::new(budget, policy)).unwrap()
}

fn plan_of(
    health: &[LinkStatus],
    conf: &[f64],
    last: &[u64],
    epoch: u64,
    budget: usize,
    policy: usize,
) -> MeasurementPlan {
    planner_for(budget, policy)
        .plan(&PlanInputs {
            epoch,
            n_refs: conf.len(),
            link_health: health,
            confidence: Some(conf),
            last_surveyed: Some(last),
        })
        .unwrap()
}

proptest! {
    /// The budget is a hard ceiling: total planned link-measurements never
    /// exceed it, the advertised `planned_cost` matches the entries, and no
    /// slot is planned twice.
    #[test]
    fn plan_never_exceeds_budget(
        (health, conf, last, epoch, budget, policy) in scenario()
    ) {
        let plan = plan_of(&health, &conf, &last, epoch, budget, policy);
        let spent: usize = plan.entries.iter().map(|e| e.links.len()).sum();
        prop_assert_eq!(spent, plan.planned_cost);
        prop_assert!(spent <= budget, "spent {} over budget {}", spent, budget);
        prop_assert_eq!(plan.full_cost, conf.len() * health.len());
        for pair in plan.entries.windows(2) {
            prop_assert!(pair[0].ref_slot < pair[1].ref_slot, "entries sorted, no duplicates");
        }
        for e in &plan.entries {
            prop_assert!(e.ref_slot < conf.len());
            for pair in e.links.windows(2) {
                prop_assert!(pair[0] < pair[1], "links sorted, no duplicates");
            }
            for &l in &e.links {
                prop_assert!(l < health.len());
            }
        }
    }

    /// Whenever the budget affords at least one whole cell, the plan
    /// measures every live link at least once (the first planned cell alone
    /// covers them), regardless of policy.
    #[test]
    fn live_links_are_covered_when_budget_permits(
        (health, conf, last, epoch, _budget, policy) in scenario()
    ) {
        let measurable = health.iter().filter(|&&s| s != LinkStatus::Dead).count();
        prop_assume!(measurable > 0);
        let plan = plan_of(&health, &conf, &last, epoch, measurable, policy);
        let mut covered = vec![false; health.len()];
        for e in &plan.entries {
            for &l in &e.links {
                covered[l] = true;
            }
        }
        for (l, &status) in health.iter().enumerate() {
            if status == LinkStatus::Live {
                prop_assert!(covered[l], "live link {} not covered by {:?}", l, plan);
            }
        }
    }

    /// Planning is deterministic and thread-count-independent: the same
    /// inputs give equal plans whether planned once, twice, or concurrently
    /// from many threads. Every field of a plan is an integer, so equal
    /// plans encode to byte-identical files.
    #[test]
    fn plans_are_byte_identical_across_thread_counts(
        (health, conf, last, epoch, budget, policy) in scenario()
    ) {
        let reference = plan_of(&health, &conf, &last, epoch, budget, policy);
        for threads in [1usize, 4] {
            let outputs: Vec<MeasurementPlan> = thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| s.spawn(|| plan_of(&health, &conf, &last, epoch, budget, policy)))
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for out in outputs {
                prop_assert_eq!(&out, &reference);
            }
        }
    }
}
