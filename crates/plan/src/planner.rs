//! Budgeted measurement planning.
//!
//! A [`Planner`] turns "how sure is the reconstruction about each reference
//! cell" plus "which links are actually alive" into an explicit
//! [`MeasurementPlan`]: the set of (reference slot, link) pairs worth
//! re-surveying in the next refresh, under a hard per-refresh budget counted
//! in link-measurements.

use std::cmp::Ordering;
use std::str::FromStr;

use tafloc_ingest::LinkStatus;

use crate::error::{PlanError, Result};

/// How the planner spends its measurement budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanPolicy {
    /// Spend the budget on the reference cells the reconstruction is least
    /// confident about (lowest confidence first; ties broken by survey
    /// staleness, then slot index).
    UncertaintyGreedy,
    /// Ignore confidence and rotate through the reference cells on a fixed
    /// round-robin schedule — the non-adaptive baseline.
    FixedSchedule,
}

impl PlanPolicy {
    /// Stable wire/CLI name of the policy.
    pub fn as_str(&self) -> &'static str {
        match self {
            PlanPolicy::UncertaintyGreedy => "uncertainty-greedy",
            PlanPolicy::FixedSchedule => "fixed-schedule",
        }
    }
}

impl std::fmt::Display for PlanPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for PlanPolicy {
    type Err = PlanError;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "uncertainty" | "uncertainty-greedy" => Ok(PlanPolicy::UncertaintyGreedy),
            "fixed" | "fixed-schedule" => Ok(PlanPolicy::FixedSchedule),
            other => Err(PlanError::InvalidConfig {
                field: "policy",
                reason: format!(
                    "unknown policy `{other}` (expected `uncertainty-greedy` or `fixed-schedule`)"
                ),
            }),
        }
    }
}

/// Static planner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerConfig {
    /// Per-refresh measurement budget in link-measurements (one re-surveyed
    /// (reference cell, link) pair costs one unit). A full survey of `n`
    /// reference cells over `m` links costs `n * m`.
    pub budget: usize,
    /// Spending policy.
    pub policy: PlanPolicy,
    /// How many past surveys the serving plane retains per reference slot to
    /// fill in the entries a budgeted plan skips.
    pub history_depth: usize,
}

impl PlannerConfig {
    /// Config with the default history depth.
    pub fn new(budget: usize, policy: PlanPolicy) -> Self {
        PlannerConfig { budget, policy, history_depth: 4 }
    }
}

/// Everything the planner looks at for one refresh cycle.
#[derive(Debug, Clone, Copy)]
pub struct PlanInputs<'a> {
    /// Refresh epoch the plan is for (drives the fixed-schedule rotation).
    pub epoch: u64,
    /// Number of reference slots (columns of the fresh-reference matrix).
    pub n_refs: usize,
    /// Current health of every link, indexed by link id. Dead links cannot
    /// produce a measurement and are excluded from the budget — unless every
    /// link is dead, in which case the census is treated as uninformative
    /// and all links stay measurable.
    pub link_health: &'a [LinkStatus],
    /// Per-reference-slot reconstruction confidence in `[0, 1]` from the last
    /// refresh's diagnostics; `None` on the first refresh, before any
    /// diagnostics exist.
    pub confidence: Option<&'a [f64]>,
    /// Epoch each reference slot was last actually surveyed, for staleness
    /// tie-breaking; `None` when the serving plane has no history yet.
    pub last_surveyed: Option<&'a [u64]>,
}

/// One planned reference-cell survey: which links to measure at that cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanEntry {
    /// Reference slot (column index into the fresh-reference matrix).
    pub ref_slot: usize,
    /// Link ids to measure at this cell, ascending.
    pub links: Vec<usize>,
}

/// An explicit budgeted measurement plan for one refresh cycle.
///
/// Entries are sorted by `ref_slot`; slots absent from `entries` are not
/// re-surveyed this cycle and must be filled from survey history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasurementPlan {
    /// Epoch this plan targets.
    pub epoch: u64,
    /// Policy that produced the plan.
    pub policy: PlanPolicy,
    /// Planned surveys, sorted by reference slot.
    pub entries: Vec<PlanEntry>,
    /// Total planned link-measurements (sum of `entries[..].links.len()`).
    pub planned_cost: usize,
    /// Cost of a full survey (`n_refs * n_links`), the baseline this plan is
    /// saving against.
    pub full_cost: usize,
}

impl MeasurementPlan {
    /// Whether `ref_slot` is scheduled for any measurement this cycle.
    pub fn is_planned(&self, ref_slot: usize) -> bool {
        self.links_for(ref_slot).is_some()
    }

    /// The links planned at `ref_slot`, if any.
    pub fn links_for(&self, ref_slot: usize) -> Option<&[usize]> {
        self.entries
            .binary_search_by_key(&ref_slot, |e| e.ref_slot)
            .ok()
            .map(|i| self.entries[i].links.as_slice())
    }
}

/// Budgeted measurement planner.
#[derive(Debug, Clone)]
pub struct Planner {
    config: PlannerConfig,
}

impl Planner {
    /// Builds a planner after validating the config.
    pub fn new(config: PlannerConfig) -> Result<Self> {
        if config.history_depth == 0 {
            return Err(PlanError::InvalidConfig {
                field: "history_depth",
                reason: "must be at least 1".into(),
            });
        }
        Ok(Planner { config })
    }

    /// The validated configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Builds the measurement plan for one refresh cycle.
    ///
    /// Both policies spend the budget in whole reference cells (every
    /// measurable link at the chosen cell), with at most one partial cell
    /// when the budget does not divide evenly. Cells are visited in policy
    /// order; within a cell, links are taken in ascending id order, so the
    /// plan is a pure deterministic function of its inputs.
    pub fn plan(&self, inputs: &PlanInputs<'_>) -> Result<MeasurementPlan> {
        let PlanInputs { epoch, n_refs, link_health, confidence, last_surveyed } = *inputs;
        if n_refs == 0 {
            return Err(PlanError::InvalidConfig {
                field: "n_refs",
                reason: "must be at least 1".into(),
            });
        }
        if link_health.is_empty() {
            return Err(PlanError::InvalidConfig {
                field: "link_health",
                reason: "must cover at least 1 link".into(),
            });
        }
        if let Some(c) = confidence {
            if c.len() != n_refs {
                return Err(PlanError::DimensionMismatch {
                    what: "confidence",
                    expected: n_refs,
                    actual: c.len(),
                });
            }
            if let Some(slot) = c.iter().position(|v| !v.is_finite()) {
                return Err(PlanError::NonFiniteConfidence { slot });
            }
        }
        if let Some(l) = last_surveyed {
            if l.len() != n_refs {
                return Err(PlanError::DimensionMismatch {
                    what: "last_surveyed",
                    expected: n_refs,
                    actual: l.len(),
                });
            }
        }

        // Dead links cannot return a measurement; spend the budget on the
        // rest. An all-dead census carries no information (e.g. ingest has
        // not seen traffic yet), so fall back to every link.
        let mut measurable: Vec<usize> =
            (0..link_health.len()).filter(|&l| link_health[l] != LinkStatus::Dead).collect();
        if measurable.is_empty() {
            measurable = (0..link_health.len()).collect();
        }
        let links_per_cell = measurable.len();

        let order = match self.config.policy {
            PlanPolicy::UncertaintyGreedy => {
                let conf = |s: usize| confidence.map_or(0.0, |c| c[s]);
                let last = |s: usize| last_surveyed.map_or(0, |l| l[s]);
                let mut order: Vec<usize> = (0..n_refs).collect();
                order.sort_by(|&a, &b| {
                    conf(a)
                        .partial_cmp(&conf(b))
                        .unwrap_or(Ordering::Equal)
                        .then_with(|| last(a).cmp(&last(b)))
                        .then_with(|| a.cmp(&b))
                });
                order
            }
            PlanPolicy::FixedSchedule => {
                let cells_per_epoch =
                    (self.config.budget / links_per_cell).clamp(1, n_refs) as u128;
                let start = ((epoch as u128 * cells_per_epoch) % n_refs as u128) as usize;
                (0..n_refs).map(|k| (start + k) % n_refs).collect()
            }
        };

        let mut entries = Vec::new();
        let mut remaining = self.config.budget;
        for slot in order {
            if remaining == 0 {
                break;
            }
            let take = remaining.min(links_per_cell);
            entries.push(PlanEntry { ref_slot: slot, links: measurable[..take].to_vec() });
            remaining -= take;
        }
        entries.sort_by_key(|e| e.ref_slot);
        let planned_cost = entries.iter().map(|e| e.links.len()).sum();

        Ok(MeasurementPlan {
            epoch,
            policy: self.config.policy,
            entries,
            planned_cost,
            full_cost: n_refs * link_health.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live(m: usize) -> Vec<LinkStatus> {
        vec![LinkStatus::Live; m]
    }

    fn planner(budget: usize, policy: PlanPolicy) -> Planner {
        Planner::new(PlannerConfig::new(budget, policy)).unwrap()
    }

    #[test]
    fn greedy_targets_the_least_confident_cells_first() {
        let health = live(4);
        let conf = [0.9, 0.2, 0.8, 0.1];
        let p = planner(8, PlanPolicy::UncertaintyGreedy);
        let plan = p
            .plan(&PlanInputs {
                epoch: 5,
                n_refs: 4,
                link_health: &health,
                confidence: Some(&conf),
                last_surveyed: None,
            })
            .unwrap();
        let slots: Vec<usize> = plan.entries.iter().map(|e| e.ref_slot).collect();
        assert_eq!(slots, vec![1, 3], "budget of 2 cells must go to the two weakest");
        assert_eq!(plan.planned_cost, 8);
        assert_eq!(plan.full_cost, 16);
        assert!(plan.is_planned(3) && !plan.is_planned(0));
        assert_eq!(plan.links_for(1), Some(&[0, 1, 2, 3][..]));
    }

    #[test]
    fn staleness_breaks_confidence_ties() {
        let health = live(2);
        let conf = [0.5, 0.5];
        let last = [7, 3];
        let p = planner(2, PlanPolicy::UncertaintyGreedy);
        let plan = p
            .plan(&PlanInputs {
                epoch: 8,
                n_refs: 2,
                link_health: &health,
                confidence: Some(&conf),
                last_surveyed: Some(&last),
            })
            .unwrap();
        assert_eq!(plan.entries.len(), 1);
        assert_eq!(plan.entries[0].ref_slot, 1, "the staler slot wins the tie");
    }

    #[test]
    fn fixed_schedule_rotates_with_the_epoch() {
        let health = live(3);
        let p = planner(3, PlanPolicy::FixedSchedule);
        let slot_at = |epoch| {
            let plan = p
                .plan(&PlanInputs {
                    epoch,
                    n_refs: 5,
                    link_health: &health,
                    confidence: None,
                    last_surveyed: None,
                })
                .unwrap();
            assert_eq!(plan.planned_cost, 3);
            plan.entries[0].ref_slot
        };
        // One whole cell per epoch: the rotation visits every slot in turn.
        let visited: Vec<usize> = (0..5).map(slot_at).collect();
        let mut sorted = visited.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        assert_eq!(slot_at(0), slot_at(5), "rotation period is n_refs");
    }

    #[test]
    fn dead_links_are_excluded_unless_all_are_dead() {
        let mut health = live(4);
        health[2] = LinkStatus::Dead;
        let p = planner(100, PlanPolicy::UncertaintyGreedy);
        let plan = p
            .plan(&PlanInputs {
                epoch: 0,
                n_refs: 2,
                link_health: &health,
                confidence: None,
                last_surveyed: None,
            })
            .unwrap();
        for e in &plan.entries {
            assert_eq!(e.links, vec![0, 1, 3], "dead link 2 must not be planned");
        }
        assert_eq!(plan.planned_cost, 6);
        assert_eq!(plan.full_cost, 8, "the savings baseline stays the full survey");

        let all_dead = vec![LinkStatus::Dead; 4];
        let plan = p
            .plan(&PlanInputs {
                epoch: 0,
                n_refs: 2,
                link_health: &all_dead,
                confidence: None,
                last_surveyed: None,
            })
            .unwrap();
        assert_eq!(plan.planned_cost, 8, "an all-dead census falls back to every link");
    }

    #[test]
    fn partial_budget_produces_one_partial_cell() {
        let health = live(4);
        let conf = [0.1, 0.9];
        let p = planner(6, PlanPolicy::UncertaintyGreedy);
        let plan = p
            .plan(&PlanInputs {
                epoch: 0,
                n_refs: 2,
                link_health: &health,
                confidence: Some(&conf),
                last_surveyed: None,
            })
            .unwrap();
        assert_eq!(plan.links_for(0).unwrap().len(), 4);
        assert_eq!(plan.links_for(1).unwrap().len(), 2);
        assert_eq!(plan.planned_cost, 6);
    }

    #[test]
    fn zero_budget_plans_nothing() {
        let health = live(3);
        let p = planner(0, PlanPolicy::UncertaintyGreedy);
        let plan = p
            .plan(&PlanInputs {
                epoch: 1,
                n_refs: 3,
                link_health: &health,
                confidence: None,
                last_surveyed: None,
            })
            .unwrap();
        assert!(plan.entries.is_empty());
        assert_eq!(plan.planned_cost, 0);
    }

    #[test]
    fn a_budget_past_the_full_survey_plans_every_cell_once() {
        let health = live(3);
        let p = planner(100, PlanPolicy::UncertaintyGreedy);
        let plan = p
            .plan(&PlanInputs {
                epoch: 1,
                n_refs: 4,
                link_health: &health,
                confidence: None,
                last_surveyed: None,
            })
            .unwrap();
        let slots: Vec<usize> = plan.entries.iter().map(|e| e.ref_slot).collect();
        assert_eq!(slots, vec![0, 1, 2, 3]);
        assert!(plan.entries.iter().all(|e| e.links == [0, 1, 2]));
        assert_eq!(plan.planned_cost, plan.full_cost);
    }

    #[test]
    fn stale_links_are_still_measured() {
        let health = [LinkStatus::Live, LinkStatus::Stale, LinkStatus::Dead, LinkStatus::Stale];
        let p = planner(3, PlanPolicy::FixedSchedule);
        let plan = p
            .plan(&PlanInputs {
                epoch: 0,
                n_refs: 2,
                link_health: &health,
                confidence: None,
                last_surveyed: None,
            })
            .unwrap();
        assert_eq!(plan.links_for(0), Some(&[0, 1, 3][..]));
        assert!(!plan.is_planned(1));
        assert_eq!(plan.full_cost, 8, "the full survey counts dead links too");
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let health = live(2);
        let p = planner(4, PlanPolicy::UncertaintyGreedy);
        let base = PlanInputs {
            epoch: 0,
            n_refs: 2,
            link_health: &health,
            confidence: None,
            last_surveyed: None,
        };
        assert!(p.plan(&PlanInputs { n_refs: 0, ..base }).is_err());
        assert!(p.plan(&PlanInputs { link_health: &[], ..base }).is_err());
        assert!(p.plan(&PlanInputs { confidence: Some(&[0.5]), ..base }).is_err());
        let nan = [0.5, f64::NAN];
        assert!(p.plan(&PlanInputs { confidence: Some(&nan), ..base }).is_err());
        assert!(p.plan(&PlanInputs { last_surveyed: Some(&[1]), ..base }).is_err());
        assert!(Planner::new(PlannerConfig {
            history_depth: 0,
            ..PlannerConfig::new(1, PlanPolicy::FixedSchedule)
        })
        .is_err());
    }

    #[test]
    fn policy_names_round_trip() {
        for policy in [PlanPolicy::UncertaintyGreedy, PlanPolicy::FixedSchedule] {
            assert_eq!(policy.as_str().parse::<PlanPolicy>().unwrap(), policy);
        }
        assert_eq!("uncertainty".parse::<PlanPolicy>().unwrap(), PlanPolicy::UncertaintyGreedy);
        assert_eq!("fixed".parse::<PlanPolicy>().unwrap(), PlanPolicy::FixedSchedule);
        assert!("adaptive".parse::<PlanPolicy>().is_err());
    }

    #[test]
    fn plans_serialize_deterministically() {
        let health = live(3);
        let p = planner(5, PlanPolicy::UncertaintyGreedy);
        let inputs = PlanInputs {
            epoch: 2,
            n_refs: 3,
            link_health: &health,
            confidence: Some(&[0.3, 0.1, 0.9]),
            last_surveyed: Some(&[1, 1, 2]),
        };
        // Every field of a plan is an integer, so equal plans encode to
        // equal bytes.
        assert_eq!(p.plan(&inputs).unwrap(), p.plan(&inputs).unwrap());
    }
}
