//! The structured outcome of one scenario run.
//!
//! A [`ScenarioReport`] carries every number the regression gates look at,
//! serialized through the crate's own canonical JSON ([`crate::json`]) so two
//! identical runs produce byte-identical files — that property *is* the
//! same-seed determinism gate.

use crate::json::{self, GoldenJson, Json};
use tafloc_core::eval::ErrorSummary;

/// Localization + stream-health metrics for one evaluation pass (one day).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMetrics {
    /// Localization error summary (meters) over the evaluated cells.
    pub loc: ErrorSummary,
    /// Fraction of link slots imputed from the empty-room baseline,
    /// summed over all evaluated locates.
    pub imputation_rate: f64,
    /// Fraction of link slots served from a stale aggregate.
    pub stale_rate: f64,
}

impl PhaseMetrics {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("loc_mean_m".into(), Json::Num(self.loc.mean)),
            ("loc_median_m".into(), Json::Num(self.loc.median)),
            ("loc_p90_m".into(), Json::Num(self.loc.p90)),
            ("loc_max_m".into(), Json::Num(self.loc.max)),
            ("loc_count".into(), Json::Num(self.loc.count as f64)),
            ("imputation_rate".into(), Json::Num(self.imputation_rate)),
            ("stale_rate".into(), Json::Num(self.stale_rate)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(PhaseMetrics {
            loc: ErrorSummary {
                mean: v.num_field("loc_mean_m")?,
                median: v.num_field("loc_median_m")?,
                p90: v.num_field("loc_p90_m")?,
                max: v.num_field("loc_max_m")?,
                count: v.num_field("loc_count")? as usize,
            },
            imputation_rate: v.num_field("imputation_rate")?,
            stale_rate: v.num_field("stale_rate")?,
        })
    }
}

/// Everything one scenario run measured. Field order below is the golden
/// file's field order.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name (also the golden file stem).
    pub scenario: String,
    /// World seed the run used.
    pub seed: u64,
    /// Deployment day of the drifted phase.
    pub drift_day: f64,
    /// Number of cells evaluated per phase.
    pub eval_cells: u64,
    /// Day-0 metrics (fresh calibration).
    pub day0: PhaseMetrics,
    /// Post-drift metrics (after the survey/refresh machinery ran).
    pub drifted: PhaseMetrics,
    /// RMSE (dB) of the served fingerprint database against the drifted
    /// ground truth — the primary accuracy gate.
    pub recon_rmse_db: f64,
    /// Mean *signed* error (dB) of the served database against the drifted
    /// truth. Near zero for any honest reconstruction in any environment; a
    /// systematic output bias shifts it one-for-one, which is what makes the
    /// mutation check robust across RNG backends.
    pub recon_bias_db: f64,
    /// Auto-refreshes the maintenance ticks triggered.
    pub refreshes: u64,
    /// Maintenance ticks executed.
    pub maintenance_checks: u64,
    /// Final snapshot version.
    pub snapshot_version: u64,
    /// Whether un-applied reference measurements were still pending at exit.
    pub pending_refs: bool,
    /// Samples the live ingestor accepted.
    pub ingest_accepted: u64,
    /// Samples dropped as older than the window horizon.
    pub ingest_dropped_late: u64,
    /// Batches shed by the scenario's queue-overload cap.
    pub ingest_dropped_queue_batches: u64,
    /// Hampel gate exclusion events.
    pub ingest_rejected_outliers: u64,
    /// Link-measurements the attached planner budgeted across every survey
    /// round (full rounds count `n_refs x links`). Equals `actual_cost` for
    /// planless scenarios.
    pub planned_cost: u64,
    /// Link-measurements actually committed into the served database; the
    /// numerator of the cost-vs-accuracy gates.
    pub actual_cost: u64,
    /// What the same number of survey rounds would have cost with no
    /// planning (`rounds x n_refs x links`); the denominator of the gates.
    pub full_survey_cost: u64,
    /// Planner policy wire name, or the empty string when no planner is
    /// attached. A policy change is a shape change and demands a re-bless.
    pub plan_policy: String,
}

impl ScenarioReport {
    /// Canonical JSON text (byte-stable for identical runs).
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("scenario".into(), Json::Str(self.scenario.clone())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("drift_day".into(), Json::Num(self.drift_day)),
            ("eval_cells".into(), Json::Num(self.eval_cells as f64)),
            ("day0".into(), self.day0.to_json()),
            ("drifted".into(), self.drifted.to_json()),
            ("recon_rmse_db".into(), Json::Num(self.recon_rmse_db)),
            ("recon_bias_db".into(), Json::Num(self.recon_bias_db)),
            ("refreshes".into(), Json::Num(self.refreshes as f64)),
            ("maintenance_checks".into(), Json::Num(self.maintenance_checks as f64)),
            ("snapshot_version".into(), Json::Num(self.snapshot_version as f64)),
            ("pending_refs".into(), Json::Bool(self.pending_refs)),
            ("ingest_accepted".into(), Json::Num(self.ingest_accepted as f64)),
            ("ingest_dropped_late".into(), Json::Num(self.ingest_dropped_late as f64)),
            (
                "ingest_dropped_queue_batches".into(),
                Json::Num(self.ingest_dropped_queue_batches as f64),
            ),
            ("ingest_rejected_outliers".into(), Json::Num(self.ingest_rejected_outliers as f64)),
            ("planned_cost".into(), Json::Num(self.planned_cost as f64)),
            ("actual_cost".into(), Json::Num(self.actual_cost as f64)),
            ("full_survey_cost".into(), Json::Num(self.full_survey_cost as f64)),
            ("plan_policy".into(), Json::Str(self.plan_policy.clone())),
        ])
        .to_pretty()
    }

    /// Parses a report back from its canonical (or hand-edited) JSON form.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        Ok(ScenarioReport {
            scenario: v.str_field("scenario")?,
            seed: v.num_field("seed")? as u64,
            drift_day: v.num_field("drift_day")?,
            eval_cells: v.num_field("eval_cells")? as u64,
            day0: PhaseMetrics::from_json(
                v.get("day0").ok_or_else(|| "missing `day0` object".to_string())?,
            )?,
            drifted: PhaseMetrics::from_json(
                v.get("drifted").ok_or_else(|| "missing `drifted` object".to_string())?,
            )?,
            recon_rmse_db: v.num_field("recon_rmse_db")?,
            recon_bias_db: v.num_field("recon_bias_db")?,
            refreshes: v.num_field("refreshes")? as u64,
            maintenance_checks: v.num_field("maintenance_checks")? as u64,
            snapshot_version: v.num_field("snapshot_version")? as u64,
            pending_refs: v
                .get("pending_refs")
                .and_then(Json::as_bool)
                .ok_or_else(|| "missing or non-boolean field `pending_refs`".to_string())?,
            ingest_accepted: v.num_field("ingest_accepted")? as u64,
            ingest_dropped_late: v.num_field("ingest_dropped_late")? as u64,
            ingest_dropped_queue_batches: v.num_field("ingest_dropped_queue_batches")? as u64,
            ingest_rejected_outliers: v.num_field("ingest_rejected_outliers")? as u64,
            planned_cost: v.num_field("planned_cost")? as u64,
            actual_cost: v.num_field("actual_cost")? as u64,
            full_survey_cost: v.num_field("full_survey_cost")? as u64,
            plan_policy: v.str_field("plan_policy")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ScenarioReport {
        let phase = |m: f64| PhaseMetrics {
            loc: ErrorSummary { mean: m, median: m * 0.9, p90: m * 1.5, max: m * 2.0, count: 8 },
            imputation_rate: 0.125,
            stale_rate: 0.0,
        };
        ScenarioReport {
            scenario: "nominal".into(),
            seed: 42,
            drift_day: 60.0,
            eval_cells: 8,
            day0: phase(0.31),
            drifted: phase(0.44),
            recon_rmse_db: 1.0625,
            recon_bias_db: -0.03125,
            refreshes: 1,
            maintenance_checks: 3,
            snapshot_version: 1,
            pending_refs: false,
            ingest_accepted: 2880,
            ingest_dropped_late: 2,
            ingest_dropped_queue_batches: 0,
            ingest_rejected_outliers: 17,
            planned_cost: 36,
            actual_cost: 36,
            full_survey_cost: 36,
            plan_policy: "uncertainty-greedy".into(),
        }
    }

    #[test]
    fn report_round_trips_byte_identically() {
        let r = sample_report();
        let text = r.to_json();
        let back = ScenarioReport::from_json(&text).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json(), text, "emit∘parse must be the identity on canonical text");
    }

    #[test]
    fn missing_fields_are_reported_by_name() {
        let err = ScenarioReport::from_json("{\"scenario\": \"x\"}").unwrap_err();
        assert!(err.contains("seed"), "{err}");
    }

    /// `sample_report`'s canonical text with top-level field `key` set to
    /// `value`, or removed when `value` is `None`.
    fn with_field(key: &str, value: Option<Json>) -> String {
        let Json::Obj(mut fields) = json::parse(&sample_report().to_json()).unwrap() else {
            panic!("a report is an object");
        };
        let at = fields.iter().position(|(k, _)| k == key).expect("field present");
        match value {
            Some(v) => fields[at].1 = v,
            None => drop(fields.remove(at)),
        }
        Json::Obj(fields).to_pretty()
    }

    #[test]
    fn pending_refs_must_be_a_boolean() {
        let text = with_field("pending_refs", Some(Json::Num(1.0)));
        let err = ScenarioReport::from_json(&text).unwrap_err();
        assert_eq!(err, "missing or non-boolean field `pending_refs`");
    }

    #[test]
    fn missing_phase_objects_and_phase_fields_are_named() {
        let err = ScenarioReport::from_json(&with_field("drifted", None)).unwrap_err();
        assert_eq!(err, "missing `drifted` object");
        let Json::Obj(mut day0) = sample_report().day0.to_json() else {
            panic!("a phase is an object");
        };
        day0.retain(|(k, _)| k != "loc_p90_m");
        let err =
            ScenarioReport::from_json(&with_field("day0", Some(Json::Obj(day0)))).unwrap_err();
        assert_eq!(err, "missing or non-numeric field `loc_p90_m`");
        // A phase that is not an object has none of its fields.
        let err = ScenarioReport::from_json(&with_field("day0", Some(Json::Null))).unwrap_err();
        assert_eq!(err, "missing or non-numeric field `loc_mean_m`");
    }

    #[test]
    fn committed_goldens_are_in_canonical_form() {
        let dir = crate::golden::workspace_root().join(crate::golden::GOLDEN_DIR);
        let mut seen = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            let report = ScenarioReport::from_json(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            // A hand edit that changes spacing or field order would make a
            // fresh bless rewrite the file even with no metric change.
            assert_eq!(report.to_json(), text, "{} is not canonical", path.display());
            seen += 1;
        }
        assert!(seen > 0, "no goldens under {}", dir.display());
    }
}
