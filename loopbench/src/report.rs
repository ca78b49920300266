//! What a pass measures, and how passes become the metrics a run prints.

use crate::kernel::SpeedLog;
use crate::rig::{Rig, Tally};
use crate::stats::{median, ratio, Summary};
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// Segments a pass is cut into. Untraced passes set up a throwaway daemon
/// between segments, so the set-up samples spread over the whole run.
pub const SEGMENTS: usize = 4;

/// Op indices of segment `seg` when `ops` ops are cut into [`SEGMENTS`].
pub fn segment(ops: usize, seg: usize) -> std::ops::Range<usize> {
    (ops * seg / SEGMENTS)..(ops * (seg + 1) / SEGMENTS)
}

/// End-to-end metrics (name, unit), printed by untraced runs of every
/// workload. `BENCHMARK.json` lists exactly these. Unit `ref_us` is time
/// scaled to the reference kernel (see [`crate::kernel`]); `setup_s` is
/// plain wall time.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_us", "ref_us"),
    ("op_p90_us", "ref_us"),
    ("read_p50_us", "ref_us"),
    ("read_p90_us", "ref_us"),
    ("cpu_us_per_op", "ref_us"),
    ("rss_kb", "KiB"),
    ("loc_error_m", "m"),
    ("survey_frac", "ratio"),
];

/// Per-layer metrics (name, unit), printed by traced runs of every
/// workload; a layer that does no work in a workload reports 0.
/// `BENCHMARK.json` lists exactly these.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.req_bytes", "B"),
    ("wire.resp_bytes", "B"),
    ("wire.v1.codec_us", "us"),
    ("wire.v2.codec_us", "us"),
    ("serve.handler_p50_us", "us"),
    ("serve.dispatch_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.site.locate_us", "us"),
    ("serve.site.promote_us", "us"),
    ("serve.site.refresh_ms", "ms"),
    ("serve.shard.admitted_frac", "ratio"),
    ("serve.shard.deferred", "count"),
    ("serve.shard.rejected", "count"),
    ("serve.journal.records", "count"),
    ("serve.journal.append_us", "us"),
    ("serve.journal.sync_us", "us"),
    ("serve.store.save_ms", "ms"),
    ("serve.store.snapshot_bytes", "B"),
    ("ingest.apply_us", "us"),
    ("ingest.assemble_us", "us"),
    ("ingest.accepted_frac", "ratio"),
    ("plan.plan_us", "us"),
    ("plan.planned_cost", "count"),
    ("plan.actual_cost", "count"),
    ("core.localize_us", "us"),
    ("core.solve_ms", "ms"),
    ("core.solve_iters", "count"),
    ("core.converged_frac", "ratio"),
    ("core.guard_rejects", "count"),
    ("core.validate_us", "us"),
    ("core.apply_us", "us"),
    ("linalg.solve_mflop", "MFLOP"),
    ("linalg.mflop_per_s", "MFLOP/s"),
    ("gen.late_p50_us", "us"),
    ("gen.late_p90_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("op_p99_us", "ref_us"),
    ("op_p999_us", "ref_us"),
    ("read_p99_us", "ref_us"),
    ("read_p999_us", "ref_us"),
];

/// Exact counters of a pass. Given the seed they do not depend on timing,
/// so the traced and untraced passes of one run must agree on them.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    /// Journal records appended over the timed phase.
    pub journal_records: u64,
    /// Survey rounds promoted over the timed phase.
    pub rounds: u64,
    /// Link-measurements the site planned over the timed phase.
    pub planned_cost: u64,
    /// Link-measurements the site received over the timed phase.
    pub actual_cost: u64,
    /// Refreshes committed over the timed phase.
    pub refreshes: u64,
    /// LoLi-IR iterations over those refreshes.
    pub solve_iters: u64,
    /// Refreshes whose solve converged.
    pub converged: u64,
    /// Refreshes the reconstruction guard rejected.
    pub guard_rejects: u64,
    /// Samples sent in `ingest` batches.
    pub samples_sent: u64,
    /// Samples the batch reports accepted.
    pub samples_accepted: u64,
    /// Ingest batches offered to the admission gates.
    pub offered_batches: u64,
    /// ... admitted.
    pub admitted_batches: u64,
    /// ... deferred with an overload reply.
    pub deferred_batches: u64,
    /// ... rejected outright.
    pub rejected_batches: u64,
}

impl Counts {
    /// Admission counters summed over shards: offered, admitted, deferred,
    /// rejected batches.
    pub fn shards(rig: &Rig) -> [u64; 4] {
        rig.ctx().registry.shard_stats().iter().fold([0; 4], |acc, s| {
            [
                acc[0] + s.offered_batches,
                acc[1] + s.admitted_batches,
                acc[2] + s.deferred_batches,
                acc[3] + s.rejected_batches,
            ]
        })
    }

    /// Sets the admission counters to how far they moved since `mark`.
    pub fn admission_since(&mut self, rig: &Rig, mark: [u64; 4]) {
        let now = Counts::shards(rig);
        self.offered_batches = now[0] - mark[0];
        self.admitted_batches = now[1] - mark[1];
        self.deferred_batches = now[2] - mark[2];
        self.rejected_batches = now[3] - mark[3];
    }
}

/// Everything one pass over a workload's op sequence measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Set-up times (s): the pass's own, then one per extra set-up.
    pub setup_s: Vec<f64>,
    /// Op latencies (µs) as the client saw them.
    pub op_us: Vec<f64>,
    /// Read latencies (µs).
    pub read_us: Vec<f64>,
    /// How late each open-loop read was sent (µs).
    pub late_us: Vec<f64>,
    /// Process CPU over the timed segments (s).
    pub cpu_s: f64,
    /// Ops in the timed phase.
    pub ops: u64,
    /// Attempts and failures.
    pub tally: Tally,
    /// Mean localization error of the evaluation set on the final database.
    pub loc_error_m: f64,
    /// Link-measurements surveyed ÷ full-survey cost since deployment.
    pub survey_frac: f64,
    /// Exact counters.
    pub counts: Counts,
    /// Spans (traced passes only).
    pub tracer: Option<Tracer>,
    /// Per-layer values that are not span medians (traced passes only).
    pub layer: BTreeMap<&'static str, f64>,
}

impl Pass {
    /// Expresses op and read times and the CPU in reference-kernel time
    /// (see [`crate::kernel`]): ops and the CPU (the kernel's own runs left
    /// out) by `main`, the log of the CPU they ran on; reads by `reads` when
    /// they ran on another CPU. Set-up stays wall time: it is dominated by
    /// file syncs, which the kernel does not track.
    pub fn scale(&mut self, main: &SpeedLog, reads: Option<&SpeedLog>) {
        let (on_main, on_reads) = (main.factor(), reads.unwrap_or(main).factor());
        self.op_us.iter_mut().for_each(|v| *v *= on_main);
        self.read_us.iter_mut().for_each(|v| *v *= on_reads);
        self.cpu_s = (self.cpu_s - main.spent_s()) * on_main;
    }
}

/// The daemon's own median service time (µs, histogram bucket bound) for
/// `endpoint`, from its `stats` report.
pub fn handler_p50_us(rig: &Rig, endpoint: &str) -> f64 {
    rig.stats().endpoints.iter().find(|e| e.endpoint == endpoint).map_or(0.0, |e| e.p50_us as f64)
}

/// Link-measurements surveyed ÷ what full surveys would have cost, since
/// deployment. The day-0 calibration counts as the first full round (its
/// reference-cell cost is `refs x links`), so a site that never re-surveys
/// reports 1.
pub fn survey_frac(rig: &Rig) -> f64 {
    let snap = rig.site.load();
    let calibration = (snap.system.reference_cells().len() * snap.system.db().num_links()) as f64;
    let stats = rig.site.stats();
    (stats.actual_cost as f64 + calibration) / (stats.full_survey_cost as f64 + calibration)
}

/// The end-to-end metrics of an untraced pass, in [`END_TO_END`] order.
pub fn end_to_end(pass: &Pass, rss_kb: u64) -> Vec<f64> {
    let op = Summary::of(&pass.op_us);
    let read = Summary::of(&pass.read_us);
    vec![
        median(&pass.setup_s),
        op.p50,
        op.p90,
        read.p50,
        read.p90,
        pass.cpu_s * 1e6 / pass.ops.max(1) as f64,
        rss_kb as f64,
        pass.loc_error_m,
        pass.survey_frac,
    ]
}

/// The per-layer metrics of a run, in [`PER_LAYER`] order, from its traced
/// pass and the untraced pass it is compared with. `transport_span` names
/// the round trips whose unattributed time is the transport.
pub fn per_layer(plain: &Pass, traced: &Pass, transport_span: &str) -> Vec<f64> {
    let tr = traced.tracer.as_ref().expect("a traced pass has spans");
    let span_us = |name: &str| median(&tr.durations_us(name));
    let layer = |name: &str| traced.layer.get(name).copied().unwrap_or(0.0);
    let c = &traced.counts;
    let rounds = c.rounds as f64;
    let plain_op = Summary::of(&plain.op_us);
    let plain_read = Summary::of(&plain.read_us);
    let late = Summary::of(&plain.late_us);
    let traced_op = Summary::of(&traced.op_us);
    PER_LAYER
        .iter()
        .map(|(name, _)| match *name {
            "wire.v1.codec_us" => span_us("wire.v1.codec"),
            "wire.v2.codec_us" => span_us("wire.v2.codec"),
            "serve.dispatch_us" => span_us("serve.dispatch"),
            "serve.transport_us" => median(&tr.self_times_us(transport_span)),
            "serve.site.locate_us" => span_us("serve.site.locate"),
            "serve.site.promote_us" => span_us("serve.site.promote"),
            "serve.site.refresh_ms" => span_us("serve.site.refresh") / 1e3,
            "serve.shard.admitted_frac" => {
                ratio(c.admitted_batches as f64, c.offered_batches as f64)
            }
            "serve.shard.deferred" => c.deferred_batches as f64,
            "serve.shard.rejected" => c.rejected_batches as f64,
            "serve.journal.records" => ratio(c.journal_records as f64, traced.ops as f64),
            "serve.journal.append_us" => span_us("serve.journal.append"),
            "serve.journal.sync_us" => span_us("serve.journal.sync"),
            "serve.store.save_ms" => span_us("serve.store.save") / 1e3,
            "ingest.apply_us" => span_us("ingest.apply"),
            "ingest.assemble_us" => span_us("ingest.assemble"),
            "ingest.accepted_frac" => ratio(c.samples_accepted as f64, c.samples_sent as f64),
            "plan.plan_us" => span_us("plan.plan"),
            "plan.planned_cost" => ratio(c.planned_cost as f64, rounds),
            "plan.actual_cost" => ratio(c.actual_cost as f64, rounds),
            "core.localize_us" => span_us("core.localize"),
            "core.solve_ms" => span_us("core.solve") / 1e3,
            "core.solve_iters" => c.solve_iters as f64,
            "core.converged_frac" => ratio(c.converged as f64, c.refreshes as f64),
            "core.guard_rejects" => c.guard_rejects as f64,
            "core.validate_us" => span_us("core.validate"),
            "core.apply_us" => span_us("core.apply"),
            "gen.late_p50_us" => late.p50,
            "gen.late_p90_us" => late.p90,
            "trace.overhead_frac" => ratio(traced_op.p50 - plain_op.p50, plain_op.p50),
            "op_p99_us" => plain_op.p99,
            "op_p999_us" => plain_op.p999,
            "read_p99_us" => plain_read.p99,
            "read_p999_us" => plain_read.p999,
            other => layer(other),
        })
        .collect()
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub fn result_json(correct: bool, tally: &Tally, names: &[(&str, &str)], values: &[f64]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .zip(values)
        .map(|((name, unit), v)| {
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*v))
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(",")
    )
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_cover_every_op_once() {
        for ops in [0, 1, 3, 4, 5, 1001] {
            let covered: Vec<usize> = (0..SEGMENTS).flat_map(|s| segment(ops, s)).collect();
            assert_eq!(covered, (0..ops).collect::<Vec<_>>());
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let tally = Tally { attempted: 3, failed: 0, notes: Vec::new() };
        let line = result_json(true, &tally, &[("a_us", "us"), ("b", "count")], &[1.25, 7.0]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"a_us\":{\"value\":1.25,\
             \"unit\":\"us\"},\"b\":{\"value\":7.0,\"unit\":\"count\"}}}"
        );
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let body = &text[text.find(&format!("\"{section}\"")).expect("section present")..];
            let body = &body[..body.find(']').expect("section closes")];
            let listed = body.matches("\"name\"").count();
            assert_eq!(listed, table.len(), "{section}: BENCHMARK.json lists {listed} metrics");
            for (name, unit) in table {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{section} lacks {entry}");
            }
        }
    }
}
