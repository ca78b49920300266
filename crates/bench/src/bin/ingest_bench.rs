//! Ingestion-throughput baseline: raw samples/sec through the streaming
//! pipeline, plus fingerprint-assembly latency percentiles.
//!
//! Two phases, each on the paper-scale link count:
//!
//! 1. **Direct pipeline** — `THREADS` producers call
//!    [`Ingestor::apply_batch`] concurrently, each replaying the same epochs
//!    of a simulated radio stream; reported as accepted samples/sec, with the
//!    share of samples dropped as late (a late sample skips the window and
//!    aggregation work, so it is not counted as throughput).
//! 2. **Assembly** — repeated [`Ingestor::assemble`] calls on the loaded
//!    pipeline, each timed in nanoseconds; reported as p50/p95/p99/max
//!    latency in fractional µs and assemblies/sec.
//!
//! The daemon's admission gate and write-ahead journal are not timed here:
//! `serve_bench`'s sharded phase loads the gate, and loopbench's `capture`
//! workload times the journal on the daemon's own ingest path.
//!
//! The headline numbers land in `BENCH_ingest.json` at the repo root in the
//! canonical golden-file JSON form (`taf_bench::perf::record`); they are
//! recorded, not gated. CI's bench-smoke job re-generates the file and
//! uploads it as an artifact.
//!
//! Usage: `cargo run --release -p taf-bench --bin ingest_bench`

use std::sync::Arc;
use std::time::Instant;
use taf_bench::perf;
use taf_linalg::stats::Ecdf;
use taf_rfsim::{stream, StreamConfig, World, WorldConfig};
use taf_testkit::json::Json;
use tafloc_ingest::{IngestConfig, Ingestor, LinkSample};

/// Concurrent producers of the pipeline phase.
const THREADS: usize = 4;
/// Epochs of the base stream each producer replays.
const EPOCHS: usize = 50;
/// Samples per `apply_batch` call.
const BATCH: usize = 256;
/// Timed `assemble` calls of the assembly phase.
const ROUNDS: usize = 10_000;

/// One epoch of the base stream, shifted so its timestamps continue the
/// stream clock instead of arriving "late" and being dropped.
fn shifted(base: &[LinkSample], offset_s: f64) -> Vec<LinkSample> {
    base.iter().map(|s| LinkSample::new(s.link, s.t_s + offset_s, s.rss_dbm)).collect()
}

fn main() {
    // The paper-scale deployment, streaming fast enough to be a load test.
    let world = World::new(WorldConfig::paper_default(), 7);
    let cfg = StreamConfig {
        rate_hz: 50.0,
        duration_s: 20.0,
        jitter_frac: 0.05,
        loss_rate: 0.02,
        reorder_prob: 0.01,
    };
    let cell = world.num_cells() / 2;
    let base = stream::stream_at_cell(&world, 0.0, cell, &cfg, 1);
    let m = world.num_links();
    let total_samples = (base.len() * THREADS * EPOCHS) as f64;
    println!(
        "ingest_bench: {m} links, {} samples/epoch x {THREADS} threads x {EPOCHS} epochs, batch {BATCH}",
        base.len()
    );

    // Phase 1: direct pipeline throughput.
    let ing = Arc::new(Ingestor::new(IngestConfig::default(), m, m.min(8)).expect("ingestor"));
    let start = Instant::now();
    let joins: Vec<_> = (0..THREADS)
        .map(|_| {
            let ing = Arc::clone(&ing);
            let base = base.clone();
            std::thread::spawn(move || {
                // Every producer replays the same epoch window concurrently —
                // parallel radio bridges reporting the same interval — so the
                // shared stream clock stays coherent across threads.
                for e in 0..EPOCHS {
                    let epoch = shifted(&base, e as f64 * cfg.duration_s);
                    for chunk in epoch.chunks(BATCH) {
                        ing.apply_batch(chunk);
                    }
                }
            })
        })
        .collect();
    for j in joins {
        j.join().expect("producer thread");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = ing.stats();
    let accepted_per_s = stats.accepted as f64 / elapsed;
    let late_frac = stats.dropped_late as f64 / total_samples;
    println!(
        "apply_batch: {total_samples:.0} samples in {elapsed:.3} s  ->  {accepted_per_s:.0} accepted \
         samples/s ({} accepted, {} late = {:.1}%, {} outlier exclusions)",
        stats.accepted,
        stats.dropped_late,
        100.0 * late_frac,
        stats.rejected_outliers,
    );

    // Phase 2: assembly latency on the loaded pipeline.
    let fallback = vec![-60.0; m];
    let mut lat_us = Vec::with_capacity(ROUNDS);
    let start = Instant::now();
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        let v = ing.assemble(&fallback).expect("assemble");
        lat_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        assert_eq!(v.y.len(), m);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let assemble_per_s = ROUNDS as f64 / elapsed;
    let lat = Ecdf::new(&lat_us).expect("finite latencies");
    let [p50, p95, p99, max] = [0.50, 0.95, 0.99, 1.0].map(|q| perf::round_ms(lat.quantile(q)));
    println!(
        "assemble: {ROUNDS} vectors in {elapsed:.3} s  ->  {assemble_per_s:.0} assemblies/s; \
         latency p50 {p50:.3} us, p95 {p95:.3} us, p99 {p99:.3} us, max {max:.3} us",
    );

    let report = Json::Obj(vec![
        ("bench".into(), Json::Str("ingest".into())),
        (
            "threads_available".into(),
            Json::Num(std::thread::available_parallelism().map_or(1, |p| p.get()) as f64),
        ),
        (
            "load".into(),
            Json::Obj(vec![
                ("links".into(), Json::Num(m as f64)),
                ("producer_threads".into(), Json::Num(THREADS as f64)),
                ("epochs_per_thread".into(), Json::Num(EPOCHS as f64)),
                ("batch".into(), Json::Num(BATCH as f64)),
            ]),
        ),
        ("peak_rss_kb".into(), perf::peak_rss_json()),
        ("apply_accepted_per_s".into(), Json::Num(perf::round_ms(accepted_per_s))),
        ("late_frac".into(), Json::Num(perf::round_ms(late_frac))),
        (
            "assemble".into(),
            Json::Obj(vec![
                ("per_s".into(), Json::Num(perf::round_ms(assemble_per_s))),
                ("p50_us".into(), Json::Num(p50)),
                ("p95_us".into(), Json::Num(p95)),
                ("p99_us".into(), Json::Num(p99)),
                ("max_us".into(), Json::Num(max)),
            ]),
        ),
    ]);
    perf::record("ingest", &report);
}
