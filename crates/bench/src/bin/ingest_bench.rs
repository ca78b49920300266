//! Ingestion-throughput baseline: raw samples/sec through the streaming
//! pipeline, plus fingerprint-assembly latency percentiles.
//!
//! Four phases, each on the paper-scale link count:
//!
//! 1. **Direct pipeline** — `threads` producers call
//!    [`Ingestor::apply_batch`] concurrently on disjoint time epochs of a
//!    simulated radio stream; reported as aggregate samples/sec.
//! 2. **Assembly** — repeated [`Ingestor::assemble`] calls on the loaded
//!    pipeline; reported as p50/p95/p99/max latency and assemblies/sec.
//! 3. **Sharded credit queues (overload)** — the same producers push against
//!    four undersized [`CreditQueue`]s behind a consistent-hash
//!    [`ShardRing`], the admission path the sharded daemon uses: every batch
//!    gets an explicit admitted/deferred/rejected verdict and the *silent*
//!    shed fraction must be ~0 by construction. The offered rate is measured
//!    over the *push* phase only (the drain tail is excluded).
//! 4. **Journaled admission (overload)** — phase 3 with the write-ahead
//!    ingest journal on the admitted path: every admitted batch is appended
//!    to a per-shard segment-rotated WAL under the default group-commit
//!    config before it counts, pricing the durability the daemon pays with
//!    `--data-dir`. The gate watches the admitted-rate ratio vs phase 3.
//!
//! The headline numbers land in `BENCH_ingest.json` at the repo root in the
//! canonical golden-file JSON form; CI's bench-smoke job re-generates the file
//! in `--quick` mode and uploads it as an artifact.
//!
//! Usage: `cargo run --release -p taf-bench --bin ingest_bench [--quick] [threads] [epochs_per_thread] [batch]`

use std::sync::Arc;
use std::time::{Duration, Instant};
use taf_bench::perf;
use taf_rfsim::{stream, StreamConfig, World, WorldConfig};
use taf_testkit::json::Json;
use tafloc_ingest::{Admission, CreditQueue, IngestConfig, Ingestor, LinkSample};
use tafloc_serve::journal::{Journal, JournalConfig, JournalRecord};
use tafloc_serve::shard::{ShardRing, DEFAULT_SHARD_SEED};

/// One epoch of the base stream, shifted so its timestamps continue the
/// stream clock instead of arriving "late" and being dropped.
fn shifted(base: &[LinkSample], offset_s: f64) -> Vec<LinkSample> {
    base.iter().map(|s| LinkSample::new(s.link, s.t_s + offset_s, s.rss_dbm)).collect()
}

fn quantile(sorted_us: &[u64], q: f64) -> u64 {
    let idx = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[idx - 1]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut args = std::env::args().skip(1).filter(|a| !a.starts_with("--"));
    let threads: usize = args.next().map_or(4, |v| v.parse().expect("threads"));
    let epochs: usize =
        args.next().map_or(if quick { 5 } else { 50 }, |v| v.parse().expect("epochs"));
    let batch: usize = args.next().map_or(256, |v| v.parse().expect("batch"));
    assert!(batch > 0, "batch must be > 0");

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
    let base: Vec<LinkSample> =
        base.iter().map(|r| LinkSample::new(r.link, r.t_s, r.rss_dbm)).collect();
    let m = world.num_links();
    let total_samples = (base.len() * threads * epochs) as f64;
    println!(
        "ingest_bench: {m} links, {} samples/epoch x {threads} threads x {epochs} epochs, batch {batch}",
        base.len()
    );

    // Phase 1: direct pipeline throughput.
    let ing = Arc::new(Ingestor::new(IngestConfig::default(), m, m.min(8)).expect("ingestor"));
    let start = Instant::now();
    let joins: Vec<_> = (0..threads)
        .map(|_| {
            let ing = Arc::clone(&ing);
            let base = base.clone();
            std::thread::spawn(move || {
                // Every producer replays the same epoch window concurrently —
                // parallel radio bridges reporting the same interval — so the
                // shared stream clock stays coherent across threads.
                for e in 0..epochs {
                    let epoch = shifted(&base, e as f64 * cfg.duration_s);
                    for chunk in epoch.chunks(batch) {
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
    let apply_sps = total_samples / elapsed;
    println!(
        "apply_batch: {total_samples:.0} samples in {elapsed:.3} s  ->  {apply_sps:.0} samples/s \
         ({} accepted, {} late, {} outlier exclusions)",
        stats.accepted, stats.dropped_late, stats.rejected_outliers,
    );

    // Phase 2: assembly latency on the loaded pipeline.
    let fallback = vec![-60.0; m];
    let rounds = if quick { 1_000 } else { 10_000 };
    let mut lat_us = Vec::with_capacity(rounds);
    let start = Instant::now();
    for _ in 0..rounds {
        let t0 = Instant::now();
        let v = ing.assemble(&fallback).expect("assemble");
        lat_us.push(t0.elapsed().as_micros() as u64);
        assert_eq!(v.y.len(), m);
    }
    let elapsed = start.elapsed().as_secs_f64();
    lat_us.sort_unstable();
    let assemble_per_s = rounds as f64 / elapsed;
    println!(
        "assemble: {rounds} vectors in {elapsed:.3} s  ->  {assemble_per_s:.0} assemblies/s; \
         latency p50 {} us, p95 {} us, p99 {} us, max {} us",
        quantile(&lat_us, 0.50),
        quantile(&lat_us, 0.95),
        quantile(&lat_us, 0.99),
        lat_us[lat_us.len() - 1],
    );

    // Phase 3: the sharded admission path. Four credit queues behind the
    // daemon's consistent-hash ring, each deliberately undersized, with every
    // producer spraying batches across eight "sites". Nothing may vanish
    // silently: every batch gets a verdict, and the silent shed fraction is
    // asserted ~0 by CI's bench gate.
    let num_shards = 4usize;
    let num_sites = 8usize;
    let ring = ShardRing::new(num_shards, DEFAULT_SHARD_SEED);
    let site_shard: Vec<usize> =
        (0..num_sites).map(|i| ring.shard_of(&format!("site-{i}"))).collect();
    let shard_ings: Vec<Arc<Ingestor>> = (0..num_shards)
        .map(|_| Arc::new(Ingestor::new(IngestConfig::default(), m, m.min(8)).expect("ingestor")))
        .collect();
    let shard_queues: Vec<Arc<CreditQueue>> = shard_ings
        .iter()
        .map(|ing| Arc::new(CreditQueue::spawn(Arc::clone(ing), 4 * batch)))
        .collect();
    let start = Instant::now();
    let joins: Vec<_> = (0..threads)
        .map(|t| {
            let queues = shard_queues.clone();
            let site_shard = site_shard.clone();
            let base = base.clone();
            std::thread::spawn(move || {
                let mut admitted = 0u64;
                for e in 0..epochs {
                    let epoch = shifted(&base, e as f64 * cfg.duration_s);
                    for (c, chunk) in epoch.chunks(batch).enumerate() {
                        // Round-robin the sites; the ring picks the shard.
                        let site = (t + c) % site_shard.len();
                        let q = &queues[site_shard[site]];
                        match q.offer(chunk.to_vec(), Duration::from_millis(1)).expect("queue open")
                        {
                            Admission::Admitted => admitted += chunk.len() as u64,
                            Admission::Deferred { .. } | Admission::Rejected => {}
                        }
                    }
                }
                admitted
            })
        })
        .collect();
    for j in joins {
        j.join().expect("producer thread");
    }
    let sharded_push_elapsed = start.elapsed().as_secs_f64();
    let mut credit = tafloc_ingest::CreditStats::default();
    for q in &shard_queues {
        let s = q.stats();
        credit.offered_batches += s.offered_batches;
        credit.offered_samples += s.offered_samples;
        credit.admitted_batches += s.admitted_batches;
        credit.admitted_samples += s.admitted_samples;
        credit.deferred_batches += s.deferred_batches;
        credit.deferred_samples += s.deferred_samples;
        credit.rejected_batches += s.rejected_batches;
        credit.rejected_samples += s.rejected_samples;
    }
    drop(shard_queues); // close + drain every shard
    let sharded_offered = credit.offered_samples as f64;
    let sharded_offered_sps = sharded_offered / sharded_push_elapsed;
    let sharded_admitted_sps = credit.admitted_samples as f64 / start.elapsed().as_secs_f64();
    let deferred_frac = credit.deferred_samples as f64 / sharded_offered;
    let silent_frac = credit.silent_samples() as f64 / sharded_offered;
    println!(
        "sharded credit ({num_shards} shards x cap {}): {sharded_offered:.0} samples offered \
         ({sharded_offered_sps:.0} samples/s)  ->  {sharded_admitted_sps:.0} samples/s admitted; \
         {:.1}% deferred with explicit verdicts, {:.4}% shed silently",
        4 * batch,
        100.0 * deferred_frac,
        100.0 * silent_frac,
    );

    // Phase 4: the same admission path, now paying for durability — every
    // admitted batch is appended to its shard's write-ahead journal (default
    // group-commit config, the same one `taflocd --data-dir` runs with)
    // before it counts as admitted. The delta against phase 3 is the whole
    // price of crash-safe ingest at this batch size.
    let wal_dir = std::env::temp_dir().join(format!("ingest-bench-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    std::fs::create_dir_all(&wal_dir).expect("wal dir");
    let shard_ings: Vec<Arc<Ingestor>> = (0..num_shards)
        .map(|_| Arc::new(Ingestor::new(IngestConfig::default(), m, m.min(8)).expect("ingestor")))
        .collect();
    let shard_queues: Vec<Arc<CreditQueue>> = shard_ings
        .iter()
        .map(|ing| Arc::new(CreditQueue::spawn(Arc::clone(ing), 4 * batch)))
        .collect();
    let journals: Vec<Arc<Journal>> = (0..num_shards)
        .map(|i| {
            let (j, _) =
                Journal::open(&wal_dir, &format!("shard-{i}"), JournalConfig::default(), 0)
                    .expect("journal");
            Arc::new(j)
        })
        .collect();
    let start = Instant::now();
    let joins: Vec<_> = (0..threads)
        .map(|t| {
            let queues = shard_queues.clone();
            let journals = journals.clone();
            let site_shard = site_shard.clone();
            let base = base.clone();
            std::thread::spawn(move || {
                for e in 0..epochs {
                    let epoch = shifted(&base, e as f64 * cfg.duration_s);
                    for (c, chunk) in epoch.chunks(batch).enumerate() {
                        let site = (t + c) % site_shard.len();
                        let shard = site_shard[site];
                        match queues[shard]
                            .offer(chunk.to_vec(), Duration::from_millis(1))
                            .expect("queue open")
                        {
                            Admission::Admitted => {
                                journals[shard]
                                    .append(&JournalRecord::RefBatch {
                                        ref_slot: site,
                                        day: e as f64,
                                        samples: chunk.to_vec(),
                                    })
                                    .expect("wal append");
                            }
                            Admission::Deferred { .. } | Admission::Rejected => {}
                        }
                    }
                }
            })
        })
        .collect();
    for j in joins {
        j.join().expect("producer thread");
    }
    let wal_push_elapsed = start.elapsed().as_secs_f64();
    let mut wal_credit = tafloc_ingest::CreditStats::default();
    for q in &shard_queues {
        let s = q.stats();
        wal_credit.offered_samples += s.offered_samples;
        wal_credit.admitted_samples += s.admitted_samples;
        wal_credit.deferred_samples += s.deferred_samples;
        wal_credit.rejected_samples += s.rejected_samples;
    }
    drop(shard_queues); // close + drain every shard
    for j in &journals {
        j.sync().expect("wal sync"); // clean-shutdown flush, like the daemon's
    }
    let wal_appended_bytes: u64 = std::fs::read_dir(&wal_dir)
        .expect("wal dir")
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .map(|md| md.len())
        .sum();
    drop(journals);
    let _ = std::fs::remove_dir_all(&wal_dir);
    let wal_admitted_sps = wal_credit.admitted_samples as f64 / start.elapsed().as_secs_f64();
    let wal_offered_sps = wal_credit.offered_samples as f64 / wal_push_elapsed;
    let wal_vs_sharded =
        if sharded_admitted_sps > 0.0 { wal_admitted_sps / sharded_admitted_sps } else { 0.0 };
    println!(
        "journaled admission ({num_shards} WALs, group commit {:?}): \
         {:.0} samples offered ({wal_offered_sps:.0} samples/s)  ->  \
         {wal_admitted_sps:.0} samples/s admitted+journaled \
         ({:.0}% of the unjournaled rate, {:.1} MiB appended)",
        JournalConfig::default().flush_interval,
        wal_credit.offered_samples as f64,
        100.0 * wal_vs_sharded,
        wal_appended_bytes as f64 / (1024.0 * 1024.0),
    );

    let report = Json::Obj(vec![
        ("bench".into(), Json::Str("ingest".into())),
        ("quick".into(), Json::Bool(quick)),
        (
            "threads_available".into(),
            Json::Num(std::thread::available_parallelism().map_or(1, |p| p.get()) as f64),
        ),
        (
            "load".into(),
            Json::Obj(vec![
                ("links".into(), Json::Num(m as f64)),
                ("producer_threads".into(), Json::Num(threads as f64)),
                ("epochs_per_thread".into(), Json::Num(epochs as f64)),
                ("batch".into(), Json::Num(batch as f64)),
            ]),
        ),
        ("peak_rss_kb".into(), perf::peak_rss_json()),
        ("apply_samples_per_s".into(), Json::Num(perf::round_ms(apply_sps))),
        (
            "assemble".into(),
            Json::Obj(vec![
                ("per_s".into(), Json::Num(perf::round_ms(assemble_per_s))),
                ("p50_us".into(), Json::Num(quantile(&lat_us, 0.50) as f64)),
                ("p95_us".into(), Json::Num(quantile(&lat_us, 0.95) as f64)),
                ("p99_us".into(), Json::Num(quantile(&lat_us, 0.99) as f64)),
                ("max_us".into(), Json::Num(lat_us[lat_us.len() - 1] as f64)),
            ]),
        ),
        (
            "sharded_credit".into(),
            Json::Obj(vec![
                ("shards".into(), Json::Num(num_shards as f64)),
                ("sites".into(), Json::Num(num_sites as f64)),
                ("capacity_samples_per_shard".into(), Json::Num((4 * batch) as f64)),
                ("offered_samples_per_s".into(), Json::Num(perf::round_ms(sharded_offered_sps))),
                ("admitted_samples_per_s".into(), Json::Num(perf::round_ms(sharded_admitted_sps))),
                ("deferred_fraction".into(), Json::Num(perf::round_ms(deferred_frac))),
                ("silent_shed_fraction".into(), Json::Num(perf::round_ms(silent_frac))),
            ]),
        ),
        (
            "journaled".into(),
            Json::Obj(vec![
                ("wal_shards".into(), Json::Num(num_shards as f64)),
                (
                    "wal_group_commit_ms".into(),
                    Json::Num(JournalConfig::default().flush_interval.as_secs_f64() * 1e3),
                ),
                ("wal_offered_samples_per_s".into(), Json::Num(perf::round_ms(wal_offered_sps))),
                ("wal_admitted_samples_per_s".into(), Json::Num(perf::round_ms(wal_admitted_sps))),
                ("wal_admitted_ratio_vs_sharded".into(), Json::Num(perf::round_ms(wal_vs_sharded))),
                ("wal_appended_bytes".into(), Json::Num(wal_appended_bytes as f64)),
            ]),
        ),
    ]);
    let path = perf::write_bench_json("ingest", &report);
    println!("wrote {}", path.display());
}
