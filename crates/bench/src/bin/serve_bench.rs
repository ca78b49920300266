//! Serving-throughput baseline: `locate` requests/sec against an in-process
//! `taflocd` over loopback TCP, measured for **both wire protocols**.
//!
//! These are the numbers later serving-performance PRs must beat. The setup
//! is the paper-scale site (10 links, 96 cells), one persistent connection
//! per client thread, every request a full `locate` round trip (encode → TCP
//! → dispatch → fingerprint match → decode). Phases:
//!
//! 1. `locate` over v1 (newline-delimited JSON) and over v2 (length-prefixed
//!    checksummed binary), with client-side per-request p50/p99;
//! 2. `locate-batch` (16 vectors per round trip) over each protocol, to
//!    expose the framing overhead amortized away by batching;
//! 3. a mixed many-client phase — `4 x threads` concurrent connections,
//!    alternating v1/v2 — exercising version sniffing under contention;
//! 4. a sharded many-site phase — a second daemon at `--shards 4` owning
//!    eight clones of the calibrated site, with `2 x threads` clients
//!    spraying locates (plus a trickle of ingest) across all sites; reported
//!    as aggregate and per-shard req/s, so shard skew is visible.
//!
//! Every reply is checked against the cell `TafLoc::localize` gives the
//! served system, computed in process before timing starts; the bench exits
//! non-zero on any mismatch, so CI's bench-smoke run fails when the daemon
//! answers a query differently from the library.
//!
//! The headline numbers land in `BENCH_serve.json` at the repo root in the canonical golden-file JSON
//! form; CI's bench-smoke job re-generates the file in `--quick` mode.
//!
//! Usage: `cargo run --release -p taf-bench --bin serve_bench [--quick] [threads] [requests_per_thread] [workers]`

use std::time::Instant;
use taf_bench::perf;
use taf_rfsim::{campaign, World, WorldConfig};
use taf_testkit::json::Json;
use tafloc_core::db::FingerprintDb;
use tafloc_core::system::{TafLoc, TafLocConfig};
use tafloc_ingest::LinkSample;
use tafloc_serve::client::{Client, IngestOutcome};
use tafloc_serve::maintenance::MaintenancePolicy;
use tafloc_serve::protocol::{Request, Response};
use tafloc_serve::server::{Server, ServerConfig};
use tafloc_serve::shard::{ShardRing, DEFAULT_SHARD_SEED};
use tafloc_serve::wire::WireVersion;

const BATCH: usize = 16;

fn label(version: WireVersion) -> &'static str {
    match version {
        WireVersion::V1Json => "v1",
        WireVersion::V2Binary => "v2",
    }
}

/// Sorted-micros quantile (client-side, whole round trip).
fn quantile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Pre-generated queries and the cell `TafLoc::localize` gives each on the
/// served system; client threads cycle through them.
#[derive(Clone)]
struct Queries {
    ys: Vec<Vec<f64>>,
    cells: Vec<usize>,
}

impl Queries {
    fn len(&self) -> usize {
        self.ys.len()
    }
}

/// Ends the run with a non-zero status when any of a phase's `replies`
/// named a cell other than the expected one.
fn require_correct(phase: &str, wrong: usize, replies: usize) {
    if wrong > 0 {
        eprintln!("serve_bench: {phase}: {wrong} of {replies} replies named the wrong cell");
        std::process::exit(1);
    }
}

/// One `locate` phase: `threads` persistent connections in `version`, each
/// issuing `per_thread` round trips. Returns (req/s, p50 µs, p99 µs) and
/// exits on a wrong reply.
fn locate_phase(
    addr: std::net::SocketAddr,
    version: WireVersion,
    threads: usize,
    per_thread: usize,
    queries: &Queries,
) -> (f64, u64, u64) {
    let start = Instant::now();
    let joins: Vec<_> = (0..threads)
        .map(|t| {
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect_with(addr, version).expect("connect");
                let mut micros = Vec::with_capacity(per_thread);
                let mut wrong = 0;
                for k in 0..per_thread {
                    let q = (t + k) % queries.len();
                    let t0 = Instant::now();
                    let (cell, ..) = client.locate("bench", &queries.ys[q]).expect("locate");
                    micros.push(t0.elapsed().as_micros() as u64);
                    wrong += usize::from(cell != queries.cells[q]);
                }
                (micros, wrong)
            })
        })
        .collect();
    let mut micros: Vec<u64> = Vec::with_capacity(threads * per_thread);
    let mut wrong = 0;
    for j in joins {
        let (m, w) = j.join().expect("client thread");
        micros.extend(m);
        wrong += w;
    }
    let elapsed = start.elapsed().as_secs_f64();
    require_correct(&format!("{} locate", label(version)), wrong, micros.len());
    micros.sort_unstable();
    let total = (threads * per_thread) as f64;
    (total / elapsed, quantile_us(&micros, 0.50), quantile_us(&micros, 0.99))
}

/// One `locate-batch` phase (16 vectors per round trip). Returns fixes/s and
/// exits on a wrong fix.
fn batch_phase(
    addr: std::net::SocketAddr,
    version: WireVersion,
    threads: usize,
    per_thread: usize,
    queries: &Queries,
) -> f64 {
    let rounds = per_thread.div_ceil(BATCH);
    let start = Instant::now();
    let joins: Vec<_> = (0..threads)
        .map(|t| {
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect_with(addr, version).expect("connect");
                let mut wrong = 0;
                for k in 0..rounds {
                    let qs: Vec<usize> =
                        (0..BATCH).map(|j| (t + k * BATCH + j) % queries.len()).collect();
                    let ys: Vec<Vec<f64>> = qs.iter().map(|&q| queries.ys[q].clone()).collect();
                    let (fixes, _) = client.locate_batch("bench", ys).expect("locate-batch");
                    assert_eq!(fixes.len(), BATCH);
                    wrong +=
                        fixes.iter().zip(&qs).filter(|(f, &q)| f.cell != queries.cells[q]).count();
                }
                wrong
            })
        })
        .collect();
    let mut wrong = 0;
    for j in joins {
        wrong += j.join().expect("client thread");
    }
    let elapsed = start.elapsed().as_secs_f64();
    require_correct(&format!("{} locate-batch", label(version)), wrong, threads * rounds * BATCH);
    (threads * rounds * BATCH) as f64 / elapsed
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut args = std::env::args().skip(1).filter(|a| !a.starts_with("--"));
    let default_per_thread = if quick { 200 } else { 2000 };
    let threads: usize = args.next().map_or(4, |v| v.parse().expect("threads"));
    let per_thread: usize =
        args.next().map_or(default_per_thread, |v| v.parse().expect("requests"));
    let workers: usize = args.next().map_or(threads, |v| v.parse().expect("workers"));

    let world = World::new(WorldConfig::paper_default(), 7);
    let x0 = campaign::full_calibration(&world, 0.0, 50);
    let e0 = campaign::empty_snapshot(&world, 0.0, 50);
    let db = FingerprintDb::from_world(x0, &world).expect("world-consistent db");
    let sys = TafLoc::calibrate(TafLocConfig::default(), db, e0).expect("calibration succeeds");
    // The sharded phase clones this into eight sites on a second daemon.
    let snapshot = sys.snapshot();

    // Pre-generate one query per cell, with the cell the served system must
    // answer for it.
    let ys: Vec<Vec<f64>> =
        (0..world.num_cells()).map(|c| campaign::snapshot_at_cell(&world, 0.0, c, 50)).collect();
    let cells = ys.iter().map(|y| sys.localize(y).expect("query localizes").cell).collect();
    let queries = Queries { ys, cells };

    // The mixed phase opens many persistent connections at once; the server
    // needs a worker per connection (plus one for the admin client) so nobody
    // starves.
    let mixed_clients = (threads * 4).max(8);
    let policy = MaintenancePolicy { auto_refresh: false, ..Default::default() };
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: workers.max(mixed_clients + 1),
            default_policy: policy,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    server.add_site("bench", sys, 0.0).expect("add site");
    let handle = server.spawn();

    println!(
        "serve_bench: {} links x {} cells, {threads} client threads x {per_thread} locates",
        world.num_links(),
        world.num_cells()
    );

    let mut results: Vec<(String, Json)> = Vec::new();
    for version in [WireVersion::V1Json, WireVersion::V2Binary] {
        let tag = label(version);
        let (rps, p50, p99) = locate_phase(addr, version, threads, per_thread, &queries);
        println!(
            "{tag} locate: {:.0} requests  ->  {rps:.0} req/s, client p50 {p50} us, p99 {p99} us",
            (threads * per_thread) as f64,
        );
        results.push((format!("{tag}_locate_req_per_s"), Json::Num(perf::round_ms(rps))));
        results.push((format!("{tag}_locate_p50_us"), Json::Num(p50 as f64)));
        results.push((format!("{tag}_locate_p99_us"), Json::Num(p99 as f64)));

        let fps = batch_phase(addr, version, threads, per_thread, &queries);
        println!(
            "{tag} locate-batch({BATCH}): {fps:.0} fixes/s aggregate ({:.0} round trips/s)",
            fps / BATCH as f64,
        );
        results.push((format!("{tag}_batch_fixes_per_s"), Json::Num(perf::round_ms(fps))));
    }

    // Mixed phase: many clients, alternating versions on one server, so the
    // per-message sniffing path is exercised under real contention.
    let mixed_per_client = per_thread.div_ceil(2).max(1);
    let start = Instant::now();
    let joins: Vec<_> = (0..mixed_clients)
        .map(|t| {
            let queries = queries.clone();
            let version = if t % 2 == 0 { WireVersion::V1Json } else { WireVersion::V2Binary };
            std::thread::spawn(move || {
                let mut client = Client::connect_with(addr, version).expect("connect");
                let mut micros = Vec::with_capacity(mixed_per_client);
                let mut wrong = 0;
                for k in 0..mixed_per_client {
                    let q = (t + k) % queries.len();
                    let t0 = Instant::now();
                    let (cell, ..) = client.locate("bench", &queries.ys[q]).expect("locate");
                    micros.push(t0.elapsed().as_micros() as u64);
                    wrong += usize::from(cell != queries.cells[q]);
                }
                (version, micros, wrong)
            })
        })
        .collect();
    let mut micros: Vec<u64> = Vec::new();
    let (mut v1_reqs, mut v2_reqs, mut wrong) = (0usize, 0usize, 0usize);
    for j in joins {
        let (version, m, w) = j.join().expect("mixed client thread");
        match version {
            WireVersion::V1Json => v1_reqs += m.len(),
            WireVersion::V2Binary => v2_reqs += m.len(),
        }
        micros.extend(m);
        wrong += w;
    }
    let elapsed = start.elapsed().as_secs_f64();
    require_correct("mixed", wrong, micros.len());
    micros.sort_unstable();
    let mixed_rps = micros.len() as f64 / elapsed;
    let (mp50, mp99) = (quantile_us(&micros, 0.50), quantile_us(&micros, 0.99));
    println!(
        "mixed ({mixed_clients} clients, alternating v1/v2): {mixed_rps:.0} req/s, \
         client p50 {mp50} us, p99 {mp99} us",
    );
    results.push(("mixed_clients".into(), Json::Num(mixed_clients as f64)));
    results.push(("mixed_req_per_s".into(), Json::Num(perf::round_ms(mixed_rps))));
    results
        .push(("mixed_v1_req_per_s".into(), Json::Num(perf::round_ms(v1_reqs as f64 / elapsed))));
    results
        .push(("mixed_v2_req_per_s".into(), Json::Num(perf::round_ms(v2_reqs as f64 / elapsed))));
    results.push(("mixed_p50_us".into(), Json::Num(mp50 as f64)));
    results.push(("mixed_p99_us".into(), Json::Num(mp99 as f64)));

    let mut latency = Vec::new();
    let mut admin = Client::connect(addr).expect("connect admin");
    if let Response::Stats { report } = admin.call_ok(&Request::Stats).expect("stats") {
        for e in &report.endpoints {
            if e.endpoint == "locate" || e.endpoint == "locate-batch" {
                println!(
                    "server-side {} latency: p50 <= {} us, p95 <= {} us, p99 <= {} us, max {} us ({} reqs, {} errors)",
                    e.endpoint, e.p50_us, e.p95_us, e.p99_us, e.max_us, e.requests, e.errors
                );
                latency.push(Json::Obj(vec![
                    ("endpoint".into(), Json::Str(e.endpoint.clone())),
                    ("p50_us".into(), Json::Num(e.p50_us as f64)),
                    ("p95_us".into(), Json::Num(e.p95_us as f64)),
                    ("p99_us".into(), Json::Num(e.p99_us as f64)),
                    ("max_us".into(), Json::Num(e.max_us as f64)),
                    ("requests".into(), Json::Num(e.requests as f64)),
                    ("errors".into(), Json::Num(e.errors as f64)),
                ]));
            }
        }
    }
    admin.call_ok(&Request::Shutdown).expect("shutdown");
    handle.join();

    // Sharded many-site phase: a fresh daemon at --shards 4 owning eight
    // clones of the calibrated site, hammered by 2x threads clients that
    // spray locates across every site (so every shard sees traffic) plus a
    // trickle of ingest through the admission gate.
    let num_shards = 4usize;
    let num_sites = 8usize;
    let sharded_clients = (threads * 2).max(8);
    let ring = ShardRing::new(num_shards, DEFAULT_SHARD_SEED);
    let site_names: Vec<String> = (0..num_sites).map(|i| format!("s-{i}")).collect();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: sharded_clients + 1,
            shards: num_shards,
            default_policy: policy,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    for name in &site_names {
        let clone = TafLoc::from_snapshot(snapshot.clone()).expect("snapshot round-trips");
        server.add_site(name, clone, 0.0).expect("add site");
    }
    let handle = server.spawn();

    let sharded_per_client = per_thread.div_ceil(2).max(num_sites);
    let start = Instant::now();
    let joins: Vec<_> = (0..sharded_clients)
        .map(|t| {
            let queries = queries.clone();
            let site_names = site_names.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut per_site = vec![0u64; site_names.len()];
                let (mut overloaded, mut wrong) = (0u64, 0usize);
                for k in 0..sharded_per_client {
                    let site = (t + k) % site_names.len();
                    let name = &site_names[site];
                    let q = (t + k) % queries.len();
                    let (cell, ..) = client.locate(name, &queries.ys[q]).expect("locate");
                    wrong += usize::from(cell != queries.cells[q]);
                    per_site[site] += 1;
                    if k % 8 == 0 {
                        let batch: Vec<LinkSample> =
                            (0..16).map(|j| LinkSample::new(j % 10, k as f64, -55.0)).collect();
                        match client.try_ingest(name, None, 0.0, batch).expect("ingest") {
                            IngestOutcome::Ingested(_) => {}
                            IngestOutcome::Overloaded { .. } => overloaded += 1,
                        }
                    }
                }
                (per_site, overloaded, wrong)
            })
        })
        .collect();
    let mut per_site = vec![0u64; num_sites];
    let (mut overloaded, mut wrong) = (0u64, 0usize);
    for j in joins {
        let (p, o, w) = j.join().expect("sharded client thread");
        for (a, b) in per_site.iter_mut().zip(&p) {
            *a += b;
        }
        overloaded += o;
        wrong += w;
    }
    let elapsed = start.elapsed().as_secs_f64();
    require_correct("sharded", wrong, per_site.iter().sum::<u64>() as usize);
    let mut per_shard = vec![0u64; num_shards];
    for (i, name) in site_names.iter().enumerate() {
        per_shard[ring.shard_of(name)] += per_site[i];
    }
    let sharded_rps = per_site.iter().sum::<u64>() as f64 / elapsed;
    let per_shard_rps: Vec<f64> = per_shard.iter().map(|&n| n as f64 / elapsed).collect();
    println!(
        "sharded ({num_shards} shards, {num_sites} sites, {sharded_clients} clients): \
         {sharded_rps:.0} locate req/s; per-shard {:?} req/s; {overloaded} overloaded ingest replies",
        per_shard_rps.iter().map(|r| r.round()).collect::<Vec<_>>(),
    );
    let mut admin = Client::connect(addr).expect("connect admin");
    if let Response::Stats { report } = admin.call_ok(&Request::Stats).expect("stats") {
        for s in &report.shards {
            println!(
                "shard {}: {} sites, {} batches offered -> {} admitted / {} deferred / {} rejected",
                s.shard,
                s.sites,
                s.offered_batches,
                s.admitted_batches,
                s.deferred_batches,
                s.rejected_batches,
            );
        }
    }
    admin.call_ok(&Request::Shutdown).expect("shutdown");
    handle.join();
    results.push((
        "sharded".into(),
        Json::Obj(vec![
            ("shards".into(), Json::Num(num_shards as f64)),
            ("sites".into(), Json::Num(num_sites as f64)),
            ("clients".into(), Json::Num(sharded_clients as f64)),
            ("locate_req_per_s".into(), Json::Num(perf::round_ms(sharded_rps))),
            (
                "per_shard_req_per_s".into(),
                Json::Arr(per_shard_rps.iter().map(|&r| Json::Num(perf::round_ms(r))).collect()),
            ),
            ("overloaded_ingest_replies".into(), Json::Num(overloaded as f64)),
        ]),
    ));

    let mut report = vec![
        ("bench".into(), Json::Str("serve".into())),
        ("quick".into(), Json::Bool(quick)),
        (
            "threads_available".into(),
            Json::Num(std::thread::available_parallelism().map_or(1, |p| p.get()) as f64),
        ),
        (
            "load".into(),
            Json::Obj(vec![
                ("client_threads".into(), Json::Num(threads as f64)),
                ("requests_per_thread".into(), Json::Num(per_thread as f64)),
                ("workers".into(), Json::Num(workers.max(mixed_clients + 1) as f64)),
                ("batch".into(), Json::Num(BATCH as f64)),
            ]),
        ),
        ("peak_rss_kb".into(), perf::peak_rss_json()),
    ];
    report.extend(results);
    report.push(("server_latency".into(), Json::Arr(latency)));
    let path = perf::write_bench_json("serve", &Json::Obj(report));
    println!("wrote {}", path.display());
}
