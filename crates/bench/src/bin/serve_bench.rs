//! Serving-throughput baseline against an in-process `taflocd` over
//! loopback TCP, for what no other bench measures. loopbench's `locate`
//! workload times the single-site v1 and v2 `locate` round trip with its
//! spread; this bench loads the daemon in the shapes that workload does not.
//!
//! The setup is the paper-scale site (10 links, 96 cells) and one persistent
//! connection per client thread. Phases:
//!
//! 1. `locate-batch` (16 vectors per round trip) over v1 (newline-delimited
//!    JSON) and over v2 (length-prefixed checksummed binary), to expose the
//!    framing overhead amortized away by batching;
//! 2. a sharded many-site phase — a second daemon at `--shards 4` owning
//!    eight clones of the calibrated site, with `2 x THREADS` clients
//!    spraying locates (plus a trickle of ingest) across all sites.
//!
//! The first daemon's own per-endpoint latency histogram (its one
//! `locate-batch` row) is recorded after the first phase.
//!
//! Every reply is checked against the cell `TafLoc::localize` gives the
//! served system, computed in process before timing starts; the bench exits
//! non-zero on any mismatch, so CI's bench-smoke run fails when the daemon
//! answers a query differently from the library.
//!
//! The headline numbers land in `BENCH_serve.json` at the repo root in the
//! canonical golden-file JSON form, after `taf_bench::perf::record` has
//! gated them against the committed file: a batch throughput below the
//! committed one divided by `perf::SLOWDOWN` warns, once per protocol.
//!
//! Usage: `cargo run --release -p taf-bench --bin serve_bench`

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
use tafloc_serve::wire::WireVersion;

const BATCH: usize = 16;
/// Client threads of each batch phase; the sharded phase opens twice as many
/// connections.
const THREADS: usize = 4;
/// Fixes each batch-phase client asks for; each sharded client sends half as
/// many locates.
const PER_THREAD: usize = 2000;

fn label(version: WireVersion) -> &'static str {
    match version {
        WireVersion::V1Json => "v1",
        WireVersion::V2Binary => "v2",
    }
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

/// One `locate-batch` phase (16 vectors per round trip) on `THREADS`
/// connections. Returns fixes/s and exits on a wrong fix.
fn batch_phase(addr: std::net::SocketAddr, version: WireVersion, queries: &Queries) -> f64 {
    let rounds = PER_THREAD.div_ceil(BATCH);
    let start = Instant::now();
    let joins: Vec<_> = (0..THREADS)
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
    let fixes = THREADS * rounds * BATCH;
    require_correct(&format!("{} locate-batch", label(version)), wrong, fixes);
    fixes as f64 / elapsed
}

fn main() {
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

    // Each batch phase holds `THREADS` persistent connections at once; the
    // server needs a worker per connection (plus one for the admin client) so
    // nobody starves.
    let workers = THREADS + 1;
    let policy = MaintenancePolicy { auto_refresh: false, ..Default::default() };
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig { workers, default_policy: policy, ..Default::default() },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    server.add_site("bench", sys, 0.0).expect("add site");
    let handle = server.spawn();

    println!(
        "serve_bench: {} links x {} cells, {THREADS} client threads x {PER_THREAD} fixes",
        world.num_links(),
        world.num_cells()
    );

    let mut results: Vec<(String, Json)> = Vec::new();
    for version in [WireVersion::V1Json, WireVersion::V2Binary] {
        let tag = label(version);
        let fps = batch_phase(addr, version, &queries);
        println!(
            "{tag} locate-batch({BATCH}): {fps:.0} fixes/s aggregate ({:.0} round trips/s)",
            fps / BATCH as f64,
        );
        results.push((format!("{tag}_batch_fixes_per_s"), Json::Num(perf::round_ms(fps))));
    }

    let mut latency = Vec::new();
    let mut admin = Client::connect(addr).expect("connect admin");
    if let Response::Stats { report } = admin.call_ok(&Request::Stats).expect("stats") {
        for e in &report.endpoints {
            if e.endpoint == "locate-batch" {
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
    // clones of the calibrated site, hammered by 2x THREADS clients that
    // spray locates across every site (so every shard sees traffic) plus a
    // trickle of ingest through the admission gate.
    let num_shards = 4usize;
    let num_sites = 8usize;
    let sharded_clients = THREADS * 2;
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

    let sharded_per_client = PER_THREAD / 2;
    let start = Instant::now();
    let joins: Vec<_> = (0..sharded_clients)
        .map(|t| {
            let queries = queries.clone();
            let site_names = site_names.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let (mut overloaded, mut wrong) = (0u64, 0usize);
                for k in 0..sharded_per_client {
                    let name = &site_names[(t + k) % site_names.len()];
                    let q = (t + k) % queries.len();
                    let (cell, ..) = client.locate(name, &queries.ys[q]).expect("locate");
                    wrong += usize::from(cell != queries.cells[q]);
                    if k % 8 == 0 {
                        let batch: Vec<LinkSample> =
                            (0..16).map(|j| LinkSample::new(j % 10, k as f64, -55.0)).collect();
                        match client.try_ingest(name, None, 0.0, batch).expect("ingest") {
                            IngestOutcome::Ingested(_) => {}
                            IngestOutcome::Overloaded { .. } => overloaded += 1,
                        }
                    }
                }
                (overloaded, wrong)
            })
        })
        .collect();
    let (mut overloaded, mut wrong) = (0u64, 0usize);
    for j in joins {
        let (o, w) = j.join().expect("sharded client thread");
        overloaded += o;
        wrong += w;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let sharded_reqs = sharded_clients * sharded_per_client;
    require_correct("sharded", wrong, sharded_reqs);
    let sharded_rps = sharded_reqs as f64 / elapsed;
    println!(
        "sharded ({num_shards} shards, {num_sites} sites, {sharded_clients} clients): \
         {sharded_rps:.0} locate req/s; {overloaded} overloaded ingest replies",
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
            ("overloaded_ingest_replies".into(), Json::Num(overloaded as f64)),
        ]),
    ));

    let mut report = vec![
        ("bench".into(), Json::Str("serve".into())),
        (
            "threads_available".into(),
            Json::Num(std::thread::available_parallelism().map_or(1, |p| p.get()) as f64),
        ),
        (
            "load".into(),
            Json::Obj(vec![
                ("client_threads".into(), Json::Num(THREADS as f64)),
                ("requests_per_thread".into(), Json::Num(PER_THREAD as f64)),
                ("workers".into(), Json::Num(workers as f64)),
                ("batch".into(), Json::Num(BATCH as f64)),
            ]),
        ),
        ("peak_rss_kb".into(), perf::peak_rss_json()),
    ];
    report.extend(results);
    report.push(("server_latency".into(), Json::Arr(latency)));
    perf::record("serve", &Json::Obj(report));
}
