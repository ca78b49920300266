//! Loopback integration tests: a real `taflocd` server on an ephemeral port,
//! driven by real TCP clients against a simulated site.
//!
//! The headline test proves the snapshot swap is race-free under load:
//! concurrent `locate` streams, two per wire protocol, keep running while a
//! `refresh` reconstructs and swaps the database, and every response must
//! match the deterministic single-threaded library path for one of the two
//! snapshot versions.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use taf_rfsim::{campaign, stream, StreamConfig, World, WorldConfig};
use tafloc_core::db::FingerprintDb;
use tafloc_core::monitor::MonitorConfig;
use tafloc_core::system::{TafLoc, TafLocConfig};
use tafloc_serve::client::Client;
use tafloc_serve::maintenance::MaintenancePolicy;
use tafloc_serve::protocol::{Request, Response};
use tafloc_serve::server::{Server, ServerConfig};
use tafloc_serve::wire::WireVersion;

const SAMPLES: usize = 20;
const UPDATE_DAY: f64 = 45.0;

/// A calibrated small-test site; each test pins its own world seed (11–16
/// below). Wall-clock appears in this file only as bounded *waits* (deadline
/// polls, a concurrency-overlap sleep) — every assertion is gated on the
/// snapshot version actually observed, never on timing.
fn calibrated_site(seed: u64) -> (World, TafLoc) {
    let world = World::new(WorldConfig::small_test(), seed);
    let x0 = campaign::full_calibration(&world, 0.0, SAMPLES);
    let e0 = campaign::empty_snapshot(&world, 0.0, SAMPLES);
    let db = FingerprintDb::from_world(x0, &world).unwrap();
    let config = TafLocConfig { ref_count: 6, ..Default::default() };
    let sys = TafLoc::calibrate(config, db, e0).unwrap();
    (world, sys)
}

fn manual_policy() -> MaintenancePolicy {
    // Monitor runs, but refreshes only on explicit request — the test
    // controls the swap instant itself.
    MaintenancePolicy { auto_refresh: false, ..Default::default() }
}

#[test]
fn concurrent_locates_survive_a_refresh_and_match_the_library_path() {
    let (world, sys) = calibrated_site(11);
    let num_cells = world.num_cells();

    // Deterministic library-path expectations for both snapshot versions.
    let queries: Vec<Vec<f64>> = (0..num_cells)
        .map(|c| campaign::snapshot_at_cell(&world, UPDATE_DAY, c, SAMPLES))
        .collect();
    let stale_expected: Vec<usize> =
        queries.iter().map(|y| sys.localize(y).unwrap().cell).collect();
    let fresh_refs = campaign::measure_columns(&world, UPDATE_DAY, sys.reference_cells(), SAMPLES);
    let fresh_empty = campaign::empty_snapshot(&world, UPDATE_DAY, SAMPLES);
    let mut updated = sys.clone();
    updated.update(&fresh_refs, &fresh_empty).unwrap();
    let fresh_expected: Vec<usize> =
        queries.iter().map(|y| updated.localize(y).unwrap().cell).collect();

    // More workers than persistent connections, so nobody starves.
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig { workers: 8, default_policy: manual_policy(), ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr();
    server.add_site("lab", sys, 0.0).unwrap();
    let handle = server.spawn();

    const CLIENTS: usize = 4;
    const ROUNDS: usize = 3;
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let mismatches = Arc::new(AtomicUsize::new(0));
    let queries = Arc::new(queries);
    let stale_expected = Arc::new(stale_expected);
    let fresh_expected = Arc::new(fresh_expected);

    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            let mismatches = Arc::clone(&mismatches);
            let queries = Arc::clone(&queries);
            let stale_expected = Arc::clone(&stale_expected);
            let fresh_expected = Arc::clone(&fresh_expected);
            // Half the clients speak v1, half v2: the server sniffs each
            // message's framing while the refresh swaps the snapshot.
            let version = if i % 2 == 0 { WireVersion::V1Json } else { WireVersion::V2Binary };
            std::thread::spawn(move || {
                let mut client = Client::connect_with(addr, version).unwrap();
                barrier.wait();
                for _ in 0..ROUNDS {
                    for (c, y) in queries.iter().enumerate() {
                        let (cell, _, _, version) = client.locate("lab", y).unwrap();
                        let expected =
                            if version == 0 { stale_expected[c] } else { fresh_expected[c] };
                        if cell != expected {
                            mismatches.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();

    // While the clients hammer `locate`, ingest references and refresh.
    let mut admin = Client::connect(addr).unwrap();
    barrier.wait();
    std::thread::sleep(Duration::from_millis(20));
    match admin
        .call_ok(&Request::MeasureRefs {
            site: "lab".into(),
            day: UPDATE_DAY,
            columns: fresh_refs,
            empty: fresh_empty,
        })
        .unwrap()
    {
        Response::RefsAccepted { .. } => {}
        other => panic!("unexpected reply to measure-refs: {other:?}"),
    }
    match admin.call_ok(&Request::Refresh { site: "lab".into() }).unwrap() {
        Response::Refreshed { version, converged, .. } => {
            assert_eq!(version, 1);
            assert!(converged);
        }
        other => panic!("unexpected reply to refresh: {other:?}"),
    }

    for c in clients {
        c.join().unwrap();
    }
    assert_eq!(
        mismatches.load(Ordering::Relaxed),
        0,
        "every concurrent locate must match the library path for its snapshot version"
    );

    // After the swap, the served answers equal the updated library system's.
    for (c, y) in queries.iter().enumerate() {
        let (cell, _, _, version) = admin.locate("lab", y).unwrap();
        assert_eq!(version, 1);
        assert_eq!(cell, fresh_expected[c], "post-refresh mismatch at cell {c}");
    }

    // Stats must account for every request exactly.
    let expected_locates = (CLIENTS * ROUNDS * num_cells + num_cells) as u64;
    match admin.call_ok(&Request::Stats).unwrap() {
        Response::Stats { report } => {
            let locate = report
                .endpoints
                .iter()
                .find(|e| e.endpoint == "locate")
                .expect("locate endpoint must appear in stats");
            assert_eq!(locate.requests, expected_locates);
            assert_eq!(locate.errors, 0);
            let refresh = report.endpoints.iter().find(|e| e.endpoint == "refresh").unwrap();
            assert_eq!(refresh.requests, 1);
            let site = report.sites.iter().find(|s| s.site == "lab").unwrap();
            assert_eq!(site.version, 1);
            assert!(!site.pending_refs, "refresh must consume the pending refs");
        }
        other => panic!("unexpected reply to stats: {other:?}"),
    }

    match admin.call_ok(&Request::Shutdown).unwrap() {
        Response::ShuttingDown => {}
        other => panic!("unexpected reply to shutdown: {other:?}"),
    }
    handle.join();
}

#[test]
fn maintenance_loop_auto_refreshes_after_breach_streak() {
    let (world, sys) = calibrated_site(12);
    let policy = MaintenancePolicy {
        interval_ms: 25,
        auto_refresh: true,
        breach_streak: 2,
        monitor_cells: 2,
        monitor: MonitorConfig { error_threshold_db: 0.3, min_interval_days: 1.0 },
        ..Default::default()
    };
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig { workers: 2, default_policy: policy, ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr();
    server.add_site("lab", sys.clone(), 0.0).unwrap();
    let handle = server.spawn();

    let mut client = Client::connect(addr).unwrap();
    let refs = campaign::measure_columns(&world, 60.0, sys.reference_cells(), SAMPLES);
    let empty = campaign::empty_snapshot(&world, 60.0, SAMPLES);
    client
        .call_ok(&Request::MeasureRefs { site: "lab".into(), day: 60.0, columns: refs, empty })
        .unwrap();

    // The maintenance thread needs `breach_streak` ticks before it may act;
    // poll stats until the auto-refresh lands.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut refreshed = false;
    while Instant::now() < deadline {
        if let Response::Stats { report } = client.call_ok(&Request::Stats).unwrap() {
            let site = report.sites.iter().find(|s| s.site == "lab").unwrap();
            if site.version >= 1 {
                assert!(site.auto_refreshes >= 1, "version bumped by the maintenance loop");
                assert!(!site.pending_refs);
                assert!(site.maintenance_checks >= 2, "streak hysteresis needs >= 2 checks");
                refreshed = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(refreshed, "maintenance loop never auto-refreshed a badly drifted site");

    client.call_ok(&Request::Shutdown).unwrap();
    handle.join();
}

#[test]
fn protocol_errors_leave_the_connection_usable_and_are_counted() {
    let server =
        Server::bind("127.0.0.1:0", ServerConfig { workers: 2, ..Default::default() }).unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut client = Client::connect(addr).unwrap();
    // Unknown site → error response, connection still fine.
    match client.call(&Request::Locate { site: "nowhere".into(), y: vec![-50.0] }).unwrap() {
        Response::Error { message } => assert!(message.contains("nowhere")),
        other => panic!("expected an error, got {other:?}"),
    }
    client.ping().unwrap();
    // Refresh without pending refs on an unknown site → error too.
    assert!(client.call_ok(&Request::Refresh { site: "nowhere".into() }).is_err());

    match client.call_ok(&Request::Stats).unwrap() {
        Response::Stats { report } => {
            let locate = report.endpoints.iter().find(|e| e.endpoint == "locate").unwrap();
            assert_eq!(locate.requests, 1);
            assert_eq!(locate.errors, 1);
            // Each request is counted under its own kind, listed in
            // `Request`'s order; this `stats` is counted after its reply.
            let names: Vec<&str> = report.endpoints.iter().map(|e| e.endpoint.as_str()).collect();
            assert_eq!(names, ["locate", "refresh", "ping"]);
        }
        other => panic!("unexpected reply to stats: {other:?}"),
    }

    client.call_ok(&Request::Shutdown).unwrap();
    handle.join();
}

#[test]
fn streaming_ingest_feeds_locate_stream_and_locate_batch() {
    let (world, sys) = calibrated_site(15);
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig { workers: 2, default_policy: manual_policy(), ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr();
    server.add_site("lab", sys.clone(), 0.0).unwrap();
    let handle = server.spawn();
    let mut client = Client::connect(addr).unwrap();

    // locate-stream before any sample is a clean error, not a panic.
    assert!(client.locate_stream("lab").is_err());

    // Stream raw samples of a target standing at a known cell, in a few
    // batches like a radio gateway would deliver them.
    let target_cell = 7;
    let cfg = StreamConfig { duration_s: 30.0, ..Default::default() };
    let samples = stream::stream_at_cell(&world, 0.0, target_cell, &cfg, 21);
    let mut accepted = 0;
    for chunk in samples.chunks(64) {
        let report = client.ingest("lab", chunk.to_vec()).unwrap();
        assert_eq!(report.total() as usize, chunk.len());
        accepted += report.accepted;
    }
    assert!(accepted > 0, "samples must land in the live window");

    // The assembled live vector localizes to the same cell as the library
    // path fed with the averaged campaign snapshot.
    let y_avg = campaign::snapshot_at_cell(&world, 0.0, target_cell, SAMPLES);
    let expected = sys.localize(&y_avg).unwrap().cell;
    let (cell, _, _, version) = client.locate_stream("lab").unwrap();
    assert_eq!(version, 0);
    assert_eq!(cell, expected, "stream-assembled fix must match the averaged path");

    // The full reply carries the quality flags.
    match client.call_ok(&Request::LocateStream { site: "lab".into() }).unwrap() {
        Response::StreamLocated {
            missing_links, stale_links, window_samples, stream_t_s, ..
        } => {
            assert!(missing_links.is_empty(), "every link streamed: {missing_links:?}");
            assert!(stale_links.is_empty());
            assert!(window_samples > 0);
            assert!(stream_t_s > 0.0);
        }
        other => panic!("unexpected reply to locate-stream: {other:?}"),
    }

    // locate-batch answers every vector from one snapshot version.
    let ys: Vec<Vec<f64>> =
        (0..4).map(|c| campaign::snapshot_at_cell(&world, 0.0, c, SAMPLES)).collect();
    let single: Vec<usize> = ys.iter().map(|y| sys.localize(y).unwrap().cell).collect();
    let (fixes, version) = client.locate_batch("lab", ys).unwrap();
    assert_eq!(version, 0);
    let batch: Vec<usize> = fixes.iter().map(|f| f.cell).collect();
    assert_eq!(batch, single, "batch fixes must match one-at-a-time locate");

    // Bad input anywhere in the batch fails the whole batch.
    assert!(client.locate_batch("lab", vec![vec![-50.0; 2]]).is_err());

    // Stats surface the ingest counters and endpoints.
    match client.call_ok(&Request::Stats).unwrap() {
        Response::Stats { report } => {
            assert!(report.endpoints.iter().any(|e| e.endpoint == "ingest"));
            assert!(report.endpoints.iter().any(|e| e.endpoint == "locate-stream"));
            assert!(report.endpoints.iter().any(|e| e.endpoint == "locate-batch"));
            let site = report.sites.iter().find(|s| s.site == "lab").unwrap();
            assert_eq!(site.ingest.accepted, accepted);
            assert!(site.stream_clock_s > 0.0);
            assert_eq!(site.active_ref_captures, 0);
        }
        other => panic!("unexpected reply to stats: {other:?}"),
    }

    client.call_ok(&Request::Shutdown).unwrap();
    handle.join();
}

#[test]
fn streamed_reference_survey_promotes_to_pending_refs_and_auto_refreshes() {
    let (world, sys) = calibrated_site(16);
    let policy = MaintenancePolicy {
        interval_ms: 25,
        auto_refresh: true,
        breach_streak: 2,
        monitor_cells: 2,
        monitor: MonitorConfig { error_threshold_db: 0.3, min_interval_days: 1.0 },
        ..Default::default()
    };
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig { workers: 2, default_policy: policy, ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr();
    server.add_site("lab", sys.clone(), 0.0).unwrap();
    let handle = server.spawn();
    let mut client = Client::connect(addr).unwrap();

    // Survey every reference cell at day 60 as raw streams — no averaged
    // measure-refs call anywhere.
    let cfg = StreamConfig { duration_s: 30.0, ..Default::default() };
    let ref_cells: Vec<usize> = sys.reference_cells().to_vec();
    for (k, &cell) in ref_cells.iter().enumerate() {
        let raw = stream::stream_at_cell(&world, 60.0, cell, &cfg, 100 + k as u64);
        let report = client.ingest_for("lab", Some(k), 60.0, raw).unwrap();
        assert!(report.accepted > 0, "ref capture {k} must accept samples");
    }

    // The maintenance loop promotes the captures to pending refs, the drift
    // monitor flags day-60 drift, and the auto-refresh lands.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut refreshed = false;
    while Instant::now() < deadline {
        if let Response::Stats { report } = client.call_ok(&Request::Stats).unwrap() {
            let site = report.sites.iter().find(|s| s.site == "lab").unwrap();
            if site.version >= 1 {
                assert!(site.auto_refreshes >= 1);
                assert_eq!(site.active_ref_captures, 0, "promotion must clear captures");
                refreshed = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(refreshed, "streamed reference survey never triggered an auto-refresh");

    client.call_ok(&Request::Shutdown).unwrap();
    handle.join();
}

#[test]
fn multi_site_round_trip() {
    let (_, sys) = calibrated_site(13);
    let (_, sys_b) = calibrated_site(14);
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig { workers: 2, default_policy: manual_policy(), ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr();
    server.add_site("east", sys, 0.0).unwrap();
    let handle = server.spawn();

    let mut client = Client::connect(addr).unwrap();

    // Second site arrives over the wire.
    match client
        .call_ok(&Request::AddSite {
            site: "west".into(),
            snapshot: Box::new(sys_b.snapshot()),
            day: 0.0,
            policy: None,
        })
        .unwrap()
    {
        Response::SiteAdded { site, links, cells } => {
            assert_eq!(site, "west");
            assert_eq!(links, 6);
            assert_eq!(cells, 30);
        }
        other => panic!("unexpected reply to add-site: {other:?}"),
    }
    match client.call_ok(&Request::ListSites).unwrap() {
        Response::Sites { sites } => {
            let names: Vec<_> = sites.iter().map(|s| s.site.as_str()).collect();
            assert_eq!(names, ["east", "west"]);
        }
        other => panic!("unexpected reply to list-sites: {other:?}"),
    }

    // remove-site makes the name unknown again.
    client.call_ok(&Request::RemoveSite { site: "west".into() }).unwrap();
    assert!(client.call_ok(&Request::Locate { site: "west".into(), y: vec![-50.0; 6] }).is_err());

    client.call_ok(&Request::Shutdown).unwrap();
    handle.join();
}
