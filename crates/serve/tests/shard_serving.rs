//! Sharded serving battery: a real `taflocd` run with `--shards N` owning
//! eight sites, hammered by concurrent ingest + locate clients, then
//! SIGKILLed and restarted on the same `--data-dir`.
//!
//! What must hold:
//!
//! * every site's `shard` field in `stats` matches a locally computed
//!   [`shard_of`] — the assignment is a pure function of `(name, shards)`,
//!   so a client can predict placement;
//! * the admission gate conserves batches (`offered == admitted + deferred
//!   + rejected`) under concurrent wire traffic;
//! * after kill -9 + restart with the same flags, all sites come back on
//!   the *same* shards with bit-identical locate fixes.
//!
//! Runs at `--shards 4` (the interesting case) and `--shards 1` (the
//! degenerate ring must behave exactly like the unsharded daemon).

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use taf_rfsim::{campaign, World, WorldConfig};
use tafloc_core::db::FingerprintDb;
use tafloc_core::system::{TafLoc, TafLocConfig};
use tafloc_ingest::LinkSample;
use tafloc_serve::client::{Client, IngestOutcome, RetryPolicy};
use tafloc_serve::maintenance::MaintenancePolicy;
use tafloc_serve::protocol::{Request, Response, StatsReport};
use tafloc_serve::shard::shard_of;

const SAMPLES: usize = 20;
const NUM_SITES: usize = 8;
const QUERIES_PER_SITE: usize = 4;
const INGEST_ROUNDS: usize = 12;
const BATCH: usize = 16;

fn site_name(i: usize) -> String {
    format!("site-{i}")
}

fn calibrated(seed: u64) -> (World, TafLoc) {
    let world = World::new(WorldConfig::small_test(), seed);
    let x0 = campaign::full_calibration(&world, 0.0, SAMPLES);
    let e0 = campaign::empty_snapshot(&world, 0.0, SAMPLES);
    let db = FingerprintDb::from_world(x0, &world).unwrap();
    let config = TafLocConfig { ref_count: 6, ..Default::default() };
    let sys = TafLoc::calibrate(config, db, e0).unwrap();
    (world, sys)
}

fn spawn_daemon(data_dir: &Path, port_file: &Path, shards: usize) -> Child {
    let _ = std::fs::remove_file(port_file);
    Command::new(env!("CARGO_BIN_EXE_taflocd"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "4",
            "--shards",
            &shards.to_string(),
            "--data-dir",
            data_dir.to_str().unwrap(),
            "--port-file",
            port_file.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn taflocd")
}

fn await_port(port_file: &Path) -> u16 {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(port_file) {
            if let Ok(port) = text.trim().parse() {
                return port;
            }
        }
        assert!(Instant::now() < deadline, "taflocd never wrote {}", port_file.display());
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn temp_base(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tafloc-shard-{tag}-{}", std::process::id()))
}

fn stats(client: &mut Client) -> StatsReport {
    match client.call_ok(&Request::Stats).unwrap() {
        Response::Stats { report } => report,
        other => panic!("unexpected reply to stats: {other:?}"),
    }
}

/// Asserts the per-site `shard` fields match a locally computed placement
/// and returns the `site -> shard` map in site order.
fn check_placement(report: &StatsReport, shards: usize) -> Vec<usize> {
    assert_eq!(report.shards.len(), shards, "one stats record per shard");
    assert_eq!(report.sites.len(), NUM_SITES, "all sites present: {report:?}");
    let mut placement = Vec::with_capacity(NUM_SITES);
    for i in 0..NUM_SITES {
        let name = site_name(i);
        let st = report.sites.iter().find(|s| s.site == name).unwrap();
        assert_eq!(
            st.shard,
            shard_of(&name, shards),
            "{name} must sit where the client-side placement predicts"
        );
        placement.push(st.shard);
    }
    let owned: usize = report.shards.iter().map(|s| s.sites).sum();
    assert_eq!(owned, NUM_SITES, "every site owned by exactly one shard");
    placement
}

fn sharded_battery(shards: usize, tag: &str) {
    let base = temp_base(tag);
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let data_dir = base.join("data");
    let port_file = base.join("port");

    let mut child = spawn_daemon(&data_dir, &port_file, shards);
    let addr = format!("127.0.0.1:{}", await_port(&port_file));
    let mut client = Client::connect(&addr).unwrap();

    // Eight sites, maintenance disabled so generations stay where this test
    // puts them (generation 0, persisted at add-site time).
    let manual = MaintenancePolicy { auto_refresh: false, manual_tick: true, ..Default::default() };
    let mut queries: Vec<Vec<Vec<f64>>> = Vec::new();
    for i in 0..NUM_SITES {
        let (world, sys) = calibrated(80 + i as u64);
        match client
            .call_ok(&Request::AddSite {
                site: site_name(i),
                snapshot: Box::new(sys.snapshot()),
                day: 0.0,
                policy: Some(manual),
            })
            .unwrap()
        {
            Response::SiteAdded { .. } => {}
            other => panic!("unexpected reply to add-site: {other:?}"),
        }
        let cells = world.num_cells().min(QUERIES_PER_SITE);
        queries.push(
            (0..cells).map(|c| campaign::snapshot_at_cell(&world, 0.0, c, SAMPLES)).collect(),
        );
    }

    // Concurrent phase: one ingest+locate client per site, all at once. The
    // gate verdicts must conserve batches and nothing may error out.
    let workers: Vec<_> = (0..NUM_SITES)
        .map(|i| {
            let addr = addr.clone();
            let qs = queries[i].clone();
            std::thread::spawn(move || {
                let name = site_name(i);
                let mut c = Client::connect(&addr).unwrap();
                let mut admitted = 0usize;
                for round in 0..INGEST_ROUNDS {
                    let batch: Vec<LinkSample> = (0..BATCH)
                        .map(|k| LinkSample::new(0, (round * BATCH + k) as f64 * 0.05, -52.0))
                        .collect();
                    match c.try_ingest(&name, None, 0.0, batch).unwrap() {
                        IngestOutcome::Ingested(_) => admitted += 1,
                        // A pushback is a legal verdict, not a failure.
                        IngestOutcome::Overloaded { .. } => {}
                    }
                    let y = &qs[round % qs.len()];
                    let (_, _, _, version) = c.locate(&name, y).unwrap();
                    assert_eq!(version, 0, "{name} never refreshed");
                }
                admitted
            })
        })
        .collect();
    let admitted_by_clients: usize = workers.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(admitted_by_clients > 0, "quota is roomy; some batches must land");

    let report = stats(&mut client);
    let placement_before = check_placement(&report, shards);
    let (mut offered, mut admitted, mut deferred, mut rejected) = (0u64, 0u64, 0u64, 0u64);
    for s in &report.shards {
        offered += s.offered_batches;
        admitted += s.admitted_batches;
        deferred += s.deferred_batches;
        rejected += s.rejected_batches;
        assert_eq!(s.queue_depth_samples, 0, "shard {} idle after the storm", s.shard);
    }
    assert_eq!(offered, (NUM_SITES * INGEST_ROUNDS) as u64, "every wire batch hit the gate");
    assert_eq!(offered, admitted + deferred + rejected, "gate verdicts conserve batches");
    assert_eq!(admitted, admitted_by_clients as u64, "client and server admission counts agree");

    // Ground truth, then pull the plug.
    let fixes: Vec<Vec<(usize, f64, f64)>> = (0..NUM_SITES)
        .map(|i| {
            let name = site_name(i);
            queries[i]
                .iter()
                .map(|y| {
                    let (cell, x, yy, _) = client.locate(&name, y).unwrap();
                    (cell, x, yy)
                })
                .collect()
        })
        .collect();
    child.kill().unwrap(); // SIGKILL: no destructors, no flush
    child.wait().unwrap();
    drop(client);

    // Same flags, same data dir: identical placement, bit-identical fixes.
    let mut child = spawn_daemon(&data_dir, &port_file, shards);
    let addr = format!("127.0.0.1:{}", await_port(&port_file));
    let mut client = Client::connect(&addr).unwrap();
    let report = stats(&mut client);
    let placement_after = check_placement(&report, shards);
    assert_eq!(placement_before, placement_after, "restart re-shards identically");

    let retry = RetryPolicy::default();
    for i in 0..NUM_SITES {
        let name = site_name(i);
        for (y, want) in queries[i].iter().zip(&fixes[i]) {
            let (cell, x, yy, version) = client.locate_with_retry(&name, y, &retry).unwrap();
            assert_eq!(version, 0, "{name} recovered at its committed generation");
            assert_eq!((cell, x, yy), *want, "{name} serves bit-identical fixes after restart");
        }
    }

    client.call(&Request::Shutdown).ok();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn four_shards_serve_ingest_crash_and_reshard_identically() {
    sharded_battery(4, "four");
}

#[test]
fn single_shard_ring_degenerates_to_the_unsharded_daemon() {
    sharded_battery(1, "one");
}
