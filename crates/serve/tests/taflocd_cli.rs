//! `taflocd`'s command line: a `system.json` loaded through `--site` /
//! `--system`, with its drift day and planner set by flags, serves the line
//! protocol; flags it does not take are refused before anything binds.
//!
//! This drives the actual daemon binary (`CARGO_BIN_EXE_taflocd`).

use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};
use taf_rfsim::{campaign, World, WorldConfig};
use tafloc_core::db::FingerprintDb;
use tafloc_core::system::{TafLoc, TafLocConfig};
use tafloc_serve::client::Client;
use tafloc_serve::protocol::{Request, Response, SiteStats};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("taflocd-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes a calibrated small-world system as `tafloc calibrate` would.
fn write_system(path: &Path, seed: u64) -> (World, TafLoc) {
    let world = World::new(WorldConfig::small_test(), seed);
    let x0 = campaign::full_calibration(&world, 0.0, 20);
    let e0 = campaign::empty_snapshot(&world, 0.0, 20);
    let db = FingerprintDb::from_world(x0, &world).unwrap();
    let config = TafLocConfig { ref_count: 6, ..Default::default() };
    let sys = TafLoc::calibrate(config, db, e0).unwrap();
    std::fs::write(path, taf_wire::to_json(&sys.snapshot())).unwrap();
    (world, sys)
}

fn await_port(port_file: &Path) -> u16 {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(Ok(port)) = std::fs::read_to_string(port_file)
            .ok()
            .and_then(|t| t.strip_suffix('\n').map(str::parse))
        {
            return port;
        }
        assert!(Instant::now() < deadline, "taflocd never wrote {}", port_file.display());
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn taflocd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_taflocd")).args(args).output().expect("run taflocd")
}

/// A running daemon, killed if a failed assertion leaves it running.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_taflocd(args: &[&str]) -> Daemon {
    Daemon(
        Command::new(env!("CARGO_BIN_EXE_taflocd"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn taflocd"),
    )
}

fn site_stats(client: &mut Client) -> SiteStats {
    match client.call_ok(&Request::Stats).unwrap() {
        Response::Stats { report } => report.sites[0].clone(),
        other => panic!("unexpected reply to stats: {other:?}"),
    }
}

#[test]
fn a_system_json_loaded_from_the_command_line_serves_the_line_protocol() {
    let dir = TempDir::new("serve");
    let system = dir.0.join("system.json");
    let port_file = dir.0.join("port");
    write_system(&system, 21);

    // 18 of the 36 link-measurements a full survey of 6 references costs.
    let mut daemon = spawn_taflocd(&[
        "--addr",
        "127.0.0.1:0",
        "--port-file",
        port_file.to_str().unwrap(),
        "--site",
        "lab",
        "--system",
        system.to_str().unwrap(),
        "--day",
        "30",
        "--budget",
        "18",
        "--policy",
        "fixed-schedule",
    ]);
    let addr = format!("127.0.0.1:{}", await_port(&port_file));

    let mut client = Client::connect(addr.as_str()).unwrap();
    client.ping().unwrap();
    match client.call_ok(&Request::ListSites).unwrap() {
        Response::Sites { sites } => {
            assert_eq!(sites.len(), 1);
            assert_eq!((sites[0].site.as_str(), sites[0].links), ("lab", 6));
        }
        other => panic!("unexpected reply to list-sites: {other:?}"),
    }
    let (cell, _, _, version) = client.locate("lab", &[-50.0; 6]).unwrap();
    assert!(cell < 30);
    assert_eq!(version, 0);
    let stats = site_stats(&mut client);
    assert_eq!(stats.refreshed_day, 30.0, "--day sets the drift clock");
    assert_eq!(stats.plan_policy.as_deref(), Some("fixed-schedule"));

    client.call_ok(&Request::Shutdown).unwrap();
    let status = daemon.0.wait().unwrap();
    let mut stderr = String::new();
    daemon.0.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    assert!(status.success(), "{stderr}");
    assert!(stderr.contains("shut down cleanly"), "{stderr}");
}

#[test]
fn policy_without_budget_a_non_finite_day_and_the_dropped_port_flag_are_refused() {
    let out = taflocd(&["--addr", "127.0.0.1:0", "--policy", "fixed-schedule"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--policy requires --budget"), "{stderr}");

    let out = taflocd(&["--addr", "127.0.0.1:0", "--day", "NaN"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--day expects a finite number"), "{stderr}");

    // `--port P` is `--addr 127.0.0.1:P` now.
    let out = taflocd(&["--port", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag \"--port\""), "{stderr}");
}

/// A `--site` naming a site that `--data-dir` already recovered is refused,
/// and the refusal leaves the recovered site's snapshot and journal as they
/// were: a later start still recovers its system and its acknowledged,
/// never-refreshed survey.
#[test]
fn a_site_flag_for_a_recovered_name_leaves_the_recovered_site_alone() {
    let dir = TempDir::new("dup");
    let (data, port_file) = (dir.0.join("data"), dir.0.join("port"));
    let (first, second) = (dir.0.join("first.json"), dir.0.join("second.json"));
    let (world, sys) = write_system(&first, 21);
    write_system(&second, 22);
    let data_dir = data.to_str().unwrap();
    let port = port_file.to_str().unwrap();
    let flags = ["--addr", "127.0.0.1:0", "--port-file", port, "--data-dir", data_dir];

    let site = ["--site", "lab", "--system", first.to_str().unwrap(), "--day", "10"];
    let daemon = spawn_taflocd(&[&flags[..], &site[..], &["--journal-flush-ms", "0"]].concat());
    let mut client = Client::connect(format!("127.0.0.1:{}", await_port(&port_file))).unwrap();
    let columns = campaign::measure_columns(&world, 40.0, sys.reference_cells(), 20);
    let empty = campaign::empty_snapshot(&world, 40.0, 20);
    client
        .call_ok(&Request::MeasureRefs { site: "lab".into(), day: 40.0, columns, empty })
        .unwrap();
    assert!(site_stats(&mut client).pending_refs);
    drop(daemon); // kill -9: acknowledged, journaled, never refreshed

    let out = taflocd(
        &[&flags[..], &["--site", "lab", "--system", second.to_str().unwrap(), "--day", "20"]]
            .concat(),
    );
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("already registered"), "{stderr}");

    let _ = std::fs::remove_file(&port_file);
    let mut daemon = spawn_taflocd(&flags);
    let mut client = Client::connect(format!("127.0.0.1:{}", await_port(&port_file))).unwrap();
    let stats = site_stats(&mut client);
    assert_eq!(stats.refreshed_day, 10.0, "the first system is still the one recovered");
    assert!(stats.pending_refs, "the journaled survey survived the refused --site");
    client.call_ok(&Request::Shutdown).unwrap();
    assert!(daemon.0.wait().unwrap().success());
}

/// The daemon's CPU time so far, user plus system, in seconds, from
/// `/proc/<pid>/stat` (fields 14 and 15, in clock ticks of 1/100 s).
#[cfg(target_os = "linux")]
fn cpu_seconds(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap();
    // The fields after the parenthesised command name start at field 3.
    let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 2..].split(' ').collect();
    let ticks: u64 = fields[11..13].iter().map(|f| f.parse::<u64>().unwrap()).sum();
    ticks as f64 / 100.0
}

/// Out of file descriptors, a failed `accept` is retried after a pause, not
/// at once: the accept thread must not spin while connections wait in the
/// backlog, and the daemon serves again once clients close.
#[cfg(target_os = "linux")]
#[test]
fn an_exhausted_descriptor_table_neither_spins_nor_stops_the_daemon() {
    use std::net::TcpStream;
    const FD_LIMIT: usize = 24;
    const WORKERS: usize = 4;

    let dir = TempDir::new("fds");
    let port_file = dir.0.join("port");
    // The rlimit applies to the shell and to the daemon it execs, nothing else.
    let mut daemon = Daemon(
        Command::new("sh")
            .args(["-c", &format!("ulimit -n {FD_LIMIT}; exec \"$0\" \"$@\"")])
            .arg(env!("CARGO_BIN_EXE_taflocd"))
            .args(["--addr", "127.0.0.1:0", "--port-file", port_file.to_str().unwrap()])
            .args(["--workers", &WORKERS.to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn taflocd"),
    );
    let addr = format!("127.0.0.1:{}", await_port(&port_file));
    let pid = daemon.0.id();

    // Hold every worker with an idle client, then queue connections until
    // the daemon has no descriptor left for the ones still in the backlog.
    let held: Vec<Client> = (0..WORKERS)
        .map(|_| {
            let mut client = Client::connect(addr.as_str()).unwrap();
            client.ping().unwrap();
            client
        })
        .collect();
    let queued: Vec<TcpStream> =
        (0..40).map(|_| TcpStream::connect(addr.as_str()).unwrap()).collect();
    let open_fds = || std::fs::read_dir(format!("/proc/{pid}/fd")).unwrap().count();
    let deadline = Instant::now() + Duration::from_secs(5);
    while open_fds() < FD_LIMIT {
        assert!(Instant::now() < deadline, "taflocd never ran out of descriptors");
        std::thread::sleep(Duration::from_millis(20));
    }

    let before = cpu_seconds(pid);
    std::thread::sleep(Duration::from_secs(1));
    let spent = cpu_seconds(pid) - before;
    assert!(spent < 0.25, "taflocd used {spent:.2} CPU-seconds in 1 s out of descriptors");

    drop(queued);
    drop(held);
    let start = Instant::now();
    let mut client = Client::connect(addr.as_str()).unwrap();
    client.set_timeout(Some(Duration::from_secs(5))).unwrap();
    client.ping().unwrap();
    assert!(start.elapsed() < Duration::from_secs(5), "ping took {:?}", start.elapsed());
    client.call_ok(&Request::Shutdown).unwrap();
    assert!(daemon.0.wait().unwrap().success());
}
