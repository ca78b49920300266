//! End-to-end CLI workflow: every command exercised in sequence through the
//! library API, plus one subprocess check of the installed binary.

use std::path::PathBuf;
use tafloc_cli::{read_json, run, write_json, Args, RefsFile};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!("tafloc_cli_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }

    fn file(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn args(v: &[&str]) -> Args {
    Args::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
}

#[test]
fn full_lifecycle_through_cli_commands() {
    let dir = TempDir::new("lifecycle");
    let world = dir.file("world.json");
    let survey = dir.file("survey.json");
    let system = dir.file("system.json");
    let refs = dir.file("refs.json");
    let y = dir.file("y.json");
    let csv = dir.file("db.csv");

    // Small world keeps the test fast.
    let msg = run("new-world", &args(&["--seed", "11", "--out", &world, "--small"])).unwrap();
    assert!(msg.contains("6 links"), "{msg}");

    let msg = run(
        "survey",
        &args(&["--world", &world, "--day", "0", "--samples", "20", "--out", &survey]),
    )
    .unwrap();
    assert!(msg.contains("30 cells"), "{msg}");

    let msg =
        run("calibrate", &args(&["--survey", &survey, "--out", &system, "--refs", "6"])).unwrap();
    assert!(msg.contains("reference cells"), "{msg}");

    let msg = run(
        "measure-refs",
        &args(&[
            "--world",
            &world,
            "--system",
            &system,
            "--day",
            "30",
            "--samples",
            "20",
            "--out",
            &refs,
        ]),
    )
    .unwrap();
    assert!(msg.contains("6 reference cells"), "{msg}");

    let msg =
        run("update", &args(&["--system", &system, "--refs", &refs, "--out", &system])).unwrap();
    assert!(msg.contains("LoLi-IR iterations"), "{msg}");
    assert!(msg.contains("DB shifted"), "{msg}");

    let msg = run(
        "snapshot",
        &args(&["--world", &world, "--day", "30", "--cell", "12", "--samples", "20", "--out", &y]),
    )
    .unwrap();
    assert!(msg.contains("cell 12"), "{msg}");

    let msg = run("locate", &args(&["--system", &system, "--y", &y])).unwrap();
    assert!(msg.contains("cell"), "{msg}");
    assert!(msg.contains("m;"), "{msg}");

    let msg = run("info", &args(&["--system", &system])).unwrap();
    assert!(msg.contains("links: 6"), "{msg}");
    assert!(msg.contains("cells: 30"), "{msg}");

    let msg = run("export-db", &args(&["--system", &system, "--out", &csv])).unwrap();
    assert!(msg.contains("6x30"), "{msg}");
    let exported = taf_linalg::io::read_csv(std::path::Path::new(&csv)).unwrap();
    assert_eq!(exported.shape(), (6, 30));
}

#[test]
fn plan_and_budgeted_update_spend_exactly_the_budget() {
    let dir = TempDir::new("plan");
    let world = dir.file("world.json");
    let survey = dir.file("survey.json");
    let system = dir.file("system.json");
    let refs = dir.file("refs.json");
    let plan = dir.file("plan.json");

    run("new-world", &args(&["--seed", "13", "--out", &world, "--small"])).unwrap();
    run("survey", &args(&["--world", &world, "--out", &survey, "--samples", "20"])).unwrap();
    run("calibrate", &args(&["--survey", &survey, "--out", &system, "--refs", "6"])).unwrap();
    run(
        "measure-refs",
        &args(&["--world", &world, "--system", &system, "--day", "60", "--out", &refs]),
    )
    .unwrap();

    // 3 of 6 reference cells at 6 links each.
    let msg = run("plan", &args(&["--system", &system, "--budget", "18", "--out", &plan])).unwrap();
    assert!(msg.contains("18 of 36 link-measurements (50%)"), "{msg}");
    assert_eq!(msg.matches("ref slot").count(), 3, "{msg}");
    let text = std::fs::read_to_string(&plan).unwrap();
    assert!(text.contains("\"planned_cost\":18"), "{text}");
    assert!(text.contains("uncertainty-greedy"), "{text}");

    // Budgeted update spends the same 18 and still converges on a commit.
    let msg = run(
        "update",
        &args(&["--system", &system, "--refs", &refs, "--out", &system, "--budget", "18"]),
    )
    .unwrap();
    assert!(msg.contains("re-surveyed 18 of 36 link-measurements"), "{msg}");
    assert!(msg.contains("uncertainty-greedy"), "{msg}");

    // The fixed-schedule policy is selectable; --policy without --budget is not.
    let msg = run(
        "update",
        &args(&[
            "--system", &system, "--refs", &refs, "--out", &system, "--budget", "12", "--policy",
            "fixed",
        ]),
    )
    .unwrap();
    assert!(msg.contains("re-surveyed 12 of 36 link-measurements (fixed-schedule)"), "{msg}");
    let err = run(
        "update",
        &args(&["--system", &system, "--refs", &refs, "--out", &system, "--policy", "fixed"]),
    )
    .unwrap_err();
    assert!(err.0.contains("--policy requires --budget"), "{err}");
}

#[test]
fn update_rejects_mismatched_refs_file() {
    let dir = TempDir::new("mismatch");
    let world = dir.file("world.json");
    let survey = dir.file("survey.json");
    let system = dir.file("system.json");
    let refs = dir.file("refs.json");

    run("new-world", &args(&["--seed", "3", "--out", &world, "--small"])).unwrap();
    run("survey", &args(&["--world", &world, "--out", &survey, "--samples", "10"])).unwrap();
    run("calibrate", &args(&["--survey", &survey, "--out", &system, "--refs", "5"])).unwrap();
    run(
        "measure-refs",
        &args(&[
            "--world",
            &world,
            "--system",
            &system,
            "--day",
            "10",
            "--samples",
            "10",
            "--out",
            &refs,
        ]),
    )
    .unwrap();

    // Corrupt the refs file's cell list.
    let path = std::path::Path::new(&refs);
    let mut parsed: RefsFile = read_json(path).unwrap();
    parsed.cells[0] = 0;
    parsed.cells[1] = 1;
    write_json(path, &parsed).unwrap();

    let err = run("update", &args(&["--system", &system, "--refs", &refs, "--out", &system]))
        .unwrap_err();
    assert!(err.0.contains("disagree"), "{err}");
}

#[test]
fn missing_files_produce_clean_errors() {
    let e = run("info", &args(&["--system", "/nonexistent/system.json"])).unwrap_err();
    assert!(e.0.contains("cannot read"), "{e}");
    let e = run(
        "snapshot",
        &args(&["--world", "/nonexistent/w.json", "--day", "1", "--cell", "0", "--out", "/tmp/x"]),
    )
    .unwrap_err();
    assert!(e.0.contains("cannot read"), "{e}");
}

#[test]
fn malformed_files_produce_clean_errors() {
    let dir = TempDir::new("malformed");
    let bad = dir.file("bad.json");
    let out = dir.file("out.json");
    // Writes a committed corpus file to the bad file with one value replaced.
    let edit = |text: &str, from: &str, to: &str| {
        assert!(text.contains(from), "{from} not in {text}");
        std::fs::write(&bad, text.replacen(from, to, 1)).unwrap();
    };

    // Grid shapes `FloorGrid::new` asserts on, values `World::new` asserts
    // on, and a reference distance that makes every RSS infinite: each must
    // be refused before a world is built.
    for (from, to) in [
        (r#""nx":3"#, r#""nx":0"#),
        (r#""cell_size":0.6"#, r#""cell_size":-1"#),
        (r#""num_links":4"#, r#""num_links":0"#),
        (r#""d0":1"#, r#""d0":0"#),
        (r#""decorrelation_m":4"#, r#""decorrelation_m":0"#),
        (r#""tau_days":40"#, r#""tau_days":0"#),
        (r#""tau_days":40"#, r#""tau_days":-1"#),
        (r#""entry_fast_tau_days":0.5"#, r#""entry_fast_tau_days":0"#),
    ] {
        edit(include_str!("corpus/world.json"), from, to);
        let e = run("survey", &args(&["--world", &bad, "--out", &out])).unwrap_err();
        assert!(e.0.contains(&bad), "{to}: {e}");
    }

    // A survey whose rss has 6 columns for a 4-cell grid.
    edit(include_str!("corpus/survey.json"), r#""nx":3"#, r#""nx":2"#);
    let e = run("calibrate", &args(&["--survey", &bad, "--out", &out, "--refs", "2"])).unwrap_err();
    assert!(e.0.contains(&bad), "{e}");

    // Integers out of their field's range are refused, not saturated: a
    // negative seed would build seed 0's world, a refs cell of -1 read as 0.
    edit(include_str!("corpus/world.json"), r#""seed":9007199254740992"#, r#""seed":-5"#);
    let e = run("survey", &args(&["--world", &bad, "--out", &out])).unwrap_err();
    assert!(e.0.contains(&bad) && e.0.contains("seed"), "{e}");
    let system = dir.file("system.json");
    std::fs::write(&system, include_str!("corpus/system.json")).unwrap();
    edit(include_str!("corpus/refs.json"), r#""cells":[1,4]"#, r#""cells":[-1,4]"#);
    let e =
        run("update", &args(&["--system", &system, "--refs", &bad, "--out", &out])).unwrap_err();
    assert!(e.0.contains(&bad) && e.0.contains("cells"), "{e}");

    // A seed above 2^53 would be written as a different number.
    let e = run("new-world", &args(&["--seed", "9007199254740993", "--out", &out])).unwrap_err();
    assert!(e.0.contains("--seed"), "{e}");
    assert!(!std::path::Path::new(&out).exists(), "nothing may be written");
}

#[test]
fn new_world_refuses_an_edge_that_is_not_finite_and_positive() {
    let dir = TempDir::new("edge");
    let out = dir.file("world.json");
    for edge in ["0", "-5", "nan", "inf"] {
        let e = run("new-world", &args(&["--edge", edge, "--out", &out])).unwrap_err();
        assert!(e.0.contains("--edge"), "{edge}: {e}");
        assert!(!std::path::Path::new(&out).exists(), "{edge}: nothing may be written");
    }
}

#[test]
fn snapshot_rejects_out_of_range_cell() {
    let dir = TempDir::new("badcell");
    let world = dir.file("world.json");
    run("new-world", &args(&["--seed", "3", "--out", &world, "--small"])).unwrap();
    let e = run(
        "snapshot",
        &args(&["--world", &world, "--day", "1", "--cell", "9999", "--out", &dir.file("y.json")]),
    )
    .unwrap_err();
    assert!(e.0.contains("out of range"), "{e}");
}

#[test]
fn binary_prints_usage_and_runs_new_world() {
    let bin = env!("CARGO_BIN_EXE_tafloc");
    let out = std::process::Command::new(bin).arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));

    let out = std::process::Command::new(bin).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "no command -> exit 2");

    let dir = TempDir::new("bin");
    let world = dir.file("world.json");
    let out = std::process::Command::new(bin)
        .args(["new-world", "--seed", "5", "--out", &world, "--small"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(std::path::Path::new(&world).exists());

    let out = std::process::Command::new(bin).args(["bogus-cmd"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn gen_stream_and_ingest_feed_a_running_daemon() {
    use tafloc_core::system::{SystemSnapshot, TafLoc};
    use tafloc_serve::client::Client;
    use tafloc_serve::protocol::{Request, Response};
    use tafloc_serve::server::{Server, ServerConfig};

    let dir = TempDir::new("ingest");
    let world = dir.file("world.json");
    let survey = dir.file("survey.json");
    let system = dir.file("system.json");
    let stream = dir.file("stream.json");

    run("new-world", &args(&["--seed", "23", "--out", &world, "--small"])).unwrap();
    run("survey", &args(&["--world", &world, "--out", &survey, "--samples", "20"])).unwrap();
    run("calibrate", &args(&["--survey", &survey, "--out", &system, "--refs", "6"])).unwrap();

    // Record a raw stream of a target in cell 12, with mild loss.
    let msg = run(
        "gen-stream",
        &args(&[
            "--world",
            &world,
            "--day",
            "0",
            "--cell",
            "12",
            "--duration",
            "30",
            "--loss",
            "0.05",
            "--out",
            &stream,
        ]),
    )
    .unwrap();
    assert!(msg.contains("raw samples"), "{msg}");

    // The calibrated system serves from an in-process daemon.
    let snapshot: SystemSnapshot = read_json(std::path::Path::new(&system)).unwrap();
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    server.add_site("lab", TafLoc::from_snapshot(snapshot).unwrap(), 0.0).unwrap();
    let addr = server.local_addr().to_string();
    let daemon = server.spawn();

    // Replay the stream into the daemon and close with a live-window fix.
    let msg =
        run("ingest", &args(&["--addr", &addr, "--site", "lab", "--stream", &stream, "--locate"]))
            .unwrap();
    assert!(msg.contains("accepted"), "{msg}");
    assert!(msg.contains("live window fix"), "{msg}");

    // --locate is a live-traffic flag; reference captures reject it.
    let err = run(
        "ingest",
        &args(&[
            "--addr",
            &addr,
            "--site",
            "lab",
            "--stream",
            &stream,
            "--ref-cell",
            "0",
            "--locate",
        ]),
    )
    .unwrap_err();
    assert!(err.0.contains("drop --ref-cell"), "{err}");

    // The daemon's stats saw the samples.
    let mut client = Client::connect(addr.as_str()).unwrap();
    match client.call_ok(&Request::Stats).unwrap() {
        Response::Stats { report } => {
            let site = report.sites.iter().find(|s| s.site == "lab").unwrap();
            assert!(site.ingest.accepted > 0, "daemon must have accepted live samples");
        }
        other => panic!("unexpected reply to stats: {other:?}"),
    }
    client.call_ok(&Request::Shutdown).unwrap();
    daemon.join();
}
