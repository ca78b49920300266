//! `taflocd` — the standalone daemon binary.
//!
//! ```text
//! taflocd --addr 127.0.0.1:7777 [--workers 4] [--shards 4] [--data-dir DIR]
//!         [--budget N [--policy P]] [--day D] [--site NAME --system system.json]...
//! ```
//!
//! `--site`/`--system` may repeat (pairwise) to pre-load several sites, each
//! with its drift clock at `--day`; more can be added at runtime with an
//! `add-site` request. With `--data-dir`, every committed site generation
//! is persisted as a checksummed snapshot and recovered on the next start —
//! a crashed daemon restarted on the same directory comes back serving every
//! site at its last committed state. The daemon prints the bound address on
//! startup and serves until a `shutdown` request.

use tafloc_serve::server::{Server, ServerConfig};

const USAGE: &str = "\
taflocd — always-on TafLoc localization daemon (newline-delimited JSON over TCP)

USAGE: taflocd [--addr HOST:PORT] [--workers N] [--shards N] [--data-dir DIR]
               [--journal-flush-ms MS] [--budget N [--policy P]]
               [--max-inflight-per-site N] [--port-file PATH]
               [--day D] [--site NAME --system PATH]...

  --addr       listen address (default 127.0.0.1:7777; port 0 = ephemeral)
  --workers    worker threads (default 4); each open connection holds one
               until it closes or sits idle for 60 s, so idle clients can
               delay new connections and shutdown by up to 60 s
  --shards     worker shards holding the sites, each with its own
               maintenance thread and admission gate (default 1); a site's
               shard is a hash of its name, so the same flags re-shard
               identically across restarts
  --max-inflight-per-site
               in-flight ingest sample quota per site; past it the daemon
               answers `overloaded` frames instead of silently queueing
  --data-dir   snapshot directory: persist every committed site generation
               (and a write-ahead journal of admitted survey batches) and
               recover all sites from it on startup (default: in-memory)
  --journal-flush-ms
               group-commit window of the write-ahead journal in
               milliseconds; 0 fsyncs every admitted batch (default 25)
  --budget     attach an adaptive-sensing planner with this per-round
               link-measurement budget to every site (default: full surveys)
  --policy     the planner's spending policy: uncertainty-greedy (default)
               or fixed-schedule; needs --budget
  --port-file  write the bound port and a newline to PATH once listening;
               lets scripts find an ephemeral port without parsing stdout
  --day        deployment day of every --site/--system pair's drift clock
               (default 0)
  --site       name for the next --system snapshot (repeatable)
  --system     path to a system.json written by `tafloc calibrate` (repeatable)
";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let defaults = ServerConfig::default();
    let mut addr = "127.0.0.1:7777".to_string();
    let mut workers = defaults.workers;
    let mut shards = defaults.shards;
    let mut max_inflight_per_site = defaults.max_inflight_per_site;
    let mut data_dir: Option<String> = None;
    let mut journal_flush_ms: u64 = defaults.journal_flush.as_millis() as u64;
    let mut budget: Option<usize> = None;
    let mut policy: Option<taf_plan::PlanPolicy> = None;
    let mut day = 0.0f64;
    let mut port_file: Option<String> = None;
    let mut site_names: Vec<String> = Vec::new();
    let mut system_paths: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            "--addr"
            | "--workers"
            | "--shards"
            | "--max-inflight-per-site"
            | "--data-dir"
            | "--journal-flush-ms"
            | "--budget"
            | "--policy"
            | "--day"
            | "--port-file"
            | "--site"
            | "--system" => {
                let Some(value) = args.get(i + 1) else {
                    fail(&format!("flag {} expects a value", args[i]));
                };
                match args[i].as_str() {
                    "--addr" => addr = value.clone(),
                    "--workers" => {
                        workers = value.parse().unwrap_or_else(|_| {
                            fail(&format!("--workers expects a number, got {value:?}"))
                        });
                    }
                    "--shards" => {
                        shards = value.parse().unwrap_or_else(|_| {
                            fail(&format!("--shards expects a number, got {value:?}"))
                        });
                    }
                    "--max-inflight-per-site" => {
                        max_inflight_per_site = value.parse().unwrap_or_else(|_| {
                            fail(&format!(
                                "--max-inflight-per-site expects a number, got {value:?}"
                            ))
                        });
                    }
                    "--data-dir" => data_dir = Some(value.clone()),
                    "--journal-flush-ms" => {
                        journal_flush_ms = value.parse().unwrap_or_else(|_| {
                            fail(&format!("--journal-flush-ms expects a number, got {value:?}"))
                        });
                    }
                    "--budget" => {
                        budget = Some(value.parse().unwrap_or_else(|_| {
                            fail(&format!("--budget expects a number, got {value:?}"))
                        }));
                    }
                    "--policy" => {
                        policy =
                            Some(value.parse().unwrap_or_else(|e| fail(&format!("--policy: {e}"))));
                    }
                    "--day" => {
                        day = value.parse().ok().filter(|d: &f64| d.is_finite()).unwrap_or_else(
                            || fail(&format!("--day expects a finite number, got {value:?}")),
                        );
                    }
                    "--port-file" => port_file = Some(value.clone()),
                    "--site" => site_names.push(value.clone()),
                    _ => system_paths.push(value.clone()),
                }
                i += 2;
            }
            other => fail(&format!("unknown flag {other:?}\n\n{USAGE}")),
        }
    }
    if site_names.len() != system_paths.len() {
        fail("--site and --system must come in pairs");
    }
    if policy.is_some() && budget.is_none() {
        fail("--policy requires --budget");
    }

    let config = ServerConfig {
        workers,
        shards,
        max_inflight_per_site,
        data_dir: data_dir.as_ref().map(std::path::PathBuf::from),
        journal_flush: std::time::Duration::from_millis(journal_flush_ms),
        plan: budget.map(|b| {
            taf_plan::PlannerConfig::new(
                b,
                policy.unwrap_or(taf_plan::PlanPolicy::UncertaintyGreedy),
            )
        }),
        ..Default::default()
    };
    let server = match Server::bind(&addr, config) {
        Ok(s) => s,
        Err(e) => fail(&format!("cannot bind {addr}: {e}")),
    };
    // Recovery first: persisted sites come back at their last committed
    // generation. A `--site` for an already-recovered name then fails with
    // "already registered" rather than silently clobbering recovered state.
    match server.recover_sites() {
        Ok((names, skipped)) => {
            for name in &names {
                eprintln!("site {name:?} recovered from {}", data_dir.as_deref().unwrap_or("?"));
            }
            for issue in &skipped {
                eprintln!("warning: skipped snapshot {}: {}", issue.path.display(), issue.reason);
            }
        }
        Err(e) => {
            fail(&format!("cannot recover from {:?}: {e}", data_dir.as_deref().unwrap_or("")))
        }
    }
    for (name, path) in site_names.iter().zip(&system_paths) {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        let snapshot = taf_wire::from_json::<tafloc_core::system::SystemSnapshot>(&text)
            .unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")));
        let system = tafloc_core::system::TafLoc::from_snapshot(snapshot)
            .unwrap_or_else(|e| fail(&format!("invalid system in {path}: {e}")));
        server
            .add_site(name, system, day)
            .unwrap_or_else(|e| fail(&format!("cannot add site {name:?}: {e}")));
        eprintln!("site {name:?} loaded from {path}");
    }
    let local = server.local_addr();
    if let Some(path) = &port_file {
        std::fs::write(path, format!("{}\n", local.port()))
            .unwrap_or_else(|e| fail(&format!("cannot write port file {path}: {e}")));
    }
    println!("taflocd listening on {local}");
    if let Err(e) = server.run() {
        fail(&format!("server failed: {e}"));
    }
    eprintln!("taflocd: drained and shut down cleanly");
}
