//! The daemon under test, in process: one `Server` on loopback with one
//! site, plus the benchmark's bookkeeping for ops, failures and scratch
//! directories.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use taf_plan::PlannerConfig;
use tafloc_core::system::TafLoc;
use tafloc_ingest::LinkSample;
use tafloc_serve::client::Client;
use tafloc_serve::maintenance::MaintenancePolicy;
use tafloc_serve::protocol::{Request, Response};
use tafloc_serve::server::{Server, ServerConfig, ServerCtx, ServerHandle};
use tafloc_serve::site::Site;
use tafloc_serve::wire::WireVersion;

/// Name of the one site every workload serves.
pub const SITE: &str = "bench";

/// Where runs keep their data directories and traces, relative to the
/// directory the benchmark runs in.
pub const OUT_DIR: &str = ".bench_out";

/// Workers: one per benchmark connection plus one spare.
const WORKERS: usize = 4;

/// CPUs the benchmark runs on. Everything runs on `main` (threads inherit
/// their creator's CPU), except that `refresh` moves its open-loop reader
/// and the daemon worker serving it to `reader`, so reads run beside the
/// cycles instead of queueing behind them. Fixed placement keeps a run from
/// landing client and server on the same CPU one time and on different CPUs
/// the next, which moved loopback latency by half between runs.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    /// CPU of the main thread, the daemon and the closed-loop clients.
    pub main: usize,
    /// CPU of the open-loop reader and its daemon worker.
    pub reader: usize,
}

static PLACEMENT: OnceLock<Placement> = OnceLock::new();

/// Pins the calling (main) thread to the first CPU it may use and records
/// the placement; call before any other thread starts.
pub fn pin_main() -> Placement {
    *PLACEMENT.get_or_init(|| {
        let cpus = crate::host::allowed_cpus();
        let main = cpus[0];
        let placement = Placement { main, reader: cpus.get(1).copied().unwrap_or(main) };
        crate::host::pin_thread(0, main);
        placement
    })
}

/// The placement [`pin_main`] chose (the allowed CPUs if it never ran).
pub fn placement() -> Placement {
    *PLACEMENT.get_or_init(|| {
        let cpus = crate::host::allowed_cpus();
        Placement { main: cpus[0], reader: cpus.get(1).copied().unwrap_or(cpus[0]) }
    })
}

/// Moves the daemon worker that did the most work during `f` to `cpu`:
/// a connection stays with one worker, so running `f` over it identifies
/// that connection's worker.
pub fn pin_busiest_worker<T>(cpu: usize, f: impl FnOnce() -> T) -> T {
    let before = crate::host::thread_run_ns("taflocd-worker");
    let out = f();
    let after = crate::host::thread_run_ns("taflocd-worker");
    let busiest = after
        .iter()
        .filter_map(|&(tid, ns)| before.iter().find(|b| b.0 == tid).map(|b| (ns - b.1, tid)))
        .max();
    if let Some((_, tid)) = busiest {
        crate::host::pin_thread(tid, cpu);
    }
    out
}

/// How the site is served.
#[derive(Debug, Clone, Copy)]
pub struct RigSpec {
    /// Snapshot store plus write-ahead journal (default group commit).
    pub durable: bool,
    /// Measurement planner attached to the site.
    pub plan: Option<PlannerConfig>,
}

/// A running daemon with the benchmark site registered.
#[derive(Debug)]
pub struct Rig {
    handle: ServerHandle,
    /// The registered site, for in-process promotion and checks.
    pub site: Arc<Site>,
    /// Loopback address.
    pub addr: SocketAddr,
    dir: Option<PathBuf>,
}

/// A fresh, empty directory under [`OUT_DIR`] for this process.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = PathBuf::from(OUT_DIR)
        .join(format!("run-{}", std::process::id()))
        .join(format!("{tag}-{n}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory can be created");
    dir
}

/// Removes this process's scratch directories.
pub fn remove_scratch() {
    let _ =
        std::fs::remove_dir_all(PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id())));
}

impl Rig {
    /// Binds a loopback server and registers `system` as the site. Sites
    /// tick manually and never refresh on their own, so no timed path waits
    /// on the maintenance scheduler.
    pub fn start(system: TafLoc, spec: RigSpec) -> Rig {
        let dir = spec.durable.then(|| scratch_dir("data"));
        let config = ServerConfig {
            workers: WORKERS,
            default_policy: MaintenancePolicy {
                manual_tick: true,
                auto_refresh: false,
                ..MaintenancePolicy::default()
            },
            data_dir: dir.clone(),
            plan: spec.plan,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).expect("loopback bind");
        server.add_site(SITE, system, 0.0).expect("site registers");
        let site = server.ctx().registry.get(SITE).expect("site is registered");
        let addr = server.local_addr();
        Rig { handle: server.spawn(), site, addr, dir }
    }

    /// Shared server state (registry, metrics) for replays and stats.
    pub fn ctx(&self) -> &Arc<ServerCtx> {
        self.handle.ctx()
    }

    /// Opens a client connection speaking `version`.
    pub fn connect(&self, version: WireVersion) -> Client {
        Client::connect_with(self.addr, version).expect("loopback connect")
    }

    /// The daemon's own `stats` report, fetched over the wire.
    pub fn stats(&self) -> tafloc_serve::protocol::StatsReport {
        let mut admin = self.connect(WireVersion::V1Json);
        match admin.call(&Request::Stats) {
            Ok(Response::Stats { report }) => report,
            other => panic!("stats request failed: {other:?}"),
        }
    }

    /// Closes `clients`, shuts the daemon down, waits for every thread and
    /// removes the data directory. Connections are closed first: an idle
    /// keep-alive connection would hold a worker until its read timeout.
    pub fn stop(self, clients: Vec<Client>) {
        drop(clients);
        let Rig { handle, site, dir, .. } = self;
        drop(site);
        handle.shutdown();
        handle.join();
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Ops attempted and failed, with the first few failure reasons.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Ops (and reads) attempted.
    pub attempted: u64,
    /// Error or overload replies, guard rejections and failed checks.
    pub failed: u64,
    /// The first failure reasons, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one attempted op with its check outcome.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.fail(reason);
        }
    }

    /// Counts a failure that belongs to no single op (for example a capture
    /// round that did not promote).
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(reason);
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// The reference slot, day and samples of a capture batch.
pub fn batch_of(req: &Request) -> (usize, f64, &[LinkSample]) {
    match req {
        Request::Ingest { ref_cell: Some(k), day, samples, .. } => (*k, *day, samples),
        other => unreachable!("capture rounds hold reference batches, not {other:?}"),
    }
}

/// Checks an `ingest` reply accounts for every sample sent; returns how many
/// it accepted.
pub fn check_ingested(reply: &tafloc_serve::Result<Response>, sent: usize) -> Result<u64, String> {
    match reply {
        Ok(Response::Ingested { report }) => {
            let counted = report.accepted
                + report.dropped_late
                + report.dropped_unknown_link
                + report.dropped_non_finite;
            if counted == sent as u64 {
                Ok(report.accepted)
            } else {
                Err(format!("batch report accounts for {counted} of {sent} samples"))
            }
        }
        Ok(other) => Err(format!("ingest answered {other:?}")),
        Err(e) => Err(format!("ingest failed: {e}")),
    }
}

/// Checks a locate reply against the expected cell and snapshot version.
pub fn check_located(
    reply: &tafloc_serve::Result<Response>,
    cell: usize,
    version: u64,
) -> Result<(), String> {
    match reply {
        Ok(Response::Located { cell: got, version: v, .. }) if *got == cell && *v == version => {
            Ok(())
        }
        Ok(Response::Located { cell: got, version: v, .. }) => Err(format!(
            "locate answered cell {got} at version {v}, expected cell {cell} at version {version}"
        )),
        Ok(other) => Err(format!("locate answered {other:?}")),
        Err(e) => Err(format!("locate failed: {e}")),
    }
}
