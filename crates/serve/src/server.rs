//! The TCP server: accept loop, worker-thread pool, request dispatch, and
//! graceful shutdown.
//!
//! Std-only by design (the repo carries no async runtime): a blocking
//! `TcpListener` accept loop hands connections to a fixed pool of worker
//! threads over an `mpsc` channel. Each connection speaks either wire
//! protocol of [`crate::wire`] — newline-delimited JSON (v1) or checksummed
//! binary frames (v2), sniffed per message — and may pipeline any number of
//! requests.
//!
//! Shutdown is graceful: a `shutdown` request (or
//! [`ServerHandle::shutdown`]) raises the flag and nudges the accept loop
//! with a loopback connection; the accept thread stops handing out new
//! connections and drops the channel sender; workers finish the connections
//! they hold (and any still queued) and exit; the maintenance scheduler is
//! stopped and joined last. A worker notices the shutdown only between
//! requests, so a client that stays connected but idle delays the drain by
//! up to the read timeout.

use crate::journal::JournalConfig;
use crate::maintenance::MaintenancePolicy;
use crate::metrics::Metrics;
use crate::protocol::{Request, Response};
use crate::shard::{AdmissionConfig, Admit, ShardSet};
use crate::shard::{DEFAULT_ADMIT_DEADLINE, DEFAULT_MAX_INFLIGHT_PER_SITE};
use crate::site::{recommendation_name, Site};
use crate::store::SiteStore;
use crate::wire::{self, WireVersion};
use crate::{Result, ServeError};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tafloc_core::system::TafLoc;
use tafloc_ingest::ClockMode;

/// Per-connection read timeout: a connection idle this long is closed.
/// Until then it holds its worker, busy or not (see
/// [`ServerConfig::workers`]).
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Pause after a failed `accept` before the next one. Out of file
/// descriptors, `accept` fails at once for as long as a connection waits in
/// the backlog, so retrying at once would spin a core.
const ACCEPT_RETRY_PAUSE: Duration = Duration::from_millis(10);

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads serving connections (`--workers`). Each open
    /// connection holds one worker until it closes or sits idle for the 60 s
    /// read timeout. So with as many idle clients as workers, a new
    /// connection waits up to 60 s, and so does [`ServerHandle::join`] after
    /// a shutdown while other clients stay connected.
    pub workers: usize,
    /// Maintenance policy applied to sites added without an explicit one.
    pub default_policy: MaintenancePolicy,
    /// Snapshot directory (`--data-dir`). When set, every committed site
    /// generation is persisted there and [`Server::bind`] recovers the
    /// newest valid generation of each site on startup. `None` keeps the
    /// daemon fully in-memory.
    pub data_dir: Option<std::path::PathBuf>,
    /// Adaptive-sensing planner attached to every site the server registers
    /// or recovers (`None` = classic full-survey refreshes). Plan state
    /// (schedule, history window, cumulative costs) is persisted with every
    /// committed snapshot, so a recovered site resumes its schedule
    /// mid-plan; recovery re-attaches the planner here and only falls back
    /// to a full first survey when no plan was persisted or its shape no
    /// longer matches the system.
    pub plan: Option<taf_plan::PlannerConfig>,
    /// Group-commit window for the per-site write-ahead ingest journal
    /// (`--journal-flush-ms`). `Duration::ZERO` fsyncs every admitted
    /// survey-path record individually. Only meaningful with `data_dir`
    /// set — the journal lives next to the snapshot files.
    pub journal_flush: Duration,
    /// Worker shards (`--shards`, clamped to at least 1). A site's shard is
    /// [`crate::shard::shard_of`] its name and the shard count, so the same
    /// flags re-shard identically across restarts.
    pub shards: usize,
    /// Per-site in-flight ingest sample quota (`--max-inflight-per-site`).
    /// The per-shard budget is 4x this, and an admission blocks for credits
    /// up to [`DEFAULT_ADMIT_DEADLINE`] before the server answers with a
    /// `deferred` overload frame.
    pub max_inflight_per_site: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            default_policy: MaintenancePolicy::default(),
            data_dir: None,
            plan: None,
            shards: 1,
            max_inflight_per_site: DEFAULT_MAX_INFLIGHT_PER_SITE,
            journal_flush: JournalConfig::default().flush_interval,
        }
    }
}

/// Shared server state, visible to every worker.
#[derive(Debug)]
pub struct ServerCtx {
    /// The sites, held by N worker shards, each with its own maintenance
    /// scheduler and admission gate.
    pub registry: ShardSet,
    /// Per-endpoint counters and latency histograms.
    pub metrics: Metrics,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
    default_policy: MaintenancePolicy,
    plan: Option<taf_plan::PlannerConfig>,
    workers: usize,
    started: Instant,
    /// The attached snapshot store (`--data-dir`), if persistence is on.
    store: Option<Arc<SiteStore>>,
    /// Journal knobs applied to every site when persistence is on.
    journal: JournalConfig,
    /// Held from a name's check to its registration, so no other bring-up
    /// or recovery writes that name's files in between.
    bring_up: Mutex<()>,
}

impl ServerCtx {
    /// Whether shutdown has been initiated.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Initiates shutdown: raises the flag and wakes the accept loop.
    pub fn initiate_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            // Nudge the (blocking) accept call so it observes the flag.
            let _ = TcpStream::connect(self.local_addr);
        }
    }

    /// Builds and registers a fresh site: the one bring-up path behind
    /// [`Server::add_site`] and the `add-site` request. The planner comes
    /// first, so generation 0 already carries the seeded survey history;
    /// then durability, which persists generation 0 at once; then the
    /// registry. A taken name is refused before durability, which would
    /// discard the journal and overwrite the snapshot under its stem.
    fn add_site(
        &self,
        name: &str,
        system: TafLoc,
        day: f64,
        policy: MaintenancePolicy,
    ) -> Result<()> {
        let _bring_up = self.bring_up.lock().unwrap_or_else(|p| p.into_inner());
        if self.registry.get(name).is_ok() {
            return Err(ServeError::SiteExists(name.to_string()));
        }
        let mut site = Site::new(name, system, day, policy)?;
        if let Some(plan) = self.plan {
            site = site.with_planning(plan)?;
        }
        if let Some(store) = &self.store {
            site = site.with_durability(Arc::clone(store), self.journal)?;
        }
        self.registry.add(site)?;
        Ok(())
    }

    /// Unregisters a site and, with persistence on, deletes its snapshot
    /// generations and journal segments: the `remove-site` request. Runs
    /// under the bring-up lock, so no bring-up or recovery of the name
    /// interleaves with the deletion. A refresh of the site already in
    /// flight still completes in memory but writes no snapshot.
    fn remove_site(&self, name: &str) -> Result<()> {
        let _bring_up = self.bring_up.lock().unwrap_or_else(|p| p.into_inner());
        let site = self.registry.remove(name)?;
        match site.detach_store() {
            Some(store) => store.forget(name),
            None => Ok(()),
        }
    }
}

/// A bound-but-not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    ctx: Arc<ServerCtx>,
}

/// Handle to a running server: its address, context, and thread joins.
#[derive(Debug)]
pub struct ServerHandle {
    ctx: Arc<ServerCtx>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let store = match &config.data_dir {
            Some(dir) => Some(Arc::new(SiteStore::open(dir)?)),
            None => None,
        };
        let ctx = Arc::new(ServerCtx {
            registry: ShardSet::new(
                config.shards,
                AdmissionConfig {
                    max_inflight_per_site: config.max_inflight_per_site,
                    max_inflight_per_shard: config.max_inflight_per_site.saturating_mul(4),
                    admit_deadline: DEFAULT_ADMIT_DEADLINE,
                },
            ),
            metrics: Metrics::new(),
            shutdown: AtomicBool::new(false),
            local_addr,
            default_policy: config.default_policy,
            plan: config.plan,
            workers: config.workers.max(1),
            started: Instant::now(),
            store,
            journal: JournalConfig { flush_interval: config.journal_flush },
            bring_up: Mutex::new(()),
        });
        Ok(Server { listener, ctx })
    }

    /// Recovers every persisted site from the configured `data_dir` into the
    /// registry (no-op without one), each through [`Site::recover`]. Each
    /// site comes back at its last committed generation with its plan
    /// schedule, survey history, and solver warm state; the write-ahead
    /// journal is then replayed through the normal ingest pipeline, so
    /// survey-path records admitted after the last commit (and their
    /// not-yet-refreshed pending columns) survive a crash too. Corrupt or
    /// truncated snapshot files are skipped and reported, never fatal.
    /// Returns the recovered site names and the files that had to be
    /// skipped.
    pub fn recover_sites(&self) -> Result<(Vec<String>, Vec<crate::store::RecoveryIssue>)> {
        let Some(store) = &self.ctx.store else {
            return Ok((Vec::new(), Vec::new()));
        };
        let _bring_up = self.ctx.bring_up.lock().unwrap_or_else(|p| p.into_inner());
        let recovery = store.recover_all()?;
        let mut names = Vec::with_capacity(recovery.sites.len());
        for persisted in recovery.sites {
            let (site, _, _) = Site::recover(
                persisted,
                Arc::clone(store),
                self.ctx.journal,
                self.ctx.plan,
                ClockMode::default(),
            )?;
            names.push(site.name().to_string());
            self.ctx.registry.add(site)?;
        }
        Ok((names, recovery.skipped))
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.ctx.local_addr
    }

    /// Shared context (register sites before starting, inspect metrics...).
    pub fn ctx(&self) -> &Arc<ServerCtx> {
        &self.ctx
    }

    /// Registers a site before (or while) serving. With persistence on, the
    /// site's generation 0 is written immediately (so even a crash before
    /// the first refresh recovers it) and a fresh write-ahead journal is
    /// attached for everything admitted between commits.
    pub fn add_site(&self, name: &str, system: TafLoc, day: f64) -> Result<()> {
        self.ctx.add_site(name, system, day, self.ctx.default_policy)
    }

    /// Starts the accept loop and worker pool; returns immediately.
    pub fn spawn(self) -> ServerHandle {
        let workers = self.ctx.workers;
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut threads = Vec::with_capacity(workers + 1);
        for i in 0..workers {
            let rx = Arc::clone(&rx);
            let ctx = Arc::clone(&self.ctx);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("taflocd-worker-{i}"))
                    .spawn(move || worker_loop(rx, ctx))
                    .expect("spawning a worker thread cannot fail"),
            );
        }
        let ctx = Arc::clone(&self.ctx);
        let listener = self.listener;
        threads.push(
            std::thread::Builder::new()
                .name("taflocd-accept".to_string())
                .spawn(move || accept_loop(listener, tx, ctx))
                .expect("spawning the accept thread cannot fail"),
        );
        ServerHandle { ctx: self.ctx, threads }
    }

    /// Runs to completion: serves until a `shutdown` request arrives, then
    /// drains and returns. This is what `taflocd` calls.
    pub fn run(self) -> Result<()> {
        self.spawn().join();
        Ok(())
    }
}

impl ServerHandle {
    /// Shared context.
    pub fn ctx(&self) -> &Arc<ServerCtx> {
        &self.ctx
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.ctx.local_addr
    }

    /// Initiates graceful shutdown without waiting.
    pub fn shutdown(&self) {
        self.ctx.initiate_shutdown();
    }

    /// Waits for the accept loop and workers to drain, then stops
    /// maintenance threads. Call after `shutdown`, or rely on a client's
    /// `shutdown` request to initiate it. A client left connected and idle
    /// holds its worker, and so this wait, for up to the 60 s read timeout.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
        self.ctx.registry.stop_maintenance();
        // Graceful shutdown persists every site's final state (no-op for
        // sites without an attached store). After maintenance has stopped,
        // so nothing can move the generation mid-save.
        for site in self.ctx.registry.list() {
            let _ = site.persist_now();
        }
    }
}

fn accept_loop(listener: TcpListener, tx: mpsc::Sender<TcpStream>, ctx: Arc<ServerCtx>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if ctx.is_shutdown() {
                    break; // the wake-up connection (or a late client) — drop it
                }
                if tx.send(stream).is_err() {
                    break;
                }
            }
            Err(_) => {
                if ctx.is_shutdown() {
                    break;
                }
                // Transient accept errors (EMFILE, aborted handshake): keep serving.
                std::thread::sleep(ACCEPT_RETRY_PAUSE);
            }
        }
    }
    // Dropping `tx` here lets workers drain queued connections and exit.
}

fn worker_loop(rx: Arc<Mutex<mpsc::Receiver<TcpStream>>>, ctx: Arc<ServerCtx>) {
    loop {
        // Hold the receiver lock only while dequeuing, never while serving.
        let stream = {
            let guard = rx.lock().unwrap_or_else(|p| p.into_inner());
            guard.recv()
        };
        match stream {
            Ok(s) => {
                // Panic boundary: a handler bug (or a panic escaping the core
                // on pathological input) kills this connection, not the
                // worker — the daemon keeps serving every other client.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = handle_connection(s, &ctx);
                }));
                if outcome.is_err() {
                    ctx.metrics.record_conn_panic();
                }
            }
            Err(_) => break, // channel closed: shutdown drain complete
        }
    }
}

fn handle_connection(stream: TcpStream, ctx: &ServerCtx) -> Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    // The protocol version is sniffed per message and updated before any
    // decoding, so an error reply always goes out in the framing the peer
    // last spoke — a v2 client never has to parse a JSON error line.
    let mut version = WireVersion::V1Json;
    loop {
        let request: Request = match wire::read_request(&mut reader, &mut version) {
            Ok(Some(r)) => r,
            Ok(None) => return Ok(()), // clean EOF
            Err(e @ ServeError::OversizedLine { got, limit }) => {
                // The reader drained through the newline without buffering
                // the line, so the connection is still framed: answer with
                // an error frame and keep serving it.
                ctx.metrics.record_wire_error(&taf_wire::WireError::FrameTooLarge { got, limit });
                wire::write_response(
                    &mut writer,
                    &Response::Error { message: e.to_string() },
                    version,
                )?;
                continue;
            }
            Err(ServeError::Wire(e)) => {
                ctx.metrics.record_wire_error(&e);
                if !e.is_recoverable() {
                    // Bad magic, invalid UTF-8, mid-frame truncation: the
                    // stream cannot be re-framed. Close quietly.
                    return Ok(());
                }
                // Malformed payload, checksum mismatch, oversized frame —
                // the framing layer already drained the bad message, so the
                // connection survives: report and keep serving.
                let message = match &e {
                    taf_wire::WireError::Malformed(m) => format!("malformed request: {m}"),
                    other => other.to_string(),
                };
                wire::write_response(&mut writer, &Response::Error { message }, version)?;
                continue;
            }
            Err(ServeError::Io(e)) => {
                // An idle peer hitting the read timeout and a torn transport
                // are different operational signals; count them apart.
                match e.kind() {
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                        ctx.metrics.record_conn_timeout()
                    }
                    _ => ctx.metrics.record_conn_reset(),
                }
                return Ok(());
            }
            Err(_) => return Ok(()), // protocol violation: close quietly
        };
        let tag = request.tag();
        let shutdown_requested = matches!(request, Request::Shutdown);
        let start = Instant::now();
        let response = dispatch(request, ctx);
        let ok = !matches!(response, Response::Error { .. });
        ctx.metrics.record(tag, start.elapsed(), ok);
        wire::write_response(&mut writer, &response, version)?;
        if shutdown_requested {
            ctx.initiate_shutdown();
            return Ok(());
        }
        // Finish the in-flight request, then drain: no new work on this
        // connection once shutdown has started.
        if ctx.is_shutdown() {
            return Ok(());
        }
    }
}

fn err_response(e: ServeError) -> Response {
    Response::Error { message: e.to_string() }
}

/// Serves one request against the shared state. Pure request → response; all
/// transport concerns live in `handle_connection`.
pub fn dispatch(request: Request, ctx: &ServerCtx) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::Shutdown => Response::ShuttingDown,
        Request::Stats => Response::Stats {
            report: ctx.metrics.report(
                ctx.started.elapsed().as_secs_f64(),
                ctx.registry.site_stats(),
                ctx.registry.shard_stats(),
            ),
        },
        Request::ListSites => {
            Response::Sites { sites: ctx.registry.list().iter().map(|s| s.info()).collect() }
        }
        Request::AddSite { site, snapshot, day, policy } => {
            let system = match TafLoc::from_snapshot(*snapshot) {
                Ok(s) => s,
                Err(e) => return err_response(e.into()),
            };
            let (links, cells) = (system.db().num_links(), system.db().num_cells());
            match ctx.add_site(&site, system, day, policy.unwrap_or(ctx.default_policy)) {
                Ok(()) => Response::SiteAdded { site, links, cells },
                Err(e) => err_response(e),
            }
        }
        Request::RemoveSite { site } => match ctx.remove_site(&site) {
            Ok(()) => Response::SiteRemoved { site },
            Err(e) => err_response(e),
        },
        Request::Locate { site, y } => match ctx.registry.get(&site).and_then(|s| s.locate(&y)) {
            Ok((fix, version)) => Response::Located {
                cell: fix.cell,
                x: fix.point.x,
                y: fix.point.y,
                distance_db: fix.best_distance,
                version,
            },
            Err(e) => err_response(e),
        },
        Request::LocateBatch { site, ys } => {
            match ctx.registry.get(&site).and_then(|s| s.locate_batch(&ys)) {
                Ok((fixes, version)) => Response::LocatedBatch {
                    fixes: fixes
                        .into_iter()
                        .map(|fix| crate::protocol::Fix {
                            cell: fix.cell,
                            x: fix.point.x,
                            y: fix.point.y,
                            distance_db: fix.best_distance,
                        })
                        .collect(),
                    version,
                },
                Err(e) => err_response(e),
            }
        }
        Request::LocateStream { site } => {
            match ctx.registry.get(&site).and_then(|s| s.locate_stream()) {
                Ok((fix, assembled, version)) => Response::StreamLocated {
                    cell: fix.cell,
                    x: fix.point.x,
                    y: fix.point.y,
                    distance_db: fix.best_distance,
                    version,
                    missing_links: assembled.missing,
                    stale_links: assembled.stale,
                    stream_t_s: assembled.latest_t_s.unwrap_or(0.0),
                    window_samples: assembled.window_samples,
                },
                Err(e) => err_response(e),
            }
        }
        Request::Ingest { site, ref_cell, day, samples } => {
            // Look the site up first: an unknown site is an error, not an
            // overload, regardless of gate pressure.
            let owner = match ctx.registry.get(&site) {
                Ok(s) => s,
                Err(e) => return err_response(e),
            };
            match ctx.registry.admit(&site, samples.len()) {
                Admit::Granted(permit) => {
                    // The permit holds the credits for the whole synchronous
                    // ingest; dropping it releases them.
                    let outcome = owner.ingest_samples(ref_cell, day, &samples);
                    drop(permit);
                    match outcome {
                        Ok(report) => Response::Ingested { report },
                        Err(e) => err_response(e),
                    }
                }
                Admit::Deferred { shard, retry_after_ms } => Response::Overloaded {
                    site,
                    shard,
                    reason: "deferred".to_string(),
                    retry_after_ms,
                },
                Admit::Rejected { shard } => Response::Overloaded {
                    site,
                    shard,
                    reason: "rejected".to_string(),
                    retry_after_ms: 0,
                },
            }
        }
        Request::MeasureRefs { site, day, columns, empty } => {
            match ctx.registry.get(&site).and_then(|s| s.ingest_refs(day, columns, empty)) {
                Ok(rec) => Response::RefsAccepted {
                    recommendation: recommendation_name(&rec).to_string(),
                    estimated_error_db: rec.estimated_error_db(),
                },
                Err(e) => err_response(e),
            }
        }
        Request::Refresh { site } => match ctx.registry.get(&site).and_then(|s| s.refresh()) {
            Ok((report, version)) => Response::Refreshed {
                iterations: report.iterations,
                converged: report.converged,
                mean_abs_change_db: report.mean_abs_change_db,
                version,
            },
            Err(e) => err_response(e),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use taf_rfsim::{campaign, World, WorldConfig};
    use tafloc_core::db::FingerprintDb;
    use tafloc_core::system::TafLocConfig;

    fn calibrated(seed: u64) -> (World, TafLoc) {
        let world = World::new(WorldConfig::small_test(), seed);
        let x0 = campaign::full_calibration(&world, 0.0, 20);
        let e0 = campaign::empty_snapshot(&world, 0.0, 20);
        let db = FingerprintDb::from_world(x0, &world).unwrap();
        let system =
            TafLoc::calibrate(TafLocConfig { ref_count: 6, ..Default::default() }, db, e0).unwrap();
        (world, system)
    }

    /// A server persisting to `dir`; a second one on the same `dir` is a
    /// restart.
    fn server_on(dir: &std::path::Path) -> Server {
        let config = ServerConfig { data_dir: Some(dir.to_path_buf()), ..Default::default() };
        Server::bind("127.0.0.1:0", config).unwrap()
    }

    /// A server persisting to `dir`, with a durable `lab` on `system`.
    fn durable_lab(dir: &std::path::Path, system: TafLoc) -> Arc<ServerCtx> {
        let server = server_on(dir);
        server.add_site("lab", system, 0.0).unwrap();
        Arc::clone(server.ctx())
    }

    /// Surveys and refreshes `site` on `day`.
    fn refresh_on(site: &Site, world: &World, day: f64) {
        let cells = site.load().system.reference_cells().to_vec();
        let columns = campaign::measure_columns(world, day, &cells, 20);
        site.ingest_refs(day, columns, campaign::empty_snapshot(world, day, 20)).unwrap();
        site.refresh().unwrap();
    }

    /// `remove-site` forgets the site on disk: a restart on the same
    /// directory recovers nothing, and a refresh that outlives the removal
    /// writes no snapshot.
    #[test]
    fn a_removed_site_is_not_recovered() {
        let (world, system) = calibrated(22);
        let dir = std::env::temp_dir().join(format!("tafloc-remove-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = durable_lab(&dir, system);
        let site = ctx.registry.get("lab").unwrap();
        for day in [10.0, 20.0, 30.0, 40.0] {
            refresh_on(&site, &world, day);
        }
        let removed = dispatch(Request::RemoveSite { site: "lab".into() }, &ctx);
        assert!(matches!(removed, Response::SiteRemoved { .. }), "{removed:?}");
        refresh_on(&site, &world, 50.0);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "no file of lab is left");
        assert!(server_on(&dir).recover_sites().unwrap().0.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A name removed and re-added with another system comes back after a
    /// restart as the re-added system at version 0, not as the removed one.
    #[test]
    fn a_site_re_added_after_removal_comes_back_at_its_own_generation_0() {
        let (world, system) = calibrated(23);
        let dir = std::env::temp_dir().join(format!("tafloc-readd-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = durable_lab(&dir, system);
        let site = ctx.registry.get("lab").unwrap();
        for day in [10.0, 20.0, 30.0, 40.0] {
            refresh_on(&site, &world, day);
        }
        drop(site);
        dispatch(Request::RemoveSite { site: "lab".into() }, &ctx);
        let (_, other) = calibrated(24);
        let request = Request::AddSite {
            site: "lab".into(),
            snapshot: Box::new(other.snapshot()),
            day: 5.0,
            policy: None,
        };
        assert!(matches!(dispatch(request, &ctx), Response::SiteAdded { .. }));

        let restarted = server_on(&dir);
        assert_eq!(restarted.recover_sites().unwrap().0, ["lab"]);
        let revived = restarted.ctx().registry.get("lab").unwrap().load();
        assert_eq!((revived.version, revived.refreshed_day), (0, 5.0));
        assert!(revived.system.db().rss().approx_eq(other.db().rss(), 0.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two `add-site` requests for one new name race from a barrier. The
    /// one refused must leave no trace on disk: a restart recovers the
    /// registered system, never the refused one.
    #[test]
    fn a_refused_concurrent_add_site_leaves_no_trace_on_disk() {
        let (_, system) = calibrated(21);
        let base = std::env::temp_dir().join(format!("tafloc-bring-up-{}", std::process::id()));
        for trial in 0..8 {
            let dir = base.join(trial.to_string());
            let ctx = Arc::clone(server_on(&dir).ctx());
            let barrier = Arc::new(Barrier::new(2));
            let racers: Vec<_> = [10.0, 20.0]
                .into_iter()
                .map(|day| {
                    let (ctx, barrier) = (Arc::clone(&ctx), Arc::clone(&barrier));
                    let snapshot = Box::new(system.snapshot());
                    std::thread::spawn(move || {
                        barrier.wait();
                        let request =
                            Request::AddSite { site: "lab".into(), snapshot, day, policy: None };
                        dispatch(request, &ctx)
                    })
                })
                .collect();
            let added = racers
                .into_iter()
                .map(|r| r.join().unwrap())
                .filter(|r| matches!(r, Response::SiteAdded { .. }))
                .count();
            assert_eq!(added, 1, "exactly one add-site wins");
            let registered = ctx.registry.get("lab").unwrap().load().refreshed_day;
            let recovered = SiteStore::open(&dir).unwrap().recover_all().unwrap();
            assert_eq!(recovered.sites[0].refreshed_day, registered, "trial {trial}");
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    /// The request as the daemon reads it off the wire in `version`.
    fn over_the_wire(request: &Request, version: WireVersion) -> Request {
        let mut buf = Vec::new();
        match version {
            WireVersion::V1Json => {
                wire::v1::encode_request(request, &mut buf);
                wire::v1::decode_request(std::str::from_utf8(&buf).unwrap()).unwrap()
            }
            WireVersion::V2Binary => {
                wire::v2::encode_request(request, &mut buf);
                wire::v2::decode_request(&buf).unwrap()
            }
        }
    }

    fn refused(response: Response) -> bool {
        matches!(response, Response::Error { message } if message.contains("finite"))
    }

    /// v1 writes an infinite day as `null` and reads `null` as NaN; v2
    /// carries any bits. Either way a survey-path request with a day that
    /// is not finite is refused before it is journaled or applied.
    #[test]
    fn survey_requests_with_a_non_finite_day_are_refused_unjournaled() {
        let (world, system) = calibrated(25);
        let dir = std::env::temp_dir().join(format!("tafloc-day-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = durable_lab(&dir, system);
        let site = ctx.registry.get("lab").unwrap();
        let journal = Arc::clone(site.journal().unwrap());
        let last_seq = journal.last_seq();
        let cells = site.load().system.reference_cells().to_vec();
        let survey = Request::MeasureRefs {
            site: "lab".into(),
            day: f64::INFINITY,
            columns: campaign::measure_columns(&world, 30.0, &cells, 20),
            empty: campaign::empty_snapshot(&world, 30.0, 20),
        };
        let mut text = Vec::new();
        wire::v1::encode_request(&survey, &mut text);
        assert!(String::from_utf8(text).unwrap().contains(r#""day":null"#));
        assert!(refused(dispatch(over_the_wire(&survey, WireVersion::V1Json), &ctx)));
        let capture = Request::Ingest {
            site: "lab".into(),
            ref_cell: Some(0),
            day: f64::INFINITY,
            samples: vec![tafloc_ingest::LinkSample::new(0, 0.0, -50.0)],
        };
        assert!(refused(dispatch(over_the_wire(&capture, WireVersion::V2Binary), &ctx)));
        let stats = site.stats();
        assert!(!stats.pending_refs);
        assert_eq!(stats.active_ref_captures, 0);
        assert_eq!(journal.last_seq(), last_seq, "nothing was journaled");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An `add-site` whose drift clock would start at a non-finite day is
    /// refused, and the refused site leaves no file behind.
    #[test]
    fn an_add_site_with_a_non_finite_day_writes_no_file() {
        let (_, system) = calibrated(26);
        let dir = std::env::temp_dir().join(format!("tafloc-add-day-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = Arc::clone(server_on(&dir).ctx());
        for (day, version) in [
            (f64::NAN, WireVersion::V1Json),
            (f64::INFINITY, WireVersion::V2Binary),
            (f64::NEG_INFINITY, WireVersion::V2Binary),
        ] {
            let snapshot = Box::new(system.snapshot());
            let request = Request::AddSite { site: "lab".into(), snapshot, day, policy: None };
            assert!(refused(dispatch(over_the_wire(&request, version), &ctx)), "day {day}");
        }
        assert!(ctx.registry.get("lab").is_err());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "no file was written");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
