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
//! stopped and joined last.

use crate::journal::{Journal, JournalConfig};
use crate::maintenance::MaintenancePolicy;
use crate::metrics::Metrics;
use crate::protocol::{Request, Response, StatsReport};
use crate::shard::{AdmissionConfig, Admit, ShardConfig, ShardSet};
use crate::site::{detection_detail, recommendation_name, Site};
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

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads serving connections.
    pub workers: usize,
    /// Per-connection read timeout; an idle connection past it is closed
    /// (`None` = wait forever — then idle keep-alive clients pin workers).
    pub read_timeout: Option<Duration>,
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
    /// Worker shards (`--shards`, clamped to at least 1). Site ownership is
    /// a pure function of `(shard_seed, site name, shards)`, so the same
    /// flags re-shard identically across restarts.
    pub shards: usize,
    /// Consistent-hash ring seed. Must stay stable across restarts of a
    /// persistent deployment; there is no flag for it on purpose.
    pub shard_seed: u64,
    /// Per-site in-flight ingest sample quota (`--max-inflight-per-site`).
    pub max_inflight_per_site: usize,
    /// Per-shard in-flight ingest sample budget (defaults to 4x the per-site
    /// quota).
    pub max_inflight_per_shard: usize,
    /// How long an ingest admission blocks for credits before the server
    /// answers with a `deferred` overload frame.
    pub admit_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            read_timeout: Some(Duration::from_secs(60)),
            default_policy: MaintenancePolicy::default(),
            data_dir: None,
            plan: None,
            shards: 1,
            shard_seed: crate::shard::DEFAULT_SHARD_SEED,
            max_inflight_per_site: crate::shard::DEFAULT_MAX_INFLIGHT_PER_SITE,
            max_inflight_per_shard: crate::shard::DEFAULT_MAX_INFLIGHT_PER_SITE * 4,
            admit_deadline: crate::shard::DEFAULT_ADMIT_DEADLINE,
            journal_flush: JournalConfig::default().flush_interval,
        }
    }
}

/// Shared server state, visible to every worker.
#[derive(Debug)]
pub struct ServerCtx {
    /// The sharded site registry: N worker shards behind a consistent-hash
    /// ring, each with its own maintenance scheduler and admission gate.
    pub registry: ShardSet,
    /// Per-endpoint counters and latency histograms.
    pub metrics: Metrics,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
    read_timeout: Option<Duration>,
    default_policy: MaintenancePolicy,
    plan: Option<taf_plan::PlannerConfig>,
    workers: usize,
    started: Instant,
    /// The attached snapshot store (`--data-dir`), if persistence is on.
    store: Option<Arc<SiteStore>>,
    /// Journal knobs applied to every site when persistence is on.
    journal: JournalConfig,
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

    /// Builds the `stats` report.
    pub fn stats_report(&self) -> StatsReport {
        StatsReport {
            uptime_s: self.started.elapsed().as_secs_f64(),
            conn_timeouts: self.metrics.conn_timeouts(),
            conn_resets: self.metrics.conn_resets(),
            conn_panics: self.metrics.conn_panics(),
            wire_frame_too_large: self.metrics.wire_frame_too_large(),
            wire_bad_magic: self.metrics.wire_bad_magic(),
            wire_checksum_mismatch: self.metrics.wire_checksum_mismatch(),
            wire_bad_utf8: self.metrics.wire_bad_utf8(),
            wire_malformed: self.metrics.wire_malformed(),
            endpoints: self.metrics.report(),
            sites: self.registry.site_stats(),
            shards: self.registry.shard_stats(),
        }
    }

    /// The snapshot store backing `--data-dir`, if persistence is on.
    pub fn store(&self) -> Option<&Arc<SiteStore>> {
        self.store.as_ref()
    }

    /// Attaches durability to a freshly registered site: a clean write-ahead
    /// journal (leftover segments from a previous site of the same name are
    /// discarded — their records describe a system that no longer exists)
    /// and the snapshot store, which persists generation 0 immediately.
    fn attach_durability(&self, site: Site) -> Result<Site> {
        let Some(store) = &self.store else {
            return Ok(site);
        };
        let stem = SiteStore::stem(site.name());
        let (journal, recovery) = Journal::open(store.dir(), &stem, self.journal, 0)?;
        if !recovery.records.is_empty() {
            journal.prune(journal.last_seq())?;
        }
        site.with_journal(Arc::new(journal)).with_persistence(Arc::clone(store))
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
            registry: ShardSet::new(ShardConfig {
                shards: config.shards,
                seed: config.shard_seed,
                admission: AdmissionConfig {
                    max_inflight_per_site: config.max_inflight_per_site,
                    max_inflight_per_shard: config.max_inflight_per_shard,
                    admit_deadline: config.admit_deadline,
                },
            }),
            metrics: Metrics::new(),
            shutdown: AtomicBool::new(false),
            local_addr,
            read_timeout: config.read_timeout,
            default_policy: config.default_policy,
            plan: config.plan,
            workers: config.workers.max(1),
            started: Instant::now(),
            store,
            journal: JournalConfig {
                flush_interval: config.journal_flush,
                ..JournalConfig::default()
            },
        });
        Ok(Server { listener, ctx })
    }

    /// Recovers every persisted site from the configured `data_dir` into the
    /// registry (no-op without one). Each site comes back at its last
    /// committed generation with its plan schedule, survey history, and
    /// solver warm state; the write-ahead journal is then replayed through
    /// the normal ingest pipeline, so survey-path records admitted after the
    /// last commit (and their not-yet-refreshed pending columns) survive a
    /// crash too. Corrupt or truncated snapshot files are skipped and
    /// reported, never fatal. Returns the recovered site names and the
    /// files that had to be skipped.
    pub fn recover_sites(&self) -> Result<(Vec<String>, Vec<crate::store::RecoveryIssue>)> {
        let Some(store) = &self.ctx.store else {
            return Ok((Vec::new(), Vec::new()));
        };
        let recovery = store.recover_all()?;
        let mut names = Vec::with_capacity(recovery.sites.len());
        for persisted in recovery.sites {
            let name = persisted.name.clone();
            let watermark = persisted.journal_watermark;
            let mut site = Site::from_persisted(persisted, tafloc_ingest::ClockMode::default())?;
            if let Some(plan) = self.ctx.plan {
                site = site.with_planning(plan)?;
            }
            let (journal, jrec) =
                Journal::open(store.dir(), &SiteStore::stem(&name), self.ctx.journal, watermark)?;
            let site = site.with_journal(Arc::new(journal));
            site.replay_journal(&jrec.records);
            let site = site.with_persistence(Arc::clone(store))?;
            self.ctx.registry.add(site)?;
            names.push(name);
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
        let policy = self.ctx.default_policy;
        let mut site = self.ctx.attach_durability(Site::new(name, system, day, policy)?)?;
        if let Some(plan) = self.ctx.plan {
            site = site.with_planning(plan)?;
        }
        self.ctx.registry.add(site)?;
        Ok(())
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
    /// `shutdown` request to initiate it.
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
    stream.set_read_timeout(ctx.read_timeout)?;
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
        let endpoint = request.endpoint();
        let shutdown_requested = matches!(request, Request::Shutdown);
        let start = Instant::now();
        let response = dispatch(request, ctx);
        let ok = !matches!(response, Response::Error { .. });
        ctx.metrics.record(endpoint, start.elapsed(), ok);
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
        Request::Stats => Response::Stats { report: ctx.stats_report() },
        Request::ListSites => {
            Response::Sites { sites: ctx.registry.list().iter().map(|s| s.info()).collect() }
        }
        Request::AddSite { site, snapshot, day, policy } => {
            let system = match TafLoc::from_snapshot(*snapshot) {
                Ok(s) => s,
                Err(e) => return err_response(e.into()),
            };
            let links = system.db().num_links();
            let cells = system.db().num_cells();
            let policy = policy.unwrap_or(ctx.default_policy);
            let built = Site::new(&site, system, day, policy)
                .and_then(|s| ctx.attach_durability(s))
                .and_then(|s| match ctx.plan {
                    Some(plan) => s.with_planning(plan),
                    None => Ok(s),
                });
            match built.and_then(|s| ctx.registry.add(s)) {
                Ok(_) => Response::SiteAdded { site, links, cells },
                Err(e) => err_response(e),
            }
        }
        Request::RemoveSite { site } => match ctx.registry.remove(&site) {
            Ok(_) => Response::SiteRemoved { site },
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
        Request::Track { site, stream, y, dt_s } => {
            match ctx.registry.get(&site).and_then(|s| s.track(&stream, &y, dt_s)) {
                Ok(est) => Response::Tracked {
                    x: est.point.x,
                    y: est.point.y,
                    effective_sample_size: est.effective_sample_size,
                },
                Err(e) => err_response(e),
            }
        }
        Request::Detect { site, stream, y } => {
            match ctx.registry.get(&site).and_then(|s| s.detect(&stream, &y)) {
                Ok(det) => {
                    Response::Detected { present: det.is_present(), detail: detection_detail(&det) }
                }
                Err(e) => err_response(e),
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
