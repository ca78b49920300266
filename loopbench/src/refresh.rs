//! `refresh`: the paper's loop on the Fig. 4 floor (12 m x 12 m, 400 cells,
//! 10 links, 10 reference cells), durable, with the uncertainty-greedy
//! planner at a 50% budget. A driver thread runs closed-loop cycles over v2:
//! stream the planned capture round, promote it, send `refresh` and wait for
//! the reply (the op). The drift day advances by 2 per cycle. A second
//! thread sends single v2 `locate`s open-loop at 1,000/s (the reads), each
//! timed from when it was due.

use crate::inputs::{self, Query, Rng, Survey, BATCH};
use crate::kernel::SpeedLog;
use crate::report::{self, Counts, Pass, SEGMENTS};
use crate::rig::{batch_of, check_ingested, scratch_dir, Rig, RigSpec, Tally, SITE};
use crate::trace::{Tracer, NO_PARENT};
use crate::{host, replay};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use taf_plan::{PlanInputs, PlanPolicy, Planner, PlannerConfig};
use taf_rfsim::World;
use tafloc_core::system::SolverCache;
use tafloc_ingest::{Ingestor, LinkSample};
use tafloc_serve::client::Client;
use tafloc_serve::journal::{Journal, JournalConfig, JournalRecord};
use tafloc_serve::maintenance::MaintenancePolicy;
use tafloc_serve::protocol::{Request, Response};
use tafloc_serve::server::{dispatch, ServerCtx};
use tafloc_serve::site::Site;
use tafloc_serve::store::SiteStore;
use tafloc_serve::wire::WireVersion;

/// Cycles per second of `--seconds` (sized on a 2-vCPU host).
pub const CYCLES_PER_S: f64 = 50.0;
/// Share of a full survey each planned round may measure.
const BUDGET_FRACTION: f64 = 0.5;
/// Open-loop read rate.
const READS_PER_S: f64 = 1000.0;
/// Distinct seeded read queries.
const READ_QUERIES: usize = 1024;
/// Evaluation points per cell behind `loc_error_m` (1,600 in all).
const EVAL_PER_CELL: usize = 4;
/// Slack before a read is due that leaves room to time the kernel.
const KERNEL_ROOM: Duration = Duration::from_micros(250);
/// Reads sent while setting up: they warm the read connection, find the
/// worker serving it, and keep the set-up's few file syncs from dominating
/// its time.
const WARMUP_READS: usize = 512;

/// Drift day of the warm-up survey (cycle -1) and of timed cycle `c`.
fn day_of(cycle: Option<usize>) -> f64 {
    2.0 + cycle.map_or(0.0, |c| 2.0 * (c + 1) as f64)
}

/// Everything a run sends, generated from the seed before any timing.
/// Capture streams depend on the drift day, so they are generated per
/// segment, before the segment's timing starts.
pub struct Inputs {
    world: World,
    survey: Survey,
    refs: Vec<usize>,
    warm: Vec<Vec<LinkSample>>,
    reads: Vec<Query>,
    read_requests: Vec<Request>,
    eval: Vec<Query>,
    cycles: usize,
    seed: u64,
    plan: PlannerConfig,
}

/// Generates the inputs of a run of `cycles` cycles.
pub fn inputs(seed: u64, cycles: usize) -> Inputs {
    let world = inputs::fig4_floor();
    let survey = Survey::day0(&world);
    let system = survey.calibrate();
    let refs = system.reference_cells().to_vec();
    let budget = (BUDGET_FRACTION * (refs.len() * system.db().num_links()) as f64).round() as usize;
    let warm = stream_round(&world, &refs, seed, None);
    let reads = inputs::queries(&world, 0.0, READ_QUERIES, &mut Rng::new(seed, 3));
    let read_requests =
        reads.iter().map(|q| Request::Locate { site: SITE.to_string(), y: q.y.clone() }).collect();
    // A second handle on the same floor, so evaluating at the last day does
    // not rewind the drift caches the capture streams advance through.
    let last_day = day_of(cycles.checked_sub(1));
    let eval =
        inputs::eval_set(&inputs::fig4_floor(), last_day, EVAL_PER_CELL, &mut Rng::new(seed, 2));
    let plan = PlannerConfig::new(budget, PlanPolicy::UncertaintyGreedy);
    Inputs { world, survey, refs, warm, reads, read_requests, eval, cycles, seed, plan }
}

/// Every reference cell's capture stream for one cycle (`None`: warm-up).
fn stream_round(
    world: &World,
    refs: &[usize],
    seed: u64,
    cycle: Option<usize>,
) -> Vec<Vec<LinkSample>> {
    let c = cycle.map_or(0, |c| c as u64 + 1);
    refs.iter()
        .enumerate()
        .map(|(k, &cell)| {
            let mut rng = Rng::new(seed, 1000 + c * 16 + k as u64);
            inputs::capture_stream(world, day_of(cycle), cell, &mut rng)
        })
        .collect()
}

/// The `ingest` batches of slot `k` that carry `links`.
fn batches(k: usize, day: f64, samples: &[LinkSample], links: &[usize]) -> Vec<Request> {
    let planned: Vec<LinkSample> =
        samples.iter().filter(|s| links.contains(&s.link)).copied().collect();
    planned
        .chunks(BATCH)
        .map(|c| Request::Ingest {
            site: SITE.to_string(),
            ref_cell: Some(k),
            day,
            samples: c.to_vec(),
        })
        .collect()
}

fn refresh_request() -> Request {
    Request::Refresh { site: SITE.to_string() }
}

/// The full-survey warm-up round every set-up sends: all links of every
/// reference cell.
fn warm_batches(inp: &Inputs) -> Vec<Request> {
    let links: Vec<usize> = (0..inp.survey.db.num_links()).collect();
    inp.warm.iter().enumerate().flat_map(|(k, s)| batches(k, day_of(None), s, &links)).collect()
}

struct Setup {
    rig: Rig,
    driver: Client,
    reader: Client,
}

/// Calibrate, bind, register durably with the planner, connect, then the
/// first full-survey cycle including its cold solve.
fn setup(inp: &Inputs) -> (Setup, f64) {
    let warm = warm_batches(inp);
    let start = Instant::now();
    let rig = Rig::start(inp.survey.calibrate(), RigSpec { durable: true, plan: Some(inp.plan) });
    let mut driver = rig.connect(WireVersion::V2Binary);
    let mut reader = rig.connect(WireVersion::V2Binary);
    for req in &warm {
        driver.call(req).expect("warm-up capture batch");
    }
    rig.site.maintenance_tick().expect("warm-up round promotes");
    match driver.call(&refresh_request()) {
        Ok(Response::Refreshed { version: 1, .. }) => {}
        other => panic!("warm-up refresh failed: {other:?}"),
    }
    crate::rig::pin_busiest_worker(crate::rig::placement().reader, || {
        for req in inp.read_requests.iter().take(WARMUP_READS) {
            reader.call(req).expect("warm-up locate");
        }
    });
    (Setup { rig, driver, reader }, start.elapsed().as_secs_f64())
}

/// What the open-loop reader measured over one segment.
#[derive(Default)]
struct Reads {
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    tally: Tally,
    /// CPU the reader thread used (s), spinning included.
    cpu_s: f64,
}

/// Shared, read-only state the reader thread needs.
struct ReadCtx<'a> {
    site: &'a Site,
    ctx: &'a ServerCtx,
    requests: &'a [Request],
    queries: &'a [Query],
}

/// Sends reads at [`READS_PER_S`] until `stop`, each timed from when it was
/// due. A reply's cell must equal `TafLoc::localize` on the snapshot of the
/// version it reports, which is the one loaded just before the send or just
/// after the reply (a cycle takes far longer than a read).
fn read_loop(
    rc: &ReadCtx<'_>,
    client: &mut Client,
    stop: &AtomicBool,
    first: usize,
    speed: &mut SpeedLog,
    mut tracer: Option<&mut Tracer>,
) -> Reads {
    crate::host::pin_thread(0, crate::rig::placement().reader);
    let cpu0 = host::thread_cpu_seconds();
    let mut out = Reads::default();
    let period = Duration::from_secs_f64(1.0 / READS_PER_S);
    let start = Instant::now();
    let mut i = 0u32;
    while !stop.load(Ordering::Acquire) {
        let due = start + period * i;
        let n = first + i as usize;
        let q = n % READ_QUERIES;
        let before = rc.site.load();
        // Time the reference kernel on this CPU while the read is not due.
        if due.saturating_duration_since(Instant::now()) > KERNEL_ROOM {
            speed.sample();
        }
        // Spin rather than sleep: a halted vCPU can take milliseconds to
        // wake on a shared host, which would time the host, not the daemon.
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let sent = Instant::now();
        let reply = client.call(&rc.requests[q]);
        let done = Instant::now();
        let after = rc.site.load();
        out.latency_us.push(done.saturating_duration_since(due).as_nanos() as f64 / 1e3);
        out.late_us.push(sent.saturating_duration_since(due).as_nanos() as f64 / 1e3);
        let y = &rc.queries[q].y;
        out.tally.op(match &reply {
            Ok(Response::Located { cell, version, .. }) => {
                match [&after, &before].into_iter().find(|s| s.version == *version) {
                    Some(snap) => {
                        let want = snap.system.localize(y).expect("query localizes").cell;
                        if *cell == want {
                            Ok(())
                        } else {
                            Err(format!(
                                "read answered cell {cell} at version {version}, expected {want}"
                            ))
                        }
                    }
                    None => Err(format!(
                        "read answered version {version} outside [{}, {}]",
                        before.version, after.version
                    )),
                }
            }
            Ok(other) => Err(format!("read answered {other:?}")),
            Err(e) => Err(format!("read failed: {e}")),
        });
        i += 1;
        let (Some(tr), Ok(reply)) = (tracer.as_deref_mut(), &reply) else { continue };
        let id = n as u32;
        let read = tr.push("read", id, NO_PARENT, sent);
        tr.close(read, done);
        let req = &rc.requests[q];
        tr.time("wire.v2.codec", id, read, || replay::codec_v2(req, reply));
        tr.time("wire.v1.codec", id, NO_PARENT, || replay::codec_v1(req, reply));
        let (_, d) =
            tr.time("serve.dispatch", id, read, || black_box(dispatch(req.clone(), rc.ctx)));
        let (_, l) = tr.time("serve.site.locate", id, d, || black_box(rc.site.locate(y)));
        tr.time("core.localize", id, l, || {
            black_box(after.system.localize(y)).expect("replayed localize")
        });
    }
    out.cpu_s = host::thread_cpu_seconds() - cpu0;
    out
}

/// Replay state of the traced pass: scratch copies of the write path, a
/// solver cache, a store, and a mirror site fed the same rounds whose own
/// `Site::refresh` is timed.
struct Scratch {
    captures: Vec<Ingestor>,
    journal: Journal,
    store: SiteStore,
    cache: SolverCache,
    planner: Planner,
    mirror: Site,
    links: usize,
}

impl Scratch {
    fn new(inp: &Inputs, warm: &[Request]) -> Scratch {
        let links = inp.survey.db.num_links();
        let (journal, _) =
            Journal::open(&scratch_dir("trace-journal"), "replay", JournalConfig::default(), 0)
                .expect("scratch journal opens");
        let store = SiteStore::open(scratch_dir("trace-store")).expect("scratch store opens");
        let mirror_dir = scratch_dir("trace-mirror");
        let (mirror_journal, _) = Journal::open(&mirror_dir, SITE, JournalConfig::default(), 0)
            .expect("mirror journal opens");
        let policy = MaintenancePolicy {
            manual_tick: true,
            auto_refresh: false,
            ..MaintenancePolicy::default()
        };
        let mirror = Site::new(SITE, inp.survey.calibrate(), 0.0, policy)
            .expect("mirror site")
            .with_journal(Arc::new(mirror_journal))
            .with_persistence(Arc::new(SiteStore::open(&mirror_dir).expect("mirror store opens")))
            .expect("mirror persists generation 0")
            .with_planning(inp.plan)
            .expect("mirror planner");
        for req in warm {
            let (k, day, samples) = batch_of(req);
            mirror.ingest_samples(Some(k), day, samples).expect("mirror capture");
        }
        mirror.maintenance_tick().expect("mirror promotes");
        mirror.refresh().expect("mirror warm-up refresh");
        Scratch {
            captures: replay::capture_windows(links, inp.refs.len()),
            journal,
            store,
            cache: SolverCache::new(),
            planner: Planner::new(inp.plan).expect("planner config is valid"),
            mirror,
            links,
        }
    }
}

/// One pass over the op sequence (see [`crate::locate::pass`]).
pub fn pass(inp: &Inputs, traced: bool, extra_setups: bool) -> Pass {
    let mut out = Pass::default();
    let (mut s, first) = setup(inp);
    out.setup_s.push(first);
    let site = Arc::clone(&s.rig.site);
    let ctx = Arc::clone(s.rig.ctx());
    let journal = Arc::clone(site.journal().expect("durable site has a journal"));
    let epoch = Instant::now();
    let mut tracer = traced.then(|| Tracer::new(epoch));
    let mut scratch = traced.then(|| Scratch::new(inp, &warm_batches(inp)));
    let rc = ReadCtx { site: &site, ctx: &ctx, requests: &inp.read_requests, queries: &inp.reads };
    let mut tally = Tally::default();
    let mut counts = Counts::default();
    let mut wire = replay::WireBytes::default();
    let mut solves: Vec<(f64, f64)> = Vec::new();
    let shard0 = Counts::shards(&s.rig);
    let seq0 = journal.last_seq();
    let stats0 = site.stats();
    let mut version = site.load().version;
    let mut reads_sent = 0usize;
    let rank = site.load().system.config().loli.rank;
    let mut speed = SpeedLog::default();
    let mut read_speed = SpeedLog::default();

    for seg in 0..SEGMENTS {
        let range = report::segment(inp.cycles, seg);
        let streams: Vec<Vec<Vec<LinkSample>>> =
            range.clone().map(|c| stream_round(&inp.world, &inp.refs, inp.seed, Some(c))).collect();
        let stop = AtomicBool::new(false);
        let cpu0 = host::cpu_seconds();
        let mut reader_tracer = traced.then(|| Tracer::new(epoch));
        let reads = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                read_loop(
                    &rc,
                    &mut s.reader,
                    &stop,
                    reads_sent,
                    &mut read_speed,
                    reader_tracer.as_mut(),
                )
            });
            for (c, round) in range.clone().zip(&streams) {
                let day = day_of(Some(c));
                let Some(plan) = site.current_plan() else {
                    tally.fail(format!("cycle {c}: no measurement plan"));
                    continue;
                };
                let reqs: Vec<Request> = plan
                    .entries
                    .iter()
                    .flat_map(|e| batches(e.ref_slot, day, &round[e.ref_slot], &e.links))
                    .collect();
                let pre = traced.then(|| (site.load(), site.to_persisted()));
                let actual0 = site.stats().actual_cost;
                let seq = journal.last_seq();
                let id = c as u32;
                let t0 = Instant::now();
                let mut rts = Vec::with_capacity(reqs.len());
                let mut failure: Option<String> = None;
                for req in &reqs {
                    let b0 = Instant::now();
                    let reply = s.driver.call(req);
                    let b1 = Instant::now();
                    let sent = batch_of(req).2.len();
                    counts.samples_sent += sent as u64;
                    match check_ingested(&reply, sent) {
                        Ok(accepted) => counts.samples_accepted += accepted,
                        Err(e) => {
                            failure.get_or_insert(e);
                        }
                    }
                    rts.push((b0, b1, reply));
                }
                let tick0 = Instant::now();
                let tick = site.maintenance_tick();
                let tick1 = Instant::now();
                let reply = s.driver.call(&refresh_request());
                let t1 = Instant::now();
                out.op_us.push((t1 - t0).as_nanos() as f64 / 1e3);
                // Host speed next to the cycle, on the cycle's CPU.
                speed.sample();
                speed.sample();
                if !matches!(tick, Ok(None)) {
                    failure.get_or_insert(format!("promotion tick returned {tick:?}"));
                }
                let mut iterations = None;
                match &reply {
                    Ok(Response::Refreshed { iterations: it, converged, version: v, .. }) => {
                        counts.refreshes += 1;
                        counts.solve_iters += *it as u64;
                        counts.converged += u64::from(*converged);
                        iterations = Some(*it);
                        if *v != version + 1 {
                            failure
                                .get_or_insert(format!("refresh moved version {version} to {v}"));
                        }
                        version = *v;
                    }
                    Ok(Response::Error { message }) => {
                        if message.contains("reject") {
                            counts.guard_rejects += 1;
                        }
                        failure.get_or_insert(format!("refresh answered error: {message}"));
                    }
                    other => {
                        failure.get_or_insert(format!("refresh answered {other:?}"));
                    }
                }
                let actual = site.stats().actual_cost;
                if actual != actual0 + plan.planned_cost as u64 {
                    failure.get_or_insert(format!(
                        "actual cost rose by {} for a plan costing {}",
                        actual - actual0,
                        plan.planned_cost
                    ));
                }
                if journal.last_seq() != seq + reqs.len() as u64 {
                    failure.get_or_insert(format!(
                        "journal took {} records for {} batches",
                        journal.last_seq() - seq,
                        reqs.len()
                    ));
                }
                counts.rounds += 1;
                tally.op(failure.map_or(Ok(()), Err));

                let (Some(tr), Some(sc), Some((pre, pre_persisted)), Ok(reply)) =
                    (tracer.as_mut(), scratch.as_mut(), pre, &reply)
                else {
                    continue;
                };
                let op = tr.push("op", id, NO_PARENT, t0);
                tr.close(op, t1);
                let promote = tr.push("serve.site.promote", id, op, tick0);
                tr.close(promote, tick1);
                let refresh_rt = tr.push("rt.refresh", id, op, tick1);
                tr.close(refresh_rt, t1);
                for (req, (b0, b1, batch_reply)) in reqs.iter().zip(&rts) {
                    let rt = tr.push("rt.ingest", id, op, *b0);
                    tr.close(rt, *b1);
                    let (k, day, samples) = batch_of(req);
                    tr.time("ingest.apply", id, rt, || {
                        black_box(sc.captures[k].apply_batch(samples))
                    });
                    tr.time("serve.journal.append", id, rt, || {
                        let rec =
                            JournalRecord::RefBatch { ref_slot: k, day, samples: samples.to_vec() };
                        sc.journal.append(&rec).expect("scratch append")
                    });
                    if let Ok(batch_reply) = batch_reply {
                        let b = replay::bytes_v2(req, batch_reply);
                        wire.req += b.req;
                        wire.resp += b.resp;
                    }
                    sc.mirror.ingest_samples(Some(k), day, samples).expect("mirror capture");
                }
                let b = replay::bytes_v2(&refresh_request(), reply);
                wire.req += b.req;
                wire.resp += b.resp;
                for e in &plan.entries {
                    let capture = &sc.captures[e.ref_slot];
                    tr.time("ingest.assemble", id, promote, || {
                        black_box(capture.assemble(pre.system.empty_rss()))
                            .expect("replayed assemble")
                    });
                }
                tr.time("serve.journal.sync", id, promote, || {
                    sc.journal.sync().expect("scratch sync")
                });

                let history = pre_persisted.history.as_ref().expect("a planned site keeps history");
                let (columns, mask) =
                    replay::planned_round(&pre.system, history, &plan, &sc.captures);
                let empty = pre.system.empty_rss().to_vec();
                let mut system = pre.system.clone();
                match pre_persisted.warm.clone() {
                    Some(w) => sc.cache.restore(w),
                    None => sc.cache.invalidate(),
                }
                let (rec, solve) = tr.time("core.solve", id, refresh_rt, || {
                    system.reconstruct_db_masked_cached(&columns, &empty, &mask, &mut sc.cache)
                });
                let rec = rec.expect("replayed solve succeeds");
                if iterations != Some(rec.iterations) {
                    tally.fail(format!(
                        "cycle {c}: replayed solve took {} iterations, the daemon {iterations:?}",
                        rec.iterations
                    ));
                }
                let solve_s = tr.spans()[solve as usize].duration_ns() as f64 / 1e9;
                let (m, n) = system.db().rss().shape();
                let mflop = replay::solve_flops(m, n, rank, mask.count(), rec.iterations) / 1e6;
                solves.push((mflop, mflop / solve_s));
                let guard = site.policy().guard;
                let (verdict, _) = tr.time("core.validate", id, refresh_rt, || {
                    black_box(system.validate_reconstruction_masked(&rec, &columns, &mask, &guard))
                });
                if let Err(reason) = verdict {
                    tally.fail(format!(
                        "cycle {c}: the guard rejected the replayed solve: {reason}"
                    ));
                }
                tr.time("core.apply", id, refresh_rt, || {
                    black_box(system.apply_reconstruction(rec, &empty)).expect("replayed apply")
                });

                let post = site.to_persisted();
                let health = site.ingestor().link_statuses();
                let last = post.history.as_ref().map(|h| h.last_surveyed());
                let (next, _) = tr.time("plan.plan", id, refresh_rt, || {
                    sc.planner.plan(&PlanInputs {
                        epoch: post.survey_epoch + 1,
                        n_refs: inp.refs.len(),
                        link_health: &health,
                        confidence: post.last_ref_confidence.as_deref(),
                        last_surveyed: last.as_deref(),
                    })
                });
                if next.ok() != site.current_plan() {
                    tally.fail(format!("cycle {c}: replayed plan differs from the daemon's"));
                }
                let (saved, _) =
                    tr.time("serve.store.save", id, refresh_rt, || sc.store.save(&post));
                let bytes = std::fs::metadata(saved.expect("scratch save")).map_or(0, |m| m.len());
                out.layer.insert("serve.store.snapshot_bytes", bytes as f64);

                sc.mirror.maintenance_tick().expect("mirror promotes");
                let (mirrored, _) =
                    tr.time("serve.site.refresh", id, refresh_rt, || sc.mirror.refresh());
                match mirrored {
                    Ok((report, v)) if v == version && Some(report.iterations) == iterations => {}
                    other => tally.fail(format!("cycle {c}: mirror refresh diverged: {other:?}")),
                }
                sc.captures = replay::capture_windows(sc.links, inp.refs.len());
                sc.journal.prune(sc.journal.last_seq()).expect("scratch prune");
            }
            stop.store(true, Ordering::Release);
            reader.join().expect("reader thread")
        });
        // The reader spins between reads; its thread is the load generator,
        // not the system under test, so its CPU is left out.
        out.cpu_s += host::cpu_seconds() - cpu0 - reads.cpu_s;
        reads_sent += reads.latency_us.len();
        out.read_us.extend(reads.latency_us);
        out.late_us.extend(reads.late_us);
        tally.merge(reads.tally);
        if let (Some(tr), Some(rt)) = (tracer.as_mut(), reader_tracer) {
            tr.absorb(rt);
        }
        if extra_setups {
            let (extra, secs) = setup(inp);
            out.setup_s.push(secs);
            extra.rig.stop(vec![extra.driver, extra.reader]);
        }
    }

    let stats = site.stats();
    out.ops = out.op_us.len() as u64;
    out.scale(&speed, Some(&read_speed));
    out.loc_error_m = inputs::mean_error_m(&site.load().system, &inp.eval);
    out.survey_frac = report::survey_frac(&s.rig);
    out.counts = Counts {
        journal_records: journal.last_seq() - seq0,
        planned_cost: stats.planned_cost - stats0.planned_cost,
        actual_cost: stats.actual_cost - stats0.actual_cost,
        ..counts
    };
    out.counts.admission_since(&s.rig, shard0);
    if let Some(tr) = tracer {
        out.layer.insert("wire.req_bytes", wire.req as f64 / out.ops.max(1) as f64);
        out.layer.insert("wire.resp_bytes", wire.resp as f64 / out.ops.max(1) as f64);
        out.layer.insert("serve.handler_p50_us", report::handler_p50_us(&s.rig, "refresh"));
        let mflop: Vec<f64> = solves.iter().map(|s| s.0).collect();
        let rate: Vec<f64> = solves.iter().map(|s| s.1).collect();
        out.layer.insert("linalg.solve_mflop", crate::stats::median(&mflop));
        out.layer.insert("linalg.mflop_per_s", crate::stats::median(&rate));
        out.tracer = Some(tr);
    }
    out.tally = tally;
    drop((site, ctx, journal, scratch));
    s.rig.stop(vec![s.driver, s.reader]);
    out
}
