//! `capture`: the paper's testbed, durable (snapshot store plus journal with
//! the default 25 ms group commit), no planner. One client thread on one v1
//! connection streams reference-capture rounds back to back: each reference
//! cell's 20 s capture at 1 Hz per link goes out as 64-sample `ingest`
//! batches (the op), followed by one v1 `locate` (the read). After each round
//! the benchmark promotes it by ticking the site; it never refreshes.

use crate::inputs::{self, Query, Rng, Survey, BATCH};
use crate::kernel::SpeedLog;
use crate::report::{self, Counts, Pass, SEGMENTS};
use crate::rig::{batch_of, check_ingested, check_located, scratch_dir, Rig, RigSpec, Tally, SITE};
use crate::trace::{Tracer, NO_PARENT};
use crate::{host, replay};
use std::hint::black_box;
use std::time::Instant;
use tafloc_ingest::Ingestor;
use tafloc_serve::client::Client;
use tafloc_serve::journal::{Journal, JournalConfig, JournalRecord};
use tafloc_serve::protocol::Request;
use tafloc_serve::server::dispatch;
use tafloc_serve::store::SiteStore;
use tafloc_serve::wire::WireVersion;

/// Capture rounds per second of `--seconds` (sized on a 2-vCPU host).
pub const ROUNDS_PER_S: f64 = 180.0;
/// Distinct seeded capture rounds the run cycles through.
const ROUND_POOL: usize = 8;
/// Distinct seeded read queries.
const READ_QUERIES: usize = 256;
/// Evaluation points per cell behind `loc_error_m` (1,536 in all).
const EVAL_PER_CELL: usize = 16;
/// Batches between two timings of the reference kernel.
const KERNEL_EVERY: u32 = 8;

/// One capture round: per reference slot, its batches in send order.
struct Round {
    slots: Vec<Vec<Request>>,
}

/// Everything a run sends, generated from the seed before any timing.
pub struct Inputs {
    survey: Survey,
    pool: Vec<Round>,
    reads: Vec<Query>,
    read_requests: Vec<Request>,
    eval: Vec<Query>,
    rounds: usize,
}

/// Generates the inputs of a run of `rounds` capture rounds.
pub fn inputs(seed: u64, rounds: usize) -> Inputs {
    let world = inputs::testbed();
    let survey = Survey::day0(&world);
    let refs = survey.calibrate().reference_cells().to_vec();
    let pool = (0..ROUND_POOL)
        .map(|j| {
            let day = (j + 1) as f64;
            let slots = refs
                .iter()
                .enumerate()
                .map(|(k, &cell)| {
                    let mut rng = Rng::new(seed, 100 + (j * 16 + k) as u64);
                    inputs::capture_stream(&world, day, cell, &mut rng)
                        .chunks(BATCH)
                        .map(|c| Request::Ingest {
                            site: SITE.to_string(),
                            ref_cell: Some(k),
                            day,
                            samples: c.to_vec(),
                        })
                        .collect()
                })
                .collect();
            Round { slots }
        })
        .collect();
    let reads = inputs::queries(&world, 0.0, READ_QUERIES, &mut Rng::new(seed, 3));
    let read_requests =
        reads.iter().map(|q| Request::Locate { site: SITE.to_string(), y: q.y.clone() }).collect();
    let eval = inputs::eval_set(&world, 0.0, EVAL_PER_CELL, &mut Rng::new(seed, 2));
    Inputs { survey, pool, reads, read_requests, eval, rounds }
}

struct Setup {
    rig: Rig,
    v1: Client,
}

/// Calibrate, bind, register durably (generation 0 saved, journal opened),
/// connect, warm up with one promoted pass over the round pool and one over
/// the reads.
fn setup(inp: &Inputs) -> (Setup, f64) {
    let start = Instant::now();
    let rig = Rig::start(inp.survey.calibrate(), RigSpec { durable: true, plan: None });
    let mut v1 = rig.connect(WireVersion::V1Json);
    for round in &inp.pool {
        for req in round.slots.iter().flatten() {
            v1.call(req).expect("warm-up capture batch");
        }
        rig.site.maintenance_tick().expect("warm-up round promotes");
    }
    for req in &inp.read_requests {
        v1.call(req).expect("warm-up locate");
    }
    (Setup { rig, v1 }, start.elapsed().as_secs_f64())
}

/// Scratch copies of the write path for the traced pass.
struct Scratch {
    captures: Vec<Ingestor>,
    journal: Journal,
    links: usize,
}

impl Scratch {
    fn new(links: usize, refs: usize) -> Scratch {
        let (journal, _) =
            Journal::open(&scratch_dir("trace-journal"), "replay", JournalConfig::default(), 0)
                .expect("scratch journal opens");
        Scratch { captures: replay::capture_windows(links, refs), journal, links }
    }
}

/// One pass over the op sequence (see [`crate::locate::pass`]).
pub fn pass(inp: &Inputs, traced: bool, extra_setups: bool) -> Pass {
    let mut out = Pass::default();
    let (mut s, first) = setup(inp);
    out.setup_s.push(first);
    let site = std::sync::Arc::clone(&s.rig.site);
    let ctx = std::sync::Arc::clone(s.rig.ctx());
    let journal = std::sync::Arc::clone(site.journal().expect("durable site has a journal"));
    let snap = site.load();
    let (refs, links) = (snap.system.reference_cells().len(), snap.system.db().num_links());
    let full = (refs * links) as u64;
    let expected: Vec<usize> = inp
        .reads
        .iter()
        .map(|q| snap.system.localize(&q.y).expect("query localizes").cell)
        .collect();
    let mut tally = Tally::default();
    let mut counts = Counts::default();
    let mut tracer = traced.then(|| Tracer::new(Instant::now()));
    let mut scratch = traced.then(|| Scratch::new(links, refs));
    let mut wire = replay::WireBytes::default();
    if let (Some(tr), Some(_)) = (tracer.as_mut(), scratch.as_ref()) {
        // Generation 0 was saved at registration; replay that save.
        let store = SiteStore::open(scratch_dir("trace-store")).expect("scratch store opens");
        let persisted = site.to_persisted();
        let (path, _) = tr.time("serve.store.save", 0, NO_PARENT, || store.save(&persisted));
        let bytes = std::fs::metadata(path.expect("scratch save")).map_or(0, |m| m.len());
        out.layer.insert("serve.store.snapshot_bytes", bytes as f64);
    }
    let shard0 = Counts::shards(&s.rig);
    let seq0 = journal.last_seq();
    let stats0 = site.stats();
    let (mut op_id, mut read_id) = (0u32, 0u32);
    let mut speed = SpeedLog::default();

    for seg in 0..SEGMENTS {
        let cpu0 = host::cpu_seconds();
        for r in report::segment(inp.rounds, seg) {
            let round = &inp.pool[r % ROUND_POOL];
            for (k, batches) in round.slots.iter().enumerate() {
                for req in batches {
                    if op_id % KERNEL_EVERY == 0 {
                        speed.sample();
                    }
                    let (_, day, samples) = batch_of(req);
                    let before = journal.last_seq();
                    let t0 = Instant::now();
                    let reply = s.v1.call(req);
                    let t1 = Instant::now();
                    out.op_us.push((t1 - t0).as_nanos() as f64 / 1e3);
                    counts.samples_sent += samples.len() as u64;
                    let checked = check_ingested(&reply, samples.len()).and_then(|accepted| {
                        let after = journal.last_seq();
                        if after == before + 1 {
                            Ok(accepted)
                        } else {
                            Err(format!("journal moved from {before} to {after} for a batch"))
                        }
                    });
                    match checked {
                        Ok(accepted) => {
                            counts.samples_accepted += accepted;
                            tally.op(Ok(()));
                        }
                        Err(e) => tally.op(Err(e)),
                    }
                    op_id += 1;
                    let (Some(tr), Some(sc), Ok(reply)) =
                        (tracer.as_mut(), scratch.as_mut(), &reply)
                    else {
                        continue;
                    };
                    let op = tr.push("op", op_id, NO_PARENT, t0);
                    tr.close(op, t1);
                    let (b, _) =
                        tr.time("wire.v1.codec", op_id, op, || replay::codec_v1(req, reply));
                    wire.req += b.req;
                    wire.resp += b.resp;
                    tr.time("wire.v2.codec", op_id, NO_PARENT, || replay::codec_v2(req, reply));
                    tr.time("ingest.apply", op_id, op, || {
                        black_box(sc.captures[k].apply_batch(samples))
                    });
                    tr.time("serve.journal.append", op_id, op, || {
                        let rec =
                            JournalRecord::RefBatch { ref_slot: k, day, samples: samples.to_vec() };
                        sc.journal.append(&rec).expect("scratch append")
                    });
                }
                let q = read_id as usize % READ_QUERIES;
                let req = &inp.read_requests[q];
                let t0 = Instant::now();
                let reply = s.v1.call(req);
                let t1 = Instant::now();
                out.read_us.push((t1 - t0).as_nanos() as f64 / 1e3);
                tally.op(check_located(&reply, expected[q], snap.version));
                read_id += 1;
                let (Some(tr), Ok(reply)) = (tracer.as_mut(), &reply) else { continue };
                let read = tr.push("read", read_id, NO_PARENT, t0);
                tr.close(read, t1);
                tr.time("wire.read.codec", read_id, read, || replay::codec_v1(req, reply));
                let y = &inp.reads[q].y;
                let (_, d) = tr.time("serve.dispatch", read_id, read, || {
                    black_box(dispatch(req.clone(), &ctx))
                });
                let (_, l) = tr.time("serve.site.locate", read_id, d, || black_box(site.locate(y)));
                tr.time("core.localize", read_id, l, || {
                    black_box(snap.system.localize(y)).expect("replayed localize")
                });
            }
            let actual = site.stats().actual_cost;
            let tick_start = Instant::now();
            let tick = site.maintenance_tick();
            let tick_end = Instant::now();
            match tick {
                Ok(None) if site.stats().actual_cost == actual + full => counts.rounds += 1,
                other => tally.fail(format!("capture round {r} did not promote: {other:?}")),
            }
            let (Some(tr), Some(sc)) = (tracer.as_mut(), scratch.as_mut()) else { continue };
            let promote = tr.push("serve.site.promote", op_id, NO_PARENT, tick_start);
            tr.close(promote, tick_end);
            for capture in &sc.captures {
                tr.time("ingest.assemble", op_id, promote, || {
                    black_box(capture.assemble(snap.system.empty_rss())).expect("replayed assemble")
                });
            }
            tr.time("serve.journal.sync", op_id, promote, || {
                sc.journal.sync().expect("scratch sync")
            });
            sc.captures = replay::capture_windows(sc.links, refs);
            sc.journal.prune(sc.journal.last_seq()).expect("scratch prune");
        }
        out.cpu_s += host::cpu_seconds() - cpu0;
        if extra_setups {
            let (extra, secs) = setup(inp);
            out.setup_s.push(secs);
            extra.rig.stop(vec![extra.v1]);
        }
    }

    let stats = site.stats();
    out.ops = out.op_us.len() as u64;
    out.scale(&speed, None);
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
        out.layer.insert("wire.req_bytes", wire.req as f64 / out.ops as f64);
        out.layer.insert("wire.resp_bytes", wire.resp as f64 / out.ops as f64);
        out.layer.insert("serve.handler_p50_us", report::handler_p50_us(&s.rig, "ingest"));
        out.tracer = Some(tr);
    }
    out.tally = tally;
    drop((site, ctx, journal, snap));
    s.rig.stop(vec![s.v1]);
    out
}
