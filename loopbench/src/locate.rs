//! `locate`: the paper's testbed served from memory and never refreshed.
//! One client thread keeps one request in flight, alternating a v1 `locate`
//! (the op) with a v2 `locate` of the same query (the read).

use crate::inputs::{self, Query, Rng, Survey};
use crate::kernel::SpeedLog;
use crate::report::{Counts, Pass, SEGMENTS};
use crate::rig::{check_located, Rig, RigSpec, Tally, SITE};
use crate::trace::{Tracer, NO_PARENT};
use crate::{host, replay};
use std::hint::black_box;
use std::time::Instant;
use tafloc_serve::client::Client;
use tafloc_serve::protocol::Request;
use tafloc_serve::server::dispatch;
use tafloc_serve::wire::WireVersion;

/// v1 + v2 pairs per second of `--seconds` (sized on a 2-vCPU host).
pub const PAIRS_PER_S: f64 = 12000.0;
/// Distinct seeded queries the ops cycle through.
const QUERIES: usize = 1024;
/// Evaluation points per cell behind `loc_error_m` (1,536 in all).
const EVAL_PER_CELL: usize = 16;
/// Warm-up pairs in every set-up.
const WARMUP_PAIRS: usize = 1024;
/// Pairs between two timings of the reference kernel.
const KERNEL_EVERY: usize = 16;

/// Everything a run sends, generated from the seed before any timing.
pub struct Inputs {
    survey: Survey,
    queries: Vec<Query>,
    requests: Vec<Request>,
    eval: Vec<Query>,
    pairs: usize,
}

/// Generates the inputs of a run of `pairs` ops.
pub fn inputs(seed: u64, pairs: usize) -> Inputs {
    let world = inputs::testbed();
    let queries = inputs::queries(&world, 0.0, QUERIES, &mut Rng::new(seed, 1));
    let requests = queries
        .iter()
        .map(|q| Request::Locate { site: SITE.to_string(), y: q.y.clone() })
        .collect();
    let eval = inputs::eval_set(&world, 0.0, EVAL_PER_CELL, &mut Rng::new(seed, 2));
    Inputs { survey: Survey::day0(&world), queries, requests, eval, pairs }
}

struct Setup {
    rig: Rig,
    v1: Client,
    v2: Client,
}

/// Calibrate, bind, register, connect, warm up: the timed set-up.
fn setup(inp: &Inputs) -> (Setup, f64) {
    let start = Instant::now();
    let rig = Rig::start(inp.survey.calibrate(), RigSpec { durable: false, plan: None });
    let mut v1 = rig.connect(WireVersion::V1Json);
    let mut v2 = rig.connect(WireVersion::V2Binary);
    for req in inp.requests.iter().cycle().take(WARMUP_PAIRS) {
        v1.call(req).expect("warm-up locate over v1");
        v2.call(req).expect("warm-up locate over v2");
    }
    (Setup { rig, v1, v2 }, start.elapsed().as_secs_f64())
}

impl Setup {
    fn stop(self) {
        self.rig.stop(vec![self.v1, self.v2]);
    }
}

/// One pass over the op sequence. `extra_setups` repeats the set-up between
/// segments (untraced passes report the median set-up time); `traced`
/// records spans and replays each op's layers after it.
pub fn pass(inp: &Inputs, traced: bool, extra_setups: bool) -> Pass {
    let mut out = Pass::default();
    let (mut s, first) = setup(inp);
    out.setup_s.push(first);
    let snap = s.rig.site.load();
    let expected: Vec<usize> = inp
        .queries
        .iter()
        .map(|q| snap.system.localize(&q.y).expect("query localizes").cell)
        .collect();
    let version = snap.version;
    let shard0 = Counts::shards(&s.rig);
    let mut tally = Tally::default();
    let mut tracer = traced.then(|| Tracer::new(Instant::now()));
    let mut wire = replay::WireBytes::default();
    let ctx = std::sync::Arc::clone(s.rig.ctx());
    let mut speed = SpeedLog::default();

    for seg in 0..SEGMENTS {
        let cpu0 = host::cpu_seconds();
        for i in crate::report::segment(inp.pairs, seg) {
            if i % KERNEL_EVERY == 0 {
                speed.sample();
            }
            let q = i % QUERIES;
            let req = &inp.requests[q];
            let t0 = Instant::now();
            let r1 = s.v1.call(req);
            let t1 = Instant::now();
            let r2 = s.v2.call(req);
            let t2 = Instant::now();
            out.op_us.push((t1 - t0).as_nanos() as f64 / 1e3);
            out.read_us.push((t2 - t1).as_nanos() as f64 / 1e3);
            tally.op(check_located(&r1, expected[q], version));
            tally.op(check_located(&r2, expected[q], version));
            let (Some(tr), Ok(r1), Ok(r2)) = (tracer.as_mut(), &r1, &r2) else { continue };
            let id = i as u32;
            let op = tr.push("op", id, NO_PARENT, t0);
            tr.close(op, t1);
            let read = tr.push("read", id, NO_PARENT, t1);
            tr.close(read, t2);
            let (b, _) = tr.time("wire.v1.codec", id, op, || replay::codec_v1(req, r1));
            wire.req += b.req;
            wire.resp += b.resp;
            tr.time("wire.v2.codec", id, read, || replay::codec_v2(req, r2));
            let y = &inp.queries[q].y;
            for parent in [op, read] {
                let request = req.clone();
                let (_, d) =
                    tr.time("serve.dispatch", id, parent, || black_box(dispatch(request, &ctx)));
                let (_, l) =
                    tr.time("serve.site.locate", id, d, || black_box(s.rig.site.locate(y)));
                tr.time("core.localize", id, l, || {
                    black_box(snap.system.localize(y)).expect("replayed localize")
                });
            }
        }
        out.cpu_s += host::cpu_seconds() - cpu0;
        if extra_setups {
            let (extra, secs) = setup(inp);
            out.setup_s.push(secs);
            extra.stop();
        }
    }

    out.ops = inp.pairs as u64;
    out.scale(&speed, None);
    out.loc_error_m = inputs::mean_error_m(&s.rig.site.load().system, &inp.eval);
    out.survey_frac = crate::report::survey_frac(&s.rig);
    out.counts.admission_since(&s.rig, shard0);
    if let Some(tr) = tracer {
        out.layer.insert("wire.req_bytes", wire.req as f64 / inp.pairs as f64);
        out.layer.insert("wire.resp_bytes", wire.resp as f64 / inp.pairs as f64);
        out.layer.insert("serve.handler_p50_us", crate::report::handler_p50_us(&s.rig, "locate"));
        out.tracer = Some(tr);
    }
    drop(snap);
    drop(ctx);
    out.tally = tally;
    s.stop();
    out
}
