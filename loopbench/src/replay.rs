//! Replays used by the traced run: an op's inputs pushed again, outside its
//! timed interval, through the entry points the daemon itself uses, so each
//! layer's share can be timed from the benchmark's own code.

use std::hint::black_box;
use taf_linalg::Matrix;
use taf_plan::{HistoryWindow, MeasurementPlan};
use taf_wire::frame;
use tafloc_core::mask::Mask;
use tafloc_core::system::TafLoc;
use tafloc_ingest::{IngestConfig, Ingestor};
use tafloc_serve::protocol::{Request, Response};
use tafloc_serve::wire::{v1, v2};

/// Bytes one message pair occupies on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireBytes {
    /// Request frame, framing included.
    pub req: usize,
    /// Reply frame, framing included.
    pub resp: usize,
}

/// v1 at both ends: the client encodes the request, the server decodes it,
/// the server encodes the reply, the client decodes it.
pub fn codec_v1(req: &Request, resp: &Response) -> WireBytes {
    let mut line = Vec::with_capacity(256);
    v1::encode_request(req, &mut line);
    line.push(b'\n');
    let text = std::str::from_utf8(&line).expect("v1 frames are UTF-8");
    black_box(v1::decode_request(text.trim()).expect("v1 request round-trips"));
    let mut reply = Vec::with_capacity(256);
    v1::encode_response(resp, &mut reply);
    reply.push(b'\n');
    let text = std::str::from_utf8(&reply).expect("v1 frames are UTF-8");
    black_box(v1::decode_response(text.trim()).expect("v1 reply round-trips"));
    WireBytes { req: line.len(), resp: reply.len() }
}

/// v2 at both ends, checksummed framing included.
pub fn codec_v2(req: &Request, resp: &Response) -> WireBytes {
    let req_frame = frame_v2(|buf| v2::encode_request(req, buf));
    black_box(v2::decode_request(&unframe_v2(&req_frame)).expect("v2 request round-trips"));
    let resp_frame = frame_v2(|buf| v2::encode_response(resp, buf));
    black_box(v2::decode_response(&unframe_v2(&resp_frame)).expect("v2 reply round-trips"));
    WireBytes { req: req_frame.len(), resp: resp_frame.len() }
}

/// Wire bytes of a message pair in v2, without timing anything.
pub fn bytes_v2(req: &Request, resp: &Response) -> WireBytes {
    WireBytes {
        req: frame_v2(|buf| v2::encode_request(req, buf)).len(),
        resp: frame_v2(|buf| v2::encode_response(resp, buf)).len(),
    }
}

fn frame_v2(encode: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut payload = Vec::with_capacity(256);
    encode(&mut payload);
    let mut framed = Vec::with_capacity(payload.len() + 16);
    frame::write_frame(&mut framed, &payload).expect("writing to memory cannot fail");
    framed
}

fn unframe_v2(framed: &[u8]) -> Vec<u8> {
    let mut reader = framed;
    assert_eq!(frame::sniff(&mut reader).expect("in-memory read"), frame::Sniff::V2);
    let mut payload = Vec::new();
    frame::read_frame(&mut reader, &mut payload, frame::MAX_FRAME_BYTES)
        .expect("frame round-trips");
    payload
}

/// One empty capture window per reference slot, configured as a site
/// configures its own.
pub fn capture_windows(links: usize, refs: usize) -> Vec<Ingestor> {
    (0..refs)
        .map(|_| {
            Ingestor::new(IngestConfig::default(), links, links.clamp(1, 8)).expect("ingestor")
        })
        .collect()
}

/// The pending reference columns a promotion builds from a planned capture
/// round: each slot's newest surveyed column from history, with the planned
/// links overwritten by what the capture window assembled; the mask marks
/// exactly those planned entries. Mirrors `Site::promote_ref_captures`.
pub fn planned_round(
    system: &TafLoc,
    history: &HistoryWindow,
    plan: &MeasurementPlan,
    captures: &[Ingestor],
) -> (Matrix, Mask) {
    let m = system.db().num_links();
    let refs = system.reference_cells();
    let mut columns = Matrix::zeros(m, refs.len());
    let mut mask = Mask::falses(m, refs.len());
    for (k, &cell) in refs.iter().enumerate() {
        let mut y = match history.latest(k) {
            Some(r) => r.y.clone(),
            None => system.db().rss().col(cell),
        };
        if let Some(links) = plan.links_for(k) {
            let v = captures[k].assemble(system.empty_rss()).expect("capture window assembles");
            for &l in links {
                y[l] = v.y[l];
                mask.set(l, k, true);
            }
        }
        columns.set_col(k, &y).expect("column has one entry per link");
    }
    (columns, mask)
}

/// Estimated floating-point operations of one LoLi-IR solve: the counted
/// work formula of `solver_bench` (dense products, Gram matrices, data
/// terms and per-block Cholesky factorizations per iteration).
pub fn solve_flops(m: usize, n: usize, r: usize, observed: usize, iterations: usize) -> f64 {
    let dense = 3.0 * 2.0 * (m * n * r) as f64;
    let grams = 2.0 * 2.0 * ((m + n) * r * r) as f64;
    let data = 2.0 * 2.0 * (observed * r * r) as f64;
    let chol = (m + n) as f64 * (2.0 * (r * r * r) as f64 / 3.0 + 4.0 * (r * r) as f64);
    iterations as f64 * (dense + grams + data + chol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tafloc_ingest::LinkSample;

    #[test]
    fn codecs_round_trip_and_count_framing() {
        let req = Request::Locate { site: "bench".into(), y: vec![-50.5, -61.25] };
        let resp = Response::Located { cell: 3, x: 1.5, y: 2.0, distance_db: 0.5, version: 2 };
        let b1 = codec_v1(&req, &resp);
        let mut line = Vec::new();
        v1::encode_request(&req, &mut line);
        assert_eq!(b1.req, line.len() + 1, "v1 counts the newline");
        let b2 = codec_v2(&req, &resp);
        assert_eq!(b2, bytes_v2(&req, &resp));
        // Two raw f64s plus tag, site and framing.
        assert!(b2.req > 16 && b2.req < 64, "v2 request is {} bytes", b2.req);
        let batch = Request::Ingest {
            site: "bench".into(),
            ref_cell: Some(1),
            day: 3.0,
            samples: vec![LinkSample::new(0, 0.5, -40.0); 64],
        };
        let report = Response::Ingested { report: Default::default() };
        assert!(codec_v1(&batch, &report).req > codec_v2(&batch, &report).req);
    }

    #[test]
    fn flops_scale_with_iterations() {
        assert_eq!(solve_flops(10, 400, 8, 50, 0), 0.0);
        let one = solve_flops(10, 400, 8, 50, 1);
        assert!(one > 0.0);
        assert_eq!(solve_flops(10, 400, 8, 50, 5), 5.0 * one);
    }
}
