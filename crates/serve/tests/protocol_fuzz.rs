//! Randomized robustness fuzz for the wire decoder.
//!
//! The workspace's `proptest` is a compile-only stub, so this is a hand-rolled
//! xorshift fuzzer: hammer [`tafloc_serve::wire::read_request`] with random
//! byte soup — invalid UTF-8, embedded NULs, half-formed JSON, stray v2 magic
//! bytes, pathological newline placement, tiny `BufReader` capacities — and
//! assert the sniffing decoder never panics and always terminates: every
//! message attempt yields `Ok`/`Err` and the stream drains to EOF in bounded
//! steps. Hand-built v2 payloads with hostile element counts check that a
//! decoder never reserves memory its payload cannot back, and counted
//! allocations check that v1 decoding allocates only what the decoded
//! request keeps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufReader, Cursor};
use taf_linalg::Matrix;
use taf_wire::{Codec, Enc};
use tafloc_core::system::TafLocConfig;
use tafloc_ingest::LinkSample;
use tafloc_serve::protocol::Request;
use tafloc_serve::wire::{read_request, v1, v2, write_request, WireVersion};

/// Records, on a thread while it is armed, the largest single allocation
/// and the number of allocations (a `realloc` counts as one).
struct TallyAlloc;

/// What the allocator saw while armed.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    largest: usize,
    count: usize,
}

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static TALLY: Cell<Tally> = const { Cell::new(Tally { largest: 0, count: 0 }) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            TALLY.with(|tally| {
                let t = tally.get();
                tally.set(Tally { largest: t.largest.max(size), count: t.count + 1 });
            });
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` only updates const-initialized
// thread-locals and never allocates.
unsafe impl GlobalAlloc for TallyAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: TallyAlloc = TallyAlloc;

/// Runs `f` with the allocator armed on this thread; returns its result and
/// what it allocated.
fn armed<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    TALLY.with(|tally| tally.set(Tally::default()));
    ARMED.with(|armed| armed.set(true));
    let out = f();
    ARMED.with(|armed| armed.set(false));
    (out, TALLY.with(Cell::get))
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Random bytes, biased toward protocol-shaped trouble: newlines, braces,
/// quotes, backslashes, high bytes that break UTF-8 mid-sequence, and the
/// v2 frame magic so the fuzzer exercises both sniffed paths.
fn gen_input(state: &mut u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let r = xorshift(state);
        let b = match r % 11 {
            0 => b'\n',
            1 => b'{',
            2 => b'}',
            3 => b'"',
            4 => b'\\',
            5 => 0x00,
            6 => 0xC3, // first byte of a 2-byte UTF-8 sequence, often orphaned
            7 => 0xFF, // never valid in UTF-8
            8 => 0xB2, // the v2 frame magic — drops the sniffer into binary mode
            _ => (r >> 8) as u8,
        };
        out.push(b);
    }
    out
}

/// Drain one fuzz input through `read_request` to EOF. Every non-EOF call
/// consumes at least one byte (the sniffed byte in v2 mode, a whole line in
/// v1 mode), so the loop is bounded by the input length.
fn drain(input: Vec<u8>, buf_capacity: usize) -> (usize, usize) {
    let bound = input.len() + 2;
    let mut reader = BufReader::with_capacity(buf_capacity.max(1), Cursor::new(input));
    let mut version = WireVersion::V1Json;
    let (mut oks, mut errs) = (0, 0);
    for _ in 0..bound {
        match read_request(&mut reader, &mut version) {
            Ok(None) => return (oks, errs), // clean EOF
            Ok(Some(_)) => oks += 1,
            Err(_) => errs += 1,
        }
    }
    (oks, errs)
}

#[test]
fn random_byte_soup_never_panics_the_decoder() {
    let mut state = 0x5EED_F00D_u64 | 1;
    for round in 0..200 {
        let len = (xorshift(&mut state) % 4096) as usize;
        let cap = 1 + (xorshift(&mut state) % 64) as usize;
        let input = gen_input(&mut state, len);
        // The assertion is implicit: no panic, and drain() terminates.
        let (oks, errs) = drain(input, cap);
        // Random soup essentially never parses as a valid Request.
        assert!(oks <= errs + 1, "round {round}: {oks} parses from garbage?");
    }
}

#[test]
fn valid_json_islands_in_garbage_stay_framed() {
    // A malformed v1 line must produce an error *and leave the stream framed*:
    // the ping that follows garbage on the same stream is still reachable.
    let mut state = 0xBAD_5EED_u64 | 1;
    for _ in 0..50 {
        let len = (xorshift(&mut state) % 512) as usize;
        let mut garbage = gen_input(&mut state, len);
        // Keep this stream in v1 territory: no newlines inside the garbage
        // line, and no v2 magic that would flip the sniffer into frame mode.
        garbage.retain(|&b| b != b'\n' && b != 0xB2);
        let mut input = garbage;
        input.push(b'\n');
        input.extend_from_slice(b"{\"cmd\":\"ping\"}\n");
        let mut reader = BufReader::with_capacity(7, Cursor::new(input));
        let mut version = WireVersion::V1Json;
        let _first = read_request(&mut reader, &mut version);
        // Whatever the garbage did, the reader must still deliver the next
        // line rather than hanging or tearing mid-line.
        let second = read_request(&mut reader, &mut version);
        if let Ok(Some(req)) = second {
            assert!(matches!(req, Request::Ping));
        }
        // EOF afterwards — nothing left over.
        let third = read_request(&mut reader, &mut version);
        assert!(!matches!(third, Ok(Some(_))), "stream must be drained");
    }
}

#[test]
fn corrupt_v2_frames_leave_the_stream_framed() {
    // Flip one payload byte in a v2 frame: the decoder must report a
    // checksum mismatch (recoverable) and leave the *next* frame readable.
    let mut state = 0xF4A3_u64 | 1;
    for _ in 0..50 {
        let mut first = Vec::new();
        write_request(&mut first, &Request::Shutdown, WireVersion::V2Binary).unwrap();
        // Corrupt a byte inside the payload. The frame is small, so the
        // length prefix is a single uvarint byte: payload = bytes [3, len-4).
        // (Corrupting the *length* would legitimately destroy framing.)
        let idx = 3 + (xorshift(&mut state) as usize) % (first.len() - 7);
        first[idx] ^= 0x41;
        let mut input = first;
        write_request(&mut input, &Request::Ping, WireVersion::V2Binary).unwrap();
        let mut reader = BufReader::with_capacity(5, Cursor::new(input));
        let mut version = WireVersion::V1Json;
        let first = read_request(&mut reader, &mut version);
        assert!(first.is_err(), "corrupted frame must not decode");
        assert_eq!(version, WireVersion::V2Binary, "sniffer must have seen v2");
        // The corrupted frame was length-delimited, so the follow-up ping
        // is intact.
        match read_request(&mut reader, &mut version) {
            Ok(Some(Request::Ping)) => {}
            other => panic!("expected the ping after a corrupt frame, got {other:?}"),
        }
        assert!(matches!(read_request(&mut reader, &mut version), Ok(None)));
    }
}

#[test]
fn truncated_v2_frames_error_cleanly() {
    // Every proper prefix of a valid v2 frame must yield an error or clean
    // EOF — never a panic, never a parsed message.
    let mut full = Vec::new();
    write_request(
        &mut full,
        &Request::Locate { site: "lab".into(), y: vec![-48.0, -51.5, -60.25] },
        WireVersion::V2Binary,
    )
    .unwrap();
    for cut in 0..full.len() {
        let mut reader = BufReader::with_capacity(3, Cursor::new(full[..cut].to_vec()));
        let mut version = WireVersion::V1Json;
        match read_request(&mut reader, &mut version) {
            Ok(Some(req)) => panic!("prefix of {cut} bytes decoded as {req:?}"),
            Ok(None) => assert_eq!(cut, 0, "only the empty prefix is a clean EOF"),
            Err(_) => {}
        }
    }
}

#[test]
fn pathological_newline_runs_terminate_quickly() {
    // Blank lines are skipped inside the v1 reader; a megabyte of newlines
    // must collapse to a single clean EOF, not an error per line.
    let input = vec![b'\n'; 1 << 20];
    let mut reader = BufReader::with_capacity(13, Cursor::new(input));
    let mut version = WireVersion::V1Json;
    match read_request(&mut reader, &mut version) {
        Ok(None) => {}
        other => panic!("expected clean EOF through blank lines, got {other:?}"),
    }
}

/// An element count at the `MAX_ELEMENTS` cap, which the cap alone lets
/// through.
const HOSTILE_COUNT: usize = 1 << 28;

/// v2 payloads whose element counts or matrix shapes promise far more data
/// than they carry.
fn hostile_payloads() -> Vec<(&'static str, bool, Vec<u8>)> {
    let payload = |build: &dyn Fn(&mut Enc)| {
        let mut e = Enc::new();
        build(&mut e);
        e.into_inner()
    };
    vec![
        // 17 bytes: tag, empty site, then the count of `ys`.
        (
            "locate-batch",
            true,
            payload(&|e| {
                e.u8(6);
                e.str("");
                e.usize(HOSTILE_COUNT);
            }),
        ),
        // 26 bytes: tag, empty site, no ref cell, day, then the sample count.
        (
            "ingest",
            true,
            payload(&|e| {
                e.u8(7);
                e.str("");
                e.u8(0);
                e.f64(0.0);
                e.usize(HOSTILE_COUNT);
            }),
        ),
        (
            "locate",
            true,
            payload(&|e| {
                e.u8(4);
                e.str("");
                e.usize(HOSTILE_COUNT);
            }),
        ),
        (
            "remove-site name",
            true,
            payload(&|e| {
                e.u8(2);
                e.usize(HOSTILE_COUNT);
            }),
        ),
        // An add-site snapshot whose fingerprint database claims 2^28 links.
        (
            "add-site links",
            true,
            payload(&|e| {
                e.u8(1);
                e.str("");
                TafLocConfig::default().encode(e);
                e.matrix(&Matrix::zeros(0, 0));
                e.usize(HOSTILE_COUNT);
            }),
        ),
        (
            "measure-refs shape",
            true,
            payload(&|e| {
                e.u8(10);
                e.str("");
                e.f64(0.0);
                e.usize(1 << 14);
                e.usize(1 << 14);
            }),
        ),
        (
            "sites",
            false,
            payload(&|e| {
                e.u8(4);
                e.usize(HOSTILE_COUNT);
            }),
        ),
        (
            "located-batch",
            false,
            payload(&|e| {
                e.u8(7);
                e.usize(HOSTILE_COUNT);
            }),
        ),
        // Stats: uptime and the eight connection/wire counters, then the
        // endpoint count.
        (
            "stats endpoints",
            false,
            payload(&|e| {
                e.u8(13);
                e.f64(0.0);
                for _ in 0..8 {
                    e.u64(0);
                }
                e.usize(HOSTILE_COUNT);
            }),
        ),
    ]
}

#[test]
fn hostile_counts_never_drive_a_large_allocation() {
    const LIMIT: usize = 1 << 20;
    for (name, is_request, payload) in hostile_payloads() {
        let (decoded, Tally { largest, .. }) = armed(|| {
            if is_request {
                v2::decode_request(&payload).map(|_| ())
            } else {
                v2::decode_response(&payload).map(|_| ())
            }
        });
        assert!(
            decoded.is_err(),
            "{name}: a {}-byte payload cannot hold its elements",
            payload.len()
        );
        assert!(
            largest <= LIMIT,
            "{name}: {}-byte payload allocated {largest} bytes at once",
            payload.len()
        );
    }
}

#[test]
fn an_empty_matrix_of_any_shape_still_decodes() {
    // A 100x0 matrix holds no data, so its shape needs no payload behind it,
    // even where its row count exceeds the bytes left.
    let req = Request::MeasureRefs {
        site: "lab".into(),
        day: 1.0,
        columns: Matrix::zeros(100, 0),
        empty: vec![],
    };
    let mut payload = Vec::new();
    v2::encode_request(&req, &mut payload);
    match v2::decode_request(&payload) {
        Ok(Request::MeasureRefs { columns, .. }) => assert_eq!(columns.shape(), (100, 0)),
        other => panic!("expected the 100x0 measure-refs back, got {other:?}"),
    }
}

#[test]
fn v1_decoding_allocates_only_what_the_request_keeps() {
    // A capture batch as the reference-capture rounds send it, and a locate
    // on a 10-link site. Decoding keeps the site name and one vector, whose
    // growth reallocates a few times; nothing else may allocate.
    let ingest = Request::Ingest {
        site: "lab".into(),
        ref_cell: Some(3),
        day: 12.5,
        samples: (0..64)
            .map(|i| LinkSample {
                link: i % 10,
                t_s: 0.25 * i as f64,
                rss_dbm: -48.5 - 0.37 * i as f64,
            })
            .collect(),
    };
    let locate = Request::Locate {
        site: "lab".into(),
        y: (0..10).map(|i| -50.0 - 1.3 * i as f64).collect(),
    };
    for (name, req, limit) in [("ingest", ingest, 16), ("locate", locate, 6)] {
        let mut line = Vec::new();
        v1::encode_request(&req, &mut line);
        let text = std::str::from_utf8(&line).unwrap();
        let (decoded, Tally { count, .. }) = armed(|| v1::decode_request(text));
        let mut again = Vec::new();
        v1::encode_request(&decoded.unwrap(), &mut again);
        assert_eq!(again, line, "{name}: the decoded request re-encodes to its line");
        assert!(
            count <= limit,
            "{name}: decoding a {}-byte line made {count} allocations, more than {limit}",
            line.len()
        );
    }
}
