//! Wire-format conformance: every `Request`/`Response` variant round-trips
//! through both codecs and reproduces the committed byte corpus
//! (`tests/corpus/`), snapshot files and journal segments match their
//! committed bytes, version negotiation works against a live server
//! (including a v1 client and a v2 client on the same server, and a version
//! switch on one connection), and error frames never break framing.
//!
//! The corpus is the reference for every byte the daemon speaks or stores:
//! v1 lines, v2 payloads and on-disk files. It was committed from the
//! encoders the schema replaced. Every value here is built from literals, so
//! only a codec change can move those bytes.

use std::io::{BufReader, Cursor, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use taf_linalg::Matrix;
use taf_plan::{HistoryWindow, MeasurementPlan, PlanEntry, PlanPolicy, SurveyRecord};
use taf_rfsim::geometry::{Point, Segment};
use taf_rfsim::grid::FloorGrid;
use taf_rfsim::{campaign, World, WorldConfig};
use taf_wire::Codec;
use tafloc_core::db::FingerprintDb;
use tafloc_core::loli_ir::{LoliIrConfig, WarmState};
use tafloc_core::matcher::MatchMethod;
use tafloc_core::monitor::MonitorConfig;
use tafloc_core::reference::ReferenceStrategy;
use tafloc_core::system::{SystemSnapshot, TafLoc, TafLocConfig, ZRefreshPolicy};
use tafloc_core::LrrModel;
use tafloc_ingest::{Aggregator, BatchReport, IngestConfig, IngestStats, LinkSample};
use tafloc_serve::client::Client;
use tafloc_serve::journal::{Journal, JournalConfig, JournalRecord};
use tafloc_serve::maintenance::MaintenancePolicy;
use tafloc_serve::protocol::{
    EndpointStats, Fix, Request, Response, ShardStats, SiteInfo, SiteStats, StatsReport,
};
use tafloc_serve::server::{Server, ServerConfig};
use tafloc_serve::store::{PersistedSite, SiteHealth, SiteStore};
use tafloc_serve::wire::{self, read_response, write_request, WireVersion};

/// A hand-built 4-link x 6-cell snapshot with non-default enum variants.
fn sample_snapshot() -> SystemSnapshot {
    let rss = Matrix::from_fn(4, 6, |i, j| -40.0 - (i * 6 + j) as f64 * 0.25);
    let links = vec![
        Segment::new(Point::new(0.0, 0.0), Point::new(3.0, 0.0)),
        Segment::new(Point::new(0.0, 2.0), Point::new(3.0, 2.0)),
        Segment::new(Point::new(0.0, 0.0), Point::new(0.0, 2.0)),
        Segment::new(Point::new(3.0, 0.0), Point::new(3.0, 2.0)),
    ];
    let grid = FloorGrid::new(Point::new(0.5, 0.5), 1.0, 3, 2);
    let db = FingerprintDb::new(rss, links, grid).unwrap();
    let z = Matrix::from_fn(2, 6, |i, j| 0.125 * (i + 1) as f64 - 0.0625 * j as f64);
    let lrr = LrrModel::from_parts(vec![1, 4], z, 1e-3).unwrap();
    SystemSnapshot {
        config: TafLocConfig {
            ref_count: 2,
            ref_strategy: ReferenceStrategy::Random { seed: 7 },
            matcher: MatchMethod::Probabilistic { sigma_db: 2.5 },
            z_policy: ZRefreshPolicy::RefitAfterUpdate,
            loli: LoliIrConfig { stall_iters: 3, accelerate: true, ..LoliIrConfig::default() },
            ..TafLocConfig::default()
        },
        db,
        ref_cells: vec![1, 4],
        lrr,
        empty_rss: vec![-40.0, -41.0, -42.0, -43.5],
    }
}

/// Every `Request` variant, with representative field values (negative RSS,
/// empty vectors, `None`/`Some` options, a full snapshot).
fn request_corpus() -> Vec<Request> {
    let snapshot = sample_snapshot();
    let policy = MaintenancePolicy { auto_refresh: false, manual_tick: true, ..Default::default() };
    vec![
        Request::AddSite {
            site: "lab".into(),
            snapshot: Box::new(snapshot.clone()),
            day: 12.5,
            policy: Some(policy),
        },
        Request::AddSite {
            site: "attic \"quoted\"\n".into(),
            snapshot: Box::new(SystemSnapshot {
                config: TafLocConfig {
                    ref_strategy: ReferenceStrategy::LeverageScore,
                    matcher: MatchMethod::Knn { k: 3 },
                    ..TafLocConfig::default()
                },
                ..snapshot
            }),
            day: 0.0,
            policy: None,
        },
        Request::RemoveSite { site: "lab".into() },
        Request::ListSites,
        Request::Locate { site: "lab".into(), y: vec![-52.1, -48.7, -60.0] },
        Request::Locate { site: "empty".into(), y: vec![] },
        Request::LocateStream { site: "lab".into() },
        Request::LocateBatch { site: "lab".into(), ys: vec![vec![-50.0, -41.5], vec![]] },
        Request::Ingest {
            site: "lab".into(),
            ref_cell: Some(7),
            day: 45.0,
            samples: vec![
                LinkSample { link: 3, t_s: 1.25, rss_dbm: -61.5 },
                LinkSample { link: 0, t_s: 0.0, rss_dbm: -48.0 },
            ],
        },
        Request::Ingest { site: "lab".into(), ref_cell: None, day: 0.0, samples: vec![] },
        Request::MeasureRefs {
            site: "lab".into(),
            day: 46.0,
            columns: Matrix::from_vec(2, 3, vec![-50.0, -51.0, -52.0, -53.0, -54.0, -55.0])
                .unwrap(),
            empty: vec![-70.0, -71.5],
        },
        Request::Refresh { site: "lab".into() },
        Request::Stats,
        Request::Ping,
        Request::Shutdown,
    ]
}

fn sample_stats_report() -> StatsReport {
    StatsReport {
        uptime_s: 12.75,
        conn_timeouts: 1,
        conn_resets: 2,
        conn_panics: 0,
        wire_frame_too_large: 3,
        wire_bad_magic: 4,
        wire_checksum_mismatch: 5,
        wire_bad_utf8: 6,
        wire_malformed: 7,
        endpoints: vec![EndpointStats {
            endpoint: "locate".into(),
            requests: 100,
            errors: 1,
            p50_us: 120,
            p95_us: 340,
            p99_us: 900,
            max_us: 1500,
        }],
        sites: vec![SiteStats {
            site: "lab".into(),
            version: 3,
            refreshed_day: 45.0,
            pending_refs: true,
            estimated_error_db: Some(1.25),
            maintenance_checks: 9,
            auto_refreshes: 2,
            refresh_rejections: 1,
            last_reject_reason: Some("guard: rmse".into()),
            consecutive_failures: 1,
            quarantined: false,
            tick_panics: 0,
            persist_failures: 0,
            ingest: IngestStats {
                accepted: 500,
                dropped_late: 1,
                dropped_unknown_link: 2,
                dropped_non_finite: 3,
                dropped_queue_batches: 0,
                dropped_queue_samples: 0,
                rejected_outliers: 4,
                link_flaps: 5,
                live_links: 10,
                stale_links: 1,
                dead_links: 0,
                assemblies: 42,
            },
            stream_clock_s: 99.5,
            active_ref_captures: 1,
            planned_cost: 120,
            actual_cost: 80,
            full_survey_cost: 240,
            plan_policy: Some("uncertainty".into()),
            shard: 2,
        }],
        shards: vec![
            ShardStats {
                shard: 0,
                sites: 3,
                queue_depth_samples: 128,
                offered_batches: 40,
                offered_samples: 4000,
                admitted_batches: 30,
                admitted_samples: 3000,
                deferred_batches: 8,
                deferred_samples: 800,
                rejected_batches: 2,
                rejected_samples: 200,
            },
            ShardStats {
                shard: 1,
                sites: 0,
                queue_depth_samples: 0,
                offered_batches: 0,
                offered_samples: 0,
                admitted_batches: 0,
                admitted_samples: 0,
                deferred_batches: 0,
                deferred_samples: 0,
                rejected_batches: 0,
                rejected_samples: 0,
            },
        ],
    }
}

/// Every `Response` variant.
fn response_corpus() -> Vec<Response> {
    vec![
        Response::Error { message: "unknown site \"attic\"".into() },
        Response::SiteAdded { site: "lab".into(), links: 12, cells: 16 },
        Response::SiteRemoved { site: "lab".into() },
        Response::Sites {
            sites: vec![
                SiteInfo { site: "lab".into(), links: 12, cells: 16, version: 3 },
                SiteInfo { site: "attic".into(), links: 4, cells: 4, version: 0 },
            ],
        },
        Response::Sites { sites: vec![] },
        Response::Located { cell: 42, x: 3.9, y: 5.1, distance_db: 2.31, version: 1 },
        Response::StreamLocated {
            cell: 7,
            x: 0.5,
            y: 1.5,
            distance_db: 4.75,
            version: 2,
            missing_links: vec![1, 3],
            stale_links: vec![],
            stream_t_s: 12.25,
            window_samples: 240,
        },
        Response::LocatedBatch {
            fixes: vec![
                Fix { cell: 1, x: 0.0, y: 0.0, distance_db: 1.5 },
                Fix { cell: 2, x: 1.0, y: 0.0, distance_db: 2.5 },
            ],
            version: 4,
        },
        Response::Ingested {
            report: BatchReport {
                accepted: 10,
                dropped_late: 1,
                dropped_unknown_link: 0,
                dropped_non_finite: 2,
            },
        },
        Response::RefsAccepted {
            recommendation: "update-recommended".into(),
            estimated_error_db: 2.5,
        },
        Response::Refreshed {
            iterations: 12,
            converged: true,
            mean_abs_change_db: 0.75,
            version: 5,
        },
        Response::Stats { report: sample_stats_report() },
        Response::Pong,
        Response::ShuttingDown,
        Response::Overloaded {
            site: "lab".into(),
            shard: 3,
            reason: "deferred".into(),
            retry_after_ms: 25,
        },
        Response::Overloaded {
            site: "attic".into(),
            shard: 0,
            reason: "rejected".into(),
            retry_after_ms: 0,
        },
    ]
}

/// One message type's encoders and decoders in both protocols.
struct Codecs<T> {
    v1_encode: fn(&T, &mut Vec<u8>),
    v1_decode: fn(&str) -> tafloc_serve::Result<T>,
    v2_encode: fn(&T, &mut Vec<u8>),
    v2_decode: fn(&[u8]) -> tafloc_serve::Result<T>,
}

const REQUEST_CODECS: Codecs<Request> = Codecs {
    v1_encode: wire::v1::encode_request,
    v1_decode: wire::v1::decode_request,
    v2_encode: wire::v2::encode_request,
    v2_decode: wire::v2::decode_request,
};

const RESPONSE_CODECS: Codecs<Response> = Codecs {
    v1_encode: wire::v1::encode_response,
    v1_decode: wire::v1::decode_response,
    v2_encode: wire::v2::encode_response,
    v2_decode: wire::v2::decode_response,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len()).step_by(2).map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap()).collect()
}

/// Checks each value against its committed v1 line and v2 payload (as hex):
/// encoding reproduces the committed bytes, and decoding the committed bytes
/// re-encodes to them. encode → decode → re-encode must also reproduce the
/// bytes exactly; the codecs are deterministic, so byte equality of the
/// second encode is a full structural-equality check without `PartialEq`.
fn check_against_corpus<T: std::fmt::Debug>(
    values: &[T],
    v1_corpus: &str,
    v2_corpus: &str,
    c: &Codecs<T>,
) {
    let v1_lines: Vec<&str> = v1_corpus.lines().collect();
    let v2_lines: Vec<&str> = v2_corpus.lines().collect();
    assert_eq!(v1_lines.len(), values.len(), "one committed v1 line per value");
    assert_eq!(v2_lines.len(), values.len(), "one committed v2 payload per value");
    for (i, value) in values.iter().enumerate() {
        let mut v1 = Vec::new();
        (c.v1_encode)(value, &mut v1);
        assert_eq!(std::str::from_utf8(&v1).unwrap(), v1_lines[i], "v1 bytes of {value:?}");
        let decoded = (c.v1_decode)(v1_lines[i])
            .unwrap_or_else(|e| panic!("v1 decode of committed line {i}: {e}"));
        let mut again = Vec::new();
        (c.v1_encode)(&decoded, &mut again);
        assert_eq!(v1, again, "v1 re-encode differs for {value:?}");

        let mut v2 = Vec::new();
        (c.v2_encode)(value, &mut v2);
        assert_eq!(hex(&v2), v2_lines[i], "v2 bytes of {value:?}");
        let decoded = (c.v2_decode)(&unhex(v2_lines[i]))
            .unwrap_or_else(|e| panic!("v2 decode of committed payload {i}: {e}"));
        let mut again = Vec::new();
        (c.v2_encode)(&decoded, &mut again);
        assert_eq!(v2, again, "v2 re-encode differs for {value:?}");
    }
}

#[test]
fn every_variant_round_trips_in_both_protocols() {
    check_against_corpus(
        &request_corpus(),
        include_str!("corpus/requests.v1.ndjson"),
        include_str!("corpus/requests.v2.hex"),
        &REQUEST_CODECS,
    );
    check_against_corpus(
        &response_corpus(),
        include_str!("corpus/responses.v1.ndjson"),
        include_str!("corpus/responses.v2.hex"),
        &RESPONSE_CODECS,
    );
}

/// v1 inputs that omit every defaulted field (and every optional one), each
/// paired with the canonical line it must re-encode to. One case per line:
/// `<type>\t<input>\t<canonical>`.
#[test]
fn lenient_v1_inputs_fill_in_their_defaults() {
    let cases = include_str!("corpus/lenient.v1.tsv");
    assert!(cases.lines().count() >= 6);
    for case in cases.lines() {
        let [ty, input, canonical]: [&str; 3] =
            case.split('\t').collect::<Vec<_>>().try_into().expect("three tab-separated fields");
        let mut out = Vec::new();
        match ty {
            "Request" => {
                wire::v1::encode_request(&wire::v1::decode_request(input).unwrap(), &mut out)
            }
            "Response" => {
                wire::v1::encode_response(&wire::v1::decode_response(input).unwrap(), &mut out)
            }
            "IngestConfig" => {
                let cfg: IngestConfig = taf_wire::from_json(input).unwrap();
                assert_eq!(cfg, IngestConfig::default());
                cfg.write_json(&mut taf_wire::JsonWriter::new(&mut out));
            }
            other => panic!("unknown corpus type {other}"),
        }
        assert_eq!(std::str::from_utf8(&out).unwrap(), canonical, "input {input}");
    }
}

/// Decodes a v1 request and re-encodes it: the canonical line of what the
/// input means.
fn canonical_request(input: &str) -> Result<String, String> {
    let req = wire::v1::decode_request(input).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    wire::v1::encode_request(&req, &mut out);
    Ok(String::from_utf8(out).unwrap())
}

/// Leniencies of the v1 reader that no corpus line pins, each input paired
/// with the canonical line it decodes to.
#[test]
fn v1_leniencies_decode_to_their_canonical_request() {
    let locate = r#"{"cmd":"locate","site":"lab","y":[1,2]}"#;
    let cases = [
        // The tag may follow other keys.
        (r#"{"site":"lab","y":[1,2],"cmd":"locate"}"#, locate),
        (r#"{"site":"lab","cmd":"locate","y":[1,2]}"#, locate),
        // A repeated key takes its last value; a repeated tag names the
        // variant by its last occurrence.
        (r#"{"cmd":"locate","site":"attic","y":[9],"site":"lab","y":[1,2]}"#, locate),
        (r#"{"cmd":"ping","site":"lab","y":[1,2],"cmd":"locate"}"#, locate),
        (r#"{"cmd":"locate","cmd":"ping"}"#, r#"{"cmd":"ping"}"#),
        // Unknown keys are skipped, whatever they hold.
        (
            r#"{"cmd":"locate","x":{"a":[1,{"b":[[],{}]}],"c":"}\"]"},"site":"lab","y":[1,2],"z":[[null,true]]}"#,
            locate,
        ),
        // Whitespace may surround every token.
        (" {\t\"cmd\" : \"locate\" ,\r\n \"site\" :\"lab\", \"y\" : [ 1 , 2 ] } ", locate),
        // Number forms RFC 8259 forbids read as Rust's `f64` parser reads them.
        (
            r#"{"cmd":"locate","site":"lab","y":[01,1.,-.5,1.e5,-0.]}"#,
            r#"{"cmd":"locate","site":"lab","y":[1,1,-0.5,100000,0]}"#,
        ),
    ];
    for (input, canonical) in cases {
        assert_eq!(canonical_request(input).as_deref(), Ok(canonical), "input {input}");
    }
}

#[test]
fn v1_unknown_keys_are_checked_like_known_ones() {
    let with_extra = |extra: &str| format!(r#"{{"cmd":"ping","extra":{extra}}}"#);
    let fine = "[".repeat(100) + &"]".repeat(100);
    assert_eq!(canonical_request(&with_extra(&fine)).as_deref(), Ok(r#"{"cmd":"ping"}"#));
    let bomb = "[".repeat(200) + &"]".repeat(200);
    for bad in [bomb.as_str(), "1e999", "-", r#""\x""#, "[1,]", "{\"a\"}", "tru"] {
        assert!(canonical_request(&with_extra(bad)).is_err(), "extra value {bad}");
    }
}

/// A site exercising every persisted field, every optional section present.
fn corpus_site() -> PersistedSite {
    let mut history = HistoryWindow::new(2, 4, 2).unwrap();
    for epoch in 1..=3u64 {
        let y = vec![-50.0 - epoch as f64, -40.0, -41.5, -60.25];
        let fresh = vec![true, epoch % 2 == 0, false, true];
        history.record(0, SurveyRecord { epoch, y, fresh }).unwrap();
    }
    history.record(1, SurveyRecord { epoch: 3, y: vec![-45.0; 4], fresh: vec![true; 4] }).unwrap();
    PersistedSite {
        name: "lab".into(),
        generation: 7,
        refreshed_day: 45.5,
        snapshot: sample_snapshot(),
        monitor_stored: Matrix::from_vec(4, 1, vec![-50.0, -40.0, -45.5, -61.0]).unwrap(),
        monitor_cells: vec![0],
        monitor_last_update_day: 44.0,
        monitor_config: MonitorConfig { error_threshold_db: 2.5, min_interval_days: 1.0 },
        health: SiteHealth {
            breach_streak: 1,
            maintenance_checks: 17,
            auto_refreshes: 4,
            refresh_rejections: 2,
            consecutive_failures: 1,
            last_reject_reason: Some("reconstruction contains non-finite entries".into()),
            quarantined: false,
            quarantine_cooldown: 3,
            tick_panics: 1,
        },
        policy: MaintenancePolicy {
            interval_ms: 125,
            breach_streak: 3,
            quarantine_after: 5,
            ..Default::default()
        },
        ingest: IngestConfig {
            stale_after_s: 7.5,
            aggregator: Aggregator::Ewma { alpha: 0.3 },
            ..Default::default()
        },
        journal_watermark: 12,
        survey_epoch: 3,
        planned_cost: 5,
        actual_cost: 4,
        full_survey_cost: 8,
        current_plan: Some(MeasurementPlan {
            epoch: 3,
            policy: PlanPolicy::UncertaintyGreedy,
            entries: vec![
                PlanEntry { ref_slot: 0, links: vec![0, 1] },
                PlanEntry { ref_slot: 1, links: vec![3] },
            ],
            planned_cost: 3,
            full_cost: 8,
        }),
        last_ref_confidence: Some(vec![0.9, 0.4, 0.7, 0.85, 0.5, 0.25]),
        history: Some(history),
        warm: Some(
            WarmState::from_parts(
                Matrix::from_vec(4, 1, vec![0.5, -0.25, 1.0, 0.125]).unwrap(),
                Matrix::from_vec(6, 1, vec![1.0, 0.5, 0.25, -1.0, 2.0, -0.5]).unwrap(),
            )
            .unwrap(),
        ),
    }
}

/// Both journal record kinds.
fn corpus_records() -> Vec<JournalRecord> {
    vec![
        JournalRecord::RefBatch {
            ref_slot: 1,
            day: 45.0,
            samples: vec![
                LinkSample { link: 3, t_s: 1.25, rss_dbm: -61.5 },
                LinkSample { link: 0, t_s: 0.0, rss_dbm: -48.0 },
            ],
        },
        JournalRecord::Survey {
            day: 46.0,
            columns: vec![vec![-50.0, -51.0, -52.0, -53.0], vec![-40.0, -41.0, -42.0, -43.0]],
            empty: vec![-70.0, -71.5, -72.0, -73.25],
        },
        JournalRecord::RefBatch { ref_slot: 0, day: 46.5, samples: vec![] },
    ]
}

fn corpus_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tafloc-wire-corpus-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Saves `site` into a fresh store and returns the file's bytes.
fn saved_bytes(site: &PersistedSite, dir: &Path) -> Vec<u8> {
    let path = SiteStore::open(dir).unwrap().save(site).unwrap();
    std::fs::read(path).unwrap()
}

/// Loads committed snapshot bytes through the store's own reader.
fn load_committed(bytes: &[u8], dir: &Path) -> PersistedSite {
    let path = dir.join("committed.snap");
    std::fs::write(&path, bytes).unwrap();
    SiteStore::load(&path).unwrap()
}

#[test]
fn snapshot_files_match_the_corpus() {
    let dir = corpus_dir("snap");
    let committed: &[u8] = include_bytes!("corpus/site.v2.snap");
    assert_eq!(saved_bytes(&corpus_site(), &dir.join("a")), committed, "format-2 snapshot bytes");
    let loaded = load_committed(committed, &dir);
    assert_eq!(saved_bytes(&loaded, &dir.join("b")), committed, "format-2 snapshot re-encode");

    // A format-1 file (the same site before the hot state existed) loads with
    // cold-start defaults, and re-saves as the cold site's format-2 bytes.
    let v1 = load_committed(include_bytes!("corpus/site.v1.snap"), &dir);
    assert_eq!((v1.journal_watermark, v1.survey_epoch), (0, 0));
    assert_eq!((v1.planned_cost, v1.actual_cost, v1.full_survey_cost), (0, 0, 0));
    assert!(v1.current_plan.is_none() && v1.last_ref_confidence.is_none());
    assert!(v1.history.is_none() && v1.warm.is_none());
    let cold = PersistedSite {
        journal_watermark: 0,
        survey_epoch: 0,
        planned_cost: 0,
        actual_cost: 0,
        full_survey_cost: 0,
        current_plan: None,
        last_ref_confidence: None,
        history: None,
        warm: None,
        ..corpus_site()
    };
    assert_eq!(saved_bytes(&v1, &dir.join("c")), saved_bytes(&cold, &dir.join("d")));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_segments_match_the_corpus() {
    let committed: &[u8] = include_bytes!("corpus/journal.wal");
    let segment = format!("corpus.{:020}.wal", 0);
    let append_all = |dir: &Path, records: &[JournalRecord]| {
        let (journal, _) = Journal::open(dir, "corpus", JournalConfig::default(), 0).unwrap();
        for rec in records {
            journal.append(rec).unwrap();
        }
        drop(journal);
        std::fs::read(dir.join(&segment)).unwrap()
    };
    let dir = corpus_dir("wal");
    assert_eq!(append_all(&dir.join("a"), &corpus_records()), committed, "journal bytes");

    let replay = dir.join("b");
    std::fs::create_dir_all(&replay).unwrap();
    std::fs::write(replay.join(&segment), committed).unwrap();
    let (journal, recovery) =
        Journal::open(&replay, "corpus", JournalConfig::default(), 0).unwrap();
    drop(journal);
    assert_eq!(recovery.truncated_bytes, 0);
    let (seqs, records): (Vec<u64>, Vec<JournalRecord>) = recovery.records.into_iter().unzip();
    assert_eq!(seqs, vec![1, 2, 3]);
    assert_eq!(records, corpus_records());
    assert_eq!(append_all(&dir.join("c"), &records), committed, "journal re-encode");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Declared-oversized and truncated v2 frames must error without panicking
/// and without yielding a message.
#[test]
fn oversized_and_truncated_v2_frames_error_cleanly() {
    // Header declaring a payload just over the cap, with no payload behind it.
    let mut oversized = vec![0xB2, 0x02];
    let mut len = (16 * 1024 * 1024 + 1) as u64;
    while len >= 0x80 {
        oversized.push((len as u8) | 0x80);
        len >>= 7;
    }
    oversized.push(len as u8);
    let mut reader = BufReader::new(Cursor::new(oversized));
    let mut version = WireVersion::V1Json;
    assert!(wire::read_request(&mut reader, &mut version).is_err());

    // A valid frame with its length prefix promising more than is there.
    let mut full = Vec::new();
    write_request(&mut full, &Request::Ping, WireVersion::V2Binary).unwrap();
    full.truncate(full.len() - 3);
    let mut reader = BufReader::new(Cursor::new(full));
    let mut version = WireVersion::V1Json;
    assert!(wire::read_request(&mut reader, &mut version).is_err());
}

/// A v1 client and a v2 client against the same live server: both get
/// identical answers, and one raw connection can switch versions mid-stream
/// because negotiation is per-message sniffing.
#[test]
fn v1_and_v2_clients_negotiate_against_one_server() {
    let world = World::new(WorldConfig::small_test(), 98);
    let x0 = campaign::full_calibration(&world, 0.0, 6);
    let e0 = campaign::empty_snapshot(&world, 0.0, 6);
    let db = FingerprintDb::from_world(x0, &world).unwrap();
    let sys =
        TafLoc::calibrate(TafLocConfig { ref_count: 6, ..Default::default() }, db, e0).unwrap();
    let y = campaign::snapshot_at_cell(&world, 0.0, 3, 6);

    let server =
        Server::bind("127.0.0.1:0", ServerConfig { workers: 2, ..Default::default() }).unwrap();
    let addr = server.local_addr();
    server.add_site("lab", sys, 0.0).unwrap();
    let handle = server.spawn();

    let mut v1 = Client::connect(addr).unwrap();
    let mut v2 = Client::connect_v2(addr).unwrap();
    assert_eq!(v1.version(), WireVersion::V1Json);
    assert_eq!(v2.version(), WireVersion::V2Binary);
    v1.ping().unwrap();
    v2.ping().unwrap();
    let fix1 = v1.locate("lab", &y).unwrap();
    let fix2 = v2.locate("lab", &y).unwrap();
    assert_eq!(fix1.0, fix2.0, "both protocols must serve the same cell");
    assert_eq!(fix1.3, fix2.3, "and from the same snapshot version");

    // One raw connection, switching protocol per message.
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    for (send, expect) in
        [(WireVersion::V1Json, WireVersion::V1Json), (WireVersion::V2Binary, WireVersion::V2Binary)]
    {
        write_request(&mut writer, &Request::Ping, send).unwrap();
        writer.flush().unwrap();
        let mut replied = WireVersion::V1Json;
        match read_response(&mut reader, &mut replied) {
            Ok(Some(Response::Pong)) => {}
            other => panic!("expected pong in {send:?}, got {other:?}"),
        }
        assert_eq!(replied, expect, "the reply must use the request's framing");
    }
    drop(reader);
    drop(writer);

    let mut admin = Client::connect(addr).unwrap();
    admin.call(&Request::Shutdown).ok();
    handle.join();
}

/// Sends `bytes` on one connection and expects an error reply containing
/// `needle` in `framing`, then a `pong` to a `ping` in the same framing.
fn expect_error_then_pong(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    bytes: &[u8],
    framing: WireVersion,
    needle: &str,
) {
    writer.write_all(bytes).unwrap();
    writer.flush().unwrap();
    let mut replied = WireVersion::V1Json;
    match read_response(reader, &mut replied) {
        Ok(Some(Response::Error { message })) => {
            assert!(message.contains(needle), "want {needle:?}, got {message:?}")
        }
        other => panic!("expected an error response to {needle:?}, got {other:?}"),
    }
    assert_eq!(replied, framing, "the error reply must use the sender's framing");
    write_request(writer, &Request::Ping, framing).unwrap();
    assert!(matches!(read_response(reader, &mut replied), Ok(Some(Response::Pong))));
}

/// Recoverable wire errors produce an error *response* in the sender's
/// framing, leave the connection usable, and are surfaced in `stats`. The
/// retired request kinds (`track`, `detect`: v1 names and v2 tags 8 and 9,
/// as an older client sends them) are among them.
#[test]
fn error_frames_never_break_framing_and_are_counted() {
    let server =
        Server::bind("127.0.0.1:0", ServerConfig { workers: 2, ..Default::default() }).unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut replied = WireVersion::V1Json;

    // Malformed v1 line → error response, connection still framed.
    writer.write_all(b"this is not json\n").unwrap();
    writer.flush().unwrap();
    match read_response(&mut reader, &mut replied) {
        Ok(Some(Response::Error { message })) => {
            assert!(message.starts_with("malformed request:"), "got {message:?}")
        }
        other => panic!("expected an error response, got {other:?}"),
    }
    write_request(&mut writer, &Request::Ping, WireVersion::V1Json).unwrap();
    assert!(matches!(read_response(&mut reader, &mut replied), Ok(Some(Response::Pong))));
    for (line, name) in [
        (r#"{"cmd":"track","site":"lab","stream":"cart-1","y":[-55],"dt_s":0.5}"#, "track"),
        (r#"{"cmd":"detect","site":"lab","stream":"door","y":[-55,-42.25]}"#, "detect"),
    ] {
        let needle = format!("malformed request: Request: unknown variant `{name}`");
        let bytes = format!("{line}\n");
        expect_error_then_pong(
            &mut writer,
            &mut reader,
            bytes.as_bytes(),
            WireVersion::V1Json,
            &needle,
        );
    }
    // The v2 payloads an older client encodes for the same two requests.
    for (payload, tag) in [
        ("0803000000000000006c61620600000000000000636172742d3101000000000000000000000000804bc0000000000000e03f", 8),
        ("0903000000000000006c61620400000000000000646f6f7202000000000000000000000000804bc000000000002045c0", 9),
    ] {
        let mut frame = Vec::new();
        taf_wire::frame::write_frame(&mut frame, &unhex(payload)).unwrap();
        let needle = format!("malformed request: Request: unknown tag {tag}");
        expect_error_then_pong(&mut writer, &mut reader, &frame, WireVersion::V2Binary, &needle);
    }

    // Corrupt v2 frame → error response framed in v2, connection still usable.
    let mut frame = Vec::new();
    write_request(&mut frame, &Request::Ping, WireVersion::V2Binary).unwrap();
    let idx = frame.len() - 5; // last payload byte, just before the crc
    frame[idx] ^= 0x40;
    writer.write_all(&frame).unwrap();
    writer.flush().unwrap();
    match read_response(&mut reader, &mut replied) {
        Ok(Some(Response::Error { message })) => {
            assert!(message.contains("checksum"), "got {message:?}")
        }
        other => panic!("expected a checksum error response, got {other:?}"),
    }
    assert_eq!(replied, WireVersion::V2Binary, "error reply must use v2 framing");
    write_request(&mut writer, &Request::Ping, WireVersion::V2Binary).unwrap();
    assert!(matches!(read_response(&mut reader, &mut replied), Ok(Some(Response::Pong))));
    drop(reader);
    drop(writer);

    let mut admin = Client::connect(addr).unwrap();
    let report = match admin.call_ok(&Request::Stats).unwrap() {
        Response::Stats { report } => report,
        other => panic!("unexpected reply to stats: {other:?}"),
    };
    assert_eq!(report.wire_malformed, 5, "malformed line and retired kinds counted: {report:?}");
    assert!(report.wire_checksum_mismatch >= 1, "checksum mismatch counted: {report:?}");
    admin.call(&Request::Shutdown).ok();
    handle.join();
}
