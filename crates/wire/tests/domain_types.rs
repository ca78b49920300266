//! The codec of every domain type that crosses the wire, the disk or a CLI
//! file: core's snapshot and configs, ingest's samples and reports, the
//! planner's state and the simulator's world. Each type declares its own
//! schema where it lives; these tests pin the forms from outside.

use taf_linalg::Matrix;
use taf_plan::{HistoryWindow, MeasurementPlan, PlanEntry, PlanPolicy, SurveyRecord};
use taf_rfsim::geometry::{Point, Segment};
use taf_rfsim::grid::FloorGrid;
use taf_wire::{from_bytes, from_json, to_json, Codec, Dec, Enc};
use tafloc_core::loli_ir::WarmState;
use tafloc_core::matcher::MatchMethod;
use tafloc_core::reference::ReferenceStrategy;
use tafloc_core::system::{ReconstructionGuard, SystemSnapshot, TafLocConfig, ZRefreshPolicy};
use tafloc_core::{FingerprintDb, LrrModel};
use tafloc_ingest::{Aggregator, IngestConfig, IngestStats, LinkSample};

fn bytes_of<T: Codec>(value: &T) -> Vec<u8> {
    let mut e = Enc::new();
    value.encode(&mut e);
    e.into_inner()
}

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
    let z = Matrix::from_fn(2, 6, |i, j| 0.1 * (i + 1) as f64 + 0.01 * j as f64);
    let lrr = LrrModel::from_parts(vec![1, 4], z, 1e-3).unwrap();
    SystemSnapshot {
        config: TafLocConfig {
            ref_count: 2,
            ref_strategy: ReferenceStrategy::Random { seed: 7 },
            matcher: MatchMethod::Probabilistic { sigma_db: 2.5 },
            ..TafLocConfig::default()
        },
        db,
        ref_cells: vec![1, 4],
        lrr,
        empty_rss: vec![-40.0, -41.0, -42.0, -43.0],
    }
}

#[test]
fn snapshot_round_trips_in_json() {
    let snap = sample_snapshot();
    let text = to_json(&snap);
    let back: SystemSnapshot = from_json(&text).unwrap();
    // Re-encode: byte equality is the strongest cheap equivalence.
    assert_eq!(text, to_json(&back));
}

#[test]
fn snapshot_round_trips_in_binary() {
    let snap = sample_snapshot();
    let bytes = bytes_of(&snap);
    let back: SystemSnapshot = from_bytes(&bytes).unwrap();
    assert_eq!(bytes, bytes_of(&back));
}

#[test]
fn configs_with_defaults_fill_in_like_serde() {
    let cfg: IngestConfig = from_json("{}").unwrap();
    assert_eq!(cfg, IngestConfig::default());
    let cfg: IngestConfig = from_json(r#"{"aggregator":{"kind":"ewma","alpha":0.2}}"#).unwrap();
    assert_eq!(cfg.aggregator, Aggregator::Ewma { alpha: 0.2 });
    let g: ReconstructionGuard = from_json("{}").unwrap();
    assert_eq!(g, ReconstructionGuard::default());
}

#[test]
fn enum_variants_round_trip_in_both_shapes() {
    for s in [
        ReferenceStrategy::QrPivot,
        ReferenceStrategy::Random { seed: 99 },
        ReferenceStrategy::LeverageScore,
    ] {
        let text = to_json(&s);
        let back: ReferenceStrategy = from_json(&text).unwrap();
        assert_eq!(s, back, "json round trip via {text}");
        let bytes = bytes_of(&s);
        assert_eq!(ReferenceStrategy::decode(&mut Dec::new(&bytes)).unwrap(), s);
    }
    for m in [
        MatchMethod::NearestNeighbor,
        MatchMethod::Knn { k: 5 },
        MatchMethod::Probabilistic { sigma_db: 0.5 },
    ] {
        let text = to_json(&m);
        assert_eq!(from_json::<MatchMethod>(&text).unwrap(), m);
    }
    // A policy's v1 name is its `--policy` name.
    for p in [PlanPolicy::UncertaintyGreedy, PlanPolicy::FixedSchedule] {
        let text = to_json(&p);
        assert_eq!(text, format!("\"{p}\""));
        assert_eq!(from_json::<PlanPolicy>(&text).unwrap(), p);
    }

    // Every variant's bytes, in both shapes, as literals: no committed
    // corpus holds `QrPivot`, `NearestNeighbor`, `ewma` or
    // `fixed-schedule`, so nothing else would see a renamed variant or a
    // renumbered tag.
    fn pin<T: Codec + PartialEq + std::fmt::Debug>(value: T, text: &str, bytes: &[u8]) {
        assert_eq!(to_json(&value), text);
        assert_eq!(from_json::<T>(text).unwrap(), value, "{text}");
        assert_eq!(bytes_of(&value), bytes, "{text}");
        assert_eq!(from_bytes::<T>(bytes).unwrap(), value, "{text}");
    }
    const HALF: [u8; 8] = [0, 0, 0, 0, 0, 0, 0xe0, 0x3f];
    const FIFTH: [u8; 8] = [0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xc9, 0x3f];
    pin(ReferenceStrategy::QrPivot, r#""QrPivot""#, &[0]);
    pin(
        ReferenceStrategy::Random { seed: 99 },
        r#"{"Random":{"seed":99}}"#,
        &[1, 99, 0, 0, 0, 0, 0, 0, 0],
    );
    pin(ReferenceStrategy::LeverageScore, r#""LeverageScore""#, &[2]);
    pin(MatchMethod::NearestNeighbor, r#""NearestNeighbor""#, &[0]);
    pin(MatchMethod::Knn { k: 5 }, r#"{"Knn":{"k":5}}"#, &[1, 5, 0, 0, 0, 0, 0, 0, 0]);
    pin(
        MatchMethod::Probabilistic { sigma_db: 0.5 },
        r#"{"Probabilistic":{"sigma_db":0.5}}"#,
        &[[2].as_slice(), &HALF].concat(),
    );
    pin(ZRefreshPolicy::Fixed, r#""Fixed""#, &[0]);
    pin(ZRefreshPolicy::RefitAfterUpdate, r#""RefitAfterUpdate""#, &[1]);
    pin(Aggregator::Median, r#"{"kind":"median"}"#, &[0]);
    pin(
        Aggregator::Ewma { alpha: 0.2 },
        r#"{"kind":"ewma","alpha":0.2}"#,
        &[[1].as_slice(), &FIFTH].concat(),
    );
    pin(PlanPolicy::UncertaintyGreedy, r#""uncertainty-greedy""#, &[0]);
    pin(PlanPolicy::FixedSchedule, r#""fixed-schedule""#, &[1]);
}

#[test]
fn hostile_grid_and_matrix_shapes_error_instead_of_panicking() {
    // Zero-cell grid.
    let bad = r#"{"rss":{"rows":1,"cols":1,"data":[-40]},"links":[{"a":{"x":0,"y":0},"b":{"x":1,"y":0}}],"grid":{"origin":{"x":0,"y":0},"cell_size":0,"nx":1,"ny":1}}"#;
    assert!(from_json::<FingerprintDb>(bad).is_err());
    // Matrix data length mismatch.
    let bad = r#"{"rows":2,"cols":2,"data":[1,2,3]}"#;
    assert!(from_json::<Matrix>(bad).is_err());
}

#[test]
fn a_grid_whose_cell_count_overflows_is_refused_in_both_shapes() {
    // 2^33 x 2^33 cells wrap `nx * ny` to 0 in a `u64`.
    let n = 1usize << 33;
    let mut e = Enc::new();
    Point::new(0.0, 0.0).encode(&mut e);
    e.f64(0.6);
    e.usize(n);
    e.usize(n);
    assert!(from_bytes::<FloorGrid>(&e.into_inner()).is_err());
    let text = format!(r#"{{"origin":{{"x":0,"y":0}},"cell_size":0.6,"nx":{n},"ny":{n}}}"#);
    assert!(from_json::<FloorGrid>(&text).is_err());
    // 2^33 x 1 cells still decode: the check is the overflow, not the size.
    let text = format!(r#"{{"origin":{{"x":0,"y":0}},"cell_size":0.6,"nx":{n},"ny":1}}"#);
    assert_eq!(from_json::<FloorGrid>(&text).unwrap().num_cells(), n);
}

#[test]
fn ingest_types_round_trip_both_ways() {
    let s = LinkSample { link: 3, t_s: 12.5, rss_dbm: -51.25 };
    let text = to_json(&s);
    assert_eq!(text, r#"{"link":3,"t_s":12.5,"rss_dbm":-51.25}"#);
    assert_eq!(from_json::<LinkSample>(&text).unwrap(), s);

    let bytes = bytes_of(&s);
    assert_eq!(LinkSample::decode(&mut Dec::new(&bytes)).unwrap(), s);

    let stats = IngestStats { accepted: 10, live_links: 4, ..IngestStats::default() };
    let bytes = bytes_of(&stats);
    assert_eq!(IngestStats::decode(&mut Dec::new(&bytes)).unwrap(), stats);
}

#[test]
fn every_ingest_counter_round_trips_in_both_shapes() {
    // Distinct values per field, so a swapped or dropped counter shows.
    let stats = IngestStats {
        accepted: 1,
        dropped_late: 2,
        dropped_unknown_link: 3,
        dropped_non_finite: 4,
        dropped_queue_batches: 5,
        dropped_queue_samples: 6,
        rejected_outliers: 7,
        link_flaps: 8,
        live_links: 9,
        stale_links: 10,
        dead_links: 11,
        assemblies: 12,
    };
    let text = to_json(&stats);
    assert_eq!(from_json::<IngestStats>(&text).unwrap(), stats);

    let bytes = bytes_of(&stats);
    assert_eq!(IngestStats::decode(&mut Dec::new(&bytes)).unwrap(), stats);
}

#[test]
fn plan_state_round_trips_in_binary() {
    let plan = MeasurementPlan {
        epoch: 7,
        policy: PlanPolicy::UncertaintyGreedy,
        entries: vec![
            PlanEntry { ref_slot: 0, links: vec![1, 3, 5] },
            PlanEntry { ref_slot: 2, links: vec![0, 2] },
        ],
        planned_cost: 5,
        full_cost: 12,
    };
    let bytes = bytes_of(&plan);
    let back: MeasurementPlan = from_bytes(&bytes).unwrap();
    assert_eq!(back.epoch, plan.epoch);
    assert_eq!(back.policy, plan.policy);
    assert_eq!(back.entries, plan.entries);
    assert_eq!(back.planned_cost, plan.planned_cost);
    assert_eq!(back.full_cost, plan.full_cost);
    assert_eq!(back.links_for(2), Some(&[0usize, 2][..]));

    // Unsorted entries must be rejected, not silently mis-served.
    let shuffled = MeasurementPlan {
        entries: vec![plan.entries[1].clone(), plan.entries[0].clone()],
        ..plan.clone()
    };
    let bytes = bytes_of(&shuffled);
    assert!(MeasurementPlan::decode(&mut Dec::new(&bytes)).is_err());
}

#[test]
fn history_round_trips_preserving_ring_order() {
    let mut h = HistoryWindow::new(2, 3, 2).unwrap();
    for epoch in 1..=3u64 {
        h.record(
            0,
            SurveyRecord {
                epoch,
                y: vec![-40.0 - epoch as f64; 3],
                fresh: vec![epoch % 2 == 0; 3],
            },
        )
        .unwrap();
    }
    let bytes = bytes_of(&h);
    let back: HistoryWindow = from_bytes(&bytes).unwrap();
    assert_eq!(back.n_slots(), 2);
    assert_eq!(back.n_links(), 3);
    assert_eq!(back.depth(), 2);
    // Depth 2 means epochs 2 and 3 survive, in that order.
    let records: Vec<_> = back.records(0).cloned().collect();
    assert_eq!(records.iter().map(|r| r.epoch).collect::<Vec<_>>(), vec![2, 3]);
    assert_eq!(records[1].y, vec![-43.0; 3]);
    assert!(back.records(1).next().is_none());
    // Re-encode: byte equality proves the replay preserved everything.
    assert_eq!(bytes, bytes_of(&back));
}

#[test]
fn warm_state_round_trips_and_rejects_garbage() {
    let l = Matrix::from_fn(4, 2, |i, j| 0.5 * i as f64 - 0.25 * j as f64);
    let r = Matrix::from_fn(6, 2, |i, j| 0.1 * (i + j) as f64);
    let w = WarmState::from_parts(l.clone(), r.clone()).unwrap();
    let bytes = bytes_of(&w);
    let back: WarmState = from_bytes(&bytes).unwrap();
    assert_eq!(back.shape(), (4, 6, 2));
    assert_eq!(back.l().as_slice(), l.as_slice());
    assert_eq!(back.r().as_slice(), r.as_slice());

    // A rank-mismatched pair decodes structurally but fails validation.
    let bad_r = Matrix::from_fn(6, 3, |_, _| 0.0);
    let mut e = Enc::new();
    e.matrix(&l);
    e.matrix(&bad_r);
    let bytes = e.into_inner();
    assert!(WarmState::decode(&mut Dec::new(&bytes)).is_err());
    // Non-finite factors are rejected too.
    let nan_l = Matrix::from_fn(4, 2, |_, _| f64::NAN);
    let mut e = Enc::new();
    e.matrix(&nan_l);
    e.matrix(&r);
    let bytes = e.into_inner();
    assert!(WarmState::decode(&mut Dec::new(&bytes)).is_err());
}
