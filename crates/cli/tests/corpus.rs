//! The bytes of every file the CLI writes, pinned by the files committed
//! under `tests/corpus/`.
//!
//! Every value is built from literals, so no change to the simulator's
//! calibration or to the solver can move the corpus; only a change to a file
//! format can. Each value must encode to its committed file, and each
//! committed file the CLI reads must decode and re-encode to the same bytes.
//! `plan.json` is checked in the encoding direction only: the CLI writes
//! plans and never reads them.

use std::path::{Path, PathBuf};
use taf_linalg::Matrix;
use taf_plan::{MeasurementPlan, PlanEntry, PlanPolicy};
use taf_rfsim::drift::DriftConfig;
use taf_rfsim::events::EnvironmentEvent;
use taf_rfsim::geometry::{Point, Segment};
use taf_rfsim::grid::FloorGrid;
use taf_rfsim::noise::NoiseConfig;
use taf_rfsim::pathloss::LogDistance;
use taf_rfsim::shadowing::ShadowingConfig;
use taf_rfsim::target::TargetModel;
use taf_rfsim::WorldConfig;
use taf_wire::Codec;
use tafloc_cli::{
    read_json, write_json, RefsFile, SnapshotFile, StreamFile, SurveyFile, WorldFile,
};
use tafloc_core::db::FingerprintDb;
use tafloc_core::loli_ir::LoliIrConfig;
use tafloc_core::matcher::MatchMethod;
use tafloc_core::reference::ReferenceStrategy;
use tafloc_core::system::{SystemSnapshot, TafLocConfig, ZRefreshPolicy};
use tafloc_core::LrrModel;
use tafloc_ingest::LinkSample;

fn corpus(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus").join(name)
}

/// Writes `value` through the CLI's file writer and asserts the bytes equal
/// the committed corpus file `name`.
fn assert_writes<T: Codec>(value: &T, name: &str) {
    let tag = format!("{}_{:?}", std::process::id(), std::thread::current().id());
    let path = std::env::temp_dir().join(format!("tafloc_corpus_{tag}_{name}"));
    write_json(&path, value).unwrap();
    let got = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let want = std::fs::read_to_string(corpus(name)).unwrap();
    assert_eq!(got, want, "{name} drifted from the committed bytes");
}

/// Reads the committed corpus file `name` through the CLI's file reader and
/// asserts it writes the same bytes back.
fn assert_re_encodes<T: Codec>(name: &str) {
    let value: T = read_json(&corpus(name)).unwrap();
    assert_writes(&value, name);
}

fn world() -> WorldFile {
    WorldFile {
        config: WorldConfig {
            grid: FloorGrid::new(Point::new(0.5, -0.25), 0.6, 3, 2),
            num_links: 4,
            deployment_margin: 0.3,
            pathloss: LogDistance { p0_dbm: -30.0, d0: 1.0, exponent: 2.75 },
            shadowing: ShadowingConfig { sigma_db: 3.0, decorrelation_m: 4.0 },
            target: TargetModel {
                max_attenuation_db: 10.0,
                decay_m: 0.5,
                scatter_db: 1.2,
                scatter_freq: 3.0,
            },
            drift: DriftConfig {
                link_sigma_db: 6.5,
                entry_sigma_db: 2.2,
                tau_days: 40.0,
                entry_fast_sigma_db: 0.8,
                entry_fast_tau_days: 0.5,
            },
            noise: NoiseConfig {
                sigma_db: 1.5,
                quantization_db: 1.0,
                outlier_prob: 0.01,
                outlier_db: 6.0,
            },
            events: vec![EnvironmentEvent {
                day: 30.0,
                location: Point::new(1.2, 0.9),
                radius_m: 1.5,
                link_delta_db: -4.0,
                entry_delta_db: -2.5,
            }],
        },
        // 2^53: the largest seed a JSON number carries exactly.
        seed: 9_007_199_254_740_992,
    }
}

fn db() -> FingerprintDb {
    let rss = Matrix::from_fn(4, 6, |i, j| -40.0 - (i * 6 + j) as f64 * 0.25);
    let links = vec![
        Segment::new(Point::new(0.0, 0.0), Point::new(3.0, 0.0)),
        Segment::new(Point::new(0.0, 2.0), Point::new(3.0, 2.0)),
        Segment::new(Point::new(0.0, 0.0), Point::new(0.0, 2.0)),
        Segment::new(Point::new(3.0, 0.0), Point::new(3.0, 2.0)),
    ];
    let grid = FloorGrid::new(Point::new(0.5, 0.5), 1.0, 3, 2);
    FingerprintDb::new(rss, links, grid).unwrap()
}

fn survey() -> SurveyFile {
    SurveyFile { day: 0.0, db: db(), empty: vec![-40.0, -41.5, -42.25, -43.125] }
}

fn system() -> SystemSnapshot {
    let z = Matrix::from_fn(2, 6, |i, j| 0.1 * (i + 1) as f64 + 0.01 * j as f64);
    SystemSnapshot {
        config: TafLocConfig {
            ref_count: 2,
            ref_strategy: ReferenceStrategy::Random { seed: 7 },
            lrr_lambda: 0.001,
            distortion_threshold_db: 2.0,
            link_graph_k: 2,
            loli: LoliIrConfig {
                rank: 3,
                lambda: 0.01,
                mu: 1.0,
                alpha: 0.05,
                beta: 0.05,
                max_iters: 60,
                tol: 1e-6,
                stall_iters: 2,
                accelerate: true,
                debug_bias_db: 0.0,
            },
            matcher: MatchMethod::Probabilistic { sigma_db: 2.5 },
            consistency_gate: true,
            gate_hi_db: 7.0,
            gate_lo_db: 1.0,
            z_policy: ZRefreshPolicy::RefitAfterUpdate,
        },
        db: db(),
        ref_cells: vec![1, 4],
        lrr: LrrModel::from_parts(vec![1, 4], z, 0.001).unwrap(),
        empty_rss: vec![-40.0, -41.0, -42.0, -43.0],
    }
}

fn refs() -> RefsFile {
    RefsFile {
        day: 45.5,
        cells: vec![1, 4],
        columns: Matrix::from_fn(4, 2, |i, j| -45.0 - i as f64 * 1.5 + j as f64 * 0.1),
        empty: vec![-39.5, -41.0, -42.75, -43.0],
    }
}

fn snapshot() -> SnapshotFile {
    SnapshotFile { day: 45.5, y: vec![-52.1, -48.7, -60.0, -44.25] }
}

fn stream() -> StreamFile {
    StreamFile {
        day: 2.0,
        samples: vec![
            LinkSample { link: 0, t_s: 0.0, rss_dbm: -50.0 },
            LinkSample { link: 3, t_s: 0.1, rss_dbm: -61.0 },
            LinkSample { link: 1, t_s: 0.30000000000000004, rss_dbm: -47.0 },
        ],
    }
}

fn plan() -> MeasurementPlan {
    MeasurementPlan {
        epoch: 3,
        policy: PlanPolicy::UncertaintyGreedy,
        entries: vec![
            PlanEntry { ref_slot: 0, links: vec![1, 3] },
            PlanEntry { ref_slot: 1, links: vec![0, 2, 3] },
        ],
        planned_cost: 5,
        full_cost: 8,
    }
}

#[test]
fn every_file_format_writes_the_committed_bytes() {
    assert_writes(&world(), "world.json");
    assert_writes(&survey(), "survey.json");
    assert_writes(&system(), "system.json");
    assert_writes(&refs(), "refs.json");
    assert_writes(&snapshot(), "y.json");
    assert_writes(&stream(), "stream.json");
    assert_writes(&plan(), "plan.json");
}

#[test]
fn every_file_the_cli_reads_re_encodes_to_its_bytes() {
    assert_re_encodes::<WorldFile>("world.json");
    assert_re_encodes::<SurveyFile>("survey.json");
    assert_re_encodes::<SystemSnapshot>("system.json");
    assert_re_encodes::<RefsFile>("refs.json");
    assert_re_encodes::<SnapshotFile>("y.json");
    assert_re_encodes::<StreamFile>("stream.json");
}
