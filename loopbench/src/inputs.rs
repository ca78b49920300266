//! Seeded inputs. The floors are fixed (they are the sites under test); the
//! seed drives every measurement the benchmark sends: query vectors, capture
//! streams and the evaluation set. Generating inputs is never timed.

use taf_rfsim::geometry::Point;
use taf_rfsim::stream::{self, StreamConfig};
use taf_rfsim::{campaign, World, WorldConfig};
use tafloc_core::db::FingerprintDb;
use tafloc_core::system::{TafLoc, TafLocConfig};
use tafloc_ingest::LinkSample;

/// World seed of the paper's testbed (10 links x 96 cells).
const TESTBED_SEED: u64 = 7;
/// World seed of the Fig. 4 floor (12 m x 12 m, 400 cells, 10 links).
const FLOOR_SEED: u64 = 47;
/// Samples averaged per entry of the day-0 survey.
const SURVEY_SAMPLES: usize = 20;
/// Samples averaged per query vector.
const QUERY_SAMPLES: usize = 10;
/// Samples per `ingest` batch.
pub const BATCH: usize = 64;

/// The paper's testbed.
pub fn testbed() -> World {
    World::new(WorldConfig::paper_default(), TESTBED_SEED)
}

/// The Fig. 4 floor.
pub fn fig4_floor() -> World {
    World::new(WorldConfig::square_area(12.0), FLOOR_SEED)
}

/// SplitMix64: the benchmark's only random source.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The day-0 survey a site is calibrated from.
#[derive(Debug, Clone)]
pub struct Survey {
    /// Fingerprint database (every cell, every link).
    pub db: FingerprintDb,
    /// Empty-room baseline.
    pub empty: Vec<f64>,
}

impl Survey {
    /// Surveys `world` on day 0.
    pub fn day0(world: &World) -> Survey {
        let x0 = campaign::full_calibration(world, 0.0, SURVEY_SAMPLES);
        let empty = campaign::empty_snapshot(world, 0.0, SURVEY_SAMPLES);
        let db = FingerprintDb::from_world(x0, world).expect("world-consistent database");
        Survey { db, empty }
    }

    /// Runs `TafLoc::calibrate` on a copy of the survey.
    pub fn calibrate(&self) -> TafLoc {
        TafLoc::calibrate(TafLocConfig::default(), self.db.clone(), self.empty.clone())
            .expect("the day-0 survey calibrates")
    }
}

/// A person standing at a known point, and what the links see.
#[derive(Debug, Clone)]
pub struct Query {
    /// True position.
    pub point: Point,
    /// RSS vector measured there.
    pub y: Vec<f64>,
}

/// `count` queries at uniformly random points of `world` on `day`.
pub fn queries(world: &World, day: f64, count: usize, rng: &mut Rng) -> Vec<Query> {
    let grid = world.grid();
    let half = grid.cell_size() / 2.0;
    (0..count)
        .map(|_| {
            let c = grid.cell_center(rng.below(grid.num_cells()));
            let point = Point::new(
                c.x + (rng.unit() * 2.0 - 1.0) * half,
                c.y + (rng.unit() * 2.0 - 1.0) * half,
            );
            let y = campaign::snapshot_at_point(world, day, &point, QUERY_SAMPLES);
            Query { point, y }
        })
        .collect()
}

/// The evaluation set behind `loc_error_m`: `per_cell` random points in
/// every cell of `world` on `day`. Stratifying by cell keeps the mean from
/// depending on which cells a seed happens to draw.
pub fn eval_set(world: &World, day: f64, per_cell: usize, rng: &mut Rng) -> Vec<Query> {
    let grid = world.grid();
    let half = grid.cell_size() / 2.0;
    (0..grid.num_cells())
        .flat_map(|cell| std::iter::repeat_n(cell, per_cell))
        .map(|cell| {
            let c = grid.cell_center(cell);
            let point = Point::new(
                c.x + (rng.unit() * 2.0 - 1.0) * half,
                c.y + (rng.unit() * 2.0 - 1.0) * half,
            );
            let y = campaign::snapshot_at_point(world, day, &point, QUERY_SAMPLES);
            Query { point, y }
        })
        .collect()
}

/// Mean distance (m) between each query's true point and where `system`
/// places it.
pub fn mean_error_m(system: &TafLoc, eval: &[Query]) -> f64 {
    let total: f64 = eval
        .iter()
        .map(|q| {
            system.localize(&q.y).expect("evaluation vector localizes").point.distance(&q.point)
        })
        .sum();
    total / eval.len().max(1) as f64
}

/// A reference-cell capture: 20 s of samples at 1 Hz per link from a person
/// standing at `cell` on `day`, in arrival order.
pub fn capture_stream(world: &World, day: f64, cell: usize, rng: &mut Rng) -> Vec<LinkSample> {
    let config = StreamConfig { duration_s: 20.0, rate_hz: 1.0, ..StreamConfig::default() };
    stream::stream_at_cell(world, day, cell, &config, rng.next_u64())
        .into_iter()
        .map(|r| LinkSample::new(r.link, r.t_s, r.rss_dbm))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(1, 2).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = Rng::new(1, 2);
        let mut s = Rng::new(1, 3);
        assert_ne!(r.next_u64(), s.next_u64());
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn capture_streams_follow_the_paper_rate() {
        let world = testbed();
        let samples = capture_stream(&world, 3.0, 5, &mut Rng::new(9, 0));
        assert_eq!(samples.len(), 20 * world.num_links());
        assert!(samples.windows(2).all(|w| w[0].t_s <= w[1].t_s));
    }
}
