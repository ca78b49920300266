//! Reference checks for the baselines' top-k centroids: RASS's and RTI's
//! single-target `localize` must return bit-identical fixes to the full
//! stable sort they replaced, which this file keeps as the reference.

use proptest::prelude::*;
use taf_baselines::{Rass, RassConfig, Rti, RtiConfig};
use taf_rfsim::geometry::{Point, Segment};
use taf_rfsim::{campaign, World, WorldConfig};
use tafloc_core::db::FingerprintDb;

/// The `k` values every check runs: {1, 3, N−1, N, N+5}.
fn ks(n: usize) -> [usize; 5] {
    [1, 3, n - 1, n, n + 5]
}

/// A small world's day-0 database with columns `j >= 2` overwritten by copies
/// of earlier ones, its empty-room RSS, and live snapshots plus exact column
/// copies as queries.
fn case(seed: u64) -> (World, FingerprintDb, Vec<f64>, Vec<Vec<f64>>) {
    let world = World::new(WorldConfig::small_test(), seed);
    let n = world.num_cells();
    let mut x = campaign::full_calibration(&world, 0.0, 20);
    for j in (2..n).step_by(3) {
        let src = x.col((j * 7 + seed as usize) % j);
        x.set_col(j, &src).expect("column fits");
    }
    let empty = campaign::empty_snapshot(&world, 0.0, 20);
    let mut queries: Vec<Vec<f64>> =
        (0..n).step_by(5).map(|c| campaign::snapshot_at_cell(&world, 0.0, c, 20)).collect();
    queries.extend((0..n).step_by(7).map(|c| x.col(c)));
    let db = FingerprintDb::from_world(x, &world).expect("world-consistent db");
    (world, db, empty, queries)
}

/// RASS's `localize` before the selection helper: every cell sorted by score.
fn reference_rass(
    db: &FingerprintDb,
    db_empty: &[f64],
    cfg: &RassConfig,
    y: &[f64],
) -> (usize, Point) {
    let m = db.num_links();
    let live_drop: Vec<f64> = db_empty.iter().zip(y).map(|(e, v)| e - v).collect();
    let influential: Vec<usize> =
        (0..m).filter(|&i| live_drop[i] > cfg.influence_threshold_db).collect();
    let weight: Vec<f64> = (0..m)
        .map(|i| {
            if influential.is_empty() || influential.contains(&i) {
                1.0
            } else {
                cfg.background_weight
            }
        })
        .collect();
    let x = db.rss();
    let n = db.num_cells();
    let scores: Vec<f64> = (0..n)
        .map(|j| {
            let mut acc = 0.0;
            for i in 0..m {
                let d = (db_empty[i] - x[(i, j)]) - live_drop[i];
                acc += weight[i] * d * d;
            }
            acc.sqrt()
        })
        .collect();
    let (best, _) = scores
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))
        .expect("non-empty grid");
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).expect("finite scores"));
    let best_center = db.grid().cell_center(best);
    let gate_m = 2.5 * db.grid().cell_size();
    let (mut wx, mut wy, mut wsum) = (0.0, 0.0, 0.0);
    for &j in order.iter().take(cfg.top_k.min(n)) {
        let c = db.grid().cell_center(j);
        if c.distance(&best_center) > gate_m {
            continue;
        }
        let w = 1.0 / (scores[j] + 1e-6);
        wx += w * c.x;
        wy += w * c.y;
        wsum += w;
    }
    (best, Point::new(wx / wsum, wy / wsum))
}

/// RTI's centroid before the selection helper: every voxel sorted by
/// brightness, the `top_k` brightest averaged.
fn reference_rti_point(world: &World, image: &[f64], best: usize, top_k: usize) -> Point {
    let mut order: Vec<usize> = (0..image.len()).collect();
    order.sort_by(|&a, &b| image[b].partial_cmp(&image[a]).expect("finite image"));
    let (mut wx, mut wy, mut wsum) = (0.0, 0.0, 0.0);
    for &j in order.iter().take(top_k) {
        let w = image[j].max(0.0);
        let c = world.grid().cell_center(j);
        wx += w * c.x;
        wy += w * c.y;
        wsum += w;
    }
    if wsum > 0.0 {
        Point::new(wx / wsum, wy / wsum)
    } else {
        world.grid().cell_center(best)
    }
}

fn same_point(a: Point, b: Point) -> bool {
    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
}

proptest! {
    #[test]
    fn rass_top_k_matches_full_sort(seed in 0u64..1_000_000) {
        let (_, db, empty, queries) = case(seed);
        for top_k in ks(db.num_cells()) {
            let cfg = RassConfig { top_k, ..Default::default() };
            let rass = Rass::new(db.clone(), empty.clone(), cfg).expect("valid config");
            for y in &queries {
                let fix = rass.localize(y).expect("localizes");
                let (cell, point) = reference_rass(&db, &empty, &cfg, y);
                prop_assert_eq!(fix.cell, cell);
                prop_assert!(same_point(fix.point, point), "k {top_k}: {:?} != {point:?}", fix.point);
            }
        }
    }

    #[test]
    fn rti_top_k_matches_full_sort(seed in 0u64..1_000_000) {
        let (world, db, empty, queries) = case(seed);
        let links: Vec<Segment> = db.links().to_vec();
        for top_k in ks(db.num_cells()) {
            let rti = Rti::new(&links, world.grid(), RtiConfig { top_k, ..Default::default() })
                .expect("valid config");
            for y in queries.iter().chain([&empty]) {
                let fix = rti.localize(&empty, y).expect("localizes");
                let point = reference_rti_point(&world, &fix.image, fix.cell, top_k);
                prop_assert!(same_point(fix.point, point), "k {top_k}: {:?} != {point:?}", fix.point);
            }
        }
    }
}
