//! Link-density sweep (`links` row in DESIGN.md): the paper fixes `M = 10`
//! links for its 96-cell area; this experiment varies the deployment density
//! and reruns the 90-day update + localization pipeline, showing
//!
//! * how localization accuracy scales with the number of links,
//! * that the fingerprint-matrix rank (= reference locations needed) grows
//!   with `M`, coupling deployment cost to update cost, and
//! * where the paper's 10-link choice sits on that curve.
//!
//! Usage: `cargo run --release -p taf-bench --bin link_sweep [seeds] [samples]`

use taf_rfsim::{campaign, World, WorldConfig};
use tafloc_core::db::FingerprintDb;
use tafloc_core::system::{TafLoc, TafLocConfig};

const HORIZON: f64 = 90.0;

struct Row {
    rank: usize,
    recon_dbm: f64,
    loc_median_m: f64,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    v[v.len() / 2]
}

fn run(links: usize, seed: u64, samples: usize) -> Row {
    let mut config = WorldConfig::paper_default();
    config.num_links = links;
    let world = World::new(config, seed);

    let x0 = campaign::full_calibration(&world, 0.0, samples);
    let e0 = campaign::empty_snapshot(&world, 0.0, samples);
    let rank = x0.col_piv_qr().expect("non-empty").rank(1e-6);
    let db = FingerprintDb::from_world(x0, &world).expect("world-consistent db");
    // Reference count follows the matrix rank (capped by the cell count).
    let cfg = TafLocConfig { ref_count: rank.clamp(1, world.num_cells()), ..Default::default() };
    let mut sys = TafLoc::calibrate(cfg, db, e0).expect("calibration succeeds");

    let fresh = campaign::measure_columns(&world, HORIZON, sys.reference_cells(), samples);
    let empty = campaign::empty_snapshot(&world, HORIZON, samples);
    sys.update(&fresh, &empty).expect("update succeeds");

    let truth = world.fingerprint_truth(HORIZON);
    let recon_dbm = sys.db().mean_abs_error(&truth).expect("shapes agree");
    let errs: Vec<f64> = (0..world.num_cells())
        .step_by(2)
        .map(|cell| {
            let y = campaign::snapshot_at_cell(&world, HORIZON, cell, samples);
            sys.localize(&y)
                .expect("localization succeeds")
                .point
                .distance(&world.grid().cell_center(cell))
        })
        .collect();
    Row { rank, recon_dbm, loc_median_m: median(errs) }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let num_seeds: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let samples: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(40);
    let seeds: Vec<u64> = (1..=num_seeds).collect();

    eprintln!("link_sweep: M in {{4..20}}, 90-day update, {} seeds ...", seeds.len());
    println!("== Link-density sweep (90-day update; reference count = matrix rank) ==");
    println!(
        "{:>8} {:>12} {:>18} {:>16} {:>18}",
        "links", "rank (=n)", "recon [dBm]", "loc median [m]", "update cost [h]"
    );
    for links in [4, 6, 8, 10, 14, 20] {
        let rows: Vec<_> = seeds.iter().map(|&s| run(links, s, samples)).collect();
        let n = rows.len() as f64;
        let rank = rows.iter().map(|r| r.rank).sum::<usize>() as f64 / n;
        let recon = rows.iter().map(|r| r.recon_dbm).sum::<f64>() / n;
        let locm = rows.iter().map(|r| r.loc_median_m).sum::<f64>() / n;
        println!(
            "{:>8} {:>12.1} {:>18.2} {:>16.2} {:>18.2}",
            links,
            rank,
            recon,
            locm,
            rank * 100.0 / 3600.0
        );
    }
    println!(
        "\nMore links buy accuracy but raise the fingerprint-matrix rank, i.e. the number of \
         reference cells every update must visit — the paper's M = 10 balances the two."
    );
}
