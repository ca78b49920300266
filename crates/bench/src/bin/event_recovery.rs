//! Environment-change experiment (`event` row in DESIGN.md): the paper's
//! introduction names "movement of furniture, door opening and closing" as
//! fingerprint-expiry causes. This binary moves a cabinet into the room on
//! day 30 and shows (a) the stale database breaks immediately, and (b) one
//! reference-only TafLoc update the next day restores accuracy — no full
//! re-survey needed.
//!
//! Usage: `cargo run --release -p taf-bench --bin event_recovery [seeds] [samples]`

use taf_rfsim::events::EnvironmentEvent;
use taf_rfsim::geometry::Point;
use taf_rfsim::{campaign, World, WorldConfig};
use tafloc_core::db::FingerprintDb;
use tafloc_core::system::{TafLoc, TafLocConfig};

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    v[v.len() / 2]
}

fn loc_median(world: &World, sys: &TafLoc, t: f64, samples: usize) -> f64 {
    let errs: Vec<f64> = (0..world.num_cells())
        .step_by(2)
        .map(|cell| {
            let y = campaign::snapshot_at_cell(world, t, cell, samples);
            sys.localize(&y)
                .expect("localization succeeds")
                .point
                .distance(&world.grid().cell_center(cell))
        })
        .collect();
    median(errs)
}

fn run_seed(seed: u64, samples: usize) -> [f64; 4] {
    let mut config = WorldConfig::paper_default();
    // A cabinet moves near the middle of the room on day 30.
    let center = Point::new(
        config.grid.origin().x + config.grid.width() * 0.45,
        config.grid.origin().y + config.grid.height() * 0.55,
    );
    config.events.push(EnvironmentEvent {
        day: 30.0,
        location: center,
        radius_m: 1.5,
        link_delta_db: -4.0,
        entry_delta_db: 2.5,
    });
    let world = World::new(config, seed);

    let x0 = campaign::full_calibration(&world, 0.0, samples);
    let e0 = campaign::empty_snapshot(&world, 0.0, samples);
    let db = FingerprintDb::from_world(x0, &world).expect("world-consistent db");
    let mut sys = TafLoc::calibrate(TafLocConfig::default(), db, e0).expect("calibration succeeds");

    let before = loc_median(&world, &sys, 29.0, samples);
    let after_event = loc_median(&world, &sys, 31.0, samples);

    // One reference-only update on day 31.
    let fresh = campaign::measure_columns(&world, 31.0, sys.reference_cells(), samples);
    let empty = campaign::empty_snapshot(&world, 31.0, samples);
    sys.update(&fresh, &empty).expect("update succeeds");
    let after_update = loc_median(&world, &sys, 31.0, samples);

    // Reconstruction error against the post-event truth.
    let truth = world.fingerprint_truth(31.0);
    let recon_err = sys.db().mean_abs_error(&truth).expect("shapes agree");

    [before, after_event, after_update, recon_err]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let num_seeds: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let samples: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(50);
    let seeds: Vec<u64> = (1..=num_seeds).collect();

    eprintln!("event_recovery: cabinet moves on day 30; {} seeds ...", seeds.len());
    let per_seed: Vec<_> = seeds.iter().map(|&s| run_seed(s, samples)).collect();
    let mut avg = [0.0; 4];
    for r in &per_seed {
        for (a, v) in avg.iter_mut().zip(r) {
            *a += v / per_seed.len() as f64;
        }
    }

    println!("\n== Environment change: furniture moved on day 30 ==");
    println!("{:>44} {:>12}", "", "median [m]");
    println!("{:>44} {:>12.2}", "day 29 (drift only, stale day-0 DB)", avg[0]);
    println!("{:>44} {:>12.2}", "day 31 (cabinet moved, stale day-0 DB)", avg[1]);
    println!("{:>44} {:>12.2}", "day 31 after reference-only update (0.28 h)", avg[2]);
    println!("\nreconstructed-DB error vs post-event truth: {:.2} dBm", avg[3]);
    println!(
        "the update must recover most of the event-induced degradation: {:.2} -> {:.2} -> {:.2}",
        avg[0], avg[1], avg[2]
    );
}
