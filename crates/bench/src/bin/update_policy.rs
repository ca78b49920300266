//! Update-policy experiment (`policy` row in DESIGN.md): quantify the
//! "time-adaptive" part of TafLoc's name. Four maintenance policies run over a
//! 120-day deployment with weekly accuracy checkpoints:
//!
//! * **never** — day-0 fingerprints age in place;
//! * **fixed-30d / fixed-7d** — reference-only updates on a fixed schedule;
//! * **monitor** — a [`tafloc_core::monitor::DriftMonitor`] spot-checks two
//!   reference cells weekly and triggers an update only when the estimated
//!   database error crosses 3 dB.
//!
//! The output table reports mean localization error and total labor hours —
//! the adaptive policy should sit on the Pareto front.
//!
//! Usage: `cargo run --release -p taf-bench --bin update_policy [seeds] [samples]`

use taf_rfsim::{campaign, World, WorldConfig};
use tafloc_core::db::FingerprintDb;
use tafloc_core::monitor::{MonitorConfig, Recommendation};
use tafloc_core::system::{TafLoc, TafLocConfig};

const HORIZON_DAYS: f64 = 120.0;
const CHECK_EVERY_DAYS: f64 = 7.0;
/// Labor: 100 s per surveyed cell.
const HOURS_PER_CELL: f64 = 100.0 / 3600.0;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Policy {
    Never,
    Fixed { interval_days: f64 },
    Monitored { threshold_db: f64, spot_cells: usize },
}

#[derive(Debug, Clone, Copy)]
struct Outcome {
    mean_err_m: f64,
    updates: usize,
    labor_hours: f64,
}

fn eval_errors(world: &World, sys: &TafLoc, t: f64, samples: usize) -> Vec<f64> {
    (0..world.num_cells())
        .step_by(4)
        .map(|cell| {
            let y = campaign::snapshot_at_cell(world, t, cell, samples);
            sys.localize(&y)
                .expect("localization succeeds")
                .point
                .distance(&world.grid().cell_center(cell))
        })
        .collect()
}

fn run_policy(policy: Policy, seed: u64, samples: usize) -> Outcome {
    let world = World::new(WorldConfig::paper_default(), seed);
    let x0 = campaign::full_calibration(&world, 0.0, samples);
    let e0 = campaign::empty_snapshot(&world, 0.0, samples);
    let db = FingerprintDb::from_world(x0, &world).expect("world-consistent db");
    let mut sys = TafLoc::calibrate(TafLocConfig::default(), db, e0).expect("calibration succeeds");

    let mut monitor = match policy {
        Policy::Monitored { threshold_db, spot_cells } => Some(
            sys.monitor(
                spot_cells,
                0.0,
                MonitorConfig {
                    error_threshold_db: threshold_db,
                    min_interval_days: CHECK_EVERY_DAYS,
                },
            )
            .expect("monitor builds"),
        ),
        _ => None,
    };

    let mut updates = 0;
    let mut labor_hours = 0.0;
    let mut errs = Vec::new();
    let mut day = CHECK_EVERY_DAYS;
    let mut last_fixed_update = 0.0;
    while day <= HORIZON_DAYS + 1e-9 {
        // Maintenance step.
        let do_update = match policy {
            Policy::Never => false,
            Policy::Fixed { interval_days } => day - last_fixed_update >= interval_days - 1e-9,
            Policy::Monitored { spot_cells, .. } => {
                let m = monitor.as_ref().expect("monitored policy has a monitor");
                let spot = campaign::measure_columns(&world, day, m.cells(), samples);
                labor_hours += spot_cells as f64 * HOURS_PER_CELL;
                matches!(
                    m.check(day, &spot).expect("spot check"),
                    Recommendation::UpdateRecommended { .. }
                )
            }
        };
        if do_update {
            let fresh = campaign::measure_columns(&world, day, sys.reference_cells(), samples);
            let empty = campaign::empty_snapshot(&world, day, samples);
            sys.update(&fresh, &empty).expect("update succeeds");
            labor_hours += sys.reference_cells().len() as f64 * HOURS_PER_CELL;
            updates += 1;
            last_fixed_update = day;
            if let Some(m) = monitor.as_mut() {
                let refreshed = sys.db().rss().select_cols(m.cells()).expect("cells exist");
                m.record_update(day, refreshed).expect("baseline refresh");
            }
        }
        // Accuracy checkpoint.
        errs.extend(eval_errors(&world, &sys, day, samples));
        day += CHECK_EVERY_DAYS;
    }
    Outcome { mean_err_m: errs.iter().sum::<f64>() / errs.len() as f64, updates, labor_hours }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let num_seeds: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(3);
    let samples: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(40);
    let seeds: Vec<u64> = (1..=num_seeds).collect();

    let policies: [(&str, Policy); 4] = [
        ("never", Policy::Never),
        ("fixed-30d", Policy::Fixed { interval_days: 30.0 }),
        ("fixed-7d", Policy::Fixed { interval_days: 7.0 }),
        ("monitor-3dB", Policy::Monitored { threshold_db: 3.0, spot_cells: 2 }),
    ];

    println!("== Update policies over {HORIZON_DAYS:.0} days (weekly accuracy checkpoints) ==");
    println!("{:>14} {:>16} {:>10} {:>14}", "policy", "mean error [m]", "updates", "labor [hours]");
    for (name, policy) in policies {
        let outs: Vec<_> = seeds.iter().map(|&s| run_policy(policy, s, samples)).collect();
        let n = outs.len() as f64;
        let mean_err = outs.iter().map(|o| o.mean_err_m).sum::<f64>() / n;
        let updates = outs.iter().map(|o| o.updates).sum::<usize>() as f64 / n;
        let labor = outs.iter().map(|o| o.labor_hours).sum::<f64>() / n;
        println!("{name:>14} {mean_err:>16.2} {updates:>10.1} {labor:>14.2}");
    }
    println!(
        "\n(for scale: ONE full re-survey of the 96-cell area costs {:.2} h)",
        96.0 * HOURS_PER_CELL
    );
}
