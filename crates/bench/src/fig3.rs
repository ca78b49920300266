//! Fig. 3 driver: fingerprint reconstruction error CDFs after different time
//! periods.
//!
//! Protocol (matching the paper's): a full site survey at day 0 calibrates
//! TafLoc; at each horizon `t ∈ {3, 5, 15, 45, 90}` days only the `n = 10`
//! reference cells (plus one empty-room snapshot) are re-measured; LoLi-IR
//! reconstructs the full matrix; the per-entry absolute error against the
//! drifted ground-truth matrix `X(t)` forms one CDF curve per horizon.

use taf_rfsim::{campaign, World, WorldConfig};
use tafloc_core::db::FingerprintDb;
use tafloc_core::eval::reconstruction_errors;
use tafloc_core::system::{TafLoc, TafLocConfig};

/// The paper's horizons, in days (3 d, 5 d, 15 d, 45 d, 3 months).
pub const HORIZONS: [f64; 5] = [3.0, 5.0, 15.0, 45.0, 90.0];

/// Paper-reported mean reconstruction errors (dBm) for 3 d / 15 d / 45 d / 3 mo.
pub const PAPER_MEANS: [(f64, f64); 4] = [(3.0, 2.7), (15.0, 3.3), (45.0, 3.6), (90.0, 4.1)];

/// Per-entry reconstruction errors, one sample per horizon.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// `errors[h]` = per-entry |X̂(t_h) − X(t_h)| over all seeds.
    pub errors: Vec<Vec<f64>>,
}

/// Runs the Fig. 3 protocol on one world seed, appending errors into `into`.
pub fn run_seed(seed: u64, samples: usize, into: &mut [Vec<f64>]) {
    let world = World::new(WorldConfig::paper_default(), seed);
    let x0 = campaign::full_calibration(&world, 0.0, samples);
    let e0 = campaign::empty_snapshot(&world, 0.0, samples);
    let db = FingerprintDb::from_world(x0, &world).expect("world-consistent db");
    let sys = TafLoc::calibrate(TafLocConfig::default(), db, e0).expect("calibration succeeds");

    for (h, &t) in HORIZONS.iter().enumerate() {
        let fresh = campaign::measure_columns(&world, t, sys.reference_cells(), samples);
        let empty = campaign::empty_snapshot(&world, t, samples);
        let rec = sys.reconstruct_db(&fresh, &empty).expect("reconstruction succeeds");
        let truth = world.fingerprint_truth(t);
        into[h].extend(reconstruction_errors(&rec.matrix, &truth).expect("shapes agree"));
    }
}

/// Runs the full experiment over the given seeds and merges samples.
pub fn run(seeds: &[u64], samples: usize) -> Fig3Result {
    let per_seed: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            let mut errs = vec![Vec::new(); HORIZONS.len()];
            run_seed(seed, samples, &mut errs);
            errs
        })
        .collect();
    let mut errors = vec![Vec::new(); HORIZONS.len()];
    for seed_errs in per_seed {
        for (h, e) in seed_errs.into_iter().enumerate() {
            errors[h].extend(e);
        }
    }
    Fig3Result { errors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taf_linalg::stats::mean;

    #[test]
    fn single_seed_errors_grow_with_horizon() {
        let result = run(&[11], 10);
        assert_eq!(result.errors.len(), 5);
        let means: Vec<f64> = result.errors.iter().map(|e| mean(e).unwrap()).collect();
        // The 3-day error must be below the 90-day error (the defining shape of
        // Fig. 3); intermediate horizons can wiggle within one realization.
        assert!(
            means[0] < means[4],
            "3-day error {:.2} should be below 90-day error {:.2}",
            means[0],
            means[4]
        );
        // All errors in a sane dB range.
        assert!(means.iter().all(|&m| m > 0.0 && m < 15.0), "{means:?}");
    }

    #[test]
    fn seeds_merge_in_the_order_given() {
        // Each seed's samples depend on that seed alone, and land in the
        // order the seeds were listed.
        let (a, b) = (run(&[11], 6), run(&[12], 6));
        let both = run(&[12, 11], 6);
        for h in 0..HORIZONS.len() {
            let want: Vec<f64> = b.errors[h].iter().chain(&a.errors[h]).copied().collect();
            assert_eq!(both.errors[h], want, "horizon {h}");
        }
    }
}
