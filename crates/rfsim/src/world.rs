//! The simulated world: geometry + propagation + drift + noise, behind one handle.

use crate::deployment::Deployment;
use crate::drift::{DriftConfig, OuProcess};
use crate::events::EnvironmentEvent;
use crate::geometry::Point;
use crate::grid::FloorGrid;
use crate::noise::NoiseConfig;
use crate::pathloss::LogDistance;
use crate::shadowing::ShadowingConfig;
use crate::target::TargetModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use taf_linalg::Matrix;

// The CLI's world file.
taf_wire::schema! {
    /// Everything needed to instantiate a [`World`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct WorldConfig {
        /// Monitored-area grid.
        pub grid: FloorGrid,
        /// Number of deployed links `M`.
        pub num_links: usize,
        /// Distance (m) between the grid boundary and the transceivers.
        pub deployment_margin: f64,
        /// Large-scale path loss.
        pub pathloss: LogDistance,
        /// Static correlated shadowing.
        pub shadowing: ShadowingConfig,
        /// Target perturbation model.
        pub target: TargetModel,
        /// Temporal drift model.
        pub drift: DriftConfig,
        /// Measurement noise model.
        pub noise: NoiseConfig,
        /// Discrete environment changes (furniture moves, doors); empty by default
        /// — the paper's headline experiments isolate pure temporal drift ("even
        /// without any change in the environment").
        pub events: Vec<EnvironmentEvent>,
    }
}

impl WorldConfig {
    /// The paper's deployment: 96 grids of 0.6 m in a 9 m x 12 m room, 10 links,
    /// drift calibrated to the in-text 2.5 dBm @ 5 d / 6 dBm @ 45 d figures.
    pub fn paper_default() -> Self {
        WorldConfig {
            grid: FloorGrid::paper_default(),
            num_links: 10,
            deployment_margin: 0.3,
            pathloss: LogDistance::indoor_2_4ghz(),
            shadowing: ShadowingConfig::default(),
            target: TargetModel::default(),
            drift: DriftConfig::paper_calibrated(),
            noise: NoiseConfig::default(),
            events: Vec::new(),
        }
    }

    /// A small, fast world for unit/integration tests: 5 x 6 grid, 6 links.
    pub fn small_test() -> Self {
        WorldConfig {
            grid: FloorGrid::new(Point::new(0.0, 0.0), 0.6, 5, 6),
            num_links: 6,
            deployment_margin: 0.3,
            pathloss: LogDistance::indoor_2_4ghz(),
            shadowing: ShadowingConfig::default(),
            target: TargetModel::default(),
            drift: DriftConfig::paper_calibrated(),
            noise: NoiseConfig::default(),
            events: Vec::new(),
        }
    }

    /// Checks the values [`World::new`] asserts on, so a config read from a
    /// file is refused with a reason instead of a panic: at least one link
    /// ([`Deployment::perimeter`]), a positive decorrelation distance (the
    /// shadowing covariance's Cholesky factor) and positive drift time
    /// constants ([`OuProcess::new`]). A path-loss reference distance that
    /// is not positive makes every RSS non-finite, so it is refused too. The
    /// grid checks its own shape when it is built.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_links == 0 {
            return Err("num_links must be at least 1".into());
        }
        for (field, value) in [
            ("pathloss.d0", self.pathloss.d0),
            ("shadowing.decorrelation_m", self.shadowing.decorrelation_m),
            ("drift.tau_days", self.drift.tau_days),
            ("drift.entry_fast_tau_days", self.drift.entry_fast_tau_days),
        ] {
            if !(value > 0.0) {
                return Err(format!("{field} must be positive, got {value}"));
            }
        }
        Ok(())
    }

    /// A square monitored region with the paper's 0.6 m cell size and `edge_m`
    /// meters on a side — the Fig. 4 area sweep. Link count stays at 10 as in the
    /// paper's deployment.
    pub fn square_area(edge_m: f64) -> Self {
        let cells = (edge_m / 0.6).round().max(1.0) as usize;
        WorldConfig {
            grid: FloorGrid::new(Point::new(0.0, 0.0), 0.6, cells, cells),
            ..WorldConfig::paper_default()
        }
    }
}

/// A fully instantiated simulated environment.
///
/// All randomness is derived from the construction `seed`: two `World`s built from
/// the same `(config, seed)` produce identical RSS forever, which is what makes
/// the paper-figure experiments reproducible.
#[derive(Debug)]
pub struct World {
    config: WorldConfig,
    seed: u64,
    deployment: Deployment,
    /// Per-link no-target RSS at day 0 (path loss + static shadowing).
    base_rss: Vec<f64>,
    /// Per-link drift processes.
    link_drift: Vec<OuProcess>,
    /// Slow entry-drift *temporal* processes: `SLOW_COMPONENTS` per link.
    ///
    /// The slow aging of the target-present multipath pattern is spatially
    /// smooth — a temperature or humidity change reshapes reflections over
    /// whole regions, not isolated 0.6 m cells. Each link's entry drift is a
    /// superposition of a few fixed low-frequency spatial waves whose
    /// amplitudes evolve as OU processes. (Smoothness also means the
    /// continuity/similarity priors in LoLi-IR have real structure to exploit,
    /// and that localization does not see the drift as per-cell white noise.)
    entry_slow: Vec<OuProcess>,
    /// Fixed spatial basis per (link, component): `(orientation, freq, phase)`.
    entry_basis: Vec<(f64, f64, f64)>,
    /// Fast per-(link, cell) channel-variation processes, row-major
    /// (`link * num_cells + cell`). Independent per entry: short-term fading
    /// decorrelates across cells.
    entry_fast: Vec<OuProcess>,
}

/// Number of spatial wave components per link in the slow entry-drift field.
const SLOW_COMPONENTS: usize = 3;

/// Stream identifiers partitioning the deterministic RNG space.
const STREAM_LINK_DRIFT: u64 = 1 << 32;
const STREAM_ENTRY_DRIFT: u64 = 2 << 32;
const STREAM_ENTRY_FAST: u64 = 3 << 32;
const STREAM_ENTRY_BASIS: u64 = 4 << 32;

impl World {
    /// Instantiates a world from a config and a seed.
    pub fn new(config: WorldConfig, seed: u64) -> Self {
        let deployment =
            Deployment::perimeter(&config.grid, config.num_links, config.deployment_margin);
        let mut rng = StdRng::seed_from_u64(crate::rng::hash_u64(seed, 0, 0));
        let shadow = config.shadowing.sample(&deployment, &mut rng);
        let base_rss: Vec<f64> = deployment
            .links()
            .iter()
            .zip(&shadow)
            .map(|(l, s)| config.pathloss.rss(l.segment.length()) + s)
            .collect();

        let m = deployment.num_links();
        let n = config.grid.num_cells();
        let link_drift = (0..m)
            .map(|i| {
                OuProcess::new(
                    seed,
                    STREAM_LINK_DRIFT + i as u64,
                    config.drift.link_sigma_db,
                    config.drift.tau_days,
                )
            })
            .collect();
        // Slow entry drift: per (link, component) unit-variance OU amplitudes on
        // fixed low-frequency spatial waves. The √(2/3) scale makes the field's
        // spatially averaged standard deviation equal `entry_sigma_db`
        // (SLOW_COMPONENTS sin² terms average 1/2 each).
        let amp = config.drift.entry_sigma_db * (2.0 / SLOW_COMPONENTS as f64).sqrt();
        let entry_slow = (0..m * SLOW_COMPONENTS)
            .map(|k| {
                OuProcess::new(seed, STREAM_ENTRY_DRIFT + k as u64, amp, config.drift.tau_days)
            })
            .collect();
        let entry_basis = (0..m * SLOW_COMPONENTS)
            .map(|k| {
                let theta = crate::rng::uniform(seed, STREAM_ENTRY_BASIS, 3 * k as u64)
                    * std::f64::consts::TAU;
                // Wavelengths of ~3-6 m: regional, not per-cell.
                let freq =
                    1.0 + 1.1 * crate::rng::uniform(seed, STREAM_ENTRY_BASIS, 3 * k as u64 + 1);
                let phase = crate::rng::uniform(seed, STREAM_ENTRY_BASIS, 3 * k as u64 + 2)
                    * std::f64::consts::TAU;
                (theta, freq, phase)
            })
            .collect();
        let entry_fast = (0..m * n)
            .map(|k| {
                OuProcess::new(
                    seed,
                    STREAM_ENTRY_FAST + k as u64,
                    config.drift.entry_fast_sigma_db,
                    config.drift.entry_fast_tau_days,
                )
            })
            .collect();

        World {
            config,
            seed,
            deployment,
            base_rss,
            link_drift,
            entry_slow,
            entry_basis,
            entry_fast,
        }
    }

    /// Slow entry-drift field of `link` at point `p` and time `t_days` (dB).
    fn entry_slow_drift(&self, link: usize, p: &Point, t_days: f64) -> f64 {
        if self.config.drift.entry_sigma_db == 0.0 {
            return 0.0;
        }
        (0..SLOW_COMPONENTS)
            .map(|k| {
                let idx = link * SLOW_COMPONENTS + k;
                let (theta, freq, phase) = self.entry_basis[idx];
                let wave = (freq * (p.x * theta.cos() + p.y * theta.sin()) + phase).sin();
                wave * self.entry_slow[idx].at(t_days)
            })
            .sum()
    }

    /// The paper's environment with the given seed.
    pub fn paper_default(seed: u64) -> Self {
        World::new(WorldConfig::paper_default(), seed)
    }

    /// Construction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Configuration this world was built from.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// Monitored-area grid.
    pub fn grid(&self) -> &FloorGrid {
        &self.config.grid
    }

    /// Transceiver deployment.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Number of links `M`.
    pub fn num_links(&self) -> usize {
        self.deployment.num_links()
    }

    /// Number of location cells `N`.
    pub fn num_cells(&self) -> usize {
        self.config.grid.num_cells()
    }

    /// Noise-free RSS of `link` at time `t_days` with **no target present**.
    pub fn empty_rss(&self, link: usize, t_days: f64) -> f64 {
        let seg = &self.deployment.link(link).segment;
        let events: f64 = self
            .config
            .events
            .iter()
            .map(|e| e.link_effect(seg.distance_to_point(&e.location), t_days))
            .sum();
        self.base_rss[link] + self.link_drift[link].at(t_days) + events
    }

    /// Noise-free RSS of `link` at time `t_days` with the target standing at an
    /// arbitrary point `p` (not necessarily a cell center).
    ///
    /// Includes the per-entry drift of the grid cell containing `p` (zero outside
    /// the monitored region), so a live measurement with the target in cell `j`
    /// observes the same physical quantity a surveyor records for column `j` —
    /// the aging of the target-present multipath pattern affects both equally.
    pub fn rss_with_target_at(&self, link: usize, p: &Point, t_days: f64) -> f64 {
        let seg = &self.deployment.link(link).segment;
        let entry = match self.config.grid.cell_at(p) {
            Some(cell) => {
                let events: f64 =
                    self.config.events.iter().map(|e| e.entry_effect(p, t_days)).sum();
                self.entry_slow_drift(link, p, t_days)
                    + self.entry_fast[link * self.num_cells() + cell].at(t_days)
                    + events
            }
            None => 0.0,
        };
        self.empty_rss(link, t_days)
            + self.config.target.rss_delta_db(self.seed, link, seg, p)
            + entry
    }

    /// Noise-free RSS of `link` at time `t_days` with **several** simultaneous
    /// device-free targets.
    ///
    /// Each body's perturbation (shadowing + scattering + the entry variation of
    /// its cell) adds in dB — a standard approximation that is accurate while
    /// the bodies are separated by more than a couple of Fresnel-zone widths
    /// (each extra body on the same LoS removes a similar fraction of the
    /// remaining energy). The single-target paper never needs this; it powers
    /// the multi-target extension experiment.
    pub fn rss_with_targets_at(&self, link: usize, positions: &[Point], t_days: f64) -> f64 {
        let base = self.empty_rss(link, t_days);
        positions.iter().map(|p| self.rss_with_target_at(link, p, t_days) - base).sum::<f64>()
            + base
    }

    /// Noise-free fingerprint entry: RSS of `link` at `t_days` with the target in
    /// cell `cell` (equals [`World::rss_with_target_at`] at the cell center).
    pub fn fingerprint_rss(&self, link: usize, cell: usize, t_days: f64) -> f64 {
        let p = self.config.grid.cell_center(cell);
        self.rss_with_target_at(link, &p, t_days)
    }

    /// The full noise-free fingerprint matrix `X(t)` (`M x N`) — the ground truth
    /// against which reconstructions are scored (Fig. 3).
    pub fn fingerprint_truth(&self, t_days: f64) -> Matrix {
        Matrix::from_fn(self.num_links(), self.num_cells(), |i, j| {
            self.fingerprint_rss(i, j, t_days)
        })
    }

    /// Per-link no-target RSS vector at `t_days` (noise-free).
    pub fn empty_truth(&self, t_days: f64) -> Vec<f64> {
        (0..self.num_links()).map(|i| self.empty_rss(i, t_days)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_dimensions() {
        let w = World::paper_default(1);
        assert_eq!(w.num_links(), 10);
        assert_eq!(w.num_cells(), 96);
        let x = w.fingerprint_truth(0.0);
        assert_eq!(x.shape(), (10, 96));
        assert!(!x.has_non_finite());
    }

    #[test]
    fn truth_matrices_are_links_by_cells() {
        let w = World::new(WorldConfig::small_test(), 5);
        let x = w.fingerprint_truth(12.5);
        assert_eq!(x.shape(), (w.num_links(), w.num_cells()));
        assert_ne!(w.num_links(), w.num_cells(), "a square world would hide a transpose");
        for (link, cell) in [(0, 0), (1, 3), (w.num_links() - 1, w.num_cells() - 1)] {
            assert_eq!(x[(link, cell)], w.fingerprint_rss(link, cell, 12.5));
        }
        let empty = w.empty_truth(12.5);
        assert!((0..w.num_links()).all(|l| empty[l] == w.empty_rss(l, 12.5)));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = World::paper_default(7).fingerprint_truth(5.0);
        let b = World::paper_default(7).fingerprint_truth(5.0);
        assert!(a.approx_eq(&b, 0.0));
        let c = World::paper_default(8).fingerprint_truth(5.0);
        assert!(!a.approx_eq(&c, 1e-6));
    }

    #[test]
    fn rss_values_physically_plausible() {
        let w = World::paper_default(3);
        for link in 0..w.num_links() {
            let rss = w.empty_rss(link, 0.0);
            assert!((-95.0..=-20.0).contains(&rss), "link {link}: {rss} dBm");
        }
    }

    #[test]
    fn target_on_los_causes_clear_decrease() {
        let w = World::paper_default(3);
        // Find the cell nearest to some link's LoS.
        let seg = w.deployment().link(0).segment;
        let (cell, _) = (0..w.num_cells())
            .map(|c| (c, seg.distance_to_point(&w.grid().cell_center(c))))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        let drop = w.empty_rss(0, 0.0) - w.fingerprint_rss(0, cell, 0.0);
        assert!(drop > 2.0, "LoS-adjacent cell should attenuate clearly, got {drop} dB");
    }

    #[test]
    fn drift_changes_rss_over_time() {
        let w = World::paper_default(3);
        let x0 = w.fingerprint_truth(0.0);
        let x45 = w.fingerprint_truth(45.0);
        let diff = x0.sub(&x45).unwrap();
        let mean_abs = diff.map(f64::abs).mean();
        // Calibrated to ~6 dBm at 45 days; one world realization has sampling
        // spread, accept a generous band.
        assert!((2.0..=12.0).contains(&mean_abs), "45-day mean |ΔRSS| = {mean_abs}");
    }

    #[test]
    fn no_drift_config_is_static() {
        let mut cfg = WorldConfig::small_test();
        cfg.drift = DriftConfig::none();
        let w = World::new(cfg, 5);
        let x0 = w.fingerprint_truth(0.0);
        let x90 = w.fingerprint_truth(90.0);
        assert!(x0.approx_eq(&x90, 1e-12));
    }

    #[test]
    fn fingerprint_matrix_is_approximately_low_rank() {
        // Property P1 from the poster: most of the energy concentrates in a few
        // singular values.
        let w = World::paper_default(11);
        let x = w.fingerprint_truth(0.0);
        // Center rows (remove the per-link base level) to expose the structure.
        let centered = Matrix::from_fn(x.rows(), x.cols(), |i, j| {
            x[(i, j)] - taf_linalg::stats::mean(x.row(i)).unwrap()
        });
        let svd = centered.svd().unwrap();
        // M = 10 bounds the rank at 10; "approximately low rank" here means the
        // spectrum is front-loaded: half the possible rank captures most energy.
        let frac5 = svd.energy_fraction(5);
        let frac8 = svd.energy_fraction(8);
        assert!(frac5 > 0.75, "top-5 singular values should capture >75% energy, got {frac5}");
        assert!(frac8 > 0.92, "top-8 singular values should capture >92% energy, got {frac8}");
    }

    #[test]
    fn square_area_config_scales() {
        let cfg = WorldConfig::square_area(6.0);
        assert_eq!(cfg.grid.num_cells(), 100);
        let cfg = WorldConfig::square_area(12.0);
        assert_eq!(cfg.grid.num_cells(), 400);
    }

    #[test]
    fn validate_accepts_every_builtin_config() {
        let mut no_drift = WorldConfig::small_test();
        no_drift.drift = DriftConfig::none();
        for cfg in [
            WorldConfig::paper_default(),
            WorldConfig::small_test(),
            WorldConfig::square_area(6.0),
            no_drift,
        ] {
            assert_eq!(cfg.validate(), Ok(()), "{cfg:?}");
        }
    }

    #[test]
    fn validate_refuses_what_world_new_panics_on() {
        // (field named in the error, whether `World::new` panics, mutation)
        type Case = (&'static str, bool, fn(&mut WorldConfig));
        let cases: [Case; 7] = [
            ("num_links", true, |c| c.num_links = 0),
            ("shadowing.decorrelation_m", true, |c| c.shadowing.decorrelation_m = 0.0),
            ("drift.tau_days", true, |c| c.drift.tau_days = 0.0),
            ("drift.tau_days", true, |c| c.drift.tau_days = -3.0),
            ("drift.tau_days", true, |c| c.drift.tau_days = f64::NAN),
            ("drift.entry_fast_tau_days", true, |c| c.drift.entry_fast_tau_days = 0.0),
            // Builds, but every RSS is non-finite.
            ("pathloss.d0", false, |c| c.pathloss.d0 = 0.0),
        ];
        for (field, panics, break_it) in cases {
            let mut cfg = WorldConfig::small_test();
            break_it(&mut cfg);
            let err = cfg.validate().expect_err(field);
            assert!(err.contains(field), "{field}: {err}");
            let built = std::panic::catch_unwind(move || World::new(cfg, 1));
            assert_eq!(built.is_err(), panics, "{field}");
        }
    }

    #[test]
    fn multi_target_superposition() {
        let w = World::paper_default(4);
        let p1 = w.grid().cell_center(10);
        let p2 = w.grid().cell_center(85);
        // No targets = empty room.
        assert_eq!(w.rss_with_targets_at(0, &[], 0.0), w.empty_rss(0, 0.0));
        // One target = the single-target model.
        assert_eq!(w.rss_with_targets_at(0, &[p1], 0.0), w.rss_with_target_at(0, &p1, 0.0));
        // Two targets: deltas add in dB.
        let base = w.empty_rss(0, 0.0);
        let d1 = w.rss_with_target_at(0, &p1, 0.0) - base;
        let d2 = w.rss_with_target_at(0, &p2, 0.0) - base;
        let both = w.rss_with_targets_at(0, &[p1, p2], 0.0);
        assert!((both - (base + d1 + d2)).abs() < 1e-12);
    }

    #[test]
    fn environment_event_steps_rss() {
        let mut cfg = WorldConfig::small_test();
        cfg.drift = DriftConfig::none();
        let grid_center = Point::new(1.5, 1.8);
        cfg.events.push(EnvironmentEvent {
            day: 10.0,
            location: grid_center,
            radius_m: 1.0,
            link_delta_db: -5.0,
            entry_delta_db: 3.0,
        });
        let w = World::new(cfg, 6);
        // Before the event nothing changes.
        assert_eq!(w.empty_rss(0, 0.0), w.empty_rss(0, 9.9));
        // After the event, at least one LoS-crossing link steps down by 5 dB.
        let stepped = (0..w.num_links())
            .any(|l| (w.empty_rss(l, 11.0) - w.empty_rss(l, 9.0) + 5.0).abs() < 1e-9);
        assert!(stepped, "some link must cross within 1 m of the room center");
        // Cells near the object gain the entry effect; far cells do not.
        let near_cell = w.grid().cell_at(&grid_center).unwrap();
        let far_cell = 0;
        let near_delta =
            w.fingerprint_rss(0, near_cell, 11.0) - w.fingerprint_rss(0, near_cell, 9.0);
        let far_delta = w.fingerprint_rss(0, far_cell, 11.0) - w.fingerprint_rss(0, far_cell, 9.0);
        // near includes link effect (if link 0 affected) + entry effect; compare
        // the difference of differences to isolate the entry term.
        assert!((near_delta - far_delta) > 0.5, "near {near_delta} vs far {far_delta}");
    }

    #[test]
    fn rss_with_target_far_away_is_near_empty() {
        let w = World::paper_default(3);
        // A point far outside every link's Fresnel zone barely changes RSS.
        let far = Point::new(-50.0, -50.0);
        for link in 0..w.num_links() {
            let delta = (w.rss_with_target_at(link, &far, 0.0) - w.empty_rss(link, 0.0)).abs();
            assert!(delta <= 2.5 * w.config().target.scatter_db + 1e-9);
        }
    }
}
