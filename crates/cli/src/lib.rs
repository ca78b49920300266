//! # tafloc-cli
//!
//! Command-line workflow for the TafLoc reproduction. The CLI drives the same
//! library code as the examples and benches, with all state in JSON/CSV files
//! so each lifecycle step is a separate invocation:
//!
//! ```text
//! tafloc new-world    --seed 7 --out world.json
//! tafloc survey       --world world.json --day 0 --samples 100 --out survey.json
//! tafloc calibrate    --survey survey.json --out system.json
//! tafloc measure-refs --world world.json --system system.json --day 45 --samples 100 --out refs.json
//! tafloc update       --system system.json --refs refs.json --out system.json
//! tafloc snapshot     --world world.json --day 45 --cell 42 --samples 100 --out y.json
//! tafloc locate       --system system.json --y y.json
//! tafloc gen-stream   --world world.json --day 45 --cell 42 --out stream.json
//! tafloc ingest       --addr 127.0.0.1:7777 --site lab --stream stream.json --locate
//! tafloc info         --system system.json
//! tafloc export-db    --system system.json --out db.csv
//! ```
//!
//! The `--world` files pin a simulated environment (config + seed); on a real
//! deployment the `survey`/`measure-refs`/`snapshot` steps would be replaced by
//! actual measurements, and everything from `calibrate` on would be unchanged.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// `!(x > 0.0)` deliberately rejects NaN along with non-positive values in
// config validation — the clippy lint suggesting `x <= 0.0` would silently
// accept NaN. Indexed loops are used where two or more parallel buffers are
// driven by one index; rewriting them as iterator chains hurts readability in
// the numerical kernels.
#![allow(clippy::neg_cmp_op_on_partial_ord, clippy::needless_range_loop)]

use std::fmt;
use std::path::{Path, PathBuf};
use taf_linalg::Matrix;
use taf_rfsim::{campaign, World, WorldConfig};
use taf_wire::{schema, Codec};
use tafloc_core::db::FingerprintDb;
use tafloc_core::system::{SolverCache, SystemSnapshot, TafLoc, TafLocConfig};
use tafloc_core::Mask;
use tafloc_ingest::LinkSample;

/// CLI error: a message for the user plus a process exit code of 1.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<tafloc_core::TaflocError> for CliError {
    fn from(e: tafloc_core::TaflocError) -> Self {
        CliError(e.to_string())
    }
}

impl From<taf_linalg::LinalgError> for CliError {
    fn from(e: taf_linalg::LinalgError) -> Self {
        CliError(e.to_string())
    }
}

impl From<tafloc_serve::ServeError> for CliError {
    fn from(e: tafloc_serve::ServeError) -> Self {
        CliError(e.to_string())
    }
}

impl From<taf_plan::PlanError> for CliError {
    fn from(e: taf_plan::PlanError) -> Self {
        CliError(e.to_string())
    }
}

/// Result alias for CLI operations.
pub type Result<T> = std::result::Result<T, CliError>;

// ----------------------------------------------------------------------
// File formats
// ----------------------------------------------------------------------

schema! {
    /// A pinned simulated environment: configuration plus seed.
    #[derive(Debug, Clone)]
    pub struct WorldFile {
        /// Simulator configuration.
        pub config: WorldConfig,
        /// World seed (all randomness derives from it).
        pub seed: u64,
    }
}

/// The largest seed a world file keeps exactly: JSON numbers are doubles.
const MAX_SEED: u64 = 1 << 53;

/// Reads a world file and instantiates the world it pins. A config
/// [`World::new`] would panic on is refused here instead.
fn read_world(path: &Path) -> Result<World> {
    let file: WorldFile = read_json(path)?;
    file.config
        .validate()
        .map_err(|e| CliError(format!("cannot parse {}: {e}", path.display())))?;
    Ok(World::new(file.config, file.seed))
}

schema! {
    /// A full site survey: the fingerprint database plus the empty-room baseline.
    #[derive(Debug, Clone)]
    pub struct SurveyFile {
        /// Day the survey was taken.
        pub day: f64,
        /// Surveyed fingerprint database.
        pub db: FingerprintDb,
        /// Empty-room RSS baseline at survey time.
        pub empty: Vec<f64>,
    }
}

schema! {
    /// A reference-location measurement set (the cheap update input).
    #[derive(Debug, Clone)]
    pub struct RefsFile {
        /// Day the references were measured.
        pub day: f64,
        /// Reference cells, in the system's selection order.
        pub cells: Vec<usize>,
        /// Measured columns (`M x cells.len()`).
        pub columns: Matrix,
        /// Fresh empty-room RSS baseline.
        pub empty: Vec<f64>,
    }
}

schema! {
    /// One live measurement vector.
    #[derive(Debug, Clone)]
    pub struct SnapshotFile {
        /// Day of the measurement.
        pub day: f64,
        /// Averaged per-link RSS.
        pub y: Vec<f64>,
    }
}

schema! {
    /// A raw per-link sample stream, as radios would deliver it.
    #[derive(Debug, Clone)]
    pub struct StreamFile {
        /// Day of the recording.
        pub day: f64,
        /// Raw samples in delivery order.
        pub samples: Vec<LinkSample>,
    }
}

// ----------------------------------------------------------------------
// JSON helpers
// ----------------------------------------------------------------------

/// Reads one CLI file: a JSON document of type `T`.
pub fn read_json<T: Codec>(path: &Path) -> Result<T> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read {}: {e}", path.display())))?;
    taf_wire::from_json(&text)
        .map_err(|e| CliError(format!("cannot parse {}: {e}", path.display())))
}

/// Writes one CLI file: `value` as compact JSON.
pub fn write_json<T: Codec>(path: &Path, value: &T) -> Result<()> {
    std::fs::write(path, taf_wire::to_json(value))
        .map_err(|e| CliError(format!("cannot write {}: {e}", path.display())))
}

// ----------------------------------------------------------------------
// Argument parsing (std-only; flags are --key value pairs plus switches)
// ----------------------------------------------------------------------

/// Parsed flag arguments.
#[derive(Debug, Default)]
pub struct Args {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// Parses `--key value` pairs and bare `--switch`es from raw arguments.
    pub fn parse(raw: &[String]) -> Result<Args> {
        let mut out = Args::default();
        let mut i = 0;
        while i < raw.len() {
            let token = &raw[i];
            let Some(key) = token.strip_prefix("--") else {
                return Err(CliError(format!(
                    "unexpected argument {token:?} (flags start with --)"
                )));
            };
            if i + 1 < raw.len() && !raw[i + 1].starts_with("--") {
                out.pairs.push((key.to_string(), raw[i + 1].clone()));
                i += 2;
            } else {
                out.switches.push(key.to_string());
                i += 1;
            }
        }
        Ok(out)
    }

    /// Required string flag.
    pub fn required(&self, key: &str) -> Result<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| CliError(format!("missing required flag --{key}")))
    }

    /// Optional string flag.
    pub fn optional(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Required path flag.
    pub fn path(&self, key: &str) -> Result<PathBuf> {
        Ok(PathBuf::from(self.required(key)?))
    }

    /// Parsed numeric flag with a default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T> {
        match self.optional(key) {
            None => Ok(default),
            Some(v) => {
                v.parse().map_err(|_| CliError(format!("flag --{key} expects a number, got {v:?}")))
            }
        }
    }

    /// Required parsed numeric flag.
    pub fn num_required<T: std::str::FromStr>(&self, key: &str) -> Result<T> {
        let v = self.required(key)?;
        v.parse().map_err(|_| CliError(format!("flag --{key} expects a number, got {v:?}")))
    }

    /// `true` when the bare switch is present.
    pub fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Refuses any flag `command` does not declare, naming the flag and the
    /// command; a declared flag must carry a value and a declared switch must
    /// not. Commands read only the keys they know, so without this a
    /// misspelled flag would be dropped silently. `flags` and `switches` are
    /// space-separated names.
    fn check(&self, command: &str, flags: &str, switches: &str) -> Result<()> {
        let has = |names: &str, key: &str| names.split_whitespace().any(|n| n == key);
        for key in self.pairs.iter().map(|(k, _)| k).chain(&self.switches) {
            if !has(flags, key) && !has(switches, key) {
                return Err(CliError(format!("{command} does not take --{key} (see tafloc help)")));
            }
        }
        if let Some((key, value)) = self.pairs.iter().find(|(k, _)| !has(flags, k)) {
            return Err(CliError(format!("--{key} is a switch and takes no value, got {value:?}")));
        }
        if let Some(key) = self.switches.iter().find(|k| !has(switches, k)) {
            return Err(CliError(format!("flag --{key} expects a value")));
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Commands
// ----------------------------------------------------------------------

/// `new-world`: pins a simulated environment to a file.
pub fn cmd_new_world(args: &Args) -> Result<String> {
    let seed: u64 = args.num("seed", 1)?;
    if seed > MAX_SEED {
        return Err(CliError(format!(
            "--seed must be at most 2^53 = {MAX_SEED}, the largest integer a JSON number \
             holds exactly; got {seed}"
        )));
    }
    let out = args.path("out")?;
    let config = if args.switch("small") {
        WorldConfig::small_test()
    } else if let Some(edge) = args.optional("edge") {
        let edge: f64 =
            edge.parse().map_err(|_| CliError(format!("--edge expects meters, got {edge:?}")))?;
        if !edge.is_finite() || edge <= 0.0 {
            return Err(CliError(format!("--edge must be finite and positive, got {edge}")));
        }
        WorldConfig::square_area(edge)
    } else {
        WorldConfig::paper_default()
    };
    let world = World::new(config.clone(), seed);
    write_json(&out, &WorldFile { config, seed })?;
    Ok(format!(
        "world written to {} ({} links, {} cells, seed {seed})",
        out.display(),
        world.num_links(),
        world.num_cells()
    ))
}

/// `survey`: simulates the full site survey.
pub fn cmd_survey(args: &Args) -> Result<String> {
    let world = read_world(&args.path("world")?)?;
    let day: f64 = args.num("day", 0.0)?;
    let samples: usize = args.num("samples", 100)?;
    let out = args.path("out")?;
    let rss = campaign::full_calibration(&world, day, samples);
    let empty = campaign::empty_snapshot(&world, day, samples);
    let db = FingerprintDb::from_world(rss, &world)?;
    let cells = db.num_cells();
    write_json(&out, &SurveyFile { day, db, empty })?;
    Ok(format!(
        "surveyed {cells} cells x {samples} samples on day {day}; written to {}",
        out.display()
    ))
}

/// `calibrate`: builds a TafLoc system from a survey.
pub fn cmd_calibrate(args: &Args) -> Result<String> {
    let survey: SurveyFile = read_json(&args.path("survey")?)?;
    let out = args.path("out")?;
    let mut config = TafLocConfig::default();
    config.ref_count = args.num("refs", config.ref_count)?;
    let sys = TafLoc::calibrate(config, survey.db, survey.empty)?;
    let refs = sys.reference_cells().to_vec();
    write_json(&out, &sys.snapshot())?;
    Ok(format!("calibrated; reference cells {refs:?}; system written to {}", out.display()))
}

/// `measure-refs`: simulates measuring the system's reference cells.
pub fn cmd_measure_refs(args: &Args) -> Result<String> {
    let world = read_world(&args.path("world")?)?;
    let snapshot: SystemSnapshot = read_json(&args.path("system")?)?;
    let day: f64 = args.num_required("day")?;
    let samples: usize = args.num("samples", 100)?;
    let out = args.path("out")?;
    let sys = TafLoc::from_snapshot(snapshot)?;
    let cells = sys.reference_cells().to_vec();
    let columns = campaign::measure_columns(&world, day, &cells, samples);
    let empty = campaign::empty_snapshot(&world, day, samples);
    write_json(&out, &RefsFile { day, cells: cells.clone(), columns, empty })?;
    Ok(format!(
        "measured {} reference cells on day {day}; written to {}",
        cells.len(),
        out.display()
    ))
}

// ----------------------------------------------------------------------
// Adaptive sensing (taf-plan)
// ----------------------------------------------------------------------

/// Parses `--policy` (default: uncertainty-greedy).
fn policy_from_args(args: &Args) -> Result<taf_plan::PlanPolicy> {
    match args.optional("policy") {
        None => Ok(taf_plan::PlanPolicy::UncertaintyGreedy),
        Some(p) => Ok(p.parse::<taf_plan::PlanPolicy>()?),
    }
}

/// The system's stored reference columns (`M x n`) — the probe input when no
/// fresh reference measurements are on hand.
fn stored_ref_columns(sys: &TafLoc) -> Result<Matrix> {
    let cells = sys.reference_cells();
    let mut out = Matrix::zeros(sys.db().num_links(), cells.len());
    for (k, &cell) in cells.iter().enumerate() {
        out.set_col(k, &sys.db().rss().col(cell))?;
    }
    Ok(out)
}

/// Runs a probe reconstruction to extract per-reference-cell confidence and
/// turns it into a measurement plan. Every link is assumed measurable — the
/// CLI has no live link census; the daemon path feeds the real one.
fn plan_from_probe(
    sys: &TafLoc,
    probe_refs: &Matrix,
    probe_empty: &[f64],
    budget: usize,
    policy: taf_plan::PlanPolicy,
    epoch: u64,
) -> Result<(taf_plan::MeasurementPlan, Vec<f64>)> {
    let rec = sys.reconstruct_db(probe_refs, probe_empty)?;
    let confidence: Vec<f64> =
        sys.reference_cells().iter().map(|&c| rec.diagnostics.cell_confidence[c]).collect();
    let planner = taf_plan::Planner::new(taf_plan::PlannerConfig::new(budget, policy))?;
    let health = vec![tafloc_ingest::LinkStatus::Live; sys.db().num_links()];
    let plan = planner.plan(&taf_plan::PlanInputs {
        epoch,
        n_refs: confidence.len(),
        link_health: &health,
        confidence: Some(&confidence),
        last_surveyed: None,
    })?;
    Ok((plan, confidence))
}

/// `plan`: computes a budgeted measurement plan for the next reference
/// survey from the system's per-cell reconstruction confidence.
pub fn cmd_plan(args: &Args) -> Result<String> {
    let snapshot: SystemSnapshot = read_json(&args.path("system")?)?;
    let sys = TafLoc::from_snapshot(snapshot)?;
    let budget: usize = args.num_required("budget")?;
    let policy = policy_from_args(args)?;
    let epoch: u64 = args.num("epoch", 1)?;
    // Probe input: fresh reference measurements when provided, else the
    // stored database's own columns (self-probe: confidence then reflects
    // the solver's leverage/coverage structure, not new data).
    let (probe_refs, probe_empty) = match args.optional("refs") {
        Some(p) => {
            let refs: RefsFile = read_json(Path::new(p))?;
            if refs.cells != sys.reference_cells() {
                return Err(CliError(format!(
                    "reference cells in the refs file {:?} disagree with the system's {:?}",
                    refs.cells,
                    sys.reference_cells()
                )));
            }
            (refs.columns, refs.empty)
        }
        None => (stored_ref_columns(&sys)?, sys.empty_rss().to_vec()),
    };
    let (plan, confidence) =
        plan_from_probe(&sys, &probe_refs, &probe_empty, budget, policy, epoch)?;
    let mut msg = format!(
        "plan for epoch {epoch} ({policy}): {} of {} link-measurements ({:.0}%)\n",
        plan.planned_cost,
        plan.full_cost,
        100.0 * plan.planned_cost as f64 / plan.full_cost.max(1) as f64
    );
    for entry in &plan.entries {
        msg.push_str(&format!(
            "  ref slot {} (cell {}, confidence {:.3}): {} link(s)\n",
            entry.ref_slot,
            sys.reference_cells()[entry.ref_slot],
            confidence[entry.ref_slot],
            entry.links.len()
        ));
    }
    if let Some(out) = args.optional("out") {
        write_json(Path::new(out), &plan)?;
        msg.push_str(&format!("written to {out}\n"));
    }
    Ok(msg.trim_end().to_string())
}

/// `update`: refreshes the system's database from reference measurements.
/// With `--budget N` (and optionally `--policy`), only the plan-selected
/// reference entries are taken from the refs file; the rest keep their
/// stored values and are excluded from the data fit (budgeted refresh).
pub fn cmd_update(args: &Args) -> Result<String> {
    let snapshot: SystemSnapshot = read_json(&args.path("system")?)?;
    let refs: RefsFile = read_json(&args.path("refs")?)?;
    let out = args.path("out")?;
    let mut sys = TafLoc::from_snapshot(snapshot)?;
    if refs.cells != sys.reference_cells() {
        return Err(CliError(format!(
            "reference cells in the refs file {:?} disagree with the system's {:?}",
            refs.cells,
            sys.reference_cells()
        )));
    }
    let (m, n) = (sys.db().num_links(), refs.cells.len());
    let (columns, mask, cost_note) = match args.optional("budget") {
        None => {
            if args.optional("policy").is_some() {
                return Err(CliError("--policy requires --budget".into()));
            }
            (refs.columns, Mask::trues(m, n), String::new())
        }
        Some(_) => {
            let budget: usize = args.num_required("budget")?;
            let policy = policy_from_args(args)?;
            let epoch: u64 = args.num("epoch", 1)?;
            // Probe on the stored columns first: which references is the
            // system least certain about, before spending the budget.
            let stored = stored_ref_columns(&sys)?;
            let empty_now = sys.empty_rss().to_vec();
            let (plan, _) = plan_from_probe(&sys, &stored, &empty_now, budget, policy, epoch)?;
            // Planned entries come from the fresh measurements; the rest
            // keep their stored values and stay outside the data fit.
            let mut columns = stored;
            let mut mask = Mask::falses(m, n);
            for entry in &plan.entries {
                for &l in &entry.links {
                    columns[(l, entry.ref_slot)] = refs.columns[(l, entry.ref_slot)];
                    mask.set(l, entry.ref_slot, true);
                }
            }
            let note = format!(
                "; re-surveyed {} of {} link-measurements ({policy})",
                plan.planned_cost, plan.full_cost
            );
            (columns, mask, note)
        }
    };
    let rec =
        sys.reconstruct_db_masked_cached(&columns, &refs.empty, &mask, &mut SolverCache::new())?;
    let report = sys.apply_reconstruction(rec, &refs.empty)?;
    write_json(&out, &sys.snapshot())?;
    Ok(format!(
        "updated in {} LoLi-IR iterations (converged: {}); DB shifted {:.2} dB{cost_note}; written to {}",
        report.iterations,
        report.converged,
        report.mean_abs_change_db,
        out.display()
    ))
}

/// `snapshot`: simulates one live measurement with the target in a cell.
pub fn cmd_snapshot(args: &Args) -> Result<String> {
    let world = read_world(&args.path("world")?)?;
    let day: f64 = args.num_required("day")?;
    let cell: usize = args.num_required("cell")?;
    let samples: usize = args.num("samples", 100)?;
    let out = args.path("out")?;
    if cell >= world.num_cells() {
        return Err(CliError(format!(
            "cell {cell} out of range (world has {} cells)",
            world.num_cells()
        )));
    }
    let y = campaign::snapshot_at_cell(&world, day, cell, samples);
    write_json(&out, &SnapshotFile { day, y })?;
    Ok(format!("snapshot with target in cell {cell} on day {day}; written to {}", out.display()))
}

/// `locate`: localizes a snapshot against the system's database.
pub fn cmd_locate(args: &Args) -> Result<String> {
    let snapshot: SystemSnapshot = read_json(&args.path("system")?)?;
    let measurement: SnapshotFile = read_json(&args.path("y")?)?;
    let sys = TafLoc::from_snapshot(snapshot)?;
    let fix = sys.localize(&measurement.y)?;
    Ok(format!(
        "cell {} at ({:.2}, {:.2}) m; fingerprint distance {:.2} dB",
        fix.cell, fix.point.x, fix.point.y, fix.best_distance
    ))
}

/// `info`: prints a summary of a stored system.
pub fn cmd_info(args: &Args) -> Result<String> {
    let snapshot: SystemSnapshot = read_json(&args.path("system")?)?;
    let sys = TafLoc::from_snapshot(snapshot)?;
    let db = sys.db();
    let svd_rank = db.rss().col_piv_qr()?.rank(1e-6);
    Ok(format!(
        "links: {}\ncells: {} ({}x{} of {:.1} m)\nreference cells: {:?}\nnumerical rank: {}\nempty-room RSS: {:.1?} dBm",
        db.num_links(),
        db.num_cells(),
        db.grid().nx(),
        db.grid().ny(),
        db.grid().cell_size(),
        sys.reference_cells(),
        svd_rank,
        sys.empty_rss(),
    ))
}

/// `gen-stream`: simulates a raw per-link sample stream (what radios emit,
/// before any windowing/averaging) for a stationary scene.
pub fn cmd_gen_stream(args: &Args) -> Result<String> {
    use taf_rfsim::{stream, StreamConfig};
    let world = read_world(&args.path("world")?)?;
    let day: f64 = args.num("day", 0.0)?;
    let out = args.path("out")?;
    let config = StreamConfig {
        rate_hz: args.num("rate", StreamConfig::default().rate_hz)?,
        duration_s: args.num("duration", StreamConfig::default().duration_s)?,
        jitter_frac: args.num("jitter", StreamConfig::default().jitter_frac)?,
        loss_rate: args.num("loss", StreamConfig::default().loss_rate)?,
        reorder_prob: args.num("reorder", StreamConfig::default().reorder_prob)?,
    };
    let stream_seed: u64 = args.num("stream-seed", 1)?;
    let samples = match args.optional("cell") {
        Some(c) => {
            let cell: usize =
                c.parse().map_err(|_| CliError(format!("--cell expects an index, got {c:?}")))?;
            if cell >= world.num_cells() {
                return Err(CliError(format!(
                    "cell {cell} out of range (world has {} cells)",
                    world.num_cells()
                )));
            }
            stream::stream_at_cell(&world, day, cell, &config, stream_seed)
        }
        None => stream::empty_stream(&world, day, &config, stream_seed),
    };
    let n = samples.len();
    write_json(&out, &StreamFile { day, samples })?;
    Ok(format!(
        "streamed {n} raw samples over {} links for {:.0} s on day {day}; written to {}",
        world.num_links(),
        config.duration_s,
        out.display()
    ))
}

/// `ingest`: replays a recorded raw stream into a running daemon in batches,
/// optionally closing with a `locate-stream` fix from the live window.
pub fn cmd_ingest(args: &Args) -> Result<String> {
    use tafloc_ingest::BatchReport;
    use tafloc_serve::client::Client;
    let addr = args.required("addr")?;
    let site = args.required("site")?;
    let file: StreamFile = read_json(&args.path("stream")?)?;
    let batch: usize = args.num("batch", 256)?;
    if batch == 0 {
        return Err(CliError("--batch must be at least 1".into()));
    }
    let ref_cell: Option<usize> = match args.optional("ref-cell") {
        Some(v) => Some(
            v.parse().map_err(|_| CliError(format!("--ref-cell expects an index, got {v:?}")))?,
        ),
        None => None,
    };
    let day: f64 = args.num("day", file.day)?;
    // `--wire v2` switches the connection to the length-prefixed binary
    // protocol; the default stays the netcat-friendly JSON lines.
    let version = match args.optional("wire") {
        None | Some("v1") | Some("json") => tafloc_serve::wire::WireVersion::V1Json,
        Some("v2") | Some("binary") => tafloc_serve::wire::WireVersion::V2Binary,
        Some(other) => {
            return Err(CliError(format!("--wire expects v1 or v2, got {other:?}")));
        }
    };
    let mut client = Client::connect_with(addr, version)?;
    let mut total = BatchReport::default();
    let mut batches = 0usize;
    for chunk in file.samples.chunks(batch) {
        let report = client.ingest_for(site, ref_cell, day, chunk.to_vec())?;
        total.merge(&report);
        batches += 1;
    }
    let mut summary = format!(
        "ingested {} samples in {batches} batches into {site:?}: {} accepted, {} late, {} unknown-link, {} non-finite",
        total.total(),
        total.accepted,
        total.dropped_late,
        total.dropped_unknown_link,
        total.dropped_non_finite
    );
    if args.switch("locate") {
        if ref_cell.is_some() {
            return Err(CliError(
                "--locate applies to live traffic; drop --ref-cell to locate".into(),
            ));
        }
        let (cell, x, y, version) = client.locate_stream(site)?;
        summary.push_str(&format!(
            "\nlive window fix: cell {cell} at ({x:.2}, {y:.2}) m (snapshot v{version})"
        ));
    }
    Ok(summary)
}

/// `export-db`: dumps the fingerprint matrix as CSV.
pub fn cmd_export_db(args: &Args) -> Result<String> {
    let snapshot: SystemSnapshot = read_json(&args.path("system")?)?;
    let out = args.path("out")?;
    taf_linalg::io::write_csv(snapshot.db.rss(), &out)?;
    Ok(format!(
        "{}x{} fingerprint matrix written to {}",
        snapshot.db.num_links(),
        snapshot.db.num_cells(),
        out.display()
    ))
}

/// `testkit`: runs deterministic fault-injection scenarios (taf-testkit)
/// and checks them against — or re-blesses — the committed golden accuracy
/// baselines under `results/golden/`.
fn cmd_testkit(args: &Args) -> Result<String> {
    if args.switch("list") {
        let mut out = String::from("built-in scenarios:\n");
        for s in taf_testkit::builtin_scenarios() {
            out.push_str(&format!("  {:<16} {}\n", s.name, s.description));
        }
        out.push_str("goldens live in results/golden/; re-bless with --bless");
        return Ok(out);
    }
    let mut scenarios = match args.optional("scenario") {
        Some(name) => vec![taf_testkit::find_scenario(name)
            .ok_or_else(|| CliError(format!("unknown scenario {name:?} (try --list)")))?],
        None => taf_testkit::builtin_scenarios(),
    };
    // Ad-hoc overrides for experiments (a blessed golden always comes from
    // the scenario's own seed and a zero bias).
    if let Some(seed) = args.optional("seed") {
        let seed: u64 = seed
            .parse()
            .map_err(|_| CliError(format!("flag --seed expects a number, got {seed:?}")))?;
        for sc in &mut scenarios {
            sc.seed = seed;
        }
    }
    if let Some(bias) = args.optional("bias") {
        let bias: f64 = bias
            .parse()
            .map_err(|_| CliError(format!("flag --bias expects a number, got {bias:?}")))?;
        for sc in &mut scenarios {
            sc.debug_bias_db = bias;
        }
    }
    // `--budget N [--policy P]`: adaptive-sensing overrides. On a plan
    // scenario they replace the committed budget/policy; on any other
    // scenario `--budget` attaches a second, budgeted survey epoch 30 days
    // past the drift day. Experiments only — never blessable.
    if args.optional("budget").is_some() || args.optional("policy").is_some() {
        if args.optional("scenario").is_none() {
            return Err(CliError("--budget/--policy require --scenario".into()));
        }
        for sc in &mut scenarios {
            if let Some(b) = args.optional("budget") {
                let budget: usize = b
                    .parse()
                    .map_err(|_| CliError(format!("flag --budget expects a number, got {b:?}")))?;
                let full = sc.ref_count * sc.world.config().num_links;
                if budget == 0 || budget > full {
                    return Err(CliError(format!(
                        "--budget must be in 1..={full} link-measurements for this scenario"
                    )));
                }
                let mut spec = sc.plan.unwrap_or(taf_testkit::PlanSpec {
                    budget_fraction: 1.0,
                    policy: taf_plan::PlanPolicy::UncertaintyGreedy,
                    second_drift_day: sc.drift_day + 30.0,
                });
                spec.budget_fraction = budget as f64 / full as f64;
                sc.plan = Some(spec);
            }
            match (&mut sc.plan, args.optional("policy")) {
                (Some(spec), Some(p)) => spec.policy = p.parse::<taf_plan::PlanPolicy>()?,
                (None, Some(_)) => {
                    return Err(CliError(
                        "--policy needs --budget or a plan scenario (plan-*)".into(),
                    ))
                }
                _ => {}
            }
        }
    }
    let bless = args.switch("bless");
    if bless
        && (args.optional("seed").is_some()
            || args.optional("bias").is_some()
            || args.optional("budget").is_some()
            || args.optional("policy").is_some())
    {
        return Err(CliError(
            "--bless cannot be combined with --seed/--bias/--budget/--policy overrides".into(),
        ));
    }
    let mut out = String::new();
    let mut failures = 0usize;
    for sc in &scenarios {
        let report = taf_testkit::run_scenario(sc).map_err(CliError)?;
        if let Some(path) = args.optional("out") {
            std::fs::write(path, report.to_json()).map_err(|e| CliError(format!("{path}: {e}")))?;
        }
        if bless {
            let path = taf_testkit::bless(&report).map_err(CliError)?;
            out.push_str(&format!("{}: blessed -> {}\n", sc.name, path.display()));
            continue;
        }
        match taf_testkit::load_golden(sc.name) {
            Err(e) => {
                failures += 1;
                out.push_str(&format!("{}: {e}\n", sc.name));
            }
            Ok(golden) => {
                let violations = taf_testkit::compare(&report, &golden, &sc.tolerances);
                if violations.is_empty() {
                    out.push_str(&format!(
                        "{}: ok (recon RMSE {:.3} dB, drifted mean loc err {:.3} m, {} refreshes)\n",
                        sc.name, report.recon_rmse_db, report.drifted.loc.mean, report.refreshes
                    ));
                } else {
                    failures += 1;
                    out.push_str(&format!("{}: FAILED\n", sc.name));
                    for v in violations {
                        out.push_str(&format!("    {v}\n"));
                    }
                }
            }
        }
    }
    if failures > 0 {
        return Err(CliError(format!("{}{failures} scenario(s) failed", out)));
    }
    Ok(out.trim_end().to_string())
}

/// Usage text.
pub const USAGE: &str = "\
tafloc — time-adaptive device-free localization (TafLoc, SIGCOMM '16 reproduction)

USAGE: tafloc <command> [--flag value ...]

COMMANDS
  new-world     --out w.json [--seed N] [--small | --edge METERS]
  survey        --world w.json --out survey.json [--day D] [--samples K]
  calibrate     --survey survey.json --out system.json [--refs N]
  measure-refs  --world w.json --system system.json --day D --out refs.json [--samples K]
  update        --system system.json --refs refs.json --out system.json
                [--budget N [--policy uncertainty-greedy|fixed-schedule] [--epoch E]]
  plan          --system system.json --budget N [--policy P] [--epoch E]
                [--refs refs.json] [--out plan.json]
  snapshot      --world w.json --day D --cell C --out y.json [--samples K]
  locate        --system system.json --y y.json
  gen-stream    --world w.json --out stream.json [--day D] [--cell C]
                [--duration S] [--rate HZ] [--jitter F] [--loss P] [--reorder P]
                [--stream-seed N]
  ingest        --addr HOST:PORT --site NAME --stream stream.json [--batch N]
                [--ref-cell K] [--day D] [--locate] [--wire v1|v2]
  info          --system system.json
  export-db     --system system.json --out db.csv
  testkit       [--list] [--scenario NAME] [--bless] [--out report.json]
                [--seed N] [--bias DB] [--budget N] [--policy P]

The daemon is its own binary, taflocd (see taflocd --help).
";

/// A command: its name, its handler, the flags it takes with a value and
/// the bare switches it takes, each list space-separated.
type Command = (&'static str, fn(&Args) -> Result<String>, &'static str, &'static str);

/// Every command and the flags it declares, once; `run` refuses the rest.
const COMMANDS: &[Command] = &[
    ("new-world", cmd_new_world, "out seed edge", "small"),
    ("survey", cmd_survey, "world out day samples", ""),
    ("calibrate", cmd_calibrate, "survey out refs", ""),
    ("measure-refs", cmd_measure_refs, "world system day out samples", ""),
    ("update", cmd_update, "system refs out budget policy epoch", ""),
    ("plan", cmd_plan, "system budget policy epoch refs out", ""),
    ("snapshot", cmd_snapshot, "world day cell out samples", ""),
    ("locate", cmd_locate, "system y", ""),
    (
        "gen-stream",
        cmd_gen_stream,
        "world out day cell duration rate jitter loss reorder stream-seed",
        "",
    ),
    ("ingest", cmd_ingest, "addr site stream batch ref-cell day wire", "locate"),
    ("info", cmd_info, "system", ""),
    ("export-db", cmd_export_db, "system out", ""),
    ("testkit", cmd_testkit, "scenario out seed bias budget policy", "list bless"),
];

/// Dispatches a command after checking its flags; returns the success
/// message to print.
pub fn run(command: &str, args: &Args) -> Result<String> {
    let Some(&(name, handler, flags, switches)) = COMMANDS.iter().find(|c| c.0 == command) else {
        return Err(CliError(format!("unknown command {command:?}\n\n{USAGE}")));
    };
    args.check(name, flags, switches)?;
    handler(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_parse_pairs_and_switches() {
        let a = Args::parse(&strs(&["--seed", "7", "--small", "--out", "x.json"])).unwrap();
        assert_eq!(a.required("seed").unwrap(), "7");
        assert_eq!(a.required("out").unwrap(), "x.json");
        assert!(a.switch("small"));
        assert!(!a.switch("big"));
        assert_eq!(a.num::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(a.num::<u64>("missing", 42).unwrap(), 42);
    }

    #[test]
    fn args_reject_non_flags_and_bad_numbers() {
        assert!(Args::parse(&strs(&["seed", "7"])).is_err());
        let a = Args::parse(&strs(&["--seed", "banana"])).unwrap();
        assert!(a.num::<u64>("seed", 0).is_err());
        assert!(a.num_required::<u64>("seed").is_err());
        assert!(a.required("nope").is_err());
    }

    #[test]
    fn a_flag_followed_by_a_flag_is_a_switch() {
        let a = Args::parse(&strs(&["--small", "--day", "-5", "--verbose"])).unwrap();
        assert!(a.switch("small") && a.switch("verbose"));
        assert_eq!(a.optional("small"), None);
        // A single leading dash is a value, so negative numbers parse.
        assert_eq!(a.num_required::<f64>("day").unwrap(), -5.0);
    }

    #[test]
    fn path_flags_are_required_and_named_in_errors() {
        let a = Args::parse(&strs(&["--out", "dir/w.json"])).unwrap();
        assert_eq!(a.path("out").unwrap(), PathBuf::from("dir/w.json"));
        assert_eq!(a.path("world").unwrap_err().0, "missing required flag --world");
    }

    #[test]
    fn seeds_past_2_pow_53_are_refused_before_writing() {
        let out = std::env::temp_dir().join(format!("tafloc_seed_{}.json", std::process::id()));
        let seed = ((1u64 << 53) + 1).to_string();
        let a = Args::parse(&strs(&["--seed", &seed, "--out", out.to_str().unwrap()])).unwrap();
        let e = cmd_new_world(&a).unwrap_err();
        assert!(e.0.contains("2^53"), "{}", e.0);
        assert!(!out.exists());
    }

    #[test]
    fn a_non_numeric_edge_is_refused_before_writing() {
        let out = std::env::temp_dir().join(format!("tafloc_edge_{}.json", std::process::id()));
        let a = Args::parse(&strs(&["--edge", "wide", "--out", out.to_str().unwrap()])).unwrap();
        let e = cmd_new_world(&a).unwrap_err();
        assert_eq!(e.0, "--edge expects meters, got \"wide\"");
        assert!(!out.exists());
    }

    /// Each command's flags and switches as `USAGE` lists them: a name
    /// followed by a placeholder is a flag, one closed by `]` or followed by
    /// `|` is a switch.
    fn usage_flags() -> Vec<(String, Vec<String>, Vec<String>)> {
        let mut out: Vec<(String, Vec<String>, Vec<String>)> = Vec::new();
        let listing = USAGE.split("COMMANDS\n").nth(1).unwrap().split("\n\n").next().unwrap();
        for line in listing.lines() {
            let mut words: Vec<&str> = line.split_whitespace().collect();
            if !line.starts_with("   ") {
                out.push((words.remove(0).to_string(), Vec::new(), Vec::new()));
            }
            let (_, flags, switches) = out.last_mut().unwrap();
            for (i, word) in words.iter().enumerate() {
                let Some(name) = word.trim_start_matches('[').strip_prefix("--") else {
                    continue;
                };
                let is_switch = name.ends_with(']') || words.get(i + 1).map_or(true, |w| *w == "|");
                let name = name.trim_end_matches(']').to_string();
                let list = if is_switch { &mut *switches } else { &mut *flags };
                if !list.contains(&name) {
                    list.push(name);
                }
            }
        }
        out
    }

    fn sorted(names: &str) -> Vec<String> {
        let mut v: Vec<String> = names.split_whitespace().map(str::to_string).collect();
        v.sort();
        v
    }

    #[test]
    fn the_flag_table_matches_the_usage_text() {
        let usage = usage_flags();
        let listed: Vec<&str> = usage.iter().map(|(c, ..)| c.as_str()).collect();
        let declared: Vec<&str> = COMMANDS.iter().map(|c| c.0).collect();
        assert_eq!(listed, declared);
        for ((command, mut flags, mut switches), &(_, _, want_flags, want_switches)) in
            usage.into_iter().zip(COMMANDS)
        {
            flags.sort();
            switches.sort();
            assert_eq!(flags, sorted(want_flags), "{command} flags");
            assert_eq!(switches, sorted(want_switches), "{command} switches");
            // Every flag the usage text lists is accepted.
            let mut raw = Vec::new();
            for f in &flags {
                raw.extend([format!("--{f}"), "1".to_string()]);
            }
            raw.extend(switches.iter().map(|s| format!("--{s}")));
            Args::parse(&raw).unwrap().check(&command, want_flags, want_switches).unwrap();
        }
    }

    #[test]
    fn a_misspelled_flag_is_refused_by_every_command() {
        for &(command, ..) in COMMANDS {
            let a = Args::parse(&strs(&["--budjet", "18"])).unwrap();
            let e = run(command, &a).unwrap_err();
            assert_eq!(e.0, format!("{command} does not take --budjet (see tafloc help)"));
            let a = Args::parse(&strs(&["--verbose"])).unwrap();
            assert!(run(command, &a).unwrap_err().0.contains("does not take --verbose"));
        }
    }

    #[test]
    fn a_switch_with_a_value_and_a_flag_without_one_are_refused() {
        let a = Args::parse(&strs(&["--list", "all"])).unwrap();
        assert_eq!(
            run("testkit", &a).unwrap_err().0,
            "--list is a switch and takes no value, got \"all\""
        );
        let a = Args::parse(&strs(&["--stream", "s.json", "--site"])).unwrap();
        assert_eq!(run("ingest", &a).unwrap_err().0, "flag --site expects a value");
    }

    #[test]
    fn unknown_command_reports_usage() {
        let a = Args::default();
        let e = run("frobnicate", &a).unwrap_err();
        assert!(e.0.contains("unknown command"));
        assert!(e.0.contains("USAGE"));
    }
}
