//! LoLi-IR: the **Lo**w-rank + **Li**near-representation **I**terative
//! **R**efinement solver — TafLoc's fingerprint-matrix reconstruction.
//!
//! # The objective
//!
//! Writing the reconstruction as `X̂ = L·Rᵀ` (`L: M x r`, `R: N x r`), LoLi-IR
//! minimizes
//!
//! ```text
//! f(L, R) =   λ (‖L‖²_F + ‖R‖²_F)                      — low-rank factors (P1)
//!           + ‖B ∘ (L·Rᵀ − X_I)‖²_F                     — fit fresh measurements
//!           + μ ‖L·Rᵀ − X_R·Z‖²_F                       — LRR prior (P2)
//!           + α Σ_{(j,j') ∈ G} ‖w_{jj'} ∘ (x̂_j − x̂_{j'})‖²        — continuity (P3)
//!           + β Σ_{(i,i') ∈ H} ‖w_{ii'} ∘ (x̂_i − x̂_{i'} − δ_{ii'}·1)‖²  — similarity (P3)
//! ```
//!
//! where `G` is the location graph (grid-adjacent cells), `H` the link graph
//! (geometrically adjacent links), `w` restricts each edge to the entries flagged
//! as *largely distorted* (the paper's `X_D`), and `δ_{ii'} = e_i − e_{i'}`
//! aligns the empty-room baselines of two links before comparing them.
//!
//! # The algorithm
//!
//! The poster says the non-convex problem is solved by obtaining `L` and `R` "in
//! an alternatively iterative manner" after an SVD initialization. Concretely:
//!
//! 1. Initialize `L, R` from the truncated SVD of the LRR prediction `X_R·Z`
//!    (or of the row-mean-filled observations when no prior is given).
//! 2. **L-step** — Gauss-Seidel over rows: solving for row `l_i` with everything
//!    else fixed is an `r x r` ridge system (Cholesky), because the data, prior
//!    and similarity terms are all quadratic in `l_i`.
//! 3. **R-step** — Gauss-Seidel over columns, symmetric.
//! 4. Evaluate `f`; stop when the relative decrease falls below `tol`.
//!
//! Because every block solve is exact, the objective is monotonically
//! non-increasing — a property the tests assert.
//!
//! # Sweep order and determinism
//!
//! Two rows couple in the L-step only through a similarity edge (and two
//! columns in the R-step only through a continuity edge), so each sweep is run
//! as a *colored* Gauss-Seidel pass: a deterministic greedy coloring of the
//! link (resp. location) graph partitions the rows (columns) into classes with
//! no intra-class edges, and classes are visited in fixed order, each class's
//! members in index order. A member's solve reads no factor row of its own
//! class, so every solve reads the factors as they stood before its class
//! began, and the members of a class are solved four at a time: the batch's
//! systems are built in turn, factored and solved together, one per lane,
//! and their rows written back after the batch. A batch never spans two
//! classes. That order fixes which values each solve sees, and with it every
//! bit of the output (the committed goldens and `tests/solver_bits.rs` pin
//! it). Exact block solves in any order keep the objective monotone.
//!
//! # Block systems
//!
//! Every `r x r` normal-equation matrix is built as a packed lower triangle
//! (row `a` holds its entries `0..=a`), so each term enters as one flat slice
//! add. Whatever does not depend on the row (column) being solved is computed
//! once per half-sweep: the start `λI + μG` plus the closed form of the
//! fully-active edges, which every solve copies; the weighted Gram matrix;
//! one sum per distinct active set of the partial edges, added up from each
//! row's outer product `f_x f_xᵀ`, written once; and the rank-1 term each
//! partial edge adds to the rows (columns) in its active set. A solve then
//! adds the stored values in the order it always added them, so every
//! floating-point operation keeps its operands and its order. Four members'
//! packed triangles are interleaved entry by entry and factored and solved
//! together (`taf_linalg`'s one Cholesky loop serves the packed layout, the
//! dense one and four interleaved packed systems bit for bit): the four
//! chains of dependent subtractions, divisions and square roots overlap
//! instead of waiting on each other, and each lane keeps its own system's
//! order.
//!
//! # Set-up
//!
//! Before the first sweep a solve indexes its problem: the distortion mask
//! becomes one bitset per link (its distorted cells) and one per cell (its
//! distorted links); each edge's active set is the AND of its endpoints'
//! bitsets, and edges with equal words share one set, numbered in order of
//! first use; the observed entries, the four edge-incidence lists and the
//! colour classes become flat offset/index arrays. All of it is rebuilt on
//! every solve into buffers the [`SolverWorkspace`] keeps: the distortion
//! mask changes from one refresh to the next, so there is nothing to carry
//! over. A whole solve on a reused workspace therefore allocates only for
//! its SVD seed, its diagnostics and the outputs it publishes, and its
//! iterations allocate nothing.

use crate::error::TaflocError;
use crate::mask::Mask;
use crate::operators::NeighborGraph;
use crate::Result;
use taf_linalg::decomp::cholesky::{
    cholesky_packed_in_place, cholesky_packed_lanes_in_place, solve_packed_lanes_in_place,
};
use taf_linalg::Matrix;
use taf_wire::{Codec, Dec, Enc, WireError};

// Payloads from before `stall_iters`, `accelerate` and `debug_bias_db`
// existed decode to the behavior they had then.
taf_wire::schema! {
    /// LoLi-IR hyperparameters.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct LoliIrConfig {
        /// Factor rank `r` of `X̂ = L·Rᵀ`.
        pub rank: usize,
        /// Ridge weight `λ` on the factors (must be `> 0`; keeps every inner system
        /// positive definite).
        pub lambda: f64,
        /// Weight `μ` of the LRR prior term.
        pub mu: f64,
        /// Weight `α` of the continuity term (location graph).
        pub alpha: f64,
        /// Weight `β` of the similarity term (link graph).
        pub beta: f64,
        /// Maximum outer (L-step + R-step) iterations.
        pub max_iters: usize,
        /// Relative objective-decrease stopping tolerance.
        pub tol: f64,
        /// Adaptive stopping: the relative decrease must stay below `tol` for this
        /// many *consecutive* iterations before the solve is declared converged.
        /// `1` reproduces the classic single-hit rule; larger values guard against
        /// declaring victory on one coincidentally-flat iteration of a solve that
        /// is still moving (the failure mode that made refreshes silently burn the
        /// whole `max_iters` budget instead: the tolerance was never *held*).
        pub stall_iters: usize = 1,
        /// Anderson-style acceleration: after each sweep, extrapolate the factors
        /// along the last step direction with a secant-estimated coefficient and
        /// keep the extrapolated point only if it lowers the objective. Safeguarded
        /// by that re-evaluation, so the objective trace stays monotone; off by
        /// default because the extra objective evaluation only pays for itself on
        /// slow geometric convergence (cold starts on large problems).
        pub accelerate: bool = false,
        /// Test-only fault-injection hook: a constant bias (dB) added to every
        /// entry of the reconstructed matrix after the solve. `0.0` (the default,
        /// and the only sane production value) is a strict no-op. The regression
        /// harness (`taf-testkit`) sets this to verify its accuracy gates detect
        /// a corrupted reconstruction — see the mutation check in that crate.
        pub debug_bias_db: f64 = 0.0,
    }
}

impl Default for LoliIrConfig {
    fn default() -> Self {
        LoliIrConfig {
            rank: 8,
            lambda: 1e-2,
            mu: 1.0,
            alpha: 0.05,
            beta: 0.05,
            max_iters: 60,
            tol: 1e-6,
            stall_iters: 1,
            accelerate: false,
            debug_bias_db: 0.0,
        }
    }
}

impl LoliIrConfig {
    fn validate(&self) -> Result<()> {
        if self.rank == 0 {
            return Err(TaflocError::InvalidConfig {
                field: "rank",
                reason: "must be >= 1".into(),
            });
        }
        if !(self.lambda > 0.0) {
            return Err(TaflocError::InvalidConfig {
                field: "lambda",
                reason: format!("must be > 0, got {}", self.lambda),
            });
        }
        for (name, v) in [("mu", self.mu), ("alpha", self.alpha), ("beta", self.beta)] {
            if v < 0.0 || !v.is_finite() {
                return Err(TaflocError::InvalidConfig {
                    field: name,
                    reason: format!("must be finite and >= 0, got {v}"),
                });
            }
        }
        if self.max_iters == 0 {
            return Err(TaflocError::InvalidConfig {
                field: "max_iters",
                reason: "must be >= 1".into(),
            });
        }
        if self.stall_iters == 0 {
            return Err(TaflocError::InvalidConfig {
                field: "stall_iters",
                reason: "must be >= 1".into(),
            });
        }
        if !self.debug_bias_db.is_finite() {
            return Err(TaflocError::InvalidConfig {
                field: "debug_bias_db",
                reason: format!("must be finite, got {}", self.debug_bias_db),
            });
        }
        Ok(())
    }
}

/// Inputs to one reconstruction.
///
/// Borrowed so that the caller (typically [`crate::system::TafLoc`]) can reuse the
/// graphs and masks across updates.
#[derive(Debug, Clone, Copy)]
pub struct ReconstructionProblem<'a> {
    /// Measured values `X_I` (`M x N`); only entries where `mask` is true are read.
    pub observed: &'a Matrix,
    /// Observation mask `B`.
    pub mask: &'a Mask,
    /// LRR prior `X_R·Z` (`M x N`), if available.
    pub lrr_prior: Option<&'a Matrix>,
    /// Location graph for the continuity term (`N` vertices).
    pub location_graph: Option<&'a NeighborGraph>,
    /// Link graph for the similarity term (`M` vertices).
    pub link_graph: Option<&'a NeighborGraph>,
    /// Per-link empty-room RSS `e` (for the cross-link baseline offsets `δ`);
    /// zeros assumed when absent.
    pub empty_rss: Option<&'a [f64]>,
    /// Largely-distorted entry mask `X_D`'s support; when present, the
    /// continuity/similarity penalties only act where *both* endpoint entries of
    /// an edge are distorted. When absent, they act everywhere.
    pub distortion: Option<&'a Mask>,
}

impl<'a> ReconstructionProblem<'a> {
    /// Minimal problem: observations + mask only (pure matrix completion).
    pub fn completion_only(observed: &'a Matrix, mask: &'a Mask) -> Self {
        ReconstructionProblem {
            observed,
            mask,
            lrr_prior: None,
            location_graph: None,
            link_graph: None,
            empty_rss: None,
            distortion: None,
        }
    }

    fn validate(&self) -> Result<()> {
        let shape = self.observed.shape();
        if self.mask.shape() != shape {
            return Err(TaflocError::DimensionMismatch {
                op: "LoLi-IR(mask)",
                expected: shape,
                actual: self.mask.shape(),
            });
        }
        if self.mask.count() == 0 {
            return Err(TaflocError::InvalidConfig {
                field: "mask",
                reason: "no observed entries".into(),
            });
        }
        if let Some(p) = self.lrr_prior {
            if p.shape() != shape {
                return Err(TaflocError::DimensionMismatch {
                    op: "LoLi-IR(prior)",
                    expected: shape,
                    actual: p.shape(),
                });
            }
        }
        if let Some(g) = self.location_graph {
            if g.len() != shape.1 {
                return Err(TaflocError::DimensionMismatch {
                    op: "LoLi-IR(location_graph)",
                    expected: (shape.1, 1),
                    actual: (g.len(), 1),
                });
            }
        }
        if let Some(h) = self.link_graph {
            if h.len() != shape.0 {
                return Err(TaflocError::DimensionMismatch {
                    op: "LoLi-IR(link_graph)",
                    expected: (shape.0, 1),
                    actual: (h.len(), 1),
                });
            }
        }
        if let Some(e) = self.empty_rss {
            if e.len() != shape.0 {
                return Err(TaflocError::DimensionMismatch {
                    op: "LoLi-IR(empty_rss)",
                    expected: (shape.0, 1),
                    actual: (e.len(), 1),
                });
            }
        }
        if let Some(d) = self.distortion {
            if d.shape() != shape {
                return Err(TaflocError::DimensionMismatch {
                    op: "LoLi-IR(distortion)",
                    expected: shape,
                    actual: d.shape(),
                });
            }
        }
        Ok(())
    }
}

/// Output of a LoLi-IR run.
#[derive(Debug, Clone)]
pub struct Reconstruction {
    /// The reconstructed matrix `X̂ = L·Rᵀ`.
    pub matrix: Matrix,
    /// Left factor `L` (`M x r`).
    pub l: Matrix,
    /// Right factor `R` (`N x r`).
    pub r: Matrix,
    /// Objective value after initialization and after each outer iteration.
    pub objective_trace: Vec<f64>,
    /// Number of outer iterations performed.
    pub iterations: usize,
    /// Whether the relative-decrease tolerance was held for
    /// [`LoliIrConfig::stall_iters`] consecutive iterations.
    pub converged: bool,
    /// Whether this solve was seeded from a [`WarmState`] (false for the SVD
    /// cold start, including when a supplied warm state was rejected for
    /// shape mismatch or non-finite values).
    pub warm_start: bool,
    /// Per-cell/per-link reconstruction confidence derived from the final
    /// factors — the signal an adaptive-sensing planner consumes.
    pub diagnostics: ReconstructionDiagnostics,
}

/// The previous solution `(L, R)`, carried between solves so a steady-state
/// refresh resumes where the last one stopped instead of paying a cold SVD
/// start and a full iteration burn.
///
/// This is the paper's P2 insight turned into solver state: the localization
/// model `Z` is stable across time, so consecutive refreshes solve nearly the
/// same problem and the previous factors are an excellent initial iterate.
/// `Z` itself rides along in `TafLoc`'s LRR model (it parameterizes the prior
/// `X_R·Z`, not the iterate), and the per-row Cholesky scratch factors are
/// reused through the [`SolverWorkspace`]; the warm state proper is just the
/// factor pair. Build one from an *accepted* reconstruction with
/// [`WarmState::from_reconstruction`] — a rejected or rolled-back solve must
/// never seed the next one (see `SolverCache` in the system layer).
#[derive(Debug, Clone)]
pub struct WarmState {
    l: Matrix,
    r: Matrix,
}

impl WarmState {
    /// Captures the factor pair of a finished solve.
    pub fn from_reconstruction(rec: &Reconstruction) -> Self {
        WarmState { l: rec.l.clone(), r: rec.r.clone() }
    }

    /// Rebuilds a warm state from a previously captured factor pair (the
    /// persistence path). Returns `None` when the pair cannot have come from
    /// one solve: mismatched ranks or any non-finite entry.
    pub fn from_parts(l: Matrix, r: Matrix) -> Option<Self> {
        if l.cols() != r.cols() || l.has_non_finite() || r.has_non_finite() {
            return None;
        }
        Some(WarmState { l, r })
    }

    /// Left factor `L` (`links x rank`).
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Right factor `R` (`cells x rank`).
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// `(links, cells, rank)` this state can seed.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.l.rows(), self.r.rows(), self.l.cols())
    }

    /// A warm state is usable only when every entry is finite.
    pub fn is_finite(&self) -> bool {
        !self.l.has_non_finite() && !self.r.has_non_finite()
    }
}

/// The solver's accepted factor pair (binary only), through
/// `WarmState::from_parts`, which rejects factor pairs no solve could have
/// produced (rank mismatch, non-finite entries).
impl Codec for WarmState {
    fn encode(&self, e: &mut Enc) {
        self.l.encode(e);
        self.r.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> taf_wire::Result<Self> {
        WarmState::from_parts(Matrix::decode(d)?, Matrix::decode(d)?).ok_or_else(|| {
            WireError::malformed("warm state: mismatched ranks or non-finite factors")
        })
    }
}

/// Per-cell reconstruction confidence, computed from the final `(L, R)`
/// factors after the solve.
///
/// Three ingredients, all deterministic functions of the solution:
///
/// * **residual** — RMS misfit (dB) between `X̂` and the observed entries,
///   per location cell (column) and per link (row). A cell whose observed
///   entries the solver could not fit is a cell whose unobserved entries
///   should not be trusted either.
/// * **leverage** — the ridge leverage score
///   `h_j = r_jᵀ (RᵀR + λI)⁻¹ r_j ∈ [0, 1)` of each cell's factor row. High
///   leverage means the cell's column occupies a direction of factor space
///   that few other columns share, so little information is borrowed from
///   them and the completion rests on thin evidence.
/// * **coverage** — the fraction of the cell's entries that were observed.
///
/// They combine into `cell_confidence ∈ [0, 1]`: high when a well-observed
/// column was fit closely in a well-supported direction, low for unobserved
/// or poorly-fit or high-leverage columns. Only the *ordering* is consumed
/// by the planner, so the exact blend matters less than its monotonicity in
/// each ingredient.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconstructionDiagnostics {
    /// Per-cell RMS residual (dB) over the cell's observed entries; cells
    /// with no observed entry take the global RMS residual.
    pub cell_rms_residual_db: Vec<f64>,
    /// Per-cell ridge leverage score in `[0, 1]`.
    pub cell_leverage: Vec<f64>,
    /// Observed entries per cell.
    pub cell_observed: Vec<usize>,
    /// Combined per-cell confidence in `[0, 1]` (higher = more trusted).
    pub cell_confidence: Vec<f64>,
    /// Per-link RMS residual (dB) over the link's observed entries; links
    /// with no observed entry take the global RMS residual.
    pub link_rms_residual_db: Vec<f64>,
    /// Global RMS residual (dB) over every observed entry.
    pub rms_residual_db: f64,
}

/// Weight of the coverage floor in the confidence blend: a fully unobserved
/// cell keeps this fraction of the coverage term, so residual and leverage
/// still order the unobserved cells among themselves.
const CONFIDENCE_COVERAGE_FLOOR: f64 = 0.15;

/// Computes [`ReconstructionDiagnostics`] for the final factors. Runs once
/// per solve, after the iteration loop; it allocates its output vectors (the
/// iteration loop may not allocate) but reuses the workspace's `gram` and
/// block-solve scratch for the `r x r` leverage solves.
fn compute_diagnostics(
    problem: &ReconstructionProblem<'_>,
    config: &LoliIrConfig,
    rf: &Matrix,
    ws: &mut SolverWorkspace,
) -> Result<ReconstructionDiagnostics> {
    let (m, n) = problem.observed.shape();
    let r = rf.cols();
    let SolverWorkspace { scratch, gram, xh, .. } = ws;

    // Residuals of the reconstruction against the observed entries. `xh`
    // holds the final `L·Rᵀ` (the last objective evaluation wrote it).
    let mut cell_sq = vec![0.0f64; n];
    let mut cell_observed = vec![0usize; n];
    let mut link_sq = vec![0.0f64; m];
    let mut link_observed = vec![0usize; m];
    let mut total_sq = 0.0f64;
    let mut total_count = 0usize;
    for (i, j) in problem.mask.true_positions() {
        let d = xh[(i, j)] - problem.observed[(i, j)];
        cell_sq[j] += d * d;
        cell_observed[j] += 1;
        link_sq[i] += d * d;
        link_observed[i] += 1;
        total_sq += d * d;
        total_count += 1;
    }
    let rms_residual_db = (total_sq / total_count.max(1) as f64).sqrt();
    let cell_rms_residual_db: Vec<f64> = (0..n)
        .map(|j| {
            if cell_observed[j] > 0 {
                (cell_sq[j] / cell_observed[j] as f64).sqrt()
            } else {
                rms_residual_db
            }
        })
        .collect();
    let link_rms_residual_db: Vec<f64> = (0..m)
        .map(|i| {
            if link_observed[i] > 0 {
                (link_sq[i] / link_observed[i] as f64).sqrt()
            } else {
                rms_residual_db
            }
        })
        .collect();

    // Ridge leverage scores h_j = r_jᵀ (RᵀR + λI)⁻¹ r_j via one Cholesky of
    // the r x r gram, packed and factored in place in the block-solve
    // scratch, then copied into every lane: each batch solves [`LANES`]
    // cells' right-hand sides against the one factor.
    rf.gram_into(gram)?;
    let s = scratch;
    let mut k = 0;
    for a in 0..r {
        for b in 0..=a {
            s.lhs[k] = gram[(a, b)] + config.lambda * f64::from(a == b);
            k += 1;
        }
    }
    cholesky_packed_in_place(&mut s.lhs, r)?;
    for (lane, &v) in s.lanes_lhs.iter_mut().zip(&s.lhs) {
        *lane = [v; LANES];
    }
    let mut cell_leverage = Vec::with_capacity(n);
    for first in (0..n).step_by(LANES) {
        let batch = first..(first + LANES).min(n);
        for (w, j) in batch.clone().enumerate() {
            for (lane, &v) in s.lanes_rhs.iter_mut().zip(rf.row(j)) {
                lane[w] = v;
            }
        }
        solve_packed_lanes_in_place(&s.lanes_lhs, &mut s.lanes_rhs)?;
        for (w, j) in batch.enumerate() {
            for (x, lane) in s.rhs.iter_mut().zip(&s.lanes_rhs) {
                *x = lane[w];
            }
            let h: f64 = taf_linalg::dot(rf.row(j), &s.rhs);
            cell_leverage.push(h.clamp(0.0, 1.0));
        }
    }

    let cell_confidence: Vec<f64> = (0..n)
        .map(|j| {
            let coverage = cell_observed[j] as f64 / m.max(1) as f64;
            let coverage_term =
                CONFIDENCE_COVERAGE_FLOOR + (1.0 - CONFIDENCE_COVERAGE_FLOOR) * coverage;
            let fit_term = 1.0 / (1.0 + cell_rms_residual_db[j]);
            let support_term = 1.0 - cell_leverage[j];
            (coverage_term * fit_term * support_term).clamp(0.0, 1.0)
        })
        .collect();

    Ok(ReconstructionDiagnostics {
        cell_rms_residual_db,
        cell_leverage,
        cell_observed,
        cell_confidence,
        link_rms_residual_db,
        rms_residual_db,
    })
}

/// A list of lists over rows `0..rows`, flat: row `v` holds
/// `items[start[v]..start[v + 1]]`. Rebuilt in place, so a reused one
/// allocates only when a problem outgrows its buffers.
#[derive(Debug, Default)]
struct Csr {
    start: Vec<usize>,
    items: Vec<usize>,
}

impl Csr {
    fn row(&self, v: usize) -> &[usize] {
        &self.items[self.start[v]..self.start[v + 1]]
    }

    fn rows(&self) -> usize {
        self.start.len().saturating_sub(1)
    }

    /// Empties the list; rows are then appended by pushing their items and
    /// calling [`Csr::end_row`].
    fn clear(&mut self) {
        self.start.clear();
        self.start.push(0);
        self.items.clear();
    }

    fn end_row(&mut self) {
        self.start.push(self.items.len());
    }

    /// Rebuilds the list with `rows` rows from the `(row, item)` pairs that
    /// `pairs` hands to [`Emitter::emit`]; each row keeps its items in the
    /// order emitted. `pairs` runs twice: once to count each row's items,
    /// once to place them.
    fn fill(&mut self, rows: usize, pairs: impl Fn(&mut Emitter<'_>)) {
        let Csr { start, items } = self;
        start.clear();
        start.resize(rows + 1, 0);
        pairs(&mut Emitter { placing: false, start, items });
        for v in 0..rows {
            start[v + 1] += start[v];
        }
        items.clear();
        items.resize(start[rows], 0);
        // `start[v]` serves as row v's cursor and ends at the row's end,
        // which is where row v + 1 starts.
        pairs(&mut Emitter { placing: true, start, items });
        start.copy_within(0..rows, 1);
        start[0] = 0;
    }
}

/// The receiving end of [`Csr::fill`]: counts the pairs on the first pass
/// and places them on the second.
struct Emitter<'a> {
    placing: bool,
    start: &'a mut [usize],
    items: &'a mut [usize],
}

impl Emitter<'_> {
    fn emit(&mut self, v: usize, x: usize) {
        if self.placing {
            self.items[self.start[v]] = x;
            self.start[v] += 1;
        } else {
            self.start[v + 1] += 1;
        }
    }
}

/// One graph's edges, each resolved to its "active" coordinates (where both
/// endpoint entries are distorted). Edges with the same active coordinates
/// share one set, so a sum over them is computed once.
#[derive(Debug, Default)]
struct EdgeList {
    /// `(v, u, set)` with `v < u`: the endpoints and the index of their set.
    edges: Vec<(usize, usize, usize)>,
    /// Distinct active sets in order of first use, each in increasing order.
    sets: Csr,
    /// The bitset words of each distinct set, one row of words per set.
    set_words: Vec<u64>,
    /// Open-addressing table from a set's words to its index (`usize::MAX`
    /// marks a free slot); at most half full.
    slots: Vec<usize>,
}

impl EdgeList {
    /// Resolves every edge `(v, u)`, `v < u`, of `graph` to the coordinates
    /// set in both `bits` rows of its endpoints (`words` words per vertex),
    /// dropping edges that have none. `cur` is scratch.
    fn build(
        &mut self,
        graph: Option<&NeighborGraph>,
        bits: &[u64],
        words: usize,
        cur: &mut Vec<u64>,
    ) {
        self.edges.clear();
        self.sets.clear();
        self.set_words.clear();
        let Some(g) = graph else { return };
        let cap = (2 * g.num_edges()).next_power_of_two().max(2);
        self.slots.clear();
        self.slots.resize(cap, usize::MAX);
        for v in 0..g.len() {
            for &u in g.neighbors(v).iter().filter(|&&u| u > v) {
                let (bv, bu) = (&bits[v * words..][..words], &bits[u * words..][..words]);
                cur.clear();
                cur.extend(bv.iter().zip(bu).map(|(a, b)| a & b));
                if cur.iter().all(|&w| w == 0) {
                    continue;
                }
                let set = self.intern(cur);
                self.edges.push((v, u, set));
            }
        }
    }

    /// Index of the set whose words are `cur`, added as a new set if absent.
    fn intern(&mut self, cur: &[u64]) -> usize {
        let w = cur.len();
        let mask = self.slots.len() - 1;
        let hash = cur.iter().fold(0u64, |h, &x| (h.rotate_left(5) ^ x).wrapping_mul(FX_SEED));
        let mut slot = (hash >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            match self.slots[slot] {
                usize::MAX => break,
                k if self.set_words[k * w..(k + 1) * w] == *cur => return k,
                _ => slot = (slot + 1) & mask,
            }
        }
        let k = self.sets.rows();
        self.slots[slot] = k;
        self.set_words.extend_from_slice(cur);
        for (base, &word) in (0..).step_by(64).zip(cur) {
            let mut rest = word;
            while rest != 0 {
                self.sets.items.push(base + rest.trailing_zeros() as usize);
                rest &= rest - 1;
            }
        }
        self.sets.end_row();
        k
    }

    fn set(&self, k: usize) -> &[usize] {
        self.sets.row(k)
    }

    /// Whether edge `k` is active on all `full` coordinates.
    fn is_full(&self, k: usize, full: usize) -> bool {
        self.set(self.edges[k].2).len() == full
    }
}

/// Multiplier of the set-dedup hash (the Fx hash's constant).
const FX_SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Sets the low `count` bits of `row` (`row.len() == count.div_ceil(64)`).
fn fill_ones(row: &mut [u64], count: usize) {
    for (w, word) in row.iter_mut().enumerate() {
        let left = count - 64 * w;
        *word = if left >= 64 { u64::MAX } else { (1u64 << left) - 1 };
    }
}

/// Scratch of [`sweep_order`].
#[derive(Debug, Default)]
struct Colouring {
    /// Adjacency of the graph being coloured.
    adj: Csr,
    /// Colour of each vertex (`usize::MAX` until coloured).
    colour: Vec<usize>,
    /// `taken[c] == v + 1` while colouring `v`: a neighbour already has `c`.
    taken: Vec<usize>,
}

/// Writes into `order` the sweep order of a deterministic greedy colouring
/// of the graph on `n` vertices whose edges `edges` lists. Vertices are
/// visited in index order and take the smallest colour absent among their
/// already-coloured neighbours, so the classes depend only on the edge list;
/// row `k` of `order` lists the vertices of colour `k` in index order, and
/// the sweep visits the rows in turn. Vertices joined by an edge never share
/// a class, hence every block solve within a class is independent of the
/// others.
fn sweep_order(c: &mut Colouring, n: usize, edges: &[(usize, usize, usize)], order: &mut Csr) {
    c.adj.fill(n, |e| {
        for &(u, v, _) in edges {
            e.emit(u, v);
            e.emit(v, u);
        }
    });
    c.colour.clear();
    c.colour.resize(n, usize::MAX);
    c.taken.clear();
    c.taken.resize(n + 1, 0);
    let mut colours = 0;
    for v in 0..n {
        for &u in c.adj.row(v) {
            if let Some(t) = c.taken.get_mut(c.colour[u]) {
                *t = v + 1;
            }
        }
        let k = (0..=n).find(|&k| c.taken[k] != v + 1).expect("a free colour always exists");
        c.colour[v] = k;
        colours = colours.max(k + 1);
    }
    let colour = &c.colour;
    order.fill(colours, |e| colour.iter().enumerate().for_each(|(v, &k)| e.emit(k, v)));
}

/// What one solve knows about its problem's structure: the active sets of
/// both graphs' edges, the observed entries and the edges touching each row
/// and column, and the order of both colored sweeps. Every solve rebuilds
/// it in place (see the module docs' *Set-up*).
#[derive(Debug, Default)]
struct Structure {
    /// Distortion mask as bitsets: per link, its distorted cells…
    link_bits: Vec<u64>,
    /// …and per cell, its distorted links.
    cell_bits: Vec<u64>,
    /// Words of the active set being resolved.
    words: Vec<u64>,
    /// Location edges `(j, j')`, active on sets of links.
    location: EdgeList,
    /// Link edges `(i, i')`, active on sets of cells.
    link: EdgeList,
    /// Observed columns of each row, in increasing order.
    row_obs: Csr,
    /// Observed rows of each column, in increasing order.
    col_obs: Csr,
    /// Link edges incident to each row (fully-active and not).
    row_edges: Csr,
    /// Location edges with a *partial* active set containing each row; the
    /// fully-active ones enter through the L-step's closed form.
    row_loc_edges: Csr,
    /// Location edges incident to each column (fully-active and not).
    col_edges: Csr,
    /// Link edges with a *partial* active set containing each column.
    col_link_edges: Csr,
    /// The L-step's rows and the R-step's columns in sweep order, one row
    /// of each list per colour class.
    row_order: Csr,
    col_order: Csr,
    colouring: Colouring,
}

impl Structure {
    fn build(&mut self, problem: &ReconstructionProblem<'_>, config: &LoliIrConfig) {
        let (m, n) = problem.observed.shape();
        let (wm, wn) = (m.div_ceil(64), n.div_ceil(64));
        let Structure {
            link_bits,
            cell_bits,
            words,
            location,
            link,
            row_obs,
            col_obs,
            row_edges,
            row_loc_edges,
            col_edges,
            col_link_edges,
            row_order,
            col_order,
            colouring,
        } = self;
        link_bits.clear();
        link_bits.resize(m * wn, 0);
        cell_bits.clear();
        cell_bits.resize(n * wm, 0);
        match problem.distortion {
            Some(d) => {
                for i in 0..m {
                    for j in d.true_cols(i) {
                        link_bits[i * wn + j / 64] |= 1 << (j % 64);
                        cell_bits[j * wm + i / 64] |= 1 << (i % 64);
                    }
                }
            }
            None => {
                link_bits.chunks_exact_mut(wn).for_each(|row| fill_ones(row, n));
                cell_bits.chunks_exact_mut(wm).for_each(|row| fill_ones(row, m));
            }
        }
        location.build(problem.location_graph, cell_bits, wm, words);
        link.build(problem.link_graph, link_bits, wn, words);

        row_obs
            .fill(m, |e| (0..m).for_each(|i| problem.mask.true_cols(i).for_each(|j| e.emit(i, j))));
        col_obs.fill(n, |e| (0..m).for_each(|i| row_obs.row(i).iter().for_each(|&j| e.emit(j, i))));

        // Both smoothness terms depend on *both* factors: a similarity edge
        // (i, i') constrains rows i, i' of L and every active column of R; a
        // continuity edge (j, j') constrains columns j, j' of R and every
        // active row of L. For each block solve to be an exact minimization
        // (and the objective therefore monotone), every term touching the
        // variable must enter its normal equations — so the edges are indexed
        // from all four directions. The "every active row/column" directions
        // list only the *partial* edges; the fully-active ones enter through
        // the shared closed-form accumulators.
        let ends = |list: &EdgeList, e: &mut Emitter<'_>| {
            for (k, &(u, v, _)) in list.edges.iter().enumerate() {
                e.emit(u, k);
                e.emit(v, k);
            }
        };
        let members = |list: &EdgeList, full: usize, e: &mut Emitter<'_>| {
            for (k, &(_, _, set)) in list.edges.iter().enumerate() {
                let set = list.set(set);
                if set.len() != full {
                    set.iter().for_each(|&x| e.emit(x, k));
                }
            }
        };
        row_edges.fill(m, |e| ends(link, e));
        col_link_edges.fill(n, |e| members(link, n, e));
        col_edges.fill(n, |e| ends(location, e));
        row_loc_edges.fill(m, |e| members(location, m, e));

        // A row's solve reads other L rows only through similarity edges (and
        // a column's solve reads other R rows only through continuity edges),
        // so no solve reads a row of its own class — exactly what a proper
        // coloring guarantees — and each solved row can be written back at
        // once. When the coupling term is off, everything is independent and
        // a single class covers the whole sweep.
        let row_coupling = if config.beta > 0.0 { &link.edges[..] } else { &[] };
        sweep_order(colouring, m, row_coupling, row_order);
        let col_coupling = if config.alpha > 0.0 { &location.edges[..] } else { &[] };
        sweep_order(colouring, n, col_coupling, col_order);
    }
}

/// Block systems factored and solved together: up to this many members of
/// one colour class, one per lane.
const LANES: usize = 4;

/// Scratch of the `r x r` block solves in progress.
#[derive(Debug)]
struct RowScratch {
    /// The system being built, as a packed lower triangle (the diagnostics
    /// factor theirs in place here).
    lhs: Vec<f64>,
    /// Its right-hand side.
    rhs: Vec<f64>,
    /// Product of a packed set sum with the other endpoint's factor row.
    dir: Vec<f64>,
    /// The batch's systems, entry `k` of lane `w` at `lanes_lhs[k][w]`,
    /// factored in place…
    lanes_lhs: Vec<[f64; LANES]>,
    /// …and their right-hand sides, then solutions.
    lanes_rhs: Vec<[f64; LANES]>,
}

impl RowScratch {
    fn new(r: usize) -> Self {
        let t = tri_len(r);
        RowScratch {
            lhs: vec![0.0; t],
            rhs: vec![0.0; r],
            dir: vec![0.0; r],
            lanes_lhs: vec![[0.0; LANES]; t],
            lanes_rhs: vec![[0.0; LANES]; r],
        }
    }
}

/// Preallocated buffers for [`reconstruct_with`].
///
/// A workspace can be reused across solves of any shape: buffers grow when the
/// problem does and are reused verbatim otherwise. Every solve rebuilds its
/// set-up (edge sets, incidence lists, sweep order) in these buffers too, so
/// on a reused workspace a whole solve allocates only for its SVD seed, its
/// diagnostics and the outputs it publishes, and its iterations allocate
/// nothing. `SolverWorkspace::new()` itself allocates nothing — buffers
/// appear on first use. Every packed buffer holds lower triangles of `r x r`
/// matrices, `r(r+1)/2` entries each.
#[derive(Debug)]
pub struct SolverWorkspace {
    /// The problem's structure, rebuilt by every solve.
    structure: Structure,
    /// The block solves in flight: up to [`LANES`] members of a colour
    /// class, whose rows (columns) are written back after the batch.
    scratch: RowScratch,
    gram: Matrix,
    xh: Matrix,
    trace: Vec<f64>,
    /// Start of every block system of the current half-sweep (packed):
    /// `λI + μG` plus `closed` when any edge is fully active.
    base: Vec<f64>,
    /// What each fully-active edge adds (packed): `β·RᵀR` for a similarity
    /// edge during an L-step, `α·LᵀL` for a continuity edge during an R-step.
    gram_w: Vec<f64>,
    /// Closed form of the fully-active edges (packed): `α Σ (r_j − r_{j'})
    /// (r_j − r_{j'})ᵀ` over location edges during an L-step, `β Σ (l_i −
    /// l_{i'})(l_i − l_{i'})ᵀ` over link edges during an R-step.
    closed: Vec<f64>,
    /// Right-hand-side companion of the R-step's `closed`:
    /// `β Σ δ_{ii'} (l_i − l_{i'})`.
    link_rhs: Vec<f64>,
    /// Column sums of `R` (`Σ_j r_j`) for the baseline-offset part of the
    /// fully-active similarity right-hand sides.
    rsum: Vec<f64>,
    /// One packed sum per distinct *partial* active set, shared by every
    /// edge with that set: `Σ_{j ∈ cells} r_j r_jᵀ` for the link sets during
    /// an L-step, then `Σ_{i ∈ links} l_i l_iᵀ` for the location sets during
    /// the R-step.
    set_tri: Vec<f64>,
    /// `set_tri` times the edge weight (`β`, then `α`), as the solves add it.
    set_tri_w: Vec<f64>,
    /// Packed `f_x f_xᵀ` of every row of the factor held fixed (`R`'s during
    /// an L-step, `L`'s during an R-step), written once per half-sweep and
    /// summed into `set_tri`.
    row_outer: Vec<f64>,
    /// `Σ_{j ∈ cells} r_j` per partial link set (L-step right-hand sides).
    set_sum: Vec<f64>,
    /// Per partial edge, the packed rank-1 term it adds to every row
    /// (column) in its active set: `α (r_j − r_{j'})(r_j − r_{j'})ᵀ` per
    /// location edge during an L-step, `β (l_i − l_{i'})(l_i − l_{i'})ᵀ` per
    /// link edge during an R-step.
    edge_outer: Vec<f64>,
    /// `βδ_{ii'} (l_i − l_{i'})` per partial link edge whose offset term is
    /// non-zero (R-step right-hand sides).
    edge_rhs: Vec<f64>,
    /// Prior right-hand sides: `P·R` (`m x r`) for the L-step…
    prior_l: Matrix,
    /// …and `Lᵀ·P` (`r x n`) for the R-step.
    prior_r: Matrix,
    /// Pre-sweep factor snapshots for the acceleration step (sized only when
    /// `accelerate` is on).
    prev_l: Matrix,
    prev_r: Matrix,
    /// Second `m x n` product buffer so a rejected extrapolation can be
    /// discarded without recomputing `L·Rᵀ` (sized only when `accelerate` on).
    xh_alt: Matrix,
}

impl SolverWorkspace {
    /// Creates an empty workspace; buffers are allocated lazily by the solver.
    pub fn new() -> Self {
        SolverWorkspace {
            structure: Structure::default(),
            scratch: RowScratch::new(0),
            gram: Matrix::zeros(0, 0),
            xh: Matrix::zeros(0, 0),
            trace: Vec::new(),
            base: Vec::new(),
            gram_w: Vec::new(),
            closed: Vec::new(),
            link_rhs: Vec::new(),
            rsum: Vec::new(),
            set_tri: Vec::new(),
            set_tri_w: Vec::new(),
            row_outer: Vec::new(),
            set_sum: Vec::new(),
            edge_outer: Vec::new(),
            edge_rhs: Vec::new(),
            prior_l: Matrix::zeros(0, 0),
            prior_r: Matrix::zeros(0, 0),
            prev_l: Matrix::zeros(0, 0),
            prev_r: Matrix::zeros(0, 0),
            xh_alt: Matrix::zeros(0, 0),
        }
    }

    /// Grows the buffers to fit an `m x n` rank-`r` problem with the edge
    /// sets in `self.structure`; a no-op (and allocation-free) when they
    /// already fit.
    fn ensure(&mut self, m: usize, n: usize, r: usize, max_iters: usize, accelerate: bool) {
        if self.scratch.rhs.len() != r {
            self.scratch = RowScratch::new(r);
        }
        if self.gram.shape() != (r, r) {
            self.gram = Matrix::zeros(r, r);
        }
        let t = tri_len(r);
        for packed in [&mut self.base, &mut self.gram_w, &mut self.closed] {
            packed.resize(t, 0.0);
        }
        self.link_rhs.resize(r, 0.0);
        self.rsum.resize(r, 0.0);
        let (link, location) = (&self.structure.link, &self.structure.location);
        let sets = link.sets.rows().max(location.sets.rows());
        self.set_tri.resize(sets * t, 0.0);
        self.set_tri_w.resize(sets * t, 0.0);
        self.row_outer.resize(m.max(n) * t, 0.0);
        self.set_sum.resize(link.sets.rows() * r, 0.0);
        self.edge_outer.resize(link.edges.len().max(location.edges.len()) * t, 0.0);
        self.edge_rhs.resize(link.edges.len() * r, 0.0);
        if self.xh.shape() != (m, n) {
            self.xh = Matrix::zeros(m, n);
        }
        if self.prior_l.shape() != (m, r) {
            self.prior_l = Matrix::zeros(m, r);
        }
        if self.prior_r.shape() != (r, n) {
            self.prior_r = Matrix::zeros(r, n);
        }
        if accelerate {
            if self.prev_l.shape() != (m, r) {
                self.prev_l = Matrix::zeros(m, r);
            }
            if self.prev_r.shape() != (n, r) {
                self.prev_r = Matrix::zeros(n, r);
            }
            if self.xh_alt.shape() != (m, n) {
                self.xh_alt = Matrix::zeros(m, n);
            }
        }
        self.trace.clear();
        self.trace.reserve(max_iters + 1);
    }
}

impl Default for SolverWorkspace {
    fn default() -> Self {
        SolverWorkspace::new()
    }
}

/// Cross-link empty-room baseline offset `δ_{ii'} = e_i − e_{i'}`.
fn baseline_delta(problem: &ReconstructionProblem<'_>, i: usize, i2: usize) -> f64 {
    problem.empty_rss.map_or(0.0, |e| e[i] - e[i2])
}

/// Evaluates the LoLi-IR objective at `(L, R)`, writing `L·Rᵀ` into `xh`.
fn objective(
    problem: &ReconstructionProblem<'_>,
    st: &Structure,
    config: &LoliIrConfig,
    mu: f64,
    l: &Matrix,
    rf: &Matrix,
    xh: &mut Matrix,
) -> Result<f64> {
    l.matmul_nt_into(rf, xh)?;
    let mut f = config.lambda * (l.frobenius_norm().powi(2) + rf.frobenius_norm().powi(2));
    for i in 0..xh.rows() {
        for &j in st.row_obs.row(i) {
            let d = xh[(i, j)] - problem.observed[(i, j)];
            f += d * d;
        }
    }
    if let Some(p) = problem.lrr_prior {
        if mu > 0.0 {
            let mut s = 0.0;
            for (a, b) in xh.as_slice().iter().zip(p.as_slice()) {
                let d = a - b;
                s += d * d;
            }
            f += mu * s;
        }
    }
    if config.alpha > 0.0 {
        for &(j, j2, set) in &st.location.edges {
            for &i in st.location.set(set) {
                let d = xh[(i, j)] - xh[(i, j2)];
                f += config.alpha * d * d;
            }
        }
    }
    if config.beta > 0.0 {
        for &(i, i2, set) in &st.link.edges {
            let off = baseline_delta(problem, i, i2);
            for &j in st.link.set(set) {
                let d = xh[(i, j)] - xh[(i2, j)] - off;
                f += config.beta * d * d;
            }
        }
    }
    Ok(f)
}

/// Read-only inputs shared by the L-step solves of one half-sweep.
struct LStepCtx<'a> {
    problem: &'a ReconstructionProblem<'a>,
    st: &'a Structure,
    config: &'a LoliIrConfig,
    mu: f64,
    rf: &'a Matrix,
    /// `RᵀR`.
    gram: &'a Matrix,
    /// `λI + μRᵀR`, plus the fully-active continuity closed form (packed).
    base: &'a [f64],
    /// `β·RᵀR` (packed).
    gram_w: &'a [f64],
    /// Column sums of `R` for the baseline-offset right-hand-side term.
    rsum: &'a [f64],
    /// Per partial link set: `Σ_{j ∈ cells} r_j r_jᵀ` (packed), `β` times
    /// it, and `Σ_{j ∈ cells} r_j`, indexed like `st.link`'s sets.
    set_tri: &'a [f64],
    set_tri_w: &'a [f64],
    set_sum: &'a [f64],
    /// `α (r_j − r_{j'})(r_j − r_{j'})ᵀ` (packed) per partial location edge.
    edge_outer: &'a [f64],
    /// `P·R` (`m x r`): each row's prior right-hand side, or `None` when the
    /// prior term is off.
    prior_rhs: Option<&'a Matrix>,
}

/// Read-only inputs shared by the R-step solves of one half-sweep.
struct RStepCtx<'a> {
    problem: &'a ReconstructionProblem<'a>,
    st: &'a Structure,
    config: &'a LoliIrConfig,
    mu: f64,
    l: &'a Matrix,
    /// `LᵀL`.
    gram: &'a Matrix,
    /// `λI + μLᵀL`, plus the fully-active similarity closed form (packed).
    base: &'a [f64],
    /// `α·LᵀL` (packed).
    gram_w: &'a [f64],
    /// Right-hand side of the fully-active similarity closed form,
    /// `β Σ δ_{ii'} (l_i − l_{i'})`; `None` when no link edge is fully active.
    link_rhs: Option<&'a [f64]>,
    /// Per partial location set: `Σ_{i ∈ links} l_i l_iᵀ` (packed) and `α`
    /// times it, indexed like `st.location`'s sets.
    set_tri: &'a [f64],
    set_tri_w: &'a [f64],
    /// Per partial link edge: `β (l_i − l_{i'})(l_i − l_{i'})ᵀ` (packed) and,
    /// where the offset term is non-zero, `βδ_{ii'} (l_i − l_{i'})`.
    edge_outer: &'a [f64],
    edge_rhs: &'a [f64],
    /// `Lᵀ·P` (`r x n`): each column's prior right-hand side.
    prior_rhs: Option<&'a Matrix>,
}

/// Solves the block systems of one half-sweep into the rows of `f`, colour
/// class by colour class (the rows of `order`), [`LANES`] members at a time:
/// `build` writes member `x`'s system into `s.lhs` and `s.rhs`, the batch is
/// factored and solved lane by lane, and each solution is written back to
/// row `x` after the batch. No member of a class reads another's row, so the
/// results are the bits of solving and writing back one member at a time,
/// and an error is the first failing member's in sweep order.
fn solve_sweep(
    f: &mut Matrix,
    order: &Csr,
    s: &mut RowScratch,
    build: impl Fn(&Matrix, usize, &mut RowScratch),
) -> Result<()> {
    let r = f.cols();
    for class in 0..order.rows() {
        for batch in order.row(class).chunks(LANES) {
            for (w, &x) in batch.iter().enumerate() {
                build(f, x, s);
                for (lane, &v) in s.lanes_lhs.iter_mut().zip(&s.lhs) {
                    lane[w] = v;
                }
                for (lane, &v) in s.lanes_rhs.iter_mut().zip(&s.rhs) {
                    lane[w] = v;
                }
            }
            cholesky_packed_lanes_in_place(&mut s.lanes_lhs, r, batch.len())?;
            solve_packed_lanes_in_place(&s.lanes_lhs, &mut s.lanes_rhs)?;
            for (w, &x) in batch.iter().enumerate() {
                for (out, lane) in f.row_mut(x).iter_mut().zip(&s.lanes_rhs) {
                    *out = lane[w];
                }
            }
        }
    }
    Ok(())
}

/// Builds the `r x r` ridge system for row `l_i` in `s`. Factor rows read
/// through `l` belong to other color classes, so none of them is one being
/// solved.
///
/// The system starts from the half-sweep's `base` (`λI + μRᵀR` plus the
/// fully-active continuity edges). Then come the data term, fully-active
/// similarity edges (`β RᵀR` plus a Gram matrix-vector product), partial
/// similarity edges (their set's per-sweep sums) and partial continuity
/// edges (their per-sweep rank-1 terms), each a flat add of stored values.
fn build_l_row(ctx: &LStepCtx<'_>, l: &Matrix, i: usize, s: &mut RowScratch) {
    let (n, r) = ctx.rf.shape();
    let t = tri_len(r);
    let beta = ctx.config.beta;
    s.lhs.copy_from_slice(ctx.base);
    s.rhs.fill(0.0);
    // Data term: Σ_j B_ij (r_jᵀ l_i − x_ij)².
    for &j in ctx.st.row_obs.row(i) {
        let rj = ctx.rf.row(j);
        rank1_update(&mut s.lhs, rj, 1.0);
        taf_linalg::axpy_slice(&mut s.rhs, ctx.problem.observed[(i, j)], rj);
    }
    // LRR prior: μ ‖R l_i − p_i‖² — right-hand side μ (P·R)_i.
    if let Some(pr) = ctx.prior_rhs {
        taf_linalg::axpy_slice(&mut s.rhs, ctx.mu, pr.row(i));
    }
    // Similarity edges incident to row i (other endpoint held fixed).
    if beta > 0.0 {
        for &k in ctx.st.row_edges.row(i) {
            let (u, v, set) = ctx.st.link.edges[k];
            let delta = baseline_delta(ctx.problem, u, v);
            let (other, off) = if u == i { (v, delta) } else { (u, -delta) };
            let lo = l.row(other);
            if ctx.st.link.is_full(k, n) {
                // Fully active: Σ_j r_j r_jᵀ = RᵀR and the target sum
                // collapses to G·l_other + off·Σ_j r_j.
                add_into(&mut s.lhs, ctx.gram_w);
                for (a, out) in s.rhs.iter_mut().enumerate() {
                    let t = taf_linalg::dot(ctx.gram.row(a), lo) + off * ctx.rsum[a];
                    *out += beta * t;
                }
            } else {
                // Partial: the same two terms over the edge's cells, from
                // its set's sums G_e = Σ r_j r_jᵀ and s_e = Σ r_j (the
                // target for x̂_ij is x̂_other,j + off).
                add_into(&mut s.lhs, &ctx.set_tri_w[set * t..(set + 1) * t]);
                packed_symv(&ctx.set_tri[set * t..(set + 1) * t], lo, &mut s.dir);
                let sum = &ctx.set_sum[set * r..(set + 1) * r];
                for ((a, &g), &sj) in s.rhs.iter_mut().zip(&s.dir).zip(sum) {
                    *a += beta * (g + off * sj);
                }
            }
        }
    }
    // Continuity edges whose *partial* active-link set contains row i:
    // α (l_iᵀ (r_j − r_{j'}))², quadratic in l_i with zero target.
    if ctx.config.alpha > 0.0 {
        for &k in ctx.st.row_loc_edges.row(i) {
            add_into(&mut s.lhs, &ctx.edge_outer[k * t..(k + 1) * t]);
        }
    }
}

/// Builds the `r x r` ridge system for column `r_j` in `s`; symmetric
/// counterpart of [`build_l_row`]: `base` holds the fully-active
/// similarity edges, fully-active continuity edges add `α LᵀL`, partial
/// continuity edges their set's sums, partial similarity edges their
/// per-sweep rank-1 and offset terms.
fn build_r_col(ctx: &RStepCtx<'_>, rf: &Matrix, j: usize, s: &mut RowScratch) {
    let (m, r) = ctx.l.shape();
    let t = tri_len(r);
    s.lhs.copy_from_slice(ctx.base);
    s.rhs.fill(0.0);
    if let Some(full_rhs) = ctx.link_rhs {
        taf_linalg::axpy_slice(&mut s.rhs, 1.0, full_rhs);
    }
    for &i in ctx.st.col_obs.row(j) {
        let li = ctx.l.row(i);
        rank1_update(&mut s.lhs, li, 1.0);
        taf_linalg::axpy_slice(&mut s.rhs, ctx.problem.observed[(i, j)], li);
    }
    // LRR prior right-hand side μ (LᵀP)_{·j}.
    if let Some(lp) = ctx.prior_rhs {
        for (a, v) in s.rhs.iter_mut().enumerate() {
            *v += ctx.mu * lp[(a, j)];
        }
    }
    let alpha = ctx.config.alpha;
    if alpha > 0.0 {
        for &k in ctx.st.col_edges.row(j) {
            let (u, v, set) = ctx.st.location.edges[k];
            let ro = rf.row(if u == j { v } else { u });
            if ctx.st.location.is_full(k, m) {
                // Fully active: Σ_i l_i l_iᵀ = LᵀL, target sum G_L·r_other.
                add_into(&mut s.lhs, ctx.gram_w);
                for (a, out) in s.rhs.iter_mut().enumerate() {
                    *out += alpha * taf_linalg::dot(ctx.gram.row(a), ro);
                }
            } else {
                // Partial: A_e = Σ_{i ∈ links} l_i l_iᵀ of the edge's set,
                // computed once per sweep; target sum A_e·r_other.
                add_into(&mut s.lhs, &ctx.set_tri_w[set * t..(set + 1) * t]);
                packed_symv(&ctx.set_tri[set * t..(set + 1) * t], ro, &mut s.dir);
                taf_linalg::axpy_slice(&mut s.rhs, alpha, &s.dir);
            }
        }
    }
    // Similarity edges whose *partial* active-cell set contains column j:
    // β ((l_i − l_{i'})ᵀ r_j − δ_{ii'})², quadratic in r_j with direction
    // l_i − l_{i'} and target δ.
    if ctx.config.beta > 0.0 {
        for &k in ctx.st.col_link_edges.row(j) {
            add_into(&mut s.lhs, &ctx.edge_outer[k * t..(k + 1) * t]);
            let (i, i2, _) = ctx.st.link.edges[k];
            if ctx.config.beta * baseline_delta(ctx.problem, i, i2) != 0.0 {
                add_into(&mut s.rhs, &ctx.edge_rhs[k * r..(k + 1) * r]);
            }
        }
    }
}

/// Runs LoLi-IR on a reconstruction problem.
///
/// Convenience wrapper around [`reconstruct_with`] with a fresh workspace;
/// callers solving repeatedly should hold a [`SolverWorkspace`] and call
/// [`reconstruct_with`] to skip the per-call buffer allocations.
pub fn reconstruct(
    problem: &ReconstructionProblem<'_>,
    config: &LoliIrConfig,
) -> Result<Reconstruction> {
    reconstruct_with(problem, config, &mut SolverWorkspace::new())
}

/// Runs LoLi-IR reusing the caller's [`SolverWorkspace`], always cold-started.
///
/// Steady-state iterations perform no heap allocation — every buffer lives in
/// the workspace. Rows/columns are partitioned into graph-coloring classes
/// solved class by class (a colored Gauss-Seidel sweep), each class in index
/// order; that order fixes the result bit for bit.
pub fn reconstruct_with(
    problem: &ReconstructionProblem<'_>,
    config: &LoliIrConfig,
    ws: &mut SolverWorkspace,
) -> Result<Reconstruction> {
    reconstruct_warm(problem, config, ws, None)
}

/// Runs LoLi-IR, seeding the iterate from `warm` when one is supplied.
///
/// A usable warm state (matching `(links, cells, rank)` shape, all entries
/// finite) replaces the truncated-SVD initialization with the previous
/// solution; an unusable one falls back to the cold start — bit-identical to
/// [`reconstruct_with`] — rather than erroring, so callers can pass whatever
/// they have and check [`Reconstruction::warm_start`] afterwards. Warm or
/// cold, every iterate-improvement property is unchanged (exact block solves,
/// monotone objective, the same sweep order); only the starting point
/// differs, which is what lets a steady-state refresh stop after a handful of
/// iterations instead of re-earning the whole solution.
pub fn reconstruct_warm(
    problem: &ReconstructionProblem<'_>,
    config: &LoliIrConfig,
    ws: &mut SolverWorkspace,
    warm: Option<&WarmState>,
) -> Result<Reconstruction> {
    config.validate()?;
    problem.validate()?;

    let (m, n) = problem.observed.shape();
    let r = config.rank.min(m).min(n);
    // The LRR term only exists when a prior was supplied; otherwise its weight in
    // the normal equations must vanish too (a bare `mu * RᵀR` on the left-hand
    // side with no matching right-hand side would shrink X̂ toward zero).
    let mu = if problem.lrr_prior.is_some() { config.mu } else { 0.0 };
    let has_prior = mu > 0.0 && problem.lrr_prior.is_some();
    ws.structure.build(problem, config);
    ws.ensure(m, n, r, config.max_iters, config.accelerate);

    // ------------------------------------------------------------------
    // Initialization. The cold start is the truncated SVD of the prior (or of
    // a filled observation). A usable warm state (matching shape, finite) is
    // a *candidate*, not a mandate: the current problem may have drifted far
    // from the one that produced it, leaving the old solution a worse start
    // than the SVD of the fresh prior. Both seeds are scored by the actual
    // objective and the lower one wins — a stale warm state can therefore
    // never make a solve slower to converge than the cold start, while a
    // fresh one skips most of the descent.
    // ------------------------------------------------------------------
    let svd = match problem.lrr_prior {
        Some(p) => p.svd()?,
        None => fill_from_observed(problem.observed, problem.mask).svd()?,
    }
    .truncate(r);
    let cold_l = Matrix::from_fn(m, r, |i, k| svd.u[(i, k)] * svd.sigma[k].sqrt());
    let cold_r = Matrix::from_fn(n, r, |j, k| svd.v[(j, k)] * svd.sigma[k].sqrt());
    let seed = warm.filter(|w| w.shape() == (m, n, r) && w.is_finite());
    // `scored` is the winner's objective when both seeds were evaluated.
    let (warm_start, scored) = match seed {
        None => (false, None),
        Some(w) => {
            let st = &ws.structure;
            let f_warm = objective(problem, st, config, mu, &w.l, &w.r, &mut ws.xh)?;
            let f_cold = objective(problem, st, config, mu, &cold_l, &cold_r, &mut ws.xh)?;
            // Strict `<` (false on NaN) so ties and garbage go cold.
            if f_warm < f_cold {
                (true, Some(f_warm))
            } else {
                (false, Some(f_cold))
            }
        }
    };
    let (mut l, mut rf) = if warm_start {
        let w = seed.expect("warm_start implies a seed");
        (w.l.clone(), w.r.clone())
    } else {
        (cold_l, cold_r)
    };

    // `ws.xh` may now hold the loser's product; nothing reads it before the
    // first iteration's objective rewrites it (`max_iters >= 1`).
    let f0 = match scored {
        Some(f) => f,
        None => objective(problem, &ws.structure, config, mu, &l, &rf, &mut ws.xh)?,
    };
    ws.trace.push(f0);
    let mut converged = false;
    let mut iterations = 0;

    // Fully-active edges (every row resp. column in the active set — the
    // common case whenever no distortion mask narrows the penalties) are
    // handled in closed form: their per-sweep accumulators are computed once
    // and shared by every block solve of the sweep, instead of redoing a
    // rank-1 update per active entry per solve.
    let st = &ws.structure;
    let any_full = |list: &EdgeList, full| (0..list.sets.rows()).any(|k| list.set(k).len() == full);
    let has_full_loc = config.alpha > 0.0 && any_full(&st.location, m);
    let has_full_link = config.beta > 0.0 && any_full(&st.link, n);

    let t = tri_len(r);

    let mut stall = 0usize;
    for iter in 0..config.max_iters {
        iterations = iter + 1;
        if config.accelerate {
            ws.prev_l.as_mut_slice().copy_from_slice(l.as_slice());
            ws.prev_r.as_mut_slice().copy_from_slice(rf.as_slice());
        }

        // ---------------- L-step: colored Gauss-Seidel over rows ----------------
        rf.gram_into(&mut ws.gram)?;
        if has_full_link {
            ws.rsum.fill(0.0);
            for j in 0..n {
                taf_linalg::axpy_slice(&mut ws.rsum, 1.0, rf.row(j));
            }
        }
        // Continuity edges: the fully-active ones sum into the closed form,
        // each partial one stores the rank-1 term its active rows add.
        if config.alpha > 0.0 {
            let dir = &mut ws.scratch.dir;
            ws.closed.fill(0.0);
            let location = &ws.structure.location;
            for (k, &(j, j2, _)) in location.edges.iter().enumerate() {
                diff_into(dir, rf.row(j), rf.row(j2));
                if location.is_full(k, m) {
                    rank1_update(&mut ws.closed, dir, config.alpha);
                } else {
                    outer_packed(&mut ws.edge_outer[k * t..(k + 1) * t], dir, config.alpha);
                }
            }
        }
        let closed = has_full_loc.then_some(ws.closed.as_slice());
        fill_base(&mut ws.base, &ws.gram, config.lambda, mu, closed);
        if config.beta > 0.0 {
            pack_scaled(&ws.gram, config.beta, &mut ws.gram_w);
            let (outer, tri, tri_w) = (&mut ws.row_outer, &mut ws.set_tri, &mut ws.set_tri_w);
            let sums = Some(ws.set_sum.as_mut_slice());
            let sets = &ws.structure.link.sets;
            partial_set_sums(&rf, sets, n, config.beta, outer, tri, tri_w, sums);
        }
        if has_prior {
            let p = problem.lrr_prior.expect("has_prior implies Some");
            p.matmul_into(&rf, &mut ws.prior_l)?;
        }
        let ctx = LStepCtx {
            problem,
            st: &ws.structure,
            config,
            mu,
            rf: &rf,
            gram: &ws.gram,
            base: &ws.base,
            gram_w: &ws.gram_w,
            rsum: &ws.rsum,
            set_tri: &ws.set_tri,
            set_tri_w: &ws.set_tri_w,
            set_sum: &ws.set_sum,
            edge_outer: &ws.edge_outer,
            prior_rhs: if has_prior { Some(&ws.prior_l) } else { None },
        };
        let row_order = &ws.structure.row_order;
        solve_sweep(&mut l, row_order, &mut ws.scratch, |l, i, s| build_l_row(&ctx, l, i, s))?;

        // ---------------- R-step: colored Gauss-Seidel over columns ----------------
        l.gram_into(&mut ws.gram)?;
        // Similarity edges: the fully-active ones sum into the closed form
        // and its right-hand side, each partial one stores the rank-1 and
        // offset terms its active columns add.
        if config.beta > 0.0 {
            let dir = &mut ws.scratch.dir;
            ws.closed.fill(0.0);
            ws.link_rhs.fill(0.0);
            let link = &ws.structure.link;
            for (k, &(i, i2, _)) in link.edges.iter().enumerate() {
                diff_into(dir, l.row(i), l.row(i2));
                let w = config.beta * baseline_delta(problem, i, i2);
                if link.is_full(k, n) {
                    rank1_update(&mut ws.closed, dir, config.beta);
                    if w != 0.0 {
                        taf_linalg::axpy_slice(&mut ws.link_rhs, w, dir);
                    }
                } else {
                    outer_packed(&mut ws.edge_outer[k * t..(k + 1) * t], dir, config.beta);
                    if w != 0.0 {
                        let out = &mut ws.edge_rhs[k * r..(k + 1) * r];
                        for (o, &dv) in out.iter_mut().zip(dir.iter()) {
                            *o = w * dv;
                        }
                    }
                }
            }
        }
        let closed = has_full_link.then_some(ws.closed.as_slice());
        fill_base(&mut ws.base, &ws.gram, config.lambda, mu, closed);
        if config.alpha > 0.0 {
            pack_scaled(&ws.gram, config.alpha, &mut ws.gram_w);
            let (outer, tri, tri_w) = (&mut ws.row_outer, &mut ws.set_tri, &mut ws.set_tri_w);
            let sets = &ws.structure.location.sets;
            partial_set_sums(&l, sets, m, config.alpha, outer, tri, tri_w, None);
        }
        if has_prior {
            let p = problem.lrr_prior.expect("has_prior implies Some");
            l.matmul_tn_into(p, &mut ws.prior_r)?;
        }
        let ctx = RStepCtx {
            problem,
            st: &ws.structure,
            config,
            mu,
            l: &l,
            gram: &ws.gram,
            base: &ws.base,
            gram_w: &ws.gram_w,
            link_rhs: if has_full_link { Some(&ws.link_rhs) } else { None },
            set_tri: &ws.set_tri,
            set_tri_w: &ws.set_tri_w,
            edge_outer: &ws.edge_outer,
            edge_rhs: &ws.edge_rhs,
            prior_rhs: if has_prior { Some(&ws.prior_r) } else { None },
        };
        let col_order = &ws.structure.col_order;
        solve_sweep(&mut rf, col_order, &mut ws.scratch, |rf, j, s| build_r_col(&ctx, rf, j, s))?;

        let mut f = objective(problem, &ws.structure, config, mu, &l, &rf, &mut ws.xh)?;
        if !f.is_finite() {
            return Err(TaflocError::SolverFailure {
                solver: "loli-ir",
                reason: format!("objective became non-finite at iteration {iterations}"),
            });
        }

        // Anderson-style (secant/Aitken) acceleration: when the last two
        // decrements look geometric with ratio ρ < 1, the fixed point lies
        // roughly θ = ρ/(1−ρ) step lengths ahead — extrapolate both factors
        // and keep the result only if the objective actually drops, so the
        // trace stays monotone no matter how wrong the estimate is.
        if config.accelerate && ws.trace.len() >= 2 {
            let f1 = *ws.trace.last().expect("trace seeded");
            let f2 = ws.trace[ws.trace.len() - 2];
            let (d1, d2) = (f1 - f, f2 - f1);
            if d1 > 0.0 && d2 > d1 {
                let rho = d1 / d2;
                let theta = (rho / (1.0 - rho)).clamp(0.0, MAX_ACCEL_THETA);
                if theta > 0.0 {
                    for (cand, &cur) in ws.prev_l.as_mut_slice().iter_mut().zip(l.as_slice().iter())
                    {
                        *cand = cur + theta * (cur - *cand);
                    }
                    for (cand, &cur) in
                        ws.prev_r.as_mut_slice().iter_mut().zip(rf.as_slice().iter())
                    {
                        *cand = cur + theta * (cur - *cand);
                    }
                    let SolverWorkspace { structure, prev_l, prev_r, xh_alt, .. } = &mut *ws;
                    let f_acc = objective(problem, structure, config, mu, prev_l, prev_r, xh_alt)?;
                    if f_acc.is_finite() && f_acc < f {
                        std::mem::swap(&mut l, &mut ws.prev_l);
                        std::mem::swap(&mut rf, &mut ws.prev_r);
                        std::mem::swap(&mut ws.xh, &mut ws.xh_alt);
                        f = f_acc;
                    }
                }
            }
        }

        let prev = *ws.trace.last().expect("trace seeded");
        ws.trace.push(f);
        // Adaptive stopping: the tolerance must *hold* for `stall_iters`
        // consecutive iterations, not merely be grazed once.
        if (prev - f).abs() <= config.tol * prev.abs().max(1.0) {
            stall += 1;
            if stall >= config.stall_iters {
                converged = true;
                break;
            }
        } else {
            stall = 0;
        }
    }

    // `ws.xh` already holds `L·Rᵀ` for the final factors — the last objective
    // evaluation wrote it — so publishing is a straight copy. Diagnostics are
    // computed first, from the same final state (and before the debug bias,
    // which corrupts only the published matrix).
    let diagnostics = compute_diagnostics(problem, config, &rf, ws)?;
    let mut matrix = ws.xh.clone();
    if config.debug_bias_db != 0.0 {
        // Fault-injection hook (see `LoliIrConfig::debug_bias_db`): corrupt
        // the published reconstruction without touching the solve itself.
        for v in matrix.as_mut_slice() {
            *v += config.debug_bias_db;
        }
    }
    if matrix.has_non_finite() {
        return Err(TaflocError::SolverFailure {
            solver: "loli-ir",
            reason: "reconstruction contains non-finite values".into(),
        });
    }
    Ok(Reconstruction {
        matrix,
        l,
        r: rf,
        objective_trace: ws.trace.clone(),
        iterations,
        converged,
        warm_start,
        diagnostics,
    })
}

/// Ceiling on the acceleration extrapolation coefficient: θ = 2 already
/// triples the step; anything larger trusts two noisy decrements too much and
/// mostly burns the safeguard evaluation.
const MAX_ACCEL_THETA: f64 = 2.0;

/// `lhs += w · v·vᵀ` on a packed lower triangle: entry `(a, b)`, `b <= a`,
/// gains `(w·v_a)·v_b`. Every consumer (the Cholesky factorization and the
/// solve that follows) reads only the lower triangle.
fn rank1_update(lhs: &mut [f64], v: &[f64], w: f64) {
    let mut off = 0;
    for (a, &va) in v.iter().enumerate() {
        let wa = w * va;
        for (o, &vb) in lhs[off..=off + a].iter_mut().zip(v) {
            *o += wa * vb;
        }
        off += a + 1;
    }
}

/// Writes the packed `w · v·vᵀ` into `out`, each entry the `(w·v_a)·v_b`
/// that [`rank1_update`] would add.
fn outer_packed(out: &mut [f64], v: &[f64], w: f64) {
    let mut off = 0;
    for (a, &va) in v.iter().enumerate() {
        let wa = w * va;
        for (o, &vb) in out[off..=off + a].iter_mut().zip(v) {
            *o = wa * vb;
        }
        off += a + 1;
    }
}

/// `dst += src`, entry by entry.
fn add_into(dst: &mut [f64], src: &[f64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// `out = x − y`, entry by entry.
fn diff_into(out: &mut [f64], x: &[f64], y: &[f64]) {
    for (o, (&a, &b)) in out.iter_mut().zip(x.iter().zip(y)) {
        *o = a - b;
    }
}

/// Length of the packed lower triangle of an `r x r` matrix: row `a` holds
/// its entries `0..=a`.
fn tri_len(r: usize) -> usize {
    r * (r + 1) / 2
}

/// Writes the packed `λI + μG` into `base`, then adds `closed` when given:
/// the start of every block system of one half-sweep.
fn fill_base(base: &mut [f64], gram: &Matrix, lambda: f64, mu: f64, closed: Option<&[f64]>) {
    let mut k = 0;
    for a in 0..gram.rows() {
        for (b, &g) in gram.row(a)[..=a].iter().enumerate() {
            base[k] = lambda * f64::from(a == b) + mu * g;
            k += 1;
        }
    }
    if let Some(closed) = closed {
        add_into(base, closed);
    }
}

/// Writes the packed `w·G` into `out`.
fn pack_scaled(gram: &Matrix, w: f64, out: &mut [f64]) {
    let mut k = 0;
    for a in 0..gram.rows() {
        for &g in &gram.row(a)[..=a] {
            out[k] = w * g;
            k += 1;
        }
    }
}

/// For every *partial* active set `k` (shorter than `full`), writes
/// `Σ_{x ∈ set} f_x f_xᵀ` over rows `f_x` of `f` into slot `k` of `tri`
/// (packed lower triangle), `w` times it into slot `k` of `tri_w` and, when
/// `sums` is given, `Σ_{x ∈ set} f_x` into slot `k` of it. Every edge with
/// the set then reads the one sum. Fully-active sets are skipped; their
/// edges enter through the closed forms.
///
/// Each row's packed `f_x f_xᵀ` is written once into `outer` (`1.0·v_a` is
/// exact, so its entries are the products a rank-1 update with weight 1
/// adds), then each set adds up its members' in member order.
#[allow(clippy::too_many_arguments)]
fn partial_set_sums(
    f: &Matrix,
    sets: &Csr,
    full: usize,
    w: f64,
    outer: &mut [f64],
    tri: &mut [f64],
    tri_w: &mut [f64],
    mut sums: Option<&mut [f64]>,
) {
    let r = f.cols();
    let t = tri_len(r);
    if (0..sets.rows()).all(|k| sets.row(k).len() == full) {
        return;
    }
    for (x, out) in outer.chunks_exact_mut(t).take(f.rows()).enumerate() {
        outer_packed(out, f.row(x), 1.0);
    }
    for k in 0..sets.rows() {
        let active = sets.row(k);
        if active.len() == full {
            continue;
        }
        let slot = &mut tri[k * t..(k + 1) * t];
        slot.fill(0.0);
        for &x in active {
            add_into(slot, &outer[x * t..(x + 1) * t]);
        }
        for (o, &x) in tri_w[k * t..(k + 1) * t].iter_mut().zip(slot.iter()) {
            *o = w * x;
        }
        if let Some(sums) = sums.as_deref_mut() {
            let sum = &mut sums[k * r..(k + 1) * r];
            sum.fill(0.0);
            for &x in active {
                taf_linalg::axpy_slice(sum, 1.0, f.row(x));
            }
        }
    }
}

/// `y = T·x` for the symmetric `T` whose lower triangle `tri` packs.
fn packed_symv(tri: &[f64], x: &[f64], y: &mut [f64]) {
    y.fill(0.0);
    let mut off = 0;
    for (a, &xa) in x.iter().enumerate() {
        let row = &tri[off..=off + a];
        let mut acc = row[a] * xa;
        for b in 0..a {
            acc += row[b] * x[b];
            y[b] += row[b] * xa;
        }
        y[a] += acc;
        off += a + 1;
    }
}

/// Fills unobserved entries with the row mean of the observed ones (global mean
/// fallback) — the no-prior initialization target.
fn fill_from_observed(observed: &Matrix, mask: &Mask) -> Matrix {
    let (m, n) = observed.shape();
    let mut global_sum = 0.0;
    let mut global_cnt = 0usize;
    for (i, j) in mask.true_positions() {
        global_sum += observed[(i, j)];
        global_cnt += 1;
    }
    let global_mean = if global_cnt > 0 { global_sum / global_cnt as f64 } else { 0.0 };
    Matrix::from_fn(m, n, |i, j| {
        if mask.get(i, j) {
            observed[(i, j)]
        } else {
            let mut s = 0.0;
            let mut c = 0usize;
            for jj in 0..n {
                if mask.get(i, jj) {
                    s += observed[(i, jj)];
                    c += 1;
                }
            }
            if c > 0 {
                s / c as f64
            } else {
                global_mean
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smooth rank-2 ground truth resembling RSS structure (values ~ -50).
    fn ground_truth() -> Matrix {
        Matrix::from_fn(6, 12, |i, j| {
            -50.0
                - 3.0 * (0.4 * i as f64 + 0.2 * j as f64).sin()
                - 2.0 * (0.3 * j as f64 - 0.5 * i as f64).cos()
        })
    }

    fn column_mask(truth: &Matrix, cols: &[usize]) -> Mask {
        Mask::from_columns(truth.rows(), truth.cols(), cols).unwrap()
    }

    #[test]
    fn completion_with_prior_recovers_truth() {
        let truth = ground_truth();
        let mask = column_mask(&truth, &[0, 3, 7, 11]);
        // A perfect prior: the solver should stay close to it and fit observations.
        let problem = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&truth),
            location_graph: None,
            link_graph: None,
            empty_rss: None,
            distortion: None,
        };
        let rec = reconstruct(&problem, &LoliIrConfig::default()).unwrap();
        let err = rec.matrix.sub(&truth).unwrap().map(f64::abs).mean();
        assert!(err < 0.5, "mean abs error {err}");
    }

    /// Distortion support for a 6 x 12 problem under which, on chain graphs,
    /// the location edges (0,1), (1,2), (2,3) and the link edge (4,5) are
    /// fully active and the other 8 location and 4 link edges are partial.
    fn partial_distortion() -> Mask {
        let mut d = Mask::trues(6, 12);
        for i in 0..4 {
            for j in 3..12 {
                if (i + 2 * j) % 5 == 0 {
                    d.set(i, j, false);
                }
            }
        }
        d
    }

    /// Per-link empty-room RSS, so the similarity edges carry offsets `δ`.
    const EMPTY_RSS: [f64; 6] = [-40.0, -42.5, -45.0, -41.0, -44.0, -43.0];

    #[test]
    fn objective_monotonically_non_increasing() {
        let (truth, mask, noisy_prior, g, h) = smoothed_problem_parts();
        let distortion = partial_distortion();
        let plain = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&noisy_prior),
            location_graph: Some(&g),
            link_graph: Some(&h),
            empty_rss: None,
            distortion: None,
        };
        // Mostly partial edges with baseline offsets: the path every daemon
        // refresh takes.
        let partial = ReconstructionProblem {
            empty_rss: Some(&EMPTY_RSS),
            distortion: Some(&distortion),
            ..plain
        };
        let mut st = Structure::default();
        st.build(&partial, &LoliIrConfig::default());
        let full_loc = (0..st.location.edges.len()).filter(|&k| st.location.is_full(k, 6)).count();
        let full_link = (0..st.link.edges.len()).filter(|&k| st.link.is_full(k, 12)).count();
        assert_eq!((full_loc, st.location.edges.len()), (3, 11));
        assert_eq!((full_link, st.link.edges.len()), (1, 5));
        let cfg = LoliIrConfig { max_iters: 25, tol: 0.0, ..Default::default() };
        for problem in [plain, partial] {
            let rec = reconstruct(&problem, &cfg).unwrap();
            for w in rec.objective_trace.windows(2) {
                assert!(
                    w[1] <= w[0] * (1.0 + 1e-10) + 1e-9,
                    "objective increased: {} -> {}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn converges_and_reports_trace() {
        let truth = ground_truth();
        let mask = column_mask(&truth, &[0, 4, 8]);
        let problem = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&truth),
            location_graph: None,
            link_graph: None,
            empty_rss: None,
            distortion: None,
        };
        let rec = reconstruct(&problem, &LoliIrConfig::default()).unwrap();
        assert!(rec.converged, "no convergence in {} iters", rec.iterations);
        assert_eq!(rec.objective_trace.len(), rec.iterations + 1);
        assert_eq!(rec.l.shape(), (6, 6));
        assert_eq!(rec.r.shape(), (12, 6));
    }

    #[test]
    fn no_prior_pure_completion_runs() {
        let truth = ground_truth();
        // Scattered observations (60%).
        let mut mask = Mask::trues(6, 12);
        for k in 0..72 {
            if k % 5 < 2 {
                mask.set(k / 12, k % 12, false);
            }
        }
        let problem = ReconstructionProblem::completion_only(&truth, &mask);
        let cfg = LoliIrConfig { rank: 3, mu: 0.0, alpha: 0.0, beta: 0.0, ..Default::default() };
        let rec = reconstruct(&problem, &cfg).unwrap();
        let err = rec.matrix.sub(&truth).unwrap().map(f64::abs).mean();
        assert!(err < 1.5, "pure completion err {err}");
    }

    #[test]
    fn smoothness_terms_help_with_bad_prior() {
        // Corrupt the prior in the unobserved region with rough noise; the
        // continuity term should pull the reconstruction back toward smoothness.
        let truth = ground_truth();
        let mask = column_mask(&truth, &[0, 6, 11]);
        let rough_prior = Matrix::from_fn(6, 12, |i, j| {
            truth[(i, j)] + if (i + j) % 2 == 0 { 2.0 } else { -2.0 }
        });
        let g = NeighborGraph::new(12, (0..11).map(|j| (j, j + 1)));
        let h = NeighborGraph::new(6, (0..5).map(|i| (i, i + 1)));

        let base = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&rough_prior),
            location_graph: None,
            link_graph: None,
            empty_rss: None,
            distortion: None,
        };
        let with_graphs =
            ReconstructionProblem { location_graph: Some(&g), link_graph: Some(&h), ..base };
        let cfg_plain = LoliIrConfig { alpha: 0.0, beta: 0.0, rank: 6, ..Default::default() };
        let cfg_smooth = LoliIrConfig { alpha: 0.8, beta: 0.8, rank: 6, ..Default::default() };
        let plain = reconstruct(&base, &cfg_plain).unwrap();
        let smooth = reconstruct(&with_graphs, &cfg_smooth).unwrap();
        let err = |m: &Matrix| m.sub(&truth).unwrap().map(f64::abs).mean();
        assert!(
            err(&smooth.matrix) < err(&plain.matrix),
            "smoothness should help: {} vs {}",
            err(&smooth.matrix),
            err(&plain.matrix)
        );
    }

    #[test]
    fn empty_rss_offsets_align_links() {
        // Two links whose rows differ by a constant baseline offset: with
        // empty_rss supplied, the similarity term must NOT flatten that offset.
        let base_row: Vec<f64> = (0..8).map(|j| -(5.0 + (0.5 * j as f64).sin())).collect();
        let truth = Matrix::from_fn(2, 8, |i, j| base_row[j] - 40.0 - 10.0 * i as f64);
        let mask = Mask::from_columns(2, 8, &[0, 4]).unwrap();
        let h = NeighborGraph::new(2, [(0, 1)]);
        let empty = [-40.0, -50.0];
        let problem = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&truth),
            location_graph: None,
            link_graph: Some(&h),
            empty_rss: Some(&empty),
            distortion: None,
        };
        let cfg = LoliIrConfig { beta: 5.0, rank: 2, ..Default::default() };
        let rec = reconstruct(&problem, &cfg).unwrap();
        let err = rec.matrix.sub(&truth).unwrap().map(f64::abs).mean();
        assert!(err < 0.5, "offset-aware similarity should preserve truth, err {err}");
    }

    #[test]
    fn distortion_mask_restricts_edges() {
        let truth = ground_truth();
        let mask = column_mask(&truth, &[0, 6]);
        let g = NeighborGraph::new(12, (0..11).map(|j| (j, j + 1)));
        // No entry distorted -> graphs contribute nothing; objective equals the
        // no-graph objective at the same factors (compare traces' first entries).
        let none_distorted = Mask::falses(6, 12);
        let with = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&truth),
            location_graph: Some(&g),
            link_graph: None,
            empty_rss: None,
            distortion: Some(&none_distorted),
        };
        let without = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&truth),
            location_graph: None,
            link_graph: None,
            empty_rss: None,
            distortion: None,
        };
        let cfg = LoliIrConfig { alpha: 10.0, ..Default::default() };
        let a = reconstruct(&with, &cfg).unwrap();
        let b = reconstruct(&without, &cfg).unwrap();
        assert!((a.objective_trace[0] - b.objective_trace[0]).abs() < 1e-9);
    }

    #[test]
    fn validates_config_and_problem() {
        let truth = ground_truth();
        let mask = column_mask(&truth, &[0]);
        let p = ReconstructionProblem::completion_only(&truth, &mask);
        let bad = LoliIrConfig { rank: 0, ..Default::default() };
        assert!(reconstruct(&p, &bad).is_err());
        let bad = LoliIrConfig { lambda: 0.0, ..Default::default() };
        assert!(reconstruct(&p, &bad).is_err());
        let bad = LoliIrConfig { mu: -1.0, ..Default::default() };
        assert!(reconstruct(&p, &bad).is_err());
        let bad = LoliIrConfig { max_iters: 0, ..Default::default() };
        assert!(reconstruct(&p, &bad).is_err());

        let wrong_mask = Mask::trues(2, 2);
        let p = ReconstructionProblem::completion_only(&truth, &wrong_mask);
        assert!(reconstruct(&p, &LoliIrConfig::default()).is_err());
        let empty_mask = Mask::falses(6, 12);
        let p = ReconstructionProblem::completion_only(&truth, &empty_mask);
        assert!(reconstruct(&p, &LoliIrConfig::default()).is_err());
    }

    #[test]
    fn debug_bias_shifts_output_only() {
        let truth = ground_truth();
        let mask = column_mask(&truth, &[0, 4, 8]);
        let problem = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&truth),
            location_graph: None,
            link_graph: None,
            empty_rss: None,
            distortion: None,
        };
        let clean = reconstruct(&problem, &LoliIrConfig::default()).unwrap();
        let cfg = LoliIrConfig { debug_bias_db: 3.0, ..Default::default() };
        let biased = reconstruct(&problem, &cfg).unwrap();
        let shift = biased.matrix.sub(&clean.matrix).unwrap();
        assert!(shift.iter().all(|v| (v - 3.0).abs() < 1e-12), "bias must be exactly +3 dB");
        // The solve itself is untouched: traces agree bit for bit.
        assert_eq!(clean.objective_trace, biased.objective_trace);
        let bad = LoliIrConfig { debug_bias_db: f64::NAN, ..Default::default() };
        assert!(reconstruct(&problem, &bad).is_err());
    }

    #[test]
    fn rank_clamped_to_dimensions() {
        let truth = ground_truth(); // 6 x 12
        let mask = column_mask(&truth, &[0, 5, 11]);
        let problem = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&truth),
            location_graph: None,
            link_graph: None,
            empty_rss: None,
            distortion: None,
        };
        let cfg = LoliIrConfig { rank: 99, ..Default::default() };
        let rec = reconstruct(&problem, &cfg).unwrap();
        assert_eq!(rec.l.cols(), 6);
    }

    #[test]
    fn coloring_is_proper_and_deterministic() {
        // Chain 0-1-2-3-4 plus a chord 0-2: needs 3 colors at vertex 2.
        let edges = [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 4, 0), (0, 2, 0)];
        let mut c = Colouring::default();
        let mut order = Csr::default();
        sweep_order(&mut c, 5, &edges, &mut order);
        // Classes {0, 3}, {1, 4}, {2}: each vertex once, by class, each
        // class in index order.
        assert_eq!(c.colour, [0, 1, 2, 0, 1]);
        assert_eq!(order.items, [0, 3, 1, 4, 2]);
        assert_eq!(order.start, [0, 2, 4, 5]);
        // No edge inside a class.
        for &(u, v, _) in &edges {
            assert_ne!(c.colour[u], c.colour[v], "edge ({u},{v}) inside a class");
        }
        // Deterministic, also on reused scratch: a second run is identical.
        let mut again = Csr::default();
        sweep_order(&mut c, 5, &edges, &mut again);
        assert_eq!((&order.start, &order.items), (&again.start, &again.items));
        // Edge-free graph collapses to a single class in index order.
        sweep_order(&mut c, 4, &[], &mut order);
        assert_eq!(order.items, [0, 1, 2, 3]);
        assert_eq!(order.start, [0, 4]);
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        let truth = ground_truth();
        let mask = column_mask(&truth, &[1, 5, 9]);
        let noisy_prior = truth.map(|v| v + 0.8 * (v * 17.0).sin());
        let g = NeighborGraph::new(12, (0..11).map(|j| (j, j + 1)));
        let h = NeighborGraph::new(6, (0..5).map(|i| (i, i + 1)));
        let problem = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&noisy_prior),
            location_graph: Some(&g),
            link_graph: Some(&h),
            empty_rss: None,
            distortion: None,
        };
        let cfg = LoliIrConfig { max_iters: 10, tol: 0.0, ..Default::default() };
        let fresh = reconstruct(&problem, &cfg).unwrap();
        let mut ws = SolverWorkspace::new();
        // Warm the workspace on a different problem shape first, then solve the
        // real one twice: a dirty, resized workspace must not leak state.
        let small_mask = Mask::trues(3, 4);
        let small = Matrix::from_fn(3, 4, |i, j| -(40.0 + i as f64 + j as f64));
        let small_problem = ReconstructionProblem::completion_only(&small, &small_mask);
        reconstruct_with(&small_problem, &LoliIrConfig { rank: 2, ..cfg }, &mut ws).unwrap();
        for _ in 0..2 {
            let reused = reconstruct_with(&problem, &cfg, &mut ws).unwrap();
            assert_eq!(fresh.matrix.as_slice(), reused.matrix.as_slice());
            assert_eq!(fresh.l.as_slice(), reused.l.as_slice());
            assert_eq!(fresh.r.as_slice(), reused.r.as_slice());
            assert_eq!(fresh.objective_trace, reused.objective_trace);
        }
    }

    #[test]
    fn diagnostics_rank_observed_columns_above_unobserved() {
        let truth = ground_truth();
        let observed_cols = [0usize, 3, 7, 11];
        let mask = column_mask(&truth, &observed_cols);
        let problem = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&truth),
            location_graph: None,
            link_graph: None,
            empty_rss: None,
            distortion: None,
        };
        let rec = reconstruct(&problem, &LoliIrConfig::default()).unwrap();
        let d = &rec.diagnostics;
        assert_eq!(d.cell_confidence.len(), 12);
        assert_eq!(d.cell_rms_residual_db.len(), 12);
        assert_eq!(d.cell_leverage.len(), 12);
        assert_eq!(d.cell_observed.len(), 12);
        assert_eq!(d.link_rms_residual_db.len(), 6);
        assert!(d.rms_residual_db.is_finite());
        for j in 0..12 {
            assert!((0.0..=1.0).contains(&d.cell_confidence[j]), "{}", d.cell_confidence[j]);
            assert!((0.0..=1.0).contains(&d.cell_leverage[j]));
            assert_eq!(d.cell_observed[j], if observed_cols.contains(&j) { 6 } else { 0 });
        }
        // Every observed column must outrank every unobserved one: the
        // coverage term alone separates 6/6 from 0/6 observed entries.
        let min_observed =
            observed_cols.iter().map(|&j| d.cell_confidence[j]).fold(f64::INFINITY, f64::min);
        let max_unobserved = (0..12)
            .filter(|j| !observed_cols.contains(j))
            .map(|j| d.cell_confidence[j])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            min_observed > max_unobserved,
            "observed {min_observed} must beat unobserved {max_unobserved}"
        );
        // Deterministic: a second identical solve reproduces them bit for bit.
        let again = reconstruct(&problem, &LoliIrConfig::default()).unwrap();
        assert_eq!(*d, again.diagnostics);
    }

    #[test]
    fn diagnostics_unaffected_by_debug_bias() {
        let truth = ground_truth();
        let mask = column_mask(&truth, &[0, 4, 8]);
        let problem = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&truth),
            location_graph: None,
            link_graph: None,
            empty_rss: None,
            distortion: None,
        };
        let clean = reconstruct(&problem, &LoliIrConfig::default()).unwrap();
        let cfg = LoliIrConfig { debug_bias_db: 3.0, ..Default::default() };
        let biased = reconstruct(&problem, &cfg).unwrap();
        assert_eq!(clean.diagnostics, biased.diagnostics);
    }

    #[test]
    fn fill_from_observed_uses_row_means() {
        let obs = Matrix::from_rows(&[&[2.0, 0.0, 4.0], &[0.0, 0.0, 0.0]]).unwrap();
        let mut mask = Mask::falses(2, 3);
        mask.set(0, 0, true);
        mask.set(0, 2, true);
        let filled = fill_from_observed(&obs, &mask);
        assert_eq!(filled[(0, 1)], 3.0); // row mean of {2, 4}
        assert_eq!(filled[(1, 0)], 3.0); // global mean fallback
        assert_eq!(filled[(0, 0)], 2.0);
    }

    fn smoothed_problem_parts() -> (Matrix, Mask, Matrix, NeighborGraph, NeighborGraph) {
        let truth = ground_truth();
        let mask = column_mask(&truth, &[1, 5, 9]);
        let noisy_prior = truth.map(|v| v + 0.8 * (v * 17.0).sin());
        let g = NeighborGraph::new(12, (0..11).map(|j| (j, j + 1)));
        let h = NeighborGraph::new(6, (0..5).map(|i| (i, i + 1)));
        (truth, mask, noisy_prior, g, h)
    }

    #[test]
    fn stall_iters_demands_sustained_tolerance() {
        let (truth, mask, prior, g, h) = smoothed_problem_parts();
        let problem = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&prior),
            location_graph: Some(&g),
            link_graph: Some(&h),
            empty_rss: None,
            distortion: None,
        };
        let quick = LoliIrConfig { max_iters: 200, tol: 1e-6, ..Default::default() };
        let patient = LoliIrConfig { stall_iters: 4, ..quick };
        let one = reconstruct(&problem, &quick).unwrap();
        let four = reconstruct(&problem, &patient).unwrap();
        assert!(one.converged && four.converged);
        // The counter resets on any non-small decrement, so holding the
        // tolerance for four consecutive iterations costs at least three more.
        assert!(
            four.iterations >= one.iterations + 3,
            "stall_iters=4 stopped after {} iterations, stall_iters=1 after {}",
            four.iterations,
            one.iterations
        );
        // The tail of the longer trace keeps honoring the tolerance.
        for w in four.objective_trace[one.iterations..].windows(2) {
            assert!((w[0] - w[1]).abs() <= quick.tol * w[0].abs().max(1.0) + 1e-9);
        }
    }

    #[test]
    fn stall_iters_zero_is_rejected() {
        let cfg = LoliIrConfig { stall_iters: 0, ..Default::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn accelerate_preserves_monotonicity_and_fixed_point() {
        let (truth, mask, prior, g, h) = smoothed_problem_parts();
        let problem = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&prior),
            location_graph: Some(&g),
            link_graph: Some(&h),
            empty_rss: None,
            distortion: None,
        };
        let plain_cfg = LoliIrConfig { max_iters: 600, tol: 1e-7, ..Default::default() };
        let accel_cfg = LoliIrConfig { accelerate: true, ..plain_cfg };
        let plain = reconstruct(&problem, &plain_cfg).unwrap();
        let accel = reconstruct(&problem, &accel_cfg).unwrap();
        assert!(plain.converged && accel.converged);
        // The safeguard only ever accepts an extrapolation that lowers the
        // objective, so the trace stays monotone exactly like the plain run.
        for w in accel.objective_trace.windows(2) {
            assert!(
                w[1] <= w[0] * (1.0 + 1e-10) + 1e-9,
                "accelerated objective increased: {} -> {}",
                w[0],
                w[1]
            );
        }
        assert!(
            accel.iterations <= plain.iterations,
            "acceleration took {} iterations vs {} plain",
            accel.iterations,
            plain.iterations
        );
        let err = accel.matrix.sub(&plain.matrix).unwrap().map(f64::abs).mean();
        assert!(err < 1e-2, "accelerated fixed point drifted {err} dB from the plain one");
    }
}
