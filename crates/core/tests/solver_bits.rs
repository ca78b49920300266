//! Bit pins for LoLi-IR: every output bit of a fixed set of seeded solves.
//!
//! Each case hashes every bit a [`Reconstruction`] publishes (the matrix,
//! both factors, the objective trace, every diagnostics vector, the
//! iteration count and the `converged` and `warm_start` flags) and compares
//! the hash with a constant recorded from an earlier build of the solver. A
//! change that moves work around without touching the arithmetic (hoisting a
//! product out of a loop, packing a matrix, solving in place) leaves every
//! hash where it was; a change that reorders one floating-point operation
//! moves some of them.
//!
//! The cases cover ranks 1, 3, 8 and 10, the prior and the graphs on and
//! off, no distortion mask (every edge fully active) and a mask under which
//! most edges are partial and share a few active sets, baseline offsets on
//! and off, acceleration on and off, and cold and warm starts, including a
//! warm seed that loses to the SVD seed. Most cases solve 12 links x 40
//! cells; the wide ones solve 70 links x 72 cells, so the solver's sets of
//! active links and of active cells each span more than one 64-bit word.

use taf_linalg::Matrix;
use tafloc_core::loli_ir::{
    reconstruct_warm, LoliIrConfig, Reconstruction, ReconstructionProblem, SolverWorkspace,
    WarmState,
};
use tafloc_core::mask::Mask;
use tafloc_core::operators::NeighborGraph;

/// Problem shape: `m` links (rows) and a `grid_rows x grid_cols` floor of
/// cells (columns).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Shape {
    m: usize,
    grid_rows: usize,
    grid_cols: usize,
}

impl Shape {
    fn n(&self) -> usize {
        self.grid_rows * self.grid_cols
    }
}

/// 12 links x 40 cells: every set of links or cells fits one 64-bit word.
const NARROW: Shape = Shape { m: 12, grid_rows: 5, grid_cols: 8 };
/// 70 links x 72 cells: both kinds of set need two words.
const WIDE: Shape = Shape { m: 70, grid_rows: 9, grid_cols: 8 };

/// 64-bit FNV-1a over little-endian words: stable across toolchains, unlike
/// the standard library's hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Length first, so adjacent fields cannot trade entries.
    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

fn hash(rec: &Reconstruction) -> u64 {
    let mut h = Fnv::new();
    h.floats(rec.matrix.as_slice());
    h.floats(rec.l.as_slice());
    h.floats(rec.r.as_slice());
    h.floats(&rec.objective_trace);
    let d = &rec.diagnostics;
    h.floats(&d.cell_rms_residual_db);
    h.floats(&d.cell_leverage);
    h.word(d.cell_observed.len() as u64);
    for &c in &d.cell_observed {
        h.word(c as u64);
    }
    h.floats(&d.cell_confidence);
    h.floats(&d.link_rms_residual_db);
    h.word(d.rms_residual_db.to_bits());
    h.word(rec.iterations as u64);
    h.word(u64::from(rec.converged));
    h.word(u64::from(rec.warm_start));
    h.0
}

/// Deterministic pseudo-random values in `[0, 1)` (xorshift).
struct Noise(u64);

impl Noise {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % 10_000) as f64 / 10_000.0
    }
}

/// Smooth RSS-like field with a per-link baseline, plus `noise_db` of rough
/// noise; `drift_db` adds a smooth day-to-day drift on top.
fn field(shape: Shape, seed: u64, noise_db: f64, drift_db: f64) -> Matrix {
    let mut noise = Noise(seed | 1);
    Matrix::from_fn(shape.m, shape.n(), |i, j| {
        let (gy, gx) = ((j / shape.grid_cols) as f64, (j % shape.grid_cols) as f64);
        let li = i as f64;
        -45.0
            - 1.5 * (i % 4) as f64
            - 4.0 * (0.5 * gx + 0.3 * li).sin()
            - 3.0 * (0.7 * gy - 0.4 * li).cos()
            - 2.0 * (0.2 * gx * gy + 0.9 * li).sin()
            + drift_db * (0.3 * gx + 0.2 * gy + 0.1 * li).sin()
            + noise_db * (noise.next() - 0.5)
    })
}

/// Reference columns (every fourth cell) plus a scattered set of entries.
fn observation_mask(shape: Shape) -> Mask {
    let (m, n) = (shape.m, shape.n());
    let refs: Vec<usize> = (0..n).step_by(4).collect();
    let mut mask = Mask::from_columns(m, n, &refs).unwrap();
    for k in 0..m * n {
        if k % 11 == 3 {
            mask.set(k / n, k % n, true);
        }
    }
    mask
}

/// Distortion support under which most location and link edges are
/// partial: below the first grid row, link `i < M − 2` is undistorted at
/// cell `j` when `(i + 3·(j mod 5)) mod 4 == 0`. The active set of a
/// location edge then depends only on its endpoints' `j mod 5`, so the
/// partial edges share a few distinct sets. Edges inside the first grid row
/// and the link edge `(M − 2, M − 1)` stay fully active.
fn partial_distortion(shape: Shape) -> Mask {
    let mut d = Mask::trues(shape.m, shape.n());
    for i in 0..shape.m - 2 {
        for j in shape.grid_cols..shape.n() {
            if (i + 3 * (j % 5)) % 4 == 0 {
                d.set(i, j, false);
            }
        }
    }
    d
}

fn location_graph(shape: Shape) -> NeighborGraph {
    let (rows, cols) = (shape.grid_rows, shape.grid_cols);
    let mut edges = Vec::new();
    for y in 0..rows {
        for x in 0..cols {
            let j = y * cols + x;
            if x + 1 < cols {
                edges.push((j, j + 1));
            }
            if y + 1 < rows {
                edges.push((j, j + cols));
            }
        }
    }
    NeighborGraph::new(shape.n(), edges)
}

/// A chain of links plus two chords.
fn link_graph(shape: Shape) -> NeighborGraph {
    let m = shape.m;
    NeighborGraph::new(m, (0..m - 1).map(|i| (i, i + 1)).chain([(0, 5), (3, 9)]))
}

fn empty_rss(shape: Shape) -> Vec<f64> {
    (0..shape.m).map(|i| -40.0 - (i % 4) as f64 * 1.5).collect()
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Start {
    Cold,
    /// Seeded from the solve of the previous day's problem; must win.
    WarmWins,
    /// Seeded from that solve with `L` negated; must lose to the SVD seed.
    WarmLoses,
}

#[derive(Debug, Clone, Copy)]
struct Case {
    shape: Shape,
    rank: usize,
    prior: bool,
    graphs: bool,
    /// Mostly partial edges (`partial_distortion`) instead of no mask.
    partial: bool,
    offsets: bool,
    accelerate: bool,
    start: Start,
}

/// Solves the case's problem on the day given by `drift_db`.
fn solve(
    case: &Case,
    drift_db: f64,
    warm: Option<&WarmState>,
    ws: &mut SolverWorkspace,
) -> Reconstruction {
    let shape = case.shape;
    let observed = field(shape, 11, 0.4, drift_db);
    let prior = field(shape, 23, 2.5, drift_db);
    let mask = observation_mask(shape);
    let distortion = partial_distortion(shape);
    let g = location_graph(shape);
    let h = link_graph(shape);
    let empty = empty_rss(shape);
    let problem = ReconstructionProblem {
        observed: &observed,
        mask: &mask,
        lrr_prior: case.prior.then_some(&prior),
        location_graph: case.graphs.then_some(&g),
        link_graph: case.graphs.then_some(&h),
        empty_rss: case.offsets.then_some(empty.as_slice()),
        distortion: case.partial.then_some(&distortion),
    };
    let cfg = LoliIrConfig {
        rank: case.rank,
        alpha: 0.2,
        beta: 0.1,
        max_iters: 30,
        tol: 1e-6,
        accelerate: case.accelerate,
        ..Default::default()
    };
    reconstruct_warm(&problem, &cfg, ws, warm).unwrap()
}

fn run(case: &Case, ws: &mut SolverWorkspace) -> Reconstruction {
    if case.start == Start::Cold {
        return solve(case, 0.0, None, ws);
    }
    let yesterday = solve(case, -0.6, None, ws);
    let seed = match case.start {
        Start::WarmLoses => WarmState::from_parts(yesterday.l.map(|v| -v), yesterday.r).unwrap(),
        _ => WarmState::from_reconstruction(&yesterday),
    };
    let rec = solve(case, 0.0, Some(&seed), ws);
    assert_eq!(rec.warm_start, case.start == Start::WarmWins, "{case:?}: wrong seed won");
    rec
}

const fn case(
    rank: usize,
    prior: bool,
    graphs: bool,
    partial: bool,
    offsets: bool,
    accelerate: bool,
    start: Start,
) -> Case {
    Case { shape: NARROW, rank, prior, graphs, partial, offsets, accelerate, start }
}

/// A [`WIDE`] case with the graphs on and the partial mask.
const fn wide(rank: usize, prior: bool, offsets: bool, accelerate: bool, start: Start) -> Case {
    Case { shape: WIDE, rank, prior, graphs: true, partial: true, offsets, accelerate, start }
}

use Start::{Cold, WarmLoses, WarmWins};

/// `(case(rank, prior, graphs, partial, offsets, accelerate, start), hash)`.
const CASES: [(Case, u64); 21] = [
    (case(8, true, true, true, true, false, Cold), 0xbfea_6f52_6a45_69ee),
    (case(8, true, true, true, true, false, WarmWins), 0x7e68_4d9e_7ac2_c3f4),
    (case(8, true, true, true, true, false, WarmLoses), 0xbfea_6f52_6a45_69ee),
    (case(8, true, true, false, false, false, Cold), 0x1f15_6198_cce4_b7c7),
    (case(8, true, true, false, true, false, Cold), 0x0c26_7bb2_c5a4_774e),
    (case(8, true, true, true, false, false, Cold), 0x3417_44b9_dd80_bb3b),
    (case(8, true, true, true, true, true, Cold), 0xb9c1_f8b0_5fd5_6f39),
    (case(8, true, true, false, false, true, WarmWins), 0x3744_9c63_ddfd_b7c2),
    (case(8, true, false, false, false, false, Cold), 0xa101_b4dd_4cdb_c7a5),
    (case(8, false, true, true, true, false, Cold), 0x289a_ae6e_dca7_5b65),
    (case(8, false, false, false, false, false, Cold), 0x9122_be70_08f3_d6cb),
    (case(1, true, true, true, true, false, Cold), 0xce41_22bc_9336_2a25),
    (case(1, false, true, false, false, false, Cold), 0xb3e2_d3fc_a4a8_a3d1),
    (case(3, true, true, true, true, false, Cold), 0x46ca_720a_ed38_9e41),
    (case(3, true, true, false, true, true, WarmWins), 0xc786_9bbb_67ae_ec50),
    (case(3, false, false, false, false, true, Cold), 0x93a4_795b_64a5_49a0),
    (case(10, true, true, true, true, false, Cold), 0xf519_f96c_f8e9_dfa2),
    (case(10, true, true, false, false, false, Cold), 0x9e22_2ea9_ddc1_c6c2),
    (case(10, true, true, true, true, false, WarmWins), 0x1c49_1034_83c8_cdd4),
    (case(10, false, true, true, true, true, WarmLoses), 0x835a_9258_bebe_631e),
    (case(10, true, false, false, false, false, WarmLoses), 0xb173_5a33_02f6_d3b8),
];

/// `(wide(rank, prior, offsets, accelerate, start), hash)`: partial masks
/// over more than 64 links and more than 64 cells, pinned like [`CASES`].
const WIDE_CASES: [(Case, u64); 4] = [
    (wide(8, true, true, false, Cold), 0xc3c8_55f4_be9d_563d),
    (wide(3, true, true, false, Cold), 0xf61b_bd83_a451_a9d5),
    (wide(10, false, true, true, Cold), 0x77d2_ebf0_87ba_2692),
    (wide(8, true, false, false, WarmLoses), 0x371d_9da6_ba81_b6fe),
];

/// Each case runs twice: in a fresh workspace, and in one workspace shared
/// by every case, left sized and filled by the cases before it (some at
/// other ranks and shapes).
#[test]
fn every_output_bit_matches_its_pinned_hash() {
    let mut failures = Vec::new();
    let mut shared = SolverWorkspace::new();
    for (c, want) in CASES.iter().chain(&WIDE_CASES) {
        let fresh = hash(&run(c, &mut SolverWorkspace::new()));
        let reused = hash(&run(c, &mut shared));
        if fresh != *want || reused != *want {
            failures.push(format!(
                "{c:?}: want {want:#018x}, got {fresh:#018x} fresh, {reused:#018x} reused"
            ));
        }
    }
    let total = CASES.len() + WIDE_CASES.len();
    assert!(failures.is_empty(), "{} of {total} cases moved:\n{}", failures.len(), {
        failures.join("\n")
    });
}

/// The partial mask does what the cases rely on: most location edges are
/// partial, they share far fewer distinct active sets than there are
/// edges, and some location and link edges stay fully active.
#[test]
fn partial_mask_shares_active_sets() {
    for shape in [NARROW, WIDE] {
        let (m, n) = (shape.m, shape.n());
        let d = partial_distortion(shape);
        let g = location_graph(shape);
        let mut sets: Vec<Vec<usize>> = Vec::new();
        let (mut full, mut partial) = (0, 0);
        for v in 0..n {
            for &u in g.neighbors(v).iter().filter(|&&u| u > v) {
                let links: Vec<usize> = (0..m).filter(|&i| d.get(i, v) && d.get(i, u)).collect();
                if links.len() == m {
                    full += 1;
                } else {
                    partial += 1;
                    if !sets.contains(&links) {
                        sets.push(links);
                    }
                }
            }
        }
        assert!(full > 0 && partial > 4 * full, "{shape:?}: {full} full, {partial} partial");
        assert!(sets.len() * 3 < partial, "{shape:?}: {} sets for {partial} edges", sets.len());
        let full_link = (0..n).all(|j| d.get(m - 2, j) && d.get(m - 1, j));
        assert!(full_link, "{shape:?}: link edge (m-2, m-1) must be fully active");
    }
}
