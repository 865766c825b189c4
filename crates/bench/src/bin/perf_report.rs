//! Perf report: the repo's one bench harness. Writes the machine-readable
//! `BENCH_walk.json` (`cdb-perf-report/v3`), so every PR leaves a perf
//! trajectory behind (`./ci.sh --bench` runs it; `./ci.sh --bench-quick`
//! runs the same harness with a tiny time budget as a smoke test). Two row
//! families:
//!
//! * **Walk rows** — hit-and-run steps/sec and samples/sec on the e1
//!   polytope, e2 ball and e7 projection workloads plus the structured
//!   constraint-matrix workloads (axis-aligned box stack, banded sparse
//!   intersection — each with a forced-dense twin on the *same* body, so the
//!   kernel speedup is isolated from everything else). The e1/e2 rows drive
//!   only the long-stable public sampler API, so pre/post comparisons
//!   against the recorded `BENCH_walk.json` of earlier revisions stay
//!   apples-to-apples; the e7 rows are cold/warm weight-cache twins via
//!   `ProjectionParams` (the warm twin keeps the historical row name) and
//!   the `e_shared_subrelations` rows are warm/cold twins of the
//!   prepared-relation store on an end-to-end `SpatialDatabase` query loop.
//! * **Claim rows** — one row per measured claim of the paper, E1–E12
//!   (DFK observability, the Section 3 decomposition, Algorithms 1–2,
//!   Lemma 4.1, Proposition 4.3, Theorem 4.4, the §4.1.3 SAT refusal and
//!   §5 polynomial bodies). Each row's `quality` (relative volume error or
//!   symmetric difference in % of the exact answer, an acceptance rate, or
//!   a uniformity χ²) is computed from a fixed seed before any timing, so
//!   it is identical on every run; `ops_per_sec` times the op that the
//!   quality describes. Exact baselines (Fourier–Motzkin, symbolic
//!   evaluation) are timed and carry no quality. Two `degenerate_*` rows
//!   time the rounding path the same way: a cold volume query on a
//!   high-aspect body, with its error against the closed form.
//!
//! `bench_diff` gates `samples_per_sec` and `ops_per_sec`; qualities are
//! recorded, never gated.
//!
//! Environment knobs: `CDB_BENCH_OUT` overrides the output path and
//! `CDB_BENCH_QUICK=1` shrinks the warm-up/measurement windows to a few
//! milliseconds (times are then meaningless — it only proves every row
//! runs — so quick output defaults to `target/BENCH_walk_quick.json`, never
//! the recorded `BENCH_walk.json`). Qualities do not depend on the windows.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cdb_constraint::{
    parse_formula, qe, Atom, CompOp, GeneralizedRelation, GeneralizedTuple, LinTerm,
};
use cdb_core::{QuerySpec, SpatialDatabase};
use cdb_geometry::ball::unit_ball_volume;
use cdb_geometry::volume::{polytope_volume, symmetric_difference_volume, union_volume};
use cdb_geometry::{Ellipsoid, HPolytope};
use cdb_linalg::Vector;
use cdb_reconstruct::{ConvexReconstructor, ProjectionQueryEstimator};
use cdb_sampler::diagnostics::uniformity_chi_square;
use cdb_sampler::{
    CellSelection, ConvexBody, DfkSampler, DifferenceGenerator, FixedDimSampler, GeneratorParams,
    IntersectionGenerator, ProjectionGenerator, ProjectionParams, RejectionSampler,
    RelationGenerator, RelationVolumeEstimator, SeedSequence, UnionGenerator,
};
use cdb_workloads::projection::deep_cone;
use cdb_workloads::{degenerate, gis, polytopes, sat, structured};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// One measured row of `BENCH_walk.json`.
struct Row {
    workload: String,
    dim: usize,
    metrics: Metrics,
}

/// The measured columns of a row.
enum Metrics {
    /// Walk throughput. `kernel` is the constraint-matrix kernel the walk
    /// dispatches to (`"oracle"`/`"mixed"` for non-polytope bodies);
    /// `steps_per_sec` is `None` for a row whose samples run no walk.
    Walk {
        kernel: &'static str,
        steps_per_sec: Option<f64>,
        samples_per_sec: f64,
    },
    /// A paper claim: the timed op's rate and the claim's quality (`None`
    /// for an exact baseline).
    Claim {
        ops_per_sec: f64,
        quality: Option<Quality>,
    },
}

/// A claim's quality value and its kind: `rel_err_pct` or `sd_pct` (relative
/// volume error or symmetric-difference volume, in % of the exact volume),
/// `acceptance` (fraction of accepted trials) or `chi2` (uniformity χ² over
/// 8 bins, about 22 at the loose red line).
#[derive(Clone, Copy)]
struct Quality {
    kind: &'static str,
    value: f64,
}

fn quality(kind: &'static str, value: f64) -> Option<Quality> {
    Some(Quality { kind, value })
}

fn rel_err_pct(estimate: f64, exact: f64) -> Option<Quality> {
    quality("rel_err_pct", 100.0 * (estimate - exact).abs() / exact)
}

fn sd_pct(sd: f64, exact: f64) -> Option<Quality> {
    quality("sd_pct", 100.0 * sd / exact)
}

/// Median of `repeats` DFK volume estimates funded by a seed sequence rooted
/// at one draw of `r` (the seeding the recorded claim qualities use).
fn dfk_median(sampler: &mut DfkSampler, repeats: usize, r: &mut StdRng) -> f64 {
    sampler
        .estimate_volume_median(repeats, &SeedSequence::new(r.next_u64()), 0)
        .expect("DFK estimates never fail")
}

/// The report under measurement: the sampler parameters and time windows
/// every row shares, and the rows so far.
struct Report {
    params: GeneratorParams,
    warmup: Duration,
    window: Duration,
    rows: Vec<Row>,
}

impl Report {
    /// Runs `tick` (one op) repeatedly: a short warm-up, then a timed
    /// window. Each phase runs `tick` at least once, so the rate is positive
    /// however slow one op is. Returns ops/sec.
    fn measure(&self, mut tick: impl FnMut()) -> f64 {
        let start = Instant::now();
        while start.elapsed() < self.warmup {
            tick();
        }
        let start = Instant::now();
        let mut n = 0u64;
        while start.elapsed() < self.window {
            tick();
            n += 1;
        }
        n as f64 / start.elapsed().as_secs_f64()
    }

    fn walk(
        &mut self,
        workload: &str,
        dim: usize,
        kernel: &'static str,
        steps: Option<f64>,
        sps: f64,
    ) {
        self.rows.push(Row {
            workload: workload.into(),
            dim,
            metrics: Metrics::Walk {
                kernel,
                steps_per_sec: steps,
                samples_per_sec: sps,
            },
        });
    }

    /// Measures one polytope-backed hit-and-run row through the public
    /// sampler API; `kernel` is taken from the polytope's detected (or
    /// forced) matrix.
    fn polytope(&mut self, workload: &str, p: &HPolytope, seed: u64) {
        let d = p.dim();
        let body = ConvexBody::from_polytope(p).expect("workload polytope is well-bounded");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sampler = DfkSampler::new(body, self.params, &mut rng);
        let sps = self.measure(|| {
            std::hint::black_box(sampler.sample(&mut rng));
        });
        let steps = sps * self.params.walk_steps(d) as f64;
        self.walk(workload, d, p.matrix().kind(), Some(steps), sps);
    }

    /// Times `op` into a claim row beside `quality`, which the caller
    /// computed before any timing.
    fn claim<O>(
        &mut self,
        workload: impl Into<String>,
        dim: usize,
        quality: Option<Quality>,
        mut op: impl FnMut() -> O,
    ) {
        let ops_per_sec = self.measure(|| {
            std::hint::black_box(op());
        });
        self.rows.push(Row {
            workload: workload.into(),
            dim,
            metrics: Metrics::Claim {
                ops_per_sec,
                quality,
            },
        });
    }
}

/// The walk-throughput rows.
fn walk_rows(report: &mut Report) {
    let params = report.params;
    // e1: hit-and-run chains on a 6-dimensional hypercube (12 constraints).
    report.polytope(
        "e1_polytope_hit_and_run",
        &HPolytope::hypercube(6, 1.0),
        1001,
    );

    // e2: hit-and-run chains on a 6-dimensional ball behind a loose
    // certificate (the oracle-backed body of experiment E2).
    {
        let d = 6;
        let ball = Ellipsoid::ball(Vector::zeros(d), 1.0).expect("unit ball");
        let body = ConvexBody::from_oracle(Arc::new(ball), Vector::zeros(d), 0.8, 1.25);
        let mut rng = StdRng::seed_from_u64(1002);
        let mut sampler = DfkSampler::new(body, params, &mut rng);
        let sps = report.measure(|| {
            std::hint::black_box(sampler.sample(&mut rng));
        });
        let steps = sps * params.walk_steps(d) as f64;
        report.walk("e2_ball_hit_and_run", d, "oracle", Some(steps), sps);
    }

    // e7: the cylinder-compensated projection generator on the 3-dimensional
    // cone, measured three ways on the same body and seed: the rejection
    // loop with a warm weight cache (the historical
    // `e7_projection_compensated` name, kept so the cross-PR perf trajectory
    // and `bench_diff` stay comparable), the rejection loop with the cache
    // disabled (every attempt pays the full fiber-volume fill), and the
    // stratified cell selector (alias-table draw, no chains discarded). The
    // rejection rows pin `CellSelection::Rejection` explicitly — the default
    // now resolves to stratified selection, which would silently stop
    // measuring the loop these rows have always tracked.
    {
        let d = 3;
        let shape = deep_cone(d);
        let proj_params = GeneratorParams {
            gamma: 0.1,
            ..params
        };
        let warm = cdb_sampler::DEFAULT_WEIGHT_CACHE_CAPACITY;
        for (workload, cache_capacity, selection) in [
            ("e7_projection_compensated", warm, CellSelection::Rejection),
            (
                "e7_projection_compensated_cold",
                0,
                CellSelection::Rejection,
            ),
            ("e7_projection_stratified", warm, CellSelection::Stratified),
        ] {
            let projection = ProjectionParams::new(proj_params)
                .with_cache_capacity(cache_capacity)
                .with_cell_selection(selection);
            let mut rng = StdRng::seed_from_u64(1003);
            let mut generator = ProjectionGenerator::new_with(&shape, &[0], projection, &mut rng)
                .expect("cone is observable");
            // Pre-warm until at least one sample is accepted: a quick-mode
            // window of a few milliseconds can easily close with zero
            // acceptances from the rejection loop, and an acceptance rate
            // measured as 0 used to turn the steps/sec column into ~1e15
            // garbage through the `max(1e-12)` guard below.
            let accepted = (0..1_000_000).any(|_| generator.sample(&mut rng).is_some());
            assert!(accepted, "{workload}: generator never accepted a sample");
            let sps = report.measure(|| {
                std::hint::black_box(generator.sample(&mut rng));
            });
            // One emitted rejection sample costs 1/acceptance chains of
            // walk_steps each. A stratified sample is one alias-table draw
            // plus a jitter inside the cell: it runs no walk, so its row
            // records no step rate.
            let steps = (selection == CellSelection::Rejection).then(|| {
                let acceptance = generator.acceptance_rate().max(1e-12);
                sps * proj_params.walk_steps(d) as f64 / acceptance
            });
            report.walk(workload, d, "mixed", steps, sps);
        }
    }

    // e_shared: end-to-end one-point `SpatialDatabase::query_with_rng`
    // latency while cycling six relation names that map two-to-one onto
    // three shared contents — the prepared-relation store workload. The warm
    // row uses the default store (after the first pass every query
    // re-attaches a cached prepared body); the cold row disables the store
    // (capacity 0), so every query pays full canonicalization + rounding +
    // preparation. The ratio between the two rows is the store's headline
    // speedup.
    {
        let d = 2;
        let contents = [
            GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[1.0, 1.0]),
            GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[2.0, 0.5]),
            GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[0.5, 2.0])
                .union(&GeneralizedRelation::from_box_f64(&[2.0, 0.0], &[3.0, 1.0])),
        ];
        for (workload, capacity) in [
            (
                "e_shared_subrelations",
                cdb_sampler::DEFAULT_PREPARED_STORE_CAPACITY,
            ),
            ("e_shared_subrelations_cold", 0usize),
        ] {
            let mut db = SpatialDatabase::with_params(params).with_store_capacity(capacity);
            let names: Vec<String> = (0..6).map(|i| format!("Q{i}")).collect();
            for (i, name) in names.iter().enumerate() {
                db.insert(name.clone(), contents[i % contents.len()].clone());
            }
            let mut rng = StdRng::seed_from_u64(3001);
            let mut i = 0usize;
            let sps = report.measure(|| {
                let name = &names[i % names.len()];
                i += 1;
                let spec = QuerySpec::sample(name, 1);
                std::hint::black_box(db.query_with_rng(&spec, &mut rng).unwrap());
            });
            let steps = sps * params.walk_steps(d) as f64;
            report.walk(workload, d, "axis", Some(steps), sps);
        }
    }

    // s1: a 32-dimensional axis-aligned box stack (256 one-nonzero rows) —
    // the detected axis kernel vs the dense kernel forced on the same body.
    // The point streams are bitwise identical; only the per-step cost moves.
    let mut gen_rng = StdRng::seed_from_u64(2001);
    let (stack, _volume) = structured::box_stack(32, 4, 0.5, &mut gen_rng);
    assert_eq!(stack.matrix().kind(), "axis", "box stack must detect axis");
    report.polytope("s1_box_stack_axis", &stack, 2101);
    report.polytope("s1_box_stack_forced_dense", &stack.force_dense(), 2101);

    // s2: a 32-dimensional banded overlay intersection (126 rows, ≤ 2
    // nonzeros each) — the detected CSR kernel vs the dense kernel on the
    // same body.
    let mut gen_rng = StdRng::seed_from_u64(2002);
    let band = structured::banded_overlay(32, 0.5, &mut gen_rng);
    assert_eq!(band.matrix().kind(), "sparse", "overlay must detect sparse");
    report.polytope("s2_banded_overlay_sparse", &band, 2102);
    report.polytope("s2_banded_overlay_forced_dense", &band.force_dense(), 2102);

    // s3: a SAT-style sparse cut system (64 box rows + 48 three-literal
    // cuts) through the CSR kernel — the Section 4.1.3 relaxation shape.
    let mut gen_rng = StdRng::seed_from_u64(2003);
    let sat = structured::sat_sparse_system(32, 48, 3, 0.1, &mut gen_rng);
    assert_eq!(sat.matrix().kind(), "sparse", "SAT system must be sparse");
    report.polytope("s3_sat_sparse_cuts", &sat, 2103);
}

/// E1 — convex well-bounded relations are observable (DFK theorem, §2):
/// volume-estimator accuracy across body families and dimensions.
/// E2 — bounding-box rejection vs the DFK estimator on the unit ball: the
/// rejection acceptance rate collapses exponentially with the dimension.
fn e1_e2_convex(report: &mut Report) {
    let params = report.params;
    for d in [2usize, 4, 6] {
        let hypercube = (
            polytopes::hypercube(d, 1.0),
            polytopes::hypercube_volume(d, 1.0),
        );
        let simplex = (polytopes::standard_simplex(d), polytopes::simplex_volume(d));
        for (name, (tuple, exact)) in [("hypercube", hypercube), ("simplex", simplex)] {
            let mut r = StdRng::seed_from_u64(100 + d as u64);
            let body = ConvexBody::from_tuple(&tuple).expect("workload bodies are well-bounded");
            let mut sampler = DfkSampler::new(body, params, &mut r);
            let estimate = dfk_median(&mut sampler, 3, &mut r);
            let quality = rel_err_pct(estimate, exact);
            report.claim(format!("e1_{name}_d{d}_volume"), d, quality, || {
                sampler.estimate_volume(&mut r)
            });
        }
    }
    for d in [2usize, 6, 10] {
        let mut r = StdRng::seed_from_u64(200 + d as u64);
        let ball = Ellipsoid::ball(Vector::zeros(d), 1.0).expect("unit ball");
        // A loose certificate (r_inf < r_sup): the tight one pins the body to
        // the certificate ball, and `estimate_volume` then returns the closed
        // form without walking (the exact-certificate shortcut).
        let body = ConvexBody::from_oracle(Arc::new(ball), Vector::zeros(d), 0.8, 1.25);
        let mut dfk = DfkSampler::new(body.clone(), params, &mut r);
        let dfk_estimate = dfk.estimate_volume(&mut r).expect("DFK never fails");
        let dfk_quality = rel_err_pct(dfk_estimate, unit_ball_volume(d));
        let mut rejection =
            RejectionSampler::new(body, Vector::filled(d, -1.0), Vector::filled(d, 1.0));
        rejection.set_volume_trials(5_000);
        rejection.estimate_volume(&mut r);
        let rejection_quality = quality("acceptance", rejection.acceptance_rate());
        report.claim(format!("e2_dfk_volume_d{d}"), d, dfk_quality, || {
            dfk.estimate_volume(&mut r)
        });
        report.claim(
            format!("e2_rejection_volume_d{d}"),
            d,
            rejection_quality,
            || rejection.estimate_volume(&mut r),
        );
    }
}

/// E3 — the fixed-dimension algorithms of §3 (Theorem 3.1): the γ-grid cube
/// decomposition of a box ∪ simplex, timed, with the grid volume's error
/// against the exact volume as its quality.
fn e3_fixed_dimension(report: &mut Report) {
    for (d, gamma) in [(2usize, 0.02), (3, 0.08), (4, 0.2)] {
        let relation = GeneralizedRelation::from_tuple(polytopes::hypercube(d, 1.0)).union(
            &GeneralizedRelation::from_tuple(polytopes::standard_simplex(d)),
        );
        let sampler = FixedDimSampler::new(&relation, gamma).expect("bounded relation");
        let quality = rel_err_pct(sampler.grid_volume(), sampler.exact_volume());
        report.claim(format!("e3_decompose_d{d}"), d, quality, || {
            FixedDimSampler::new(&relation, gamma)
        });
    }
}

/// E4 — the union estimator (Algorithm 1, Theorems 4.1–4.2, Corollary 4.2)
/// on overlapping boxes and a GIS parcel layer. E5 — the intersection
/// generator (Proposition 4.1): its acceptance rate collapses with the
/// overlap. E6 — the difference generator (Proposition 4.2).
fn e4_e6_boolean(report: &mut Report) {
    let params = report.params;
    let unit_box = || GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[1.0, 1.0]);
    for m in [2usize, 4, 8] {
        // m unit boxes, each shifted by 0.5: heavily overlapping union.
        let mut relation = unit_box();
        for i in 1..m {
            let s = 0.5 * i as f64;
            let shifted = GeneralizedRelation::from_box_f64(&[s, 0.0], &[s + 1.0, 1.0]);
            relation = relation.union(&shifted);
        }
        let exact = union_volume(&relation.to_polytopes());
        let mut generator = UnionGenerator::new(&relation, params).expect("observable union");
        let mut r = StdRng::seed_from_u64(400 + m as u64);
        let estimate = generator
            .estimate_volume(&mut r)
            .expect("estimation succeeds");
        report.claim(
            format!("e4_union_volume_m{m}"),
            2,
            rel_err_pct(estimate, exact),
            || generator.estimate_volume(&mut r),
        );
    }
    let mut r = StdRng::seed_from_u64(444);
    let layer = gis::parcels(&gis::GisLayerSpec::default(), &mut r);
    let mut generator = UnionGenerator::new(&layer.relation, params).expect("observable layer");
    let estimate = generator
        .estimate_volume(&mut r)
        .expect("estimation succeeds");
    let quality_gis = rel_err_pct(estimate, layer.exact_area);
    report.claim("e4_union_volume_gis", 2, quality_gis, || {
        generator.estimate_volume(&mut r)
    });

    for (label, rho) in [("half", 0.5), ("tenth", 0.1), ("thousandth", 1e-3)] {
        let b = GeneralizedRelation::from_box_f64(&[1.0 - rho, 0.0], &[2.0 - rho, 1.0]);
        let mut generator =
            IntersectionGenerator::new(&[unit_box(), b], params).expect("observable operands");
        let mut r = StdRng::seed_from_u64(500);
        generator.estimate_volume(&mut r);
        let accepted = quality("acceptance", generator.acceptance_rate());
        report.claim(
            format!("e5_intersection_volume_{label}"),
            2,
            accepted,
            || generator.estimate_volume(&mut r),
        );
    }

    for (label, cut) in [("quarter", 0.25), ("half", 0.5), ("ninety_percent", 0.9)] {
        let s2 = GeneralizedRelation::from_box_f64(&[1.0 - cut, 0.0], &[2.0, 1.0]);
        let mut generator =
            DifferenceGenerator::new(&unit_box(), &s2, params).expect("observable minuend");
        let mut r = StdRng::seed_from_u64(600);
        // A refused estimate records a NaN quality, which `bench_diff` rejects.
        let estimate = generator.estimate_volume(&mut r).unwrap_or(f64::NAN);
        let quality = rel_err_pct(estimate, 1.0 - cut);
        report.claim(format!("e6_difference_volume_{label}"), 2, quality, || {
            generator.estimate_volume(&mut r)
        });
    }
}

/// E7 — Figure 1 and Theorem 4.3: projecting uniform samples of the cone is
/// biased (fibers over `x_0` grow like `x_0^{d−1}`), and Algorithm 2's
/// compensation restores uniformity. Quality: χ² of 600 projected points
/// over 8 bins.
fn e7_projection(report: &mut Report) {
    let params = GeneratorParams {
        gamma: 0.1,
        ..report.params
    };
    for d in [2usize, 3, 4] {
        let shape = deep_cone(d);
        let mut r = StdRng::seed_from_u64(700 + d as u64);
        let rejection = ProjectionParams::new(params).with_cell_selection(CellSelection::Rejection);
        let mut generator = ProjectionGenerator::new_with(&shape, &[0], rejection, &mut r)
            .expect("cone is observable");
        // Building the stratified twin draws its weight seed from `r`; it
        // stays in the sequence so the χ² values keep the seeds they have
        // always been recorded with.
        let stratified =
            ProjectionParams::new(params).with_cell_selection(CellSelection::Stratified);
        ProjectionGenerator::new_with(&shape, &[0], stratified, &mut r)
            .expect("cone is observable");
        let n = 600;
        let biased: Vec<f64> = (0..n)
            .map(|_| generator.sample_uncorrected(&mut r)[0])
            .collect();
        let corrected: Vec<f64> = generator
            .sample_many(n, &mut r)
            .into_iter()
            .map(|p| p[0])
            .collect();
        let chi2 = |points: &[f64]| quality("chi2", uniformity_chi_square(points, 0.0, 1.0, 8));
        let (chi_biased, chi_corrected) = (chi2(&biased), chi2(&corrected));
        report.claim(
            format!("e7_uncorrected_projection_d{d}"),
            d,
            chi_biased,
            || generator.sample_uncorrected(&mut r),
        );
        report.claim(
            format!("e7_algorithm2_projection_d{d}"),
            d,
            chi_corrected,
            || generator.sample(&mut r),
        );
    }
}

/// A (2+k)-dimensional "rotated slab stack": the box `[0,2]×[0,1]` in the
/// first two coordinates, with every extra coordinate constrained between
/// coordinate differences, so eliminating it produces constraint growth.
fn stacked_body(extra: usize) -> GeneralizedTuple {
    let d = 2 + extra;
    let mut atoms = Vec::new();
    // Base box.
    let mut c = vec![0i64; d];
    c[0] = -1;
    atoms.push(Atom::le_from_ints(&c, 0));
    c = vec![0i64; d];
    c[0] = 1;
    atoms.push(Atom::le_from_ints(&c, -2));
    c = vec![0i64; d];
    c[1] = -1;
    atoms.push(Atom::le_from_ints(&c, 0));
    c = vec![0i64; d];
    c[1] = 1;
    atoms.push(Atom::le_from_ints(&c, -1));
    // Each extra coordinate z_i satisfies  x0 - x1 - 1 <= z_i <= x0 + x1 + 1.
    for i in 2..d {
        let mut lo = vec![0i64; d];
        lo[0] = 1;
        lo[1] = -1;
        lo[i] = -1;
        atoms.push(Atom::new(LinTerm::from_ints(&lo, -1), CompOp::Le));
        let mut hi = vec![0i64; d];
        hi[0] = -1;
        hi[1] = -1;
        hi[i] = 1;
        atoms.push(Atom::new(LinTerm::from_ints(&hi, -1), CompOp::Le));
    }
    GeneralizedTuple::new(d, atoms)
}

/// E8 — Lemma 4.1: the hull of N almost-uniform samples approximates the
/// unit square; the symmetric difference shrinks with N. E9 —
/// Proposition 4.3: projecting k variables away by sampling + hull
/// (Algorithm 3) against Fourier–Motzkin elimination. E10 — Theorem 4.4:
/// the `∃z (R1∧R2) ∨ R4` query of §4.3.2, sampled against symbolic
/// evaluation.
fn e8_e10_reconstruction(report: &mut Report) {
    let params = report.params;
    let reconstructor = ConvexReconstructor::new(params, 0.2, 0.2);
    let square = GeneralizedTuple::from_box_f64(&[0.0, 0.0], &[1.0, 1.0]);
    let truth = square.to_hpolytope();
    let exact = polytope_volume(&truth);
    for n in [50usize, 200, 800] {
        let mut r = StdRng::seed_from_u64(800 + n as u64);
        let hull = reconstructor
            .reconstruct_tuple(&square, Some(n), &mut r)
            .expect("square is observable");
        let sd = symmetric_difference_volume(std::slice::from_ref(&truth), &[hull]);
        report.claim(
            format!("e8_hull_of_{n}_samples"),
            2,
            sd_pct(sd, exact),
            || reconstructor.reconstruct_tuple(&square, Some(n), &mut r),
        );
    }

    let estimator = ProjectionQueryEstimator::new(params, 0.25, 0.25);
    let keep = [0usize, 1];
    for k in [1usize, 2, 3] {
        let tuple = stacked_body(k);
        let mut r = StdRng::seed_from_u64(900 + k as u64);
        let symbolic = GeneralizedRelation::from_tuple(qe::project_tuple(&tuple, &keep));
        let exact_area = union_volume(&symbolic.to_polytopes());
        let hull = estimator
            .estimate(&tuple, &keep, Some(200), &mut r)
            .expect("projection is observable");
        let sd = symmetric_difference_volume(&symbolic.to_polytopes(), &[hull]);
        report.claim(format!("e9_fourier_motzkin_k{k}"), 2 + k, None, || {
            qe::project_tuple(&tuple, &keep)
        });
        let quality = sd_pct(sd, exact_area);
        report.claim(
            format!("e9_sampling_reconstruction_k{k}"),
            2 + k,
            quality,
            || estimator.estimate(&tuple, &keep, Some(200), &mut r),
        );
    }

    let mut db = SpatialDatabase::with_params(params);
    for (name, lo, hi) in [
        ("R1", [0.0, 0.0], [2.0, 1.5]),
        ("R2", [0.5, 0.0], [2.0, 2.0]),
        ("R4", [3.0, 0.0], [4.0, 1.0]),
    ] {
        db.insert(name, GeneralizedRelation::from_box_f64(&lo, &hi));
    }
    let query = parse_formula("(exists x2. R1(x0, x2) and R2(x2, x1)) or R4(x0, x1)", 3)
        .expect("valid query");
    let exact = db.evaluate_exact(&query, 2).expect("symbolic evaluation");
    let exact_volume = union_volume(&exact.to_polytopes());
    let mut r = StdRng::seed_from_u64(1000);
    let spec = QuerySpec::reconstruct("query", query.clone(), 2);
    let outcome = db
        .query_with_rng(&spec, &mut r)
        .expect("reconstruction succeeds");
    let approx = outcome
        .relation()
        .expect("a reconstruction holds a relation");
    let sd = symmetric_difference_volume(&exact.to_polytopes(), &approx.to_polytopes());
    report.claim("e10_symbolic_evaluation", 2, None, || {
        db.evaluate_exact(&query, 2)
    });
    report.claim(
        "e10_sampling_reconstruction",
        2,
        sd_pct(sd, exact_volume),
        || db.query_with_rng(&spec, &mut r),
    );
}

/// E11 — the SAT encoding of §4.1.3: the intersection of CNF clause
/// relations is not poly-related, so the generator's acceptance rate is the
/// refusal signal (otherwise it would decide SAT). E12 — §5 polynomial
/// constraints: balls and ellipsoids through the same membership oracle.
fn e11_e12_sat_polynomial(report: &mut Report) {
    let params = report.params;
    for n_vars in [3usize, 5] {
        let mut r = StdRng::seed_from_u64(1100 + n_vars as u64);
        let cnf = sat::random_k_cnf(n_vars, 2 * n_vars, 3.min(n_vars), &mut r);
        let relations = sat::cnf_relations(&cnf);
        let mut generator =
            IntersectionGenerator::new(&relations, params).expect("clauses are observable");
        generator.estimate_volume(&mut r);
        let accepted = quality("acceptance", generator.acceptance_rate());
        report.claim(
            format!("e11_cnf_intersection_n{n_vars}"),
            n_vars,
            accepted,
            || generator.estimate_volume(&mut r),
        );
    }

    for d in [2usize, 4, 6] {
        let mut r = StdRng::seed_from_u64(1200 + d as u64);
        // A ball (degree-2 polynomial constraint) through the generic oracle,
        // behind the loose certificate E2 uses, so the estimate runs a DFK
        // walk (a tight one would take the exact-certificate shortcut).
        let ball = Ellipsoid::ball(Vector::zeros(d), 1.0).expect("unit ball");
        let body = ConvexBody::from_oracle(Arc::new(ball), Vector::zeros(d), 0.8, 1.25);
        let mut sampler = DfkSampler::new(body, params, &mut r);
        let ball_quality = rel_err_pct(dfk_median(&mut sampler, 3, &mut r), unit_ball_volume(d));

        // An axis-aligned ellipsoid with exact volume.
        let semi_axes: Vec<f64> = (0..d).map(|i| 0.5 + 0.25 * i as f64).collect();
        let ellipsoid = Ellipsoid::axis_aligned(Vector::zeros(d), &semi_axes).expect("ellipsoid");
        let exact_e = ellipsoid.volume();
        let r_inf = semi_axes.iter().cloned().fold(f64::INFINITY, f64::min);
        let r_sup = semi_axes.iter().cloned().fold(0.0f64, f64::max);
        let body_e = ConvexBody::from_oracle(Arc::new(ellipsoid), Vector::zeros(d), r_inf, r_sup);
        let mut sampler_e = DfkSampler::new(body_e, params, &mut r);
        let ellipsoid_quality = rel_err_pct(dfk_median(&mut sampler_e, 3, &mut r), exact_e);

        report.claim(format!("e12_ball_volume_d{d}"), d, ball_quality, || {
            sampler.estimate_volume(&mut r)
        });
        report.claim(
            format!("e12_ellipsoid_volume_d{d}"),
            d,
            ellipsoid_quality,
            || sampler_e.estimate_volume(&mut r),
        );
    }
}

/// The rounding path on high-aspect bodies: one-repeat volume queries on
/// the needle box and the squeezed simplex of `degenerate::suite(3, 16)`,
/// through a `SpatialDatabase` with rounding on and the store disabled, so
/// every op pays canonicalization, rounding and preparation as well as the
/// estimate. Quality: the first answer's error against the closed form.
fn degenerate_rounding(report: &mut Report) {
    let params = GeneratorParams {
        rounding: true,
        ..report.params
    };
    let d = 3;
    for body in degenerate::suite(d, 16) {
        let mut db = SpatialDatabase::with_params(params).with_store_capacity(0);
        db.insert(body.name, body.relation.clone());
        let spec = QuerySpec::volume(body.name, 1);
        let mut r = StdRng::seed_from_u64(1300);
        let estimate = db
            .query_with_rng(&spec, &mut r)
            .ok()
            .and_then(|o| o.volume())
            .unwrap_or(f64::NAN);
        let quality = rel_err_pct(estimate, body.exact_volume);
        report.claim(
            format!("degenerate_{}_volume_d{d}", body.name),
            d,
            quality,
            || db.query_with_rng(&spec, &mut r),
        );
    }
}

fn main() {
    let quick = std::env::var("CDB_BENCH_QUICK").is_ok_and(|v| v == "1");
    let (warmup_ms, window_ms) = if quick { (5, 25) } else { (300, 1500) };
    let mut report = Report {
        params: GeneratorParams::fast(),
        warmup: Duration::from_millis(warmup_ms),
        window: Duration::from_millis(window_ms),
        rows: Vec::new(),
    };
    walk_rows(&mut report);
    e1_e2_convex(&mut report);
    e3_fixed_dimension(&mut report);
    e4_e6_boolean(&mut report);
    e7_projection(&mut report);
    e8_e10_reconstruction(&mut report);
    e11_e12_sat_polynomial(&mut report);
    degenerate_rounding(&mut report);

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"cdb-perf-report/v3\",\n");
    json.push_str(&format!("  \"unix_time\": {unix_time},\n"));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!(
        "  \"walk_steps_factor\": {},\n",
        report.params.walk_steps_factor
    ));
    json.push_str("  \"workloads\": [\n");
    let rows = &report.rows;
    for (i, r) in rows.iter().enumerate() {
        let columns = match &r.metrics {
            Metrics::Walk {
                kernel,
                steps_per_sec,
                samples_per_sec,
            } => {
                let steps = steps_per_sec
                    .map(|steps| format!(", \"steps_per_sec\": {steps:.0}"))
                    .unwrap_or_default();
                format!(
                    "\"kernel\": \"{kernel}\"{steps}, \"samples_per_sec\": {samples_per_sec:.1}"
                )
            }
            // `{}` prints the shortest text that reads back as the same f64,
            // so a recorded quality keeps every bit.
            Metrics::Claim {
                ops_per_sec,
                quality: Some(q),
            } => format!(
                "\"ops_per_sec\": {ops_per_sec:.3}, \"quality_kind\": \"{}\", \"quality\": {}",
                q.kind, q.value
            ),
            Metrics::Claim {
                ops_per_sec,
                quality: None,
            } => format!("\"ops_per_sec\": {ops_per_sec:.3}"),
        };
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"dim\": {}, {columns}}}{}\n",
            r.workload,
            r.dim,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    // Quick-mode numbers are meaningless, so they must never land in the
    // recorded BENCH_walk.json by default.
    let default_out = if quick {
        "target/BENCH_walk_quick.json"
    } else {
        "BENCH_walk.json"
    };
    let out = std::env::var("CDB_BENCH_OUT").unwrap_or_else(|_| default_out.into());
    std::fs::write(&out, &json).expect("write BENCH_walk.json");
    eprintln!("wrote {out}:");
    print!("{json}");
}
