//! Walk-throughput report: measures hit-and-run steps/sec and samples/sec on
//! the e1 polytope, e2 ball and e7 projection workloads plus the structured
//! constraint-matrix workloads (axis-aligned box stack, banded sparse
//! intersection — each with a forced-dense twin on the *same* body, so the
//! kernel speedup is isolated from everything else), and writes the
//! machine-readable `BENCH_walk.json`, so every PR leaves a perf trajectory
//! behind (`./ci.sh --bench` runs it; `./ci.sh --bench-quick` runs the same
//! harness with a tiny time budget as a dispatch smoke test).
//!
//! The e1/e2 rows deliberately drive only the long-stable public sampler
//! API, so pre/post comparisons against the recorded `BENCH_walk.json` of
//! earlier revisions stay apples-to-apples; the structured rows additionally
//! use `HPolytope::force_dense` and `cdb_workloads::structured` (PR 4+), the
//! e7 rows are cold/warm weight-cache twins via `ProjectionParams`
//! (PR 5+) — the warm twin keeps the historical row name — and the
//! `e_shared_subrelations` rows are warm/cold twins of the prepared-relation
//! store on an end-to-end `SpatialDatabase` query loop (PR 7+).
//!
//! Environment knobs: `CDB_BENCH_OUT` overrides the output path and
//! `CDB_BENCH_QUICK=1` shrinks the warm-up/measurement windows to a few
//! milliseconds (numbers are then meaningless — it only proves every kernel
//! dispatch path runs — so quick output defaults to
//! `target/BENCH_walk_quick.json`, never the recorded `BENCH_walk.json`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use cdb_constraint::{Atom, GeneralizedRelation, GeneralizedTuple};
use cdb_core::{QuerySpec, SpatialDatabase};
use cdb_geometry::{Ellipsoid, HPolytope};
use cdb_linalg::Vector;
use cdb_sampler::{
    CellSelection, ConvexBody, DfkSampler, GeneratorParams, ProjectionGenerator, ProjectionParams,
    RelationGenerator,
};
use cdb_workloads::structured;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One measured workload row of `BENCH_walk.json`.
struct Row {
    workload: &'static str,
    dim: usize,
    /// Constraint-matrix kernel the walk dispatches to (`"oracle"`/`"mixed"`
    /// for non-polytope bodies).
    kernel: &'static str,
    steps_per_sec: f64,
    samples_per_sec: f64,
}

/// Runs `tick` (one sample) repeatedly: a short warm-up, then a timed window.
/// Returns samples/sec.
fn measure(mut tick: impl FnMut(), warmup: Duration, window: Duration) -> f64 {
    let start = Instant::now();
    while start.elapsed() < warmup {
        tick();
    }
    let start = Instant::now();
    let mut n = 0u64;
    while start.elapsed() < window {
        tick();
        n += 1;
    }
    n as f64 / start.elapsed().as_secs_f64()
}

/// The e7 cone in dimension `d`: `0 ≤ x_1 ≤ 1`, `0 ≤ x_i ≤ x_1`.
fn cone(d: usize) -> GeneralizedTuple {
    let mut atoms = Vec::new();
    let mut first_lo = vec![0i64; d];
    first_lo[0] = -1;
    atoms.push(Atom::le_from_ints(&first_lo, 0));
    let mut first_hi = vec![0i64; d];
    first_hi[0] = 1;
    atoms.push(Atom::le_from_ints(&first_hi, -1));
    for i in 1..d {
        let mut lo = vec![0i64; d];
        lo[i] = -1;
        atoms.push(Atom::le_from_ints(&lo, 0));
        let mut hi = vec![0i64; d];
        hi[i] = 1;
        hi[0] = -1;
        atoms.push(Atom::le_from_ints(&hi, 0));
    }
    GeneralizedTuple::new(d, atoms)
}

/// Measures one polytope-backed hit-and-run row through the public sampler
/// API; `kernel` is taken from the polytope's detected (or forced) matrix.
fn polytope_row(
    workload: &'static str,
    p: &HPolytope,
    seed: u64,
    params: GeneratorParams,
    warmup: Duration,
    window: Duration,
) -> Row {
    let d = p.dim();
    let kernel = p.matrix().kind();
    let body = ConvexBody::from_polytope(p).expect("workload polytope is well-bounded");
    let mut rng = StdRng::seed_from_u64(seed);
    let sampler = DfkSampler::new(body, params, &mut rng);
    let steps_per_sample = params.walk_steps(d) as f64;
    let sps = measure(
        || {
            std::hint::black_box(sampler.sample(&mut rng));
        },
        warmup,
        window,
    );
    Row {
        workload,
        dim: d,
        kernel,
        steps_per_sec: sps * steps_per_sample,
        samples_per_sec: sps,
    }
}

fn main() {
    let quick = std::env::var("CDB_BENCH_QUICK").is_ok_and(|v| v == "1");
    let (warmup, window) = if quick {
        (Duration::from_millis(5), Duration::from_millis(25))
    } else {
        (Duration::from_millis(300), Duration::from_millis(1500))
    };
    let params = GeneratorParams::fast();
    let mut rows = Vec::new();

    // e1: hit-and-run chains on a 6-dimensional hypercube (12 constraints).
    rows.push(polytope_row(
        "e1_polytope_hit_and_run",
        &HPolytope::hypercube(6, 1.0),
        1001,
        params,
        warmup,
        window,
    ));

    // e2: hit-and-run chains on a 6-dimensional ball behind a loose
    // certificate (the oracle-backed body of experiment E2).
    {
        let d = 6;
        let ball = Ellipsoid::ball(Vector::zeros(d), 1.0).expect("unit ball");
        let body = ConvexBody::from_oracle(Arc::new(ball), Vector::zeros(d), 0.8, 1.25);
        let mut rng = StdRng::seed_from_u64(1002);
        let sampler = DfkSampler::new(body, params, &mut rng);
        let steps_per_sample = params.walk_steps(d) as f64;
        let sps = measure(
            || {
                std::hint::black_box(sampler.sample(&mut rng));
            },
            warmup,
            window,
        );
        rows.push(Row {
            workload: "e2_ball_hit_and_run",
            dim: d,
            kernel: "oracle",
            steps_per_sec: sps * steps_per_sample,
            samples_per_sec: sps,
        });
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
        let shape = cone(d);
        let proj_params = GeneratorParams {
            gamma: 0.1,
            ..params
        };
        for (workload, cache_capacity, selection) in [
            (
                "e7_projection_compensated",
                cdb_sampler::DEFAULT_WEIGHT_CACHE_CAPACITY,
                CellSelection::Rejection,
            ),
            (
                "e7_projection_compensated_cold",
                0usize,
                CellSelection::Rejection,
            ),
            (
                "e7_projection_stratified",
                cdb_sampler::DEFAULT_WEIGHT_CACHE_CAPACITY,
                CellSelection::Stratified,
            ),
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
            let steps_per_chain = proj_params.walk_steps(d) as f64;
            let sps = measure(
                || {
                    std::hint::black_box(generator.sample(&mut rng));
                },
                warmup,
                window,
            );
            // One emitted sample costs 1/acceptance chains of walk_steps
            // each (exactly 1 for the stratified selector).
            let acceptance = generator.acceptance_rate().max(1e-12);
            rows.push(Row {
                workload,
                dim: d,
                kernel: "mixed",
                steps_per_sec: sps * steps_per_chain / acceptance,
                samples_per_sec: sps,
            });
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
            let steps_per_sample = params.walk_steps(d) as f64;
            let sps = measure(
                || {
                    let name = &names[i % names.len()];
                    i += 1;
                    let spec = QuerySpec::sample(name, 1);
                    std::hint::black_box(db.query_with_rng(&spec, &mut rng).unwrap());
                },
                warmup,
                window,
            );
            rows.push(Row {
                workload,
                dim: d,
                kernel: "axis",
                steps_per_sec: sps * steps_per_sample,
                samples_per_sec: sps,
            });
        }
    }

    // s1: a 32-dimensional axis-aligned box stack (256 one-nonzero rows) —
    // the detected axis kernel vs the dense kernel forced on the same body.
    // The point streams are bitwise identical; only the per-step cost moves.
    {
        let mut gen_rng = StdRng::seed_from_u64(2001);
        let (stack, _volume) = structured::box_stack(32, 4, 0.5, &mut gen_rng);
        assert_eq!(stack.matrix().kind(), "axis", "box stack must detect axis");
        rows.push(polytope_row(
            "s1_box_stack_axis",
            &stack,
            2101,
            params,
            warmup,
            window,
        ));
        rows.push(polytope_row(
            "s1_box_stack_forced_dense",
            &stack.force_dense(),
            2101,
            params,
            warmup,
            window,
        ));
    }

    // s2: a 32-dimensional banded overlay intersection (126 rows, ≤ 2
    // nonzeros each) — the detected CSR kernel vs the dense kernel on the
    // same body.
    {
        let mut gen_rng = StdRng::seed_from_u64(2002);
        let band = structured::banded_overlay(32, 0.5, &mut gen_rng);
        assert_eq!(band.matrix().kind(), "sparse", "overlay must detect sparse");
        rows.push(polytope_row(
            "s2_banded_overlay_sparse",
            &band,
            2102,
            params,
            warmup,
            window,
        ));
        rows.push(polytope_row(
            "s2_banded_overlay_forced_dense",
            &band.force_dense(),
            2102,
            params,
            warmup,
            window,
        ));
    }

    // s3: a SAT-style sparse cut system (64 box rows + 48 three-literal
    // cuts) through the CSR kernel — the Section 4.1.3 relaxation shape.
    {
        let mut gen_rng = StdRng::seed_from_u64(2003);
        let sat = structured::sat_sparse_system(32, 48, 3, 0.1, &mut gen_rng);
        assert_eq!(
            sat.matrix().kind(),
            "sparse",
            "SAT system must detect sparse"
        );
        rows.push(polytope_row(
            "s3_sat_sparse_cuts",
            &sat,
            2103,
            params,
            warmup,
            window,
        ));
    }

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"cdb-perf-report/v2\",\n");
    json.push_str(&format!("  \"unix_time\": {unix_time},\n"));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!(
        "  \"walk_steps_factor\": {},\n",
        params.walk_steps_factor
    ));
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"dim\": {}, \"kernel\": \"{}\", \"steps_per_sec\": {:.0}, \"samples_per_sec\": {:.1}}}{}\n",
            r.workload,
            r.dim,
            r.kernel,
            r.steps_per_sec,
            r.samples_per_sec,
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
