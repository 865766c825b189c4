//! Request routing and the per-endpoint handlers.
//!
//! Every handler is a thin pipeline over the
//! [`SpatialDatabase::query`] surface: decode the request
//! (`api_types`) → resolve the budget (request > per-relation override >
//! config default) → build a [`QuerySpec`] → run it → encode the outcome.
//!
//! Seeded execution: a request carrying `"seed"` draws from
//! `SeedSequence::new(seed).item_stream(stream)`; unseeded requests draw
//! from process entropy (time-mixed counter). Single-item requests
//! (sample, volume with `repeats = 1`, reconstruct) consume the stream's
//! RNG directly via [`SpatialDatabase::query_with_rng`] — the *same* draw
//! discipline as the in-process load harness, which is what makes HTTP
//! and in-process transports bitwise comparable. Multi-item requests hand
//! the stream to the seeded batch path, whose per-item streams make
//! results independent of the worker-thread count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::Instant;

use cdb_core::{QuerySpec, SpatialDatabase};
use cdb_sampler::{QueryBudget, SeedSequence};

use crate::api_types::{
    decode_budget, reconstruct_response, sample_response, volume_response, InsertRelationRequest,
    ReconstructRequest, SampleRequest, SeedSpec, VolumeRequest,
};
use crate::config::ServerConfig;
use crate::error::AppError;
use crate::http::Request;
use crate::json::{parse, Json};
use crate::metrics::Metrics;

/// Shared server state: the database, config, and metrics.
pub struct AppState {
    /// The spatial database (writer: insert-relation; readers: queries).
    pub db: RwLock<SpatialDatabase>,
    /// Immutable configuration.
    pub config: ServerConfig,
    /// Per-endpoint request metrics.
    pub metrics: Metrics,
    /// Server start time (for `/v1/stats` uptime).
    pub started: Instant,
    /// Resolved worker count (reported in `/v1/stats`).
    pub workers: usize,
}

/// A routed response: which endpoint the request resolved to (an
/// [`crate::metrics::ENDPOINTS`] name, or `""` for unrouted requests) and
/// the outcome.
pub struct Routed {
    /// Metrics endpoint name (`""` when the request never matched a route).
    pub endpoint: &'static str,
    /// Response body or error.
    pub result: Result<Json, AppError>,
}

/// Routes and executes one request. Panics inside a handler are contained
/// here and answered as 500 `handler_panicked`, so one bad request never
/// takes down the worker's connection loop.
pub fn handle(state: &AppState, request: &Request) -> Routed {
    let (endpoint, run): (
        &'static str,
        fn(&AppState, &Request) -> Result<Json, AppError>,
    ) = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => ("health", |_, _| {
            Ok(Json::Object(vec![("status".to_string(), Json::str("ok"))]))
        }),
        ("GET", "/v1/stats") => ("stats", stats),
        ("POST", "/v1/relations") => ("insert_relation", insert_relation),
        ("POST", "/v1/sample") => ("sample", |s, r| sample(s, r, false)),
        ("POST", "/v1/sample-batch") => ("sample_batch", |s, r| sample(s, r, true)),
        ("POST", "/v1/volume") => ("volume", volume),
        ("POST", "/v1/reconstruct") => ("reconstruct", reconstruct),
        (
            _,
            "/health" | "/v1/stats" | "/v1/relations" | "/v1/sample" | "/v1/sample-batch"
            | "/v1/volume" | "/v1/reconstruct",
        ) => {
            return Routed {
                endpoint: "",
                result: Err(AppError::method_not_allowed(&request.method, &request.path)),
            }
        }
        _ => {
            return Routed {
                endpoint: "",
                result: Err(AppError::route_not_found(&request.path)),
            }
        }
    };
    let result = catch_unwind(AssertUnwindSafe(|| run(state, request))).unwrap_or_else(|payload| {
        let payload = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string());
        Err(AppError {
            status: 500,
            code: "handler_panicked",
            message: format!("handler panicked: {payload}"),
            cause: None,
            completed: None,
        })
    });
    Routed { endpoint, result }
}

/// Parses the request body as JSON (empty body → empty object, so
/// body-less POSTs fail with a field error rather than a parse error).
fn body_json(state: &AppState, request: &Request) -> Result<Json, AppError> {
    if request.body.is_empty() {
        return Ok(Json::Object(Vec::new()));
    }
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| AppError::bad_json("body is not valid UTF-8"))?;
    Ok(parse(text, state.config.max_json_depth)?)
}

/// Process-entropy seed for unseeded requests: a time-mixed counter, so
/// the server needs no RNG dependency of its own. SplitMix64 finalizer
/// (same mixer the core uses for preparation seeds).
fn entropy_seed() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| {
            u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0)
        });
    let mut z = nanos ^ COUNTER.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The item stream a request draws from (see the module docs).
fn request_stream(seed: &SeedSpec) -> SeedSequence {
    SeedSequence::new(seed.seed.unwrap_or_else(entropy_seed)).item_stream(seed.stream)
}

/// Resolves the effective budget: request override, else per-relation
/// config override, else the config default.
fn resolve_budget(state: &AppState, relation: &str, body: &Json) -> Result<QueryBudget, AppError> {
    Ok(match decode_budget(body)? {
        Some(spec) => spec.to_budget(),
        None => state.config.budget_for(relation).to_budget(),
    })
}

fn read_db(state: &AppState) -> std::sync::RwLockReadGuard<'_, SpatialDatabase> {
    match state.db.read() {
        Ok(guard) => guard,
        // A poisoned lock means a panic escaped a handler while holding it;
        // the database has no invariant a contained panic can break (the
        // engine contains worker panics itself), so recover and serve.
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn stats(state: &AppState, _request: &Request) -> Result<Json, AppError> {
    let store = read_db(state).store_stats();
    Ok(Json::Object(vec![
        ("endpoints".to_string(), state.metrics.snapshot_json()),
        (
            "store".to_string(),
            Json::Object(vec![
                ("hits".to_string(), Json::u64_str(store.hits)),
                ("misses".to_string(), Json::u64_str(store.misses)),
                ("evictions".to_string(), Json::u64_str(store.evictions)),
                ("len".to_string(), Json::count(store.len)),
                (
                    "shards_rebuilt".to_string(),
                    Json::u64_str(store.shards_rebuilt),
                ),
                (
                    "panics_recovered".to_string(),
                    Json::u64_str(store.panics_recovered),
                ),
            ]),
        ),
        ("workers".to_string(), Json::count(state.workers)),
        (
            "uptime_secs".to_string(),
            Json::num(state.started.elapsed().as_secs_f64()),
        ),
    ]))
}

fn insert_relation(state: &AppState, request: &Request) -> Result<Json, AppError> {
    let body = body_json(state, request)?;
    let req = InsertRelationRequest::decode(&body)?;
    let arity = req.relation.arity();
    let tuples = req.relation.tuples().len();
    {
        let mut db = match state.db.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        db.insert(req.name.clone(), req.relation);
    }
    Ok(Json::Object(vec![
        ("name".to_string(), Json::str(req.name)),
        ("arity".to_string(), Json::count(arity)),
        ("tuples".to_string(), Json::count(tuples)),
    ]))
}

fn sample(state: &AppState, request: &Request, batch: bool) -> Result<Json, AppError> {
    let body = body_json(state, request)?;
    let req = SampleRequest::decode(&body, batch)?;
    let budget = resolve_budget(state, &req.relation, &body)?;
    let db = read_db(state);
    let outcome = if batch {
        let mut spec = QuerySpec::sample(req.relation.as_str(), req.n)
            .with_budget(&budget)
            .with_seed_sequence(request_stream(&req.seed));
        if req.partial {
            spec = spec.partial();
        }
        db.query(&spec)?
    } else {
        let spec = QuerySpec::sample(req.relation.as_str(), 1).with_budget(&budget);
        let mut rng = request_stream(&req.seed).rng();
        db.query_with_rng(&spec, &mut rng)?
    };
    Ok(sample_response(&outcome, batch))
}

fn volume(state: &AppState, request: &Request) -> Result<Json, AppError> {
    let body = body_json(state, request)?;
    let req = VolumeRequest::decode(&body)?;
    let budget = resolve_budget(state, &req.relation, &body)?;
    let db = read_db(state);
    let outcome = if req.repeats == 1 {
        // Single estimate: consume the stream RNG directly — the same
        // draw discipline as the in-process load harness.
        let spec = QuerySpec::volume(req.relation.as_str(), 1).with_budget(&budget);
        let mut rng = request_stream(&req.seed).rng();
        db.query_with_rng(&spec, &mut rng)?
    } else {
        let spec = QuerySpec::volume(req.relation.as_str(), req.repeats)
            .with_budget(&budget)
            .with_seed_sequence(request_stream(&req.seed));
        db.query(&spec)?
    };
    Ok(volume_response(&outcome))
}

fn reconstruct(state: &AppState, request: &Request) -> Result<Json, AppError> {
    let body = body_json(state, request)?;
    let req = ReconstructRequest::decode(&body)?;
    let db = read_db(state);
    let spec = QuerySpec::reconstruct("query", req.query.clone(), req.output_arity);
    let mut rng = request_stream(&req.seed).rng();
    let outcome = db.query_with_rng(&spec, &mut rng)?;
    let relation = outcome
        .relation()
        .expect("a reconstruct query that returned Ok holds its relation");
    Ok(reconstruct_response(relation))
}
