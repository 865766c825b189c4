//! Open-loop traffic-shaped load harness over [`SpatialDatabase`].
//!
//! The harness separates *what* traffic arrives from *how fast* the engine
//! serves it:
//!
//! 1. [`schedule`] turns a [`LoadSpec`] into a fixed request schedule —
//!    Poisson interarrivals (exponential gaps drawn from a dedicated
//!    [`SeedSequence`] stream) plus a per-request query class and target
//!    relation. The schedule is a pure function of the seed: it never
//!    observes service times, so a stall in the engine cannot slow down the
//!    arrival process and hide itself (no coordinated omission).
//! 2. [`run`] replays the schedule from N client threads over the timed
//!    batch fan-out: each worker sleeps until a request's scheduled arrival,
//!    issues it as a budgeted query, and the latency recorded
//!    is *completion − scheduled arrival* — queue wait included.
//!
//! **Determinism contract.** Request `i` draws its query randomness from
//! [`SeedSequence::item_stream`]`(i)`, so the *results* (points, estimates,
//! reconstruction digests, typed errors) are bitwise identical for any
//! client-thread count; only the timings vary. `tests/determinism.rs` pins
//! this. Budgets use only deterministic counters unless a caller arms a
//! deadline, so a tripped budget is the same typed
//! [`SpatialDbError::BudgetExhausted`] on every run of a seed.
//!
//! [`class_stats`] folds a run into per-query-class percentile rows and
//! [`render_report`] emits them in the `cdb-load-report/v1` schema that
//! `bench_diff` gates (see [`crate::report`]).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::Rng;

use cdb_constraint::parse_formula;
use cdb_core::{QuerySpec, SpatialDatabase, SpatialDbError};
use cdb_sampler::batch::{auto_threads, fan_out_contained_timed};
use cdb_sampler::{BudgetTrip, QueryBudget, SeedSequence, WorkerPanic};
use cdb_workloads::sessions::SessionMix;

/// The query classes a session mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueryClass {
    /// Draw one almost-uniform point (a budgeted one-item sample query).
    Sample,
    /// Estimate the relation's volume (a budgeted one-repeat volume query).
    Volume,
    /// Reconstruct a projection of the relation (a reconstruction query).
    Reconstruction,
}

impl QueryClass {
    /// All classes, in report order.
    pub const ALL: [QueryClass; 3] = [
        QueryClass::Sample,
        QueryClass::Volume,
        QueryClass::Reconstruction,
    ];

    /// Stable lowercase label used in report row names.
    pub fn label(self) -> &'static str {
        match self {
            QueryClass::Sample => "sample",
            QueryClass::Volume => "volume",
            QueryClass::Reconstruction => "reconstruction",
        }
    }
}

/// One scheduled request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Position in the schedule (and the item-stream index funding it).
    pub index: usize,
    /// Scheduled arrival offset from the run epoch, in seconds. Kept as the
    /// raw `f64` so `tests/determinism.rs` can pin its bit pattern.
    pub arrival_secs: f64,
    /// The query class.
    pub class: QueryClass,
    /// Name of the target relation.
    pub relation: String,
}

impl Request {
    /// Scheduled arrival as a [`Duration`].
    pub fn arrival(&self) -> Duration {
        Duration::from_secs_f64(self.arrival_secs)
    }
}

/// Parameters of a load run.
#[derive(Clone, Debug)]
pub struct LoadSpec {
    /// Number of requests to schedule.
    pub requests: usize,
    /// Mean arrival rate (requests per second of the Poisson process).
    pub rate: f64,
    /// Client threads (`0` = one per core).
    pub threads: usize,
    /// Root seed of the schedule and of every request's query randomness.
    pub seed: u64,
    /// Read/volume/reconstruction blend.
    pub mix: SessionMix,
    /// Budget applied to every sample/volume request. Reconstruction requests
    /// run unbudgeted on both transports, which keeps the recorded rows
    /// comparable with earlier runs — keep their weight low in mixes that
    /// include pathological relations.
    pub budget: QueryBudget,
    /// Per-relation budget overrides (e.g. a starved budget on one name),
    /// taking precedence over `budget`.
    pub budget_overrides: BTreeMap<String, QueryBudget>,
}

impl LoadSpec {
    /// A spec with auto threads and unlimited budgets.
    pub fn new(requests: usize, rate: f64, seed: u64, mix: SessionMix) -> Self {
        LoadSpec {
            requests,
            rate,
            threads: 0,
            seed,
            mix,
            budget: QueryBudget::unlimited(),
            budget_overrides: BTreeMap::new(),
        }
    }

    /// Sets the client-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the per-request budget.
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Overrides the budget for requests targeting `relation`.
    pub fn with_budget_override(mut self, relation: &str, budget: QueryBudget) -> Self {
        self.budget_overrides.insert(relation.to_string(), budget);
        self
    }
}

/// A fixed request schedule (see the module docs for the open-loop design).
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// The requests, in arrival order (arrivals are nondecreasing).
    pub requests: Vec<Request>,
}

impl Schedule {
    /// Scheduled request count per class, in [`QueryClass::ALL`] order.
    pub fn class_counts(&self) -> [usize; 3] {
        let mut counts = [0usize; 3];
        for r in &self.requests {
            counts[QueryClass::ALL.iter().position(|c| *c == r.class).unwrap()] += 1;
        }
        counts
    }
}

/// Builds the deterministic request schedule for `spec` over the given
/// relation names.
///
/// Interarrival gaps are exponential with mean `1/rate` (`−ln(1−u)/rate`
/// from a uniform stream), making arrivals a Poisson process; class and
/// relation picks come from a second dedicated stream. Both streams live
/// under [`SeedSequence::setup_stream`], so they can never collide with the
/// per-request [`SeedSequence::item_stream`] randomness used at run time.
pub fn schedule(spec: &LoadSpec, relations: &[String]) -> Schedule {
    assert!(!relations.is_empty(), "a schedule needs target relations");
    let total = spec.mix.total();
    assert!(spec.rate > 0.0, "arrival rate must be positive");
    let seq = SeedSequence::new(spec.seed);
    let mut arrivals = seq.setup_stream().child(0).rng();
    let mut picks = seq.setup_stream().child(1).rng();
    let mut t = 0.0f64;
    let mut requests = Vec::with_capacity(spec.requests);
    for index in 0..spec.requests {
        let u: f64 = arrivals.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / spec.rate;
        let w: f64 = picks.gen_range(0.0..total);
        let class = if w < spec.mix.sample {
            QueryClass::Sample
        } else if w < spec.mix.sample + spec.mix.volume {
            QueryClass::Volume
        } else {
            QueryClass::Reconstruction
        };
        let relation = relations[picks.gen_range(0..relations.len())].clone();
        requests.push(Request {
            index,
            arrival_secs: t,
            class,
            relation,
        });
    }
    Schedule { requests }
}

/// A successful query result, reduced to a comparable payload.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// A sampled point.
    Point(Vec<f64>),
    /// A volume estimate.
    Estimate(f64),
    /// A reconstructed relation: tuple count plus a digest of its exact
    /// constraint representation.
    Relation {
        /// Number of generalized tuples in the reconstruction.
        tuples: usize,
        /// FNV-1a digest of the relation's rendered form.
        digest: u64,
    },
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

impl Payload {
    /// A 64-bit fingerprint of the payload's exact bit patterns (f64s enter
    /// via `to_bits`, so two payloads fingerprint equal iff they are bitwise
    /// identical).
    pub fn bits(&self) -> u64 {
        let mut h = FNV_OFFSET;
        match self {
            Payload::Point(xs) => {
                fnv(&mut h, b"point");
                for x in xs {
                    fnv(&mut h, &x.to_bits().to_le_bytes());
                }
            }
            Payload::Estimate(v) => {
                fnv(&mut h, b"estimate");
                fnv(&mut h, &v.to_bits().to_le_bytes());
            }
            Payload::Relation { tuples, digest } => {
                fnv(&mut h, b"relation");
                fnv(&mut h, &(*tuples as u64).to_le_bytes());
                fnv(&mut h, &digest.to_le_bytes());
            }
        }
        h
    }
}

/// A typed, comparable rendering of [`SpatialDbError`] for load outcomes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoadError {
    /// The per-request budget tripped ([`SpatialDbError::BudgetExhausted`]).
    Budget(BudgetTrip),
    /// A genuine statistical generation failure.
    GenerationFailed,
    /// The target relation does not exist.
    UnknownRelation,
    /// The target relation is not observable.
    NotObservable,
    /// The reconstruction estimator failed.
    Reconstruction,
    /// Any other engine error, rendered.
    Other(String),
}

impl From<&SpatialDbError> for LoadError {
    fn from(err: &SpatialDbError) -> Self {
        match err {
            SpatialDbError::BudgetExhausted { cause, .. } => LoadError::Budget(*cause),
            SpatialDbError::GenerationFailed { .. } => LoadError::GenerationFailed,
            SpatialDbError::UnknownRelation(_) => LoadError::UnknownRelation,
            SpatialDbError::NotObservable { .. } => LoadError::NotObservable,
            SpatialDbError::Reconstruction(_) => LoadError::Reconstruction,
            other => LoadError::Other(other.to_string()),
        }
    }
}

/// The resolution of one request: its payload or typed error, plus the
/// open-loop latency (completion − *scheduled* arrival, queue wait
/// included).
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The query class of the request.
    pub class: QueryClass,
    /// The target relation.
    pub relation: String,
    /// The result — a payload or a typed error; both count as *resolved*.
    pub result: Result<Payload, LoadError>,
    /// Completion − scheduled arrival.
    pub latency: Duration,
}

/// The outcome of a load run.
#[derive(Debug)]
pub struct RunReport {
    /// Slot `i` resolves request `i`; `None` when a contained worker panic
    /// killed the request before it resolved.
    pub outcomes: Vec<Option<Outcome>>,
    /// Worker panics contained during the run.
    pub panics: Vec<WorkerPanic>,
    /// Wall-clock span of the whole run.
    pub wall: Duration,
}

impl RunReport {
    /// Number of requests lost to contained worker panics.
    pub fn lost(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_none()).count()
    }

    /// Per-request result fingerprints with all timing information
    /// excluded — the value `tests/determinism.rs` compares across client
    /// thread counts.
    pub fn result_bits(&self) -> Vec<Option<u64>> {
        self.outcomes
            .iter()
            .map(|slot| {
                slot.as_ref().map(|o| {
                    let mut h = FNV_OFFSET;
                    fnv(&mut h, o.class.label().as_bytes());
                    fnv(&mut h, o.relation.as_bytes());
                    match &o.result {
                        Ok(payload) => fnv(&mut h, &payload.bits().to_le_bytes()),
                        Err(err) => fnv(&mut h, format!("{err:?}").as_bytes()),
                    }
                    h
                })
            })
            .collect()
    }
}

/// Where the harness sends its traffic.
///
/// Both transports follow one seed discipline — request `i` is funded by
/// `SeedSequence::new(spec.seed).item_stream(i)` (sent over the wire as
/// `"seed"`/`"stream"` for HTTP) — so, given the same schedule, their
/// [`RunReport::result_bits`] are **bitwise identical**: the report schema
/// is transport-agnostic. The one caveat is budgets: only the
/// deterministic counters (`max_steps`, `max_attempts`) cross the wire; an
/// armed deadline or cancellation token is a process-local handle and is
/// dropped by the HTTP transport.
pub enum Transport<'a> {
    /// Direct calls into an in-process [`SpatialDatabase`].
    InProcess(&'a SpatialDatabase),
    /// HTTP/JSON requests against a `cdb-server` instance (usually
    /// loopback), one keep-alive connection per client thread.
    Http(std::net::SocketAddr),
}

/// Replays `schedule` against `db` from `spec.threads` client threads —
/// [`run_over`] with [`Transport::InProcess`].
pub fn run(db: &SpatialDatabase, spec: &LoadSpec, schedule: &Schedule) -> RunReport {
    run_over(&Transport::InProcess(db), spec, schedule)
}

/// The reconstruction query each scheduled reconstruction issues: project
/// the binary relation onto its first coordinate (`∃x₁. R(x₀, x₁)`).
/// Scheduling a reconstruction against a relation that is not binary is a
/// caller error and panics at parse/evaluation time.
fn reconstruction_text(relation: &str) -> String {
    format!("exists x1. {relation}(x0, x1)")
}

const POINT: &str = "a fail-fast sample query that returned Ok holds its point";
const ESTIMATE: &str = "a fail-fast volume query that returned Ok holds its estimate";
const RELATION: &str = "a reconstruction query that returned Ok holds its relation";

/// Sleeps until request `i`'s scheduled arrival (open-loop pacing).
fn pace(schedule: &Schedule, i: usize, epoch: Instant) {
    let arrival = schedule.requests[i].arrival();
    let now = epoch.elapsed();
    if now < arrival {
        std::thread::sleep(arrival - now);
    }
}

/// Replays `schedule` over the given [`Transport`] from `spec.threads`
/// client threads.
pub fn run_over(transport: &Transport<'_>, spec: &LoadSpec, schedule: &Schedule) -> RunReport {
    let n = schedule.requests.len();
    let seq = SeedSequence::new(spec.seed);
    // `threads = 0` means one client per core here. The fan-out's own `0`
    // would run a short schedule inline on one client, serializing the
    // open-loop load, so the count is resolved before the call.
    let threads = match spec.threads {
        0 => auto_threads(),
        t => t,
    };
    let epoch = Instant::now();
    let fan_out = match transport {
        Transport::InProcess(db) => {
            let mut reconstructions: BTreeMap<String, QuerySpec> = BTreeMap::new();
            for req in &schedule.requests {
                if req.class == QueryClass::Reconstruction
                    && !reconstructions.contains_key(&req.relation)
                {
                    let text = reconstruction_text(&req.relation);
                    let formula = parse_formula(&text, 2).unwrap_or_else(|e| {
                        panic!("reconstruction query {text:?} does not parse: {e:?}")
                    });
                    let spec = QuerySpec::reconstruct(&req.relation, formula, 1);
                    reconstructions.insert(req.relation.clone(), spec);
                }
            }
            fan_out_contained_timed(
                n,
                threads,
                epoch,
                || (),
                |_, i| {
                    db.fault_plan().inject_worker_panic(i);
                    pace(schedule, i, epoch);
                    let req = &schedule.requests[i];
                    let budget = spec
                        .budget_overrides
                        .get(&req.relation)
                        .unwrap_or(&spec.budget);
                    let mut rng = seq.item_stream(i).rng();
                    match req.class {
                        QueryClass::Sample => db
                            .query_with_rng(
                                &QuerySpec::sample(&req.relation, 1).with_budget(budget),
                                &mut rng,
                            )
                            .map(|o| Payload::Point(o.point().expect(POINT).to_vec())),
                        QueryClass::Volume => db
                            .query_with_rng(
                                &QuerySpec::volume(&req.relation, 1).with_budget(budget),
                                &mut rng,
                            )
                            .map(|o| Payload::Estimate(o.volume().expect(ESTIMATE))),
                        QueryClass::Reconstruction => db
                            .query_with_rng(&reconstructions[&req.relation], &mut rng)
                            .map(|o| {
                                let rel = o.relation().expect(RELATION);
                                let mut digest = FNV_OFFSET;
                                fnv(&mut digest, format!("{rel:?}").as_bytes());
                                Payload::Relation {
                                    tuples: rel.tuples().len(),
                                    digest,
                                }
                            }),
                    }
                    .map_err(|e| LoadError::from(&e))
                },
            )
        }
        Transport::Http(addr) => {
            let addr = *addr;
            fan_out_contained_timed(
                n,
                threads,
                epoch,
                move || cdb_server::client::Client::new(addr),
                |client, i| {
                    pace(schedule, i, epoch);
                    http_request(client, spec, &schedule.requests[i], i)
                },
            )
        }
    };
    let wall = epoch.elapsed();
    let outcomes = fan_out
        .slots
        .into_iter()
        .zip(&schedule.requests)
        .map(|(slot, req)| {
            slot.map(|timed| Outcome {
                class: req.class,
                relation: req.relation.clone(),
                result: timed.value,
                latency: timed.finished.saturating_sub(req.arrival()),
            })
        })
        .collect();
    RunReport {
        outcomes,
        panics: fan_out.panics,
        wall,
    }
}

/// Issues scheduled request `i` over HTTP and decodes the response into
/// the same [`Payload`] / [`LoadError`] values the in-process transport
/// produces (see [`Transport`] for the parity contract).
fn http_request(
    client: &mut cdb_server::client::Client,
    spec: &LoadSpec,
    req: &Request,
    i: usize,
) -> Result<Payload, LoadError> {
    use cdb_server::json::Json;

    let budget = spec
        .budget_overrides
        .get(&req.relation)
        .unwrap_or(&spec.budget);
    let mut fields = vec![
        ("seed".to_string(), Json::u64_str(spec.seed)),
        ("stream".to_string(), Json::count(i)),
    ];
    // Only the deterministic counters cross the wire; a deadline or cancel
    // token is process-local and silently dropped here.
    let mut budget_fields = Vec::new();
    if let Some(steps) = budget.max_steps {
        budget_fields.push(("max_steps".to_string(), Json::u64_str(steps)));
    }
    if let Some(attempts) = budget.max_attempts {
        budget_fields.push(("max_attempts".to_string(), Json::u64_str(attempts)));
    }
    let path = match req.class {
        QueryClass::Sample | QueryClass::Volume => {
            fields.push(("relation".to_string(), Json::str(req.relation.clone())));
            if !budget_fields.is_empty() {
                fields.push(("budget".to_string(), Json::Object(budget_fields)));
            }
            if req.class == QueryClass::Sample {
                "/v1/sample"
            } else {
                "/v1/volume"
            }
        }
        QueryClass::Reconstruction => {
            fields.push((
                "query".to_string(),
                Json::str(reconstruction_text(&req.relation)),
            ));
            fields.push(("arity".to_string(), Json::count(2)));
            fields.push(("output_arity".to_string(), Json::count(1)));
            "/v1/reconstruct"
        }
    };
    let body = Json::Object(fields);
    let (status, response) = client
        .request_json("POST", path, Some(&body))
        .map_err(|e| LoadError::Other(format!("transport: {e}")))?;
    if status != 200 {
        return Err(decode_http_error(status, &response));
    }
    match req.class {
        QueryClass::Sample => {
            let point = response
                .get("point")
                .and_then(Json::as_array)
                .ok_or_else(|| LoadError::Other("sample response without a point".into()))?
                .iter()
                .map(|v| {
                    v.as_f64()
                        .ok_or_else(|| LoadError::Other("non-numeric coordinate".into()))
                })
                .collect::<Result<Vec<f64>, _>>()?;
            Ok(Payload::Point(point))
        }
        QueryClass::Volume => response
            .get("volume")
            .and_then(Json::as_f64)
            .map(Payload::Estimate)
            .ok_or_else(|| LoadError::Other("volume response without an estimate".into())),
        QueryClass::Reconstruction => {
            let tuples = response.get("tuples").and_then(Json::as_usize);
            let digest = response.get("digest").and_then(Json::as_u64);
            match (tuples, digest) {
                (Some(tuples), Some(digest)) => Ok(Payload::Relation { tuples, digest }),
                _ => Err(LoadError::Other(
                    "reconstruct response without tuples/digest".into(),
                )),
            }
        }
    }
}

/// Maps a `cdb-server` error envelope back onto the [`LoadError`] the
/// in-process transport would have produced for the same engine failure.
fn decode_http_error(status: u16, response: &cdb_server::json::Json) -> LoadError {
    let error = response.get("error");
    let code = error
        .and_then(|e| e.get("code"))
        .and_then(cdb_server::json::Json::as_str)
        .unwrap_or("");
    match (status, code) {
        (429, _) => {
            let cause = error
                .and_then(|e| e.get("cause"))
                .and_then(cdb_server::json::Json::as_str)
                .unwrap_or("");
            match cause {
                "steps" => LoadError::Budget(BudgetTrip::Steps),
                "attempts" => LoadError::Budget(BudgetTrip::Attempts),
                "deadline" => LoadError::Budget(BudgetTrip::Deadline),
                "cancelled" => LoadError::Budget(BudgetTrip::Cancelled),
                other => LoadError::Other(format!("budget exhausted, unknown cause {other:?}")),
            }
        }
        (_, "generation_failed") => LoadError::GenerationFailed,
        (_, "unknown_relation") => LoadError::UnknownRelation,
        (_, "not_observable") => LoadError::NotObservable,
        (_, "not_estimable") => LoadError::Reconstruction,
        _ => LoadError::Other(format!("http {status} {code}")),
    }
}

/// Per-query-class latency and throughput statistics of a run.
#[derive(Clone, Debug)]
pub struct ClassStats {
    /// The query class.
    pub class: QueryClass,
    /// Requests of this class in the schedule.
    pub scheduled: usize,
    /// Requests that resolved (payload or typed error).
    pub completed: usize,
    /// Resolved requests that returned a typed error.
    pub errors: usize,
    /// Requests lost to contained worker panics.
    pub lost: usize,
    /// Completed requests per second of run wall clock.
    pub throughput_rps: f64,
    /// Median open-loop latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Worst observed latency, milliseconds.
    pub max_ms: f64,
}

/// The `q`-quantile (0 < q ≤ 1) of a sorted latency list, by the
/// nearest-rank method; 0 for an empty list.
fn percentile_ms(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e3
}

/// Folds a run into one [`ClassStats`] per query class present in the
/// schedule (classes with zero scheduled requests are omitted).
pub fn class_stats(schedule: &Schedule, report: &RunReport) -> Vec<ClassStats> {
    QueryClass::ALL
        .iter()
        .filter_map(|&class| {
            let scheduled = schedule
                .requests
                .iter()
                .filter(|r| r.class == class)
                .count();
            if scheduled == 0 {
                return None;
            }
            let mut latencies: Vec<Duration> = Vec::new();
            let mut errors = 0usize;
            let mut lost = 0usize;
            for (slot, req) in report.outcomes.iter().zip(&schedule.requests) {
                if req.class != class {
                    continue;
                }
                match slot {
                    Some(outcome) => {
                        latencies.push(outcome.latency);
                        if outcome.result.is_err() {
                            errors += 1;
                        }
                    }
                    None => lost += 1,
                }
            }
            latencies.sort();
            let wall = report.wall.as_secs_f64().max(1e-9);
            Some(ClassStats {
                class,
                scheduled,
                completed: latencies.len(),
                errors,
                lost,
                throughput_rps: latencies.len() as f64 / wall,
                p50_ms: percentile_ms(&latencies, 0.50),
                p95_ms: percentile_ms(&latencies, 0.95),
                p99_ms: percentile_ms(&latencies, 0.99),
                max_ms: latencies.last().map_or(0.0, |d| d.as_secs_f64() * 1e3),
            })
        })
        .collect()
}

/// Renders named class rows as a `cdb-load-report/v1` JSON document — the
/// schema `bench_diff` parses and gates (see [`crate::report`]).
pub fn render_report(rows: &[(String, ClassStats)], quick: bool) -> String {
    let mut json = String::from("{\n  \"schema\": \"cdb-load-report/v1\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str("  \"workloads\": [\n");
    for (i, (name, s)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{name}\", \"requests\": {}, \"completed\": {}, \
             \"errors\": {}, \"lost\": {}, \"throughput_rps\": {:.3}, \
             \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"p99_ms\": {:.4}, \"max_ms\": {:.4}}}{}\n",
            s.scheduled,
            s.completed,
            s.errors,
            s.lost,
            s.throughput_rps,
            s.p50_ms,
            s.p95_ms,
            s.p99_ms,
            s.max_ms,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Vec<String> {
        vec!["A".into(), "B".into()]
    }

    #[test]
    fn schedule_is_deterministic_and_open_loop() {
        let spec = LoadSpec::new(64, 500.0, 7, SessionMix::read_heavy());
        let a = schedule(&spec, &names());
        let b = schedule(&spec, &names());
        assert_eq!(a, b);
        assert_eq!(a.requests.len(), 64);
        // Arrivals are nondecreasing and purely schedule-driven.
        for pair in a.requests.windows(2) {
            assert!(pair[1].arrival_secs >= pair[0].arrival_secs);
        }
        // All three classes appear under the read-heavy mix at n = 64.
        assert!(a.class_counts().iter().all(|&c| c > 0));
    }

    #[test]
    fn schedule_respects_a_zero_weight_class() {
        let spec = LoadSpec::new(80, 500.0, 7, SessionMix::no_reconstruction(0.5, 0.5));
        let s = schedule(&spec, &names());
        assert_eq!(s.class_counts()[2], 0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let ms = |k: u64| Duration::from_millis(k);
        let sorted: Vec<Duration> = (1..=100).map(ms).collect();
        assert_eq!(percentile_ms(&sorted, 0.50), 50.0);
        assert_eq!(percentile_ms(&sorted, 0.95), 95.0);
        assert_eq!(percentile_ms(&sorted, 0.99), 99.0);
        assert_eq!(percentile_ms(&sorted, 1.0), 100.0);
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
        assert_eq!(percentile_ms(&[ms(7)], 0.5), 7.0);
    }

    #[test]
    fn rendered_report_roundtrips_through_the_parser() {
        let stats = ClassStats {
            class: QueryClass::Sample,
            scheduled: 10,
            completed: 9,
            errors: 1,
            lost: 1,
            throughput_rps: 123.456,
            p50_ms: 0.5,
            p95_ms: 1.25,
            p99_ms: 2.5,
            max_ms: 4.0,
        };
        let text = render_report(&[("load_demo.sample".into(), stats)], true);
        let rows = crate::report::parse_report(&text).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].workload, "load_demo.sample");
        assert_eq!(rows[0].requests, Some(10.0));
        assert_eq!(rows[0].p95_ms, Some(1.25));
        assert_eq!(rows[0].throughput_rps, Some(123.456));
    }

    #[test]
    fn payload_bits_distinguish_bitwise_differences() {
        // −0.0 == 0.0 as values but differ bitwise: the fingerprint must
        // separate them.
        let a = Payload::Point(vec![1.0, 0.0]);
        let b = Payload::Point(vec![1.0, -0.0]);
        assert_eq!(a.bits(), a.clone().bits());
        assert_ne!(a.bits(), b.bits());
        assert_ne!(
            Payload::Estimate(1.0).bits(),
            Payload::Point(vec![1.0]).bits()
        );
    }
}
