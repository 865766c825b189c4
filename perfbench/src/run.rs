//! Set-up, the measured phase and answer verification of one workload run.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cdb_core::SpatialDatabase;
use cdb_sampler::PreparedStoreStats;
use cdb_server::client::Client;
use cdb_server::json::Json;
use cdb_server::{Server, ServerConfig};

use crate::engine::{self, Answer, ExactAnswer};
use crate::stats;
use crate::workload::{OpKind, Plan, Workload};

/// Set-ups per run, and slices of the measured phase; `setup_s` is the
/// median set-up time.
pub const SETUP_REPEATS: usize = 9;
/// Client connections of `http_warm` (one per core of the reference VM).
pub const HTTP_CONNECTIONS: usize = 2;
/// Server worker threads of `http_warm`.
pub const HTTP_WORKERS: usize = 2;

/// Where a workload's ops go.
pub enum Target {
    /// Direct calls into an in-process database.
    InProcess(SpatialDatabase),
    /// A loopback `cdb-server` owning the database.
    Http(Server),
}

/// A set-up workload: plan, warmed engine and ground truth.
pub struct Prepared {
    /// The catalog and op plan.
    pub plan: Plan,
    /// The warmed engine.
    pub target: Target,
    /// Per name, the symbolic answer of its reconstruction query.
    pub exact: Vec<Option<ExactAnswer>>,
}

/// Builds a database holding the plan's initial catalog.
pub fn build_db(plan: &Plan) -> SpatialDatabase {
    let mut db = SpatialDatabase::with_params(plan.params);
    for (name, &body) in plan.names.iter().zip(&plan.initial) {
        db.insert(name.as_str(), plan.bodies[body].relation.clone());
    }
    db
}

/// Seed of the warm-up pass, distinct from every op's item stream.
fn warmup_seed(plan: &Plan) -> u64 {
    plan.seed ^ 0x5741_524D_5550_0000
}

/// The warm-up request of name `rel`: one seeded point.
fn warmup_body(plan: &Plan, rel: usize) -> Json {
    Json::Object(vec![
        ("relation".to_string(), Json::str(plan.names[rel].clone())),
        ("seed".to_string(), Json::u64_str(warmup_seed(plan))),
        ("stream".to_string(), Json::count(rel)),
    ])
}

/// Builds the catalog, starts the server (for `http_warm`), prepares every
/// body with one warm-up draw per name and computes exact answers.
pub fn setup(workload: Workload, seed: u64, ops: usize) -> Result<Prepared, String> {
    let plan = Plan::new(workload, seed, ops);
    let db = build_db(&plan);
    let mut exact = vec![None; plan.names.len()];
    let warm = cdb_sampler::SeedSequence::new(warmup_seed(&plan));
    let target = match workload {
        Workload::WarmInproc | Workload::ChurnInproc => {
            for &rel in &plan.warm {
                let name = &plan.names[rel];
                let spec = cdb_core::QuerySpec::sample(name.as_str(), 1);
                db.query_with_rng(&spec, &mut warm.item_stream(rel).rng())
                    .map_err(|e| format!("warm-up of {name}: {e}"))?;
            }
            Target::InProcess(db)
        }
        Workload::HttpWarm => {
            let config = ServerConfig {
                workers: HTTP_WORKERS,
                ..ServerConfig::default()
            };
            let server = Server::start_with_db(config, db).map_err(|e| e.to_string())?;
            let mut client = Client::new(server.addr());
            for &rel in &plan.warm {
                let response = client
                    .request("POST", "/v1/sample", Some(&warmup_body(&plan, rel)))
                    .map_err(|e| e.to_string())?;
                if response.status != 200 {
                    return Err(format!("warm-up answered {}", response.status));
                }
            }
            Target::Http(server)
        }
        Workload::Recon2d => {
            for (rel, slot) in exact.iter_mut().enumerate() {
                *slot = Some(engine::exact_answer(&db, &plan, rel)?);
            }
            // Reconstruction bypasses the prepared store; one query warms
            // the allocator and the lazily built tables.
            let query = plan.queries[0].clone().ok_or("no query")?;
            let spec = cdb_core::QuerySpec::reconstruct("warm-up", query, 2);
            db.query_with_rng(&spec, &mut warm.item_stream(0).rng())
                .map_err(|e| format!("warm-up reconstruction: {e}"))?;
            Target::InProcess(db)
        }
    };
    Ok(Prepared {
        plan,
        target,
        exact,
    })
}

/// Times one [`setup`]; returns it with its wall time in seconds.
fn timed_setup(workload: Workload, seed: u64, ops: usize) -> Result<(Prepared, f64), String> {
    let started = Instant::now();
    let prepared = setup(workload, seed, ops)?;
    Ok((prepared, started.elapsed().as_secs_f64()))
}

/// Sets the workload up and measures its plan, timing [`SETUP_REPEATS`]
/// set-ups in all: the first builds the measured target, and the others
/// run between the slices of the measured phase and are dropped. So
/// `setup_s`, their median, samples the machine's speed across the whole
/// run, as the latency figures do, rather than over its first second.
/// Returns the set-up, the measured phase and `setup_s`.
pub fn setup_and_measure(
    workload: Workload,
    seed: u64,
    ops: usize,
    connections: usize,
) -> Result<(Prepared, Measured, f64), String> {
    let (mut prepared, first) = timed_setup(workload, seed, ops)?;
    let mut times = vec![first];
    let measured = measure(&mut prepared, connections, SETUP_REPEATS, || {
        let (extra, seconds) = timed_setup(workload, seed, ops)?;
        // Drop (and shut down) the extra set-up before the next slice.
        drop(extra);
        times.push(seconds);
        Ok(())
    })?;
    Ok((prepared, measured, stats::median(&times)))
}

/// Hit/miss/eviction counters of the engine's prepared store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCounts {
    /// Lookups served from the store.
    pub hits: u64,
    /// Lookups that prepared a body.
    pub misses: u64,
    /// Bodies evicted.
    pub evictions: u64,
}

impl StoreCounts {
    fn of(stats: PreparedStoreStats) -> Self {
        StoreCounts {
            hits: stats.hits,
            misses: stats.misses,
            evictions: stats.evictions,
        }
    }

    fn minus(self, before: StoreCounts) -> StoreCounts {
        StoreCounts {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
        }
    }
}

/// The server's `/v1/stats` document.
pub fn server_stats(addr: SocketAddr) -> Result<Json, String> {
    let (status, json) = Client::new(addr)
        .request_json("GET", "/v1/stats", None)
        .map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("/v1/stats answered {status}"));
    }
    Ok(json)
}

fn server_store(addr: SocketAddr) -> Result<StoreCounts, String> {
    let stats = server_stats(addr)?;
    let store = stats.get("store").ok_or("no store stats")?;
    let field = |k: &str| store.get(k).and_then(Json::as_u64).ok_or(format!("no {k}"));
    Ok(StoreCounts {
        hits: field("hits")?,
        misses: field("misses")?,
        evictions: field("evictions")?,
    })
}

/// One op's latency and answer.
type TimedAnswer = (Duration, Result<Answer, String>);

/// The outcome of the measured phase.
pub struct Measured {
    /// Latency of op `i`.
    pub latencies: Vec<Duration>,
    /// Answer of op `i`.
    pub answers: Vec<Result<Answer, String>>,
    /// Wall time of the phase (the sum over its slices).
    pub wall: Duration,
    /// Store counter deltas over the phase.
    pub store: StoreCounts,
}

/// The store counters of the target's engine.
fn store_counts(target: &Target) -> Result<StoreCounts, String> {
    match target {
        Target::InProcess(db) => Ok(StoreCounts::of(db.store_stats())),
        Target::Http(server) => server_store(server.addr()),
    }
}

/// Runs every op of the plan once, closed loop: one client thread in
/// process, `connections` keep-alive connections over HTTP. The plan runs
/// in `slices` consecutive slices with `between` called between each two;
/// the time spent in `between` counts in neither latency nor wall time.
pub fn measure(
    prepared: &mut Prepared,
    connections: usize,
    slices: usize,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<Measured, String> {
    let plan = &prepared.plan;
    let n = plan.ops.len();
    let slices = slices.clamp(1, n.max(1));
    let before = store_counts(&prepared.target)?;
    let mut slots: Vec<Option<TimedAnswer>> = (0..n).map(|_| None).collect();
    let mut wall = Duration::ZERO;
    for k in 0..slices {
        if k > 0 {
            between()?;
        }
        let slice = k * n / slices..(k + 1) * n / slices;
        let started = Instant::now();
        match &mut prepared.target {
            Target::InProcess(db) => {
                for i in slice {
                    let t = Instant::now();
                    let answer = engine::run_inproc(db, plan, i);
                    slots[i] = Some((t.elapsed(), answer));
                }
            }
            Target::Http(server) => {
                let addr = server.addr();
                let next = AtomicUsize::new(slice.start);
                let shared = Mutex::new(&mut slots);
                std::thread::scope(|scope| {
                    for _ in 0..connections.max(1) {
                        scope.spawn(|| {
                            let mut client = Client::new(addr);
                            let mut done = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= slice.end {
                                    break;
                                }
                                let t = Instant::now();
                                let answer = engine::run_http(&mut client, plan, i);
                                done.push((i, t.elapsed(), answer));
                            }
                            let mut slots = shared.lock().expect("no client thread panics");
                            for (i, latency, answer) in done {
                                slots[i] = Some((latency, answer));
                            }
                        });
                    }
                });
            }
        }
        wall += started.elapsed();
    }
    let store = store_counts(&prepared.target)?.minus(before);
    let (latencies, answers) = slots
        .into_iter()
        .map(|slot| slot.expect("every op ran"))
        .unzip();
    Ok(Measured {
        latencies,
        answers,
        wall,
        store,
    })
}

/// The verdict on a measured phase's answers.
pub struct Verdict {
    /// Failed ops.
    pub failed: usize,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Mean answer error in percent over the ops that carry one.
    pub answer_err_pct: f64,
}

/// Checks every answer against ground truth; over HTTP, also replays the
/// plan in process and requires bitwise-equal answers.
pub fn verify(prepared: &Prepared, measured: &Measured) -> Verdict {
    let plan = &prepared.plan;
    let mut reference = match prepared.target {
        Target::Http(_) => Some(build_db(plan)),
        Target::InProcess(_) => None,
    };
    let mut failures = Vec::new();
    let mut failed = 0;
    let mut errors = Vec::new();
    for (i, answer) in measured.answers.iter().enumerate() {
        let outcome = answer.as_ref().map_err(Clone::clone).and_then(|a| {
            if let Some(db) = reference.as_mut() {
                let want = engine::run_inproc(db, plan, i)?;
                if !a.same_bits(&want) {
                    return Err(format!(
                        "HTTP answer {a:?} differs from in-process {want:?}"
                    ));
                }
            }
            engine::check(plan, i, a, &prepared.exact)
        });
        match outcome {
            Ok(Some(err)) => errors.push(err),
            Ok(None) => {}
            Err(message) => {
                failed += 1;
                if failures.len() < 5 {
                    failures.push(format!("op {i} ({}): {message}", plan.ops[i].kind.label()));
                }
            }
        }
    }
    Verdict {
        failed,
        failures,
        answer_err_pct: stats::mean(&errors),
    }
}

/// The end-to-end metrics of one run: `(name, value, unit)`.
pub fn end_to_end(
    measured: &Measured,
    verdict: &Verdict,
    setup_s: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let ms: Vec<f64> = measured
        .latencies
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    vec![
        (
            "throughput_qps",
            measured.latencies.len() as f64 / measured.wall.as_secs_f64(),
            "1/s",
        ),
        ("p50_ms", stats::percentile(&ms, 0.50), "ms"),
        ("p90_ms", stats::percentile(&ms, 0.90), "ms"),
        ("answer_err_pct", verdict.answer_err_pct, "%"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", stats::peak_rss_mb(), "MB"),
    ]
}

/// The op class at percentile `q` of the latency order, and the number of
/// ops strictly beyond it.
pub fn class_at(plan: &Plan, measured: &Measured, q: f64) -> (OpKind, usize) {
    let mut order: Vec<usize> = (0..measured.latencies.len()).collect();
    order.sort_by_key(|&i| measured.latencies[i]);
    let rank = stats::rank(order.len(), q);
    (plan.ops[order[rank - 1]].kind, order.len() - rank)
}
