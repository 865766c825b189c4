//! The traced run: spans around each layer's public entry points, kept in
//! memory and written out at exit, folded into the per-layer metrics.
//!
//! The replay calls each layer's public function on the inputs the workload
//! feeds it: `CanonicalKey::of_relation`, `UnionGenerator::new` + `prepare`,
//! the copy-on-attach clone, `UnionGenerator::sample` / `estimate_volume`,
//! `batch::fan_out_contained`, `Database::resolve`, `ProjectionGenerator`,
//! `hull_to_hpolytope`, the HTTP client and the JSON codec. The engine's own
//! entry points (`SpatialDatabase::query*`) are timed as separate `core.*`
//! roots. The replay keeps its own prepared bodies (the engine's
//! preparation-seed derivation is private), so its sampler bits differ from
//! the engine's; answers and their checks come from the untraced phase.
//! `trace.overhead_pct` therefore compares each plan op's traced call (its
//! `core.*` root in process, its `http` root over HTTP) with the same op's
//! untraced latency, not the replay.
//!
//! A layer that a workload's plan does not reach is still timed on that
//! workload's catalog by a short probe (e.g. a loopback server for the
//! in-process workloads), because every traced run must print every
//! per-layer metric; the benchmark README maps each metric to the workload
//! it is meant for.

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cdb_constraint::{parse_formula, CanonicalKey, Formula, GeneralizedRelation};
use cdb_core::{QuerySpec, SpatialDatabase};
use cdb_geometry::hull::hull_to_hpolytope;
use cdb_linalg::Vector;
use cdb_sampler::{
    batch, ProjectionGenerator, QueryBudget, RelationGenerator, RelationVolumeEstimator,
    SeedSequence, UnionGenerator, DEFAULT_PREPARED_STORE_CAPACITY,
};
use cdb_server::client::Client;
use cdb_server::json::{parse, Json, DEFAULT_MAX_DEPTH};
use cdb_server::{Server, ServerConfig};

use crate::engine;
use crate::run::{self, Measured, Prepared, Target};
use crate::workload::{Op, OpKind, Plan, BATCH_N};
use crate::Metric;

/// Op id of spans that belong to no op (set-up and probes).
const NO_OP: usize = usize::MAX;
/// Names a probe covers.
const PROBE_NAMES: usize = 12;
/// Names the reconstruction probe of the 2-D catalogs covers.
const PROBE_RECONSTRUCTIONS: usize = 4;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer entry point.
    pub name: &'static str,
    /// Plan op the span belongs to ([`NO_OP`] for set-up and probes).
    pub op: usize,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start offset.
    pub start: u64,
    /// End offset.
    pub end: u64,
}

impl Span {
    fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// An in-memory span recorder, shared by fan-out worker threads.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span; `f` receives the span's id for its children.
    pub fn span<T>(
        &self,
        name: &'static str,
        op: usize,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = {
            let mut spans = self.spans.lock().expect("span recorder lock");
            spans.push(Span {
                name,
                op,
                parent,
                start: self.now(),
                end: 0,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now();
        self.spans.lock().expect("span recorder lock")[id].end = end;
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span recorder lock")
    }
}

/// Per span, the time its children cover (the union of their intervals,
/// clipped to the span).
pub fn covered_nanos(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            covered
        })
        .collect()
}

/// Exact work counts gathered by the replay.
#[derive(Default)]
struct Counts {
    /// Sampler ops replayed (sample, batch16 and volume ops).
    sampler_ops: u64,
    walk_steps: u64,
    attempts: u64,
    /// Draws and successes of single-point sampling.
    sample_attempts: u64,
    samples_accepted: u64,
    pieces: u64,
    piece_samples: u64,
    hull_facets: u64,
    http_ops: u64,
    http_bytes: u64,
}

/// A budget no replay reaches: it only switches the meters on.
fn counting_budget() -> QueryBudget {
    QueryBudget::unlimited()
        .with_max_steps(u64::MAX / 2)
        .with_max_attempts(u64::MAX / 2)
}

/// The replay's own prepared store: canonical-key memo plus an LRU of
/// prepared bodies with the engine store's capacity.
struct Replay<'a> {
    tracer: &'a Tracer,
    plan: &'a Plan,
    keys: HashMap<usize, CanonicalKey>,
    bodies: HashMap<CanonicalKey, (UnionGenerator, u64)>,
    clock: u64,
    counts: Counts,
}

impl<'a> Replay<'a> {
    fn new(tracer: &'a Tracer, plan: &'a Plan) -> Self {
        Replay {
            tracer,
            plan,
            keys: HashMap::new(),
            bodies: HashMap::new(),
            clock: 0,
            counts: Counts::default(),
        }
    }

    /// Key lookup, store hit or prepare, then the copy-on-attach clone.
    fn attach(
        &mut self,
        op: usize,
        parent: Option<usize>,
        rel: usize,
        relation: &GeneralizedRelation,
    ) -> Result<UnionGenerator, String> {
        let t = self.tracer;
        let key = match self.keys.get(&rel) {
            Some(key) => key.clone(),
            None => {
                let key = t.span("constraint.canonical_key", op, parent, |_| {
                    CanonicalKey::of_relation(relation)
                });
                self.keys.insert(rel, key.clone());
                key
            }
        };
        self.clock += 1;
        if !self.bodies.contains_key(&key) {
            let params = self.plan.params;
            let body = t.span("store.prepare", op, parent, |_| {
                let mut g = UnionGenerator::new(relation, params).map_err(|e| e.to_string())?;
                g.prepare(&SeedSequence::new(key.hash64()));
                Ok::<_, String>(g)
            })?;
            if self.bodies.len() >= DEFAULT_PREPARED_STORE_CAPACITY {
                let oldest = self
                    .bodies
                    .iter()
                    .min_by_key(|(_, (_, stamp))| *stamp)
                    .map(|(k, _)| k.clone())
                    .expect("a full store has an oldest entry");
                self.bodies.remove(&oldest);
            }
            self.bodies.insert(key.clone(), (body, 0));
        }
        let entry = self.bodies.get_mut(&key).expect("present after insert");
        entry.1 = self.clock;
        let body = &entry.0;
        let mut g = t.span("store.attach_clone", op, parent, |_| body.clone());
        g.set_budget(counting_budget());
        Ok(g)
    }

    /// The layer decomposition of a sample, batch16 or volume op.
    fn sampler_op(&mut self, id: usize, op: Op, stream: SeedSequence) -> Result<(), String> {
        let t = self.tracer;
        let plan = self.plan;
        t.span("op", id, None, |root| {
            let relation = &plan.bodies[op.body].relation;
            let mut g = self.attach(id, Some(root), op.rel, relation)?;
            self.counts.sampler_ops += 1;
            match op.kind {
                OpKind::Sample => {
                    let point = t.span("sampler.sample", id, Some(root), |_| {
                        g.sample(&mut stream.rng())
                    });
                    self.count_draw(&g, point.is_some());
                }
                OpKind::Volume => {
                    t.span("sampler.volume", id, Some(root), |_| {
                        g.estimate_volume(&mut stream.rng())
                    });
                    let meter = g.budget_meter();
                    self.counts.walk_steps += meter.steps_used();
                    self.counts.attempts += meter.attempts_used();
                }
                OpKind::Batch => {
                    let report = t.span("sampler.fanout", id, Some(root), |fan| {
                        batch::fan_out_contained(
                            BATCH_N,
                            0,
                            || g.clone(),
                            |g, k| {
                                let point = t.span("sampler.sample", id, Some(fan), |_| {
                                    g.sample(&mut stream.item_stream(k).rng())
                                });
                                let meter = g.budget_meter();
                                (point.is_some(), meter.steps_used(), meter.attempts_used())
                            },
                        )
                    });
                    for (ok, steps, attempts) in report.slots.into_iter().flatten() {
                        self.counts.walk_steps += steps;
                        self.counts.attempts += attempts;
                        self.counts.sample_attempts += attempts;
                        self.counts.samples_accepted += u64::from(ok);
                    }
                }
                other => unreachable!("{} is not a sampler op", other.label()),
            }
            Ok(())
        })
    }

    fn count_draw(&mut self, g: &UnionGenerator, accepted: bool) {
        let meter = g.budget_meter();
        self.counts.walk_steps += meter.steps_used();
        self.counts.attempts += meter.attempts_used();
        self.counts.sample_attempts += meter.attempts_used();
        self.counts.samples_accepted += u64::from(accepted);
    }

    /// The layer decomposition of a reconstruction (Algorithms 4/2 and the
    /// hull), drawing from the same stream in the same order as the engine.
    fn reconstruct_op(
        &mut self,
        id: usize,
        db: &SpatialDatabase,
        query: &Formula,
        output_arity: usize,
        stream: SeedSequence,
    ) -> Result<(), String> {
        let t = self.tracer;
        let params = self.plan.params;
        let (exists, body) = match query {
            Formula::Exists(vars, body) => (vars.clone(), (**body).clone()),
            other => (Vec::new(), other.clone()),
        };
        let n = cdb_reconstruct::default_hull_sample_size(output_arity, params.eps, params.delta);
        let keep: Vec<usize> = (0..output_arity).collect();
        let mut rng = stream.rng();
        t.span("op", id, None, |root| {
            let relation = t.span("constraint.resolve", id, Some(root), |_| {
                let resolved = db.database().resolve(&body).map_err(|e| e.to_string())?;
                let ambient = resolved
                    .min_arity()
                    .max(output_arity)
                    .max(exists.iter().map(|v| v + 1).max().unwrap_or(0));
                GeneralizedRelation::from_formula(ambient, &resolved).map_err(|e| e.to_string())
            })?;
            for tuple in relation.tuples() {
                if tuple.closure_is_empty() {
                    continue;
                }
                let built = t.span("reconstruct.projection_build", id, Some(root), |_| {
                    ProjectionGenerator::new(tuple, &keep, params, &mut rng)
                });
                let Ok(mut generator) = built else { continue };
                let samples = t.span("reconstruct.projection_sample", id, Some(root), |_| {
                    generator.sample_many(n, &mut rng)
                });
                self.counts.pieces += 1;
                self.counts.piece_samples += samples.len() as u64;
                let points: Vec<Vector> =
                    samples.iter().map(|p| Vector::from(p.as_slice())).collect();
                let hull = t.span("geometry.hull", id, Some(root), |_| {
                    hull_to_hpolytope(&points)
                });
                self.counts.hull_facets += hull.map_or(0, |h| h.halfspaces().len() as u64);
            }
            Ok(())
        })
    }
}

/// Builds a database through traced inserts and warms both the engine's
/// store and the replay's, mirroring [`run::setup`].
fn traced_setup(replay: &mut Replay<'_>) -> Result<SpatialDatabase, String> {
    let (t, plan) = (replay.tracer, replay.plan);
    let mut db = SpatialDatabase::with_params(plan.params);
    for (name, &body) in plan.names.iter().zip(&plan.initial) {
        let relation = plan.bodies[body].relation.clone();
        t.span("constraint.insert", NO_OP, None, |_| {
            db.insert(name.as_str(), relation)
        });
    }
    let warm = SeedSequence::new(plan.seed).setup_stream().child(5);
    for &rel in &plan.warm {
        replay.attach(NO_OP, None, rel, &plan.bodies[plan.initial[rel]].relation)?;
        let spec = QuerySpec::sample(plan.names[rel].as_str(), 1);
        db.query_with_rng(&spec, &mut warm.item_stream(rel).rng())
            .map_err(|e| e.to_string())?;
    }
    Ok(db)
}

/// Sample, batch16 and volume ops over the first [`PROBE_NAMES`] warm names
/// (every name of a catalog without a warm set).
fn probe_plan(plan: &Plan) -> Plan {
    let names: Vec<usize> = if plan.warm.is_empty() {
        (0..plan.names.len()).collect()
    } else {
        plan.warm.clone()
    };
    let mut probe = plan.clone();
    probe.ops = names
        .into_iter()
        .take(PROBE_NAMES)
        .flat_map(|rel| {
            [OpKind::Sample, OpKind::Batch, OpKind::Volume].map(|kind| Op {
                kind,
                rel,
                body: plan.initial[rel],
            })
        })
        .collect();
    probe
}

/// Per-endpoint request count and total handler microseconds of the query
/// endpoints, from `/v1/stats`.
fn handler_totals(server: &Server) -> Result<(u64, u64), String> {
    let stats = run::server_stats(server.addr())?;
    let endpoints = stats.get("endpoints").ok_or("no endpoint stats")?;
    let mut totals = (0, 0);
    for name in ["sample", "sample_batch", "volume"] {
        let e = endpoints.get(name).ok_or("missing endpoint")?;
        totals.0 += e.get("requests").and_then(Json::as_u64).unwrap_or(0);
        totals.1 += e.get("total_micros").and_then(Json::as_u64).unwrap_or(0);
    }
    Ok(totals)
}

/// Sends every op of `plan` with codec and round-trip spans, closed loop
/// over [`run::HTTP_CONNECTIONS`] connections like the measured phase;
/// returns the mean handler time in microseconds from `/v1/stats`.
fn http_ops(
    tracer: &Tracer,
    counts: &mut Counts,
    server: &Server,
    plan: &Plan,
    op_ids: impl Fn(usize) -> usize + Sync,
) -> Result<f64, String> {
    let before = handler_totals(server)?;
    let next = AtomicUsize::new(0);
    let totals = Mutex::new((0u64, 0u64));
    let client_loop = || -> Result<(), String> {
        let mut client = Client::new(server.addr());
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= plan.ops.len() {
                return Ok(());
            }
            let (path, body) = engine::http_request(plan, i);
            let id = op_ids(i);
            // The codec's render on its own: the client renders the body
            // again inside the round trip, so the `http` root below does the
            // same work as an untraced op.
            let text = tracer.span("server.json_render", id, None, |_| body.render());
            let response = tracer.span("http", id, None, |root| {
                let response = tracer.span("server.roundtrip", id, Some(root), |_| {
                    client.request("POST", path, Some(&body))
                });
                let response = response.map_err(|e| e.to_string())?;
                if response.status != 200 {
                    return Err(format!("{path} answered {}", response.status));
                }
                let parsed = tracer.span("server.json_parse", id, Some(root), |_| {
                    parse(&response.body, DEFAULT_MAX_DEPTH)
                });
                engine::decode_json(plan.ops[i].kind, &parsed.map_err(|e| e.to_string())?)?;
                Ok(response)
            })?;
            let mut totals = totals.lock().expect("no client thread panics");
            totals.0 += 1;
            totals.1 += (text.len() + response.body.len()) as u64;
        }
    };
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..run::HTTP_CONNECTIONS)
            .map(|_| scope.spawn(client_loop))
            .collect();
        clients
            .into_iter()
            .try_for_each(|c| c.join().expect("client threads return errors, not panics"))
    })?;
    let (ops, bytes) = totals.into_inner().expect("no client thread panics");
    counts.http_ops += ops;
    counts.http_bytes += bytes;
    let after = handler_totals(server)?;
    let requests = (after.0 - before.0).max(1);
    Ok((after.1 - before.1) as f64 / requests as f64)
}

/// Runs the traced replay of a set-up, measured workload and returns its
/// per-layer metrics. Spans are written to `out/` under the benchmark
/// directory.
pub fn traced_run(prepared: &Prepared, measured: &Measured) -> Result<Vec<Metric>, String> {
    let tracer = Tracer::default();
    let plan = &prepared.plan;
    let mut replay = Replay::new(&tracer, plan);
    let t = &tracer;

    // Set-up layers: inserts, keys, prepares and the symbolic comparator.
    let mut db = traced_setup(&mut replay)?;
    let recon_queries: Vec<(usize, Formula, usize)> = if plan.count(OpKind::Reconstruct) > 0 {
        (0..plan.names.len())
            .map(|rel| (rel, plan.queries[rel].clone().expect("query per name"), 2))
            .collect()
    } else {
        (0..PROBE_RECONSTRUCTIONS.min(plan.names.len()))
            .map(|rel| {
                let text = format!("exists x1. {}(x0, x1)", plan.names[rel]);
                let q = parse_formula(&text, 2).map_err(|e| e.to_string())?;
                Ok((rel, q, 1))
            })
            .collect::<Result<_, String>>()?
    };
    for (_, query, arity) in &recon_queries {
        t.span("constraint.exact_eval", NO_OP, None, |_| {
            db.evaluate_exact(query, *arity)
        })
        .map_err(|e| e.to_string())?;
    }

    // The plan: engine entry points as `core.*` roots, the layer
    // decomposition as `op` roots.
    let mut handler_us = None;
    for (i, &op) in plan.ops.iter().enumerate() {
        let stream = plan.stream(i);
        let core = match op.kind {
            OpKind::Sample => "core.sample",
            OpKind::Batch => "core.batch16",
            OpKind::Volume => "core.volume",
            OpKind::Reconstruct => "core.reconstruct",
            OpKind::Insert => {
                replay.keys.remove(&op.rel);
                let relation = plan.bodies[op.body].relation.clone();
                t.span("op", i, None, |root| {
                    t.span("constraint.insert", i, Some(root), |_| {
                        db.insert(plan.names[op.rel].as_str(), relation)
                    });
                });
                continue;
            }
        };
        t.span(core, i, None, |_| engine::run_inproc(&mut db, plan, i))?;
        if op.kind == OpKind::Reconstruct {
            let query = plan.queries[op.rel].as_ref().ok_or("no query")?;
            replay.reconstruct_op(i, &db, query, 2, stream)?;
        } else if !matches!(prepared.target, Target::Http(_)) {
            replay.sampler_op(i, op, stream)?;
        }
    }
    if let Target::Http(server) = &prepared.target {
        handler_us = Some(http_ops(t, &mut replay.counts, server, plan, |i| i)?);
        // The in-process layer decomposition of the same ops.
        for (i, &op) in plan.ops.iter().enumerate() {
            replay.sampler_op(NO_OP, op, plan.stream(i))?;
        }
    }

    // Probes of the layers the plan does not reach.
    let probe = probe_plan(plan);
    if plan.count(OpKind::Sample) == 0 {
        // An untimed pass prepares the engine's bodies first.
        for i in 0..probe.ops.len() {
            engine::run_inproc(&mut db, &probe, i)?;
        }
        for (i, &op) in probe.ops.iter().enumerate() {
            let core = match op.kind {
                OpKind::Sample => "core.sample",
                OpKind::Batch => "core.batch16",
                _ => "core.volume",
            };
            t.span(core, NO_OP, None, |_| {
                engine::run_inproc(&mut db, &probe, i)
            })?;
            replay.sampler_op(NO_OP, op, probe.stream(i))?;
        }
    }
    if plan.count(OpKind::Reconstruct) == 0 {
        for (rel, query, arity) in &recon_queries {
            let stream = SeedSequence::new(plan.seed)
                .setup_stream()
                .child(7 + *rel as u64);
            let spec = QuerySpec::reconstruct(plan.names[*rel].as_str(), query.clone(), *arity);
            t.span("core.reconstruct", NO_OP, None, |_| {
                db.query_with_rng(&spec, &mut stream.rng())
            })
            .map_err(|e| e.to_string())?;
            replay.reconstruct_op(NO_OP, &db, query, *arity, stream)?;
        }
    }
    if handler_us.is_none() {
        let config = ServerConfig {
            workers: run::HTTP_WORKERS,
            ..ServerConfig::default()
        };
        let server =
            Server::start_with_db(config, run::build_db(&probe)).map_err(|e| e.to_string())?;
        // An unrecorded warm pass first, so the timed pass measures served
        // (not prepared) ops.
        http_ops(
            &Tracer::default(),
            &mut Counts::default(),
            &server,
            &probe,
            |_| NO_OP,
        )?;
        handler_us = Some(http_ops(t, &mut replay.counts, &server, &probe, |_| NO_OP)?);
    }

    let counts = std::mem::take(&mut replay.counts);
    drop(replay);
    let spans = tracer.into_spans();
    write_spans(plan, &spans);
    let http = matches!(prepared.target, Target::Http(_));
    Ok(metrics(
        &spans,
        &counts,
        measured,
        handler_us.unwrap_or(0.0),
        http,
    ))
}

/// Whether `span` is the traced form of a plan op's untraced call: the
/// `core.*` engine call in process, the whole exchange (`http`) over HTTP.
fn times_plan_call(span: &Span, http: bool) -> bool {
    let call = if http {
        span.name == "http"
    } else {
        span.name.starts_with("core.")
    };
    call && span.parent.is_none() && span.op != NO_OP
}

fn metrics(
    spans: &[Span],
    c: &Counts,
    measured: &Measured,
    handler_us: f64,
    http: bool,
) -> Vec<Metric> {
    let covered = covered_nanos(spans);
    let mean = |name: &str, scale: f64| {
        let ds: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64 / scale)
            .collect();
        crate::stats::mean(&ds)
    };
    let (us, ms) = (1e3, 1e6);
    let fanout_self: Vec<f64> = spans
        .iter()
        .zip(&covered)
        .filter(|(s, _)| s.name == "sampler.fanout")
        .map(|(s, c)| (s.nanos() - c) as f64 / us)
        .collect();
    // Coverage over the plan's layer decompositions; overhead compares each
    // plan op's traced call with the same op's untraced latency.
    let mut op_nanos = 0u64;
    let mut op_covered = 0u64;
    let (mut traced, mut untraced) = (0u128, 0u128);
    for (s, c) in spans.iter().zip(&covered) {
        if matches!(s.name, "op" | "http") && s.parent.is_none() && s.op != NO_OP {
            op_nanos += s.nanos();
            op_covered += c;
        }
        if times_plan_call(s, http) {
            traced += u128::from(s.nanos());
            untraced += measured.latencies[s.op].as_nanos();
        }
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let per_op = |x: u64| ratio(x as f64, c.sampler_ops as f64);
    let store = measured.store;
    let roundtrip_us = mean("server.roundtrip", us);
    vec![
        ("core.sample_us", mean("core.sample", us), "us"),
        ("core.batch16_us", mean("core.batch16", us), "us"),
        ("core.volume_us", mean("core.volume", us), "us"),
        ("core.reconstruct_ms", mean("core.reconstruct", ms), "ms"),
        (
            "store.attach_clone_us",
            mean("store.attach_clone", us),
            "us",
        ),
        ("store.prepare_ms", mean("store.prepare", ms), "ms"),
        ("store.hits", store.hits as f64, "count"),
        ("store.misses", store.misses as f64, "count"),
        ("store.evictions", store.evictions as f64, "count"),
        (
            "store.hit_pct",
            100.0 * ratio(store.hits as f64, (store.hits + store.misses) as f64),
            "%",
        ),
        ("sampler.sample_us", mean("sampler.sample", us), "us"),
        ("sampler.volume_us", mean("sampler.volume", us), "us"),
        (
            "sampler.fanout_self_us",
            crate::stats::mean(&fanout_self),
            "us",
        ),
        ("sampler.walk_steps_per_op", per_op(c.walk_steps), "count"),
        ("sampler.attempts_per_op", per_op(c.attempts), "count"),
        (
            "sampler.accept_pct",
            100.0 * ratio(c.samples_accepted as f64, c.sample_attempts as f64),
            "%",
        ),
        (
            "constraint.canonical_key_us",
            mean("constraint.canonical_key", us),
            "us",
        ),
        ("constraint.insert_us", mean("constraint.insert", us), "us"),
        (
            "constraint.resolve_us",
            mean("constraint.resolve", us),
            "us",
        ),
        (
            "constraint.exact_eval_ms",
            mean("constraint.exact_eval", ms),
            "ms",
        ),
        (
            "reconstruct.projection_build_ms",
            mean("reconstruct.projection_build", ms),
            "ms",
        ),
        (
            "reconstruct.projection_sample_ms",
            mean("reconstruct.projection_sample", ms),
            "ms",
        ),
        (
            "reconstruct.samples_per_piece",
            ratio(c.piece_samples as f64, c.pieces as f64),
            "count",
        ),
        ("geometry.hull_ms", mean("geometry.hull", ms), "ms"),
        (
            "geometry.hull_facets",
            ratio(c.hull_facets as f64, c.pieces as f64),
            "count",
        ),
        ("server.roundtrip_us", roundtrip_us, "us"),
        ("server.handler_us", handler_us, "us"),
        ("server.transport_us", roundtrip_us - handler_us, "us"),
        ("server.json_parse_us", mean("server.json_parse", us), "us"),
        (
            "server.json_render_us",
            mean("server.json_render", us),
            "us",
        ),
        (
            "server.bytes_per_op",
            ratio(c.http_bytes as f64, c.http_ops as f64),
            "B",
        ),
        (
            "trace.coverage_pct",
            100.0 * ratio(op_covered as f64, op_nanos as f64),
            "%",
        ),
        (
            "trace.overhead_pct",
            100.0 * (ratio(traced as f64, untraced as f64) - 1.0),
            "%",
        ),
    ]
}

/// Writes the spans as tab-separated text to
/// `out/trace-<workload>-<seed>.tsv` under the benchmark directory. A
/// failed write is reported on stderr and does not fail the run.
fn write_spans(plan: &Plan, spans: &[Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-{}.tsv", plan.workload.name(), plan.seed));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(out, "id\tname\top\tparent\tstart_ns\tend_ns")?;
        for (id, s) in spans.iter().enumerate() {
            let op = if s.op == NO_OP {
                "-".to_string()
            } else {
                s.op.to_string()
            };
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{op}\t{parent}\t{}\t{}",
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    };
    if let Err(e) = write() {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_merges_overlapping_children() {
        let span = |start, end, parent| Span {
            name: "x",
            op: 0,
            parent,
            start,
            end,
        };
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),
            span(90, 120, Some(0)),
        ];
        assert_eq!(covered_nanos(&spans)[0], 50 + 10);
        assert_eq!(covered_nanos(&spans)[1], 0);
    }
}
