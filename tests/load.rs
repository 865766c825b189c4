//! End-to-end tests of a mixed query load over a polytope soup.
//!
//! A seeded read-heavy plan of one-point samples, one-repeat volumes and
//! `exists x1. R(x0, x1)` reconstructions runs over the contained batch
//! fan-out. Every request must *resolve* — to a class-appropriate answer or
//! a typed error, never a silent drop — and the same plan replayed against
//! a loopback `cdb-server` must answer the same bits: both sides fund
//! request `i` from `SeedSequence::new(seed).item_stream(i)`, which the
//! HTTP side sends as `"seed"`/`"stream"`.

use cdb_constraint::parse_formula;
use cdb_core::{QuerySpec, SpatialDatabase, SpatialDbError};
use cdb_sampler::batch::fan_out_contained;
use cdb_sampler::{GeneratorParams, QueryBudget, SeedSequence};
use cdb_server::api_types::relation_digest;
use cdb_server::client::Client;
use cdb_server::json::Json;
use cdb_server::{AppError, Server, ServerConfig};
use cdb_workloads::sessions::{polytope_soup, SessionMix, SoupSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Request count of the mixed-session run.
const REQUESTS: usize = 150;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Class {
    Sample,
    Volume,
    Reconstruction,
}

const CLASSES: [Class; 3] = [Class::Sample, Class::Volume, Class::Reconstruction];

#[derive(Debug)]
struct Request {
    class: Class,
    relation: String,
}

/// A resolved request: the answer's bits, or the typed error as the
/// service reports it (status, code and budget cause).
#[derive(Debug, PartialEq)]
enum Answer {
    Point(Vec<u64>),
    Volume(u64),
    Relation { tuples: usize, digest: u64 },
    Error(u16, String, Option<String>),
}

fn soup_db() -> (SpatialDatabase, Vec<String>) {
    let soup = polytope_soup(&SoupSpec::default(), &mut StdRng::seed_from_u64(77));
    let mut db = SpatialDatabase::with_params(GeneratorParams::fast());
    for (name, relation) in &soup.entries {
        db.insert(name.clone(), relation.clone());
    }
    let names = soup.names();
    (db, names)
}

fn budget() -> QueryBudget {
    QueryBudget::unlimited()
        .with_max_steps(50_000_000)
        .with_max_attempts(100_000)
}

/// `n` requests in the read-heavy class blend over uniformly picked
/// relations, drawn from a setup stream no item stream can collide with.
fn plan(seq: &SeedSequence, names: &[String], n: usize) -> Vec<Request> {
    let mix = SessionMix::read_heavy();
    let mut picks = seq.setup_stream().child(1).rng();
    (0..n)
        .map(|_| {
            let w: f64 = picks.gen_range(0.0..mix.sample + mix.volume + mix.reconstruction);
            let class = if w < mix.sample {
                Class::Sample
            } else if w < mix.sample + mix.volume {
                Class::Volume
            } else {
                Class::Reconstruction
            };
            let relation = names[picks.gen_range(0..names.len())].clone();
            Request { class, relation }
        })
        .collect()
}

fn reconstruction_text(relation: &str) -> String {
    format!("exists x1. {relation}(x0, x1)")
}

fn class_counts(requests: &[Request]) -> [usize; 3] {
    let mut counts = [0; 3];
    for req in requests {
        counts[CLASSES.iter().position(|c| *c == req.class).unwrap()] += 1;
    }
    counts
}

/// Answers request `i` in-process on `item_stream(i)`.
fn in_process(db: &SpatialDatabase, seq: &SeedSequence, req: &Request, i: usize) -> Answer {
    let spec = match req.class {
        Class::Sample => QuerySpec::sample(&req.relation, 1).with_budget(&budget()),
        Class::Volume => QuerySpec::volume(&req.relation, 1).with_budget(&budget()),
        Class::Reconstruction => {
            let query = parse_formula(&reconstruction_text(&req.relation), 2)
                .expect("the projection query parses");
            QuerySpec::reconstruct(&req.relation, query, 1)
        }
    };
    match db.query_with_rng(&spec, &mut seq.item_stream(i).rng()) {
        Ok(outcome) => match req.class {
            Class::Sample => {
                let p = outcome.point().expect("a sample answers a point");
                Answer::Point(p.iter().map(|x| x.to_bits()).collect())
            }
            Class::Volume => Answer::Volume(outcome.volume().expect("an estimate").to_bits()),
            Class::Reconstruction => {
                let relation = outcome.relation().expect("a reconstruction");
                Answer::Relation {
                    tuples: relation.tuples().len(),
                    digest: relation_digest(relation),
                }
            }
        },
        Err(e) => error_answer(e),
    }
}

fn error_answer(e: SpatialDbError) -> Answer {
    let e = AppError::from(e);
    Answer::Error(e.status, e.code.to_string(), e.cause.map(str::to_string))
}

/// Answers request `i` over HTTP with `"seed"`/`"stream"` = `(seed, i)`.
fn over_http(client: &mut Client, seed: u64, req: &Request, i: usize) -> Answer {
    let mut fields = vec![
        ("seed".to_string(), Json::u64_str(seed)),
        ("stream".to_string(), Json::count(i)),
    ];
    let budget = Json::Object(vec![
        ("max_steps".to_string(), Json::u64_str(50_000_000)),
        ("max_attempts".to_string(), Json::u64_str(100_000)),
    ]);
    let path = match req.class {
        Class::Sample | Class::Volume => {
            fields.push(("relation".to_string(), Json::str(req.relation.clone())));
            fields.push(("budget".to_string(), budget));
            if req.class == Class::Sample {
                "/v1/sample"
            } else {
                "/v1/volume"
            }
        }
        Class::Reconstruction => {
            fields.push((
                "query".to_string(),
                Json::str(reconstruction_text(&req.relation)),
            ));
            fields.push(("arity".to_string(), Json::count(2)));
            fields.push(("output_arity".to_string(), Json::count(1)));
            "/v1/reconstruct"
        }
    };
    let (status, response) = client
        .request_json("POST", path, Some(&Json::Object(fields)))
        .unwrap_or_else(|e| panic!("request {i}: transport failure {e:?}"));
    if status != 200 {
        let error = response.get("error").expect("an error envelope");
        let text = |key: &str| error.get(key).and_then(Json::as_str).map(str::to_string);
        return Answer::Error(status, text("code").unwrap_or_default(), text("cause"));
    }
    match req.class {
        Class::Sample => Answer::Point(
            response
                .get("point")
                .and_then(Json::as_array)
                .expect("a sample response holds a point")
                .iter()
                .map(|x| x.as_f64().expect("a numeric coordinate").to_bits())
                .collect(),
        ),
        Class::Volume => Answer::Volume(
            response
                .get("volume")
                .and_then(Json::as_f64)
                .expect("a volume response holds an estimate")
                .to_bits(),
        ),
        Class::Reconstruction => Answer::Relation {
            tuples: response
                .get("tuples")
                .and_then(Json::as_usize)
                .expect("a tuple count"),
            digest: response
                .get("digest")
                .and_then(Json::as_u64)
                .expect("a digest"),
        },
    }
}

#[test]
fn mixed_session_run_resolves_every_request() {
    let (db, names) = soup_db();
    let seq = SeedSequence::new(4242);
    let requests = plan(&seq, &names, REQUESTS);
    let counts = class_counts(&requests);
    assert!(
        counts.iter().all(|&c| c > 0),
        "the read-heavy mix must schedule all three classes: {counts:?}"
    );

    let report = fan_out_contained(
        requests.len(),
        4,
        || (),
        |_, i| in_process(&db, &seq, &requests[i], i),
    );
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    assert_eq!(report.slots.len(), REQUESTS);

    // Every request resolves to a class-appropriate answer or a typed
    // error.
    let mut resolved = [0usize; 3];
    for (slot, req) in report.slots.iter().zip(&requests) {
        let answer = slot.as_ref().expect("no request may be lost");
        match (answer, req.class) {
            (Answer::Point(bits), Class::Sample) => {
                let p: Vec<f64> = bits.iter().map(|b| f64::from_bits(*b)).collect();
                assert_eq!(p.len(), 2);
                let relation = db.relation(&req.relation).unwrap();
                assert!(relation.contains_f64(&p), "sample outside {}", req.relation);
            }
            (Answer::Volume(bits), Class::Volume) => {
                let v = f64::from_bits(*bits);
                assert!(v.is_finite() && v > 0.0, "volume of {} = {v}", req.relation);
            }
            (Answer::Relation { .. }, Class::Reconstruction) => {}
            (Answer::Error(..), _) => {}
            (answer, class) => panic!("class {class:?} resolved to {answer:?}"),
        }
        resolved[CLASSES.iter().position(|c| *c == req.class).unwrap()] += 1;
    }
    // Per-class request counts are exact: planned == resolved.
    assert_eq!(resolved, counts);
}

#[test]
fn http_transport_matches_in_process_bitwise() {
    let (db, names) = soup_db();
    let (server_db, _) = soup_db();
    let seed = 515;
    let seq = SeedSequence::new(seed);
    let requests = plan(&seq, &names, REQUESTS / 2);

    let local = fan_out_contained(
        requests.len(),
        3,
        || (),
        |_, i| in_process(&db, &seq, &requests[i], i),
    );
    let mut server =
        Server::start_with_db(ServerConfig::default(), server_db).expect("loopback server starts");
    let addr = server.addr();
    let wire = fan_out_contained(
        requests.len(),
        3,
        move || Client::new(addr),
        |client, i| over_http(client, seed, &requests[i], i),
    );
    server.shutdown();

    let mut answers = Vec::new();
    for report in [local, wire] {
        assert!(report.panics.is_empty(), "{:?}", report.panics);
        let slots: Vec<Answer> = report
            .slots
            .into_iter()
            .map(|slot| slot.expect("no request may be lost"))
            .collect();
        answers.push(slots);
    }
    assert!(
        answers[0].iter().any(|a| matches!(a, Answer::Point(_)))
            && answers[0].iter().any(|a| matches!(a, Answer::Volume(_)))
            && answers[0]
                .iter()
                .any(|a| matches!(a, Answer::Relation { .. })),
        "the parity run must compare a successful answer of every class"
    );
    assert_eq!(
        answers[0], answers[1],
        "HTTP answers drifted from the in-process results"
    );
}
