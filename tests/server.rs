//! Loopback integration suite for `cdb-server`: every endpoint, the full
//! error→status table, seeded byte-for-byte reproducibility, and
//! concurrent clients against one server.
//!
//! Each test starts its own server on `127.0.0.1:0` (the OS picks the
//! port), so tests run in parallel without colliding. Set
//! `CDB_SERVER_QUICK=1` (the `ci.sh --quick` default) for reduced request
//! counts in the concurrency test.

use std::collections::BTreeSet;
use std::time::Duration;

use cdb_constraint::{parse_formula, Atom, GeneralizedRelation, GeneralizedTuple};
use cdb_core::{QuerySpec, SpatialDatabase};
use cdb_sampler::{FaultPlan, GeneratorParams, SeedSequence};
use cdb_server::api_types::relation_digest;
use cdb_server::client::Client;
use cdb_server::json::{parse, Json, DEFAULT_MAX_DEPTH};
use cdb_server::{BudgetSpec, Server, ServerConfig};

fn quick() -> bool {
    std::env::var("CDB_SERVER_QUICK").is_ok_and(|v| v != "0")
}

/// A database with the shapes every test needs: a box, a disjoint and an
/// overlapping union, and a structurally non-observable half-space.
fn test_db() -> SpatialDatabase {
    let mut db = SpatialDatabase::with_params(GeneratorParams::fast());
    db.insert(
        "R",
        GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[2.0, 1.0]),
    );
    db.insert(
        "U",
        GeneralizedRelation::from_box_f64(&[0.0], &[1.0])
            .union(&GeneralizedRelation::from_box_f64(&[3.0], &[4.0])),
    );
    // Overlapping boxes: the union's volume estimate is a Karp–Luby count,
    // so unlike a box's or a disjoint union's it depends on the draw stream.
    db.insert(
        "O",
        GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[2.0, 1.0])
            .union(&GeneralizedRelation::from_box_f64(&[1.0, 0.0], &[3.0, 1.0])),
    );
    // `x0 ≤ 0`: unbounded, hence not observable (Section 4 conditions).
    db.insert(
        "Half",
        GeneralizedRelation::from_tuple(GeneralizedTuple::new(
            1,
            vec![Atom::le_from_ints(&[1], 0)],
        )),
    );
    db
}

fn start_server() -> Server {
    Server::start_with_db(ServerConfig::default(), test_db()).expect("server starts")
}

fn client(server: &Server) -> Client {
    Client::new(server.addr()).with_timeout(Duration::from_secs(60))
}

fn body(text: &str) -> Json {
    parse(text, DEFAULT_MAX_DEPTH).expect("test body parses")
}

#[test]
fn health_and_stats_answer() {
    let server = start_server();
    let mut c = client(&server);
    let (status, health) = c.request_json("GET", "/health", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));

    let (status, stats) = c.request_json("GET", "/v1/stats", None).unwrap();
    assert_eq!(status, 200);
    let endpoints = stats.get("endpoints").unwrap();
    // The health request above is already counted.
    assert_eq!(
        endpoints
            .get("health")
            .unwrap()
            .get("requests")
            .unwrap()
            .as_u64(),
        Some(1)
    );
    let store = stats.get("store").unwrap();
    assert!(store.get("hits").unwrap().as_u64().is_some());
    assert!(stats.get("workers").unwrap().as_u64().unwrap() >= 1);
}

#[test]
fn every_endpoint_answers_end_to_end() {
    let server = start_server();
    let mut c = client(&server);

    // Insert a fresh relation over HTTP (formula shape), then serve it.
    let (status, inserted) = c
        .request_json(
            "POST",
            "/v1/relations",
            Some(&body(
                r#"{"name":"box3","formula":"x0 >= 0 and x0 <= 3 and x1 >= 0 and x1 <= 1","arity":2}"#,
            )),
        )
        .unwrap();
    assert_eq!(status, 200, "{inserted:?}");
    assert_eq!(inserted.get("name").unwrap().as_str(), Some("box3"));
    assert_eq!(inserted.get("arity").unwrap().as_usize(), Some(2));

    // Box and union-of-boxes shapes insert too.
    let (status, _) = c
        .request_json(
            "POST",
            "/v1/relations",
            Some(&body(r#"{"name":"b1","box":{"lo":[0],"hi":[2]}}"#)),
        )
        .unwrap();
    assert_eq!(status, 200);
    let (status, two) = c
        .request_json(
            "POST",
            "/v1/relations",
            Some(&body(
                r#"{"name":"b2","boxes":[{"lo":[0],"hi":[1]},{"lo":[5],"hi":[7]}]}"#,
            )),
        )
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(two.get("tuples").unwrap().as_usize(), Some(2));

    // Sample: the point lies in the inserted box.
    let (status, sample) = c
        .request_json(
            "POST",
            "/v1/sample",
            Some(&body(r#"{"relation":"box3","seed":7}"#)),
        )
        .unwrap();
    assert_eq!(status, 200, "{sample:?}");
    let point: Vec<f64> = sample
        .get("point")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();
    assert_eq!(point.len(), 2);
    assert!((0.0..=3.0).contains(&point[0]) && (0.0..=1.0).contains(&point[1]));

    // Sample-batch: every draw lands and is counted.
    let (status, batch) = c
        .request_json(
            "POST",
            "/v1/sample-batch",
            Some(&body(r#"{"relation":"R","n":8,"seed":11}"#)),
        )
        .unwrap();
    assert_eq!(status, 200, "{batch:?}");
    assert_eq!(batch.get("completed").unwrap().as_usize(), Some(8));
    let points = batch.get("points").unwrap().as_array().unwrap();
    assert_eq!(points.len(), 8);
    assert!(points.iter().all(|p| p.as_array().is_some()));

    // Volume: R = [0,2]×[0,1] has volume 2; the estimate is in range.
    let (status, volume) = c
        .request_json(
            "POST",
            "/v1/volume",
            Some(&body(r#"{"relation":"R","repeats":3,"seed":13}"#)),
        )
        .unwrap();
    assert_eq!(status, 200, "{volume:?}");
    let v = volume.get("volume").unwrap().as_f64().unwrap();
    assert!(v > 1.0 && v < 3.0, "estimate {v} far from 2.0");
    assert_eq!(volume.get("repeats").unwrap().as_usize(), Some(3));

    // Reconstruct: project R onto its first coordinate.
    let (status, recon) = c
        .request_json(
            "POST",
            "/v1/reconstruct",
            Some(&body(
                r#"{"query":"exists x1. R(x0, x1)","arity":2,"output_arity":1,"seed":17}"#,
            )),
        )
        .unwrap();
    assert_eq!(status, 200, "{recon:?}");
    assert_eq!(recon.get("arity").unwrap().as_usize(), Some(1));
    assert!(recon.get("tuples").unwrap().as_usize().unwrap() >= 1);
    assert!(recon.get("digest").unwrap().as_u64().is_some());

    // Stats saw all of it.
    let (_, stats) = c.request_json("GET", "/v1/stats", None).unwrap();
    let endpoints = stats.get("endpoints").unwrap();
    for (endpoint, at_least) in [
        ("insert_relation", 3),
        ("sample", 1),
        ("sample_batch", 1),
        ("volume", 1),
        ("reconstruct", 1),
    ] {
        let requests = endpoints
            .get(endpoint)
            .unwrap()
            .get("requests")
            .unwrap()
            .as_u64()
            .unwrap();
        assert!(requests >= at_least, "{endpoint}: {requests} < {at_least}");
    }
}

/// Seeded requests are byte-for-byte reproducible — across requests on one
/// connection, across fresh connections, and on every endpoint — and a
/// seeded sample, single-repeat volume or reconstruction answers the bits
/// the in-process engine answers on the same item stream. Distinct streams
/// under the same seed give distinct answers.
#[test]
fn seeded_responses_are_byte_reproducible() {
    let server = start_server();
    let requests: [(&str, &str); 5] = [
        ("/v1/sample", r#"{"relation":"R","seed":99,"stream":4}"#),
        ("/v1/sample-batch", r#"{"relation":"R","n":6,"seed":99}"#),
        ("/v1/volume", r#"{"relation":"R","seed":99,"repeats":3}"#),
        (
            "/v1/reconstruct",
            r#"{"query":"exists x1. R(x0, x1)","arity":2,"output_arity":1,"seed":99}"#,
        ),
        ("/v1/volume", r#"{"relation":"O","seed":99,"stream":7}"#),
    ];
    let mut first = Vec::new();
    {
        let mut c = client(&server);
        for (path, payload) in &requests {
            let response = c.request("POST", path, Some(&body(payload))).unwrap();
            assert_eq!(response.status, 200, "{path}: {}", response.body);
            first.push(response.body);
        }
        // Same connection, same request → identical bytes.
        for (i, (path, payload)) in requests.iter().enumerate() {
            let response = c.request("POST", path, Some(&body(payload))).unwrap();
            assert_eq!(response.body, first[i], "{path} drifted on one connection");
        }
    }
    // A seeded single-item answer is the in-process engine's answer on the
    // same item stream, bit for bit.
    let db = test_db();
    let answer = |i: usize| parse(&first[i], DEFAULT_MAX_DEPTH).unwrap();
    let local = |spec: &QuerySpec, stream: usize| {
        let mut rng = SeedSequence::new(99).item_stream(stream).rng();
        db.query_with_rng(spec, &mut rng).unwrap()
    };
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let wire_point: Vec<f64> = answer(0)
        .get("point")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|x| x.as_f64().unwrap())
        .collect();
    let local_point = local(&QuerySpec::sample("R", 1), 4);
    assert_eq!(
        bits(&wire_point),
        bits(local_point.point().unwrap()),
        "/v1/sample"
    );
    let wire_volume = answer(4).get("volume").and_then(Json::as_f64).unwrap();
    let local_volume = local(&QuerySpec::volume("O", 1), 7).volume().unwrap();
    assert_eq!(wire_volume.to_bits(), local_volume.to_bits(), "/v1/volume");
    let query = parse_formula("exists x1. R(x0, x1)", 2).unwrap();
    let local_relation = local(&QuerySpec::reconstruct("query", query, 1), 0);
    let local_relation = local_relation.relation().unwrap();
    let wire = answer(3);
    assert_eq!(
        wire.get("tuples").and_then(Json::as_usize),
        Some(local_relation.tuples().len()),
        "/v1/reconstruct tuples"
    );
    assert_eq!(
        wire.get("digest").and_then(Json::as_u64),
        Some(relation_digest(local_relation)),
        "/v1/reconstruct digest"
    );
    // Fresh connection → still identical bytes.
    let mut c2 = client(&server);
    for (i, (path, payload)) in requests.iter().enumerate() {
        let response = c2.request("POST", path, Some(&body(payload))).unwrap();
        assert_eq!(response.body, first[i], "{path} drifted across connections");
    }
    // A different stream under the same seed answers differently.
    let shifted = c2
        .request(
            "POST",
            "/v1/sample",
            Some(&body(r#"{"relation":"R","seed":99,"stream":5}"#)),
        )
        .unwrap();
    assert_eq!(shifted.status, 200);
    assert_ne!(shifted.body, first[0], "stream index ignored");
    // Unseeded requests draw from entropy: two calls disagree.
    let e1 = c2
        .request("POST", "/v1/sample", Some(&body(r#"{"relation":"R"}"#)))
        .unwrap();
    let e2 = c2
        .request("POST", "/v1/sample", Some(&body(r#"{"relation":"R"}"#)))
        .unwrap();
    assert_eq!((e1.status, e2.status), (200, 200));
    assert_ne!(e1.body, e2.body, "entropy seeds collided");
}

/// A reconstruction prepares its pieces into the database's store: a repeat
/// of a seeded request answers the same bytes and attaches the prepared
/// piece, which `/v1/stats` counts as a store hit.
#[test]
fn a_repeated_reconstruction_attaches_its_prepared_piece() {
    let server = start_server();
    let mut c = client(&server);
    let payload = body(r#"{"query":"exists x1. R(x0, x1)","arity":2,"output_arity":1,"seed":23}"#);
    let store = |c: &mut Client| {
        let (status, stats) = c.request_json("GET", "/v1/stats", None).unwrap();
        assert_eq!(status, 200);
        let store = stats.get("store").unwrap();
        let count = |k: &str| store.get(k).unwrap().as_u64().unwrap();
        (count("hits"), count("misses"))
    };
    let before = store(&mut c);
    let first = c
        .request("POST", "/v1/reconstruct", Some(&payload))
        .unwrap();
    let cold = store(&mut c);
    let second = c
        .request("POST", "/v1/reconstruct", Some(&payload))
        .unwrap();
    let warm = store(&mut c);
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(second.body, first.body, "the warm answer drifted");
    assert_eq!(cold.1 - before.1, 1, "the first request prepares R's piece");
    assert_eq!(warm.0 - cold.0, 1, "the repeat attaches the prepared piece");
    assert_eq!(warm.1, cold.1, "the repeat prepared again");
}

/// The full error→status table, exactly as documented in `error.rs` and
/// ARCHITECTURE.md.
#[test]
fn error_status_table_is_complete() {
    let server = start_server();
    let mut c = client(&server);

    let expect = |c: &mut Client,
                  method: &str,
                  path: &str,
                  payload: Option<&str>,
                  status: u16,
                  code: &str| {
        let json_body = payload.map(body);
        let (got, response) = c.request_json(method, path, json_body.as_ref()).unwrap();
        assert_eq!(got, status, "{method} {path} {payload:?}: {response:?}");
        let got_code = response
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{method} {path}: no error code in {response:?}"));
        assert_eq!(got_code, code, "{method} {path} {payload:?}");
    };

    // 404 unknown_relation
    expect(
        &mut c,
        "POST",
        "/v1/sample",
        Some(r#"{"relation":"ghost","seed":1}"#),
        404,
        "unknown_relation",
    );
    // 400 invalid_params: missing field / bad type / bad range
    expect(
        &mut c,
        "POST",
        "/v1/sample",
        Some(r#"{"seed":1}"#),
        400,
        "invalid_params",
    );
    expect(
        &mut c,
        "POST",
        "/v1/sample-batch",
        Some(r#"{"relation":"R","n":0}"#),
        400,
        "invalid_params",
    );
    expect(
        &mut c,
        "POST",
        "/v1/volume",
        Some(r#"{"relation":"R","repeats":"three"}"#),
        400,
        "invalid_params",
    );
    expect(
        &mut c,
        "POST",
        "/v1/reconstruct",
        Some(r#"{"query":"x0 >=","arity":1}"#),
        400,
        "invalid_params",
    );
    expect(
        &mut c,
        "POST",
        "/v1/relations",
        Some(r#"{"name":"x","box":{"lo":[1],"hi":[0]}}"#),
        400,
        "invalid_params",
    );
    // 400 bad_json: malformed body
    {
        // Hand-roll the request: the client refuses to send garbage JSON.
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        let garbage = "{\"relation\": ";
        write!(
            stream,
            "POST /v1/sample HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{}",
            garbage.len(),
            garbage
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("bad_json"), "{response}");
    }
    // 404 route_not_found / 405 method_not_allowed
    expect(&mut c, "GET", "/v2/nothing", None, 404, "route_not_found");
    expect(&mut c, "GET", "/v1/sample", None, 405, "method_not_allowed");
    // 422 not_observable: structurally bad relation, well-formed request
    expect(
        &mut c,
        "POST",
        "/v1/sample",
        Some(r#"{"relation":"Half","seed":1}"#),
        422,
        "not_observable",
    );
    // 429 budget_exhausted, with cause and completed surfaced
    {
        let (status, response) = c
            .request_json(
                "POST",
                "/v1/sample",
                Some(&body(
                    r#"{"relation":"R","seed":1,"budget":{"max_attempts":0}}"#,
                )),
            )
            .unwrap();
        assert_eq!(status, 429, "{response:?}");
        let error = response.get("error").unwrap();
        assert_eq!(
            error.get("code").unwrap().as_str(),
            Some("budget_exhausted")
        );
        assert_eq!(error.get("cause").unwrap().as_str(), Some("attempts"));
        assert_eq!(error.get("completed").unwrap().as_usize(), Some(0));
    }
    // A reconstruction is budgeted too: one attempt cannot fund the draws
    // of a 2-ary reconstruction.
    {
        let (status, response) = c
            .request_json(
                "POST",
                "/v1/reconstruct",
                Some(&body(
                    r#"{"query":"exists x2. R(x0, x2) and R(x1, x2)","arity":3,
                        "output_arity":2,"seed":1,"budget":{"max_attempts":1}}"#,
                )),
            )
            .unwrap();
        assert_eq!(status, 429, "{response:?}");
        let error = response.get("error").unwrap();
        assert_eq!(
            error.get("code").unwrap().as_str(),
            Some("budget_exhausted")
        );
        assert_eq!(error.get("cause").unwrap().as_str(), Some("attempts"));
    }
    // The fault rows run on servers whose databases carry a fault plan; a
    // plan never reaches any other server.
    let faulty = |plan: FaultPlan| {
        let server =
            Server::start_with_db(ServerConfig::default(), test_db().with_fault_plan(plan))
                .expect("server starts");
        let c = client(&server);
        (server, c)
    };
    // 503 generation_failed: a forced draw failure
    {
        let (_server, mut c) = faulty(FaultPlan::new().with_forced_draw_failures(1));
        expect(
            &mut c,
            "POST",
            "/v1/sample",
            Some(r#"{"relation":"R","seed":3}"#),
            503,
            "generation_failed",
        );
    }
    // 500 worker_panicked: an injected batch-worker panic, fail-fast mode
    let (_server, mut c) = faulty(FaultPlan::new().with_worker_panic_at(5));
    expect(
        &mut c,
        "POST",
        "/v1/sample-batch",
        Some(r#"{"relation":"R","n":16,"seed":4}"#),
        500,
        "worker_panicked",
    );
    // Partial mode instead answers 200 and reports the failure inline.
    let (status, response) = c
        .request_json(
            "POST",
            "/v1/sample-batch",
            Some(&body(r#"{"relation":"R","n":16,"seed":4,"partial":true}"#)),
        )
        .unwrap();
    assert_eq!(status, 200, "{response:?}");
    let completed = response.get("completed").unwrap().as_usize().unwrap();
    assert!(completed < 16, "the injected panic lost no items?");
    assert_eq!(
        response.get("error").unwrap().get("code").unwrap().as_str(),
        Some("partial_failure")
    );
}

/// Oversized bodies are rejected with 413 before the handler ever runs,
/// and the connection is closed (the unread body is still on the wire).
#[test]
fn oversized_body_is_rejected_with_413() {
    let config = ServerConfig {
        max_body_bytes: 256,
        ..ServerConfig::default()
    };
    let server = Server::start_with_db(config, test_db()).unwrap();
    let mut c = client(&server);
    let huge = format!(r#"{{"relation":"R","pad":"{}"}}"#, "x".repeat(1000));
    let response = c.request("POST", "/v1/sample", Some(&body(&huge))).unwrap();
    assert_eq!(response.status, 413, "{}", response.body);
    assert!(
        response.body.contains("body_too_large"),
        "{}",
        response.body
    );
    // The server closed that connection; the client reconnects and serves.
    let (status, _) = c
        .request_json(
            "POST",
            "/v1/sample",
            Some(&body(r#"{"relation":"R","seed":1}"#)),
        )
        .unwrap();
    assert_eq!(status, 200);
}

/// Per-relation config budget overrides apply when the request carries no
/// budget of its own, and a request-level budget wins over both.
#[test]
fn budget_resolution_order_holds() {
    let mut config = ServerConfig::default();
    config.budget_overrides.insert(
        "R".to_string(),
        BudgetSpec {
            max_attempts: Some(0),
            ..BudgetSpec::default()
        },
    );
    let server = Server::start_with_db(config, test_db()).unwrap();
    let mut c = client(&server);
    // No request budget: the per-relation zero-attempt override trips.
    let (status, _) = c
        .request_json(
            "POST",
            "/v1/sample",
            Some(&body(r#"{"relation":"R","seed":1}"#)),
        )
        .unwrap();
    assert_eq!(status, 429);
    // The other relation falls back to the unlimited default.
    let (status, _) = c
        .request_json(
            "POST",
            "/v1/sample",
            Some(&body(r#"{"relation":"U","seed":1}"#)),
        )
        .unwrap();
    assert_eq!(status, 200);
    // A request-level budget overrides the starved per-relation one.
    let (status, _) = c
        .request_json(
            "POST",
            "/v1/sample",
            Some(&body(
                r#"{"relation":"R","seed":1,"budget":{"max_attempts":1000}}"#,
            )),
        )
        .unwrap();
    assert_eq!(status, 200);
}

/// Concurrent clients hammer one server; every response is well-formed,
/// seeded responses agree with a reference client, and the metrics add up.
#[test]
fn concurrent_clients_share_one_server() {
    let server = start_server();
    let clients = 8usize;
    let per_client = if quick() { 4usize } else { 16usize };

    // Reference bodies, one per seed, fetched single-threaded first.
    let mut reference = Vec::new();
    {
        let mut c = client(&server);
        for seed in 0..per_client {
            let payload = format!(r#"{{"relation":"R","seed":{seed}}}"#);
            let response = c
                .request("POST", "/v1/sample", Some(&body(&payload)))
                .unwrap();
            assert_eq!(response.status, 200);
            reference.push(response.body);
        }
    }

    let addr = server.addr();
    let handles: Vec<_> = (0..clients)
        .map(|k| {
            let reference = reference.clone();
            std::thread::spawn(move || {
                let mut c = Client::new(addr).with_timeout(Duration::from_secs(60));
                for i in 0..per_client {
                    // Interleave the seed order differently per client.
                    let seed = (i + k) % per_client;
                    let payload = format!(r#"{{"relation":"R","seed":{seed}}}"#);
                    let response = c
                        .request("POST", "/v1/sample", Some(&body(&payload)))
                        .unwrap();
                    assert_eq!(response.status, 200);
                    assert_eq!(
                        response.body, reference[seed],
                        "seed {seed} drifted under load"
                    );
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread survived");
    }

    let mut c = client(&server);
    let (_, stats) = c.request_json("GET", "/v1/stats", None).unwrap();
    let samples = stats
        .get("endpoints")
        .unwrap()
        .get("sample")
        .unwrap()
        .get("requests")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(samples as usize, per_client + clients * per_client);
    // Distinct seeds produced distinct bodies (sanity on the reference set).
    let distinct: BTreeSet<&String> = reference.iter().collect();
    assert_eq!(distinct.len(), reference.len());
}

/// Graceful shutdown: in-flight work completes, the port stops answering,
/// and shutdown is idempotent.
#[test]
fn shutdown_is_graceful_and_idempotent() {
    let mut server = start_server();
    let addr = server.addr();
    let mut c = Client::new(addr);
    let (status, _) = c.request_json("GET", "/health", None).unwrap();
    assert_eq!(status, 200);
    server.shutdown();
    server.shutdown(); // idempotent
                       // New connections are refused or die without an HTTP answer.
    let mut fresh = Client::new(addr).with_timeout(Duration::from_millis(500));
    assert!(fresh.request_json("GET", "/health", None).is_err());
}
