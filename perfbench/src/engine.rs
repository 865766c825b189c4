//! Running one op against the engine, in process or over HTTP, and
//! checking its answer against ground truth.

use cdb_constraint::GeneralizedRelation;
use cdb_core::{QuerySpec, SpatialDatabase};
use cdb_geometry::volume::{symmetric_difference_volume, union_volume};
use cdb_geometry::HPolytope;
use cdb_server::client::Client;
use cdb_server::json::{parse, Json, DEFAULT_MAX_DEPTH};

use crate::workload::{OpKind, Plan, BATCH_N};

/// What an op returned.
#[derive(Clone, Debug)]
pub enum Answer {
    /// Sampled points.
    Points(Vec<Vec<f64>>),
    /// A volume estimate.
    Volume(f64),
    /// A relation was replaced.
    Inserted,
    /// A reconstructed relation.
    Relation(GeneralizedRelation),
}

impl Answer {
    /// Whether two answers are bitwise identical (reconstructions compare
    /// through their exact constraint text).
    pub fn same_bits(&self, other: &Answer) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        match (self, other) {
            (Answer::Points(a), Answer::Points(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(p, q)| bits(p) == bits(q))
            }
            (Answer::Volume(a), Answer::Volume(b)) => a.to_bits() == b.to_bits(),
            (Answer::Inserted, Answer::Inserted) => true,
            (Answer::Relation(a), Answer::Relation(b)) => format!("{a:?}") == format!("{b:?}"),
            _ => false,
        }
    }
}

/// Symbolic answer of a reconstruction query and its area.
#[derive(Clone, Debug)]
pub struct ExactAnswer {
    /// The Fourier–Motzkin answer as polytopes.
    pub pieces: Vec<HPolytope>,
    /// Its area.
    pub area: f64,
}

/// Evaluates the reconstruction query of name `rel` symbolically.
pub fn exact_answer(db: &SpatialDatabase, plan: &Plan, rel: usize) -> Result<ExactAnswer, String> {
    let query = plan.queries[rel].as_ref().ok_or("no query for relation")?;
    let exact = db.evaluate_exact(query, 2).map_err(|e| e.to_string())?;
    let pieces = exact.to_polytopes();
    let area = union_volume(&pieces);
    Ok(ExactAnswer { pieces, area })
}

/// Runs op `i` of `plan` directly against `db`.
pub fn run_inproc(db: &mut SpatialDatabase, plan: &Plan, i: usize) -> Result<Answer, String> {
    let op = plan.ops[i];
    let name = plan.names[op.rel].as_str();
    let stream = plan.stream(i);
    let err = |e: cdb_core::SpatialDbError| e.to_string();
    match op.kind {
        OpKind::Sample => {
            let spec = QuerySpec::sample(name, 1);
            let outcome = db.query_with_rng(&spec, &mut stream.rng()).map_err(err)?;
            Ok(Answer::Points(
                outcome.points().iter().flatten().cloned().collect(),
            ))
        }
        OpKind::Batch => {
            let spec = QuerySpec::sample(name, BATCH_N).with_seed_sequence(stream);
            let outcome = db.query(&spec).map_err(err)?;
            Ok(Answer::Points(
                outcome.points().iter().flatten().cloned().collect(),
            ))
        }
        OpKind::Volume => {
            let spec = QuerySpec::volume(name, 1);
            let outcome = db.query_with_rng(&spec, &mut stream.rng()).map_err(err)?;
            outcome
                .volume()
                .map(Answer::Volume)
                .ok_or("no estimate".into())
        }
        OpKind::Insert => {
            db.insert(name, plan.bodies[op.body].relation.clone());
            Ok(Answer::Inserted)
        }
        OpKind::Reconstruct => {
            let query = plan.queries[op.rel]
                .clone()
                .ok_or("no query for relation")?;
            let spec = QuerySpec::reconstruct(name, query, 2);
            let outcome = db.query_with_rng(&spec, &mut stream.rng()).map_err(err)?;
            outcome
                .relation()
                .cloned()
                .map(Answer::Relation)
                .ok_or("no relation".into())
        }
    }
}

/// The HTTP request of op `i`: path and JSON body. Sample and volume ops
/// carry `seed`/`stream`, so the server draws the same item stream as
/// [`run_inproc`].
pub fn http_request(plan: &Plan, i: usize) -> (&'static str, Json) {
    let op = plan.ops[i];
    let mut fields = vec![
        (
            "relation".to_string(),
            Json::str(plan.names[op.rel].clone()),
        ),
        ("seed".to_string(), Json::u64_str(plan.seed)),
        ("stream".to_string(), Json::count(i)),
    ];
    let path = match op.kind {
        OpKind::Sample => "/v1/sample",
        OpKind::Batch => {
            fields.push(("n".to_string(), Json::count(BATCH_N)));
            "/v1/sample-batch"
        }
        OpKind::Volume => "/v1/volume",
        other => panic!("{} ops are not served over HTTP", other.label()),
    };
    (path, Json::Object(fields))
}

fn coords(value: &Json) -> Result<Vec<f64>, String> {
    value
        .as_array()
        .ok_or("point is not an array")?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| "non-numeric coordinate".to_string())
        })
        .collect()
}

/// Decodes a response body of an op of `kind`.
pub fn decode_response(kind: OpKind, status: u16, body: &str) -> Result<Answer, String> {
    if status != 200 {
        return Err(format!("http {status}: {body}"));
    }
    let json = parse(body, DEFAULT_MAX_DEPTH).map_err(|e| e.to_string())?;
    decode_json(kind, &json)
}

/// Reads the answer of an op of `kind` out of its parsed response.
pub fn decode_json(kind: OpKind, json: &Json) -> Result<Answer, String> {
    match kind {
        OpKind::Sample => Ok(Answer::Points(vec![coords(
            json.get("point").ok_or("no point")?,
        )?])),
        OpKind::Batch => json
            .get("points")
            .and_then(Json::as_array)
            .ok_or("no points")?
            .iter()
            .map(coords)
            .collect::<Result<_, _>>()
            .map(Answer::Points),
        OpKind::Volume => json
            .get("volume")
            .and_then(Json::as_f64)
            .map(Answer::Volume)
            .ok_or("no volume".into()),
        other => Err(format!("{} ops are not served over HTTP", other.label())),
    }
}

/// Runs op `i` over a keep-alive HTTP connection.
pub fn run_http(client: &mut Client, plan: &Plan, i: usize) -> Result<Answer, String> {
    let (path, body) = http_request(plan, i);
    let response = client
        .request("POST", path, Some(&body))
        .map_err(|e| e.to_string())?;
    decode_response(plan.ops[i].kind, response.status, &response.body)
}

/// A volume estimate fails beyond this multiple of the generator's `ε`.
/// An `(ε, δ)` estimate lies within `ε` with probability `1 − δ`; twice `ε`
/// leaves room for the `δ` tail (at the default `ε = 0.2` the largest error
/// seen over tens of thousands of estimates is about 23%), while an
/// estimator answering 0 or 1.5× the volume fails.
pub const VOLUME_TOLERANCE_EPS: f64 = 2.0;

/// Checks op `i`'s answer against ground truth. `Ok(Some(err_pct))` carries
/// the op's answer error (relative volume error, or symmetric difference ÷
/// exact area) in percent; `Err` is a failed op: a point outside its
/// relation, a volume off by more than [`VOLUME_TOLERANCE_EPS`]` · ε`, or a
/// reconstruction whose symmetric difference exceeds `ε` of the exact area
/// (the hull of Lemma 4.1 / Theorem 4.4 misses at most that share).
pub fn check(
    plan: &Plan,
    i: usize,
    answer: &Answer,
    exact: &[Option<ExactAnswer>],
) -> Result<Option<f64>, String> {
    let op = plan.ops[i];
    let body = &plan.bodies[op.body];
    match (op.kind, answer) {
        (OpKind::Sample | OpKind::Batch, Answer::Points(points)) => {
            let want = if op.kind == OpKind::Sample {
                1
            } else {
                BATCH_N
            };
            if points.len() != want {
                return Err(format!("{} of {want} points", points.len()));
            }
            match points.iter().find(|p| !body.relation.contains_f64(p)) {
                Some(p) => Err(format!("point {p:?} outside {}", plan.names[op.rel])),
                None => Ok(None),
            }
        }
        (OpKind::Volume, Answer::Volume(v)) => {
            let rel = (v - body.volume).abs() / body.volume;
            if !rel.is_finite() || rel > VOLUME_TOLERANCE_EPS * plan.params.eps {
                return Err(format!("volume {v} against exact {}", body.volume));
            }
            Ok(Some(100.0 * rel))
        }
        (OpKind::Insert, Answer::Inserted) => Ok(None),
        (OpKind::Reconstruct, Answer::Relation(relation)) => {
            let truth = exact[op.rel].as_ref().ok_or("no exact answer")?;
            let sd = symmetric_difference_volume(&truth.pieces, &relation.to_polytopes());
            let rel = sd / truth.area;
            if !rel.is_finite() || rel > plan.params.eps {
                return Err(format!(
                    "reconstruction misses {rel} of the exact area {}",
                    truth.area
                ));
            }
            Ok(Some(100.0 * rel))
        }
        (kind, other) => Err(format!("{} op answered {other:?}", kind.label())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn first(plan: &Plan, kind: OpKind) -> usize {
        plan.ops
            .iter()
            .position(|op| op.kind == kind)
            .expect("the plan has an op of the kind")
    }

    #[test]
    fn wrong_volumes_fail() {
        let plan = Plan::new(Workload::WarmInproc, 3, 200);
        let i = first(&plan, OpKind::Volume);
        let exact = plan.bodies[plan.ops[i].body].volume;
        for wrong in [0.0, 1.5 * exact, 1.9 * exact, f64::NAN] {
            assert!(
                check(&plan, i, &Answer::Volume(wrong), &[]).is_err(),
                "{wrong}"
            );
        }
        let near = check(&plan, i, &Answer::Volume(1.1 * exact), &[]);
        assert!((near.unwrap().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn wrong_reconstructions_fail() {
        let plan = Plan::new(Workload::Recon2d, 3, 12);
        let mut db = crate::run::build_db(&plan);
        let exact: Vec<_> = (0..plan.names.len())
            .map(|rel| Some(exact_answer(&db, &plan, rel).expect("exact answer")))
            .collect();
        let i = first(&plan, OpKind::Reconstruct);
        let answer = run_inproc(&mut db, &plan, i).expect("the engine reconstructs");
        assert!(check(&plan, i, &answer, &exact).unwrap().unwrap() < 100.0 * plan.params.eps);
        let far = GeneralizedRelation::from_box_f64(&[100.0, 100.0], &[101.0, 101.0]);
        for wrong in [GeneralizedRelation::empty(2), far] {
            assert!(check(&plan, i, &Answer::Relation(wrong), &exact).is_err());
        }
        let mut flat = exact.clone();
        flat[plan.ops[i].rel] = Some(ExactAnswer {
            pieces: Vec::new(),
            area: 0.0,
        });
        let answer = Answer::Relation(GeneralizedRelation::empty(2));
        assert!(check(&plan, i, &answer, &flat).is_err());
    }
}
