//! Request and response types for every endpoint, plus their JSON
//! decoding/encoding.
//!
//! Decoding is strict about *types* (a string where a number is expected is
//! a 400) and lenient about *extras* (unknown fields are ignored, so
//! clients can be upgraded before the server). Every decoder returns
//! [`AppError`] directly so handlers stay one-expression pipelines.
//!
//! ## Determinism on the wire
//!
//! Requests carry an optional `"seed"` (decimal string or integer) plus an
//! optional `"stream"` index. The handler funds its generator from
//! `SeedSequence::new(seed).item_stream(stream)`, so a seeded single-item
//! request answers exactly what `SpatialDatabase::query_with_rng` answers in
//! process on that stream's RNG (`tests/server.rs` pins this bit for bit),
//! and two identical seeded requests always return identical bodies.

use cdb_constraint::{parse_formula, Formula, GeneralizedRelation};
use cdb_core::QueryOutcome;

use crate::config::BudgetSpec;
use crate::error::AppError;
use crate::json::Json;

/// Shared seeded-execution fields (`seed`, `stream`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedSpec {
    /// Root seed; `None` means the server draws from entropy.
    pub seed: Option<u64>,
    /// Item-stream index under the root (default `0`).
    pub stream: usize,
}

/// A request-level budget override (same shape as config budgets).
pub fn decode_budget(body: &Json) -> Result<Option<BudgetSpec>, AppError> {
    let Some(raw) = body.get("budget") else {
        return Ok(None);
    };
    if raw.as_object().is_none() {
        return Err(AppError::invalid_params("\"budget\" must be an object"));
    }
    let mut spec = BudgetSpec::default();
    spec.max_steps = opt_u64(raw, "max_steps")?;
    spec.max_attempts = opt_u64(raw, "max_attempts")?;
    spec.timeout_ms = opt_u64(raw, "timeout_ms")?;
    Ok(Some(spec))
}

/// Decodes the shared `seed`/`stream` fields.
pub fn decode_seed(body: &Json) -> Result<SeedSpec, AppError> {
    let stream = match body.get("stream") {
        None | Some(Json::Null) => 0,
        Some(v) => v
            .as_usize()
            .ok_or_else(|| AppError::invalid_params("\"stream\" must be a non-negative integer"))?,
    };
    Ok(SeedSpec {
        seed: opt_u64(body, "seed")?,
        stream,
    })
}

fn opt_u64(body: &Json, key: &str) -> Result<Option<u64>, AppError> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            AppError::invalid_params(format!(
                "\"{key}\" must be a non-negative integer (or a decimal string)"
            ))
        }),
    }
}

fn require_str<'a>(body: &'a Json, key: &str) -> Result<&'a str, AppError> {
    body.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| AppError::invalid_params(format!("\"{key}\" must be a string")))
}

fn require_usize(body: &Json, key: &str) -> Result<usize, AppError> {
    body.get(key).and_then(Json::as_usize).ok_or_else(|| {
        AppError::invalid_params(format!("\"{key}\" must be a non-negative integer"))
    })
}

fn f64_array(value: &Json, what: &str) -> Result<Vec<f64>, AppError> {
    value
        .as_array()
        .ok_or_else(|| AppError::invalid_params(format!("{what} must be an array of numbers")))?
        .iter()
        .map(|v| {
            v.as_f64().ok_or_else(|| {
                AppError::invalid_params(format!("{what} must contain only numbers"))
            })
        })
        .collect()
}

/// `POST /v1/relations`: insert (or replace) a stored relation.
#[derive(Debug)]
pub struct InsertRelationRequest {
    /// Name to store the relation under.
    pub name: String,
    /// The relation body.
    pub relation: GeneralizedRelation,
    /// Number of box tuples the body was built from (`None` for formulas —
    /// the constraint compiler decides the tuple decomposition).
    pub boxes: Option<usize>,
}

impl InsertRelationRequest {
    /// Decodes one of the three accepted shapes:
    ///
    /// * `{"name", "box": {"lo": [...], "hi": [...]}}`
    /// * `{"name", "boxes": [{"lo", "hi"}, ...]}` (union of boxes)
    /// * `{"name", "formula": "...", "arity": n}` (constraint text,
    ///   compiled by `GeneralizedRelation::from_formula`)
    pub fn decode(body: &Json) -> Result<Self, AppError> {
        let name = require_str(body, "name")?.to_string();
        if name.is_empty() {
            return Err(AppError::invalid_params("\"name\" must be non-empty"));
        }
        let shapes = [
            body.get("box").is_some(),
            body.get("boxes").is_some(),
            body.get("formula").is_some(),
        ];
        if shapes.iter().filter(|s| **s).count() != 1 {
            return Err(AppError::invalid_params(
                "provide exactly one of \"box\", \"boxes\" or \"formula\"",
            ));
        }
        if let Some(raw) = body.get("box") {
            let relation = decode_box(raw)?;
            return Ok(InsertRelationRequest {
                name,
                relation,
                boxes: Some(1),
            });
        }
        if let Some(raw) = body.get("boxes") {
            let items = raw
                .as_array()
                .ok_or_else(|| AppError::invalid_params("\"boxes\" must be an array"))?;
            if items.is_empty() {
                return Err(AppError::invalid_params("\"boxes\" must be non-empty"));
            }
            let mut relation: Option<GeneralizedRelation> = None;
            for item in items {
                let next = decode_box(item)?;
                relation = Some(match relation {
                    None => next,
                    Some(r) => {
                        if r.arity() != next.arity() {
                            return Err(AppError::invalid_params("all boxes must share one arity"));
                        }
                        r.union(&next)
                    }
                });
            }
            let relation = relation.expect("non-empty boxes checked above");
            return Ok(InsertRelationRequest {
                name,
                relation,
                boxes: Some(items.len()),
            });
        }
        let text = require_str(body, "formula")?;
        let arity = require_usize(body, "arity")?;
        if arity == 0 {
            return Err(AppError::invalid_params("\"arity\" must be positive"));
        }
        let formula = parse_formula(text, arity)
            .map_err(|e| AppError::invalid_params(format!("formula does not parse: {e}")))?;
        let relation = GeneralizedRelation::from_formula(arity, &formula)
            .map_err(|e| AppError::invalid_params(format!("formula does not compile: {e}")))?;
        Ok(InsertRelationRequest {
            name,
            relation,
            boxes: None,
        })
    }
}

fn decode_box(raw: &Json) -> Result<GeneralizedRelation, AppError> {
    let lo = f64_array(
        raw.get("lo")
            .ok_or_else(|| AppError::invalid_params("box needs \"lo\""))?,
        "\"lo\"",
    )?;
    let hi = f64_array(
        raw.get("hi")
            .ok_or_else(|| AppError::invalid_params("box needs \"hi\""))?,
        "\"hi\"",
    )?;
    if lo.is_empty() || lo.len() != hi.len() {
        return Err(AppError::invalid_params(
            "\"lo\" and \"hi\" must be non-empty and the same length",
        ));
    }
    if lo.iter().zip(&hi).any(|(l, h)| !(l < h)) {
        return Err(AppError::invalid_params(
            "each box side needs lo < hi (finite)",
        ));
    }
    Ok(GeneralizedRelation::from_box_f64(&lo, &hi))
}

/// `POST /v1/sample` / `POST /v1/sample-batch`.
#[derive(Debug)]
pub struct SampleRequest {
    /// Target relation.
    pub relation: String,
    /// Number of points (`1` for the single-sample endpoint).
    pub n: usize,
    /// Seeded-execution fields.
    pub seed: SeedSpec,
    /// Request-level budget override.
    pub budget: Option<BudgetSpec>,
    /// Return completed draws alongside the first failure instead of
    /// failing the whole request (batch endpoint only).
    pub partial: bool,
}

impl SampleRequest {
    /// Decodes a sample request; `batch` enables `"n"` and `"partial"`.
    pub fn decode(body: &Json, batch: bool) -> Result<Self, AppError> {
        let relation = require_str(body, "relation")?.to_string();
        let n = if batch { require_usize(body, "n")? } else { 1 };
        if batch && (n == 0 || n > 100_000) {
            return Err(AppError::invalid_params("\"n\" must be in 1..=100000"));
        }
        let partial = match body.get("partial") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| AppError::invalid_params("\"partial\" must be a boolean"))?,
        };
        Ok(SampleRequest {
            relation,
            n,
            seed: decode_seed(body)?,
            budget: decode_budget(body)?,
            partial: batch && partial,
        })
    }
}

/// `POST /v1/volume`.
#[derive(Debug)]
pub struct VolumeRequest {
    /// Target relation.
    pub relation: String,
    /// Independent repeats whose median is returned (default `1`).
    pub repeats: usize,
    /// Seeded-execution fields.
    pub seed: SeedSpec,
    /// Request-level budget override.
    pub budget: Option<BudgetSpec>,
}

impl VolumeRequest {
    /// Decodes a volume request.
    pub fn decode(body: &Json) -> Result<Self, AppError> {
        let repeats = match body.get("repeats") {
            None => 1,
            Some(_) => require_usize(body, "repeats")?,
        };
        if repeats == 0 || repeats > 10_000 {
            return Err(AppError::invalid_params("\"repeats\" must be in 1..=10000"));
        }
        Ok(VolumeRequest {
            relation: require_str(body, "relation")?.to_string(),
            repeats,
            seed: decode_seed(body)?,
            budget: decode_budget(body)?,
        })
    }
}

/// `POST /v1/reconstruct`.
#[derive(Debug)]
pub struct ReconstructRequest {
    /// The query formula.
    pub query: Formula,
    /// Output arity of the reconstructed relation.
    pub output_arity: usize,
    /// Seeded-execution fields.
    pub seed: SeedSpec,
}

impl ReconstructRequest {
    /// Decodes `{"query": "...", "arity": n, "output_arity": m, ...}`;
    /// `output_arity` defaults to `arity`.
    pub fn decode(body: &Json) -> Result<Self, AppError> {
        let text = require_str(body, "query")?;
        let arity = require_usize(body, "arity")?;
        if arity == 0 {
            return Err(AppError::invalid_params("\"arity\" must be positive"));
        }
        let output_arity = match body.get("output_arity") {
            None => arity,
            Some(_) => require_usize(body, "output_arity")?,
        };
        if output_arity == 0 || output_arity > arity {
            return Err(AppError::invalid_params(
                "\"output_arity\" must be in 1..=arity",
            ));
        }
        let query = parse_formula(text, arity)
            .map_err(|e| AppError::invalid_params(format!("query does not parse: {e}")))?;
        Ok(ReconstructRequest {
            query,
            output_arity,
            seed: decode_seed(body)?,
        })
    }
}

/// Serializes a point list (`null` marks failed draws in partial mode).
fn points_json(points: &[Option<Vec<f64>>]) -> Json {
    Json::Array(
        points
            .iter()
            .map(|p| match p {
                None => Json::Null,
                Some(coords) => Json::Array(coords.iter().map(|x| Json::num(*x)).collect()),
            })
            .collect(),
    )
}

/// Builds the sample / sample-batch response body.
pub fn sample_response(outcome: &QueryOutcome, batch: bool) -> Json {
    let points = outcome.points();
    let mut fields = Vec::new();
    if batch {
        fields.push(("points".to_string(), points_json(points)));
        fields.push(("completed".to_string(), Json::count(outcome.completed)));
        if let Some(err) = &outcome.error {
            // A partial batch answers 200 with its completed draws; the
            // first failure rides along inline instead of failing the
            // request, under the same code it would carry as a top-level
            // error (so clients reuse one error decoder).
            fields.push((
                "error".to_string(),
                Json::Object(vec![
                    ("code".to_string(), Json::str("partial_failure")),
                    ("message".to_string(), Json::str(err.to_string())),
                ]),
            ));
        }
    } else {
        let point = outcome
            .point()
            .expect("fail-fast single sample holds a point");
        fields.push((
            "point".to_string(),
            Json::Array(point.iter().map(|x| Json::num(*x)).collect()),
        ));
    }
    Json::Object(fields)
}

/// Builds the volume response body.
pub fn volume_response(outcome: &QueryOutcome) -> Json {
    let volume = outcome
        .volume()
        .expect("fail-fast volume query holds an estimate");
    Json::Object(vec![
        ("volume".to_string(), Json::num(volume)),
        ("repeats".to_string(), Json::count(outcome.completed)),
    ])
}

/// FNV-1a over the relation's debug form: the digest `tests/server.rs`
/// compares with an in-process reconstruction's.
pub fn relation_digest(relation: &GeneralizedRelation) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for byte in format!("{relation:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Builds the reconstruction response body: tuple count, arity, and the
/// FNV digest (as a decimal string — it uses all 64 bits).
pub fn reconstruct_response(relation: &GeneralizedRelation) -> Json {
    Json::Object(vec![
        ("arity".to_string(), Json::count(relation.arity())),
        ("tuples".to_string(), Json::count(relation.tuples().len())),
        (
            "digest".to_string(),
            Json::u64_str(relation_digest(relation)),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn body(text: &str) -> Json {
        parse(text, 32).unwrap()
    }

    #[test]
    fn decodes_insert_shapes() {
        let req =
            InsertRelationRequest::decode(&body(r#"{"name":"sq","box":{"lo":[0,0],"hi":[1,1]}}"#))
                .unwrap();
        assert_eq!(req.name, "sq");
        assert_eq!(req.relation.arity(), 2);
        assert_eq!(req.boxes, Some(1));

        let req = InsertRelationRequest::decode(&body(
            r#"{"name":"u","boxes":[{"lo":[0],"hi":[1]},{"lo":[2],"hi":[3]}]}"#,
        ))
        .unwrap();
        assert_eq!(req.relation.tuples().len(), 2);
        assert_eq!(req.boxes, Some(2));

        let req = InsertRelationRequest::decode(&body(
            r#"{"name":"f","formula":"x0 >= 0 and x0 <= 1 and x1 >= 0 and x1 <= 1","arity":2}"#,
        ))
        .unwrap();
        assert_eq!(req.relation.arity(), 2);
        assert_eq!(req.boxes, None);
    }

    #[test]
    fn rejects_bad_inserts() {
        for bad in [
            r#"{"box":{"lo":[0],"hi":[1]}}"#,
            r#"{"name":"","box":{"lo":[0],"hi":[1]}}"#,
            r#"{"name":"x"}"#,
            r#"{"name":"x","box":{"lo":[0],"hi":[1]},"formula":"x0 >= 0","arity":1}"#,
            r#"{"name":"x","box":{"lo":[1],"hi":[0]}}"#,
            r#"{"name":"x","box":{"lo":[0,0],"hi":[1]}}"#,
            r#"{"name":"x","boxes":[]}"#,
            r#"{"name":"x","boxes":[{"lo":[0],"hi":[1]},{"lo":[0,0],"hi":[1,1]}]}"#,
            r#"{"name":"x","formula":"x0 >=","arity":1}"#,
            r#"{"name":"x","formula":"x0 >= 0","arity":0}"#,
        ] {
            let result = InsertRelationRequest::decode(&body(bad));
            assert!(result.is_err(), "{bad}");
            assert_eq!(result.unwrap_err().status, 400, "{bad}");
        }
    }

    #[test]
    fn decodes_sample_and_seed() {
        let req = SampleRequest::decode(
            &body(r#"{"relation":"sq","n":5,"seed":"18446744073709551615","stream":3,"partial":true}"#),
            true,
        )
        .unwrap();
        assert_eq!(req.n, 5);
        assert_eq!(req.seed.seed, Some(u64::MAX));
        assert_eq!(req.seed.stream, 3);
        assert!(req.partial);

        // Single-sample: n and partial ignored.
        let req =
            SampleRequest::decode(&body(r#"{"relation":"sq","partial":true}"#), false).unwrap();
        assert_eq!(req.n, 1);
        assert!(!req.partial);

        assert!(SampleRequest::decode(&body(r#"{"relation":"sq","n":0}"#), true).is_err());
        assert!(SampleRequest::decode(&body(r#"{"relation":1}"#), false).is_err());
        assert!(SampleRequest::decode(&body(r#"{"relation":"sq","seed":-3}"#), false).is_err());
    }

    #[test]
    fn decodes_budgets() {
        let spec = decode_budget(&body(r#"{"budget":{"max_steps":100,"timeout_ms":5}}"#))
            .unwrap()
            .unwrap();
        assert_eq!(spec.max_steps, Some(100));
        assert_eq!(spec.max_attempts, None);
        assert_eq!(spec.timeout_ms, Some(5));
        assert!(decode_budget(&body(r#"{"budget":7}"#)).is_err());
        assert!(decode_budget(&body(r#"{"budget":{"max_steps":"lots"}}"#)).is_err());
        assert!(decode_budget(&body(r#"{}"#)).unwrap().is_none());
    }

    #[test]
    fn decodes_reconstruct() {
        let req = ReconstructRequest::decode(&body(
            r#"{"query":"x0 >= 0 and x0 <= 1","arity":1,"seed":7}"#,
        ))
        .unwrap();
        assert_eq!(req.output_arity, 1);
        assert_eq!(req.seed.seed, Some(7));
        assert!(ReconstructRequest::decode(&body(
            r#"{"query":"x0 >= 0","arity":1,"output_arity":2}"#
        ))
        .is_err());
    }

    #[test]
    fn digest_is_stable() {
        let r = GeneralizedRelation::from_box_f64(&[0.0], &[1.0]);
        assert_eq!(relation_digest(&r), relation_digest(&r.clone()));
        let response = reconstruct_response(&r);
        assert_eq!(
            response.get("digest").unwrap().as_u64(),
            Some(relation_digest(&r))
        );
    }
}
