//! `AppError`: the service-level error type and its mapping from the
//! engine's [`SpatialDbError`] taxonomy to HTTP status codes.
//!
//! The mapping (also documented in `ARCHITECTURE.md`):
//!
//! | engine error                         | status | code                |
//! |--------------------------------------|--------|---------------------|
//! | `UnknownRelation`                    | 404    | `unknown_relation`  |
//! | `InvalidParams`                      | 400    | `invalid_params`    |
//! | `NotObservable{InvalidParams}`       | 400    | `invalid_params`    |
//! | `NotObservable{..}` (structural)     | 422    | `not_observable`    |
//! | `BudgetExhausted`                    | 429    | `budget_exhausted`  |
//! | `GenerationFailed`                   | 503    | `generation_failed` |
//! | `WorkerPanicked`                     | 500    | `worker_panicked`   |
//! | `Reconstruction` / `Symbolic`        | 422    | `not_estimable`     |
//!
//! Transport-level failures (malformed JSON → 400 `bad_json`, oversized
//! body → 413 `body_too_large`, unknown route → 404 `route_not_found`,
//! wrong method → 405 `method_not_allowed`) are built by the handler layer
//! with the same constructors.
//!
//! The split between 429, 500 and 503 is deliberate: a tripped budget is
//! the *client's* resource ceiling (retry with a bigger budget → 429), a
//! δ-bounded generation failure is transient by construction (retry with a
//! fresh seed → 503), and a contained worker panic is a server bug → 500.

use cdb_core::SpatialDbError;
use cdb_sampler::compose::ObservabilityError;
use cdb_sampler::BudgetTrip;

use crate::json::{Json, JsonError};

/// A service-level error: HTTP status plus a machine-readable body.
#[derive(Clone, Debug)]
pub struct AppError {
    /// HTTP status code.
    pub status: u16,
    /// Stable machine-readable code (`snake_case`).
    pub code: &'static str,
    /// Human-readable message.
    pub message: String,
    /// Budget-trip cause (`steps` / `attempts` / `deadline` / `cancelled`),
    /// present only for `budget_exhausted`.
    pub cause: Option<&'static str>,
    /// Items completed before the failure, when the engine reported it.
    pub completed: Option<usize>,
}

impl AppError {
    /// A 400 with code `invalid_params`.
    pub fn invalid_params(message: impl Into<String>) -> Self {
        AppError {
            status: 400,
            code: "invalid_params",
            message: message.into(),
            cause: None,
            completed: None,
        }
    }

    /// A 400 with code `bad_json` (the body failed to parse).
    pub fn bad_json(message: impl Into<String>) -> Self {
        AppError {
            status: 400,
            code: "bad_json",
            message: message.into(),
            cause: None,
            completed: None,
        }
    }

    /// A 404 with code `route_not_found`.
    pub fn route_not_found(path: &str) -> Self {
        AppError {
            status: 404,
            code: "route_not_found",
            message: format!("no route matches {path:?}"),
            cause: None,
            completed: None,
        }
    }

    /// A 405 with code `method_not_allowed`.
    pub fn method_not_allowed(method: &str, path: &str) -> Self {
        AppError {
            status: 405,
            code: "method_not_allowed",
            message: format!("{method} is not supported on {path:?}"),
            cause: None,
            completed: None,
        }
    }

    /// A 413 with code `body_too_large`.
    pub fn body_too_large(declared: usize, limit: usize) -> Self {
        AppError {
            status: 413,
            code: "body_too_large",
            message: format!("request body of {declared} bytes exceeds the {limit}-byte limit"),
            cause: None,
            completed: None,
        }
    }

    /// The JSON error envelope: `{"error": {"code", "message", ...}}`.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("code".to_string(), Json::str(self.code)),
            ("message".to_string(), Json::str(self.message.clone())),
        ];
        if let Some(cause) = self.cause {
            fields.push(("cause".to_string(), Json::str(cause)));
        }
        if let Some(completed) = self.completed {
            fields.push(("completed".to_string(), Json::count(completed)));
        }
        Json::Object(vec![("error".to_string(), Json::Object(fields))])
    }
}

/// Wire name of a [`BudgetTrip`].
pub fn trip_code(trip: BudgetTrip) -> &'static str {
    match trip {
        BudgetTrip::Steps => "steps",
        BudgetTrip::Attempts => "attempts",
        BudgetTrip::Deadline => "deadline",
        BudgetTrip::Cancelled => "cancelled",
    }
}

impl From<JsonError> for AppError {
    fn from(err: JsonError) -> Self {
        AppError::bad_json(err.to_string())
    }
}

impl From<SpatialDbError> for AppError {
    fn from(err: SpatialDbError) -> Self {
        let message = err.to_string();
        match err {
            SpatialDbError::UnknownRelation(_) => AppError {
                status: 404,
                code: "unknown_relation",
                message,
                cause: None,
                completed: None,
            },
            SpatialDbError::InvalidParams(_) => AppError {
                status: 400,
                code: "invalid_params",
                message,
                cause: None,
                completed: None,
            },
            SpatialDbError::NotObservable { source, .. } => {
                // Bad parameters are the caller's fault (400); structural
                // non-observability is a property of the stored relation
                // the request was otherwise well-formed about (422).
                let status = match source {
                    ObservabilityError::InvalidParams(_) => 400,
                    _ => 422,
                };
                AppError {
                    status,
                    code: if status == 400 {
                        "invalid_params"
                    } else {
                        "not_observable"
                    },
                    message,
                    cause: None,
                    completed: None,
                }
            }
            SpatialDbError::BudgetExhausted {
                cause, completed, ..
            } => AppError {
                status: 429,
                code: "budget_exhausted",
                message,
                cause: Some(trip_code(cause)),
                completed: Some(completed),
            },
            SpatialDbError::GenerationFailed { .. } => AppError {
                status: 503,
                code: "generation_failed",
                message,
                cause: None,
                completed: None,
            },
            SpatialDbError::WorkerPanicked { .. } => AppError {
                status: 500,
                code: "worker_panicked",
                message,
                cause: None,
                completed: None,
            },
            SpatialDbError::Reconstruction(_) | SpatialDbError::Symbolic(_) => AppError {
                status: 422,
                code: "not_estimable",
                message,
                cause: None,
                completed: None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_core::QueryPhase;

    #[test]
    fn maps_the_taxonomy() {
        let cases: Vec<(SpatialDbError, u16, &str)> = vec![
            (
                SpatialDbError::UnknownRelation("x".into()),
                404,
                "unknown_relation",
            ),
            (
                SpatialDbError::InvalidParams("n".into()),
                400,
                "invalid_params",
            ),
            (
                SpatialDbError::NotObservable {
                    relation: "x".into(),
                    source: ObservabilityError::Empty,
                },
                422,
                "not_observable",
            ),
            (
                SpatialDbError::NotObservable {
                    relation: "x".into(),
                    source: ObservabilityError::InvalidParams("eps".into()),
                },
                400,
                "invalid_params",
            ),
            (
                SpatialDbError::GenerationFailed {
                    relation: "x".into(),
                    attempts: 3,
                    phase: QueryPhase::Sampling,
                },
                503,
                "generation_failed",
            ),
            (
                SpatialDbError::WorkerPanicked {
                    worker: 1,
                    payload: "boom".into(),
                },
                500,
                "worker_panicked",
            ),
        ];
        for (err, status, code) in cases {
            let app: AppError = err.into();
            assert_eq!((app.status, app.code), (status, code), "{}", app.message);
        }
    }

    #[test]
    fn budget_exhaustion_carries_cause_and_completed() {
        let app: AppError = SpatialDbError::BudgetExhausted {
            relation: "x".into(),
            cause: BudgetTrip::Attempts,
            completed: 7,
        }
        .into();
        assert_eq!(app.status, 429);
        assert_eq!(app.cause, Some("attempts"));
        assert_eq!(app.completed, Some(7));
        let body = app.to_json();
        let err = body.get("error").unwrap();
        assert_eq!(err.get("cause").unwrap().as_str(), Some("attempts"));
        assert_eq!(err.get("completed").unwrap().as_usize(), Some(7));
    }
}
