//! Server configuration: bind address, worker pool size, request limits,
//! and per-request [`QueryBudget`] defaults with per-relation overrides.

use std::collections::BTreeMap;
use std::time::Duration;

use cdb_sampler::QueryBudget;

/// Declarative budget limits, resolvable into a [`QueryBudget`].
///
/// Only the deterministic counters and the advisory deadline are
/// configurable here; cancellation tokens are a process-local handle and
/// never cross the config or wire boundary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BudgetSpec {
    /// Walk-step cap (`None` = unlimited).
    pub max_steps: Option<u64>,
    /// Attempt cap (`None` = unlimited).
    pub max_attempts: Option<u64>,
    /// Advisory wall-clock deadline in milliseconds (`None` = none).
    pub timeout_ms: Option<u64>,
}

impl BudgetSpec {
    /// Whether no limit is set at all.
    pub fn is_unlimited(&self) -> bool {
        self.max_steps.is_none() && self.max_attempts.is_none() && self.timeout_ms.is_none()
    }

    /// Builds the corresponding [`QueryBudget`].
    pub fn to_budget(&self) -> QueryBudget {
        let mut budget = QueryBudget::unlimited();
        if let Some(steps) = self.max_steps {
            budget = budget.with_max_steps(steps);
        }
        if let Some(attempts) = self.max_attempts {
            budget = budget.with_max_attempts(attempts);
        }
        if let Some(ms) = self.timeout_ms {
            budget = budget.with_timeout(Duration::from_millis(ms));
        }
        budget
    }
}

/// Everything the server needs to start.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` lets the OS pick a free port — the
    /// default, so tests and loopback harnesses never collide).
    pub bind: String,
    /// Worker threads (`0` = one per core).
    pub workers: usize,
    /// Capacity of the prepared-relation store, and of the reconstruction
    /// piece store beside it, for a server-owned database.
    pub store_capacity: Option<usize>,
    /// Maximum accepted request-body size in bytes.
    pub max_body_bytes: usize,
    /// Maximum JSON nesting depth accepted from clients.
    pub max_json_depth: usize,
    /// Per-connection read timeout (idle keep-alive connections are
    /// dropped after this long without a request).
    pub read_timeout: Duration,
    /// Budget applied to requests that carry no explicit budget and match
    /// no per-relation override.
    pub default_budget: BudgetSpec,
    /// Per-relation budget overrides, keyed by relation name.
    pub budget_overrides: BTreeMap<String, BudgetSpec>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind: "127.0.0.1:0".to_string(),
            workers: 0,
            store_capacity: None,
            max_body_bytes: 1024 * 1024,
            max_json_depth: crate::json::DEFAULT_MAX_DEPTH,
            read_timeout: Duration::from_secs(30),
            default_budget: BudgetSpec::default(),
            budget_overrides: BTreeMap::new(),
        }
    }
}

impl ServerConfig {
    /// Resolves the budget for `relation`: request-level specs are handled
    /// by the handler layer; this picks the per-relation override or falls
    /// back to the default.
    pub fn budget_for(&self, relation: &str) -> &BudgetSpec {
        self.budget_overrides
            .get(relation)
            .unwrap_or(&self.default_budget)
    }

    /// Parses command-line arguments of the form `--key value`.
    ///
    /// Recognized keys: `--bind ADDR`, `--workers N`, `--store-capacity N`,
    /// `--max-body BYTES`, `--max-steps N`, `--max-attempts N`,
    /// `--timeout-ms N`, and `--relation-budget NAME:STEPS:ATTEMPTS` (a
    /// per-relation override; either field may be empty for "unlimited").
    pub fn from_args(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut config = ServerConfig::default();
        let mut args = args.peekable();
        while let Some(flag) = args.next() {
            let mut value =
                |flag: &str| args.next().ok_or_else(|| format!("{flag} expects a value"));
            match flag.as_str() {
                "--bind" => config.bind = value("--bind")?,
                "--workers" => config.workers = parse_num(&value("--workers")?, "--workers")?,
                "--store-capacity" => {
                    config.store_capacity =
                        Some(parse_num(&value("--store-capacity")?, "--store-capacity")?);
                }
                "--max-body" => {
                    config.max_body_bytes = parse_num(&value("--max-body")?, "--max-body")?;
                }
                "--max-steps" => {
                    config.default_budget.max_steps =
                        Some(parse_num(&value("--max-steps")?, "--max-steps")?);
                }
                "--max-attempts" => {
                    config.default_budget.max_attempts =
                        Some(parse_num(&value("--max-attempts")?, "--max-attempts")?);
                }
                "--timeout-ms" => {
                    config.default_budget.timeout_ms =
                        Some(parse_num(&value("--timeout-ms")?, "--timeout-ms")?);
                }
                "--relation-budget" => {
                    let spec = value("--relation-budget")?;
                    let mut parts = spec.splitn(3, ':');
                    let name = parts
                        .next()
                        .filter(|s| !s.is_empty())
                        .ok_or_else(|| format!("--relation-budget {spec:?}: missing name"))?;
                    let steps = parts.next().unwrap_or("");
                    let attempts = parts.next().unwrap_or("");
                    let budget = BudgetSpec {
                        max_steps: parse_opt(steps, "--relation-budget steps")?,
                        max_attempts: parse_opt(attempts, "--relation-budget attempts")?,
                        timeout_ms: None,
                    };
                    config.budget_overrides.insert(name.to_string(), budget);
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(config)
    }
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: {text:?} is not a number"))
}

fn parse_opt(text: &str, flag: &str) -> Result<Option<u64>, String> {
    if text.is_empty() {
        Ok(None)
    } else {
        parse_num(text, flag).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_args() {
        let config = ServerConfig::from_args(
            [
                "--bind",
                "0.0.0.0:8080",
                "--workers",
                "4",
                "--max-steps",
                "1000",
                "--relation-budget",
                "disc:500:20",
                "--relation-budget",
                "cube::7",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(config.bind, "0.0.0.0:8080");
        assert_eq!(config.workers, 4);
        assert_eq!(config.default_budget.max_steps, Some(1000));
        assert_eq!(
            config.budget_for("disc"),
            &BudgetSpec {
                max_steps: Some(500),
                max_attempts: Some(20),
                timeout_ms: None
            }
        );
        assert_eq!(
            config.budget_for("cube"),
            &BudgetSpec {
                max_steps: None,
                max_attempts: Some(7),
                timeout_ms: None
            }
        );
        // Unlisted relations fall back to the default.
        assert_eq!(config.budget_for("other").max_steps, Some(1000));
    }

    #[test]
    fn rejects_bad_args() {
        for bad in [
            vec!["--workers"],
            vec!["--workers", "many"],
            vec!["--relation-budget", ":1:2"],
            vec!["--no-such-flag", "x"],
        ] {
            let args = bad.iter().map(|s| s.to_string());
            assert!(ServerConfig::from_args(args).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn budget_spec_resolves() {
        assert!(BudgetSpec::default().is_unlimited());
        let spec = BudgetSpec {
            max_steps: Some(10),
            max_attempts: None,
            timeout_ms: Some(5),
        };
        assert!(!spec.is_unlimited());
        // Smoke: the built budget is usable (arming is covered by sampler
        // tests; here we only need construction not to panic).
        let _ = spec.to_budget();
    }
}
