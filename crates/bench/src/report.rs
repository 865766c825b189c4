//! Parsing and comparison of the `BENCH_*.json` report schemas.
//!
//! Two report families share the row shape gated by `bench_diff`:
//!
//! * `cdb-perf-report/v*` — single-query rows written by `perf_report`:
//!   walk rows (`steps_per_sec`, `samples_per_sec`) and, from v3 on, the
//!   paper-claim rows E1–E12 (`ops_per_sec` for the timed op, plus a
//!   `quality` value — relative error, symmetric difference, acceptance
//!   rate or χ² — that is recorded beside it and never gated);
//! * `cdb-load-report/v*` — traffic-shaped load rows written by
//!   `load_report` (`throughput_rps` plus the `p50_ms`/`p95_ms`/`p99_ms`/
//!   `max_ms` latency percentiles per query class).
//!
//! The parser is deliberately minimal (the workspace is offline — no serde):
//! it scans for the `"workload"` keys both reports write, and extracts the
//! sibling fields of each flat row object. Comparison is metric-directional:
//! throughput metrics regress when the candidate is *lower* than
//! `baseline · (1 − tolerance)`, latency percentiles when it is *higher*
//! than `baseline · (1 + tolerance)` **and** more than [`LATENCY_SLACK_MS`]
//! worse (sub-10ms tails jitter by whole multiples run to run). `max_ms` is
//! parsed and displayed but never gated — a single scheduler hiccup should
//! not fail CI.

/// One parsed report row. Walk rows fill the `steps/samples_per_sec`
/// columns, claim rows `ops_per_sec` and `quality`, load rows the
/// `requests/throughput/latency` columns; a row may carry any subset and is
/// compared only on the metrics both sides share.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Row {
    /// Row name (`"e1"`, `"load_sessions.sample"`, …) — the join key.
    pub workload: String,
    /// Ambient dimension, when the report records one.
    pub dim: Option<f64>,
    /// Kernel label of perf rows.
    pub kernel: Option<String>,
    /// Walk steps per second (perf rows).
    pub steps_per_sec: Option<f64>,
    /// End-to-end samples per second (perf rows).
    pub samples_per_sec: Option<f64>,
    /// Timed operations per second (paper-claim rows).
    pub ops_per_sec: Option<f64>,
    /// The claim's quality value, recorded beside the time and never gated
    /// (paper-claim rows; exact baselines carry none).
    pub quality: Option<f64>,
    /// Scheduled requests of a load row.
    pub requests: Option<f64>,
    /// Requests that resolved to a payload or typed error (load rows).
    pub completed: Option<f64>,
    /// Resolved requests that returned a typed error (load rows).
    pub errors: Option<f64>,
    /// Requests lost to contained worker panics (load rows).
    pub lost: Option<f64>,
    /// Completed requests per second of wall clock (load rows).
    pub throughput_rps: Option<f64>,
    /// Median latency in milliseconds (load rows).
    pub p50_ms: Option<f64>,
    /// 95th-percentile latency in milliseconds (load rows).
    pub p95_ms: Option<f64>,
    /// 99th-percentile latency in milliseconds (load rows).
    pub p99_ms: Option<f64>,
    /// Worst observed latency in milliseconds (load rows; never gated).
    pub max_ms: Option<f64>,
}

/// Extracts the string value following `"field":` inside `object`.
pub fn string_field(object: &str, field: &str) -> Option<String> {
    let needle = format!("\"{field}\"");
    let after = &object[object.find(&needle)? + needle.len()..];
    let after = after.trim_start().strip_prefix(':')?.trim_start();
    let rest = after.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Extracts the numeric value following `"field":` inside `object`. The
/// value runs to the next `,` or `}`, so a `NaN` or `inf` a writer printed
/// parses as that value (and [`check_row`] rejects it) instead of reading as
/// an absent field.
pub fn number_field(object: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\"");
    let after = &object[object.find(&needle)? + needle.len()..];
    let after = after.trim_start().strip_prefix(':')?;
    let end = after.find([',', '}']).unwrap_or(after.len());
    after[..end].trim().parse().ok()
}

/// Parses every `{... "workload": ...}` object of a report.
pub fn parse_rows(text: &str) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find("\"workload\"") {
        // The row object spans from the `{` before the key to the next `}`
        // (row objects are flat — both report writers emit one per line).
        let open = rest[..pos]
            .rfind('{')
            .ok_or("malformed report: workload key outside an object")?;
        let close = rest[pos..]
            .find('}')
            .ok_or("malformed report: unterminated row object")?
            + pos;
        let object = &rest[open..close];
        rows.push(Row {
            workload: string_field(object, "workload")
                .ok_or("malformed report: unreadable workload name")?,
            dim: number_field(object, "dim"),
            kernel: string_field(object, "kernel"),
            steps_per_sec: number_field(object, "steps_per_sec"),
            samples_per_sec: number_field(object, "samples_per_sec"),
            ops_per_sec: number_field(object, "ops_per_sec"),
            quality: number_field(object, "quality"),
            requests: number_field(object, "requests"),
            completed: number_field(object, "completed"),
            errors: number_field(object, "errors"),
            lost: number_field(object, "lost"),
            throughput_rps: number_field(object, "throughput_rps"),
            p50_ms: number_field(object, "p50_ms"),
            p95_ms: number_field(object, "p95_ms"),
            p99_ms: number_field(object, "p99_ms"),
            max_ms: number_field(object, "max_ms"),
        });
        rest = &rest[close..];
    }
    if rows.is_empty() {
        return Err("no workload rows found (is this a cdb report file?)".into());
    }
    Ok(rows)
}

/// Parses a full report file's text: requires one of the two schema markers,
/// then delegates to [`parse_rows`].
pub fn parse_report(text: &str) -> Result<Vec<Row>, String> {
    if !text.contains("cdb-perf-report/") && !text.contains("cdb-load-report/") {
        return Err("missing the cdb-perf-report/cdb-load-report schema marker".into());
    }
    parse_rows(text)
}

/// Reads and parses a report file.
pub fn load(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_report(&text).map_err(|e| format!("{path}: {e}"))
}

/// Finds the row named `name`.
pub fn find<'a>(rows: &'a [Row], name: &str) -> Option<&'a Row> {
    rows.iter().find(|r| r.workload == name)
}

/// Which direction of change counts as a regression for a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Throughput-like: a candidate *below* `base · (1 − tol)` regresses.
    HigherIsBetter,
    /// Latency-like: a candidate *above* `base · (1 + tol)` regresses.
    LowerIsBetter,
}

/// The gated metrics, with their regression direction. `max_ms` is absent by
/// design: the worst single request is too noisy to gate, and so is
/// `quality`: it is a property of the seeded run, not of the machine.
pub const GATED_METRICS: [(&str, Direction); 6] = [
    ("samples_per_sec", Direction::HigherIsBetter),
    ("ops_per_sec", Direction::HigherIsBetter),
    ("throughput_rps", Direction::HigherIsBetter),
    ("p50_ms", Direction::LowerIsBetter),
    ("p95_ms", Direction::LowerIsBetter),
    ("p99_ms", Direction::LowerIsBetter),
];

fn metric(row: &Row, name: &str) -> Option<f64> {
    match name {
        "samples_per_sec" => row.samples_per_sec,
        "ops_per_sec" => row.ops_per_sec,
        "throughput_rps" => row.throughput_rps,
        "p50_ms" => row.p50_ms,
        "p95_ms" => row.p95_ms,
        "p99_ms" => row.p99_ms,
        _ => None,
    }
}

/// Rejects a row no measurement can have produced: a time field (a rate or
/// a latency) that is non-finite or not positive, or a non-finite quality.
/// A quality of 0 is legal — an unsatisfiable CNF or a vanishing overlap
/// accepts nothing.
pub fn check_row(row: &Row) -> Result<(), String> {
    let times = [
        ("steps_per_sec", row.steps_per_sec),
        ("samples_per_sec", row.samples_per_sec),
        ("ops_per_sec", row.ops_per_sec),
        ("throughput_rps", row.throughput_rps),
        ("p50_ms", row.p50_ms),
        ("p95_ms", row.p95_ms),
        ("p99_ms", row.p99_ms),
        ("max_ms", row.max_ms),
    ];
    for (name, value) in times {
        if let Some(v) = value.filter(|v| !(v.is_finite() && *v > 0.0)) {
            return Err(format!(
                "{}: {name} = {v} is not a measured time",
                row.workload
            ));
        }
    }
    match row.quality {
        Some(q) if !q.is_finite() => Err(format!("{}: quality = {q} is not finite", row.workload)),
        _ => Ok(()),
    }
}

/// One compared metric of a shared row.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDelta {
    /// Metric name (one of [`GATED_METRICS`]).
    pub metric: &'static str,
    /// Baseline value.
    pub base: f64,
    /// Candidate value.
    pub cand: f64,
    /// Relative change `cand/base − 1` (0 when the baseline is 0).
    pub delta: f64,
    /// Whether the change regresses beyond the tolerance, in the metric's
    /// direction.
    pub regressed: bool,
}

/// Absolute slack for latency-percentile gates, in milliseconds. At modest
/// request counts a p99 is the handful of worst requests, and sub-10ms
/// percentiles jitter by whole multiples run to run (one scheduler hiccup
/// lands on a different request each time), so a purely relative tolerance
/// flakes. A latency metric regresses only when it is beyond the relative
/// tolerance *and* more than this many milliseconds worse — the gate exists
/// to catch real stalls, not timer noise.
pub const LATENCY_SLACK_MS: f64 = 10.0;

/// Compares two rows metric by metric: every gated metric present on *both*
/// sides yields a [`MetricDelta`]. A walk row gates on `samples_per_sec`, a
/// claim row on `ops_per_sec` (never on its `quality`), a load row on
/// `throughput_rps` + latency percentiles — the row shape itself selects the
/// arms. Latency percentiles additionally get [`LATENCY_SLACK_MS`] of
/// absolute slack before they count as regressed.
pub fn compare_row(base: &Row, cand: &Row, tolerance: f64) -> Vec<MetricDelta> {
    let mut deltas = Vec::new();
    for (name, direction) in GATED_METRICS {
        let (Some(b), Some(c)) = (metric(base, name), metric(cand, name)) else {
            continue;
        };
        let delta = if b > 0.0 { c / b - 1.0 } else { 0.0 };
        let regressed = match direction {
            Direction::HigherIsBetter => delta < -tolerance,
            Direction::LowerIsBetter => delta > tolerance && c - b > LATENCY_SLACK_MS,
        };
        deltas.push(MetricDelta {
            metric: name,
            base: b,
            cand: c,
            delta,
            regressed,
        });
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;

    const PERF_SAMPLE: &str = r#"{
  "schema": "cdb-perf-report/v2",
  "workloads": [
    {"workload": "e1", "dim": 6, "kernel": "axis", "steps_per_sec": 700, "samples_per_sec": 150.5},
    {"workload": "e7_cold", "dim": 3, "kernel": "mixed", "steps_per_sec": 31e6, "samples_per_sec": 133.5}
  ]
}"#;

    const LOAD_SAMPLE: &str = r#"{
  "schema": "cdb-load-report/v1",
  "workloads": [
    {"workload": "load_sessions.sample", "requests": 500, "completed": 498, "errors": 3, "lost": 2, "throughput_rps": 1200.5, "p50_ms": 0.8, "p95_ms": 2.5, "p99_ms": 4.0, "max_ms": 9.1},
    {"workload": "load_sessions.volume", "requests": 200, "throughput_rps": 310.0, "p50_ms": 3.1, "p95_ms": 8.0, "p99_ms": 12.5, "max_ms": 20.0}
  ]
}"#;

    /// Rows as `perf_report` writes them from v3 on: the walk rows are
    /// unchanged, the claim rows time one op and carry a quality (or none,
    /// for an exact baseline).
    const PERF_V3_SAMPLE: &str = r#"{
  "schema": "cdb-perf-report/v3",
  "workloads": [
    {"workload": "e1", "dim": 6, "kernel": "axis", "steps_per_sec": 690, "samples_per_sec": 149.0},
    {"workload": "e8_hull_of_50_samples", "dim": 2, "ops_per_sec": 2750.125, "quality_kind": "sd_pct", "quality": 16.041666666666668},
    {"workload": "e9_fourier_motzkin_k1", "dim": 3, "ops_per_sec": 2500.000},
    {"workload": "e11_cnf_intersection_n5", "dim": 5, "ops_per_sec": 41.5, "quality_kind": "acceptance", "quality": 0}
  ]
}"#;

    #[test]
    fn v3_claim_rows_parse_time_and_quality() {
        let rows = parse_report(PERF_V3_SAMPLE).unwrap();
        assert_eq!(rows.len(), 4);
        let hull = find(&rows, "e8_hull_of_50_samples").unwrap();
        assert_eq!(hull.ops_per_sec, Some(2750.125));
        assert_eq!(hull.quality, Some(16.041666666666668));
        assert_eq!(hull.dim, Some(2.0));
        assert_eq!(hull.samples_per_sec, None);
        // An exact baseline is timed but has no quality.
        let fm = find(&rows, "e9_fourier_motzkin_k1").unwrap();
        assert_eq!(fm.ops_per_sec, Some(2500.0));
        assert_eq!(fm.quality, None);
        // Walk rows read exactly as in v2.
        assert_eq!(rows[0].samples_per_sec, Some(149.0));
        assert_eq!(rows[0].ops_per_sec, None);
        assert!(rows.iter().all(|r| check_row(r).is_ok()));
    }

    #[test]
    fn claim_time_is_gated_downward_and_quality_never() {
        let base = find(
            &parse_rows(PERF_V3_SAMPLE).unwrap(),
            "e8_hull_of_50_samples",
        )
        .unwrap()
        .clone();
        let mut cand = base.clone();
        cand.ops_per_sec = Some(2750.125 * 0.70);
        cand.quality = Some(1e6);
        let deltas = compare_row(&base, &cand, 0.15);
        assert_eq!(deltas.len(), 1, "only the time is gated: {deltas:?}");
        assert_eq!(deltas[0].metric, "ops_per_sec");
        assert!(deltas[0].regressed);
        cand.ops_per_sec = Some(2750.125 * 1.30);
        assert!(!compare_row(&base, &cand, 0.15)[0].regressed);
        assert!(GATED_METRICS.iter().all(|(name, _)| *name != "quality"));
    }

    #[test]
    fn v2_baseline_joins_v3_candidate_on_walk_rows() {
        let base = parse_report(PERF_SAMPLE).unwrap();
        let cand = parse_report(PERF_V3_SAMPLE).unwrap();
        let shared: Vec<&str> = base
            .iter()
            .filter(|b| find(&cand, &b.workload).is_some())
            .map(|b| b.workload.as_str())
            .collect();
        assert_eq!(shared, ["e1"]);
        let e1 = find(&cand, "e1").unwrap();
        let deltas = compare_row(&base[0], e1, 0.15);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].metric, "samples_per_sec");
        assert!(!deltas[0].regressed, "149.0 vs 150.5 is within 15%");
    }

    #[test]
    fn garbage_rows_are_rejected_and_zero_quality_is_not() {
        let nan = PERF_V3_SAMPLE.replace("\"quality\": 16.041666666666668", "\"quality\": NaN");
        let rows = parse_report(&nan).unwrap();
        let row = find(&rows, "e8_hull_of_50_samples").unwrap();
        assert!(
            row.quality.is_some_and(f64::is_nan),
            "NaN must not read as absent"
        );
        assert!(check_row(row).is_err());

        let zero = PERF_V3_SAMPLE.replace("\"ops_per_sec\": 2500.000", "\"ops_per_sec\": 0.000");
        let rows = parse_report(&zero).unwrap();
        assert!(check_row(find(&rows, "e9_fourier_motzkin_k1").unwrap()).is_err());

        let huge = PERF_SAMPLE.replace("31e6", "inf");
        assert!(check_row(&parse_rows(&huge).unwrap()[1]).is_err());

        // An intersection that accepts nothing is a measurement, not garbage.
        let rows = parse_report(PERF_V3_SAMPLE).unwrap();
        let refusal = find(&rows, "e11_cnf_intersection_n5").unwrap();
        assert_eq!(refusal.quality, Some(0.0));
        assert!(check_row(refusal).is_ok());

        let mut stalled = parse_rows(LOAD_SAMPLE).unwrap()[0].clone();
        assert!(check_row(&stalled).is_ok());
        stalled.throughput_rps = Some(0.0);
        assert!(check_row(&stalled).is_err());
    }

    #[test]
    fn rows_parse_with_names_and_numbers() {
        let rows = parse_rows(PERF_SAMPLE).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].workload, "e1");
        assert_eq!(rows[0].samples_per_sec, Some(150.5));
        assert_eq!(rows[0].kernel.as_deref(), Some("axis"));
        assert_eq!(rows[1].steps_per_sec, Some(31e6));
        assert_eq!(rows[1].dim, Some(3.0));
        // Perf rows carry no load metrics.
        assert_eq!(rows[0].p95_ms, None);
        assert_eq!(rows[0].throughput_rps, None);
    }

    #[test]
    fn load_rows_parse_latency_percentiles() {
        let rows = parse_rows(LOAD_SAMPLE).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].workload, "load_sessions.sample");
        assert_eq!(rows[0].requests, Some(500.0));
        assert_eq!(rows[0].completed, Some(498.0));
        assert_eq!(rows[0].errors, Some(3.0));
        assert_eq!(rows[0].lost, Some(2.0));
        assert_eq!(rows[0].throughput_rps, Some(1200.5));
        // A row without the accounting fields parses with them absent.
        assert_eq!(rows[1].completed, None);
        assert_eq!(rows[1].errors, None);
        assert_eq!(rows[1].lost, None);
        assert_eq!(rows[0].p50_ms, Some(0.8));
        assert_eq!(rows[0].p95_ms, Some(2.5));
        assert_eq!(rows[0].p99_ms, Some(4.0));
        assert_eq!(rows[0].max_ms, Some(9.1));
        // Load rows carry no perf metrics.
        assert_eq!(rows[0].samples_per_sec, None);
    }

    #[test]
    fn malformed_reports_are_rejected() {
        assert!(parse_rows("{}").is_err());
        assert!(parse_rows("\"workload\": \"loose\"").is_err());
    }

    #[test]
    fn both_schema_markers_are_accepted_and_others_rejected() {
        assert!(parse_report(PERF_SAMPLE).is_ok());
        assert!(parse_report(LOAD_SAMPLE).is_ok());
        let unmarked = LOAD_SAMPLE.replace("cdb-load-report/v1", "mystery/v9");
        assert!(parse_report(&unmarked).is_err());
    }

    #[test]
    fn latency_metrics_regress_upward_and_throughput_downward() {
        let rows = parse_rows(LOAD_SAMPLE).unwrap();
        let base = &rows[0];
        let mut worse = base.clone();
        worse.p95_ms = Some(2.5 + 15.0); // +600% and beyond the absolute slack
        worse.p50_ms = Some(0.8 * 1.30); // +30% but sub-slack jitter: fine
        worse.throughput_rps = Some(1200.5 * 1.30); // +30% throughput: fine
        let deltas = compare_row(base, &worse, 0.15);
        let by_name = |n: &str| deltas.iter().find(|d| d.metric == n).unwrap();
        assert!(by_name("p95_ms").regressed);
        assert!(!by_name("throughput_rps").regressed);
        assert!(!by_name("p50_ms").regressed);

        // A big relative spike that stays within LATENCY_SLACK_MS absolute
        // is timer noise, not a regression.
        let mut jitter = base.clone();
        jitter.p99_ms = Some(4.0 + LATENCY_SLACK_MS - 0.5);
        let deltas = compare_row(base, &jitter, 0.15);
        assert!(
            !deltas
                .iter()
                .find(|d| d.metric == "p99_ms")
                .unwrap()
                .regressed
        );

        let mut slower = base.clone();
        slower.throughput_rps = Some(1200.5 * 0.70); // −30% throughput
        slower.p99_ms = Some(4.0 * 0.70); // −30% latency: improvement
        let deltas = compare_row(base, &slower, 0.15);
        let by_name = |n: &str| deltas.iter().find(|d| d.metric == n).unwrap();
        assert!(by_name("throughput_rps").regressed);
        assert!(!by_name("p99_ms").regressed);
    }

    #[test]
    fn comparison_only_covers_metrics_present_on_both_sides() {
        let perf = &parse_rows(PERF_SAMPLE).unwrap()[0];
        let load = &parse_rows(LOAD_SAMPLE).unwrap()[0];
        // Disjoint metric sets: nothing to compare, nothing to regress.
        assert!(compare_row(perf, load, 0.15).is_empty());
        // max_ms is never gated even when present on both sides.
        let metrics: Vec<&str> = compare_row(load, load, 0.15)
            .iter()
            .map(|d| d.metric)
            .collect();
        assert!(!metrics.contains(&"max_ms"));
        assert_eq!(metrics.len(), 4);
    }

    #[test]
    fn zero_baseline_never_divides_or_regresses() {
        let mut base = parse_rows(LOAD_SAMPLE).unwrap()[0].clone();
        base.throughput_rps = Some(0.0);
        let cand = parse_rows(LOAD_SAMPLE).unwrap()[0].clone();
        let deltas = compare_row(&base, &cand, 0.15);
        let tp = deltas
            .iter()
            .find(|d| d.metric == "throughput_rps")
            .unwrap();
        assert_eq!(tp.delta, 0.0);
        assert!(!tp.regressed);
    }
}
