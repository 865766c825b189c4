//! Parsing and comparison of the `cdb-perf-report/v*` schema that
//! `perf_report` writes to `BENCH_walk.json`.
//!
//! A report holds two row families, gated by `bench_diff`: walk rows
//! (`steps_per_sec`, `samples_per_sec`) and, from v3 on, the paper-claim
//! rows E1–E12 (`ops_per_sec` for the timed op, plus a `quality` value —
//! relative error, symmetric difference, acceptance rate or χ² — that is
//! recorded beside it and never gated).
//!
//! The parser is deliberately minimal (the workspace is offline — no serde):
//! it scans for the `"workload"` keys the report writes, and extracts the
//! sibling fields of each flat row object. A gated rate regresses when the
//! candidate is *lower* than `baseline · (1 − tolerance)`.

/// One parsed report row. Walk rows fill the `steps/samples_per_sec`
/// columns, claim rows `ops_per_sec` and `quality`; a row is compared only
/// on the metrics both sides share.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Row {
    /// Row name (`"e1_polytope_hit_and_run"`, `"e8_hull_of_50_samples"`, …)
    /// — the join key.
    pub workload: String,
    /// Ambient dimension, when the report records one.
    pub dim: Option<f64>,
    /// Kernel label of walk rows.
    pub kernel: Option<String>,
    /// Walk steps per second (walk rows whose samples run a walk).
    pub steps_per_sec: Option<f64>,
    /// End-to-end samples per second (walk rows).
    pub samples_per_sec: Option<f64>,
    /// Timed operations per second (paper-claim rows).
    pub ops_per_sec: Option<f64>,
    /// The claim's quality value, recorded beside the time and never gated
    /// (paper-claim rows; exact baselines carry none).
    pub quality: Option<f64>,
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
        // (row objects are flat — the report writer emits one per line).
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
        });
        rest = &rest[close..];
    }
    if rows.is_empty() {
        return Err("no workload rows found (is this a cdb report file?)".into());
    }
    Ok(rows)
}

/// Parses a full report file's text: requires the schema marker, then
/// delegates to [`parse_rows`].
pub fn parse_report(text: &str) -> Result<Vec<Row>, String> {
    if !text.contains("cdb-perf-report/") {
        return Err("missing the cdb-perf-report schema marker".into());
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

/// The gated metrics, each a rate that regresses downward. `steps_per_sec`
/// is absent because it is derived from `samples_per_sec`, and so is
/// `quality`: it is a property of the seeded run, not of the machine.
pub const GATED_METRICS: [&str; 2] = ["samples_per_sec", "ops_per_sec"];

fn metric(row: &Row, name: &str) -> Option<f64> {
    match name {
        "samples_per_sec" => row.samples_per_sec,
        "ops_per_sec" => row.ops_per_sec,
        _ => None,
    }
}

/// Rejects a row no measurement can have produced: a rate that is
/// non-finite or not positive, or a non-finite quality.
/// A quality of 0 is legal — an unsatisfiable CNF or a vanishing overlap
/// accepts nothing.
pub fn check_row(row: &Row) -> Result<(), String> {
    let times = [
        ("steps_per_sec", row.steps_per_sec),
        ("samples_per_sec", row.samples_per_sec),
        ("ops_per_sec", row.ops_per_sec),
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
    /// Whether the rate dropped beyond the tolerance.
    pub regressed: bool,
}

/// Compares two rows metric by metric: every gated metric present on *both*
/// sides yields a [`MetricDelta`]. A walk row gates on `samples_per_sec`, a
/// claim row on `ops_per_sec` (never on its `quality`) — the row shape
/// itself selects the arm.
pub fn compare_row(base: &Row, cand: &Row, tolerance: f64) -> Vec<MetricDelta> {
    let mut deltas = Vec::new();
    for name in GATED_METRICS {
        let (Some(b), Some(c)) = (metric(base, name), metric(cand, name)) else {
            continue;
        };
        let delta = if b > 0.0 { c / b - 1.0 } else { 0.0 };
        deltas.push(MetricDelta {
            metric: name,
            base: b,
            cand: c,
            delta,
            regressed: delta < -tolerance,
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
        assert!(!GATED_METRICS.contains(&"quality"));
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

        let stalled = PERF_SAMPLE.replace("133.5", "0.0");
        assert!(check_row(&parse_rows(&stalled).unwrap()[1]).is_err());
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
        // Walk rows carry no claim columns.
        assert_eq!(rows[0].ops_per_sec, None);
        assert_eq!(rows[0].quality, None);
    }

    #[test]
    fn malformed_reports_are_rejected() {
        assert!(parse_rows("{}").is_err());
        assert!(parse_rows("\"workload\": \"loose\"").is_err());
    }

    #[test]
    fn the_perf_schema_marker_is_required() {
        assert!(parse_report(PERF_SAMPLE).is_ok());
        let unmarked = PERF_SAMPLE.replace("cdb-perf-report/v2", "mystery/v9");
        assert!(parse_report(&unmarked).is_err());
    }

    #[test]
    fn comparison_only_covers_metrics_present_on_both_sides() {
        let rows = parse_rows(PERF_V3_SAMPLE).unwrap();
        let walk = find(&rows, "e1").unwrap();
        let claim = find(&rows, "e8_hull_of_50_samples").unwrap();
        // Disjoint metric sets: nothing to compare, nothing to regress.
        assert!(compare_row(walk, claim, 0.15).is_empty());
        // steps_per_sec is never gated even when present on both sides.
        let metrics: Vec<&str> = compare_row(walk, walk, 0.15)
            .iter()
            .map(|d| d.metric)
            .collect();
        assert_eq!(metrics, ["samples_per_sec"]);
    }

    #[test]
    fn zero_baseline_never_divides_or_regresses() {
        let mut base = parse_rows(PERF_SAMPLE).unwrap()[0].clone();
        base.samples_per_sec = Some(0.0);
        let cand = parse_rows(PERF_SAMPLE).unwrap()[0].clone();
        let deltas = compare_row(&base, &cand, 0.15);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].delta, 0.0);
        assert!(!deltas[0].regressed);
    }
}
