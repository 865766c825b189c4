//! Perf-regression gate over two `BENCH_walk.json`-schema reports.
//!
//! Compares a candidate report row by row against a baseline and exits
//! nonzero when any *shared* row regresses beyond the tolerance (default
//! 15% — wide enough to absorb the ~10% machine drift ROADMAP documents
//! between sessions, tight enough to catch real hot-path regressions).
//! Both files are `cdb-perf-report/v*` reports: walk rows gate on
//! `samples_per_sec`, paper-claim rows on `ops_per_sec` (their `quality` is
//! never gated), both lower-is-worse. Rows present on only one side are
//! reported but never fail the gate, so adding workloads is painless;
//! `--coverage-only` instead checks that every baseline row still exists in
//! the candidate (and skips the numeric comparison entirely) — the mode
//! `ci.sh` runs on every default pass against the quick smoke report, whose
//! numbers are meaningless but whose row set proves every dispatch path
//! still executes. In both modes a candidate row with a non-finite or
//! non-positive rate, or a non-finite quality, fails the gate
//! (`cdb_bench::report::check_row`).
//!
//! ```text
//! bench_diff <baseline.json> <candidate.json> [--tolerance 0.15] [--coverage-only]
//! ```
//!
//! Exit codes: `0` pass, `1` regression, lost coverage or a garbage row,
//! `2` usage or parse error.
//!
//! Parsing and the gated-metric table live in `cdb_bench::report`, where
//! they are unit-tested.

use std::process::ExitCode;

use cdb_bench::report::{check_row, compare_row, find, load};

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_diff <baseline.json> <candidate.json> [--tolerance <frac>] [--coverage-only]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files = Vec::new();
    let mut tolerance = 0.15f64;
    let mut coverage_only = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tolerance" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if t >= 0.0 => tolerance = t,
                _ => return usage(),
            },
            "--coverage-only" => coverage_only = true,
            _ if arg.starts_with("--") => return usage(),
            _ => files.push(arg.clone()),
        }
    }
    let [baseline_path, candidate_path] = files.as_slice() else {
        return usage();
    };
    let (baseline, candidate) = match (load(baseline_path), load(candidate_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("bench_diff: {err}");
            }
            return ExitCode::from(2);
        }
    };

    // A candidate row no measurement can have produced (a NaN, infinite or
    // non-positive time, or a non-finite quality) fails either mode: the
    // coverage smoke must not pass on rows that only exist by name.
    let garbage: Vec<String> = candidate
        .iter()
        .filter_map(|c| check_row(c).err())
        .collect();
    if !garbage.is_empty() {
        for err in &garbage {
            eprintln!("bench_diff: {candidate_path}: {err}");
        }
        return ExitCode::from(1);
    }

    if coverage_only {
        // Row-coverage gate: the candidate must retain every baseline row
        // (same workload name), so dispatch coverage can never silently
        // shrink. Numbers are ignored — quick-mode reports are legal input.
        let missing: Vec<&str> = baseline
            .iter()
            .filter(|b| find(&candidate, &b.workload).is_none())
            .map(|b| b.workload.as_str())
            .collect();
        let extra = candidate
            .iter()
            .filter(|c| find(&baseline, &c.workload).is_none())
            .count();
        println!(
            "bench_diff coverage: {} baseline rows, {} candidate rows ({} new)",
            baseline.len(),
            candidate.len(),
            extra
        );
        for b in &baseline {
            let state = if find(&candidate, &b.workload).is_some() {
                "present"
            } else {
                "MISSING"
            };
            println!("  {:<36} {}", b.workload, state);
        }
        if missing.is_empty() {
            println!("bench_diff: coverage OK");
            return ExitCode::SUCCESS;
        }
        eprintln!(
            "bench_diff: candidate lost {} workload row(s): {}",
            missing.len(),
            missing.join(", ")
        );
        return ExitCode::from(1);
    }

    // Full comparison: one line per gated metric the shared rows both carry.
    let mut regressions = 0usize;
    println!(
        "{:<36} {:<16} {:>14} {:>14} {:>9}  {}",
        "workload", "metric", "baseline", "candidate", "delta", "verdict"
    );
    for b in &baseline {
        let Some(c) = find(&candidate, &b.workload) else {
            println!(
                "{:<36} {:<16} {:>14} {:>14} {:>9}  only-in-baseline",
                b.workload, "-", "-", "-", "-"
            );
            continue;
        };
        let deltas = compare_row(b, c, tolerance);
        if deltas.is_empty() {
            println!(
                "{:<36} {:<16} {:>14} {:>14} {:>9}  unreadable",
                b.workload, "-", "-", "-", "-"
            );
            continue;
        }
        for d in deltas {
            if d.regressed {
                regressions += 1;
            }
            println!(
                "{:<36} {:<16} {:>14.2} {:>14.2} {:>+8.1}%  {}",
                b.workload,
                d.metric,
                d.base,
                d.cand,
                d.delta * 100.0,
                if d.regressed { "REGRESSED" } else { "ok" }
            );
        }
    }
    for c in &candidate {
        if find(&baseline, &c.workload).is_none() {
            println!(
                "{:<36} {:<16} {:>14} {:>14} {:>9}  new-row",
                c.workload, "-", "-", "-", "-"
            );
        }
    }
    if regressions > 0 {
        eprintln!(
            "bench_diff: {regressions} metric(s) regressed beyond {:.0}%",
            tolerance * 100.0
        );
        return ExitCode::from(1);
    }
    println!(
        "bench_diff: no shared metric regressed beyond {:.0}%",
        tolerance * 100.0
    );
    ExitCode::SUCCESS
}
