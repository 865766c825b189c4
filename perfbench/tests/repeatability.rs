//! The benchmark's own correctness and repeatability gates, on short plans:
//! every workload answers correctly, quality and count metrics repeat
//! bit for bit for a seed, and HTTP answers equal in-process answers for
//! any connection count.

use cdb_perfbench::workload::Workload;
use cdb_perfbench::{run_workload, Report};

/// Metrics that must repeat exactly for a seed: the answer error and every
/// count-derived per-layer metric.
fn exact_metrics(report: &Report) -> Vec<(&'static str, u64)> {
    let quality = report
        .end_to_end
        .iter()
        .filter(|(name, _, _)| *name == "answer_err_pct");
    let counts = report.per_layer.iter().filter(|(name, _, unit)| {
        !name.starts_with("trace.") && matches!(*unit, "count" | "B" | "%")
    });
    quality
        .chain(counts)
        .map(|(name, value, _)| (*name, value.to_bits()))
        .collect()
}

fn traced(workload: Workload, seed: u64, ops: usize) -> Report {
    let report = run_workload(workload, seed, ops, true, 2).expect("the run completes");
    assert_eq!(
        report.failed,
        0,
        "{}: {:?}",
        workload.name(),
        report.failures
    );
    assert_eq!(report.attempted, ops);
    report
}

#[test]
fn every_workload_is_correct_and_repeatable() {
    for (workload, ops) in [
        (Workload::WarmInproc, 240),
        (Workload::HttpWarm, 240),
        (Workload::ChurnInproc, 120),
        (Workload::Recon2d, 12),
    ] {
        let first = traced(workload, 7, ops);
        let second = traced(workload, 7, ops);
        let exact = exact_metrics(&first);
        assert!(exact.len() >= 10, "{}: {exact:?}", workload.name());
        assert_eq!(exact, exact_metrics(&second), "{}", workload.name());
        assert_eq!(
            first.answer_digest,
            second.answer_digest,
            "{}",
            workload.name()
        );
        for (name, value, _) in &first.end_to_end {
            assert!(
                value.is_finite() && *value > 0.0,
                "{} {name} = {value}",
                workload.name()
            );
        }
    }
}

#[test]
fn http_answers_equal_in_process_answers_for_any_connection_count() {
    let ops = 300;
    let inproc = run_workload(Workload::WarmInproc, 11, ops, false, 1).expect("in-process run");
    for connections in [1, 2] {
        let http = run_workload(Workload::HttpWarm, 11, ops, false, connections).expect("http run");
        assert_eq!(http.failed, 0, "{:?}", http.failures);
        assert_eq!(
            http.answer_digest, inproc.answer_digest,
            "{connections} connections"
        );
    }
}

#[test]
fn different_seeds_give_different_answers() {
    let a = run_workload(Workload::WarmInproc, 1, 120, false, 1).expect("run");
    let b = run_workload(Workload::WarmInproc, 2, 120, false, 1).expect("run");
    assert_ne!(a.answer_digest, b.answer_digest);
}
