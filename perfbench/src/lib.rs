//! The spatial-cdb benchmark: four seeded workloads, end-to-end metrics
//! with tracing off, and a separate traced run for per-layer metrics.
//! `README.md` in this directory documents the workloads and metrics.

#![forbid(unsafe_code)]

pub mod engine;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

use workload::{Plan, Workload};

/// One metric of a report: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Everything one run measured.
pub struct Report {
    /// Ops attempted in the measured phase.
    pub attempted: usize,
    /// Ops that failed (typed error, wrong answer, HTTP mismatch).
    pub failed: usize,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics (tracing off).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Human-readable context lines (percentile classes, sample counts).
    pub notes: Vec<String>,
    /// FNV-1a digest of every answer's bits, in op order.
    pub answer_digest: u64,
}

fn digest_answers(answers: &[Result<engine::Answer, String>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for answer in answers {
        match answer {
            Ok(engine::Answer::Points(points)) => {
                for x in points.iter().flatten() {
                    feed(&x.to_bits().to_le_bytes());
                }
            }
            Ok(engine::Answer::Volume(v)) => feed(&v.to_bits().to_le_bytes()),
            Ok(engine::Answer::Inserted) => feed(b"inserted"),
            Ok(engine::Answer::Relation(r)) => feed(format!("{r:?}").as_bytes()),
            Err(e) => feed(e.as_bytes()),
        }
    }
    h
}

/// Runs `workload` with `ops` ops from `seed`: set-up, the measured phase
/// over `connections` HTTP connections (in-process workloads use one client
/// thread) with the repeated set-ups between its slices, verification and,
/// with `trace`, the traced replay.
pub fn run_workload(
    workload: Workload,
    seed: u64,
    ops: usize,
    trace: bool,
    connections: usize,
) -> Result<Report, String> {
    let (prepared, measured, setup_s) = run::setup_and_measure(workload, seed, ops, connections)?;
    let verdict = run::verify(&prepared, &measured);
    let end_to_end = run::end_to_end(&measured, &verdict, setup_s);
    let mut notes = vec![format!(
        "{} seed {seed}: {} ops ({}), {} failed",
        workload.name(),
        ops,
        mix_note(&prepared.plan),
        verdict.failed
    )];
    for q in [0.5, 0.9] {
        let (class, beyond) = run::class_at(&prepared.plan, &measured, q);
        notes.push(format!(
            "p{:.0} falls in class {} with {beyond} ops beyond it",
            q * 100.0,
            class.label()
        ));
    }
    notes.push(format!(
        "store over the measured phase: {} hits, {} misses, {} evictions",
        measured.store.hits, measured.store.misses, measured.store.evictions
    ));
    notes.push(format!(
        "error_pct {:.4} % ({} of {ops} ops failed)",
        100.0 * verdict.failed as f64 / ops as f64,
        verdict.failed
    ));
    notes.extend(verdict.failures.iter().map(|f| format!("failure: {f}")));
    let per_layer = if trace {
        trace::traced_run(&prepared, &measured)?
    } else {
        Vec::new()
    };
    Ok(Report {
        attempted: ops,
        failed: verdict.failed,
        failures: verdict.failures,
        end_to_end,
        per_layer,
        notes,
        answer_digest: digest_answers(&measured.answers),
    })
}

fn mix_note(plan: &Plan) -> String {
    workload::OpKind::ALL
        .iter()
        .filter(|&&k| plan.count(k) > 0)
        .map(|&k| format!("{} {}", plan.count(k), k.label()))
        .collect::<Vec<_>>()
        .join(", ")
}
