//! Bench harnesses of the workspace: the perf report (`perf_report`, which
//! records walk throughput and the paper's claims E1–E12 as rows of
//! `BENCH_walk.json`), the traffic-shaped load harness ([`load`],
//! `load_report`, `BENCH_load.json`), and the report parser and gate
//! ([`report`], `bench_diff`) both are checked with.

pub mod load;
pub mod report;
