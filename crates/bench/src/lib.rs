//! Bench harness of the workspace: the perf report (`perf_report`, which
//! records walk throughput and the paper's claims E1–E12 as rows of
//! `BENCH_walk.json`) and the report parser and gate ([`report`],
//! `bench_diff`) it is checked with. End-to-end traffic (throughput and
//! latency percentiles per query class, in process and over HTTP) is
//! measured by the `perfbench` package instead.

pub mod report;
