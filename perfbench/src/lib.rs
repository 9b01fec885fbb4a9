//! # xlsm-perfbench — the repository's end-to-end and per-layer benchmark
//!
//! Runs a named workload against the simulated device → simfs → engine
//! stack, checks every op's result, and reports end-to-end metrics (from an
//! untraced run) or per-layer metrics (from a traced run whose simulation is
//! checked to be identical). See `README.md` for the workloads, the metrics
//! and how they relate.

pub mod client;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
