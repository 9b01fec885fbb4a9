//! # xlsm-bench — regenerates every figure of the ISPASS'20 paper.
//!
//! Each `figNN` function reproduces one evaluation figure at the study's
//! scaled geometry and returns printable [`xlsm_core::report::Table`]s (also written as TSV by
//! the `figures` binary). Figure groups that share a parameter sweep expose
//! a combined function so `figures all` pays for each sweep once.
//!
//! | Function | Paper figure | Content |
//! |----------|--------------|---------|
//! | [`fig01`] | Fig. 1  | raw vs KV speedup, SATA → XPoint |
//! | [`fig03`] | Fig. 3  | throughput vs insertion ratio |
//! | [`fig04_to_07`] | Figs. 4–7 | timelines + latency @5 %, 90 % writes |
//! | [`fig08_to_12`] | Figs. 8–10, 12 | Level-0 geometry sweep |
//! | [`fig13_to_16`] | Figs. 13–16 | parallelism sweep + interference |
//! | [`fig17`] | Fig. 17 | WAL on/off write latency |
//! | [`fig18`] | Fig. 18 | two-stage throttling under bursts |
//! | [`fig19`] | Fig. 19 | dynamic Level-0 management |
//! | [`fig20`] | Fig. 20 | WAL placement: SSD vs NVM vs disabled |
//! | [`fig_stalls`] | Figs. 6/7 (stall view) | cross-layer stall timeline + write-time breakdown |
//!
//! The extension probes are listed in [`PROBES`]. Each emits one
//! [`report::Report`], written as `BENCH_<name>.json` by
//! `cargo run -p xlsm-bench --release --bin probes -- <name|all>` and
//! rendered as tables by `figures <name>`:
//!
//! | Probe | Paper anchor | Content |
//! |-------|--------------|---------|
//! | [`parallelism`] | extension (§VI) | subcompaction drain throughput + batched MultiGet |
//! | [`writepath`] | Figs. 15–16 (fix) | serial vs concurrent memtable apply vs writer count |
//! | [`readpath`] | Finding #2 (fix) | blooms, block compression, sharded table cache |
//! | [`stability`] | Figs. 5/18 (policy family) | throughput variance + stall-episode CDFs per scheduling policy |
//! | [`space`] | extension (full-disk robustness) | reclamation-rate sweep: read p99 vs reclaim throughput, trash backlog, ENOSPC stalls |

#![warn(missing_docs)]

pub mod common;
pub mod figures;
pub mod parallelism;
pub mod readpath;
pub mod report;
pub mod space;
pub mod stability;
pub mod writepath;

pub use common::BenchConfig;
pub use figures::*;

/// One extension probe: a deterministic sweep and the tables it renders.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    /// Registry name; also the report's `"bench"` field and the
    /// `BENCH_<name>.json` stem.
    pub name: &'static str,
    /// Runs the sweep.
    pub run: fn(&BenchConfig) -> report::Report,
    /// Tables projected from the report.
    pub tables: &'static [report::TableSpec],
}

/// Every extension probe, in the order `all` runs them.
pub const PROBES: [Probe; 5] = [
    Probe {
        name: "parallelism",
        run: parallelism::run,
        tables: parallelism::TABLES,
    },
    Probe {
        name: "writepath",
        run: writepath::run,
        tables: writepath::TABLES,
    },
    Probe {
        name: "readpath",
        run: readpath::run,
        tables: readpath::TABLES,
    },
    Probe {
        name: "stability",
        run: stability::run,
        tables: stability::TABLES,
    },
    Probe {
        name: "space",
        run: space::run,
        tables: space::TABLES,
    },
];
