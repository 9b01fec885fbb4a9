//! The two kinds of run the command makes, and their reports.
//!
//! * End to end (`--trace 0`): set the stack up [`SETUP_ROUNDS`] times
//!   (reporting the median set-up time) and measure one untraced window.
//!   Each run of the command should make one of these: peak memory is the
//!   process's own.
//! * Per layer (`--trace 1`): measure the window untraced, then again on a
//!   traced stack, and fail unless the traced run reproduces every virtual
//!   metric bit for bit. Virtual per-layer figures come from the traced
//!   run and host figures from the untraced one; the difference in host
//!   time per op between the two is the tracing overhead.

use crate::run::{ratio, run, Metric, Window, VIRTUAL_END_TO_END};
use crate::stats::{median, samples_beyond, MIN_TAIL_SAMPLES};
use crate::workloads::Workload;

/// Set-ups per end-to-end run; the reported `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 3;

/// The outcome of one run of one workload.
#[derive(Clone, Debug)]
pub struct Report {
    /// Ops attempted in the measured window.
    pub attempted: u64,
    /// Ops that failed or read a wrong value.
    pub failed: u64,
    /// Correctness checks that did not hold (empty when correct).
    pub violations: Vec<String>,
    /// Reported metrics, in output order.
    pub metrics: Vec<Metric>,
    /// Sample counts behind the latency percentiles.
    pub samples: String,
}

impl Report {
    /// Whether every correctness check held.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn from_window(w: &Window) -> Report {
        let o = &w.outcome;
        let mut violations = Vec::new();
        if o.ops() == 0 {
            violations.push("no op completed in the window".to_owned());
        }
        if o.failed > 0 {
            violations.push(format!(
                "{} of {} ops failed or read a wrong value",
                o.failed,
                o.ops()
            ));
        }
        Report {
            attempted: o.ops(),
            failed: o.failed,
            violations,
            metrics: Vec::new(),
            samples: format!("{} gets, {} puts", o.get_ns.len(), o.put_ns.len()),
        }
    }
}

/// The end-to-end run (`--trace 0`). The first set-up also measures the
/// window, and peak memory is read right after it: each finished
/// simulation leaves its file system alive (its writeback daemon never
/// exits), so later set-ups would add to the peak.
pub fn end_to_end(workload: &Workload, seed: u64, seconds: f64) -> Report {
    let first = run(workload, seed, Some(workload.window_nanos(seconds)), false);
    let peak_rss = peak_rss_mib();
    let mut setups = vec![first.setup_s];
    setups.extend((1..SETUP_ROUNDS).map(|_| run(workload, seed, None, false).setup_s));
    let w = first.window.expect("the first round measures a window");
    let mut report = Report::from_window(&w);
    let ops = w.outcome.ops() as usize;
    if samples_beyond(ops, 0.999) < MIN_TAIL_SAMPLES {
        report.violations.push(format!(
            "{ops} ops leave fewer than {MIN_TAIL_SAMPLES} samples beyond p99.9; lengthen the window"
        ));
    }
    report.metrics = w
        .virtual_metrics
        .iter()
        .filter(|m| VIRTUAL_END_TO_END.contains(&m.name))
        .copied()
        .collect();
    report.metrics.extend([
        Metric {
            name: "setup_s",
            value: median(&setups),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mib",
            value: peak_rss,
            unit: "MiB",
        },
    ]);
    report
}

/// The per-layer run (`--trace 1`).
pub fn per_layer(workload: &Workload, seed: u64, seconds: f64) -> Report {
    let window = Some(workload.window_nanos(seconds));
    let plain = run(workload, seed, window, false)
        .window
        .expect("window measured");
    let traced = run(workload, seed, window, true)
        .window
        .expect("window measured");
    let mut report = Report::from_window(&traced);
    if plain.fingerprint() != traced.fingerprint() {
        report.violations.push(format!(
            "tracing changed the simulation:\n  untraced: {}\n  traced:   {}",
            plain.fingerprint(),
            traced.fingerprint()
        ));
    }
    let t = traced.trace.expect("traced run carries a trace");
    let gets = t.gets as f64;
    report.metrics = traced
        .virtual_metrics
        .iter()
        .filter(|m| !VIRTUAL_END_TO_END.contains(&m.name))
        .copied()
        .collect();
    report.metrics.extend([
        Metric {
            name: "host_us_per_op",
            value: plain.host_us_per_op(),
            unit: "us",
        },
        Metric {
            name: "host_cpu_us_per_op",
            value: plain.host_cpu_us_per_op(),
            unit: "us",
        },
        Metric {
            name: "sim.host_us_per_switch",
            value: plain.host_us_per_switch(),
            unit: "us",
        },
        Metric {
            name: "read.self_us_per_get",
            value: ratio(t.get_self_ns as f64 / 1e3, gets),
            unit: "us",
        },
        Metric {
            name: "read.device_us_per_get",
            value: ratio(t.get_device_ns as f64 / 1e3, gets),
            unit: "us",
        },
        Metric {
            name: "device.bg_time_frac",
            value: ratio(t.device_bg_ns as f64, t.device_ns as f64),
            unit: "ratio",
        },
        Metric {
            name: "trace.overhead_us_per_op",
            value: traced.host_us_per_op() - plain.host_us_per_op(),
            unit: "us",
        },
    ]);
    report
}

/// Peak resident memory of this process so far, MiB (0 where `/proc` is
/// unavailable).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
