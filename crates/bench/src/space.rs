//! Space probe: what rate-limited reclamation of obsolete SSTs costs (and
//! buys) on each study device.
//!
//! The full-disk subsystem trades *when* space comes back for *how smooth*
//! the foreground stays: obsolete SSTs are parked in `trash/` and deleted
//! at `sst_delete_rate_bytes_per_sec`, so a slow rate keeps delete I/O off
//! the device's critical path but lets the backlog occupy capacity — and
//! once live bytes + backlog press against `max_allowed_space_bytes`,
//! compactions defer and writers soft-stall until the reaper frees room.
//! This probe sweeps the reclamation rate under overwrite churn with
//! concurrent reads and reports both sides of the trade per
//! (device, rate) point:
//!
//! * **read tail latency** — client get p50/p99 (the paper's tail metric)
//!   plus the ratio against the same device's inline-delete baseline;
//! * **reclamation throughput** — bytes actually reclaimed over the
//!   window, the cumulative bytes trashed, and the peak/final backlog;
//! * **space-pressure events** — soft ENOSPC stalls, watcher
//!   auto-resumes, and compactions deferred by the space cap.
//!
//! Rate 0 is the legacy baseline: obsolete files are deleted inline, no
//! trash, no pacing. Fully deterministic: same seed ⇒ byte-identical JSON
//! (`scripts/check.sh` runs the probe twice and diffs).

use crate::common::{devices, label, with_testbed, BenchConfig};
use crate::report::{ratio, row, Report, Row, TableSpec, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use xlsm_device::DeviceProfile;
use xlsm_engine::{DbOptions, Ticker};
use xlsm_workload::{run_workload, WorkloadSpec};

/// The reclamation-rate sweep, bytes/second (0 = legacy inline deletion).
pub const RATES: [u64; 4] = [0, 2 << 20, 8 << 20, 32 << 20];

/// Human label for a sweep rate.
#[must_use]
pub fn rate_label(rate: u64) -> String {
    if rate == 0 {
        "inline".to_owned()
    } else {
        format!("{}MiB/s", rate >> 20)
    }
}

/// The probe's printable tables: the read-tail trade and the
/// reclamation/backlog accounting.
pub const TABLES: &[TableSpec] = &[
    TableSpec {
        name: "space_tail",
        title: "Space: reclamation rate vs read tail latency (overwrite churn + reads)",
        section: "points",
        columns: &[
            ("device", "device", 0),
            ("rate", "rate", 0),
            ("kops", "kops", 1),
            ("get_p50_us", "get_p50_us", 1),
            ("get_p99_us", "get_p99_us", 1),
            ("write_p99_us", "write_p99_us", 1),
            ("get_p99_vs_inline", "get_p99_vs_inline", 2),
        ],
    },
    TableSpec {
        name: "space_reclaim",
        title: "Space: reclamation throughput and trash backlog under the cap",
        section: "points",
        columns: &[
            ("device", "device", 0),
            ("rate", "rate", 0),
            ("trashed_mib", "trashed_mib", 1),
            ("reclaimed_mib", "reclaimed_mib", 1),
            ("reclaim_mibps", "reclaim_mibps", 1),
            ("peak_backlog_mib", "peak_backlog_mib", 1),
            ("final_backlog_mib", "final_backlog_mib", 1),
            ("enospc_stalls", "enospc_stalls", 0),
            ("auto_resumes", "auto_resumes", 0),
            ("deferred", "compactions_deferred", 0),
        ],
    },
];

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

/// The churn geometry every point shares: small files and a tight level
/// base so overwrites obsolete SSTs continuously, plus a space cap with
/// the watcher on — the regime where the reclamation rate decides how hard
/// the cap bites.
fn churn_geometry(cfg: &BenchConfig, rate: u64) -> DbOptions {
    DbOptions {
        write_buffer_size: 1 << 20,
        target_file_size_base: 1 << 20,
        max_bytes_for_level_base: 2 << 20,
        sst_delete_rate_bytes_per_sec: rate,
        max_allowed_space_bytes: cap_bytes(cfg),
        space_poll_interval_ns: 1_000_000,
        ..DbOptions::default()
    }
}

/// The cap: 6× the dataset (32 MiB floor). Generous on purpose — under
/// overwrite churn the live LSM transiently holds several copies of the
/// dataset across levels, and a cap without that headroom defers every
/// compaction while the inline baseline has no backlog to reclaim, so the
/// stall could never auto-resume. The cap here is a guardrail; space
/// pressure shows up through the backlog and deferred-compaction columns.
fn cap_bytes(cfg: &BenchConfig) -> u64 {
    (cfg.dataset_bytes() * 6).max(32 << 20)
}

/// Runs one (device, rate) point in its own sim runtime.
fn run_point(profile: DeviceProfile, device: &'static str, cfg: &BenchConfig, rate: u64) -> Row {
    let spec: WorkloadSpec = cfg
        .spec()
        .with_threads(4)
        .with_write_fraction(0.5)
        .with_duration(cfg.duration * 2);
    with_testbed(profile, churn_geometry(cfg, rate), cfg, move |tb| {
        tb.db.flush().expect("fill flush");
        tb.db.wait_for_compactions();
        // Counters from here on cover exactly the measured churn window.
        let trashed0 = tb.db.stats().ticker(Ticker::TrashedBytes);
        let reclaimed0 = tb.db.stats().ticker(Ticker::SpaceReclaimedBytes);

        // A virtual-time sampler tracks the backlog's high-water mark while
        // the closed-loop workload runs.
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let db = Arc::clone(&tb.db);
            let stop = Arc::clone(&stop);
            xlsm_sim::spawn("backlog-sampler", move || {
                let mut peak = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    peak = peak.max(db.trash_queued_bytes());
                    xlsm_sim::sleep_nanos(20_000_000);
                }
                peak
            })
        };

        let t0 = xlsm_sim::now_nanos();
        let r = run_workload(&tb.db, &spec);
        let t1 = xlsm_sim::now_nanos();
        stop.store(true, Ordering::Relaxed);
        let peak_backlog = sampler.join().max(tb.db.trash_queued_bytes());

        let stats = tb.db.stats();
        let window_secs = (t1 - t0) as f64 / 1e9;
        let reclaimed = stats.ticker(Ticker::SpaceReclaimedBytes) - reclaimed0;
        row! {
            "device" => device,
            "rate" => rate_label(rate),
            "kops" => r.kops(),
            "get_p50_us" => us(stats.get_latency.quantile(0.5)),
            "get_p99_us" => us(stats.get_latency.quantile(0.99)),
            "write_p99_us" => us(stats.write_latency.quantile(0.99)),
            // Bytes that entered `trash/` over the run (0 when inline).
            "trashed_mib" => mib(stats.ticker(Ticker::TrashedBytes) - trashed0),
            "reclaimed_mib" => mib(reclaimed),
            "reclaim_mibps" => if window_secs > 0.0 {
                mib(reclaimed) / window_secs
            } else {
                0.0
            },
            "peak_backlog_mib" => mib(peak_backlog),
            "final_backlog_mib" => mib(tb.db.trash_queued_bytes()),
            "enospc_stalls" => stats.ticker(Ticker::EnospcStalls),
            "auto_resumes" => stats.ticker(Ticker::BackgroundAutoResumes),
            "compactions_deferred" => stats.ticker(Ticker::SpaceCompactionsDeferred),
            // Filled in by `run` once the device's inline baseline exists.
            "get_p99_vs_inline" => 1.0,
        }
    })
}

/// Runs the full (device × reclamation-rate) sweep: device-major, rates in
/// [`RATES`] order (inline first).
pub fn run(cfg: &BenchConfig) -> Report {
    let mut points = Vec::new();
    for profile in devices() {
        let device = label(&profile);
        let mut device_points: Vec<Row> = Vec::new();
        for rate in RATES {
            eprintln!("[space] {device}: rate {}", rate_label(rate));
            let mut p = run_point(profile.clone(), device, cfg, rate);
            if let Some(base) = device_points.first() {
                let r = ratio(p.num("get_p99_us"), base.num("get_p99_us"));
                p.set("get_p99_vs_inline", r);
            }
            device_points.push(p);
        }
        points.append(&mut device_points);
    }
    Report::new("space", cfg)
        .with_config("cap_mib", Value::Float(mib(cap_bytes(cfg)), 1))
        .with_config(
            "window_secs",
            Value::Float(cfg.duration.as_secs_f64() * 2.0, 1),
        )
        .with_section("points", points)
}
