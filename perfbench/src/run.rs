//! One benchmark run: build the stack, fill it, and measure a window.

use crate::client::{self, ClientOutcome};
use crate::stats::{percentile, tail_mean};
use crate::trace::{TraceSummary, TracedDevice, Tracer};
use crate::workloads::{Workload, BUCKET_NANOS, KEY_BYTES, VALUE_BYTES};
use std::sync::Arc;
use std::time::Instant;
use xlsm_core::experiment::scaled_fs_options;
use xlsm_device::{Device, SimDevice, PAGE_SIZE};
use xlsm_engine::{episode_durations, Db, DbOptions, Ticker};
use xlsm_sim::{Nanos, Runtime};
use xlsm_simfs::SimFs;
use xlsm_workload::fill_db;

/// A named value with its unit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Virtual metrics reported as end-to-end results.
pub const VIRTUAL_END_TO_END: [&str; 3] = ["kops", "op_tail_us", "low_kops_100ms"];

/// Seed of the fill order. It is the same for every run, so every window
/// starts from the same LSM tree and `--seed` draws only the clients' ops.
/// When the fill order followed `--seed`, the tree's shape after the fill
/// moved `readhot-pcie` throughput by 9% (IQR ÷ median) across ten seeds;
/// with the order fixed, by 0.2%.
pub const FILL_SEED: u64 = 0xF111;

/// What one measured window produced.
#[derive(Clone, Debug)]
pub struct Window {
    /// The clients' own observations.
    pub outcome: ClientOutcome,
    /// Every metric on the virtual clock, in a fixed order. For a given
    /// workload, seed and window these repeat exactly, traced or not.
    pub virtual_metrics: Vec<Metric>,
    /// Run-token handoffs during the window.
    pub switches: u64,
    /// Timer firings during the window.
    pub timer_events: u64,
    /// Host wall seconds the window took.
    pub wall_s: f64,
    /// Host CPU seconds the process used during the window, all threads.
    pub cpu_s: f64,
    /// Span reduction, when the run was traced.
    pub trace: Option<TraceSummary>,
}

impl Window {
    /// Host microseconds per op: window wall time ÷ ops.
    pub fn host_us_per_op(&self) -> f64 {
        ratio(self.wall_s * 1e6, self.outcome.ops() as f64)
    }

    /// Host microseconds per op of process CPU time, all threads.
    pub fn host_cpu_us_per_op(&self) -> f64 {
        ratio(self.cpu_s * 1e6, self.outcome.ops() as f64)
    }

    /// Host microseconds per run-token handoff: window wall time ÷
    /// switches.
    pub fn host_us_per_switch(&self) -> f64 {
        ratio(self.wall_s * 1e6, self.switches as f64)
    }

    /// Everything that must not change when tracing is switched on: every
    /// virtual metric, bit for bit, and the scheduler's counts.
    pub fn fingerprint(&self) -> String {
        let mut s = format!("switches={} timers={}", self.switches, self.timer_events);
        for m in &self.virtual_metrics {
            s.push_str(&format!(" {}={:x}", m.name, m.value.to_bits()));
        }
        s
    }
}

/// One run: set-up time, and the window if one was measured.
#[derive(Clone, Debug)]
pub struct Run {
    /// Host seconds to build, fill and settle the stack.
    pub setup_s: f64,
    /// The measured window, if any.
    pub window: Option<Window>,
}

/// Builds device → (tracer) → `SimFs` → `Db` for `workload`, fills every
/// key in the [`FILL_SEED`] order and lets flushes and compactions settle,
/// then measures a window of `window` virtual nanoseconds unless it is
/// `None`. Each call is its own simulation.
pub fn run(workload: &Workload, seed: u64, window: Option<Nanos>, traced: bool) -> Run {
    let workload = workload.clone();
    Runtime::new().run(move || {
        let wall = Instant::now();
        let tracer = traced.then(Tracer::new);
        let sim_device: Arc<dyn Device> = SimDevice::shared((workload.device)());
        let device: Arc<dyn Device> = match &tracer {
            Some(t) => Arc::new(TracedDevice::new(sim_device, Arc::clone(t))),
            None => sim_device,
        };
        let fs = SimFs::new(
            Arc::clone(&device),
            scaled_fs_options(workload.dataset_bytes()),
        );
        let db = Arc::new(Db::open(Arc::clone(&fs), DbOptions::default()).expect("open db"));
        fill_db(&db, workload.key_count, VALUE_BYTES, FILL_SEED).expect("fill db");
        let setup_s = wall.elapsed().as_secs_f64();
        let window = window.map(|w| measure(&db, &fs, &*device, &workload, seed, w, tracer));
        db.close();
        Run { setup_s, window }
    })
}

fn measure(
    db: &Arc<Db>,
    fs: &SimFs,
    device: &dyn Device,
    workload: &Workload,
    seed: u64,
    window: Nanos,
    tracer: Option<Arc<Tracer>>,
) -> Window {
    let stats = db.stats();
    stats.reset_window();
    stats.flush_duration.reset();
    stats.compaction_duration.reset();
    stats.stall.drain_events();
    if let Some(t) = &tracer {
        t.clear();
    }
    let t0 = stats.ticker_snapshot();
    let fs0 = fs.stats();
    let dev0 = device.stats();
    let bc0 = db.block_cache_counters();
    let tc0 = db.table_cache_counters();
    let rt0 = xlsm_sim::runtime::stats();
    let start = xlsm_sim::now_nanos();

    let cpu0 = process_cpu_s();
    let wall = Instant::now();
    let outcome = client::run(db, workload, seed, window, tracer.as_ref());
    let wall_s = wall.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;

    let rt = xlsm_sim::runtime::stats();
    let end = xlsm_sim::now_nanos();
    let m = db.metrics();
    let t1 = m.tickers;
    let tick = |t: Ticker| (t1.get(t) - t0.get(t)) as f64;
    let fs1 = fs.stats();
    let dev = device.stats().delta_since(&dev0);
    let bc1 = db.block_cache_counters();
    let tc1 = db.table_cache_counters();

    let gets = outcome.get_ns.len() as f64;
    let puts = outcome.put_ns.len() as f64;
    let ops = outcome.ops() as f64;
    let user_bytes = puts * (KEY_BYTES as f64 + VALUE_BYTES as f64);
    let window_s = window as f64 / 1e9;
    let bucket_s = BUCKET_NANOS as f64 / 1e9;
    let mut all_ns = [outcome.get_ns.as_slice(), outcome.put_ns.as_slice()].concat();
    all_ns.sort_unstable();
    let us = |sorted: &[u64], q: f64| percentile(sorted, q).unwrap_or(0) as f64 / 1e3;
    let ops_in_window: u64 = outcome.buckets.iter().sum();
    let mut buckets = outcome.buckets.clone();
    buckets.sort_unstable();
    let bucket_kops = |q: f64| percentile(&buckets, q).unwrap_or(0) as f64 / bucket_s / 1e3;
    let st = m.stall;
    let stall_ns: u64 = episode_durations(&m.stall_events, start, end).iter().sum();
    let fl = stats.flush_duration.summary();
    let cp = stats.compaction_duration.summary();
    let writebacks = (fs1.throttle_writebacks - fs0.throttle_writebacks)
        + (fs1.background_writebacks - fs0.background_writebacks)
        + (fs1.sync_writebacks - fs0.sync_writebacks)
        + (fs1.dirty_evictions - fs0.dirty_evictions);
    let hit_rate = |(h1, m1): (u64, u64), (h0, m0): (u64, u64)| {
        ratio((h1 - h0) as f64, ((h1 - h0) + (m1 - m0)) as f64)
    };
    let metric = |name, value, unit| Metric { name, value, unit };

    let virtual_metrics = vec![
        // End to end.
        metric("kops", ops_in_window as f64 / window_s / 1e3, "kops"),
        metric("op_tail_us", tail_mean(&all_ns, 0.999) / 1e3, "us"),
        metric("low_kops_100ms", bucket_kops(0.05), "kops"),
        // Client: per op type, dips, failures, and write and space cost.
        metric("get_p50_us", us(&outcome.get_ns, 0.5), "us"),
        metric("get_p999_us", us(&outcome.get_ns, 0.999), "us"),
        metric("put_p50_us", us(&outcome.put_ns, 0.5), "us"),
        metric("put_p999_us", us(&outcome.put_ns, 0.999), "us"),
        metric("min_kops_100ms", bucket_kops(0.0), "kops"),
        metric(
            "failed_ops_frac",
            ratio(outcome.failed as f64, ops),
            "ratio",
        ),
        metric(
            "write_amp",
            ratio((dev.pages_written * PAGE_SIZE as u64) as f64, user_bytes),
            "ratio",
        ),
        metric(
            "space_amp",
            m.live_sst_bytes as f64 / workload.dataset_bytes() as f64,
            "ratio",
        ),
        // sim: scheduler work per op.
        metric(
            "sim.switches_per_op",
            ratio((rt.switches - rt0.switches) as f64, ops),
            "count",
        ),
        metric(
            "sim.timer_events_per_op",
            ratio((rt.timer_events - rt0.timer_events) as f64, ops),
            "count",
        ),
        // engine write path, per put.
        metric(
            "write.queue_wait_us_per_put",
            ratio(st.queue_wait_ns as f64 / 1e3, puts),
            "us",
        ),
        metric(
            "write.wal_us_per_put",
            ratio(st.wal_append_ns as f64 / 1e3, puts),
            "us",
        ),
        metric(
            "write.pipeline_wait_us_per_put",
            ratio(st.pipeline_wait_ns as f64 / 1e3, puts),
            "us",
        ),
        metric(
            "write.memtable_us_per_put",
            ratio(st.memtable_insert_ns as f64 / 1e3, puts),
            "us",
        ),
        metric(
            "write.delay_us_per_put",
            ratio(st.delay_sleep_ns as f64 / 1e3, puts),
            "us",
        ),
        metric(
            "write.stop_us_per_put",
            ratio(st.stop_wait_ns as f64 / 1e3, puts),
            "us",
        ),
        metric(
            "write.group_batches_mean",
            ratio(
                tick(Ticker::WriteGroupsLed) + tick(Ticker::WritesJoinedGroup),
                tick(Ticker::WriteGroupsLed),
            ),
            "count",
        ),
        // engine write controller.
        metric(
            "controller.stall_frac",
            stall_ns as f64 / window as f64,
            "ratio",
        ),
        metric(
            "controller.delayed_writes",
            tick(Ticker::StallDelayedWrites),
            "count",
        ),
        metric(
            "controller.stopped_writes",
            tick(Ticker::StallStoppedWrites),
            "count",
        ),
        // engine flush and compaction.
        metric("flush.count", tick(Ticker::FlushCount), "count"),
        metric("flush.ms_p50", fl.p50_ns as f64 / 1e6, "ms"),
        metric("compaction.count", tick(Ticker::CompactionCount), "count"),
        metric("compaction.ms_p99", cp.p99_ns as f64 / 1e6, "ms"),
        metric(
            "compaction.bytes_per_user_byte",
            ratio(tick(Ticker::CompactWriteBytes), user_bytes),
            "ratio",
        ),
        metric(
            "compaction.debt_mib_end",
            m.compaction_debt_bytes as f64 / (1 << 20) as f64,
            "MiB",
        ),
        metric("lsm.l0_files_end", db.num_l0_files() as f64, "count"),
        // engine read path, per get.
        metric(
            "read.l0_files_per_get",
            ratio(tick(Ticker::L0FilesSearched), gets),
            "count",
        ),
        metric(
            "read.memtable_hit_frac",
            ratio(
                tick(Ticker::GetHitMemtable) + tick(Ticker::GetHitImmutable),
                gets,
            ),
            "ratio",
        ),
        metric("read.block_cache_hit_rate", hit_rate(bc1, bc0), "ratio"),
        metric("read.table_cache_hit_rate", hit_rate(tc1, tc0), "ratio"),
        // simfs.
        metric(
            "simfs.page_cache_hit_rate",
            hit_rate(
                (fs1.cache_hits, fs1.cache_misses),
                (fs0.cache_hits, fs0.cache_misses),
            ),
            "ratio",
        ),
        metric(
            "simfs.writeback_pages_per_put",
            ratio(writebacks as f64, puts),
            "count",
        ),
        metric(
            "simfs.throttle_writebacks",
            (fs1.throttle_writebacks - fs0.throttle_writebacks) as f64,
            "count",
        ),
        // device.
        metric(
            "device.read_busy_frac",
            dev.read_service_ns as f64 / (window as f64 * device.profile().channels as f64),
            "ratio",
        ),
        metric(
            "device.read_queue_us_per_read",
            ratio(dev.read_queue_ns as f64 / 1e3, dev.reads as f64),
            "us",
        ),
        metric(
            "device.read_service_us_per_read",
            ratio(dev.read_service_ns as f64 / 1e3, dev.reads as f64),
            "us",
        ),
        metric(
            "device.write_service_us_per_write",
            ratio(dev.write_service_ns as f64 / 1e3, dev.writes as f64),
            "us",
        ),
        metric(
            "device.sync_wait_us_per_sync",
            ratio(dev.sync_wait_ns as f64 / 1e3, dev.syncs as f64),
            "us",
        ),
    ];
    Window {
        outcome,
        virtual_metrics,
        switches: rt.switches - rt0.switches,
        timer_events: rt.timer_events - rt0.timer_events,
        wall_s,
        cpu_s,
        trace: tracer.map(|t| TraceSummary::from_spans(&t.take())),
    }
}

/// CPU time this process has used, in seconds: user plus system time of
/// all its threads, including exited ones (0 where `/proc` is
/// unavailable). The kernel leaves out time the hypervisor gave to other
/// guests (steal).
pub fn process_cpu_s() -> f64 {
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime are
            // fields 14 and 15 of the line.
            let fields: Vec<&str> = s[s.rfind(')')? + 1..].split_whitespace().collect();
            let utime: u64 = fields.get(11)?.parse().ok()?;
            let stime: u64 = fields.get(12)?.parse().ok()?;
            Some(utime + stime)
        });
    ticks.map_or(0.0, |t| t as f64 / CLOCK_TICKS_PER_SECOND)
}

/// Unit of the `/proc/self/stat` CPU times (`getconf CLK_TCK`; 100 on
/// every Linux architecture this runs on).
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

/// `a / b`, or 0 when there is nothing to divide by (a per-get figure on a
/// workload without gets).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
