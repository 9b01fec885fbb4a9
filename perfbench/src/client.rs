//! The benchmark's closed-loop clients.
//!
//! Unlike `xlsm_workload::run_workload`, which panics on an error and never
//! looks at a value, these clients count every failed op and compare every
//! `get` with the value `ValueGenerator` defines for its key. Puts always
//! write that same value, so the expected value of a key never changes.

use crate::trace::{Layer, Tracer};
use crate::workloads::{Workload, BUCKET_NANOS, CLIENTS, VALUE_BYTES};
use rand::RngExt;
use std::sync::Arc;
use xlsm_engine::Db;
use xlsm_sim::Nanos;
use xlsm_workload::keys::{thread_rng, Zipfian};
use xlsm_workload::{KeyDistribution, KeySpace, ValueGenerator};

/// Everything the clients observed in one window.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClientOutcome {
    /// Exact virtual latency of every `get`, ascending.
    pub get_ns: Vec<u64>,
    /// Exact virtual latency of every `put`, ascending.
    pub put_ns: Vec<u64>,
    /// Ops that returned an error or, for a `get`, a wrong or missing value.
    pub failed: u64,
    /// Ops completed in each window bucket.
    pub buckets: Vec<u64>,
}

impl ClientOutcome {
    /// Ops attempted.
    pub fn ops(&self) -> u64 {
        (self.get_ns.len() + self.put_ns.len()) as u64
    }
}

/// Runs [`CLIENTS`] closed-loop clients against `db` from now until
/// `window` virtual nanoseconds have passed. Each client issues its next
/// op as soon as the previous one returns. Must run inside a sim runtime.
pub fn run(
    db: &Arc<Db>,
    workload: &Workload,
    seed: u64,
    window: Nanos,
    tracer: Option<&Arc<Tracer>>,
) -> ClientOutcome {
    let start = xlsm_sim::now_nanos();
    let end = start + window;
    let n_buckets = window.div_ceil(BUCKET_NANOS) as usize;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let db = Arc::clone(db);
            let workload = workload.clone();
            let tracer = tracer.cloned();
            xlsm_sim::spawn(&format!("client-{t}"), move || {
                let span = (start, end, n_buckets);
                client(&db, &workload, seed, t as u64, span, tracer)
            })
        })
        .collect();
    let mut out = ClientOutcome {
        buckets: vec![0; n_buckets],
        ..ClientOutcome::default()
    };
    for h in handles {
        let part = h.join();
        out.get_ns.extend(part.get_ns);
        out.put_ns.extend(part.put_ns);
        out.failed += part.failed;
        for (b, n) in out.buckets.iter_mut().zip(part.buckets) {
            *b += n;
        }
    }
    out.get_ns.sort_unstable();
    out.put_ns.sort_unstable();
    out
}

fn client(
    db: &Db,
    workload: &Workload,
    seed: u64,
    thread: u64,
    (start, end, n_buckets): (Nanos, Nanos, usize),
    tracer: Option<Arc<Tracer>>,
) -> ClientOutcome {
    let keys = KeySpace::new(workload.key_count);
    let values = ValueGenerator::new(VALUE_BYTES);
    let zipf = match workload.distribution {
        KeyDistribution::Zipfian(theta) => Some(Zipfian::new(workload.key_count, theta)),
        KeyDistribution::Uniform => None,
    };
    let mut rng = thread_rng(seed, thread);
    let mut out = ClientOutcome {
        buckets: vec![0; n_buckets],
        ..ClientOutcome::default()
    };
    while xlsm_sim::now_nanos() < end {
        let idx = match &zipf {
            Some(z) => z.sample(&mut rng),
            None => keys.uniform(&mut rng),
        };
        let is_put = rng.random::<f64>() < workload.put_fraction;
        let key = keys.key(idx);
        let expected = values.value(idx);
        let t0 = xlsm_sim::now_nanos();
        let op = tracer.as_ref().map(|t| t.begin_op());
        let ok = if is_put {
            db.put(&key, &expected).is_ok()
        } else {
            matches!(db.get(&key), Ok(Some(v)) if v == expected)
        };
        let done = xlsm_sim::now_nanos();
        if let (Some(t), Some(id)) = (&tracer, op) {
            t.end_op(id, if is_put { Layer::Put } else { Layer::Get }, t0);
        }
        if is_put {
            out.put_ns.push(done - t0);
        } else {
            out.get_ns.push(done - t0);
        }
        if !ok {
            out.failed += 1;
        }
        if let Some(b) = out
            .buckets
            .get_mut(((done - start) / BUCKET_NANOS) as usize)
        {
            *b += 1;
        }
    }
    out
}
