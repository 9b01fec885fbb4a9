//! Small-size runs of every workload, and the agreement between the
//! metrics the code reports and the ones `BENCHMARK.json` declares.

use std::sync::Arc;
use xlsm_device::{profiles, SimDevice};
use xlsm_engine::{Db, DbOptions};
use xlsm_perfbench::client;
use xlsm_perfbench::report::{end_to_end, per_layer, Report};
use xlsm_perfbench::run::run;
use xlsm_perfbench::workloads::{self, Workload};
use xlsm_simfs::{FsOptions, SimFs};
use xlsm_workload::{fill_db, KeySpace};

/// A small version of `name`: 2 Ki keys and a window of one bucket.
fn small(name: &str) -> Workload {
    workloads::by_name(name)
        .expect("known workload")
        .with_key_count(2 << 10)
}

const WINDOW: u64 = workloads::BUCKET_NANOS;

fn layers(name: &str) -> Report {
    let w = small(name);
    let seconds = WINDOW as f64 / w.virtual_nanos_per_host_second as f64;
    let r = per_layer(&w, 7, seconds);
    assert!(r.correct(), "{name}: {:?}", r.violations);
    assert!(r.attempted > 0);
    assert_eq!(r.failed, 0);
    r
}

fn get(r: &Report, name: &str) -> f64 {
    r.metric(name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn readhot_pcie_has_no_write_path_work() {
    let r = layers("readhot-pcie");
    for m in [
        "flush.count",
        "compaction.count",
        "compaction.bytes_per_user_byte",
        "write_amp",
        "write.wal_us_per_put",
        "write.memtable_us_per_put",
        "put_p50_us",
    ] {
        assert_eq!(get(&r, m), 0.0, "{m}");
    }
    assert!(get(&r, "get_p50_us") > 0.0);
    assert!(get(&r, "read.self_us_per_get") > 0.0);
}

#[test]
fn overwrite_sata_has_no_gets() {
    let r = layers("overwrite-sata");
    for m in [
        "get_p50_us",
        "get_p999_us",
        "read.l0_files_per_get",
        "read.self_us_per_get",
        "read.device_us_per_get",
    ] {
        assert_eq!(get(&r, m), 0.0, "{m}");
    }
    assert!(get(&r, "put_p50_us") > 0.0);
    assert!(get(&r, "write.wal_us_per_put") > 0.0);
    assert!(get(&r, "write_amp") > 0.0);
}

#[test]
fn mixed_xpoint_has_gets_and_puts() {
    let r = layers("mixed-xpoint");
    assert!(get(&r, "get_p50_us") > 0.0);
    assert!(get(&r, "put_p50_us") > 0.0);
    assert!(get(&r, "read.self_us_per_get") > 0.0);
    assert!(get(&r, "write.memtable_us_per_put") > 0.0);
}

#[test]
fn same_seed_repeats_every_virtual_metric() {
    let w = small("mixed-xpoint");
    let a = run(&w, 3, Some(WINDOW), false).window.expect("window");
    let b = run(&w, 3, Some(WINDOW), false).window.expect("window");
    let c = run(&w, 4, Some(WINDOW), false).window.expect("window");
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_ne!(
        a.fingerprint(),
        c.fingerprint(),
        "the seed must reach the ops"
    );
}

#[test]
fn clients_count_a_wrong_value_as_failed() {
    let w = small("readhot-pcie").with_key_count(64);
    let outcome = xlsm_sim::Runtime::new().run(move || {
        let fs = SimFs::new(
            SimDevice::shared(profiles::intel_750_pcie()),
            FsOptions::default(),
        );
        let db = Arc::new(Db::open(fs, DbOptions::default()).expect("open"));
        fill_db(&db, w.key_count, workloads::VALUE_BYTES, 1).expect("fill");
        // Key 0 is the hottest under the zipfian, so the clients read it.
        db.put(
            &KeySpace::new(w.key_count).key(0),
            b"not the generated value",
        )
        .expect("put");
        let out = client::run(&db, &w, 1, 1_000_000, None);
        db.close();
        out
    });
    assert!(outcome.failed > 0, "a corrupted key must fail its gets");
    assert!(
        outcome.failed < outcome.ops(),
        "the other keys still read back"
    );
}

/// `(name, unit)` pairs listed under `key` in `BENCHMARK.json`. Sections
/// appear there in the order workloads, end_to_end, per_layer.
fn declared(json: &str, key: &str, next: Option<&str>) -> Vec<(String, String)> {
    let from = json.find(&format!("\"{key}\"")).expect("section present");
    let to = next.map_or(json.len(), |n| {
        json.find(&format!("\"{n}\"")).expect("next section")
    });
    let field = |entry: &str, f: &str| {
        entry
            .split(&format!("\"{f}\":"))
            .nth(1)
            .and_then(|s| s.split('"').nth(1))
            .unwrap_or("")
            .to_owned()
    };
    json[from..to]
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let pairs = |r: &Report| -> Vec<(String, String)> {
        r.metrics
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect()
    };
    let w = small("readhot-pcie");
    let e2e = end_to_end(
        &w,
        1,
        WINDOW as f64 / w.virtual_nanos_per_host_second as f64,
    );
    assert_eq!(
        declared(&json, "end_to_end", Some("per_layer")),
        pairs(&e2e)
    );
    assert_eq!(
        declared(&json, "per_layer", None),
        pairs(&layers("readhot-pcie"))
    );
    let names: Vec<String> = declared(&json, "workloads", Some("end_to_end"))
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let expected: Vec<String> = workloads::all().iter().map(|w| w.name.to_owned()).collect();
    assert_eq!(names, expected);
}
