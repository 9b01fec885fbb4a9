//! Exhaustive power-cut torture harness.
//!
//! The contract under test: run a seeded mixed workload (puts, deletes,
//! flush churn) once to completion under an empty fault plan to *learn*
//! how many filesystem operations it performs, then for a dense sample of
//! cut points `k` rerun the identical workload with `power_cut_at_op = k`,
//! restore power, reopen, and check point-in-time consistency against a
//! shadow model:
//!
//! * every acknowledged (`wal_sync = true`) write is present;
//! * no phantom keys or values appear;
//! * the recovered state is exactly the acked prefix of commit order,
//!   plus at most the single in-flight operation;
//! * `AbsoluteConsistency` may refuse to open on a torn tail — but then a
//!   `PointInTimeRecovery` reopen of the same directory must succeed;
//! * recovery is deterministic: the same seed and cut point recover a
//!   byte-identical state twice;
//! * when the cut (or the test) destroys the MANIFEST, `repair_db`
//!   rebuilds an openable database from the surviving SSTs and logs.
//!
//! `XLSM_TORTURE_CUTS` bounds the sweep density (default 16 for plain
//! `cargo test`; `scripts/check.sh` runs the smoke at 64).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use xlsm_suite::device::{profiles, SimDevice};
use xlsm_suite::engine::{repair_db, Db, DbOptions, Ticker, WalRecoveryMode};
use xlsm_suite::sim::rng::Xoshiro256;
use xlsm_suite::sim::{now_nanos, sleep_nanos, Runtime};
use xlsm_suite::simfs::{FaultPlan, FsOptions, SimFs};
use xlsm_suite::study::report;

const WORKLOAD_SEED: u64 = 0x0005_5eed;
const WORKLOAD_OPS: u32 = 400;
const KEYSPACE: u64 = 48;

/// A buffered (SATA) device: unsynced writes really die on power cut.
fn torture_fs() -> Arc<SimFs> {
    SimFs::new(
        SimDevice::shared(profiles::intel_530_sata()),
        FsOptions::default(),
    )
}

fn torture_opts(mode: WalRecoveryMode) -> DbOptions {
    DbOptions {
        write_buffer_size: 64 << 10,
        target_file_size_base: 64 << 10,
        max_bytes_for_level_base: 256 << 10,
        level0_file_num_compaction_trigger: 2,
        // Acknowledged writes must be durable for the shadow model to be
        // exact.
        wal_sync: true,
        wal_recovery_mode: mode,
        ..DbOptions::default()
    }
}

fn cut_count() -> u64 {
    std::env::var("XLSM_TORTURE_CUTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
        .max(2)
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Op {
    Put(String, String),
    Delete(String),
    Flush,
}

/// The op sequence is a pure function of the seed — the clean learning run
/// and every cut run replay the exact same commands.
fn workload(seed: u64, ops: u32) -> Vec<Op> {
    let mut rng = Xoshiro256::new(seed);
    (0..ops)
        .map(|i| {
            let key = format!("key{:03}", rng.next_below(KEYSPACE));
            let roll = rng.next_below(100);
            if roll < 70 {
                Op::Put(key, format!("v{:08}-{:06}", i, rng.next_below(1_000_000)))
            } else if roll < 90 {
                Op::Delete(key)
            } else {
                Op::Flush
            }
        })
        .collect()
}

fn apply(model: &mut BTreeMap<String, String>, op: &Op) {
    match op {
        Op::Put(k, v) => {
            model.insert(k.clone(), v.clone());
        }
        Op::Delete(k) => {
            model.remove(k);
        }
        Op::Flush => {}
    }
}

/// Drives the workload until the power cut kills an operation (or the
/// workload completes). Returns the acked shadow model and the one op that
/// was in flight when the lights went out.
fn run_workload(db: &Db, ops: &[Op]) -> (BTreeMap<String, String>, Option<Op>) {
    let mut model = BTreeMap::new();
    for op in ops {
        let res = match op {
            Op::Put(k, v) => db.put(k.as_bytes(), v.as_bytes()),
            Op::Delete(k) => db.delete(k.as_bytes()),
            Op::Flush => db.flush(),
        };
        match res {
            Ok(()) => apply(&mut model, op),
            Err(_) => return (model, Some(op.clone())),
        }
    }
    (model, None)
}

fn dump(db: &Db) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut scan = db.scan().unwrap();
    let mut out = Vec::new();
    if scan.seek_to_first().unwrap() {
        loop {
            out.push((scan.key().to_vec(), scan.value().to_vec()));
            if !scan.next().unwrap() {
                break;
            }
        }
    }
    out
}

fn dump_as_model(db: &Db) -> BTreeMap<String, String> {
    dump(db)
        .into_iter()
        .map(|(k, v)| (String::from_utf8(k).unwrap(), String::from_utf8(v).unwrap()))
        .collect()
}

/// The states recovery is allowed to land on: the acked prefix, or the
/// acked prefix plus the single in-flight op (which may have hit the disk
/// just before the cut).
fn acceptable_states(
    acked: &BTreeMap<String, String>,
    in_flight: &Option<Op>,
) -> Vec<BTreeMap<String, String>> {
    let mut states = vec![acked.clone()];
    if let Some(op) = in_flight {
        let mut with = acked.clone();
        apply(&mut with, op);
        if with != states[0] {
            states.push(with);
        }
    }
    states
}

fn assert_point_in_time(
    db: &Db,
    acked: &BTreeMap<String, String>,
    in_flight: &Option<Op>,
    context: &str,
) {
    let got = dump_as_model(db);
    let states = acceptable_states(acked, in_flight);
    if states.contains(&got) {
        return;
    }
    let expected = &states[0];
    let missing: Vec<&String> = expected.keys().filter(|k| !got.contains_key(*k)).collect();
    let phantom: Vec<&String> = got.keys().filter(|k| !expected.contains_key(*k)).collect();
    let diverged: Vec<&String> = expected
        .iter()
        .filter(|(k, v)| got.get(*k).is_some_and(|g| g != *v))
        .map(|(k, _)| k)
        .collect();
    panic!(
        "{context}: recovered state is not a point-in-time view \
         (acked={} got={} missing={missing:?} phantom={phantom:?} \
         diverged={diverged:?} in_flight={in_flight:?})",
        expected.len(),
        got.len(),
    );
}

/// Clean run under an empty (but armed) fault plan: nothing is injected,
/// the plan's global operation counter just ticks, and its final value is
/// the sweep's upper bound.
fn learn_op_count() -> u64 {
    Runtime::new().run(|| {
        let fs = torture_fs();
        let db = Db::open(
            Arc::clone(&fs),
            torture_opts(WalRecoveryMode::PointInTimeRecovery),
        )
        .unwrap();
        fs.set_fault_plan(FaultPlan::default());
        let (model, in_flight) = run_workload(&db, &workload(WORKLOAD_SEED, WORKLOAD_OPS));
        assert!(in_flight.is_none(), "clean run must not fail");
        assert!(!model.is_empty());
        db.close();
        // Read the counter *before* power events: restore clears the plan.
        let n = fs.fault_ops();
        assert!(n > 0, "fault plan must have observed the workload");
        n
    })
}

/// Evenly samples `count` cut points across `[1, n]`.
fn sampled_cuts(n: u64, count: u64) -> Vec<u64> {
    let count = count.min(n).max(2);
    let mut cuts: Vec<u64> = (0..count).map(|j| 1 + j * (n - 1) / (count - 1)).collect();
    cuts.dedup();
    cuts
}

/// One torture iteration: identical workload, power cut at op `k`, power
/// restore, reopen under `mode`, shadow-model check. Returns the recovered
/// dump for determinism comparisons.
fn torture_once(k: u64, mode: WalRecoveryMode) -> Vec<(Vec<u8>, Vec<u8>)> {
    Runtime::new().run(move || {
        let fs = torture_fs();
        let db = Db::open(Arc::clone(&fs), torture_opts(mode)).unwrap();
        fs.set_fault_plan(FaultPlan {
            seed: WORKLOAD_SEED,
            power_cut_at_op: Some(k),
            ..FaultPlan::default()
        });
        let (acked, in_flight) = run_workload(&db, &workload(WORKLOAD_SEED, WORKLOAD_OPS));
        if !fs.is_powered_off() {
            // The cut landed in close-time (or never fired): pull the plug
            // so the recovery path still faces a dead filesystem.
            fs.power_cut();
        }
        db.close();
        fs.power_restore();
        let context = format!("cut={k} mode={}", mode.name());
        match Db::open(Arc::clone(&fs), torture_opts(mode)) {
            Ok(db2) => {
                assert_point_in_time(&db2, &acked, &in_flight, &context);
                println!(
                    "{}",
                    report::recovery_table(&context, &db2.stats().ticker_snapshot(), None)
                );
                let d = dump(&db2);
                db2.close();
                d
            }
            Err(err) => {
                // Only the strictest mode may refuse a legitimate power
                // cut, and only with a corruption verdict (the torn tail).
                assert_eq!(
                    mode,
                    WalRecoveryMode::AbsoluteConsistency,
                    "{context}: open failed: {err:?}"
                );
                assert!(err.is_corruption(), "{context}: {err:?}");
                let db2 = Db::open(
                    Arc::clone(&fs),
                    torture_opts(WalRecoveryMode::PointInTimeRecovery),
                )
                .expect("point-in-time reopen after absolute refusal");
                assert_point_in_time(&db2, &acked, &in_flight, &context);
                let d = dump(&db2);
                db2.close();
                d
            }
        }
    })
}

/// The dense sweep in the default mode: every sampled cut point must
/// recover to a point-in-time view.
#[test]
fn power_cut_sweep_recovers_point_in_time() {
    let n = learn_op_count();
    for k in sampled_cuts(n, cut_count()) {
        torture_once(k, WalRecoveryMode::PointInTimeRecovery);
    }
}

/// A sparser sweep across all four recovery modes: a pure power cut (no
/// scripted corruption) must satisfy the same point-in-time contract in
/// every mode — absolute may refuse, but never recover wrong data.
#[test]
fn power_cut_matrix_covers_all_recovery_modes() {
    let n = learn_op_count();
    let per_mode = (cut_count() / 4).max(4);
    for mode in WalRecoveryMode::ALL {
        for k in sampled_cuts(n, per_mode) {
            torture_once(k, mode);
        }
    }
}

/// Same seed, same cut point ⇒ byte-identical recovered state.
#[test]
fn recovery_is_deterministic_for_seed_and_cut() {
    let n = learn_op_count();
    for k in [n / 3, n / 2] {
        let a = torture_once(k, WalRecoveryMode::PointInTimeRecovery);
        let b = torture_once(k, WalRecoveryMode::PointInTimeRecovery);
        assert_eq!(a, b, "recovery diverged between identical runs (cut={k})");
    }
}

fn destroy_manifest(fs: &Arc<SimFs>, truncate: bool) {
    let paths: Vec<String> = fs
        .list("db/")
        .into_iter()
        .filter(|p| p.contains("MANIFEST") || p.ends_with("CURRENT"))
        .collect();
    assert!(!paths.is_empty(), "no manifest to destroy");
    for path in paths {
        if truncate && path.contains("MANIFEST") {
            // SimFs has no truncate: rewrite the file as a half-length
            // prefix, emulating a crash mid-append.
            let h = fs.open(&path).unwrap();
            let keep = (h.len() / 2) as usize;
            let prefix = h.read_at(0, keep).unwrap();
            drop(h);
            fs.delete(&path).unwrap();
            let h = fs.create(&path).unwrap();
            if !prefix.is_empty() {
                h.append(&prefix).unwrap();
            }
            h.sync().unwrap();
        } else {
            fs.delete(&path).unwrap();
        }
    }
}

/// MANIFEST is the casualty: after the cut the test deletes it outright,
/// so a plain reopen would start an empty database — `repair_db` must
/// instead rebuild a version from the surviving SSTs and logs that still
/// contains every acknowledged write.
#[test]
fn repair_restores_acked_writes_after_manifest_destruction() {
    let n = learn_op_count();
    for k in sampled_cuts(n, 6) {
        Runtime::new().run(move || {
            let fs = torture_fs();
            let opts = torture_opts(WalRecoveryMode::PointInTimeRecovery);
            let db = Db::open(Arc::clone(&fs), opts.clone()).unwrap();
            fs.set_fault_plan(FaultPlan {
                seed: WORKLOAD_SEED,
                power_cut_at_op: Some(k),
                ..FaultPlan::default()
            });
            let (acked, in_flight) = run_workload(&db, &workload(WORKLOAD_SEED, WORKLOAD_OPS));
            if !fs.is_powered_off() {
                fs.power_cut();
            }
            db.close();
            fs.power_restore();
            destroy_manifest(&fs, false);
            let report = repair_db(Arc::clone(&fs), &opts).expect("repair after manifest loss");
            assert!(
                report.tables() > 0 || acked.is_empty(),
                "cut={k}: repair salvaged nothing from a non-empty workload"
            );
            let db2 = Db::open(Arc::clone(&fs), opts.clone())
                .expect("second open after repair must succeed");
            report.record(db2.stats());
            assert_eq!(
                db2.stats().ticker(Ticker::RepairSstsRecovered),
                report.tables() as u64
            );
            assert_point_in_time(&db2, &acked, &in_flight, &format!("repair cut={k}"));
            println!(
                "{}",
                report::recovery_table(
                    &format!("repair cut={k}"),
                    &db2.stats().ticker_snapshot(),
                    Some(&report),
                )
            );
            db2.close();
        });
    }
}

/// Satellite: cuts land while `trash/` holds files awaiting their paced
/// deletion. Disposal must be exactly-once across the crash: the reopened
/// database re-queues the survivors and drains them; no trashed file
/// resurrects into the live namespace; reclaiming the backlog never frees
/// pages under live data (the recovered state reads identically before
/// and after the drain); and the store stays fully writable throughout.
#[test]
fn power_cut_during_trash_reclamation_disposes_exactly_once() {
    fn trash_opts(mode: WalRecoveryMode) -> DbOptions {
        DbOptions {
            // The slowest legal reaper: the backlog outlives the workload,
            // so cut points land with pending deletions in trash/.
            sst_delete_rate_bytes_per_sec: 64 << 10,
            ..torture_opts(mode)
        }
    }
    let mode = WalRecoveryMode::PointInTimeRecovery;
    let n = Runtime::new().run(|| {
        let fs = torture_fs();
        let db = Db::open(Arc::clone(&fs), trash_opts(mode)).unwrap();
        fs.set_fault_plan(FaultPlan::default());
        let (_, in_flight) = run_workload(&db, &workload(WORKLOAD_SEED, WORKLOAD_OPS));
        assert!(in_flight.is_none(), "clean run must not fail");
        db.close();
        fs.fault_ops()
    });
    let mut cuts_with_backlog = 0u32;
    for k in sampled_cuts(n, 8) {
        cuts_with_backlog += Runtime::new().run(move || {
            let fs = torture_fs();
            let db = Db::open(Arc::clone(&fs), trash_opts(mode)).unwrap();
            fs.set_fault_plan(FaultPlan {
                seed: WORKLOAD_SEED,
                power_cut_at_op: Some(k),
                ..FaultPlan::default()
            });
            let (acked, in_flight) = run_workload(&db, &workload(WORKLOAD_SEED, WORKLOAD_OPS));
            if !fs.is_powered_off() {
                fs.power_cut();
            }
            db.close();
            fs.power_restore();
            // Renames are namespace operations and survive the cut: these
            // files were trashed but not yet reaped when the lights died.
            let pending: HashSet<String> = fs.list("db/trash/").into_iter().collect();
            let context = format!("trash cut={k}");
            let db2 = Db::open(Arc::clone(&fs), trash_opts(mode))
                .unwrap_or_else(|e| panic!("{context}: reopen failed: {e:?}"));
            assert_point_in_time(&db2, &acked, &in_flight, &context);
            let before_drain = dump(&db2);
            db2.wait_for_compactions();

            // The open-time sweep re-queued every survivor; wait for the
            // paced reaper to dispose of each exactly once.
            let t0 = now_nanos();
            loop {
                let t = db2.metrics().tickers;
                if db2.trash_queued_bytes() == 0
                    && t.get(Ticker::SpaceReclaimedBytes) == t.get(Ticker::TrashedBytes)
                {
                    break;
                }
                assert!(
                    now_nanos() - t0 < 300_000_000_000,
                    "{context}: trash backlog never drained"
                );
                sleep_nanos(5_000_000);
            }
            assert!(
                fs.list("db/trash/").is_empty(),
                "{context}: trash/ still populated after the drain"
            );
            let live: HashSet<String> = fs.list("db/").into_iter().collect();
            for p in &pending {
                let name = p.trim_start_matches("db/trash/");
                assert!(
                    !live.contains(&format!("db/{name}")),
                    "{context}: trashed file {name} resurrected into the live set"
                );
            }
            // Reclaiming the backlog must not have freed pages under live
            // data: the recovered state reads identically after the drain.
            assert_eq!(
                before_drain,
                dump(&db2),
                "{context}: live data changed while draining trash"
            );
            db2.put(b"probe-after-drain", b"ok").unwrap();
            db2.flush().unwrap();
            assert_eq!(
                db2.get(b"probe-after-drain").unwrap(),
                Some(b"ok".to_vec()),
                "{context}"
            );
            db2.close();
            u32::from(!pending.is_empty())
        });
    }
    assert!(
        cuts_with_backlog >= 1,
        "no sampled cut landed with a trash backlog; the sweep exercised nothing"
    );
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(8))]

    /// Satellite: arbitrary seed and cut point, MANIFEST deleted *or*
    /// truncated mid-record, optionally a random subset of WALs deleted
    /// too — `repair_db` must always produce an openable database; when
    /// the WALs survive, every durably-synced key must be readable, and in
    /// all cases nothing is fabricated (every recovered value was actually
    /// written to that key at some point).
    #[test]
    fn repair_survives_arbitrary_cut_and_manifest_damage(
        seed in 0u64..1_000u64,
        cut in 50u64..4_000u64,
        truncate in proptest::strategies::bool::ANY,
        drop_wals in proptest::strategies::bool::ANY,
    ) {
        Runtime::new().run(move || {
            let fs = torture_fs();
            let opts = torture_opts(WalRecoveryMode::PointInTimeRecovery);
            let db = Db::open(Arc::clone(&fs), opts.clone()).unwrap();
            fs.set_fault_plan(FaultPlan {
                seed,
                power_cut_at_op: Some(cut),
                ..FaultPlan::default()
            });
            let ops = workload(seed, 250);
            // Every value ever sent toward a key, acked or in flight: the
            // universe recovered values must come from.
            let mut history: HashMap<String, HashSet<String>> = HashMap::new();
            for op in &ops {
                if let Op::Put(k, v) = op {
                    history.entry(k.clone()).or_default().insert(v.clone());
                }
            }
            let (acked, in_flight) = run_workload(&db, &ops);
            if !fs.is_powered_off() {
                fs.power_cut();
            }
            db.close();
            fs.power_restore();
            destroy_manifest(&fs, truncate);
            if drop_wals {
                // Delete every other surviving log: repair must still
                // produce a usable (if lossy) database.
                for (i, path) in fs
                    .list("db/")
                    .into_iter()
                    .filter(|p| p.ends_with(".log"))
                    .enumerate()
                {
                    if i % 2 == 0 {
                        fs.delete(&path).unwrap();
                    }
                }
            }
            repair_db(Arc::clone(&fs), &opts).expect("repair must not fail");
            let db2 = Db::open(Arc::clone(&fs), opts.clone()).expect("open after repair");
            let got = dump_as_model(&db2);
            if !drop_wals {
                assert_point_in_time(
                    &db2,
                    &acked,
                    &in_flight,
                    &format!("proptest seed={seed} cut={cut} truncate={truncate}"),
                );
            }
            for (k, v) in &got {
                assert!(
                    history.get(k).is_some_and(|vals| vals.contains(v)),
                    "fabricated value recovered: {k}={v} \
                     (seed={seed} cut={cut} truncate={truncate} drop_wals={drop_wals})"
                );
            }
            db2.close();
        });
    }
}
