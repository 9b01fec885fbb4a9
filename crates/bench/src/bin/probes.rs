//! Runs the extension probes and writes each one's JSON report.
//!
//! ```text
//! cargo run -p xlsm-bench --release --bin probes -- <name|all> [out]
//! cargo run -p xlsm-bench --release --bin probes -- --list
//! XLSM_QUICK=1 cargo run -p xlsm-bench --release --bin probes -- stability
//! ```
//!
//! For one probe, `out` is the JSON path (default `BENCH_<name>.json`); for
//! `all` it is the directory the `BENCH_<name>.json` files go to (default
//! `.`). Tables are printed to stdout. The output carries no timestamps or
//! wall-clock data: two runs with the same seed must produce byte-identical
//! files (`scripts/check.sh` enforces this).

use std::path::PathBuf;
use xlsm_bench::{BenchConfig, Probe, PROBES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = PROBES.iter().map(|p| p.name).collect();
    let which = args.first().map_or("", String::as_str);
    if which == "--list" {
        println!("{}", names.join("\n"));
        return;
    }
    if which != "all" && !names.contains(&which) {
        eprintln!("usage: probes <{}|all> [out] | --list", names.join("|"));
        std::process::exit(2);
    }
    let out = args.get(1);
    let path = |probe: &Probe| -> PathBuf {
        let file = format!("BENCH_{}.json", probe.name);
        match out {
            Some(dir) if which == "all" => PathBuf::from(dir).join(file),
            Some(path) => PathBuf::from(path),
            None => PathBuf::from(file),
        }
    };

    let cfg = BenchConfig::from_env();
    for probe in PROBES.iter().filter(|p| which == "all" || p.name == which) {
        let name = probe.name;
        eprintln!(
            "[{name}] config: {} keys x {} B, seed {:#x}",
            cfg.key_count, cfg.value_size, cfg.seed
        );
        let t0 = std::time::Instant::now();
        let report = (probe.run)(&cfg);
        assert_eq!(report.bench, name, "probe registered under another name");
        for (_, table) in report.tables(probe.tables) {
            println!("{table}");
        }
        let out = path(probe);
        if let Err(e) = std::fs::write(&out, report.to_json()) {
            eprintln!("[{name}] failed to write {}: {e}", out.display());
            std::process::exit(1);
        }
        eprintln!(
            "[{name}] wrote {} in {:.1}s wall",
            out.display(),
            t0.elapsed().as_secs_f64()
        );
    }
}
