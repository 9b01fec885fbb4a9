//! Regenerates the paper's figures.
//!
//! ```text
//! cargo run -p xlsm-bench --release --bin figures -- all
//! cargo run -p xlsm-bench --release --bin figures -- fig03 fig05
//! cargo run -p xlsm-bench --release --bin figures -- --quick all
//! ```
//!
//! Tables are printed and written to `results/<figNN>.tsv`.

use std::path::PathBuf;
use xlsm_bench::{common::BenchConfig, figures, PROBES};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    if args.is_empty() {
        eprintln!(
            "usage: figures [--quick] <all | fig01 | fig03 | fig04 | fig05 | fig06 | fig07 | \
             fig08 | fig09 | fig10 | fig12 | fig13 | fig14 | fig15 | fig16 | fig17 | fig18 | \
             fig19 | fig20 | stalls | ext_skew | parallelism | writepath | readpath | \
             stability | integrity | space> ..."
        );
        std::process::exit(2);
    }
    let cfg = if quick {
        BenchConfig::quick()
    } else {
        BenchConfig::from_env()
    };
    eprintln!(
        "[figures] config: {} keys x {} B, {:?} per point{}",
        cfg.key_count,
        cfg.value_size,
        cfg.duration,
        if quick { " (quick)" } else { "" }
    );

    let want = |name: &str| args.iter().any(|a| a == name || a == "all");
    let t0 = std::time::Instant::now();
    let results = PathBuf::from("results");
    let mut count = 0usize;
    // Emit each figure group as soon as it is computed, so partial results
    // survive interruptions.
    let mut emit = |figs: Vec<xlsm_bench::figures::Figure>| {
        for (name, table) in figs {
            println!("{table}");
            let path = results.join(format!("{name}.tsv"));
            if let Err(e) = table.write_tsv(&path) {
                eprintln!("[figures] failed to write {}: {e}", path.display());
            } else {
                eprintln!(
                    "[figures] wrote {} ({:.0}s elapsed)",
                    path.display(),
                    t0.elapsed().as_secs_f64()
                );
            }
            count += 1;
        }
    };
    if want("fig01") {
        emit(figures::fig01(&cfg));
    }
    if want("fig03") {
        emit(figures::fig03(&cfg));
    }
    if ["fig04", "fig05", "fig06", "fig07"].iter().any(|n| want(n)) {
        emit(figures::fig04_to_07(&cfg));
    }
    if ["fig08", "fig09", "fig10", "fig12"].iter().any(|n| want(n)) {
        emit(figures::fig08_to_12(&cfg));
    }
    if ["fig13", "fig14", "fig15", "fig16"].iter().any(|n| want(n)) {
        emit(figures::fig13_to_16(&cfg));
    }
    if want("fig17") {
        emit(figures::fig17(&cfg));
    }
    if want("fig18") {
        emit(figures::fig18(&cfg));
    }
    if want("fig19") {
        emit(figures::fig19(&cfg));
    }
    if want("fig20") {
        emit(figures::fig20(&cfg));
    }
    if ["stalls", "stall_timeline", "stall_breakdown"]
        .iter()
        .any(|n| want(n))
    {
        emit(figures::fig_stalls(&cfg));
    }
    if want("ext_skew") || args.iter().any(|a| a == "ext") {
        emit(figures::ext_skew(&cfg));
    }
    for probe in PROBES.iter().filter(|p| want(p.name)) {
        emit((probe.run)(&cfg).tables(probe.tables));
    }
    if want("integrity") {
        emit(figures::fig_integrity(&cfg));
    }

    if count == 0 {
        eprintln!("no recognized figure names in {args:?}");
        std::process::exit(2);
    }
    eprintln!(
        "[figures] {count} table(s) in {:.1}s wall",
        t0.elapsed().as_secs_f64()
    );
}
