//! The probe registry and the committed `BENCH_<name>.json` files agree.

use std::path::Path;
use xlsm_bench::PROBES;

#[test]
fn every_probe_has_a_committed_report_under_its_name() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for probe in PROBES {
        let path = root.join(format!("BENCH_{}.json", probe.name));
        let json =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let bench = format!("\n  \"bench\": \"{}\",\n", probe.name);
        assert!(
            json.starts_with('{') && json.contains(&bench),
            "{} does not name bench {:?}",
            path.display(),
            probe.name
        );
    }
}
