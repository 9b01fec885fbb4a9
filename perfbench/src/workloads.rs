//! The benchmark's named workloads. `README.md` records why each was chosen.

use xlsm_device::{profiles, DeviceProfile};
use xlsm_workload::KeyDistribution;

/// Closed-loop client threads: the paper's `db_bench` thread count for its
/// device comparison (Fig. 3).
pub const CLIENTS: usize = 4;
/// Key size in bytes (`KeySpace` keys are 16-byte zero-padded decimals).
pub const KEY_BYTES: u64 = 16;
/// Value size in bytes, as in the paper.
pub const VALUE_BYTES: usize = 1024;
/// Width of the throughput buckets behind `min_kops_100ms`.
pub const BUCKET_NANOS: u64 = 100_000_000;

/// One named workload: a device, an op mix, a key distribution and a
/// dataset size.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Device the stack is built on.
    pub device: fn() -> DeviceProfile,
    /// Share of ops that are puts; the rest are gets.
    pub put_fraction: f64,
    /// How clients pick keys.
    pub distribution: KeyDistribution,
    /// Distinct keys, all written during set-up.
    pub key_count: u64,
    /// Virtual nanoseconds the window covers per host second of `--seconds`,
    /// calibrated so the window takes about `--seconds` of host time on a
    /// 2-core Intel Xeon VM. A constant, not a measurement: the window, and
    /// so every virtual result, depends only on `--seconds`, never on how
    /// fast the host happens to be.
    pub virtual_nanos_per_host_second: u64,
}

impl Workload {
    /// Logical bytes of the dataset (keys plus values).
    pub fn dataset_bytes(&self) -> u64 {
        self.key_count * (KEY_BYTES + VALUE_BYTES as u64)
    }

    /// Virtual length of the measured window for a run of `seconds` host
    /// seconds, in whole throughput buckets (at least one).
    pub fn window_nanos(&self, seconds: f64) -> u64 {
        let buckets = (seconds * self.virtual_nanos_per_host_second as f64 / BUCKET_NANOS as f64)
            .round()
            .max(1.0);
        buckets as u64 * BUCKET_NANOS
    }

    /// The same workload over `key_count` keys (for small smoke runs).
    pub fn with_key_count(mut self, key_count: u64) -> Workload {
        self.key_count = key_count;
        self
    }
}

/// Every workload, in reporting order.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "mixed-xpoint",
            device: profiles::optane_900p,
            put_fraction: 0.5,
            distribution: KeyDistribution::Uniform,
            key_count: 48 << 10,
            virtual_nanos_per_host_second: 69_000_000,
        },
        Workload {
            name: "readhot-pcie",
            device: profiles::intel_750_pcie,
            put_fraction: 0.0,
            distribution: KeyDistribution::Zipfian(0.99),
            key_count: 4 << 10,
            virtual_nanos_per_host_second: 31_000_000,
        },
        Workload {
            name: "overwrite-sata",
            device: profiles::intel_530_sata,
            put_fraction: 1.0,
            distribution: KeyDistribution::Uniform,
            key_count: 48 << 10,
            virtual_nanos_per_host_second: 615_000_000,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}
