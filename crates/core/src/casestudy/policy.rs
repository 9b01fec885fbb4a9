//! The **stability-policy family**: one enum naming every performance-
//! stability intervention studied by the suite, so the benches and figure
//! harnesses can sweep them uniformly.
//!
//! The paper's two-stage throttling case study (V-A) attacks write-stall
//! instability from the *foreground* side by pacing writers. The
//! scheduler work re-expresses it as a member of a wider family that also
//! includes *background* interventions: which level the compactor services
//! next ([`xlsm_engine::scheduler::CompactionScheduler`]) and how fast the
//! background I/O may run ([`xlsm_engine::scheduler::BgIoLimiter`]).
//!
//! Each variant is fully described by how it configures a fresh database
//! ([`StabilityPolicy::apply`]). Dynamic Level-0 management (V-B) is not a
//! member: under the stability probe's write-heavy bursts its manager
//! keeps the memtable at the size it already has, so its rows read
//! byte-identical to greedy. It stays available as
//! [`super::dynamic_l0::DynamicL0Manager`].

use std::sync::Arc;
use xlsm_engine::{DbOptions, FairScheduler, GreedyScheduler, RoundRobinScheduler};

use super::two_stage::TwoStageThrottlePolicy;

/// Background I/O budget granted to the [`StabilityPolicy::Fair`] variant,
/// in bytes per second of virtual time. Chosen to sit above the steady
/// compaction demand of the scaled testbeds on every device (so the mean
/// throughput stays within a few percent of greedy) while clipping the
/// bursts where flush and compaction I/O gang up on the device at once.
/// Auto-tuning scales it up with measured compaction debt (to 4× under
/// sustained pressure), so a temporarily undersized budget self-corrects
/// instead of wedging the LSM.
pub const FAIR_BG_IO_RATE: u64 = 256 << 20;

/// Stage-1 rate floor handed to [`TwoStageThrottlePolicy`] (bytes/s),
/// matching the value used by the V-A case-study harness.
pub const TWO_STAGE_MIN_RATE: u64 = 8 << 20;

/// One member of the stability-policy family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StabilityPolicy {
    /// Baseline: greedy max-score compaction picking, unlimited background
    /// I/O, the stock Algorithm-1 write controller.
    Greedy,
    /// Round-robin compaction picking across eligible levels; otherwise the
    /// baseline configuration.
    RoundRobin,
    /// Deficit-based fair compaction picking **plus** the shared
    /// background-I/O budget with flush priority and debt-scaled
    /// auto-tuning — the full scheduler-side intervention.
    Fair,
    /// Case study V-A: two-stage throttling (foreground-side), greedy
    /// compaction picking.
    TwoStage,
}

impl StabilityPolicy {
    /// Every member, in the order the stability tables report them.
    pub const ALL: [StabilityPolicy; 4] = [
        StabilityPolicy::Greedy,
        StabilityPolicy::RoundRobin,
        StabilityPolicy::Fair,
        StabilityPolicy::TwoStage,
    ];

    /// Stable identifier used in reports and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            StabilityPolicy::Greedy => "greedy",
            StabilityPolicy::RoundRobin => "round-robin",
            StabilityPolicy::Fair => "fair",
            StabilityPolicy::TwoStage => "two-stage",
        }
    }

    /// Configures `opts` for this policy. Builds a **fresh** scheduler for
    /// every call: schedulers are stateful (cursors, banked credits), so
    /// sharing one `Arc` across databases would leak scheduling state
    /// between runs and break run-to-run determinism.
    pub fn apply(self, opts: &mut DbOptions) {
        match self {
            StabilityPolicy::Greedy => {
                opts.compaction_scheduler = Arc::new(GreedyScheduler);
            }
            StabilityPolicy::RoundRobin => {
                opts.compaction_scheduler = Arc::new(RoundRobinScheduler::default());
            }
            StabilityPolicy::Fair => {
                opts.compaction_scheduler = Arc::new(FairScheduler::default());
                opts.bg_io_rate_bytes_per_sec = FAIR_BG_IO_RATE;
                opts.bg_io_auto_tune = true;
            }
            StabilityPolicy::TwoStage => {
                opts.compaction_scheduler = Arc::new(GreedyScheduler);
                opts.throttle_policy = Arc::new(TwoStageThrottlePolicy::new(TWO_STAGE_MIN_RATE));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_installs_the_named_scheduler() {
        for policy in StabilityPolicy::ALL {
            let mut opts = DbOptions::default();
            policy.apply(&mut opts);
            let expect = match policy {
                StabilityPolicy::RoundRobin => "round-robin",
                StabilityPolicy::Fair => "fair",
                _ => "greedy",
            };
            assert_eq!(opts.compaction_scheduler.name(), expect, "{policy:?}");
        }
    }

    #[test]
    fn only_fair_enables_the_io_budget() {
        for policy in StabilityPolicy::ALL {
            let mut opts = DbOptions::default();
            policy.apply(&mut opts);
            if policy == StabilityPolicy::Fair {
                assert_eq!(opts.bg_io_rate_bytes_per_sec, FAIR_BG_IO_RATE);
                assert!(opts.bg_io_auto_tune);
            } else {
                assert_eq!(opts.bg_io_rate_bytes_per_sec, 0);
                assert!(!opts.bg_io_auto_tune);
            }
            opts.validate().expect("policy options must validate");
        }
    }

    #[test]
    fn two_stage_installs_the_case_study_throttle() {
        let mut opts = DbOptions::default();
        StabilityPolicy::TwoStage.apply(&mut opts);
        assert_eq!(opts.throttle_policy.name(), "two-stage");
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = StabilityPolicy::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), StabilityPolicy::ALL.len());
    }
}
