//! The three case studies of Section V, plus the [`policy`] module that
//! folds two-stage throttling into one sweepable stability-policy family
//! alongside the scheduler-side interventions.

pub mod dynamic_l0;
pub mod nvm_wal;
pub mod policy;
pub mod two_stage;
