//! Monte Carlo soft-error campaigns over the live timing simulator.
//!
//! This crate is the workspace's fault-injection engine. It measures
//! what actually happens when an upset lands in a busy machine: bits of
//! the data-holding L2 are struck at seeded pseudo-Poisson arrival times,
//! the workload keeps executing, and the upset is routed through the
//! active scheme's detect/correct path at the next access, cleaning
//! probe, or eviction that touches the struck line.
//!
//! * [`outcome`] — the per-trial taxonomy (masked / corrected /
//!   refetch-recovered / DUE / SDC) and campaign tallies.
//! * [`models`] — the geometry-aware strike-model taxonomy (single,
//!   burst, column, row, accumulation) and its CLI slug grammar.
//! * [`monitor`] — the [`aep_sim::SystemObserver`] that resolves a pending
//!   strike at the first event touching the struck frame, including
//!   miscorrection-aware SDC classification.
//! * [`campaign`] — chunked, jobs-invariant campaign driver: each
//!   worker's chunks run as lanes over one shared warmed machine.
//! * [`pool`] — the order-preserving thread fan-out shared with the
//!   experiment engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod models;
pub mod monitor;
pub mod outcome;
pub mod pool;

pub use campaign::{run_campaign, run_campaign_report, CampaignConfig, CampaignReport};
pub use models::{StrikeModel, StrikePattern, WordFlips};
pub use monitor::{PendingStrike, StrikeCell, StrikeProbe, StrikeState};
pub use outcome::{OutcomeTable, TrialOutcome};
pub use pool::fan_out;
