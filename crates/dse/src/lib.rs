//! Design-space exploration engine for the DATE 2006 reproduction.
//!
//! The paper's central result is a *trade-off*: sweep one knob (the
//! cleaning interval) and pick the operating point where the dirty-line
//! census halves while write-back traffic stays near baseline. This crate
//! turns that one-dimensional sweep into a first-class, multi-objective
//! search over the whole configuration space the simulator can express:
//!
//! * [`space`] — the typed parameter-space model: axes for scheme
//!   template, cleaning interval, scrub rate, cache geometry, and
//!   benchmark set, with cartesian-grid and explicit-list constructors,
//!   validation against [`aep_sim::ExperimentConfig`] invariants, and
//!   deterministic point ordering and IDs;
//! * [`registry`] — the explorer's axes: scheme templates, the interval
//!   axis, and the paper's figure configurations (the
//!   `aep_core::lineup` sets) expressed as named points of the space;
//! * [`objective`] — per-point objective vectors (IPC, protection-storage
//!   area, write-back traffic, protection energy, analytical FIT, and
//!   optionally empirical DUE/SDC rates) extracted from [`aep_sim::RunStats`]
//!   or from [`aep_obs::StatsSnapshot`] keys;
//! * [`pareto`] — the non-dominated analysis layer: a property-tested
//!   dominance relation, frontier extraction, knee points, and
//!   constraint queries ("min area s.t. IPC ≥ 99 % of baseline");
//! * [`driver`] — the search driver: exhaustive grids plus a budgeted
//!   successive-halving refinement that promotes surviving points up the
//!   smoke → quick → paper scale ladder, generic over an [`Evaluator`]
//!   so `aep-bench` can plug in its parallel `Lab` + run cache;
//! * [`report`] — deterministic CSV / JSON / markdown frontier reports
//!   plus a lossless point-record format for offline re-analysis.
//!
//! Everything here is deterministic: point order, IDs, ranking
//! tie-breaks, and report bytes are pure functions of the space and the
//! objective spec, so explorer output is byte-identical for any worker
//! count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod objective;
pub mod pareto;
pub mod registry;
pub mod report;
pub mod space;

pub use driver::{explore_grid, refine, EvaluatedPoint, Evaluator, RefineOutcome, RungSummary};
pub use objective::{
    objectives_from_run, objectives_from_snapshot, ObjectiveKey, ObjectiveSpec, ObjectiveVector,
};
pub use pareto::{
    constrained_best, dominates, frontier_indices, knee_distance, knee_index, pareto_ranks,
    Constraint,
};
pub use report::{
    analyze, frontier_csv, frontier_json, frontier_markdown, parse_records, points_csv,
    write_records, Analysis, RecordError,
};
pub use space::{expand_schemes, ExplorePoint, Geometry, SchemeTemplate, Space, SpaceError};
