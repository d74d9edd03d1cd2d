//! Unified observability layer for the area-efficient error-protection
//! simulator.
//!
//! Four concerns live here, all dependency-free so every other crate in the
//! workspace can plug in:
//!
//! 1. **Stats registry** ([`Registry`]): a hierarchical, deterministic map of
//!    named statistics. Components publish their counters under scoped
//!    prefixes (`cpu.`, `l2.`, `scheme.`, ...); [`Histogram`] and
//!    [`RateOverTime`] cover distribution- and time-series-shaped stats and
//!    flatten into plain registry entries at export time.
//! 2. **Cycle trace** ([`CycleTrace`]): a fixed-capacity ring buffer of typed
//!    micro-architectural events ([`TraceKind`]) dumpable as JSONL. When no
//!    trace is attached the simulator pays nothing.
//! 3. **Snapshot + gate** ([`StatsSnapshot`], [`compare_snapshots`]): a
//!    machine-readable export with stable keys and a comparison routine used
//!    by `exp gate` / `scripts/stats_gate.sh` to fail CI when a change shifts
//!    architectural counts (exact match) or derived rates (±2 % tolerance).
//! 4. **JSON + provenance** ([`json`], [`provenance`]): the workspace's one
//!    JSON parser (a [`json::Value`] tree with typed [`json::JsonError`]s
//!    and a nesting limit) and string escaper, used by the snapshots, the
//!    `aep-serve` wire protocol and the BENCH reports, plus the commit and
//!    host those reports record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gate;
pub mod json;
pub mod provenance;
mod registry;
mod snapshot;
mod trace;

pub use gate::{compare_snapshots, Finding, FindingKind, GateReport, RATE_TOLERANCE};
pub use registry::{Histogram, RateOverTime, Registry, StatValue};
pub use snapshot::StatsSnapshot;
pub use trace::{CycleTrace, TraceEvent, TraceKind};
