//! Experiment and benchmark harness for the DATE 2006 reproduction.
//!
//! Two entry points:
//!
//! * the **`exp` binary** (`cargo run --release -p aep-bench --bin exp`)
//!   regenerates every table and figure of the paper as text tables /
//!   CSV — see `exp help` for the per-figure subcommands;
//! * the **Criterion benches** (`cargo bench -p aep-bench`) measure the
//!   simulator substrates themselves (SECDED throughput, cache access
//!   rates, pipeline cycles/second) and run scaled-down figure workloads
//!   as regression benchmarks.
//!
//! The library part hosts the shared experiment-orchestration code so the
//! binary and the benches do not duplicate it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check_cli;
pub mod engine_bench;
pub mod experiments;
pub mod explore;
pub mod faults;
pub mod faults_bench;
pub mod gate;
pub mod serve_cli;
pub mod workloads_cli;

pub use engine_bench::EngineBenchReport;
pub use experiments::{FigureData, Lab, Scale};
pub use explore::LabEvaluator;
pub use faults::FaultsOptions;

/// Alias kept only because `perfbench/` imports `aep_bench::runcache`.
pub use aep_sim::runcache;
