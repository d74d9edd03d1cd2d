//! Cycle-level out-of-order superscalar CPU timing model.
//!
//! The paper evaluates its cache-protection scheme on SimpleScalar's
//! `sim-outorder` configured as a typical 4-issue processor (Table 1). This
//! crate rebuilds that timing model:
//!
//! * [`isa`] — the micro-op format consumed by the pipeline and the
//!   [`isa::InstrStream`] trait that workload generators implement.
//! * [`bpred`] — the 2-level adaptive branch predictor with a 2K-entry BTB.
//! * [`tlb`] — instruction (64-entry, 4-way) and data (128-entry, 4-way)
//!   TLBs with a fixed miss penalty.
//! * [`fu`] — the functional-unit pool (4 integer ALUs, 1 integer
//!   multiplier/divider, 1 FP adder, 1 FP multiplier/divider).
//! * [`config`] — [`config::CoreConfig::date2006`], Table 1 in code.
//! * [`pipeline`] — the cycle loop: a 64-entry register update unit (the
//!   unified ROB + reservation stations of `sim-outorder`), a 32-entry
//!   load/store queue with store-to-load forwarding, 4-wide fetch /
//!   dispatch / issue / commit, and misprediction-driven fetch redirect.
//!
//! The pipeline drives an [`aep_mem::MemoryHierarchy`]; memory-access
//! completion times come back from the hierarchy, so bus contention from
//! extra write-back traffic (the quantity the paper measures) flows
//! directly into IPC.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bpred;
pub mod config;
pub mod fu;
pub mod isa;
pub mod pipeline;
pub mod tlb;
pub mod trace;

pub use bpred::BranchPredictor;
pub use config::CoreConfig;
pub use fu::FuPool;
pub use isa::{InstrStream, MicroOp, OpClass, NO_REG};
pub use pipeline::{Pipeline, PipelineStats};
pub use tlb::Tlb;
pub use trace::{RecordingStream, ReplayStream, TraceReader, TraceWriter};
