//! Differential checking for the DATE 2006 reproduction.
//!
//! Every figure this repo regenerates rests on the timing simulator and
//! the protection-scheme state machines being *correct*. This crate is
//! the independent referee: three layers that check the simulator against
//! something other than itself.
//!
//! 1. **Lockstep golden model** ([`golden`], driven by [`checker`]): a
//!    simple, obviously-correct functional model of the L2 + memory —
//!    a flat address→value map plus per-line dirty/written shadow state —
//!    fed by the [`aep_sim::SystemObserver`] event bus. After every event
//!    it checks residency, hit/miss consistency, dirty/written bits,
//!    line data word-for-word, and write-back images landing in memory.
//! 2. **Protocol invariant registry** ([`checker`]): machine-checked
//!    invariants evaluated per-event (every dirty line covered by a live
//!    or retiring ECC entry) and at a configurable cycle cadence (census
//!    counts equal a from-scratch walk, written ⇒ dirty, write-through
//!    L1s never dirty, scheme bookkeeping consistent with the cache).
//! 3. **Coverage-guided fuzzer** ([`fuzz`]): a seeded generator of
//!    adversarial workloads (set-conflict storms, write-once vs.
//!    write-hot generations, cleaning/scrub edge intervals) that tracks
//!    which scheme code paths each input exercises, biases mutation
//!    toward unexercised ones, and shrinks any failing input to a
//!    minimal reproducer under `results/check/`.
//!
//! The deliberately-broken scheme double in [`broken`] reconstructs the
//! "retiring ECC entry dropped before its forced write-back" bug that
//! PR 2 fixed, and exists to prove the invariant checker catches that
//! class. The `exp check` subcommand (in `aep-bench`) drives all three
//! layers with the repo's usual exit-code and `--jobs` determinism
//! contracts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broken;
pub mod checker;
pub mod conformance;
pub mod coverage;
pub mod fuzz;
pub mod golden;
pub mod lockstep;
pub mod scenario;

pub use broken::BrokenRetiringScheme;
pub use checker::{CheckState, LockstepChecker, SharedCheckState, Violation};
pub use conformance::{
    broken_scheme_is_caught, run_conformance, run_conformance_matrix, ConformanceReport,
};
pub use coverage::Coverage;
pub use fuzz::{run_fuzz, FailureReport, FuzzConfig, FuzzReport};
pub use golden::GoldenModel;
pub use lockstep::{run_lockstep, LockstepResult};
pub use scenario::{
    probe_matrix, run_genome, run_stream, Genome, ScenarioOutcome, Segment, StreamProbe,
};
