//! The repository benchmark: four workloads that exercise the reproduction
//! the way its users do, measured end to end with tracing off, plus a
//! traced run that splits host time by layer.
//!
//! | workload | what a pass is | layers it stresses |
//! |---|---|---|
//! | `figures` | a cold evaluation of the paper's figure set through `Lab` | workloads, cpu, mem, sim |
//! | `lanes` | the 8-lane shadow batch on four fixed trajectories, beside one serial run | sim.lanes, core |
//! | `faults` | the strike-model ladder under four campaign seeds | faultsim, ecc, sim fork |
//! | `serve` | one round of a seeded request mix against an in-process daemon | serve, sim.runcache |
//!
//! Every pass validates every output it produces; [`Tally`] counts what
//! was attempted and what failed.

#![forbid(unsafe_code)]

pub mod faults;
pub mod figures;
pub mod host;
pub mod lanes;
pub mod reference;
pub mod serve;
pub mod summary;
pub mod trace;

use aep_sim::runcache::{fnv1a, render_stats};
use aep_sim::RunStats;

/// Operations attempted and failed over a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted (validated outputs, requests, …).
    pub attempted: u64,
    /// Operations that errored, were shed or failed validation.
    pub failed: u64,
}

impl Tally {
    /// Books one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One timed pass of a workload.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host seconds the pass took.
    pub wall_s: f64,
    /// Workload-specific end-to-end figures of this pass: name, unit,
    /// value.
    pub figures: Vec<(&'static str, &'static str, f64)>,
    /// What the pass attempted and what failed.
    pub tally: Tally,
}

/// One per-layer figure of the traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Metric name (`<layer>.<what>`).
    pub name: String,
    /// Unit string.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

impl Layer {
    /// A layer figure.
    #[must_use]
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Layer {
        Layer {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Digest of a run's statistics: FNV-1a over their lossless cache text,
/// so two digests agree exactly when every field is bit-identical.
#[must_use]
pub fn stats_digest(stats: &RunStats) -> u64 {
    fnv1a(render_stats(stats).as_bytes())
}

/// A scratch directory inside the current checkout, unique to this
/// process; removed by [`remove_scratch`].
#[must_use]
pub fn scratch_dir(name: &str) -> std::path::PathBuf {
    std::path::Path::new(".perfbench_tmp")
        .join(std::process::id().to_string())
        .join(name)
}

/// Removes this process's scratch directories.
pub fn remove_scratch() {
    let dir = std::path::Path::new(".perfbench_tmp").join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&dir);
    // Leave no empty parent behind; fails harmlessly if others remain.
    let _ = std::fs::remove_dir(".perfbench_tmp");
}

/// Derives an independent stream seed from the benchmark seed.
#[must_use]
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    aep_mem::memory::mix64(seed ^ aep_mem::memory::mix64(salt))
}
