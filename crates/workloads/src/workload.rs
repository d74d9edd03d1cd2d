//! The unified workload type: calibrated benchmarks, Zipf generators,
//! adversarial generators, and trace replay behind one name.
//!
//! Every experiment entry point (`ExperimentConfig`, the DSE space, the
//! serve protocol, `exp run/faults/lanes`) stores a [`Workload`]; the
//! calibrated [`Benchmark`]s convert in via `From`, so existing call
//! sites keep passing the enum. A workload's [`Workload::name`] is its
//! canonical slug — stable, filesystem-safe, and parsed back by
//! [`Workload::parse`] (the run cache and the serve protocol round-trip
//! through it).

use std::fmt;

use aep_cpu::isa::{InstrStream, MicroOp};

use crate::adversarial::{AdversarialSpec, AdversarialStream};
use crate::bench::Benchmark;
use crate::model::Generator;
use crate::trace::{TraceStream, TraceWorkload};
use crate::zipf::{ZipfSpec, ZipfStream};

/// Any workload the simulator can drive.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Workload {
    /// One of the 14 calibrated SPEC2000-alike models.
    Bench(Benchmark),
    /// A parameterized Zipf-skew key-value generator.
    Zipf(ZipfSpec),
    /// An adversarial invariant-stressing generator.
    Adversarial(AdversarialSpec),
    /// Replay of a named trace from the committed corpus.
    Trace(String),
}

impl From<Benchmark> for Workload {
    fn from(b: Benchmark) -> Self {
        Workload::Bench(b)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

impl Workload {
    /// The canonical slug: a calibrated benchmark's name, or
    /// `zipf:…` / `storm:…` / `flood:…` / `phase:…` / `trace:<name>`.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            Workload::Bench(b) => b.name().to_owned(),
            Workload::Zipf(spec) => spec.slug(),
            Workload::Adversarial(spec) => spec.slug(),
            Workload::Trace(name) => format!("trace:{name}"),
        }
    }

    /// Parses a slug back into a workload (inverse of
    /// [`Workload::name`]). Calibrated benchmark names win; the
    /// generator grammars are all prefixed, so they cannot collide.
    #[must_use]
    pub fn parse(s: &str) -> Option<Workload> {
        if let Some(b) = Benchmark::all().into_iter().find(|b| b.name() == s) {
            return Some(Workload::Bench(b));
        }
        if let Some(spec) = ZipfSpec::parse(s) {
            return Some(Workload::Zipf(spec));
        }
        if let Some(spec) = AdversarialSpec::parse(s) {
            return Some(Workload::Adversarial(spec));
        }
        if let Some(name) = s.strip_prefix("trace:") {
            if !name.is_empty() && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_') {
                return Some(Workload::Trace(name.to_owned()));
            }
        }
        None
    }

    /// The generator family, used by the coverage-reach report.
    #[must_use]
    pub fn family(&self) -> &'static str {
        match self {
            Workload::Bench(_) => "calibrated",
            Workload::Zipf(_) => "zipf",
            Workload::Adversarial(_) => "adversarial",
            Workload::Trace(_) => "trace",
        }
    }

    /// Builds the deterministic instruction stream for this workload.
    ///
    /// # Panics
    ///
    /// Panics when a [`Workload::Trace`] names a corpus trace that does
    /// not exist or fails to decode — trace names are validated at
    /// parse/configuration time, so a missing trace at stream time is a
    /// deployment error worth failing loudly on.
    #[must_use]
    pub fn stream(&self, seed: u64) -> WorkloadStream {
        match self {
            Workload::Bench(b) => WorkloadStream::Bench(Box::new(b.generator(seed))),
            Workload::Zipf(spec) => WorkloadStream::Zipf(Box::new(spec.stream(seed))),
            Workload::Adversarial(spec) => WorkloadStream::Adversarial(spec.stream(seed)),
            Workload::Trace(name) => {
                let wl = TraceWorkload::load(name)
                    .unwrap_or_else(|e| panic!("cannot load trace '{name}': {e}"));
                WorkloadStream::Trace(wl.stream())
            }
        }
    }

    /// Validates that this workload can actually stream (for traces:
    /// the corpus file exists and decodes).
    ///
    /// # Errors
    ///
    /// A human-readable reason when it cannot.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Workload::Trace(name) => TraceWorkload::load(name)
                .map(|_| ())
                .map_err(|e| e.to_string()),
            _ => Ok(()),
        }
    }
}

/// The unified instruction stream: one enum so `System<WorkloadStream>`
/// stays a concrete type (forkable, lane-batchable).
#[derive(Debug, Clone)]
pub enum WorkloadStream {
    /// Calibrated behavioural model (boxed: it is by far the largest).
    Bench(Box<Generator>),
    /// Zipf generator.
    Zipf(Box<ZipfStream>),
    /// Adversarial generator.
    Adversarial(AdversarialStream),
    /// Trace replay.
    Trace(TraceStream),
}

impl InstrStream for WorkloadStream {
    #[inline]
    fn next_op(&mut self) -> MicroOp {
        match self {
            WorkloadStream::Bench(g) => g.next_op(),
            WorkloadStream::Zipf(s) => s.next_op(),
            WorkloadStream::Adversarial(s) => s.next_op(),
            WorkloadStream::Trace(s) => s.next_op(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_names_parse_to_bench_workloads() {
        for b in Benchmark::all() {
            let w = Workload::parse(b.name()).unwrap();
            assert_eq!(w, Workload::Bench(b));
            assert_eq!(w.name(), b.name());
            assert_eq!(w.family(), "calibrated");
        }
    }

    #[test]
    fn generator_slugs_round_trip() {
        for slug in [
            "zipf:k1024:e1200:c4",
            "storm:12",
            "flood:4096",
            "phase:96:3072",
            "trace:storm_burst",
        ] {
            let w = Workload::parse(slug).unwrap();
            assert_eq!(w.name(), slug);
        }
    }

    #[test]
    fn malformed_slugs_are_rejected() {
        for slug in ["", "zip:k1:e1:c1", "trace:", "trace:../evil", "gzzip"] {
            assert_eq!(Workload::parse(slug), None, "{slug:?} must not parse");
        }
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        use aep_cpu::isa::InstrStream;
        for w in [
            Workload::Bench(Benchmark::Gap),
            Workload::parse("zipf:k256:e1000:c2").unwrap(),
            Workload::parse("storm:8").unwrap(),
        ] {
            let mut a = w.stream(11);
            let mut b = w.stream(11);
            for _ in 0..2000 {
                assert_eq!(a.next_op(), b.next_op());
            }
        }
    }
}
