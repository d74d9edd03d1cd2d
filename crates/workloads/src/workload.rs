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

/// The canonical diversity-workload set: one representative per new
/// generator family (Zipf skew, adversarial, trace replay), at knobs
/// chosen to stress mechanisms the 14 calibrated benchmarks never reach.
/// `exp workloads report` proves the reach claim; the slugs here are the
/// spellings `--bench` accepts everywhere.
#[must_use]
pub fn diversity_workloads() -> Vec<Workload> {
    [
        // Zipf head so hot one line absorbs hundreds of rewrites.
        "zipf:k1024:e1200:c4",
        // Flat-ish Zipf over a larger key space with wide concurrency.
        "zipf:k4096:e800:c16",
        // More conflicting lines than ways: sustained ECC-entry churn.
        "storm:12",
        // Write-once streaming flood, no reuse.
        "flood:4096",
        // Working set flips between two phases; dirty data goes stale.
        "phase:96:3072",
        // Committed trace corpus recordings of the same two stressors.
        "trace:storm_burst",
        "trace:mixed_phases",
    ]
    .iter()
    .map(|slug| Workload::parse(slug).expect("diversity slugs parse"))
    .collect()
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

    fn fill(&mut self, ops: &mut [MicroOp]) {
        match self {
            WorkloadStream::Bench(g) => g.fill(ops),
            WorkloadStream::Zipf(s) => s.fill(ops),
            WorkloadStream::Adversarial(s) => s.fill(ops),
            WorkloadStream::Trace(s) => s.fill(ops),
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

    /// The raw op stream of every non-SPEC workload is pinned, as
    /// `bench::tests::generator_streams_are_pinned` pins the calibrated
    /// generators: 100,000 ops at seed 2006.
    #[test]
    fn workload_streams_are_pinned() {
        const PINNED: [(&str, u64); 6] = [
            ("zipf:k1024:e1200:c4", 0x03d6_0c5c_ca69_febf),
            ("storm:12", 0x2cfb_9e57_8ce9_790a),
            ("flood:4096", 0xe569_0eaf_3233_0466),
            ("phase:96:3072", 0xc220_2df3_02aa_1a62),
            ("trace:mixed_phases", 0x6d0c_6f7c_7405_4841),
            ("trace:storm_burst", 0xa453_37f2_cd18_9327),
        ];
        let got: Vec<(&str, u64)> = PINNED
            .iter()
            .map(|&(slug, _)| {
                let workload = Workload::parse(slug).expect("a valid slug");
                (
                    slug,
                    crate::op_stream_digest(&mut workload.stream(2006), 100_000),
                )
            })
            .collect();
        assert_eq!(got, PINNED, "a workload's op stream changed");
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
