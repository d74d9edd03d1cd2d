//! The scheme-conformance suite: one shared battery that every
//! registered [`SchemeKind`] (the schemes of
//! [`challengers_faults_schemes`], declared beside the enum in
//! `aep_core::lineup`) must pass before it counts as a DSE citizen.
//!
//! A protection scheme plugs into five independent harnesses — the
//! event-driven simulator, the lane-parallel batch engine, the fork-based
//! fault campaign, the run cache, and the differential checker — and a
//! scheme that satisfies one can still violate another (a scheme can
//! simulate correctly yet break fork determinism, or round-trip its slug
//! yet collide in the run cache). The suite runs each contract explicitly:
//!
//! 1. **Protocol fuzz** — adversarial access-pattern genomes under the
//!    full lockstep golden model + invariant checker (smoke scale).
//! 2. **Slug & run-cache identity** — `scheme_slug` round-trips through
//!    `parse_scheme_slug`, and [`RunCache::key`] is stable in the config
//!    and sensitive to the seed.
//! 3. **Lane batch vs. serial** — a plain and a scrubbed lane of the
//!    scheme, batched over one shared scheme instance, each produce
//!    byte-identical stats and registry entries to their serial runs, and
//!    the scheme's shareability classification matches its use of
//!    directives (directive-emitting schemes must not share a machine).
//! 4. **Fork round-trip** — a warmed system and its fork replay
//!    identically, the contract the fault campaign's warm-once /
//!    fork-per-chunk design rests on.
//! 5. **Campaign determinism** — single-bit, `burst:2`, and `col:4`
//!    strike campaigns are byte-identical across worker counts.
//!
//! The suite must also *fail* on the deliberately broken scheme double
//! ([`crate::broken::BrokenRetiringScheme`]); [`broken_scheme_is_caught`]
//! is that self-test, pinned by a regression test so the battery can
//! never silently become vacuous. The lane stage has its own: a scheme
//! double whose clean verification writes state
//! ([`crate::broken::MutatingVerifyScheme`]) must fail it
//! ([`mutating_verify_is_caught`]).
//!
//! The full matrix ([`run_conformance_matrix`]) runs in this crate's
//! `scheme_conformance` integration test, CI's `conformance` job.

use aep_core::lineup::challengers_faults_schemes;
use aep_core::{parse_scheme_slug, scheme_slug, SchemeKind};
use aep_faultsim::{fan_out, run_campaign, CampaignConfig, StrikeModel};
use aep_sim::lanes::{
    partition_lanes, run_lane_serial, run_lane_serial_with, run_lanes_with, LaneSpec, SchemeBuilder,
};
use aep_sim::runcache::{render_stats, RunCache};
use aep_sim::{build_scheme, ExperimentConfig};
use aep_workloads::Benchmark;

use crate::broken::MutatingVerifyScheme;
use crate::scenario::{run_genome, Genome, Segment};

/// One scheme's verdict: the battery stages that failed, with context.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// The scheme that was exercised.
    pub scheme: SchemeKind,
    /// Human-readable failure descriptions, one per broken contract
    /// (empty ⇒ the scheme conforms).
    pub failures: Vec<String>,
    /// L2 events validated by the protocol-fuzz stage.
    pub events_checked: u64,
}

impl ConformanceReport {
    /// Whether the scheme passed every stage.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The adversarial genomes of the protocol-fuzz stage: set-conflict
/// displacement, write-once generations under cleaning, a write-hot
/// line (silent by construction under address-stable store values),
/// and read-sweep LRU pressure.
fn fuzz_genomes(scheme: SchemeKind) -> Vec<Genome> {
    vec![
        Genome {
            scheme,
            scrub_period: None,
            cycles: 6_000,
            segments: vec![Segment::ConflictStorm {
                set: 3,
                lines: 6,
                writes: 64,
            }],
        },
        Genome {
            scheme,
            scrub_period: None,
            cycles: 8_000,
            segments: vec![
                Segment::WriteOnce {
                    start: 0,
                    count: 24,
                },
                Segment::ReadSweep {
                    start: 24,
                    count: 24,
                },
            ],
        },
        Genome {
            scheme,
            scrub_period: Some(512),
            cycles: 8_000,
            segments: vec![
                Segment::WriteHot {
                    line: 5,
                    writes: 48,
                },
                Segment::ConflictStorm {
                    set: 5,
                    lines: 5,
                    writes: 32,
                },
            ],
        },
    ]
}

fn check_protocol(scheme: SchemeKind, failures: &mut Vec<String>) -> u64 {
    let mut events = 0;
    for (i, genome) in fuzz_genomes(scheme).iter().enumerate() {
        let outcome = run_genome(genome, false);
        events += outcome.events_checked;
        if outcome.failed() {
            failures.push(format!(
                "protocol fuzz genome {i}: {} violation(s), first: {}",
                outcome.total_violations,
                outcome
                    .violations
                    .first()
                    .map_or_else(|| "<none captured>".to_owned(), |v| v.message.clone()),
            ));
        }
        if outcome.events_checked == 0 {
            failures.push(format!("protocol fuzz genome {i}: checked no events"));
        }
    }
    events
}

fn check_slug_and_cache_key(scheme: SchemeKind, failures: &mut Vec<String>) {
    let slug = scheme_slug(scheme);
    if parse_scheme_slug(&slug) != Some(scheme) {
        failures.push(format!("slug '{slug}' does not round-trip"));
    }
    let cfg = ExperimentConfig::fast_test(Benchmark::Gzip, scheme);
    let key_a = RunCache::key("smoke", &cfg);
    let key_b = RunCache::key("smoke", &cfg.clone());
    if key_a != key_b {
        failures.push(format!("run-cache key unstable: {key_a} vs {key_b}"));
    }
    let mut reseeded = cfg;
    reseeded.seed ^= 1;
    if RunCache::key("smoke", &reseeded) == key_a {
        failures.push("run-cache key insensitive to the seed".to_owned());
    }
}

fn check_lanes(scheme: SchemeKind, failures: &mut Vec<String>) {
    let spec = LaneSpec::new(scheme);
    let expect_shareable = matches!(
        scheme,
        SchemeKind::Uniform | SchemeKind::UniformWithCleaning { .. } | SchemeKind::ParityOnly
    );
    if spec.shareable() != expect_shareable {
        failures.push(format!(
            "shareable() = {} but the scheme {} directives",
            spec.shareable(),
            if expect_shareable {
                "never emits"
            } else {
                "emits"
            }
        ));
        return;
    }
    let mut cfg = ExperimentConfig::fast_test(Benchmark::Gzip, scheme);
    cfg.warmup_cycles = 10_000;
    cfg.measure_cycles = 20_000;
    let serial = run_lane_serial(&cfg, &spec);
    let replay = run_lane_serial(&cfg, &spec);
    if render_stats(&serial.stats) != render_stats(&replay.stats) {
        failures.push("serial lane run is not reproducible".to_owned());
    }
    if spec.shareable() {
        failures.extend(shared_lane_failures(&cfg, scheme, build_scheme));
    } else {
        // Directive emitters must be routed to solo execution by the
        // batch planner, never into a shared trajectory.
        let (groups, solos) = partition_lanes(std::slice::from_ref(&spec));
        if !(groups.is_empty() && solos == vec![0]) {
            failures.push(format!(
                "planner put a directive-emitting lane into a shared group: {groups:?}/{solos:?}"
            ));
        }
    }
}

/// The lane engine's sharing contract for `scheme`, with every scheme
/// instance built by `build`: a batch of one plain and one scrubbed lane
/// of that kind (which share one shadow instance) must match each lane's
/// serial run on stats and registry. Returns one failure per diverging
/// lane.
fn shared_lane_failures(
    cfg: &ExperimentConfig,
    scheme: SchemeKind,
    build: SchemeBuilder,
) -> Vec<String> {
    let specs = [LaneSpec::new(scheme), LaneSpec::with_scrub(scheme, 256)];
    let batch = run_lanes_with(cfg, &specs, build);
    let mut failures = Vec::new();
    for (spec, lane) in specs.iter().zip(&batch) {
        let serial = run_lane_serial_with(cfg, spec, build);
        let batch_stats = render_stats(&lane.stats);
        let serial_stats = render_stats(&serial.stats);
        if batch_stats != serial_stats {
            failures.push(format!(
                "lane '{}' diverges from serial:\n--- batch\n{batch_stats}\n--- serial\n{serial_stats}",
                spec.label()
            ));
        }
        if lane.registry.clone().into_entries() != serial.registry.into_entries() {
            failures.push(format!(
                "lane '{}' registry diverges from serial",
                spec.label()
            ));
        }
    }
    failures
}

fn check_fork(scheme: SchemeKind, failures: &mut Vec<String>) {
    use aep_cpu::CoreConfig;
    use aep_mem::HierarchyConfig;
    use aep_obs::Registry;
    use aep_sim::System;

    let hier = HierarchyConfig::date2006();
    let stream = Benchmark::Gzip.generator(2006);
    let mut sys = System::new(CoreConfig::date2006(), hier, scheme, stream);
    let now = sys.run(0, 20_000);
    let mut twin = sys.fork();
    let end_a = sys.run(now, 20_000);
    let end_b = twin.run(now, 20_000);
    if end_a != end_b {
        failures.push(format!("fork diverged in time: {end_a} vs {end_b}"));
    }
    let mut reg_a = Registry::new();
    sys.register_stats(&mut reg_a);
    let mut reg_b = Registry::new();
    twin.register_stats(&mut reg_b);
    if reg_a.into_entries() != reg_b.into_entries() {
        failures.push("fork replay diverged from the original machine".to_owned());
    }
}

/// The strike-model ladder every scheme's campaign must be
/// worker-count-deterministic on: independent singles, a 2-bit burst in
/// one word, and a 4-column spatial cluster on an interleave-4 array.
fn campaign_models() -> Vec<(StrikeModel, usize)> {
    vec![
        (StrikeModel::Single, 1),
        (StrikeModel::Burst { width: 2 }, 1),
        (StrikeModel::Col { span: 4 }, 4),
    ]
}

fn check_campaigns(scheme: SchemeKind, failures: &mut Vec<String>) {
    for (model, interleave) in campaign_models() {
        let mut cfg = CampaignConfig::fast_test(Benchmark::Gzip, scheme);
        cfg.trials = 20;
        cfg.trials_per_chunk = 5;
        cfg.model = model;
        cfg.interleave = interleave;
        let serial = run_campaign(&cfg, 1);
        let parallel = run_campaign(&cfg, 3);
        if serial != parallel {
            failures.push(format!(
                "campaign model {model:?} not jobs-deterministic: {serial:?} vs {parallel:?}"
            ));
        }
        if serial.struck_valid == 0 {
            failures.push(format!(
                "campaign model {model:?}: no strike landed on a valid frame"
            ));
        }
    }
}

/// Runs the full battery for one scheme.
#[must_use]
pub fn run_conformance(scheme: SchemeKind) -> ConformanceReport {
    let mut failures = Vec::new();
    let events_checked = check_protocol(scheme, &mut failures);
    check_slug_and_cache_key(scheme, &mut failures);
    check_lanes(scheme, &mut failures);
    check_fork(scheme, &mut failures);
    check_campaigns(scheme, &mut failures);
    ConformanceReport {
        scheme,
        failures,
        events_checked,
    }
}

/// Runs the battery for every registered scheme, fanned out over `jobs`
/// threads. Reports come back in registry order regardless of `jobs`.
#[must_use]
pub fn run_conformance_matrix(jobs: usize) -> Vec<ConformanceReport> {
    let schemes = challengers_faults_schemes();
    fan_out(schemes.len(), jobs, |i| run_conformance(schemes[i]))
}

/// Self-test: the battery's protocol stage, pointed at the deliberately
/// broken scheme double, must report at least one violation. Returns the
/// violation count (zero means the battery has gone vacuous).
#[must_use]
pub fn broken_scheme_is_caught() -> u64 {
    let genome = Genome {
        scheme: SchemeKind::Proposed {
            cleaning_interval: 1024 * 1024,
        },
        scrub_period: None,
        cycles: 6_000,
        segments: vec![Segment::ConflictStorm {
            set: 3,
            lines: 6,
            writes: 64,
        }],
    };
    run_genome(&genome, true).total_violations
}

/// Self-test of the lane stage: the sharing contract, checked with
/// [`MutatingVerifyScheme`] (whose clean verification writes state) in
/// place of the real `org` scheme, must fail. Returns the failure count
/// (zero means the lane stage has gone vacuous).
#[must_use]
pub fn mutating_verify_is_caught() -> usize {
    let mut cfg = ExperimentConfig::fast_test(Benchmark::Gzip, SchemeKind::Uniform);
    cfg.warmup_cycles = 10_000;
    cfg.measure_cycles = 20_000;
    shared_lane_failures(&cfg, SchemeKind::Uniform, MutatingVerifyScheme::build).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_scheme_conforms_on_the_storm_genome() {
        // The full matrix runs in this crate's `scheme_conformance`
        // integration test; here a single cheap stage pins the plumbing:
        // every registered scheme fuzzes clean.
        for scheme in challengers_faults_schemes() {
            let mut failures = Vec::new();
            let events = check_protocol(scheme, &mut failures);
            assert!(failures.is_empty(), "{}: {failures:?}", scheme.label());
            assert!(events > 0);
        }
    }

    #[test]
    fn broken_retiring_scheme_fails_the_suite() {
        assert!(
            broken_scheme_is_caught() > 0,
            "the battery no longer catches the known-broken scheme double"
        );
    }

    #[test]
    fn mutating_verify_fails_the_lane_stage() {
        assert!(
            mutating_verify_is_caught() > 0,
            "the lane stage no longer catches a scheme whose clean verify writes state"
        );
    }
}
