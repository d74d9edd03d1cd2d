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
//! 6. **Scratch copy** — a scheme refreshed in place by
//!    `clone_into_box` over a copy that saw other events verifies every
//!    struck line and registers its stats exactly like a fresh
//!    `clone_box`, the contract the fault campaign's reused scratch
//!    scheme rests on.
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
use aep_core::{parse_scheme_slug, scheme_slug, RecoveryOutcome, SchemeKind};
use aep_faultsim::{
    fan_out, plan_groups, run_campaign_report, CampaignConfig, StrikeModel, MIN_SHARED_LANES,
};
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

/// Runs each strike model's campaign at one job and at three, and
/// compares the two chunk by chunk. One trial per chunk, and enough
/// chunks that the parallel run really splits the campaign into groups
/// (two for a shared-trajectory campaign, three for a per-chunk one).
fn check_campaigns(scheme: SchemeKind, failures: &mut Vec<String>) {
    for (model, interleave) in campaign_models() {
        let mut cfg = CampaignConfig::fast_test(Benchmark::Gzip, scheme);
        cfg.trials = 2 * MIN_SHARED_LANES as u32;
        cfg.trials_per_chunk = 1;
        cfg.model = model;
        cfg.interleave = interleave;
        let groups = plan_groups(std::slice::from_ref(&cfg), 3);
        if groups[0] < 2 {
            failures.push(format!(
                "campaign model {model:?}: 3 jobs plan {groups:?} groups, so nothing is split"
            ));
        }
        let serial = run_campaign_report(&cfg, 1);
        let parallel = run_campaign_report(&cfg, 3);
        let differs = (0..serial.chunks.len().max(parallel.chunks.len()))
            .find(|&i| serial.chunks.get(i) != parallel.chunks.get(i));
        if let Some(chunk) = differs {
            failures.push(format!(
                "campaign model {model:?} not jobs-deterministic: chunk {chunk} is {:?} vs {:?}",
                serial.chunks.get(chunk),
                parallel.chunks.get(chunk)
            ));
        }
        if serial.total.struck_valid == 0 {
            failures.push(format!(
                "campaign model {model:?}: no strike landed on a valid frame"
            ));
        }
    }
}

/// Stage 6: refreshes a scratch copy that diverged on another machine
/// (another workload, on a larger L2) from the scheme under test, twice
/// with simulated cycles in between, and checks it against a fresh
/// clone each time.
fn check_scratch_copy(scheme: SchemeKind, failures: &mut Vec<String>) {
    use aep_cpu::CoreConfig;
    use aep_mem::HierarchyConfig;
    use aep_sim::System;

    let machine = |hier, bench: Benchmark, seed| {
        System::new(CoreConfig::date2006(), hier, scheme, bench.generator(seed))
    };
    let mut other = machine(HierarchyConfig::date2006(), Benchmark::Mcf, 7);
    other.run(0, 30_000);
    let mut scratch = other.scheme.clone_box();
    let mut sys = machine(HierarchyConfig::tiny(), Benchmark::Gzip, 2006);
    let mut now = 0;
    for round in 0..2 {
        now = sys.run(now, 20_000);
        sys.scheme.clone_into_box(&mut scratch);
        let mut fresh = sys.fork();
        let mut reused = sys.fork();
        std::mem::swap(&mut reused.scheme, &mut scratch);
        if let Some(diff) = verification_divergence(&mut fresh, &mut reused) {
            failures.push(format!(
                "round {round}: the in-place scheme copy {diff} unlike clone_box"
            ));
        }
        std::mem::swap(&mut reused.scheme, &mut scratch);
    }
}

/// Strikes one bit of every valid line of two equal machines and runs
/// both schemes' write-back and access checks on it, then compares the
/// schemes' stats. Names the first difference.
fn verification_divergence<S: aep_cpu::InstrStream>(
    a: &mut aep_sim::System<S>,
    b: &mut aep_sim::System<S>,
) -> Option<String> {
    use aep_obs::Registry;

    let stats = |sys: &aep_sim::System<S>| {
        let mut reg = Registry::new();
        sys.scheme.register_stats(&mut reg);
        reg.into_entries()
    };
    if stats(a) != stats(b) {
        return Some("registers different stats".to_owned());
    }
    let (sets, ways) = (a.hier.l2().sets(), a.hier.l2().ways());
    for set in 0..sets {
        for way in 0..ways {
            if !a.hier.l2().line_view(set, way).valid {
                continue;
            }
            let frame = set * ways + way;
            let [va, vb] = [&mut *a, &mut *b].map(|sys| strike_and_verify(sys, frame, set, way));
            if va != vb {
                return Some(format!(
                    "verifies line ({set}, {way}) as {vb:?}, not {va:?}"
                ));
            }
        }
    }
    (stats(a) != stats(b)).then(|| "registers different stats after verifying".to_owned())
}

/// Flips one bit of line (`set`, `way`), then runs the scheme's
/// write-back check on a copy of the line and its access check on the
/// line itself: both outcomes and both repaired images.
fn strike_and_verify<S: aep_cpu::InstrStream>(
    sys: &mut aep_sim::System<S>,
    frame: usize,
    set: usize,
    way: usize,
) -> (RecoveryOutcome, Vec<u64>, RecoveryOutcome, Vec<u64>) {
    let line = |sys: &aep_sim::System<S>| {
        sys.hier
            .l2()
            .line_data(set, way)
            .expect("the campaign L2 stores data")
            .to_vec()
    };
    let words = line(sys).len();
    sys.hier
        .l2_mut()
        .strike(set, way, frame % words, (frame % 64) as u8);
    let mut image = line(sys);
    let writeback = sys.scheme.verify_writeback(set, way, &mut image);
    let (l2, memory) = sys.hier.l2_and_memory_mut();
    let access = sys.scheme.verify_line(l2, set, way, memory);
    (writeback, image, access, line(sys))
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
    check_scratch_copy(scheme, &mut failures);
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
