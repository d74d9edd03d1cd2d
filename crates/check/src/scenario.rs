//! Fuzzable workload genomes and the harness that runs one under the
//! full differential checker.
//!
//! A [`Genome`] is a compact, deterministic description of an
//! adversarial scenario: which scheme to attach, whether to scrub, how
//! long to run, and a sequence of access-pattern [`Segment`]s chosen to
//! stress the paper's mechanisms — set-conflict storms (ECC-entry
//! displacement), write-once streams (cleaning candidates), write-hot
//! lines (written-bit generations), and read sweeps (LRU churn).
//! Genomes materialize into a [`LoopStream`] over the *tiny* hierarchy
//! (16-set, 4-way L2), so a few thousand cycles reach every corner the
//! full-size cache would need millions for.

use std::cell::RefCell;
use std::rc::Rc;

use aep_core::{scheme_slug, SchemeKind};
use aep_cpu::isa::LoopStream;
use aep_cpu::{CoreConfig, MicroOp, NO_REG};
use aep_mem::{Addr, HierarchyConfig};
use aep_obs::json::escape;
use aep_sim::System;

use crate::broken::BrokenRetiringScheme;
use crate::checker::{CheckState, LockstepChecker, Violation};
use crate::coverage::Coverage;

/// Cache-sweep cadence (cycles) used by scenario runs: frequent enough
/// to pin divergences near their cause on the tiny hierarchy.
const SCENARIO_CADENCE: u64 = 512;

/// One access-pattern phase of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    /// `writes` stores round-robin over `lines` distinct lines mapping to
    /// the same L2 `set` — forces replacement and (under the proposed
    /// schemes) ECC-entry displacement.
    ConflictStorm {
        /// Target set index.
        set: usize,
        /// Distinct conflicting lines (> associativity ⇒ evictions).
        lines: usize,
        /// Total stores issued.
        writes: usize,
    },
    /// One store to each of `count` consecutive lines from `start` —
    /// write-once data the cleaning FSM should write back.
    WriteOnce {
        /// First line number.
        start: u64,
        /// Lines touched.
        count: usize,
    },
    /// `writes` stores to one `line`, cycling through its words — sets
    /// the written bit and keeps refreshing it across generations.
    WriteHot {
        /// Line number.
        line: u64,
        /// Stores issued.
        writes: usize,
    },
    /// Loads over `count` consecutive lines from `start` — clean fills
    /// and LRU pressure.
    ReadSweep {
        /// First line number.
        start: u64,
        /// Lines touched.
        count: usize,
    },
}

impl Segment {
    /// Appends this segment's micro-ops to `ops`. `sets` and
    /// `line_bytes` describe the target L2 geometry.
    fn emit(self, ops: &mut Vec<MicroOp>, sets: u64, line_bytes: u64) {
        let words = line_bytes / 8;
        let mut pc = (ops.len() as u64 + 1) * 4;
        let mut push = |op: MicroOp| {
            ops.push(op);
        };
        match self {
            Segment::ConflictStorm { set, lines, writes } => {
                let lines = lines.max(1) as u64;
                for w in 0..writes as u64 {
                    let line = set as u64 + (w % lines) * sets;
                    let addr = Addr(line * line_bytes + (w % words) * 8);
                    push(MicroOp::store(pc, addr, 1));
                    pc += 4;
                }
            }
            Segment::WriteOnce { start, count } => {
                for i in 0..count as u64 {
                    let addr = Addr((start + i) * line_bytes);
                    push(MicroOp::store(pc, addr, 1));
                    pc += 4;
                }
            }
            Segment::WriteHot { line, writes } => {
                for w in 0..writes as u64 {
                    let addr = Addr(line * line_bytes + (w % words) * 8);
                    push(MicroOp::store(pc, addr, 1));
                    pc += 4;
                }
            }
            Segment::ReadSweep { start, count } => {
                for i in 0..count as u64 {
                    let addr = Addr((start + i) * line_bytes);
                    push(MicroOp::load(pc, addr, 2));
                    pc += 4;
                }
            }
        }
    }

    /// Compact JSON array form, e.g. `["storm",3,6,40]`.
    #[must_use]
    pub fn to_json(self) -> String {
        match self {
            Segment::ConflictStorm { set, lines, writes } => {
                format!("[\"storm\",{set},{lines},{writes}]")
            }
            Segment::WriteOnce { start, count } => format!("[\"write_once\",{start},{count}]"),
            Segment::WriteHot { line, writes } => format!("[\"write_hot\",{line},{writes}]"),
            Segment::ReadSweep { start, count } => format!("[\"read_sweep\",{start},{count}]"),
        }
    }
}

/// A complete fuzzable scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Genome {
    /// Protection scheme to attach.
    pub scheme: SchemeKind,
    /// Background scrubbing period in cycles, if any.
    pub scrub_period: Option<u64>,
    /// Cycles to simulate.
    pub cycles: u64,
    /// Access-pattern phases, looped by the instruction stream.
    pub segments: Vec<Segment>,
}

impl Genome {
    /// The micro-op loop this genome describes on geometry (`sets`,
    /// `line_bytes`). Never empty: an idle genome still executes ALU ops.
    #[must_use]
    pub fn materialize(&self, sets: u64, line_bytes: u64) -> Vec<MicroOp> {
        let mut ops = Vec::new();
        for seg in &self.segments {
            seg.emit(&mut ops, sets, line_bytes);
        }
        if ops.is_empty() {
            ops.push(MicroOp::alu(4, NO_REG, NO_REG, 1));
        }
        ops
    }

    /// JSON form used by reproducer files.
    #[must_use]
    pub fn to_json(&self) -> String {
        let segs: Vec<String> = self.segments.iter().map(|s| s.to_json()).collect();
        let scrub = match self.scrub_period {
            Some(p) => p.to_string(),
            None => "null".to_owned(),
        };
        format!(
            "{{\"scheme\":{},\"scrub_period\":{scrub},\"cycles\":{},\"segments\":[{}]}}",
            escape(&scheme_slug(self.scheme)),
            self.cycles,
            segs.join(",")
        )
    }

    /// Total micro-ops across all segments (the shrinker minimizes this).
    #[must_use]
    pub fn weight(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| match *s {
                Segment::ConflictStorm { writes, .. } | Segment::WriteHot { writes, .. } => {
                    writes as u64
                }
                Segment::WriteOnce { count, .. } | Segment::ReadSweep { count, .. } => count as u64,
            })
            .sum()
    }
}

/// Result of running one genome under the checker.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// First few violations, in detection order (empty ⇒ clean run).
    pub violations: Vec<Violation>,
    /// Total violations detected.
    pub total_violations: u64,
    /// Features this run exercised.
    pub coverage: Coverage,
    /// L2 events validated.
    pub events_checked: u64,
}

impl ScenarioOutcome {
    /// Whether the run diverged from the golden model / invariants.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.total_violations > 0
    }
}

/// One cell of the workload coverage matrix: a scheme/scrub/horizon
/// combination an arbitrary instruction stream is run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamProbe {
    /// Protection scheme to attach.
    pub scheme: SchemeKind,
    /// Background scrubbing period in cycles, if any.
    pub scrub_period: Option<u64>,
    /// Cycles to simulate.
    pub cycles: u64,
}

/// The canonical probe matrix for the workload coverage-reach report:
/// every workload runs under the same probes, so any coverage
/// difference is attributable to the workload alone. The set spans the
/// scheme families whose behaviour bits differ (proposed single/multi
/// entry, uniform cleaning, plain uniform) with tiny-hierarchy-scaled
/// intervals and one scrubbed cell.
#[must_use]
pub fn probe_matrix() -> Vec<StreamProbe> {
    vec![
        StreamProbe {
            scheme: SchemeKind::Proposed {
                cleaning_interval: 1024,
            },
            scrub_period: None,
            cycles: 24_576,
        },
        StreamProbe {
            scheme: SchemeKind::ProposedMulti {
                cleaning_interval: 1024,
                entries_per_set: 2,
            },
            scrub_period: Some(64),
            cycles: 24_576,
        },
        StreamProbe {
            scheme: SchemeKind::UniformWithCleaning {
                cleaning_interval: 256,
            },
            scrub_period: None,
            cycles: 16_384,
        },
        StreamProbe {
            scheme: SchemeKind::Uniform,
            scrub_period: None,
            cycles: 16_384,
        },
    ]
}

/// Runs an arbitrary instruction stream on the tiny hierarchy under the
/// full differential checker — the workload-agnostic sibling of
/// [`run_genome`]. The checker is the same, so the coverage-reach
/// report doubles as a differential test of every generator it runs.
#[must_use]
pub fn run_stream<S: aep_cpu::isa::InstrStream + 'static>(
    stream: S,
    probe: &StreamProbe,
) -> ScenarioOutcome {
    let hier_cfg = HierarchyConfig::tiny();
    let mut sys = System::new(
        CoreConfig::date2006(),
        hier_cfg.clone(),
        probe.scheme,
        stream,
    );
    if let Some(period) = probe.scrub_period {
        sys.enable_scrubbing(period);
    }
    run_checked(sys, &hier_cfg, probe.cycles)
}

/// Steps `sys` for `cycles` cycles under the lockstep checker and
/// reports its verdict, with the post-run coverage bits: the scheme's,
/// a deferred cleaning probe, an active scrubber.
fn run_checked<S: aep_cpu::isa::InstrStream>(
    mut sys: System<S>,
    hier_cfg: &HierarchyConfig,
    cycles: u64,
) -> ScenarioOutcome {
    let state: Rc<RefCell<CheckState>> = Rc::new(RefCell::new(CheckState::default()));
    let checker = LockstepChecker::new(hier_cfg, Rc::clone(&state), SCENARIO_CADENCE);
    sys.add_observer(Box::new(checker));
    for now in 0..cycles {
        sys.step(now);
    }
    let mut st = state.borrow_mut();
    st.coverage.set(scheme_coverage_bit(sys.kind()));
    if sys.cleaning.stats().deferred > 0 {
        st.coverage.set(Coverage::PROBE_DEFERRED);
    }
    if sys.scrub_stats().is_some_and(|s| s.scrubbed > 0) {
        st.coverage.set(Coverage::SCRUB_ACTIVE);
    }
    ScenarioOutcome {
        violations: std::mem::take(&mut st.violations),
        total_violations: st.total_violations,
        coverage: st.coverage,
        events_checked: st.events_checked,
    }
}

fn scheme_coverage_bit(kind: SchemeKind) -> u32 {
    match kind {
        SchemeKind::Uniform => Coverage::SCHEME_UNIFORM,
        SchemeKind::UniformWithCleaning { .. } => Coverage::SCHEME_UNIFORM_CLEAN,
        SchemeKind::ParityOnly => Coverage::SCHEME_PARITY,
        SchemeKind::Proposed { .. } => Coverage::SCHEME_PROPOSED,
        SchemeKind::ProposedMulti { .. } => Coverage::SCHEME_PROPOSED_MULTI,
        // The challengers keep the proposed ECC-array discipline, so a
        // run under either exercises the same checker surface.
        SchemeKind::SilentWriteEcc { .. } | SchemeKind::ReuseCopyback { .. } => {
            Coverage::SCHEME_PROPOSED
        }
    }
}

/// Runs `genome` on the tiny hierarchy under the full differential
/// checker. With `inject_broken`, the proposed scheme is replaced by the
/// [`BrokenRetiringScheme`] double — a correct simulation whose coverage
/// bookkeeping reproduces the pre-PR 2 bug, which the checker must flag.
#[must_use]
pub fn run_genome(genome: &Genome, inject_broken: bool) -> ScenarioOutcome {
    let hier_cfg = HierarchyConfig::tiny();
    let sets = hier_cfg.l2.sets();
    let line_bytes = hier_cfg.l2.line_bytes;
    let stream = LoopStream::new(genome.materialize(sets, line_bytes));
    let mut sys = System::new(
        CoreConfig::date2006(),
        hier_cfg.clone(),
        genome.scheme,
        stream,
    );
    if inject_broken && matches!(genome.scheme, SchemeKind::Proposed { .. }) {
        sys.scheme = Box::new(BrokenRetiringScheme::new(&hier_cfg.l2));
    }
    if let Some(period) = genome.scrub_period {
        sys.enable_scrubbing(period);
    }
    run_checked(sys, &hier_cfg, genome.cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storm_genome() -> Genome {
        Genome {
            scheme: SchemeKind::Proposed {
                cleaning_interval: 1024,
            },
            scrub_period: None,
            cycles: 4096,
            segments: vec![
                Segment::ConflictStorm {
                    set: 3,
                    lines: 6,
                    writes: 48,
                },
                Segment::WriteHot { line: 3, writes: 8 },
            ],
        }
    }

    #[test]
    fn clean_scheme_has_no_violations() {
        let out = run_genome(&storm_genome(), false);
        assert!(
            !out.failed(),
            "correct scheme diverged: {:?}",
            out.violations
        );
        assert!(out.events_checked > 0);
        assert!(out.coverage.0 & Coverage::SCHEME_PROPOSED != 0);
    }

    #[test]
    fn broken_double_is_caught() {
        let out = run_genome(&storm_genome(), true);
        assert!(
            out.failed(),
            "the broken retiring double must trip the checker"
        );
        assert!(
            out.violations
                .iter()
                .any(|v| v.message.contains("no live or retiring")),
            "violation should name the lost-protection window: {:?}",
            out.violations
        );
    }

    #[test]
    fn genome_json_is_stable() {
        let g = storm_genome();
        assert_eq!(
            g.to_json(),
            "{\"scheme\":\"proposed:1024\",\"scrub_period\":null,\"cycles\":4096,\
             \"segments\":[[\"storm\",3,6,48],[\"write_hot\",3,8]]}"
        );
    }
}
