//! `figures`: a cold evaluation of the paper's figure configuration set
//! (`experiments::all_configs()`, 84 distinct runs) through `Lab`, the
//! wait a user of the reproduction sits through.
//!
//! Windows are a fixed fraction of quick scale so a run holds enough
//! passes for a steady median, while the per-cycle core/hierarchy loop
//! still does almost all of the work. Every config has its own
//! trajectory, so lanes rarely batch and scheme work is a small share.
//! The configs are the paper's (workload seed [`WORKLOAD_SEED`]); the
//! benchmark seed permutes the order they are submitted in. Every
//! config's `RunStats` digest is checked against `reference/figures.txt`.

use std::time::Instant;

use aep_bench::experiments::all_configs;
use aep_bench::Lab;
use aep_faultsim::fan_out;
use aep_rng::SmallRng;
use aep_sim::{ExperimentConfig, LaneJob, RunCache, Runner, Scale};

use crate::reference::Reference;
use crate::summary::Summary;
use crate::trace::{run_traced, run_window, Spans};
use crate::{host, scratch_dir, stats_digest, Layer, Pass, Tally};

/// Warm-up cycles per config (a twentieth of quick scale).
pub const WARMUP_CYCLES: u64 = 75_000;
/// Measured cycles per config (a twentieth of quick scale).
pub const MEASURE_CYCLES: u64 = 125_000;
/// The workload seed of every figure config (the paper scales' seed).
pub const WORKLOAD_SEED: u64 = 2006;
/// The shipped reference digests.
pub const REFERENCE: &str = include_str!("../reference/figures.txt");

fn key(cfg: &ExperimentConfig) -> String {
    RunCache::key(Scale::Quick.name(), cfg)
}

/// The figure set at benchmark windows, deduplicated, in `exp all`
/// plan order.
#[must_use]
pub fn plan() -> Vec<ExperimentConfig> {
    let mut seen = std::collections::HashSet::new();
    all_configs()
        .into_iter()
        .map(|(workload, scheme)| ExperimentConfig {
            warmup_cycles: WARMUP_CYCLES,
            measure_cycles: MEASURE_CYCLES,
            seed: WORKLOAD_SEED,
            ..Scale::Quick.config(workload, scheme)
        })
        .filter(|cfg| seen.insert(key(cfg)))
        .collect()
}

/// Renders the reference file from direct `Runner` runs.
#[must_use]
pub fn render_reference(jobs: usize) -> String {
    let mut out = String::from(
        "# RunStats digests (FNV-1a of the run-cache text) of the figure set at\n\
         # benchmark windows: <workload seed> <run-cache key> <digest>.\n",
    );
    let configs = plan();
    let digests = fan_out(configs.len(), jobs, |i| {
        stats_digest(&Runner::new(configs[i].clone()).run())
    });
    for (cfg, d) in configs.iter().zip(digests) {
        out.push_str(&Reference::line(WORKLOAD_SEED, &key(cfg), d));
    }
    out
}

/// The set-up state of the `figures` workload.
pub struct Figures {
    seed: u64,
    configs: Vec<ExperimentConfig>,
    expected: Vec<Option<u64>>,
    jobs: usize,
    warm_ms: Vec<f64>,
    busy_ratio: Vec<f64>,
}

impl Figures {
    /// Set-up against the shipped reference.
    ///
    /// # Panics
    ///
    /// Panics if the shipped reference does not parse.
    #[must_use]
    pub fn setup(seed: u64, tally: &mut Tally) -> Figures {
        let reference = Reference::parse(REFERENCE).expect("the shipped figures reference parses");
        Figures::with_reference(seed, &reference, tally)
    }

    /// Plans the figure set in the order `seed` permutes it to, looks up
    /// the expected digests in `reference`, and runs one untimed cold pass
    /// so the timed passes start warm.
    #[must_use]
    pub fn with_reference(seed: u64, reference: &Reference, tally: &mut Tally) -> Figures {
        let mut configs = plan();
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in (1..configs.len()).rev() {
            configs.swap(i, rng.gen_range(0..i + 1));
        }
        let expected = configs
            .iter()
            .map(|cfg| reference.get(WORKLOAD_SEED, &key(cfg)))
            .collect();
        let mut figures = Figures {
            seed,
            configs,
            expected,
            jobs: host::jobs(),
            warm_ms: Vec::new(),
            busy_ratio: Vec::new(),
        };
        let warm_up = figures.pass();
        tally.merge(warm_up.tally);
        figures.warm_ms.clear();
        figures.busy_ratio.clear();
        figures
    }

    /// Workload parameters, for provenance.
    #[must_use]
    pub fn params(&self) -> String {
        format!(
            "configs={} windows={}+{} workload_seed={} order_seed={} jobs={}",
            self.configs.len(),
            WARMUP_CYCLES,
            MEASURE_CYCLES,
            WORKLOAD_SEED,
            self.seed,
            self.jobs
        )
    }

    fn validate(&self, lab: &mut Lab, tally: &mut Tally) {
        for (cfg, expected) in self.configs.iter().zip(&self.expected) {
            let digest = stats_digest(&lab.stats_config(cfg));
            tally.check(*expected == Some(digest));
        }
    }

    /// One timed cold pass into a fresh disk cache, then an untimed warm
    /// pass in which a new `Lab` re-reads that cache. Both are validated.
    pub fn pass(&mut self) -> Pass {
        let configs = &self.configs;
        let dir = scratch_dir("figures");
        let _ = std::fs::remove_dir_all(&dir);
        let mut tally = Tally::default();

        let mut lab = Lab::new(Scale::Quick)
            .jobs(self.jobs)
            .with_disk_cache(RunCache::new(&dir));
        let cpu0 = host::cpu_seconds();
        let start = Instant::now();
        lab.prefetch_configs(configs);
        let wall_s = start.elapsed().as_secs_f64();
        let cpu = host::cpu_seconds() - cpu0;
        self.validate(&mut lab, &mut tally);

        let mut warm = Lab::new(Scale::Quick)
            .jobs(self.jobs)
            .with_disk_cache(RunCache::new(&dir));
        let start = Instant::now();
        warm.prefetch_configs(configs);
        let warm_ms = start.elapsed().as_secs_f64() * 1e3;
        tally.check(warm.totals().disk_hits == configs.len());
        self.validate(&mut warm, &mut tally);
        let _ = std::fs::remove_dir_all(&dir);

        let cycles = (WARMUP_CYCLES + MEASURE_CYCLES) * configs.len() as u64;
        self.warm_ms.push(warm_ms);
        self.busy_ratio.push(cpu / (wall_s * self.jobs as f64));
        Pass {
            wall_s,
            figures: vec![(
                "sim_mcycles_per_s",
                "Mcycles/s",
                cycles as f64 / 1e6 / wall_s,
            )],
            tally,
        }
    }

    /// The traced run: every config once more through decorated systems (validated against the same reference),
    /// the same loop undecorated for the trace overhead, and the `Lab`
    /// figures of the timed passes.
    pub fn layers(&mut self, tally: &mut Tally) -> Vec<Layer> {
        if self.warm_ms.is_empty() {
            let pass = self.pass();
            tally.merge(pass.tally);
        }
        let configs = &self.configs;
        let expected = &self.expected;
        let n = configs.len();
        let start = Instant::now();
        let plain = fan_out(n, self.jobs, |i| {
            let mut sys = Runner::new(configs[i].clone()).into_system();
            stats_digest(&run_window(&mut sys, &configs[i], None))
        });
        let untraced_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let traced = fan_out(n, self.jobs, |i| {
            let (stats, spans) = run_traced(&configs[i]);
            (stats_digest(&stats), spans)
        });
        let traced_s = start.elapsed().as_secs_f64();

        let mut spans = Spans::default();
        for (i, (digest, s)) in traced.iter().enumerate() {
            tally.check(expected[i] == Some(*digest) && plain[i] == *digest);
            spans.merge(s);
        }
        let refs: Vec<&ExperimentConfig> = configs.iter().collect();
        let batched: usize = aep_sim::plan_lane_jobs(&refs)
            .iter()
            .map(|job| match job {
                LaneJob::Batch { indices, .. } => indices.len(),
                LaneJob::Solo(_) => 0,
            })
            .sum();

        let cycles = spans.cycles as f64;
        let stepped = spans.stepped as f64;
        let cpu_mem_ns = spans
            .loop_ns
            .saturating_sub(spans.stream_ns + spans.on_event_ns + spans.verify_ns);
        let median = |v: &[f64]| Summary::of(v).median;
        vec![
            Layer::new(
                "workloads.next_op_ns",
                "ns",
                spans.stream_ns as f64 / spans.stream_calls as f64,
            ),
            Layer::new(
                "workloads.ops_per_kcycle",
                "count",
                spans.stream_calls as f64 / cycles * 1e3,
            ),
            Layer::new("sim.step_ns_per_cycle", "ns", spans.loop_ns as f64 / cycles),
            Layer::new("sim.stepped_ratio", "ratio", stepped / cycles),
            Layer::new(
                "sim.cpu_mem_ns_per_stepped_cycle",
                "ns",
                cpu_mem_ns as f64 / stepped,
            ),
            Layer::new(
                "sim.l2_events_per_kcycle",
                "count",
                spans.events as f64 / cycles * 1e3,
            ),
            Layer::new(
                "core.on_event_ns",
                "ns",
                spans.on_event_ns as f64 / spans.on_event_calls as f64,
            ),
            Layer::new("core.on_event_calls", "count", spans.on_event_calls as f64),
            Layer::new("core.directives", "count", spans.directives as f64),
            Layer::new("bench.lab.warm_ms", "ms", median(&self.warm_ms)),
            Layer::new(
                "bench.lab.worker_busy_ratio",
                "ratio",
                median(&self.busy_ratio),
            ),
            Layer::new(
                "bench.lab.lane_batched_ratio",
                "ratio",
                batched as f64 / n as f64,
            ),
            Layer::new("trace_overhead_ratio", "ratio", traced_s / untraced_s),
        ]
    }
}
