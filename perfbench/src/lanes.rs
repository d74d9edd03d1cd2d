//! `lanes`: the 8-lane shadow batch (`engine_bench::bench_lanes()`,
//! {org, parity} × {none, scrub 1K/4K/16K}) on `gap`, beside one serial
//! run of the same trajectory.
//!
//! One trajectory feeds 8 shadow schemes and 6 scrubbers, so scheme
//! `on_event` and scrub verification dominate: a scheme-side optimisation
//! shows here and is diluted in `figures`. A pass runs the batch on each
//! of [`TRAJECTORIES`] fixed trajectories, spread over the workers as the
//! other workloads spread their work. The trajectories are fixed because
//! one batch costs up to a sixth more on one trajectory seed than on
//! another; the benchmark seed orders the lanes of the batch instead.
//! Every lane is checked for bit identity with `run_lane_serial`,
//! computed in set-up.

use std::time::Instant;

use aep_bench::engine_bench::bench_lanes;
use aep_bench::runcache::scheme_slug;
use aep_faultsim::fan_out;
use aep_obs::StatsSnapshot;
use aep_rng::SmallRng;
use aep_sim::runcache::fnv1a;
use aep_sim::{run_lane_serial, run_lanes, ExperimentConfig, LaneResult, LaneSpec, Scale};
use aep_workloads::Benchmark;

use crate::trace::run_traced;
use crate::{host, stats_digest, sub_seed, Layer, Pass, Tally};

/// Warm-up cycles of the shared trajectory.
pub const WARMUP_CYCLES: u64 = 400_000;
/// Measured cycles of the shared trajectory.
pub const MEASURE_CYCLES: u64 = 600_000;
/// Trajectories a pass runs the batch on.
pub const TRAJECTORIES: u64 = 4;

/// Digest of one lane's statistics and full registry snapshot.
fn lane_digest(result: &LaneResult) -> (u64, u64) {
    let snapshot = StatsSnapshot::from_registry(result.registry.clone(), &[]).to_json();
    (stats_digest(&result.stats), fnv1a(snapshot.as_bytes()))
}

/// The set-up state of the `lanes` workload.
pub struct Lanes {
    cfgs: Vec<ExperimentConfig>,
    specs: Vec<LaneSpec>,
    expected: Vec<Vec<(u64, u64)>>,
    jobs: usize,
    serial_s: Vec<f64>,
}

impl Lanes {
    /// Orders the lanes for `seed`, builds the batch config of every
    /// trajectory, computes every lane's serial reference, and runs one
    /// untimed pass.
    #[must_use]
    pub fn setup(seed: u64, tally: &mut Tally) -> Lanes {
        // The first lane sets the batch's base scheme, so it stays first.
        let mut specs = bench_lanes();
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in (2..specs.len()).rev() {
            specs.swap(i, 1 + rng.gen_range(0..i));
        }
        let jobs = host::jobs();
        let cfgs: Vec<ExperimentConfig> = (0..TRAJECTORIES)
            .map(|k| ExperimentConfig {
                warmup_cycles: WARMUP_CYCLES,
                measure_cycles: MEASURE_CYCLES,
                seed: sub_seed(k, 0x1a7e5),
                ..Scale::Quick.config(Benchmark::Gap, specs[0].scheme)
            })
            .collect();
        let serial = fan_out(cfgs.len() * specs.len(), jobs, |i| {
            lane_digest(&run_lane_serial(
                &cfgs[i / specs.len()],
                &specs[i % specs.len()],
            ))
        });
        let expected = serial.chunks(specs.len()).map(<[_]>::to_vec).collect();
        let mut lanes = Lanes {
            cfgs,
            specs,
            expected,
            jobs,
            serial_s: Vec::new(),
        };
        let warm_up = lanes.pass();
        tally.merge(warm_up.tally);
        lanes.serial_s.clear();
        lanes
    }

    /// Workload parameters, for provenance.
    #[must_use]
    pub fn params(&self) -> String {
        let seeds: Vec<String> = self.cfgs.iter().map(|c| c.seed.to_string()).collect();
        let order: Vec<String> = self
            .specs
            .iter()
            .map(|s| match s.scrub_period {
                Some(p) => format!("{}+scrub{p}", scheme_slug(s.scheme)),
                None => scheme_slug(s.scheme),
            })
            .collect();
        format!(
            "bench=gap lanes={} lane_order={} windows={}+{} trajectory_seeds={} jobs={}",
            self.specs.len(),
            order.join(","),
            WARMUP_CYCLES,
            MEASURE_CYCLES,
            seeds.join(","),
            self.jobs
        )
    }

    fn cycles(&self) -> f64 {
        (WARMUP_CYCLES + MEASURE_CYCLES) as f64
    }

    fn check_batch(&self, tally: &mut Tally, results: &[LaneResult], expected: &[(u64, u64)]) {
        tally.check(results.len() == self.specs.len());
        for (result, expected) in results.iter().zip(expected) {
            tally.check(lane_digest(result) == *expected);
        }
    }

    /// One timed pass of every batch, then one timed serial run of the
    /// first lane; all validated.
    pub fn pass(&mut self) -> Pass {
        let mut tally = Tally::default();
        let start = Instant::now();
        let batches = fan_out(self.cfgs.len(), self.jobs, |t| {
            run_lanes(&self.cfgs[t], &self.specs)
        });
        let wall_s = start.elapsed().as_secs_f64();
        for (results, expected) in batches.iter().zip(&self.expected) {
            self.check_batch(&mut tally, results, expected);
        }

        let start = Instant::now();
        let serial = run_lane_serial(&self.cfgs[0], &self.specs[0]);
        self.serial_s.push(start.elapsed().as_secs_f64());
        tally.check(lane_digest(&serial) == self.expected[0][0]);

        let lane_cycles = self.cycles() * (self.specs.len() * self.cfgs.len()) as f64;
        Pass {
            wall_s,
            figures: vec![("sim_mcycles_per_s", "Mcycles/s", lane_cycles / 1e6 / wall_s)],
            tally,
        }
    }

    /// The traced run: a one-lane batch against the full batch on one
    /// thread for the per-lane shadow cost, the batch speed-up over serial
    /// runs, and the scrub-verify path of a decorated serial scrub lane.
    pub fn layers(&mut self, tally: &mut Tally) -> Vec<Layer> {
        if self.serial_s.is_empty() {
            let pass = self.pass();
            tally.merge(pass.tally);
        }
        let cfg = &self.cfgs[0];
        let start = Instant::now();
        let one = run_lanes(cfg, &self.specs[..1]);
        let t1 = start.elapsed().as_secs_f64();
        tally.check(lane_digest(&one[0]) == self.expected[0][0]);
        let start = Instant::now();
        let all = run_lanes(cfg, &self.specs);
        let t8 = start.elapsed().as_secs_f64();
        self.check_batch(tally, &all, &self.expected[0]);

        // The first scrubbed lane, run as its own decorated system.
        let scrub_lane = self
            .specs
            .iter()
            .position(|s| s.scrub_period.is_some())
            .expect("the lane set scrubs");
        let spec = &self.specs[scrub_lane];
        let scrub_cfg = ExperimentConfig {
            scheme: spec.scheme,
            scrub_period: spec.scrub_period,
            ..cfg.clone()
        };
        let (stats, spans) = run_traced(&scrub_cfg);
        tally.check(stats_digest(&stats) == self.expected[0][scrub_lane].0);

        let median = |v: &[f64]| crate::summary::Summary::of(v).median;
        let extra_lanes = (self.specs.len() - 1) as f64;
        vec![
            Layer::new(
                "sim.lanes.shadow_ns_per_lane_cycle",
                "ns",
                (t8 - t1) / extra_lanes / self.cycles() * 1e9,
            ),
            Layer::new(
                "sim.lanes.speedup_vs_serial",
                "ratio",
                median(&self.serial_s) * self.specs.len() as f64 / t8,
            ),
            Layer::new(
                "core.verify_ns",
                "ns",
                spans.verify_ns as f64 / spans.verify_calls as f64,
            ),
            Layer::new("core.verify_calls", "count", spans.verify_calls as f64),
        ]
    }
}
