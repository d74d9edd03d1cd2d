//! `faults`: the strike-model ladder (`single`, `burst:2`, `col:4`,
//! `row:8`, `accum:scrub`) on `proposed@1M` / `gap` through
//! `run_campaign_report`, each campaign built as `exp faults --scale smoke`
//! builds it (`campaign_config` with the CLI's default trial count), so
//! strikes land on a small, densely valid L2 and the timed work is strike
//! verification and outcome classification, not empty-frame trials.
//!
//! This is the only workload that exercises `System::fork`, strike
//! probes, the SECDED/parity verify paths and outcome classification;
//! lanes forbid all of them. A pass runs the ladder under every campaign
//! seed in [`SEEDS`], in an order the benchmark seed rotates, so every
//! pass does the same work: one ladder costs up to a quarter more under
//! one campaign seed than under another. Every `OutcomeTable` digest
//! (which does not depend on the number of jobs) is checked against
//! `reference/faults.txt`.

use std::hint::black_box;
use std::time::Instant;

use aep_bench::experiments::{proposed, Scale};
use aep_bench::faults::campaign_config;
use aep_bench::faults_bench::bench_models;
use aep_bench::FaultsOptions;
use aep_ecc::Secded64;
use aep_faultsim::{run_campaign_report, CampaignConfig, OutcomeTable, StrikeModel};
use aep_rng::SmallRng;
use aep_sim::runcache::fnv1a;
use aep_sim::System;

use crate::reference::Reference;
use crate::summary::Summary;
use crate::{host, Layer, Pass, Tally};

/// Campaign seeds every pass runs.
pub const SEEDS: [u64; 4] = [2006, 2007, 2008, 2009];
/// The shipped reference digests.
pub const REFERENCE: &str = include_str!("../reference/faults.txt");

/// The campaign for `model` under campaign seed `seed`: what
/// `exp faults --scale smoke --model <model> --seed <seed>` runs for
/// `proposed@1M`.
#[must_use]
pub fn campaign(model: StrikeModel, seed: u64) -> CampaignConfig {
    let opts = FaultsOptions {
        model,
        seed,
        ..FaultsOptions::default()
    };
    campaign_config(Scale::Smoke, &opts, proposed())
}

/// Digest of an outcome table: FNV-1a over its fields in declaration
/// order.
#[must_use]
pub fn table_digest(t: &OutcomeTable) -> u64 {
    let text = format!(
        "{} {} {} {} {} {} {}",
        t.masked, t.corrected, t.refetch_recovered, t.due, t.sdc, t.struck_valid, t.struck_dirty
    );
    fnv1a(text.as_bytes())
}

/// Renders the reference file for every seed in [`SEEDS`], with the share
/// of strikes that hit a valid line in a comment.
///
/// # Panics
///
/// Panics if a campaign strikes no valid line or two campaigns share a
/// digest: such a reference could not tell strike models apart.
#[must_use]
pub fn render_reference(jobs: usize) -> String {
    let mut lines = String::new();
    let mut digests = Vec::new();
    let (mut valid, mut trials) = (0u64, 0u64);
    for seed in SEEDS {
        for model in bench_models() {
            let table = run_campaign_report(&campaign(model, seed), jobs).total;
            assert!(
                table.struck_valid > 0,
                "{seed} {}: no valid line struck",
                model.slug()
            );
            let digest = table_digest(&table);
            assert!(
                !digests.contains(&digest),
                "{seed} {}: digest repeats",
                model.slug()
            );
            digests.push(digest);
            valid += table.struck_valid;
            trials += table.trials();
            lines.push_str(&Reference::line(seed, &model.slug(), digest));
        }
    }
    format!(
        "# OutcomeTable digests of the strike-model ladder on proposed@1M/gap\n\
         # (exp faults --scale smoke): <campaign seed> <model> <digest>.\n\
         # Strikes on valid lines: {valid} of {trials} trials.\n{lines}"
    )
}

/// The set-up state of the `faults` workload.
pub struct Faults {
    start: usize,
    models: Vec<StrikeModel>,
    expected: Vec<Vec<Option<u64>>>,
    jobs: usize,
    model_tps: Vec<Vec<f64>>,
}

impl Faults {
    /// Set-up against the shipped reference.
    ///
    /// # Panics
    ///
    /// Panics if the shipped reference does not parse.
    #[must_use]
    pub fn setup(seed: u64, tally: &mut Tally) -> Faults {
        let reference = Reference::parse(REFERENCE).expect("the shipped faults reference parses");
        Faults::with_reference(seed, &reference, tally)
    }

    /// Looks up the expected digests in `reference` and runs one untimed
    /// warm-up ladder, validated like every timed one.
    #[must_use]
    pub fn with_reference(seed: u64, reference: &Reference, tally: &mut Tally) -> Faults {
        let models = bench_models();
        let expected = SEEDS
            .iter()
            .map(|&s| models.iter().map(|m| reference.get(s, &m.slug())).collect())
            .collect();
        let mut faults = Faults {
            start: (seed % SEEDS.len() as u64) as usize,
            models,
            expected,
            jobs: host::jobs(),
            model_tps: Vec::new(),
        };
        let warm_up = faults.pass();
        tally.merge(warm_up.tally);
        faults.model_tps.clear();
        faults
    }

    /// Workload parameters, for provenance.
    #[must_use]
    pub fn params(&self) -> String {
        let models: Vec<String> = self.models.iter().map(StrikeModel::slug).collect();
        format!(
            "bench=gap scheme=proposed@1M scale=smoke models={} trials={} campaign_seeds={}..{} from {} jobs={}",
            models.join(","),
            campaign(self.models[0], SEEDS[0]).trials,
            SEEDS[0],
            SEEDS[SEEDS.len() - 1],
            SEEDS[self.start],
            self.jobs
        )
    }

    /// One timed pass: the ladder under every campaign seed, each
    /// campaign validated.
    pub fn pass(&mut self) -> Pass {
        let mut tally = Tally::default();
        let mut trials = 0u64;
        let start = Instant::now();
        for k in 0..SEEDS.len() {
            let variant = (self.start + k) % SEEDS.len();
            let mut tps = Vec::new();
            for (model, expected) in self.models.iter().zip(&self.expected[variant]) {
                let report = run_campaign_report(&campaign(*model, SEEDS[variant]), self.jobs);
                tally.check(
                    report.total.struck_valid > 0 && *expected == Some(table_digest(&report.total)),
                );
                trials += report.total.trials();
                tps.push(report.trials_per_sec());
            }
            self.model_tps.push(tps);
        }
        let wall_s = start.elapsed().as_secs_f64();
        Pass {
            wall_s,
            figures: vec![("trials_per_s", "trials/s", trials as f64 / wall_s)],
            tally,
        }
    }

    /// The traced run: per-model throughput of the timed passes, the
    /// warm-up and fork costs of one campaign prototype, and SECDED
    /// encode/decode over seeded words.
    pub fn layers(&mut self, tally: &mut Tally) -> Vec<Layer> {
        if self.model_tps.is_empty() {
            let pass = self.pass();
            tally.merge(pass.tally);
        }
        let median = |v: &[f64]| Summary::of(v).median;
        let mut out: Vec<Layer> = self
            .models
            .iter()
            .enumerate()
            .map(|(i, model)| {
                let samples: Vec<f64> = self.model_tps.iter().map(|p| p[i]).collect();
                Layer::new(
                    format!("faultsim.{}.trials_per_s", model.slug().replace(':', "_")),
                    "trials/s",
                    median(&samples),
                )
            })
            .collect();

        let seed = SEEDS[self.start];
        let cfg = campaign(self.models[0], seed);
        let start = Instant::now();
        let mut warm = System::new(
            cfg.core.clone(),
            cfg.hierarchy.clone(),
            cfg.scheme,
            cfg.benchmark.stream(cfg.seed),
        );
        warm.run(0, cfg.warmup_cycles);
        let warm_ms = start.elapsed().as_secs_f64() * 1e3;
        let forks: Vec<f64> = (0..9)
            .map(|_| {
                let start = Instant::now();
                let fork = black_box(warm.fork());
                let ms = start.elapsed().as_secs_f64() * 1e3;
                drop(fork);
                ms
            })
            .collect();
        out.push(Layer::new("faultsim.warm_ms", "ms", warm_ms));
        out.push(Layer::new("sim.fork_ms", "ms", median(&forks)));
        out.extend(secded_layers(seed, tally));
        out
    }
}

/// SECDED encode and decode cost over seeded words; every decode of a
/// single-bit flip must correct back to the original word.
fn secded_layers(seed: u64, tally: &mut Tally) -> Vec<Layer> {
    const WORDS: usize = 1 << 16;
    let code = Secded64::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    let words: Vec<u64> = (0..WORDS).map(|_| rng.next_u64()).collect();
    let flips: Vec<u32> = (0..WORDS).map(|_| rng.gen_range(0..64u32)).collect();

    let start = Instant::now();
    let checks: Vec<u8> = words.iter().map(|&w| code.encode(black_box(w))).collect();
    let encode_ns = start.elapsed().as_secs_f64() * 1e9 / WORDS as f64;

    let start = Instant::now();
    let decoded: Vec<_> = words
        .iter()
        .zip(&checks)
        .zip(&flips)
        .map(|((&w, &c), &bit)| code.decode(black_box(w ^ (1u64 << bit)), c))
        .collect();
    let decode_ns = start.elapsed().as_secs_f64() * 1e9 / WORDS as f64;
    tally.check(
        decoded
            .iter()
            .zip(&words)
            .all(|(d, &w)| d.data() == Some(w)),
    );
    vec![
        Layer::new("ecc.secded_encode_ns", "ns", encode_ns),
        Layer::new("ecc.secded_decode_ns", "ns", decode_ns),
    ]
}
