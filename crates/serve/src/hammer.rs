//! The in-tree load harness (`exp hammer`).
//!
//! wrk-style methodology adapted to a simulation service: a fixed pool
//! of distinct experiment configurations, a warm-up pass that faults
//! them all into the daemon's memo, then stepped closed-loop
//! concurrency — each step spawns N client threads that submit
//! back-to-back for a fixed wall-clock window. Every response (warm-up
//! included) is validated **bit-exactly** against a direct in-process
//! `Runner` run of the same configuration, so the throughput numbers
//! can never be bought with wrong answers. Sheds (`busy`/`draining`)
//! are counted and retried after a short back-off, never silently
//! dropped.
//!
//! Results — per-step p50/p95/p99 latency, throughput, cache-hit and
//! shed rates — render as `BENCH_serve.json`.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use aep_core::SchemeKind;
use aep_obs::json::escape;
use aep_sim::runcache::{render_stats, RunCache};
use aep_sim::{Runner, Scale};
use aep_workloads::Benchmark;

use crate::client::{Client, ClientError, Endpoint};
use crate::protocol::SubmitRequest;

/// Alias kept only because `perfbench/` imports `aep_serve::hammer::git_commit`.
pub use aep_obs::provenance::git_commit;

/// Load-harness knobs.
#[derive(Debug, Clone)]
pub struct HammerOptions {
    /// Daemon endpoint.
    pub endpoint: Endpoint,
    /// Scale of the submitted configurations (should match the daemon's
    /// default so keys line up with its cache tiers).
    pub scale: Scale,
    /// Concurrency ladder, one load step per entry.
    pub steps: Vec<usize>,
    /// Wall-clock duration of each step (milliseconds).
    pub step_ms: u64,
    /// Seed offsetting each thread's walk over the config pool.
    pub seed: u64,
    /// Warm-up window override for every config (cycles).
    pub warmup_cycles: Option<u64>,
    /// Measured window override for every config (cycles).
    pub measure_cycles: Option<u64>,
    /// Where to write the JSON report (skipped when `None`).
    pub out: Option<PathBuf>,
    /// Minimum sustained req/s at the top step (exit 1 below it).
    pub floor_rps: Option<f64>,
    /// Minimum cache-hit rate at the top step (exit 1 below it).
    pub floor_hit: Option<f64>,
    /// Progress lines on stderr.
    pub verbose: bool,
}

impl HammerOptions {
    /// The acceptance-grade defaults: 2→32 threads, 2 s steps.
    #[must_use]
    pub fn new(endpoint: Endpoint) -> Self {
        HammerOptions {
            endpoint,
            scale: Scale::Smoke,
            steps: vec![2, 4, 8, 16, 32],
            step_ms: 2_000,
            seed: 2006,
            warmup_cycles: None,
            measure_cycles: None,
            out: Some(PathBuf::from("BENCH_serve.json")),
            floor_rps: None,
            floor_hit: None,
            verbose: true,
        }
    }
}

/// One concurrency step's measurements.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Client threads driving this step.
    pub concurrency: usize,
    /// Completed (validated) responses.
    pub requests: u64,
    /// Shed responses (`busy`/`draining`), retried after back-off.
    pub sheds: u64,
    /// Wall-clock length of the step (seconds).
    pub elapsed_s: f64,
    /// Completed requests per second.
    pub rps: f64,
    /// Median response latency (µs, client-observed).
    pub p50_us: u64,
    /// 95th-percentile latency (µs).
    pub p95_us: u64,
    /// 99th-percentile latency (µs).
    pub p99_us: u64,
    /// Fraction of completions served from a cache tier (memo/disk).
    pub hit_rate: f64,
    /// Sheds as a fraction of all attempts.
    pub shed_rate: f64,
}

/// The full harness report.
#[derive(Debug, Clone)]
pub struct HammerReport {
    /// Endpoint hammered.
    pub endpoint: String,
    /// Scale of the submitted configs.
    pub scale: &'static str,
    /// Distinct configurations in the pool.
    pub distinct_configs: usize,
    /// Total responses validated bit-exactly (warm-up included).
    pub validated: u64,
    /// Per-step measurements, in ladder order.
    pub steps: Vec<StepReport>,
}

impl HammerReport {
    /// The top-of-ladder step (the acceptance gate reads this one).
    #[must_use]
    pub fn top(&self) -> Option<&StepReport> {
        self.steps.last()
    }

    /// Renders the `BENCH_serve.json` document.
    #[must_use]
    pub fn to_json(&self, floor_rps: Option<f64>, floor_hit: Option<f64>) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"report\": \"serve_hammer\",\n");
        out.push_str(&format!("  \"git_commit\": {},\n", escape(&git_commit())));
        out.push_str(&format!("  \"endpoint\": {},\n", escape(&self.endpoint)));
        out.push_str(&format!("  \"scale\": {},\n", escape(self.scale)));
        out.push_str(&format!(
            "  \"distinct_configs\": {},\n",
            self.distinct_configs
        ));
        out.push_str(&format!("  \"validated_responses\": {},\n", self.validated));
        out.push_str("  \"bit_exact\": true,\n");
        if let Some(rps) = floor_rps {
            out.push_str(&format!("  \"floor_rps\": {rps},\n"));
        }
        if let Some(hit) = floor_hit {
            out.push_str(&format!("  \"floor_hit_rate\": {hit},\n"));
        }
        out.push_str("  \"steps\": [\n");
        for (i, s) in self.steps.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"concurrency\": {}, \"requests\": {}, \"sheds\": {}, \
                 \"elapsed_s\": {:.3}, \"rps\": {:.1}, \"p50_us\": {}, \"p95_us\": {}, \
                 \"p99_us\": {}, \"hit_rate\": {:.4}, \"shed_rate\": {:.4}}}{}\n",
                s.concurrency,
                s.requests,
                s.sheds,
                s.elapsed_s,
                s.rps,
                s.p50_us,
                s.p95_us,
                s.p99_us,
                s.hit_rate,
                s.shed_rate,
                if i + 1 == self.steps.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The fixed config pool: four benchmarks across the paper's scheme
/// families — enough key diversity to exercise the memo shards without
/// making the warm-up pass expensive.
fn work_set(opts: &HammerOptions) -> Vec<SubmitRequest> {
    let benches = [
        Benchmark::Gzip,
        Benchmark::Mcf,
        Benchmark::Gap,
        Benchmark::Applu,
    ];
    let schemes = [
        SchemeKind::Uniform,
        SchemeKind::ParityOnly,
        SchemeKind::UniformWithCleaning {
            cleaning_interval: 1 << 20,
        },
        SchemeKind::Proposed {
            cleaning_interval: 1 << 20,
        },
    ];
    let mut set = Vec::with_capacity(benches.len() * schemes.len());
    for bench in benches {
        for scheme in schemes {
            let mut req = SubmitRequest::new(bench, scheme);
            req.scale = Some(opts.scale);
            req.warmup = opts.warmup_cycles;
            req.measure = opts.measure_cycles;
            set.push(req);
        }
    }
    set
}

/// Runs the full harness: expected-value computation, warm-up, stepped
/// load, report.
///
/// # Errors
///
/// Any bit-exactness violation, transport failure, or broken floor is
/// an error (the CLI maps it to exit 1).
pub fn run(opts: &HammerOptions) -> Result<HammerReport, String> {
    let pool = work_set(opts);
    if opts.steps.is_empty() {
        return Err("hammer needs at least one concurrency step".into());
    }
    // Ground truth: a direct in-process run of every pool config. Every
    // daemon response must match these bytes exactly.
    if opts.verbose {
        eprintln!(
            "[hammer] computing ground truth for {} configs ...",
            pool.len()
        );
    }
    let expected: HashMap<String, String> = {
        let jobs = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(2)
            .min(pool.len().max(1));
        let next = AtomicU64::new(0);
        let results = std::sync::Mutex::new(HashMap::new());
        std::thread::scope(|scope| -> Result<(), String> {
            let mut handles = Vec::new();
            for _ in 0..jobs {
                handles.push(scope.spawn(|| -> Result<(), String> {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                        let Some(req) = pool.get(i) else {
                            return Ok(());
                        };
                        let (scale, cfg) = req.to_config(opts.scale)?;
                        let key = RunCache::key(scale.name(), &cfg);
                        let stats = Runner::new(cfg).run();
                        results
                            .lock()
                            .expect("ground-truth map poisoned")
                            .insert(key, render_stats(&stats));
                    }
                }));
            }
            for handle in handles {
                handle
                    .join()
                    .map_err(|_| "ground-truth thread panicked")??;
            }
            Ok(())
        })?;
        results.into_inner().expect("ground-truth map poisoned")
    };
    let validated = AtomicU64::new(0);
    // Warm-up: fault every config into the daemon's memo once.
    if opts.verbose {
        eprintln!("[hammer] warming the daemon ({} submits) ...", pool.len());
    }
    {
        let mut client = connect(&opts.endpoint)?;
        for req in &pool {
            submit_validated(&mut client, req, &expected, &validated)?;
        }
    }
    // Stepped closed-loop load.
    let mut steps = Vec::with_capacity(opts.steps.len());
    for &concurrency in &opts.steps {
        let step = run_step(opts, &pool, &expected, &validated, concurrency.max(1))?;
        if opts.verbose {
            eprintln!(
                "[hammer] c={:<3} {:>8.1} req/s  p50 {:>6} µs  p95 {:>6} µs  p99 {:>6} µs  \
                 hit {:>5.1}%  shed {:>5.1}%",
                step.concurrency,
                step.rps,
                step.p50_us,
                step.p95_us,
                step.p99_us,
                step.hit_rate * 100.0,
                step.shed_rate * 100.0,
            );
        }
        steps.push(step);
    }
    let report = HammerReport {
        endpoint: opts.endpoint.to_string(),
        scale: opts.scale.name(),
        distinct_configs: pool.len(),
        validated: validated.load(Ordering::Relaxed),
        steps,
    };
    if let Some(path) = &opts.out {
        let json = report.to_json(opts.floor_rps, opts.floor_hit);
        std::fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        if opts.verbose {
            eprintln!("[hammer] wrote {}", path.display());
        }
    }
    let top = report.top().expect("at least one step");
    if let Some(floor) = opts.floor_rps {
        if top.rps < floor {
            return Err(format!(
                "throughput floor broken: {:.1} req/s < {floor} req/s at c={}",
                top.rps, top.concurrency
            ));
        }
    }
    if let Some(floor) = opts.floor_hit {
        if top.hit_rate < floor {
            return Err(format!(
                "cache-hit floor broken: {:.3} < {floor} at c={}",
                top.hit_rate, top.concurrency
            ));
        }
    }
    Ok(report)
}

fn connect(endpoint: &Endpoint) -> Result<Client, String> {
    endpoint
        .connect()
        .map_err(|e| format!("cannot connect to {endpoint}: {e}"))
}

/// One submit + bit-exact validation. Sheds are returned as `Ok(false)`
/// so load threads can back off; every completion is checked against
/// the ground truth.
fn submit_validated(
    client: &mut Client,
    req: &SubmitRequest,
    expected: &HashMap<String, String>,
    validated: &AtomicU64,
) -> Result<bool, String> {
    match client.submit(req) {
        Ok(reply) => {
            let want = expected
                .get(&reply.key)
                .ok_or_else(|| format!("daemon answered with unexpected key {}", reply.key))?;
            let got = render_stats(&reply.stats);
            if got != *want {
                return Err(format!(
                    "bit-exactness violation on {}: daemon result differs from direct run",
                    reply.key
                ));
            }
            validated.fetch_add(1, Ordering::Relaxed);
            Ok(true)
        }
        Err(ClientError::Shed(..)) => Ok(false),
        Err(e) => Err(format!("submit failed: {e}")),
    }
}

struct ThreadTally {
    latencies_us: Vec<u64>,
    hits: u64,
    sheds: u64,
}

fn run_step(
    opts: &HammerOptions,
    pool: &[SubmitRequest],
    expected: &HashMap<String, String>,
    validated: &AtomicU64,
    concurrency: usize,
) -> Result<StepReport, String> {
    let deadline = Instant::now() + Duration::from_millis(opts.step_ms);
    let started = Instant::now();
    let tallies = std::thread::scope(|scope| -> Result<Vec<ThreadTally>, String> {
        let mut handles = Vec::with_capacity(concurrency);
        for thread_id in 0..concurrency {
            handles.push(scope.spawn(move || -> Result<ThreadTally, String> {
                let mut client = connect(&opts.endpoint)?;
                let mut tally = ThreadTally {
                    latencies_us: Vec::new(),
                    hits: 0,
                    sheds: 0,
                };
                let mut cursor = (opts.seed as usize).wrapping_add(thread_id * 7);
                while Instant::now() < deadline {
                    let req = &pool[cursor % pool.len()];
                    cursor = cursor.wrapping_add(1);
                    let sent = Instant::now();
                    match client.submit(req) {
                        Ok(reply) => {
                            let us = u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX);
                            let want = expected.get(&reply.key).ok_or_else(|| {
                                format!("daemon answered with unexpected key {}", reply.key)
                            })?;
                            if render_stats(&reply.stats) != *want {
                                return Err(format!(
                                    "bit-exactness violation on {}: daemon result differs \
                                     from direct run",
                                    reply.key
                                ));
                            }
                            validated.fetch_add(1, Ordering::Relaxed);
                            if reply.source.is_cache_hit() {
                                tally.hits += 1;
                            }
                            tally.latencies_us.push(us);
                        }
                        Err(ClientError::Shed(..)) => {
                            tally.sheds += 1;
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(e) => return Err(format!("submit failed: {e}")),
                    }
                }
                Ok(tally)
            }));
        }
        let mut tallies = Vec::with_capacity(handles.len());
        for handle in handles {
            tallies.push(handle.join().map_err(|_| "load thread panicked")??);
        }
        Ok(tallies)
    })?;
    let elapsed_s = started.elapsed().as_secs_f64();
    let mut latencies: Vec<u64> = Vec::new();
    let mut hits = 0u64;
    let mut sheds = 0u64;
    for tally in tallies {
        latencies.extend(tally.latencies_us);
        hits += tally.hits;
        sheds += tally.sheds;
    }
    latencies.sort_unstable();
    let requests = latencies.len() as u64;
    let attempts = requests + sheds;
    Ok(StepReport {
        concurrency,
        requests,
        sheds,
        elapsed_s,
        rps: if elapsed_s > 0.0 {
            requests as f64 / elapsed_s
        } else {
            0.0
        },
        p50_us: percentile(&latencies, 0.50),
        p95_us: percentile(&latencies, 0.95),
        p99_us: percentile(&latencies, 0.99),
        hit_rate: if requests == 0 {
            0.0
        } else {
            hits as f64 / requests as f64
        },
        shed_rate: if attempts == 0 {
            0.0
        } else {
            sheds as f64 / attempts as f64
        },
    })
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_pick_the_expected_ranks() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 51);
        assert_eq!(percentile(&sorted, 0.95), 95);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&[], 0.99), 0);
        assert_eq!(percentile(&[7], 0.5), 7);
    }

    #[test]
    fn work_set_is_distinct() {
        let opts = HammerOptions::new(Endpoint::Tcp("127.0.0.1:1".into()));
        let pool = work_set(&opts);
        assert_eq!(pool.len(), 16);
        let mut keys: Vec<String> = pool
            .iter()
            .map(|req| {
                let (scale, cfg) = req.to_config(Scale::Smoke).unwrap();
                RunCache::key(scale.name(), &cfg)
            })
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 16, "pool keys must be distinct");
    }

    #[test]
    fn report_renders_json() {
        let report = HammerReport {
            endpoint: "tcp:127.0.0.1:7117".into(),
            scale: "smoke",
            distinct_configs: 16,
            validated: 42,
            steps: vec![StepReport {
                concurrency: 2,
                requests: 40,
                sheds: 2,
                elapsed_s: 1.0,
                rps: 40.0,
                p50_us: 100,
                p95_us: 200,
                p99_us: 300,
                hit_rate: 0.95,
                shed_rate: 0.047,
            }],
        };
        let json = report.to_json(Some(500.0), Some(0.95));
        assert!(json.contains("\"report\": \"serve_hammer\""));
        assert!(json.contains("\"floor_rps\": 500"));
        assert!(json.contains("\"hit_rate\": 0.9500"));
    }

    #[test]
    fn report_json_escapes_a_hostile_unix_endpoint() {
        let endpoint = Endpoint::parse("unix:/tmp/a\"b\\c.sock")
            .unwrap()
            .to_string();
        let report = HammerReport {
            endpoint: endpoint.clone(),
            scale: "smoke",
            distinct_configs: 16,
            validated: 0,
            steps: Vec::new(),
        };
        let doc = aep_obs::json::parse(&report.to_json(None, None)).expect("valid JSON");
        assert_eq!(
            doc.get("endpoint").and_then(|v| v.as_str()),
            Some(endpoint.as_str())
        );
        assert_eq!(doc.get("scale").and_then(|v| v.as_str()), Some("smoke"));
    }
}
