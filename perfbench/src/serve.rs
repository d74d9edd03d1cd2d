//! `serve`: an in-process daemon (`aep_serve::spawn`, no disk tier)
//! driven closed-loop by two client connections.
//!
//! The seeded request stream is mostly memo hits over a pool warmed before
//! timing, a fixed share of misses (fresh seeds at smoke windows, which
//! simulate and insert into the memo), and a share of submissions sent on
//! both connections at once: the same config (dedup) or a sibling on the
//! same trajectory (lane coalescing). Each pass is one round against a
//! fresh daemon, so the planned misses miss again; every reply is compared
//! bit-exactly with a direct `Runner` run computed in set-up.

use std::collections::HashMap;
use std::sync::Barrier;
use std::time::Instant;

use aep_bench::experiments::proposed;
use aep_core::SchemeKind;
use aep_faultsim::fan_out;
use aep_obs::StatsSnapshot;
use aep_rng::SmallRng;
use aep_serve::protocol::{parse_request, render_result};
use aep_serve::{spawn, Client, DaemonConfig, Endpoint, EngineConfig, Source, SubmitRequest};
use aep_sim::runcache::render_stats;
use aep_sim::{RunCache, RunStats, Runner, Scale};
use aep_workloads::Benchmark;

use crate::summary::Summary;
use crate::{host, scratch_dir, sub_seed, Layer, Pass, Tally};

/// Requests each connection sends per round.
pub const REQUESTS_PER_CONNECTION: usize = 600;
/// One request in this many is a miss.
pub const MISS_EVERY: u64 = 10;
/// One request in this many is sent on both connections at once.
pub const SHARED_EVERY: u64 = 40;
/// Client connections.
pub const CONNECTIONS: usize = 2;

/// One planned request of a connection; `shared` ones wait for the
/// other connection first.
#[derive(Debug, Clone)]
struct Item {
    req: SubmitRequest,
    key: String,
    shared: bool,
}

impl Item {
    fn new(req: SubmitRequest, shared: bool) -> Item {
        let key = key_of(&req);
        Item { req, key, shared }
    }
}

/// What one connection observed for one request.
#[derive(Debug, Clone, Copy)]
struct Outcome {
    micros: f64,
    hit: bool,
    ok: bool,
}

/// The schemes requests draw from: directive-free pairs share a lane
/// trajectory, `proposed@1M` runs solo.
fn schemes() -> [SchemeKind; 3] {
    [SchemeKind::Uniform, SchemeKind::ParityOnly, proposed()]
}

fn pool() -> Vec<SubmitRequest> {
    Benchmark::all()
        .into_iter()
        .flat_map(|b| [SchemeKind::Uniform, proposed()].map(|s| SubmitRequest::new(b, s)))
        .collect()
}

fn key_of(req: &SubmitRequest) -> String {
    let (scale, cfg) = req
        .to_config(Scale::Smoke)
        .expect("planned requests are valid");
    RunCache::key(scale.name(), &cfg)
}

/// Plans both connections' request lists for `seed`.
///
/// Miss positions and the benchmark/scheme mix of the misses are fixed;
/// the seed picks the order benchmarks come in, the fresh workload seeds
/// and the hits. So every seed asks for the same amount of simulation
/// and run-to-run spread stays a property of the system, not of the draw.
fn plan(seed: u64, pool: &[SubmitRequest]) -> Vec<Vec<Item>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut benches = Benchmark::all();
    for i in (1..benches.len()).rev() {
        benches.swap(i, rng.gen_range(0..i + 1));
    }
    let mut fresh_seed = sub_seed(seed, 0x5e7e);
    let mut misses = 0usize;
    let mut fresh = |scheme: Option<SchemeKind>| {
        let scheme = scheme.unwrap_or(schemes()[misses % 3]);
        let mut req = SubmitRequest::new(benches[misses % benches.len()], scheme);
        misses += 1;
        fresh_seed = fresh_seed.wrapping_add(1);
        req.seed = Some(fresh_seed);
        req
    };
    let mut lists: Vec<Vec<Item>> = vec![Vec::new(); CONNECTIONS];
    for i in 0..REQUESTS_PER_CONNECTION as u64 {
        if i % SHARED_EVERY == SHARED_EVERY - 1 {
            // Alternate dedup (identical configs) and coalescing (sibling
            // directive-free schemes over one trajectory).
            let a = fresh(Some(SchemeKind::Uniform));
            let mut b = a.clone();
            if (i / SHARED_EVERY) % 2 == 1 {
                b.scheme = SchemeKind::ParityOnly;
            }
            lists[0].push(Item::new(a, true));
            lists[1].push(Item::new(b, true));
            continue;
        }
        for list in &mut lists {
            let req = if i % MISS_EVERY == MISS_EVERY / 2 {
                fresh(None)
            } else {
                pool[rng.gen_range(0..pool.len())].clone()
            };
            list.push(Item::new(req, false));
        }
    }
    lists
}

/// The set-up state of the `serve` workload.
pub struct Serve {
    seed: u64,
    pool: Vec<SubmitRequest>,
    lists: Vec<Vec<Item>>,
    expected: HashMap<String, (RunStats, String)>,
    misses: usize,
    rounds: Vec<Round>,
}

/// The per-layer record of one round.
struct Round {
    outcomes: Vec<Outcome>,
    snapshot: Option<StatsSnapshot>,
}

impl Serve {
    /// Plans the request stream for `seed`, computes every planned
    /// config's reference result directly, and runs one untimed round.
    #[must_use]
    pub fn setup(seed: u64, tally: &mut Tally) -> Serve {
        let pool = pool();
        let lists = plan(seed, &pool);
        let mut configs: Vec<SubmitRequest> = pool.clone();
        for list in &lists {
            for Item { req, .. } in list {
                configs.push(req.clone());
            }
        }
        let mut seen = std::collections::HashSet::new();
        configs.retain(|req| seen.insert(key_of(req)));
        let results = fan_out(configs.len(), host::jobs(), |i| {
            let (_, cfg) = configs[i]
                .to_config(Scale::Smoke)
                .expect("planned requests are valid");
            let stats = Runner::new(cfg).run();
            let text = render_stats(&stats);
            (key_of(&configs[i]), (stats, text))
        });
        let misses = configs.len() - pool.len();
        let mut serve = Serve {
            seed,
            pool,
            lists,
            expected: results.into_iter().collect(),
            misses,
            rounds: Vec::new(),
        };
        let warm_up = serve.pass();
        tally.merge(warm_up.tally);
        serve.rounds.clear();
        serve
    }

    /// Workload parameters, for provenance.
    #[must_use]
    pub fn params(&self) -> String {
        format!(
            "connections={} requests_per_round={} pool={} distinct_misses={} \
             miss_share=1/{} shared_share=1/{} windows=smoke seed={}",
            CONNECTIONS,
            CONNECTIONS * REQUESTS_PER_CONNECTION,
            self.pool.len(),
            self.misses,
            MISS_EVERY,
            SHARED_EVERY,
            self.seed
        )
    }

    fn check_reply(&self, key: &str, reply: &aep_serve::SubmitReply) -> bool {
        reply.key == key
            && self
                .expected
                .get(key)
                .is_some_and(|(_, text)| render_stats(&reply.stats) == *text)
    }

    /// One round against a fresh daemon: warm the pool (untimed), then
    /// both connections run their lists closed-loop (timed).
    ///
    /// # Panics
    ///
    /// Panics if the daemon cannot bind a loopback port or a client
    /// cannot connect.
    pub fn pass(&mut self) -> Pass {
        let mut tally = Tally::default();
        let engine = EngineConfig {
            jobs: host::jobs(),
            ..EngineConfig::new(Scale::Smoke)
        };
        let handle = spawn(DaemonConfig::new(engine)).expect("daemon binds a loopback port");
        let addr = handle.tcp_addr.expect("daemon listens on TCP").to_string();
        let endpoint = Endpoint::Tcp(addr);
        let mut clients: Vec<Client> = (0..CONNECTIONS)
            .map(|_| endpoint.connect().expect("client connects"))
            .collect();
        for req in &self.pool {
            let ok = clients[0]
                .submit(req)
                .is_ok_and(|reply| self.check_reply(&key_of(req), &reply));
            tally.check(ok);
        }

        let barrier = Barrier::new(CONNECTIONS);
        let start = Instant::now();
        let per_connection: Vec<Vec<Outcome>> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(&self.lists)
                .map(|(client, list)| {
                    let barrier = &barrier;
                    let this = &*self;
                    scope.spawn(move || {
                        barrier.wait();
                        list.iter()
                            .map(|Item { req, key, shared }| {
                                if *shared {
                                    barrier.wait();
                                }
                                let t = Instant::now();
                                let reply = client.submit(req);
                                let micros = t.elapsed().as_secs_f64() * 1e6;
                                match reply {
                                    Ok(reply) => Outcome {
                                        micros,
                                        hit: reply.source == Source::Memo,
                                        ok: this.check_reply(key, &reply),
                                    },
                                    Err(_) => Outcome {
                                        micros,
                                        hit: false,
                                        ok: false,
                                    },
                                }
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread completes"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();

        let snapshot = clients[0]
            .stats_json()
            .ok()
            .and_then(|json| StatsSnapshot::from_json(&json).ok());
        tally.check(snapshot.is_some());
        tally.check(clients[0].shutdown().is_ok());
        drop(clients);
        handle.request_shutdown();
        handle.join();

        let outcomes: Vec<Outcome> = per_connection.into_iter().flatten().collect();
        for o in &outcomes {
            tally.check(o.ok);
        }
        let ok = outcomes.iter().filter(|o| o.ok).count();
        let millis: Vec<f64> = outcomes.iter().map(|o| o.micros / 1e3).collect();
        let p = percentiles(&millis, &[0.5, 0.99]);
        self.rounds.push(Round { outcomes, snapshot });
        Pass {
            wall_s,
            figures: vec![
                ("req_per_s", "req/s", ok as f64 / wall_s),
                ("latency_p50_ms", "ms", p[0]),
                ("latency_p99_ms", "ms", p[1]),
            ],
            tally,
        }
    }

    /// The traced run: client-side hit/miss round trips, the daemon's
    /// own wait/exec split and tier ratios, protocol parse/render cost
    /// over the planned lines, and run-cache key/store/load cost.
    pub fn layers(&mut self, tally: &mut Tally) -> Vec<Layer> {
        if self.rounds.is_empty() {
            let pass = self.pass();
            tally.merge(pass.tally);
        }
        let median = |v: Vec<f64>| {
            if v.is_empty() {
                f64::NAN
            } else {
                Summary::of(&v).median
            }
        };
        let rtt = |hit: bool| {
            median(
                self.rounds
                    .iter()
                    .map(|r| {
                        let us: Vec<f64> = r
                            .outcomes
                            .iter()
                            .filter(|o| o.hit == hit)
                            .map(|o| o.micros)
                            .collect();
                        percentiles(&us, &[0.5])[0]
                    })
                    .collect(),
            )
        };
        let from_snapshot = |f: &dyn Fn(&StatsSnapshot) -> f64| {
            median(
                self.rounds
                    .iter()
                    .filter_map(|r| r.snapshot.as_ref())
                    .map(f)
                    .collect(),
            )
        };
        let c =
            |s: &StatsSnapshot, k: &str| s.counter_value(&format!("serve.{k}")).unwrap_or(0) as f64;
        let mean =
            |s: &StatsSnapshot, k: &str| c(s, &format!("{k}.sum")) / c(s, &format!("{k}.count"));
        let shed = |s: &StatsSnapshot| {
            c(s, "shed_queue_full") + c(s, "shed_client_cap") + c(s, "shed_draining")
        };
        let submits = |s: &StatsSnapshot| {
            c(s, "memo_hits") + c(s, "admitted") + c(s, "dedup_joins") + shed(s)
        };

        let mut out = vec![
            Layer::new("serve.hit_rtt_us_p50", "us", rtt(true)),
            Layer::new("serve.miss_rtt_us_p50", "us", rtt(false)),
            Layer::new(
                "serve.wait_us_mean",
                "us",
                from_snapshot(&|s| mean(s, "wait_us")),
            ),
            Layer::new(
                "serve.exec_us_mean",
                "us",
                from_snapshot(&|s| mean(s, "exec_us")),
            ),
            Layer::new(
                "serve.hit_ratio",
                "ratio",
                from_snapshot(&|s| c(s, "memo_hits") / submits(s)),
            ),
            Layer::new(
                "serve.dedup_ratio",
                "ratio",
                from_snapshot(&|s| c(s, "dedup_joins") / submits(s)),
            ),
            Layer::new(
                "serve.shed_ratio",
                "ratio",
                from_snapshot(&|s| shed(s) / submits(s)),
            ),
            Layer::new(
                "serve.coalesced_ratio",
                "ratio",
                from_snapshot(&|s| c(s, "lane_batched_runs") / c(s, "evaluated")),
            ),
        ];
        out.extend(self.protocol_layers(tally));
        out.extend(self.runcache_layers(tally));
        out
    }

    /// Parse cost of every planned request line and render cost of every
    /// reference reply line.
    fn protocol_layers(&self, tally: &mut Tally) -> Vec<Layer> {
        let lines: Vec<String> = self
            .lists
            .iter()
            .flatten()
            .map(|Item { req, .. }| req.render())
            .collect();
        let start = Instant::now();
        let parsed = lines.iter().filter(|l| parse_request(l).is_ok()).count();
        let parse_ns = start.elapsed().as_secs_f64() * 1e9 / lines.len() as f64;
        tally.check(parsed == lines.len());

        let start = Instant::now();
        let bytes: usize = self
            .expected
            .iter()
            .map(|(key, (stats, _))| render_result(None, key, Source::Memo, 0, stats).len())
            .sum();
        let render_ns = start.elapsed().as_secs_f64() * 1e9 / self.expected.len() as f64;
        tally.check(bytes > 0);
        vec![
            Layer::new("serve.parse_ns", "ns", parse_ns),
            Layer::new("serve.render_ns", "ns", render_ns),
        ]
    }

    /// `RunCache` key, store and load cost over the reference results,
    /// in a scratch directory; every load must return what was stored.
    fn runcache_layers(&self, tally: &mut Tally) -> Vec<Layer> {
        let reqs: Vec<&SubmitRequest> = self
            .lists
            .iter()
            .flatten()
            .map(|Item { req, .. }| req)
            .collect();
        let start = Instant::now();
        let keys: Vec<String> = reqs.iter().map(|r| key_of(r)).collect();
        let key_us = start.elapsed().as_secs_f64() * 1e6 / keys.len() as f64;

        let dir = scratch_dir("runcache");
        let cache = RunCache::new(&dir);
        let start = Instant::now();
        let stored = self
            .expected
            .iter()
            .filter(|(key, (stats, _))| cache.store(key, stats).is_ok())
            .count();
        let store_us = start.elapsed().as_secs_f64() * 1e6 / self.expected.len() as f64;
        tally.check(stored == self.expected.len());

        let start = Instant::now();
        let loaded = self
            .expected
            .iter()
            .filter(|(key, (_, text))| {
                cache
                    .load(key)
                    .is_some_and(|stats| render_stats(&stats) == *text)
            })
            .count();
        let load_us = start.elapsed().as_secs_f64() * 1e6 / self.expected.len() as f64;
        tally.check(loaded == self.expected.len());
        let _ = std::fs::remove_dir_all(&dir);
        vec![
            Layer::new("sim.runcache.key_us", "us", key_us),
            Layer::new("sim.runcache.store_us", "us", store_us),
            Layer::new("sim.runcache.load_us", "us", load_us),
        ]
    }
}

/// Nearest-rank percentiles of `values` (NaN when empty).
fn percentiles(values: &[f64], ps: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    ps.iter()
        .map(|p| {
            if v.is_empty() {
                return f64::NAN;
            }
            let rank = (p * v.len() as f64).ceil() as usize;
            v[rank.clamp(1, v.len()) - 1]
        })
        .collect()
}
