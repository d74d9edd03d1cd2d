//! `exp serve` / `exp submit` / `exp hammer` — the CLI face of the
//! simulation service (`aep-serve`).
//!
//! Exit codes follow the repo contract: 0 = success, 1 = runtime failure
//! (cannot bind or connect, bit-exactness violation, broken floor),
//! 2 = usage error.

use aep_serve::client::ClientError;
use aep_serve::engine::EngineConfig;
use aep_serve::hammer::HammerOptions;
use aep_serve::{DaemonConfig, Endpoint, SubmitRequest};
use aep_sim::runcache::render_stats;
use aep_sim::{RunCache, Scale};
use aep_workloads::Benchmark;

use crate::flags::{Command, NO_CACHE_HELP, SCHEME_HELP};

/// The default loopback endpoint the three subcommands agree on.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7117";

/// The help line of `submit`'s and `hammer`'s `--connect`.
const CONNECT_HELP: &str = "daemon endpoint, tcp:ADDR or unix:PATH (default: tcp:127.0.0.1:7117)";

/// The `exp serve`, `exp submit` and `exp hammer` declarations.
#[must_use]
pub fn commands() -> Vec<Command> {
    vec![serve_command(), submit_command(), hammer_command()]
}

fn serve_command() -> Command {
    crate::flags! { DaemonConfig:
        TCP "--tcp" "ADDR" "TCP bind address (default: 127.0.0.1:7117 unless only --unix is \
            given); port 0 picks a free port, printed on stdout",
            |f, o| o.tcp = Some(f.value("an address")?.to_owned());
        UNIX "--unix" "PATH" "also (or instead) listen on a Unix socket",
            |f, o| o.unix = Some(f.path("a path")?);
        SCALE "--scale" "S" "paper|quick|smoke: the scale of submits that name none \
            (default: smoke)", |f, o| o.engine.scale = f.scale()?;
        JOBS "--jobs" "N" "simulation worker threads (default: all cores)",
            |f, o| o.engine.jobs = f.positive()?;
        QUEUE "--queue-depth" "N" "admitted but unfinished runs before shedding `busy` \
            (default: 256)", |f, o| o.engine.queue_depth = f.positive()?;
        CLIENT_CAP "--client-cap" "N" "per-connection in-flight cap (default: 64)",
            |f, o| o.client_cap = f.positive()?;
        NO_CACHE "--no-cache" "" NO_CACHE_HELP, |_, o| o.engine.disk = None;
        VERBOSE "--verbose" "" "per-run progress on stderr", |_, o| o.engine.verbose = true;
    }
    Command::new(
        "serve",
        "start the persistent simulation daemon: NDJSON over TCP and/or a Unix socket, one \
         shared run cache and worker pool; `exp submit --shutdown` drains it",
        &[TCP, UNIX, SCALE, JOBS, QUEUE, CLIENT_CAP, NO_CACHE, VERBOSE],
        || DaemonConfig {
            tcp: None,
            ..DaemonConfig::new(EngineConfig {
                disk: Some(RunCache::default_under(".")),
                ..EngineConfig::new(Scale::Smoke)
            })
        },
        serve,
    )
}

/// Runs `exp serve`; returns the process exit code.
fn serve(mut cfg: DaemonConfig) -> i32 {
    // `--unix` alone disables TCP unless `--tcp` was also given.
    if cfg.unix.is_none() {
        cfg.tcp.get_or_insert_with(|| DEFAULT_ADDR.to_owned());
    }
    let handle = match aep_serve::spawn(cfg) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("exp serve: cannot start daemon: {e}");
            return 1;
        }
    };
    // Scripts wait for these lines to know the daemon is ready (and,
    // with `--tcp 127.0.0.1:0`, which port the OS picked).
    if let Some(addr) = handle.tcp_addr {
        println!("listening tcp {addr}");
    }
    if let Some(path) = &handle.unix_path {
        println!("listening unix {}", path.display());
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    handle.join();
    eprintln!("[serve] drained, bye");
    0
}

enum SubmitMode {
    Submit,
    Ping,
    Stats,
    Shutdown,
}

/// What `exp submit` reads from its flags.
struct Submit {
    endpoint: Endpoint,
    req: SubmitRequest,
    mode: SubmitMode,
}

fn submit_command() -> Command {
    crate::flags! { Submit:
        CONNECT "--connect" "SPEC" CONNECT_HELP, |f, o| o.endpoint = f.endpoint()?;
        BENCH "--bench" "B" "benchmark name (default: gzip)",
            |f, o| o.req.bench = f.named(
                "benchmark",
                &Benchmark::all().map(Benchmark::name).join("|"),
                |v| Benchmark::all().into_iter().find(|b| b.name() == v),
            )?;
        SCHEME "--scheme" "S" SCHEME_HELP, |f, o| o.req.scheme = f.scheme()?;
        SEED "--seed" "N" "workload seed override", |f, o| o.req.seed = Some(f.uint()?);
        SCRUB "--scrub" "N" "background scrub period (cycles per line)",
            |f, o| o.req.scrub = Some(f.uint()?);
        SCALE "--scale" "S" "paper|quick|smoke (default: the daemon's)",
            |f, o| o.req.scale = Some(f.scale()?);
        WARMUP "--warmup" "N" "warm-up window override (cycles)",
            |f, o| o.req.warmup = Some(f.uint()?);
        MEASURE "--measure" "N" "measured window override (cycles)",
            |f, o| o.req.measure = Some(f.uint()?);
        ID "--id" "STR" "correlation id the daemon echoes",
            |f, o| o.req.id = Some(f.value("a string")?.to_owned());
        PING "--ping" "" "liveness check instead of a submit", |_, o| o.mode = SubmitMode::Ping;
        STATS "--stats" "" "print the daemon's serve.* snapshot JSON",
            |_, o| o.mode = SubmitMode::Stats;
        SHUTDOWN "--shutdown" "" "request the graceful drain", |_, o| o.mode = SubmitMode::Shutdown;
    }
    Command::new(
        "submit",
        "send one experiment to a running daemon (`exp serve`) and print its result as the \
         lossless run-cache text; the key, cache tier and daemon-side latency go to stderr",
        &[
            CONNECT, BENCH, SCHEME, SEED, SCRUB, SCALE, WARMUP, MEASURE, ID, PING, STATS, SHUTDOWN,
        ],
        || Submit {
            endpoint: Endpoint::Tcp(DEFAULT_ADDR.to_owned()),
            req: SubmitRequest::new(Benchmark::Gzip, crate::experiments::proposed()),
            mode: SubmitMode::Submit,
        },
        submit,
    )
}

/// Runs `exp submit`; returns the process exit code.
fn submit(o: Submit) -> i32 {
    let mut client = match o.endpoint.connect() {
        Ok(client) => client,
        Err(e) => {
            eprintln!("exp submit: cannot connect to {}: {e}", o.endpoint);
            return 1;
        }
    };
    match o.mode {
        SubmitMode::Ping => match client.ping() {
            Ok(()) => {
                println!("pong");
                0
            }
            Err(e) => {
                eprintln!("exp submit: ping failed: {e}");
                1
            }
        },
        SubmitMode::Stats => match client.stats_json() {
            Ok(json) => {
                print!("{json}");
                0
            }
            Err(e) => {
                eprintln!("exp submit: stats failed: {e}");
                1
            }
        },
        SubmitMode::Shutdown => match client.shutdown() {
            Ok(()) => {
                eprintln!("[submit] daemon draining");
                0
            }
            Err(ClientError::Shed(code, msg)) => {
                eprintln!("exp submit: shutdown refused ({}): {msg}", code.name());
                1
            }
            Err(e) => {
                eprintln!("exp submit: shutdown failed: {e}");
                1
            }
        },
        SubmitMode::Submit => match client.submit(&o.req) {
            Ok(reply) => {
                eprintln!(
                    "[submit] key={} source={} wait_us={}",
                    reply.key,
                    reply.source.name(),
                    reply.wait_us
                );
                print!("{}", render_stats(&reply.stats));
                0
            }
            Err(e) => {
                eprintln!("exp submit: {e}");
                1
            }
        },
    }
}

fn hammer_command() -> Command {
    crate::flags! { HammerOptions:
        CONNECT "--connect" "SPEC" CONNECT_HELP, |f, o| o.endpoint = f.endpoint()?;
        SCALE "--scale" "S" "paper|quick|smoke: the config pool's scale, which must match the \
            daemon's default for its disk cache to line up (default: smoke)",
            |f, o| o.scale = f.scale()?;
        STEPS "--steps" "LIST" "concurrency ladder (default: 2,4,8,16,32)",
            |f, o| o.steps = f.parsed("a comma list of positive integers", |v| {
                let list: Vec<usize> = v
                    .split(',')
                    .map(|s| s.trim().parse().ok())
                    .collect::<Option<_>>()?;
                (!list.is_empty() && list.iter().all(|&n| n >= 1)).then_some(list)
            })?;
        STEP_MS "--step-ms" "N" "wall-clock milliseconds per step (default: 2000)",
            |f, o| o.step_ms = f.positive()?;
        SEED "--seed" "N" "thread walk-offset seed (default: 2006)", |f, o| o.seed = f.uint()?;
        WARMUP "--warmup" "N" "per-config warm-up window override (cycles)",
            |f, o| o.warmup_cycles = Some(f.uint()?);
        MEASURE "--measure" "N" "per-config measured window override (cycles)",
            |f, o| o.measure_cycles = Some(f.positive()?);
        OUT "--out" "FILE" "report path (default: BENCH_serve.json)",
            |f, o| o.out = Some(f.path("a file path")?);
        FLOOR_RPS "--floor-rps" "X" "fail (exit 1) below X req/s at the top step",
            |f, o| o.floor_rps =
                Some(f.parsed("a positive number", |v| v.parse().ok().filter(|x| *x > 0.0))?);
        FLOOR_HIT "--floor-hit" "X" "fail (exit 1) below hit rate X at the top step",
            |f, o| o.floor_hit = Some(f.probability()?);
        QUIET "--quiet" "" "no per-step progress", |_, o| o.verbose = false;
    }
    Command::new(
        "hammer",
        "load-test a running daemon up a concurrency ladder, validating every response \
         bit-exactly; per-step latency, throughput, hit and shed rates go to BENCH_serve.json",
        &[
            CONNECT, SCALE, STEPS, STEP_MS, SEED, WARMUP, MEASURE, OUT, FLOOR_RPS, FLOOR_HIT, QUIET,
        ],
        || HammerOptions::new(Endpoint::Tcp(DEFAULT_ADDR.to_owned())),
        hammer,
    )
}

/// Runs `exp hammer`; returns the process exit code.
fn hammer(opts: HammerOptions) -> i32 {
    match aep_serve::hammer::run(&opts) {
        Ok(report) => {
            let top = report.top().expect("ladder is non-empty");
            println!(
                "hammer: {} validated responses over {} configs; top step c={}: \
                 {:.1} req/s, p99 {} µs, hit {:.1}%, shed {:.1}%",
                report.validated,
                report.distinct_configs,
                top.concurrency,
                top.rps,
                top.p99_us,
                top.hit_rate * 100.0,
                top.shed_rate * 100.0
            );
            0
        }
        Err(e) => {
            eprintln!("exp hammer: FAIL: {e}");
            1
        }
    }
}
