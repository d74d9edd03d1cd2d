//! `exp serve` / `exp submit` / `exp hammer` — the CLI face of the
//! simulation service (`aep-serve`).
//!
//! Like `exp explore` and `exp check`, these subcommands own their flag
//! grammars (read through [`crate::flags`]). Exit codes
//! follow the repo contract: 0 = success, 1 = runtime failure (cannot
//! connect, bit-exactness violation, broken floor), 2 = usage error.

use aep_serve::client::ClientError;
use aep_serve::engine::EngineConfig;
use aep_serve::hammer::HammerOptions;
use aep_serve::{DaemonConfig, Endpoint, SubmitRequest};
use aep_sim::runcache::render_stats;
use aep_sim::{RunCache, Scale};
use aep_workloads::Benchmark;

use crate::flags::{FlagError, Flags};

/// The default loopback endpoint the three subcommands agree on.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7117";

fn serve_usage() -> String {
    "usage: exp serve [--tcp ADDR] [--unix PATH] [--scale paper|quick|smoke]\n\
     \x20               [--jobs N] [--queue-depth N] [--client-cap N]\n\
     \x20               [--no-cache] [--verbose]\n\n\
     Start the persistent simulation daemon: newline-delimited JSON over\n\
     TCP and/or a Unix socket, one shared run cache and warm worker pool,\n\
     admission control and request dedup. Stop it with a\n\
     {\"type\":\"shutdown\"} request (`exp submit --shutdown`): in-flight\n\
     work finishes, then the daemon exits.\n\n\
     flags:\n\
     \x20 --tcp ADDR       TCP bind address (default 127.0.0.1:7117;\n\
     \x20                  port 0 picks a free port, printed on stdout)\n\
     \x20 --unix PATH      also (or instead) listen on a Unix socket\n\
     \x20 --scale S        default scale for submits that name none\n\
     \x20                  (default: smoke)\n\
     \x20 --jobs N         simulation worker threads (default: all cores)\n\
     \x20 --queue-depth N  max admitted-but-unfinished runs before\n\
     \x20                  shedding `busy` (default: 256)\n\
     \x20 --client-cap N   per-connection in-flight cap (default: 64)\n\
     \x20 --no-cache       do not read or write results/cache/\n\
     \x20 --verbose        per-run progress on stderr\n\n\
     exit codes: 0 clean shutdown, 1 cannot bind, 2 usage error"
        .to_owned()
}

/// Runs `exp serve`; returns the process exit code.
#[must_use]
pub fn serve(args: &[String]) -> i32 {
    let mut cfg = DaemonConfig {
        tcp: None,
        unix: None,
        engine: EngineConfig::new(Scale::Smoke),
        client_cap: 64,
    };
    cfg.engine.disk = Some(RunCache::default_under("."));
    let parsed = Flags::each(args, |f, flag| {
        match flag {
            "--tcp" => cfg.tcp = Some(f.value("an address")?.to_owned()),
            "--unix" => cfg.unix = Some(f.path("a path")?),
            "--scale" => cfg.engine.scale = f.scale()?,
            "--jobs" => cfg.engine.jobs = f.positive()?,
            "--queue-depth" => cfg.engine.queue_depth = f.positive()?,
            "--client-cap" => cfg.client_cap = f.positive()?,
            "--no-cache" => cfg.engine.disk = None,
            "--verbose" => cfg.engine.verbose = true,
            "help" | "--help" | "-h" => return Err(FlagError::Help),
            _ => return Err(f.unknown()),
        }
        Ok(())
    });
    if let Err(e) = parsed {
        return e.exit_code("exp serve", &serve_usage());
    }
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

fn submit_usage() -> String {
    "usage: exp submit [--connect tcp:ADDR|unix:PATH] [--bench B] [--scheme S]\n\
     \x20                [--seed N] [--scrub N] [--scale paper|quick|smoke]\n\
     \x20                [--warmup N] [--measure N] [--id STR]\n\
     \x20                [--ping | --stats | --shutdown]\n\n\
     Submit one experiment to a running daemon (`exp serve`) and print\n\
     its result as the lossless run-cache text (stdout). The key, cache\n\
     tier, and daemon-side latency go to stderr.\n\n\
     flags:\n\
     \x20 --connect SPEC  daemon endpoint (default tcp:127.0.0.1:7117)\n\
     \x20 --bench B       benchmark name (default: gzip)\n\
     \x20 --scheme S      scheme slug: uniform | parity | uniform_clean:N |\n\
     \x20                 proposed:N | proposed_multi:N:E | silent:N |\n\
     \x20                 reuse:N:M (default: the calibrated proposed\n\
     \x20                 scheme)\n\
     \x20 --seed N        workload seed override\n\
     \x20 --scrub N       background scrub period (cycles per line)\n\
     \x20 --scale S       experiment scale (default: the daemon's)\n\
     \x20 --warmup N      warm-up window override (cycles)\n\
     \x20 --measure N     measured window override (cycles)\n\
     \x20 --id STR        correlation id echoed by the daemon\n\
     \x20 --ping          liveness check instead of a submit\n\
     \x20 --stats         print the daemon's serve.* snapshot JSON\n\
     \x20 --shutdown      request the graceful drain\n\n\
     exit codes: 0 success, 1 daemon unreachable or request failed,\n\
     2 usage error"
        .to_owned()
}

enum SubmitMode {
    Submit,
    Ping,
    Stats,
    Shutdown,
}

/// Runs `exp submit`; returns the process exit code.
#[must_use]
pub fn submit(args: &[String]) -> i32 {
    let mut endpoint = Endpoint::Tcp(DEFAULT_ADDR.to_owned());
    let mut req = SubmitRequest::new(Benchmark::Gzip, crate::experiments::proposed());
    let mut mode = SubmitMode::Submit;
    let parsed = Flags::each(args, |f, flag| {
        match flag {
            "--connect" => endpoint = f.endpoint()?,
            "--bench" => {
                let names = Benchmark::all().map(Benchmark::name).join("|");
                req.bench = f.named("benchmark", &names, |v| {
                    Benchmark::all().into_iter().find(|b| b.name() == v)
                })?;
            }
            "--scheme" => req.scheme = f.scheme()?,
            "--seed" => req.seed = Some(f.uint()?),
            "--scrub" => req.scrub = Some(f.uint()?),
            "--scale" => req.scale = Some(f.scale()?),
            "--warmup" => req.warmup = Some(f.uint()?),
            "--measure" => req.measure = Some(f.uint()?),
            "--id" => req.id = Some(f.value("a string")?.to_owned()),
            "--ping" => mode = SubmitMode::Ping,
            "--stats" => mode = SubmitMode::Stats,
            "--shutdown" => mode = SubmitMode::Shutdown,
            "help" | "--help" | "-h" => return Err(FlagError::Help),
            _ => return Err(f.unknown()),
        }
        Ok(())
    });
    if let Err(e) = parsed {
        return e.exit_code("exp submit", &submit_usage());
    }
    let mut client = match endpoint.connect() {
        Ok(client) => client,
        Err(e) => {
            eprintln!("exp submit: cannot connect to {endpoint}: {e}");
            return 1;
        }
    };
    match mode {
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
        SubmitMode::Submit => match client.submit(&req) {
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

fn hammer_usage() -> String {
    "usage: exp hammer [--connect tcp:ADDR|unix:PATH] [--scale S]\n\
     \x20                [--steps LIST] [--step-ms N] [--seed N]\n\
     \x20                [--warmup N] [--measure N] [--out FILE]\n\
     \x20                [--floor-rps X] [--floor-hit X] [--quiet]\n\n\
     Load-test a running daemon: warm the config pool, then step through\n\
     the concurrency ladder with closed-loop client threads. Every\n\
     response is validated bit-exactly against a direct in-process run;\n\
     per-step p50/p95/p99 latency, throughput, cache-hit and shed rates\n\
     are written to BENCH_serve.json.\n\n\
     flags:\n\
     \x20 --connect SPEC  daemon endpoint (default tcp:127.0.0.1:7117)\n\
     \x20 --scale S       config-pool scale; must match the daemon's\n\
     \x20                 default for its disk cache to line up\n\
     \x20                 (default: smoke)\n\
     \x20 --steps LIST    concurrency ladder (default 2,4,8,16,32)\n\
     \x20 --step-ms N     wall-clock per step (default 2000)\n\
     \x20 --seed N        thread walk-offset seed (default 2006)\n\
     \x20 --warmup N      per-config warm-up window override (cycles)\n\
     \x20 --measure N     per-config measured window override (cycles)\n\
     \x20 --out FILE      report path (default BENCH_serve.json)\n\
     \x20 --floor-rps X   fail (exit 1) below X req/s at the top step\n\
     \x20 --floor-hit X   fail (exit 1) below hit-rate X at the top step\n\
     \x20 --quiet         suppress per-step progress\n\n\
     exit codes: 0 success, 1 violation/floor/connection failure,\n\
     2 usage error"
        .to_owned()
}

/// Runs `exp hammer`; returns the process exit code.
#[must_use]
pub fn hammer(args: &[String]) -> i32 {
    let mut opts = HammerOptions::new(Endpoint::Tcp(DEFAULT_ADDR.to_owned()));
    let parsed = Flags::each(args, |f, flag| {
        match flag {
            "--connect" => opts.endpoint = f.endpoint()?,
            "--scale" => opts.scale = f.scale()?,
            "--steps" => {
                opts.steps = f.parsed("a comma list of positive integers", |v| {
                    let list: Vec<usize> = v
                        .split(',')
                        .map(|s| s.trim().parse().ok())
                        .collect::<Option<_>>()?;
                    (!list.is_empty() && list.iter().all(|&n| n >= 1)).then_some(list)
                })?;
            }
            "--step-ms" => opts.step_ms = f.positive()?,
            "--seed" => opts.seed = f.uint()?,
            "--warmup" => opts.warmup_cycles = Some(f.uint()?),
            "--measure" => opts.measure_cycles = Some(f.positive()?),
            "--out" => opts.out = Some(f.path("a file path")?),
            "--floor-rps" => {
                opts.floor_rps =
                    Some(f.parsed("a positive number", |v| v.parse().ok().filter(|x| *x > 0.0))?);
            }
            "--floor-hit" => opts.floor_hit = Some(f.probability()?),
            "--quiet" => opts.verbose = false,
            "help" | "--help" | "-h" => return Err(FlagError::Help),
            _ => return Err(f.unknown()),
        }
        Ok(())
    });
    if let Err(e) = parsed {
        return e.exit_code("exp hammer", &hammer_usage());
    }
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
