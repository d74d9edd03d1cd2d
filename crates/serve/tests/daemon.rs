//! Black-box tests of a live daemon over real sockets.
//!
//! Every test spawns its own in-process daemon on an OS-assigned
//! loopback port (`127.0.0.1:0`) and talks to it exactly the way an
//! external client would — bytes on a socket, nothing shared but the
//! protocol. The adversarial cases (malformed JSON, unknown types,
//! oversized lines, mid-request disconnects, double shutdown) must all
//! yield *typed* errors and leave the daemon serving.

use std::io::Write as _;
use std::net::TcpStream;

use aep_core::SchemeKind;
use aep_obs::{StatValue, StatsSnapshot};
use aep_serve::engine::EngineConfig;
use aep_serve::{
    Client, ClientError, DaemonConfig, Endpoint, ErrorCode, Response, ServeHandle, Source,
    SubmitRequest, MAX_LINE_BYTES,
};
use aep_sim::runcache::render_stats;
use aep_sim::{Runner, Scale};
use aep_workloads::Benchmark;

/// Spawns a daemon on a fresh loopback port, returning the handle and a
/// connected client.
fn daemon(configure: impl FnOnce(&mut DaemonConfig)) -> (ServeHandle, Endpoint) {
    let mut engine = EngineConfig::new(Scale::Smoke);
    engine.jobs = 2;
    engine.disk = None;
    let mut cfg = DaemonConfig::new(engine);
    configure(&mut cfg);
    let handle = aep_serve::spawn(cfg).expect("daemon spawns");
    let addr = handle.tcp_addr.expect("tcp endpoint");
    (handle, Endpoint::Tcp(addr.to_string()))
}

fn connect(endpoint: &Endpoint) -> Client {
    endpoint.connect().expect("client connects")
}

/// A submit with tiny windows so debug-mode tests stay fast.
fn tiny_submit(bench: Benchmark, scheme: SchemeKind) -> SubmitRequest {
    let mut req = SubmitRequest::new(bench, scheme);
    req.warmup = Some(2_000);
    req.measure = Some(3_000);
    req
}

fn shutdown_and_join(endpoint: &Endpoint, handle: ServeHandle) {
    let mut client = connect(endpoint);
    client.shutdown().expect("shutdown acknowledged");
    handle.join();
}

fn error_code(line: &str) -> ErrorCode {
    match aep_serve::protocol::parse_response(line).expect("daemon speaks the protocol") {
        Response::Error { code, .. } => code,
        other => panic!("expected an error line, got {other:?}"),
    }
}

#[test]
fn hostile_lines_get_typed_errors_and_the_daemon_keeps_serving() {
    let (handle, endpoint) = daemon(|_| {});
    let mut client = connect(&endpoint);

    // Malformed JSON, non-object JSON, missing type, unknown type, and
    // field-level garbage: each is a typed error on the same connection.
    let reply = client.roundtrip_line("this is not json").expect("reply");
    assert_eq!(error_code(&reply), ErrorCode::Malformed);
    let reply = client.roundtrip_line("[1,2,3]").expect("reply");
    assert_eq!(error_code(&reply), ErrorCode::Malformed);
    let reply = client.roundtrip_line("{\"no\":\"type\"}").expect("reply");
    assert_eq!(error_code(&reply), ErrorCode::UnknownType);
    let reply = client
        .roundtrip_line("{\"type\":\"frobnicate\"}")
        .expect("reply");
    assert_eq!(error_code(&reply), ErrorCode::UnknownType);
    let reply = client
        .roundtrip_line("{\"type\":\"submit\",\"bench\":\"nope\",\"scheme\":\"uniform\"}")
        .expect("reply");
    assert_eq!(error_code(&reply), ErrorCode::BadRequest);
    let reply = client
        .roundtrip_line(
            "{\"type\":\"submit\",\"bench\":\"gzip\",\"scheme\":\"uniform\",\"measure\":0}",
        )
        .expect("reply");
    assert_eq!(error_code(&reply), ErrorCode::BadRequest);

    // An oversized line is discarded (not buffered) and typed.
    let huge = format!(
        "{{\"type\":\"ping\",\"pad\":\"{}\"}}",
        "x".repeat(MAX_LINE_BYTES)
    );
    let reply = client.roundtrip_line(&huge).expect("reply");
    assert_eq!(error_code(&reply), ErrorCode::Oversized);

    // After all of that, the same connection still serves real work.
    client.ping().expect("ping still works");
    let reply = client
        .submit(&tiny_submit(Benchmark::Gzip, SchemeKind::Uniform))
        .expect("submit still works");
    assert_eq!(reply.source, Source::Fresh);

    shutdown_and_join(&endpoint, handle);
}

#[test]
fn deeply_nested_lines_are_malformed_not_a_stack_overflow() {
    let (handle, endpoint) = daemon(|_| {});
    let mut client = connect(&endpoint);

    // Fits under the line limit, yet nests far deeper than any thread
    // stack could recurse: it must be a typed error, not an abort.
    for line in ["[".repeat(65_000), "{\"a\":".repeat(13_000)] {
        assert!(line.len() < MAX_LINE_BYTES);
        let reply = client.roundtrip_line(&line).expect("reply");
        assert_eq!(error_code(&reply), ErrorCode::Malformed);
    }
    client.ping().expect("ping still gets pong");

    shutdown_and_join(&endpoint, handle);
}

#[test]
fn mid_request_disconnect_leaves_the_daemon_serving() {
    let (handle, endpoint) = daemon(|_| {});

    // Half a request, then the socket vanishes.
    let Endpoint::Tcp(addr) = &endpoint else {
        unreachable!()
    };
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    raw.write_all(b"{\"type\":\"sub").expect("partial write");
    drop(raw);

    // A submit whose client disconnects before reading the result.
    let mut impatient = connect(&endpoint);
    let line = tiny_submit(Benchmark::Mcf, SchemeKind::Uniform).render();
    let _ = impatient.roundtrip_line(&line); // may disconnect before the result lands
    drop(impatient);

    // The daemon is unbothered either way.
    let mut client = connect(&endpoint);
    client.ping().expect("daemon still answers");
    let reply = client
        .submit(&tiny_submit(Benchmark::Gzip, SchemeKind::ParityOnly))
        .expect("daemon still simulates");
    assert!(matches!(reply.source, Source::Fresh | Source::Memo));

    shutdown_and_join(&endpoint, handle);
}

#[test]
fn double_shutdown_is_a_typed_draining_error_and_drain_completes() {
    let (handle, endpoint) = daemon(|_| {});
    let mut client = connect(&endpoint);

    // Pipeline three lines in one write: shutdown, a second shutdown,
    // and a submit. The daemon must answer, in order: bye, a typed
    // `draining` error, and a `draining` shed for the submit.
    let submit_line = tiny_submit(Benchmark::Gzip, SchemeKind::Uniform).render();
    let first = client
        .roundtrip_line(&format!(
            "{{\"type\":\"shutdown\"}}\n{{\"type\":\"shutdown\"}}\n{submit_line}"
        ))
        .expect("bye line");
    assert_eq!(
        aep_serve::protocol::parse_response(&first).expect("protocol"),
        Response::Bye
    );
    let second = client.read_line().expect("second reply");
    assert_eq!(error_code(&second), ErrorCode::Draining);
    let third = client.read_line().expect("third reply");
    assert_eq!(error_code(&third), ErrorCode::Draining);

    handle.join();
}

#[test]
fn drain_completes_inflight_work_before_stopping() {
    let (handle, endpoint) = daemon(|cfg| cfg.engine.jobs = 1);
    let mut worker = connect(&endpoint);
    // Pipeline a fresh (slow) submit and a shutdown behind it. The
    // daemon must deliver the simulation result before the bye — a
    // graceful drain never drops admitted work.
    let submit_line = tiny_submit(Benchmark::Gap, SchemeKind::Uniform).render();
    let first = worker
        .roundtrip_line(&format!("{submit_line}\n{{\"type\":\"shutdown\"}}"))
        .expect("first reply");
    match aep_serve::protocol::parse_response(&first).expect("protocol") {
        Response::Result { source, .. } => assert_eq!(source, Source::Fresh),
        other => panic!("expected the admitted result first, got {other:?}"),
    }
    let second = worker.read_line().expect("second reply");
    assert_eq!(
        aep_serve::protocol::parse_response(&second).expect("protocol"),
        Response::Bye
    );
    assert!(
        handle_stopped_eventually(&handle),
        "drain must reach the stopped state"
    );
    handle.join();
}

fn handle_stopped_eventually(handle: &ServeHandle) -> bool {
    for _ in 0..100 {
        if handle.is_stopped() {
            return true;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    false
}

#[cfg(unix)]
#[test]
fn unix_socket_endpoint_serves_and_cleans_up() {
    let path = std::env::temp_dir().join(format!("aep-serve-test-{}.sock", std::process::id()));
    let (handle, _tcp) = daemon(|cfg| {
        cfg.unix = Some(path.clone());
    });
    let endpoint = Endpoint::Unix(path.clone());
    let mut client = connect(&endpoint);
    client.ping().expect("unix ping");
    let reply = client
        .submit(&tiny_submit(Benchmark::Gzip, SchemeKind::Uniform))
        .expect("unix submit");
    assert_eq!(reply.source, Source::Fresh);
    client.shutdown().expect("unix shutdown");
    handle.join();
    assert!(
        !path.exists(),
        "socket file must be removed on clean shutdown"
    );
}

/// The seeded concurrency property: N client threads × R rounds over M
/// distinct configurations — every response byte-identical to a serial
/// in-process run, and the daemon's own counters prove each distinct
/// configuration was simulated exactly once (dedup + memo absorbed the
/// rest).
#[test]
fn concurrent_submissions_match_serial_and_simulate_each_config_once() {
    const THREADS: usize = 6;
    const ROUNDS: usize = 2;
    let pool: Vec<SubmitRequest> = [
        (Benchmark::Gzip, SchemeKind::Uniform),
        (Benchmark::Gzip, SchemeKind::ParityOnly),
        (
            Benchmark::Mcf,
            SchemeKind::Proposed {
                cleaning_interval: 1 << 20,
            },
        ),
        (Benchmark::Mcf, SchemeKind::Uniform),
    ]
    .into_iter()
    .map(|(bench, scheme)| tiny_submit(bench, scheme))
    .collect();

    // Serial ground truth, computed before the daemon exists.
    let expected: Vec<String> = pool
        .iter()
        .map(|req| {
            let (_, cfg) = req.to_config(Scale::Smoke).expect("config resolves");
            render_stats(&Runner::new(cfg).run())
        })
        .collect();

    let (handle, endpoint) = daemon(|_| {});
    std::thread::scope(|scope| {
        for thread_id in 0..THREADS {
            let pool = &pool;
            let expected = &expected;
            let endpoint = &endpoint;
            scope.spawn(move || {
                let mut client = connect(endpoint);
                let mut rng = aep_rng::SmallRng::seed_from_u64(2006 + thread_id as u64);
                for _ in 0..ROUNDS {
                    // A seeded shuffle of the pool order per round, so
                    // threads interleave differently every time while
                    // the whole run stays reproducible.
                    let mut order: Vec<usize> = (0..pool.len()).collect();
                    for i in (1..order.len()).rev() {
                        let j = rng.gen_range(0..(i + 1) as u64) as usize;
                        order.swap(i, j);
                    }
                    for idx in order {
                        let reply = match client.submit(&pool[idx]) {
                            Ok(reply) => reply,
                            Err(ClientError::Shed(..)) => continue, // never expected here
                            Err(e) => panic!("submit failed: {e}"),
                        };
                        assert_eq!(
                            render_stats(&reply.stats),
                            expected[idx],
                            "daemon response for config {idx} must be byte-identical \
                             to the serial run"
                        );
                    }
                }
            });
        }
    });

    // The daemon's own accounting: every distinct config simulated
    // exactly once; every other submission was a memo hit or a dedup
    // join onto the in-flight run.
    let mut client = connect(&endpoint);
    let snapshot =
        StatsSnapshot::from_json(&client.stats_json().expect("stats")).expect("snapshot parses");
    let counter = |name: &str| -> u64 {
        match snapshot.stats.get(name) {
            Some(StatValue::Counter(n)) => *n,
            other => panic!("{name} missing or not a counter: {other:?}"),
        }
    };
    let distinct = pool.len() as u64;
    let total = (THREADS * ROUNDS * pool.len()) as u64;
    assert_eq!(counter("serve.evaluated"), distinct);
    assert_eq!(counter("serve.admitted"), distinct);
    assert_eq!(
        counter("serve.memo_hits") + counter("serve.dedup_joins"),
        total - distinct,
        "every non-first submission is absorbed by the memo or dedup"
    );
    assert_eq!(counter("serve.shed_queue_full"), 0);
    assert_eq!(counter("serve.shed_draining"), 0);

    shutdown_and_join(&endpoint, handle);
}
