//! The newline-delimited JSON wire protocol.
//!
//! Every request and every response is one JSON object on one line —
//! trivially framable from any language, greppable in transcripts, and
//! parseable with the in-tree [`aep_obs::json`] module (no serde, no
//! crates.io). The grammar (also documented in `DESIGN.md` §3.12):
//!
//! ```text
//! request  = ping | submit | stats | shutdown
//! ping     = {"type":"ping"}
//! submit   = {"type":"submit", "bench":NAME, "scheme":SLUG,
//!             "id"?:STRING, "seed"?:U64, "scrub"?:U64, "scale"?:NAME,
//!             "warmup"?:U64, "measure"?:U64}
//! stats    = {"type":"stats"}
//! shutdown = {"type":"shutdown"}
//!
//! response = pong | result | snapshot | bye | error
//! pong     = {"type":"pong"}
//! result   = {"type":"result", "id"?:STRING, "key":STRING,
//!             "source":"memo"|"disk"|"fresh", "wait_us":U64,
//!             "stats":RUNCACHE_TEXT}
//! snapshot = {"type":"snapshot", "json":STRING}
//! bye      = {"type":"bye"}
//! error    = {"type":"error", "code":CODE, "message":STRING,
//!             "id"?:STRING}
//! CODE     = "malformed" | "unknown_type" | "oversized" |
//!            "bad_request" | "busy" | "draining" | "io"
//! ```
//!
//! `SLUG` is the scheme vocabulary of [`aep_core::scheme_slug`]
//! (`uniform`, `parity`, `uniform_clean:N`, `proposed:N`,
//! `proposed_multi:N:E`). `RUNCACHE_TEXT` is the lossless `key=value`
//! text of [`aep_sim::runcache::render_stats`] embedded as a JSON
//! string — floating-point fields travel as IEEE-754 bit patterns, so a
//! client that parses it back gets a [`RunStats`] *bit-identical* to
//! the daemon's (the hammer harness verifies exactly this on every
//! response).

use aep_core::{parse_scheme_slug, scheme_slug};
use aep_sim::runcache::{parse_stats, render_stats};
use aep_sim::{ExperimentConfig, RunStats, Scale};
use aep_workloads::Benchmark;

use aep_obs::json::{self, Value};

/// Hard ceiling on one request line (bytes, newline included). Lines
/// beyond it are answered with an `oversized` error and discarded
/// without buffering the remainder.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Typed error vocabulary; every failure the daemon can hand back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line is not valid JSON (or not an object).
    Malformed,
    /// The `type` field is missing or names no known request.
    UnknownType,
    /// The line exceeded [`MAX_LINE_BYTES`].
    Oversized,
    /// The request parsed but its fields are invalid (unknown benchmark,
    /// bad scheme slug, zero-cycle window, …).
    BadRequest,
    /// Load shed: the job queue or the per-client in-flight cap is full.
    /// Back off and retry.
    Busy,
    /// The daemon is draining after a `shutdown`; no new work accepted.
    Draining,
    /// An I/O-level failure while serving the request.
    Io,
}

impl ErrorCode {
    /// The wire name of this code.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::UnknownType => "unknown_type",
            ErrorCode::Oversized => "oversized",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Busy => "busy",
            ErrorCode::Draining => "draining",
            ErrorCode::Io => "io",
        }
    }

    /// Parses a wire name back into a code.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "malformed" => ErrorCode::Malformed,
            "unknown_type" => ErrorCode::UnknownType,
            "oversized" => ErrorCode::Oversized,
            "bad_request" => ErrorCode::BadRequest,
            "busy" => ErrorCode::Busy,
            "draining" => ErrorCode::Draining,
            "io" => ErrorCode::Io,
            _ => return None,
        })
    }
}

/// Where a submit response was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The daemon's in-memory memo.
    Memo,
    /// The on-disk [`aep_sim::RunCache`].
    Disk,
    /// Freshly simulated (possibly as one lane of a shared batch; lane
    /// results are byte-identical to solo runs, so the distinction does
    /// not leak into the response).
    Fresh,
}

impl Source {
    /// The wire name of this source.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Source::Memo => "memo",
            Source::Disk => "disk",
            Source::Fresh => "fresh",
        }
    }

    /// Parses a wire name back into a source.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "memo" => Source::Memo,
            "disk" => Source::Disk,
            "fresh" => Source::Fresh,
            _ => return None,
        })
    }

    /// Whether this source counts as a cache hit (no simulation ran).
    #[must_use]
    pub fn is_cache_hit(self) -> bool {
        !matches!(self, Source::Fresh)
    }
}

/// One `submit` request: the experiment configuration in wire form.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Client-chosen correlation id, echoed on the response.
    pub id: Option<String>,
    /// Benchmark name (see [`Benchmark::all`]).
    pub bench: Benchmark,
    /// Protection scheme.
    pub scheme: aep_core::SchemeKind,
    /// Workload seed; defaults to the scale's standard seed.
    pub seed: Option<u64>,
    /// Background scrub period (cycles per line).
    pub scrub: Option<u64>,
    /// Experiment scale; defaults to the daemon's scale.
    pub scale: Option<Scale>,
    /// Warm-up window override (cycles).
    pub warmup: Option<u64>,
    /// Measured window override (cycles).
    pub measure: Option<u64>,
}

impl SubmitRequest {
    /// A plain request for `bench` under `scheme` at the daemon's scale.
    #[must_use]
    pub fn new(bench: Benchmark, scheme: aep_core::SchemeKind) -> Self {
        SubmitRequest {
            id: None,
            bench,
            scheme,
            seed: None,
            scrub: None,
            scale: None,
            warmup: None,
            measure: None,
        }
    }

    /// Resolves this request into the scale it runs at and the full
    /// [`ExperimentConfig`], applying the daemon default scale and any
    /// window overrides.
    ///
    /// # Errors
    ///
    /// Rejects a zero-cycle measured window (the runner's contract).
    pub fn to_config(&self, default_scale: Scale) -> Result<(Scale, ExperimentConfig), String> {
        let scale = self.scale.unwrap_or(default_scale);
        let mut cfg = scale.config(self.bench, self.scheme);
        if let Some(seed) = self.seed {
            cfg.seed = seed;
        }
        cfg.scrub_period = self.scrub;
        if let Some(warmup) = self.warmup {
            cfg.warmup_cycles = warmup;
        }
        if let Some(measure) = self.measure {
            if measure == 0 {
                return Err("measure must be at least 1 cycle".into());
            }
            cfg.measure_cycles = measure;
        }
        Ok((scale, cfg))
    }

    /// Renders this request as one wire line (no trailing newline).
    #[must_use]
    pub fn render(&self) -> String {
        let mut line = String::from("{\"type\":\"submit\"");
        if let Some(id) = &self.id {
            line.push_str(&format!(",\"id\":{}", json::escape(id)));
        }
        line.push_str(&format!(",\"bench\":{}", json::escape(self.bench.name())));
        line.push_str(&format!(
            ",\"scheme\":{}",
            json::escape(&scheme_slug(self.scheme))
        ));
        if let Some(seed) = self.seed {
            line.push_str(&format!(",\"seed\":{seed}"));
        }
        if let Some(scrub) = self.scrub {
            line.push_str(&format!(",\"scrub\":{scrub}"));
        }
        if let Some(scale) = self.scale {
            line.push_str(&format!(",\"scale\":{}", json::escape(scale.name())));
        }
        if let Some(warmup) = self.warmup {
            line.push_str(&format!(",\"warmup\":{warmup}"));
        }
        if let Some(measure) = self.measure {
            line.push_str(&format!(",\"measure\":{measure}"));
        }
        line.push('}');
        line
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Run (or recall) one experiment configuration.
    Submit(Box<SubmitRequest>),
    /// Snapshot the daemon's `serve.*` observability registry.
    Stats,
    /// Begin graceful drain: finish in-flight work, then exit.
    Shutdown,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns the typed error (and a human message) the daemon should send
/// back: `malformed` for JSON-level failures, `unknown_type` for an
/// unrecognized `type`, `bad_request` for field-level problems.
pub fn parse_request(line: &str) -> Result<Request, (ErrorCode, String)> {
    let value =
        json::parse(line).map_err(|e| (ErrorCode::Malformed, format!("invalid JSON: {e}")))?;
    let Some(obj) = value.as_object() else {
        return Err((ErrorCode::Malformed, "request is not a JSON object".into()));
    };
    let Some(kind) = obj.get("type").and_then(Value::as_str) else {
        return Err((
            ErrorCode::UnknownType,
            "missing or non-string \"type\" field".into(),
        ));
    };
    match kind {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "submit" => {
            let id = obj.get("id").and_then(Value::as_str).map(str::to_string);
            let bad = |msg: String| (ErrorCode::BadRequest, msg);
            let bench_name = obj
                .get("bench")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("submit needs a string \"bench\" field".into()))?;
            let bench = Benchmark::all()
                .into_iter()
                .find(|b| b.name() == bench_name)
                .ok_or_else(|| bad(format!("unknown benchmark {bench_name:?}")))?;
            let slug = obj
                .get("scheme")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("submit needs a string \"scheme\" field".into()))?;
            let scheme = parse_scheme_slug(slug)
                .ok_or_else(|| bad(format!("unknown scheme slug {slug:?}")))?;
            let u64_field = |name: &str| -> Result<Option<u64>, (ErrorCode, String)> {
                match obj.get(name) {
                    None | Some(Value::Null) => Ok(None),
                    Some(v) => v
                        .as_u64()
                        .map(Some)
                        .ok_or_else(|| bad(format!("\"{name}\" must be an unsigned integer"))),
                }
            };
            let scale = match obj.get("scale") {
                None | Some(Value::Null) => None,
                Some(v) => {
                    let name = v
                        .as_str()
                        .ok_or_else(|| bad("\"scale\" must be a string".into()))?;
                    Some(Scale::parse(name).ok_or_else(|| bad(format!("unknown scale {name:?}")))?)
                }
            };
            Ok(Request::Submit(Box::new(SubmitRequest {
                id,
                bench,
                scheme,
                seed: u64_field("seed")?,
                scrub: u64_field("scrub")?,
                scale,
                warmup: u64_field("warmup")?,
                measure: u64_field("measure")?,
            })))
        }
        other => Err((
            ErrorCode::UnknownType,
            format!("unknown request type {other:?}"),
        )),
    }
}

/// A parsed response line (the client half of the protocol).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to `ping`.
    Pong,
    /// A finished submit.
    Result {
        /// Echo of the request's correlation id.
        id: Option<String>,
        /// The run-cache key the configuration resolved to.
        key: String,
        /// Which tier satisfied it.
        source: Source,
        /// Microseconds from admission to completion inside the daemon.
        wait_us: u64,
        /// The run's statistics, bit-identical to a direct run.
        stats: Box<RunStats>,
    },
    /// Reply to `stats`: the `serve.*` snapshot JSON text.
    Snapshot(String),
    /// Reply to `shutdown`: drain acknowledged.
    Bye,
    /// Any failure.
    Error {
        /// The typed code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// Echo of the request's correlation id, when one was parsed.
        id: Option<String>,
    },
}

/// Renders a `pong` line.
#[must_use]
pub fn render_pong() -> String {
    "{\"type\":\"pong\"}".to_string()
}

/// Renders a `bye` line.
#[must_use]
pub fn render_bye() -> String {
    "{\"type\":\"bye\"}".to_string()
}

/// Renders an `error` line.
#[must_use]
pub fn render_error(code: ErrorCode, message: &str, id: Option<&str>) -> String {
    let mut line = format!(
        "{{\"type\":\"error\",\"code\":{},\"message\":{}",
        json::escape(code.name()),
        json::escape(message)
    );
    if let Some(id) = id {
        line.push_str(&format!(",\"id\":{}", json::escape(id)));
    }
    line.push('}');
    line
}

/// Renders a `result` line; the stats travel as the lossless run-cache
/// text so the round trip is bit-exact.
#[must_use]
pub fn render_result(
    id: Option<&str>,
    key: &str,
    source: Source,
    wait_us: u64,
    stats: &RunStats,
) -> String {
    let mut line = String::from("{\"type\":\"result\"");
    if let Some(id) = id {
        line.push_str(&format!(",\"id\":{}", json::escape(id)));
    }
    line.push_str(&format!(
        ",\"key\":{},\"source\":{},\"wait_us\":{wait_us},\"stats\":{}}}",
        json::escape(key),
        json::escape(source.name()),
        json::escape(&render_stats(stats))
    ));
    line
}

/// Renders a `snapshot` line embedding the registry snapshot JSON text.
#[must_use]
pub fn render_snapshot(snapshot_json: &str) -> String {
    format!(
        "{{\"type\":\"snapshot\",\"json\":{}}}",
        json::escape(snapshot_json)
    )
}

/// Parses one response line.
///
/// # Errors
///
/// Describes the first protocol violation (bad JSON, missing fields,
/// undecodable embedded stats).
pub fn parse_response(line: &str) -> Result<Response, String> {
    let value = json::parse(line).map_err(|e| format!("invalid response JSON: {e}"))?;
    let obj = value.as_object().ok_or("response is not a JSON object")?;
    let kind = obj
        .get("type")
        .and_then(Value::as_str)
        .ok_or("response has no \"type\"")?;
    match kind {
        "pong" => Ok(Response::Pong),
        "bye" => Ok(Response::Bye),
        "snapshot" => Ok(Response::Snapshot(
            obj.get("json")
                .and_then(Value::as_str)
                .ok_or("snapshot has no \"json\" string")?
                .to_string(),
        )),
        "result" => {
            let stats_text = obj
                .get("stats")
                .and_then(Value::as_str)
                .ok_or("result has no \"stats\" string")?;
            let stats = parse_stats(stats_text).ok_or("result \"stats\" text failed to parse")?;
            let source_name = obj
                .get("source")
                .and_then(Value::as_str)
                .ok_or("result has no \"source\"")?;
            Ok(Response::Result {
                id: obj.get("id").and_then(Value::as_str).map(str::to_string),
                key: obj
                    .get("key")
                    .and_then(Value::as_str)
                    .ok_or("result has no \"key\"")?
                    .to_string(),
                source: Source::parse(source_name)
                    .ok_or_else(|| format!("unknown source {source_name:?}"))?,
                wait_us: obj
                    .get("wait_us")
                    .and_then(Value::as_u64)
                    .ok_or("result has no \"wait_us\"")?,
                stats: Box::new(stats),
            })
        }
        "error" => {
            let code_name = obj
                .get("code")
                .and_then(Value::as_str)
                .ok_or("error has no \"code\"")?;
            Ok(Response::Error {
                code: ErrorCode::parse(code_name)
                    .ok_or_else(|| format!("unknown error code {code_name:?}"))?,
                message: obj
                    .get("message")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
                id: obj.get("id").and_then(Value::as_str).map(str::to_string),
            })
        }
        other => Err(format!("unknown response type {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aep_core::SchemeKind;

    #[test]
    fn submit_roundtrips_through_the_wire_form() {
        let mut req = SubmitRequest::new(Benchmark::Gzip, SchemeKind::ParityOnly);
        req.id = Some("r-1".into());
        req.seed = Some(7);
        req.scrub = Some(4096);
        req.scale = Some(Scale::Smoke);
        req.warmup = Some(1000);
        req.measure = Some(2000);
        let line = req.render();
        match parse_request(&line).expect("parses") {
            Request::Submit(parsed) => assert_eq!(*parsed, req),
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn submit_resolves_to_the_scale_config() {
        let mut req = SubmitRequest::new(Benchmark::Mcf, SchemeKind::Uniform);
        req.scrub = Some(1 << 12);
        let (scale, cfg) = req.to_config(Scale::Smoke).expect("resolves");
        assert_eq!(scale, Scale::Smoke);
        let mut expect = Scale::Smoke.config(Benchmark::Mcf, SchemeKind::Uniform);
        expect.scrub_period = Some(1 << 12);
        // ExperimentConfig carries no PartialEq; the content-addressed
        // cache key covers every field that matters.
        assert_eq!(
            aep_sim::RunCache::key("smoke", &cfg),
            aep_sim::RunCache::key("smoke", &expect)
        );
        assert_eq!(cfg.scrub_period, Some(1 << 12));
        // Zero-cycle measured window is the runner's panic condition;
        // the protocol rejects it before the engine ever sees it.
        req.measure = Some(0);
        assert!(req.to_config(Scale::Smoke).is_err());
    }

    #[test]
    fn request_errors_are_typed() {
        let code = |line: &str| parse_request(line).unwrap_err().0;
        assert_eq!(code("not json"), ErrorCode::Malformed);
        assert_eq!(code("[1,2]"), ErrorCode::Malformed);
        assert_eq!(code("{\"no\":\"type\"}"), ErrorCode::UnknownType);
        assert_eq!(code("{\"type\":\"frobnicate\"}"), ErrorCode::UnknownType);
        assert_eq!(code("{\"type\":\"submit\"}"), ErrorCode::BadRequest);
        assert_eq!(
            code("{\"type\":\"submit\",\"bench\":\"gzip\",\"scheme\":\"nope\"}"),
            ErrorCode::BadRequest
        );
        assert_eq!(
            code("{\"type\":\"submit\",\"bench\":\"gzip\",\"scheme\":\"uniform\",\"seed\":-1}"),
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn result_line_is_bit_exact() {
        let mut cfg = ExperimentConfig::fast_test(Benchmark::Gzip, SchemeKind::Uniform);
        cfg.warmup_cycles = 1_000;
        cfg.measure_cycles = 2_000;
        let mut stats = aep_sim::Runner::new(cfg).run();
        stats.ipc = f64::from_bits(0x7ff8_dead_beef_0123); // NaN payload
        let line = render_result(Some("x"), "key-1", Source::Fresh, 42, &stats);
        match parse_response(&line).expect("parses") {
            Response::Result {
                id,
                key,
                source,
                wait_us,
                stats: parsed,
            } => {
                assert_eq!(id.as_deref(), Some("x"));
                assert_eq!(key, "key-1");
                assert_eq!(source, Source::Fresh);
                assert_eq!(wait_us, 42);
                assert_eq!(parsed.ipc.to_bits(), stats.ipc.to_bits());
                assert_eq!(parsed.committed, stats.committed);
            }
            other => panic!("expected result, got {other:?}"),
        }
    }

    #[test]
    fn error_and_control_lines_roundtrip() {
        assert_eq!(parse_response(&render_pong()), Ok(Response::Pong));
        assert_eq!(parse_response(&render_bye()), Ok(Response::Bye));
        let line = render_error(ErrorCode::Busy, "queue full (depth 64)", Some("id-9"));
        assert_eq!(
            parse_response(&line),
            Ok(Response::Error {
                code: ErrorCode::Busy,
                message: "queue full (depth 64)".into(),
                id: Some("id-9".into()),
            })
        );
    }
}
