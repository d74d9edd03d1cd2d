//! Simulation-as-a-service for the AEP reproduction.
//!
//! `exp` is a batch tool: every invocation pays the full process
//! start-up, cache hydration, and thread-pool spin-up before the first
//! simulated cycle. This crate keeps all of that warm behind a socket.
//! A persistent daemon ([`daemon::spawn`], `exp serve`) owns one shared
//! [`engine::Engine`] — sharded result memo, the on-disk
//! [`aep_sim::RunCache`], and a lane-batching worker pool — and speaks
//! a newline-delimited JSON protocol ([`protocol`]) over TCP and/or a
//! Unix-domain socket. Thin clients ([`client::Client`], `exp submit`)
//! get experiment results with sub-millisecond warm-path latency, and
//! the in-tree load harness ([`hammer`], `exp hammer`) proves the
//! numbers while validating every response bit-exactly against a
//! direct in-process run.
//!
//! Everything here is `std`-only — the sockets, the thread pool, and
//! the JSON ([`aep_obs::json`]) — because the workspace builds with no
//! crates.io access.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod engine;
pub mod hammer;
pub mod protocol;

/// Alias kept only because `perfbench/` imports `aep_serve::json`.
pub use aep_obs::json;

pub use client::{Client, ClientError, Endpoint, SubmitReply};
pub use daemon::{spawn, DaemonConfig, ServeHandle};
pub use engine::{Engine, EngineConfig, Submission, Ticket};
pub use hammer::{HammerOptions, HammerReport};
pub use protocol::{ErrorCode, Request, Response, Source, SubmitRequest, MAX_LINE_BYTES};
