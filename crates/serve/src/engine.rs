//! The experiment engine: the one executor behind `exp`, the
//! design-space explorer and the daemon.
//!
//! One [`Engine`] owns an in-memory memo of finished runs (sharded,
//! keyed by the content-addressed [`RunCache`] key), the optional
//! on-disk cache, and a worker pool kept hot across requests. Every run
//! any client asks for resolves through its three tiers — memo, disk,
//! fresh simulation. The daemon submits one request at a time; the
//! figure pipeline's `Lab` (in `aep-bench`) submits each figure's or
//! explorer batch's whole plan at once with [`Engine::submit_all`], with
//! admission control effectively off (`queue_depth: usize::MAX`). On top
//! of the tiers the engine adds two service-layer behaviours:
//!
//! * **Admission control.** The number of admitted-but-unfinished runs
//!   is bounded (`queue_depth`); past it, submissions shed with a typed
//!   busy outcome instead of queueing unboundedly. Draining engines shed
//!   everything.
//! * **Deduplication.** A submission whose key is already in flight
//!   subscribes to the existing execution instead of starting another —
//!   N clients asking for the same configuration cost one simulation.
//!
//! Admitted misses flow through a scheduler thread that probes the disk
//! tier and groups the remainder with [`aep_sim::plan_lane_jobs`], so
//! directive-free configurations — one plan's or concurrent clients' —
//! batch onto shared lanes. Workers execute the planned jobs and fulfill
//! every subscribed waiter.
//!
//! Everything is observable: counters and per-stage latency histograms
//! publish under the `serve.*` scope via [`Engine::snapshot_json`].

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aep_obs::{Histogram, Registry, StatsSnapshot};
use aep_sim::runcache::RunCache;
use aep_sim::{plan_lane_jobs, ExperimentConfig, LaneJob, LaneSpec, RunStats, Runner, Scale};

use crate::protocol::Source;

/// Memo shard count: cache-hit lookups contend only within a shard, so
/// the hot path of a warm daemon stays parallel across client threads.
const MEMO_SHARDS: usize = 16;

/// How long the scheduler lingers after the first pending submission
/// before planning, so near-simultaneous submissions from concurrent
/// clients coalesce into one lane-batched plan.
const COALESCE_WINDOW: Duration = Duration::from_micros(500);

/// Engine sizing and policy.
#[derive(Debug)]
pub struct EngineConfig {
    /// Default scale for submissions that name none.
    pub scale: Scale,
    /// Worker threads executing fresh simulations.
    pub jobs: usize,
    /// Maximum admitted-but-unfinished runs before shedding.
    pub queue_depth: usize,
    /// Optional persistent result cache (shared with `exp`/`Lab` runs).
    pub disk: Option<RunCache>,
    /// Progress lines on stderr.
    pub verbose: bool,
}

impl EngineConfig {
    /// Defaults: machine-sized worker pool, queue depth 256, no disk.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        EngineConfig {
            scale,
            jobs: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(2),
            queue_depth: 256,
            disk: None,
            verbose: false,
        }
    }
}

/// What happened to a submission at admission time.
pub enum Submission {
    /// Resolved instantly from the memo.
    Ready {
        /// The run-cache key it resolved to.
        key: String,
        /// The memoized result.
        stats: Arc<RunStats>,
    },
    /// Admitted (or deduplicated onto an in-flight run); wait on the
    /// ticket for the result.
    Pending {
        /// The run-cache key it resolved to.
        key: String,
        /// Completion handle.
        ticket: Ticket,
    },
    /// Shed: the queue is at its depth limit. Back off and retry.
    Busy,
    /// Shed: the engine is draining and accepts no new work.
    Draining,
}

/// A completed run as delivered to waiters.
type Fulfilled = (Arc<RunStats>, Source, u64);

struct ResultCell {
    slot: Mutex<Option<Result<Fulfilled, String>>>,
    ready: Condvar,
}

/// Completion handle for an admitted submission.
pub struct Ticket {
    cell: Arc<ResultCell>,
}

impl Ticket {
    /// Blocks until the run completes, returning the stats, the tier
    /// that produced them, and the microseconds from admission to
    /// completion.
    ///
    /// # Errors
    ///
    /// Reports a simulation worker panic (the run is not retried).
    pub fn wait(&self) -> Result<Fulfilled, String> {
        let mut slot = self.cell.slot.lock().expect("result cell poisoned");
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            slot = self.cell.ready.wait(slot).expect("result cell poisoned");
        }
    }
}

struct PendingRun {
    key: String,
    cfg: ExperimentConfig,
    admitted: Instant,
}

struct Inflight {
    waiters: Vec<Arc<ResultCell>>,
}

struct SchedState {
    pending: Vec<PendingRun>,
    inflight: HashMap<String, Inflight>,
    /// Admitted-but-unfinished runs (pending + executing distinct keys).
    depth: usize,
    draining: bool,
}

/// Monotonic service counters, all lock-free.
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    errors: AtomicU64,
    connections: AtomicU64,
    admitted: AtomicU64,
    memo_hits: AtomicU64,
    disk_hits: AtomicU64,
    dedup_joins: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_client_cap: AtomicU64,
    shed_draining: AtomicU64,
    evaluated: AtomicU64,
    lane_batches: AtomicU64,
    lane_batched_runs: AtomicU64,
    solo_runs: AtomicU64,
    queue_peak: AtomicU64,
}

struct Shared {
    scale: Scale,
    jobs: usize,
    queue_depth: usize,
    disk: Option<RunCache>,
    verbose: bool,
    memo: Vec<Mutex<HashMap<String, Arc<RunStats>>>>,
    sched: Mutex<SchedState>,
    work_ready: Condvar,
    counters: Counters,
    wait_us: Mutex<Histogram>,
    exec_us: Mutex<Histogram>,
    total_us: Mutex<Histogram>,
}

enum WorkItem {
    Solo(Box<PendingRun>),
    Batch {
        cfg: Box<ExperimentConfig>,
        specs: Vec<LaneSpec>,
        runs: Vec<PendingRun>,
    },
}

/// The persistent engine: memo + disk cache + scheduler + worker pool.
pub struct Engine {
    shared: Arc<Shared>,
    scheduler: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Engine {
    /// Starts the engine: one scheduler thread plus `jobs` workers.
    #[must_use]
    pub fn new(cfg: EngineConfig) -> Self {
        let jobs = cfg.jobs.max(1);
        let shared = Arc::new(Shared {
            scale: cfg.scale,
            jobs,
            queue_depth: cfg.queue_depth.max(1),
            disk: cfg.disk,
            verbose: cfg.verbose,
            memo: (0..MEMO_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            sched: Mutex::new(SchedState {
                pending: Vec::new(),
                inflight: HashMap::new(),
                depth: 0,
                draining: false,
            }),
            work_ready: Condvar::new(),
            counters: Counters::default(),
            wait_us: Mutex::new(Histogram::new()),
            exec_us: Mutex::new(Histogram::new()),
            total_us: Mutex::new(Histogram::new()),
        });
        let (tx, rx) = mpsc::channel::<WorkItem>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..jobs)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))
                    .expect("spawn worker")
            })
            .collect();
        let scheduler = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-scheduler".into())
                .spawn(move || scheduler_loop(&shared, &tx))
                .expect("spawn scheduler")
        };
        Engine {
            shared,
            scheduler: Some(scheduler),
            workers,
        }
    }

    /// The engine's default scale.
    #[must_use]
    pub fn scale(&self) -> Scale {
        self.shared.scale
    }

    /// Submits one configuration, resolving it against the memo or
    /// admitting it (with dedup) into the execution pipeline.
    #[must_use]
    pub fn submit(&self, scale: Scale, cfg: ExperimentConfig) -> Submission {
        let shared = &*self.shared;
        let key = RunCache::key(scale.name(), &cfg);
        if let Some(stats) = shared.memo_get(&key) {
            shared.counters.memo_hits.fetch_add(1, Ordering::Relaxed);
            return Submission::Ready { key, stats };
        }
        let mut s = shared.sched.lock().expect("scheduler state poisoned");
        shared.admit(&mut s, key, cfg)
    }

    /// Submits a whole plan under one scheduler lock, so the scheduler
    /// takes it as one batch and lane-plans it together rather than as
    /// however many pieces the coalescing window happened to catch.
    /// Outcomes are in plan order.
    #[must_use]
    pub fn submit_all(
        &self,
        scale: Scale,
        cfgs: impl IntoIterator<Item = ExperimentConfig>,
    ) -> Vec<Submission> {
        let shared = &*self.shared;
        let mut s = shared.sched.lock().expect("scheduler state poisoned");
        cfgs.into_iter()
            .map(|cfg| shared.admit(&mut s, RunCache::key(scale.name(), &cfg), cfg))
            .collect()
    }

    /// The memoized result of `cfg` at `scale`, if a run of it has
    /// completed. Never starts a run and counts no request.
    #[must_use]
    pub fn memo_get(&self, scale: Scale, cfg: &ExperimentConfig) -> Option<Arc<RunStats>> {
        self.shared.memo_get(&RunCache::key(scale.name(), cfg))
    }

    /// Convenience for in-process callers: submit and block until done.
    ///
    /// # Errors
    ///
    /// Propagates shed outcomes and worker failures as messages.
    pub fn submit_and_wait(
        &self,
        scale: Scale,
        cfg: ExperimentConfig,
    ) -> Result<(String, Arc<RunStats>, Source), String> {
        match self.submit(scale, cfg) {
            Submission::Ready { key, stats } => Ok((key, stats, Source::Memo)),
            Submission::Pending { key, ticket } => {
                let (stats, source, _) = ticket.wait()?;
                Ok((key, stats, source))
            }
            Submission::Busy => Err("busy: queue full".into()),
            Submission::Draining => Err("draining".into()),
        }
    }

    /// Whether the engine is draining (set once, never cleared).
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shared
            .sched
            .lock()
            .expect("scheduler state poisoned")
            .draining
    }

    /// Begins the graceful drain: every already-admitted run completes
    /// and fulfills its waiters; new submissions shed with
    /// [`Submission::Draining`]. Idempotent.
    pub fn begin_drain(&self) {
        let mut s = self.shared.sched.lock().expect("scheduler state poisoned");
        s.draining = true;
        self.shared.work_ready.notify_all();
    }

    /// Drains and joins the scheduler and every worker. Call after
    /// [`Engine::begin_drain`]; blocks until in-flight work finishes.
    pub fn join(mut self) {
        self.begin_drain();
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Counts one protocol request (daemon bookkeeping).
    pub fn note_request(&self) {
        self.shared
            .counters
            .requests
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one protocol error response (daemon bookkeeping).
    pub fn note_error(&self) {
        self.shared.counters.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one accepted connection (daemon bookkeeping).
    pub fn note_connection(&self) {
        self.shared
            .counters
            .connections
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one per-client in-flight-cap shed (daemon bookkeeping —
    /// the cap is enforced at the connection layer, before admission).
    pub fn note_client_cap_shed(&self) {
        self.shared
            .counters
            .shed_client_cap
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshots the `serve.*` observability scope as the standard
    /// [`StatsSnapshot`] JSON text.
    #[must_use]
    pub fn snapshot_json(&self) -> String {
        let shared = &*self.shared;
        let c = &shared.counters;
        let depth = shared.sched.lock().expect("scheduler state poisoned").depth;
        let mut reg = Registry::new();
        reg.scoped("serve", |r| {
            let count = |v: &AtomicU64| v.load(Ordering::Relaxed);
            r.counter("requests", count(&c.requests));
            r.counter("errors", count(&c.errors));
            r.counter("connections", count(&c.connections));
            r.counter("admitted", count(&c.admitted));
            r.counter("memo_hits", count(&c.memo_hits));
            r.counter("disk_hits", count(&c.disk_hits));
            r.counter("dedup_joins", count(&c.dedup_joins));
            r.counter("shed_queue_full", count(&c.shed_queue_full));
            r.counter("shed_client_cap", count(&c.shed_client_cap));
            r.counter("shed_draining", count(&c.shed_draining));
            r.counter("evaluated", count(&c.evaluated));
            r.counter("lane_batches", count(&c.lane_batches));
            r.counter("lane_batched_runs", count(&c.lane_batched_runs));
            r.counter("solo_runs", count(&c.solo_runs));
            r.counter("queue_depth", depth as u64);
            r.counter("queue_limit", shared.queue_depth as u64);
            r.counter("queue_peak", count(&c.queue_peak));
            r.histogram(
                "wait_us",
                &shared.wait_us.lock().expect("histogram poisoned"),
            );
            r.histogram(
                "exec_us",
                &shared.exec_us.lock().expect("histogram poisoned"),
            );
            r.histogram(
                "total_us",
                &shared.total_us.lock().expect("histogram poisoned"),
            );
        });
        let jobs = shared.jobs.to_string();
        StatsSnapshot::from_registry(
            reg,
            &[
                ("role", "serve_daemon"),
                ("scale", shared.scale.name()),
                ("jobs", &jobs),
            ],
        )
        .to_json()
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("scale", &self.shared.scale)
            .field("jobs", &self.shared.jobs)
            .field("queue_depth", &self.shared.queue_depth)
            .finish_non_exhaustive()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // An engine dropped without `join` (tests, early daemon exit)
        // still drains so worker threads never outlive the process state
        // they borrow.
        self.begin_drain();
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn new_cell() -> Arc<ResultCell> {
    Arc::new(ResultCell {
        slot: Mutex::new(None),
        ready: Condvar::new(),
    })
}

impl Shared {
    fn memo_shard(&self, key: &str) -> &Mutex<HashMap<String, Arc<RunStats>>> {
        let hash = aep_sim::runcache::fnv1a(key.as_bytes());
        &self.memo[(hash as usize) % MEMO_SHARDS]
    }

    fn memo_get(&self, key: &str) -> Option<Arc<RunStats>> {
        self.memo_shard(key)
            .lock()
            .expect("memo shard poisoned")
            .get(key)
            .cloned()
    }

    /// Resolves one submission under the scheduler lock: joins an
    /// in-flight run of the same key, answers from the memo, sheds, or
    /// admits it as pending work.
    fn admit(&self, s: &mut SchedState, key: String, cfg: ExperimentConfig) -> Submission {
        if let Some(inflight) = s.inflight.get_mut(&key) {
            self.counters.dedup_joins.fetch_add(1, Ordering::Relaxed);
            let cell = new_cell();
            inflight.waiters.push(Arc::clone(&cell));
            return Submission::Pending {
                key,
                ticket: Ticket { cell },
            };
        }
        // A completion may have landed between a caller's memo probe and
        // the lock: completions publish to the memo *before* clearing the
        // in-flight entry, so checking here under the lock is enough.
        if let Some(stats) = self.memo_get(&key) {
            self.counters.memo_hits.fetch_add(1, Ordering::Relaxed);
            return Submission::Ready { key, stats };
        }
        if s.draining {
            self.counters.shed_draining.fetch_add(1, Ordering::Relaxed);
            return Submission::Draining;
        }
        if s.depth >= self.queue_depth {
            self.counters
                .shed_queue_full
                .fetch_add(1, Ordering::Relaxed);
            return Submission::Busy;
        }
        self.counters.admitted.fetch_add(1, Ordering::Relaxed);
        s.depth += 1;
        self.counters
            .queue_peak
            .fetch_max(s.depth as u64, Ordering::Relaxed);
        let cell = new_cell();
        s.inflight.insert(
            key.clone(),
            Inflight {
                waiters: vec![Arc::clone(&cell)],
            },
        );
        s.pending.push(PendingRun {
            key: key.clone(),
            cfg,
            admitted: Instant::now(),
        });
        self.work_ready.notify_all();
        Submission::Pending {
            key,
            ticket: Ticket { cell },
        }
    }

    /// Publishes a finished run: disk write-back (fresh runs), memo
    /// insert, then waiter fulfillment. Memo-before-inflight-clear is
    /// load-bearing: `submit` re-checks the memo under the scheduler
    /// lock, so a key is always findable in at least one of the two.
    fn complete(
        &self,
        key: &str,
        stats: &Arc<RunStats>,
        source: Source,
        admitted: Instant,
        started: Option<Instant>,
    ) {
        if source == Source::Fresh {
            if let Some(disk) = &self.disk {
                if let Err(e) = disk.store(key, stats) {
                    eprintln!("[engine] warning: cannot write cache entry {key}: {e}");
                }
            }
        }
        let done = Instant::now();
        let total_us = instant_us(admitted, done);
        let (wait_us, exec_us) = match started {
            Some(started) => (instant_us(admitted, started), instant_us(started, done)),
            None => (total_us, 0),
        };
        record_us(&self.wait_us, wait_us);
        record_us(&self.exec_us, exec_us);
        record_us(&self.total_us, total_us);
        self.memo_shard(key)
            .lock()
            .expect("memo shard poisoned")
            .insert(key.to_string(), Arc::clone(stats));
        let waiters = {
            let mut s = self.sched.lock().expect("scheduler state poisoned");
            s.depth -= 1;
            s.inflight
                .remove(key)
                .map(|inflight| inflight.waiters)
                .unwrap_or_default()
        };
        for cell in waiters {
            let mut slot = cell.slot.lock().expect("result cell poisoned");
            *slot = Some(Ok((Arc::clone(stats), source, total_us)));
            cell.ready.notify_all();
        }
    }

    /// Fulfills every waiter of `key` with a failure (worker panic).
    fn fail(&self, key: &str, message: &str) {
        let waiters = {
            let mut s = self.sched.lock().expect("scheduler state poisoned");
            s.depth -= 1;
            s.inflight
                .remove(key)
                .map(|inflight| inflight.waiters)
                .unwrap_or_default()
        };
        for cell in waiters {
            let mut slot = cell.slot.lock().expect("result cell poisoned");
            *slot = Some(Err(message.to_string()));
            cell.ready.notify_all();
        }
    }
}

/// `what: reason`, where the reason is the panic payload's text (the
/// `&str` or `String` that `panic!` carries), so a waiter sees which
/// check fired.
fn panic_message(what: &str, payload: &(dyn std::any::Any + Send)) -> String {
    let reason = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
    match reason {
        Some(reason) => format!("{what}: {reason}"),
        None => what.to_string(),
    }
}

fn instant_us(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_micros()).unwrap_or(u64::MAX)
}

fn record_us(hist: &Mutex<Histogram>, value: u64) {
    hist.lock().expect("histogram poisoned").record(value);
}

/// The scheduler: waits for pending submissions, lingers one coalescing
/// window, probes the disk tier, lane-plans the misses, and dispatches
/// owned work items to the worker channel. Exits (dropping the sender,
/// which winds down the workers) once draining *and* idle.
fn scheduler_loop(shared: &Shared, tx: &mpsc::Sender<WorkItem>) {
    loop {
        {
            let mut s = shared.sched.lock().expect("scheduler state poisoned");
            loop {
                if !s.pending.is_empty() {
                    break;
                }
                if s.draining {
                    return; // sender drops; workers drain the channel and exit
                }
                s = shared.work_ready.wait(s).expect("scheduler state poisoned");
            }
        }
        std::thread::sleep(COALESCE_WINDOW);
        let batch = std::mem::take(
            &mut shared
                .sched
                .lock()
                .expect("scheduler state poisoned")
                .pending,
        );
        if batch.is_empty() {
            continue;
        }
        // Disk tier: recalled entries complete without touching a worker.
        let mut misses: Vec<PendingRun> = Vec::with_capacity(batch.len());
        for run in batch {
            if let Some(disk) = &shared.disk {
                match disk.load_checked(&run.key) {
                    Ok(Some(stats)) => {
                        if shared.verbose {
                            eprintln!(
                                "[engine] disk hit {} / {}",
                                run.cfg.benchmark,
                                run.cfg.scheme.label()
                            );
                        }
                        shared.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
                        shared.complete(
                            &run.key,
                            &Arc::new(stats),
                            Source::Disk,
                            run.admitted,
                            None,
                        );
                        continue;
                    }
                    Ok(None) => {}
                    Err(e) => {
                        eprintln!(
                            "[engine] warning: cannot read cache entry {}: {e} (re-simulating)",
                            run.key
                        );
                    }
                }
            }
            misses.push(run);
        }
        if misses.is_empty() {
            continue;
        }
        // Execute tier: group shareable-trajectory misses into lane
        // batches — concurrent clients' compatible configs ride one
        // cpu+hierarchy trajectory exactly like a figure plan's.
        let cfgs: Vec<&ExperimentConfig> = misses.iter().map(|run| &run.cfg).collect();
        let jobs = plan_lane_jobs(&cfgs);
        let mut slots: Vec<Option<PendingRun>> = misses.into_iter().map(Some).collect();
        for job in jobs {
            let item = match job {
                LaneJob::Solo(i) => {
                    WorkItem::Solo(Box::new(slots[i].take().expect("solo index used once")))
                }
                LaneJob::Batch {
                    cfg,
                    specs,
                    indices,
                } => WorkItem::Batch {
                    cfg,
                    specs,
                    runs: indices
                        .into_iter()
                        .map(|i| slots[i].take().expect("batch index used once"))
                        .collect(),
                },
            };
            if tx.send(item).is_err() {
                return; // workers gone; nothing left to do
            }
        }
    }
}

/// One worker: pull planned jobs off the shared channel, simulate, and
/// publish. A panicking simulation fails its waiters instead of hanging
/// them (and the worker survives to take the next job).
fn worker_loop(shared: &Shared, rx: &Arc<Mutex<mpsc::Receiver<WorkItem>>>) {
    loop {
        let item = {
            let guard = rx.lock().expect("work channel poisoned");
            guard.recv()
        };
        let Ok(item) = item else {
            return; // channel closed: scheduler exited after drain
        };
        match item {
            WorkItem::Solo(run) => {
                if shared.verbose {
                    eprintln!(
                        "[engine] running {} / {}",
                        run.cfg.benchmark,
                        run.cfg.scheme.label()
                    );
                }
                shared.counters.solo_runs.fetch_add(1, Ordering::Relaxed);
                let started = Instant::now();
                let cfg = run.cfg.clone();
                match std::panic::catch_unwind(AssertUnwindSafe(|| Runner::new(cfg).run())) {
                    Ok(stats) => {
                        shared.counters.evaluated.fetch_add(1, Ordering::Relaxed);
                        shared.complete(
                            &run.key,
                            &Arc::new(stats),
                            Source::Fresh,
                            run.admitted,
                            Some(started),
                        );
                    }
                    Err(payload) => shared.fail(
                        &run.key,
                        &panic_message("simulation worker panicked", payload.as_ref()),
                    ),
                }
            }
            WorkItem::Batch { cfg, specs, runs } => {
                if shared.verbose {
                    eprintln!(
                        "[engine] lane batch: {} lanes / {}",
                        specs.len(),
                        cfg.benchmark.name()
                    );
                }
                shared.counters.lane_batches.fetch_add(1, Ordering::Relaxed);
                shared
                    .counters
                    .lane_batched_runs
                    .fetch_add(runs.len() as u64, Ordering::Relaxed);
                let started = Instant::now();
                let lanes = specs.clone();
                let result =
                    std::panic::catch_unwind(AssertUnwindSafe(|| aep_sim::run_lanes(&cfg, &lanes)));
                match result {
                    Ok(lane_results) => {
                        shared
                            .counters
                            .evaluated
                            .fetch_add(runs.len() as u64, Ordering::Relaxed);
                        for (run, lane) in runs.iter().zip(lane_results) {
                            shared.complete(
                                &run.key,
                                &Arc::new(lane.stats),
                                Source::Fresh,
                                run.admitted,
                                Some(started),
                            );
                        }
                    }
                    Err(payload) => {
                        let message = panic_message("lane batch worker panicked", payload.as_ref());
                        for run in &runs {
                            shared.fail(&run.key, &message);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aep_core::SchemeKind;
    use aep_workloads::Benchmark;

    fn tiny(bench: Benchmark, scheme: SchemeKind) -> ExperimentConfig {
        let mut cfg = Scale::Smoke.config(bench, scheme);
        cfg.warmup_cycles = 4_000;
        cfg.measure_cycles = 6_000;
        cfg
    }

    #[test]
    fn memo_tier_serves_repeat_submissions() {
        let engine = Engine::new(EngineConfig {
            jobs: 2,
            ..EngineConfig::new(Scale::Smoke)
        });
        let cfg = tiny(Benchmark::Gzip, SchemeKind::Uniform);
        let (key, first, source) = engine
            .submit_and_wait(Scale::Smoke, cfg.clone())
            .expect("fresh run");
        assert_eq!(source, Source::Fresh);
        let (key2, second, source2) = engine.submit_and_wait(Scale::Smoke, cfg).expect("memo hit");
        assert_eq!(source2, Source::Memo);
        assert_eq!(key, key2);
        assert_eq!(first, second);
        engine.join();
    }

    #[test]
    fn draining_engine_sheds_new_work() {
        let engine = Engine::new(EngineConfig {
            jobs: 1,
            ..EngineConfig::new(Scale::Smoke)
        });
        engine.begin_drain();
        match engine.submit(Scale::Smoke, tiny(Benchmark::Gzip, SchemeKind::Uniform)) {
            Submission::Draining => {}
            _ => panic!("draining engine must shed"),
        }
        engine.join();
    }

    #[test]
    fn queue_depth_limit_sheds() {
        let engine = Engine::new(EngineConfig {
            jobs: 1,
            queue_depth: 1,
            ..EngineConfig::new(Scale::Smoke)
        });
        let first = engine.submit(Scale::Smoke, tiny(Benchmark::Gzip, SchemeKind::Uniform));
        assert!(matches!(first, Submission::Pending { .. }));
        // Distinct config while depth is saturated: shed, not queued.
        match engine.submit(Scale::Smoke, tiny(Benchmark::Mcf, SchemeKind::Uniform)) {
            Submission::Busy => {}
            _ => panic!("saturated queue must shed distinct configs"),
        }
        // The same config still dedups onto the in-flight run.
        match engine.submit(Scale::Smoke, tiny(Benchmark::Gzip, SchemeKind::Uniform)) {
            Submission::Pending { .. } => {}
            _ => panic!("dedup join must not be shed"),
        }
        engine.join();
    }

    #[test]
    fn snapshot_publishes_serve_scope() {
        let engine = Engine::new(EngineConfig {
            jobs: 1,
            ..EngineConfig::new(Scale::Smoke)
        });
        let _ = engine
            .submit_and_wait(Scale::Smoke, tiny(Benchmark::Gzip, SchemeKind::Uniform))
            .expect("run");
        let text = engine.snapshot_json();
        let snapshot = StatsSnapshot::from_json(&text).expect("snapshot parses");
        assert_eq!(
            snapshot.stats.get("serve.admitted"),
            Some(&aep_obs::StatValue::Counter(1))
        );
        assert_eq!(
            snapshot.stats.get("serve.evaluated"),
            Some(&aep_obs::StatValue::Counter(1))
        );
        assert_eq!(
            snapshot.meta.get("scale").map(String::as_str),
            Some("smoke")
        );
        engine.join();
    }
}
