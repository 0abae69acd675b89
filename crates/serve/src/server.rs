//! The daemon: accept loop, session scheduler, worker pool, drain.
//!
//! One connection thread per client reads frames and answers `ping`,
//! `stats` and `shutdown` inline; `optimize` requests go through the
//! **session scheduler** — a bounded queue in front of a fixed worker
//! pool. A full queue answers [`wire::Kind::Busy`] immediately instead of
//! buffering without bound; each request's deadline is checked when a
//! worker picks it up, so a queue stuffed by a slow burst sheds expired
//! work instead of optimizing it late. Workers run the ordinary
//! [`hlo::optimize`] pipeline, whose per-function stages fan out over the
//! `hlo::par` pool at the request's `jobs` setting — or, on a warm miss
//! with incremental recompilation enabled, [`hlo::optimize_partial`] with
//! a plan that splices cached partition bodies (see [`crate::incremental`]).
//!
//! Shutdown is graceful: draining stops the accept loop and makes new
//! optimize requests fail fast, but everything already queued or running
//! is finished and its response written before [`Server::wait`] returns.

use crate::cache::{request_key, CacheOutcome, CachedResult, RequestKey, ResultCache};
use crate::incremental;
use crate::wire::{Frame, FrameError, Kind, Sections, DEFAULT_MAX_PAYLOAD};
use crate::{
    OptimizeRequest, ProfilePushOutcome, ProfilePushRequest, ProfileSpec, SourceKind,
    TraceFetchReply,
};
use hlo::par::effective_jobs;
use hlo::{
    chrome_trace_json, CallGraphCache, Event, EventLevel, EventLog, FlightRecord, FlightRecorder,
    HloOptions, MetricsRegistry, PartitionAction, TraceLevel, Tracer,
};
use hlo_ir::Program;
use hlo_pgo::ProfileStore;
use hlo_profile::ProfileDb;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing optimize requests (`0` = all hardware
    /// parallelism).
    pub workers: usize,
    /// Bounded request-queue depth; a full queue answers `Busy`.
    pub queue_cap: usize,
    /// Program results kept in the cache (LRU past this).
    pub cache_cap: usize,
    /// Largest accepted frame payload, bytes.
    pub max_payload: u32,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Drift score (thousandths) past which a cached `profile: server`
    /// result is re-optimized instead of served.
    pub pgo_threshold_millis: u64,
    /// Hot-set size for the drift metric's churn component.
    pub pgo_hot_set: usize,
    /// Program aggregates kept in the profile store (LRU past this;
    /// `0` = unbounded).
    pub pgo_cap: usize,
    /// When set, the profile store is loaded from this path at startup
    /// and persisted (write-temp-then-rename) after every mutation, so
    /// aggregates survive restarts.
    pub pgo_store_path: Option<PathBuf>,
    /// Function-grain incremental recompilation: on a program-cache miss,
    /// splice cached partition bodies and re-optimize only invalidated
    /// partitions. `false` makes every miss a full rebuild
    /// (`hlod --no-incremental`).
    pub incremental: bool,
    /// Structured event log file (`hlod --log PATH`): crash-safe append,
    /// one event per line. `None` = no file sink.
    pub event_log_path: Option<PathBuf>,
    /// Also write structured events to stderr (`hlod --log-stderr`).
    pub log_stderr: bool,
    /// Slow-request threshold (`hlod --slow-ms N`): a request whose wall
    /// time exceeds this is counted, warned about in the event log, and
    /// triggers a flight-recorder auto-dump. `None` disables the check.
    pub slow_ms: Option<u64>,
    /// Flight-recorder capacity: the last N request summaries kept
    /// (always on; `hloc remote flight` dumps them).
    pub flight_cap: usize,
    /// Traced-request artifacts kept for `trace-fetch` (LRU past this).
    pub trace_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_cap: 64,
            cache_cap: 128,
            max_payload: DEFAULT_MAX_PAYLOAD,
            default_deadline_ms: None,
            pgo_threshold_millis: hlo_pgo::DEFAULT_THRESHOLD_MILLIS,
            pgo_hot_set: hlo_pgo::DEFAULT_HOT_SET,
            pgo_cap: hlo_pgo::store::DEFAULT_CAP,
            pgo_store_path: None,
            incremental: true,
            event_log_path: None,
            log_stderr: false,
            slow_ms: None,
            flight_cap: 256,
            trace_cap: 64,
        }
    }
}

/// The listen address `hlod` and `hloc serve` use without `--addr`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7457";

impl ServeConfig {
    /// Parses the daemon's command-line flags — the one parser behind
    /// `hlod` and `hloc serve` — on top of the defaults. Returns the
    /// listen address (`--addr`, default [`DEFAULT_ADDR`]) and the
    /// configuration. An unknown flag, a missing value or an unparsable
    /// number is an error.
    pub fn from_args(args: &[String]) -> Result<(String, ServeConfig), String> {
        fn parse<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad {flag} value"))
        }
        let mut addr = DEFAULT_ADDR.to_string();
        let mut cfg = ServeConfig::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .map(String::as_str)
                    .ok_or_else(|| format!("`{flag}` needs a value"))
            };
            match flag.as_str() {
                "--addr" => addr = value()?.to_string(),
                "--workers" => cfg.workers = parse(flag, value()?)?,
                "--queue" => cfg.queue_cap = parse(flag, value()?)?,
                "--cache" => cfg.cache_cap = parse(flag, value()?)?,
                "--max-payload" => cfg.max_payload = parse(flag, value()?)?,
                "--deadline-ms" => cfg.default_deadline_ms = Some(parse(flag, value()?)?),
                "--pgo-threshold" => cfg.pgo_threshold_millis = parse(flag, value()?)?,
                "--pgo-cap" => cfg.pgo_cap = parse(flag, value()?)?,
                "--pgo-store" => cfg.pgo_store_path = Some(PathBuf::from(value()?)),
                "--no-incremental" => cfg.incremental = false,
                "--log" => cfg.event_log_path = Some(PathBuf::from(value()?)),
                "--log-stderr" => cfg.log_stderr = true,
                "--slow-ms" => cfg.slow_ms = Some(parse(flag, value()?)?),
                "--flight-cap" => cfg.flight_cap = parse(flag, value()?)?,
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        Ok((addr, cfg))
    }
}

/// One queued optimize request.
struct Job {
    req: OptimizeRequest,
    deadline: Option<Instant>,
    enqueued: Instant,
    /// Request payload size on the wire, for flight records.
    req_bytes: u64,
    reply: mpsc::Sender<Frame>,
}

/// The per-request phases, in request order: time spent queued, probing
/// the cache, optimizing (misses only), and building the reply. Each is
/// observed into the `request_<phase>_us` summary.
pub(crate) const REQUEST_PHASES: &[&str] = &["queue_wait", "cache_probe", "optimize", "reply"];

/// Locks `m`, recovering the data if a panicking request poisoned it: a
/// panic costs that request only, never the daemon's shared state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Microseconds since daemon start — the `ts` field on emitted events
/// (stripped by normalization, so event *content* stays comparable
/// across runs).
fn event_ts(shared: &Shared) -> u64 {
    shared.started.elapsed().as_micros() as u64
}

/// The `id` field spelling for an optional trace id.
fn id_field(trace_id: &str) -> &str {
    if trace_id.is_empty() {
        "-"
    } else {
        trace_id
    }
}

/// Dumps the flight recorder into the event log — the incident record
/// written whenever a request traps, panics, is refused, or runs slow.
fn auto_dump(shared: &Shared, trigger: &str) {
    if !shared.events.enabled() {
        return;
    }
    shared.events.emit(
        &Event::new(EventLevel::Warn, "flight.dump")
            .field("ts", event_ts(shared))
            .field("trigger", trigger)
            .field("records", shared.flight.len()),
    );
    for rec in shared.flight.dump() {
        if let Ok(e) = Event::parse(&rec.to_line()) {
            shared.events.emit(&e);
        }
    }
}

/// Finishes a failed optimize request: narrates it in the event log,
/// records it in the flight recorder, and builds the error reply. The
/// caller counts whichever metric classifies the failure.
fn job_failed(
    shared: &Shared,
    trace_id: &str,
    reason: &str,
    msg: &str,
    queue_us: u64,
    req_bytes: u64,
) -> Frame {
    shared.events.emit(
        &Event::new(EventLevel::Error, "request.finish")
            .field("ts", event_ts(shared))
            .field("id", id_field(trace_id))
            .field("kind", "optimize")
            .field("outcome", "error")
            .field("reason", reason)
            .field("error", msg),
    );
    shared.flight.record(FlightRecord {
        trace_id: trace_id.to_string(),
        kind: "optimize".to_string(),
        outcome: "error".to_string(),
        reason: reason.to_string(),
        req_bytes,
        phases: vec![("queue_wait".to_string(), queue_us)],
        ..Default::default()
    });
    error_frame(msg)
}

struct Shared {
    cfg: ServeConfig,
    queue: Mutex<std::collections::VecDeque<Job>>,
    work_ready: Condvar,
    draining: AtomicBool,
    /// Requests popped by a worker whose response has not been written to
    /// the client yet; drain waits for this to reach zero.
    in_flight: AtomicU64,
    cache: Mutex<ResultCache>,
    /// Per-program profile aggregates (continuous PGO). Mutated by
    /// `profile-push` on connection threads and read at dequeue time by
    /// `profile: server` requests.
    pgo: Mutex<ProfileStore>,
    /// The daemon's only bookkeeping: every event is one update here, and
    /// `stats` and `metrics` both answer with its exposition.
    metrics: MetricsRegistry,
    /// The structured event log (file and/or stderr sinks per config).
    events: EventLog,
    /// Always-on ring of the last N request summaries.
    flight: FlightRecorder,
    /// Rendered artifacts of traced requests, newest at the back, served
    /// by `trace-fetch`. Rendered text is stored (not the tracer itself)
    /// so a fetch is a pure copy.
    traces: Mutex<std::collections::VecDeque<TraceFetchReply>>,
    started: Instant,
    addr: SocketAddr,
}

/// A running daemon. Dropping the handle does **not** stop it; call
/// [`Server::shutdown`] (or send a `shutdown` frame) then
/// [`Server::wait`].
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:7457"`, port 0 for ephemeral) and
    /// spawns the accept loop and worker pool.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn spawn(addr: impl ToSocketAddrs, cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // Warm the profile store from its persisted snapshot, if any: a
        // restarted daemon answers `profile: server` with the same
        // aggregate it drained with.
        let pgo = match &cfg.pgo_store_path {
            Some(path) => ProfileStore::load(path, cfg.pgo_cap)?,
            None => ProfileStore::new(cfg.pgo_cap),
        };
        let events = EventLog::new(cfg.event_log_path.as_deref(), cfg.log_stderr)?;
        let shared = Arc::new(Shared {
            queue: Mutex::new(std::collections::VecDeque::new()),
            work_ready: Condvar::new(),
            draining: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            cache: Mutex::new(ResultCache::new(cfg.cache_cap)),
            pgo: Mutex::new(pgo),
            metrics: MetricsRegistry::new(),
            events,
            flight: FlightRecorder::new(cfg.flight_cap),
            traces: Mutex::new(std::collections::VecDeque::new()),
            started: Instant::now(),
            addr: local,
            cfg,
        });
        let workers = (0..effective_jobs(shared.cfg.workers))
            .map(|_| {
                let sh = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&sh))
            })
            .collect();
        let accept = {
            let sh = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&sh, listener))
        };
        Ok(Server {
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Starts draining: stop accepting, finish queued and in-flight work.
    /// Idempotent; returns immediately — pair with [`Server::wait`].
    pub fn shutdown(&self) {
        begin_drain(&self.shared);
    }

    /// Blocks until the daemon has drained: the accept loop has stopped,
    /// every queued request has been optimized and every response written.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Workers are gone, so nothing new enters flight; wait for the
        // connection threads to finish writing the last responses.
        while self.shared.in_flight.load(Ordering::Acquire) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

fn begin_drain(shared: &Arc<Shared>) {
    // Flip the flag while holding the queue lock: `submit` checks it under
    // the same lock, so a job is either enqueued before draining is
    // visible (workers drain the queue before exiting) or refused — never
    // stranded in a queue no worker will look at again.
    {
        let _q = lock(&shared.queue);
        if shared.draining.swap(true, Ordering::SeqCst) {
            return;
        }
    }
    shared
        .events
        .emit(&Event::new(EventLevel::Info, "daemon.drain").field("ts", event_ts(shared)));
    shared.work_ready.notify_all();
    // Unblock the accept loop with a throwaway connection.
    let _ = TcpStream::connect(shared.addr);
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let sh = Arc::clone(shared);
        // Connection threads are detached: they die with the process (or
        // sit in `read` until the client goes away). Drain correctness is
        // carried by the queue + in_flight counter, not by joining them.
        std::thread::spawn(move || connection_loop(&sh, stream));
    }
}

fn connection_loop(shared: &Arc<Shared>, mut stream: TcpStream) {
    loop {
        let frame = match Frame::read_from(&mut stream, shared.cfg.max_payload) {
            Ok(f) => f,
            Err(FrameError::Io(_)) => return, // disconnect / EOF
            Err(e) => {
                // Malformed or oversized: tell the client why, then hang
                // up — the stream position is unrecoverable.
                let _ = error_frame(&e.to_string()).write_to(&mut stream);
                return;
            }
        };
        let reply = match frame.kind {
            Kind::Ping => Frame::bare(Kind::Pong),
            Kind::Stats => exposition_frame(shared, Kind::StatsReply, "stats"),
            Kind::Metrics => exposition_frame(shared, Kind::MetricsReply, "metrics"),
            Kind::ProfilePush => profile_push_frame(shared, &frame),
            Kind::ProfileStats => profile_stats_frame(shared, &frame),
            Kind::TraceFetch => trace_fetch_frame(shared, &frame),
            Kind::FlightDump => flight_dump_frame(shared),
            Kind::Shutdown => {
                begin_drain(shared);
                Frame::bare(Kind::ShutdownAck)
            }
            Kind::Optimize => match submit(shared, &frame) {
                Submitted::Reply(f) => f,
                Submitted::Pending(rx) => match rx.recv() {
                    Ok(f) => f,
                    Err(_) => error_frame("worker dropped the request"),
                },
            },
            _ => error_frame(&format!("unexpected frame kind {:?}", frame.kind)),
        };
        let is_optimize = frame.kind == Kind::Optimize;
        let write_res = reply.write_to(&mut stream);
        if is_optimize {
            // The `reply` phase (response-frame construction) is measured
            // inside `run_job`, where its duration can feed the request's
            // trace; the socket write is excluded so phase sums equal the
            // reported wall time. Counted up either at submit (fast-path
            // replies) or when a worker popped the job; the response is
            // on the wire (or the client is gone) — flight over.
            shared.in_flight.fetch_sub(1, Ordering::Release);
        }
        if write_res.is_err() {
            return; // client went away mid-response
        }
    }
}

enum Submitted {
    /// Fast-path reply (busy, draining, parse error): no worker involved.
    Reply(Frame),
    /// Queued; the worker will send the response frame here.
    Pending(mpsc::Receiver<Frame>),
}

/// Parses and enqueues one optimize request, applying backpressure.
/// Whatever the outcome, `in_flight` has been incremented exactly once
/// (the connection loop decrements after writing the response).
fn submit(shared: &Arc<Shared>, frame: &Frame) -> Submitted {
    shared.in_flight.fetch_add(1, Ordering::Acquire);
    let req_bytes = frame.payload.len() as u64;
    let sections = match Sections::decode(&frame.payload) {
        Ok(s) => s,
        Err(e) => {
            shared.metrics.inc("request_errors_total");
            return Submitted::Reply(job_failed(
                shared,
                "",
                "payload",
                &format!("bad request payload: {e}"),
                0,
                req_bytes,
            ));
        }
    };
    let req = match OptimizeRequest::from_sections(&sections) {
        Ok(r) => r,
        Err(e) => {
            shared.metrics.inc("request_errors_total");
            return Submitted::Reply(job_failed(
                shared,
                "",
                "request",
                &format!("bad request: {e}"),
                0,
                req_bytes,
            ));
        }
    };
    let trace_id = req.trace_id.clone().unwrap_or_default();
    // A refused request never reaches a worker; it is still narrated and
    // flight-recorded here, and a refusal is one of the flight recorder's
    // auto-dump triggers.
    let refuse = |reason: &str| {
        shared.events.emit(
            &Event::new(EventLevel::Warn, "request.refused")
                .field("ts", event_ts(shared))
                .field("id", id_field(&trace_id))
                .field("kind", "optimize")
                .field("reason", reason),
        );
        shared.flight.record(FlightRecord {
            trace_id: trace_id.clone(),
            kind: "optimize".to_string(),
            outcome: "refused".to_string(),
            reason: reason.to_string(),
            req_bytes,
            ..Default::default()
        });
        auto_dump(shared, "refused");
    };
    let deadline_ms = req.deadline_ms.or(shared.cfg.default_deadline_ms);
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let (tx, rx) = mpsc::channel();
    {
        let mut q = lock(&shared.queue);
        // Checked under the queue lock — see `begin_drain`.
        if shared.draining.load(Ordering::SeqCst) {
            drop(q);
            refuse("draining");
            return Submitted::Reply(error_frame("daemon is draining"));
        }
        if q.len() >= shared.cfg.queue_cap {
            shared.metrics.inc("request_busy_total");
            drop(q);
            refuse("busy");
            return Submitted::Reply(Frame::bare(Kind::Busy));
        }
        q.push_back(Job {
            req,
            deadline,
            enqueued: Instant::now(),
            req_bytes,
            reply: tx,
        });
        shared.metrics.inc("requests_total");
    }
    shared.work_ready.notify_one();
    Submitted::Pending(rx)
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(j) = q.pop_front() {
                    break Some(j);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                q = shared.work_ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(job) = job else { return };
        let queue_us = job.enqueued.elapsed().as_micros() as u64;
        shared.metrics.observe("request_queue_wait_us", queue_us);
        // A panic costs its own request only: it is answered with an error
        // frame, counted, and flight-dumped, and this worker keeps serving.
        let reply = std::panic::catch_unwind(AssertUnwindSafe(|| run_job(shared, &job, queue_us)))
            .unwrap_or_else(|payload| {
                let what = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("non-string panic payload");
                shared.metrics.inc("request_panics_total");
                let trace_id = job.req.trace_id.as_deref().unwrap_or_default();
                let frame = job_failed(
                    shared,
                    trace_id,
                    "panic",
                    &format!("request panicked: {what}"),
                    queue_us,
                    job.req_bytes,
                );
                auto_dump(shared, "panic");
                frame
            });
        // The connection thread may have died with its client; a closed
        // channel just means nobody wants the answer any more.
        let _ = job.reply.send(reply);
    }
}

/// Executes one optimize request: deadline check, compile, cache lookup,
/// optimize on miss, cache fill — narrating the request into the event
/// log and flight recorder, and (for traced requests) recording a span
/// tree whose phase leaves carry the measured durations, so the stored
/// trace's phases sum exactly to the reported wall time.
fn run_job(shared: &Arc<Shared>, job: &Job, queue_us: u64) -> Frame {
    let req = &job.req;
    let trace_id = req.trace_id.clone().unwrap_or_default();
    shared.events.emit(
        &Event::new(EventLevel::Info, "request.start")
            .field("ts", event_ts(shared))
            .field("id", id_field(&trace_id))
            .field("kind", "optimize"),
    );
    if let Some(d) = job.deadline {
        if Instant::now() > d {
            shared.metrics.inc("request_deadline_missed_total");
            return job_failed(
                shared,
                &trace_id,
                "deadline",
                "deadline exceeded while queued",
                queue_us,
                job.req_bytes,
            );
        }
    }
    // The request tracer. Untraced requests get a disabled tracer the
    // optimizer still threads its spans through (and ignores); traced
    // requests record at `Decisions` so the stored report carries full
    // per-site provenance. The tracer never reads a clock — every
    // duration below is measured here and handed to it, which is what
    // keeps trace content byte-identical across `--jobs`.
    let traced = !trace_id.is_empty();
    let mut tracer = if traced {
        Tracer::new(TraceLevel::Decisions)
    } else {
        Tracer::disabled()
    };
    let root = traced.then(|| tracer.push(&format!("request:{trace_id}")));
    let mut phases: Vec<(String, u64)> = vec![("queue_wait".to_string(), queue_us)];
    if traced {
        tracer.leaf_seq("queue_wait", Duration::from_micros(queue_us));
    }
    let fail = |reason: &str, msg: &str| -> Frame {
        shared.metrics.inc("request_errors_total");
        job_failed(shared, &trace_id, reason, msg, queue_us, job.req_bytes)
    };
    let mut program = match &req.source {
        SourceKind::Minc(mods) => {
            let refs: Vec<(&str, &str)> =
                mods.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
            match hlo_frontc::compile(&refs) {
                Ok(p) => p,
                Err(e) => return fail("compile", &format!("compile failed: {e}")),
            }
        }
        SourceKind::Ir(text) => match hlo_ir::parse_program_text(text) {
            Ok(p) => {
                if let Err(e) = hlo_ir::verify_program(&p) {
                    return fail("verify", &format!("invalid IR: {e}"));
                }
                p
            }
            Err(e) => return fail("parse", &format!("bad IR text: {e}")),
        },
    };
    // Every optimized program registers with the pgo store, whatever
    // profile mode built it: pushes are accepted for any program the
    // daemon has seen, so a fleet can start streaming profiles before
    // the first `profile: server` rebuild.
    let pkey = hlo_pgo::program_key(&program);
    {
        let mut store = lock(&shared.pgo);
        let created = store.register(&pkey).expect("program keys are well-formed");
        if created {
            persist_store(shared, &store);
        }
    }
    // Resolve the request's profile. `server` mode consults the pgo
    // store *at dequeue time* — the whole point of continuous PGO is
    // that the profile a request optimizes with is whatever the fleet
    // has pushed by now, not whatever the client last saw.
    let (profile, key_profile_text, server_mode) = match &req.profile {
        ProfileSpec::None => (None, String::new(), false),
        ProfileSpec::Text(text) => match ProfileDb::from_text(text) {
            // Key on the canonical (re-serialized) profile so equivalent
            // profile texts address the same result.
            Ok(db) => {
                let canonical = db.to_text();
                (Some(db), canonical, false)
            }
            Err(e) => return fail("profile", &format!("bad profile: {e}")),
        },
        ProfileSpec::Server => {
            // The cache key uses a fixed marker, not the aggregate text:
            // the entry must be *found* across profile drift so the
            // drift check (below) can decide hit vs stale, and a
            // server-mode request must never collide with a profile-free
            // one.
            let merged = lock(&shared.pgo).merged(&pkey);
            (merged, SERVER_PROFILE_MARKER.to_string(), true)
        }
    };
    let profile_text = profile.as_ref().map(ProfileDb::to_text).unwrap_or_default();

    let probe_t = Instant::now();
    let mut cg = CallGraphCache::new();
    let key = request_key(&program, &req.options, &key_profile_text, &mut cg);
    let (cached, mut outcome) = {
        let mut cache = lock(&shared.cache);
        let found = cache.lookup(&key);
        // The planted fault panics with the cache lock held, so the next
        // request proves the poisoned lock is recovered.
        if crate::fault::panic_armed_for(&trace_id) {
            panic!("planted worker panic");
        }
        found
    };

    // Continuous PGO: a resident entry is only servable while the
    // aggregate is still within threshold of the profile it was built
    // with. Past threshold it is a *stale hit*: re-optimize with the
    // current aggregate and replace the entry.
    let mut pgo_line = None;
    let cached = match cached {
        Some(c) if server_mode => {
            let built_with = ProfileDb::from_text(&c.profile_text).unwrap_or_default();
            let current = profile.clone().unwrap_or_default();
            let report = hlo_pgo::drift(&built_with, &current, shared.cfg.pgo_hot_set);
            let threshold = shared.cfg.pgo_threshold_millis;
            outcome.drift_millis = report.score_millis();
            shared
                .metrics
                .observe("pgo_drift_millis", report.score_millis());
            pgo_line = Some(report.summary(threshold));
            if report.exceeds(threshold) {
                shared.events.emit(
                    &Event::new(EventLevel::Warn, "pgo.reoptimize")
                        .field("ts", event_ts(shared))
                        .field("id", id_field(&trace_id))
                        .field("drift_millis", report.score_millis())
                        .field("threshold_millis", threshold),
                );
                outcome.hit = false;
                outcome.stale = true;
                None
            } else {
                Some(c)
            }
        }
        other => other,
    };
    let probe_us = probe_t.elapsed().as_micros() as u64;
    shared.metrics.observe("request_cache_probe_us", probe_us);
    phases.push(("cache_probe".to_string(), probe_us));
    if traced {
        tracer.leaf_seq("cache_probe", Duration::from_micros(probe_us));
    }
    // Hits, misses and stale hits are disjoint: a stale hit re-optimizes
    // but is neither a hit nor a miss.
    let (outcome_str, counter) = match (outcome.stale, outcome.hit) {
        (true, _) => ("stale", "cache_stale_total"),
        (false, true) => ("hit", "cache_hits_total"),
        (false, false) => ("miss", "cache_misses_total"),
    };
    shared.metrics.inc(counter);
    shared
        .metrics
        .add("cache_func_hits_total", outcome.func_hits);
    shared
        .metrics
        .add("cache_func_misses_total", outcome.func_misses);

    let (ir_text, report_text) = match cached {
        Some(c) => (c.ir_text, c.report_text),
        None => {
            let opt_t = Instant::now();
            let report = optimize_miss(
                shared,
                &mut program,
                profile.as_ref(),
                &req.options,
                &key,
                hlo_ir::fnv1a_64(profile_text.as_bytes()),
                &mut cg,
                &mut outcome,
                &mut tracer,
                &trace_id,
            );
            let opt_us = opt_t.elapsed().as_micros() as u64;
            shared.metrics.observe("request_optimize_us", opt_us);
            phases.push(("optimize".to_string(), opt_us));
            let ir_text = hlo_ir::program_to_text(&program);
            let report_text = report.to_text();
            for t in &report.stage_timings {
                let stage = &t.stage;
                shared.metrics.add(
                    &format!("optimize_stage_wall_us_total{{stage=\"{stage}\"}}"),
                    t.wall_us,
                );
                shared.metrics.add(
                    &format!("optimize_stage_work_us_total{{stage=\"{stage}\"}}"),
                    t.work_us,
                );
            }
            let evicted = lock(&shared.cache).insert(
                &key,
                CachedResult {
                    ir_text: ir_text.clone(),
                    report_text: report_text.clone(),
                    profile_text,
                },
            );
            shared.metrics.add("cache_evictions_total", evicted);
            if evicted > 0 {
                shared.events.emit(
                    &Event::new(EventLevel::Info, "cache.evict")
                        .field("ts", event_ts(shared))
                        .field("count", evicted),
                );
            }
            (ir_text, report_text)
        }
    };
    // Tag leaves: zero-duration stage spans naming the cache outcome and
    // partition reuse counts, so a span tree is self-describing.
    if traced {
        tracer.leaf_seq(&format!("outcome.{outcome_str}"), Duration::ZERO);
        tracer.leaf_seq(
            &format!("partitions.hit.{}", outcome.partition_hits),
            Duration::ZERO,
        );
        tracer.leaf_seq(
            &format!("partitions.rebuild.{}", outcome.partition_rebuilds),
            Duration::ZERO,
        );
    }
    let train = req
        .train_arg
        .map(|arg| train_run(&ir_text, arg, &shared.metrics));
    let trapped = train.as_deref().is_some_and(|t| t.starts_with("trap:"));

    // The reply phase is the response-frame construction (the socket
    // write happens on the connection thread and is excluded, so the
    // phase list sums exactly to the wall time reported with the trace).
    let reply_t = Instant::now();
    let mut s = Sections::new();
    s.push("ir", ir_text);
    s.push("report", report_text);
    s.push("cache", outcome.to_text());
    if let Some(p) = pgo_line {
        s.push("pgo", p);
    }
    if let Some(t) = train {
        s.push("train", t);
    }
    if traced {
        s.push("trace-id", trace_id.as_str());
    }
    let frame = Frame::new(Kind::Result, &s);
    let reply_us = reply_t.elapsed().as_micros() as u64;
    shared.metrics.observe("request_reply_us", reply_us);
    phases.push(("reply".to_string(), reply_us));
    let wall_us: u64 = phases.iter().map(|(_, us)| us).sum();

    if let Some(root) = root {
        tracer.leaf_seq("reply", Duration::from_micros(reply_us));
        tracer.pop(root, Duration::from_micros(wall_us));
        let stored = TraceFetchReply {
            trace_id: trace_id.clone(),
            spans: tracer.span_tree_text(),
            decisions: tracer.decision_report(None),
            chrome: chrome_trace_json(&tracer),
            cache: outcome.to_text(),
            wall_us,
            phases: phases.clone(),
        };
        let mut traces = lock(&shared.traces);
        traces.push_back(stored);
        while traces.len() > shared.cfg.trace_cap.max(1) {
            traces.pop_front();
        }
    }

    let reason = if trapped { "trap" } else { "ok" };
    shared.flight.record(FlightRecord {
        seq: 0,
        trace_id: trace_id.clone(),
        kind: "optimize".to_string(),
        outcome: outcome_str.to_string(),
        reason: reason.to_string(),
        req_bytes: job.req_bytes,
        resp_bytes: frame.payload.len() as u64,
        phases,
    });
    shared.events.emit(
        &Event::new(
            if trapped {
                EventLevel::Warn
            } else {
                EventLevel::Info
            },
            "request.finish",
        )
        .field("ts", event_ts(shared))
        .field("id", id_field(&trace_id))
        .field("kind", "optimize")
        .field("outcome", outcome_str)
        .field("reason", reason)
        .field("req_bytes", job.req_bytes)
        .field("resp_bytes", frame.payload.len())
        .field("partition_hits", outcome.partition_hits)
        .field("partition_rebuilds", outcome.partition_rebuilds)
        .field("wall_us", wall_us),
    );
    if trapped {
        auto_dump(shared, "trap");
    }
    if let Some(slow_ms) = shared.cfg.slow_ms {
        if wall_us > slow_ms.saturating_mul(1000) {
            shared.metrics.inc("request_slow_total");
            shared.events.emit(
                &Event::new(EventLevel::Warn, "request.slow")
                    .field("ts", event_ts(shared))
                    .field("id", id_field(&trace_id))
                    .field("wall_us", wall_us)
                    .field("threshold_ms", slow_ms),
            );
            auto_dump(shared, "slow");
        }
    }
    frame
}

/// Optimizes a program the cache could not serve whole. With incremental
/// recompilation enabled (daemon *and* request), probe the partition
/// store per call-graph partition and hand [`hlo::optimize_partial`] a
/// plan that splices every hit byte-for-byte; only invalidated partitions
/// run the pipeline. The finished partitions (spliced and rebuilt alike)
/// re-populate the store, so the next edit's unchanged partitions keep
/// hitting. Any refusal — the request is not partition-cacheable, or the
/// spliced result fails IR verification — falls back to a plain full
/// [`hlo::optimize`] and is counted (`incr_fallback`).
#[allow(clippy::too_many_arguments)] // the request's full dequeue context
fn optimize_miss(
    shared: &Arc<Shared>,
    program: &mut Program,
    profile: Option<&ProfileDb>,
    opts: &HloOptions,
    key: &RequestKey,
    profile_salt: u64,
    cg: &mut CallGraphCache,
    outcome: &mut CacheOutcome,
    tracer: &mut Tracer,
    trace_id: &str,
) -> hlo::HloReport {
    let note_fallback = |shared: &Arc<Shared>, reason: &str| {
        shared.metrics.inc("incr_fallback_total");
        shared.events.emit(
            &Event::new(EventLevel::Warn, "incr.fallback")
                .field("ts", event_ts(shared))
                .field("id", id_field(trace_id))
                .field("reason", reason),
        );
    };
    if shared.cfg.incremental {
        match incremental::eligible_partitions(program, opts, cg) {
            Ok(partitions) => {
                let pkeys =
                    incremental::partition_keys(program, &partitions, &key.funcs, profile_salt);
                let plan: Vec<PartitionAction> = {
                    let mut cache = lock(&shared.cache);
                    pkeys
                        .iter()
                        .map(|&k| match cache.probe_partition(k) {
                            Some(stored) => PartitionAction::Reuse(stored),
                            None => PartitionAction::Rebuild,
                        })
                        .collect()
                };
                let hits = plan
                    .iter()
                    .filter(|a| matches!(a, PartitionAction::Reuse(_)))
                    .count() as u64;
                let rebuilds = pkeys.len() as u64 - hits;
                // Splicing stored bodies is the only step that can go
                // wrong at request time; keep the input around so a
                // verification failure can rebuild from scratch. A plan
                // with no hits *is* a from-scratch build — nothing to
                // verify or restore.
                let backup = (hits > 0).then(|| program.clone());
                let out = hlo::optimize_partial(program, profile, opts, Some(&plan), tracer);
                if hits == 0 || hlo_ir::verify_program(program).is_ok() {
                    outcome.partition_hits = hits;
                    outcome.partition_rebuilds = rebuilds;
                    // A build that renamed globals mutated state outside
                    // its partitions' bodies — its outputs are not pure
                    // functions of their partitions, so they must not
                    // seed future splices.
                    if !out.log.globals_mutated {
                        let mut cache = lock(&shared.cache);
                        for (pi, &k) in pkeys.iter().enumerate() {
                            cache
                                .insert_partition(k, hlo::extract_partition(program, &out.log, pi));
                        }
                    }
                    shared.metrics.add("incr_partition_hits_total", hits);
                    shared
                        .metrics
                        .add("incr_partition_rebuilds_total", rebuilds);
                    return out.report;
                }
                *program = backup.expect("hits > 0 implies a backup was taken");
                outcome.incr_fallback = true;
                note_fallback(shared, "verify");
            }
            Err(_reason) => {
                // Only count a fallback when the request *wanted*
                // incremental — `--no-incremental` requests asked for a
                // full rebuild, that is not a fallback.
                if opts.incremental {
                    outcome.incr_fallback = true;
                    note_fallback(shared, "ineligible");
                }
            }
        }
    }
    hlo::optimize_traced(program, profile, opts, tracer)
}

/// The fixed profile component of a `profile: server` cache key. The
/// entry must stay addressable while the aggregate drifts (staleness is
/// decided by the drift check, not by key mismatch), and the marker can
/// never equal a canonical profile text, so server-mode and inline-text
/// requests cannot collide.
const SERVER_PROFILE_MARKER: &str = "profile-mode server\n";

/// Executes the optimized program once with `arg` and summarizes the
/// outcome on one line. The run feeds the daemon's per-tier VM metrics;
/// a trap (or unparsable IR, which cannot happen for text the daemon
/// just produced) is reported in the summary, never as a request failure.
fn train_run(ir_text: &str, arg: i64, metrics: &MetricsRegistry) -> String {
    let program = match hlo_ir::parse_program_text(ir_text) {
        Ok(p) => p,
        Err(e) => return format!("error: bad optimized IR: {e}"),
    };
    let opts = hlo_vm::ExecOptions::default();
    let mut monitor = hlo_vm::NullMonitor;
    match hlo_vm::run_with_monitor_metrics(&program, &[arg], &opts, &mut monitor, metrics) {
        Ok(out) => format!(
            "ret {} retired {} output {} checksum {:#x}",
            out.ret,
            out.retired,
            out.output.len(),
            out.checksum
        ),
        Err(t) => format!("trap: {t}"),
    }
}

fn error_frame(msg: &str) -> Frame {
    let mut s = Sections::new();
    s.push("message", msg);
    Frame::new(Kind::Error, &s)
}

/// Persists the store snapshot when the daemon was given a path. Called
/// with the store lock held so snapshots hit the disk in mutation order;
/// an I/O failure is counted, not fatal — the in-memory aggregate stays
/// authoritative.
fn persist_store(shared: &Arc<Shared>, store: &ProfileStore) {
    if let Some(path) = &shared.cfg.pgo_store_path {
        if let Err(e) = store.save(path) {
            shared.metrics.inc("pgo_persist_errors_total");
            shared.events.emit(
                &Event::new(EventLevel::Error, "pgo.save-error")
                    .field("ts", event_ts(shared))
                    .field("path", path.display())
                    .field("error", e),
            );
        }
    }
}

/// Handles one `profile-push`: parse, validate, merge into the program's
/// aggregate, persist. Every refusal leaves the store untouched.
fn profile_push_frame(shared: &Arc<Shared>, frame: &Frame) -> Frame {
    let fail = |msg: String| {
        shared.metrics.inc("request_errors_total");
        error_frame(&msg)
    };
    let sections = match Sections::decode(&frame.payload) {
        Ok(s) => s,
        Err(e) => return fail(format!("bad push payload: {e}")),
    };
    let req = match ProfilePushRequest::from_sections(&sections) {
        Ok(r) => r,
        Err(e) => return fail(format!("bad push request: {e}")),
    };
    let delta = match ProfileDb::from_text(&req.delta) {
        Ok(d) => d,
        Err(e) => return fail(format!("bad profile delta: {e}")),
    };
    let mut store = lock(&shared.pgo);
    if req.advance > 0 {
        // Validates the key and that the program is known; the merge
        // below can no longer fail after this succeeds.
        if let Err(e) = store.advance(&req.program, req.advance) {
            drop(store);
            return fail(format!("push refused: {e}"));
        }
    }
    let outcome = match store.push(&req.program, &delta) {
        Ok(o) => o,
        Err(e) => {
            drop(store);
            return fail(format!("push refused: {e}"));
        }
    };
    persist_store(shared, &store);
    drop(store);
    shared.metrics.inc("pgo_push_total");
    let out = ProfilePushOutcome {
        generation: outcome.generation,
        pushes: outcome.pushes,
        functions: outcome.functions,
        resident_bytes: outcome.resident_bytes,
    };
    let mut s = Sections::new();
    s.push("ack", out.to_text());
    Frame::new(Kind::ProfilePushAck, &s)
}

/// Handles one `profile-stats`: store-wide counters plus, when the
/// request names a program, that program's merged aggregate text.
fn profile_stats_frame(shared: &Arc<Shared>, frame: &Frame) -> Frame {
    use std::fmt::Write as _;
    let sections = match Sections::decode(&frame.payload) {
        Ok(s) => s,
        Err(e) => return error_frame(&format!("bad stats payload: {e}")),
    };
    let store = lock(&shared.pgo);
    let mut s = Sections::new();
    if let Some(raw) = sections.get("program") {
        let key = match std::str::from_utf8(raw) {
            Ok(k) => k.trim(),
            Err(_) => return error_frame("program key is not UTF-8"),
        };
        match store.aggregate(key) {
            Some(agg) => {
                s.push("profile", agg.db().to_text());
            }
            None => {
                return error_frame(&if hlo_pgo::is_valid_key(key) {
                    format!("unknown program key `{key}`")
                } else {
                    format!("bad program key `{key}` (want 16 lowercase hex)")
                })
            }
        }
    }
    let st = store.stats();
    let mut text = String::new();
    let _ = writeln!(text, "programs {}", st.programs);
    let _ = writeln!(text, "bytes {}", st.resident_bytes);
    let _ = writeln!(text, "pushes {}", st.pushes);
    let _ = writeln!(text, "evictions {}", st.evictions);
    for key in store.keys() {
        let agg = store.aggregate(&key).expect("listed key is resident");
        let _ = writeln!(
            text,
            "program {key} {} {} {} {}",
            agg.generation,
            agg.pushes,
            agg.db().len(),
            agg.resident_bytes()
        );
    }
    drop(store);
    s.push("stats", text);
    Frame::new(Kind::ProfileStatsReply, &s)
}

/// Handles one `trace-fetch`: look up a previously stored request trace
/// by its client-minted id and reply with the rendered span tree,
/// decision report, Chrome JSON, cache outcome, and per-phase timings.
/// Traces live in a bounded in-memory ring, so a sufficiently old id is
/// simply gone — that is an error reply, not a crash.
fn trace_fetch_frame(shared: &Arc<Shared>, frame: &Frame) -> Frame {
    let sections = match Sections::decode(&frame.payload) {
        Ok(s) => s,
        Err(e) => return error_frame(&format!("bad trace-fetch payload: {e}")),
    };
    let id = match sections.get("trace-id").map(std::str::from_utf8) {
        Some(Ok(id)) => id.trim().to_string(),
        Some(Err(_)) => return error_frame("trace id is not UTF-8"),
        None => return error_frame("trace-fetch needs a `trace-id` section"),
    };
    if !crate::valid_trace_id(&id) {
        return error_frame(&format!("bad trace id `{id}` (want 16 lowercase hex)"));
    }
    let traces = lock(&shared.traces);
    // Newest first: if the same id was (unwisely) reused, the most
    // recent request wins.
    match traces.iter().rev().find(|t| t.trace_id == id) {
        Some(t) => Frame::new(Kind::TraceReply, &t.to_sections()),
        None => error_frame(&format!(
            "no stored trace for id `{id}` (daemon keeps the last {})",
            shared.cfg.trace_cap.max(1)
        )),
    }
}

/// Handles one `flight-dump`: serialize the flight recorder's ring of
/// recent request summaries. Always answerable — the recorder is always
/// on — so an empty dump means the daemon genuinely served nothing yet.
fn flight_dump_frame(shared: &Arc<Shared>) -> Frame {
    let mut s = Sections::new();
    s.push("flight", shared.flight.dump_text());
    s.push("admitted", format!("{}\n", shared.flight.admitted()));
    Frame::new(Kind::FlightReply, &s)
}

/// Answers both `stats` and `metrics`: reads occupancy into gauges, then
/// replies with the registry's exposition. Every other number in it was
/// recorded where its event happened, so the two replies cannot disagree.
fn exposition_frame(shared: &Shared, kind: Kind, section: &str) -> Frame {
    let (entries, cache_bytes, partitions) = lock(&shared.cache).occupancy();
    let pgo = lock(&shared.pgo).stats();
    let traces = lock(&shared.traces).len() as u64;
    for (name, value) in [
        ("cache_entries", entries),
        ("cache_resident_bytes", cache_bytes),
        ("partition_entries", partitions),
        ("pgo_programs", pgo.programs),
        ("pgo_resident_bytes", pgo.resident_bytes),
        ("flight_records", shared.flight.len() as u64),
        ("traces_stored", traces),
        ("events_emitted", shared.events.emitted()),
        ("uptime_ms", shared.started.elapsed().as_millis() as u64),
    ] {
        shared.metrics.set_gauge(name, value as i64);
    }
    let mut s = Sections::new();
    s.push(section, shared.metrics.expose());
    Frame::new(kind, &s)
}

/// Flush helper for `hlod`'s startup banner; kept here so the binary
/// stays a thin argument parser.
pub fn banner(addr: SocketAddr, cfg: &ServeConfig) {
    let mut err = std::io::stderr().lock();
    let _ = writeln!(
        err,
        "hlod listening on {addr} ({} workers, queue {}, cache {} programs)",
        effective_jobs(cfg.workers),
        cfg.queue_cap,
        cfg.cache_cap
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn from_args_sets_every_flag() {
        let (addr, cfg) = ServeConfig::from_args(&args(&[
            "--addr",
            "127.0.0.1:9",
            "--workers",
            "3",
            "--queue",
            "5",
            "--cache",
            "7",
            "--max-payload",
            "1024",
            "--deadline-ms",
            "250",
            "--pgo-threshold",
            "400",
            "--pgo-cap",
            "9",
            "--pgo-store",
            "store.txt",
            "--no-incremental",
            "--log",
            "events.log",
            "--log-stderr",
            "--slow-ms",
            "11",
            "--flight-cap",
            "13",
        ]))
        .unwrap();
        let d = ServeConfig::default();
        assert_eq!(addr, "127.0.0.1:9");
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.queue_cap, 5);
        assert_eq!(cfg.cache_cap, 7);
        assert_eq!(cfg.max_payload, 1024);
        assert_eq!(cfg.default_deadline_ms, Some(250));
        assert_eq!(cfg.pgo_threshold_millis, 400);
        assert_eq!(cfg.pgo_cap, 9);
        assert_eq!(cfg.pgo_store_path, Some(PathBuf::from("store.txt")));
        assert!(!cfg.incremental);
        assert_eq!(cfg.event_log_path, Some(PathBuf::from("events.log")));
        assert!(cfg.log_stderr);
        assert_eq!(cfg.slow_ms, Some(11));
        assert_eq!(cfg.flight_cap, 13);
        // Each value above differs from its default; the two fields
        // without a flag keep theirs.
        assert_ne!(cfg.workers, d.workers);
        assert_ne!(cfg.queue_cap, d.queue_cap);
        assert_ne!(cfg.cache_cap, d.cache_cap);
        assert_ne!(cfg.max_payload, d.max_payload);
        assert_ne!(cfg.pgo_threshold_millis, d.pgo_threshold_millis);
        assert_ne!(cfg.pgo_cap, d.pgo_cap);
        assert_ne!(cfg.flight_cap, d.flight_cap);
        assert_eq!(cfg.pgo_hot_set, d.pgo_hot_set);
        assert_eq!(cfg.trace_cap, d.trace_cap);
    }

    #[test]
    fn from_args_defaults_and_errors() {
        let (addr, cfg) = ServeConfig::from_args(&[]).unwrap();
        assert_eq!(addr, DEFAULT_ADDR);
        assert!(cfg.incremental);
        assert_eq!(
            ServeConfig::from_args(&args(&["--bogus"])).unwrap_err(),
            "unknown option `--bogus`"
        );
        assert_eq!(
            ServeConfig::from_args(&args(&["--workers", "x"])).unwrap_err(),
            "bad --workers value"
        );
        assert_eq!(
            ServeConfig::from_args(&args(&["--slow-ms"])).unwrap_err(),
            "`--slow-ms` needs a value"
        );
    }
}
