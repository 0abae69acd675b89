//! Blocking client for the daemon — what `hloc serve` / `hloc remote`
//! and the serve benchmark speak.

use crate::server::REQUEST_PHASES;
use crate::wire::{Frame, FrameError, Kind, Sections, DEFAULT_MAX_PAYLOAD};
use crate::{
    OptimizeRequest, OptimizeResponse, ProfilePushOutcome, ProfilePushRequest, ProfileStatsReply,
    TraceFetchReply,
};
use std::collections::HashMap;
use std::net::{TcpStream, ToSocketAddrs};

/// Mints a request trace id: 16 lowercase hex digits, unique enough for a
/// single client session. Seeded from the wall clock and process id, then
/// mixed through FNV-1a so consecutive calls differ in every nibble. The
/// id is client-owned — the daemon only echoes and indexes it.
pub fn mint_trace_id() -> String {
    use std::time::{SystemTime, UNIX_EPOCH};
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let uniq = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let seed = [
        nanos.to_le_bytes(),
        (std::process::id() as u64).to_le_bytes(),
        uniq.to_le_bytes(),
    ]
    .concat();
    format!("{:016x}", hlo_ir::fnv1a_64(&seed))
}

/// Anything that can go wrong talking to the daemon.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure (connect, read, write).
    Io(std::io::Error),
    /// A frame that could not be decoded.
    Frame(FrameError),
    /// The daemon answered with an error frame; the payload message.
    Remote(String),
    /// The daemon's request queue is full; retry later.
    Busy,
    /// A structurally valid frame of an unexpected kind or shape.
    Protocol(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Frame(e) => write!(f, "frame error: {e}"),
            ServeError::Remote(msg) => write!(f, "daemon error: {msg}"),
            ServeError::Busy => write!(f, "daemon is busy (queue full)"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<FrameError> for ServeError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => ServeError::Io(io),
            other => ServeError::Frame(other),
        }
    }
}

/// Daemon-side counters, as returned by [`Client::stats`]: a typed view of
/// the daemon's metrics exposition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// Optimize requests accepted into the queue.
    pub requests: u64,
    /// Requests turned away with `Busy`.
    pub busy: u64,
    /// Requests that failed (bad input, compile error, …).
    pub errors: u64,
    /// Requests whose deadline expired while queued.
    pub deadline_missed: u64,
    /// Whole-program cache hits (pure lookups).
    pub hits: u64,
    /// Whole-program cache misses (full optimizations).
    pub misses: u64,
    /// Cache hits reclassified stale because the server-side profile
    /// aggregate drifted past threshold since the entry was built.
    pub stale_hits: u64,
    /// Programs evicted by the LRU bound.
    pub evictions: u64,
    /// Function cone keys already known at lookup time.
    pub func_hits: u64,
    /// Function cone keys first seen at lookup time.
    pub func_misses: u64,
    /// Programs currently cached.
    pub entries: u64,
    /// Bytes of cached payload currently resident (IR + report text).
    pub cache_bytes: u64,
    /// Partition bodies spliced by incremental builds.
    pub partition_hits: u64,
    /// Partitions re-optimized by incremental builds.
    pub partition_rebuilds: u64,
    /// Requests that fell back from incremental to a full rebuild.
    pub incr_fallbacks: u64,
    /// Partition bodies currently resident in the partition store.
    pub partition_entries: u64,
    /// Profile deltas accepted via `profile-push`.
    pub pgo_pushes: u64,
    /// Drift-triggered re-optimizations of cached server-mode results.
    pub reoptimizations: u64,
    /// Programs with a resident profile aggregate.
    pub pgo_programs: u64,
    /// Bytes resident in the profile store.
    pub pgo_bytes: u64,
    /// Requests whose wall time exceeded the daemon's `--slow-ms` bound.
    pub slow_requests: u64,
    /// Request summaries currently resident in the flight recorder.
    pub flight_records: u64,
    /// Request traces currently resident in the trace ring.
    pub traces_stored: u64,
    /// Structured events emitted since the daemon started.
    pub events_emitted: u64,
    /// Aggregate `(stage, wall_us, work_us)` over all non-cached runs,
    /// sorted by stage name.
    pub stages: Vec<(String, u64, u64)>,
    /// Per-phase request latency `(phase, count, sum_us)`, in request
    /// order (queue wait, cache probe, optimize, reply).
    pub latencies: Vec<(String, u64, u64)>,
    /// Per-phase latency quantiles `(phase, p50_us, p95_us, p99_us)` from
    /// the daemon's streaming sketches, in request order.
    pub quantiles: Vec<(String, u64, u64, u64)>,
}

impl ServeStats {
    /// Reads the daemon's metrics exposition (the body of both `stats`
    /// and `metrics` replies). Series the daemon has not recorded yet
    /// read as zero.
    fn from_text(text: &str) -> Result<ServeStats, String> {
        let mut series = HashMap::new();
        for (name, value) in hlo::parse_exposition(text)? {
            let value =
                u64::try_from(value).map_err(|_| format!("negative sample for `{name}`"))?;
            series.insert(name, value);
        }
        let get = |name: &str| series.get(name).copied().unwrap_or(0);
        let mut stages: Vec<(String, u64, u64)> = series
            .iter()
            .filter_map(|(name, &wall)| {
                let stage = name
                    .strip_prefix("optimize_stage_wall_us_total{stage=\"")?
                    .strip_suffix("\"}")?;
                let work = get(&format!(
                    "optimize_stage_work_us_total{{stage=\"{stage}\"}}"
                ));
                Some((stage.to_string(), wall, work))
            })
            .collect();
        stages.sort_unstable();
        let phase = |phase: &str, suffix: &str| get(&format!("request_{phase}_us{suffix}"));
        Ok(ServeStats {
            uptime_ms: get("uptime_ms"),
            requests: get("requests_total"),
            busy: get("request_busy_total"),
            errors: get("request_errors_total"),
            deadline_missed: get("request_deadline_missed_total"),
            hits: get("cache_hits_total"),
            misses: get("cache_misses_total"),
            stale_hits: get("cache_stale_total"),
            evictions: get("cache_evictions_total"),
            func_hits: get("cache_func_hits_total"),
            func_misses: get("cache_func_misses_total"),
            entries: get("cache_entries"),
            cache_bytes: get("cache_resident_bytes"),
            partition_hits: get("incr_partition_hits_total"),
            partition_rebuilds: get("incr_partition_rebuilds_total"),
            incr_fallbacks: get("incr_fallback_total"),
            partition_entries: get("partition_entries"),
            pgo_pushes: get("pgo_push_total"),
            // Every stale hit is exactly one drift-triggered rebuild.
            reoptimizations: get("cache_stale_total"),
            pgo_programs: get("pgo_programs"),
            pgo_bytes: get("pgo_resident_bytes"),
            slow_requests: get("request_slow_total"),
            flight_records: get("flight_records"),
            traces_stored: get("traces_stored"),
            events_emitted: get("events_emitted"),
            stages,
            latencies: REQUEST_PHASES
                .iter()
                .map(|p| (p.to_string(), phase(p, "_count"), phase(p, "_sum")))
                .collect(),
            quantiles: REQUEST_PHASES
                .iter()
                .map(|p| {
                    let q = |q: &str| phase(p, &format!("{{quantile=\"{q}\"}}"));
                    (p.to_string(), q("0.5"), q("0.95"), q("0.99"))
                })
                .collect(),
        })
    }
}

/// A blocking connection to a running `hlod`. One request is in flight at
/// a time per client; open several clients for concurrency.
pub struct Client {
    stream: TcpStream,
    max_payload: u32,
}

impl Client {
    /// Connects to a daemon at `addr`.
    ///
    /// # Errors
    /// Propagates connect failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServeError> {
        Ok(Client {
            stream: TcpStream::connect(addr)?,
            max_payload: DEFAULT_MAX_PAYLOAD,
        })
    }

    /// Raises or lowers the largest response payload this client accepts.
    pub fn set_max_payload(&mut self, bytes: u32) {
        self.max_payload = bytes;
    }

    fn roundtrip(&mut self, frame: &Frame) -> Result<Frame, ServeError> {
        frame.write_to(&mut self.stream)?;
        Ok(Frame::read_from(&mut self.stream, self.max_payload)?)
    }

    fn remote_error(frame: &Frame) -> ServeError {
        let msg = Sections::decode(&frame.payload)
            .ok()
            .and_then(|s| s.text("message").ok().map(str::to_string))
            .unwrap_or_else(|| "unspecified daemon error".to_string());
        ServeError::Remote(msg)
    }

    /// Submits one optimize request and blocks for the response.
    ///
    /// # Errors
    /// [`ServeError::Busy`] when the daemon queue is full,
    /// [`ServeError::Remote`] for request-level failures.
    pub fn optimize(&mut self, req: &OptimizeRequest) -> Result<OptimizeResponse, ServeError> {
        let reply = self.roundtrip(&Frame::new(Kind::Optimize, &req.to_sections()))?;
        match reply.kind {
            Kind::Result => {
                let s = Sections::decode(&reply.payload)
                    .map_err(|e| ServeError::Protocol(e.to_string()))?;
                OptimizeResponse::from_sections(&s).map_err(ServeError::Protocol)
            }
            Kind::Busy => Err(ServeError::Busy),
            Kind::Error => Err(Self::remote_error(&reply)),
            k => Err(ServeError::Protocol(format!("unexpected reply {k:?}"))),
        }
    }

    /// Fetches daemon counters.
    ///
    /// # Errors
    /// I/O, frame or protocol failures.
    pub fn stats(&mut self) -> Result<ServeStats, ServeError> {
        let reply = self.roundtrip(&Frame::bare(Kind::Stats))?;
        match reply.kind {
            Kind::StatsReply => {
                let s = Sections::decode(&reply.payload)
                    .map_err(|e| ServeError::Protocol(e.to_string()))?;
                ServeStats::from_text(s.text("stats").map_err(ServeError::Protocol)?)
                    .map_err(ServeError::Protocol)
            }
            Kind::Error => Err(Self::remote_error(&reply)),
            k => Err(ServeError::Protocol(format!("unexpected reply {k:?}"))),
        }
    }

    /// Fetches the full Prometheus-style metrics exposition text.
    ///
    /// # Errors
    /// I/O, frame or protocol failures.
    pub fn metrics(&mut self) -> Result<String, ServeError> {
        let reply = self.roundtrip(&Frame::bare(Kind::Metrics))?;
        match reply.kind {
            Kind::MetricsReply => {
                let s = Sections::decode(&reply.payload)
                    .map_err(|e| ServeError::Protocol(e.to_string()))?;
                Ok(s.text("metrics").map_err(ServeError::Protocol)?.to_string())
            }
            Kind::Error => Err(Self::remote_error(&reply)),
            k => Err(ServeError::Protocol(format!("unexpected reply {k:?}"))),
        }
    }

    /// Pushes a profile delta into the daemon's aggregate for a program.
    ///
    /// # Errors
    /// [`ServeError::Remote`] when the program key is unknown or the
    /// delta malformed (daemon state is unchanged), plus the usual I/O,
    /// frame and protocol failures.
    pub fn profile_push(
        &mut self,
        req: &ProfilePushRequest,
    ) -> Result<ProfilePushOutcome, ServeError> {
        let reply = self.roundtrip(&Frame::new(Kind::ProfilePush, &req.to_sections()))?;
        match reply.kind {
            Kind::ProfilePushAck => {
                let s = Sections::decode(&reply.payload)
                    .map_err(|e| ServeError::Protocol(e.to_string()))?;
                ProfilePushOutcome::from_text(s.text("ack").map_err(ServeError::Protocol)?)
                    .map_err(ServeError::Protocol)
            }
            Kind::Error => Err(Self::remote_error(&reply)),
            k => Err(ServeError::Protocol(format!("unexpected reply {k:?}"))),
        }
    }

    /// Fetches profile-store statistics; with `program` set, also the
    /// merged (decayed) aggregate profile text for that program.
    ///
    /// # Errors
    /// [`ServeError::Remote`] for unknown program keys, plus the usual
    /// I/O, frame and protocol failures.
    pub fn profile_stats(
        &mut self,
        program: Option<&str>,
    ) -> Result<ProfileStatsReply, ServeError> {
        let mut s = Sections::new();
        if let Some(key) = program {
            s.push("program", key.to_string());
        }
        let reply = self.roundtrip(&Frame::new(Kind::ProfileStats, &s))?;
        match reply.kind {
            Kind::ProfileStatsReply => {
                let s = Sections::decode(&reply.payload)
                    .map_err(|e| ServeError::Protocol(e.to_string()))?;
                Ok(ProfileStatsReply {
                    text: s.text("stats").map_err(ServeError::Protocol)?.to_string(),
                    profile: s.text("profile").ok().map(str::to_string),
                })
            }
            Kind::Error => Err(Self::remote_error(&reply)),
            k => Err(ServeError::Protocol(format!("unexpected reply {k:?}"))),
        }
    }

    /// Fetches the stored trace for a request previously submitted with
    /// `trace_id` set.
    ///
    /// # Errors
    /// [`ServeError::Remote`] when the id is malformed or the trace has
    /// aged out of the daemon's ring, plus the usual I/O, frame and
    /// protocol failures.
    pub fn trace_fetch(&mut self, trace_id: &str) -> Result<TraceFetchReply, ServeError> {
        let mut s = Sections::new();
        s.push("trace-id", trace_id.to_string());
        let reply = self.roundtrip(&Frame::new(Kind::TraceFetch, &s))?;
        match reply.kind {
            Kind::TraceReply => {
                let s = Sections::decode(&reply.payload)
                    .map_err(|e| ServeError::Protocol(e.to_string()))?;
                TraceFetchReply::from_sections(&s).map_err(ServeError::Protocol)
            }
            Kind::Error => Err(Self::remote_error(&reply)),
            k => Err(ServeError::Protocol(format!("unexpected reply {k:?}"))),
        }
    }

    /// Dumps the daemon's flight recorder: one event-formatted line per
    /// recent request, plus the count of requests admitted since start
    /// (records beyond the ring capacity have been overwritten).
    ///
    /// # Errors
    /// I/O, frame or protocol failures.
    pub fn flight_dump(&mut self) -> Result<(String, u64), ServeError> {
        let reply = self.roundtrip(&Frame::bare(Kind::FlightDump))?;
        match reply.kind {
            Kind::FlightReply => {
                let s = Sections::decode(&reply.payload)
                    .map_err(|e| ServeError::Protocol(e.to_string()))?;
                let dump = s.text("flight").map_err(ServeError::Protocol)?.to_string();
                let admitted = s
                    .text("admitted")
                    .map_err(ServeError::Protocol)?
                    .trim()
                    .parse()
                    .map_err(|_| ServeError::Protocol("bad admitted count".to_string()))?;
                Ok((dump, admitted))
            }
            Kind::Error => Err(Self::remote_error(&reply)),
            k => Err(ServeError::Protocol(format!("unexpected reply {k:?}"))),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    /// I/O, frame or protocol failures.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        let reply = self.roundtrip(&Frame::bare(Kind::Ping))?;
        match reply.kind {
            Kind::Pong => Ok(()),
            k => Err(ServeError::Protocol(format!("unexpected reply {k:?}"))),
        }
    }

    /// Asks the daemon to drain and exit. Returns once the daemon has
    /// acknowledged; in-flight work still completes server-side.
    ///
    /// # Errors
    /// I/O, frame or protocol failures.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        let reply = self.roundtrip(&Frame::bare(Kind::Shutdown))?;
        match reply.kind {
            Kind::ShutdownAck => Ok(()),
            k => Err(ServeError::Protocol(format!("unexpected reply {k:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_exposition_parses() {
        let m = hlo::MetricsRegistry::new();
        m.set_gauge("uptime_ms", 1234);
        m.add("requests_total", 10);
        m.add("cache_hits_total", 6);
        m.add("cache_misses_total", 3);
        m.inc("cache_stale_total");
        m.set_gauge("cache_entries", 4);
        m.set_gauge("cache_resident_bytes", 2048);
        m.add("pgo_push_total", 3);
        m.add("incr_partition_hits_total", 5);
        m.add("optimize_stage_wall_us_total{stage=\"inline\"}", 500);
        m.add("optimize_stage_work_us_total{stage=\"inline\"}", 1200);
        m.add("optimize_stage_wall_us_total{stage=\"clone.plan\"}", 80);
        m.add("optimize_stage_work_us_total{stage=\"clone.plan\"}", 90);
        for us in [10, 20, 60] {
            m.observe("request_queue_wait_us", us);
        }
        m.inc("future_counter_total");
        let st = ServeStats::from_text(&m.expose()).unwrap();
        assert_eq!(st.uptime_ms, 1234);
        assert_eq!(st.requests, 10);
        assert_eq!((st.hits, st.misses, st.stale_hits), (6, 3, 1));
        assert_eq!(st.reoptimizations, 1, "one rebuild per stale hit");
        assert_eq!((st.entries, st.cache_bytes), (4, 2048));
        assert_eq!(st.pgo_pushes, 3);
        assert_eq!(st.partition_hits, 5);
        assert_eq!(st.busy, 0, "unrecorded series read as zero");
        assert_eq!(
            st.stages,
            vec![
                ("clone.plan".to_string(), 80, 90),
                ("inline".to_string(), 500, 1200)
            ]
        );
        // Every phase is reported, in request order, observed or not.
        let phases: Vec<&str> = st.latencies.iter().map(|(p, ..)| p.as_str()).collect();
        assert_eq!(phases, REQUEST_PHASES);
        assert_eq!(st.latencies[0], ("queue_wait".to_string(), 3, 90));
        assert_eq!(st.latencies[2], ("optimize".to_string(), 0, 0));
        let sketch = m.sketch("request_queue_wait_us");
        assert_eq!(
            st.quantiles[0],
            (
                "queue_wait".to_string(),
                sketch.quantile(500),
                sketch.quantile(950),
                sketch.quantile(990)
            )
        );
    }

    #[test]
    fn malformed_stats_exposition_is_an_error() {
        assert!(ServeStats::from_text("requests_total ten\n").is_err());
        assert!(ServeStats::from_text("stage inline 5\n").is_err());
        assert!(ServeStats::from_text("cache_entries -1\n").is_err());
    }

    #[test]
    fn minted_trace_ids_are_valid_and_distinct() {
        let a = crate::mint_trace_id();
        let b = crate::mint_trace_id();
        assert!(crate::valid_trace_id(&a), "{a}");
        assert!(crate::valid_trace_id(&b), "{b}");
        assert_ne!(a, b);
    }
}
