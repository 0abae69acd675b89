//! End-to-end daemon observability: request-scoped tracing, the
//! structured event log, the flight recorder, latency quantiles, and the
//! determinism gate proving traced content is identical across worker
//! counts.

use hlo_serve::{
    mint_trace_id, Client, OptimizeRequest, ServeConfig, ServeError, Server, TraceFetchReply,
};
use std::path::PathBuf;

const SOURCES: &[(&str, &str)] = &[(
    "m",
    "static fn sq(x) { return x * x; }
     static fn cube(x) { return sq(x) * x; }
     fn main() { var s = 0;
         for (var i = 0; i < 20; i = i + 1) { s = s + cube(i); }
         return s; }",
)];

fn minc_request() -> OptimizeRequest {
    OptimizeRequest::from_minc(
        SOURCES
            .iter()
            .map(|(n, s)| (n.to_string(), s.to_string()))
            .collect(),
    )
}

/// A scratch file path that cleans up after itself.
struct TempLog(PathBuf);

impl TempLog {
    fn new(tag: &str) -> TempLog {
        TempLog(std::env::temp_dir().join(format!(
            "hlo-obs-{}-{tag}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        )))
    }
}

impl Drop for TempLog {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

#[test]
fn traced_request_round_trips_spans_flight_and_chrome() {
    let log = TempLog::new("traced");
    let server = Server::spawn(
        "127.0.0.1:0",
        ServeConfig {
            // A zero threshold plants slowness: every request must be
            // flagged slow and auto-dump the flight recorder.
            slow_ms: Some(0),
            event_log_path: Some(log.0.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let id = mint_trace_id();
    let mut req = minc_request();
    req.trace_id = Some(id.clone());
    let resp = client.optimize(&req).unwrap();
    assert_eq!(
        resp.trace_id.as_deref(),
        Some(id.as_str()),
        "daemon must echo the client-minted trace id"
    );
    assert!(!resp.outcome.hit);

    // The span tree names the request and the per-phase leaves, and the
    // phases sum exactly to the reported wall time.
    let trace = client.trace_fetch(&id).unwrap();
    assert_eq!(trace.trace_id, id);
    assert!(
        trace.spans.starts_with(&format!("request:{id}\n")),
        "{}",
        trace.spans
    );
    for phase in ["queue_wait", "cache_probe", "optimize", "reply"] {
        assert!(
            trace.spans.contains(phase),
            "missing {phase}:\n{}",
            trace.spans
        );
        assert!(
            trace.phases.iter().any(|(p, _)| p == phase),
            "no {phase} timing in {:?}",
            trace.phases
        );
    }
    let sum: u64 = trace.phases.iter().map(|(_, us)| us).sum();
    assert_eq!(sum, trace.wall_us, "phases must sum to the wall time");
    assert_eq!(trace.cache, resp.outcome.to_text());

    // The Chrome export passes the same schema gate `tier2 trace-schema`
    // applies, and is pure ASCII (hostile names are escaped).
    let events = hlo::validate_chrome_trace(&trace.chrome).unwrap();
    assert!(events > 4, "expected a real span tree, got {events} events");
    assert!(trace.chrome.is_ascii());

    // The flight recorder holds the request, keyed by the trace id.
    let (dump, admitted) = client.flight_dump().unwrap();
    assert_eq!(admitted, 1);
    let records = hlo::parse_flight_dump(&dump).unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].trace_id, id);
    assert_eq!(records[0].kind, "optimize");
    assert_eq!(records[0].outcome, "miss");

    // Stats and quantiles reflect the one served request.
    let st = client.stats().unwrap();
    assert_eq!(st.requests, 1);
    assert_eq!(st.slow_requests, 1, "slow-ms 0 flags every request");
    assert_eq!(st.traces_stored, 1);
    assert_eq!(st.flight_records, 1);
    assert!(st.events_emitted > 0);
    assert_eq!(st.quantiles.len(), 4);
    let optimize_q = st.quantiles.iter().find(|(p, ..)| p == "optimize").unwrap();
    let optimize_lat = st.latencies.iter().find(|(p, ..)| p == "optimize").unwrap();
    // One observation: every quantile is that observation, within the
    // sketch's documented overshoot bound.
    let truth = optimize_lat.2;
    for q in [optimize_q.1, optimize_q.2, optimize_q.3] {
        assert!(
            q >= truth,
            "quantile {q} undershoots the observation {truth}"
        );
        assert!(
            q <= truth + truth * hlo::SKETCH_ERROR_PERCENT / 100 + 1,
            "quantile {q} overshoots {truth} past the documented bound"
        );
    }

    // The same quantiles surface in the metrics exposition.
    let metrics = client.metrics().unwrap();
    for (phase, p50, p95, p99) in &st.quantiles {
        for (q, v) in [("0.5", p50), ("0.95", p95), ("0.99", p99)] {
            let line = format!("request_{phase}_us{{quantile=\"{q}\"}} {v}\n");
            assert!(metrics.contains(&line), "missing `{line}` in exposition");
        }
    }

    // An id the daemon never saw is a clean error.
    match client.trace_fetch("00000000000000ee") {
        Err(ServeError::Remote(msg)) => assert!(msg.contains("no stored trace"), "{msg}"),
        other => panic!("expected a remote error, got {other:?}"),
    }

    client.shutdown().unwrap();
    server.wait();

    // The event log saw the whole story: request lifecycle, the planted
    // slowness, the auto-dumped flight record, and the drain.
    let text = std::fs::read_to_string(&log.0).unwrap();
    for needle in [
        "info request.start",
        "request.finish",
        "warn request.slow",
        "warn flight.dump",
        "info daemon.drain",
        &format!("id={id}")[..],
    ] {
        assert!(text.contains(needle), "event log lacks `{needle}`:\n{text}");
    }
    // Every line round-trips through the strict parser.
    for line in text.lines() {
        hlo::Event::parse(line).unwrap_or_else(|e| panic!("bad event line `{line}`: {e}"));
    }
}

#[test]
fn refusals_and_evictions_reach_the_event_log_and_flight_recorder() {
    let log = TempLog::new("refuse");
    let server = Server::spawn(
        "127.0.0.1:0",
        ServeConfig {
            cache_cap: 1,
            event_log_path: Some(log.0.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Two distinct programs through a one-entry cache: the second insert
    // evicts the first.
    client.optimize(&minc_request()).unwrap();
    let other = OptimizeRequest::from_minc(vec![(
        "m".to_string(),
        "fn main() { return 41; }".to_string(),
    )]);
    client.optimize(&other).unwrap();

    let (dump, admitted) = client.flight_dump().unwrap();
    assert_eq!(admitted, 2);
    assert_eq!(hlo::parse_flight_dump(&dump).unwrap().len(), 2);

    client.shutdown().unwrap();
    server.wait();
    let text = std::fs::read_to_string(&log.0).unwrap();
    assert!(text.contains("cache.evict"), "no eviction event:\n{text}");
}

/// Strips every measured number from a span tree + decision report pair:
/// span names and decisions carry no timings by construction, so the
/// content is compared verbatim. (The Chrome export carries real `ts`
/// values and is deliberately excluded.)
fn traced_content(t: &TraceFetchReply) -> (String, String, String, Vec<String>) {
    (
        t.spans.clone(),
        t.decisions.clone(),
        t.cache.clone(),
        t.phases.iter().map(|(p, _)| p.clone()).collect(),
    )
}

#[test]
fn traced_content_is_identical_across_worker_counts() {
    // The determinism gate, extended to observability: the same requests
    // through a 1-worker and a 4-worker daemon must produce byte-identical
    // span trees, decision reports, cache outcomes, and (after timestamp
    // normalization) event logs. Two daemons because `--jobs` is outside
    // the cache fingerprint — one daemon would answer the second run from
    // its cache.
    let run = |jobs: usize, log: &TempLog| {
        let server = Server::spawn(
            "127.0.0.1:0",
            ServeConfig {
                workers: 1, // one worker: a deterministic event order
                event_log_path: Some(log.0.clone()),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let mut traces = Vec::new();
        for (i, id) in ["00000000000000a1", "00000000000000a2"].iter().enumerate() {
            let mut req = minc_request();
            req.options.jobs = jobs;
            req.trace_id = Some(id.to_string());
            // Second request is a warm hit; both phases of the cache are
            // exercised under tracing.
            let resp = client.optimize(&req).unwrap();
            assert_eq!(resp.outcome.hit, i == 1);
            traces.push(client.trace_fetch(id).unwrap());
        }
        client.shutdown().unwrap();
        server.wait();
        let text = std::fs::read_to_string(&log.0).unwrap();
        (traces, hlo::normalize_log(&text))
    };

    let log1 = TempLog::new("jobs1");
    let log4 = TempLog::new("jobs4");
    let (traces1, events1) = run(1, &log1);
    let (traces4, events4) = run(4, &log4);

    for (a, b) in traces1.iter().zip(&traces4) {
        assert_eq!(
            traced_content(a),
            traced_content(b),
            "traced content differs between --jobs 1 and --jobs 4"
        );
    }
    assert_eq!(
        events1, events4,
        "normalized event logs differ between --jobs 1 and --jobs 4"
    );
}

#[test]
fn daemon_metric_name_set_is_pinned() {
    // Golden test: the set of metric base names a standard request
    // sequence produces. A new daemon metric (or a renamed one) must
    // update this list — dashboards key on these names.
    let server = Server::spawn("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut req = minc_request();
    req.trace_id = Some(mint_trace_id());
    client.optimize(&req).unwrap();
    client.optimize(&minc_request()).unwrap(); // warm hit
    let exposition = client.metrics().unwrap();
    client.shutdown().unwrap();
    server.wait();

    let mut names: Vec<&str> = exposition
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split_whitespace().next())
        .collect();
    names.sort_unstable();
    assert_eq!(
        names,
        [
            "cache_entries",
            "cache_evictions_total",
            "cache_func_hits_total",
            "cache_func_misses_total",
            "cache_hits_total",
            "cache_misses_total",
            "cache_resident_bytes",
            "events_emitted",
            "flight_records",
            "incr_partition_hits_total",
            "incr_partition_rebuilds_total",
            "optimize_stage_wall_us_total",
            "optimize_stage_work_us_total",
            "partition_entries",
            "pgo_programs",
            "pgo_resident_bytes",
            "request_cache_probe_us",
            "request_optimize_us",
            "request_queue_wait_us",
            "request_reply_us",
            "requests_total",
            "traces_stored",
            "uptime_ms",
        ],
        "daemon metric-name set changed — update this golden list \
         deliberately, dashboards depend on it"
    );
}
