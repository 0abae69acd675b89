//! `hlod` — the persistent optimization daemon.
//!
//! ```text
//! hlod [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
//!      [--max-payload BYTES] [--deadline-ms N]
//!      [--pgo-threshold MILLIS] [--pgo-cap N] [--pgo-store PATH]
//!      [--no-incremental] [--log PATH] [--log-stderr]
//!      [--slow-ms N] [--flight-cap N]
//! hlod --version
//! ```
//!
//! Runs in the foreground, serving framed optimize requests (see
//! `crates/serve`) until a client sends a `shutdown` frame; in-flight
//! requests are drained before exit. Pair with `hloc remote <addr>`.

use aggressive_inlining::serve::{ServeConfig, Server};
use std::process::ExitCode;

/// Compile-time capabilities baked into this binary; the workspace has no
/// optional cargo features, so the list is static.
const FEATURES: &str = "serve pgo clone outline sim lint";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("hlod: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    for a in args {
        match a.as_str() {
            "--version" | "-V" => {
                println!("hlod {} (features: {FEATURES})", env!("CARGO_PKG_VERSION"));
                return Ok(ExitCode::SUCCESS);
            }
            "--help" | "-h" | "help" => {
                print_help();
                return Ok(ExitCode::SUCCESS);
            }
            _ => {}
        }
    }
    let (addr, cfg) =
        ServeConfig::from_args(args).map_err(|e| format!("{e}; try `hlod --help`"))?;
    let banner_cfg = cfg.clone();
    let server = Server::spawn(addr.as_str(), cfg).map_err(|e| format!("bind {addr}: {e}"))?;
    aggressive_inlining::serve::server::banner(server.local_addr(), &banner_cfg);
    server.wait();
    eprintln!("hlod: drained, exiting");
    Ok(ExitCode::SUCCESS)
}

fn print_help() {
    let d = ServeConfig::default();
    println!(
        "hlod — persistent HLO optimization daemon

USAGE:
  hlod [OPTIONS]

OPTIONS:
  --addr HOST:PORT     listen address (default: {addr})
  --workers N          optimize worker threads (default: 0 = all cores)
  --queue N            bounded request queue depth (default: {queue})
  --cache N            cached program results, LRU past this (default: {cache})
  --max-payload BYTES  largest accepted request frame (default: {payload_mib} MiB)
  --deadline-ms N      default per-request deadline (default: none)
  --pgo-threshold M    profile-drift score (thousandths, 0-1000) past which
                       a cached `profile: server` result is re-optimized
                       (default: {threshold})
  --pgo-cap N          profile aggregates kept, LRU past this (default: {pgo_cap})
  --pgo-store PATH     persist the profile store to PATH (crash-safe
                       write+rename; reloaded on startup)
  --no-incremental     rebuild whole programs on every cache miss instead
                       of splicing cached per-partition results
  --log PATH           append structured events (crash-safe, one per line)
  --log-stderr         also mirror structured events to stderr
  --slow-ms N          wall-time bound; slower requests are logged and the
                       flight recorder is auto-dumped (default: off)
  --flight-cap N       request summaries in the flight recorder (default: {flight_cap})
  --version            print version and enabled features

Stop it with `hloc remote <addr> shutdown`; queued work is drained first.",
        addr = aggressive_inlining::serve::server::DEFAULT_ADDR,
        queue = d.queue_cap,
        cache = d.cache_cap,
        payload_mib = d.max_payload >> 20,
        threshold = d.pgo_threshold_millis,
        pgo_cap = d.pgo_cap,
        flight_cap = d.flight_cap,
    );
}
