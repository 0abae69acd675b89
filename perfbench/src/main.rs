//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <offline-pgo|fig7-sim|daemon-mix> --seed N --seconds S --trace 0|1
//! perfbench --regen-refs
//! ```
//!
//! Runs one workload against the public entry points with their default
//! options, checks every output, prints each metric by name with its unit
//! and ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` a separate traced run reports the per-layer ones and writes
//! a Chrome trace to `perfbench/out/`. The process exits non-zero on any
//! output mismatch. See `perfbench/README.md` for the metric definitions.

mod daemon;
mod fig7;
mod offline;
mod pipeline;
mod probe;
mod refs;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics: every workload reports all of them. The timings
/// are process CPU time (see [`probe::process_cpu`]) in reference-machine
/// ms (see [`probe::Speed`]); each workload also prints its wall-clock
/// metrics, unbounded.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_p50_ms", "ms"),
    ("cpu_tail_ms", "ms"),
    ("ops_per_cpu_s", "1/s"),
    ("code_ops", "count"),
    ("code_retired", "count"),
];

/// The stages `hlo::optimize_traced` records, in pipeline order.
pub const HLO_STAGES: &[&str] = &[
    "annotate",
    "cleanup",
    "pure_calls",
    "ipa",
    "clone.plan",
    "clone.apply",
    "inline.plan",
    "inline.apply",
    "delete",
    "straighten",
];

/// The longest `--seconds` a run accepts. The daemon-mix input pools
/// grow with the run, and the cold pool has room for this much (a unit
/// test in `daemon.rs` builds the pools at this length).
pub const MAX_SECONDS: f64 = 60.0;

/// The daemon-mix request classes.
pub const CLASSES: &[&str] = &["hit", "edit", "cold", "pgo"];

/// Layers with a peak-memory row.
pub const MEM_LAYERS: &[&str] = &["frontc", "profile", "hlo", "vm", "sim", "serve"];

/// Per-layer metrics (traced run), with units. A layer a workload does
/// not use reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: &str, u: &'static str| v.push((n.to_string(), u));
    add("frontc.busy_ms", "ms");
    add("frontc.src_bytes", "bytes");
    add("frontc.ir_ops", "count");
    add("profile.collect_ms", "ms");
    add("profile.retired", "count");
    add("profile.minst_s", "Minst/s");
    add("hlo.optimize_ms", "ms");
    add("hlo.compile_units", "count");
    add("hlo.inlines", "count");
    add("hlo.clones", "count");
    add("hlo.ops_in", "count");
    add("hlo.ops_out", "count");
    for s in HLO_STAGES {
        add(&format!("hlo.stage.{s}_ms"), "ms");
    }
    add("hlo.unattributed_ms", "ms");
    add("vm.run_ms", "ms");
    add("vm.retired", "count");
    add("vm.minst_s", "Minst/s");
    add("sim.busy_ms", "ms");
    add("sim.minst_s", "Minst/s");
    add("sim.monitor_overhead", "ratio");
    add("sim.cycles", "count");
    add("sim.cycles_rel", "ratio");
    add("sim.icache_accesses", "count");
    add("sim.icache_misses", "count");
    add("sim.dcache_accesses", "count");
    add("sim.dcache_misses", "count");
    add("sim.branches", "count");
    add("sim.mispredicts", "count");
    for c in CLASSES {
        add(&format!("serve.rtt_ms.{c}"), "ms");
    }
    for p in ["queue_wait", "cache_probe", "optimize", "reply"] {
        add(&format!("serve.{p}_p50_us"), "us");
    }
    for c in CLASSES {
        add(&format!("serve.unattributed_ms.{c}"), "ms");
    }
    add("serve.hit_ratio", "ratio");
    add("serve.busy_refused", "count");
    add("serve.req_bytes", "bytes");
    add("serve.resp_bytes", "bytes");
    add("incr.partition_hits", "count");
    add("incr.partition_rebuilds", "count");
    add("incr.reuse_ratio", "ratio");
    add("incr.fallbacks", "count");
    add("cache.evictions", "count");
    add("cache.resident_bytes", "bytes");
    add("pgo.push_ms", "ms");
    add("pgo.reoptimizations", "count");
    add("pgo.stale_hits", "count");
    for l in MEM_LAYERS {
        add(&format!("mem.{l}_peak_mb"), "MB");
    }
    add("trace.overhead_ms", "ms");
    add("trace.spans", "count");
    add("gen.late_p99_ms", "ms");
    add("gen.late_max_ms", "ms");
    v
}

/// Named metric values collected by a workload.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Metrics,
    /// Operations attempted (builds, runs, simulations, requests).
    pub attempted: u64,
    /// Operations that failed, were refused or produced a wrong output.
    pub failed: u64,
}

impl Report {
    /// Counts one checked operation; prints the first few mismatches.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: MISMATCH: {}", what());
            }
        }
    }
}

/// Run parameters from the command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// Prints one metric line for humans: `name = value unit`.
pub fn show(name: &str, value: f64, unit: &str) {
    println!("  {name:<28} = {value:.6} {unit}");
}

/// Prints the CPU-time metrics before [`probe::Speed`] scaled them.
pub fn show_unscaled(setup_s: f64, p50_ms: f64, tail_ms: f64, ops_per_cpu_s: f64) {
    println!(
        "  (unscaled process CPU: setup_s {setup_s:.6} s, cpu_p50_ms {p50_ms:.6} ms, \
         cpu_tail_ms {tail_ms:.6} ms, ops_per_cpu_s {ops_per_cpu_s:.6} 1/s)"
    );
}

/// Says which percentile a tail metric is, over how many samples, and
/// warns when fewer than ten samples lie beyond it.
pub fn note_tail(metric: &str, p: f64, enough: bool, n: usize, what: &str) {
    println!("  ({metric} is p{p} of {n} {what})");
    if !enough {
        println!("  warning: fewer than ten {what} beyond p{p}; the run was too short");
    }
}

fn env_stamp(ctx: &Ctx, workload: &str) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "env: workload={workload} seed={} seconds={} trace={} nproc={nproc} rustc={} git={}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.traced),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT_REV"),
    );
}

fn json_number(v: f64) -> String {
    // `-0` (an empty f64 sum) and non-finite values print as 0.
    if v.is_finite() && v != 0.0 {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <offline-pgo|fig7-sim|daemon-mix> --seed N \
         --seconds S --trace 0|1   (0 < S <= {MAX_SECONDS})\n       perfbench --regen-refs"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--regen-refs") {
        return match refs::regenerate(std::path::Path::new("perfbench/refs")) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: cannot write refs: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut opts: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                opts.insert(&k[2..], v);
            }
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        opts.get("workload").copied(),
        opts.get("seed").and_then(|s| s.parse::<u64>().ok()),
        opts.get("seconds").and_then(|s| s.parse::<f64>().ok()),
        opts.get("trace").copied(),
    ) else {
        return usage();
    };
    let in_range = seconds > 0.0 && seconds <= MAX_SECONDS;
    if !in_range || !matches!(trace, "0" | "1") {
        return usage();
    }
    let ctx = Ctx {
        seed,
        seconds,
        traced: trace == "1",
    };
    env_stamp(&ctx, workload);
    let report = match workload {
        "offline-pgo" => offline::run(&ctx),
        "fig7-sim" => fig7::run(&ctx),
        "daemon-mix" => daemon::run(&ctx),
        _ => return usage(),
    };

    let names: Vec<(String, &str)> = if ctx.traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let mut fields = Vec::new();
    let mut missing = Vec::new();
    for (name, unit) in &names {
        let value = match report.metrics.0.get(name) {
            Some(v) => *v,
            None if ctx.traced => 0.0, // a layer this workload does not use
            None => {
                missing.push(name.clone());
                0.0
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    if !missing.is_empty() {
        eprintln!("perfbench: workload produced no value for {missing:?}");
    }
    let correct = report.failed == 0 && missing.is_empty();
    println!(
        "fail_rate = {:.6} ({} of {} operations failed, refused or wrong)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
