//! `perf` — the parallel-pipeline harness (`cargo perf`).
//!
//! Builds every suite program twice — once at `jobs = 1` and once at
//! `jobs = N` (all hardware threads, floored at 2 so the worker pool is
//! exercised even on a single-core host) — and verifies that the parallel
//! build is **byte-identical**: same printed IR, same compile-time units,
//! same operation count. Any divergence is a bug in the parallel
//! pipeline and the process exits non-zero, which is what lets `cargo
//! perf` gate CI on determinism.
//!
//! Timings (per-benchmark wall clock, per-stage wall vs cumulative work,
//! aggregate speedup) are printed and written to `BENCH_parallel.json` in
//! the working directory. On a single-core container the speedup is
//! honestly ≈ 1× or below (thread overhead with no extra hardware); the
//! gate is determinism, not speedup.

use hlo::par::effective_jobs;
use hlo::HloOptions;
use hlo_bench::{build, BuildKind};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// One benchmark's measurements at both job counts.
struct Row {
    name: &'static str,
    identical: bool,
    compile_units: u64,
    operations: u64,
    wall_us_j1: u64,
    wall_us_jn: u64,
}

/// Per-stage totals (summed over the suite) at both job counts.
#[derive(Default, Clone)]
struct StageRow {
    stage: String,
    wall_us_j1: u64,
    wall_us_jn: u64,
    work_us_jn: u64,
}

fn main() -> ExitCode {
    let jobs = effective_jobs(0).max(2);
    let opts = |jobs| HloOptions {
        jobs,
        ..Default::default()
    };
    println!("perf: suite at jobs=1 vs jobs={jobs} (gate: identical output)");
    println!(
        "{:<14} {:>9} {:>6} {:>12} {:>12} {:>8} {:>6}",
        "program", "units", "ops", "j1 wall(us)", "jN wall(us)", "speedup", "same"
    );
    hlo_bench::rule(74);

    let mut rows: Vec<Row> = Vec::new();
    let mut stages: Vec<StageRow> = Vec::new();
    let mut all_identical = true;
    for b in hlo_suite::all_benchmarks() {
        let t = Instant::now();
        let r1 = build(&b, BuildKind::CrossProfile, opts(1));
        let wall_us_j1 = t.elapsed().as_micros() as u64;
        let t = Instant::now();
        let rn = build(&b, BuildKind::CrossProfile, opts(jobs));
        let wall_us_jn = t.elapsed().as_micros() as u64;

        let identical = hlo_ir::program_to_text(&r1.program)
            == hlo_ir::program_to_text(&rn.program)
            && r1.report.compile_time_units() == rn.report.compile_time_units()
            && r1.report.operations() == rn.report.operations();
        all_identical &= identical;

        for s in &r1.report.stage_timings {
            stage_row(&mut stages, &s.stage).wall_us_j1 += s.wall_us;
        }
        for s in &rn.report.stage_timings {
            let row = stage_row(&mut stages, &s.stage);
            row.wall_us_jn += s.wall_us;
            row.work_us_jn += s.work_us;
        }

        println!(
            "{:<14} {:>9} {:>6} {:>12} {:>12} {:>8.2} {:>6}",
            b.name,
            rn.report.compile_time_units(),
            rn.report.operations(),
            wall_us_j1,
            wall_us_jn,
            wall_us_j1 as f64 / wall_us_jn.max(1) as f64,
            if identical { "yes" } else { "NO" }
        );
        rows.push(Row {
            name: b.name,
            identical,
            compile_units: rn.report.compile_time_units(),
            operations: rn.report.operations(),
            wall_us_j1,
            wall_us_jn,
        });
    }
    hlo_bench::rule(74);

    let total_j1: u64 = rows.iter().map(|r| r.wall_us_j1).sum();
    let total_jn: u64 = rows.iter().map(|r| r.wall_us_jn).sum();
    let speedup = total_j1 as f64 / total_jn.max(1) as f64;
    println!("total: {total_j1} us at jobs=1, {total_jn} us at jobs={jobs} ({speedup:.2}x)");
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>9}",
        "stage", "j1 wall", "jN wall", "jN work", "parallel"
    );
    for s in &stages {
        println!(
            "{:<14} {:>12} {:>12} {:>12} {:>8.2}x",
            s.stage,
            s.wall_us_j1,
            s.wall_us_jn,
            s.work_us_jn,
            s.work_us_jn as f64 / s.wall_us_jn.max(1) as f64
        );
    }

    let json = render_json(jobs, all_identical, speedup, &rows, &stages);
    let path = "BENCH_parallel.json";
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("perf: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");

    if all_identical {
        ExitCode::SUCCESS
    } else {
        eprintln!("perf: PARALLEL OUTPUT DIVERGED from jobs=1 — see rows marked NO");
        ExitCode::FAILURE
    }
}

fn stage_row<'a>(stages: &'a mut Vec<StageRow>, name: &str) -> &'a mut StageRow {
    if let Some(i) = stages.iter().position(|s| s.stage == name) {
        return &mut stages[i];
    }
    stages.push(StageRow {
        stage: name.to_string(),
        ..Default::default()
    });
    stages.last_mut().expect("just pushed")
}

/// Hand-rolled JSON (the registry is offline; no serde). All strings here
/// are benchmark and stage names — `[0-9A-Za-z._]` — so no escaping is
/// needed beyond quoting.
fn render_json(
    jobs: usize,
    deterministic: bool,
    speedup: f64,
    rows: &[Row],
    stages: &[StageRow],
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"jobs\": {jobs},");
    let _ = writeln!(s, "  \"deterministic\": {deterministic},");
    let _ = writeln!(s, "  \"speedup\": {speedup:.4},");
    let _ = writeln!(s, "  \"benchmarks\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"identical\": {}, \"compile_time_units\": {}, \
             \"operations\": {}, \"wall_us_jobs1\": {}, \"wall_us_jobsN\": {}}}{}",
            r.name,
            r.identical,
            r.compile_units,
            r.operations,
            r.wall_us_j1,
            r.wall_us_jn,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"stages\": [");
    for (i, st) in stages.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"stage\": \"{}\", \"wall_us_jobs1\": {}, \"wall_us_jobsN\": {}, \
             \"work_us_jobsN\": {}}}{}",
            st.stage,
            st.wall_us_j1,
            st.wall_us_jn,
            st.work_us_jn,
            if i + 1 < stages.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = write!(s, "}}");
    s
}
