//! `vmbench` — execution-tier speedup harness (`cargo vmbench`).
//!
//! Runs every suite benchmark on the ref input twice — once on the
//! tree-walking tier, once on the linear bytecode tier — and reports the
//! bytecode tier's speedup per benchmark and suite-wide. Both runs must
//! produce the *identical* outcome (return value, printed output,
//! checksum, retired count); any divergence is a correctness bug and
//! aborts the harness immediately.
//!
//! Bytecode compilation is amortized the way every real consumer uses it
//! (compile once, execute many): the compile step is timed separately and
//! reported per benchmark, not folded into execution time.
//!
//! Results go to stdout and `BENCH_vm.json`. The gate: the suite-wide
//! speedup (total tree wall time over total bytecode wall time) must be
//! at least `--min-speedup` (default 2) or the process exits non-zero.

use hlo_vm::{run_counted, BytecodeProgram, ExecOptions, NullMonitor, Tier};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// One benchmark's tier timings, summed over `reps` identical runs.
struct Row {
    name: &'static str,
    ref_arg: i64,
    retired: u64,
    reps: u32,
    compile_us: u64,
    tree_us: u64,
    bytecode_us: u64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.tree_us as f64 / self.bytecode_us.max(1) as f64
    }
}

/// Repetitions chosen so the slower (tree) side accumulates enough wall
/// time to be measured stably, without letting the big benchmarks run
/// for minutes.
fn reps_for(tree_once_us: u64) -> u32 {
    const TARGET_US: u64 = 200_000;
    (TARGET_US / tree_once_us.max(1)).clamp(2, 20) as u32
}

fn main() -> ExitCode {
    let min_speedup = match parse_min_speedup(std::env::args().skip(1)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("vmbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("vmbench: suite ref runs, tree vs bytecode tier (gate: speedup >= {min_speedup})");
    println!(
        "{:<14} {:>12} {:>4} {:>11} {:>12} {:>12} {:>8}",
        "program", "retired", "reps", "compile_us", "tree_us", "bytecode_us", "speedup"
    );
    hlo_bench::rule(79);

    // The tree half names its tier: the default is the bytecode tier.
    let tree_opts = ExecOptions {
        tier: Tier::Tree,
        ..Default::default()
    };
    let opts = ExecOptions::default();
    let mut rows: Vec<Row> = Vec::new();
    for b in hlo_suite::all_benchmarks() {
        let program = b.compile().expect("suite program compiles");
        let args = [b.ref_arg];

        let c0 = Instant::now();
        let bc = BytecodeProgram::compile(&program);
        let compile_us = c0.elapsed().as_micros() as u64;

        // One timed run per tier establishes the parity baseline and the
        // repetition count.
        let t0 = Instant::now();
        let tree = hlo_vm::run_program(&program, &args, &tree_opts).expect("tree run");
        let tree_once_us = t0.elapsed().as_micros() as u64;
        let (bres, _dispatch) = run_counted(&bc, &program, &args, &opts, &mut NullMonitor);
        let byte = bres.expect("bytecode run");
        assert_eq!(
            (tree.ret, &tree.output, tree.checksum, tree.retired),
            (byte.ret, &byte.output, byte.checksum, byte.retired),
            "{}: tier outcomes diverge",
            b.name
        );

        let reps = reps_for(tree_once_us);
        let t0 = Instant::now();
        for _ in 0..reps {
            let out = hlo_vm::run_program(&program, &args, &tree_opts).expect("tree run");
            assert_eq!(
                out.retired, tree.retired,
                "{}: nondeterministic run",
                b.name
            );
        }
        let tree_us = t0.elapsed().as_micros() as u64;
        let t0 = Instant::now();
        for _ in 0..reps {
            let (r, _) = run_counted(&bc, &program, &args, &opts, &mut NullMonitor);
            let out = r.expect("bytecode run");
            assert_eq!(
                out.retired, tree.retired,
                "{}: nondeterministic run",
                b.name
            );
        }
        let bytecode_us = t0.elapsed().as_micros() as u64;

        let row = Row {
            name: b.name,
            ref_arg: b.ref_arg,
            retired: tree.retired,
            reps,
            compile_us,
            tree_us,
            bytecode_us,
        };
        println!(
            "{:<14} {:>12} {:>4} {:>11} {:>12} {:>12} {:>7.2}x",
            row.name,
            row.retired,
            row.reps,
            row.compile_us,
            row.tree_us,
            row.bytecode_us,
            row.speedup()
        );
        rows.push(row);
    }
    hlo_bench::rule(79);

    let tree_total: u64 = rows.iter().map(|r| r.tree_us).sum();
    let byte_total: u64 = rows.iter().map(|r| r.bytecode_us).sum();
    let compile_total: u64 = rows.iter().map(|r| r.compile_us).sum();
    let speedup = tree_total as f64 / byte_total.max(1) as f64;
    println!(
        "total: tree {tree_total} us, bytecode {byte_total} us \
         (+{compile_total} us compiling), speedup {speedup:.2}x"
    );

    let json = render_json(speedup, tree_total, byte_total, compile_total, &rows);
    let path = "BENCH_vm.json";
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("vmbench: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");

    if speedup >= min_speedup {
        ExitCode::SUCCESS
    } else {
        eprintln!("vmbench: suite-wide speedup {speedup:.2}x is below the {min_speedup}x gate");
        ExitCode::FAILURE
    }
}

/// Parses `[--min-speedup N]`, the only accepted argument.
fn parse_min_speedup(mut args: impl Iterator<Item = String>) -> Result<f64, String> {
    let mut min = 2.0;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--min-speedup" => {
                let v = args.next().ok_or("--min-speedup needs a value")?;
                min = v
                    .parse::<f64>()
                    .map_err(|_| format!("bad --min-speedup `{v}`"))?;
                if !min.is_finite() || min <= 0.0 {
                    return Err(format!("bad --min-speedup `{v}`"));
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(min)
}

/// Hand-rolled JSON (no serde in the offline registry). Benchmark names
/// are `[0-9A-Za-z._]` so quoting is the only escaping needed.
fn render_json(
    speedup: f64,
    tree_us: u64,
    bytecode_us: u64,
    compile_us: u64,
    rows: &[Row],
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"speedup_total\": {speedup:.3},");
    let _ = writeln!(s, "  \"tree_us_total\": {tree_us},");
    let _ = writeln!(s, "  \"bytecode_us_total\": {bytecode_us},");
    let _ = writeln!(s, "  \"compile_us_total\": {compile_us},");
    let _ = writeln!(s, "  \"benchmarks\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"ref_arg\": {}, \"retired\": {}, \"reps\": {}, \
             \"compile_us\": {}, \"tree_us\": {}, \"bytecode_us\": {}, \"speedup\": {:.3}}}{}",
            r.name,
            r.ref_arg,
            r.retired,
            r.reps,
            r.compile_us,
            r.tree_us,
            r.bytecode_us,
            r.speedup(),
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = write!(s, "}}");
    s
}
