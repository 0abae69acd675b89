//! `offline-pgo`: all 14 suite programs built the way Table 1 builds `cp`
//! (frontc, training run on `train_arg`, `hlo::optimize` with the default
//! cross-module options and the profile), then a ref run of the optimized
//! program on the default VM tier. One operation is one program built and
//! run; a pass is the whole suite, in a rotation whose start the seed
//! picks.

use crate::pipeline::{self, Tally};
use crate::probe::{self, Probe, Speed};
use crate::refs::{self, Arg};
use crate::stats::{median, OpTimes, Rng};
use crate::{show, Ctx, Report};
use hlo::HloOptions;
use hlo_suite::Benchmark;
use hlo_vm::ExecOptions;
use std::time::{Duration, Instant};

/// The tail percentile of the per-operation CPU times. A pass is 14
/// operations, so from eight passes on (a 30 s run makes 10–20) at least
/// ten operations lie beyond it.
const TAIL_P: f64 = 90.0;
/// Warm-up builds of the suite before the timed passes; the median of
/// their CPU times is `setup_s`.
const SETUP_REPEATS: usize = 9;
/// Passes a run makes even when `--seconds` is shorter.
const MIN_PASSES: usize = 3;

/// One pass: per-program timings plus the pass's per-layer totals.
struct Pass {
    build: Duration,
    run: Duration,
    /// `(program, CPU ms)` per build-and-run operation.
    op_ms: Vec<(usize, f64)>,
    tally: Tally,
}

fn pass(
    suite: &[Benchmark],
    order: &[usize],
    probe: &mut Probe,
    speed: &mut Speed,
    report: &mut Report,
) -> Pass {
    let mut p = Pass {
        build: Duration::ZERO,
        run: Duration::ZERO,
        op_ms: Vec::new(),
        tally: Tally::default(),
    };
    for &i in order {
        let b = &suite[i];
        speed.sample();
        let (op, cpu) = probe::cpu_timed(|| {
            let built = pipeline::build(b, HloOptions::default(), probe)?;
            let run = probe.call("vm", "vm.run", |_| {
                hlo_vm::run_program(&built.program, &[b.ref_arg], &ExecOptions::default())
            });
            Ok::<_, String>((built, run))
        });
        let (built, (out, run)) = match op {
            Ok(v) => v,
            Err(e) => {
                report.check(false, || e);
                continue;
            }
        };
        let ok = out
            .as_ref()
            .is_ok_and(|o| refs::suite(b.name, Arg::Ref).matches(o));
        report.check(ok, || {
            format!("{}: optimized ref run differs from refs", b.name)
        });
        p.build += built.build_time();
        p.run += run;
        p.op_ms.push((i, cpu.as_secs_f64() * 1e3));
        p.tally.add_build(&built);
        p.tally.vm_retired += out.map_or(0, |o| o.retired);
        p.tally.vm += run;
    }
    p
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let suite = hlo_suite::all_benchmarks();
    let start_at = Rng::new(ctx.seed, 1).below(suite.len() as u64) as usize;

    // Set-up: warm-up builds (lazy initialisation, allocator growth),
    // timed several times; the median CPU time is reported.
    let mut speed = Speed::default();
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        speed.sample();
        let ((), cpu) = probe::cpu_timed(|| {
            for b in &suite {
                if let Err(e) = pipeline::build(b, HloOptions::default(), &mut Probe::new(false)) {
                    report.check(false, || e);
                }
            }
        });
        setups.push(cpu.as_secs_f64());
    }

    let mut probe = Probe::new(ctx.traced);
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let start = Instant::now();
    let mut n = 0;
    // Stop before a pass that would overrun `--seconds`.
    let fits = |n: usize| {
        let spent = start.elapsed().as_secs_f64();
        spent + spent / n.max(1) as f64 <= ctx.seconds
    };
    while n < MIN_PASSES || fits(n) {
        // A rotation of the suite: over 14 passes every program takes
        // every position once, whatever the seed.
        let mut order: Vec<usize> = (0..suite.len()).collect();
        order.rotate_left((start_at + n) % suite.len());
        // A traced run alternates traced and untraced passes, so the
        // difference between the two is the tracing overhead.
        if ctx.traced && n % 2 == 1 {
            traced.push(pass(&suite, &order, &mut probe, &mut speed, &mut report));
        } else {
            untraced.push(pass(
                &suite,
                &order,
                &mut Probe::new(false),
                &mut speed,
                &mut report,
            ));
        }
        n += 1;
    }

    let all: Vec<&Pass> = untraced.iter().chain(&traced).collect();
    for p in &all[1..] {
        let same = (p.tally.ops_out, p.tally.vm_retired)
            == (all[0].tally.ops_out, all[0].tally.vm_retired);
        report.check(same, || "exact counts differ between passes".to_string());
    }
    let secs = |ps: &[Pass], f: fn(&Pass) -> Duration| -> f64 {
        median(&ps.iter().map(|p| f(p).as_secs_f64()).collect::<Vec<_>>())
    };
    let ops: Vec<(usize, f64)> = untraced
        .iter()
        .flat_map(|p| p.op_ms.iter().copied())
        .collect();
    let scale = speed.scale();
    let raw = OpTimes::of(&ops, TAIL_P, 1.0);
    let t = OpTimes::of(&ops, TAIL_P, scale);
    let m = &mut report.metrics;
    println!(
        "offline-pgo: {} untraced passes of {} programs ({} ops), {} traced passes",
        untraced.len(),
        suite.len(),
        ops.len(),
        traced.len()
    );
    if !ctx.traced {
        let e2e = [
            ("setup_s", median(&setups) * scale, "s"),
            ("peak_rss_mb", probe::peak_rss_mb(), "MB"),
            ("cpu_p50_ms", t.p50, "ms"),
            ("cpu_tail_ms", t.tail, "ms"),
            ("ops_per_cpu_s", t.ops_per_cpu_s, "1/s"),
            ("code_ops", all[0].tally.ops_out as f64, "count"),
            ("code_retired", all[0].tally.vm_retired as f64, "count"),
        ];
        for (name, v, unit) in e2e {
            m.put(name, v);
            show(name, v, unit);
        }
        speed.show();
        crate::show_unscaled(median(&setups), raw.p50, raw.tail, raw.ops_per_cpu_s);
        println!("  (cpu_p50_ms is the median program's median over the passes)");
        crate::note_tail("cpu_tail_ms", TAIL_P, t.enough, ops.len(), "operations");
        show("build_s", secs(&untraced, |p| p.build), "s");
        show("run_s", secs(&untraced, |p| p.run), "s");
        return report;
    }

    // Traced run: per-layer metrics are per pass, from the traced passes.
    let passes = traced.len() as f64;
    let mut tally = Tally::default();
    for p in &traced {
        tally.merge(&p.tally);
    }
    tally.metrics(passes, m);
    let overhead = secs(&traced, |p| p.build) - secs(&untraced, |p| p.build);
    m.put("trace.overhead_ms", overhead * 1e3);
    println!(
        "  tracing overhead on build_s: {:.3} ms per pass",
        overhead * 1e3
    );
    probe.export("offline-pgo", passes, &mut report);
    report
}
