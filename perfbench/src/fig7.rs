//! `fig7-sim`: the paper's Figure 7 sweep — the seven
//! `figure7_benchmarks()` × {neither, clone, inline, in+cl}, each built
//! `cp` and simulated with `hlo_sim::simulate` on `figure7_machine()` with
//! the default VM options. The 28 builds are set-up; one operation is one
//! `simulate` call, and a sweep is all 28 cells, in a rotation whose
//! start the seed picks.

use crate::pipeline::{self, minst_s, Built, Tally};
use crate::probe::{self, Probe, Speed};
use crate::refs::{self, Arg};
use crate::stats::{median, OpTimes, Rng};
use crate::{show, Ctx, Report};
use hlo::HloOptions;
use hlo_sim::SimStats;
use hlo_suite::Benchmark;
use hlo_vm::ExecOptions;
use std::time::{Duration, Instant};

/// The tail percentile of the per-simulation CPU times. A sweep is 28
/// simulations, so even at `MIN_SWEEPS` (84 simulations) twelve lie
/// beyond it.
const TAIL_P: f64 = 85.0;
/// Set-ups (all 28 builds) per run; the median CPU time is `setup_s`.
const SETUP_REPEATS: usize = 5;
/// Sweeps a run makes even when `--seconds` is shorter.
const MIN_SWEEPS: usize = 3;

/// The four inline/clone configurations of Figure 7.
pub const CONFIGS: [(&str, bool, bool); 4] = [
    ("neither", false, false),
    ("clone", false, true),
    ("inline", true, false),
    ("in+cl", true, true),
];

/// One Figure 7 cell: a benchmark under one configuration.
pub struct Cell {
    pub bench: Benchmark,
    pub config: &'static str,
    inline: bool,
    clone: bool,
}

impl Cell {
    pub fn options(&self) -> HloOptions {
        HloOptions {
            enable_inline: self.inline,
            enable_clone: self.clone,
            ..Default::default()
        }
    }
}

/// All 28 cells, benchmark-major.
pub fn cells() -> Vec<Cell> {
    hlo_suite::figure7_benchmarks()
        .into_iter()
        .flat_map(|b| {
            CONFIGS.map(|(config, inline, clone)| Cell {
                bench: b.clone(),
                config,
                inline,
                clone,
            })
        })
        .collect()
}

/// Builds every cell; failures are counted and leave the cell out.
fn build_all(cells: &[Cell], probe: &mut Probe, report: &mut Report) -> Vec<Option<Built>> {
    cells
        .iter()
        .map(|c| match pipeline::build(&c.bench, c.options(), probe) {
            Ok(b) => Some(b),
            Err(e) => {
                report.check(false, || e);
                None
            }
        })
        .collect()
}

/// One sweep's simulate timings and summed statistics.
struct Sweep {
    sim: Duration,
    /// `(cell, CPU ms)` per simulate call.
    op_ms: Vec<(usize, f64)>,
    stats: Vec<Option<SimStats>>,
    exec_retired: u64,
}

fn sweep(
    cells: &[Cell],
    built: &[Option<Built>],
    order: &[usize],
    probe: &mut Probe,
    speed: &mut Speed,
    report: &mut Report,
) -> Sweep {
    let machine = hlo_bench::figure7_machine();
    let mut s = Sweep {
        sim: Duration::ZERO,
        op_ms: Vec::new(),
        stats: vec![None; cells.len()],
        exec_retired: 0,
    };
    for &i in order {
        let (cell, Some(b)) = (&cells[i], &built[i]) else {
            continue;
        };
        let arg = [cell.bench.ref_arg];
        speed.sample();
        let ((res, d), cpu) = probe::cpu_timed(|| {
            probe.call("sim", "sim.simulate", |_| {
                hlo_sim::simulate(&b.program, &arg, &ExecOptions::default(), &machine)
            })
        });
        let ok = match &res {
            Ok((stats, out)) => {
                *stats == refs::fig7(cell.bench.name, cell.config)
                    && refs::suite(cell.bench.name, Arg::Ref).matches(out)
            }
            Err(_) => false,
        };
        report.check(ok, || {
            format!(
                "{} {}: SimStats or output differ from refs",
                cell.bench.name, cell.config
            )
        });
        if let Ok((stats, out)) = res {
            s.stats[i] = Some(stats);
            s.exec_retired += out.retired;
        }
        s.sim += d;
        s.op_ms.push((i, cpu.as_secs_f64() * 1e3));
    }
    s
}

/// Geometric mean over benchmarks of in+cl cycles over neither cycles.
fn cycles_rel(cells: &[Cell], stats: &[Option<SimStats>]) -> f64 {
    let cyc = |name: &str, config: &str| {
        cells
            .iter()
            .zip(stats)
            .find(|(c, _)| c.bench.name == name && c.config == config)
            .and_then(|(_, s)| s.map(|s| s.cycles))
    };
    let ratios: Vec<f64> = hlo_suite::figure7_benchmarks()
        .iter()
        .filter_map(|b| Some(cyc(b.name, "in+cl")? / cyc(b.name, "neither")?))
        .collect();
    hlo_bench::geomean(&ratios)
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let cells = cells();
    let start_at = Rng::new(ctx.seed, 2).below(cells.len() as u64) as usize;

    // Set-up: the 28 builds, several times; the last set is simulated.
    let mut speed = Speed::default();
    let mut setups = Vec::new();
    let mut built = Vec::new();
    for _ in 0..SETUP_REPEATS {
        speed.sample();
        let (b, cpu) = probe::cpu_timed(|| build_all(&cells, &mut Probe::new(false), &mut report));
        built = b;
        setups.push(cpu.as_secs_f64());
    }
    let mut probe = Probe::new(ctx.traced);
    let mut tally = Tally::default();
    if ctx.traced {
        // One more, traced, set of builds for the build-path layers.
        built = build_all(&cells, &mut probe, &mut report);
        for b in built.iter().flatten() {
            tally.add_build(b);
        }
    }

    let mut untraced: Vec<Sweep> = Vec::new();
    let mut traced: Vec<Sweep> = Vec::new();
    let start = Instant::now();
    let mut n = 0;
    // Stop before a pass that would overrun `--seconds`.
    let fits = |n: usize| {
        let spent = start.elapsed().as_secs_f64();
        spent + spent / n.max(1) as f64 <= ctx.seconds
    };
    while n < MIN_SWEEPS || fits(n) {
        // A rotation of the cells, advanced by a benchmark's four cells
        // plus one per sweep, so each sweep starts somewhere new.
        let mut order: Vec<usize> = (0..cells.len()).collect();
        order.rotate_left((start_at + 5 * n) % cells.len());
        if ctx.traced && n % 2 == 1 {
            traced.push(sweep(
                &cells,
                &built,
                &order,
                &mut probe,
                &mut speed,
                &mut report,
            ));
        } else {
            untraced.push(sweep(
                &cells,
                &built,
                &order,
                &mut Probe::new(false),
                &mut speed,
                &mut report,
            ));
        }
        n += 1;
    }

    if ctx.traced {
        // A traced run also makes raw runs of the same programs on the same tier give the
        // monitor overhead; every count is per sweep.
        for (cell, b) in cells.iter().zip(&built) {
            let Some(b) = b else { continue };
            let (out, d) = probe.call("vm", "vm.run", |_| {
                hlo_vm::run_program(&b.program, &[cell.bench.ref_arg], &ExecOptions::default())
            });
            report.check(
                out.as_ref()
                    .is_ok_and(|o| refs::suite(cell.bench.name, Arg::Ref).matches(o)),
                || {
                    format!(
                        "{} {}: raw run differs from refs",
                        cell.bench.name, cell.config
                    )
                },
            );
            tally.vm += d;
            tally.vm_retired += out.map_or(0, |o| o.retired);
        }
    }
    let code_ops: u64 = built.iter().flatten().map(|b| b.program.total_size()).sum();
    let stats0 = &untraced[0].stats;
    let rel = cycles_rel(&cells, stats0);
    let sim_s = median(
        &untraced
            .iter()
            .map(|s| s.sim.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let ops: Vec<(usize, f64)> = untraced
        .iter()
        .flat_map(|s| s.op_ms.iter().copied())
        .collect();
    let scale = speed.scale();
    let raw = OpTimes::of(&ops, TAIL_P, 1.0);
    let t = OpTimes::of(&ops, TAIL_P, scale);
    println!(
        "fig7-sim: {} cells, {} untraced sweeps ({} ops), {} traced sweeps",
        cells.len(),
        untraced.len(),
        ops.len(),
        traced.len()
    );
    let m = &mut report.metrics;
    if !ctx.traced {
        let e2e = [
            ("setup_s", median(&setups) * scale, "s"),
            ("peak_rss_mb", probe::peak_rss_mb(), "MB"),
            ("cpu_p50_ms", t.p50, "ms"),
            ("cpu_tail_ms", t.tail, "ms"),
            ("ops_per_cpu_s", t.ops_per_cpu_s, "1/s"),
            ("code_ops", code_ops as f64, "count"),
            ("code_retired", untraced[0].exec_retired as f64, "count"),
        ];
        for (name, v, unit) in e2e {
            m.put(name, v);
            show(name, v, unit);
        }
        speed.show();
        crate::show_unscaled(median(&setups), raw.p50, raw.tail, raw.ops_per_cpu_s);
        println!("  (cpu_p50_ms is the median cell's median over the sweeps)");
        crate::note_tail("cpu_tail_ms", TAIL_P, t.enough, ops.len(), "simulations");
        show("sim_s", sim_s, "s");
        show("model_cycles_rel", rel, "ratio");
        return report;
    }

    // Traced run: every count is per sweep.
    tally.metrics(1.0, m);
    let sweeps = traced.len() as f64;
    let sim_busy: Duration = traced.iter().map(|s| s.sim).sum();
    let sum = |f: fn(&SimStats) -> f64| -> f64 { stats0.iter().flatten().map(f).sum() };
    m.put("sim.busy_ms", sim_busy.as_secs_f64() * 1e3 / sweeps);
    m.put(
        "sim.minst_s",
        minst_s(traced.iter().map(|s| s.exec_retired).sum(), sim_busy),
    );
    m.put(
        "sim.monitor_overhead",
        sim_busy.as_secs_f64() / sweeps / tally.vm.as_secs_f64(),
    );
    m.put("sim.cycles", sum(|s| s.cycles));
    m.put("sim.cycles_rel", rel);
    m.put("sim.icache_accesses", sum(|s| s.icache_accesses as f64));
    m.put("sim.icache_misses", sum(|s| s.icache_misses as f64));
    m.put("sim.dcache_accesses", sum(|s| s.dcache_accesses as f64));
    m.put("sim.dcache_misses", sum(|s| s.dcache_misses as f64));
    m.put("sim.branches", sum(|s| s.branches as f64));
    m.put("sim.mispredicts", sum(|s| s.mispredicts as f64));
    let traced_sim = median(
        &traced
            .iter()
            .map(|s| s.sim.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    m.put("trace.overhead_ms", (traced_sim - sim_s) * 1e3);
    println!(
        "  tracing overhead on sim_s: {:.3} ms per sweep",
        (traced_sim - sim_s) * 1e3
    );
    probe.export("fig7-sim", 1.0, &mut report);
    report
}
