//! The offline build path, one layer call at a time: frontc, then a
//! training run, then HLO — the way the paper's Table 1 builds `cp`
//! (cross-module scope, profile feedback). Every call goes through the
//! [`Probe`] so a traced run gets one span per layer call.

use crate::probe::Probe;
use crate::refs::{self, Arg};
use hlo::{HloOptions, HloReport};
use hlo_ir::Program;
use hlo_suite::Benchmark;
use hlo_vm::ExecOptions;
use std::time::Duration;

/// One finished build and what each layer did for it.
pub struct Built {
    pub program: Program,
    pub report: HloReport,
    pub frontc: Duration,
    pub train: Duration,
    pub optimize: Duration,
    pub src_bytes: u64,
    pub ops_in: u64,
    pub train_retired: u64,
}

impl Built {
    pub fn build_time(&self) -> Duration {
        self.frontc + self.train + self.optimize
    }
}

/// Builds `b` with `opts` (profile from a training run on `train_arg`).
///
/// # Errors
/// A front-end error, a trapping training run, or a training run whose
/// output differs from the checked-in reference.
pub fn build(b: &Benchmark, opts: HloOptions, probe: &mut Probe) -> Result<Built, String> {
    let (compiled, frontc) = probe.call("frontc", "frontc", |_| b.compile());
    let mut program = compiled.map_err(|e| format!("{}: frontc: {e:?}", b.name))?;
    let ops_in = program.total_size();
    let (trained, train) = probe.call("profile", "profile.collect", |_| {
        hlo_profile::collect_profile(&program, &[b.train_arg], &ExecOptions::default())
    });
    let (db, out) = trained.map_err(|t| format!("{}: training run trapped: {t}", b.name))?;
    if !refs::suite(b.name, Arg::Train).matches(&out) {
        return Err(format!("{}: training run output differs from refs", b.name));
    }
    let (report, optimize) = probe.call("hlo", "hlo.optimize", |tracer| match tracer {
        Some(t) => hlo::optimize_traced(&mut program, Some(&db), &opts, t),
        None => hlo::optimize(&mut program, Some(&db), &opts),
    });
    Ok(Built {
        program,
        report,
        frontc,
        train,
        optimize,
        src_bytes: b.sources.iter().map(|(_, s)| s.len() as u64).sum(),
        ops_in,
        train_retired: out.retired,
    })
}

/// Per-layer totals over a set of builds and runs.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub frontc: Duration,
    pub src_bytes: u64,
    pub ir_ops: u64,
    pub train: Duration,
    pub train_retired: u64,
    pub optimize: Duration,
    pub compile_units: u64,
    pub inlines: u64,
    pub clones: u64,
    pub ops_out: u64,
    pub vm: Duration,
    pub vm_retired: u64,
}

impl Tally {
    pub fn add_build(&mut self, b: &Built) {
        self.frontc += b.frontc;
        self.src_bytes += b.src_bytes;
        self.ir_ops += b.ops_in;
        self.train += b.train;
        self.train_retired += b.train_retired;
        self.optimize += b.optimize;
        self.compile_units += b.report.compile_time_units();
        self.inlines += b.report.inlines;
        self.clones += b.report.clones;
        self.ops_out += b.program.total_size();
    }

    pub fn merge(&mut self, o: &Tally) {
        self.frontc += o.frontc;
        self.src_bytes += o.src_bytes;
        self.ir_ops += o.ir_ops;
        self.train += o.train;
        self.train_retired += o.train_retired;
        self.optimize += o.optimize;
        self.compile_units += o.compile_units;
        self.inlines += o.inlines;
        self.clones += o.clones;
        self.ops_out += o.ops_out;
        self.vm += o.vm;
        self.vm_retired += o.vm_retired;
    }

    /// The build- and run-path per-layer metrics, per pass over `passes`
    /// passes.
    pub fn metrics(&self, passes: f64, m: &mut crate::Metrics) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3 / passes;
        let per = |n: u64| n as f64 / passes;
        m.put("frontc.busy_ms", ms(self.frontc));
        m.put("frontc.src_bytes", per(self.src_bytes));
        m.put("frontc.ir_ops", per(self.ir_ops));
        m.put("profile.collect_ms", ms(self.train));
        m.put("profile.retired", per(self.train_retired));
        m.put("profile.minst_s", minst_s(self.train_retired, self.train));
        m.put("hlo.optimize_ms", ms(self.optimize));
        m.put("hlo.compile_units", per(self.compile_units));
        m.put("hlo.inlines", per(self.inlines));
        m.put("hlo.clones", per(self.clones));
        m.put("hlo.ops_in", per(self.ir_ops));
        m.put("hlo.ops_out", per(self.ops_out));
        m.put("vm.run_ms", ms(self.vm));
        m.put("vm.retired", per(self.vm_retired));
        m.put("vm.minst_s", minst_s(self.vm_retired, self.vm));
    }
}

/// Millions of retired instructions per second.
pub fn minst_s(retired: u64, busy: Duration) -> f64 {
    if busy.is_zero() {
        0.0
    } else {
        retired as f64 / busy.as_secs_f64() / 1e6
    }
}
