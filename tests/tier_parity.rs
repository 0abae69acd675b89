//! Two-tier execution parity: the bytecode tier must be observationally
//! indistinguishable from the tree-walking reference interpreter — same
//! outcome, same trap (kind *and* function attribution) at the same fuel
//! count, same monitor event stream, same synthesized profile. These are
//! the cross-tier guarantees the fuzz oracle leans on; this suite pins
//! them with hand-built trap constructions, a property sweep over
//! generated programs, and byte-exact profile comparison over the
//! benchmark suite.

use aggressive_inlining::ir::{
    BinOp, ConstVal, FuncId, FunctionBuilder, Linkage, Operand, Program, ProgramBuilder, Type,
};
use aggressive_inlining::{fuzz, hlo, profile, sim, suite, vm};
use vm::{run_program, run_with_monitor, ExecOptions, Tier, TrapKind};

fn on(tier: Tier, fuel: u64) -> ExecOptions {
    ExecOptions {
        fuel,
        tier,
        ..Default::default()
    }
}

/// Runs `p` on both tiers with the given fuel and requires bit-identical
/// results: equal outcomes, or equal traps (kind + `func` attribution).
fn assert_parity(p: &Program, args: &[i64], fuel: u64, what: &str) {
    let tree = run_program(p, args, &on(Tier::Tree, fuel));
    let bc = run_program(p, args, &on(Tier::Bytecode, fuel));
    assert_eq!(tree, bc, "{what}: tiers diverged at fuel {fuel}");
}

/// A one-function program whose entry runs `build`'s instructions.
fn entry_program(build: impl FnOnce(&mut ProgramBuilder, &mut FunctionBuilder)) -> Program {
    let mut pb = ProgramBuilder::new();
    let m = pb.add_module("m");
    let mut f = FunctionBuilder::new("main", m, 0);
    build(&mut pb, &mut f);
    pb.add_function(f.finish(Linkage::Public, Type::I64));
    pb.finish(Some(FuncId(0)))
}

#[test]
fn trap_constructions_agree() {
    let cases: Vec<(&str, Program, TrapKind)> = vec![
        (
            "div-by-zero",
            entry_program(|_, f| {
                let e = f.entry_block();
                let q = f.bin(e, BinOp::Div, Operand::imm(1), Operand::imm(0));
                f.ret(e, Some(q.into()));
            }),
            TrapKind::DivByZero,
        ),
        (
            "rem-by-zero",
            entry_program(|_, f| {
                let e = f.entry_block();
                let q = f.bin(e, BinOp::Rem, Operand::imm(7), Operand::imm(0));
                f.ret(e, Some(q.into()));
            }),
            TrapKind::DivByZero,
        ),
        (
            "null-load",
            entry_program(|_, f| {
                let e = f.entry_block();
                let v = f.load(e, Operand::imm(0), Operand::imm(0));
                f.ret(e, Some(v.into()));
            }),
            TrapKind::OutOfBounds { addr: 0 },
        ),
        (
            "oob-store",
            entry_program(|_, f| {
                let e = f.entry_block();
                f.store(e, Operand::imm(1 << 40), Operand::imm(0), Operand::imm(1));
                f.ret(e, Some(Operand::imm(0)));
            }),
            TrapKind::OutOfBounds { addr: 1 << 40 },
        ),
        (
            "misaligned-load",
            entry_program(|_, f| {
                let e = f.entry_block();
                let v = f.load(e, Operand::imm(9), Operand::imm(0));
                f.ret(e, Some(v.into()));
            }),
            TrapKind::Misaligned { addr: 9 },
        ),
        (
            "bad-indirect",
            entry_program(|_, f| {
                let e = f.entry_block();
                let r = f.call_indirect(e, Operand::imm(12345), vec![]);
                f.ret(e, Some(r.into()));
            }),
            TrapKind::BadIndirect { value: 12345 },
        ),
        (
            "stack-overflow",
            entry_program(|_, f| {
                let e = f.entry_block();
                let r = f.call(e, FuncId(0), vec![]);
                f.ret(e, Some(r.into()));
            }),
            TrapKind::StackOverflow,
        ),
        (
            "abort",
            entry_program(|pb, f| {
                let ab = pb.declare_extern("abort", Some(0), false);
                let e = f.entry_block();
                f.call_extern(e, ab, vec![], false);
                f.ret(e, Some(Operand::imm(0)));
            }),
            TrapKind::Abort,
        ),
        (
            "missing-extern",
            entry_program(|pb, f| {
                let x = pb.declare_extern("no_such_routine", Some(0), false);
                let e = f.entry_block();
                f.call_extern(e, x, vec![], false);
                f.ret(e, Some(Operand::imm(0)));
            }),
            TrapKind::MissingExtern {
                name: "no_such_routine".to_string(),
            },
        ),
    ];
    for (what, p, want) in &cases {
        let tree = run_program(p, &[], &on(Tier::Tree, 1 << 20)).unwrap_err();
        assert_eq!(&tree.kind, want, "{what}: tree trap kind");
        assert_parity(p, &[], 1 << 20, what);
        // The trap must also land at the same instruction under any fuel
        // limit — fuel accounting is part of the observable semantics.
        for fuel in 0..32 {
            assert_parity(p, &[], fuel, what);
        }
    }
}

#[test]
fn no_entry_agrees() {
    let mut pb = ProgramBuilder::new();
    pb.add_module("m");
    let p = pb.finish(None);
    let tree = run_program(&p, &[], &on(Tier::Tree, 1 << 20)).unwrap_err();
    assert!(matches!(tree.kind, TrapKind::NoEntry));
    assert_parity(&p, &[], 1 << 20, "no-entry");
}

#[test]
fn fuel_exhaustion_fires_at_identical_counts() {
    // A loop retiring a known number of instructions: sweeping fuel one
    // unit at a time, both tiers must flip from FuelExhausted to success
    // at exactly the same threshold, with identical retired counts on the
    // success side. This catches any fused superinstruction that charges
    // fuel in the wrong order.
    let p = entry_program(|_, f| {
        let e = f.entry_block();
        let head = f.new_block();
        let body = f.new_block();
        let done = f.new_block();
        let i0 = f.const_(e, ConstVal::I64(0));
        f.jump(e, head);
        let c = f.bin(head, BinOp::Lt, i0.into(), Operand::imm(5));
        f.br(head, c.into(), body, done);
        let i1 = f.bin(body, BinOp::Add, i0.into(), Operand::imm(1));
        f.copy_to(body, i0, i1.into());
        f.jump(body, head);
        f.ret(done, Some(i0.into()));
    });
    let full = run_program(&p, &[], &on(Tier::Tree, 1 << 20)).unwrap();
    for fuel in 0..=full.retired + 2 {
        assert_parity(&p, &[], fuel, "counting loop");
    }
}

#[test]
fn generated_programs_agree_at_all_fuel_levels() {
    // Property sweep: fuzz-generated whole programs (calls, globals,
    // loops, extern output) must agree between tiers both unconstrained
    // and under tight fuel limits that land mid-execution.
    let cfg = fuzz::IrGenConfig::default();
    for seed in 0..40u64 {
        let p = fuzz::generate_program(seed, &cfg);
        for fuel in [0, 1, 3, 17, 100, 1000, 1 << 22] {
            assert_parity(&p, &[seed as i64 % 7], fuel, &format!("irgen seed {seed}"));
        }
    }
}

/// Records every monitor callback as a formatted line, so two streams can
/// be compared for exact order and content.
#[derive(Default)]
struct RecMon {
    events: Vec<String>,
}

impl vm::ExecMonitor for RecMon {
    fn block(&mut self, f: aggressive_inlining::ir::FuncId, b: aggressive_inlining::ir::BlockId) {
        self.events.push(format!("block {f:?} {b:?}"));
    }
    fn inst(&mut self, s: vm::SiteId) {
        self.events.push(format!("inst {s:?}"));
    }
    fn edge(
        &mut self,
        f: aggressive_inlining::ir::FuncId,
        from: aggressive_inlining::ir::BlockId,
        to: aggressive_inlining::ir::BlockId,
    ) {
        self.events.push(format!("edge {f:?} {from:?} {to:?}"));
    }
    fn cond_branch(&mut self, s: vm::SiteId, taken: bool) {
        self.events.push(format!("br {s:?} {taken}"));
    }
    fn jump(&mut self, s: vm::SiteId, t: aggressive_inlining::ir::BlockId) {
        self.events.push(format!("jump {s:?} {t:?}"));
    }
    fn call(
        &mut self,
        s: vm::SiteId,
        callee: aggressive_inlining::ir::FuncId,
        kind: vm::CallKind,
        regs: u32,
        n_args: usize,
    ) {
        self.events
            .push(format!("call {s:?} {callee:?} {kind:?} {regs} {n_args}"));
    }
    fn extern_call(&mut self, s: vm::SiteId, e: aggressive_inlining::ir::ExternId) {
        self.events.push(format!("ext {s:?} {e:?}"));
    }
    fn ret(&mut self, f: aggressive_inlining::ir::FuncId, regs: u32) {
        self.events.push(format!("ret {f:?} {regs}"));
    }
    fn mem(&mut self, addr: u64, write: bool) {
        self.events.push(format!("mem {addr} {write}"));
    }
}

#[test]
fn monitor_event_streams_are_identical() {
    // Even with superinstruction fusion in the bytecode tier, a monitor
    // must see the exact per-instruction event stream of the reference
    // interpreter — fused pairs report both constituents in order.
    let cfg = fuzz::IrGenConfig::default();
    for seed in 0..25u64 {
        let p = fuzz::generate_program(seed, &cfg);
        // Cap fuel so mid-pair fuel exhaustion paths get exercised too.
        for fuel in [50, 1 << 18] {
            let mut a = RecMon::default();
            let ra = run_with_monitor(&p, &[3], &on(Tier::Tree, fuel), &mut a);
            let mut b = RecMon::default();
            let rb = run_with_monitor(&p, &[3], &on(Tier::Bytecode, fuel), &mut b);
            assert_eq!(ra, rb, "irgen seed {seed} fuel {fuel}: result");
            assert_eq!(
                a.events, b.events,
                "irgen seed {seed} fuel {fuel}: event stream"
            );
        }
    }
}

#[test]
fn synthesized_profiles_are_byte_identical_over_suite() {
    // `ProfileDb::from_vm_trace` is the training-run entry point; a
    // profile gathered on the bytecode tier must match the tree tier's
    // byte for byte, or profile-guided decisions would depend on which
    // engine ran the training input.
    for b in suite::all_benchmarks() {
        let p = b.compile().unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let tree = profile::ProfileDb::from_vm_trace(
            &p,
            &[b.train_arg],
            &on(Tier::Tree, ExecOptions::default().fuel),
        );
        let bc = profile::ProfileDb::from_vm_trace(
            &p,
            &[b.train_arg],
            &on(Tier::Bytecode, ExecOptions::default().fuel),
        );
        assert_eq!(tree.to_text(), bc.to_text(), "{}: profile text", b.name);
    }
}

/// Simulates `p` on both tiers and requires identical `SimStats` and
/// outcome (or the identical trap).
fn assert_sim_parity(p: &Program, args: &[i64], fuel: u64, what: &str) {
    let machine = hlo_bench::figure7_machine();
    let tree = sim::simulate(p, args, &on(Tier::Tree, fuel), &machine);
    let bc = sim::simulate(p, args, &on(Tier::Bytecode, fuel), &machine);
    assert_eq!(tree, bc, "{what}: simulation diverged at fuel {fuel}");
}

#[test]
fn simulation_is_identical_on_both_tiers() {
    // Production simulates on the bytecode tier; the tree walker stays
    // the arbiter of every number Figure 7 reports. Train inputs keep a
    // debug build of this test to seconds (ref inputs take ~10x longer).
    let fuel = ExecOptions::default().fuel;
    for b in suite::figure7_benchmarks() {
        let base = b.compile().unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let mut opt = base.clone();
        hlo::optimize(&mut opt, None, &hlo::HloOptions::default());
        assert_sim_parity(&base, &[b.train_arg], fuel, b.name);
        assert_sim_parity(&opt, &[b.train_arg], fuel, b.name);
    }
    let cfg = fuzz::IrGenConfig::default();
    for seed in 0..8u64 {
        let p = fuzz::generate_program(seed, &cfg);
        for fuel in [50, 1 << 16] {
            assert_sim_parity(&p, &[3], fuel, &format!("irgen seed {seed}"));
        }
    }
}
