//! Execution tracing: a monitor that pretty-prints the dynamic
//! instruction stream (the `hloc run --trace N` debugging aid).

use crate::monitor::{ExecMonitor, SiteId};
use hlo_ir::{FuncId, Program};
use std::io::Write;

/// Writes one line per retired instruction —
/// `function/block[index]: instruction` — up to a limit, then goes quiet.
#[derive(Debug)]
pub struct TraceMonitor<'p, W> {
    program: &'p Program,
    out: W,
    remaining: u64,
}

impl<'p, W: Write> TraceMonitor<'p, W> {
    /// Traces at most `limit` instructions of `program` into `out`.
    pub fn new(program: &'p Program, out: W, limit: u64) -> Self {
        TraceMonitor {
            program,
            out,
            remaining: limit,
        }
    }

    /// Instructions still to be traced before the monitor goes quiet.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

impl<W: Write> ExecMonitor for TraceMonitor<'_, W> {
    fn inst(&mut self, site: SiteId) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let f = self.program.func(site.func);
        let inst = &f.blocks[site.block.index()].insts[site.inst];
        // Tracing is best-effort; a broken pipe must not kill the run.
        let _ = writeln!(
            self.out,
            "{}/{}[{}]: {}",
            f.name, site.block, site.inst, inst
        );
    }

    fn call(
        &mut self,
        _site: SiteId,
        callee: FuncId,
        _kind: crate::CallKind,
        _regs: u32,
        _n_args: usize,
    ) {
        if self.remaining > 0 {
            let _ = writeln!(self.out, "  --> enter {}", self.program.func(callee).name);
        }
    }

    fn ret(&mut self, func: FuncId, _regs: u32) {
        if self.remaining > 0 {
            let _ = writeln!(self.out, "  <-- leave {}", self.program.func(func).name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_with_monitor, ExecOptions, Tier};
    use hlo_ir::{FunctionBuilder, Linkage, Operand, ProgramBuilder, Type};

    fn program() -> Program {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut main = FunctionBuilder::new("main", m, 0);
        let e = main.entry_block();
        let r = main.call(e, FuncId(1), vec![Operand::imm(4)]);
        main.ret(e, Some(r.into()));
        pb.add_function(main.finish(Linkage::Public, Type::I64));
        let mut f = FunctionBuilder::new("helper", m, 1);
        let e = f.entry_block();
        let v = f.bin(
            e,
            hlo_ir::BinOp::Add,
            Operand::Reg(f.param(0)),
            Operand::imm(1),
        );
        f.ret(e, Some(v.into()));
        pb.add_function(f.finish(Linkage::Public, Type::I64));
        pb.finish(Some(FuncId(0)))
    }

    /// Traces `p` on `tier` with an instruction budget of `limit`;
    /// returns the text and the budget left.
    fn trace(p: &Program, tier: Tier, limit: u64) -> (String, u64) {
        let mut buf = Vec::new();
        let mut t = TraceMonitor::new(p, &mut buf, limit);
        let opts = ExecOptions {
            tier,
            ..Default::default()
        };
        run_with_monitor(p, &[], &opts, &mut t).unwrap();
        let left = t.remaining();
        (String::from_utf8(buf).unwrap(), left)
    }

    #[test]
    fn trace_contains_functions_and_instructions() {
        let p = program();
        let (text, _) = trace(&p, Tier::Tree, 100);
        assert!(text.contains("main/b0[0]"), "{text}");
        assert!(text.contains("--> enter helper"), "{text}");
        assert!(text.contains("<-- leave helper"), "{text}");
        assert!(text.contains("Add"), "{text}");
        assert_eq!(trace(&p, Tier::Bytecode, 100).0, text);
    }

    #[test]
    fn limit_stops_output() {
        let p = program();
        for tier in [Tier::Tree, Tier::Bytecode] {
            let (text, left) = trace(&p, tier, 1);
            assert_eq!(left, 0, "{tier:?}");
            // 1 instruction line + possible enter/leave markers suppressed
            // once the budget is gone.
            assert_eq!(
                text.lines().filter(|l| l.contains('[')).count(),
                1,
                "{tier:?}: {text}"
            );
        }
    }
}
