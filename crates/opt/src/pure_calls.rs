//! Deletion of calls to side-effect-free routines.
//!
//! This reproduces the paper's 072.sc observation: calls into a stub
//! library that provably does nothing are eliminated by interprocedural
//! analysis *before* inlining, so they never consume inline budget.

use crate::dce::live_out_sets;
use hlo_analysis::{side_effect_free_funcs, CallGraph};
use hlo_ir::{Callee, FuncId, Inst, Operand, Program};

/// One deleted call site, in pre-deletion coordinates (for decision
/// provenance; the instruction no longer exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PureCallSite {
    /// The function the call was removed from.
    pub caller: FuncId,
    /// Block index of the removed call.
    pub block: usize,
    /// Instruction index within the block, before the removal.
    pub inst: usize,
    /// The side-effect-free callee.
    pub callee: FuncId,
}

/// What one [`eliminate_pure_calls_with`] run did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PureCallRemoval {
    /// Call sites deleted.
    pub removed: u64,
    /// Functions whose bodies changed (their call-graph out-edges and
    /// instruction indices are stale; callers holding a cached call graph
    /// must invalidate exactly these).
    pub changed: Vec<FuncId>,
    /// Every deleted site, in deletion order.
    pub sites: Vec<PureCallSite>,
}

/// Removes direct calls to side-effect-free functions whose results are
/// unused (or ignored). Returns the number of call sites deleted.
///
/// Convenience wrapper over [`eliminate_pure_calls_with`] that builds its
/// own call graph; callers that already hold one (or a
/// [`hlo_analysis::CallGraphCache`]) should pass it instead of paying for
/// a rebuild.
pub fn eliminate_pure_calls(p: &mut Program) -> u64 {
    let cg = CallGraph::build(p);
    eliminate_pure_calls_with(p, &cg, None).removed
}

/// [`eliminate_pure_calls`] against a caller-supplied call graph, with a
/// report of which functions were edited, restricted to callers `mask`
/// selects (`None` = all). Purity facts are still computed program-wide;
/// the mask only limits which *callers* are edited — the incremental
/// driver uses it to touch one cache partition at a time.
pub fn eliminate_pure_calls_with(
    p: &mut Program,
    cg: &CallGraph,
    mask: Option<&[bool]>,
) -> PureCallRemoval {
    let free = side_effect_free_funcs(p, cg);
    eliminate_calls_where(p, &free, mask)
}

/// The deletion engine behind [`eliminate_pure_calls_with`], parameterized
/// over *which* callees are deletable: `deletable[i]` says a direct call to
/// function `i` whose result is unused may be removed. The syntactic purity
/// wrapper passes `side_effect_free_funcs`; the driver's ipa stage passes
/// the summary-based removable set (a strict superset). Only callers
/// `mask` selects are edited (`None` = all).
pub fn eliminate_calls_where(
    p: &mut Program,
    deletable: &[bool],
    mask: Option<&[bool]>,
) -> PureCallRemoval {
    let free = deletable;
    let mut removed = 0;
    let mut changed = Vec::new();
    let mut sites = Vec::new();
    for (fi, f) in p.funcs.iter_mut().enumerate() {
        if !mask.is_none_or(|m| m.get(fi).copied().unwrap_or(false)) {
            continue;
        }
        let live_out = live_out_sets(f);
        let mut func_changed = false;
        for (bi, block) in f.blocks.iter_mut().enumerate() {
            // Backward scan to know liveness of each call's destination.
            let mut live = live_out[bi].clone();
            let mut keep = vec![true; block.insts.len()];
            let mut block_sites: Vec<PureCallSite> = Vec::new();
            for (ii, inst) in block.insts.iter().enumerate().rev() {
                let removable = match inst {
                    Inst::Call {
                        dst,
                        callee: Callee::Func(t),
                        ..
                    } if free[t.index()] => match dst {
                        None => Some(*t),
                        Some(d) if !live[d.index()] => Some(*t),
                        Some(_) => None,
                    },
                    _ => None,
                };
                if let Some(callee) = removable {
                    keep[ii] = false;
                    removed += 1;
                    func_changed = true;
                    block_sites.push(PureCallSite {
                        caller: FuncId(fi as u32),
                        block: bi,
                        inst: ii,
                        callee,
                    });
                    continue;
                }
                if let Some(d) = inst.dst() {
                    live[d.index()] = false;
                }
                inst.for_each_use(|op| {
                    if let Operand::Reg(r) = op {
                        live[r.index()] = true;
                    }
                });
            }
            let mut it = keep.iter();
            block.insts.retain(|_| *it.next().expect("len"));
            // The backward scan found sites last-first; report them in
            // instruction order.
            block_sites.reverse();
            sites.extend(block_sites);
        }
        if func_changed {
            changed.push(FuncId(fi as u32));
        }
    }
    PureCallRemoval {
        removed,
        changed,
        sites,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_ir::{BinOp, FuncId, FunctionBuilder, Linkage, ProgramBuilder, Type};

    /// main calls `stub` (pure, result ignored) and `add` (pure, result used).
    fn program() -> Program {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut main = FunctionBuilder::new("main", m, 0);
        let e = main.entry_block();
        main.call_void(e, FuncId(1), vec![]); // ignored
        let r = main.call(e, FuncId(2), vec![Operand::imm(1)]);
        main.ret(e, Some(r.into()));
        pb.add_function(main.finish(Linkage::Public, Type::I64));

        let mut stub = FunctionBuilder::new("stub", m, 0);
        let e = stub.entry_block();
        stub.ret(e, Some(Operand::imm(0)));
        pb.add_function(stub.finish(Linkage::Public, Type::I64));

        let mut add = FunctionBuilder::new("add", m, 1);
        let e = add.entry_block();
        let s = add.bin(e, BinOp::Add, Operand::Reg(add.param(0)), Operand::imm(1));
        add.ret(e, Some(s.into()));
        pb.add_function(add.finish(Linkage::Public, Type::I64));
        pb.finish(Some(FuncId(0)))
    }

    #[test]
    fn deletes_ignored_pure_call_keeps_used_one() {
        let mut p = program();
        let n = eliminate_pure_calls(&mut p);
        assert_eq!(n, 1);
        let calls: usize = p.funcs[0]
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Call { .. }))
            .count();
        assert_eq!(calls, 1);
    }

    #[test]
    fn dead_result_pure_call_is_deleted() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut main = FunctionBuilder::new("main", m, 0);
        let e = main.entry_block();
        let r = main.call(e, FuncId(1), vec![]); // result never used
        let _ = r;
        main.ret(e, Some(Operand::imm(0)));
        pb.add_function(main.finish(Linkage::Public, Type::I64));
        let mut pure = FunctionBuilder::new("pure", m, 0);
        let e = pure.entry_block();
        pure.ret(e, Some(Operand::imm(7)));
        pb.add_function(pure.finish(Linkage::Public, Type::I64));
        let mut p = pb.finish(Some(FuncId(0)));
        assert_eq!(eliminate_pure_calls(&mut p), 1);
    }

    #[test]
    fn impure_callee_is_kept() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let g = pb.add_global("g", m, Linkage::Public, 1, vec![]);
        let mut main = FunctionBuilder::new("main", m, 0);
        let e = main.entry_block();
        main.call_void(e, FuncId(1), vec![]);
        main.ret(e, None);
        pb.add_function(main.finish(Linkage::Public, Type::Void));
        let mut w = FunctionBuilder::new("w", m, 0);
        let e = w.entry_block();
        let ga = w.const_(e, hlo_ir::ConstVal::GlobalAddr(g));
        w.store(e, ga.into(), Operand::imm(0), Operand::imm(1));
        w.ret(e, None);
        pb.add_function(w.finish(Linkage::Public, Type::Void));
        let mut p = pb.finish(Some(FuncId(0)));
        assert_eq!(eliminate_pure_calls(&mut p), 0);
    }
}
