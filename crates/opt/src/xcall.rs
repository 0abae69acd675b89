//! Summary-driven cross-call scalar transformations.
//!
//! [`crate::memfwd`] must forget everything it knows at every call, because
//! a callee may write anything it can reach. Interprocedural summaries
//! ([`hlo_ipa::Summaries`]) replace that cliff with a precise kill set —
//! a call only clobbers the globals in its MOD set and whatever the
//! pointer arguments it writes through can reach — which unlocks three
//! transformations this module implements:
//!
//! * [`fold_const_returns`] — a call to a function whose every return
//!   path yields the constant `k` has its result replaced by `k`
//!   (deleting the call outright when the callee is removable, keeping it
//!   for effect otherwise);
//! * store-to-load forwarding **across calls** in
//!   [`forward_across_calls`];
//! * cross-call **dead-store elimination** for globals, also in
//!   [`forward_across_calls`]: a store to a global overwritten before any
//!   possible observer (aliasing load, callee that may read it, block
//!   end) is deleted.

use hlo_ipa::Summaries;
use hlo_ir::{Callee, ConstVal, FuncId, GlobalId, Inst, Operand, Program, Reg, SlotId};

/// One constant-return fold, in pre-pass coordinates (for decision
/// provenance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstRetFold {
    /// The function the call was in.
    pub caller: FuncId,
    /// Block index of the call.
    pub block: usize,
    /// Instruction index within the block, before the pass edited it.
    pub inst: usize,
    /// The constant-returning callee.
    pub callee: FuncId,
    /// The folded constant.
    pub value: i64,
    /// True when the callee was removable and the call itself was deleted;
    /// false when the call was kept for its effects and only the result
    /// was rewritten.
    pub call_deleted: bool,
}

/// Replaces the results of direct calls to constant-returning functions
/// with the constant. Removable callees lose the whole call; effectful
/// ones keep it (result discarded) and the constant materializes after it.
/// Only callers `mask` selects are rewritten (`None` = all); summaries
/// stay program-wide.
pub fn fold_const_returns(
    p: &mut Program,
    summaries: &Summaries,
    mask: Option<&[bool]>,
) -> Vec<ConstRetFold> {
    let mut folds = Vec::new();
    for (fi, f) in p.funcs.iter_mut().enumerate() {
        if !mask.is_none_or(|m| m.get(fi).copied().unwrap_or(false)) {
            continue;
        }
        for (bi, block) in f.blocks.iter_mut().enumerate() {
            let mut rewritten: Vec<Inst> = Vec::with_capacity(block.insts.len());
            for (ii, inst) in block.insts.drain(..).enumerate() {
                let fold = match &inst {
                    Inst::Call {
                        dst: Some(d),
                        callee: Callee::Func(t),
                        ..
                    } => match summaries.funcs[t.index()].ret {
                        hlo_ipa::RetInfo::Const(k) => Some((*d, *t, k)),
                        _ => None,
                    },
                    _ => None,
                };
                let Some((d, t, k)) = fold else {
                    rewritten.push(inst);
                    continue;
                };
                let deletable = summaries.funcs[t.index()].removable();
                if !deletable {
                    // Keep the call for its effects, discard the result.
                    let Inst::Call { callee, args, .. } = inst else {
                        unreachable!("matched a call above");
                    };
                    rewritten.push(Inst::Call {
                        dst: None,
                        callee,
                        args,
                    });
                }
                rewritten.push(Inst::Const {
                    dst: d,
                    value: ConstVal::I64(k),
                });
                folds.push(ConstRetFold {
                    caller: FuncId(fi as u32),
                    block: bi,
                    inst: ii,
                    callee: t,
                    value: k,
                    call_deleted: deletable,
                });
            }
            block.insts = rewritten;
        }
    }
    folds
}

/// What one [`forward_across_calls`] run did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrossCallStats {
    /// Loads replaced with the previously stored value across a call.
    pub forwards: u64,
    /// Global stores deleted because they were overwritten unobserved.
    pub dead_stores: u64,
    /// Functions whose bodies changed (instruction indices may have
    /// shifted; callers holding a cached call graph must invalidate
    /// exactly these).
    pub changed: Vec<FuncId>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BaseKey {
    Slot(SlotId),
    Global(GlobalId),
    Reg(Reg),
}

#[derive(Debug, Clone, Copy)]
struct Known {
    base: BaseKey,
    offset: i64,
    value: Operand,
}

/// Per register: the frame slot or global whose address it (uniquely)
/// holds. The slot half is the same map as [`crate::memfwd`]; tracking
/// single-definition `GlobalAddr` registers as well lets the pass see
/// global accesses before constant propagation has rewritten them into
/// immediate bases.
struct AddrRegs {
    slots: Vec<Option<SlotId>>,
    globals: Vec<Option<GlobalId>>,
}

fn addr_regs(f: &hlo_ir::Function) -> AddrRegs {
    let n = f.num_regs as usize;
    let mut slots: Vec<Option<SlotId>> = vec![None; n];
    let mut globals: Vec<Option<GlobalId>> = vec![None; n];
    let mut poisoned = vec![false; n];
    for block in &f.blocks {
        for inst in &block.insts {
            match inst {
                Inst::FrameAddr { dst, slot } => {
                    if slots[dst.index()].is_some_and(|s| s != *slot)
                        || globals[dst.index()].is_some()
                    {
                        poisoned[dst.index()] = true;
                    }
                    slots[dst.index()] = Some(*slot);
                }
                Inst::Const {
                    dst,
                    value: ConstVal::GlobalAddr(g),
                } => {
                    if globals[dst.index()].is_some_and(|og| og != *g)
                        || slots[dst.index()].is_some()
                    {
                        poisoned[dst.index()] = true;
                    }
                    globals[dst.index()] = Some(*g);
                }
                other => {
                    if let Some(d) = other.dst() {
                        if slots[d.index()].is_some() || globals[d.index()].is_some() {
                            poisoned[d.index()] = true;
                        }
                    }
                }
            }
        }
    }
    for (i, p) in poisoned.iter().enumerate() {
        if *p {
            slots[i] = None;
            globals[i] = None;
        }
    }
    AddrRegs { slots, globals }
}

fn classify(base: &Operand, regs: &AddrRegs) -> Option<BaseKey> {
    match base {
        Operand::Const(ConstVal::GlobalAddr(g)) => Some(BaseKey::Global(*g)),
        Operand::Reg(r) => match (regs.slots[r.index()], regs.globals[r.index()]) {
            (Some(s), _) => Some(BaseKey::Slot(s)),
            (None, Some(g)) => Some(BaseKey::Global(g)),
            (None, None) => Some(BaseKey::Reg(*r)),
        },
        Operand::Const(_) => None,
    }
}

fn may_alias(a: BaseKey, b: BaseKey) -> bool {
    match (a, b) {
        (BaseKey::Slot(x), BaseKey::Slot(y)) => x == y,
        (BaseKey::Global(x), BaseKey::Global(y)) => x == y,
        (BaseKey::Slot(_), BaseKey::Global(_)) | (BaseKey::Global(_), BaseKey::Slot(_)) => false,
        _ => true,
    }
}

/// Store-to-load forwarding that survives calls whose summaries bound what
/// they touch, plus cross-call dead-store elimination for globals, in the
/// functions `mask` selects (`None` = all).
pub fn forward_across_calls(
    p: &mut Program,
    summaries: &Summaries,
    mask: Option<&[bool]>,
) -> CrossCallStats {
    let mut stats = CrossCallStats::default();
    for (fi, f) in p.funcs.iter_mut().enumerate() {
        if !mask.is_none_or(|m| m.get(fi).copied().unwrap_or(false)) {
            continue;
        }
        let regs = addr_regs(f);
        let mut forwards = 0;
        let mut dead = 0;
        for block in &mut f.blocks {
            forwards += forward_in_block(block, &regs, summaries);
            dead += kill_dead_global_stores(block, &regs, summaries);
        }
        if forwards + dead > 0 {
            stats.changed.push(FuncId(fi as u32));
        }
        stats.forwards += forwards;
        stats.dead_stores += dead;
    }
    stats
}

/// Applies a direct call's summary to the known-store set: kill exactly
/// what the callee may write instead of everything. Returns false when the
/// call is too opaque and the caller should clear the whole set.
fn apply_call_kills(
    known: &mut Vec<Known>,
    callee: FuncId,
    args: &[Operand],
    regs: &AddrRegs,
    summaries: &Summaries,
) -> bool {
    let ct = &summaries.funcs[callee.index()];
    if ct.writes_unknown || ct.calls_extern || ct.calls_indirect {
        return false;
    }
    for &g in &ct.mod_globals {
        known.retain(|e| !may_alias(e.base, BaseKey::Global(g)));
    }
    for (j, wrote) in ct.writes_params.iter().enumerate() {
        if !*wrote {
            continue;
        }
        // Missing arguments read as zero (writes through address 0 would
        // trap in the VM, but stay conservative and clear).
        let Some(arg) = args.get(j) else {
            return false;
        };
        match classify(arg, regs) {
            Some(k) => known.retain(|e| !may_alias(e.base, k)),
            None => return false,
        }
    }
    true
}

fn forward_in_block(block: &mut hlo_ir::Block, regs: &AddrRegs, summaries: &Summaries) -> u64 {
    let mut replaced = 0;
    let mut known: Vec<Known> = Vec::new();
    // Parallel to `known`: whether a summary-screened call was crossed
    // since the entry was stored. Only such loads are rewritten here —
    // plain same-block forwarding is memfwd's job and handling it again
    // would double-report.
    let mut stored_before_call: Vec<bool> = Vec::new();
    for inst in &mut block.insts {
        match inst {
            Inst::Store {
                base,
                offset,
                value,
            } => {
                let key = classify(base, regs);
                let off = offset.as_const().and_then(ConstVal::as_i64);
                match (key, off) {
                    (Some(k), Some(o)) => {
                        let mut keep = Vec::new();
                        let mut kept: Vec<Known> = Vec::new();
                        for (e, &before) in known.iter().zip(stored_before_call.iter()) {
                            if !may_alias(e.base, k) || (e.base == k && e.offset != o) {
                                kept.push(*e);
                                keep.push(before);
                            }
                        }
                        known = kept;
                        stored_before_call = keep;
                        known.push(Known {
                            base: k,
                            offset: o,
                            value: *value,
                        });
                        stored_before_call.push(false);
                    }
                    (Some(k), None) => {
                        let mut keep = Vec::new();
                        let mut kept: Vec<Known> = Vec::new();
                        for (e, &before) in known.iter().zip(stored_before_call.iter()) {
                            if !may_alias(e.base, k) {
                                kept.push(*e);
                                keep.push(before);
                            }
                        }
                        known = kept;
                        stored_before_call = keep;
                    }
                    _ => {
                        known.clear();
                        stored_before_call.clear();
                    }
                }
            }
            Inst::Load { dst, base, offset } => {
                let key = classify(base, regs);
                let off = offset.as_const().and_then(ConstVal::as_i64);
                if let (Some(k), Some(o)) = (key, off) {
                    if let Some(pos) = known.iter().position(|e| e.base == k && e.offset == o) {
                        if stored_before_call[pos] {
                            *inst = Inst::Copy {
                                dst: *dst,
                                src: known[pos].value,
                            };
                            replaced += 1;
                        }
                    }
                }
            }
            Inst::Call {
                callee: Callee::Func(t),
                args,
                ..
            } => {
                if apply_call_kills(&mut known, *t, args, regs, summaries) {
                    stored_before_call.fill(true);
                } else {
                    known.clear();
                    stored_before_call.clear();
                }
            }
            Inst::Call { .. } | Inst::Alloca { .. } => {
                known.clear();
                stored_before_call.clear();
            }
            _ => {}
        }
        if let Some(d) = inst.dst() {
            let mut keep = Vec::new();
            let mut kept: Vec<Known> = Vec::new();
            for (e, &before) in known.iter().zip(stored_before_call.iter()) {
                if e.value.as_reg() != Some(d) && e.base != BaseKey::Reg(d) {
                    kept.push(*e);
                    keep.push(before);
                }
            }
            known = kept;
            stored_before_call = keep;
        }
    }
    replaced
}

/// Backward scan deleting stores to globals that are overwritten before
/// any possible observer. Only globals qualify: a callee can reach a
/// global without being handed it, so only the summaries make this safe,
/// while frame slots are already handled by [`crate::dead_slots`].
fn kill_dead_global_stores(
    block: &mut hlo_ir::Block,
    regs: &AddrRegs,
    summaries: &Summaries,
) -> u64 {
    // (global, offset) pairs overwritten later in the block with no
    // intervening possible reader.
    let mut overwritten: Vec<(GlobalId, i64)> = Vec::new();
    let mut dead = vec![false; block.insts.len()];
    for (ii, inst) in block.insts.iter().enumerate().rev() {
        match inst {
            Inst::Store { base, offset, .. } => {
                let key = classify(base, regs);
                let off = offset.as_const().and_then(ConstVal::as_i64);
                if let (Some(BaseKey::Global(g)), Some(o)) = (key, off) {
                    if overwritten.contains(&(g, o)) {
                        dead[ii] = true;
                    } else {
                        overwritten.push((g, o));
                    }
                } else if let Some(BaseKey::Reg(_)) = key {
                    // A store through a raw pointer could target any
                    // global, making it the "earlier store" for all
                    // tracked pairs — but it is a write, not a read, so
                    // the later overwrites still stand. Nothing to do.
                } else if key.is_none() {
                    // Absolute address: same reasoning as above.
                }
            }
            Inst::Load { base, .. } => match classify(base, regs) {
                Some(BaseKey::Global(g)) => overwritten.retain(|&(og, _)| og != g),
                Some(BaseKey::Slot(_)) => {}
                _ => overwritten.clear(),
            },
            Inst::Call {
                callee: Callee::Func(t),
                ..
            } => {
                let ct = &summaries.funcs[t.index()];
                if ct.reads_unknown
                    || ct.calls_extern
                    || ct.calls_indirect
                    || ct.reads_params.iter().any(|&r| r)
                {
                    overwritten.clear();
                } else {
                    for &g in &ct.ref_globals {
                        overwritten.retain(|&(og, _)| og != g);
                    }
                }
            }
            Inst::Call { .. } => overwritten.clear(),
            _ => {}
        }
    }
    let removed = dead.iter().filter(|&&d| d).count() as u64;
    if removed > 0 {
        let mut it = dead.iter();
        block.insts.retain(|_| !*it.next().expect("len"));
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_analysis::CallGraph;
    use hlo_ir::{BinOp, FunctionBuilder, Linkage, ProgramBuilder, Type};

    fn summarize(p: &Program) -> Summaries {
        Summaries::compute(p, &CallGraph::build(p))
    }

    /// leaf is pure (local arithmetic); main stores to g, calls leaf, and
    /// reloads g — the load must forward across the call.
    #[test]
    fn forwards_globals_across_pure_calls() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let g = pb.add_global("g", m, Linkage::Public, 1, vec![]);
        let mut main = FunctionBuilder::new("main", m, 1);
        let e = main.entry_block();
        let ga = main.const_(e, ConstVal::GlobalAddr(g));
        main.store(e, ga.into(), Operand::imm(0), Operand::Reg(main.param(0)));
        let r = main.call(e, FuncId(1), vec![Operand::Reg(main.param(0))]);
        let v = main.load(e, ga.into(), Operand::imm(0));
        let s = main.bin(e, BinOp::Add, r.into(), v.into());
        main.ret(e, Some(s.into()));
        pb.add_function(main.finish(Linkage::Public, Type::I64));
        let mut leaf = FunctionBuilder::new("leaf", m, 1);
        let e = leaf.entry_block();
        let r = leaf.bin(e, BinOp::Add, Operand::Reg(leaf.param(0)), Operand::imm(1));
        leaf.ret(e, Some(r.into()));
        pb.add_function(leaf.finish(Linkage::Public, Type::I64));
        let mut p = pb.finish(Some(FuncId(0)));
        let s = summarize(&p);
        let stats = forward_across_calls(&mut p, &s, None);
        assert_eq!(stats.forwards, 1);
        assert!(p.funcs[0]
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .all(|i| !matches!(i, Inst::Load { .. })));
    }

    /// The callee writes g, so the caller's knowledge of g must die while
    /// knowledge of the unrelated h survives.
    #[test]
    fn mod_set_kills_exactly_the_written_global() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let g = pb.add_global("g", m, Linkage::Public, 1, vec![]);
        let h = pb.add_global("h", m, Linkage::Public, 1, vec![]);
        let mut main = FunctionBuilder::new("main", m, 1);
        let e = main.entry_block();
        let ga = main.const_(e, ConstVal::GlobalAddr(g));
        let ha = main.const_(e, ConstVal::GlobalAddr(h));
        main.store(e, ga.into(), Operand::imm(0), Operand::imm(1));
        main.store(e, ha.into(), Operand::imm(0), Operand::imm(2));
        main.call_void(e, FuncId(1), vec![]);
        let vg = main.load(e, ga.into(), Operand::imm(0)); // must stay
        let vh = main.load(e, ha.into(), Operand::imm(0)); // must forward
        let s = main.bin(e, BinOp::Add, vg.into(), vh.into());
        main.ret(e, Some(s.into()));
        pb.add_function(main.finish(Linkage::Public, Type::I64));
        let mut w = FunctionBuilder::new("writes_g", m, 0);
        let e = w.entry_block();
        let ga = w.const_(e, ConstVal::GlobalAddr(g));
        w.store(e, ga.into(), Operand::imm(0), Operand::imm(9));
        w.ret(e, None);
        pb.add_function(w.finish(Linkage::Public, Type::Void));
        let mut p = pb.finish(Some(FuncId(0)));
        let s = summarize(&p);
        let stats = forward_across_calls(&mut p, &s, None);
        assert_eq!(stats.forwards, 1, "only the h load forwards");
        let loads = p.funcs[0]
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Load { .. }))
            .count();
        assert_eq!(loads, 1, "the g load survives");
    }

    #[test]
    fn const_returns_fold_and_pure_calls_die() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let ext = pb.declare_extern("print_i64", Some(1), false);
        // Pure constant leaf: call disappears entirely.
        let mut k = FunctionBuilder::new("k", m, 0);
        let e = k.entry_block();
        k.ret(e, Some(Operand::imm(41)));
        pb.add_function(k.finish(Linkage::Public, Type::I64));
        // Effectful constant: prints, then returns 1.
        let mut eff = FunctionBuilder::new("eff", m, 0);
        let e = eff.entry_block();
        eff.call_extern(e, ext, vec![Operand::imm(1)], false);
        eff.ret(e, Some(Operand::imm(1)));
        pb.add_function(eff.finish(Linkage::Public, Type::I64));
        let mut main = FunctionBuilder::new("main", m, 0);
        let e = main.entry_block();
        let a = main.call(e, FuncId(0), vec![]);
        let b = main.call(e, FuncId(1), vec![]);
        let s = main.bin(e, BinOp::Add, a.into(), b.into());
        main.ret(e, Some(s.into()));
        pb.add_function(main.finish(Linkage::Public, Type::I64));
        let mut p = pb.finish(Some(FuncId(2)));
        let s = summarize(&p);
        let folds = fold_const_returns(&mut p, &s, None);
        assert_eq!(folds.len(), 2);
        assert!(folds
            .iter()
            .any(|f| f.callee == FuncId(0) && f.call_deleted && f.value == 41));
        assert!(folds
            .iter()
            .any(|f| f.callee == FuncId(1) && !f.call_deleted && f.value == 1));
        let main_insts: Vec<_> = p.funcs[2].blocks[0].insts.iter().collect();
        let calls = main_insts
            .iter()
            .filter(|i| matches!(i, Inst::Call { .. }))
            .count();
        assert_eq!(calls, 1, "only the effectful call remains");
        assert!(
            main_insts
                .iter()
                .all(|i| !matches!(i, Inst::Call { dst: Some(_), .. })),
            "the remaining call's result is discarded"
        );
    }

    /// Two stores to the same global with only a non-reading call between
    /// them: the first store is dead. A reading callee keeps it alive.
    #[test]
    fn dead_global_stores_die_across_non_reading_calls() {
        fn build(reader: bool) -> Program {
            let mut pb = ProgramBuilder::new();
            let m = pb.add_module("m");
            let g = pb.add_global("g", m, Linkage::Public, 1, vec![]);
            let h = pb.add_global("h", m, Linkage::Public, 1, vec![]);
            let mut main = FunctionBuilder::new("main", m, 0);
            let e = main.entry_block();
            let ga = main.const_(e, ConstVal::GlobalAddr(g));
            main.store(e, ga.into(), Operand::imm(0), Operand::imm(1));
            main.call_void(e, FuncId(1), vec![]);
            main.store(e, ga.into(), Operand::imm(0), Operand::imm(2));
            let v = main.load(e, ga.into(), Operand::imm(0));
            main.ret(e, Some(v.into()));
            pb.add_function(main.finish(Linkage::Public, Type::I64));
            let mut other = FunctionBuilder::new("other", m, 0);
            let e = other.entry_block();
            let addr = other.const_(e, ConstVal::GlobalAddr(if reader { g } else { h }));
            let v = other.load(e, addr.into(), Operand::imm(0));
            let ha = other.const_(e, ConstVal::GlobalAddr(h));
            other.store(e, ha.into(), Operand::imm(0), v.into());
            other.ret(e, None);
            pb.add_function(other.finish(Linkage::Public, Type::Void));
            pb.finish(Some(FuncId(0)))
        }
        let mut p = build(false);
        let s = summarize(&p);
        assert_eq!(forward_across_calls(&mut p, &s, None).dead_stores, 1);
        let mut p = build(true);
        let s = summarize(&p);
        assert_eq!(
            forward_across_calls(&mut p, &s, None).dead_stores,
            0,
            "a callee that reads g keeps the first store alive"
        );
    }

    /// A callee writing through its pointer parameter kills knowledge of
    /// the slot the caller passed, but not of other slots.
    #[test]
    fn writes_params_kill_only_the_passed_slot() {
        let mut pb = ProgramBuilder::new();
        let m = pb.add_module("m");
        let mut main = FunctionBuilder::new("main", m, 0);
        let e = main.entry_block();
        let s1 = main.new_slot(8);
        let s2 = main.new_slot(8);
        let a1 = main.frame_addr(e, s1);
        let a2 = main.frame_addr(e, s2);
        main.store(e, a1.into(), Operand::imm(0), Operand::imm(1));
        main.store(e, a2.into(), Operand::imm(0), Operand::imm(2));
        main.call_void(e, FuncId(1), vec![a1.into()]);
        let v1 = main.load(e, a1.into(), Operand::imm(0)); // clobbered
        let v2 = main.load(e, a2.into(), Operand::imm(0)); // forwards
        let s = main.bin(e, BinOp::Add, v1.into(), v2.into());
        main.ret(e, Some(s.into()));
        pb.add_function(main.finish(Linkage::Public, Type::I64));
        let mut w = FunctionBuilder::new("fill", m, 1);
        let e = w.entry_block();
        w.store(
            e,
            Operand::Reg(w.param(0)),
            Operand::imm(0),
            Operand::imm(9),
        );
        w.ret(e, None);
        pb.add_function(w.finish(Linkage::Public, Type::Void));
        let mut p = pb.finish(Some(FuncId(0)));
        let s = summarize(&p);
        assert_eq!(forward_across_calls(&mut p, &s, None).forwards, 1);
    }
}
