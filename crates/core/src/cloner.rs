//! The cloning pass (paper §2.3, Figure 3).
//!
//! The driver runs one pass per cache partition (see
//! [`crate::optimize_partial`]) and hands it that partition's function
//! mask. Clone groups are built over every edge whose caller the mask
//! selects (a group's sites all call one callee, and a callee and all its
//! callers share a cache partition), ranked by benefit in one list, and
//! selected greedily against the partition budget's stage headroom.
//! Parameter usage is computed per function on the worker pool; group
//! building, selection and materialization are sequential — they mutate
//! the program, the clone database and the budget, and sequential order
//! is what keeps `FuncId` allocation — and therefore the printed program
//! — byte-identical at any worker count.

use crate::budget::Budget;
use crate::driver::{HloOptions, Scope};
use crate::inliner::site_str;
use crate::legality::clone_restriction;
use crate::par::{effective_jobs, par_map};
use crate::transform::{make_clone, redirect_site_to_clone, scale_profile};
use hlo_analysis::{CallGraph, CallGraphCache, CallSiteRef};
use hlo_ir::{Callee, ConstVal, FuncId, Function, Inst, Linkage, Operand, Program};
use hlo_trace::{DecisionEvent, DecisionKind, Tracer, Verdict};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// A clone specification: the callee plus the `(parameter, constant)`
/// bindings the clone hard-wires. Bindings are sorted by parameter index,
/// making the spec a canonical clone-database key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CloneSpec {
    /// The routine to clone.
    pub callee: FuncId,
    /// Sorted `(param index, constant)` bindings.
    pub bindings: Vec<(u32, ConstVal)>,
}

impl CloneSpec {
    /// The constant bound to parameter `i`, if any.
    pub fn binding(&self, i: u32) -> Option<ConstVal> {
        self.bindings.iter().find(|(p, _)| *p == i).map(|(_, c)| *c)
    }
}

/// The clone database: specs already materialized in earlier passes are
/// reused instead of duplicated (paper §2.3 — "if a given clone exists in
/// the database then it is simply reused").
pub type CloneDb = HashMap<CloneSpec, FuncId>;

/// Result of one cloning pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClonePassResult {
    /// New clone bodies created.
    pub clones_created: u64,
    /// Ids of the clone bodies created this pass, in creation order. The
    /// incremental driver uses these to extend its partition mask so the
    /// rest of the partition's pipeline sees the new functions.
    pub created_ids: Vec<FuncId>,
    /// Clones found ready-made in the database.
    pub clones_reused: u64,
    /// Call sites redirected to clones.
    pub sites_replaced: u64,
    /// Wall-clock time of usage analysis + group building.
    pub plan_wall: Duration,
    /// Cumulative planning work summed over workers.
    pub plan_work: Duration,
    /// Wall-clock time of selection + materialization (sequential).
    pub apply_wall: Duration,
}

/// Parameter-usage weights: how much a routine would benefit from knowing
/// each formal is a constant. Uses are weighed by the importance of the
/// use and the block's frequency relative to the entry, with "special
/// emphasis ... on parameter values that reach the function position at an
/// indirect call site" (paper §2.3).
pub(crate) fn param_usage(f: &Function) -> Vec<f64> {
    let mut w = vec![0.0; f.params as usize];
    for (bid, block) in f.iter_blocks() {
        let rf = f.rel_freq(bid);
        for inst in &block.insts {
            let weight_of_use = |op: &Operand, base: f64, acc: &mut Vec<f64>| {
                if let Operand::Reg(r) = op {
                    if r.0 < f.params {
                        acc[r.index()] += base * rf;
                    }
                }
            };
            match inst {
                Inst::Br { cond, .. } => weight_of_use(cond, 8.0, &mut w),
                Inst::Bin { op, a, b, .. } => {
                    let cmp = matches!(
                        op,
                        hlo_ir::BinOp::Eq
                            | hlo_ir::BinOp::Ne
                            | hlo_ir::BinOp::Lt
                            | hlo_ir::BinOp::Le
                            | hlo_ir::BinOp::Gt
                            | hlo_ir::BinOp::Ge
                    );
                    let with_const =
                        matches!(a, Operand::Const(_)) || matches!(b, Operand::Const(_));
                    let base = match (cmp, with_const) {
                        (true, true) => 6.0, // foldable test: kills a branch
                        (true, false) => 1.0,
                        (false, true) => 2.0, // foldable arithmetic
                        (false, false) => 0.5,
                    };
                    weight_of_use(a, base, &mut w);
                    weight_of_use(b, base, &mut w);
                }
                Inst::Call { callee, args, .. } => {
                    if let Callee::Indirect(op) = callee {
                        // The emphasized case: a constant here makes the
                        // call direct and later inlinable.
                        weight_of_use(op, 20.0, &mut w);
                    }
                    for a in args {
                        // Pass-through constants are not modeled
                        // interprocedurally (paper: "we do not model
                        // interprocedural effects").
                        weight_of_use(a, 0.2, &mut w);
                    }
                }
                Inst::Load { base, offset, .. } => {
                    weight_of_use(base, 1.0, &mut w);
                    weight_of_use(offset, 1.0, &mut w);
                }
                Inst::Store {
                    base,
                    offset,
                    value,
                } => {
                    weight_of_use(base, 1.0, &mut w);
                    weight_of_use(offset, 1.0, &mut w);
                    weight_of_use(value, 0.2, &mut w);
                }
                other => {
                    other.for_each_use(|op| weight_of_use(op, 0.5, &mut w));
                }
            }
        }
    }
    w
}

/// Minimum per-parameter usefulness for a binding to enter a clone spec.
const MIN_USE_WEIGHT: f64 = 0.5;

/// One clone group: a spec plus every compatible call site (Figure 3).
#[derive(Debug, Clone)]
struct CloneGroup {
    spec: CloneSpec,
    sites: Vec<CallSiteRef>,
    benefit: f64,
    /// Whether redirecting every site provably retires the clonee, making
    /// the group's compile-time cost zero.
    retires_clonee: bool,
}

/// Per-edge calling context: constant actuals.
fn context_of(p: &Program, site: &CallSiteRef) -> Vec<Option<ConstVal>> {
    match &p.func(site.caller).blocks[site.block.index()].insts[site.inst] {
        Inst::Call { args, .. } => args
            .iter()
            .map(|a| match a {
                Operand::Const(c) => Some(*c),
                Operand::Reg(_) => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Builds the clone groups of every edge whose caller `mask` selects
/// (Figure 3 "build clone groups"), ranked by benefit (Figure 3 "select
/// clones"; the stable sort breaks ties by discovery, i.e. edge, order).
/// Read-only apart from the legality rejections it reports to `tracer`
/// (seed-loop only, so each restricted edge reports exactly once).
fn build_groups(
    p: &Program,
    cg: &CallGraph,
    mask: &[bool],
    usage: &[Vec<f64>],
    opts: &HloOptions,
    pass: u32,
    tracer: &mut Tracer,
) -> Vec<CloneGroup> {
    let summaries = opts.ipa.then(|| hlo_ipa::Summaries::compute(p, cg));
    let edges: Vec<usize> = (0..cg.edges.len())
        .filter(|&ei| {
            mask.get(cg.edges[ei].site.caller.index())
                .copied()
                .unwrap_or(false)
        })
        .collect();
    let mut claimed: HashSet<usize> = HashSet::new();
    let mut groups: Vec<CloneGroup> = Vec::new();
    for &ei in &edges {
        if claimed.contains(&ei) {
            continue;
        }
        let edge = &cg.edges[ei];
        if let Some(r) = clone_restriction(p, &edge.site, opts.scope) {
            if tracer.decisions_enabled() {
                tracer.decision(DecisionEvent {
                    pass,
                    kind: DecisionKind::Clone,
                    site: site_str(p, &edge.site),
                    callee: p.func(edge.callee).name.clone(),
                    verdict: Verdict::Rejected,
                    reason: r.code(),
                    benefit: 0.0,
                    cost: 0,
                    budget_before: 0,
                    budget_after: 0,
                    profile_weight: site_weight(p, &edge.site),
                });
            }
            continue;
        }
        let callee = edge.callee;
        let ctx = context_of(p, &edge.site);
        let use_w = &usage[callee.index()];
        let mut bindings: Vec<(u32, ConstVal)> = Vec::new();
        for (i, c) in ctx.iter().enumerate() {
            if let Some(c) = c {
                if use_w.get(i).copied().unwrap_or(0.0) >= MIN_USE_WEIGHT {
                    bindings.push((i as u32, *c));
                }
            }
        }
        if bindings.is_empty() {
            continue;
        }
        let spec = CloneSpec { callee, bindings };

        // Gather all compatible edges into the group. Every edge calling
        // this callee lives in the same cache partition, so the masked
        // scan sees exactly what a whole-program scan would.
        let mut sites = Vec::new();
        let mut member_edges = Vec::new();
        for &ej in &edges {
            if claimed.contains(&ej) {
                continue;
            }
            let other = &cg.edges[ej];
            if other.callee != callee {
                continue;
            }
            if clone_restriction(p, &other.site, opts.scope).is_some() {
                continue;
            }
            let octx = context_of(p, &other.site);
            let matches = spec
                .bindings
                .iter()
                .all(|(i, c)| octx.get(*i as usize).copied().flatten() == Some(*c));
            if matches {
                sites.push(other.site);
                member_edges.push(ej);
            }
        }
        debug_assert!(!sites.is_empty());
        for ej in member_edges {
            claimed.insert(ej);
        }

        // Benefit: calls redirected × value of the bound context.
        let value: f64 = spec.bindings.iter().map(|(i, _)| use_w[*i as usize]).sum();
        let calls: f64 = sites
            .iter()
            .map(|s| {
                p.func(s.caller)
                    .profile
                    .as_ref()
                    .map(|pr| pr.blocks[s.block.index()])
                    .unwrap_or(1.0)
            })
            .sum();
        let mut benefit = calls * value;
        // A removable clonee's specialized body folds without any effect
        // ordering to respect — same bonus the inliner applies.
        if summaries
            .as_ref()
            .is_some_and(|s| s.funcs[callee.index()].removable())
        {
            benefit *= crate::inliner::IPA_PURE_BONUS;
        }

        // Does the group retire the clonee? (All direct edges redirected,
        // no address taken, deletable linkage under this scope.)
        let callee_fn = p.func(callee);
        let all_edges_of_callee = cg.callers_of[callee.index()].len();
        let deletable_linkage =
            callee_fn.linkage == Linkage::Static || opts.scope == Scope::CrossModule;
        let retires_clonee = sites.len() == all_edges_of_callee
            && !cg.address_taken[callee.index()]
            && Some(callee) != p.entry
            && deletable_linkage;

        groups.push(CloneGroup {
            spec,
            sites,
            benefit,
            retires_clonee,
        });
    }
    groups.sort_by(|a, b| {
        b.benefit
            .partial_cmp(&a.benefit)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    groups
}

/// The profile count of a call site's block (1.0 when unannotated).
fn site_weight(p: &Program, site: &CallSiteRef) -> f64 {
    p.func(site.caller)
        .profile
        .as_ref()
        .map(|pr| pr.blocks[site.block.index()])
        .unwrap_or(1.0)
}

/// Runs one cloning pass under the stage budget over the functions
/// `mask` selects (one cache partition; indices past its end are
/// unselected). `ops_left` is the Figure 8 knob: each site replacement
/// consumes one operation.
#[allow(clippy::too_many_arguments)] // mirrors `inline_pass` plus the cross-pass clone database
pub fn clone_pass(
    p: &mut Program,
    budget: &mut Budget,
    pass: usize,
    opts: &HloOptions,
    mask: &[bool],
    db: &mut CloneDb,
    ops_left: &mut Option<u64>,
    cache: &mut CallGraphCache,
    tracer: &mut Tracer,
) -> ClonePassResult {
    let mut result = ClonePassResult::default();
    let explain = tracer.decisions_enabled();
    let plan_start = Instant::now();

    // Per-routine parameter usage (Figure 3 "setup"), one function per
    // work item.
    let t = Instant::now();
    let usage_out = par_map(effective_jobs(opts.jobs), &p.funcs, |_, f| param_usage(f));
    let usage_wall = t.elapsed();
    let usage = usage_out.results;

    let groups = build_groups(p, cache.graph(p), mask, &usage, opts, pass as u32, tracer);
    result.plan_wall = plan_start.elapsed();
    // Work = the sequential remainder (graph query, group building,
    // ranking) plus the usage workers' cumulative time.
    result.plan_work = result.plan_wall.saturating_sub(usage_wall) + usage_out.work;

    // Select under the stage budget.
    let apply_start = Instant::now();
    for g in groups {
        if let Some(0) = ops_left {
            break;
        }
        // A database entry is only reusable while the clone is still
        // live: a clone whose callers were all inlined or deleted gets
        // reaped by routine deletion, and its emptied husk must never
        // be resurrected (it no longer has the clonee's behaviour).
        let db_hit = opts.clone_db_reuse
            && db
                .get(&g.spec)
                .is_some_and(|&id| p.module(p.func(id).module).funcs.contains(&id));
        let callee_size = p.func(g.spec.callee).size();
        let cost = if g.retires_clonee || db_hit {
            0
        } else {
            callee_size * callee_size
        };
        if !budget.fits(pass, cost) {
            if explain {
                tracer.decision(DecisionEvent {
                    pass: pass as u32,
                    kind: DecisionKind::Clone,
                    site: site_str(p, &g.sites[0]),
                    callee: p.func(g.spec.callee).name.clone(),
                    verdict: Verdict::Deferred,
                    reason: "budget-discarded",
                    benefit: g.benefit,
                    cost,
                    budget_before: budget.current(),
                    budget_after: budget.current(),
                    profile_weight: site_weight(p, &g.sites[0]),
                });
            }
            continue; // discarded; may be recreated next pass
        }
        let budget_before = budget.current();
        let first_site = g.sites[0];

        // Materialize through the database.
        let mut created = false;
        let clone_id = match db.get(&g.spec) {
            Some(&id) if db_hit => {
                result.clones_reused += 1;
                id
            }
            _ => {
                let id = make_clone(p, &g.spec);
                db.insert(g.spec.clone(), id);
                result.clones_created += 1;
                // Split the clonee's profile between clone and original
                // by the group's share of entries.
                let group_calls: f64 = g
                    .sites
                    .iter()
                    .map(|s| {
                        p.func(s.caller)
                            .profile
                            .as_ref()
                            .map(|pr| pr.blocks[s.block.index()])
                            .unwrap_or(1.0)
                    })
                    .sum();
                let entry = p
                    .func(g.spec.callee)
                    .entry_count()
                    .filter(|&e| e > 0.0)
                    .unwrap_or_else(|| group_calls.max(1.0));
                let share = (group_calls / entry).clamp(0.0, 1.0);
                scale_profile(&mut p.func_mut(id).profile, share);
                scale_profile(&mut p.func_mut(g.spec.callee).profile, 1.0 - share);
                result.created_ids.push(id);
                created = true;
                id
            }
        };

        // Redirect the group's call sites; each rewritten caller's
        // cached scan goes stale. (New clone bodies need no
        // invalidation — the cache picks up appended functions.)
        for site in &g.sites {
            if let Some(left) = ops_left {
                if *left == 0 {
                    break;
                }
                *left -= 1;
            }
            redirect_site_to_clone(p, site, &g.spec, clone_id);
            cache.invalidate(site.caller);
            result.sites_replaced += 1;
        }

        // Optimize the new clone so the bound constants take effect
        // before costing (Figure 3 "optimize clones and recalibrate").
        // Reused clones were already paid for when they were created.
        let mut charged = 0u64;
        if created {
            hlo_opt::optimize_function(p.func_mut(clone_id));
            let s = p.func(clone_id).size();
            budget.charge(s * s);
            charged = s * s;
        }
        if explain {
            // One event per group: the first site stands for the
            // group, the cost is what was actually charged.
            tracer.decision(DecisionEvent {
                pass: pass as u32,
                kind: DecisionKind::Clone,
                site: site_str(p, &first_site),
                callee: p.func(clone_id).name.clone(),
                verdict: Verdict::Performed,
                reason: if db_hit {
                    "db-reuse"
                } else if g.retires_clonee {
                    "retires-clonee"
                } else {
                    "accepted"
                },
                benefit: g.benefit,
                cost: charged,
                budget_before,
                budget_after: budget.current(),
                profile_weight: site_weight(p, &first_site),
            });
        }
    }
    result.apply_wall = apply_start.elapsed();

    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_ir::verify_program;
    use hlo_vm::{run_program, ExecOptions};

    fn annotate_static(p: &mut Program) {
        for f in &mut p.funcs {
            if f.profile.is_none() {
                f.profile = Some(hlo_analysis::estimate_static_profile(f));
            }
        }
    }

    #[test]
    fn param_usage_emphasizes_indirect_call_position() {
        let p = hlo_frontc::compile(&[(
            "m",
            "fn apply(f, x) { return f(x); } fn main() { return apply(&main, 0); }",
        )])
        .unwrap();
        let apply = p.find_func("m", "apply").unwrap();
        let w = param_usage(p.func(apply));
        assert!(w[0] > w[1], "function-position param must dominate: {w:?}");
        assert!(w[0] >= 20.0);
    }

    #[test]
    fn param_usage_values_branch_tests() {
        let p = hlo_frontc::compile(&[(
            "m",
            "fn f(k, x) { if (k == 0) { return x; } return x + k; } fn main() { return f(0, 1); }",
        )])
        .unwrap();
        let f = p.find_func("m", "f").unwrap();
        let w = param_usage(p.func(f));
        assert!(w[0] > w[1]);
    }

    /// One pass with every function selected (the whole program as one
    /// cache partition).
    fn whole_pass(
        p: &mut Program,
        budget: &mut Budget,
        pass: usize,
        opts: &HloOptions,
        db: &mut CloneDb,
        ops_left: &mut Option<u64>,
        cache: &mut CallGraphCache,
    ) -> ClonePassResult {
        let mask = vec![true; p.funcs.len()];
        let mut tracer = Tracer::disabled();
        clone_pass(
            p,
            budget,
            pass,
            opts,
            &mask,
            db,
            ops_left,
            cache,
            &mut tracer,
        )
    }

    fn run_clone_pass(p: &mut Program) -> ClonePassResult {
        annotate_static(p);
        let c0 = p.compile_cost();
        let mut budget = Budget::new(c0, 100, &[1.0]);
        let mut db = CloneDb::default();
        let mut cache = CallGraphCache::new();
        whole_pass(
            p,
            &mut budget,
            0,
            &HloOptions::default(),
            &mut db,
            &mut None,
            &mut cache,
        )
    }

    #[test]
    fn cloning_specializes_constant_dispatch() {
        let src = &[(
            "m",
            r#"
            fn op(kind, x) {
                if (kind == 0) { return x + 1; }
                if (kind == 1) { return x * 2; }
                return x - 1;
            }
            fn main() {
                var s = 0;
                for (var i = 0; i < 10; i = i + 1) { s = s + op(1, i); }
                return s;
            }
            "#,
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        let expect = run_program(&p, &[], &ExecOptions::default()).unwrap().ret;
        let r = run_clone_pass(&mut p);
        assert!(r.clones_created >= 1, "{r:?}");
        assert!(r.sites_replaced >= 1);
        verify_program(&p).unwrap();
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            expect
        );
        // The optimized clone must have folded the dispatch: it is smaller
        // than the original.
        let orig = p.find_func("m", "op").unwrap();
        let clone = p
            .iter_funcs()
            .find(|(_, f)| f.name.contains("clone"))
            .map(|(i, _)| i)
            .unwrap();
        assert!(p.func(clone).size() < p.func(orig).size());
    }

    #[test]
    fn group_collects_multiple_compatible_sites() {
        let src = &[(
            "m",
            r#"
            fn f(k, x) { if (k == 7) { return x * 2; } return x; }
            fn a() { return f(7, 1); }
            fn b() { return f(7, 2); }
            fn main() { return a() + b() + f(9, 3); }
            "#,
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        let expect = run_program(&p, &[], &ExecOptions::default()).unwrap().ret;
        let r = run_clone_pass(&mut p);
        // k=7 group has two sites; k=9 gets its own group (budget allows).
        assert!(r.sites_replaced >= 2, "{r:?}");
        verify_program(&p).unwrap();
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            expect
        );
    }

    #[test]
    fn clone_database_reuses_across_passes() {
        // Two sites share the spec {k=1} (x is a run-time value at both).
        // Pass 1 is allowed a single operation, so it redirects one site;
        // pass 2 finds the remaining site and must REUSE the clone from
        // the database instead of materializing a second body.
        let src = &[(
            "m",
            r#"
            fn f(k, x) { if (k == 1) { return x + 1; } return x; }
            fn main() {
                var s = 0;
                for (var i = 0; i < 4; i = i + 1) { s = s + f(1, i); }
                for (var i = 0; i < 4; i = i + 1) { s = s + f(1, s); }
                return s;
            }
            "#,
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        annotate_static(&mut p);
        let expect = run_program(&p, &[], &ExecOptions::default()).unwrap().ret;
        let c0 = p.compile_cost();
        let mut budget = Budget::new(c0, 1000, &[1.0]);
        let mut db = CloneDb::default();
        let mut cache = CallGraphCache::new();
        let opts = HloOptions::default();
        let mut ops = Some(1u64);
        let r1 = whole_pass(&mut p, &mut budget, 0, &opts, &mut db, &mut ops, &mut cache);
        assert_eq!(r1.clones_created, 1, "{r1:?}");
        assert_eq!(r1.sites_replaced, 1);
        let r2 = whole_pass(
            &mut p,
            &mut budget,
            1,
            &opts,
            &mut db,
            &mut None,
            &mut cache,
        );
        assert_eq!(r2.clones_created, 0, "{r2:?}");
        assert_eq!(r2.clones_reused, 1);
        assert_eq!(r2.sites_replaced, 1);
        verify_program(&p).unwrap();
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            expect
        );
    }

    #[test]
    fn zero_budget_blocks_cloning_unless_retiring() {
        let src = &[(
            "m",
            r#"
            fn f(k, x) { if (k == 1) { return x + 1; } return x; }
            fn keep() { return f(2, 1); }
            fn main() { return f(1, 2) + keep(); }
            "#,
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        annotate_static(&mut p);
        let c0 = p.compile_cost();
        let mut budget = Budget::new(c0, 0, &[1.0]);
        let mut db = CloneDb::default();
        let mut cache = CallGraphCache::new();
        let r = whole_pass(
            &mut p,
            &mut budget,
            0,
            &HloOptions::default(),
            &mut db,
            &mut None,
            &mut cache,
        );
        // f has another caller with a different constant, so neither group
        // retires the clonee; zero budget ⇒ nothing happens.
        assert_eq!(r.clones_created, 0);
        assert_eq!(r.sites_replaced, 0);
    }

    #[test]
    fn deleted_clone_is_not_resurrected_from_database() {
        // Regression test: clone A's only caller is itself cloned in the
        // same pass (copying the pre-redirect call), so A is deleted as
        // unreachable. The next pass must NOT reuse A's emptied husk for
        // the copied call site — it must build a fresh clone.
        let src = &[(
            "m",
            r#"
            global t;
            fn init(n) { t = n; return 0; }
            fn run(len) {
                init(4096);
                var s = 0;
                for (var i = 0; i < len; i = i + 1) { s = s + t; }
                return s;
            }
            fn main() { return run(10) / 41; }
            "#,
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        let expect = run_program(&p, &[], &ExecOptions::default()).unwrap().ret;
        let opts = HloOptions {
            budget_percent: 1000,
            enable_inline: false,
            ..Default::default()
        };
        let report = crate::optimize(&mut p, None, &opts);
        verify_program(&p).unwrap();
        let out = run_program(&p, &[], &ExecOptions::default()).unwrap();
        assert_eq!(out.ret, expect, "{report}");
    }

    #[test]
    fn ops_limit_stops_replacements() {
        let src = &[(
            "m",
            r#"
            fn f(k, x) { if (k == 1) { return x + 1; } return x; }
            fn main() { return f(1, 2) + f(1, 3) + f(1, 4); }
            "#,
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        annotate_static(&mut p);
        let c0 = p.compile_cost();
        let mut budget = Budget::new(c0, 1000, &[1.0]);
        let mut db = CloneDb::default();
        let mut ops = Some(2u64);
        let mut cache = CallGraphCache::new();
        let r = whole_pass(
            &mut p,
            &mut budget,
            0,
            &HloOptions::default(),
            &mut db,
            &mut ops,
            &mut cache,
        );
        assert_eq!(r.sites_replaced, 2);
        assert_eq!(ops, Some(0));
        verify_program(&p).unwrap();
        // program still runs correctly with a partial redirection
        run_program(&p, &[], &ExecOptions::default()).unwrap();
    }
}
