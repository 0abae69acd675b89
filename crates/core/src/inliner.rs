//! The inlining pass (paper §2.4, Figure 4).
//!
//! The driver runs one pass per cache partition (see
//! [`crate::optimize_partial`]) and hands it that partition's function
//! mask. Every viable site whose caller the mask selects is ranked in one
//! greedy plan against the partition budget's stage headroom, whatever
//! live call-graph components the partition holds — the paper's algorithm
//! over one budget pool. Planning and splicing are sequential, so
//! [`hlo_ir::Program::compile_cost`] accounting — and therefore every
//! decision — is independent of the worker count; only the re-optimization
//! of the callers that grew runs on the worker pool.

use crate::budget::Budget;
use crate::driver::HloOptions;
use crate::legality::inline_restriction;
use crate::par::{effective_jobs, par_funcs_mut};
use crate::transform::{inline_call, scale_profile};
use hlo_analysis::{CallGraphCache, CallSiteRef};
use hlo_ir::{FuncId, Program};
use hlo_trace::{DecisionEvent, DecisionKind, Tracer, Verdict};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The canonical site spelling used by decision provenance and the
/// `--explain` filter: `caller@bBLOCK.iINST`.
pub(crate) fn site_str(p: &Program, site: &CallSiteRef) -> String {
    format!(
        "{}@b{}.i{}",
        p.func(site.caller).name,
        site.block.index(),
        site.inst
    )
}

/// Result of one inlining pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InlinePassResult {
    /// Call sites inlined.
    pub inlines: u64,
    /// Viable sites discarded for budget reasons (they may be
    /// reconsidered next pass).
    pub deferred: u64,
    /// Wall-clock time of screening + planning (sequential).
    pub plan_wall: Duration,
    /// Wall-clock time of splicing + caller re-optimization.
    pub apply_wall: Duration,
    /// Cumulative apply work summed over workers.
    pub apply_work: Duration,
}

/// Penalty multiplier for sites colder than their caller's entry (the
/// paper's guard against pushing register pressure into critical paths).
const COLD_SITE_PENALTY: f64 = 0.25;

/// Priority bonus for `#[inline]`-hinted callees (a user direction).
const HINT_BONUS: f64 = 4.0;

/// Merit multiplier for callees whose `hlo-ipa` summary proves them
/// removable: splicing a pure body exposes its computation to CSE,
/// constant propagation and dead-code elimination with no effect ordering
/// to respect, so such inlines fold further than the raw frequency
/// predicts. Shared with the cloning pass's benefit ranking.
pub(crate) const IPA_PURE_BONUS: f64 = 1.5;

#[derive(Debug, Clone)]
struct Candidate {
    site: CallSiteRef,
    target: FuncId,
    merit: f64,
    /// The site block's raw profile count (the pre-penalty weight,
    /// reported in decision provenance).
    weight: f64,
}

/// Runs one inlining pass under the stage budget over the functions
/// `mask` selects (one cache partition; indices past its end are
/// unselected).
///
/// Viable sites are screened, ranked by a run-time figure of merit (site
/// frequency, with a cold-site penalty), then accepted greedily against
/// the stage headroom: each acceptance is costed against a *schedule*
/// kept in bottom-up call-graph order so that cascaded inlines (B into A
/// after C into B) are charged at B's grown size, exactly as Figure 4
/// prescribes. `ops_left` is the Figure 8 knob: each accepted inline
/// consumes one operation. Accepted inlines are then performed
/// bottom-up.
#[allow(clippy::too_many_arguments)] // mirrors the pass plumbing
pub fn inline_pass(
    p: &mut Program,
    budget: &mut Budget,
    pass: usize,
    opts: &HloOptions,
    mask: &[bool],
    ops_left: &mut Option<u64>,
    cache: &mut CallGraphCache,
    tracer: &mut Tracer,
) -> InlinePassResult {
    let mut result = InlinePassResult::default();
    let explain = tracer.decisions_enabled();
    let plan_start = Instant::now();

    // Screen candidates (Figure 4 "screen inline candidates"). All
    // screening data is copied out so the call-graph borrow ends before
    // any mutation.
    let (scc_rank, candidates) = {
        let cg = cache.graph(p);
        // Interprocedural facts sharpen screening (frame-escape blocks a
        // splice) and ranking (pure callees fold further once inlined).
        let summaries = opts.ipa.then(|| hlo_ipa::Summaries::compute(p, cg));
        let sccs = cg.sccs();
        let mut scc_rank = vec![0usize; p.funcs.len()];
        for (i, comp) in sccs.iter().enumerate() {
            for &f in comp {
                scc_rank[f.index()] = i;
            }
        }
        let mut candidates: Vec<Candidate> = Vec::new();
        for edge in &cg.edges {
            if !mask.get(edge.site.caller.index()).copied().unwrap_or(false) {
                continue;
            }
            let caller = p.func(edge.site.caller);
            let site_cnt = match &caller.profile {
                Some(pr) => pr.blocks[edge.site.block.index()],
                None => 1.0,
            };
            if let Some(r) = inline_restriction(p, &edge.site, opts.scope) {
                if explain {
                    tracer.decision(DecisionEvent {
                        pass: pass as u32,
                        kind: DecisionKind::Inline,
                        site: site_str(p, &edge.site),
                        callee: p.func(edge.callee).name.clone(),
                        verdict: Verdict::Rejected,
                        reason: r.code(),
                        benefit: 0.0,
                        cost: 0,
                        budget_before: 0,
                        budget_after: 0,
                        profile_weight: site_cnt,
                    });
                }
                continue;
            }
            // Interprocedural screening: a callee that leaks its own
            // frame address must not have its frame merged into the
            // caller's — the escaped address would outlive (and alias)
            // differently after the splice.
            if let Some(s) = &summaries {
                if s.funcs[edge.callee.index()].leaks_frame {
                    if explain {
                        tracer.decision(DecisionEvent {
                            pass: pass as u32,
                            kind: DecisionKind::Inline,
                            site: site_str(p, &edge.site),
                            callee: p.func(edge.callee).name.clone(),
                            verdict: Verdict::Rejected,
                            reason: "ipa-escape-blocked",
                            benefit: 0.0,
                            cost: 0,
                            budget_before: 0,
                            budget_after: 0,
                            profile_weight: site_cnt,
                        });
                    }
                    continue;
                }
            }
            let callee = p.func(edge.callee);
            let entry_cnt = caller.profile.as_ref().map_or(1.0, |pr| pr.entry);
            let mut merit = site_cnt;
            if opts.cold_site_penalty && site_cnt < entry_cnt {
                merit *= COLD_SITE_PENALTY;
            }
            if callee.flags.inline_hint {
                merit *= HINT_BONUS;
            }
            if summaries
                .as_ref()
                .is_some_and(|s| s.funcs[edge.callee.index()].removable())
            {
                merit *= IPA_PURE_BONUS;
            }
            candidates.push(Candidate {
                site: edge.site,
                target: edge.callee,
                merit,
                weight: site_cnt,
            });
        }
        (scc_rank, candidates)
    };

    // Plan: greedy selection with cascaded cost over a bottom-up schedule
    // (Figure 4 "select inline sites").
    let headroom = budget.stage_limit(pass).saturating_sub(budget.current());
    let (mut schedule, delta, deferred) = plan(
        p,
        &scc_rank,
        candidates,
        headroom,
        *ops_left,
        pass as u32,
        tracer,
    );
    if let Some(left) = ops_left {
        *left -= (schedule.len() as u64).min(*left);
    }
    budget.charge(delta);
    result.deferred = deferred;
    result.plan_wall = plan_start.elapsed();

    // Perform bottom-up (Figure 4 "perform inlines"), fixing the
    // coordinates of later sites that shared the split block.
    let apply_start = Instant::now();
    schedule.sort_by_key(|c| scc_rank[c.site.caller.index()]);
    for i in 0..schedule.len() {
        let cand = schedule[i].clone();
        let splice = inline_call(p, &cand.site);
        result.inlines += 1;
        // Deduct the moved executions from the callee's surviving
        // profile.
        let callee_entry = p.func(cand.target).entry_count().unwrap_or(0.0);
        if callee_entry > 0.0 {
            let keep = ((callee_entry - splice.site_count) / callee_entry).max(0.0);
            scale_profile(&mut p.func_mut(cand.target).profile, keep);
        }
        for later in schedule.iter_mut().skip(i + 1) {
            if later.site.caller == cand.site.caller
                && later.site.block == splice.split_block
                && later.site.inst > splice.call_index
            {
                later.site.block = splice.continuation;
                later.site.inst -= splice.call_index + 1;
            }
        }
    }
    let mut touched: Vec<FuncId> = schedule.iter().map(|c| c.site.caller).collect();
    touched.sort_unstable();
    touched.dedup();
    let splice_elapsed = apply_start.elapsed();

    // Re-optimize the callers that grew (Figure 4 "optimize inlines") on
    // the worker pool, then recalibrate from measured sizes. Each touched
    // caller's cached call-graph scan is stale now.
    let reopt_start = Instant::now();
    let out = par_funcs_mut(effective_jobs(opts.jobs), p, &touched, |_, f| {
        hlo_opt::optimize_function(f)
    });
    for &f in &touched {
        cache.invalidate(f);
    }
    // The budget tracks only the active partition's cost.
    budget.recalibrate(crate::driver::masked_cost(p, mask));
    result.apply_wall = splice_elapsed + reopt_start.elapsed();
    result.apply_work = splice_elapsed + out.work;

    result
}

/// The greedy planner: rank by merit, accept while the cascaded schedule
/// delta stays within `headroom`, stopping after `ops_cap` acceptances.
/// Returns the accepted schedule, its total cost delta and the number of
/// deferred sites.
fn plan(
    p: &Program,
    scc_rank: &[usize],
    mut ranked: Vec<Candidate>,
    headroom: u64,
    ops_cap: Option<u64>,
    pass: u32,
    tracer: &mut Tracer,
) -> (Vec<Candidate>, u64, u64) {
    ranked.sort_by(|a, b| {
        b.merit
            .partial_cmp(&a.merit)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let explain = tracer.decisions_enabled();
    let mut schedule: Vec<Candidate> = Vec::new();
    let mut spent = 0u64;
    let mut deferred = 0u64;
    for cand in ranked {
        if ops_cap.is_some_and(|cap| schedule.len() as u64 >= cap) {
            break;
        }
        let mut tentative: Vec<&Candidate> = schedule.iter().collect();
        tentative.push(&cand);
        // Bottom-up order: deepest sources first, so a callee's own
        // accepted inlines are counted before it is spliced elsewhere.
        tentative.sort_by_key(|c| scc_rank[c.site.caller.index()]);
        let delta = schedule_cost_delta(p, &tentative);
        let accepted = delta <= headroom;
        if explain {
            // Budget state is the remaining stage headroom; the cost is
            // the cascaded delta this one decision adds.
            tracer.decision(DecisionEvent {
                pass,
                kind: DecisionKind::Inline,
                site: site_str(p, &cand.site),
                callee: p.func(cand.target).name.clone(),
                verdict: if accepted {
                    Verdict::Performed
                } else {
                    Verdict::Deferred
                },
                reason: if accepted {
                    "accepted"
                } else {
                    "budget-deferred"
                },
                benefit: cand.merit,
                cost: delta.saturating_sub(spent),
                budget_before: headroom.saturating_sub(spent),
                budget_after: headroom.saturating_sub(if accepted { delta } else { spent }),
                profile_weight: cand.weight,
            });
        }
        if accepted {
            schedule.push(cand);
            spent = delta;
        } else {
            deferred += 1;
        }
    }
    (schedule, spent, deferred)
}

/// Total compile-cost increase of performing `schedule` (bottom-up order),
/// accounting for cascading: inlining t into s uses t's *effective* size
/// after t's own earlier scheduled inlines.
fn schedule_cost_delta(p: &Program, schedule: &[&Candidate]) -> u64 {
    let mut eff: HashMap<FuncId, u64> = HashMap::new();
    let size_of = |f: FuncId, eff: &HashMap<FuncId, u64>| -> u64 {
        eff.get(&f).copied().unwrap_or_else(|| p.func(f).size())
    };
    for c in schedule {
        let s = size_of(c.site.caller, &eff);
        let t = size_of(c.target, &eff);
        eff.insert(c.site.caller, s + t);
    }
    let mut delta = 0u64;
    for (f, new_size) in &eff {
        let old = p.func(*f).size();
        delta += new_size * new_size;
        delta = delta.saturating_sub(old * old);
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_analysis::CallGraph;
    use hlo_ir::verify_program;
    use hlo_vm::{run_program, ExecOptions};

    fn annotate(p: &mut Program) {
        for f in &mut p.funcs {
            if f.profile.is_none() {
                f.profile = Some(hlo_analysis::estimate_static_profile(f));
            }
        }
    }

    /// One pass with every function selected (the whole program as one
    /// cache partition; its masked cost is the compile cost).
    fn whole_pass(
        p: &mut Program,
        budget: &mut Budget,
        pass: usize,
        opts: &HloOptions,
        ops_left: &mut Option<u64>,
        cache: &mut CallGraphCache,
    ) -> InlinePassResult {
        let mask = vec![true; p.funcs.len()];
        let mut tracer = Tracer::disabled();
        inline_pass(p, budget, pass, opts, &mask, ops_left, cache, &mut tracer)
    }

    fn run_pass(p: &mut Program, budget_pct: u64) -> InlinePassResult {
        annotate(p);
        let c0 = p.compile_cost();
        let mut budget = Budget::new(c0, budget_pct, &[1.0]);
        let mut cache = CallGraphCache::new();
        whole_pass(
            p,
            &mut budget,
            0,
            &HloOptions::default(),
            &mut None,
            &mut cache,
        )
    }

    #[test]
    fn inlines_simple_call_and_preserves_semantics() {
        let src = &[(
            "m",
            "fn sq(x) { return x * x; } fn main() { return sq(9) + sq(2); }",
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        let expect = run_program(&p, &[], &ExecOptions::default()).unwrap().ret;
        let r = run_pass(&mut p, 500);
        assert!(r.inlines >= 2, "{r:?}");
        verify_program(&p).unwrap();
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            expect
        );
    }

    #[test]
    fn hot_sites_win_under_tight_budget() {
        // Two big callees; only one fits. The one called in a loop must be
        // chosen.
        let src = &[(
            "m",
            r#"
            fn hot(x) { var s = 0; if (x > 1) { s = x * 3; } else { s = x + 1; }
                        if (s > 10) { s = s - 10; } return s; }
            fn cold(x) { var s = 0; if (x > 1) { s = x * 5; } else { s = x + 2; }
                         if (s > 10) { s = s - 9; } return s; }
            fn main() {
                var acc = 0;
                for (var i = 0; i < 50; i = i + 1) { acc = acc + hot(i); }
                if (acc < 0) { acc = acc + cold(3); }
                return acc;
            }
            "#,
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        annotate(&mut p);
        let c0 = p.compile_cost();
        // Budget that fits roughly one medium inline but not both.
        let mut budget = Budget::new(c0, 100, &[1.0]);
        let mut cache = CallGraphCache::new();
        let r = whole_pass(
            &mut p,
            &mut budget,
            0,
            &HloOptions::default(),
            &mut None,
            &mut cache,
        );
        assert!(r.inlines >= 1);
        assert!(r.deferred >= 1, "{r:?}");
        // `hot` must no longer be called from main's loop.
        verify_program(&p).unwrap();
        let main = p.entry.unwrap();
        let hot = p.find_func("m", "hot").unwrap();
        let cg = CallGraph::build(&p);
        let hot_calls_from_main = cg
            .edges
            .iter()
            .filter(|e| e.site.caller == main && e.callee == hot)
            .count();
        assert_eq!(hot_calls_from_main, 0);
    }

    #[test]
    fn cascaded_inlines_abc() {
        // c into b, then b into a — the schedule must handle the cascade.
        let src = &[(
            "m",
            r#"
            fn c(x) { return x + 1; }
            fn b(x) { return c(x) * 2; }
            fn a(x) { return b(x) + 3; }
            fn main() { return a(5); }
            "#,
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        let expect = run_program(&p, &[], &ExecOptions::default()).unwrap().ret;
        let r = run_pass(&mut p, 2000);
        assert!(r.inlines >= 3, "{r:?}");
        verify_program(&p).unwrap();
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            expect
        );
    }

    #[test]
    fn two_sites_same_block_both_inline() {
        let src = &[(
            "m",
            "fn f(x) { return x + 7; } fn main() { return f(1) * f(2); }",
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        let expect = run_program(&p, &[], &ExecOptions::default()).unwrap().ret;
        let r = run_pass(&mut p, 2000);
        assert_eq!(r.inlines, 2);
        verify_program(&p).unwrap();
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            expect
        );
    }

    #[test]
    fn mutual_recursion_inlines_once_without_hanging() {
        let src = &[(
            "m",
            r#"
            fn even(n) { if (n == 0) { return 1; } return odd(n - 1); }
            fn odd(n) { if (n == 0) { return 0; } return even(n - 1); }
            fn main() { return even(10) * 10 + odd(7); }
            "#,
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        let expect = run_program(&p, &[], &ExecOptions::default()).unwrap().ret;
        let r = run_pass(&mut p, 400);
        assert!(r.inlines >= 1);
        verify_program(&p).unwrap();
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            expect
        );
    }

    #[test]
    fn ops_limit_caps_acceptances() {
        let src = &[(
            "m",
            "fn f(x) { return x + 1; } fn main() { return f(1) + f(2) + f(3) + f(4); }",
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        annotate(&mut p);
        let c0 = p.compile_cost();
        let mut budget = Budget::new(c0, 5000, &[1.0]);
        let mut ops = Some(2u64);
        let mut cache = CallGraphCache::new();
        let r = whole_pass(
            &mut p,
            &mut budget,
            0,
            &HloOptions::default(),
            &mut ops,
            &mut cache,
        );
        assert_eq!(r.inlines, 2);
        assert_eq!(ops, Some(0));
        verify_program(&p).unwrap();
    }

    #[test]
    fn zero_budget_inlines_nothing() {
        let src = &[("m", "fn f(x) { return x + 1; } fn main() { return f(1); }")];
        let mut p = hlo_frontc::compile(src).unwrap();
        annotate(&mut p);
        let c0 = p.compile_cost();
        let mut budget = Budget::new(c0, 0, &[1.0]);
        let mut cache = CallGraphCache::new();
        let r = whole_pass(
            &mut p,
            &mut budget,
            0,
            &HloOptions::default(),
            &mut None,
            &mut cache,
        );
        assert_eq!(r.inlines, 0);
        assert_eq!(r.deferred, 1);
    }

    #[test]
    fn inlined_body_folds_with_constant_arguments() {
        // After inlining f(3), the scalar optimizer must fold everything.
        let src = &[(
            "m",
            "fn f(x) { return x * x + 1; } fn main() { return f(3); }",
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        run_pass(&mut p, 2000);
        let main = p.entry.unwrap();
        assert_eq!(p.func(main).size(), 1, "{}", p.func(main));
    }

    #[test]
    fn address_taken_island_inlines_identically_across_job_counts() {
        // Two call islands (main's and an address-escaped helper chain
        // that stays reachable). The pass must inline in both, and the
        // result must not depend on the job count.
        let src = &[(
            "m",
            r#"
            fn tiny(x) { return x + 1; }
            fn island() { return tiny(1) + tiny(2); }
            fn main() { var f = &island; return f(); }
            "#,
        )];
        let p0 = {
            let mut p = hlo_frontc::compile(src).unwrap();
            annotate(&mut p);
            p
        };
        let mut outs: Vec<String> = Vec::new();
        for jobs in [1usize, 4] {
            let mut p = p0.clone();
            let c0 = p.compile_cost();
            let mut budget = Budget::new(c0, 1000, &[1.0]);
            let mut cache = CallGraphCache::new();
            let opts = HloOptions {
                jobs,
                ..Default::default()
            };
            let r = whole_pass(&mut p, &mut budget, 0, &opts, &mut None, &mut cache);
            assert!(r.inlines >= 2, "{r:?}");
            verify_program(&p).unwrap();
            outs.push(hlo_ir::program_to_text(&p));
        }
        assert_eq!(outs[0], outs[1]);
    }

    #[test]
    fn one_partition_plans_all_its_live_components_as_one_pool() {
        // main takes island's address, so {main, big} and {island, tiny}
        // are two live call-graph components in one cache partition. The
        // hottest site (tiny inside island's loop) costs more than the
        // {island, tiny} component's Σ size² share of the headroom, but
        // fits the partition's whole headroom: one greedy plan over the
        // partition must take it.
        let src = &[(
            "m",
            r#"
            fn tiny(x) {
                var s = x * 3;
                if (s > 7) { s = s - 7; } else { s = s + 2; }
                if (s > 20) { s = s / 2; } else { s = s * 5; }
                return s + 1;
            }
            fn island() {
                var s = 0;
                for (var i = 0; i < 8; i = i + 1) { s = s + tiny(i); }
                return s;
            }
            fn big(x) {
                var s = x;
                if (s > 1) { s = s * 3; } else { s = s + 4; }
                if (s > 9) { s = s - 2; } else { s = s * 7; }
                if (s > 30) { s = s / 3; } else { s = s + 11; }
                if (s > 5) { s = s * s; } else { s = s - 1; }
                if (s > 99) { s = s % 97; } else { s = s + 13; }
                return s;
            }
            fn main() { var f = &island; return f() + big(3); }
            "#,
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        annotate(&mut p);
        let expect = run_program(&p, &[], &ExecOptions::default()).unwrap().ret;
        let cg = CallGraph::build(&p);
        assert_eq!(cg.cache_partitions().len(), 1);
        let size = |name: &str| p.func(p.find_func("m", name).unwrap()).size();
        let (i, t) = (size("island"), size("tiny"));
        let site_cost = (i + t) * (i + t) - i * i;
        let c0 = p.compile_cost();
        let mut budget = Budget::new(c0, 100, &[1.0]);
        let headroom = budget.limit() - c0;
        let component_share = headroom * (i * i + t * t) / c0;
        assert!(
            component_share < site_cost && site_cost <= headroom,
            "share {component_share}, site cost {site_cost}, headroom {headroom}"
        );
        let r = whole_pass(
            &mut p,
            &mut budget,
            0,
            &HloOptions::default(),
            &mut None,
            &mut CallGraphCache::new(),
        );
        assert!(r.inlines >= 1, "{r:?}");
        verify_program(&p).unwrap();
        let island = p.find_func("m", "island").unwrap();
        let tiny = p.find_func("m", "tiny").unwrap();
        assert!(
            !CallGraph::build(&p)
                .edges
                .iter()
                .any(|e| e.site.caller == island && e.callee == tiny),
            "tiny must be inlined into island"
        );
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            expect
        );
    }

    #[test]
    fn passes_reuse_the_cached_call_graph() {
        let src = &[(
            "m",
            "fn f(x) { return x + 1; } fn main() { return f(1) + f(2); }",
        )];
        let mut p = hlo_frontc::compile(src).unwrap();
        annotate(&mut p);
        let c0 = p.compile_cost();
        let mut budget = Budget::new(c0, 2000, &[1.0, 1.0]);
        let mut cache = CallGraphCache::new();
        whole_pass(
            &mut p,
            &mut budget,
            0,
            &HloOptions::default(),
            &mut None,
            &mut cache,
        );
        let scans_after_first = cache.rescans();
        whole_pass(
            &mut p,
            &mut budget,
            1,
            &HloOptions::default(),
            &mut None,
            &mut cache,
        );
        // The second pass re-scanned only the invalidated caller (main),
        // not the whole program.
        assert!(
            cache.rescans() - scans_after_first <= 1,
            "rescans {} -> {}",
            scans_after_first,
            cache.rescans()
        );
    }
}
