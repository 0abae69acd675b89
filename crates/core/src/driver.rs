//! The multi-pass driver (paper §2.2, Figure 2), parallel edition.
//!
//! One [`CallGraphCache`] is shared across every stage of the pipeline, so
//! passes re-scan only the functions they actually edited. Per-function
//! stages (frequency annotation, scalar cleanup) and per-partition stages
//! (inline/clone planning) fan out over the [`crate::par`] worker pool;
//! everything that allocates `FuncId`s or charges the budget stays
//! sequential, which is why the output is byte-identical at any
//! [`HloOptions::jobs`] value.

use crate::budget::BudgetSet;
use crate::cloner::{clone_pass, CloneDb};
use crate::delete::delete_unreachable;
use crate::inliner::inline_pass;
use crate::par::{effective_jobs, par_map_funcs};
use crate::report::{HloReport, PassReport, StageTiming};
use hlo_analysis::{estimate_static_profile, CallGraphCache, CallGraphPartition};
use hlo_ir::{FuncId, FuncProfile, Function, Linkage, Program};
use hlo_lint::{CheckLevel, Checker};
use hlo_profile::{apply_profile, ProfileDb};
use hlo_trace::{DecisionEvent, DecisionKind, TraceLevel, Tracer, Verdict};
use std::time::Instant;

/// Compilation visibility: the paper's per-module path vs the link-time
/// ("isom") whole-program path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Each transformation stays within one module; unused public
    /// routines must be kept (other modules might call them).
    WithinModule,
    /// Whole-program: cross-module inlining/cloning, interprocedural
    /// side-effect deletion, and deletion of unused public routines.
    CrossModule,
}

/// Options controlling an [`optimize`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct HloOptions {
    /// Visibility scope.
    pub scope: Scope,
    /// Budget percentage: allowed compile-time increase. The paper's
    /// default is 100 (Figure 8 sweeps 25–1000).
    pub budget_percent: u64,
    /// Maximum Clone+Inline passes (the paper's pass limit).
    pub passes: usize,
    /// Cumulative budget fractions available by the end of each pass.
    pub stage_fractions: Vec<f64>,
    /// Enable the inlining passes (Figure 6 toggles this).
    pub enable_inline: bool,
    /// Enable the cloning passes (Figure 6 toggles this).
    pub enable_clone: bool,
    /// Stop after this many inline/clone-replacement operations — the
    /// artificial stop used for the paper's Figure 8 heuristic validation.
    pub max_ops: Option<u64>,
    /// Apply the penalty for sites colder than their caller's entry
    /// (ablation knob; the paper always applies it).
    pub cold_site_penalty: bool,
    /// Reuse clones from the clone database across passes (ablation
    /// knob; the paper always reuses).
    pub clone_db_reuse: bool,
    /// Run aggressive outlining of cold regions before inlining — the
    /// paper's §5 future work, off by default for fidelity.
    pub enable_outline: bool,
    /// Profile-guided block straightening after the passes finish (the
    /// intra-procedural half of Pettis–Hansen code positioning, part of
    /// HP's PBO; on by default like the paper's "peak options").
    pub enable_straighten: bool,
    /// Bottom-up interprocedural summary analysis (`hlo-ipa`): MOD/REF
    /// sets, summary-based purity, frame-escape and return-constancy
    /// feed the inliner's screening/ranking and a summary-driven scalar
    /// stage (constant-return folding, generalized pure-call removal,
    /// cross-call store forwarding). On by default; turning it off
    /// reproduces the syntactic-purity-only pipeline exactly.
    pub ipa: bool,
    /// Outlining thresholds (used when `enable_outline` is set).
    pub outline: crate::OutlineOptions,
    /// Verify-each: how much pass-boundary checking to run. At
    /// [`CheckLevel::Structural`] the structural verifier runs after every
    /// transform stage; at [`CheckLevel::Strict`] the full `hlo-lint`
    /// battery runs too, and every new finding is attributed to the stage
    /// that introduced it. Off (and free) by default.
    pub check: CheckLevel,
    /// How much the run records into its tracer (spans only, or spans
    /// plus decision provenance). Pure observability: never changes the
    /// produced program, and is normalized out of the fingerprint.
    pub trace: TraceLevel,
    /// Worker threads for the parallel stages: `1` (the default) runs
    /// everything inline, `0` means "all available hardware parallelism".
    /// The produced program is byte-identical for every value — only
    /// wall-clock time changes.
    pub jobs: usize,
    /// Allow the optimization daemon to serve this request from its
    /// function-grain partition cache (on by default). Purely a caching
    /// permission: the pipeline guarantees the incremental result is
    /// byte-identical to a from-scratch build, so the flag is normalized
    /// out of the fingerprint like `jobs`.
    pub incremental: bool,
}

impl HloOptions {
    /// Serializes to a stable, line-oriented `key value` text form — the
    /// wire format of the optimization service and the canonical input of
    /// [`HloOptions::fingerprint`]. Every field is written, one per line,
    /// in declaration order.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let onoff = |b: bool| if b { "on" } else { "off" };
        let _ = writeln!(
            s,
            "scope {}",
            match self.scope {
                Scope::WithinModule => "module",
                Scope::CrossModule => "program",
            }
        );
        let _ = writeln!(s, "budget {}", self.budget_percent);
        let _ = writeln!(s, "passes {}", self.passes);
        let mut stages = String::from("stages");
        for f in &self.stage_fractions {
            let _ = write!(stages, " {f}");
        }
        let _ = writeln!(s, "{stages}");
        let _ = writeln!(s, "inline {}", onoff(self.enable_inline));
        let _ = writeln!(s, "clone {}", onoff(self.enable_clone));
        let _ = writeln!(
            s,
            "max_ops {}",
            self.max_ops.map_or("none".to_string(), |n| n.to_string())
        );
        let _ = writeln!(s, "cold_site_penalty {}", onoff(self.cold_site_penalty));
        let _ = writeln!(s, "clone_db_reuse {}", onoff(self.clone_db_reuse));
        let _ = writeln!(s, "outline {}", onoff(self.enable_outline));
        let _ = writeln!(s, "straighten {}", onoff(self.enable_straighten));
        let _ = writeln!(s, "ipa {}", onoff(self.ipa));
        let _ = writeln!(s, "outline.cold_fraction {}", self.outline.cold_fraction);
        let _ = writeln!(s, "outline.max_params {}", self.outline.max_params);
        let _ = writeln!(
            s,
            "outline.min_region_size {}",
            self.outline.min_region_size
        );
        let _ = writeln!(
            s,
            "check {}",
            match self.check {
                CheckLevel::Off => "off",
                CheckLevel::Structural => "structural",
                CheckLevel::Strict => "strict",
            }
        );
        let _ = writeln!(s, "trace {}", self.trace);
        let _ = writeln!(s, "jobs {}", self.jobs);
        let _ = writeln!(s, "incremental {}", onoff(self.incremental));
        s
    }

    /// Parses the form produced by [`HloOptions::to_text`]. Unknown keys
    /// and malformed values are errors; omitted keys keep their defaults
    /// (so older clients can talk to newer daemons).
    ///
    /// # Errors
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut o = HloOptions::default();
        let bool_of = |v: &str| match v {
            "on" => Ok(true),
            "off" => Ok(false),
            other => Err(format!("expected on/off, got `{other}`")),
        };
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, val) = line.split_once(' ').unwrap_or((line, ""));
            let val = val.trim();
            let num = |what: &str| -> Result<u64, String> {
                val.parse().map_err(|_| format!("bad {what} `{val}`"))
            };
            match key {
                "scope" => {
                    o.scope = match val {
                        "module" => Scope::WithinModule,
                        "program" => Scope::CrossModule,
                        other => return Err(format!("bad scope `{other}`")),
                    }
                }
                "budget" => o.budget_percent = num("budget")?,
                "passes" => o.passes = num("passes")? as usize,
                "stages" => {
                    o.stage_fractions = val
                        .split_whitespace()
                        .map(|f| f.parse().map_err(|_| format!("bad stage fraction `{f}`")))
                        .collect::<Result<_, _>>()?
                }
                "inline" => o.enable_inline = bool_of(val)?,
                "clone" => o.enable_clone = bool_of(val)?,
                "max_ops" => {
                    o.max_ops = if val == "none" {
                        None
                    } else {
                        Some(num("max_ops")?)
                    }
                }
                "cold_site_penalty" => o.cold_site_penalty = bool_of(val)?,
                "clone_db_reuse" => o.clone_db_reuse = bool_of(val)?,
                "outline" => o.enable_outline = bool_of(val)?,
                "straighten" => o.enable_straighten = bool_of(val)?,
                "ipa" => o.ipa = bool_of(val)?,
                "outline.cold_fraction" => {
                    o.outline.cold_fraction = val
                        .parse()
                        .map_err(|_| format!("bad cold_fraction `{val}`"))?
                }
                "outline.max_params" => o.outline.max_params = num("max_params")? as u32,
                "outline.min_region_size" => o.outline.min_region_size = num("min_region_size")?,
                "check" => o.check = val.parse()?,
                "trace" => o.trace = val.parse()?,
                "jobs" => o.jobs = num("jobs")? as usize,
                "incremental" => o.incremental = bool_of(val)?,
                other => return Err(format!("unknown option key `{other}`")),
            }
        }
        Ok(o)
    }

    /// A stable 64-bit fingerprint of every option that can change the
    /// *produced program*. `jobs`, `check` and `trace` are normalized
    /// out: the pipeline guarantees byte-identical output at any worker
    /// count, and verify-each and tracing only observe — so a result
    /// cached at `jobs=8` is a valid hit for a `jobs=1 --verify-each`
    /// (or `--explain`) request.
    pub fn fingerprint(&self) -> u64 {
        let canonical = HloOptions {
            jobs: 1,
            check: CheckLevel::Off,
            trace: TraceLevel::Off,
            incremental: true,
            ..self.clone()
        };
        hlo_ir::fnv1a_64(canonical.to_text().as_bytes())
    }
}

impl Default for HloOptions {
    fn default() -> Self {
        HloOptions {
            scope: Scope::CrossModule,
            budget_percent: 100,
            passes: 4,
            stage_fractions: vec![0.25, 0.5, 0.75, 1.0],
            enable_inline: true,
            enable_clone: true,
            max_ops: None,
            cold_site_penalty: true,
            clone_db_reuse: true,
            enable_outline: false,
            enable_straighten: true,
            ipa: true,
            outline: crate::OutlineOptions::default(),
            check: CheckLevel::Off,
            trace: TraceLevel::Off,
            jobs: 1,
            incremental: true,
        }
    }
}

/// Runs HLO: annotate frequencies, pre-optimize, then alternate cloning
/// and inlining passes under the staged budget until the budget closes,
/// the pass limit is reached, nothing changes, or the operation limit is
/// hit (Figure 2's `WHILE (C < B AND P < limit)`).
pub fn optimize(p: &mut Program, profile: Option<&ProfileDb>, opts: &HloOptions) -> HloReport {
    optimize_traced(p, profile, opts, &mut Tracer::disabled())
}

/// [`optimize`], recording into `tracer`: a hierarchical span tree
/// (program → pass → stage) always, and per-site decision provenance when
/// the tracer was built at [`TraceLevel::Decisions`]. The tracer's level —
/// not [`HloOptions::trace`] — controls collection; `HloOptions::trace` is
/// how a *request* asks a remote daemon for a tracing run. Tracing is pure
/// observation: the produced program is byte-identical with tracing on or
/// off, and trace *content* (span tree, decisions, metrics) is identical
/// at any [`HloOptions::jobs`] value once timestamps are normalized away.
pub fn optimize_traced(
    p: &mut Program,
    profile: Option<&ProfileDb>,
    opts: &HloOptions,
    tracer: &mut Tracer,
) -> HloReport {
    optimize_partial(p, profile, opts, None, tracer).report
}

/// Sentinel base for function references into a cached partition's own
/// clones. When the daemon stores a partition's optimized bodies it
/// rewrites every reference to a clone the partition itself created as
/// `CLONE_REF_BASE + position` (position in creation order); at splice
/// time [`optimize_partial`] rebases those onto the ids the clones
/// actually receive in the new program. References below the base are
/// input-function ids, which are stable across edits of *other* cones.
pub const CLONE_REF_BASE: u32 = 0x8000_0000;

/// A cached partition's final state, as replayed by a [`PartitionAction::Reuse`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReusedPartition {
    /// `(input id, final optimized body, alive)` for every member, where
    /// `alive` records whether the function was still in its module's
    /// function list at the end of the build (deleted routines keep their
    /// id but leave the list).
    pub members: Vec<(FuncId, Function, bool)>,
    /// The clone bodies the partition created, in creation order, with
    /// their final alive bits. Function references into this list are
    /// stored as [`CLONE_REF_BASE`]`+ position` sentinels.
    pub clones: Vec<(Function, bool)>,
}

/// What [`optimize_partial`] should do with one cache partition.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionAction {
    /// Run the full multi-pass pipeline on the partition's members.
    Rebuild,
    /// Splice the stored final bodies in without optimizing anything.
    Reuse(ReusedPartition),
}

/// What a partial build did, in enough detail for the daemon to populate
/// its partition cache from a rebuild and to report counters.
#[derive(Debug, Clone, Default)]
pub struct BuildLog {
    /// Cache-partition membership, in partition order (input ids only).
    pub partitions: Vec<Vec<FuncId>>,
    /// Every clone in the final program as `(id, partition index)`, in
    /// creation order — spliced and freshly created alike.
    pub clones: Vec<(FuncId, usize)>,
    /// Each partition's budget limit (its share of the global budget).
    pub partition_limits: Vec<u64>,
    /// Whether each partition was rebuilt (`true`) or spliced (`false`).
    pub rebuilt: Vec<bool>,
    /// True when the build renamed or relinked a global (static-global
    /// promotion during inlining/cloning). Such a build mutates state
    /// outside its partitions' bodies, so the daemon must not populate
    /// its partition cache from it.
    pub globals_mutated: bool,
}

/// Result of [`optimize_partial`]: the usual report plus the build log.
#[derive(Debug, Clone, Default)]
pub struct PartialOutcome {
    /// The optimization report (same shape as [`optimize`]'s).
    pub report: HloReport,
    /// The partition-grain account of what happened.
    pub log: BuildLog,
}

/// Sum of `size^2` over the functions `mask` selects — the partition-local
/// analogue of [`Program::compile_cost`], used to recalibrate a
/// partition's budget without charging it for other partitions' growth.
pub(crate) fn masked_cost(p: &Program, mask: &[bool]) -> u64 {
    p.funcs
        .iter()
        .enumerate()
        .filter(|(i, _)| mask.get(*i).copied().unwrap_or(false))
        .map(|(_, f)| {
            let s = f.size();
            s * s
        })
        .sum()
}

/// The partition-at-a-time driver underneath [`optimize_traced`].
///
/// The program is split into *cache partitions* — weakly connected
/// components of the direct call graph, with everything touching
/// indirection (indirect call sites, address-taken functions and their
/// takers) merged into one island — computed on the **input** program so
/// the optimization daemon, which keys its result cache on input cone
/// hashes, agrees with the driver about membership. After a masked global
/// prepass, each partition runs its complete multi-pass pipeline under its
/// **own** [`crate::budget::Budget`] (its proportional share of the global
/// budget), sequentially in partition order. Because no pipeline stage
/// edits a function outside the current partition, and clone ids allocate
/// contiguously per partition, each partition's final bodies are a pure
/// function of its own members, profile slice and budget share — which is
/// what makes function-grain result reuse sound:
///
/// * `plan = None` (a full build, what [`optimize`] does): every
///   partition is rebuilt.
/// * `plan = Some(actions)`, one action per partition: `Rebuild` runs the
///   pipeline, `Reuse` splices the stored final bodies byte-for-byte. The
///   result is byte-identical to a full build as long as every reused
///   entry really came from a byte-identical cone under the same options
///   and budget share.
///
/// Outline builds (`enable_outline`) are whole-program — outlining
/// creates functions before partitioning is useful — and reject a plan.
pub fn optimize_partial(
    p: &mut Program,
    profile: Option<&ProfileDb>,
    opts: &HloOptions,
    plan: Option<&[PartitionAction]>,
    tracer: &mut Tracer,
) -> PartialOutcome {
    let mut report = HloReport::default();
    let jobs = effective_jobs(opts.jobs);
    let span_base = tracer.span_count();
    let run_t = Instant::now();
    let root = tracer.push("optimize");
    let mut cache = CallGraphCache::new();

    // Static-global promotion renames globals program-wide; snapshot the
    // table so the build log can report any mutation.
    let globals_before: Vec<(String, Linkage)> = p
        .globals
        .iter()
        .map(|g| (g.name.clone(), g.linkage))
        .collect();

    // Cache partitions come from the *input* program (outline builds get
    // one whole-program partition after outlining, below).
    let mut partitions: Vec<CallGraphPartition> = if opts.enable_outline {
        assert!(plan.is_none(), "outline builds are not partition-cacheable");
        Vec::new()
    } else {
        cache.graph(p).cache_partitions()
    };
    let mut rebuild_func = vec![true; p.funcs.len()];
    if let Some(plan) = plan {
        assert_eq!(
            plan.len(),
            partitions.len(),
            "plan must cover every cache partition"
        );
        for (part, action) in partitions.iter().zip(plan) {
            if matches!(action, PartitionAction::Reuse(_)) {
                for &f in &part.funcs {
                    rebuild_func[f.index()] = false;
                }
            }
        }
    }
    // The prepass mask: a full build touches everything (`None` keeps the
    // small-batch parallel paths on their unmasked fast path), a partial
    // build only prepasses functions it will rebuild — reused partitions
    // get their final bodies spliced in, so optimizing their inputs would
    // be wasted work (and the whole point of the cache).
    let prepass_mask = plan.map(|_| rebuild_func.clone());
    let pmask = prepass_mask.as_deref();

    // Verify-each: record the input program's pre-existing defects first,
    // so every later boundary only reports what a stage *introduced*.
    let mut ck = Checker::new(opts.check);
    ck.baseline(p);

    // Frequency annotation: PBO counts when available, the static
    // loop-depth heuristic otherwise. With a profile database, functions
    // never executed in training are cold, not unknown. The per-function
    // fallback fans out over the worker pool. (Reused partitions are
    // annotated too — harmless, their bodies are replaced at splice.)
    let t0 = Instant::now();
    report.profile_annotations = match profile {
        Some(db) => apply_profile(p, db) as u64,
        None => 0,
    };
    let seq = t0.elapsed();
    let has_profile = profile.is_some();
    let t1 = Instant::now();
    let out = par_map_funcs(jobs, p, |_, f| {
        if f.profile.is_none() {
            f.profile = Some(if has_profile {
                FuncProfile {
                    entry: 0.0,
                    blocks: vec![0.0; f.blocks.len()],
                }
            } else {
                estimate_static_profile(f)
            });
        }
    });
    tracer.leaf("annotate", seq + t1.elapsed(), seq + out.work);
    ck.check(p, "annotate");

    // Input-stage cleanup: classic optimizations "mainly to reduce size",
    // plus interprocedural side-effect deletion on the link-time path.
    optimize_all(
        p,
        opts,
        &mut ck,
        &mut cache,
        jobs,
        tracer,
        0,
        &mut report,
        pmask,
    );
    let t = Instant::now();
    report.deletions += delete_unreachable(p, opts.scope, &mut cache, pmask);
    tracer.leaf_seq("delete", t.elapsed());
    ck.check(p, "delete");

    // Optional aggressive outlining (paper §5): shrink hot routines by
    // extracting cold return paths before any budget is computed, so the
    // freed budget goes to inlining the hot code. Outlining rewrites call
    // coordinates program-wide, so the whole cache is invalidated.
    if opts.enable_outline {
        // A structural span only — no stage leaf, so `stage_timings`
        // output is unchanged from the pre-tracer format.
        let t = Instant::now();
        let outline_span = tracer.push("outline");
        report.outlines = crate::outline_cold_regions_traced(p, &opts.outline, tracer);
        cache.invalidate_all();
        ck.check(p, "outline");
        if report.outlines > 0 {
            optimize_all(
                p,
                opts,
                &mut ck,
                &mut cache,
                jobs,
                tracer,
                0,
                &mut report,
                None,
            );
        }
        tracer.pop(outline_span, t.elapsed());
        partitions = vec![CallGraphPartition {
            funcs: p.func_ids().collect(),
            edge_indices: Vec::new(),
        }];
        rebuild_func = vec![true; p.funcs.len()];
    }

    let c0 = p.compile_cost();
    report.initial_cost = c0;
    // One budget per partition, each a pure function of the partition's
    // own post-prepass cost; every inline and clone pass over the
    // partition plans against it. The limits sum to the global budget
    // (within integer truncation).
    let part_costs: Vec<u64> = partitions
        .iter()
        .map(|part| {
            part.funcs
                .iter()
                .map(|&f| {
                    let s = p.func(f).size();
                    s * s
                })
                .sum()
        })
        .collect();
    let mut budgets = BudgetSet::new(&part_costs, opts.budget_percent, &opts.stage_fractions);
    report.budget_limit = budgets.total_limit();

    let mut clone_db = CloneDb::default();
    let mut ops_left = opts.max_ops;
    let mut log = BuildLog {
        partitions: partitions.iter().map(|part| part.funcs.clone()).collect(),
        clones: Vec::new(),
        partition_limits: (0..partitions.len())
            .map(|i| budgets.get(i).limit())
            .collect(),
        rebuilt: Vec::new(),
        globals_mutated: false,
    };
    // Which functions the final straighten stage may touch: everything a
    // rebuild produced, nothing a splice restored (spliced bodies were
    // straightened by the build that cached them).
    let mut straighten_mask = rebuild_func;
    let mut pass_entered = vec![false; opts.passes];
    let mut pass_reports: Vec<PassReport> = (0..opts.passes)
        .map(|pass| PassReport {
            pass,
            ..Default::default()
        })
        .collect();

    for (pi, part) in partitions.iter().enumerate() {
        match plan.map_or(&PartitionAction::Rebuild, |pl| &pl[pi]) {
            PartitionAction::Reuse(stored) => {
                log.rebuilt.push(false);
                splice_partition(p, stored, pi, &mut log, &mut cache);
                straighten_mask.resize(p.funcs.len(), false);
            }
            PartitionAction::Rebuild => {
                log.rebuilt.push(true);
                let budget = budgets.get_mut(pi);
                let mut mask = vec![false; p.funcs.len()];
                for &f in &part.funcs {
                    mask[f.index()] = true;
                }
                for pass in 0..opts.passes {
                    if !budget.open() {
                        break;
                    }
                    if ops_left == Some(0) {
                        break;
                    }
                    pass_entered[pass] = true;
                    let pr = &mut pass_reports[pass];
                    let pass_t = Instant::now();
                    let pass_span = tracer.push(&format!("pass{pass}"));
                    if opts.enable_clone {
                        mask.resize(p.funcs.len(), false);
                        let r = clone_pass(
                            p,
                            budget,
                            pass,
                            opts,
                            &mask,
                            &mut clone_db,
                            &mut ops_left,
                            &mut cache,
                            tracer,
                        );
                        for &id in &r.created_ids {
                            if mask.len() <= id.index() {
                                mask.resize(id.index() + 1, false);
                            }
                            mask[id.index()] = true;
                            log.clones.push((id, pi));
                        }
                        pr.clones_created += r.clones_created;
                        pr.clones_reused += r.clones_reused;
                        pr.clone_replacements += r.sites_replaced;
                        tracer.leaf("clone.plan", r.plan_wall, r.plan_work);
                        tracer.leaf_seq("clone.apply", r.apply_wall);
                        ck.check(p, &format!("clone@{pass}"));
                    }
                    if opts.enable_inline {
                        mask.resize(p.funcs.len(), false);
                        let r = inline_pass(
                            p,
                            budget,
                            pass,
                            opts,
                            &mask,
                            &mut ops_left,
                            &mut cache,
                            tracer,
                        );
                        pr.inlines += r.inlines;
                        tracer.leaf_seq("inline.plan", r.plan_wall);
                        tracer.leaf("inline.apply", r.apply_wall, r.apply_work);
                        ck.check(p, &format!("inline@{pass}"));
                    }
                    let t = Instant::now();
                    pr.deletions += delete_unreachable(p, opts.scope, &mut cache, Some(&mask));
                    tracer.leaf_seq("delete", t.elapsed());
                    ck.check(p, &format!("delete@{pass}"));
                    optimize_all(
                        p,
                        opts,
                        &mut ck,
                        &mut cache,
                        jobs,
                        tracer,
                        pass as u32,
                        &mut report,
                        Some(&mask),
                    );
                    let t = Instant::now();
                    pr.deletions += delete_unreachable(p, opts.scope, &mut cache, Some(&mask));
                    tracer.leaf_seq("delete", t.elapsed());
                    ck.check(p, &format!("cleanup@{pass}"));
                    budget.recalibrate(masked_cost(p, &mask));
                    pr.cost_after += budget.current();
                    tracer.pop(pass_span, pass_t.elapsed());
                    // Note: a pass that changed nothing is not a reason to
                    // stop — sites deferred for budget reasons become
                    // affordable as later stages release more budget.
                }
                straighten_mask.resize(p.funcs.len(), true);
            }
        }
    }

    for (pass, pr) in pass_reports.into_iter().enumerate() {
        if pass_entered[pass] {
            report.inlines += pr.inlines;
            report.clones += pr.clones_created;
            report.clone_replacements += pr.clone_replacements;
            report.deletions += pr.deletions;
            report.passes.push(pr);
        }
    }

    // Final PBO code positioning: straighten hot paths so fall-throughs
    // replace jumps (does not change VM semantics, only layout quality).
    // Block reordering shifts every call-site coordinate.
    if opts.enable_straighten {
        let t = Instant::now();
        straighten_mask.resize(p.funcs.len(), true);
        report.straightened = hlo_opt::straighten::straighten_program(p, Some(&straighten_mask));
        cache.invalidate_all();
        tracer.leaf_seq("straighten", t.elapsed());
        ck.check(p, "straighten");
    }

    tracer.pop(root, run_t.elapsed());
    report.final_cost = p.compile_cost();
    report.jobs = jobs as u64;
    report.stage_timings = tracer
        .stage_totals_since(span_base)
        .into_iter()
        .map(|(stage, wall_us, work_us)| StageTiming {
            stage,
            wall_us,
            work_us,
        })
        .collect();
    report.checks_run = ck.checks_run();
    report.lint_time_us = ck.elapsed().as_micros() as u64;
    report.diagnostics = ck.into_report().diags;

    log.globals_mutated = p.globals.len() != globals_before.len()
        || p.globals
            .iter()
            .zip(&globals_before)
            .any(|(g, (name, linkage))| g.name != *name || g.linkage != *linkage);

    PartialOutcome { report, log }
}

/// Extracts one partition's final state from a finished build, in the
/// form [`PartitionAction::Reuse`] replays: member bodies with alive bits,
/// clone bodies in creation order, and references to the partition's own
/// clones rewritten to [`CLONE_REF_BASE`] sentinels so they survive being
/// spliced into a program where the clones land on different ids.
///
/// # Panics
/// Panics (debug builds) if a stored body references a clone of *another*
/// partition — that would mean a pipeline stage edited across a cache
/// partition boundary, which the incremental scheme forbids.
pub fn extract_partition(p: &Program, log: &BuildLog, pi: usize) -> ReusedPartition {
    use std::collections::HashMap;
    let own_clone_pos: HashMap<FuncId, u32> = log
        .clones
        .iter()
        .filter(|(_, part)| *part == pi)
        .enumerate()
        .map(|(pos, (id, _))| (*id, pos as u32))
        .collect();
    let all_clones: std::collections::HashSet<FuncId> =
        log.clones.iter().map(|(id, _)| *id).collect();
    let encode = |func: &mut Function| {
        func.for_each_func_ref_mut(|fid| {
            if let Some(&pos) = own_clone_pos.get(fid) {
                fid.0 = CLONE_REF_BASE + pos;
            } else {
                debug_assert!(
                    !all_clones.contains(fid),
                    "partition {pi} references another partition's clone {fid:?}"
                );
            }
        });
    };
    let alive = |id: FuncId| p.module(p.func(id).module).funcs.contains(&id);
    let members = log.partitions[pi]
        .iter()
        .map(|&id| {
            let mut func = p.func(id).clone();
            encode(&mut func);
            (id, func, alive(id))
        })
        .collect();
    let clones = log
        .clones
        .iter()
        .filter(|(_, part)| *part == pi)
        .map(|&(id, _)| {
            let mut func = p.func(id).clone();
            encode(&mut func);
            (func, alive(id))
        })
        .collect();
    ReusedPartition { members, clones }
}

/// Splices one cached partition into `p`: members' final bodies overwrite
/// their input slots (dead ones leave their module list), clone bodies are
/// appended in creation order. Clone ids line up with what a rebuild would
/// have allocated because partitions are processed in order and earlier
/// partitions contribute identical clone counts either way.
fn splice_partition(
    p: &mut Program,
    stored: &ReusedPartition,
    pi: usize,
    log: &mut BuildLog,
    cache: &mut CallGraphCache,
) {
    let base = p.funcs.len() as u32;
    let rebase = |func: &mut Function| {
        func.for_each_func_ref_mut(|fid| {
            if fid.0 >= CLONE_REF_BASE {
                fid.0 = base + (fid.0 - CLONE_REF_BASE);
            }
        });
    };
    for (id, func, alive) in &stored.members {
        let mut func = func.clone();
        rebase(&mut func);
        let module = func.module;
        *p.func_mut(*id) = func;
        if !*alive {
            p.modules[module.index()].funcs.retain(|x| x != id);
        }
        cache.invalidate(*id);
    }
    for (func, alive) in &stored.clones {
        let mut func = func.clone();
        rebase(&mut func);
        let alive = *alive;
        let module = func.module;
        let id = p.push_function(func);
        if !alive {
            p.modules[module.index()].funcs.retain(|&x| x != id);
        }
        log.clones.push((id, pi));
    }
}

/// One parallel scalar-cleanup round: every function `mask` selects
/// (`None` = all) is optimized on the worker pool, each worker driving its
/// function's sub-pass boundaries through a forked child checker. Children
/// are absorbed in function order, reproducing the sequential run's
/// diagnostics exactly; functions whose bodies changed are invalidated in
/// the call-graph cache.
fn cleanup_round(
    p: &mut Program,
    ck: &mut Checker,
    cache: &mut CallGraphCache,
    jobs: usize,
    tracer: &mut Tracer,
    mask: Option<&[bool]>,
) {
    let t = Instant::now();
    let parent: &Checker = ck;
    let out = par_map_funcs(jobs, p, |id, f| {
        if !mask.is_none_or(|m| m.get(id.index()).copied().unwrap_or(false)) {
            return (None, false);
        }
        let mut child = parent.fork();
        let stats = hlo_opt::optimize_function_checked(f, &mut child);
        (Some(child), stats.changed)
    });
    let wall = t.elapsed();
    let work = out.work;
    for (i, (child, changed)) in out.results.into_iter().enumerate() {
        if let Some(child) = child {
            ck.absorb(child);
        }
        if changed {
            cache.invalidate(FuncId(i as u32));
        }
    }
    tracer.leaf("cleanup", wall, work);
}

/// A pure-call deletion / ipa-stage decision event in the canonical
/// site spelling (the instruction no longer exists, so the coordinates
/// are pre-deletion).
fn pure_call_event(
    p: &Program,
    pass: u32,
    caller: FuncId,
    block: usize,
    inst: usize,
    callee: FuncId,
    reason: &'static str,
) -> DecisionEvent {
    let caller = p.func(caller);
    DecisionEvent {
        pass,
        kind: DecisionKind::PureCall,
        site: format!("{}@b{}.i{}", caller.name, block, inst),
        callee: p.func(callee).name.clone(),
        verdict: Verdict::Performed,
        reason,
        benefit: 0.0,
        cost: 0,
        budget_before: 0,
        budget_after: 0,
        profile_weight: caller
            .profile
            .as_ref()
            .and_then(|pr| pr.blocks.get(block).copied())
            .unwrap_or(0.0),
    }
}

/// Optimizes every live function `mask` selects (`None` = all); on the
/// whole-program path also deletes calls to side-effect-free routines
/// (against the cached call graph) and, with [`HloOptions::ipa`] set, runs
/// the summary-driven cross-call stage. The global analyses (reachability,
/// purity, summaries) stay program-wide — the mask only limits which
/// functions are *edited*, and a masked function's facts depend only on
/// same-partition callees. Accumulates its counters into `report`. In
/// verify-each mode the checker runs after every scalar sub-pass, so
/// findings carry sub-pass origins like `cse` or `simplify_cfg`.
#[allow(clippy::too_many_arguments)] // internal driver plumbing
fn optimize_all(
    p: &mut Program,
    opts: &HloOptions,
    ck: &mut Checker,
    cache: &mut CallGraphCache,
    jobs: usize,
    tracer: &mut Tracer,
    pass: u32,
    report: &mut HloReport,
    mask: Option<&[bool]>,
) {
    cleanup_round(p, ck, cache, jobs, tracer, mask);
    if opts.scope != Scope::CrossModule {
        return;
    }
    let t = Instant::now();
    let removal = {
        let cg = cache.graph(p);
        hlo_opt::eliminate_pure_calls_with(p, cg, mask)
    };
    for &f in &removal.changed {
        cache.invalidate(f);
    }
    tracer.leaf_seq("pure_calls", t.elapsed());
    ck.check(p, "pure_calls");
    if tracer.decisions_enabled() {
        for s in &removal.sites {
            tracer.decision(pure_call_event(
                p,
                pass,
                s.caller,
                s.block,
                s.inst,
                s.callee,
                "pure-call-removed",
            ));
        }
    }
    report.pure_calls_removed += removal.removed;
    if removal.removed > 0 {
        cleanup_round(p, ck, cache, jobs, tracer, mask);
    }

    // Summary-driven stage: fold constant returns, delete calls the
    // summaries prove removable (a strict superset of the syntactic set
    // above — only newly unlocked sites remain by now), then forward
    // stores across summary-screened calls. `ipa off` skips all of it and
    // reproduces the historical pipeline byte for byte.
    if opts.ipa {
        let t = Instant::now();
        let (summaries, syntactic) = {
            let cg = cache.graph(p);
            (
                hlo_ipa::Summaries::compute(p, cg),
                hlo_analysis::side_effect_free_funcs(p, cg),
            )
        };
        let folds = hlo_opt::fold_const_returns(p, &summaries, mask);
        for fo in &folds {
            cache.invalidate(fo.caller);
        }
        let ipa_removal = hlo_opt::eliminate_calls_where(p, &summaries.removable(), mask);
        for &f in &ipa_removal.changed {
            cache.invalidate(f);
        }
        let xstats = hlo_opt::forward_across_calls(p, &summaries, mask);
        for &f in &xstats.changed {
            cache.invalidate(f);
        }
        tracer.leaf_seq("ipa", t.elapsed());
        ck.check(p, "ipa");
        if tracer.decisions_enabled() {
            for fo in &folds {
                tracer.decision(pure_call_event(
                    p,
                    pass,
                    fo.caller,
                    fo.block,
                    fo.inst,
                    fo.callee,
                    "ipa-ret-const",
                ));
            }
            for s in &ipa_removal.sites {
                let reason = if syntactic[s.callee.index()] {
                    "pure-call-removed"
                } else {
                    "ipa-pure-callee"
                };
                tracer.decision(pure_call_event(
                    p, pass, s.caller, s.block, s.inst, s.callee, reason,
                ));
            }
        }
        report.ipa_const_folds += folds.len() as u64;
        report.ipa_pure_calls += ipa_removal.removed;
        report.ipa_store_forwards += xstats.forwards + xstats.dead_stores;
        if !folds.is_empty() || ipa_removal.removed > 0 || xstats.forwards + xstats.dead_stores > 0
        {
            cleanup_round(p, ck, cache, jobs, tracer, mask);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlo_ir::verify_program;
    use hlo_profile::collect_profile;
    use hlo_vm::{run_program, ExecOptions};

    const INTERP_SRC: &str = r#"
        global prog[16] = {1, 5, 2, 3, 1, 7, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0};
        static fn op_add(acc, v) { return acc + v; }
        static fn op_mul(acc, v) { return acc * v; }
        fn step(acc, code, v) {
            if (code == 1) { return op_add(acc, v); }
            if (code == 2) { return op_mul(acc, v); }
            return acc;
        }
        fn main() {
            var acc = 0;
            for (var r = 0; r < 200; r = r + 1) {
                var i = 0;
                while (prog[i] != 0) {
                    acc = step(acc, prog[i], prog[i + 1]);
                    i = i + 2;
                }
            }
            return acc;
        }
    "#;

    #[test]
    fn end_to_end_preserves_semantics_and_speeds_up() {
        let p0 = hlo_frontc::compile(&[("interp", INTERP_SRC)]).unwrap();
        let before = run_program(&p0, &[], &ExecOptions::default()).unwrap();
        let mut p = p0.clone();
        let report = optimize(&mut p, None, &HloOptions::default());
        verify_program(&p).unwrap();
        let after = run_program(&p, &[], &ExecOptions::default()).unwrap();
        assert_eq!(before.ret, after.ret);
        assert_eq!(before.checksum, after.checksum);
        assert!(report.inlines > 0, "{report}");
        assert!(
            after.retired < before.retired,
            "expected speedup: {} -> {}",
            before.retired,
            after.retired
        );
    }

    #[test]
    fn budget_is_respected() {
        let mut p = hlo_frontc::compile(&[("interp", INTERP_SRC)]).unwrap();
        let opts = HloOptions {
            budget_percent: 100,
            ..Default::default()
        };
        let report = optimize(&mut p, None, &opts);
        // Allow slack for post-pass scalar optimization shrinking then
        // regrowing, but the order of magnitude must hold.
        assert!(
            report.final_cost <= report.budget_limit + report.initial_cost / 4,
            "{report}"
        );
    }

    #[test]
    fn profile_guided_beats_static_on_skewed_input() {
        let p0 = hlo_frontc::compile(&[("interp", INTERP_SRC)]).unwrap();
        let (db, _) = collect_profile(&p0, &[], &ExecOptions::default()).unwrap();

        let mut static_p = p0.clone();
        let tight = HloOptions {
            budget_percent: 30,
            ..Default::default()
        };
        let rs = optimize(&mut static_p, None, &tight);
        assert_eq!(rs.profile_annotations, 0);
        let mut pgo_p = p0.clone();
        let rg = optimize(&mut pgo_p, Some(&db), &tight);
        assert!(rg.profile_annotations >= 1, "{rg}");
        let s = run_program(&static_p, &[], &ExecOptions::default()).unwrap();
        let g = run_program(&pgo_p, &[], &ExecOptions::default()).unwrap();
        assert_eq!(s.ret, g.ret);
        // PGO should never be (much) worse dynamically.
        assert!(
            g.retired <= s.retired + s.retired / 10,
            "pgo {} vs static {}",
            g.retired,
            s.retired
        );
    }

    #[test]
    fn staged_indirect_promotion_across_passes() {
        // handler address flows through a dispatcher's parameter; pass 1
        // clones, constprop promotes, pass 2 inlines.
        let src = r#"
            static fn handler(x) { return x * 3 + 1; }
            fn dispatch(f, x) { return f(x); }
            fn main() {
                var s = 0;
                for (var i = 0; i < 100; i = i + 1) { s = s + dispatch(&handler, i); }
                return s;
            }
        "#;
        let p0 = hlo_frontc::compile(&[("m", src)]).unwrap();
        let before = run_program(&p0, &[], &ExecOptions::default()).unwrap();
        let mut p = p0.clone();
        let report = optimize(&mut p, None, &HloOptions::default());
        verify_program(&p).unwrap();
        let after = run_program(&p, &[], &ExecOptions::default()).unwrap();
        assert_eq!(before.ret, after.ret);
        assert!(report.clones >= 1, "{report}");
        assert!(after.retired < before.retired);
        // No indirect calls should remain on the hot path.
        let counts = hlo_analysis::classify_sites(&p);
        assert_eq!(counts.indirect, 0, "{counts:?}");
    }

    #[test]
    fn disabled_passes_do_nothing() {
        let mut p = hlo_frontc::compile(&[("interp", INTERP_SRC)]).unwrap();
        let opts = HloOptions {
            enable_inline: false,
            enable_clone: false,
            ..Default::default()
        };
        let report = optimize(&mut p, None, &opts);
        assert_eq!(report.inlines, 0);
        assert_eq!(report.clones, 0);
    }

    #[test]
    fn max_ops_limits_total_operations() {
        let mut p = hlo_frontc::compile(&[("interp", INTERP_SRC)]).unwrap();
        let opts = HloOptions {
            max_ops: Some(2),
            ..Default::default()
        };
        let report = optimize(&mut p, None, &opts);
        assert!(report.operations() <= 2, "{report}");
        verify_program(&p).unwrap();
    }

    #[test]
    fn within_module_scope_blocks_cross_module_inlining() {
        let a = "fn main() { var s = 0; for (var i = 0; i < 50; i = i + 1) { s = s + util(i); } return s; }";
        let b = "fn util(x) { return x * 2 + 1; }";
        let p0 = hlo_frontc::compile(&[("a", a), ("b", b)]).unwrap();
        let mut within = p0.clone();
        let rw = optimize(
            &mut within,
            None,
            &HloOptions {
                scope: Scope::WithinModule,
                ..Default::default()
            },
        );
        assert_eq!(rw.inlines, 0, "{rw}");
        let mut cross = p0.clone();
        let rc = optimize(&mut cross, None, &HloOptions::default());
        assert!(rc.inlines >= 1, "{rc}");
        // and the cross-module build is dynamically cheaper
        let w = run_program(&within, &[], &ExecOptions::default()).unwrap();
        let c = run_program(&cross, &[], &ExecOptions::default()).unwrap();
        assert_eq!(w.ret, c.ret);
        assert!(c.retired < w.retired);
    }

    #[test]
    fn fully_inlined_static_routines_are_deleted() {
        let src = r#"
            static fn once(x) { return x + 2; }
            fn main() { return once(40); }
        "#;
        // ipa off: the site is spliced by the inliner and the fully
        // inlined static callee is deleted (the original mechanism).
        let mut p = hlo_frontc::compile(&[("m", src)]).unwrap();
        let opts = HloOptions {
            ipa: false,
            ..Default::default()
        };
        let report = optimize(&mut p, None, &opts);
        assert!(report.inlines >= 1);
        assert!(report.deletions >= 1, "{report}");
        // module list no longer contains `once`
        let m = &p.modules[0];
        assert!(m.funcs.iter().all(|&f| p.func(f).name != "once"));

        // ipa on (the default): the specialized call folds to its constant
        // return before the inliner needs to splice it — the static callee
        // is deleted all the same and main is a bare constant return.
        let mut p = hlo_frontc::compile(&[("m", src)]).unwrap();
        let report = optimize(&mut p, None, &HloOptions::default());
        assert!(report.deletions >= 1, "{report}");
        assert!(
            report.inlines + report.ipa_const_folds >= 1,
            "either path must claim the site: {report}"
        );
        let m = &p.modules[0];
        assert!(m.funcs.iter().all(|&f| p.func(f).name != "once"));
        let main = p.entry.unwrap();
        assert_eq!(p.func(main).size(), 1, "{}", p.func(main));
    }

    #[test]
    fn recursive_pass_through_cloning_specializes_recursion() {
        // Paper §2.2: "cloning a recursive procedure with a pass-through
        // parameter ... might be difficult to do correctly in a single
        // pass". Multi-pass + clone database: pass 1 clones power(base=3),
        // constant propagation re-materializes base=3 at the clone's own
        // recursive call, pass 2 finds that site, hits the database, and
        // redirects it — the clone ends up calling itself.
        let src = r#"
            fn power(base, n) {
                if (n <= 0) { return 1; }
                return base * power(base, n - 1);
            }
            fn main() {
                var s = 0;
                for (var i = 0; i < 8; i = i + 1) { s = s + power(3, i); }
                return s;
            }
        "#;
        let p0 = hlo_frontc::compile(&[("m", src)]).unwrap();
        let expect = run_program(&p0, &[], &ExecOptions::default()).unwrap().ret;
        let mut p = p0.clone();
        let opts = HloOptions {
            enable_inline: false, // isolate the cloning story
            budget_percent: 400,
            ..Default::default()
        };
        let report = optimize(&mut p, None, &opts);
        verify_program(&p).unwrap();
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            expect
        );
        assert!(report.clones >= 1, "{report}");
        assert!(report.clone_replacements >= 2, "{report}");
        // The specialized clone must be self-recursive.
        let clone = p
            .iter_funcs()
            .find(|(_, f)| f.name.contains("clone"))
            .map(|(i, _)| i)
            .expect("clone exists");
        let cg = hlo_analysis::CallGraph::build(&p);
        let sccs = cg.sccs();
        assert!(
            cg.in_recursion(&sccs, clone),
            "clone should call itself after pass-through specialization"
        );
    }

    #[test]
    fn outlining_is_reported_and_preserves_semantics() {
        let src = r#"
            global errs;
            fn work(n, mode) {
                var s = 0;
                for (var i = 0; i < n; i = i + 1) {
                    if (mode == 77) {
                        errs = errs + 1;
                        var penalty = mode * 1000 + n + errs * 3;
                        return 0 - penalty;
                    }
                    s = s + i * 2 + 1;
                }
                return s;
            }
            fn main() {
                var a = 0;
                for (var r = 0; r < 300; r = r + 1) { a = a + work(20, 1); }
                return a * 1000 + work(5, 77);
            }
        "#;
        let p0 = hlo_frontc::compile(&[("m", src)]).unwrap();
        let expect = run_program(&p0, &[], &ExecOptions::default()).unwrap().ret;
        let (db, _) = collect_profile(&p0, &[], &ExecOptions::default()).unwrap();
        let mut p = p0.clone();
        let opts = HloOptions {
            enable_outline: true,
            ..Default::default()
        };
        let report = optimize(&mut p, Some(&db), &opts);
        verify_program(&p).unwrap();
        assert!(report.outlines >= 1, "{report}");
        assert_eq!(
            run_program(&p, &[], &ExecOptions::default()).unwrap().ret,
            expect
        );
    }

    #[test]
    fn report_tracks_passes() {
        let mut p = hlo_frontc::compile(&[("interp", INTERP_SRC)]).unwrap();
        let report = optimize(&mut p, None, &HloOptions::default());
        assert!(!report.passes.is_empty());
        assert_eq!(
            report.inlines,
            report.passes.iter().map(|q| q.inlines).sum::<u64>()
        );
    }

    #[test]
    fn any_job_count_produces_identical_output() {
        let p0 = hlo_frontc::compile(&[("interp", INTERP_SRC)]).unwrap();
        let mut base = p0.clone();
        let r1 = optimize(&mut base, None, &HloOptions::default());
        let base_text = hlo_ir::program_to_text(&base);
        for jobs in [2usize, 8] {
            let mut q = p0.clone();
            let r = optimize(
                &mut q,
                None,
                &HloOptions {
                    jobs,
                    ..Default::default()
                },
            );
            assert_eq!(base_text, hlo_ir::program_to_text(&q), "jobs={jobs}");
            assert_eq!(r.inlines, r1.inlines);
            assert_eq!(r.compile_time_units(), r1.compile_time_units());
            assert_eq!(r.operations(), r1.operations());
            assert_eq!(r.jobs, jobs as u64);
        }
        assert_eq!(r1.jobs, 1);
        assert!(!r1.stage_timings.is_empty());
        assert!(r1.stage_timings.iter().any(|s| s.stage == "cleanup"));
    }

    #[test]
    fn options_text_roundtrip() {
        let mut o = HloOptions {
            scope: Scope::WithinModule,
            budget_percent: 250,
            passes: 7,
            stage_fractions: vec![0.1, 0.5, 1.0],
            enable_inline: false,
            max_ops: Some(42),
            enable_outline: true,
            check: CheckLevel::Strict,
            jobs: 9,
            ..Default::default()
        };
        o.outline.cold_fraction = 0.125;
        let back = HloOptions::from_text(&o.to_text()).unwrap();
        assert_eq!(o, back);
        // Omitted keys keep defaults; unknown keys are rejected.
        assert_eq!(
            HloOptions::from_text("budget 30").unwrap().budget_percent,
            30
        );
        assert!(HloOptions::from_text("zzz 1").is_err());
        assert!(HloOptions::from_text("scope galaxy").is_err());
    }

    #[test]
    fn fingerprint_ignores_jobs_and_check_only() {
        let base = HloOptions::default();
        let mut same = base.clone();
        same.jobs = 16;
        same.check = CheckLevel::Strict;
        same.trace = TraceLevel::Decisions;
        assert_eq!(base.fingerprint(), same.fingerprint());
        let mut diff = base.clone();
        diff.budget_percent = 99;
        assert_ne!(base.fingerprint(), diff.fingerprint());
        let mut diff2 = base.clone();
        diff2.stage_fractions = vec![1.0];
        assert_ne!(base.fingerprint(), diff2.fingerprint());
    }

    #[test]
    fn traced_run_records_provenance_without_changing_output() {
        let p0 = hlo_frontc::compile(&[("interp", INTERP_SRC)]).unwrap();
        let opts = HloOptions {
            budget_percent: 30, // tight enough that some sites must defer
            ..Default::default()
        };
        let mut traced = p0.clone();
        let mut tracer = Tracer::new(TraceLevel::Decisions);
        let report = optimize_traced(&mut traced, None, &opts, &mut tracer);
        let mut plain = p0.clone();
        optimize(&mut plain, None, &opts);
        assert_eq!(
            hlo_ir::program_to_text(&traced),
            hlo_ir::program_to_text(&plain),
            "tracing must be pure observation"
        );
        let tree = tracer.span_tree_text();
        assert!(tree.starts_with("optimize\n"), "{tree}");
        assert!(tree.contains("pass0"), "{tree}");
        assert!(tree.contains("inline.plan"), "{tree}");
        let decisions = tracer.decision_report(None);
        assert!(
            decisions.contains("verdict=performed reason=accepted"),
            "{decisions}"
        );
        assert!(decisions.contains("reason=budget-deferred"), "{decisions}");
        // Stage timings now come from the tracer's leaves, same shape as
        // the old accumulator produced.
        assert!(report.stage_timings.iter().any(|s| s.stage == "cleanup"));
        assert!(report
            .stage_timings
            .iter()
            .any(|s| s.stage == "inline.plan"));
        // Metrics mirror the recorded decisions.
        assert!(tracer.metrics().expose().contains("decisions_total"));
    }

    /// Three modules with disjoint call graphs. Per-module scope keeps
    /// every public root alive, so the program has (at least) three live
    /// cache partitions.
    fn three_partition_modules() -> Vec<(&'static str, &'static str)> {
        vec![
            (
                "a",
                r#"
                static fn a_leaf(x) { return x * 2 + 1; }
                fn a_main() {
                    var s = 0;
                    for (var i = 0; i < 40; i = i + 1) { s = s + a_leaf(i); }
                    return s;
                }
                fn main() { return a_main(); }
                "#,
            ),
            (
                "b",
                r#"
                static fn b_leaf(k, x) { if (k == 1) { return x + 7; } return x; }
                fn b_main() {
                    var s = 0;
                    for (var i = 0; i < 30; i = i + 1) { s = s + b_leaf(1, i); }
                    return s;
                }
                "#,
            ),
            (
                "c",
                r#"
                static fn c_leaf(x) { return x * x; }
                fn c_main() {
                    var s = 0;
                    for (var i = 0; i < 20; i = i + 1) { s = s + c_leaf(i); }
                    return s;
                }
                "#,
            ),
        ]
    }

    fn module_opts() -> HloOptions {
        HloOptions {
            scope: Scope::WithinModule,
            ..Default::default()
        }
    }

    #[test]
    fn partial_reuse_splices_byte_identical_output() {
        let p0 = hlo_frontc::compile(&three_partition_modules()).unwrap();
        let opts = module_opts();
        let mut full = p0.clone();
        let out = optimize_partial(&mut full, None, &opts, None, &mut Tracer::disabled());
        assert!(out.log.rebuilt.iter().all(|&r| r));
        assert!(!out.log.globals_mutated);
        let nparts = out.log.partitions.len();
        assert!(nparts >= 3, "expected >= 3 partitions, got {nparts}");
        assert!(out.report.inlines >= 1, "{}", out.report);

        // Rebuild only the partition containing module b's functions and
        // splice the others from the finished build. The result must be
        // byte-identical at every job count.
        let target = p0.find_func("b", "b_main").unwrap();
        let full_text = hlo_ir::program_to_text(&full);
        for jobs in [1usize, 4, 8] {
            let plan: Vec<PartitionAction> = (0..nparts)
                .map(|pi| {
                    if out.log.partitions[pi].contains(&target) {
                        PartitionAction::Rebuild
                    } else {
                        PartitionAction::Reuse(extract_partition(&full, &out.log, pi))
                    }
                })
                .collect();
            let rebuilds = plan
                .iter()
                .filter(|a| matches!(a, PartitionAction::Rebuild))
                .count();
            assert!(rebuilds < nparts);
            let mut inc = p0.clone();
            let inc_opts = HloOptions {
                jobs,
                ..opts.clone()
            };
            let out2 = optimize_partial(
                &mut inc,
                None,
                &inc_opts,
                Some(&plan),
                &mut Tracer::disabled(),
            );
            assert_eq!(
                full_text,
                hlo_ir::program_to_text(&inc),
                "incremental output diverged at jobs={jobs}"
            );
            assert_eq!(
                out2.log.rebuilt.iter().filter(|&&r| r).count(),
                rebuilds,
                "only the planned partitions rebuild"
            );
            hlo_ir::verify_program(&inc).unwrap();
        }
    }

    #[test]
    fn partial_reuse_tracks_edited_function() {
        // Edit one function's body; splicing the *unedited* partitions
        // from the original build must reproduce the edited program's
        // from-scratch build byte for byte.
        let mut modules = three_partition_modules();
        let p0 = hlo_frontc::compile(&modules).unwrap();
        let opts = module_opts();
        let mut full0 = p0.clone();
        let out0 = optimize_partial(&mut full0, None, &opts, None, &mut Tracer::disabled());

        // The edit: module b's leaf gains a different constant.
        modules[1].1 = r#"
            static fn b_leaf(k, x) { if (k == 1) { return x + 9; } return x; }
            fn b_main() {
                var s = 0;
                for (var i = 0; i < 30; i = i + 1) { s = s + b_leaf(1, i); }
                return s;
            }
        "#;
        let p1 = hlo_frontc::compile(&modules).unwrap();
        let mut full1 = p1.clone();
        optimize_partial(&mut full1, None, &opts, None, &mut Tracer::disabled());

        let target = p1.find_func("b", "b_main").unwrap();
        let plan: Vec<PartitionAction> = (0..out0.log.partitions.len())
            .map(|pi| {
                if out0.log.partitions[pi].contains(&target) {
                    PartitionAction::Rebuild
                } else {
                    // Stale-by-id is fine: these cones are byte-identical
                    // between p0 and p1 (only module b changed).
                    PartitionAction::Reuse(extract_partition(&full0, &out0.log, pi))
                }
            })
            .collect();
        let mut inc = p1.clone();
        optimize_partial(&mut inc, None, &opts, Some(&plan), &mut Tracer::disabled());
        assert_eq!(
            hlo_ir::program_to_text(&full1),
            hlo_ir::program_to_text(&inc)
        );
    }

    #[test]
    fn zero_budget_partition_passes_bodies_through() {
        // Budget 0 closes every partition's budget: no pass runs anywhere,
        // so no inlining or cloning happens in any partition.
        let p0 = hlo_frontc::compile(&three_partition_modules()).unwrap();
        let mut p = p0.clone();
        let opts = HloOptions {
            budget_percent: 0,
            ..module_opts()
        };
        let report = optimize(&mut p, None, &opts);
        assert_eq!(report.inlines, 0, "{report}");
        assert_eq!(report.clones, 0);
        assert!(report.passes.is_empty());
        hlo_ir::verify_program(&p).unwrap();
    }

    #[test]
    fn small_batch_partitions_emit_decisions_in_partition_order() {
        // Three partitions at jobs=8 is below the pool's two-items-per-
        // worker floor, so planning falls back to the inline path; the
        // decision stream (the `--explain` output) must still come out in
        // partition order, identical to jobs=1.
        let p0 = hlo_frontc::compile(&three_partition_modules()).unwrap();
        let mut reports = Vec::new();
        for jobs in [1usize, 8] {
            let mut p = p0.clone();
            let opts = HloOptions {
                jobs,
                ..module_opts()
            };
            let mut tracer = Tracer::new(TraceLevel::Decisions);
            optimize_traced(&mut p, None, &opts, &mut tracer);
            reports.push((hlo_ir::program_to_text(&p), tracer.decision_report(None)));
        }
        assert_eq!(
            reports[0].0, reports[1].0,
            "program must not vary with jobs"
        );
        assert!(
            reports[0].1.contains("verdict=performed"),
            "expected decisions:\n{}",
            reports[0].1
        );
        assert_eq!(
            reports[0].1, reports[1].1,
            "decision order must not vary with jobs"
        );
    }

    #[test]
    fn strict_checking_is_deterministic_across_jobs() {
        let p0 = hlo_frontc::compile(&[("interp", INTERP_SRC)]).unwrap();
        let opts1 = HloOptions {
            check: CheckLevel::Strict,
            ..Default::default()
        };
        let mut a = p0.clone();
        let ra = optimize(&mut a, None, &opts1);
        let mut b = p0.clone();
        let rb = optimize(
            &mut b,
            None,
            &HloOptions {
                jobs: 4,
                ..opts1.clone()
            },
        );
        assert_eq!(hlo_ir::program_to_text(&a), hlo_ir::program_to_text(&b));
        assert_eq!(ra.diagnostics, rb.diagnostics);
        assert_eq!(ra.checks_run, rb.checks_run);
        assert_eq!(ra.introduced_diagnostics().count(), 0, "{ra}");
    }
}
