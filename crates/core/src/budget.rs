//! The compile-time budget and its staging (paper §2.2, Figure 2).

/// Tracks the compile-time cost estimate `C = Σ size(R)²` against the
/// budget `B = C₀ · (1 + β/100)`, apportioned across passes so "not all of
/// the budget is used up in the first pass".
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    initial: u64,
    limit: u64,
    current: u64,
    stages: Vec<u64>,
}

impl Budget {
    /// Creates a budget from the initial cost, the growth percentage
    /// (the paper's default is 100; Figure 8 sweeps 25–1000) and the
    /// cumulative per-pass fractions (e.g. `[0.25, 0.5, 0.75, 1.0]`).
    ///
    /// # Panics
    /// Panics if `stage_fractions` is empty.
    pub fn new(initial_cost: u64, budget_percent: u64, stage_fractions: &[f64]) -> Self {
        assert!(
            !stage_fractions.is_empty(),
            "at least one budget stage is required"
        );
        let headroom = (initial_cost as f64) * (budget_percent as f64 / 100.0);
        let limit = initial_cost + headroom as u64;
        let stages = stage_fractions
            .iter()
            .map(|f| initial_cost + (headroom * f.clamp(0.0, 1.0)) as u64)
            .collect();
        Budget {
            initial: initial_cost,
            limit,
            current: initial_cost,
            stages,
        }
    }

    /// Cost when optimization started.
    pub fn initial(&self) -> u64 {
        self.initial
    }

    /// The overall ceiling `B`.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// The ceiling for pass `p` (clamped to the last stage).
    pub fn stage_limit(&self, pass: usize) -> u64 {
        self.stages[pass.min(self.stages.len() - 1)]
    }

    /// Current cost estimate `C`.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// True while `C < B` — the driver's loop condition.
    pub fn open(&self) -> bool {
        self.current < self.limit
    }

    /// Whether adding `delta` keeps `C` within the stage ceiling for
    /// `pass`.
    pub fn fits(&self, pass: usize, delta: u64) -> bool {
        self.current.saturating_add(delta) <= self.stage_limit(pass)
    }

    /// Records `delta` of new cost.
    pub fn charge(&mut self, delta: u64) {
        self.current = self.current.saturating_add(delta);
    }

    /// Replaces the running estimate with a freshly measured cost (the
    /// driver recalibrates from real sizes after each pass, as the paper's
    /// "optimize and recalibrate" steps do).
    pub fn recalibrate(&mut self, measured: u64) {
        self.current = measured;
    }
}

/// The hierarchical budget: one independent [`Budget`] per cache
/// partition, each sized from that partition's own share of the program
/// cost. The driver optimizes partitions one at a time against their own
/// budget, so a partition's plan is a pure function of its members — the
/// precondition for function-grain result reuse.
///
/// Every partition gets the same growth *percentage*, so headroom is
/// proportional to partition cost and the per-partition limits sum to
/// (within integer truncation of) the whole-program limit.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetSet {
    budgets: Vec<Budget>,
}

impl BudgetSet {
    /// One budget per partition: `costs[i]` is partition `i`'s current
    /// compile cost `Σ size(R)²` over its members. Percentage and stage
    /// fractions are shared — the split depends only on each partition's
    /// own cost, never on visit order.
    pub fn new(costs: &[u64], budget_percent: u64, stage_fractions: &[f64]) -> Self {
        BudgetSet {
            budgets: costs
                .iter()
                .map(|&c| Budget::new(c, budget_percent, stage_fractions))
                .collect(),
        }
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.budgets.len()
    }

    /// True when there are no partitions.
    pub fn is_empty(&self) -> bool {
        self.budgets.is_empty()
    }

    /// Partition `i`'s budget.
    pub fn get(&self, i: usize) -> &Budget {
        &self.budgets[i]
    }

    /// Partition `i`'s budget, mutable.
    pub fn get_mut(&mut self, i: usize) -> &mut Budget {
        &mut self.budgets[i]
    }

    /// Sum of the per-partition ceilings — the hierarchical analogue of
    /// the whole-program `B` reported to the user.
    pub fn total_limit(&self) -> u64 {
        self.budgets.iter().map(|b| b.limit()).sum()
    }

    /// Sum of the per-partition initial costs.
    pub fn total_initial(&self) -> u64 {
        self.budgets.iter().map(|b| b.initial()).sum()
    }

    /// Sum of the per-partition current estimates.
    pub fn total_current(&self) -> u64 {
        self.budgets.iter().map(|b| b.current()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_doubles_cost() {
        let b = Budget::new(1000, 100, &[0.25, 0.5, 0.75, 1.0]);
        assert_eq!(b.limit(), 2000);
        assert_eq!(b.stage_limit(0), 1250);
        assert_eq!(b.stage_limit(3), 2000);
        assert_eq!(b.stage_limit(9), 2000); // clamped
    }

    #[test]
    fn fits_respects_stage_not_total() {
        let mut b = Budget::new(1000, 100, &[0.2, 1.0]);
        assert!(b.fits(0, 200));
        assert!(!b.fits(0, 201));
        assert!(b.fits(1, 1000));
        b.charge(200);
        assert!(!b.fits(0, 1));
        assert!(b.fits(1, 800));
    }

    #[test]
    fn open_tracks_limit() {
        let mut b = Budget::new(100, 50, &[1.0]);
        assert!(b.open());
        b.charge(50);
        assert!(!b.open());
    }

    #[test]
    fn recalibrate_replaces_estimate() {
        let mut b = Budget::new(100, 100, &[1.0]);
        b.charge(75);
        b.recalibrate(120);
        assert_eq!(b.current(), 120);
        assert!(b.open());
    }

    #[test]
    fn zero_percent_budget_blocks_everything() {
        let b = Budget::new(100, 0, &[1.0]);
        assert!(!b.open());
        assert!(!b.fits(0, 1));
        assert!(b.fits(0, 0));
    }

    #[test]
    #[should_panic(expected = "at least one budget stage")]
    fn empty_stages_panic() {
        let _ = Budget::new(1, 1, &[]);
    }

    /// Per-partition headroom is `cost_i · β/100` truncated, so the sum of
    /// partition limits equals the whole-program limit up to one unit of
    /// truncation per partition — and exactly when costs divide evenly.
    #[test]
    fn partition_shares_sum_to_global_budget() {
        let costs = [1000u64, 2500, 400, 100];
        let set = BudgetSet::new(&costs, 100, &[0.25, 0.5, 0.75, 1.0]);
        let total: u64 = costs.iter().sum();
        let global = Budget::new(total, 100, &[0.25, 0.5, 0.75, 1.0]);
        // β=100 doubles every cost exactly: no truncation anywhere.
        assert_eq!(set.total_limit(), global.limit());
        assert_eq!(set.total_initial(), total);
        // A non-integral β may truncate per partition, but never by more
        // than one unit each.
        let set33 = BudgetSet::new(&costs, 33, &[1.0]);
        let global33 = Budget::new(total, 33, &[1.0]);
        assert!(set33.total_limit() <= global33.limit());
        assert!(set33.total_limit() + costs.len() as u64 > global33.limit());
    }

    /// Each partition's budget is a pure function of its own cost: permuting
    /// the partition order permutes the budgets and nothing else.
    #[test]
    fn partition_shares_independent_of_visit_order() {
        let costs = [700u64, 50, 1300, 9, 9];
        let fractions = [0.25, 0.5, 0.75, 1.0];
        let forward = BudgetSet::new(&costs, 150, &fractions);
        let mut rev = costs;
        rev.reverse();
        let backward = BudgetSet::new(&rev, 150, &fractions);
        for i in 0..costs.len() {
            assert_eq!(forward.get(i), backward.get(costs.len() - 1 - i));
        }
        assert_eq!(forward.total_limit(), backward.total_limit());
    }

    /// A partition with zero headroom admits no growth at any stage.
    #[test]
    fn zero_budget_partition_is_closed() {
        let set = BudgetSet::new(&[500, 0], 100, &[0.5, 1.0]);
        let empty = set.get(1);
        assert!(!empty.open());
        assert!(empty.fits(0, 0));
        assert!(!empty.fits(1, 1));
        // The sibling partition is unaffected.
        assert!(set.get(0).open());
        assert!(set.get(0).fits(0, 250));
    }
}
