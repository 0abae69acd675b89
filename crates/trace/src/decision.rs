//! Decision provenance: why each call site was (or was not) transformed.

/// Which transformation family took the decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// An inline-pass decision (paper Figure 4).
    Inline,
    /// A clone-group decision (paper Figure 3).
    Clone,
    /// A cold-region outlining decision (paper §5).
    Outline,
    /// A pure-call elimination decision.
    PureCall,
}

impl std::fmt::Display for DecisionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DecisionKind::Inline => "inline",
            DecisionKind::Clone => "clone",
            DecisionKind::Outline => "outline",
            DecisionKind::PureCall => "pure-call",
        })
    }
}

/// The outcome of one decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The transformation was applied.
    Performed,
    /// The site is viable but did not fit the budget this pass; it may be
    /// reconsidered when a later stage releases more headroom.
    Deferred,
    /// The site was rejected outright (a legality/technical/pragmatic/user
    /// restriction — see the reason code).
    Rejected,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Performed => "performed",
            Verdict::Deferred => "deferred",
            Verdict::Rejected => "rejected",
        })
    }
}

/// One audited decision: everything needed to answer "why was this call
/// site inlined (or not), in which pass, at what budget level, and what
/// did it cost?".
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionEvent {
    /// Clone+Inline pass number (0-based; 0 for pre-pass stages such as
    /// outlining and input cleanup).
    pub pass: u32,
    /// Transformation family.
    pub kind: DecisionKind,
    /// The call site, as `caller@bBLOCK.iINST`.
    pub site: String,
    /// The callee (for outlining: the extracted routine).
    pub callee: String,
    /// The outcome.
    pub verdict: Verdict,
    /// Stable kebab-case reason code (`accepted`, `budget-deferred`,
    /// `arity-mismatch`, …). The full table lives in DESIGN.md §11.
    pub reason: &'static str,
    /// The figure of merit that ranked this decision (inline merit or
    /// clone-group benefit).
    pub benefit: f64,
    /// Compile-cost delta the decision would add (0 for rejections and
    /// free reuses).
    pub cost: u64,
    /// Budget headroom before the decision, in `Σ size²` units. For
    /// inline decisions this is the cache partition's remaining stage
    /// headroom; for clones the partition budget's running estimate.
    pub budget_before: u64,
    /// Budget headroom (or estimate) after the decision.
    pub budget_after: u64,
    /// Execution count of the site's block in the profile that drove the
    /// decision.
    pub profile_weight: f64,
}

impl DecisionEvent {
    /// One stable, sortable report line. Site first so the sorted report
    /// groups by location.
    pub fn line(&self) -> String {
        format!(
            "{site} -> {callee}: {kind} pass={pass} verdict={verdict} reason={reason} \
             benefit={benefit:.2} weight={weight:.2} cost={cost} budget={before}->{after}",
            site = self.site,
            callee = self.callee,
            kind = self.kind,
            pass = self.pass,
            verdict = self.verdict,
            reason = self.reason,
            benefit = self.benefit,
            weight = self.profile_weight,
            cost = self.cost,
            before = self.budget_before,
            after = self.budget_after,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_is_stable_and_complete() {
        let e = DecisionEvent {
            pass: 1,
            kind: DecisionKind::Inline,
            site: "main@b2.i0".to_string(),
            callee: "sq".to_string(),
            verdict: Verdict::Performed,
            reason: "accepted",
            benefit: 100.0,
            cost: 25,
            budget_before: 1200,
            budget_after: 1175,
            profile_weight: 100.0,
        };
        assert_eq!(
            e.line(),
            "main@b2.i0 -> sq: inline pass=1 verdict=performed reason=accepted \
             benefit=100.00 weight=100.00 cost=25 budget=1200->1175"
        );
    }
}
