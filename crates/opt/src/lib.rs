#![warn(missing_docs)]
//! The scalar ("global", in the paper's terminology) optimizer.
//!
//! HLO's thesis is that inlining and cloning *enable* classic
//! optimizations by widening their scope; this crate supplies that classic
//! set, and the HLO driver (crate `hlo`) interleaves it with inline/clone
//! passes so each pass sees information sharpened by the previous one:
//!
//! * [`constprop`] — worklist dataflow constant propagation and folding
//!   over the virtual registers, with function addresses in the lattice;
//!   this is the pass that turns a cloned function-pointer parameter into
//!   a **direct** call, enabling the staged indirect-call promotion of
//!   paper §3.1.
//! * [`simplify_cfg`] — constant-branch folding, unreachable-block
//!   removal, jump threading, and straight-line block merging, maintaining
//!   profile annotations.
//! * [`copyprop`] — local copy propagation.
//! * [`cse`] — local common-subexpression elimination.
//! * [`dce`] — liveness-based dead-code elimination.
//! * [`memfwd`] — local store-to-load forwarding with conservative alias
//!   classes (frame slots / globals / unknown pointers).
//! * [`dead_slots`] — removal of write-only, non-escaping frame slots
//!   (the residue of inlined callee locals).
//! * [`pure_calls`] — removal of calls to interprocedurally
//!   side-effect-free routines whose results are unused (the paper's
//!   072.sc curses-stub deletions).
//! * [`xcall`] — summary-driven cross-call transformations
//!   (constant-return folding, store-to-load forwarding across calls,
//!   cross-call dead-store elimination), fed by `hlo-ipa`.
//! * [`straighten`] — profile-guided block reordering (intra-procedural
//!   code positioning after Pettis & Hansen): hot successors become
//!   fall-throughs, which the machine model rewards by eliding jumps to
//!   the next laid-out block.
//! * [`pipeline`] — fixed-point drivers over single functions and whole
//!   programs.

pub mod algebraic;
pub mod constprop;
pub mod copyprop;
pub mod cse;
pub mod dce;
pub mod dead_slots;
pub mod memfwd;
pub mod pipeline;
pub mod pure_calls;
pub mod simplify_cfg;
pub mod straighten;
pub mod xcall;

pub use pipeline::{
    optimize_function, optimize_function_checked, optimize_program, optimize_program_checked,
    OptStats,
};
pub use pure_calls::{
    eliminate_calls_where, eliminate_pure_calls, eliminate_pure_calls_with, PureCallRemoval,
    PureCallSite,
};
pub use xcall::{fold_const_returns, forward_across_calls, ConstRetFold, CrossCallStats};
