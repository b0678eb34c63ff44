//! Symbolic validation of the compiled dataplane: translation validation
//! plus abstract-interpretation lints over the `ExecPlan` micro-op IR.
//!
//! [`verify_plan`] is the load-time story told offline, for both
//! compiler configurations at once: it compiles the P4 program to a
//! **fused** and an **unfused** plan, runs the symbolic translation
//! validator ([`gallium_switchsim::symcheck`]) on each — proving the
//! committed micro-op streams equal to the AST node by node, or
//! returning the first diverging term as a typed error — and then runs
//! the interval + known-bits abstract interpreter ([`crate::absint`])
//! over the fused plan to produce structured lints:
//!
//! * [`LintKind::UnreachablePlanOp`] — a committed opcode no path from
//!   the traversal entry reaches;
//! * [`LintKind::ConstantGuard`] — a branch guard proven always-true or
//!   always-false by the abstraction (the compiler folds guards it can
//!   prove *syntactically*; the abstraction also sees slot ranges);
//! * [`LintKind::DeadBranch`] — the untaken side of such a guard;
//! * [`LintKind::ConstantKeyWord`] — a fused table-key word whose
//!   register is proven constant (the key column is degenerate);
//! * [`LintKind::UnobservableMetaStore`] — a written metadata slot
//!   nothing in the plan (or the transfer header) ever observes.
//!
//! Everything here is build/CI-time tooling; the warm path never runs it.

use crate::absint::{self, AbsState, AbsVal, PlanAbs};
use crate::lints::{Lint, LintKind, Severity, Span};
use gallium_p4::P4Program;
use gallium_switchsim::{check_plan, ExecPlan, OpView, PlanOptions, PlanView, SymCheckError};
use gallium_telemetry::names;
use std::collections::HashSet;
use std::fmt;

/// A hard plan-verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanVerifyError {
    /// The plan compiler itself rejected the program.
    Build {
        /// Whether the fused configuration failed.
        fused: bool,
        /// The compiler's reason.
        reason: String,
    },
    /// The compiled plan is not provably equal to the AST.
    Equivalence {
        /// Whether the fused configuration diverged.
        fused: bool,
        /// The first diverging term, typed.
        error: SymCheckError,
    },
}

impl fmt::Display for PlanVerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanVerifyError::Build { fused, reason } => {
                write!(
                    f,
                    "{} plan failed to build: {reason}",
                    if *fused { "fused" } else { "unfused" }
                )
            }
            PlanVerifyError::Equivalence { fused, error } => {
                write!(
                    f,
                    "{} plan ≢ AST: {error}",
                    if *fused { "fused" } else { "unfused" }
                )
            }
        }
    }
}

impl std::error::Error for PlanVerifyError {}

/// The outcome of symbolic plan validation for one program.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// Program name.
    pub program: String,
    /// Hard failures (empty when both plans are proven).
    pub errors: Vec<PlanVerifyError>,
    /// Abstract-interpretation lints over the fused plan.
    pub lints: Vec<Lint>,
    /// Nodes proven equivalent across both configurations.
    pub proved_nodes: usize,
    /// Symbolic terms materialized by the proofs.
    pub terms: usize,
}

impl PlanReport {
    /// Both configurations proven (lints may still be present).
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// Render the outcome as text.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan-verify: {} — {} ({} nodes proved, {} terms, {} errors, {} lints)",
            self.program,
            if self.is_clean() { "ok" } else { "FAILED" },
            self.proved_nodes,
            self.terms,
            self.errors.len(),
            self.lints.len()
        );
        for e in &self.errors {
            let _ = writeln!(out, "  error: {e}");
        }
        for l in &self.lints {
            let _ = writeln!(out, "  {l}");
        }
        out
    }
}

/// Symbolically validate the compiled plan(s) for `prog`: prove fused
/// and unfused plans ≡ AST, then lint the fused plan with the abstract
/// interpreter. Timed under `gallium.verify.plan.*`.
pub fn verify_plan(prog: &P4Program) -> PlanReport {
    let reg = gallium_telemetry::global();
    let _whole = reg.histogram(names::VERIFY_PLAN_NS).time();
    reg.counter(names::VERIFY_PLAN_RUNS).inc();

    let mut errors = Vec::new();
    let mut lints = Vec::new();
    let mut proved_nodes = 0usize;
    let mut terms = 0usize;
    let mut fused_plan = None;
    {
        let _t = reg.histogram(names::VERIFY_PLAN_SYMCHECK_NS).time();
        for fuse in [true, false] {
            match ExecPlan::build_with(prog, PlanOptions { fuse }) {
                Ok(plan) => {
                    match check_plan(prog, &plan) {
                        Ok(proof) => {
                            proved_nodes += proof.nodes;
                            terms += proof.terms;
                        }
                        Err(error) => {
                            errors.push(PlanVerifyError::Equivalence { fused: fuse, error })
                        }
                    }
                    if fuse {
                        fused_plan = Some(plan);
                    }
                }
                Err(e) => errors.push(PlanVerifyError::Build {
                    fused: fuse,
                    reason: e.to_string(),
                }),
            }
        }
    }
    if let Some(plan) = &fused_plan {
        let _t = reg.histogram(names::VERIFY_PLAN_ABSINT_NS).time();
        lints.extend(lint_plan(&plan.view(), prog));
    }

    reg.counter(names::VERIFY_PLAN_ERRORS)
        .add(errors.len() as u64);
    reg.counter(names::VERIFY_PLAN_LINTS)
        .add(lints.len() as u64);
    if errors.is_empty() {
        reg.counter(names::VERIFY_PLAN_PROVED).inc();
    }
    PlanReport {
        program: prog.name.clone(),
        errors,
        lints,
        proved_nodes,
        terms,
    }
}

/// Run the abstract-interpretation lints over a compiled plan view.
pub fn lint_plan(view: &PlanView, prog: &P4Program) -> Vec<Lint> {
    let mut out = Vec::new();
    let slot_bits = |slot: u16| -> u16 {
        view.slot_names
            .get(usize::from(slot))
            .and_then(|n| prog.metadata.iter().find(|m| &m.name == n))
            .map(|m| m.bits.min(64))
            .unwrap_or(64)
    };
    for (tv, traversal, entry_slots) in [
        (
            &view.pre,
            "pre",
            // The metadata scratch is zeroed per packet; every slot
            // enters the pre traversal as the constant 0.
            vec![AbsVal::cnst(0); view.n_slots],
        ),
        (&view.post, "post", {
            // Post entry: transfer-carried slots hold anything their
            // declared width admits; the rest of the scratch is zeroed.
            let mut slots = vec![AbsVal::cnst(0); view.n_slots];
            for s in &view.from_server_slots {
                if let Some(v) = slots.get_mut(usize::from(*s)) {
                    *v = AbsVal::of_width(slot_bits(*s));
                }
            }
            slots
        }),
    ] {
        let analysis = PlanAbs::new(tv, view.n_slots, view.n_regs, entry_slots);
        let sol = absint::analyze(&analysis);
        lint_traversal(view, tv, traversal, &sol.input, &mut out);
    }
    out
}

fn lint_traversal(
    view: &PlanView,
    tv: &gallium_switchsim::TraversalView,
    traversal: &'static str,
    inputs: &[AbsState],
    out: &mut Vec<Lint>,
) {
    let slot_name = |slot: u16| -> String {
        view.slot_names
            .get(usize::from(slot))
            .filter(|n| !n.is_empty())
            .cloned()
            .unwrap_or_else(|| format!("slot#{slot}"))
    };
    // Flow-insensitive observability: a slot is observable if any opcode
    // loads it, branches on it, or it rides the transfer header.
    let mut observed: HashSet<u16> = view.to_server_slots.iter().copied().collect();
    let mut written: HashSet<u16> = HashSet::new();
    for op in &tv.ops {
        let (run, stores) = match op {
            OpView::Eval { run, stores }
            | OpView::SetHeader { run, stores, .. }
            | OpView::RegWrite { run, stores, .. }
            | OpView::BuildKeyProbe { run, stores, .. }
            | OpView::RegFetchAdd { run, stores, .. }
            | OpView::Branch { run, stores, .. } => (run.as_slice(), stores.as_slice()),
            _ => (&[][..], &[][..]),
        };
        for m in run {
            if let gallium_switchsim::MicroOp::LoadMeta { slot, .. } = m {
                observed.insert(*slot);
            }
        }
        for st in stores {
            written.insert(st.slot);
        }
        match op {
            OpView::Branch {
                src: gallium_switchsim::CondSrc::Slot(s),
                ..
            } => {
                observed.insert(*s);
            }
            OpView::BuildKeyProbe { hit_slot, vals, .. } => {
                written.insert(*hit_slot);
                written.extend(vals.iter().copied());
            }
            OpView::RegRead { dst, .. } | OpView::RegFetchAdd { dst, .. } => {
                written.insert(*dst);
            }
            _ => {}
        }
    }
    for (ip, op) in tv.ops.iter().enumerate() {
        let input = &inputs[ip];
        if !input.is_reachable() {
            out.push(Lint {
                kind: LintKind::UnreachablePlanOp,
                severity: Severity::Warning,
                span: Span::PlanOp {
                    traversal,
                    ip: ip as u32,
                },
                message: format!("{traversal} opcode #{ip} is unreachable from the entry"),
            });
            continue;
        }
        if let OpView::Branch {
            then_ip, else_ip, ..
        } = op
        {
            if let Some(cond) = absint::branch_cond(tv, ip, input) {
                let (verdict, dead) = if cond.is_nonzero() {
                    (Some("always true"), *else_ip)
                } else if cond.is_zero() {
                    (Some("always false"), *then_ip)
                } else {
                    (None, 0)
                };
                if let Some(v) = verdict {
                    out.push(Lint {
                        kind: LintKind::ConstantGuard,
                        severity: Severity::Warning,
                        span: Span::PlanOp {
                            traversal,
                            ip: ip as u32,
                        },
                        message: format!(
                            "branch guard at {traversal} opcode #{ip} is {v} \
                             (range [{}, {}])",
                            cond.lo, cond.hi
                        ),
                    });
                    out.push(Lint {
                        kind: LintKind::DeadBranch,
                        severity: Severity::Warning,
                        span: Span::PlanOp {
                            traversal,
                            ip: dead,
                        },
                        message: format!(
                            "{traversal} branch target #{dead} is dead: its guard at \
                             opcode #{ip} is {v}"
                        ),
                    });
                }
            }
        }
        if let OpView::BuildKeyProbe { keys, table, .. } = op {
            if let Some(abs) = absint::probe_keys(tv, ip, input) {
                for (k, (kv, ka)) in keys.iter().zip(abs.iter()).enumerate() {
                    if matches!(kv, gallium_switchsim::ValRef::Reg(_)) {
                        if let Some(c) = ka.as_const() {
                            out.push(Lint {
                                kind: LintKind::ConstantKeyWord,
                                severity: Severity::Warning,
                                span: Span::PlanOp {
                                    traversal,
                                    ip: ip as u32,
                                },
                                message: format!(
                                    "key word {k} of table #{table} probe at {traversal} \
                                     opcode #{ip} is provably the constant {c:#x}; the \
                                     key column is degenerate"
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
    let mut written: Vec<u16> = written.into_iter().collect();
    written.sort_unstable();
    for slot in written {
        if !observed.contains(&slot) {
            out.push(Lint {
                kind: LintKind::UnobservableMetaStore,
                severity: Severity::Warning,
                span: Span::PlanOp { traversal, ip: 0 },
                message: format!(
                    "metadata slot `{}` is written in the {traversal} traversal but \
                     never loaded, branched on, or transferred",
                    slot_name(slot)
                ),
            });
        }
    }
}
