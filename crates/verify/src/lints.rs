//! MIR lints: structured findings about the *source* program that are not
//! compiler bugs — dead computation, unreachable control flow, unused
//! state, header writes nothing observes, and replicated-state write
//! hazards (§4.3.3). All are [`Severity::Warning`]; the hard errors live
//! in [`crate::soundness`] and [`crate::resources`].

use crate::dataflow::{self, ReachingHeaderWrites};
use gallium_mir::{BlockId, Loc, Op, Program, StateId, Terminator, Ty, ValueId};
use gallium_partition::StagedProgram;
use std::collections::HashSet;
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not unsound; compilation proceeds.
    Warning,
    /// Unsound or unloadable; compilation must fail.
    Error,
}

impl Severity {
    /// Stable lowercase key.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// The specific pattern a lint fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintKind {
    /// A pure value no instruction or branch ever consumes.
    DeadInstruction,
    /// A basic block control flow can never reach.
    UnreachableBlock,
    /// A declared state object no instruction touches.
    UnusedState,
    /// A header-field write no later read, send, or checksum observes.
    WriteNeverRead,
    /// A replicated state object written from both the switch and the
    /// server — updates race unless write-back serializes them (§4.3.3).
    SharedStateWrite,
    /// One pipeline stage wants more SRAM than its equal share.
    StagePressure,
    /// Declared metadata exceeds the budget even though peak liveness
    /// fits (the allocator may still pack it).
    DeclaredMetadataPressure,
    /// A committed plan opcode no path from the traversal entry reaches.
    UnreachablePlanOp,
    /// A plan branch guard the abstract interpreter proves always-true
    /// or always-false.
    ConstantGuard,
    /// A plan branch target only reachable through a guard proven
    /// constant — the edge can never be taken.
    DeadBranch,
    /// A fused table-key word whose register is proven constant by
    /// known-bits/interval analysis (the key column is degenerate).
    ConstantKeyWord,
    /// A metadata slot the plan writes but nothing — no load, branch, or
    /// transfer header — ever observes.
    UnobservableMetaStore,
}

impl LintKind {
    /// Stable snake_case key (used in JSON output).
    pub fn key(self) -> &'static str {
        match self {
            LintKind::DeadInstruction => "dead_instruction",
            LintKind::UnreachableBlock => "unreachable_block",
            LintKind::UnusedState => "unused_state",
            LintKind::WriteNeverRead => "write_never_read",
            LintKind::SharedStateWrite => "shared_state_write",
            LintKind::StagePressure => "stage_pressure",
            LintKind::DeclaredMetadataPressure => "declared_metadata_pressure",
            LintKind::UnreachablePlanOp => "unreachable_plan_op",
            LintKind::ConstantGuard => "constant_guard",
            LintKind::DeadBranch => "dead_branch",
            LintKind::ConstantKeyWord => "constant_key_word",
            LintKind::UnobservableMetaStore => "unobservable_meta_store",
        }
    }
}

/// Where in the program a lint points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Span {
    /// A specific instruction.
    Inst(ValueId),
    /// A basic block.
    Block(BlockId),
    /// A declared state object, by name.
    State(String),
    /// The program as a whole.
    Program,
    /// One opcode of a compiled execution plan.
    PlanOp {
        /// Which traversal ("pre" or "post").
        traversal: &'static str,
        /// Opcode index in that traversal's stream.
        ip: u32,
    },
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Inst(v) => write!(f, "v{}", v.0),
            Span::Block(b) => write!(f, "b{}", b.0),
            Span::State(s) => write!(f, "state {s}"),
            Span::Program => write!(f, "program"),
            Span::PlanOp { traversal, ip } => write!(f, "{traversal} op #{ip}"),
        }
    }
}

/// One structured finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lint {
    /// Which pattern fired.
    pub kind: LintKind,
    /// How bad it is.
    pub severity: Severity,
    /// Where it points.
    pub span: Span,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} at {}: {}",
            self.severity.label(),
            self.kind.key(),
            self.span,
            self.message
        )
    }
}

fn dead_instructions(prog: &Program, out: &mut Vec<Lint>) {
    let f = &prog.func;
    let mut used: HashSet<ValueId> = HashSet::new();
    for inst in &f.insts {
        used.extend(inst.op.uses());
    }
    for b in &f.blocks {
        if let Terminator::Branch { cond, .. } = &b.term {
            used.insert(*cond);
        }
    }
    for (i, inst) in f.insts.iter().enumerate() {
        let v = ValueId(i as u32);
        if inst.op.is_pure() && inst.ty != Ty::Unit && !used.contains(&v) {
            out.push(Lint {
                kind: LintKind::DeadInstruction,
                severity: Severity::Warning,
                span: Span::Inst(v),
                message: format!(
                    "pure value {} is never used by any instruction or branch",
                    gallium_mir::printer::print_inst(prog, v)
                ),
            });
        }
    }
}

fn unreachable_blocks(prog: &Program, out: &mut Vec<Lint>) {
    let f = &prog.func;
    let mut seen: HashSet<BlockId> = HashSet::new();
    let mut stack = vec![f.entry];
    while let Some(b) = stack.pop() {
        if seen.insert(b) {
            stack.extend(f.block(b).term.successors());
        }
    }
    for b in &f.blocks {
        if !seen.contains(&b.id) {
            out.push(Lint {
                kind: LintKind::UnreachableBlock,
                severity: Severity::Warning,
                span: Span::Block(b.id),
                message: format!("block b{} is unreachable from the entry", b.id.0),
            });
        }
    }
}

fn unused_states(prog: &Program, out: &mut Vec<Lint>) {
    for (s, st) in prog.states.iter().enumerate() {
        let sid = StateId(s as u32);
        let touched = prog
            .func
            .insts
            .iter()
            .any(|i| i.op.states_touched().contains(&sid));
        if !touched {
            out.push(Lint {
                kind: LintKind::UnusedState,
                severity: Severity::Warning,
                span: Span::State(st.name.clone()),
                message: format!("state object '{}' is declared but never accessed", st.name),
            });
        }
    }
}

/// Header writes nothing downstream observes: run reaching-definitions
/// over header fields, then replay each block marking every reaching
/// writer observed at each header read (`send` and `update_checksum` read
/// all fields).
fn writes_never_read(prog: &Program, out: &mut Vec<Lint>) {
    let f = &prog.func;
    let solution = dataflow::solve(f, &ReachingHeaderWrites);
    let mut observed: HashSet<ValueId> = HashSet::new();
    for b in &f.blocks {
        let mut fact = solution.entry[b.id.0 as usize].clone();
        for &v in &b.insts {
            let op = &f.inst(v).op;
            for loc in op.reads() {
                if let Loc::Header(field) = loc {
                    if let Some(writers) = fact.get(&field) {
                        observed.extend(writers.iter().copied());
                    }
                }
            }
            if let Op::WriteField { field, .. } = op {
                fact.insert(*field, HashSet::from([v]));
            }
        }
    }
    for (i, inst) in f.insts.iter().enumerate() {
        let v = ValueId(i as u32);
        if let Op::WriteField { field, .. } = &inst.op {
            if !observed.contains(&v) {
                out.push(Lint {
                    kind: LintKind::WriteNeverRead,
                    severity: Severity::Warning,
                    span: Span::Inst(v),
                    message: format!(
                        "write to header field {field:?} is never observed by a read, send, or checksum"
                    ),
                });
            }
        }
    }
}

fn shared_state_writes(staged: &StagedProgram, out: &mut Vec<Lint>) {
    let prog = &staged.prog;
    for (s, st) in prog.states.iter().enumerate() {
        let sid = StateId(s as u32);
        let mut switch_writer = false;
        let mut server_writer = false;
        for (v, part) in staged.assignment.iter().enumerate() {
            if prog.func.insts[v].op.writes().contains(&Loc::State(sid)) {
                if part.on_switch() {
                    switch_writer = true;
                } else {
                    server_writer = true;
                }
            }
        }
        if switch_writer && server_writer {
            out.push(Lint {
                kind: LintKind::SharedStateWrite,
                severity: Severity::Warning,
                span: Span::State(st.name.clone()),
                message: format!(
                    "state object '{}' is written from both the switch and the server; \
                     updates only serialize through write-back (§4.3.3)",
                    st.name
                ),
            });
        }
    }
}

/// Run every MIR lint over a staged program.
pub(crate) fn run(staged: &StagedProgram) -> Vec<Lint> {
    let mut out = Vec::new();
    dead_instructions(&staged.prog, &mut out);
    unreachable_blocks(&staged.prog, &mut out);
    unused_states(&staged.prog, &mut out);
    writes_never_read(&staged.prog, &mut out);
    shared_state_writes(staged, &mut out);
    out
}
