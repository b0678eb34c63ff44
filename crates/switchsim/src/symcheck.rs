//! Symbolic translation validation for the compiled execution plan.
//!
//! [`check_plan`] proves, per loaded program, that the micro-op streams
//! the expression compiler committed are semantically equal to the P4 AST
//! they were lowered from — the Gauntlet-style answer to "is this
//! optimizing compiler correct on *this* program", run at `Switch::load`
//! time instead of relying only on randomized differential tests.
//!
//! The proof is per node, mirroring the compiler's own scope (CSE and
//! register lifetimes never cross a node). Both sides of each node are
//! evaluated over a shared hash-consed term pool:
//!
//! * the **AST side** executes the node's [`P4Stmt`]s symbolically,
//!   applying exactly the interpreter's semantics (`SetMeta` masks to the
//!   declared width, `RegWrite` masks to the register width, `RegFetchAdd`
//!   deltas stay unmasked, `BinOp::eval` at width 64);
//! * the **plan side** executes the committed [`PlanOp`]/[`MOp`] streams
//!   symbolically over a virtual register file, reading every pool range
//!   through checked accessors so even a corrupt plan can never panic.
//!
//! The term pool normalizes through the *same* rules the compiler uses —
//! constant folding via `BinOp::eval(_, _, 64)`, the identical-operand and
//! one-constant identity tables, commutative const-right canonicalization,
//! and significant-bits-based mask elision — so a faithful compilation
//! yields structurally identical terms by construction, and every
//! divergence is a real semantic difference. Per node the validator
//! compares:
//!
//! 1. the ordered **effect lists** (header writes, table probes, register
//!    ops, checksum refreshes, emits, drops, foreign-work markers), with
//!    non-deterministic results (table hits/values, register reads)
//!    modeled as position-indexed oracle terms;
//! 2. the **exit**: jump/branch targets and the symbolic branch condition,
//!    accepting a constant-folded branch as a jump to the proven side;
//! 3. the **observable metadata stores**: every slot the reader analysis
//!    pins (read by another node or packed into a transfer header) must
//!    hold equal terms — which justifies (or rejects) each dead-store
//!    elision individually.
//!
//! Any divergence is reported as a typed [`SymCheckError`] naming the
//! traversal, node, opcode index, and the first diverging term.

use crate::plan::{
    const_bits, scan_reads, BranchSrc, ExecPlan, ExprVal, Interner, MOp, MetaReaders, PlanOp,
    PoolRef, TraversalPlan,
};
use gallium_mir::interp::hash_values;
use gallium_mir::types::mask_to_width;
use gallium_mir::{BinOp, HeaderField};
use gallium_p4::{BlockNode, NodeNext, P4Expr, P4Program, P4Stmt};
use std::collections::HashMap;

/// A translation-validation failure: the compiled plan and the P4 AST
/// provably diverge (or the plan is structurally unsound). Every variant
/// names the traversal and node; stream-level variants also carry the
/// opcode index and the first diverging term, rendered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymCheckError {
    /// The node's effect sequences diverge at `index`.
    EffectMismatch {
        /// Which traversal ("pre" or "post").
        traversal: &'static str,
        /// The diverging node.
        node: usize,
        /// Opcode index of the diverging plan op.
        ip: u32,
        /// Position in the node's effect sequence.
        index: usize,
        /// The AST-side effect, rendered.
        expected: String,
        /// The plan-side effect, rendered.
        got: String,
    },
    /// One side performs more externally visible effects than the other.
    EffectCountMismatch {
        /// Which traversal ("pre" or "post").
        traversal: &'static str,
        /// The diverging node.
        node: usize,
        /// AST-side effect count.
        expected: usize,
        /// Plan-side effect count.
        got: usize,
    },
    /// The node's control-flow exits diverge (target or condition).
    ExitMismatch {
        /// Which traversal ("pre" or "post").
        traversal: &'static str,
        /// The diverging node.
        node: usize,
        /// The AST-side exit, rendered.
        expected: String,
        /// The plan-side exit, rendered.
        got: String,
    },
    /// An observable metadata slot ends the node with diverging values.
    StoreMismatch {
        /// Which traversal ("pre" or "post").
        traversal: &'static str,
        /// The diverging node.
        node: usize,
        /// The metadata field name.
        slot: String,
        /// The AST-side term, rendered.
        expected: String,
        /// The plan-side term, rendered.
        got: String,
    },
    /// The AST writes an observable slot the plan never stores.
    MissingStore {
        /// Which traversal ("pre" or "post").
        traversal: &'static str,
        /// The diverging node.
        node: usize,
        /// The metadata field name.
        slot: String,
    },
    /// The plan stores an observable slot the AST never writes.
    SpuriousStore {
        /// Which traversal ("pre" or "post").
        traversal: &'static str,
        /// The diverging node.
        node: usize,
        /// The metadata field name.
        slot: String,
        /// The plan-side term, rendered.
        got: String,
    },
    /// A micro-op reads a register no earlier op in the node defined.
    UndefinedRead {
        /// Which traversal ("pre" or "post").
        traversal: &'static str,
        /// The node with the undefined read.
        node: usize,
        /// Opcode index of the reading op.
        ip: u32,
    },
    /// The plan is structurally unsound (out-of-range pool reference,
    /// missing terminator, control op before the node end).
    Malformed {
        /// Which traversal ("pre" or "post").
        traversal: &'static str,
        /// The malformed node.
        node: usize,
        /// Opcode index, or `u32::MAX` when no single op is at fault.
        ip: u32,
        /// What was malformed.
        detail: &'static str,
    },
}

impl std::fmt::Display for SymCheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymCheckError::EffectMismatch {
                traversal,
                node,
                ip,
                index,
                expected,
                got,
            } => write!(
                f,
                "{traversal} node #{node} op #{ip}: effect {index} diverges: \
                 expected {expected}, compiled plan does {got}"
            ),
            SymCheckError::EffectCountMismatch {
                traversal,
                node,
                expected,
                got,
            } => write!(
                f,
                "{traversal} node #{node}: AST performs {expected} effects, \
                 compiled plan performs {got}"
            ),
            SymCheckError::ExitMismatch {
                traversal,
                node,
                expected,
                got,
            } => write!(
                f,
                "{traversal} node #{node}: exit diverges: expected {expected}, \
                 compiled plan exits via {got}"
            ),
            SymCheckError::StoreMismatch {
                traversal,
                node,
                slot,
                expected,
                got,
            } => write!(
                f,
                "{traversal} node #{node}: observable slot `{slot}` diverges: \
                 expected {expected}, compiled plan stores {got}"
            ),
            SymCheckError::MissingStore {
                traversal,
                node,
                slot,
            } => write!(
                f,
                "{traversal} node #{node}: observable slot `{slot}` is written \
                 by the AST but never stored by the compiled plan"
            ),
            SymCheckError::SpuriousStore {
                traversal,
                node,
                slot,
                got,
            } => write!(
                f,
                "{traversal} node #{node}: compiled plan stores {got} into \
                 slot `{slot}`, which the AST never writes"
            ),
            SymCheckError::UndefinedRead {
                traversal,
                node,
                ip,
            } => write!(
                f,
                "{traversal} node #{node} op #{ip}: micro-op reads an \
                 undefined register"
            ),
            SymCheckError::Malformed {
                traversal,
                node,
                ip,
                detail,
            } => write!(f, "{traversal} node #{node} op #{ip}: {detail}"),
        }
    }
}

impl std::error::Error for SymCheckError {}

/// Summary of a successful proof (telemetry / reporting).
#[derive(Debug, Clone, Copy, Default)]
pub struct SymProof {
    /// Nodes proven equivalent across both traversals.
    pub nodes: usize,
    /// Total hash-consed terms materialized during the proof.
    pub terms: usize,
}

/// A hash-consed symbolic term. `Header` carries a version counter so a
/// header write (or checksum refresh) invalidates earlier loads, exactly
/// like the compiler dropping its header CSE entries; `Oracle` stands for
/// one output of a non-deterministic effect (table hit flags and values,
/// register reads), indexed by the effect's position in the node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Term {
    Const(u64),
    MetaIn(u16),
    Header(HeaderField, u32),
    Ingress,
    Bin(BinOp, TermId, TermId),
    Not(TermId),
    Mask(TermId, u8),
    Hash(Vec<TermId>, u8),
    Oracle(u32, u16),
}

type TermId = u32;

/// Hash-consing pool. Interning applies the compiler's exact
/// normalization rules, so two expressions that the compiler would lower
/// to the same micro-op sequence intern to the same id.
#[derive(Default)]
struct TermPool {
    terms: Vec<Term>,
    /// Conservative significant-bit bound per term, mirroring the
    /// compiler's per-register `bits` vector rule for rule.
    bits: Vec<u8>,
    map: HashMap<Term, TermId>,
}

impl TermPool {
    fn intern(&mut self, t: Term, bits: u8) -> TermId {
        if let Some(&id) = self.map.get(&t) {
            return id;
        }
        let id = self.terms.len() as TermId;
        self.terms.push(t.clone());
        self.bits.push(bits.min(64));
        self.map.insert(t, id);
        id
    }

    fn term(&self, id: TermId) -> &Term {
        &self.terms[id as usize]
    }

    fn as_const(&self, id: TermId) -> Option<u64> {
        match self.term(id) {
            Term::Const(c) => Some(*c),
            _ => None,
        }
    }

    fn cnst(&mut self, c: u64) -> TermId {
        self.intern(Term::Const(c), const_bits(c))
    }

    fn meta_in(&mut self, slot: u16) -> TermId {
        // Slot contents are not guaranteed masked to the declared width
        // (table values and register reads land unmasked) — 64 bits,
        // matching the compiler's `LoadMeta` bound.
        self.intern(Term::MetaIn(slot), 64)
    }

    fn header(&mut self, field: HeaderField, version: u32) -> TermId {
        self.intern(Term::Header(field, version), field.bits())
    }

    fn ingress(&mut self) -> TermId {
        self.intern(Term::Ingress, 16)
    }

    fn oracle(&mut self, seq: u32, out: u16) -> TermId {
        self.intern(Term::Oracle(seq, out), 64)
    }

    /// Mirror of the compiler's `bin_bits`, computed after
    /// canonicalization.
    fn bin_bits(&self, op: BinOp, a: TermId, b: TermId) -> u8 {
        let (ab, bb) = (self.bits[a as usize], self.bits[b as usize]);
        match op {
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 1,
            BinOp::And => ab.min(bb),
            BinOp::Or | BinOp::Xor => ab.max(bb),
            BinOp::Add => (ab.max(bb) + 1).min(64),
            BinOp::Sub => 64,
            BinOp::Mul => (ab + bb).min(64),
            BinOp::Div => ab,
            BinOp::Mod => ab.min(bb),
            BinOp::Shl => match self.as_const(b) {
                Some(c) if c < 64 => (ab + c as u8).min(64),
                Some(_) => 0,
                None => 64,
            },
            BinOp::Shr => match self.as_const(b) {
                Some(c) if c < 64 => ab.saturating_sub(c as u8),
                Some(_) => 0,
                None => ab,
            },
        }
    }

    /// Mirror of the compiler's `bin`: fold, apply identities, then
    /// canonicalize and intern. Hash-consing makes id equality coincide
    /// with the compiler's resolved-operand equality, so the `x op x`
    /// identities fire in exactly the same cases.
    fn bin(&mut self, op: BinOp, a: TermId, b: TermId) -> TermId {
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.cnst(op.eval(x, y, 64));
        }
        if a == b {
            match op {
                BinOp::Sub | BinOp::Xor | BinOp::Ne | BinOp::Lt | BinOp::Gt | BinOp::Mod => {
                    return self.cnst(0)
                }
                BinOp::Eq | BinOp::Le | BinOp::Ge => return self.cnst(1),
                BinOp::And | BinOp::Or => return a,
                _ => {}
            }
        }
        let (ca, cb) = (self.as_const(a), self.as_const(b));
        let ident = match (op, ca, cb) {
            (BinOp::And, _, Some(0)) | (BinOp::And, Some(0), _) => Some(Err(0)),
            (BinOp::And, None, Some(u64::MAX)) => Some(Ok(a)),
            (BinOp::And, Some(u64::MAX), None) => Some(Ok(b)),
            (BinOp::Or, None, Some(0)) => Some(Ok(a)),
            (BinOp::Or, Some(0), None) => Some(Ok(b)),
            (BinOp::Or, _, Some(u64::MAX)) | (BinOp::Or, Some(u64::MAX), _) => Some(Err(u64::MAX)),
            (BinOp::Xor, None, Some(0)) => Some(Ok(a)),
            (BinOp::Xor, Some(0), None) => Some(Ok(b)),
            (BinOp::Add, None, Some(0)) => Some(Ok(a)),
            (BinOp::Add, Some(0), None) => Some(Ok(b)),
            (BinOp::Sub, None, Some(0)) => Some(Ok(a)),
            (BinOp::Mul, _, Some(0)) | (BinOp::Mul, Some(0), _) => Some(Err(0)),
            (BinOp::Mul, None, Some(1)) => Some(Ok(a)),
            (BinOp::Mul, Some(1), None) => Some(Ok(b)),
            (BinOp::Shl | BinOp::Shr, None, Some(0)) => Some(Ok(a)),
            (BinOp::Shl | BinOp::Shr, _, Some(c)) if c >= 64 => Some(Err(0)),
            (BinOp::Div | BinOp::Mod, _, Some(0)) => Some(Err(0)),
            (BinOp::Div, None, Some(1)) => Some(Ok(a)),
            (BinOp::Mod, _, Some(1)) => Some(Err(0)),
            (BinOp::Div | BinOp::Mod, Some(0), _) => Some(Err(0)),
            _ => None,
        };
        match ident {
            Some(Ok(t)) => return t,
            Some(Err(c)) => return self.cnst(c),
            None => {}
        }
        let commutative = matches!(
            op,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Eq | BinOp::Ne
        );
        let (a, b) = if commutative && ca.is_some() {
            (b, a)
        } else {
            (a, b)
        };
        let bits = self.bin_bits(op, a, b);
        self.intern(Term::Bin(op, a, b), bits)
    }

    fn not(&mut self, a: TermId) -> TermId {
        match self.as_const(a) {
            Some(c) => self.cnst(!c),
            None => self.intern(Term::Not(a), 64),
        }
    }

    /// Mirror of the compiler's `masked`: pass through at full width, fold
    /// constants, elide when the significant bits provably fit.
    fn mask(&mut self, a: TermId, width: u8) -> TermId {
        if width >= 64 {
            return a;
        }
        if let Some(c) = self.as_const(a) {
            return self.cnst(mask_to_width(c, width));
        }
        if self.bits[a as usize] <= width {
            return a;
        }
        self.intern(Term::Mask(a, width), width)
    }

    fn hash(&mut self, args: Vec<TermId>, width: u8) -> TermId {
        if args.iter().all(|a| self.as_const(*a).is_some()) {
            let ins: Vec<u64> = args.iter().map(|a| self.as_const(*a).unwrap()).collect();
            return self.cnst(hash_values(&ins, width));
        }
        self.intern(Term::Hash(args, width), width.min(64))
    }

    fn render(&self, id: TermId) -> String {
        match self.term(id) {
            Term::Const(c) => format!("{c:#x}"),
            Term::MetaIn(s) => format!("meta[{s}]"),
            Term::Header(f, v) => format!("{f:?}@v{v}"),
            Term::Ingress => "ingress".to_string(),
            Term::Bin(op, a, b) => {
                format!("({} {op:?} {})", self.render(*a), self.render(*b))
            }
            Term::Not(a) => format!("!{}", self.render(*a)),
            Term::Mask(a, w) => format!("mask{w}({})", self.render(*a)),
            Term::Hash(args, w) => {
                let parts: Vec<String> = args.iter().map(|a| self.render(*a)).collect();
                format!("hash{w}({})", parts.join(", "))
            }
            Term::Oracle(seq, out) => format!("oracle#{seq}.{out}"),
        }
    }
}

/// One externally visible action of a node, in order. Oracle outputs are
/// bound to the effect's position, so two sides with equal effect
/// prefixes agree on every oracle term.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Effect {
    SetHeader {
        field: HeaderField,
        val: TermId,
    },
    Probe {
        table: u16,
        keys: Vec<TermId>,
        hit_slot: u16,
        val_slots: Vec<u16>,
    },
    RegRead {
        reg: u16,
        dst_slot: u16,
    },
    RegWrite {
        reg: u16,
        val: TermId,
    },
    RegFetchAdd {
        reg: u16,
        width: u8,
        dst_slot: u16,
        delta: TermId,
    },
    UpdateChecksum,
    EmitCopy,
    MarkDrop,
    Foreign,
}

fn render_effect(pool: &TermPool, e: &Effect) -> String {
    match e {
        Effect::SetHeader { field, val } => {
            format!("set-header {field:?} = {}", pool.render(*val))
        }
        Effect::Probe {
            table,
            keys,
            hit_slot,
            val_slots,
        } => {
            let parts: Vec<String> = keys.iter().map(|k| pool.render(*k)).collect();
            format!(
                "probe table#{table} keys [{}] hit->slot {hit_slot} vals->{val_slots:?}",
                parts.join(", ")
            )
        }
        Effect::RegRead { reg, dst_slot } => format!("reg-read r{reg} -> slot {dst_slot}"),
        Effect::RegWrite { reg, val } => format!("reg-write r{reg} = {}", pool.render(*val)),
        Effect::RegFetchAdd {
            reg,
            width,
            dst_slot,
            delta,
        } => format!(
            "reg-fetch-add r{reg} (w{width}) += {} old->slot {dst_slot}",
            pool.render(*delta)
        ),
        Effect::UpdateChecksum => "update-checksum".to_string(),
        Effect::EmitCopy => "emit-copy".to_string(),
        Effect::MarkDrop => "mark-drop".to_string(),
        Effect::Foreign => "foreign".to_string(),
    }
}

/// How a node leaves, with targets resolved to opcode addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Exit {
    Jump(u32),
    Branch {
        cond: TermId,
        then_ip: u32,
        else_ip: u32,
    },
    Halt,
}

fn render_exit(pool: &TermPool, e: &Exit) -> String {
    match e {
        Exit::Jump(ip) => format!("jump @{ip}"),
        Exit::Branch {
            cond,
            then_ip,
            else_ip,
        } => format!(
            "branch on {} then @{then_ip} else @{else_ip}",
            pool.render(*cond)
        ),
        Exit::Halt => "halt".to_string(),
    }
}

/// Per-side symbolic node state: written metadata slots, header-field
/// versions, the ordered effect list, and the exit.
#[derive(Default)]
struct SideState {
    meta: HashMap<u16, TermId>,
    hver: HashMap<HeaderField, u32>,
    hver_base: u32,
    next_ver: u32,
    effects: Vec<Effect>,
    /// Plan side: opcode index that produced each effect (AST side keeps
    /// `u32::MAX`), for error reporting.
    effect_ips: Vec<u32>,
    exit: Option<Exit>,
}

impl SideState {
    fn version(&self, f: HeaderField) -> u32 {
        self.hver.get(&f).copied().unwrap_or(self.hver_base)
    }

    fn write_header(&mut self, f: HeaderField) {
        self.next_ver += 1;
        self.hver.insert(f, self.next_ver);
    }

    /// The checksum refresh rewrites the IP checksum field; invalidate
    /// every cached header load, mirroring the compiler dropping all
    /// `Header` CSE entries.
    fn write_all_headers(&mut self) {
        self.next_ver += 1;
        self.hver.clear();
        self.hver_base = self.next_ver;
    }

    fn meta_term(&mut self, pool: &mut TermPool, slot: u16) -> TermId {
        match self.meta.get(&slot) {
            Some(t) => *t,
            None => pool.meta_in(slot),
        }
    }

    fn push_effect(&mut self, e: Effect, ip: u32) -> u32 {
        let seq = self.effects.len() as u32;
        self.effects.push(e);
        self.effect_ips.push(ip);
        seq
    }

    /// Bind the oracle outputs of the effect just pushed.
    fn probe_results(&mut self, pool: &mut TermPool, seq: u32, hit_slot: u16, val_slots: &[u16]) {
        let hit = pool.oracle(seq, 0);
        self.meta.insert(hit_slot, hit);
        for (j, s) in val_slots.iter().enumerate() {
            let v = pool.oracle(seq, 1 + j as u16);
            self.meta.insert(*s, v);
        }
    }

    fn oracle_into(&mut self, pool: &mut TermPool, seq: u32, slot: u16) {
        let t = pool.oracle(seq, 0);
        self.meta.insert(slot, t);
    }
}

/// Everything the per-node proof needs about the surrounding program.
struct NodeCheck<'a> {
    traversal: &'static str,
    node: usize,
    is_pre: bool,
    meta_bits: &'a HashMap<&'a str, u16>,
    reg_widths: &'a [u8],
    n_regs: usize,
    tp: &'a TraversalPlan,
}

impl<'a> NodeCheck<'a> {
    fn malformed(&self, ip: u32, detail: &'static str) -> SymCheckError {
        SymCheckError::Malformed {
            traversal: self.traversal,
            node: self.node,
            ip,
            detail,
        }
    }

    fn width_of(&self, name: &str) -> u8 {
        self.meta_bits.get(name).copied().unwrap_or(64).min(64) as u8
    }

    fn reg_width(&self, reg: usize) -> u8 {
        self.reg_widths.get(reg).copied().unwrap_or(64)
    }

    /// Execute the node's statements over the AST, symbolically.
    fn run_ast(
        &self,
        node: &BlockNode,
        pool: &mut TermPool,
        interner: &mut Interner,
    ) -> Result<SideState, SymCheckError> {
        let mut side = SideState::default();
        if self.is_pre && node.has_foreign_work {
            side.push_effect(Effect::Foreign, u32::MAX);
        }
        for stmt in &node.stmts {
            match stmt {
                P4Stmt::SetMeta(name, e) => {
                    let raw = self.eval(e, pool, interner, &mut side);
                    let val = pool.mask(raw, self.width_of(name));
                    side.meta.insert(interner.slot(name), val);
                }
                P4Stmt::SetHeader(f, e) => {
                    let raw = self.eval(e, pool, interner, &mut side);
                    let val = pool.mask(raw, f.bits());
                    side.push_effect(Effect::SetHeader { field: *f, val }, u32::MAX);
                    side.write_header(*f);
                }
                P4Stmt::TableLookup {
                    table,
                    keys,
                    hit_meta,
                    value_metas,
                } => {
                    let kterms: Vec<TermId> = keys
                        .iter()
                        .map(|k| self.eval(k, pool, interner, &mut side))
                        .collect();
                    let hit_slot = interner.slot(hit_meta);
                    let val_slots: Vec<u16> =
                        value_metas.iter().map(|m| interner.slot(m)).collect();
                    let seq = side.push_effect(
                        Effect::Probe {
                            table: *table as u16,
                            keys: kterms,
                            hit_slot,
                            val_slots: val_slots.clone(),
                        },
                        u32::MAX,
                    );
                    side.probe_results(pool, seq, hit_slot, &val_slots);
                }
                P4Stmt::RegRead { reg, dst } => {
                    let dst_slot = interner.slot(dst);
                    let seq = side.push_effect(
                        Effect::RegRead {
                            reg: *reg as u16,
                            dst_slot,
                        },
                        u32::MAX,
                    );
                    side.oracle_into(pool, seq, dst_slot);
                }
                P4Stmt::RegWrite { reg, src } => {
                    let raw = self.eval(src, pool, interner, &mut side);
                    let val = pool.mask(raw, self.reg_width(*reg));
                    side.push_effect(
                        Effect::RegWrite {
                            reg: *reg as u16,
                            val,
                        },
                        u32::MAX,
                    );
                }
                P4Stmt::RegFetchAdd { reg, dst, delta } => {
                    // The delta is deliberately unmasked — the runtime
                    // masks after the add, and the old value lands in
                    // `dst` unmasked.
                    let d = self.eval(delta, pool, interner, &mut side);
                    let dst_slot = interner.slot(dst);
                    let seq = side.push_effect(
                        Effect::RegFetchAdd {
                            reg: *reg as u16,
                            width: self.reg_width(*reg),
                            dst_slot,
                            delta: d,
                        },
                        u32::MAX,
                    );
                    side.oracle_into(pool, seq, dst_slot);
                }
                P4Stmt::UpdateChecksum => {
                    side.push_effect(Effect::UpdateChecksum, u32::MAX);
                    side.write_all_headers();
                }
                P4Stmt::EmitCopy => {
                    side.push_effect(Effect::EmitCopy, u32::MAX);
                }
                P4Stmt::MarkDrop => {
                    side.push_effect(Effect::MarkDrop, u32::MAX);
                }
            }
        }
        let node_ip = |n: usize| -> Result<u32, SymCheckError> {
            self.tp
                .node_ips
                .get(n)
                .copied()
                .ok_or_else(|| self.malformed(u32::MAX, "control target past the node table"))
        };
        side.exit = Some(match &node.next {
            NodeNext::Jump(t) => Exit::Jump(node_ip(*t)?),
            NodeNext::Cond {
                meta,
                then_n,
                else_n,
            } => {
                let slot = interner.slot(meta);
                let cond = side.meta_term(pool, slot);
                Exit::Branch {
                    cond,
                    then_ip: node_ip(*then_n)?,
                    else_ip: node_ip(*else_n)?,
                }
            }
            NodeNext::SkipJoin {
                join,
                skipped_has_foreign,
            } => {
                if self.is_pre && *skipped_has_foreign {
                    side.push_effect(Effect::Foreign, u32::MAX);
                }
                match join {
                    Some(j) => Exit::Jump(node_ip(*j)?),
                    None => Exit::Halt,
                }
            }
            NodeNext::End => Exit::Halt,
        });
        Ok(side)
    }

    /// Evaluate one P4 expression symbolically with the interpreter's
    /// exact semantics.
    fn eval(
        &self,
        e: &P4Expr,
        pool: &mut TermPool,
        interner: &mut Interner,
        side: &mut SideState,
    ) -> TermId {
        match e {
            P4Expr::Const(v, _) => pool.cnst(*v),
            P4Expr::Meta(n) => {
                let slot = interner.slot(n);
                side.meta_term(pool, slot)
            }
            P4Expr::Header(f) => pool.header(*f, side.version(*f)),
            P4Expr::IngressPort => pool.ingress(),
            P4Expr::Bin(op, a, b) => {
                let ta = self.eval(a, pool, interner, side);
                let tb = self.eval(b, pool, interner, side);
                pool.bin(*op, ta, tb)
            }
            P4Expr::Not(a) => {
                let ta = self.eval(a, pool, interner, side);
                pool.not(ta)
            }
            P4Expr::Cast(a, w) => {
                let ta = self.eval(a, pool, interner, side);
                pool.mask(ta, *w)
            }
            P4Expr::Hash(parts, w) => {
                let args: Vec<TermId> = parts
                    .iter()
                    .map(|p| self.eval(p, pool, interner, side))
                    .collect();
                pool.hash(args, *w)
            }
        }
    }

    /// Execute the node's committed opcode range symbolically. Every pool
    /// access is checked: a corrupt plan yields a typed error, never a
    /// panic.
    fn run_plan(
        &self,
        start: usize,
        end: usize,
        pool: &mut TermPool,
    ) -> Result<SideState, SymCheckError> {
        let mut side = SideState::default();
        let mut regs: Vec<Option<TermId>> = vec![None; self.n_regs];
        let mut ip = start;
        while ip < end {
            let aip = ip as u32;
            let op = self
                .tp
                .ops
                .get(ip)
                .ok_or_else(|| self.malformed(aip, "node range past the opcode stream"))?;
            let mut exit: Option<Exit> = None;
            match op {
                PlanOp::Eval { run, stores } => {
                    self.sym_run(aip, *run, pool, &mut side, &mut regs)?;
                    self.sym_stores(aip, *stores, pool, &mut side, &regs)?;
                }
                PlanOp::SetHeader {
                    run,
                    stores,
                    field,
                    out,
                } => {
                    self.sym_run(aip, *run, pool, &mut side, &mut regs)?;
                    self.sym_stores(aip, *stores, pool, &mut side, &regs)?;
                    let val = self.val_term(aip, *out, pool, &regs)?;
                    side.push_effect(Effect::SetHeader { field: *field, val }, aip);
                    side.write_header(*field);
                }
                PlanOp::BuildKeyProbe {
                    run,
                    stores,
                    table,
                    keys,
                    hit_slot,
                    vals,
                } => {
                    self.sym_run(aip, *run, pool, &mut side, &mut regs)?;
                    self.sym_stores(aip, *stores, pool, &mut side, &regs)?;
                    let kvals = self
                        .tp
                        .keys
                        .get(keys.range())
                        .ok_or_else(|| self.malformed(aip, "key range past the pool"))?;
                    let mut kterms = Vec::with_capacity(kvals.len());
                    for k in kvals {
                        kterms.push(self.val_term(aip, *k, pool, &regs)?);
                    }
                    let val_slots = self
                        .tp
                        .value_slots
                        .get(vals.range())
                        .ok_or_else(|| self.malformed(aip, "value-slot range past the pool"))?
                        .to_vec();
                    let seq = side.push_effect(
                        Effect::Probe {
                            table: *table,
                            keys: kterms,
                            hit_slot: *hit_slot,
                            val_slots: val_slots.clone(),
                        },
                        aip,
                    );
                    side.probe_results(pool, seq, *hit_slot, &val_slots);
                }
                PlanOp::RegRead { reg, dst } => {
                    let seq = side.push_effect(
                        Effect::RegRead {
                            reg: *reg,
                            dst_slot: *dst,
                        },
                        aip,
                    );
                    side.oracle_into(pool, seq, *dst);
                }
                PlanOp::RegWrite {
                    run,
                    stores,
                    reg,
                    out,
                } => {
                    self.sym_run(aip, *run, pool, &mut side, &mut regs)?;
                    self.sym_stores(aip, *stores, pool, &mut side, &regs)?;
                    let val = self.val_term(aip, *out, pool, &regs)?;
                    side.push_effect(Effect::RegWrite { reg: *reg, val }, aip);
                }
                PlanOp::RegFetchAdd {
                    run,
                    stores,
                    reg,
                    width,
                    dst,
                    out,
                } => {
                    self.sym_run(aip, *run, pool, &mut side, &mut regs)?;
                    self.sym_stores(aip, *stores, pool, &mut side, &regs)?;
                    let delta = self.val_term(aip, *out, pool, &regs)?;
                    let seq = side.push_effect(
                        Effect::RegFetchAdd {
                            reg: *reg,
                            width: *width,
                            dst_slot: *dst,
                            delta,
                        },
                        aip,
                    );
                    side.oracle_into(pool, seq, *dst);
                }
                PlanOp::UpdateChecksum => {
                    side.push_effect(Effect::UpdateChecksum, aip);
                    side.write_all_headers();
                }
                PlanOp::EmitCopy => {
                    side.push_effect(Effect::EmitCopy, aip);
                }
                PlanOp::MarkDrop => {
                    side.push_effect(Effect::MarkDrop, aip);
                }
                PlanOp::Foreign => {
                    side.push_effect(Effect::Foreign, aip);
                }
                PlanOp::Jump(t) => exit = Some(Exit::Jump(*t)),
                PlanOp::Branch {
                    run,
                    stores,
                    src,
                    then_ip,
                    else_ip,
                } => {
                    self.sym_run(aip, *run, pool, &mut side, &mut regs)?;
                    self.sym_stores(aip, *stores, pool, &mut side, &regs)?;
                    let cond = match src {
                        BranchSrc::Reg(r) => self.reg_term(aip, *r, &regs)?,
                        BranchSrc::Slot(s) => side.meta_term(pool, *s),
                    };
                    exit = Some(Exit::Branch {
                        cond,
                        then_ip: *then_ip,
                        else_ip: *else_ip,
                    });
                }
                PlanOp::Halt => exit = Some(Exit::Halt),
            }
            if let Some(e) = exit {
                if ip + 1 != end {
                    return Err(self.malformed(aip, "control op before the node end"));
                }
                side.exit = Some(e);
            }
            ip += 1;
        }
        if side.exit.is_none() {
            return Err(self.malformed(end.saturating_sub(1) as u32, "node has no terminator"));
        }
        Ok(side)
    }

    fn reg_term(&self, ip: u32, r: u16, regs: &[Option<TermId>]) -> Result<TermId, SymCheckError> {
        regs.get(usize::from(r))
            .copied()
            .flatten()
            .ok_or(SymCheckError::UndefinedRead {
                traversal: self.traversal,
                node: self.node,
                ip,
            })
    }

    fn val_term(
        &self,
        ip: u32,
        v: ExprVal,
        pool: &mut TermPool,
        regs: &[Option<TermId>],
    ) -> Result<TermId, SymCheckError> {
        match v {
            ExprVal::Const(c) => Ok(pool.cnst(c)),
            ExprVal::Reg(r) => self.reg_term(ip, r, regs),
        }
    }

    fn sym_run(
        &self,
        ip: u32,
        run: PoolRef,
        pool: &mut TermPool,
        side: &mut SideState,
        regs: &mut [Option<TermId>],
    ) -> Result<(), SymCheckError> {
        let ops = self
            .tp
            .micro
            .get(run.range())
            .ok_or_else(|| self.malformed(ip, "micro-op range past the pool"))?;
        for m in ops {
            let (dst, t) = match *m {
                MOp::LoadMeta { dst, slot } => (dst, side.meta_term(pool, slot)),
                MOp::LoadHeader { dst, field } => (dst, pool.header(field, side.version(field))),
                MOp::LoadIngress { dst } => (dst, pool.ingress()),
                MOp::BinRR { op, dst, a, b } => {
                    let ta = self.reg_term(ip, a, regs)?;
                    let tb = self.reg_term(ip, b, regs)?;
                    (dst, pool.bin(op, ta, tb))
                }
                MOp::BinRI { op, dst, a, imm } => {
                    let ta = self.reg_term(ip, a, regs)?;
                    let ti = pool.cnst(imm);
                    (dst, pool.bin(op, ta, ti))
                }
                MOp::BinIR { op, dst, imm, b } => {
                    let ti = pool.cnst(imm);
                    let tb = self.reg_term(ip, b, regs)?;
                    (dst, pool.bin(op, ti, tb))
                }
                MOp::NotR { dst, a } => {
                    let ta = self.reg_term(ip, a, regs)?;
                    (dst, pool.not(ta))
                }
                MOp::MaskR { dst, a, width } => {
                    let ta = self.reg_term(ip, a, regs)?;
                    (dst, pool.mask(ta, width))
                }
                MOp::Hash {
                    dst,
                    args_start,
                    args_len,
                    width,
                } => {
                    let hr = PoolRef {
                        start: args_start,
                        len: args_len,
                    };
                    let avals = self
                        .tp
                        .hash_args
                        .get(hr.range())
                        .ok_or_else(|| self.malformed(ip, "hash-arg range past the pool"))?;
                    let mut args = Vec::with_capacity(avals.len());
                    for v in avals {
                        args.push(self.val_term(ip, *v, pool, regs)?);
                    }
                    (dst, pool.hash(args, width))
                }
            };
            *regs
                .get_mut(usize::from(dst))
                .ok_or_else(|| self.malformed(ip, "micro-op register past the file"))? = Some(t);
        }
        Ok(())
    }

    fn sym_stores(
        &self,
        ip: u32,
        stores: PoolRef,
        pool: &mut TermPool,
        side: &mut SideState,
        regs: &[Option<TermId>],
    ) -> Result<(), SymCheckError> {
        let sts = self
            .tp
            .stores
            .get(stores.range())
            .ok_or_else(|| self.malformed(ip, "store range past the pool"))?;
        for st in sts {
            let t = self.val_term(ip, st.src, pool, regs)?;
            side.meta.insert(st.slot, t);
        }
        Ok(())
    }
}

/// Prove one traversal node-by-node.
#[allow(clippy::too_many_arguments)]
fn check_traversal(
    nodes: &[BlockNode],
    is_pre: bool,
    traversal: &'static str,
    tp: &TraversalPlan,
    external: &[u16],
    plan: &ExecPlan,
    meta_bits: &HashMap<&str, u16>,
    reg_widths: &[u8],
    proof: &mut SymProof,
) -> Result<(), SymCheckError> {
    // Recompute the reader analysis against the final interned slot space
    // — the independent justification for every dead-store elision.
    let mut interner = Interner {
        slots: plan.slots.clone(),
    };
    let readers = scan_reads(nodes, &mut interner, external);
    let slot_names: Vec<String> = {
        let mut names = vec![String::new(); interner.slots.len()];
        for (name, slot) in &interner.slots {
            if let Some(n) = names.get_mut(usize::from(*slot)) {
                *n = name.clone();
            }
        }
        names
    };
    if tp.node_ips.len() != nodes.len() {
        return Err(SymCheckError::Malformed {
            traversal,
            node: 0,
            ip: u32::MAX,
            detail: "node address table does not match the declared nodes",
        });
    }
    for (i, node) in nodes.iter().enumerate() {
        let start = tp.node_ips[i] as usize;
        let end = match tp.node_ips.get(i + 1) {
            Some(n) => *n as usize,
            None => tp.ops.len(),
        };
        let ck = NodeCheck {
            traversal,
            node: i,
            is_pre,
            meta_bits,
            reg_widths,
            n_regs: plan.n_regs,
            tp,
        };
        if start > end || end > tp.ops.len() {
            return Err(ck.malformed(u32::MAX, "node address table is not monotone"));
        }
        let mut pool = TermPool::default();
        let ast = ck.run_ast(node, &mut pool, &mut interner)?;
        let plan_side = ck.run_plan(start, end, &mut pool)?;
        compare_node(&ck, &readers, &slot_names, &pool, &ast, &plan_side)?;
        proof.nodes += 1;
        proof.terms += pool.terms.len();
    }
    Ok(())
}

fn compare_node(
    ck: &NodeCheck<'_>,
    readers: &MetaReaders,
    slot_names: &[String],
    pool: &TermPool,
    ast: &SideState,
    plan: &SideState,
) -> Result<(), SymCheckError> {
    // 1. Ordered effects — first divergence wins.
    let common = ast.effects.len().min(plan.effects.len());
    for j in 0..common {
        if ast.effects[j] != plan.effects[j] {
            return Err(SymCheckError::EffectMismatch {
                traversal: ck.traversal,
                node: ck.node,
                ip: plan.effect_ips[j],
                index: j,
                expected: render_effect(pool, &ast.effects[j]),
                got: render_effect(pool, &plan.effects[j]),
            });
        }
    }
    if ast.effects.len() != plan.effects.len() {
        return Err(SymCheckError::EffectCountMismatch {
            traversal: ck.traversal,
            node: ck.node,
            expected: ast.effects.len(),
            got: plan.effects.len(),
        });
    }
    // 2. Exit. A branch on a constant is provably a jump to the taken
    // side — the justification for the compiler's branch folding.
    let a_exit = ast.exit.as_ref().expect("AST exit always set");
    let p_exit = plan.exit.as_ref().expect("plan exit checked");
    let exit_ok = match (p_exit, a_exit) {
        (Exit::Jump(p), Exit::Jump(a)) => p == a,
        (
            Exit::Jump(p),
            Exit::Branch {
                cond,
                then_ip,
                else_ip,
            },
        ) => match pool.as_const(*cond) {
            Some(c) => *p == if c != 0 { *then_ip } else { *else_ip },
            None => false,
        },
        (
            Exit::Branch {
                cond: pc,
                then_ip: pt,
                else_ip: pe,
            },
            Exit::Branch {
                cond: ac,
                then_ip: at,
                else_ip: ae,
            },
        ) => pc == ac && pt == at && pe == ae,
        (Exit::Halt, Exit::Halt) => true,
        _ => false,
    };
    if !exit_ok {
        return Err(SymCheckError::ExitMismatch {
            traversal: ck.traversal,
            node: ck.node,
            expected: render_exit(pool, a_exit),
            got: render_exit(pool, p_exit),
        });
    }
    // 3. Observable stores: slots the reader analysis pins must end the
    // node equal; elisions of unobservable slots are thereby justified.
    let name_of = |slot: u16| -> String {
        slot_names
            .get(usize::from(slot))
            .cloned()
            .unwrap_or_else(|| format!("slot#{slot}"))
    };
    let mut slots: Vec<u16> = ast.meta.keys().chain(plan.meta.keys()).copied().collect();
    slots.sort_unstable();
    slots.dedup();
    for slot in slots {
        if !readers.needs_store(slot, ck.node) {
            continue;
        }
        match (ast.meta.get(&slot), plan.meta.get(&slot)) {
            (Some(a), Some(p)) => {
                if a != p {
                    return Err(SymCheckError::StoreMismatch {
                        traversal: ck.traversal,
                        node: ck.node,
                        slot: name_of(slot),
                        expected: pool.render(*a),
                        got: pool.render(*p),
                    });
                }
            }
            (Some(_), None) => {
                return Err(SymCheckError::MissingStore {
                    traversal: ck.traversal,
                    node: ck.node,
                    slot: name_of(slot),
                });
            }
            (None, Some(p)) => {
                return Err(SymCheckError::SpuriousStore {
                    traversal: ck.traversal,
                    node: ck.node,
                    slot: name_of(slot),
                    got: pool.render(*p),
                });
            }
            (None, None) => unreachable!("slot came from a written set"),
        }
    }
    Ok(())
}

/// Prove `plan` ≡ `prog`, node by node across both traversals. Returns a
/// proof summary, or the first divergence as a typed error.
pub fn check_plan(prog: &P4Program, plan: &ExecPlan) -> Result<SymProof, SymCheckError> {
    let meta_bits: HashMap<&str, u16> = prog
        .metadata
        .iter()
        .map(|m| (m.name.as_str(), m.bits))
        .collect();
    let reg_widths: Vec<u8> = prog.registers.iter().map(|r| r.width).collect();
    let mut proof = SymProof::default();
    check_traversal(
        &prog.pre_nodes,
        true,
        "pre",
        &plan.pre,
        &plan.to_server_slots,
        plan,
        &meta_bits,
        &reg_widths,
        &mut proof,
    )?;
    check_traversal(
        &prog.post_nodes,
        false,
        "post",
        &plan.post,
        &[],
        plan,
        &meta_bits,
        &reg_widths,
        &mut proof,
    )?;
    Ok(proof)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::fixture;
    use crate::plan::PlanOptions;

    #[test]
    fn fixture_proves_fused_and_unfused() {
        for fuse in [true, false] {
            let prog = fixture();
            let plan = ExecPlan::build_with(&prog, PlanOptions { fuse }).expect("builds");
            let proof = check_plan(&prog, &plan).expect("plan ≡ AST");
            assert!(proof.nodes >= 5, "proved {} nodes", proof.nodes);
            assert!(proof.terms > 0);
        }
    }

    #[test]
    fn mismatched_program_is_rejected() {
        // Compile one program, validate against a program whose AST
        // computes a different key expression: the proof must fail.
        let prog = fixture();
        let plan = ExecPlan::build(&prog).expect("builds");
        let mut other = fixture();
        if let P4Stmt::SetMeta(_, e) = &mut other.pre_nodes[0].stmts[1] {
            *e = P4Expr::Header(gallium_mir::HeaderField::IpDaddr);
        } else {
            panic!("fixture shape changed");
        }
        assert!(check_plan(&other, &plan).is_err());
    }
}
