//! Read-only introspection of a compiled [`ExecPlan`].
//!
//! The plan's internal encoding (side pools, packed `PoolRef` ranges)
//! is tuned for the warm path and deliberately private. External static
//! analysis — the abstract interpreter and lint pass in `gallium-verify`
//! — needs to *walk* the committed opcode and micro-op streams without
//! being able to mutate them or depend on the pool layout. This module
//! materializes that walk: [`ExecPlan::view`] produces an owned,
//! self-contained [`PlanView`] in which every pool range is resolved into
//! an inline `Vec`, so a consumer sees exactly what the runtime will
//! execute, opcode by opcode, with no index arithmetic of its own.

use crate::plan::{BranchSrc, ExecPlan, ExprVal, MOp, PlanOp, PoolRef, TraversalPlan};
use gallium_mir::{BinOp, HeaderField};

/// A value operand: a build-time constant or a virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValRef {
    /// Immediate folded at build time.
    Const(u64),
    /// Virtual register in the per-packet file.
    Reg(u16),
}

impl From<ExprVal> for ValRef {
    fn from(v: ExprVal) -> Self {
        match v {
            ExprVal::Const(c) => ValRef::Const(c),
            ExprVal::Reg(r) => ValRef::Reg(r),
        }
    }
}

/// One three-address micro-op, mirroring the runtime encoding 1:1.
/// All arithmetic evaluates at width 64 (`BinOp::eval(a, b, 64)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MicroOp {
    /// `dst = meta[slot]`.
    LoadMeta {
        /// Destination register.
        dst: u16,
        /// Metadata slot index.
        slot: u16,
    },
    /// `dst = header[field]`.
    LoadHeader {
        /// Destination register.
        dst: u16,
        /// The packet header field.
        field: HeaderField,
    },
    /// `dst = ingress_port`.
    LoadIngress {
        /// Destination register.
        dst: u16,
    },
    /// `dst = a op b` (register, register).
    BinRR {
        /// The operator.
        op: BinOp,
        /// Destination register.
        dst: u16,
        /// Left operand register.
        a: u16,
        /// Right operand register.
        b: u16,
    },
    /// `dst = a op imm` (register, immediate).
    BinRI {
        /// The operator.
        op: BinOp,
        /// Destination register.
        dst: u16,
        /// Left operand register.
        a: u16,
        /// Right immediate.
        imm: u64,
    },
    /// `dst = imm op b` (immediate, register).
    BinIR {
        /// The operator.
        op: BinOp,
        /// Destination register.
        dst: u16,
        /// Left immediate.
        imm: u64,
        /// Right operand register.
        b: u16,
    },
    /// `dst = !a` (bitwise not).
    NotR {
        /// Destination register.
        dst: u16,
        /// Operand register.
        a: u16,
    },
    /// `dst = a & ((1 << width) - 1)`.
    MaskR {
        /// Destination register.
        dst: u16,
        /// Operand register.
        a: u16,
        /// Mask width in bits (< 64).
        width: u8,
    },
    /// `dst = hash(args, width)`.
    Hash {
        /// Destination register.
        dst: u16,
        /// Hash inputs, in order.
        args: Vec<ValRef>,
        /// Output width in bits.
        width: u8,
    },
}

impl MicroOp {
    /// The destination register this micro-op writes.
    pub fn dst(&self) -> u16 {
        match *self {
            MicroOp::LoadMeta { dst, .. }
            | MicroOp::LoadHeader { dst, .. }
            | MicroOp::LoadIngress { dst }
            | MicroOp::BinRR { dst, .. }
            | MicroOp::BinRI { dst, .. }
            | MicroOp::BinIR { dst, .. }
            | MicroOp::NotR { dst, .. }
            | MicroOp::MaskR { dst, .. }
            | MicroOp::Hash { dst, .. } => dst,
        }
    }
}

/// One surviving metadata store: `meta[slot] = src` after the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreView {
    /// Metadata slot index.
    pub slot: u16,
    /// Stored value.
    pub src: ValRef,
}

/// Where a `Branch` reads its condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CondSrc {
    /// A virtual register written by the fused run.
    Reg(u16),
    /// A metadata slot (unfused fallback).
    Slot(u16),
}

/// One committed plan opcode with its pool ranges resolved inline.
/// Expression-bearing ops carry the micro-op run executed first (`run`)
/// and the metadata stores applied after it (`stores`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpView {
    /// Run micro-ops and apply stores; no other effect.
    Eval {
        /// Micro-ops to execute.
        run: Vec<MicroOp>,
        /// Stores applied after the run.
        stores: Vec<StoreView>,
    },
    /// Write a packet header field.
    SetHeader {
        /// Micro-ops to execute.
        run: Vec<MicroOp>,
        /// Stores applied after the run.
        stores: Vec<StoreView>,
        /// The header field written.
        field: HeaderField,
        /// The written value.
        out: ValRef,
    },
    /// The fused key-build + table-probe superinstruction.
    BuildKeyProbe {
        /// Micro-ops to execute.
        run: Vec<MicroOp>,
        /// Stores applied after the run.
        stores: Vec<StoreView>,
        /// Table index.
        table: u16,
        /// Key words, in declared key order.
        keys: Vec<ValRef>,
        /// Slot receiving the hit flag.
        hit_slot: u16,
        /// Slots receiving the value words on hit (zeroed on miss).
        vals: Vec<u16>,
    },
    /// Read a stateful register into a metadata slot.
    RegRead {
        /// Stateful register index.
        reg: u16,
        /// Destination metadata slot.
        dst: u16,
    },
    /// Write a stateful register.
    RegWrite {
        /// Micro-ops to execute.
        run: Vec<MicroOp>,
        /// Stores applied after the run.
        stores: Vec<StoreView>,
        /// Stateful register index.
        reg: u16,
        /// The written value (masked to the register width).
        out: ValRef,
    },
    /// Fetch-and-add on a stateful register.
    RegFetchAdd {
        /// Micro-ops to execute.
        run: Vec<MicroOp>,
        /// Stores applied after the run.
        stores: Vec<StoreView>,
        /// Stateful register index.
        reg: u16,
        /// Register width in bits.
        width: u8,
        /// Slot receiving the pre-add value.
        dst: u16,
        /// The delta (unmasked).
        out: ValRef,
    },
    /// Refresh the IP checksum.
    UpdateChecksum,
    /// Emit a copy of the packet.
    EmitCopy,
    /// Mark the packet dropped.
    MarkDrop,
    /// Later-stage work exists: the packet must visit the server.
    Foreign,
    /// Unconditional jump to an opcode index.
    Jump(u32),
    /// Two-way branch on a condition.
    Branch {
        /// Micro-ops to execute.
        run: Vec<MicroOp>,
        /// Stores applied after the run.
        stores: Vec<StoreView>,
        /// Where the condition is read from.
        src: CondSrc,
        /// Target when the condition is nonzero.
        then_ip: u32,
        /// Target when the condition is zero.
        else_ip: u32,
    },
    /// End of traversal.
    Halt,
}

/// Owned view of one traversal's opcode stream.
#[derive(Debug, Clone)]
pub struct TraversalView {
    /// The opcodes, addressable by the targets in `Jump`/`Branch`.
    pub ops: Vec<OpView>,
    /// Entry opcode index.
    pub entry_ip: u32,
    /// First opcode index of each declared node, in node order.
    pub node_ips: Vec<u32>,
}

/// Owned, self-contained view of a compiled plan.
#[derive(Debug, Clone)]
pub struct PlanView {
    /// Pre-processing traversal (network-facing).
    pub pre: TraversalView,
    /// Post-processing traversal (server-facing).
    pub post: TraversalView,
    /// Number of interned metadata slots.
    pub n_slots: usize,
    /// Virtual register file size.
    pub n_regs: usize,
    /// Slot index → metadata field name.
    pub slot_names: Vec<String>,
    /// Slots packed into the switch→server transfer header.
    pub to_server_slots: Vec<u16>,
    /// Slots unpacked from the server→switch transfer header.
    pub from_server_slots: Vec<u16>,
}

fn view_run(tp: &TraversalPlan, run: PoolRef) -> Vec<MicroOp> {
    tp.micro[run.range()]
        .iter()
        .map(|m| match *m {
            MOp::LoadMeta { dst, slot } => MicroOp::LoadMeta { dst, slot },
            MOp::LoadHeader { dst, field } => MicroOp::LoadHeader { dst, field },
            MOp::LoadIngress { dst } => MicroOp::LoadIngress { dst },
            MOp::BinRR { op, dst, a, b } => MicroOp::BinRR { op, dst, a, b },
            MOp::BinRI { op, dst, a, imm } => MicroOp::BinRI { op, dst, a, imm },
            MOp::BinIR { op, dst, imm, b } => MicroOp::BinIR { op, dst, imm, b },
            MOp::NotR { dst, a } => MicroOp::NotR { dst, a },
            MOp::MaskR { dst, a, width } => MicroOp::MaskR { dst, a, width },
            MOp::Hash {
                dst,
                args_start,
                args_len,
                width,
            } => MicroOp::Hash {
                dst,
                args: tp.hash_args[PoolRef {
                    start: args_start,
                    len: args_len,
                }
                .range()]
                .iter()
                .map(|v| ValRef::from(*v))
                .collect(),
                width,
            },
        })
        .collect()
}

fn view_stores(tp: &TraversalPlan, stores: PoolRef) -> Vec<StoreView> {
    tp.stores[stores.range()]
        .iter()
        .map(|s| StoreView {
            slot: s.slot,
            src: ValRef::from(s.src),
        })
        .collect()
}

fn view_traversal(tp: &TraversalPlan) -> TraversalView {
    let ops = tp
        .ops
        .iter()
        .map(|op| match *op {
            PlanOp::Eval { run, stores } => OpView::Eval {
                run: view_run(tp, run),
                stores: view_stores(tp, stores),
            },
            PlanOp::SetHeader {
                run,
                stores,
                field,
                out,
            } => OpView::SetHeader {
                run: view_run(tp, run),
                stores: view_stores(tp, stores),
                field,
                out: ValRef::from(out),
            },
            PlanOp::BuildKeyProbe {
                run,
                stores,
                table,
                keys,
                hit_slot,
                vals,
            } => OpView::BuildKeyProbe {
                run: view_run(tp, run),
                stores: view_stores(tp, stores),
                table,
                keys: tp.keys[keys.range()]
                    .iter()
                    .map(|v| ValRef::from(*v))
                    .collect(),
                hit_slot,
                vals: tp.value_slots[vals.range()].to_vec(),
            },
            PlanOp::RegRead { reg, dst } => OpView::RegRead { reg, dst },
            PlanOp::RegWrite {
                run,
                stores,
                reg,
                out,
            } => OpView::RegWrite {
                run: view_run(tp, run),
                stores: view_stores(tp, stores),
                reg,
                out: ValRef::from(out),
            },
            PlanOp::RegFetchAdd {
                run,
                stores,
                reg,
                width,
                dst,
                out,
            } => OpView::RegFetchAdd {
                run: view_run(tp, run),
                stores: view_stores(tp, stores),
                reg,
                width,
                dst,
                out: ValRef::from(out),
            },
            PlanOp::UpdateChecksum => OpView::UpdateChecksum,
            PlanOp::EmitCopy => OpView::EmitCopy,
            PlanOp::MarkDrop => OpView::MarkDrop,
            PlanOp::Foreign => OpView::Foreign,
            PlanOp::Jump(t) => OpView::Jump(t),
            PlanOp::Branch {
                run,
                stores,
                src,
                then_ip,
                else_ip,
            } => OpView::Branch {
                run: view_run(tp, run),
                stores: view_stores(tp, stores),
                src: match src {
                    BranchSrc::Reg(r) => CondSrc::Reg(r),
                    BranchSrc::Slot(s) => CondSrc::Slot(s),
                },
                then_ip,
                else_ip,
            },
            PlanOp::Halt => OpView::Halt,
        })
        .collect();
    TraversalView {
        ops,
        entry_ip: tp.entry_ip,
        node_ips: tp.node_ips.clone(),
    }
}

impl ExecPlan {
    /// Materialize an owned, read-only view of the committed plan with
    /// every pool range resolved inline. Build-time only (allocates);
    /// never called on the warm path.
    pub fn view(&self) -> PlanView {
        let mut slot_names = vec![String::new(); self.n_slots];
        for (name, slot) in &self.slots {
            if let Some(n) = slot_names.get_mut(usize::from(*slot)) {
                *n = name.clone();
            }
        }
        PlanView {
            pre: view_traversal(&self.pre),
            post: view_traversal(&self.post),
            n_slots: self.n_slots,
            n_regs: self.n_regs,
            slot_names,
            to_server_slots: self.to_server_slots.clone(),
            from_server_slots: self.from_server_slots.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::fixture;
    use crate::plan::PlanOptions;

    #[test]
    fn view_resolves_all_pools_inline() {
        let prog = fixture();
        let plan = ExecPlan::build_with(&prog, PlanOptions { fuse: true }).expect("builds");
        let view = plan.view();
        assert_eq!(view.pre.ops.len(), plan.pre.ops.len());
        assert_eq!(view.pre.node_ips.len(), prog.pre_nodes.len());
        assert!(view
            .pre
            .ops
            .iter()
            .any(|op| matches!(op, OpView::BuildKeyProbe { keys, .. } if keys.len() == 2)));
        assert!(view.slot_names.iter().any(|n| n == "sum"));
        assert_eq!(view.n_slots, plan.n_slots);
    }
}
