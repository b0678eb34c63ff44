//! Miscompile-injection support for the translation-validator test
//! suite. **Not a public API** — this module exists so integration tests
//! can seed realistic compiler bugs into a committed [`ExecPlan`] and
//! assert that [`crate::symcheck::check_plan`] rejects each one with the
//! expected typed error. Every mutation models a distinct optimizer
//! failure mode (wrong fold, dropped mask, stale CSE value, broken
//! fusion, bad jump patch, ...), applied surgically to the committed
//! pools so the rest of the plan stays byte-identical.

use crate::plan::{BranchSrc, ExecPlan, ExprVal, MOp, PlanOp};
use gallium_mir::BinOp;

/// One seeded miscompile, mirroring a realistic optimizer bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Flip the operator of the first binary micro-op (Add↔Sub).
    SwapBinOp,
    /// Replace the first `MaskR` with a width-preserving no-op, as if
    /// the compiler elided a mask it cannot justify.
    DropMask,
    /// Replace the first mid-stream `LoadMeta` with a copy of the
    /// previous micro-op's result — a stale CSE entry surviving a
    /// clobber.
    StaleCseReuse,
    /// Add one to the first constant-valued metadata store — a wrong
    /// fold result.
    WrongFoldConstant,
    /// Swap the first two key words of the first fused table probe.
    ReorderKeyWord,
    /// Drop the store of a transfer-pinned slot — dead-store
    /// elimination discarding an observable value.
    DeadStorePinned,
    /// Add one to the first unconditional jump target — a bad address
    /// patch.
    OffByOneJump,
    /// Point the first register-sourced branch at a different register
    /// computed in the same run.
    WrongBranchReg,
}

/// All seeded mutations, for exhaustive test loops.
pub const ALL_MUTATIONS: [Mutation; 8] = [
    Mutation::SwapBinOp,
    Mutation::DropMask,
    Mutation::StaleCseReuse,
    Mutation::WrongFoldConstant,
    Mutation::ReorderKeyWord,
    Mutation::DeadStorePinned,
    Mutation::OffByOneJump,
    Mutation::WrongBranchReg,
];

/// Apply `m` to the plan's pre traversal. Returns `false` when the plan
/// contains no site the mutation applies to (the caller should treat
/// that as a test-fixture bug, not a pass).
pub fn apply(plan: &mut ExecPlan, m: Mutation) -> bool {
    let tp = &mut plan.pre;
    match m {
        Mutation::SwapBinOp => {
            for op in tp.micro.iter_mut() {
                match op {
                    MOp::BinRR { op, .. } | MOp::BinRI { op, .. } | MOp::BinIR { op, .. } => {
                        *op = if *op == BinOp::Add {
                            BinOp::Sub
                        } else {
                            BinOp::Add
                        };
                        return true;
                    }
                    _ => {}
                }
            }
            false
        }
        Mutation::DropMask => {
            for op in tp.micro.iter_mut() {
                if let MOp::MaskR { dst, a, .. } = *op {
                    *op = MOp::BinRI {
                        op: BinOp::Or,
                        dst,
                        a,
                        imm: 0,
                    };
                    return true;
                }
            }
            false
        }
        Mutation::StaleCseReuse => {
            for i in 1..tp.micro.len() {
                if let MOp::LoadMeta { dst, .. } = tp.micro[i] {
                    let stale = tp.micro[i - 1].dst();
                    if stale == dst {
                        continue;
                    }
                    tp.micro[i] = MOp::BinRI {
                        op: BinOp::Or,
                        dst,
                        a: stale,
                        imm: 0,
                    };
                    return true;
                }
            }
            false
        }
        Mutation::WrongFoldConstant => {
            for st in tp.stores.iter_mut() {
                if let ExprVal::Const(c) = st.src {
                    st.src = ExprVal::Const(c.wrapping_add(1));
                    return true;
                }
            }
            false
        }
        Mutation::ReorderKeyWord => {
            for op in tp.ops.iter() {
                if let PlanOp::BuildKeyProbe { keys, .. } = op {
                    if keys.len >= 2 {
                        let s = keys.start as usize;
                        tp.keys.swap(s, s + 1);
                        return true;
                    }
                }
            }
            false
        }
        Mutation::DeadStorePinned => {
            let pinned = plan.to_server_slots.clone();
            for op in tp.ops.iter_mut() {
                let stores = match op {
                    PlanOp::Eval { stores, .. }
                    | PlanOp::SetHeader { stores, .. }
                    | PlanOp::BuildKeyProbe { stores, .. }
                    | PlanOp::RegWrite { stores, .. }
                    | PlanOp::RegFetchAdd { stores, .. }
                    | PlanOp::Branch { stores, .. } => stores,
                    _ => continue,
                };
                let range = stores.range();
                let hit = tp.stores[range.clone()]
                    .iter()
                    .position(|s| pinned.contains(&s.slot));
                if let Some(j) = hit {
                    let last = range.end - 1;
                    tp.stores.swap(range.start + j, last);
                    stores.len -= 1;
                    return true;
                }
            }
            false
        }
        Mutation::OffByOneJump => {
            for op in tp.ops.iter_mut() {
                if let PlanOp::Jump(t) = op {
                    *t += 1;
                    return true;
                }
            }
            false
        }
        Mutation::WrongBranchReg => {
            for i in 0..tp.ops.len() {
                if let PlanOp::Branch {
                    run,
                    src: BranchSrc::Reg(r),
                    ..
                } = tp.ops[i]
                {
                    let other = tp.micro[run.range()]
                        .iter()
                        .map(|m| m.dst())
                        .find(|d| *d != r);
                    if let Some(d) = other {
                        if let PlanOp::Branch { src, .. } = &mut tp.ops[i] {
                            *src = BranchSrc::Reg(d);
                        }
                        return true;
                    }
                }
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::fixture;
    use crate::symcheck::check_plan;

    #[test]
    fn every_mutation_applies_to_the_fixture_and_is_rejected() {
        for m in ALL_MUTATIONS {
            let prog = fixture();
            let mut plan = ExecPlan::build(&prog).expect("builds");
            assert!(apply(&mut plan, m), "mutation {m:?} found no site");
            assert!(
                check_plan(&prog, &plan).is_err(),
                "mutation {m:?} survived validation"
            );
        }
    }
}
