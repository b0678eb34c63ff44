//! Translation-validator acceptance suite.
//!
//! Two halves:
//!
//! 1. **Miscompile injection**: build a synthetic program exercising
//!    every committed plan op shape, seed each of the eight realistic
//!    compiler bugs from [`gallium::switchsim::plan_testing`] into its
//!    committed plan, and assert [`check_plan`] rejects every one with
//!    the *expected* typed error — not merely "some" error.
//! 2. **Clean programs prove**: every packaged middlebox (plus MiniLB)
//!    passes symbolic validation fused and unfused, both through
//!    [`gallium::verify::verify_plan`] and through the load-time hook
//!    (`SwitchConfig::validate_plan`).

use gallium::mir::{BinOp, HeaderField, StateId};
use gallium::net::{TransferField, TransferHeaderLayout};
use gallium::p4::{
    BlockNode, MetaField, NodeNext, P4Expr, P4Program, P4Register, P4Stmt, P4Table, TableMatchKind,
};
use gallium::prelude::*;
use gallium::switchsim::plan_testing::{apply, Mutation, ALL_MUTATIONS};
use gallium::switchsim::{check_plan, ExecPlan, PlanOptions, SymCheckError};

fn bin(op: BinOp, a: P4Expr, b: P4Expr) -> P4Expr {
    P4Expr::Bin(op, Box::new(a), Box::new(b))
}

fn meta(name: &str) -> P4Expr {
    P4Expr::Meta(name.to_string())
}

/// A two-traversal program covering every committed op shape: metadata
/// arithmetic with masking, a hash, a fused two-key table probe,
/// register ops, a computed branch, jumps, and pinned transfer stores —
/// so every seeded mutation has a site to land on.
fn synthetic() -> P4Program {
    let mf = |name: &str, bits: u16| MetaField {
        name: name.to_string(),
        bits,
    };
    let set = |name: &str, e: P4Expr| P4Stmt::SetMeta(name.to_string(), e);
    let n0 = BlockNode {
        stmts: vec![
            set("a", P4Expr::Header(HeaderField::IpSaddr)),
            set(
                "k0",
                bin(
                    BinOp::Add,
                    P4Expr::Header(HeaderField::IpSaddr),
                    P4Expr::Const(7, 8),
                ),
            ),
            set(
                "k1",
                P4Expr::Cast(
                    Box::new(bin(
                        BinOp::Add,
                        P4Expr::Header(HeaderField::IpDaddr),
                        meta("a"),
                    )),
                    16,
                ),
            ),
            set(
                "sum",
                bin(BinOp::Add, P4Expr::Const(2, 8), P4Expr::Const(3, 8)),
            ),
            set(
                "hh",
                P4Expr::Hash(vec![meta("a"), P4Expr::Header(HeaderField::IpDaddr)], 16),
            ),
            P4Stmt::TableLookup {
                table: 0,
                keys: vec![meta("k0"), meta("k1")],
                hit_meta: "t_hit".to_string(),
                value_metas: vec!["t_v0".to_string()],
            },
            set("out", bin(BinOp::Add, meta("t_v0"), meta("a"))),
            set("cond", bin(BinOp::Eq, meta("t_hit"), P4Expr::Const(1, 1))),
        ],
        has_foreign_work: false,
        next: NodeNext::Cond {
            meta: "cond".to_string(),
            then_n: 1,
            else_n: 2,
        },
    };
    let n1 = BlockNode {
        stmts: vec![
            P4Stmt::RegFetchAdd {
                reg: 0,
                dst: "cnt_old".to_string(),
                delta: P4Expr::Const(1, 8),
            },
            P4Stmt::RegWrite {
                reg: 0,
                src: meta("out"),
            },
            P4Stmt::SetHeader(
                HeaderField::IpTtl,
                bin(BinOp::Xor, meta("t_v0"), meta("hh")),
            ),
            P4Stmt::UpdateChecksum,
        ],
        has_foreign_work: false,
        next: NodeNext::Jump(3),
    };
    let n2 = BlockNode {
        stmts: vec![P4Stmt::MarkDrop],
        has_foreign_work: false,
        next: NodeNext::Jump(3),
    };
    let n3 = BlockNode {
        stmts: vec![
            P4Stmt::RegRead {
                reg: 0,
                dst: "rr".to_string(),
            },
            P4Stmt::EmitCopy,
        ],
        has_foreign_work: false,
        next: NodeNext::End,
    };
    let header_to_server = TransferHeaderLayout::new(vec![
        TransferField::new("sum".to_string(), 64),
        TransferField::new("out".to_string(), 64),
    ])
    .expect("layout");
    let header_to_switch = TransferHeaderLayout::new(vec![]).expect("layout");
    P4Program {
        name: "__verify_plan_synthetic".to_string(),
        metadata: vec![
            mf("a", 16),
            mf("k0", 32),
            mf("k1", 32),
            mf("sum", 64),
            mf("hh", 16),
            mf("t_hit", 1),
            mf("t_v0", 32),
            mf("out", 64),
            mf("cond", 1),
            mf("cnt_old", 64),
            mf("rr", 64),
        ],
        tables: vec![P4Table {
            name: "t".to_string(),
            state: StateId(0),
            key_widths: vec![32, 32],
            value_widths: vec![32],
            size: 16,
            match_kind: TableMatchKind::Exact,
        }],
        registers: vec![P4Register {
            name: "r".to_string(),
            state: StateId(1),
            width: 32,
        }],
        pre_nodes: vec![n0, n1, n2, n3],
        post_nodes: vec![BlockNode {
            stmts: vec![],
            has_foreign_work: false,
            next: NodeNext::End,
        }],
        entry: 0,
        header_to_server,
        header_to_switch,
        to_server_fields: vec!["sum".to_string(), "out".to_string()],
    }
}

/// Which error family a seeded miscompile must be reported as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Effect,
    Store,
    MissingStore,
    Exit,
}

fn family_of(e: &SymCheckError) -> Option<Family> {
    match e {
        SymCheckError::EffectMismatch { .. } | SymCheckError::EffectCountMismatch { .. } => {
            Some(Family::Effect)
        }
        SymCheckError::StoreMismatch { .. } | SymCheckError::SpuriousStore { .. } => {
            Some(Family::Store)
        }
        SymCheckError::MissingStore { .. } => Some(Family::MissingStore),
        SymCheckError::ExitMismatch { .. } => Some(Family::Exit),
        _ => None,
    }
}

fn expected_family(m: Mutation) -> Family {
    match m {
        // Corrupted computation feeding an effect (probe key, register
        // op, header write) surfaces as the first diverging effect — the
        // synthetic program's first binary op and first mask both feed
        // the fused table probe's key words...
        Mutation::SwapBinOp | Mutation::DropMask | Mutation::ReorderKeyWord => Family::Effect,
        // ...while corrupted pure dataflow surfaces at the store that
        // publishes it.
        Mutation::StaleCseReuse | Mutation::WrongFoldConstant => Family::Store,
        Mutation::DeadStorePinned => Family::MissingStore,
        Mutation::OffByOneJump | Mutation::WrongBranchReg => Family::Exit,
    }
}

#[test]
fn every_seeded_miscompile_is_rejected_with_the_expected_error() {
    let prog = synthetic();
    for m in ALL_MUTATIONS {
        let mut plan = ExecPlan::build(&prog).expect("synthetic program builds");
        assert!(apply(&mut plan, m), "mutation {m:?} found no site");
        let err = check_plan(&prog, &plan).expect_err(&format!("mutation {m:?} must be rejected"));
        let got = family_of(&err);
        assert_eq!(
            got,
            Some(expected_family(m)),
            "mutation {m:?} rejected with unexpected error: {err}"
        );
    }
}

#[test]
fn clean_synthetic_program_proves_fused_and_unfused() {
    let prog = synthetic();
    for fuse in [true, false] {
        let plan = ExecPlan::build_with(&prog, PlanOptions { fuse }).expect("builds");
        let proof = check_plan(&prog, &plan).expect("clean plan proves");
        assert!(proof.nodes >= 5, "all pre + post nodes checked");
        assert!(proof.terms > 0, "proof materialized symbolic terms");
    }
}

#[test]
fn all_packaged_middleboxes_prove_clean() {
    let model = SwitchModel::tofino_like();
    let mut programs = gallium::middleboxes::all_evaluated();
    programs.push(("MiniLB", gallium::middleboxes::minilb::minilb().prog));
    for (name, prog) in &programs {
        let compiled = compile(prog, &model).expect("compiles");
        let report = gallium::verify::verify_plan(&compiled.p4);
        assert!(
            report.is_clean(),
            "{name}: symbolic validation failed:\n{}",
            report.render_text()
        );
        assert!(report.proved_nodes > 0, "{name}: no nodes proved");
    }
}

#[test]
fn load_time_hook_accepts_clean_plans() {
    let model = SwitchModel::tofino_like();
    let nat = gallium::middleboxes::mazunat::mazunat();
    let compiled = compile(&nat.prog, &model).expect("compiles");
    for fusion in [true, false] {
        let cfg = SwitchConfig {
            plan_fusion: fusion,
            validate_plan: true,
            ..SwitchConfig::default()
        };
        Deployment::new(&compiled, cfg, CostModel::calibrated()).expect("validated load succeeds");
    }
}
