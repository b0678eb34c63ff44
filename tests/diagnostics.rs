//! Fault-injection suite for the typed diagnostics layer: every malformed
//! input — MIR text, builder call sequences, table configurations, runtime
//! updates — must be rejected with a *specific, span-bearing* error, never
//! a panic.

use gallium::core::{compile, CompileError, DeployError, Deployment};
use gallium::mir::parser::parse_program;
use gallium::mir::{BinOp, FuncBuilder, MirError, StateStore};
use gallium::net::TransferValues;
use gallium::p4::ControlPlaneOp;
use gallium::partition::{partition_program, StatePlacement, SwitchModel};
use gallium::server::{execute_server_partition, CostModel, ExecError};
use gallium::switchsim::{
    load_check, ControlError, ControlPlane, LoadError, RtTable, Switch, SwitchConfig, TableError,
};

fn minilb_compiled() -> gallium::core::CompiledMiddlebox {
    let lb = gallium::middleboxes::minilb::minilb();
    compile(&lb.prog, &SwitchModel::tofino_like()).expect("minilb compiles")
}

// --- 1. Malformed MIR text: unknown mnemonic, exact line and column -----

#[test]
fn parse_unknown_mnemonic_reports_line_and_column() {
    let src = "program bad {\n  b0:\n    v0 = readfield ip.saddr\n    v1 = frobnicate v0\n    send\n    ret\n}\n";
    let err = parse_program(src).expect_err("must reject");
    assert_eq!(
        err,
        MirError::Parse {
            line: 4,
            col: 10,
            msg: "unknown mnemonic `frobnicate`".into(),
        }
    );
    // The Display form carries the span for the user.
    assert_eq!(
        err.to_string(),
        "parse error at line 4, column 10: unknown mnemonic `frobnicate`"
    );
}

// --- 2. Malformed MIR text: reference to an undefined value -------------

#[test]
fn parse_undefined_value_reports_span() {
    let src = "program bad {\n  b0:\n    v0 = not v9\n    ret\n}\n";
    let err = parse_program(src).expect_err("must reject");
    let MirError::Parse { line, col, msg } = &err else {
        unreachable!("wrong error kind: {err:?}");
    };
    assert_eq!(*line, 3);
    assert!(*col > 0);
    assert_eq!(msg, "unknown value `v9`");
}

// --- 3. Malformed MIR text: branch to a block that does not exist -------

#[test]
fn parse_unknown_block_reports_span() {
    let src = "program bad {\n  b0:\n    v0 = const 1 : u8\n    br v0, b1, b9\n  b1:\n    ret\n}\n";
    let err = parse_program(src).expect_err("must reject");
    let MirError::Parse { line, msg, .. } = &err else {
        unreachable!("wrong error kind: {err:?}");
    };
    assert_eq!(*line, 4);
    assert_eq!(msg, "unknown block `b9`");
}

// --- 4. Ill-typed builder sequence: operand width mismatch --------------

#[test]
fn builder_width_mismatch_reports_instruction() {
    let mut b = FuncBuilder::new("bad");
    let a = b.cnst(1, 32);
    let c = b.cnst(2, 16);
    let _ = b.bin(BinOp::Add, a, c); // 32-bit + 16-bit: ill-typed
    b.ret();
    let err = b.finish().expect_err("must reject");
    let MirError::Build { inst, msg } = &err else {
        unreachable!("wrong error kind: {err:?}");
    };
    assert_eq!(*inst, 2, "error anchored at the offending add");
    assert!(msg.contains("widths differ"), "msg: {msg}");
}

// --- 5. Ill-formed builder sequence: wrong state kind -------------------

#[test]
fn builder_wrong_state_kind_reports_instruction() {
    let mut b = FuncBuilder::new("bad");
    let map = b.decl_map("m", vec![16], vec![32], Some(16));
    let idx = b.cnst(0, 32);
    let _ = b.vec_get(map, idx); // map used as vector
    b.ret();
    let err = b.finish().expect_err("must reject");
    assert!(matches!(err, MirError::Build { .. }), "got {err:?}");
    assert!(err.to_string().contains("non-vector"), "got {err}");
}

// --- 6. Ill-formed builder sequence: terminating twice ------------------

#[test]
fn builder_double_terminate_reports_instruction() {
    let mut b = FuncBuilder::new("bad");
    b.ret();
    b.ret();
    let err = b.finish().expect_err("must reject");
    assert!(matches!(err, MirError::Build { .. }), "got {err:?}");
    assert!(err.to_string().contains("terminated"), "got {err}");
}

// --- 7. Over-capacity table config: LPM insert into a full table --------

#[test]
fn lpm_table_over_capacity_rejected_with_capacity() {
    let mut t = RtTable::new(1);
    t.make_lpm(32);
    t.lpm_insert(0x0a00_0000, 8, vec![1]).expect("first fits");
    assert_eq!(
        t.lpm_insert(0x0b00_0000, 8, vec![2]),
        Err(TableError::CapacityExceeded { capacity: 1 })
    );
}

// --- 8. Bad table config: prefix longer than the key width --------------

#[test]
fn lpm_prefix_longer_than_key_rejected() {
    let mut t = RtTable::new(8);
    t.make_lpm(24);
    let err = t.lpm_insert(0, 32, vec![1]).expect_err("must reject");
    assert_eq!(
        err,
        TableError::PrefixTooLong {
            len: 32,
            key_width: 24
        }
    );
    assert_eq!(err.to_string(), "prefix length 32 exceeds key width 24");
}

#[test]
fn server_lpm_prefix_longer_than_key_rejected() {
    // The server's store refuses the same over-long prefix the switch
    // does, with the same typed fields, and installs nothing.
    let mut b = FuncBuilder::new("t");
    let rib = b.decl_lpm("rib", 24, vec![8], Some(16));
    let d = b.read_field(gallium::mir::HeaderField::IpDaddr);
    let _ = b.lpm_get(rib, d);
    b.send();
    b.ret();
    let prog = b.finish().expect("well-formed");
    let mut store = StateStore::new(&prog.states);
    let err = store.lpm_put(rib, 0, 32, vec![1]).expect_err("must reject");
    assert_eq!(
        err,
        MirError::PrefixTooLong {
            len: 32,
            key_width: 24
        }
    );
    assert_eq!(err.to_string(), "prefix length 32 exceeds key width 24");
    assert!(store.lpm_entries(rib).unwrap().is_empty());
    assert_eq!(store.lpm_get(rib, 0).unwrap(), None);
}

// --- 9. Control plane: operation on an undeclared table -----------------

#[test]
fn control_plane_unknown_table_rejected() {
    let compiled = minilb_compiled();
    let mut sw = Switch::load(compiled.p4.clone(), SwitchConfig::default()).expect("loads");
    let err = sw
        .control(&ControlPlaneOp::TableInsert {
            table: "nosuch".into(),
            key: vec![1],
            value: vec![2],
        })
        .expect_err("must reject");
    assert_eq!(err, ControlError::UnknownTable("nosuch".into()));
}

// --- 10. Loader: program referencing an undeclared table ----------------

#[test]
fn loader_rejects_dangling_table_reference() {
    let compiled = minilb_compiled();
    let mut p4 = compiled.p4.clone();
    let bogus = p4.tables.len() + 1;
    p4.pre_nodes[0]
        .stmts
        .push(gallium::p4::P4Stmt::TableLookup {
            table: bogus,
            keys: vec![],
            hit_meta: "h".into(),
            value_metas: vec![],
        });
    assert_eq!(
        load_check(&p4, &SwitchModel::tofino_like()),
        Err(LoadError::UnknownTable {
            index: bogus,
            declared: compiled.p4.tables.len(),
        })
    );
}

// --- 11. Loader: degenerate switch model --------------------------------

#[test]
fn loader_rejects_degenerate_model() {
    let compiled = minilb_compiled();
    let err =
        load_check(&compiled.p4, &SwitchModel::tiny(0, 1 << 20, 800, 20)).expect_err("must reject");
    assert!(matches!(err, LoadError::InvalidModel { .. }), "got {err:?}");
    assert!(err.to_string().contains("pipeline depth"), "got {err}");
}

// --- 12. Bad runtime update: server mutating switch-only state ----------

#[test]
fn executor_rejects_update_to_switch_only_state() {
    let lb = gallium::middleboxes::minilb::minilb();
    let mut staged = partition_program(&lb.prog, &SwitchModel::tofino_like()).expect("partitions");
    let map = staged.prog.state_by_name("map").expect("declared");
    staged.placements[map.0 as usize] = StatePlacement::SwitchOnly;

    let mut store = StateStore::new(&staged.prog.states);
    store
        .vec_set_all(
            staged.prog.state_by_name("backends").expect("declared"),
            vec![1],
        )
        .expect("fits");
    let mut in_values = TransferValues::default();
    in_values.set("v7", 1); // miss path: the server will try map_put
    in_values.set("v2", 0);
    in_values.set("v5", 0);
    let mut pkt = gallium::net::PacketBuilder::tcp(
        gallium::net::FiveTuple {
            saddr: 1,
            daddr: 2,
            sport: 3,
            dport: 4,
            proto: gallium::net::IpProtocol::Tcp,
        },
        gallium::net::TcpFlags(gallium::net::TcpFlags::SYN),
        100,
    )
    .build(gallium::net::PortId::SERVER);

    let err = execute_server_partition(&staged, &mut store, &mut pkt, &in_values, 0)
        .expect_err("must reject");
    let ExecError::UnexpectedUpdate { state, .. } = &err else {
        unreachable!("wrong error kind: {err:?}");
    };
    assert_eq!(state, "map");
    assert_eq!(store.map_len(map).expect("declared"), 0, "store untouched");
}

// --- 13. The stage-tagged CompileError wrappers -------------------------

#[test]
fn compile_error_display_carries_stage_and_span() {
    let parse_err =
        parse_program("program x {\n  b0:\n    v0 = bogus\n    ret\n}\n").expect_err("must reject");
    let wrapped: CompileError = parse_err.into();
    let shown = wrapped.to_string();
    assert!(
        shown.starts_with("mir: parse error at line 3"),
        "got {shown}"
    );

    let load: CompileError = LoadError::Memory {
        needed: 10,
        available: 5,
    }
    .into();
    assert_eq!(load.to_string(), "load: table memory: need 10 bits, have 5");
}

// --- Display / From / source-chain coverage for every new variant -------

#[test]
fn table_and_control_error_display_forms() {
    assert_eq!(
        TableError::NotLpm.to_string(),
        "LPM operation on exact-match table"
    );
    assert_eq!(
        TableError::CapacityExceeded { capacity: 4 }.to_string(),
        "table full (4 entries)"
    );
    assert_eq!(
        ControlError::UnknownRegister("ctr".into()).to_string(),
        "no register `ctr`"
    );
    assert_eq!(
        ControlError::TableFull {
            table: "conn".into()
        }
        .to_string(),
        "table `conn` full"
    );
    // The LPM wrapper both renders and exposes its cause via source().
    let err = ControlError::Lpm {
        table: "rib".into(),
        source: TableError::PrefixTooLong {
            len: 40,
            key_width: 32,
        },
    };
    assert_eq!(
        err.to_string(),
        "LPM table `rib` rejected the entry: prefix length 40 exceeds key width 32"
    );
    let src = std::error::Error::source(&err).expect("chained");
    assert_eq!(src.to_string(), "prefix length 40 exceeds key width 32");
}

#[test]
fn load_error_display_forms() {
    assert_eq!(
        LoadError::UnknownRegister {
            index: 3,
            declared: 1
        }
        .to_string(),
        "statement references register #3, but only 1 declared"
    );
    assert_eq!(
        LoadError::InvalidModel {
            reason: "metadata budget is zero".into()
        }
        .to_string(),
        "invalid switch model: metadata budget is zero"
    );
}

#[test]
fn exec_error_display_and_from_mir() {
    assert_eq!(
        ExecError::Decap {
            reason: "short header".into()
        }
        .to_string(),
        "decapsulation failed: short header"
    );
    assert_eq!(
        ExecError::Encap {
            reason: "budget".into()
        }
        .to_string(),
        "encapsulation failed: budget"
    );
    assert_eq!(
        ExecError::UnexpectedUpdate {
            value: gallium::mir::ValueId(9),
            state: "conn".into()
        }
        .to_string(),
        "v9: unexpected update to switch-only state `conn`"
    );
    let wrapped: ExecError = MirError::Fault("missing transfer value".into()).into();
    assert_eq!(
        wrapped.to_string(),
        "server execution: runtime fault: missing transfer value"
    );
    assert!(std::error::Error::source(&wrapped).is_some());
}

#[test]
fn deploy_error_display_and_from_chain() {
    let from_load: DeployError = LoadError::PipelineDepth {
        needed: 20,
        available: 12,
    }
    .into();
    assert_eq!(
        from_load.to_string(),
        "load: pipeline depth: need 20 stages, have 12"
    );
    let from_control: DeployError = ControlError::UnknownTable("x".into()).into();
    assert_eq!(from_control.to_string(), "control plane: no table `x`");
    let from_exec: DeployError = ExecError::Encap {
        reason: "over budget".into(),
    }
    .into();
    assert_eq!(
        from_exec.to_string(),
        "server: encapsulation failed: over budget"
    );
    assert!(std::error::Error::source(&from_exec).is_some());
    assert_eq!(
        DeployError::MissingTable {
            state: gallium::mir::StateId(2)
        }
        .to_string(),
        "state s2 has no switch table"
    );
    assert_eq!(
        DeployError::PostLoop.to_string(),
        "post-processing looped back to the server"
    );
}

// --- 14. Deployment-level propagation of control-plane rejections -------

#[test]
fn deployment_propagates_typed_control_errors() {
    let compiled = minilb_compiled();
    let mut d = Deployment::new(&compiled, SwitchConfig::default(), CostModel::calibrated())
        .expect("deploys");
    // Inject a control op against a table the program never declared.
    let err = d
        .switch
        .control(&ControlPlaneOp::TableDelete {
            table: "ghost".into(),
            key: vec![0],
        })
        .map_err(DeployError::from)
        .expect_err("must reject");
    assert_eq!(
        err.to_string(),
        "control plane: no table `ghost`",
        "stage-tagged Display"
    );
}
