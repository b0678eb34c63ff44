//! End-to-end coverage of the §7 LPM extension: the prefix router
//! compiles to a fully offloaded program with a native `lpm` match-kind
//! table, the routes are pushed through the control plane, and the
//! deployed pipeline matches the reference interpreter on mixed traffic.

use gallium::core::{compile, Deployment};
use gallium::middleboxes::router::prefix_router;
use gallium::mir::interp::read_header_field;
use gallium::mir::{HeaderField, Interpreter, StateStore};
use gallium::net::ipv4::parse_addr;
use gallium::p4::TableMatchKind;
use gallium::prelude::*;

fn pkt(daddr: u32) -> Packet {
    PacketBuilder::tcp(
        FiveTuple {
            saddr: 0x0A00_0001,
            daddr,
            sport: 7,
            dport: 80,
            proto: IpProtocol::Tcp,
        },
        TcpFlags(TcpFlags::ACK),
        100,
    )
    .build(PortId(1))
}

#[test]
fn router_fully_offloaded_with_lpm_table() {
    let r = prefix_router();
    let compiled = compile(&r.prog, &SwitchModel::tofino_like()).unwrap();
    assert!(compiled.staged.fully_offloaded(), "LPM lookup runs in P4");
    assert_eq!(compiled.p4.tables.len(), 1);
    assert_eq!(compiled.p4.tables[0].match_kind, TableMatchKind::Lpm);
    assert!(compiled.p4_source.contains("lpm /* bit<32> */"));
}

#[test]
fn deployed_router_matches_reference() {
    let r = prefix_router();
    let compiled = compile(&r.prog, &SwitchModel::tofino_like()).unwrap();
    let mut d =
        Deployment::new(&compiled, SwitchConfig::default(), CostModel::calibrated()).unwrap();
    let r2 = r.clone();
    d.configure(move |s| {
        r2.add_route(s, parse_addr("10.0.0.0").unwrap(), 8, 0xAA);
        r2.add_route(s, parse_addr("10.1.0.0").unwrap(), 16, 0xBB);
        r2.add_route(s, parse_addr("10.1.2.0").unwrap(), 24, 0xCC);
    })
    .unwrap();

    let mut ref_store = StateStore::new(&r.prog.states);
    r.add_route(&mut ref_store, parse_addr("10.0.0.0").unwrap(), 8, 0xAA);
    r.add_route(&mut ref_store, parse_addr("10.1.0.0").unwrap(), 16, 0xBB);
    r.add_route(&mut ref_store, parse_addr("10.1.2.0").unwrap(), 24, 0xCC);
    let interp = Interpreter::new(&r.prog);

    for dst in [
        "10.9.9.9",
        "10.1.9.9",
        "10.1.2.3",
        "10.1.2.255",
        "192.168.1.1", // no route: dropped
        "10.255.0.1",
    ] {
        let p = pkt(parse_addr(dst).unwrap());
        let mut rp = p.clone();
        let ref_out = interp.run(&mut rp, &mut ref_store, 0).unwrap();
        let got = d.inject(p).unwrap();
        match ref_out.sent() {
            Some(expected) => {
                assert_eq!(got.len(), 1, "dst {dst}");
                assert_eq!(got[0].1.bytes(), expected.bytes(), "dst {dst}");
            }
            None => assert!(got.is_empty(), "dst {dst} should drop"),
        }
    }
    // Everything ran in the data plane.
    assert_eq!(d.stats.slow_path, 0);
    assert_eq!(d.fast_path_fraction(), 1.0);
}

#[test]
fn respelled_prefix_replaces_route_on_switch_and_reference() {
    // 10.1.2.3/8 is another spelling of 10.0.0.0/8: installing it must
    // replace the first route in the server's store, in the reference
    // interpreter's store and on the switch alike, or the deployment and
    // the reference disagree on every address under 10/8.
    let routes = [
        (parse_addr("10.0.0.0").unwrap(), 8, 0xAA),
        (parse_addr("10.1.2.3").unwrap(), 8, 0xBB),
    ];
    let r = prefix_router();
    let compiled = compile(&r.prog, &SwitchModel::tofino_like()).unwrap();
    let mut d =
        Deployment::new(&compiled, SwitchConfig::default(), CostModel::calibrated()).unwrap();
    let r2 = r.clone();
    d.configure(move |s| {
        for (prefix, len, mac) in routes {
            r2.add_route(s, prefix, len, mac);
        }
    })
    .unwrap();

    let mut ref_store = StateStore::new(&r.prog.states);
    for (prefix, len, mac) in routes {
        r.add_route(&mut ref_store, prefix, len, mac);
    }
    let interp = Interpreter::new(&r.prog);

    for dst in ["10.5.5.5", "10.1.2.3", "11.0.0.1"] {
        let p = pkt(parse_addr(dst).unwrap());
        let mut rp = p.clone();
        let ref_out = interp.run(&mut rp, &mut ref_store, 0).unwrap();
        let got = d.inject(p).unwrap();
        match ref_out.sent() {
            Some(expected) => {
                assert_eq!(
                    read_header_field(expected.bytes(), HeaderField::EthDst),
                    0xBB,
                    "dst {dst}: the later install wins"
                );
                assert_eq!(got.len(), 1, "dst {dst}");
                assert_eq!(got[0].1.bytes(), expected.bytes(), "dst {dst}");
            }
            None => assert!(got.is_empty(), "dst {dst} should drop"),
        }
    }
    assert_eq!(d.stats.slow_path, 0);
    assert_eq!(
        ref_store.lpm_entries(r.routes).unwrap(),
        vec![(u64::from(parse_addr("10.0.0.0").unwrap()), 8, vec![0xBB])],
        "one canonical entry"
    );
}

#[test]
fn longest_prefix_resolution_on_switch() {
    let r = prefix_router();
    let compiled = compile(&r.prog, &SwitchModel::tofino_like()).unwrap();
    let mut d =
        Deployment::new(&compiled, SwitchConfig::default(), CostModel::calibrated()).unwrap();
    let r2 = r.clone();
    d.configure(move |s| {
        r2.add_route(s, 0, 0, 0x11); // default route
        r2.add_route(s, parse_addr("10.1.0.0").unwrap(), 16, 0x22);
    })
    .unwrap();
    let out = d.inject(pkt(parse_addr("10.1.5.5").unwrap())).unwrap();
    assert_eq!(
        read_header_field(out[0].1.bytes(), HeaderField::EthDst),
        0x22,
        "/16 beats the default route"
    );
    let out = d.inject(pkt(parse_addr("4.4.4.4").unwrap())).unwrap();
    assert_eq!(
        read_header_field(out[0].1.bytes(), HeaderField::EthDst),
        0x11,
        "default route catches the rest"
    );
}

#[test]
fn lpm_textual_roundtrip() {
    let r = prefix_router();
    let text = gallium::mir::printer::print_program(&r.prog);
    assert!(text.contains("state routes : lpm<u32 -> u48> max 4096"));
    assert!(text.contains("lpmget routes"));
    // The parser numbers values by textual appearance, so the round trip
    // is identity up to α-renaming; one normalization round reaches the
    // canonical form, which is then a parse/print fixpoint.
    let back = gallium::mir::parser::parse_program(&text).unwrap();
    let canonical = gallium::mir::printer::print_program(&back);
    let again = gallium::mir::parser::parse_program(&canonical).unwrap();
    assert_eq!(gallium::mir::printer::print_program(&again), canonical);
    // And the renamed program still behaves identically (same block
    // structure, same instruction count).
    assert_eq!(back.func.len(), r.prog.func.len());
    assert_eq!(back.func.blocks.len(), r.prog.func.blocks.len());
}

#[test]
fn unannotated_lpm_stays_on_server() {
    use gallium::mir::FuncBuilder;
    let mut b = FuncBuilder::new("t");
    let rib = b.decl_lpm("rib", 32, vec![8], None); // no size annotation
    let d = b.read_field(HeaderField::IpDaddr);
    let hit = b.lpm_get(rib, d);
    let null = b.is_null(hit);
    let t = b.new_block();
    let e = b.new_block();
    b.branch(null, t, e);
    b.switch_to(t);
    b.drop_pkt();
    b.ret();
    b.switch_to(e);
    b.send();
    b.ret();
    let prog = b.finish().unwrap();
    let compiled = compile(&prog, &SwitchModel::tofino_like()).unwrap();
    assert!(!compiled.staged.fully_offloaded());
    assert!(compiled.p4.tables.is_empty());
}

#[test]
fn switch_side_respelled_route_breaks_consistency() {
    // The switch's LPM table reads back: after provisioning 10.0.0.0/8 → A,
    // installing another spelling of the same prefix (10.1.2.3/8 → B)
    // directly on the switch replaces the route there but not in the
    // server's store, and the consistency check must see the divergence.
    use gallium::switchsim::ControlPlane;

    let r = prefix_router();
    let compiled = compile(&r.prog, &SwitchModel::tofino_like()).unwrap();
    let mut d =
        Deployment::new(&compiled, SwitchConfig::default(), CostModel::calibrated()).unwrap();
    let r2 = r.clone();
    d.configure(move |s| r2.add_route(s, parse_addr("10.0.0.0").unwrap(), 8, 0xAA))
        .unwrap();
    assert!(d.replicated_consistent());
    let routes = d.switch.table("routes").unwrap();
    assert_eq!(routes.len(), 1, "the configured route reads back");
    let before = routes.entries();

    let op = d.server.initial_sync().remove(0);
    let gallium::p4::ControlPlaneOp::LpmInsert { table, value, .. } = op else {
        panic!("the router provisions one LPM route, got {op:?}");
    };
    let mut other = value.clone();
    other[0] ^= 0xFF;
    d.switch
        .control(&gallium::p4::ControlPlaneOp::LpmInsert {
            table,
            prefix: u64::from(parse_addr("10.1.2.3").unwrap()),
            prefix_len: 8,
            value: other,
        })
        .unwrap();
    let routes = d.switch.table("routes").unwrap();
    assert_eq!(routes.len(), 1, "the respelled prefix replaced the route");
    assert_ne!(routes.entries(), before);
    assert!(
        !d.replicated_consistent(),
        "a switch route that differs from the server's must be reported"
    );
}
