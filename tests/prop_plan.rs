//! Property-based differential testing of the compiled dataplane plan.
//!
//! The PR 3 plan compiler ([`gallium::switchsim::ExecPlan`]) lowers the
//! loaded P4 program into a flat opcode stream at load time; this suite is
//! the correctness contract behind making it the default path. For random
//! packet streams over random flow mixes, a deployment on the compiled
//! plan and one on the reference AST interpreter must be observationally
//! identical for every packaged middlebox:
//!
//! * emitted packets — egress ports and exact bytes, in order;
//! * deployment / switch / server counters (fast vs slow path, drops,
//!   cache misses);
//! * per-table telemetry hit/miss/eviction counters;
//! * the final authoritative state store and switch-replicated state;
//! * cache mode (§7): FIFO eviction order and replay behaviour under a
//!   deliberately thrashed 2-entry cache.

use gallium::middleboxes::{firewall, lb, mazunat, minilb, proxy, router, trojan};
use gallium::middleboxes::{EXTERNAL_PORT, INTERNAL_PORT};
use gallium::mir::StateId;
use gallium::prelude::*;
use proptest::prelude::*;

/// One generated packet: indices into small pools, so streams mix
/// repeated flows (hits) with fresh ones (misses/inserts).
type Desc = (u32, u32, u16, usize, usize, u8);

const DPORTS: [u16; 7] = [22, 21, 80, 80, 443, 6667, 3128];
const FLAGS: [u8; 5] = [
    TcpFlags::SYN,
    TcpFlags::ACK,
    TcpFlags::ACK,
    TcpFlags::FIN | TcpFlags::ACK,
    TcpFlags::RST,
];

fn desc() -> impl Strategy<Value = Desc> {
    (0u32..9, 0u32..5, 0u16..4, 0usize..7, 0usize..5, 0u8..8)
}

fn stream(max: usize) -> impl Strategy<Value = Vec<Desc>> {
    proptest::collection::vec(desc(), 1..max)
}

fn packet(d: &Desc) -> Packet {
    let &(s, da, sp, dp, fl, misc) = d;
    // One descriptor pattern in eight probes the NAT's external mapping
    // range from the outside; the rest are forward-direction traffic from
    // either network.
    if misc == 7 {
        return PacketBuilder::tcp(
            FiveTuple {
                saddr: 0x0808_0404,
                daddr: mazunat::NAT_EXTERNAL_IP,
                sport: 443,
                dport: mazunat::NAT_PORT_BASE + sp,
                proto: IpProtocol::Tcp,
            },
            TcpFlags(TcpFlags::ACK),
            96,
        )
        .build(PortId(EXTERNAL_PORT));
    }
    let ingress = if misc & 1 == 0 {
        INTERNAL_PORT
    } else {
        EXTERNAL_PORT
    };
    PacketBuilder::tcp(
        FiveTuple {
            saddr: 0x0A00_0000 + s,
            daddr: 0x0B00_0000 + da,
            sport: 1024 + sp,
            dport: DPORTS[dp],
            proto: IpProtocol::Tcp,
        },
        TcpFlags(FLAGS[fl]),
        64 + 8 * usize::from(misc),
    )
    .build(PortId(ingress))
}

/// Stand up plan + interpreter deployments of `prog` (optionally in cache
/// mode), drive the identical stream through both, and assert every
/// observable artifact matches.
fn assert_equiv(
    prog: &Program,
    configure: impl Fn(&mut StateStore),
    caches: &[(StateId, usize)],
    descs: &[Desc],
) -> TestCaseResult {
    let compiled = compile(prog, &SwitchModel::tofino_like()).expect("compiles");
    let (mut plan, mut interp) = if caches.is_empty() {
        (
            Deployment::new(&compiled, SwitchConfig::default(), CostModel::calibrated()).unwrap(),
            Deployment::new_interpreter(
                &compiled,
                SwitchConfig::default(),
                CostModel::calibrated(),
            )
            .unwrap(),
        )
    } else {
        (
            Deployment::new_cached(
                &compiled,
                SwitchConfig::default(),
                CostModel::calibrated(),
                caches,
            )
            .unwrap(),
            Deployment::new_cached_interpreter(
                &compiled,
                SwitchConfig::default(),
                CostModel::calibrated(),
                caches,
            )
            .unwrap(),
        )
    };
    prop_assert!(plan.switch.uses_plan(), "plan deployment compiled a plan");
    prop_assert!(!interp.switch.uses_plan(), "interpreter stayed on the AST");
    plan.configure(|s| configure(s)).unwrap();
    interp.configure(|s| configure(s)).unwrap();
    assert_observably_equal(&mut plan, &mut interp, descs)
}

/// Drive the identical stream through two deployments and assert every
/// observable artifact matches: emissions (ports and exact bytes), all
/// counter families, per-table telemetry, eviction queues, the
/// authoritative state store, and switch-replicated state. Used both for
/// plan ≡ interpreter and for fused ≡ unfused plan comparisons.
fn assert_observably_equal(
    plan: &mut Deployment,
    interp: &mut Deployment,
    descs: &[Desc],
) -> TestCaseResult {
    for (i, d) in descs.iter().enumerate() {
        let p = packet(d);
        let a = plan.inject(p.clone());
        let b = interp.inject(p);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.len(), b.len(), "pkt {}: emission count", i);
                for (j, ((pa, fa), (pb, fb))) in a.iter().zip(&b).enumerate() {
                    prop_assert_eq!(pa, pb, "pkt {} emission {}: egress port", i, j);
                    prop_assert_eq!(fa.bytes(), fb.bytes(), "pkt {} emission {}: bytes", i, j);
                }
            }
            (Err(ea), Err(eb)) => {
                prop_assert_eq!(
                    ea.to_string(),
                    eb.to_string(),
                    "pkt {}: both errored but differently",
                    i
                );
            }
            (a, b) => {
                prop_assert!(
                    false,
                    "pkt {}: one engine errored (plan ok={}, interp ok={})",
                    i,
                    a.is_ok(),
                    b.is_ok()
                );
            }
        }
    }

    prop_assert_eq!(plan.stats, interp.stats, "deployment stats");
    prop_assert_eq!(plan.switch.stats, interp.switch.stats, "switch stats");
    prop_assert_eq!(plan.server.stats, interp.server.stats, "server stats");
    prop_assert!(
        plan.server.store == interp.server.store,
        "authoritative state stores diverge"
    );
    // Per-table telemetry counters must agree: the plan's lookup path and
    // the interpreter's must count the same hits/misses/evictions.
    let table_names: Vec<String> = plan
        .switch
        .program()
        .tables
        .iter()
        .map(|t| t.name.clone())
        .collect();
    for name in &table_names {
        let a = &plan.switch.table(name).unwrap().stats;
        let b = &interp.switch.table(name).unwrap().stats;
        prop_assert_eq!(a.hits.get(), b.hits.get(), "table {}: hits", name);
        prop_assert_eq!(a.misses.get(), b.misses.get(), "table {}: misses", name);
        prop_assert_eq!(
            a.evictions.get(),
            b.evictions.get(),
            "table {}: evictions",
            name
        );
    }
    prop_assert_eq!(
        plan.switch.drain_evictions(),
        interp.switch.drain_evictions(),
        "eviction queues"
    );
    prop_assert!(plan.replicated_consistent(), "plan replicated state");
    prop_assert!(interp.replicated_consistent(), "interp replicated state");
    Ok(())
}

/// Control-plane set-up of a deployment under test.
type Configure = Box<dyn Fn(&mut StateStore)>;

/// Middlebox `which` of the batch ≡ per-packet differential: its
/// program, its control-plane set-up and its cached tables.
fn batch_case(which: usize) -> (Program, Configure, Vec<(StateId, usize)>) {
    let lb_backends = |backends: StateId| -> Configure {
        Box::new(move |s| {
            s.vec_set_all(backends, vec![0xC0A8_0001, 0xC0A8_0002, 0xC0A8_0003])
                .unwrap()
        })
    };
    match which {
        0 => (mazunat::mazunat().prog, Box::new(|_| {}), Vec::new()),
        1 => {
            let l = lb::load_balancer();
            (l.prog, lb_backends(l.backends), Vec::new())
        }
        2 => {
            let l = lb::load_balancer();
            (l.prog, lb_backends(l.backends), vec![(l.conn, 16)])
        }
        _ => {
            // Routes cover 11.0.0.0–11.0.0.3 at two prefix lengths; the
            // generator's 11.0.0.4 and the NAT probes' address have no
            // route and are dropped.
            let r = router::prefix_router();
            let cfg = r.clone();
            let configure: Configure = Box::new(move |s| {
                cfg.add_route(s, 0x0B00_0000, 30, 0xAA);
                cfg.add_route(s, 0x0B00_0002, 31, 0xBB);
            });
            (r.prog, configure, Vec::new())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mazunat_plan_equals_interpreter(descs in stream(40)) {
        let nat = mazunat::mazunat();
        assert_equiv(&nat.prog, |_| {}, &[], &descs)?;
    }

    #[test]
    fn lb_plan_equals_interpreter(descs in stream(40)) {
        let l = lb::load_balancer();
        let backends = l.backends;
        assert_equiv(
            &l.prog,
            move |s| s.vec_set_all(backends, vec![0xC0A8_0001, 0xC0A8_0002, 0xC0A8_0003]).unwrap(),
            &[],
            &descs,
        )?;
    }

    #[test]
    fn firewall_plan_equals_interpreter(descs in stream(40)) {
        let fw = firewall::firewall();
        let cfg = fw.clone();
        assert_equiv(
            &fw.prog,
            move |s| {
                // Whitelist part of the generator's flow space so streams
                // mix passes with drops.
                for saddr in 0..4u32 {
                    for daddr in 0..5u32 {
                        for sport in 0..4u16 {
                            cfg.allow(s, &FiveTuple {
                                saddr: 0x0A00_0000 + saddr,
                                daddr: 0x0B00_0000 + daddr,
                                sport: 1024 + sport,
                                dport: 80,
                                proto: IpProtocol::Tcp,
                            });
                        }
                    }
                }
            },
            &[],
            &descs,
        )?;
    }

    #[test]
    fn proxy_plan_equals_interpreter(descs in stream(40)) {
        let px = proxy::proxy(0x0A09_0909, 3128);
        let cfg = px.clone();
        assert_equiv(&px.prog, move |s| cfg.intercept(s, 80), &[], &descs)?;
    }

    #[test]
    fn trojan_plan_equals_interpreter(descs in stream(40)) {
        let tr = trojan::trojan_detector();
        assert_equiv(&tr.prog, |_| {}, &[], &descs)?;
    }

    #[test]
    fn minilb_plan_equals_interpreter(descs in stream(40)) {
        let ml = minilb::minilb();
        let backends = ml.backends;
        assert_equiv(
            &ml.prog,
            move |s| s.vec_set_all(backends, vec![0xC0A8_0001, 0xC0A8_0002]).unwrap(),
            &[],
            &descs,
        )?;
    }

    /// The exact-match table (keys inline in the slot array, up to six
    /// words here) must be observationally identical
    /// to a plain `Vec<u64>`-keyed map with an explicit FIFO queue — the
    /// exact data structure it replaced. Random op streams over a small
    /// key domain (widths 1..=6, so both representations are exercised)
    /// drive a 3-entry cache-mode table and the model side by side.
    #[test]
    fn inline_key_table_equals_vec_keyed_model(
        ops in proptest::collection::vec(
            (0u8..3, proptest::collection::vec(0u64..4, 1..=6), 0u64..100),
            1..120,
        )
    ) {
        use std::collections::{HashMap, VecDeque};

        const CAP: usize = 3;
        let mut table = gallium::switchsim::RtTable::new(CAP);
        table.make_cache(CAP);

        let mut model: HashMap<Vec<u64>, Vec<u64>> = HashMap::new();
        let mut order: VecDeque<Vec<u64>> = VecDeque::new();

        for (i, (op, key, val)) in ops.iter().enumerate() {
            match op {
                0 => {
                    let evicted = table
                        .insert_main(key, &[*val])
                        .expect("cache-mode insert cannot fail");
                    // Model: FIFO position fixed at first insert.
                    let mut model_evicted = Vec::new();
                    if !model.contains_key(key) {
                        while model.len() >= CAP {
                            let old = order.pop_front().unwrap();
                            model.remove(&old);
                            model_evicted.push(old);
                        }
                        order.push_back(key.clone());
                    }
                    model.insert(key.clone(), vec![*val]);
                    prop_assert_eq!(&evicted, &model_evicted, "op {}: evictions", i);
                }
                1 => {
                    let got = table.lookup_ref(key, false);
                    prop_assert_eq!(
                        got,
                        model.get(key).map(Vec::as_slice),
                        "op {}: lookup", i
                    );
                }
                _ => {
                    table.delete_main(key);
                    model.remove(key);
                    order.retain(|k| k != key);
                }
            }
            prop_assert_eq!(table.len(), model.len(), "op {}: len", i);
        }

        let mut got: Vec<_> = table.entries();
        let mut want: Vec<_> = model.into_iter().collect();
        got.sort();
        want.sort();
        prop_assert_eq!(got, want, "final entry sets");
    }

    /// `inject_batch_into` must be observationally identical to calling
    /// `inject` per packet: same emissions (ports and bytes, in order),
    /// same counters, same authoritative state. The batch side is driven
    /// in chunks through one reused buffer to exercise the append (not
    /// clear) contract across calls. The middlebox is an input: MazuNAT
    /// (pure fast path plus NAT misses), the L4 LB (slow path and
    /// `Foreign`), a 16-entry cached LB (cache-miss replays inside a
    /// burst) and the prefix router (LPM, routed and dropped packets).
    #[test]
    fn inject_batch_equals_per_packet_inject(which in 0usize..4, descs in stream(40)) {
        let (prog, configure, caches) = batch_case(which);
        let compiled = compile(&prog, &SwitchModel::tofino_like()).expect("compiles");
        let deploy = || {
            let (cfg, cost) = (SwitchConfig::default(), CostModel::calibrated());
            let mut d = if caches.is_empty() {
                Deployment::new(&compiled, cfg, cost).unwrap()
            } else {
                Deployment::new_cached(&compiled, cfg, cost, &caches).unwrap()
            };
            d.configure(|s| configure(s)).unwrap();
            d
        };
        let mut seq = deploy();
        let mut bat = deploy();

        let mut expected = Vec::new();
        for d in &descs {
            expected.extend(seq.inject(packet(d)).unwrap());
        }

        let mut out = Vec::new();
        let mut done = 0;
        for chunk in descs.chunks(8) {
            done += bat
                .inject_batch_into(chunk.iter().map(packet), &mut out)
                .unwrap();
        }
        prop_assert_eq!(done, descs.len(), "all packets processed");
        prop_assert_eq!(out.len(), expected.len(), "emission count");
        for (i, ((pa, fa), (pb, fb))) in out.iter().zip(&expected).enumerate() {
            prop_assert_eq!(pa, pb, "emission {}: egress port", i);
            prop_assert_eq!(fa.bytes(), fb.bytes(), "emission {}: bytes", i);
        }
        prop_assert_eq!(seq.stats, bat.stats, "deployment stats");
        prop_assert_eq!(seq.switch.stats, bat.switch.stats, "switch stats");
        prop_assert_eq!(seq.server.stats, bat.server.stats, "server stats");
        prop_assert!(seq.server.store == bat.server.store, "state stores diverge");
        prop_assert!(bat.replicated_consistent(), "batch replicated state");
    }

    /// The in-place slot store (Robin-Hood insert, backward-shift delete,
    /// doubling growth, stride widening) must stay bit-identical to a
    /// `HashMap` model with an explicit FIFO queue and a shadow map, under
    /// random interleavings of inserts, overwrites with values of other
    /// widths, deletes, lookups with the write-back bit clear or set,
    /// staged updates and tombstones, and shadow drains. Keys are 0–6
    /// words over a small alphabet, so prefixes, wide keys and repeated
    /// keys all occur; the three table modes are a roomy plain table (it
    /// grows and forms long runs that deletes must close), a small plain
    /// table that hits its capacity, and a small FIFO cache.
    #[test]
    fn slot_store_equals_map_model(
        mode in 0u8..3,
        ops in proptest::collection::vec(
            (
                0u8..7,
                proptest::collection::vec(0u64..3, 0..=6),
                proptest::collection::vec(0u64..100, 0..=3),
            ),
            1..240,
        )
    ) {
        use std::collections::{HashMap, VecDeque};

        let (cap, cache) = match mode {
            0 => (1 << 16, false),
            1 => (12, false),
            _ => (5, true),
        };
        let mut table = gallium::switchsim::RtTable::new(cap);
        if cache {
            table.make_cache(cap);
        }
        let mut model: HashMap<Vec<u64>, Vec<u64>> = HashMap::new();
        let mut order: VecDeque<Vec<u64>> = VecDeque::new();
        let mut shadow: HashMap<Vec<u64>, Option<Vec<u64>>> = HashMap::new();
        let model_get = |model: &HashMap<Vec<u64>, Vec<u64>>,
                         shadow: &HashMap<Vec<u64>, Option<Vec<u64>>>,
                         key: &Vec<u64>,
                         wb: bool| {
            match shadow.get(key) {
                Some(staged) if wb => staged.clone(),
                _ => model.get(key).cloned(),
            }
        };

        for (i, (op, key, val)) in ops.iter().enumerate() {
            match op {
                0 | 1 => {
                    let got = table.insert_main(key, val);
                    let mut model_evicted = Vec::new();
                    if !model.contains_key(key) && model.len() >= cap {
                        if !cache {
                            prop_assert!(got.is_err(), "op {}: full insert must fail", i);
                            continue;
                        }
                        while model.len() >= cap {
                            let old = order.pop_front().unwrap();
                            model.remove(&old);
                            model_evicted.push(old);
                        }
                    }
                    if cache && !model.contains_key(key) {
                        order.push_back(key.clone());
                    }
                    model.insert(key.clone(), val.clone());
                    prop_assert_eq!(got.expect("insert fits"), model_evicted, "op {}: evictions", i);
                }
                2 => {
                    table.delete_main(key);
                    model.remove(key);
                    order.retain(|k| k != key);
                    shadow.remove(key);
                }
                3 => {
                    let staged = (val.len() != 1).then(|| val.clone());
                    table.stage(key.clone(), staged.clone());
                    shadow.insert(key.clone(), staged);
                }
                4 if val.len() == 3 => {
                    table.drain_shadow();
                    shadow.clear();
                }
                _ => {
                    let wb = val.len() % 2 == 1;
                    prop_assert_eq!(
                        table.lookup_ref(key, wb).map(<[u64]>::to_vec),
                        model_get(&model, &shadow, key, wb),
                        "op {}: lookup (wb {})", i, wb
                    );
                }
            }
            prop_assert_eq!(table.len(), model.len(), "op {}: len", i);
            prop_assert_eq!(table.shadow_len(), shadow.len(), "op {}: shadow len", i);
        }

        // Every resident key answers, and so does a set of absent ones.
        for (k, v) in &model {
            prop_assert_eq!(table.lookup_ref(k, false), Some(v.as_slice()), "final hit sweep");
        }
        for (_, key, _) in &ops {
            let mut absent = key.clone();
            absent.push(7);
            prop_assert_eq!(table.lookup_ref(&absent, false), None, "final miss sweep");
        }
        let got: Vec<_> = table.entries();
        let mut want: Vec<_> = model.into_iter().collect();
        want.sort();
        prop_assert_eq!(got, want, "final entry sets");
    }

    /// Cache mode (§7): a 2-entry FIFO cache on the LB connection table.
    /// Any stream with ≥3 distinct flows thrashes it, exercising eviction
    /// on the control-plane fill path and cache-miss→replay on the data
    /// path — both must match the interpreter event for event.
    #[test]
    fn lb_cached_eviction_and_replay(descs in stream(60)) {
        let l = lb::load_balancer();
        let backends = l.backends;
        let caches = [(l.conn, 2usize)];
        assert_equiv(
            &l.prog,
            move |s| s.vec_set_all(backends, vec![0xC0A8_0001, 0xC0A8_0002, 0xC0A8_0003]).unwrap(),
            &caches,
            &descs,
        )?;
    }
}

// ---- PR 8: register-allocating expression compiler ------------------------

use gallium::mir::{BinOp, HeaderField};
use gallium::p4::P4Expr;
use gallium::switchsim::expr_check;

/// Metadata pool available to generated expressions: mixed declared
/// widths, including sub-word slots whose seeds may exceed the width
/// (mirroring how table values land in slots unmasked at runtime).
const META_DECLS: [(&str, u16); 4] = [("m0", 8), ("m1", 16), ("m2", 32), ("m3", 64)];

fn expr_metas(seeds: [u64; 4]) -> Vec<(String, u16, u64)> {
    META_DECLS
        .iter()
        .zip(seeds)
        .map(|((name, bits), v)| (name.to_string(), *bits, v))
        .collect()
}

/// Self-contained splitmix64 driving the recursive expression generator
/// (the vendored proptest stub has no recursive strategy combinator, so
/// the strategy supplies one seed and the tree unfolds deterministically).
struct XRng(u64);

impl XRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const GEN_OPS: [BinOp; 16] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Mod,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
];

const GEN_HEADERS: [HeaderField; 4] = [
    HeaderField::IpSaddr,
    HeaderField::IpDaddr,
    HeaderField::SrcPort,
    HeaderField::DstPort,
];

/// Random expression tree. Leaves are weighted toward the constants the
/// compiler folds aggressively (0, 1, MAX, small shift counts ≥ 64) so
/// div/mod-by-zero, shift-out-of-range, and algebraic-identity paths are
/// hit constantly; interior nodes cover every operator including the
/// non-P4 Mul/Div/Mod.
fn gen_expr(r: &mut XRng, depth: u32) -> P4Expr {
    if depth == 0 || r.below(4) == 0 {
        return match r.below(8) {
            0 => P4Expr::Const(r.next(), 64),
            1 => P4Expr::Const(r.below(3), 8),
            2 => P4Expr::Const(u64::MAX, 64),
            3 => P4Expr::Const(60 + r.below(10), 8),
            4 | 5 => P4Expr::Meta(format!("m{}", r.below(4))),
            6 => P4Expr::Header(GEN_HEADERS[r.below(4) as usize]),
            _ => P4Expr::IngressPort,
        };
    }
    match r.below(8) {
        0..=4 => {
            let op = GEN_OPS[r.below(16) as usize];
            P4Expr::Bin(
                op,
                Box::new(gen_expr(r, depth - 1)),
                Box::new(gen_expr(r, depth - 1)),
            )
        }
        5 => P4Expr::Not(Box::new(gen_expr(r, depth - 1))),
        6 => P4Expr::Cast(Box::new(gen_expr(r, depth - 1)), (r.below(64) + 1) as u8),
        _ => {
            let n = 1 + r.below(3) as usize;
            let parts = (0..n).map(|_| gen_expr(r, depth - 1)).collect();
            P4Expr::Hash(parts, (r.below(64) + 1) as u8)
        }
    }
}

/// Deterministic edge cases the random generator covers only
/// probabilistically: div/mod by zero, shifts ≥ 64, narrowing cast
/// chains, and self-referential operands (which the compiler folds).
#[test]
fn compiled_expr_edge_cases() {
    let metas = expr_metas([0xFFFF_FFFF_FFFF_FFFF, 0x1234, 7, 0]);
    let pkt = packet(&(1, 2, 1, 2, 1, 0));
    let m = |n: &str| Box::new(P4Expr::Meta(n.to_string()));
    let c = |v: u64| Box::new(P4Expr::Const(v, 64));
    let cases = [
        P4Expr::Bin(BinOp::Div, m("m0"), c(0)),
        P4Expr::Bin(BinOp::Mod, m("m0"), c(0)),
        P4Expr::Bin(BinOp::Div, m("m0"), m("m3")),
        P4Expr::Bin(BinOp::Mod, m("m2"), m("m3")),
        P4Expr::Bin(BinOp::Shl, m("m0"), c(64)),
        P4Expr::Bin(BinOp::Shr, m("m0"), c(65)),
        P4Expr::Bin(BinOp::Shl, m("m0"), m("m1")),
        P4Expr::Bin(BinOp::Sub, m("m1"), m("m1")),
        P4Expr::Bin(BinOp::Xor, m("m0"), m("m0")),
        P4Expr::Cast(Box::new(P4Expr::Cast(m("m0"), 48)), 12),
        P4Expr::Cast(m("m0"), 64),
        P4Expr::Not(c(0)),
        P4Expr::Hash(vec![P4Expr::Const(1, 64), P4Expr::Const(2, 64)], 16),
        P4Expr::Hash(vec![P4Expr::Meta("m0".into()), P4Expr::IngressPort], 32),
        // Sub-width slot seeded past its declared width: reads must see
        // the raw value, not a re-masked one.
        P4Expr::Bin(BinOp::Add, m("m0"), c(1)),
    ];
    for (i, e) in cases.iter().enumerate() {
        let want = expr_check::reference_eval(e, &metas, &pkt);
        let fused = expr_check::compiled_eval(e, &metas, &pkt, true).expect("fused compiles");
        let unfused = expr_check::compiled_eval(e, &metas, &pkt, false).expect("unfused compiles");
        assert_eq!(fused, want, "case {i}: fused");
        assert_eq!(unfused, want, "case {i}: unfused");
    }
}

/// A middlebox program paired with its standard state configuration.
type ConfiguredProgram = (Program, Box<dyn Fn(&mut StateStore)>);

/// All six packaged middleboxes with their standard state configuration,
/// for properties that sweep the whole program suite.
fn all_middleboxes() -> Vec<ConfiguredProgram> {
    let mut out: Vec<ConfiguredProgram> = Vec::new();
    let nat = mazunat::mazunat();
    out.push((nat.prog, Box::new(|_| {})));
    let l = lb::load_balancer();
    let backends = l.backends;
    out.push((
        l.prog,
        Box::new(move |s| {
            s.vec_set_all(backends, vec![0xC0A8_0001, 0xC0A8_0002, 0xC0A8_0003])
                .unwrap()
        }),
    ));
    let fw = firewall::firewall();
    let cfg = fw.clone();
    out.push((
        fw.prog,
        Box::new(move |s| {
            for saddr in 0..3u32 {
                for sport in 0..3u16 {
                    cfg.allow(
                        s,
                        &FiveTuple {
                            saddr: 0x0A00_0000 + saddr,
                            daddr: 0x0B00_0000,
                            sport: 1024 + sport,
                            dport: 80,
                            proto: IpProtocol::Tcp,
                        },
                    );
                }
            }
        }),
    ));
    let px = proxy::proxy(0x0A09_0909, 3128);
    let pcfg = px.clone();
    out.push((px.prog, Box::new(move |s| pcfg.intercept(s, 80))));
    let tr = trojan::trojan_detector();
    out.push((tr.prog, Box::new(|_| {})));
    let ml = minilb::minilb();
    let mbackends = ml.backends;
    out.push((
        ml.prog,
        Box::new(move |s| {
            s.vec_set_all(mbackends, vec![0xC0A8_0001, 0xC0A8_0002])
                .unwrap()
        }),
    ));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The register-allocating expression compiler (fused and unfused)
    /// must agree bit-for-bit with the AST interpreter's evaluator on
    /// random expression trees — including width masking, div/mod by
    /// zero, oversized shifts, and unmasked metadata seeds.
    #[test]
    fn compiled_expr_equals_reference(
        seed in any::<u64>(),
        s0 in any::<u64>(),
        s1 in any::<u64>(),
        s2 in any::<u64>(),
        s3 in any::<u64>(),
        d in desc(),
    ) {
        let mut r = XRng(seed);
        let expr = gen_expr(&mut r, 4);
        let metas = expr_metas([s0, s1, s2, s3]);
        let pkt = packet(&d);
        let want = expr_check::reference_eval(&expr, &metas, &pkt);
        let fused = expr_check::compiled_eval(&expr, &metas, &pkt, true)
            .expect("fused compiles");
        let unfused = expr_check::compiled_eval(&expr, &metas, &pkt, false)
            .expect("unfused compiles");
        prop_assert_eq!(fused, want, "fused vs reference");
        prop_assert_eq!(unfused, want, "unfused vs reference");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The fused plan (`BuildKeyProbe` superinstructions, CSE across
    /// statements, dead-store elimination, folded branches) must be
    /// observationally identical to the unfused statement-per-op lowering
    /// for every packaged middlebox.
    #[test]
    fn fused_probe_equals_unfused_sequence(descs in stream(24)) {
        for (prog, configure) in all_middleboxes() {
            let compiled = compile(&prog, &SwitchModel::tofino_like()).expect("compiles");
            let mut fused = Deployment::new(
                &compiled,
                SwitchConfig::default(),
                CostModel::calibrated(),
            )
            .unwrap();
            let unfused_cfg = SwitchConfig {
                plan_fusion: false,
                ..SwitchConfig::default()
            };
            let mut unfused = Deployment::new(
                &compiled,
                unfused_cfg,
                CostModel::calibrated(),
            )
            .unwrap();
            fused.configure(|s| configure(s)).unwrap();
            unfused.configure(|s| configure(s)).unwrap();
            assert_observably_equal(&mut fused, &mut unfused, &descs)?;
        }
    }
}

/// The linear-scan LPM table the per-length [`gallium::mir::LpmIndex`]
/// replaced, kept as the reference model: canonical `(prefix, len, value)`
/// triples in installation order, a re-install moving its prefix to the
/// back, capacity errors raised before anything changes.
struct LinearLpm {
    width: u8,
    entries: Vec<(u64, u8, u64)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LpmModelError {
    TooLong,
    Full,
}

impl LinearLpm {
    fn new(width: u8) -> Self {
        LinearLpm {
            width,
            entries: Vec::new(),
        }
    }

    /// The prefix's `len` leading bits within the key width.
    fn canonical(&self, prefix: u64, len: u8) -> Result<u64, LpmModelError> {
        if len > self.width {
            return Err(LpmModelError::TooLong);
        }
        if len == 0 {
            return Ok(0);
        }
        let masked = prefix & (u64::MAX >> (64 - u32::from(self.width)));
        let shift = self.width - len;
        Ok((masked >> shift) << shift)
    }

    fn get(&self, key: u64) -> Option<u64> {
        let mut best: Option<(u8, u64)> = None;
        for &(prefix, len, value) in &self.entries {
            let matches = len == 0 || {
                let shift = self.width - len;
                (key >> shift) == (prefix >> shift)
            };
            if matches && best.is_none_or(|(bl, _)| len > bl) {
                best = Some((len, value));
            }
        }
        best.map(|(_, v)| v)
    }

    fn insert(
        &mut self,
        prefix: u64,
        len: u8,
        value: u64,
        capacity: usize,
        evict: bool,
    ) -> Result<Vec<(u64, u8)>, LpmModelError> {
        let prefix = self.canonical(prefix, len)?;
        let resident = self
            .entries
            .iter()
            .any(|&(p, l, _)| (p, l) == (prefix, len));
        let others = self.entries.len() - usize::from(resident);
        if others >= capacity && (!evict || capacity == 0) {
            return Err(LpmModelError::Full);
        }
        self.entries.retain(|&(p, l, _)| (p, l) != (prefix, len));
        let mut evicted = Vec::new();
        while self.entries.len() >= capacity {
            let (p, l, _) = self.entries.remove(0);
            evicted.push((p, l));
        }
        self.entries.push((prefix, len, value));
        Ok(evicted)
    }

    fn sorted(&self) -> Vec<(u64, u8, u64)> {
        let mut v = self.entries.clone();
        v.sort_unstable();
        v
    }
}

/// One switch LPM table under test beside its own model.
struct LpmUnderTest {
    name: &'static str,
    table: gallium::switchsim::RtTable,
    model: LinearLpm,
    capacity: usize,
    evict: bool,
}

fn table_error(e: gallium::switchsim::TableError) -> LpmModelError {
    match e {
        gallium::switchsim::TableError::PrefixTooLong { .. } => LpmModelError::TooLong,
        gallium::switchsim::TableError::CapacityExceeded { .. } => LpmModelError::Full,
        other => panic!("unexpected LPM error {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The per-length LPM index — bare, behind `StateStore` (server and
    /// reference interpreter) and behind `RtTable` (switch; unbounded,
    /// capacity-bounded and cache mode) — must answer exactly like the
    /// linear scan it replaced. Seeded sequences mix re-installs,
    /// non-canonical spellings (noise below the prefix and above the key
    /// width), `/0` and full-width routes, over-long prefixes, keys with
    /// bits above the width, capacity errors, cache shrinks down to zero
    /// capacity, and evictions, whose reported lists must match in order.
    #[test]
    fn lpm_index_equals_linear_scan_model(seed in any::<u64>()) {
        use gallium::mir::{GlobalState, LpmIndex, MirError, StateId, StateKind, StateStore};
        use gallium::switchsim::RtTable;

        let mut r = XRng(seed);
        let width = [1u8, 8, 16, 32, 64][r.below(5) as usize];
        let wmask = u64::MAX >> (64 - u32::from(width));
        // A few base addresses make prefixes collide and nest.
        let bases: Vec<u64> = (0..5).map(|_| r.next() & wmask).collect();
        let decl = GlobalState {
            name: "rib".into(),
            kind: StateKind::LpmMap {
                key_width: width,
                value_widths: vec![16],
                max_entries: None,
            },
        };
        let rib = StateId(0);
        let mut store = StateStore::new(std::slice::from_ref(&decl));
        let mut store_model = LinearLpm::new(width);
        let mut index: LpmIndex<u64> = LpmIndex::new(width);
        let mut index_model = LinearLpm::new(width);

        let bounded = r.below(6) as usize;
        let cached = r.below(5) as usize;
        let mut tables = [
            ("unbounded", 1 << 20, false),
            ("bounded", bounded, false),
            ("cache", cached, true),
        ]
        .map(|(name, capacity, evict)| {
            let mut table = RtTable::new(capacity);
            if evict {
                table.make_cache(capacity);
            }
            table.make_lpm(width);
            LpmUnderTest { name, table, model: LinearLpm::new(width), capacity, evict }
        });

        let ops = 40 + r.below(160);
        for i in 0..ops {
            let base = bases[r.below(bases.len() as u64) as usize];
            match r.below(10) {
                0..=4 => {
                    let len = match r.below(6) {
                        0 => 0,
                        1 => width,
                        2 => width + 1 + r.below(3) as u8,
                        _ => r.below(u64::from(width) + 1) as u8,
                    };
                    // Another spelling: noise below the prefix, sometimes
                    // bits above the key width.
                    let mut prefix = base;
                    if r.below(2) == 0 && len < width {
                        prefix ^= r.next() & (wmask >> len);
                    }
                    if r.below(4) == 0 && width < 64 {
                        prefix |= r.next() << width;
                    }
                    let value = r.below(1000);

                    let want = index_model.insert(prefix, len, value, usize::MAX, false);
                    let got = index.insert(prefix, len, value);
                    prop_assert_eq!(
                        got.map(|_| Vec::new()).map_err(|_| LpmModelError::TooLong),
                        want,
                        "op {}: index insert {:#x}/{}", i, prefix, len
                    );

                    let want = store_model.insert(prefix, len, value, usize::MAX, false);
                    match store.lpm_put(rib, prefix, len, vec![value]) {
                        Ok(()) => prop_assert!(want.is_ok(), "op {}: store accepted", i),
                        Err(MirError::PrefixTooLong { len: l, key_width }) => {
                            prop_assert_eq!((l, key_width), (len, width), "op {}", i);
                            prop_assert_eq!(want, Err(LpmModelError::TooLong), "op {}", i);
                        }
                        Err(e) => prop_assert!(false, "op {}: store error {}", i, e),
                    }

                    for t in &mut tables {
                        let want = t.model.insert(prefix, len, value, t.capacity, t.evict);
                        let got = t
                            .table
                            .lpm_insert(prefix, len, vec![value])
                            .map_err(table_error);
                        prop_assert_eq!(
                            got, want,
                            "op {}: {} insert {:#x}/{}", i, t.name, prefix, len
                        );
                    }
                }
                5 => {
                    // Shrink or regrow the cache, down to zero capacity.
                    let t = &mut tables[2];
                    t.capacity = r.below(4) as usize;
                    t.table.make_cache(t.capacity);
                }
                _ => {
                    let mut key = base;
                    if r.below(2) == 0 {
                        let kept = r.below(u64::from(width) + 1) as u32;
                        key ^= r.next() & wmask.checked_shr(kept).unwrap_or(0);
                    }
                    if r.below(5) == 0 && width < 64 {
                        key |= 1 << (u32::from(width) + r.below(64 - u64::from(width)) as u32);
                    }
                    prop_assert_eq!(
                        index.get(key).copied(),
                        index_model.get(key),
                        "op {}: index lookup {:#x}", i, key
                    );
                    prop_assert_eq!(
                        store.lpm_get(rib, key).unwrap(),
                        store_model.get(key).map(|v| vec![v]),
                        "op {}: store lookup {:#x}", i, key
                    );
                    for t in &tables {
                        let want = t.model.get(key);
                        prop_assert_eq!(
                            t.table.lookup_ref(&[key], false),
                            want.as_ref().map(std::slice::from_ref),
                            "op {}: {} lookup {:#x}", i, t.name, key
                        );
                    }
                }
            }
            prop_assert_eq!(index.len(), index_model.entries.len(), "op {}: index len", i);
        }

        let mut got: Vec<_> = index.iter().map(|(p, l, &v)| (p, l, v)).collect();
        got.sort_unstable();
        prop_assert_eq!(got, index_model.sorted(), "final index entries");
        let got: Vec<_> = store
            .lpm_entries(rib)
            .unwrap()
            .into_iter()
            .map(|(p, l, v)| (p, l, v[0]))
            .collect();
        prop_assert_eq!(got, store_model.sorted(), "final store entries");
    }
}
