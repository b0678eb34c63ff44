//! Provisioning: `Deployment::configure` bulk-loads the switch-resident
//! state straight from the server's store. It must leave the switch
//! exactly as replaying `initial_sync()` through the control plane, one
//! operation per entry, does — entries, LPM routes, registers, cache-mode
//! evictions and the error that stops a load that does not fit.

use gallium::core::{compile, DeployError, Deployment};
use gallium::middleboxes::{all_evaluated, lb, minilb, router};
use gallium::mir::{Program, StateId, StateKind, StateStore};
use gallium::prelude::*;
use gallium::switchsim::{ControlError, ControlPlane};

/// Deterministic xorshift stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn bits(&mut self, width: u8) -> u64 {
        self.next() & (u64::MAX >> (64 - u32::from(width.clamp(1, 64))))
    }
}

/// Fill every map with `n` entries, every LPM table with `n` routes and
/// every register with a value, shaped by the declared widths.
fn fill(prog: &Program, store: &mut StateStore, n: usize, seed: u64) {
    let mut r = Rng(seed | 1);
    for (i, st) in prog.states.iter().enumerate() {
        let sid = StateId(i as u32);
        match &st.kind {
            StateKind::Map {
                key_widths,
                value_widths,
                ..
            } => {
                for _ in 0..n {
                    let key = key_widths.iter().map(|&w| r.bits(w)).collect();
                    let value = value_widths.iter().map(|&w| r.bits(w)).collect();
                    store.map_put(sid, key, value).unwrap();
                }
            }
            StateKind::LpmMap {
                key_width,
                value_widths,
                ..
            } => {
                for _ in 0..n {
                    let len = (r.next() % (u64::from(*key_width) + 1)) as u8;
                    let value = value_widths.iter().map(|&w| r.bits(w)).collect();
                    store.lpm_put(sid, r.bits(*key_width), len, value).unwrap();
                }
            }
            StateKind::Register { width } => store.reg_write(sid, r.bits(*width)).unwrap(),
            StateKind::Vector { .. } => {}
        }
    }
}

/// One table as provisioning left it: name, length, entries, evictions.
type TableState = (String, usize, Vec<(Vec<u64>, Vec<u64>)>, u64);

/// Everything provisioning leaves on the switch.
#[derive(Debug, PartialEq)]
struct SwitchState {
    tables: Vec<TableState>,
    registers: Vec<(String, Option<u64>)>,
    evictions: Vec<(String, Vec<u64>)>,
}

fn switch_state(d: &mut Deployment) -> SwitchState {
    let prog = d.switch.program().clone();
    SwitchState {
        tables: prog
            .tables
            .iter()
            .map(|t| {
                let rt = d.switch.table(&t.name).unwrap();
                (
                    t.name.clone(),
                    rt.len(),
                    rt.entries(),
                    rt.stats.evictions.get(),
                )
            })
            .collect(),
        registers: prog
            .registers
            .iter()
            .map(|r| (r.name.clone(), d.switch.register(&r.name)))
            .collect(),
        evictions: d.switch.drain_evictions(),
    }
}

/// Provision two fresh deployments of `prog` with the same contents, one
/// through `configure` and one by replaying `initial_sync`, and compare
/// the outcome and the switches. Returns the outcome.
fn assert_bulk_equals_replay(
    name: &str,
    prog: &Program,
    caches: &[(StateId, usize)],
    n: usize,
) -> Result<(), ControlError> {
    let compiled = compile(prog, &SwitchModel::tofino_like()).unwrap();
    let deploy = || {
        let (cfg, cost) = (SwitchConfig::default(), CostModel::calibrated());
        if caches.is_empty() {
            Deployment::new(&compiled, cfg, cost).unwrap()
        } else {
            Deployment::new_cached(&compiled, cfg, cost, caches).unwrap()
        }
    };
    let seed = 0x9E37_79B9 ^ n as u64;

    let mut bulk = deploy();
    let bulk_res = match bulk.configure(|s| fill(prog, s, n, seed)) {
        Ok(()) => Ok(()),
        Err(DeployError::Control(e)) => Err(e),
        Err(e) => panic!("{name}: configure failed outside the control plane: {e}"),
    };

    let mut ops = deploy();
    fill(prog, ops.server.store_mut(), n, seed);
    let ops_res: Result<(), ControlError> = ops
        .server
        .initial_sync()
        .iter()
        .try_for_each(|op| ops.switch.control(op).map(|_| ()));

    assert_eq!(bulk_res, ops_res, "{name} ({n} entries): outcome");
    let (b, o) = (switch_state(&mut bulk), switch_state(&mut ops));
    if n > 0 && !b.tables.is_empty() {
        assert!(
            b.tables.iter().any(|t| t.1 > 0),
            "{name}: the load reached the switch"
        );
    }
    assert_eq!(b, o, "{name} ({n} entries): switch state");
    if let Some(&(_, cap)) = caches.first() {
        assert_eq!(
            b.evictions.len(),
            n.saturating_sub(cap),
            "{name}: cache evictions"
        );
    }
    bulk_res
}

#[test]
fn bulk_load_equals_control_plane_replay() {
    let mut programs = all_evaluated();
    programs.push(("MiniLB", minilb::minilb().prog));
    programs.push(("Prefix router", router::prefix_router().prog));
    for (name, prog) in &programs {
        // 1100 entries overflow the proxy's 1024-entry port table, so the
        // error path is compared too.
        for n in [0, 1, 300, 1100] {
            let res = assert_bulk_equals_replay(name, prog, &[], n);
            if *name == "Proxy" && n == 1100 {
                assert!(
                    matches!(res, Err(ControlError::TableFull { .. })),
                    "the proxy's port table overflows: {res:?}"
                );
            }
        }
    }
}

#[test]
fn cached_bulk_load_evicts_as_control_plane_replay() {
    let l = lb::load_balancer();
    for n in [3, 16, 17, 500] {
        assert_bulk_equals_replay("cached LB", &l.prog, &[(l.conn, 16)], n).unwrap();
    }
}
