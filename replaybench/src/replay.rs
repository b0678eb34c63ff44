//! The two timed passes every run makes over the stream: bursts through
//! `Deployment::inject_batch_into` for the rate, and packet by packet
//! through `Deployment::inject_into` for latency. Building packets and
//! checking frames happen between the timed calls, never inside them.

use crate::alloc::allocs;
use crate::frame;
use crate::workload::{Fault, Workload, DEFECTS};
use gallium_core::{compile_with, CompileOptions, CompiledMiddlebox, Deployment};
use gallium_net::{Packet, PortId};
use gallium_partition::SwitchModel;
use gallium_server::CostModel;
use gallium_switchsim::SwitchConfig;
use std::time::Instant;

/// Packets per burst of the batch pass.
pub const BURST: usize = 64;

/// Outcome of the output checks, plus the operation counts.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Stream packets injected (warm-up packets are set-up, not counted).
    pub attempted: u64,
    /// Injections that returned an error, plus packets whose frame shows
    /// a known program defect.
    pub failed: u64,
    /// Of `failed`, the packets showing each of [`DEFECTS`].
    pub known: [u64; DEFECTS.len()],
    /// Checks that failed.
    pub wrong: u64,
    /// The first failed check, for the report.
    pub first: Option<String>,
    /// The first failed injection, for the report.
    pub first_failure: Option<String>,
}

impl Verdict {
    /// Record one check.
    pub fn note(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.wrong += 1;
            if self.first.is_none() {
                self.first = Some(e);
            }
        }
    }

    /// Record the check of one emitted frame: a known defect counts the
    /// packet as failed, any other fault against `correct`.
    pub fn note_frame(&mut self, r: Result<(), Fault>) {
        match r {
            Ok(()) => {}
            Err(Fault::Wrong(e)) => self.note(Err(e)),
            Err(Fault::Known(d)) => {
                self.failed += 1;
                let k = DEFECTS
                    .iter()
                    .position(|&x| x == d)
                    .expect("a listed defect");
                self.known[k] += 1;
            }
        }
    }

    /// Record an injection that returned an error. It counts in
    /// `failed`, not against `correct`: the checks speak of the packets
    /// that went through.
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(e);
        }
    }

    /// Did every check pass?
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }
}

/// Switch table counters summed over the tables a workload probes.
#[derive(Debug, Default, Clone, Copy)]
pub struct TableCounts {
    /// Data-plane lookups (hits + misses).
    pub lookups: u64,
    /// Lookups served by the perfect-hash layout.
    pub probes: u64,
    /// Layout rebuilds.
    pub rebuilds: u64,
}

impl TableCounts {
    /// Current counters of `w`'s tables in `d`.
    pub fn read(d: &Deployment, w: &dyn Workload) -> Self {
        let mut c = TableCounts::default();
        for name in w.tables() {
            if let Some(t) = d.switch.table(name) {
                c.lookups += t.stats.hits.get() + t.stats.misses.get();
                c.probes += t.stats.probes.get();
                c.rebuilds += t.stats.rebuilds.get();
            }
        }
        c
    }

    /// Counts accumulated since `earlier`.
    pub fn since(self, earlier: TableCounts) -> Self {
        TableCounts {
            lookups: self.lookups - earlier.lookups,
            probes: self.probes - earlier.probes,
            rebuilds: self.rebuilds - earlier.rebuilds,
        }
    }
}

/// Check the frames `out` holds for stream packets `first..first+n`
/// (each packet emits exactly one frame) and fold them into `digest`.
pub fn check_frames(
    w: &mut dyn Workload,
    v: &mut Verdict,
    first: usize,
    n: usize,
    out: &[(PortId, Packet)],
    digest: &mut u64,
) {
    if out.len() != n {
        v.note(Err(format!(
            "packets {first}..{}: {} frames emitted for {n} packets",
            first + n,
            out.len()
        )));
        return;
    }
    for (j, (port, f)) in out.iter().enumerate() {
        v.note_frame(w.check(first + j, *port, f.bytes()));
        *digest = frame::digest(*digest, port.0, f.bytes());
    }
}

/// Figures of one batch pass.
#[derive(Debug, Default)]
pub struct BatchPass {
    /// Time inside `inject_batch_into` plus dropping the emitted frames.
    pub ns: u64,
    /// Of which dropping the emitted frames (`out.clear()`).
    pub drop_ns: u64,
    /// Allocations inside the timed calls.
    pub allocs: u64,
    /// Packets injected.
    pub pkts: u64,
    /// `DeploymentStats` fast/slow-path packets of the pass.
    pub fast: u64,
    /// See [`BatchPass::fast`].
    pub slow: u64,
    /// Table counters of the pass.
    pub tables: TableCounts,
    /// Fingerprint of every emitted frame in order.
    pub digest: u64,
}

/// One pass over the stream in bursts of [`BURST`].
pub fn batch_pass(d: &mut Deployment, w: &mut dyn Workload, v: &mut Verdict) -> BatchPass {
    let n = w.len();
    let mut p = BatchPass::default();
    let mut burst = Vec::with_capacity(BURST);
    let mut out = Vec::with_capacity(2 * BURST);
    let (fast0, slow0, inj0) = (d.stats.fast_path, d.stats.slow_path, d.stats.injected);
    let tables0 = TableCounts::read(d, w);
    for first in (0..n).step_by(BURST) {
        let len = BURST.min(n - first);
        burst.extend((first..first + len).map(|i| w.packet(i)));
        let a0 = allocs();
        let t0 = Instant::now();
        let res = d.inject_batch_into(burst.drain(..), &mut out);
        let t1 = Instant::now();
        p.allocs += allocs() - a0;
        match res {
            Ok(_) => check_frames(w, v, first, len, &out, &mut p.digest),
            Err(e) => v.fail(format!("burst at packet {first}: {e}")),
        }
        let a2 = allocs();
        let t2 = Instant::now();
        out.clear();
        let t3 = Instant::now();
        p.allocs += allocs() - a2;
        p.ns += ns(t0, t1) + ns(t2, t3);
        p.drop_ns += ns(t2, t3);
    }
    p.pkts = d.stats.injected - inj0;
    p.fast = d.stats.fast_path - fast0;
    p.slow = d.stats.slow_path - slow0;
    p.tables = TableCounts::read(d, w).since(tables0);
    v.attempted += p.pkts;
    v.note(w.check_pass(d, p.slow));
    p
}

/// Figures of one packet-by-packet pass.
#[derive(Debug, Default)]
pub struct PacketPass {
    /// `inject_into` time of every packet, in stream order.
    pub all: Vec<u64>,
    /// The same, fast-path packets only.
    pub fast: Vec<u64>,
    /// The same, slow-path packets only.
    pub slow: Vec<u64>,
    /// Fingerprint of every emitted frame in order.
    pub digest: u64,
}

/// One pass over the stream, timing each `inject_into` call.
pub fn packet_pass(d: &mut Deployment, w: &mut dyn Workload, v: &mut Verdict, p: &mut PacketPass) {
    let n = w.len();
    p.all.clear();
    p.fast.clear();
    p.slow.clear();
    p.digest = 0;
    let mut out = Vec::with_capacity(4);
    let slow0 = d.stats.slow_path;
    for i in 0..n {
        let pkt = w.packet(i);
        let before = d.stats.slow_path;
        let t0 = Instant::now();
        let res = d.inject_into(pkt, &mut out);
        let dt = ns(t0, Instant::now());
        v.attempted += 1;
        match res {
            Ok(()) => {
                p.all.push(dt);
                if d.stats.slow_path == before {
                    p.fast.push(dt);
                } else {
                    p.slow.push(dt);
                }
                check_frames(w, v, i, 1, &out, &mut p.digest);
            }
            Err(e) => v.fail(format!("packet {i}: {e}")),
        }
        out.clear();
    }
    v.note(w.check_pass(d, d.stats.slow_path - slow0));
}

/// Inject the workload's warm-up packets; each must emit one frame. They
/// are set-up, not stream packets: a fault here counts against `correct`.
pub fn warm(d: &mut Deployment, w: &dyn Workload, v: &mut Verdict) {
    let mut out = Vec::new();
    for (i, pkt) in w.warm().into_iter().enumerate() {
        match d.inject_into(pkt, &mut out) {
            Ok(()) if out.len() == 1 => {}
            Ok(()) => v.note(Err(format!("warm-up packet {i}: {} frames", out.len()))),
            Err(e) => v.note(Err(format!("warm-up packet {i}: {e}"))),
        }
        out.clear();
    }
}

/// Nanoseconds from `a` to `b`.
pub fn ns(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

/// Set-up times of [`deploy`], ns.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// `compile_with`.
    pub compile: u64,
    /// `Deployment::new`.
    pub deploy: u64,
    /// `Deployment::configure`.
    pub configure: u64,
}

/// Compile `w`'s program with the verifier on, stand it up with load-time
/// plan validation on, and provision it.
pub fn deploy(
    w: &dyn Workload,
    model: &SwitchModel,
) -> Result<(CompiledMiddlebox, Deployment, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let compiled = compile_with(&w.program(), model, CompileOptions { verify: true })
        .map_err(|e| format!("compile: {e}"))?;
    times.compile = ns(t, Instant::now());
    let cfg = SwitchConfig {
        model: *model,
        validate_plan: true,
        ..SwitchConfig::default()
    };
    let t = Instant::now();
    let mut d = Deployment::new(&compiled, cfg, CostModel::calibrated())
        .map_err(|e| format!("deploy: {e}"))?;
    times.deploy = ns(t, Instant::now());
    let t = Instant::now();
    d.configure(|s| w.provision(s))
        .map_err(|e| format!("provisioning: {e}"))?;
    times.configure = ns(t, Instant::now());
    Ok((compiled, d, times))
}
