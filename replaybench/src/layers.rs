//! The traced run's per-layer figures, timed from outside the program:
//! each number is a call into one crate's public functions, bracketed by
//! clocks in this file. Nothing here adds spans inside the program; the
//! counters read are ones the program already keeps.

use crate::replay::{check_frames, ns, BatchPass, PacketPass, SetupTimes, Verdict};
use crate::report::{metric, Metric};
use crate::stats::{iqm, median};
use crate::workload::Workload;
use gallium_core::{CompiledMiddlebox, Deployment};
use gallium_mir::Program;
use gallium_net::PortId;
use gallium_p4::ControlPlaneOp;
use gallium_partition::SwitchModel;
use gallium_switchsim::{check_plan, ControlPlane, ExecPlan, PlanOptions};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each compile stage when it is timed on its own.
const STAGE_REPS: usize = 5;

/// Time one call `STAGE_REPS` times; median in ms.
fn time_ms(mut f: impl FnMut()) -> f64 {
    let mut v: Vec<u64> = (0..STAGE_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            ns(t, Instant::now())
        })
        .collect();
    median(&mut v) / 1e6
}

/// Compile stages timed one by one, each on the previous stage's output:
/// `partition_program`, `generate`, `gallium_verify::verify` and
/// `check_plan` (on a plan built the way `Switch::load` builds it).
#[derive(Debug, Default)]
pub struct Stages {
    /// `partition.partition_ms`.
    pub partition_ms: f64,
    /// `p4.codegen_ms`.
    pub codegen_ms: f64,
    /// `verify.verify_ms`.
    pub verify_ms: f64,
    /// `switchsim.symcheck_ms`.
    pub symcheck_ms: f64,
}

/// Time the compile stages of `prog` (results are discarded; `compiled`
/// supplies the inputs of the later stages).
pub fn stages(prog: &Program, model: &SwitchModel, compiled: &CompiledMiddlebox) -> Stages {
    let plan = ExecPlan::build_with(&compiled.p4, PlanOptions { fuse: true })
        .expect("the deployed program lowers to a plan");
    Stages {
        partition_ms: time_ms(|| {
            black_box(gallium_partition::partition_program(prog, model).is_ok());
        }),
        codegen_ms: time_ms(|| {
            black_box(gallium_p4::generate(&compiled.staged).is_ok());
        }),
        verify_ms: time_ms(|| {
            black_box(
                gallium_verify::verify(&compiled.staged, &compiled.p4, model)
                    .errors
                    .len(),
            );
        }),
        symcheck_ms: time_ms(|| {
            black_box(check_plan(&compiled.p4, &plan).is_ok());
        }),
    }
}

/// `RtTable::flush_layout` on each of `w`'s tables; ns.
pub fn flush_tables(d: &mut Deployment, w: &dyn Workload) -> u64 {
    let t = Instant::now();
    for name in w.tables() {
        if let Some(table) = d.switch.table_mut(name) {
            table.flush_layout();
        }
    }
    ns(t, Instant::now())
}

/// Figures of one pass driven through the layers' own calls.
#[derive(Debug, Default)]
pub struct SplitPass {
    /// `Switch::process_into` of fast-path packets, ns each.
    pub process: Vec<u64>,
    /// `MiddleboxServer::process` per diverted frame, ns.
    pub server: Vec<u64>,
    /// `control_batch` per sync batch, ns.
    pub control: Vec<u64>,
    /// `flush_layout` over the tables after each sync, ns.
    pub rebuild: Vec<u64>,
    /// Sync operations the server returned.
    pub sync_ops: u64,
    /// Packets that went to the server.
    pub slow: u64,
    /// `RtTable::lookup_ref` sweep: ns per lookup.
    pub lookup_ns: f64,
    /// Fingerprint of every emitted frame in order.
    pub digest: u64,
}

/// Keys swept by the lookup timing, taken from the stream.
const SWEEP: usize = 4096;

/// One pass over the stream that makes, for every packet, the public
/// calls `Deployment::inject_inner` makes — `process_into`, then for
/// each diverted frame `server.process`, `control_batch` on the sync ops
/// (split at the write-back flip as the deployment splits them),
/// `flush_layout` on the tables and `process_into` for the reinjection —
/// timing each. Halfway through, the workload's keys are looked up
/// against the live tables.
pub fn split_pass(d: &mut Deployment, w: &mut dyn Workload, v: &mut Verdict, p: &mut SplitPass) {
    let server_port = PortId::SERVER;
    let n = w.len();
    *p = SplitPass::default();
    let mut out = Vec::with_capacity(4);
    let mut to_server = Vec::with_capacity(2);
    for i in 0..n {
        if i == n / 2 {
            p.lookup_ns = sweep(d, w, i);
        }
        let pkt = w.packet(i);
        v.attempted += 1;
        let t0 = Instant::now();
        d.switch.process_into(pkt, &mut out);
        let t1 = Instant::now();
        let mut j = 0;
        while j < out.len() {
            if out[j].0 == server_port {
                to_server.push(out.remove(j).1);
            } else {
                j += 1;
            }
        }
        if to_server.is_empty() {
            p.process.push(ns(t0, t1));
        } else {
            p.slow += 1;
        }
        let mut fault = None;
        for mut frame in to_server.drain(..) {
            frame.ingress = server_port;
            let t = Instant::now();
            let srv = d.server.process(frame, 0);
            p.server.push(ns(t, Instant::now()));
            let srv = match srv {
                Ok(s) => s,
                Err(e) => {
                    fault = Some(format!("server: {e}"));
                    break;
                }
            };
            p.sync_ops += srv.sync_ops.len() as u64;
            if !srv.sync_ops.is_empty() {
                let ops = &srv.sync_ops;
                let flip = ops
                    .iter()
                    .position(|o| matches!(o, ControlPlaneOp::SetWriteBackBit(true)))
                    .map_or(ops.len(), |k| k + 1);
                let t = Instant::now();
                let res = d
                    .switch
                    .control_batch(&ops[..flip])
                    .and_then(|_| d.switch.control_batch(&ops[flip..]));
                p.control.push(ns(t, Instant::now()));
                if let Err(e) = res {
                    fault = Some(format!("control plane: {e}"));
                    break;
                }
                p.rebuild.push(flush_tables(d, w));
            }
            for mut back in srv.to_switch {
                back.ingress = server_port;
                let mark = out.len();
                d.switch.process_into(back, &mut out);
                if out[mark..].iter().any(|(port, _)| *port == server_port) {
                    fault = Some("post-processing looped back to the server".into());
                }
            }
        }
        match fault {
            None => check_frames(w, v, i, 1, &out, &mut p.digest),
            Some(e) => v.fail(format!("packet {i}: {e}")),
        }
        out.clear();
    }
    v.note(w.check_pass(d, p.slow));
}

/// `RtTable::lookup_ref` over the keys of up to [`SWEEP`] stream packets
/// from `from` on, against the live tables; ns per lookup.
fn sweep(d: &Deployment, w: &dyn Workload, from: usize) -> f64 {
    let n = w.len();
    let count = SWEEP.min(n);
    let mut key = Vec::new();
    let keys: Vec<(usize, Vec<u64>)> = (0..count)
        .map(|k| {
            let t = w.key((from + k) % n, &mut key);
            (t, key.clone())
        })
        .collect();
    let tables: Vec<_> = w
        .tables()
        .iter()
        .map(|name| d.switch.table(name).expect("workload table is loaded"))
        .collect();
    let wb = d.switch.write_back_active();
    let t = Instant::now();
    for (ti, k) in &keys {
        black_box(tables[*ti].lookup_ref(k, wb));
    }
    ns(t, Instant::now()) as f64 / count as f64
}

/// The traced run's figures over all rounds: per-round medians of the
/// timed calls (summarized by their interquartile mean) and totals of the
/// counts.
#[derive(Default)]
pub struct Traced {
    split: SplitPass,
    fast: Vec<f64>,
    slow: Vec<f64>,
    process: Vec<f64>,
    server: Vec<f64>,
    control: Vec<f64>,
    rebuild: Vec<f64>,
    /// `flush_layout` after the provisioning sync, ns.
    setup_rebuild: u64,
    lookup_ns: Vec<f64>,
    drop_ns: u64,
    allocs: u64,
    batch_pkts: u64,
    fast_pkts: Vec<f64>,
    slow_pkts: Vec<f64>,
    probes: u64,
    lookups: u64,
    rebuilds: Vec<f64>,
    sync_ops: u64,
    split_slow: u64,
}

/// Push the median of one round's samples, if it has any.
fn round_median(samples: &mut [u64], into: &mut Vec<f64>) {
    if !samples.is_empty() {
        into.push(median(samples));
    }
}

impl Traced {
    /// Start tracing a deployment just provisioned: time the layout
    /// rebuild the provisioning sync left for the first packet.
    pub fn after_provisioning(d: &mut Deployment, w: &dyn Workload) -> Self {
        Traced {
            setup_rebuild: flush_tables(d, w),
            ..Traced::default()
        }
    }

    /// Complete a round whose batch and per-packet passes gave `b` and
    /// `pp`: make the layer-by-layer pass, check that it emitted what the
    /// batch pass did, and fold the round's figures in.
    pub fn round(
        &mut self,
        d: &mut Deployment,
        w: &mut dyn Workload,
        v: &mut Verdict,
        b: &BatchPass,
        pp: &mut PacketPass,
    ) {
        split_pass(d, w, v, &mut self.split);
        let s = &mut self.split;
        if s.digest != b.digest {
            v.note(Err(
                "the layer-by-layer pass emitted different frames".into()
            ));
        }
        round_median(&mut pp.fast, &mut self.fast);
        round_median(&mut pp.slow, &mut self.slow);
        round_median(&mut s.process, &mut self.process);
        round_median(&mut s.server, &mut self.server);
        round_median(&mut s.control, &mut self.control);
        round_median(&mut s.rebuild, &mut self.rebuild);
        self.lookup_ns.push(s.lookup_ns);
        self.sync_ops += s.sync_ops;
        self.split_slow += s.slow;
        self.drop_ns += b.drop_ns;
        self.allocs += b.allocs;
        self.batch_pkts += b.pkts;
        self.fast_pkts.push(b.fast as f64);
        self.slow_pkts.push(b.slow as f64);
        self.probes += b.tables.probes;
        self.lookups += b.tables.lookups;
        self.rebuilds.push(b.tables.rebuilds as f64);
    }

    /// Every per-layer metric.
    pub fn metrics(mut self, times: &SetupTimes, st: &Stages) -> Vec<Metric> {
        let pkts = self.batch_pkts.max(1) as f64;
        // Syncs on the packet path when the workload has any; otherwise
        // the one the provisioning left for the first packet.
        if self.rebuild.is_empty() {
            self.rebuild.push(self.setup_rebuild as f64);
        }
        vec![
            metric("core.compile_ms", times.compile as f64 / 1e6, "ms"),
            metric("core.deploy_ms", times.deploy as f64 / 1e6, "ms"),
            metric("core.configure_ms", times.configure as f64 / 1e6, "ms"),
            metric("partition.partition_ms", st.partition_ms, "ms"),
            metric("p4.codegen_ms", st.codegen_ms, "ms"),
            metric("verify.verify_ms", st.verify_ms, "ms"),
            metric("switchsim.symcheck_ms", st.symcheck_ms, "ms"),
            metric("core.inject_fast_ns", iqm(&self.fast), "ns"),
            metric("core.inject_slow_us", iqm(&self.slow) / 1e3, "us"),
            metric("core.fast_path_pkts", iqm(&self.fast_pkts), "count"),
            metric("core.slow_path_pkts", iqm(&self.slow_pkts), "count"),
            metric(
                "core.allocs_per_pkt",
                self.allocs as f64 / pkts,
                "allocs/pkt",
            ),
            metric("switchsim.process_ns", iqm(&self.process), "ns"),
            metric("switchsim.lookup_ns", iqm(&self.lookup_ns), "ns"),
            metric(
                "switchsim.layout_served_ratio",
                self.probes as f64 / self.lookups.max(1) as f64,
                "ratio",
            ),
            metric("switchsim.rebuilds", iqm(&self.rebuilds), "count"),
            metric("switchsim.rebuild_us", iqm(&self.rebuild) / 1e3, "us"),
            metric("switchsim.control_us", iqm(&self.control) / 1e3, "us"),
            metric("server.process_us", iqm(&self.server) / 1e3, "us"),
            metric(
                "server.sync_ops_per_slow_pkt",
                self.sync_ops as f64 / self.split_slow.max(1) as f64,
                "ops/pkt",
            ),
            metric("net.drop_ns", self.drop_ns as f64 / pkts, "ns"),
        ]
    }
}
