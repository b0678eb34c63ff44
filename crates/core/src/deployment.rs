//! A runnable offloaded middlebox: switch + server + state sync.
//!
//! `Deployment` is the *functional* composition used by the equivalence
//! tests, the examples, and (wrapped in the discrete-event simulator) every
//! benchmark. It executes the full §3.2 pipeline:
//!
//! 1. a packet enters the switch and runs pre-processing;
//! 2. fast-path packets leave immediately; slow-path packets are
//!    encapsulated and handed to the server;
//! 3. the server runs the non-offloaded partition, and — before its packet
//!    is released (**output commit**) — pushes any replicated-state updates
//!    to the switch through the write-back protocol;
//! 4. the packet returns to the switch and runs post-processing.

use crate::compiler::CompiledMiddlebox;
use gallium_mir::StateStore;
use gallium_net::{Packet, PortId};
use gallium_p4::ControlPlaneOp;
use gallium_partition::StatePlacement;
use gallium_server::{CostModel, ExecError, MiddleboxServer, SwitchResident};
use gallium_switchsim::{ControlError, ControlPlane, LoadError, Switch, SwitchConfig};
use gallium_telemetry::names;
use gallium_telemetry::trace::{DropReason, EventKind, Hop, Tracer};
use std::sync::Arc;
use std::time::Instant;

/// Why a deployment could not be stood up or provisioned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// The generated program failed the switch's load-time checks.
    Load(LoadError),
    /// A provisioning control-plane operation was rejected.
    Control(ControlError),
    /// Cache mode was requested for a program whose state cannot be
    /// replayed on the server (e.g. a switch-only register).
    CacheUnavailable {
        /// Name of the offending state.
        state: String,
    },
    /// A cache annotation named a state with no switch table.
    MissingTable {
        /// The state that has no table.
        state: gallium_mir::StateId,
    },
    /// The server half rejected or faulted on a packet.
    Exec(ExecError),
    /// Post-processing forwarded a packet back to the server port — the
    /// traversal dispatch is broken.
    PostLoop,
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::Load(e) => write!(f, "load: {e}"),
            DeployError::Control(e) => write!(f, "control plane: {e}"),
            DeployError::CacheUnavailable { state } => write!(
                f,
                "cache mode unavailable: register `{state}` is switch-only \
                 and cannot be replayed on the server"
            ),
            DeployError::MissingTable { state } => {
                write!(f, "state {state} has no switch table")
            }
            DeployError::Exec(e) => write!(f, "server: {e}"),
            DeployError::PostLoop => {
                write!(f, "post-processing looped back to the server")
            }
        }
    }
}

impl std::error::Error for DeployError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeployError::Load(e) => Some(e),
            DeployError::Control(e) => Some(e),
            DeployError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LoadError> for DeployError {
    fn from(e: LoadError) -> Self {
        DeployError::Load(e)
    }
}

impl From<ControlError> for DeployError {
    fn from(e: ControlError) -> Self {
        DeployError::Control(e)
    }
}

impl From<ExecError> for DeployError {
    fn from(e: ExecError) -> Self {
        DeployError::Exec(e)
    }
}

/// Aggregated counters across both halves of the middlebox.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeploymentStats {
    /// Packets injected from the network.
    pub injected: u64,
    /// Packets that never left the switch data plane.
    pub fast_path: u64,
    /// Packets that visited the server.
    pub slow_path: u64,
    /// Control-plane latency accumulated by state synchronization (ns),
    /// for the complete batches (stage + flip + fold + clear).
    pub sync_latency_ns: u64,
    /// Accumulated *visibility* latency: the prefix of each batch up to
    /// and including the write-back bit flip — the point at which §4.3.3
    /// releases the held packet.
    pub sync_visible_ns: u64,
    /// Server cycles consumed.
    pub server_cycles: u64,
    /// Packets lost because the server slow path returned a typed
    /// execution error ([`DeployError::Exec`]).
    pub drop_server_error: u64,
    /// Packets lost because a state-sync operation was rejected by the
    /// switch control plane ([`DeployError::Control`] during inject).
    pub drop_sync_rejected: u64,
    /// Packets lost to a post-processing traversal loop
    /// ([`DeployError::PostLoop`]).
    pub drop_post_loop: u64,
}

/// Telemetry owned by the deployment itself (the composition layer):
/// write-back acknowledgement counts and the output-commit hold time.
#[derive(Debug, Default)]
pub struct DeploymentTelemetry {
    /// Control-plane sync operations applied (acked) by the switch.
    pub sync_ops_acked: gallium_telemetry::Counter,
    /// Packets held for output commit (§4.3.3).
    pub held_for_commit: gallium_telemetry::Counter,
    /// Distribution of per-packet output-commit hold time: the modeled ns
    /// until the write-back visibility flip released the packet.
    pub hold_for_commit_ns: gallium_telemetry::Histogram,
    /// Bursts drained through [`Deployment::inject_batch_into`].
    pub batches: gallium_telemetry::Counter,
    /// Packets fully processed by those bursts (a burst aborted by an
    /// error counts only the packets that completed before it).
    pub batch_pkts: gallium_telemetry::Counter,
    /// Warm fast-path wall time (ns) of *sampled* switch-only packets.
    /// All `stage_*` histograms record only flight-recorder-sampled
    /// packets: the untraced path takes no timestamps at all.
    pub stage_fast_path_ns: gallium_telemetry::Histogram,
    /// Switch pre-processing wall time (ns) of sampled slow-path packets.
    pub stage_switch_pre_ns: gallium_telemetry::Histogram,
    /// Boundary-crossing wall time (ns): diverting encapsulated frames
    /// out of the emission stream and handing them to the server.
    pub stage_transfer_ns: gallium_telemetry::Histogram,
    /// Server slow-path wall time (ns), including the output-commit sync.
    pub stage_server_ns: gallium_telemetry::Histogram,
    /// Re-injection (switch post-processing) wall time (ns).
    pub stage_reinject_ns: gallium_telemetry::Histogram,
}

/// Reusable buffers threaded through the inject path: allocated once per
/// deployment, recycled across packets and batches so the warm fast path
/// performs no per-packet heap allocation.
#[derive(Debug, Default)]
struct DeployScratch {
    /// Frames the pre traversal diverted to the middlebox server.
    to_server: Vec<Packet>,
}

/// The composed switch+server middlebox.
#[derive(Debug)]
pub struct Deployment {
    /// The switch half.
    pub switch: Switch,
    /// The server half.
    pub server: MiddleboxServer,
    /// Counters.
    pub stats: DeploymentStats,
    /// Composition-layer telemetry (sync acks, commit-hold latency).
    pub telemetry: DeploymentTelemetry,
    server_port: PortId,
    clock_ns: u64,
    scratch: DeployScratch,
    /// Flight recorder shared with both halves; `None` until
    /// [`Deployment::enable_flight_recorder`] installs one.
    recorder: Option<Arc<Tracer>>,
}

impl Deployment {
    /// Stand up a deployment: load the P4 program (compiled-plan data
    /// plane, the default) and start the server.
    pub fn new(
        compiled: &CompiledMiddlebox,
        cfg: SwitchConfig,
        cost: CostModel,
    ) -> Result<Self, LoadError> {
        Self::new_inner(compiled, cfg, cost, true)
    }

    /// Stand up a deployment on the switch's AST-interpreter path — the
    /// reference semantics the compiled plan is differentially tested
    /// against. Production callers should use [`Deployment::new`].
    pub fn new_interpreter(
        compiled: &CompiledMiddlebox,
        cfg: SwitchConfig,
        cost: CostModel,
    ) -> Result<Self, LoadError> {
        Self::new_inner(compiled, cfg, cost, false)
    }

    fn new_inner(
        compiled: &CompiledMiddlebox,
        cfg: SwitchConfig,
        cost: CostModel,
        use_plan: bool,
    ) -> Result<Self, LoadError> {
        let server_port = cfg.server_port;
        let switch = if use_plan {
            Switch::load(compiled.p4.clone(), cfg)?
        } else {
            Switch::load_interpreter(compiled.p4.clone(), cfg)?
        };
        let server = MiddleboxServer::new(compiled.staged.clone(), cost);
        Ok(Deployment {
            switch,
            server,
            stats: DeploymentStats::default(),
            telemetry: DeploymentTelemetry::default(),
            server_port,
            clock_ns: 0,
            scratch: DeployScratch::default(),
            recorder: None,
        })
    }

    /// Stand up a deployment where the listed maps live on the switch as
    /// FIFO **caches** of the server's authoritative copies (the paper's
    /// §7 "reducing memory usage" extension): the switch table is sized to
    /// `entries` instead of the developer annotation, a cache miss replays
    /// the whole program on the server, and hits fill the cache through
    /// the control plane.
    ///
    /// Precondition: every state of the program must be server-accessible
    /// (no switch-only stateful operations such as data-plane
    /// fetch-and-add), since the replay executes the full program on the
    /// server. Violations are reported as a typed [`DeployError`].
    pub fn new_cached(
        compiled: &CompiledMiddlebox,
        cfg: SwitchConfig,
        cost: CostModel,
        caches: &[(gallium_mir::StateId, usize)],
    ) -> Result<Self, DeployError> {
        Self::new_cached_inner(compiled, cfg, cost, caches, true)
    }

    /// Cache-mode deployment on the switch's AST-interpreter path (see
    /// [`Deployment::new_interpreter`]); used by the differential tests.
    pub fn new_cached_interpreter(
        compiled: &CompiledMiddlebox,
        cfg: SwitchConfig,
        cost: CostModel,
        caches: &[(gallium_mir::StateId, usize)],
    ) -> Result<Self, DeployError> {
        Self::new_cached_inner(compiled, cfg, cost, caches, false)
    }

    fn new_cached_inner(
        compiled: &CompiledMiddlebox,
        mut cfg: SwitchConfig,
        cost: CostModel,
        caches: &[(gallium_mir::StateId, usize)],
        use_plan: bool,
    ) -> Result<Self, DeployError> {
        let staged = &compiled.staged;
        // Replay feasibility: switch-only *mutable* state breaks replay.
        for (i, st) in staged.prog.states.iter().enumerate() {
            let sid = gallium_mir::StateId(i as u32);
            if staged.placement_of(sid) == StatePlacement::SwitchOnly
                && matches!(st.kind, gallium_mir::StateKind::Register { .. })
            {
                return Err(DeployError::CacheUnavailable {
                    state: st.name.clone(),
                });
            }
        }
        // Shrink the cached tables in the loaded program so the loader's
        // SRAM accounting reflects the cache, not the annotation.
        let mut p4 = compiled.p4.clone();
        for (state, entries) in caches {
            let Some(idx) = p4.table_for_state(*state) else {
                return Err(DeployError::MissingTable { state: *state });
            };
            p4.tables[idx].size = *entries;
            cfg.cached_tables
                .push((p4.tables[idx].name.clone(), *entries));
        }
        let server_port = cfg.server_port;
        let switch = if use_plan {
            Switch::load(p4, cfg)?
        } else {
            Switch::load_interpreter(p4, cfg)?
        };
        let mut server = MiddleboxServer::new(staged.clone(), cost);
        server.set_cached_states(caches.iter().map(|(s, _)| *s).collect());
        Ok(Deployment {
            switch,
            server,
            stats: DeploymentStats::default(),
            telemetry: DeploymentTelemetry::default(),
            server_port,
            clock_ns: 0,
            scratch: DeployScratch::default(),
            recorder: None,
        })
    }

    /// Install a packet flight recorder: deterministic 1-in-`sample_one_in`
    /// sampling into a preallocated ring of `capacity` events, shared by
    /// the switch, the server, and the deployment's own boundary hooks.
    /// All memory is allocated here; sampled-packet emission on the
    /// dataplane is lock-free and alloc-free, and unsampled packets pay
    /// one shared-counter increment.
    ///
    /// Returns the installed tracer (also reachable via
    /// [`Deployment::recorder`]) so tests and reports can snapshot it.
    pub fn enable_flight_recorder(&mut self, sample_one_in: u64, capacity: usize) -> Arc<Tracer> {
        let rec = Arc::new(Tracer::new(sample_one_in, capacity));
        self.switch.set_tracer(Some(Arc::clone(&rec)));
        self.server.set_tracer(Some(Arc::clone(&rec)));
        self.recorder = Some(Arc::clone(&rec));
        rec
    }

    /// Remove the flight recorder (subsequent packets are untraced).
    pub fn disable_flight_recorder(&mut self) {
        self.switch.set_tracer(None);
        self.server.set_tracer(None);
        self.recorder = None;
    }

    /// The installed flight recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<Tracer>> {
        self.recorder.as_ref()
    }

    /// Configure middlebox state (backend lists, rules, …) on the server's
    /// authoritative store, then push replicated/switch-resident entries to
    /// the switch — the operator's provisioning step.
    ///
    /// The push is a bulk load of [`MiddleboxServer::switch_resident`]:
    /// each table is resolved and grown once and its borrowed entries are
    /// installed in key order, leaving the switch as replaying
    /// [`MiddleboxServer::initial_sync`] through the control plane would
    /// (same entries, cache-mode evictions and typed errors).
    pub fn configure<F: FnOnce(&mut StateStore)>(&mut self, f: F) -> Result<(), DeployError> {
        f(self.server.store_mut());
        for state in self.server.switch_resident() {
            match state {
                SwitchResident::Map { name, entries } => {
                    self.switch.install_entries(name, &entries)?;
                }
                SwitchResident::Register { name, value } => {
                    self.switch.control(&ControlPlaneOp::RegisterSet {
                        register: name.to_string(),
                        value,
                    })?;
                }
                SwitchResident::Lpm { name, routes } => {
                    self.switch.install_routes(name, &routes)?;
                }
            }
        }
        Ok(())
    }

    /// Advance the middlebox clock (the server's `now()` source).
    pub fn set_time_ns(&mut self, t: u64) {
        self.clock_ns = t;
    }

    /// Inject one packet from the network and run it to completion through
    /// switch → (server → switch) as needed. Returns the frames emitted
    /// toward the network as `(egress port, packet)`.
    pub fn inject(&mut self, pkt: Packet) -> Result<Vec<(PortId, Packet)>, DeployError> {
        let mut emissions = Vec::new();
        self.inject_into(pkt, &mut emissions)?;
        Ok(emissions)
    }

    /// [`Deployment::inject`] appending into a caller-owned emissions
    /// buffer (not cleared first) — the allocation-reusing core of the
    /// inject path. On the warm fast path (switch-only, buffer capacity
    /// already grown) this performs no heap allocation.
    ///
    /// On error, emissions the failing packet produced before the fault
    /// remain in `out`; callers that need all-or-nothing behavior should
    /// truncate back to their own mark (as [`Deployment::inject`] does by
    /// handing in a fresh buffer).
    pub fn inject_into(
        &mut self,
        pkt: Packet,
        out: &mut Vec<(PortId, Packet)>,
    ) -> Result<(), DeployError> {
        self.stats.injected += 1;
        // Flight-recorder sampling. With no recorder installed this is a
        // single `None` branch; with one installed but the packet
        // unsampled it is one relaxed counter increment. Only sampled
        // packets arm the per-hop hooks and stage timestamps below.
        let trace = match &self.recorder {
            Some(rec) => rec.try_sample().map(|id| (Arc::clone(rec), id)),
            None => None,
        };
        if let Some((rec, id)) = &trace {
            rec.emit(
                *id,
                Hop::SwitchPre,
                EventKind::Ingress,
                u64::from(pkt.ingress.0),
            );
            self.switch.set_active_trace(Some(*id));
            self.server.set_active_trace(Some(*id));
        }
        let res = self.inject_inner(pkt, out, trace.as_ref().map(|(r, id)| (r.as_ref(), *id)));
        if trace.is_some() {
            self.switch.set_active_trace(None);
            self.server.set_active_trace(None);
        }
        if let Err(e) = &res {
            // Fault attribution is always on (no recorder required):
            // every inject error lands in exactly one typed drop counter.
            let reason = match e {
                DeployError::Exec(_) => Some(DropReason::DeployServerError),
                DeployError::Control(_) => Some(DropReason::DeploySyncRejected),
                DeployError::PostLoop => Some(DropReason::DeployPostLoop),
                _ => None,
            };
            match reason {
                Some(DropReason::DeployServerError) => self.stats.drop_server_error += 1,
                Some(DropReason::DeploySyncRejected) => self.stats.drop_sync_rejected += 1,
                Some(DropReason::DeployPostLoop) => self.stats.drop_post_loop += 1,
                _ => {}
            }
            if let (Some((rec, id)), Some(r)) = (&trace, reason) {
                rec.emit(*id, Hop::Transfer, EventKind::Drop, r as u64);
            }
        }
        res
    }

    /// The traversal core of [`Deployment::inject_into`], with the
    /// flight-recorder bracketing (sampling, active-trace arming, error
    /// attribution) peeled off into the wrapper. `trace` is `Some` only
    /// for sampled packets; every timestamp below is gated on it, so the
    /// untraced path reads no clocks.
    fn inject_inner(
        &mut self,
        pkt: Packet,
        out: &mut Vec<(PortId, Packet)>,
        trace: Option<(&Tracer, u32)>,
    ) -> Result<(), DeployError> {
        let t_in = trace.map(|_| Instant::now());
        let mark = out.len();
        self.switch.process_into(pkt, out);
        let t_pre = trace.map(|_| Instant::now());
        // Divert server-bound frames out of the emissions. The fast path —
        // no server frame — is a pure scan; the slow path pays an O(n)
        // extraction on the handful of packets that leave the data plane.
        let mut i = mark;
        while i < out.len() {
            if out[i].0 == self.server_port {
                let (_, frame) = out.remove(i);
                self.scratch.to_server.push(frame);
            } else {
                i += 1;
            }
        }
        if self.scratch.to_server.is_empty() {
            self.stats.fast_path += 1;
            if let Some(t) = t_in {
                self.telemetry.stage_fast_path_ns.record(elapsed_ns(t));
            }
            return Ok(());
        }
        self.stats.slow_path += 1;
        if let (Some(t0), Some(t1)) = (t_in, t_pre) {
            self.telemetry.stage_switch_pre_ns.record(span_ns(t0, t1));
            self.telemetry.stage_transfer_ns.record(elapsed_ns(t1));
        }

        // Move the scratch out so the loop can borrow `self` freely; it is
        // returned (empty, capacity intact) after the loop. Because it is
        // taken up front, a `?` abort cannot leak stale frames into the
        // next inject — only the warm capacity is lost on that cold path.
        let mut to_server = std::mem::take(&mut self.scratch.to_server);
        for mut frame in to_server.drain(..) {
            frame.ingress = self.server_port;
            let t_srv = trace.map(|_| Instant::now());
            let evictions_before = match trace {
                Some(_) => self.switch.eviction_count(),
                None => 0,
            };
            let srv = self.server.process(frame, self.clock_ns)?;
            self.stats.server_cycles += srv.cycles;

            // Output commit: apply the sync batch *before* the packet is
            // released back into the switch. The packet is released at the
            // visibility flip; the fold into the main tables continues off
            // the packet's critical path.
            let (visible, total) = self.apply_sync(&srv.sync_ops)?;
            self.stats.sync_latency_ns += total;
            self.stats.sync_visible_ns += visible;
            self.telemetry.sync_ops_acked.add(srv.sync_ops.len() as u64);
            if srv.held_for_commit {
                self.telemetry.held_for_commit.inc();
                self.telemetry.hold_for_commit_ns.record(visible);
            }
            if let Some((rec, id)) = trace {
                if srv.held_for_commit {
                    rec.emit(id, Hop::Transfer, EventKind::HoldForCommit, visible);
                }
                let evicted = self.switch.eviction_count() - evictions_before;
                if evicted > 0 {
                    rec.emit(id, Hop::Transfer, EventKind::TableEvict, evicted as u64);
                }
                self.telemetry
                    .stage_server_ns
                    .record(elapsed_ns(t_srv.expect("timestamped with trace")));
            }

            let t_back = trace.map(|_| Instant::now());
            for mut back in srv.to_switch {
                back.ingress = self.server_port;
                if let Some((rec, id)) = trace {
                    rec.emit(id, Hop::Transfer, EventKind::Reinject, back.len() as u64);
                }
                let back_mark = out.len();
                self.switch.process_into(back, out);
                if out[back_mark..].iter().any(|(p, _)| *p == self.server_port) {
                    return Err(DeployError::PostLoop);
                }
            }
            if let Some(t) = t_back {
                self.telemetry.stage_reinject_ns.record(elapsed_ns(t));
            }
        }
        self.scratch.to_server = to_server;
        Ok(())
    }

    /// Inject a burst of packets, concatenating every emission in arrival
    /// order (see [`Deployment::inject`]).
    ///
    /// **Error semantics:** processing stops at the first failing packet
    /// and its error is returned; emissions already produced by earlier
    /// packets of the burst are dropped with the return. Callers that need
    /// the partial output should use [`Deployment::inject_batch_into`],
    /// which leaves it in the caller's buffer.
    pub fn inject_batch(
        &mut self,
        pkts: impl IntoIterator<Item = Packet>,
    ) -> Result<Vec<(PortId, Packet)>, DeployError> {
        let mut out = Vec::new();
        self.inject_batch_into(pkts, &mut out)?;
        Ok(out)
    }

    /// Inject a burst, threading one reusable emissions buffer through
    /// switch → server → switch instead of allocating per packet: every
    /// emission is appended to `out` (not cleared first) in arrival order,
    /// and the per-packet observable behavior — emissions, counters,
    /// state — is identical to calling [`Deployment::inject`] in a loop.
    /// Returns the number of packets fully processed. The burst is a plain
    /// loop over [`Deployment::inject_into`].
    ///
    /// **Partial-failure semantics:** on `Err`, `out` retains every
    /// emission produced by the packets that completed before the failure
    /// — they are real transmissions that cannot be recalled — while the
    /// failing packet's own partial emissions are removed; packets after
    /// the failing one are not processed.
    pub fn inject_batch_into(
        &mut self,
        pkts: impl IntoIterator<Item = Packet>,
        out: &mut Vec<(PortId, Packet)>,
    ) -> Result<usize, DeployError> {
        self.telemetry.batches.inc();
        let mut done = 0usize;
        for pkt in pkts {
            let mark = out.len();
            match self.inject_into(pkt, out) {
                Ok(()) => done += 1,
                Err(e) => {
                    out.truncate(mark);
                    self.telemetry.batch_pkts.add(done as u64);
                    return Err(e);
                }
            }
        }
        self.telemetry.batch_pkts.add(done as u64);
        Ok(done)
    }

    /// Apply a sync batch; returns `(visible_ns, total_ns)` where
    /// `visible_ns` covers the operations up to and including the first
    /// `SetWriteBackBit(true)` — the output-commit release point.
    fn apply_sync(&mut self, ops: &[ControlPlaneOp]) -> Result<(u64, u64), DeployError> {
        if ops.is_empty() {
            return Ok((0, 0));
        }
        let flip = ops
            .iter()
            .position(|o| matches!(o, ControlPlaneOp::SetWriteBackBit(true)))
            .map(|i| i + 1)
            .unwrap_or(ops.len());
        let visible = self.switch.control_batch(&ops[..flip])?;
        let rest = self.switch.control_batch(&ops[flip..])?;
        Ok((visible, visible + rest))
    }

    /// Check that every switch-resident table — replicated or switch-only,
    /// exact-match or LPM — mirrors the server's authoritative copy, the
    /// invariant behind run-to-completion. (A switch-only table is never
    /// written by packets, so it must still equal what provisioning
    /// pushed.) For **cached** tables the requirement weakens to
    /// subset-correctness: every cached entry must match the authoritative
    /// value (no staleness), but the cache may hold fewer entries.
    pub fn replicated_consistent(&self) -> bool {
        let staged = self.server.staged();
        for (i, st) in staged.prog.states.iter().enumerate() {
            let sid = gallium_mir::StateId(i as u32);
            let cached = self.server.cached_states().contains(&sid);
            if !cached
                && !matches!(
                    staged.placement_of(sid),
                    StatePlacement::Replicated | StatePlacement::SwitchOnly
                )
            {
                continue;
            }
            let server_entries = match st.kind {
                gallium_mir::StateKind::Map { .. } => {
                    self.server.store.map_entries(sid).expect("declared state")
                }
                // Read back as the switch spells LPM entries:
                // `[canonical prefix, prefix length]`.
                gallium_mir::StateKind::LpmMap { .. } => self
                    .server
                    .store
                    .lpm_entries(sid)
                    .expect("declared state")
                    .into_iter()
                    .map(|(prefix, len, v)| (vec![prefix, u64::from(len)], v))
                    .collect(),
                _ => continue,
            };
            let Some(table) = self.switch.table(&st.name) else {
                return false;
            };
            if cached {
                // Subset: every cached entry exists authoritatively
                // with the same value (no staleness, no ghosts).
                let authoritative: std::collections::HashMap<_, _> =
                    server_entries.into_iter().collect();
                for (k, cached_v) in table.entries() {
                    if authoritative.get(&k) != Some(&cached_v) {
                        return false;
                    }
                }
            } else if table.entries() != server_entries {
                return false;
            }
        }
        true
    }

    /// Fraction of injected packets that took the fast path.
    pub fn fast_path_fraction(&self) -> f64 {
        if self.stats.injected == 0 {
            return 0.0;
        }
        self.stats.fast_path as f64 / self.stats.injected as f64
    }

    /// Export one merged snapshot for the whole deployment: switch-side
    /// counters (`gallium.switchsim.*`), server-side counters
    /// (`gallium.server.*`), composition-layer counters and the
    /// output-commit hold histogram (`gallium.core.deployment.*`), plus
    /// everything in the process-wide registry (compiler/partition
    /// metrics).
    pub fn telemetry_snapshot(&self) -> gallium_telemetry::TelemetrySnapshot {
        let mut snap = gallium_telemetry::global().snapshot();
        snap.merge(&self.switch.telemetry_snapshot());
        snap.merge(&self.server.telemetry_snapshot());
        let s = &self.stats;
        snap.set_counter(names::DEPLOY_INJECTED, s.injected);
        snap.set_counter(names::DEPLOY_FAST_PATH, s.fast_path);
        snap.set_counter(names::DEPLOY_SLOW_PATH, s.slow_path);
        snap.set_counter(names::DEPLOY_SYNC_LATENCY_NS, s.sync_latency_ns);
        snap.set_counter(names::DEPLOY_SYNC_VISIBLE_NS, s.sync_visible_ns);
        snap.set_counter(names::DEPLOY_SERVER_CYCLES, s.server_cycles);
        snap.set_counter(names::DROP_DEPLOY_SERVER_ERROR, s.drop_server_error);
        snap.set_counter(names::DROP_DEPLOY_SYNC_REJECTED, s.drop_sync_rejected);
        snap.set_counter(names::DROP_DEPLOY_POST_LOOP, s.drop_post_loop);
        let t = &self.telemetry;
        snap.set_counter(names::DEPLOY_SYNC_OPS_ACKED, t.sync_ops_acked.get());
        snap.set_counter(names::DEPLOY_HELD_FOR_COMMIT, t.held_for_commit.get());
        snap.record_histogram(names::DEPLOY_HOLD_FOR_COMMIT_NS, &t.hold_for_commit_ns);
        snap.set_counter(names::DEPLOY_BATCHES, t.batches.get());
        snap.set_counter(names::DEPLOY_BATCH_PKTS, t.batch_pkts.get());
        snap.record_histogram(names::STAGE_FAST_PATH_NS, &t.stage_fast_path_ns);
        snap.record_histogram(names::STAGE_SWITCH_PRE_NS, &t.stage_switch_pre_ns);
        snap.record_histogram(names::STAGE_TRANSFER_NS, &t.stage_transfer_ns);
        snap.record_histogram(names::STAGE_SERVER_NS, &t.stage_server_ns);
        snap.record_histogram(names::STAGE_REINJECT_NS, &t.stage_reinject_ns);
        if let Some(rec) = &self.recorder {
            snap.set_counter(names::TRACE_SAMPLED, rec.sampled());
            snap.set_counter(names::TRACE_EVENTS, rec.events());
            snap.set_counter(names::TRACE_OVERWRITTEN, rec.overwritten());
            snap.set_counter(names::TRACE_RING_CAPACITY, rec.capacity() as u64);
        }
        snap
    }

    /// Resolve the flight recorder's ring against the deployed programs:
    /// per-sampled-packet hop journeys with table, state, and block names
    /// filled in. `None` until [`Deployment::enable_flight_recorder`].
    pub fn trace_report(&self) -> Option<crate::trace_report::TraceReport> {
        self.recorder.as_ref().map(|rec| {
            crate::trace_report::TraceReport::build(
                rec,
                self.switch.program(),
                self.server.staged(),
            )
        })
    }
}

/// Nanoseconds elapsed since `t`, saturating into `u64`.
fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds between two ordered instants, saturating into `u64`.
fn span_ns(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;
    use gallium_mir::interp::read_header_field;
    use gallium_mir::{BinOp, FuncBuilder, HeaderField, Interpreter, PacketAction, Program};
    use gallium_net::{FiveTuple, IpProtocol, PacketBuilder, TcpFlags};
    use gallium_partition::SwitchModel;

    fn minilb() -> Program {
        minilb_cap(Some(65536))
    }

    fn minilb_cap(cap: Option<usize>) -> Program {
        let mut b = FuncBuilder::new("minilb");
        let map = b.decl_map("map", vec![16], vec![32], cap);
        let backends = b.decl_vector("backends", 32, 16);
        let saddr = b.read_field(HeaderField::IpSaddr);
        let daddr = b.read_field(HeaderField::IpDaddr);
        let hash32 = b.bin(BinOp::Xor, saddr, daddr);
        let mask = b.cnst(0xFFFF, 32);
        let low = b.bin(BinOp::And, hash32, mask);
        let key = b.cast(low, 16);
        let res = b.map_get(map, vec![key]);
        let null = b.is_null(res);
        let hit = b.new_block();
        let miss = b.new_block();
        b.branch(null, miss, hit);
        b.switch_to(hit);
        let bk = b.extract(res, 0);
        b.write_field(HeaderField::IpDaddr, bk);
        b.send();
        b.ret();
        b.switch_to(miss);
        let len = b.vec_len(backends);
        let idx = b.bin(BinOp::Mod, hash32, len);
        let bk2 = b.vec_get(backends, idx);
        b.write_field(HeaderField::IpDaddr, bk2);
        b.map_put(map, vec![key], vec![bk2]);
        b.send();
        b.ret();
        b.finish().unwrap()
    }

    fn deployment() -> Deployment {
        let compiled = compile(&minilb(), &SwitchModel::tofino_like()).unwrap();
        let mut d =
            Deployment::new(&compiled, SwitchConfig::default(), CostModel::calibrated()).unwrap();
        d.configure(|store| {
            let backends = compiled.staged.prog.state_by_name("backends").unwrap();
            store
                .vec_set_all(backends, vec![0xC0A80001, 0xC0A80002, 0xC0A80003])
                .unwrap();
        })
        .unwrap();
        d
    }

    fn pkt(saddr: u32, daddr: u32, flags: u8) -> Packet {
        PacketBuilder::tcp(
            FiveTuple {
                saddr,
                daddr,
                sport: 40000,
                dport: 80,
                proto: IpProtocol::Tcp,
            },
            TcpFlags(flags),
            200,
        )
        .build(PortId(1))
    }

    #[test]
    fn first_packet_slow_then_fast() {
        let mut d = deployment();
        let out1 = d
            .inject(pkt(0x0A000001, 0x0A0000FE, TcpFlags::SYN))
            .unwrap();
        assert_eq!(out1.len(), 1);
        let d1 = read_header_field(out1[0].1.bytes(), HeaderField::IpDaddr) as u32;
        assert!((0xC0A80001..=0xC0A80003).contains(&d1));
        assert_eq!(d.stats.slow_path, 1);
        assert!(d.stats.sync_latency_ns > 0, "insert required a sync batch");
        assert!(d.replicated_consistent());

        // Second packet of the same flow: pure fast path, same backend.
        let out2 = d
            .inject(pkt(0x0A000001, 0x0A0000FE, TcpFlags::ACK))
            .unwrap();
        assert_eq!(out2.len(), 1);
        let d2 = read_header_field(out2[0].1.bytes(), HeaderField::IpDaddr) as u32;
        assert_eq!(d1, d2);
        assert_eq!(d.stats.fast_path, 1);
        // No transfer header on the emitted packet.
        assert_eq!(out2[0].1.len(), 200);
    }

    #[test]
    fn matches_reference_interpreter_over_many_flows() {
        let prog = minilb();
        let mut d = deployment();
        let mut ref_store = StateStore::new(&prog.states);
        ref_store
            .vec_set_all(
                prog.state_by_name("backends").unwrap(),
                vec![0xC0A80001, 0xC0A80002, 0xC0A80003],
            )
            .unwrap();
        let interp = Interpreter::new(&prog);

        for i in 0..40u32 {
            // A mix of new flows and repeats.
            let saddr = 0x0A000000 + (i % 13);
            let daddr = 0x0A0000F0 + (i % 7);
            let p = pkt(saddr, daddr, TcpFlags::ACK);

            let mut ref_pkt = p.clone();
            let ref_out = interp.run(&mut ref_pkt, &mut ref_store, 0).unwrap();
            let expected: Vec<&Packet> = ref_out
                .actions
                .iter()
                .filter_map(|a| match a {
                    PacketAction::Send(s) => Some(s),
                    PacketAction::Drop => None,
                })
                .collect();

            let got = d.inject(p).unwrap();
            assert_eq!(got.len(), expected.len(), "packet {i}: emission count");
            for ((_, g), e) in got.iter().zip(expected) {
                assert_eq!(g.bytes(), e.bytes(), "packet {i}: bytes diverge");
            }
        }
        // Global state converged identically.
        let map = prog.state_by_name("map").unwrap();
        assert_eq!(
            d.server.store.map_entries(map).unwrap(),
            ref_store.map_entries(map).unwrap()
        );
        assert!(d.replicated_consistent());
        // Fast-path dominance: 13*7=91 > 40 distinct pairs... most flows are
        // new here, so just assert both paths were exercised.
        assert!(d.stats.fast_path + d.stats.slow_path == 40);
    }

    #[test]
    fn stats_fraction() {
        let mut d = deployment();
        for _ in 0..3 {
            d.inject(pkt(1, 2, TcpFlags::ACK)).unwrap();
        }
        // First slow, then two fast.
        assert_eq!(d.stats.slow_path, 1);
        assert_eq!(d.stats.fast_path, 2);
        assert!((d.fast_path_fraction() - 2.0 / 3.0).abs() < 1e-9);
    }

    fn burst(n: u32) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                pkt(
                    0x0A000001 + (i % 5),
                    0x0A0000F0 + (i % 3),
                    if i % 2 == 0 {
                        TcpFlags::SYN
                    } else {
                        TcpFlags::ACK
                    },
                )
            })
            .collect()
    }

    #[test]
    fn batch_equals_per_packet_inject() {
        let mut seq = deployment();
        let mut expected = Vec::new();
        for p in burst(24) {
            expected.extend(seq.inject(p).unwrap());
        }

        let mut bat = deployment();
        let mut out = Vec::new();
        let done = bat.inject_batch_into(burst(24), &mut out).unwrap();
        assert_eq!(done, 24);
        assert_eq!(out.len(), expected.len());
        for ((pa, a), (pb, b)) in out.iter().zip(&expected) {
            assert_eq!(pa, pb);
            assert_eq!(a.bytes(), b.bytes());
        }
        assert_eq!(seq.stats, bat.stats);
        assert!(bat.replicated_consistent());
    }

    #[test]
    fn batch_error_retains_completed_packets_emissions() {
        // A 2-entry replicated map: the third distinct flow's sync-fold
        // insert is rejected by the control plane with `TableFull`.
        let compiled = compile(&minilb_cap(Some(2)), &SwitchModel::tofino_like()).unwrap();
        let mut d =
            Deployment::new(&compiled, SwitchConfig::default(), CostModel::calibrated()).unwrap();
        d.configure(|store| {
            let backends = compiled.staged.prog.state_by_name("backends").unwrap();
            store
                .vec_set_all(backends, vec![0xC0A80001, 0xC0A80002, 0xC0A80003])
                .unwrap();
        })
        .unwrap();

        let flows: Vec<Packet> = (0..4)
            .map(|i| pkt(0x0A000001 + i, 0x0A0000FE, TcpFlags::SYN))
            .collect();
        let mut out = Vec::new();
        // Seed the buffer to check the batch appends rather than clears.
        out.push((PortId(9), pkt(1, 2, TcpFlags::ACK)));
        let err = d.inject_batch_into(flows, &mut out).unwrap_err();
        assert!(matches!(err, DeployError::Control(_)), "got {err:?}");
        // The sentinel plus one emission per completed packet survive; the
        // failing third flow's partial emissions were truncated away and
        // the fourth flow was never attempted.
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].0, PortId(9));
        assert_eq!(d.stats.injected, 3, "fourth packet never injected");

        // The Vec-returning wrapper drops partial output with the error.
        let mut d2 =
            Deployment::new(&compiled, SwitchConfig::default(), CostModel::calibrated()).unwrap();
        d2.configure(|store| {
            let backends = compiled.staged.prog.state_by_name("backends").unwrap();
            store
                .vec_set_all(backends, vec![0xC0A80001, 0xC0A80002, 0xC0A80003])
                .unwrap();
        })
        .unwrap();
        let flows: Vec<Packet> = (0..4)
            .map(|i| pkt(0x0A000001 + i, 0x0A0000FE, TcpFlags::SYN))
            .collect();
        assert!(d2.inject_batch(flows).is_err());
    }
}
