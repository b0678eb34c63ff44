//! The server process: decap → execute → sync → encap.

use crate::cost::CostModel;
use crate::executor::{execute_server_partition_into, ExecError, ExecScratch, StateUpdate};
use crate::plan::ServerPlan;
use gallium_mir::{
    Interpreter, MirError, PacketAction, Program, RegFile, StateId, StateMutation, StateStore,
};
use gallium_net::transfer::FLAG_TO_SWITCH;
use gallium_net::{Packet, TransferValues};
use gallium_p4::ControlPlaneOp;
use gallium_partition::{StagedProgram, StatePlacement};
use gallium_switchsim::FLAG_PASSTHROUGH;
use gallium_switchsim::FLAG_RUN_POST;
use gallium_telemetry::names;
use gallium_telemetry::trace::{DropReason, EventKind, Hop, Tracer};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Counters for the server process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Packets received from the switch.
    pub rx: u64,
    /// Packets that performed replicated-state updates (and were therefore
    /// held for output commit).
    pub committed: u64,
    /// Total processing cycles spent.
    pub cycles: u64,
    /// Cache-miss whole-program replays (§7 extension).
    pub replays: u64,
    /// Write-back control-plane operations issued (stage + flip + fold +
    /// clear, §4.3.3).
    pub sync_ops_issued: u64,
    /// Drop attribution: packets the program explicitly dropped on the
    /// server (slow-path executions and replays alike).
    pub drops_program: u64,
}

/// What the server produced for one packet.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerOutput {
    /// Frames to hand back to the switch, already encapsulated.
    pub to_switch: Vec<Packet>,
    /// Control-plane batch implementing the atomic-update protocol for
    /// this packet's replicated-state updates (empty when none).
    pub sync_ops: Vec<ControlPlaneOp>,
    /// Output commit: when true, `to_switch` must not be released until
    /// the switch has applied `sync_ops` up to and including the
    /// visibility-bit flip.
    pub held_for_commit: bool,
    /// Server cycles consumed.
    pub cycles: u64,
}

/// The Gallium middlebox server: executes the non-offloaded partition.
#[derive(Debug)]
pub struct MiddleboxServer {
    staged: StagedProgram,
    /// Pre-lowered walk constants (postdominators, per-block partition
    /// filter), built once at construction.
    plan: ServerPlan,
    /// The server's authoritative state store.
    pub store: StateStore,
    cost: CostModel,
    /// States whose switch table is a cache of the authoritative map
    /// (§7 extension); cache misses trigger whole-program replay here.
    cached_states: Vec<StateId>,
    /// Per-instruction value scratch, reused across packets.
    scratch: ExecScratch,
    /// Interpreter register file for cache-miss replays, reused likewise.
    regs: RegFile,
    /// Flight recorder shared with the rest of the deployment.
    tracer: Option<Arc<Tracer>>,
    /// Trace id of the packet currently in flight, when sampled.
    active_trace: Option<u32>,
    /// Counters.
    pub stats: ServerStats,
}

impl MiddleboxServer {
    /// Build a server for a compiled middlebox.
    pub fn new(staged: StagedProgram, cost: CostModel) -> Self {
        let store = StateStore::new(&staged.prog.states);
        let plan = ServerPlan::build(&staged);
        MiddleboxServer {
            staged,
            plan,
            store,
            cost,
            cached_states: Vec::new(),
            scratch: ExecScratch::new(),
            regs: RegFile::new(),
            tracer: None,
            active_trace: None,
            stats: ServerStats::default(),
        }
    }

    /// Attach (or detach, with `None`) a flight recorder. Events are only
    /// emitted while a sampled packet is marked in flight via
    /// [`MiddleboxServer::set_active_trace`].
    pub fn set_tracer(&mut self, tracer: Option<Arc<Tracer>>) {
        self.tracer = tracer;
    }

    /// Mark the packet currently being processed as sampled under the
    /// given trace id (or clear with `None`).
    #[inline]
    pub fn set_active_trace(&mut self, id: Option<u32>) {
        self.active_trace = id;
    }

    /// Mark `states` as switch-cached (their misses replay here and their
    /// hits get installed into the switch cache).
    pub fn set_cached_states(&mut self, states: Vec<StateId>) {
        self.cached_states = states;
    }

    /// The states marked as switch-cached.
    pub fn cached_states(&self) -> &[StateId] {
        &self.cached_states
    }

    /// The staged program this server executes.
    pub fn staged(&self) -> &StagedProgram {
        &self.staged
    }

    /// Process one encapsulated frame arriving from the switch.
    pub fn process(&mut self, mut pkt: Packet, now_ns: u64) -> Result<ServerOutput, ExecError> {
        self.stats.rx += 1;
        let trace = match (&self.tracer, self.active_trace) {
            (Some(t), Some(id)) => Some((Arc::clone(t), id)),
            _ => None,
        };
        let (flags, in_values) =
            self.staged
                .header_to_server
                .detach(&mut pkt)
                .map_err(|e| ExecError::Decap {
                    reason: e.to_string(),
                })?;
        if let Some((t, id)) = &trace {
            t.emit(*id, Hop::Server, EventKind::ServerRx, pkt.len() as u64);
        }
        if flags & gallium_switchsim::FLAG_CACHE_MISS != 0 {
            return self.process_replay(pkt, now_ns);
        }

        let exec = execute_server_partition_into(
            &self.staged,
            &self.plan,
            &mut self.store,
            &mut pkt,
            &in_values,
            now_ns,
            &mut self.scratch,
        )?;
        if let Some((t, id)) = &trace {
            // Reconstruct block-level flow from the executed-instruction
            // list: one event per block transition.
            let mut last = u32::MAX;
            for v in &exec.executed {
                if let Some(b) = self.plan.block_of(*v) {
                    if b != last {
                        t.emit(*id, Hop::Server, EventKind::ServerBlock, u64::from(b));
                        last = b;
                    }
                }
            }
            for u in &exec.replicated_updates {
                let state = match u {
                    StateUpdate::MapPut { state, .. }
                    | StateUpdate::MapDel { state, .. }
                    | StateUpdate::RegSet { state, .. } => *state,
                };
                t.emit(
                    *id,
                    Hop::Server,
                    EventKind::ServerStateOp,
                    u64::from(state.0),
                );
            }
        }
        if exec.dropped {
            self.stats.drops_program += 1;
            if let Some((t, id)) = &trace {
                t.emit(
                    *id,
                    Hop::Server,
                    EventKind::Drop,
                    DropReason::ServerProgram as u64,
                );
            }
        }
        let cycles = self.cost.packet_cycles(&self.staged.prog, &exec.executed)
            // Encap/decap and header parsing on the server.
            + 2 * self.cost.header_op
            + self.cost.fixed_per_packet / 4;
        self.stats.cycles += cycles;

        let sync_ops = self.sync_ops_for(&exec);
        self.stats.sync_ops_issued += sync_ops.len() as u64;
        if let Some((t, id)) = &trace {
            if !sync_ops.is_empty() {
                t.emit(*id, Hop::Server, EventKind::SyncOps, sync_ops.len() as u64);
            }
        }
        let held_for_commit = !sync_ops.is_empty();
        if held_for_commit {
            self.stats.committed += 1;
        }

        let mut to_switch = Vec::new();
        // Server-side emissions travel as pass-through frames.
        for mut snapshot in exec.emissions {
            self.staged
                .header_to_switch
                .attach(
                    &mut snapshot,
                    FLAG_TO_SWITCH | FLAG_PASSTHROUGH,
                    &TransferValues::default(),
                )
                .map_err(|e| ExecError::Encap {
                    reason: e.to_string(),
                })?;
            to_switch.push(snapshot);
        }
        // The working packet continues to post-processing unless dropped.
        if !exec.dropped {
            self.staged
                .header_to_switch
                .attach(&mut pkt, FLAG_TO_SWITCH | FLAG_RUN_POST, &exec.out_values)
                .map_err(|e| ExecError::Encap {
                    reason: e.to_string(),
                })?;
            to_switch.push(pkt);
        }

        Ok(ServerOutput {
            to_switch,
            sync_ops,
            held_for_commit,
            cycles,
        })
    }

    /// Handle a cached-table miss (§7 extension): the pre-processing
    /// result is void — the switch cache is inconclusive — so the server
    /// replays the *entire* program against its authoritative state, emits
    /// the program's outputs itself (as pass-through frames), pushes any
    /// replicated-state updates through the write-back protocol, and
    /// installs the queried entry into the switch cache.
    fn process_replay(&mut self, mut pkt: Packet, now_ns: u64) -> Result<ServerOutput, ExecError> {
        self.stats.replays += 1;
        let trace = match (&self.tracer, self.active_trace) {
            (Some(t), Some(id)) => Some((Arc::clone(t), id)),
            _ => None,
        };
        // `staged`, `store`, and `regs` are disjoint fields, so the
        // interpreter can borrow the program directly — no per-replay
        // clone, and the register file is recycled across replays.
        let r = Interpreter::new(&self.staged.prog).run_with(
            &mut pkt,
            &mut self.store,
            now_ns,
            &mut self.regs,
        )?;
        if let Some((t, id)) = &trace {
            t.emit(
                *id,
                Hop::Server,
                EventKind::ServerReplay,
                r.executed.len() as u64,
            );
        }
        for action in &r.actions {
            if matches!(action, PacketAction::Drop) {
                self.stats.drops_program += 1;
                if let Some((t, id)) = &trace {
                    t.emit(
                        *id,
                        Hop::Server,
                        EventKind::Drop,
                        DropReason::ServerProgram as u64,
                    );
                }
            }
        }
        let cycles = self.cost.packet_cycles(&self.staged.prog, &r.executed)
            + 2 * self.cost.header_op
            + self.cost.fixed_per_packet / 4;
        self.stats.cycles += cycles;

        // Replicated updates follow the usual protocol; cache fills for the
        // queried keys ride along after the fold.
        let mut updates = Vec::new();
        let mut fills: Vec<ControlPlaneOp> = Vec::new();
        for m in &r.mutations {
            match m {
                StateMutation::MapPut { state, key, value } if self.is_synced(*state) => {
                    updates.push(StateUpdate::MapPut {
                        state: *state,
                        key: key.clone(),
                        value: value.clone(),
                    });
                }
                StateMutation::MapDel { state, key } if self.is_synced(*state) => {
                    updates.push(StateUpdate::MapDel {
                        state: *state,
                        key: key.clone(),
                    });
                }
                StateMutation::RegSet { state, value } if self.is_synced(*state) => {
                    updates.push(StateUpdate::RegSet {
                        state: *state,
                        value: *value,
                    });
                }
                StateMutation::MapQueried { state, key, hit }
                    if *hit && self.cached_states.contains(state) =>
                {
                    // Cache fill: install the entry the packet needed.
                    if let Ok(Some(value)) = self.store.map_get(*state, key) {
                        fills.push(ControlPlaneOp::TableInsert {
                            table: self.staged.prog.states[state.0 as usize].name.clone(),
                            key: key.clone(),
                            value,
                        });
                    }
                }
                _ => {}
            }
        }
        if let Some((t, id)) = &trace {
            for u in &updates {
                let state = match u {
                    StateUpdate::MapPut { state, .. }
                    | StateUpdate::MapDel { state, .. }
                    | StateUpdate::RegSet { state, .. } => *state,
                };
                t.emit(
                    *id,
                    Hop::Server,
                    EventKind::ServerStateOp,
                    u64::from(state.0),
                );
            }
        }
        let mut sync_ops = self.sync_ops_for_updates(&updates);
        sync_ops.extend(fills);
        self.stats.sync_ops_issued += sync_ops.len() as u64;
        if let Some((t, id)) = &trace {
            if !sync_ops.is_empty() {
                t.emit(*id, Hop::Server, EventKind::SyncOps, sync_ops.len() as u64);
            }
        }
        let held_for_commit = !sync_ops.is_empty();
        if held_for_commit {
            self.stats.committed += 1;
        }

        // The replay produced the program's emissions directly; the switch
        // just forwards them (no post traversal).
        let mut to_switch = Vec::new();
        for action in r.actions {
            if let PacketAction::Send(mut snapshot) = action {
                self.staged
                    .header_to_switch
                    .attach(
                        &mut snapshot,
                        FLAG_TO_SWITCH | FLAG_PASSTHROUGH,
                        &TransferValues::default(),
                    )
                    .map_err(|e| ExecError::Encap {
                        reason: e.to_string(),
                    })?;
                to_switch.push(snapshot);
            }
        }
        Ok(ServerOutput {
            to_switch,
            sync_ops,
            held_for_commit,
            cycles,
        })
    }

    /// Should updates to `state` be pushed to the switch?
    fn is_synced(&self, state: StateId) -> bool {
        self.staged.placement_of(state) == StatePlacement::Replicated
            || self.cached_states.contains(&state)
    }

    /// Build the atomic-update batch of §4.3.3 for a packet's replicated
    /// updates: stage everything in the write-back shadows, flip the
    /// visibility bit, fold into the main tables, flip back, clear.
    fn sync_ops_for(&self, exec: &crate::executor::ServerExec) -> Vec<ControlPlaneOp> {
        self.sync_ops_for_updates(&exec.replicated_updates)
    }

    /// The write-back batch for an explicit update list.
    fn sync_ops_for_updates(&self, replicated_updates: &[StateUpdate]) -> Vec<ControlPlaneOp> {
        if replicated_updates.is_empty() {
            return vec![];
        }
        let state_name =
            |s: gallium_mir::StateId| self.staged.prog.states[s.0 as usize].name.clone();
        let mut ops = Vec::new();
        let mut touched_tables: BTreeSet<String> = BTreeSet::new();

        // Phase 1: stage in write-back shadows.
        for u in replicated_updates {
            match u {
                StateUpdate::MapPut { state, key, value } => {
                    let t = state_name(*state);
                    touched_tables.insert(t.clone());
                    ops.push(ControlPlaneOp::WriteBackStage {
                        table: t,
                        key: key.clone(),
                        value: Some(value.clone()),
                    });
                }
                StateUpdate::MapDel { state, key } => {
                    let t = state_name(*state);
                    touched_tables.insert(t.clone());
                    ops.push(ControlPlaneOp::WriteBackStage {
                        table: t,
                        key: key.clone(),
                        value: None,
                    });
                }
                StateUpdate::RegSet { .. } => {}
            }
        }
        // Phase 2: one atomic flip makes the batch visible.
        ops.push(ControlPlaneOp::SetWriteBackBit(true));
        // Registers have no shadow; they are single-word writes applied at
        // the visibility point.
        for u in replicated_updates {
            if let StateUpdate::RegSet { state, value } = u {
                ops.push(ControlPlaneOp::RegisterSet {
                    register: state_name(*state),
                    value: *value,
                });
            }
        }
        // Phase 3: fold into the main tables.
        for u in replicated_updates {
            match u {
                StateUpdate::MapPut { state, key, value } => {
                    ops.push(ControlPlaneOp::TableInsert {
                        table: state_name(*state),
                        key: key.clone(),
                        value: value.clone(),
                    });
                }
                StateUpdate::MapDel { state, key } => {
                    ops.push(ControlPlaneOp::TableDelete {
                        table: state_name(*state),
                        key: key.clone(),
                    });
                }
                StateUpdate::RegSet { .. } => {}
            }
        }
        // Phase 4: hide the shadows again and clear them.
        ops.push(ControlPlaneOp::SetWriteBackBit(false));
        for t in touched_tables {
            ops.push(ControlPlaneOp::WriteBackClear { table: t });
        }
        ops
    }

    /// Configuration-time access to replicated/server state (installing
    /// backend lists, firewall rules, …).
    pub fn store_mut(&mut self) -> &mut StateStore {
        &mut self.store
    }

    /// Export the server's runtime counters under `gallium.server.*`.
    pub fn telemetry_snapshot(&self) -> gallium_telemetry::TelemetrySnapshot {
        let mut snap = gallium_telemetry::TelemetrySnapshot::default();
        snap.set_counter(names::SERVER_SLOW_PATH_PKTS, self.stats.rx);
        snap.set_counter(names::SERVER_COMMITTED_PKTS, self.stats.committed);
        snap.set_counter(names::SERVER_CYCLES, self.stats.cycles);
        snap.set_counter(names::SERVER_REPLAYS, self.stats.replays);
        snap.set_counter(names::SERVER_SYNC_OPS_ISSUED, self.stats.sync_ops_issued);
        snap.set_counter(names::DROP_SERVER_PROGRAM, self.stats.drops_program);
        snap
    }

    /// The switch-resident state — every `Replicated` or `SwitchOnly`
    /// map, register and LPM table — borrowed from the store in
    /// declaration order, each table's entries sorted by key. This is the
    /// one walk provisioning pushes to the switch: `Deployment::configure`
    /// installs it in bulk and [`MiddleboxServer::initial_sync`] spells it
    /// as control-plane operations.
    pub fn switch_resident(&self) -> Vec<SwitchResident<'_>> {
        let mut out = Vec::new();
        for (i, st) in self.staged.prog.states.iter().enumerate() {
            let sid = gallium_mir::StateId(i as u32);
            if !matches!(
                self.staged.placement_of(sid),
                StatePlacement::Replicated | StatePlacement::SwitchOnly
            ) {
                continue;
            }
            let name = st.name.as_str();
            match st.kind {
                gallium_mir::StateKind::Map { .. } => {
                    if let Ok(entries) = self.store.map_iter(sid) {
                        let mut entries: Vec<_> = entries.collect();
                        // Keys are unique, so the key alone fixes the order.
                        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
                        out.push(SwitchResident::Map { name, entries });
                    }
                }
                gallium_mir::StateKind::Register { .. } => {
                    if let Ok(value) = self.store.reg_read(sid) {
                        out.push(SwitchResident::Register { name, value });
                    }
                }
                gallium_mir::StateKind::Vector { .. } => {}
                gallium_mir::StateKind::LpmMap { .. } => {
                    if let Ok(routes) = self.store.lpm_iter(sid) {
                        let mut routes: Vec<_> = routes.collect();
                        routes.sort_unstable_by_key(|&(prefix, len, _)| (prefix, len));
                        out.push(SwitchResident::Lpm { name, routes });
                    }
                }
            }
        }
        out
    }

    /// Initial control-plane programming: [`MiddleboxServer::switch_resident`]
    /// as one operation per entry and register (used after configuration,
    /// before traffic).
    pub fn initial_sync(&self) -> Vec<ControlPlaneOp> {
        let mut ops = Vec::new();
        for state in self.switch_resident() {
            match state {
                SwitchResident::Map { name, entries } => {
                    ops.extend(
                        entries
                            .into_iter()
                            .map(|(k, v)| ControlPlaneOp::TableInsert {
                                table: name.to_string(),
                                key: k.to_vec(),
                                value: v.to_vec(),
                            }),
                    );
                }
                SwitchResident::Register { name, value } => {
                    ops.push(ControlPlaneOp::RegisterSet {
                        register: name.to_string(),
                        value,
                    });
                }
                SwitchResident::Lpm { name, routes } => {
                    ops.extend(routes.into_iter().map(|(prefix, len, v)| {
                        ControlPlaneOp::LpmInsert {
                            table: name.to_string(),
                            prefix,
                            prefix_len: len,
                            value: v.to_vec(),
                        }
                    }));
                }
            }
        }
        ops
    }
}

/// One switch-resident state's provisioning contents, borrowed from the
/// server's store (see [`MiddleboxServer::switch_resident`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwitchResident<'a> {
    /// An exact-match table: `(key, value)` sorted by key.
    Map {
        /// Table name.
        name: &'a str,
        /// The entries.
        entries: Vec<(&'a [u64], &'a [u64])>,
    },
    /// A register.
    Register {
        /// Register name.
        name: &'a str,
        /// Its value.
        value: u64,
    },
    /// An LPM table: `(canonical prefix, prefix length, value)` sorted by
    /// prefix, then length.
    Lpm {
        /// Table name.
        name: &'a str,
        /// The routes.
        routes: Vec<(u64, u8, &'a [u64])>,
    },
}

/// The FastClick baseline: the *unpartitioned* program running on the
/// server, costed with the same model. Used for every "Click-Nc" series in
/// the evaluation and as the functional-equivalence oracle.
#[derive(Debug)]
pub struct ReferenceServer {
    prog: Program,
    /// The reference state store.
    pub store: StateStore,
    cost: CostModel,
    /// Interpreter register file, reused across packets and batches.
    regs: RegFile,
    /// Counters.
    pub stats: ServerStats,
}

impl ReferenceServer {
    /// Build a baseline server for the input program.
    pub fn new(prog: Program, cost: CostModel) -> Self {
        let store = StateStore::new(&prog.states);
        ReferenceServer {
            prog,
            store,
            cost,
            regs: RegFile::new(),
            stats: ServerStats::default(),
        }
    }

    /// The program.
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// Process one plain packet; returns emitted packets and the cycles
    /// spent.
    pub fn process(&mut self, pkt: Packet, now_ns: u64) -> Result<(Vec<Packet>, u64), MirError> {
        self.process_batch(std::iter::once(pkt), now_ns)
    }

    /// Process a burst of plain packets, constructing the interpreter once
    /// for the whole batch and reusing the server's register file per
    /// packet. Returns all emitted packets in arrival order and the total
    /// cycles spent.
    pub fn process_batch(
        &mut self,
        pkts: impl IntoIterator<Item = Packet>,
        now_ns: u64,
    ) -> Result<(Vec<Packet>, u64), MirError> {
        let mut out = Vec::new();
        let cycles = self.process_batch_into(pkts, now_ns, &mut out)?;
        Ok((out, cycles))
    }

    /// [`ReferenceServer::process_batch`] appending into a caller-owned
    /// emissions buffer (not cleared first), so a drain loop reuses one
    /// buffer's capacity across bursts. Returns the total cycles spent.
    pub fn process_batch_into(
        &mut self,
        pkts: impl IntoIterator<Item = Packet>,
        now_ns: u64,
        out: &mut Vec<Packet>,
    ) -> Result<u64, MirError> {
        let interp = Interpreter::new(&self.prog);
        let mut total_cycles = 0u64;
        for mut pkt in pkts {
            self.stats.rx += 1;
            let r = interp.run_with(&mut pkt, &mut self.store, now_ns, &mut self.regs)?;
            let cycles = self.cost.packet_cycles(&self.prog, &r.executed);
            self.stats.cycles += cycles;
            total_cycles += cycles;
            out.extend(r.actions.into_iter().filter_map(|a| match a {
                PacketAction::Send(p) => Some(p),
                PacketAction::Drop => None,
            }));
        }
        Ok(total_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gallium_mir::{BinOp, FuncBuilder, HeaderField};
    use gallium_net::transfer::FLAG_TO_SERVER;
    use gallium_net::{FiveTuple, IpProtocol, PacketBuilder, PortId, TcpFlags};
    use gallium_partition::{partition_program, SwitchModel};

    fn minilb_staged() -> StagedProgram {
        let mut b = FuncBuilder::new("minilb");
        let map = b.decl_map("map", vec![16], vec![32], Some(65536));
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
        let p = b.finish().unwrap();
        partition_program(&p, &SwitchModel::tofino_like()).unwrap()
    }

    fn encapsulated_miss_packet(staged: &StagedProgram) -> Packet {
        let mut pkt = PacketBuilder::tcp(
            FiveTuple {
                saddr: 0x0A000001,
                daddr: 0x0A000099,
                sport: 1,
                dport: 2,
                proto: IpProtocol::Tcp,
            },
            TcpFlags(TcpFlags::SYN),
            100,
        )
        .build(PortId::SERVER);
        let hash32 = 0x0A000001u64 ^ 0x0A000099;
        let mut vals = TransferValues::default();
        vals.set("v7", 1);
        vals.set("v2", hash32);
        vals.set("v5", hash32 & 0xFFFF);
        staged
            .header_to_server
            .attach(&mut pkt, FLAG_TO_SERVER, &vals)
            .unwrap();
        pkt
    }

    #[test]
    fn miss_packet_produces_sync_batch_and_post_frame() {
        let staged = minilb_staged();
        let mut server = MiddleboxServer::new(staged.clone(), CostModel::calibrated());
        server
            .store_mut()
            .vec_set_all(
                staged.prog.state_by_name("backends").unwrap(),
                vec![0xC0A80001, 0xC0A80002],
            )
            .unwrap();
        let out = server
            .process(encapsulated_miss_packet(&staged), 0)
            .unwrap();
        assert!(out.held_for_commit);
        assert_eq!(out.to_switch.len(), 1);
        // Sync batch shape: stage, bit on, fold, bit off, clear.
        use ControlPlaneOp::*;
        assert!(matches!(out.sync_ops[0], WriteBackStage { .. }));
        assert!(matches!(out.sync_ops[1], SetWriteBackBit(true)));
        assert!(matches!(out.sync_ops[2], TableInsert { .. }));
        assert!(matches!(out.sync_ops[3], SetWriteBackBit(false)));
        assert!(matches!(out.sync_ops[4], WriteBackClear { .. }));
        assert_eq!(out.sync_ops.len(), 5);
        assert!(out.cycles > 0);
        assert_eq!(server.stats.committed, 1);
    }

    #[test]
    fn second_packet_of_flow_makes_no_updates() {
        let staged = minilb_staged();
        let mut server = MiddleboxServer::new(staged.clone(), CostModel::calibrated());
        server
            .store_mut()
            .vec_set_all(
                staged.prog.state_by_name("backends").unwrap(),
                vec![0xC0A80001],
            )
            .unwrap();
        // First packet inserts; replay with the *hit* bit cleared — the
        // switch would have handled it, but even a stale forward makes no
        // further updates because the hit arm has no server statements.
        let out1 = server
            .process(encapsulated_miss_packet(&staged), 0)
            .unwrap();
        assert!(out1.held_for_commit);
        let mut pkt = PacketBuilder::tcp(
            FiveTuple {
                saddr: 0x0A000001,
                daddr: 0x0A000099,
                sport: 1,
                dport: 2,
                proto: IpProtocol::Tcp,
            },
            TcpFlags(TcpFlags::ACK),
            100,
        )
        .build(PortId::SERVER);
        let mut vals = TransferValues::default();
        vals.set("v7", 0); // hit
        vals.set("v2", 0);
        vals.set("v5", 0);
        staged
            .header_to_server
            .attach(&mut pkt, FLAG_TO_SERVER, &vals)
            .unwrap();
        let out2 = server.process(pkt, 1).unwrap();
        assert!(!out2.held_for_commit);
        assert!(out2.sync_ops.is_empty());
    }

    #[test]
    fn initial_sync_pushes_preinstalled_entries() {
        let staged = minilb_staged();
        let mut server = MiddleboxServer::new(staged.clone(), CostModel::calibrated());
        let map = staged.prog.state_by_name("map").unwrap();
        server.store_mut().map_put(map, vec![7], vec![70]).unwrap();
        let ops = server.initial_sync();
        assert_eq!(ops.len(), 1);
        assert!(matches!(
            &ops[0],
            ControlPlaneOp::TableInsert { table, key, value }
                if table == "map" && key == &vec![7] && value == &vec![70]
        ));
    }

    #[test]
    fn reference_server_runs_whole_program() {
        let staged = minilb_staged();
        let mut reference = ReferenceServer::new(staged.prog.clone(), CostModel::calibrated());
        reference
            .store
            .vec_set_all(
                staged.prog.state_by_name("backends").unwrap(),
                vec![0xC0A80001],
            )
            .unwrap();
        let pkt = PacketBuilder::tcp(
            FiveTuple {
                saddr: 1,
                daddr: 2,
                sport: 3,
                dport: 4,
                proto: IpProtocol::Tcp,
            },
            TcpFlags(TcpFlags::SYN),
            100,
        )
        .build(PortId(0));
        let (out, cycles) = reference.process(pkt, 0).unwrap();
        assert_eq!(out.len(), 1);
        assert!(cycles > CostModel::calibrated().fixed_per_packet);
        // The baseline pays the full map cost on every packet.
        let map = staged.prog.state_by_name("map").unwrap();
        assert_eq!(reference.store.map_len(map).unwrap(), 1);
    }

    #[test]
    fn malformed_frame_rejected() {
        let staged = minilb_staged();
        let mut server = MiddleboxServer::new(staged, CostModel::calibrated());
        let pkt = PacketBuilder::tcp(
            FiveTuple {
                saddr: 1,
                daddr: 2,
                sport: 3,
                dport: 4,
                proto: IpProtocol::Tcp,
            },
            TcpFlags::default(),
            100,
        )
        .build(PortId::SERVER);
        assert!(server.process(pkt, 0).is_err());
    }
}
