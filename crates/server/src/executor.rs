//! Execution of the non-offloaded partition.
//!
//! The server walks the *original* CFG — exactly the partitioned CFGs of
//! Figure 4 — executing only server-assigned instructions:
//!
//! * operands computed by the pre-processing partition are read from the
//!   switch→server transfer header;
//! * branches whose condition belongs to this or an earlier partition are
//!   taken normally (the condition bit rides the header when pre computed
//!   it); branches that only steer offloaded statements are skipped to
//!   their join point;
//! * updates to **replicated** state are applied locally *and* recorded,
//!   so the runtime can push them to the switch through the write-back
//!   protocol.

use crate::plan::ServerPlan;
use gallium_mir::interp::{
    hash_values, read_header_field, refresh_ip_checksum, transport_payload, write_header_field,
};
use gallium_mir::types::mask_to_width;
use gallium_mir::{MirError, Op, RtVal, StateId, StateStore, Terminator, ValueId};
use gallium_net::{Packet, TransferValues};
use gallium_partition::transfer::{load_rtval, store_rtval};
use gallium_partition::{StagedProgram, StatePlacement};

/// Errors raised while the server processes one offloaded packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The switch→server transfer header could not be detached.
    Decap {
        /// What the header parser reported.
        reason: String,
    },
    /// The server→switch transfer header could not be attached.
    Encap {
        /// What the header writer reported.
        reason: String,
    },
    /// A server instruction tried to mutate state the partitioner placed
    /// exclusively on the switch. The write-back protocol (§4.3.3) has no
    /// channel to reconcile such an update, so the executor rejects it
    /// instead of silently desynchronizing the two halves.
    UnexpectedUpdate {
        /// The offending instruction.
        value: ValueId,
        /// Name of the switch-only state.
        state: String,
    },
    /// The underlying MIR execution faulted.
    Mir(MirError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Decap { reason } => write!(f, "decapsulation failed: {reason}"),
            ExecError::Encap { reason } => write!(f, "encapsulation failed: {reason}"),
            ExecError::UnexpectedUpdate { value, state } => write!(
                f,
                "{value}: unexpected update to switch-only state `{state}`"
            ),
            ExecError::Mir(e) => write!(f, "server execution: {e}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Mir(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MirError> for ExecError {
    fn from(e: MirError) -> Self {
        ExecError::Mir(e)
    }
}

/// A recorded update to replicated state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateUpdate {
    /// Map insert/overwrite.
    MapPut {
        /// The state.
        state: StateId,
        /// Key components.
        key: Vec<u64>,
        /// Value components.
        value: Vec<u64>,
    },
    /// Map delete.
    MapDel {
        /// The state.
        state: StateId,
        /// Key components.
        key: Vec<u64>,
    },
    /// Register write (post-update value).
    RegSet {
        /// The state.
        state: StateId,
        /// New value.
        value: u64,
    },
}

/// Result of running the server partition over one packet.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerExec {
    /// Packets emitted by server-side `send`s (snapshots).
    pub emissions: Vec<Packet>,
    /// Whether a server-side `drop` executed.
    pub dropped: bool,
    /// Executed instruction trace (for cycle accounting).
    pub executed: Vec<ValueId>,
    /// Values for the server→switch transfer header.
    pub out_values: TransferValues,
    /// Updates to replicated state, in execution order.
    pub replicated_updates: Vec<StateUpdate>,
}

/// Run the non-offloaded partition. `pkt` must already be decapsulated;
/// `in_values` holds the switch→server header contents.
///
/// Builds a transient [`ServerPlan`] per call; packet-rate callers should
/// build the plan once and use
/// [`execute_server_partition_planned`] instead (as
/// [`crate::MiddleboxServer`] does).
pub fn execute_server_partition(
    staged: &StagedProgram,
    store: &mut StateStore,
    pkt: &mut Packet,
    in_values: &TransferValues,
    now_ns: u64,
) -> Result<ServerExec, ExecError> {
    let plan = ServerPlan::build(staged);
    execute_server_partition_planned(staged, &plan, store, pkt, in_values, now_ns)
}

/// Reusable per-instruction value scratch for
/// [`execute_server_partition_into`]: one slot per MIR instruction,
/// allocated once per server and recycled across packets (`clear` +
/// `resize` keep the capacity).
#[derive(Debug, Default)]
pub struct ExecScratch {
    vals: Vec<Option<RtVal>>,
}

impl ExecScratch {
    /// Empty scratch; sized lazily on first use.
    pub fn new() -> Self {
        ExecScratch::default()
    }

    fn reset(&mut self, n: usize) {
        self.vals.clear();
        self.vals.resize(n, None);
    }
}

/// Run the non-offloaded partition against a pre-built [`ServerPlan`]
/// (the postdominator tree and the per-block partition filter are reused
/// across packets instead of being recomputed).
///
/// Allocates a fresh [`ExecScratch`] per call; packet-rate callers should
/// hold one and use [`execute_server_partition_into`] instead (as
/// [`crate::MiddleboxServer`] does).
pub fn execute_server_partition_planned(
    staged: &StagedProgram,
    plan: &ServerPlan,
    store: &mut StateStore,
    pkt: &mut Packet,
    in_values: &TransferValues,
    now_ns: u64,
) -> Result<ServerExec, ExecError> {
    execute_server_partition_into(
        staged,
        plan,
        store,
        pkt,
        in_values,
        now_ns,
        &mut ExecScratch::new(),
    )
}

/// [`execute_server_partition_planned`] with a caller-owned value scratch,
/// so steady-state execution performs no per-packet value-file allocation.
#[allow(clippy::too_many_arguments)]
pub fn execute_server_partition_into(
    staged: &StagedProgram,
    plan: &ServerPlan,
    store: &mut StateStore,
    pkt: &mut Packet,
    in_values: &TransferValues,
    now_ns: u64,
    scratch: &mut ExecScratch,
) -> Result<ServerExec, ExecError> {
    let prog = &staged.prog;
    // Reject mutations of switch-only state before touching the store.
    let guard_update = |v: ValueId, sid: StateId| -> Result<(), ExecError> {
        if staged.placement_of(sid) == StatePlacement::SwitchOnly {
            return Err(ExecError::UnexpectedUpdate {
                value: v,
                state: prog.states[sid.0 as usize].name.clone(),
            });
        }
        Ok(())
    };
    let f = &prog.func;
    let ipdom = &plan.ipdom;

    scratch.reset(f.insts.len());
    let vals = &mut scratch.vals;
    let mut exec = ServerExec {
        emissions: Vec::new(),
        dropped: false,
        executed: Vec::new(),
        out_values: TransferValues::default(),
        replicated_updates: Vec::new(),
    };

    // Operand resolution: locally computed, else from the wire.
    macro_rules! resolve {
        ($vals:expr, $u:expr) => {
            match &$vals[$u.0 as usize] {
                Some(v) => Ok(v.clone()),
                None => load_rtval(prog, in_values, $u).ok_or_else(|| {
                    MirError::Fault(format!("operand {} neither local nor transferred", $u))
                }),
            }
        };
    }

    let mut cur = f.entry;
    let mut prev: Option<gallium_mir::BlockId> = None;
    let mut steps = 0usize;
    let budget = 100_000usize;
    loop {
        let block = f.block(cur);
        for &v in &plan.block_insts[cur.0 as usize] {
            steps += 1;
            if steps > budget {
                return Err(MirError::StepBudgetExceeded.into());
            }
            let inst = f.inst(v);
            let result: RtVal =
                match &inst.op {
                    Op::Phi { incoming } => {
                        let pb = prev.ok_or_else(|| {
                            MirError::Fault(format!("{v}: phi reached without predecessor"))
                        })?;
                        let (_, pv) = incoming.iter().find(|(b, _)| *b == pb).ok_or_else(|| {
                            MirError::Fault(format!("{v}: no phi edge from {pb}"))
                        })?;
                        resolve!(vals, *pv)?
                    }
                    Op::Const { value, .. } => RtVal::Int(*value),
                    Op::Bin { op, a, b } => {
                        let w = plan.width_of(v);
                        RtVal::Int(op.eval(
                            resolve!(vals, *a)?.as_int()?,
                            resolve!(vals, *b)?.as_int()?,
                            w,
                        ))
                    }
                    Op::Not { a } => {
                        let w = plan.width_of(v);
                        RtVal::Int(mask_to_width(!resolve!(vals, *a)?.as_int()?, w))
                    }
                    Op::Cast { a, width } => {
                        RtVal::Int(mask_to_width(resolve!(vals, *a)?.as_int()?, *width))
                    }
                    Op::ReadField { field } => RtVal::Int(read_header_field(pkt.bytes(), *field)),
                    Op::WriteField { field, value } => {
                        let x = mask_to_width(resolve!(vals, *value)?.as_int()?, field.bits());
                        write_header_field(pkt.bytes_mut(), *field, x);
                        RtVal::Unit
                    }
                    Op::ReadPort => RtVal::Int(u64::from(pkt.ingress.0)),
                    Op::PayloadMatch { pattern } => {
                        let payload = transport_payload(pkt.bytes());
                        let found = !pattern.is_empty()
                            && payload.windows(pattern.len()).any(|w| w == &pattern[..]);
                        RtVal::Int(u64::from(found))
                    }
                    Op::MapGet { map, key } => {
                        let k = resolve_ints(vals, in_values, prog, key)?;
                        RtVal::MapRes(store.map_get(*map, &k)?)
                    }
                    Op::LpmGet { table, key } => {
                        let k = resolve!(vals, *key)?.as_int()?;
                        RtVal::MapRes(store.lpm_get(*table, k)?)
                    }
                    Op::IsNull { a } => match resolve!(vals, *a)? {
                        RtVal::MapRes(r) => RtVal::Int(u64::from(r.is_none())),
                        other => {
                            return Err(MirError::Fault(format!("{v}: is_null on {other:?}")).into())
                        }
                    },
                    Op::Extract { a, index } => match resolve!(vals, *a)? {
                        RtVal::MapRes(Some(r)) => RtVal::Int(*r.get(*index).ok_or_else(|| {
                            MirError::Fault(format!("{v}: extract out of range"))
                        })?),
                        RtVal::MapRes(None) => {
                            return Err(MirError::Fault(format!("{v}: null dereference")).into())
                        }
                        other => {
                            return Err(MirError::Fault(format!("{v}: extract on {other:?}")).into())
                        }
                    },
                    Op::MapPut { map, key, value } => {
                        guard_update(v, *map)?;
                        let k = resolve_ints(vals, in_values, prog, key)?;
                        let val = resolve_ints(vals, in_values, prog, value)?;
                        store.map_put(*map, k.clone(), val.clone())?;
                        if staged.placement_of(*map) == StatePlacement::Replicated {
                            exec.replicated_updates.push(StateUpdate::MapPut {
                                state: *map,
                                key: k,
                                value: val,
                            });
                        }
                        RtVal::Unit
                    }
                    Op::MapDel { map, key } => {
                        guard_update(v, *map)?;
                        let k = resolve_ints(vals, in_values, prog, key)?;
                        store.map_del(*map, &k)?;
                        if staged.placement_of(*map) == StatePlacement::Replicated {
                            exec.replicated_updates.push(StateUpdate::MapDel {
                                state: *map,
                                key: k,
                            });
                        }
                        RtVal::Unit
                    }
                    Op::VecGet { vec, index } => {
                        let i = resolve!(vals, *index)?.as_int()? as usize;
                        RtVal::Int(store.vec_get(*vec, i)?)
                    }
                    Op::VecLen { vec } => RtVal::Int(store.vec_len(*vec)? as u64),
                    Op::RegRead { reg } => RtVal::Int(store.reg_read(*reg)?),
                    Op::RegWrite { reg, value } => {
                        guard_update(v, *reg)?;
                        let x = resolve!(vals, *value)?.as_int()?;
                        store.reg_write(*reg, x)?;
                        if staged.placement_of(*reg) == StatePlacement::Replicated {
                            exec.replicated_updates.push(StateUpdate::RegSet {
                                state: *reg,
                                value: x,
                            });
                        }
                        RtVal::Unit
                    }
                    Op::RegFetchAdd { reg, delta } => {
                        guard_update(v, *reg)?;
                        let d = resolve!(vals, *delta)?.as_int()?;
                        let old = store.reg_fetch_add(*reg, d)?;
                        if staged.placement_of(*reg) == StatePlacement::Replicated {
                            exec.replicated_updates.push(StateUpdate::RegSet {
                                state: *reg,
                                value: store.reg_read(*reg)?,
                            });
                        }
                        RtVal::Int(old)
                    }
                    Op::Hash { inputs, width } => {
                        let ins = resolve_ints(vals, in_values, prog, inputs)?;
                        RtVal::Int(hash_values(&ins, *width))
                    }
                    Op::Now => RtVal::Int(now_ns),
                    Op::UpdateChecksum => {
                        refresh_ip_checksum(pkt.bytes_mut());
                        RtVal::Unit
                    }
                    Op::Send => {
                        exec.emissions.push(pkt.clone());
                        RtVal::Unit
                    }
                    Op::Drop => {
                        exec.dropped = true;
                        RtVal::Unit
                    }
                };
            vals[v.0 as usize] = Some(result);
            exec.executed.push(v);
        }

        // Terminator.
        match &block.term {
            Terminator::Return => break,
            Terminator::Jump(b) => {
                prev = Some(cur);
                cur = *b;
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let available =
                    vals[cond.0 as usize].is_some() || load_rtval(prog, in_values, *cond).is_some();
                if available {
                    let c = resolve!(vals, *cond)?.as_int()?;
                    prev = Some(cur);
                    cur = if c != 0 { *then_bb } else { *else_bb };
                } else {
                    // Branch steers only offloaded statements: skip to join.
                    match ipdom[cur.0 as usize] {
                        Some(j) if j != cur => {
                            prev = None; // no φ of ours can live at this join
                            cur = j;
                        }
                        _ => break,
                    }
                }
            }
        }
        steps += 1;
        if steps > budget {
            return Err(MirError::StepBudgetExceeded.into());
        }
    }

    // Populate the outgoing header.
    for &v in &staged.to_switch_values {
        let rt = match &vals[v.0 as usize] {
            Some(rt) => Some(rt.clone()),
            None => load_rtval(prog, in_values, v), // pass-through from pre
        };
        if let Some(rt) = rt {
            store_rtval(prog, &mut exec.out_values, v, &rt);
        }
    }
    Ok(exec)
}

fn resolve_ints(
    vals: &[Option<RtVal>],
    in_values: &TransferValues,
    prog: &gallium_mir::Program,
    ids: &[ValueId],
) -> Result<Vec<u64>, MirError> {
    ids.iter()
        .map(|u| {
            match &vals[u.0 as usize] {
                Some(v) => v.clone(),
                None => load_rtval(prog, in_values, *u).ok_or_else(|| {
                    MirError::Fault(format!("operand {u} neither local nor transferred"))
                })?,
            }
            .as_int()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gallium_mir::{BinOp, FuncBuilder, HeaderField};
    use gallium_net::{FiveTuple, IpProtocol, PacketBuilder, PortId, TcpFlags};
    use gallium_partition::{partition_program, Partition, SwitchModel};

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
        let p = b.finish().expect("minilb builds");
        partition_program(&p, &SwitchModel::tofino_like()).expect("minilb partitions")
    }

    fn pkt() -> Packet {
        PacketBuilder::tcp(
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
        .build(PortId(1))
    }

    #[test]
    fn miss_path_computes_backend_and_records_update() {
        let staged = minilb_staged();
        let mut store = StateStore::new(&staged.prog.states);
        let backends = staged.prog.state_by_name("backends").expect("declared");
        store
            .vec_set_all(backends, vec![0xC0A80001, 0xC0A80002, 0xC0A80003])
            .expect("fits");
        // Header from the switch: miss bit + hash32 + key.
        let mut in_values = TransferValues::default();
        let hash32 = 0x0A000001u64 ^ 0x0A000099;
        in_values.set("v7", 1);
        in_values.set("v2", hash32);
        in_values.set("v5", hash32 & 0xFFFF);
        let mut p = pkt();
        let exec =
            execute_server_partition(&staged, &mut store, &mut p, &in_values, 0).expect("runs");
        // The server computed idx = hash % 3 and picked that backend.
        let expect = [0xC0A80001u64, 0xC0A80002, 0xC0A80003][(hash32 % 3) as usize];
        assert_eq!(exec.out_values.get("v13"), Some(expect));
        // Branch bit passes through to post.
        assert_eq!(exec.out_values.get("v7"), Some(1));
        // The replicated map update was recorded.
        assert_eq!(exec.replicated_updates.len(), 1);
        let StateUpdate::MapPut { key, value, .. } = &exec.replicated_updates[0] else {
            unreachable!("update {:?} is not a MapPut", exec.replicated_updates[0]);
        };
        assert_eq!(key, &vec![hash32 & 0xFFFF]);
        assert_eq!(value, &vec![expect]);
        // Local map updated too.
        let map = staged.prog.state_by_name("map").expect("declared");
        assert_eq!(store.map_len(map).expect("declared"), 1);
        // The server's own trace contains only non-offloaded statements.
        for v in &exec.executed {
            assert_eq!(staged.partition_of(*v), Partition::NonOffloaded);
        }
        // No server-side send: the send on the miss path is post-processing.
        assert!(exec.emissions.is_empty());
    }

    #[test]
    fn hit_path_executes_nothing_on_server() {
        // A hit packet would never be forwarded, but even if it were the
        // server partition does no work: the branch bit says "hit" and the
        // hit arm is entirely pre.
        let staged = minilb_staged();
        let mut store = StateStore::new(&staged.prog.states);
        store
            .vec_set_all(
                staged.prog.state_by_name("backends").expect("declared"),
                vec![1],
            )
            .expect("fits");
        let mut in_values = TransferValues::default();
        in_values.set("v7", 0); // hit
        in_values.set("v2", 0);
        in_values.set("v5", 0);
        let mut p = pkt();
        let exec =
            execute_server_partition(&staged, &mut store, &mut p, &in_values, 0).expect("runs");
        assert!(exec.executed.is_empty());
        assert!(exec.replicated_updates.is_empty());
    }

    #[test]
    fn missing_transfer_value_faults() {
        let staged = minilb_staged();
        let mut store = StateStore::new(&staged.prog.states);
        store
            .vec_set_all(
                staged.prog.state_by_name("backends").expect("declared"),
                vec![1],
            )
            .expect("fits");
        let mut in_values = TransferValues::default();
        in_values.set("v7", 1); // miss, but hash32/key absent
        let mut p = pkt();
        assert!(matches!(
            execute_server_partition(&staged, &mut store, &mut p, &in_values, 0),
            Err(ExecError::Mir(MirError::Fault(_)))
        ));
    }

    #[test]
    fn update_to_switch_only_state_rejected() {
        // Mangle the staging so the map the server writes on the miss path
        // is declared switch-only: the executor must refuse the update
        // rather than desynchronize the two halves.
        let mut staged = minilb_staged();
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
        let hash32 = 0x0A000001u64 ^ 0x0A000099;
        in_values.set("v7", 1);
        in_values.set("v2", hash32);
        in_values.set("v5", hash32 & 0xFFFF);
        let mut p = pkt();
        let err = execute_server_partition(&staged, &mut store, &mut p, &in_values, 0)
            .expect_err("switch-only update must be rejected");
        let ExecError::UnexpectedUpdate { state, .. } = &err else {
            unreachable!("wrong error {err:?}");
        };
        assert_eq!(state, "map");
        // The store must be untouched.
        assert_eq!(store.map_len(map).expect("declared"), 0);
    }
}
