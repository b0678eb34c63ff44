//! The reference interpreter — the "input middlebox".
//!
//! Functional equivalence (goal 1 in §3.1) is defined against this
//! interpreter: for any packet sequence, the deployed switch+server pipeline
//! must emit the same packets and leave the global state equal to what this
//! interpreter produces when running the *unpartitioned* program. It is also
//! the execution engine of the FastClick baseline in the evaluation.

use crate::func::{BlockId, Program, Terminator, ValueId};
use crate::inst::{HeaderField, Op};
use crate::state::StateStore;
use crate::types::mask_to_width;
use crate::{MirError, Result};
use gallium_net::{
    EtherType, EthernetView, Ipv4View, Packet, TcpView, UdpView, ETHERNET_HEADER_LEN,
    IPV4_HEADER_LEN,
};

/// A runtime value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtVal {
    /// Scalar integer.
    Int(u64),
    /// Map-lookup result: `None` = miss.
    MapRes(Option<Vec<u64>>),
    /// No value (effect-only instruction).
    Unit,
}

impl RtVal {
    /// The integer payload, or an error for non-scalars.
    pub fn as_int(&self) -> Result<u64> {
        match self {
            RtVal::Int(v) => Ok(*v),
            other => Err(MirError::Fault(format!("expected int, got {other:?}"))),
        }
    }
}

/// What the middlebox did with (copies of) the packet.
#[derive(Debug, Clone, PartialEq)]
pub enum PacketAction {
    /// The packet was emitted; the snapshot holds its bytes at send time.
    Send(Packet),
    /// The packet was dropped.
    Drop,
}

/// One observable global-state event during interpretation. The mutation
/// entries drive state synchronization when the server *replays* a whole
/// packet (the §7 table-cache extension); the query entries drive
/// cache-fill decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateMutation {
    /// Map insert/overwrite.
    MapPut {
        /// The state.
        state: crate::StateId,
        /// Key components.
        key: Vec<u64>,
        /// Value components.
        value: Vec<u64>,
    },
    /// Map delete.
    MapDel {
        /// The state.
        state: crate::StateId,
        /// Key components.
        key: Vec<u64>,
    },
    /// Register write (post-update value).
    RegSet {
        /// The state.
        state: crate::StateId,
        /// New value.
        value: u64,
    },
    /// A map lookup was performed (not a mutation; recorded for cache
    /// fills).
    MapQueried {
        /// The state.
        state: crate::StateId,
        /// Key components.
        key: Vec<u64>,
        /// Whether the lookup hit.
        hit: bool,
    },
}

/// Result of interpreting one packet.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecResult {
    /// Emissions/drops in program order.
    pub actions: Vec<PacketAction>,
    /// Every instruction executed, in order — used for fast-path accounting
    /// and per-partition cycle attribution in the evaluation.
    pub executed: Vec<ValueId>,
    /// Global-state events in execution order.
    pub mutations: Vec<StateMutation>,
}

impl ExecResult {
    /// Convenience: the single sent packet, if exactly one was sent.
    pub fn sent(&self) -> Option<&Packet> {
        let mut found = None;
        for a in &self.actions {
            if let PacketAction::Send(p) = a {
                if found.is_some() {
                    return None;
                }
                found = Some(p);
            }
        }
        found
    }

    /// True when any action dropped the packet.
    pub fn dropped(&self) -> bool {
        self.actions.iter().any(|a| matches!(a, PacketAction::Drop))
    }
}

/// Deterministic hash used by the `hash` instruction. Shared between the
/// interpreter and the switch simulator so both sides compute identical
/// values (FNV-1a over the operand words).
pub fn hash_values(inputs: &[u64], width: u8) -> u64 {
    hash_values_iter(inputs.iter().copied(), width)
}

/// Streaming form of [`hash_values`]: identical digest, but inputs arrive
/// from an iterator so callers (e.g. the switch plan's register file) need
/// not materialize a slice.
pub fn hash_values_iter(inputs: impl IntoIterator<Item = u64>, width: u8) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for v in inputs {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    mask_to_width(h, width)
}

/// Read a header field out of a plain (non-encapsulated) frame. Fields not
/// present (short packet / non-TCP) read as zero — both the reference and
/// the deployed pipeline behave identically, preserving equivalence.
pub fn read_header_field(bytes: &[u8], field: HeaderField) -> u64 {
    let eth = match EthernetView::new(bytes) {
        Ok(e) => e,
        Err(_) => return 0,
    };
    use HeaderField::*;
    match field {
        EthSrc => return eth.src().to_u64(),
        EthDst => return eth.dst().to_u64(),
        EthType => return u64::from(u16::from(eth.ethertype())),
        _ => {}
    }
    if eth.ethertype() != EtherType::Ipv4 {
        return 0;
    }
    let ip = match Ipv4View::new(eth.payload()) {
        Ok(v) => v,
        Err(_) => return 0,
    };
    match field {
        IpSaddr => return u64::from(ip.saddr()),
        IpDaddr => return u64::from(ip.daddr()),
        IpProto => return u64::from(u8::from(ip.protocol())),
        IpTtl => return u64::from(ip.ttl()),
        IpTotalLen => return u64::from(ip.total_len()),
        _ => {}
    }
    // Transport fields: sport/dport share offsets for TCP and UDP.
    let tp = ip.payload();
    match field {
        SrcPort => TcpView::new(tp).map(|t| u64::from(t.sport())).unwrap_or(0),
        DstPort => TcpView::new(tp).map(|t| u64::from(t.dport())).unwrap_or(0),
        TcpSeq => TcpView::new(tp).map(|t| u64::from(t.seq())).unwrap_or(0),
        TcpAck => TcpView::new(tp).map(|t| u64::from(t.ack_no())).unwrap_or(0),
        TcpFlags => TcpView::new(tp)
            .map(|t| u64::from(t.flags().0))
            .unwrap_or(0),
        _ => 0,
    }
}

/// Write a header field into a plain frame. Writes to absent fields are
/// silently ignored (mirroring [`read_header_field`]).
pub fn write_header_field(bytes: &mut [u8], field: HeaderField, value: u64) {
    use HeaderField::*;
    let Ok(mut eth) = EthernetView::new(&mut *bytes) else {
        return;
    };
    match field {
        EthSrc => {
            eth.set_src(gallium_net::MacAddr::from_u64(value));
            return;
        }
        EthDst => {
            eth.set_dst(gallium_net::MacAddr::from_u64(value));
            return;
        }
        EthType => {
            eth.set_ethertype(EtherType::from(value as u16));
            return;
        }
        _ => {}
    }
    if eth.ethertype() != EtherType::Ipv4 {
        return;
    }
    let ip_bytes = &mut bytes[ETHERNET_HEADER_LEN..];
    let Ok(mut ip) = Ipv4View::new(&mut *ip_bytes) else {
        return;
    };
    match field {
        IpSaddr => {
            ip.set_saddr(value as u32);
            return;
        }
        IpDaddr => {
            ip.set_daddr(value as u32);
            return;
        }
        IpProto => {
            ip.set_protocol(gallium_net::IpProtocol::from(value as u8));
            return;
        }
        IpTtl => {
            ip.set_ttl(value as u8);
            return;
        }
        IpTotalLen => {
            ip.set_total_len(value as u16);
            return;
        }
        _ => {}
    }
    let proto = ip.protocol();
    let tp = &mut ip_bytes[IPV4_HEADER_LEN..];
    match (field, proto) {
        (SrcPort, gallium_net::IpProtocol::Udp) => {
            if let Ok(mut u) = UdpView::new(tp) {
                u.set_sport(value as u16);
            }
        }
        (DstPort, gallium_net::IpProtocol::Udp) => {
            if let Ok(mut u) = UdpView::new(tp) {
                u.set_dport(value as u16);
            }
        }
        (SrcPort, _) => {
            if let Ok(mut t) = TcpView::new(tp) {
                t.set_sport(value as u16);
            }
        }
        (DstPort, _) => {
            if let Ok(mut t) = TcpView::new(tp) {
                t.set_dport(value as u16);
            }
        }
        (TcpSeq, _) => {
            if let Ok(mut t) = TcpView::new(tp) {
                t.set_seq(value as u32);
            }
        }
        (TcpAck, _) => {
            if let Ok(mut t) = TcpView::new(tp) {
                t.set_ack_no(value as u32);
            }
        }
        (TcpFlags, _) => {
            if let Ok(mut t) = TcpView::new(tp) {
                t.set_flags(gallium_net::TcpFlags(value as u8));
            }
        }
        _ => {}
    }
}

/// Locate the transport payload of a plain frame (empty when absent).
pub fn transport_payload(bytes: &[u8]) -> &[u8] {
    let payload_off = (|| {
        let eth = EthernetView::new(bytes).ok()?;
        if eth.ethertype() != EtherType::Ipv4 {
            return None;
        }
        let ip = Ipv4View::new(eth.payload()).ok()?;
        let ip_off = ETHERNET_HEADER_LEN + usize::from(ip.ihl()) * 4;
        match ip.protocol() {
            gallium_net::IpProtocol::Tcp => {
                let t = TcpView::new(&bytes[ip_off.min(bytes.len())..]).ok()?;
                Some(ip_off + usize::from(t.data_offset()) * 4)
            }
            gallium_net::IpProtocol::Udp => Some(ip_off + gallium_net::UDP_HEADER_LEN),
            _ => None,
        }
    })();
    match payload_off {
        Some(off) if off <= bytes.len() => &bytes[off..],
        _ => &[],
    }
}

/// Recompute the IPv4 header checksum of a plain frame, if it is IPv4.
pub fn refresh_ip_checksum(bytes: &mut [u8]) {
    let Ok(eth) = EthernetView::new(&*bytes) else {
        return;
    };
    if eth.ethertype() != EtherType::Ipv4 {
        return;
    }
    if let Ok(mut ip) = Ipv4View::new(&mut bytes[ETHERNET_HEADER_LEN..]) {
        ip.fill_checksum();
    }
}

/// A reusable register file for [`Interpreter::run_with`].
///
/// The interpreter stores one `Option<RtVal>` per MIR instruction while a
/// packet executes. Allocating that vector per packet dominates the
/// per-packet heap traffic of batch callers (`ReferenceServer::
/// process_batch`, cache-miss replay), so the file lives outside the
/// interpreter: callers hold one and thread it through every `run_with`,
/// paying the allocation once and a `clear`+`resize` (capacity reuse)
/// thereafter. The φ-node staging buffer is pooled here for the same
/// reason.
#[derive(Debug, Default)]
pub struct RegFile {
    vals: Vec<Option<RtVal>>,
    phi_scratch: Vec<(ValueId, RtVal)>,
}

impl RegFile {
    /// Empty register file; sized lazily on first use.
    pub fn new() -> Self {
        RegFile::default()
    }

    /// Reset to `n` unset slots, reusing existing capacity.
    fn reset(&mut self, n: usize) {
        self.vals.clear();
        self.vals.resize(n, None);
        self.phi_scratch.clear();
    }
}

/// The reference interpreter.
#[derive(Debug)]
pub struct Interpreter<'p> {
    prog: &'p Program,
    step_budget: usize,
}

impl<'p> Interpreter<'p> {
    /// Interpreter over `prog` with the default step budget.
    pub fn new(prog: &'p Program) -> Self {
        Interpreter {
            prog,
            step_budget: 100_000,
        }
    }

    /// Override the runaway-loop guard.
    pub fn with_step_budget(mut self, budget: usize) -> Self {
        self.step_budget = budget;
        self
    }

    /// Process one packet against `store` at time `now_ns`.
    ///
    /// Allocates a fresh [`RegFile`] per call; batch callers should hold
    /// one and use [`Interpreter::run_with`] instead.
    pub fn run(&self, pkt: &mut Packet, store: &mut StateStore, now_ns: u64) -> Result<ExecResult> {
        self.run_with(pkt, store, now_ns, &mut RegFile::new())
    }

    /// Process one packet, reusing `regs` as the per-instruction value
    /// file. Behaviorally identical to [`Interpreter::run`]; the register
    /// file's contents on entry are discarded.
    pub fn run_with(
        &self,
        pkt: &mut Packet,
        store: &mut StateStore,
        now_ns: u64,
        regs: &mut RegFile,
    ) -> Result<ExecResult> {
        let f = &self.prog.func;
        regs.reset(f.insts.len());
        let RegFile { vals, phi_scratch } = regs;
        let mut result = ExecResult {
            actions: Vec::new(),
            executed: Vec::new(),
            mutations: Vec::new(),
        };
        let mut steps = 0usize;
        let mut prev: Option<BlockId> = None;
        let mut cur = f.entry;
        loop {
            let block = f.block(cur);
            // φ-nodes read their operands against `prev` *before* any of
            // this block's definitions overwrite them; evaluate in a batch.
            let leading_phis = block
                .insts
                .iter()
                .take_while(|v| matches!(f.inst(**v).op, Op::Phi { .. }))
                .count();
            phi_scratch.clear();
            for &v in &block.insts[..leading_phis] {
                let Op::Phi { incoming } = &f.inst(v).op else {
                    unreachable!()
                };
                let pb = prev.ok_or_else(|| MirError::Fault(format!("{v}: phi in entry block")))?;
                let (_, pv) = incoming
                    .iter()
                    .find(|(ib, _)| *ib == pb)
                    .ok_or_else(|| MirError::Fault(format!("{v}: no phi edge from {pb}")))?;
                let val = vals[pv.0 as usize]
                    .clone()
                    .ok_or_else(|| MirError::Fault(format!("{v}: phi operand {pv} unset")))?;
                phi_scratch.push((v, val));
            }
            for (v, val) in phi_scratch.drain(..) {
                vals[v.0 as usize] = Some(val);
                result.executed.push(v);
                steps += 1;
            }
            for &v in &block.insts[leading_phis..] {
                steps += 1;
                if steps > self.step_budget {
                    return Err(MirError::StepBudgetExceeded);
                }
                let val = self.eval(v, vals, pkt, store, now_ns, &mut result)?;
                vals[v.0 as usize] = Some(val);
                result.executed.push(v);
            }
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
                    let c = vals[cond.0 as usize]
                        .as_ref()
                        .ok_or_else(|| MirError::Fault(format!("branch cond {cond} unset")))?
                        .as_int()?;
                    prev = Some(cur);
                    cur = if c != 0 { *then_bb } else { *else_bb };
                }
            }
            if steps > self.step_budget {
                return Err(MirError::StepBudgetExceeded);
            }
        }
        Ok(result)
    }

    fn eval(
        &self,
        v: ValueId,
        vals: &[Option<RtVal>],
        pkt: &mut Packet,
        store: &mut StateStore,
        now_ns: u64,
        result: &mut ExecResult,
    ) -> Result<RtVal> {
        let f = &self.prog.func;
        let inst = f.inst(v);
        let get = |u: ValueId| -> Result<&RtVal> {
            vals[u.0 as usize]
                .as_ref()
                .ok_or_else(|| MirError::Fault(format!("{v}: operand {u} unset")))
        };
        let get_int = |u: ValueId| -> Result<u64> { get(u)?.as_int() };
        Ok(match &inst.op {
            Op::Const { value, .. } => RtVal::Int(*value),
            Op::Bin { op, a, b } => {
                let width = inst.ty.int_width().unwrap_or(64);
                RtVal::Int(op.eval(get_int(*a)?, get_int(*b)?, width))
            }
            Op::Not { a } => {
                let w = inst.ty.int_width().unwrap_or(64);
                RtVal::Int(mask_to_width(!get_int(*a)?, w))
            }
            Op::Cast { a, width } => RtVal::Int(mask_to_width(get_int(*a)?, *width)),
            Op::Phi { .. } => unreachable!("phis evaluated at block entry"),
            Op::ReadField { field } => RtVal::Int(read_header_field(pkt.bytes(), *field)),
            Op::WriteField { field, value } => {
                let val = mask_to_width(get_int(*value)?, field.bits());
                write_header_field(pkt.bytes_mut(), *field, val);
                RtVal::Unit
            }
            Op::ReadPort => RtVal::Int(u64::from(pkt.ingress.0)),
            Op::PayloadMatch { pattern } => {
                let payload = transport_payload(pkt.bytes());
                let found = !pattern.is_empty()
                    && payload
                        .windows(pattern.len())
                        .any(|w| w == pattern.as_slice());
                RtVal::Int(u64::from(found))
            }
            Op::MapGet { map, key } => {
                let k: Vec<u64> = key.iter().map(|u| get_int(*u)).collect::<Result<_>>()?;
                let r = store.map_get(*map, &k)?;
                result.mutations.push(StateMutation::MapQueried {
                    state: *map,
                    key: k,
                    hit: r.is_some(),
                });
                RtVal::MapRes(r)
            }
            Op::LpmGet { table, key } => {
                let k = get_int(*key)?;
                RtVal::MapRes(store.lpm_get(*table, k)?)
            }
            Op::IsNull { a } => match get(*a)? {
                RtVal::MapRes(r) => RtVal::Int(u64::from(r.is_none())),
                other => return Err(MirError::Fault(format!("{v}: is_null on {other:?}"))),
            },
            Op::Extract { a, index } => match get(*a)? {
                RtVal::MapRes(Some(r)) => RtVal::Int(
                    *r.get(*index)
                        .ok_or_else(|| MirError::Fault(format!("{v}: extract out of range")))?,
                ),
                RtVal::MapRes(None) => {
                    return Err(MirError::Fault(format!(
                        "{v}: null dereference of map result"
                    )))
                }
                other => return Err(MirError::Fault(format!("{v}: extract on {other:?}"))),
            },
            Op::MapPut { map, key, value } => {
                let k: Vec<u64> = key.iter().map(|u| get_int(*u)).collect::<Result<_>>()?;
                let val: Vec<u64> = value.iter().map(|u| get_int(*u)).collect::<Result<_>>()?;
                store.map_put(*map, k.clone(), val.clone())?;
                result.mutations.push(StateMutation::MapPut {
                    state: *map,
                    key: k,
                    value: val,
                });
                RtVal::Unit
            }
            Op::MapDel { map, key } => {
                let k: Vec<u64> = key.iter().map(|u| get_int(*u)).collect::<Result<_>>()?;
                store.map_del(*map, &k)?;
                result.mutations.push(StateMutation::MapDel {
                    state: *map,
                    key: k,
                });
                RtVal::Unit
            }
            Op::VecGet { vec, index } => {
                let i = get_int(*index)? as usize;
                RtVal::Int(store.vec_get(*vec, i)?)
            }
            Op::VecLen { vec } => RtVal::Int(store.vec_len(*vec)? as u64),
            Op::RegRead { reg } => RtVal::Int(store.reg_read(*reg)?),
            Op::RegWrite { reg, value } => {
                let x = get_int(*value)?;
                store.reg_write(*reg, x)?;
                result.mutations.push(StateMutation::RegSet {
                    state: *reg,
                    value: x,
                });
                RtVal::Unit
            }
            Op::RegFetchAdd { reg, delta } => {
                let old = store.reg_fetch_add(*reg, get_int(*delta)?)?;
                result.mutations.push(StateMutation::RegSet {
                    state: *reg,
                    value: store.reg_read(*reg)?,
                });
                RtVal::Int(old)
            }
            Op::Hash { inputs, width } => {
                let ins: Vec<u64> = inputs.iter().map(|u| get_int(*u)).collect::<Result<_>>()?;
                RtVal::Int(hash_values(&ins, *width))
            }
            Op::Now => RtVal::Int(now_ns),
            Op::UpdateChecksum => {
                refresh_ip_checksum(pkt.bytes_mut());
                RtVal::Unit
            }
            Op::Send => {
                result.actions.push(PacketAction::Send(pkt.clone()));
                RtVal::Unit
            }
            Op::Drop => {
                result.actions.push(PacketAction::Drop);
                RtVal::Unit
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::BinOp;
    use gallium_net::{FiveTuple, IpProtocol, PacketBuilder, PortId, TcpFlags};

    fn tcp_packet(saddr: u32, daddr: u32) -> Packet {
        PacketBuilder::tcp(
            FiveTuple {
                saddr,
                daddr,
                sport: 1000,
                dport: 80,
                proto: IpProtocol::Tcp,
            },
            TcpFlags(TcpFlags::ACK),
            100,
        )
        .build(PortId(1))
    }

    /// The MiniLB program from §4, built with the FuncBuilder.
    pub fn minilb() -> Program {
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
        b.finish().unwrap()
    }

    #[test]
    fn minilb_miss_then_hit() {
        let prog = minilb();
        let mut store = StateStore::new(&prog.states);
        let backends = prog.state_by_name("backends").unwrap();
        store
            .vec_set_all(backends, vec![0xC0A80001, 0xC0A80002, 0xC0A80003])
            .unwrap();
        let interp = Interpreter::new(&prog);

        let mut p1 = tcp_packet(0x0A000001, 0x0A000099);
        let r1 = interp.run(&mut p1, &mut store, 0).unwrap();
        let sent1 = r1.sent().expect("packet sent");
        let d1 = read_header_field(sent1.bytes(), HeaderField::IpDaddr);
        assert!((0xC0A80001..=0xC0A80003).contains(&(d1 as u32)));
        let map = prog.state_by_name("map").unwrap();
        assert_eq!(store.map_len(map).unwrap(), 1);

        // Same flow again: must hit and go to the same backend.
        let mut p2 = tcp_packet(0x0A000001, 0x0A000099);
        let r2 = interp.run(&mut p2, &mut store, 1).unwrap();
        let d2 = read_header_field(r2.sent().unwrap().bytes(), HeaderField::IpDaddr);
        assert_eq!(d1, d2);
        assert_eq!(store.map_len(map).unwrap(), 1);
        // The hit path executes fewer instructions than the miss path.
        assert!(r2.executed.len() < r1.executed.len());
    }

    #[test]
    fn header_rw_roundtrip() {
        let mut p = tcp_packet(7, 9);
        for field in HeaderField::ALL {
            let val = mask_to_width(0xA5A5_A5A5_A5A5_A5A5, field.bits());
            write_header_field(p.bytes_mut(), field, val);
            assert_eq!(
                read_header_field(p.bytes(), field),
                val,
                "field {}",
                field.name()
            );
            if field == HeaderField::EthType {
                // Restore IPv4 so the remaining (IP/TCP) fields resolve.
                write_header_field(p.bytes_mut(), field, 0x0800);
            }
        }
    }

    #[test]
    fn payload_match_finds_pattern() {
        let t = FiveTuple {
            saddr: 1,
            daddr: 2,
            sport: 22,
            dport: 1022,
            proto: IpProtocol::Tcp,
        };
        let pkt = PacketBuilder::tcp(t, TcpFlags(TcpFlags::ACK), 0)
            .payload(b"SSH-2.0-OpenSSH_8.9".to_vec())
            .build(PortId(0));
        assert_eq!(transport_payload(pkt.bytes()), b"SSH-2.0-OpenSSH_8.9");

        let mut b = FuncBuilder::new("dpi");
        let m = b.payload_match(b"SSH-");
        let w = b.cast(m, 8);
        b.write_field(HeaderField::IpTtl, w);
        b.ret();
        let prog = b.finish().unwrap();
        let mut store = StateStore::new(&prog.states);
        let mut p = pkt.clone();
        Interpreter::new(&prog).run(&mut p, &mut store, 0).unwrap();
        assert_eq!(read_header_field(p.bytes(), HeaderField::IpTtl), 1);
    }

    #[test]
    fn loop_hits_step_budget() {
        let mut b = FuncBuilder::new("spin");
        let l = b.new_block();
        b.jump(l);
        b.switch_to(l);
        let one = b.cnst(1, 1);
        let _ = one;
        b.jump(l);
        let prog = b.finish().unwrap();
        let mut store = StateStore::new(&prog.states);
        let mut p = tcp_packet(1, 2);
        let err = Interpreter::new(&prog)
            .with_step_budget(100)
            .run(&mut p, &mut store, 0)
            .unwrap_err();
        assert_eq!(err, MirError::StepBudgetExceeded);
    }

    #[test]
    fn null_dereference_faults() {
        let mut b = FuncBuilder::new("deref");
        let m = b.decl_map("m", vec![16], vec![32], Some(8));
        let k = b.cnst(1, 16);
        let r = b.map_get(m, vec![k]);
        let _x = b.extract(r, 0); // no null check
        b.ret();
        let prog = b.finish().unwrap();
        let mut store = StateStore::new(&prog.states);
        let mut p = tcp_packet(1, 2);
        assert!(matches!(
            Interpreter::new(&prog).run(&mut p, &mut store, 0),
            Err(MirError::Fault(_))
        ));
    }

    #[test]
    fn fetch_add_allocates_monotonic_ports() {
        let mut b = FuncBuilder::new("alloc");
        let ctr = b.decl_register("ctr", 16);
        let one = b.cnst(1, 16);
        let old = b.reg_fetch_add(ctr, one);
        b.write_field(HeaderField::SrcPort, old);
        b.send();
        b.ret();
        let prog = b.finish().unwrap();
        let mut store = StateStore::new(&prog.states);
        let interp = Interpreter::new(&prog);
        let mut seen = Vec::new();
        for _ in 0..3 {
            let mut p = tcp_packet(1, 2);
            let r = interp.run(&mut p, &mut store, 0).unwrap();
            seen.push(read_header_field(
                r.sent().unwrap().bytes(),
                HeaderField::SrcPort,
            ));
        }
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn hash_is_deterministic_and_masked() {
        let a = hash_values(&[1, 2, 3], 16);
        let b = hash_values(&[1, 2, 3], 16);
        assert_eq!(a, b);
        assert!(a <= 0xFFFF);
        assert_ne!(hash_values(&[1, 2, 3], 32), hash_values(&[3, 2, 1], 32));
    }

    #[test]
    fn drop_records_action() {
        let mut b = FuncBuilder::new("dropper");
        b.drop_pkt();
        b.ret();
        let prog = b.finish().unwrap();
        let mut store = StateStore::new(&prog.states);
        let mut p = tcp_packet(1, 2);
        let r = Interpreter::new(&prog).run(&mut p, &mut store, 0).unwrap();
        assert!(r.dropped());
        assert_eq!(r.sent(), None);
    }
}
