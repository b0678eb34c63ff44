//! `lb_conga`: the L4 load balancer under CONGA enterprise flow sizes,
//! with a fixed number of flows open at once and their packets
//! interleaved at random.
//!
//! Every flow is a first data packet (a table miss: the server picks a
//! backend and installs `conn`), the rest of its 1500-byte data packets
//! (switch fast path), and a FIN (the server deletes `conn`). So exactly
//! two packets per flow take the slow path, and `conn` is empty again at
//! the end of every pass.

use crate::frame;
use crate::rng::Rng;
use crate::workload::{same_frame, Fault, Workload, EGRESS, FIN_TO_VIP};
use gallium_core::Deployment;
use gallium_middleboxes::lb::{load_balancer, LoadBalancer};
use gallium_middleboxes::INTERNAL_PORT;
use gallium_mir::{Program, StateStore};
use gallium_net::{FiveTuple, IpProtocol, Packet, PacketBuilder, PortId, TcpFlags};
use gallium_workloads::{CongaWorkload, FlowDesc, FlowSizeDistribution};

/// The three backends.
pub const BACKENDS: [u32; 3] = [0xC0A8_0A01, 0xC0A8_0A02, 0xC0A8_0A03];

/// The virtual address clients connect to.
pub const VIP: u32 = 0x0A09_0001;

/// Data frame length.
const DATA_FRAME: usize = 1500;
/// Flow bytes carried per data packet: the frame less its Ethernet, IPv4
/// and TCP headers, as `FlowDesc::data_packets` counts them.
const MSS: u32 = DATA_FRAME as u32 - 54;
/// FIN frame length.
const FIN_FRAME: usize = 64;

/// Stream shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Flows per pass.
    pub flows: usize,
    /// Flows open at once.
    pub concurrent: usize,
    /// Cap on a flow's data packets.
    pub cap: u64,
}

/// One client connection.
struct Flow {
    tuple: FiveTuple,
    /// Data packets (the FIN comes after them).
    data: u32,
}

/// The workload.
pub struct Lb {
    lb: LoadBalancer,
    shape: Shape,
    flows: Vec<Flow>,
    /// Stream: `(flow, k)`; `k < data` is the k-th data packet, `k == data`
    /// the FIN.
    stream: Vec<(u32, u32)>,
    /// Per flow: its data-packet and FIN frames (the data frame's sequence
    /// number is patched per packet).
    templates: Vec<(Packet, Packet)>,
    /// Backend each flow was steered to, fixed by the first frame seen
    /// and held across passes.
    backend: Vec<Option<u32>>,
    /// Client connection used to warm the deployment (data + FIN).
    warm_flow: FiveTuple,
}

impl Lb {
    /// A stream of `shape.flows` flows.
    pub fn new(seed: u64, shape: Shape) -> Self {
        let mut rng = Rng::new(seed, 2);
        // Flow sizes: the distribution's quantiles at evenly spaced
        // probabilities, so every seed replays the same size mix (and the
        // same slow-path share); the seed decides which flow gets which
        // size, the addresses and the interleaving.
        let dist = FlowSizeDistribution::conga(CongaWorkload::Enterprise);
        let mut sizes: Vec<u64> = (0..shape.flows)
            .map(|i| dist.quantile((i as f64 + 0.5) / shape.flows as f64))
            .collect();
        rng.shuffle(&mut sizes);
        let offset = rng.next() as u32;
        let tuple = |i: u32, rng: &mut Rng| FiveTuple {
            saddr: 0x0A00_0000 | (i.wrapping_mul(0x9E37_79B1).wrapping_add(offset) & 0x00FF_FFFF),
            daddr: VIP,
            sport: 1024 + rng.below(60_000) as u16,
            dport: [80u16, 443][rng.below(2) as usize],
            proto: IpProtocol::Tcp,
        };
        let flows: Vec<Flow> = sizes
            .iter()
            .enumerate()
            .map(|(i, &bytes)| {
                let desc = FlowDesc {
                    id: i as u64,
                    bytes,
                    frame_len: DATA_FRAME,
                    tuple: tuple(i as u32, &mut rng),
                    worker: 0,
                };
                Flow {
                    tuple: desc.tuple,
                    data: desc.data_packets().min(shape.cap) as u32,
                }
            })
            .collect();
        let warm_flow = tuple(shape.flows as u32, &mut rng);

        // Interleave: `concurrent` flows open at once; each step sends the
        // next packet of a uniformly chosen open flow, and a finished flow
        // is replaced by the next one to open.
        let mut stream = Vec::new();
        let mut open: Vec<(u32, u32)> = Vec::with_capacity(shape.concurrent);
        let mut next = 0u32;
        while (open.len() < shape.concurrent) && (next as usize) < flows.len() {
            open.push((next, 0));
            next += 1;
        }
        while !open.is_empty() {
            let j = rng.below(open.len() as u64) as usize;
            let (f, k) = open[j];
            stream.push((f, k));
            if k == flows[f as usize].data {
                if (next as usize) < flows.len() {
                    open[j] = (next, 0);
                    next += 1;
                } else {
                    open.swap_remove(j);
                }
            } else {
                open[j].1 += 1;
            }
        }
        let templates = flows
            .iter()
            .map(|f| (data_frame(f.tuple, 0), fin_frame(f.tuple, f.data * MSS)))
            .collect();
        Lb {
            lb: load_balancer(),
            shape,
            backend: vec![None; flows.len()],
            flows,
            stream,
            templates,
            warm_flow,
        }
    }

    /// Packets of the stream that take the slow path: first data packet
    /// and FIN of every flow.
    pub fn slow_share(&self) -> f64 {
        2.0 * self.flows.len() as f64 / self.stream.len() as f64
    }

    /// The frame stream FIN `i` should emit: sent to its flow's backend.
    fn fin_want(&self, i: usize, sent: &[u8]) -> Result<Vec<u8>, Fault> {
        let f = self.stream[i].0 as usize;
        let Some(to) = self.backend[f] else {
            return Err(format!("packet {i}: FIN of flow {f} before any of its data").into());
        };
        let mut want = sent.to_vec();
        frame::put32(&mut want, frame::IP_DADDR, to);
        frame::fill_ip_checksum(&mut want);
        frame::fill_tcp_checksum(&mut want);
        Ok(want)
    }

    /// Is stream packet `i` a FIN?
    pub fn is_fin(&self, i: usize) -> bool {
        let (f, k) = self.stream[i];
        k == self.flows[f as usize].data
    }
}

/// A 1500-byte data frame of `tuple` at sequence number `seq`, with
/// valid checksums.
fn data_frame(tuple: FiveTuple, seq: u32) -> Packet {
    let mut p = PacketBuilder::tcp(tuple, TcpFlags(TcpFlags::ACK), DATA_FRAME)
        .seq(seq)
        .build(PortId(INTERNAL_PORT));
    frame::fill_tcp_checksum(p.bytes_mut());
    p
}

/// The FIN of `tuple` at sequence number `seq`, with valid checksums.
fn fin_frame(tuple: FiveTuple, seq: u32) -> Packet {
    let mut p = PacketBuilder::tcp(tuple, TcpFlags(TcpFlags::FIN | TcpFlags::ACK), FIN_FRAME)
        .seq(seq)
        .build(PortId(INTERNAL_PORT));
    frame::fill_tcp_checksum(p.bytes_mut());
    p
}

impl Workload for Lb {
    fn program(&self) -> Program {
        self.lb.prog.clone()
    }

    fn provision(&self, store: &mut StateStore) {
        self.lb.configure(store, &BACKENDS);
    }

    fn len(&self) -> usize {
        self.stream.len()
    }

    fn packet(&self, i: usize) -> Packet {
        let (f, k) = self.stream[i];
        let (data, fin) = &self.templates[f as usize];
        if k == self.flows[f as usize].data {
            return fin.deep_clone();
        }
        let mut p = data.deep_clone();
        let b = p.bytes_mut();
        frame::put32(b, frame::TCP_SEQ, k * MSS);
        frame::fill_tcp_checksum(b);
        p
    }

    fn warm(&self) -> Vec<Packet> {
        vec![
            data_frame(self.warm_flow, 0),
            fin_frame(self.warm_flow, MSS),
        ]
    }

    fn check(&mut self, i: usize, port: PortId, got: &[u8]) -> Result<(), Fault> {
        let sent = self.packet(i);
        let sent = sent.bytes();
        if self.is_fin(i) {
            // The teardown belongs to the backend that served the flow.
            let want = self.fin_want(i, sent)?;
            if port == EGRESS && got == sent {
                return Err(Fault::Known(FIN_TO_VIP));
            }
            return same_frame(i, port, got, &want, sent);
        }
        let f = self.stream[i].0 as usize;
        if got.len() < frame::TCP {
            return Err(format!("packet {i}: {}-byte frame", got.len()).into());
        }
        let to = frame::get32(got, frame::IP_DADDR);
        if !BACKENDS.contains(&to) {
            return Err(format!("packet {i}: steered to {to:#010x}, not a backend").into());
        }
        match self.backend[f] {
            None => self.backend[f] = Some(to),
            Some(b) if b != to => {
                let e = format!("packet {i}: flow {f} steered to {to:#010x}, earlier to {b:#010x}");
                return Err(e.into());
            }
            Some(_) => {}
        }
        let mut want = sent.to_vec();
        frame::put32(&mut want, frame::IP_DADDR, to);
        frame::fill_ip_checksum(&mut want);
        frame::fill_tcp_checksum(&mut want);
        same_frame(i, port, got, &want, sent)
    }

    fn check_pass(&self, d: &Deployment, slow: u64) -> Result<(), String> {
        let want = 2 * self.flows.len() as u64;
        if slow != want {
            return Err(format!(
                "{slow} slow-path packets, expected {want} (2 per flow)"
            ));
        }
        let on_switch = d.switch.table("conn").map_or(usize::MAX, |t| t.len());
        let on_server = d.server.store.map_len(self.lb.conn).unwrap_or(usize::MAX);
        if on_switch != 0 || on_server != 0 {
            return Err(format!(
                "conn holds {on_switch} entries on the switch and {on_server} on the server \
                 after every flow closed"
            ));
        }
        if !d.replicated_consistent() {
            return Err("switch and server copies of conn disagree".into());
        }
        Ok(())
    }

    fn tables(&self) -> &'static [&'static str] {
        &["conn"]
    }

    fn key(&self, i: usize, key: &mut Vec<u64>) -> usize {
        let t = &self.flows[self.stream[i].0 as usize].tuple;
        key.clear();
        key.extend([
            u64::from(t.saddr),
            u64::from(t.daddr),
            (u64::from(t.sport) << 16) | u64::from(t.dport),
            6,
        ]);
        0
    }

    fn describe(&self) -> String {
        format!(
            "lb_conga: {} flows (CONGA enterprise sizes, capped at {} data packets), {} open \
             at once, {} packets per pass, {:.2}% slow path",
            self.flows.len(),
            self.shape.cap,
            self.shape.concurrent,
            self.stream.len(),
            100.0 * self.slow_share()
        )
    }
}
