//! `nat_60k`: MazuNAT with many provisioned flows, replayed as 64-byte
//! ACKs alternating outbound and inbound on flows drawn uniformly.

use crate::frame;
use crate::rng::Rng;
use crate::workload::{Fault, Fixed, Workload};
use gallium_middleboxes::mazunat::{mazunat, MazuNat, NAT_EXTERNAL_IP, NAT_PORT_BASE};
use gallium_middleboxes::{EXTERNAL_PORT, INTERNAL_PORT};
use gallium_mir::{Program, StateStore};
use gallium_net::{FiveTuple, IpProtocol, Packet, PacketBuilder, PortId, TcpFlags};

/// Frame length of every packet.
const FRAME: usize = 64;

/// One established connection.
#[derive(Debug, Clone, Copy)]
struct Flow {
    /// Internal host.
    saddr: u32,
    /// Remote host.
    daddr: u32,
    /// Internal port.
    sport: u16,
    /// Remote port.
    dport: u16,
    /// External port provisioned for the flow.
    ext_port: u16,
}

/// The workload.
pub struct Nat {
    nat: MazuNat,
    flows: Vec<Flow>,
    /// Stream: `(flow, outbound?)`.
    stream: Vec<(u32, bool)>,
    fixed: Fixed,
}

impl Nat {
    /// `flows` established connections (at most 64 000, the external port
    /// range) and a stream of `packets` packets.
    pub fn new(seed: u64, flows: usize, packets: usize) -> Self {
        assert!(flows <= 64_000, "external ports run out");
        let mut rng = Rng::new(seed, 1);
        let offset = rng.next() as u32;
        let flow_list: Vec<Flow> = (0..flows as u32)
            .map(|i| {
                // An odd multiplier is a bijection modulo 2^24: distinct
                // internal hosts, so every flow's key is distinct.
                let saddr =
                    0x0A00_0000 | (i.wrapping_mul(0x9E37_79B1).wrapping_add(offset) & 0x00FF_FFFF);
                let daddr = 0x2000_0000 | (rng.next() as u32 & 0x0FFF_FFFF);
                let ext_port = NAT_PORT_BASE + i as u16;
                let sport = loop {
                    let p = 1024 + rng.below(60_000) as u16;
                    if !checksum_neutral(saddr, p, ext_port) {
                        break p;
                    }
                };
                Flow {
                    saddr,
                    daddr,
                    sport,
                    dport: [80u16, 443, 8080][rng.below(3) as usize],
                    ext_port,
                }
            })
            .collect();
        let stream: Vec<(u32, bool)> = (0..packets)
            .map(|i| (rng.below(flows as u64) as u32, i % 2 == 0))
            .collect();
        let mut fixed = Fixed::default();
        for (n, &(f, outbound)) in stream.iter().enumerate() {
            let fl = flow_list[f as usize];
            let p = build(&fl, outbound, n as u32);
            let mut want = p.bytes().to_vec();
            if outbound {
                frame::put32(&mut want, frame::IP_SADDR, NAT_EXTERNAL_IP);
                frame::put16(&mut want, frame::TCP_SPORT, fl.ext_port);
            } else {
                frame::put32(&mut want, frame::IP_DADDR, fl.saddr);
                frame::put16(&mut want, frame::TCP_DPORT, fl.sport);
            }
            frame::fill_ip_checksum(&mut want);
            frame::fill_tcp_checksum(&mut want);
            fixed.push(p, &want);
        }
        Nat {
            nat: mazunat(),
            flows: flow_list,
            stream,
            fixed,
        }
    }
}

/// Does translating `(addr, port)` to `(NAT_EXTERNAL_IP, ext_port)` leave
/// the ones'-complement sum under the TCP checksum unchanged? For about one
/// flow in 65 535 it does, and a NAT that does not refresh the checksum
/// still emits a valid one for that flow. Such flows are not drawn, so the
/// share of packets showing that defect is the same for every seed.
fn checksum_neutral(addr: u32, port: u16, ext_port: u16) -> bool {
    let sum = |a: u32, p: u16| (u64::from(a >> 16) + u64::from(a & 0xFFFF) + u64::from(p)) % 0xFFFF;
    sum(addr, port) == sum(NAT_EXTERNAL_IP, ext_port)
}

/// The 64-byte ACK of `fl` in one direction, with valid checksums.
fn build(fl: &Flow, outbound: bool, seq: u32) -> Packet {
    let (tuple, ingress) = if outbound {
        let t = FiveTuple {
            saddr: fl.saddr,
            daddr: fl.daddr,
            sport: fl.sport,
            dport: fl.dport,
            proto: IpProtocol::Tcp,
        };
        (t, INTERNAL_PORT)
    } else {
        let t = FiveTuple {
            saddr: fl.daddr,
            daddr: NAT_EXTERNAL_IP,
            sport: fl.dport,
            dport: fl.ext_port,
            proto: IpProtocol::Tcp,
        };
        (t, EXTERNAL_PORT)
    };
    let mut p = PacketBuilder::tcp(tuple, TcpFlags(TcpFlags::ACK), FRAME)
        .seq(seq)
        .build(PortId(ingress));
    frame::fill_tcp_checksum(p.bytes_mut());
    p
}

impl Workload for Nat {
    fn program(&self) -> Program {
        self.nat.prog.clone()
    }

    fn provision(&self, store: &mut StateStore) {
        for f in &self.flows {
            let key = vec![
                u64::from(f.saddr),
                u64::from(f.daddr),
                u64::from(f.sport),
                u64::from(f.dport),
            ];
            store
                .map_put(self.nat.nat_out, key, vec![u64::from(f.ext_port)])
                .expect("nat_out declared");
            store
                .map_put(
                    self.nat.nat_in,
                    vec![u64::from(f.ext_port)],
                    vec![u64::from(f.saddr), u64::from(f.sport)],
                )
                .expect("nat_in declared");
        }
        // Ports handed out so far, so a flow learned later would get the
        // next free one.
        store
            .reg_write(self.nat.port_ctr, self.flows.len() as u64)
            .expect("port_ctr declared");
    }

    fn len(&self) -> usize {
        self.fixed.len()
    }

    fn packet(&self, i: usize) -> Packet {
        self.fixed.packet(i)
    }

    fn check(&mut self, i: usize, port: PortId, got: &[u8]) -> Result<(), Fault> {
        self.fixed.check(i, port, got)
    }

    fn tables(&self) -> &'static [&'static str] {
        &["nat_out", "nat_in"]
    }

    fn key(&self, i: usize, key: &mut Vec<u64>) -> usize {
        let (f, outbound) = self.stream[i];
        let fl = &self.flows[f as usize];
        key.clear();
        if outbound {
            key.extend([
                u64::from(fl.saddr),
                u64::from(fl.daddr),
                u64::from(fl.sport),
                u64::from(fl.dport),
            ]);
            0
        } else {
            key.push(u64::from(fl.ext_port));
            1
        }
    }

    fn describe(&self) -> String {
        format!(
            "nat_60k: {} provisioned flows, {} packets per pass (64-byte ACKs, \
             outbound/inbound alternating, flows uniform)",
            self.flows.len(),
            self.fixed.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_neutral_translation_keeps_a_stale_checksum_valid() {
        let (saddr, ext_port) = (0x0A12_3456, NAT_PORT_BASE + 7);
        let neutral = (1024..u16::MAX)
            .find(|&p| checksum_neutral(saddr, p, ext_port))
            .expect("some port is neutral");
        for (sport, valid) in [(neutral, true), (neutral + 1, false)] {
            let fl = Flow {
                saddr,
                daddr: 0x2000_0001,
                sport,
                dport: 80,
                ext_port,
            };
            // Translate outbound without refreshing the TCP checksum.
            let mut b = build(&fl, true, 1).bytes().to_vec();
            frame::put32(&mut b, frame::IP_SADDR, NAT_EXTERNAL_IP);
            frame::put16(&mut b, frame::TCP_SPORT, ext_port);
            assert_eq!(frame::tcp_checksum_ok(&b), valid, "port {sport}");
        }
    }
}
