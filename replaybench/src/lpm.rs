//! `lpm_4k`: the prefix router with thousands of seeded routes, replayed
//! as 64-byte packets addressed inside randomly chosen installed
//! prefixes.

use crate::frame;
use crate::rng::Rng;
use crate::workload::{Fault, Fixed, Workload};
use gallium_middleboxes::router::{prefix_router, PrefixRouter};
use gallium_middleboxes::INTERNAL_PORT;
use gallium_mir::{Program, StateStore};
use gallium_net::{FiveTuple, IpProtocol, Packet, PacketBuilder, PortId, TcpFlags};
use std::collections::{HashMap, HashSet};

/// Frame length of every packet.
const FRAME: usize = 64;

/// Shortest and longest prefix length installed; lengths are spread
/// evenly over this range.
pub const MIN_LEN: u8 = 8;
/// See [`MIN_LEN`].
pub const MAX_LEN: u8 = 24;

/// Network mask of a prefix length.
fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(len))
    }
}

/// The workload.
pub struct Lpm {
    router: PrefixRouter,
    /// `(prefix, len, next-hop MAC)` in installation order.
    routes: Vec<(u32, u8, u64)>,
    fixed: Fixed,
}

impl Lpm {
    /// `prefixes` distinct routes and a stream of `packets` packets.
    pub fn new(seed: u64, prefixes: usize, packets: usize) -> Self {
        let mut rng = Rng::new(seed, 3);
        let mut seen = HashSet::new();
        let mut routes = Vec::with_capacity(prefixes);
        let lens = u64::from(MAX_LEN - MIN_LEN + 1);
        while routes.len() < prefixes {
            let len = MIN_LEN + (routes.len() as u64 % lens) as u8;
            let prefix = rng.next() as u32 & mask(len);
            if seen.insert((prefix, len)) {
                let mac = 0x0200_0000_0000 | (rng.next() & 0xFF_FFFF_FFFF);
                routes.push((prefix, len, mac));
            }
        }
        // Reference longest-prefix match, apart from the program's table:
        // one exact map per prefix length, probed longest first.
        let by_len: HashMap<(u8, u32), u64> = routes.iter().map(|&(p, l, m)| ((l, p), m)).collect();
        let lookup = |addr: u32| -> Option<u64> {
            (MIN_LEN..=MAX_LEN)
                .rev()
                .find_map(|l| by_len.get(&(l, addr & mask(l))).copied())
        };
        let mut fixed = Fixed::default();
        for n in 0..packets {
            let (prefix, len, _) = routes[rng.below(routes.len() as u64) as usize];
            let daddr = prefix | (rng.next() as u32 & !mask(len));
            let tuple = FiveTuple {
                saddr: 0x0A00_0000 | (rng.next() as u32 & 0x00FF_FFFF),
                daddr,
                sport: 1024 + rng.below(60_000) as u16,
                dport: 80,
                proto: IpProtocol::Tcp,
            };
            let mut p = PacketBuilder::tcp(tuple, TcpFlags(TcpFlags::ACK), FRAME)
                .seq(n as u32)
                .build(PortId(INTERNAL_PORT));
            frame::fill_tcp_checksum(p.bytes_mut());
            // The TTL and the MACs are outside the TCP checksum: it stays
            // as sent.
            let mut want = p.bytes().to_vec();
            let next_hop = lookup(daddr).expect("address lies inside an installed prefix");
            frame::put_mac(&mut want, frame::ETH_DST, next_hop);
            want[frame::IP_TTL] -= 1;
            frame::fill_ip_checksum(&mut want);
            fixed.push(p, &want);
        }
        Lpm {
            router: prefix_router(),
            routes,
            fixed,
        }
    }
}

impl Workload for Lpm {
    fn program(&self) -> Program {
        self.router.prog.clone()
    }

    fn provision(&self, store: &mut StateStore) {
        for &(prefix, len, mac) in &self.routes {
            self.router.add_route(store, prefix, len, mac);
        }
    }

    fn len(&self) -> usize {
        self.fixed.len()
    }

    fn packet(&self, i: usize) -> Packet {
        self.fixed.packet(i)
    }

    fn check(&mut self, i: usize, port: PortId, got: &[u8]) -> Result<(), Fault> {
        let want = self.fixed.want(i);
        if got.len() == FRAME
            && frame::get_mac(got, frame::ETH_DST) != frame::get_mac(want, frame::ETH_DST)
        {
            let e = format!(
                "packet {i}: next hop {:012x}, reference longest match gives {:012x}",
                frame::get_mac(got, frame::ETH_DST),
                frame::get_mac(want, frame::ETH_DST)
            );
            return Err(e.into());
        }
        self.fixed.check(i, port, got)
    }

    fn tables(&self) -> &'static [&'static str] {
        &["routes"]
    }

    fn key(&self, i: usize, key: &mut Vec<u64>) -> usize {
        key.clear();
        key.push(u64::from(frame::get32(self.fixed.sent(i), frame::IP_DADDR)));
        0
    }

    fn describe(&self) -> String {
        format!(
            "lpm_4k: {} routes, lengths /{MIN_LEN}../{MAX_LEN} evenly mixed, {} packets per \
             pass (64 bytes, inside uniformly chosen routes)",
            self.routes.len(),
            self.fixed.len()
        )
    }
}
