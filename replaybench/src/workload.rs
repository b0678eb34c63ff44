//! What every workload gives the replay passes: a seeded packet stream,
//! the provisioning that goes with it, and checks of the emitted frames
//! against an expectation the workload computes itself.

use crate::frame;
use gallium_core::Deployment;
use gallium_mir::{Program, StateStore};
use gallium_net::{Packet, PortId};

/// Exactly what the replay passes need from a workload.
pub trait Workload {
    /// The middlebox program to compile.
    fn program(&self) -> Program;

    /// Operator provisioning: fill the server's authoritative store;
    /// `Deployment::configure` pushes it to the switch.
    fn provision(&self, store: &mut StateStore);

    /// Packets in one pass over the stream.
    fn len(&self) -> usize;

    /// A uniquely owned copy of stream packet `i` (building it is not
    /// timed, and a unique buffer means the switch's header rewrites do
    /// not pay a copy-on-write detach inside the timed call).
    fn packet(&self, i: usize) -> Packet;

    /// Packets injected once before timing starts. They must leave the
    /// deployment in the state the stream starts from.
    fn warm(&self) -> Vec<Packet> {
        vec![self.packet(0)]
    }

    /// Check the single frame emitted for stream packet `i`. Called in
    /// stream order, once per packet per pass.
    fn check(&mut self, i: usize, port: PortId, frame: &[u8]) -> Result<(), Fault>;

    /// Check the deployment after a whole pass in which `slow` packets
    /// took the slow path. By default the stream is a pure fast path.
    fn check_pass(&self, _d: &Deployment, slow: u64) -> Result<(), String> {
        if slow != 0 {
            return Err(format!("{slow} packets left the switch fast path"));
        }
        Ok(())
    }

    /// Names of the switch tables the stream's packets look up.
    fn tables(&self) -> &'static [&'static str];

    /// The key packet `i` looks up, written into `key`; returns the index
    /// into [`Workload::tables`] of the table it probes.
    fn key(&self, i: usize, key: &mut Vec<u64>) -> usize;

    /// One line describing the stream's make-up.
    fn describe(&self) -> String;
}

/// How an emitted frame differs from the expected one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Only in the way a known defect of the program makes it differ
    /// (one of [`DEFECTS`]): the packet counts as failed.
    Known(&'static str),
    /// Any other way: the output is wrong.
    Wrong(String),
}

impl From<String> for Fault {
    fn from(e: String) -> Self {
        Fault::Wrong(e)
    }
}

/// The rewritten frame keeps the TCP checksum it was sent with, which no
/// longer covers its rewritten addresses or ports.
pub const STALE_TCP_CHECKSUM: &str = "stale TCP checksum";
/// The load balancer forwards a FIN unchanged to the virtual address
/// instead of to the flow's backend.
pub const FIN_TO_VIP: &str = "FIN sent to the VIP";
/// Every known defect, in report order.
pub const DEFECTS: [&str; 2] = [STALE_TCP_CHECKSUM, FIN_TO_VIP];

/// Egress every workload's frames leave on: none of the three programs
/// routes, so the switch's default port (`SwitchConfig::default()`).
pub const EGRESS: PortId = PortId(0);

/// Compare an emitted frame with the expected one, naming the first
/// differing byte. `want` has valid IPv4 and TCP checksums. A frame that
/// differs only in its TCP checksum, and carries there the checksum of
/// `sent`, shows [`STALE_TCP_CHECKSUM`].
pub fn same_frame(
    i: usize,
    port: PortId,
    got: &[u8],
    want: &[u8],
    sent: &[u8],
) -> Result<(), Fault> {
    if port != EGRESS {
        return Err(format!("packet {i}: left on port {} not {}", port.0, EGRESS.0).into());
    }
    if got.len() != want.len() {
        let e = format!(
            "packet {i}: {} bytes emitted, {} expected",
            got.len(),
            want.len()
        );
        return Err(e.into());
    }
    if !frame::ip_checksum_ok(got) {
        return Err(format!("packet {i}: IPv4 header checksum does not verify").into());
    }
    let csum = frame::TCP_CSUM..frame::TCP_CSUM + 2;
    let differs = |r: std::ops::Range<usize>| got[r.clone()] != want[r];
    match got.iter().zip(want).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(at) if csum.contains(&at) && !differs(csum.end..got.len()) => {
            if frame::tcp_checksum_ok(got) {
                // 0x0000 and 0xffff are the same ones'-complement sum.
                Ok(())
            } else if got[csum.clone()] == sent[csum] {
                Err(Fault::Known(STALE_TCP_CHECKSUM))
            } else {
                Err(format!("packet {i}: TCP checksum does not verify").into())
            }
        }
        Some(at) => Err(format!(
            "packet {i}: byte {at} is {:#04x}, expected {:#04x}",
            got[at], want[at]
        )
        .into()),
    }
}

/// A stream fixed when the workload is built: every packet, and the frame
/// expected for it, back to back.
#[derive(Default)]
pub struct Fixed {
    pkts: Vec<Packet>,
    expected: Vec<u8>,
}

impl Fixed {
    /// Append a packet and the frame it should emit.
    pub fn push(&mut self, sent: Packet, want: &[u8]) {
        debug_assert_eq!(sent.bytes().len(), want.len());
        self.pkts.push(sent);
        self.expected.extend_from_slice(want);
    }

    /// Packets in the stream.
    pub fn len(&self) -> usize {
        self.pkts.len()
    }

    /// Packet `i` as stored (shared buffer: not for injection).
    pub fn sent(&self, i: usize) -> &[u8] {
        self.pkts[i].bytes()
    }

    /// A uniquely owned copy of packet `i`.
    pub fn packet(&self, i: usize) -> Packet {
        self.pkts[i].deep_clone()
    }

    /// The frame packet `i` should emit (every frame is as long as sent).
    pub fn want(&self, i: usize) -> &[u8] {
        let len = self.pkts[0].bytes().len();
        &self.expected[i * len..(i + 1) * len]
    }

    /// [`same_frame`] for packet `i`.
    pub fn check(&self, i: usize, port: PortId, got: &[u8]) -> Result<(), Fault> {
        same_frame(i, port, got, self.want(i), self.sent(i))
    }
}
