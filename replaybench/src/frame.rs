//! The benchmark's own view of an Ethernet/IPv4/TCP frame: field offsets,
//! the IPv4 header and TCP checksums and a frame digest, written from the RFCs
//! rather than taken from the program under test, so the output checks
//! do not share code with what they check.

/// Destination MAC (6 bytes).
pub const ETH_DST: usize = 0;
/// First byte of the IPv4 header (no VLAN tag).
pub const IP: usize = 14;
/// IPv4 total length (header and payload).
pub const IP_TOTAL_LEN: usize = IP + 2;
/// IPv4 time-to-live.
pub const IP_TTL: usize = IP + 8;
/// IPv4 header checksum.
pub const IP_CSUM: usize = IP + 10;
/// IPv4 source address.
pub const IP_SADDR: usize = IP + 12;
/// IPv4 destination address.
pub const IP_DADDR: usize = IP + 16;
/// First byte of the TCP header (IHL 5: no IP options).
pub const TCP: usize = IP + 20;
/// TCP source port.
pub const TCP_SPORT: usize = TCP;
/// TCP destination port.
pub const TCP_DPORT: usize = TCP + 2;
/// TCP sequence number.
pub const TCP_SEQ: usize = TCP + 4;
/// TCP checksum.
pub const TCP_CSUM: usize = TCP + 16;

/// Read a big-endian `u16`.
pub fn get16(b: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([b[at], b[at + 1]])
}

/// Read a big-endian `u32`.
pub fn get32(b: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

/// Write a big-endian `u16`.
pub fn put16(b: &mut [u8], at: usize, v: u16) {
    b[at..at + 2].copy_from_slice(&v.to_be_bytes());
}

/// Write a big-endian `u32`.
pub fn put32(b: &mut [u8], at: usize, v: u32) {
    b[at..at + 4].copy_from_slice(&v.to_be_bytes());
}

/// Write a 48-bit MAC address, most significant byte first.
pub fn put_mac(b: &mut [u8], at: usize, mac: u64) {
    b[at..at + 6].copy_from_slice(&mac.to_be_bytes()[2..]);
}

/// Read a 48-bit MAC address.
pub fn get_mac(b: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w[2..].copy_from_slice(&b[at..at + 6]);
    u64::from_be_bytes(w)
}

/// RFC 1071 ones'-complement sum of 16-bit words, folded.
fn ones_sum(data: &[u8]) -> u16 {
    fold(add_words(0, data))
}

/// Add `data`'s 16-bit words to `sum` (an odd last byte is padded).
fn add_words(mut sum: u32, data: &[u8]) -> u32 {
    for pair in data.chunks(2) {
        let word = match pair {
            [hi, lo] => u16::from_be_bytes([*hi, *lo]),
            [hi] => u16::from_be_bytes([*hi, 0]),
            _ => 0,
        };
        sum += u32::from(word);
    }
    sum
}

/// Fold the carries of a ones'-complement sum back in.
fn fold(mut sum: u32) -> u16 {
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    sum as u16
}

/// Recompute the IPv4 header checksum of `frame` in place.
pub fn fill_ip_checksum(frame: &mut [u8]) {
    put16(frame, IP_CSUM, 0);
    let c = !ones_sum(&frame[IP..IP + 20]);
    put16(frame, IP_CSUM, c);
}

/// Does the IPv4 header checksum verify?
pub fn ip_checksum_ok(frame: &[u8]) -> bool {
    frame.len() >= TCP && ones_sum(&frame[IP..IP + 20]) == 0xFFFF
}

/// RFC 793 ones'-complement sum of the TCP segment and its pseudo-header
/// (source and destination address, protocol, segment length), with the
/// segment's length taken from the IPv4 total length.
fn tcp_sum(frame: &[u8]) -> u16 {
    let seg = usize::from(get16(frame, IP_TOTAL_LEN)) - (TCP - IP);
    let mut sum = add_words(0, &frame[IP_SADDR..IP_DADDR + 4]);
    sum += 6 + seg as u32;
    fold(add_words(sum, &frame[TCP..TCP + seg]))
}

/// Recompute the TCP checksum of `frame` in place.
pub fn fill_tcp_checksum(frame: &mut [u8]) {
    put16(frame, TCP_CSUM, 0);
    let c = !tcp_sum(frame);
    put16(frame, TCP_CSUM, c);
}

/// Does the TCP checksum verify?
pub fn tcp_checksum_ok(frame: &[u8]) -> bool {
    if frame.len() < TCP + 20 {
        return false;
    }
    let total = usize::from(get16(frame, IP_TOTAL_LEN));
    total >= TCP + 20 - IP && IP + total <= frame.len() && tcp_sum(frame) == 0xFFFF
}

/// FNV-1a over the egress port and the frame bytes: an order-sensitive
/// fingerprint used to compare the emissions of two passes.
pub fn digest(acc: u64, port: u16, bytes: &[u8]) -> u64 {
    let mut h = acc ^ 0xCBF2_9CE4_8422_2325;
    for b in port.to_be_bytes().iter().chain(bytes) {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use gallium_net::{FiveTuple, IpProtocol, PacketBuilder, PortId, TcpFlags};

    #[test]
    fn offsets_agree_with_the_packet_builder() {
        let t = FiveTuple {
            saddr: 0x0A01_0203,
            daddr: 0x0B04_0506,
            sport: 1111,
            dport: 2222,
            proto: IpProtocol::Tcp,
        };
        let p = PacketBuilder::tcp(t, TcpFlags(TcpFlags::ACK), 64)
            .seq(77)
            .build(PortId(1));
        let b = p.bytes();
        assert_eq!(get32(b, IP_SADDR), t.saddr);
        assert_eq!(get32(b, IP_DADDR), t.daddr);
        assert_eq!(
            u16::from_be_bytes([b[TCP_SPORT], b[TCP_SPORT + 1]]),
            t.sport
        );
        assert_eq!(
            u16::from_be_bytes([b[TCP_DPORT], b[TCP_DPORT + 1]]),
            t.dport
        );
        assert_eq!(get32(b, TCP_SEQ), 77);
        assert!(ip_checksum_ok(b));
        let mut c = b.to_vec();
        c[IP_TTL] -= 1;
        assert!(!ip_checksum_ok(&c));
        fill_ip_checksum(&mut c);
        assert!(ip_checksum_ok(&c));
    }

    #[test]
    fn tcp_checksum_covers_the_pseudo_header() {
        let t = FiveTuple {
            saddr: 0x0A01_0203,
            daddr: 0x0B04_0506,
            sport: 1111,
            dport: 2222,
            proto: IpProtocol::Tcp,
        };
        let p = PacketBuilder::tcp(t, TcpFlags(TcpFlags::ACK), 1500).build(PortId(1));
        let mut b = p.bytes().to_vec();
        // The builder leaves the TCP checksum 0, which does not verify.
        assert_eq!(get16(&b, TCP_CSUM), 0);
        assert!(!tcp_checksum_ok(&b));
        fill_tcp_checksum(&mut b);
        assert!(tcp_checksum_ok(&b));
        // Rewriting an address in the pseudo-header, a port or the
        // payload breaks it; refreshing mends it.
        for at in [IP_DADDR + 3, TCP_SPORT + 1, 1400] {
            let mut c = b.clone();
            c[at] ^= 0x10;
            assert!(!tcp_checksum_ok(&c), "byte {at}");
            fill_tcp_checksum(&mut c);
            assert!(tcp_checksum_ok(&c), "byte {at}");
        }
        // The TTL is outside the pseudo-header.
        b[IP_TTL] -= 1;
        assert!(tcp_checksum_ok(&b));
    }

    #[test]
    fn tcp_checksum_matches_a_known_segment() {
        // 10.0.0.1:1 -> 10.0.0.2:2, header only, every other field 0:
        // pseudo-header 0x0a00+0x0001+0x0a00+0x0002+0x0006+0x0014 = 0x141d,
        // ports 0x0001+0x0002, data offset 0x5000: sum 0x6420.
        let mut b = vec![0u8; TCP + 20];
        b[IP] = 0x45;
        put16(&mut b, IP_TOTAL_LEN, 40);
        put32(&mut b, IP_SADDR, 0x0A00_0001);
        put32(&mut b, IP_DADDR, 0x0A00_0002);
        put16(&mut b, TCP_SPORT, 1);
        put16(&mut b, TCP_DPORT, 2);
        b[TCP + 12] = 0x50;
        fill_tcp_checksum(&mut b);
        assert_eq!(get16(&b, TCP_CSUM), !0x6420);
    }

    #[test]
    fn mac_round_trips() {
        let mut b = [0u8; 14];
        put_mac(&mut b, ETH_DST, 0x0123_4567_89AB);
        assert_eq!(get_mac(&b, ETH_DST), 0x0123_4567_89AB);
        assert_eq!(b[0], 0x01);
    }
}
