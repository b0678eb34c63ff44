//! The output checks on small streams: every pass of every workload
//! passes them, and each check fails when its frame, count or state is
//! broken on purpose (negative controls). The frames the known program
//! defects produce count as failed packets, and a frame without the
//! defect passes.

use crate::frame;
use crate::layers::{split_pass, SplitPass};
use crate::lb::{Lb, Shape, BACKENDS};
use crate::lpm::Lpm;
use crate::nat::Nat;
use crate::replay::{self, check_frames, PacketPass, Verdict, BURST};
use crate::workload::{Fault, Workload, EGRESS, FIN_TO_VIP, STALE_TCP_CHECKSUM};
use gallium_core::Deployment;
use gallium_net::{Packet, PortId};
use gallium_p4::ControlPlaneOp;
use gallium_partition::SwitchModel;
use gallium_switchsim::ControlPlane;

fn small_nat() -> Nat {
    Nat::new(7, 500, 256)
}

fn small_lb() -> Lb {
    Lb::new(
        7,
        Shape {
            flows: 48,
            concurrent: 16,
            cap: 40,
        },
    )
}

fn small_lpm() -> Lpm {
    Lpm::new(7, 300, 256)
}

fn deployed(w: &dyn Workload) -> Deployment {
    let (_, d, _) = replay::deploy(w, &SwitchModel::tofino_like()).expect("deploys");
    d
}

/// The frames emitted for stream packets `first..first + BURST`.
fn burst(d: &mut Deployment, w: &dyn Workload, first: usize) -> Vec<(PortId, Packet)> {
    let mut out = Vec::new();
    d.inject_batch_into((first..first + BURST).map(|i| w.packet(i)), &mut out)
        .expect("inject");
    out
}

/// Run `check_frames` and return the first failure.
fn verdict(w: &mut dyn Workload, first: usize, out: &[(PortId, Packet)]) -> Option<String> {
    let mut v = Verdict::default();
    let mut digest = 0;
    check_frames(w, &mut v, first, BURST, out, &mut digest);
    v.first
}

/// Batch, per-packet and layer-by-layer passes, twice over: all checks
/// pass, the three passes emit the same frames, and every round fails the
/// same packets, each for a known defect.
fn all_passes_agree(w: &mut dyn Workload) {
    let mut d = deployed(w);
    let mut v = Verdict::default();
    replay::warm(&mut d, w, &mut v);
    let mut pp = PacketPass::default();
    let mut sp = SplitPass::default();
    let mut per_round = None;
    for _ in 0..2 {
        let failed0 = v.failed;
        let b = replay::batch_pass(&mut d, w, &mut v);
        replay::packet_pass(&mut d, w, &mut v, &mut pp);
        split_pass(&mut d, w, &mut v, &mut sp);
        assert_eq!(v.first, None);
        assert_eq!(b.digest, pp.digest);
        assert_eq!(b.digest, sp.digest);
        assert_eq!(b.pkts, w.len() as u64);
        assert_eq!(
            *per_round.get_or_insert(v.failed - failed0),
            v.failed - failed0
        );
    }
    assert!(v.correct());
    assert_eq!(v.attempted, 6 * w.len() as u64);
    assert_eq!(v.first_failure, None);
    assert_eq!(v.failed, v.known.iter().sum::<u64>());
}

#[test]
fn nat_passes_agree() {
    all_passes_agree(&mut small_nat());
}

#[test]
fn lb_passes_agree() {
    let mut w = small_lb();
    all_passes_agree(&mut w);
    assert!(w.slow_share() > 0.0);
}

#[test]
fn lpm_passes_agree() {
    all_passes_agree(&mut small_lpm());
}

#[test]
fn corrupted_nat_frame_fails() {
    let mut w = small_nat();
    let mut d = deployed(&w);
    let mut out = burst(&mut d, &w, 0);
    assert_eq!(verdict(&mut w, 0, &out), None);
    // Wrong translated port, checksum left valid: only the comparison with
    // the provisioned port can catch it.
    let b = out[3].1.bytes_mut();
    b[frame::TCP_SPORT + 1] ^= 1;
    let e = verdict(&mut w, 0, &out).expect("corruption detected");
    assert!(e.starts_with("packet 3: byte"), "{e}");
    // A broken IPv4 header checksum.
    let mut out = burst(&mut d, &w, BURST);
    out[5].1.bytes_mut()[frame::IP_CSUM] ^= 0x40;
    let e = verdict(&mut w, BURST, &out).expect("bad checksum detected");
    assert!(e.contains("checksum"), "{e}");
}

#[test]
fn tcp_checksum_is_checked() {
    let mut w = small_nat();
    let mut d = deployed(&w);
    let out = burst(&mut d, &w, 0);
    for (i, (_, f)) in out.iter().enumerate().take(4) {
        // The frame as a correct NAT emits it: checksums refreshed.
        let mut good = f.bytes().to_vec();
        frame::fill_tcp_checksum(&mut good);
        assert_eq!(w.check(i, EGRESS, &good), Ok(()));
        // The checksum the packet was sent with, left after the rewrite.
        let mut stale = good.clone();
        let sent = w.packet(i);
        stale[frame::TCP_CSUM..frame::TCP_CSUM + 2]
            .copy_from_slice(&sent.bytes()[frame::TCP_CSUM..frame::TCP_CSUM + 2]);
        assert_eq!(
            w.check(i, EGRESS, &stale),
            Err(Fault::Known(STALE_TCP_CHECKSUM))
        );
        // Any other wrong checksum is a wrong frame.
        let mut bad = good.clone();
        bad[frame::TCP_CSUM] ^= 0x08;
        assert!(
            matches!(w.check(i, EGRESS, &bad), Err(Fault::Wrong(e)) if e.contains("TCP checksum"))
        );
        // A stale checksum on a frame that is also wrong elsewhere is wrong.
        stale[frame::TCP_DPORT] ^= 1;
        assert!(matches!(w.check(i, EGRESS, &stale), Err(Fault::Wrong(_))));
    }
}

#[test]
fn fin_must_reach_the_flows_backend() {
    let mut w = small_lb();
    let mut d = deployed(&w);
    let fin = (0..w.len()).find(|&i| w.is_fin(i)).expect("a FIN");
    let mut out = Vec::new();
    d.inject_batch_into((0..fin).map(|i| w.packet(i)), &mut out)
        .expect("inject");
    let mut v = Verdict::default();
    let mut digest = 0;
    check_frames(&mut w, &mut v, 0, fin, &out, &mut digest);
    assert!(v.correct(), "{:?}", v.first);
    // The backend the FIN's flow was steered to.
    let (mut key, mut fin_key) = (Vec::new(), Vec::new());
    w.key(fin, &mut fin_key);
    let backend = (0..fin)
        .find(|&j| {
            w.key(j, &mut key);
            key == fin_key
        })
        .map(|j| frame::get32(out[j].1.bytes(), frame::IP_DADDR))
        .expect("the flow's data came first");
    let sent = w.packet(fin);
    // Forwarded unchanged to the virtual address: the known defect.
    assert_eq!(
        w.check(fin, EGRESS, sent.bytes()),
        Err(Fault::Known(FIN_TO_VIP))
    );
    // Steered to the flow's backend with refreshed checksums: correct;
    // to any other backend: wrong.
    for to in BACKENDS {
        let mut f = sent.bytes().to_vec();
        frame::put32(&mut f, frame::IP_DADDR, to);
        frame::fill_ip_checksum(&mut f);
        frame::fill_tcp_checksum(&mut f);
        let r = w.check(fin, EGRESS, &f);
        if to == backend {
            assert_eq!(r, Ok(()));
        } else {
            assert!(matches!(r, Err(Fault::Wrong(_))), "{r:?}");
        }
    }
}

#[test]
fn dropped_frame_fails() {
    let mut w = small_nat();
    let mut d = deployed(&w);
    let mut out = burst(&mut d, &w, 0);
    out.remove(10);
    let e = verdict(&mut w, 0, &out).expect("missing frame detected");
    assert!(e.contains("63 frames emitted for 64 packets"), "{e}");
}

#[test]
fn duplicated_frame_fails() {
    let mut w = small_lpm();
    let mut d = deployed(&w);
    let mut out = burst(&mut d, &w, 0);
    let extra = out[0].clone();
    out.push(extra);
    assert!(verdict(&mut w, 0, &out).is_some());
}

#[test]
fn swapped_backend_fails() {
    let mut w = small_lb();
    let mut d = deployed(&w);
    let out = burst(&mut d, &w, 0);
    assert_eq!(verdict(&mut w, 0, &out), None);
    let mut out = burst(&mut d, &w, BURST);
    // Steer one data packet of a flow already seen to another backend,
    // with a valid checksum, so only the per-flow consistency can catch
    // it.
    let j = out
        .iter()
        .position(|(_, p)| BACKENDS.contains(&frame::get32(p.bytes(), frame::IP_DADDR)))
        .expect("a steered data packet");
    let b = out[j].1.bytes_mut();
    let to = frame::get32(b, frame::IP_DADDR);
    let other = BACKENDS[(BACKENDS.iter().position(|&x| x == to).unwrap() + 1) % 3];
    frame::put32(b, frame::IP_DADDR, other);
    frame::fill_ip_checksum(b);
    let e = verdict(&mut w, BURST, &out).expect("swap detected");
    assert!(e.contains("earlier to"), "{e}");
}

#[test]
fn lb_leftover_state_fails() {
    let mut w = small_lb();
    let mut d = deployed(&w);
    let mut v = Verdict::default();
    let b = replay::batch_pass(&mut d, &mut w, &mut v);
    assert!(v.correct(), "{:?}", v.first);
    assert_eq!(
        w.check_pass(&d, b.slow + 1)
            .map_err(|e| e.contains("slow-path")),
        Err(true)
    );
    // An entry left behind on the switch only: both the emptiness and the
    // replication checks object.
    d.switch
        .control(&ControlPlaneOp::TableInsert {
            table: "conn".into(),
            key: vec![1, 2, 3, 6],
            value: vec![u64::from(BACKENDS[0])],
        })
        .expect("insert");
    let e = w
        .check_pass(&d, b.slow)
        .expect_err("leftover entry detected");
    assert!(e.contains("1 entries on the switch"), "{e}");
}

#[test]
fn wrong_next_hop_fails() {
    let mut w = small_lpm();
    let mut d = deployed(&w);
    let mut out = burst(&mut d, &w, 0);
    let b = out[7].1.bytes_mut();
    let mac = frame::get_mac(b, frame::ETH_DST);
    frame::put_mac(b, frame::ETH_DST, mac ^ 1);
    let e = verdict(&mut w, 0, &out).expect("wrong next hop detected");
    assert!(e.contains("next hop"), "{e}");
}

#[test]
fn undecremented_ttl_fails() {
    let mut w = small_lpm();
    let mut d = deployed(&w);
    let mut out = burst(&mut d, &w, 0);
    let b = out[2].1.bytes_mut();
    b[frame::IP_TTL] += 1;
    frame::fill_ip_checksum(b);
    assert!(verdict(&mut w, 0, &out).is_some());
}

#[test]
fn pass_digests_see_one_changed_frame() {
    let mut w = small_nat();
    let mut d = deployed(&w);
    let out = burst(&mut d, &w, 0);
    let mut a = 0;
    let mut v = Verdict::default();
    check_frames(&mut w, &mut v, 0, BURST, &out, &mut a);
    let mut changed = out.clone();
    changed[40].1.bytes_mut()[60] ^= 0x80;
    let mut b = 0;
    check_frames(&mut w, &mut v, 0, BURST, &changed, &mut b);
    assert_ne!(a, b);
}
