//! Allocation discipline of the warm dataplane fast path.
//!
//! The PR 6 contract: once a deployment is warm — flow state installed,
//! every scratch/emission buffer grown to size — injecting a burst of
//! uniquely-owned packets performs **zero heap allocations**. Inline table
//! keys keep lookups off the heap, the copy-on-write [`Packet`] makes
//! emission a refcount bump, and `inject_batch_into` threads one reusable
//! buffer through switch → server → switch.
//!
//! Verified the blunt way: this test binary installs a counting global
//! allocator and asserts that the measuring thread's allocation count does
//! not move across the warm burst. The count is per thread, because libtest
//! runs these tests in parallel and a process-wide counter would also see
//! the set-up allocations of neighbouring tests. Per-thread counting is
//! still exact: `Deployment`, `Switch` and `RtTable` start no threads, so
//! every allocation the warm path could make lands on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use gallium::middleboxes::mazunat;
use gallium::middleboxes::INTERNAL_PORT;
use gallium::prelude::*;

/// System allocator wrapper that counts every allocation (not frees:
/// dropping consumed packets is allowed — what must never happen on the
/// warm path is *acquiring* memory).
struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Const-initialised, so
    /// touching it never allocates (which would recurse into the allocator).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the current thread. `try_with` rather than
/// `with`: during thread teardown the slot may already be gone, and a
/// panic inside the allocator would abort the process.
fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const BURST: usize = 256;

fn warm_nat_deployment() -> (Deployment, Packet) {
    let nat = mazunat::mazunat();
    let compiled = compile(&nat.prog, &SwitchModel::tofino_like()).unwrap();
    let mut d =
        Deployment::new(&compiled, SwitchConfig::default(), CostModel::calibrated()).unwrap();
    let t = FiveTuple {
        saddr: 0x0A00_0009,
        daddr: 0x0808_0404,
        sport: 50_123,
        dport: 443,
        proto: IpProtocol::Tcp,
    };
    let syn = PacketBuilder::tcp(t, TcpFlags(TcpFlags::SYN), 200).build(PortId(INTERNAL_PORT));
    d.inject(syn).unwrap();
    let probe = PacketBuilder::tcp(t, TcpFlags(TcpFlags::ACK), 200).build(PortId(INTERNAL_PORT));
    let before = d.stats.slow_path;
    d.inject(probe.clone()).unwrap();
    assert_eq!(d.stats.slow_path, before, "probe must stay on the switch");
    (d, probe)
}

#[test]
fn counter_sees_allocations_on_the_measuring_thread() {
    // Negative control: the per-thread counter must still observe a heap
    // allocation made here, or the zero-allocation assertions below
    // could never fail.
    let before = allocs();
    black_box(Vec::<u8>::with_capacity(64));
    let after = allocs();
    assert!(
        after - before >= 1,
        "a 64-byte Vec allocation on this thread was not counted"
    );
}

#[test]
fn warm_fast_path_is_allocation_free() {
    let (mut d, probe) = warm_nat_deployment();

    // Pre-build a burst of uniquely-owned packets (`deep_clone`: refcount
    // 1, so in-place header rewrites never trigger a copy-on-write
    // detach) and an emissions buffer outside the measured region.
    let build_burst = || -> Vec<Packet> { (0..BURST).map(|_| probe.deep_clone()).collect() };
    let mut out: Vec<(PortId, Packet)> = Vec::with_capacity(BURST * 2);

    // Warm every lazily-grown buffer (emission vec, plan scratch, switch
    // internals) with a throwaway burst.
    let done = d.inject_batch_into(build_burst(), &mut out).unwrap();
    assert_eq!(done, BURST);
    assert_eq!(out.len(), BURST, "one emission per warm NAT packet");

    // Measured burst: the counter must not move at all.
    let burst = build_burst();
    out.clear();
    let before = allocs();
    let done = d.inject_batch_into(burst, &mut out).unwrap();
    let after = allocs();

    assert_eq!(done, BURST);
    assert_eq!(out.len(), BURST);
    assert_eq!(
        after - before,
        0,
        "warm fast path allocated {} times over a {BURST}-packet burst",
        after - before
    );
    assert_eq!(d.stats.slow_path, 1, "only the initial SYN left the switch");

    // Sanity: the emissions are real NAT rewrites, not pass-throughs.
    for (port, pkt) in &out {
        assert_ne!(*port, PortId(INTERNAL_PORT));
        assert_eq!(pkt.len(), 200);
    }
}

#[test]
fn warm_fast_path_with_recorder_is_allocation_free() {
    // The flight-recorder contract: sampling every packet (1-in-1) into
    // the preallocated ring is lock-free and alloc-free, so the warm
    // fast path stays at zero allocations with tracing fully on.
    let (mut d, probe) = warm_nat_deployment();
    d.enable_flight_recorder(1, 4096);

    let build_burst = || -> Vec<Packet> { (0..BURST).map(|_| probe.deep_clone()).collect() };
    let mut out: Vec<(PortId, Packet)> = Vec::with_capacity(BURST * 2);

    // Warm pass with the recorder installed.
    let done = d.inject_batch_into(build_burst(), &mut out).unwrap();
    assert_eq!(done, BURST);

    let burst = build_burst();
    out.clear();
    let before = allocs();
    let done = d.inject_batch_into(burst, &mut out).unwrap();
    let after = allocs();

    assert_eq!(done, BURST);
    assert_eq!(
        after - before,
        0,
        "traced warm fast path allocated {} times over a {BURST}-packet burst",
        after - before
    );
    // The burst really was recorded: every packet sampled, events ringed.
    let rec = d.recorder().unwrap();
    assert_eq!(rec.sampled(), 2 * BURST as u64);
    assert!(rec.events() >= 2 * BURST as u64);
}

#[test]
fn in_place_churn_is_allocation_free() {
    // The exact-match store is written in place: once the slot array has
    // grown to hold the working set, control-plane inserts and deletes
    // copy key and value words into slots and shift runs, and lookups
    // read them — none of it acquires memory.
    use gallium::switchsim::RtTable;

    let mut t = RtTable::new(1 << 16);
    let key = |i: u64| [0x0A00_0000 | i, 0x0A09_0001, (40_000 + i) << 16 | 80, 6];
    // Warm-up: grow to the working set once, then empty the table.
    for i in 0..512u64 {
        t.insert_main(&key(i), &[i]).unwrap();
    }
    for i in 0..512u64 {
        t.delete_main(&key(i));
    }
    let rebuilds = t.stats.rebuilds.get();

    let mut hits = 0u64;
    let before = allocs();
    for round in 0..64u64 {
        for i in 0..400u64 {
            let k = key(i);
            t.insert_main(&k, &[i + round]).unwrap();
            if t.lookup_ref(&k, false) == Some(&[i + round][..]) {
                hits += 1;
            }
            if i % 3 == 0 {
                t.delete_main(&key(i / 2));
            }
        }
        for i in 0..400u64 {
            t.delete_main(&key(i));
        }
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "in-place churn allocated {} times",
        after - before
    );
    assert_eq!(
        hits,
        64 * 400,
        "every insert was visible to the next lookup"
    );
    assert_eq!(
        t.stats.rebuilds.get(),
        rebuilds,
        "the churn never re-laid out"
    );
}

#[test]
fn warm_prefix_router_is_allocation_free() {
    // The LPM fast path: a few hundred routes of mixed lengths, served by
    // the per-length index. Neither the batch nor the per-packet entry
    // point may acquire memory once warm.
    use gallium::middleboxes::router::prefix_router;

    let r = prefix_router();
    let compiled = compile(&r.prog, &SwitchModel::tofino_like()).unwrap();
    let mut d =
        Deployment::new(&compiled, SwitchConfig::default(), CostModel::calibrated()).unwrap();
    let routes: Vec<(u32, u8)> = (0..300u32)
        .map(|i| {
            let len = 8 + (i % 17) as u8;
            // Bit 28 clear: addresses with it set fall to the default.
            let prefix = i.wrapping_mul(0x9E37_79B9) & (u32::MAX << (32 - len)) & 0xEFFF_FFFF;
            (prefix, len)
        })
        .collect();
    let r2 = r.clone();
    let installed = routes.clone();
    d.configure(move |s| {
        r2.add_route(s, 0, 0, 0x0200_0000_0000);
        for (i, &(prefix, len)) in installed.iter().enumerate() {
            r2.add_route(s, prefix, len, 0x0200_0000_0001 + i as u64);
        }
    })
    .unwrap();

    // Destinations inside the installed routes at every length, plus two
    // that only the default route catches.
    let probes: Vec<Packet> = routes
        .iter()
        .map(|&(prefix, len)| prefix | (0x00AB_CDEF & !(u32::MAX << (32 - len))))
        .take(BURST - 2)
        .chain([0xFF00_0001, 0xFE00_0005])
        .map(|daddr| {
            let t = FiveTuple {
                saddr: 0x0A00_0009,
                daddr,
                sport: 40_000,
                dport: 80,
                proto: IpProtocol::Tcp,
            };
            PacketBuilder::tcp(t, TcpFlags(TcpFlags::ACK), 64).build(PortId(1))
        })
        .collect();
    let build_burst = || -> Vec<Packet> { probes.iter().map(Packet::deep_clone).collect() };
    let mut out: Vec<(PortId, Packet)> = Vec::with_capacity(BURST * 2);

    // Warm both entry points.
    let done = d.inject_batch_into(build_burst(), &mut out).unwrap();
    assert_eq!(done, probes.len());
    assert_eq!(out.len(), probes.len(), "every probe has a route");
    for p in build_burst() {
        d.inject_into(p, &mut out).unwrap();
    }

    let burst = build_burst();
    out.clear();
    let before = allocs();
    let done = d.inject_batch_into(burst, &mut out).unwrap();
    let after = allocs();
    assert_eq!(done, probes.len());
    assert_eq!(
        after - before,
        0,
        "warm router batch allocated {} times over {} packets",
        after - before,
        probes.len()
    );

    let singles = build_burst();
    out.clear();
    let before = allocs();
    for p in singles {
        d.inject_into(p, &mut out).unwrap();
    }
    let after = allocs();
    assert_eq!(out.len(), probes.len());
    assert_eq!(
        after - before,
        0,
        "warm router per-packet path allocated {} times over {} packets",
        after - before,
        probes.len()
    );
    assert_eq!(d.stats.slow_path, 0, "every lookup ran on the switch");
}

#[test]
fn shared_packets_detach_instead_of_corrupting() {
    // The counterpart guarantee: when the injected packet *is* shared
    // (refcount > 1), copy-on-write pays one detach copy rather than
    // mutating the caller's buffer behind its back.
    let (mut d, probe) = warm_nat_deployment();
    let original = probe.bytes().to_vec();
    let out = d.inject(probe.clone()).unwrap();
    assert_eq!(out.len(), 1);
    assert_ne!(out[0].1.bytes(), original.as_slice(), "NAT rewrote headers");
    assert_eq!(
        probe.bytes(),
        original.as_slice(),
        "caller's copy untouched"
    );
}
