//! Replay benchmark for the Gallium deployment.
//!
//! ```text
//! replaybench --workload <nat_60k|lb_conga|lpm_4k> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Compiles, deploys and provisions one middlebox, then replays a seeded
//! packet stream through `gallium_core::Deployment` in whole rounds until
//! `--seconds` have passed. Each round replays the stream twice on the
//! same deployment — in bursts of 64 through `inject_batch_into` (rate),
//! then packet by packet through `inject_into` (latency) — and checks
//! every emitted frame against the workload's own expectation; both
//! passes must emit identical frames. `--trace 1` adds a third pass that
//! drives each packet through the layers' public calls and reports
//! per-layer figures instead of the end-to-end ones.
//!
//! A human-readable report goes to stderr; the last line of stdout is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `attempted` counts the stream packets injected; `failed` those whose
//! injection returned an error or whose frame shows one of the program's
//! known defects (`workload::DEFECTS`); `correct` is false if any other
//! check failed.

mod alloc;
#[cfg(test)]
mod controls;
mod frame;
mod layers;
mod lb;
mod lpm;
mod nat;
mod replay;
mod report;
mod rng;
mod stats;
mod workload;

use gallium_partition::SwitchModel;
use replay::{PacketPass, Verdict};
use report::metric;
use stats::{iqm, median, p99};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Workload, DEFECTS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["nat_60k", "lb_conga", "lpm_4k"];

/// Build workload `name` for `seed` at full size.
fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "nat_60k" => Box::new(nat::Nat::new(seed, 60_000, 65_536)),
        "lb_conga" => Box::new(lb::Lb::new(
            seed,
            lb::Shape {
                flows: 1024,
                concurrent: 512,
                cap: 2500,
            },
        )),
        "lpm_4k" => Box::new(lpm::Lpm::new(seed, 4000, 16_384)),
        _ => return None,
    })
}

/// Command-line options.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("replaybench: {e}");
            eprintln!(
                "usage: replaybench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(mut w) = build(&args.workload, args.seed) else {
        eprintln!("replaybench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let w: &mut dyn Workload = w.as_mut();
    let mut v = Verdict::default();

    // ---- set-up: compile, deploy, provision, one warm packet ----------
    // Timed from here: generating the stream above is the benchmark's own
    // work, not the program's.
    let start = Instant::now();
    let model = SwitchModel::tofino_like();
    let (compiled, mut d, times) = match replay::deploy(w, &model) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("replaybench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut traced = args
        .trace
        .then(|| layers::Traced::after_provisioning(&mut d, w));
    replay::warm(&mut d, w, &mut v);
    let setup = start.elapsed();

    // ---- measurement: whole rounds until the time is up ---------------
    let measure = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut rates = Vec::new();
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    let mut pp = PacketPass::default();
    let mut rounds = 0u32;
    let mut digest = None;
    loop {
        let b = replay::batch_pass(&mut d, w, &mut v);
        replay::packet_pass(&mut d, w, &mut v, &mut pp);
        if b.digest != pp.digest {
            v.note(Err(format!(
                "round {rounds}: batch and per-packet passes emitted different frames"
            )));
        }
        if *digest.get_or_insert(b.digest) != b.digest {
            v.note(Err(format!(
                "round {rounds}: emissions differ from round 0"
            )));
        }
        rates.push(b.pkts as f64 * 1e3 / b.ns.max(1) as f64);
        p50s.push(median(&mut pp.all));
        p99s.push(p99(&mut pp.all));
        if let Some(tr) = &mut traced {
            tr.round(&mut d, w, &mut v, &b, &mut pp);
        }
        rounds += 1;
        if measure.elapsed() >= budget {
            break;
        }
    }

    eprintln!("{}", w.describe());
    eprintln!(
        "seed {}: {rounds} rounds in {:.1} s; set-up {:.3} s (compile {:.2} ms, deploy {:.2} ms, \
         configure {:.2} ms); emissions digest {:016x}",
        args.seed,
        measure.elapsed().as_secs_f64(),
        setup.as_secs_f64(),
        times.compile as f64 / 1e6,
        times.deploy as f64 / 1e6,
        times.configure as f64 / 1e6,
        digest.unwrap_or(0)
    );
    let spread = |v: &[f64]| {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(0.0, f64::max);
        format!("{lo:.4}..{hi:.4}")
    };
    eprintln!(
        "end to end: rate {:.4} Mpkt/s, p50 {:.1} ns, p99 {:.1} ns; per round: rate {} Mpkt/s, \
         p50 {} ns, p99 {} ns",
        iqm(&rates),
        iqm(&p50s),
        iqm(&p99s),
        spread(&rates),
        spread(&p50s),
        spread(&p99s)
    );
    if let Some(e) = &v.first_failure {
        eprintln!("INJECT FAILED: {e}");
    }
    for (name, n) in DEFECTS.iter().zip(v.known) {
        if n > 0 {
            eprintln!(
                "KNOWN DEFECT, counted as failed ({n} of {} packets): {name}",
                v.attempted
            );
        }
    }
    if let Some(e) = &v.first {
        eprintln!("CHECK FAILED ({} checks): {e}", v.wrong);
    }

    let metrics = if let Some(tr) = traced {
        tr.metrics(&times, &layers::stages(&w.program(), &model, &compiled))
    } else {
        vec![
            metric("setup_s", setup.as_secs_f64(), "s"),
            metric("pkt_rate_mpps", iqm(&rates), "Mpkt/s"),
            metric("pkt_p50_ns", iqm(&p50s), "ns"),
            metric("pkt_p99_ns", iqm(&p99s), "ns"),
        ]
    };
    eprint!("{}", report::render(&metrics));
    println!("{}", report::result_json(&v, &metrics));
    ExitCode::SUCCESS
}
