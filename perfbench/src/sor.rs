//! `paper-sor`: the paper's Red/Black SOR at its Figure 2 point (122 x 842
//! grid, 8 nodes x 4 processors, communication overlapped) on SimEngine.
//!
//! The solve's virtual-time results (speedup, messages, iterations) are
//! exact; the wall time it takes to compute them is what the end-to-end
//! metrics measure. An "op" of this workload is one whole solve.

use std::time::Instant;

use amber_apps::sor::{
    run_amber_sor, run_amber_sor_capture, sor_sequential, sor_sequential_time, SorParams, SorResult,
};
use amber_core::TraceSummary;

use crate::os::Usage;
use crate::sample::median;
use crate::{Args, Outcome};

/// One-iteration solves timed for `setup_s`.
const SETUPS: usize = 5;
/// Solves in an untraced run, at least (more while time remains).
const MIN_SOLVES: usize = 3;

/// The solve parameters for `seed`: the paper's configuration, with the
/// seed choosing the hot edge's temperature so the checksum the solve must
/// reproduce differs from seed to seed.
fn params(seed: u64) -> SorParams {
    let mut p = SorParams::fig2(8, 4, true);
    p.top_temp = 50.0 + (seed % 101) as f64;
    p
}

/// Parallel speedup in virtual time over the sequential baseline.
fn speedup(p: &SorParams, r: &SorResult) -> f64 {
    sor_sequential_time(p, r.iterations).as_secs_f64() / r.elapsed.as_secs_f64()
}

/// Virtual-time results that must repeat bit for bit from solve to solve.
fn exact(r: &SorResult) -> (u64, usize, u64, u64, u64) {
    (
        r.elapsed.as_ns(),
        r.iterations,
        r.checksum.to_bits(),
        r.msgs,
        r.bytes,
    )
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let p = params(args.seed);
    let (seq_iters, seq_checksum, _) = sor_sequential(&p);
    let check_solve = |out: &mut Outcome, r: &SorResult| {
        out.check(r.iterations == p.max_iters, || {
            format!(
                "solve ran {} iterations, want {}",
                r.iterations, p.max_iters
            )
        });
        out.check(r.checksum.to_bits() == seq_checksum.to_bits(), || {
            format!(
                "checksum {} differs from sequential {seq_checksum}",
                r.checksum
            )
        });
    };
    out.check(seq_iters == p.max_iters, || {
        format!(
            "sequential reference ran {seq_iters} iterations, want {}",
            p.max_iters
        )
    });

    if args.trace {
        return traced(p, check_solve, out);
    }

    let mut setups: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let mut q = p;
            q.max_iters = 1;
            let t = Instant::now();
            let r = run_amber_sor(q);
            let s = t.elapsed().as_secs_f64();
            out.check(r.iterations == 1, || {
                format!("set-up solve ran {} iterations", r.iterations)
            });
            s
        })
        .collect();

    // Every solve does the same deterministic work, so solve-to-solve
    // variation is the host's, not the program's: each solve is a round,
    // and every metric is the median over them, as on RealEngine.
    let start = Instant::now();
    let (mut walls, mut peaks) = (Vec::new(), Vec::new());
    let mut first: Option<SorResult> = None;
    while walls.len() < MIN_SOLVES || start.elapsed().as_secs_f64() < args.seconds {
        crate::os::release_free_memory();
        crate::os::reset_peak_rss();
        let t = Instant::now();
        let r = run_amber_sor(p);
        walls.push(t.elapsed().as_secs_f64());
        peaks.push(crate::os::peak_rss_mb());
        check_solve(&mut out, &r);
        let f = *first.get_or_insert(r);
        out.check(exact(&r) == exact(&f), || {
            format!(
                "solve is not deterministic: {:?} vs {:?}",
                exact(&r),
                exact(&f)
            )
        });
    }
    let f = first.expect("at least one solve");
    out.attempted = walls.len() as u64;
    println!(
        "paper-sor: {} solves, walls {walls:.4?} s, set-ups {setups:.4?} s, speedup {}, msgs {}",
        walls.len(),
        speedup(&p, &f),
        f.msgs
    );
    let wall = median(&mut walls);
    out.set("setup_s", median(&mut setups));
    out.set("ops_per_s", 1.0 / wall);
    // A round holds one solve, so its median and 99th percentile are both
    // that solve's wall time.
    out.set("op_p50_us", wall * 1e6);
    out.set("op_p99_us", wall * 1e6);
    out.set("peak_rss_mb", median(&mut peaks));
    out
}

/// The per-layer run: one untraced solve for wall time and OS counters,
/// then one traced solve whose event stream must account for the solve's
/// network counters exactly.
fn traced(
    p: SorParams,
    check_solve: impl Fn(&mut Outcome, &SorResult),
    mut out: Outcome,
) -> Outcome {
    let u0 = Usage::now();
    let t = Instant::now();
    let plain = run_amber_sor(p);
    let wall = t.elapsed().as_secs_f64();
    let usage = Usage::now().since(u0);
    check_solve(&mut out, &plain);

    let t = Instant::now();
    let (captured, events) = run_amber_sor_capture(p);
    let traced_wall = t.elapsed().as_secs_f64();
    check_solve(&mut out, &captured);
    out.check(exact(&captured) == exact(&plain), || {
        format!(
            "tracing changed the solve: {:?} vs {:?}",
            exact(&captured),
            exact(&plain)
        )
    });
    let s = TraceSummary::from_events(&events);
    out.check(
        (s.messages, s.message_bytes) == (captured.msgs, captured.bytes),
        || {
            format!(
                "trace counts {} msgs / {} bytes, the engine {} / {}",
                s.messages, s.message_bytes, captured.msgs, captured.bytes
            )
        },
    );
    out.attempted = 2;

    let n = events.len() as f64;
    let snap = s.snapshot;
    let invokes = snap.total_invokes() as f64;
    out.set(
        "core.invoke.remote_frac",
        snap.remote_invokes as f64 / invokes,
    );
    out.set("core.mobility.hint_repairs", snap.hint_repairs as f64);
    out.set("core.kernel.creates", snap.creates as f64);
    out.set("vspace.region_extensions", snap.region_extensions as f64);
    out.set("engine.sim.cpu_util", usage.cpu_s / wall);
    out.set(
        "engine.sim.ctx_switches_per_event",
        usage.ctx_switches as f64 / n,
    );
    out.set("engine.sim.events_per_s", n / wall);
    out.set("engine.sim.msgs", plain.msgs as f64);
    out.set("engine.sim.bytes", plain.bytes as f64);
    out.set("apps.sor.iterations", plain.iterations as f64);
    out.set("apps.sor.speedup", speedup(&p, &plain));
    out.set("apps.sor.solve_wall_s", wall);
    out.set("engine.trace.events_per_op", n);
    out.set("engine.trace.overhead_frac", traced_wall / wall - 1.0);
    println!(
        "paper-sor traced: wall {wall:.4} s untraced, {traced_wall:.4} s traced, {n} events, speedup {}",
        speedup(&p, &plain)
    );
    out
}
