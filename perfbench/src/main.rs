//! The Amber benchmark: one command, four workloads, each checking its own
//! output before it reports a number.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <local-mix|remote-rpc|paper-sor|drifting-hotspot> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics; with `--trace 1` the run is repeated with
//! protocol tracing and benchmark spans on and reports the per-layer
//! metrics instead. See `README.md` for what each workload and metric means.

mod os;
mod real;
mod sample;
mod sor;
mod spans;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// The workloads, as `--workload` names them.
const WORKLOADS: [&str; 4] = ["local-mix", "remote-rpc", "paper-sor", "drifting-hotspot"];

/// The end-to-end metrics every `--trace 0` run reports, with units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("ops_ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every `--trace 1` run reports, with units. A
/// metric whose layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 34] = [
    ("core.invoke.excl_p50_us", "us"),
    ("core.invoke.shared_p50_us", "us"),
    ("core.invoke.remote_frac", "ratio"),
    ("core.mobility.migrations_per_op", "count"),
    ("core.mobility.forward_hops_per_op", "count"),
    ("core.mobility.hint_repairs", "count"),
    ("core.mobility.locate_p50_us", "us"),
    ("core.mobility.move_p50_us", "us"),
    ("core.kernel.create_p50_us", "us"),
    ("core.kernel.creates", "count"),
    ("vspace.region_extensions", "count"),
    ("engine.real.msgs_per_op", "count"),
    ("engine.real.bytes_per_op", "bytes"),
    ("engine.real.cpu_util", "ratio"),
    ("engine.real.ctx_switches_per_op", "count"),
    ("engine.fault.retransmits", "count"),
    ("engine.coalesce.coalesced", "count"),
    ("engine.sim.cpu_util", "ratio"),
    ("engine.sim.ctx_switches_per_event", "count"),
    ("engine.sim.events_per_s", "1/s"),
    ("engine.sim.msgs", "count"),
    ("engine.sim.bytes", "bytes"),
    ("apps.sor.iterations", "count"),
    ("apps.sor.speedup", "x"),
    ("apps.sor.solve_wall_s", "s"),
    ("placement.advisory_moves", "count"),
    ("placement.advisory_skips", "count"),
    ("placement.useful_frac", "ratio"),
    ("placement.remote_per_phase", "count"),
    ("engine.trace.events_per_op", "count"),
    ("engine.trace.overhead_frac", "ratio"),
    ("bench.loop.self_frac", "ratio"),
    ("bench.latency_samples", "count"),
    ("bench.nproc", "count"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (client ops, or solves for `paper-sor`).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Output checks that did not hold; any entry fails the whole run.
    pub errors: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a failed output check (keeping the first few messages).
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok && self.errors.len() < 16 {
            self.errors.push(msg());
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&val.as_str()) {
                    return Err(format!("--workload {val}: not one of {WORKLOADS:?}"));
                }
                a.workload = val;
            }
            "--seed" => a.seed = val.parse().map_err(|e| format!("--seed {val}: {e}"))?,
            "--seconds" => {
                a.seconds = val.parse().map_err(|e| format!("--seconds {val}: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err(format!("--seconds {val}: must be in (0, 60]"));
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {val}: must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err(format!("--workload is required: one of {WORKLOADS:?}"));
    }
    Ok(a)
}

fn json_f64(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    // `{:?}` prints the shortest string that reads back as the same f64.
    format!("{v:?}")
}

/// A run still going this long after it started has hung. It is reported
/// as failed, so that a hang cannot outlive the benchmark's time limit.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Prints the result line: every metric of `table`, reading 0 where the
/// run has no value (a per-layer metric of a layer the workload does not
/// use, or any metric of a failed run).
fn print_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) {
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_f64(v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let table: &'static [(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    // Not joined: the process exits from under it, or it ends the process.
    std::thread::spawn(move || {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run did not finish within {WATCHDOG:?}");
        print_result(false, 1, 1, table, &BTreeMap::new());
        std::process::exit(1);
    });
    let run = std::panic::catch_unwind(|| match args.workload.as_str() {
        "local-mix" => real::run(real::Kind::LocalMix, &args),
        "remote-rpc" => real::run(real::Kind::RemoteRpc, &args),
        "drifting-hotspot" => real::run(real::Kind::DriftingHotspot, &args),
        _ => sor::run(&args),
    });
    let mut out = run.unwrap_or_else(|_| {
        let mut out = Outcome::default();
        out.check(false, || "the run panicked".to_string());
        out
    });
    out.set("bench.nproc", os::nproc() as f64);
    let correct = out.errors.is_empty();
    for e in &out.errors {
        eprintln!("perfbench: output check failed: {e}");
    }
    if !correct {
        // A failed check voids every operation of the run.
        out.failed = out.attempted;
    }
    let attempted = out.attempted.max(1);
    if !args.trace {
        out.set(
            "ops_ok_frac",
            (attempted - out.failed.min(attempted)) as f64 / attempted as f64,
        );
    }
    if correct {
        if let Some((name, _)) = table
            .iter()
            .find(|(n, _)| !args.trace && !out.metrics.contains_key(n))
        {
            panic!("workload did not measure end-to-end metric {name}");
        }
    }
    print_result(correct, attempted, out.failed, table, &out.metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
