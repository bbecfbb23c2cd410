//! Pins the paper's virtual-time results to exact values.
//!
//! The simulator is deterministic, so a Fig-2 solve and a Table-1
//! measurement come out identical on every run and every host. Any change
//! to event order, cost charging or message accounting moves these numbers
//! and fails here, instead of only showing up as a diff in `results/*.txt`.
//! The Fig-2 points are cut to 4 nodes x 2 processors and 3 iterations so
//! the test runs in about a second in a debug build.

use amber_apps::sor::{run_amber_sor, SorParams};
use amber_bench::ops::measure_table1;
use amber_core::SimTime;

fn fig2_small(overlap: bool) -> SorParams {
    let mut p = SorParams::fig2(4, 2, overlap);
    p.max_iters = 3;
    p
}

#[test]
fn fig2_overlapped_solve_is_pinned() {
    let r = run_amber_sor(fig2_small(true));
    assert_eq!(r.iterations, 3);
    assert_eq!(r.elapsed, SimTime::from_ns(1_257_932_000));
    assert_eq!(r.msgs, 481);
    assert_eq!(r.bytes, 1_235_975);
}

#[test]
fn fig2_blocking_solve_is_pinned() {
    let r = run_amber_sor(fig2_small(false));
    assert_eq!(r.iterations, 3);
    assert_eq!(r.elapsed, SimTime::from_ns(1_211_712_800));
    assert_eq!(r.msgs, 481);
    assert_eq!(r.bytes, 1_232_135);
}

#[test]
fn table1_remote_invoke_is_pinned() {
    // Table 1 prints this as 8.320 ms, the paper's value.
    assert_eq!(measure_table1().remote_invoke, SimTime::from_ns(8_320_400));
}
