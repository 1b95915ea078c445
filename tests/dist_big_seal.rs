//! A seal through worker processes far past one frame: 65 536 keys ×
//! 4 aggregates, with three tumbling windows sealing at one watermark, is
//! ≈ 18.9 MB of rows per worker at 2 workers — more than the wire's
//! `MAX_FRAME_LEN`. Workers ship their rows as ordered runs of bounded
//! `ROWS` chunks and the coordinator merges them: the results must come
//! back already in canonical order and bit-identical to `Sequential`, both
//! from a poll and as `finish`'s residual rows.

use factor_windows::engine::{sorted_results, WindowResult};
use factor_windows::{Parallelism, PlanChoice, Session};
use fw_core::{AggregateFunction, AggregateSpec, Window, WindowQuery, WindowSet};

const KEYS: u32 = 65_536;

fn session(parallelism: Parallelism) -> Session {
    let windows = WindowSet::new(
        [20, 30, 60]
            .into_iter()
            .map(|r| Window::tumbling(r).unwrap())
            .collect(),
    )
    .unwrap();
    let specs = [
        AggregateFunction::Min,
        AggregateFunction::Max,
        AggregateFunction::Sum,
        AggregateFunction::Avg,
    ]
    .map(AggregateSpec::new)
    .to_vec();
    let query = WindowQuery::with_aggregates(windows, specs).unwrap();
    Session::from_query(query)
        .plan_choice(PlanChoice::Auto)
        .parallelism(parallelism)
        .element_work(0)
        .collect_results(true)
}

/// One event per key, all inside the first 10 time units, so the first
/// instance of every window seals at watermark 60.
fn columns() -> (Vec<u64>, Vec<u32>, Vec<f64>) {
    let keys: Vec<u32> = (0..KEYS).collect();
    let times = keys
        .iter()
        .map(|&k| u64::from(k) * 10 / u64::from(KEYS))
        .collect();
    let values = keys
        .iter()
        .map(|&k| f64::from(k.wrapping_mul(2_654_435_761) % 4096) * 0.125 - 256.0)
        .collect();
    (times, keys, values)
}

/// `(polled rows, finish's residual rows)` after sealing at watermark 60,
/// polling first when `poll` is set.
fn seal(parallelism: Parallelism, poll: bool) -> (Vec<WindowResult>, Vec<WindowResult>) {
    let (times, keys, values) = columns();
    let mut pipeline = session(parallelism).build().unwrap();
    pipeline.push_columns(&times, &keys, &values).unwrap();
    pipeline.advance_watermark(60).unwrap();
    let polled = if poll {
        pipeline.poll_results()
    } else {
        Vec::new()
    };
    (polled, pipeline.finish().unwrap().results)
}

fn assert_bit_identical(want: &[WindowResult], got: &[WindowResult], context: &str) {
    assert_eq!(want.len(), got.len(), "{context}: row count");
    for (i, (a, b)) in want.iter().zip(got).enumerate() {
        assert_eq!(
            (a.window, a.interval, a.key, a.agg),
            (b.window, b.interval, b.key, b.agg),
            "{context}: row {i}"
        );
        assert_eq!(a.value.to_bits(), b.value.to_bits(), "{context}: row {i}");
    }
}

#[test]
fn a_seal_past_the_frame_cap_gathers_from_two_workers_bit_identical() {
    let (sealed, residual) = seal(Parallelism::Sequential, true);
    assert!(residual.is_empty());
    let oracle = sorted_results(sealed);
    assert_eq!(oracle.len(), 3 * KEYS as usize * 4);

    let distributed = Parallelism::Distributed { workers: 2 };
    // Gathered rows arrive merged: compared as they come, not re-sorted.
    let (polled, residual) = seal(distributed, true);
    assert_bit_identical(&oracle, &polled, "poll");
    assert!(residual.is_empty());
    let (polled, residual) = seal(distributed, false);
    assert!(polled.is_empty());
    assert_bit_identical(&oracle, &residual, "finish");
}
