//! Distributed execution through the façade:
//! `Session::parallelism(Parallelism::Distributed { .. })` must be a
//! drop-in backend swap — same API, bit-identical results against the
//! sequential oracle across ingestion modes and plan choices, checkpoint
//! documents that move freely between backends, and query groups whose
//! route tables distribute member pipelines onto worker processes.
//!
//! These tests spawn real `fw-worker` processes over loopback (built as
//! part of the workspace; `cargo test` at the root compiles them before
//! any test runs).

use factor_windows::engine::{sorted_results, Event, EventBatch, WindowResult};
use factor_windows::{Parallelism, PlanChoice, QueryGroup, Session};
use fw_core::{AggregateFunction, AggregateSpec, WindowQuery, WindowSet};
use fw_engine::sorted_group_results;

fn w(r: u64, s: u64) -> fw_core::Window {
    fw_core::Window::new(r, s).unwrap()
}

fn query() -> WindowQuery {
    let windows = WindowSet::new(vec![w(20, 10), w(40, 40), w(60, 30)]).unwrap();
    let specs = vec![
        AggregateSpec::new(AggregateFunction::Sum),
        AggregateSpec::new(AggregateFunction::Min),
    ];
    WindowQuery::with_aggregates(windows, specs).unwrap()
}

fn stream(n: u64) -> Vec<Event> {
    (0..n)
        .map(|t| Event::new(t, (t % 7) as u32, ((t * 11) % 31) as f64 - 9.0))
        .collect()
}

fn jitter(events: &[Event]) -> Vec<Event> {
    let mut jittered = events.to_vec();
    for chunk in jittered.chunks_mut(4) {
        chunk.reverse();
    }
    jittered
}

fn assert_bit_identical(oracle: &[WindowResult], got: &[WindowResult], context: &str) {
    assert_eq!(oracle.len(), got.len(), "{context}: result count");
    for (a, b) in oracle.iter().zip(got) {
        assert_eq!(
            (a.window, a.interval, a.key, a.agg),
            (b.window, b.interval, b.key, b.agg),
            "{context}"
        );
        assert_eq!(
            a.value.to_bits(),
            b.value.to_bits(),
            "{context}: {a:?} vs {b:?}"
        );
    }
}

/// SUM is order-sensitive in floating point, so this is a strict probe:
/// per-event, batch, and columnar ingestion over worker processes must
/// reproduce the sequential engine bit for bit, with mid-stream
/// watermarks and polls, for both plan choices and disordered input.
#[test]
fn session_distributed_matches_sequential_across_modes() {
    let events = jitter(&stream(600));
    let disorder = 4;
    let oracle = {
        let session = Session::from_query(query())
            .plan_choice(PlanChoice::Original)
            .out_of_order(disorder)
            .element_work(0)
            .collect_results(true);
        let mut pipeline = session.build().unwrap();
        pipeline.push_batch(&events).unwrap();
        sorted_results(pipeline.finish().unwrap().results)
    };
    assert!(!oracle.is_empty());

    for choice in PlanChoice::CONCRETE {
        for workers in [1usize, 2] {
            let session = Session::from_query(query())
                .plan_choice(choice)
                .parallelism(Parallelism::Distributed { workers })
                .out_of_order(disorder)
                .element_work(0)
                .collect_results(true);
            for mode in 0..3 {
                let mut pipeline = session.build().unwrap();
                assert_eq!(pipeline.shards(), workers);
                let mut collected = Vec::new();
                for (round, chunk) in events.chunks(97).enumerate() {
                    match mode {
                        0 => {
                            for &event in chunk {
                                pipeline.push(event).unwrap();
                            }
                        }
                        1 => pipeline.push_batch(chunk).unwrap(),
                        _ => {
                            let batch = EventBatch::from_events(chunk);
                            let (times, keys, values) = batch.columns();
                            pipeline.push_columns(times, keys, values).unwrap();
                        }
                    }
                    if round % 2 == 1 {
                        let watermark = pipeline.watermark();
                        pipeline.advance_watermark(watermark).unwrap();
                        collected.extend(pipeline.poll_results());
                    }
                }
                let tail = pipeline.finish().unwrap();
                collected.extend(tail.results);
                assert_bit_identical(
                    &oracle,
                    &sorted_results(collected),
                    &format!("{choice} / {workers} workers / mode {mode}"),
                );
            }
        }
    }
}

/// Checkpoints are backend-free: a snapshot taken on the sequential
/// engine restores onto worker processes mid-stream (and the distributed
/// pipeline's own checkpoint restores back onto the sequential engine),
/// with exactly-once results end to end.
#[test]
fn checkpoint_documents_move_between_backends() {
    let events = stream(500);
    let (first, rest) = events.split_at(200);
    let (second, third) = rest.split_at(150);

    let session = |parallelism: Parallelism| {
        Session::from_query(query())
            .plan_choice(PlanChoice::Factored)
            .parallelism(parallelism)
            .element_work(0)
            .collect_results(true)
    };

    let oracle = {
        let mut pipeline = session(Parallelism::Sequential).build().unwrap();
        pipeline.push_batch(&events).unwrap();
        sorted_results(pipeline.finish().unwrap().results)
    };

    let mut collected = Vec::new();

    // Sequential start…
    let mut p1 = session(Parallelism::Sequential).build().unwrap();
    p1.push_batch(first).unwrap();
    let mut snap1 = Vec::new();
    p1.checkpoint(&mut snap1).unwrap();
    drop(p1);

    // …restored onto two worker processes…
    let mut p2 = session(Parallelism::Distributed { workers: 2 })
        .restore(&mut &snap1[..])
        .unwrap();
    assert_eq!(p2.events_processed(), first.len() as u64);
    p2.push_batch(second).unwrap();
    let watermark = p2.watermark();
    p2.advance_watermark(watermark).unwrap();
    collected.extend(p2.poll_results());
    let mut snap2 = Vec::new();
    p2.checkpoint(&mut snap2).unwrap();
    drop(p2);

    // …and back onto the sequential engine for the tail.
    let mut p3 = session(Parallelism::Sequential)
        .restore(&mut &snap2[..])
        .unwrap();
    assert_eq!(p3.events_processed(), (first.len() + second.len()) as u64);
    p3.push_batch(third).unwrap();
    let out = p3.finish().unwrap();
    collected.extend(out.results);

    assert_bit_identical(
        &oracle,
        &sorted_results(collected),
        "sequential → distributed → sequential chain",
    );
}

/// A query group on the distributed backend: the route table stays
/// coordinator-side while every routed pipeline runs on worker
/// processes, including pipelines compiled for members registered
/// mid-stream. Results must match the in-process group exactly.
#[test]
fn query_group_distributes_route_targets() {
    let builder = || {
        QueryGroup::new()
            .query(WindowQuery::new(
                WindowSet::new(vec![w(20, 20), w(40, 40)]).unwrap(),
                AggregateFunction::Sum,
            ))
            .query(WindowQuery::new(
                WindowSet::new(vec![w(20, 20), w(60, 60)]).unwrap(),
                AggregateFunction::Min,
            ))
            .element_work(0)
            .collect_results(true)
    };
    let late_member = WindowQuery::new(
        WindowSet::new(vec![w(40, 40), w(60, 60)]).unwrap(),
        AggregateFunction::Count,
    );
    let events = stream(480);

    let run = |parallelism: Parallelism| {
        let mut pipeline = builder().parallelism(parallelism).build().unwrap();
        let (head, tail) = events.split_at(240);
        pipeline.push_batch(head).unwrap();
        let watermark = pipeline.watermark();
        pipeline.advance_watermark(watermark).unwrap();
        let mut collected = pipeline.poll_results();
        // A member arriving mid-stream compiles through the same backend.
        pipeline.register(late_member.clone()).unwrap();
        pipeline.push_batch(tail).unwrap();
        let out = pipeline.finish().unwrap();
        assert_eq!(out.events_processed, events.len() as u64);
        collected.extend(out.results);
        sorted_group_results(collected)
    };

    let in_process = run(Parallelism::Sequential);
    let distributed = run(Parallelism::Distributed { workers: 2 });
    assert_eq!(in_process.len(), distributed.len(), "group result count");
    for (a, b) in in_process.iter().zip(&distributed) {
        assert_eq!(a.query, b.query);
        assert_eq!(
            (
                a.result.window,
                a.result.interval,
                a.result.key,
                a.result.agg
            ),
            (
                b.result.window,
                b.result.interval,
                b.result.key,
                b.result.agg
            )
        );
        assert_eq!(a.result.value.to_bits(), b.result.value.to_bits());
    }
}

/// Column-length validation fires before anything crosses a socket.
#[test]
fn distributed_rejects_mismatched_columns() {
    let session = Session::from_query(query())
        .element_work(0)
        .parallelism(Parallelism::Distributed { workers: 1 });
    let mut pipeline = session.build().unwrap();
    let err = pipeline
        .push_columns(&[1, 2], &[0], &[1.0, 2.0])
        .unwrap_err();
    assert!(
        matches!(
            err,
            factor_windows::ApiError::Engine(
                factor_windows::engine::EngineError::ColumnLengthMismatch { .. }
            )
        ),
        "{err}"
    );
    pipeline
        .push_columns(&[1, 2], &[0, 1], &[1.0, 2.0])
        .unwrap();
    let out = pipeline.finish().unwrap();
    assert_eq!(out.events_processed, 2);
}
