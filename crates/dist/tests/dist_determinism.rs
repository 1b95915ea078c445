//! Determinism suite for [`fw_dist::DistPipeline`]: for every plan
//! choice and worker-process count, under bounded-disorder input and a
//! mixed ingestion pattern (batches, single pushes, mid-stream
//! watermarks and polls), the distributed results must be exactly the
//! single-threaded [`fw_engine::PlanPipeline`] results after canonical
//! ordering — bitwise on the `f64` values, not approximate (each key's
//! accumulator folds the same values in the same order on exactly one
//! worker).
//!
//! Also pins elastic checkpoint rescale: a snapshot exported from N
//! worker processes restores onto M (and onto the single-threaded
//! engine) with exactly-once results.

use fw_core::{
    AggregateFunction, AggregateSpec, Optimizer, PlanChoice, Window, WindowQuery, WindowSet,
};
use fw_dist::DistPipeline;
use fw_engine::{sorted_results, Event, PipelineOptions, PlanPipeline, WindowResult};

/// The workspace's deterministic PRNG (DESIGN.md §6) — no `rand` dep.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

fn w(r: u64, s: u64) -> Window {
    Window::new(r, s).unwrap()
}

/// An almost-ordered stream: every event lags the running maximum
/// timestamp by strictly less than `slack`.
fn jittered_stream(n: u64, keys: u32, slack: u64, rng: &mut SplitMix64) -> Vec<Event> {
    let mut arrivals: Vec<(u64, Event)> = (0..n)
        .map(|t| {
            let key = (rng.below(u64::from(keys))) as u32;
            let value = ((t.wrapping_mul(7) + u64::from(key)) % 101) as f64 - 50.0;
            (t + rng.below(slack.max(1)), Event::new(t, key, value))
        })
        .collect();
    arrivals.sort_by_key(|&(arrival, event)| (arrival, event.time));
    arrivals.into_iter().map(|(_, event)| event).collect()
}

fn opts(slack: u64) -> PipelineOptions {
    PipelineOptions {
        collect: true,
        element_work: 0,
        out_of_order: slack,
        profile: Default::default(),
    }
}

/// Drives a distributed pipeline with a mixed ingestion pattern.
fn run_distributed_mixed(
    plan: &fw_core::QueryPlan,
    events: &[Event],
    slack: u64,
    workers: usize,
    rng: &mut SplitMix64,
) -> Vec<WindowResult> {
    let mut pipeline = DistPipeline::compile(plan, opts(slack), workers).unwrap();
    assert_eq!(pipeline.workers(), workers);
    let mut collected = Vec::new();
    let mut i = 0usize;
    while i < events.len() {
        match rng.below(4) {
            0 => {
                pipeline.push(events[i]).unwrap();
                i += 1;
            }
            _ => {
                let len = 1 + rng.below(48) as usize;
                let end = (i + len).min(events.len());
                pipeline.push_batch(&events[i..end]).unwrap();
                i = end;
            }
        }
        if rng.below(8) == 0 {
            let watermark = pipeline.watermark().saturating_sub(slack);
            pipeline.advance_watermark(watermark).unwrap();
            collected.extend(pipeline.poll_results());
        }
    }
    let out = pipeline.finish().unwrap();
    collected.extend(out.results);
    assert_eq!(out.events_processed, events.len() as u64);
    sorted_results(collected)
}

fn check_setup(windows: &[Window], function: AggregateFunction, seed: u64) {
    let slack = 8;
    let query = WindowQuery::new(WindowSet::new(windows.to_vec()).unwrap(), function);
    let outcome = Optimizer::default().optimize(&query).unwrap();
    let mut rng = SplitMix64(seed);
    let events = jittered_stream(500, 16, slack, &mut rng);

    for choice in PlanChoice::CONCRETE {
        let plan = &outcome.select(choice).plan;
        let single = {
            let mut pipeline = PlanPipeline::compile(plan, opts(slack)).unwrap();
            pipeline.push_batch(&events).unwrap();
            sorted_results(pipeline.finish().unwrap().results)
        };
        for workers in [1usize, 2, 4] {
            let distributed = run_distributed_mixed(plan, &events, slack, workers, &mut rng);
            assert_eq!(
                single, distributed,
                "{function:?}/{choice} at {workers} worker processes diverged"
            );
        }
    }
}

#[test]
fn tumbling_windows_match_across_worker_processes() {
    let windows = [w(20, 20), w(30, 30), w(40, 40)];
    for (i, function) in [AggregateFunction::Min, AggregateFunction::Sum]
        .into_iter()
        .enumerate()
    {
        check_setup(&windows, function, 0xD157 + i as u64);
    }
}

#[test]
fn hopping_windows_match_across_worker_processes() {
    check_setup(
        &[w(20, 10), w(40, 10), w(60, 20)],
        AggregateFunction::Max,
        0xD158,
    );
}

#[test]
fn multi_aggregate_columnar_push_matches() {
    // Columnar ingestion straight through the wire fast path, with a
    // multi-term SELECT list.
    let windows = WindowSet::new(vec![w(16, 16), w(32, 16)]).unwrap();
    let query = WindowQuery::with_aggregates(
        windows,
        vec![
            AggregateSpec::new(AggregateFunction::Min),
            AggregateSpec::new(AggregateFunction::Avg),
        ],
    )
    .unwrap();
    let outcome = Optimizer::default().optimize(&query).unwrap();
    let mut rng = SplitMix64(0xC01);
    let events = jittered_stream(800, 8, 4, &mut rng);
    let batch = fw_engine::EventBatch::from_events(&events);
    let (times, keys, values) = batch.columns();

    for choice in PlanChoice::CONCRETE {
        let plan = &outcome.select(choice).plan;
        let single = {
            let mut pipeline = PlanPipeline::compile(plan, opts(4)).unwrap();
            pipeline.push_columns(times, keys, values).unwrap();
            sorted_results(pipeline.finish().unwrap().results)
        };
        let distributed = {
            let mut pipeline = DistPipeline::compile(plan, opts(4), 2).unwrap();
            pipeline.push_columns(times, keys, values).unwrap();
            sorted_results(pipeline.finish().unwrap().results)
        };
        assert_eq!(single, distributed, "{choice} columnar diverged");
    }
}

/// Elastic rescale through a checkpoint: 2 worker processes → snapshot →
/// 4 worker processes → snapshot → single-threaded engine, with polls
/// along the way; the union of everything polled and the final results
/// must be exactly-once equal to an uninterrupted sequential run.
#[test]
fn checkpoint_rescales_across_worker_counts() {
    let slack = 8;
    let windows = [w(20, 10), w(40, 40)];
    let query = WindowQuery::new(
        WindowSet::new(windows.to_vec()).unwrap(),
        AggregateFunction::Sum,
    );
    let outcome = Optimizer::default().optimize(&query).unwrap();
    let plan = &outcome.select(PlanChoice::Factored).plan;
    let mut rng = SplitMix64(0x5CA1E);
    let events = jittered_stream(600, 16, slack, &mut rng);

    let oracle = {
        let mut pipeline = PlanPipeline::compile(plan, opts(slack)).unwrap();
        pipeline.push_batch(&events).unwrap();
        sorted_results(pipeline.finish().unwrap().results)
    };

    let (a, rest) = events.split_at(events.len() / 3);
    let (b, c) = rest.split_at(rest.len() / 2);
    let mut collected = Vec::new();

    // Stage 1: two worker processes.
    let mut p1 = DistPipeline::compile(plan, opts(slack), 2).unwrap();
    p1.push_batch(a).unwrap();
    let watermark = p1.watermark().saturating_sub(slack);
    p1.advance_watermark(watermark).unwrap();
    collected.extend(p1.poll_results());
    let snap1 = p1.export_snapshot().unwrap();
    drop(p1);

    // Stage 2: restore onto four worker processes.
    let mut p2 = DistPipeline::restore(plan, opts(slack), 4, &snap1).unwrap();
    assert_eq!(p2.events_pushed(), a.len() as u64, "replay cursor survives");
    p2.push_batch(b).unwrap();
    collected.extend(p2.poll_results());
    let snap2 = p2.export_snapshot().unwrap();
    drop(p2);

    // Stage 3: the document is shard-count-free — finish on the
    // single-threaded engine.
    let mut p3 = PlanPipeline::restore(plan, opts(slack), &mut &snap2[..]).unwrap();
    for event in c {
        p3.push(*event).unwrap();
    }
    let out = p3.finish().unwrap();
    collected.extend(out.results);
    assert_eq!(out.events_processed, events.len() as u64);

    assert_eq!(sorted_results(collected), oracle, "rescale chain diverged");
}
