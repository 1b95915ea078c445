//! Failure injection for distributed execution: a worker process killed
//! mid-stream must fail the coordinator *loudly* (a structured
//! [`EngineError::Distributed`], not a hang), leave no zombie sockets
//! holding the run open, and leave concurrent bystander pipelines
//! untouched. Protocol-level engine errors (an out-of-order event beyond
//! the slack) must cross the wire with their structure intact. And a
//! half-open connection that never completes the handshake must be
//! dropped by the worker within its bounded timeout.

use fw_core::{AggregateFunction, Optimizer, PlanChoice, Window, WindowQuery, WindowSet};
use fw_dist::{DistPipeline, Worker, WorkerProc, HANDSHAKE_TIMEOUT};
use fw_engine::{sorted_results, EngineError, Event, PipelineOptions, PlanPipeline};
use std::io::Read;
use std::time::{Duration, Instant};

fn plan() -> fw_core::QueryPlan {
    let windows = WindowSet::new(vec![
        Window::new(20, 10).unwrap(),
        Window::new(40, 40).unwrap(),
    ])
    .unwrap();
    let query = WindowQuery::new(windows, AggregateFunction::Sum);
    let outcome = Optimizer::default().optimize(&query).unwrap();
    outcome.select(PlanChoice::Factored).plan.clone()
}

fn opts() -> PipelineOptions {
    PipelineOptions {
        collect: true,
        element_work: 0,
        out_of_order: 0,
        profile: Default::default(),
    }
}

fn events(n: u64) -> Vec<Event> {
    (0..n)
        .map(|t| Event::new(t, (t % 8) as u32, (t % 13) as f64 - 6.0))
        .collect()
}

/// Kill one of two workers mid-stream: the coordinator must surface a
/// distributed failure within seconds (no hang on the dead socket), and
/// every fallible call after the first failure must keep failing (the
/// pipeline is poisoned, never silently wrong).
#[test]
fn worker_killed_mid_stream_fails_loud_without_hanging() {
    let plan = plan();
    // Own the processes so the test controls their lifetime.
    let mut victim = WorkerProc::spawn().unwrap();
    let bystander = WorkerProc::spawn().unwrap();
    let addrs = [victim.addr(), bystander.addr()];
    let mut pipeline = DistPipeline::connect(&plan, opts(), &addrs).unwrap();

    pipeline.push_batch(&events(200)).unwrap();
    pipeline.advance_watermark(100).unwrap();
    let _ = pipeline.poll_results();

    victim.kill();

    // Keep streaming into the dead shard until the transport notices.
    // Bounded: the socket is closed, so writes fail fast (EPIPE/RST) and
    // reads see EOF — nowhere to block.
    let start = Instant::now();
    let mut failed = None;
    for round in 0u64..10_000 {
        let base = 200 + round * 10;
        let batch: Vec<Event> = (base..base + 10)
            .map(|t| Event::new(t, (t % 8) as u32, 1.0))
            .collect();
        if let Err(e) = pipeline
            .push_batch(&batch)
            .and_then(|()| pipeline.advance_watermark(base))
        {
            failed = Some(e);
            break;
        }
        let _ = pipeline.poll_results();
        if pipeline.failure().is_some() {
            // poll_results records transport failures internally; the
            // next fallible call returns it.
            failed = pipeline.push(Event::new(base + 10, 0, 0.0)).err();
            break;
        }
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "coordinator did not notice the dead worker"
        );
    }
    let err = failed.expect("dead worker must surface an error");
    assert!(
        matches!(err, EngineError::Distributed(_)),
        "expected a distributed transport error, got {err:?}"
    );
    // Poisoned: the same loud error keeps coming back.
    let again = pipeline.push(Event::new(1_000_000, 0, 0.0)).unwrap_err();
    assert_eq!(again, err);
    let finish_err = pipeline.finish().unwrap_err();
    assert_eq!(finish_err, err);
}

/// A worker dying in one pipeline must not disturb another pipeline
/// running concurrently on its own workers.
#[test]
fn bystander_pipeline_survives_neighbor_failure() {
    let plan = plan();
    let stream = events(400);

    let oracle = {
        let mut p = PlanPipeline::compile(&plan, opts()).unwrap();
        p.push_batch(&stream).unwrap();
        sorted_results(p.finish().unwrap().results)
    };

    let mut doomed_worker = WorkerProc::spawn().unwrap();
    let addrs = [doomed_worker.addr()];
    let mut doomed = DistPipeline::connect(&plan, opts(), &addrs).unwrap();
    let mut healthy = DistPipeline::compile(&plan, opts(), 2).unwrap();

    // Interleave the two pipelines, then kill the doomed one's worker.
    for chunk in stream.chunks(50) {
        healthy.push_batch(chunk).unwrap();
        let _ = doomed.push_batch(chunk);
    }
    doomed_worker.kill();
    let _ = doomed.poll_results();
    assert!(doomed.finish().is_err(), "doomed pipeline must fail loud");

    let out = healthy.finish().unwrap();
    assert_eq!(out.events_processed, stream.len() as u64);
    assert_eq!(sorted_results(out.results), oracle, "bystander corrupted");
}

/// An engine error crosses the wire with its structure intact: an event
/// behind the watermark comes back as [`EngineError::OutOfOrderEvent`]
/// with the worker's `at`/`watermark` fields, not a stringly error.
#[test]
fn out_of_order_event_surfaces_with_structure() {
    let plan = plan();
    let mut pipeline = DistPipeline::compile(&plan, opts(), 2).unwrap();
    pipeline.push(Event::new(100, 0, 1.0)).unwrap();
    pipeline.advance_watermark(100).unwrap();
    // Behind the announced watermark with zero slack: the owning worker
    // rejects it. The scatter path is asynchronous, so the error may
    // surface on a later synchronous call rather than this push.
    let _ = pipeline.push(Event::new(5, 0, 1.0));
    let _ = pipeline.poll_results();
    let err = pipeline.finish().unwrap_err();
    assert_eq!(
        err,
        EngineError::OutOfOrderEvent {
            at: 5,
            watermark: 100
        }
    );
}

/// A connection that never completes the handshake is dropped by the
/// worker once [`HANDSHAKE_TIMEOUT`] elapses — a silent client cannot
/// hold a connection slot open forever.
#[test]
fn half_open_handshake_is_dropped_after_bounded_timeout() {
    let worker = Worker::bind("127.0.0.1:0").unwrap();
    let addr = worker.local_addr().unwrap();
    let _accept = worker.spawn_thread();

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(HANDSHAKE_TIMEOUT + Duration::from_secs(10)))
        .unwrap();
    let start = Instant::now();
    // Say nothing. The worker must hang up on us, observed as EOF.
    let mut buf = [0u8; 16];
    let n = stream.read(&mut buf).unwrap_or(0);
    let elapsed = start.elapsed();
    assert_eq!(n, 0, "worker should close a silent connection");
    assert!(
        elapsed <= HANDSHAKE_TIMEOUT + Duration::from_secs(5),
        "handshake drop took {elapsed:?}, expected ~{HANDSHAKE_TIMEOUT:?}"
    );
}
