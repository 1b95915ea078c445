//! Crash-recovery matrix: checkpoint → kill → restore → replay must be
//! bit-identical to an uninterrupted oracle at every kill point, across
//! plan choices, backends, shard counts (including elastic rescale),
//! and bounded disorder. Driven by the `fw_harness::fault` harness.
//!
//! Cost-model accounting is deliberately NOT compared — a restored
//! pipeline re-merges accumulators, so its `combines` count
//! legitimately differs from the oracle's.

use factor_windows::{Parallelism, PlanChoice, Session};
use fw_core::{AggregateFunction, Window, WindowQuery, WindowSet};
use fw_engine::Event;
use fw_harness::{result_bits, CrashCycle, KillPoint};
use fw_workload::SplitMix64;

const EVENTS: u64 = 400;
const BATCH: usize = 7;
const WATERMARK_EVERY: u64 = 50;

fn query(function: AggregateFunction) -> WindowQuery {
    let windows = WindowSet::new(vec![
        Window::tumbling(10).unwrap(),
        Window::tumbling(20).unwrap(),
        Window::tumbling(40).unwrap(),
    ])
    .unwrap();
    WindowQuery::new(windows, function)
}

fn session(
    function: AggregateFunction,
    choice: PlanChoice,
    parallelism: Parallelism,
    disorder: u64,
) -> Session {
    Session::from_query(query(function))
        .plan_choice(choice)
        .parallelism(parallelism)
        .out_of_order(disorder)
        .collect_results(true)
}

/// An almost-ordered stream: arrival order is event time plus jitter
/// below `disorder`.
fn stream(n: u64, disorder: u64, seed: u64) -> Vec<Event> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut arrivals: Vec<(u64, Event)> = (0..n)
        .map(|t| {
            let key = (rng.next_u64() % 5) as u32;
            let value = ((t.wrapping_mul(7) + u64::from(key)) % 101) as f64 - 50.0;
            let jitter = if disorder == 0 {
                0
            } else {
                rng.next_u64() % disorder
            };
            (t + jitter, Event::new(t, key, value))
        })
        .collect();
    arrivals.sort_by_key(|&(arrival, event)| (arrival, event.time));
    arrivals.into_iter().map(|(_, event)| event).collect()
}

#[test]
fn every_kill_point_recovers_bit_identically_across_the_matrix() {
    let backends = [
        Parallelism::Sequential,
        Parallelism::Fixed(1),
        Parallelism::Fixed(2),
        Parallelism::Fixed(4),
    ];
    for choice in PlanChoice::CONCRETE {
        for parallelism in backends {
            for disorder in [0u64, 16] {
                let events = stream(EVENTS, disorder, 0xC0FFEE ^ disorder);
                let session = session(AggregateFunction::Sum, choice, parallelism, disorder);
                let cycle = CrashCycle::new(&session, &events, BATCH, WATERMARK_EVERY, disorder);
                let oracle = result_bits(&cycle.oracle().unwrap());
                assert!(!oracle.is_empty());
                for kill in KillPoint::ALL {
                    let outcome = cycle.run(kill).unwrap();
                    assert!(outcome.checkpoint_bytes > 0);
                    assert_eq!(
                        result_bits(&outcome.results),
                        oracle,
                        "{choice:?}/{parallelism:?}/disorder={disorder}/{kill:?} diverged \
                         (cut at {})",
                        outcome.cut,
                    );
                }
            }
        }
    }
}

#[test]
fn holistic_aggregates_recover_bit_identically() {
    for kill in KillPoint::ALL {
        let events = stream(EVENTS, 8, 0xBEEF);
        let session = session(
            AggregateFunction::Median,
            PlanChoice::Auto,
            Parallelism::Fixed(2),
            8,
        );
        let cycle = CrashCycle::new(&session, &events, BATCH, WATERMARK_EVERY, 8);
        let oracle = result_bits(&cycle.oracle().unwrap());
        let outcome = cycle.run(kill).unwrap();
        assert_eq!(result_bits(&outcome.results), oracle, "{kill:?} diverged");
    }
}

/// Elastic rescale through the Session API: a snapshot taken at 2
/// shards restored into 4 and then into a single-threaded pipeline,
/// each replaying the identical suffix to byte-identical results,
/// across every concrete plan choice.
#[test]
fn session_rescale_two_to_four_to_one_is_byte_identical() {
    for choice in PlanChoice::CONCRETE {
        let events = stream(EVENTS, 0, 0xD15C);
        let cut = 200;

        let at = |parallelism| session(AggregateFunction::Sum, choice, parallelism, 0);
        let origin = at(Parallelism::Fixed(2));
        let mut pipeline = origin.build().unwrap();
        pipeline.push_batch(&events[..cut]).unwrap();
        let mut delivered = pipeline.poll_results();
        let mut snapshot = Vec::new();
        pipeline.checkpoint(&mut snapshot).unwrap();
        drop(pipeline);

        let finish = |parallelism| {
            let session = at(parallelism);
            let mut replica = session.restore(&mut snapshot.as_slice()).unwrap();
            let mut results = delivered.clone();
            replica.push_batch(&events[cut..]).unwrap();
            results.extend(replica.finish().unwrap().results);
            result_bits(&results)
        };
        let four = finish(Parallelism::Fixed(4));
        let one = finish(Parallelism::Sequential);
        assert!(!four.is_empty());
        assert_eq!(four, one, "{choice:?}: rescaled replicas diverged");

        // And against the uninterrupted oracle at the origin width.
        let mut oracle = at(Parallelism::Fixed(2)).build().unwrap();
        oracle.push_batch(&events).unwrap();
        let oracle = result_bits(&oracle.finish().unwrap().results);
        assert_eq!(four, oracle, "{choice:?}: rescale diverged from oracle");
        delivered.clear();
    }
}

// ---------------------------------------------------------------------
// Golden snapshot fixture: bytes written by a past build must keep
// restoring (format stability). Regenerate deliberately with
//   cargo test -q --test crash_recovery -- --ignored regenerate
// and commit the new fixture alongside a format-version bump.
// ---------------------------------------------------------------------

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_checkpoint_v1.fwc"
);
const FIXTURE_CUT: usize = 200;

fn fixture_session() -> Session {
    session(
        AggregateFunction::Sum,
        PlanChoice::Factored,
        Parallelism::Fixed(2),
        8,
    )
}

fn fixture_stream() -> Vec<Event> {
    stream(EVENTS, 8, 0x601D)
}

/// The snapshot this build writes for the fixture's session and cut.
fn fixture_snapshot() -> Vec<u8> {
    let events = fixture_stream();
    let mut pipeline = fixture_session().build().unwrap();
    pipeline.push_batch(&events[..FIXTURE_CUT]).unwrap();
    let _ = pipeline.poll_results();
    let mut snapshot = Vec::new();
    pipeline.checkpoint(&mut snapshot).unwrap();
    snapshot
}

#[test]
#[ignore = "writes the committed golden fixture; run once per format version"]
fn regenerate_golden_fixture() {
    std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
    std::fs::write(FIXTURE, fixture_snapshot()).unwrap();
}

/// The committed fixture is a format-version-1 image; this build writes
/// version 2, which is the version-1 body with the per-node profile
/// section appended. Everything the fixture holds — watermark, cursor,
/// accounting (the emulated-work sink included), every open pane's
/// accumulators, the reorder buffer — must therefore be re-produced byte
/// for byte, whichever pane layout runs the query.
#[test]
fn golden_fixture_body_is_what_this_build_writes() {
    const HEADER: usize = 6; // magic, version, container kind
    let golden = std::fs::read(FIXTURE).expect("golden fixture missing");
    let fresh = fixture_snapshot();
    assert_eq!(golden[..4], fresh[..4], "magic");
    assert_eq!((golden[4], fresh[4]), (1, 2), "format versions");
    assert_eq!(golden[5], fresh[5], "container kind");
    assert!(fresh.len() > golden.len());
    assert_eq!(
        golden[HEADER..],
        fresh[HEADER..golden.len()],
        "the image body drifted from the committed fixture"
    );
}

#[test]
fn golden_fixture_restores_and_replays() {
    let snapshot = std::fs::read(FIXTURE).expect(
        "golden fixture missing — run the ignored regenerate_golden_fixture test and commit it",
    );
    let events = fixture_stream();
    let session = fixture_session();
    let mut replica = session.restore(&mut snapshot.as_slice()).unwrap();
    assert_eq!(replica.events_processed(), FIXTURE_CUT as u64);
    replica.push_batch(&events[FIXTURE_CUT..]).unwrap();
    let replayed = result_bits(&replica.finish().unwrap().results);

    // The fixture's pre-checkpoint rows were already delivered to its
    // writer, so compare the *suffix* against a live oracle that drains
    // at the same cut.
    let mut oracle = fixture_session().build().unwrap();
    oracle.push_batch(&events[..FIXTURE_CUT]).unwrap();
    let _ = oracle.poll_results();
    oracle.push_batch(&events[FIXTURE_CUT..]).unwrap();
    let expect = result_bits(&oracle.finish().unwrap().results);
    assert_eq!(replayed, expect, "golden fixture replay diverged");
}
