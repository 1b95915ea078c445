//! Round-trip property suite for the checkpoint codec: a pipeline
//! checkpointed mid-stream and restored from the bytes must replay the
//! remaining events to *bit-identical* results (`f64::to_bits`) versus an
//! uninterrupted oracle — across plan choices, backends, shard counts
//! (including N → M rescale through the shard-count-free image), bounded
//! disorder, and every aggregate function including the holistic fallback.
//! Corrupted snapshots (truncation at every byte, bad magic/version/kind,
//! flipped bytes) must fail loudly with a typed [`CheckpointError`] or
//! restore to a still-consistent pipeline — never panic, never silently
//! drop panes.

use fw_core::{
    AggregateFunction, AggregateSpec, Optimizer, PlanChoice, Window, WindowQuery, WindowSet,
};
use fw_engine::{
    reference_results, sorted_results, CheckpointError, Event, PipelineOptions, PlanPipeline,
    ShardedPipeline, WindowResult,
};

/// The deterministic PRNG used across the workspace instead of `rand`
/// (see DESIGN.md §6); inlined so the engine crate stays dependency-free.
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

fn opts(slack: u64) -> PipelineOptions {
    PipelineOptions {
        collect: true,
        element_work: 0,
        out_of_order: slack,
        profile: Default::default(),
    }
}

/// An almost-ordered stream: arrival order is event time plus jitter below
/// `slack`, the disorder bound the reorder buffer tolerates.
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

/// Canonical bitwise projection: equality on this is `f64::to_bits`
/// equality on the values, exact equality on everything else.
fn bits(results: Vec<WindowResult>) -> Vec<(Window, u64, u64, u32, u32, u64)> {
    sorted_results(results)
        .into_iter()
        .map(|r| {
            (
                r.window,
                r.interval.start,
                r.interval.end,
                r.key,
                r.agg,
                r.value.to_bits(),
            )
        })
        .collect()
}

/// Either backend at a given shard count (`0` = single-threaded).
enum Exec {
    Single(Box<PlanPipeline>),
    Sharded(ShardedPipeline),
}

impl Exec {
    fn compile(plan: &fw_core::QueryPlan, options: PipelineOptions, shards: usize) -> Exec {
        if shards == 0 {
            Exec::Single(Box::new(PlanPipeline::compile(plan, options).unwrap()))
        } else {
            Exec::Sharded(ShardedPipeline::compile(plan, options, shards).unwrap())
        }
    }

    fn restore(
        plan: &fw_core::QueryPlan,
        options: PipelineOptions,
        shards: usize,
        bytes: &[u8],
    ) -> Result<Exec, CheckpointError> {
        let mut r = bytes;
        Ok(if shards == 0 {
            Exec::Single(Box::new(PlanPipeline::restore(plan, options, &mut r)?))
        } else {
            Exec::Sharded(ShardedPipeline::restore(plan, options, shards, &mut r)?)
        })
    }

    fn push_batch(&mut self, events: &[Event]) {
        match self {
            Exec::Single(p) => p.push_batch(events).unwrap(),
            Exec::Sharded(p) => p.push_batch(events).unwrap(),
        }
    }

    fn advance_watermark(&mut self, watermark: u64) {
        match self {
            Exec::Single(p) => p.advance_watermark(watermark).unwrap(),
            Exec::Sharded(p) => p.advance_watermark(watermark).unwrap(),
        }
    }

    fn watermark(&self) -> u64 {
        match self {
            Exec::Single(p) => p.watermark(),
            Exec::Sharded(p) => p.watermark(),
        }
    }

    fn poll_results(&mut self) -> Vec<WindowResult> {
        match self {
            Exec::Single(p) => p.poll_results(),
            Exec::Sharded(p) => p.poll_results(),
        }
    }

    fn checkpoint(&mut self, plan: &fw_core::QueryPlan) -> Vec<u8> {
        let mut bytes = Vec::new();
        match self {
            Exec::Single(p) => p.checkpoint(plan, &mut bytes).unwrap(),
            Exec::Sharded(p) => p.checkpoint(plan, &mut bytes).unwrap(),
        }
        bytes
    }

    fn finish(self) -> (Vec<WindowResult>, u64) {
        match self {
            Exec::Single(p) => {
                let out = p.finish().unwrap();
                (out.results, out.events_processed)
            }
            Exec::Sharded(p) => {
                let out = p.finish().unwrap();
                (out.results, out.events_processed)
            }
        }
    }
}

/// One full crash/recover cycle: feed a prefix with mid-stream watermarks
/// and polls, checkpoint at `cut` events, keep the pre-crash polls, drop
/// the interrupted pipeline on the floor, restore the bytes at
/// `restore_shards`, replay the suffix by count, and return the union —
/// plus the checkpointing pipeline's own uninterrupted continuation (the
/// transparency check).
struct Cycle {
    recovered: Vec<(Window, u64, u64, u32, u32, u64)>,
    continued: Vec<(Window, u64, u64, u32, u32, u64)>,
}

fn crash_recover_cycle(
    plan: &fw_core::QueryPlan,
    events: &[Event],
    slack: u64,
    shards: usize,
    restore_shards: usize,
    cut: usize,
    rng: &mut SplitMix64,
) -> Cycle {
    let mut live = Exec::compile(plan, opts(slack), shards);
    let mut seen = Vec::new();
    let mut i = 0usize;
    while i < cut {
        let len = 1 + rng.below(32) as usize;
        let end = (i + len).min(cut);
        live.push_batch(&events[i..end]);
        i = end;
        if rng.below(4) == 0 {
            let watermark = live.watermark().saturating_sub(slack);
            live.advance_watermark(watermark);
            seen.extend(live.poll_results());
        }
    }
    let bytes = live.checkpoint(plan);

    // The checkpointing pipeline keeps streaming: its continuation is the
    // transparency oracle.
    live.push_batch(&events[cut..]);
    let (rest, processed) = live.finish();
    assert_eq!(processed, events.len() as u64);
    let mut continued = seen.clone();
    continued.extend(rest);

    // Crash: the live pipeline is gone; a fresh process restores the
    // snapshot (possibly at a different parallelism) and replays the
    // suffix the snapshot's cursor points at.
    let mut restored = Exec::restore(plan, opts(slack), restore_shards, &bytes).unwrap();
    restored.push_batch(&events[cut..]);
    let (rest, processed) = restored.finish();
    assert_eq!(processed, events.len() as u64, "restored cursor is exact");
    let mut recovered = seen;
    recovered.extend(rest);

    Cycle {
        recovered: bits(recovered),
        continued: bits(continued),
    }
}

fn oracle(
    plan: &fw_core::QueryPlan,
    events: &[Event],
    slack: u64,
) -> Vec<(Window, u64, u64, u32, u32, u64)> {
    let out = PlanPipeline::run(plan, events, opts(slack)).unwrap();
    bits(out.results)
}

#[test]
fn checkpoint_restore_replay_is_bit_identical_for_every_plan_choice() {
    let windows = [w(20, 10), w(40, 10), w(60, 20)];
    let slack = 8;
    for (round, function) in [
        AggregateFunction::Sum,
        AggregateFunction::Avg,
        AggregateFunction::Median,
    ]
    .into_iter()
    .enumerate()
    {
        let query = WindowQuery::new(WindowSet::new(windows.to_vec()).unwrap(), function);
        let outcome = Optimizer::default().optimize(&query).unwrap();
        let mut rng = SplitMix64(0xC0FFEE + round as u64);
        let events = jittered_stream(500, 8, slack, &mut rng);
        for choice in PlanChoice::CONCRETE {
            let plan = &outcome.select(choice).plan;
            let expected = oracle(plan, &events, slack);
            let cut = 100 + rng.below(300) as usize;
            let cycle = crash_recover_cycle(plan, &events, slack, 0, 0, cut, &mut rng);
            assert_eq!(
                cycle.recovered, expected,
                "{function:?}/{choice}: recovery diverged from the oracle"
            );
            assert_eq!(
                cycle.continued, expected,
                "{function:?}/{choice}: checkpoint was not transparent"
            );
        }
    }
}

#[test]
fn rescale_two_to_four_to_one_is_byte_identical() {
    // The acceptance rescale: a checkpoint taken at 2 shards restored into
    // 4 and then 1 shard (and the single-threaded backend) replays to the
    // same bytes, for every plan choice.
    let windows = [w(20, 10), w(30, 30), w(60, 20)];
    let slack = 6;
    let query = WindowQuery::new(
        WindowSet::new(windows.to_vec()).unwrap(),
        AggregateFunction::Sum,
    );
    let outcome = Optimizer::default().optimize(&query).unwrap();
    for choice in PlanChoice::CONCRETE {
        let plan = &outcome.select(choice).plan;
        let mut rng = SplitMix64(0x5CA1E ^ u64::from(choice as u8));
        let events = jittered_stream(600, 16, slack, &mut rng);
        let expected = oracle(plan, &events, slack);
        let cut = 250 + rng.below(200) as usize;
        for restore_shards in [4usize, 1, 0] {
            let mut rng = SplitMix64(0xD15C);
            let cycle = crash_recover_cycle(plan, &events, slack, 2, restore_shards, cut, &mut rng);
            assert_eq!(
                cycle.recovered, expected,
                "{choice}: 2 -> {restore_shards} rescale diverged"
            );
            assert_eq!(cycle.continued, expected, "{choice}: continuation diverged");
        }
    }
}

#[test]
fn single_checkpoint_restores_into_sharded_and_back() {
    let windows = [w(20, 10), w(40, 40)];
    let slack = 4;
    let query = WindowQuery::new(
        WindowSet::new(windows.to_vec()).unwrap(),
        AggregateFunction::Min,
    );
    let outcome = Optimizer::default().optimize(&query).unwrap();
    let plan = &outcome.factored.plan;
    let mut rng = SplitMix64(0xA55E7);
    let events = jittered_stream(400, 8, slack, &mut rng);
    let expected = oracle(plan, &events, slack);
    for (shards, restore_shards) in [(0usize, 3usize), (3, 0)] {
        let mut rng = SplitMix64(0xF00D);
        let cycle =
            crash_recover_cycle(plan, &events, slack, shards, restore_shards, 200, &mut rng);
        assert_eq!(
            cycle.recovered, expected,
            "{shards} -> {restore_shards} backend swap diverged"
        );
    }
}

#[test]
fn single_term_state_crosses_layouts_and_shard_counts() {
    // A single-term plan runs on the monomorphized pane layout. Its open
    // state must survive (a) a plan swap to a two-term plan and back — the
    // layout changes at each swap, so panes travel as layout-neutral rows —
    // and (b) a checkpoint restored at a different shard count, each
    // bit-identical to the naive oracle.
    let tumbling = [w(16, 16), w(32, 32), w(48, 48)];
    let hopping = [w(20, 10), w(40, 10), w(60, 20)];
    let mut rng = SplitMix64(0x1A70_0715);
    for windows in [tumbling, hopping] {
        for function in [
            AggregateFunction::Min,
            AggregateFunction::Sum,
            AggregateFunction::Avg,
            AggregateFunction::Median,
        ] {
            let set = WindowSet::new(windows.to_vec()).unwrap();
            let factored =
                |query: &WindowQuery| Optimizer::default().optimize(query).unwrap().factored.plan;
            let one = factored(&WindowQuery::new(set.clone(), function));
            let two = factored(
                &WindowQuery::with_aggregates(
                    set,
                    vec![
                        AggregateSpec::new(function),
                        AggregateSpec::new(AggregateFunction::Count),
                    ],
                )
                .unwrap(),
            );
            let events = jittered_stream(480, 8, 0, &mut rng);
            let expected = bits(reference_results(&windows, function, &events));
            let label = format!("{function:?} over {windows:?}");

            // (a) one term -> two terms -> one term. The COUNT rider is new
            // at the first swap and gone after the second; only the
            // query's own term (index 0 in both plans) is compared.
            let mut pipeline = PlanPipeline::compile(&one, opts(0)).unwrap();
            let mut rows = Vec::new();
            for (range, next) in [
                (0..170, Some(&two)),
                (170..330, Some(&one)),
                (330..480, None),
            ] {
                let boundary = range.end as u64;
                pipeline.push_batch(&events[range]).unwrap();
                if let Some(next) = next {
                    pipeline.rebuild(next, boundary).unwrap();
                }
                rows.extend(pipeline.poll_results());
            }
            let tail = pipeline.finish().unwrap();
            assert_eq!(tail.stats.replans, 2);
            rows.extend(tail.results);
            rows.retain(|r| r.agg == 0);
            assert_eq!(bits(rows), expected, "{label}: layout swaps diverged");

            // (b) checkpoint on one backend, restore at another width.
            for (shards, restore_shards) in [(0usize, 3usize), (2, 0)] {
                let cut = 100 + rng.below(300) as usize;
                let cycle =
                    crash_recover_cycle(&one, &events, 0, shards, restore_shards, cut, &mut rng);
                assert_eq!(
                    cycle.recovered, expected,
                    "{label}: {shards} -> {restore_shards} restore diverged"
                );
                assert_eq!(cycle.continued, expected, "{label}: continuation");
            }
        }
    }
}

#[test]
fn random_states_round_trip_across_functions_and_cuts() {
    // Property sweep: random window sets (slides dividing ranges, the
    // paper's integrality constraint), random functions, random cut
    // points, random disorder — every cycle must recover exactly.
    let mut rng = SplitMix64(0x5EED5EED);
    for round in 0..6u64 {
        let mut windows = Vec::new();
        for _ in 0..3 {
            let slide = [5u64, 10, 20][rng.below(3) as usize];
            let range = slide * (1 + rng.below(5));
            if !windows
                .iter()
                .any(|x: &Window| x.range() == range && x.slide() == slide)
            {
                windows.push(w(range, slide));
            }
        }
        if windows.len() < 2 {
            continue;
        }
        let function = AggregateFunction::ALL[rng.below(6) as usize];
        let slack = rng.below(12);
        let query = WindowQuery::new(WindowSet::new(windows.clone()).unwrap(), function);
        let outcome = Optimizer::default().optimize(&query).unwrap();
        let plan = &outcome.select(PlanChoice::Auto).plan;
        let events = jittered_stream(
            300 + rng.below(300),
            1 + rng.below(20) as u32,
            slack,
            &mut rng,
        );
        let expected = oracle(plan, &events, slack);
        let cut = 1 + rng.below(events.len() as u64 - 1) as usize;
        let shards = rng.below(4) as usize;
        let restore_shards = rng.below(4) as usize;
        let cycle =
            crash_recover_cycle(plan, &events, slack, shards, restore_shards, cut, &mut rng);
        assert_eq!(
            cycle.recovered, expected,
            "round {round}: {function:?} cut {cut} shards {shards}->{restore_shards}"
        );
        assert_eq!(cycle.continued, expected, "round {round}: continuation");
    }
}

#[test]
fn corrupted_snapshots_fail_loudly_and_never_panic() {
    let windows = [w(20, 10), w(40, 40)];
    let slack = 5;
    let query = WindowQuery::new(
        WindowSet::new(windows.to_vec()).unwrap(),
        AggregateFunction::Median,
    );
    let outcome = Optimizer::default().optimize(&query).unwrap();
    let plan = &outcome.factored.plan;
    let mut rng = SplitMix64(0xBAD5EED);
    let events = jittered_stream(300, 8, slack, &mut rng);
    let mut live = Exec::compile(plan, opts(slack), 0);
    live.push_batch(&events[..211]);
    let bytes = live.checkpoint(plan);

    // Truncation at every byte boundary: a typed error, never a panic and
    // never an out-of-memory allocation from a half-read length.
    for len in 0..bytes.len() {
        let err = Exec::restore(plan, opts(slack), 0, &bytes[..len])
            .err()
            .unwrap_or_else(|| panic!("truncation at {len} of {} decoded", bytes.len()));
        assert!(
            matches!(
                err,
                CheckpointError::Truncated { .. }
                    | CheckpointError::BadMagic
                    | CheckpointError::BadValue { .. }
            ),
            "truncation at {len}: unexpected error {err}"
        );
    }

    // Bad magic, bad version, wrong kind.
    let mut corrupt = bytes.clone();
    corrupt[0] ^= 0xFF;
    assert!(matches!(
        Exec::restore(plan, opts(slack), 0, &corrupt),
        Err(CheckpointError::BadMagic)
    ));
    let mut corrupt = bytes.clone();
    corrupt[4] = 99;
    assert!(matches!(
        Exec::restore(plan, opts(slack), 0, &corrupt),
        Err(CheckpointError::BadVersion { found: 99 })
    ));
    let mut corrupt = bytes.clone();
    corrupt[5] = 7;
    assert!(matches!(
        Exec::restore(plan, opts(slack), 0, &corrupt),
        Err(CheckpointError::WrongKind { found: 7, .. })
    ));

    // Random byte flips past the header: either a typed error or a
    // restored pipeline that still finishes cleanly (a flipped value bit
    // is indistinguishable from a different stream — the format carries
    // no checksum — but it must never panic or wedge).
    for _ in 0..200 {
        let mut corrupt = bytes.clone();
        let at = 6 + rng.below(corrupt.len() as u64 - 6) as usize;
        corrupt[at] ^= 1 << rng.below(8);
        match Exec::restore(plan, opts(slack), 0, &corrupt) {
            Err(_) => {}
            Ok(mut restored) => {
                restored.push_batch(&events[211..]);
                let _ = restored.finish();
            }
        }
    }
}
