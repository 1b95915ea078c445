//! Property tests for the dense-interner/slab pane backend: random
//! sparse-`u32` key distributions with churn, checked bit-for-bit against
//! the retained-map reference oracle ([`fw_engine::reference_results`],
//! which folds every event into plain sorted maps and knows nothing about
//! interners, slots, or slabs).
//!
//! Two properties are exercised:
//! - **Equivalence**: for every aggregate function and every concrete
//!   plan choice, slab execution produces `f64::to_bits`-identical
//!   results to the reference, including under multi-instance hopping
//!   windows and a factor-window cascade.
//! - **Compaction safety**: a long stream whose key population churns in
//!   disjoint phases, with idle-point watermark announcements in between,
//!   recycles the interner (observable as a slot high-water far below the
//!   total distinct-key count) without perturbing a single result bit —
//!   including across a mid-stream checkpoint and restore.
//! - **Walk-order neutrality**: the multi-term row layout over panes that
//!   turn sparse and dense again mid-stream — so the seal-side walks
//!   switch between slot order and first-touch order — matches the
//!   reference term by term, across a checkpoint at each crossing.

use fw_core::{
    AggregateFunction, AggregateSpec, Optimizer, PlanChoice, Window, WindowQuery, WindowSet,
};
use fw_engine::{
    reference_results, sorted_results, Event, EventBatch, PipelineOptions, PlanPipeline,
    WindowResult,
};

/// Deterministic xorshift64 — the tests are property-style but must stay
/// reproducible, so the "random" streams are seeded and fixed.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Spreads a small ordinal over the full `u32` range so interned keys are
/// sparse (nothing about the slot table may rely on dense raw keys).
fn sparse_key(ordinal: u32) -> u32 {
    ordinal.wrapping_mul(0x9E37_79B1)
}

/// An in-order stream whose key population drifts: each event draws from
/// a window of ordinals that slides forward over time, so early keys die
/// out while new ones keep arriving (the churn pattern slab recycling
/// must survive). Values carry fractional bits so `to_bits` comparisons
/// are meaningful.
fn churn_stream(n: u64, seed: u64) -> Vec<Event> {
    let mut rng = XorShift(seed | 1);
    let mut t = 0u64;
    (0..n)
        .map(|i| {
            t += rng.next() % 3; // gaps and repeated timestamps
            let base = (i / 64) as u32; // population slides every 64 events
            let ordinal = base + (rng.next() % 48) as u32;
            let value = ((rng.next() % 2_000) as f64 - 500.0) * 0.125 + 0.0625;
            Event::new(t, sparse_key(ordinal), value)
        })
        .collect()
}

/// Canonical, bit-exact encoding of a result set for equality checks:
/// `PartialEq` on `f64` would already fail on any bit difference that
/// matters, but comparing the raw bits makes the contract explicit.
fn result_bits(results: Vec<WindowResult>) -> Vec<(u64, u64, u64, u64, u32, u32, u64)> {
    sorted_results(results)
        .into_iter()
        .map(|r| {
            (
                r.window.range(),
                r.window.slide(),
                r.interval.start,
                r.interval.end,
                r.key,
                r.agg,
                r.value.to_bits(),
            )
        })
        .collect()
}

fn w(r: u64, s: u64) -> Window {
    Window::new(r, s).unwrap()
}

#[test]
fn slab_backend_matches_retained_map_reference_under_churn() {
    // Tumbling + overlapping hopping windows; the factored plan routes
    // part of the flow through a hidden factor window, so slab combine
    // (slot-aligned linear merge) is on the path, not just raw folds.
    let windows = vec![w(16, 16), w(24, 8), w(48, 16)];
    let evs = churn_stream(4_000, 0x5EED_CAFE);
    for function in AggregateFunction::ALL {
        let oracle = result_bits(reference_results(&windows, function, &evs));
        assert!(!oracle.is_empty());
        let q = WindowQuery::new(WindowSet::new(windows.clone()).unwrap(), function);
        let out = Optimizer::default().optimize(&q).unwrap();
        for choice in PlanChoice::CONCRETE {
            let plan = &out.select(choice).plan;
            let run = PlanPipeline::run(plan, &evs, PipelineOptions::collecting()).unwrap();
            assert_eq!(
                result_bits(run.results),
                oracle,
                "{function} under {choice} diverges from the retained-map reference"
            );
        }
    }
}

#[test]
fn compaction_under_phase_churn_keeps_results_bit_identical() {
    // Six phases of 2_048 fresh sparse keys each; every phase ends on a
    // pane boundary followed by a watermark announcement, so the engine
    // hits its idle-point compaction check with all panes empty. The
    // compaction thresholds (4_096-slot floor, 16×slots event spacing)
    // are crossed from phase two onward.
    const PHASES: u64 = 6;
    const KEYS_PER_PHASE: u64 = 2_048;
    const EVENTS_PER_PHASE: u64 = 32_768;
    let window = w(8, 8);
    let mut rng = XorShift(0xC0FF_EE11);
    let mut events: Vec<Event> = Vec::new();
    for phase in 0..PHASES {
        let t0 = phase * EVENTS_PER_PHASE;
        for i in 0..EVENTS_PER_PHASE {
            let ordinal = (phase * KEYS_PER_PHASE) as u32 + (rng.next() % KEYS_PER_PHASE) as u32;
            let value = ((rng.next() % 4_096) as f64) * 0.25 - 512.0;
            events.push(Event::new(t0 + i, sparse_key(ordinal), value));
        }
    }

    let q = WindowQuery::new(
        WindowSet::new(vec![window]).unwrap(),
        AggregateFunction::Sum,
    );
    let out = Optimizer::default().optimize(&q).unwrap();
    let mut pipeline =
        PlanPipeline::compile(&out.factored.plan, PipelineOptions::collecting()).unwrap();
    let mut collected = Vec::new();
    for phase in 0..PHASES {
        let chunk =
            &events[(phase * EVENTS_PER_PHASE) as usize..((phase + 1) * EVENTS_PER_PHASE) as usize];
        let times: Vec<u64> = chunk.iter().map(|e| e.time).collect();
        let keys: Vec<u32> = chunk.iter().map(|e| e.key).collect();
        let values: Vec<f64> = chunk.iter().map(|e| e.value).collect();
        // Mid-way through the phase after the first compaction, crash:
        // checkpoint, drop the pipeline, and carry on from the restored
        // bytes. The open pane's slots were issued by a recycled interner;
        // the snapshot must not depend on them.
        let cut = if phase == 2 { chunk.len() / 2 + 3 } else { 0 };
        if cut > 0 {
            assert!(pipeline.compactions() >= 1, "no compaction to survive");
            pipeline
                .push_columns(&times[..cut], &keys[..cut], &values[..cut])
                .unwrap();
            collected.extend(pipeline.poll_results());
            let mut snapshot = Vec::new();
            pipeline
                .checkpoint(&out.factored.plan, &mut snapshot)
                .unwrap();
            pipeline = PlanPipeline::restore(
                &out.factored.plan,
                PipelineOptions::collecting(),
                &mut snapshot.as_slice(),
            )
            .unwrap();
        }
        pipeline
            .push_columns(&times[cut..], &keys[cut..], &values[cut..])
            .unwrap();
        // Announce at the phase boundary (a multiple of the pane size):
        // everything fed so far seals, leaving the stores idle.
        pipeline
            .advance_watermark((phase + 1) * EVENTS_PER_PHASE)
            .unwrap();
        collected.extend(pipeline.poll_results());
    }
    let (slots_hw, bytes_hw) = pipeline.interner_stats();
    collected.extend(pipeline.finish().unwrap().results);

    let total_distinct = PHASES * KEYS_PER_PHASE;
    assert!(
        slots_hw >= KEYS_PER_PHASE && bytes_hw > 0,
        "interner high-water should cover at least one phase's keys, got {slots_hw} slots / {bytes_hw} bytes"
    );
    // Without compaction the interner would end at every distinct key it
    // ever saw; recycling at the idle announcements keeps the slot space
    // bounded by the live phases between compactions.
    assert!(
        slots_hw < total_distinct,
        "interner never compacted: {slots_hw} slots vs {total_distinct} distinct keys"
    );

    let oracle = result_bits(reference_results(
        &[window],
        AggregateFunction::Sum,
        &events,
    ));
    assert_eq!(
        result_bits(collected),
        oracle,
        "results diverged across interner compactions"
    );
}

#[test]
fn row_layout_matches_reference_as_panes_cross_the_density_threshold() {
    // Three phases of 8 events per time unit: 64 keys (every pane dense —
    // even the 10-unit factor instance holds ~46 of the 64 slots), then 4 fresh keys
    // (the same recycled panes now hold 4 of 68 slots: sparse), then the
    // 64 keys again (dense). A pane is walked in slot order at ≥ half its
    // slot capacity live and in first-touch order below, so combine and
    // emit switch walks in both directions. Each crossing falls inside an
    // open instance, and a checkpoint/restore lands exactly there.
    const PHASE: u64 = 640;
    const RATE: u64 = 8;
    let windows = vec![w(20, 20), w(30, 30), w(40, 40)];
    let funcs = [
        AggregateFunction::Min,
        AggregateFunction::Max,
        AggregateFunction::Sum,
        AggregateFunction::Count,
        AggregateFunction::Avg,
        AggregateFunction::Median,
    ];
    let mut rng = XorShift(0xDE45_17E5);
    let mut events = Vec::new();
    for (phase, (population, first)) in [(64u64, 0u64), (4, 64), (64, 0)].into_iter().enumerate() {
        let t0 = phase as u64 * PHASE;
        for t in t0..t0 + PHASE {
            for _ in 0..RATE {
                let ordinal = (first + rng.next() % population) as u32;
                let value = ((rng.next() % 4_096) as f64 - 2_048.0) * 0.125 + 0.0625;
                events.push(Event::new(t, sparse_key(ordinal), value));
            }
        }
    }
    let cuts = [PHASE + 5, 2 * PHASE + 5].map(|t| events.partition_point(|e| e.time < t));

    let specs = funcs.iter().map(|&f| AggregateSpec::new(f)).collect();
    let q = WindowQuery::with_aggregates(WindowSet::new(windows.clone()).unwrap(), specs).unwrap();
    let out = Optimizer::default().optimize(&q).unwrap();
    assert!(out.factored.plan.factor_window_count() > 0);
    for plan in [&out.factored.plan, &out.original.plan] {
        let opts = PipelineOptions::collecting();
        let mut pipeline = PlanPipeline::compile(plan, opts).unwrap();
        let mut collected = Vec::new();
        let mut start = 0;
        for cut in cuts.into_iter().chain([events.len()]) {
            let batch = EventBatch::from_events(&events[start..cut]);
            let (times, keys, values) = batch.columns();
            pipeline.push_columns(times, keys, values).unwrap();
            collected.extend(pipeline.poll_results());
            if cut < events.len() {
                let mut snapshot = Vec::new();
                pipeline.checkpoint(plan, &mut snapshot).unwrap();
                pipeline = PlanPipeline::restore(plan, opts, &mut snapshot.as_slice()).unwrap();
            }
            start = cut;
        }
        collected.extend(pipeline.finish().unwrap().results);
        for (j, &f) in funcs.iter().enumerate() {
            let term: Vec<WindowResult> = collected
                .iter()
                .filter(|r| r.agg == j as u32)
                .map(|r| WindowResult { agg: 0, ..*r })
                .collect();
            assert_eq!(
                result_bits(term),
                result_bits(reference_results(&windows, f, &events)),
                "{f} diverges from the reference across the density crossings"
            );
        }
    }
}
