//! Observability-layer guarantees: per-plan-node profiling is
//! observation-only (results bit-identical at every level, across plan
//! choices, shard widths, and disorder), EXPLAIN ANALYZE reconciles
//! exactly with the global `ExecStats`, node counters survive
//! checkpoint/restore — including restores that rescale the shard width —
//! and the `EXPLAIN [ANALYZE]` statement frontend drives the whole path
//! from SQL text.

use factor_windows::prelude::*;
use factor_windows::{explain_sql, sql as fw_sql};
use fw_engine::Event;

const MATRIX_SQL: &str = "SELECT k, MIN(v) AS Lo, SUM(v) AS Tot FROM S GROUP BY k, \
     Windows(Window('a', TumblingWindow(second, 20)), \
             Window('b', TumblingWindow(second, 30)), \
             Window('c', TumblingWindow(second, 40)))";

/// Deterministic constant-pace stream over a small key space with values
/// that exercise non-trivial float folding.
fn events(n: u64, keys: u32) -> Vec<Event> {
    (0..n)
        .map(|t| Event {
            time: t,
            key: (t % u64::from(keys)) as u32,
            value: ((t * 31) % 97) as f64 * 0.375 - 18.0,
        })
        .collect()
}

/// Reverses disjoint chunks of length `chunk`, displacing each event by
/// at most `chunk - 1` time units — repairable with an out-of-order
/// tolerance of `chunk`.
fn disordered(mut stream: Vec<Event>, chunk: usize) -> Vec<Event> {
    if chunk > 1 {
        for window in stream.chunks_mut(chunk) {
            window.reverse();
        }
    }
    stream
}

/// `(window, interval, key, agg, value bits)` — the full identity of a
/// result row for bit-exact comparison.
fn result_key(r: &WindowResult) -> (u64, u64, u64, u32, u32, u64) {
    (
        r.window.range(),
        r.interval.start,
        r.interval.end,
        r.key,
        r.agg,
        r.value.to_bits(),
    )
}

#[test]
fn profiling_is_observation_only_across_plans_shards_and_disorder() {
    let base = events(3_000, 5);
    for choice in [
        PlanChoice::Original,
        PlanChoice::Rewritten,
        PlanChoice::Factored,
    ] {
        for parallelism in [
            Parallelism::Sequential,
            Parallelism::Fixed(1),
            Parallelism::Fixed(2),
            Parallelism::Fixed(4),
        ] {
            for chunk in [1usize, 16] {
                let stream = disordered(base.clone(), chunk);
                let run = |level: ProfileLevel| {
                    let out = Session::from_sql(MATRIX_SQL)
                        .unwrap()
                        .plan_choice(choice)
                        .parallelism(parallelism)
                        .out_of_order(chunk as u64)
                        .collect_results(true)
                        .profiling(level)
                        .run_batch(&stream)
                        .unwrap();
                    (
                        out.results.iter().map(result_key).collect::<Vec<_>>(),
                        out.stats,
                    )
                };
                let (baseline, base_stats) = run(ProfileLevel::Off);
                assert!(!baseline.is_empty());
                for level in [ProfileLevel::Counters, ProfileLevel::Timed] {
                    let (profiled, stats) = run(level);
                    assert_eq!(
                        profiled, baseline,
                        "results drifted under {level:?} at {choice:?}/{parallelism:?}/chunk={chunk}"
                    );
                    assert_eq!(
                        (stats.updates, stats.combines, stats.agg_ops),
                        (base_stats.updates, base_stats.combines, base_stats.agg_ops),
                        "ExecStats drifted under {level:?} at {choice:?}/{parallelism:?}/chunk={chunk}"
                    );
                }
            }
        }
    }
}

#[test]
fn explain_analyze_reconciles_node_counters_with_exec_stats() {
    // The Fig. 1 workload: constant pace, minutes normalized to seconds.
    let stream = events(10_000, 4);
    let session = Session::from_sql(fw_sql::FIG1_SQL)
        .unwrap()
        .profiling(ProfileLevel::Counters);
    let mut pipeline = session.build().unwrap();
    pipeline.push_batch(&stream).unwrap();
    pipeline.advance_watermark(10_000 + 2_400).unwrap();

    let stats = pipeline.stats();
    let profile = pipeline.profile().unwrap();
    let (updates, combines, agg_ops) = profile.observed_totals();
    assert_eq!(
        (updates, combines, agg_ops),
        (stats.updates, stats.combines, stats.agg_ops),
        "per-node counters must reconcile exactly with global ExecStats"
    );
    assert!(updates > 0 && agg_ops > 0);

    // Every window node of the executing plan reports, and the render
    // carries both sides of the predicted-vs-observed join.
    assert_eq!(profile.nodes.len(), pipeline.plan().window_nodes().count());
    let text = pipeline.explain().unwrap();
    assert!(text.contains("EXPLAIN ANALYZE"), "{text}");
    assert!(text.contains("pred.cost"), "{text}");
    assert!(text.contains("20 min"), "{text}");
}

#[test]
fn node_counters_survive_checkpoint_restore_and_rescale() {
    let stream = events(4_800, 6);
    let (first, second) = stream.split_at(2_400);
    let session = Session::from_sql(MATRIX_SQL)
        .unwrap()
        .profiling(ProfileLevel::Counters);

    let mut pipeline = session.build().unwrap();
    pipeline.push_batch(first).unwrap();
    pipeline.advance_watermark(2_400).unwrap();
    let mut image = Vec::new();
    pipeline.checkpoint(&mut image).unwrap();
    let at_checkpoint = pipeline.node_profiles();
    assert!(at_checkpoint.iter().any(|p| p.updates > 0));

    // Baseline: the original pipeline runs the stream to completion.
    pipeline.push_batch(second).unwrap();
    pipeline.advance_watermark(4_800 + 40).unwrap();
    let full = pipeline.node_profiles();

    // A restored pipeline resumes the cumulative counters — it does not
    // restart them from zero — and converges to the same totals.
    let mut restored = session.restore(&mut image.as_slice()).unwrap();
    assert_eq!(restored.node_profiles(), at_checkpoint);
    restored.push_batch(second).unwrap();
    restored.advance_watermark(4_800 + 40).unwrap();
    assert_eq!(restored.node_profiles(), full);

    // Rescale on restore: the same image resumed onto a sharded backend
    // reports the same cumulative element-flow counters. Seals and
    // occupancy high-water are per-shard pane state (each shard closes
    // its own pane per instance) and are exempt from width-neutrality.
    let rescaled_session = session.clone().parallelism(Parallelism::Fixed(2));
    let mut rescaled = rescaled_session.restore(&mut image.as_slice()).unwrap();
    rescaled.push_batch(second).unwrap();
    rescaled.advance_watermark(4_800 + 40).unwrap();
    let flows = |profiles: &[NodeProfile]| {
        let mut v: Vec<_> = profiles
            .iter()
            .map(|p| (p.node, p.updates, p.combines, p.agg_ops, p.emitted))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(flows(&rescaled.node_profiles()), flows(&full));
}

#[test]
fn explain_sql_statement_frontend_runs_end_to_end() {
    let stream = events(200, 3);
    let sql = "SELECT k, MIN(v) AS Lo FROM S GROUP BY k, \
               Windows(Window('a', TumblingWindow(second, 20)), \
                       Window('b', TumblingWindow(second, 40)))";

    // Plain EXPLAIN: prediction only, nothing executes — the render is
    // the compact predicted-flow table without an observed side.
    let text = explain_sql(&format!("EXPLAIN {sql}"), &stream).unwrap();
    assert!(text.starts_with("EXPLAIN  "), "{text}");
    assert!(text.contains("pred.cost"), "{text}");
    assert!(!text.contains("updates="), "{text}");

    // EXPLAIN ANALYZE: the stream runs and observed counters land.
    let text = explain_sql(&format!("EXPLAIN ANALYZE {sql}"), &stream).unwrap();
    assert!(text.contains("EXPLAIN ANALYZE"), "{text}");
    assert!(text.contains("updates=200/200"), "{text}");

    // A statement without the prefix is rejected by this entry point.
    assert!(explain_sql(sql, &stream).is_err());
}
