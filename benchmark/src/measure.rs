//! The untraced run: one workload's end-to-end metrics.
//!
//! Order matters for `peak_rss_mb`: cold set-ups, closed-loop repetitions
//! and the open-loop phase come first, then the memory reading, and only
//! then the dry run and the oracle, whose memory is the harness's own.

use crate::deploy::SinkMode;
use crate::drive::{
    check_pass, cold_setups, dry_run, latencies_us, oracle_check, run_pass, self_hwm_kb, Feed,
    Tally,
};
use crate::gen::Stream;
use crate::json::Json;
use crate::stats::{median, percentile, quartiles, sorted, tail};
use crate::trace::Recorder;
use crate::workloads::Workload;
use crate::Effort;
use std::time::Instant;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one run of one workload produced.
pub struct RunResult {
    /// The metrics the run is asked for, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Everything else worth keeping: sample counts, quartiles, row counts.
    pub detail: Json,
}

/// Events hashed by the determinism self-test.
const HASHED: u64 = 1 << 20;
/// Share of `--seconds` the open-loop phase runs for (the closed-loop
/// repetitions take about half; set-ups and checks the rest).
const OPEN_SHARE: f64 = 0.4;

/// Generates the workload's stream twice and demands the same input.
pub fn generate_checked(w: &Workload, seed: u64) -> Result<(Stream, u64), String> {
    let stream = Stream::generate(w.stream, seed);
    let hash = stream.input_hash(HASHED);
    if Stream::generate(w.stream, seed).input_hash(HASHED) != hash {
        return Err(format!("{}: two generations of seed {seed} differ", w.name));
    }
    Ok((stream, hash))
}

fn hex(v: u64) -> Json {
    Json::String(format!("{v:016x}"))
}

fn spread(sorted: &[f64]) -> Json {
    let [q1, q2, q3] = quartiles(sorted);
    Json::object([
        ("n", Json::Number(sorted.len() as f64)),
        ("q1", Json::Number(q1)),
        ("median", Json::Number(q2)),
        ("q3", Json::Number(q3)),
    ])
}

/// Runs `w` at `effort` and returns its end-to-end metrics.
pub fn end_to_end(w: &Workload, seed: u64, effort: Effort) -> Result<RunResult, String> {
    let seconds = effort.seconds;
    let (stream, input_hash) = generate_checked(w, seed)?;
    let setups = sorted(cold_setups(w, effort.setups, 0.015 * seconds)?);

    // Closed loop at full speed: one warm-up, then the measured repetitions.
    let rep_events = w.sized(w.rep_events as f64 * effort.scale());
    let counting = w.measured(w.deployed(), SinkMode::Count);
    let started = Instant::now();
    let mut reps = Vec::new();
    for rep in 0..=effort.reps {
        // A much slower host than the defining one still ends in time.
        if rep > 2 && started.elapsed().as_secs_f64() > 0.75 * seconds {
            break;
        }
        reps.push(run_pass(
            w,
            &stream,
            counting,
            rep_events,
            Feed::FullSpeed,
            &mut Recorder::off(),
        )?);
    }

    // Open loop at the frozen reference rate.
    let rate = w.reference_rate;
    let open_events = w.sized(rate as f64 * OPEN_SHARE * seconds);
    let open = run_pass(
        w,
        &stream,
        w.measured(w.deployed(), SinkMode::Marks),
        open_events,
        Feed::Paced {
            events_per_second: rate,
        },
        &mut Recorder::off(),
    )?;

    let children_kb = reps.iter().map(|p| p.children_hwm_kb).max().unwrap_or(0);
    let peak_rss_mb = (self_hwm_kb() + children_kb.max(open.children_hwm_kb)) as f64 / 1024.0;

    let expected = dry_run(w, &stream, rep_events.max(open_events))?;
    let mut tally = Tally::default();
    for pass in reps.iter().chain([&open]) {
        tally += check_pass(w, pass, &expected);
    }
    let (latencies, unanswered) = latencies_us(&expected, &open.due_ns, &open.finished.sink.marks);
    tally.failed += unanswered;
    tally += oracle_check(w, &stream)?;

    let throughput = sorted(reps[1..].iter().map(|p| p.events_per_second()).collect());
    if latencies.is_empty() {
        return Err(format!("{}: the open-loop phase sealed nothing", w.name));
    }
    let (tail_percentile, tail_us) = tail(&latencies);
    let latencies = sorted(latencies);
    let lateness = sorted(open.lateness_us);
    let last = &reps[reps.len() - 1];

    let metrics = vec![
        Metric {
            name: "throughput_eps",
            unit: "1/s",
            value: median(&throughput),
        },
        Metric {
            name: "result_latency_p50_us",
            unit: "us",
            value: percentile(&latencies, 50),
        },
        Metric {
            name: "result_latency_tail_us",
            unit: "us",
            value: tail_us,
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: median(&setups),
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: peak_rss_mb,
        },
    ];
    let detail = Json::object([
        ("input_hash", hex(input_hash)),
        ("rep_events", Json::Number(rep_events as f64)),
        ("rep_rows", Json::Number(last.finished.sink.rows as f64)),
        ("rep_checksum", hex(last.finished.sink.checksum)),
        ("throughput_eps", spread(&throughput)),
        ("setup_s", spread(&setups)),
        ("open_loop_rate_eps", Json::Number(rate as f64)),
        ("open_loop_events", Json::Number(open_events as f64)),
        ("result_latency_us", spread(&latencies)),
        (
            "result_latency_tail_percentile",
            Json::Number(f64::from(tail_percentile)),
        ),
        (
            "feeder_lateness_p99_us",
            Json::Number(percentile(&lateness, 99)),
        ),
        (
            "peak_rss_covers",
            Json::String(if children_kb > 0 {
                "coordinator + fw-worker processes".into()
            } else {
                "this process".into()
            }),
        ),
        (
            "failed_share",
            Json::Number(tally.failed as f64 / tally.attempted as f64),
        ),
    ]);
    Ok(RunResult {
        metrics,
        tally,
        detail,
    })
}
