//! The traced run: one workload's per-layer metrics.
//!
//! Every call into a layer is wrapped in a span from this side of the API
//! (`trace.rs`); self time per span name gives the busy-time metrics, the
//! program's own counters (`Pipeline::stats()`, `ServeClient::stats()`) give
//! the counts, and short probes over the workload's own stream give the
//! rest: plan A/B runs, codec loops, the same stream through `GroupHost`
//! without sockets, a rate ladder, and — on the distributed workload —
//! processes against threads against one thread.
//!
//! A layer that is not on a workload's path reports 0 for its waiting and
//! transport metrics there (README.md says which); end-to-end numbers never
//! come from this run.

use crate::deploy::{Mark, Options, SinkMode, Via};
use crate::drive::{
    check_pass, cold_setups, dry_run, latencies_us, oracle_check, run_pass, Feed, Pass, Tally,
};
use crate::gen::{Stream, BATCH};
use crate::json::Json;
use crate::measure::{generate_checked, Metric, RunResult};
use crate::report::OUT_DIR;
use crate::stats::{median, percentile, sorted, tail};
use crate::trace::{residual_share, self_time_by_layer, self_time_by_name, Recorder, Span};
use crate::workloads::{Deploy, Workload};
use crate::Effort;
use factor_windows::{Parallelism, PlanChoice};
use fw_core::{CostModel, Optimizer};
use fw_engine::{route_of, EventBatch, DEFAULT_ELEMENT_WORK};
use fw_serve::wire::{
    decode_batch_into, encode_result_row, FrameReader, FrameWriter, KIND_PUSH_COLUMNS,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order. Units
/// `count`, `count/event`, `bytes` and `bytes/event` mark the metrics that
/// must repeat exactly for one seed (`compare` holds them to equality).
pub const PER_LAYER: [(&str, &str); 39] = [
    ("sql.parse_us", "us"),
    ("core.optimize_us", "us"),
    ("core.windows_in", "count"),
    ("core.factor_windows_added", "count"),
    ("core.predicted_speedup", "ratio"),
    ("core.measured_speedup", "ratio"),
    ("core.measured_speedup_work", "ratio"),
    ("core.plan_regret", "ratio"),
    ("engine.build_us", "us"),
    ("engine.push_ns_per_event", "ns/event"),
    ("engine.seal_ns_per_row", "ns/row"),
    ("engine.updates_per_event", "count/event"),
    ("engine.combines_per_event", "count/event"),
    ("engine.agg_ops_per_event", "count/event"),
    ("engine.reorder_buffered_peak", "count"),
    ("engine.interner_slots", "count"),
    ("engine.interner_bytes", "bytes"),
    ("engine.checkpoint_ms", "ms"),
    ("engine.checkpoint_bytes", "bytes"),
    ("serve.encode_ns_per_event", "ns/event"),
    ("serve.decode_ns_per_event", "ns/event"),
    ("serve.wire_bytes_per_event", "bytes/event"),
    ("serve.row_encode_ns_per_row", "ns/row"),
    ("serve.host_ns_per_event", "ns/event"),
    ("serve.transport_ns_per_event", "ns/event"),
    ("serve.ingest_queue_high_water", "cmds"),
    ("serve.outbox_high_water", "frames"),
    ("serve.watermark_lag", "units"),
    ("serve.batches_shed", "batches"),
    ("serve.results_dropped", "rows"),
    ("serve.feeder_lateness_p99_us", "us"),
    ("serve.max_rate_within_limit_eps", "1/s"),
    ("dist.setup_ms", "ms"),
    ("dist.frame_bytes_per_event", "bytes/event"),
    ("dist.finish_ms", "ms"),
    ("dist.vs_threads_ratio", "ratio"),
    ("dist.vs_sequential_ratio", "ratio"),
    ("trace.residual_share", "share"),
    ("trace.overhead_share", "share"),
];

/// Seconds per ladder step at the committed run length.
const STEP_SECONDS: f64 = 1.0;

/// Everything the probes share.
struct Probe<'a> {
    w: &'a Workload,
    stream: &'a Stream,
    rounds: usize,
    tally: Tally,
    values: BTreeMap<&'static str, f64>,
}

impl Probe<'_> {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// An untraced closed-loop pass with a counting sink.
    fn pass(&self, o: Options, events: u64) -> Result<Pass, String> {
        run_pass(
            self.w,
            self.stream,
            o,
            events,
            Feed::FullSpeed,
            &mut Recorder::off(),
        )
    }

    /// Median events/s of each option set over interleaved rounds.
    fn interleaved(&self, options: &[Options], events: u64) -> Result<Vec<f64>, String> {
        let mut rates = vec![Vec::new(); options.len()];
        for _ in 0..self.rounds {
            for (o, rates) in options.iter().zip(&mut rates) {
                rates.push(self.pass(*o, events)?.events_per_second());
            }
        }
        Ok(rates.into_iter().map(|r| median(&sorted(r))).collect())
    }
}

fn ns(by_name: &BTreeMap<&'static str, u64>, name: &str) -> f64 {
    by_name.get(name).copied().unwrap_or(0) as f64
}

/// Runs `w`'s traced run at `effort` and returns its per-layer metrics;
/// leaves the spans in `benchmark/out/trace-<workload>.json`.
pub fn traced(w: &Workload, seed: u64, effort: Effort) -> Result<RunResult, String> {
    let (stream, input_hash) = generate_checked(w, seed)?;
    let rep_events = w.sized(w.rep_events as f64 * effort.scale());
    let probe_events = w.whole_periods(rep_events / 4);
    let longest_step = step_events(w, w.ladder[3], effort);
    let expected = dry_run(w, &stream, rep_events.max(longest_step))?;
    let mut p = Probe {
        w,
        stream: &stream,
        rounds: effort.rounds,
        tally: Tally::default(),
        values: PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect(),
    };
    let in_process = w.measured(w.in_process(), SinkMode::Marks);
    let deployed = w.measured(w.deployed(), SinkMode::Marks);

    optimizer(&mut p)?;

    // Repetition 0: the queries in this process on one thread, traced.
    let mut rec = Recorder::new(true, Instant::now());
    let engine_pass = run_pass(
        w,
        &stream,
        in_process,
        rep_events,
        Feed::FullSpeed,
        &mut rec,
    )?;
    p.tally += check_pass(w, &engine_pass, &expected);
    let by_name = self_time_by_name(&rec.spans, 0);
    let (events, rows) = (
        engine_pass.events as f64,
        engine_pass.finished.sink.rows as f64,
    );
    let busy = |call: &str| {
        ns(&by_name, &format!("engine.{call}")) + ns(&by_name, &format!("serve.host.{call}"))
    };
    p.set("sql.parse_us", ns(&by_name, "sql.parse") / 1e3);
    p.set(
        "engine.build_us",
        (ns(&by_name, "engine.build") + ns(&by_name, "serve.host.register")) / 1e3,
    );
    p.set("engine.push_ns_per_event", busy("push_columns") / events);
    p.set(
        "engine.seal_ns_per_row",
        (busy("advance_watermark") + busy("poll_results")) / rows,
    );
    let stats = engine_pass.finished.stats;
    p.set("engine.updates_per_event", stats.updates as f64 / events);
    p.set("engine.combines_per_event", stats.combines as f64 / events);
    p.set("engine.agg_ops_per_event", stats.agg_ops as f64 / events);
    p.set(
        "engine.reorder_buffered_peak",
        engine_pass.buffered_peak as f64,
    );
    p.set("engine.interner_slots", engine_pass.interner.0 as f64);
    p.set("engine.interner_bytes", engine_pass.interner.1 as f64);

    // Repetition 1: the workload's own deployment, traced, when it differs.
    let mut traced_pass = engine_pass;
    let mut traced_rep = 0;
    if w.deployed() != w.in_process() {
        traced_rep = 1;
        rec.set_rep(1);
        traced_pass = run_pass(w, &stream, deployed, rep_events, Feed::FullSpeed, &mut rec)?;
        p.tally += check_pass(w, &traced_pass, &expected);
        if let Some(other) = traced_pass.finished.spans.take() {
            rec.absorb(other);
        }
    }
    p.set(
        "trace.residual_share",
        residual_share(&rec.spans, "run", traced_rep),
    );
    let untraced = p.pass(deployed, rep_events)?;
    p.tally += check_pass(w, &untraced, &expected);
    p.set(
        "trace.overhead_share",
        1.0 - traced_pass.events_per_second() / untraced.events_per_second(),
    );

    plans(&mut p, probe_events)?;
    let rows = checkpoint(&mut p, probe_events)?;
    codecs(&mut p, probe_events, &rows);
    let host = p.pass(w.measured(Via::Host, SinkMode::Count), probe_events)?;
    p.set(
        "serve.host_ns_per_event",
        host.wall_s * 1e9 / probe_events as f64,
    );
    if w.deploy == Deploy::Serve {
        sockets(&mut p, probe_events, host.wall_s)?;
    }
    if let Deploy::Dist { workers } = w.deploy {
        distribution(&mut p, workers, probe_events, &rec.spans)?;
    }

    let steps = ladder(&mut p, effort, &expected)?;
    p.tally += oracle_check(w, &stream)?;

    let layers = |rep| {
        Json::object(
            self_time_by_layer(&rec.spans, rep)
                .into_iter()
                .map(|(layer, ns)| (layer, Json::Number(ns as f64))),
        )
    };
    let trace_path = format!("{OUT_DIR}/trace-{}.json", w.name);
    write_trace(&trace_path, w, seed, &rec.spans)?;
    let detail = Json::object([
        ("input_hash", Json::String(format!("{input_hash:016x}"))),
        ("traced_events", Json::Number(rep_events as f64)),
        ("probe_events", Json::Number(probe_events as f64)),
        ("self_time_ns_in_process", layers(0)),
        ("self_time_ns_deployed", layers(traced_rep)),
        ("ladder", Json::Array(steps)),
        ("latency_limit_us", Json::Number(w.latency_limit_us as f64)),
        ("spans", Json::Number(rec.spans.len() as f64)),
        ("trace_file", Json::String(trace_path)),
    ]);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: p.values[name],
        })
        .collect();
    Ok(RunResult {
        metrics,
        tally: p.tally,
        detail,
    })
}

/// The optimizer on its own, per standing query: its time, what it was
/// given, what it added, and the speed-up its cost model predicts.
fn optimizer(p: &mut Probe) -> Result<(), String> {
    let (mut optimize_ns, mut windows_in, mut factors) = (0, 0, 0);
    let (mut cost_original, mut cost_chosen) = (0u128, 0u128);
    for sql in p.w.queries {
        let query = fw_sql::parse_to_query(sql).map_err(|e| e.message)?;
        let started = Instant::now();
        let outcome = Optimizer::new(CostModel::default())
            .optimize(&query)
            .map_err(|e| e.to_string())?;
        optimize_ns += started.elapsed().as_nanos();
        let chosen = outcome.select(PlanChoice::Auto);
        windows_in += query.windows().len();
        factors += chosen.plan.factor_window_count();
        cost_original += outcome.original.cost;
        cost_chosen += chosen.cost;
    }
    p.set("core.optimize_us", optimize_ns as f64 / 1e3);
    p.set("core.windows_in", windows_in as f64);
    p.set("core.factor_windows_added", factors as f64);
    p.set(
        "core.predicted_speedup",
        cost_original as f64 / cost_chosen as f64,
    );
    Ok(())
}

/// The stream over the loopback socket against the same stream through
/// `GroupHost` in process (`host_wall_s`), and the server's own gauges.
fn sockets(p: &mut Probe, events: u64, host_wall_s: f64) -> Result<(), String> {
    let socket = p.pass(p.w.measured(Via::Serve, SinkMode::Count), events)?;
    p.set(
        "serve.transport_ns_per_event",
        (socket.wall_s - host_wall_s) * 1e9 / events as f64,
    );
    let snapshot = socket.finished.serve.expect("a serve pass has stats");
    p.set(
        "serve.ingest_queue_high_water",
        snapshot.ingest_queue_high_water as f64,
    );
    p.set("serve.outbox_high_water", snapshot.outbox_high_water as f64);
    p.set("serve.watermark_lag", snapshot.watermark_lag as f64);
    p.set("serve.batches_shed", snapshot.batches_shed as f64);
    p.set("serve.results_dropped", snapshot.results_dropped as f64);
    Ok(())
}

/// Events in one ladder step at `rate`.
fn step_events(w: &Workload, rate: u64, effort: Effort) -> u64 {
    w.sized(rate as f64 * STEP_SECONDS * effort.scale())
}

/// The rate ladder, open loop on the workload's own deployment: the highest
/// step whose tail latency meets the frozen limit without a growing backlog,
/// and how late the generator ran at the reference rate.
fn ladder(p: &mut Probe, effort: Effort, expected: &[Mark]) -> Result<Vec<Json>, String> {
    let w = p.w;
    let deployed = w.measured(w.deployed(), SinkMode::Marks);
    let first_step = w.ladder.len() - effort.ladder_steps;
    let mut steps = Vec::new();
    for (index, &rate) in w.ladder.iter().enumerate().skip(first_step) {
        let feed = Feed::Paced {
            events_per_second: rate,
        };
        let events = step_events(w, rate, effort);
        let pass = run_pass(w, p.stream, deployed, events, feed, &mut Recorder::off())?;
        p.tally += check_pass(w, &pass, expected);
        let (latencies, unanswered) =
            latencies_us(expected, &pass.due_ns, &pass.finished.sink.marks);
        p.tally.failed += unanswered;
        if latencies.is_empty() {
            return Err(format!("{}: ladder step {rate}/s sealed nothing", w.name));
        }
        let (tail_percentile, tail_us) = tail(&latencies);
        // A backlog that grows shows as lateness that grows: the generator's
        // last third must still be inside the limit.
        let late = sorted(pass.lateness_us[pass.lateness_us.len() * 2 / 3..].to_vec());
        let late_p99 = percentile(&late, 99);
        let limit = w.latency_limit_us as f64;
        if tail_us <= limit && late_p99 <= limit {
            p.set("serve.max_rate_within_limit_eps", rate as f64);
        }
        // Lateness is reported at the reference rate (the second step).
        if index == first_step.max(1) {
            let all = sorted(pass.lateness_us);
            p.set("serve.feeder_lateness_p99_us", percentile(&all, 99));
        }
        steps.push(Json::object([
            ("rate_eps", Json::Number(rate as f64)),
            ("latency_samples", Json::Number(latencies.len() as f64)),
            ("tail_percentile", Json::Number(f64::from(tail_percentile))),
            ("tail_us", Json::Number(tail_us)),
            ("lateness_last_third_p99_us", Json::Number(late_p99)),
        ]));
    }
    Ok(steps)
}

/// The paper's headline series: measured speed-up of the plan `Auto` picks
/// over the original plan, next to the cost model's prediction, and how far
/// `Auto` is from the best of the three plans. Interleaved rounds, so drift
/// hits every plan alike.
fn plans(p: &mut Probe, events: u64) -> Result<(), String> {
    let base = p.w.measured(p.w.in_process(), SinkMode::Count);
    let with = |choice, element_work| Options {
        choice,
        element_work,
        ..base
    };
    let choices = [
        PlanChoice::Auto,
        PlanChoice::Original,
        PlanChoice::Rewritten,
        PlanChoice::Factored,
    ];
    let options: Vec<Options> = choices.iter().map(|&c| with(c, 0)).collect();
    let rates = p.interleaved(&options, events)?;
    p.set("core.measured_speedup", rates[0] / rates[1]);
    p.set(
        "core.plan_regret",
        rates[0] / rates[1..].iter().copied().fold(f64::MIN, f64::max),
    );
    // The calibrated per-element work costs ~100 ns an element; a shorter
    // stream keeps the probe's wall time in line with the others.
    let worked = p.w.whole_periods(events / 32);
    let options: Vec<Options> = choices[..2]
        .iter()
        .map(|&c| with(c, DEFAULT_ELEMENT_WORK))
        .collect();
    let rates = p.interleaved(&options, worked)?;
    p.set("core.measured_speedup_work", rates[0] / rates[1]);
    Ok(())
}

/// A durable pass that ends in `Pipeline::checkpoint` into memory; returns
/// the rows it sealed, for the codec loops.
fn checkpoint(p: &mut Probe, events: u64) -> Result<Vec<fw_engine::WindowResult>, String> {
    let o = Options {
        durable: true,
        ..p.w.measured(p.w.in_process(), SinkMode::Rows)
    };
    let mut rec = Recorder::new(true, Instant::now());
    let pass = run_pass(p.w, p.stream, o, events, Feed::FullSpeed, &mut rec)?;
    let by_name = self_time_by_name(&rec.spans, 0);
    p.set(
        "engine.checkpoint_ms",
        ns(&by_name, "engine.checkpoint") / 1e6,
    );
    p.set("engine.checkpoint_bytes", pass.checkpoint_bytes as f64);
    Ok(pass
        .finished
        .sink
        .kept
        .into_iter()
        .map(|r| r.result)
        .collect())
}

/// Codec loops over the workload's own batches and rows into memory: what
/// the wire costs with no socket, queue or thread behind it.
fn codecs(p: &mut Probe, events: u64, rows: &[fw_engine::WindowResult]) {
    let batches = Workload::batches(events);
    let (mut times, mut wire) = (Vec::new(), Vec::new());
    let (mut writer, mut reader) = (FrameWriter::new(), FrameReader::new());
    let mut decoded = EventBatch::with_capacity(BATCH);
    let (mut encode_ns, mut decode_ns, mut bytes) = (0, 0, 0);
    for batch in 0..batches {
        let (t, k, v) = p.stream.batch(batch, &mut times);
        wire.clear();
        let started = Instant::now();
        writer
            .write_columns(&mut wire, KIND_PUSH_COLUMNS, t, k, v)
            .expect("a batch fits a frame");
        encode_ns += started.elapsed().as_nanos();
        bytes += wire.len();
        let started = Instant::now();
        let (_, payload) = reader.read_raw(&mut wire.as_slice()).expect("own frame");
        decode_batch_into(payload, &mut decoded).expect("own batch");
        decode_ns += started.elapsed().as_nanos();
        std::hint::black_box(&decoded);
    }
    p.set(
        "serve.encode_ns_per_event",
        encode_ns as f64 / events as f64,
    );
    p.set(
        "serve.decode_ns_per_event",
        decode_ns as f64 / events as f64,
    );
    p.set("serve.wire_bytes_per_event", bytes as f64 / events as f64);
    let mut out = Vec::new();
    let started = Instant::now();
    for chunk in rows.chunks(BATCH) {
        out.clear();
        for row in chunk {
            encode_result_row(row, &mut out);
        }
        std::hint::black_box(&out);
    }
    let per_row = started.elapsed().as_nanos() as f64 / rows.len().max(1) as f64;
    p.set("serve.row_encode_ns_per_row", per_row);
}

/// The cost of distribution: processes against threads against one thread
/// on the same stream, set-up and finish times, and the bytes the FWD1
/// batch frames take (by encoding them the way the coordinator stages them).
fn distribution(p: &mut Probe, workers: usize, events: u64, spans: &[Span]) -> Result<(), String> {
    let w = p.w;
    let count = |parallelism| w.measured(Via::Session(parallelism), SinkMode::Count);
    let rates = p.interleaved(
        &[
            count(Parallelism::Distributed { workers }),
            count(Parallelism::Fixed(workers)),
            count(Parallelism::Sequential),
        ],
        events,
    )?;
    p.set("dist.vs_threads_ratio", rates[0] / rates[1]);
    p.set("dist.vs_sequential_ratio", rates[0] / rates[2]);
    p.set(
        "dist.setup_ms",
        median(&sorted(cold_setups(p.w, 5, 0.0)?)) * 1e3,
    );
    p.set(
        "dist.finish_ms",
        ns(&self_time_by_name(spans, 1), "dist.finish") / 1e6,
    );

    let mut staged = vec![EventBatch::with_capacity(fw_dist::SCATTER_CHUNK); workers];
    let (mut writer, mut wire, mut bytes) = (FrameWriter::new(), Vec::new(), 0);
    let mut ship = |batch: &mut EventBatch| {
        let (t, k, v) = batch.columns();
        wire.clear();
        writer
            .write_columns(&mut wire, fw_dist::proto::KIND_BATCH, t, k, v)
            .expect("a scatter chunk fits a frame");
        bytes += wire.len();
        batch.clear();
    };
    let mut times = Vec::new();
    for batch in 0..Workload::batches(events) {
        let (t, k, v) = p.stream.batch(batch, &mut times);
        for i in 0..t.len() {
            let to = &mut staged[route_of(k[i], workers)];
            to.push_parts(t[i], k[i], v[i]);
            if to.len() == fw_dist::SCATTER_CHUNK {
                ship(to);
            }
        }
    }
    staged
        .iter_mut()
        .filter(|b| !b.is_empty())
        .for_each(&mut ship);
    p.set("dist.frame_bytes_per_event", bytes as f64 / events as f64);
    Ok(())
}

fn write_trace(path: &str, w: &Workload, seed: u64, spans: &[Span]) -> Result<(), String> {
    let spans = spans
        .iter()
        .map(|s| {
            Json::object([
                ("name", Json::String(s.name.into())),
                ("start_ns", Json::Number(s.start_ns as f64)),
                ("end_ns", Json::Number(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Number(p as f64)),
                ),
                ("rep", Json::Number(f64::from(s.rep))),
            ])
        })
        .collect();
    let doc = Json::object([
        ("workload", Json::String(w.name.into())),
        ("seed", Json::Number(seed as f64)),
        ("spans", Json::Array(spans)),
    ]);
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{path}: {e}"))
}
