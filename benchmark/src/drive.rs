//! The drivers: one pass of a stream through a deployment (closed loop at
//! full speed, or open loop on a schedule), the dry run that says what the
//! rows must be, the oracle comparison, and set-up and memory measurement.

use crate::deploy::{setup, Finished, Mark, Options, Row, SinkMode, Via};
use crate::gen::{Stream, BATCH};
use crate::trace::Recorder;
use crate::workloads::Workload;
use factor_windows::{Parallelism, PlanChoice};
use fw_engine::{reference_results, Event};
use std::time::{Duration, Instant};

/// What one pass measured.
pub struct Pass {
    pub events: u64,
    /// First push → the consumer holds the last sealed row.
    pub wall_s: f64,
    pub finished: Finished,
    /// Peak of `Pipeline::buffered()`, sampled just before every watermark.
    pub buffered_peak: usize,
    pub interner: (u64, u64),
    /// Open loop: how late each batch went out, in microseconds.
    pub lateness_us: Vec<f64>,
    /// Open loop: when each watermark was due (ns on the run's clock).
    pub due_ns: Vec<u64>,
    /// `VmHWM` summed over this process's children, just before `finish`.
    pub children_hwm_kb: u64,
    /// Durable passes: size of the checkpoint taken at the end of the stream.
    pub checkpoint_bytes: usize,
}

impl Pass {
    #[must_use]
    pub fn events_per_second(&self) -> f64 {
        self.events as f64 / self.wall_s
    }
}

/// How a pass is fed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// Closed loop: the next batch goes out when the last call returned.
    FullSpeed,
    /// Open loop: batch `i` is due at `start + i · BATCH / rate`, whatever
    /// the system is doing; waits and lateness are counted from *due*.
    Paced { events_per_second: u64 },
}

/// Sleeps most of the way to `due`, then spins: a bare sleep overshoots by
/// the timer slack, a bare spin starves the other threads on a 2-core host.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(250) {
            std::thread::sleep(left - Duration::from_micros(150));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Sets `w` up per `o` and feeds it the first `events` events of `stream`.
pub fn run_pass(
    w: &Workload,
    stream: &Stream,
    o: Options,
    events: u64,
    feed: Feed,
    rec: &mut Recorder,
) -> Result<Pass, String> {
    let epoch = Instant::now();
    let epoch_ns = |at: Instant| (at - epoch).as_nanos() as u64;
    rec.begin("run");
    let mut running = setup(w, o, rec, epoch)?;
    let names = running.names;
    let period_ns = match feed {
        Feed::FullSpeed => None,
        Feed::Paced { events_per_second } => Some(BATCH as f64 * 1e9 / events_per_second as f64),
    };
    let mut times = Vec::with_capacity(BATCH);
    let (mut lateness_us, mut due_ns) = (Vec::new(), Vec::new());
    let mut buffered_peak = 0;
    let start = Instant::now();
    for batch in 0..Workload::batches(events) {
        let mut due = start;
        if let Some(period_ns) = period_ns {
            due += Duration::from_nanos((batch as f64 * period_ns) as u64);
            rec.begin("bench.pace");
            wait_until(due);
            rec.end();
            lateness_us.push((Instant::now() - due).as_nanos() as f64 / 1e3);
        }
        rec.begin("bench.generate");
        let (t, k, v) = stream.batch(batch, &mut times);
        rec.end();
        rec.begin(names.push);
        running.push(t, k, v)?;
        rec.end();
        if let Some(mark) = stream.watermark_after(batch + 1) {
            due_ns.push(epoch_ns(due));
            // Sampled before the watermark flushes the reorder buffer.
            buffered_peak = buffered_peak.max(running.buffered());
            rec.begin(names.watermark);
            running.watermark(mark)?;
            rec.end();
            running.poll(rec);
        }
    }
    let interner = running.interner_stats();
    // Worker processes die inside `finish`, so their peak is read just
    // before it; the read is the harness's time, not the run's.
    let sampling = Instant::now();
    let children_hwm_kb = match o.via {
        Via::Session(Parallelism::Distributed { .. }) => children_hwm_kb(),
        _ => 0,
    };
    let mut checkpoint_bytes = 0;
    if o.durable {
        rec.begin("engine.checkpoint");
        checkpoint_bytes = running.checkpoint()?;
        rec.end();
    }
    let sampling = sampling.elapsed();
    rec.begin(names.finish);
    let finished = running.finish()?;
    rec.end();
    rec.end();
    Ok(Pass {
        events,
        wall_s: (finished.done_at - start - sampling).as_secs_f64(),
        finished,
        buffered_peak,
        interner,
        lateness_us,
        due_ns,
        children_hwm_kb,
        checkpoint_bytes,
    })
}

/// The dry run: the same stream through one thread in this process under
/// `PlanChoice::Original`. Mark `j` is what any deployment must hold once
/// watermark `j` has sealed.
pub fn dry_run(w: &Workload, stream: &Stream, events: u64) -> Result<Vec<Mark>, String> {
    let o = Options {
        choice: PlanChoice::Original,
        ..w.measured(w.in_process(), SinkMode::Marks)
    };
    let pass = run_pass(w, stream, o, events, Feed::FullSpeed, &mut Recorder::off())?;
    let sink = pass.finished.sink;
    match sink.marks.last() {
        Some(last) if last.rows == sink.rows && last.checksum == sink.checksum => Ok(sink.marks),
        _ => Err("dry run: rows sealed after the last watermark".into()),
    }
}

/// Operations attempted and failed by one checked pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Checks a pass against the dry run: every batch pushed and every row
/// expected is an attempt; rows missing or surplus, a checksum that differs,
/// and whatever the deployment shed, dropped or failed are failures.
#[must_use]
pub fn check_pass(w: &Workload, pass: &Pass, expected: &[Mark]) -> Tally {
    let watermarks = (pass.events / w.stream.watermark_events()) as usize;
    let want = expected[watermarks - 1];
    let got = &pass.finished.sink;
    let mut failed = want.rows.abs_diff(got.rows) + pass.finished.failures;
    if want.rows == got.rows && want.checksum != got.checksum {
        failed += 1;
    }
    Tally {
        attempted: Workload::batches(pass.events) + want.rows,
        failed,
    }
}

/// Result latency per sealing watermark: from the instant it was due to the
/// first moment the consumer held every row it seals (the dry run says how
/// many that is). Returns the samples in microseconds and how many sealing
/// watermarks never got their rows.
#[must_use]
pub fn latencies_us(expected: &[Mark], due_ns: &[u64], got: &[Mark]) -> (Vec<f64>, u64) {
    let (mut samples, mut missing) = (Vec::new(), 0);
    let (mut sealed, mut cursor) = (0, 0);
    for (want, &due) in expected.iter().zip(due_ns) {
        if want.rows == sealed {
            continue;
        }
        sealed = want.rows;
        while cursor < got.len() && got[cursor].rows < sealed {
            cursor += 1;
        }
        match got.get(cursor) {
            Some(mark) => samples.push(mark.at_ns.saturating_sub(due) as f64 / 1e3),
            None => missing += 1,
        }
    }
    (samples, missing)
}

/// Runs the oracle prefix through the workload's own deployment and
/// compares it row for row (`f64::to_bits`) with `reference_results`.
pub fn oracle_check(w: &Workload, stream: &Stream) -> Result<Tally, String> {
    let o = w.measured(w.deployed(), SinkMode::Rows);
    let events = w.whole_periods(w.oracle_events);
    let pass = run_pass(w, stream, o, events, Feed::FullSpeed, &mut Recorder::off())?;

    let stride = w.oracle_key_stride;
    let mut input = Vec::new();
    let mut times = Vec::new();
    for batch in 0..Workload::batches(events) {
        let (t, k, v) = stream.batch(batch, &mut times);
        input.extend(
            (0..t.len())
                .filter(|&i| k[i] % stride == 0)
                .map(|i| Event::new(t[i], k[i], v[i])),
        );
    }
    input.sort_by_key(|e| e.time);
    // The oracle seals what its own (sampled) input completes; the engine
    // saw the full prefix and may have sealed one instance more.
    let horizon = input.last().map_or(0, |e| e.time + 1);

    let mut want = Vec::new();
    for (query, sql) in w.queries.iter().enumerate() {
        let parsed = fw_sql::parse_to_query(sql).map_err(|e| e.message)?;
        for (agg, spec) in parsed.aggregates().iter().enumerate() {
            let rows = reference_results(parsed.windows().windows(), spec.function(), &input);
            want.extend(rows.into_iter().map(|mut result| {
                result.agg = agg as u32;
                Row {
                    query: query as u32,
                    result,
                }
            }));
        }
    }
    let mut got: Vec<Row> = pass
        .finished
        .sink
        .kept
        .into_iter()
        .filter(|r| r.result.key % stride == 0 && r.result.interval.end <= horizon)
        .collect();
    let order = |r: &Row| {
        let x = &r.result;
        (
            r.query,
            x.window.range(),
            x.window.slide(),
            x.interval.start,
            x.key,
            x.agg,
        )
    };
    want.sort_by_key(order);
    got.sort_by_key(order);
    let differing = want
        .iter()
        .zip(&got)
        .filter(|(a, b)| {
            order(a) != order(b) || a.result.value.to_bits() != b.result.value.to_bits()
        })
        .count() as u64;
    Ok(Tally {
        attempted: want.len() as u64,
        failed: differing + want.len().abs_diff(got.len()) as u64 + pass.finished.failures,
    })
}

/// Times cold set-ups (SQL text → ready for the first event, each from
/// scratch): at least `at_least`, then more while `budget_s` lasts, since
/// the cheapest set-ups take microseconds and their median needs the
/// samples. Returns the seconds each took; teardown is not timed.
pub fn cold_setups(w: &Workload, at_least: usize, budget_s: f64) -> Result<Vec<f64>, String> {
    let o = w.measured(w.deployed(), SinkMode::Count);
    let (begun, mut took) = (Instant::now(), Vec::new());
    while took.len() < at_least
        || (took.len() < 10 * at_least && begun.elapsed().as_secs_f64() < budget_s)
    {
        let started = Instant::now();
        let running = setup(w, o, &mut Recorder::off(), started)?;
        took.push(started.elapsed().as_secs_f64());
        running.finish()?;
    }
    Ok(took)
}

fn status_kb(pid: &str, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// This process's peak resident set, `VmHWM`, in kB.
#[must_use]
pub fn self_hwm_kb() -> u64 {
    status_kb("self", "VmHWM:").unwrap_or(0)
}

/// `VmHWM` summed over this process's live children (the `fw-worker`s of a
/// distributed pipeline; their pids are not reachable through `Session`, so
/// they are found by parent pid).
#[must_use]
pub fn children_hwm_kb() -> u64 {
    let me = std::process::id().to_string();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|pid| pid.bytes().all(|b| b.is_ascii_digit()))
        .filter(|pid| {
            // "pid (comm) state ppid ...": comm may hold spaces, so split
            // after the closing parenthesis.
            std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|stat| {
                    let rest = stat.rsplit_once(')')?.1;
                    Some(rest.split_whitespace().nth(1)? == me)
                })
                .unwrap_or(false)
        })
        .filter_map(|pid| status_kb(&pid, "VmHWM:"))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(at_ns: u64, rows: u64) -> Mark {
        Mark {
            at_ns,
            rows,
            checksum: 0,
        }
    }

    #[test]
    fn latency_runs_from_due_to_the_last_row_a_watermark_seals() {
        // Watermarks 0 and 2 seal rows (3, then 2 more); watermark 1 none.
        let expected = [mark(0, 3), mark(0, 3), mark(0, 5)];
        let due = [1_000, 2_000, 3_000];
        // Rows trickle in: 2 at t=1500, the 3rd at 1900, then 2 at 3400.
        let got = [mark(1_500, 2), mark(1_900, 3), mark(3_400, 5)];
        let (samples, missing) = latencies_us(&expected, &due, &got);
        assert_eq!(samples, vec![0.9, 0.4]);
        assert_eq!(missing, 0);

        let (samples, missing) = latencies_us(&expected, &due, &got[..2]);
        assert_eq!(samples, vec![0.9]);
        assert_eq!(missing, 1);
    }

    #[test]
    fn this_process_has_a_peak_rss_and_no_children() {
        assert!(self_hwm_kb() > 0);
        assert_eq!(children_hwm_kb(), 0);
    }
}
