//! Deployments: the ways a workload's SQL is set up and its stream fed,
//! each through the repository's public API only.
//!
//! * `Via::Session` — `Session` → `Pipeline` (sequential, shard threads, or
//!   `fw-worker` processes, by `Parallelism`);
//! * `Via::Host` — `GroupHost` in this process (several standing queries,
//!   no sockets);
//! * `Via::Serve` — `Server` on 127.0.0.1 with a feeder on `ServeClient`
//!   and a subscriber on its own `TcpStream` + `wire::FrameReader`, which
//!   stamps every frame the moment its read returns.
//!
//! This driver never touches `fw_serve::run_load`: that feeder blocks on its
//! own latency probe (see README.md, "Why not `BENCH_serve.json`").

use crate::gen::mix;
use crate::trace::Recorder;
use crate::workloads::{Deploy, Workload};
use factor_windows::{Parallelism, Pipeline, PlanChoice, Session};
use fw_engine::{ExecStats, WindowResult};
use fw_serve::wire::{Frame, FrameReader, FrameWriter, LagKind};
use fw_serve::{
    GroupHost, HostConfig, MetricsSnapshot, Overflow, ServeClient, ServeConfig, Server,
    ServerHandle,
};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// How to run a workload's queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Via {
    Session(Parallelism),
    Host,
    Serve,
}

/// Everything a set-up needs besides the workload.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub via: Via,
    pub choice: PlanChoice,
    pub element_work: u32,
    /// Compile onto the checkpointable core (`Session::durable`).
    pub durable: bool,
    pub sink: SinkMode,
}

impl Workload {
    /// The deployment the workload is measured on, end to end.
    #[must_use]
    pub fn deployed(&self) -> Via {
        match self.deploy {
            Deploy::InProcess => self.in_process(),
            Deploy::Serve => Via::Serve,
            Deploy::Dist { workers } => Via::Session(Parallelism::Distributed { workers }),
        }
    }

    /// The same queries in this process on one thread: the dry run every
    /// deployment's rows are checked against, and the engine-layer probe.
    #[must_use]
    pub fn in_process(&self) -> Via {
        if self.queries.len() == 1 {
            Via::Session(Parallelism::Sequential)
        } else {
            Via::Host
        }
    }

    /// Options for the measured runs: `PlanChoice::Auto`, element work 0.
    #[must_use]
    pub fn measured(&self, via: Via, sink: SinkMode) -> Options {
        Options {
            via,
            choice: PlanChoice::Auto,
            element_work: 0,
            durable: false,
            sink,
        }
    }
}

/// One sealed row, tagged with the standing query it belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    pub query: u32,
    pub result: WindowResult,
}

/// The consumer's state after some rows: when, how many, and their checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    pub at_ns: u64,
    pub rows: u64,
    pub checksum: u64,
}

/// What the consumer keeps besides the running count and checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkMode {
    Count,
    /// Also a [`Mark`] whenever rows arrive (latency attribution, and the
    /// dry run's per-watermark expectations).
    Marks,
    /// Also the rows themselves (the oracle comparison).
    Rows,
}

/// The consumer of sealed rows. The checksum is a wrapping sum of per-row
/// hashes over every field (`value` by `to_bits`), so it is independent of
/// arrival order and two deployments can be compared without sorting.
#[derive(Debug)]
pub struct Sink {
    mode: SinkMode,
    pub rows: u64,
    pub checksum: u64,
    pub marks: Vec<Mark>,
    pub kept: Vec<Row>,
}

impl Sink {
    #[must_use]
    pub fn new(mode: SinkMode) -> Self {
        Sink {
            mode,
            rows: 0,
            checksum: 0,
            marks: Vec::new(),
            kept: Vec::new(),
        }
    }

    /// Takes delivery of `rows` for standing query `query`.
    pub fn accept(&mut self, query: u32, rows: &[WindowResult]) {
        for r in rows {
            let folded = u64::from(query).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ r.window.range().wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                ^ r.window.slide().wrapping_mul(0x1656_67B1_9E37_79F9)
                ^ r.interval.start.wrapping_mul(0xD6E8_FEB8_6659_FD93)
                ^ r.interval.end.wrapping_mul(0xA076_1D64_78BD_642F)
                ^ (u64::from(r.key) << 32 | u64::from(r.agg)).wrapping_mul(0xE703_7ED1_A0B4_28DB)
                ^ r.value.to_bits().wrapping_mul(0x8EBC_6AF0_9C88_C6E3);
            self.checksum = self.checksum.wrapping_add(mix(folded));
        }
        self.rows += rows.len() as u64;
        if self.mode == SinkMode::Rows {
            self.kept
                .extend(rows.iter().map(|&result| Row { query, result }));
        }
    }

    /// Notes the consumer's state at `at_ns`. In-process drivers call this
    /// after every watermark's poll, so mark `j` is watermark `j`.
    pub fn mark(&mut self, at_ns: u64) {
        if self.mode == SinkMode::Marks {
            self.marks.push(Mark {
                at_ns,
                rows: self.rows,
                checksum: self.checksum,
            });
        }
    }
}

/// Span names of one deployment's calls.
#[derive(Debug)]
pub struct SpanNames {
    pub push: &'static str,
    pub watermark: &'static str,
    pub poll: &'static str,
    pub finish: &'static str,
}

const ENGINE_SPANS: SpanNames = SpanNames {
    push: "engine.push_columns",
    watermark: "engine.advance_watermark",
    poll: "engine.poll_results",
    finish: "engine.finish",
};
const DIST_SPANS: SpanNames = SpanNames {
    push: "dist.push_columns",
    watermark: "dist.advance_watermark",
    poll: "dist.poll_results",
    finish: "dist.finish",
};
const HOST_SPANS: SpanNames = SpanNames {
    push: "serve.host.push_columns",
    watermark: "serve.host.advance_watermark",
    poll: "serve.host.poll_results",
    finish: "serve.host.finish",
};
const SERVE_SPANS: SpanNames = SpanNames {
    push: "serve.push_batch",
    watermark: "serve.watermark",
    poll: "serve.poll",
    finish: "serve.finish",
};

enum Engine {
    Session(Box<Pipeline>),
    Host(Box<GroupHost>),
    Serve(Box<ServeRun>),
}

struct ServeRun {
    handle: ServerHandle,
    feeder: ServeClient,
    /// Write half of the subscriber's connection: the final `Stats` request
    /// goes out here, and its reply is the subscriber's end-of-stream mark.
    control: TcpStream,
    subscriber: JoinHandle<Subscribed>,
}

struct Subscribed {
    sink: Sink,
    recorder: Recorder,
    dropped: u64,
    errors: u64,
    broken: Option<String>,
}

/// A set-up deployment, ready for its first event.
pub struct Running {
    engine: Engine,
    pub names: &'static SpanNames,
    sink: Sink,
    epoch: Instant,
}

/// What a finished run hands back.
pub struct Finished {
    /// When the consumer held the last row (before any teardown).
    pub done_at: Instant,
    pub sink: Sink,
    pub stats: ExecStats,
    /// The server's final metrics (serve only).
    pub serve: Option<MetricsSnapshot>,
    /// Batches shed, rows dropped and operations that errored.
    pub failures: u64,
    /// Spans of the deployment's other threads (the serve subscriber).
    pub spans: Option<Recorder>,
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn parse(rec: &mut Recorder, sql: &str) -> Result<fw_core::WindowQuery, String> {
    rec.span("sql.parse", |_| fw_sql::parse_to_query(sql))
        .map_err(|e| format!("parse: {} (byte {})", e.message, e.offset))
}

/// SQL text → ready for the first event. Every call into a layer is a span
/// on `rec`; `epoch` is the clock marks are stamped against.
pub fn setup(
    w: &Workload,
    o: Options,
    rec: &mut Recorder,
    epoch: Instant,
) -> Result<Running, String> {
    let (engine, names) = match o.via {
        Via::Session(parallelism) => {
            let session = Session::from_query(parse(rec, w.queries[0])?)
                .plan_choice(o.choice)
                .element_work(o.element_work)
                .out_of_order(w.stream.disorder_units)
                .collect_results(true)
                .durable(o.durable)
                .parallelism(parallelism);
            rec.span("core.optimize", |_| session.optimize().map(|_| ()))
                .map_err(text)?;
            let (build, names) = match parallelism {
                Parallelism::Distributed { .. } => ("dist.setup", &DIST_SPANS),
                _ => ("engine.build", &ENGINE_SPANS),
            };
            let pipeline = rec.span(build, |_| session.build()).map_err(text)?;
            (Engine::Session(Box::new(pipeline)), names)
        }
        Via::Host => {
            let mut host = GroupHost::new(host_config(w, o));
            for sql in w.queries {
                let query = parse(rec, sql)?;
                rec.span("serve.host.register", |_| host.register(query))
                    .map_err(text)?;
            }
            (Engine::Host(Box::new(host)), &HOST_SPANS)
        }
        Via::Serve => {
            let config = ServeConfig {
                overflow: Overflow::Block,
                host: host_config(w, o),
                ..ServeConfig::default()
            };
            let server = rec
                .span("serve.bind", |_| Server::bind("127.0.0.1:0", config))
                .map_err(text)?;
            let addr = server.local_addr().map_err(text)?;
            let handle = server.spawn();
            let feeder = rec
                .span("serve.connect", |_| ServeClient::connect(addr))
                .map_err(text)?;
            let (control, reader, frames) =
                rec.span("serve.register", |_| subscribe(addr, w.queries))?;
            let (sink, recorder) = (Sink::new(o.sink), rec.sibling());
            let subscriber =
                std::thread::spawn(move || subscriber_loop(reader, frames, sink, recorder, epoch));
            let run = ServeRun {
                handle,
                feeder,
                control,
                subscriber,
            };
            (Engine::Serve(Box::new(run)), &SERVE_SPANS)
        }
    };
    Ok(Running {
        engine,
        names,
        sink: Sink::new(o.sink),
        epoch,
    })
}

fn host_config(w: &Workload, o: Options) -> HostConfig {
    HostConfig {
        choice: o.choice,
        element_work: o.element_work,
        out_of_order: w.stream.disorder_units,
        parallelism: Parallelism::Sequential,
        ..HostConfig::default()
    }
}

/// Opens the subscriber's own connection and registers every query on it.
/// Query ids are issued from 0 in registration order, so they equal the
/// query's index in the workload, as on [`Via::Host`].
fn subscribe(
    addr: SocketAddr,
    queries: &[&str],
) -> Result<(TcpStream, BufReader<TcpStream>, FrameReader), String> {
    let stream = TcpStream::connect(addr).map_err(text)?;
    stream.set_nodelay(true).map_err(text)?;
    let mut control = stream.try_clone().map_err(text)?;
    let mut reader = BufReader::new(stream);
    let (mut out, mut frames) = (FrameWriter::new(), FrameReader::new());
    out.write(&mut control, &Frame::hello()).map_err(text)?;
    match frames.read(&mut reader).map_err(text)? {
        Frame::HelloAck { .. } => {}
        other => return Err(format!("expected HelloAck, got {other:?}")),
    }
    for (index, sql) in queries.iter().enumerate() {
        let register = Frame::Register {
            sql: (*sql).to_string(),
        };
        out.write(&mut control, &register).map_err(text)?;
        match frames.read(&mut reader).map_err(text)? {
            Frame::Registered { query_id } if query_id as usize == index => {}
            other => return Err(format!("registering query {index}: got {other:?}")),
        }
    }
    Ok((control, reader, frames))
}

/// The subscriber thread: reads frames until the reply to the final `Stats`
/// request, stamping each one as soon as its read returns.
fn subscriber_loop(
    mut reader: BufReader<TcpStream>,
    mut frames: FrameReader,
    mut sink: Sink,
    mut recorder: Recorder,
    epoch: Instant,
) -> Subscribed {
    let (mut dropped, mut errors, mut broken) = (0, 0, None);
    loop {
        recorder.begin("serve.frame_read");
        let raw = frames.read_raw(&mut reader);
        let at_ns = epoch.elapsed().as_nanos() as u64;
        recorder.end();
        match raw.and_then(|(kind, payload)| Frame::decode(kind, payload)) {
            Ok(Frame::Results { query_id, rows }) => {
                recorder.begin("bench.sink");
                sink.accept(query_id, &rows);
                sink.mark(at_ns);
                recorder.end();
            }
            Ok(Frame::Lagging {
                kind: LagKind::ResultsDropped,
                count,
            }) => dropped += count,
            Ok(Frame::Error { .. }) => errors += 1,
            Ok(Frame::StatsJson { .. }) => break,
            Ok(_) => {}
            Err(e) => {
                broken = Some(e.to_string());
                break;
            }
        }
    }
    Subscribed {
        sink,
        recorder,
        dropped,
        errors,
        broken,
    }
}

impl Running {
    /// Pushes one columnar batch.
    pub fn push(&mut self, times: &[u64], keys: &[u32], values: &[f64]) -> Result<(), String> {
        match &mut self.engine {
            Engine::Session(p) => p.push_columns(times, keys, values).map_err(text),
            Engine::Host(h) => h
                .push_columns(times, keys, values)
                .map(|_| ())
                .map_err(text),
            Engine::Serve(s) => s.feeder.push_columns(times, keys, values).map_err(text),
        }
    }

    /// Announces a watermark.
    pub fn watermark(&mut self, mark: u64) -> Result<(), String> {
        match &mut self.engine {
            Engine::Session(p) => p.advance_watermark(mark).map_err(text),
            Engine::Host(h) => h.advance_watermark(mark).map_err(text),
            Engine::Serve(s) => s.feeder.watermark(mark).map_err(text),
        }
    }

    /// Takes delivery of whatever has sealed (the serve subscriber does this
    /// on its own thread, so there it is a no-op).
    pub fn poll(&mut self, rec: &mut Recorder) {
        match &mut self.engine {
            Engine::Session(p) => {
                rec.begin(self.names.poll);
                let rows = p.poll_results();
                rec.end();
                rec.begin("bench.sink");
                self.sink.accept(0, &rows);
            }
            Engine::Host(h) => {
                rec.begin(self.names.poll);
                let rows = h.poll_results();
                rec.end();
                rec.begin("bench.sink");
                for r in &rows {
                    self.sink.accept(r.query.0, std::slice::from_ref(&r.result));
                }
            }
            Engine::Serve(_) => return,
        }
        self.sink.mark(self.epoch.elapsed().as_nanos() as u64);
        rec.end();
    }

    /// `Pipeline::buffered()`: events held back for reordering.
    #[must_use]
    pub fn buffered(&self) -> usize {
        match &self.engine {
            Engine::Session(p) => p.buffered(),
            _ => 0,
        }
    }

    /// `(slots, bytes)` of the key interner.
    #[must_use]
    pub fn interner_stats(&self) -> (u64, u64) {
        match &self.engine {
            Engine::Session(p) => p.interner_stats(),
            Engine::Host(h) => h.interner_stats(),
            Engine::Serve(_) => (0, 0),
        }
    }

    /// Serializes a checkpoint into memory and returns its size.
    pub fn checkpoint(&mut self) -> Result<usize, String> {
        let mut bytes = Vec::new();
        match &mut self.engine {
            Engine::Session(p) => p.checkpoint(&mut bytes).map_err(text)?,
            Engine::Host(h) => h.checkpoint(&mut bytes).map_err(text)?,
            Engine::Serve(_) => return Err("checkpoint probes run in process".into()),
        }
        Ok(bytes.len())
    }

    /// Ends the stream and collects every row still on its way.
    pub fn finish(self) -> Result<Finished, String> {
        let Running {
            engine, mut sink, ..
        } = self;
        match engine {
            Engine::Session(p) => {
                let out = p.finish().map_err(text)?;
                sink.accept(0, &out.results);
                Ok(Finished {
                    done_at: Instant::now(),
                    sink,
                    stats: out.stats,
                    serve: None,
                    failures: 0,
                    spans: None,
                })
            }
            Engine::Host(h) => Ok(Finished {
                done_at: Instant::now(),
                sink,
                stats: h.stats(),
                serve: None,
                failures: 0,
                spans: None,
            }),
            Engine::Serve(run) => {
                let ServeRun {
                    mut handle,
                    mut feeder,
                    mut control,
                    subscriber,
                } = *run;
                // The Finished ack orders after every result the stream
                // seals; the subscriber's Stats reply orders after those
                // results in its FIFO outbox, so it is a clean barrier.
                feeder.finish().map_err(text)?;
                let snapshot = feeder.stats().map_err(text)?;
                FrameWriter::new()
                    .write(&mut control, &Frame::Stats)
                    .map_err(text)?;
                let sub = subscriber
                    .join()
                    .map_err(|_| "subscriber thread panicked".to_string())?;
                let done_at = Instant::now();
                handle.stop();
                if let Some(reason) = sub.broken {
                    return Err(format!("subscriber connection broke: {reason}"));
                }
                let failures = snapshot.batches_shed
                    + snapshot.results_dropped.max(sub.dropped)
                    + snapshot.push_errors
                    + sub.errors;
                Ok(Finished {
                    done_at,
                    sink: sub.sink,
                    stats: ExecStats::default(),
                    serve: Some(snapshot),
                    failures,
                    spans: Some(sub.recorder),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_core::{Interval, Window};

    fn row(key: u32, value: f64) -> WindowResult {
        WindowResult {
            window: Window::tumbling(20).unwrap(),
            interval: Interval::new(0, 20),
            key,
            agg: 0,
            value,
        }
    }

    #[test]
    fn checksum_ignores_order_but_not_bits() {
        let (a, b) = (row(1, 0.25), row(2, 0.5));
        let mut forward = Sink::new(SinkMode::Count);
        forward.accept(0, &[a, b]);
        let mut backward = Sink::new(SinkMode::Count);
        backward.accept(0, &[b]);
        backward.accept(0, &[a]);
        assert_eq!(forward.checksum, backward.checksum);
        assert_eq!(forward.rows, 2);

        let mut flipped = Sink::new(SinkMode::Count);
        flipped.accept(0, &[a, row(2, f64::from_bits(0.5f64.to_bits() ^ 1))]);
        assert_ne!(forward.checksum, flipped.checksum);
        let mut other_query = Sink::new(SinkMode::Count);
        other_query.accept(1, &[a, b]);
        assert_ne!(forward.checksum, other_query.checksum);
    }
}
