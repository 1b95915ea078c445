//! The coordinator half of distributed shard execution: [`DistPipeline`]
//! scatters columnar batches over worker sockets and gathers sealed
//! results back into canonical order.
//!
//! ## Scatter
//!
//! Events are hash-routed with the *same* one-multiply route function as
//! the in-process [`ShardedPipeline`](fw_engine::ShardedPipeline)
//! ([`fw_engine::route_of`]), staged per worker in a recycled
//! [`EventBatch`], and shipped as FWB1 columnar frames once a staging
//! batch reaches [`SCATTER_CHUNK`] events (or at the next barrier). The
//! send path is allocation-free at steady state: frame headers transit
//! one per-connection scratch buffer and the staged columns go to the
//! socket with a vectored write ([`FrameWriter::write_columns`]).
//!
//! ## Gather and merge
//!
//! Each key lives on exactly one worker, so every (window, instance,
//! key) result row is produced exactly once. A worker answers a poll (or
//! `FINISH`) with its rows already in canonical order, as a run of
//! `ROWS` frames of at most [`ROWS_CHUNK_BYTES`](fw_serve::wire::ROWS_CHUNK_BYTES)
//! each. Gathering is a k-way merge over the runs
//! ([`fw_engine::merge_ordered`]) that decodes rows straight out of each
//! connection's frame buffer and reads a worker's next chunk only when
//! its current one runs out: no per-worker row vector, no sort, and at
//! most one chunk per worker in memory. The result is bit-identical
//! (`f64::to_bits`) to the sequential engine after its canonical sort,
//! the same contract the in-process shards pin. A run that goes
//! backwards in canonical order fails the gather loudly.
//!
//! ## Failure semantics
//!
//! Transport failures fail loud and poison the pipeline: the first
//! error (a worker process dying mid-stream, a protocol violation, a
//! reply timeout) is recorded and every subsequent fallible call
//! returns it. Infallible-looking accessors ([`DistPipeline::stats`],
//! [`DistPipeline::poll_results`]) record the failure internally and
//! return empty data; the next fallible call surfaces it. Replies are
//! read under [`REPLY_TIMEOUT`], so a wedged (not dead) worker cannot
//! hang the coordinator, and spawned worker processes are killed on
//! drop, so no zombies outlive their pipeline.

use crate::proto::{self, Setup};
use crate::spawn::WorkerProc;
use fw_core::{QueryPlan, ToJson};
use fw_engine::checkpoint::{CheckpointError, CheckpointResult};
use fw_engine::profile::add_shard_profiles;
use fw_engine::{
    merge_ordered, merge_pipeline_snapshots, partition_pipeline_snapshot, route_of, BackendFactory,
    EngineError, EventBatch, ExecBackend, ExecStats, NodeProfile, OrderedRun, PipelineOptions,
    Result, RunOutput, WindowResult,
};
use fw_serve::wire::{
    decode_result_row, Cursor, FrameReader, FrameWriter, WireError, RESULT_ROW_LEN,
};
use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Events staged per worker before a batch frame is shipped — matches
/// the in-process shards' chunking so per-event scatter cost and
/// downstream batch shapes are comparable.
pub const SCATTER_CHUNK: usize = 1024;

/// How long the coordinator waits for one reply frame before declaring
/// the worker lost. A dead process closes its socket and fails much
/// faster; the timeout bounds the wedged-but-alive case.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Connect timeout per worker.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// One coordinator→worker shard link.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    frames: FrameReader,
    out: FrameWriter,
    staging: EventBatch,
}

impl Conn {
    fn open(addr: SocketAddr, setup: &Setup) -> Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)
            .map_err(|e| EngineError::Distributed(format!("connect {addr}: {e}")))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| EngineError::Distributed(format!("socket setup {addr}: {e}")))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| EngineError::Distributed(format!("socket clone {addr}: {e}")))?,
        );
        let mut conn = Conn {
            writer: stream,
            reader,
            frames: FrameReader::new(),
            out: FrameWriter::new(),
            staging: EventBatch::with_capacity(SCATTER_CHUNK),
        };
        conn.out.stage_with(proto::KIND_HELLO, proto::encode_hello);
        conn.out
            .stage_with(proto::KIND_SETUP, |buf| proto::encode_setup(setup, buf));
        conn.flush_frames()?;
        let hello = conn.expect(proto::KIND_HELLO_ACK)?;
        proto::decode_hello(hello).map_err(wire_err)?;
        conn.expect(proto::KIND_SETUP_ACK)?;
        Ok(conn)
    }

    /// Writes whatever control frames are staged in the scratch buffer.
    fn flush_frames(&mut self) -> Result<()> {
        self.out.flush_to(&mut self.writer).map_err(wire_err)
    }

    /// Ships the staging batch as one vectored columnar frame.
    fn flush_staging(&mut self) -> Result<()> {
        if self.staging.is_empty() {
            return Ok(());
        }
        let (times, keys, values) = self.staging.columns();
        self.out
            .write_columns(&mut self.writer, proto::KIND_BATCH, times, keys, values)
            .map_err(wire_err)?;
        self.staging.clear();
        Ok(())
    }

    /// Reads one reply frame, expecting `expected` (see [`expect_frame`]).
    fn expect(&mut self, expected: u8) -> Result<&[u8]> {
        expect_frame(&mut self.frames, &mut self.reader, expected)
    }

    /// The worker's next reply as a [`RowsRun`] for the merge.
    fn rows(&mut self) -> RowsRun<'_, BufReader<TcpStream>> {
        RowsRun::new(&mut self.frames, &mut self.reader)
    }
}

/// Reads one reply frame, expecting `expected`; a [`proto::KIND_ERR`]
/// frame becomes the worker's reconstructed engine error, anything else a
/// protocol failure.
fn expect_frame<'f, R: Read>(
    frames: &'f mut FrameReader,
    reader: &mut R,
    expected: u8,
) -> Result<&'f [u8]> {
    let (kind, payload) = frames.read_raw(reader).map_err(wire_err)?;
    if kind == proto::KIND_ERR {
        return Err(proto::decode_err(payload).unwrap_or_else(wire_err));
    }
    if kind != expected {
        return Err(EngineError::Distributed(format!(
            "expected reply kind {expected:#04x}, worker sent {kind:#04x}"
        )));
    }
    Ok(payload)
}

/// One worker's reply run of [`proto::KIND_ROWS`] chunks, decoded row by
/// row straight out of the connection's frame buffer as the merge pulls
/// them. The next chunk is read only when the current one runs out, so
/// the coordinator holds at most one chunk per worker.
struct RowsRun<'a, R> {
    frames: &'a mut FrameReader,
    reader: &'a mut R,
    /// Byte offset of the next row in the current chunk's payload.
    at: usize,
    /// Rows left in the current chunk.
    left: usize,
    /// Another chunk follows the current one (true before the first).
    more: bool,
}

impl<'a, R: Read> RowsRun<'a, R> {
    fn new(frames: &'a mut FrameReader, reader: &'a mut R) -> Self {
        RowsRun {
            frames,
            reader,
            at: 0,
            left: 0,
            more: true,
        }
    }
}

impl<R: Read> OrderedRun for RowsRun<'_, R> {
    fn next_row(&mut self) -> Result<Option<WindowResult>> {
        while self.left == 0 {
            if !self.more {
                return Ok(None);
            }
            let payload = expect_frame(self.frames, self.reader, proto::KIND_ROWS)?;
            (self.more, self.left) = proto::decode_rows_header(payload).map_err(wire_err)?;
            self.at = proto::ROWS_HEADER_LEN;
        }
        let mut row = Cursor::new(&self.frames.payload()[self.at..]);
        let row = decode_result_row(&mut row).map_err(wire_err)?;
        self.at += RESULT_ROW_LEN;
        self.left -= 1;
        Ok(Some(row))
    }
}

fn wire_err(e: WireError) -> EngineError {
    match e {
        WireError::Closed => {
            EngineError::Distributed("worker closed the connection mid-stream".into())
        }
        other => EngineError::Distributed(other.to_string()),
    }
}

struct Inner {
    conns: Vec<Conn>,
    /// Locally spawned worker processes (killed on drop). Empty when the
    /// coordinator connected to externally managed workers.
    procs: Vec<WorkerProc>,
    plan_json: String,
    opts: PipelineOptions,
    pushed: u64,
    last_time: u64,
    announced: u64,
    replans: u64,
    failed: Option<EngineError>,
    start: Instant,
}

impl Inner {
    fn check(&self) -> Result<()> {
        match &self.failed {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn fail<T>(&mut self, e: EngineError) -> Result<T> {
        self.failed = Some(e.clone());
        Err(e)
    }

    fn push_columns(&mut self, times: &[u64], keys: &[u32], values: &[f64]) -> Result<()> {
        self.check()?;
        if times.len() != keys.len() || times.len() != values.len() {
            return Err(EngineError::ColumnLengthMismatch {
                times: times.len(),
                keys: keys.len(),
                values: values.len(),
            });
        }
        let shards = self.conns.len();
        for i in 0..times.len() {
            let shard = route_of(keys[i], shards);
            let conn = &mut self.conns[shard];
            conn.staging.push_parts(times[i], keys[i], values[i]);
            if conn.staging.len() >= SCATTER_CHUNK {
                if let Err(e) = conn.flush_staging() {
                    return self.fail(e);
                }
            }
        }
        // The global maximum routed time (not the chunk's last element —
        // input may be jittered within the reorder slack) is the
        // end-of-stream seal horizon every worker is advanced to.
        for &t in times {
            self.last_time = self.last_time.max(t);
        }
        self.pushed += times.len() as u64;
        Ok(())
    }

    /// Ships every staging batch — the write barrier before any control
    /// frame, so batches and watermarks stay ordered per connection.
    fn flush_all(&mut self) -> Result<()> {
        for i in 0..self.conns.len() {
            if let Err(e) = self.conns[i].flush_staging() {
                return self.fail(e);
            }
        }
        Ok(())
    }

    fn advance_watermark(&mut self, watermark: u64) -> Result<()> {
        self.check()?;
        self.flush_all()?;
        for i in 0..self.conns.len() {
            let conn = &mut self.conns[i];
            conn.out.stage_with(proto::KIND_WATERMARK, |buf| {
                buf.extend_from_slice(&watermark.to_le_bytes());
            });
            if let Err(e) = conn.flush_frames() {
                return self.fail(e);
            }
        }
        self.announced = self.announced.max(watermark);
        Ok(())
    }

    fn poll_results(&mut self) -> Result<Vec<WindowResult>> {
        self.check()?;
        self.flush_all()?;
        // Fan the request out before reading any reply: workers order and
        // encode concurrently while the coordinator merges.
        for i in 0..self.conns.len() {
            let conn = &mut self.conns[i];
            conn.out.stage_with(proto::KIND_POLL, |_| {});
            if let Err(e) = conn.flush_frames() {
                return self.fail(e);
            }
        }
        let mut rows = Vec::new();
        match self.gather(&mut rows) {
            Ok(()) => Ok(rows),
            Err(e) => self.fail(e),
        }
    }

    /// Merges one [`proto::KIND_ROWS`] run from every worker into `out`.
    /// Workers write their runs without waiting on the coordinator, so
    /// reading whichever run the merge needs next cannot deadlock.
    fn gather(&mut self, out: &mut Vec<WindowResult>) -> Result<()> {
        let mut runs: Vec<_> = self.conns.iter_mut().map(Conn::rows).collect();
        merge_ordered(&mut runs, out)
    }

    fn rebuild(&mut self, plan: &QueryPlan, watermark: u64) -> Result<()> {
        self.check()?;
        self.flush_all()?;
        let plan_json = plan.to_json();
        for i in 0..self.conns.len() {
            let conn = &mut self.conns[i];
            conn.out.stage_with(proto::KIND_REBUILD, |buf| {
                proto::encode_rebuild(watermark, &plan_json, buf);
            });
            if let Err(e) = conn.flush_frames() {
                return self.fail(e);
            }
        }
        for i in 0..self.conns.len() {
            if let Err(e) = self.conns[i].expect(proto::KIND_REBUILD_ACK).map(|_| ()) {
                return self.fail(e);
            }
        }
        self.plan_json = plan_json;
        self.replans += 1;
        Ok(())
    }

    fn stats_replies(&mut self) -> Result<Vec<proto::StatsReply>> {
        self.check()?;
        self.flush_all()?;
        for i in 0..self.conns.len() {
            let conn = &mut self.conns[i];
            conn.out.stage_with(proto::KIND_STATS, |_| {});
            if let Err(e) = conn.flush_frames() {
                return self.fail(e);
            }
        }
        let mut replies = Vec::with_capacity(self.conns.len());
        for i in 0..self.conns.len() {
            match self.conns[i]
                .expect(proto::KIND_STATS_REPLY)
                .and_then(|payload| proto::decode_stats(payload).map_err(wire_err))
            {
                Ok(reply) => replies.push(reply),
                Err(e) => return self.fail(e),
            }
        }
        Ok(replies)
    }

    fn node_profiles(&mut self) -> Result<Vec<NodeProfile>> {
        self.check()?;
        self.flush_all()?;
        for i in 0..self.conns.len() {
            let conn = &mut self.conns[i];
            conn.out.stage_with(proto::KIND_PROFILES, |_| {});
            if let Err(e) = conn.flush_frames() {
                return self.fail(e);
            }
        }
        let mut merged: Vec<NodeProfile> = Vec::new();
        for i in 0..self.conns.len() {
            match self.conns[i]
                .expect(proto::KIND_PROFILES_REPLY)
                .and_then(|payload| proto::decode_profiles(payload).map_err(wire_err))
            {
                Ok(part) => add_shard_profiles(&mut merged, &part),
                Err(e) => return self.fail(e),
            }
        }
        Ok(merged)
    }

    fn export_snapshot(&mut self) -> Result<Vec<u8>> {
        self.check()?;
        self.flush_all()?;
        for i in 0..self.conns.len() {
            let conn = &mut self.conns[i];
            conn.out.stage_with(proto::KIND_EXPORT, |_| {});
            if let Err(e) = conn.flush_frames() {
                return self.fail(e);
            }
        }
        let mut parts = Vec::with_capacity(self.conns.len());
        for i in 0..self.conns.len() {
            match self.conns[i].expect(proto::KIND_IMAGE).map(<[u8]>::to_vec) {
                Ok(doc) => parts.push(doc),
                Err(e) => return self.fail(e),
            }
        }
        merge_pipeline_snapshots(&parts, self.replans)
            .map_err(|e| EngineError::Distributed(format!("snapshot merge: {e}")))
    }

    fn finish(&mut self) -> Result<RunOutput> {
        self.check()?;
        self.flush_all()?;
        let seal = (self.pushed > 0).then(|| self.last_time + 1);
        for i in 0..self.conns.len() {
            let conn = &mut self.conns[i];
            conn.out
                .stage_with(proto::KIND_FINISH, |buf| proto::encode_finish(seal, buf));
            if let Err(e) = conn.flush_frames() {
                return self.fail(e);
            }
        }
        // Each worker answers with its residual rows' run, then its
        // accounting.
        let mut rows = Vec::new();
        if let Err(e) = self.gather(&mut rows) {
            return self.fail(e);
        }
        let mut events = 0u64;
        let mut emitted = 0u64;
        let mut stats = ExecStats::default();
        for i in 0..self.conns.len() {
            match self.conns[i]
                .expect(proto::KIND_FINISH_REPLY)
                .and_then(|payload| proto::decode_finish_reply(payload).map_err(wire_err))
            {
                Ok(reply) => {
                    events += reply.events_processed;
                    emitted += reply.results_emitted;
                    stats = stats + reply.stats;
                }
                Err(e) => return self.fail(e),
            }
        }
        // Replans are counted once at the façade, not once per shard —
        // the same contract the in-process shards keep.
        stats.replans = self.replans;
        Ok(RunOutput {
            events_processed: events,
            results_emitted: emitted,
            elapsed: self.start.elapsed(),
            results: rows,
            stats,
        })
    }

    fn watermark(&self) -> u64 {
        self.last_time
            .saturating_sub(self.opts.out_of_order)
            .max(self.announced)
    }

    fn buffered(&self) -> usize {
        self.conns.iter().map(|c| c.staging.len()).sum()
    }
}

/// A distributed shard pipeline: the socket-backed sibling of
/// [`fw_engine::ShardedPipeline`]. See the module docs for the scatter,
/// merge, and failure contracts.
pub struct DistPipeline {
    inner: Mutex<Inner>,
    workers: usize,
}

impl std::fmt::Debug for DistPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistPipeline")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl DistPipeline {
    /// Spawns `workers` local worker processes (loopback) and compiles
    /// `plan` on each.
    pub fn compile(
        plan: &QueryPlan,
        opts: PipelineOptions,
        workers: usize,
    ) -> Result<DistPipeline> {
        Self::build(plan, opts, workers, None)
    }

    /// Connects to externally managed workers (one shard per address)
    /// and compiles `plan` on each. The processes are *not* supervised
    /// by this pipeline — failure-injection tests own them.
    pub fn connect(
        plan: &QueryPlan,
        opts: PipelineOptions,
        addrs: &[SocketAddr],
    ) -> Result<DistPipeline> {
        Self::build_at(plan, opts, addrs.to_vec(), Vec::new(), None)
    }

    /// Restores a pipeline from a full checkpoint document produced by
    /// [`DistPipeline::export_snapshot`] (or by any other backend — the
    /// document format is shard-count-free), re-partitioning state
    /// across `workers` fresh worker processes. Elastic rescale: the
    /// worker count may differ from the checkpointing run's.
    pub fn restore(
        plan: &QueryPlan,
        opts: PipelineOptions,
        workers: usize,
        snapshot: &[u8],
    ) -> CheckpointResult<DistPipeline> {
        Self::build(plan, opts, workers, Some(snapshot)).map_err(|e| CheckpointError::Io {
            kind: std::io::ErrorKind::Other,
            message: e.to_string(),
        })
    }

    fn build(
        plan: &QueryPlan,
        opts: PipelineOptions,
        workers: usize,
        snapshot: Option<&[u8]>,
    ) -> Result<DistPipeline> {
        let workers = workers.max(1);
        let mut procs = Vec::with_capacity(workers);
        let mut addrs = Vec::with_capacity(workers);
        for _ in 0..workers {
            let proc = WorkerProc::spawn()
                .map_err(|e| EngineError::Distributed(format!("spawn worker: {e}")))?;
            addrs.push(proc.addr());
            procs.push(proc);
        }
        Self::build_at(plan, opts, addrs, procs, snapshot)
    }

    fn build_at(
        plan: &QueryPlan,
        opts: PipelineOptions,
        addrs: Vec<SocketAddr>,
        procs: Vec<WorkerProc>,
        snapshot: Option<&[u8]>,
    ) -> Result<DistPipeline> {
        assert!(!addrs.is_empty(), "at least one worker address");
        let plan_json = plan.to_json();
        // A restore re-partitions the checkpointed keyed state with the
        // same hash routing the scatter path uses, so every key's panes
        // land on the worker its future events will be routed to.
        let (summary, parts) = match snapshot {
            Some(doc) => {
                let (summary, parts) = partition_pipeline_snapshot(doc, addrs.len())
                    .map_err(|e| EngineError::Distributed(format!("snapshot partition: {e}")))?;
                (Some(summary), Some(parts))
            }
            None => (None, None),
        };
        let mut conns = Vec::with_capacity(addrs.len());
        for (i, &addr) in addrs.iter().enumerate() {
            let setup = Setup {
                opts,
                plan_json: plan_json.clone(),
                snapshot: parts.as_ref().map(|p| p[i].clone()),
            };
            conns.push(Conn::open(addr, &setup)?);
        }
        let inner = Inner {
            conns,
            procs,
            plan_json,
            opts,
            pushed: summary.map_or(0, |s| s.events_pushed),
            last_time: summary.map_or(0, |s| s.last_event_time),
            announced: summary.map_or(0, |s| s.watermark),
            replans: summary.map_or(0, |s| s.replans),
            failed: None,
            start: Instant::now(),
        };
        let workers = inner.conns.len();
        Ok(DistPipeline {
            inner: Mutex::new(inner),
            workers,
        })
    }

    /// Number of worker connections (= shards).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// OS process ids of locally spawned workers (empty for
    /// [`DistPipeline::connect`]); failure-injection hooks.
    #[must_use]
    pub fn worker_pids(&self) -> Vec<u32> {
        self.lock().procs.iter().map(WorkerProc::pid).collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Pushes one event (scatter-staged; see [`SCATTER_CHUNK`]).
    pub fn push(&mut self, event: fw_engine::Event) -> Result<()> {
        self.lock()
            .push_columns(&[event.time], &[event.key], &[event.value])
    }

    /// Pushes a row-oriented batch.
    pub fn push_batch(&mut self, events: &[fw_engine::Event]) -> Result<()> {
        let batch = EventBatch::from_events(events);
        let (times, keys, values) = batch.columns();
        self.lock().push_columns(times, keys, values)
    }

    /// Pushes equal-length columns, scattering per event.
    pub fn push_columns(&mut self, times: &[u64], keys: &[u32], values: &[f64]) -> Result<()> {
        self.lock().push_columns(times, keys, values)
    }

    /// Broadcasts a watermark to every worker (after flushing staged
    /// batches, so order is preserved per shard link).
    pub fn advance_watermark(&mut self, watermark: u64) -> Result<()> {
        self.lock().advance_watermark(watermark)
    }

    /// Drains sealed rows from every worker, merged into canonical
    /// (window, instance, key) order. On transport failure the error is
    /// recorded (surfaced by the next fallible call) and the rows
    /// gathered so far are dropped.
    pub fn poll_results(&mut self) -> Vec<WindowResult> {
        self.lock().poll_results().unwrap_or_default()
    }

    /// Swaps the shared plan on every worker at `watermark` (a replan
    /// barrier). Failure poisons the pipeline.
    pub fn rebuild(&mut self, plan: &QueryPlan, watermark: u64) -> Result<()> {
        self.lock().rebuild(plan, watermark)
    }

    /// Seals every worker at the high-water event time, gathers final
    /// accounting and residual rows, and shuts the links down.
    pub fn finish(self) -> Result<RunOutput> {
        let mut inner = self
            .inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let out = inner.finish();
        // Dropping `inner` closes every socket and kills spawned procs.
        out
    }

    /// Exports a full checkpoint document: barrier-exports every
    /// worker's image and merges them into one shard-count-free
    /// snapshot (restorable at any parallelism).
    pub fn export_snapshot(&mut self) -> Result<Vec<u8>> {
        self.lock().export_snapshot()
    }

    /// Summed worker counters; replans are the façade's count. Records
    /// (rather than returns) transport failures.
    #[must_use]
    pub fn stats(&self) -> ExecStats {
        let mut inner = self.lock();
        let replans = inner.replans;
        match inner.stats_replies() {
            Ok(replies) => {
                let mut stats = replies
                    .iter()
                    .fold(ExecStats::default(), |acc, r| acc + r.stats);
                stats.replans = replans;
                stats
            }
            Err(_) => ExecStats {
                replans,
                ..ExecStats::default()
            },
        }
    }

    /// Summed interner occupancy across workers: `(slots, bytes)`.
    #[must_use]
    pub fn interner_stats(&self) -> (u64, u64) {
        match self.lock().stats_replies() {
            Ok(replies) => replies.iter().fold((0, 0), |(s, b), r| {
                (s + r.interner_slots, b + r.interner_bytes)
            }),
            Err(_) => (0, 0),
        }
    }

    /// Per-node profiles summed across workers (occupancy high-waters
    /// add — shards partition the key space).
    #[must_use]
    pub fn node_profiles(&self) -> Vec<NodeProfile> {
        self.lock().node_profiles().unwrap_or_default()
    }

    /// Results emitted across all workers so far (a synchronizing
    /// barrier; `0` after a recorded transport failure).
    #[must_use]
    pub fn results_emitted(&self) -> u64 {
        match self.lock().stats_replies() {
            Ok(replies) => replies.iter().map(|r| r.results_emitted).sum(),
            Err(_) => 0,
        }
    }

    /// The recorded poisoning failure, if any. Infallible accessors
    /// (polls, stats) record transport errors here instead of returning
    /// them; every subsequent fallible call returns this error.
    #[must_use]
    pub fn failure(&self) -> Option<EngineError> {
        self.lock().failed.clone()
    }

    /// Events accepted by the scatter stage.
    #[must_use]
    pub fn events_pushed(&self) -> u64 {
        self.lock().pushed
    }

    /// The coordinator's watermark: high-water event time minus the
    /// disorder slack, or the last announced watermark if later.
    #[must_use]
    pub fn watermark(&self) -> u64 {
        self.lock().watermark()
    }

    /// Events staged locally, not yet shipped to a worker.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.lock().buffered()
    }
}

impl ExecBackend for DistPipeline {
    fn push_columns(&mut self, times: &[u64], keys: &[u32], values: &[f64]) -> Result<()> {
        self.lock().push_columns(times, keys, values)
    }

    fn advance_watermark(&mut self, watermark: u64) -> Result<()> {
        self.lock().advance_watermark(watermark)
    }

    fn poll_results(&mut self) -> Vec<WindowResult> {
        self.lock().poll_results().unwrap_or_default()
    }

    fn rebuild(&mut self, plan: &QueryPlan, watermark: u64) -> Result<()> {
        self.lock().rebuild(plan, watermark)
    }

    fn finish(self: Box<Self>) -> Result<RunOutput> {
        DistPipeline::finish(*self)
    }

    fn watermark(&self) -> u64 {
        DistPipeline::watermark(self)
    }

    fn stats(&self) -> ExecStats {
        DistPipeline::stats(self)
    }

    fn interner_stats(&self) -> (u64, u64) {
        DistPipeline::interner_stats(self)
    }

    fn node_profiles(&self) -> Vec<NodeProfile> {
        DistPipeline::node_profiles(self)
    }

    fn buffered(&self) -> usize {
        DistPipeline::buffered(self)
    }

    fn events_pushed(&self) -> u64 {
        DistPipeline::events_pushed(self)
    }

    fn results_emitted(&self) -> u64 {
        DistPipeline::results_emitted(self)
    }

    fn shards(&self) -> usize {
        self.workers
    }

    fn export_snapshot(&mut self, _plan: &QueryPlan) -> CheckpointResult<Vec<u8>> {
        self.lock()
            .export_snapshot()
            .map_err(|e| CheckpointError::Io {
                kind: std::io::ErrorKind::Other,
                message: e.to_string(),
            })
    }
}

/// Builds [`DistPipeline`]s for [`fw_engine::GroupExec`]: every route
/// target of the group's shared factored plan resolves to the same set
/// of remote workers, making the route table the multi-tenant unit of
/// distribution.
#[derive(Debug, Clone, Copy)]
pub struct DistFactory {
    /// Worker processes per backend.
    pub workers: usize,
}

impl BackendFactory for DistFactory {
    fn compile(&self, plan: &QueryPlan, opts: PipelineOptions) -> Result<Box<dyn ExecBackend>> {
        Ok(Box::new(DistPipeline::compile(plan, opts, self.workers)?))
    }

    fn restore(
        &self,
        plan: &QueryPlan,
        opts: PipelineOptions,
        snapshot: &[u8],
    ) -> CheckpointResult<Box<dyn ExecBackend>> {
        Ok(Box::new(DistPipeline::restore(
            plan,
            opts,
            self.workers,
            snapshot,
        )?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_core::{Interval, Window};
    use fw_engine::sorted_results;

    fn row(start: u64, key: u32, agg: u32) -> WindowResult {
        WindowResult {
            window: Window::tumbling(10).unwrap(),
            interval: Interval::new(start, start + 10),
            key,
            agg,
            value: f64::from(key) * 0.5 - f64::from(agg),
        }
    }

    /// One worker's reply bytes: `rows` as a run of chunks of `per`
    /// rows (the real encoder, a smaller chunk).
    fn run_bytes(rows: &[WindowResult], per: usize) -> Vec<u8> {
        let order: Vec<u32> = (0..rows.len() as u32).collect();
        let mut out = FrameWriter::new();
        let mut chunks = order.chunks(per.max(1)).peekable();
        loop {
            let chunk = chunks.next().unwrap_or(&[]);
            let more = chunks.peek().is_some();
            out.stage_with(proto::KIND_ROWS, |buf| {
                proto::encode_rows_chunk(rows, chunk, more, buf);
            });
            if !more {
                break;
            }
        }
        let mut wire = Vec::new();
        out.flush_to(&mut wire).unwrap();
        wire
    }

    /// The coordinator's gather over in-memory worker replies.
    fn gather(replies: &[Vec<u8>]) -> Result<Vec<WindowResult>> {
        let mut frames: Vec<FrameReader> = replies.iter().map(|_| FrameReader::new()).collect();
        let mut readers: Vec<&[u8]> = replies.iter().map(Vec::as_slice).collect();
        let mut runs: Vec<_> = frames
            .iter_mut()
            .zip(readers.iter_mut())
            .map(|(f, r)| RowsRun::new(f, r))
            .collect();
        let mut out = Vec::new();
        merge_ordered(&mut runs, &mut out).map(|()| out)
    }

    fn distributed(result: Result<Vec<WindowResult>>) -> String {
        match result {
            Err(EngineError::Distributed(message)) => message,
            other => panic!("expected a distributed error, got {other:?}"),
        }
    }

    #[test]
    fn chunked_runs_merge_into_canonical_order() {
        let a: Vec<_> = (0..50).map(|k| row(k / 10 * 10, 2 * k as u32, 0)).collect();
        let b: Vec<_> = (0..37)
            .map(|k| row(k / 10 * 10, 2 * k as u32 + 1, 0))
            .collect();
        let want = sorted_results([a.clone(), b.clone()].concat());
        for per in [1, 3, 64] {
            let got = gather(&[run_bytes(&a, per), run_bytes(&b, per)]).unwrap();
            assert_eq!(got, want, "{per} rows per chunk");
        }
        assert_eq!(gather(&[run_bytes(&[], 4)]).unwrap(), vec![]);
    }

    #[test]
    fn a_chunk_whose_count_disagrees_with_its_length_is_an_error() {
        let rows = [row(0, 1, 0), row(0, 2, 0)];
        let mut out = FrameWriter::new();
        out.stage_with(proto::KIND_ROWS, |buf| {
            proto::encode_rows_chunk(&rows, &[0, 1], false, buf);
            buf.pop();
        });
        let mut wire = Vec::new();
        out.flush_to(&mut wire).unwrap();
        assert!(distributed(gather(&[wire])).contains("dist rows"));
    }

    #[test]
    fn more_follows_then_eof_is_an_error() {
        let mut wire = run_bytes(&[row(0, 1, 0), row(0, 2, 0)], 1);
        let first = 4 + 1 + proto::ROWS_HEADER_LEN + RESULT_ROW_LEN;
        wire.truncate(first);
        assert!(distributed(gather(&[wire])).contains("closed"));
    }

    #[test]
    fn more_follows_then_another_kind_is_an_error() {
        let mut wire = run_bytes(&[row(0, 1, 0), row(0, 2, 0)], 1);
        let first = 4 + 1 + proto::ROWS_HEADER_LEN + RESULT_ROW_LEN;
        wire.truncate(first);
        let mut out = FrameWriter::new();
        out.stage_with(proto::KIND_STATS_REPLY, |_| {});
        out.flush_to(&mut wire).unwrap();
        assert!(distributed(gather(&[wire])).contains("expected reply kind"));
    }

    #[test]
    fn a_run_out_of_canonical_order_is_an_error() {
        // Backwards inside one chunk, and across a chunk boundary.
        for per in [4, 1] {
            let rows = [row(0, 1, 0), row(0, 3, 0), row(0, 2, 0)];
            let ordered = run_bytes(&[row(0, 0, 0)], 4);
            let message = distributed(gather(&[ordered, run_bytes(&rows, per)]));
            assert!(message.contains("out of canonical order"), "{message}");
        }
    }

    #[test]
    fn a_worker_error_in_place_of_rows_surfaces_as_itself() {
        let mut out = FrameWriter::new();
        out.stage_with(proto::KIND_ERR, |buf| {
            proto::encode_err(
                &EngineError::OutOfOrderEvent {
                    at: 5,
                    watermark: 9,
                },
                buf,
            );
        });
        let mut wire = Vec::new();
        out.flush_to(&mut wire).unwrap();
        assert_eq!(
            gather(&[run_bytes(&[row(0, 1, 0)], 4), wire]),
            Err(EngineError::OutOfOrderEvent {
                at: 5,
                watermark: 9
            })
        );
    }

    #[test]
    fn a_row_with_an_empty_instance_is_an_error_not_a_panic() {
        let mut wire = run_bytes(&[row(0, 1, 0)], 4);
        // The row's interval end (bytes 24..32 of the row) set to its start.
        let end_at = 4 + 1 + proto::ROWS_HEADER_LEN + 24;
        wire[end_at..end_at + 8].copy_from_slice(&0u64.to_le_bytes());
        assert!(distributed(gather(&[wire])).contains("invalid window instance"));
    }
}
