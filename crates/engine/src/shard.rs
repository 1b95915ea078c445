//! Key-partitioned multi-core execution: [`ShardedPipeline`].
//!
//! Per-key window aggregation is embarrassingly partitionable: every pane
//! is a per-key accumulator map, and keys never interact until result
//! emission. The same property production engines exploit for operator
//! parallelism (Trill's `Map`/`Reduce` groupings, Flink's keyed streams)
//! applies here: hash-route events by key across N worker threads, run one
//! [`PlanPipeline`] per worker over its key subset, and the
//! union of the shard outputs is exactly the single-threaded result —
//! byte-identical after canonical ordering, because each key's accumulator
//! folds the same values in the same order it would on one core.
//!
//! Ingestion is batch-granular and **columnar**:
//! [`ShardedPipeline::push_batch`] and [`ShardedPipeline::push_columns`]
//! scatter into per-shard columnar staging buffers ([`EventBatch`],
//! recycled through a pool, so the steady state allocates nothing) and
//! hand each shard one contiguous batch — the per-event cost on the
//! ingest thread is one hash and three scalar copies, with no `Event`
//! struct materialization and no per-event channel send. Workers feed the
//! received columns straight into their pipeline's run-sliced path.
//! Single-event [`ShardedPipeline::push`] calls coalesce into the same
//! staging buffers and flush when a buffer fills (or at any
//! watermark/poll/finish boundary).
//!
//! Watermarks broadcast to every shard; [`ShardedPipeline::finish`] seals
//! all shards at the *global* maximum event time (a shard must seal
//! instances that end after its own last local event) and sums the
//! cost-model accounting ([`ExecStats`]) across shards. Results come back
//! in `(window, instance, key)` order without a sort on the façade: each
//! shard thread orders its own rows ([`crate::CanonicalOrder`]) and the
//! façade k-way merges the runs ([`merge_ordered`]).

use crate::batch::EventBatch;
use crate::checkpoint::{self, CheckpointError, PipelineImage};
use crate::error::{EngineError, Result};
use crate::event::{merge_ordered, sorted_results, Event, WindowResult};
use crate::executor::{ExecStats, PipelineOptions, PlanPipeline, RunOutput};
use crate::group::ExecBackend;
use fw_core::QueryPlan;
use std::num::NonZeroUsize;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How many worker threads a `Session`/pipeline should shard over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Single-threaded in-process execution (the default): no worker
    /// threads, no channels — the exact pre-sharding engine path.
    #[default]
    Sequential,
    /// One worker per available core
    /// ([`std::thread::available_parallelism`]).
    Auto,
    /// Exactly `n` worker threads (clamped to at least 1). `Fixed(1)`
    /// still runs the sharded backend with one worker, which is the
    /// baseline the scaling benchmarks compare against.
    Fixed(usize),
    /// Exactly `workers` *processes* (clamped to at least 1), each fed
    /// routed columnar batches over a socket — the distributed backend
    /// (`fw-dist`). Call sites that cannot distribute (the serve host,
    /// plain [`ShardedPipeline`] construction through
    /// [`Self::shard_count`]) degrade gracefully to `workers` in-process
    /// shard threads; the `factor_windows::Session` façade dispatches on
    /// this variant explicitly before consulting the shard count.
    Distributed {
        /// Worker process count.
        workers: usize,
    },
}

impl Parallelism {
    /// Number of shard workers to spawn; `0` means "run sequentially,
    /// in-process". [`Parallelism::Distributed`] reports its worker count
    /// here so shard-only call sites fall back to equivalent in-process
    /// parallelism instead of silently running sequentially.
    #[must_use]
    pub fn shard_count(self) -> usize {
        match self {
            Parallelism::Sequential => 0,
            Parallelism::Auto => thread::available_parallelism().map_or(1, NonZeroUsize::get),
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Distributed { workers } => workers.max(1),
        }
    }

    /// Maps a numeric CLI/config value: `0` → [`Parallelism::Auto`],
    /// `1` → [`Parallelism::Sequential`], `n` → [`Parallelism::Fixed`].
    #[must_use]
    pub fn from_workers(n: usize) -> Self {
        match n {
            0 => Parallelism::Auto,
            1 => Parallelism::Sequential,
            n => Parallelism::Fixed(n),
        }
    }
}

/// Commands the ingest thread sends to a shard worker. The channel is
/// FIFO, so a `Poll`/`Finish` acts as a barrier: it is processed only
/// after every batch queued before it.
enum Command {
    /// Feed a routed columnar batch; the (cleared) buffer returns via the
    /// recycle channel.
    Batch(EventBatch),
    /// Broadcast watermark announcement.
    Watermark(u64),
    /// Drain collected results, in canonical order, into the reply
    /// channel.
    Poll(mpsc::Sender<Vec<WindowResult>>),
    /// Report `(events_fed, results_emitted, stats)` without disturbing
    /// the stream.
    Stats(mpsc::Sender<(u64, u64, ExecStats)>),
    /// Report the shard's key-interner high-water `(slots, bytes)` (see
    /// [`PlanPipeline::interner_stats`]) without disturbing the stream.
    InternerStats(mpsc::Sender<(u64, u64)>),
    /// Report the shard's per-plan-node profile counters (see
    /// [`PlanPipeline::node_profiles`]) without disturbing the stream.
    NodeProfiles(mpsc::Sender<Vec<crate::profile::NodeProfile>>),
    /// Swap the executing plan in place at a watermark boundary
    /// ([`PlanPipeline::rebuild`]); the reply doubles as the barrier.
    Rebuild {
        plan: Arc<QueryPlan>,
        watermark: u64,
        reply: mpsc::Sender<Result<()>>,
    },
    /// Export the shard's full checkpoint image
    /// ([`PlanPipeline::export_image`]); the pipeline keeps running. The
    /// reply doubles as the barrier.
    Export {
        plan: Arc<QueryPlan>,
        reply: mpsc::Sender<std::result::Result<Box<PipelineImage>, CheckpointError>>,
    },
    /// Seal at the global horizon (if any events flowed), finish, reply
    /// with the shard's accounting and its residual rows in canonical
    /// order, and exit.
    Finish {
        seal: Option<u64>,
        reply: mpsc::Sender<Result<RunOutput>>,
    },
}

/// The shard a key routes to among `shards` workers: Fibonacci
/// multiplicative hash, high bits, multiply-shift range reduction. Shared
/// with the checkpoint re-partitioner (`PipelineImage::partition`) and
/// the distributed coordinator's scatter (`fw-dist`), so routed pane
/// state always lands on the shard live scatter would pick — the property
/// both elastic rescale and coordinator/worker checkpoint agreement rest
/// on.
#[inline]
#[must_use]
pub fn route_of(key: u32, shards: usize) -> usize {
    let h = u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (((h >> 32) * shards as u64) >> 32) as usize
}

/// Per-shard worker loop: owns one compiled [`PlanPipeline`] and drains
/// commands until `Finish`. The first engine error is published to the
/// shared slot and subsequent batches for this shard are dropped (the
/// façade reports the error on its next call; other shards keep their
/// successfully-fed prefix, mirroring the single-threaded mid-batch-error
/// accounting).
fn worker(
    mut pipeline: PlanPipeline,
    commands: Receiver<Command>,
    recycle: mpsc::Sender<EventBatch>,
    error: Arc<Mutex<Option<EngineError>>>,
) {
    let mut failed = false;
    let publish = |e: EngineError| {
        error
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get_or_insert(e);
    };
    while let Ok(command) = commands.recv() {
        match command {
            Command::Batch(mut batch) => {
                if !failed {
                    let (times, keys, values) = batch.columns();
                    if let Err(e) = pipeline.push_columns(times, keys, values) {
                        failed = true;
                        publish(e);
                    }
                }
                batch.clear();
                let _ = recycle.send(batch);
            }
            Command::Watermark(watermark) => {
                if !failed {
                    if let Err(e) = pipeline.advance_watermark(watermark) {
                        failed = true;
                        publish(e);
                    }
                }
            }
            Command::Poll(reply) => {
                let _ = reply.send(sorted_results(pipeline.poll_results()));
            }
            Command::Stats(reply) => {
                let _ = reply.send((
                    pipeline.events_processed(),
                    pipeline.results_emitted(),
                    pipeline.stats(),
                ));
            }
            Command::InternerStats(reply) => {
                let _ = reply.send(pipeline.interner_stats());
            }
            Command::NodeProfiles(reply) => {
                let _ = reply.send(pipeline.node_profiles());
            }
            Command::Rebuild {
                plan,
                watermark,
                reply,
            } => {
                // A rejected plan leaves the pipeline untouched
                // (`PlanPipeline::rebuild` compiles before exporting), so
                // the worker stays healthy and only reports the error —
                // the façade decides whether the swap failed uniformly
                // (recoverable) or split the shards (poisoned).
                let result = if failed {
                    Ok(()) // the original error is already published
                } else {
                    pipeline.rebuild(&plan, watermark)
                };
                let _ = reply.send(result);
            }
            Command::Export { plan, reply } => {
                // Export either fails before touching the pipeline (plan
                // rejection) or succeeds and leaves it running, so no
                // poisoning is needed on failure.
                let result = if failed {
                    let e = error
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .clone()
                        .unwrap_or(EngineError::InvalidPlan(
                            "shard worker previously failed".to_string(),
                        ));
                    Err(CheckpointError::Engine(e))
                } else {
                    pipeline.export_image(&plan).map(Box::new)
                };
                let _ = reply.send(result);
            }
            Command::Finish { seal, reply } => {
                if !failed {
                    if let Some(seal) = seal {
                        if let Err(e) = pipeline.advance_watermark(seal) {
                            publish(e);
                        }
                    }
                }
                let _ = reply.send(pipeline.finish().map(|mut out| {
                    out.results = sorted_results(out.results);
                    out
                }));
                return;
            }
        }
    }
}

/// Merges the shards' canonically ordered runs (see [`merge_ordered`]).
fn merge_runs(runs: Vec<Vec<WindowResult>>) -> Vec<WindowResult> {
    let mut out = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    let mut runs: Vec<_> = runs.into_iter().map(Vec::into_iter).collect();
    merge_ordered(&mut runs, &mut out).expect("shard runs are in canonical order by construction");
    out
}

struct WorkerHandle {
    commands: SyncSender<Command>,
    /// Taken exactly once: by `finish` on the clean path, or by
    /// [`WorkerHandle::died`] to harvest a panic payload.
    thread: Option<JoinHandle<()>>,
}

impl WorkerHandle {
    /// The worker hung up before `Finish` — it can only have panicked.
    /// Join it and re-raise the original panic so the real diagnostic is
    /// not masked behind a generic channel error.
    fn died(&mut self) -> ! {
        if let Some(thread) = self.thread.take() {
            if let Err(panic) = thread.join() {
                std::panic::resume_unwind(panic);
            }
        }
        panic!("shard worker terminated unexpectedly");
    }
}

/// Bounded command-queue depth per shard: enough to keep workers busy
/// while the ingest thread scatters the next batch, small enough that
/// backpressure reaches the producer quickly.
const COMMAND_QUEUE: usize = 8;

/// Default flush threshold (events per shard) for coalesced single-event
/// pushes.
const DEFAULT_CHUNK: usize = 1024;

/// A key-partitioned, multi-threaded execution pipeline: the drop-in
/// parallel counterpart of [`PlanPipeline`].
///
/// Results are exactly those of the single-threaded pipeline after
/// canonical `(window, instance, key)` ordering; [`Self::poll_results`]
/// and [`Self::finish`] return them already in that order.
///
/// Two semantic differences from the single-threaded pipeline, both
/// consequences of asynchrony, are worth knowing:
///
/// * **Deferred errors.** Feeding happens on worker threads, so an
///   out-of-order event surfaces on a *later* façade call (the next
///   `push`/`push_batch`/`advance_watermark`/`finish`), not the one that
///   routed it. The failing shard keeps its successfully-fed prefix.
/// * **Wall-clock accounting.** [`RunOutput::elapsed`] is the wall time
///   from first ingestion to the end of [`Self::finish`] — the meaningful
///   throughput denominator for multi-core execution — not the sum of
///   per-shard processing times.
///
/// ```
/// use fw_core::prelude::*;
/// use fw_engine::{Event, PipelineOptions, ShardedPipeline};
///
/// let windows = WindowSet::new(vec![Window::tumbling(10)?])?;
/// let query = WindowQuery::new(windows, AggregateFunction::Sum);
/// let plan = fw_core::rewrite::original_plan(&query);
///
/// let events: Vec<Event> = (0..100u64)
///     .map(|t| Event::new(t, (t % 8) as u32, 1.0))
///     .collect();
/// let out = ShardedPipeline::run(&plan, &events, PipelineOptions::collecting(), 4).unwrap();
/// assert_eq!(out.events_processed, 100);
/// assert_eq!(out.results.len(), 10 * 8); // 10 sealed instances × 8 keys
/// # Ok::<(), fw_core::Error>(())
/// ```
pub struct ShardedPipeline {
    workers: Vec<WorkerHandle>,
    /// Per-shard columnar staging buffers the ingest thread scatters
    /// into (no `Event` materialization on the ingest path).
    scatter: Vec<EventBatch>,
    /// Recycled batch buffers (refilled from `recycle`).
    pool: Vec<EventBatch>,
    /// Cleared buffers returning from the workers.
    recycle: Receiver<EventBatch>,
    /// First engine error any shard hit (reported on the next façade call).
    error: Arc<Mutex<Option<EngineError>>>,
    /// Flush threshold for coalesced single-event pushes.
    chunk: usize,
    /// The session's out-of-order tolerance (mirrors each worker's
    /// reorder slack); [`Self::watermark`] lags by it so the accessor
    /// means the same thing on both backends.
    slack: u64,
    /// Events routed so far (including scatter-buffered and in-flight).
    pushed: u64,
    /// Global maximum event time routed — the end-of-stream seal horizon.
    last_time: u64,
    /// Maximum explicitly announced watermark.
    announced: u64,
    /// Live plan swaps performed (each one rebuilds every shard once; the
    /// merged [`ExecStats::replans`] reports this façade-level count, not
    /// the per-shard sum).
    replans: u64,
    /// Wall clock started at first ingestion.
    started: Option<Instant>,
}

impl std::fmt::Debug for ShardedPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedPipeline")
            .field("shards", &self.workers.len())
            .field("pushed", &self.pushed)
            .field("watermark", &self.watermark())
            .finish_non_exhaustive()
    }
}

impl ShardedPipeline {
    /// Compiles `plan` once per shard and spawns the worker threads.
    /// `shards` is clamped to at least 1.
    pub fn compile(plan: &QueryPlan, opts: PipelineOptions, shards: usize) -> Result<Self> {
        let pipelines = (0..shards.max(1))
            .map(|_| PlanPipeline::compile(plan, opts))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self::from_pipelines(pipelines, opts))
    }

    /// Spawns the worker threads around pre-built per-shard pipelines
    /// (freshly compiled or restored from a checkpoint).
    fn from_pipelines(pipelines: Vec<PlanPipeline>, opts: PipelineOptions) -> Self {
        let shards = pipelines.len();
        let error = Arc::new(Mutex::new(None));
        let (recycle_tx, recycle_rx) = mpsc::channel();
        let mut workers = Vec::with_capacity(shards);
        for (shard, pipeline) in pipelines.into_iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel(COMMAND_QUEUE);
            let recycle = recycle_tx.clone();
            let error = Arc::clone(&error);
            let thread = thread::Builder::new()
                .name(format!("fw-shard-{shard}"))
                .spawn(move || worker(pipeline, rx, recycle, error))
                .expect("spawn shard worker thread");
            workers.push(WorkerHandle {
                commands: tx,
                thread: Some(thread),
            });
        }
        ShardedPipeline {
            scatter: (0..shards).map(|_| EventBatch::new()).collect(),
            pool: Vec::new(),
            recycle: recycle_rx,
            error,
            chunk: DEFAULT_CHUNK,
            slack: opts.out_of_order,
            pushed: 0,
            last_time: 0,
            announced: 0,
            replans: 0,
            started: None,
            workers,
        }
    }

    /// Writes a durable checkpoint of the whole sharded pipeline to `w`.
    /// The per-shard images are merged into one shard-count-free global
    /// image — the same on-disk format as [`PlanPipeline::checkpoint`] —
    /// so a snapshot taken at N shards restores into any M (including
    /// `PlanPipeline::restore` for M = sequential). The pipeline keeps
    /// running afterwards (checkpoint-and-continue); the call is a
    /// barrier covering every event routed before it.
    pub fn checkpoint<W: std::io::Write + ?Sized>(
        &mut self,
        plan: &QueryPlan,
        w: &mut W,
    ) -> std::result::Result<(), CheckpointError> {
        let image = self.export_merged_image(plan)?;
        checkpoint::write_header(w, checkpoint::KIND_PIPELINE)?;
        image.encode(w)
    }

    /// Exports every shard's image and merges them (min watermark, max
    /// event-time horizon, disjoint key union). `plan` must be the plan
    /// the shards are executing.
    pub(crate) fn export_merged_image(
        &mut self,
        plan: &QueryPlan,
    ) -> std::result::Result<PipelineImage, CheckpointError> {
        self.check_error().map_err(CheckpointError::Engine)?;
        self.flush_all();
        let plan = Arc::new(plan.clone());
        let replies: Vec<_> = (0..self.workers.len())
            .map(|shard| {
                let (tx, rx) = mpsc::channel();
                self.send(
                    shard,
                    Command::Export {
                        plan: Arc::clone(&plan),
                        reply: tx,
                    },
                );
                rx
            })
            .collect();
        let mut parts = Vec::with_capacity(replies.len());
        let mut first_error: Option<CheckpointError> = None;
        for (shard, rx) in replies.into_iter().enumerate() {
            match rx.recv() {
                Ok(Ok(image)) => parts.push(*image),
                Ok(Err(e)) => {
                    first_error.get_or_insert(e);
                }
                Err(_) => self.workers[shard].died(),
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        PipelineImage::merge(parts, self.replans)
    }

    /// Restores a sharded pipeline from a checkpoint written by
    /// [`Self::checkpoint`] or [`PlanPipeline::checkpoint`], re-hashing
    /// the pane state across `shards` workers (elastic rescale: the
    /// snapshot's shard count is irrelevant). Replaying the event stream
    /// from the snapshot's cursor ([`Self::events_pushed`] after restore)
    /// yields results bit-identical to an uninterrupted run.
    pub fn restore<R: std::io::Read + ?Sized>(
        plan: &QueryPlan,
        opts: PipelineOptions,
        shards: usize,
        r: &mut R,
    ) -> std::result::Result<Self, CheckpointError> {
        let version = checkpoint::read_header(r, checkpoint::KIND_PIPELINE)?;
        let image = PipelineImage::decode(r, version)?;
        Self::restore_image(plan, opts, shards, image)
    }

    /// Builds a running sharded pipeline from a decoded global image.
    pub(crate) fn restore_image(
        plan: &QueryPlan,
        opts: PipelineOptions,
        shards: usize,
        image: PipelineImage,
    ) -> std::result::Result<Self, CheckpointError> {
        let shards = shards.max(1);
        let pushed = image.events_pushed();
        let last_time = image.last_event_time;
        let announced = image.watermark;
        let replans = image.stats.replans;
        let mut pipelines = Vec::with_capacity(shards);
        for part in image.partition(shards) {
            pipelines.push(PlanPipeline::restore_image(plan, opts, part)?);
        }
        let mut pipeline = Self::from_pipelines(pipelines, opts);
        pipeline.pushed = pushed;
        pipeline.last_time = last_time;
        pipeline.announced = announced;
        pipeline.replans = replans;
        Ok(pipeline)
    }

    /// Compiles, feeds a whole batch, finishes — the parallel counterpart
    /// of [`PlanPipeline::run`].
    pub fn run(
        plan: &QueryPlan,
        events: &[Event],
        opts: PipelineOptions,
        shards: usize,
    ) -> Result<RunOutput> {
        let mut pipeline = ShardedPipeline::compile(plan, opts, shards)?;
        pipeline.push_batch(events)?;
        pipeline.finish()
    }

    /// Number of shard workers.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// The shard a key routes to (see [`route_of`]).
    #[inline]
    fn shard_of(&self, key: u32) -> usize {
        route_of(key, self.workers.len())
    }

    fn start_clock(&mut self) {
        if self.started.is_none() {
            self.started = Some(Instant::now());
        }
    }

    /// Returns (and clears, for `finish`) the first deferred shard error.
    fn check_error(&self) -> Result<()> {
        let slot = self
            .error
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        slot.clone().map_or(Ok(()), Err)
    }

    /// A cleared buffer: recycled from the workers if one returned,
    /// otherwise freshly allocated (start-up only, in the steady state the
    /// pool covers every flush).
    fn spare_buffer(&mut self) -> EventBatch {
        while let Ok(buffer) = self.recycle.try_recv() {
            self.pool.push(buffer);
        }
        self.pool
            .pop()
            .unwrap_or_else(|| EventBatch::with_capacity(self.chunk.max(64)))
    }

    /// Sends a command to shard `shard` (blocking on backpressure),
    /// converting a hung-up worker into its original panic.
    fn send(&mut self, shard: usize, command: Command) {
        if self.workers[shard].commands.send(command).is_err() {
            self.workers[shard].died();
        }
    }

    /// Hands shard `shard` its staged buffer (blocking on backpressure).
    fn flush_shard(&mut self, shard: usize) {
        if self.scatter[shard].is_empty() {
            return;
        }
        let replacement = self.spare_buffer();
        let batch = std::mem::replace(&mut self.scatter[shard], replacement);
        self.send(shard, Command::Batch(batch));
    }

    fn flush_all(&mut self) {
        for shard in 0..self.workers.len() {
            self.flush_shard(shard);
        }
    }

    /// Routes one event. Coalesces into the shard's columnar staging
    /// buffer and flushes when the buffer fills; any watermark, poll, or
    /// finish also flushes, so coalescing never withholds a result past a
    /// barrier.
    pub fn push(&mut self, event: Event) -> Result<()> {
        self.check_error()?;
        self.start_clock();
        let shard = self.shard_of(event.key);
        self.scatter[shard].push_parts(event.time, event.key, event.value);
        self.pushed += 1;
        self.last_time = self.last_time.max(event.time);
        if self.scatter[shard].len() >= self.chunk {
            self.flush_shard(shard);
        }
        Ok(())
    }

    /// Scatters a row-oriented batch by key into the per-shard column
    /// buffers — the per-event ingest cost is one hash and three scalar
    /// copies, not a channel send. A shard's buffer is handed off as soon
    /// as it fills (and at the end of the batch), so workers overlap with
    /// the remaining scatter instead of idling until the whole batch is
    /// routed.
    pub fn push_batch(&mut self, events: &[Event]) -> Result<()> {
        self.check_error()?;
        self.start_clock();
        for &event in events {
            let shard = self.shard_of(event.key);
            self.scatter[shard].push_parts(event.time, event.key, event.value);
            self.last_time = self.last_time.max(event.time);
            if self.scatter[shard].len() >= self.chunk {
                self.flush_shard(shard);
            }
        }
        self.pushed += events.len() as u64;
        self.flush_all();
        Ok(())
    }

    /// Scatters a columnar batch by key — the sharded counterpart of
    /// [`PlanPipeline::push_columns`]. Column-to-column copies: no
    /// `Event` structs exist anywhere on the path from the caller's
    /// columns to the workers' pane folds.
    pub fn push_columns(&mut self, times: &[u64], keys: &[u32], values: &[f64]) -> Result<()> {
        if times.len() != keys.len() || times.len() != values.len() {
            return Err(EngineError::ColumnLengthMismatch {
                times: times.len(),
                keys: keys.len(),
                values: values.len(),
            });
        }
        self.check_error()?;
        self.start_clock();
        for i in 0..times.len() {
            let shard = self.shard_of(keys[i]);
            self.scatter[shard].push_parts(times[i], keys[i], values[i]);
            self.last_time = self.last_time.max(times[i]);
            if self.scatter[shard].len() >= self.chunk {
                self.flush_shard(shard);
            }
        }
        self.pushed += times.len() as u64;
        self.flush_all();
        Ok(())
    }

    /// Swaps the executing plan in place on every shard at a watermark
    /// boundary (see [`PlanPipeline::rebuild`]). State migration is
    /// shard-local — keys never move between shards, so each worker
    /// exports and re-adopts exactly its own key subset. The call is a
    /// barrier: it returns once every shard has swapped (or the first
    /// shard error once one fails).
    pub fn rebuild(&mut self, plan: &QueryPlan, watermark: u64) -> Result<()> {
        self.check_error()?;
        self.flush_all();
        self.announced = self.announced.max(watermark);
        let plan = Arc::new(plan.clone());
        let replies: Vec<mpsc::Receiver<Result<()>>> = (0..self.workers.len())
            .map(|shard| {
                let (tx, rx) = mpsc::channel();
                self.send(
                    shard,
                    Command::Rebuild {
                        plan: Arc::clone(&plan),
                        watermark,
                        reply: tx,
                    },
                );
                rx
            })
            .collect();
        let mut first_error = None;
        let mut swapped = 0usize;
        for (shard, rx) in replies.into_iter().enumerate() {
            match rx.recv() {
                Ok(Ok(())) => swapped += 1,
                Ok(Err(e)) => {
                    first_error.get_or_insert(e);
                }
                Err(_) => self.workers[shard].died(),
            }
        }
        match first_error {
            None => {
                self.replans += 1;
                Ok(())
            }
            Some(e) => {
                if swapped > 0 {
                    // Some shards swapped, others refused: the shards now
                    // run different plans — poison the pipeline so the
                    // divergence cannot produce silently wrong results.
                    // (A uniform rejection — e.g. an invalid plan, which
                    // fails identically everywhere — leaves every shard's
                    // state untouched and the pipeline stays usable.)
                    self.error
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .get_or_insert(e.clone());
                }
                Err(e)
            }
        }
    }

    /// Broadcasts the watermark to every shard: flushes staged events
    /// first, then seals every instance ending at or before `watermark`
    /// shard-locally.
    pub fn advance_watermark(&mut self, watermark: u64) -> Result<()> {
        self.check_error()?;
        self.start_clock();
        self.flush_all();
        self.announced = self.announced.max(watermark);
        for shard in 0..self.workers.len() {
            self.send(shard, Command::Watermark(watermark));
        }
        Ok(())
    }

    /// Drains the results every shard collected so far, merged into
    /// canonical `(window, instance, key)` order. This is a barrier: every
    /// event routed before the call is fed before the shards reply.
    /// Always empty when compiled without `collect`.
    pub fn poll_results(&mut self) -> Vec<WindowResult> {
        self.flush_all();
        let replies: Vec<mpsc::Receiver<Vec<WindowResult>>> = (0..self.workers.len())
            .map(|shard| {
                let (tx, rx) = mpsc::channel();
                self.send(shard, Command::Poll(tx));
                rx
            })
            .collect();
        let mut runs = Vec::with_capacity(replies.len());
        for (shard, rx) in replies.into_iter().enumerate() {
            match rx.recv() {
                Ok(results) => runs.push(results),
                Err(_) => self.workers[shard].died(),
            }
        }
        merge_runs(runs)
    }

    /// Ends the stream: every shard seals at the global horizon
    /// (`max event time + 1`, so instances ending after a shard's *local*
    /// last event still seal), workers exit and are joined, and the
    /// per-shard accounting is merged — events and cost-model elements
    /// summed, results canonically ordered, elapsed measured on the wall
    /// clock from first ingestion.
    pub fn finish(mut self) -> Result<RunOutput> {
        self.flush_all();
        let seal = (self.pushed > 0).then(|| self.last_time + 1);
        let replies: Vec<mpsc::Receiver<Result<RunOutput>>> = (0..self.workers.len())
            .map(|shard| {
                let (tx, rx) = mpsc::channel();
                self.send(shard, Command::Finish { seal, reply: tx });
                rx
            })
            .collect();

        let mut merged = RunOutput {
            events_processed: 0,
            results_emitted: 0,
            elapsed: Duration::ZERO,
            results: Vec::new(),
            stats: ExecStats::default(),
        };
        let mut shard_error = None;
        let mut runs = Vec::with_capacity(replies.len());
        for (shard, rx) in replies.into_iter().enumerate() {
            match rx.recv() {
                Ok(Ok(out)) => {
                    merged.events_processed += out.events_processed;
                    merged.results_emitted += out.results_emitted;
                    merged.stats.updates += out.stats.updates;
                    merged.stats.combines += out.stats.combines;
                    merged.stats.agg_ops += out.stats.agg_ops;
                    runs.push(out.results);
                }
                Ok(Err(e)) => {
                    shard_error.get_or_insert(e);
                }
                Err(_) => self.workers[shard].died(),
            }
        }
        for mut worker in self.workers.drain(..) {
            if let Some(thread) = worker.thread.take() {
                if let Err(panic) = thread.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        }
        // Every shard rebuilds once per swap; report the façade count, not
        // the per-shard sum.
        merged.stats.replans = self.replans;
        merged.elapsed = self.started.map_or(Duration::ZERO, |s| s.elapsed());
        self.check_error()?;
        if let Some(e) = shard_error {
            return Err(e);
        }
        merged.results = merge_runs(runs);
        Ok(merged)
    }

    /// A synchronizing snapshot of the summed shard accounting:
    /// `(events_fed, results_emitted, stats)`. Events still staged or
    /// in flight are not yet counted.
    ///
    /// Shared-reference barrier: a dead worker panics with a generic
    /// message here (its own panic payload has already been reported on
    /// its thread); the mutable entry points re-raise the original
    /// payload.
    #[must_use]
    pub fn snapshot(&self) -> (u64, u64, ExecStats) {
        let replies: Vec<mpsc::Receiver<(u64, u64, ExecStats)>> = self
            .workers
            .iter()
            .map(|worker| {
                let (tx, rx) = mpsc::channel();
                worker
                    .commands
                    .send(Command::Stats(tx))
                    .expect("shard worker terminated unexpectedly");
                rx
            })
            .collect();
        let mut total = (0u64, 0u64, ExecStats::default());
        for rx in replies {
            let (events, results, stats) = rx.recv().expect("shard worker terminated unexpectedly");
            total.0 += events;
            total.1 += results;
            total.2.updates += stats.updates;
            total.2.combines += stats.combines;
            total.2.agg_ops += stats.agg_ops;
        }
        total.2.replans = self.replans;
        total
    }

    /// A synchronizing snapshot of the summed per-shard key-interner
    /// high-water marks, `(slots, bytes)` — each shard owns a disjoint
    /// key partition, so the sum is the plan's distinct-key footprint
    /// (see [`PlanPipeline::interner_stats`]).
    #[must_use]
    pub fn interner_stats(&self) -> (u64, u64) {
        let replies: Vec<mpsc::Receiver<(u64, u64)>> = self
            .workers
            .iter()
            .map(|worker| {
                let (tx, rx) = mpsc::channel();
                worker
                    .commands
                    .send(Command::InternerStats(tx))
                    .expect("shard worker terminated unexpectedly");
                rx
            })
            .collect();
        let mut total = (0u64, 0u64);
        for rx in replies {
            let (slots, bytes) = rx.recv().expect("shard worker terminated unexpectedly");
            total.0 += slots;
            total.1 += bytes;
        }
        total
    }

    /// A synchronizing snapshot of the summed per-shard plan-node
    /// profiles (see [`PlanPipeline::node_profiles`]): additive counters
    /// sum across shards, and occupancy high-waters *add* because each
    /// shard owns a disjoint key partition. Empty when the pipeline was
    /// compiled with profiling off.
    #[must_use]
    pub fn node_profiles(&self) -> Vec<crate::profile::NodeProfile> {
        let replies: Vec<mpsc::Receiver<Vec<crate::profile::NodeProfile>>> = self
            .workers
            .iter()
            .map(|worker| {
                let (tx, rx) = mpsc::channel();
                worker
                    .commands
                    .send(Command::NodeProfiles(tx))
                    .expect("shard worker terminated unexpectedly");
                rx
            })
            .collect();
        let mut total = Vec::new();
        for rx in replies {
            let shard = rx.recv().expect("shard worker terminated unexpectedly");
            crate::profile::add_shard_profiles(&mut total, &shard);
        }
        total
    }

    /// Events routed so far (including staged and in-flight ones; the
    /// exact fed count is in [`Self::finish`]'s output or
    /// [`Self::snapshot`]).
    #[must_use]
    pub fn events_pushed(&self) -> u64 {
        self.pushed
    }

    /// The global ordering watermark, with the same meaning as
    /// [`PlanPipeline::watermark`]: the maximum routed event time *lagged
    /// by the out-of-order tolerance* (events inside the slack window may
    /// still be reordered, exactly as events held in the single-threaded
    /// reorder buffer are not yet ordered), or the announced watermark if
    /// greater. In particular, `advance_watermark(watermark())` is always
    /// safe on both backends under the same disorder bound.
    #[must_use]
    pub fn watermark(&self) -> u64 {
        self.last_time
            .saturating_sub(self.slack)
            .max(self.announced)
    }

    /// Events currently staged in the ingest-side scatter buffers (events
    /// held by per-shard reorder buffers are not visible here).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.scatter.iter().map(EventBatch::len).sum()
    }
}

impl ExecBackend for ShardedPipeline {
    fn push(&mut self, event: Event) -> Result<()> {
        ShardedPipeline::push(self, event)
    }

    fn push_batch(&mut self, events: &[Event]) -> Result<()> {
        ShardedPipeline::push_batch(self, events)
    }

    fn push_columns(&mut self, times: &[u64], keys: &[u32], values: &[f64]) -> Result<()> {
        ShardedPipeline::push_columns(self, times, keys, values)
    }

    fn advance_watermark(&mut self, watermark: u64) -> Result<()> {
        ShardedPipeline::advance_watermark(self, watermark)
    }

    fn poll_results(&mut self) -> Vec<WindowResult> {
        ShardedPipeline::poll_results(self)
    }

    fn rebuild(&mut self, plan: &QueryPlan, watermark: u64) -> Result<()> {
        ShardedPipeline::rebuild(self, plan, watermark)
    }

    fn finish(self: Box<Self>) -> Result<RunOutput> {
        ShardedPipeline::finish(*self)
    }

    fn watermark(&self) -> u64 {
        ShardedPipeline::watermark(self)
    }

    fn events_pushed(&self) -> u64 {
        ShardedPipeline::events_pushed(self)
    }

    fn results_emitted(&self) -> u64 {
        self.snapshot().1
    }

    fn stats(&self) -> ExecStats {
        self.snapshot().2
    }

    fn interner_stats(&self) -> (u64, u64) {
        ShardedPipeline::interner_stats(self)
    }

    fn node_profiles(&self) -> Vec<crate::profile::NodeProfile> {
        ShardedPipeline::node_profiles(self)
    }

    fn buffered(&self) -> usize {
        ShardedPipeline::buffered(self)
    }

    fn shards(&self) -> usize {
        ShardedPipeline::shards(self)
    }

    fn export_snapshot(&mut self, plan: &QueryPlan) -> checkpoint::CheckpointResult<Vec<u8>> {
        checkpoint::encode_pipeline_doc(&self.export_merged_image(plan)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_core::{AggregateFunction, Optimizer, Window, WindowQuery, WindowSet};

    fn demo_plan(function: AggregateFunction) -> QueryPlan {
        let windows = WindowSet::new(vec![
            Window::tumbling(20).unwrap(),
            Window::tumbling(30).unwrap(),
            Window::tumbling(40).unwrap(),
        ])
        .unwrap();
        let query = WindowQuery::new(windows, function);
        Optimizer::default().optimize(&query).unwrap().factored.plan
    }

    fn events(n: u64, keys: u32) -> Vec<Event> {
        (0..n)
            .map(|t| Event::new(t, (t % u64::from(keys)) as u32, ((t * 7) % 23) as f64))
            .collect()
    }

    fn fast_opts() -> PipelineOptions {
        PipelineOptions {
            collect: true,
            element_work: 0,
            out_of_order: 0,
            profile: Default::default(),
        }
    }

    #[test]
    fn parallelism_maps_to_shard_counts() {
        assert_eq!(Parallelism::Sequential.shard_count(), 0);
        assert_eq!(Parallelism::Fixed(4).shard_count(), 4);
        assert_eq!(Parallelism::Fixed(0).shard_count(), 1);
        assert!(Parallelism::Auto.shard_count() >= 1);
        assert_eq!(Parallelism::Distributed { workers: 3 }.shard_count(), 3);
        assert_eq!(Parallelism::Distributed { workers: 0 }.shard_count(), 1);
        assert_eq!(Parallelism::from_workers(0), Parallelism::Auto);
        assert_eq!(Parallelism::from_workers(1), Parallelism::Sequential);
        assert_eq!(Parallelism::from_workers(6), Parallelism::Fixed(6));
    }

    #[test]
    fn sharded_matches_single_threaded_batch() {
        let plan = demo_plan(AggregateFunction::Sum);
        let evs = events(800, 16);
        let single = PlanPipeline::run(&plan, &evs, fast_opts()).unwrap();
        for shards in [1usize, 2, 4, 7] {
            let sharded = ShardedPipeline::run(&plan, &evs, fast_opts(), shards).unwrap();
            assert_eq!(
                sorted_results(single.results.clone()),
                sharded.results,
                "{shards} shards"
            );
            assert_eq!(sharded.events_processed, single.events_processed);
            assert_eq!(sharded.results_emitted, single.results_emitted);
            assert_eq!(sharded.stats, single.stats, "{shards} shards");
        }
    }

    #[test]
    fn watermark_broadcast_seals_every_shard() {
        let plan = demo_plan(AggregateFunction::Count);
        let mut pipeline = ShardedPipeline::compile(&plan, fast_opts(), 3).unwrap();
        for event in events(120, 8) {
            pipeline.push(event).unwrap();
        }
        pipeline.advance_watermark(120).unwrap();
        let sealed = pipeline.poll_results();
        // Every instance of the three tumbling windows ending ≤ 120, per key:
        // 6 × W20 + 4 × W30 + 3 × W40 = 13 instances × 8 keys.
        assert_eq!(sealed.len(), 13 * 8);
        // Events behind the broadcast watermark become (deferred) errors.
        pipeline.push(Event::new(5, 0, 1.0)).unwrap();
        let err = pipeline.finish().unwrap_err();
        assert!(matches!(err, EngineError::OutOfOrderEvent { .. }), "{err}");
    }

    #[test]
    fn finish_seals_shards_at_the_global_horizon() {
        // Key 1's shard sees no event after t=5, but the global stream
        // runs to t=39: the [0,20)/[0,30) instances holding key 1 must
        // still seal. A per-shard-local horizon would lose them.
        let plan = demo_plan(AggregateFunction::Min);
        let mut pipeline = ShardedPipeline::compile(&plan, fast_opts(), 4).unwrap();
        pipeline.push(Event::new(5, 1, 42.0)).unwrap();
        for t in 6..40u64 {
            pipeline.push(Event::new(t, 2, t as f64)).unwrap();
        }
        let out = pipeline.finish().unwrap();
        let key1: Vec<_> = out.results.iter().filter(|r| r.key == 1).collect();
        assert_eq!(key1.len(), 3, "{:?}", out.results); // one per window
        assert!(key1.iter().all(|r| r.value == 42.0));
    }

    #[test]
    fn deferred_out_of_order_error_surfaces_on_a_later_call() {
        let plan = demo_plan(AggregateFunction::Sum);
        let mut pipeline = ShardedPipeline::compile(&plan, fast_opts(), 2).unwrap();
        pipeline.push_batch(&events(100, 4)).unwrap();
        // Behind the shard watermark: the worker rejects it asynchronously.
        pipeline.push_batch(&[Event::new(3, 0, 1.0)]).unwrap();
        let err = pipeline.finish().unwrap_err();
        assert!(matches!(err, EngineError::OutOfOrderEvent { .. }), "{err}");
    }

    #[test]
    fn a_late_event_does_not_strand_a_shards_released_events() {
        // One key, so one shard sees the whole batch: 30 releases 1 and 2
        // from its reorder buffer, then 3 is too late. The shard feeds the
        // released prefix before failing, like the sequential pipeline.
        let plan = demo_plan(AggregateFunction::Sum);
        let opts = PipelineOptions {
            out_of_order: 4,
            ..fast_opts()
        };
        let mut pipeline = ShardedPipeline::compile(&plan, opts, 2).unwrap();
        pipeline
            .push_columns(&[1, 2, 30, 3], &[0; 4], &[1.0, 2.0, 4.0, 8.0])
            .unwrap();
        let (fed, _, _) = pipeline.snapshot();
        assert_eq!(fed, 2);
        let err = pipeline.finish().unwrap_err();
        assert!(
            matches!(err, EngineError::OutOfOrderEvent { at: 3, .. }),
            "{err}"
        );
    }

    #[test]
    fn snapshot_sums_fed_events_and_drop_is_clean() {
        let plan = demo_plan(AggregateFunction::Sum);
        let mut a = ShardedPipeline::compile(&plan, fast_opts(), 2).unwrap();
        let evs = events(200, 4);
        a.push_batch(&evs).unwrap();
        let (fed, _, _) = a.snapshot();
        assert_eq!(fed, 200);
        drop(a); // dropping without finish must not hang or panic
    }

    #[test]
    fn empty_stream_finishes_cleanly() {
        let plan = demo_plan(AggregateFunction::Avg);
        let out = ShardedPipeline::run(&plan, &[], fast_opts(), 3).unwrap();
        assert_eq!(out.events_processed, 0);
        assert_eq!(out.results_emitted, 0);
        assert!(out.results.is_empty());
    }

    #[test]
    fn out_of_order_tolerance_works_per_shard() {
        let plan = demo_plan(AggregateFunction::Min);
        let ordered = events(300, 8);
        let mut jittered = ordered.clone();
        for chunk in jittered.chunks_mut(4) {
            chunk.reverse();
        }
        let opts = PipelineOptions {
            collect: true,
            element_work: 0,
            out_of_order: 4,
            profile: Default::default(),
        };
        let reference = PlanPipeline::run(&plan, &ordered, fast_opts()).unwrap();
        let sharded = ShardedPipeline::run(&plan, &jittered, opts, 3).unwrap();
        assert_eq!(sorted_results(reference.results), sharded.results);
    }

    #[test]
    fn accessors_reflect_routing_state() {
        let plan = demo_plan(AggregateFunction::Sum);
        let mut pipeline = ShardedPipeline::compile(&plan, fast_opts(), 2).unwrap();
        assert_eq!(pipeline.shards(), 2);
        pipeline.push(Event::new(7, 3, 1.0)).unwrap();
        assert_eq!(pipeline.events_pushed(), 1);
        assert_eq!(pipeline.watermark(), 7);
        assert_eq!(pipeline.buffered(), 1); // coalesced, not yet flushed
        pipeline.advance_watermark(50).unwrap();
        assert_eq!(pipeline.watermark(), 50);
        assert_eq!(pipeline.buffered(), 0);
        let out = pipeline.finish().unwrap();
        assert_eq!(out.events_processed, 1);
    }
}
