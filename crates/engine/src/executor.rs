//! Plan compilation and single-core push execution.
//!
//! A [`fw_core::QueryPlan`] compiles into one operator per
//! window node. Raw-fed operators fold events into their panes; when the
//! watermark passes an instance's end, the instance seals and its per-key
//! sub-aggregates cascade to child operators (the Multicast/Union wiring of
//! the plan collapses into the routing tables here). Exposed operators also
//! emit user-visible results.
//!
//! Compilation and feeding are split: [`PlanPipeline::compile`] builds a
//! long-lived pipeline once, and [`PlanPipeline::push`] /
//! [`PlanPipeline::advance_watermark`] / [`PlanPipeline::poll_results`] /
//! [`PlanPipeline::finish`] drive it incrementally. The operators
//! themselves live in the crate-private `driver` module; this module owns
//! what surrounds them — the result sink, the reorder buffer, timing, and
//! the accounting that stays cumulative across plan swaps and checkpoints.

use crate::batch::EventBatch;
use crate::driver::{compile_core, PipelineCore};
use crate::error::{EngineError, Result};
use crate::event::{Event, ResultSink, WindowResult};
use crate::group::ExecBackend;
use crate::profile::{fold_profiles, join_profiles, NodeProfile, ProfileLevel};
use crate::reorder::ReorderBuffer;
use fw_core::QueryPlan;
use std::time::{Duration, Instant};

/// Element-level accounting: the quantities the paper's cost model counts.
///
/// `updates` and `combines` are *pane-level*: one raw event folded into
/// one instance, or one sub-aggregate entry combined into one instance,
/// counts once however many aggregate terms share the pane. The per-term
/// fan-out (N accumulator operations per pane element for an N-term
/// query) is reported separately as `agg_ops`, so a multi-aggregate plan's
/// pane maintenance compares directly against the single-aggregate plan it
/// shares its topology with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Raw-event pane updates (`n·η·r` per period, summed over raw-fed
    /// windows; counted once per element, not per aggregate term).
    pub updates: u64,
    /// Sub-aggregate pane combines (`n·M` per period, summed over fed
    /// windows; counted once per element, not per aggregate term).
    pub combines: u64,
    /// Per-term accumulator operations the pane elements fanned out to.
    /// Equals `updates + combines` for single-aggregate pipelines.
    pub agg_ops: u64,
    /// Live plan swaps ([`PlanPipeline::rebuild`]) performed over the
    /// pipeline's lifetime: adaptive re-optimizations and query-group
    /// register/deregister events. `0` for static pipelines.
    pub replans: u64,
}

impl ExecStats {
    /// Total cost-model elements processed (pane-level).
    #[must_use]
    pub fn elements(&self) -> u64 {
        self.updates + self.combines
    }
}

impl std::ops::Add for ExecStats {
    type Output = ExecStats;

    fn add(self, other: ExecStats) -> ExecStats {
        ExecStats {
            updates: self.updates + other.updates,
            combines: self.combines + other.combines,
            agg_ops: self.agg_ops + other.agg_ops,
            replans: self.replans + other.replans,
        }
    }
}

/// Outcome of executing a plan over a stream.
#[derive(Debug)]
pub struct RunOutput {
    /// Number of events fed through the plan.
    pub events_processed: u64,
    /// Number of (window, instance, key) results emitted to the union.
    pub results_emitted: u64,
    /// Wall time of the processing (compilation excluded).
    pub elapsed: Duration,
    /// Collected results not yet drained by
    /// [`PlanPipeline::poll_results`] (empty unless collection was
    /// requested).
    pub results: Vec<WindowResult>,
    /// Cost-model element counts (updates and combines).
    pub stats: ExecStats,
}

impl RunOutput {
    /// Throughput in events per second (the paper's metric, Karimov et al.).
    #[must_use]
    pub fn throughput_eps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return f64::INFINITY;
        }
        self.events_processed as f64 / self.elapsed.as_secs_f64()
    }
}

/// Options for compiling a [`PlanPipeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineOptions {
    /// Gather results for [`PlanPipeline::poll_results`] /
    /// [`RunOutput::results`] (tests and consumers) instead of counting
    /// them (throughput runs).
    pub collect: bool,
    /// Emulated per-element processing cost
    /// ([`crate::pane::DEFAULT_ELEMENT_WORK`]); `0` disables it.
    pub element_work: u32,
    /// Bounded out-of-order tolerance in time units: events may lag the
    /// observed maximum timestamp by up to this much and are repaired
    /// through a [`ReorderBuffer`]; `0` demands in-order input.
    pub out_of_order: u64,
    /// Per-plan-node instrumentation ([`ProfileLevel::Off`] by default;
    /// observation-only — results are bit-identical at every level).
    pub profile: ProfileLevel,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            collect: false,
            element_work: crate::pane::DEFAULT_ELEMENT_WORK,
            out_of_order: 0,
            profile: ProfileLevel::Off,
        }
    }
}

impl PipelineOptions {
    /// Options for correctness checks: collect results, no emulated work.
    #[must_use]
    pub fn collecting() -> Self {
        PipelineOptions {
            collect: true,
            ..PipelineOptions::default()
        }
    }
}

/// A compiled, long-lived physical pipeline with an incremental push API.
///
/// ```
/// use fw_core::prelude::*;
/// use fw_engine::{Event, PipelineOptions, PlanPipeline};
///
/// let windows = WindowSet::new(vec![Window::tumbling(10)?])?;
/// let query = WindowQuery::new(windows, AggregateFunction::Sum);
/// let plan = fw_core::rewrite::original_plan(&query);
///
/// let mut pipeline = PlanPipeline::compile(&plan, PipelineOptions::collecting()).unwrap();
/// for t in 0..25u64 {
///     pipeline.push(Event::new(t, 0, 1.0)).unwrap();
/// }
/// pipeline.advance_watermark(20).unwrap();
/// assert_eq!(pipeline.poll_results().len(), 2); // [0,10) and [10,20) sealed
/// let out = pipeline.finish().unwrap();
/// assert_eq!(out.events_processed, 25);
/// # Ok::<(), fw_core::Error>(())
/// ```
pub struct PlanPipeline {
    core: Box<dyn PipelineCore>,
    sink: ResultSink,
    reorder: Option<ReorderBuffer>,
    /// Reusable AoS→SoA conversion buffer for [`Self::push_batch`]
    /// (columnar callers bypass it entirely).
    staging: EventBatch,
    events_processed: u64,
    /// Maximum event time fed to the core (the end-of-stream seal point).
    last_time: u64,
    elapsed: Duration,
    /// Open timing burst for single-event pushes (see [`Self::push`]):
    /// the clock is read once per [`PUSH_CLOCK_STRIDE`] pushes instead of
    /// twice per event.
    burst_start: Option<Instant>,
    burst_len: u32,
    /// Per-element emulated work, retained so [`Self::rebuild`] can
    /// compile replacement cores with identical options.
    element_work: u32,
    /// Per-node instrumentation level, retained like `element_work` so
    /// rebuilt cores keep profiling.
    profile: ProfileLevel,
    /// Accounting of cores retired by [`Self::rebuild`]: every accessor
    /// reports `retired + live core`, so a rebuilt pipeline's numbers stay
    /// cumulative over its whole lifetime.
    base_stats: ExecStats,
    base_fed: u64,
    base_results: u64,
    base_work: u64,
    /// Per-node counters of retired cores, folded by window identity so
    /// [`Self::node_profiles`] stays cumulative across plan swaps (the
    /// per-node analogue of `base_stats`).
    base_profiles: Vec<NodeProfile>,
    /// Interner compactions performed by retired cores.
    base_compactions: u64,
    /// Number of live plan swaps performed (see [`ExecStats::replans`]).
    replans: u64,
}

/// Single-event pushes sample the wall clock once per this many events;
/// any batch push, watermark, poll-free accounting read, or finish closes
/// the open burst exactly.
const PUSH_CLOCK_STRIDE: u32 = 64;

/// With [`ProfileLevel::Timed`], the per-node clock samples one feed pass
/// and one seal pass out of this many — the same burst-amortization idea
/// as the push timing above, so per-node nanoseconds cost a clock read
/// only on sampled passes. Attributed nanos are therefore ~1/64th of
/// wall time: compare them *between* nodes, not against the clock.
pub const PROFILE_CLOCK_STRIDE: u64 = 64;

impl std::fmt::Debug for PlanPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanPipeline")
            .field("events_processed", &self.events_processed)
            .field("watermark", &self.core.watermark())
            .field("buffered", &self.buffered())
            .finish_non_exhaustive()
    }
}

impl PlanPipeline {
    /// Compiles `plan` into a pipeline. Holistic functions in sub-aggregate
    /// position and structurally invalid plans are rejected here, before
    /// any event flows.
    ///
    /// The pane layout follows from the plan's term count alone:
    /// single-aggregate plans run the per-function monomorphized slab
    /// layout ([`crate::pane`]), multi-aggregate plans the shared-pane row
    /// layout ([`crate::multi`]), which maintains each pane once and keeps
    /// every term's accumulator in one row per key. Either way the pipeline
    /// can [`Self::rebuild`] and [`Self::checkpoint`].
    pub fn compile(plan: &QueryPlan, opts: PipelineOptions) -> Result<Self> {
        let core = compile_core(plan, opts.element_work, opts.profile)?;
        Ok(Self::with_core(core, opts, Self::sink_hint(plan)))
    }

    /// Collecting-sink capacity hint: the plan's expected results per
    /// seal. Every exposed window emits one result per (key, term) when an
    /// instance seals; the key cardinality is unknown at compile time, so
    /// a per-window key allowance covers the common small-key workloads
    /// and larger ones grow once and then stay allocation-free (the sink
    /// buffer is drained, never taken — see [`Self::poll_results_into`]).
    fn sink_hint(plan: &QueryPlan) -> usize {
        /// Keys pre-reserved per (exposed window, aggregate term).
        const SINK_KEY_ALLOWANCE: usize = 16;
        let exposed = plan
            .window_nodes()
            .filter(|&node| plan.is_exposed(node))
            .count();
        exposed * plan.aggregates().len().max(1) * SINK_KEY_ALLOWANCE
    }

    fn with_core(core: Box<dyn PipelineCore>, opts: PipelineOptions, sink_hint: usize) -> Self {
        PlanPipeline {
            core,
            sink: if opts.collect {
                ResultSink::collecting_with_capacity(sink_hint)
            } else {
                ResultSink::CountOnly
            },
            reorder: (opts.out_of_order > 0).then(|| ReorderBuffer::new(opts.out_of_order)),
            staging: EventBatch::new(),
            events_processed: 0,
            last_time: 0,
            elapsed: Duration::ZERO,
            burst_start: None,
            burst_len: 0,
            element_work: opts.element_work,
            profile: opts.profile,
            base_stats: ExecStats::default(),
            base_fed: 0,
            base_results: 0,
            base_work: 0,
            base_profiles: Vec::new(),
            base_compactions: 0,
            replans: 0,
        }
    }

    /// Swaps the executing plan in place at a watermark boundary, carrying
    /// the window state of every exposed window across.
    ///
    /// The sequence: announce `watermark` (flushing the reorder buffer and
    /// sealing every instance ending at or before it), cascade in-flight
    /// sub-aggregates down to the exposed windows, export their open
    /// panes, compile `plan` onto a fresh core, and re-adopt the state —
    /// slots matched by `(function, column)`, windows by value. Instances
    /// spanning the boundary therefore keep their pre-boundary contents
    /// while the new plan's (possibly completely different) internal
    /// topology delivers exactly the post-boundary events, so results are
    /// identical to having run the new plan's windows over the whole
    /// stream. The new plan may carry a different number of aggregate
    /// terms (and so run on the other pane layout): state travels in a
    /// layout-neutral form. The reorder buffer, result sink, and
    /// cumulative accounting survive the swap; [`ExecStats::replans`]
    /// increments.
    pub fn rebuild(&mut self, plan: &QueryPlan, watermark: u64) -> Result<()> {
        // Compile before announcing the boundary or exporting: a plan
        // rejection must leave the running pipeline fully untouched — no
        // early sealing, no drained core.
        let mut core = compile_core(plan, self.element_work, self.profile)?;
        self.advance_watermark(watermark)?;
        core.adopt(self.core.export_state());
        self.replans += 1;
        self.install(core);
        Ok(())
    }

    /// Folds the (exported, drained) live core's accounting into the
    /// cumulative base and installs `fresh` in its place. Runs after the
    /// export: the downward flush performs counted combines.
    fn install(&mut self, fresh: Box<dyn PipelineCore>) {
        self.base_stats = self.base_stats + self.core.stats();
        self.base_fed += self.core.events_fed();
        self.base_results += self.core.results_emitted();
        self.base_work = self.base_work.wrapping_add(self.core.work_total());
        fold_profiles(&mut self.base_profiles, &self.core.node_profiles());
        self.base_compactions += self.core.compactions();
        self.core = fresh;
        self.sync_accounting();
    }

    /// Writes a durable checkpoint of the pipeline's full state (open
    /// panes, reorder buffer, undelivered results, watermark, cumulative
    /// accounting) to `w` — see [`crate::checkpoint`] for the format.
    ///
    /// `plan` must be the plan this pipeline is executing: the snapshot
    /// rides the live-swap export path, which compiles a fresh core and
    /// re-adopts the exported state, so the pipeline *keeps running*
    /// after the call (checkpoint-and-continue).
    pub fn checkpoint<W: std::io::Write + ?Sized>(
        &mut self,
        plan: &QueryPlan,
        w: &mut W,
    ) -> std::result::Result<(), crate::checkpoint::CheckpointError> {
        let image = self.export_image(plan)?;
        crate::checkpoint::write_header(w, crate::checkpoint::KIND_PIPELINE)?;
        image.encode(w)
    }

    /// Exports the pipeline's full state as a checkpoint image, leaving
    /// the pipeline running on a freshly compiled core that adopted the
    /// very same state (the same mechanism as [`Self::rebuild`], minus
    /// the watermark announcement — a checkpoint must not seal anything).
    pub(crate) fn export_image(
        &mut self,
        plan: &QueryPlan,
    ) -> std::result::Result<crate::checkpoint::PipelineImage, crate::checkpoint::CheckpointError>
    {
        use crate::checkpoint::{CheckpointError, PipelineImage};
        // Compile the replacement core first: a plan rejection must leave
        // the running pipeline untouched. Exporting drains the live core,
        // so re-adopting into a *fresh* core (never the same one — factor
        // windows would double-deliver their flushed panes) is mandatory.
        let mut fresh =
            compile_core(plan, self.element_work, self.profile).map_err(CheckpointError::Engine)?;
        self.close_burst();
        // Snapshot accounting before the export: the downward flush
        // performs counted combines that belong to the post-checkpoint
        // continuation, not the image.
        let stats = self.stats();
        let fed = self.base_fed + self.core.events_fed();
        let results = self.base_results + self.core.results_emitted();
        let work = self.base_work.wrapping_add(self.core.work_total());
        let profiles = self.node_profiles();
        let state = self.core.export_state();
        let mut image = PipelineImage::from_state(
            &state,
            self.reorder.as_ref().map(ReorderBuffer::image),
            self.sink.results().to_vec(),
            fed,
            results,
            work,
            stats,
        );
        image.profiles = profiles;
        fresh.adopt(state);
        // No replan increment: a checkpoint is observably transparent.
        self.install(fresh);
        Ok(image)
    }

    /// Restores a pipeline from a checkpoint written by
    /// [`Self::checkpoint`] (or by `ShardedPipeline::checkpoint` — the
    /// on-disk format is shard-count-free). `plan` must describe the same
    /// query; `opts` may differ (the snapshot's reorder buffer wins over
    /// `opts.out_of_order` when present). Replaying the event stream from
    /// the snapshot's cursor (`events_processed() + buffered()`) yields
    /// results bit-identical to an uninterrupted run.
    pub fn restore<R: std::io::Read + ?Sized>(
        plan: &QueryPlan,
        opts: PipelineOptions,
        r: &mut R,
    ) -> std::result::Result<Self, crate::checkpoint::CheckpointError> {
        let version = crate::checkpoint::read_header(r, crate::checkpoint::KIND_PIPELINE)?;
        let image = crate::checkpoint::PipelineImage::decode(r, version)?;
        Self::restore_image(plan, opts, image)
    }

    /// Builds a running pipeline from a decoded checkpoint image.
    pub(crate) fn restore_image(
        plan: &QueryPlan,
        opts: PipelineOptions,
        mut image: crate::checkpoint::PipelineImage,
    ) -> std::result::Result<Self, crate::checkpoint::CheckpointError> {
        use crate::checkpoint::CheckpointError;
        let mut core =
            compile_core(plan, opts.element_work, opts.profile).map_err(CheckpointError::Engine)?;
        let reorder_image = image.reorder.take();
        let pending = std::mem::take(&mut image.pending);
        let profiles = std::mem::take(&mut image.profiles);
        core.adopt(image.take_group_state());
        let mut pipeline = Self::with_core(core, opts, Self::sink_hint(plan));
        if let Some(ri) = &reorder_image {
            // The snapshot is authoritative: it carries the buffered
            // events and the high watermark later pushes validate against.
            pipeline.reorder = Some(ReorderBuffer::from_image(ri));
        }
        if let ResultSink::Collect(rows) = &mut pipeline.sink {
            // Undelivered rows re-enter the sink without re-counting:
            // their emission is already in `image.results`.
            rows.extend(pending);
        }
        pipeline.base_stats = ExecStats {
            replans: 0,
            ..image.stats
        };
        pipeline.replans = image.stats.replans;
        pipeline.base_fed = image.fed;
        pipeline.base_results = image.results;
        pipeline.base_work = image.work;
        // Cumulative per-node counters resume from the snapshot (empty
        // for images written before profiles existed).
        pipeline.base_profiles = profiles;
        pipeline.sync_accounting();
        Ok(pipeline)
    }

    /// Compiles and runs `plan` over a whole in-order batch.
    pub fn run(plan: &QueryPlan, events: &[Event], opts: PipelineOptions) -> Result<RunOutput> {
        let mut pipeline = PlanPipeline::compile(plan, opts)?;
        pipeline.push_batch(events)?;
        pipeline.finish()
    }

    /// Pushes one event. With an out-of-order tolerance configured, the
    /// event may lag the observed maximum timestamp by up to the
    /// tolerance; otherwise it must not precede the current watermark.
    ///
    /// Timing is amortized: the wall clock is read once per
    /// `PUSH_CLOCK_STRIDE` (64) single-event pushes (a hot push loop pays no
    /// per-event clock cost), and any `push_batch`, watermark, or finish
    /// closes the open sample exactly. Caller think-time *between* pushes
    /// inside one stride is attributed to `elapsed`, so tight loops are
    /// measured accurately while interactive trickles are approximate —
    /// use [`Self::push_batch`] where exact timing matters.
    pub fn push(&mut self, event: Event) -> Result<()> {
        if self.burst_start.is_none() {
            self.burst_start = Some(Instant::now());
        }
        // The degenerate one-event column batch: per-event ingestion is a
        // wrapper over the columnar primitive, so there is exactly one
        // feed implementation to keep correct.
        let result = self.push_columns_inner(
            &[event.time],
            &[event.key],
            std::slice::from_ref(&event.value),
        );
        self.burst_len += 1;
        if self.burst_len >= PUSH_CLOCK_STRIDE {
            self.close_burst();
        }
        result
    }

    /// Folds the open single-push timing burst into `elapsed`.
    fn close_burst(&mut self) {
        if let Some(start) = self.burst_start.take() {
            self.elapsed += start.elapsed();
        }
        self.burst_len = 0;
    }

    /// Pushes a batch of row-oriented events (timed once around the whole
    /// batch, so batch callers pay no per-event clock overhead). The rows
    /// are transposed once into a reusable columnar staging buffer and
    /// then take the same run-sliced path as [`Self::push_columns`].
    pub fn push_batch(&mut self, events: &[Event]) -> Result<()> {
        self.close_burst();
        let start = Instant::now();
        let result = self.push_events_inner(events);
        self.elapsed += start.elapsed();
        result
    }

    /// Pushes a columnar batch — the zero-copy ingestion primitive. The
    /// three slices must be equally long; timestamps are expected
    /// non-decreasing (within the configured out-of-order tolerance).
    pub fn push_columns(&mut self, times: &[u64], keys: &[u32], values: &[f64]) -> Result<()> {
        if times.len() != keys.len() || times.len() != values.len() {
            return Err(EngineError::ColumnLengthMismatch {
                times: times.len(),
                keys: keys.len(),
                values: values.len(),
            });
        }
        self.close_burst();
        let start = Instant::now();
        let result = self.push_columns_inner(times, keys, values);
        self.elapsed += start.elapsed();
        result
    }

    fn push_events_inner(&mut self, events: &[Event]) -> Result<()> {
        match &mut self.reorder {
            None => {
                // Transpose in spare-cap-sized chunks: the staging buffer
                // then never exceeds the capacity `EventBatch::clear`
                // retains, so arbitrarily large caller batches reuse one
                // allocation forever instead of shrinking and regrowing
                // the columns on every call.
                let mut result = Ok(());
                for chunk in events.chunks(crate::batch::BATCH_SPARE_CAP) {
                    self.staging.clear();
                    self.staging.extend_from_events(chunk);
                    result = {
                        let (times, keys, values) = self.staging.columns();
                        self.core.feed_columns(times, keys, values, &mut self.sink)
                    };
                    if result.is_err() {
                        break;
                    }
                }
                self.sync_accounting();
                result
            }
            Some(buffer) => {
                let pushed = events.iter().try_for_each(|&event| buffer.push(event));
                self.feed_staged().and(pushed)
            }
        }
    }

    fn push_columns_inner(&mut self, times: &[u64], keys: &[u32], values: &[f64]) -> Result<()> {
        match &mut self.reorder {
            None => {
                let result = self.core.feed_columns(times, keys, values, &mut self.sink);
                self.sync_accounting();
                result
            }
            Some(buffer) => {
                let pushed = (0..times.len())
                    .try_for_each(|i| buffer.push_parts(times[i], keys[i], values[i]));
                self.feed_staged().and(pushed)
            }
        }
    }

    /// Feeds everything the reorder buffer has staged (released in
    /// timestamp order into its reusable columnar drain buffer). The
    /// staged columns are cleared afterwards whether or not the feed
    /// errored: the core consumed the prefix before the offending
    /// element, and the offender can never become feedable.
    /// Pushes call this even after a too-late event stopped them, so what
    /// the buffer released first reaches the core before the error does.
    fn feed_staged(&mut self) -> Result<()> {
        let Some(buffer) = &mut self.reorder else {
            return Ok(());
        };
        if buffer.staged().is_empty() {
            return Ok(());
        }
        let (times, keys, values) = buffer.staged().columns();
        let result = self.core.feed_columns(times, keys, values, &mut self.sink);
        buffer.clear_staged();
        self.sync_accounting();
        result
    }

    /// Mirrors the core's feed counters (plus the base retired by any
    /// rebuilds). The core counts per event, so a batch that errors
    /// mid-way leaves the accounting consistent with the events actually
    /// aggregated (the prefix before the error).
    fn sync_accounting(&mut self) {
        self.events_processed = self.base_fed + self.core.events_fed();
        self.last_time = self.core.last_event_time();
    }

    /// Declares that no event with `time < watermark` will arrive: releases
    /// everything the reorder buffer held before `watermark`, seals every
    /// window instance ending at or before it, and emits their results.
    pub fn advance_watermark(&mut self, watermark: u64) -> Result<()> {
        self.close_burst();
        let start = Instant::now();
        if let Some(buffer) = &mut self.reorder {
            buffer.advance_to(watermark);
        }
        let result = self.feed_staged();
        self.core.advance_to(watermark, &mut self.sink);
        self.elapsed += start.elapsed();
        result
    }

    /// Drains the results collected since the last poll. Always empty when
    /// the pipeline was compiled without `collect`.
    pub fn poll_results(&mut self) -> Vec<WindowResult> {
        let mut out = Vec::new();
        self.poll_results_into(&mut out);
        out
    }

    /// Drains the results collected since the last poll into `out`,
    /// reusing both buffers: the sink keeps its (pre-reserved) capacity
    /// and `out` keeps whatever the caller accumulated, so a steady-state
    /// poll loop with a recycled `out` performs no allocations.
    pub fn poll_results_into(&mut self, out: &mut Vec<WindowResult>) {
        self.sink.drain_into(out);
    }

    /// Ends the stream: flushes the reorder buffer, seals everything the
    /// stream completed, and returns the run's accounting (plus any
    /// results not yet drained by [`Self::poll_results`]).
    pub fn finish(mut self) -> Result<RunOutput> {
        self.close_burst();
        let start = Instant::now();
        if let Some(buffer) = &mut self.reorder {
            buffer.flush();
        }
        self.feed_staged()?;
        if self.events_processed > 0 {
            self.core.advance_to(self.last_time + 1, &mut self.sink);
        }
        self.elapsed += start.elapsed();
        // Keep the emulated element work observable so it is not optimized
        // away (see `pane::element_work`).
        std::hint::black_box(self.base_work.wrapping_add(self.core.work_total()));
        let stats = self.stats();
        Ok(RunOutput {
            events_processed: self.events_processed,
            results_emitted: self.base_results + self.core.results_emitted(),
            elapsed: self.elapsed,
            results: self.sink.into_results(),
            stats,
        })
    }

    /// Number of events fed into the operators so far (events still held in
    /// the reorder buffer are not counted).
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of results emitted so far (including polled ones).
    #[must_use]
    pub fn results_emitted(&self) -> u64 {
        self.base_results + self.core.results_emitted()
    }

    /// Current ordering watermark of the operators.
    #[must_use]
    pub fn watermark(&self) -> u64 {
        self.core.watermark()
    }

    /// Events currently held in the reorder buffer.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.reorder.as_ref().map_or(0, ReorderBuffer::buffered)
    }

    /// Cost-model element counts so far (cumulative across any rebuilds).
    #[must_use]
    pub fn stats(&self) -> ExecStats {
        let mut stats = self.base_stats + self.core.stats();
        stats.replans = self.replans;
        stats
    }

    /// Processing wall time accumulated so far (compilation excluded; a
    /// single-push timing burst still open is not yet folded in).
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// High-water `(slots, bytes)` of the core's key interner — the dense
    /// key space backing the pane slabs (see [`crate::slab`]). Slots
    /// count distinct keys interned since the last compaction; bytes are
    /// the interner's table memory. Observability only.
    #[must_use]
    pub fn interner_stats(&self) -> (u64, u64) {
        self.core.interner_stats()
    }

    /// The per-node instrumentation level this pipeline was compiled with.
    #[must_use]
    pub fn profile_level(&self) -> ProfileLevel {
        self.profile
    }

    /// Per-plan-node observed counters, cumulative across rebuilds,
    /// checkpoints and restores (windows retired by a replan appear as
    /// [`crate::profile::RETIRED_NODE`] entries). With profiling off the
    /// always-on update/combine counters are still attributed; seals,
    /// emitted rows, occupancy high-waters and nanos stay zero.
    #[must_use]
    pub fn node_profiles(&self) -> Vec<NodeProfile> {
        join_profiles(&self.base_profiles, &self.core.node_profiles())
    }

    /// Interner compactions performed over the pipeline's lifetime.
    #[must_use]
    pub fn compactions(&self) -> u64 {
        self.base_compactions + self.core.compactions()
    }
}

impl ExecBackend for PlanPipeline {
    fn push(&mut self, event: Event) -> Result<()> {
        PlanPipeline::push(self, event)
    }

    fn push_batch(&mut self, events: &[Event]) -> Result<()> {
        PlanPipeline::push_batch(self, events)
    }

    fn push_columns(&mut self, times: &[u64], keys: &[u32], values: &[f64]) -> Result<()> {
        PlanPipeline::push_columns(self, times, keys, values)
    }

    fn advance_watermark(&mut self, watermark: u64) -> Result<()> {
        PlanPipeline::advance_watermark(self, watermark)
    }

    fn poll_results(&mut self) -> Vec<WindowResult> {
        PlanPipeline::poll_results(self)
    }

    fn rebuild(&mut self, plan: &QueryPlan, watermark: u64) -> Result<()> {
        PlanPipeline::rebuild(self, plan, watermark)
    }

    fn finish(self: Box<Self>) -> Result<RunOutput> {
        PlanPipeline::finish(*self)
    }

    fn watermark(&self) -> u64 {
        PlanPipeline::watermark(self)
    }

    fn events_pushed(&self) -> u64 {
        self.events_processed + self.buffered() as u64
    }

    fn results_emitted(&self) -> u64 {
        PlanPipeline::results_emitted(self)
    }

    fn stats(&self) -> ExecStats {
        PlanPipeline::stats(self)
    }

    fn interner_stats(&self) -> (u64, u64) {
        PlanPipeline::interner_stats(self)
    }

    fn node_profiles(&self) -> Vec<NodeProfile> {
        PlanPipeline::node_profiles(self)
    }

    fn buffered(&self) -> usize {
        PlanPipeline::buffered(self)
    }

    fn seal_counters(&self) -> Option<(u64, u64)> {
        Some((self.results_emitted(), self.compactions()))
    }

    fn export_snapshot(
        &mut self,
        plan: &QueryPlan,
    ) -> crate::checkpoint::CheckpointResult<Vec<u8>> {
        crate::checkpoint::encode_pipeline_doc(&self.export_image(plan)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::sorted_results;
    use fw_core::{AggregateFunction, Optimizer, Semantics, Window, WindowQuery, WindowSet};

    fn w(r: u64, s: u64) -> Window {
        Window::new(r, s).unwrap()
    }

    fn events(n: u64, keys: u32) -> Vec<Event> {
        (0..n)
            .map(|t| Event::new(t, (t % u64::from(keys)) as u32, (t % 17) as f64))
            .collect()
    }

    fn query(ws: &[Window], f: AggregateFunction) -> WindowQuery {
        WindowQuery::new(WindowSet::new(ws.to_vec()).unwrap(), f)
    }

    fn run_collect(plan: &QueryPlan, evs: &[Event]) -> Result<RunOutput> {
        PlanPipeline::run(
            plan,
            evs,
            PipelineOptions {
                collect: true,
                ..Default::default()
            },
        )
    }

    #[test]
    fn plan_pipeline_is_send() {
        // Shard workers move compiled pipelines across threads; this must
        // hold for every aggregate's accumulator type.
        fn assert_send<T: Send>() {}
        assert_send::<PlanPipeline>();
    }

    #[test]
    fn single_tumbling_min() {
        let q = query(&[w(10, 10)], AggregateFunction::Min);
        let plan = fw_core::rewrite::original_plan(&q);
        let evs = events(30, 1);
        let out = run_collect(&plan, &evs).unwrap();
        // Instances [0,10): min(0..10 % 17) = 0; [10,20): values 10..16,0,1,2 → 0;
        // [20,30): values 3..12 → 3.
        let results = sorted_results(out.results);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].value, 0.0);
        assert_eq!(results[1].value, 0.0);
        assert_eq!(results[2].value, 3.0);
        assert_eq!(out.events_processed, 30);
    }

    #[test]
    fn all_three_plans_agree_for_min_covered_by() {
        let q = query(&[w(20, 20), w(30, 30), w(40, 40)], AggregateFunction::Min);
        let out = Optimizer::default().optimize(&q).unwrap();
        let evs = events(500, 4);
        let a = run_collect(&out.original.plan, &evs).unwrap();
        let b = run_collect(&out.rewritten.plan, &evs).unwrap();
        let c = run_collect(&out.factored.plan, &evs).unwrap();
        let ra = sorted_results(a.results);
        let rb = sorted_results(b.results);
        let rc = sorted_results(c.results);
        assert!(!ra.is_empty());
        assert_eq!(ra, rb);
        assert_eq!(ra, rc);
    }

    #[test]
    fn all_three_plans_agree_for_sum_partitioned_by() {
        let q = query(&[w(20, 20), w(30, 30), w(40, 40)], AggregateFunction::Sum);
        let out = Optimizer::default()
            .optimize_with(&q, Semantics::PartitionedBy)
            .unwrap();
        let evs = events(600, 3);
        let a = run_collect(&out.original.plan, &evs).unwrap();
        let c = run_collect(&out.factored.plan, &evs).unwrap();
        assert_eq!(sorted_results(a.results), sorted_results(c.results));
    }

    #[test]
    fn hopping_windows_agree_for_max() {
        let q = query(&[w(20, 10), w(40, 10), w(60, 20)], AggregateFunction::Max);
        let out = Optimizer::default().optimize(&q).unwrap();
        let evs = events(400, 2);
        let a = run_collect(&out.original.plan, &evs).unwrap();
        let c = run_collect(&out.factored.plan, &evs).unwrap();
        assert_eq!(sorted_results(a.results), sorted_results(c.results));
    }

    #[test]
    fn rejects_out_of_order_events() {
        let q = query(&[w(10, 10)], AggregateFunction::Min);
        let plan = fw_core::rewrite::original_plan(&q);
        let evs = vec![Event::new(5, 0, 1.0), Event::new(3, 0, 1.0)];
        // The watermark only moves on seals; craft times to hit the check.
        let err = run_collect(&plan, &evs).unwrap_err();
        assert!(matches!(err, EngineError::OutOfOrderEvent { .. }));
    }

    #[test]
    fn rejects_holistic_subaggregation() {
        // Hand-build a plan that feeds MEDIAN from sub-aggregates.
        let mut b = fw_core::plan::PlanBuilder::new(AggregateFunction::Median);
        let src = b.source();
        let w20 = b.window_agg(src, w(20, 20), "w20".to_string(), true);
        let w40 = b.window_agg(w20, w(40, 40), "w40".to_string(), true);
        let plan = b.finish(vec![w20, w40]);
        let err = PlanPipeline::compile(&plan, PipelineOptions::default())
            .err()
            .unwrap();
        assert!(matches!(err, EngineError::HolisticSubAggregate { .. }));
    }

    #[test]
    fn median_runs_on_original_plan() {
        let q = query(&[w(10, 10), w(20, 20)], AggregateFunction::Median);
        let out = Optimizer::default().optimize(&q).unwrap();
        let evs = events(40, 1);
        let run = run_collect(&out.factored.plan, &evs).unwrap();
        assert!(!run.results.is_empty());
    }

    #[test]
    fn count_matches_event_counts() {
        let q = query(&[w(10, 10), w(20, 20)], AggregateFunction::Count);
        let out = Optimizer::default().optimize(&q).unwrap();
        let evs = events(40, 2);
        let run = run_collect(&out.factored.plan, &evs).unwrap();
        for r in &run.results {
            // 2 keys alternating each tick: every instance holds r/2 per key.
            assert_eq!(r.value, (r.interval.len() / 2) as f64);
        }
    }

    #[test]
    fn exec_stats_count_cost_model_elements() {
        let q = query(&[w(20, 20), w(30, 30), w(40, 40)], AggregateFunction::Min);
        let out = Optimizer::default()
            .optimize_with(&q, Semantics::PartitionedBy)
            .unwrap();
        let evs = events(1200, 1);
        // Original: every event updates each of the 3 tumbling windows.
        let orig = PlanPipeline::run(&out.original.plan, &evs, PipelineOptions::default()).unwrap();
        assert_eq!(orig.stats.updates, 3 * 1200);
        assert_eq!(orig.stats.combines, 0);
        // Factored (Figure 2(c)): one raw update per event into W(10,10),
        // everything else arrives as sub-aggregates.
        let fac = PlanPipeline::run(&out.factored.plan, &evs, PipelineOptions::default()).unwrap();
        assert_eq!(fac.stats.updates, 1200);
        assert!(fac.stats.combines > 0);
        assert!(fac.stats.elements() < orig.stats.elements());
    }

    #[test]
    fn empty_stream_is_fine() {
        let q = query(&[w(10, 10)], AggregateFunction::Min);
        let plan = fw_core::rewrite::original_plan(&q);
        let out = run_collect(&plan, &[]).unwrap();
        assert_eq!(out.events_processed, 0);
        assert_eq!(out.results_emitted, 0);
    }

    #[test]
    fn out_of_order_check_uses_watermark_not_last_event() {
        // Equal timestamps are allowed (multiple keys per tick).
        let q = query(&[w(10, 10)], AggregateFunction::Min);
        let plan = fw_core::rewrite::original_plan(&q);
        let evs = vec![
            Event::new(1, 0, 1.0),
            Event::new(1, 1, 2.0),
            Event::new(2, 0, 0.5),
        ];
        assert!(run_collect(&plan, &evs).is_ok());
    }

    #[test]
    fn pipeline_option_defaults_are_pinned() {
        // `PlanPipeline::run(plan, events, PipelineOptions::default())` is
        // the throughput configuration every harness relies on: count-only
        // sink, calibrated element work, in-order input, no profiling.
        let opts = PipelineOptions::default();
        assert!(!opts.collect);
        assert_eq!(opts.element_work, crate::pane::DEFAULT_ELEMENT_WORK);
        assert_eq!(opts.out_of_order, 0);
        assert_eq!(opts.profile, ProfileLevel::Off);
        assert_eq!(
            PipelineOptions::collecting(),
            PipelineOptions {
                collect: true,
                ..opts
            }
        );
    }

    #[test]
    fn incremental_push_matches_batch_run() {
        let q = query(&[w(20, 20), w(30, 30), w(40, 40)], AggregateFunction::Sum);
        let out = Optimizer::default().optimize(&q).unwrap();
        let evs = events(500, 3);
        let batch = run_collect(&out.factored.plan, &evs).unwrap();

        let mut pipeline =
            PlanPipeline::compile(&out.factored.plan, PipelineOptions::collecting()).unwrap();
        let mut collected = Vec::new();
        for (i, &e) in evs.iter().enumerate() {
            pipeline.push(e).unwrap();
            if i % 100 == 99 {
                collected.extend(pipeline.poll_results());
            }
        }
        let tail = pipeline.finish().unwrap();
        collected.extend(tail.results);
        assert_eq!(sorted_results(collected), sorted_results(batch.results));
        assert_eq!(tail.events_processed, 500);
        assert_eq!(tail.results_emitted, batch.results_emitted);
    }

    #[test]
    fn watermark_advance_seals_incrementally() {
        let q = query(&[w(10, 10)], AggregateFunction::Count);
        let plan = fw_core::rewrite::original_plan(&q);
        let mut pipeline = PlanPipeline::compile(&plan, PipelineOptions::collecting()).unwrap();
        for t in 0..10u64 {
            pipeline.push(Event::new(t, 0, 1.0)).unwrap();
        }
        // Nothing sealed yet: the instance [0,10) ends exactly at the
        // maximum pushed time + 1.
        assert!(pipeline.poll_results().is_empty());
        pipeline.advance_watermark(10).unwrap();
        let sealed = pipeline.poll_results();
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].value, 10.0);
        // An event behind the announced watermark is rejected.
        let err = pipeline.push(Event::new(5, 0, 1.0)).unwrap_err();
        assert!(matches!(err, EngineError::OutOfOrderEvent { .. }));
        // The stream continues past the watermark.
        pipeline.push(Event::new(15, 0, 1.0)).unwrap();
        let out = pipeline.finish().unwrap();
        assert_eq!(out.events_processed, 11);
    }

    #[test]
    fn out_of_order_tolerance_repairs_jitter() {
        let q = query(&[w(10, 10), w(20, 20)], AggregateFunction::Min);
        let out = Optimizer::default().optimize(&q).unwrap();
        let ordered = events(200, 2);
        let mut jittered = ordered.clone();
        for chunk in jittered.chunks_mut(4) {
            chunk.reverse();
        }
        // Strict pipeline rejects the jitter...
        let strict =
            PlanPipeline::run(&out.factored.plan, &jittered, PipelineOptions::collecting());
        assert!(strict.is_err());
        // ...a tolerant pipeline repairs it losslessly.
        let opts = PipelineOptions {
            out_of_order: 4,
            ..PipelineOptions::collecting()
        };
        let mut pipeline = PlanPipeline::compile(&out.factored.plan, opts).unwrap();
        for &e in &jittered {
            pipeline.push(e).unwrap();
        }
        let repaired = pipeline.finish().unwrap();
        let reference = run_collect(&out.factored.plan, &ordered).unwrap();
        assert_eq!(
            sorted_results(repaired.results),
            sorted_results(reference.results)
        );
        assert_eq!(repaired.events_processed, 200);
    }

    #[test]
    fn mid_batch_error_keeps_accounting_consistent() {
        // A batch that errors part-way must leave events_processed equal
        // to the prefix actually aggregated, so finish() still seals it.
        let q = query(&[w(10, 10)], AggregateFunction::Sum);
        let plan = fw_core::rewrite::original_plan(&q);
        let mut pipeline = PlanPipeline::compile(&plan, PipelineOptions::collecting()).unwrap();
        let batch = vec![
            Event::new(12, 0, 1.0),
            Event::new(19, 0, 2.0),
            Event::new(3, 0, 4.0),
        ];
        let err = pipeline.push_batch(&batch).unwrap_err();
        assert!(matches!(err, EngineError::OutOfOrderEvent { at: 3, .. }));
        // The two in-order events were fed; the late one was not.
        assert_eq!(pipeline.events_processed(), 2);
        let out = pipeline.finish().unwrap();
        assert_eq!(out.events_processed, 2);
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0].value, 3.0); // 1.0 + 2.0, not 7.0
    }

    #[test]
    fn rebuild_swaps_plans_mid_stream_without_changing_results() {
        // Swap factored → original → rewritten at watermark boundaries;
        // results and cumulative accounting must match a static run.
        let q = query(&[w(20, 20), w(30, 30), w(40, 40)], AggregateFunction::Sum);
        let out = Optimizer::default().optimize(&q).unwrap();
        let evs = events(600, 3);
        let reference = run_collect(&out.original.plan, &evs).unwrap();

        let mut pipeline =
            PlanPipeline::compile(&out.factored.plan, PipelineOptions::collecting()).unwrap();
        let mut collected = Vec::new();
        pipeline.push_batch(&evs[..200]).unwrap();
        pipeline.rebuild(&out.original.plan, 200).unwrap();
        collected.extend(pipeline.poll_results());
        pipeline.push_batch(&evs[200..400]).unwrap();
        pipeline.rebuild(&out.rewritten.plan, 400).unwrap();
        pipeline.push_batch(&evs[400..]).unwrap();
        assert_eq!(pipeline.events_processed(), 600);
        let tail = pipeline.finish().unwrap();
        collected.extend(tail.results);
        assert_eq!(sorted_results(collected), sorted_results(reference.results));
        assert_eq!(tail.events_processed, 600);
        assert_eq!(tail.results_emitted, reference.results_emitted);
        assert_eq!(tail.stats.replans, 2);
    }

    #[test]
    fn rebuild_does_not_double_count_through_exposed_feeders() {
        // The regression the carry mechanism exists for: w20 (exposed)
        // feeds w40 in the rewritten plan, and the swap watermark (130)
        // falls inside w20's instance [120,140). The export-time flush
        // hands w40 the [120,130) contributions; the migrated w20 pane
        // must then cascade only [130,140) when it seals — cascading the
        // adopted pane wholesale made w40's [120,160) sum 50 instead of
        // 40 for a constant-1.0 stream.
        let q = query(&[w(20, 20), w(40, 40)], AggregateFunction::Sum);
        let out = Optimizer::default().optimize(&q).unwrap();
        let plan = &out.rewritten.plan;
        assert!(plan
            .window_nodes()
            .any(|id| plan.feeding_window(id).is_some()));
        let evs: Vec<Event> = (0..200u64).map(|t| Event::new(t, 0, 1.0)).collect();
        let reference = run_collect(plan, &evs).unwrap();

        for boundary in [130u64, 125, 140] {
            let mut pipeline = PlanPipeline::compile(plan, PipelineOptions::collecting()).unwrap();
            pipeline.push_batch(&evs[..boundary as usize]).unwrap();
            pipeline.rebuild(plan, boundary).unwrap();
            pipeline.push_batch(&evs[boundary as usize..]).unwrap();
            let mut collected = pipeline.poll_results();
            let tail = pipeline.finish().unwrap();
            collected.extend(tail.results);
            assert_eq!(
                sorted_results(collected),
                sorted_results(reference.results.clone()),
                "boundary {boundary}"
            );
        }
    }

    #[test]
    fn rebuild_carry_survives_back_to_back_swaps_and_quiet_instances() {
        // Two swaps in a row (carry re-exported before it merged) and a
        // stream that goes quiet right after the boundary (the carried
        // instance's only content is the carry itself — it must still
        // seal and emit).
        let q = query(&[w(20, 20), w(40, 40), w(80, 80)], AggregateFunction::Avg);
        let out = Optimizer::default().optimize(&q).unwrap();
        let evs: Vec<Event> = (0..160u64)
            .map(|t| Event::new(t, (t % 2) as u32, (t % 13) as f64))
            .collect();
        let reference = run_collect(&out.rewritten.plan, &evs).unwrap();

        let mut pipeline =
            PlanPipeline::compile(&out.rewritten.plan, PipelineOptions::collecting()).unwrap();
        pipeline.push_batch(&evs[..90]).unwrap();
        pipeline.rebuild(&out.factored.plan, 90).unwrap();
        pipeline.rebuild(&out.rewritten.plan, 90).unwrap(); // carry re-exported
        pipeline.push_batch(&evs[90..100]).unwrap();
        // Quiet gap: seal everything (including carry-only instances) via
        // an announced watermark far past the stream.
        pipeline.push_batch(&evs[100..]).unwrap();
        let mut collected = pipeline.poll_results();
        let tail = pipeline.finish().unwrap();
        collected.extend(tail.results);
        assert_eq!(
            sorted_results(collected),
            sorted_results(reference.results.clone())
        );
        assert_eq!(tail.stats.replans, 2);
    }

    #[test]
    fn single_term_pipeline_rebuilds_and_checkpoints() {
        // A single-aggregate plan runs on the monomorphized layout and
        // still swaps plans, checkpoints and restores — there is no
        // separate "durable" compile path to ask for.
        let q = query(&[w(10, 10), w(20, 20)], AggregateFunction::Min);
        let out = Optimizer::default().optimize(&q).unwrap();
        let evs = events(200, 3);
        let reference = run_collect(&out.original.plan, &evs).unwrap();

        let opts = PipelineOptions::collecting();
        let mut pipeline = PlanPipeline::compile(&out.factored.plan, opts).unwrap();
        pipeline.push_batch(&evs[..70]).unwrap();
        pipeline.rebuild(&out.original.plan, 70).unwrap();
        pipeline.push_batch(&evs[70..130]).unwrap();
        let mut delivered = pipeline.poll_results();
        let mut snapshot = Vec::new();
        pipeline
            .checkpoint(&out.original.plan, &mut snapshot)
            .unwrap();
        drop(pipeline);

        let mut restored =
            PlanPipeline::restore(&out.original.plan, opts, &mut snapshot.as_slice()).unwrap();
        assert_eq!(restored.events_processed(), 130);
        restored.push_batch(&evs[130..]).unwrap();
        let tail = restored.finish().unwrap();
        delivered.extend(tail.results);
        let bits = |rows: Vec<WindowResult>| -> Vec<(WindowResult, u64)> {
            sorted_results(rows)
                .into_iter()
                .map(|r| (r, r.value.to_bits()))
                .collect()
        };
        assert_eq!(bits(delivered), bits(reference.results));
        assert_eq!(tail.stats.replans, 1);
    }

    #[test]
    fn rebuild_with_out_of_order_tolerance_keeps_buffered_events() {
        let q = query(&[w(10, 10), w(20, 20)], AggregateFunction::Min);
        let out = Optimizer::default().optimize(&q).unwrap();
        let ordered = events(200, 2);
        let mut jittered = ordered.clone();
        for chunk in jittered.chunks_mut(4) {
            chunk.reverse();
        }
        let reference = run_collect(&out.factored.plan, &ordered).unwrap();
        let opts = PipelineOptions {
            out_of_order: 4,
            ..PipelineOptions::collecting()
        };
        let mut pipeline = PlanPipeline::compile(&out.factored.plan, opts).unwrap();
        for (i, &e) in jittered.iter().enumerate() {
            pipeline.push(e).unwrap();
            if i == 99 {
                // Swap at the pipeline's own watermark: events still held
                // in the reorder buffer survive the swap.
                let w = pipeline.watermark();
                pipeline.rebuild(&out.original.plan, w).unwrap();
            }
        }
        let repaired = pipeline.finish().unwrap();
        assert_eq!(
            sorted_results(repaired.results),
            sorted_results(reference.results)
        );
        assert_eq!(repaired.events_processed, 200);
    }

    #[test]
    fn a_late_event_does_not_strand_what_the_buffer_released() {
        // Slack 4: pushing 30 releases 1 and 2, then 3 is too late. The
        // released prefix reaches the core before the error is reported,
        // so the pipeline (and a checkpoint of it) accounts for every
        // accepted event — on the columnar and the row-oriented path.
        let q = query(&[w(10, 10)], AggregateFunction::Sum);
        let plan = fw_core::rewrite::original_plan(&q);
        let opts = PipelineOptions {
            out_of_order: 4,
            ..PipelineOptions::collecting()
        };
        let times = [1u64, 2, 30, 3];
        let values = [1.0, 2.0, 4.0, 8.0];
        for columnar in [true, false] {
            let mut pipeline = PlanPipeline::compile(&plan, opts).unwrap();
            let err = if columnar {
                pipeline.push_columns(&times, &[0; 4], &values)
            } else {
                let rows: Vec<Event> = (0..4).map(|i| Event::new(times[i], 0, values[i])).collect();
                pipeline.push_batch(&rows)
            }
            .unwrap_err();
            assert!(matches!(err, EngineError::OutOfOrderEvent { at: 3, .. }));
            assert_eq!(pipeline.events_processed(), 2);
            assert_eq!(pipeline.buffered(), 1);

            let mut snapshot = Vec::new();
            pipeline.checkpoint(&plan, &mut snapshot).unwrap();
            let restored = PlanPipeline::restore(&plan, opts, &mut snapshot.as_slice()).unwrap();
            let (a, b) = (pipeline.finish().unwrap(), restored.finish().unwrap());
            assert_eq!((a.events_processed, b.events_processed), (3, 3));
            let values = |out: RunOutput| -> Vec<f64> {
                sorted_results(out.results)
                    .iter()
                    .map(|r| r.value)
                    .collect()
            };
            // [0, 10) holds 1 + 2; the stream ends inside [30, 40).
            assert_eq!(values(a), vec![3.0]);
            assert_eq!(values(b), vec![3.0]);
        }
    }

    #[test]
    fn tolerance_still_rejects_excess_disorder() {
        let q = query(&[w(10, 10)], AggregateFunction::Min);
        let plan = fw_core::rewrite::original_plan(&q);
        let opts = PipelineOptions {
            out_of_order: 5,
            ..PipelineOptions::default()
        };
        let mut pipeline = PlanPipeline::compile(&plan, opts).unwrap();
        pipeline.push(Event::new(100, 0, 1.0)).unwrap();
        let err = pipeline.push(Event::new(10, 0, 1.0)).unwrap_err();
        assert!(matches!(err, EngineError::OutOfOrderEvent { at: 10, .. }));
    }
}
