//! The `Session`/`Pipeline` façade: one API from SQL text (or a built
//! [`WindowQuery`]) to incremental streaming execution.
//!
//! The paper's pitch is that factor-window rewriting is a drop-in
//! optimization for any engine with a declarative frontend. This module is
//! that drop-in surface for the reproduction: a [`Session`] builder runs
//! the cost-based optimizer once, selects a plan per the [`PlanChoice`]
//! policy, and compiles it into a long-lived [`Pipeline`] with a push API
//! ([`Pipeline::push`], [`Pipeline::advance_watermark`],
//! [`Pipeline::poll_results`], [`Pipeline::finish`]). Out-of-order input
//! within a configured tolerance is repaired transparently, and
//! [`Session::parallelism`] shards execution by key across worker threads
//! without changing the API or the results.
//!
//! Queries may carry several aggregate terms
//! (`SELECT MIN(T), MAX(T), AVG(T) …`): they execute over one shared pane
//! flow, results come back tagged with the term index
//! ([`WindowResult::agg`]), and [`Pipeline::label_of`] resolves the tag to
//! the term's SQL label.
//!
//! ```
//! use factor_windows::{PlanChoice, Session};
//! use factor_windows::engine::Event;
//!
//! let sql = "SELECT DeviceID, MIN(T) FROM Input GROUP BY DeviceID, Windows( \
//!                Window('fast', TumblingWindow(second, 10)), \
//!                Window('slow', TumblingWindow(second, 30)))";
//! let mut pipeline = Session::from_sql(sql)?
//!     .plan_choice(PlanChoice::Auto)
//!     .collect_results(true)
//!     .build()?;
//!
//! for t in 0..35u64 {
//!     pipeline.push(Event::new(t, 0, (t % 7) as f64))?;
//! }
//! pipeline.advance_watermark(30)?; // everything ending by t=30 seals
//! let sealed = pipeline.poll_results();
//! assert_eq!(sealed.len(), 4); // three 10s instances + one 30s instance
//! let out = pipeline.finish()?;
//! assert_eq!(out.events_processed, 35);
//! # Ok::<(), factor_windows::ApiError>(())
//! ```

use crate::profile::PlanProfile;
use fw_core::{
    AdaptivePlanner, CostModel, Error as CoreError, OptimizationOutcome, Optimizer, PlanBundle,
    PlanChoice, QueryPlan, RateEstimator, Semantics, WindowQuery,
};
use fw_dist::DistPipeline;
use fw_engine::{
    CheckpointError, EngineError, Event, ExecBackend, ExecStats, NodeProfile, Parallelism,
    PipelineOptions, PlanPipeline, ProfileLevel, RunOutput, ShardedPipeline, Throughput,
    TraceEvent, TraceEventKind, TraceRing, WindowResult,
};
use fw_sql::ParseError;
use std::cell::OnceCell;
use std::fmt;

/// Any failure on the SQL → optimizer → engine path.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiError {
    /// The SQL text did not parse (or violated the window model).
    Parse(ParseError),
    /// The optimizer rejected the query (semantics, overflow, ...).
    Optimize(CoreError),
    /// The engine rejected the plan or the stream.
    Engine(EngineError),
    /// A group operation referenced a query id the group never issued (or
    /// one that was already deregistered).
    UnknownQuery {
        /// The unresolved id.
        id: fw_core::QueryId,
    },
    /// A checkpoint could not be written, or a snapshot could not be
    /// restored (I/O failure, corruption, or a mismatched query).
    Checkpoint(CheckpointError),
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::Parse(e) => write!(f, "parse error: {} (byte {})", e.message, e.offset),
            ApiError::Optimize(e) => write!(f, "optimizer error: {e}"),
            ApiError::Engine(e) => write!(f, "engine error: {e}"),
            ApiError::UnknownQuery { id } => write!(f, "unknown query {id} in this group"),
            ApiError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for ApiError {}

impl From<ParseError> for ApiError {
    fn from(e: ParseError) -> Self {
        ApiError::Parse(e)
    }
}

impl From<CoreError> for ApiError {
    fn from(e: CoreError) -> Self {
        ApiError::Optimize(e)
    }
}

impl From<EngineError> for ApiError {
    fn from(e: EngineError) -> Self {
        ApiError::Engine(e)
    }
}

impl From<CheckpointError> for ApiError {
    fn from(e: CheckpointError) -> Self {
        ApiError::Checkpoint(e)
    }
}

/// Result alias for the façade.
pub type ApiResult<T> = std::result::Result<T, ApiError>;

/// Runs one `EXPLAIN [ANALYZE]` SQL statement end-to-end — the
/// statement-level frontend over [`Session::explain`] /
/// [`Pipeline::explain`].
///
/// * `EXPLAIN <query>` optimizes the query and renders the plan report
///   with the cost model's predicted pane flow; nothing executes and
///   `events` are ignored.
/// * `EXPLAIN ANALYZE <query>` compiles the winning plan with node
///   counters on ([`ProfileLevel::Counters`]), streams `events` through
///   it in order, advances the watermark far enough to seal every opened
///   window, and renders the report joining observed per-node counters
///   against the prediction.
/// * A statement without an `EXPLAIN` prefix is rejected: standing
///   queries execute through [`Session`], not through this one-shot
///   reporting path.
pub fn explain_sql(sql: &str, events: &[Event]) -> ApiResult<String> {
    let (analyze, parsed) = match fw_sql::parse_statement(sql)? {
        fw_sql::ParsedStatement::Explain { analyze, query } => (analyze, query),
        fw_sql::ParsedStatement::Query(_) => {
            return Err(ApiError::Parse(ParseError {
                message: "expected an EXPLAIN [ANALYZE] statement \
                          (plain queries execute through Session)"
                    .to_string(),
                offset: 0,
            }))
        }
    };
    let query = parsed.to_window_query()?;
    let max_range = query
        .windows()
        .iter()
        .map(fw_core::Window::range)
        .max()
        .unwrap_or(0);
    let session = Session::from_query(query).profiling(ProfileLevel::Counters);
    if !analyze {
        return session.explain();
    }
    let mut pipeline = session.build()?;
    pipeline.push_batch(events)?;
    if let Some(last) = events.last() {
        // Seal every window the batch opened: the latest event's window
        // instances all close by `last.time + max_range`.
        pipeline.advance_watermark(last.time.saturating_add(max_range))?;
    }
    pipeline.explain()
}

/// A configured query session: the single entry point from a declarative
/// query to an executing pipeline.
///
/// The session is a builder. Construction ([`Session::from_sql`] /
/// [`Session::from_query`]) captures the query; the setters configure the
/// cost model, coverage semantics, plan-choice policy, out-of-order
/// tolerance, and result collection; [`Session::build`] runs the optimizer
/// (once — the outcome is cached across repeated builds) and compiles the
/// chosen plan into a [`Pipeline`].
#[derive(Debug, Clone)]
pub struct Session {
    query: WindowQuery,
    model: CostModel,
    semantics: Option<Semantics>,
    choice: PlanChoice,
    out_of_order: u64,
    collect: bool,
    element_work: u32,
    profile: ProfileLevel,
    parallelism: Parallelism,
    /// Re-optimization drift threshold; `Some` enables adaptive planning.
    adaptive: Option<f64>,
    outcome: OnceCell<OptimizationOutcome>,
}

impl Session {
    /// Starts a session from ASA-flavored SQL (see [`fw_sql`]).
    pub fn from_sql(sql: &str) -> ApiResult<Self> {
        Ok(Session::from_query(fw_sql::parse_to_query(sql)?))
    }

    /// Starts a session from an already-built [`WindowQuery`].
    #[must_use]
    pub fn from_query(query: WindowQuery) -> Self {
        Session {
            query,
            model: CostModel::default(),
            semantics: None,
            choice: PlanChoice::Auto,
            out_of_order: 0,
            collect: false,
            element_work: fw_engine::DEFAULT_ELEMENT_WORK,
            profile: ProfileLevel::Off,
            parallelism: Parallelism::Sequential,
            adaptive: None,
            outcome: OnceCell::new(),
        }
    }

    /// Sets the cost model (ingestion rate η). Resets any cached
    /// optimization.
    #[must_use]
    pub fn cost_model(mut self, model: CostModel) -> Self {
        self.model = model;
        self.outcome = OnceCell::new();
        self
    }

    /// Pins the coverage semantics instead of the function's default
    /// (covered-by for MIN/MAX, partitioned-by for SUM/COUNT/AVG). Resets
    /// any cached optimization.
    #[must_use]
    pub fn semantics(mut self, semantics: Semantics) -> Self {
        self.semantics = Some(semantics);
        self.outcome = OnceCell::new();
        self
    }

    /// Sets the plan-choice policy (default [`PlanChoice::Auto`]). Does
    /// not re-run the optimizer: all three plans are produced once and the
    /// policy only selects among them.
    #[must_use]
    pub fn plan_choice(mut self, choice: PlanChoice) -> Self {
        self.choice = choice;
        self
    }

    /// Tolerates events arriving up to `tolerance` time units behind the
    /// observed maximum timestamp (repaired via the engine's reorder
    /// buffer). `0` (the default) demands in-order input.
    #[must_use]
    pub fn out_of_order(mut self, tolerance: u64) -> Self {
        self.out_of_order = tolerance;
        self
    }

    /// Collects results for [`Pipeline::poll_results`] /
    /// [`RunOutput::results`]. Off by default (count-only sink) so
    /// throughput measurements pay a constant sink cost.
    #[must_use]
    pub fn collect_results(mut self, collect: bool) -> Self {
        self.collect = collect;
        self
    }

    /// Overrides the emulated per-element work
    /// ([`fw_engine::DEFAULT_ELEMENT_WORK`]); `0` disables the emulation.
    #[must_use]
    pub fn element_work(mut self, element_work: u32) -> Self {
        self.element_work = element_work;
        self
    }

    /// Sets the per-plan-node instrumentation level (default
    /// [`ProfileLevel::Off`]). [`ProfileLevel::Counters`] attributes
    /// updates, combines, seals, emitted rows, and pane occupancy to each
    /// plan node ([`Pipeline::profile`] / [`Pipeline::explain`]);
    /// [`ProfileLevel::Timed`] adds sampled per-node nanoseconds.
    /// Profiling is observation-only — results are bit-identical at every
    /// level.
    #[must_use]
    pub fn profiling(mut self, profile: ProfileLevel) -> Self {
        self.profile = profile;
        self
    }

    /// Enables adaptive re-optimization ([`fw_core::AdaptivePlanner`]):
    /// the pipeline estimates the observed ingestion rate (EWMA over
    /// event timestamps) and, at every [`Pipeline::advance_watermark`]
    /// boundary, re-runs the cost-based optimizer when the rate has
    /// drifted from the planned rate by at least `threshold` (a ratio
    /// greater than 1; e.g. `1.5` means ±50% drift). A re-optimization that changes
    /// the winning plan swaps it in place — window state migrates, so
    /// results are identical to a fixed-plan run, and
    /// [`fw_engine::ExecStats::replans`] counts the swaps.
    ///
    /// Rejected at build time for all-holistic queries, whose three plans
    /// are identical at every rate.
    #[must_use]
    pub fn adaptive(mut self, threshold: f64) -> Self {
        self.adaptive = Some(threshold);
        self
    }

    /// A no-op kept for source compatibility: every pipeline can
    /// [`Pipeline::checkpoint`] and restore, whatever this is set to. (It
    /// used to select a slower, exportable compile path.)
    #[must_use]
    pub fn durable(self, _durable: bool) -> Self {
        self
    }

    /// Shards execution by key across worker threads
    /// ([`fw_engine::ShardedPipeline`]). The default,
    /// [`Parallelism::Sequential`], keeps the single-threaded in-process
    /// engine; [`Parallelism::Auto`] spawns one worker per available
    /// core; [`Parallelism::Fixed`]`(n)` pins the worker count. Results
    /// are identical across all settings (canonically ordered for the
    /// sharded backends).
    #[must_use]
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The query this session serves.
    #[must_use]
    pub fn query(&self) -> &WindowQuery {
        &self.query
    }

    /// Runs the cost-based optimizer (cached after the first call) and
    /// returns the full outcome: all three plan bundles, their costs, and
    /// the optimization timings.
    pub fn optimize(&self) -> ApiResult<&OptimizationOutcome> {
        if let Some(outcome) = self.outcome.get() {
            return Ok(outcome);
        }
        let outcome = match self.semantics {
            Some(semantics) => self
                .model_optimizer()
                .optimize_with(&self.query, semantics)?,
            None => self.model_optimizer().optimize(&self.query)?,
        };
        let _ = self.outcome.set(outcome);
        Ok(self.outcome.get().expect("just set"))
    }

    fn model_optimizer(&self) -> Optimizer {
        Optimizer::new(self.model)
    }

    /// The plan bundle the current policy selects.
    pub fn selected_plan(&self) -> ApiResult<&PlanBundle> {
        Ok(self.optimize()?.select(self.choice))
    }

    /// The plain `EXPLAIN` report for the selected plan: the cost
    /// model's predicted per-node pane flow, with no execution required
    /// (the observed side is absent). For the runtime join, build the
    /// pipeline and use [`Pipeline::profile`].
    pub fn plan_profile(&self) -> ApiResult<PlanProfile> {
        let outcome = self.optimize()?;
        let bundle = outcome.select(self.choice);
        let choice = outcome.resolve(self.choice);
        Ok(PlanProfile::assemble(
            &bundle.plan,
            &self.model,
            choice,
            bundle.cost,
            self.profile,
            false,
            0,
            ExecStats::default(),
            Vec::new(),
            0,
            None,
        )?)
    }

    /// Renders [`Session::plan_profile`] as text — what the SQL layer's
    /// `EXPLAIN <stmt>` prints.
    pub fn explain(&self) -> ApiResult<String> {
        Ok(self.plan_profile()?.render())
    }

    /// The concrete plan choice the current policy resolves to.
    pub fn resolved_choice(&self) -> ApiResult<PlanChoice> {
        Ok(self.optimize()?.resolve(self.choice))
    }

    /// Optimizes (once) and compiles the chosen plan into a long-lived
    /// [`Pipeline`]. Repeated builds reuse the cached optimization and
    /// only recompile operator state, so measuring several fresh pipelines
    /// is cheap. With [`Session::parallelism`] set, the pipeline
    /// transparently runs on the key-sharded multi-core backend.
    pub fn build(&self) -> ApiResult<Pipeline> {
        // Distributed parallelism dispatches on the variant, not the
        // shard count: the same worker number means processes there,
        // threads here.
        self.pipeline_on(|plan, options| {
            Ok(match self.parallelism {
                Parallelism::Distributed { workers } => {
                    Box::new(DistPipeline::compile(plan, options, workers)?)
                }
                parallelism => match parallelism.shard_count() {
                    0 => Box::new(PlanPipeline::compile(plan, options)?),
                    shards => Box::new(ShardedPipeline::compile(plan, options, shards)?),
                },
            })
        })
    }

    /// Selects the plan, lets `backend` compile or restore it at this
    /// session's options, and wraps the result with the plan's provenance.
    fn pipeline_on(
        &self,
        backend: impl FnOnce(&QueryPlan, PipelineOptions) -> ApiResult<Box<dyn ExecBackend>>,
    ) -> ApiResult<Pipeline> {
        let outcome = self.optimize()?;
        let bundle = outcome.select(self.choice).clone();
        let options = PipelineOptions {
            collect: self.collect,
            element_work: self.element_work,
            out_of_order: self.out_of_order,
            profile: self.profile,
        };
        Ok(Pipeline {
            adaptive: self.adaptive_state(outcome.semantics)?,
            backend: backend(&bundle.plan, options)?,
            bundle,
            choice: outcome.resolve(self.choice),
            semantics: outcome.semantics,
            model: self.model,
            profile: self.profile,
            trace: TraceRing::default(),
            seen_emitted: 0,
            seen_compactions: 0,
        })
    }

    /// Builds the [`AdaptiveState`] for this configuration (`None` unless
    /// [`Session::adaptive`] was set).
    fn adaptive_state(&self, semantics: Option<Semantics>) -> ApiResult<Option<AdaptiveState>> {
        match self.adaptive {
            None => Ok(None),
            Some(threshold) => {
                let semantics = semantics.ok_or(CoreError::HolisticFunction {
                    function: self.query.function().name(),
                })?;
                let planner = AdaptivePlanner::from_model(
                    self.query.clone(),
                    semantics,
                    self.model,
                    threshold,
                )?;
                Ok(Some(AdaptiveState {
                    planner,
                    estimator: RateEstimator::new(ADAPTIVE_EWMA_ALPHA),
                    requested: self.choice,
                    observed_max: 0,
                }))
            }
        }
    }

    /// Rebuilds a pipeline from a [`Pipeline::checkpoint`] snapshot at
    /// this session's configuration. The session must describe the same
    /// query the snapshot was taken from — a snapshot carries no plan;
    /// slot identities are re-derived by re-running the deterministic
    /// optimizer. [`Session::parallelism`] may differ freely from the
    /// checkpointing run: the snapshot is shard-count-free, so a
    /// checkpoint taken at N shards restores into M worker threads (or
    /// the single-threaded backend) with byte-identical results.
    ///
    /// Adaptive rate-estimator state is deliberately not part of a
    /// snapshot — a restored adaptive session re-learns the observed rate
    /// from the replayed stream.
    pub fn restore<R: std::io::Read + ?Sized>(&self, r: &mut R) -> ApiResult<Pipeline> {
        let mut pipeline = self.pipeline_on(|plan, options| {
            Ok(match self.parallelism {
                Parallelism::Distributed { workers } => {
                    // The distributed restore re-partitions the document
                    // itself; slurp the reader (checkpoints are
                    // in-memory/file sized).
                    let mut doc = Vec::new();
                    r.read_to_end(&mut doc).map_err(CheckpointError::from)?;
                    Box::new(DistPipeline::restore(plan, options, workers, &doc)?)
                }
                parallelism => match parallelism.shard_count() {
                    0 => Box::new(PlanPipeline::restore(plan, options, r)?),
                    shards => Box::new(ShardedPipeline::restore(plan, options, shards, r)?),
                },
            })
        })?;
        let watermark = pipeline.watermark();
        let events = pipeline.events_processed();
        pipeline
            .trace
            .record(TraceEventKind::Resume, watermark, events);
        Ok(pipeline)
    }

    /// Convenience: build a pipeline, feed a whole in-order batch, finish.
    pub fn run_batch(&self, events: &[Event]) -> ApiResult<RunOutput> {
        let mut pipeline = self.build()?;
        pipeline.push_batch(events)?;
        pipeline.finish()
    }

    /// Measures the chosen plan's throughput over `events`: one warm-up
    /// run plus `repeats` measured runs, each on a freshly compiled
    /// pipeline with a count-only sink (the collect flag is ignored so
    /// sink costs stay constant across plans).
    pub fn measure_throughput(&self, events: &[Event], repeats: u32) -> ApiResult<Throughput> {
        let repeats = repeats.max(1);
        let session = self.clone().collect_results(false);
        session.optimize()?; // do not charge optimization to the warm-up
        session.run_batch(events)?; // warm-up: page in data, train branches
        let mut total = 0.0;
        let mut best = 0.0f64;
        for _ in 0..repeats {
            let eps = session.run_batch(events)?.throughput_eps();
            total += eps;
            best = best.max(eps);
        }
        Ok(Throughput {
            mean_eps: total / f64::from(repeats),
            best_eps: best,
            runs: repeats,
        })
    }
}

/// EWMA weight of the newest rate observation for adaptive sessions: a
/// compromise between convergence speed (a few dozen time units) and
/// robustness against bursty arrivals.
const ADAPTIVE_EWMA_ALPHA: f64 = 0.2;

/// Runtime state of an adaptive pipeline: the rate estimator fed on every
/// push and the planner consulted at watermark boundaries.
#[derive(Debug, Clone)]
struct AdaptiveState {
    planner: AdaptivePlanner,
    estimator: RateEstimator,
    /// The session's plan-choice policy, re-applied after each
    /// re-optimization.
    requested: PlanChoice,
    /// Maximum event time fed to the estimator, which requires
    /// non-decreasing observations: late events (repaired by the reorder
    /// buffer before they reach the operators) are skipped rather than
    /// rewinding the estimator's time unit.
    observed_max: u64,
}

impl AdaptiveState {
    fn observe(&mut self, time: u64) {
        if time >= self.observed_max {
            self.estimator.observe(time);
            self.observed_max = time;
        }
    }
}

/// A compiled, long-lived execution pipeline produced by
/// [`Session::build`].
///
/// Wraps the engine's [`PlanPipeline`] (or, with [`Session::parallelism`],
/// a [`ShardedPipeline`]) together with the provenance of the plan it runs
/// (which [`PlanChoice`] won, at what modeled cost, under which
/// semantics). The two backends produce identical results; on the sharded
/// backend, engine errors may surface one call later than the event that
/// caused them (feeding is asynchronous), and polls are merged into
/// canonical `(window, instance, key)` order.
#[derive(Debug)]
pub struct Pipeline {
    backend: Box<dyn ExecBackend>,
    bundle: PlanBundle,
    choice: PlanChoice,
    semantics: Option<Semantics>,
    adaptive: Option<AdaptiveState>,
    /// The cost model the executing plan was priced under (rate refreshed
    /// on adaptive replans) — the predicted side of [`Pipeline::profile`].
    model: CostModel,
    /// The session's instrumentation level, echoed into reports.
    profile: ProfileLevel,
    /// Structured lifecycle log (seals, replans, checkpoints, interner
    /// compactions): the cores only count, the facade owns the ring.
    trace: TraceRing,
    /// Emitted-rows count at the last recorded boundary (seal deltas).
    seen_emitted: u64,
    /// Compaction count at the last recorded boundary (delta detection).
    seen_compactions: u64,
}

impl Pipeline {
    /// Pushes one event. Out-of-order input within the session's tolerance
    /// is repaired; anything later is an [`EngineError::OutOfOrderEvent`].
    pub fn push(&mut self, event: Event) -> ApiResult<()> {
        self.backend.push(event)?;
        if let Some(state) = &mut self.adaptive {
            state.observe(event.time);
        }
        Ok(())
    }

    /// Pushes a batch of in-order events (timed once around the batch;
    /// scattered by key in one pass on the sharded backend).
    pub fn push_batch(&mut self, events: &[Event]) -> ApiResult<()> {
        self.backend.push_batch(events)?;
        if let Some(state) = &mut self.adaptive {
            for event in events {
                state.observe(event.time);
            }
        }
        Ok(())
    }

    /// Pushes a columnar batch (equal-length timestamp/key/value slices) —
    /// the zero-copy ingestion primitive. On the single-threaded backend
    /// the columns are fed to the operators without materializing a single
    /// `Event`; on the sharded backend they are scattered column-to-column
    /// into the per-shard batches. Results are identical to pushing the
    /// same events through [`Self::push`] or [`Self::push_batch`].
    /// An [`fw_engine::EventBatch`] provides the columns via
    /// `batch.columns()`.
    pub fn push_columns(&mut self, times: &[u64], keys: &[u32], values: &[f64]) -> ApiResult<()> {
        self.backend.push_columns(times, keys, values)?;
        if let Some(state) = &mut self.adaptive {
            for &time in times {
                state.observe(time);
            }
        }
        Ok(())
    }

    /// Declares that no event before `watermark` will arrive: flushes the
    /// reorder buffer up to it and seals every window instance ending at
    /// or before it (broadcast to every shard on the sharded backend).
    ///
    /// On an adaptive session ([`Session::adaptive`]) this is also the
    /// re-optimization point: if the observed rate has drifted past the
    /// threshold and the re-derived winning plan differs, the pipeline
    /// swaps plans in place before returning (results are unaffected —
    /// window state migrates across the swap).
    pub fn advance_watermark(&mut self, watermark: u64) -> ApiResult<()> {
        self.backend.advance_watermark(watermark)?;
        self.note_boundary(watermark);
        self.maybe_replan(watermark)
    }

    /// Records the boundary in the trace ring: the seal itself, plus any
    /// interner compactions the core performed since the last boundary
    /// (the cores only maintain counters; the facade owns the ring, so
    /// the hot path stays allocation-free). On the sharded and
    /// distributed backends the payload counts stay zero — reading them
    /// would synchronize every worker at every watermark.
    fn note_boundary(&mut self, watermark: u64) {
        let (emitted, compactions) = self
            .backend
            .seal_counters()
            .unwrap_or((self.seen_emitted, self.seen_compactions));
        self.trace
            .record(TraceEventKind::Seal, watermark, emitted - self.seen_emitted);
        if compactions > self.seen_compactions {
            self.trace
                .record(TraceEventKind::Compaction, watermark, compactions);
        }
        self.seen_emitted = emitted;
        self.seen_compactions = compactions;
    }

    /// Consults the adaptive planner (no-op for static sessions): on a
    /// rate drift past the threshold, re-optimizes and swaps the plan at
    /// `watermark` if the plan the session's policy now selects differs
    /// from the executing one. The comparison is against the *selected*
    /// plan, not the planner's topology-change signal: under
    /// [`PlanChoice::Auto`] a rate change can flip which bundle is
    /// cheapest even when every bundle's topology is unchanged.
    fn maybe_replan(&mut self, watermark: u64) -> ApiResult<()> {
        let Some(state) = &mut self.adaptive else {
            return Ok(());
        };
        let Some(rate) = state.estimator.rate() else {
            return Ok(());
        };
        let _ = state.planner.observe_rate(rate)?;
        let outcome = state.planner.current();
        let bundle = outcome.select(state.requested);
        if bundle.plan == self.bundle.plan {
            return Ok(());
        }
        let bundle = bundle.clone();
        let choice = outcome.resolve(state.requested);
        self.backend.rebuild(&bundle.plan, watermark)?;
        self.bundle = bundle;
        self.choice = choice;
        // Keep the profile's predicted side honest: the executing plan is
        // now priced at the planner's refreshed rate.
        self.model = self.model.with_rate(state.planner.planned_rate());
        if let Some(r) = state.planner.last_replan() {
            let ratio_milli = (r.ratio * 1000.0).round() as u64;
            self.trace.record(
                TraceEventKind::Replan,
                r.observed.round() as u64,
                ratio_milli,
            );
        }
        self.trace
            .record(TraceEventKind::Rebuild, watermark, state.planner.replans());
        Ok(())
    }

    /// Writes a self-describing binary snapshot of the pipeline's live
    /// state — open panes, slot accumulators, the reorder buffer,
    /// undelivered results, cumulative accounting, and the sealing
    /// watermark — and keeps streaming (checkpointing is transparent: the
    /// pipeline's subsequent results are unaffected). Restore the bytes
    /// with [`Session::restore`], then replay the stream suffix starting
    /// at event number [`Pipeline::events_processed`] as observed at
    /// checkpoint time; recovery is then exactly-once — no window is
    /// emitted twice or skipped.
    pub fn checkpoint<W: std::io::Write + ?Sized>(&mut self, w: &mut W) -> ApiResult<()> {
        let doc = self.backend.export_snapshot(&self.bundle.plan)?;
        w.write_all(&doc).map_err(CheckpointError::from)?;
        let watermark = self.watermark();
        let events = self.events_processed();
        self.trace
            .record(TraceEventKind::Checkpoint, watermark, events);
        Ok(())
    }

    /// Drains the results collected since the last poll (always empty
    /// unless the session enabled [`Session::collect_results`]). On the
    /// sharded backend this is a synchronizing barrier and the merged
    /// results come back canonically ordered.
    #[must_use]
    pub fn poll_results(&mut self) -> Vec<WindowResult> {
        self.backend.poll_results()
    }

    /// Ends the stream and returns the run's accounting plus any results
    /// not yet polled.
    pub fn finish(self) -> ApiResult<RunOutput> {
        Ok(self.backend.finish()?)
    }

    /// The logical plan this pipeline executes.
    #[must_use]
    pub fn plan(&self) -> &QueryPlan {
        &self.bundle.plan
    }

    /// The aggregate terms this pipeline evaluates, in SELECT-list order.
    /// A [`WindowResult::agg`] index points into this slice; for
    /// single-aggregate queries it is the one-element list.
    #[must_use]
    pub fn aggregates(&self) -> &[fw_core::AggregateSpec] {
        self.bundle.plan.aggregates()
    }

    /// The label of the aggregate term that produced `result` (the SQL
    /// `AS` alias, `FUNC(column)`, or the bare function name).
    #[must_use]
    pub fn label_of(&self, result: &WindowResult) -> &str {
        self.aggregates()[result.agg as usize].label()
    }

    /// The modeled cost of the executing plan.
    #[must_use]
    pub fn cost(&self) -> fw_core::Cost {
        self.bundle.cost
    }

    /// The concrete plan choice that was compiled (never
    /// [`PlanChoice::Auto`]).
    #[must_use]
    pub fn choice(&self) -> PlanChoice {
        self.choice
    }

    /// The coverage semantics the optimizer exploited (`None` when a
    /// holistic function fell back to the unshared plan).
    #[must_use]
    pub fn semantics(&self) -> Option<Semantics> {
        self.semantics
    }

    /// Events pushed into the pipeline so far, reorder-buffered and
    /// in-flight ones included — the replay cursor for
    /// [`Pipeline::checkpoint`]. The exact operator-fed count is in
    /// [`RunOutput::events_processed`].
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.backend.events_pushed()
    }

    /// Results emitted so far (including polled ones). A synchronizing
    /// snapshot on the sharded backend.
    #[must_use]
    pub fn results_emitted(&self) -> u64 {
        self.backend.results_emitted()
    }

    /// Current ordering watermark.
    #[must_use]
    pub fn watermark(&self) -> u64 {
        self.backend.watermark()
    }

    /// Cost-model element counts so far (cumulative across any adaptive
    /// plan swaps; [`ExecStats::replans`] counts the swaps). A
    /// synchronizing snapshot on the sharded backend.
    #[must_use]
    pub fn stats(&self) -> ExecStats {
        self.backend.stats()
    }

    /// Key-interner high-water mark as `(slots, bytes)`: the most
    /// distinct keys interned since the last slab compaction and the
    /// interner's table memory, summed across shards on the sharded
    /// backend (a synchronizing snapshot there). Observability only.
    #[must_use]
    pub fn interner_stats(&self) -> (u64, u64) {
        self.backend.interner_stats()
    }

    /// Per-plan-node observed counters (empty vectors of zeros unless the
    /// session enabled [`Session::profiling`]): updates, combines, seals,
    /// emitted rows, pane-slab occupancy high-water, and sampled
    /// nanoseconds per node, summed across shards and across adaptive
    /// plan generations. A synchronizing snapshot on the sharded backend.
    #[must_use]
    pub fn node_profiles(&self) -> Vec<NodeProfile> {
        self.backend.node_profiles()
    }

    /// The `EXPLAIN ANALYZE` report: every plan node's observed counters
    /// joined with the cost model's predicted pane flow, plus the global
    /// [`ExecStats`] the per-node rows reconcile with and the last
    /// adaptive replan's observed/planned drift. Works at any
    /// [`ProfileLevel`] — with profiling off the observed side is zero.
    pub fn profile(&self) -> ApiResult<PlanProfile> {
        let observed = self.node_profiles();
        Ok(PlanProfile::assemble(
            &self.bundle.plan,
            &self.model,
            self.choice,
            self.bundle.cost,
            self.profile,
            true,
            self.watermark(),
            self.stats(),
            observed,
            self.replans(),
            self.adaptive
                .as_ref()
                .and_then(|s| s.planner.last_replan().copied()),
        )?)
    }

    /// Renders [`Pipeline::profile`] as fixed-layout text — what the SQL
    /// layer's `EXPLAIN ANALYZE <stmt>` prints.
    pub fn explain(&self) -> ApiResult<String> {
        Ok(self.profile()?.render())
    }

    /// Drains the structured trace events recorded since the last drain
    /// (watermark seals, adaptive replans and rebuilds, checkpoints,
    /// interner compactions, restore resumes), oldest first. The ring is
    /// bounded ([`fw_engine::DEFAULT_TRACE_CAP`]) and allocation-free on
    /// the recording side; overwritten events are counted in
    /// [`Pipeline::trace_dropped`].
    pub fn drain_trace(&mut self, out: &mut Vec<TraceEvent>) {
        self.trace.drain_into(out);
    }

    /// Trace events overwritten in the ring before being drained.
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        self.trace.dropped()
    }

    /// The audit log of adaptive replans (empty on non-adaptive
    /// sessions): each entry records the observed/predicted rate ratio
    /// that triggered the re-optimization and whether the plan changed.
    #[must_use]
    pub fn replan_log(&self) -> &[fw_core::ReplanRecord] {
        self.adaptive
            .as_ref()
            .map_or(&[], |s| s.planner.replan_log())
    }

    /// The adaptive planner's current ingestion-rate estimate (events per
    /// time unit); `None` on non-adaptive sessions or before the first
    /// full time unit has been observed.
    #[must_use]
    pub fn observed_rate(&self) -> Option<f64> {
        self.adaptive.as_ref().and_then(|s| s.estimator.rate())
    }

    /// The rate the currently executing plan was optimized for (the cost
    /// model's η on non-adaptive sessions).
    #[must_use]
    pub fn planned_rate(&self) -> Option<u64> {
        self.adaptive.as_ref().map(|s| s.planner.planned_rate())
    }

    /// Adaptive re-optimizations performed so far (`0` on non-adaptive
    /// sessions; also reported as [`ExecStats::replans`], where only the
    /// re-optimizations that actually changed the plan perform a swap).
    #[must_use]
    pub fn replans(&self) -> u64 {
        self.adaptive.as_ref().map_or(0, |s| s.planner.replans())
    }

    /// Events currently held in the reorder buffer (single-threaded) or
    /// the ingest-side scatter buffers (sharded).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.backend.buffered()
    }

    /// Number of shard worker threads or processes (`0` on the
    /// single-threaded backend).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.backend.shards()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_core::{AggregateFunction, Window, WindowSet};
    use fw_engine::sorted_results;

    fn demo_query() -> WindowQuery {
        let windows = WindowSet::new(vec![
            Window::tumbling(20).unwrap(),
            Window::tumbling(30).unwrap(),
            Window::tumbling(40).unwrap(),
        ])
        .unwrap();
        WindowQuery::new(windows, AggregateFunction::Min)
    }

    fn stream(n: u64) -> Vec<Event> {
        (0..n)
            .map(|t| Event::new(t, (t % 3) as u32, ((t * 7) % 23) as f64))
            .collect()
    }

    #[test]
    fn auto_resolves_to_the_cheapest_plan() {
        let session = Session::from_query(demo_query());
        assert_eq!(session.resolved_choice().unwrap(), PlanChoice::Factored);
        let pipeline = session.build().unwrap();
        assert_eq!(pipeline.choice(), PlanChoice::Factored);
        assert_eq!(pipeline.cost(), 150); // Example 7
    }

    #[test]
    fn all_choices_agree_on_results() {
        let events = stream(300);
        let mut all = Vec::new();
        for choice in PlanChoice::CONCRETE {
            let session = Session::from_query(demo_query())
                .plan_choice(choice)
                .collect_results(true);
            let out = session.run_batch(&events).unwrap();
            all.push(sorted_results(out.results));
        }
        assert!(!all[0].is_empty());
        assert_eq!(all[0], all[1]);
        assert_eq!(all[0], all[2]);
    }

    #[test]
    fn optimization_is_cached_across_builds() {
        let session = Session::from_query(demo_query());
        let first = session.optimize().unwrap() as *const OptimizationOutcome;
        let _ = session.build().unwrap();
        let _ = session.build().unwrap();
        let second = session.optimize().unwrap() as *const OptimizationOutcome;
        assert_eq!(first, second, "optimizer must run once per configuration");
    }

    #[test]
    fn cost_model_reset_invalidates_cache() {
        let session = Session::from_query(demo_query());
        let cost_at_1 = session.selected_plan().unwrap().cost;
        let session = session.cost_model(CostModel::new(4));
        let cost_at_4 = session.selected_plan().unwrap().cost;
        assert!(cost_at_4 > cost_at_1, "{cost_at_4} vs {cost_at_1}");
    }

    #[test]
    fn from_sql_round_trips_figure_one() {
        let session = Session::from_sql(fw_sql::FIG1_SQL).unwrap();
        assert_eq!(session.optimize().unwrap().original.cost, 21_600);
        let pipeline = session.build().unwrap();
        assert_eq!(pipeline.choice(), PlanChoice::Factored);
    }

    #[test]
    fn parse_errors_surface_as_api_errors() {
        let err = Session::from_sql("SELECT broken").unwrap_err();
        assert!(matches!(err, ApiError::Parse(_)), "{err}");
        assert!(err.to_string().contains("parse error"), "{err}");
    }

    #[test]
    fn semantics_violations_surface_as_api_errors() {
        let windows = WindowSet::new(vec![
            Window::tumbling(20).unwrap(),
            Window::tumbling(40).unwrap(),
        ])
        .unwrap();
        let query = WindowQuery::new(windows, AggregateFunction::Sum);
        let err = Session::from_query(query)
            .semantics(Semantics::CoveredBy)
            .build()
            .unwrap_err();
        assert!(matches!(err, ApiError::Optimize(_)), "{err}");
    }

    #[test]
    fn out_of_order_within_tolerance_is_repaired() {
        let ordered = stream(200);
        let mut jittered = ordered.clone();
        for chunk in jittered.chunks_mut(3) {
            chunk.reverse();
        }
        let session = Session::from_query(demo_query()).collect_results(true);
        let reference = session.run_batch(&ordered).unwrap();

        let tolerant = session.clone().out_of_order(4);
        let mut pipeline = tolerant.build().unwrap();
        for &e in &jittered {
            pipeline.push(e).unwrap();
        }
        let repaired = pipeline.finish().unwrap();
        assert_eq!(
            sorted_results(repaired.results),
            sorted_results(reference.results)
        );

        // Without tolerance the jitter is a hard error.
        let strict = session.run_batch(&jittered).unwrap_err();
        assert!(matches!(
            strict,
            ApiError::Engine(EngineError::OutOfOrderEvent { .. })
        ));
    }

    #[test]
    fn sharded_backends_match_sequential_results() {
        let events = stream(400);
        let sequential = Session::from_query(demo_query())
            .collect_results(true)
            .element_work(0)
            .run_batch(&events)
            .unwrap();
        for parallelism in [
            Parallelism::Auto,
            Parallelism::Fixed(1),
            Parallelism::Fixed(3),
        ] {
            let session = Session::from_query(demo_query())
                .collect_results(true)
                .element_work(0)
                .parallelism(parallelism);
            let mut pipeline = session.build().unwrap();
            assert!(pipeline.shards() >= 1, "{parallelism:?}");
            pipeline.push_batch(&events).unwrap();
            let out = pipeline.finish().unwrap();
            assert_eq!(out.events_processed, 400);
            assert_eq!(
                sorted_results(sequential.results.clone()),
                out.results,
                "{parallelism:?}"
            );
        }
    }

    #[test]
    fn sharded_incremental_push_with_watermarks_matches_batch() {
        let events = stream(300);
        let session = Session::from_query(demo_query())
            .collect_results(true)
            .element_work(0);
        let batch = session.run_batch(&events).unwrap();

        let mut pipeline = session.parallelism(Parallelism::Fixed(2)).build().unwrap();
        let mut collected = Vec::new();
        for (i, &event) in events.iter().enumerate() {
            pipeline.push(event).unwrap();
            if i % 120 == 119 {
                pipeline.advance_watermark(event.time).unwrap();
                collected.extend(pipeline.poll_results());
            }
        }
        let tail = pipeline.finish().unwrap();
        collected.extend(tail.results);
        assert_eq!(sorted_results(batch.results), sorted_results(collected));
    }

    #[test]
    fn multi_aggregate_sql_tags_results_with_labels() {
        let sql = "SELECT k, MIN(v) AS Low, MAX(v) AS High, COUNT(*) \
                   FROM S GROUP BY k, Windows( \
                       Window('fast', TumblingWindow(second, 10)), \
                       Window('slow', TumblingWindow(second, 20)))";
        let session = Session::from_sql(sql).unwrap().collect_results(true);
        let mut pipeline = session.build().unwrap();
        let labels: Vec<String> = pipeline
            .aggregates()
            .iter()
            .map(|s| s.label().to_string())
            .collect();
        assert_eq!(labels, vec!["Low", "High", "COUNT(*)"]);
        for t in 0..25u64 {
            pipeline.push(Event::new(t, 0, (t % 7) as f64)).unwrap();
        }
        pipeline.advance_watermark(20).unwrap();
        let sealed = pipeline.poll_results();
        // Two 10s instances + one 20s instance, three terms each.
        assert_eq!(sealed.len(), 3 * 3);
        for r in &sealed {
            let label = pipeline.label_of(r).to_string();
            assert_eq!(label, labels[r.agg as usize]);
        }
        // COUNT over [0,10) is 10 whatever the window.
        let count0 = sealed
            .iter()
            .find(|r| r.agg == 2 && r.interval.start == 0 && r.window.range() == 10)
            .unwrap();
        assert_eq!(count0.value, 10.0);
    }

    #[test]
    fn single_aggregate_pipelines_expose_one_term() {
        let pipeline = Session::from_query(demo_query()).build().unwrap();
        assert_eq!(pipeline.aggregates().len(), 1);
        assert_eq!(pipeline.aggregates()[0].label(), "MIN");
    }

    #[test]
    fn adaptive_session_replans_on_rate_drift_without_changing_results() {
        // The window set whose best factor structure differs between
        // η = 1 and η = 2+ (see fw_core::adaptive): a real rate jump must
        // trigger a replan, and the in-place plan swap must not disturb
        // results.
        let windows = WindowSet::new(
            [10u64, 20, 94, 100, 300]
                .map(|r| Window::tumbling(r).unwrap())
                .to_vec(),
        )
        .unwrap();
        let query = WindowQuery::new(windows, AggregateFunction::Min);

        // Phase 1: one event per time unit; phase 2: four per unit.
        let mut events = Vec::new();
        for t in 0..600u64 {
            events.push(Event::new(t, (t % 3) as u32, (t % 19) as f64));
        }
        for t in 600..1200u64 {
            for k in 0..4u32 {
                events.push(Event::new(t, k, ((t + u64::from(k)) % 19) as f64));
            }
        }

        let reference = Session::from_query(query.clone())
            .collect_results(true)
            .element_work(0)
            .run_batch(&events)
            .unwrap();

        for parallelism in [Parallelism::Sequential, Parallelism::Fixed(2)] {
            let session = Session::from_query(query.clone())
                .adaptive(1.5)
                .collect_results(true)
                .element_work(0)
                .parallelism(parallelism);
            let mut pipeline = session.build().unwrap();
            assert_eq!(pipeline.replans(), 0);
            let mut collected = Vec::new();
            for chunk in events.chunks(300) {
                pipeline.push_batch(chunk).unwrap();
                let watermark = pipeline.watermark();
                pipeline.advance_watermark(watermark).unwrap();
                collected.extend(pipeline.poll_results());
            }
            assert!(
                pipeline.replans() >= 1,
                "rate doubled but no replan ({parallelism:?})"
            );
            let rate = pipeline.observed_rate().unwrap();
            assert!(rate > 2.0, "estimator should see the jump, got {rate}");
            assert!(pipeline.planned_rate().unwrap() >= 2);
            let out = pipeline.finish().unwrap();
            assert!(out.stats.replans >= 1, "{parallelism:?}");
            collected.extend(out.results);
            assert_eq!(
                sorted_results(collected),
                sorted_results(reference.results.clone()),
                "adaptive replanning changed results under {parallelism:?}"
            );
        }
    }

    #[test]
    fn adaptive_session_tolerates_out_of_order_input() {
        // Late events are repaired by the reorder buffer before reaching
        // the operators; the rate estimator must skip them rather than
        // rewinding its time unit (a regression would panic in debug
        // builds and inflate the estimate in release).
        let windows = WindowSet::new(vec![
            Window::tumbling(20).unwrap(),
            Window::tumbling(40).unwrap(),
        ])
        .unwrap();
        let query = WindowQuery::new(windows, AggregateFunction::Min);
        let ordered = stream(400);
        let mut jittered = ordered.clone();
        for chunk in jittered.chunks_mut(4) {
            chunk.reverse();
        }
        let reference = Session::from_query(query.clone())
            .collect_results(true)
            .element_work(0)
            .run_batch(&ordered)
            .unwrap();
        let mut pipeline = Session::from_query(query)
            .adaptive(1.5)
            .out_of_order(4)
            .collect_results(true)
            .element_work(0)
            .build()
            .unwrap();
        for &e in &jittered {
            pipeline.push(e).unwrap();
        }
        let watermark = pipeline.watermark();
        pipeline.advance_watermark(watermark).unwrap();
        assert!(pipeline.observed_rate().is_some());
        let out = pipeline.finish().unwrap();
        assert_eq!(
            sorted_results(out.results),
            sorted_results(reference.results)
        );
    }

    #[test]
    fn adaptive_rejects_all_holistic_queries() {
        let windows = WindowSet::new(vec![Window::tumbling(20).unwrap()]).unwrap();
        let query = WindowQuery::new(windows, AggregateFunction::Median);
        let err = Session::from_query(query)
            .adaptive(1.5)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ApiError::Optimize(fw_core::Error::HolisticFunction { .. })
        ));
    }

    #[test]
    fn durable_pipeline_checkpoints_and_restores_across_parallelism() {
        let events = stream(400);
        let session = Session::from_query(demo_query())
            .collect_results(true)
            .element_work(0)
            .durable(true)
            .parallelism(Parallelism::Fixed(2));
        let reference = session.run_batch(&events).unwrap();

        let mut pipeline = session.build().unwrap();
        pipeline.push_batch(&events[..250]).unwrap();
        let cursor = pipeline.events_processed() as usize;
        assert_eq!(cursor, 250);
        let mut snapshot = Vec::new();
        pipeline.checkpoint(&mut snapshot).unwrap();

        // Checkpointing is transparent: the live pipeline streams on.
        pipeline.push_batch(&events[250..]).unwrap();
        let live = pipeline.finish().unwrap();
        assert_eq!(
            sorted_results(live.results),
            sorted_results(reference.results.clone())
        );

        // The snapshot restores at any parallelism (2 -> 0, 2 -> 4).
        for restorer in [
            session.clone().parallelism(Parallelism::Sequential),
            session.clone().parallelism(Parallelism::Fixed(4)),
        ] {
            let mut restored = restorer.restore(&mut snapshot.as_slice()).unwrap();
            restored.push_batch(&events[cursor..]).unwrap();
            let out = restored.finish().unwrap();
            assert_eq!(out.events_processed, 400);
            assert_eq!(
                sorted_results(out.results),
                sorted_results(reference.results.clone())
            );
        }
    }

    #[test]
    fn checkpoint_needs_no_durable_flag() {
        // `durable` no longer selects a compile path: a session built
        // without it checkpoints, restores and replays bit-identically,
        // and setting it changes nothing — the snapshots are the same
        // bytes.
        let events = stream(400);
        let session = Session::from_query(demo_query())
            .collect_results(true)
            .element_work(0);
        let reference = session.run_batch(&events).unwrap();
        let snapshot_at = |session: &Session| {
            let mut pipeline = session.build().unwrap();
            pipeline.push_batch(&events[..250]).unwrap();
            let delivered = pipeline.poll_results();
            let mut snapshot = Vec::new();
            pipeline.checkpoint(&mut snapshot).unwrap();
            (snapshot, delivered)
        };
        let (snapshot, mut delivered) = snapshot_at(&session);
        assert_eq!(snapshot, snapshot_at(&session.clone().durable(true)).0);

        let mut restored = session.restore(&mut snapshot.as_slice()).unwrap();
        assert_eq!(restored.events_processed(), 250);
        restored.push_batch(&events[250..]).unwrap();
        delivered.extend(restored.finish().unwrap().results);
        let bits = |rows: Vec<WindowResult>| -> Vec<(WindowResult, u64)> {
            sorted_results(rows)
                .into_iter()
                .map(|r| (r, r.value.to_bits()))
                .collect()
        };
        assert_eq!(bits(delivered), bits(reference.results));
    }

    #[test]
    fn restore_rejects_foreign_bytes() {
        let session = Session::from_query(demo_query());
        let err = session.restore(&mut &b"not a checkpoint"[..]).unwrap_err();
        assert!(matches!(
            err,
            ApiError::Checkpoint(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn throughput_measurement_reports_sane_numbers() {
        let session = Session::from_query(demo_query()).element_work(0);
        let tp = session.measure_throughput(&stream(5_000), 2).unwrap();
        assert!(tp.mean_eps > 0.0 && tp.mean_eps.is_finite());
        assert!(tp.best_eps >= tp.mean_eps * 0.5);
        assert_eq!(tp.runs, 2);
    }
}
