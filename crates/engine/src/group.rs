//! Group execution: one pane flow for many standing queries, with results
//! routed back to their originating query.
//!
//! [`GroupExec`] is the execution half of the query-group subsystem. It
//! runs the plan a [`fw_core::GroupPlan`] resolved to:
//!
//! * **Shared strategy** — one merged plan over the union of every
//!   member's windows, compiled onto one [`ExecBackend`] (every backend
//!   supports live plan swaps). Every emitted [`WindowResult`] is looked up in the
//!   routing table: `(window, merged slot)` fans out to each member that
//!   subscribed to that value, tagged with the member's id and its
//!   query-local SELECT index.
//! * **Per-query strategy** — one independent pipeline per member (the
//!   unshared fallback when sharing does not pay). Every event feeds every
//!   member's pipeline; results are tagged trivially.
//!
//! Members register and deregister at watermark boundaries via
//! [`GroupExec::rebuild`]: the group seals everything up to the boundary,
//! captures the outgoing members' final results, swaps the merged plan in
//! place (window state migrates; see `PlanPipeline::rebuild`), and
//! installs the new routing table. A member registered at watermark `w`
//! only receives results for instances starting at or after `w` (the
//! routing table's `since` filter) — it never observed the stream before.

use crate::checkpoint::{self, CheckpointError, CheckpointResult, PipelineImage};
use crate::error::{EngineError, Result};
use crate::event::{CanonicalOrder, Event, WindowResult};
use crate::executor::{ExecStats, PipelineOptions, PlanPipeline, RunOutput};
use crate::shard::ShardedPipeline;
use fw_core::{GroupPlan, GroupStrategy, QueryId, QueryPlan, Route, Window};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// An execution backend: the method surface [`PlanPipeline`],
/// [`ShardedPipeline`] and the socket-distributed coordinator of `fw-dist`
/// share, object-safe so [`GroupExec`] and the `factor_windows::Session`
/// façade hold one `Box<dyn ExecBackend>` whatever runs behind it (and so
/// a backend living in a downstream crate can be injected without
/// fw-engine depending on it). One virtual call per pushed batch.
///
/// Error-deferral contract: infallible-looking methods
/// ([`Self::poll_results`], the read-only accessors) may encounter
/// failures on another thread or process; such failures are recorded
/// internally and surfaced by the next fallible call.
pub trait ExecBackend: Send + std::fmt::Debug {
    /// Pushes one event (see [`PlanPipeline::push`]).
    fn push(&mut self, event: Event) -> Result<()> {
        self.push_columns(&[event.time], &[event.key], &[event.value])
    }
    /// Pushes a row-oriented batch (see [`PlanPipeline::push_batch`]).
    fn push_batch(&mut self, events: &[Event]) -> Result<()> {
        let batch = crate::batch::EventBatch::from_events(events);
        let (times, keys, values) = batch.columns();
        self.push_columns(times, keys, values)
    }
    /// Pushes one columnar batch (see [`PlanPipeline::push_columns`]).
    fn push_columns(&mut self, times: &[u64], keys: &[u32], values: &[f64]) -> Result<()>;
    /// Announces a watermark (see [`PlanPipeline::advance_watermark`]).
    fn advance_watermark(&mut self, watermark: u64) -> Result<()>;
    /// Drains collected results in canonical order.
    fn poll_results(&mut self) -> Vec<WindowResult>;
    /// Swaps the executing plan at a watermark boundary.
    fn rebuild(&mut self, plan: &QueryPlan, watermark: u64) -> Result<()>;
    /// Ends the stream and merges the accounting.
    fn finish(self: Box<Self>) -> Result<RunOutput>;
    /// The sealing watermark.
    fn watermark(&self) -> u64;
    /// Events accepted so far, buffered and in-flight ones included — the
    /// replay cursor a checkpoint taken now corresponds to.
    fn events_pushed(&self) -> u64;
    /// Results emitted so far (a synchronizing barrier off-thread).
    fn results_emitted(&self) -> u64;
    /// Cumulative cost-model accounting.
    fn stats(&self) -> ExecStats;
    /// Key-interner high-water `(slots, bytes)`.
    fn interner_stats(&self) -> (u64, u64);
    /// Per-plan-node profile counters (empty when profiling is off).
    fn node_profiles(&self) -> Vec<crate::profile::NodeProfile>;
    /// Events currently buffered on the ingest side.
    fn buffered(&self) -> usize;
    /// Worker threads or processes behind this backend (`0` when it runs
    /// on the caller's thread).
    fn shards(&self) -> usize {
        0
    }
    /// `(results emitted, interner compactions)` when reading them costs
    /// no synchronization — `None` for backends whose counters live on
    /// other threads or processes.
    fn seal_counters(&self) -> Option<(u64, u64)> {
        None
    }
    /// Exports a full `KIND_PIPELINE` snapshot document (header included,
    /// byte-compatible with [`PlanPipeline::checkpoint`]) and keeps
    /// streaming.
    fn export_snapshot(&mut self, plan: &QueryPlan) -> CheckpointResult<Vec<u8>>;
}

/// Constructs [`ExecBackend`] instances for [`GroupExec`]: the injection
/// point that lets a group's pipelines run on a backend fw-engine does
/// not know about (worker processes over sockets). The factory is kept
/// for the group's lifetime — per-query rebuilds compile arriving
/// members' pipelines through it.
pub trait BackendFactory: Send + Sync {
    /// Compiles a fresh backend for `plan`.
    fn compile(&self, plan: &QueryPlan, opts: PipelineOptions) -> Result<Box<dyn ExecBackend>>;

    /// Restores a backend from a full `KIND_PIPELINE` snapshot document
    /// (as produced by [`ExecBackend::export_snapshot`] or
    /// [`PlanPipeline::checkpoint`]).
    fn restore(
        &self,
        plan: &QueryPlan,
        opts: PipelineOptions,
        snapshot: &[u8],
    ) -> CheckpointResult<Box<dyn ExecBackend>>;
}

/// The in-process factory: `shards = 0` selects the single-threaded
/// [`PlanPipeline`], `shards ≥ 1` the key-partitioned [`ShardedPipeline`].
struct InProcess {
    shards: usize,
}

impl BackendFactory for InProcess {
    fn compile(&self, plan: &QueryPlan, opts: PipelineOptions) -> Result<Box<dyn ExecBackend>> {
        Ok(match self.shards {
            0 => Box::new(PlanPipeline::compile(plan, opts)?),
            n => Box::new(ShardedPipeline::compile(plan, opts, n)?),
        })
    }

    fn restore(
        &self,
        plan: &QueryPlan,
        opts: PipelineOptions,
        mut snapshot: &[u8],
    ) -> CheckpointResult<Box<dyn ExecBackend>> {
        Ok(match self.shards {
            0 => Box::new(PlanPipeline::restore(plan, opts, &mut snapshot)?),
            n => Box::new(ShardedPipeline::restore(plan, opts, n, &mut snapshot)?),
        })
    }
}

/// One result of a group run: a window value tagged with the member query
/// that subscribed to it. `result.agg` is the member's *query-local*
/// SELECT-list index (resolve it against that member's aggregate list, not
/// the merged plan's).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupResult {
    /// The member query this value belongs to.
    pub query: QueryId,
    /// The window value, with `agg` rewritten to the member's SELECT
    /// index.
    pub result: WindowResult,
}

/// Canonical ordering for comparing group result sets:
/// `(query, window, instance, key, aggregate index)`, ties in input
/// order — each query's rows ordered by [`CanonicalOrder`].
#[must_use]
pub fn sorted_group_results(results: Vec<GroupResult>) -> Vec<GroupResult> {
    let mut by_query: std::collections::BTreeMap<QueryId, Vec<WindowResult>> = Default::default();
    for r in &results {
        by_query.entry(r.query).or_default().push(r.result);
    }
    let mut order = CanonicalOrder::default();
    let mut sorted = Vec::with_capacity(results.len());
    for (query, rows) in by_query {
        sorted.extend(order.of(&rows).iter().map(|&i| GroupResult {
            query,
            result: rows[i as usize],
        }));
    }
    sorted
}

/// Outcome of a finished group run.
#[derive(Debug)]
pub struct GroupRunOutput {
    /// Events pushed into the group (the stream length, not multiplied by
    /// the member count even when the per-query strategy feeds every
    /// member pipeline).
    pub events_processed: u64,
    /// Routed results not yet drained by [`GroupExec::poll_results`], in
    /// canonical group order (empty unless collection was requested).
    pub results: Vec<GroupResult>,
    /// Routed results emitted over the whole run (including polled ones).
    pub results_emitted: u64,
    /// Cost-model accounting summed over every pipeline the group ran —
    /// under the per-query strategy this sums the members, which is
    /// exactly the ~N× pane-maintenance bill sharing avoids.
    pub stats: ExecStats,
    /// Wall time of the slowest backend.
    pub elapsed: Duration,
}

/// Routing table: `(window, merged slot)` → subscribing members.
struct RouteIndex {
    routes: HashMap<(Window, u32), Vec<Target>>,
}

struct Target {
    query: QueryId,
    agg: u32,
    since: u64,
}

impl RouteIndex {
    fn new(routes: &[Route]) -> Self {
        let mut index: HashMap<(Window, u32), Vec<Target>> = HashMap::new();
        for route in routes {
            index
                .entry((route.window, route.slot))
                .or_default()
                .push(Target {
                    query: route.query,
                    agg: route.agg,
                    since: route.since,
                });
        }
        RouteIndex { routes: index }
    }

    /// Routes raw merged-plan results to their subscribers, dropping
    /// values no member wants (a window exposed for member A also
    /// evaluates member B's slots) and instances that started before a
    /// member registered.
    fn route(&self, results: Vec<WindowResult>, out: &mut Vec<GroupResult>) -> u64 {
        let mut emitted = 0;
        for result in results {
            let Some(targets) = self.routes.get(&(result.window, result.agg)) else {
                continue;
            };
            for target in targets {
                if result.interval.start < target.since {
                    continue;
                }
                emitted += 1;
                out.push(GroupResult {
                    query: target.query,
                    result: WindowResult {
                        agg: target.agg,
                        ..result
                    },
                });
            }
        }
        emitted
    }
}

/// One member pipeline of the per-query strategy.
#[derive(Debug)]
struct MemberExec {
    id: QueryId,
    since: u64,
    pipeline: Box<dyn ExecBackend>,
}

#[derive(Debug)]
enum Backend {
    Shared(Box<dyn ExecBackend>),
    PerQuery(Vec<MemberExec>),
}

/// The group execution core: runs a [`GroupPlan`] over either backend and
/// routes every result back to its member query.
pub struct GroupExec {
    backend: Backend,
    routes: RouteIndex,
    /// Routed results captured around rebuilds (sealed-at-boundary output
    /// of deregistered members and of the old merged plan), drained by the
    /// next poll/finish.
    pending: Vec<GroupResult>,
    /// Routed results emitted so far, pending included.
    results_emitted: u64,
    /// Events pushed into the group (the stream length).
    pushed: u64,
    /// Group plan swaps applied ([`Self::rebuild`]); reported as
    /// [`ExecStats::replans`] for both strategies.
    replans: u64,
    /// High-water mark of announced watermarks and rebuild boundaries.
    /// [`Self::watermark`] never reports below it — in particular, a
    /// freshly registered member's pipeline (whose own watermark starts
    /// at 0) must not drag the group watermark backwards.
    horizon: u64,
    opts: PipelineOptions,
    /// Constructs every pipeline the group runs, so per-query rebuilds
    /// compile arriving members on the same backend the group started on.
    factory: Arc<dyn BackendFactory>,
}

impl std::fmt::Debug for GroupExec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupExec")
            .field("strategy", &self.strategy().name())
            .field("pushed", &self.pushed)
            .field("watermark", &self.watermark())
            .finish_non_exhaustive()
    }
}

impl GroupExec {
    /// Compiles a group plan. `shards = 0` selects the single-threaded
    /// backend; `shards ≥ 1` the key-partitioned one. The shared strategy
    /// requires the plan to carry a merged [`fw_core::SharedPlan`].
    pub fn compile(plan: &GroupPlan, opts: PipelineOptions, shards: usize) -> Result<Self> {
        Self::compile_with_backend(plan, opts, Arc::new(InProcess { shards }))
    }

    /// Compiles a group plan onto an injected [`BackendFactory`]: every
    /// pipeline the group runs — the shared merged pipeline, or each
    /// per-query member, including members arriving through later
    /// [`Self::rebuild`]s — is constructed by `factory` instead of the
    /// in-process engine. This is how the group's route table becomes the
    /// multi-tenant unit of distribution: routing, registration
    /// boundaries, and `since` filters stay coordinator-side while the
    /// pane flow itself runs wherever the factory puts it.
    pub fn compile_with_backend(
        plan: &GroupPlan,
        opts: PipelineOptions,
        factory: Arc<dyn BackendFactory>,
    ) -> Result<Self> {
        let (backend, routes) = match plan.strategy {
            GroupStrategy::Shared => {
                let shared = plan.shared.as_ref().ok_or_else(|| {
                    EngineError::InvalidPlan("shared strategy without a merged plan".to_string())
                })?;
                let pipeline = factory.compile(&shared.bundle.plan, opts)?;
                (Backend::Shared(pipeline), RouteIndex::new(&shared.routes))
            }
            GroupStrategy::PerQuery => {
                let mut members = Vec::with_capacity(plan.members.len());
                for member in &plan.members {
                    members.push(MemberExec {
                        id: member.id,
                        since: member.since,
                        pipeline: factory.compile(&member.bundle.plan, opts)?,
                    });
                }
                (Backend::PerQuery(members), RouteIndex::new(&[]))
            }
        };
        Ok(GroupExec {
            backend,
            routes,
            pending: Vec::new(),
            results_emitted: 0,
            pushed: 0,
            replans: 0,
            horizon: 0,
            opts,
            factory,
        })
    }

    /// The strategy this group is executing.
    #[must_use]
    pub fn strategy(&self) -> GroupStrategy {
        match &self.backend {
            Backend::Shared(_) => GroupStrategy::Shared,
            Backend::PerQuery(_) => GroupStrategy::PerQuery,
        }
    }

    /// Events pushed into the group so far.
    #[must_use]
    pub fn events_pushed(&self) -> u64 {
        self.pushed
    }

    /// Routed results emitted so far (including polled ones).
    #[must_use]
    pub fn results_emitted(&self) -> u64 {
        self.results_emitted
    }

    /// The group's ordering watermark: the most conservative backend,
    /// clamped from below by every announced watermark and rebuild
    /// boundary (so a freshly registered member's empty pipeline cannot
    /// regress it).
    #[must_use]
    pub fn watermark(&self) -> u64 {
        let backend = match &self.backend {
            Backend::Shared(p) => p.watermark(),
            Backend::PerQuery(members) => members
                .iter()
                .map(|m| m.pipeline.watermark())
                .min()
                .unwrap_or(0),
        };
        backend.max(self.horizon)
    }

    /// Events currently buffered on the ingest side, summed over backends.
    #[must_use]
    pub fn buffered(&self) -> usize {
        match &self.backend {
            Backend::Shared(p) => p.buffered(),
            Backend::PerQuery(members) => members.iter().map(|m| m.pipeline.buffered()).sum(),
        }
    }

    /// Cost-model accounting summed over every pipeline the group runs;
    /// [`ExecStats::replans`] reports the group-level plan swaps.
    #[must_use]
    pub fn stats(&self) -> ExecStats {
        let mut stats = match &self.backend {
            Backend::Shared(p) => p.stats(),
            Backend::PerQuery(members) => members
                .iter()
                .map(|m| m.pipeline.stats())
                .fold(ExecStats::default(), |a, b| a + b),
        };
        stats.replans = self.replans;
        stats
    }

    /// Key-interner high-water `(slots, bytes)` summed over every
    /// pipeline the group runs (see `PlanPipeline::interner_stats`).
    #[must_use]
    pub fn interner_stats(&self) -> (u64, u64) {
        match &self.backend {
            Backend::Shared(p) => p.interner_stats(),
            Backend::PerQuery(members) => members
                .iter()
                .map(|m| m.pipeline.interner_stats())
                .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1)),
        }
    }

    /// Per-plan-node profile counters summed over every pipeline the
    /// group runs (empty when profiling is off). Shared groups report the
    /// merged plan's nodes; per-query groups merge member profiles by
    /// window identity, so a window two members both expose reports their
    /// combined counters.
    #[must_use]
    pub fn node_profiles(&self) -> Vec<crate::profile::NodeProfile> {
        match &self.backend {
            Backend::Shared(p) => p.node_profiles(),
            Backend::PerQuery(members) => {
                let mut total = Vec::new();
                for m in members {
                    crate::profile::add_shard_profiles(&mut total, &m.pipeline.node_profiles());
                }
                total
            }
        }
    }

    /// Pushes one event (to the shared pipeline, or to every member's).
    /// Rejected events are not counted in [`Self::events_pushed`].
    pub fn push(&mut self, event: Event) -> Result<()> {
        match &mut self.backend {
            Backend::Shared(p) => p.push(event)?,
            Backend::PerQuery(members) => {
                for member in members.iter_mut() {
                    member.pipeline.push(event)?;
                }
            }
        }
        self.pushed += 1;
        Ok(())
    }

    /// Pushes a batch of in-order events. A batch that errors part-way is
    /// not counted in [`Self::events_pushed`] (the engine keeps the
    /// successfully fed prefix, exactly as `PlanPipeline` does; the
    /// group-level counter tracks batches the group accepted whole).
    pub fn push_batch(&mut self, events: &[Event]) -> Result<()> {
        match &mut self.backend {
            Backend::Shared(p) => p.push_batch(events)?,
            Backend::PerQuery(members) => {
                for member in members.iter_mut() {
                    member.pipeline.push_batch(events)?;
                }
            }
        }
        self.pushed += events.len() as u64;
        Ok(())
    }

    /// Pushes a columnar batch (to the shared pipeline, or to every
    /// member's), with the same whole-batch counting as
    /// [`Self::push_batch`]. The group-level routing is unchanged — the
    /// columns flow through the same pipelines the row-oriented entry
    /// points feed.
    pub fn push_columns(&mut self, times: &[u64], keys: &[u32], values: &[f64]) -> Result<()> {
        match &mut self.backend {
            Backend::Shared(p) => p.push_columns(times, keys, values)?,
            Backend::PerQuery(members) => {
                for member in members.iter_mut() {
                    member.pipeline.push_columns(times, keys, values)?;
                }
            }
        }
        self.pushed += times.len() as u64;
        Ok(())
    }

    /// Announces a watermark to every pipeline.
    pub fn advance_watermark(&mut self, watermark: u64) -> Result<()> {
        self.horizon = self.horizon.max(watermark);
        match &mut self.backend {
            Backend::Shared(p) => p.advance_watermark(watermark),
            Backend::PerQuery(members) => {
                for member in members.iter_mut() {
                    member.pipeline.advance_watermark(watermark)?;
                }
                Ok(())
            }
        }
    }

    /// Drains the routed results collected since the last poll. Always
    /// empty when the group was compiled without result collection.
    #[must_use]
    pub fn poll_results(&mut self) -> Vec<GroupResult> {
        let mut out = std::mem::take(&mut self.pending);
        self.results_emitted += self.drain_into(&mut out);
        out
    }

    /// Polls every backend into `out`, routing/tagging; returns the number
    /// of routed results appended.
    fn drain_into(&mut self, out: &mut Vec<GroupResult>) -> u64 {
        match &mut self.backend {
            Backend::Shared(p) => self.routes.route(p.poll_results(), out),
            Backend::PerQuery(members) => {
                let mut emitted = 0;
                for member in members.iter_mut() {
                    emitted +=
                        tag_member(member.id, member.since, member.pipeline.poll_results(), out);
                }
                emitted
            }
        }
    }

    /// Applies a re-optimized [`GroupPlan`] at a watermark boundary:
    /// everything sealing at or before `watermark` is emitted under the
    /// *old* routing (so a deregistering member receives its final
    /// results), then the plan is swapped.
    ///
    /// * Shared strategy: the merged pipeline rebuilds in place — window
    ///   state migrates, so members present in both plans keep exact
    ///   results across the boundary.
    /// * Per-query strategy: pipelines of departing members are drained
    ///   and dropped; pipelines of arriving members compile fresh.
    ///
    /// The strategy itself is fixed for the life of the group (the façade
    /// re-plans with the resolved strategy pinned); a plan that resolved
    /// to the other strategy is rejected with
    /// [`EngineError::RebuildUnsupported`].
    pub fn rebuild(&mut self, plan: &GroupPlan, watermark: u64) -> Result<()> {
        if plan.strategy != self.strategy() {
            return Err(EngineError::RebuildUnsupported {
                reason: "a group's execution strategy is fixed once it starts streaming",
            });
        }
        match &mut self.backend {
            Backend::Shared(pipeline) => {
                let shared = plan.shared.as_ref().ok_or_else(|| {
                    EngineError::InvalidPlan("shared strategy without a merged plan".to_string())
                })?;
                // Seal and route everything due under the old plan/routes:
                // slot indices are plan-specific, and departing members
                // are owed their final (≤ watermark) results.
                pipeline.advance_watermark(watermark)?;
                let due = pipeline.poll_results();
                self.results_emitted += self.routes.route(due, &mut self.pending);
                pipeline.rebuild(&shared.bundle.plan, watermark)?;
                self.routes = RouteIndex::new(&shared.routes);
            }
            Backend::PerQuery(members) => {
                // Compile arriving members' pipelines *first*: a failure
                // must leave the running group untouched (in particular,
                // the surviving members' window state must not be
                // destroyed half-way through a swap).
                let mut arriving = Vec::new();
                for member in &plan.members {
                    if members.iter().any(|m| m.id == member.id) {
                        continue;
                    }
                    arriving.push(MemberExec {
                        id: member.id,
                        since: member.since,
                        pipeline: self.factory.compile(&member.bundle.plan, self.opts)?,
                    });
                }
                // Departing members: seal to the boundary and capture
                // their final (≤ watermark) results. Pipelines stay in
                // place until every fallible step has succeeded.
                for member in members.iter_mut() {
                    if plan.members.iter().any(|m| m.id == member.id) {
                        continue;
                    }
                    member.pipeline.advance_watermark(watermark)?;
                    self.results_emitted += tag_member(
                        member.id,
                        member.since,
                        member.pipeline.poll_results(),
                        &mut self.pending,
                    );
                }
                // Infallible from here: dropping a departing pipeline
                // without finish() discards its still-open instances —
                // the member is gone before they seal.
                members.retain(|m| plan.members.iter().any(|p| p.id == m.id));
                members.extend(arriving);
            }
        }
        self.horizon = self.horizon.max(watermark);
        self.replans += 1;
        Ok(())
    }

    /// Writes a self-describing snapshot of the whole group — routed
    /// results not yet polled, the group-level counters, and every
    /// backend pipeline's pane state — and keeps streaming. `plan` must be
    /// the [`GroupPlan`] the group is currently executing (slot indices
    /// and member plans are read from it; they are never serialized).
    pub fn checkpoint<W: std::io::Write + ?Sized>(
        &mut self,
        plan: &GroupPlan,
        w: &mut W,
    ) -> CheckpointResult<()> {
        if plan.strategy != self.strategy() {
            return Err(CheckpointError::Unsupported {
                reason: "group plan strategy does not match the running group",
            });
        }
        checkpoint::write_header(w, checkpoint::KIND_GROUP)?;
        checkpoint::put_u8(
            w,
            match self.strategy() {
                GroupStrategy::Shared => 0,
                GroupStrategy::PerQuery => 1,
            },
        )?;
        checkpoint::put_u64(w, self.pushed)?;
        checkpoint::put_u64(w, self.results_emitted)?;
        checkpoint::put_u64(w, self.replans)?;
        checkpoint::put_u64(w, self.horizon)?;
        checkpoint::put_u32(
            w,
            checkpoint::count_u32(self.pending.len(), "pending results")?,
        )?;
        for routed in &self.pending {
            checkpoint::put_u32(w, routed.query.0)?;
            checkpoint::put_result(w, &routed.result)?;
        }
        match &mut self.backend {
            Backend::Shared(pipeline) => {
                let shared = plan.shared.as_ref().ok_or(CheckpointError::BadValue {
                    what: "shared strategy without a merged plan",
                })?;
                put_image(w, pipeline.as_mut(), &shared.bundle.plan)?;
            }
            Backend::PerQuery(members) => {
                checkpoint::put_u32(w, checkpoint::count_u32(members.len(), "group members")?)?;
                for member in members.iter_mut() {
                    let member_plan = plan.members.iter().find(|m| m.id == member.id).ok_or(
                        CheckpointError::BadValue {
                            what: "group plan is missing a running member",
                        },
                    )?;
                    checkpoint::put_u32(w, member.id.0)?;
                    checkpoint::put_u64(w, member.since)?;
                    put_image(w, member.pipeline.as_mut(), &member_plan.bundle.plan)?;
                }
            }
        }
        Ok(())
    }

    /// Rebuilds a group from a [`Self::checkpoint`] snapshot at the
    /// requested parallelism. `plan` must resolve to the same strategy and
    /// (for per-query groups) the same member set the snapshot was taken
    /// under; the snapshot itself carries no shard count, so `shards` may
    /// differ freely from the checkpointing run — pane state is re-hashed
    /// onto the new layout and results are byte-identical for any rescale.
    pub fn restore<R: std::io::Read + ?Sized>(
        plan: &GroupPlan,
        opts: PipelineOptions,
        shards: usize,
        r: &mut R,
    ) -> CheckpointResult<Self> {
        Self::restore_with_backend(plan, opts, Arc::new(InProcess { shards }), r)
    }

    /// Rebuilds a group from a [`Self::checkpoint`] snapshot onto an
    /// injected [`BackendFactory`] (see [`Self::compile_with_backend`]).
    /// The snapshot carries no backend identity — a group checkpointed in
    /// process restores onto a factory backend and vice versa.
    pub fn restore_with_backend<R: std::io::Read + ?Sized>(
        plan: &GroupPlan,
        opts: PipelineOptions,
        factory: Arc<dyn BackendFactory>,
        r: &mut R,
    ) -> CheckpointResult<Self> {
        let version = checkpoint::read_header(r, checkpoint::KIND_GROUP)?;
        let strategy = checkpoint::get_u8(r, "group strategy")?;
        let expected = match plan.strategy {
            GroupStrategy::Shared => 0,
            GroupStrategy::PerQuery => 1,
        };
        if strategy != expected {
            return Err(CheckpointError::BadValue {
                what: "checkpointed strategy does not match the group plan",
            });
        }
        let pushed = checkpoint::get_u64(r, "group events pushed")?;
        let results_emitted = checkpoint::get_u64(r, "group results emitted")?;
        let replans = checkpoint::get_u64(r, "group replans")?;
        let horizon = checkpoint::get_u64(r, "group horizon")?;
        let n = checkpoint::get_u32(r, "pending result count")?;
        let mut pending = Vec::with_capacity((n as usize).min(1024));
        for _ in 0..n {
            let query = QueryId(checkpoint::get_u32(r, "pending query id")?);
            let result = checkpoint::get_result(r)?;
            pending.push(GroupResult { query, result });
        }
        let (backend, routes) = match plan.strategy {
            GroupStrategy::Shared => {
                let shared = plan.shared.as_ref().ok_or(CheckpointError::BadValue {
                    what: "shared strategy without a merged plan",
                })?;
                let doc = get_image(r, version)?;
                let pipeline = factory.restore(&shared.bundle.plan, opts, &doc)?;
                (Backend::Shared(pipeline), RouteIndex::new(&shared.routes))
            }
            GroupStrategy::PerQuery => {
                let count = checkpoint::get_u32(r, "member count")? as usize;
                if count != plan.members.len() {
                    return Err(CheckpointError::BadValue {
                        what: "checkpointed member count does not match the group plan",
                    });
                }
                let mut members = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let id = QueryId(checkpoint::get_u32(r, "member id")?);
                    let since = checkpoint::get_u64(r, "member since")?;
                    let member_plan = plan.members.iter().find(|m| m.id == id).ok_or(
                        CheckpointError::BadValue {
                            what: "checkpointed member is absent from the group plan",
                        },
                    )?;
                    let doc = get_image(r, version)?;
                    members.push(MemberExec {
                        id,
                        since,
                        pipeline: factory.restore(&member_plan.bundle.plan, opts, &doc)?,
                    });
                }
                (Backend::PerQuery(members), RouteIndex::new(&[]))
            }
        };
        Ok(GroupExec {
            backend,
            routes,
            pending,
            results_emitted,
            pushed,
            replans,
            horizon,
            opts,
            factory,
        })
    }

    /// Ends the stream: seals everything, merges the accounting, and
    /// returns the remaining routed results in canonical group order.
    pub fn finish(mut self) -> Result<GroupRunOutput> {
        let mut results = std::mem::take(&mut self.pending);
        let mut stats = ExecStats::default();
        let mut elapsed = Duration::ZERO;
        let mut emitted = 0;
        match self.backend {
            Backend::Shared(pipeline) => {
                let out = pipeline.finish()?;
                emitted += self.routes.route(out.results, &mut results);
                stats = out.stats;
                elapsed = out.elapsed;
            }
            Backend::PerQuery(members) => {
                for member in members {
                    let out = member.pipeline.finish()?;
                    emitted += tag_member(member.id, member.since, out.results, &mut results);
                    stats = stats + out.stats;
                    elapsed = elapsed.max(out.elapsed);
                }
            }
        }
        stats.replans = self.replans;
        Ok(GroupRunOutput {
            events_processed: self.pushed,
            results: sorted_group_results(results),
            results_emitted: self.results_emitted + emitted,
            stats,
            elapsed,
        })
    }
}

/// Writes one backend's state into a group container as a bare image
/// body. Every backend ships a full snapshot document; decoding it here
/// validates it before it is embedded.
fn put_image<W: std::io::Write + ?Sized>(
    w: &mut W,
    pipeline: &mut dyn ExecBackend,
    plan: &QueryPlan,
) -> CheckpointResult<()> {
    checkpoint::decode_pipeline_doc(&pipeline.export_snapshot(plan)?)?.encode(w)
}

/// Reads one image body out of a group container and re-wraps it as the
/// snapshot document [`BackendFactory::restore`] takes.
fn get_image<R: std::io::Read + ?Sized>(r: &mut R, version: u8) -> CheckpointResult<Vec<u8>> {
    checkpoint::encode_pipeline_doc(&PipelineImage::decode(r, version)?)
}

/// Tags a member pipeline's own results with its id, applying the
/// registration (`since`) filter; returns the number appended.
fn tag_member(
    id: QueryId,
    since: u64,
    results: Vec<WindowResult>,
    out: &mut Vec<GroupResult>,
) -> u64 {
    let mut emitted = 0;
    for result in results {
        if result.interval.start < since {
            continue;
        }
        emitted += 1;
        out.push(GroupResult { query: id, result });
    }
    emitted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::sorted_results;
    use fw_core::{
        AggregateFunction, GroupMember, GroupOptimizer, PlanChoice, QueryId, SharingPolicy, Window,
        WindowQuery, WindowSet,
    };

    fn member(id: u32, ranges: &[u64], f: AggregateFunction) -> GroupMember {
        let windows = WindowSet::new(
            ranges
                .iter()
                .map(|&r| Window::tumbling(r).unwrap())
                .collect(),
        )
        .unwrap();
        GroupMember {
            id: QueryId(id),
            query: WindowQuery::new(windows, f),
            since: 0,
        }
    }

    fn events(n: u64, keys: u32) -> Vec<Event> {
        (0..n)
            .map(|t| Event::new(t, (t % u64::from(keys)) as u32, ((t * 7) % 23) as f64))
            .collect()
    }

    fn solo_results(member: &GroupMember, evs: &[Event]) -> Vec<WindowResult> {
        let outcome = fw_core::Optimizer::default()
            .optimize(&member.query)
            .unwrap();
        let out =
            PlanPipeline::run(&outcome.factored.plan, evs, PipelineOptions::collecting()).unwrap();
        sorted_results(out.results)
    }

    #[test]
    fn shared_group_routes_each_member_its_solo_results() {
        let members = [
            member(0, &[20, 30, 40], AggregateFunction::Sum),
            member(1, &[20, 40, 80], AggregateFunction::Min),
            member(2, &[30, 60], AggregateFunction::Count),
        ];
        let plan = GroupOptimizer::default()
            .plan(&members, PlanChoice::Auto, SharingPolicy::Shared, None)
            .unwrap();
        let evs = events(500, 3);
        for shards in [0usize, 2] {
            let mut exec =
                GroupExec::compile(&plan, PipelineOptions::collecting(), shards).unwrap();
            exec.push_batch(&evs).unwrap();
            let out = exec.finish().unwrap();
            assert_eq!(out.events_processed, 500);
            for m in &members {
                let got: Vec<WindowResult> = out
                    .results
                    .iter()
                    .filter(|r| r.query == m.id)
                    .map(|r| r.result)
                    .collect();
                assert_eq!(sorted_results(got), solo_results(m, &evs), "{}", m.id);
            }
        }
    }

    #[test]
    fn per_query_strategy_matches_solos_with_summed_stats() {
        let members = [
            member(0, &[20, 30, 40], AggregateFunction::Sum),
            member(1, &[20, 30, 40], AggregateFunction::Count),
        ];
        let plan = GroupOptimizer::default()
            .plan(
                &members,
                PlanChoice::Factored,
                SharingPolicy::Unshared,
                None,
            )
            .unwrap();
        let evs = events(400, 2);
        let mut exec = GroupExec::compile(&plan, PipelineOptions::collecting(), 0).unwrap();
        exec.push_batch(&evs).unwrap();
        let out = exec.finish().unwrap();
        for m in &members {
            let got: Vec<WindowResult> = out
                .results
                .iter()
                .filter(|r| r.query == m.id)
                .map(|r| r.result)
                .collect();
            assert_eq!(sorted_results(got), solo_results(m, &evs), "{}", m.id);
        }
        // Unshared execution pays pane maintenance once per member.
        let solo_stats = PlanPipeline::run(
            &plan.members[0].bundle.plan,
            &evs,
            PipelineOptions::default(),
        )
        .unwrap()
        .stats;
        assert_eq!(out.stats.updates, 2 * solo_stats.updates);
    }

    #[test]
    fn shared_group_attributes_pane_flow_once() {
        let members = [
            member(0, &[20, 30, 40], AggregateFunction::Sum),
            member(1, &[20, 30, 40], AggregateFunction::Count),
            member(2, &[20, 30, 40], AggregateFunction::Min),
            member(3, &[20, 30, 40], AggregateFunction::Max),
        ];
        let evs = events(1200, 2);
        let shared = GroupOptimizer::default()
            .plan(&members, PlanChoice::Factored, SharingPolicy::Shared, None)
            .unwrap();
        let unshared = GroupOptimizer::default()
            .plan(
                &members,
                PlanChoice::Factored,
                SharingPolicy::Unshared,
                None,
            )
            .unwrap();
        let run = |plan: &fw_core::GroupPlan| {
            let mut exec = GroupExec::compile(plan, PipelineOptions::default(), 0).unwrap();
            exec.push_batch(&evs).unwrap();
            exec.finish().unwrap()
        };
        let s = run(&shared);
        let u = run(&unshared);
        // Pane maintenance: once for the group vs once per member.
        assert_eq!(u.stats.updates, 4 * s.stats.updates);
        assert_eq!(u.stats.elements(), 4 * s.stats.elements());
    }

    #[test]
    fn strategy_is_fixed_across_rebuilds() {
        let members = vec![member(0, &[20, 40], AggregateFunction::Sum)];
        let shared = GroupOptimizer::default()
            .plan(&members, PlanChoice::Auto, SharingPolicy::Shared, None)
            .unwrap();
        let unshared = GroupOptimizer::default()
            .plan(&members, PlanChoice::Auto, SharingPolicy::Unshared, None)
            .unwrap();
        let mut exec = GroupExec::compile(&shared, PipelineOptions::collecting(), 0).unwrap();
        let err = exec.rebuild(&unshared, 0).unwrap_err();
        assert!(matches!(err, EngineError::RebuildUnsupported { .. }));
    }

    #[test]
    fn deregistration_emits_final_results_and_stops_routing() {
        let members = vec![
            member(0, &[20, 40], AggregateFunction::Sum),
            member(1, &[20, 60], AggregateFunction::Sum),
        ];
        let evs = events(240, 2);
        let plan = GroupOptimizer::default()
            .plan(&members, PlanChoice::Auto, SharingPolicy::Shared, None)
            .unwrap();
        let mut exec = GroupExec::compile(&plan, PipelineOptions::collecting(), 0).unwrap();
        exec.push_batch(&evs[..120]).unwrap();
        exec.advance_watermark(120).unwrap();

        // Member 1 departs at watermark 120.
        let survivors = vec![members[0].clone()];
        let replanned = GroupOptimizer::default()
            .plan(&survivors, PlanChoice::Auto, SharingPolicy::Shared, None)
            .unwrap();
        exec.rebuild(&replanned, 120).unwrap();
        exec.push_batch(&evs[120..]).unwrap();
        let out = exec.finish().unwrap();

        // Member 0 sees its full-stream solo results.
        let q0: Vec<WindowResult> = out
            .results
            .iter()
            .filter(|r| r.query == QueryId(0))
            .map(|r| r.result)
            .collect();
        assert_eq!(sorted_results(q0), solo_results(&members[0], &evs));
        // Member 1 got exactly the instances sealed by the boundary.
        let q1: Vec<WindowResult> = out
            .results
            .iter()
            .filter(|r| r.query == QueryId(1))
            .map(|r| r.result)
            .collect();
        let expected: Vec<WindowResult> = solo_results(&members[1], &evs)
            .into_iter()
            .filter(|r| r.interval.end <= 120)
            .collect();
        assert_eq!(sorted_results(q1), expected);
        assert_eq!(out.stats.replans, 1);
    }

    #[test]
    fn per_query_watermark_does_not_regress_after_registration() {
        let founding = vec![member(0, &[20, 40], AggregateFunction::Sum)];
        let plan = GroupOptimizer::default()
            .plan(&founding, PlanChoice::Auto, SharingPolicy::Unshared, None)
            .unwrap();
        let mut exec = GroupExec::compile(&plan, PipelineOptions::collecting(), 0).unwrap();
        exec.push_batch(&events(240, 2)).unwrap();
        exec.advance_watermark(240).unwrap();
        assert_eq!(exec.watermark(), 240);

        // A freshly registered member's pipeline starts at watermark 0;
        // the group watermark must not follow it down — a second
        // registration right after would otherwise read boundary 0.
        let mut late = member(1, &[30], AggregateFunction::Min);
        late.since = 240;
        let both = vec![founding[0].clone(), late];
        let replanned = GroupOptimizer::default()
            .plan(&both, PlanChoice::Auto, SharingPolicy::Unshared, None)
            .unwrap();
        exec.rebuild(&replanned, 240).unwrap();
        assert_eq!(exec.watermark(), 240);
    }

    #[test]
    fn failed_per_query_rebuild_leaves_the_running_group_intact() {
        let founding = vec![member(0, &[20, 40], AggregateFunction::Sum)];
        let plan = GroupOptimizer::default()
            .plan(&founding, PlanChoice::Auto, SharingPolicy::Unshared, None)
            .unwrap();
        let evs = events(240, 2);
        let mut exec = GroupExec::compile(&plan, PipelineOptions::collecting(), 0).unwrap();
        exec.push_batch(&evs[..120]).unwrap();
        exec.advance_watermark(120).unwrap();

        // A replanned group whose arriving member carries a structurally
        // invalid plan: compilation fails, and the failure must not
        // destroy the surviving member's pipeline or window state.
        let mut broken = plan.clone();
        let invalid = {
            let mut b = fw_core::plan::PlanBuilder::new(AggregateFunction::Sum);
            let src = b.source();
            let f = b.window_agg(src, Window::tumbling(10).unwrap(), "f".into(), false);
            let _ = f; // factor window without consumers: validate() fails
            let w20 = b.window_agg(src, Window::tumbling(20).unwrap(), "20".into(), true);
            b.finish(vec![w20])
        };
        broken.members.push(fw_core::MemberPlan {
            id: QueryId(9),
            since: 120,
            bundle: fw_core::PlanBundle {
                plan: invalid,
                cost: 0,
            },
            choice: PlanChoice::Original,
        });
        assert!(exec.rebuild(&broken, 120).is_err());

        // The group keeps streaming and the founding member's results are
        // still exact over the whole stream.
        exec.push_batch(&evs[120..]).unwrap();
        let out = exec.finish().unwrap();
        let got: Vec<WindowResult> = out
            .results
            .iter()
            .filter(|r| r.query == QueryId(0))
            .map(|r| r.result)
            .collect();
        assert_eq!(sorted_results(got), solo_results(&founding[0], &evs));
    }

    #[test]
    fn late_registration_sees_only_instances_after_its_watermark() {
        let founding = vec![member(0, &[20, 40], AggregateFunction::Sum)];
        let evs = events(240, 2);
        let plan = GroupOptimizer::default()
            .plan(&founding, PlanChoice::Auto, SharingPolicy::Shared, None)
            .unwrap();
        for shards in [0usize, 3] {
            let mut exec =
                GroupExec::compile(&plan, PipelineOptions::collecting(), shards).unwrap();
            exec.push_batch(&evs[..120]).unwrap();
            exec.advance_watermark(120).unwrap();

            let mut late = member(1, &[30, 60], AggregateFunction::Min);
            late.since = 120;
            let both = vec![founding[0].clone(), late.clone()];
            let replanned = GroupOptimizer::default()
                .plan(&both, PlanChoice::Auto, SharingPolicy::Shared, None)
                .unwrap();
            exec.rebuild(&replanned, 120).unwrap();
            exec.push_batch(&evs[120..]).unwrap();
            let out = exec.finish().unwrap();

            let q0: Vec<WindowResult> = out
                .results
                .iter()
                .filter(|r| r.query == QueryId(0))
                .map(|r| r.result)
                .collect();
            assert_eq!(
                sorted_results(q0),
                solo_results(&founding[0], &evs),
                "{shards}"
            );

            // The late member equals a solo run over the suffix, filtered
            // to instances that start after registration.
            let q1: Vec<WindowResult> = out
                .results
                .iter()
                .filter(|r| r.query == QueryId(1))
                .map(|r| r.result)
                .collect();
            let expected: Vec<WindowResult> = solo_results(&late, &evs[120..])
                .into_iter()
                .filter(|r| r.interval.start >= 120)
                .collect();
            assert!(!expected.is_empty());
            assert_eq!(sorted_results(q1), expected, "{shards}");
        }
    }
}
