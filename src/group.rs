//! The [`QueryGroup`]/[`GroupPipeline`] façade: N independently authored
//! standing queries over one stream, executed through one shared
//! factor-window plan.
//!
//! [`QueryGroup`] is the builder: collect queries (SQL or
//! [`WindowQuery`]), configure the cost model / plan policy / sharing
//! policy / backend exactly as for a [`crate::Session`], and
//! [`QueryGroup::build`] runs the cross-query optimizer
//! ([`fw_core::GroupOptimizer`]) — merging every member's windows into one
//! coverage graph, deduplicating identical windows and identical
//! aggregate terms, and pricing the merged plan against the sum of the
//! standalone plans. The resulting [`GroupPipeline`] streams like a
//! [`crate::Pipeline`], but every result comes back tagged with the
//! member query that subscribed to it ([`GroupResult`]).
//!
//! Queries may come and go while the stream runs:
//! [`GroupPipeline::register`] and [`GroupPipeline::deregister`] take
//! effect at the current watermark — the group seals everything up to the
//! boundary, re-optimizes the merged plan over the new member set, and
//! swaps it in place with window state migrating across, so surviving
//! members' results are byte-identical to uninterrupted solo sessions. A
//! deregistered member receives every result sealed at or before the
//! boundary; a late-registered member receives results for instances that
//! start at or after its registration.
//!
//! ```
//! use factor_windows::engine::Event;
//! use factor_windows::QueryGroup;
//!
//! let mut group = QueryGroup::from_sql(
//!     "SELECT k, MIN(v) FROM S GROUP BY k, Windows( \
//!          Window('fast', TumblingWindow(second, 10)), \
//!          Window('slow', TumblingWindow(second, 20))); \
//!      SELECT k, SUM(v) FROM S GROUP BY k, Windows( \
//!          Window('fast', TumblingWindow(second, 10)), \
//!          Window('slower', TumblingWindow(second, 40)))",
//! )?
//! .collect_results(true)
//! .build()?;
//!
//! for t in 0..40u64 {
//!     group.push(Event::new(t, 0, (t % 7) as f64))?;
//! }
//! let out = group.finish()?;
//! // Every result names its query: q0 gets MIN values, q1 SUM values.
//! assert!(out.results.iter().any(|r| r.query.0 == 0));
//! assert!(out.results.iter().any(|r| r.query.0 == 1));
//! # Ok::<(), factor_windows::ApiError>(())
//! ```

use crate::api::{ApiError, ApiResult};
use fw_core::{
    Cost, CostModel, Error as CoreError, GroupMember, GroupOptimizer, GroupPlan, GroupStrategy,
    PlanChoice, QueryId, QueryPlan, Semantics, SharingPolicy, WindowQuery,
};
use fw_engine::checkpoint::{self as ckpt, CheckpointError};
use fw_engine::{
    Event, GroupExec, GroupResult, GroupRunOutput, Parallelism, PipelineOptions, ProfileLevel,
};
use std::collections::BTreeMap;

/// A builder for a group of standing queries over one stream — the
/// multi-query counterpart of [`crate::Session`].
#[derive(Debug, Clone, Default)]
pub struct QueryGroup {
    queries: Vec<WindowQuery>,
    model: CostModel,
    semantics: Option<Semantics>,
    choice: PlanChoice,
    policy: SharingPolicy,
    out_of_order: u64,
    collect: bool,
    element_work: u32,
    profile: ProfileLevel,
    parallelism: Parallelism,
}

impl QueryGroup {
    /// Starts an empty group (add queries with [`Self::query`] /
    /// [`Self::sql`]).
    #[must_use]
    pub fn new() -> Self {
        QueryGroup {
            queries: Vec::new(),
            model: CostModel::default(),
            semantics: None,
            choice: PlanChoice::Auto,
            policy: SharingPolicy::Auto,
            out_of_order: 0,
            collect: false,
            element_work: fw_engine::DEFAULT_ELEMENT_WORK,
            profile: ProfileLevel::Off,
            parallelism: Parallelism::Sequential,
        }
    }

    /// Starts a group from a `;`-separated sequence of SQL statements
    /// (see [`fw_sql::parse_to_queries`]; [`fw_sql::FIG1_GROUP_SQL`] is
    /// the canonical fixture).
    pub fn from_sql(sql: &str) -> ApiResult<Self> {
        let mut group = QueryGroup::new();
        for query in fw_sql::parse_to_queries(sql)? {
            group.queries.push(query);
        }
        Ok(group)
    }

    /// Adds an already-built query. Ids are assigned in insertion order at
    /// [`Self::build`] (`q0`, `q1`, …).
    #[must_use]
    pub fn query(mut self, query: WindowQuery) -> Self {
        self.queries.push(query);
        self
    }

    /// Parses and adds one SQL query.
    pub fn sql(mut self, sql: &str) -> ApiResult<Self> {
        self.queries.push(fw_sql::parse_to_query(sql)?);
        Ok(self)
    }

    /// Sets the cost model (ingestion rate η and the per-slot surcharge
    /// weight) used for both the merged and the standalone pricings.
    #[must_use]
    pub fn cost_model(mut self, model: CostModel) -> Self {
        self.model = model;
        self
    }

    /// Pins the coverage semantics for every member (validated per
    /// member, exactly as [`crate::Session::semantics`] validates its one
    /// query).
    #[must_use]
    pub fn semantics(mut self, semantics: Semantics) -> Self {
        self.semantics = Some(semantics);
        self
    }

    /// Sets the plan-choice policy applied to the merged plan and to
    /// every standalone plan (default [`PlanChoice::Auto`]).
    #[must_use]
    pub fn plan_choice(mut self, choice: PlanChoice) -> Self {
        self.choice = choice;
        self
    }

    /// Sets the sharing policy (default [`SharingPolicy::Auto`]: share
    /// exactly when the merged plan prices below the standalone sum). The
    /// resolved strategy is fixed for the life of the built pipeline —
    /// later registrations re-optimize the plan *within* that strategy.
    #[must_use]
    pub fn sharing(mut self, policy: SharingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Tolerates events arriving up to `tolerance` time units behind the
    /// observed maximum timestamp (see [`crate::Session::out_of_order`]).
    #[must_use]
    pub fn out_of_order(mut self, tolerance: u64) -> Self {
        self.out_of_order = tolerance;
        self
    }

    /// Collects results for [`GroupPipeline::poll_results`] /
    /// [`GroupRunOutput::results`]. Off by default (count-only sinks).
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

    /// Sets the per-plan-node instrumentation level for every member
    /// pipeline (default [`ProfileLevel::Off`]; see
    /// [`crate::Session::profiling`]).
    #[must_use]
    pub fn profiling(mut self, profile: ProfileLevel) -> Self {
        self.profile = profile;
        self
    }

    /// Shards execution by key across worker threads (per pipeline: the
    /// per-query strategy spawns one sharded pipeline per member).
    #[must_use]
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// A no-op kept for source compatibility: every group can
    /// [`GroupPipeline::checkpoint`] and restore, whatever this is set to.
    #[must_use]
    pub fn durable(self, _durable: bool) -> Self {
        self
    }

    /// The queries registered so far, in id order.
    #[must_use]
    pub fn queries(&self) -> &[WindowQuery] {
        &self.queries
    }

    /// Runs the cross-query optimizer and compiles the group into a
    /// streaming [`GroupPipeline`]. Errors on an empty group.
    pub fn build(&self) -> ApiResult<GroupPipeline> {
        let members: Vec<GroupMember> = self
            .queries
            .iter()
            .enumerate()
            .map(|(i, query)| GroupMember {
                id: QueryId(i as u32),
                query: query.clone(),
                since: 0,
            })
            .collect();
        let plan = GroupOptimizer::new(self.model).plan(
            &members,
            self.choice,
            self.policy,
            self.semantics,
        )?;
        let options = PipelineOptions {
            collect: self.collect,
            element_work: self.element_work,
            out_of_order: self.out_of_order,
            profile: self.profile,
        };
        let exec = if let Parallelism::Distributed { workers } = self.parallelism {
            // The group's route table stays coordinator-side; every
            // pipeline it routes into runs on worker processes.
            GroupExec::compile_with_backend(
                &plan,
                options,
                std::sync::Arc::new(fw_dist::DistFactory { workers }),
            )?
        } else {
            GroupExec::compile(&plan, options, self.parallelism.shard_count())?
        };
        // The strategy is fixed once streaming starts: later re-plans
        // (register/deregister) pin the resolved strategy so the engine
        // never has to migrate state across execution modes.
        let policy = match exec.strategy() {
            GroupStrategy::Shared => SharingPolicy::Shared,
            GroupStrategy::PerQuery => SharingPolicy::Unshared,
        };
        let labels = members
            .iter()
            .map(|m| {
                let labels = m
                    .query
                    .aggregates()
                    .iter()
                    .map(|s| s.label().to_string())
                    .collect();
                (m.id.0, labels)
            })
            .collect();
        Ok(GroupPipeline {
            exec,
            next_id: members.len() as u32,
            members,
            labels,
            plan,
            model: self.model,
            semantics: self.semantics,
            choice: self.choice,
            policy,
            profile: self.profile,
        })
    }

    /// Convenience: build, feed a whole in-order batch, finish.
    pub fn run_batch(&self, events: &[Event]) -> ApiResult<GroupRunOutput> {
        let mut pipeline = self.build()?;
        pipeline.push_batch(events)?;
        pipeline.finish()
    }

    /// Rebuilds a group pipeline from a [`GroupPipeline::checkpoint`]
    /// snapshot. The member set — including queries registered or
    /// deregistered while the original streamed — comes from the
    /// snapshot, not from this builder's [`Self::query`] list; the
    /// builder supplies the runtime configuration (cost model, semantics,
    /// collection, out-of-order tolerance, parallelism). The plan itself
    /// is re-derived by re-running the deterministic cross-query
    /// optimizer over the snapshot's member registry with the snapshot's
    /// pinned sharing policy and plan-choice policy, so slot identities
    /// line up with the serialized state. [`Self::parallelism`] may
    /// differ freely from the checkpointing run (the snapshot is
    /// shard-count-free).
    pub fn restore<R: std::io::Read + ?Sized>(&self, r: &mut R) -> ApiResult<GroupPipeline> {
        ckpt::read_header(r, ckpt::KIND_GROUP_FACADE)?;
        let next_id = ckpt::get_u32(r, "next query id")?;
        let policy = match ckpt::get_u8(r, "pinned sharing policy")? {
            0 => SharingPolicy::Shared,
            1 => SharingPolicy::Unshared,
            _ => {
                return Err(CheckpointError::BadValue {
                    what: "pinned sharing policy code",
                }
                .into())
            }
        };
        let choice = match ckpt::get_u8(r, "plan choice")? {
            0 => PlanChoice::Auto,
            1 => PlanChoice::Original,
            2 => PlanChoice::Rewritten,
            3 => PlanChoice::Factored,
            _ => {
                return Err(CheckpointError::BadValue {
                    what: "plan choice code",
                }
                .into())
            }
        };
        let count = ckpt::get_u32(r, "member count")?;
        let mut members = Vec::with_capacity((count as usize).min(1024));
        for _ in 0..count {
            let id = QueryId(ckpt::get_u32(r, "member id")?);
            let since = ckpt::get_u64(r, "member since")?;
            let query = ckpt::get_query(r)?;
            members.push(GroupMember { id, query, since });
        }
        let count = ckpt::get_u32(r, "label map size")?;
        let mut labels = BTreeMap::new();
        for _ in 0..count {
            let id = ckpt::get_u32(r, "labeled query id")?;
            let n = ckpt::get_u32(r, "label count")?;
            let mut list = Vec::with_capacity((n as usize).min(1024));
            for _ in 0..n {
                list.push(ckpt::get_str(r, "select label")?);
            }
            labels.insert(id, list);
        }
        let plan =
            GroupOptimizer::new(self.model).plan(&members, choice, policy, self.semantics)?;
        let options = PipelineOptions {
            collect: self.collect,
            element_work: self.element_work,
            out_of_order: self.out_of_order,
            profile: self.profile,
        };
        let exec = if let Parallelism::Distributed { workers } = self.parallelism {
            GroupExec::restore_with_backend(
                &plan,
                options,
                std::sync::Arc::new(fw_dist::DistFactory { workers }),
                r,
            )?
        } else {
            GroupExec::restore(&plan, options, self.parallelism.shard_count(), r)?
        };
        Ok(GroupPipeline {
            exec,
            members,
            labels,
            next_id,
            plan,
            model: self.model,
            semantics: self.semantics,
            choice,
            policy,
            profile: self.profile,
        })
    }
}

/// A compiled, long-lived multi-query pipeline produced by
/// [`QueryGroup::build`].
///
/// Streams like a [`crate::Pipeline`] (push, watermarks, polls, finish),
/// with two differences: results are [`GroupResult`]s tagged with their
/// member query, and the member set itself is dynamic
/// ([`Self::register`] / [`Self::deregister`]).
pub struct GroupPipeline {
    exec: GroupExec,
    members: Vec<GroupMember>,
    /// SELECT-list labels per query id — retained after deregistration so
    /// pending final results still resolve through [`Self::label_of`].
    labels: BTreeMap<u32, Vec<String>>,
    next_id: u32,
    plan: GroupPlan,
    model: CostModel,
    semantics: Option<Semantics>,
    choice: PlanChoice,
    /// The sharing policy pinned to the strategy resolved at build time.
    policy: SharingPolicy,
    /// The builder's instrumentation level, echoed into reports.
    profile: ProfileLevel,
}

impl std::fmt::Debug for GroupPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupPipeline")
            .field("queries", &self.members.len())
            .field("strategy", &self.strategy().name())
            .field("watermark", &self.watermark())
            .finish_non_exhaustive()
    }
}

impl GroupPipeline {
    /// Pushes one event to the group.
    pub fn push(&mut self, event: Event) -> ApiResult<()> {
        Ok(self.exec.push(event)?)
    }

    /// Pushes a batch of in-order events.
    pub fn push_batch(&mut self, events: &[Event]) -> ApiResult<()> {
        Ok(self.exec.push_batch(events)?)
    }

    /// Pushes a columnar batch (equal-length timestamp/key/value slices;
    /// see [`crate::Pipeline::push_columns`]). Group routing is
    /// unchanged: the columns feed the same shared (or per-member)
    /// pipelines the row-oriented entry points do.
    pub fn push_columns(&mut self, times: &[u64], keys: &[u32], values: &[f64]) -> ApiResult<()> {
        Ok(self.exec.push_columns(times, keys, values)?)
    }

    /// Declares that no event before `watermark` will arrive (sealing and
    /// emission as for [`crate::Pipeline::advance_watermark`]).
    pub fn advance_watermark(&mut self, watermark: u64) -> ApiResult<()> {
        Ok(self.exec.advance_watermark(watermark)?)
    }

    /// Drains the routed results collected since the last poll (always
    /// empty unless the group enabled [`QueryGroup::collect_results`]).
    #[must_use]
    pub fn poll_results(&mut self) -> Vec<GroupResult> {
        self.exec.poll_results()
    }

    /// Ends the stream and returns the group's accounting plus any
    /// results not yet polled, in canonical `(query, window, instance,
    /// key, term)` order.
    pub fn finish(self) -> ApiResult<GroupRunOutput> {
        Ok(self.exec.finish()?)
    }

    /// Registers a new standing query at the current watermark and
    /// re-optimizes the merged plan over the grown member set. The new
    /// member receives results for window instances starting at or after
    /// the registration watermark; every existing member's results are
    /// unaffected (window state migrates across the plan swap). Returns
    /// the new member's id.
    pub fn register(&mut self, query: WindowQuery) -> ApiResult<QueryId> {
        let watermark = self.exec.watermark();
        let id = QueryId(self.next_id);
        let labels = query
            .aggregates()
            .iter()
            .map(|s| s.label().to_string())
            .collect();
        self.members.push(GroupMember {
            id,
            query,
            since: watermark,
        });
        match self.replan(watermark) {
            Ok(()) => {
                self.next_id += 1;
                self.labels.insert(id.0, labels);
                Ok(id)
            }
            Err(e) => {
                self.members.pop();
                Err(e)
            }
        }
    }

    /// Parses and registers one SQL query (see [`Self::register`]).
    pub fn register_sql(&mut self, sql: &str) -> ApiResult<QueryId> {
        let query = fw_sql::parse_to_query(sql)?;
        self.register(query)
    }

    /// Deregisters a standing query at the current watermark: the member
    /// receives every result sealed at or before the boundary (drain them
    /// with [`Self::poll_results`]), its windows and slots leave the
    /// merged plan, and the remaining members stream on unaffected. The
    /// last remaining query cannot be deregistered (a group is never
    /// empty); unknown or already-deregistered ids are
    /// [`ApiError::UnknownQuery`].
    pub fn deregister(&mut self, id: QueryId) -> ApiResult<()> {
        let Some(position) = self.members.iter().position(|m| m.id == id) else {
            return Err(ApiError::UnknownQuery { id });
        };
        if self.members.len() == 1 {
            return Err(CoreError::EmptyGroup.into());
        }
        let watermark = self.exec.watermark();
        let removed = self.members.remove(position);
        if let Err(e) = self.replan(watermark) {
            self.members.insert(position, removed);
            return Err(e);
        }
        Ok(())
    }

    /// Re-optimizes over the current member set (strategy pinned) and
    /// swaps the plan at `watermark`.
    fn replan(&mut self, watermark: u64) -> ApiResult<()> {
        let plan = GroupOptimizer::new(self.model).plan(
            &self.members,
            self.choice,
            self.policy,
            self.semantics,
        )?;
        self.exec.rebuild(&plan, watermark)?;
        self.plan = plan;
        Ok(())
    }

    /// Writes a self-describing snapshot of the whole group — the member
    /// registry (ids, registration watermarks, full queries), retained
    /// SELECT labels, the pinned sharing policy and plan-choice policy,
    /// and every backend pipeline's pane state — and keeps streaming.
    /// Restore with [`QueryGroup::restore`], then replay the stream
    /// suffix from event number [`Self::events_pushed`] as observed at
    /// checkpoint time; recovery is exactly-once.
    pub fn checkpoint<W: std::io::Write + ?Sized>(&mut self, w: &mut W) -> ApiResult<()> {
        ckpt::write_header(w, ckpt::KIND_GROUP_FACADE)?;
        ckpt::put_u32(w, self.next_id)?;
        ckpt::put_u8(
            w,
            match self.policy {
                SharingPolicy::Shared => 0,
                SharingPolicy::Unshared => 1,
                SharingPolicy::Auto => {
                    return Err(CheckpointError::BadValue {
                        what: "sharing policy was never pinned",
                    }
                    .into())
                }
            },
        )?;
        ckpt::put_u8(
            w,
            match self.choice {
                PlanChoice::Auto => 0,
                PlanChoice::Original => 1,
                PlanChoice::Rewritten => 2,
                PlanChoice::Factored => 3,
            },
        )?;
        ckpt::put_u32(w, ckpt::count_u32(self.members.len(), "member count")?)?;
        for member in &self.members {
            ckpt::put_u32(w, member.id.0)?;
            ckpt::put_u64(w, member.since)?;
            ckpt::put_query(w, &member.query)?;
        }
        ckpt::put_u32(w, ckpt::count_u32(self.labels.len(), "label map size")?)?;
        for (id, list) in &self.labels {
            ckpt::put_u32(w, *id)?;
            ckpt::put_u32(w, ckpt::count_u32(list.len(), "label count")?)?;
            for label in list {
                ckpt::put_str(w, label)?;
            }
        }
        self.exec.checkpoint(&self.plan, w)?;
        Ok(())
    }

    /// The ids of the currently registered queries, in registration order.
    #[must_use]
    pub fn queries(&self) -> Vec<QueryId> {
        self.members.iter().map(|m| m.id).collect()
    }

    /// The registered query behind `id`, if still registered.
    #[must_use]
    pub fn query(&self, id: QueryId) -> Option<&WindowQuery> {
        self.members.iter().find(|m| m.id == id).map(|m| &m.query)
    }

    /// The execution strategy resolved at build time (fixed thereafter).
    #[must_use]
    pub fn strategy(&self) -> GroupStrategy {
        self.exec.strategy()
    }

    /// The current group plan: strategy, merged bundle and routes, member
    /// bundles, and the costs the sharing decision compared.
    #[must_use]
    pub fn plan(&self) -> &GroupPlan {
        &self.plan
    }

    /// The merged shared plan currently executing, when the group runs
    /// the shared strategy.
    #[must_use]
    pub fn shared_plan(&self) -> Option<&QueryPlan> {
        match self.strategy() {
            GroupStrategy::Shared => self.plan.shared.as_ref().map(|s| &s.bundle.plan),
            GroupStrategy::PerQuery => None,
        }
    }

    /// Modeled cost of what the group executes: the merged plan's cost
    /// under the shared strategy, the standalone sum under per-query.
    #[must_use]
    pub fn cost(&self) -> Cost {
        match self.strategy() {
            GroupStrategy::Shared => self.plan.shared_cost().unwrap_or(self.plan.unshared_cost),
            GroupStrategy::PerQuery => self.plan.unshared_cost,
        }
    }

    /// The SELECT-list label of the term that produced `result`, resolved
    /// against the originating member's query (labels survive
    /// deregistration, so pending final results still resolve).
    ///
    /// # Panics
    /// If `result` carries a query id this group never issued.
    #[must_use]
    pub fn label_of(&self, result: &GroupResult) -> &str {
        let labels = self
            .labels
            .get(&result.query.0)
            .expect("result from a query this group never issued");
        &labels[result.result.agg as usize]
    }

    /// Events pushed into the group so far.
    #[must_use]
    pub fn events_pushed(&self) -> u64 {
        self.exec.events_pushed()
    }

    /// Routed results emitted so far (including polled ones; counts
    /// per-member deliveries, so one shared window value consumed by two
    /// members counts twice). `0` when results are not collected.
    #[must_use]
    pub fn results_emitted(&self) -> u64 {
        self.exec.results_emitted()
    }

    /// The group's ordering watermark — also the boundary the next
    /// [`Self::register`] / [`Self::deregister`] takes effect at.
    #[must_use]
    pub fn watermark(&self) -> u64 {
        self.exec.watermark()
    }

    /// Events currently buffered on the ingest side.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.exec.buffered()
    }

    /// Cost-model accounting summed over every pipeline the group runs
    /// (under the per-query strategy this sums the members — the ~N× bill
    /// the shared strategy avoids). [`fw_engine::ExecStats::replans`]
    /// counts the plan swaps from registrations and deregistrations.
    #[must_use]
    pub fn stats(&self) -> fw_engine::ExecStats {
        self.exec.stats()
    }

    /// Key-interner high-water mark as `(slots, bytes)` summed over every
    /// pipeline the group runs — the dense key space backing the pane
    /// slabs. Observability only.
    #[must_use]
    pub fn interner_stats(&self) -> (u64, u64) {
        self.exec.interner_stats()
    }

    /// Per-plan-node observed counters summed over every pipeline the
    /// group runs (empty unless [`QueryGroup::profiling`] was set).
    /// Shared groups report the merged plan's nodes; per-query groups
    /// merge member profiles by window identity.
    #[must_use]
    pub fn node_profiles(&self) -> Vec<fw_engine::NodeProfile> {
        self.exec.node_profiles()
    }

    /// The `EXPLAIN ANALYZE` report for the group: observed per-node
    /// counters joined with the cost model's predicted pane flow. Under
    /// the shared strategy the join is against the merged plan; under
    /// per-query execution every member plan's flow is merged by window
    /// identity first (two members sharing a window report one row with
    /// their summed flow), mirroring how the observed counters merge.
    pub fn profile(&self) -> ApiResult<crate::profile::PlanProfile> {
        let observed = self.node_profiles();
        let stats = self.stats();
        let watermark = self.watermark();
        match (&self.plan.shared, self.strategy()) {
            (Some(shared), GroupStrategy::Shared) => Ok(crate::profile::PlanProfile::assemble(
                &shared.bundle.plan,
                &self.model,
                shared.choice,
                shared.bundle.cost,
                self.profile,
                true,
                watermark,
                stats,
                observed,
                0,
                None,
            )?),
            _ => {
                let mut flows: Vec<fw_core::NodeFlow> = Vec::new();
                for member in &self.plan.members {
                    for f in member.bundle.plan.node_flows(&self.model)? {
                        match flows.iter_mut().find(|x| x.window == f.window) {
                            Some(x) => {
                                x.updates = x.updates.saturating_add(f.updates);
                                x.combines = x.combines.saturating_add(f.combines);
                                x.cost = x.cost.saturating_add(f.cost);
                                x.exposed |= f.exposed;
                            }
                            None => flows.push(f),
                        }
                    }
                }
                Ok(crate::profile::PlanProfile::assemble_from_flows(
                    flows,
                    self.choice,
                    self.plan.unshared_cost,
                    self.profile,
                    true,
                    watermark,
                    stats,
                    observed,
                    0,
                    None,
                ))
            }
        }
    }

    /// Renders [`GroupPipeline::profile`] as fixed-layout text.
    pub fn explain(&self) -> ApiResult<String> {
        Ok(self.profile()?.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_core::{AggregateFunction, Window, WindowSet};
    use fw_engine::sorted_group_results;

    fn query(ranges: &[u64], f: AggregateFunction) -> WindowQuery {
        let windows = WindowSet::new(
            ranges
                .iter()
                .map(|&r| Window::tumbling(r).unwrap())
                .collect(),
        )
        .unwrap();
        WindowQuery::new(windows, f)
    }

    fn stream(n: u64) -> Vec<Event> {
        (0..n)
            .map(|t| Event::new(t, (t % 3) as u32, ((t * 7) % 23) as f64))
            .collect()
    }

    #[test]
    fn group_of_one_matches_the_session() {
        let q = query(&[20, 30, 40], AggregateFunction::Min);
        let events = stream(300);
        let session = crate::Session::from_query(q.clone())
            .collect_results(true)
            .element_work(0);
        let solo = session.run_batch(&events).unwrap();

        let group = QueryGroup::new()
            .query(q)
            .collect_results(true)
            .element_work(0);
        let out = group.run_batch(&events).unwrap();
        assert_eq!(out.events_processed, 300);
        let values: Vec<_> = out.results.iter().map(|r| r.result).collect();
        assert_eq!(
            fw_engine::sorted_results(values),
            fw_engine::sorted_results(solo.results)
        );
        assert!(out.results.iter().all(|r| r.query == QueryId(0)));
    }

    #[test]
    fn sql_group_round_trips_with_labels() {
        let mut group = QueryGroup::from_sql(fw_sql::FIG1_GROUP_SQL)
            .unwrap()
            .collect_results(true)
            .element_work(0)
            .build()
            .unwrap();
        assert_eq!(group.queries().len(), 3);
        assert_eq!(group.strategy(), GroupStrategy::Shared);
        for t in 0..7200u64 {
            group
                .push(Event::new(t, (t % 2) as u32, (t % 13) as f64))
                .unwrap();
        }
        let labels: Vec<String> = {
            let sample = |q: u32, agg: u32| GroupResult {
                query: QueryId(q),
                result: fw_engine::WindowResult {
                    window: Window::tumbling(1200).unwrap(),
                    interval: fw_core::Interval::new(0, 1200),
                    key: 0,
                    agg,
                    value: 0.0,
                },
            };
            (0..3)
                .map(|q| group.label_of(&sample(q, 0)).to_string())
                .collect()
        };
        assert_eq!(labels, vec!["MinTemp", "MaxTemp", "AvgTemp"]);
        let out = group.finish().unwrap();
        assert!(out.results.iter().any(|r| r.query == QueryId(2)));
    }

    #[test]
    fn register_and_deregister_round_trip() {
        let mut group = QueryGroup::new()
            .query(query(&[20, 40], AggregateFunction::Sum))
            .query(query(&[20, 60], AggregateFunction::Count))
            .collect_results(true)
            .element_work(0)
            .build()
            .unwrap();
        let events = stream(480);
        group.push_batch(&events[..240]).unwrap();
        group.advance_watermark(240).unwrap();

        let late = group
            .register(query(&[30, 60], AggregateFunction::Min))
            .unwrap();
        assert_eq!(late, QueryId(2));
        group.deregister(QueryId(1)).unwrap();
        assert_eq!(group.queries(), vec![QueryId(0), QueryId(2)]);
        assert!(matches!(
            group.deregister(QueryId(1)),
            Err(ApiError::UnknownQuery { .. })
        ));

        group.push_batch(&events[240..]).unwrap();
        let out = group.finish().unwrap();
        assert_eq!(out.stats.replans, 2);
        // The departed member's results all sealed by the boundary; the
        // late member's all start after it.
        for r in &out.results {
            match r.query {
                QueryId(1) => assert!(r.result.interval.end <= 240),
                QueryId(2) => assert!(r.result.interval.start >= 240),
                _ => {}
            }
        }
        let sorted = sorted_group_results(out.results.clone());
        assert_eq!(sorted, out.results, "finish returns canonical order");
    }

    #[test]
    fn last_query_cannot_leave() {
        let mut group = QueryGroup::new()
            .query(query(&[20], AggregateFunction::Sum))
            .build()
            .unwrap();
        let err = group.deregister(QueryId(0)).unwrap_err();
        assert!(matches!(err, ApiError::Optimize(CoreError::EmptyGroup)));
    }

    #[test]
    fn empty_group_does_not_build() {
        let err = QueryGroup::new().build().unwrap_err();
        assert!(matches!(err, ApiError::Optimize(CoreError::EmptyGroup)));
    }

    #[test]
    fn group_checkpoint_restores_the_registry_and_rescales() {
        let mut group = QueryGroup::new()
            .query(query(&[20, 40], AggregateFunction::Sum))
            .query(query(&[20, 60], AggregateFunction::Count))
            .sharing(SharingPolicy::Shared)
            .collect_results(true)
            .element_work(0)
            .build()
            .unwrap();
        let events = stream(480);
        group.push_batch(&events[..240]).unwrap();
        group.advance_watermark(240).unwrap();
        let late = group
            .register(query(&[30, 60], AggregateFunction::Min))
            .unwrap();
        group.push_batch(&events[240..300]).unwrap();
        let cursor = group.events_pushed() as usize;
        let mut snapshot = Vec::new();
        group.checkpoint(&mut snapshot).unwrap();

        // The checkpointing group streams on: its uninterrupted output is
        // the recovery oracle.
        group.push_batch(&events[300..]).unwrap();
        let oracle = group.finish().unwrap();

        // Restore at a different parallelism; the member registry (late
        // registration included) comes back from the snapshot.
        let restorer = QueryGroup::new()
            .collect_results(true)
            .element_work(0)
            .parallelism(Parallelism::Fixed(3));
        let mut restored = restorer.restore(&mut snapshot.as_slice()).unwrap();
        assert_eq!(restored.queries(), vec![QueryId(0), QueryId(1), late]);
        restored.push_batch(&events[cursor..]).unwrap();
        let out = restored.finish().unwrap();
        assert_eq!(
            sorted_group_results(out.results),
            sorted_group_results(oracle.results)
        );
        assert_eq!(out.stats.replans, oracle.stats.replans);
    }

    #[test]
    fn per_query_group_checkpoints_without_the_durable_flag() {
        let builder = QueryGroup::new()
            .query(query(&[20, 40], AggregateFunction::Sum))
            .query(query(&[20, 60], AggregateFunction::Count))
            .sharing(SharingPolicy::Unshared)
            .collect_results(true)
            .element_work(0);
        let events = stream(360);
        let run = |builder: &QueryGroup| {
            let mut group = builder.build().unwrap();
            group.push_batch(&events[..200]).unwrap();
            let mut snapshot = Vec::new();
            group.checkpoint(&mut snapshot).unwrap();
            group.push_batch(&events[200..]).unwrap();
            (snapshot, group.finish().unwrap())
        };
        // The setter changes nothing: same bytes, same results.
        let (snapshot, oracle) = run(&builder);
        let (flagged, _) = run(&builder.clone().durable(true));
        assert_eq!(snapshot, flagged);

        let mut restored = builder.restore(&mut snapshot.as_slice()).unwrap();
        restored.push_batch(&events[200..]).unwrap();
        let out = restored.finish().unwrap();
        assert_eq!(
            sorted_group_results(out.results),
            sorted_group_results(oracle.results)
        );
    }

    #[test]
    fn sharing_policy_pins_the_strategy() {
        let builder = QueryGroup::new()
            .query(query(&[20, 40], AggregateFunction::Sum))
            .query(query(&[20, 80], AggregateFunction::Min));
        let shared = builder
            .clone()
            .sharing(SharingPolicy::Shared)
            .build()
            .unwrap();
        assert_eq!(shared.strategy(), GroupStrategy::Shared);
        assert!(shared.shared_plan().is_some());
        let unshared = builder.sharing(SharingPolicy::Unshared).build().unwrap();
        assert_eq!(unshared.strategy(), GroupStrategy::PerQuery);
        assert!(unshared.shared_plan().is_none());
        assert!(shared.cost() <= unshared.cost());
    }
}
