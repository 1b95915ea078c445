//! [`GroupHost`]: the serving layer's long-lived query registry over one
//! shared [`GroupExec`].
//!
//! This mirrors the umbrella crate's `GroupPipeline` register/deregister
//! logic — members join and leave at the current watermark, the merged
//! plan is re-optimized over the new member set, and the executor swaps
//! plans in place with window state migrating across — with one serving
//! requirement the in-process facade deliberately forbids: **the group
//! may be empty.** Clients connect and disconnect at will, so the host
//! holds `Option<GroupExec>`; when the last member deregisters it seals
//! results up to the boundary, hands them back, and drops the executor,
//! and the next registration compiles a fresh one fast-forwarded to the
//! stream's high-water mark. While empty, pushed events are dropped (and
//! counted by the caller) — there is no subscriber to compute for.

use crate::ServeError;
use fw_core::{
    CostModel, GroupMember, GroupOptimizer, GroupPlan, GroupStrategy, PlanChoice, QueryId,
    Semantics, SharingPolicy, WindowQuery,
};
use fw_engine::checkpoint::{self as ckpt, CheckpointError, CheckpointResult};
use fw_engine::{ExecStats, GroupExec, GroupResult, Parallelism, PipelineOptions, ProfileLevel};

/// Compilation knobs for the hosted group, fixed for the host's lifetime.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// The cost model pricing merged vs standalone plans.
    pub model: CostModel,
    /// Plan-choice policy for every (re)optimization.
    pub choice: PlanChoice,
    /// Sharing policy; the strategy resolved at each group founding is
    /// pinned until the group next empties.
    pub policy: SharingPolicy,
    /// Coverage semantics override (validated per member).
    pub semantics: Option<Semantics>,
    /// Out-of-order tolerance in time units.
    pub out_of_order: u64,
    /// Emulated per-element work (0 disables; serving defaults to 0).
    pub element_work: u32,
    /// Key-sharded execution width.
    pub parallelism: Parallelism,
    /// Per-plan-node instrumentation level for hosted pipelines (off by
    /// default; `Counters` feeds the serve layer's per-node gauges).
    pub profile: ProfileLevel,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            model: CostModel::default(),
            choice: PlanChoice::Auto,
            policy: SharingPolicy::Auto,
            semantics: None,
            out_of_order: 0,
            element_work: 0,
            parallelism: Parallelism::Sequential,
            profile: ProfileLevel::default(),
        }
    }
}

/// A dynamic multi-query execution host; see the module docs.
pub struct GroupHost {
    config: HostConfig,
    /// The running executor; `None` while no query is registered.
    exec: Option<GroupExec>,
    members: Vec<GroupMember>,
    next_id: u32,
    /// Policy pinned to the strategy resolved at the current group
    /// founding (`None` while empty — the next founding re-resolves).
    pinned: Option<SharingPolicy>,
    /// Stream high-water mark across executor generations: the max of
    /// every announced watermark and every executor boundary observed.
    horizon: u64,
    /// Plan swaps across the host's lifetime (survives executor drops).
    replans: u64,
    /// Stats accumulated from already-dropped executor generations.
    retired_stats: ExecStats,
}

impl std::fmt::Debug for GroupHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupHost")
            .field("queries", &self.members.len())
            .field("watermark", &self.watermark())
            .field("replans", &self.replans)
            .finish_non_exhaustive()
    }
}

impl GroupHost {
    /// An empty host (no queries, no executor).
    #[must_use]
    pub fn new(config: HostConfig) -> Self {
        GroupHost {
            config,
            exec: None,
            members: Vec::new(),
            next_id: 0,
            pinned: None,
            horizon: 0,
            replans: 0,
            retired_stats: ExecStats::default(),
        }
    }

    /// Registers `query` at the current watermark and returns its id.
    /// The first registration (of a generation) founds a fresh executor
    /// fast-forwarded to the stream horizon; later ones rebuild the
    /// running plan in place. On error the member set is unchanged.
    pub fn register(&mut self, query: WindowQuery) -> Result<QueryId, ServeError> {
        let boundary = self.watermark();
        let id = QueryId(self.next_id);
        self.members.push(GroupMember {
            id,
            query,
            since: boundary,
        });
        if let Err(e) = self.replan(boundary) {
            self.members.pop();
            return Err(e);
        }
        self.next_id += 1;
        Ok(id)
    }

    /// Parses and registers one SQL statement.
    pub fn register_sql(&mut self, sql: &str) -> Result<QueryId, ServeError> {
        let query = fw_sql::parse_to_query(sql)?;
        self.register(query)
    }

    /// Deregisters `id` at the current watermark and returns every
    /// result sealed at or before the boundary that had not been polled
    /// yet (the departing member's final batch rides along). Unknown ids
    /// are [`ServeError::UnknownQuery`]. Unlike the in-process facade,
    /// the last member may leave: the executor is dropped and the group
    /// idles empty.
    pub fn deregister(&mut self, id: QueryId) -> Result<Vec<GroupResult>, ServeError> {
        let Some(position) = self.members.iter().position(|m| m.id == id) else {
            return Err(ServeError::UnknownQuery { id: id.0 });
        };
        let boundary = self.watermark();
        let removed = self.members.remove(position);
        if self.members.is_empty() {
            // Seal to the boundary, drain, retire the executor. Dropping
            // a (possibly sharded) executor without finish() is a clean,
            // panic-free teardown.
            let mut exec = self.exec.take().expect("members imply an executor");
            exec.advance_watermark(boundary)?;
            let finals = exec.poll_results();
            self.retired_stats = self.retired_stats + exec.stats();
            self.horizon = self.horizon.max(boundary).max(exec.watermark());
            self.pinned = None;
            return Ok(finals);
        }
        if let Err(e) = self.replan(boundary) {
            self.members.insert(position, removed);
            return Err(e);
        }
        Ok(Vec::new())
    }

    /// Re-optimizes over the current member set and swaps the plan at
    /// `boundary` (or founds a fresh executor when none is running).
    fn replan(&mut self, boundary: u64) -> Result<(), ServeError> {
        let policy = self.pinned.unwrap_or(self.config.policy);
        let plan = GroupOptimizer::new(self.config.model).plan(
            &self.members,
            self.config.choice,
            policy,
            self.config.semantics,
        )?;
        match self.exec.as_mut() {
            Some(exec) => exec.rebuild(&plan, boundary)?,
            None => {
                let options = PipelineOptions {
                    collect: true,
                    element_work: self.config.element_work,
                    out_of_order: self.config.out_of_order,
                    profile: self.config.profile,
                };
                let mut exec =
                    GroupExec::compile(&plan, options, self.config.parallelism.shard_count())?;
                // Fast-forward the fresh executor to the stream horizon
                // so ordering checks and instance sealing line up with
                // what earlier generations already consumed.
                exec.advance_watermark(boundary)?;
                self.pinned = Some(match exec.strategy() {
                    GroupStrategy::Shared => SharingPolicy::Shared,
                    GroupStrategy::PerQuery => SharingPolicy::Unshared,
                });
                self.exec = Some(exec);
            }
        }
        self.replans += 1;
        Ok(())
    }

    /// Pushes a columnar batch. Returns the number of events actually
    /// fed to the executor — `0` while no query is registered (the
    /// events are dropped, not buffered).
    pub fn push_columns(
        &mut self,
        times: &[u64],
        keys: &[u32],
        values: &[f64],
    ) -> Result<usize, ServeError> {
        match self.exec.as_mut() {
            Some(exec) => {
                exec.push_columns(times, keys, values)?;
                Ok(times.len())
            }
            None => {
                // No subscriber: drop, but keep the horizon honest so a
                // later registration does not time-travel.
                if let Some(&max) = times.iter().max() {
                    let slack = self.config.out_of_order;
                    self.horizon = self.horizon.max(max.saturating_sub(slack));
                }
                Ok(0)
            }
        }
    }

    /// Declares that no event before `watermark` will arrive.
    pub fn advance_watermark(&mut self, watermark: u64) -> Result<(), ServeError> {
        if let Some(exec) = self.exec.as_mut() {
            exec.advance_watermark(watermark)?;
        }
        self.horizon = self.horizon.max(watermark);
        Ok(())
    }

    /// Drains routed results collected since the last poll.
    #[must_use]
    pub fn poll_results(&mut self) -> Vec<GroupResult> {
        match self.exec.as_mut() {
            Some(exec) => exec.poll_results(),
            None => Vec::new(),
        }
    }

    /// The group's ordering watermark (monotone across generations).
    #[must_use]
    pub fn watermark(&self) -> u64 {
        match self.exec.as_ref() {
            Some(exec) => exec.watermark().max(self.horizon),
            None => self.horizon,
        }
    }

    /// Ids of the currently registered queries, in registration order.
    #[must_use]
    pub fn queries(&self) -> Vec<QueryId> {
        self.members.iter().map(|m| m.id).collect()
    }

    /// Number of currently registered queries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True while no query is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Plan swaps (registrations, deregistrations, foundings) across the
    /// host's lifetime.
    #[must_use]
    pub fn replans(&self) -> u64 {
        self.replans
    }

    /// Cost-model accounting summed over every executor generation.
    #[must_use]
    pub fn stats(&self) -> ExecStats {
        let mut total = self.retired_stats;
        if let Some(exec) = self.exec.as_ref() {
            total = total + exec.stats();
        }
        total
    }

    /// Key-interner high-water `(slots, bytes)` of the running executor
    /// (zero while no queries are registered): the dense key space
    /// backing the engine's pane slabs. A synchronizing snapshot on
    /// sharded executors — call it at announcement cadence, not per
    /// event.
    #[must_use]
    pub fn interner_stats(&self) -> (u64, u64) {
        self.exec.as_ref().map_or((0, 0), |e| e.interner_stats())
    }

    /// Per-plan-node counters of the running executor (empty while no
    /// query is registered; all-zero unless [`HostConfig::profile`]
    /// enables counters). Like [`Self::interner_stats`], this is a
    /// synchronizing snapshot on sharded executors — call it at
    /// announcement or scrape cadence, never per event.
    #[must_use]
    pub fn node_profiles(&self) -> Vec<fw_engine::NodeProfile> {
        self.exec
            .as_ref()
            .map_or_else(Vec::new, |e| e.node_profiles())
    }

    /// Re-derives the [`GroupPlan`] the running executor was compiled
    /// from: the optimizer is deterministic, so planning the current
    /// member set under the pinned policy reproduces it exactly.
    fn current_plan(&self) -> CheckpointResult<GroupPlan> {
        let policy = self.pinned.ok_or(CheckpointError::Unsupported {
            reason: "running executor without a pinned sharing policy",
        })?;
        GroupOptimizer::new(self.config.model)
            .plan(
                &self.members,
                self.config.choice,
                policy,
                self.config.semantics,
            )
            .map_err(|_| CheckpointError::BadValue {
                what: "host member set does not re-plan",
            })
    }

    /// Serializes the host — member registry, watermark horizon,
    /// lifetime accounting, and (when a group is running) the full
    /// executor state — as a [`ckpt::KIND_HOST`] snapshot. Checkpointing
    /// is transparent: the live host streams on with identical results.
    pub fn checkpoint<W: std::io::Write + ?Sized>(&mut self, w: &mut W) -> CheckpointResult<()> {
        ckpt::write_header(w, ckpt::KIND_HOST)?;
        ckpt::put_u32(w, self.next_id)?;
        ckpt::put_u8(
            w,
            match self.pinned {
                None => 0,
                Some(SharingPolicy::Shared) => 1,
                _ => 2,
            },
        )?;
        ckpt::put_u64(w, self.horizon)?;
        ckpt::put_u64(w, self.replans)?;
        ckpt::put_stats(w, &self.retired_stats)?;
        ckpt::put_u32(w, ckpt::count_u32(self.members.len(), "host member count")?)?;
        for member in &self.members {
            ckpt::put_u32(w, member.id.0)?;
            ckpt::put_u64(w, member.since)?;
            ckpt::put_query(w, &member.query)?;
        }
        if self.exec.is_none() {
            return ckpt::put_u8(w, 0);
        }
        ckpt::put_u8(w, 1)?;
        let plan = self.current_plan()?;
        self.exec
            .as_mut()
            .expect("checked above")
            .checkpoint(&plan, w)
    }

    /// Restores a host from a [`Self::checkpoint`] snapshot. The
    /// `config` supplies everything the snapshot deliberately omits —
    /// cost model, plan/sharing policy, parallelism — so a checkpoint
    /// taken at N shards restores into however many `config` asks for
    /// (elastic rescale), byte-identical results either way.
    pub fn restore<R: std::io::Read + ?Sized>(
        config: HostConfig,
        r: &mut R,
    ) -> CheckpointResult<GroupHost> {
        ckpt::read_header(r, ckpt::KIND_HOST)?;
        let next_id = ckpt::get_u32(r, "host next id")?;
        let pinned = match ckpt::get_u8(r, "host pinned policy")? {
            0 => None,
            1 => Some(SharingPolicy::Shared),
            2 => Some(SharingPolicy::Unshared),
            _ => {
                return Err(CheckpointError::BadValue {
                    what: "host pinned policy code",
                })
            }
        };
        let horizon = ckpt::get_u64(r, "host horizon")?;
        let replans = ckpt::get_u64(r, "host replans")?;
        let retired_stats = ckpt::get_stats(r)?;
        let member_count = ckpt::get_u32(r, "host member count")? as usize;
        let mut members = Vec::with_capacity(member_count.min(1024));
        for _ in 0..member_count {
            let id = QueryId(ckpt::get_u32(r, "host member id")?);
            let since = ckpt::get_u64(r, "host member since")?;
            let query = ckpt::get_query(r)?;
            members.push(GroupMember { id, query, since });
        }
        let exec = match ckpt::get_u8(r, "host executor flag")? {
            0 => None,
            1 => {
                let policy = pinned.ok_or(CheckpointError::BadValue {
                    what: "checkpointed executor without a pinned sharing policy",
                })?;
                let plan = GroupOptimizer::new(config.model)
                    .plan(&members, config.choice, policy, config.semantics)
                    .map_err(|_| CheckpointError::BadValue {
                        what: "checkpointed member set does not re-plan",
                    })?;
                let options = PipelineOptions {
                    collect: true,
                    element_work: config.element_work,
                    out_of_order: config.out_of_order,
                    profile: config.profile,
                };
                Some(GroupExec::restore(
                    &plan,
                    options,
                    config.parallelism.shard_count(),
                    r,
                )?)
            }
            _ => {
                return Err(CheckpointError::BadValue {
                    what: "host executor flag",
                })
            }
        };
        if exec.is_none() && !members.is_empty() {
            return Err(CheckpointError::BadValue {
                what: "checkpointed members without an executor",
            });
        }
        Ok(GroupHost {
            config,
            exec,
            members,
            next_id,
            pinned,
            horizon,
            replans,
            retired_stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_core::{AggregateFunction, Window, WindowSet};

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

    fn feed(host: &mut GroupHost, range: std::ops::Range<u64>) {
        let times: Vec<u64> = range.collect();
        let keys: Vec<u32> = times.iter().map(|t| (t % 3) as u32).collect();
        let values: Vec<f64> = times.iter().map(|t| ((t * 7) % 23) as f64).collect();
        host.push_columns(&times, &keys, &values).unwrap();
    }

    #[test]
    fn empty_host_drops_events_and_tracks_horizon() {
        let mut host = GroupHost::new(HostConfig::default());
        assert!(host.is_empty());
        feed(&mut host, 0..100);
        assert_eq!(host.poll_results(), Vec::new());
        host.advance_watermark(90).unwrap();
        assert_eq!(host.watermark(), 99);
        assert_eq!(host.stats().elements(), 0);
    }

    #[test]
    fn last_member_can_leave_and_group_refounds() {
        let mut host = GroupHost::new(HostConfig::default());
        let q0 = host
            .register(query(&[10, 20], AggregateFunction::Sum))
            .unwrap();
        feed(&mut host, 0..40);
        host.advance_watermark(40).unwrap();
        let polled = host.poll_results();
        assert!(!polled.is_empty());

        feed(&mut host, 40..55);
        let finals = host.deregister(q0).unwrap();
        assert!(host.is_empty());
        // The departing member got everything sealed to the boundary.
        assert!(finals.iter().all(|r| r.query == q0));
        assert!(finals.iter().all(|r| r.result.interval.end <= 55));

        // Unknown afterwards.
        assert!(matches!(
            host.deregister(q0),
            Err(ServeError::UnknownQuery { id: 0 })
        ));

        // While empty, the stream keeps flowing into the void.
        feed(&mut host, 55..80);
        host.advance_watermark(80).unwrap();

        // A second generation founds fresh at the horizon; its results
        // never reach back before its registration.
        let q1 = host.register(query(&[10], AggregateFunction::Min)).unwrap();
        assert_eq!(q1, QueryId(1));
        feed(&mut host, 80..120);
        host.advance_watermark(120).unwrap();
        let second = host.poll_results();
        assert!(!second.is_empty());
        assert!(second.iter().all(|r| r.query == q1));
        assert!(second.iter().all(|r| r.result.interval.start >= 80));
        assert!(host.replans() >= 2);
    }

    #[test]
    fn host_checkpoint_restores_and_rescales() {
        let bits = |rows: Vec<GroupResult>| {
            fw_engine::sorted_group_results(rows)
                .into_iter()
                .map(|r| {
                    (
                        r.query.0,
                        r.result.window,
                        r.result.interval.start,
                        r.result.key,
                        r.result.agg,
                        r.result.value.to_bits(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let mut host = GroupHost::new(HostConfig::default());
        let q0 = host
            .register(query(&[10, 20], AggregateFunction::Sum))
            .unwrap();
        let q1 = host
            .register(query(&[20, 40], AggregateFunction::Median))
            .unwrap();
        feed(&mut host, 0..100);
        host.advance_watermark(80).unwrap();
        let _delivered = host.poll_results();

        let wm_at_checkpoint = host.watermark();
        let mut bytes = Vec::new();
        host.checkpoint(&mut bytes).unwrap();

        // Checkpointing is transparent: the live host streams on and
        // serves as the oracle for the restored replica.
        feed(&mut host, 100..200);
        host.advance_watermark(260).unwrap();
        let oracle_tail = host.poll_results();

        // Restore into a *sharded* host (elastic rescale) and replay the
        // exact stream suffix the snapshot's cursor excludes.
        let config = HostConfig {
            parallelism: Parallelism::Fixed(3),
            ..HostConfig::default()
        };
        let mut restored = GroupHost::restore(config, &mut bytes.as_slice()).unwrap();
        assert_eq!(restored.queries(), vec![q0, q1]);
        assert_eq!(restored.watermark(), wm_at_checkpoint);
        feed(&mut restored, 100..200);
        restored.advance_watermark(260).unwrap();
        let tail = restored.poll_results();
        assert_eq!(bits(tail), bits(oracle_tail));
        assert_eq!(restored.replans(), host.replans());
    }

    #[test]
    fn empty_host_checkpoint_round_trips() {
        let mut host = GroupHost::new(HostConfig::default());
        feed(&mut host, 0..50);
        host.advance_watermark(50).unwrap();
        let wm_at_checkpoint = host.watermark();
        let mut bytes = Vec::new();
        host.checkpoint(&mut bytes).unwrap();
        let mut restored =
            GroupHost::restore(HostConfig::default(), &mut bytes.as_slice()).unwrap();
        assert!(restored.is_empty());
        assert_eq!(restored.watermark(), wm_at_checkpoint);
        // A fresh generation founds at the preserved horizon.
        let q = restored
            .register(query(&[10], AggregateFunction::Max))
            .unwrap();
        feed(&mut restored, 50..90);
        restored.advance_watermark(90).unwrap();
        let rows = restored.poll_results();
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|r| r.query == q));
        assert!(rows.iter().all(|r| r.result.interval.start >= 50));
    }

    #[test]
    fn corrupt_host_snapshots_fail_loudly() {
        let mut host = GroupHost::new(HostConfig::default());
        host.register(query(&[10], AggregateFunction::Sum)).unwrap();
        feed(&mut host, 0..30);
        let mut bytes = Vec::new();
        host.checkpoint(&mut bytes).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                GroupHost::restore(HostConfig::default(), &mut bytes[..cut].as_ref()).is_err(),
                "truncation at {cut} must not restore"
            );
        }
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            GroupHost::restore(HostConfig::default(), &mut bad.as_slice()),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn failed_registration_rolls_back() {
        let mut host = GroupHost::new(HostConfig {
            semantics: Some(Semantics::CoveredBy),
            ..HostConfig::default()
        });
        let q0 = host
            .register(query(&[10, 20], AggregateFunction::Min))
            .unwrap();
        // SUM under covered-by semantics is rejected; the group must be
        // exactly as before.
        let err = host.register(query(&[10, 30], AggregateFunction::Sum));
        assert!(err.is_err());
        assert_eq!(host.queries(), vec![q0]);
        feed(&mut host, 0..30);
        host.advance_watermark(30).unwrap();
        assert!(!host.poll_results().is_empty());
    }
}
