//! The pane driver: one execution core over two pane layouts.
//!
//! [`Core`] owns everything about executing a compiled plan that does not
//! depend on how a pane stores its accumulators — topology, the run-sliced
//! columnar feed, the sealing cascade with its sampled clock, state export
//! and adoption for live plan swaps and checkpoints, interner compaction,
//! accounting and node profiles. The accumulator storage and the three hot
//! kernels (fold a run, combine a pane, emit a pane) sit behind
//! [`PaneLayout`], which has two implementations:
//!
//! * [`crate::pane::Mono`] — one `Slab<A::Acc>` per pane, monomorphized
//!   over the aggregate; serves every single-term plan.
//! * [`crate::multi::MultiLayout`] — one row per key slot holding its
//!   stamp and every aggregate term's accumulator; serves multi-term plans.
//!
//! [`compile_core`] picks the layout from the plan's term count alone (see
//! DESIGN.md §3.3 for the measurements behind keeping both). State leaves
//! and enters a core only as [`GroupState`] — rows of [`Slot`] keyed by raw
//! key — so a plan swap may change the layout along with the topology.

use crate::agg::{Aggregate, AvgAgg, CountAgg, MaxAgg, MedianAgg, MinAgg, SumAgg, SumCount};
use crate::error::{EngineError, Result};
use crate::event::ResultSink;
use crate::executor::{ExecStats, PROFILE_CLOCK_STRIDE};
use crate::pane::{PaneDeque, PaneState};
use crate::profile::{NodeProfile, ProfileLevel};
use crate::slab::KeyInterner;
use fw_core::{AggregateFunction, Interval, QueryPlan, Window};
use std::time::Instant;

/// One accumulator in interchange form, dispatching to the existing
/// [`Aggregate`] state shapes. Crate-visible so the checkpoint codec can
/// serialize pane state shape-checked against each slot's function.
#[derive(Debug, Clone)]
pub(crate) enum Slot {
    /// MIN / MAX / SUM state.
    F64(f64),
    /// COUNT state.
    U64(u64),
    /// AVG state.
    SumCount(SumCount),
    /// MEDIAN state (holistic: the full multiset).
    Values(Vec<f64>),
}

pub(crate) fn init_slot(f: AggregateFunction) -> Slot {
    match f {
        AggregateFunction::Min => Slot::F64(MinAgg::init()),
        AggregateFunction::Max => Slot::F64(MaxAgg::init()),
        AggregateFunction::Sum => Slot::F64(SumAgg::init()),
        AggregateFunction::Count => Slot::U64(CountAgg::init()),
        AggregateFunction::Avg => Slot::SumCount(AvgAgg::init()),
        AggregateFunction::Median => Slot::Values(MedianAgg::init()),
    }
}

/// Per-key accumulators for one window instance: one slot per aggregate
/// term, in SELECT-list order. This is the *interchange* row format —
/// state migration ([`GroupState`]) and the checkpoint codec speak rows
/// keyed by raw key; live panes hold the same state in their layout's own
/// representation.
pub(crate) type MultiAcc = Box<[Slot]>;

/// Key-addressed pane rows: `(raw key, row)` pairs, the migration and
/// checkpoint representation of one instance's state.
pub(crate) type KeyedPane = Vec<(u32, MultiAcc)>;

/// Exported execution state of a core, captured at a watermark boundary
/// for a live plan swap (`PlanPipeline::rebuild`) or a checkpoint.
///
/// Export first cascades every *in-flight* open pane down the
/// sub-aggregate forest ([`Core::flush_open`]) so that each exposed
/// window's open instances hold **every** event observed so far — whether
/// it arrived raw or was still buffered inside a parent/factor window's
/// unsealed pane. Only exposed windows are then exported: the new plan's
/// internal topology (factor windows, feed edges) may be entirely
/// different, and its fresh internal state will deliver exactly the events
/// *after* the boundary, so migrated instances (events before) plus fresh
/// flow (events after) reconstruct every instance exactly once.
///
/// Slots are identified by `(function, column)` so state survives a slot
/// list that grows, shrinks, or reorders across the swap; slots new to the
/// plan initialize fresh (their partial instances are suppressed by the
/// group routing layer's `since` filter).
pub(crate) struct GroupState {
    /// Ordering watermark of the exporting core.
    pub(crate) watermark: u64,
    /// Maximum event time the exporting core has folded.
    pub(crate) last_event_time: u64,
    /// Slot identities of the exporting core, slot-indexed.
    pub(crate) slots: Vec<(AggregateFunction, String)>,
    /// Open panes of every exposed window: `(window, [(instance,
    /// key-addressed rows)])`. Rows travel keyed by raw key and sorted by
    /// it, so exported state is neutral to any core's slot assignment —
    /// the adopting core re-interns on its own table.
    pub(crate) windows: Vec<(Window, Vec<(u64, KeyedPane)>)>,
}

/// How a pane stores its per-key accumulators, and the kernels that touch
/// them. Everything else about execution lives in [`Core`].
pub(crate) trait PaneLayout: Sized + Send + 'static {
    /// One window instance's per-key state.
    type Pane: PaneState + Send;
    /// Per-operator routing the layout derives at compile time.
    type Op: Send;

    /// The plan-wide part of the layout (the aggregate terms).
    fn new(plan: &QueryPlan) -> Self;

    /// The per-operator part, and whether raw events feed the operator.
    /// Rejects holistic terms in sub-aggregate position.
    fn op(&self, exposed: bool, sub_fed: bool) -> Result<(Self::Op, bool)>;

    /// Folds one raw event into every instance containing `t` — the
    /// per-event `push` path. A one-element run by default.
    #[inline]
    fn update_point(&self, store: &mut Store<Self>, t: u64, slot: u32, value: f64) {
        self.update_run(store, &[t], &[slot], &[value]);
    }

    /// Folds a *run* of raw events — column slices whose timestamps are
    /// non-decreasing and all route to the same instance set, with keys
    /// pre-translated to dense slots — into those instances.
    fn update_run(&self, store: &mut Store<Self>, times: &[u64], slots: &[u32], values: &[f64]);

    /// Folds a whole upstream pane into every instance of `store` whose
    /// lifetime contains `iv`. Both panes are slot-aligned through the
    /// core's interner; `slot_keys` is its slot→key table.
    fn combine_pane(
        &self,
        store: &mut Store<Self>,
        iv: &Interval,
        source: &Self::Pane,
        slot_keys: &[u32],
    );

    /// Emits the pane's results straight into the sink; returns the row
    /// count.
    fn emit(
        &self,
        pane: &Self::Pane,
        window: Window,
        interval: Interval,
        slot_keys: &[u32],
        sink: &mut ResultSink,
    ) -> u64;

    /// Folds the carried (pre-plan-swap) half of an instance into its
    /// live half at emission time: combine for combinable functions,
    /// multiset concatenation for holistic ones. This merges two halves
    /// of the *same* instance, not sub-aggregates, so it is sound for
    /// every function class.
    fn merge(&self, into: &mut Self::Pane, carried: &Self::Pane);

    /// Reads the pane out as interchange rows (any order).
    fn read_rows(&self, pane: &Self::Pane, slot_keys: &[u32]) -> KeyedPane;

    /// Writes one interchange row (already in this layout's term order)
    /// into `slot`, occupying it.
    fn write_row(&self, pane: &mut Self::Pane, slot: u32, row: &[Slot]);
}

/// The open instances of one window operator: the [`PaneDeque`]
/// bookkeeping, panes parked by a plan swap, the layout's per-operator
/// routing, element-work emulation and cost-model accounting.
pub(crate) struct Store<L: PaneLayout> {
    pub(crate) deque: PaneDeque<L::Pane>,
    /// Carried-over panes from a live plan swap, for open instances of
    /// operators that feed children — ascending by instance index, held
    /// *outside* the regular deque so sealing can cascade only the
    /// post-swap pane to children and fold the pre-swap half in just
    /// before emission (see [`Core::adopt`]). Pre-swap contributions
    /// already reached every descendant through the export-time flush;
    /// cascading them again would double-count (fatal for SUM/COUNT/AVG).
    carry: Vec<(u64, L::Pane)>,
    pub(crate) op: L::Op,
    /// Per-element emulated work (see [`crate::pane::DEFAULT_ELEMENT_WORK`]).
    pub(crate) work: u32,
    /// Sink for the emulated work so it is not optimized away.
    pub(crate) work_sink: u64,
    /// Pane-level raw updates (counted once per element, not per term).
    pub(crate) updates: u64,
    /// Pane-level sub-aggregate combines (once per element, not per term).
    pub(crate) combines: u64,
    /// Per-term accumulator operations (the fan-out the pane work feeds).
    pub(crate) agg_ops: u64,
    /// Instances sealed at this operator (profiling; counters level).
    seals: u64,
    /// Result rows emitted from this operator (profiling; counters level).
    emitted: u64,
    /// High-water of live entries in any sealing pane (profiling).
    pane_live_hw: u64,
    /// Sampled nanoseconds attributed to this operator (timed level).
    nanos: u64,
}

impl<L: PaneLayout> Store<L> {
    pub(crate) fn new(window: Window, op: L::Op, work: u32) -> Self {
        Store {
            deque: PaneDeque::new(window),
            carry: Vec::new(),
            op,
            work,
            work_sink: 0,
            updates: 0,
            combines: 0,
            agg_ops: 0,
            seals: 0,
            emitted: 0,
            pane_live_hw: 0,
            nanos: 0,
        }
    }

    /// Positions the store at its next due instance, taking carried-over
    /// panes into account: an instance whose only content is carry must
    /// still seal (the plain skip-empty fast-forward would drop it).
    fn next_due(&mut self, watermark: u64) -> Option<Interval> {
        match self.carry.first() {
            None => self.deque.prepare_due(watermark),
            Some(&(stop, _)) => self.deque.prepare_due_upto(watermark, stop),
        }
    }

    /// Folds the carried pane for the front instance (if any) into the
    /// front pane — called after the instance cascaded to children and
    /// before it is emitted, so children only ever see post-swap
    /// contributions.
    fn merge_carry_front(&mut self, layout: &L, front: &Interval) {
        let Some(&(m, _)) = self.carry.first() else {
            return;
        };
        if self.deque.window().interval(m) == *front {
            let (_, carried) = self.carry.remove(0);
            layout.merge(self.deque.pane_mut(m), &carried);
        }
    }

    /// True when the store holds no live state at all: every open pane is
    /// empty and no carried-over swap state is parked. Carried panes are
    /// slot-addressed, so compaction must also wait for them to drain.
    fn is_idle(&self) -> bool {
        self.carry.is_empty() && self.deque.is_idle()
    }
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Returns the exclusive time limit of the run starting at `t0`: the
/// earliest next slide boundary over `windows`, capped at `deadline`
/// (instance routing changes only at multiples of the slide, and nothing
/// strictly below the deadline can seal).
///
/// A *run* is a maximal column slice whose events all route to the same
/// instance set of every raw-fed window and cannot seal anything: the
/// instance arithmetic (one division per window) and the sealing check
/// are then paid once per run instead of once per event, and each run is
/// folded per key so a key repeated k times in a run costs one slot
/// resolve instead of k. Mostly-in-order streams at the paper's constant
/// pace produce runs of a whole slide (η·s events), which is where the
/// columnar ingestion win comes from.
#[inline]
fn run_limit<'a>(t0: u64, windows: impl Iterator<Item = &'a Window>, deadline: u64) -> u64 {
    let mut limit = deadline;
    for window in windows {
        let s = window.slide();
        limit = limit.min((t0 / s + 1).saturating_mul(s));
    }
    limit
}

/// Length of the run starting at `times[0]`: the maximal non-decreasing
/// prefix strictly below `limit`. A timestamp decrease ends the run (the
/// next run's head is then validated against the watermark, reproducing
/// the per-event out-of-order check at the same position).
#[inline]
fn run_len(times: &[u64], limit: u64) -> usize {
    let mut prev = times[0];
    let mut j = 1;
    while j < times.len() && times[j] >= prev && times[j] < limit {
        prev = times[j];
        j += 1;
    }
    j
}

/// Interner compaction floor: below this many slots the dense tables are
/// too small to be worth recycling.
const COMPACT_MIN_SLOTS: usize = 4096;

/// Translates raw keys into dense slots through `interner`, appending to
/// `slot_buf` (cleared first). Consecutive equal keys — the common case
/// for run-sliced streams — share one interner probe.
#[inline]
fn intern_keys(interner: &mut KeyInterner, keys: &[u32], slot_buf: &mut Vec<u32>) {
    slot_buf.clear();
    slot_buf.reserve(keys.len());
    let mut last_key = 0u32;
    let mut last_slot = 0u32;
    let mut have_last = false;
    for &key in keys {
        if !have_last || key != last_key {
            last_slot = interner.intern(key);
            last_key = key;
            have_last = true;
        }
        slot_buf.push(last_slot);
    }
}

/// Object-safe view of a compiled [`Core`], so one
/// [`crate::executor::PlanPipeline`] type serves every layout. `Send` so a
/// compiled pipeline can move onto a shard worker thread (see
/// [`crate::shard::ShardedPipeline`]).
///
/// The feed primitive is **columnar**: equally long timestamp/key/value
/// slices, consumed run-sliced (see [`run_limit`]). Row-oriented entry
/// points transpose (or wrap a single event as one-element columns)
/// before reaching the core.
pub(crate) trait PipelineCore: Send {
    fn feed_columns(
        &mut self,
        times: &[u64],
        keys: &[u32],
        values: &[f64],
        sink: &mut ResultSink,
    ) -> Result<()>;
    fn advance_to(&mut self, watermark: u64, sink: &mut ResultSink);
    fn watermark(&self) -> u64;
    fn events_fed(&self) -> u64;
    fn last_event_time(&self) -> u64;
    fn results_emitted(&self) -> u64;
    fn stats(&self) -> ExecStats;
    fn work_total(&self) -> u64;
    /// Drains the core's migratable state (see [`GroupState`]). The core
    /// must be discarded afterwards: re-adopting into the *same* core
    /// would double-deliver the panes the export flushed downward.
    fn export_state(&mut self) -> GroupState;
    /// Installs exported state into this freshly compiled core.
    fn adopt(&mut self, state: GroupState);
    /// `(slots, bytes)` high-water mark of the core's key interner — the
    /// dense key space backing the pane slabs (see [`crate::slab`]).
    fn interner_stats(&self) -> (u64, u64);
    /// Observed counters for every window node, in `window_nodes` order
    /// (see [`NodeProfile`]).
    fn node_profiles(&self) -> Vec<NodeProfile>;
    /// Interner compactions performed by this core.
    fn compactions(&self) -> u64;
}

/// Compiles `plan` onto the layout its term count selects: the
/// monomorphized slab layout for one aggregate term, the row layout for
/// several.
pub(crate) fn compile_core(
    plan: &QueryPlan,
    element_work: u32,
    profile: ProfileLevel,
) -> Result<Box<dyn PipelineCore>> {
    use crate::multi::MultiLayout;
    use crate::pane::Mono;
    fn boxed<L: PaneLayout>(
        plan: &QueryPlan,
        work: u32,
        profile: ProfileLevel,
    ) -> Result<Box<dyn PipelineCore>> {
        Ok(Box::new(Core::<L>::compile(plan, work, profile)?))
    }
    if plan.aggregates().len() > 1 {
        return boxed::<MultiLayout>(plan, element_work, profile);
    }
    match plan.function() {
        AggregateFunction::Min => boxed::<Mono<MinAgg>>(plan, element_work, profile),
        AggregateFunction::Max => boxed::<Mono<MaxAgg>>(plan, element_work, profile),
        AggregateFunction::Sum => boxed::<Mono<SumAgg>>(plan, element_work, profile),
        AggregateFunction::Count => boxed::<Mono<CountAgg>>(plan, element_work, profile),
        AggregateFunction::Avg => boxed::<Mono<AvgAgg>>(plan, element_work, profile),
        AggregateFunction::Median => boxed::<Mono<MedianAgg>>(plan, element_work, profile),
    }
}

/// The compiled physical pipeline, generic over the pane layout.
pub(crate) struct Core<L: PaneLayout> {
    layout: L,
    stores: Vec<Store<L>>,
    windows: Vec<Window>,
    exposed: Vec<bool>,
    children: Vec<Vec<usize>>,
    /// Operators that receive raw events.
    raw_ops: Vec<usize>,
    /// Plan [`fw_core::NodeId`] of each operator (profiling identity).
    node_ids: Vec<usize>,
    /// Per-node instrumentation level (see [`ProfileLevel`]).
    profile: ProfileLevel,
    /// Seal passes performed (drives the sampled per-node clock).
    seal_passes: u64,
    /// Feed batches performed (drives the sampled per-node clock).
    feed_passes: u64,
    /// Interner compactions performed (trace observability).
    compactions: u64,
    /// Slot identities (`(function, column)`), term-indexed — the key
    /// state migration matches slots by across plan swaps.
    term_ids: Vec<(AggregateFunction, String)>,
    /// Key → dense slot, shared by every store so parent and child panes
    /// align slot-for-slot and combines are linear merges.
    interner: KeyInterner,
    /// Per-batch key→slot translation buffer (reused; ingress-only).
    slot_buf: Vec<u32>,
    /// Largest live-entry count seen in a sealing pane since the last
    /// compaction — the signal distinguishing a genuinely wide key space
    /// from a rotating one that has retired most of its slots.
    peak_pane_live: usize,
    /// `fed` at the last compaction (spacing guard against thrash).
    last_compact_fed: u64,
    /// Interner high-water `(slots, bytes)` across compactions.
    interner_hw: (u64, u64),
    watermark: u64,
    /// `min` over stores of the next instance end; events strictly before
    /// this cannot seal anything, so the per-event fast path is one compare.
    deadline: u64,
    results_emitted: u64,
    /// Events successfully folded into the operators.
    fed: u64,
    /// Maximum event time among fed events (the end-of-stream seal point;
    /// unlike `watermark`, never moved by explicit announcements).
    last_event_time: u64,
}

impl<L: PaneLayout> Core<L> {
    fn compile(plan: &QueryPlan, element_work: u32, profile: ProfileLevel) -> Result<Self> {
        plan.validate().map_err(EngineError::InvalidPlan)?;
        let layout = L::new(plan);
        let term_ids = plan
            .aggregates()
            .iter()
            .map(|s| (s.function(), s.column().to_string()))
            .collect();
        let node_ids: Vec<usize> = plan.window_nodes().collect();
        let op_of = |node: usize| {
            node_ids
                .iter()
                .position(|&n| n == node)
                .expect("window node")
        };

        let mut windows = Vec::with_capacity(node_ids.len());
        let mut exposed = Vec::with_capacity(node_ids.len());
        let mut children = vec![Vec::new(); node_ids.len()];
        let mut raw_ops = Vec::new();
        let mut stores = Vec::with_capacity(node_ids.len());
        for (op, &node) in node_ids.iter().enumerate() {
            let window = *plan.window_at(node).expect("window node");
            let is_exposed = plan.is_exposed(node);
            let parent = plan.feeding_window(node);
            let (layout_op, raw_fed) = layout.op(is_exposed, parent.is_some())?;
            if let Some(parent) = parent {
                children[op_of(parent)].push(op);
            }
            if raw_fed {
                raw_ops.push(op);
            }
            windows.push(window);
            exposed.push(is_exposed);
            stores.push(Store::new(window, layout_op, element_work));
        }
        let mut core = Core {
            layout,
            stores,
            windows,
            exposed,
            children,
            raw_ops,
            node_ids,
            profile,
            seal_passes: 0,
            feed_passes: 0,
            compactions: 0,
            term_ids,
            interner: KeyInterner::new(),
            slot_buf: Vec::new(),
            peak_pane_live: 0,
            last_compact_fed: 0,
            interner_hw: (0, 0),
            watermark: 0,
            deadline: 0,
            results_emitted: 0,
            fed: 0,
            last_event_time: 0,
        };
        core.recompute_deadline();
        Ok(core)
    }

    fn recompute_deadline(&mut self) {
        self.deadline = self
            .stores
            .iter()
            .map(|s| s.deque.front_end())
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Whether this pass is one the per-node clock samples (one pass in
    /// [`PROFILE_CLOCK_STRIDE`], and only at [`ProfileLevel::Timed`]).
    fn sampled(level: ProfileLevel, passes: &mut u64) -> bool {
        level.clock_on() && {
            *passes = passes.wrapping_add(1);
            passes.is_multiple_of(PROFILE_CLOCK_STRIDE)
        }
    }

    /// Runs one layout kernel against `store`, attributing its time to the
    /// store's node on sampled passes.
    #[inline]
    fn timed(clock: bool, store: &mut Store<L>, kernel: impl FnOnce(&mut Store<L>)) {
        let t0 = clock.then(Instant::now);
        kernel(store);
        if let Some(t0) = t0 {
            store.nanos += nanos_since(t0);
        }
    }

    /// The one-event feed (the per-event `push` wrapper): skips the slot
    /// buffer and the run arithmetic entirely and keeps the layout's point
    /// kernel, so the per-event API costs what it did before columnar
    /// ingestion existed.
    #[inline]
    fn feed_point(
        &mut self,
        clock: bool,
        t: u64,
        key: u32,
        value: f64,
        sink: &mut ResultSink,
    ) -> Result<()> {
        if t < self.watermark {
            return Err(EngineError::OutOfOrderEvent {
                at: t,
                watermark: self.watermark,
            });
        }
        if t >= self.deadline {
            self.advance(t, sink);
        }
        self.watermark = t;
        let slot = self.interner.intern(key);
        for &op in &self.raw_ops {
            Self::timed(clock, &mut self.stores[op], |store| {
                self.layout.update_point(store, t, slot, value);
            });
        }
        self.fed += 1;
        self.last_event_time = self.last_event_time.max(t);
        Ok(())
    }

    /// Seals every instance with `end ≤ watermark`, cascading
    /// sub-aggregates down the forest. Operators are stored in
    /// topological order (parents first), so a single pass suffices; the
    /// pass also refreshes the deadline, so sealing adds no extra scan.
    /// Cascading runs *before* the carry merge, so instances migrated
    /// across a plan swap deliver only their post-swap half to children
    /// (the pre-swap half already arrived through the export-time flush)
    /// while still emitting the complete instance.
    fn advance(&mut self, watermark: u64, sink: &mut ResultSink) {
        let counters = self.profile.counters_on();
        let clock = Self::sampled(self.profile, &mut self.seal_passes);
        let mut deadline = u64::MAX;
        for op in 0..self.stores.len() {
            // On sampled passes the per-op seal work is timed, with the
            // cascade's combines attributed to the receiving child node.
            let mut op_timer = clock.then(Instant::now);
            let mut op_nanos = 0u64;
            while let Some(interval) = self.stores[op].next_due(watermark) {
                // Children are strictly later ops (plans are topologically
                // ordered), so a split borrow reaches them without copying
                // the sealed pane.
                let (head, tail) = self.stores.split_at_mut(op + 1);
                let pane = head[op].deque.front_pane();
                let live = pane.len();
                self.peak_pane_live = self.peak_pane_live.max(live);
                let slot_keys = self.interner.keys();
                if let Some(start) = op_timer {
                    op_nanos += nanos_since(start);
                }
                for &child in &self.children[op] {
                    debug_assert!(child > op, "plan must be topologically ordered");
                    let child = &mut tail[child - op - 1];
                    let t0 = clock.then(Instant::now);
                    self.layout.combine_pane(child, &interval, pane, slot_keys);
                    if let Some(t0) = t0 {
                        child.nanos += nanos_since(t0);
                    }
                }
                op_timer = clock.then(Instant::now);
                let store = &mut self.stores[op];
                if counters {
                    store.seals += 1;
                    store.pane_live_hw = store.pane_live_hw.max(live as u64);
                }
                store.merge_carry_front(&self.layout, &interval);
                if self.exposed[op] {
                    // Straight into the sink (no intermediate buffer: with
                    // the sink's pre-reserved capacity, steady-state
                    // emission allocates nothing).
                    let emitted = self.layout.emit(
                        store.deque.front_pane(),
                        self.windows[op],
                        interval,
                        slot_keys,
                        sink,
                    );
                    self.results_emitted += emitted;
                    if counters {
                        store.emitted += emitted;
                    }
                }
                store.deque.retire_front();
            }
            if let Some(start) = op_timer {
                self.stores[op].nanos += op_nanos + nanos_since(start);
            }
            deadline = deadline.min(self.stores[op].deque.front_end());
        }
        self.deadline = deadline;
    }

    /// Cascades every open (unsealed) pane down the sub-aggregate forest
    /// without sealing or emitting anything. After the pass, each window's
    /// open instances hold every event observed so far, including
    /// contributions that were still in flight inside an ancestor's
    /// unsealed pane. Operators are topologically ordered (parents first),
    /// so a single pass propagates transitively.
    ///
    /// Exactly-once is preserved: an open pane has never been delivered
    /// (delivery normally happens at seal), and after the flush the old
    /// core is discarded, so each in-flight element reaches each
    /// descendant instance once. Under covered-by semantics overlapping
    /// deliveries can double up exactly as they do during normal sealing —
    /// which only overlap-tolerant functions (MIN/MAX) ride.
    fn flush_open(&mut self) {
        let slot_keys = self.interner.keys();
        for op in 0..self.stores.len() {
            if self.children[op].is_empty() {
                continue;
            }
            let (head, tail) = self.stores.split_at_mut(op + 1);
            let window = *head[op].deque.window();
            for (m, pane) in head[op].deque.iter_open() {
                let interval = window.interval(m);
                for &child in &self.children[op] {
                    debug_assert!(child > op, "plan must be topologically ordered");
                    self.layout
                        .combine_pane(&mut tail[child - op - 1], &interval, pane, slot_keys);
                }
            }
        }
    }

    /// Recycles the interner (and the slabs sized to it) at idle points
    /// when the live key working set has shrunk well below the slot
    /// count — long key churn would otherwise grow dense slabs without
    /// bound. Only runs when every store is idle (slot ids are then
    /// referenced nowhere), at least [`COMPACT_MIN_SLOTS`] slots exist,
    /// the largest recent pane used under half the slots, and enough
    /// events passed since the last compaction to amortize re-interning.
    ///
    /// Called from watermark announcements only — never from the sealing
    /// that runs inside a columnar feed, whose translated slot buffer
    /// must stay valid for the rest of the batch.
    fn maybe_compact(&mut self) {
        let slots = self.interner.len();
        if slots >= COMPACT_MIN_SLOTS
            && slots >= 2 * self.peak_pane_live.max(1)
            && self.fed.saturating_sub(self.last_compact_fed) >= 16 * slots as u64
            && self.stores.iter().all(Store::is_idle)
        {
            self.interner_hw = self.interner_stats();
            self.interner.clear();
            for store in &mut self.stores {
                store.deque.compact();
            }
            self.peak_pane_live = 0;
            self.last_compact_fed = self.fed;
            self.compactions += 1;
        }
    }
}

impl<L: PaneLayout> PipelineCore for Core<L> {
    /// The run-sliced feed: intern the key column into dense slots once
    /// at ingress, split the columns at slide boundaries and the sealing
    /// deadline, then fold each run into every raw-fed store with one
    /// instance division per run and one slot-indexed accumulator resolve
    /// per key sub-run — zero hash probes past this point. Behavior
    /// (results, error position, accounting) is element-for-element
    /// identical to feeding the events one at a time.
    fn feed_columns(
        &mut self,
        times: &[u64],
        keys: &[u32],
        values: &[f64],
        sink: &mut ResultSink,
    ) -> Result<()> {
        debug_assert!(times.len() == keys.len() && times.len() == values.len());
        let clock = Self::sampled(self.profile, &mut self.feed_passes);
        if let [t] = *times {
            return self.feed_point(clock, t, keys[0], values[0], sink);
        }
        // The whole batch's keys translate in one pass — the only hashing
        // on the feed path, paid once per element instead of once per
        // key sub-run per operator per instance.
        let mut slot_buf = std::mem::take(&mut self.slot_buf);
        intern_keys(&mut self.interner, keys, &mut slot_buf);
        let mut i = 0;
        let mut result = Ok(());
        while i < times.len() {
            let head = times[i];
            if head < self.watermark {
                result = Err(EngineError::OutOfOrderEvent {
                    at: head,
                    watermark: self.watermark,
                });
                break;
            }
            if head >= self.deadline {
                self.advance(head, sink);
            }
            let limit = run_limit(
                head,
                self.raw_ops.iter().map(|&op| &self.windows[op]),
                self.deadline,
            );
            let j = i + run_len(&times[i..], limit);
            for &op in &self.raw_ops {
                Self::timed(clock, &mut self.stores[op], |store| {
                    self.layout
                        .update_run(store, &times[i..j], &slot_buf[i..j], &values[i..j]);
                });
            }
            let last = times[j - 1];
            self.watermark = last;
            self.fed += (j - i) as u64;
            self.last_event_time = self.last_event_time.max(last);
            i = j;
        }
        self.slot_buf = slot_buf;
        result
    }

    fn advance_to(&mut self, watermark: u64, sink: &mut ResultSink) {
        self.advance(watermark, sink);
        // Later events behind an announced watermark can no longer be
        // ordered with the sealed instances.
        self.watermark = self.watermark.max(watermark);
        self.maybe_compact();
    }

    fn watermark(&self) -> u64 {
        self.watermark
    }

    fn events_fed(&self) -> u64 {
        self.fed
    }

    fn last_event_time(&self) -> u64 {
        self.last_event_time
    }

    fn results_emitted(&self) -> u64 {
        self.results_emitted
    }

    fn stats(&self) -> ExecStats {
        ExecStats {
            updates: self.stores.iter().map(|s| s.updates).sum(),
            combines: self.stores.iter().map(|s| s.combines).sum(),
            agg_ops: self.stores.iter().map(|s| s.agg_ops).sum(),
            replans: 0,
        }
    }

    fn work_total(&self) -> u64 {
        self.stores
            .iter()
            .map(|s| s.work_sink)
            .fold(0u64, u64::wrapping_add)
    }

    /// Flushes in-flight sub-aggregates downward, then drains the open
    /// panes of every exposed window (see [`GroupState`]). Carried-over
    /// panes from a previous swap are folded back into their instances
    /// first — they are emission-side state and must keep traveling as
    /// such.
    fn export_state(&mut self) -> GroupState {
        self.flush_open();
        let slot_keys = self.interner.keys();
        let mut windows = Vec::new();
        for (op, store) in self.stores.iter_mut().enumerate() {
            if !self.exposed[op] {
                continue;
            }
            let mut panes = store.deque.take_open();
            for (m, carried) in std::mem::take(&mut store.carry) {
                match panes.iter_mut().find(|(pm, _)| *pm == m) {
                    Some((_, pane)) => self.layout.merge(pane, &carried),
                    None => panes.push((m, carried)),
                }
            }
            panes.sort_by_key(|&(m, _)| m);
            if !panes.is_empty() {
                // Hand state over key-addressed and key-sorted (the
                // canonical, parallelism-neutral order): the adopting core
                // owns a different interner, and checkpoint snapshots must
                // stay slot-assignment-neutral.
                let entries = panes
                    .iter()
                    .map(|(m, pane)| {
                        let mut rows = self.layout.read_rows(pane, slot_keys);
                        rows.sort_by_key(|&(key, _)| key);
                        (*m, rows)
                    })
                    .collect();
                windows.push((self.windows[op], entries));
            }
        }
        GroupState {
            watermark: self.watermark,
            last_event_time: self.last_event_time,
            slots: self.term_ids.clone(),
            windows,
        }
    }

    /// Exposed windows present in both plans receive their open panes
    /// back, with accumulator slots matched by `(function, column)`; slots
    /// new to this plan initialize fresh, slots that disappeared are
    /// dropped. Exported windows absent from this plan are discarded. The
    /// ordering watermark and end-of-stream horizon carry over.
    ///
    /// Panes of operators that feed children are parked in the store's
    /// *carry* rather than the live deque: their pre-swap contributions
    /// already reached every descendant through the export-time flush, so
    /// sealing must cascade only the post-swap pane and fold the carried
    /// half in just before emission. Leaf operators (no children) adopt
    /// directly into the deque.
    fn adopt(&mut self, state: GroupState) {
        debug_assert_eq!(self.fed, 0, "state is adopted into a fresh core only");
        self.watermark = self.watermark.max(state.watermark);
        self.last_event_time = self.last_event_time.max(state.last_event_time);
        let slot_map: Vec<Option<usize>> = self
            .term_ids
            .iter()
            .map(|key| state.slots.iter().position(|old| old == key))
            .collect();
        let remap = |old: &MultiAcc| -> MultiAcc {
            slot_map
                .iter()
                .zip(&self.term_ids)
                .map(|(from, &(f, _))| match from {
                    Some(j) => old[*j].clone(),
                    None => init_slot(f),
                })
                .collect()
        };
        for (window, panes) in state.windows {
            let Some(op) =
                (0..self.stores.len()).find(|&op| self.exposed[op] && self.windows[op] == window)
            else {
                continue;
            };
            let feeds_children = !self.children[op].is_empty();
            let store = &mut self.stores[op];
            // Fast-forward the cursor past everything already sealed so
            // re-opening instance m does not allocate panes for the
            // sealed prefix (returns None: a fresh deque has no panes).
            let positioned = store.deque.prepare_due(state.watermark);
            debug_assert!(positioned.is_none());
            // Entries arrive key-sorted, so slot assignment in this
            // core's interner is deterministic (key order) regardless of
            // the exporting core's interning history.
            let mut fill = |pane: &mut L::Pane, entries: &KeyedPane| {
                for (key, old) in entries {
                    let slot = self.interner.intern(*key);
                    self.layout.write_row(pane, slot, &remap(old));
                }
            };
            for (m, entries) in panes {
                if feeds_children {
                    let mut parked = L::Pane::default();
                    fill(&mut parked, &entries);
                    store.carry.push((m, parked));
                } else {
                    fill(store.deque.pane_mut(m), &entries);
                }
            }
            store.carry.sort_by_key(|&(m, _)| m);
        }
        self.recompute_deadline();
    }

    fn interner_stats(&self) -> (u64, u64) {
        (
            self.interner_hw.0.max(self.interner.len() as u64),
            self.interner_hw.1.max(self.interner.bytes() as u64),
        )
    }

    fn node_profiles(&self) -> Vec<NodeProfile> {
        self.stores
            .iter()
            .enumerate()
            .map(|(op, s)| NodeProfile {
                node: self.node_ids[op],
                range: self.windows[op].range(),
                slide: self.windows[op].slide(),
                exposed: self.exposed[op],
                raw_fed: self.raw_ops.contains(&op),
                updates: s.updates,
                combines: s.combines,
                agg_ops: s.agg_ops,
                seals: s.seals,
                emitted: s.emitted,
                pane_live_hw: s.pane_live_hw,
                nanos: s.nanos,
            })
            .collect()
    }

    fn compactions(&self) -> u64 {
        self.compactions
    }
}
