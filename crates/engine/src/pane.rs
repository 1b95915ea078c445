//! Per-window-instance state ("panes") with in-order sealing.
//!
//! A window `W⟨r,s⟩` has at most `⌈r/s⌉ + 1` instances open at any time in
//! an in-order stream, so panes live in a `VecDeque` indexed by instance
//! number relative to the oldest unsealed instance. Sealing walks the
//! front without allocating: retired pane slabs are cleared into a spare
//! pool and reused, so the steady state performs zero allocations — the
//! cost model equates one sub-aggregate combine with one raw update, and
//! the implementation has to honor that for measured throughput to track
//! modeled cost (Figure 19).
//!
//! Panes are slot-indexed slabs ([`crate::slab::Slab`]): the executor's
//! [`crate::slab::KeyInterner`] maps each raw key to a dense slot once
//! per batch at ingress, and every fold/combine below indexes contiguous
//! memory by slot — no hash probes on the steady-state path. Raw keys
//! reappear only where the cost-model's per-element work is seeded and
//! where sealed results are emitted, recovered via the interner's
//! slot→key table.

use crate::agg::Aggregate;
use crate::driver::{KeyedPane, PaneLayout, Slot, Store};
use crate::error::{EngineError, Result};
use crate::event::{ResultSink, WindowResult};
use crate::slab::Slab;
use fw_core::{Interval, QueryPlan, Window};
use std::collections::VecDeque;
use std::marker::PhantomData;

/// Per-key accumulators for one window instance: a dense slot-indexed
/// slab with epoch-stamped occupancy (O(1) clear, iteration linear in
/// live entries).
pub type Pane<Acc> = Slab<Acc>;

/// The behavior [`PaneDeque`] needs from a pane representation, so the
/// single-aggregate slab panes ([`Pane`]) and the multi-aggregate row
/// panes (`MultiPane`, crate-private) share one sealing/recycling
/// implementation.
pub trait PaneState: Default {
    /// Number of live entries (keys) in the pane.
    fn len(&self) -> usize;
    /// True when the pane holds no live entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Empties the pane for reuse (O(1) for epoch-stamped slabs).
    fn clear(&mut self);
}

impl<V> PaneState for Slab<V> {
    #[inline]
    fn len(&self) -> usize {
        Slab::len(self)
    }
    #[inline]
    fn clear(&mut self) {
        Slab::clear(self);
    }
}

/// Emulated per-element processing cost: dependent ALU iterations executed
/// for every element an operator consumes (a raw event folded into one
/// instance, or one sub-aggregate entry combined into one instance).
///
/// Production engines (Trill's columnar batches, Flink's operator chain)
/// spend 100ns+ per element on expression evaluation, (de)serialization and
/// dispatch, which is *why* the paper's measured throughput tracks its
/// cost model (Figure 19): the work the model counts dominates everything
/// it does not count. A bare Rust loop folds an f64 in ~8ns, so without
/// this emulation engine bookkeeping (sealing, watermark scans) — which
/// the model does not charge — would distort plan comparisons. The default
/// is calibrated to ≈100ns/element; `0` disables the emulation. Applied
/// identically to every executor, including the slicing baseline.
/// See DESIGN.md §4.9.
pub const DEFAULT_ELEMENT_WORK: u32 = 64;

/// Runs `iters` dependent ALU iterations; the return value must be consumed
/// (the executors fold it into a black-box sink) so the loop survives
/// optimization.
#[inline]
#[must_use]
pub fn element_work(seed: u64, iters: u32) -> u64 {
    let mut x = seed | 1;
    for _ in 0..iters {
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17) ^ 0x9E37;
    }
    x
}

/// Instance-indexed pane storage shared by both pane layouts: a deque of
/// per-key panes fronted by the oldest unsealed instance, with strictly
/// in-order sealing and a bounded spare pool. This is the bookkeeping
/// layer only — accumulator semantics, cost accounting, and element-work
/// emulation live in the driver's `Store` composing it and the layout's kernels,
/// so a sealing or fast-forward fix lands in exactly one place.
#[derive(Debug)]
pub struct PaneDeque<P: PaneState> {
    window: Window,
    panes: VecDeque<P>,
    /// Absolute instance index of `panes.front()`; also the next instance
    /// to seal (sealing is strictly in order).
    front_m: u64,
    /// Cleared slabs ready for reuse (allocation-free steady state). Capped
    /// at `spare_cap`: an in-order stream needs at most the maximum
    /// concurrently-open instance count, and a disorder or time-gap burst
    /// that retires a long run of panes must not pin their memory forever.
    spare: Vec<P>,
    /// Maximum spare panes retained: `r/s + 1`, the most instances ever
    /// open at once.
    spare_cap: usize,
}

impl<P: PaneState> PaneDeque<P> {
    /// Creates an empty deque for `window`.
    #[must_use]
    pub fn new(window: Window) -> Self {
        PaneDeque {
            window,
            panes: VecDeque::new(),
            front_m: 0,
            spare: Vec::new(),
            // s | r is enforced at window construction, so r/s is exact.
            spare_cap: (window.range() / window.slide()) as usize + 1,
        }
    }

    /// The window this deque belongs to.
    #[must_use]
    pub fn window(&self) -> &Window {
        &self.window
    }

    /// End timestamp of instance `m` (saturating; used as a deadline).
    #[inline]
    fn instance_end(&self, m: u64) -> u64 {
        m.saturating_mul(self.window.slide())
            .saturating_add(self.window.range())
    }

    /// The earliest unsealed instance's end — the next deadline.
    #[inline]
    #[must_use]
    pub fn front_end(&self) -> u64 {
        self.instance_end(self.front_m)
    }

    /// Number of open panes (diagnostics and memory-bound tests).
    #[must_use]
    pub fn open_panes(&self) -> usize {
        self.panes.len()
    }

    /// The pane of instance `m`, opening panes (recycled from the spare
    /// pool when possible) as needed.
    #[inline]
    pub fn pane_mut(&mut self, m: u64) -> &mut P {
        debug_assert!(
            m >= self.front_m,
            "update behind sealed instance {m} < {}",
            self.front_m
        );
        let want = (m - self.front_m) as usize;
        while self.panes.len() <= want {
            self.panes.push_back(self.spare.pop().unwrap_or_default());
        }
        &mut self.panes[want]
    }

    /// Positions the deque at its next due (`end ≤ watermark`), non-empty
    /// instance and returns that instance's interval without sealing it.
    /// Empty due instances are skipped; with no panes at all the cursor
    /// fast-forwards past everything due. Follow up with
    /// [`Self::front_pane`] and [`Self::retire_front`].
    pub fn prepare_due(&mut self, watermark: u64) -> Option<Interval> {
        loop {
            if self.front_end() > watermark {
                return None;
            }
            match self.panes.front() {
                None => {
                    let s = self.window.slide();
                    let r = self.window.range();
                    if watermark >= r {
                        let first_open = (watermark - r) / s + 1;
                        self.front_m = self.front_m.max(first_open);
                    }
                    return None;
                }
                Some(pane) if pane.is_empty() => {
                    let empty = self.panes.pop_front().expect("checked non-empty deque");
                    self.recycle(empty);
                    self.front_m += 1;
                }
                Some(_) => return Some(self.window.interval(self.front_m)),
            }
        }
    }

    /// The pane positioned by [`Self::prepare_due`].
    #[inline]
    #[must_use]
    pub fn front_pane(&self) -> &P {
        self.panes.front().expect("prepare_due positioned a pane")
    }

    /// Seals the pane positioned by [`Self::prepare_due`]: clears it into
    /// the spare pool and advances the cursor.
    #[inline]
    pub fn retire_front(&mut self) {
        let mut pane = self
            .panes
            .pop_front()
            .expect("prepare_due positioned a pane");
        pane.clear();
        self.recycle(pane);
        self.front_m += 1;
    }

    /// Returns a cleared pane to the spare pool, bounded at `spare_cap`
    /// so a retirement burst cannot grow retired-pane memory without
    /// bound.
    #[inline]
    fn recycle(&mut self, pane: P) {
        if self.spare.len() < self.spare_cap {
            self.spare.push(pane);
        }
    }

    /// Like [`Self::prepare_due`], but never advances the cursor past
    /// instance `stop`, and returns instance `stop` when due even if its
    /// pane is empty (opening it on demand). State migration parks
    /// carried-over content for instance `stop` *outside* the deque (see
    /// `crate::driver`), so the ordinary skip-empty fast-forward must not
    /// discard it, while instances before `stop` still seal and skip
    /// normally.
    pub fn prepare_due_upto(&mut self, watermark: u64, stop: u64) -> Option<Interval> {
        debug_assert!(stop >= self.front_m, "carry behind the seal cursor");
        loop {
            if self.front_end() > watermark {
                return None;
            }
            if self.front_m == stop {
                let _ = self.pane_mut(stop); // open the (possibly empty) pane
                return Some(self.window.interval(stop));
            }
            match self.panes.front() {
                None => {
                    // Everything open is empty: fast-forward as
                    // `prepare_due` would, clamped at `stop`.
                    let s = self.window.slide();
                    let r = self.window.range();
                    if watermark >= r {
                        let first_open = (watermark - r) / s + 1;
                        self.front_m = self.front_m.max(first_open.min(stop));
                    }
                    if self.front_m != stop || self.front_end() > watermark {
                        return None;
                    }
                    // Loop around: `stop` itself is due.
                }
                Some(pane) if pane.is_empty() => {
                    let empty = self.panes.pop_front().expect("checked non-empty deque");
                    self.recycle(empty);
                    self.front_m += 1;
                }
                Some(_) => return Some(self.window.interval(self.front_m)),
            }
        }
    }

    /// Iterates the open, non-empty panes together with their absolute
    /// instance indices (state-migration and flush support; see
    /// the crate-private `driver` module).
    pub fn iter_open(&self) -> impl Iterator<Item = (u64, &P)> {
        let front = self.front_m;
        self.panes
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(move |(i, p)| (front + i as u64, p))
    }

    /// True when no open pane holds a live entry — the deque-level idle
    /// condition under which slot-indexed state references no slot at
    /// all, so the owning core may recycle its interner.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.panes.iter().all(P::is_empty)
    }

    /// Drops every pane slab (open panes are expected empty — see
    /// [`Self::is_idle`]) and the spare pool, freeing capacity sized to a
    /// retired slot space. The seal cursor is untouched; panes reopen on
    /// demand.
    pub fn compact(&mut self) {
        debug_assert!(self.is_idle(), "compacting a deque with live panes");
        self.panes.clear();
        self.spare.clear();
    }

    /// Drains every open, non-empty pane out of the deque, returning
    /// `(absolute instance index, pane)` pairs. Used to migrate window
    /// state into a freshly compiled core when a group's merged plan is
    /// rebuilt at a watermark boundary.
    pub fn take_open(&mut self) -> Vec<(u64, P)> {
        let front = self.front_m;
        self.panes
            .drain(..)
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(|(i, p)| (front + i as u64, p))
            .collect()
    }
}

/// How an [`Aggregate`]'s accumulator travels as an interchange
/// [`Slot`] — the one thing the mono layout needs beyond the aggregate's
/// own kernels to export and adopt state.
pub(crate) trait SlotRepr: Sized {
    fn to_slot(&self) -> Slot;
    fn from_slot(slot: &Slot) -> Self;
}

macro_rules! slot_repr {
    ($ty:ty, $variant:ident) => {
        impl SlotRepr for $ty {
            fn to_slot(&self) -> Slot {
                Slot::$variant(self.clone())
            }
            fn from_slot(slot: &Slot) -> Self {
                match slot {
                    Slot::$variant(v) => v.clone(),
                    _ => unreachable!("slot shape is fixed by the aggregate function"),
                }
            }
        }
    };
}
slot_repr!(f64, F64);
slot_repr!(u64, U64);
slot_repr!(crate::agg::SumCount, SumCount);
slot_repr!(Vec<f64>, Values);

/// The single-term pane layout: one [`Slab`] of `A::Acc` per instance,
/// monomorphic over the aggregate so the fold and combine loops compile
/// to straight-line code per function.
pub(crate) struct Mono<A>(PhantomData<fn() -> A>);

impl<A: Aggregate> PaneLayout for Mono<A>
where
    A::Acc: SlotRepr,
{
    type Pane = Pane<A::Acc>;
    type Op = ();

    fn new(_plan: &QueryPlan) -> Self {
        Mono(PhantomData)
    }

    fn op(&self, _exposed: bool, sub_fed: bool) -> Result<((), bool)> {
        if sub_fed && !A::COMBINABLE {
            return Err(EngineError::HolisticSubAggregate {
                function: A::function().name(),
            });
        }
        Ok(((), !sub_fed))
    }

    /// Folds a raw event into every instance containing `t`
    /// (`r/s` instances — the unshared per-event cost of the cost model).
    #[inline]
    fn update_point(&self, store: &mut Store<Self>, t: u64, slot: u32, value: f64) {
        // The fold is spelled out on both paths rather than shared through
        // a closure: the closure cost ~1.3 ns per call (measured, 3–4 ns per
        // event on a three-window plan), which is the whole margin the
        // per-event API has over the run path's bookkeeping.
        let window = *store.deque.window();
        if window.is_tumbling() {
            // Fast path: exactly one containing instance.
            let m = t / window.slide();
            store.work_sink ^= element_work(t ^ m, store.work);
            store.updates += 1;
            store.agg_ops += 1;
            A::update(store.deque.pane_mut(m).slot_mut(slot, A::init), value);
            return;
        }
        for m in window.instances_containing(t) {
            store.work_sink ^= element_work(t ^ m, store.work);
            store.updates += 1;
            store.agg_ops += 1;
            A::update(store.deque.pane_mut(m).slot_mut(slot, A::init), value);
        }
    }

    /// The instance arithmetic (`t / s`, pane lookup in the deque) is paid
    /// once per run instead of once per event, and within the run
    /// consecutive events with the same key share one slot resolve: the
    /// accumulator is indexed once per key sub-run and the values fold
    /// through the aggregate's columnar kernel ([`Aggregate::fold_run`]).
    /// Per-element accounting is unchanged — `updates` grows by one per
    /// event per instance and the emulated element work runs per element,
    /// exactly as the equivalent [`Self::update_point`] sequence would:
    /// the work loop is separate from the value fold, which is safe
    /// because the sink combines by XOR (order-free).
    fn update_run(&self, store: &mut Store<Self>, times: &[u64], slots: &[u32], values: &[f64]) {
        debug_assert!(!times.is_empty());
        debug_assert!(times.len() == slots.len() && times.len() == values.len());
        let window = *store.deque.window();
        let instances = window.instances_containing(times[0]);
        debug_assert_eq!(
            window.instances_containing(times[times.len() - 1]),
            instances,
            "run crosses a slide boundary"
        );
        let work = store.work;
        let mut work_sink = store.work_sink;
        let mut folded = 0u64;
        for m in instances {
            for &t in times {
                work_sink ^= element_work(t ^ m, work);
            }
            let pane = store.deque.pane_mut(m);
            let mut k = 0;
            while k < slots.len() {
                let slot = slots[k];
                let mut end = k + 1;
                while end < slots.len() && slots[end] == slot {
                    end += 1;
                }
                // One slot resolve for the whole key sub-run, then a
                // contiguous fold over the value column.
                A::fold_run(pane.slot_mut(slot, A::init), &values[k..end]);
                k = end;
            }
            folded += times.len() as u64;
        }
        store.updates += folded;
        store.agg_ops += folded;
        store.work_sink = work_sink;
    }

    /// The instance range is computed once per pane, not once per key, and
    /// the merge is a linear walk of the source slab's live slots (parent
    /// and child share the core's interner, so slot ids line up and no
    /// probe is needed on either side). The raw key recovered through
    /// `slot_keys` only seeds the emulated per-element work.
    #[inline]
    fn combine_pane(
        &self,
        store: &mut Store<Self>,
        iv: &Interval,
        source: &Pane<A::Acc>,
        slot_keys: &[u32],
    ) {
        let work = store.work;
        let mut sink = store.work_sink;
        for m in store.deque.window().instances_containing_interval(iv) {
            store.combines += source.len() as u64;
            store.agg_ops += source.len() as u64;
            let pane = store.deque.pane_mut(m);
            source.for_each_live(|slot, sub| {
                sink ^= element_work(m ^ u64::from(slot_keys[slot as usize]), work);
                if let Some(acc) = pane.get_mut(slot) {
                    A::combine(acc, sub);
                } else {
                    pane.insert(slot, sub.clone());
                }
            });
        }
        store.work_sink = sink;
    }

    #[inline]
    fn emit(
        &self,
        pane: &Pane<A::Acc>,
        window: Window,
        interval: Interval,
        slot_keys: &[u32],
        sink: &mut ResultSink,
    ) -> u64 {
        let ResultSink::Collect(_) = sink else {
            return pane.len() as u64;
        };
        let mut emitted = 0u64;
        pane.for_each_live(|slot, acc| {
            sink.push(
                WindowResult {
                    window,
                    interval,
                    key: slot_keys[slot as usize],
                    agg: 0,
                    value: A::finalize(acc),
                },
                &mut emitted,
            );
        });
        emitted
    }

    fn merge(&self, into: &mut Pane<A::Acc>, carried: &Pane<A::Acc>) {
        for (slot, acc) in carried.iter() {
            A::merge(into.slot_mut(slot, A::init), acc);
        }
    }

    fn read_rows(&self, pane: &Pane<A::Acc>, slot_keys: &[u32]) -> KeyedPane {
        pane.iter()
            .map(|(slot, acc)| (slot_keys[slot as usize], Box::from([acc.to_slot()])))
            .collect()
    }

    fn write_row(&self, pane: &mut Pane<A::Acc>, slot: u32, row: &[Slot]) {
        pane.insert(slot, A::Acc::from_slot(&row[0]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{MinAgg, SumAgg};

    /// One operator's store under the mono layout, driven kernel by
    /// kernel.
    struct PaneStore<A: Aggregate>(Store<Mono<A>>)
    where
        A::Acc: SlotRepr;

    impl<A: Aggregate> PaneStore<A>
    where
        A::Acc: SlotRepr,
    {
        fn new(window: Window) -> Self {
            PaneStore(Store::new(window, (), DEFAULT_ELEMENT_WORK))
        }

        fn update_point(&mut self, t: u64, slot: u32, value: f64) {
            Mono(PhantomData).update_point(&mut self.0, t, slot, value);
        }

        fn update_run(&mut self, times: &[u64], slots: &[u32], values: &[f64]) {
            Mono(PhantomData).update_run(&mut self.0, times, slots, values);
        }

        fn combine_pane(&mut self, iv: &Interval, source: &Pane<A::Acc>, slot_keys: &[u32]) {
            Mono(PhantomData).combine_pane(&mut self.0, iv, source, slot_keys);
        }

        fn prepare_due(&mut self, watermark: u64) -> Option<Interval> {
            self.0.deque.prepare_due(watermark)
        }

        fn retire_front(&mut self) {
            self.0.deque.retire_front();
        }

        /// Seals and returns a copy of the next due instance.
        fn pop_due(&mut self, watermark: u64) -> Option<(Interval, Pane<A::Acc>)> {
            let interval = self.prepare_due(watermark)?;
            let pane = self.0.deque.front_pane().clone();
            self.retire_front();
            Some((interval, pane))
        }

        fn open_panes(&self) -> usize {
            self.0.deque.open_panes()
        }

        fn spares(&self) -> usize {
            self.0.deque.spare.len()
        }
    }

    fn w(r: u64, s: u64) -> Window {
        Window::new(r, s).unwrap()
    }

    /// Tests intern keys as themselves (`slot == key`), with an identity
    /// slot->key table for combine's work seeds.
    const IDENTITY: &[u32] = &[0, 1, 2, 3, 4, 5, 6, 7];

    #[test]
    fn tumbling_update_and_seal() {
        let mut store: PaneStore<SumAgg> = PaneStore::new(w(10, 10));
        for t in 0..25 {
            store.update_point(t, 0, 1.0);
        }
        // Watermark 20: instances [0,10) and [10,20) are due.
        let (iv, pane) = store.pop_due(20).unwrap();
        assert_eq!(iv, Interval::new(0, 10));
        assert_eq!(pane.get(0), Some(&10.0));
        let (iv, pane) = store.pop_due(20).unwrap();
        assert_eq!(iv, Interval::new(10, 20));
        assert_eq!(pane.get(0), Some(&10.0));
        assert!(store.pop_due(20).is_none());
        // Flush: the partial instance [20, 30) has 5 events.
        let (iv, pane) = store.pop_due(u64::MAX).unwrap();
        assert_eq!(iv, Interval::new(20, 30));
        assert_eq!(pane.get(0), Some(&5.0));
    }

    #[test]
    fn update_run_matches_per_event_updates() {
        // Same fold, same accounting, for tumbling and hopping windows and
        // for repeated keys inside a run (the shared slot-resolve path).
        for window in [w(10, 10), w(20, 5)] {
            let times = [41u64, 41, 42, 43, 43, 44];
            let keys = [1u32, 1, 2, 2, 2, 1];
            let values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
            let mut per_event: PaneStore<SumAgg> = PaneStore::new(window);
            for i in 0..times.len() {
                per_event.update_point(times[i], keys[i], values[i]);
            }
            let mut run: PaneStore<SumAgg> = PaneStore::new(window);
            run.update_run(&times, &keys, &values);
            assert_eq!(run.0.updates, per_event.0.updates);
            assert_eq!(run.0.work_sink, per_event.0.work_sink);
            loop {
                let a = per_event.pop_due(u64::MAX);
                let b = run.pop_due(u64::MAX);
                assert_eq!(a, b, "window {window:?}");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn hopping_events_hit_multiple_instances() {
        let mut store: PaneStore<SumAgg> = PaneStore::new(w(10, 5));
        store.update_point(7, 1, 1.0); // instances [0,10) and [5,15)
        let (iv, pane) = store.pop_due(10).unwrap();
        assert_eq!(iv, Interval::new(0, 10));
        assert_eq!(pane.get(1), Some(&1.0));
        let (iv, pane) = store.pop_due(15).unwrap();
        assert_eq!(iv, Interval::new(5, 15));
        assert_eq!(pane.get(1), Some(&1.0));
    }

    #[test]
    fn combine_routes_to_containing_instances() {
        // Parent W(10,10) feeds W(20,10): sub-agg [10,20) belongs to
        // instances [0,20) and [10,30).
        let mut store: PaneStore<MinAgg> = PaneStore::new(w(20, 10));
        let mut sub: Pane<f64> = Pane::default();
        sub.insert(0, 3.5);
        store.combine_pane(&Interval::new(10, 20), &sub, IDENTITY);
        let mut sub2: Pane<f64> = Pane::default();
        sub2.insert(0, 7.0);
        store.combine_pane(&Interval::new(0, 10), &sub2, IDENTITY);
        let (iv, pane) = store.pop_due(20).unwrap();
        assert_eq!(iv, Interval::new(0, 20));
        assert_eq!(pane.get(0), Some(&3.5));
        let (iv, pane) = store.pop_due(30).unwrap();
        assert_eq!(iv, Interval::new(10, 30));
        assert_eq!(pane.get(0), Some(&3.5));
    }

    #[test]
    fn combine_hoists_work_setup_once_per_call() {
        // The emulated-work sink must accumulate across the instances of
        // one combine call exactly as per-instance calls would: the
        // hoisted sink is written back once, XOR-combining every term.
        let mut hopping: PaneStore<MinAgg> = PaneStore::new(w(20, 10));
        let mut sub: Pane<f64> = Pane::default();
        sub.insert(0, 1.0);
        sub.insert(2, 5.0);
        hopping.combine_pane(&Interval::new(10, 20), &sub, IDENTITY);
        let expected = element_work(0, DEFAULT_ELEMENT_WORK)
            ^ element_work(2, DEFAULT_ELEMENT_WORK)
            ^ element_work(1, DEFAULT_ELEMENT_WORK)
            ^ element_work(1 ^ 2, DEFAULT_ELEMENT_WORK);
        assert_eq!(hopping.0.work_sink, expected);
        assert_eq!(hopping.0.combines, 4); // 2 entries x 2 instances
    }

    #[test]
    fn empty_instances_are_skipped() {
        let mut store: PaneStore<SumAgg> = PaneStore::new(w(10, 10));
        store.update_point(35, 0, 2.0); // only instance [30, 40) has data
        let (iv, pane) = store.pop_due(100).unwrap();
        assert_eq!(iv, Interval::new(30, 40));
        assert_eq!(pane.get(0), Some(&2.0));
        assert!(store.pop_due(100).is_none());
    }

    #[test]
    fn fast_forward_without_data() {
        let mut store: PaneStore<SumAgg> = PaneStore::new(w(10, 10));
        assert!(store.pop_due(1_000_000).is_none());
        // The cursor jumped: a later event lands in the right instance.
        store.update_point(1_000_005, 0, 1.0);
        let (iv, _) = store.pop_due(u64::MAX).unwrap();
        assert_eq!(iv, Interval::new(1_000_000, 1_000_010));
    }

    #[test]
    fn panes_are_recycled_not_reallocated() {
        let mut store: PaneStore<SumAgg> = PaneStore::new(w(10, 10));
        for round in 0u64..100 {
            for t in round * 10..(round + 1) * 10 {
                let key = (t % 3) as u32;
                store.update_point(t, key, 1.0);
            }
            if round > 0 {
                assert!(store.pop_due(round * 10).is_some());
            }
        }
        // One open pane plus at most a couple of spares — not 100 slabs.
        assert!(store.open_panes() <= 2, "{}", store.open_panes());
        assert!(store.spares() <= 3, "{} spares", store.spares());
    }

    #[test]
    fn spare_pool_is_bounded_after_a_burst() {
        // A large time gap opens (and then retires) a long run of panes;
        // the spare pool must keep at most the steady-state count, not
        // the whole burst.
        let mut store: PaneStore<SumAgg> = PaneStore::new(w(10, 10));
        store.update_point(0, 0, 1.0);
        store.update_point(100_000, 0, 1.0); // gap-fills ~10k instances
        let mut sealed = 0;
        while store.prepare_due(u64::MAX).is_some() {
            store.retire_front();
            sealed += 1;
        }
        assert_eq!(sealed, 2); // only the two non-empty instances emit
        assert!(store.spares() <= 2, "{} spares retained", store.spares());

        // Same bound for a hopping window (r/s + 1 = 11).
        let mut store: PaneStore<SumAgg> = PaneStore::new(w(100, 10));
        store.update_point(0, 0, 1.0);
        store.update_point(50_000, 0, 1.0);
        while store.prepare_due(u64::MAX).is_some() {
            store.retire_front();
        }
        assert!(store.spares() <= 11, "{} spares retained", store.spares());
    }

    #[test]
    fn open_pane_count_is_bounded() {
        let mut store: PaneStore<SumAgg> = PaneStore::new(w(100, 10));
        for t in 0..10_000u64 {
            while store.prepare_due(t).is_some() {
                store.retire_front();
            }
            store.update_point(t, 0, 1.0);
        }
        assert!(
            store.open_panes() <= 11,
            "{} panes open",
            store.open_panes()
        );
    }
}
