//! Multi-aggregate execution: one shared pane flow, many accumulators.
//!
//! A query like `SELECT MIN(T), MAX(T), AVG(T) … Windows(…)` compiles to
//! *one* pipeline whose pane bookkeeping (instance tracking, sealing,
//! hashing, sub-aggregate routing) runs once per element, exactly as in
//! the single-aggregate engine; each pane entry simply carries one
//! accumulator *slot per aggregate term*, dispatched over the existing
//! [`Aggregate`] implementations through a small enum. This is the
//! execution-side counterpart of the paper's premise — amortize shared
//! work across correlated aggregates — applied along the function axis in
//! addition to the window axis.
//!
//! Per-function combinability is honored within one plan: distributive and
//! algebraic terms (MIN/MAX/SUM/COUNT/AVG) ride the plan's sub-aggregate
//! topology, while holistic terms (MEDIAN) ride **raw panes** on every
//! exposed window — a sub-aggregate-fed exposed operator receives raw
//! events for its holistic slots and parent panes for the rest. Factor
//! (hidden) windows never materialize holistic state.
//!
//! Cost accounting attributes pane work once: `ExecStats::updates` and
//! `ExecStats::combines` count pane elements exactly as a
//! single-aggregate pipeline would, and the per-slot fan-out is reported
//! separately as `ExecStats::agg_ops`.
//!
//! Panes are row-major: one row per key slot holds the slot's epoch stamp
//! and every fixed-width term's accumulator, so a key's fold, combine or
//! emit touches one row (DESIGN.md §3.6); MEDIAN multisets sit in a side
//! column.
//!
//! This module is the multi-term pane layout; the execution driver it
//! plugs into is the crate-private `driver::Core`.

use crate::agg::{Aggregate, AvgAgg, CountAgg, MaxAgg, MedianAgg, MinAgg, SumAgg, SumCount};
use crate::driver::{KeyedPane, PaneLayout, Slot, Store};
use crate::error::{EngineError, Result};
use crate::event::{ResultSink, WindowResult};
use crate::pane::{element_work, SlotRepr};
use crate::slab::walk_live;
use fw_core::{AggregateClass, AggregateFunction, Interval, QueryPlan, Window};

/// A fixed-width accumulator as words of a pane row. Loading into the
/// aggregate's own `Acc` and storing back keeps every kernel the
/// unchanged [`Aggregate`] implementation.
trait RowAcc: Sized {
    const WORDS: usize;
    fn load(words: &[u64]) -> Self;
    fn store(&self, words: &mut [u64]);
}

impl RowAcc for f64 {
    const WORDS: usize = 1;
    fn load(words: &[u64]) -> Self {
        f64::from_bits(words[0])
    }
    fn store(&self, words: &mut [u64]) {
        words[0] = self.to_bits();
    }
}

impl RowAcc for u64 {
    const WORDS: usize = 1;
    fn load(words: &[u64]) -> Self {
        words[0]
    }
    fn store(&self, words: &mut [u64]) {
        words[0] = *self;
    }
}

impl RowAcc for SumCount {
    const WORDS: usize = 2;
    fn load(words: &[u64]) -> Self {
        let sum = f64::from_bits(words[0]);
        SumCount {
            sum,
            count: words[1],
        }
    }
    fn store(&self, words: &mut [u64]) {
        words[..2].copy_from_slice(&[self.sum.to_bits(), self.count]);
    }
}

/// Evaluates `$body` with `$A` naming the fixed-width aggregate of `$f`.
#[rustfmt::skip]
macro_rules! fixed {
    ($f:expr, |$A:ident| $body:expr) => {
        match $f {
            AggregateFunction::Min => { type $A = MinAgg; $body }
            AggregateFunction::Max => { type $A = MaxAgg; $body }
            AggregateFunction::Sum => { type $A = SumAgg; $body }
            AggregateFunction::Count => { type $A = CountAgg; $body }
            AggregateFunction::Avg => { type $A = AvgAgg; $body }
            AggregateFunction::Median => unreachable!("holistic terms live in the side column"),
        }
    };
}

/// Loads `A`'s accumulator from a row's words, applies `f`, stores it back.
#[inline]
fn update<A: Aggregate>(words: &mut [u64], f: impl FnOnce(&mut A::Acc))
where
    A::Acc: RowAcc,
{
    let mut acc = A::Acc::load(words);
    f(&mut acc);
    acc.store(words);
}

/// Where one aggregate term's state lives.
#[derive(Debug, Clone, Copy)]
struct Term {
    f: AggregateFunction,
    holistic: bool,
    /// Word offset of the accumulator within a row; for a holistic term,
    /// its index among the slot's side-column multisets.
    at: usize,
}

/// One window instance's multi-aggregate state, row-major: `rows` holds
/// one row per slot (the layout's `width` words — word 0 the slot's epoch
/// stamp, then each fixed-width term's accumulator), `multisets` the
/// holistic terms' values, and `touched` the live slots in first-touch
/// order (the same sparse-set occupancy as [`crate::slab::Slab`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct MultiPane {
    rows: Vec<u64>,
    /// The holistic terms' multisets, slot-major (empty without any).
    multisets: Vec<Vec<f64>>,
    /// Current epoch; 0 only in the pristine `Default` state (bumped to 1
    /// on first touch so zeroed stamps read vacant).
    epoch: u32,
    /// Slots occupied this epoch, in first-touch order.
    touched: Vec<u32>,
}

impl crate::pane::PaneState for MultiPane {
    #[inline]
    fn len(&self) -> usize {
        self.touched.len()
    }
    #[inline]
    fn clear(&mut self) {
        self.touched.clear();
        if self.epoch == u32::MAX {
            // Zeroing the rows zeroes every stamp; accumulators reset on
            // their next touch anyway.
            self.rows.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }
}

impl MultiPane {
    /// Marks `slot` live and returns the index of its row's first word,
    /// growing the rows on demand and resetting the row (and clearing its
    /// multisets in place, keeping their capacity) on first touch this
    /// epoch.
    #[inline]
    fn touch(&mut self, slot: u32, layout: &MultiLayout) -> usize {
        if self.epoch == 0 {
            self.epoch = 1;
        }
        let (w, h, s) = (layout.width, layout.holistic, slot as usize);
        let base = s * w;
        if base >= self.rows.len() {
            self.rows.resize(base + w, 0);
            self.multisets.resize_with((s + 1) * h, Vec::new);
        }
        let epoch = u64::from(self.epoch);
        if self.rows[base] != epoch {
            let row = &mut self.rows[base..base + w];
            row.copy_from_slice(&layout.fresh);
            row[0] = epoch;
            self.touched.push(slot);
            self.multisets[s * h..(s + 1) * h]
                .iter_mut()
                .for_each(Vec::clear);
        }
        base
    }

    /// Visits the live slots for a seal-side walk ([`walk_live`]).
    #[inline]
    fn for_each_live(&self, width: usize, visit: impl FnMut(u32)) {
        let epoch = u64::from(self.epoch);
        let live = |s: usize| self.rows[s * width] == epoch;
        walk_live(&self.touched, self.rows.len() / width, live, visit);
    }
}

/// The multi-term pane layout: every pane is a [`MultiPane`], maintained
/// once per element however many aggregate terms ride it.
pub(crate) struct MultiLayout {
    /// Every aggregate term, term-indexed (SELECT-list order).
    terms: Box<[Term]>,
    /// Term indices parent panes combine into (the combinable terms).
    combinable: Box<[usize]>,
    /// Words per row: the stamp plus every fixed-width accumulator.
    width: usize,
    /// A freshly initialized row (stamp word 0).
    fresh: Box<[u64]>,
    /// Holistic terms per slot: the side column's stride.
    holistic: usize,
}

impl MultiLayout {
    /// The holistic multiset of term `t` at `slot`.
    #[inline]
    fn multiset(&self, slot: u32, t: &Term) -> usize {
        slot as usize * self.holistic + t.at
    }
}

/// Per-operator routing of the multi-term layout.
pub(crate) struct MultiOp {
    /// Term indices raw events update at this operator: every term on a
    /// raw-fed exposed operator, the combinable terms on a raw-fed factor
    /// operator, the holistic terms on a sub-aggregate-fed exposed
    /// operator, none on a sub-aggregate-fed factor operator.
    raw_mask: Box<[usize]>,
}

impl PaneLayout for MultiLayout {
    type Pane = MultiPane;
    type Op = MultiOp;

    fn new(plan: &QueryPlan) -> Self {
        let (mut terms, mut width, mut multisets) = (Vec::new(), 1, 0);
        for f in plan.aggregates().iter().map(|spec| spec.function()) {
            let holistic = f.class() == AggregateClass::Holistic;
            let next = if holistic { &mut multisets } else { &mut width };
            terms.push(Term {
                f,
                holistic,
                at: *next,
            });
            *next += match holistic {
                true => 1,
                false => fixed!(f, |A| <A as Aggregate>::Acc::WORDS),
            };
        }
        let mut fresh = vec![0u64; width];
        for t in terms.iter().filter(|t| !t.holistic) {
            fixed!(t.f, |A| update::<A>(&mut fresh[t.at..], |acc| *acc =
                A::init()));
        }
        MultiLayout {
            combinable: (0..terms.len()).filter(|&j| !terms[j].holistic).collect(),
            terms: terms.into(),
            width,
            fresh: fresh.into(),
            holistic: multisets,
        }
    }

    fn op(&self, exposed: bool, sub_fed: bool) -> Result<(MultiOp, bool)> {
        let terms = 0..self.terms.len();
        let raw_mask: Box<[usize]> = match (sub_fed, exposed) {
            // Raw-fed: every term living at this operator shares the pane
            // feed. Factor operators carry combinable terms only.
            (false, true) => terms.collect(),
            (false, false) => self.combinable.clone(),
            (true, _) if self.combinable.is_empty() => {
                return Err(EngineError::HolisticSubAggregate {
                    function: self.terms[0].f.name(),
                });
            }
            // Sub-aggregate-fed: combinable terms arrive as parent panes;
            // holistic terms (exposed operators only) ride raw.
            (true, true) => terms.filter(|j| !self.combinable.contains(j)).collect(),
            (true, false) => Box::default(),
        };
        let raw_fed = !raw_mask.is_empty();
        Ok((MultiOp { raw_mask }, raw_fed))
    }

    /// The instance arithmetic is paid once per run and each key sub-run
    /// resolves its row once, then folds every term through the
    /// aggregate's columnar kernel — zero hash probes. The emulated
    /// element-work loop runs separately from the value folds; its sink
    /// is combined by XOR, so the split is order-insensitive, while the
    /// value folds keep strict per-element order for the order-sensitive
    /// kernels (SUM/AVG). Pane work is counted once per element, `agg_ops`
    /// once per term it fans out to.
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
            let raw_mask = &store.op.raw_mask;
            let pane = store.deque.pane_mut(m);
            let mut k = 0;
            while k < slots.len() {
                let slot = slots[k];
                let mut end = k + 1;
                while end < slots.len() && slots[end] == slot {
                    end += 1;
                }
                let base = pane.touch(slot, self);
                let row = &mut pane.rows[base..base + self.width];
                let run = &values[k..end];
                for &j in raw_mask.iter() {
                    let t = &self.terms[j];
                    if t.holistic {
                        MedianAgg::fold_run(&mut pane.multisets[self.multiset(slot, t)], run);
                    } else {
                        fixed!(t.f, |A| update::<A>(&mut row[t.at..], |acc| A::fold_run(
                            acc, run
                        )));
                    }
                }
                k = end;
            }
            folded += times.len() as u64;
        }
        store.updates += folded;
        store.agg_ops += folded * store.op.raw_mask.len() as u64;
        store.work_sink = work_sink;
    }

    /// Combines the combinable terms only (holistic terms are raw-fed and
    /// must never inherit parent state), row into row over the source's
    /// live slots; `slot_keys` recovers raw keys for the emulated
    /// element-work seed. The work parameters are resolved once per call,
    /// outside the instance loop.
    #[inline]
    fn combine_pane(
        &self,
        store: &mut Store<Self>,
        iv: &Interval,
        source: &MultiPane,
        slot_keys: &[u32],
    ) {
        let window = *store.deque.window();
        let work = store.work;
        let mut sink = store.work_sink;
        let live = source.touched.len() as u64;
        let w = self.width;
        for m in window.instances_containing_interval(iv) {
            store.combines += live;
            store.agg_ops += live * self.combinable.len() as u64;
            let pane = store.deque.pane_mut(m);
            source.for_each_live(w, |slot| {
                sink ^= element_work(m ^ u64::from(slot_keys[slot as usize]), work);
                let base = pane.touch(slot, self);
                let dst = &mut pane.rows[base..base + w];
                let src = &source.rows[slot as usize * w..][..w];
                for &j in self.combinable.iter() {
                    let t = &self.terms[j];
                    let src = &src[t.at..];
                    fixed!(t.f, |A| update::<A>(&mut dst[t.at..], |acc| {
                        A::combine(acc, &RowAcc::load(src));
                    }));
                }
            });
        }
        store.work_sink = sink;
    }

    /// One result per (key, aggregate term), walking the pane's live
    /// slots ([`walk_live`] order).
    #[inline]
    fn emit(
        &self,
        pane: &MultiPane,
        window: Window,
        interval: Interval,
        slot_keys: &[u32],
        sink: &mut ResultSink,
    ) -> u64 {
        let ResultSink::Collect(_) = sink else {
            return (pane.touched.len() * self.terms.len()) as u64;
        };
        let w = self.width;
        let mut emitted = 0u64;
        pane.for_each_live(w, |slot| {
            let key = slot_keys[slot as usize];
            let row = &pane.rows[slot as usize * w..][..w];
            for (j, t) in self.terms.iter().enumerate() {
                let value = if t.holistic {
                    MedianAgg::finalize(&pane.multisets[self.multiset(slot, t)])
                } else {
                    fixed!(t.f, |A| A::finalize(&RowAcc::load(&row[t.at..])))
                };
                sink.push(
                    WindowResult {
                        window,
                        interval,
                        key,
                        agg: j as u32,
                        value,
                    },
                    &mut emitted,
                );
            }
        });
        emitted
    }

    fn merge(&self, into: &mut MultiPane, carried: &MultiPane) {
        let w = self.width;
        for &slot in &carried.touched {
            let base = into.touch(slot, self);
            let src = &carried.rows[slot as usize * w..][..w];
            for t in self.terms.iter() {
                if t.holistic {
                    let i = self.multiset(slot, t);
                    MedianAgg::merge(&mut into.multisets[i], &carried.multisets[i]);
                } else {
                    let src = &src[t.at..];
                    fixed!(t.f, |A| update::<A>(&mut into.rows[base + t.at..], |acc| {
                        A::merge(acc, &RowAcc::load(src));
                    }));
                }
            }
        }
    }

    fn read_rows(&self, pane: &MultiPane, slot_keys: &[u32]) -> KeyedPane {
        let w = self.width;
        pane.touched
            .iter()
            .map(|&slot| {
                let row = &pane.rows[slot as usize * w..][..w];
                let acc = self
                    .terms
                    .iter()
                    .map(|t| {
                        if t.holistic {
                            Slot::Values(pane.multisets[self.multiset(slot, t)].clone())
                        } else {
                            fixed!(t.f, |A| <A as Aggregate>::Acc::load(&row[t.at..]).to_slot())
                        }
                    })
                    .collect();
                (slot_keys[slot as usize], acc)
            })
            .collect()
    }

    fn write_row(&self, pane: &mut MultiPane, slot: u32, row: &[Slot]) {
        let base = pane.touch(slot, self);
        for (t, value) in self.terms.iter().zip(row) {
            if t.holistic {
                let Slot::Values(values) = value else {
                    unreachable!("slot shape is fixed by the aggregate function")
                };
                let multiset = &mut pane.multisets[self.multiset(slot, t)];
                multiset.clear();
                multiset.extend_from_slice(values);
            } else {
                fixed!(t.f, |A| update::<A>(&mut pane.rows[base + t.at..], |acc| {
                    *acc = SlotRepr::from_slot(value);
                }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{sorted_results, Event};
    use crate::executor::{PipelineOptions, PlanPipeline};
    use crate::reference::reference_results;
    use fw_core::{AggregateSpec, Optimizer, PlanChoice, WindowQuery, WindowSet};

    fn w(r: u64, s: u64) -> Window {
        Window::new(r, s).unwrap()
    }

    fn events(n: u64, keys: u32) -> Vec<Event> {
        (0..n)
            .map(|t| Event::new(t, (t % u64::from(keys)) as u32, ((t * 7) % 23) as f64))
            .collect()
    }

    fn multi_query(ws: &[Window], funcs: &[AggregateFunction]) -> WindowQuery {
        let specs = funcs.iter().map(|&f| AggregateSpec::new(f)).collect();
        WindowQuery::with_aggregates(WindowSet::new(ws.to_vec()).unwrap(), specs).unwrap()
    }

    /// Per-term slice of a multi-aggregate result set, with the tag reset
    /// so it compares equal to a single-aggregate run.
    fn slice_of(results: &[WindowResult], agg: u32) -> Vec<WindowResult> {
        results
            .iter()
            .filter(|r| r.agg == agg)
            .map(|r| WindowResult { agg: 0, ..*r })
            .collect()
    }

    #[test]
    fn multi_core_matches_single_aggregate_runs_per_term() {
        let windows = [w(20, 20), w(30, 30), w(40, 40)];
        let funcs = [
            AggregateFunction::Min,
            AggregateFunction::Max,
            AggregateFunction::Avg,
            AggregateFunction::Count,
        ];
        let evs = events(500, 4);
        for choice in PlanChoice::CONCRETE {
            let multi = Optimizer::default()
                .optimize(&multi_query(&windows, &funcs))
                .unwrap();
            let plan = &multi.select(choice).plan;
            let out = PlanPipeline::run(plan, &evs, PipelineOptions::collecting()).unwrap();
            let got = sorted_results(out.results);
            for (j, &f) in funcs.iter().enumerate() {
                let single = Optimizer::default()
                    .optimize(&WindowQuery::new(
                        WindowSet::new(windows.to_vec()).unwrap(),
                        f,
                    ))
                    .unwrap();
                let sout = PlanPipeline::run(
                    &single.select(choice).plan,
                    &evs,
                    PipelineOptions::collecting(),
                )
                .unwrap();
                assert_eq!(
                    slice_of(&got, j as u32),
                    sorted_results(sout.results),
                    "{f} diverges under {choice}"
                );
            }
        }
    }

    #[test]
    fn holistic_rider_matches_reference_in_a_factored_plan() {
        // MEDIAN rides raw panes inside a plan whose MIN/MAX terms share
        // sub-aggregates (including through a hidden factor window).
        let windows = [w(20, 20), w(30, 30), w(40, 40)];
        let funcs = [
            AggregateFunction::Median,
            AggregateFunction::Min,
            AggregateFunction::Max,
        ];
        let q = multi_query(&windows, &funcs);
        let out = Optimizer::default().optimize(&q).unwrap();
        assert!(out.factored.plan.factor_window_count() > 0);
        let evs = events(400, 3);
        let run =
            PlanPipeline::run(&out.factored.plan, &evs, PipelineOptions::collecting()).unwrap();
        let got = sorted_results(run.results);
        for (j, &f) in funcs.iter().enumerate() {
            let oracle = reference_results(&windows, f, &evs);
            assert_eq!(slice_of(&got, j as u32), oracle, "{f} diverges from oracle");
        }
    }

    #[test]
    fn pane_work_is_attributed_once_not_per_term() {
        let windows = [w(20, 20), w(30, 30), w(40, 40)];
        let evs = events(1200, 2);
        let opts = PipelineOptions::default();
        let single = Optimizer::default()
            .optimize(&WindowQuery::new(
                WindowSet::new(windows.to_vec()).unwrap(),
                AggregateFunction::Sum,
            ))
            .unwrap();
        let sref = PlanPipeline::run(&single.factored.plan, &evs, opts).unwrap();

        let funcs = [
            AggregateFunction::Min,
            AggregateFunction::Max,
            AggregateFunction::Avg,
            AggregateFunction::Count,
        ];
        let multi = Optimizer::default()
            .optimize(&multi_query(&windows, &funcs))
            .unwrap();
        assert_eq!(multi.factored.plan.factor_window_count(), 1);
        let mrun = PlanPipeline::run(&multi.factored.plan, &evs, opts).unwrap();
        // Pane maintenance is identical to the single-aggregate plan...
        assert_eq!(mrun.stats.updates, sref.stats.updates);
        assert_eq!(mrun.stats.combines, sref.stats.combines);
        // ...while the slot fan-out reports the per-term work.
        assert_eq!(
            mrun.stats.agg_ops,
            4 * (sref.stats.updates + sref.stats.combines)
        );
    }

    #[test]
    fn all_holistic_sub_aggregate_feed_is_rejected() {
        use fw_core::plan::PlanBuilder;
        let mut b = PlanBuilder::with_aggregates(vec![
            AggregateSpec::new(AggregateFunction::Median),
            AggregateSpec::new(AggregateFunction::Median).with_label("M2"),
        ]);
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
    fn incremental_push_and_watermarks_match_batch() {
        let windows = [w(10, 10), w(20, 10), w(40, 20)];
        let funcs = [AggregateFunction::Sum, AggregateFunction::Count];
        let q = multi_query(&windows, &funcs);
        let out = Optimizer::default().optimize(&q).unwrap();
        let evs = events(300, 3);
        let batch =
            PlanPipeline::run(&out.factored.plan, &evs, PipelineOptions::collecting()).unwrap();

        let mut pipeline =
            PlanPipeline::compile(&out.factored.plan, PipelineOptions::collecting()).unwrap();
        let mut collected = Vec::new();
        for (i, &e) in evs.iter().enumerate() {
            pipeline.push(e).unwrap();
            if i % 90 == 89 {
                pipeline.advance_watermark(e.time).unwrap();
                collected.extend(pipeline.poll_results());
            }
        }
        let tail = pipeline.finish().unwrap();
        collected.extend(tail.results);
        assert_eq!(sorted_results(collected), sorted_results(batch.results));
    }
}
