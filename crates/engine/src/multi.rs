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
//! This module is the multi-term pane layout; the execution driver it
//! plugs into is the crate-private `driver::Core`.

use crate::agg::{Aggregate, AvgAgg, CountAgg, MaxAgg, MedianAgg, MinAgg, SumAgg, SumCount};
use crate::driver::{init_slot, KeyedPane, PaneLayout, Slot, Store};
use crate::error::{EngineError, Result};
use crate::event::{ResultSink, WindowResult};
use crate::pane::element_work;
use fw_core::{AggregateClass, AggregateFunction, Interval, QueryPlan, Window};

/// One aggregate term's accumulator column, slot-indexed (the SoA
/// counterpart of one [`Slot`] position across every key).
#[derive(Debug, Clone)]
enum SlotCol {
    /// MIN / MAX / SUM state.
    F64(Vec<f64>),
    /// COUNT state.
    U64(Vec<u64>),
    /// AVG state.
    SumCount(Vec<SumCount>),
    /// MEDIAN state (holistic: the full multiset per key).
    Values(Vec<Vec<f64>>),
}

impl SlotCol {
    fn new(f: AggregateFunction) -> Self {
        match f.class() {
            AggregateClass::Holistic => SlotCol::Values(Vec::new()),
            _ => match init_slot(f) {
                Slot::F64(_) => SlotCol::F64(Vec::new()),
                Slot::U64(_) => SlotCol::U64(Vec::new()),
                Slot::SumCount(_) => SlotCol::SumCount(Vec::new()),
                Slot::Values(_) => SlotCol::Values(Vec::new()),
            },
        }
    }

    /// Grows the column to cover `n` slots (placeholders are gated by the
    /// pane's occupancy stamp and re-initialized on touch).
    fn grow(&mut self, n: usize) {
        match self {
            SlotCol::F64(v) => v.resize(n, 0.0),
            SlotCol::U64(v) => v.resize(n, 0),
            SlotCol::SumCount(v) => v.resize(n, SumCount::default()),
            SlotCol::Values(v) => v.resize_with(n, Vec::new),
        }
    }

    /// Re-initializes slot `i` for function `f` (first touch this epoch).
    /// The holistic multiset clears in place so its capacity survives
    /// pane recycling.
    #[inline]
    fn reinit(&mut self, f: AggregateFunction, i: usize) {
        match self {
            SlotCol::F64(v) => {
                v[i] = match init_slot(f) {
                    Slot::F64(x) => x,
                    _ => unreachable!("column shape is fixed at construction"),
                }
            }
            SlotCol::U64(v) => v[i] = 0,
            SlotCol::SumCount(v) => v[i] = SumCount::default(),
            SlotCol::Values(v) => v[i].clear(),
        }
    }

    /// Reads slot `i` out as a row-format [`Slot`].
    fn read(&self, i: usize) -> Slot {
        match self {
            SlotCol::F64(v) => Slot::F64(v[i]),
            SlotCol::U64(v) => Slot::U64(v[i]),
            SlotCol::SumCount(v) => Slot::SumCount(v[i]),
            SlotCol::Values(v) => Slot::Values(v[i].clone()),
        }
    }

    /// Writes a row-format [`Slot`] into slot `i`.
    fn write(&mut self, i: usize, slot: &Slot) {
        match (self, slot) {
            (SlotCol::F64(v), Slot::F64(x)) => v[i] = *x,
            (SlotCol::U64(v), Slot::U64(x)) => v[i] = *x,
            (SlotCol::SumCount(v), Slot::SumCount(x)) => v[i] = *x,
            (SlotCol::Values(v), Slot::Values(x)) => {
                v[i].clear();
                v[i].extend_from_slice(x);
            }
            _ => unreachable!("slot shape is fixed at init"),
        }
    }

    /// Folds a contiguous value run into slot `i` through the aggregate's
    /// columnar kernel — one function dispatch per key sub-run per term,
    /// not one per element per term.
    #[inline]
    fn fold_run(&mut self, f: AggregateFunction, i: usize, values: &[f64]) {
        match (f, self) {
            (AggregateFunction::Min, SlotCol::F64(v)) => MinAgg::fold_run(&mut v[i], values),
            (AggregateFunction::Max, SlotCol::F64(v)) => MaxAgg::fold_run(&mut v[i], values),
            (AggregateFunction::Sum, SlotCol::F64(v)) => SumAgg::fold_run(&mut v[i], values),
            (AggregateFunction::Count, SlotCol::U64(v)) => CountAgg::fold_run(&mut v[i], values),
            (AggregateFunction::Avg, SlotCol::SumCount(v)) => AvgAgg::fold_run(&mut v[i], values),
            (AggregateFunction::Median, SlotCol::Values(v)) => {
                MedianAgg::fold_run(&mut v[i], values)
            }
            _ => unreachable!("column shape is fixed at construction"),
        }
    }

    /// Combines slot `i` of `src` into slot `i` of `self` (combinable
    /// functions only — the sub-aggregate cascade).
    #[inline]
    fn combine_at(&mut self, f: AggregateFunction, i: usize, src: &SlotCol) {
        match (f, self, src) {
            (AggregateFunction::Min, SlotCol::F64(a), SlotCol::F64(b)) => {
                MinAgg::combine(&mut a[i], &b[i]);
            }
            (AggregateFunction::Max, SlotCol::F64(a), SlotCol::F64(b)) => {
                MaxAgg::combine(&mut a[i], &b[i]);
            }
            (AggregateFunction::Sum, SlotCol::F64(a), SlotCol::F64(b)) => {
                SumAgg::combine(&mut a[i], &b[i]);
            }
            (AggregateFunction::Count, SlotCol::U64(a), SlotCol::U64(b)) => {
                CountAgg::combine(&mut a[i], &b[i]);
            }
            (AggregateFunction::Avg, SlotCol::SumCount(a), SlotCol::SumCount(b)) => {
                AvgAgg::combine(&mut a[i], &b[i]);
            }
            (AggregateFunction::Median, ..) => {
                unreachable!("holistic slots are raw-fed, never combined")
            }
            _ => unreachable!("column shape is fixed at construction"),
        }
    }

    /// Emission-side merge of slot `i` of `src` — the carried half of the
    /// same instance — into slot `i` of `self`: combine for combinable
    /// functions, multiset concatenation for the holistic column.
    #[inline]
    fn merge_at(&mut self, f: AggregateFunction, i: usize, src: &SlotCol) {
        match (self, src) {
            (SlotCol::Values(a), SlotCol::Values(b)) => a[i].extend_from_slice(&b[i]),
            (col, src) => col.combine_at(f, i, src),
        }
    }

    /// Finalizes slot `i` into the result value.
    #[inline]
    fn finalize(&self, f: AggregateFunction, i: usize) -> f64 {
        match (f, self) {
            (AggregateFunction::Min, SlotCol::F64(v)) => MinAgg::finalize(&v[i]),
            (AggregateFunction::Max, SlotCol::F64(v)) => MaxAgg::finalize(&v[i]),
            (AggregateFunction::Sum, SlotCol::F64(v)) => SumAgg::finalize(&v[i]),
            (AggregateFunction::Count, SlotCol::U64(v)) => CountAgg::finalize(&v[i]),
            (AggregateFunction::Avg, SlotCol::SumCount(v)) => AvgAgg::finalize(&v[i]),
            (AggregateFunction::Median, SlotCol::Values(v)) => MedianAgg::finalize(&v[i]),
            _ => unreachable!("column shape is fixed at construction"),
        }
    }
}

/// One window instance's multi-aggregate state as a struct of arrays:
/// one [`SlotCol`] per aggregate term, sharing a single epoch-stamped
/// occupancy (same sparse-set scheme as [`crate::slab::Slab`]). A
/// multi-term fold over a key sub-run dispatches each term's column once
/// and then runs a tight loop over contiguous memory.
#[derive(Debug, Clone, Default)]
pub(crate) struct MultiPane {
    /// One column per aggregate term (SELECT-list order); empty until
    /// the first touch (panes are created via `Default` by the deque).
    cols: Box<[SlotCol]>,
    /// `stamp[slot] == epoch` marks the slot live this epoch.
    stamp: Vec<u32>,
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
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }
}

impl MultiPane {
    /// Marks `slot` live, lazily building the columns on a pane's first
    /// ever use and re-initializing the slot's accumulators on first
    /// touch this epoch.
    #[inline]
    fn touch(&mut self, slot: u32, funcs: &[AggregateFunction]) {
        if self.epoch == 0 {
            self.epoch = 1;
        }
        if self.cols.is_empty() && !funcs.is_empty() {
            self.cols = funcs.iter().map(|&f| SlotCol::new(f)).collect();
        }
        let i = slot as usize;
        if i >= self.stamp.len() {
            self.stamp.resize(i + 1, 0);
            for col in self.cols.iter_mut() {
                col.grow(i + 1);
            }
        }
        if self.stamp[i] != self.epoch {
            self.stamp[i] = self.epoch;
            self.touched.push(slot);
            for (col, &f) in self.cols.iter_mut().zip(funcs) {
                col.reinit(f, i);
            }
        }
    }
}

/// The multi-term pane layout: every pane is a [`MultiPane`], maintained
/// once per element however many aggregate terms ride it.
pub(crate) struct MultiLayout {
    /// All aggregate terms' functions, term-indexed (SELECT-list order).
    funcs: Box<[AggregateFunction]>,
    /// Term indices parent panes combine into (the combinable terms).
    combinable: Box<[usize]>,
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
        let funcs: Box<[AggregateFunction]> =
            plan.aggregates().iter().map(|s| s.function()).collect();
        let combinable = (0..funcs.len())
            .filter(|&j| funcs[j].class() != AggregateClass::Holistic)
            .collect();
        MultiLayout { funcs, combinable }
    }

    fn op(&self, exposed: bool, sub_fed: bool) -> Result<(MultiOp, bool)> {
        let terms = 0..self.funcs.len();
        let raw_mask: Box<[usize]> = match (sub_fed, exposed) {
            // Raw-fed: every term living at this operator shares the pane
            // feed. Factor operators carry combinable terms only.
            (false, true) => terms.collect(),
            (false, false) => self.combinable.clone(),
            (true, _) if self.combinable.is_empty() => {
                return Err(EngineError::HolisticSubAggregate {
                    function: self.funcs[0].name(),
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
    /// resolves its accumulator columns once, then folds through the
    /// columnar kernels ([`SlotCol::fold_run`]) — zero hash probes. The
    /// emulated element-work loop runs separately from the value folds;
    /// its sink is combined by XOR, so the split is order-insensitive,
    /// while the value folds keep strict per-element order for the
    /// order-sensitive kernels (SUM/AVG). Pane work is counted once per
    /// element, `agg_ops` once per term it fans out to.
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
            let funcs = &self.funcs;
            let raw_mask = &store.op.raw_mask;
            let pane = store.deque.pane_mut(m);
            let mut k = 0;
            while k < slots.len() {
                let slot = slots[k];
                let mut end = k + 1;
                while end < slots.len() && slots[end] == slot {
                    end += 1;
                }
                pane.touch(slot, funcs);
                let run = &values[k..end];
                for &j in raw_mask.iter() {
                    pane.cols[j].fold_run(funcs[j], slot as usize, run);
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
    /// must never inherit parent state). The merge is a linear walk of
    /// the source's live slots; `slot_keys` recovers raw keys for the
    /// emulated element-work seed. The work parameters are resolved once
    /// per call, outside the instance loop.
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
        for m in window.instances_containing_interval(iv) {
            store.combines += live;
            store.agg_ops += live * self.combinable.len() as u64;
            let funcs = &self.funcs;
            let pane = store.deque.pane_mut(m);
            for &slot in &source.touched {
                sink ^= element_work(m ^ u64::from(slot_keys[slot as usize]), work);
                pane.touch(slot, funcs);
                for &j in self.combinable.iter() {
                    pane.cols[j].combine_at(funcs[j], slot as usize, &source.cols[j]);
                }
            }
        }
        store.work_sink = sink;
    }

    /// One result per (key, aggregate term), walking the pane's live
    /// slots in first-touch order.
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
            return (pane.touched.len() * self.funcs.len()) as u64;
        };
        let mut emitted = 0u64;
        for &slot in &pane.touched {
            let key = slot_keys[slot as usize];
            for (j, &f) in self.funcs.iter().enumerate() {
                sink.push(
                    WindowResult {
                        window,
                        interval,
                        key,
                        agg: j as u32,
                        value: pane.cols[j].finalize(f, slot as usize),
                    },
                    &mut emitted,
                );
            }
        }
        emitted
    }

    fn merge(&self, into: &mut MultiPane, carried: &MultiPane) {
        for &slot in &carried.touched {
            into.touch(slot, &self.funcs);
            for (j, col) in into.cols.iter_mut().enumerate() {
                col.merge_at(self.funcs[j], slot as usize, &carried.cols[j]);
            }
        }
    }

    fn read_rows(&self, pane: &MultiPane, slot_keys: &[u32]) -> KeyedPane {
        pane.touched
            .iter()
            .map(|&s| {
                let row = pane.cols.iter().map(|c| c.read(s as usize)).collect();
                (slot_keys[s as usize], row)
            })
            .collect()
    }

    fn write_row(&self, pane: &mut MultiPane, slot: u32, row: &[Slot]) {
        pane.touch(slot, &self.funcs);
        for (col, value) in pane.cols.iter_mut().zip(row) {
            col.write(slot as usize, value);
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
