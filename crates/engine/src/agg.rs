//! Aggregate implementations: update (raw events), combine (sub-aggregates),
//! finalize (result values).
//!
//! The pipeline is monomorphized over one of these types so the hot loops
//! compile to straight-line code per aggregate function — matching how a
//! production engine (Trill, Flink) generates or specializes aggregation
//! code per query.

use fw_core::AggregateFunction;

/// An aggregate function the engine can execute.
///
/// `update` folds a raw event into an accumulator; `combine` folds another
/// accumulator in (used by sub-aggregate-fed operators); `finalize`
/// produces the result value.
pub trait Aggregate: 'static {
    /// Accumulator state per (window instance, key). `Send` so operator
    /// state can live on shard worker threads
    /// (see [`crate::shard::ShardedPipeline`]).
    type Acc: Clone + std::fmt::Debug + Send;

    /// Whether `combine` is meaningful: false for holistic functions, whose
    /// sub-aggregates would be unbounded (Section III-A).
    const COMBINABLE: bool;

    /// The corresponding SQL-level function.
    fn function() -> AggregateFunction;

    /// A fresh accumulator.
    fn init() -> Self::Acc;

    /// Folds one raw value in.
    fn update(acc: &mut Self::Acc, value: f64);

    /// Folds a contiguous run of raw values in — the columnar fold
    /// kernel. The default is a strict left fold (element order exactly
    /// as [`Self::update`] applied in sequence), which reorder-sensitive
    /// aggregates (SUM/AVG: float addition does not associate) must keep
    /// for bit-identical results. Reorder-safe aggregates (MIN/MAX:
    /// idempotent comparison; COUNT: length) override with unrolled
    /// multi-accumulator variants the compiler can vectorize.
    #[inline]
    fn fold_run(acc: &mut Self::Acc, values: &[f64]) {
        for &v in values {
            Self::update(acc, v);
        }
    }

    /// Folds a sub-aggregate in.
    fn combine(acc: &mut Self::Acc, other: &Self::Acc);

    /// Folds the other half of the *same* window instance in (the two
    /// halves a live plan swap splits an open instance into). The same as
    /// [`Self::combine`] wherever that is defined; holistic functions,
    /// which have no sub-aggregates, concatenate their multisets.
    #[inline]
    fn merge(acc: &mut Self::Acc, other: &Self::Acc) {
        Self::combine(acc, other);
    }

    /// Produces the result value.
    fn finalize(acc: &Self::Acc) -> f64;
}

/// MIN: distributive, tolerant of overlapping sub-aggregates (Theorem 6).
#[derive(Debug, Clone, Copy)]
pub struct MinAgg;

impl Aggregate for MinAgg {
    type Acc = f64;
    const COMBINABLE: bool = true;

    fn function() -> AggregateFunction {
        AggregateFunction::Min
    }

    fn init() -> f64 {
        f64::INFINITY
    }

    #[inline]
    fn update(acc: &mut f64, value: f64) {
        if value < *acc {
            *acc = value;
        }
    }

    // MIN is commutative and associative, and NaN never wins `<`, so the
    // four-lane unroll cannot change the value (only the sign of a ±0.0
    // tie could differ bitwise; see DESIGN.md §3.9). Short runs (high
    // key-alternation streams produce length-1 sub-runs) skip the lane
    // setup/reduce entirely.
    #[inline]
    fn fold_run(acc: &mut f64, values: &[f64]) {
        if values.len() < 4 {
            for &v in values {
                if v < *acc {
                    *acc = v;
                }
            }
            return;
        }
        let mut lanes = [*acc; 4];
        let mut chunks = values.chunks_exact(4);
        for c in &mut chunks {
            for (lane, &v) in lanes.iter_mut().zip(c) {
                if v < *lane {
                    *lane = v;
                }
            }
        }
        for &v in chunks.remainder() {
            if v < lanes[0] {
                lanes[0] = v;
            }
        }
        let mut m = lanes[0];
        for &l in &lanes[1..] {
            if l < m {
                m = l;
            }
        }
        *acc = m;
    }

    #[inline]
    fn combine(acc: &mut f64, other: &f64) {
        if *other < *acc {
            *acc = *other;
        }
    }

    fn finalize(acc: &f64) -> f64 {
        *acc
    }
}

/// MAX: distributive, overlap tolerant.
#[derive(Debug, Clone, Copy)]
pub struct MaxAgg;

impl Aggregate for MaxAgg {
    type Acc = f64;
    const COMBINABLE: bool = true;

    fn function() -> AggregateFunction {
        AggregateFunction::Max
    }

    fn init() -> f64 {
        f64::NEG_INFINITY
    }

    #[inline]
    fn update(acc: &mut f64, value: f64) {
        if value > *acc {
            *acc = value;
        }
    }

    // Same reorder-safety and short-run arguments as MIN's kernel.
    #[inline]
    fn fold_run(acc: &mut f64, values: &[f64]) {
        if values.len() < 4 {
            for &v in values {
                if v > *acc {
                    *acc = v;
                }
            }
            return;
        }
        let mut lanes = [*acc; 4];
        let mut chunks = values.chunks_exact(4);
        for c in &mut chunks {
            for (lane, &v) in lanes.iter_mut().zip(c) {
                if v > *lane {
                    *lane = v;
                }
            }
        }
        for &v in chunks.remainder() {
            if v > lanes[0] {
                lanes[0] = v;
            }
        }
        let mut m = lanes[0];
        for &l in &lanes[1..] {
            if l > m {
                m = l;
            }
        }
        *acc = m;
    }

    #[inline]
    fn combine(acc: &mut f64, other: &f64) {
        if *other > *acc {
            *acc = *other;
        }
    }

    fn finalize(acc: &f64) -> f64 {
        *acc
    }
}

/// SUM: distributive, requires disjoint (partitioned) sub-aggregates.
#[derive(Debug, Clone, Copy)]
pub struct SumAgg;

impl Aggregate for SumAgg {
    type Acc = f64;
    const COMBINABLE: bool = true;

    fn function() -> AggregateFunction {
        AggregateFunction::Sum
    }

    fn init() -> f64 {
        0.0
    }

    #[inline]
    fn update(acc: &mut f64, value: f64) {
        *acc += value;
    }

    #[inline]
    fn combine(acc: &mut f64, other: &f64) {
        *acc += *other;
    }

    fn finalize(acc: &f64) -> f64 {
        *acc
    }
}

/// COUNT: distributive; `g` is SUM over sub-counts (Gray et al.).
#[derive(Debug, Clone, Copy)]
pub struct CountAgg;

impl Aggregate for CountAgg {
    type Acc = u64;
    const COMBINABLE: bool = true;

    fn function() -> AggregateFunction {
        AggregateFunction::Count
    }

    fn init() -> u64 {
        0
    }

    #[inline]
    fn update(acc: &mut u64, _value: f64) {
        *acc += 1;
    }

    // COUNT of a run is its length — no per-element loop at all.
    #[inline]
    fn fold_run(acc: &mut u64, values: &[f64]) {
        *acc += values.len() as u64;
    }

    #[inline]
    fn combine(acc: &mut u64, other: &u64) {
        *acc += *other;
    }

    fn finalize(acc: &u64) -> f64 {
        *acc as f64
    }
}

/// AVG: algebraic; the sub-aggregate carries (sum, count) and `h` divides.
#[derive(Debug, Clone, Copy)]
pub struct AvgAgg;

/// AVG's bounded sub-aggregate state.
#[derive(Debug, Clone, Copy, Default)]
pub struct SumCount {
    /// Sum of values.
    pub sum: f64,
    /// Number of values.
    pub count: u64,
}

impl Aggregate for AvgAgg {
    type Acc = SumCount;
    const COMBINABLE: bool = true;

    fn function() -> AggregateFunction {
        AggregateFunction::Avg
    }

    fn init() -> SumCount {
        SumCount::default()
    }

    #[inline]
    fn update(acc: &mut SumCount, value: f64) {
        acc.sum += value;
        acc.count += 1;
    }

    #[inline]
    fn combine(acc: &mut SumCount, other: &SumCount) {
        acc.sum += other.sum;
        acc.count += other.count;
    }

    fn finalize(acc: &SumCount) -> f64 {
        if acc.count == 0 {
            f64::NAN
        } else {
            acc.sum / acc.count as f64
        }
    }
}

/// MEDIAN: holistic — the accumulator is the full multiset of values, and
/// `combine` must never be called (plan compilation rejects sub-aggregate
/// feeds for holistic functions).
#[derive(Debug, Clone, Copy)]
pub struct MedianAgg;

impl Aggregate for MedianAgg {
    type Acc = Vec<f64>;
    const COMBINABLE: bool = false;

    fn function() -> AggregateFunction {
        AggregateFunction::Median
    }

    fn init() -> Vec<f64> {
        Vec::new()
    }

    #[inline]
    fn update(acc: &mut Vec<f64>, value: f64) {
        acc.push(value);
    }

    // Order inside the multiset is irrelevant to the median; a bulk
    // append keeps the run path allocation-efficient.
    #[inline]
    fn fold_run(acc: &mut Vec<f64>, values: &[f64]) {
        acc.extend_from_slice(values);
    }

    fn combine(_acc: &mut Vec<f64>, _other: &Vec<f64>) {
        unreachable!("holistic sub-aggregation is rejected at plan compile time");
    }

    fn merge(acc: &mut Vec<f64>, other: &Vec<f64>) {
        acc.extend_from_slice(other);
    }

    fn finalize(acc: &Vec<f64>) -> f64 {
        if acc.is_empty() {
            return f64::NAN;
        }
        let mut sorted = acc.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        let n = sorted.len();
        if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold<A: Aggregate>(values: &[f64]) -> f64 {
        let mut acc = A::init();
        for &v in values {
            A::update(&mut acc, v);
        }
        A::finalize(&acc)
    }

    #[test]
    fn min_max_fold_and_combine() {
        assert_eq!(fold::<MinAgg>(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(fold::<MaxAgg>(&[3.0, 1.0, 2.0]), 3.0);
        let mut a = MinAgg::init();
        MinAgg::update(&mut a, 5.0);
        let mut b = MinAgg::init();
        MinAgg::update(&mut b, 2.0);
        MinAgg::combine(&mut a, &b);
        // MIN over overlapping partitions stays correct (Theorem 6).
        MinAgg::combine(&mut a, &b);
        assert_eq!(MinAgg::finalize(&a), 2.0);
    }

    #[test]
    fn sum_count_avg() {
        assert_eq!(fold::<SumAgg>(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(fold::<CountAgg>(&[1.0, 2.0, 3.0]), 3.0);
        assert_eq!(fold::<AvgAgg>(&[1.0, 2.0, 3.0]), 2.0);
        let mut a = AvgAgg::init();
        AvgAgg::update(&mut a, 1.0);
        let mut b = AvgAgg::init();
        AvgAgg::update(&mut b, 3.0);
        AvgAgg::combine(&mut a, &b);
        assert_eq!(AvgAgg::finalize(&a), 2.0);
    }

    // Compile-time pin: MEDIAN must never advertise combinability.
    const _: () = assert!(!MedianAgg::COMBINABLE && MinAgg::COMBINABLE);

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(fold::<MedianAgg>(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(fold::<MedianAgg>(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(fold::<MedianAgg>(&[]).is_nan());
    }

    #[test]
    fn fold_run_matches_strict_left_fold() {
        // The unrolled kernels must agree bit-for-bit with per-element
        // update over run lengths around the unroll width.
        let values: Vec<f64> = (0..23).map(|i| f64::from((i * 37 % 11) - 5)).collect();
        for n in 0..values.len() {
            let run = &values[..n];
            macro_rules! check {
                ($a:ty) => {{
                    let mut strict = <$a>::init();
                    for &v in run {
                        <$a>::update(&mut strict, v);
                    }
                    let mut kernel = <$a>::init();
                    <$a>::fold_run(&mut kernel, run);
                    assert_eq!(
                        <$a>::finalize(&kernel).to_bits(),
                        <$a>::finalize(&strict).to_bits(),
                        "{} over {n} values",
                        stringify!($a)
                    );
                }};
            }
            check!(MinAgg);
            check!(MaxAgg);
            check!(SumAgg);
            check!(CountAgg);
            check!(AvgAgg);
            check!(MedianAgg);
        }
    }

    #[test]
    fn fold_run_kernels_ignore_nan_like_update() {
        let run = [3.0, f64::NAN, 1.0, f64::NAN, 2.0, 7.0, f64::NAN];
        let mut min = MinAgg::init();
        MinAgg::fold_run(&mut min, &run);
        assert_eq!(min, 1.0);
        let mut max = MaxAgg::init();
        MaxAgg::fold_run(&mut max, &run);
        assert_eq!(max, 7.0);
    }

    #[test]
    fn empty_accumulator_finalization() {
        assert_eq!(MinAgg::finalize(&MinAgg::init()), f64::INFINITY);
        assert_eq!(SumAgg::finalize(&SumAgg::init()), 0.0);
        assert!(AvgAgg::finalize(&AvgAgg::init()).is_nan());
    }
}
