//! Events and results flowing through the engine, and the canonical
//! result order: one ordering routine ([`CanonicalOrder`]) and one merge
//! ([`merge_ordered`]).

use crate::error::{EngineError, Result};
use fw_core::{Interval, Window};

/// A stream event: a keyed, timestamped scalar reading
/// (e.g. `DeviceID` + temperature in Figure 1(a)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Event timestamp in abstract time units.
    pub time: u64,
    /// Grouping key (`GROUP BY DeviceID`).
    pub key: u32,
    /// The aggregated value.
    pub value: f64,
}

impl Event {
    /// Creates an event.
    #[must_use]
    pub fn new(time: u64, key: u32, value: f64) -> Self {
        Event { time, key, value }
    }
}

/// One aggregate result: the value of a window instance for one key and
/// one aggregate term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowResult {
    /// The window that produced the result.
    pub window: Window,
    /// The window instance (its lifetime interval).
    pub interval: Interval,
    /// The grouping key.
    pub key: u32,
    /// Index of the aggregate term in the query's SELECT list (always `0`
    /// for single-aggregate queries); resolve it to a label through
    /// `QueryPlan::aggregates()` or the API pipeline's label accessor.
    pub agg: u32,
    /// The finalized aggregate value (COUNT is reported as `f64`).
    pub value: f64,
}

/// Where results go during a run.
#[derive(Debug)]
pub enum ResultSink {
    /// Count results only — used for throughput measurements so the sink
    /// cost stays constant across plans.
    CountOnly,
    /// Collect every result — used by correctness tests.
    Collect(Vec<WindowResult>),
}

impl ResultSink {
    /// A collecting sink with pre-reserved capacity — sized from the
    /// plan's expected results-per-seal so steady-state emission never
    /// grows the buffer (see `PlanPipeline`'s sink sizing).
    #[must_use]
    pub fn collecting_with_capacity(capacity: usize) -> Self {
        ResultSink::Collect(Vec::with_capacity(capacity))
    }

    /// Records a result: bumps `counter` and stores the value when
    /// collecting. Public so alternative executors (e.g. the slicing
    /// baseline) can reuse the sink.
    pub fn push(&mut self, result: WindowResult, counter: &mut u64) {
        *counter += 1;
        if let ResultSink::Collect(v) = self {
            v.push(result);
        }
    }

    /// Moves the collected results into `out`, retaining the sink's
    /// buffer (and its capacity) for the next emissions. With a reused
    /// `out`, a steady-state poll loop performs no allocations — unlike
    /// `std::mem::take`, which would strip the sink's capacity on every
    /// poll and force the next seal to reallocate.
    pub fn drain_into(&mut self, out: &mut Vec<WindowResult>) {
        if let ResultSink::Collect(v) = self {
            out.append(v);
        }
    }

    /// The collected results, if collecting.
    #[must_use]
    pub fn results(&self) -> &[WindowResult] {
        match self {
            ResultSink::CountOnly => &[],
            ResultSink::Collect(v) => v,
        }
    }

    /// Takes ownership of the collected results.
    #[must_use]
    pub fn into_results(self) -> Vec<WindowResult> {
        match self {
            ResultSink::CountOnly => Vec::new(),
            ResultSink::Collect(v) => v,
        }
    }
}

/// The canonical result order: `(window, instance, key, aggregate index)`.
#[inline]
fn canonical_key(r: &WindowResult) -> (Window, u64, u64, u32, u32) {
    (r.window, r.interval.start, r.interval.end, r.key, r.agg)
}

/// A row's block header: the window instance it belongs to.
#[inline]
fn header(r: &WindowResult) -> (Window, u64, u64) {
    (r.window, r.interval.start, r.interval.end)
}

/// Header groups smaller than this are ordered by a comparison sort; the
/// radix passes only pay off above it.
const RADIX_MIN_ROWS: usize = 64;

/// The canonical order of a batch of rows, computed without a
/// comparison sort over the rows, with scratch buffers kept for the next
/// batch. This is the engine's one ordering routine:
/// [`sorted_results`] wraps it, shards and `fw-dist` workers order their
/// runs with it, and [`merge_ordered`] merges the runs.
///
/// A pipeline emits a sealed instance as one contiguous block of rows
/// sharing a (window, interval) header, each key's aggregate terms
/// adjacent and in ascending `agg`. So the routine stable-sorts the few
/// block headers, and inside each header group runs a stable LSD radix
/// sort on the 32-bit key over (key, index) pairs. A group of fewer than
/// 64 rows, or one where a key's rows are not in ascending `agg` once
/// grouped, is comparison-sorted instead. Either way the order
/// is exactly that of a stable sort by the canonical key, for every
/// input, duplicates included.
#[derive(Debug, Default)]
pub struct CanonicalOrder {
    perm: Vec<u32>,
    blocks: Vec<((Window, u64, u64), u32, u32)>,
    pairs: Vec<u64>,
    spare: Vec<u64>,
}

impl CanonicalOrder {
    /// The permutation that puts `rows` in canonical order: the `i`-th
    /// row in that order is `rows[perm[i]]`.
    ///
    /// # Panics
    ///
    /// If `rows` holds more than `u32::MAX` rows.
    pub fn of(&mut self, rows: &[WindowResult]) -> &[u32] {
        let n = u32::try_from(rows.len()).expect("at most u32::MAX rows per batch");
        self.perm.clear();
        self.blocks.clear();
        let mut start = 0u32;
        for i in 1..=n {
            if i == n || header(&rows[i as usize]) != header(&rows[start as usize]) {
                self.blocks.push((header(&rows[start as usize]), start, i));
                start = i;
            }
        }
        // Stable, so equal headers keep their blocks in input order and
        // each group's indices below come out ascending.
        self.blocks.sort_by_key(|&(h, _, _)| h);
        let mut b = 0;
        while b < self.blocks.len() {
            let h = self.blocks[b].0;
            let from = self.perm.len();
            while b < self.blocks.len() && self.blocks[b].0 == h {
                let (_, lo, hi) = self.blocks[b];
                self.perm.extend(lo..hi);
                b += 1;
            }
            order_group(
                rows,
                &mut self.perm[from..],
                &mut self.pairs,
                &mut self.spare,
            );
        }
        &self.perm
    }
}

/// Orders one header group's indices (ascending on entry) by
/// `(key, agg)`, stably.
fn order_group(rows: &[WindowResult], idx: &mut [u32], pairs: &mut Vec<u64>, spare: &mut Vec<u64>) {
    if idx.len() >= RADIX_MIN_ROWS {
        pairs.clear();
        pairs.extend(
            idx.iter()
                .map(|&i| (u64::from(rows[i as usize].key) << 32) | u64::from(i)),
        );
        radix_by_high_word(pairs, spare);
        // Stable by key, so ties are in index order; that is the stable
        // `(key, agg)` order exactly when each key's `agg` never falls.
        let agg = |p: u64| rows[p as u32 as usize].agg;
        if pairs
            .windows(2)
            .all(|w| w[0] >> 32 != w[1] >> 32 || agg(w[0]) <= agg(w[1]))
        {
            for (slot, &p) in idx.iter_mut().zip(pairs.iter()) {
                *slot = p as u32;
            }
            return;
        }
    }
    idx.sort_by_key(|&i| {
        let r = &rows[i as usize];
        (r.key, r.agg)
    });
}

/// Stable LSD radix sort of `pairs` on their high 32 bits, one byte per
/// pass; a pass whose byte is the same for every pair is skipped.
fn radix_by_high_word(pairs: &mut Vec<u64>, spare: &mut Vec<u64>) {
    let mut counts = [[0usize; 256]; 4];
    for &p in pairs.iter() {
        for (d, c) in counts.iter_mut().enumerate() {
            c[(p >> (32 + 8 * d)) as usize & 0xFF] += 1;
        }
    }
    spare.clear();
    spare.resize(pairs.len(), 0);
    for (d, c) in counts.iter().enumerate() {
        if c.contains(&pairs.len()) {
            continue;
        }
        let mut next = [0usize; 256];
        let mut sum = 0;
        for (slot, &k) in next.iter_mut().zip(c) {
            *slot = sum;
            sum += k;
        }
        for &p in pairs.iter() {
            let digit = (p >> (32 + 8 * d)) as usize & 0xFF;
            spare[next[digit]] = p;
            next[digit] += 1;
        }
        std::mem::swap(pairs, spare);
    }
}

/// Returns `results` in the canonical order `(window, instance, key,
/// aggregate index)`, ties in input order — the order for comparing
/// result sets across plans and backends. A wrapper over
/// [`CanonicalOrder`].
#[must_use]
pub fn sorted_results(results: Vec<WindowResult>) -> Vec<WindowResult> {
    let mut order = CanonicalOrder::default();
    order
        .of(&results)
        .iter()
        .map(|&i| results[i as usize])
        .collect()
}

/// A run of rows already in canonical order, consumed one row at a time
/// by [`merge_ordered`]. Pulling is fallible so a run can decode its rows
/// lazily from a socket.
pub trait OrderedRun {
    /// The run's next row, or `None` once it is exhausted.
    fn next_row(&mut self) -> Result<Option<WindowResult>>;
}

impl OrderedRun for std::vec::IntoIter<WindowResult> {
    fn next_row(&mut self) -> Result<Option<WindowResult>> {
        Ok(self.next())
    }
}

/// Appends the k-way merge of `runs` to `out`: the same rows, in the
/// same order, as [`sorted_results`] over the runs' concatenation in run
/// order, provided each run is in canonical order. A run that goes
/// backwards is caught (one compare per row) and fails the merge with
/// [`EngineError::Distributed`]; rows merged before it stay in `out`.
pub fn merge_ordered<R: OrderedRun>(runs: &mut [R], out: &mut Vec<WindowResult>) -> Result<()> {
    let mut heads = Vec::with_capacity(runs.len());
    for run in runs.iter_mut() {
        heads.push(run.next_row()?);
    }
    loop {
        let mut best: Option<(usize, &WindowResult)> = None;
        for (i, head) in heads.iter().enumerate() {
            let Some(row) = head else { continue };
            // Strict, so ties go to the earlier run.
            if best.is_none_or(|(_, held)| canonical_key(row) < canonical_key(held)) {
                best = Some((i, row));
            }
        }
        let Some((b, _)) = best else { return Ok(()) };
        let row = heads[b].take().expect("the chosen head is live");
        let next = runs[b].next_row()?;
        if let Some(after) = &next {
            if canonical_key(after) < canonical_key(&row) {
                return Err(EngineError::Distributed(format!(
                    "result run {b} is out of canonical order: {after:?} follows {row:?}"
                )));
            }
        }
        heads[b] = next;
        out.push(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_counts_and_collects() {
        let w = Window::tumbling(10).unwrap();
        let r = WindowResult {
            window: w,
            interval: Interval::new(0, 10),
            key: 1,
            agg: 0,
            value: 2.0,
        };
        let mut count = 0;
        let mut sink = ResultSink::CountOnly;
        sink.push(r, &mut count);
        assert_eq!(count, 1);
        assert!(sink.results().is_empty());

        let mut sink = ResultSink::Collect(Vec::new());
        sink.push(r, &mut count);
        assert_eq!(count, 2);
        assert_eq!(sink.results().len(), 1);
        assert_eq!(sink.into_results()[0], r);
    }

    #[test]
    fn sorting_is_total_and_stable_across_shuffles() {
        let w1 = Window::tumbling(10).unwrap();
        let w2 = Window::tumbling(20).unwrap();
        let mk = |w, s, k| WindowResult {
            window: w,
            interval: Interval::new(s, s + 10),
            key: k,
            agg: 0,
            value: 0.0,
        };
        let a = vec![mk(w2, 0, 1), mk(w1, 10, 0), mk(w1, 0, 2), mk(w1, 0, 1)];
        let b = vec![mk(w1, 0, 1), mk(w1, 0, 2), mk(w2, 0, 1), mk(w1, 10, 0)];
        assert_eq!(sorted_results(a), sorted_results(b));
    }

    /// The stable comparison sort `sorted_results` used to be: the oracle
    /// the ordering routine and the merge must match exactly.
    fn oracle(mut rows: Vec<WindowResult>) -> Vec<WindowResult> {
        rows.sort_by_key(canonical_key);
        rows
    }

    /// Row-for-row equality with values compared by bits (NaN included).
    fn assert_same(got: &[WindowResult], want: &[WindowResult], case: &str) {
        assert_eq!(got.len(), want.len(), "{case}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(canonical_key(g), canonical_key(w), "{case}: row {i}");
            assert_eq!(g.value.to_bits(), w.value.to_bits(), "{case}: row {i}");
        }
    }

    /// SplitMix64: enough randomness for the generators below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    const SPECIAL_VALUES: [f64; 6] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0, 1.5];

    fn value(rng: &mut Rng) -> f64 {
        match rng.below(3) {
            0 => SPECIAL_VALUES[rng.below(6) as usize],
            _ => rng.below(1000) as f64 - 500.25,
        }
    }

    /// One of a few window instances, so headers repeat across blocks.
    fn instance(rng: &mut Rng, headers: u64) -> (Window, Interval) {
        let h = rng.below(headers);
        let window = Window::tumbling(10 * (1 + h % 3)).unwrap();
        let start = (h / 3) * window.range();
        (window, Interval::new(start, start + window.range()))
    }

    fn key(rng: &mut Rng, pool: u64) -> u32 {
        match rng.below(16) {
            0 => u32::MAX,
            1 => u32::MAX - rng.below(3) as u32,
            _ => (rng.below(pool) as u32).wrapping_mul(0x9E37_79B9),
        }
    }

    /// Rows shaped like a pipeline's emission: blocks of one instance,
    /// each key's terms adjacent — with the irregularities the routine
    /// must survive mixed in (repeated headers, repeated keys and rows,
    /// terms out of order, one-row blocks).
    fn emission(rng: &mut Rng) -> Vec<WindowResult> {
        let headers = 1 + rng.below(6);
        let pool = 1 + rng.below(300);
        let mut rows = Vec::new();
        for _ in 0..rng.below(8) {
            let (window, interval) = instance(rng, headers);
            let terms = 1 + rng.below(4) as u32;
            let keys = match rng.below(4) {
                0 => 1,
                _ => rng.below(200),
            };
            for _ in 0..keys {
                let key = key(rng, pool);
                let scrambled = rng.below(10) == 0;
                for j in 0..terms {
                    let agg = if scrambled { terms - 1 - j } else { j };
                    let row = WindowResult {
                        window,
                        interval,
                        key,
                        agg,
                        value: value(rng),
                    };
                    rows.push(row);
                    if rng.below(20) == 0 {
                        rows.push(row); // an exact duplicate
                    }
                }
            }
        }
        rows
    }

    /// Rows in no order at all: most blocks are one row long.
    fn chaos(rng: &mut Rng) -> Vec<WindowResult> {
        let headers = 1 + rng.below(4);
        let pool = 1 + rng.below(50);
        (0..rng.below(400))
            .map(|_| {
                let (window, interval) = instance(rng, headers);
                WindowResult {
                    window,
                    interval,
                    key: key(rng, pool),
                    agg: rng.below(3) as u32,
                    value: value(rng),
                }
            })
            .collect()
    }

    #[test]
    fn canonical_order_matches_the_stable_sort_oracle() {
        let mut rng = Rng(7);
        for case in 0..600 {
            let rows = if case % 3 == 0 {
                chaos(&mut rng)
            } else {
                emission(&mut rng)
            };
            let want = oracle(rows.clone());
            assert_same(&sorted_results(rows), &want, &format!("case {case}"));
        }
    }

    #[test]
    fn one_header_of_many_keys_orders_by_radix_exactly() {
        // A single header: the radix path with 4-byte keys, every pass live.
        let mut rng = Rng(11);
        let window = Window::tumbling(60).unwrap();
        let mut rows = Vec::new();
        for _ in 0..5000 {
            let key = rng.next() as u32;
            for agg in 0..4 {
                rows.push(WindowResult {
                    window,
                    interval: Interval::new(0, 60),
                    key,
                    agg,
                    value: value(&mut rng),
                });
            }
        }
        let want = oracle(rows.clone());
        assert_same(&sorted_results(rows), &want, "single header");
    }

    #[test]
    fn merge_of_ordered_runs_is_the_sorted_concatenation() {
        let mut rng = Rng(3);
        for case in 0..200 {
            let runs: Vec<Vec<WindowResult>> = (0..rng.below(6))
                .map(|_| sorted_results(emission(&mut rng)))
                .collect();
            let want = oracle(runs.concat());
            let mut iters: Vec<_> = runs.into_iter().map(Vec::into_iter).collect();
            let mut got = Vec::new();
            merge_ordered(&mut iters, &mut got).unwrap();
            assert_same(&got, &want, &format!("case {case}"));
        }
    }

    #[test]
    fn a_run_that_goes_backwards_fails_the_merge() {
        let w = Window::tumbling(10).unwrap();
        let row = |key| WindowResult {
            window: w,
            interval: Interval::new(0, 10),
            key,
            agg: 0,
            value: 0.0,
        };
        let mut runs = vec![
            vec![row(1), row(4)].into_iter(),
            vec![row(3), row(2)].into_iter(),
        ];
        let mut out = Vec::new();
        let err = merge_ordered(&mut runs, &mut out).unwrap_err();
        assert!(
            matches!(&err, EngineError::Distributed(m) if m.contains("run 1")),
            "{err}"
        );
        assert_eq!(out, vec![row(1)]);
    }
}
