//! Bounded-disorder ingestion: a reorder buffer in front of the pipeline.
//!
//! The paper (and the core executor) assume in-order arrival. Real feeds
//! are *almost* ordered: events may lag by a bounded amount (network
//! jitter, partition merges). Production engines absorb this with a
//! reorder buffer / punctuation slack — Trill's disorder policies, Flink's
//! bounded out-of-orderness watermarks. This module provides the same
//! capability: events are held until the high-watermark moves `slack`
//! units past them, then released in timestamp order. Events later than
//! the slack allows are reported, not silently dropped.
//!
//! Every buffered event lies within `slack` units of the high-watermark,
//! so the buffer is a power-of-two ring of columnar buckets, one per time
//! unit: a push appends to its time's bucket, a release concatenates the
//! buckets below the horizon — (time, arrival) order, no comparisons.
//! Slacks past 1 024 units share each bucket among `2^k` units, sorted
//! at release only if its arrivals were out of order.
//!
//! Released events land in an internal, reusable columnar buffer
//! ([`EventBatch`]) that the pipeline feeds straight into the run-sliced
//! core path: the buffer is cleared — not reallocated — after each feed,
//! and its capacity is capped (the same discipline as the pane deque's
//! spare pool) so a watermark that flushes a long-stalled stream cannot
//! pin burst-sized memory on the steady state; the ring's buckets share
//! one such cap.

use crate::batch::EventBatch;
use crate::error::{EngineError, Result};
use crate::event::Event;

/// Most buckets a ring holds; wider slacks get `2^k`-unit buckets.
const MAX_BUCKETS: u64 = 1024;

/// Events of capacity all buckets keep across releases, shared evenly.
const RING_SPARE_CAP: usize = 16 * crate::batch::BATCH_SPARE_CAP;

/// Ring geometry `(shift, len)` for events spanning `span` time units:
/// `span` units touch at most `(span >> shift) + 2` buckets (`span + 1`
/// at shift 0), so a ring that long never holds two in one place.
fn geometry(span: u64) -> (u32, usize) {
    if span < MAX_BUCKETS {
        return (0, (span + 1).next_power_of_two() as usize);
    }
    let mut shift = 1;
    while (span >> shift) + 2 > MAX_BUCKETS {
        shift += 1;
    }
    (shift, ((span >> shift) + 2).next_power_of_two() as usize)
}

/// The buffered events of one bucket, columnar, in arrival order.
#[derive(Debug, Default)]
struct Bucket {
    times: Vec<u64>,
    keys: Vec<u32>,
    values: Vec<f64>,
    /// Some arrival was earlier in time than its predecessor (possible
    /// only when the bucket spans several units): release must sort.
    disordered: bool,
}

impl Bucket {
    #[inline]
    fn push(&mut self, time: u64, key: u32, value: f64) {
        if let Some(&last) = self.times.last() {
            self.disordered |= time < last;
        }
        self.times.push(time);
        self.keys.push(key);
        self.values.push(value);
    }

    /// Indices in release order: by time, then arrival (a stable sort,
    /// skipped when arrivals were in order).
    fn release_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.times.len()).collect();
        if self.disordered {
            order.sort_by_key(|&i| self.times[i]);
        }
        order
    }
}

/// A bounded-disorder reorder buffer.
#[derive(Debug)]
pub struct ReorderBuffer {
    slack: u64,
    high_watermark: u64,
    released_watermark: u64,
    /// No buffered event is older: the last horizon, or a restored image's
    /// oldest entry.
    low: u64,
    /// Each bucket spans `2^shift` time units.
    shift: u32,
    /// Power-of-two ring: the events of units `[b << shift, (b + 1) <<
    /// shift)` live in bucket `b & (len − 1)`.
    ring: Box<[Bucket]>,
    buffered: usize,
    /// Events released from the ring, in timestamp order, waiting to be
    /// fed into the operators. Reused across flushes; capacity capped by
    /// [`EventBatch::clear`].
    staged: EventBatch,
}

impl ReorderBuffer {
    /// Creates a buffer tolerating disorder up to `slack` time units.
    #[must_use]
    pub fn new(slack: u64) -> Self {
        Self::spanning(slack, slack)
    }

    /// A buffer with `slack`'s release rule and a ring sized for buffered
    /// events spanning `span ≥ slack` units.
    fn spanning(slack: u64, span: u64) -> Self {
        let (shift, len) = geometry(span);
        ReorderBuffer {
            slack,
            high_watermark: 0,
            released_watermark: 0,
            low: 0,
            shift,
            ring: (0..len).map(|_| Bucket::default()).collect(),
            buffered: 0,
            staged: EventBatch::new(),
        }
    }

    /// Number of events currently buffered (not yet released).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// The events released so far and not yet consumed, in timestamp
    /// order. Consume with [`Self::clear_staged`] after feeding them.
    #[must_use]
    pub fn staged(&self) -> &EventBatch {
        &self.staged
    }

    /// Marks the staged events consumed: clears the columnar buffer,
    /// retaining (capped) capacity for the next release.
    pub fn clear_staged(&mut self) {
        self.staged.clear();
    }

    /// Accepts one (possibly out-of-order) event and stages every event
    /// that became releasable. An event older than
    /// `high_watermark − slack` is a hard error: it can no longer be
    /// ordered correctly.
    pub fn push(&mut self, event: Event) -> Result<()> {
        self.push_parts(event.time, event.key, event.value)
    }

    /// [`Self::push`] without an `Event` (the columnar ingestion path).
    #[inline]
    pub(crate) fn push_parts(&mut self, time: u64, key: u32, value: f64) -> Result<()> {
        // Everything strictly before the horizon has already been (or may
        // already have been) released; an event behind it cannot be
        // ordered correctly any more.
        let horizon = self.high_watermark.saturating_sub(self.slack);
        if time < horizon {
            return Err(EngineError::OutOfOrderEvent {
                at: time,
                watermark: horizon,
            });
        }
        self.high_watermark = self.high_watermark.max(time);
        // Release before appending: the buckets the new event could share
        // a ring place with are the ones the horizon just passed.
        self.release(self.high_watermark.saturating_sub(self.slack));
        self.insert(time, key, value);
        Ok(())
    }

    fn insert(&mut self, time: u64, key: u32, value: f64) {
        let mask = self.ring.len() - 1;
        self.ring[(time >> self.shift) as usize & mask].push(time, key, value);
        self.buffered += 1;
    }

    /// Stages every buffered event strictly before `horizon`: the buckets
    /// below the horizon's bucket in ring order, then the part of the
    /// horizon's own bucket below it. One compare if the horizon stayed.
    #[inline]
    fn release(&mut self, horizon: u64) {
        if horizon <= self.low {
            return;
        }
        let last = horizon >> self.shift;
        let mut b = self.low >> self.shift;
        while b < last && self.buffered > 0 {
            self.drain(b, None);
            b += 1;
        }
        if self.shift > 0 && self.buffered > 0 {
            self.drain(last, Some(horizon));
        }
        self.low = horizon;
    }

    /// Stages bucket `b`'s events with `time < limit` (all for `None`) in
    /// release order, keeping the rest; a disordered bucket is sorted in
    /// place first. An emptied bucket keeps its `RING_SPARE_CAP` share.
    fn drain(&mut self, b: u64, limit: Option<u64>) {
        let cap = RING_SPARE_CAP / self.ring.len();
        let mask = self.ring.len() - 1;
        let bucket = &mut self.ring[b as usize & mask];
        if bucket.disordered {
            let order = bucket.release_order();
            *bucket = Bucket {
                times: order.iter().map(|&i| bucket.times[i]).collect(),
                keys: order.iter().map(|&i| bucket.keys[i]).collect(),
                values: order.iter().map(|&i| bucket.values[i]).collect(),
                disordered: false,
            };
        }
        let n = bucket.times.len();
        let p = limit.map_or(n, |l| bucket.times.partition_point(|&t| t < l));
        if p == 0 {
            return;
        }
        self.staged
            .extend_from_columns(&bucket.times[..p], &bucket.keys[..p], &bucket.values[..p]);
        self.released_watermark = self.released_watermark.max(bucket.times[p - 1]);
        self.buffered -= p;
        if p < n {
            bucket.times.drain(..p);
            bucket.keys.drain(..p);
            bucket.values.drain(..p);
            return;
        }
        bucket.times.clear();
        bucket.keys.clear();
        bucket.values.clear();
        if bucket.times.capacity() > cap {
            bucket.times.shrink_to(cap);
            bucket.keys.shrink_to(cap);
            bucket.values.shrink_to(cap);
        }
    }

    /// Processes a watermark announcement: no event with
    /// `time < watermark` will be pushed any more, so every buffered event
    /// before `watermark` is staged in timestamp order, and later arrivals
    /// behind it become hard errors.
    pub fn advance_to(&mut self, watermark: u64) {
        self.high_watermark = self
            .high_watermark
            .max(watermark.saturating_add(self.slack));
        self.release(self.high_watermark.saturating_sub(self.slack));
    }

    /// Stages everything still buffered, in order (end of stream).
    pub fn flush(&mut self) {
        let mut b = self.low >> self.shift;
        while self.buffered > 0 {
            self.drain(b, None);
            b = b.wrapping_add(1);
        }
    }

    /// Captures the buffer's full state for a checkpoint: buffered events
    /// in deterministic `(time, arrival)` release order plus the
    /// watermarks. The staged batch is always empty between pipeline
    /// operations (every push/advance drains it into the operators), so
    /// it is not part of the image.
    pub(crate) fn image(&self) -> crate::checkpoint::ReorderImage {
        debug_assert!(
            self.staged.is_empty(),
            "staged events must be fed before a checkpoint"
        );
        let mask = self.ring.len() - 1;
        let mut entries = Vec::with_capacity(self.buffered);
        let mut b = self.low >> self.shift;
        while entries.len() < self.buffered {
            let bucket = &self.ring[b as usize & mask];
            entries.extend(
                bucket
                    .release_order()
                    .into_iter()
                    .map(|i| (bucket.times[i], bucket.keys[i], bucket.values[i].to_bits())),
            );
            b = b.wrapping_add(1);
        }
        crate::checkpoint::ReorderImage {
            slack: self.slack,
            high: self.high_watermark,
            released: self.released_watermark,
            entries,
        }
    }

    /// Rebuilds a buffer from a checkpoint image. Entries re-enter in
    /// slice order, which *is* the original release order — equal-timestamp
    /// arrival order survives the round trip.
    ///
    /// The ring is sized for the span the image actually covers, not just
    /// the slack: a merged shard image carries the minimum `high` over its
    /// shards while its entries reach up to the largest shard's.
    pub(crate) fn from_image(image: &crate::checkpoint::ReorderImage) -> Self {
        let horizon = image.high.saturating_sub(image.slack);
        let low = image.entries.iter().fold(horizon, |lo, e| lo.min(e.0));
        let top = image.entries.iter().fold(image.high, |hi, e| hi.max(e.0));
        let mut buffer = Self::spanning(image.slack, image.slack.max(top - low));
        buffer.high_watermark = image.high;
        buffer.released_watermark = image.released;
        buffer.low = low;
        for &(time, key, bits) in &image.entries {
            buffer.insert(time, key, f64::from_bits(bits));
        }
        buffer
    }

    /// Convenience: reorders a whole slice, erroring on events more than
    /// `slack` behind the running maximum.
    pub fn reorder(slack: u64, events: &[Event]) -> Result<Vec<Event>> {
        let mut buffer = ReorderBuffer::new(slack);
        let mut out = Vec::with_capacity(events.len());
        for &event in events {
            buffer.push(event)?;
        }
        buffer.flush();
        out.extend(buffer.staged().iter());
        buffer.clear_staged();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::ReorderImage;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The reorder buffer as it was before the ring: a min-heap keyed by
    /// `(time, arrival sequence)`. Kept as the differential oracle — its
    /// release order is the specification the ring must reproduce.
    struct HeapBuffer {
        slack: u64,
        heap: BinaryHeap<Reverse<(u64, u64, u32, u64)>>,
        high_watermark: u64,
        released_watermark: u64,
        seq: u64,
        staged: Vec<(u64, u32, u64)>,
    }

    impl HeapBuffer {
        fn new(slack: u64) -> Self {
            HeapBuffer {
                slack,
                heap: BinaryHeap::new(),
                high_watermark: 0,
                released_watermark: 0,
                seq: 0,
                staged: Vec::new(),
            }
        }

        fn push(&mut self, time: u64, key: u32, value: f64) -> Result<()> {
            let horizon = self.high_watermark.saturating_sub(self.slack);
            if time < horizon {
                return Err(EngineError::OutOfOrderEvent {
                    at: time,
                    watermark: horizon,
                });
            }
            self.high_watermark = self.high_watermark.max(time);
            self.heap
                .push(Reverse((time, self.seq, key, value.to_bits())));
            self.seq += 1;
            self.release();
            Ok(())
        }

        fn release(&mut self) {
            let release_up_to = self.high_watermark.saturating_sub(self.slack);
            while let Some(Reverse((time, ..))) = self.heap.peek() {
                if *time >= release_up_to {
                    break;
                }
                self.pop();
            }
        }

        fn pop(&mut self) {
            let Reverse((time, _, key, bits)) = self.heap.pop().expect("peeked");
            self.released_watermark = self.released_watermark.max(time);
            self.staged.push((time, key, bits));
        }

        fn advance_to(&mut self, watermark: u64) {
            self.high_watermark = self
                .high_watermark
                .max(watermark.saturating_add(self.slack));
            self.release();
        }

        fn flush(&mut self) {
            while !self.heap.is_empty() {
                self.pop();
            }
        }

        fn image(&self) -> ReorderImage {
            let mut entries: Vec<_> = self.heap.iter().map(|Reverse(e)| *e).collect();
            entries.sort_unstable_by_key(|&(time, seq, _, _)| (time, seq));
            ReorderImage {
                slack: self.slack,
                high: self.high_watermark,
                released: self.released_watermark,
                entries: entries.into_iter().map(|(t, _, k, b)| (t, k, b)).collect(),
            }
        }

        fn from_image(image: &ReorderImage) -> Self {
            let mut buffer = HeapBuffer::new(image.slack);
            buffer.high_watermark = image.high;
            buffer.released_watermark = image.released;
            for &(time, key, bits) in &image.entries {
                buffer.heap.push(Reverse((time, buffer.seq, key, bits)));
                buffer.seq += 1;
            }
            buffer
        }
    }

    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    /// The ring under test next to its heap oracle.
    struct Pair {
        ring: ReorderBuffer,
        heap: HeapBuffer,
    }

    fn image_tuple(image: &ReorderImage) -> (u64, u64, u64, &[(u64, u32, u64)]) {
        (image.slack, image.high, image.released, &image.entries)
    }

    impl Pair {
        fn new(slack: u64) -> Self {
            Pair {
                ring: ReorderBuffer::new(slack),
                heap: HeapBuffer::new(slack),
            }
        }

        fn from_image(image: &ReorderImage) -> Self {
            Pair {
                ring: ReorderBuffer::from_image(image),
                heap: HeapBuffer::from_image(image),
            }
        }

        /// Drains both staged sequences and asserts they, the buffered
        /// counts and the images agree.
        fn check(&mut self, ctx: &str) {
            let ring: Vec<(u64, u32, u64)> = self
                .ring
                .staged()
                .iter()
                .map(|e| (e.time, e.key, e.value.to_bits()))
                .collect();
            self.ring.clear_staged();
            assert_eq!(ring, std::mem::take(&mut self.heap.staged), "{ctx}");
            assert_eq!(self.ring.buffered(), self.heap.heap.len(), "{ctx}");
            let (a, b) = (self.ring.image(), self.heap.image());
            assert_eq!(image_tuple(&a), image_tuple(&b), "{ctx}");
        }

        /// Pushes a batch into both, stopping at the first error.
        fn push_batch(&mut self, batch: &[(u64, u32, f64)], ctx: &str) {
            let ring = batch
                .iter()
                .try_for_each(|&(t, k, v)| self.ring.push_parts(t, k, v));
            let heap = batch
                .iter()
                .try_for_each(|&(t, k, v)| self.heap.push(t, k, v));
            assert_eq!(ring, heap, "{ctx}");
        }
    }

    /// A stream position generator: mostly small steps and repeated
    /// timestamps, sometimes gaps far beyond the slack, with events
    /// lagging the cursor by up to a little more than the slack.
    fn next_event(rng: &mut XorShift, cursor: &mut u64, slack: u64) -> (u64, u32, f64) {
        *cursor = match rng.below(40) {
            0 => cursor.saturating_add(slack.saturating_mul(3) + rng.below(1 << 20)),
            1..=15 => *cursor,
            _ => cursor.saturating_add(rng.below(3)),
        };
        let lag = if rng.below(50) == 0 {
            slack + 1 + rng.below(4)
        } else {
            rng.below(slack + 1)
        };
        let time = cursor.saturating_sub(lag);
        (time, rng.below(8) as u32, f64::from_bits(rng.next()))
    }

    fn slack_for(rng: &mut XorShift, case: u64) -> u64 {
        match case % 4 {
            0 => 1 + rng.below(5),
            1 => [63, 64, 1023, 1024, 1025, 4097][rng.below(6) as usize],
            _ => 1 + rng.below(5000),
        }
    }

    fn base_for(rng: &mut XorShift, case: u64) -> u64 {
        match case % 3 {
            0 => 0,
            1 => rng.below(1 << 40),
            _ => u64::MAX - rng.below(1 << 16),
        }
    }

    /// Runs a random sequence of operations against `pair`, checking after
    /// each one.
    fn drive(pair: &mut Pair, rng: &mut XorShift, cursor: &mut u64, slack: u64, ops: usize) {
        for op in 0..ops {
            let ctx = format!("op {op} slack {slack} cursor {cursor}");
            match rng.below(20) {
                0 => {
                    let w = cursor.saturating_sub(rng.below(2 * slack + 2));
                    pair.ring.advance_to(w);
                    pair.heap.advance_to(w);
                }
                1 => {
                    pair.ring.flush();
                    pair.heap.flush();
                }
                2 => {
                    pair.check(&ctx);
                    *pair = Pair::from_image(&pair.ring.image());
                }
                _ => {
                    let n = 1 + rng.below(64) as usize;
                    let batch: Vec<_> = (0..n).map(|_| next_event(rng, cursor, slack)).collect();
                    pair.push_batch(&batch, &ctx);
                }
            }
            pair.check(&ctx);
        }
    }

    #[test]
    fn ring_matches_the_heap_oracle() {
        for case in 0..240u64 {
            let mut rng = XorShift(0x9E37_79B9_7F4A_7C15 ^ (case + 1));
            let slack = slack_for(&mut rng, case);
            let mut cursor = base_for(&mut rng, case);
            let mut pair = Pair::new(slack);
            drive(&mut pair, &mut rng, &mut cursor, slack, 120);
        }
    }

    #[test]
    fn ring_restores_merged_shard_images_like_the_heap() {
        // Shard images merge as `PipelineImage::merge` does: `high` is the
        // minimum over shards, entries concatenate and stable-sort by time
        // — so entries reach past `high`. Raising `high` to the maximum
        // instead leaves entries more than `slack` below it; both must
        // restore and continue exactly as the heap does.
        for case in 0..120u64 {
            let mut rng = XorShift(0xC0FF_EE00_D15C ^ (case + 1));
            let slack = slack_for(&mut rng, case);
            let base = base_for(&mut rng, case);
            let shards = 2 + rng.below(3) as usize;
            let images: Vec<ReorderImage> = (0..shards)
                .map(|_| {
                    let mut cursor = base.saturating_add(rng.below(4 * slack + 8));
                    let mut pair = Pair::new(slack);
                    drive(&mut pair, &mut rng, &mut cursor, slack, 12);
                    pair.ring.image()
                })
                .collect();
            let mut entries: Vec<_> = images.iter().flat_map(|i| i.entries.clone()).collect();
            entries.sort_by_key(|&(t, _, _)| t);
            let highs = images.iter().map(|i| i.high);
            let merged = ReorderImage {
                slack,
                high: if case % 2 == 0 {
                    highs.min().unwrap()
                } else {
                    highs.max().unwrap()
                },
                released: images.iter().map(|i| i.released).max().unwrap(),
                entries,
            };
            let mut pair = Pair::from_image(&merged);
            pair.check(&format!("restore, case {case}"));
            let mut cursor = merged.high;
            drive(&mut pair, &mut rng, &mut cursor, slack, 40);
        }
    }

    #[test]
    fn geometry_covers_the_span() {
        assert_eq!(geometry(0), (0, 1));
        assert_eq!(geometry(64), (0, 128));
        assert_eq!(geometry(1023), (0, 1024));
        for span in [1024, 1025, 5000, 1 << 40, u64::MAX] {
            let (shift, len) = geometry(span);
            assert!(shift > 0 && len as u64 <= MAX_BUCKETS, "span {span}");
            assert!((span >> shift) + 2 <= len as u64, "span {span}");
        }
    }

    fn ev(t: u64) -> Event {
        Event::new(t, 0, t as f64)
    }

    /// Drains the staged events as rows (test convenience).
    fn take_staged(buffer: &mut ReorderBuffer) -> Vec<Event> {
        let out: Vec<Event> = buffer.staged().iter().collect();
        buffer.clear_staged();
        out
    }

    #[test]
    fn sorted_input_passes_through() {
        let events: Vec<Event> = (0..100).map(ev).collect();
        let out = ReorderBuffer::reorder(5, &events).unwrap();
        assert_eq!(out, events);
    }

    #[test]
    fn bounded_disorder_is_repaired() {
        // Swap pairs: disorder of 1 unit.
        let mut events: Vec<Event> = (0..100).map(ev).collect();
        for pair in events.chunks_mut(2) {
            pair.swap(0, 1);
        }
        let out = ReorderBuffer::reorder(2, &events).unwrap();
        let expect: Vec<Event> = (0..100).map(ev).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn excess_disorder_is_an_error() {
        let events = vec![ev(100), ev(10)];
        let err = ReorderBuffer::reorder(5, &events).unwrap_err();
        assert!(matches!(err, EngineError::OutOfOrderEvent { at: 10, .. }));
    }

    #[test]
    fn equal_timestamps_keep_arrival_order() {
        let events = vec![
            Event::new(5, 0, 1.0),
            Event::new(5, 1, 2.0),
            Event::new(5, 2, 3.0),
            Event::new(20, 0, 4.0),
        ];
        let out = ReorderBuffer::reorder(2, &events).unwrap();
        assert_eq!(out[0].key, 0);
        assert_eq!(out[1].key, 1);
        assert_eq!(out[2].key, 2);
    }

    #[test]
    fn buffer_occupancy_is_bounded_by_slack_times_rate() {
        let mut buffer = ReorderBuffer::new(8);
        let mut out = Vec::new();
        for t in 0..1000u64 {
            buffer.push(ev(t)).unwrap();
            out.extend(take_staged(&mut buffer));
            assert!(buffer.buffered() <= 9, "{} buffered", buffer.buffered());
        }
        buffer.flush();
        out.extend(take_staged(&mut buffer));
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn staged_buffer_is_reused_not_reallocated() {
        // In the steady state the staged columns are cleared, not dropped:
        // after warm-up, repeated release/clear cycles keep one capacity.
        let mut buffer = ReorderBuffer::new(4);
        let mut cap_after_warmup = 0;
        for t in 0..10_000u64 {
            buffer.push(ev(t)).unwrap();
            if t == 100 {
                cap_after_warmup = buffer.staged().capacity();
            }
            buffer.clear_staged();
        }
        assert!(cap_after_warmup > 0);
        assert_eq!(buffer.staged().capacity(), cap_after_warmup);
    }

    #[test]
    fn flush_burst_capacity_is_capped_like_the_spare_pool() {
        // A long stall followed by one watermark releases a burst far
        // bigger than the steady state; neither the drain buffer nor the
        // ring's buckets may pin that memory after it is consumed.
        let ring_capacity = |buffer: &ReorderBuffer| -> usize {
            buffer.ring.iter().map(|b| b.times.capacity()).sum()
        };
        let mut buffer = ReorderBuffer::new(1_000_000);
        for t in 0..200_000u64 {
            buffer.push(ev(t)).unwrap();
        }
        assert!(ring_capacity(&buffer) >= 200_000);
        buffer.advance_to(300_000);
        assert_eq!(buffer.staged().len(), 200_000);
        buffer.clear_staged();
        assert!(
            buffer.staged().capacity() <= crate::batch::BATCH_SPARE_CAP,
            "{} capacity retained",
            buffer.staged().capacity()
        );
        assert!(
            ring_capacity(&buffer) <= RING_SPARE_CAP,
            "{} bucket capacity retained",
            ring_capacity(&buffer)
        );
    }

    #[test]
    fn reordered_stream_executes_identically() {
        use fw_core::prelude::*;
        // End to end: shuffle within slack, repair, run, compare.
        let windows = WindowSet::new(vec![Window::tumbling(10).unwrap()]).unwrap();
        let query = WindowQuery::new(windows, AggregateFunction::Sum);
        let plan = fw_core::rewrite::original_plan(&query);

        let ordered: Vec<Event> = (0..500)
            .map(|t| Event::new(t, 0, ((t * 7) % 23) as f64))
            .collect();
        let mut jittered = ordered.clone();
        for chunk in jittered.chunks_mut(3) {
            chunk.reverse();
        }
        // The jittered stream itself is rejected...
        let opts = crate::executor::PipelineOptions::collecting();
        assert!(crate::executor::PlanPipeline::run(&plan, &jittered, opts).is_err());
        // ...but repairs losslessly through the buffer.
        let repaired = ReorderBuffer::reorder(4, &jittered).unwrap();
        let a = crate::executor::PlanPipeline::run(&plan, &ordered, opts).unwrap();
        let b = crate::executor::PlanPipeline::run(&plan, &repaired, opts).unwrap();
        assert_eq!(
            crate::event::sorted_results(a.results),
            crate::event::sorted_results(b.results)
        );
    }

    #[test]
    fn watermark_announcement_releases_early() {
        let mut buffer = ReorderBuffer::new(100);
        buffer.push(ev(3)).unwrap();
        buffer.push(ev(1)).unwrap();
        buffer.push(ev(7)).unwrap();
        // Well within slack: nothing released yet.
        assert!(buffer.staged().is_empty());
        buffer.advance_to(5);
        assert_eq!(buffer.staged().times(), &[1, 3]);
        // An arrival behind the announced watermark is now a hard error.
        let err = buffer.push(ev(2)).unwrap_err();
        assert!(matches!(err, EngineError::OutOfOrderEvent { at: 2, .. }));
        // At or past the watermark is still fine.
        buffer.push(ev(5)).unwrap();
        buffer.flush();
        assert_eq!(buffer.staged().times(), &[1, 3, 5, 7]);
    }
}
