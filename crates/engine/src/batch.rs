//! Columnar (structure-of-arrays) event batches.
//!
//! The per-event [`Event`] struct is the right unit for the API surface,
//! but the hot ingestion path wants columns: production engines (Trill's
//! columnar batches; the spilling window-aggregate engine of Shi & Wang,
//! arXiv:2007.10385) amortize per-event dispatch, routing arithmetic, and
//! hash probes over whole batches, and the paper's cost model only tracks
//! measured throughput when that engine bookkeeping stays negligible next
//! to the per-element work the model charges. An [`EventBatch`] holds the
//! three columns (`times`, `keys`, `values`) contiguously; the executor
//! cores consume borrowed column slices directly
//! (`PlanPipeline::push_columns`), split them once into per-instance
//! *runs*, and fold each run per key — see `crates/engine/src/executor.rs`
//! and DESIGN.md §3.8.

use crate::event::Event;

/// When a cleared batch's columns keep more capacity than this many
/// events, they are shrunk back: a one-off burst (a watermark releasing a
/// long-stalled reorder buffer, a giant caller batch) must not pin its
/// high-water memory on a buffer that is reused forever.
pub const BATCH_SPARE_CAP: usize = 4096;

/// A columnar batch of events: structure-of-arrays storage with one `Vec`
/// per field, always of equal length.
///
/// ```
/// use fw_engine::{Event, EventBatch};
///
/// let mut batch = EventBatch::new();
/// batch.push(Event::new(3, 7, 1.5));
/// batch.push_parts(4, 7, 2.5);
/// assert_eq!(batch.len(), 2);
/// assert_eq!(batch.times(), &[3, 4]);
/// assert_eq!(batch.get(1), Event::new(4, 7, 2.5));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventBatch {
    times: Vec<u64>,
    keys: Vec<u32>,
    values: Vec<f64>,
}

impl EventBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        EventBatch::default()
    }

    /// An empty batch with capacity for `capacity` events per column.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventBatch {
            times: Vec::with_capacity(capacity),
            keys: Vec::with_capacity(capacity),
            values: Vec::with_capacity(capacity),
        }
    }

    /// Builds a batch from a row-oriented event slice (one copy per
    /// field).
    #[must_use]
    pub fn from_events(events: &[Event]) -> Self {
        let mut batch = EventBatch::with_capacity(events.len());
        batch.extend_from_events(events);
        batch
    }

    /// Number of events in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the batch holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Per-column capacity currently allocated (the minimum over the three
    /// columns; they only diverge transiently inside `Vec` growth).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.times
            .capacity()
            .min(self.keys.capacity())
            .min(self.values.capacity())
    }

    /// Appends one event.
    #[inline]
    pub fn push(&mut self, event: Event) {
        self.push_parts(event.time, event.key, event.value);
    }

    /// Appends one event given as its three fields (no `Event` struct in
    /// the caller's hot loop).
    #[inline]
    pub fn push_parts(&mut self, time: u64, key: u32, value: f64) {
        self.times.push(time);
        self.keys.push(key);
        self.values.push(value);
    }

    /// Appends a row-oriented event slice.
    pub fn extend_from_events(&mut self, events: &[Event]) {
        self.times.reserve(events.len());
        self.keys.reserve(events.len());
        self.values.reserve(events.len());
        for event in events {
            self.times.push(event.time);
            self.keys.push(event.key);
            self.values.push(event.value);
        }
    }

    /// Appends equally long column slices.
    pub(crate) fn extend_from_columns(&mut self, times: &[u64], keys: &[u32], values: &[f64]) {
        self.times.extend_from_slice(times);
        self.keys.extend_from_slice(keys);
        self.values.extend_from_slice(values);
    }

    /// The timestamp column.
    #[must_use]
    pub fn times(&self) -> &[u64] {
        &self.times
    }

    /// The key column.
    #[must_use]
    pub fn keys(&self) -> &[u32] {
        &self.keys
    }

    /// The value column.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// All three columns at once (convenient for feeding
    /// `push_columns`-shaped APIs).
    #[must_use]
    pub fn columns(&self) -> (&[u64], &[u32], &[f64]) {
        (&self.times, &self.keys, &self.values)
    }

    /// The `i`-th event, rematerialized as a row.
    #[must_use]
    pub fn get(&self, i: usize) -> Event {
        Event::new(self.times[i], self.keys[i], self.values[i])
    }

    /// Iterates the batch as row-oriented events.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.times
            .iter()
            .zip(&self.keys)
            .zip(&self.values)
            .map(|((&time, &key), &value)| Event::new(time, key, value))
    }

    /// Clears the batch, keeping at most [`BATCH_SPARE_CAP`] events of
    /// capacity per column (see the constant for why the cap exists).
    pub fn clear(&mut self) {
        self.times.clear();
        self.keys.clear();
        self.values.clear();
        if self.times.capacity() > BATCH_SPARE_CAP {
            self.times.shrink_to(BATCH_SPARE_CAP);
        }
        if self.keys.capacity() > BATCH_SPARE_CAP {
            self.keys.shrink_to(BATCH_SPARE_CAP);
        }
        if self.values.capacity() > BATCH_SPARE_CAP {
            self.values.shrink_to(BATCH_SPARE_CAP);
        }
    }
}

impl FromIterator<Event> for EventBatch {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Self {
        let mut batch = EventBatch::new();
        for event in iter {
            batch.push(event);
        }
        batch
    }
}

impl From<&[Event]> for EventBatch {
    fn from(events: &[Event]) -> Self {
        EventBatch::from_events(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_rows_and_columns() {
        let events: Vec<Event> = (0..10u64)
            .map(|t| Event::new(t, (t % 3) as u32, t as f64 * 0.5))
            .collect();
        let batch = EventBatch::from_events(&events);
        assert_eq!(batch.len(), 10);
        assert!(!batch.is_empty());
        let back: Vec<Event> = batch.iter().collect();
        assert_eq!(back, events);
        for (i, &e) in events.iter().enumerate() {
            assert_eq!(batch.get(i), e);
        }
        let (times, keys, values) = batch.columns();
        assert_eq!(times.len(), 10);
        assert_eq!(keys.len(), 10);
        assert_eq!(values.len(), 10);
    }

    #[test]
    fn from_iterator_matches_push() {
        let events: Vec<Event> = (0..5u64).map(|t| Event::new(t, 0, 1.0)).collect();
        let a: EventBatch = events.iter().copied().collect();
        let mut b = EventBatch::new();
        for &e in &events {
            b.push(e);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn clear_caps_burst_capacity() {
        let mut batch = EventBatch::new();
        for t in 0..(BATCH_SPARE_CAP as u64 * 4) {
            batch.push_parts(t, 0, 0.0);
        }
        assert!(batch.capacity() > BATCH_SPARE_CAP);
        batch.clear();
        assert!(batch.is_empty());
        assert!(
            batch.capacity() <= BATCH_SPARE_CAP,
            "{} capacity retained",
            batch.capacity()
        );
        // Small buffers keep their capacity for reuse.
        let mut small = EventBatch::with_capacity(64);
        small.push_parts(1, 0, 0.0);
        small.clear();
        assert!(small.capacity() >= 64);
    }
}
