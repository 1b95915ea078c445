//! Seeded input generation: every stream is a pure function of
//! `(StreamSpec, seed)`.
//!
//! Keys and values live in a bounded pre-generated ring; timestamps are
//! computed on the fly from the event index, so a repetition of any length
//! costs the generator a fixed few megabytes and `peak_rss_mb` measures the
//! program, not its input.

/// Events per pushed columnar batch, on every workload.
pub const BATCH: usize = 4096;

/// Ring length in events (a multiple of [`BATCH`], so a batch never wraps).
const RING: usize = 1 << 20;

/// SplitMix64's output function: the benchmark's one hash/mix primitive.
#[must_use]
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 (the benchmark owns its generator so the inputs cannot drift
/// with the repository's own workload crate).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        let out = mix(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// How keys are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every event carries key 0.
    Single,
    /// Uniform over `0..n`.
    Uniform(u32),
    /// Zipf over `0..n` with exponent 1 (key 0 is the hottest).
    Zipf(u32),
}

/// Samples `0..n` with probability proportional to `1 / (rank + 1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    #[must_use]
    pub fn new(n: u32) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / f64::from(rank + 1);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c <= u);
        rank.min(self.cdf.len() - 1) as u32
    }
}

/// The shape of one workload's input stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSpec {
    pub keys: KeyDist,
    /// Events sharing one timestamp (the cost model's rate η).
    pub events_per_unit: u64,
    /// Bounded disorder in time units: no event trails the running maximum
    /// timestamp by more than this. `0` is an in-order stream.
    pub disorder_units: u64,
    /// A watermark is announced after every this many batches.
    pub watermark_batches: u64,
}

impl StreamSpec {
    /// Events per disorder block: blocks are emitted forwards or reversed,
    /// which bounds how far any event trails the maximum seen.
    fn block(&self) -> u64 {
        self.disorder_units * self.events_per_unit
    }

    /// Events between two watermarks.
    #[must_use]
    pub fn watermark_events(&self) -> u64 {
        self.watermark_batches * BATCH as u64
    }
}

/// A generated stream: the ring plus the rule that turns an event index
/// into a timestamp.
#[derive(Debug, Clone)]
pub struct Stream {
    pub spec: StreamSpec,
    seed: u64,
    keys: Vec<u32>,
    values: Vec<f64>,
}

impl Stream {
    /// Generates the stream of `spec` for `seed`.
    ///
    /// # Panics
    /// If the spec's disorder block does not divide the watermark cadence
    /// (watermarks are only safe on block boundaries), a batch would
    /// straddle a block, or the rate does not divide the cadence
    /// (watermarks must be whole time units).
    #[must_use]
    pub fn generate(spec: StreamSpec, seed: u64) -> Self {
        let cadence = spec.watermark_events();
        assert!(cadence > 0 && cadence.is_multiple_of(spec.events_per_unit));
        assert!(spec.block() == 0 || cadence.is_multiple_of(spec.block()));
        assert!(spec.block().is_multiple_of(BATCH as u64));
        let mut rng = Rng::new(mix(seed));
        let zipf = match spec.keys {
            KeyDist::Zipf(n) => Some(Zipf::new(n)),
            _ => None,
        };
        let keys = (0..RING)
            .map(|_| match spec.keys {
                KeyDist::Single => 0,
                KeyDist::Uniform(n) => (rng.next_u64() % u64::from(n)) as u32,
                KeyDist::Zipf(_) => zipf.as_ref().expect("built above").sample(&mut rng),
            })
            .collect();
        // Quarter steps below 1024: every window sum is exact in an f64, so
        // SUM and AVG are bit-identical whatever order panes are combined in.
        let values = (0..RING)
            .map(|_| (rng.next_u64() % 4096) as f64 * 0.25)
            .collect();
        Stream {
            spec,
            seed,
            keys,
            values,
        }
    }

    /// Whether disorder block `number` is emitted back to front.
    fn reversed(&self, number: u64) -> bool {
        mix(self.seed ^ number.wrapping_mul(0xD1B5_4A32_D192_ED03)) & 1 == 1
    }

    /// The timestamp of the `index`-th emitted event (the definition the
    /// stepped fill in [`Self::batch`] is tested against).
    #[cfg(test)]
    fn time_of(&self, index: u64) -> u64 {
        let block = self.spec.block();
        let origin = if block > 1 && self.reversed(index / block) {
            index / block * block + (block - 1 - index % block)
        } else {
            index
        };
        origin / self.spec.events_per_unit
    }

    /// The columns of batch number `batch`; `times` is the caller's scratch.
    pub fn batch<'a>(
        &'a self,
        batch: u64,
        times: &'a mut Vec<u64>,
    ) -> (&'a [u64], &'a [u32], &'a [f64]) {
        let first = batch * BATCH as u64;
        let (block, rate) = (self.spec.block(), self.spec.events_per_unit);
        times.clear();
        // A batch never straddles a disorder block, so one test covers it.
        // Timestamps are stepped, not divided: at the hot-key workload's
        // rates a division per event would cost as much as the engine.
        if block > 1 && self.reversed(first / block) {
            let origin = first / block * block + (block - 1 - first % block);
            let (mut time, mut left) = (origin / rate, origin % rate);
            for _ in 0..BATCH {
                times.push(time);
                if left == 0 {
                    (time, left) = (time.wrapping_sub(1), rate - 1);
                } else {
                    left -= 1;
                }
            }
        } else {
            let (mut time, mut used) = (first / rate, first % rate);
            for _ in 0..BATCH {
                times.push(time);
                used += 1;
                if used == rate {
                    (time, used) = (time + 1, 0);
                }
            }
        }
        let at = (first % RING as u64) as usize;
        (
            times,
            &self.keys[at..at + BATCH],
            &self.values[at..at + BATCH],
        )
    }

    /// The watermark to announce once `batches` batches are out, if this is
    /// a watermark point: every event still to come is at or after it.
    #[must_use]
    pub fn watermark_after(&self, batches: u64) -> Option<u64> {
        batches
            .is_multiple_of(self.spec.watermark_batches)
            .then(|| batches * BATCH as u64 / self.spec.events_per_unit)
    }

    /// A hash of the first `events` events, for the determinism checks.
    #[must_use]
    pub fn input_hash(&self, events: u64) -> u64 {
        let mut times = Vec::new();
        let mut hash = 0u64;
        for batch in 0..events.div_ceil(BATCH as u64) {
            let (t, k, v) = self.batch(batch, &mut times);
            for i in 0..t.len() {
                hash = mix(hash ^ t[i]) ^ mix(u64::from(k[i]) ^ v[i].to_bits().rotate_left(17));
            }
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_stays_in_bounds_and_is_skewed() {
        let zipf = Zipf::new(1024);
        let mut rng = Rng::new(7);
        let mut counts = vec![0u32; 1024];
        for _ in 0..200_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > 10 * counts[512].max(1));
        assert!(counts[0] > counts[1] && counts[1] > counts[8]);
        assert!(counts.iter().all(|&c| c < 200_000));
    }

    #[test]
    fn disorder_is_bounded_and_watermarks_are_safe() {
        let spec = StreamSpec {
            keys: KeyDist::Uniform(65_536),
            events_per_unit: 256,
            disorder_units: 64,
            watermark_batches: 4,
        };
        let stream = Stream::generate(spec, 3);
        let events = 40 * spec.watermark_events();
        let mut max_seen = 0u64;
        let mut reordered = false;
        for i in 0..events {
            let t = stream.time_of(i);
            assert!(
                t + spec.disorder_units >= max_seen,
                "event {i}: {t} vs {max_seen}"
            );
            reordered |= t < max_seen;
            max_seen = max_seen.max(t);
        }
        assert!(reordered, "the disorder generator never reordered anything");
        for batches in 1..=events / BATCH as u64 {
            if let Some(mark) = stream.watermark_after(batches) {
                let from = batches * BATCH as u64;
                assert!(
                    (from..from + 2 * spec.watermark_events()).all(|i| stream.time_of(i) >= mark)
                );
            }
        }
    }

    #[test]
    fn batches_carry_the_per_event_timestamps() {
        for (events_per_unit, disorder_units) in [(1, 0), (32, 0), (256, 64)] {
            let spec = StreamSpec {
                keys: KeyDist::Single,
                events_per_unit,
                disorder_units,
                watermark_batches: 4,
            };
            let stream = Stream::generate(spec, 9);
            let mut times = Vec::new();
            for batch in 0..24 {
                let (t, _, _) = stream.batch(batch, &mut times);
                for (i, &time) in t.iter().enumerate() {
                    assert_eq!(time, stream.time_of(batch * BATCH as u64 + i as u64));
                }
            }
        }
    }

    #[test]
    fn keys_respect_their_distribution_bounds() {
        for keys in [
            KeyDist::Single,
            KeyDist::Uniform(65_536),
            KeyDist::Zipf(1024),
        ] {
            let spec = StreamSpec {
                keys,
                events_per_unit: 1,
                disorder_units: 0,
                watermark_batches: 1,
            };
            let stream = Stream::generate(spec, 11);
            let bound = match keys {
                KeyDist::Single => 1,
                KeyDist::Uniform(n) | KeyDist::Zipf(n) => n,
            };
            assert!(stream.keys.iter().all(|&k| k < bound));
            assert!(stream.values.iter().all(|&v| (0.0..1024.0).contains(&v)));
        }
    }

    #[test]
    fn same_seed_same_input_other_seed_other_input() {
        let spec = StreamSpec {
            keys: KeyDist::Zipf(1024),
            events_per_unit: 32,
            disorder_units: 0,
            watermark_batches: 4,
        };
        let a = Stream::generate(spec, 5).input_hash(1 << 18);
        assert_eq!(a, Stream::generate(spec, 5).input_hash(1 << 18));
        assert_ne!(a, Stream::generate(spec, 6).input_hash(1 << 18));
    }
}
