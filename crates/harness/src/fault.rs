//! Fault injection for the durability layer: deterministic
//! checkpoint → kill → restore → replay cycles checked bit-for-bit
//! against an uninterrupted oracle.
//!
//! A [`CrashCycle`] drives one [`factor_windows::Session`] over a fixed
//! event slice with a fixed batch size and watermark cadence. Killing
//! the pipeline at any [`KillPoint`] and replaying the stream suffix
//! from the checkpoint's replay cursor must reproduce the oracle's
//! result set exactly — same rows, same `f64` bit patterns, nothing
//! emitted twice, nothing skipped. Cost-model accounting is *not*
//! compared: a restored pipeline re-merges accumulators, so its
//! `combines` count legitimately differs from the oracle's.

use factor_windows::{ApiResult, Pipeline, Session};
use fw_engine::{Event, WindowResult};

/// Where the simulated crash lands relative to the stream structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// Right after a watermark advance sealed a window boundary: the
    /// snapshot holds freshly-sealed state and drained results.
    AfterSeal,
    /// Mid-batch, with no watermark in sight: the snapshot holds open
    /// panes and (under disorder) a populated reorder buffer.
    MidBatch,
    /// After the checkpoint but before the client acknowledged the
    /// events that followed it: the killed pipeline processed extra
    /// events whose results are lost with the crash, and the replay
    /// must regenerate them exactly once.
    BetweenCheckpointAndAck,
}

impl KillPoint {
    /// Every kill point, for matrix tests.
    pub const ALL: [KillPoint; 3] = [
        KillPoint::AfterSeal,
        KillPoint::MidBatch,
        KillPoint::BetweenCheckpointAndAck,
    ];
}

/// What a crash cycle delivered end to end.
#[derive(Debug, Clone)]
pub struct CrashOutcome {
    /// The union of results delivered before the kill and results
    /// replayed after the restore.
    pub results: Vec<WindowResult>,
    /// Size of the snapshot the cycle recovered from.
    pub checkpoint_bytes: usize,
    /// Event index the checkpoint was taken at (the replay cursor).
    pub cut: usize,
}

/// A deterministic crash-recovery driver over one session and event
/// slice; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct CrashCycle<'a> {
    session: &'a Session,
    events: &'a [Event],
    batch: usize,
    watermark_every: u64,
    disorder: u64,
}

impl<'a> CrashCycle<'a> {
    /// A cycle feeding `events` through `session` in `batch`-sized
    /// pushes, announcing a watermark every `watermark_every` events
    /// (trailing the stream maximum by `disorder`, which must match the
    /// session's out-of-order tolerance). The session must collect
    /// results.
    #[must_use]
    pub fn new(
        session: &'a Session,
        events: &'a [Event],
        batch: usize,
        watermark_every: u64,
        disorder: u64,
    ) -> Self {
        CrashCycle {
            session,
            events,
            batch: batch.max(1),
            watermark_every: watermark_every.max(1),
            disorder,
        }
    }

    /// The uninterrupted run: same feed schedule, no kill. The ground
    /// truth every [`Self::run`] outcome is compared against.
    pub fn oracle(&self) -> ApiResult<Vec<WindowResult>> {
        let mut pipeline = self.session.build()?;
        let mut delivered = Vec::new();
        self.feed(&mut pipeline, 0, self.events.len(), &mut delivered)?;
        delivered.extend(pipeline.finish()?.results);
        Ok(delivered)
    }

    /// One checkpoint → kill → restore → replay cycle. Results
    /// delivered before the kill and after the restore are unioned;
    /// the caller compares them (via [`result_bits`]) to the oracle.
    pub fn run(&self, kill: KillPoint) -> ApiResult<CrashOutcome> {
        let n = self.events.len();
        let cut = self.cut_index(kill, n);
        let mut pipeline = self.session.build()?;
        let mut delivered = Vec::new();
        self.feed(&mut pipeline, 0, cut, &mut delivered)?;
        if kill == KillPoint::AfterSeal {
            // Seal the boundary the cut is aligned to before snapshotting.
            self.announce(&mut pipeline, cut)?;
        }
        delivered.extend(pipeline.poll_results());
        let mut snapshot = Vec::new();
        pipeline.checkpoint(&mut snapshot)?;
        assert_eq!(
            pipeline.events_processed(),
            cut as u64,
            "the checkpoint's replay cursor must equal the fed prefix"
        );
        if kill == KillPoint::BetweenCheckpointAndAck {
            // The doomed pipeline keeps going past the snapshot; its
            // output is never acknowledged and dies with it.
            let unacked_end = (cut + self.batch).min(n);
            pipeline.push_batch(&self.events[cut..unacked_end])?;
            let _ = pipeline.poll_results();
        }
        drop(pipeline); // the kill

        let mut replica = self.session.restore(&mut snapshot.as_slice())?;
        self.feed(&mut replica, cut, n, &mut delivered)?;
        delivered.extend(replica.finish()?.results);
        Ok(CrashOutcome {
            results: delivered,
            checkpoint_bytes: snapshot.len(),
            cut,
        })
    }

    /// The event index the checkpoint lands on for `kill`.
    fn cut_index(&self, kill: KillPoint, n: usize) -> usize {
        let every = self.watermark_every as usize;
        match kill {
            // Aligned to a watermark boundary near the middle.
            KillPoint::AfterSeal => ((n / 2) / every * every).clamp(every.min(n), n),
            // Deliberately unaligned with both batch and watermark.
            KillPoint::MidBatch => (n / 2 + self.batch / 2 + 1).min(n.saturating_sub(1)),
            // Aligned like AfterSeal; the un-acked tail follows.
            KillPoint::BetweenCheckpointAndAck => ((n / 2) / every * every).clamp(every.min(n), n),
        }
    }

    /// Feeds `events[from..to]` in batch-sized pushes, announcing the
    /// watermark whenever the absolute fed count crosses the cadence,
    /// draining results into `delivered` as they seal.
    fn feed(
        &self,
        pipeline: &mut Pipeline,
        from: usize,
        to: usize,
        delivered: &mut Vec<WindowResult>,
    ) -> ApiResult<()> {
        let every = self.watermark_every as usize;
        let mut i = from;
        while i < to {
            let end = (i + self.batch).min(to);
            pipeline.push_batch(&self.events[i..end])?;
            // Announce at most once per push, at the cadence boundary
            // the chunk crossed (absolute indices, so a replayed suffix
            // reproduces the original schedule exactly).
            if i / every != end / every {
                self.announce(pipeline, end)?;
            }
            delivered.extend(pipeline.poll_results());
            i = end;
        }
        Ok(())
    }

    /// Announces the watermark as of `fed` events: the maximum time
    /// pushed so far, trailing by the disorder bound.
    fn announce(&self, pipeline: &mut Pipeline, fed: usize) -> ApiResult<()> {
        let max_time = self.events[..fed].iter().map(|e| e.time).max().unwrap_or(0);
        pipeline.advance_watermark(max_time.saturating_sub(self.disorder))
    }
}

/// Canonical, bit-exact form of a result set: sorted rows keyed by
/// window, instance, key, and aggregate index, with values as raw
/// `f64` bits — equality means *exactly* the same output, not merely
/// approximately.
#[must_use]
pub fn result_bits(rows: &[WindowResult]) -> Vec<(u64, u64, u64, u32, u32, u64)> {
    let mut bits: Vec<(u64, u64, u64, u32, u32, u64)> = rows
        .iter()
        .map(|r| {
            (
                r.window.range(),
                r.window.slide(),
                r.interval.start,
                r.key,
                r.agg,
                r.value.to_bits(),
            )
        })
        .collect();
    bits.sort_unstable();
    bits
}
