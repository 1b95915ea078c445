//! [`ServeClient`]: a blocking TCP client for the serve frame protocol.
//!
//! The client is single-threaded and request-oriented: control calls
//! ([`ServeClient::register`], [`ServeClient::stats`], …) block until
//! their reply frame arrives, stashing any [`Frame::Results`] and
//! [`Frame::Lagging`] frames that stream past in the meantime; data
//! calls ([`ServeClient::push_batch`], [`ServeClient::watermark`]) are
//! fire-and-forget. Drain stashed results with
//! [`ServeClient::take_results`], and pull in-flight frames without a
//! request via [`ServeClient::poll`].

use crate::metrics::MetricsSnapshot;
use crate::wire::{tag_rows, Frame, FrameReader, FrameWriter, LagKind, KIND_PUSH_COLUMNS};
use crate::ServeError;
use fw_engine::{Event, EventBatch, GroupResult};
use std::io::{BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Bounded exponential backoff for [`ServeClient::connect_with_retry`]:
/// at most `attempts` connection attempts, sleeping a jittered,
/// doubling delay (capped at `cap`) between failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum connection attempts (at least 1).
    pub attempts: u32,
    /// Delay budget before the second attempt; doubles per failure.
    pub base: Duration,
    /// Upper bound on the per-attempt delay budget.
    pub cap: Duration,
    /// Jitter seed — deterministic per client, decorrelated between
    /// clients (seed it differently per connection).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
            seed: 0x5EED,
        }
    }
}

/// A connected protocol client; see the module docs.
pub struct ServeClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Reusable encode scratch: steady-state sends allocate nothing.
    frames_out: FrameWriter,
    /// Reusable frame-body buffer for the read side.
    frames_in: FrameReader,
    results: Vec<GroupResult>,
    ingest_lag: u64,
    results_lag: u64,
}

impl std::fmt::Debug for ServeClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeClient")
            .field("peer", &self.stream.peer_addr().ok())
            .field("stashed_results", &self.results.len())
            .finish_non_exhaustive()
    }
}

impl ServeClient {
    /// Connects and completes the `Hello`/`HelloAck` handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<ServeClient, ServeError> {
        let stream = TcpStream::connect(addr).map_err(crate::wire::WireError::Io)?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone().map_err(crate::wire::WireError::Io)?);
        let writer = stream.try_clone().map_err(crate::wire::WireError::Io)?;
        let mut client = ServeClient {
            stream,
            reader,
            writer,
            frames_out: FrameWriter::new(),
            frames_in: FrameReader::new(),
            results: Vec::new(),
            ingest_lag: 0,
            results_lag: 0,
        };
        client.send(&Frame::hello())?;
        client.wait_for(|f| matches!(f, Frame::HelloAck { .. }))?;
        Ok(client)
    }

    /// [`Self::connect`] with bounded, jittered exponential backoff —
    /// the reconnect path after a server restart. Each failed attempt
    /// sleeps a random delay in `[budget/2, budget]`, then doubles the
    /// budget up to [`RetryPolicy::cap`]; after
    /// [`RetryPolicy::attempts`] failures the last error is returned.
    pub fn connect_with_retry<A: ToSocketAddrs + Clone>(
        addr: A,
        policy: &RetryPolicy,
    ) -> Result<ServeClient, ServeError> {
        let mut rng = fw_workload::SplitMix64::seed_from_u64(policy.seed);
        let mut budget = policy.base.min(policy.cap);
        let attempts = policy.attempts.max(1);
        let mut last = None;
        for attempt in 0..attempts {
            match ServeClient::connect(addr.clone()) {
                Ok(client) => return Ok(client),
                Err(e) => last = Some(e),
            }
            if attempt + 1 < attempts {
                let nanos = budget.as_nanos().min(u128::from(u64::MAX)) as u64;
                let jittered = nanos / 2 + rng.next_u64() % (nanos / 2 + 1);
                std::thread::sleep(Duration::from_nanos(jittered));
                budget = (budget * 2).min(policy.cap);
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// Asks the server to checkpoint the hosted group now; blocks for
    /// the ack and returns the snapshot size in bytes.
    pub fn checkpoint(&mut self) -> Result<u64, ServeError> {
        self.send(&Frame::Checkpoint)?;
        match self.wait_for(|f| matches!(f, Frame::CheckpointAck { .. }))? {
            Frame::CheckpointAck { bytes } => Ok(bytes),
            _ => unreachable!("wait_for returned a non-matching frame"),
        }
    }

    /// Adopts an orphaned query after a server restore, binding it to
    /// this connection. Returns `(events, watermark)`: the replay
    /// cursor (events the snapshot already accounted for this query's
    /// connection) and the restored group watermark.
    pub fn resume(&mut self, query_id: u32) -> Result<(u64, u64), ServeError> {
        self.send(&Frame::Resume { query_id })?;
        match self.wait_for(|f| matches!(f, Frame::ResumeAck { .. }))? {
            Frame::ResumeAck { events, watermark } => Ok((events, watermark)),
            _ => unreachable!("wait_for returned a non-matching frame"),
        }
    }

    /// Registers one SQL query and returns its server-assigned id.
    pub fn register(&mut self, sql: &str) -> Result<u32, ServeError> {
        self.send(&Frame::Register { sql: sql.into() })?;
        match self.wait_for(|f| matches!(f, Frame::Registered { .. }))? {
            Frame::Registered { query_id } => Ok(query_id),
            _ => unreachable!("wait_for returned a non-matching frame"),
        }
    }

    /// Deregisters a query; blocks until the server confirms. Final
    /// sealed results arrive (and are stashed) before the confirmation.
    pub fn deregister(&mut self, query_id: u32) -> Result<(), ServeError> {
        self.send(&Frame::Deregister { query_id })?;
        self.wait_for(|f| matches!(f, Frame::Deregistered { .. }))?;
        Ok(())
    }

    /// Pushes one columnar batch (fire-and-forget).
    pub fn push_batch(&mut self, batch: &EventBatch) -> Result<(), ServeError> {
        self.send(&Frame::PushColumns {
            batch: batch.clone(),
        })
    }

    /// Pushes equal-length timestamp/key/value columns (fire-and-forget)
    /// straight from the caller's slices — the wire hot path: no
    /// [`EventBatch`] is materialized and (on little-endian targets) the
    /// columns go to the socket with one vectored write.
    pub fn push_columns(
        &mut self,
        times: &[u64],
        keys: &[u32],
        values: &[f64],
    ) -> Result<(), ServeError> {
        assert!(
            times.len() == keys.len() && times.len() == values.len(),
            "column length mismatch"
        );
        self.frames_out
            .write_columns(&mut self.writer, KIND_PUSH_COLUMNS, times, keys, values)?;
        Ok(())
    }

    /// Pushes a row-oriented batch (fire-and-forget).
    pub fn push_events(&mut self, events: &[Event]) -> Result<(), ServeError> {
        self.push_batch(&EventBatch::from_events(events))
    }

    /// Announces this connection's watermark (fire-and-forget).
    pub fn watermark(&mut self, watermark: u64) -> Result<(), ServeError> {
        self.send(&Frame::Watermark { watermark })
    }

    /// Requests a metrics snapshot and blocks for the JSON reply.
    /// Because each connection's outbox is FIFO, every result routed to
    /// this client before the server handled the request is stashed by
    /// the time this returns — a convenient flush barrier.
    pub fn stats_json(&mut self) -> Result<String, ServeError> {
        self.send(&Frame::Stats)?;
        match self.wait_for(|f| matches!(f, Frame::StatsJson { .. }))? {
            Frame::StatsJson { json } => Ok(json),
            _ => unreachable!("wait_for returned a non-matching frame"),
        }
    }

    /// [`Self::stats_json`], decoded into a [`MetricsSnapshot`].
    pub fn stats(&mut self) -> Result<MetricsSnapshot, ServeError> {
        let json = self.stats_json()?;
        let value = fw_core::json::parse(&json)
            .map_err(|e| ServeError::Protocol(format!("bad stats json: {e:?}")))?;
        MetricsSnapshot::from_json(&value)
            .ok_or_else(|| ServeError::Protocol("incomplete stats json".into()))
    }

    /// Requests a Prometheus text exposition of the server's metrics
    /// (registry counters, per-plan-node gauges, and the
    /// watermark→result latency histogram) and blocks for the reply.
    pub fn metrics_text(&mut self) -> Result<String, ServeError> {
        self.send(&Frame::MetricsTextReq)?;
        match self.wait_for(|f| matches!(f, Frame::MetricsText { .. }))? {
            Frame::MetricsText { text } => Ok(text),
            _ => unreachable!("wait_for returned a non-matching frame"),
        }
    }

    /// Drains the server's structured trace ring and blocks for the
    /// reply: `(events overwritten before this drain, drained events)`.
    /// Draining is destructive — each event reaches one requester.
    pub fn trace(&mut self) -> Result<(u64, Vec<fw_engine::TraceEvent>), ServeError> {
        self.send(&Frame::TraceReq)?;
        match self.wait_for(|f| matches!(f, Frame::Trace { .. }))? {
            Frame::Trace { dropped, events } => Ok((dropped, events)),
            _ => unreachable!("wait_for returned a non-matching frame"),
        }
    }

    /// Declares this connection done pushing; returns the server's
    /// accounting `(events_ingested, rows_delivered)` for it.
    pub fn finish(&mut self) -> Result<(u64, u64), ServeError> {
        self.send(&Frame::Finish)?;
        match self.wait_for(|f| matches!(f, Frame::Finished { .. }))? {
            Frame::Finished { events, rows } => Ok((events, rows)),
            _ => unreachable!("wait_for returned a non-matching frame"),
        }
    }

    /// Waits at most `wait` for a first frame, then drains every further
    /// frame whose bytes are already buffered or readable without
    /// waiting, and returns as soon as none is. Returns the number of
    /// frames consumed (results and lag notices are stashed, not
    /// returned).
    pub fn poll(&mut self, wait: Duration) -> Result<usize, ServeError> {
        let mut drained = 0;
        let mut wait = Some(wait);
        while self.frame_in_flight(wait.take())? {
            // Finish the frame with blocking reads: the server writes
            // whole frames per flush.
            let frame = self.frames_in.read(&mut self.reader)?;
            self.stash(frame)?;
            drained += 1;
        }
        Ok(drained)
    }

    /// Whether a frame has started to arrive: bytes already buffered, or
    /// readable within `wait` (`None` or zero: without waiting at all).
    /// Peeks without consuming, so the stream stays at a frame boundary,
    /// and leaves the socket blocking with no timeout.
    fn frame_in_flight(&mut self, wait: Option<Duration>) -> Result<bool, ServeError> {
        if !self.reader.buffer().is_empty() {
            return Ok(true);
        }
        let io = crate::wire::WireError::Io;
        match wait.filter(|w| !w.is_zero()) {
            Some(wait) => self.stream.set_read_timeout(Some(wait)).map_err(io)?,
            None => self.stream.set_nonblocking(true).map_err(io)?,
        }
        let peeked = self.reader.fill_buf().map(|buf| !buf.is_empty());
        self.stream.set_nonblocking(false).map_err(io)?;
        self.stream.set_read_timeout(None).map_err(io)?;
        match peeked {
            Ok(ready) => Ok(ready),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(false)
            }
            Err(e) => Err(io(e).into()),
        }
    }

    /// Takes every result stashed so far.
    pub fn take_results(&mut self) -> Vec<GroupResult> {
        std::mem::take(&mut self.results)
    }

    /// Results stashed so far (without taking them).
    #[must_use]
    pub fn results(&self) -> &[GroupResult] {
        &self.results
    }

    /// Accumulated lag notices: `(shed ingest batches, dropped result
    /// rows)` the server reported for this connection.
    #[must_use]
    pub fn lag(&self) -> (u64, u64) {
        (self.ingest_lag, self.results_lag)
    }

    fn send(&mut self, frame: &Frame) -> Result<(), ServeError> {
        self.frames_out.write(&mut self.writer, frame)?;
        Ok(())
    }

    /// Blocks until a frame matching `pred` arrives, stashing streamed
    /// frames on the way. A server [`Frame::Error`] becomes
    /// [`ServeError::Remote`].
    fn wait_for(&mut self, pred: impl Fn(&Frame) -> bool) -> Result<Frame, ServeError> {
        loop {
            let frame = self.frames_in.read(&mut self.reader)?;
            if pred(&frame) {
                return Ok(frame);
            }
            self.stash(frame)?;
        }
    }

    fn stash(&mut self, frame: Frame) -> Result<(), ServeError> {
        match frame {
            Frame::Results { query_id, rows } => {
                self.results.extend(tag_rows(query_id, rows));
            }
            Frame::Lagging { kind, count } => match kind {
                LagKind::IngestShed => self.ingest_lag += count,
                LagKind::ResultsDropped => self.results_lag += count,
            },
            Frame::Error { code, message } => {
                return Err(ServeError::Remote { code, message });
            }
            _ => {} // stray acks are harmless
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_frame, write_frame};
    use fw_core::{Interval, Window};
    use fw_engine::WindowResult;
    use std::net::TcpListener;
    use std::time::Instant;

    /// A peer that completes the handshake, sends `frames`, then holds
    /// the connection open (silent) until the client hangs up.
    fn silent_peer_after(frames: Vec<Frame>) -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            assert!(matches!(read_frame(&mut stream), Ok(Frame::Hello { .. })));
            let ack = Frame::HelloAck {
                magic: crate::wire::PROTOCOL_MAGIC,
                version: crate::wire::PROTOCOL_VERSION,
            };
            write_frame(&mut stream, &ack).unwrap();
            for frame in &frames {
                write_frame(&mut stream, frame).unwrap();
            }
            // Blocks until the client closes.
            let _ = std::io::Read::read(&mut stream, &mut [0u8; 1]);
        });
        addr
    }

    #[test]
    fn poll_returns_a_frame_in_flight_without_sleeping_its_wait() {
        let row = WindowResult {
            window: Window::tumbling(10).unwrap(),
            interval: Interval::new(0, 10),
            key: 1,
            agg: 0,
            value: 2.5,
        };
        let addr = silent_peer_after(vec![Frame::Results {
            query_id: 3,
            rows: vec![row],
        }]);
        let mut client = ServeClient::connect(addr).unwrap();
        let start = Instant::now();
        let drained = client.poll(Duration::from_secs(2)).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(drained, 1);
        assert_eq!(client.results().len(), 1);
        assert!(
            elapsed < Duration::from_millis(200),
            "poll took {elapsed:?}"
        );

        // Nothing in flight: a zero wait returns at once, a short one
        // waits it out, and both leave the connection usable.
        assert_eq!(client.poll(Duration::ZERO).unwrap(), 0);
        let start = Instant::now();
        assert_eq!(client.poll(Duration::from_millis(30)).unwrap(), 0);
        assert!(start.elapsed() >= Duration::from_millis(25));
    }
}
