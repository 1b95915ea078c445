//! The length-prefixed binary frame protocol spoken between the serving
//! layer and its clients, plus the versioned binary codecs for
//! [`EventBatch`]es and routed result rows.
//!
//! Every frame on the wire is
//!
//! ```text
//! [len: u32 LE] [kind: u8] [payload: len - 1 bytes]
//! ```
//!
//! where `len` counts the kind byte plus the payload and is capped at
//! [`MAX_FRAME_LEN`]. Integers are little-endian throughout; `f64` values
//! travel as their IEEE-754 bit patterns (`f64::to_bits`), so a round
//! trip is bit-exact — the property the serve equivalence suite pins.
//!
//! The codec is deliberately strict: a decoder rejects truncated frames,
//! unknown kinds, bad magic numbers, unsupported versions, overlong
//! frames, and payloads whose length disagrees with their own element
//! count. Nothing is ever guessed from a malformed frame.

use fw_engine::{EventBatch, GroupResult, TraceEvent, TraceEventKind, WindowResult};
use std::io::{Read, Write};

use fw_core::{Interval, QueryId, Window};

/// Hard cap on one frame's `len` field (kind byte + payload). Frames
/// claiming more are rejected before any allocation.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Magic number opening a serialized [`EventBatch`] (`"FWB1"`).
pub const BATCH_MAGIC: u32 = u32::from_le_bytes(*b"FWB1");

/// Version byte of the [`EventBatch`] codec.
pub const BATCH_VERSION: u8 = 1;

/// Protocol magic carried by `Hello` / `HelloAck` (`"FWS1"`).
pub const PROTOCOL_MAGIC: u32 = u32::from_le_bytes(*b"FWS1");

/// Protocol version negotiated by `Hello` / `HelloAck`.
pub const PROTOCOL_VERSION: u16 = 1;

/// Bytes of one encoded result row: window range + slide, interval start
/// + end (all `u64`), key + aggregate slot (`u32`), value bits (`u64`).
pub const RESULT_ROW_LEN: usize = 8 + 8 + 8 + 8 + 4 + 4 + 8;

/// The most bytes one frame carrying result rows may take on the wire,
/// length prefix included: a seal's rows are split across as many frames
/// as they need ([`Frame::Results`] here, `ROWS` in fw-dist), so no
/// legitimate seal comes near [`MAX_FRAME_LEN`].
pub const ROWS_CHUNK_BYTES: usize = 1 << 20;

/// Rows per [`Frame::Results`] frame: what fits in [`ROWS_CHUNK_BYTES`]
/// after the length prefix, kind byte, query id and row count.
pub const RESULTS_CHUNK_ROWS: usize = (ROWS_CHUNK_BYTES - 4 - 1 - 4 - 4) / RESULT_ROW_LEN;

/// What went wrong while encoding or decoding wire traffic.
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the connection at a clean frame boundary.
    Closed,
    /// An I/O error (including a close mid-frame, surfaced by the OS).
    Io(std::io::Error),
    /// A frame's `len` field was zero or exceeded [`MAX_FRAME_LEN`].
    BadLength {
        /// The offending length.
        len: u32,
    },
    /// The frame kind byte is not part of the protocol.
    UnknownKind {
        /// The offending kind byte.
        kind: u8,
    },
    /// A payload ended before its own structure said it would, or
    /// carried trailing bytes its structure does not account for.
    Truncated {
        /// Which structure was being decoded.
        what: &'static str,
    },
    /// A magic number did not match.
    BadMagic {
        /// The magic that was read.
        found: u32,
        /// The magic that was expected.
        expected: u32,
    },
    /// A version byte/word this build does not speak.
    BadVersion {
        /// The version that was read.
        found: u32,
    },
    /// A string payload was not valid UTF-8.
    BadUtf8,
    /// A decoded window failed [`Window::new`] validation.
    BadWindow {
        /// The window's range.
        range: u64,
        /// The window's slide.
        slide: u64,
    },
    /// A decoded window instance is empty or inverted (`end <= start`).
    BadInterval {
        /// The instance's start.
        start: u64,
        /// The instance's end.
        end: u64,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::BadLength { len } => {
                write!(f, "frame length {len} outside 1..={MAX_FRAME_LEN}")
            }
            WireError::UnknownKind { kind } => write!(f, "unknown frame kind {kind:#04x}"),
            WireError::Truncated { what } => write!(f, "truncated or overlong {what}"),
            WireError::BadMagic { found, expected } => {
                write!(f, "bad magic {found:#010x} (expected {expected:#010x})")
            }
            WireError::BadVersion { found } => write!(f, "unsupported version {found}"),
            WireError::BadUtf8 => write!(f, "payload is not valid utf-8"),
            WireError::BadWindow { range, slide } => {
                write!(f, "invalid window range={range} slide={slide}")
            }
            WireError::BadInterval { start, end } => {
                write!(f, "invalid window instance [{start}, {end})")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Why the server tells a client it is lagging (payload of
/// [`Frame::Lagging`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LagKind {
    /// The shared ingest queue was full; pushed batches were shed.
    IngestShed,
    /// The client's result outbox was full; result rows were dropped.
    ResultsDropped,
}

impl LagKind {
    fn code(self) -> u8 {
        match self {
            LagKind::IngestShed => 0,
            LagKind::ResultsDropped => 1,
        }
    }

    fn from_code(code: u8) -> Result<Self, WireError> {
        match code {
            0 => Ok(LagKind::IngestShed),
            1 => Ok(LagKind::ResultsDropped),
            kind => Err(WireError::UnknownKind { kind }),
        }
    }
}

/// One protocol frame, either direction. Client→server kinds occupy
/// `0x01..=0x0B`, server→client kinds `0x81..=0x8C`.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client hello: protocol magic + version. Must be the first frame.
    Hello {
        /// [`PROTOCOL_MAGIC`].
        magic: u32,
        /// [`PROTOCOL_VERSION`].
        version: u16,
    },
    /// Register one standing query, given as SQL.
    Register {
        /// The query text (one statement).
        sql: String,
    },
    /// Deregister a previously registered query.
    Deregister {
        /// The id returned by [`Frame::Registered`].
        query_id: u32,
    },
    /// Push one columnar event batch.
    PushColumns {
        /// The batch, codec-framed with [`BATCH_MAGIC`].
        batch: EventBatch,
    },
    /// Announce that no event before `watermark` will arrive from this
    /// connection.
    Watermark {
        /// The announced watermark.
        watermark: u64,
    },
    /// Request a metrics snapshot ([`Frame::StatsJson`] reply).
    Stats,
    /// Declare this connection done pushing; the server stops counting
    /// it toward the group watermark and replies [`Frame::Finished`].
    Finish,
    /// Ask the server to take a durable checkpoint now (written to its
    /// configured path, or serialized in memory when none is set).
    /// Replies [`Frame::CheckpointAck`].
    Checkpoint,
    /// Adopt a query restored from a checkpoint that has no owning
    /// connection yet (session resume after a server restart). Replies
    /// [`Frame::ResumeAck`].
    Resume {
        /// The query id from the previous session.
        query_id: u32,
    },
    /// Drain the server's structured trace ring ([`Frame::Trace`] reply).
    TraceReq,
    /// Request a Prometheus text exposition of the server's metrics
    /// ([`Frame::MetricsText`] reply).
    MetricsTextReq,

    /// Server hello ack: the magic + version the server speaks.
    HelloAck {
        /// [`PROTOCOL_MAGIC`].
        magic: u32,
        /// [`PROTOCOL_VERSION`].
        version: u16,
    },
    /// Registration succeeded; the query now has an id.
    Registered {
        /// The new query's id.
        query_id: u32,
    },
    /// Deregistration succeeded.
    Deregistered {
        /// The removed query's id.
        query_id: u32,
    },
    /// Routed results for one registered query.
    Results {
        /// The subscribing query.
        query_id: u32,
        /// The sealed rows.
        rows: Vec<WindowResult>,
    },
    /// Explicit load-shedding notice: `count` items were dropped since
    /// the previous notice of this kind.
    Lagging {
        /// What was shed.
        kind: LagKind,
        /// How many batches ([`LagKind::IngestShed`]) or rows
        /// ([`LagKind::ResultsDropped`]).
        count: u64,
    },
    /// A request failed; the connection stays usable.
    Error {
        /// Machine-readable error class (see `error_code` constants).
        code: u8,
        /// Human-readable description.
        message: String,
    },
    /// Metrics snapshot, rendered by `fw_core::json`.
    StatsJson {
        /// The snapshot as a JSON object string.
        json: String,
    },
    /// Reply to [`Frame::Finish`]: this connection's accounting.
    Finished {
        /// Events this connection pushed that reached the engine.
        events: u64,
        /// Result rows delivered to this connection.
        rows: u64,
    },
    /// Reply to [`Frame::Checkpoint`]: the snapshot was taken.
    CheckpointAck {
        /// Size of the serialized snapshot in bytes.
        bytes: u64,
    },
    /// Reply to [`Frame::TraceReq`]: the ring's buffered events, oldest
    /// first. Draining is destructive — each event is delivered to
    /// exactly one requester.
    Trace {
        /// Events overwritten (lost) before this drain; gaps in `seq`
        /// across replies account for exactly this many events.
        dropped: u64,
        /// The drained events.
        events: Vec<TraceEvent>,
    },
    /// Reply to [`Frame::MetricsTextReq`]: the exposition page.
    MetricsText {
        /// Prometheus text format (version 0.0.4), UTF-8.
        text: String,
    },
    /// Reply to [`Frame::Resume`]: the caller now owns the query.
    ResumeAck {
        /// Events the resumed query's previous session had ingested at
        /// checkpoint time (the client's replay cursor).
        events: u64,
        /// The group watermark after restore.
        watermark: u64,
    },
}

/// Error classes carried by [`Frame::Error`].
pub mod error_code {
    /// The frame violated the protocol state machine.
    pub const PROTOCOL: u8 = 1;
    /// SQL failed to parse.
    pub const PARSE: u8 = 2;
    /// The optimizer or engine rejected the request.
    pub const ENGINE: u8 = 3;
    /// The query id is not registered (or not owned by this connection).
    pub const UNKNOWN_QUERY: u8 = 4;
}

const KIND_HELLO: u8 = 0x01;
const KIND_REGISTER: u8 = 0x02;
const KIND_DEREGISTER: u8 = 0x03;
/// Wire kind byte of [`Frame::PushColumns`] — public so the columnar
/// fast path ([`FrameWriter::write_columns`]) can emit the frame without
/// materializing an [`EventBatch`].
pub const KIND_PUSH_COLUMNS: u8 = 0x04;
const KIND_WATERMARK: u8 = 0x05;
const KIND_STATS: u8 = 0x06;
const KIND_FINISH: u8 = 0x07;
const KIND_CHECKPOINT: u8 = 0x08;
const KIND_RESUME: u8 = 0x09;
const KIND_TRACE_REQ: u8 = 0x0A;
const KIND_METRICS_TEXT_REQ: u8 = 0x0B;
const KIND_HELLO_ACK: u8 = 0x81;
const KIND_REGISTERED: u8 = 0x82;
const KIND_DEREGISTERED: u8 = 0x83;
const KIND_RESULTS: u8 = 0x84;
const KIND_LAGGING: u8 = 0x85;
const KIND_ERROR: u8 = 0x86;
const KIND_STATS_JSON: u8 = 0x87;
const KIND_FINISHED: u8 = 0x88;
const KIND_CHECKPOINT_ACK: u8 = 0x89;
const KIND_RESUME_ACK: u8 = 0x8A;
const KIND_TRACE: u8 = 0x8B;
const KIND_METRICS_TEXT: u8 = 0x8C;

/// Bytes of one encoded trace event: seq + micros (`u64`), kind (`u8`),
/// two payload words (`u64`).
const TRACE_EVENT_LEN: usize = 8 + 8 + 1 + 8 + 8;

fn trace_kind_code(kind: TraceEventKind) -> u8 {
    match kind {
        TraceEventKind::Seal => 0,
        TraceEventKind::Replan => 1,
        TraceEventKind::Rebuild => 2,
        TraceEventKind::Checkpoint => 3,
        TraceEventKind::Compaction => 4,
        TraceEventKind::Shed => 5,
        TraceEventKind::Resume => 6,
        TraceEventKind::Register => 7,
        TraceEventKind::Deregister => 8,
    }
}

fn trace_kind_from_code(code: u8) -> Result<TraceEventKind, WireError> {
    Ok(match code {
        0 => TraceEventKind::Seal,
        1 => TraceEventKind::Replan,
        2 => TraceEventKind::Rebuild,
        3 => TraceEventKind::Checkpoint,
        4 => TraceEventKind::Compaction,
        5 => TraceEventKind::Shed,
        6 => TraceEventKind::Resume,
        7 => TraceEventKind::Register,
        8 => TraceEventKind::Deregister,
        kind => return Err(WireError::UnknownKind { kind }),
    })
}

impl Frame {
    /// The frame's kind byte on the wire.
    #[must_use]
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => KIND_HELLO,
            Frame::Register { .. } => KIND_REGISTER,
            Frame::Deregister { .. } => KIND_DEREGISTER,
            Frame::PushColumns { .. } => KIND_PUSH_COLUMNS,
            Frame::Watermark { .. } => KIND_WATERMARK,
            Frame::Stats => KIND_STATS,
            Frame::Finish => KIND_FINISH,
            Frame::Checkpoint => KIND_CHECKPOINT,
            Frame::Resume { .. } => KIND_RESUME,
            Frame::TraceReq => KIND_TRACE_REQ,
            Frame::MetricsTextReq => KIND_METRICS_TEXT_REQ,
            Frame::HelloAck { .. } => KIND_HELLO_ACK,
            Frame::Registered { .. } => KIND_REGISTERED,
            Frame::Deregistered { .. } => KIND_DEREGISTERED,
            Frame::Results { .. } => KIND_RESULTS,
            Frame::Lagging { .. } => KIND_LAGGING,
            Frame::Error { .. } => KIND_ERROR,
            Frame::StatsJson { .. } => KIND_STATS_JSON,
            Frame::Finished { .. } => KIND_FINISHED,
            Frame::CheckpointAck { .. } => KIND_CHECKPOINT_ACK,
            Frame::ResumeAck { .. } => KIND_RESUME_ACK,
            Frame::Trace { .. } => KIND_TRACE,
            Frame::MetricsText { .. } => KIND_METRICS_TEXT,
        }
    }

    /// A canonical [`Frame::Hello`] for this build.
    #[must_use]
    pub fn hello() -> Frame {
        Frame::Hello {
            magic: PROTOCOL_MAGIC,
            version: PROTOCOL_VERSION,
        }
    }

    /// Encodes the frame (length prefix included) onto `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let at = buf.len();
        buf.extend_from_slice(&0u32.to_le_bytes()); // patched below
        buf.push(self.kind());
        match self {
            Frame::Hello { magic, version } | Frame::HelloAck { magic, version } => {
                buf.extend_from_slice(&magic.to_le_bytes());
                buf.extend_from_slice(&version.to_le_bytes());
            }
            Frame::Register { sql } => buf.extend_from_slice(sql.as_bytes()),
            Frame::Deregister { query_id }
            | Frame::Registered { query_id }
            | Frame::Deregistered { query_id } => {
                buf.extend_from_slice(&query_id.to_le_bytes());
            }
            Frame::PushColumns { batch } => encode_batch(batch, buf),
            Frame::Watermark { watermark } => buf.extend_from_slice(&watermark.to_le_bytes()),
            Frame::Stats
            | Frame::Finish
            | Frame::Checkpoint
            | Frame::TraceReq
            | Frame::MetricsTextReq => {}
            Frame::Resume { query_id } => buf.extend_from_slice(&query_id.to_le_bytes()),
            Frame::Trace { dropped, events } => {
                buf.extend_from_slice(&dropped.to_le_bytes());
                buf.extend_from_slice(&(events.len() as u32).to_le_bytes());
                for ev in events {
                    buf.extend_from_slice(&ev.seq.to_le_bytes());
                    buf.extend_from_slice(&ev.micros.to_le_bytes());
                    buf.push(trace_kind_code(ev.kind));
                    buf.extend_from_slice(&ev.a.to_le_bytes());
                    buf.extend_from_slice(&ev.b.to_le_bytes());
                }
            }
            Frame::MetricsText { text } => buf.extend_from_slice(text.as_bytes()),
            Frame::CheckpointAck { bytes } => buf.extend_from_slice(&bytes.to_le_bytes()),
            Frame::ResumeAck { events, watermark } => {
                buf.extend_from_slice(&events.to_le_bytes());
                buf.extend_from_slice(&watermark.to_le_bytes());
            }
            Frame::Results { query_id, rows } => {
                buf.extend_from_slice(&query_id.to_le_bytes());
                buf.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for row in rows {
                    encode_result_row(row, buf);
                }
            }
            Frame::Lagging { kind, count } => {
                buf.push(kind.code());
                buf.extend_from_slice(&count.to_le_bytes());
            }
            Frame::Error { code, message } => {
                buf.push(*code);
                buf.extend_from_slice(message.as_bytes());
            }
            Frame::StatsJson { json } => buf.extend_from_slice(json.as_bytes()),
            Frame::Finished { events, rows } => {
                buf.extend_from_slice(&events.to_le_bytes());
                buf.extend_from_slice(&rows.to_le_bytes());
            }
        }
        let len = (buf.len() - at - 4) as u32;
        buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Decodes one frame from its kind byte and payload (no length
    /// prefix — [`read_frame`] strips that).
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Frame, WireError> {
        let mut r = Cursor::new(payload);
        let frame = match kind {
            KIND_HELLO | KIND_HELLO_ACK => {
                let magic = r.u32("hello")?;
                let version = r.u16("hello")?;
                if magic != PROTOCOL_MAGIC {
                    return Err(WireError::BadMagic {
                        found: magic,
                        expected: PROTOCOL_MAGIC,
                    });
                }
                if version != PROTOCOL_VERSION {
                    return Err(WireError::BadVersion {
                        found: u32::from(version),
                    });
                }
                if kind == KIND_HELLO {
                    Frame::Hello { magic, version }
                } else {
                    Frame::HelloAck { magic, version }
                }
            }
            KIND_REGISTER => Frame::Register {
                sql: r.utf8_rest()?,
            },
            KIND_DEREGISTER => Frame::Deregister {
                query_id: r.u32("deregister")?,
            },
            KIND_REGISTERED => Frame::Registered {
                query_id: r.u32("registered")?,
            },
            KIND_DEREGISTERED => Frame::Deregistered {
                query_id: r.u32("deregistered")?,
            },
            KIND_PUSH_COLUMNS => Frame::PushColumns {
                batch: decode_batch(&mut r)?,
            },
            KIND_WATERMARK => Frame::Watermark {
                watermark: r.u64("watermark")?,
            },
            KIND_STATS => Frame::Stats,
            KIND_FINISH => Frame::Finish,
            KIND_CHECKPOINT => Frame::Checkpoint,
            KIND_RESUME => Frame::Resume {
                query_id: r.u32("resume")?,
            },
            KIND_TRACE_REQ => Frame::TraceReq,
            KIND_METRICS_TEXT_REQ => Frame::MetricsTextReq,
            KIND_TRACE => {
                let dropped = r.u64("trace")?;
                let n = r.u32("trace")? as usize;
                // Checked: `n` is attacker-controlled.
                if n.checked_mul(TRACE_EVENT_LEN) != Some(r.remaining()) {
                    return Err(WireError::Truncated { what: "trace" });
                }
                let mut events = Vec::with_capacity(n);
                for _ in 0..n {
                    events.push(TraceEvent {
                        seq: r.u64("trace event")?,
                        micros: r.u64("trace event")?,
                        kind: trace_kind_from_code(r.u8("trace event")?)?,
                        a: r.u64("trace event")?,
                        b: r.u64("trace event")?,
                    });
                }
                Frame::Trace { dropped, events }
            }
            KIND_METRICS_TEXT => Frame::MetricsText {
                text: r.utf8_rest()?,
            },
            KIND_CHECKPOINT_ACK => Frame::CheckpointAck {
                bytes: r.u64("checkpoint ack")?,
            },
            KIND_RESUME_ACK => Frame::ResumeAck {
                events: r.u64("resume ack")?,
                watermark: r.u64("resume ack")?,
            },
            KIND_RESULTS => {
                let query_id = r.u32("results")?;
                let n = r.u32("results")? as usize;
                // Checked: `n` is attacker-controlled and the product
                // could wrap on 32-bit targets.
                if n.checked_mul(RESULT_ROW_LEN) != Some(r.remaining()) {
                    return Err(WireError::Truncated { what: "results" });
                }
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push(decode_result_row(&mut r)?);
                }
                Frame::Results { query_id, rows }
            }
            KIND_LAGGING => Frame::Lagging {
                kind: LagKind::from_code(r.u8("lagging")?)?,
                count: r.u64("lagging")?,
            },
            KIND_ERROR => Frame::Error {
                code: r.u8("error")?,
                message: r.utf8_rest()?,
            },
            KIND_STATS_JSON => Frame::StatsJson {
                json: r.utf8_rest()?,
            },
            KIND_FINISHED => Frame::Finished {
                events: r.u64("finished")?,
                rows: r.u64("finished")?,
            },
            kind => return Err(WireError::UnknownKind { kind }),
        };
        if r.remaining() != 0
            && !matches!(
                kind,
                KIND_REGISTER | KIND_ERROR | KIND_STATS_JSON | KIND_METRICS_TEXT
            )
        {
            return Err(WireError::Truncated {
                what: "frame payload",
            });
        }
        Ok(frame)
    }
}

/// Spare capacity cap for the reusable wire buffers ([`FrameWriter`]
/// scratch, [`FrameReader`] body). A buffer grown past this by one
/// outsized frame is shrunk back so a single large registration or
/// results frame does not pin memory for the connection's lifetime.
pub const WIRE_SPARE_CAP: usize = 64 * 1024;

/// A frame encoder with a reusable scratch buffer.
///
/// [`write_frame`] allocates a fresh `Vec` per frame; a `FrameWriter`
/// encodes into the same scratch buffer every time, so a steady-state
/// writer loop performs **zero allocations** per frame (pinned by the
/// serve crate's counting-allocator test). Frames can also be *staged*
/// ([`FrameWriter::stage`]) and flushed together ([`FrameWriter::flush_to`]),
/// coalescing many small Results/Watermark frames into one `write_all`
/// syscall.
#[derive(Debug, Default)]
pub struct FrameWriter {
    scratch: Vec<u8>,
}

impl FrameWriter {
    /// A writer with an empty scratch buffer.
    #[must_use]
    pub fn new() -> Self {
        FrameWriter::default()
    }

    /// Encodes `frame` onto the scratch buffer without writing it.
    /// Staged frames accumulate until [`FrameWriter::flush_to`].
    pub fn stage(&mut self, frame: &Frame) {
        frame.encode(&mut self.scratch);
    }

    /// Stages a raw frame of `kind` whose payload is produced by `build`
    /// appending onto the scratch buffer; the length prefix is
    /// back-patched afterwards. This is the extension point for sibling
    /// protocols (the fw-dist coordinator/worker frames) that reuse the
    /// `[len][kind][payload]` substrate with their own kinds.
    pub fn stage_with(&mut self, kind: u8, build: impl FnOnce(&mut Vec<u8>)) {
        let at = self.scratch.len();
        self.scratch.extend_from_slice(&0u32.to_le_bytes()); // patched below
        self.scratch.push(kind);
        build(&mut self.scratch);
        let len = (self.scratch.len() - at - 4) as u32;
        debug_assert!((1..=MAX_FRAME_LEN).contains(&len));
        self.scratch[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Bytes currently staged and not yet flushed.
    #[must_use]
    pub fn staged(&self) -> usize {
        self.scratch.len()
    }

    /// Writes everything staged to `w` in one `write_all` and clears the
    /// scratch buffer (capping its spare capacity at [`WIRE_SPARE_CAP`]).
    /// A no-op when nothing is staged. The caller flushes `w`.
    pub fn flush_to<W: Write>(&mut self, w: &mut W) -> Result<(), WireError> {
        if !self.scratch.is_empty() {
            w.write_all(&self.scratch)?;
            self.reset_scratch();
        }
        Ok(())
    }

    /// Stages `frame` and flushes immediately: the zero-allocation
    /// equivalent of [`write_frame`]. Any frames already staged are
    /// coalesced into the same write.
    pub fn write<W: Write>(&mut self, w: &mut W, frame: &Frame) -> Result<(), WireError> {
        self.stage(frame);
        self.flush_to(w)
    }

    /// Writes one columnar batch frame of `kind` carrying `times`,
    /// `keys`, and `values` in the [`BATCH_MAGIC`] codec, without
    /// materializing an [`EventBatch`]. On little-endian targets the
    /// three column slices are handed to the OS directly with one
    /// vectored write — only the frame header transits the scratch
    /// buffer, the column payload is never copied. Any frames already
    /// staged are coalesced into the same write. The columns must be of
    /// equal length.
    pub fn write_columns<W: Write>(
        &mut self,
        w: &mut W,
        kind: u8,
        times: &[u64],
        keys: &[u32],
        values: &[f64],
    ) -> Result<(), WireError> {
        assert!(
            times.len() == keys.len() && times.len() == values.len(),
            "column length mismatch"
        );
        let n = times.len();
        let payload = 4 + 1 + 4 + n * (8 + 4 + 8); // batch codec: magic, version, count, columns
        let frame_len = 1 + payload as u64; // kind byte + payload
        if frame_len > u64::from(MAX_FRAME_LEN) {
            return Err(WireError::BadLength {
                len: u32::try_from(frame_len.min(u64::from(u32::MAX))).unwrap_or(u32::MAX),
            });
        }
        self.scratch
            .extend_from_slice(&(frame_len as u32).to_le_bytes());
        self.scratch.push(kind);
        self.scratch.extend_from_slice(&BATCH_MAGIC.to_le_bytes());
        self.scratch.push(BATCH_VERSION);
        self.scratch.extend_from_slice(&(n as u32).to_le_bytes());
        #[cfg(target_endian = "little")]
        {
            write_all_vectored4(
                w,
                [
                    &self.scratch,
                    le::u64_bytes(times),
                    le::u32_bytes(keys),
                    le::f64_bytes(values),
                ],
            )?;
        }
        #[cfg(not(target_endian = "little"))]
        {
            for t in times {
                self.scratch.extend_from_slice(&t.to_le_bytes());
            }
            for k in keys {
                self.scratch.extend_from_slice(&k.to_le_bytes());
            }
            for v in values {
                self.scratch.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            w.write_all(&self.scratch)?;
        }
        self.reset_scratch();
        Ok(())
    }

    fn reset_scratch(&mut self) {
        self.scratch.clear();
        if self.scratch.capacity() > WIRE_SPARE_CAP {
            self.scratch.shrink_to(WIRE_SPARE_CAP);
        }
    }
}

/// Zero-copy reinterpretation of plain-scalar columns as wire bytes.
/// Only valid on little-endian targets, where the in-memory
/// representation of `u64`/`u32`/IEEE-754 `f64` is exactly the codec's
/// little-endian encoding (`f64` travels as its `to_bits` pattern, which
/// shares the float's memory representation).
#[cfg(target_endian = "little")]
mod le {
    /// `&[u64]` viewed as its raw bytes.
    pub(super) fn u64_bytes(s: &[u64]) -> &[u8] {
        // SAFETY: u64 has no padding, size 8, and alignment stricter
        // than u8; the pointer and length cover exactly the slice.
        unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u8>(), std::mem::size_of_val(s)) }
    }

    /// `&[u32]` viewed as its raw bytes.
    pub(super) fn u32_bytes(s: &[u32]) -> &[u8] {
        // SAFETY: as above for u32.
        unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u8>(), std::mem::size_of_val(s)) }
    }

    /// `&[f64]` viewed as its raw bytes (the `to_bits` encoding).
    pub(super) fn f64_bytes(s: &[f64]) -> &[u8] {
        // SAFETY: as above for f64 (no padding; every bit pattern of the
        // underlying bytes is a valid u8).
        unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u8>(), std::mem::size_of_val(s)) }
    }
}

/// `write_all` over up to four buffers using vectored I/O, retrying
/// partial and interrupted writes. Used by the columnar fast path so the
/// frame header (from scratch) and the three borrowed column slices reach
/// the socket in one syscall without being copied into one buffer first.
#[cfg(target_endian = "little")]
fn write_all_vectored4<W: Write>(w: &mut W, bufs: [&[u8]; 4]) -> std::io::Result<()> {
    use std::io::IoSlice;
    let total: usize = bufs.iter().map(|b| b.len()).sum();
    let mut done = 0usize;
    while done < total {
        let mut slices = [IoSlice::new(&[]); 4];
        let mut cnt = 0usize;
        let mut start = 0usize;
        for b in &bufs {
            let end = start + b.len();
            if end > done {
                slices[cnt] = IoSlice::new(&b[done.saturating_sub(start)..]);
                cnt += 1;
            }
            start = end;
        }
        match w.write_vectored(&slices[..cnt]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(k) => done += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A frame decoder with a reusable body buffer.
///
/// [`read_frame`] allocates a fresh `Vec` per frame; a `FrameReader`
/// reads every frame body into the same buffer, so a steady-state reader
/// loop performs **zero allocations** per frame for fixed-size frames,
/// and [`FrameReader::read_raw`] + [`decode_batch_into`] extend that to
/// columnar batches (decode-in-place into a recycled [`EventBatch`]).
#[derive(Debug, Default)]
pub struct FrameReader {
    body: Vec<u8>,
}

impl FrameReader {
    /// A reader with an empty body buffer.
    #[must_use]
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Reads one frame, reusing the internal body buffer. Semantics
    /// match [`read_frame`]: blocks until the frame is complete, a clean
    /// close at a frame boundary is [`WireError::Closed`], a close
    /// mid-frame is [`WireError::Io`]. Decoding still copies owned
    /// payloads (strings, batches); use [`FrameReader::read_raw`] for
    /// the allocation-free path.
    pub fn read<R: Read>(&mut self, r: &mut R) -> Result<Frame, WireError> {
        let (kind, payload) = self.read_raw(r)?;
        Frame::decode(kind, payload)
    }

    /// Reads one frame and returns its raw `(kind, payload)` without
    /// decoding, borrowing from the internal buffer — no allocation once
    /// the buffer is warm. This is the hot-path entry for columnar
    /// batches (pass the payload to [`decode_batch_into`]) and for
    /// sibling protocols with their own frame kinds.
    pub fn read_raw<R: Read>(&mut self, r: &mut R) -> Result<(u8, &[u8]), WireError> {
        let mut len_bytes = [0u8; 4];
        if !read_exact_or_close(r, &mut len_bytes)? {
            return Err(WireError::Closed);
        }
        let len = u32::from_le_bytes(len_bytes);
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(WireError::BadLength { len });
        }
        let len = len as usize;
        self.body.clear();
        if self.body.capacity() > WIRE_SPARE_CAP && len <= WIRE_SPARE_CAP {
            self.body.shrink_to(WIRE_SPARE_CAP);
        }
        self.body.resize(len, 0);
        r.read_exact(&mut self.body)?;
        Ok((self.body[0], &self.body[1..]))
    }

    /// The payload [`FrameReader::read_raw`] last returned (empty before
    /// the first frame), for decoders that consume one payload across
    /// several calls — fw-dist's gather decodes a `ROWS` chunk row by row
    /// as its merge asks for them.
    #[must_use]
    pub fn payload(&self) -> &[u8] {
        self.body.get(1..).unwrap_or(&[])
    }
}

/// Writes one frame to `w` (caller flushes). Allocates a fresh buffer
/// per call — hot loops should hold a [`FrameWriter`] instead.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), WireError> {
    let mut buf = Vec::with_capacity(64);
    frame.encode(&mut buf);
    w.write_all(&buf)?;
    Ok(())
}

/// Reads one frame from `r`, blocking until it is complete. A clean close
/// at a frame boundary is [`WireError::Closed`]; a close mid-frame is
/// [`WireError::Io`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, WireError> {
    let mut len_bytes = [0u8; 4];
    if !read_exact_or_close(r, &mut len_bytes)? {
        return Err(WireError::Closed);
    }
    let len = u32::from_le_bytes(len_bytes);
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(WireError::BadLength { len });
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Frame::decode(body[0], &body[1..])
}

/// Like `read_exact`, but distinguishes "closed before the first byte"
/// (returns `Ok(false)`) from "closed mid-buffer" (an error).
fn read_exact_or_close<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<bool, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(WireError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(true)
}

/// Encodes an [`EventBatch`] with its versioned magic header.
pub fn encode_batch(batch: &EventBatch, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&BATCH_MAGIC.to_le_bytes());
    buf.push(BATCH_VERSION);
    buf.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    let (times, keys, values) = batch.columns();
    for t in times {
        buf.extend_from_slice(&t.to_le_bytes());
    }
    for k in keys {
        buf.extend_from_slice(&k.to_le_bytes());
    }
    for v in values {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

fn decode_batch(r: &mut Cursor<'_>) -> Result<EventBatch, WireError> {
    let mut batch = EventBatch::new();
    decode_batch_cursor(r, &mut batch)?;
    Ok(batch)
}

/// Decodes a [`BATCH_MAGIC`]-framed payload **in place** into `batch`
/// (cleared first). The column slices are read straight out of
/// `payload`; once `batch` has warm capacity (it recycles up to
/// [`fw_engine::BATCH_SPARE_CAP`] events across [`EventBatch::clear`])
/// the decode performs zero allocations — the receive half of the wire
/// hot path. The payload must contain exactly one batch.
pub fn decode_batch_into(payload: &[u8], batch: &mut EventBatch) -> Result<(), WireError> {
    let mut r = Cursor::new(payload);
    decode_batch_cursor(&mut r, batch)
}

fn decode_batch_cursor(r: &mut Cursor<'_>, batch: &mut EventBatch) -> Result<(), WireError> {
    batch.clear();
    let magic = r.u32("batch header")?;
    if magic != BATCH_MAGIC {
        return Err(WireError::BadMagic {
            found: magic,
            expected: BATCH_MAGIC,
        });
    }
    let version = r.u8("batch header")?;
    if version != BATCH_VERSION {
        return Err(WireError::BadVersion {
            found: u32::from(version),
        });
    }
    let n = r.u32("batch header")? as usize;
    if n.checked_mul(8 + 4 + 8) != Some(r.remaining()) {
        return Err(WireError::Truncated {
            what: "batch columns",
        });
    }
    let times = r.take(n * 8, "batch times")?;
    let keys = r.take(n * 4, "batch keys")?;
    let values = r.take(n * 8, "batch values")?;
    for i in 0..n {
        let time = u64::from_le_bytes(times[i * 8..i * 8 + 8].try_into().unwrap());
        let key = u32::from_le_bytes(keys[i * 4..i * 4 + 4].try_into().unwrap());
        let value = f64::from_bits(u64::from_le_bytes(
            values[i * 8..i * 8 + 8].try_into().unwrap(),
        ));
        batch.push_parts(time, key, value);
    }
    Ok(())
}

/// Encodes one [`RESULT_ROW_LEN`]-byte result row. Public for sibling
/// protocols (fw-dist) that gather rows in the same codec.
pub fn encode_result_row(row: &WindowResult, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&row.window.range().to_le_bytes());
    buf.extend_from_slice(&row.window.slide().to_le_bytes());
    buf.extend_from_slice(&row.interval.start.to_le_bytes());
    buf.extend_from_slice(&row.interval.end.to_le_bytes());
    buf.extend_from_slice(&row.key.to_le_bytes());
    buf.extend_from_slice(&row.agg.to_le_bytes());
    buf.extend_from_slice(&row.value.to_bits().to_le_bytes());
}

/// Decodes one [`RESULT_ROW_LEN`]-byte result row. Public for sibling
/// protocols (fw-dist) that gather rows in the same codec.
pub fn decode_result_row(r: &mut Cursor<'_>) -> Result<WindowResult, WireError> {
    let range = r.u64("result row")?;
    let slide = r.u64("result row")?;
    let start = r.u64("result row")?;
    let end = r.u64("result row")?;
    let key = r.u32("result row")?;
    let agg = r.u32("result row")?;
    let value = f64::from_bits(r.u64("result row")?);
    let window = Window::new(range, slide).map_err(|_| WireError::BadWindow { range, slide })?;
    if end <= start {
        return Err(WireError::BadInterval { start, end });
    }
    Ok(WindowResult {
        window,
        interval: Interval::new(start, end),
        key,
        agg,
        value,
    })
}

/// Tags `rows` with `query_id`, reconstructing the [`GroupResult`]s a
/// [`Frame::Results`] frame carried.
#[must_use]
pub fn tag_rows(query_id: u32, rows: Vec<WindowResult>) -> Vec<GroupResult> {
    rows.into_iter()
        .map(|result| GroupResult {
            query: QueryId(query_id),
            result,
        })
        .collect()
}

/// A bounds-checked little-endian payload reader. Public so sibling
/// protocols built on the same `[len][kind][payload]` substrate (the
/// fw-dist coordinator/worker frames) can decode their payloads with the
/// same strictness guarantees.
pub struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor over `buf`, positioned at its start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Consumes and returns the next `n` bytes, or
    /// [`WireError::Truncated`] tagged `what` if fewer remain.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { what });
        }
        let slice = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    /// Consumes one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Consumes a little-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    /// Consumes a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Consumes a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Consumes the rest of the payload as a UTF-8 string.
    pub fn utf8_rest(&mut self) -> Result<String, WireError> {
        let rest = &self.buf[self.at..];
        self.at = self.buf.len();
        String::from_utf8(rest.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_engine::Event;

    fn roundtrip(frame: &Frame) -> Frame {
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        let mut cursor = &buf[..];
        read_frame(&mut cursor).expect("roundtrip decode")
    }

    fn sample_rows(n: usize) -> Vec<WindowResult> {
        (0..n)
            .map(|i| WindowResult {
                window: Window::new(40, 10).unwrap(),
                interval: Interval::new(i as u64 * 10, i as u64 * 10 + 40),
                key: i as u32 % 3,
                agg: i as u32 % 2,
                value: (i as f64) * 0.1 - 3.7,
            })
            .collect()
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        let frames = vec![
            Frame::hello(),
            Frame::Register {
                sql: "SELECT k, MIN(v) FROM S GROUP BY k, Windows(Window('w', \
                      TumblingWindow(second, 10)))"
                    .into(),
            },
            Frame::Deregister { query_id: 7 },
            Frame::PushColumns {
                batch: EventBatch::from_events(&[
                    Event::new(1, 0, 1.5),
                    Event::new(2, 1, -0.25),
                    Event::new(5, 2, f64::MIN_POSITIVE),
                ]),
            },
            Frame::Watermark {
                watermark: u64::MAX - 1,
            },
            Frame::Stats,
            Frame::Finish,
            Frame::HelloAck {
                magic: PROTOCOL_MAGIC,
                version: PROTOCOL_VERSION,
            },
            Frame::Registered { query_id: 3 },
            Frame::Deregistered { query_id: 3 },
            Frame::Results {
                query_id: 9,
                rows: sample_rows(5),
            },
            Frame::Lagging {
                kind: LagKind::IngestShed,
                count: 12,
            },
            Frame::Lagging {
                kind: LagKind::ResultsDropped,
                count: 4096,
            },
            Frame::Error {
                code: error_code::PARSE,
                message: "expected ')'".into(),
            },
            Frame::StatsJson {
                json: "{\"events_in\": 10}".into(),
            },
            Frame::Finished {
                events: 10_000,
                rows: 412,
            },
            Frame::Checkpoint,
            Frame::Resume { query_id: 11 },
            Frame::CheckpointAck { bytes: 65_536 },
            Frame::ResumeAck {
                events: 4_096,
                watermark: 3_900,
            },
            Frame::TraceReq,
            Frame::MetricsTextReq,
            Frame::Trace {
                dropped: 3,
                events: vec![
                    TraceEvent {
                        seq: 3,
                        micros: 1_000,
                        kind: TraceEventKind::Seal,
                        a: 40,
                        b: 12,
                    },
                    TraceEvent {
                        seq: 4,
                        micros: 2_500,
                        kind: TraceEventKind::Deregister,
                        a: 7,
                        b: 99,
                    },
                ],
            },
            Frame::Trace {
                dropped: 0,
                events: Vec::new(),
            },
            Frame::MetricsText {
                text: "# TYPE fw_events_in_total counter\nfw_events_in_total 10\n".into(),
            },
        ];
        for frame in &frames {
            assert_eq!(&roundtrip(frame), frame, "{frame:?}");
        }
    }

    #[test]
    fn batch_roundtrip_is_bit_exact_across_sizes() {
        // Empty, one element, and a max-run batch at the spare-pool cap.
        for n in [0usize, 1, fw_engine::BATCH_SPARE_CAP] {
            let mut batch = EventBatch::with_capacity(n);
            for i in 0..n {
                batch.push_parts(
                    i as u64 * 3,
                    (i % 17) as u32,
                    f64::from_bits(0x3ff0_0000_0000_0001_u64.wrapping_mul(i as u64 | 1)),
                );
            }
            let decoded = match roundtrip(&Frame::PushColumns {
                batch: batch.clone(),
            }) {
                Frame::PushColumns { batch } => batch,
                other => panic!("expected PushColumns, got {other:?}"),
            };
            assert_eq!(decoded.times(), batch.times());
            assert_eq!(decoded.keys(), batch.keys());
            let bits = |vals: &[f64]| vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(decoded.values()), bits(batch.values()));
        }
    }

    #[test]
    fn result_rows_roundtrip_bit_exact() {
        let rows = vec![
            WindowResult {
                window: Window::tumbling(10).unwrap(),
                interval: Interval::new(0, 10),
                key: 0,
                agg: 0,
                value: f64::NEG_INFINITY,
            },
            WindowResult {
                window: Window::new(60, 20).unwrap(),
                interval: Interval::new(20, 80),
                key: u32::MAX,
                agg: 5,
                value: -0.0,
            },
        ];
        let decoded = match roundtrip(&Frame::Results {
            query_id: 2,
            rows: rows.clone(),
        }) {
            Frame::Results { rows, .. } => rows,
            other => panic!("expected Results, got {other:?}"),
        };
        assert_eq!(decoded.len(), rows.len());
        for (d, r) in decoded.iter().zip(&rows) {
            assert_eq!(d.window, r.window);
            assert_eq!(d.interval, r.interval);
            assert_eq!((d.key, d.agg), (r.key, r.agg));
            assert_eq!(d.value.to_bits(), r.value.to_bits());
        }
        let tagged = tag_rows(2, decoded);
        assert!(tagged.iter().all(|g| g.query == QueryId(2)));
    }

    #[test]
    fn truncated_length_prefix_is_rejected() {
        let mut buf = Vec::new();
        Frame::Watermark { watermark: 99 }.encode(&mut buf);
        // Cut the stream mid-frame: a partial length prefix is a clean
        // close only at offset 0.
        for cut in 1..buf.len() {
            let mut cursor = &buf[..cut];
            let err = read_frame(&mut cursor).unwrap_err();
            assert!(
                matches!(err, WireError::Io(_)),
                "cut at {cut}: expected Io, got {err:?}"
            );
        }
        let mut empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut empty), Err(WireError::Closed)));
    }

    #[test]
    fn zero_and_overlong_frame_lengths_are_rejected() {
        let mut zero = Vec::from(0u32.to_le_bytes());
        zero.push(KIND_STATS);
        let mut cursor = &zero[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::BadLength { len: 0 })
        ));

        let overlong = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        let mut cursor = &overlong[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        // Hello with the wrong magic.
        let mut payload = Vec::new();
        payload.extend_from_slice(&0xdead_beef_u32.to_le_bytes());
        payload.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        assert!(matches!(
            Frame::decode(KIND_HELLO, &payload),
            Err(WireError::BadMagic { .. })
        ));

        // Batch with a corrupted magic, then a future version.
        let mut buf = Vec::new();
        encode_batch(&EventBatch::from_events(&[Event::new(0, 0, 1.0)]), &mut buf);
        let mut bad_magic = buf.clone();
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            Frame::decode(KIND_PUSH_COLUMNS, &bad_magic),
            Err(WireError::BadMagic { .. })
        ));
        let mut bad_version = buf.clone();
        bad_version[4] = BATCH_VERSION + 1;
        assert!(matches!(
            Frame::decode(KIND_PUSH_COLUMNS, &bad_version),
            Err(WireError::BadVersion { .. })
        ));
    }

    #[test]
    fn truncated_and_overlong_payloads_are_rejected() {
        let mut buf = Vec::new();
        encode_batch(
            &EventBatch::from_events(&[Event::new(0, 0, 1.0), Event::new(1, 1, 2.0)]),
            &mut buf,
        );
        // Batch claims 2 events but the columns are cut short.
        assert!(matches!(
            Frame::decode(KIND_PUSH_COLUMNS, &buf[..buf.len() - 3]),
            Err(WireError::Truncated { .. })
        ));
        // Trailing garbage after the columns is equally fatal.
        buf.push(0);
        assert!(matches!(
            Frame::decode(KIND_PUSH_COLUMNS, &buf),
            Err(WireError::Truncated { .. })
        ));
        // A results frame whose row count disagrees with its length.
        let mut results = Vec::new();
        Frame::Results {
            query_id: 1,
            rows: sample_rows(2),
        }
        .encode(&mut results);
        let kind = results[4];
        assert_eq!(kind, KIND_RESULTS);
        assert!(matches!(
            Frame::decode(kind, &results[5..results.len() - 1]),
            Err(WireError::Truncated { .. })
        ));
        // Unknown kind byte.
        assert!(matches!(
            Frame::decode(0x7f, &[]),
            Err(WireError::UnknownKind { kind: 0x7f })
        ));
        // A trace frame whose event count disagrees with its length, and
        // one carrying an unknown event-kind code.
        let mut trace = Vec::new();
        Frame::Trace {
            dropped: 0,
            events: vec![TraceEvent {
                seq: 0,
                micros: 1,
                kind: TraceEventKind::Replan,
                a: 2,
                b: 3,
            }],
        }
        .encode(&mut trace);
        assert_eq!(trace[4], KIND_TRACE);
        assert!(matches!(
            Frame::decode(KIND_TRACE, &trace[5..trace.len() - 1]),
            Err(WireError::Truncated { .. })
        ));
        let kind_at = 5 + 8 + 4 + 8 + 8; // header + dropped + count + seq + micros
        let mut bad_kind = trace[5..].to_vec();
        bad_kind[kind_at - 5] = 0xEE;
        assert!(matches!(
            Frame::decode(KIND_TRACE, &bad_kind),
            Err(WireError::UnknownKind { kind: 0xEE })
        ));
    }

    #[test]
    fn invalid_windows_in_result_rows_are_rejected() {
        let mut buf = Vec::new();
        Frame::Results {
            query_id: 0,
            rows: sample_rows(1),
        }
        .encode(&mut buf);
        // Corrupt the slide field (bytes 8..16 of the row) so it no
        // longer divides the range.
        let row_start = 4 + 1 + 4 + 4;
        buf[row_start + 8..row_start + 16].copy_from_slice(&3u64.to_le_bytes());
        let mut cursor = &buf[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::BadWindow { .. })
        ));
    }
}
