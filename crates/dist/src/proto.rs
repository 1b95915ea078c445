//! The FWD1 coordinator↔worker shard protocol.
//!
//! Frames ride the same `[len: u32 LE][kind: u8][payload]` substrate as
//! the serve protocol (`fw_serve::wire`), reusing its
//! [`FrameWriter`] /
//! [`FrameReader`](fw_serve::wire::FrameReader) scratch buffers, its
//! FWB1 columnar batch codec, and
//! its 48-byte result-row codec — so the zero-allocation hot path is
//! shared, not reimplemented. Kind bytes live in a disjoint space
//! (`0x31..` coordinator→worker, `0xB1..` worker→coordinator).
//!
//! Data frames ([`KIND_BATCH`], [`KIND_WATERMARK`]) are fire-and-forget;
//! everything else is strict request/reply. A worker that hits an engine
//! error replies (or interjects, for data frames) one [`KIND_ERR`] frame
//! carrying enough structure to reconstruct the original
//! [`EngineError`] on the coordinator. Sealed rows answer [`KIND_POLL`]
//! and [`KIND_FINISH`] as one run of [`KIND_ROWS`] chunks in canonical
//! order ([`write_rows`]), each frame at most [`ROWS_CHUNK_BYTES`].

use fw_engine::{EngineError, ExecStats, NodeProfile, PipelineOptions, ProfileLevel, WindowResult};
use fw_serve::wire::{
    encode_result_row, Cursor, FrameWriter, WireError, RESULT_ROW_LEN, ROWS_CHUNK_BYTES,
};
use std::io::Write;

/// Protocol magic carried by `Hello` / `HelloAck` (`"FWD1"`).
pub const DIST_MAGIC: u32 = u32::from_le_bytes(*b"FWD1");

/// Protocol version negotiated by `Hello` / `HelloAck`. Version 2 dropped
/// the compile-path byte from [`Setup`]; version 3 ships result rows as
/// canonically ordered runs of chunked [`KIND_ROWS`] frames, for polls and
/// for [`KIND_FINISH`] alike, and took them out of [`KIND_FINISH_REPLY`].
pub const DIST_VERSION: u16 = 3;

/// Coordinator hello: magic + version; must be the first frame.
pub const KIND_HELLO: u8 = 0x31;
/// Pipeline setup: options + plan JSON + optional snapshot document.
pub const KIND_SETUP: u8 = 0x32;
/// One FWB1 columnar event batch (fire-and-forget).
pub const KIND_BATCH: u8 = 0x33;
/// Watermark broadcast (fire-and-forget).
pub const KIND_WATERMARK: u8 = 0x34;
/// Drain sealed results (a [`KIND_ROWS`] run in reply).
pub const KIND_POLL: u8 = 0x35;
/// Request counters ([`KIND_STATS_REPLY`] reply).
pub const KIND_STATS: u8 = 0x36;
/// Request per-node profiles ([`KIND_PROFILES_REPLY`] reply).
pub const KIND_PROFILES: u8 = 0x37;
/// Live plan swap: watermark + plan JSON ([`KIND_REBUILD_ACK`] reply).
pub const KIND_REBUILD: u8 = 0x38;
/// Export a checkpoint document ([`KIND_IMAGE`] reply).
pub const KIND_EXPORT: u8 = 0x39;
/// Seal and finish: optional seal watermark (a [`KIND_ROWS`] run of the
/// residual rows, then [`KIND_FINISH_REPLY`]).
pub const KIND_FINISH: u8 = 0x3A;

/// Worker hello ack: magic + version.
pub const KIND_HELLO_ACK: u8 = 0xB1;
/// Setup succeeded.
pub const KIND_SETUP_ACK: u8 = 0xB2;
/// One chunk of a run of sealed result rows (see [`encode_rows_chunk`]).
pub const KIND_ROWS: u8 = 0xB5;
/// Counter snapshot.
pub const KIND_STATS_REPLY: u8 = 0xB6;
/// Per-node profiles.
pub const KIND_PROFILES_REPLY: u8 = 0xB7;
/// Rebuild succeeded.
pub const KIND_REBUILD_ACK: u8 = 0xB8;
/// A checkpoint document.
pub const KIND_IMAGE: u8 = 0xB9;
/// Finish accounting (after the residual rows' [`KIND_ROWS`] run).
pub const KIND_FINISH_REPLY: u8 = 0xBA;
/// An engine error (see [`encode_err`] / [`decode_err`]).
pub const KIND_ERR: u8 = 0xBF;

/// `Err` payload class: an [`EngineError::OutOfOrderEvent`].
const ERR_OUT_OF_ORDER: u8 = 1;
/// `Err` payload class: any other engine error, carried as its message.
const ERR_OTHER: u8 = 0;

/// Appends the hello/hello-ack payload (shared by both directions).
pub fn encode_hello(buf: &mut Vec<u8>) {
    buf.extend_from_slice(&DIST_MAGIC.to_le_bytes());
    buf.extend_from_slice(&DIST_VERSION.to_le_bytes());
}

/// Validates a hello/hello-ack payload.
pub fn decode_hello(payload: &[u8]) -> Result<(), WireError> {
    let mut r = Cursor::new(payload);
    let magic = r.u32("dist hello")?;
    if magic != DIST_MAGIC {
        return Err(WireError::BadMagic {
            found: magic,
            expected: DIST_MAGIC,
        });
    }
    let version = r.u16("dist hello")?;
    if version != DIST_VERSION {
        return Err(WireError::BadVersion {
            found: u32::from(version),
        });
    }
    if r.remaining() != 0 {
        return Err(WireError::Truncated { what: "dist hello" });
    }
    Ok(())
}

/// What a worker needs to build (or restore) its shard pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Setup {
    /// The worker's [`PipelineOptions`].
    pub opts: PipelineOptions,
    /// The shared plan, serialized by `fw_core::json`.
    pub plan_json: String,
    /// A full checkpoint document to restore from, if resuming.
    pub snapshot: Option<Vec<u8>>,
}

fn profile_code(level: ProfileLevel) -> u8 {
    match level {
        ProfileLevel::Off => 0,
        ProfileLevel::Counters => 1,
        ProfileLevel::Timed => 2,
    }
}

fn profile_from_code(code: u8) -> Result<ProfileLevel, WireError> {
    Ok(match code {
        0 => ProfileLevel::Off,
        1 => ProfileLevel::Counters,
        2 => ProfileLevel::Timed,
        kind => return Err(WireError::UnknownKind { kind }),
    })
}

/// Appends a [`Setup`] payload.
pub fn encode_setup(setup: &Setup, buf: &mut Vec<u8>) {
    buf.push(u8::from(setup.opts.collect));
    buf.extend_from_slice(&setup.opts.element_work.to_le_bytes());
    buf.extend_from_slice(&setup.opts.out_of_order.to_le_bytes());
    buf.push(profile_code(setup.opts.profile));
    match &setup.snapshot {
        Some(doc) => {
            buf.push(1);
            buf.extend_from_slice(&(doc.len() as u32).to_le_bytes());
            buf.extend_from_slice(doc);
        }
        None => buf.push(0),
    }
    buf.extend_from_slice(setup.plan_json.as_bytes());
}

/// Decodes a [`Setup`] payload.
pub fn decode_setup(payload: &[u8]) -> Result<Setup, WireError> {
    let mut r = Cursor::new(payload);
    let collect = r.u8("dist setup")? != 0;
    let element_work = r.u32("dist setup")?;
    let out_of_order = r.u64("dist setup")?;
    let profile = profile_from_code(r.u8("dist setup")?)?;
    let snapshot = if r.u8("dist setup")? != 0 {
        let len = r.u32("dist setup")? as usize;
        Some(r.take(len, "dist setup snapshot")?.to_vec())
    } else {
        None
    };
    let plan_json = r.utf8_rest()?;
    Ok(Setup {
        opts: PipelineOptions {
            collect,
            element_work,
            out_of_order,
            profile,
        },
        plan_json,
        snapshot,
    })
}

/// [`KIND_ROWS`] flags bit: another chunk of the same run follows.
pub const ROWS_MORE: u8 = 1;

/// Bytes before the first row of a [`KIND_ROWS`] payload: the flags byte
/// and the row count.
pub const ROWS_HEADER_LEN: usize = 1 + 4;

/// Rows per [`KIND_ROWS`] frame: what fits in [`ROWS_CHUNK_BYTES`] after
/// the length prefix, the kind byte and [`ROWS_HEADER_LEN`].
pub const ROWS_CHUNK_ROWS: usize = (ROWS_CHUNK_BYTES - 4 - 1 - ROWS_HEADER_LEN) / RESULT_ROW_LEN;

/// Appends one [`KIND_ROWS`] chunk payload: the flags byte ([`ROWS_MORE`]
/// when `more`), the row count, then `rows[i]` for each `i` in `order`
/// in the 48-byte row codec. Encoding through `order` means a worker
/// never builds a sorted copy of its rows.
pub fn encode_rows_chunk(rows: &[WindowResult], order: &[u32], more: bool, buf: &mut Vec<u8>) {
    buf.reserve(ROWS_HEADER_LEN + order.len() * RESULT_ROW_LEN);
    buf.push(if more { ROWS_MORE } else { 0 });
    buf.extend_from_slice(&(order.len() as u32).to_le_bytes());
    for &i in order {
        encode_result_row(&rows[i as usize], buf);
    }
}

/// Decodes a [`KIND_ROWS`] chunk header into `(more, rows)`, checking
/// that exactly `rows` encoded rows follow it at [`ROWS_HEADER_LEN`].
pub fn decode_rows_header(payload: &[u8]) -> Result<(bool, usize), WireError> {
    let mut r = Cursor::new(payload);
    let more = match r.u8("dist rows flags")? {
        0 => false,
        ROWS_MORE => true,
        _ => {
            return Err(WireError::Truncated {
                what: "dist rows flags",
            })
        }
    };
    let n = r.u32("dist rows")? as usize;
    // Checked: `n` is the peer's claim.
    if n.checked_mul(RESULT_ROW_LEN) != Some(r.remaining()) {
        return Err(WireError::Truncated { what: "dist rows" });
    }
    Ok((more, n))
}

/// Writes `rows`, in the order `order` gives, as one run of [`KIND_ROWS`]
/// frames of at most [`ROWS_CHUNK_ROWS`] rows each, every chunk but the
/// last flagged [`ROWS_MORE`]. Each chunk is flushed as soon as it is
/// encoded, so the reader can merge it while the next one is encoded.
/// An empty run is one empty frame.
pub fn write_rows<W: Write>(
    out: &mut FrameWriter,
    w: &mut W,
    rows: &[WindowResult],
    order: &[u32],
) -> Result<(), WireError> {
    let mut chunks = order.chunks(ROWS_CHUNK_ROWS).peekable();
    loop {
        let chunk = chunks.next().unwrap_or(&[]);
        let more = chunks.peek().is_some();
        out.stage_with(KIND_ROWS, |buf| encode_rows_chunk(rows, chunk, more, buf));
        out.flush_to(w)?;
        if !more {
            return Ok(());
        }
    }
}

/// One worker's counter snapshot ([`KIND_STATS_REPLY`] payload).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// The worker's [`ExecStats`].
    pub stats: ExecStats,
    /// Events the worker's pipeline has ingested.
    pub events_pushed: u64,
    /// Result rows the worker's pipeline has emitted.
    pub results_emitted: u64,
    /// The worker's current watermark.
    pub watermark: u64,
    /// Events buffered in the worker's reorder stage.
    pub buffered: u64,
    /// Live interner slots.
    pub interner_slots: u64,
    /// Interner bytes.
    pub interner_bytes: u64,
}

/// Appends a [`StatsReply`] payload.
pub fn encode_stats(s: &StatsReply, buf: &mut Vec<u8>) {
    for v in [
        s.stats.updates,
        s.stats.combines,
        s.stats.agg_ops,
        s.stats.replans,
        s.events_pushed,
        s.results_emitted,
        s.watermark,
        s.buffered,
        s.interner_slots,
        s.interner_bytes,
    ] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decodes a [`StatsReply`] payload.
pub fn decode_stats(payload: &[u8]) -> Result<StatsReply, WireError> {
    let mut r = Cursor::new(payload);
    let mut next = || r.u64("dist stats");
    let reply = StatsReply {
        stats: ExecStats {
            updates: next()?,
            combines: next()?,
            agg_ops: next()?,
            replans: next()?,
        },
        events_pushed: next()?,
        results_emitted: next()?,
        watermark: next()?,
        buffered: next()?,
        interner_slots: next()?,
        interner_bytes: next()?,
    };
    if r.remaining() != 0 {
        return Err(WireError::Truncated { what: "dist stats" });
    }
    Ok(reply)
}

/// Appends a profiles payload (count + fixed-width profile records).
pub fn encode_profiles(profiles: &[NodeProfile], buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(profiles.len() as u32).to_le_bytes());
    for p in profiles {
        buf.extend_from_slice(&(p.node as u64).to_le_bytes());
        buf.extend_from_slice(&p.range.to_le_bytes());
        buf.extend_from_slice(&p.slide.to_le_bytes());
        buf.push(u8::from(p.exposed));
        buf.push(u8::from(p.raw_fed));
        for v in [
            p.updates,
            p.combines,
            p.agg_ops,
            p.seals,
            p.emitted,
            p.pane_live_hw,
            p.nanos,
        ] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Decodes a profiles payload.
pub fn decode_profiles(payload: &[u8]) -> Result<Vec<NodeProfile>, WireError> {
    let mut r = Cursor::new(payload);
    let n = r.u32("dist profiles")? as usize;
    let mut profiles = Vec::with_capacity(n.min(payload.len() / 80 + 1));
    for _ in 0..n {
        let node = r.u64("dist profiles")? as usize;
        let range = r.u64("dist profiles")?;
        let slide = r.u64("dist profiles")?;
        let exposed = r.u8("dist profiles")? != 0;
        let raw_fed = r.u8("dist profiles")? != 0;
        let mut next = || r.u64("dist profiles");
        profiles.push(NodeProfile {
            node,
            range,
            slide,
            exposed,
            raw_fed,
            updates: next()?,
            combines: next()?,
            agg_ops: next()?,
            seals: next()?,
            emitted: next()?,
            pane_live_hw: next()?,
            nanos: next()?,
        });
    }
    if r.remaining() != 0 {
        return Err(WireError::Truncated {
            what: "dist profiles",
        });
    }
    Ok(profiles)
}

/// Appends a rebuild payload: the new watermark + plan JSON.
pub fn encode_rebuild(watermark: u64, plan_json: &str, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&watermark.to_le_bytes());
    buf.extend_from_slice(plan_json.as_bytes());
}

/// Decodes a rebuild payload.
pub fn decode_rebuild(payload: &[u8]) -> Result<(u64, String), WireError> {
    let mut r = Cursor::new(payload);
    let watermark = r.u64("dist rebuild")?;
    let plan_json = r.utf8_rest()?;
    Ok((watermark, plan_json))
}

/// Appends a finish payload: the seal watermark, if any.
pub fn encode_finish(seal: Option<u64>, buf: &mut Vec<u8>) {
    match seal {
        Some(seal) => {
            buf.push(1);
            buf.extend_from_slice(&seal.to_le_bytes());
        }
        None => buf.push(0),
    }
}

/// Decodes a finish payload.
pub fn decode_finish(payload: &[u8]) -> Result<Option<u64>, WireError> {
    let mut r = Cursor::new(payload);
    let seal = if r.u8("dist finish")? != 0 {
        Some(r.u64("dist finish")?)
    } else {
        None
    };
    if r.remaining() != 0 {
        return Err(WireError::Truncated {
            what: "dist finish",
        });
    }
    Ok(seal)
}

/// One worker's final accounting ([`KIND_FINISH_REPLY`] payload). The
/// residual rows no poll drained travel before it, as a [`KIND_ROWS`]
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinishReply {
    /// Events the worker processed.
    pub events_processed: u64,
    /// Result rows the worker emitted over its lifetime.
    pub results_emitted: u64,
    /// The worker's processing wall time, in nanoseconds.
    pub elapsed_nanos: u64,
    /// The worker's final [`ExecStats`].
    pub stats: ExecStats,
}

/// Appends a [`FinishReply`] payload.
pub fn encode_finish_reply(reply: &FinishReply, buf: &mut Vec<u8>) {
    for v in [
        reply.events_processed,
        reply.results_emitted,
        reply.elapsed_nanos,
        reply.stats.updates,
        reply.stats.combines,
        reply.stats.agg_ops,
        reply.stats.replans,
    ] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decodes a [`FinishReply`] payload.
pub fn decode_finish_reply(payload: &[u8]) -> Result<FinishReply, WireError> {
    let mut r = Cursor::new(payload);
    let mut next = || r.u64("dist finish reply");
    let events_processed = next()?;
    let results_emitted = next()?;
    let elapsed_nanos = next()?;
    let stats = ExecStats {
        updates: next()?,
        combines: next()?,
        agg_ops: next()?,
        replans: next()?,
    };
    if r.remaining() != 0 {
        return Err(WireError::Truncated {
            what: "dist finish reply",
        });
    }
    Ok(FinishReply {
        events_processed,
        results_emitted,
        elapsed_nanos,
        stats,
    })
}

/// Appends an error payload preserving the engine error's structure:
/// out-of-order violations keep their `(at, watermark)` pair, everything
/// else travels as its display message.
pub fn encode_err(err: &EngineError, buf: &mut Vec<u8>) {
    match err {
        EngineError::OutOfOrderEvent { at, watermark } => {
            buf.push(ERR_OUT_OF_ORDER);
            buf.extend_from_slice(&at.to_le_bytes());
            buf.extend_from_slice(&watermark.to_le_bytes());
        }
        other => {
            buf.push(ERR_OTHER);
            buf.extend_from_slice(other.to_string().as_bytes());
        }
    }
}

/// Reconstructs the [`EngineError`] from an error payload.
pub fn decode_err(payload: &[u8]) -> Result<EngineError, WireError> {
    let mut r = Cursor::new(payload);
    match r.u8("dist err")? {
        ERR_OUT_OF_ORDER => {
            let at = r.u64("dist err")?;
            let watermark = r.u64("dist err")?;
            Ok(EngineError::OutOfOrderEvent { at, watermark })
        }
        ERR_OTHER => Ok(EngineError::Distributed(r.utf8_rest()?)),
        kind => Err(WireError::UnknownKind { kind }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_core::{Interval, Window};

    #[test]
    fn setup_roundtrip() {
        let setup = Setup {
            opts: PipelineOptions {
                collect: true,
                element_work: 7,
                out_of_order: 64,
                profile: ProfileLevel::Timed,
            },
            plan_json: "{\"plan\":true}".into(),
            snapshot: Some(vec![1, 2, 3, 4]),
        };
        let mut buf = Vec::new();
        encode_setup(&setup, &mut buf);
        assert_eq!(decode_setup(&buf).unwrap(), setup);

        let bare = Setup {
            snapshot: None,
            ..setup
        };
        buf.clear();
        encode_setup(&bare, &mut buf);
        assert_eq!(decode_setup(&buf).unwrap(), bare);
    }

    #[test]
    fn stats_profiles_rows_roundtrip() {
        let stats = StatsReply {
            stats: ExecStats {
                updates: 1,
                combines: 2,
                agg_ops: 3,
                replans: 4,
            },
            events_pushed: 5,
            results_emitted: 6,
            watermark: 7,
            buffered: 8,
            interner_slots: 9,
            interner_bytes: 10,
        };
        let mut buf = Vec::new();
        encode_stats(&stats, &mut buf);
        assert_eq!(decode_stats(&buf).unwrap(), stats);

        let profiles = vec![NodeProfile {
            node: 3,
            range: 20,
            slide: 10,
            exposed: true,
            raw_fed: false,
            updates: 1,
            combines: 2,
            agg_ops: 3,
            seals: 4,
            emitted: 5,
            pane_live_hw: 6,
            nanos: 7,
        }];
        buf.clear();
        encode_profiles(&profiles, &mut buf);
        assert_eq!(decode_profiles(&buf).unwrap(), profiles);

        let reply = FinishReply {
            events_processed: 1,
            results_emitted: 2,
            elapsed_nanos: 3,
            stats: stats.stats,
        };
        buf.clear();
        encode_finish_reply(&reply, &mut buf);
        assert_eq!(decode_finish_reply(&buf).unwrap(), reply);
        buf.push(0);
        assert!(decode_finish_reply(&buf).is_err());
    }

    /// Reads one run of `ROWS` frames back, checking every frame's size
    /// and flags.
    fn read_run(mut wire: &[u8]) -> (usize, Vec<WindowResult>) {
        let mut frames = fw_serve::wire::FrameReader::new();
        let (mut count, mut rows) = (0, Vec::new());
        loop {
            let before = wire.len();
            let (kind, payload) = frames.read_raw(&mut wire).unwrap();
            assert_eq!(kind, KIND_ROWS);
            assert!(
                before - wire.len() <= ROWS_CHUNK_BYTES,
                "frame over the chunk bound"
            );
            let (more, n) = decode_rows_header(payload).unwrap();
            let mut r = Cursor::new(&payload[ROWS_HEADER_LEN..]);
            for _ in 0..n {
                rows.push(fw_serve::wire::decode_result_row(&mut r).unwrap());
            }
            count += 1;
            if !more {
                assert!(wire.is_empty(), "bytes after the last chunk");
                return (count, rows);
            }
        }
    }

    #[test]
    fn rows_travel_in_bounded_chunks_in_the_given_order() {
        let rows: Vec<WindowResult> = (0..2 * ROWS_CHUNK_ROWS as u32 + 7)
            .map(|k| WindowResult {
                window: Window::new(20, 10).unwrap(),
                interval: Interval::new(0, 20),
                key: k,
                agg: k % 4,
                value: f64::from(k) - 0.5,
            })
            .collect();
        let order: Vec<u32> = (0..rows.len() as u32).rev().collect();
        let mut out = FrameWriter::new();
        for (n, frames) in [(0, 1), (1, 1), (ROWS_CHUNK_ROWS, 1), (rows.len(), 3)] {
            let mut wire = Vec::new();
            write_rows(&mut out, &mut wire, &rows, &order[..n]).unwrap();
            let (count, got) = read_run(&wire);
            assert_eq!(count, frames, "{n} rows");
            let want: Vec<_> = order[..n].iter().map(|&i| rows[i as usize]).collect();
            assert_eq!(got, want, "{n} rows");
        }
    }

    #[test]
    fn rows_chunk_headers_are_checked() {
        let row = WindowResult {
            window: Window::new(20, 10).unwrap(),
            interval: Interval::new(0, 20),
            key: 3,
            agg: 0,
            value: 2.5,
        };
        let mut buf = Vec::new();
        encode_rows_chunk(&[row, row], &[1, 0], true, &mut buf);
        assert_eq!(decode_rows_header(&buf).unwrap(), (true, 2));
        // A count that disagrees with the payload's length, either way.
        assert!(decode_rows_header(&buf[..buf.len() - 1]).is_err());
        let mut long = buf.clone();
        long.push(0);
        assert!(decode_rows_header(&long).is_err());
        // An unknown flag bit, and a header cut short.
        let mut flags = buf.clone();
        flags[0] = 0x80;
        assert!(decode_rows_header(&flags).is_err());
        assert!(decode_rows_header(&buf[..3]).is_err());
        // A count near u32::MAX must not overflow the length check.
        let mut huge = buf[..ROWS_HEADER_LEN].to_vec();
        huge[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_rows_header(&huge).is_err());
    }

    #[test]
    fn err_roundtrip_preserves_out_of_order_structure() {
        let mut buf = Vec::new();
        encode_err(
            &EngineError::OutOfOrderEvent {
                at: 5,
                watermark: 9,
            },
            &mut buf,
        );
        assert!(matches!(
            decode_err(&buf).unwrap(),
            EngineError::OutOfOrderEvent {
                at: 5,
                watermark: 9
            }
        ));

        buf.clear();
        encode_err(&EngineError::InvalidPlan("boom".into()), &mut buf);
        match decode_err(&buf).unwrap() {
            EngineError::Distributed(msg) => assert!(msg.contains("boom")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn hello_rejects_wrong_magic() {
        let mut buf = Vec::new();
        encode_hello(&mut buf);
        assert!(decode_hello(&buf).is_ok());
        buf[0] ^= 0xFF;
        assert!(matches!(
            decode_hello(&buf),
            Err(WireError::BadMagic { .. })
        ));
    }
}
