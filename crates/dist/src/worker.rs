//! The worker half of distributed shard execution: accepts coordinator
//! connections and runs one local [`PlanPipeline`] per connection over
//! the FWD1 protocol ([`crate::proto`]).
//!
//! Each connection is its own shard: the coordinator has already
//! key-partitioned the stream, so the worker just replays its slice
//! through an ordinary pipeline and ships sealed rows back. The receive
//! hot path is allocation-free at steady state — raw frames land in the
//! connection's [`FrameReader`] body buffer and batches decode in place
//! into one recycled [`EventBatch`].
//!
//! Sealed rows leave in canonical order, so the coordinator only merges:
//! a poll drains into a recycled buffer, [`CanonicalOrder`] computes the
//! permutation, and [`proto::write_rows`] encodes straight from it into
//! bounded `ROWS` chunks — no sorted copy of the rows is ever built.
//!
//! A half-open connection cannot wedge the worker: the handshake
//! (`Hello` + `Setup`) runs under [`HANDSHAKE_TIMEOUT`]; only after the
//! pipeline is built does the socket revert to blocking reads.

use crate::proto::{self, Setup};
use fw_core::{FromJson, QueryPlan};
use fw_engine::{CanonicalOrder, EngineError, EventBatch, PlanPipeline};
use fw_serve::wire::{decode_batch_into, FrameReader, FrameWriter, WireError};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How long a connection may dawdle through the `Hello`/`Setup`
/// handshake before the worker drops it (bounded accept — a silent
/// client cannot hold a connection slot open forever).
pub const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// A bound worker listener; [`Worker::run`] accepts coordinators.
#[derive(Debug)]
pub struct Worker {
    listener: TcpListener,
}

impl Worker {
    /// Binds the worker's listening socket.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> std::io::Result<Worker> {
        Ok(Worker {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound address (the ephemeral port when bound to `:0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts connections forever, one thread per coordinator link.
    /// Returns only if the listener itself fails.
    pub fn run(self) -> std::io::Result<()> {
        loop {
            let (stream, _) = self.listener.accept()?;
            std::thread::spawn(move || {
                // Connection errors tear down this shard link only; the
                // coordinator observes the close and fails loud its side.
                let _ = serve_connection(stream);
            });
        }
    }

    /// Runs the accept loop on a background thread — an in-process
    /// worker for tests and benches that don't need process isolation.
    pub fn spawn_thread(self) -> std::thread::JoinHandle<std::io::Result<()>> {
        std::thread::spawn(move || self.run())
    }
}

/// The per-connection engine loop; see module docs.
fn serve_connection(stream: TcpStream) -> Result<(), WireError> {
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut frames = FrameReader::new();
    let mut out = FrameWriter::new();

    // Handshake (under the read timeout): Hello, then Setup.
    let (kind, payload) = frames.read_raw(&mut reader)?;
    if kind != proto::KIND_HELLO {
        return Err(WireError::UnknownKind { kind });
    }
    proto::decode_hello(payload)?;
    out.stage_with(proto::KIND_HELLO_ACK, proto::encode_hello);
    out.flush_to(&mut writer)?;

    let (kind, payload) = frames.read_raw(&mut reader)?;
    if kind != proto::KIND_SETUP {
        return Err(WireError::UnknownKind { kind });
    }
    let setup = proto::decode_setup(payload)?;
    let (mut plan, pipeline) = match build_pipeline(&setup) {
        Ok(built) => built,
        Err(e) => {
            send_err(&mut out, &mut writer, &e)?;
            return Ok(());
        }
    };
    let mut pipeline = Some(pipeline);
    out.stage_with(proto::KIND_SETUP_ACK, |_| {});
    out.flush_to(&mut writer)?;
    stream.set_read_timeout(None)?;

    // Steady state: one recycled batch, one recycled poll buffer and its
    // ordering scratch, one deferred-death slot. After an engine error
    // the pipeline is dead — data frames are dropped, requests are
    // answered with the error again (the coordinator's next synchronous
    // call surfaces it).
    let mut batch = EventBatch::new();
    let mut rows = Vec::new();
    let mut order = CanonicalOrder::default();
    let mut dead: Option<EngineError> = None;
    // A read error means the coordinator hung up (cleanly or not): this
    // shard is done.
    while let Ok((kind, payload)) = frames.read_raw(&mut reader) {
        match kind {
            proto::KIND_BATCH => {
                if dead.is_some() {
                    continue;
                }
                let pushed = decode_batch_into(payload, &mut batch)
                    .map_err(|e| EngineError::Distributed(e.to_string()))
                    .and_then(|()| {
                        let p = pipeline.as_mut().expect("pipeline until finish");
                        let (times, keys, values) = batch.columns();
                        p.push_columns(times, keys, values)
                    });
                if let Err(e) = pushed {
                    send_err(&mut out, &mut writer, &e)?;
                    dead = Some(e);
                }
            }
            proto::KIND_WATERMARK if dead.is_none() => {
                let advanced = decode_watermark(payload).and_then(|w| {
                    pipeline
                        .as_mut()
                        .expect("pipeline until finish")
                        .advance_watermark(w)
                });
                if let Err(e) = advanced {
                    send_err(&mut out, &mut writer, &e)?;
                    dead = Some(e);
                }
            }
            proto::KIND_WATERMARK => {}
            _ if dead.is_some() => {
                // Requests against a dead shard re-surface the error.
                let e = dead.clone().expect("checked above");
                send_err(&mut out, &mut writer, &e)?;
            }
            proto::KIND_POLL => {
                pipeline
                    .as_mut()
                    .expect("pipeline until finish")
                    .poll_results_into(&mut rows);
                proto::write_rows(&mut out, &mut writer, &rows, order.of(&rows))?;
                rows.clear();
            }
            proto::KIND_STATS => {
                let p = pipeline.as_ref().expect("pipeline until finish");
                let (interner_slots, interner_bytes) = p.interner_stats();
                let reply = proto::StatsReply {
                    stats: p.stats(),
                    events_pushed: p.events_processed(),
                    results_emitted: p.results_emitted(),
                    watermark: p.watermark(),
                    buffered: p.buffered() as u64,
                    interner_slots,
                    interner_bytes,
                };
                out.stage_with(proto::KIND_STATS_REPLY, |buf| {
                    proto::encode_stats(&reply, buf);
                });
                out.flush_to(&mut writer)?;
            }
            proto::KIND_PROFILES => {
                let profiles = pipeline
                    .as_ref()
                    .expect("pipeline until finish")
                    .node_profiles();
                out.stage_with(proto::KIND_PROFILES_REPLY, |buf| {
                    proto::encode_profiles(&profiles, buf);
                });
                out.flush_to(&mut writer)?;
            }
            proto::KIND_REBUILD => {
                let rebuilt = proto::decode_rebuild(payload)
                    .map_err(|e| EngineError::Distributed(e.to_string()))
                    .and_then(|(watermark, plan_json)| {
                        let next = QueryPlan::from_json(&plan_json).map_err(|e| {
                            EngineError::InvalidPlan(format!("rebuild plan json: {e:?}"))
                        })?;
                        pipeline
                            .as_mut()
                            .expect("pipeline until finish")
                            .rebuild(&next, watermark)?;
                        Ok(next)
                    });
                match rebuilt {
                    Ok(next) => {
                        plan = next;
                        out.stage_with(proto::KIND_REBUILD_ACK, |_| {});
                        out.flush_to(&mut writer)?;
                    }
                    Err(e) => send_err(&mut out, &mut writer, &e)?,
                }
            }
            proto::KIND_EXPORT => {
                let mut doc = Vec::new();
                let exported = pipeline
                    .as_mut()
                    .expect("pipeline until finish")
                    .checkpoint(&plan, &mut doc);
                match exported {
                    Ok(()) => {
                        out.stage_with(proto::KIND_IMAGE, |buf| buf.extend_from_slice(&doc));
                        out.flush_to(&mut writer)?;
                    }
                    Err(e) => {
                        let e = EngineError::Distributed(format!("checkpoint export: {e}"));
                        send_err(&mut out, &mut writer, &e)?;
                    }
                }
            }
            proto::KIND_FINISH => {
                let finished = proto::decode_finish(payload)
                    .map_err(|e| EngineError::Distributed(e.to_string()))
                    .and_then(|seal| {
                        let mut p = pipeline.take().expect("pipeline until finish");
                        if let Some(seal) = seal {
                            if seal > p.watermark() {
                                p.advance_watermark(seal)?;
                            }
                        }
                        p.finish()
                    });
                match finished {
                    Ok(run) => {
                        let residual = &run.results;
                        proto::write_rows(&mut out, &mut writer, residual, order.of(residual))?;
                        let reply = proto::FinishReply {
                            events_processed: run.events_processed,
                            results_emitted: run.results_emitted,
                            elapsed_nanos: run.elapsed.as_nanos().min(u128::from(u64::MAX)) as u64,
                            stats: run.stats,
                        };
                        out.stage_with(proto::KIND_FINISH_REPLY, |buf| {
                            proto::encode_finish_reply(&reply, buf);
                        });
                        out.flush_to(&mut writer)?;
                    }
                    Err(e) => send_err(&mut out, &mut writer, &e)?,
                }
                break;
            }
            kind => {
                let e = EngineError::Distributed(format!("unexpected frame kind {kind:#04x}"));
                send_err(&mut out, &mut writer, &e)?;
            }
        }
    }
    Ok(())
}

fn build_pipeline(setup: &Setup) -> Result<(QueryPlan, PlanPipeline), EngineError> {
    let plan = QueryPlan::from_json(&setup.plan_json)
        .map_err(|e| EngineError::InvalidPlan(format!("setup plan json: {e:?}")))?;
    let pipeline = match &setup.snapshot {
        Some(doc) => PlanPipeline::restore(&plan, setup.opts, &mut &doc[..])
            .map_err(|e| EngineError::Distributed(format!("snapshot restore: {e}")))?,
        None => PlanPipeline::compile(&plan, setup.opts)?,
    };
    Ok((plan, pipeline))
}

fn decode_watermark(payload: &[u8]) -> Result<u64, EngineError> {
    if payload.len() != 8 {
        return Err(EngineError::Distributed(
            "watermark frame must carry exactly 8 bytes".into(),
        ));
    }
    Ok(u64::from_le_bytes(
        payload.try_into().expect("length checked"),
    ))
}

fn send_err(
    out: &mut FrameWriter,
    writer: &mut TcpStream,
    err: &EngineError,
) -> Result<(), WireError> {
    out.stage_with(proto::KIND_ERR, |buf| proto::encode_err(err, buf));
    out.flush_to(writer)
}
