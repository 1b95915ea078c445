//! The TCP serving front end: many concurrent client connections
//! multiplexed onto one shared [`GroupHost`], with bounded queues and
//! explicit load shedding end to end.
//!
//! # Threading model
//!
//! ```text
//! client ──TCP──▶ reader thread ──bounded MPSC──▶ engine thread (GroupHost)
//!    ▲                                                  │ try_send
//!    └──────────── writer thread ◀──bounded outbox──────┘
//! ```
//!
//! One **reader thread** per connection parses frames and forwards them
//! as commands into one shared bounded channel. One **engine thread**
//! owns the [`GroupHost`] — every register/deregister/push/watermark is
//! serialized there, so the engine needs no locks. One **writer thread**
//! per connection drains a bounded outbox of reply/result frames.
//!
//! Backpressure is explicit at both bounded hops:
//!
//! * **Ingest** ([`Overflow`]): under [`Overflow::Block`] a full command
//!   queue blocks the reader, which stops reading the socket, which
//!   fills the kernel buffers, which stalls the client — classic TCP
//!   backpressure. Under [`Overflow::Shed`] pushed batches are dropped
//!   on the floor, counted, and acknowledged with a
//!   [`Frame::Lagging`]`(IngestShed)` notice. Control frames (register,
//!   watermark, …) always take the blocking path — correctness over
//!   throughput for the rare frames.
//! * **Fan-out**: the engine never blocks on a client. If a result
//!   outbox is full the rows are dropped, counted, and signalled with
//!   [`Frame::Lagging`]`(ResultsDropped)` — a stalled subscriber costs
//!   bounded memory (`outbox_depth` frames), never an unbounded buffer.
//!
//! The group watermark is the **minimum over every connection's
//! announced watermark** (connections that never announced do not
//! constrain it; a [`Frame::Finish`] releases the connection's vote), so
//! no member's results are sealed past a participant that may still
//! push earlier events.

use crate::expo;
use crate::host::{GroupHost, HostConfig};
use crate::metrics::Metrics;
use crate::wire::{
    error_code, Frame, FrameReader, FrameWriter, LagKind, WireError, PROTOCOL_MAGIC,
    PROTOCOL_VERSION, RESULTS_CHUNK_ROWS,
};
use crate::ServeError;
use fw_core::QueryId;
use fw_engine::checkpoint::{self as ckpt, CheckpointResult};
use fw_engine::{EventBatch, GroupResult, TraceEventKind, TraceRing};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// What to do when the shared ingest queue is full and a client pushes
/// another batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Overflow {
    /// Stop reading the pushing connection's socket until the queue
    /// drains (TCP backpressure; nothing is lost).
    #[default]
    Block,
    /// Drop the batch, count it, and notify the client with a
    /// [`Frame::Lagging`] frame (bounded latency; data is lost).
    Shed,
}

/// Server configuration: queue bounds, shedding policy, and the hosted
/// group's compilation knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Capacity of the shared reader→engine command queue.
    pub queue_depth: usize,
    /// Capacity of each connection's engine→writer outbox.
    pub outbox_depth: usize,
    /// Full-ingest-queue policy.
    pub overflow: Overflow,
    /// The hosted group's compilation knobs.
    pub host: HostConfig,
    /// Where periodic and client-requested checkpoints are persisted
    /// (atomic write-then-rename). `None` keeps explicit checkpoints
    /// in-memory only (the client still gets a size ack).
    pub checkpoint_path: Option<PathBuf>,
    /// Write a checkpoint to [`Self::checkpoint_path`] every N processed
    /// watermark announcements; `0` disables periodic checkpointing.
    pub checkpoint_every: u64,
    /// Seed the hosted group from this snapshot file at bind time.
    /// Restored queries start orphaned until a client [`Frame::Resume`]s
    /// them.
    pub restore_from: Option<PathBuf>,
    /// Test-only fault hooks (magic SQL strings that panic the engine
    /// thread). Never enable outside a harness.
    pub fault_injection: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_depth: 64,
            outbox_depth: 1024,
            overflow: Overflow::Block,
            host: HostConfig::default(),
            checkpoint_path: None,
            checkpoint_every: 0,
            restore_from: None,
            fault_injection: false,
        }
    }
}

/// Registering this SQL text with [`ServeConfig::fault_injection`] on
/// panics the engine thread — the crash-containment regression hook.
pub const FAULT_PANIC_SQL: &str = "__fw_fault_panic__";

/// Commands the reader threads feed the engine thread.
enum Cmd {
    Connect { conn: u64, outbox: Outbox },
    Register { conn: u64, sql: String },
    Deregister { conn: u64, query_id: u32 },
    Push { conn: u64, batch: EventBatch },
    Watermark { conn: u64, watermark: u64 },
    Stats { conn: u64 },
    Finish { conn: u64 },
    Checkpoint { conn: u64 },
    Resume { conn: u64, query_id: u32 },
    TraceDump { conn: u64 },
    MetricsText { conn: u64 },
    Disconnect { conn: u64 },
    Shutdown,
}

/// State restored from a snapshot file at bind time, handed to the
/// engine thread when the server runs.
struct EngineSeed {
    host: GroupHost,
    /// Replay cursors (events accounted per query) from the snapshot's
    /// trailing cursor table; handed back on [`Frame::Resume`].
    cursors: HashMap<u32, u64>,
}

/// A bounded, depth-tracked handle on one connection's outbound frame
/// queue. Cloned between the reader (acks) and the engine (results).
#[derive(Clone)]
struct Outbox {
    tx: SyncSender<Frame>,
    depth: Arc<AtomicU64>,
}

impl Outbox {
    /// Non-blocking enqueue; `false` means the outbox was full (or the
    /// writer is gone) and the frame was dropped. The depth gauge is
    /// raised before the send so the writer's decrement cannot
    /// underflow it.
    fn try_send(&self, frame: Frame, metrics: &Metrics) -> bool {
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        Metrics::raise(&metrics.outbox_high_water, depth);
        if self.tx.try_send(frame).is_err() {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Blocking enqueue (handshake acks only — never called from the
    /// engine thread); `false` means the writer is gone.
    fn send(&self, frame: Frame, metrics: &Metrics) -> bool {
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        Metrics::raise(&metrics.outbox_high_water, depth);
        if self.tx.send(frame).is_err() {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        true
    }
}

/// A bound TCP serving front end over one [`GroupHost`]. Build with
/// [`Server::bind`], then either [`Server::run`] on the current thread
/// or [`Server::spawn`] a background [`ServerHandle`].
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    metrics: Arc<Metrics>,
    stop: Arc<AtomicBool>,
    /// Live connections' sockets, keyed by connection id so each entry
    /// is dropped when its connection loop exits (no fd leak); used to
    /// shut every client down on stop.
    sockets: Arc<Mutex<HashMap<u64, TcpStream>>>,
    /// Host + cursors restored from [`ServeConfig::restore_from`].
    seed: Option<EngineSeed>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.listener.local_addr().ok())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `addr` (use port `0` for an ephemeral port; read it back
    /// with [`Self::local_addr`]).
    ///
    /// With [`ServeConfig::restore_from`] set the snapshot is read and
    /// validated here — a torn or corrupt file fails the bind rather
    /// than the first client.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServeConfig) -> std::io::Result<Server> {
        let seed = match &config.restore_from {
            Some(path) => Some(read_snapshot(path, config.host.clone())?),
            None => None,
        };
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            config,
            metrics: Arc::new(Metrics::new()),
            stop: Arc::new(AtomicBool::new(false)),
            sockets: Arc::new(Mutex::new(HashMap::new())),
            seed,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The server's metrics registry (shared; stays valid after
    /// [`Self::spawn`]).
    #[must_use]
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Runs the accept loop on the current thread until a
    /// [`ServerHandle::stop`] (or listener failure), then drains and
    /// joins the engine.
    ///
    /// Panics on either side are contained, never strand the other: an
    /// engine panic trips the stop flag and tears every connection down
    /// (readers and writers unblock and exit); an accept-loop panic
    /// still runs the same teardown before returning.
    pub fn run(self) {
        let Server {
            listener,
            config,
            metrics,
            stop,
            sockets,
            seed,
        } = self;
        let addr = listener.local_addr().ok();
        let (cmd_tx, cmd_rx) = sync_channel::<Cmd>(config.queue_depth);
        let engine = {
            let metrics = Arc::clone(&metrics);
            let config = config.clone();
            let stop = Arc::clone(&stop);
            let sockets = Arc::clone(&sockets);
            std::thread::spawn(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    engine_loop(cmd_rx, &metrics, &config, seed);
                }));
                if outcome.is_err() {
                    // The host is poisoned. Flag the server stopped and
                    // shut every socket so no reader blocks on a dead
                    // queue and no client waits on a reply that will
                    // never come.
                    Metrics::add(&metrics.engine_panics, 1);
                    stop.store(true, Ordering::SeqCst);
                    for socket in sockets.lock().unwrap().values() {
                        let _ = socket.shutdown(Shutdown::Both);
                    }
                    if let Some(addr) = addr {
                        // Wake the blocking accept so run() can return.
                        let _ = TcpStream::connect(addr);
                    }
                }
            })
        };
        let accepting = catch_unwind(AssertUnwindSafe(|| {
            let mut next_conn = 0u64;
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else {
                    // Persistent accept failures (e.g. EMFILE) would
                    // otherwise busy-spin this loop; back off briefly.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    continue;
                };
                let stream = accepted(stream);
                let conn = next_conn;
                next_conn += 1;
                if let Ok(clone) = stream.try_clone() {
                    sockets.lock().unwrap().insert(conn, clone);
                }
                let tx = cmd_tx.clone();
                let metrics = Arc::clone(&metrics);
                let config = config.clone();
                let sockets = Arc::clone(&sockets);
                std::thread::spawn(move || {
                    connection_loop(stream, conn, &tx, &metrics, &config);
                    sockets.lock().unwrap().remove(&conn);
                });
            }
        }));
        // Teardown runs whether the accept loop stopped or panicked:
        // unblock readers so they release their queue slots, then ask
        // the engine to wind down.
        stop.store(true, Ordering::SeqCst);
        for socket in sockets.lock().unwrap().values() {
            let _ = socket.shutdown(Shutdown::Both);
        }
        let _ = cmd_tx.send(Cmd::Shutdown);
        drop(cmd_tx);
        let _ = engine.join();
        drop(accepting);
    }

    /// Runs the server on a background thread and returns a stop handle.
    #[must_use]
    pub fn spawn(self) -> ServerHandle {
        let addr = self.listener.local_addr().expect("bound listener");
        let stop = Arc::clone(&self.stop);
        let sockets = Arc::clone(&self.sockets);
        let metrics = Arc::clone(&self.metrics);
        let thread = std::thread::spawn(move || self.run());
        ServerHandle {
            addr,
            stop,
            sockets,
            metrics,
            thread: Some(thread),
        }
    }
}

/// A handle on a background [`Server`]; stops and joins it on
/// [`Self::stop`] (or drop).
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    sockets: Arc<Mutex<HashMap<u64, TcpStream>>>,
    metrics: Arc<Metrics>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The server's bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics registry.
    #[must_use]
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Stops the accept loop, disconnects every client, and joins the
    /// server thread. Idempotent; also runs on drop.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for socket in self.sockets.lock().unwrap().values() {
            let _ = socket.shutdown(Shutdown::Both);
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Sets up an accepted connection's socket: `TCP_NODELAY`, as the client,
/// the coordinator and the worker already set on theirs. Without it a
/// small reply frame can sit behind Nagle's algorithm until the peer's
/// delayed ACK, which is what put a flat ~9 ms tail under delivered
/// results on loopback.
fn accepted(stream: TcpStream) -> TcpStream {
    let _ = stream.set_nodelay(true);
    stream
}

/// One connection's reader: handshake, then frame→command translation
/// with the configured overflow policy.
fn connection_loop(
    stream: TcpStream,
    conn: u64,
    tx: &SyncSender<Cmd>,
    metrics_arc: &Arc<Metrics>,
    config: &ServeConfig,
) {
    let metrics: &Metrics = metrics_arc;
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (out_tx, out_rx) = sync_channel::<Frame>(config.outbox_depth);
    let depth = Arc::new(AtomicU64::new(0));
    let outbox = Outbox {
        tx: out_tx,
        depth: Arc::clone(&depth),
    };
    let writer = {
        let depth = Arc::clone(&depth);
        let metrics = Arc::clone(metrics_arc);
        std::thread::spawn(move || writer_loop(write_half, &out_rx, &depth, &metrics))
    };

    let mut reader = BufReader::new(stream);
    // One reusable frame-body buffer for the connection's lifetime:
    // steady-state reads allocate nothing.
    let mut frames = FrameReader::new();
    // Handshake: the first frame must be a well-formed Hello.
    match frames.read(&mut reader) {
        Ok(Frame::Hello { .. }) => {
            Metrics::add(&metrics.frames_in, 1);
            outbox.send(
                Frame::HelloAck {
                    magic: PROTOCOL_MAGIC,
                    version: PROTOCOL_VERSION,
                },
                metrics,
            );
        }
        Ok(_) | Err(_) => {
            outbox.try_send(
                Frame::Error {
                    code: error_code::PROTOCOL,
                    message: "expected Hello".into(),
                },
                metrics,
            );
            drop(outbox);
            let _ = writer.join();
            return;
        }
    }
    Metrics::add(&metrics.connections_total, 1);
    Metrics::add(&metrics.active_connections, 1);
    if tx
        .send(Cmd::Connect {
            conn,
            outbox: outbox.clone(),
        })
        .is_err()
    {
        metrics.active_connections.fetch_sub(1, Ordering::Relaxed);
        return;
    }

    // Shed batches not yet reported to the client: when a Lagging notice
    // itself cannot be delivered (full outbox), the count carries over
    // into the next notice instead of being lost.
    let mut shed_pending = 0u64;
    loop {
        let frame = match frames.read(&mut reader) {
            Ok(frame) => frame,
            // A malformed payload of a well-delimited frame leaves the
            // stream in sync: report and keep going.
            Err(
                e @ (WireError::UnknownKind { .. }
                | WireError::Truncated { .. }
                | WireError::BadMagic { .. }
                | WireError::BadVersion { .. }
                | WireError::BadUtf8
                | WireError::BadWindow { .. }
                | WireError::BadInterval { .. }),
            ) => {
                Metrics::add(&metrics.frames_in, 1);
                outbox.try_send(
                    Frame::Error {
                        code: error_code::PROTOCOL,
                        message: e.to_string(),
                    },
                    metrics,
                );
                continue;
            }
            // Closed, i/o failure, or a length-prefix violation: the
            // stream cannot be trusted any more.
            Err(_) => break,
        };
        Metrics::add(&metrics.frames_in, 1);
        let cmd = match frame {
            Frame::PushColumns { batch } => {
                let events = batch.len() as u64;
                // Watermark lag is measured against *accepted* ingest,
                // so the high-water event time is raised here, not when
                // the engine eventually processes the batch.
                let max_time = batch.times().iter().copied().max();
                let accepted = |metrics: &Metrics| {
                    Metrics::add(&metrics.batches_in, 1);
                    Metrics::add(&metrics.events_in, events);
                    if let Some(t) = max_time {
                        Metrics::raise(&metrics.max_event_time, t);
                    }
                };
                match config.overflow {
                    Overflow::Block => {
                        if enqueue(tx, Cmd::Push { conn, batch }, metrics).is_err() {
                            break;
                        }
                        accepted(metrics);
                        continue;
                    }
                    Overflow::Shed => match try_enqueue(tx, Cmd::Push { conn, batch }, metrics) {
                        Ok(()) => {
                            accepted(metrics);
                            continue;
                        }
                        Err(TrySendError::Full(_)) => {
                            Metrics::add(&metrics.batches_shed, 1);
                            Metrics::add(&metrics.events_shed, events);
                            shed_pending += 1;
                            if outbox.try_send(
                                Frame::Lagging {
                                    kind: LagKind::IngestShed,
                                    count: shed_pending,
                                },
                                metrics,
                            ) {
                                Metrics::add(&metrics.lagging_notices, 1);
                                shed_pending = 0;
                            }
                            continue;
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    },
                }
            }
            Frame::Register { sql } => Cmd::Register { conn, sql },
            Frame::Deregister { query_id } => Cmd::Deregister { conn, query_id },
            Frame::Watermark { watermark } => Cmd::Watermark { conn, watermark },
            Frame::Stats => Cmd::Stats { conn },
            Frame::Finish => Cmd::Finish { conn },
            Frame::Checkpoint => Cmd::Checkpoint { conn },
            Frame::Resume { query_id } => Cmd::Resume { conn, query_id },
            Frame::TraceReq => Cmd::TraceDump { conn },
            Frame::MetricsTextReq => Cmd::MetricsText { conn },
            _ => {
                outbox.try_send(
                    Frame::Error {
                        code: error_code::PROTOCOL,
                        message: "unexpected frame direction".into(),
                    },
                    metrics,
                );
                continue;
            }
        };
        // Control frames always take the blocking path: they are rare
        // and must not be shed.
        if enqueue(tx, cmd, metrics).is_err() {
            break;
        }
    }
    let _ = enqueue(tx, Cmd::Disconnect { conn }, metrics);
    metrics.active_connections.fetch_sub(1, Ordering::Relaxed);
    drop(outbox);
    let _ = writer.join();
}

/// Blocking enqueue with queue-depth accounting. The gauge is raised
/// *before* the send so the engine's matching decrement (which happens
/// strictly after) can never underflow it.
fn enqueue(
    tx: &SyncSender<Cmd>,
    cmd: Cmd,
    metrics: &Metrics,
) -> Result<(), std::sync::mpsc::SendError<Cmd>> {
    let depth = metrics.ingest_queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
    Metrics::raise(&metrics.ingest_queue_high_water, depth);
    if let Err(e) = tx.send(cmd) {
        metrics.ingest_queue_depth.fetch_sub(1, Ordering::Relaxed);
        return Err(e);
    }
    Ok(())
}

/// Non-blocking enqueue with queue-depth accounting (see [`enqueue`]).
fn try_enqueue(tx: &SyncSender<Cmd>, cmd: Cmd, metrics: &Metrics) -> Result<(), TrySendError<Cmd>> {
    let depth = metrics.ingest_queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
    Metrics::raise(&metrics.ingest_queue_high_water, depth);
    if let Err(e) = tx.try_send(cmd) {
        metrics.ingest_queue_depth.fetch_sub(1, Ordering::Relaxed);
        return Err(e);
    }
    Ok(())
}

/// One connection's writer: drains the outbox onto the socket. Frames
/// are encoded into one reusable scratch buffer ([`FrameWriter`]) —
/// zero allocations per frame at steady state — and whatever else is
/// queued is opportunistically coalesced into the same `write_all`, so a
/// burst of result frames costs one syscall.
fn writer_loop(mut stream: TcpStream, rx: &Receiver<Frame>, depth: &AtomicU64, metrics: &Metrics) {
    let mut writer = FrameWriter::new();
    while let Ok(frame) = rx.recv() {
        depth.fetch_sub(1, Ordering::Relaxed);
        writer.stage(&frame);
        let mut staged = 1u64;
        while let Ok(frame) = rx.try_recv() {
            depth.fetch_sub(1, Ordering::Relaxed);
            writer.stage(&frame);
            staged += 1;
        }
        if writer.flush_to(&mut stream).is_err() {
            break;
        }
        Metrics::add(&metrics.frames_out, staged);
    }
}

/// Per-connection state owned by the engine thread.
struct ConnState {
    outbox: Outbox,
    queries: Vec<u32>,
    /// The connection's announced watermark; `None` until the first
    /// `Watermark` frame. Participates in the group minimum.
    announced: Option<u64>,
    /// `Finish` received: the connection no longer constrains the group
    /// watermark.
    finished: bool,
    events: u64,
    rows: u64,
    /// Rows dropped since the last delivered `Lagging` notice.
    lag_rows: u64,
}

/// The engine thread: serial owner of the [`GroupHost`] and the
/// query→connection routing table.
fn engine_loop(
    rx: Receiver<Cmd>,
    metrics: &Metrics,
    config: &ServeConfig,
    seed: Option<EngineSeed>,
) {
    // Restored queries begin orphaned: alive in the host, constrained by
    // their snapshot cursor, owned by nobody until a Resume adopts them.
    let (mut host, mut orphans) = match seed {
        Some(seed) => (seed.host, seed.cursors),
        None => (GroupHost::new(config.host.clone()), HashMap::new()),
    };
    let mut conns: HashMap<u64, ConnState> = HashMap::new();
    let mut owners: HashMap<u32, u64> = HashMap::new();
    let mut watermark_ticks = 0u64;
    // The serve layer's structured trace ring lives here on the engine
    // thread, so recording is single-threaded, lock-free, and never
    // allocates; it drains only on a client's TraceReq. Sheds happen on
    // reader threads, so they surface as counter deltas observed at
    // command boundaries rather than direct records.
    let mut trace = TraceRing::default();
    let mut seen_shed = 0u64;
    while let Ok(cmd) = rx.recv() {
        if !matches!(cmd, Cmd::Connect { .. } | Cmd::Shutdown) {
            // Connect/Shutdown bypass the depth accounting (they are
            // enqueued outside `enqueue`).
            metrics.ingest_queue_depth.fetch_sub(1, Ordering::Relaxed);
        }
        match cmd {
            Cmd::Connect { conn, outbox } => {
                conns.insert(
                    conn,
                    ConnState {
                        outbox,
                        queries: Vec::new(),
                        announced: None,
                        finished: false,
                        events: 0,
                        rows: 0,
                        lag_rows: 0,
                    },
                );
            }
            Cmd::Register { conn, sql } => {
                if config.fault_injection && sql == FAULT_PANIC_SQL {
                    panic!("fault injection: engine panic requested by {FAULT_PANIC_SQL}");
                }
                let reply = match host.register_sql(&sql) {
                    Ok(id) => {
                        owners.insert(id.0, conn);
                        if let Some(state) = conns.get_mut(&conn) {
                            state.queries.push(id.0);
                        }
                        Metrics::add(&metrics.registrations, 1);
                        metrics.query_registered(id.0);
                        trace.record(TraceEventKind::Register, u64::from(id.0), 0);
                        Frame::Registered { query_id: id.0 }
                    }
                    Err(e) => error_frame(&e),
                };
                route_results(host.poll_results(), &owners, &mut conns, metrics);
                reply_to(conn, reply, &conns, metrics);
            }
            Cmd::Deregister { conn, query_id } => {
                let owned = owners.get(&query_id) == Some(&conn);
                let reply = if !owned {
                    error_frame(&ServeError::UnknownQuery { id: query_id })
                } else {
                    match host.deregister(QueryId(query_id)) {
                        Ok(finals) => {
                            owners.remove(&query_id);
                            if let Some(state) = conns.get_mut(&conn) {
                                state.queries.retain(|&q| q != query_id);
                            }
                            Metrics::add(&metrics.deregistrations, 1);
                            // The departing member still owns its final
                            // sealed batch: route it before forgetting.
                            // When other members remain, the rebuild
                            // stashed those finals in the executor's
                            // pending buffer instead of returning them,
                            // so the follow-up poll must use the same
                            // augmented routing or they are dropped.
                            let mut routing = owners.clone();
                            routing.insert(query_id, conn);
                            route_results(finals, &routing, &mut conns, metrics);
                            route_results(host.poll_results(), &routing, &mut conns, metrics);
                            let rows = metrics.query_deregistered(query_id);
                            trace.record(TraceEventKind::Deregister, u64::from(query_id), rows);
                            Frame::Deregistered { query_id }
                        }
                        Err(e) => error_frame(&e),
                    }
                };
                route_results(host.poll_results(), &owners, &mut conns, metrics);
                reply_to(conn, reply, &conns, metrics);
            }
            Cmd::Push { conn, batch } => {
                let (times, keys, values) = batch.columns();
                match host.push_columns(times, keys, values) {
                    Ok(fed) => {
                        if let Some(state) = conns.get_mut(&conn) {
                            state.events += fed as u64;
                        }
                    }
                    Err(e) => {
                        Metrics::add(&metrics.push_errors, 1);
                        reply_to(conn, error_frame(&e), &conns, metrics);
                    }
                }
            }
            Cmd::Watermark { conn, watermark } => {
                let accepted_at = Instant::now();
                if let Some(state) = conns.get_mut(&conn) {
                    state.announced = Some(state.announced.unwrap_or(0).max(watermark));
                    state.finished = false;
                }
                advance_group(&mut host, &conns, metrics, |e| {
                    Metrics::add(&metrics.push_errors, 1);
                    reply_to(conn, error_frame(&e), &conns, metrics);
                });
                let routed = route_results(host.poll_results(), &owners, &mut conns, metrics);
                if routed > 0 {
                    // Watermark→result latency: the announcement reached
                    // the engine thread, sealing ran, and the rows are in
                    // their outboxes.
                    let micros = u64::try_from(accepted_at.elapsed().as_micros()).unwrap_or(0);
                    metrics.latency.observe(micros);
                }
                trace.record(TraceEventKind::Seal, host.watermark(), routed);
                if config.host.profile.counters_on() {
                    metrics.set_node_profiles(host.node_profiles());
                }
                watermark_ticks += 1;
                if config.checkpoint_every > 0
                    && config.checkpoint_path.is_some()
                    && watermark_ticks.is_multiple_of(config.checkpoint_every)
                {
                    if let Ok(bytes) =
                        persist_checkpoint(&mut host, &conns, &owners, &orphans, config, metrics)
                    {
                        trace.record(TraceEventKind::Checkpoint, host.watermark(), bytes);
                    }
                }
            }
            Cmd::Checkpoint { conn } => {
                let reply =
                    match persist_checkpoint(&mut host, &conns, &owners, &orphans, config, metrics)
                    {
                        Ok(bytes) => {
                            trace.record(TraceEventKind::Checkpoint, host.watermark(), bytes);
                            Frame::CheckpointAck { bytes }
                        }
                        Err(message) => Frame::Error {
                            code: error_code::ENGINE,
                            message,
                        },
                    };
                reply_to(conn, reply, &conns, metrics);
            }
            Cmd::Resume { conn, query_id } => {
                let orphaned =
                    host.queries().contains(&QueryId(query_id)) && !owners.contains_key(&query_id);
                let reply = if orphaned {
                    owners.insert(query_id, conn);
                    let events = orphans.remove(&query_id).unwrap_or(0);
                    if let Some(state) = conns.get_mut(&conn) {
                        state.queries.push(query_id);
                        state.events = events;
                    }
                    Metrics::add(&metrics.resumes, 1);
                    metrics.query_registered(query_id);
                    trace.record(TraceEventKind::Resume, host.watermark(), events);
                    Frame::ResumeAck {
                        events,
                        watermark: host.watermark(),
                    }
                } else {
                    error_frame(&ServeError::UnknownQuery { id: query_id })
                };
                reply_to(conn, reply, &conns, metrics);
            }
            Cmd::Stats { conn } => {
                refresh_gauges(&host, metrics);
                let json = metrics.snapshot().to_json().to_string();
                reply_to(conn, Frame::StatsJson { json }, &conns, metrics);
            }
            Cmd::TraceDump { conn } => {
                let dropped = trace.dropped();
                let mut events = Vec::with_capacity(trace.len());
                trace.drain_into(&mut events);
                reply_to(conn, Frame::Trace { dropped, events }, &conns, metrics);
            }
            Cmd::MetricsText { conn } => {
                refresh_gauges(&host, metrics);
                if config.host.profile.counters_on() {
                    // Scrape-cadence refresh; synchronizing on sharded
                    // executors, same weight class as interner_stats.
                    metrics.set_node_profiles(host.node_profiles());
                }
                let text = expo::render(
                    &metrics.snapshot(),
                    &metrics.node_profiles(),
                    &metrics.latency.snapshot(),
                );
                reply_to(conn, Frame::MetricsText { text }, &conns, metrics);
            }
            Cmd::Finish { conn } => {
                if let Some(state) = conns.get_mut(&conn) {
                    state.finished = true;
                }
                advance_group(&mut host, &conns, metrics, |_| {});
                route_results(host.poll_results(), &owners, &mut conns, metrics);
                let reply = conns.get(&conn).map(|state| Frame::Finished {
                    events: state.events,
                    rows: state.rows,
                });
                if let Some(reply) = reply {
                    reply_to(conn, reply, &conns, metrics);
                }
            }
            Cmd::Disconnect { conn } => {
                if let Some(state) = conns.remove(&conn) {
                    for query_id in state.queries {
                        owners.remove(&query_id);
                        // Mid-stream disconnects must never poison the
                        // shared group: deregistration errors are
                        // tolerated, the survivors stream on.
                        match host.deregister(QueryId(query_id)) {
                            Ok(_finals) => Metrics::add(&metrics.deregistrations, 1),
                            Err(_) => Metrics::add(&metrics.push_errors, 1),
                        }
                        let rows = metrics.query_deregistered(query_id);
                        trace.record(TraceEventKind::Deregister, u64::from(query_id), rows);
                    }
                }
                advance_group(&mut host, &conns, metrics, |_| {});
                route_results(host.poll_results(), &owners, &mut conns, metrics);
            }
            Cmd::Shutdown => break,
        }
        // Sheds are counted on reader threads; surface fresh ones here
        // as an aggregate trace record (`a = 0`: client attribution
        // lives in the per-connection Lagging frames).
        let shed = metrics.batches_shed.load(Ordering::Relaxed);
        if shed > seen_shed {
            trace.record(TraceEventKind::Shed, 0, shed - seen_shed);
            seen_shed = shed;
        }
        refresh_gauges(&host, metrics);
    }
}

/// Advances the hosted group to the minimum announced watermark over
/// unfinished connections (if any vote exists).
fn advance_group(
    host: &mut GroupHost,
    conns: &HashMap<u64, ConnState>,
    metrics: &Metrics,
    on_error: impl FnOnce(ServeError),
) {
    let group_min = conns
        .values()
        .filter(|c| !c.finished)
        .filter_map(|c| c.announced)
        .min();
    if let Some(watermark) = group_min {
        if let Err(e) = host.advance_watermark(watermark) {
            on_error(e);
        }
    }
    Metrics::raise(&metrics.watermark, host.watermark());
    // Announcement cadence is the right sampling rate for the engine's
    // interner high-water (a synchronizing snapshot on sharded
    // executors — too heavy for the per-command gauge refresh).
    let (slots, bytes) = host.interner_stats();
    Metrics::raise(&metrics.interner_slots, slots);
    Metrics::raise(&metrics.interner_bytes, bytes);
}

/// Mirrors host-side gauges into the metrics registry.
fn refresh_gauges(host: &GroupHost, metrics: &Metrics) {
    metrics
        .registered_queries
        .store(host.len() as u64, Ordering::Relaxed);
    metrics.replans.store(host.replans(), Ordering::Relaxed);
    Metrics::raise(&metrics.watermark, host.watermark());
}

/// Fans routed results out to their owning connections' outboxes, each
/// query's rows split into [`Frame::Results`] frames of at most
/// [`RESULTS_CHUNK_ROWS`] rows, shedding (with notice) where an outbox is
/// full. Returns the number of rows actually handed to outboxes.
fn route_results(
    results: Vec<GroupResult>,
    owners: &HashMap<u32, u64>,
    conns: &mut HashMap<u64, ConnState>,
    metrics: &Metrics,
) -> u64 {
    if results.is_empty() {
        return 0;
    }
    let mut delivered = 0u64;
    let mut per_query: HashMap<u32, Vec<Vec<fw_engine::WindowResult>>> = HashMap::new();
    for result in results {
        let chunks = per_query.entry(result.query.0).or_default();
        match chunks.last_mut() {
            Some(rows) if rows.len() < RESULTS_CHUNK_ROWS => rows.push(result.result),
            _ => chunks.push(vec![result.result]),
        }
    }
    for (query_id, rows) in per_query
        .into_iter()
        .flat_map(|(query_id, chunks)| chunks.into_iter().map(move |rows| (query_id, rows)))
    {
        let Some(conn) = owners.get(&query_id) else {
            continue; // subscriber already gone
        };
        let Some(state) = conns.get_mut(conn) else {
            continue;
        };
        let n = rows.len() as u64;
        if state
            .outbox
            .try_send(Frame::Results { query_id, rows }, metrics)
        {
            state.rows += n;
            delivered += n;
            Metrics::add(&metrics.results_rows_out, n);
            metrics.query_rows(query_id, n);
        } else {
            Metrics::add(&metrics.results_dropped, n);
            state.lag_rows += n;
            let notice = Frame::Lagging {
                kind: LagKind::ResultsDropped,
                count: state.lag_rows,
            };
            if state.outbox.try_send(notice, metrics) {
                Metrics::add(&metrics.lagging_notices, 1);
                state.lag_rows = 0;
            }
        }
    }
    delivered
}

/// Sends a control reply to `conn`'s outbox (non-blocking; the engine
/// never waits on a client).
fn reply_to(conn: u64, frame: Frame, conns: &HashMap<u64, ConnState>, metrics: &Metrics) {
    if let Some(state) = conns.get(&conn) {
        state.outbox.try_send(frame, metrics);
    }
}

/// Encodes the full server snapshot: the hosted group's checkpoint
/// followed by a replay-cursor table (one `(query_id, events)` entry per
/// registered query, sorted by id for deterministic bytes).
fn encode_snapshot(
    host: &mut GroupHost,
    conns: &HashMap<u64, ConnState>,
    owners: &HashMap<u32, u64>,
    orphans: &HashMap<u32, u64>,
) -> CheckpointResult<Vec<u8>> {
    let mut bytes = Vec::new();
    host.checkpoint(&mut bytes)?;
    let mut cursors: Vec<(u32, u64)> = host
        .queries()
        .into_iter()
        .map(|q| {
            let events = owners
                .get(&q.0)
                .and_then(|conn| conns.get(conn))
                .map(|state| state.events)
                .or_else(|| orphans.get(&q.0).copied())
                .unwrap_or(0);
            (q.0, events)
        })
        .collect();
    cursors.sort_unstable();
    ckpt::put_u32(&mut bytes, ckpt::count_u32(cursors.len(), "cursor table")?)?;
    for (query_id, events) in cursors {
        ckpt::put_u32(&mut bytes, query_id)?;
        ckpt::put_u64(&mut bytes, events)?;
    }
    Ok(bytes)
}

/// Reads and fully validates a snapshot file written by
/// [`persist_checkpoint`]; any truncation, corruption, or trailing junk
/// is an `InvalidData` error.
fn read_snapshot(path: &Path, host_config: HostConfig) -> std::io::Result<EngineSeed> {
    let bytes = std::fs::read(path)?;
    let invalid = |message: String| std::io::Error::new(std::io::ErrorKind::InvalidData, message);
    let mut r = bytes.as_slice();
    let host = GroupHost::restore(host_config, &mut r)
        .map_err(|e| invalid(format!("restore {}: {e}", path.display())))?;
    let map_err = |e: fw_engine::checkpoint::CheckpointError| {
        invalid(format!("restore {}: {e}", path.display()))
    };
    let count = ckpt::get_u32(&mut r, "cursor table").map_err(map_err)?;
    let mut cursors = HashMap::new();
    for _ in 0..count {
        let query_id = ckpt::get_u32(&mut r, "cursor query id").map_err(map_err)?;
        let events = ckpt::get_u64(&mut r, "cursor events").map_err(map_err)?;
        cursors.insert(query_id, events);
    }
    if !r.is_empty() {
        return Err(invalid(format!(
            "restore {}: {} trailing bytes after snapshot",
            path.display(),
            r.len()
        )));
    }
    Ok(EngineSeed { host, cursors })
}

/// Serializes the snapshot and — when a path is configured — persists
/// it atomically (write to `<path>.tmp`, fsync, rename): a crash during
/// the write leaves the previous complete snapshot, never a torn file.
/// Returns the snapshot size; updates the checkpoint metrics either way.
fn persist_checkpoint(
    host: &mut GroupHost,
    conns: &HashMap<u64, ConnState>,
    owners: &HashMap<u32, u64>,
    orphans: &HashMap<u32, u64>,
    config: &ServeConfig,
    metrics: &Metrics,
) -> Result<u64, String> {
    let bytes = match encode_snapshot(host, conns, owners, orphans) {
        Ok(bytes) => bytes,
        Err(e) => {
            Metrics::add(&metrics.checkpoint_errors, 1);
            return Err(format!("checkpoint failed: {e}"));
        }
    };
    if let Some(path) = &config.checkpoint_path {
        if let Err(e) = write_checkpoint_file(path, &bytes) {
            Metrics::add(&metrics.checkpoint_errors, 1);
            return Err(format!("write checkpoint {}: {e}", path.display()));
        }
    }
    Metrics::add(&metrics.checkpoints_written, 1);
    metrics
        .checkpoint_bytes_last
        .store(bytes.len() as u64, Ordering::Relaxed);
    Ok(bytes.len() as u64)
}

/// Atomic checkpoint write: temp file + fsync + rename.
fn write_checkpoint_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Maps a [`ServeError`] onto a wire error frame.
fn error_frame(e: &ServeError) -> Frame {
    let code = match e {
        ServeError::Parse(_) => error_code::PARSE,
        ServeError::UnknownQuery { .. } => error_code::UNKNOWN_QUERY,
        ServeError::Optimize(_) | ServeError::Engine(_) => error_code::ENGINE,
        _ => error_code::PROTOCOL,
    };
    Frame::Error {
        code,
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_sockets_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        assert!(matches!(accepted(stream).nodelay(), Ok(true)));
    }
}
