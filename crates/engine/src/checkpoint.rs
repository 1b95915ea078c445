//! Durable checkpoints: a versioned, self-describing binary snapshot of
//! live pipeline state, and the re-partitioning that makes restore
//! *elastic* (a checkpoint taken at N shards restores into M).
//!
//! The snapshot rides the same export path as live plan swaps
//! (`driver::Core::export_state` / `adopt`): exposed-window
//! open panes, slot accumulators (including holistic raw multisets), the
//! reorder buffer, undelivered sink rows, cumulative accounting, and the
//! sealing watermark. Everything below the exposed windows (factor-window
//! panes, feed edges) is deliberately *not* serialized — export flushes
//! in-flight sub-aggregates down to the exposed operators first, so a
//! freshly compiled plan (even a structurally different one) adopts the
//! state and reconstructs every instance exactly once. That is also the
//! exactly-once resealing argument: instances sealed before the
//! checkpoint are absent from the image, `PaneDeque::prepare_due`
//! fast-forwards past them on adopt, and the replay cursor
//! (`PipelineImage::events_pushed`) tells the caller exactly which
//! stream suffix to replay — no event is fed twice, no window re-emits.
//!
//! The wire format follows the `"FWB1"` codec style of fw-serve: a 4-byte
//! magic (`"FWC1"`), a format version, a container kind, then
//! little-endian fixed-width fields with explicit counts. Decoding is
//! bounds-checked field by field; corrupt input surfaces as a typed
//! [`CheckpointError`], never a panic or a silently dropped pane.
//!
//! Re-partitioning for rescale is sound because keys never interact:
//! every pane entry and every buffered reorder event belongs to exactly
//! one key, `PipelineImage::merge` unions disjoint key sets (watermark =
//! min over shards, last event time = max, reorder entries stably
//! re-sorted by time), and `PipelineImage::partition` re-routes each key
//! through the same Fibonacci hash the live scatter path uses
//! ([`crate::shard`]). Per-key fold order — the only order aggregation
//! results can observe — is preserved verbatim, so an N→M restore is
//! byte-identical to an uninterrupted run.

use crate::agg::SumCount;
use crate::driver::{GroupState, KeyedPane, MultiAcc, Slot};
use crate::error::EngineError;
use crate::event::{sorted_results, WindowResult};
use crate::executor::ExecStats;
use fw_core::{AggregateFunction, AggregateSpec, Interval, Window, WindowQuery, WindowSet};
use std::collections::BTreeMap;
use std::io::{Read, Write};

/// Snapshot magic: "FWC1" (factor-windows checkpoint, format 1).
const MAGIC: [u8; 4] = *b"FWC1";
/// Snapshot format version written by this build. Version 2 appends the
/// per-node profile section to pipeline images; version-1 snapshots still
/// decode (with empty profiles).
const VERSION: u8 = 2;
/// Oldest snapshot format version this build still decodes.
const MIN_VERSION: u8 = 1;

/// Container kind: a single logical pipeline image (either backend; a
/// sharded pipeline checkpoints as one merged image, which is what makes
/// N→M rescale a plain restore).
pub const KIND_PIPELINE: u8 = 1;
/// Container kind: a [`crate::group::GroupExec`] (routing counters plus
/// one pipeline image per backend).
pub const KIND_GROUP: u8 = 2;
/// Container kind: the `factor_windows::GroupPipeline` façade (member
/// registry plus a [`KIND_GROUP`] body).
pub const KIND_GROUP_FACADE: u8 = 3;
/// Container kind: an fw-serve host (session cursors plus a
/// [`KIND_GROUP_FACADE`]-equivalent body).
pub const KIND_HOST: u8 = 4;

/// Longest string the decoder accepts (column names, labels): corrupt
/// length fields must not drive allocation.
const MAX_STRING: usize = 4096;

/// A typed checkpoint failure. Corrupt or truncated snapshots decode to
/// one of these — never a panic, never silently dropped state.
///
/// The type is `Clone + PartialEq` so façade error enums can carry it;
/// I/O failures are captured as their [`std::io::ErrorKind`] plus the
/// rendered message rather than the (unclonable) [`std::io::Error`].
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The underlying reader or writer failed.
    Io {
        /// The failure's [`std::io::ErrorKind`].
        kind: std::io::ErrorKind,
        /// The rendered error message.
        message: String,
    },
    /// The byte stream ended inside the named field.
    Truncated {
        /// The field being decoded when the stream ended.
        what: &'static str,
    },
    /// The stream does not start with the `FWC1` snapshot magic.
    BadMagic,
    /// The snapshot format version is newer than this build understands.
    BadVersion {
        /// The version byte found.
        found: u8,
    },
    /// The snapshot holds a different container kind than the restore
    /// entry point expects (e.g. a group snapshot fed to
    /// `PlanPipeline::restore`).
    WrongKind {
        /// The kind this entry point restores.
        expected: u8,
        /// The kind byte found.
        found: u8,
    },
    /// A decoded field failed validation.
    BadValue {
        /// What was being validated.
        what: &'static str,
    },
    /// The pipeline cannot produce (or accept) a checkpoint.
    Unsupported {
        /// Why.
        reason: &'static str,
    },
    /// An engine error during export or restore (plan compilation, a
    /// previously failed shard, ...).
    Engine(EngineError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { message, .. } => write!(f, "checkpoint i/o failed: {message}"),
            CheckpointError::Truncated { what } => {
                write!(f, "checkpoint truncated while reading {what}")
            }
            CheckpointError::BadMagic => write!(f, "not a factor-windows checkpoint (bad magic)"),
            CheckpointError::BadVersion { found } => {
                write!(f, "unsupported checkpoint format version {found}")
            }
            CheckpointError::WrongKind { expected, found } => write!(
                f,
                "checkpoint container kind {found} where kind {expected} was expected"
            ),
            CheckpointError::BadValue { what } => write!(f, "invalid checkpoint field: {what}"),
            CheckpointError::Unsupported { reason } => {
                write!(f, "checkpoint unsupported: {reason}")
            }
            CheckpointError::Engine(e) => write!(f, "engine error during checkpoint: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io {
            kind: e.kind(),
            message: e.to_string(),
        }
    }
}

/// Shorthand for checkpoint codec results.
pub type CheckpointResult<T> = std::result::Result<T, CheckpointError>;

// ---------------------------------------------------------------------------
// Primitive codec (shared by every container level, including the api and
// serve crates' registry sections).

/// Writes one byte.
pub fn put_u8<W: Write + ?Sized>(w: &mut W, v: u8) -> CheckpointResult<()> {
    w.write_all(&[v]).map_err(CheckpointError::from)
}

/// Writes a `u32`, little-endian.
pub fn put_u32<W: Write + ?Sized>(w: &mut W, v: u32) -> CheckpointResult<()> {
    w.write_all(&v.to_le_bytes()).map_err(CheckpointError::from)
}

/// Writes a `u64`, little-endian.
pub fn put_u64<W: Write + ?Sized>(w: &mut W, v: u64) -> CheckpointResult<()> {
    w.write_all(&v.to_le_bytes()).map_err(CheckpointError::from)
}

/// Writes an `f64` as its IEEE-754 bit pattern (bit-exact round trips).
pub fn put_f64<W: Write + ?Sized>(w: &mut W, v: f64) -> CheckpointResult<()> {
    put_u64(w, v.to_bits())
}

/// Writes a length-prefixed UTF-8 string.
pub fn put_str<W: Write + ?Sized>(w: &mut W, s: &str) -> CheckpointResult<()> {
    if s.len() > MAX_STRING {
        return Err(CheckpointError::BadValue {
            what: "string longer than the codec limit",
        });
    }
    put_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes()).map_err(CheckpointError::from)
}

/// Converts a collection length to the wire's `u32` count.
pub fn count_u32(n: usize, what: &'static str) -> CheckpointResult<u32> {
    u32::try_from(n).map_err(|_| CheckpointError::BadValue { what })
}

fn get_exact<R: Read + ?Sized, const N: usize>(
    r: &mut R,
    what: &'static str,
) -> CheckpointResult<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => CheckpointError::Truncated { what },
        _ => CheckpointError::from(e),
    })?;
    Ok(buf)
}

/// Reads one byte; `what` names the field in the error on truncation.
pub fn get_u8<R: Read + ?Sized>(r: &mut R, what: &'static str) -> CheckpointResult<u8> {
    Ok(get_exact::<R, 1>(r, what)?[0])
}

/// Reads a little-endian `u32`.
pub fn get_u32<R: Read + ?Sized>(r: &mut R, what: &'static str) -> CheckpointResult<u32> {
    Ok(u32::from_le_bytes(get_exact::<R, 4>(r, what)?))
}

/// Reads a little-endian `u64`.
pub fn get_u64<R: Read + ?Sized>(r: &mut R, what: &'static str) -> CheckpointResult<u64> {
    Ok(u64::from_le_bytes(get_exact::<R, 8>(r, what)?))
}

/// Reads an `f64` bit pattern.
pub fn get_f64<R: Read + ?Sized>(r: &mut R, what: &'static str) -> CheckpointResult<f64> {
    Ok(f64::from_bits(get_u64(r, what)?))
}

/// Reads a length-prefixed UTF-8 string (length capped, bytes validated).
pub fn get_str<R: Read + ?Sized>(r: &mut R, what: &'static str) -> CheckpointResult<String> {
    let len = get_u32(r, what)? as usize;
    if len > MAX_STRING {
        return Err(CheckpointError::BadValue { what });
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => CheckpointError::Truncated { what },
        _ => CheckpointError::from(e),
    })?;
    String::from_utf8(buf).map_err(|_| CheckpointError::BadValue { what })
}

/// Writes the snapshot header: magic, version, container kind.
pub fn write_header<W: Write + ?Sized>(w: &mut W, kind: u8) -> CheckpointResult<()> {
    w.write_all(&MAGIC).map_err(CheckpointError::from)?;
    put_u8(w, VERSION)?;
    put_u8(w, kind)
}

/// Reads and validates the snapshot header against the expected kind,
/// returning the snapshot's format version (any accepted version in
/// `MIN_VERSION..=VERSION`) so body decoders can skip sections the
/// snapshot predates.
pub fn read_header<R: Read + ?Sized>(r: &mut R, expected: u8) -> CheckpointResult<u8> {
    let magic = get_exact::<R, 4>(r, "snapshot magic")?;
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = get_u8(r, "snapshot version")?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(CheckpointError::BadVersion { found: version });
    }
    let found = get_u8(r, "snapshot kind")?;
    if found != expected {
        return Err(CheckpointError::WrongKind { expected, found });
    }
    Ok(version)
}

// ---------------------------------------------------------------------------
// Engine value codecs.

fn func_code(f: AggregateFunction) -> u8 {
    AggregateFunction::ALL
        .iter()
        .position(|&g| g == f)
        .expect("every aggregate function is in ALL") as u8
}

/// Writes an [`AggregateFunction`] as its stable index in
/// [`AggregateFunction::ALL`].
pub fn put_function<W: Write + ?Sized>(w: &mut W, f: AggregateFunction) -> CheckpointResult<()> {
    put_u8(w, func_code(f))
}

/// Reads an [`AggregateFunction`] code.
pub fn get_function<R: Read + ?Sized>(r: &mut R) -> CheckpointResult<AggregateFunction> {
    let code = get_u8(r, "aggregate function code")?;
    AggregateFunction::ALL
        .get(code as usize)
        .copied()
        .ok_or(CheckpointError::BadValue {
            what: "aggregate function code",
        })
}

/// Writes a window as `(range, slide)`.
pub fn put_window<W: Write + ?Sized>(w: &mut W, window: &Window) -> CheckpointResult<()> {
    put_u64(w, window.range())?;
    put_u64(w, window.slide())
}

/// Reads a window, re-validating its geometry through [`Window::new`].
pub fn get_window<R: Read + ?Sized>(r: &mut R) -> CheckpointResult<Window> {
    let range = get_u64(r, "window range")?;
    let slide = get_u64(r, "window slide")?;
    Window::new(range, slide).map_err(|_| CheckpointError::BadValue {
        what: "window geometry",
    })
}

/// Writes one [`WindowResult`] row.
pub fn put_result<W: Write + ?Sized>(w: &mut W, row: &WindowResult) -> CheckpointResult<()> {
    put_window(w, &row.window)?;
    put_u64(w, row.interval.start)?;
    put_u64(w, row.interval.end)?;
    put_u32(w, row.key)?;
    put_u32(w, row.agg)?;
    put_f64(w, row.value)
}

/// Reads one [`WindowResult`] row.
pub fn get_result<R: Read + ?Sized>(r: &mut R) -> CheckpointResult<WindowResult> {
    let window = get_window(r)?;
    let start = get_u64(r, "result interval start")?;
    let end = get_u64(r, "result interval end")?;
    if end < start {
        return Err(CheckpointError::BadValue {
            what: "result interval",
        });
    }
    Ok(WindowResult {
        window,
        interval: Interval::new(start, end),
        key: get_u32(r, "result key")?,
        agg: get_u32(r, "result aggregate index")?,
        value: get_f64(r, "result value")?,
    })
}

/// Writes cumulative [`ExecStats`] as four `u64` counters.
pub fn put_stats<W: Write + ?Sized>(w: &mut W, stats: &ExecStats) -> CheckpointResult<()> {
    put_u64(w, stats.updates)?;
    put_u64(w, stats.combines)?;
    put_u64(w, stats.agg_ops)?;
    put_u64(w, stats.replans)
}

/// Reads cumulative [`ExecStats`].
pub fn get_stats<R: Read + ?Sized>(r: &mut R) -> CheckpointResult<ExecStats> {
    Ok(ExecStats {
        updates: get_u64(r, "stats updates")?,
        combines: get_u64(r, "stats combines")?,
        agg_ops: get_u64(r, "stats agg ops")?,
        replans: get_u64(r, "stats replans")?,
    })
}

/// Serializes one registered [`WindowQuery`] for a member registry:
/// windows with their display labels, then the SELECT-list aggregate
/// terms. Shared by the `factor_windows` group façade and the fw-serve
/// host, so both registries speak the same bytes.
pub fn put_query<W: Write + ?Sized>(w: &mut W, query: &WindowQuery) -> CheckpointResult<()> {
    let windows = query.windows().windows();
    put_u32(w, count_u32(windows.len(), "query window count")?)?;
    for win in windows {
        put_window(w, win)?;
        put_str(w, &query.label_of(win))?;
    }
    let aggs = query.aggregates();
    put_u32(w, count_u32(aggs.len(), "query aggregate count")?)?;
    for spec in aggs {
        put_function(w, spec.function())?;
        put_str(w, spec.column())?;
        put_str(w, spec.label())?;
    }
    Ok(())
}

/// Decodes one registered query, re-validating the window set and
/// aggregate list through the same constructors the builders use.
pub fn get_query<R: Read + ?Sized>(r: &mut R) -> CheckpointResult<WindowQuery> {
    let n = get_u32(r, "query window count")?;
    let mut windows = Vec::with_capacity((n as usize).min(1024));
    let mut labels: BTreeMap<Window, String> = BTreeMap::new();
    for _ in 0..n {
        let win = get_window(r)?;
        let label = get_str(r, "window label")?;
        labels.insert(win, label);
        windows.push(win);
    }
    let windows = WindowSet::new(windows).map_err(|_| CheckpointError::BadValue {
        what: "checkpointed window set is invalid",
    })?;
    let n = get_u32(r, "query aggregate count")?;
    let mut specs = Vec::with_capacity((n as usize).min(1024));
    for _ in 0..n {
        let function = get_function(r)?;
        let column = get_str(r, "aggregate column")?;
        let label = get_str(r, "aggregate label")?;
        specs.push(AggregateSpec::over_column(function, &column).with_label(&label));
    }
    WindowQuery::with_aggregates(windows, specs)
        .map_err(|_| CheckpointError::BadValue {
            what: "checkpointed query is invalid",
        })
        .map(|q| q.with_labels(labels))
}

/// Writes one per-node profile record (version ≥ 2 images).
fn put_profile<W: Write + ?Sized>(
    w: &mut W,
    p: &crate::profile::NodeProfile,
) -> CheckpointResult<()> {
    put_u64(w, p.node as u64)?;
    put_u64(w, p.range)?;
    put_u64(w, p.slide)?;
    put_u8(w, u8::from(p.exposed))?;
    put_u8(w, u8::from(p.raw_fed))?;
    put_u64(w, p.updates)?;
    put_u64(w, p.combines)?;
    put_u64(w, p.agg_ops)?;
    put_u64(w, p.seals)?;
    put_u64(w, p.emitted)?;
    put_u64(w, p.pane_live_hw)?;
    put_u64(w, p.nanos)
}

/// Reads one per-node profile record.
fn get_profile<R: Read + ?Sized>(r: &mut R) -> CheckpointResult<crate::profile::NodeProfile> {
    let node = get_u64(r, "profile node id")?;
    let range = get_u64(r, "profile window range")?;
    let slide = get_u64(r, "profile window slide")?;
    let flag = |v: u8, what: &'static str| match v {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CheckpointError::BadValue { what }),
    };
    let exposed = flag(get_u8(r, "profile exposed flag")?, "profile exposed flag")?;
    let raw_fed = flag(get_u8(r, "profile raw-fed flag")?, "profile raw-fed flag")?;
    Ok(crate::profile::NodeProfile {
        node: usize::try_from(node).unwrap_or(crate::profile::RETIRED_NODE),
        range,
        slide,
        exposed,
        raw_fed,
        updates: get_u64(r, "profile updates")?,
        combines: get_u64(r, "profile combines")?,
        agg_ops: get_u64(r, "profile agg ops")?,
        seals: get_u64(r, "profile seals")?,
        emitted: get_u64(r, "profile emitted rows")?,
        pane_live_hw: get_u64(r, "profile occupancy high-water")?,
        nanos: get_u64(r, "profile nanos")?,
    })
}

/// Slot wire tags, validated against the slot's aggregate function on
/// decode (the snapshot is self-describing *and* shape-checked).
fn slot_tag(slot: &Slot) -> u8 {
    match slot {
        Slot::F64(_) => 0,
        Slot::U64(_) => 1,
        Slot::SumCount(_) => 2,
        Slot::Values(_) => 3,
    }
}

fn expected_tag(f: AggregateFunction) -> u8 {
    match f {
        AggregateFunction::Min | AggregateFunction::Max | AggregateFunction::Sum => 0,
        AggregateFunction::Count => 1,
        AggregateFunction::Avg => 2,
        AggregateFunction::Median => 3,
    }
}

fn put_slot<W: Write + ?Sized>(w: &mut W, slot: &Slot) -> CheckpointResult<()> {
    put_u8(w, slot_tag(slot))?;
    match slot {
        Slot::F64(v) => put_f64(w, *v),
        Slot::U64(v) => put_u64(w, *v),
        Slot::SumCount(sc) => {
            put_f64(w, sc.sum)?;
            put_u64(w, sc.count)
        }
        Slot::Values(values) => {
            put_u32(w, count_u32(values.len(), "holistic multiset length")?)?;
            for &v in values {
                put_f64(w, v)?;
            }
            Ok(())
        }
    }
}

fn get_slot<R: Read + ?Sized>(r: &mut R, f: AggregateFunction) -> CheckpointResult<Slot> {
    let tag = get_u8(r, "slot tag")?;
    if tag != expected_tag(f) {
        return Err(CheckpointError::BadValue {
            what: "slot shape does not match its aggregate function",
        });
    }
    Ok(match tag {
        0 => Slot::F64(get_f64(r, "slot value")?),
        1 => Slot::U64(get_u64(r, "slot count")?),
        2 => Slot::SumCount(SumCount {
            sum: get_f64(r, "slot sum")?,
            count: get_u64(r, "slot count")?,
        }),
        _ => {
            let n = get_u32(r, "holistic multiset length")? as usize;
            // Growth is driven by actually-read bytes, so a corrupt count
            // hits `Truncated` long before it can balloon the allocation.
            let mut values = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                values.push(get_f64(r, "holistic multiset value")?);
            }
            Slot::Values(values)
        }
    })
}

// ---------------------------------------------------------------------------
// The pipeline image: one logical pipeline's full serializable state.

/// Serializable state of a reorder buffer.
pub(crate) struct ReorderImage {
    pub(crate) slack: u64,
    pub(crate) high: u64,
    pub(crate) released: u64,
    /// Buffered events as `(time, key, value bits)`, in release order.
    pub(crate) entries: Vec<(u64, u32, u64)>,
}

/// The canonical serializable state of one logical pipeline. A sharded
/// pipeline exports one *merged* image (key sets are disjoint), so the
/// on-disk format is shard-count-free — the property elastic rescale
/// rests on.
pub(crate) struct PipelineImage {
    /// Sealing watermark (min over shards when merged).
    pub(crate) watermark: u64,
    /// Maximum event time fed (max over shards when merged).
    pub(crate) last_event_time: u64,
    /// Events fed into the operators (excludes reorder-buffered ones).
    pub(crate) fed: u64,
    /// Results emitted over the pipeline's lifetime.
    pub(crate) results: u64,
    /// Emulated element-work sink (kept so accounting survives restore).
    pub(crate) work: u64,
    /// Cumulative cost-model accounting (`stats.replans` included).
    pub(crate) stats: ExecStats,
    /// Slot identities, slot-indexed.
    pub(crate) slots: Vec<(AggregateFunction, String)>,
    /// Open panes of every exposed window, canonically ordered: windows by
    /// `(range, slide)`, panes by instance, entries by key.
    pub(crate) windows: Vec<(Window, WindowPanes)>,
    /// Reorder buffer contents, if out-of-order tolerance was configured.
    pub(crate) reorder: Option<ReorderImage>,
    /// Collected results not yet drained by the consumer at checkpoint
    /// time (delivered again after restore — they never reached anyone).
    pub(crate) pending: Vec<WindowResult>,
    /// Per-node profile counters accumulated up to the checkpoint (empty
    /// when profiling is off or the snapshot predates version 2). Restore
    /// adopts these as the new pipeline's base profiles so node counters
    /// are checkpoint-neutral.
    pub(crate) profiles: Vec<crate::profile::NodeProfile>,
}

/// One window's open panes: `(instance, entries)` pairs with entries
/// sorted by key — the canonical on-disk ordering.
pub(crate) type WindowPanes = Vec<(u64, Vec<(u32, MultiAcc)>)>;

impl PipelineImage {
    /// Builds a canonical image from exported core state plus the
    /// pipeline-level envelope.
    pub(crate) fn from_state(
        state: &GroupState,
        reorder: Option<ReorderImage>,
        pending: Vec<WindowResult>,
        fed: u64,
        results: u64,
        work: u64,
        stats: ExecStats,
    ) -> Self {
        // Exported panes are already key-addressed and key-sorted
        // (`GroupState` is slot-assignment-neutral); re-sorting is a
        // cheap no-op pass that keeps the canonical ordering a local
        // invariant of the codec rather than a cross-module promise.
        let mut windows: Vec<(Window, WindowPanes)> = state
            .windows
            .iter()
            .map(|(window, panes)| {
                let panes = panes
                    .iter()
                    .map(|(m, pane)| {
                        let mut entries: Vec<(u32, MultiAcc)> = pane.clone();
                        entries.sort_by_key(|&(k, _)| k);
                        (*m, entries)
                    })
                    .collect();
                (*window, panes)
            })
            .collect();
        windows.sort_by_key(|(w, _)| (w.range(), w.slide()));
        PipelineImage {
            watermark: state.watermark,
            last_event_time: state.last_event_time,
            fed,
            results,
            work,
            stats,
            slots: state.slots.clone(),
            windows,
            reorder,
            pending: sorted_results(pending),
            profiles: Vec::new(),
        }
    }

    /// The replay cursor: how many events of the original stream this
    /// image fully accounts for (fed into panes or held in the reorder
    /// buffer). Replaying `events[cursor..]` after restore reconstructs
    /// the stream exactly once.
    pub(crate) fn events_pushed(&self) -> u64 {
        self.fed
            + self
                .reorder
                .as_ref()
                .map_or(0, |ri| ri.entries.len() as u64)
    }

    /// Converts the image's pane state back into an adoptable
    /// [`GroupState`], draining the image's window section.
    pub(crate) fn take_group_state(&mut self) -> GroupState {
        let windows = std::mem::take(&mut self.windows)
            .into_iter()
            .map(|(window, panes)| {
                // Image entries are stored key-sorted, which is exactly
                // the `KeyedPane` contract — pass them through.
                let panes: Vec<(u64, KeyedPane)> = panes
                    .into_iter()
                    .filter(|(_, entries)| !entries.is_empty())
                    .collect();
                (window, panes)
            })
            .filter(|(_, panes)| !panes.is_empty())
            .collect();
        GroupState {
            watermark: self.watermark,
            last_event_time: self.last_event_time,
            slots: std::mem::take(&mut self.slots),
            windows,
        }
    }

    /// Encodes the image body (header excluded: the container writes it).
    pub(crate) fn encode<W: Write + ?Sized>(&self, w: &mut W) -> CheckpointResult<()> {
        put_u64(w, self.watermark)?;
        put_u64(w, self.last_event_time)?;
        put_u64(w, self.fed)?;
        put_u64(w, self.results)?;
        put_u64(w, self.work)?;
        put_stats(w, &self.stats)?;
        put_u32(w, count_u32(self.slots.len(), "slot count")?)?;
        for (f, column) in &self.slots {
            put_function(w, *f)?;
            put_str(w, column)?;
        }
        put_u32(w, count_u32(self.windows.len(), "window count")?)?;
        for (window, panes) in &self.windows {
            put_window(w, window)?;
            put_u32(w, count_u32(panes.len(), "pane count")?)?;
            for (m, entries) in panes {
                put_u64(w, *m)?;
                put_u32(w, count_u32(entries.len(), "pane entry count")?)?;
                for (key, acc) in entries {
                    put_u32(w, *key)?;
                    debug_assert_eq!(acc.len(), self.slots.len());
                    for slot in acc.iter() {
                        put_slot(w, slot)?;
                    }
                }
            }
        }
        match &self.reorder {
            None => put_u8(w, 0)?,
            Some(ri) => {
                put_u8(w, 1)?;
                put_u64(w, ri.slack)?;
                put_u64(w, ri.high)?;
                put_u64(w, ri.released)?;
                put_u64(w, ri.entries.len() as u64)?;
                for &(time, key, bits) in &ri.entries {
                    put_u64(w, time)?;
                    put_u32(w, key)?;
                    put_u64(w, bits)?;
                }
            }
        }
        put_u32(w, count_u32(self.pending.len(), "pending result count")?)?;
        for row in &self.pending {
            put_result(w, row)?;
        }
        put_u32(w, count_u32(self.profiles.len(), "profile count")?)?;
        for p in &self.profiles {
            put_profile(w, p)?;
        }
        Ok(())
    }

    /// Decodes an image body, validating every field. `version` is the
    /// container header's format version; version-1 images predate the
    /// per-node profile section and decode with empty profiles.
    pub(crate) fn decode<R: Read + ?Sized>(r: &mut R, version: u8) -> CheckpointResult<Self> {
        let watermark = get_u64(r, "watermark")?;
        let last_event_time = get_u64(r, "last event time")?;
        let fed = get_u64(r, "fed event count")?;
        let results = get_u64(r, "result count")?;
        let work = get_u64(r, "work sink")?;
        let stats = get_stats(r)?;
        let slot_count = get_u32(r, "slot count")? as usize;
        let mut slots = Vec::with_capacity(slot_count.min(1024));
        for _ in 0..slot_count {
            let f = get_function(r)?;
            let column = get_str(r, "slot column")?;
            slots.push((f, column));
        }
        let window_count = get_u32(r, "window count")? as usize;
        let mut windows = Vec::with_capacity(window_count.min(1024));
        for _ in 0..window_count {
            let window = get_window(r)?;
            let pane_count = get_u32(r, "pane count")? as usize;
            let mut panes = Vec::with_capacity(pane_count.min(1024));
            for _ in 0..pane_count {
                let m = get_u64(r, "pane instance")?;
                let entry_count = get_u32(r, "pane entry count")? as usize;
                let mut entries = Vec::with_capacity(entry_count.min(1024));
                for _ in 0..entry_count {
                    let key = get_u32(r, "pane key")?;
                    let acc: MultiAcc = slots
                        .iter()
                        .map(|&(f, _)| get_slot(r, f))
                        .collect::<CheckpointResult<_>>()?;
                    entries.push((key, acc));
                }
                panes.push((m, entries));
            }
            windows.push((window, panes));
        }
        let reorder = match get_u8(r, "reorder flag")? {
            0 => None,
            1 => {
                let slack = get_u64(r, "reorder slack")?;
                let high = get_u64(r, "reorder high watermark")?;
                let released = get_u64(r, "reorder released watermark")?;
                let entry_count = get_u64(r, "reorder entry count")? as usize;
                let mut entries = Vec::with_capacity(entry_count.min(4096));
                for _ in 0..entry_count {
                    let time = get_u64(r, "reorder entry time")?;
                    let key = get_u32(r, "reorder entry key")?;
                    let bits = get_u64(r, "reorder entry value")?;
                    entries.push((time, key, bits));
                }
                Some(ReorderImage {
                    slack,
                    high,
                    released,
                    entries,
                })
            }
            _ => {
                return Err(CheckpointError::BadValue {
                    what: "reorder flag",
                })
            }
        };
        let pending_count = get_u32(r, "pending result count")? as usize;
        let mut pending = Vec::with_capacity(pending_count.min(4096));
        for _ in 0..pending_count {
            pending.push(get_result(r)?);
        }
        let mut profiles = Vec::new();
        if version >= 2 {
            let profile_count = get_u32(r, "profile count")? as usize;
            profiles.reserve(profile_count.min(1024));
            for _ in 0..profile_count {
                profiles.push(get_profile(r)?);
            }
        }
        Ok(PipelineImage {
            watermark,
            last_event_time,
            fed,
            results,
            work,
            stats,
            slots,
            windows,
            reorder,
            pending,
            profiles,
        })
    }

    /// Merges per-shard images into one global image. Key sets are
    /// disjoint, so panes union; the watermark is the most conservative
    /// shard's (min), the event-time horizon the most advanced (max);
    /// reorder entries re-sort stably by time (per-key order — the only
    /// order results observe — is preserved, since a key lives on exactly
    /// one shard). `replans` is the façade-level count.
    pub(crate) fn merge(parts: Vec<PipelineImage>, replans: u64) -> CheckpointResult<Self> {
        let mut iter = parts.into_iter();
        let mut merged = iter.next().ok_or(CheckpointError::BadValue {
            what: "empty shard image set",
        })?;
        for part in iter {
            if part.slots != merged.slots {
                return Err(CheckpointError::BadValue {
                    what: "shard images disagree on slot identities",
                });
            }
            merged.watermark = merged.watermark.min(part.watermark);
            merged.last_event_time = merged.last_event_time.max(part.last_event_time);
            merged.fed += part.fed;
            merged.results += part.results;
            merged.work = merged.work.wrapping_add(part.work);
            merged.stats.updates += part.stats.updates;
            merged.stats.combines += part.stats.combines;
            merged.stats.agg_ops += part.stats.agg_ops;
            crate::profile::add_shard_profiles(&mut merged.profiles, &part.profiles);
            for (window, panes) in part.windows {
                let target = match merged.windows.iter_mut().find(|(w, _)| *w == window) {
                    Some((_, target)) => target,
                    None => {
                        merged.windows.push((window, Vec::new()));
                        &mut merged.windows.last_mut().expect("just pushed").1
                    }
                };
                for (m, entries) in panes {
                    match target.iter_mut().find(|(tm, _)| *tm == m) {
                        Some((_, t)) => t.extend(entries),
                        None => target.push((m, entries)),
                    }
                }
            }
            match (&mut merged.reorder, part.reorder) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    if a.slack != b.slack {
                        return Err(CheckpointError::BadValue {
                            what: "shard images disagree on reorder slack",
                        });
                    }
                    a.high = a.high.min(b.high);
                    a.released = a.released.max(b.released);
                    a.entries.extend(b.entries);
                }
                _ => {
                    return Err(CheckpointError::BadValue {
                        what: "shard images disagree on reorder buffering",
                    })
                }
            }
            merged.pending.extend(part.pending);
        }
        merged.stats.replans = replans;
        merged.canonicalize();
        Ok(merged)
    }

    fn canonicalize(&mut self) {
        self.windows.retain(|(_, panes)| !panes.is_empty());
        self.windows.sort_by_key(|(w, _)| (w.range(), w.slide()));
        for (_, panes) in &mut self.windows {
            panes.sort_by_key(|&(m, _)| m);
            for (_, entries) in panes.iter_mut() {
                entries.sort_by_key(|&(k, _)| k);
            }
        }
        if let Some(ri) = &mut self.reorder {
            // Stable: entries of equal time keep their per-shard arrival
            // order (a key's events never split across shards).
            ri.entries.sort_by_key(|&(t, _, _)| t);
        }
        self.pending = sorted_results(std::mem::take(&mut self.pending));
    }

    /// Splits a global image into `shards` per-worker images by re-hashing
    /// every key through the live scatter path's routing function — the
    /// restore half of elastic rescale. Worker 0 carries the global
    /// accounting and the undelivered rows (the façade sums per-worker
    /// counters, so totals survive any N→M).
    pub(crate) fn partition(mut self, shards: usize) -> Vec<PipelineImage> {
        let shards = shards.max(1);
        let mut parts: Vec<PipelineImage> = (0..shards)
            .map(|_| PipelineImage {
                watermark: self.watermark,
                last_event_time: self.last_event_time,
                fed: 0,
                results: 0,
                work: 0,
                stats: ExecStats::default(),
                slots: self.slots.clone(),
                windows: Vec::new(),
                reorder: self.reorder.as_ref().map(|ri| ReorderImage {
                    slack: ri.slack,
                    high: ri.high,
                    released: ri.released,
                    entries: Vec::new(),
                }),
                pending: Vec::new(),
                profiles: Vec::new(),
            })
            .collect();
        parts[0].fed = self.fed;
        parts[0].results = self.results;
        parts[0].work = self.work;
        parts[0].stats = self.stats;
        parts[0].pending = std::mem::take(&mut self.pending);
        parts[0].profiles = std::mem::take(&mut self.profiles);
        for (window, panes) in self.windows {
            for (m, entries) in panes {
                for (key, acc) in entries {
                    let part = &mut parts[crate::shard::route_of(key, shards)];
                    let target = match part.windows.iter_mut().find(|(w, _)| *w == window) {
                        Some((_, target)) => target,
                        None => {
                            part.windows.push((window, Vec::new()));
                            &mut part.windows.last_mut().expect("just pushed").1
                        }
                    };
                    match target.iter_mut().find(|(tm, _)| *tm == m) {
                        Some((_, t)) => t.push((key, acc)),
                        None => target.push((m, vec![(key, acc)])),
                    }
                }
            }
        }
        if let Some(ri) = self.reorder {
            for (time, key, bits) in ri.entries {
                parts[crate::shard::route_of(key, shards)]
                    .reorder
                    .as_mut()
                    .expect("partition pre-created the buffer")
                    .entries
                    .push((time, key, bits));
            }
        }
        parts
    }
}

// ---------------------------------------------------------------------------
// Byte-level snapshot surgery for the distributed coordinator (fw-dist).
//
// Worker processes emit ordinary `KIND_PIPELINE` documents through
// `PlanPipeline::checkpoint`; the coordinator merges them into the one
// shard-count-free document the rest of the system understands, and
// splits a global document back into per-worker documents on restore.
// Both directions go through [`PipelineImage`], so distributed snapshots
// are byte-compatible with in-process ones — a checkpoint taken at N
// worker processes restores into M threads (or sequentially) unchanged.

/// Envelope counters of a `KIND_PIPELINE` snapshot, surfaced so a
/// restoring coordinator can adopt the global accounting without decoding
/// pane state itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotSummary {
    /// The replay cursor: events of the original stream the snapshot
    /// fully accounts for (fed into panes or held in the reorder buffer).
    pub events_pushed: u64,
    /// The sealing watermark at checkpoint time.
    pub watermark: u64,
    /// Maximum event time fed before the checkpoint.
    pub last_event_time: u64,
    /// Results emitted over the pipeline's lifetime.
    pub results_emitted: u64,
    /// Plan swaps applied before the checkpoint.
    pub replans: u64,
}

pub(crate) fn decode_pipeline_doc(doc: &[u8]) -> CheckpointResult<PipelineImage> {
    let mut r = doc;
    let version = read_header(&mut r, KIND_PIPELINE)?;
    let image = PipelineImage::decode(&mut r, version)?;
    if !r.is_empty() {
        return Err(CheckpointError::BadValue {
            what: "trailing bytes after the pipeline image",
        });
    }
    Ok(image)
}

pub(crate) fn encode_pipeline_doc(image: &PipelineImage) -> CheckpointResult<Vec<u8>> {
    let mut doc = Vec::new();
    write_header(&mut doc, KIND_PIPELINE)?;
    image.encode(&mut doc)?;
    Ok(doc)
}

/// Merges per-worker `KIND_PIPELINE` snapshot documents into the one
/// global, shard-count-free document (see `PipelineImage::merge`).
/// `replans` is the façade-level plan-swap count, which per-worker
/// snapshots cannot know.
pub fn merge_pipeline_snapshots(parts: &[Vec<u8>], replans: u64) -> CheckpointResult<Vec<u8>> {
    let images = parts
        .iter()
        .map(|doc| decode_pipeline_doc(doc))
        .collect::<CheckpointResult<Vec<_>>>()?;
    encode_pipeline_doc(&PipelineImage::merge(images, replans)?)
}

/// Splits a global `KIND_PIPELINE` snapshot document into `shards`
/// per-worker documents by re-hashing every key through the live scatter
/// route ([`crate::shard::route_of`]), returning the global envelope
/// counters alongside (worker 0's document carries them on the wire; the
/// summary lets the coordinator adopt them without trusting any worker).
pub fn partition_pipeline_snapshot(
    doc: &[u8],
    shards: usize,
) -> CheckpointResult<(SnapshotSummary, Vec<Vec<u8>>)> {
    let image = decode_pipeline_doc(doc)?;
    let summary = SnapshotSummary {
        events_pushed: image.events_pushed(),
        watermark: image.watermark,
        last_event_time: image.last_event_time,
        results_emitted: image.results,
        replans: image.stats.replans,
    };
    let parts = image
        .partition(shards)
        .iter()
        .map(encode_pipeline_doc)
        .collect::<CheckpointResult<Vec<_>>>()?;
    Ok((summary, parts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_and_rejects_corruption() {
        let mut buf = Vec::new();
        write_header(&mut buf, KIND_PIPELINE).unwrap();
        read_header(&mut buf.as_slice(), KIND_PIPELINE).unwrap();

        assert!(matches!(
            read_header(&mut buf.as_slice(), KIND_GROUP),
            Err(CheckpointError::WrongKind {
                expected: KIND_GROUP,
                found: KIND_PIPELINE,
            })
        ));
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            read_header(&mut bad.as_slice(), KIND_PIPELINE),
            Err(CheckpointError::BadMagic)
        ));
        let mut newer = buf.clone();
        newer[4] = 99;
        assert!(matches!(
            read_header(&mut newer.as_slice(), KIND_PIPELINE),
            Err(CheckpointError::BadVersion { found: 99 })
        ));
        assert!(matches!(
            read_header(&mut buf[..3].as_ref(), KIND_PIPELINE),
            Err(CheckpointError::Truncated { .. })
        ));
    }

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7).unwrap();
        put_u32(&mut buf, 0xDEAD_BEEF).unwrap();
        put_u64(&mut buf, u64::MAX - 1).unwrap();
        put_f64(&mut buf, -0.0).unwrap();
        put_str(&mut buf, "température").unwrap();
        let r = &mut buf.as_slice();
        assert_eq!(get_u8(r, "a").unwrap(), 7);
        assert_eq!(get_u32(r, "b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(get_u64(r, "c").unwrap(), u64::MAX - 1);
        assert_eq!(get_f64(r, "d").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(get_str(r, "e").unwrap(), "température");
    }

    #[test]
    fn overlong_string_lengths_are_rejected_without_allocation() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX).unwrap(); // absurd length prefix
        assert!(matches!(
            get_str(&mut buf.as_slice(), "s"),
            Err(CheckpointError::BadValue { what: "s" })
        ));
    }

    #[test]
    fn window_codec_rejects_invalid_geometry() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 10).unwrap();
        put_u64(&mut buf, 3).unwrap(); // fractional recurrence: invalid
        assert!(matches!(
            get_window(&mut buf.as_slice()),
            Err(CheckpointError::BadValue { .. })
        ));
    }

    #[test]
    fn function_codes_are_stable_indices_into_all() {
        for (i, &f) in AggregateFunction::ALL.iter().enumerate() {
            let mut buf = Vec::new();
            put_function(&mut buf, f).unwrap();
            assert_eq!(buf, vec![i as u8]);
            assert_eq!(get_function(&mut buf.as_slice()).unwrap(), f);
        }
        assert!(matches!(
            get_function(&mut [200u8].as_ref()),
            Err(CheckpointError::BadValue { .. })
        ));
    }
}
